//! The perf harness: one report type for every timing arm
//! (`BENCH_perf.json`).
//!
//! The `bench_perf` target runs every arm and writes one
//! [`BenchReport`]. Each [`Arm`] times two or more paths through the
//! same work with one best-of-N timer ([`best_of`]), records the
//! threads each path ran on, and checks that the paths agree bit for
//! bit where they should. [`gates`] then turns the arms into named
//! [`Gate`]s, each a measured value against a bar stated as a function
//! of the [`Host`] (its core count and scale). Wall-clock numbers are
//! host-dependent; the identity checks are not.
//!
//! | arm | paths | gate |
//! |---|---|---|
//! | `fabric` | naive scan vs cached head, 3 sources, peek+pop | ≥1.0x |
//! | `recycled` | fresh vs recycled machine per trial | ≥2x quick, ≥5x full |
//! | `probe` | `probe_n` vs `probe_n_into` | fewer allocations |
//! | `kaslr_engine` | 1 thread vs all threads | identity only |
//! | `lstm` | per-example vs minibatch training epochs, same weights | >1.0x |
//! | `math` | libm vs `nnet::math` LSTM cell update, same bits | >1.0x |
//! | `campaign` | 1, 4, 8 shards | ≥2x on multi-core |
//! | `serve.f64`, `serve.i16` | sequential vs batched ×1/×8/×64 | f64 ≥3x on multi-core |
//! | `quant.i8`, `quant.i16` | accuracy vs the f64 model | Δ≤0.05, Δ≤0.01 |
//!
//! [`BenchReport::finish`] writes the report before it checks the
//! gates, so a host that fails a gate still records its numbers.

use campaign::{CampaignManifest, CampaignOptions, CampaignSpec, FaultVariant, ScenarioSel};
use irq::{InterruptFabric, InterruptKind, NaiveFabric};
use nnet::reference::{self, NaiveClassifier};
use nnet::{AdamConfig, Mat, SeqClassifier, SeqExample};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use segscope::SegProbe;
use segscope_attacks::kaslr::{run_trials, KaslrConfig};
use segscope_attacks::website::{self, Browser, Setting, WebsiteFpConfig};
use segsim::{FaultPlan, Machine, MachineConfig};
use serde::Serialize;
use serve::{
    serve_batched, serve_sequential, verdict_fnv, QuantScheme, QuantizedSeqClassifier, StepModel,
    Verdict,
};
use std::collections::BTreeMap;
use std::time::Instant;
use x86seg::Selector;

/// Minimum fabric-vs-naive speedup on the peek+pop pattern. The
/// simulator peeks the head several times per delivered interrupt; the
/// fabric answers from its cache while the naive scan pays O(sources)
/// each time, so parity holds with margin.
pub const FABRIC_MIN_SPEEDUP: f64 = 1.0;

/// `peek_next` calls per consumed interrupt in the fabric arm: the
/// simulator re-peeks the head once per user span to bound the span.
pub const PEEKS_PER_POP: usize = 4;

/// Minimum recycled-vs-fresh trial speedup at quick scale.
pub const RECYCLED_MIN_SPEEDUP: f64 = 2.0;

/// Minimum recycled-vs-fresh trial speedup at full scale, where
/// per-trial work is long enough to amortize timing noise.
pub const RECYCLED_FULL_MIN_SPEEDUP: f64 = 5.0;

/// Minibatch training must beat the per-example reference (strictly).
pub const LSTM_MIN_SPEEDUP: f64 = 1.0;

/// The `nnet::math` cell update must beat the libm one (strictly).
pub const MATH_MIN_SPEEDUP: f64 = 1.0;

/// Minimum 8-shard-vs-serial campaign sweep speedup, armed on
/// multi-core hosts only.
pub const CAMPAIGN_MIN_SPEEDUP: f64 = 2.0;

/// Minimum best batched-vs-sequential f64 session speedup, armed on
/// multi-core hosts only (lockstep lanes share no transcendental work,
/// so on one core the gate would only measure `tanhf`).
pub const SERVE_MIN_SPEEDUP: f64 = 3.0;

/// Maximum |accuracy(i16) − accuracy(f64)| on the eval set.
pub const I16_MAX_ACCURACY_DELTA: f64 = 0.01;

/// Maximum accuracy delta for the coarser 7-bit `i8` scheme.
pub const I8_MAX_ACCURACY_DELTA: f64 = 0.05;

/// Auxiliary seed stream for the serving model, disjoint from the
/// website scenario's machine and visit streams.
const SERVE_BENCH_STREAM: u64 = 0x5EBE;

/// The measuring host.
#[derive(Debug, Clone, Serialize)]
pub struct Host {
    /// CPU model from `/proc/cpuinfo`, or `unknown CPU`.
    pub cpu: String,
    /// Cores available to the process.
    pub cores: usize,
    /// Whether the run used the full scale (`SEGSCOPE_BENCH_FULL=1`).
    pub full_scale: bool,
}

impl Host {
    /// Describes the current host and scale.
    #[must_use]
    pub fn detect() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|line| line.starts_with("model name"))
                    .and_then(|line| line.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown CPU".to_string());
        Host {
            cpu,
            cores: std::thread::available_parallelism().map_or(1, usize::from),
            full_scale: crate::full_scale(),
        }
    }
}

/// One timed path of an arm.
#[derive(Debug, Clone, Serialize)]
pub struct Timing {
    /// The path's name within its arm, e.g. `naive` or `fabric`.
    pub path: String,
    /// Worker threads the path ran on.
    pub threads: usize,
    /// Best-of-N wall-clock seconds for one run of the arm's work.
    pub wall_s: f64,
    /// Units of work per second at that time.
    pub per_s: f64,
}

/// One arm: the same work run through two or more paths.
#[derive(Debug, Clone, Serialize)]
pub struct Arm {
    /// The arm's name; [`gates`] keys its bar on it.
    pub name: String,
    /// What one unit of work is (`events`, `trials`, ...).
    pub unit: String,
    /// Units of work per timed run.
    pub work: usize,
    /// One entry per path, baseline first.
    pub timings: Vec<Timing>,
    /// Measured quantities other than wall time (allocation counts,
    /// accuracies, the arm's shape), serialized as `[key, value]` pairs.
    pub values: BTreeMap<String, f64>,
    /// Whether every path produced the same result; `None` for arms
    /// whose paths are not expected to agree bit for bit.
    pub identical: Option<bool>,
}

impl Arm {
    /// An arm with no timings yet.
    #[must_use]
    pub fn new(name: &str, unit: &str, work: usize) -> Self {
        Arm {
            name: name.to_string(),
            unit: unit.to_string(),
            work,
            timings: Vec::new(),
            values: BTreeMap::new(),
            identical: None,
        }
    }

    /// Appends one path's timing.
    #[must_use]
    pub fn timed(mut self, path: &str, threads: usize, wall_s: f64) -> Self {
        self.timings.push(Timing {
            path: path.to_string(),
            threads,
            wall_s,
            per_s: self.work as f64 / wall_s.max(1e-9),
        });
        self
    }

    /// Records one non-timing measurement.
    #[must_use]
    pub fn value(mut self, key: &str, value: f64) -> Self {
        self.values.insert(key.to_string(), value);
        self
    }

    /// Records the arm's identity check.
    #[must_use]
    pub fn identical(mut self, identical: bool) -> Self {
        self.identical = Some(identical);
        self
    }

    /// Wall seconds of `path`, NaN if the arm did not time it (so any
    /// gate on it fails).
    fn wall(&self, path: &str) -> f64 {
        self.timings
            .iter()
            .find(|t| t.path == path)
            .map_or(f64::NAN, |t| t.wall_s)
    }

    /// Speedup of `path` over `baseline` (wall-clock ratio).
    fn speedup(&self, baseline: &str, path: &str) -> f64 {
        self.wall(baseline) / self.wall(path).max(1e-9)
    }

    fn get(&self, key: &str) -> f64 {
        self.values.get(key).copied().unwrap_or(f64::NAN)
    }
}

/// One pass/fail criterion: a measured value against a bar.
#[derive(Debug, Clone, Serialize)]
pub struct Gate {
    /// `<arm>.<metric>`.
    pub name: String,
    /// How `measured` must compare to `bar`: `>=`, `>`, `<=` or `<`.
    pub cmp: String,
    /// The bar.
    pub bar: f64,
    /// The measured value.
    pub measured: f64,
    /// Whether the gate counts on the measured host: multi-core-only gates are
    /// disarmed on one core.
    pub armed: bool,
    /// Whether `measured` meets `bar`.
    pub pass: bool,
}

impl Gate {
    fn new(name: String, cmp: &str, bar: f64, measured: f64, armed: bool) -> Self {
        let pass = match cmp {
            ">=" => measured >= bar,
            ">" => measured > bar,
            "<=" => measured <= bar,
            "<" => measured < bar,
            other => unreachable!("unknown comparison `{other}`"),
        };
        Gate {
            name,
            cmp: cmp.to_string(),
            bar,
            measured,
            armed,
            pass,
        }
    }
}

/// Every gate the arms arm on `host`, one per gated arm.
#[must_use]
pub fn gates(host: &Host, arms: &[Arm]) -> Vec<Gate> {
    let multi_core = host.cores > 1;
    arms.iter()
        .filter_map(|arm| {
            let (metric, cmp, bar, measured, armed) = match arm.name.as_str() {
                "fabric" => (
                    "speedup",
                    ">=",
                    FABRIC_MIN_SPEEDUP,
                    arm.speedup("naive", "fabric"),
                    true,
                ),
                "recycled" => (
                    "speedup",
                    ">=",
                    if host.full_scale {
                        RECYCLED_FULL_MIN_SPEEDUP
                    } else {
                        RECYCLED_MIN_SPEEDUP
                    },
                    arm.speedup("fresh", "recycled"),
                    true,
                ),
                "probe" => (
                    "allocs",
                    "<",
                    arm.get("probe_n.allocs"),
                    arm.get("probe_n_into.allocs"),
                    true,
                ),
                "lstm" => (
                    "speedup",
                    ">",
                    LSTM_MIN_SPEEDUP,
                    arm.speedup("per_example", "minibatch"),
                    true,
                ),
                "math" => (
                    "speedup",
                    ">",
                    MATH_MIN_SPEEDUP,
                    arm.speedup("libm", "math"),
                    true,
                ),
                "campaign" => (
                    "speedup",
                    ">=",
                    CAMPAIGN_MIN_SPEEDUP,
                    arm.speedup("shards1", "shards8"),
                    multi_core,
                ),
                "serve.f64" => (
                    "speedup",
                    ">=",
                    SERVE_MIN_SPEEDUP,
                    SERVE_CAPACITIES
                        .iter()
                        .map(|c| arm.speedup("sequential", &format!("x{c}")))
                        .fold(f64::NEG_INFINITY, f64::max),
                    multi_core,
                ),
                "quant.i16" => (
                    "accuracy_delta",
                    "<=",
                    I16_MAX_ACCURACY_DELTA,
                    arm.get("accuracy_delta"),
                    true,
                ),
                "quant.i8" => (
                    "accuracy_delta",
                    "<=",
                    I8_MAX_ACCURACY_DELTA,
                    arm.get("accuracy_delta"),
                    true,
                ),
                _ => return None,
            };
            Some(Gate::new(
                format!("{}.{metric}", arm.name),
                cmp,
                bar,
                measured,
                armed,
            ))
        })
        .collect()
}

/// The full `BENCH_perf.json` payload.
#[derive(Debug, Clone, Serialize)]
pub struct BenchReport {
    /// The measuring host.
    pub host: Host,
    /// Every arm, in run order.
    pub arms: Vec<Arm>,
    /// Whether every arm's identity check held.
    pub identity: bool,
    /// Every gate, evaluated on `host`.
    pub gates: Vec<Gate>,
}

impl BenchReport {
    /// Assembles a report and evaluates its identity checks and gates.
    #[must_use]
    pub fn new(host: Host, arms: Vec<Arm>) -> Self {
        let identity = arms.iter().all(|a| a.identical != Some(false));
        let gates = gates(&host, &arms);
        BenchReport {
            host,
            arms,
            identity,
            gates,
        }
    }

    /// Checks every identity check and every armed gate.
    ///
    /// # Errors
    ///
    /// Lists every divergent arm and every failed armed gate, one per
    /// line.
    pub fn validate(&self) -> Result<(), String> {
        let mut failures: Vec<String> = self
            .arms
            .iter()
            .filter(|a| a.identical == Some(false))
            .map(|a| format!("arm `{}`: paths diverged", a.name))
            .collect();
        failures.extend(self.gates.iter().filter(|g| g.armed && !g.pass).map(|g| {
            format!(
                "gate `{}`: measured {:.3}, bar {} {}",
                g.name, g.measured, g.cmp, g.bar
            )
        }));
        if failures.is_empty() {
            Ok(())
        } else {
            Err(failures.join("\n"))
        }
    }

    /// Writes the report to `path` as one JSON line, then validates it.
    ///
    /// # Errors
    ///
    /// Returns the write error, or [`Self::validate`]'s failures.
    pub fn finish(&self, path: &str) -> Result<(), String> {
        let json = serde_json::to_string(self).map_err(|e| e.to_string())?;
        std::fs::write(path, json + "\n").map_err(|e| format!("write {path}: {e}"))?;
        self.validate()
    }

    /// Prints every arm's timings and every gate.
    pub fn print(&self) {
        println!(
            "host: {}-core {} ({} scale)",
            self.host.cores,
            self.host.cpu,
            if self.host.full_scale {
                "full"
            } else {
                "quick"
            }
        );
        for arm in &self.arms {
            let identical = match arm.identical {
                Some(true) => "identical",
                Some(false) => "DIVERGED",
                None => "",
            };
            println!("{} ({} {}) {identical}", arm.name, arm.work, arm.unit);
            let base = arm.timings.first().map_or(f64::NAN, |t| t.wall_s);
            for t in &arm.timings {
                println!(
                    "  {:<13} {:>2} thr {:>10.4} s {:>14.1} {}/s {:>6.2}x",
                    t.path,
                    t.threads,
                    t.wall_s,
                    t.per_s,
                    arm.unit,
                    base / t.wall_s.max(1e-9)
                );
            }
            for (key, value) in &arm.values {
                println!("  {key} = {value}");
            }
        }
        for g in &self.gates {
            println!(
                "gate {:<26} {:>9.3} {:>2} {:<6} {}",
                g.name,
                g.measured,
                g.cmp,
                g.bar,
                match (g.armed, g.pass) {
                    (_, true) => "pass",
                    (true, false) => "FAIL",
                    (false, false) => "fail (disarmed on one core)",
                }
            );
        }
    }
}

/// Runs `f` once as a warmup (page-in, allocator steady state), then
/// `repeats` timed times, and returns the minimum wall-clock seconds —
/// the standard minimum-noise estimator on shared hosts — with the
/// last run's output.
pub fn best_of<T>(repeats: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut out = f();
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        out = f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, out)
}

/// Folds one `u64` (little-endian) into an order-sensitive FNV-1a hash.
fn fold_u64(hash: u64, value: u64) -> u64 {
    obs::fnv1a(hash, &value.to_le_bytes())
}

/// Consumes `events` interrupts from a fabric built from `cfg`'s
/// timer, PMI and resched sources, with [`PEEKS_PER_POP`] head peeks
/// before every pop, and returns the FNV fold of every peek and pop and
/// one final RNG draw.
macro_rules! drain_fabric {
    ($ty:ty, $cfg:expr, $events:expr, $seed:expr) => {{
        let mut rng = SmallRng::seed_from_u64($seed);
        let mut fabric = <$ty>::new();
        fabric.add_periodic_timer($cfg.timer_hz, $cfg.timer_jitter, &mut rng);
        fabric.add_poisson(InterruptKind::PerfMon, $cfg.pmi_rate_hz, &mut rng);
        fabric.add_poisson(InterruptKind::Resched, $cfg.resched_rate_hz, &mut rng);
        let mut h = obs::FNV_OFFSET;
        for _ in 0..$events {
            for _ in 0..PEEKS_PER_POP {
                let head = fabric.peek_next().expect("sources never run dry");
                h = fold_u64(h, head.at.as_ps());
            }
            let ev = fabric.pop(&mut rng).expect("sources never run dry");
            h = fold_u64(h, ev.at.as_ps());
            h = fold_u64(h, ev.kind as u64);
        }
        fold_u64(h, rng.gen::<u64>())
    }};
}

/// The fabric arm: the cached-head fabric against the naive linear
/// scan on a machine's three sources, peek+pop pattern.
#[must_use]
pub fn measure_fabric(cfg: &MachineConfig, events: usize, repeats: usize, seed: u64) -> Arm {
    let (naive_s, naive) = best_of(repeats, || drain_fabric!(NaiveFabric, cfg, events, seed));
    let (fabric_s, fabric) = best_of(repeats, || {
        drain_fabric!(InterruptFabric, cfg, events, seed)
    });
    Arm::new("fabric", "events", events)
        .timed("naive", 1, naive_s)
        .timed("fabric", 1, fabric_s)
        .value("sources", 3.0)
        .value("peeks_per_pop", PEEKS_PER_POP as f64)
        .identical(naive == fabric)
}

/// One short probe trial — load GS once, then `slots` spin+rdgs rounds —
/// folded to an FNV hash over every sample, the fault log, and one final
/// RNG draw, so two paths agreeing on the hash agree on the full
/// architectural footprint and stream position.
fn probe_trial_hash(machine: &mut Machine, slots: usize) -> u64 {
    let mut h = obs::FNV_OFFSET;
    machine.wrgs(Selector::from_bits(0x3)).expect("GS loads");
    for slot in 0..slots {
        machine.spin(1_500 + (slot as u64 % 5) * 200);
        h = fold_u64(h, u64::from(machine.rdgs().bits()));
    }
    let log = machine.fault_log();
    for v in [
        log.dropped,
        log.duplicated,
        log.coalesced,
        log.jittered,
        log.bursts,
        log.clamped_steps,
    ] {
        h = fold_u64(h, v);
    }
    fold_u64(h, machine.rng_mut().gen::<u64>())
}

/// The recycled-trials arm: `trials` short probe trials on a Table I
/// machine with a light delivery-fault plan, fresh (a [`Machine::new`]
/// per trial) against recycled (this thread's machine, reset per trial
/// through [`scenario::with_recycled_machine`], the scenario driver's
/// mechanism).
#[must_use]
pub fn measure_recycled(trials: usize, slots: usize, repeats: usize, seed: u64) -> Arm {
    let cfg = MachineConfig::lenovo_yangtian().with_fault_plan(
        FaultPlan::none()
            .with_drop_prob(0.05)
            .with_duplicate_prob(0.02),
    );
    let trial_seed = |t: usize| seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t as u64));
    let (fresh_s, fresh) = best_of(repeats, || {
        (0..trials)
            .map(|t| probe_trial_hash(&mut Machine::new(cfg.clone(), trial_seed(t)), slots))
            .collect::<Vec<u64>>()
    });
    let (recycled_s, recycled) = best_of(repeats, || {
        (0..trials)
            .map(|t| {
                scenario::with_recycled_machine(cfg.clone(), trial_seed(t), |m| {
                    probe_trial_hash(m, slots)
                })
            })
            .collect::<Vec<u64>>()
    });
    Arm::new("recycled", "trials", trials)
        .timed("fresh", 1, fresh_s)
        .timed("recycled", 1, recycled_s)
        .value("slots_per_trial", slots as f64)
        .identical(fresh == recycled)
}

/// The probe arm: `batches` batches of `samples` through the
/// allocating `probe_n`, then through `probe_n_into` with one reused
/// buffer, each from a fresh machine. `heap` reads the calling
/// thread's running `(allocations, bytes)` counters; each path records
/// the difference across its last run.
#[must_use]
pub fn measure_probe(
    samples: usize,
    batches: usize,
    repeats: usize,
    heap: fn() -> (u64, u64),
) -> Arm {
    let cfg = MachineConfig::lenovo_yangtian();
    let seed = 0xB3CC_0004;
    let counted = |into: bool| {
        let mut machine = Machine::new(cfg.clone(), seed);
        let mut probe = SegProbe::new();
        let mut buf = Vec::new();
        let (allocs0, bytes0) = heap();
        let mut h = obs::FNV_OFFSET;
        for _ in 0..batches {
            let batch = if into {
                probe
                    .probe_n_into(&mut machine, samples, &mut buf)
                    .expect("probe works");
                &buf
            } else {
                buf = probe.probe_n(&mut machine, samples).expect("probe works");
                &buf
            };
            h = batch
                .iter()
                .fold(h, |h, s| obs::fnv1a(h, &s.segcnt.to_le_bytes()));
        }
        let (allocs1, bytes1) = heap();
        (h, allocs1 - allocs0, bytes1 - bytes0)
    };
    let (fresh_s, fresh) = best_of(repeats, || counted(false));
    let (reused_s, reused) = best_of(repeats, || counted(true));
    Arm::new("probe", "samples", samples * batches)
        .timed("probe_n", 1, fresh_s)
        .timed("probe_n_into", 1, reused_s)
        .value("probe_n.allocs", fresh.1 as f64)
        .value("probe_n.bytes", fresh.2 as f64)
        .value("probe_n_into.allocs", reused.1 as f64)
        .value("probe_n_into.bytes", reused.2 as f64)
        .identical(fresh.0 == reused.0)
}

/// The engine arm: the same KASLR trial set on one thread and on every
/// engine thread.
#[must_use]
pub fn measure_engine(trials: usize, repeats: usize) -> Arm {
    let machine = MachineConfig::lenovo_yangtian();
    let config = KaslrConfig {
        c: 2,
        k: 32,
        ..KaslrConfig::paper_default()
    };
    let seed = 0xB3CC_0001;
    let threads = exec::resolve_threads(None);
    let (serial_s, serial) = best_of(repeats, || {
        run_trials(&machine, &config, seed, trials, Some(1))
    });
    let (parallel_s, parallel) = best_of(repeats, || {
        run_trials(&machine, &config, seed, trials, Some(threads))
    });
    Arm::new("kaslr_engine", "trials", trials)
        .timed("serial", 1, serial_s)
        .timed("parallel", threads, parallel_s)
        .identical(serial == parallel)
}

/// The LSTM arm: `epochs` training epochs of a website-sized
/// classifier (24 sequences of 8 inputs, ragged lengths 40–63, hidden
/// 32, 8 classes, minibatch 8) through the lane-batched
/// [`SeqClassifier::train_epoch`] and through the per-example
/// [`NaiveClassifier`] from the same initial weights. Identical when the
/// trained weights are bit-identical.
#[must_use]
pub fn measure_lstm(epochs: usize, repeats: usize) -> Arm {
    let (input, hidden, classes, batch) = (8usize, 32usize, 8usize, 8usize);
    let examples: Vec<SeqExample> = (0..24)
        .map(|e| SeqExample {
            xs: (0..40 + (e * 7) % 24)
                .map(|t| {
                    (0..input)
                        .map(|k| ((e * 131 + t * input + k) as f32 * 0.13).sin())
                        .collect()
                })
                .collect(),
            label: e % classes,
        })
        .collect();
    let seed = 0xB3CC_0002;
    let adam = AdamConfig::default();
    let naive = NaiveClassifier::new(
        input,
        hidden,
        classes,
        &mut SmallRng::seed_from_u64(seed),
        adam,
    );
    let (naive_s, naive) = best_of(repeats, || {
        let mut model = naive.clone();
        for _ in 0..epochs {
            model.train_epoch(&examples, batch);
        }
        model
    });
    let fast = SeqClassifier::new(
        input,
        hidden,
        classes,
        &mut SmallRng::seed_from_u64(seed),
        adam,
    );
    let (fast_s, fast) = best_of(repeats, || {
        let mut model = fast.clone();
        for _ in 0..epochs {
            model.train_epoch(&examples, batch);
        }
        model
    });
    let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let identical = bits(naive.lstm().weights()) == bits(fast.lstm().weights())
        && bits(naive.head().weights()) == bits(fast.head().weights());
    Arm::new("lstm", "epochs", epochs)
        .timed("per_example", 1, naive_s)
        .timed("minibatch", 1, fast_s)
        .value("examples", examples.len() as f64)
        .value("batch", batch as f64)
        .value("hidden", hidden as f64)
        .identical(identical)
}

/// The math arm: `rounds` LSTM cell updates over one fixed block of
/// 32 hidden × 64 lanes of gate pre-activations (spread over ±8, so
/// `tanh` takes both its `|x| < 1` and `|x| ≥ 1` paths), through the libm
/// [`reference::lstm_cell`] and the production [`nnet::lstm_cell_soa`].
/// Identical when every gate activation, cell and hidden state of the
/// last round agree bit for bit.
#[must_use]
pub fn measure_math(rounds: usize, repeats: usize) -> Arm {
    let n = 32 * 64;
    let pre: Vec<f32> = (0..4 * n)
        .map(|i| ((i as f32 * 0.618_034).fract() - 0.5) * 16.0)
        .collect();
    let c0: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
    let (mut gates, mut c, mut h, mut tanh_c) =
        (pre.clone(), c0.clone(), vec![0.0; n], vec![0.0; n]);
    let (libm_s, ()) = best_of(repeats, || {
        for _ in 0..rounds {
            gates.copy_from_slice(&pre);
            c.copy_from_slice(&c0);
            reference::lstm_cell(&mut gates, &mut c, &mut h);
        }
    });
    let want = [gates.clone(), c.clone(), h.clone()];
    let (math_s, ()) = best_of(repeats, || {
        for _ in 0..rounds {
            gates.copy_from_slice(&pre);
            c.copy_from_slice(&c0);
            nnet::lstm_cell_soa(32, 64, &mut gates, &mut c, &mut h, &mut tanh_c);
        }
    });
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let identical = want
        .iter()
        .zip([&gates, &c, &h])
        .all(|(w, g)| bits(w) == bits(g));
    Arm::new("math", "elements", rounds * n)
        .timed("libm", 1, libm_s)
        .timed("math", 1, math_s)
        .identical(identical)
}

/// The campaign bench grid: four fast scenarios × two Table I presets
/// × two fault regimes. Full scale widens the preset axis and adds a
/// replicate.
#[must_use]
pub fn bench_spec(full: bool) -> CampaignSpec {
    CampaignSpec {
        name: "bench-grid".to_owned(),
        seed: 0xBE9C_CA4A,
        scenarios: ["circl", "spectral", "kaslr", "covert"]
            .iter()
            .map(|n| ScenarioSel::named(n))
            .collect(),
        presets: if full {
            segsim::presets::NAMES
                .iter()
                .map(|&n| n.to_owned())
                .collect()
        } else {
            vec!["xiaomi_air13".to_owned(), "amazon_c5_large".to_owned()]
        },
        faults: vec![
            FaultVariant::none(),
            FaultVariant {
                name: "delivery_storm".to_owned(),
                plan: Some(FaultPlan::delivery_storm()),
            },
        ],
        defenses: vec![campaign::DefenseVariant::none()],
        replicates: if full { 2 } else { 1 },
        trials: Some(if full { 4 } else { 1 }),
    }
}

/// Sweeps `spec` once at `shards` concurrent cells, each cell pinned to
/// one thread, and returns the FNV fold of the merged report's JSON.
#[must_use]
fn sweep_digest(spec: &CampaignSpec, shards: usize) -> u64 {
    let registry = segscope_attacks::registry();
    let mut manifest = CampaignManifest::new(spec);
    let opts = CampaignOptions {
        shards,
        threads: Some(1),
        stop_after_waves: None,
    };
    let report = campaign::run_campaign(&registry, spec, &opts, &mut manifest, |_| {})
        .expect("bench grid runs")
        .expect("bench grid completes");
    obs::fnv1a(obs::FNV_OFFSET, report.to_json().as_bytes())
}

/// The campaign arm: the bench grid swept at 1, 4 and 8 shards.
#[must_use]
pub fn measure_campaign(spec: &CampaignSpec, repeats: usize) -> Arm {
    let mut arm = Arm::new("campaign", "cells", spec.cell_count());
    let mut digests = Vec::new();
    for shards in [1usize, 4, 8] {
        let (wall_s, digest) = best_of(repeats, || sweep_digest(spec, shards));
        arm = arm.timed(&format!("shards{shards}"), shards, wall_s);
        digests.push(digest);
    }
    arm.identical(digests.iter().all(|&d| d == digests[0]))
}

/// Batch capacities the serve arms run at.
pub const SERVE_CAPACITIES: [usize; 3] = [1, 8, 64];

/// The trained model, its eval set, and the serving traces the serve
/// arms run over.
pub struct ServeWorkload {
    /// The f32-weight reference classifier, trained on the train split.
    pub model: SeqClassifier,
    /// Held-out eval split (the quantization accuracy set).
    pub eval: Vec<SeqExample>,
    /// Serving traces: eval sequences cycled up to the session count.
    pub traces: Vec<Vec<Vec<f32>>>,
}

/// Builds the Table IV-style workload: simulate website-fingerprinting
/// visit traces at the quick scenario scale, train the LSTM on
/// `train_per_site` traces per site, and keep `eval_per_site` held-out
/// traces per site as the eval set. The serving traces cycle the eval
/// sequences up to `sessions` entries.
#[must_use]
pub fn build_workload(
    sessions: usize,
    train_per_site: usize,
    eval_per_site: usize,
    seed: u64,
) -> ServeWorkload {
    let mut config = WebsiteFpConfig::quick(Browser::Chrome, Setting::DifferentCores);
    config.seed = seed;
    let per_site = train_per_site + eval_per_site;
    let mut train = Vec::new();
    let mut eval = Vec::new();
    for site in 0..config.n_sites {
        for rep in 0..per_site {
            let visit = (site * per_site + rep) as u64;
            let trace =
                website::collect_trace(&config, site, exec::derive_seed(config.seed, visit));
            let example = website::trace_to_example(&trace, config.pooled_len, site);
            if rep < train_per_site {
                train.push(example);
            } else {
                eval.push(example);
            }
        }
    }
    let mut rng = SmallRng::seed_from_u64(exec::derive_seed(seed, SERVE_BENCH_STREAM));
    let mut model = SeqClassifier::new(
        2,
        config.hidden,
        config.n_sites,
        &mut rng,
        AdamConfig::default(),
    );
    for _ in 0..config.epochs {
        model.train_epoch(&train, 8);
    }
    let traces = (0..sessions)
        .map(|i| eval[i % eval.len()].xs.clone())
        .collect();
    ServeWorkload {
        model,
        eval,
        traces,
    }
}

/// Serves `traces` through `threads` contiguous shards, each a
/// [`serve_batched`] batch of `capacity` lanes. Lanes never interact
/// across sessions and both the sharding and [`serve_batched`] keep
/// verdicts in trace order, so the verdict stream is bit-identical to
/// an unsharded run at any shard count.
#[must_use]
pub fn serve_sharded<M: StepModel + Sync>(
    model: &M,
    traces: &[Vec<Vec<f32>>],
    capacity: usize,
    threads: usize,
) -> Vec<Verdict> {
    if threads <= 1 {
        return serve_batched(model, traces, capacity);
    }
    let per_shard = traces.len().div_ceil(threads).max(1);
    let shards: Vec<&[Vec<Vec<f32>>]> = traces.chunks(per_shard).collect();
    exec::parallel_map(shards.len(), threads, |i| {
        serve_batched(model, shards[i], capacity)
    })
    .into_iter()
    .flatten()
    .collect()
}

/// One serve arm (`serve.<precision>`): a recycled single-session
/// baseline against batches of each [`SERVE_CAPACITIES`] sharded over
/// `threads`. Identical when every batched verdict stream matches the
/// baseline's FNV.
#[must_use]
pub fn measure_serve<M: StepModel + Sync>(
    model: &M,
    precision: &str,
    traces: &[Vec<Vec<f32>>],
    threads: usize,
    repeats: usize,
) -> Arm {
    let (seq_s, seq) = best_of(repeats, || verdict_fnv(&serve_sequential(model, traces)));
    let mut arm = Arm::new(&format!("serve.{precision}"), "sessions", traces.len()).timed(
        "sequential",
        1,
        seq_s,
    );
    let mut identical = true;
    for capacity in SERVE_CAPACITIES {
        let (wall_s, fnv) = best_of(repeats, || {
            verdict_fnv(&serve_sharded(model, traces, capacity, threads))
        });
        arm = arm.timed(&format!("x{capacity}"), threads, wall_s);
        identical &= fnv == seq;
    }
    arm.identical(identical)
}

/// One quantization arm (`quant.<scheme>`): the quantized model's
/// accuracy on the eval set against the f64 model's.
#[must_use]
pub fn measure_quant(model: &SeqClassifier, scheme: QuantScheme, eval: &[SeqExample]) -> Arm {
    let quantized = QuantizedSeqClassifier::quantize(model, scheme);
    let f64_accuracy = model.accuracy(eval);
    let quant_accuracy = quantized.accuracy(eval);
    Arm::new(&format!("quant.{}", scheme.name()), "examples", eval.len())
        .value("f64_accuracy", f64_accuracy)
        .value("quant_accuracy", quant_accuracy)
        .value("accuracy_delta", (quant_accuracy - f64_accuracy).abs())
}

/// Runs every arm at `host`'s scale, each path timed best of 3 (quick)
/// or 5 (full) after a warmup. `heap` reads the calling thread's
/// running `(allocations, bytes)` counters for the probe arm.
#[must_use]
pub fn measure_all(host: &Host, heap: fn() -> (u64, u64)) -> BenchReport {
    let full = host.full_scale;
    let repeats = if full { 5 } else { 3 };
    let pick = |quick: usize, full_value: usize| if full { full_value } else { quick };

    let mut arms = vec![
        measure_fabric(
            &MachineConfig::lenovo_yangtian(),
            pick(150_000, 1_500_000),
            repeats,
            0xBA7C_0010,
        ),
        // Short 32-slot probe bursts, the per-candidate unit of the
        // scan-style attacks, are where machine construction dominates.
        measure_recycled(pick(256, 2_000), 32, repeats, 0xBA7C_0020),
        measure_probe(1_000, pick(200, 2_000), repeats, heap),
        measure_engine(pick(8, 32), repeats),
        measure_lstm(pick(4, 16), repeats),
        measure_math(pick(100, 1_000), repeats),
        measure_campaign(&bench_spec(full), repeats),
    ];

    // Train on 6 visits per site and hold out 13, so the accuracy delta
    // resolves near the 1% gate (104 eval sequences at 8 sites).
    let workload = build_workload(pick(256, 1_024), 6, 13, 0x5EBE_CA4A);
    let i16_model = QuantizedSeqClassifier::quantize(&workload.model, QuantScheme::I16);
    arms.push(measure_serve(
        &workload.model,
        "f64",
        &workload.traces,
        host.cores,
        repeats,
    ));
    arms.push(measure_serve(
        &i16_model,
        "i16",
        &workload.traces,
        host.cores,
        repeats,
    ));
    for scheme in [QuantScheme::I8, QuantScheme::I16] {
        arms.push(measure_quant(&workload.model, scheme, &workload.eval));
    }
    BenchReport::new(host.clone(), arms)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(cores: usize, full_scale: bool) -> Host {
        Host {
            cpu: "test".into(),
            cores,
            full_scale,
        }
    }

    /// One arm per gated kind (plus the identity-only engine arm),
    /// every gate passing with margin.
    fn good_arms() -> Vec<Arm> {
        let two = |name: &str, base: &str, path: &str, threads: usize, speedup: f64| {
            Arm::new(name, "units", 10)
                .timed(base, 1, 1.0)
                .timed(path, threads, 1.0 / speedup)
        };
        let mut serve = Arm::new("serve.f64", "sessions", 64).timed("sequential", 1, 1.0);
        for c in SERVE_CAPACITIES {
            serve = serve.timed(&format!("x{c}"), 4, 0.25);
        }
        let quant = |scheme: &str| Arm::new(scheme, "examples", 104).value("accuracy_delta", 0.0);
        vec![
            two("fabric", "naive", "fabric", 1, 1.3).identical(true),
            two("recycled", "fresh", "recycled", 1, 7.0).identical(true),
            Arm::new("probe", "samples", 10)
                .value("probe_n.allocs", 2020.0)
                .value("probe_n_into.allocs", 21.0)
                .identical(true),
            two("kaslr_engine", "serial", "parallel", 4, 1.9).identical(true),
            two("lstm", "per_example", "minibatch", 1, 1.25).identical(true),
            two("math", "libm", "math", 1, 2.0).identical(true),
            Arm::new("campaign", "cells", 16)
                .timed("shards1", 1, 8.0)
                .timed("shards4", 4, 2.5)
                .timed("shards8", 8, 1.5)
                .identical(true),
            serve.identical(true),
            quant("quant.i16"),
            quant("quant.i8"),
        ]
    }

    fn arm<'a>(arms: &'a mut [Arm], name: &str) -> &'a mut Arm {
        arms.iter_mut()
            .find(|a| a.name == name)
            .expect("arm exists")
    }

    fn set_wall(arms: &mut [Arm], name: &str, path: &str, wall_s: f64) {
        let arm = arm(arms, name);
        for t in arm.timings.iter_mut().filter(|t| t.path == path) {
            t.wall_s = wall_s;
        }
    }

    #[test]
    fn validate_enforces_every_gate_kind() {
        assert!(BenchReport::new(host(4, false), good_arms())
            .validate()
            .is_ok());
        assert_eq!(
            BenchReport::new(host(4, false), good_arms()).gates.len(),
            9,
            "one gate per gated arm"
        );

        type Mutation = fn(&mut Vec<Arm>);
        // (case, host cores, full scale, mutation, failing gate or arm,
        // whether validate must reject)
        let cases: [(&str, usize, bool, Mutation, &str, bool); 13] = [
            (
                "identity divergence",
                4,
                false,
                |a| arm(a, "recycled").identical = Some(false),
                "recycled",
                true,
            ),
            (
                "fabric below parity",
                4,
                false,
                |a| set_wall(a, "fabric", "fabric", 1.03),
                "fabric.speedup",
                true,
            ),
            (
                "fabric at parity",
                4,
                false,
                |a| set_wall(a, "fabric", "fabric", 1.0),
                "fabric.speedup",
                false,
            ),
            (
                "lstm at parity is not faster",
                4,
                false,
                |a| set_wall(a, "lstm", "minibatch", 1.0),
                "lstm.speedup",
                true,
            ),
            (
                "math at parity is not faster",
                4,
                false,
                |a| set_wall(a, "math", "math", 1.0),
                "math.speedup",
                true,
            ),
            (
                "recycled below the quick 2x bar",
                4,
                false,
                |a| set_wall(a, "recycled", "recycled", 1.0 / 1.4),
                "recycled.speedup",
                true,
            ),
            (
                "recycled 3x passes quick scale",
                4,
                false,
                |a| set_wall(a, "recycled", "recycled", 1.0 / 3.0),
                "recycled.speedup",
                false,
            ),
            (
                "recycled 3x fails the full-scale 5x bar",
                4,
                true,
                |a| set_wall(a, "recycled", "recycled", 1.0 / 3.0),
                "recycled.speedup",
                true,
            ),
            (
                "campaign below 2x on multi-core",
                2,
                false,
                |a| set_wall(a, "campaign", "shards8", 7.0),
                "campaign.speedup",
                true,
            ),
            (
                "campaign and serve gates disarmed at 1 core",
                1,
                false,
                |a| {
                    set_wall(a, "campaign", "shards8", 7.0);
                    for c in SERVE_CAPACITIES {
                        set_wall(a, "serve.f64", &format!("x{c}"), 0.9);
                    }
                },
                "serve.f64.speedup",
                false,
            ),
            (
                "probe_n_into allocates as much as probe_n",
                4,
                false,
                |a| {
                    arm(a, "probe")
                        .values
                        .insert("probe_n_into.allocs".into(), 2020.0);
                },
                "probe.allocs",
                true,
            ),
            (
                "i16 drifts past its 1% budget",
                4,
                false,
                |a| {
                    arm(a, "quant.i16")
                        .values
                        .insert("accuracy_delta".into(), 0.02);
                },
                "quant.i16.accuracy_delta",
                true,
            ),
            (
                "i8 may drift 2% within its 5% budget",
                4,
                false,
                |a| {
                    arm(a, "quant.i8")
                        .values
                        .insert("accuracy_delta".into(), 0.02);
                },
                "quant.i8.accuracy_delta",
                false,
            ),
        ];
        for (case, cores, full, mutate, target, rejected) in cases {
            let mut arms = good_arms();
            mutate(&mut arms);
            let report = BenchReport::new(host(cores, full), arms);
            match report.validate() {
                Err(failures) => {
                    assert!(rejected, "{case}: unexpectedly rejected: {failures}");
                    assert!(failures.contains(target), "{case}: {failures}");
                }
                Ok(()) => assert!(!rejected, "{case}: accepted"),
            }
            if let Some(gate) = report.gates.iter().find(|g| g.name == target) {
                assert_eq!(gate.armed && !gate.pass, rejected, "{case}: {gate:?}");
            } else {
                assert!(!report.identity, "{case}: no gate or identity failure");
            }
        }
    }

    #[test]
    fn a_failing_gate_is_still_written() {
        let mut arms = good_arms();
        set_wall(&mut arms, "fabric", "fabric", 2.0);
        let report = BenchReport::new(host(4, false), arms);
        let path =
            std::env::temp_dir().join(format!("bench_perf_test_{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path");
        let err = report.finish(path).expect_err("the fabric gate fails");
        assert!(err.contains("fabric.speedup"), "{err}");
        let json = std::fs::read_to_string(path).expect("report written");
        std::fs::remove_file(path).expect("remove temp report");
        assert!(
            json.contains(r#"{"name":"fabric.speedup","cmp":">=","bar":1,"measured":0.5,"armed":true,"pass":false}"#),
            "{json}"
        );
    }

    #[test]
    fn fabric_arm_is_identical() {
        let arm = measure_fabric(&MachineConfig::lenovo_yangtian(), 5_000, 1, 0xBA7C_0001);
        assert_eq!(
            arm.identical,
            Some(true),
            "cached and naive streams diverged"
        );
    }

    #[test]
    fn recycled_trials_match_fresh_trials() {
        let arm = measure_recycled(6, 120, 1, 0xBA7C_0003);
        assert_eq!(
            arm.identical,
            Some(true),
            "recycled and fresh trials diverged"
        );
    }

    #[test]
    fn bench_grid_is_shard_invariant() {
        let spec = bench_spec(false);
        assert_eq!(spec.cell_count(), 4 * 2 * 2);
        assert_eq!(sweep_digest(&spec, 1), sweep_digest(&spec, 4));
    }

    #[test]
    fn sharded_serving_is_shard_count_invariant() {
        let workload = build_workload(23, 2, 1, 0x5EBE_0001);
        let solo = serve_sharded(&workload.model, &workload.traces, 8, 1);
        let sharded = serve_sharded(&workload.model, &workload.traces, 8, 4);
        assert_eq!(solo, sharded, "sharding permuted or perturbed verdicts");
        assert_eq!(
            verdict_fnv(&solo),
            verdict_fnv(&serve_sequential(&workload.model, &workload.traces)),
            "batched verdict stream diverged from sequential",
        );
    }
}
