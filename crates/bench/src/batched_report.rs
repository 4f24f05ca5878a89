//! Machine-readable performance report for the recycled-machine trial
//! path (`BENCH_batched.json`).
//!
//! The `bench_batched` target regenerates the file; it records host
//! wall-clock numbers, so absolute values vary by machine. The gates in
//! [`BatchedBenchReport::validate`] are host-independent:
//!
//! - the cached-head fabric and the naive linear-scan fabric deliver
//!   bit-identical interrupt streams (and leave their RNGs at the same
//!   position) on every arm, peek for peek and pop for pop,
//! - on the simulator's peek-heavy dispatch pattern the fabric never
//!   loses to the naive scan, even at the machines' 3 sources (its
//!   cached head makes `peek_next` O(1)),
//! - trials on a recycled machine produce bit-identical per-trial sample
//!   streams, fault logs, and final RNG positions (FNV-folded) to
//!   fresh-machine trials, at ≥2x the throughput on the quick scale and
//!   ≥5x at full scale.

use irq::{InterruptFabric, InterruptKind, NaiveFabric};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use segsim::{FaultPlan, Machine, MachineConfig};
use serde::Serialize;
use std::time::Instant;
use x86seg::Selector;

/// Minimum accepted fabric-vs-naive speedup on the peek+pop arms. Full
/// parity (not the 0.9 jitter bar of the pop-only hot-path report): the
/// simulator's dispatch peeks the fabric head several times per
/// delivered interrupt, and the fabric answers those peeks from its
/// cache while the naive scan pays O(sources) each time — so ≥1.0x
/// holds with real margin.
pub const LOW_SOURCE_PEEK_MIN_SPEEDUP: f64 = 1.0;

/// Minimum accepted recycled-vs-fresh trial throughput speedup on the
/// quick scale (a deliberately loose floor for noisy CI hosts).
pub const RECYCLED_MIN_SPEEDUP: f64 = 2.0;

/// Minimum accepted recycled-vs-fresh trial throughput speedup at full
/// scale (`SEGSCOPE_BENCH_FULL=1`), where per-trial work is long enough
/// to amortize timing noise.
pub const RECYCLED_FULL_MIN_SPEEDUP: f64 = 5.0;

/// How many `peek_next` calls the dispatch loop issues per consumed
/// interrupt — the simulator re-peeks the head once per user span to
/// bound the span, so several peeks per pop is the representative ratio.
pub const PEEKS_PER_POP: usize = 4;

/// Device-interrupt kinds used for the synthetic extra sources; cycled
/// in order so source `i` gets `DEVICE_KINDS[i % 6]`.
const DEVICE_KINDS: [InterruptKind; 6] = [
    InterruptKind::Network,
    InterruptKind::Gpu,
    InterruptKind::Keyboard,
    InterruptKind::Thermal,
    InterruptKind::CallFunction,
    InterruptKind::Other,
];

/// Fabric-vs-naive throughput on the peek-heavy dispatch pattern, one
/// arm per source count.
#[derive(Debug, Clone, Serialize)]
pub struct FabricPeekArm {
    /// Machine preset the source set came from.
    pub machine: String,
    /// Total interrupt sources on the fabric (preset + extra devices).
    pub sources: usize,
    /// Interrupts consumed per fabric per run.
    pub events: usize,
    /// `peek_next` calls issued per consumed interrupt.
    pub peeks_per_pop: usize,
    /// Naive linear-scan fabric wall-clock seconds.
    pub naive_s: f64,
    /// Cached-head fabric wall-clock seconds.
    pub fabric_s: f64,
    /// Naive fabric throughput, consumed interrupts per second.
    pub naive_events_per_s: f64,
    /// Cached-head fabric throughput, consumed interrupts per second.
    pub fabric_events_per_s: f64,
    /// Fabric speedup over the naive scan (wall-clock ratio).
    pub speedup: f64,
    /// Whether both fabrics produced bit-identical peek+pop streams and
    /// finished with their RNGs at the same position.
    pub identical: bool,
}

/// Recycled-machine trials vs fresh-machine trials.
#[derive(Debug, Clone, Serialize)]
pub struct BatchedTrialsArm {
    /// Machine preset the trials ran on.
    pub machine: String,
    /// Trials per run.
    pub trials: usize,
    /// Probe slots (wrgs/spin/rdgs rounds) per trial.
    pub slots_per_trial: usize,
    /// Fresh (`Machine::new` per trial) wall-clock seconds.
    pub fresh_s: f64,
    /// Recycled (one machine, `reset` per trial) wall-clock seconds.
    pub recycled_s: f64,
    /// Fresh-machine throughput, trials per second.
    pub fresh_trials_per_s: f64,
    /// Recycled-machine throughput, trials per second.
    pub recycled_trials_per_s: f64,
    /// Recycled speedup over fresh (wall-clock ratio).
    pub speedup: f64,
    /// Whether every trial's sample stream, fault log, and final RNG
    /// position (FNV-folded) matched between the two paths.
    pub identical: bool,
}

/// The full `BENCH_batched.json` payload.
#[derive(Debug, Clone, Serialize)]
pub struct BatchedBenchReport {
    /// One arm per source-count point, low to high.
    pub fabric: Vec<FabricPeekArm>,
    /// Recycled-vs-fresh end-to-end trial throughput.
    pub trials: BatchedTrialsArm,
    /// Whether the run used the full scale (`SEGSCOPE_BENCH_FULL=1`),
    /// which arms the ≥5x recycled gate.
    pub full_scale: bool,
    /// Human-readable caveat about the measurement host.
    pub note: String,
}

impl BatchedBenchReport {
    /// Checks the invariants the CI gate relies on.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.fabric.is_empty() {
            return Err("fabric arms empty".into());
        }
        for arm in &self.fabric {
            if !arm.identical {
                return Err(format!(
                    "fabric arm `{}` ({} sources): cached and naive \
                     fabrics diverged",
                    arm.machine, arm.sources
                ));
            }
            if arm.naive_events_per_s <= 0.0 || arm.fabric_events_per_s <= 0.0 {
                return Err(format!(
                    "fabric arm `{}` ({} sources): non-positive throughput",
                    arm.machine, arm.sources
                ));
            }
            if arm.speedup < LOW_SOURCE_PEEK_MIN_SPEEDUP {
                return Err(format!(
                    "fabric arm `{}` ({} sources): fabric lost to the naive \
                     scan at {:.2}x on the peek-heavy pattern \
                     (bar {LOW_SOURCE_PEEK_MIN_SPEEDUP}x)",
                    arm.machine, arm.sources, arm.speedup
                ));
            }
        }
        if !self.trials.identical {
            return Err("recycled and fresh trial streams diverged".into());
        }
        if self.trials.speedup < RECYCLED_MIN_SPEEDUP {
            return Err(format!(
                "recycled trials reached only {:.2}x over fresh \
                 (bar {RECYCLED_MIN_SPEEDUP}x)",
                self.trials.speedup
            ));
        }
        if self.full_scale && self.trials.speedup < RECYCLED_FULL_MIN_SPEEDUP {
            return Err(format!(
                "recycled trials reached only {:.2}x over fresh at full \
                 scale (bar {RECYCLED_FULL_MIN_SPEEDUP}x)",
                self.trials.speedup
            ));
        }
        Ok(())
    }
}

fn time_s<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Folds one `u64` (little-endian) into an order-sensitive FNV-1a hash.
fn fold_u64(hash: u64, value: u64) -> u64 {
    obs::fnv1a(hash, &value.to_le_bytes())
}

/// Builds one fabric of the requested flavor with the preset's sources
/// plus `extra_devices` synthetic Poisson device sources.
macro_rules! build_fabric {
    ($ty:ty, $cfg:expr, $extra:expr, $rng:expr) => {{
        let mut fabric = <$ty>::new();
        fabric.add_periodic_timer($cfg.timer_hz, $cfg.timer_jitter, $rng);
        fabric.add_poisson(InterruptKind::PerfMon, $cfg.pmi_rate_hz, $rng);
        fabric.add_poisson(InterruptKind::Resched, $cfg.resched_rate_hz, $rng);
        for i in 0..$extra {
            fabric.add_poisson(
                DEVICE_KINDS[i % DEVICE_KINDS.len()],
                40.0 + 17.0 * i as f64,
                $rng,
            );
        }
        fabric
    }};
}

/// Measures one peek+pop arm: the preset's source set plus
/// `extra_devices` synthetic device sources, consumed for `events`
/// deliveries with [`PEEKS_PER_POP`] head peeks before every pop —
/// the simulator's span-bounding dispatch pattern — on the cached-head
/// fabric and the naive linear-scan fabric with identically seeded RNGs.
#[must_use]
pub fn measure_fabric_peek(
    cfg: &MachineConfig,
    extra_devices: usize,
    events: usize,
    seed: u64,
) -> FabricPeekArm {
    let mut fabric_rng = SmallRng::seed_from_u64(seed);
    let mut fabric = build_fabric!(InterruptFabric, cfg, extra_devices, &mut fabric_rng);
    let mut naive_rng = SmallRng::seed_from_u64(seed);
    let mut naive = build_fabric!(NaiveFabric, cfg, extra_devices, &mut naive_rng);

    let (naive_s, naive_hash) = time_s(|| {
        let mut h = obs::FNV_OFFSET;
        for _ in 0..events {
            for _ in 0..PEEKS_PER_POP {
                let head = naive.peek_next().expect("sources never run dry");
                h = fold_u64(h, head.at.as_ps());
            }
            let ev = naive.pop(&mut naive_rng).expect("sources never run dry");
            h = fold_u64(h, ev.at.as_ps());
            h = fold_u64(h, ev.kind as u64);
        }
        h
    });
    let (fabric_s, fabric_hash) = time_s(|| {
        let mut h = obs::FNV_OFFSET;
        for _ in 0..events {
            for _ in 0..PEEKS_PER_POP {
                let head = fabric.peek_next().expect("sources never run dry");
                h = fold_u64(h, head.at.as_ps());
            }
            let ev = fabric.pop(&mut fabric_rng).expect("sources never run dry");
            h = fold_u64(h, ev.at.as_ps());
            h = fold_u64(h, ev.kind as u64);
        }
        h
    });
    let identical = naive_hash == fabric_hash && naive_rng.gen::<u64>() == fabric_rng.gen::<u64>();

    FabricPeekArm {
        machine: cfg.name.clone(),
        sources: fabric.source_count(),
        events,
        peeks_per_pop: PEEKS_PER_POP,
        naive_s,
        fabric_s,
        naive_events_per_s: events as f64 / naive_s.max(1e-9),
        fabric_events_per_s: events as f64 / fabric_s.max(1e-9),
        speedup: naive_s / fabric_s.max(1e-9),
        identical,
    }
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

/// The machine preset the trial arms run on: a Table I machine with a
/// light delivery-fault plan, so the per-trial hash also covers the
/// fault-injection path.
#[must_use]
pub fn trials_machine() -> MachineConfig {
    MachineConfig::lenovo_yangtian().with_fault_plan(
        FaultPlan::none()
            .with_drop_prob(0.05)
            .with_duplicate_prob(0.02),
    )
}

/// Measures `trials` short probe trials both ways, keeping the
/// best-of-`repeats` timing per path (the standard minimum-noise
/// throughput estimator on shared hosts): fresh (a [`Machine::new`] per
/// trial) and recycled (this thread's machine, reset per trial through
/// [`scenario::with_recycled_machine`], the scenario driver's
/// mechanism). Per-trial hashes must match pairwise on every repeat.
#[must_use]
pub fn measure_batched_trials(
    trials: usize,
    slots: usize,
    repeats: usize,
    seed: u64,
) -> BatchedTrialsArm {
    let cfg = trials_machine();
    let trial_seed = |t: usize| seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t as u64));

    // Warm both paths (page-in, lane construction) outside the timing.
    let _ = probe_trial_hash(&mut Machine::new(cfg.clone(), trial_seed(0)), slots);
    let _ =
        scenario::with_recycled_machine(cfg.clone(), trial_seed(0), |m| probe_trial_hash(m, slots));

    let mut fresh_s = f64::INFINITY;
    let mut recycled_s = f64::INFINITY;
    let mut identical = true;
    for _ in 0..repeats.max(1) {
        let (f, fresh_hashes) = time_s(|| {
            (0..trials)
                .map(|t| probe_trial_hash(&mut Machine::new(cfg.clone(), trial_seed(t)), slots))
                .collect::<Vec<u64>>()
        });
        let (r, recycled_hashes) = time_s(|| {
            (0..trials)
                .map(|t| {
                    scenario::with_recycled_machine(cfg.clone(), trial_seed(t), |m| {
                        probe_trial_hash(m, slots)
                    })
                })
                .collect::<Vec<u64>>()
        });
        fresh_s = fresh_s.min(f);
        recycled_s = recycled_s.min(r);
        identical &= fresh_hashes == recycled_hashes;
    }

    BatchedTrialsArm {
        machine: cfg.name.clone(),
        trials,
        slots_per_trial: slots,
        fresh_s,
        recycled_s,
        fresh_trials_per_s: trials as f64 / fresh_s.max(1e-9),
        recycled_trials_per_s: trials as f64 / recycled_s.max(1e-9),
        speedup: fresh_s / recycled_s.max(1e-9),
        identical,
    }
}

/// Serializes a report to JSON and writes it to `path`.
///
/// # Errors
///
/// Returns any filesystem error from the write.
pub fn write_report(report: &BatchedBenchReport, path: &str) -> std::io::Result<()> {
    let json = serde_json::to_string(report)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(path, json + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peek_arms_are_identical() {
        let cfg = MachineConfig::lenovo_yangtian();
        let three = measure_fabric_peek(&cfg, 0, 5_000, 0xBA7C_0001);
        assert!(three.identical, "3-source streams diverged");
        assert_eq!(three.sources, 3);
        let seven = measure_fabric_peek(&cfg, 4, 5_000, 0xBA7C_0002);
        assert!(seven.identical, "7-source streams diverged");
        assert_eq!(seven.sources, 7);
    }

    #[test]
    fn recycled_trials_match_fresh_trials() {
        let arm = measure_batched_trials(6, 120, 1, 0xBA7C_0003);
        assert!(arm.identical, "recycled and fresh trial hashes diverged");
        assert_eq!(arm.trials, 6);
    }

    #[test]
    fn validate_enforces_every_gate() {
        let arm = FabricPeekArm {
            machine: "m".into(),
            sources: 3,
            events: 10,
            peeks_per_pop: PEEKS_PER_POP,
            naive_s: 1.0,
            fabric_s: 0.7,
            naive_events_per_s: 10.0,
            fabric_events_per_s: 14.0,
            speedup: 1.4,
            identical: true,
        };
        let trials = BatchedTrialsArm {
            machine: "m".into(),
            trials: 8,
            slots_per_trial: 100,
            fresh_s: 1.0,
            recycled_s: 0.2,
            fresh_trials_per_s: 8.0,
            recycled_trials_per_s: 40.0,
            speedup: 5.0,
            identical: true,
        };
        let good = BatchedBenchReport {
            fabric: vec![arm],
            trials,
            full_scale: false,
            note: String::new(),
        };
        assert!(good.validate().is_ok());

        let mut divergent = good.clone();
        divergent.fabric[0].identical = false;
        assert!(divergent.validate().is_err());

        // A 3-source arm below parity must fail; at parity it passes.
        let mut lost = good.clone();
        lost.fabric[0].speedup = 0.97;
        assert!(lost.validate().is_err());
        let mut parity = good.clone();
        parity.fabric[0].speedup = 1.0;
        assert!(parity.validate().is_ok());

        // Trial gates: divergence, the quick 2x bar, the full-scale 5x bar.
        let mut trial_div = good.clone();
        trial_div.trials.identical = false;
        assert!(trial_div.validate().is_err());
        let mut trial_slow = good.clone();
        trial_slow.trials.speedup = 1.4;
        assert!(trial_slow.validate().is_err());
        let mut full_slow = good.clone();
        full_slow.full_scale = true;
        full_slow.trials.speedup = 3.0;
        assert!(full_slow.validate().is_err());
        let mut full_ok = good;
        full_ok.full_scale = true;
        full_ok.trials.speedup = 5.5;
        assert!(full_ok.validate().is_ok());
    }
}
