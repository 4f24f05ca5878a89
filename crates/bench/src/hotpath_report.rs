//! Machine-readable performance report for the simulator hot path
//! (`BENCH_hotpath.json`).
//!
//! The `bench_hotpath` target regenerates the file; it records host
//! wall-clock numbers, so absolute values vary by machine. Three things
//! are asserted regardless of the host:
//!
//! - the cached-head fabric and the naive linear-scan fabric deliver
//!   bit-identical interrupt sequences (and leave their RNGs at the same
//!   position) on the machines' three sources (timer, PMI, resched),
//! - the fabric never regresses below the naive scan beyond timing
//!   noise — the guard that keeps a 0.85x 3-source regression (what a
//!   heap-maintaining fabric measured) from silently returning,
//! - the buffer-reuse probe API (`probe_n_into`) allocates strictly less
//!   than the allocating wrapper (`probe_n`) while producing identical
//!   samples.

use irq::{InterruptFabric, InterruptKind, NaiveFabric};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use segscope_attacks::kaslr::{run_trials, KaslrConfig};
use segsim::MachineConfig;
use serde::Serialize;
use std::time::Instant;

/// Minimum accepted fabric-vs-naive speedup on the pop-only pattern.
/// See [`HotpathBenchReport::validate`] for why the bar sits slightly
/// under the 1.0x parity the shared scan delivers in expectation.
pub const LOW_SOURCE_MIN_SPEEDUP: f64 = 0.9;

/// Fabric-vs-naive throughput on one machine configuration.
#[derive(Debug, Clone, Serialize)]
pub struct FabricArm {
    /// Machine preset the source set came from.
    pub machine: String,
    /// Interrupt sources on the fabric (the preset's timer, PMI and
    /// resched).
    pub sources: usize,
    /// Interrupts delivered per fabric per run.
    pub events: usize,
    /// Naive linear-scan fabric wall-clock seconds.
    pub naive_s: f64,
    /// Cached-head fabric wall-clock seconds.
    pub fabric_s: f64,
    /// Naive fabric throughput, delivered interrupts per second.
    pub naive_events_per_s: f64,
    /// Cached-head fabric throughput, delivered interrupts per second.
    pub fabric_events_per_s: f64,
    /// Fabric speedup over the naive scan (wall-clock ratio).
    pub speedup: f64,
    /// Whether both fabrics delivered bit-identical event sequences and
    /// finished with their RNGs at the same stream position.
    pub identical: bool,
}

/// Allocating-vs-reusing probe API comparison.
#[derive(Debug, Clone, Serialize)]
pub struct ProbeBench {
    /// Samples per batch.
    pub samples: usize,
    /// Batches per run (each `probe_n` batch allocates a fresh `Vec`).
    pub batches: usize,
    /// Heap bytes allocated across the `probe_n` run.
    pub alloc_bytes_fresh: u64,
    /// Heap bytes allocated across the `probe_n_into` run.
    pub alloc_bytes_reused: u64,
    /// Allocation count across the `probe_n` run.
    pub allocs_fresh: u64,
    /// Allocation count across the `probe_n_into` run.
    pub allocs_reused: u64,
    /// Fractional allocation-count reduction, `1 - reused/fresh`.
    pub alloc_reduction: f64,
    /// `probe_n` throughput, samples per second.
    pub fresh_samples_per_s: f64,
    /// `probe_n_into` throughput, samples per second.
    pub reused_samples_per_s: f64,
    /// Whether both APIs produced identical sample streams.
    pub identical: bool,
}

/// End-to-end scenario throughput (full trials through the unified
/// scenario engine, serial).
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioBench {
    /// Scenario exercised.
    pub scenario: String,
    /// Trials per run.
    pub trials: usize,
    /// Wall-clock seconds for the run.
    pub wall_s: f64,
    /// Throughput, trials per second.
    pub trials_per_s: f64,
}

/// The full `BENCH_hotpath.json` payload.
#[derive(Debug, Clone, Serialize)]
pub struct HotpathBenchReport {
    /// One arm per machine preset.
    pub fabric: Vec<FabricArm>,
    /// Probe-buffer reuse comparison.
    pub probe: ProbeBench,
    /// End-to-end scenario throughput.
    pub scenario: ScenarioBench,
    /// Human-readable caveat about the measurement host.
    pub note: String,
}

impl HotpathBenchReport {
    /// Checks the schema invariants the CI gate relies on.
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
            // The fabric runs the same linear scan as the naive baseline,
            // so the true ratio is 1.0; the margin only absorbs
            // wall-clock jitter between the two timed loops. The 0.85x
            // a heap-maintaining fabric once measured here sits well
            // below this bar and can never silently return.
            if arm.speedup < LOW_SOURCE_MIN_SPEEDUP {
                return Err(format!(
                    "fabric arm `{}` ({} sources): fabric regressed to \
                     {:.2}x against the naive scan (bar {LOW_SOURCE_MIN_SPEEDUP}x)",
                    arm.machine, arm.sources, arm.speedup
                ));
            }
        }
        if !self.probe.identical {
            return Err("probe_n and probe_n_into sample streams diverged".into());
        }
        if self.probe.allocs_reused >= self.probe.allocs_fresh {
            return Err(format!(
                "probe_n_into must allocate less than probe_n \
                 ({} vs {} allocations)",
                self.probe.allocs_reused, self.probe.allocs_fresh
            ));
        }
        if self.probe.alloc_reduction <= 0.0 {
            return Err("probe allocation reduction must be positive".into());
        }
        if self.scenario.trials_per_s <= 0.0 {
            return Err("scenario throughput must be positive".into());
        }
        Ok(())
    }
}

fn time_s<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Order-sensitive FNV-1a fold of one delivered event.
fn fold_event(hash: u64, at_ps: u64, kind: InterruptKind) -> u64 {
    obs::fnv1a(obs::fnv1a(hash, &at_ps.to_le_bytes()), &[kind as u8])
}

/// Measures one fabric arm: the preset's timer, PMI and resched
/// sources, drained for `events` deliveries on the cached-head fabric
/// and the naive linear-scan fabric with identically seeded RNGs.
#[must_use]
pub fn measure_fabric(cfg: &MachineConfig, events: usize, seed: u64) -> FabricArm {
    let mut fabric_rng = SmallRng::seed_from_u64(seed);
    let mut fabric = InterruptFabric::new();
    fabric.add_periodic_timer(cfg.timer_hz, cfg.timer_jitter, &mut fabric_rng);
    fabric.add_poisson(InterruptKind::PerfMon, cfg.pmi_rate_hz, &mut fabric_rng);
    fabric.add_poisson(InterruptKind::Resched, cfg.resched_rate_hz, &mut fabric_rng);

    let mut naive_rng = SmallRng::seed_from_u64(seed);
    let mut naive = NaiveFabric::new();
    naive.add_periodic_timer(cfg.timer_hz, cfg.timer_jitter, &mut naive_rng);
    naive.add_poisson(InterruptKind::PerfMon, cfg.pmi_rate_hz, &mut naive_rng);
    naive.add_poisson(InterruptKind::Resched, cfg.resched_rate_hz, &mut naive_rng);

    let (naive_s, naive_hash) = time_s(|| {
        let mut h = obs::FNV_OFFSET;
        for _ in 0..events {
            let ev = naive.pop(&mut naive_rng).expect("sources never run dry");
            h = fold_event(h, ev.at.as_ps(), ev.kind);
        }
        h
    });
    let (fabric_s, fabric_hash) = time_s(|| {
        let mut h = obs::FNV_OFFSET;
        for _ in 0..events {
            let ev = fabric.pop(&mut fabric_rng).expect("sources never run dry");
            h = fold_event(h, ev.at.as_ps(), ev.kind);
        }
        h
    });
    let identical = naive_hash == fabric_hash && naive_rng.gen::<u64>() == fabric_rng.gen::<u64>();

    FabricArm {
        machine: cfg.name.clone(),
        sources: fabric.source_count(),
        events,
        naive_s,
        fabric_s,
        naive_events_per_s: events as f64 / naive_s.max(1e-9),
        fabric_events_per_s: events as f64 / fabric_s.max(1e-9),
        speedup: naive_s / fabric_s.max(1e-9),
        identical,
    }
}

/// Measures end-to-end scenario throughput: serial KASLR trials through
/// the unified engine (each trial runs the full probe loop on a fresh
/// machine).
#[must_use]
pub fn measure_scenario(trials: usize) -> ScenarioBench {
    let machine = MachineConfig::lenovo_yangtian();
    let config = KaslrConfig {
        c: 2,
        k: 32,
        ..KaslrConfig::paper_default()
    };
    let seed = 0xB3CC_0005;
    let _ = run_trials(&machine, &config, seed, 1.min(trials), Some(1));
    let (wall_s, _) = time_s(|| run_trials(&machine, &config, seed, trials, Some(1)));
    ScenarioBench {
        scenario: "kaslr".to_string(),
        trials,
        wall_s,
        trials_per_s: trials as f64 / wall_s.max(1e-9),
    }
}

/// Serializes a report to JSON and writes it to `path`.
///
/// # Errors
///
/// Returns any filesystem error from the write.
pub fn write_report(report: &HotpathBenchReport, path: &str) -> std::io::Result<()> {
    let json = serde_json::to_string(report)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(path, json + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fabric_arm_is_identical() {
        let cfg = MachineConfig::lenovo_yangtian();
        let arm = measure_fabric(&cfg, 20_000, 0xB3CC_0010);
        assert!(arm.identical, "cached and naive fabrics diverged");
        assert_eq!(arm.sources, 3);
        assert_eq!(arm.events, 20_000);
    }

    #[test]
    fn validate_rejects_divergent_fabrics_and_regressions() {
        let arm = FabricArm {
            machine: "m".into(),
            sources: 3,
            events: 10,
            naive_s: 1.0,
            fabric_s: 1.0,
            naive_events_per_s: 10.0,
            fabric_events_per_s: 10.0,
            speedup: 1.0,
            identical: true,
        };
        let probe = ProbeBench {
            samples: 10,
            batches: 2,
            alloc_bytes_fresh: 100,
            alloc_bytes_reused: 10,
            allocs_fresh: 20,
            allocs_reused: 2,
            alloc_reduction: 0.9,
            fresh_samples_per_s: 1.0,
            reused_samples_per_s: 1.0,
            identical: true,
        };
        let scenario = ScenarioBench {
            scenario: "kaslr".into(),
            trials: 1,
            wall_s: 1.0,
            trials_per_s: 1.0,
        };
        let good = HotpathBenchReport {
            fabric: vec![arm],
            probe,
            scenario,
            note: String::new(),
        };
        assert!(good.validate().is_ok());

        let mut divergent = good.clone();
        divergent.fabric[0].identical = false;
        assert!(divergent.validate().is_err());

        let mut alloc_regress = good.clone();
        alloc_regress.probe.allocs_reused = 20;
        assert!(alloc_regress.validate().is_err());

        // An arm at the 0.85x a heap-maintaining fabric measured must fail.
        let mut regressed = good;
        regressed.fabric[0].speedup = 0.85;
        assert!(regressed.validate().is_err());
    }
}
