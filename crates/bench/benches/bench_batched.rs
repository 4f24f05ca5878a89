//! Regenerates `BENCH_batched.json`: cached-head fabric throughput vs
//! the naive scan on the simulator's peek-heavy dispatch pattern, and
//! recycled-machine trial throughput vs fresh-machine trials.
//!
//! Writes to the path in `SEGSCOPE_BENCH_JSON` (default
//! `BENCH_batched.json` in the current directory). Set
//! `SEGSCOPE_BENCH_FULL=1` for the larger scales, which also arms the
//! ≥5x recycled-speedup gate.

use segscope_bench::batched_report::{
    measure_batched_trials, measure_fabric_peek, write_report, BatchedBenchReport,
};
use segsim::MachineConfig;

fn main() {
    segscope_bench::header("Recycled machines and the fabric's cached head");
    let full = segscope_bench::full_scale();
    // Short probe trials (a 32-slot burst, the per-candidate unit of the
    // scan-style attacks) are where per-trial machine construction
    // dominates — the regime machine recycling exists for.
    let (events, trials, slots) = if full {
        (1_500_000, 2_000, 32)
    } else {
        (150_000, 256, 32)
    };

    // The bare 3-source preset every machine boots and a 7-source
    // fabric.
    let arms = [
        (MachineConfig::lenovo_yangtian(), 0usize),
        (MachineConfig::lenovo_yangtian(), 4),
    ];
    let mut fabric = Vec::new();
    for (i, (cfg, extra)) in arms.iter().enumerate() {
        // Warmup pass (page-in, branch training) before the timed one.
        let _ = measure_fabric_peek(cfg, *extra, events / 10, 0xBA7C_0010 + i as u64);
        let arm = measure_fabric_peek(cfg, *extra, events, 0xBA7C_0010 + i as u64);
        println!(
            "fabric `{}` ({} sources): naive {:.2}M irq/s, \
             fabric {:.2}M irq/s ({:.2}x), identical: {}",
            arm.machine,
            arm.sources,
            arm.naive_events_per_s / 1e6,
            arm.fabric_events_per_s / 1e6,
            arm.speedup,
            arm.identical,
        );
        fabric.push(arm);
    }

    let trials_arm = measure_batched_trials(trials, slots, 3, 0xBA7C_0020);
    println!(
        "trials `{}` ({} trials x {} slots): fresh {:.0} trials/s, \
         recycled {:.0} trials/s ({:.2}x), identical: {}",
        trials_arm.machine,
        trials_arm.trials,
        trials_arm.slots_per_trial,
        trials_arm.fresh_trials_per_s,
        trials_arm.recycled_trials_per_s,
        trials_arm.speedup,
        trials_arm.identical,
    );

    let note = format!(
        "{} scale, timed on 1 thread of a {}; wall-clock numbers are \
         host-dependent, the identity/speedup invariants are not",
        if full { "full" } else { "quick" },
        segscope_bench::host_summary(),
    );
    let report = BatchedBenchReport {
        fabric,
        trials: trials_arm,
        full_scale: full,
        note,
    };
    report.validate().expect("batched-path invariants hold");

    let path =
        std::env::var("SEGSCOPE_BENCH_JSON").unwrap_or_else(|_| "BENCH_batched.json".to_string());
    write_report(&report, &path).expect("write report");
    println!("\nwrote {path}");
}
