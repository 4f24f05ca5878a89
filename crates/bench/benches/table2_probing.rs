//! Table II — a comparison of SegScope and the timer-based probing
//! techniques at HZ ∈ {100, 250, 1000} on an isolated idle core.
//!
//! Paper shape to reproduce: SegScope counts ≈ 10·HZ + 3 with tiny
//! variance; the timestamp-jump prober overcounts (false positives) with
//! large variance; the loop-counting prober saturates at 2000 (its 5 ms
//! sampling caps detection at 200/s).

use irq::time::Ps;
use segscope::{LoopCountProber, SegProbe, TsJumpProber};
use segsim::{Machine, MachineConfig};

fn mean_std(xs: &[f64]) -> (f64, f64) {
    (segscope::mean(xs), segscope::std_dev(xs))
}

fn make_machine(hz: f64, seed: u64) -> Machine {
    // isolcpus: no co-resident task, only the timer + ~0.3/s PMIs. The
    // governor is warmed to steady state before any technique runs, as
    // on a real machine that has been executing the spinning prober.
    let mut machine = Machine::new(MachineConfig::lenovo_yangtian().with_hz(hz), seed);
    machine.spin(400_000_000);
    machine.ground_truth_mut().clear();
    machine
}

fn main() {
    segscope_bench::header("Table II: probed interrupts in 10 s (isolated core)");
    let reps = if segscope_bench::full_scale() { 30 } else { 8 };
    let duration = Ps::from_secs(10);
    println!("reps per cell: {reps}; baseline: 10*HZ timer ticks + ~3 PMIs\n");
    let widths = [20, 18, 18, 18];
    segscope_bench::print_row(
        &[
            "method".into(),
            "HZ=100".into(),
            "HZ=250".into(),
            "HZ=1000".into(),
        ],
        &widths,
    );

    // --- SegScope: exact, threshold-free ---
    let mut cells = vec!["SegScope".to_owned()];
    for hz in [100.0, 250.0, 1000.0] {
        let counts: Vec<f64> = exec::parallel_map(reps, exec::resolve_threads(None), |r| {
            let mut m = make_machine(hz, exec::derive_seed(0x7AB2, r as u64));
            let mut probe = SegProbe::new();
            probe
                .probe_for(&mut m, duration)
                .expect("probe works")
                .len() as f64
        });
        let (mu, sd) = mean_std(&counts);
        cells.push(segscope_bench::pm(mu, sd));
    }
    segscope_bench::print_row(&cells, &widths);

    // --- Schwarz et al. (timestamp jumps, threshold 1000 cycles) ---
    let mut cells = vec!["Schwarz et al.".to_owned()];
    for hz in [100.0, 250.0, 1000.0] {
        let counts: Vec<f64> = exec::parallel_map(reps, exec::resolve_threads(None), |r| {
            let mut m = make_machine(hz, exec::derive_seed(0x7AB3, r as u64));
            TsJumpProber::paper_default()
                .probe_for(&mut m, duration)
                .expect("rdtsc available") as f64
        });
        let (mu, sd) = mean_std(&counts);
        cells.push(segscope_bench::pm(mu, sd));
    }
    segscope_bench::print_row(&cells, &widths);

    // --- Lipp et al. (loop counting sampled every 5 ms) ---
    let mut cells = vec!["Lipp et al.".to_owned()];
    for hz in [100.0, 250.0, 1000.0] {
        let counts: Vec<f64> = exec::parallel_map(reps, exec::resolve_threads(None), |r| {
            let mut m = make_machine(hz, exec::derive_seed(0x7AB4, r as u64));
            let mut prober = LoopCountProber::paper_default();
            prober.calibrate(&mut m, 200).expect("clock available");
            prober.probe_for(&mut m, duration).expect("clock available") as f64
        });
        let (mu, sd) = mean_std(&counts);
        cells.push(segscope_bench::pm(mu, sd));
    }
    segscope_bench::print_row(&cells, &widths);

    println!("\npaper Table II:");
    segscope_bench::print_row(
        &[
            "SegScope".into(),
            "1003.1 ± 0.3".into(),
            "2503.7 ± 0.6".into(),
            "10003.1 ± 0.4".into(),
        ],
        &widths,
    );
    segscope_bench::print_row(
        &[
            "Schwarz et al.".into(),
            "1170.5 ± 51.1".into(),
            "2740.3 ± 62.7".into(),
            "10224.6 ± 52.3".into(),
        ],
        &widths,
    );
    segscope_bench::print_row(
        &[
            "Lipp et al.".into(),
            "1038.8 ± 20.9".into(),
            "2000 ± 0".into(),
            "2000 ± 0".into(),
        ],
        &widths,
    );
    println!(
        "\nshape checks: SegScope ≈ 10·HZ + 3 exactly; Schwarz overcounts; Lipp caps at 2000 for HZ ≥ 250."
    );
}
