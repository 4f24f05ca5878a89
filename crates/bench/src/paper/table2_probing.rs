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

const HZS: [f64; 3] = [100.0, 250.0, 1000.0];

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

/// Runs `count` on `reps` fresh machines per HZ, prints the row and
/// returns its `(mean, std)` cells.
fn row(
    label: &str,
    reps: usize,
    seed: u64,
    widths: &[usize],
    count: impl Fn(&mut Machine) -> f64 + Sync,
) -> Vec<(f64, f64)> {
    let stats: Vec<(f64, f64)> = HZS
        .iter()
        .map(|&hz| {
            let counts: Vec<f64> = exec::parallel_map(reps, exec::resolve_threads(None), |r| {
                count(&mut make_machine(hz, exec::derive_seed(seed, r as u64)))
            });
            mean_std(&counts)
        })
        .collect();
    let mut cells = vec![label.to_owned()];
    cells.extend(stats.iter().map(|&(mu, sd)| crate::pm(mu, sd)));
    crate::print_row(&cells, widths);
    stats
}

pub(crate) fn run(full: bool) {
    crate::header("Table II: probed interrupts in 10 s (isolated core)");
    let reps = if full { 30 } else { 8 };
    let duration = Ps::from_secs(10);
    println!("reps per cell: {reps}; baseline: 10*HZ timer ticks + ~3 PMIs\n");
    let widths = [20, 18, 18, 18];
    crate::print_row(
        &[
            "method".into(),
            "HZ=100".into(),
            "HZ=250".into(),
            "HZ=1000".into(),
        ],
        &widths,
    );

    // --- SegScope: exact, threshold-free ---
    let segscope = row("SegScope", reps, 0x7AB2, &widths, |m| {
        let mut probe = SegProbe::new();
        probe.probe_for(m, duration).expect("probe works").len() as f64
    });
    // --- Schwarz et al. (timestamp jumps, threshold 1000 cycles) ---
    let schwarz = row("Schwarz et al.", reps, 0x7AB3, &widths, |m| {
        TsJumpProber::paper_default()
            .probe_for(m, duration)
            .expect("rdtsc available") as f64
    });
    // --- Lipp et al. (loop counting sampled every 5 ms) ---
    let lipp = row("Lipp et al.", reps, 0x7AB4, &widths, |m| {
        let mut prober = LoopCountProber::paper_default();
        prober.calibrate(m, 200).expect("clock available");
        prober.probe_for(m, duration).expect("clock available") as f64
    });

    println!("\npaper Table II:");
    crate::print_row(
        &[
            "SegScope".into(),
            "1003.1 ± 0.3".into(),
            "2503.7 ± 0.6".into(),
            "10003.1 ± 0.4".into(),
        ],
        &widths,
    );
    crate::print_row(
        &[
            "Schwarz et al.".into(),
            "1170.5 ± 51.1".into(),
            "2740.3 ± 62.7".into(),
            "10224.6 ± 52.3".into(),
        ],
        &widths,
    );
    crate::print_row(
        &[
            "Lipp et al.".into(),
            "1038.8 ± 20.9".into(),
            "2000 ± 0".into(),
            "2000 ± 0".into(),
        ],
        &widths,
    );

    for (i, hz) in HZS.into_iter().enumerate() {
        let (mu, sd) = segscope[i];
        assert!(
            (mu - 10.0 * hz).abs() < 0.01 * 10.0 * hz && sd < 0.005 * mu,
            "SegScope must count 10·HZ ticks tightly at HZ={hz}: {mu} ± {sd}"
        );
        assert!(
            schwarz[i].0 > mu,
            "Schwarz must overcount at HZ={hz}: {} vs SegScope {mu}",
            schwarz[i].0
        );
        if hz >= 250.0 {
            assert!(
                lipp[i].0 <= 2000.0,
                "Lipp must cap at 2000 at HZ={hz}: {}",
                lipp[i].0
            );
        }
    }
    println!(
        "\nshape check PASSED: SegScope within 1% of 10·HZ, std < 0.5%; Schwarz overcounts; Lipp caps at 2000 for HZ ≥ 250."
    );
}
