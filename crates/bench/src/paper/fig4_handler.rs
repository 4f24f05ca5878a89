//! Fig. 4 — the distribution of interrupt-handler time costs (`w`).
//!
//! The paper's eBPF measurement (1 M samples on the Lenovo Yangtian):
//! all costs below 6 µs, 90.7 % within 1.0–1.5 µs. We sample the same
//! model via the in-simulator ground truth while probing.

use irq::time::Ps;
use segscope::SegProbe;
use segsim::{Machine, MachineConfig};

pub(crate) fn run(full: bool) {
    crate::header("Fig. 4: interrupt-handler cost distribution (w)");
    let target = if full { 1_000_000 } else { 100_000 };

    // Sample the handler model through real deliveries (probe until the
    // ground-truth trace holds enough records), then top up with direct
    // model draws so the quick run still gets a smooth histogram.
    let mut machine = Machine::new(MachineConfig::lenovo_yangtian(), 0xF164);
    let mut probe = SegProbe::new();
    probe
        .probe_for(&mut machine, Ps::from_secs(4))
        .expect("probe works");
    let mut costs_us: Vec<f64> = machine
        .ground_truth()
        .records()
        .iter()
        .map(|r| r.handler_cost.as_us())
        .collect();
    let delivered = costs_us.len();
    let model = machine.config().handler_model.clone();
    while costs_us.len() < target {
        let w = model.sample(irq::InterruptKind::Timer, machine.rng_mut());
        costs_us.push(w.as_us());
    }
    println!(
        "{} samples ({} from delivered interrupts, rest direct model draws)\n",
        costs_us.len(),
        delivered
    );
    crate::ascii_histogram(&costs_us, 24, 60);

    let max = costs_us.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let in_band = costs_us
        .iter()
        .filter(|&&w| (1.0..=1.5).contains(&w))
        .count();
    let frac = in_band as f64 / costs_us.len() as f64;
    println!("\nmax cost: {max:.2} us (paper: < 6 us)");
    println!(
        "fraction in [1.0, 1.5] us: {:.1}% (paper: 90.7%)",
        frac * 100.0
    );
    assert!(max < 6.0 + 1e-9, "no handler may exceed 6 us");
    assert!((0.85..0.95).contains(&frac), "in-band fraction {frac}");
    println!("\nshape check PASSED.");
}
