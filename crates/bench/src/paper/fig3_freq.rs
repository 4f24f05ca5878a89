//! Fig. 3 — SegCnt is linearly proportional to CPU frequency.
//!
//! We probe interrupts while the frequency wanders (victim load steps
//! drive the governor up and down), record (frequency, SegCnt) pairs,
//! and report the Pearson correlation and the fitted line — the paper's
//! figure shows a clean linear relation with a few outliers.

use segscope::SegProbe;
use segsim::{Machine, MachineConfig};

pub(crate) fn run(full: bool) {
    crate::header("Fig. 3: SegCnt vs CPU frequency");
    let probes = if full { 2_000 } else { 800 };
    let mut machine = Machine::new(MachineConfig::lenovo_yangtian(), 0xF163);

    // Make the frequency wander across its range: a victim load staircase.
    machine.set_victim_load(super::load_staircase(400));
    machine.set_local_load(0.2); // the probe alone must not pin max turbo

    let mut probe = SegProbe::new();
    let mut points = Vec::with_capacity(probes);
    for _ in 0..probes {
        let sample = probe.probe_once(&mut machine).expect("probe works");
        let freq_ghz = machine.current_freq_khz() as f64 / 1e6;
        points.push((freq_ghz, sample.segcnt as f64));
    }

    // Pearson correlation and least-squares line.
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let (mut sxx, mut syy, mut sxy) = (0.0, 0.0, 0.0);
    for &(x, y) in &points {
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
        sxy += (x - mx) * (y - my);
    }
    let r = sxy / (sxx.sqrt() * syy.sqrt()).max(1e-12);
    let slope = sxy / sxx.max(1e-12);
    let intercept = my - slope * mx;
    let fmin = points.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
    let fmax = points.iter().map(|p| p.0).fold(f64::NEG_INFINITY, f64::max);
    println!(
        "{} probes; observed frequency range {:.2}..{:.2} GHz",
        points.len(),
        fmin,
        fmax
    );
    println!("least-squares fit: SegCnt = {slope:.3e} x GHz + {intercept:.3e}");
    println!("Pearson r = {r:.4}");

    // Binned scatter, as a text rendering of the figure.
    println!("\nmean SegCnt by frequency bin:");
    let mut bins: Vec<Vec<f64>> = vec![Vec::new(); 10];
    for &(x, y) in &points {
        let b = (((x - fmin) / (fmax - fmin).max(1e-9)) * 10.0) as usize;
        bins[b.min(9)].push(y);
    }
    let peak = bins
        .iter()
        .map(|b| segscope::mean(b))
        .fold(f64::NEG_INFINITY, f64::max)
        .max(1.0);
    for (i, bin) in bins.iter().enumerate() {
        if bin.is_empty() {
            continue;
        }
        let f = fmin + (fmax - fmin) * (i as f64 + 0.5) / 10.0;
        let mean = segscope::mean(bin);
        let bar = "#".repeat((mean / peak * 50.0) as usize);
        println!("{f:>6.2} GHz | {mean:>12.0} {bar}");
    }
    assert!(
        r > 0.95,
        "Fig. 3 claim: SegCnt linearly tracks frequency (r = {r})"
    );
    println!(
        "\nshape check PASSED: r > 0.95 (paper: 'linearly proportional with a few outliers')."
    );
}
