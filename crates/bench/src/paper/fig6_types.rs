//! Fig. 6 — the impact of interrupt type on SegCnt.
//!
//! Paper shape: timer interrupts dominate the probed population and
//! their SegCnt concentrates tightly (fixed period); rescheduling and
//! performance-monitoring interrupts land mid-interval, so their SegCnt
//! scatters low — a clear statistical separation that the Z-score filter
//! (and the SegScope timer built on it) exploits.

use irq::InterruptKind;
use segscope::{KindHistogram, SegProbe, TimerEdgeClassifier};
use segsim::{Machine, MachineConfig};

pub(crate) fn run(full: bool) {
    crate::header("Fig. 6: SegCnt distribution per interrupt kind");
    let probes = if full { 20_000 } else { 4_000 };
    let mut config = MachineConfig::lenovo_yangtian();
    // Enough non-timer activity to populate the other classes (the
    // paper's trace had ~1e6 timer vs ~1e3 resched/PMI; we boost the
    // rates so the quick run still shows the side classes).
    config.pmi_rate_hz = 4.0;
    config.resched_rate_hz = 4.0;
    let mut machine = Machine::new(config, 0xF167);
    machine.spin(400_000_000);

    let mut probe = SegProbe::new();
    let samples = probe.probe_n(&mut machine, probes).expect("probe works");
    let hist = KindHistogram::from_samples(&samples);
    println!("{} probed intervals\n", samples.len());
    let widths = [10, 8, 14, 14, 10];
    crate::print_row(
        &[
            "kind".into(),
            "n".into(),
            "mean SegCnt".into(),
            "std".into(),
            "rel-std".into(),
        ],
        &widths,
    );
    for (kind, (n, mean, std)) in &hist.by_kind {
        crate::print_row(
            &[
                kind.to_string(),
                n.to_string(),
                format!("{mean:.0}"),
                format!("{std:.0}"),
                format!("{:.1}%", std / mean * 100.0),
            ],
            &widths,
        );
    }
    assert_eq!(hist.dominant_kind(), Some(InterruptKind::Timer));

    // Timer-edge classifier quality (the basis of the SegScope timer).
    let segcnts: Vec<f64> = samples.iter().map(|s| s.segcnt as f64).collect();
    let classifier = TimerEdgeClassifier::fit(&segcnts);
    let (tpr, fpr) = classifier.evaluate(&samples);
    println!(
        "\nZ-score timer-edge classifier: retains {:.1}% of timer samples, {:.1}% of others",
        tpr * 100.0,
        fpr * 100.0
    );
    assert!(
        tpr > 0.9 && tpr > fpr + 0.5,
        "separation check (tpr {tpr}, fpr {fpr})"
    );

    println!("\ntimer SegCnt histogram:");
    let timer: Vec<f64> = samples
        .iter()
        .filter(|s| s.kind == InterruptKind::Timer)
        .map(|s| s.segcnt as f64)
        .collect();
    crate::ascii_histogram(&timer, 10, 50);
    println!("\nnon-timer SegCnt histogram:");
    let other: Vec<f64> = samples
        .iter()
        .filter(|s| s.kind != InterruptKind::Timer)
        .map(|s| s.segcnt as f64)
        .collect();
    crate::ascii_histogram(&other, 10, 50);
    println!("\nshape check PASSED: timer concentrated, others dispersed low.");
}
