//! Fig. 5 — interrupted vs uninterrupted measurement distributions for
//! the two timer-based probing baselines.
//!
//! Paper shape: for both techniques the two distributions overlap enough
//! that no single threshold separates them reliably — the timestamp-jump
//! prober's clean tail crosses any useful threshold at scale (false
//! positives), and the loop-count prober's window counters smear into
//! each other.

use segscope::{LoopCountProber, TsJumpProber};
use segsim::{Machine, MachineConfig};

pub(crate) fn run(full: bool) {
    crate::header("Fig. 5a: timestamp-jump deltas (Schwarz et al.)");
    let scale = if full { 4 } else { 1 };
    let mut machine = Machine::new(MachineConfig::lenovo_yangtian(), 0xF165);
    let prober = TsJumpProber::paper_default();
    // The paper plots 1000 + 1000; clean threshold-crossers are rare
    // (~2*tail_prob per draw), so sample the clean class at volume to
    // expose the tail that causes Table II's false positives.
    let samples = prober
        .sample_measurements(&mut machine, 2_000_000 * scale, 1_000 * scale)
        .expect("rdtsc available");
    let clean: Vec<f64> = samples
        .iter()
        .filter(|s| !s.interrupted)
        .map(|s| s.delta as f64)
        .collect();
    let dirty: Vec<f64> = samples
        .iter()
        .filter(|s| s.interrupted)
        .map(|s| s.delta as f64)
        .collect();
    crate::summary("uninterrupted deltas", &clean);
    crate::summary("interrupted   deltas", &dirty);
    let threshold = prober.threshold as f64;
    let clean_over = clean.iter().filter(|&&d| d > threshold).count();
    let dirty_under = dirty.iter().filter(|&&d| d <= threshold).count();
    println!(
        "threshold {threshold}: {clean_over} of {} clean measurements cross it (false positives); \
         {dirty_under} interrupted ones stay under it",
        clean.len()
    );
    assert!(
        clean_over > 0,
        "the clean tail must cross the threshold at scale"
    );
    assert_eq!(dirty_under, 0, "interrupted deltas dwarf the threshold");
    println!("\ninterrupted-delta histogram (TSC cycles):");
    crate::ascii_histogram(&dirty, 12, 50);

    crate::header("Fig. 5b: loop-counter window values (Lipp et al.)");
    // A wandering-frequency machine at HZ = 100: a 5 ms window misses
    // the 10 ms tick often enough to populate both classes, and the
    // Fig. 3 victim-load staircase smears the clean class's counter.
    let mut machine = Machine::new(MachineConfig::lenovo_yangtian().with_hz(100.0), 0xF166);
    machine.set_victim_load(super::load_staircase(1_000));
    machine.set_local_load(0.2);
    machine.spin(400_000_000); // warm up
    let prober = LoopCountProber::paper_default();
    let windows = prober
        .sample_measurements(&mut machine, 1_500 * scale)
        .expect("clock available");
    let clean: Vec<f64> = windows
        .iter()
        .filter(|s| !s.interrupted)
        .map(|s| s.counter as f64)
        .collect();
    let dirty: Vec<f64> = windows
        .iter()
        .filter(|s| s.interrupted)
        .map(|s| s.counter as f64)
        .collect();
    crate::summary("uninterrupted windows", &clean);
    crate::summary("interrupted   windows", &dirty);
    assert!(
        !clean.is_empty() && !dirty.is_empty(),
        "both window classes must be populated"
    );
    let overlap_hi = dirty.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let overlap_lo = clean.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(
        overlap_hi > overlap_lo,
        "loop-count windows must overlap: max(interrupted) {overlap_hi} vs min(clean) {overlap_lo}"
    );
    println!(
        "overlap check: max(interrupted) = {overlap_hi:.0} vs min(clean) = {overlap_lo:.0} -> \
         distributions OVERLAP (no perfect threshold exists)"
    );
    println!("\ninterrupted-window histogram (counter values):");
    crate::ascii_histogram(&dirty, 12, 50);
    println!(
        "\npaper shape: threshold detection is unreliable for both baselines, while SegScope\n\
         needs no threshold at all (the footprint is exact)."
    );
}
