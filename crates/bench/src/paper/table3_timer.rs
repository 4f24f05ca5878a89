//! Table III — SegScope-based timer vs the optimized counting thread,
//! with the native timestamp counter (`rdtsc`/`rdpru`) as baseline.
//!
//! *Granularity* = timer increments per TSC cycle across timer-interrupt
//! intervals (Z-score filtered). *Stability* = the standard deviation (in
//! TSC cycles) of repeatedly timing a fixed 1 M-cycle workload.
//!
//! Paper shape: both software timers reach rdtsc-level granularity
//! (~0.5–1.6 increments/cycle) but are orders of magnitude less stable;
//! the counting thread degrades badly on the virtualized cloud machines
//! while SegScope stays at the same order of magnitude everywhere.

use segscope::{CountingThreadTimer, Denoise, SegProbe, SegTimer, ZScoreFilter};
use segsim::{Machine, MachineConfig};

struct Row {
    machine: String,
    seg_gran: f64,
    seg_std: f64,
    ct_gran: f64,
    ct_std: f64,
    rdtsc_std: f64,
    timer_name: &'static str,
}

/// The fixed workload: loop on the hi-res timestamp until 1 M TSC cycles
/// elapsed (the paper's attacker-controlled code).
fn workload(m: &mut Machine) {
    let t0 = m.rdtsc().expect("baseline machine allows rdtsc");
    while m.rdtsc().expect("rdtsc") - t0 < 1_000_000 {
        m.spin(300);
    }
}

fn measure(config: MachineConfig, seed: u64, intervals: usize, stab_reps: usize) -> Row {
    let timer_name = match config.vendor {
        segsim::Vendor::Intel => "rdtsc",
        segsim::Vendor::Amd => "rdpru",
    };
    let machine_name = config.name.clone();
    let mut m = Machine::new(config, seed);
    m.spin(800_000_000); // warm the governor to steady state

    // --- Granularity: timer increments per TSC cycle over intervals. ---
    let mut probe = SegProbe::new();
    let mut seg_ratio = Vec::with_capacity(intervals);
    let mut ct_ratio = Vec::with_capacity(intervals);
    for _ in 0..intervals {
        let ct0 = m.counting_thread_read();
        let t0 = m.rdtsc().expect("rdtsc");
        let sample = probe.probe_once(&mut m).expect("probe");
        let t1 = m.rdtsc().expect("rdtsc");
        let ct1 = m.counting_thread_read();
        let cycles = (t1 - t0) as f64;
        if cycles > 0.0 {
            seg_ratio.push(sample.segcnt as f64 / cycles);
            ct_ratio.push((ct1 - ct0) as f64 / cycles);
        }
    }
    let keep = |xs: &[f64]| ZScoreFilter::fit_iterative(xs, 2.0, 8).filter(xs);
    let seg_gran = segscope::mean(&keep(&seg_ratio));
    let ct_gran = segscope::mean(&keep(&ct_ratio));

    // --- Stability: std (cycles) of timing a fixed 1 M-cycle workload. ---
    let mut timer = SegTimer::calibrate(&mut m, 150, Denoise::ZScore).expect("calibrate");
    let seg = timer.measure(&mut m, stab_reps, workload).expect("measure");
    let seg_std = seg.std_ticks / seg_gran.max(1e-9);

    let mut ct_samples = Vec::with_capacity(stab_reps);
    for _ in 0..stab_reps {
        let (_, delta) = CountingThreadTimer::time(&mut m, workload);
        ct_samples.push(delta as f64);
    }
    let ct_kept = keep(&ct_samples);
    let ct_std = segscope::std_dev(&ct_kept) / ct_gran.max(1e-9);

    let mut native = Vec::with_capacity(stab_reps);
    for _ in 0..stab_reps {
        let t0 = m.rdtsc().expect("rdtsc");
        workload(&mut m);
        let t1 = m.rdtsc().expect("rdtsc");
        native.push((t1 - t0) as f64);
    }
    let rdtsc_std = segscope::std_dev(&keep(&native));

    Row {
        machine: machine_name,
        seg_gran,
        seg_std,
        ct_gran,
        ct_std,
        rdtsc_std,
        timer_name,
    }
}

pub(crate) fn run(full: bool) {
    crate::header("Table III: SegScope timer vs counting thread vs native TSC");
    let (intervals, stab_reps) = if full { (1_000, 400) } else { (250, 80) };
    println!("intervals for granularity: {intervals}; stability reps: {stab_reps}\n");
    let widths = [44, 10, 14, 10, 14, 10];
    crate::print_row(
        &[
            "machine".into(),
            "seg gran".into(),
            "seg std(cy)".into(),
            "ct gran".into(),
            "ct std(cy)".into(),
            "tsc std".into(),
        ],
        &widths,
    );
    // Table III covers the Table I machines minus the Savior (reserved
    // for Spectral in the paper).
    let machines = [
        MachineConfig::xiaomi_air13(),
        MachineConfig::lenovo_yangtian(),
        MachineConfig::honor_magicbook(),
        MachineConfig::amazon_t2_large(),
        MachineConfig::amazon_c5_large(),
    ];
    let rows: Vec<Row> = machines
        .into_iter()
        .enumerate()
        .map(|(i, config)| {
            let row = measure(config, 0x7AB3_3000 + i as u64, intervals, stab_reps);
            crate::print_row(
                &[
                    format!("{} [{}]", row.machine, row.timer_name),
                    format!("{:.2}", row.seg_gran),
                    format!("{:.1}", row.seg_std),
                    format!("{:.2}", row.ct_gran),
                    format!("{:.1}", row.ct_std),
                    format!("{:.1}", row.rdtsc_std),
                ],
                &widths,
            );
            row
        })
        .collect();
    let avg = |f: fn(&Row) -> f64| rows.iter().map(f).sum::<f64>() / 5.0;
    crate::print_row(
        &[
            "AVERAGE".into(),
            format!("{:.2}", avg(|r| r.seg_gran)),
            format!("{:.1}", avg(|r| r.seg_std)),
            format!("{:.2}", avg(|r| r.ct_gran)),
            format!("{:.1}", avg(|r| r.ct_std)),
            format!("{:.1}", avg(|r| r.rdtsc_std)),
        ],
        &widths,
    );
    println!(
        "\npaper Table III averages: SegScope gran 1.29, std 4011.2; counting thread gran 0.85,\n\
         std 7163.0; rdtsc/rdpru std 10.1. Shape: software timers reach ~cycle-level\n\
         granularity with thousands-of-cycles stability; the native TSC std is ~10 cycles;\n\
         the counting thread collapses on the cloud instances while SegScope does not."
    );

    for row in &rows {
        for gran in [row.seg_gran, row.ct_gran] {
            assert!(
                (0.5..=2.0).contains(&gran),
                "{}: granularity {gran} is not cycle-level",
                row.machine
            );
        }
        assert!(
            row.rdtsc_std < 200.0 && row.rdtsc_std < row.seg_std,
            "{}: native TSC std {} must be small and below SegScope's {}",
            row.machine,
            row.rdtsc_std,
            row.seg_std
        );
    }
    // Rows 0..3 are the laptops, 3..5 the two cloud instances.
    let (laptops, cloud) = rows.split_at(3);
    let max = |rows: &[Row], f: fn(&Row) -> f64| rows.iter().map(f).fold(0.0, f64::max);
    let min = |rows: &[Row], f: fn(&Row) -> f64| rows.iter().map(f).fold(f64::INFINITY, f64::min);
    assert!(
        min(cloud, |r| r.ct_std) > 2.0 * max(laptops, |r| r.ct_std),
        "the counting thread must collapse on the cloud instances"
    );
    assert!(
        max(cloud, |r| r.seg_std) <= 2.0 * max(laptops, |r| r.seg_std),
        "SegScope must not collapse on the cloud instances"
    );
    println!(
        "\nshape check PASSED: cycle-level granularity; TSC std < 200 cycles; \
         the counting thread collapses on the cloud instances, SegScope does not."
    );
}
