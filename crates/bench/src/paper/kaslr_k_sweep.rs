//! Figs. 10 and 11 — the impact of `K` on SegCnt when probing a mapped
//! vs unmapped kernel address, by *direct access* (segment faults
//! absorbed by a user handler) and by *prefetch* (no faults).
//!
//! Paper shape: at K = 1 the distributions overlap; a proper K amplifies
//! the per-probe timing gap far past the SegScope timer's noise floor,
//! so the distributions separate cleanly. Prefetch needs larger K than
//! direct access because the per-probe gap is smaller, but it avoids the
//! SIGSEGV round trip entirely.

use segscope_attacks::kaslr::{k_sweep_distributions, ProbeMethod};

/// Fig. 10: direct-access probing.
pub(crate) fn fig10(full: bool) {
    let ks: &[usize] = if full {
        &[1, 10, 100, 1000]
    } else {
        &[1, 10, 100, 400]
    };
    k_sweep(
        full,
        ProbeMethod::Access,
        ks,
        0xF16B,
        "Fig. 10: SegCnt vs K, direct-access probing",
        "gap amplifies with K (paper Fig. 10)",
    );
}

/// Fig. 11: prefetch probing.
pub(crate) fn fig11(full: bool) {
    let ks: &[usize] = if full {
        &[1, 10, 100, 1000]
    } else {
        &[1, 16, 64, 256]
    };
    k_sweep(
        full,
        ProbeMethod::Prefetch,
        ks,
        0xF16C,
        "Fig. 11: SegCnt vs K, prefetch probing",
        "a proper K separates mapped from unmapped (paper Fig. 11)",
    );
}

fn median(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    s[s.len() / 2]
}

fn k_sweep(full: bool, method: ProbeMethod, ks: &[usize], seed: u64, title: &str, claim: &str) {
    crate::header(title);
    let rounds = if full { 60 } else { 20 };
    println!("rounds per point: {rounds}\n");
    let widths = [8, 16, 16, 14];
    crate::print_row(
        &[
            "K".into(),
            "mapped (med)".into(),
            "unmapped (med)".into(),
            "gap".into(),
        ],
        &widths,
    );
    let mut gaps = Vec::new();
    for &k in ks {
        let (mapped, unmapped) =
            k_sweep_distributions(method, k, rounds, seed).expect("probe works");
        let gap = median(&unmapped) - median(&mapped);
        crate::print_row(
            &[
                k.to_string(),
                format!("{:.0}", median(&mapped)),
                format!("{:.0}", median(&unmapped)),
                format!("{gap:.0}"),
            ],
            &widths,
        );
        gaps.push(gap);
        if k == *ks.last().expect("nonempty") {
            println!("\nK = {k} distributions (ticks):");
            println!("mapped:");
            crate::ascii_histogram(&mapped, 8, 40);
            println!("unmapped:");
            crate::ascii_histogram(&unmapped, 8, 40);
        }
    }
    assert!(
        gaps.last().expect("nonempty") > gaps.first().expect("nonempty"),
        "the gap must grow with K: {gaps:?}"
    );
    println!("\nshape check PASSED: {claim}.");
}
