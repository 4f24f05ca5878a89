//! The benchmark's own arithmetic: medians, the tail-percentile rule,
//! worker idle share and the useful-bytes ratio of manifest persistence.

/// Percentiles the tail rule chooses from, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even
/// count); 0 for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples, in exact
/// integer arithmetic on tenths of a percent (so that p99.9 of 10 000
/// samples is rank 9990, not 9991).
fn rank(p: f64, n: usize) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`; 0 for an
/// empty slice.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(p, sorted.len()) - 1]
}

/// The highest candidate percentile that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it, or `None` when even the
/// median does not.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n > 0 && n - rank(p, n) >= MIN_BEYOND)
}

/// States the sample count behind a reported percentile `p` of a
/// metric with `per_pass` samples per pass, and the highest percentile
/// those samples support.
#[must_use]
pub fn rule_note(metric: &str, p: f64, per_pass: usize) -> String {
    match tail_percentile(per_pass) {
        Some(supported) if supported >= p => {
            format!("{metric}.p{p} over {per_pass} samples per pass (supports up to p{supported})")
        }
        supported => format!(
            "WARNING: {metric}.p{p} has fewer than {MIN_BEYOND} of {per_pass} samples per pass \
             beyond it (the rule supports {supported:?})"
        ),
    }
}

/// Share of `threads × wall_s` worker time that no worker spent busy.
#[must_use]
pub fn idle_share(busy_s: f64, threads: usize, wall_s: f64) -> f64 {
    let capacity = threads as f64 * wall_s;
    if capacity <= 0.0 {
        return 0.0;
    }
    1.0 - busy_s / capacity
}

/// Bytes of the final manifest over all bytes written while persisting
/// it after every wave: the share of persistence I/O that survives.
#[must_use]
pub fn useful_ratio(final_bytes: u64, written_bytes: u64) -> f64 {
    if written_bytes == 0 {
        return 0.0;
    }
    final_bytes as f64 / written_bytes as f64
}

/// FNV-1a over `bytes`.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&values, 90.0), 90.0);
        assert_eq!(percentile(&values, 99.0), 99.0);
        assert_eq!(percentile(&values, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        // p99 of 1000 samples is rank 990: exactly ten lie beyond it.
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        // The full grid's 198 cells support p90 (19 beyond), not p95 (9).
        assert_eq!(tail_percentile(198), Some(90.0));
        assert_eq!(tail_percentile(162), Some(90.0));
        // 8192 serve steps support p99 (81 beyond), not p99.9 (8).
        assert_eq!(tail_percentile(8192), Some(99.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        for n in 1..5000 {
            if let Some(p) = tail_percentile(n) {
                assert!(n - rank(p, n) >= MIN_BEYOND, "n {n} p {p}");
            }
        }
    }

    #[test]
    fn rule_note_states_the_sample_count() {
        assert_eq!(
            rule_note("campaign.cell_ms", 90.0, 198),
            "campaign.cell_ms.p90 over 198 samples per pass (supports up to p90)"
        );
        assert!(rule_note("serve.step_us.f64", 99.0, 999).starts_with("WARNING"));
    }

    #[test]
    fn idle_share_of_worker_spans() {
        // Two workers over a 10 s fan-out, busy 15 s in total.
        assert!((idle_share(15.0, 2, 10.0) - 0.25).abs() < 1e-12);
        assert_eq!(idle_share(10.0, 1, 10.0), 0.0);
        assert_eq!(idle_share(0.0, 4, 0.0), 0.0);
    }

    #[test]
    fn useful_ratio_of_growing_manifests() {
        // Waves persist manifests of 10, 20 and 30 bytes: 30 of 60 survive.
        assert_eq!(useful_ratio(30, 60), 0.5);
        assert_eq!(useful_ratio(30, 30), 1.0);
        assert_eq!(useful_ratio(0, 0), 0.0);
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
