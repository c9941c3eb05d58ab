//! Summary statistics shared by every workload: percentiles under the
//! sample-count rule, quiet-window summaries of a run, the ranking AUC of a
//! routing score, and the exact-skipping-rate δ calibration.

/// Every reported percentile must leave at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample with at
/// least `p` of the samples at or below it. `p` is a share in `(0, 1]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank_index(sorted.len(), p)]
}

fn rank_index(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    assert!(p > 0.0 && p <= 1.0, "percentile share must lie in (0, 1]");
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank `p` percentile of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - (rank_index(n, p) + 1)
}

/// The `p` percentile of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn checked_percentile(samples: &mut [f64], p: f64) -> Option<f64> {
    if samples.is_empty() || beyond(samples.len(), p) < MIN_BEYOND {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    Some(percentile(samples, p))
}

/// Median of the values (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The rank, as a share counted from the best, at which a run's repeated
/// measurements are read: its windows, or the rounds of one frame.
///
/// The benchmark runs on a few cores of a shared host whose speed changes
/// for seconds to minutes at a time with other tenants' load: the little
/// net's batch-1 pass takes about 32 µs in a quiet stretch and 45–57 µs in
/// a busy one, in the same process on the same input, and the quiet share
/// of a run ranged from under a tenth to nearly all of it. A median, or
/// any rank near that share, follows the host's load; the 2nd percentile
/// reads the program in the quiet stretches that nearly every run
/// contains, and from fifty-one measurements up it rests on more than one,
/// so a single lucky one does not set it. A run that is busy from start
/// to end still reads slow.
pub const QUIET: f64 = 0.02;

/// Nearest-rank [`QUIET`] percentile of lower-is-better values (times).
pub fn quiet_low(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, QUIET)
}

/// Latency summary of one run: the [`QUIET`] percentile over the run's
/// windows of each window's p50 and p99.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowedLatency {
    pub p50: f64,
    pub p99: f64,
    pub windows: usize,
}

/// Summarises `samples` (in arrival order) in consecutive windows of
/// `chunk` samples; the trailing partial window is dropped. `None` if no
/// full window exists or a window is too small to leave [`MIN_BEYOND`]
/// samples beyond its p99.
pub fn chunked_latency(samples: &[f64], chunk: usize) -> Option<WindowedLatency> {
    if chunk == 0 || beyond(chunk, 0.99) < MIN_BEYOND {
        return None;
    }
    let mut p50s = Vec::new();
    let mut p99s = Vec::new();
    for window in samples.chunks_exact(chunk) {
        let mut w = window.to_vec();
        w.sort_by(f64::total_cmp);
        p50s.push(percentile(&w, 0.50));
        p99s.push(percentile(&w, 0.99));
    }
    if p50s.is_empty() {
        return None;
    }
    Some(WindowedLatency {
        p50: quiet_low(&p50s),
        p99: quiet_low(&p99s),
        windows: p50s.len(),
    })
}

/// Ranking AUC of `scores` against binary `labels`: the probability that a
/// randomly drawn positive scores above a randomly drawn negative, with ties
/// counted as half. `None` if either class is empty or a score is NaN.
pub fn auc(scores: &[f32], labels: &[bool]) -> Option<f64> {
    assert_eq!(scores.len(), labels.len(), "one label per score");
    if scores.iter().any(|s| s.is_nan()) {
        return None;
    }
    let positives = labels.iter().filter(|&&l| l).count();
    let negatives = labels.len() - positives;
    if positives == 0 || negatives == 0 {
        return None;
    }
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    // Mann-Whitney U from mid-ranks: tied scores share the mean of the ranks
    // they span, which counts each positive/negative tie as one half.
    let mut positive_rank_sum = 0.0f64;
    let mut i = 0;
    while i < order.len() {
        let mut j = i + 1;
        while j < order.len() && scores[order[j]] == scores[order[i]] {
            j += 1;
        }
        let mid_rank = (i + j + 1) as f64 / 2.0;
        positive_rank_sum += mid_rank * order[i..j].iter().filter(|&&k| labels[k]).count() as f64;
        i = j;
    }
    let p = positives as f64;
    let u = positive_rank_sum - p * (p + 1.0) / 2.0;
    Some(u / (p * negatives as f64))
}

/// The δ that keeps exactly `keep` of `scores` on the edge under Eq. 1
/// (`score ≥ δ` stays), or `None` when ties at the boundary make that
/// count unreachable.
pub fn delta_for_exact_keep(scores: &[f32], keep: usize) -> Option<f64> {
    let n = scores.len();
    if keep == 0 || keep > n {
        return None;
    }
    let mut sorted = scores.to_vec();
    sorted.sort_by(f32::total_cmp);
    let delta = sorted[n - keep];
    if n > keep && sorted[n - keep - 1] == delta {
        return None;
    }
    Some(f64::from(delta))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_and_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 500.0);
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        let mut small: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(checked_percentile(&mut small, 0.99), None);
        let mut enough: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        assert_eq!(checked_percentile(&mut enough, 0.99), Some(989.0));
        // p50 of the small sample is fine: 499 samples lie beyond it.
        assert_eq!(checked_percentile(&mut small, 0.50), Some(499.0));
    }

    #[test]
    fn chunked_latency_reads_the_quiet_windows() {
        // Ten windows of 1000: window c is offset by 1000·c, and window 0
        // has a stalled tail. Over fewer than fifty-one windows the quiet
        // rank is the quietest window, for each statistic separately.
        let mut samples = Vec::new();
        for c in 0..10 {
            for i in 0..1000 {
                let stall = if c == 0 && i >= 900 { 1e6 } else { 0.0 };
                samples.push(f64::from(i) + f64::from(c) * 1000.0 + stall);
            }
        }
        samples.extend([1e9; 10]);
        let summary = chunked_latency(&samples, 1000).expect("ten full windows");
        assert_eq!(summary.windows, 10);
        assert_eq!((summary.p50, summary.p99), (499.0, 1989.0));
        // A hundred windows: the quiet rank is the second quietest.
        let rising: Vec<f64> = (0..100_000).map(f64::from).collect();
        let hundred = chunked_latency(&rising, 1000).expect("a hundred windows");
        assert_eq!(hundred.windows, 100);
        assert_eq!((hundred.p50, hundred.p99), (1499.0, 1989.0));
        // A window too small for its p99, or no full window, gives nothing.
        assert_eq!(chunked_latency(&samples, 999), None);
        assert_eq!(chunked_latency(&samples[..999], 1000), None);
    }

    #[test]
    fn quiet_rank_is_the_nearest_rank_second_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quiet_low(&v), 2.0);
        assert_eq!(quiet_low(&v[..51]), 2.0);
        assert_eq!(quiet_low(&v[..50]), 1.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn auc_matches_hand_computed_cases() {
        // Perfect ranking and its inverse.
        let labels = [false, false, true, true];
        assert_eq!(auc(&[0.1, 0.2, 0.8, 0.9], &labels), Some(1.0));
        assert_eq!(auc(&[0.9, 0.8, 0.2, 0.1], &labels), Some(0.0));
        // Pairs (pos, neg): (0.8 > 0.1), (0.8 > 0.5), (0.3 > 0.1), (0.3 < 0.5)
        // → 3 of 4.
        assert_eq!(auc(&[0.1, 0.5, 0.3, 0.8], &labels), Some(0.75));
        // Every score tied: each pair counts one half.
        assert_eq!(auc(&[0.5; 4], &labels), Some(0.5));
        // One tie across classes: pairs (0.4 vs 0.4) = ½, (0.4 vs 0.2) = 1,
        // (0.9 vs 0.4) = 1, (0.9 vs 0.2) = 1 → 3.5 of 4.
        assert_eq!(
            auc(&[0.4, 0.2, 0.4, 0.9], &[false, false, true, true]),
            Some(0.875)
        );
        // Three positives, two negatives with a positive-positive tie, which
        // does not count: pairs beaten = 2 + 2 + 1 = 5 of 6.
        assert_eq!(
            auc(
                &[0.7, 0.7, 0.3, 0.5, 0.1],
                &[true, true, true, false, false]
            ),
            Some(5.0 / 6.0)
        );
        assert_eq!(auc(&[0.1, 0.2], &[true, true]), None);
        assert_eq!(auc(&[f32::NAN, 0.2], &[true, false]), None);
    }

    #[test]
    fn delta_calibration_hits_the_exact_keep_count() {
        let scores: Vec<f32> = (0..1000)
            .map(|i| ((i * 7919) % 1000) as f32 / 1000.0)
            .collect();
        let delta = delta_for_exact_keep(&scores, 700).expect("distinct scores");
        let kept = scores.iter().filter(|&&s| f64::from(s) >= delta).count();
        assert_eq!(kept, 700);
        // δ at the 30th percentile keeps 70% — the Fig. 5 operating point.
        assert_eq!(delta, f64::from(0.3f32));
        assert_eq!(delta_for_exact_keep(&scores, 1000), Some(0.0));
        // A tie across the boundary makes an exact count unreachable.
        assert_eq!(delta_for_exact_keep(&[0.1, 0.5, 0.5, 0.9], 2), None);
        assert_eq!(delta_for_exact_keep(&[0.1, 0.5, 0.5, 0.9], 3), Some(0.5));
    }
}
