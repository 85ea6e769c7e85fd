//! The benchmark's own statistics: percentiles of one run's samples,
//! quartiles across runs, and span self time.

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `p`% of all samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`th
/// percentile. A percentile is reported only when this is at least ten.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Median of unsorted values (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so that the steadiness report matches the acceptance check.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len() as i64;
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4i64).zip(out.iter_mut()) {
        // Python clamps the index and then extrapolates with a negative
        // or oversized `delta`; the integer arithmetic is kept identical.
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile range as a share of the median (0 when the median is 0
/// and the values are all equal).
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q3 == q1 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// A timed interval `[start, end)` in nanoseconds since the run began.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Start, inclusive.
    pub start: u64,
    /// End, exclusive.
    pub end: u64,
}

impl Interval {
    /// Length in nanoseconds.
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A span's self time: its duration minus the part of it that its child
/// spans cover. Overlapping children count once, and child time outside
/// the parent counts not at all.
pub fn self_time(parent: Interval, children: &[Interval]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start.max(parent.start), c.end.min(parent.end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    parent.len() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_of_200_samples_leaves_ten_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // Rank ⌈0.95 · 200⌉ = 190: samples 191..=200 lie beyond it.
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert_eq!(samples_beyond(199, 95.0), 9);
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&[4.0], 95.0), 4.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // index is clamped and the quartiles extrapolate.
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn iqr_share_of_hand_computed_values() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        // (8.25 − 2.75) / 5.5 = 1.0
        assert_eq!(iqr_share(&v), 1.0);
        assert_eq!(iqr_share(&[3.0; 10]), 0.0);
        assert_eq!(median(&[5.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let iv = |start, end| Interval { start, end };
        // Parent 0..100; children 10..30 and 50..60 → self 70.
        assert_eq!(self_time(iv(0, 100), &[iv(10, 30), iv(50, 60)]), 70);
        // Overlapping children count once: 10..40 ∪ 20..50 = 40.
        assert_eq!(self_time(iv(0, 100), &[iv(20, 50), iv(10, 40)]), 60);
        // A child reaching past the parent is clipped to it.
        assert_eq!(self_time(iv(0, 100), &[iv(90, 150)]), 90);
        assert_eq!(self_time(iv(0, 100), &[]), 100);
        assert_eq!(self_time(iv(0, 100), &[iv(0, 100)]), 0);
    }
}
