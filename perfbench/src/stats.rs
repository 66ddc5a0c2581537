//! The benchmark's own arithmetic: medians and the reported tail
//! percentile.
//!
//! A latency is reported as its median plus the *highest* percentile
//! that still has at least [`MIN_BEYOND`] samples beyond it, so a tail
//! figure is never read off a handful of outliers. Percentiles use the
//! nearest-rank rule on the sorted samples.

/// Percentiles the tail may be reported at, lowest first.
pub const TAIL_CANDIDATES: [f64; 6] = [50.0, 75.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Zero-based nearest-rank index of percentile `p` in `n` sorted samples.
fn rank_index(p: f64, n: usize) -> usize {
    debug_assert!(n > 0);
    // p is a decimal like 99.9 that binary floating point rounds; the
    // epsilon keeps an exact rank from ceiling one step too far.
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Samples strictly after the nearest-rank position of `p`.
pub fn samples_beyond(p: f64, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank_index(p, n)
}

/// Percentile `p` of `sorted` (ascending) by nearest rank; `None` when
/// empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank_index(p, sorted.len())])
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// A latency summary: the median and the highest supported tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub count: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// The tail percentile chosen by [`tail_percentile`], or `None` when
    /// even the median has fewer than [`MIN_BEYOND`] samples beyond it.
    pub tail_pct: Option<f64>,
    /// The value at `tail_pct`; the maximum when `tail_pct` is `None`.
    pub tail: f64,
}

/// The highest of [`TAIL_CANDIDATES`] with at least [`MIN_BEYOND`]
/// samples beyond it among `n`.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .rev()
        .find(|&p| samples_beyond(p, n) >= MIN_BEYOND)
}

/// Summarizes `values` (any order); `None` when empty.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let p50 = percentile(&v, 50.0)?;
    let tail_pct = tail_percentile(v.len());
    let tail = match tail_pct {
        Some(p) => percentile(&v, p).expect("non-empty"),
        None => *v.last().expect("non-empty"),
    };
    Some(Summary {
        count: v.len(),
        p50,
        tail_pct,
        tail,
    })
}

impl Summary {
    /// `p99 (n=2048)`-style label of the tail.
    pub fn tail_label(&self) -> String {
        match self.tail_pct {
            Some(p) => format!("p{p} (n={})", self.count),
            None => format!("max (n={}, too few for a percentile)", self.count),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 leaves 1.
        assert_eq!(samples_beyond(99.0, 1000), 10);
        assert_eq!(samples_beyond(99.9, 1000), 1);
        assert_eq!(tail_percentile(1000), Some(99.0));
        // 999 samples: p99 leaves 9, so the tail falls back to p90.
        assert_eq!(samples_beyond(99.0, 999), 9);
        assert_eq!(tail_percentile(999), Some(90.0));
        // 10 000 samples support p99.9 (10 beyond), not p99.99.
        assert_eq!(tail_percentile(10_000), Some(99.9));
        // 40 samples: p75 leaves 10; 39 only supports the median.
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        // Too few for any percentile: 19 leaves 9 beyond the median.
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
    }

    #[test]
    fn summary_picks_values_by_nearest_rank() {
        let values: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = summarize(&values).expect("non-empty");
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail_pct, Some(99.0));
        assert_eq!(s.tail, 990.0);
        // Exactly ten samples lie above the reported tail.
        assert_eq!(values.iter().filter(|&&v| v > s.tail).count(), 10);

        let few = summarize(&[3.0, 1.0, 2.0]).expect("non-empty");
        assert_eq!(few.p50, 2.0);
        assert_eq!(few.tail_pct, None);
        assert_eq!(few.tail, 3.0);
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[]), None);
    }
}
