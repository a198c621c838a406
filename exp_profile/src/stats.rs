//! Nearest-rank order statistics for the benchmark's samples.

/// Samples that must lie beyond a tail percentile for it to be reported.
pub const TAIL_BEYOND: usize = 10;

/// Order statistics of one series of samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// 25th percentile.
    pub q1: f64,
    /// 50th percentile.
    pub median: f64,
    /// 75th percentile.
    pub q3: f64,
    /// The highest percentile with at least [`TAIL_BEYOND`] samples above
    /// its rank, as `(percentile, value)`; `None` with too few samples.
    pub tail: Option<(f64, f64)>,
}

/// Nearest-rank percentile `p` (in `0..=100`) of ascending `sorted`: the
/// smallest sample with at least `p`% of the samples at or below it.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    // Multiply before dividing so integral ranks (p = 99, n = 1000) stay exact.
    let rank = (p * sorted.len() as f64 / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Summarizes `samples` (any order).
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let tail = (n > TAIL_BEYOND).then(|| {
        let rank = n - TAIL_BEYOND;
        (100.0 * rank as f64 / n as f64, sorted[rank - 1])
    });
    Summary {
        count: n,
        q1: percentile(&sorted, 25.0),
        median: percentile(&sorted, 50.0),
        q3: percentile(&sorted, 75.0),
        tail,
    }
}

/// Median of `samples` (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ties_resolve_to_the_shared_value() {
        let s = summarize(&[5.0, 1.0, 5.0, 5.0, 9.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (5.0, 5.0, 5.0));
        assert_eq!(percentile(&[2.0, 2.0, 2.0], 100.0), 2.0);
        assert_eq!(percentile(&[2.0, 2.0, 2.0], 0.0), 2.0);
    }

    #[test]
    fn fewer_than_eleven_samples_have_no_tail() {
        for n in 1..=TAIL_BEYOND {
            let samples: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let s = summarize(&samples);
            assert_eq!(s.count, n);
            assert_eq!(s.tail, None, "n = {n}");
        }
        let s = summarize(&[3.0]);
        assert_eq!((s.q1, s.median, s.q3), (3.0, 3.0, 3.0));
        // n = 4: ranks ceil(1), ceil(2), ceil(3).
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        let s = summarize(&(1..=11).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.tail, Some((100.0 / 11.0, 1.0)));
    }

    #[test]
    fn a_thousand_samples_report_p99() {
        // Reversed input: the summary must not depend on arrival order.
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = summarize(&samples);
        assert_eq!(s.count, 1000);
        assert_eq!((s.q1, s.median, s.q3), (250.0, 500.0, 750.0));
        assert_eq!(s.tail, Some((99.0, 990.0)));
        assert_eq!(
            percentile(&(1..=1000).map(f64::from).collect::<Vec<_>>(), 99.0),
            990.0
        );
    }
}
