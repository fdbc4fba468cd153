//! Order statistics over per-request samples.

/// The tail percentiles the benchmark may report, highest first. A fixed
/// ladder keeps `request_tail_s` comparable between runs whose request
/// counts differ slightly.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must rank beyond a percentile before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `samples` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Nearest-rank position (1-based) of percentile `q` among `n` samples.
fn nearest_rank(q: f64, n: usize) -> usize {
    ((q / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `q` (0–100) of `samples`; 0 when empty.
fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(q, sorted.len()) - 1]
}

/// Which tail percentile a run reports, and on how many samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailChoice {
    /// The percentile reported (from [`TAIL_LADDER`]).
    pub percentile: f64,
    /// Its nearest-rank value.
    pub value: f64,
    /// Samples ranked beyond it.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

impl TailChoice {
    /// Whether at least [`TAIL_MIN_BEYOND`] samples rank beyond the value.
    pub fn is_supported(&self) -> bool {
        self.beyond >= TAIL_MIN_BEYOND
    }
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples ranked beyond it. With too few samples for any rung, the
/// median is returned and [`TailChoice::is_supported`] is false.
pub fn tail(samples: &[f64]) -> TailChoice {
    let n = samples.len();
    let pick = |q: f64| TailChoice {
        percentile: q,
        value: percentile(samples, q),
        beyond: if n == 0 { 0 } else { n - nearest_rank(q, n) },
        samples: n,
    };
    TAIL_LADDER
        .iter()
        .map(|&q| pick(q))
        .find(TailChoice::is_supported)
        .unwrap_or_else(|| pick(50.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the helpers must sort.
        (0..n).map(|i| ((i * 7) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_picks_highest_rung_with_ten_beyond() {
        // 1000 samples: p99 has exactly 10 beyond, p99.9 only 1.
        let t = tail(&ramp(1000));
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.value, 990.0);
        assert!(t.is_supported());

        // 999 samples: p99 rank is 990, leaving 9 beyond — fall to p95.
        let t = tail(&ramp(999));
        assert_eq!(t.percentile, 95.0);
        assert_eq!(t.beyond, 999 - 950);

        // 40 samples: p90 leaves 4 beyond, p75 leaves exactly 10.
        let t = tail(&ramp(40));
        assert_eq!((t.percentile, t.beyond, t.value), (75.0, 10, 30.0));

        // 20 samples: only the median leaves ten beyond.
        let t = tail(&ramp(20));
        assert_eq!((t.percentile, t.beyond), (50.0, 10));
    }

    #[test]
    fn tail_with_too_few_samples_falls_back_to_the_median_unsupported() {
        let t = tail(&ramp(15));
        assert_eq!(t.percentile, 50.0);
        assert_eq!(t.beyond, 7);
        assert!(!t.is_supported());
        let t = tail(&[]);
        assert_eq!((t.value, t.beyond, t.samples), (0.0, 0, 0));
    }
}
