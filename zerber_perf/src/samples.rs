//! Latency samples and exact percentiles.
//!
//! Every timed op stores its latency; percentiles are read off the sorted
//! samples (nearest rank), never off buckets.  A tail percentile is only
//! trusted while at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Percentiles tried for the tail, highest first.  The reported tail is
/// p95: p99 did not repeat from run to run (see README.md).
const TAIL_LADDER: [f64; 3] = [0.95, 0.90, 0.50];

/// Latencies of one kind of op, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
    }

    /// Exact nearest-rank percentile `q` in `(0, 1]`, in nanoseconds.
    /// `None` when there are no samples.
    pub fn percentile_ns(&mut self, q: f64) -> Option<u64> {
        self.sort();
        let n = self.ns.len();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(self.ns[rank - 1])
    }

    /// Number of samples strictly beyond the nearest-rank position of `q`.
    pub fn beyond(&self, q: f64) -> usize {
        let n = self.ns.len();
        n - ((q * n as f64).ceil() as usize).clamp(0, n)
    }

    /// The highest percentile of the ladder (p95, p90, p50) with at
    /// least [`MIN_BEYOND`] samples beyond it, as `(q, nanoseconds)`.  With
    /// too few samples even for the median the maximum is returned as
    /// `(1.0, max)`, so the caller can say which percentile it got.
    pub fn tail_ns(&mut self) -> Option<(f64, u64)> {
        for q in TAIL_LADDER {
            if self.beyond(q) >= MIN_BEYOND {
                return self.percentile_ns(q).map(|v| (q, v));
            }
        }
        self.percentile_ns(1.0).map(|v| (1.0, v))
    }
}

/// Median of a small set of floats (set-up repeats, recovery repeats).
pub fn median(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: impl IntoIterator<Item = u64>) -> Samples {
        let mut s = Samples::default();
        for v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn percentiles_are_exact_on_known_vectors() {
        // 1..=100 shuffled by a fixed stride: p50 = 50, p99 = 99, p100 = 100.
        let mut s = samples((0..100u64).map(|i| (i * 37) % 100 + 1));
        assert_eq!(s.percentile_ns(0.50), Some(50));
        assert_eq!(s.percentile_ns(0.90), Some(90));
        assert_eq!(s.percentile_ns(0.99), Some(99));
        assert_eq!(s.percentile_ns(1.0), Some(100));
        let mut one = samples([7]);
        assert_eq!(one.percentile_ns(0.5), Some(7));
        assert_eq!(one.percentile_ns(0.99), Some(7));
        assert_eq!(Samples::default().percentile_ns(0.5), None);
    }

    #[test]
    fn a_tail_percentile_needs_ten_samples_beyond_it() {
        // 1000 samples: 10 beyond p99, 50 beyond p95.
        let mut s = samples(1..=1000);
        assert_eq!(s.beyond(0.99), 10);
        assert_eq!(s.beyond(0.95), 50);
        assert_eq!(s.tail_ns(), Some((0.95, 950)));
        // 200 samples: exactly 10 beyond p95, so p95 is allowed.
        let mut s = samples(1..=200);
        assert_eq!(s.tail_ns(), Some((0.95, 190)));
        // 199 samples: only 9 beyond p95, the ladder falls back to p90.
        let mut s = samples(1..=199);
        assert_eq!(s.beyond(0.95), 9);
        assert_eq!(s.tail_ns(), Some((0.90, 180)));
        // 12 samples: nothing on the ladder qualifies; the max is flagged.
        let mut s = samples(1..=12);
        assert_eq!(s.tail_ns(), Some((1.0, 12)));
    }

    #[test]
    fn unsorted_pushes_and_median() {
        let mut a = samples([3, 1, 2]);
        assert_eq!(a.len(), 3);
        assert_eq!(a.percentile_ns(0.5), Some(2));
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
