//! Fixed-bucket histograms: log₂ buckets, O(1) record, no allocation after
//! construction. Bucket `0` holds the value `0`; bucket `i ≥ 1` holds values
//! in `[2^(i-1), 2^i)`. Percentiles are estimated as the upper bound of the
//! bucket containing the requested rank (clamped to the observed max), which
//! is exact to within one power of two — plenty for latency attribution.

/// Number of buckets: value 0 plus one bucket per bit of a `u64`.
pub const BUCKETS: usize = 65;

/// A fixed log₂-bucket histogram of `u64` values (typically microseconds).
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// Summary statistics of one histogram (what the metrics snapshot exports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistSummary {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub p50: u64,
    pub p90: u64,
    pub p95: u64,
    pub p99: u64,
}

fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Estimated `q`-quantile (`q` in `[0, 1]`): the upper bound of the
    /// bucket holding the rank, clamped to the observed max. Zero when empty.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Bucket 64 holds values in [2^63, u64::MAX]; its upper bound
                // must not be computed as `1 << 64` (shift overflow).
                let upper = if i == 0 {
                    0
                } else if i >= 64 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                };
                return upper.min(self.max).max(self.min.min(self.max));
            }
        }
        self.max
    }

    /// Median estimate (`Histogram::quantile` at 0.50).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate (`Histogram::quantile` at 0.95).
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate (`Histogram::quantile` at 0.99).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Summary statistics for export.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn empty_summary_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.summary(), HistSummary::default());
    }

    #[test]
    fn summary_tracks_exact_min_max_count_sum() {
        let mut h = Histogram::new();
        for v in [500u64, 40, 7, 40] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 587);
        assert_eq!(s.min, 7);
        assert_eq!(s.max, 500);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let mut h = Histogram::new();
        // 100 values of 10 (bucket [8,16) → upper bound 15), one of 1000.
        for _ in 0..100 {
            h.record(10);
        }
        h.record(1000);
        assert_eq!(h.quantile(0.5), 15);
        assert_eq!(h.quantile(0.90), 15);
        // p100 lands in the 1000 bucket, clamped to the observed max.
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn single_value_quantiles_clamp_to_it() {
        let mut h = Histogram::new();
        h.record(777);
        let s = h.summary();
        assert_eq!(s.p50, 777);
        assert_eq!(s.p99, 777);
    }

    #[test]
    fn zero_values_count() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.summary().max, 0);
    }

    #[test]
    fn empty_histogram_quantiles_and_accessors_are_zero() {
        let h = Histogram::new();
        assert_eq!((h.p50(), h.p95(), h.p99()), (0, 0, 0));
        assert_eq!(h.quantile(1.0), 0);
        let s = h.summary();
        assert_eq!((s.count, s.sum), (0, 0));
        assert_eq!((s.min, s.max, s.p50, s.p95, s.p99), (0, 0, 0, 0, 0));
    }

    #[test]
    fn single_bucket_quantiles_collapse_to_observed_range() {
        // All values land in bucket [8, 16); every quantile is the bucket's
        // upper bound clamped to the observed max.
        let mut h = Histogram::new();
        for v in [8u64, 9, 11, 15] {
            h.record(v);
        }
        assert_eq!((h.p50(), h.p95(), h.p99()), (15, 15, 15));
        let mut tight = Histogram::new();
        tight.record(10);
        tight.record(10);
        // Observed max below the bucket bound clamps the estimate.
        assert_eq!((tight.p50(), tight.p95(), tight.p99()), (10, 10, 10));
    }

    #[test]
    fn max_value_saturates_without_overflow() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        // Bucket 64's upper bound cannot be computed as `1 << 64`; the
        // quantile must come back as the observed max, and the sum saturates.
        assert_eq!(h.quantile(0.5), u64::MAX);
        let s = h.summary();
        assert_eq!(s.sum, u64::MAX);
        assert_eq!(
            (s.min, s.max, s.p50, s.p99),
            (u64::MAX, u64::MAX, u64::MAX, u64::MAX)
        );
    }
}
