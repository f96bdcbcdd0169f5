//! The harness's own arithmetic: order statistics, the percentile picker,
//! seeded Poisson arrivals and the load calibration.

use rand::rngs::StdRng;
use rand::Rng;

/// Sorted copy of `xs`.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quantile `q` in `[0, 1]` of an ascending slice, linearly interpolated
/// between the two nearest ranks.
///
/// # Panics
/// Panics on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile_sorted(&sorted(xs), 0.5)
}

/// Arithmetic mean (0 for no samples).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// A wall-clock sample set reduced the way every wall metric is reported:
/// median, quartiles and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Summary {
        let s = sorted(xs);
        Summary {
            median: quantile_sorted(&s, 0.5),
            q1: quantile_sorted(&s, 0.25),
            q3: quantile_sorted(&s, 0.75),
            n: s.len(),
        }
    }
}

/// The candidate tail percentiles in per mille, highest first.
const TAILS: [usize; 5] = [999, 990, 950, 900, 750];

/// The highest tail percentile that still has at least ten samples beyond
/// it (choosing-metrics §1), or the median when even p75 has fewer.
pub fn tail_percentile(n: usize) -> f64 {
    TAILS
        .into_iter()
        .find(|per_mille| n * (1000 - per_mille) / 1000 >= 10)
        .map_or(0.5, |per_mille| per_mille as f64 / 1000.0)
}

/// Poisson arrival offsets in microseconds: `n` arrivals, exponential gaps
/// of mean `mean_gap_us`, the first at zero.
pub fn poisson_arrivals_us(n: usize, mean_gap_us: f64, rng: &mut StdRng) -> Vec<u64> {
    let mut t = 0.0f64;
    (0..n)
        .map(|i| {
            if i > 0 {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                t -= mean_gap_us * u.ln();
            }
            t as u64
        })
        .collect()
}

/// Mean inter-arrival gap (µs) that offers load `rho` to a server whose
/// saturated throughput is `closed_batch_qps`: `1 / (rho × throughput)`.
///
/// # Panics
/// Panics unless both arguments are positive.
pub fn mean_gap_us(rho: f64, closed_batch_qps: f64) -> f64 {
    assert!(
        rho > 0.0 && closed_batch_qps > 0.0,
        "load needs rho > 0 and a positive throughput"
    );
    1e6 / (rho * closed_batch_qps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = sorted(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&s, 1.0), 4.0);
        assert_eq!(quantile_sorted(&s, 0.5), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        let sm = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((sm.q1, sm.median, sm.q3, sm.n), (2.0, 3.0, 4.0, 5));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), 0.999);
        assert_eq!(tail_percentile(9_999), 0.99);
        assert_eq!(tail_percentile(1_000), 0.99);
        assert_eq!(tail_percentile(999), 0.95);
        assert_eq!(tail_percentile(200), 0.95);
        assert_eq!(tail_percentile(199), 0.90);
        assert_eq!(tail_percentile(100), 0.90);
        assert_eq!(tail_percentile(99), 0.75);
        assert_eq!(tail_percentile(40), 0.75);
        assert_eq!(tail_percentile(39), 0.5);
    }

    #[test]
    fn poisson_arrivals_repeat_and_have_the_stated_mean() {
        let a = poisson_arrivals_us(20_000, 250.0, &mut StdRng::seed_from_u64(9));
        let b = poisson_arrivals_us(20_000, 250.0, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
        assert_ne!(
            a,
            poisson_arrivals_us(20_000, 250.0, &mut StdRng::seed_from_u64(10))
        );
        assert_eq!(a[0], 0);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let mean_gap = *a.last().unwrap() as f64 / (a.len() - 1) as f64;
        assert!(
            (mean_gap - 250.0).abs() < 250.0 * 0.03,
            "mean gap {mean_gap}"
        );
    }

    #[test]
    fn load_calibration_scales_the_gap() {
        // 200 q/s saturated, offered 70 % of that: one arrival per 1/140 s.
        assert!((mean_gap_us(0.7, 200.0) - 1e6 / 140.0).abs() < 1e-9);
        assert!((mean_gap_us(1.0, 1000.0) - 1000.0).abs() < 1e-9);
    }
}
