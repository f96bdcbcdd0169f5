//! Random-data primitives: Zipf skew, clustered (correlated) draws.
//!
//! DSB's improvement over TPC-DS is exactly this: skewed distributions and
//! cross-column correlation ("DSB allows more complex data distribution and
//! has extensive support for skewness and correlations", §5.1). These
//! helpers implement both.

use pythia_sim::rng::Rng;

/// Zipf(θ) sampler over `0..n` using inverse-CDF on precomputed cumulative
/// weights. θ≈0 is uniform; θ≈1 is classic web-like skew.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a sampler over `0..n` with exponent `theta`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub(crate) fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf over empty domain");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for i in 1..=n {
            acc += 1.0 / (i as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Draw a rank in `0..n` (0 = most popular).
    pub(crate) fn sample(&self, rng: &mut Rng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Draw an integer near `center` with standard deviation `sd`, clamped to
/// `[0, n)`, with an `outlier_frac` chance of a uniform draw instead.
///
/// This is the correlation workhorse: e.g. the customer of a sale is drawn
/// near a center that moves with the sale date, so date-range predicates map
/// to (noisy) contiguous customer-page ranges — a *learnable* access pattern,
/// like customers acquired over time in a real warehouse.
pub(crate) fn clustered(rng: &mut Rng, center: f64, sd: f64, n: usize, outlier_frac: f64) -> i64 {
    debug_assert!(n > 0);
    if rng.gen_range(0.0..1.0) < outlier_frac {
        return rng.gen_range(0..n as i64);
    }
    // Box–Muller normal.
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (center + sd * z).round().clamp(0.0, (n - 1) as f64) as i64
}

/// Uniform integer in `[0, n)`.
pub(crate) fn uniform(rng: &mut Rng, n: usize) -> i64 {
    rng.gen_range(0..n as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::seed_from_u64(99)
    }

    #[test]
    fn zipf_is_skewed() {
        let z = Zipf::new(1000, 1.0);
        let mut r = rng();
        let mut counts = vec![0u32; 1000];
        for _ in 0..20_000 {
            counts[z.sample(&mut r)] += 1;
        }
        // Rank 0 much more popular than rank 500.
        assert!(counts[0] > 20 * counts[500].max(1));
        // Head (top 1%) holds a large share.
        let head: u32 = counts[..10].iter().sum();
        assert!(
            head as f64 > 0.25 * 20_000.0 * 0.9,
            "head share too small: {head}"
        );
    }

    #[test]
    fn zipf_theta_zero_is_uniformish() {
        let z = Zipf::new(100, 0.0);
        let mut r = rng();
        let mut counts = vec![0u32; 100];
        for _ in 0..50_000 {
            counts[z.sample(&mut r)] += 1;
        }
        let (mn, mx) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(*mx < 2 * *mn, "min {mn} max {mx}");
    }

    #[test]
    fn zipf_stays_in_range() {
        let z = Zipf::new(5, 1.2);
        let mut r = rng();
        for _ in 0..1000 {
            assert!(z.sample(&mut r) < 5);
        }
    }

    #[test]
    fn clustered_concentrates_near_center() {
        let mut r = rng();
        let mut near = 0;
        for _ in 0..1000 {
            let v = clustered(&mut r, 500.0, 20.0, 1000, 0.0);
            assert!((0..1000).contains(&v));
            if (v - 500).abs() <= 60 {
                near += 1;
            }
        }
        assert!(near > 950, "only {near} within 3 sigma");
    }

    #[test]
    fn clustered_outliers_spread() {
        let mut r = rng();
        let mut far = 0;
        for _ in 0..2000 {
            let v = clustered(&mut r, 500.0, 5.0, 1000, 0.5);
            if (v - 500).abs() > 100 {
                far += 1;
            }
        }
        // ~half the draws are uniform; most of those are far from center.
        assert!(far > 600, "only {far} outliers");
    }

    #[test]
    fn clustered_clamps() {
        let mut r = rng();
        for _ in 0..500 {
            let v = clustered(&mut r, 0.0, 50.0, 100, 0.0);
            assert!((0..100).contains(&v));
        }
    }
}
