//! Experiment-suite configuration.

use pythia_core::{Grouping, PythiaConfig};
use pythia_db::runtime::RunConfig;

/// Everything an experiment needs to know about sizes and seeds.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Database scale factor (1.0 = the "SF100 analog").
    pub scale: f64,
    /// Query instances per workload (paper: 1000).
    pub n_queries: usize,
    /// Fraction of queries held out as unseen test queries (paper: 5%).
    pub test_frac: f64,
    /// Pythia model hyperparameters.
    pub pythia: PythiaConfig,
    /// Replay-stack configuration (buffer pool, cost model, AIO window).
    pub run: RunConfig,
    /// Master seed.
    pub seed: u64,
    /// Whether this is the quick configuration.
    pub quick: bool,
}

/// The experiments reproduce the paper's figures, so they train the paper's
/// design — a model per object — whatever the serving default is; every
/// committed `results/*.csv` was measured this way. Figure 12d prices the
/// alternatives.
const PAPER_GROUPING: Grouping = Grouping::PerObject;

impl ExpConfig {
    /// The quick configuration: minutes on a laptop, paper-shaped results.
    pub fn quick() -> Self {
        ExpConfig {
            scale: 0.3,
            n_queries: 200,
            test_frac: 0.08,
            pythia: PythiaConfig {
                epochs: 40,
                batch_size: 32,
                lr: 3e-3,
                pos_weight: 2.0,
                grouping: PAPER_GROUPING,
                ..PythiaConfig::fast()
            },
            run: RunConfig::default(),
            seed: 0xEDB7,
            quick: true,
        }
    }

    /// The full configuration: paper model dimensions and 1000 queries per
    /// workload. Hours of CPU time.
    pub fn full() -> Self {
        ExpConfig {
            scale: 1.0,
            n_queries: 1000,
            test_frac: 0.05,
            pythia: PythiaConfig {
                epochs: 20,
                pos_weight: 2.0,
                grouping: PAPER_GROUPING,
                ..PythiaConfig::default()
            },
            run: RunConfig::default(),
            seed: 0xEDB7,
            quick: false,
        }
    }

    /// `PYTHIA_FULL=1` selects [`Self::full`], anything else [`Self::quick`].
    pub fn from_env() -> Self {
        match std::env::var("PYTHIA_FULL") {
            Ok(v) if v == "1" || v.eq_ignore_ascii_case("true") => ExpConfig::full(),
            _ => ExpConfig::quick(),
        }
    }

    /// Number of held-out test queries.
    pub fn n_test(&self) -> usize {
        ((self.n_queries as f64 * self.test_frac).round() as usize).clamp(4, self.n_queries / 2)
    }

    /// Size the replay stack relative to the database: buffer pool ≈ 8% of
    /// total pages (the paper's 1 GiB on 100 GB with some headroom for the
    /// scaled-down page counts), OS cache ≈ 35%.
    pub fn sized_run(&self, total_pages: u64) -> RunConfig {
        let pool = ((total_pages as f64 * 0.12) as usize).max(256);
        RunConfig {
            pool_frames: pool,
            os_cache_pages: ((total_pages as f64 * 0.35) as usize).max(1024),
            readahead_window: self.run.readahead_window.min(pool / 2).max(16),
            ..self.run.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_and_full_are_valid() {
        let q = ExpConfig::quick();
        let f = ExpConfig::full();
        q.pythia.validate().unwrap();
        f.pythia.validate().unwrap();
        assert!(q.n_queries < f.n_queries);
        assert!(q.n_test() >= 4);
        assert_eq!(f.n_test(), 50);
    }

    #[test]
    fn sized_run_scales_with_db() {
        let c = ExpConfig::quick();
        let small = c.sized_run(4_000);
        let big = c.sized_run(40_000);
        assert!(big.pool_frames > small.pool_frames);
        assert!(small.readahead_window <= small.pool_frames);
    }
}
