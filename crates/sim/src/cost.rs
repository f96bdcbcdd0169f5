//! The latency cost model.
//!
//! Postgres' read path has three tiers (paper §4): a buffer-pool hit, a copy
//! from the OS page cache, and a real disk read. The absolute values below are
//! not calibrated to the paper's hardware — speedups are *ratios*, so only the
//! relative magnitudes matter. The defaults put a random disk read ~40× an
//! OS-cache memcpy and ~400× a buffer hit (spinning/network storage class,
//! consistent with the paper's ~15-minute I/O-bound queries) and reproduce
//! the paper's observed speedup band (up to ~6× for non-sequential-heavy
//! templates with 8 I/O lanes).

use crate::time::SimDuration;

/// Latency parameters for every simulated operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    /// A random read that misses both the buffer pool and the OS page cache.
    /// Includes the kernel→user copy.
    pub disk_read: SimDuration,
    /// A read that misses the buffer pool but hits the OS page cache
    /// (memory copy only).
    pub os_cache_copy: SimDuration,
    /// A read satisfied from the buffer pool.
    pub buffer_hit: SimDuration,
    /// Per-page cost of sequential bulk I/O performed by OS readahead.
    /// Sequential transfers amortize seek cost, so this is far below
    /// `disk_read`.
    pub readahead_per_page: SimDuration,
    /// CPU time the executor spends per tuple it processes (predicate
    /// evaluation, join bookkeeping). This is the work prefetch I/O overlaps
    /// with.
    pub cpu_per_tuple: SimDuration,
    /// Number of pages the OS readahead fetches ahead once a sequential
    /// pattern is detected.
    pub os_readahead_window: u32,
    /// Number of asynchronous I/O workers available to the prefetcher
    /// (the AIO structure's I/O depth).
    pub io_workers: usize,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            disk_read: SimDuration::from_micros(2_000),
            os_cache_copy: SimDuration::from_micros(50),
            buffer_hit: SimDuration::from_micros(5),
            readahead_per_page: SimDuration::from_micros(20),
            cpu_per_tuple: SimDuration::from_micros(2),
            os_readahead_window: 32,
            io_workers: 8,
        }
    }
}

impl CostModel {
    /// Sanity-check the invariants the simulator relies on. Returns an error
    /// string describing the first violated invariant, if any.
    pub fn validate(&self) -> Result<(), String> {
        if self.buffer_hit > self.os_cache_copy {
            return Err("buffer_hit must be <= os_cache_copy".into());
        }
        if self.os_cache_copy > self.disk_read {
            return Err("os_cache_copy must be <= disk_read".into());
        }
        if self.io_workers == 0 {
            return Err("io_workers must be >= 1".into());
        }
        if self.os_readahead_window == 0 {
            return Err("os_readahead_window must be >= 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        CostModel::default().validate().unwrap();
    }

    #[test]
    fn default_tier_ordering() {
        let c = CostModel::default();
        assert!(c.buffer_hit < c.os_cache_copy);
        assert!(c.os_cache_copy < c.disk_read);
        assert!(c.readahead_per_page < c.disk_read);
    }

    #[test]
    fn validate_rejects_inverted_tiers() {
        let c = CostModel {
            buffer_hit: SimDuration::from_secs(1),
            ..CostModel::default()
        };
        assert!(c.validate().is_err());

        let mut c = CostModel::default();
        c.os_cache_copy = c.disk_read + SimDuration::from_micros(1);
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_zero_workers() {
        let c = CostModel {
            io_workers: 0,
            ..CostModel::default()
        };
        assert!(c.validate().is_err());
    }
}
