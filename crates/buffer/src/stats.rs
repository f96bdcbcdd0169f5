//! Buffer-manager accounting used by the experiment harness.

/// Counters for one run of a query (or a batch of concurrent queries).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Reads served from the buffer pool (including prefetched pages that had
    /// already arrived).
    pub hits: u64,
    /// Reads that missed the pool but hit the OS page cache (memory copy).
    pub os_copies: u64,
    /// Reads that went all the way to disk.
    pub disk_reads: u64,
    /// Reads that had to wait for a prefetch's in-flight I/O (the frame was
    /// loaded by a prefetcher; waits on another query's in-flight demand read
    /// are not counted here).
    pub prefetch_waits: u64,
    /// Pages the prefetcher issued I/O for.
    pub prefetch_issued: u64,
    /// Pages the prefetcher skipped because they were already resident.
    pub prefetch_already_resident: u64,
    /// Prefetched pages later referenced by a query (useful prefetches).
    pub prefetch_useful: u64,
    /// Prefetched pages evicted without ever being referenced.
    pub prefetch_wasted: u64,
    /// Evictions performed to make room.
    pub evictions: u64,
    /// Subset of the misses above that could not be cached afterwards
    /// because every frame was pinned (served pass-through).
    pub pass_through: u64,
}

impl BufferStats {
    /// Total page reads observed. (`pass_through` is a sub-classification of
    /// `os_copies`/`disk_reads`, not a separate class.)
    pub fn total_reads(&self) -> u64 {
        self.hits + self.os_copies + self.disk_reads
    }

    /// Pool hit rate in [0, 1]; zero when no reads happened.
    pub fn hit_rate(&self) -> f64 {
        let t = self.total_reads();
        if t == 0 {
            0.0
        } else {
            self.hits as f64 / t as f64
        }
    }

    /// Fraction of issued prefetches that were referenced; zero when none
    /// were issued.
    pub fn prefetch_precision(&self) -> f64 {
        if self.prefetch_issued == 0 {
            0.0
        } else {
            self.prefetch_useful as f64 / self.prefetch_issued as f64
        }
    }

    /// Fraction of prefetchable demand traffic that was actually served by
    /// a prefetch: `useful / (useful + os_copies + disk_reads)`. The
    /// denominator counts every demand read that *left* the pool (each one a
    /// missed prefetch opportunity) plus the ones a prefetch saved; zero
    /// when there were none.
    pub fn prefetch_recall(&self) -> f64 {
        let den = self.prefetch_useful + self.os_copies + self.disk_reads;
        if den == 0 {
            0.0
        } else {
            self.prefetch_useful as f64 / den as f64
        }
    }

    /// Counters accumulated since an earlier snapshot `before`.
    /// The serving loop uses this to attribute the shared pool's cumulative
    /// counters to individual admission waves.
    ///
    /// Counters are monotone, so every field of `self` must be ≥ the
    /// corresponding field of `before`; passing snapshots in the wrong order
    /// is a caller bug. Debug builds assert on it; release builds saturate
    /// to zero rather than wrapping into garbage statistics.
    pub fn diff(&self, before: &BufferStats) -> BufferStats {
        fn sub(after: u64, before: u64, field: &str) -> u64 {
            debug_assert!(
                after >= before,
                "BufferStats::diff: snapshots in wrong order ({field}: {after} < {before})"
            );
            after.saturating_sub(before)
        }
        BufferStats {
            hits: sub(self.hits, before.hits, "hits"),
            os_copies: sub(self.os_copies, before.os_copies, "os_copies"),
            disk_reads: sub(self.disk_reads, before.disk_reads, "disk_reads"),
            prefetch_waits: sub(self.prefetch_waits, before.prefetch_waits, "prefetch_waits"),
            prefetch_issued: sub(
                self.prefetch_issued,
                before.prefetch_issued,
                "prefetch_issued",
            ),
            prefetch_already_resident: sub(
                self.prefetch_already_resident,
                before.prefetch_already_resident,
                "prefetch_already_resident",
            ),
            prefetch_useful: sub(
                self.prefetch_useful,
                before.prefetch_useful,
                "prefetch_useful",
            ),
            prefetch_wasted: sub(
                self.prefetch_wasted,
                before.prefetch_wasted,
                "prefetch_wasted",
            ),
            evictions: sub(self.evictions, before.evictions, "evictions"),
            pass_through: sub(self.pass_through, before.pass_through, "pass_through"),
        }
    }

    /// Merge counters from another run (for concurrent-query aggregation).
    pub fn merge(&mut self, other: &BufferStats) {
        self.hits += other.hits;
        self.os_copies += other.os_copies;
        self.disk_reads += other.disk_reads;
        self.prefetch_waits += other.prefetch_waits;
        self.prefetch_issued += other.prefetch_issued;
        self.prefetch_already_resident += other.prefetch_already_resident;
        self.prefetch_useful += other.prefetch_useful;
        self.prefetch_wasted += other.prefetch_wasted;
        self.evictions += other.evictions;
        self.pass_through += other.pass_through;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_rates() {
        let s = BufferStats {
            hits: 3,
            os_copies: 1,
            disk_reads: 1,
            pass_through: 1,
            ..Default::default()
        };
        assert_eq!(s.total_reads(), 5, "pass_through is not an extra class");
        assert!((s.hit_rate() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_rates_are_zero() {
        let s = BufferStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.prefetch_precision(), 0.0);
        assert_eq!(s.prefetch_recall(), 0.0);
    }

    #[test]
    fn prefetch_recall_counts_missed_opportunities() {
        let s = BufferStats {
            prefetch_useful: 6,
            os_copies: 3,
            disk_reads: 1,
            hits: 50, // pool hits outside prefetch do not dilute recall
            ..Default::default()
        };
        assert!((s.prefetch_recall() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn prefetch_precision() {
        let s = BufferStats {
            prefetch_issued: 10,
            prefetch_useful: 7,
            ..Default::default()
        };
        assert!((s.prefetch_precision() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn diff_undoes_merge() {
        let before = BufferStats {
            hits: 2,
            disk_reads: 1,
            evictions: 4,
            ..Default::default()
        };
        let wave = BufferStats {
            hits: 3,
            os_copies: 5,
            prefetch_issued: 7,
            ..Default::default()
        };
        let mut after = before;
        after.merge(&wave);
        assert_eq!(after.diff(&before), wave);
        assert_eq!(after.diff(&after), BufferStats::default());
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "wrong order"))]
    fn diff_in_wrong_order_asserts_in_debug() {
        let before = BufferStats {
            hits: 2,
            ..Default::default()
        };
        let after = BufferStats {
            hits: 5,
            ..Default::default()
        };
        // Arguments swapped: `before.diff(&after)` asks for counters
        // accumulated "since" a later snapshot. Debug builds panic; release
        // builds saturate to zero instead of wrapping around.
        let d = before.diff(&after);
        assert_eq!(d.hits, 0, "release builds saturate");
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = BufferStats {
            hits: 1,
            evictions: 2,
            ..Default::default()
        };
        let b = BufferStats {
            hits: 4,
            disk_reads: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.hits, 5);
        assert_eq!(a.disk_reads, 3);
        assert_eq!(a.evictions, 2);
    }
}
