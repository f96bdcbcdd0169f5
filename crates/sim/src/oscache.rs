//! A model of the kernel page cache with sequential readahead.
//!
//! Postgres "relies heavily on OS readahead for achieving better performance"
//! (paper §4): when the kernel detects a sequential read pattern on a file it
//! asynchronously pulls the next window of pages into the page cache, so a
//! sequential scan mostly pays memory-copy cost, not disk cost. Non-sequential
//! (index-driven) reads defeat this detection — which is precisely the gap
//! Pythia's learned prefetching fills (Figure 1).
//!
//! The cache is a capacity-bounded LRU set of [`PageId`]s backed by an
//! intrusive doubly-linked list over a slab, giving O(1) access / insert /
//! evict.
//!
//! Sequential-pattern detection is keyed per **(stream, file)**, mirroring
//! the kernel, which keeps its readahead state in `struct file` — per open
//! file descriptor, not per inode. Two concurrent sequential scans of the
//! same file (two backends, or a query and the prefetcher's own reads) each
//! keep their run alive; keying by file alone would let the interleaved
//! accesses destroy both runs.

use crate::disk::{FileId, PageId, PageMap};

/// Identifies one reader of the OS cache — the analogue of an open file
/// descriptor, whose `struct file` owns the kernel's readahead state.
/// Allocate one per query backend / prefetcher and retire it with
/// [`OsPageCache::retire_stream`] when the reader closes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamId(pub u64);

const NIL: usize = usize::MAX;

#[derive(Debug, Clone, Copy)]
struct Node {
    key: PageId,
    prev: usize,
    next: usize,
}

/// An O(1) LRU set with fixed capacity.
#[derive(Debug)]
struct LruSet {
    capacity: usize,
    map: PageMap<PageId, usize>,
    slab: Vec<Node>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
}

impl LruSet {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU capacity must be positive");
        LruSet {
            capacity,
            map: PageMap::with_capacity_and_hasher(capacity.min(1 << 20), Default::default()),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn contains(&self, key: PageId) -> bool {
        self.map.contains_key(&key)
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Mark `key` as most-recently-used, inserting it if absent.
    /// Returns the page evicted to make room, if any.
    fn touch(&mut self, key: PageId) -> Option<PageId> {
        if let Some(&idx) = self.map.get(&key) {
            self.unlink(idx);
            self.push_front(idx);
            return None;
        }
        let evicted = if self.map.len() >= self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            let vkey = self.slab[victim].key;
            self.unlink(victim);
            self.map.remove(&vkey);
            self.free.push(victim);
            Some(vkey)
        } else {
            None
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i] = Node {
                    key,
                    prev: NIL,
                    next: NIL,
                };
                i
            }
            None => {
                self.slab.push(Node {
                    key,
                    prev: NIL,
                    next: NIL,
                });
                self.slab.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        evicted
    }

    fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

/// Counters describing OS-cache behaviour during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OsCacheStats {
    /// Reads that found the page already cached.
    pub hits: u64,
    /// Reads that had to go to disk.
    pub misses: u64,
    /// Pages pulled in by sequential readahead.
    pub readahead_pages: u64,
}

/// The simulated OS page cache.
#[derive(Debug)]
pub struct OsPageCache {
    lru: LruSet,
    /// Per-(stream, file) sequential-pattern detector:
    /// (last page read, run length).
    seq_state: PageMap<(StreamId, FileId), (u32, u32)>,
    readahead_window: u32,
    stats: OsCacheStats,
}

/// Outcome of a read through the OS cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OsReadOutcome {
    /// Whether the page was already in the OS cache (memory copy only).
    pub cache_hit: bool,
    /// How many pages sequential readahead pulled in alongside this read.
    pub readahead_pages: u32,
}

impl OsPageCache {
    /// A cache holding at most `capacity_pages` pages with the given
    /// readahead window (pages fetched ahead once a sequential run is seen).
    pub fn new(capacity_pages: usize, readahead_window: u32) -> Self {
        OsPageCache {
            lru: LruSet::new(capacity_pages),
            seq_state: PageMap::default(),
            readahead_window,
            stats: OsCacheStats::default(),
        }
    }

    /// Whether `pid` is currently cached.
    pub fn contains(&self, pid: PageId) -> bool {
        self.lru.contains(pid)
    }

    /// Number of cached pages.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.lru.len() == 0
    }

    /// Counters accumulated since construction or the last [`Self::reset`].
    pub fn stats(&self) -> OsCacheStats {
        self.stats
    }

    /// Record a read of `pid` by `stream` from a file with `file_len` pages.
    ///
    /// Updates LRU state, runs the sequential-pattern detector for the given
    /// stream, and performs readahead. The caller translates the outcome into
    /// latency via the cost model.
    pub fn read(&mut self, stream: StreamId, pid: PageId, file_len: u32) -> OsReadOutcome {
        let cache_hit = self.lru.contains(pid);
        if cache_hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        self.lru.touch(pid);

        // Sequential detection: a run of >= 2 consecutive pages triggers
        // readahead of the next window, like the kernel's ondemand readahead.
        let run = match self.seq_state.get(&(stream, pid.file)) {
            Some(&(last, run)) if pid.page_no == last.wrapping_add(1) => run + 1,
            _ => 1,
        };
        self.seq_state
            .insert((stream, pid.file), (pid.page_no, run));

        // Fan-out is capped at capacity - 1 so readahead can never evict the
        // demand page just read (or wrap around and evict its own earlier
        // insertions) when the window rivals the LRU capacity.
        let fanout = self
            .readahead_window
            .min(self.lru.capacity.saturating_sub(1) as u32);
        let mut readahead_pages = 0u32;
        if run >= 2 && file_len > 0 && fanout > 0 {
            let start = pid.page_no.saturating_add(1);
            let end = pid.page_no.saturating_add(fanout).min(file_len - 1);
            let mut p = start;
            while p <= end {
                let ra = PageId::new(pid.file, p);
                if !self.lru.contains(ra) {
                    self.lru.touch(ra);
                    readahead_pages += 1;
                }
                p += 1;
            }
        }
        self.stats.readahead_pages += readahead_pages as u64;
        OsReadOutcome {
            cache_hit,
            readahead_pages,
        }
    }

    /// Drop the sequential-pattern state a stream accumulated — the analogue
    /// of closing the file descriptor. Cached pages are unaffected. Call this
    /// when a query backend or prefetcher finishes so detector state doesn't
    /// accumulate across the lifetime of a long-running serving stack.
    pub fn retire_stream(&mut self, stream: StreamId) {
        self.seq_state.retain(|&(s, _), _| s != stream);
    }

    /// Insert `pid` without readahead (used when the prefetcher's disk read
    /// completes: the page is now also in the OS cache).
    pub fn insert(&mut self, pid: PageId) {
        self.lru.touch(pid);
    }

    /// Drop all cached pages and detector state — the simulator's analogue of
    /// `echo 3 > /proc/sys/vm/drop_caches`, used between cold-cache runs.
    pub fn reset(&mut self) {
        self.lru.clear();
        self.seq_state.clear();
        self.stats = OsCacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::FileId;

    /// Default stream for single-reader tests.
    const S: StreamId = StreamId(0);

    fn pid(f: u32, p: u32) -> PageId {
        PageId::new(FileId(f), p)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = OsPageCache::new(16, 4);
        assert!(!c.read(S, pid(0, 5), 100).cache_hit);
        assert!(c.read(S, pid(0, 5), 100).cache_hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn sequential_run_triggers_readahead() {
        let mut c = OsPageCache::new(64, 4);
        let o0 = c.read(S, pid(0, 0), 100);
        assert_eq!(o0.readahead_pages, 0, "first read: no pattern yet");
        let o1 = c.read(S, pid(0, 1), 100);
        assert_eq!(o1.readahead_pages, 4, "second consecutive read fans out");
        // Pages 2..=5 should now be cached, page 6 not yet.
        assert!(c.contains(pid(0, 2)));
        assert!(c.contains(pid(0, 5)));
        assert!(!c.contains(pid(0, 6)));
        // Continuing the run hits the readahead pages and extends the window.
        assert!(c.read(S, pid(0, 2), 100).cache_hit);
        assert!(c.contains(pid(0, 6)));
    }

    #[test]
    fn random_reads_do_not_trigger_readahead() {
        let mut c = OsPageCache::new(64, 8);
        assert_eq!(c.read(S, pid(0, 10), 100).readahead_pages, 0);
        assert_eq!(c.read(S, pid(0, 50), 100).readahead_pages, 0);
        assert_eq!(c.read(S, pid(0, 3), 100).readahead_pages, 0);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn readahead_stops_at_eof() {
        let mut c = OsPageCache::new(64, 8);
        c.read(S, pid(0, 3), 6);
        let o = c.read(S, pid(0, 4), 6);
        assert_eq!(o.readahead_pages, 1, "only page 5 exists past page 4");
        assert!(c.contains(pid(0, 5)));
    }

    #[test]
    fn runs_are_per_file() {
        let mut c = OsPageCache::new(64, 4);
        c.read(S, pid(0, 0), 100);
        c.read(S, pid(1, 1), 100);
        // File 0's run was broken by nothing, but page 1 of file 0 continues it.
        let o = c.read(S, pid(0, 1), 100);
        assert_eq!(o.readahead_pages, 4);
    }

    #[test]
    fn interleaved_streams_keep_their_runs() {
        // Regression: two concurrent sequential scans of the SAME file — the
        // kernel keeps readahead state per open fd, so each scan detects its
        // own run. The old per-file detector saw 0, 50, 1, 51, ... and never
        // fired for either scan.
        let mut c = OsPageCache::new(256, 4);
        let (a, b) = (StreamId(1), StreamId(2));
        c.read(a, pid(0, 0), 200);
        c.read(b, pid(0, 50), 200);
        let oa = c.read(a, pid(0, 1), 200);
        assert_eq!(
            oa.readahead_pages, 4,
            "stream A's run survives B's interleaved read"
        );
        let ob = c.read(b, pid(0, 51), 200);
        assert_eq!(
            ob.readahead_pages, 4,
            "stream B's run survives A's interleaved read"
        );
        // Both scans keep extending their windows as they continue.
        assert!(c.read(a, pid(0, 2), 200).cache_hit);
        assert!(c.read(b, pid(0, 52), 200).cache_hit);
    }

    #[test]
    fn one_stream_interleaving_two_offsets_gets_no_readahead() {
        // The fd semantics cut the other way too: a single stream seeking
        // back and forth between two offsets never forms a run.
        let mut c = OsPageCache::new(256, 4);
        c.read(S, pid(0, 0), 200);
        c.read(S, pid(0, 50), 200);
        assert_eq!(c.read(S, pid(0, 1), 200).readahead_pages, 0);
        assert_eq!(c.read(S, pid(0, 51), 200).readahead_pages, 0);
    }

    #[test]
    fn retire_stream_drops_detector_state_only() {
        let mut c = OsPageCache::new(64, 4);
        c.read(S, pid(0, 0), 100);
        c.retire_stream(S);
        // The run restarts from scratch, but cached pages survive.
        assert_eq!(
            c.read(S, pid(0, 1), 100).readahead_pages,
            0,
            "run was forgotten"
        );
        assert!(c.contains(pid(0, 0)), "cached pages are unaffected");
        // A different stream's state is untouched by retiring S.
        let b = StreamId(9);
        c.read(b, pid(1, 0), 100);
        c.retire_stream(S);
        assert_eq!(c.read(b, pid(1, 1), 100).readahead_pages, 4);
    }

    #[test]
    fn readahead_never_evicts_demand_page() {
        // Regression: window >= capacity used to wrap the LRU and evict the
        // demand page that was just read (and earlier readahead insertions).
        let mut c = OsPageCache::new(3, 8);
        c.read(S, pid(0, 0), 100);
        let o = c.read(S, pid(0, 1), 100);
        assert_eq!(o.readahead_pages, 2, "fan-out capped at capacity - 1");
        assert!(
            c.contains(pid(0, 1)),
            "demand page survives its own readahead"
        );
        assert!(c.contains(pid(0, 2)));
        assert!(c.contains(pid(0, 3)));
        assert!(!c.contains(pid(0, 4)), "no insert past the cap");
    }

    #[test]
    fn capacity_one_disables_readahead() {
        let mut c = OsPageCache::new(1, 8);
        c.read(S, pid(0, 0), 100);
        let o = c.read(S, pid(0, 1), 100);
        assert_eq!(o.readahead_pages, 0);
        assert!(c.contains(pid(0, 1)), "demand page is the sole resident");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = OsPageCache::new(2, 4);
        c.read(S, pid(0, 10), 100);
        c.read(S, pid(0, 20), 100);
        c.read(S, pid(0, 30), 100); // evicts page 10
        assert!(!c.contains(pid(0, 10)));
        assert!(c.contains(pid(0, 20)));
        assert!(c.contains(pid(0, 30)));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn touch_refreshes_recency() {
        let mut c = OsPageCache::new(2, 4);
        c.read(S, pid(0, 1), 100);
        c.read(S, pid(0, 7), 100);
        c.read(S, pid(0, 1), 100); // page 1 is now MRU
        c.read(S, pid(0, 9), 100); // evicts page 7, not page 1
        assert!(c.contains(pid(0, 1)));
        assert!(!c.contains(pid(0, 7)));
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = OsPageCache::new(16, 4);
        c.read(S, pid(0, 0), 100);
        c.read(S, pid(0, 1), 100);
        c.reset();
        assert!(c.is_empty());
        assert_eq!(c.stats(), OsCacheStats::default());
        // Pattern detector must also be clear: next read is "first".
        assert_eq!(c.read(S, pid(0, 2), 100).readahead_pages, 0);
    }

    #[test]
    fn insert_is_silent() {
        let mut c = OsPageCache::new(16, 4);
        c.insert(pid(0, 42));
        assert!(c.contains(pid(0, 42)));
        assert_eq!(c.stats().hits + c.stats().misses, 0);
    }

    #[test]
    fn lru_capacity_one() {
        let mut c = OsPageCache::new(1, 4);
        c.read(S, pid(0, 1), 10);
        c.read(S, pid(0, 5), 10);
        assert!(!c.contains(pid(0, 1)));
        assert!(c.contains(pid(0, 5)));
    }
}
