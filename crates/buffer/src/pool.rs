//! The buffer pool: frames, page table, pinning, eviction.

use pythia_obs::{tid, Recorder, Track};
use pythia_sim::{PageId, PageMap, SimTime};

use crate::frame::{Frame, FrameId};
use crate::policy::{PolicyKind, ReplacementPolicy};
use crate::stats::BufferStats;

/// A fixed-capacity pool of buffer frames with a pluggable replacement
/// policy.
///
/// Mirrors Postgres shared buffers: a page table maps [`PageId`] → frame,
/// pinned frames are immune to eviction, and every reference bumps the
/// frame's usage count (consumed by the Clock policy).
#[derive(Debug)]
pub struct BufferPool {
    frames: Vec<Frame>,
    page_table: PageMap<PageId, FrameId>,
    free: Vec<FrameId>,
    policy: Box<dyn ReplacementPolicy>,
    stats: BufferStats,
    /// Trace/metrics sink. Lives here because every layer that stamps
    /// virtual-time events (the replay runtime, the AIO prefetcher, the
    /// serving loop) already holds a `&mut` path to the pool; disabled by
    /// default so the hot read path pays a single branch.
    recorder: Recorder,
}

impl BufferPool {
    /// A pool with `capacity` frames using `policy`.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize, policy: PolicyKind) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        BufferPool {
            frames: vec![Frame::empty(); capacity],
            page_table: PageMap::with_capacity_and_hasher(capacity, Default::default()),
            free: (0..capacity as u32).rev().map(FrameId).collect(),
            policy: policy.build(capacity),
            stats: BufferStats::default(),
            recorder: Recorder::disabled(),
        }
    }

    /// Install a trace/metrics recorder (replacing the previous one).
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// The recorder (disabled by default).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Mutable access for layers that stamp events through the pool.
    pub fn recorder_mut(&mut self) -> &mut Recorder {
        &mut self.recorder
    }

    /// Remove and return the recorder, leaving a disabled one behind.
    pub fn take_recorder(&mut self) -> Recorder {
        std::mem::take(&mut self.recorder)
    }

    /// Number of frames.
    pub fn capacity(&self) -> usize {
        self.frames.len()
    }

    /// Number of frames currently holding a page.
    pub fn resident_count(&self) -> usize {
        self.page_table.len()
    }

    /// Which replacement policy this pool uses.
    pub fn policy_kind(&self) -> PolicyKind {
        self.policy.kind()
    }

    /// Frame holding `pid`, if resident.
    pub fn lookup(&self, pid: PageId) -> Option<FrameId> {
        self.page_table.get(&pid).copied()
    }

    /// Immutable view of a frame.
    pub fn frame(&self, fid: FrameId) -> &Frame {
        &self.frames[fid.0 as usize]
    }

    /// Record a reference to a resident page: bumps usage, notifies the
    /// policy, and marks prefetched frames as useful on first reference.
    pub fn touch(&mut self, fid: FrameId) {
        let f = &mut self.frames[fid.0 as usize];
        f.usage_count = (f.usage_count + 1).min(Frame::MAX_USAGE);
        if f.prefetched && !f.settled {
            f.settled = true;
            self.stats.prefetch_useful += 1;
            self.recorder.add("prefetch.useful", 1);
        }
        f.referenced = true;
        self.policy.on_access(fid);
    }

    /// Pin a frame (prevents eviction). Pins nest.
    pub fn pin(&mut self, fid: FrameId) {
        self.frames[fid.0 as usize].pin_count += 1;
    }

    /// Release one pin.
    ///
    /// # Panics
    /// Panics if the frame is not pinned — an unbalanced unpin is a bug.
    pub fn unpin(&mut self, fid: FrameId) {
        let f = &mut self.frames[fid.0 as usize];
        assert!(f.pin_count > 0, "unpin of unpinned frame {fid:?}");
        f.pin_count -= 1;
    }

    /// Bring `pid` into the pool, evicting if necessary.
    ///
    /// `prefetched` marks the load as prefetcher-initiated (for accounting);
    /// `available_at` is when the page's I/O completes (readers before that
    /// instant must wait). Returns `None` when every frame is pinned, in
    /// which case the caller serves the read pass-through.
    pub fn load(
        &mut self,
        pid: PageId,
        prefetched: bool,
        available_at: SimTime,
    ) -> Option<FrameId> {
        self.load_with(pid, prefetched, available_at, false)
    }

    /// [`Self::load`] with a `transient` flag: transient loads model bulk
    /// sequential reads through a buffer ring (Postgres `BAS_BULKREAD`) —
    /// the page is resident but first in line for eviction, so a large
    /// sequential scan does not wash the working set (or prefetched pages)
    /// out of the pool.
    pub fn load_with(
        &mut self,
        pid: PageId,
        prefetched: bool,
        available_at: SimTime,
        transient: bool,
    ) -> Option<FrameId> {
        debug_assert!(
            self.lookup(pid).is_none(),
            "load of already-resident page {pid}"
        );
        let fid = match self.free.pop() {
            Some(fid) => fid,
            None => {
                let victim = self.policy.pick_victim(&self.frames)?;
                self.evict(victim, available_at);
                victim
            }
        };
        let f = &mut self.frames[fid.0 as usize];
        f.page = Some(pid);
        f.pin_count = 0;
        f.usage_count = if transient { 0 } else { 1 };
        f.available_at = available_at;
        f.prefetched = prefetched;
        f.referenced = false;
        f.settled = false;
        self.page_table.insert(pid, fid);
        if transient {
            self.policy.on_load_transient(fid);
        } else {
            self.policy.on_load(fid);
        }
        Some(fid)
    }

    fn evict(&mut self, fid: FrameId, at: SimTime) {
        let f = &mut self.frames[fid.0 as usize];
        debug_assert_eq!(f.pin_count, 0, "evicting pinned frame");
        if let Some(pid) = f.page.take() {
            self.page_table.remove(&pid);
            self.stats.evictions += 1;
            self.recorder.add("buffer.evictions", 1);
            if f.prefetched && !f.settled {
                self.stats.prefetch_wasted += 1;
                if self.recorder.is_enabled() {
                    self.recorder.add("prefetch.evicted_unused", 1);
                    self.recorder
                        .declare_track(Track::virt(tid::BUFFER), || "buffer-manager".to_owned());
                    self.recorder.instant(
                        Track::virt(tid::BUFFER),
                        "prefetch",
                        "prefetch.evicted_unused",
                        at.as_micros(),
                        &[("page", pid.trace_key())],
                    );
                }
            }
        }
        f.usage_count = 0;
        f.prefetched = false;
        f.referenced = false;
        f.settled = false;
    }

    /// Update a resident frame's I/O completion instant. The AIO prefetcher
    /// reserves a frame first — so a pin-saturated pool causes no OS-cache or
    /// I/O-worker side effects — and only then schedules the I/O that
    /// determines the real arrival time.
    pub fn set_available_at(&mut self, fid: FrameId, at: SimTime) {
        self.frames[fid.0 as usize].available_at = at;
    }

    /// Account still-resident never-referenced prefetched pages as wasted.
    /// Call at the end of a run before reading [`Self::stats`]. A frame
    /// written off here is settled: a later close, its eviction or a late
    /// first reference counts it no second time, so
    /// `prefetch_useful + prefetch_wasted <= prefetch_issued` holds on a warm
    /// pool closed any number of times.
    pub fn finish_accounting(&mut self) {
        for f in &mut self.frames {
            if f.page.is_some() && f.prefetched && !f.settled {
                f.settled = true;
                self.stats.prefetch_wasted += 1;
            }
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &BufferStats {
        &self.stats
    }

    /// Mutable counters (the replay engine updates hit/miss classes here).
    pub fn stats_mut(&mut self) -> &mut BufferStats {
        &mut self.stats
    }

    /// Drop every page and all statistics — a cold restart.
    pub fn reset(&mut self) {
        for f in &mut self.frames {
            *f = Frame::empty();
        }
        self.page_table.clear();
        self.free = (0..self.frames.len() as u32).rev().map(FrameId).collect();
        self.policy.reset();
        self.stats = BufferStats::default();
    }

    /// Iterate over resident pages (diagnostics, tests).
    pub fn resident_pages(&self) -> impl Iterator<Item = PageId> + '_ {
        self.page_table.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_sim::FileId;

    fn pid(p: u32) -> PageId {
        PageId::new(FileId(0), p)
    }

    fn pool(cap: usize) -> BufferPool {
        BufferPool::new(cap, PolicyKind::Lru)
    }

    #[test]
    fn load_and_lookup() {
        let mut b = pool(4);
        let f = b.load(pid(7), false, SimTime::ZERO).unwrap();
        assert_eq!(b.lookup(pid(7)), Some(f));
        assert_eq!(b.resident_count(), 1);
    }

    #[test]
    fn eviction_when_full() {
        let mut b = pool(2);
        b.load(pid(1), false, SimTime::ZERO).unwrap();
        let f2 = b.load(pid(2), false, SimTime::ZERO).unwrap();
        b.touch(f2);
        b.load(pid(3), false, SimTime::ZERO).unwrap();
        // LRU: page 1 was least recently used.
        assert!(b.lookup(pid(1)).is_none());
        assert!(b.lookup(pid(2)).is_some());
        assert!(b.lookup(pid(3)).is_some());
        assert_eq!(b.stats().evictions, 1);
    }

    #[test]
    fn pinned_pages_survive() {
        let mut b = pool(2);
        let f1 = b.load(pid(1), false, SimTime::ZERO).unwrap();
        b.pin(f1);
        b.load(pid(2), false, SimTime::ZERO).unwrap();
        b.load(pid(3), false, SimTime::ZERO).unwrap(); // must evict page 2
        assert!(b.lookup(pid(1)).is_some());
        assert!(b.lookup(pid(2)).is_none());
    }

    #[test]
    fn all_pinned_returns_none() {
        let mut b = pool(2);
        for p in 1..=2 {
            let f = b.load(pid(p), false, SimTime::ZERO).unwrap();
            b.pin(f);
        }
        assert!(b.load(pid(3), false, SimTime::ZERO).is_none());
    }

    #[test]
    #[should_panic]
    fn unbalanced_unpin_panics() {
        let mut b = pool(1);
        let f = b.load(pid(1), false, SimTime::ZERO).unwrap();
        b.unpin(f);
    }

    #[test]
    fn prefetch_accounting_useful() {
        let mut b = pool(2);
        let f = b.load(pid(1), true, SimTime::ZERO).unwrap();
        b.touch(f);
        b.touch(f); // only first reference counts
        assert_eq!(b.stats().prefetch_useful, 1);
    }

    #[test]
    fn prefetch_accounting_wasted_on_evict() {
        let mut b = pool(1);
        b.load(pid(1), true, SimTime::ZERO).unwrap();
        b.load(pid(2), false, SimTime::ZERO).unwrap(); // evicts unreferenced prefetch
        assert_eq!(b.stats().prefetch_wasted, 1);
    }

    #[test]
    fn prefetch_accounting_wasted_at_finish() {
        let mut b = pool(4);
        b.load(pid(1), true, SimTime::ZERO).unwrap();
        let f2 = b.load(pid(2), true, SimTime::ZERO).unwrap();
        b.touch(f2);
        b.finish_accounting();
        assert_eq!(b.stats().prefetch_wasted, 1);
        assert_eq!(b.stats().prefetch_useful, 1);
    }

    #[test]
    fn a_prefetched_load_is_settled_once_over_its_residency() {
        let mut b = pool(2);
        let f1 = b.load(pid(1), true, SimTime::ZERO).unwrap();
        b.load(pid(2), true, SimTime::ZERO).unwrap();
        b.finish_accounting();
        b.finish_accounting();
        assert_eq!(b.stats().prefetch_wasted, 2, "a second close adds nothing");
        // Written off, then read after all: still one count, and the frame
        // is referenced as far as the replacement policy can tell.
        b.touch(f1);
        assert!(b.frame(f1).referenced);
        assert_eq!(b.stats().prefetch_useful, 0);
        // Written off, then evicted: not wasted twice.
        b.load(pid(3), false, SimTime::ZERO).unwrap();
        assert!(b.lookup(pid(2)).is_none());
        assert_eq!(b.stats().prefetch_wasted, 2);
        // A fresh load into the same frame is a new residency.
        let f4 = b.load(pid(4), true, SimTime::ZERO).unwrap();
        b.touch(f4);
        assert_eq!(b.stats().prefetch_useful, 1);
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut b = pool(2);
        b.load(pid(1), false, SimTime::ZERO).unwrap();
        b.reset();
        assert_eq!(b.resident_count(), 0);
        assert_eq!(b.stats(), &BufferStats::default());
        // All frames usable again.
        assert!(b.load(pid(5), false, SimTime::ZERO).is_some());
        assert!(b.load(pid(6), false, SimTime::ZERO).is_some());
    }

    #[test]
    fn clock_policy_end_to_end() {
        let mut b = BufferPool::new(3, PolicyKind::Clock);
        for p in 0..3 {
            b.load(pid(p), false, SimTime::ZERO).unwrap();
        }
        // Heavily reference page 0 and 1 so clock evicts page 2.
        for _ in 0..5 {
            let f0 = b.lookup(pid(0)).unwrap();
            b.touch(f0);
            let f1 = b.lookup(pid(1)).unwrap();
            b.touch(f1);
        }
        b.load(pid(9), false, SimTime::ZERO).unwrap();
        assert!(
            b.lookup(pid(2)).is_none(),
            "unreferenced page evicted first"
        );
    }
}
