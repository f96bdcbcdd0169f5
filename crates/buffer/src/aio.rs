//! The asynchronous prefetch engine (AIO structure).
//!
//! Models the paper's Postgres integration (§4):
//!
//! * a **producer queue** of pages to prefetch, already arranged in file
//!   storage order (ascending offsets — this cooperates with OS readahead);
//! * a **readahead window**: at most `R` prefetched pages are kept pinned in
//!   the buffer pool at a time (the paper's default is `R = 1024`,
//!   Figure 12g sweeps it);
//! * **dummy requests**: the query never reads *from* the AIO structure; each
//!   ordinary buffer read sends a dummy advance so the engine tracks the
//!   query's read rate, unpins the oldest completed prefetch, and issues the
//!   next one;
//! * pages already resident in the pool are skipped — "nothing happens except
//!   increasing its use count" (§3.3 "Ignoring query history").
//!
//! I/O is issued through the [`IoWorkerPool`]; a prefetched page becomes
//! readable at its scheduled completion instant. Reads that arrive earlier
//! wait for the in-flight I/O — the database runtime (`pythia-db`'s
//! `runtime` module) accounts those stalls as `prefetch_waits` when it
//! serves a read of a frame the prefetcher loaded (a wait on another query's
//! in-flight demand read is not one); the prefetcher itself keeps no wait
//! counters.

use std::collections::VecDeque;
use std::sync::Arc;

use pythia_obs::{tid, Track};
use pythia_sim::{CostModel, IoWorkerPool, OsPageCache, PageId, SimTime, StreamId};

use crate::frame::FrameId;
use crate::pool::BufferPool;

#[derive(Debug, Clone, Copy)]
struct InFlight {
    frame: FrameId,
    arrival: SimTime,
}

/// Asynchronous prefetcher with a bounded pinned readahead window.
#[derive(Debug)]
pub struct AioPrefetcher {
    queue: VecDeque<PageId>,
    window: VecDeque<InFlight>,
    window_size: usize,
    /// `file_lens[f]` = page count of file `f` (for OS readahead EOF
    /// clamping on the prefetcher's own reads). Missing entries are treated
    /// as unbounded. One table per replay stack, shared by its prefetchers.
    file_lens: Arc<[u32]>,
    /// The OS-cache stream (open-fd analogue) the prefetcher's own reads run
    /// under. Distinct from the query's demand stream, so the prefetcher's
    /// storage-order reads and the query's interleaved demand reads each keep
    /// their own kernel-readahead run alive.
    stream: StreamId,
}

impl AioPrefetcher {
    /// An idle prefetcher with readahead window `R` (pages pinned at once),
    /// reading under OS-cache stream 0 (unit-test convenience; real callers
    /// should allocate a distinct stream via [`Self::with_file_lens`]).
    ///
    /// # Panics
    /// Panics if `window_size == 0`.
    pub fn new(window_size: usize) -> Self {
        Self::with_file_lens(window_size, Vec::<u32>::new(), StreamId(0))
    }

    /// Like [`Self::new`] but with the per-file page counts used to clamp
    /// the OS readahead the prefetcher's sequential reads trigger, and the
    /// OS-cache stream identity those reads run under.
    pub fn with_file_lens(
        window_size: usize,
        file_lens: impl Into<Arc<[u32]>>,
        stream: StreamId,
    ) -> Self {
        assert!(window_size > 0, "readahead window must be >= 1");
        AioPrefetcher {
            queue: VecDeque::new(),
            window: VecDeque::new(),
            window_size,
            file_lens: file_lens.into(),
            stream,
        }
    }

    fn file_len(&self, pid: PageId) -> u32 {
        self.file_lens
            .get(pid.file.0 as usize)
            .copied()
            .unwrap_or(u32::MAX)
    }

    /// The OS-cache stream the prefetcher reads under (so the owner can
    /// retire it when the query finishes).
    pub fn stream(&self) -> StreamId {
        self.stream
    }

    /// Readahead window size `R`.
    pub fn window_size(&self) -> usize {
        self.window_size
    }

    /// Pages still waiting in the producer queue.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Pages currently pinned in the window (in flight or arrived).
    pub fn in_window(&self) -> usize {
        self.window.len()
    }

    /// Whether all prefetch work has been issued and the window drained.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.window.is_empty()
    }

    /// Begin prefetching `pages` (must be in ascending storage order for the
    /// OS-readahead cooperation the paper describes; this is the prefetcher
    /// contract, not enforced). Immediately fills the window.
    pub fn start(
        &mut self,
        pages: impl IntoIterator<Item = PageId>,
        pool: &mut BufferPool,
        os: &mut OsPageCache,
        io: &mut IoWorkerPool,
        cost: &CostModel,
        now: SimTime,
    ) {
        self.queue.extend(pages);
        self.pump(pool, os, io, cost, now);
    }

    /// Issue I/O until the window is full or the queue is empty.
    fn pump(
        &mut self,
        pool: &mut BufferPool,
        os: &mut OsPageCache,
        io: &mut IoWorkerPool,
        cost: &CostModel,
        now: SimTime,
    ) {
        while self.window.len() < self.window_size {
            let Some(pid) = self.queue.pop_front() else {
                break;
            };
            if let Some(fid) = pool.lookup(pid) {
                // Already in the buffer: just bump its use count.
                pool.touch(fid);
                pool.stats_mut().prefetch_already_resident += 1;
                pool.recorder_mut().add("prefetch.already_resident", 1);
                continue;
            }
            // Reserve a frame *before* touching the OS cache or the I/O
            // workers: when every frame is pinned the page must go back on
            // the queue with zero side effects, otherwise the failed attempt
            // burns a worker slot and skews OS-cache stats — and the retry
            // double-counts both.
            let Some(fid) = pool.load(pid, true, now) else {
                // Every frame pinned: put the page back and stop — the
                // window will advance as the query consumes pages.
                self.queue.push_front(pid);
                break;
            };
            // The prefetcher's own reads go through the OS cache — and,
            // because the queue is in file storage order, they benefit from
            // kernel readahead just like Postgres' I/O workers do (§3.3
            // "This also helps the prefetcher with the OS readahead").
            let outcome = os.read(self.stream, pid, self.file_len(pid));
            let latency = if outcome.cache_hit {
                cost.os_cache_copy
            } else {
                cost.disk_read
            };
            let sched = io.schedule_detailed(now, latency);
            let arrival = sched.completes;
            pool.set_available_at(fid, arrival);
            pool.pin(fid);
            pool.stats_mut().prefetch_issued += 1;
            let stream_id = self.stream.0;
            let rec = pool.recorder_mut();
            rec.add("prefetch.issued", 1);
            if rec.is_enabled() {
                let stream_track = Track::virt(tid::PREFETCH_BASE + stream_id as u32);
                let lane_track = Track::virt(tid::IO_BASE + sched.lane as u32);
                rec.declare_track(stream_track, || format!("prefetch-stream-{stream_id}"));
                rec.declare_track(lane_track, || format!("io-lane-{}", sched.lane));
                // Issue → arrival on the stream's track; lane occupancy on
                // the worker's track (the two differ when the fetch queues
                // behind earlier I/O).
                rec.span(
                    stream_track,
                    "prefetch",
                    "prefetch.io",
                    now.as_micros(),
                    arrival.as_micros(),
                    &[
                        ("page", pid.trace_key()),
                        ("lane", sched.lane as u64),
                        ("os_hit", outcome.cache_hit as u64),
                    ],
                );
                rec.span(
                    lane_track,
                    "io",
                    "io.read",
                    sched.start.as_micros(),
                    arrival.as_micros(),
                    &[("page", pid.trace_key()), ("prefetch", 1)],
                );
                rec.observe("prefetch.io_latency_us", arrival.since(now).as_micros());
            }
            self.window.push_back(InFlight {
                frame: fid,
                arrival,
            });
        }
    }

    /// Dummy request: called once per ordinary query page read. Every
    /// already-completed entry at the front of the window is released (the
    /// pages stay in the buffer, subject to normal replacement) and the freed
    /// slots are refilled. Draining *all* arrived front entries — not just
    /// one — matters with ≥ 2 I/O workers: completions land out of order, so
    /// a single-entry advance would leave arrived pages pinned behind the
    /// consumption rate and stall the window.
    pub fn on_query_read(
        &mut self,
        pool: &mut BufferPool,
        os: &mut OsPageCache,
        io: &mut IoWorkerPool,
        cost: &CostModel,
        now: SimTime,
    ) {
        let mut advanced = false;
        while let Some(front) = self.window.front() {
            if front.arrival > now {
                break;
            }
            let fl = self.window.pop_front().expect("front exists");
            pool.unpin(fl.frame);
            // How long the arrived page sat pinned before the query's read
            // rate released it — the window-sizing signal (Fig 12g).
            pool.recorder_mut()
                .observe("prefetch.window_hold_us", now.since(fl.arrival).as_micros());
            advanced = true;
        }
        if advanced {
            self.pump(pool, os, io, cost, now);
        }
    }

    /// Release all window pins and drop remaining queued pages (query done).
    pub fn finish(&mut self, pool: &mut BufferPool) {
        for fl in self.window.drain(..) {
            pool.unpin(fl.frame);
        }
        self.queue.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;
    use pythia_sim::oscache::OsCacheStats;
    use pythia_sim::{FileId, SimDuration};

    fn pid(p: u32) -> PageId {
        PageId::new(FileId(0), p)
    }

    fn setup(
        frames: usize,
        window: usize,
    ) -> (
        BufferPool,
        OsPageCache,
        IoWorkerPool,
        CostModel,
        AioPrefetcher,
    ) {
        let cost = CostModel {
            disk_read: SimDuration::from_micros(500),
            ..CostModel::default()
        };
        (
            BufferPool::new(frames, PolicyKind::Clock),
            OsPageCache::new(1024, 32),
            IoWorkerPool::new(2),
            cost,
            AioPrefetcher::new(window),
        )
    }

    #[test]
    fn start_fills_window_and_pins() {
        let (mut pool, mut os, mut io, cost, mut aio) = setup(16, 4);
        aio.start(
            (0..10).map(pid),
            &mut pool,
            &mut os,
            &mut io,
            &cost,
            SimTime::ZERO,
        );
        assert_eq!(aio.in_window(), 4);
        assert_eq!(aio.pending(), 6);
        assert_eq!(pool.stats().prefetch_issued, 4);
        // All four window pages are pinned.
        let pinned = (0..4)
            .filter(|&p| {
                pool.lookup(pid(p))
                    .map(|f| pool.frame(f).pin_count > 0)
                    .unwrap_or(false)
            })
            .count();
        assert_eq!(pinned, 4);
    }

    #[test]
    fn arrival_times_respect_io_parallelism() {
        let (mut pool, mut os, mut io, cost, mut aio) = setup(16, 4);
        aio.start(
            (0..4).map(pid),
            &mut pool,
            &mut os,
            &mut io,
            &cost,
            SimTime::ZERO,
        );
        // 2 workers, disk_read=500us. Pages 0 and 1 are cold disk reads; the
        // prefetcher's own sequential pattern triggers OS readahead, so
        // pages 2 and 3 are OS-cache copies (50us) queued behind them.
        let arrivals: Vec<u64> = (0..4)
            .map(|p| {
                pool.frame(pool.lookup(pid(p)).unwrap())
                    .available_at
                    .as_micros()
            })
            .collect();
        assert_eq!(arrivals, vec![500, 500, 550, 550]);
    }

    #[test]
    fn resident_pages_are_skipped() {
        let (mut pool, mut os, mut io, cost, mut aio) = setup(16, 4);
        pool.load(pid(1), false, SimTime::ZERO).unwrap();
        aio.start(
            [pid(0), pid(1), pid(2)],
            &mut pool,
            &mut os,
            &mut io,
            &cost,
            SimTime::ZERO,
        );
        assert_eq!(pool.stats().prefetch_already_resident, 1);
        assert_eq!(pool.stats().prefetch_issued, 2);
        assert_eq!(aio.in_window(), 2);
    }

    #[test]
    fn dummy_request_advances_window() {
        let (mut pool, mut os, mut io, cost, mut aio) = setup(16, 2);
        aio.start(
            (0..5).map(pid),
            &mut pool,
            &mut os,
            &mut io,
            &cost,
            SimTime::ZERO,
        );
        assert_eq!(aio.in_window(), 2);
        // Before arrival: no advance.
        aio.on_query_read(
            &mut pool,
            &mut os,
            &mut io,
            &cost,
            SimTime::from_micros(100),
        );
        assert_eq!(aio.in_window(), 2);
        // After both in-flight pages arrive (500us each on 2 workers), one
        // dummy request drains them both and refills the window.
        aio.on_query_read(
            &mut pool,
            &mut os,
            &mut io,
            &cost,
            SimTime::from_micros(600),
        );
        assert_eq!(aio.in_window(), 2);
        assert_eq!(aio.pending(), 1);
        for p in 0..2 {
            let f = pool.lookup(pid(p)).unwrap();
            assert_eq!(pool.frame(f).pin_count, 0, "consumed window slot unpinned");
        }
        assert!(pool.lookup(pid(0)).is_some(), "page stays resident");
    }

    #[test]
    fn full_pool_of_pins_stalls_gracefully() {
        let (mut pool, mut os, mut io, cost, mut aio) = setup(2, 8);
        aio.start(
            (0..6).map(pid),
            &mut pool,
            &mut os,
            &mut io,
            &cost,
            SimTime::ZERO,
        );
        // Only 2 frames: window holds 2, rest stay queued.
        assert_eq!(aio.in_window(), 2);
        assert_eq!(aio.pending(), 4);
        // Advancing after arrival frees both pins and refills both frames.
        aio.on_query_read(
            &mut pool,
            &mut os,
            &mut io,
            &cost,
            SimTime::from_micros(1_000_000),
        );
        assert_eq!(aio.in_window(), 2);
        assert_eq!(aio.pending(), 2);
    }

    #[test]
    fn failed_load_leaves_os_and_io_untouched() {
        // Regression: `pump` used to issue the OS read and burn an I/O worker
        // slot *before* discovering every frame was pinned, so the pushed-back
        // page skewed OS-cache miss/readahead stats and the worker timeline —
        // and was double-counted when retried.
        let (mut pool, mut os, mut io, cost, mut aio) = setup(2, 8);
        for p in 0..2 {
            let f = pool.load(pid(100 + p), false, SimTime::ZERO).unwrap();
            pool.pin(f);
        }
        aio.start(
            [pid(0), pid(1)],
            &mut pool,
            &mut os,
            &mut io,
            &cost,
            SimTime::ZERO,
        );
        assert_eq!(aio.in_window(), 0);
        assert_eq!(aio.pending(), 2, "pages stay queued for retry");
        assert_eq!(
            os.stats(),
            OsCacheStats::default(),
            "no OS-cache traffic on failed load"
        );
        assert_eq!(io.issued(), 0, "no I/O worker slot consumed");
        assert_eq!(
            io.earliest_free(),
            SimTime::ZERO,
            "worker timeline untouched"
        );
        assert_eq!(io.drained_at(), SimTime::ZERO);
        assert_eq!(pool.stats().prefetch_issued, 0);
        // After the pins release, the retry accounts each page exactly once.
        for p in 0..2 {
            let f = pool.lookup(pid(100 + p)).unwrap();
            pool.unpin(f);
        }
        aio.start(
            std::iter::empty(),
            &mut pool,
            &mut os,
            &mut io,
            &cost,
            SimTime::ZERO,
        );
        assert_eq!(aio.in_window(), 2);
        assert_eq!(aio.pending(), 0);
        assert_eq!(
            os.stats().hits + os.stats().misses,
            2,
            "one OS read per page"
        );
        assert_eq!(io.issued(), 2, "one worker slot per page");
        assert_eq!(pool.stats().prefetch_issued, 2);
    }

    #[test]
    fn out_of_order_arrivals_do_not_stall_window() {
        // Regression: with 2 I/O workers a cold 500us disk read at the front
        // of the window completes *after* the 50us OS-cache copies queued
        // behind it. A single dummy request once all three have arrived must
        // release every arrived entry; the old single-entry advance left the
        // later arrivals pinned, stalling the window behind the consumption
        // rate.
        let (mut pool, mut os, mut io, cost, mut aio) = setup(16, 3);
        os.insert(pid(1));
        os.insert(pid(2));
        aio.start(
            (0..5).map(pid),
            &mut pool,
            &mut os,
            &mut io,
            &cost,
            SimTime::ZERO,
        );
        // Arrivals: page 0 -> 500us (cold, worker 0); page 1 -> 50us (cache
        // copy, worker 1); page 2 -> 100us (cache copy, queued on worker 1).
        let arrivals: Vec<u64> = (0..3)
            .map(|p| {
                pool.frame(pool.lookup(pid(p)).unwrap())
                    .available_at
                    .as_micros()
            })
            .collect();
        assert_eq!(arrivals, vec![500, 50, 100], "later entries arrive first");
        aio.on_query_read(
            &mut pool,
            &mut os,
            &mut io,
            &cost,
            SimTime::from_micros(600),
        );
        for p in 0..3 {
            let f = pool.lookup(pid(p)).unwrap();
            assert_eq!(
                pool.frame(f).pin_count,
                0,
                "arrived page {p} must be released"
            );
        }
        assert_eq!(aio.in_window(), 2, "freed slots refilled from the queue");
        assert_eq!(aio.pending(), 0);
    }

    #[test]
    fn os_cached_pages_prefetch_faster() {
        let (mut pool, mut os, mut io, cost, mut aio) = setup(16, 2);
        os.insert(pid(0));
        aio.start([pid(0)], &mut pool, &mut os, &mut io, &cost, SimTime::ZERO);
        let f = pool.lookup(pid(0)).unwrap();
        assert_eq!(
            pool.frame(f).available_at.as_micros(),
            cost.os_cache_copy.as_micros(),
            "OS-cache hit costs a memcpy, not a disk read"
        );
    }

    #[test]
    fn finish_releases_everything() {
        let (mut pool, mut os, mut io, cost, mut aio) = setup(16, 4);
        aio.start(
            (0..10).map(pid),
            &mut pool,
            &mut os,
            &mut io,
            &cost,
            SimTime::ZERO,
        );
        aio.finish(&mut pool);
        assert!(aio.is_idle());
        for p in 0..4 {
            let f = pool.lookup(pid(p)).unwrap();
            assert_eq!(pool.frame(f).pin_count, 0);
        }
    }

    #[test]
    fn duration_sanity() {
        // The default cost model is disk-bound: random reads dwarf copies.
        assert!(
            CostModel::default().disk_read > CostModel::default().os_cache_copy.saturating_mul(10)
        );
        assert_eq!(SimDuration::from_micros(500), SimDuration::from_micros(500));
    }
}
