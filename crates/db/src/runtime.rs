//! Timed replay of query traces through the buffer manager — the analogue of
//! the paper's Postgres integration (§4).
//!
//! A query's page-request sequence depends only on its plan (the database is
//! static and read-only), so execution is split in two phases: the untimed
//! executor ([`crate::exec`]) records a [`Trace`], and this runtime *replays*
//! traces against the buffer pool / OS page cache / async-I/O stack under the
//! virtual clock, optionally with a prefetch plan per query.
//!
//! Replay supports multiple concurrent queries: each query owns a timeline
//! and its own AIO prefetch structure (as in the paper's modified Postgres,
//! where the AIO structure lives in the executor and is per-query), while the
//! buffer pool, OS cache and I/O workers are shared. Events across queries
//! are processed in global time order, which models the resource contention
//! the paper's §5.4 experiments measure.

use std::borrow::Cow;
use std::sync::Arc;

use pythia_buffer::{AioPrefetcher, BufferPool, BufferStats, PolicyKind};
use pythia_obs::{tid, Recorder, Track};
use pythia_sim::{CostModel, IoWorkerPool, OsPageCache, PageId, SimDuration, SimTime, StreamId};

use crate::trace::{Events, Trace, TraceEvent};

/// Configuration of the replay stack.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Buffer pool size in frames (Postgres `shared_buffers`; the paper uses
    /// 1 GiB ≈ 1% of the database — size proportionally to your workload).
    pub pool_frames: usize,
    /// Replacement policy (paper default: Clock).
    pub policy: PolicyKind,
    /// Latency model.
    pub cost: CostModel,
    /// OS page cache size in pages (the machine's free RAM).
    pub os_cache_pages: usize,
    /// AIO readahead window `R`: prefetched pages kept pinned at once
    /// (paper default 1024, swept in Figure 12g).
    pub readahead_window: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            pool_frames: 1024,
            policy: PolicyKind::Clock,
            cost: CostModel::default(),
            os_cache_pages: 8192,
            readahead_window: 1024,
        }
    }
}

impl RunConfig {
    /// A stack sized to a database of `total_pages` pages: a buffer pool of
    /// 12 % of them (at least 32 frames) and an OS cache of 35 % (at least 64
    /// pages), so the working set of a larger database exceeds both caches,
    /// with the default readahead window clamped to half the pool (at least
    /// 16).
    pub fn sized_for(total_pages: u64) -> RunConfig {
        let base = RunConfig::default();
        let pool = ((total_pages as f64 * 0.12) as usize).max(32);
        RunConfig {
            pool_frames: pool,
            os_cache_pages: ((total_pages as f64 * 0.35) as usize).max(64),
            readahead_window: base.readahead_window.min(pool / 2).max(16),
            ..base
        }
    }
}

/// One query to replay.
#[derive(Debug, Clone)]
pub struct QueryRun<'a> {
    /// The recorded trace to replay.
    pub trace: &'a Trace,
    /// Pages to prefetch (ascending storage order), or `None` for the
    /// default (no-prefetch) path.
    pub prefetch: Option<Vec<PageId>>,
    /// When the query arrives, as an offset from the start of the batch
    /// (i.e. from the stack's clock when [`Runtime::run`] is called). A
    /// duration — not an instant — so arrivals cannot be double-shifted when
    /// warm batches are chained and the stack's clock is already nonzero.
    pub arrival: SimDuration,
    /// Serialized-plan encoding + model inference latency charged before
    /// execution starts (zero for DFLT/ORCL/NN baselines).
    pub inference_latency: SimDuration,
    /// Trace span name for this query's replay. Must be `'static` (trace
    /// event names never allocate); callers that know the query's template
    /// pass `Template::replay_span()` so Perfetto groups repeated templates.
    pub span_name: &'static str,
}

/// Span name for replays whose template is unknown.
pub const DEFAULT_REPLAY_SPAN: &str = "query.replay";

impl<'a> QueryRun<'a> {
    /// A query with no prefetching arriving at batch start.
    pub fn default_run(trace: &'a Trace) -> Self {
        QueryRun {
            trace,
            prefetch: None,
            arrival: SimDuration::ZERO,
            inference_latency: SimDuration::ZERO,
            span_name: DEFAULT_REPLAY_SPAN,
        }
    }

    /// A query with a prefetch plan arriving at batch start.
    pub fn with_prefetch(trace: &'a Trace, pages: Vec<PageId>, inference: SimDuration) -> Self {
        QueryRun {
            trace,
            prefetch: Some(pages),
            arrival: SimDuration::ZERO,
            inference_latency: inference,
            span_name: DEFAULT_REPLAY_SPAN,
        }
    }
}

/// Timing of one replayed query.
#[derive(Debug, Clone, Copy)]
pub struct QueryTiming {
    pub arrival: SimTime,
    pub start: SimTime,
    pub end: SimTime,
}

impl QueryTiming {
    /// Total latency including inference overhead.
    pub fn elapsed(&self) -> SimDuration {
        self.end.since(self.arrival)
    }
}

/// Result of a replay batch.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub timings: Vec<QueryTiming>,
    pub stats: BufferStats,
}

impl RunResult {
    /// Wall time from first arrival to last completion.
    pub fn makespan(&self) -> SimDuration {
        let first = self
            .timings
            .iter()
            .map(|t| t.arrival)
            .min()
            .unwrap_or(SimTime::ZERO);
        let last = self
            .timings
            .iter()
            .map(|t| t.end)
            .max()
            .unwrap_or(SimTime::ZERO);
        last.since(first)
    }
}

struct QState<'a> {
    trace: &'a Trace,
    span_name: &'static str,
    /// The prefetch list until the query's timeline first runs, which hands
    /// it to the prefetcher.
    prefetch: Option<Cow<'a, [PageId]>>,
    arrival: SimTime,
    /// The trace's events not yet replayed.
    cursor: Events<'a>,
    t: SimTime,
    /// Present from the first step of a prefetching query to its last.
    aio: Option<AioPrefetcher>,
    start: SimTime,
    /// OS-cache stream (open-fd analogue) the query's demand reads run
    /// under; its AIO prefetcher gets a second, distinct stream.
    stream: StreamId,
    /// Trace track for this query's replay timeline (a `tid::Kind::Query`
    /// track, indexed by the runtime's monotone query counter).
    track: Track,
}

impl QState<'_> {
    fn timing(&self) -> QueryTiming {
        QueryTiming {
            arrival: self.arrival,
            start: self.start,
            end: self.t,
        }
    }
}

/// The replay stack: shared buffer pool, OS cache and I/O workers.
pub struct Runtime {
    pool: BufferPool,
    os: OsPageCache,
    io: IoWorkerPool,
    cost: CostModel,
    window: usize,
    /// Shared with every query's prefetcher.
    file_lens: Arc<[u32]>,
    /// The stack's continuing clock: each `run` batch starts here, so warm
    /// state (frame availability, I/O lanes) stays consistent across batches.
    now: SimTime,
    /// Next OS-cache stream id to hand out. Every query backend and every
    /// AIO prefetcher gets its own stream, so concurrent sequential scans of
    /// one file keep independent kernel-readahead runs (per-fd semantics).
    next_stream: u64,
    /// Monotone query counter: each replayed query gets its own trace track.
    next_query: u64,
}

impl Runtime {
    /// Build a cold stack. `file_lens[f]` is the page count of file `f`
    /// (see [`crate::catalog::Database::file_lengths`]).
    pub fn new(config: &RunConfig, file_lens: Vec<u32>) -> Self {
        config.cost.validate().expect("invalid cost model");
        Runtime {
            pool: BufferPool::new(config.pool_frames, config.policy),
            os: OsPageCache::new(config.os_cache_pages, config.cost.os_readahead_window),
            io: IoWorkerPool::new(config.cost.io_workers),
            cost: config.cost.clone(),
            window: config.readahead_window,
            file_lens: file_lens.into(),
            now: SimTime::ZERO,
            next_stream: 0,
            next_query: 0,
        }
    }

    /// Cold restart: drop buffer pool, OS cache and in-flight I/O — the
    /// paper's "Postgres is restarted between every different query execution
    /// along with cleaning OS page cache". The recorder (and its accumulated
    /// trace) survives, so a traced experiment can span restarts.
    pub fn reset(&mut self) {
        self.pool.reset();
        self.os.reset();
        self.io.reset();
        self.now = SimTime::ZERO;
        self.next_stream = 0;
        self.next_query = 0;
    }

    /// Install a trace/metrics recorder on the stack (it lives inside the
    /// buffer pool, where the replay loop, the AIO prefetchers and the
    /// serving loop all reach it through existing borrows).
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.pool.set_recorder(recorder);
    }

    /// The stack's recorder (disabled by default).
    pub fn recorder(&self) -> &Recorder {
        self.pool.recorder()
    }

    /// Mutable access to the stack's recorder.
    pub fn recorder_mut(&mut self) -> &mut Recorder {
        self.pool.recorder_mut()
    }

    /// Remove and return the recorder, leaving a disabled one behind.
    pub fn take_recorder(&mut self) -> Recorder {
        self.pool.take_recorder()
    }

    /// Buffer pool capacity in frames.
    pub fn pool_frames(&self) -> usize {
        self.pool.capacity()
    }

    /// The stack's continuing clock (the instant the next `run` batch would
    /// start at). Serving loops use this to translate absolute arrival times
    /// into per-batch offsets.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advance the stack's clock to `t` (no-op if `t` is in the past): idle
    /// time between admission waves when the queue has drained but the next
    /// query has not arrived yet.
    pub fn advance_to(&mut self, t: SimTime) {
        self.now = self.now.max(t);
    }

    /// Snapshot of the shared pool's cumulative counters (what the next
    /// [`Self::run`] result's `stats` will have accumulated on top of).
    pub fn stats(&self) -> BufferStats {
        *self.pool.stats()
    }

    /// Allocate a fresh OS-cache stream (open-fd analogue).
    fn alloc_stream(&mut self) -> StreamId {
        let s = StreamId(self.next_stream);
        self.next_stream += 1;
        s
    }

    /// Allocate the trace track for the next replayed query.
    fn alloc_query_track(&mut self) -> Track {
        let qid = self.next_query;
        self.next_query += 1;
        Track::virt(tid::Kind::Query.tid(qid))
    }

    /// Replay a batch of queries (possibly overlapping in time).
    /// State (buffer contents) carries over from previous `run` calls unless
    /// [`Self::reset`] is called — that is how the warm-cache multi-query
    /// experiments (§5.4) are expressed.
    ///
    /// This is the one-shot form of [`ReplaySession`]: every query is
    /// injected up front (arrivals are offsets within the batch, shifted onto
    /// the stack's continuing clock), then the session is stepped dry and
    /// finished; the timings are the completions it reported on the way. A
    /// serving loop that wants to *add* queries while others are mid-replay
    /// drives the session directly instead.
    pub fn run(&mut self, queries: &[QueryRun<'_>]) -> RunResult {
        let base = self.now;
        let mut session = ReplaySession::new();
        let mut done: Vec<SessionCompletion> = Vec::with_capacity(queries.len());
        for q in queries {
            let (_, instant) = session.admit(
                self,
                q.trace,
                q.prefetch.as_deref().map(Cow::Borrowed),
                q.span_name,
                base + q.arrival,
                q.inference_latency,
            );
            done.extend(instant);
        }
        while session.live() > 0 {
            done.extend(session.step(self));
        }
        session.finish(self);
        // Slots are injection order: the order of `queries`.
        done.sort_unstable_by_key(|c| c.slot);
        RunResult {
            timings: done.into_iter().map(|c| c.timing).collect(),
            stats: *self.pool.stats(),
        }
    }

    /// Replay the next event of `s`; true if it was the query's last.
    fn step(&mut self, s: &mut QState<'_>) -> bool {
        // Start the prefetcher the first time this query's timeline runs.
        if let Some(pages) = s.prefetch.take() {
            let stream = self.alloc_stream();
            let mut aio =
                AioPrefetcher::with_file_lens(self.window, self.file_lens.clone(), stream);
            aio.start(
                pages.iter().copied(),
                &mut self.pool,
                &mut self.os,
                &mut self.io,
                &self.cost,
                s.t,
            );
            s.aio = Some(aio);
        }

        match s.cursor.next().expect("a live query has events left") {
            TraceEvent::Cpu { units } => {
                s.t += self.cost.cpu_per_tuple.saturating_mul(units as u64);
            }
            TraceEvent::Read { page, kind, .. } => {
                self.serve_read(s, page, kind.is_sequential());
            }
        }
        let done = s.cursor.at_end();
        if done {
            if let Some(mut aio) = s.aio.take() {
                aio.finish(&mut self.pool);
                self.os.retire_stream(aio.stream());
            }
            // Close the query's own "fd" too: detector state must not
            // accumulate over the lifetime of a long-running serving stack.
            self.os.retire_stream(s.stream);
        }
        done
    }

    /// Emit a completed query's replay spans and latency sample. The session
    /// drops the query's state right after, so this is the only record of it
    /// the stack keeps.
    fn record_completion(&mut self, s: &QState<'_>) {
        if !self.pool.recorder().is_enabled() {
            return;
        }
        let rec = self.pool.recorder_mut();
        rec.add("queries.replayed", 1);
        if s.start > s.arrival {
            rec.span(
                s.track,
                "query",
                "query.infer_charge",
                s.arrival.as_micros(),
                s.start.as_micros(),
                &[],
            );
        }
        // The span end (`ts + dur`) is the query's completion time —
        // exactly the `end` of the completion's timing.
        rec.span(
            s.track,
            "query",
            s.span_name,
            s.start.as_micros(),
            s.t.as_micros(),
            &[("reads", s.trace.read_count() as u64)],
        );
        rec.observe("query.latency_us", s.t.since(s.arrival).as_micros());
    }

    fn serve_read(&mut self, s: &mut QState<'_>, page: PageId, sequential: bool) {
        let t0 = s.t;
        if let Some(fid) = self.pool.lookup(page) {
            let frame = self.pool.frame(fid);
            let (avail, prefetched) = (frame.available_at, frame.prefetched);
            let mut waited = 0u64;
            if avail > s.t {
                // The page's I/O is still in flight — a prefetch, or another
                // query's demand read: wait for it (still cheaper than
                // issuing a fresh synchronous read in almost all cases).
                if prefetched {
                    self.pool.stats_mut().prefetch_waits += 1;
                }
                waited = avail.since(s.t).as_micros();
                s.t = avail;
            }
            s.t += self.cost.buffer_hit;
            self.pool.stats_mut().hits += 1;
            self.pool.touch(fid);
            let rec = self.pool.recorder_mut();
            if rec.is_enabled() {
                rec.add("reads.hit", 1);
                if waited > 0 {
                    if prefetched {
                        rec.add("reads.prefetch_wait", 1);
                        rec.observe("read.prefetch_wait_us", waited);
                    } else {
                        rec.add("reads.demand_wait", 1);
                    }
                }
                rec.instant(
                    s.track,
                    "read",
                    "read.hit",
                    t0.as_micros(),
                    &[("page", page.trace_key()), ("wait_us", waited)],
                );
            }
        } else {
            let file_len = self
                .file_lens
                .get(page.file.0 as usize)
                .copied()
                .unwrap_or(u32::MAX);
            let outcome = self.os.read(s.stream, page, file_len);
            let name = if outcome.cache_hit {
                s.t += self.cost.os_cache_copy;
                self.pool.stats_mut().os_copies += 1;
                "read.os_copy"
            } else {
                s.t += self.cost.disk_read;
                self.pool.stats_mut().disk_reads += 1;
                "read.disk"
            };
            // Sequential-scan pages go through the buffer-ring path
            // (Postgres BAS_BULKREAD): resident but evicted first, so bulk
            // scans don't wash out the working set or prefetched pages.
            let passed_through = self.pool.load_with(page, false, s.t, sequential).is_none();
            if passed_through {
                self.pool.stats_mut().pass_through += 1;
            }
            let rec = self.pool.recorder_mut();
            if rec.is_enabled() {
                rec.add(
                    if outcome.cache_hit {
                        "reads.os_copy"
                    } else {
                        "reads.disk"
                    },
                    1,
                );
                if passed_through {
                    rec.add("reads.pass_through", 1);
                }
                if outcome.readahead_pages > 0 {
                    rec.add("os.readahead_pages", outcome.readahead_pages as u64);
                    rec.instant(
                        s.track,
                        "os",
                        "os.readahead",
                        t0.as_micros(),
                        &[("pages", outcome.readahead_pages as u64)],
                    );
                }
                rec.instant(
                    s.track,
                    "read",
                    name,
                    t0.as_micros(),
                    &[("page", page.trace_key())],
                );
            }
        }
        self.pool
            .recorder_mut()
            .observe("read.service_us", s.t.since(t0).as_micros());
        // Dummy request: the AIO structure tracks the query's read rate.
        if let Some(aio) = s.aio.as_mut() {
            aio.on_query_read(&mut self.pool, &mut self.os, &mut self.io, &self.cost, s.t);
        }
    }
}

/// A query's completion, as reported by [`ReplaySession::step`] (or by
/// [`ReplaySession::inject`] for an empty-trace query that finishes the
/// instant it is admitted).
#[derive(Debug, Clone, Copy)]
pub struct SessionCompletion {
    /// Slot index assigned at injection (0-based injection order).
    pub slot: usize,
    /// The completed query's timing.
    pub timing: QueryTiming,
}

/// Incremental replay: the engine behind [`Runtime::run`] and the serving
/// loop's admit-on-completion path.
///
/// A session owns the timelines of the queries *in flight* while the shared
/// stack (buffer pool / OS cache / I/O lanes) stays in the [`Runtime`].
/// Unlike `run`, queries can be [injected](Self::inject) while earlier ones
/// are mid-replay: an admission at virtual time `t` is causally sound as
/// long as `t` is no later than the session's next pending event
/// ([`Self::next_event_time`]) — exactly the invariant an event-ordered
/// serving loop maintains by processing arrivals and completions in global
/// virtual-time order.
///
/// A query's state is dropped the moment it completes: its timing leaves in
/// the [`SessionCompletion`], its `query.*` spans are emitted there, and the
/// session keeps only the latest completion instant. It therefore holds what
/// is replaying and nothing it has finished, so one session can live as long
/// as the process that drives it.
///
/// Lifecycle: any interleaving of `inject` / `step`, then — once nothing is
/// live — one [`finish`](Self::finish), which settles prefetch-waste
/// accounting and advances the stack clock past the last completion.
#[derive(Default)]
pub struct ReplaySession<'a> {
    /// The queries still replaying with their slots, ascending by slot.
    /// Stepping and [`Self::next_event_time`] scan this list only, so a
    /// session costs its concurrency per event however many queries it has
    /// completed.
    live: Vec<(usize, QState<'a>)>,
    /// Queries injected so far, i.e. the next slot.
    injected: usize,
    /// The latest completion instant so far.
    last_end: SimTime,
}

impl<'a> ReplaySession<'a> {
    /// An empty session.
    pub fn new() -> Self {
        ReplaySession::default()
    }

    /// Number of injected queries still replaying.
    pub fn live(&self) -> usize {
        self.live.len()
    }

    /// The earliest pending event instant across live queries, or `None`
    /// when nothing is live. A serving loop admits an arrival at time `a`
    /// directly iff `a <= next_event_time()` (or nothing is live).
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.live.iter().map(|(_, s)| s.t).min()
    }

    /// Admit one query at absolute virtual time `arrival` (the `run.arrival`
    /// *offset* field is ignored here — sessions deal in instants). Allocates
    /// the query's OS-cache stream and trace track, charges its inference
    /// latency, and returns the assigned slot plus an immediate completion if
    /// the trace is empty.
    pub fn inject(
        &mut self,
        rt: &mut Runtime,
        run: QueryRun<'a>,
        arrival: SimTime,
    ) -> (usize, Option<SessionCompletion>) {
        self.admit(
            rt,
            run.trace,
            run.prefetch.map(Cow::Owned),
            run.span_name,
            arrival,
            run.inference_latency,
        )
    }

    /// [`Self::inject`] by parts, so that [`Runtime::run`] can lend its
    /// callers' prefetch lists instead of copying them.
    fn admit(
        &mut self,
        rt: &mut Runtime,
        trace: &'a Trace,
        prefetch: Option<Cow<'a, [PageId]>>,
        span_name: &'static str,
        arrival: SimTime,
        inference_latency: SimDuration,
    ) -> (usize, Option<SessionCompletion>) {
        let start = arrival + inference_latency;
        let state = QState {
            trace,
            span_name,
            prefetch,
            arrival,
            cursor: trace.iter(),
            t: start,
            aio: None,
            start,
            stream: rt.alloc_stream(),
            track: rt.alloc_query_track(),
        };
        let slot = self.injected;
        self.injected += 1;
        if trace.events.is_empty() {
            (slot, Some(self.complete(rt, slot, &state)))
        } else {
            // Slots only grow, so pushing keeps the list ascending.
            self.live.push((slot, state));
            (slot, None)
        }
    }

    /// Advance the live query with the smallest current time by one trace
    /// event (first-minimal tie-break, same as `run`). Returns the completion
    /// if that event finished the query. Must not be called with
    /// `live() == 0` (returns `None` without advancing anything).
    pub fn step(&mut self, rt: &mut Runtime) -> Option<SessionCompletion> {
        // `min_by_key` keeps the first of equal minima and the list is
        // ascending: among queries at the same instant the lowest slot steps.
        let (at, _) = self
            .live
            .iter()
            .enumerate()
            .min_by_key(|&(_, (_, s))| s.t)?;
        if !rt.step(&mut self.live[at].1) {
            return None;
        }
        let (slot, state) = self.live.remove(at);
        Some(self.complete(rt, slot, &state))
    }

    /// A query's last act: spans out, clock mark kept, timing handed over.
    fn complete(&mut self, rt: &mut Runtime, slot: usize, s: &QState<'_>) -> SessionCompletion {
        rt.record_completion(s);
        self.last_end = self.last_end.max(s.t);
        SessionCompletion {
            slot,
            timing: s.timing(),
        }
    }

    /// Close the session: settle end-of-run prefetch-waste accounting and
    /// advance the stack clock to the last completion.
    pub fn finish(self, rt: &mut Runtime) {
        debug_assert!(
            self.live.is_empty(),
            "finish() with {} queries live",
            self.live.len()
        );
        rt.pool.finish_accounting();
        rt.now = rt.now.max(self.last_end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ObjectId;
    use crate::trace::AccessKind;
    use pythia_sim::FileId;

    fn pid(p: u32) -> PageId {
        PageId::new(FileId(0), p)
    }

    fn read_ev(p: u32, kind: AccessKind) -> TraceEvent {
        TraceEvent::Read {
            obj: ObjectId(0),
            page: pid(p),
            kind,
        }
    }

    /// A trace of `n` random (non-sequential) heap reads with CPU work
    /// between them.
    fn random_trace(n: u32, cpu_between: u32) -> Trace {
        let mut events = Vec::new();
        for i in 0..n {
            // Stride walk that defeats sequential detection.
            events.push(read_ev((i * 37) % 10_000, AccessKind::HeapFetch));
            events.push(TraceEvent::Cpu { units: cpu_between });
        }
        events.into_iter().collect()
    }

    fn sequential_trace(n: u32) -> Trace {
        let mut events = Vec::new();
        for i in 0..n {
            events.push(read_ev(i, AccessKind::SeqScan));
            events.push(TraceEvent::Cpu { units: 2 });
        }
        events.into_iter().collect()
    }

    fn config() -> RunConfig {
        RunConfig {
            pool_frames: 2048,
            os_cache_pages: 16384,
            ..Default::default()
        }
    }

    #[test]
    fn a_sized_stack_is_a_share_of_the_database_with_floors() {
        let small = RunConfig::sized_for(100);
        assert_eq!(
            (
                small.pool_frames,
                small.os_cache_pages,
                small.readahead_window
            ),
            (32, 64, 16)
        );
        let fixture = RunConfig::sized_for(1_000);
        assert_eq!((fixture.pool_frames, fixture.os_cache_pages), (120, 350));
        assert_eq!(fixture.readahead_window, 60, "half the pool");
        let big = RunConfig::sized_for(100_000);
        assert_eq!((big.pool_frames, big.os_cache_pages), (12_000, 35_000));
        assert_eq!(big.readahead_window, RunConfig::default().readahead_window);
    }

    fn single(cfg: &RunConfig, run: QueryRun<'_>) -> (SimDuration, BufferStats) {
        let mut rt = Runtime::new(cfg, vec![20_000]);
        let res = rt.run(&[run]);
        (res.timings[0].elapsed(), res.stats)
    }

    #[test]
    fn sequential_scan_benefits_from_os_readahead() {
        let cfg = config();
        let t = sequential_trace(500);
        let (elapsed, stats) = single(&cfg, QueryRun::default_run(&t));
        // First two reads miss; after that readahead keeps ahead.
        assert!(stats.os_copies > 450, "os_copies={}", stats.os_copies);
        assert!(stats.disk_reads < 50, "disk_reads={}", stats.disk_reads);
        // Far cheaper than 500 disk reads.
        assert!(elapsed.as_micros() < 500 * cfg.cost.disk_read.as_micros() / 3);
    }

    #[test]
    fn random_reads_pay_disk_cost_without_prefetch() {
        let cfg = config();
        let t = random_trace(300, 2);
        let (elapsed, stats) = single(&cfg, QueryRun::default_run(&t));
        assert_eq!(stats.disk_reads, 300);
        assert!(elapsed.as_micros() >= 300 * cfg.cost.disk_read.as_micros());
    }

    #[test]
    fn oracle_prefetch_speeds_up_random_reads() {
        let cfg = config();
        let t = random_trace(300, 2);
        let (base, _) = single(&cfg, QueryRun::default_run(&t));

        // Prefetch exactly the pages the query reads, in storage order.
        let mut pages = t.page_sequence();
        pages.sort_unstable();
        pages.dedup();
        let (pref, stats) = single(&cfg, QueryRun::with_prefetch(&t, pages, SimDuration::ZERO));

        assert!(stats.prefetch_issued > 0);
        assert!(stats.hits > 250, "most reads served from prefetched pages");
        let speedup = base.as_micros() as f64 / pref.as_micros() as f64;
        assert!(speedup > 2.0, "speedup was {speedup:.2}");
    }

    #[test]
    fn wrong_prefetch_does_not_slow_down_much() {
        let cfg = config();
        let t = random_trace(200, 2);
        let (base, _) = single(&cfg, QueryRun::default_run(&t));
        // Prefetch 200 pages the query never touches.
        let junk: Vec<PageId> = (11_000..11_200).map(pid).collect();
        let (pref, stats) = single(&cfg, QueryRun::with_prefetch(&t, junk, SimDuration::ZERO));
        assert_eq!(stats.prefetch_useful, 0);
        // Paper: "even if PYTHIA does not predict any page correctly, we can
        // expect the regression to be within the margin of error".
        let ratio = pref.as_micros() as f64 / base.as_micros() as f64;
        assert!(ratio < 1.05, "regression ratio {ratio:.3}");
    }

    #[test]
    fn inference_latency_is_charged() {
        let cfg = config();
        let t = random_trace(50, 2);
        let (base, _) = single(&cfg, QueryRun::default_run(&t));
        let inf = SimDuration::from_millis(100);
        let (with_inf, _) = single(
            &cfg,
            QueryRun {
                inference_latency: inf,
                ..QueryRun::default_run(&t)
            },
        );
        assert_eq!(with_inf.as_micros(), base.as_micros() + inf.as_micros());
    }

    #[test]
    fn warm_cache_second_run_is_fast() {
        let cfg = config();
        let t = random_trace(200, 2);
        let mut rt = Runtime::new(&cfg, vec![20_000]);
        let first = rt.run(&[QueryRun::default_run(&t)]);
        // No reset: buffer retains the pages.
        let second = rt.run(&[QueryRun::default_run(&t)]);
        let t1 = first.timings[0].elapsed();
        let t2 = second.timings[0].end.since(second.timings[0].arrival);
        assert!(
            t2.as_micros() * 10 < t1.as_micros(),
            "warm run {t2} vs cold {t1}"
        );
    }

    #[test]
    fn reset_restores_cold_behaviour() {
        let cfg = config();
        let t = random_trace(200, 2);
        let mut rt = Runtime::new(&cfg, vec![20_000]);
        let first = rt.run(&[QueryRun::default_run(&t)]);
        rt.reset();
        let again = rt.run(&[QueryRun::default_run(&t)]);
        assert_eq!(
            first.timings[0].elapsed().as_micros(),
            again.timings[0].elapsed().as_micros()
        );
    }

    #[test]
    fn concurrent_queries_share_the_pool() {
        let cfg = config();
        let t = random_trace(300, 2);
        // Two identical queries at once: the second benefits from pages the
        // first pulled in.
        let mut rt = Runtime::new(&cfg, vec![20_000]);
        let res = rt.run(&[QueryRun::default_run(&t), QueryRun::default_run(&t)]);
        assert!(res.stats.hits > 0, "overlapping queries share pages");
        assert_eq!(res.timings.len(), 2);
        // Makespan below two serial cold executions.
        let serial_estimate = 2 * 300 * cfg.cost.disk_read.as_micros();
        assert!(res.makespan().as_micros() < serial_estimate);
    }

    #[test]
    fn staggered_arrivals_are_respected() {
        let cfg = config();
        let t = random_trace(50, 2);
        let mut rt = Runtime::new(&cfg, vec![20_000]);
        let late = SimDuration::from_micros(1_000_000);
        let res = rt.run(&[
            QueryRun::default_run(&t),
            QueryRun {
                arrival: late,
                ..QueryRun::default_run(&t)
            },
        ]);
        assert!(res.timings[1].start >= SimTime::ZERO + late);
        assert!(res.timings[1].end > res.timings[0].end);
    }

    #[test]
    fn arrivals_are_offsets_from_the_warm_clock() {
        // `QueryRun::arrival` is a duration relative to the batch start, so
        // chaining warm batches cannot double-shift it: the second batch's
        // offset lands exactly `gap` after wherever the clock is.
        let cfg = config();
        let t = random_trace(20, 2);
        let mut rt = Runtime::new(&cfg, vec![20_000]);
        let first = rt.run(&[QueryRun::default_run(&t)]);
        let clock = first.timings[0].end;
        let gap = SimDuration::from_micros(777);
        let second = rt.run(&[QueryRun {
            arrival: gap,
            ..QueryRun::default_run(&t)
        }]);
        assert_eq!(second.timings[0].arrival, clock + gap);
    }

    #[test]
    fn interleaved_sequential_scans_keep_readahead() {
        // Regression: two concurrent sequential scans over disjoint ranges of
        // one file. The OS readahead detector is keyed per (stream, file) —
        // per open fd, like the kernel — so each scan's run survives the
        // other's interleaved reads and nearly all reads become OS-cache
        // copies. The old per-file detector saw an alternating page sequence,
        // never fired, and every read went to disk.
        fn scan(start: u32, n: u32) -> Trace {
            let mut events = Vec::new();
            for i in 0..n {
                events.push(read_ev(start + i, AccessKind::SeqScan));
                events.push(TraceEvent::Cpu { units: 2 });
            }
            events.into_iter().collect()
        }
        let cfg = config();
        let a = scan(0, 300);
        let b = scan(5_000, 300);
        let mut rt = Runtime::new(&cfg, vec![20_000]);
        let res = rt.run(&[QueryRun::default_run(&a), QueryRun::default_run(&b)]);
        assert!(
            res.stats.os_copies > 550,
            "interleaved scans must both get readahead: os_copies={}",
            res.stats.os_copies
        );
        assert!(
            res.stats.disk_reads < 50,
            "disk_reads={}",
            res.stats.disk_reads
        );
    }

    #[test]
    fn runtime_clock_hooks() {
        let cfg = config();
        let t = random_trace(10, 1);
        let mut rt = Runtime::new(&cfg, vec![20_000]);
        assert_eq!(rt.now(), SimTime::ZERO);
        rt.advance_to(SimTime::from_micros(500));
        assert_eq!(rt.now(), SimTime::from_micros(500));
        rt.advance_to(SimTime::from_micros(100)); // no going backwards
        assert_eq!(rt.now(), SimTime::from_micros(500));
        let res = rt.run(&[QueryRun::default_run(&t)]);
        assert_eq!(res.timings[0].arrival, SimTime::from_micros(500));
        assert!(rt.now() >= res.timings[0].end);
        assert_eq!(
            rt.stats(),
            res.stats,
            "stats snapshot matches the last result"
        );
    }

    #[test]
    fn fully_pinned_pool_serves_pass_through() {
        // Pool so small the prefetch window pins every frame: demand reads of
        // other pages cannot be cached and are served pass-through.
        let cfg = RunConfig {
            pool_frames: 8,
            readahead_window: 8,
            os_cache_pages: 1024,
            ..Default::default()
        };
        let t = random_trace(50, 1);
        let mut rt = Runtime::new(&cfg, vec![20_000]);
        // Prefetch pages the query never reads, so the window stays pinned.
        let junk: Vec<PageId> = (15_000..15_100).map(pid).collect();
        let res = rt.run(&[QueryRun::with_prefetch(&t, junk, SimDuration::ZERO)]);
        assert!(res.stats.pass_through > 0, "{:?}", res.stats);
        // Every read still happened exactly once.
        assert_eq!(res.stats.total_reads() as usize, t.read_count());
    }

    #[test]
    fn prefetch_wait_accounting() {
        // A query that reads its first prefetched page immediately must wait
        // for the in-flight I/O.
        let cfg = RunConfig {
            pool_frames: 64,
            os_cache_pages: 256,
            ..Default::default()
        };
        let t = Trace::from_iter([read_ev(7, AccessKind::HeapFetch)]);
        let mut rt = Runtime::new(&cfg, vec![20_000]);
        let res = rt.run(&[QueryRun::with_prefetch(&t, vec![pid(7)], SimDuration::ZERO)]);
        assert_eq!(res.stats.prefetch_waits, 1);
        assert_eq!(res.stats.hits, 1);
        // Waiting for the async read costs about one disk read.
        let elapsed = res.timings[0].elapsed();
        assert!(elapsed.as_micros() >= cfg.cost.disk_read.as_micros());
    }

    #[test]
    fn waits_on_another_querys_demand_read_are_not_prefetch_waits() {
        // Two default runs over the same pages at once: the second finds
        // every page resident but still in flight — loaded by the first
        // query's demand read, not by a prefetcher. It waits (virtual time
        // is what it always was) but nothing was prefetched, so nothing
        // counts as a prefetch wait.
        let cfg = config();
        let t = random_trace(40, 2);
        let (alone, _) = single(&cfg, QueryRun::default_run(&t));

        let mut rt = Runtime::new(&cfg, vec![20_000]);
        rt.set_recorder(Recorder::enabled());
        let res = rt.run(&[QueryRun::default_run(&t), QueryRun::default_run(&t)]);
        assert_eq!(res.stats.prefetch_issued, 0);
        assert_eq!(res.stats.prefetch_waits, 0);
        assert_eq!((res.stats.disk_reads, res.stats.hits), (40, 40));
        // The leader runs as if alone; the follower ends one buffer hit
        // after it, having waited out every one of the leader's reads.
        assert_eq!(res.timings[0].elapsed(), alone);
        assert_eq!(res.timings[1].end, res.timings[0].end + cfg.cost.buffer_hit);
        let rec = rt.take_recorder();
        assert_eq!(rec.counter("reads.prefetch_wait"), 0);
        assert_eq!(rec.counter("reads.demand_wait"), 40);
    }

    #[test]
    fn a_prefetched_load_is_settled_once_across_runs() {
        // Two runs close over one warm pool. The first prefetches 30 pages
        // and reads none; the second names the same list — all resident, so
        // nothing is issued — and reads ten of them. Each load was written
        // off once, when the first run closed: it is not wasted again at the
        // second close, and not useful on its late read either.
        let cfg = config();
        let idle = Trace::from_iter([TraceEvent::Cpu { units: 1 }]);
        let reader: Trace = (0..10).map(|p| read_ev(p, AccessKind::HeapFetch)).collect();
        let pages: Vec<PageId> = (0..30).map(pid).collect();
        let mut rt = Runtime::new(&cfg, vec![20_000]);
        for (run, trace) in [&idle, &reader, &reader].into_iter().enumerate() {
            let res = rt.run(&[QueryRun::with_prefetch(
                trace,
                pages.clone(),
                SimDuration::ZERO,
            )]);
            let s = res.stats;
            assert_eq!(s.prefetch_issued, 30, "run {run}");
            assert_eq!((s.prefetch_useful, s.prefetch_wasted), (0, 30), "run {run}");
        }
        assert_eq!(rt.stats().hits, 20);
    }

    #[test]
    fn empty_trace_completes_instantly() {
        let cfg = config();
        let t = Trace::new();
        let mut rt = Runtime::new(&cfg, vec![20_000]);
        let res = rt.run(&[QueryRun::default_run(&t)]);
        assert_eq!(res.timings[0].elapsed(), SimDuration::ZERO);
    }

    #[test]
    fn replay_ends_at_exactly_the_last_event() {
        // A query is done when its cursor has no bytes left and no event
        // pending, so a last event that runs past its tag byte, or that
        // shares its tag with the `Cpu` before it, must still end it there,
        // no sooner and no later. Every heap read here is a cold,
        // non-sequential disk read; a sequential one costs what it costs
        // replayed alone.
        let cfg = config();
        let (cpu, disk) = (cfg.cost.cpu_per_tuple, cfg.cost.disk_read);
        let heap = |obj: u32, p: u32| TraceEvent::Read {
            obj: ObjectId(obj),
            page: pid(p),
            kind: AccessKind::HeapFetch,
        };
        let seq = |p: u32| TraceEvent::Read {
            obj: ObjectId(0),
            page: pid(p),
            kind: AccessKind::SeqScan,
        };
        let units = |units: u32| TraceEvent::Cpu { units };
        let alone: Trace = [seq(1)].into_iter().collect();
        let scan = Runtime::new(&cfg, vec![20_000]).run(&[QueryRun::default_run(&alone)]);
        let scan = scan.timings[0].elapsed();
        // The events, their encoded size, and the query's hand-computed time.
        let cases = [
            // `Cpu` past the tag: 1000 − 31 follows in two varint bytes.
            (
                vec![heap(0, 7), units(1000)],
                1 + 3,
                disk + cpu.saturating_mul(1000),
            ),
            // A read that opens object 3: a switch tag, object and file,
            // then the read's step of 100 from page 0 in a zigzag varint.
            (
                vec![units(40), heap(3, 100)],
                2 + 3 + 3,
                cpu.saturating_mul(40) + disk,
            ),
            // A step of 5000 pages: its zigzag varint follows.
            (vec![heap(0, 7), heap(0, 5007)], 1 + 3, disk + disk),
            // One event, multi-byte and not.
            (vec![units(31)], 2, cpu.saturating_mul(31)),
            (vec![heap(0, 9)], 1, disk),
            // A unit of work and a heap fetch in one tag, near and far, and
            // after the switch the fetch needs.
            (vec![units(1), heap(0, 7)], 1, cpu + disk),
            (
                vec![heap(0, 7), units(1), heap(0, 5007)],
                1 + 1 + 2,
                disk + cpu + disk,
            ),
            (
                vec![heap(0, 7), units(1), heap(3, 100)],
                1 + 3 + 1 + 2,
                disk + cpu + disk,
            ),
            // Work and the scan's next page in one tag, the units in it or
            // past it.
            (vec![units(2), seq(1)], 1, cpu.saturating_mul(2) + scan),
            (vec![units(100), seq(1)], 2, cpu.saturating_mul(100) + scan),
        ];
        let at = SimTime::from_micros(100);
        for (case, (events, bytes, elapsed)) in cases.into_iter().enumerate() {
            let t: Trace = events.iter().copied().collect();
            assert_eq!(t.events.bytes().len(), bytes, "case {case}");
            let mut rt = Runtime::new(&cfg, vec![20_000]);
            let mut sess = ReplaySession::new();
            let (_, instant) = sess.inject(&mut rt, QueryRun::default_run(&t), at);
            assert!(instant.is_none(), "case {case}");
            for step in 1..events.len() {
                assert!(sess.step(&mut rt).is_none(), "case {case}: done at {step}");
            }
            let done = sess.step(&mut rt).expect("done at the last event");
            assert_eq!(sess.live(), 0);
            sess.finish(&mut rt);
            assert_eq!(done.timing.end, at + elapsed, "case {case}");
            let run = Runtime::new(&cfg, vec![20_000]).run(&[QueryRun::default_run(&t)]);
            assert_eq!(run.timings[0].elapsed(), elapsed, "case {case}");
        }
    }

    #[test]
    fn session_batch_injection_is_bit_identical_to_run() {
        // `run` is a thin wrapper over ReplaySession; driving the session by
        // hand with the same up-front injections must reproduce it exactly.
        let cfg = config();
        let a = random_trace(100, 2);
        let b = random_trace(60, 3);
        let gap = SimDuration::from_micros(500);

        let mut rt1 = Runtime::new(&cfg, vec![20_000]);
        let res = rt1.run(&[
            QueryRun::default_run(&a),
            QueryRun {
                arrival: gap,
                ..QueryRun::default_run(&b)
            },
        ]);

        let mut rt2 = Runtime::new(&cfg, vec![20_000]);
        let mut sess = ReplaySession::new();
        let (s0, c0) = sess.inject(&mut rt2, QueryRun::default_run(&a), SimTime::ZERO);
        let (s1, c1) = sess.inject(&mut rt2, QueryRun::default_run(&b), SimTime::ZERO + gap);
        assert_eq!((s0, s1), (0, 1));
        assert!(c0.is_none() && c1.is_none());
        let mut completions = Vec::new();
        while sess.live() > 0 {
            completions.extend(sess.step(&mut rt2));
        }
        sess.finish(&mut rt2);

        assert_eq!(completions.len(), 2, "each query completes exactly once");
        completions.sort_by_key(|c| c.slot);
        for (got, want) in completions.iter().zip(res.timings.iter()) {
            assert_eq!(got.timing.arrival, want.arrival);
            assert_eq!(got.timing.start, want.start);
            assert_eq!(got.timing.end, want.end);
        }
        assert_eq!(rt2.stats(), res.stats);
        assert_eq!(rt2.now(), rt1.now());
    }

    #[test]
    fn session_late_injection_matches_chained_runs() {
        // Admit-on-completion at concurrency 1: injecting the second query at
        // the first one's completion instant must equal two chained `run`
        // batches (which is how the serial comparator in the serving
        // property tests is phrased).
        let cfg = config();
        let a = random_trace(80, 2);
        let b = random_trace(40, 2);

        let mut rt1 = Runtime::new(&cfg, vec![20_000]);
        let first = rt1.run(&[QueryRun::default_run(&a)]);
        let second = rt1.run(&[QueryRun::default_run(&b)]);

        let mut rt2 = Runtime::new(&cfg, vec![20_000]);
        let mut sess = ReplaySession::new();
        sess.inject(&mut rt2, QueryRun::default_run(&a), SimTime::ZERO);
        let done = loop {
            if let Some(c) = sess.step(&mut rt2) {
                break c;
            }
        };
        assert_eq!(done.slot, 0);
        assert_eq!(done.timing.end, first.timings[0].end);
        // The slot freed: admit the next query at the completion instant.
        sess.inject(&mut rt2, QueryRun::default_run(&b), done.timing.end);
        let done = loop {
            if let Some(c) = sess.step(&mut rt2) {
                break c;
            }
        };
        sess.finish(&mut rt2);
        assert_eq!(done.slot, 1);
        assert_eq!(done.timing.arrival, second.timings[0].arrival);
        assert_eq!(done.timing.start, second.timings[0].start);
        assert_eq!(done.timing.end, second.timings[0].end);
        assert_eq!(rt2.stats(), rt1.stats());
        assert_eq!(rt2.now(), rt1.now());
    }

    #[test]
    fn long_session_with_few_live_queries_is_bit_identical_to_run() {
        // 300 staggered arrivals, admitted the way a serving loop does (when
        // the arrival is no later than the next pending event): at most four
        // queries are ever live, and the session holds those and no more
        // while hundreds have completed. `run` — all 300 live from the first
        // step — is the reference.
        let cfg = config();
        let traces: Vec<Trace> = (0..300u32)
            .map(|q| {
                (0..20u32)
                    .flat_map(|i| {
                        [
                            read_ev((q * 101 + i * 37) % 10_000, AccessKind::HeapFetch),
                            TraceEvent::Cpu { units: 2 },
                        ]
                    })
                    .collect()
            })
            .collect();
        let gap = SimDuration::from_micros(14_000);
        let runs: Vec<QueryRun<'_>> = traces
            .iter()
            .enumerate()
            .map(|(q, t)| QueryRun {
                arrival: gap.saturating_mul(q as u64),
                ..if q % 3 == 0 {
                    let mut pages = t.page_sequence();
                    pages.sort_unstable();
                    QueryRun::with_prefetch(t, pages, SimDuration::from_micros(300))
                } else {
                    QueryRun::default_run(t)
                }
            })
            .collect();

        let mut rt1 = Runtime::new(&cfg, vec![20_000]);
        let want = rt1.run(&runs);

        let mut rt2 = Runtime::new(&cfg, vec![20_000]);
        let mut sess = ReplaySession::new();
        let mut pending = runs.iter();
        let mut next = pending.next();
        let (mut max_live, mut completed_at_max) = (0, 0);
        let mut got: Vec<SessionCompletion> = Vec::new();
        while next.is_some() || sess.live() > 0 {
            match next {
                Some(run)
                    if sess
                        .next_event_time()
                        .is_none_or(|t| SimTime::ZERO + run.arrival <= t) =>
                {
                    sess.inject(&mut rt2, run.clone(), SimTime::ZERO + run.arrival);
                    next = pending.next();
                }
                _ => got.extend(sess.step(&mut rt2)),
            }
            assert_eq!(sess.live.len(), sess.injected - got.len());
            if sess.live() >= max_live {
                max_live = sess.live();
                completed_at_max = got.len();
            }
        }
        assert_eq!(sess.injected, 300);
        assert!((2..=4).contains(&max_live), "max live {max_live}");
        assert!(completed_at_max > 150, "completed {completed_at_max}");
        assert!(
            sess.live.capacity() <= 8,
            "the session grew with the queries it finished: {}",
            sess.live.capacity()
        );
        sess.finish(&mut rt2);

        assert_eq!(got.len(), want.timings.len());
        got.sort_by_key(|c| c.slot);
        for (got, want) in got.iter().zip(&want.timings) {
            assert_eq!(
                (got.timing.arrival, got.timing.start, got.timing.end),
                (want.arrival, want.start, want.end)
            );
        }
        assert_eq!(rt2.stats(), want.stats);
        assert_eq!(rt2.now(), rt1.now());
    }

    #[test]
    fn queries_at_one_instant_step_in_slot_order() {
        // CPU-only traces keep the timelines in exact lockstep, so every
        // round is a tie: the lowest live slot steps first, both while slot 0
        // is live and once its removal has shifted the live list.
        let cfg = config();
        let cpu = |events: usize| -> Trace {
            std::iter::repeat_n(TraceEvent::Cpu { units: 5 }, events).collect()
        };
        let (short, long) = (cpu(2), cpu(3));
        let mut rt = Runtime::new(&cfg, vec![20_000]);
        let mut sess = ReplaySession::new();
        for t in [&short, &long, &long, &long] {
            sess.inject(&mut rt, QueryRun::default_run(t), SimTime::ZERO);
        }
        let mut completed = Vec::new();
        while sess.live() > 0 {
            completed.push(sess.step(&mut rt).map(|c| c.slot));
        }
        let n = None;
        assert_eq!(
            completed,
            [n, n, n, n, Some(0), n, n, n, Some(1), Some(2), Some(3)]
        );
    }

    #[test]
    fn session_empty_trace_completes_at_injection() {
        let cfg = config();
        let t = Trace::new();
        let mut rt = Runtime::new(&cfg, vec![20_000]);
        let mut sess = ReplaySession::new();
        let at = SimTime::from_micros(123);
        let (slot, done) = sess.inject(&mut rt, QueryRun::default_run(&t), at);
        let done = done.expect("empty trace completes instantly");
        assert_eq!((slot, done.slot), (0, 0));
        assert_eq!(done.timing.start, at);
        assert_eq!(done.timing.end, at);
        assert_eq!(sess.live(), 0);
        assert!(sess.step(&mut rt).is_none(), "nothing live to step");
        sess.finish(&mut rt);
        assert_eq!(rt.now(), at);
    }
}
