//! # pythia-obs
//!
//! Zero-dependency structured tracing and metrics for the whole
//! reproduction — the introspection layer the serving path (admission,
//! replay, the socket front end) is debugged through.
//!
//! The central type is [`Recorder`]: a sink for
//!
//! * **counters** — monotonic named totals (`reads.hit`, `prefetch.issued`);
//! * **histograms** — fixed log₂-bucket latency distributions
//!   ([`hist::Histogram`]), so recording is O(1) with no allocation;
//! * **events** — timestamped spans and instants on named *tracks*
//!   (Chrome trace-event model: a track is a `(pid, tid)` pair).
//!
//! Two clock domains coexist in one trace:
//!
//! * [`VIRTUAL_PID`] — events stamped with the simulator's deterministic
//!   microsecond clock (`pythia-sim`'s `SimTime`). Given the same seed and a
//!   fixed inference charge these are **byte-identical across runs** —
//!   traces are diffable artifacts.
//! * [`WALL_PID`] — real wall-clock spans from the shared NN worker pool
//!   (tasks, training epochs, held-out F1; [`wall`]), inherently
//!   non-deterministic and therefore kept on a separate process track (and
//!   excluded from [`Recorder::virtual_trace_json`]).
//!
//! Events have **one store**, [`flight::EventLog`]: a log of 80-byte slots,
//! decoded into [`Event`]s for readers. Tracks are not declared: an export
//! names each track it has an event on by one rule over its ids
//! (`tid::name`: `serving-loop`, `query-7`, `nn-worker-1`, ...). Each
//! `span`/`instant`/`flow` is one write and no allocation; what varies per
//! recorder is only the log's *retention*, kept only where something reads
//! it, and whether metrics are kept:
//!
//! | constructor | counters, histograms | events |
//! |---|---|---|
//! | [`Recorder::disabled`] (the default) | dropped (one branch each) | none (one branch each) |
//! | [`Recorder::bounded`] — a long-lived process | kept | last N |
//! | [`Recorder::enabled`] — a capture | kept | all |
//!
//! *Last N* is a fixed ring (N = 4096, 320 KiB) allocated at start, and
//! nothing else per event or per track (see [`Recorder::bounded`]); a
//! disabled recorder gets one from
//! [`Recorder::set_flight_publisher`] or [`Recorder::set_flight_capacity`].
//! *All* grows with every event: it is what tests, trace export and the
//! trace-diff gate read through [`Recorder::events`] and the two trace
//! exports, and nothing a server should run with. See [`flight`].
//!
//! Export formats:
//!
//! * [`Recorder::chrome_trace_json`] — Chrome trace-event JSON (an array,
//!   one event per line), loadable in Perfetto (<https://ui.perfetto.dev>)
//!   or `chrome://tracing`.
//! * [`Recorder::snapshot`] → [`snapshot::MetricsSnapshot`] — counters and
//!   histogram summaries as deterministic JSON (the `obs.*` rows of
//!   `benchmark/run.sh --trace` price it), and as Prometheus text exposition
//!   ([`snapshot::MetricsSnapshot::to_prometheus`]), which the query front
//!   (`pythia_core::frontend`) serves at `/metrics`.
//!
//! Data crosses threads once in each direction. Pool workers have no
//! recorder: they reach one through the [`wall`] capture channel (one
//! switch, one buffer of task / epoch / held-out-F1 records), which the
//! recorder's owner drains with [`Recorder::absorb_wall`]. The serving loop
//! reaches the listener's handler threads through [`Shared`] cells: each
//! tenant's `/t/<tenant>/health` body, the `/metrics` snapshot, the
//! `/debug/slow` log and the latest flight dump.
//! [`diff`] reduces an exported trace back into a structural summary so CI
//! can gate on virtual-trace drift.
//!
//! Under either retention the log's tail, if any, is the black-box flight
//! recorder: anomaly triggers ([`Recorder::trigger_flight`]: shed bursts, slow
//! requests) dump the last N events — every argument intact,
//! ending with the trigger's own `flight.trigger` instant — as a loadable
//! Chrome trace to a [`Shared`] cell, served at `/debug/flight`.
//! [`request`] carries the request identity (`RequestId`, per-request
//! latency breakdowns, the `/debug/slow` top-K log) that the serving loop's
//! `request.*` span trees are built on.

pub mod chrome;
pub mod diff;
pub mod flight;
pub mod hist;
pub mod http;
pub mod request;
pub mod snapshot;
pub mod wall;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use flight::{EventLog, Kind, Retention, DEFAULT_CAPACITY};
use hist::Histogram;
use snapshot::MetricsSnapshot;

/// Lock a shared cell, taking the data back from a poisoned lock. For cells
/// whose every update leaves them readable at each step — replace the value;
/// insert into the slow log, then truncate it; push to or pop from a queue —
/// so that the pump and the socket handlers do not die of someone else's
/// panic.
pub fn lock<T>(cell: &Mutex<T>) -> MutexGuard<'_, T> {
    cell.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A value one thread publishes and others read: a tenant's health body, the
/// `/metrics` snapshot, the `/debug/slow` log, the latest flight dump. Every
/// access goes through [`lock`], so no caller can forget to recover a
/// poisoned lock. Cheap to clone; clones share the value.
#[derive(Debug, Clone, Default)]
pub struct Shared<T>(Arc<Mutex<T>>);

impl<T> Shared<T> {
    /// Replace the value.
    pub fn set(&self, value: T) {
        *lock(&self.0) = value;
    }

    /// Run `f` on the value in place: update it, or render it without a copy.
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        f(&mut lock(&self.0))
    }
}

impl<T: Clone> Shared<T> {
    /// A copy of the current value.
    pub fn get(&self) -> T {
        lock(&self.0).clone()
    }
}

/// A non-negative float statistic as integer millionths (0 for NaN or a
/// negative): the `*_e6` fixed-point export of the training and quality
/// telemetry, whose trace args and histograms are `u64`.
pub fn to_e6(value: f64) -> u64 {
    if value.is_finite() && value > 0.0 {
        (value * 1e6).round() as u64
    } else {
        0
    }
}

/// Process id for deterministic virtual-time tracks.
pub const VIRTUAL_PID: u32 = 1;
/// Process id for wall-clock tracks (NN worker pool).
pub const WALL_PID: u32 = 2;

/// Well-known thread ids within [`VIRTUAL_PID`]. Per-entity tracks are
/// `base + index` for one of four [`tid::Kind`]s, the index wrapped within
/// the kind's range (its base up to the next kind's), so a long-lived
/// server's counters never spill into another kind's tids.
pub mod tid {
    /// The serving loop's admission track.
    pub const SERVER: u32 = 0;
    /// Buffer-manager-wide events (evictions of unused prefetched pages).
    pub const BUFFER: u32 = 1;
    /// Streaming quality telemetry: `quality.observe` instants emitted by
    /// `pythia_core::quality::QualityTracker`.
    pub const QUALITY: u32 = 2;
    /// Flight-recorder trigger instants (`flight.trigger`).
    pub const FLIGHT: u32 = 3;
    /// `IO_BASE + lane` — one track per async I/O worker lane.
    pub const IO_BASE: u32 = 10;
    /// `QUERY_BASE + n` — one track per replayed query (monotone counter).
    pub const QUERY_BASE: u32 = 1_000;
    /// `PREFETCH_BASE + stream` — one track per AIO prefetcher stream.
    pub const PREFETCH_BASE: u32 = 1_000_000;
    /// `REQUEST_BASE + request id` — one track per served request's
    /// `request.*` span tree ([`crate::request::request_track`]).
    pub const REQUEST_BASE: u32 = 2_000_000;

    /// A kind of per-entity track, in tid order.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Kind {
        IoLane,
        Query,
        PrefetchStream,
        Request,
    }

    /// Each kind's first tid and name prefix, by `Kind as usize`. A kind's
    /// range ends where the next kind's starts, the last one's at 2³².
    const KINDS: [(Kind, u32, &str); 4] = [
        (Kind::IoLane, IO_BASE, "io-lane"),
        (Kind::Query, QUERY_BASE, "query"),
        (Kind::PrefetchStream, PREFETCH_BASE, "prefetch-stream"),
        (Kind::Request, REQUEST_BASE, "request"),
    ];

    impl Kind {
        /// The tid of entity `index`: `base + index`, the index wrapped
        /// within the kind's range.
        pub const fn tid(self, index: u64) -> u32 {
            let k = self as usize;
            let base = KINDS[k].1;
            let end = if k + 1 < KINDS.len() {
                KINDS[k + 1].1 as u64
            } else {
                1 << 32
            };
            base + (index % (end - base as u64)) as u32
        }

        /// The kind `tid` belongs to, and its index there; `None` below
        /// [`IO_BASE`].
        pub(crate) fn of(tid: u32) -> Option<(Kind, u32)> {
            let &(kind, base, _) = KINDS.iter().rev().find(|k| k.1 <= tid)?;
            Some((kind, tid - base))
        }
    }

    /// The name a trace gives `track` (Perfetto shows it as the thread
    /// name), by rule: the fixed tracks by their tid, a per-entity track as
    /// its kind's prefix and index (`query-7`), a wall track as its pool
    /// worker (`nn-worker-1`) or the held-out evaluation's. Nothing stores a
    /// name: an export derives one for each track it has an event on.
    pub(crate) fn name(track: crate::Track) -> String {
        let fixed = match (track.pid, track.tid) {
            (crate::WALL_PID, crate::wall::EVAL_TID) => "nn-heldout-eval",
            (crate::WALL_PID, worker) => return format!("nn-worker-{worker}"),
            (_, SERVER) => "serving-loop",
            (_, BUFFER) => "buffer-manager",
            (_, QUALITY) => "quality",
            (_, FLIGHT) => "flight-recorder",
            (_, tid) => match Kind::of(tid) {
                Some((kind, index)) => return format!("{}-{index}", KINDS[kind as usize].2),
                None => return format!("track-{tid}"),
            },
        };
        fixed.to_owned()
    }
}

/// One timeline in the trace: a Chrome trace-event `(pid, tid)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Track {
    pub pid: u32,
    pub tid: u32,
}

impl Track {
    /// A track in the deterministic virtual-time process.
    pub const fn virt(tid: u32) -> Track {
        Track {
            pid: VIRTUAL_PID,
            tid,
        }
    }

    /// A track in the wall-clock process.
    pub(crate) const fn wall(tid: u32) -> Track {
        Track { pid: WALL_PID, tid }
    }
}

/// Which end of a flow arrow a flow event marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowDir {
    /// The arrow's origin (Chrome phase `s`).
    Start,
    /// The arrow's destination (Chrome phase `f`, binding point `e`).
    Finish,
}

/// Most `(key, value)` argument pairs one event carries (the widest call
/// site today, `quality.observe`, has exactly this many).
pub const MAX_ARGS: usize = 6;

/// An event's arguments, stored inline so an [`Event`] is `Copy` and
/// recording never allocates. Derefs to the pairs it holds.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Args {
    len: u8,
    /// Slots past `len` stay `("", 0)`, which keeps the derived `Eq` exact.
    pairs: [(&'static str, u64); MAX_ARGS],
}

impl Args {
    /// Copy `args` inline. More than [`MAX_ARGS`] pairs is a bug at the call
    /// site (widen the constant): it fails debug builds rather than being
    /// truncated silently.
    #[inline]
    pub(crate) fn new(args: &[(&'static str, u64)]) -> Args {
        debug_assert!(args.len() <= MAX_ARGS, "{} args > MAX_ARGS", args.len());
        let len = args.len().min(MAX_ARGS);
        let mut pairs = [("", 0); MAX_ARGS];
        pairs[..len].copy_from_slice(&args[..len]);
        Args {
            len: len as u8,
            pairs,
        }
    }
}

impl std::ops::Deref for Args {
    type Target = [(&'static str, u64)];

    #[inline]
    fn deref(&self) -> &Self::Target {
        &self.pairs[..self.len as usize]
    }
}

impl std::fmt::Debug for Args {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// One recorded trace event, as an [`EventLog`] decodes it from its slot.
/// Spans carry a duration; instants do not. Arguments are `(key, value)`
/// pairs with static keys, held inline: recording an event allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    pub track: Track,
    /// Chrome trace category (groups related events in the UI).
    pub cat: &'static str,
    pub name: &'static str,
    /// Event timestamp (span start for spans), in microseconds.
    pub ts_us: u64,
    /// Span duration in microseconds; `None` marks an instant event.
    pub dur_us: Option<u64>,
    /// `Some((id, dir))` marks a flow event — an arrow endpoint linking
    /// tracks. Flow events have no duration; `dur_us` is ignored for them.
    pub flow: Option<(u64, FlowDir)>,
    pub args: Args,
}

#[derive(Debug, Default)]
struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Histogram>,
}

/// The recording sink threaded through the stack. Disabled by default:
/// metric and event calls on a disabled recorder are a single branch each,
/// and it keeps no event ring until something can read one (see
/// [`Recorder::set_flight_publisher`]).
#[derive(Debug, Default)]
pub struct Recorder {
    /// Counters and histograms; `None` drops them.
    metrics: Option<Box<Metrics>>,
    /// The one event store, under this recorder's retention.
    log: EventLog,
    /// Live publication target for flight dumps, if attached.
    flight_publisher: Option<Shared<Option<String>>>,
}

impl Recorder {
    /// A recorder that keeps no metrics and no events (the default), until a
    /// flight publisher or capacity gives it a tail.
    pub fn disabled() -> Recorder {
        Recorder::default()
    }

    /// A capture: counters, histograms and **every** event. Memory grows
    /// with each event, so this is for runs that end — tests, trace export.
    pub fn enabled() -> Recorder {
        Recorder {
            metrics: Some(Box::default()),
            log: EventLog::new(Retention::All, DEFAULT_CAPACITY),
            ..Recorder::default()
        }
    }

    /// The long-lived recorder: counters and histograms like
    /// [`Recorder::enabled`], and the last N events, for flight dumps.
    /// Its event memory is fixed at start: the 320 KiB ring and nothing per
    /// track, since a dump derives each track's name from its ids
    /// (`tid::name`). So it holds the same heap after its first request
    /// as after thousands more (`tests/bounded_memory.rs`).
    pub fn bounded() -> Recorder {
        Recorder {
            metrics: Some(Box::default()),
            log: EventLog::new(Retention::LastN, DEFAULT_CAPACITY),
            ..Recorder::default()
        }
    }

    /// Whether this recorder keeps metrics. Hot paths with non-trivial
    /// argument preparation should check this first.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.metrics.is_some()
    }

    /// Record a span `[start_us, end_us]` (saturating if reversed).
    #[inline]
    pub fn span(
        &mut self,
        track: Track,
        cat: &'static str,
        name: &'static str,
        start_us: u64,
        end_us: u64,
        args: &[(&'static str, u64)],
    ) {
        let dur_us = end_us.saturating_sub(start_us);
        self.log
            .record(track, Kind::Span, dur_us, cat, name, start_us, args);
    }

    /// Record an instant event at `ts_us`.
    #[inline]
    pub fn instant(
        &mut self,
        track: Track,
        cat: &'static str,
        name: &'static str,
        ts_us: u64,
        args: &[(&'static str, u64)],
    ) {
        self.log
            .record(track, Kind::Instant, 0, cat, name, ts_us, args);
    }

    /// Record one endpoint of a flow arrow (`id` pairs the two endpoints;
    /// the arrow is drawn from the `Start` event's track to the `Finish`
    /// event's track). Used to link a request's span tree to the replay
    /// track that actually served it.
    #[inline]
    pub fn flow(
        &mut self,
        track: Track,
        cat: &'static str,
        name: &'static str,
        ts_us: u64,
        id: u64,
        dir: FlowDir,
    ) {
        self.log
            .record(track, Kind::Flow(dir), id, cat, name, ts_us, &[]);
    }

    /// Add `delta` to a named monotonic counter.
    #[inline]
    pub fn add(&mut self, counter: &'static str, delta: u64) {
        let Some(m) = self.metrics.as_mut() else {
            return;
        };
        *m.counters.entry(counter).or_insert(0) += delta;
    }

    /// Record `value` into a named histogram.
    #[inline]
    pub fn observe(&mut self, hist: &'static str, value: u64) {
        let Some(m) = self.metrics.as_mut() else {
            return;
        };
        m.hists.entry(hist).or_default().record(value);
    }

    /// Current value of a counter (0 if never touched or disabled).
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics
            .as_ref()
            .and_then(|m| m.counters.get(name).copied())
            .unwrap_or(0)
    }

    /// The captured events in insertion order: everything recorded, for an
    /// [`Recorder::enabled`] recorder; empty for the two that keep at most a
    /// tail (read that through [`Recorder::flight`]).
    pub fn events(&self) -> Vec<Event> {
        self.log.captured().collect()
    }

    /// Number of captured events with the given name.
    pub fn event_count(&self, name: &str) -> usize {
        self.log.captured().filter(|e| e.name == name).count()
    }

    /// Fold the capture channel's records (from [`wall::drain`]) into the
    /// trace's [`WALL_PID`] process: pool tasks and training epochs as spans
    /// on one `nn-worker-N` track per worker, held-out F1 evaluations as
    /// instants on [`wall::EVAL_TID`]; plus epoch counters (`nn.train.epochs`
    /// / `nn.refine.epochs`, models trained / refined) and loss,
    /// gradient-norm and F1 histograms. Tasks come first, sorted by `(start,
    /// worker, item)`, then training records by `(start, worker, model,
    /// epoch)`, for a stable layout; wall timestamps are inherently
    /// non-deterministic, so none of this appears in
    /// [`Self::virtual_trace_json`].
    pub fn absorb_wall(&mut self, mut recs: Vec<wall::Record>) {
        if self.metrics.is_none() {
            return;
        }
        recs.sort_by_key(|r| match *r {
            wall::Record::Task(t) => (false, t.start_us, t.worker, t.item, 0),
            wall::Record::Epoch(e) => (true, e.start_us, e.worker, e.model, e.epoch),
            wall::Record::HeldoutF1 { query, at_us, .. } => (true, at_us, u32::MAX, query, 0),
        });
        let (mut trained, mut refined) = (BTreeSet::new(), BTreeSet::new());
        for r in recs {
            match r {
                wall::Record::Task(t) => {
                    let track = Track::wall(t.worker);
                    // A request-labeled task names the serving request whose
                    // admission drove it.
                    let args = [("item", t.item), ("request", t.req)];
                    let args = &args[..if t.req != 0 { 2 } else { 1 }];
                    let (start, end) = (t.start_us, t.start_us + t.dur_us);
                    self.span(track, "nn", t.label, start, end, args);
                }
                wall::Record::Epoch(e) => {
                    let track = Track::wall(e.worker);
                    let (name, counter, models) = if e.refine {
                        ("nn.refine.epoch", "nn.refine.epochs", &mut refined)
                    } else {
                        ("nn.epoch", "nn.train.epochs", &mut trained)
                    };
                    models.insert(e.model);
                    self.span(
                        track,
                        "nn",
                        name,
                        e.start_us,
                        e.start_us + e.dur_us,
                        &[
                            ("model", e.model),
                            ("epoch", e.epoch as u64),
                            ("steps", e.steps as u64),
                            ("loss_e6", e.loss_e6),
                            ("grad_norm_e6", e.grad_norm_e6),
                        ],
                    );
                    self.add(counter, 1);
                    self.observe("nn.epoch_loss_e6", e.loss_e6);
                    self.observe("nn.grad_norm_e6", e.grad_norm_e6);
                }
                wall::Record::HeldoutF1 {
                    query,
                    f1_e6,
                    at_us,
                } => {
                    let track = Track::wall(wall::EVAL_TID);
                    let args = [("query", query), ("f1_e6", f1_e6)];
                    self.instant(track, "nn", "nn.heldout_f1", at_us, &args);
                    self.add("nn.heldout.evals", 1);
                    self.observe("nn.heldout_f1_e6", f1_e6);
                }
            }
        }
        for (counter, models) in [
            ("nn.models_trained", trained),
            ("nn.models_refined", refined),
        ] {
            if !models.is_empty() {
                self.add(counter, models.len() as u64);
            }
        }
    }

    /// Attach a live publication target for flight dumps:
    /// [`Recorder::trigger_flight`] will render and publish the log's tail
    /// into `shared`, which `/debug/flight` serves. A recorder with no tail
    /// gets the default one, since its tail now has a reader.
    pub fn set_flight_publisher(&mut self, shared: Shared<Option<String>>) {
        self.flight_publisher = Some(shared);
        if !self.log.is_active() {
            self.log.set_capacity(DEFAULT_CAPACITY);
        }
    }

    /// Change the tail length: the ring size of a last-N recorder (0 stops
    /// event recording entirely; whatever the ring held is dropped), the
    /// dump length of a capture (0 only turns triggers off).
    pub fn set_flight_capacity(&mut self, capacity: usize) {
        self.log.set_capacity(capacity);
    }

    /// The event log (for retention checks and tests); its tail is what a
    /// flight dump renders.
    pub fn flight(&self) -> &EventLog {
        &self.log
    }

    /// Fire an anomaly trigger: stamp a `flight.trigger` instant (category
    /// = `reason`, arg `seq` = events recorded before it) on the flight
    /// track, bump the `flight.triggers` counter, and — if a flight cell is
    /// attached — render the tail to Chrome-trace JSON and publish it as a
    /// postmortem dump, whose last event is that instant. Without a
    /// publisher the trigger is cheap (no rendering), so hot-path callers
    /// (the per-completion slow-request check) can fire unconditionally.
    pub fn trigger_flight(&mut self, reason: &'static str, ts_us: u64) {
        if !self.log.is_active() {
            return;
        }
        let seq = self.log.seq();
        self.instant(
            Track::virt(tid::FLIGHT),
            reason,
            "flight.trigger",
            ts_us,
            &[("seq", seq)],
        );
        self.add("flight.triggers", 1);
        if let Some(p) = &self.flight_publisher {
            p.set(Some(self.flight_dump_json()));
        }
    }

    /// Render the log's tail (plus the names of the tracks it has events on)
    /// as Chrome trace-event JSON — the `/debug/flight` body and the
    /// `--flight-out` file format.
    pub fn flight_dump_json(&self) -> String {
        self.log.tail_json()
    }

    /// The captured trace (virtual + wall events) as Chrome trace-event JSON.
    pub fn chrome_trace_json(&self) -> String {
        self.log.trace_json(None)
    }

    /// Only the deterministic virtual-time events — byte-identical across
    /// runs with the same seed (and a fixed inference charge).
    pub fn virtual_trace_json(&self) -> String {
        self.log.trace_json(Some(VIRTUAL_PID))
    }

    /// Snapshot of counters and histogram summaries.
    pub fn snapshot(&self) -> MetricsSnapshot {
        match self.metrics.as_ref() {
            None => MetricsSnapshot::default(),
            Some(m) => MetricsSnapshot {
                counters: m
                    .counters
                    .iter()
                    .map(|(&k, &v)| (k.to_owned(), v))
                    .collect(),
                hists: m
                    .hists
                    .iter()
                    .map(|(&k, h)| (k.to_owned(), h.summary()))
                    .collect(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::disabled();
        assert!(!r.is_enabled());
        r.span(Track::virt(1), "c", "s", 0, 10, &[]);
        r.instant(Track::virt(1), "c", "i", 5, &[("k", 1)]);
        r.add("n", 3);
        r.observe("h", 7);
        assert!(r.events().is_empty());
        assert_eq!(r.counter("n"), 0);
        assert_eq!(r.chrome_trace_json(), "[\n]\n");
        // ...and no tail either: nothing reads one, so the log keeps none
        // and the recorder is a true no-op.
        assert_eq!(r.flight().tail_len(), 0);
        assert_eq!(r.flight().seq(), 0);
        assert_eq!(r.flight_dump_json(), "[\n]\n");
        // Given a tail length, the same calls fill a tail, for flight dumps
        // only.
        let mut r = Recorder::disabled();
        r.set_flight_capacity(DEFAULT_CAPACITY);
        r.span(Track::virt(1), "c", "s", 0, 10, &[]);
        r.instant(Track::virt(1), "c", "i", 5, &[("k", 1)]);
        assert!(r.events().is_empty());
        assert_eq!(r.flight().tail_len(), 2);
        assert!(r.flight_dump_json().contains("\"name\":\"buffer-manager\""));
    }

    /// Events are kept only where something can read them: a recorder that
    /// nothing dumps from takes every kind of event and keeps none; a flight
    /// publisher gives it the default tail.
    #[test]
    fn a_recorder_without_a_reader_keeps_no_events() {
        for mut r in [Recorder::disabled(), Recorder::default()] {
            for i in 0..10_000u64 {
                let track = Track::virt(tid::Kind::Query.tid(i));
                r.span(track, "c", "s", i, i + 3, &[("i", i)]);
                r.instant(track, "c", "i", i, &[("i", i), ("j", 1)]);
                r.flow(track, "c", "f", i, i, FlowDir::Start);
            }
            assert_eq!((r.flight().tail_len(), r.flight().seq()), (0, 0));
            assert_eq!(r.flight_dump_json(), "[\n]\n");
            r.set_flight_publisher(Shared::default());
            for i in 0..5_000u64 {
                r.instant(Track::virt(0), "c", "i", i, &[]);
            }
            assert_eq!(r.flight().tail_len(), 4_096);
            assert_eq!(r.flight().seq(), 5_000);
        }
    }

    #[test]
    fn enabled_recorder_keeps_everything() {
        let mut r = Recorder::enabled();
        r.span(Track::virt(5), "query", "replay", 10, 30, &[("q", 0)]);
        r.instant(Track::virt(5), "read", "read.hit", 12, &[("page", 9)]);
        r.add("reads.hit", 1);
        r.add("reads.hit", 2);
        r.observe("lat", 20);
        assert_eq!(r.events().len(), 2);
        assert_eq!(r.event_count("read.hit"), 1);
        assert_eq!(r.counter("reads.hit"), 3);
        let e = r.events()[0];
        assert_eq!(e.dur_us, Some(20));
        assert_eq!(r.events()[1].dur_us, None);
    }

    #[test]
    fn span_saturates_reversed_interval() {
        let mut r = Recorder::enabled();
        r.span(Track::virt(0), "c", "s", 50, 30, &[]);
        assert_eq!(r.events()[0].dur_us, Some(0));
    }

    #[test]
    fn virtual_filter_excludes_wall_events() {
        let mut r = Recorder::enabled();
        r.span(Track::virt(0), "c", "virtual_span", 0, 1, &[]);
        r.absorb_wall(vec![wall::Record::Task(wall::WallTask {
            label: "nn.train",
            worker: 2,
            item: 7,
            req: 0,
            start_us: 100,
            dur_us: 5,
        })]);
        let full = r.chrome_trace_json();
        let virt = r.virtual_trace_json();
        assert!(full.contains("nn.train") && full.contains("virtual_span"));
        assert!(!virt.contains("nn.train"));
        assert!(virt.contains("virtual_span"));
    }

    /// Byte pin for the two capture exports: the event lines were produced
    /// by the two-store recorder this log replaced, so a capture's events
    /// (what the trace-diff gate and the golden summary read) have not
    /// moved. The metadata names each track with an event, in (pid, tid)
    /// order, by the naming rule.
    #[test]
    fn capture_exports_are_byte_pinned() {
        let mut r = Recorder::enabled();
        let q = Track::virt(1000);
        r.span(
            q,
            "query",
            "query.replay",
            10,
            35,
            &[("q", 0), ("pages", 12)],
        );
        r.instant(q, "read", "read.hit", 12, &[]);
        let six = [("a", 1), ("b", 2), ("c", 3), ("d", 4), ("e", 5), ("f", 6)];
        r.instant(Track::virt(2), "quality", "quality.observe", 40, &six);
        let lane = Track::virt(2_000_001);
        r.flow(lane, "request", "request.flow", 41, 7, FlowDir::Start);
        r.flow(q, "request", "request.flow", 42, 7, FlowDir::Finish);
        r.absorb_wall(vec![wall::Record::Task(wall::WallTask {
            label: "nn.infer",
            worker: 3,
            item: 5,
            req: 9,
            start_us: 100,
            dur_us: 8,
        })]);
        let virt = [
            r#"{"ph":"M","pid":1,"tid":2,"name":"thread_name","args":{"name":"quality"}}"#,
            r#"{"ph":"M","pid":1,"tid":1000,"name":"thread_name","args":{"name":"query-0"}}"#,
            r#"{"ph":"M","pid":1,"tid":2000001,"name":"thread_name","args":{"name":"request-1"}}"#,
            r#"{"ph":"X","pid":1,"tid":1000,"ts":10,"dur":25,"cat":"query","name":"query.replay","args":{"q":0,"pages":12}}"#,
            r#"{"ph":"i","pid":1,"tid":1000,"ts":12,"s":"t","cat":"read","name":"read.hit","args":{}}"#,
            r#"{"ph":"i","pid":1,"tid":2,"ts":40,"s":"t","cat":"quality","name":"quality.observe","args":{"a":1,"b":2,"c":3,"d":4,"e":5,"f":6}}"#,
            r#"{"ph":"s","pid":1,"tid":2000001,"ts":41,"id":7,"cat":"request","name":"request.flow","args":{}}"#,
            r#"{"ph":"f","bp":"e","pid":1,"tid":1000,"ts":42,"id":7,"cat":"request","name":"request.flow","args":{}}"#,
        ];
        let vproc = r#"{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"pythia-virtual (sim time)"}}"#;
        let wproc = r#"{"ph":"M","pid":2,"tid":0,"name":"process_name","args":{"name":"pythia-wall (host time)"}}"#;
        let wname =
            r#"{"ph":"M","pid":2,"tid":3,"name":"thread_name","args":{"name":"nn-worker-3"}}"#;
        let wtask = r#"{"ph":"X","pid":2,"tid":3,"ts":100,"dur":8,"cat":"nn","name":"nn.infer","args":{"item":5,"request":9}}"#;
        let array = |lines: &[&str]| format!("[\n{}\n]\n", lines.join(",\n"));
        let mut want = vec![vproc];
        want.extend(virt);
        assert_eq!(r.virtual_trace_json(), array(&want));
        let mut want = vec![vproc, wproc];
        want.extend(&virt[..3]);
        want.push(wname);
        want.extend(&virt[3..]);
        want.push(wtask);
        assert_eq!(r.chrome_trace_json(), array(&want));
    }

    /// Byte pin for the capture channel: these strings were produced at the
    /// parent of the merge, by the two channels' two absorb calls (tasks, then
    /// training records) over the same records. One mixed, out-of-order drain
    /// must yield the same spans, instants, counters and histograms.
    #[test]
    fn absorb_wall_builds_spans_counters_and_hists() {
        let mut r = Recorder::enabled();
        let task = |worker, item, req, start_us| {
            wall::Record::Task(wall::WallTask {
                label: "nn.train",
                worker,
                item,
                req,
                start_us,
                dur_us: 7,
            })
        };
        let epoch = |worker, model: u64, epoch: u32, refine, start_us| {
            wall::Record::Epoch(wall::EpochRec {
                refine,
                worker,
                model,
                epoch,
                steps: 3,
                loss_e6: 500_000 / (epoch as u64 + 1),
                grad_norm_e6: 1_000 * (model + 1),
                start_us,
                dur_us: 40,
            })
        };
        let f1 = |query, f1_e6| wall::Record::HeldoutF1 {
            query,
            f1_e6,
            at_us: 900,
        };
        r.absorb_wall(vec![
            epoch(1, 2, 1, false, 260),
            task(1, 2, 0, 300),
            f1(1, 750_000),
            task(0, 1, 9, 100),
            epoch(1, 2, 0, false, 120),
            epoch(3, 4, 0, true, 120),
            task(1, 0, 0, 100),
            f1(0, 500_000),
            task(0, 3, 0, 50),
            epoch(3, 5, 0, false, 120),
        ]);
        let want = [
            r#"{"ph":"M","pid":2,"tid":0,"name":"process_name","args":{"name":"pythia-wall (host time)"}}"#,
            r#"{"ph":"M","pid":2,"tid":0,"name":"thread_name","args":{"name":"nn-worker-0"}}"#,
            r#"{"ph":"M","pid":2,"tid":1,"name":"thread_name","args":{"name":"nn-worker-1"}}"#,
            r#"{"ph":"M","pid":2,"tid":3,"name":"thread_name","args":{"name":"nn-worker-3"}}"#,
            r#"{"ph":"M","pid":2,"tid":9999,"name":"thread_name","args":{"name":"nn-heldout-eval"}}"#,
            r#"{"ph":"X","pid":2,"tid":0,"ts":50,"dur":7,"cat":"nn","name":"nn.train","args":{"item":3}}"#,
            r#"{"ph":"X","pid":2,"tid":0,"ts":100,"dur":7,"cat":"nn","name":"nn.train","args":{"item":1,"request":9}}"#,
            r#"{"ph":"X","pid":2,"tid":1,"ts":100,"dur":7,"cat":"nn","name":"nn.train","args":{"item":0}}"#,
            r#"{"ph":"X","pid":2,"tid":1,"ts":300,"dur":7,"cat":"nn","name":"nn.train","args":{"item":2}}"#,
            r#"{"ph":"X","pid":2,"tid":1,"ts":120,"dur":40,"cat":"nn","name":"nn.epoch","args":{"model":2,"epoch":0,"steps":3,"loss_e6":500000,"grad_norm_e6":3000}}"#,
            r#"{"ph":"X","pid":2,"tid":3,"ts":120,"dur":40,"cat":"nn","name":"nn.refine.epoch","args":{"model":4,"epoch":0,"steps":3,"loss_e6":500000,"grad_norm_e6":5000}}"#,
            r#"{"ph":"X","pid":2,"tid":3,"ts":120,"dur":40,"cat":"nn","name":"nn.epoch","args":{"model":5,"epoch":0,"steps":3,"loss_e6":500000,"grad_norm_e6":6000}}"#,
            r#"{"ph":"X","pid":2,"tid":1,"ts":260,"dur":40,"cat":"nn","name":"nn.epoch","args":{"model":2,"epoch":1,"steps":3,"loss_e6":250000,"grad_norm_e6":3000}}"#,
            r#"{"ph":"i","pid":2,"tid":9999,"ts":900,"s":"t","cat":"nn","name":"nn.heldout_f1","args":{"query":0,"f1_e6":500000}}"#,
            r#"{"ph":"i","pid":2,"tid":9999,"ts":900,"s":"t","cat":"nn","name":"nn.heldout_f1","args":{"query":1,"f1_e6":750000}}"#,
        ];
        assert_eq!(
            r.chrome_trace_json(),
            format!("[\n{}\n]\n", want.join(",\n"))
        );
        assert_eq!(
            r.snapshot().to_json(),
            concat!(
                r#"{"counters":{"nn.heldout.evals":2,"nn.models_refined":1,"nn.models_trained":2,"nn.refine.epochs":1,"nn.train.epochs":3},"#,
                r#""histograms_us":{"nn.epoch_loss_e6":{"count":4,"sum":1750000,"min":250000,"max":500000,"p50":500000,"p90":500000,"p95":500000,"p99":500000},"#,
                r#""nn.grad_norm_e6":{"count":4,"sum":17000,"min":3000,"max":6000,"p50":4095,"p90":6000,"p95":6000,"p99":6000},"#,
                r#""nn.heldout_f1_e6":{"count":2,"sum":1250000,"min":500000,"max":750000,"p50":524287,"p90":750000,"p95":750000,"p99":750000}}}"#,
            )
        );
        // Wall-clock capture: the virtual trace stays clean.
        assert_eq!(r.virtual_trace_json(), "[\n]\n");
    }

    #[test]
    fn to_e6_rounds_and_floors_at_zero() {
        assert_eq!(to_e6(0.123_456_7), 123_457);
        assert_eq!(to_e6(0.0), 0);
        assert_eq!(to_e6(-1.0), 0);
        assert_eq!(to_e6(f64::NAN), 0);
    }

    #[test]
    fn snapshot_collects_counters_and_hists() {
        let mut r = Recorder::enabled();
        r.add("b", 2);
        r.add("a", 1);
        r.observe("h", 10);
        let s = r.snapshot();
        assert_eq!(
            s.counters,
            vec![("a".to_owned(), 1), ("b".to_owned(), 2)],
            "counters are sorted by name"
        );
        assert_eq!(s.hists.len(), 1);
        assert_eq!(s.hists[0].1.count, 1);
    }

    #[test]
    fn flow_events_link_tracks_in_both_exports() {
        let mut r = Recorder::enabled();
        r.flow(
            Track::virt(5),
            "request",
            "request.flow",
            10,
            42,
            FlowDir::Start,
        );
        r.flow(
            Track::virt(9),
            "request",
            "request.flow",
            12,
            42,
            FlowDir::Finish,
        );
        assert_eq!(r.events().len(), 2);
        assert_eq!(r.events()[0].flow, Some((42, FlowDir::Start)));
        let json = r.chrome_trace_json();
        assert!(json.contains("\"ph\":\"s\""), "{json}");
        assert!(json.contains("\"ph\":\"f\",\"bp\":\"e\""), "{json}");
        assert!(json.contains("\"id\":42"), "{json}");
        // Flow endpoints are part of the tail too.
        assert_eq!(r.flight().tail_len(), 2);
        assert!(r.flight_dump_json().contains("\"ph\":\"s\""));
    }

    #[test]
    fn flight_tail_is_the_last_n_events_under_every_constructor() {
        for make in [Recorder::disabled, Recorder::bounded, Recorder::enabled] {
            let mut r = make();
            // A disabled recorder's tail is the one this length gives it.
            r.set_flight_capacity(4);
            let track = Track::virt(tid::Kind::Query.tid(7));
            for i in 0..9u64 {
                r.span(track, "c", "s", i * 10, i * 10 + 5, &[("i", i)]);
            }
            assert_eq!(r.flight().tail_len(), 4);
            assert_eq!(r.flight().seq(), 9);
            let dump = r.flight_dump_json();
            // Only the last four spans survive: starts 50..=80.
            assert!(!dump.contains("\"ts\":40"), "{dump}");
            for ts in [50, 60, 70, 80] {
                assert!(dump.contains(&format!("\"ts\":{ts}")), "{dump}");
            }
            assert!(dump.contains("\"name\":\"query-7\""), "track named");
        }
        // A tail is not a trace: only a capture reads back through events().
        let mut r = Recorder::bounded();
        r.span(Track::virt(7), "c", "s", 0, 5, &[]);
        assert!(r.is_enabled() && r.events().is_empty());
        assert_eq!(r.chrome_trace_json(), "[\n]\n");
    }

    #[test]
    fn widest_event_reaches_a_flight_dump_intact() {
        let args: [(&'static str, u64); MAX_ARGS] =
            [("a", 1), ("b", 2), ("c", 3), ("d", 4), ("e", 5), ("f", 6)];
        for make in [Recorder::disabled, Recorder::bounded, Recorder::enabled] {
            let mut r = make();
            if !r.flight().is_active() {
                // Only a tail length gives a disabled recorder a tail.
                r.set_flight_capacity(DEFAULT_CAPACITY);
            }
            r.instant(Track::virt(1), "c", "wide", 9, &args);
            assert_eq!(*r.flight().tail()[0].args, args);
            assert!(
                r.flight_dump_json()
                    .contains("\"args\":{\"a\":1,\"b\":2,\"c\":3,\"d\":4,\"e\":5,\"f\":6}"),
                "{}",
                r.flight_dump_json()
            );
        }
    }

    #[test]
    fn trigger_flight_publishes_a_labeled_dump() {
        let shared = Shared::default();
        let mut r = Recorder::disabled();
        r.set_flight_capacity(8);
        r.set_flight_publisher(shared.clone());
        r.span(Track::virt(1), "c", "replay", 0, 100, &[]);
        assert_eq!(shared.get(), None, "no trigger yet");
        r.trigger_flight("shed.burst", 120);
        let dump = shared.get().expect("dump published on trigger");
        assert!(dump.contains("\"name\":\"replay\""), "{dump}");
        assert!(dump.contains("flight-recorder"), "{dump}");
        // The dump ends with its own trigger: the reason is the instant's
        // category, and `seq` counts the one event before it.
        assert_eq!(
            dump.lines().rev().nth(1),
            Some(
                r#"{"ph":"i","pid":1,"tid":3,"ts":120,"s":"t","cat":"shed.burst","name":"flight.trigger","args":{"seq":1}}"#
            ),
            "{dump}"
        );
        // The trigger also leaves durable marks in the recorder itself —
        // but a disabled recorder has no counters, so check the enabled one.
        let mut e = Recorder::enabled();
        e.trigger_flight("slow.request", 5);
        assert_eq!(e.counter("flight.triggers"), 1);
        assert_eq!(e.event_count("flight.trigger"), 1);
        // An inactive ring makes triggers a no-op.
        let mut off = Recorder::enabled();
        off.set_flight_capacity(0);
        off.trigger_flight("slow.request", 5);
        assert_eq!(off.counter("flight.triggers"), 0);
    }

    /// A thread that panicked while holding a cell's lock must not take the
    /// pump (set/with) or the front's route handlers (get/with) down with it.
    #[test]
    fn poisoned_cells_keep_publishing_and_reading() {
        let cell: Shared<Vec<u64>> = Shared::default();
        let held = cell.clone();
        let died = std::thread::spawn(move || {
            held.with(|_| panic!("poisoning the cell on purpose"));
        })
        .join();
        assert!(died.is_err() && cell.0.is_poisoned());
        cell.set(vec![42]);
        assert_eq!(cell.get(), [42]);
        cell.with(|v| v.push(7));
        assert_eq!(cell.with(|v| v.len()), 2);
        assert_eq!(cell.get(), [42, 7]);
    }

    /// Every production track kind renders the name its call site used to
    /// declare for it.
    #[test]
    fn each_track_kind_is_named_as_it_was_declared() {
        let table = [
            (Track::virt(tid::SERVER), "serving-loop"),
            (Track::virt(tid::BUFFER), "buffer-manager"),
            (Track::virt(tid::QUALITY), "quality"),
            (Track::virt(tid::FLIGHT), "flight-recorder"),
            (Track::virt(tid::Kind::IoLane.tid(3)), "io-lane-3"),
            (Track::virt(tid::Kind::Query.tid(7)), "query-7"),
            (
                Track::virt(tid::Kind::PrefetchStream.tid(2)),
                "prefetch-stream-2",
            ),
            (request::request_track(42), "request-42"),
            (Track::wall(1), "nn-worker-1"),
            (Track::wall(wall::EVAL_TID), "nn-heldout-eval"),
        ];
        for (track, name) in table {
            assert_eq!(tid::name(track), name, "{track:?}");
        }
    }

    /// An index wraps within its kind's range instead of spilling into the
    /// next kind's tids, at every boundary, and the add never overflows (a
    /// debug build would panic on it).
    #[test]
    fn per_entity_tids_wrap_within_their_kind() {
        use tid::Kind;
        let kinds = [
            (Kind::IoLane, tid::IO_BASE, tid::QUERY_BASE as u64),
            (Kind::Query, tid::QUERY_BASE, tid::PREFETCH_BASE as u64),
            (
                Kind::PrefetchStream,
                tid::PREFETCH_BASE,
                tid::REQUEST_BASE as u64,
            ),
            (Kind::Request, tid::REQUEST_BASE, 1 << 32),
        ];
        for (kind, base, end) in kinds {
            let len = end - base as u64;
            assert_eq!(kind.tid(0), base);
            assert_eq!(kind.tid(len - 1) as u64, end - 1, "{kind:?}'s last tid");
            assert_eq!(kind.tid(len), base, "{kind:?} wraps to its base");
            assert_eq!(kind.tid(len + 5), base + 5);
            assert_eq!(kind.tid(u64::MAX), base + (u64::MAX % len) as u32);
            assert_eq!(Kind::of(kind.tid(len - 1)), Some((kind, (len - 1) as u32)));
        }
        // The 999 001st replayed query, the millionth prefetch stream and
        // the request ids past 2³² − 2 000 000 stay their kind.
        assert_eq!(Kind::Query.tid(999_000), tid::QUERY_BASE);
        assert_eq!(Kind::PrefetchStream.tid(1_000_000), tid::PREFETCH_BASE);
        let past = (1u64 << 32) - tid::REQUEST_BASE as u64;
        assert_eq!(request::request_track(past).tid, tid::REQUEST_BASE);
        assert_eq!(tid::name(request::request_track(past + 9)), "request-9");
        assert_eq!(Kind::of(tid::FLIGHT), None);
    }

    /// The `thread_name` lines of a Chrome-trace dump: `(pid, tid, name)`.
    fn named(dump: &str) -> Vec<(u32, u32, String)> {
        let field = |line: &str, key: &str| -> String {
            let at = line.find(key).expect(key) + key.len();
            line[at..].split([',', '"', '}']).next().unwrap().to_owned()
        };
        dump.lines()
            .filter(|l| l.contains("\"thread_name\""))
            .map(|l| {
                let pid = field(l, "\"pid\":").parse().unwrap();
                let tid = field(l, "\"tid\":").parse().unwrap();
                (pid, tid, field(l, "\"args\":{\"name\":\""))
            })
            .collect()
    }

    /// A bounded recorder names exactly the tracks with events in its tail
    /// — the serving loop's included, however many request tracks came
    /// after it was first recorded on — in (pid, tid) order.
    #[test]
    fn a_dump_names_exactly_the_tracks_in_its_tail() {
        let mut r = Recorder::bounded();
        let server = Track::virt(tid::SERVER);
        for rid in 1..=10_000u64 {
            let track = request::request_track(rid);
            r.span(track, "request", "request.queue", rid, rid + 5, &[]);
            if rid % 3 == 0 {
                r.flow(server, "request", "request.flow", rid, rid, FlowDir::Finish);
            }
        }
        let mut want: Vec<Track> = r.flight().tail().iter().map(|e| e.track).collect();
        want.sort_unstable();
        want.dedup();
        assert!(want.contains(&server) && want.len() > 1_000);
        let want: Vec<_> = want
            .into_iter()
            .map(|t| (t.pid, t.tid, tid::name(t)))
            .collect();
        let got = named(&r.flight_dump_json());
        assert_eq!(got, want);
        assert_eq!(
            got[0],
            (VIRTUAL_PID, tid::SERVER, "serving-loop".to_owned())
        );
        assert_eq!(got.last().unwrap().2, "request-10000");
    }
}
