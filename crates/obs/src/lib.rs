//! # pythia-obs
//!
//! Zero-dependency structured tracing and metrics for the whole
//! reproduction — the introspection layer the ROADMAP's scaling steps
//! (sharded fleets, preemptive admission, socket front-ends) are debugged
//! through.
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
//! * [`WALL_PID`] — real wall-clock task spans from the shared NN worker
//!   pool ([`wall`]), inherently non-deterministic and therefore kept on a
//!   separate process track (and excluded from [`Recorder::virtual_trace_json`]).
//!
//! Events have **one store**, [`flight::EventLog`]: a log of fixed-size,
//! `Copy` [`Event`] slots plus one track-name table. Each
//! `span`/`instant`/`flow` is one write and no allocation; what varies per
//! recorder is only the log's *retention* and whether metrics are kept:
//!
//! | constructor | counters, histograms, series | events |
//! |---|---|---|
//! | [`Recorder::disabled`] (the default) | dropped (one branch each) | last N |
//! | [`Recorder::bounded`] — a long-lived process | kept | last N |
//! | [`Recorder::enabled`] — a capture | kept | all |
//!
//! *Last N* is a fixed ring (N = 4096; [`Recorder::set_flight_capacity`]),
//! so memory does not depend on how long the process has served. *All*
//! grows with every event: it is what tests, trace export and the
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
//!   ([`snapshot::MetricsSnapshot::to_prometheus`]) behind the live
//!   [`serve::MetricsServer`] endpoint.
//!
//! Two more capture channels feed a recorder after the fact: [`wall`]
//! (worker-pool task spans) and [`train`] (per-epoch training telemetry +
//! held-out F1), both drained via `absorb_*` methods. [`diff`] reduces an
//! exported trace back into a structural summary so CI can gate on
//! virtual-trace drift.
//!
//! Under either retention the log's tail is the black-box flight recorder:
//! anomaly triggers ([`Recorder::trigger_flight`]: drift alerts, shed
//! bursts, slow requests) dump the last N events — every argument intact —
//! as a loadable Chrome trace to a [`flight::SharedFlight`] cell, served at
//! `/debug/flight`. [`request`] carries the request identity (`RequestId`,
//! per-request latency breakdowns, the `/debug/slow` top-K log) that the
//! serving loop's `request.*` span trees are built on.

pub mod chrome;
pub mod diff;
pub mod flight;
pub mod hist;
pub mod http;
pub mod quality;
pub mod request;
pub mod serve;
pub mod snapshot;
pub mod train;
pub mod wall;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Mutex, MutexGuard, PoisonError};

use flight::{EventLog, Retention};
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

/// Process id for deterministic virtual-time tracks.
pub const VIRTUAL_PID: u32 = 1;
/// Process id for wall-clock tracks (NN worker pool).
pub const WALL_PID: u32 = 2;

/// Well-known thread ids within [`VIRTUAL_PID`]. Per-entity tracks are
/// allocated as `BASE + index`; the bases are spaced far apart and the
/// allocators are monotone, so collisions would need ~10⁵ entities of one
/// kind in a single trace.
pub mod tid {
    /// The serving loop's admission track.
    pub const SERVER: u32 = 0;
    /// Buffer-manager-wide events (evictions of unused prefetched pages).
    pub const BUFFER: u32 = 1;
    /// Streaming quality telemetry: `quality.observe` / `drift.alert`
    /// instants emitted by [`crate::quality::QualityTracker`].
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
    pub const fn wall(tid: u32) -> Track {
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
    pub fn new(args: &[(&'static str, u64)]) -> Args {
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

/// One recorded trace event — one fixed-size slot of the [`EventLog`].
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

/// A label set as stored: `(key, value)` pairs sorted by key then value.
type Labels = Vec<(String, String)>;

#[derive(Debug, Default)]
struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Histogram>,
    /// Labeled gauge/counter series, sorted by `(name, labels)`. Unlike
    /// plain counters these are *set* (last write wins), so callers can
    /// export windowed rates without delta bookkeeping.
    labeled: Vec<(&'static str, Labels, u64)>,
}

/// Most labels one series carries: lookups sort the caller's label set in a
/// stack buffer this wide instead of allocating.
const MAX_LABELS: usize = 4;

impl Metrics {
    /// Where the series `(name, labels)` is (`Ok`) or belongs (`Err`) in
    /// `labeled`. Compares against the borrowed labels, so a lookup
    /// allocates nothing.
    fn find_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Result<usize, usize> {
        assert!(labels.len() <= MAX_LABELS, "{} labels", labels.len());
        let mut buf = [("", ""); MAX_LABELS];
        let want = &mut buf[..labels.len()];
        want.copy_from_slice(labels);
        want.sort_unstable();
        self.labeled.binary_search_by(|(n, have, _)| {
            let have = have.iter().map(|(k, v)| (k.as_str(), v.as_str()));
            (*n).cmp(name).then_with(|| have.cmp(want.iter().copied()))
        })
    }

    /// The series' value slot, inserted at 0 (the only allocation) if new.
    fn labeled_mut(&mut self, name: &'static str, labels: &[(&str, &str)]) -> &mut u64 {
        let at = self.find_labeled(name, labels).unwrap_or_else(|at| {
            let mut key: Labels = labels
                .iter()
                .map(|&(k, v)| (k.to_owned(), v.to_owned()))
                .collect();
            key.sort();
            self.labeled.insert(at, (name, key, 0));
            at
        });
        &mut self.labeled[at].2
    }
}

/// The recording sink threaded through the stack. Disabled by default:
/// metric calls on a disabled recorder are a single branch, and an event is
/// one store into the fixed ring (turn that off too with
/// [`Recorder::set_flight_capacity`]`(0)` if even that is too much).
#[derive(Debug, Default)]
pub struct Recorder {
    /// Counters, histograms and labeled series; `None` drops them.
    metrics: Option<Box<Metrics>>,
    /// The one event store, under this recorder's retention.
    log: EventLog,
    /// Live publication target for [`Recorder::publish`], if attached.
    publisher: Option<serve::SharedSnapshot>,
    /// Live publication target for flight dumps, if attached.
    flight_publisher: Option<flight::SharedFlight>,
}

impl Recorder {
    /// A recorder that keeps no metrics and only the last N events (the
    /// default).
    pub fn disabled() -> Recorder {
        Recorder::default()
    }

    /// A capture: counters, histograms and **every** event. Memory grows
    /// with each event, so this is for runs that end — tests, trace export.
    pub fn enabled() -> Recorder {
        Recorder {
            metrics: Some(Box::default()),
            log: EventLog::new(Retention::All),
            ..Recorder::default()
        }
    }

    /// The long-lived recorder: counters, histograms and labeled series like
    /// [`Recorder::enabled`], events like [`Recorder::disabled`] — the last N,
    /// for flight dumps. Memory does not grow with requests served.
    pub fn bounded() -> Recorder {
        Recorder {
            metrics: Some(Box::default()),
            ..Recorder::default()
        }
    }

    /// Whether this recorder keeps metrics. Hot paths with non-trivial
    /// argument preparation should check this first.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.metrics.is_some()
    }

    /// Give `track` a human-readable name in the trace (Perfetto shows it as
    /// the thread name). The name is built lazily so callers can pass a
    /// `format!` closure without paying for it on repeat declarations — the
    /// first declaration wins, later ones are no-ops.
    pub fn declare_track(&mut self, track: Track, name: impl FnOnce() -> String) {
        self.log.declare_track(track, name);
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
        self.log.record(Event {
            track,
            cat,
            name,
            ts_us: start_us,
            dur_us: Some(end_us.saturating_sub(start_us)),
            flow: None,
            args: Args::new(args),
        });
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
        self.log.record(Event {
            track,
            cat,
            name,
            ts_us,
            dur_us: None,
            flow: None,
            args: Args::new(args),
        });
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
        self.log.record(Event {
            track,
            cat,
            name,
            ts_us,
            dur_us: None,
            flow: Some((id, dir)),
            args: Args::new(&[]),
        });
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

    /// Set a labeled series to `value` (last write wins). Labels are
    /// `(key, value)` pairs, at most four; the same logical series maps to
    /// one entry regardless of caller order. Allocates only when the series
    /// is new.
    pub fn set_labeled(&mut self, name: &'static str, labels: &[(&str, &str)], value: u64) {
        if let Some(m) = self.metrics.as_mut() {
            *m.labeled_mut(name, labels) = value;
        }
    }

    /// Add `delta` to a labeled series (creating it at 0).
    pub fn add_labeled(&mut self, name: &'static str, labels: &[(&str, &str)], delta: u64) {
        if let Some(m) = self.metrics.as_mut() {
            *m.labeled_mut(name, labels) += delta;
        }
    }

    /// Current value of a labeled series (0 if absent or disabled).
    pub fn labeled(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        let Some(m) = self.metrics.as_ref() else {
            return 0;
        };
        m.find_labeled(name, labels).map_or(0, |at| m.labeled[at].2)
    }

    /// Current value of a counter (0 if never touched or disabled).
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics
            .as_ref()
            .and_then(|m| m.counters.get(name).copied())
            .unwrap_or(0)
    }

    /// The captured events in insertion order: everything recorded, for an
    /// [`Recorder::enabled`] recorder; empty for the two that keep only a
    /// tail (read that through [`Recorder::flight`]).
    pub fn events(&self) -> &[Event] {
        self.log.captured()
    }

    /// Number of captured events with the given name.
    pub fn event_count(&self, name: &str) -> usize {
        self.events().iter().filter(|e| e.name == name).count()
    }

    /// Fold wall-clock NN-pool task spans (from [`wall::drain`]) into the
    /// trace on [`WALL_PID`] tracks, one per worker. Tasks are sorted by
    /// `(start, worker, item)` for a stable layout, but wall timestamps are
    /// inherently non-deterministic — they never appear in
    /// [`Self::virtual_trace_json`].
    pub fn absorb_wall_tasks(&mut self, mut tasks: Vec<wall::WallTask>) {
        if self.metrics.is_none() {
            return;
        }
        tasks.sort_by_key(|t| (t.start_us, t.worker, t.item));
        for t in tasks {
            let track = Track::wall(t.worker);
            self.declare_track(track, || format!("nn-worker-{}", t.worker));
            let (start, end) = (t.start_us, t.start_us + t.dur_us);
            if t.req != 0 {
                // Request-labeled capture: the span names the serving
                // request whose admission drove this pool task.
                self.span(
                    track,
                    "nn",
                    t.label,
                    start,
                    end,
                    &[("item", t.item), ("request", t.req)],
                );
            } else {
                self.span(track, "nn", t.label, start, end, &[("item", t.item)]);
            }
        }
    }

    /// Fold training-telemetry records (from [`train::drain`]) into the
    /// trace: per-epoch spans on the training worker's wall track, held-out
    /// F1 instants on a dedicated evaluation track, plus epoch counters
    /// (`nn.train.epochs` / `nn.refine.epochs`, models trained/refined) and
    /// loss / gradient-norm / F1 histograms. Records are sorted by
    /// `(start, worker, model, epoch)` for a stable layout; like wall tasks
    /// they never appear in [`Self::virtual_trace_json`].
    pub fn absorb_train_telemetry(&mut self, mut recs: Vec<train::TrainRec>) {
        if self.metrics.is_none() {
            return;
        }
        fn key(r: &train::TrainRec) -> (u64, u32, u64, u32) {
            match r {
                train::TrainRec::Epoch(e) => (e.start_us, e.worker, e.model, e.epoch),
                train::TrainRec::HeldoutF1(f) => (f.at_us, u32::MAX, f.query, 0),
            }
        }
        recs.sort_by_key(key);
        let mut trained = BTreeSet::new();
        let mut refined = BTreeSet::new();
        for r in recs {
            match r {
                train::TrainRec::Epoch(e) => {
                    let track = Track::wall(e.worker);
                    self.declare_track(track, || format!("nn-worker-{}", e.worker));
                    self.span(
                        track,
                        "nn",
                        if e.refine {
                            "nn.refine.epoch"
                        } else {
                            "nn.epoch"
                        },
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
                    let (counter, models) = if e.refine {
                        ("nn.refine.epochs", &mut refined)
                    } else {
                        ("nn.train.epochs", &mut trained)
                    };
                    self.add(counter, 1);
                    models.insert(e.model);
                    self.observe("nn.epoch_loss_e6", e.loss_e6);
                    self.observe("nn.grad_norm_e6", e.grad_norm_e6);
                }
                train::TrainRec::HeldoutF1(f) => {
                    let track = Track::wall(train::EVAL_TID);
                    self.declare_track(track, || "nn-heldout-eval".to_owned());
                    self.instant(
                        track,
                        "nn",
                        "nn.heldout_f1",
                        f.at_us,
                        &[("query", f.query), ("f1_e6", f.f1_e6)],
                    );
                    self.add("nn.heldout.evals", 1);
                    self.observe("nn.heldout_f1_e6", f.f1_e6);
                }
            }
        }
        if !trained.is_empty() {
            self.add("nn.models_trained", trained.len() as u64);
        }
        if !refined.is_empty() {
            self.add("nn.models_refined", refined.len() as u64);
        }
    }

    /// Attach a live publication target: [`Recorder::publish`] will copy
    /// snapshots into `shared`, which a [`serve::MetricsServer`] exposes.
    pub fn set_publisher(&mut self, shared: serve::SharedSnapshot) {
        self.publisher = Some(shared);
    }

    /// Copy the current snapshot to the attached publisher, if any. One
    /// branch when nothing is attached; intended for warm points (per
    /// admission wave), not per-event hot paths.
    pub fn publish(&self) {
        if let Some(p) = &self.publisher {
            p.publish(self.snapshot());
        }
    }

    /// Attach a live publication target for flight dumps:
    /// [`Recorder::trigger_flight`] will render and publish the log's tail
    /// into `shared`, which `/debug/flight` serves.
    pub fn set_flight_publisher(&mut self, shared: flight::SharedFlight) {
        self.flight_publisher = Some(shared);
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
    /// = `reason`) on the flight track, bump the `flight.triggers` counter,
    /// and — if a [`flight::SharedFlight`] is attached — render the tail to
    /// Chrome-trace JSON and publish it as a postmortem dump. Without a
    /// publisher the trigger is cheap (no rendering), so hot-path callers
    /// (the per-completion slow-request check) can fire unconditionally.
    pub fn trigger_flight(&mut self, reason: &'static str, ts_us: u64) {
        if !self.log.is_active() {
            return;
        }
        let seq = self.log.seq();
        self.declare_track(Track::virt(tid::FLIGHT), || "flight-recorder".to_owned());
        self.instant(
            Track::virt(tid::FLIGHT),
            reason,
            "flight.trigger",
            ts_us,
            &[("seq", seq)],
        );
        self.add("flight.triggers", 1);
        if let Some(p) = &self.flight_publisher {
            let dump = flight::FlightDump {
                reason: reason.to_owned(),
                trace_json: self.flight_dump_json(),
                trigger_seq: seq,
            };
            p.publish(dump);
        }
    }

    /// Render the log's tail (plus the track names that go with it) as
    /// Chrome trace-event JSON — the `/debug/flight` body and the
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
                labeled: m
                    .labeled
                    .iter()
                    .map(|(name, labels, v)| ((*name).to_owned(), labels.clone(), *v))
                    .collect(),
            },
        }
    }

    /// Drop all recorded data (metrics, events, track names), keeping the
    /// constructor's state and the tail length.
    pub fn clear(&mut self) {
        if let Some(m) = self.metrics.as_mut() {
            **m = Metrics::default();
        }
        self.log.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::disabled();
        assert!(!r.is_enabled());
        r.declare_track(Track::virt(1), || "q".to_owned());
        r.span(Track::virt(1), "c", "s", 0, 10, &[]);
        r.instant(Track::virt(1), "c", "i", 5, &[("k", 1)]);
        r.add("n", 3);
        r.observe("h", 7);
        assert!(r.events().is_empty());
        assert_eq!(r.counter("n"), 0);
        assert_eq!(r.chrome_trace_json(), "[\n]\n");
        // ...but the log still retained the tail, for flight dumps only.
        assert_eq!(r.flight().tail_len(), 2);
        assert!(r.flight_dump_json().contains("\"name\":\"q\""));
        // With the ring capped to 0 the recorder is a true no-op: even the
        // lazy track name is never built.
        let mut r = Recorder::disabled();
        r.set_flight_capacity(0);
        r.declare_track(Track::virt(1), || unreachable!("lazy name not built"));
        r.span(Track::virt(1), "c", "s", 0, 10, &[]);
        assert_eq!(r.flight().tail_len(), 0);
        assert_eq!(r.flight().seq(), 0);
        assert_eq!(r.flight_dump_json(), "[\n]\n");
    }

    #[test]
    fn enabled_recorder_keeps_everything() {
        let mut r = Recorder::enabled();
        r.declare_track(Track::virt(5), || "q".to_owned());
        r.span(Track::virt(5), "query", "replay", 10, 30, &[("q", 0)]);
        r.instant(Track::virt(5), "read", "read.hit", 12, &[("page", 9)]);
        r.add("reads.hit", 1);
        r.add("reads.hit", 2);
        r.observe("lat", 20);
        assert_eq!(r.events().len(), 2);
        assert_eq!(r.event_count("read.hit"), 1);
        assert_eq!(r.counter("reads.hit"), 3);
        let e = &r.events()[0];
        assert_eq!(e.dur_us, Some(20));
        assert_eq!(r.events()[1].dur_us, None);
    }

    #[test]
    fn declare_track_is_first_wins() {
        let mut r = Recorder::enabled();
        r.declare_track(Track::virt(1), || "first".to_owned());
        r.declare_track(Track::virt(1), || "second".to_owned());
        let json = r.chrome_trace_json();
        assert!(json.contains("first"));
        assert!(!json.contains("second"));
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
        r.absorb_wall_tasks(vec![wall::WallTask {
            label: "nn.train",
            worker: 2,
            item: 7,
            req: 0,
            start_us: 100,
            dur_us: 5,
        }]);
        let full = r.chrome_trace_json();
        let virt = r.virtual_trace_json();
        assert!(full.contains("nn.train") && full.contains("virtual_span"));
        assert!(!virt.contains("nn.train"));
        assert!(virt.contains("virtual_span"));
    }

    /// Byte pin for the two capture exports: these strings were produced by
    /// the two-store recorder this log replaced, so a capture's trace (what
    /// the trace-diff gate and the golden summary read) has not moved.
    #[test]
    fn capture_exports_are_byte_pinned() {
        let mut r = Recorder::enabled();
        r.declare_track(Track::virt(1000), || "query-\"0\"".to_owned());
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
        r.absorb_wall_tasks(vec![wall::WallTask {
            label: "nn.infer",
            worker: 3,
            item: 5,
            req: 9,
            start_us: 100,
            dur_us: 8,
        }]);
        let virt = [
            r#"{"ph":"M","pid":1,"tid":1000,"name":"thread_name","args":{"name":"query-\"0\""}}"#,
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
        let mut want = vec![vproc, wproc, virt[0], wname];
        want.extend(&virt[1..]);
        want.push(wtask);
        assert_eq!(r.chrome_trace_json(), array(&want));
    }

    #[test]
    fn clear_keeps_enabled_state() {
        let mut r = Recorder::enabled();
        r.add("n", 1);
        r.clear();
        assert!(r.is_enabled());
        assert_eq!(r.counter("n"), 0);
        assert!(r.events().is_empty());
    }

    #[test]
    fn absorb_train_telemetry_builds_spans_counters_and_hists() {
        let mut r = Recorder::enabled();
        let epoch = |model: u64, epoch: u32, refine: bool, loss_e6: u64| {
            train::TrainRec::Epoch(train::EpochRec {
                refine,
                worker: 1,
                model,
                epoch,
                steps: 4,
                loss_e6,
                grad_norm_e6: 10 * loss_e6,
                start_us: 100 * (epoch as u64 + 1),
                dur_us: 50,
            })
        };
        r.absorb_train_telemetry(vec![
            epoch(7, 1, false, 400_000),
            epoch(7, 0, false, 800_000), // out of order: absorb sorts by start
            epoch(3, 0, true, 200_000),
            train::TrainRec::HeldoutF1(train::F1Rec {
                query: 5,
                f1_e6: 875_000,
                at_us: 999,
            }),
        ]);
        assert_eq!(r.event_count("nn.epoch"), 2);
        assert_eq!(r.event_count("nn.refine.epoch"), 1);
        assert_eq!(r.event_count("nn.heldout_f1"), 1);
        assert_eq!(r.counter("nn.train.epochs"), 2);
        assert_eq!(r.counter("nn.refine.epochs"), 1);
        assert_eq!(r.counter("nn.models_trained"), 1);
        assert_eq!(r.counter("nn.models_refined"), 1);
        assert_eq!(r.counter("nn.heldout.evals"), 1);
        let spans: Vec<&Event> = r.events().iter().filter(|e| e.name == "nn.epoch").collect();
        assert!(spans[0].ts_us <= spans[1].ts_us, "sorted by start");
        assert!(spans[0].args.contains(&("loss_e6", 800_000)));
        let snap = r.snapshot();
        assert_eq!(snap.hist("nn.epoch_loss_e6").unwrap().count, 3);
        assert_eq!(snap.hist("nn.heldout_f1_e6").unwrap().max, 875_000);
        // Training telemetry is wall-clock: the virtual trace stays clean.
        assert!(!r.virtual_trace_json().contains("nn.epoch"));
        assert!(r.chrome_trace_json().contains("nn.epoch"));
        assert!(r.chrome_trace_json().contains("nn-heldout-eval"));
    }

    #[test]
    fn publish_copies_snapshot_to_shared_cell() {
        let shared = serve::SharedSnapshot::new();
        let mut r = Recorder::enabled();
        r.set_publisher(shared.clone());
        r.add("reads.hit", 4);
        assert_eq!(shared.get().counter("reads.hit"), 0, "not yet published");
        r.publish();
        assert_eq!(shared.get().counter("reads.hit"), 4);
        // A recorder with no publisher attached is a no-op.
        Recorder::enabled().publish();
        Recorder::disabled().publish();
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
    fn labeled_series_set_add_and_snapshot() {
        let mut r = Recorder::enabled();
        // Label order must not matter: both writes hit the same series.
        r.set_labeled("q.hit", &[("tenant", "0"), ("template", "T18")], 5);
        r.set_labeled("q.hit", &[("template", "T18"), ("tenant", "0")], 9);
        r.add_labeled("fe.accepted", &[("tenant", "1")], 2);
        r.add_labeled("fe.accepted", &[("tenant", "1")], 3);
        assert_eq!(
            r.labeled("q.hit", &[("tenant", "0"), ("template", "T18")]),
            9
        );
        assert_eq!(r.labeled("fe.accepted", &[("tenant", "1")]), 5);
        assert_eq!(r.labeled("fe.accepted", &[("tenant", "2")]), 0);
        let s = r.snapshot();
        assert_eq!(s.labeled.len(), 2);
        assert_eq!(s.labeled[0].0, "fe.accepted");
        assert_eq!(s.labeled[0].2, 5);
        // Disabled recorder drops labeled writes like everything else.
        let mut d = Recorder::disabled();
        d.set_labeled("x", &[("t", "0")], 1);
        assert_eq!(d.labeled("x", &[("t", "0")]), 0);
        assert!(d.snapshot().labeled.is_empty());
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
            r.set_flight_capacity(4);
            r.declare_track(Track::virt(7), || "q7".to_owned());
            for i in 0..9u64 {
                r.span(Track::virt(7), "c", "s", i * 10, i * 10 + 5, &[("i", i)]);
            }
            assert_eq!(r.flight().tail_len(), 4);
            assert_eq!(r.flight().seq(), 9);
            let dump = r.flight_dump_json();
            // Only the last four spans survive: starts 50..=80.
            assert!(!dump.contains("\"ts\":40"), "{dump}");
            for ts in [50, 60, 70, 80] {
                assert!(dump.contains(&format!("\"ts\":{ts}")), "{dump}");
            }
            assert!(dump.contains("\"name\":\"q7\""), "track name retained");
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
    fn labeled_lookups_do_not_depend_on_label_order_or_insertion_order() {
        let mut r = Recorder::enabled();
        for (tenant, template) in [("1", "b"), ("0", "b"), ("1", "a"), ("0", "a")] {
            r.set_labeled("q", &[("tenant", tenant), ("template", template)], 1);
            r.add_labeled("q", &[("template", template), ("tenant", tenant)], 1);
        }
        r.set_labeled("p", &[], 7);
        assert_eq!(r.labeled("q", &[("tenant", "0"), ("template", "b")]), 2);
        assert_eq!(r.labeled("q", &[("tenant", "2"), ("template", "b")]), 0);
        assert_eq!(r.labeled("p", &[]), 7);
        let keys: Vec<String> = r
            .snapshot()
            .labeled
            .iter()
            .map(|(n, l, _)| l.iter().fold(n.clone(), |k, (_, v)| k + "/" + v))
            .collect();
        // Sorted by name, then by the sorted label pairs (template < tenant).
        assert_eq!(keys, ["p", "q/a/0", "q/a/1", "q/b/0", "q/b/1"]);
    }

    #[test]
    fn trigger_flight_publishes_a_labeled_dump() {
        let shared = flight::SharedFlight::new();
        let mut r = Recorder::disabled();
        r.set_flight_capacity(8);
        r.set_flight_publisher(shared.clone());
        r.span(Track::virt(1), "c", "replay", 0, 100, &[]);
        assert_eq!(shared.get(), None, "no trigger yet");
        r.trigger_flight("drift.alert", 120);
        let dump = shared.get().expect("dump published on trigger");
        assert_eq!(dump.reason, "drift.alert");
        assert_eq!(dump.trigger_seq, 1, "one event before the trigger");
        assert!(
            dump.trace_json.contains("\"name\":\"replay\""),
            "{}",
            dump.trace_json
        );
        assert!(
            dump.trace_json.contains("\"name\":\"flight.trigger\""),
            "the trigger instant itself lands in the dump: {}",
            dump.trace_json
        );
        assert!(
            dump.trace_json.contains("flight-recorder"),
            "{}",
            dump.trace_json
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

    #[test]
    fn track_names_are_fifo_bounded_at_ring_capacity() {
        let mut r = Recorder::disabled();
        r.set_flight_capacity(3);
        for i in 0..10u32 {
            r.declare_track(Track::virt(tid::QUERY_BASE + i), || format!("query-{i}"));
            r.instant(Track::virt(tid::QUERY_BASE + i), "c", "e", i as u64, &[]);
        }
        let dump = r.flight_dump_json();
        assert!(!dump.contains("query-0"), "evicted name: {dump}");
        assert!(dump.contains("query-9"), "{dump}");
    }
}
