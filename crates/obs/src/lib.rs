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
//! A disabled recorder (the default) is a `None`: every record call is one
//! branch and no allocation, so hot paths (the per-page-read path of the
//! replay runtime) can call it unconditionally.
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
//! Independently of the enabled/disabled state, every recorder mirrors the
//! last N events into an always-on fixed-memory [`flight::FlightRing`] —
//! the black-box flight recorder. Anomaly triggers
//! ([`Recorder::trigger_flight`]: drift alerts, shed bursts, slow requests)
//! dump the ring as a loadable Chrome trace to a [`flight::SharedFlight`]
//! cell, served at `/debug/flight`. [`request`] carries the request
//! identity (`RequestId`, per-request latency breakdowns, the `/debug/slow`
//! top-K log) that the serving loop's `request.*` span trees are built on.

pub mod chrome;
pub mod diff;
pub mod flight;
pub mod hist;
pub mod quality;
pub mod request;
pub mod serve;
pub mod snapshot;
pub mod train;
pub mod wall;

use std::collections::BTreeSet;

use hist::Histogram;
use snapshot::MetricsSnapshot;

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

/// One recorded trace event. Spans carry a duration; instants do not.
/// Arguments are `(key, value)` pairs; keys are static so recording never
/// allocates strings on the hot path.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    pub args: Vec<(&'static str, u64)>,
}

#[derive(Debug, Default)]
struct Inner {
    events: Vec<Event>,
    /// Track metadata in declaration order: `(track, human name)`.
    tracks: Vec<(Track, String)>,
    declared: BTreeSet<Track>,
    counters: std::collections::BTreeMap<&'static str, u64>,
    hists: std::collections::BTreeMap<&'static str, Histogram>,
    /// Labeled gauge/counter series: `(name, sorted label pairs) -> value`.
    /// Unlike plain counters these are *set* (last write wins), so callers
    /// can export windowed rates without delta bookkeeping.
    labeled: std::collections::BTreeMap<(&'static str, Vec<(String, String)>), u64>,
}

/// The recording sink threaded through the stack. Disabled by default:
/// every method on a disabled recorder is a single branch — plus one store
/// into the always-on flight ring (disable that too with
/// [`Recorder::set_flight_capacity`]`(0)` if even that is too much).
#[derive(Debug, Default)]
pub struct Recorder {
    inner: Option<Box<Inner>>,
    /// Live publication target for [`Recorder::publish`], if attached.
    publisher: Option<serve::SharedSnapshot>,
    /// The always-on black box: retains the last N events regardless of the
    /// enabled/disabled state above.
    flight: flight::FlightRing,
    /// Live publication target for flight dumps, if attached.
    flight_publisher: Option<flight::SharedFlight>,
    /// Track names for flight dumps, FIFO-bounded at the ring capacity so
    /// long-running disabled recorders don't accumulate per-query names.
    flight_tracks: std::collections::VecDeque<(Track, String)>,
    flight_declared: BTreeSet<Track>,
}

impl Recorder {
    /// A recorder that drops everything (the default).
    pub fn disabled() -> Recorder {
        Recorder::default()
    }

    /// A recorder that keeps events, counters and histograms.
    pub fn enabled() -> Recorder {
        Recorder {
            inner: Some(Box::default()),
            ..Recorder::default()
        }
    }

    /// Whether this recorder keeps anything. Hot paths with non-trivial
    /// argument preparation should check this first.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Give `track` a human-readable name in the trace (Perfetto shows it as
    /// the thread name). The name is built lazily so callers can pass a
    /// `format!` closure without paying for it on repeat declarations — the
    /// first declaration wins, later ones are no-ops. (With the flight ring
    /// active — the default — a disabled recorder still builds the name once
    /// per track so postmortem dumps come out labeled.)
    pub fn declare_track(&mut self, track: Track, name: impl FnOnce() -> String) {
        let need_inner = self
            .inner
            .as_ref()
            .is_some_and(|i| !i.declared.contains(&track));
        let need_flight = self.flight.is_active() && !self.flight_declared.contains(&track);
        if !need_inner && !need_flight {
            return;
        }
        let name = name();
        if need_flight {
            self.flight_declared.insert(track);
            self.flight_tracks.push_back((track, name.clone()));
            // One new track costs at most one ring event, so a name table
            // bounded at the ring capacity always covers the retained tail.
            while self.flight_tracks.len() > self.flight.capacity() {
                if let Some((old, _)) = self.flight_tracks.pop_front() {
                    self.flight_declared.remove(&old);
                }
            }
        }
        if need_inner {
            let inner = self.inner.as_mut().expect("checked above");
            inner.declared.insert(track);
            inner.tracks.push((track, name));
        }
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
        let dur = end_us.saturating_sub(start_us);
        self.flight.record_parts(
            track,
            cat,
            name,
            start_us,
            dur,
            flight::SlotKind::Span,
            0,
            args,
        );
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        inner.events.push(Event {
            track,
            cat,
            name,
            ts_us: start_us,
            dur_us: Some(dur),
            flow: None,
            args: args.to_vec(),
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
        self.flight.record_parts(
            track,
            cat,
            name,
            ts_us,
            0,
            flight::SlotKind::Instant,
            0,
            args,
        );
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        inner.events.push(Event {
            track,
            cat,
            name,
            ts_us,
            dur_us: None,
            flow: None,
            args: args.to_vec(),
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
        let kind = match dir {
            FlowDir::Start => flight::SlotKind::FlowStart,
            FlowDir::Finish => flight::SlotKind::FlowFinish,
        };
        self.flight
            .record_parts(track, cat, name, ts_us, 0, kind, id, &[]);
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        inner.events.push(Event {
            track,
            cat,
            name,
            ts_us,
            dur_us: None,
            flow: Some((id, dir)),
            args: Vec::new(),
        });
    }

    /// Add `delta` to a named monotonic counter.
    #[inline]
    pub fn add(&mut self, counter: &'static str, delta: u64) {
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        *inner.counters.entry(counter).or_insert(0) += delta;
    }

    /// Record `value` into a named histogram.
    #[inline]
    pub fn observe(&mut self, hist: &'static str, value: u64) {
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        inner.hists.entry(hist).or_default().record(value);
    }

    /// Set a labeled series to `value` (last write wins). Labels are
    /// `(key, value)` pairs; they are sorted here so the same logical
    /// series always maps to one entry regardless of caller order.
    pub fn set_labeled(&mut self, name: &'static str, labels: &[(&str, &str)], value: u64) {
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        let mut key: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_owned(), v.to_owned()))
            .collect();
        key.sort();
        inner.labeled.insert((name, key), value);
    }

    /// Add `delta` to a labeled series (creating it at 0).
    pub fn add_labeled(&mut self, name: &'static str, labels: &[(&str, &str)], delta: u64) {
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        let mut key: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_owned(), v.to_owned()))
            .collect();
        key.sort();
        *inner.labeled.entry((name, key)).or_insert(0) += delta;
    }

    /// Current value of a labeled series (0 if absent or disabled).
    pub fn labeled(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        let Some(inner) = self.inner.as_ref() else {
            return 0;
        };
        let mut key: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_owned(), v.to_owned()))
            .collect();
        key.sort();
        inner
            .labeled
            .iter()
            .find(|((n, k), _)| *n == name && *k == key)
            .map(|(_, &v)| v)
            .unwrap_or(0)
    }

    /// Current value of a counter (0 if never touched or disabled).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .as_ref()
            .and_then(|i| i.counters.get(name).copied())
            .unwrap_or(0)
    }

    /// All recorded events in insertion order (empty when disabled).
    pub fn events(&self) -> &[Event] {
        self.inner
            .as_ref()
            .map(|i| i.events.as_slice())
            .unwrap_or(&[])
    }

    /// Number of recorded events with the given name.
    pub fn event_count(&self, name: &str) -> usize {
        self.events().iter().filter(|e| e.name == name).count()
    }

    /// Fold wall-clock NN-pool task spans (from [`wall::drain`]) into the
    /// trace on [`WALL_PID`] tracks, one per worker. Tasks are sorted by
    /// `(start, worker, item)` for a stable layout, but wall timestamps are
    /// inherently non-deterministic — they never appear in
    /// [`Self::virtual_trace_json`].
    pub fn absorb_wall_tasks(&mut self, mut tasks: Vec<wall::WallTask>) {
        if self.inner.is_none() {
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
        if self.inner.is_none() {
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
    /// [`Recorder::trigger_flight`] will render and publish the ring into
    /// `shared`, which `/debug/flight` serves.
    pub fn set_flight_publisher(&mut self, shared: flight::SharedFlight) {
        self.flight_publisher = Some(shared);
    }

    /// Change the flight ring's retention cap (0 disables it entirely).
    /// Drops whatever the ring currently retains.
    pub fn set_flight_capacity(&mut self, capacity: usize) {
        self.flight.set_capacity(capacity);
        self.flight_tracks.clear();
        self.flight_declared.clear();
    }

    /// The always-on flight ring (for retention checks and tests).
    pub fn flight(&self) -> &flight::FlightRing {
        &self.flight
    }

    /// Fire an anomaly trigger: stamp a `flight.trigger` instant (category
    /// = `reason`) on the flight track, bump the `flight.triggers` counter,
    /// and — if a [`flight::SharedFlight`] is attached — render the ring to
    /// Chrome-trace JSON and publish it as a postmortem dump. Without a
    /// publisher the trigger is cheap (no rendering), so hot-path callers
    /// (the per-completion slow-request check) can fire unconditionally.
    pub fn trigger_flight(&mut self, reason: &'static str, ts_us: u64) {
        if !self.flight.is_active() {
            return;
        }
        let seq = self.flight.seq();
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

    /// Render the flight ring (plus its bounded track-name table) as
    /// Chrome trace-event JSON — the `/debug/flight` body and the
    /// `--flight-out` file format.
    pub fn flight_dump_json(&self) -> String {
        let events = self.flight.snapshot();
        let tracks: Vec<(Track, String)> = self.flight_tracks.iter().cloned().collect();
        chrome::trace_json(&events, &tracks, None)
    }

    /// The full trace (virtual + wall events) as Chrome trace-event JSON.
    pub fn chrome_trace_json(&self) -> String {
        self.trace_json(None)
    }

    /// Only the deterministic virtual-time events — byte-identical across
    /// runs with the same seed (and a fixed inference charge).
    pub fn virtual_trace_json(&self) -> String {
        self.trace_json(Some(VIRTUAL_PID))
    }

    fn trace_json(&self, pid_filter: Option<u32>) -> String {
        let (events, tracks): (&[Event], &[(Track, String)]) = match self.inner.as_ref() {
            Some(i) => (&i.events, &i.tracks),
            None => (&[], &[]),
        };
        chrome::trace_json(events, tracks, pid_filter)
    }

    /// Snapshot of counters and histogram summaries.
    pub fn snapshot(&self) -> MetricsSnapshot {
        match self.inner.as_ref() {
            None => MetricsSnapshot::default(),
            Some(i) => MetricsSnapshot {
                counters: i
                    .counters
                    .iter()
                    .map(|(&k, &v)| (k.to_owned(), v))
                    .collect(),
                hists: i
                    .hists
                    .iter()
                    .map(|(&k, h)| (k.to_owned(), h.summary()))
                    .collect(),
                labeled: i
                    .labeled
                    .iter()
                    .map(|((name, labels), &v)| ((*name).to_owned(), labels.clone(), v))
                    .collect(),
            },
        }
    }

    /// Drop all recorded data (including the flight ring's retained tail),
    /// keeping the enabled/disabled state and the ring capacity.
    pub fn clear(&mut self) {
        if let Some(inner) = self.inner.as_mut() {
            **inner = Inner::default();
        }
        self.flight.clear();
        self.flight_tracks.clear();
        self.flight_declared.clear();
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
        // ...but the always-on flight ring still retained the tail.
        assert_eq!(r.flight().len(), 2);
        assert!(r.flight_dump_json().contains("\"name\":\"q\""));
        // With the ring capped to 0 the recorder is a true no-op: even the
        // lazy track name is never built.
        let mut r = Recorder::disabled();
        r.set_flight_capacity(0);
        r.declare_track(Track::virt(1), || unreachable!("lazy name not built"));
        r.span(Track::virt(1), "c", "s", 0, 10, &[]);
        assert!(r.flight().is_empty());
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
        // The ring mirrors flow endpoints too.
        assert_eq!(r.flight().len(), 2);
        assert!(r.flight_dump_json().contains("\"ph\":\"s\""));
    }

    #[test]
    fn flight_ring_mirrors_recording_regardless_of_enabled_state() {
        for enabled in [false, true] {
            let mut r = if enabled {
                Recorder::enabled()
            } else {
                Recorder::disabled()
            };
            r.set_flight_capacity(4);
            r.declare_track(Track::virt(7), || "q7".to_owned());
            for i in 0..9u64 {
                r.span(Track::virt(7), "c", "s", i * 10, i * 10 + 5, &[("i", i)]);
            }
            assert_eq!(r.flight().len(), 4, "enabled={enabled}");
            assert_eq!(r.flight().seq(), 9);
            let dump = r.flight_dump_json();
            // Only the last four spans survive: starts 50..=80.
            assert!(!dump.contains("\"ts\":40"), "{dump}");
            for ts in [50, 60, 70, 80] {
                assert!(dump.contains(&format!("\"ts\":{ts}")), "{dump}");
            }
            assert!(dump.contains("\"name\":\"q7\""), "track name retained");
        }
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
    fn flight_track_names_are_fifo_bounded_at_ring_capacity() {
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
