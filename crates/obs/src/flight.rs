//! The event store: one log of fixed-size [`Event`] slots and one track-name
//! table, kept under one of two retentions.
//!
//! Every span/instant/flow recorded through a [`crate::Recorder`] is written
//! once, into an [`EventLog`]. An [`Event`] is `Copy` with its arguments
//! inline ([`crate::MAX_ARGS`] pairs, wide enough for every call site), so
//! recording is one store and never allocates per event. The only variable is
//! how much of the stream the log keeps:
//!
//! * [`Retention::All`] — everything, forever: a *capture*
//!   (`Recorder::enabled()`), for tests, trace export and the trace-diff gate.
//!   Memory is linear in events recorded, so it is opt-in.
//! * [`Retention::LastN`] — the last `capacity` events in a preallocated ring,
//!   and the track table FIFO-bounded to match: the black-box flight recorder
//!   every other recorder carries (`Recorder::disabled()`,
//!   `Recorder::bounded()`). Memory is fixed however long the process lives.
//!
//! Either way the log's *tail* — its last `capacity` events — is what an
//! anomaly trigger (`drift.alert`, a shed burst, a slow request; see
//! `Recorder::trigger_flight`) renders to Chrome-trace JSON and publishes
//! into a [`SharedFlight`] cell, where a [`crate::serve::MetricsServer`]
//! exposes it at `/debug/flight`: a postmortem of the events just *before*
//! the trigger, across every track, loadable in Perfetto like any other trace.

use std::collections::{BTreeSet, VecDeque};
use std::sync::{Arc, Mutex};

use crate::{chrome, lock, Event, Track};

/// Default tail length (events). ~230 bytes per slot, so the default ring
/// holds the recent past in under a megabyte.
pub const DEFAULT_CAPACITY: usize = 4096;

/// How much of the event stream an [`EventLog`] keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Retention {
    /// Every event and every track name, forever (a capture).
    All,
    /// The last `capacity` events, in a fixed ring.
    LastN,
}

/// The one event store. Storage is allocated lazily on the first recorded
/// event (so a never-touched recorder costs nothing); under
/// [`Retention::LastN`] it never grows past `capacity` slots.
#[derive(Debug, Clone)]
pub struct EventLog {
    retention: Retention,
    /// Tail length: the ring size under `LastN`, the dump length under `All`.
    capacity: usize,
    events: Vec<Event>,
    /// Ring write position (`LastN` only; `events.len()` until the first wrap).
    next: usize,
    /// Total events ever recorded (monotone; identifies trigger points).
    seq: u64,
    /// Track metadata in declaration order: `(track, human name)`.
    tracks: VecDeque<(Track, String)>,
    declared: BTreeSet<Track>,
}

impl Default for EventLog {
    fn default() -> EventLog {
        EventLog::new(Retention::LastN)
    }
}

impl EventLog {
    /// An empty log with a tail of [`DEFAULT_CAPACITY`] events.
    pub fn new(retention: Retention) -> EventLog {
        EventLog {
            retention,
            capacity: DEFAULT_CAPACITY,
            events: Vec::new(),
            next: 0,
            seq: 0,
            tracks: VecDeque::new(),
            declared: BTreeSet::new(),
        }
    }

    /// Whether the log has a tail to dump (capacity > 0).
    #[inline]
    pub fn is_active(&self) -> bool {
        self.capacity > 0
    }

    /// Total events ever recorded, including those already overwritten.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Record one event. O(1); a ring reserves its full capacity on the very
    /// first event so steady-state recording never reallocates.
    #[inline]
    pub fn record(&mut self, event: Event) {
        match self.retention {
            Retention::All => self.events.push(event),
            Retention::LastN if self.capacity == 0 => return,
            Retention::LastN => {
                if self.events.len() < self.capacity {
                    if self.events.capacity() == 0 {
                        self.events.reserve_exact(self.capacity);
                    }
                    self.events.push(event);
                } else {
                    self.events[self.next] = event;
                }
                self.next += 1;
                if self.next == self.capacity {
                    self.next = 0;
                }
            }
        }
        self.seq += 1;
    }

    /// Name `track`; the first declaration wins and `name` is only built
    /// then. Under `LastN` the table is FIFO-bounded at the ring capacity:
    /// one new track costs at most one ring event, so it always covers the
    /// retained tail.
    pub fn declare_track(&mut self, track: Track, name: impl FnOnce() -> String) {
        let off = self.retention == Retention::LastN && self.capacity == 0;
        if off || !self.declared.insert(track) {
            return;
        }
        self.tracks.push_back((track, name()));
        if self.retention == Retention::LastN && self.tracks.len() > self.capacity {
            if let Some((old, _)) = self.tracks.pop_front() {
                self.declared.remove(&old);
            }
        }
    }

    /// The capture: every event in insertion order under `All`; empty under
    /// `LastN`, which holds a tail, not a trace.
    pub fn captured(&self) -> &[Event] {
        match self.retention {
            Retention::All => &self.events,
            Retention::LastN => &[],
        }
    }

    /// The retained tail as two runs, oldest first.
    fn tail_runs(&self) -> (&[Event], &[Event]) {
        match self.retention {
            Retention::All => {
                let from = self.events.len().saturating_sub(self.capacity);
                (&self.events[from..], &[])
            }
            Retention::LastN => (&self.events[self.next..], &self.events[..self.next]),
        }
    }

    /// Events in the tail (≤ capacity).
    pub fn tail_len(&self) -> usize {
        self.events.len().min(self.capacity)
    }

    /// The last `capacity` events, oldest first.
    pub fn tail(&self) -> Vec<Event> {
        let (a, b) = self.tail_runs();
        [a, b].concat()
    }

    /// The capture as Chrome trace-event JSON, optionally one process only.
    pub fn trace_json(&self, pid_filter: Option<u32>) -> String {
        let named = match self.retention {
            Retention::All => self.tracks.len(),
            Retention::LastN => 0,
        };
        let tracks = self.tracks.iter().take(named);
        chrome::trace_json(self.captured().iter(), tracks, pid_filter)
    }

    /// The tail, with the newest `capacity` track names, as Chrome
    /// trace-event JSON — a flight dump.
    pub fn tail_json(&self) -> String {
        let (a, b) = self.tail_runs();
        let skip = self.tracks.len().saturating_sub(self.capacity);
        chrome::trace_json(a.iter().chain(b), self.tracks.iter().skip(skip), None)
    }

    /// Change the tail length (0 turns dumps off, and a ring with them).
    /// A ring's layout depends on it, so `LastN` drops what it retains; a
    /// capture keeps everything and only its dumps change length.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        if self.retention == Retention::LastN {
            self.clear();
        }
    }

    /// Drop all retained events and track names (the monotone `seq`, the
    /// retention and the capacity are preserved).
    pub fn clear(&mut self) {
        self.events = Vec::new();
        self.next = 0;
        self.tracks.clear();
        self.declared.clear();
    }
}

/// One published postmortem: the rendered ring plus why it was dumped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightDump {
    /// Trigger reason (`drift.alert`, `slow.request`, `shed.burst`, ...).
    pub reason: String,
    /// The log's tail rendered as Chrome trace-event JSON.
    pub trace_json: String,
    /// Log sequence number at the trigger instant.
    pub trigger_seq: u64,
}

/// The cell a recorder publishes flight dumps into and `/debug/flight`
/// serves from. Cheap to clone (an `Arc`); cloning shares the cell. Holds
/// the *latest* dump only — a postmortem endpoint, not an archive.
#[derive(Debug, Clone, Default)]
pub struct SharedFlight {
    pub(crate) cell: Arc<Mutex<Option<FlightDump>>>,
}

impl SharedFlight {
    /// A fresh cell with no dump captured yet.
    pub fn new() -> SharedFlight {
        SharedFlight::default()
    }

    /// Replace the published dump.
    pub fn publish(&self, dump: FlightDump) {
        *lock(&self.cell) = Some(dump);
    }

    /// The most recent dump, if any anomaly has fired.
    pub fn get(&self) -> Option<FlightDump> {
        lock(&self.cell).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tid, Args, FlowDir, Recorder};

    fn ev(i: u64) -> Event {
        Event {
            track: Track::virt(0),
            cat: "t",
            name: "e",
            ts_us: i,
            dur_us: Some(1),
            flow: None,
            args: Args::new(&[("i", i)]),
        }
    }

    fn log(retention: Retention, capacity: usize) -> EventLog {
        let mut log = EventLog::new(retention);
        log.set_capacity(capacity);
        log
    }

    fn ts(events: &[Event]) -> Vec<u64> {
        events.iter().map(|e| e.ts_us).collect()
    }

    #[test]
    fn ring_retains_exactly_the_last_capacity_events_in_order() {
        let mut ring = log(Retention::LastN, 4);
        for i in 0..10 {
            ring.record(ev(i));
        }
        assert_eq!(ring.tail_len(), 4);
        assert_eq!(ring.seq(), 10);
        assert_eq!(ts(&ring.tail()), vec![6, 7, 8, 9], "oldest → newest tail");
        assert!(ring.captured().is_empty(), "a ring is not a capture");
        // Before wrapping, the partial fill comes back in insertion order.
        let mut young = log(Retention::LastN, 4);
        young.record(ev(0));
        young.record(ev(1));
        assert_eq!(ts(&young.tail()), vec![0, 1]);
    }

    #[test]
    fn capture_keeps_everything_and_its_tail_is_the_same_last_n() {
        let mut all = log(Retention::All, 4);
        for i in 0..10 {
            all.record(ev(i));
        }
        assert_eq!(all.captured().len(), 10);
        assert_eq!((all.tail_len(), all.seq()), (4, 10));
        assert_eq!(ts(&all.tail()), vec![6, 7, 8, 9]);
        // Resizing a capture's tail changes dumps only; 0 leaves it recording.
        all.set_capacity(0);
        all.record(ev(10));
        assert_eq!(all.captured().len(), 11);
        assert!(!all.is_active() && all.tail().is_empty());
    }

    #[test]
    fn zero_capacity_ring_drops_everything() {
        let mut ring = log(Retention::LastN, 0);
        assert!(!ring.is_active());
        ring.record(ev(1));
        ring.declare_track(Track::virt(0), || unreachable!("name not built"));
        assert_eq!(ring.tail_len(), 0);
        assert_eq!(ring.seq(), 0);
        assert_eq!(ring.tail(), Vec::new());
    }

    #[test]
    fn set_capacity_resets_a_ring() {
        let mut ring = EventLog::default();
        assert_eq!(ring.capacity, DEFAULT_CAPACITY);
        ring.record(ev(1));
        ring.set_capacity(2);
        assert_eq!(ring.tail_len(), 0);
        for i in 0..5 {
            ring.record(ev(i));
        }
        assert_eq!(ts(&ring.tail()), vec![3, 4]);
    }

    /// The long-lived recorder's memory is fixed: a million events over a
    /// hundred thousand tracks leave one ring and one ring's worth of names,
    /// with sequence numbers and metrics as exact as a capture's. (The
    /// capture twin is the expensive half: ~240 MB for the length of the test.)
    #[test]
    fn bounded_recorder_stays_bounded_and_matches_a_capture_tail() {
        const EVENTS: u64 = 1_000_000;
        const TRACKS: u64 = 100_000;
        let (mut live, mut twin) = (Recorder::bounded(), Recorder::enabled());
        for i in 0..EVENTS {
            for r in [&mut live, &mut twin] {
                let track = Track::virt(tid::QUERY_BASE + (i % TRACKS) as u32);
                r.declare_track(track, || format!("query-{}", i % TRACKS));
                match i % 3 {
                    0 => r.span(track, "c", "s", i, i + 7, &[("i", i), ("j", i / 2)]),
                    1 => r.instant(track, "c", "i", i, &[("i", i)]),
                    _ => r.flow(track, "c", "f", i, i, FlowDir::Start),
                }
                r.add("n", 1);
                r.observe("h", i % 1000);
            }
        }
        let cap = DEFAULT_CAPACITY;
        let log = live.flight();
        assert_eq!(log.seq(), EVENTS);
        assert_eq!(log.tail_len(), cap);
        assert!(log.events.len() <= cap && log.events.capacity() <= cap);
        assert!(log.tracks.len() <= cap && log.declared.len() <= cap);
        assert!(live.events().is_empty());
        assert_eq!(live.counter("n"), EVENTS);
        assert_eq!(live.snapshot(), twin.snapshot());
        assert_eq!(twin.events().len() as u64, EVENTS);
        assert_eq!(log.tail(), twin.events()[EVENTS as usize - cap..]);
        assert_eq!(log.tail(), twin.flight().tail());
        // Same tail, same names for it: the dumps are the same bytes.
        assert_eq!(live.flight_dump_json(), twin.flight_dump_json());
    }

    #[test]
    fn shared_flight_holds_the_latest_dump() {
        let cell = SharedFlight::new();
        assert_eq!(cell.get(), None);
        cell.publish(FlightDump {
            reason: "drift.alert".to_owned(),
            trace_json: "[\n]\n".to_owned(),
            trigger_seq: 3,
        });
        cell.publish(FlightDump {
            reason: "slow.request".to_owned(),
            trace_json: "[\n]\n".to_owned(),
            trigger_seq: 9,
        });
        let dump = cell.get().expect("dump published");
        assert_eq!(dump.reason, "slow.request");
        assert_eq!(dump.trigger_seq, 9);
    }
}
