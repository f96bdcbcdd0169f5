//! The event store: one log of fixed-size slots, kept under one of two
//! retentions.
//!
//! Every span/instant/flow recorded through a [`crate::Recorder`] is written
//! once, into an [`EventLog`], as one 80-byte `EventSlot`: track, timestamp,
//! duration or flow id, [`crate::MAX_ARGS`] argument values, a kind byte and
//! a `u16` *shape* — category, name and keys, interned by address on a call
//! site's first event and found by one hash after. Recording never allocates
//! per event; reads decode slots back into the [`Event`]s recorded. Nothing
//! is kept per track: a render names each track it has an event on by
//! `tid::name`. The only variable is how much of the stream the log
//! keeps:
//!
//! * [`Retention::All`] — everything, forever: a *capture*
//!   (`Recorder::enabled()`), for tests, trace export and the trace-diff gate.
//!   Memory is linear in events recorded, so it is opt-in.
//! * [`Retention::LastN`] — the last `capacity` events in a ring allocated
//!   up front: the black-box flight recorder of a recorder whose dumps
//!   something reads (`Recorder::bounded()`, or one given a flight
//!   publisher), 320 KiB at the default 4 096 events from its first event to
//!   its last, however long the process lives. Capacity 0 keeps nothing,
//!   at one branch a call: `Recorder::disabled()`, whose tail nothing reads.
//!
//! Either way the log's *tail* — its last `capacity` events — is what an
//! anomaly trigger (a shed burst or a slow request; see
//! `Recorder::trigger_flight`) renders to Chrome-trace JSON and publishes
//! into a [`crate::Shared`] cell, which the query front
//! (`pythia_core::frontend`) serves at `/debug/flight`: a postmortem of the events just *before*
//! the trigger, across every track, loadable in Perfetto like any other trace.
//! The dump's last event is the trigger's own `flight.trigger` instant, whose
//! category is the reason and whose `seq` arg is the log position.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::{chrome, Args, Event, FlowDir, Track, MAX_ARGS};

/// Default tail length (events): 4 096 slots of 80 bytes, a 320 KiB ring.
pub const DEFAULT_CAPACITY: usize = 4096;

type Arg = (&'static str, u64);

/// How much of the event stream an [`EventLog`] keeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Retention {
    /// Every event, forever (a capture).
    All,
    /// The last `capacity` events, in a fixed ring.
    #[default]
    LastN,
}

/// One stored event. Its static strings are `shape`'s, in the log's table.
#[derive(Debug, Clone, Copy)]
struct EventSlot {
    track: Track,
    ts_us: u64,
    /// A span's duration or a flow's id; 0 for an instant.
    word: u64,
    values: [u64; MAX_ARGS],
    shape: u16,
    kind: Kind,
}

const _: () = assert!(std::mem::size_of::<EventSlot>() <= 96);

/// What an event is, which says what its slot's `word` holds.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Kind {
    Span,
    Instant,
    Flow(FlowDir),
}

/// A multiplicative hash of a static name's address and length, never input:
/// every event pays for one, and SipHash cost more than the rest of a write.
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("a shape is keyed by two usizes")
    }

    fn write_usize(&mut self, word: usize) {
        self.0 = (self.0.rotate_left(5) ^ word as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// The one event store. It reserves `capacity` slots up front (pages are
/// touched as events arrive), past which a ring never grows. The default log
/// is a ring of capacity 0, which keeps nothing and allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    retention: Retention,
    /// Tail length: the ring size under `LastN`, the dump length under `All`.
    capacity: usize,
    slots: Vec<EventSlot>,
    /// The ring's oldest slot once it is full (0 until then, and under `All`).
    next: usize,
    /// Total events ever recorded (monotone; identifies trigger points).
    seq: u64,
    /// `(category, name, keys)` by shape id; the keys' values are 0.
    shapes: Vec<(&'static str, &'static str, Args)>,
    /// Shape ids by the address and length of their name.
    by_name: HashMap<(usize, usize), Vec<u16>, BuildHasherDefault<AddrHasher>>,
}

impl EventLog {
    /// An empty log with a tail of `capacity` events.
    pub(crate) fn new(retention: Retention, capacity: usize) -> EventLog {
        EventLog {
            retention,
            capacity,
            slots: Vec::with_capacity(capacity),
            ..EventLog::default()
        }
    }

    /// Whether the log has a tail to dump (capacity > 0).
    #[inline]
    pub(crate) fn is_active(&self) -> bool {
        self.capacity > 0
    }

    /// Total events ever recorded, including those already overwritten.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Record one event; `word` is a span's duration or a flow's id. One
    /// branch when the log keeps nothing; O(1), and a ring never reallocates.
    #[inline]
    #[allow(clippy::too_many_arguments)] // a slot's fields, strings unresolved
    pub(crate) fn record(
        &mut self,
        track: Track,
        kind: Kind,
        word: u64,
        cat: &'static str,
        name: &'static str,
        ts_us: u64,
        args: &[Arg],
    ) {
        if self.capacity == 0 && self.retention == Retention::LastN {
            return;
        }
        let mut values = [0; MAX_ARGS];
        values.iter_mut().zip(args).for_each(|(v, a)| *v = a.1);
        let shape = self.shape(cat, name, args);
        let slot = EventSlot {
            track,
            ts_us,
            word,
            values,
            shape,
            kind,
        };
        if self.retention == Retention::LastN && self.slots.len() == self.capacity {
            self.slots[self.next] = slot;
            self.next += 1;
            if self.next == self.capacity {
                self.next = 0;
            }
        } else {
            self.slots.push(slot);
        }
        self.seq += 1;
    }

    /// The id of `(cat, name, keys)`, compared by address, added if new.
    fn shape(&mut self, cat: &'static str, name: &'static str, args: &[Arg]) -> u16 {
        let key = (name.as_ptr() as usize, name.len());
        let ids = self.by_name.entry(key).or_default();
        let same = |(c, _, keys): &(&str, &str, Args)| {
            std::ptr::eq(*c, cat)
                && keys.len() == args.len()
                && keys.iter().zip(args).all(|(k, a)| std::ptr::eq(k.0, a.0))
        };
        if let Some(&id) = ids.iter().find(|&&id| same(&self.shapes[usize::from(id)])) {
            return id;
        }
        let mut keys = Args::new(args);
        keys.pairs.iter_mut().for_each(|pair| pair.1 = 0);
        ids.push(u16::try_from(self.shapes.len()).expect("over 65 536 event shapes"));
        self.shapes.push((cat, name, keys));
        ids[ids.len() - 1]
    }

    /// The event `s` was recorded as.
    fn decode(&self, s: &EventSlot) -> Event {
        let (cat, name, mut args) = self.shapes[usize::from(s.shape)];
        for (pair, v) in args.pairs.iter_mut().zip(s.values) {
            pair.1 = v;
        }
        let (dur_us, flow) = match s.kind {
            Kind::Span => (Some(s.word), None),
            Kind::Instant => (None, None),
            Kind::Flow(dir) => (None, Some((s.word, dir))),
        };
        Event {
            track: s.track,
            cat,
            name,
            ts_us: s.ts_us,
            dur_us,
            flow,
            args,
        }
    }

    /// The capture, decoded: every event in insertion order under `All`;
    /// nothing under `LastN`, which holds a tail, not a trace.
    pub(crate) fn captured(&self) -> impl Iterator<Item = Event> + Clone + '_ {
        let kept = match self.retention {
            Retention::All => &self.slots[..],
            Retention::LastN => &[],
        };
        kept.iter().map(|s| self.decode(s))
    }

    /// The tail, decoded, oldest first: from `next` on, then before it.
    fn tail_iter(&self) -> impl Iterator<Item = Event> + Clone + '_ {
        let (new, old) = self.slots.split_at(self.next);
        let skip = self.slots.len() - self.tail_len();
        old.iter().chain(new).skip(skip).map(|s| self.decode(s))
    }

    /// Events in the tail (≤ capacity).
    pub fn tail_len(&self) -> usize {
        self.slots.len().min(self.capacity)
    }

    /// The last `capacity` events, oldest first.
    pub fn tail(&self) -> Vec<Event> {
        self.tail_iter().collect()
    }

    /// The capture as Chrome trace-event JSON, optionally one process only.
    pub(crate) fn trace_json(&self, pid_filter: Option<u32>) -> String {
        chrome::trace_json(self.captured(), pid_filter)
    }

    /// The tail as Chrome trace-event JSON — a flight dump.
    pub(crate) fn tail_json(&self) -> String {
        chrome::trace_json(self.tail_iter(), None)
    }

    /// Change the tail length (0 turns dumps off, and a ring with them).
    /// A ring's layout depends on it, so `LastN` drops what it retains; a
    /// capture keeps everything and only its dumps change length.
    pub(crate) fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        if self.retention == Retention::LastN {
            self.clear();
        }
    }

    /// Drop all retained events (the monotone `seq`, the retention and the
    /// capacity are preserved).
    pub(crate) fn clear(&mut self) {
        self.slots = Vec::with_capacity(self.capacity);
        self.next = 0;
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

    /// Record `e` as `Recorder::span`, `instant` or `flow` would.
    fn put(log: &mut EventLog, e: Event) {
        let (kind, word) = match (e.flow, e.dur_us) {
            (Some((id, dir)), _) => (Kind::Flow(dir), id),
            (None, Some(dur)) => (Kind::Span, dur),
            (None, None) => (Kind::Instant, 0),
        };
        log.record(e.track, kind, word, e.cat, e.name, e.ts_us, &e.args);
    }

    fn ts(events: &[Event]) -> Vec<u64> {
        events.iter().map(|e| e.ts_us).collect()
    }

    #[test]
    fn ring_retains_exactly_the_last_capacity_events_in_order() {
        let mut ring = EventLog::new(Retention::LastN, 4);
        for i in 0..10 {
            put(&mut ring, ev(i));
        }
        assert_eq!(ring.tail_len(), 4);
        assert_eq!(ring.seq(), 10);
        assert_eq!(ts(&ring.tail()), vec![6, 7, 8, 9], "oldest → newest tail");
        assert_eq!(ring.captured().count(), 0, "a ring is not a capture");
        // Before wrapping, the partial fill comes back in insertion order.
        let mut young = EventLog::new(Retention::LastN, 4);
        put(&mut young, ev(0));
        put(&mut young, ev(1));
        assert_eq!(ts(&young.tail()), vec![0, 1]);
    }

    #[test]
    fn capture_keeps_everything_and_its_tail_is_the_same_last_n() {
        let mut all = EventLog::new(Retention::All, 4);
        for i in 0..10 {
            put(&mut all, ev(i));
        }
        assert_eq!(all.captured().count(), 10);
        assert_eq!((all.tail_len(), all.seq()), (4, 10));
        assert_eq!(ts(&all.tail()), vec![6, 7, 8, 9]);
        // Resizing a capture's tail changes dumps only; 0 leaves it recording.
        all.set_capacity(0);
        put(&mut all, ev(10));
        assert_eq!(all.captured().count(), 11);
        assert!(!all.is_active() && all.tail().is_empty());
    }

    #[test]
    fn zero_capacity_ring_drops_everything() {
        let mut ring = EventLog::new(Retention::LastN, 0);
        assert!(!ring.is_active());
        put(&mut ring, ev(1));
        assert_eq!(ring.tail_len(), 0);
        assert_eq!(ring.seq(), 0);
        assert_eq!(ring.tail(), Vec::new());
    }

    #[test]
    fn set_capacity_resets_a_ring() {
        let mut ring = EventLog::default();
        assert_eq!((ring.retention, ring.capacity), (Retention::LastN, 0));
        put(&mut ring, ev(1));
        assert_eq!(ring.seq(), 0, "the default log keeps nothing");
        ring.set_capacity(DEFAULT_CAPACITY);
        put(&mut ring, ev(1));
        ring.set_capacity(2);
        assert_eq!(ring.tail_len(), 0);
        for i in 0..5 {
            put(&mut ring, ev(i));
        }
        assert_eq!(ts(&ring.tail()), vec![3, 4]);
    }

    /// One name recorded with two key sets (twice with each, as a span and
    /// as an instant) is two shapes, and a flow of that name with no keys a
    /// third; every event decodes to exactly what was recorded — keys,
    /// values, category, duration and flow.
    #[test]
    fn one_name_with_two_key_sets_round_trips() {
        // One copy of each key, as one call site passes them: a shape is
        // matched by the strings' addresses.
        let keys = ["request", "query", "tenant"];
        let admit = |ts_us: u64, arity: usize, dur_us| Event {
            track: Track::virt(tid::SERVER),
            cat: "server",
            name: "server.admit",
            ts_us,
            dur_us,
            flow: None,
            args: Args::new(&keys.map(|k| (k, ts_us + k.len() as u64))[..arity]),
        };
        let flow = Event {
            flow: Some((9, FlowDir::Finish)),
            ..admit(7, 0, None)
        };
        let events = [
            admit(1, 2, Some(3)),
            admit(2, 3, None),
            admit(3, 2, None),
            admit(4, 3, Some(0)),
            flow,
        ];
        for retention in [Retention::All, Retention::LastN] {
            let mut log = EventLog::new(retention, 8);
            for e in events {
                put(&mut log, e);
            }
            assert_eq!(log.tail(), events);
            assert_eq!(log.shapes.len(), 3, "two key sets and no keys");
        }
    }

    /// The long-lived recorder's memory is fixed: a million events over a
    /// hundred thousand tracks leave one ring and three shapes, with
    /// sequence numbers and metrics as exact as a capture's. (The capture
    /// twin is the expensive half: 80 MB of slots for the length of the
    /// test.)
    #[test]
    fn bounded_recorder_stays_bounded_and_matches_a_capture_tail() {
        const EVENTS: u64 = 1_000_000;
        const TRACKS: u64 = 100_000;
        let (mut live, mut twin) = (Recorder::bounded(), Recorder::enabled());
        for i in 0..EVENTS {
            for r in [&mut live, &mut twin] {
                let track = Track::virt(tid::Kind::Query.tid(i % TRACKS));
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
        assert!(log.slots.len() <= cap && log.slots.capacity() <= cap);
        assert_eq!(log.shapes.len(), 3);
        assert!(live.events().is_empty());
        assert_eq!(live.counter("n"), EVENTS);
        assert_eq!(live.snapshot(), twin.snapshot());
        let all = twin.flight().captured();
        assert_eq!(all.clone().count() as u64, EVENTS);
        assert_eq!(
            log.tail(),
            all.skip(EVENTS as usize - cap).collect::<Vec<_>>()
        );
        assert_eq!(log.tail(), twin.flight().tail());
        // Same tail, so the same tracks named: the dumps are the same bytes.
        assert_eq!(live.flight_dump_json(), twin.flight_dump_json());
    }
}
