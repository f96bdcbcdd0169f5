//! Page-access traces.
//!
//! The paper's "lightweight instrumentation module that intercepts and logs
//! the page requests from the buffer manager" (§3.3, Trace Construction).
//! The executor emits one [`TraceEvent::Read`] per page request — including
//! the redundant repeated requests for index paths and hot heap pages — plus
//! [`TraceEvent::Cpu`] markers recording tuple-processing work between reads
//! (the replay runtime charges CPU time there, which is what asynchronous
//! prefetch I/O overlaps with).

use std::collections::BTreeMap;
use std::fmt;

use pythia_sim::{FileId, PageId};

use crate::catalog::ObjectId;

/// How a page was accessed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Page read by a sequential scan (the OS readahead path).
    SeqScan,
    /// Internal B+Tree node on a probe path.
    IndexInternal,
    /// B+Tree leaf node.
    IndexLeaf,
    /// Heap page fetched through an index (non-sequential).
    HeapFetch,
}

impl AccessKind {
    /// Whether this access is part of a sequential pattern. Pythia's training
    /// pipeline removes sequential accesses (Algorithm 1 line 8) because OS
    /// readahead already covers them.
    pub fn is_sequential(&self) -> bool {
        matches!(self, AccessKind::SeqScan)
    }
}

/// One event in a query's execution trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A page request to the buffer manager.
    Read {
        obj: ObjectId,
        page: PageId,
        kind: AccessKind,
    },
    /// `units` tuples' worth of CPU work since the previous event.
    Cpu { units: u32 },
}

/// A [`TraceEvent`] as a trace stores it, in one word:
/// `kind:3 | obj:14 | file:14 | page_no or units:32` below a spare top bit.
/// Kinds 0–3 are the [`AccessKind`]s of a read, 4 is `Cpu`. A process that
/// holds traces holds millions of these, so the word is what sizes it.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct PackedEvent(u64);

const _: () = assert!(std::mem::size_of::<PackedEvent>() == 8);

impl PackedEvent {
    /// Largest object id and largest file id an event can carry.
    pub const MAX_ID: u32 = (1 << 14) - 1;

    const FILE_SHIFT: u32 = 32;
    const OBJ_SHIFT: u32 = 46;
    const KIND_SHIFT: u32 = 60;
    const CPU: u64 = 4;

    /// # Panics
    /// Panics if the event's object or file id exceeds [`Self::MAX_ID`]: a
    /// truncated id would replay some other page.
    pub fn pack(event: TraceEvent) -> Self {
        match event {
            TraceEvent::Read { obj, page, kind } => {
                assert!(
                    obj.0 <= Self::MAX_ID && page.file.0 <= Self::MAX_ID,
                    "object id {} or file id {} exceeds the packed trace event's limit of {}",
                    obj.0,
                    page.file.0,
                    Self::MAX_ID
                );
                PackedEvent(
                    (kind as u64) << Self::KIND_SHIFT
                        | (obj.0 as u64) << Self::OBJ_SHIFT
                        | (page.file.0 as u64) << Self::FILE_SHIFT
                        | page.page_no as u64,
                )
            }
            TraceEvent::Cpu { units } => PackedEvent(Self::CPU << Self::KIND_SHIFT | units as u64),
        }
    }

    pub fn unpack(self) -> TraceEvent {
        let kind = match self.0 >> Self::KIND_SHIFT {
            0 => AccessKind::SeqScan,
            1 => AccessKind::IndexInternal,
            2 => AccessKind::IndexLeaf,
            3 => AccessKind::HeapFetch,
            _ => {
                return TraceEvent::Cpu {
                    units: self.0 as u32,
                }
            }
        };
        TraceEvent::Read {
            obj: ObjectId((self.0 >> Self::OBJ_SHIFT) as u32 & Self::MAX_ID),
            page: PageId::new(
                FileId((self.0 >> Self::FILE_SHIFT) as u32 & Self::MAX_ID),
                self.0 as u32,
            ),
            kind,
        }
    }
}

impl fmt::Debug for PackedEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.unpack().fmt(f)
    }
}

/// A query's full page-request trace, in execution order.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Read through [`Trace::iter`]; extend through [`Trace::push`].
    pub events: Vec<PackedEvent>,
}

impl FromIterator<TraceEvent> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceEvent>>(events: I) -> Self {
        Trace {
            events: events.into_iter().map(PackedEvent::pack).collect(),
        }
    }
}

impl Trace {
    /// Empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Append one event.
    ///
    /// # Panics
    /// As [`PackedEvent::pack`].
    pub fn push(&mut self, event: TraceEvent) {
        self.events.push(PackedEvent::pack(event));
    }

    /// The events in execution order.
    pub fn iter(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        self.events.iter().map(|e| e.unpack())
    }

    /// Number of page-read events (sequential + non-sequential, with
    /// repetitions).
    pub fn read_count(&self) -> usize {
        self.iter()
            .filter(|e| matches!(e, TraceEvent::Read { .. }))
            .count()
    }

    /// Number of sequential page reads.
    pub fn sequential_reads(&self) -> usize {
        self.iter()
            .filter(|e| matches!(e, TraceEvent::Read { kind, .. } if kind.is_sequential()))
            .count()
    }

    /// Total CPU units recorded.
    pub fn cpu_units(&self) -> u64 {
        self.iter()
            .map(|e| match e {
                TraceEvent::Cpu { units } => units as u64,
                _ => 0,
            })
            .sum()
    }

    /// The paper's trace post-processing (Algorithm 1 lines 8–12): drop
    /// sequential accesses, deduplicate, group by database object, and sort
    /// each group by page offset. Returns `object -> sorted distinct page
    /// numbers`.
    pub fn non_sequential_sets(&self) -> BTreeMap<ObjectId, Vec<u32>> {
        let mut sets: BTreeMap<ObjectId, Vec<u32>> = BTreeMap::new();
        for e in self.iter() {
            if let TraceEvent::Read { obj, page, kind } = e {
                if !kind.is_sequential() {
                    sets.entry(obj).or_default().push(page.page_no);
                }
            }
        }
        for pages in sets.values_mut() {
            pages.sort_unstable();
            pages.dedup();
        }
        sets
    }

    /// Distinct non-sequential pages across all objects (the paper's
    /// "distinct non-sequential IO" statistic in Table 1).
    pub fn distinct_non_sequential(&self) -> usize {
        self.non_sequential_sets().values().map(Vec::len).sum()
    }

    /// The exact ordered page-request sequence (what the ORCL oracle
    /// baseline prefetches).
    pub fn page_sequence(&self) -> Vec<PageId> {
        self.iter()
            .filter_map(|e| match e {
                TraceEvent::Read { page, .. } => Some(page),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(obj: u32, file: u32, page: u32, kind: AccessKind) -> TraceEvent {
        TraceEvent::Read {
            obj: ObjectId(obj),
            page: PageId::new(FileId(file), page),
            kind,
        }
    }

    fn sample() -> Trace {
        Trace::from_iter([
            read(0, 0, 0, AccessKind::SeqScan),
            TraceEvent::Cpu { units: 10 },
            read(1, 1, 5, AccessKind::IndexInternal),
            read(1, 1, 2, AccessKind::IndexLeaf),
            read(2, 2, 9, AccessKind::HeapFetch),
            read(0, 0, 1, AccessKind::SeqScan),
            TraceEvent::Cpu { units: 3 },
            read(1, 1, 5, AccessKind::IndexInternal), // repeated path
            read(1, 1, 3, AccessKind::IndexLeaf),
            read(2, 2, 9, AccessKind::HeapFetch), // repeated heap page
        ])
    }

    #[test]
    fn counts() {
        let t = sample();
        assert_eq!(t.read_count(), 8);
        assert_eq!(t.sequential_reads(), 2);
        assert_eq!(t.cpu_units(), 13);
    }

    #[test]
    fn non_sequential_sets_dedup_and_sort() {
        let t = sample();
        let sets = t.non_sequential_sets();
        assert_eq!(sets.len(), 2);
        assert_eq!(sets[&ObjectId(1)], vec![2, 3, 5]);
        assert_eq!(sets[&ObjectId(2)], vec![9]);
        assert!(
            !sets.contains_key(&ObjectId(0)),
            "sequential-only object excluded"
        );
        assert_eq!(t.distinct_non_sequential(), 4);
    }

    #[test]
    fn page_sequence_preserves_order_and_repeats() {
        let t = sample();
        let seq = t.page_sequence();
        assert_eq!(seq.len(), 8);
        assert_eq!(seq[0].page_no, 0);
        assert_eq!(seq[1], seq[5], "repeated index root preserved");
        assert_eq!(seq[3], seq[7], "repeated heap page preserved");
    }

    #[test]
    fn packed_events_round_trip_at_the_boundaries() {
        let kinds = [
            AccessKind::SeqScan,
            AccessKind::IndexInternal,
            AccessKind::IndexLeaf,
            AccessKind::HeapFetch,
        ];
        let mut events = vec![
            TraceEvent::Cpu { units: 0 },
            TraceEvent::Cpu { units: u32::MAX },
        ];
        for kind in kinds {
            for obj in [0, PackedEvent::MAX_ID] {
                for file in [0, PackedEvent::MAX_ID] {
                    for page_no in [0, u32::MAX] {
                        events.push(read(obj, file, page_no, kind));
                    }
                }
            }
        }
        let mut t = Trace::new();
        for &e in &events {
            t.push(e);
        }
        assert_eq!(t.iter().collect::<Vec<_>>(), events);
        assert_eq!(t.events.len(), events.len());
        // Collecting is pushing; `Debug` shows the event, not the word.
        let collected: Trace = events.iter().copied().collect();
        assert_eq!(collected.events, t.events);
        assert_eq!(format!("{:?}", t.events[1]), format!("{:?}", events[1]));
    }

    #[test]
    #[should_panic(expected = "limit of 16383")]
    fn object_id_past_the_packed_width_panics() {
        Trace::new().push(read(PackedEvent::MAX_ID + 1, 0, 0, AccessKind::HeapFetch));
    }

    #[test]
    #[should_panic(expected = "limit of 16383")]
    fn file_id_past_the_packed_width_panics() {
        Trace::new().push(read(0, PackedEvent::MAX_ID + 1, 0, AccessKind::HeapFetch));
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new();
        assert_eq!(t.read_count(), 0);
        assert!(t.non_sequential_sets().is_empty());
        assert_eq!(t.distinct_non_sequential(), 0);
    }
}
