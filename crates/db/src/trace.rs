//! Page-access traces.
//!
//! The paper's "lightweight instrumentation module that intercepts and logs
//! the page requests from the buffer manager" (§3.3, Trace Construction).
//! The executor emits one [`TraceEvent::Read`] per page request — including
//! the redundant repeated requests for index paths and hot heap pages — plus
//! [`TraceEvent::Cpu`] markers recording tuple-processing work between reads
//! (the replay runtime charges CPU time there, which is what asynchronous
//! prefetch I/O overlaps with).
//!
//! A trace holds its events as bytes ([`EventStream`]): a tag byte per
//! event, a read coded as a page step from the last read of its own object
//! and access kind, and the CPU work before a heap fetch or a sequential
//! read folded into that read's tag, so the benchmark fixture's 3.09 M
//! events take 0.88 bytes each.

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

/// A tag byte is `op:3 | arg:5`. Ops 0–3 are reads of that [`AccessKind`],
/// 4 is `Cpu`, 5 switches a class's read context, and 6 and 7 are a `Cpu`
/// and the read after it in one tag.
const OP_SHIFT: u32 = 5;
const ARG_MASK: u8 = (1 << OP_SHIFT) - 1;
const CPU: u8 = 4;
const SWITCH: u8 = 5;
/// One unit of CPU work, then a heap fetch whose step the argument codes.
const CPU_FETCH: u8 = 6;
/// CPU work coded as op 4 codes it, then a sequential read one page on.
const CPU_SCAN: u8 = 7;
/// The argument that says varints follow: `units − 31` of a `Cpu` (op 4 or
/// 7), or a switch's new object and file.
const ESCAPE: u8 = ARG_MASK;
/// The argument of a read whose page step follows as a zigzag varint.
const FAR_STEP: u8 = ESCAPE - 1;
/// A near read's page step is its argument minus this, so steps −15..=14 fit.
const STEP_BIAS: i32 = 15;
/// Contexts switched away from that are kept: every argument of a switch
/// but the escape names one.
const SLOTS: usize = ESCAPE as usize;

/// The kind of read each op codes; ops 4 and 5 code none, and their
/// entries are never read.
const OP_KIND: [AccessKind; 8] = [
    AccessKind::SeqScan,
    AccessKind::IndexInternal,
    AccessKind::IndexLeaf,
    AccessKind::HeapFetch,
    AccessKind::SeqScan,
    AccessKind::SeqScan,
    AccessKind::HeapFetch,
    AccessKind::SeqScan,
];

/// The access class whose current context a read of this kind is coded
/// in: 1 for an index's reads (internal, leaf), 0 for a table's
/// (sequential, heap fetch).
#[inline]
fn class(kind: AccessKind) -> usize {
    usize::from(matches!(
        kind,
        AccessKind::IndexInternal | AccessKind::IndexLeaf
    ))
}

/// Which of its context's last pages a read of this kind steps from: 0 for
/// sequential and internal reads, 1 for leaves and heap fetches.
#[inline]
fn lane(kind: AccessKind) -> usize {
    usize::from(matches!(
        kind,
        AccessKind::IndexLeaf | AccessKind::HeapFetch
    ))
}

/// One (object, file)'s last reads, one per lane: what its next read is
/// coded against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Context {
    obj: u32,
    file: u32,
    pages: [u32; 2],
}

/// The state both sides of the codec keep: each class's current context,
/// and up to [`SLOTS`] contexts either class switched away from. Before a
/// trace's first read both current contexts are all zeros and no slot is
/// used.
#[derive(Clone, Debug, Default)]
struct Contexts {
    cur: [Context; 2],
    saved: [Context; SLOTS],
    /// Slots in use, filled in order.
    used: u8,
    /// The slot a new context evicts once all are used, round robin.
    victim: u8,
}

impl Contexts {
    /// Make the context in `slot` the class's current one, saving the
    /// current one there.
    #[inline]
    fn resume(&mut self, class: usize, slot: u8) {
        std::mem::swap(&mut self.cur[class], &mut self.saved[usize::from(slot)]);
    }

    /// Make a new (object, file) the class's current context, at page 0 in
    /// both lanes, saving the current one in the next free slot or else the
    /// victim's.
    #[inline]
    fn open(&mut self, class: usize, obj: u32, file: u32) {
        let slot = if usize::from(self.used) < SLOTS {
            self.used += 1;
            self.used - 1
        } else {
            let slot = self.victim;
            self.victim = (slot + 1) % SLOTS as u8;
            slot
        };
        self.saved[usize::from(slot)] = self.cur[class];
        self.cur[class] = Context {
            obj,
            file,
            pages: [0; 2],
        };
    }
}

/// A trace's events as bytes: one tag byte per event, or per `Cpu` and the
/// read after it, then LEB128 varints only when the tag cannot hold the
/// argument.
///
/// - `Cpu`: the tag carries units below 31; otherwise the argument is 31
///   and `units − 31` follows.
/// - A read is coded in its access class's current context: index reads
///   in one, table reads in the other. It steps from the context's last
///   read of the same lane — internal nodes and sequential reads in one,
///   leaves and heap fetches in the other. The tag carries page steps
///   −15..=14 as `arg − 15`; argument 30 is followed by the step as a
///   zigzag varint. Steps wrap at 2³², so any page is one step away.
/// - A read on another object and file than its class's current context
///   is preceded by a switch tag, which applies to the class of the read
///   after it. Its argument is the slot where that context was saved when
///   a class switched away from it, or 31 for a context not held in a slot,
///   followed by its object and file; such a context's last pages count as
///   0. The context switched away from takes a slot: a free one while any
///   is, then the slots in turn.
/// - A `Cpu` of one unit and the heap fetch after it are one tag of op 6,
///   whose argument codes the fetch's step. Any `Cpu` and a sequential
///   read one page on from its lane are op 7, which codes the units as
///   op 4 does. A switch the read needs comes before that tag.
///
/// The encoder writes a `Cpu`'s tag when the `Cpu` is pushed and rewrites
/// it when the read it folds into is, so the stream decodes at every point
/// and its bytes are a function of the events alone. An executed trace
/// repeats index paths and walks heap pages closely, and an
/// index-nested-loop join alternates between the index and the heap in
/// two classes without a switch, so most events are their tag alone or
/// share one: the benchmark fixture averages 0.88 bytes per event. Events
/// are written only by [`Trace::push`] and never come from outside the
/// program, so the decoder trusts its bytes.
#[derive(Clone, Default)]
pub struct EventStream {
    bytes: Vec<u8>,
    /// Events encoded.
    len: usize,
    /// How many of them are reads.
    reads: usize,
    /// What the next read is coded against: `None` until the first read
    /// and once the trace is finished ([`EventStream::shrink_to_fit`]), so
    /// a stored trace holds its bytes alone. A read pushed to a finished
    /// stream decodes the bytes again to find it.
    encoder: Option<Box<Encoder>>,
}

/// The encoder's state between pushes.
#[derive(Clone, Debug)]
struct Encoder {
    ctx: Contexts,
    /// Where the last event starts if it is a `Cpu`: the bytes a read
    /// pushed next may fold into its own tag.
    cpu_at: Option<usize>,
}

impl Encoder {
    /// The state after `bytes`, decoded again.
    fn resume(bytes: &[u8]) -> Encoder {
        let mut events = Events::new(bytes);
        let mut cpu_at = None;
        loop {
            let at = bytes.len() - events.bytes.len();
            match events.next() {
                None => break,
                Some(TraceEvent::Cpu { .. }) => cpu_at = Some(at),
                Some(TraceEvent::Read { .. }) => cpu_at = None,
            }
        }
        Encoder {
            ctx: events.ctx,
            cpu_at,
        }
    }
}

impl PartialEq for EventStream {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for EventStream {}

impl EventStream {
    /// Number of events (not bytes).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the stream holds no event.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The encoding.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Bytes the stream holds on the heap.
    #[cfg(test)]
    pub(crate) fn byte_capacity(&self) -> usize {
        self.bytes.capacity()
    }

    /// Give back the slack of the buffer's growth and the encoder's state:
    /// the trace is finished.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.bytes.shrink_to_fit();
        self.encoder = None;
    }

    fn push(&mut self, event: TraceEvent) {
        self.len += 1;
        let bytes = &mut self.bytes;
        match event {
            TraceEvent::Cpu { units } => {
                if let Some(enc) = &mut self.encoder {
                    enc.cpu_at = Some(bytes.len());
                }
                match units.checked_sub(ESCAPE.into()) {
                    None => bytes.push(tag(CPU, units as u8)),
                    Some(rest) => {
                        bytes.push(tag(CPU, ESCAPE));
                        put_varint(bytes, rest);
                    }
                }
            }
            TraceEvent::Read { obj, page, kind } => {
                self.reads += 1;
                let enc = self
                    .encoder
                    .get_or_insert_with(|| Box::new(Encoder::resume(bytes)));
                let ctx = &mut enc.ctx;
                let (obj, file) = (obj.0, page.file.0);
                let class = class(kind);
                let switch_at = bytes.len();
                let cur = ctx.cur[class];
                if (obj, file) != (cur.obj, cur.file) {
                    let used = &ctx.saved[..usize::from(ctx.used)];
                    match used.iter().position(|s| (s.obj, s.file) == (obj, file)) {
                        Some(slot) => {
                            bytes.push(tag(SWITCH, slot as u8));
                            ctx.resume(class, slot as u8);
                        }
                        None => {
                            bytes.push(tag(SWITCH, ESCAPE));
                            put_varint(bytes, obj);
                            put_varint(bytes, file);
                            ctx.open(class, obj, file);
                        }
                    }
                }
                let last = &mut ctx.cur[class].pages[lane(kind)];
                let step = page.page_no.wrapping_sub(*last) as i32;
                *last = page.page_no;
                // Fold the `Cpu` just written into this read's tag where an
                // op holds both; a switch the read needs goes before it.
                let op = match (enc.cpu_at.take(), kind) {
                    (Some(at), AccessKind::HeapFetch) if bytes[at] == tag(CPU, 1) => {
                        bytes.remove(at);
                        CPU_FETCH
                    }
                    (Some(at), AccessKind::SeqScan) if step == 1 => {
                        let cpu_len = switch_at - at;
                        bytes[at..].rotate_left(cpu_len);
                        let at = bytes.len() - cpu_len;
                        bytes[at] = tag(CPU_SCAN, bytes[at] & ARG_MASK);
                        return;
                    }
                    _ => kind as u8,
                };
                if (-STEP_BIAS..i32::from(FAR_STEP) - STEP_BIAS).contains(&step) {
                    bytes.push(tag(op, (step + STEP_BIAS) as u8));
                } else {
                    bytes.push(tag(op, FAR_STEP));
                    put_varint(bytes, ((step << 1) ^ (step >> 31)) as u32);
                }
            }
        }
    }

    fn iter(&self) -> Events<'_> {
        Events::new(&self.bytes)
    }
}

fn tag(op: u8, arg: u8) -> u8 {
    op << OP_SHIFT | arg
}

fn put_varint(bytes: &mut Vec<u8>, mut v: u32) {
    while v >= 0x80 {
        bytes.push(v as u8 | 0x80);
        v >>= 7;
    }
    bytes.push(v as u8);
}

impl fmt::Debug for EventStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// An [`EventStream`]'s decoder, reading the bytes in place: what
/// [`Trace::iter`] returns, and a replaying query's cursor. It carries the
/// codec's state by value, so a clone resumes where the original stands.
#[derive(Clone, Debug)]
pub struct Events<'a> {
    /// The events not yet decoded.
    bytes: &'a [u8],
    ctx: Contexts,
    /// The tag of a fused pair whose `Cpu` has been returned and whose read
    /// has not, or 0: no fused tag is 0. The next call decodes the read
    /// from it, and from the step varint after it if there is one.
    pending: u8,
}

// The decoder is inlined where it is used: replay decodes one event per step
// from another module, which an out-of-line call made twice as slow.
impl<'a> Events<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Events {
            bytes,
            ctx: Contexts::default(),
            pending: 0,
        }
    }

    /// Whether every event has been decoded.
    #[inline]
    pub(crate) fn at_end(&self) -> bool {
        self.bytes.is_empty() && self.pending == 0
    }

    #[inline]
    fn byte(&mut self) -> u8 {
        let (&b, rest) = self
            .bytes
            .split_first()
            .expect("push never ends a stream inside an event");
        self.bytes = rest;
        b
    }

    /// Apply the switch tag `first`, whose context is that of the class of
    /// the read after it, and return that read's tag.
    #[inline]
    fn switch(&mut self, first: u8) -> u8 {
        let (obj, file) = match first & ARG_MASK {
            ESCAPE => (self.varint(), self.varint()),
            _ => (0, 0),
        };
        let tag = self.byte();
        let class = class(OP_KIND[usize::from(tag >> OP_SHIFT)]);
        match first & ARG_MASK {
            ESCAPE => self.ctx.open(class, obj, file),
            slot => self.ctx.resume(class, slot),
        }
        tag
    }

    /// The units of a `Cpu` whose tag has argument `arg`.
    #[inline]
    fn units(&mut self, arg: u8) -> u32 {
        match arg {
            ESCAPE => u32::from(ESCAPE) + self.varint(),
            units => units.into(),
        }
    }

    #[inline]
    fn varint(&mut self) -> u32 {
        let (mut v, mut shift) = (0u32, 0);
        loop {
            let b = self.byte();
            v |= u32::from(b & 0x7f) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }
}

impl Iterator for Events<'_> {
    type Item = TraceEvent;

    #[inline]
    fn next(&mut self) -> Option<TraceEvent> {
        let tag = match self.pending {
            0 => {
                let (&first, rest) = self.bytes.split_first()?;
                self.bytes = rest;
                let tag = if first >> OP_SHIFT == SWITCH {
                    self.switch(first)
                } else {
                    first
                };
                let (op, arg) = (tag >> OP_SHIFT, tag & ARG_MASK);
                if op == CPU {
                    return Some(TraceEvent::Cpu {
                        units: self.units(arg),
                    });
                }
                if op > SWITCH {
                    self.pending = tag;
                    let units = if op == CPU_FETCH { 1 } else { self.units(arg) };
                    return Some(TraceEvent::Cpu { units });
                }
                tag
            }
            pending => {
                self.pending = 0;
                pending
            }
        };
        let (op, arg) = (tag >> OP_SHIFT, tag & ARG_MASK);
        let kind = OP_KIND[usize::from(op)];
        let step = match (op, arg) {
            (CPU_SCAN, _) => 1,
            (_, FAR_STEP) => {
                let z = self.varint();
                (z >> 1) as i32 ^ -((z & 1) as i32)
            }
            (_, near) => i32::from(near) - STEP_BIAS,
        };
        let cur = &mut self.ctx.cur[class(kind)];
        let page = &mut cur.pages[lane(kind)];
        *page = page.wrapping_add(step as u32);
        Some(TraceEvent::Read {
            obj: ObjectId(cur.obj),
            page: PageId::new(FileId(cur.file), *page),
            kind,
        })
    }
}

/// A query's full page-request trace, in execution order.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Read through [`Trace::iter`]; extend through [`Trace::push`].
    pub events: EventStream,
}

impl FromIterator<TraceEvent> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceEvent>>(events: I) -> Self {
        let mut trace = Trace::new();
        for e in events {
            trace.push(e);
        }
        trace
    }
}

impl Trace {
    /// Empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Append one event.
    pub fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// The events in execution order.
    pub fn iter(&self) -> Events<'_> {
        self.events.iter()
    }

    /// Number of page-read events (sequential + non-sequential, with
    /// repetitions).
    pub fn read_count(&self) -> usize {
        self.events.reads
    }

    /// Number of sequential page reads.
    pub fn sequential_reads(&self) -> usize {
        self.iter()
            .filter(|e| matches!(e, TraceEvent::Read { kind, .. } if kind.is_sequential()))
            .count()
    }

    /// Total CPU units recorded.
    #[cfg(test)]
    pub(crate) fn cpu_units(&self) -> u64 {
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
    use AccessKind::*;

    fn read(obj: u32, file: u32, page: u32, kind: AccessKind) -> TraceEvent {
        TraceEvent::Read {
            obj: ObjectId(obj),
            page: PageId::new(FileId(file), page),
            kind,
        }
    }

    fn cpu(units: u32) -> TraceEvent {
        TraceEvent::Cpu { units }
    }

    fn sample() -> Trace {
        Trace::from_iter([
            read(0, 0, 0, SeqScan),
            cpu(10),
            read(1, 1, 5, IndexInternal),
            read(1, 1, 2, IndexLeaf),
            read(2, 2, 9, HeapFetch),
            read(0, 0, 1, SeqScan),
            cpu(3),
            read(1, 1, 5, IndexInternal), // repeated path
            read(1, 1, 3, IndexLeaf),
            read(2, 2, 9, HeapFetch), // repeated heap page
        ])
    }

    #[test]
    fn counts() {
        let t = sample();
        assert_eq!(t.read_count(), 8);
        assert_eq!(t.sequential_reads(), 2);
        assert_eq!(t.cpu_units(), 13);
        assert_eq!(t.events.len(), 10);
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

    /// Push `table`'s events one at a time, each growing the stream by its
    /// byte count (a read that folds the `Cpu` before it into its tag grows
    /// it by what the pair costs beyond that `Cpu`), and check the stream
    /// decodes to them, whole and collected.
    fn assert_sizes(table: &[(TraceEvent, usize)]) -> Trace {
        let mut t = Trace::new();
        for (i, &(event, size)) in table.iter().enumerate() {
            let before = t.events.bytes().len();
            t.push(event);
            assert_eq!(t.events.bytes().len() - before, size, "row {i}: {event:?}");
        }
        let events: Vec<TraceEvent> = table.iter().map(|&(e, _)| e).collect();
        assert_eq!(t.iter().collect::<Vec<_>>(), events);
        assert_eq!(t.events.len(), events.len());
        let reads = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Read { .. }));
        assert_eq!(t.read_count(), reads.count());
        // Collecting is pushing; `Debug` shows the events, not the bytes.
        let collected: Trace = events.iter().copied().collect();
        assert_eq!(collected.events, t.events);
        assert_eq!(format!("{:?}", t.events), format!("{events:?}"));
        t
    }

    #[test]
    fn events_round_trip_at_the_boundaries() {
        // Each event with its encoded size, in order: a read is coded in its
        // class's current context (object 0, file 0, pages 0 at first; pages
        // 0 for a context opened), stepping from that context's last read of
        // its lane.
        assert_sizes(&[
            (cpu(0), 1),
            (cpu(30), 1),
            (cpu(31), 2),
            (cpu(u32::MAX), 1 + 5),
            // Near steps from the starting state, wrapping both ways; each
            // class starts on its own context.
            (read(0, 0, 0, SeqScan), 1),
            (read(0, 0, u32::MAX, IndexInternal), 1),
            (read(0, 0, 0, IndexInternal), 1),
            // New objects and files: a switch tag, object and file, then
            // the read's step from page 0.
            (read(16_384, 0, 0, HeapFetch), 1 + 3 + 1 + 1),
            (read(16_384, 16_384, u32::MAX, SeqScan), 1 + 3 + 3 + 1),
            (
                read(u32::MAX, 16_384, u32::MAX, IndexInternal),
                1 + 5 + 3 + 1,
            ),
            (read(u32::MAX, u32::MAX, 0, IndexLeaf), 1 + 5 + 5 + 1),
            (read(0, u32::MAX, u32::MAX, HeapFetch), 1 + 1 + 5 + 1),
            (read(7, 7, 1000, SeqScan), 1 + 1 + 1 + 1 + 2),
            // Steps in one lane either side of the tag's reach; a `Cpu`
            // between reads leaves the previous read alone.
            (read(7, 7, 984, SeqScan), 1 + 1),
            (read(7, 7, 969, SeqScan), 1),
            (cpu(5), 1),
            (read(7, 7, 983, SeqScan), 1),
            (read(7, 7, 998, SeqScan), 1 + 1),
            // The other lane keeps its own last page.
            (read(7, 7, 1_000_998, HeapFetch), 1 + 3),
            (read(7, 7, 0, HeapFetch), 1 + 3),
            (read(7, 7, u32::MAX, HeapFetch), 1),
            // The same object under another file is another context.
            (read(7, 8, u32::MAX, SeqScan), 1 + 1 + 1 + 1),
            // Back to contexts switched away from: a switch tag naming the
            // slot, then a step from that context's last page in the lane.
            // Slots are shared, so the first slot holding (0, 0) is the
            // table's context of row 4, which the index class now resumes.
            (read(0, 0, 2, IndexInternal), 1 + 1),
            (read(7, 7, u32::MAX - 20, HeapFetch), 1 + 1 + 1),
            (read(0, 0, 1, SeqScan), 1 + 1),
            (read(7, 8, 3, IndexLeaf), 1 + 1),
            // One unit and a heap fetch share a tag, after the switch the
            // fetch needs, near or far.
            (cpu(1), 1),
            (read(7, 7, u32::MAX - 18, HeapFetch), 1 + 1 - 1),
            (cpu(1), 1),
            (read(7, 7, 4981, HeapFetch), 1 + 2 - 1),
            (cpu(2), 1),
            (read(7, 7, 4982, HeapFetch), 1),
            // Any `Cpu`, units 0 and past the tag's reach too, and a
            // sequential read one page on are the `Cpu`'s bytes alone.
            (cpu(12), 1),
            (read(7, 7, 999, SeqScan), 0),
            (cpu(0), 1),
            (read(7, 7, 1000, SeqScan), 0),
            (cpu(31), 2),
            (read(7, 7, 1001, SeqScan), 0),
            (cpu(u32::MAX), 1 + 5),
            (read(7, 7, 1002, SeqScan), 0),
            (cpu(1), 1),
            (read(7, 7, 1003, SeqScan), 0),
            (cpu(7), 1),
            (read(0, 0, 2, SeqScan), 1),
            (cpu(40), 2),
            (read(16_384, 0, 1, SeqScan), 1),
            // Two steps on, or a read of another kind, keeps its own tag.
            // The index class opens a context of its own for an object the
            // table class holds current.
            (cpu(5), 1),
            (read(16_384, 0, 3, SeqScan), 1),
            (cpu(1), 1),
            (read(16_384, 0, 2, IndexInternal), 1 + 3 + 1 + 1),
            (cpu(3), 1),
            (read(16_384, 0, 1, HeapFetch), 1),
        ]);
    }

    #[test]
    fn a_trace_can_end_on_either_half_of_a_fused_pair() {
        for table in [
            vec![(cpu(1), 1), (read(0, 0, 3, HeapFetch), 0)],
            vec![(cpu(9), 1), (read(0, 0, 1, SeqScan), 0)],
            vec![(cpu(100), 2), (read(5, 6, 1, SeqScan), 1 + 1 + 1)],
            vec![(read(0, 0, 3, HeapFetch), 1), (cpu(1), 1)],
            vec![(read(0, 0, 0, SeqScan), 1), (cpu(9), 1)],
        ] {
            let t = assert_sizes(&table);
            let mut cursor = t.iter();
            assert!(!cursor.at_end());
            cursor.next();
            assert!(!cursor.at_end(), "one event of two decoded: {table:?}");
            cursor.next();
            assert!(cursor.at_end(), "{table:?}");
            assert_eq!(cursor.next(), None);
        }
    }

    #[test]
    fn alternating_between_two_objects_costs_two_bytes_a_near_read() {
        // An index-nested-loop join's shape: a leaf, then a heap page. The
        // index and the table are read in two classes, each with its own
        // current context, so a near read is its tag alone.
        let mut t = Trace::new();
        t.push(read(1, 1, 40, IndexLeaf));
        t.push(read(2, 2, 900, HeapFetch));
        for i in 0..100 {
            for event in [
                read(1, 1, 40 + i / 8, IndexLeaf),
                read(2, 2, 900 + i, HeapFetch),
            ] {
                let before = t.events.bytes().len();
                t.push(event);
                assert_eq!(t.events.bytes().len() - before, 1, "{event:?}");
            }
        }
        assert_eq!(t.iter().count(), 202);
        // Two tables share the table class: each read switches back, so a
        // near read costs a switch tag and its own.
        let mut t = Trace::new();
        t.push(read(1, 1, 40, SeqScan));
        t.push(read(2, 2, 900, HeapFetch));
        for i in 0..100 {
            for event in [
                read(1, 1, 40 + i / 8, SeqScan),
                read(2, 2, 900 + i, HeapFetch),
            ] {
                let before = t.events.bytes().len();
                t.push(event);
                assert_eq!(t.events.bytes().len() - before, 2, "{event:?}");
            }
        }
        assert_eq!(t.iter().count(), 202);
    }

    #[test]
    fn an_index_probe_re_reads_its_root_at_step_zero() {
        // Root, leaf, then a unit of work and a heap page, per outer row:
        // the root is step 0 in the internal lane, the leaf steps from the
        // last leaf rather than from the root read just before it, and the
        // work and the fetch share a tag.
        let mut t = Trace::new();
        for row in 0..50u32 {
            for event in [
                read(3, 3, 0, IndexInternal),
                read(3, 3, 700 + row / 4, IndexLeaf),
                cpu(1),
                read(4, 4, 5000 + 3 * row, HeapFetch),
            ] {
                t.push(event);
            }
        }
        let events: Vec<TraceEvent> = t.iter().collect();
        assert_eq!(events.len(), 200);
        assert_eq!(events.iter().copied().collect::<Trace>().events, t.events);
        // After the first row's opening switches and far steps, each row
        // is three tags.
        let first: Trace = events[..4].iter().copied().collect();
        let rest = t.events.bytes().len() - first.events.bytes().len();
        assert_eq!(rest, 49 * 3);
    }

    #[test]
    fn a_cursor_cloned_between_the_halves_of_a_fused_pair_resumes_there() {
        let events = [
            read(2, 2, 10, HeapFetch),
            cpu(1),
            read(2, 2, 11, HeapFetch),
            cpu(4),
            read(3, 3, 1, SeqScan),
            cpu(4),
        ];
        let t: Trace = events.iter().copied().collect();
        assert_eq!(
            t.events.bytes().len(),
            (1 + 1 + 1 + 1) + 1 + (1 + 1 + 1 + 1) + 1
        );
        let mut cursor = t.iter();
        for k in 0..=events.len() {
            let clone = cursor.clone();
            assert_eq!(clone.at_end(), k == events.len(), "at {k}");
            assert_eq!(clone.collect::<Vec<_>>(), events[k..], "at {k}");
            cursor.next();
        }
    }

    #[test]
    fn pushing_a_read_to_a_trace_finished_after_a_foldable_cpu_folds_it() {
        // The trace was finished between a `Cpu` and the read it folds into:
        // the read decodes the bytes to find the `Cpu` and gives the bytes
        // pushing straight gives.
        for (cpu_event, next) in [
            (cpu(1), read(9, 9, 40, HeapFetch)),
            (cpu(0), read(9, 9, 8, SeqScan)),
            (cpu(30), read(9, 9, 8, SeqScan)),
            (cpu(31), read(9, 9, 8, SeqScan)),
            (cpu(70_000), read(9, 9, 8, SeqScan)),
            (cpu(1), read(9, 9, 8, IndexLeaf)),
        ] {
            let head = [read(9, 9, 7, SeqScan), read(9, 9, 30, HeapFetch), cpu_event];
            let events: Vec<TraceEvent> = head.iter().copied().chain([next]).collect();
            let straight: Trace = events.iter().copied().collect();
            let mut t: Trace = head.iter().copied().collect();
            t.events.shrink_to_fit();
            t.push(next);
            assert_eq!(t.events, straight.events, "{cpu_event:?} then {next:?}");
            assert_eq!(t.iter().collect::<Vec<_>>(), events);
            // Finished before the `Cpu` too.
            let mut t: Trace = head[..2].iter().copied().collect();
            t.events.shrink_to_fit();
            t.push(cpu_event);
            t.push(next);
            assert_eq!(t.events, straight.events, "{cpu_event:?} then {next:?}");
        }
    }

    #[test]
    fn more_objects_than_slots_across_both_classes_round_trip() {
        // 40 indexes and 40 tables, visited in turn, then again in another
        // order: both classes take and evict the 31 shared slots.
        let mut events = Vec::new();
        for round in 0..4u32 {
            for i in 0..40u32 {
                let j = if round % 2 == 0 { i } else { (i * 7) % 40 };
                events.push(read(j, 100 + j, round + j, IndexInternal));
                events.push(read(j, 100 + j, 3 * round, IndexLeaf));
                events.push(cpu(1));
                events.push(read(200 + j, 300 + j, round * 5 + j, HeapFetch));
                events.push(cpu(j % 3));
                events.push(read(400 + j % 35, 400, round + 1, SeqScan));
            }
        }
        let t: Trace = events.iter().copied().collect();
        assert_eq!(t.iter().collect::<Vec<_>>(), events);
        assert_eq!(t.read_count(), 4 * 40 * 4);
    }

    #[test]
    fn a_hundred_objects_with_the_largest_ids_round_trip() {
        // More objects than slots, each read again after its slot was
        // taken by another and again while it still holds one.
        let pair = |i: u32| (u32::MAX - i, u32::MAX - i % 3);
        let mut events = Vec::new();
        for round in 0..3u32 {
            for i in 0..100 {
                let (obj, file) = pair(i);
                events.push(read(obj, file, u32::MAX - round * 40 - i, HeapFetch));
                let (obj, file) = pair(i.saturating_sub(round * 15));
                events.push(read(obj, file, round * 7 + i, IndexLeaf));
                events.push(cpu(i));
            }
        }
        let t: Trace = events.iter().copied().collect();
        assert_eq!(t.iter().collect::<Vec<_>>(), events);
        assert_eq!(t.read_count(), 600);
    }

    #[test]
    fn a_cursor_cloned_mid_stream_decodes_the_same_suffix() {
        let events: Vec<TraceEvent> = (0..60u32)
            .map(|i| match i % 5 {
                0 => cpu(i * 3),
                1 => read(i % 4, 1, 10 + i, IndexLeaf),
                _ => read(9 + i % 3, 2, 5000 - i * 40, HeapFetch),
            })
            .collect();
        let t: Trace = events.iter().copied().collect();
        let mut cursor = t.iter();
        for k in 0..=events.len() {
            assert_eq!(cursor.clone().collect::<Vec<_>>(), events[k..], "at {k}");
            cursor.next();
        }
        assert!(cursor.at_end());
    }

    #[test]
    fn pushing_to_a_finished_trace_continues_it() {
        let events: Vec<TraceEvent> = (0..40u32)
            .map(|i| read(i % 6, i % 6, 100 + i, HeapFetch))
            .collect();
        let whole: Trace = events.iter().copied().collect();
        let mut t: Trace = events[..25].iter().copied().collect();
        t.events.shrink_to_fit();
        assert_eq!(t.events.byte_capacity(), t.events.bytes().len());
        for &e in &events[25..] {
            t.push(e);
        }
        assert_eq!(t.events.bytes(), whole.events.bytes());
        assert_eq!(t.iter().collect::<Vec<_>>(), events);
    }

    #[test]
    fn ids_past_16383_round_trip() {
        let events = [
            read(16_384, 0, 3, HeapFetch),
            read(0, 16_384, 3, IndexLeaf),
            read(u32::MAX, u32::MAX, u32::MAX, SeqScan),
        ];
        let mut t = Trace::new();
        for e in events {
            t.push(e);
        }
        assert_eq!(t.iter().collect::<Vec<_>>(), events);
    }

    #[test]
    fn random_walk_round_trips() {
        // Knuth's MMIX LCG; the high bits are the good ones.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as u32
        };
        let kinds = [SeqScan, IndexInternal, IndexLeaf, HeapFetch];
        let (mut obj, mut file, mut page) = (0u32, 0u32, 0u32);
        let mut events = Vec::new();
        while events.len() < 50_000 {
            let roll = next() % 16;
            match roll {
                // A run of CPU work: the units a tag holds, one (what folds
                // into a heap fetch), none, and past the tag's reach.
                0..=3 => {
                    for _ in 0..=next() % 3 {
                        let units = match next() % 4 {
                            0 => next() << 1,
                            1 => 1,
                            2 => 0,
                            _ => next() % 40,
                        };
                        events.push(cpu(units));
                    }
                }
                _ => {
                    let mut kind = kinds[next() as usize % 4];
                    match roll {
                        4 => (obj, file) = (next() % 20, next() % 20),
                        5 => (obj, file) = (next() << 1, next() << 1),
                        6 => page = next() << 1,
                        // A scan's next page: folds into the `Cpu` before
                        // it while its lane last read the page before.
                        7..=9 => {
                            page = page.wrapping_add(1);
                            kind = SeqScan;
                        }
                        _ => page = page.wrapping_add(next() % 40).wrapping_sub(20),
                    }
                    events.push(read(obj, file, page, kind));
                }
            }
        }
        let t: Trace = events.iter().copied().collect();
        assert_eq!(t.iter().collect::<Vec<_>>(), events);
        assert_eq!(t.events.len(), events.len());
        let reads = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Read { .. }));
        assert_eq!(t.read_count(), reads.count());
        // Finished and continued anywhere, the stream is the same bytes.
        for cut in [1, 2, 3, 1000, 1001, 1002, 1003, 33_333] {
            let mut head: Trace = events[..cut].iter().copied().collect();
            head.events.shrink_to_fit();
            for &e in &events[cut..] {
                head.push(e);
            }
            assert_eq!(head.events, t.events, "cut at {cut}");
        }
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new();
        assert_eq!(t.read_count(), 0);
        assert!(t.events.is_empty() && t.iter().at_end());
        assert!(t.non_sequential_sets().is_empty());
        assert_eq!(t.distinct_non_sequential(), 0);
    }
}
