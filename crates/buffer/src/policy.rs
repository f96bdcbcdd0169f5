//! Buffer replacement policies.
//!
//! Postgres ships only the Clock sweep; the paper adds LRU and MRU to show
//! Pythia helps regardless of the replacement policy (Figure 12e). All three
//! are implemented behind one trait so the experiment harness can swap them.

use crate::frame::{Frame, FrameId};

/// Which policy to instantiate (handy for experiment configs and display).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    Clock,
    Lru,
    Mru,
}

impl PolicyKind {
    /// Instantiate the policy for a pool of `frames` frames.
    pub(crate) fn build(self, frames: usize) -> Box<dyn ReplacementPolicy> {
        match self {
            PolicyKind::Clock => Box::new(ClockPolicy::new(frames)),
            PolicyKind::Lru => Box::new(LruPolicy::new(frames)),
            PolicyKind::Mru => Box::new(MruPolicy::new(frames)),
        }
    }

    /// The paper's policies, in the order Figure 12e reports them.
    pub const ALL: [PolicyKind; 3] = [PolicyKind::Clock, PolicyKind::Lru, PolicyKind::Mru];
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PolicyKind::Clock => "Clock",
            PolicyKind::Lru => "LRU",
            PolicyKind::Mru => "MRU",
        };
        f.write_str(s)
    }
}

/// A buffer replacement policy.
///
/// The pool owns the frames; the policy owns only its bookkeeping and is
/// consulted for victims. Victims must be evictable (`pin_count == 0`): the
/// pool passes the frame table so policies can check.
pub trait ReplacementPolicy: std::fmt::Debug + Send {
    /// Human-readable name for reports.
    fn kind(&self) -> PolicyKind;

    /// Called on every reference to a resident page.
    fn on_access(&mut self, frame: FrameId);

    /// Called when a page is newly loaded into `frame`.
    fn on_load(&mut self, frame: FrameId);

    /// Called when a page is loaded *transiently* — a bulk sequential read
    /// that should be evicted before the working set, like Postgres' buffer
    /// ring (`BAS_BULKREAD`). Default: treated like a normal load.
    fn on_load_transient(&mut self, frame: FrameId) {
        self.on_load(frame);
    }

    /// Choose an eviction victim among evictable frames, or `None` if every
    /// frame is pinned or free-frame bookkeeping says nothing is resident.
    fn pick_victim(&mut self, frames: &[Frame]) -> Option<FrameId>;

    /// Forget all state (pool reset between cold runs).
    fn reset(&mut self);
}

/// Postgres' clock sweep: a circular scan decrementing per-frame usage
/// counters; the first evictable frame found with `usage_count == 0` is the
/// victim. Usage counters live in the [`Frame`]s themselves (the pool bumps
/// them on access); the policy only keeps the hand.
#[derive(Debug)]
pub struct ClockPolicy {
    hand: usize,
    n: usize,
    /// Shadow of usage counts, decremented during sweeps. The authoritative
    /// increment happens in `on_access`.
    usage: Vec<u32>,
}

impl ClockPolicy {
    pub(crate) fn new(frames: usize) -> Self {
        ClockPolicy {
            hand: 0,
            n: frames,
            usage: vec![0; frames],
        }
    }
}

impl ReplacementPolicy for ClockPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Clock
    }

    fn on_access(&mut self, frame: FrameId) {
        let u = &mut self.usage[frame.0 as usize];
        *u = (*u + 1).min(Frame::MAX_USAGE);
    }

    fn on_load(&mut self, frame: FrameId) {
        self.usage[frame.0 as usize] = 1;
    }

    fn on_load_transient(&mut self, frame: FrameId) {
        // Zero usage: the very next sweep may evict it.
        self.usage[frame.0 as usize] = 0;
    }

    fn pick_victim(&mut self, frames: &[Frame]) -> Option<FrameId> {
        // At most MAX_USAGE+1 full sweeps are needed before some counter
        // reaches zero, unless everything is pinned.
        let max_steps = self.n * (Frame::MAX_USAGE as usize + 2);
        for _ in 0..max_steps {
            let idx = self.hand;
            self.hand = (self.hand + 1) % self.n;
            let f = &frames[idx];
            if !f.is_evictable() {
                continue;
            }
            if self.usage[idx] == 0 {
                return Some(FrameId(idx as u32));
            }
            self.usage[idx] -= 1;
        }
        None
    }

    fn reset(&mut self) {
        self.hand = 0;
        self.usage.fill(0);
    }
}

/// Exact least-recently-used via logical timestamps.
#[derive(Debug)]
pub struct LruPolicy {
    stamp: Vec<u64>,
    tick: u64,
}

impl LruPolicy {
    pub(crate) fn new(frames: usize) -> Self {
        LruPolicy {
            stamp: vec![0; frames],
            tick: 0,
        }
    }

    fn touch(&mut self, frame: FrameId) {
        self.tick += 1;
        self.stamp[frame.0 as usize] = self.tick;
    }
}

impl ReplacementPolicy for LruPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Lru
    }

    fn on_access(&mut self, frame: FrameId) {
        self.touch(frame);
    }

    fn on_load(&mut self, frame: FrameId) {
        self.touch(frame);
    }

    fn on_load_transient(&mut self, frame: FrameId) {
        // Oldest possible stamp: first in line for eviction.
        self.stamp[frame.0 as usize] = 0;
    }

    fn pick_victim(&mut self, frames: &[Frame]) -> Option<FrameId> {
        frames
            .iter()
            .enumerate()
            .filter(|(_, f)| f.is_evictable())
            .min_by_key(|(i, _)| self.stamp[*i])
            .map(|(i, _)| FrameId(i as u32))
    }

    fn reset(&mut self) {
        self.stamp.fill(0);
        self.tick = 0;
    }
}

/// Most-recently-used: evicts the newest unpinned page. The paper notes MRU
/// performs worst with Pythia because it tends to evict just-prefetched pages
/// the moment their window pin is released.
#[derive(Debug)]
pub struct MruPolicy {
    stamp: Vec<u64>,
    tick: u64,
}

impl MruPolicy {
    pub(crate) fn new(frames: usize) -> Self {
        MruPolicy {
            stamp: vec![0; frames],
            tick: 0,
        }
    }

    fn touch(&mut self, frame: FrameId) {
        self.tick += 1;
        self.stamp[frame.0 as usize] = self.tick;
    }
}

impl ReplacementPolicy for MruPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Mru
    }

    fn on_access(&mut self, frame: FrameId) {
        self.touch(frame);
    }

    fn on_load(&mut self, frame: FrameId) {
        self.touch(frame);
    }

    fn pick_victim(&mut self, frames: &[Frame]) -> Option<FrameId> {
        frames
            .iter()
            .enumerate()
            .filter(|(_, f)| f.is_evictable())
            .max_by_key(|(i, _)| self.stamp[*i])
            .map(|(i, _)| FrameId(i as u32))
    }

    fn reset(&mut self) {
        self.stamp.fill(0);
        self.tick = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_sim::{FileId, PageId};

    fn resident(frames: &mut [Frame], idx: usize, page_no: u32) {
        frames[idx].page = Some(PageId::new(FileId(0), page_no));
        frames[idx].pin_count = 0;
    }

    #[test]
    fn clock_sweeps_to_unreferenced() {
        let mut frames = vec![Frame::empty(); 3];
        let mut p = ClockPolicy::new(3);
        for i in 0..3 {
            resident(&mut frames, i, i as u32);
            p.on_load(FrameId(i as u32));
        }
        // Access frame 0 repeatedly — it should survive the first sweep.
        for _ in 0..5 {
            p.on_access(FrameId(0));
        }
        let victim = p.pick_victim(&frames).unwrap();
        assert_ne!(victim, FrameId(0));
    }

    #[test]
    fn clock_skips_pinned() {
        let mut frames = vec![Frame::empty(); 2];
        let mut p = ClockPolicy::new(2);
        resident(&mut frames, 0, 0);
        resident(&mut frames, 1, 1);
        p.on_load(FrameId(0));
        p.on_load(FrameId(1));
        frames[0].pin_count = 1;
        assert_eq!(p.pick_victim(&frames), Some(FrameId(1)));
    }

    #[test]
    fn clock_all_pinned_returns_none() {
        let mut frames = vec![Frame::empty(); 2];
        let mut p = ClockPolicy::new(2);
        for i in 0..2 {
            resident(&mut frames, i, i as u32);
            frames[i].pin_count = 1;
            p.on_load(FrameId(i as u32));
        }
        assert_eq!(p.pick_victim(&frames), None);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut frames = vec![Frame::empty(); 3];
        let mut p = LruPolicy::new(3);
        for i in 0..3 {
            resident(&mut frames, i, i as u32);
            p.on_load(FrameId(i as u32));
        }
        p.on_access(FrameId(0)); // order now: 1 (oldest), 2, 0
        assert_eq!(p.pick_victim(&frames), Some(FrameId(1)));
    }

    #[test]
    fn mru_evicts_most_recent() {
        let mut frames = vec![Frame::empty(); 3];
        let mut p = MruPolicy::new(3);
        for i in 0..3 {
            resident(&mut frames, i, i as u32);
            p.on_load(FrameId(i as u32));
        }
        p.on_access(FrameId(0));
        assert_eq!(p.pick_victim(&frames), Some(FrameId(0)));
    }

    #[test]
    fn lru_mru_skip_pinned_and_free() {
        let mut frames = vec![Frame::empty(); 3];
        let mut lru = LruPolicy::new(3);
        let mut mru = MruPolicy::new(3);
        resident(&mut frames, 1, 1);
        frames[1].pin_count = 1;
        // Frame 0 and 2 are free; frame 1 pinned -> no victim.
        assert_eq!(lru.pick_victim(&frames), None);
        assert_eq!(mru.pick_victim(&frames), None);
    }

    #[test]
    fn build_constructs_right_kind() {
        for k in PolicyKind::ALL {
            assert_eq!(k.build(4).kind(), k);
        }
    }

    #[test]
    fn reset_clears_recency() {
        let mut frames = vec![Frame::empty(); 2];
        let mut p = LruPolicy::new(2);
        resident(&mut frames, 0, 0);
        resident(&mut frames, 1, 1);
        p.on_load(FrameId(0));
        p.on_load(FrameId(1));
        p.reset();
        // After reset both stamps are equal; min_by_key picks frame 0.
        assert_eq!(p.pick_victim(&frames), Some(FrameId(0)));
    }
}
