//! Buffer frames: the slots of the buffer pool.

use pythia_sim::{PageId, SimTime};

/// Index of a frame within the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameId(pub u32);

/// One buffer slot.
///
/// Frames do not hold page bytes: in the discrete-event simulation the actual
/// bytes always live on the [`pythia_sim::SimDisk`]; what the buffer pool
/// tracks is *residency* and *pinning*, which is all the timing model needs.
/// (The mini-RDBMS reads bytes from the disk directly during the untimed
/// trace-collection phase; see `pythia-db`.)
#[derive(Debug, Clone, Copy)]
pub struct Frame {
    /// The page resident in this frame, if any.
    pub page: Option<PageId>,
    /// Number of active pins; pinned frames can never be evicted.
    pub pin_count: u32,
    /// Clock-sweep usage counter (capped at [`Frame::MAX_USAGE`], like
    /// Postgres' `BM_MAX_USAGE_COUNT`).
    pub usage_count: u32,
    /// The virtual time at which the I/O that loaded the page completes — a
    /// prefetcher's asynchronous read or a query's demand read; reads before
    /// this must wait.
    pub available_at: SimTime,
    /// Whether this frame was populated by the prefetcher (for accounting
    /// of useful vs wasted prefetches).
    pub prefetched: bool,
    /// Whether this prefetched load has been counted useful or wasted: at
    /// most once over its residency, however many runs close over it.
    /// Accounting only — no replacement policy reads it.
    pub settled: bool,
}

impl Frame {
    /// Cap on the clock usage counter (Postgres uses 5).
    pub const MAX_USAGE: u32 = 5;

    /// An empty frame.
    pub(crate) fn empty() -> Self {
        Frame {
            page: None,
            pin_count: 0,
            usage_count: 0,
            available_at: SimTime::ZERO,
            prefetched: false,
            settled: false,
        }
    }

    /// Whether the frame may be chosen as an eviction victim.
    pub(crate) fn is_evictable(&self) -> bool {
        self.page.is_some() && self.pin_count == 0
    }
}

impl Default for Frame {
    fn default() -> Self {
        Frame::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_sim::FileId;

    #[test]
    fn empty_frame_not_evictable() {
        let f = Frame::empty();
        assert!(!f.is_evictable());
    }

    #[test]
    fn pinned_frame_not_evictable() {
        let mut f = Frame::empty();
        f.page = Some(PageId::new(FileId(0), 1));
        f.pin_count = 1;
        assert!(!f.is_evictable());
        f.pin_count = 0;
        assert!(f.is_evictable());
    }
}
