//! # pythia-buffer
//!
//! The RDBMS buffer manager the Pythia reproduction runs against — the
//! analogue of Postgres' buffer pool plus the AIO prefetch structure from
//! Andres Freund's development branch that the paper builds on (§4).
//!
//! * [`BufferPool`] — fixed number of frames, a page table, pin counts and a
//!   pluggable [`ReplacementPolicy`] (Clock — Postgres' policy — plus the LRU
//!   and MRU policies the paper adds for Figure 12e).
//! * [`AioPrefetcher`] — the asynchronous prefetch engine: a producer queue
//!   of pages to fetch, a readahead window of at most `R` pinned in-flight /
//!   ready pages, and the "dummy request" mechanism that advances the window
//!   at the query's read rate (paper §4, "Decoupling AIO from Postgres read
//!   call").
//! * [`BufferStats`] — hit/miss/prefetch accounting used by every experiment.
//!
//! All timing flows through `pythia-sim`'s virtual clock: the pool itself is
//! time-free; the [`AioPrefetcher`] and callers thread `SimTime` through.

pub mod aio;
pub mod frame;
pub mod policy;
pub mod pool;
pub mod stats;

pub use aio::AioPrefetcher;
pub use frame::{Frame, FrameId};
pub use policy::{ClockPolicy, LruPolicy, MruPolicy, PolicyKind, ReplacementPolicy};
pub use pool::BufferPool;
pub use stats::BufferStats;
