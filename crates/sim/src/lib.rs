//! # pythia-sim
//!
//! Deterministic discrete-event I/O simulation substrate for the Pythia
//! reproduction.
//!
//! The paper measures wall-clock speedups on a real machine (Postgres + Linux
//! page cache + physical disk). This crate replaces that hardware stack with
//! a virtual-time model so that every experiment is reproducible bit-for-bit:
//!
//! * [`SimTime`] / [`SimDuration`] — a microsecond-granularity virtual clock.
//! * [`CostModel`] — per-access latencies (disk read ≫ OS-cache copy ≫ buffer
//!   hit) mirroring the three-tier read path the paper describes for
//!   Postgres (§4 "Postgres Buffer Management").
//! * [`SimDisk`] — the persistent store: a set of files made of fixed-size
//!   pages that hold real bytes (the mini-RDBMS in `pythia-db` stores its heap
//!   and B+Tree pages here).
//! * [`OsPageCache`] — a capacity-bounded LRU model of the kernel page cache
//!   with sequential readahead, which is why sequential scans are cheap even
//!   without Pythia (the paper's Figure 1 observation).
//! * [`IoWorkerPool`] — N asynchronous I/O lanes used by the prefetcher; this
//!   is what converts "prefetch the predicted pages" into overlapped I/O and
//!   therefore speedup.

pub mod cost;
pub mod disk;
pub mod iopool;
pub mod oscache;
pub mod time;

pub use cost::CostModel;
pub use disk::{FileId, PageHasher, PageId, PageMap, SimDisk, PAGE_SIZE};
pub use iopool::{IoSchedule, IoWorkerPool};
pub use oscache::{OsPageCache, StreamId};
pub use time::{SimDuration, SimTime};
