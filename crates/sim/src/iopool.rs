//! Asynchronous I/O worker pool (virtual-time model).
//!
//! The AIO branch the paper builds on issues prefetch reads through a pool of
//! I/O workers; multiple reads proceed concurrently and complete out of band
//! while the query's executor keeps working. We model each worker as a lane
//! with a `free_at` timestamp: scheduling a fetch picks the earliest-free
//! lane, and the fetch completes at `max(now, free_at) + latency`.
//!
//! This is where prefetch speedup comes from: K workers turn a chain of
//! serial random reads (N × disk_read) into a pipeline (~N × disk_read / K),
//! overlapped with executor CPU time.

use crate::time::{SimDuration, SimTime};

/// A pool of asynchronous I/O lanes.
#[derive(Debug, Clone)]
pub struct IoWorkerPool {
    free_at: Vec<SimTime>,
}

/// Full placement of one scheduled fetch: which lane ran it and when it
/// occupied the lane. `schedule` returns only `completes`; tracing callers
/// use [`IoWorkerPool::schedule_detailed`] to draw the lane-occupancy span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoSchedule {
    /// Index of the lane that ran the fetch.
    pub lane: usize,
    /// When the fetch began occupying the lane (`max(now, lane free time)`).
    pub start: SimTime,
    /// When the fetch completes.
    pub completes: SimTime,
}

impl IoWorkerPool {
    /// A pool of `workers` lanes, all idle at time zero.
    ///
    /// # Panics
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "I/O pool needs at least one worker");
        IoWorkerPool {
            free_at: vec![SimTime::ZERO; workers],
        }
    }

    /// Schedule an asynchronous fetch costing `latency`, requested at `now`.
    /// Returns the virtual time at which the fetch completes.
    pub fn schedule(&mut self, now: SimTime, latency: SimDuration) -> SimTime {
        self.schedule_detailed(now, latency).completes
    }

    /// Like [`Self::schedule`], but also reports the lane and start time so
    /// callers can attribute the fetch to a specific I/O worker.
    pub fn schedule_detailed(&mut self, now: SimTime, latency: SimDuration) -> IoSchedule {
        let (idx, _) = self
            .free_at
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .expect("pool is non-empty");
        let start = self.free_at[idx].max(now);
        let done = start + latency;
        self.free_at[idx] = done;
        IoSchedule {
            lane: idx,
            start,
            completes: done,
        }
    }

    /// Forget all in-flight work (cold restart between runs).
    pub fn reset(&mut self) {
        self.free_at.fill(SimTime::ZERO);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: SimDuration = SimDuration::from_micros(1_000);

    #[test]
    fn single_worker_serializes() {
        let mut p = IoWorkerPool::new(1);
        let t0 = p.schedule(SimTime::ZERO, MS);
        let t1 = p.schedule(SimTime::ZERO, MS);
        assert_eq!(t0.as_micros(), 1_000);
        assert_eq!(t1.as_micros(), 2_000, "second fetch queues behind first");
    }

    #[test]
    fn parallel_workers_overlap() {
        let mut p = IoWorkerPool::new(4);
        let times: Vec<_> = (0..4).map(|_| p.schedule(SimTime::ZERO, MS)).collect();
        assert!(times.iter().all(|t| t.as_micros() == 1_000));
        let fifth = p.schedule(SimTime::ZERO, MS);
        assert_eq!(fifth.as_micros(), 2_000);
    }

    #[test]
    fn schedule_respects_request_time() {
        let mut p = IoWorkerPool::new(2);
        let t = p.schedule(SimTime::from_micros(500), MS);
        assert_eq!(t.as_micros(), 1_500);
    }

    /// When each lane is next free, earliest first: the starts of one long
    /// fetch per lane scheduled on a copy of `p`.
    fn lane_free_times(p: &IoWorkerPool) -> Vec<u64> {
        let mut probe = p.clone();
        let long = SimDuration::from_micros(1_000_000);
        (0..p.free_at.len())
            .map(|_| {
                probe
                    .schedule_detailed(SimTime::ZERO, long)
                    .start
                    .as_micros()
            })
            .collect()
    }

    #[test]
    fn earliest_free_and_drained() {
        let mut p = IoWorkerPool::new(2);
        p.schedule(SimTime::ZERO, MS);
        p.schedule(SimTime::ZERO, SimDuration::from_micros(3_000));
        assert_eq!(lane_free_times(&p), [1_000, 3_000]);
    }

    #[test]
    fn reset_clears_lanes() {
        let mut p = IoWorkerPool::new(2);
        p.schedule(SimTime::ZERO, MS);
        p.reset();
        assert_eq!(lane_free_times(&p), [0, 0]);
    }

    #[test]
    fn throughput_scales_with_workers() {
        // 64 fetches of 1ms: 8 workers should finish 8x sooner than 1.
        let finish = |workers: usize| {
            let mut p = IoWorkerPool::new(workers);
            (0..64)
                .map(|_| p.schedule(SimTime::ZERO, MS))
                .max()
                .unwrap()
        };
        assert_eq!(finish(1).as_micros(), 64_000);
        assert_eq!(finish(8).as_micros(), 8_000);
    }

    #[test]
    #[should_panic]
    fn zero_workers_panics() {
        IoWorkerPool::new(0);
    }

    #[test]
    fn schedule_detailed_reports_lane_and_start() {
        let mut p = IoWorkerPool::new(2);
        let a = p.schedule_detailed(SimTime::ZERO, MS);
        let b = p.schedule_detailed(SimTime::ZERO, MS);
        let c = p.schedule_detailed(SimTime::ZERO, MS);
        assert_ne!(a.lane, b.lane, "second fetch takes the other lane");
        assert_eq!(a.start, SimTime::ZERO);
        assert_eq!(c.start.as_micros(), 1_000, "third queues behind a lane");
        assert_eq!(c.completes.as_micros(), 2_000);
        assert_eq!(lane_free_times(&p), [1_000, 2_000], "three fetches of 1 ms");
    }
}
