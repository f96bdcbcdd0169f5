//! Request identity and per-request latency breakdowns.
//!
//! A *request id* is the identity that follows one query from the TCP
//! front (or `PrefetchServer` ingestion, for programmatic replays) through
//! queueing, admission, batched inference, and replay. The serving loop
//! emits a per-request span tree on a dedicated track
//! ([`request_track`]) — `request.queue`, `request.admission`,
//! `request.infer`, `request.replay` — flow-linked (`request.flow`) to the
//! query's replay track, and reduces each served request to a
//! [`RequestBreakdown`]. The top-K slowest breakdowns accumulate in a
//! [`SlowLog`], which the socket pump (`pythia_core::frontend::pump`) feeds
//! at every answer and the query front serves live at `/debug/slow` from a
//! [`crate::Shared`] cell.
//!
//! Ids from [`mint`] are process-wide and wall-ordered, so they are **not**
//! deterministic across runs; the serving loop instead assigns
//! deterministic per-batch ids to requests that arrive without one, keeping
//! same-seed traces byte-identical. [`mint`] exists for fronts that need an
//! identity *before* the serving loop sees the request (the TCP front mints
//! at accept time so a request is attributable even if it is later shed).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::{tid, Track};

static NEXT: AtomicU64 = AtomicU64::new(1);

/// Mint a fresh process-wide request id (never 0 — 0 means "unassigned").
pub fn mint() -> u64 {
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The virtual-time track a request's span tree lives on.
pub fn request_track(request: u64) -> Track {
    Track::virt(tid::Kind::Request.tid(request))
}

/// Where one served request's latency went, in virtual microseconds.
///
/// `queue_us + admission_us + replay_us` spans arrival → completion
/// ([`RequestBreakdown::latency_us`]); `infer_us` is the request's share of
/// batched inference, which overlaps the admission phase rather than adding
/// to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RequestBreakdown {
    /// Request id (0 if the request was served without one).
    pub request: u64,
    pub tenant: u32,
    /// Virtual arrival instant.
    pub arrival_us: u64,
    /// Arrival → admission: time spent queued behind the concurrency limit.
    pub queue_us: u64,
    /// Admission → replay start: dispatch, including the inference charge.
    pub admission_us: u64,
    /// This request's share of (batched) inference.
    pub infer_us: u64,
    /// Replay start → completion: page I/O + execution.
    pub replay_us: u64,
}

impl RequestBreakdown {
    /// End-to-end latency: arrival → completion.
    pub fn latency_us(&self) -> u64 {
        self.queue_us + self.admission_us + self.replay_us
    }

    /// One-line JSON rendering (the `/debug/slow` entry shape).
    pub(crate) fn to_json(self) -> String {
        format!(
            "{{\"request\":{},\"tenant\":{},\"arrival_us\":{},\"queue_us\":{},\
             \"admission_us\":{},\"infer_us\":{},\"replay_us\":{},\"latency_us\":{}}}",
            self.request,
            self.tenant,
            self.arrival_us,
            self.queue_us,
            self.admission_us,
            self.infer_us,
            self.replay_us,
            self.latency_us()
        )
    }
}

/// A bounded, sorted log of the slowest requests seen so far.
#[derive(Debug, Clone)]
pub struct SlowLog {
    k: usize,
    /// Sorted by descending latency; at most `k` entries.
    entries: Vec<RequestBreakdown>,
}

impl Default for SlowLog {
    fn default() -> SlowLog {
        SlowLog::with_k(16)
    }
}

impl SlowLog {
    /// A log retaining the `k` slowest requests.
    pub fn with_k(k: usize) -> SlowLog {
        SlowLog {
            k,
            entries: Vec::new(),
        }
    }

    /// Offer one breakdown; it is kept only if it ranks in the top `k`.
    /// Ties keep the earlier entry first (insertion after equals), so
    /// repeated offers of the same run are stable.
    pub fn offer(&mut self, b: RequestBreakdown) {
        if self.k == 0 {
            return;
        }
        if self.entries.len() == self.k
            && self
                .entries
                .last()
                .is_some_and(|e| e.latency_us() >= b.latency_us())
        {
            return;
        }
        let pos = self
            .entries
            .iter()
            .position(|e| e.latency_us() < b.latency_us())
            .unwrap_or(self.entries.len());
        self.entries.insert(pos, b);
        self.entries.truncate(self.k);
    }

    /// The retained breakdowns, slowest first.
    pub fn entries(&self) -> &[RequestBreakdown] {
        &self.entries
    }

    /// JSON rendering (the `/debug/slow` response body).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"k\":{},\"count\":{},\"requests\":[",
            self.k,
            self.entries.len()
        );
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&e.to_json());
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bd(request: u64, latency: u64) -> RequestBreakdown {
        RequestBreakdown {
            request,
            replay_us: latency, // all latency in one phase keeps sums simple
            ..RequestBreakdown::default()
        }
    }

    #[test]
    fn mint_is_monotone_and_nonzero() {
        let a = mint();
        let b = mint();
        assert!(a > 0);
        assert!(b > a);
    }

    #[test]
    fn request_tracks_are_virtual_and_distinct() {
        let t1 = request_track(1);
        let t2 = request_track(2);
        assert_eq!(t1.pid, crate::VIRTUAL_PID);
        assert_eq!(t1.tid, tid::REQUEST_BASE + 1);
        assert_ne!(t1, t2);
    }

    #[test]
    fn breakdown_latency_and_json() {
        let b = RequestBreakdown {
            request: 7,
            tenant: 1,
            arrival_us: 100,
            queue_us: 10,
            admission_us: 5,
            infer_us: 5,
            replay_us: 50,
        };
        assert_eq!(b.latency_us(), 65);
        let json = b.to_json();
        assert!(json.contains("\"request\":7"), "{json}");
        assert!(json.contains("\"latency_us\":65"), "{json}");
        assert!(json.contains("\"infer_us\":5"), "{json}");
    }

    #[test]
    fn slow_log_keeps_top_k_sorted_descending() {
        let mut log = SlowLog::with_k(3);
        for (r, lat) in [(1, 50), (2, 10), (3, 99), (4, 70), (5, 5)] {
            log.offer(bd(r, lat));
        }
        let got: Vec<(u64, u64)> = log
            .entries()
            .iter()
            .map(|e| (e.request, e.latency_us()))
            .collect();
        assert_eq!(got, vec![(3, 99), (4, 70), (1, 50)]);
        // A tie with the current floor does not evict the earlier entry.
        log.offer(bd(6, 50));
        assert_eq!(log.entries()[2].request, 1);
        let json = log.to_json();
        assert!(
            json.starts_with("{\"k\":3,\"count\":3,\"requests\":["),
            "{json}"
        );
        assert!(json.contains("\"request\":3"), "{json}");

        let mut none = SlowLog::with_k(0);
        none.offer(bd(1, 1));
        assert!(none.entries().is_empty());
    }
}
