//! Streaming quality telemetry.
//!
//! [`QualityTracker`] hears of every closed admission interval: its
//! [`BufferStats`], exactly as the server attributed them, plus the
//! admission wait. Per `(tenant, template)` it keeps a rolling [`Window`]
//! over the last [`WINDOW`] intervals with a running `BufferStats` sum —
//! `merge` adds the newest interval, `diff` takes the oldest back out — so
//! the window is exact integer arithmetic, equal to `BufferStats::merge`
//! over the same intervals, and every rate it reports is `BufferStats`'s own
//! (both pinned by `tests/proptest_quality.rs`). Per tenant it counts the
//! observations. [`QualityTracker::health_json`] renders both as the
//! `/t/<tenant>/health` body, which the socket pump
//! ([`crate::frontend::pump`]) publishes from the tenant's server.
//!
//! Observations emit `quality.observe` instants on the `tid::QUALITY` track
//! and count `quality.observations` on the recorder.
//!
//! The tracker holds no locks and never consults the wall clock or RNG:
//! given the same interval sequence it is fully deterministic, and because
//! it only *reads* serving state it cannot perturb virtual time or
//! admission order (the bit-identity pins stay intact).

use std::collections::{BTreeMap, VecDeque};

use pythia_buffer::BufferStats;
use pythia_obs::snapshot::escape_into;
use pythia_obs::{tid, to_e6 as e6, Recorder, Track};

/// Rolling-window length in admission intervals per `(tenant, template)`.
pub const WINDOW: usize = 32;

/// One `(tenant, template)` slot's rolling window: the last (at most
/// [`WINDOW`]) admission intervals, summed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Window {
    /// Intervals in the window.
    pub outcomes: u64,
    /// Their pool counters, summed: every rate is read from here.
    pub stats: BufferStats,
    /// Their admission waits, summed (virtual µs).
    pub wait_us: u64,
}

impl Window {
    /// Mean admission wait in µs (integer division); 0 when empty.
    pub(crate) fn mean_wait_us(&self) -> u64 {
        self.wait_us.checked_div(self.outcomes).unwrap_or(0)
    }
}

/// Per-`(tenant, template)` rolling window: the entries it holds and their
/// running sum.
#[derive(Debug, Default)]
struct Slot {
    entries: VecDeque<(BufferStats, u64)>,
    sum: Window,
}

impl Slot {
    fn push(&mut self, stats: BufferStats, wait_us: u64) {
        self.entries.push_back((stats, wait_us));
        self.sum.outcomes += 1;
        self.sum.stats.merge(&stats);
        self.sum.wait_us += wait_us;
        if self.entries.len() > WINDOW {
            let (old, old_wait) = self.entries.pop_front().expect("window over its length");
            self.sum.outcomes -= 1;
            self.sum.stats = self.sum.stats.diff(&old);
            self.sum.wait_us -= old_wait;
        }
    }
}

/// The streaming quality tracker. Not internally synchronized: a server owns
/// one by value ([`crate::server::PrefetchServer::with_quality`]) and lends it
/// out through `PrefetchServer::quality`.
#[derive(Debug, Default)]
pub struct QualityTracker {
    slots: BTreeMap<(u32, &'static str), Slot>,
    /// Observations per tenant.
    tenants: BTreeMap<u32, u64>,
}

impl QualityTracker {
    /// Feed one closed admission interval: its pool counters and the
    /// admitted query's wait. Updates the slot's window and the tenant's
    /// count; emits a `quality.observe` trace instant on the
    /// [`tid::QUALITY`] track.
    pub fn observe(
        &mut self,
        tenant: u32,
        template: &'static str,
        stats: BufferStats,
        wait_us: u64,
        now_us: u64,
        rec: &mut Recorder,
    ) {
        let slot = self.slots.entry((tenant, template)).or_default();
        slot.push(stats, wait_us);
        let win = slot.sum.stats;
        *self.tenants.entry(tenant).or_default() += 1;

        // Trace the observation on the dedicated quality track.
        rec.instant(
            Track::virt(tid::QUALITY),
            "quality",
            "quality.observe",
            now_us,
            &[
                ("tenant", tenant as u64),
                ("hit_e6", e6(win.hit_rate())),
                ("precision_e6", e6(win.prefetch_precision())),
                ("recall_e6", e6(win.prefetch_recall())),
                ("wait_us", wait_us),
            ],
        );
        rec.add("quality.observations", 1);
    }

    /// The rolling window of a `(tenant, template)` slot.
    pub fn window(&self, tenant: u32, template: &'static str) -> Option<Window> {
        self.slots.get(&(tenant, template)).map(|s| s.sum)
    }

    /// Observations fed for a tenant.
    pub fn observations(&self, tenant: u32) -> u64 {
        self.tenants.get(&tenant).copied().unwrap_or(0)
    }

    /// The `/t/<tenant>/health` JSON body: current windows per template,
    /// plus the registry model version when the caller has one. Hand-rolled,
    /// integer-only (rates as `*_e6`), keys sorted — deterministic for a
    /// given tracker state.
    pub fn health_json(&self, tenant: u32, model_version: Option<u64>) -> String {
        use std::fmt::Write as _;
        let version = model_version.map_or_else(|| "null".to_owned(), |v| v.to_string());
        let mut out = format!(
            "{{\"model_version\":{version},\"observations\":{},\"templates\":[",
            self.observations(tenant)
        );
        let mut sep = "";
        for ((_, template), slot) in self.slots.iter().filter(|((t, _), _)| *t == tenant) {
            let w = slot.sum;
            out.push_str(sep);
            sep = ",";
            out.push_str("{\"template\":\"");
            escape_into(&mut out, template);
            let _ = write!(
                out,
                "\",\"window\":{{\"hit_rate_e6\":{},\"mean_wait_us\":{},\"outcomes\":{},\
                 \"prefetch_f1_e6\":{},\"prefetch_precision_e6\":{},\"prefetch_recall_e6\":{}}}}}",
                e6(w.stats.hit_rate()),
                w.mean_wait_us(),
                w.outcomes,
                e6(w.stats.prefetch_f1()),
                e6(w.stats.prefetch_precision()),
                e6(w.stats.prefetch_recall()),
            );
        }
        let _ = write!(out, "],\"tenant\":{tenant}}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One admission interval's counters: `misses` split between the OS
    /// cache and disk, `issued - useful` prefetches wasted.
    fn interval(hits: u64, misses: u64, issued: u64, useful: u64) -> BufferStats {
        BufferStats {
            hits,
            os_copies: misses / 2,
            disk_reads: misses - misses / 2,
            prefetch_issued: issued,
            prefetch_useful: useful,
            prefetch_wasted: issued.saturating_sub(useful),
            ..BufferStats::default()
        }
    }

    #[test]
    fn windowed_totals_match_batch_over_tail() {
        let mut t = QualityTracker::default();
        let mut rec = Recorder::disabled();
        let fed: Vec<(BufferStats, u64)> = (0..WINDOW as u64 + 10)
            .map(|i| (interval(i, 50 - i, i + 1, i / 2), 5 * i))
            .collect();
        for (i, &(stats, wait)) in fed.iter().enumerate() {
            t.observe(0, "query.replay.T18", stats, wait, i as u64, &mut rec);
        }
        let tail = &fed[fed.len() - WINDOW..];
        let mut merged = BufferStats::default();
        for (stats, _) in tail {
            merged.merge(stats);
        }
        let win = t.window(0, "query.replay.T18").expect("slot exists");
        assert_eq!(win.outcomes, WINDOW as u64);
        assert_eq!(win.stats, merged);
        assert_eq!(win.wait_us, tail.iter().map(|&(_, w)| w).sum::<u64>());
        assert_eq!(win.stats.hit_rate(), merged.hit_rate());
        assert_eq!(win.stats.prefetch_f1(), merged.prefetch_f1());
    }

    #[test]
    fn empty_and_zero_slots_are_nan_free() {
        let t = QualityTracker::default();
        assert!(t.window(3, "x").is_none());
        assert_eq!(t.observations(3), 0);
        let zero = Window::default();
        assert_eq!(zero.stats.hit_rate(), 0.0);
        assert_eq!(zero.stats.prefetch_precision(), 0.0);
        assert_eq!(zero.stats.prefetch_recall(), 0.0);
        assert_eq!(zero.stats.prefetch_f1(), 0.0);
        assert_eq!(zero.mean_wait_us(), 0);
    }

    #[test]
    fn health_json_shape() {
        let mut t = QualityTracker::default();
        let mut rec = Recorder::enabled();
        for i in 0..8u64 {
            t.observe(
                1,
                "query.replay.T18",
                interval(8, 2, 4, 3),
                20,
                10 * i,
                &mut rec,
            );
        }
        let j = t.health_json(1, Some(3));
        assert!(j.starts_with("{\"model_version\":3,"), "{j}");
        assert!(!j.contains("drift") && !j.contains("frontend"), "{j}");
        assert!(j.contains("\"observations\":8"));
        assert!(j.contains("\"hit_rate_e6\":800000"));
        assert!(j.contains("\"prefetch_precision_e6\":750000"));
        // Unknown tenant: zeros and nulls, never a panic.
        let empty = t.health_json(9, None);
        assert!(empty.contains("\"observations\":0"));
        assert!(empty.contains("\"model_version\":null"));
        assert!(empty.contains("\"templates\":[]"));
        assert_eq!(rec.counter("quality.observations"), 8);
    }

    /// The whole `/t/<tenant>/health` body for a fixed three-interval
    /// stream, every number worked by hand. T18's window: hits 8+5 of
    /// 20 demand reads (0.65); 3+1 of 6 issued prefetches useful (2/3);
    /// recall 4 / (4 + 4 + 3) = 4/11; F1 2·(2/3)·(4/11) / (2/3 + 4/11) =
    /// 8/17; mean wait (20 + 40) / 2. T91's: 3 of 4 reads hit, nothing
    /// prefetched.
    #[test]
    fn health_json_pins_a_three_interval_body() {
        let mut t = QualityTracker::default();
        let mut rec = Recorder::disabled();
        let t18 = "query.replay.T18";
        let t91 = "query.replay.T91";
        t.observe(1, t18, interval(8, 2, 4, 3), 20, 100, &mut rec);
        t.observe(1, t18, interval(5, 5, 2, 1), 40, 200, &mut rec);
        t.observe(1, t91, interval(3, 1, 0, 0), 90, 300, &mut rec);
        assert_eq!(
            t.health_json(1, Some(4)),
            "{\"model_version\":4,\"observations\":3,\"templates\":[\
             {\"template\":\"query.replay.T18\",\"window\":{\"hit_rate_e6\":650000,\
             \"mean_wait_us\":30,\"outcomes\":2,\"prefetch_f1_e6\":470588,\
             \"prefetch_precision_e6\":666667,\"prefetch_recall_e6\":363636}},\
             {\"template\":\"query.replay.T91\",\"window\":{\"hit_rate_e6\":750000,\
             \"mean_wait_us\":90,\"outcomes\":1,\"prefetch_f1_e6\":0,\
             \"prefetch_precision_e6\":0,\"prefetch_recall_e6\":0}}],\"tenant\":1}"
        );
    }

    #[test]
    fn quality_track_is_declared_and_virtual() {
        let mut t = QualityTracker::default();
        let mut rec = Recorder::enabled();
        t.observe(0, "x", interval(5, 5, 2, 1), 7, 42, &mut rec);
        let virt = rec.virtual_trace_json();
        assert!(virt.contains("quality.observe"));
        assert!(virt.contains("\"quality\""));
        let ev = rec
            .events()
            .into_iter()
            .find(|e| e.name == "quality.observe")
            .expect("observe event");
        assert_eq!(ev.track, Track::virt(tid::QUALITY));
        assert_eq!(ev.ts_us, 42);
    }
}
