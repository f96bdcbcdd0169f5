//! Property tests for the streaming quality tracker: its rolling window is
//! `BufferStats::merge` over the last `WINDOW` intervals fed — exactly, so
//! every rate read from it is bit-equal to the same rate of that merge — and
//! per-tenant observation counts partition the total, with tenants that never
//! served reporting zeros, never NaN.

use pythia::buffer::BufferStats;
use pythia::core::quality::{QualityTracker, WINDOW};
use pythia::obs::Recorder;
use pythia::sim::rng::{cases, Rng};

/// Templates the partition case spreads its intervals across (`observe`
/// takes `&'static str`, matching replay span names).
const TEMPLATES: [&str; 3] = ["replay.t18", "replay.t91", "replay.imdb1a"];

/// One admission interval's counters, every field drawn, plus its
/// admission wait. `prefetch_issued` covers every classified prefetch plus
/// some still in flight, as on a warm stack.
fn interval(rng: &mut Rng) -> (BufferStats, u64) {
    let (useful, wasted, slack) = (
        rng.gen_range(0..10),
        rng.gen_range(0..6),
        rng.gen_range(0..4),
    );
    let stats = BufferStats {
        hits: rng.gen_range(0..50),
        os_copies: rng.gen_range(0..20),
        disk_reads: rng.gen_range(0..20),
        prefetch_waits: rng.gen_range(0..5),
        prefetch_issued: useful + wasted + slack,
        prefetch_already_resident: rng.gen_range(0..6),
        prefetch_useful: useful,
        prefetch_wasted: wasted,
        evictions: rng.gen_range(0..30),
        pass_through: rng.gen_range(0..5),
    };
    (stats, rng.gen_range(0..10_000))
}

/// Feeding a stream longer than the window through `observe` leaves the
/// window equal, after every interval, to a merge over the last
/// `WINDOW` intervals fed — counters, waits, and every derived rate.
#[test]
fn rolling_window_equals_merge_over_the_tail() {
    cases(64, |rng| {
        let n = rng.gen_range(WINDOW + 1..3 * WINDOW);
        let fed: Vec<(BufferStats, u64)> = (0..n).map(|_| interval(rng)).collect();
        let mut tracker = QualityTracker::default();
        let mut rec = Recorder::disabled();
        for (i, &(stats, wait_us)) in fed.iter().enumerate() {
            tracker.observe(3, TEMPLATES[0], stats, wait_us, i as u64 * 100, &mut rec);

            let tail = &fed[(i + 1).saturating_sub(WINDOW)..=i];
            let mut want = BufferStats::default();
            for (s, _) in tail {
                want.merge(s);
            }
            let got = tracker
                .window(3, TEMPLATES[0])
                .expect("slot exists after a feed");
            assert_eq!(
                got.stats, want,
                "window != merge of the tail after interval {i}"
            );
            assert_eq!(got.outcomes, tail.len() as u64);
            assert_eq!(got.wait_us, tail.iter().map(|&(_, w)| w).sum::<u64>());
            assert_eq!(got.stats.hit_rate().to_bits(), want.hit_rate().to_bits());
            assert_eq!(
                got.stats.prefetch_precision().to_bits(),
                want.prefetch_precision().to_bits()
            );
            assert_eq!(
                got.stats.prefetch_recall().to_bits(),
                want.prefetch_recall().to_bits()
            );
            assert_eq!(
                got.stats.prefetch_f1().to_bits(),
                want.prefetch_f1().to_bits()
            );
            assert!(got.stats.prefetch_f1().is_finite());
        }
        assert_eq!(tracker.observations(3), fed.len() as u64);
    });
}

/// Per-tenant observation counts partition the intervals fed, every
/// template a tenant used has a non-empty window, and a tenant that
/// never served reports zeros from every accessor (never NaN) and no
/// window at all.
#[test]
fn tenant_counts_partition_the_total_and_idle_tenants_are_nan_free() {
    cases(64, |rng| {
        let n = rng.gen_range(1..100);
        let fed: Vec<(BufferStats, u64)> = (0..n).map(|_| interval(rng)).collect();
        let tenants: Vec<u32> = (0..100).map(|_| rng.gen_range(0..3)).collect();
        let picks: Vec<usize> = (0..100).map(|_| rng.gen_range(0..3)).collect();
        let mut tracker = QualityTracker::default();
        let mut rec = Recorder::disabled();
        for (i, &(stats, wait_us)) in fed.iter().enumerate() {
            tracker.observe(
                tenants[i],
                TEMPLATES[picks[i]],
                stats,
                wait_us,
                i as u64 * 100,
                &mut rec,
            );
        }

        let mut total = 0;
        // Every tenant the stream can name, observed or not.
        for t in 0..3 {
            let mine = (0..fed.len()).filter(|&i| tenants[i] == t).count() as u64;
            assert_eq!(tracker.observations(t), mine, "tenant {t}");
            total += tracker.observations(t);
            for (k, &tpl) in TEMPLATES.iter().enumerate() {
                let used = (0..fed.len()).any(|i| tenants[i] == t && picks[i] == k);
                assert_eq!(tracker.window(t, tpl).is_some(), used);
                if let Some(w) = tracker.window(t, tpl) {
                    assert!(w.outcomes > 0, "empty slot materialized");
                }
            }
        }
        assert_eq!(
            total,
            fed.len() as u64,
            "tenant counts must partition the total"
        );

        // A tenant that never served anything: zeros, no window.
        assert_eq!(tracker.observations(9), 0);
        assert!(tracker.window(9, TEMPLATES[0]).is_none());
        let idle = tracker.health_json(9, None);
        assert!(
            idle.contains("\"observations\":0,\"templates\":[]"),
            "{idle}"
        );
        assert!(!idle.contains("NaN"), "{idle}");
    });
}
