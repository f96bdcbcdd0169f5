//! Streaming quality telemetry and drift detection.
//!
//! [`QualityTracker`] consumes one [`QualityOutcome`] per served admission
//! (built by the server from a `BufferStats::diff` snapshot plus the
//! admission wait) and maintains, per `(tenant, template)`:
//!
//! * a **rolling window** (last [`QualityConfig::window`] outcomes) with
//!   running integer sums, so the windowed demand hit rate and prefetch
//!   precision/recall are O(1) per push and *exactly* equal to the batch
//!   computation over the same outcomes ([`batch_totals`] — pinned by
//!   `tests/proptest_quality.rs`);
//! * **EWMAs** of per-outcome hit rate and precision (`α =`
//!   [`QualityConfig::ewma_alpha`]), the smoothed inputs the drift
//!   detectors watch;
//! * a one-sided **Page–Hinkley** (CUSUM-style) detector per signal: with
//!   running mean `μ` over the EWMA'd samples it accumulates
//!   `s ← max(0, s + (μ − x − δ))` and alerts when `s > λ` after a warm-up
//!   of `ph_min_samples` — i.e. it fires only on a sustained *drop*.
//!
//! Per tenant it additionally tracks the **template-mix divergence**: the
//! last `mix_recent` templates vs a trailing baseline of the `mix_baseline`
//! templates before them, scored as total-variation distance. A stationary
//! (even cyclic) mix keeps the two distributions identical, so the score
//! stays 0; rotating the mix pushes it to 1 within `mix_recent` post-shift
//! observations — the bounded detection delay the CI drift gate pins.
//!
//! Every alert bumps a monotone per-tenant counter, stamps the last-alert
//! instant, emits a `drift.alert` trace instant on the dedicated
//! [`crate::tid::QUALITY`] track, and starts a cooldown of
//! [`QualityConfig::alert_cooldown`] observations so one regime change does
//! not spam the trace. Observations themselves emit `quality.observe`
//! instants and refresh labeled Prometheus series
//! (`quality.hit_rate_e6{tenant,template}` etc.) on the recorder.
//!
//! The tracker holds no locks and never consults the wall clock or RNG:
//! given the same outcome sequence it is fully deterministic, and because
//! it only *reads* serving state it cannot perturb virtual time or
//! admission order (the bit-identity pins stay intact).

use std::collections::{BTreeMap, VecDeque};

use crate::train::to_e6 as e6;
use crate::{tid, Recorder, Track};

/// Tuning knobs for windows, EWMAs and drift detectors. The defaults are
/// deliberately conservative: stationary CI runs must produce zero alerts.
#[derive(Debug, Clone)]
pub struct QualityConfig {
    /// Rolling-window length in outcomes per `(tenant, template)` slot.
    pub window: usize,
    /// EWMA smoothing factor in `(0, 1]` for hit rate / precision.
    pub ewma_alpha: f64,
    /// Page–Hinkley tolerance `δ`: drops smaller than this are ignored.
    pub ph_delta: f64,
    /// Page–Hinkley threshold `λ`: alert when the cumulative drop
    /// statistic exceeds it.
    pub ph_lambda: f64,
    /// Page–Hinkley warm-up: no alerts before this many samples.
    pub ph_min_samples: u64,
    /// Recent template-mix window length (per tenant).
    pub mix_recent: usize,
    /// Trailing baseline mix length (per tenant); the mix detector is
    /// silent until the baseline is full.
    pub mix_baseline: usize,
    /// Total-variation distance in `[0, 1]` at or above which the mix
    /// detector alerts.
    pub mix_threshold: f64,
    /// Observations to suppress further alerts for a tenant after one
    /// fires.
    pub alert_cooldown: u64,
}

impl Default for QualityConfig {
    fn default() -> QualityConfig {
        QualityConfig {
            window: 32,
            ewma_alpha: 0.2,
            ph_delta: 0.1,
            ph_lambda: 1.5,
            ph_min_samples: 16,
            mix_recent: 8,
            mix_baseline: 32,
            mix_threshold: 0.5,
            alert_cooldown: 16,
        }
    }
}

/// Prediction-quality raw counts for one served admission — the integer
/// fields of a `BufferStats::diff` snapshot plus the admission wait. Kept
/// as plain `u64`s so `pythia-obs` stays dependency-free (the buffer crate
/// depends on this one, not the other way round).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QualityOutcome {
    /// Demand reads served from the buffer pool.
    pub hits: u64,
    /// Demand reads served from the OS page cache.
    pub os_copies: u64,
    /// Demand reads that went to disk.
    pub disk_reads: u64,
    /// Prefetch requests issued.
    pub prefetch_issued: u64,
    /// Prefetched pages later consumed by a demand read.
    pub prefetch_useful: u64,
    /// Prefetched pages evicted unused.
    pub prefetch_wasted: u64,
    /// Admission wait (arrival → admission) in virtual microseconds.
    pub wait_us: u64,
}

impl QualityOutcome {
    /// Demand reads in this outcome.
    pub fn demand_reads(&self) -> u64 {
        self.hits + self.os_copies + self.disk_reads
    }

    /// Buffer-pool hit rate; 0.0 when no demand reads.
    pub fn hit_rate(&self) -> f64 {
        ratio(self.hits, self.demand_reads())
    }

    /// Prefetch precision: useful / issued; 0.0 when nothing was issued.
    pub fn prefetch_precision(&self) -> f64 {
        ratio(self.prefetch_useful, self.prefetch_issued)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Integer sums over a set of outcomes, with the derived rates computed the
/// same way whether the set is a rolling window, a lifetime total or a
/// batch slice — that shared arithmetic is what makes windowed == batch an
/// *exact* f64 equality.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QualityTotals {
    pub outcomes: u64,
    pub hits: u64,
    pub os_copies: u64,
    pub disk_reads: u64,
    pub prefetch_issued: u64,
    pub prefetch_useful: u64,
    pub prefetch_wasted: u64,
    pub wait_us: u64,
}

impl QualityTotals {
    pub fn add(&mut self, o: &QualityOutcome) {
        self.outcomes += 1;
        self.hits += o.hits;
        self.os_copies += o.os_copies;
        self.disk_reads += o.disk_reads;
        self.prefetch_issued += o.prefetch_issued;
        self.prefetch_useful += o.prefetch_useful;
        self.prefetch_wasted += o.prefetch_wasted;
        self.wait_us += o.wait_us;
    }

    pub fn sub(&mut self, o: &QualityOutcome) {
        self.outcomes -= 1;
        self.hits -= o.hits;
        self.os_copies -= o.os_copies;
        self.disk_reads -= o.disk_reads;
        self.prefetch_issued -= o.prefetch_issued;
        self.prefetch_useful -= o.prefetch_useful;
        self.prefetch_wasted -= o.prefetch_wasted;
        self.wait_us -= o.wait_us;
    }

    /// Fold another totals into this one (for partition checks).
    pub fn merge(&mut self, other: &QualityTotals) {
        self.outcomes += other.outcomes;
        self.hits += other.hits;
        self.os_copies += other.os_copies;
        self.disk_reads += other.disk_reads;
        self.prefetch_issued += other.prefetch_issued;
        self.prefetch_useful += other.prefetch_useful;
        self.prefetch_wasted += other.prefetch_wasted;
        self.wait_us += other.wait_us;
    }

    pub fn demand_reads(&self) -> u64 {
        self.hits + self.os_copies + self.disk_reads
    }

    /// Demand hit rate; 0.0 (never NaN) when empty.
    pub fn hit_rate(&self) -> f64 {
        ratio(self.hits, self.demand_reads())
    }

    /// Prefetch precision: useful / issued; 0.0 when nothing was issued.
    pub fn prefetch_precision(&self) -> f64 {
        ratio(self.prefetch_useful, self.prefetch_issued)
    }

    /// Prefetch recall: useful prefetches over all demand opportunities
    /// (`useful + os_copies + disk_reads`); 0.0 when there were none.
    pub fn prefetch_recall(&self) -> f64 {
        ratio(
            self.prefetch_useful,
            self.prefetch_useful + self.os_copies + self.disk_reads,
        )
    }

    /// F1 of prefetch precision and recall; 0.0 when both are 0.
    pub fn prefetch_f1(&self) -> f64 {
        let (p, r) = (self.prefetch_precision(), self.prefetch_recall());
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Mean admission wait in µs (integer division); 0 when empty.
    pub fn mean_wait_us(&self) -> u64 {
        if self.outcomes == 0 {
            0
        } else {
            self.wait_us / self.outcomes
        }
    }
}

/// Batch quality sums over a slice of outcomes — the reference the rolling
/// window is proptested against.
pub fn batch_totals(outcomes: &[QualityOutcome]) -> QualityTotals {
    let mut t = QualityTotals::default();
    for o in outcomes {
        t.add(o);
    }
    t
}

/// Which detector raised a [`DriftAlert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftKind {
    /// Page–Hinkley on the EWMA'd demand hit rate.
    HitRate,
    /// Page–Hinkley on the EWMA'd prefetch precision.
    Precision,
    /// Template-mix total-variation divergence.
    TemplateMix,
    /// Operator-initiated drill ([`QualityTracker::force_alert`]) — not a
    /// detector, but exercises the whole alert path end to end.
    Drill,
}

impl DriftKind {
    /// Stable numeric code used in trace-event args.
    pub fn code(&self) -> u64 {
        match self {
            DriftKind::HitRate => 0,
            DriftKind::Precision => 1,
            DriftKind::TemplateMix => 2,
            DriftKind::Drill => 3,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            DriftKind::HitRate => "hit_rate",
            DriftKind::Precision => "precision",
            DriftKind::TemplateMix => "template_mix",
            DriftKind::Drill => "drill",
        }
    }
}

/// One raised drift alert, also emitted as a `drift.alert` trace instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftAlert {
    pub tenant: u32,
    pub kind: DriftKind,
    /// Detector score at alert time (PH statistic or TV distance).
    pub score: f64,
    /// Virtual timestamp the alert was raised at.
    pub at_us: u64,
}

/// One-sided Page–Hinkley state: detects a sustained *decrease* of the
/// observed signal below its running mean.
#[derive(Debug, Clone, Copy, Default)]
struct PageHinkley {
    n: u64,
    mean: f64,
    cum: f64,
}

impl PageHinkley {
    /// Feed one sample; returns `true` (and resets) when the drop
    /// statistic crosses `lambda` after `min_samples` of warm-up.
    fn update(&mut self, x: f64, delta: f64, lambda: f64, min_samples: u64) -> bool {
        self.n += 1;
        self.mean += (x - self.mean) / self.n as f64;
        self.cum = (self.cum + (self.mean - x - delta)).max(0.0);
        if self.n >= min_samples && self.cum > lambda {
            *self = PageHinkley::default();
            return true;
        }
        false
    }

    fn score(&self) -> f64 {
        self.cum
    }
}

/// Per-`(tenant, template)` rolling window + EWMAs + PH detectors.
#[derive(Debug, Default)]
struct Slot {
    window: VecDeque<QualityOutcome>,
    window_totals: QualityTotals,
    lifetime: QualityTotals,
    ewma_hit: Option<f64>,
    ewma_precision: Option<f64>,
    ph_hit: PageHinkley,
    ph_precision: PageHinkley,
}

impl Slot {
    fn push(&mut self, o: QualityOutcome, window: usize) {
        self.window.push_back(o);
        self.window_totals.add(&o);
        self.lifetime.add(&o);
        if self.window.len() > window {
            let old = self.window.pop_front().expect("window non-empty");
            self.window_totals.sub(&old);
        }
    }
}

/// Per-tenant template-mix divergence state: a recent window whose
/// overflow feeds a trailing baseline window.
#[derive(Debug, Default)]
struct MixState {
    recent: VecDeque<&'static str>,
    recent_counts: BTreeMap<&'static str, u64>,
    baseline: VecDeque<&'static str>,
    baseline_counts: BTreeMap<&'static str, u64>,
}

impl MixState {
    fn push(&mut self, template: &'static str, recent_cap: usize, baseline_cap: usize) {
        self.recent.push_back(template);
        *self.recent_counts.entry(template).or_insert(0) += 1;
        if self.recent.len() > recent_cap {
            let spill = self.recent.pop_front().expect("recent non-empty");
            dec(&mut self.recent_counts, spill);
            self.baseline.push_back(spill);
            *self.baseline_counts.entry(spill).or_insert(0) += 1;
            if self.baseline.len() > baseline_cap {
                let old = self.baseline.pop_front().expect("baseline non-empty");
                dec(&mut self.baseline_counts, old);
            }
        }
    }

    fn baseline_full(&self, baseline_cap: usize) -> bool {
        self.baseline.len() >= baseline_cap
    }

    /// Total-variation distance between the recent and baseline template
    /// distributions; 0.0 when either window is empty.
    fn divergence(&self) -> f64 {
        if self.recent.is_empty() || self.baseline.is_empty() {
            return 0.0;
        }
        let rn = self.recent.len() as f64;
        let bn = self.baseline.len() as f64;
        let mut tv = 0.0;
        let keys: std::collections::BTreeSet<&'static str> = self
            .recent_counts
            .keys()
            .chain(self.baseline_counts.keys())
            .copied()
            .collect();
        for k in keys {
            let p = *self.recent_counts.get(k).unwrap_or(&0) as f64 / rn;
            let q = *self.baseline_counts.get(k).unwrap_or(&0) as f64 / bn;
            tv += (p - q).abs();
        }
        0.5 * tv
    }
}

fn dec(counts: &mut BTreeMap<&'static str, u64>, key: &'static str) {
    let c = counts.get_mut(key).expect("count tracked");
    *c -= 1;
    if *c == 0 {
        counts.remove(key);
    }
}

/// Per-tenant drift bookkeeping: mix detector, alert counter, cooldown.
#[derive(Debug, Default)]
struct TenantState {
    mix: MixState,
    observations: u64,
    alerts: u64,
    last_alert_us: Option<u64>,
    last_alert_kind: Option<DriftKind>,
    /// Observations since the last alert (u64::MAX before any alert).
    since_alert: u64,
}

/// The streaming quality tracker. Not internally synchronized — the server
/// owns one behind whatever sharing it needs (`Arc<Mutex<_>>` when the
/// frontend health route reads it concurrently).
#[derive(Debug)]
pub struct QualityTracker {
    cfg: QualityConfig,
    slots: BTreeMap<(u32, &'static str), Slot>,
    tenants: BTreeMap<u32, TenantState>,
}

impl Default for QualityTracker {
    fn default() -> QualityTracker {
        QualityTracker::new(QualityConfig::default())
    }
}

impl QualityTracker {
    pub fn new(cfg: QualityConfig) -> QualityTracker {
        QualityTracker {
            cfg,
            slots: BTreeMap::new(),
            tenants: BTreeMap::new(),
        }
    }

    pub fn config(&self) -> &QualityConfig {
        &self.cfg
    }

    /// Feed one served-admission outcome. Updates windows, EWMAs and
    /// detectors; emits `quality.observe` (and `drift.alert` on any alert)
    /// trace instants on the [`tid::QUALITY`] track and refreshes the
    /// labeled metric series. Returns the alerts raised by this
    /// observation (usually empty).
    pub fn observe(
        &mut self,
        tenant: u32,
        template: &'static str,
        outcome: QualityOutcome,
        now_us: u64,
        rec: &mut Recorder,
    ) -> Vec<DriftAlert> {
        let cfg = self.cfg.clone();
        let slot = self.slots.entry((tenant, template)).or_default();
        slot.push(outcome, cfg.window);

        // EWMA the per-outcome signals; precision only moves when the
        // admission actually issued prefetches (no signal otherwise).
        let hit = outcome.hit_rate();
        let eh = match slot.ewma_hit {
            None => hit,
            Some(prev) => cfg.ewma_alpha * hit + (1.0 - cfg.ewma_alpha) * prev,
        };
        slot.ewma_hit = Some(eh);
        let hit_fired = outcome.demand_reads() > 0
            && slot
                .ph_hit
                .update(eh, cfg.ph_delta, cfg.ph_lambda, cfg.ph_min_samples);
        let mut precision_fired = false;
        if outcome.prefetch_issued > 0 {
            let prec = outcome.prefetch_precision();
            let ep = match slot.ewma_precision {
                None => prec,
                Some(prev) => cfg.ewma_alpha * prec + (1.0 - cfg.ewma_alpha) * prev,
            };
            slot.ewma_precision = Some(ep);
            precision_fired =
                slot.ph_precision
                    .update(ep, cfg.ph_delta, cfg.ph_lambda, cfg.ph_min_samples);
        }
        let win = slot.window_totals;

        let ten = self.tenants.entry(tenant).or_insert_with(|| TenantState {
            since_alert: u64::MAX,
            ..TenantState::default()
        });
        ten.observations += 1;
        ten.since_alert = ten.since_alert.saturating_add(1);
        ten.mix.push(template, cfg.mix_recent, cfg.mix_baseline);
        let mix_score = ten.mix.divergence();
        let mix_fired = ten.mix.baseline_full(cfg.mix_baseline) && mix_score >= cfg.mix_threshold;

        // Trace the observation on the dedicated quality track.
        rec.declare_track(Track::virt(tid::QUALITY), || "quality".to_owned());
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
                ("mix_e6", e6(mix_score)),
                ("wait_us", outcome.wait_us),
            ],
        );
        rec.add("quality.observations", 1);

        // Collect alerts behind the per-tenant cooldown.
        let mut alerts = Vec::new();
        if ten.since_alert >= cfg.alert_cooldown {
            for (fired, kind, score) in [
                (mix_fired, DriftKind::TemplateMix, mix_score),
                (hit_fired, DriftKind::HitRate, cfg.ph_lambda),
                (precision_fired, DriftKind::Precision, cfg.ph_lambda),
            ] {
                if fired {
                    alerts.push(DriftAlert {
                        tenant,
                        kind,
                        score,
                        at_us: now_us,
                    });
                    break; // one alert per observation; cooldown starts now
                }
            }
        }
        for a in &alerts {
            ten.alerts += 1;
            ten.last_alert_us = Some(a.at_us);
            ten.last_alert_kind = Some(a.kind);
            ten.since_alert = 0;
            rec.instant(
                Track::virt(tid::QUALITY),
                "quality",
                "drift.alert",
                a.at_us,
                &[
                    ("tenant", a.tenant as u64),
                    ("kind", a.kind.code()),
                    ("score_e6", e6(a.score)),
                    ("count", ten.alerts),
                ],
            );
            rec.add("drift.alerts", 1);
            // A drift alert is a flight-recorder anomaly trigger: dump the
            // black box while the evidence is still in the ring.
            rec.trigger_flight("drift.alert", a.at_us);
        }

        // Refresh the labeled series (cheap: a binary search and a store each).
        if rec.is_enabled() {
            let t = tenant.to_string();
            let labels: [(&str, &str); 2] = [("tenant", &t), ("template", template)];
            rec.set_labeled("quality.hit_rate_e6", &labels, e6(win.hit_rate()));
            rec.set_labeled(
                "quality.prefetch_precision_e6",
                &labels,
                e6(win.prefetch_precision()),
            );
            rec.set_labeled(
                "quality.prefetch_recall_e6",
                &labels,
                e6(win.prefetch_recall()),
            );
            rec.set_labeled("quality.mean_wait_us", &labels, win.mean_wait_us());
            let tlabel: [(&str, &str); 1] = [("tenant", &t)];
            rec.set_labeled("drift.mix_divergence_e6", &tlabel, e6(mix_score));
            rec.set_labeled(
                "drift.alerts",
                &tlabel,
                self.tenants.get(&tenant).map(|t| t.alerts).unwrap_or(0),
            );
        }
        alerts
    }

    /// Raise a drift alert unconditionally — an operator drill (the
    /// `serve_demo --force-drift` knob, the CI anomaly smoke) that
    /// exercises the real alert path end to end: the `drift.alert` trace
    /// instant, the `drift.alerts` counter and labeled series, per-tenant
    /// cooldown bookkeeping, and the flight-recorder dump trigger. The
    /// alert is [`DriftKind::Drill`] so dashboards can tell it from a
    /// detector firing.
    pub fn force_alert(&mut self, tenant: u32, now_us: u64, rec: &mut Recorder) -> DriftAlert {
        let ten = self.tenants.entry(tenant).or_insert_with(|| TenantState {
            since_alert: u64::MAX,
            ..TenantState::default()
        });
        ten.observations += 1;
        ten.alerts += 1;
        ten.last_alert_us = Some(now_us);
        ten.last_alert_kind = Some(DriftKind::Drill);
        ten.since_alert = 0;
        let alerts = ten.alerts;
        rec.declare_track(Track::virt(tid::QUALITY), || "quality".to_owned());
        rec.instant(
            Track::virt(tid::QUALITY),
            "quality",
            "drift.alert",
            now_us,
            &[
                ("tenant", tenant as u64),
                ("kind", DriftKind::Drill.code()),
                ("score_e6", 0),
                ("count", alerts),
            ],
        );
        rec.add("drift.alerts", 1);
        if rec.is_enabled() {
            let t = tenant.to_string();
            let tlabel: [(&str, &str); 1] = [("tenant", &t)];
            rec.set_labeled("drift.alerts", &tlabel, alerts);
        }
        rec.trigger_flight("drift.alert", now_us);
        DriftAlert {
            tenant,
            kind: DriftKind::Drill,
            score: 0.0,
            at_us: now_us,
        }
    }

    /// Windowed totals for a `(tenant, template)` slot.
    pub fn window(&self, tenant: u32, template: &str) -> Option<QualityTotals> {
        self.slots
            .iter()
            .find(|((t, tpl), _)| *t == tenant && *tpl == template)
            .map(|(_, s)| s.window_totals)
    }

    /// Lifetime totals for a `(tenant, template)` slot.
    pub fn lifetime(&self, tenant: u32, template: &str) -> Option<QualityTotals> {
        self.slots
            .iter()
            .find(|((t, tpl), _)| *t == tenant && *tpl == template)
            .map(|(_, s)| s.lifetime)
    }

    /// Lifetime totals folded over every template of one tenant (zeros
    /// when the tenant never served — NaN-free by construction).
    pub fn tenant_lifetime(&self, tenant: u32) -> QualityTotals {
        let mut t = QualityTotals::default();
        for ((ten, _), s) in &self.slots {
            if *ten == tenant {
                t.merge(&s.lifetime);
            }
        }
        t
    }

    /// Lifetime totals folded over all tenants.
    pub fn global_lifetime(&self) -> QualityTotals {
        let mut t = QualityTotals::default();
        for s in self.slots.values() {
            t.merge(&s.lifetime);
        }
        t
    }

    /// Tenants that produced at least one observation, ascending.
    pub fn tenant_ids(&self) -> Vec<u32> {
        self.tenants.keys().copied().collect()
    }

    /// Monotone drift-alert count for a tenant.
    pub fn alerts(&self, tenant: u32) -> u64 {
        self.tenants.get(&tenant).map(|t| t.alerts).unwrap_or(0)
    }

    /// Total drift alerts across all tenants.
    pub fn total_alerts(&self) -> u64 {
        self.tenants.values().map(|t| t.alerts).sum()
    }

    /// Virtual timestamp of the last alert for a tenant, if any.
    pub fn last_alert_us(&self, tenant: u32) -> Option<u64> {
        self.tenants.get(&tenant).and_then(|t| t.last_alert_us)
    }

    /// Current template-mix divergence score for a tenant (0.0 unknown).
    pub fn mix_divergence(&self, tenant: u32) -> f64 {
        self.tenants
            .get(&tenant)
            .map(|t| t.mix.divergence())
            .unwrap_or(0.0)
    }

    /// The `/t/<tenant>/health` JSON body: current windows per template,
    /// drift scores, the last-alert instant, plus the registry model
    /// version and frontend accepted/shed/rejected counts when the caller
    /// has them. Hand-rolled, integer-only (rates as `*_e6`), keys sorted
    /// — deterministic for a given tracker state.
    pub fn health_json(
        &self,
        tenant: u32,
        model_version: Option<u64>,
        frontend: Option<(u64, u64, u64)>,
    ) -> String {
        let ten = self.tenants.get(&tenant);
        let mut out = String::from("{\"drift\":{\"alerts\":");
        out.push_str(&self.alerts(tenant).to_string());
        out.push_str(",\"last_alert_kind\":");
        match ten.and_then(|t| t.last_alert_kind) {
            Some(k) => {
                out.push('"');
                out.push_str(k.name());
                out.push('"');
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"last_alert_us\":");
        match self.last_alert_us(tenant) {
            Some(us) => out.push_str(&us.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(",\"mix_divergence_e6\":");
        out.push_str(&e6(self.mix_divergence(tenant)).to_string());
        out.push_str("},\"frontend\":");
        match frontend {
            Some((accepted, shed, rejected)) => {
                out.push_str("{\"accepted\":");
                out.push_str(&accepted.to_string());
                out.push_str(",\"rejected\":");
                out.push_str(&rejected.to_string());
                out.push_str(",\"shed\":");
                out.push_str(&shed.to_string());
                out.push_str(",\"shed_rate_e6\":");
                out.push_str(&e6(ratio(shed, accepted + shed)).to_string());
                out.push('}');
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"model_version\":");
        match model_version {
            Some(v) => out.push_str(&v.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(",\"observations\":");
        out.push_str(&ten.map(|t| t.observations).unwrap_or(0).to_string());
        out.push_str(",\"templates\":[");
        let mut first = true;
        for ((t, template), slot) in &self.slots {
            if *t != tenant {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"template\":\"");
            crate::snapshot::escape_into(&mut out, template);
            out.push_str("\",\"window\":{\"hit_rate_e6\":");
            let w = slot.window_totals;
            out.push_str(&e6(w.hit_rate()).to_string());
            out.push_str(",\"mean_wait_us\":");
            out.push_str(&w.mean_wait_us().to_string());
            out.push_str(",\"outcomes\":");
            out.push_str(&w.outcomes.to_string());
            out.push_str(",\"prefetch_f1_e6\":");
            out.push_str(&e6(w.prefetch_f1()).to_string());
            out.push_str(",\"prefetch_precision_e6\":");
            out.push_str(&e6(w.prefetch_precision()).to_string());
            out.push_str(",\"prefetch_recall_e6\":");
            out.push_str(&e6(w.prefetch_recall()).to_string());
            out.push_str("},\"ewma_hit_rate_e6\":");
            out.push_str(&e6(slot.ewma_hit.unwrap_or(0.0)).to_string());
            out.push_str(",\"ph_hit_score_e6\":");
            out.push_str(&e6(slot.ph_hit.score()).to_string());
            out.push_str(",\"ph_precision_score_e6\":");
            out.push_str(&e6(slot.ph_precision.score()).to_string());
            out.push('}');
        }
        out.push_str("],\"tenant\":");
        out.push_str(&tenant.to_string());
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(hits: u64, misses: u64, issued: u64, useful: u64, wait: u64) -> QualityOutcome {
        QualityOutcome {
            hits,
            os_copies: misses / 2,
            disk_reads: misses - misses / 2,
            prefetch_issued: issued,
            prefetch_useful: useful,
            prefetch_wasted: issued.saturating_sub(useful),
            wait_us: wait,
        }
    }

    #[test]
    fn windowed_totals_match_batch_over_tail() {
        let cfg = QualityConfig {
            window: 4,
            ..QualityConfig::default()
        };
        let mut t = QualityTracker::new(cfg);
        let mut rec = Recorder::disabled();
        let outs: Vec<QualityOutcome> = (0..10)
            .map(|i| outcome(i, 10 - i, i + 1, i / 2, 5 * i))
            .collect();
        for (i, o) in outs.iter().enumerate() {
            t.observe(0, "query.replay.T18", *o, i as u64, &mut rec);
        }
        let win = t.window(0, "query.replay.T18").expect("slot exists");
        let batch = batch_totals(&outs[6..]);
        assert_eq!(win, batch);
        assert_eq!(win.hit_rate(), batch.hit_rate());
        assert_eq!(win.prefetch_precision(), batch.prefetch_precision());
        assert_eq!(win.prefetch_recall(), batch.prefetch_recall());
        assert_eq!(
            t.lifetime(0, "query.replay.T18").unwrap(),
            batch_totals(&outs)
        );
    }

    #[test]
    fn empty_and_zero_slots_are_nan_free() {
        let t = QualityTracker::default();
        assert!(t.window(3, "x").is_none());
        let z = t.tenant_lifetime(3);
        assert_eq!(z.hit_rate(), 0.0);
        assert_eq!(z.prefetch_precision(), 0.0);
        assert_eq!(z.prefetch_recall(), 0.0);
        assert_eq!(z.prefetch_f1(), 0.0);
        assert_eq!(z.mean_wait_us(), 0);
        let zero = QualityOutcome::default();
        assert_eq!(zero.hit_rate(), 0.0);
        assert_eq!(zero.prefetch_precision(), 0.0);
    }

    #[test]
    fn stationary_cyclic_mix_never_alerts() {
        let mut t = QualityTracker::default();
        let mut rec = Recorder::enabled();
        let cycle = ["a", "b", "c", "d"];
        for i in 0..400u64 {
            let tpl = cycle[(i % 4) as usize];
            let alerts = t.observe(1, tpl, outcome(9, 1, 4, 3, 10), i, &mut rec);
            assert!(alerts.is_empty(), "stationary alert at {i}: {alerts:?}");
        }
        assert_eq!(t.total_alerts(), 0);
        assert_eq!(rec.event_count("drift.alert"), 0);
        assert_eq!(t.mix_divergence(1), 0.0);
        assert_eq!(rec.event_count("quality.observe"), 400);
    }

    #[test]
    fn mix_rotation_alerts_within_recent_window() {
        let cfg = QualityConfig::default();
        let bound = cfg.mix_recent as u64 * 2;
        let mut t = QualityTracker::new(cfg.clone());
        let mut rec = Recorder::enabled();
        let pre = ["a", "b", "c", "d"];
        let post = ["e", "f", "g", "h"];
        let shift = 100u64;
        let mut first_alert = None;
        for i in 0..shift + 64 {
            let tpl = if i < shift {
                pre[(i % 4) as usize]
            } else {
                post[(i % 4) as usize]
            };
            let alerts = t.observe(2, tpl, outcome(9, 1, 4, 3, 10), i, &mut rec);
            if first_alert.is_none() {
                if let Some(a) = alerts.first() {
                    assert_eq!(a.kind, DriftKind::TemplateMix);
                    first_alert = Some(i);
                }
            }
        }
        let at = first_alert.expect("rotation must raise a drift alert");
        assert!(
            at >= shift && at - shift <= bound,
            "alert at {at}, shift {shift}, bound {bound}"
        );
        assert!(t.alerts(2) >= 1);
        assert!(t.last_alert_us(2).is_some());
        assert!(rec.event_count("drift.alert") >= 1);
        assert!(rec.counter("drift.alerts") >= 1);
    }

    #[test]
    fn page_hinkley_detects_sustained_hit_rate_drop() {
        let mut t = QualityTracker::default();
        let mut rec = Recorder::enabled();
        // Good regime, then hit rate collapses on a single template (so the
        // mix detector stays silent and PH must be the one that fires).
        let mut fired = None;
        for i in 0..300u64 {
            let o = if i < 150 {
                outcome(10, 0, 4, 4, 10)
            } else {
                outcome(0, 10, 4, 4, 10)
            };
            let alerts = t.observe(0, "only", o, i, &mut rec);
            if fired.is_none() {
                if let Some(a) = alerts.first() {
                    fired = Some((i, a.kind));
                }
            }
        }
        let (at, kind) = fired.expect("hit-rate collapse must alert");
        assert_eq!(kind, DriftKind::HitRate);
        assert!(at >= 150, "alert at {at} precedes the drop");
        assert!(at < 250, "PH too slow: alert at {at}");
    }

    #[test]
    fn cooldown_suppresses_alert_storms() {
        let cfg = QualityConfig {
            alert_cooldown: 50,
            ..QualityConfig::default()
        };
        let mut t = QualityTracker::new(cfg);
        let mut rec = Recorder::enabled();
        // Permanently rotated mix: divergence stays 1.0 after the shift.
        for i in 0..200u64 {
            let tpl = if i < 100 { "a" } else { "b" };
            t.observe(0, tpl, outcome(9, 1, 0, 0, 0), i, &mut rec);
        }
        // 100 post-shift observations with a 50-observation cooldown can
        // raise at most 2 alerts.
        assert!(t.alerts(0) <= 2, "alert storm: {}", t.alerts(0));
        assert!(t.alerts(0) >= 1);
    }

    #[test]
    fn force_alert_drill_fires_the_full_alert_path() {
        let mut t = QualityTracker::default();
        let mut rec = Recorder::enabled();
        let shared = crate::flight::SharedFlight::new();
        rec.set_flight_publisher(shared.clone());
        let a = t.force_alert(7, 500, &mut rec);
        assert_eq!(a.kind, DriftKind::Drill);
        assert_eq!(a.tenant, 7);
        assert_eq!(t.alerts(7), 1);
        assert_eq!(t.last_alert_us(7), Some(500));
        assert_eq!(rec.event_count("drift.alert"), 1);
        assert_eq!(rec.counter("drift.alerts"), 1);
        assert_eq!(rec.counter("flight.triggers"), 1);
        let dump = shared.get().expect("drill publishes a flight dump");
        assert_eq!(dump.reason, "drift.alert");
        assert!(dump.trace_json.contains("\"drift.alert\""));
        // The drill is visible (and distinguishable) in the health body.
        let j = t.health_json(7, None, None);
        assert!(j.contains("\"last_alert_kind\":\"drill\""), "{j}");
    }

    #[test]
    fn health_json_shape() {
        let mut t = QualityTracker::default();
        let mut rec = Recorder::enabled();
        for i in 0..8u64 {
            t.observe(
                1,
                "query.replay.T18",
                outcome(8, 2, 4, 3, 20),
                10 * i,
                &mut rec,
            );
        }
        let j = t.health_json(1, Some(3), Some((8, 2, 0)));
        assert!(j.starts_with("{\"drift\":{\"alerts\":0"));
        assert!(j.contains("\"model_version\":3"));
        assert!(j.contains("\"tenant\":1"));
        assert!(j.contains("\"observations\":8"));
        assert!(j.contains("\"template\":\"query.replay.T18\""));
        assert!(j.contains("\"hit_rate_e6\":800000"));
        assert!(j.contains("\"prefetch_precision_e6\":750000"));
        assert!(j.contains("\"accepted\":8"));
        assert!(j.contains("\"shed_rate_e6\":200000"));
        assert!(j.ends_with("\"tenant\":1}"));
        // Unknown tenant: zeros and nulls, never a panic.
        let empty = t.health_json(9, None, None);
        assert!(empty.contains("\"alerts\":0"));
        assert!(empty.contains("\"model_version\":null"));
        assert!(empty.contains("\"frontend\":null"));
        assert!(empty.contains("\"templates\":[]"));
        // Labeled series got refreshed for the serving tenant.
        let snap = rec.snapshot();
        assert_eq!(
            snap.labeled(
                "quality.hit_rate_e6",
                &[("template", "query.replay.T18"), ("tenant", "1")]
            ),
            800_000
        );
        assert_eq!(snap.labeled("drift.alerts", &[("tenant", "1")]), 0);
    }

    #[test]
    fn quality_track_is_declared_and_virtual() {
        let mut t = QualityTracker::default();
        let mut rec = Recorder::enabled();
        t.observe(0, "x", outcome(5, 5, 2, 1, 7), 42, &mut rec);
        let virt = rec.virtual_trace_json();
        assert!(virt.contains("quality.observe"));
        assert!(virt.contains("\"quality\""));
        let ev = rec
            .events()
            .iter()
            .find(|e| e.name == "quality.observe")
            .expect("observe event");
        assert_eq!(ev.track, Track::virt(tid::QUALITY));
        assert_eq!(ev.ts_us, 42);
    }
}
