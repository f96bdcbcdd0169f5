//! Admission-controlled prefetch serving loop.
//!
//! The paper's §5.4 experiments replay *pre-built* batches of concurrent
//! queries. A deployed Pythia sits in front of a live queue instead: queries
//! arrive on their own schedule, the database admits at most `concurrency` of
//! them at once, and the model is invoked over whatever is queued so
//! inference batches naturally with load (the batched forward pass of
//! [`TrainedWorkload::infer_batch`] amortizes across everything queued).
//!
//! [`PrefetchServer`] is that loop over the virtual-clock stack, in one of
//! two [`AdmissionMode`]s:
//!
//! - **Continuous** (the default): admit-on-completion. Arrivals,
//!   admissions and replay events are processed in global virtual-time order
//!   over one incremental [`ReplaySession`]. The scheduler tracks the
//!   virtual instant each of the `concurrency` slots became free (a
//!   completion frees its slot at the completion *end*), and an admission
//!   happens at `max(earliest queued arrival, earliest free-slot instant)`:
//!   an arrival that finds a free slot is admitted at its arrival instant,
//!   one that finds every slot busy waits for the slot-freeing completion
//!   and is injected at that completion's end. The admitted query is picked
//!   FIFO, or as the most page-overlapping candidate
//!   ([`pick_next_by_overlap`]). Each admission instant first runs one
//!   batched inference over every queued query lacking a prediction
//!   (opportunistic re-batching), charging each covered query the amortized
//!   latency ([`InferenceCharge`]). No barrier: a long query never stalls
//!   short ones queued behind it.
//! - **Wave**: the original barrier loop. Up to `concurrency` queries are
//!   admitted per wave under the [`QueuePolicy`] (FIFO, or the §7 overlap
//!   scheduler [`schedule_by_overlap`]), the wave replays to completion
//!   through [`Runtime::run`], and only then is the queue examined again.
//!   Kept for comparison — the wave-vs-continuous gap under skewed per-query
//!   cost is what `pythia-experiments`' serving section measures.
//!
//! In both modes the shared pool's counters are attributed to each admission
//! event by snapshot diff ([`BufferStats::diff`]), so the per-event
//! [`WaveStats`] always partition the aggregate report.
//!
//! With `concurrency = 1`, FIFO policy and a fixed inference charge, *both*
//! modes are *bit-identical* to calling [`Runtime::run`] serially per query
//! on one warm stack — the property the proptests in
//! `tests/proptest_server.rs` pin down. Scheduling extensions are therefore
//! one-flag variants of the same loop, not separate harnesses.
//!
//! A socket front-end for this loop — bounded queue, load shedding, the
//! `serve_demo` example binary — lives in [`crate::frontend`].

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use pythia_buffer::BufferStats;
use pythia_db::catalog::Database;
use pythia_db::plan::PlanNode;
use pythia_db::runtime::{QueryRun, ReplaySession, RunConfig, Runtime};
use pythia_db::trace::Trace;
use pythia_obs::quality::{QualityOutcome, QualityTotals, QualityTracker};
use pythia_obs::request::RequestBreakdown;
use pythia_obs::{tid, FlowDir, Recorder, Track};
use pythia_sim::{PageId, SimDuration, SimTime};

use crate::predictor::TrainedWorkload;
use crate::prefetch::engage;
use crate::registry::TenantFleet;
use crate::scheduler::{pick_next_by_overlap_scored, schedule_by_overlap};

/// How queries are admitted from the queue into the replay stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionMode {
    /// Admit-on-completion (the default): the moment a slot frees, the
    /// scheduler picks the next queued query and injects it at the completion
    /// instant. Work-conserving — a long query never stalls short ones queued
    /// behind it.
    Continuous,
    /// Barrier waves: admit up to `concurrency` queries, replay the whole
    /// wave to completion, then look at the queue again. Kept for comparison.
    Wave,
}

/// How the serving loop picks the next admission from the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueuePolicy {
    /// Admit in arrival order.
    Fifo,
    /// Prefer page overlap: in wave mode, order the whole queue with
    /// [`schedule_by_overlap`] on the predicted page sets and admit the head
    /// of that chain; in continuous mode, pick the queued query most
    /// overlapping the previously admitted one ([`pick_next_by_overlap`]) —
    /// so consecutive admissions find their working sets resident. Degrades
    /// to FIFO when predictions are absent or empty (the schedulers'
    /// all-empty tie-break).
    Overlap,
}

/// How model-inference latency is charged to admitted queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InferenceCharge {
    /// Measure the actual wall-clock time of the batched forward pass and
    /// charge each covered query the amortized share (wall / batch size).
    Measured,
    /// Charge every covered query this fixed latency. Use this in tests:
    /// virtual timings become independent of host speed.
    Fixed(SimDuration),
}

/// Serving-loop configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Maximum queries replaying at once (values below 1 behave as 1 — the
    /// clamp is regression-tested in this module).
    pub concurrency: usize,
    /// How slots are refilled from the queue.
    pub admission: AdmissionMode,
    /// Queue ordering policy.
    pub policy: QueuePolicy,
    /// Inference-latency accounting.
    pub charge: InferenceCharge,
    /// Prefetch budget in pages per query; `None` uses 3/4 of the pool
    /// (limited prefetching, §5.1).
    pub prefetch_budget: Option<usize>,
    /// Per-tenant cap on queries in flight at once (`None` disables tenant
    /// accounting entirely — the single-tenant fast path). Values below 1
    /// behave as 1, mirroring the `concurrency` clamp. A tenant at its quota
    /// never blocks other tenants: admission skips past it to the first
    /// feasible queued query.
    pub tenant_quota: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            concurrency: 4,
            admission: AdmissionMode::Continuous,
            policy: QueuePolicy::Fifo,
            charge: InferenceCharge::Measured,
            prefetch_budget: None,
            tenant_quota: None,
        }
    }
}

/// One incoming query: its plan (for inference), its recorded trace (for
/// replay) and its arrival offset from the instant [`PrefetchServer::serve`]
/// is called (i.e. from the stack's current clock).
#[derive(Debug, Clone, Copy)]
pub struct ServerRequest<'a> {
    pub plan: &'a PlanNode,
    pub trace: &'a Trace,
    pub arrival: SimDuration,
    /// Trace span name for this query's replay (see
    /// [`QueryRun::span_name`]); callers that know the query's template pass
    /// `Template::replay_span()` so Perfetto groups repeated templates.
    pub span_name: &'static str,
    /// Which tenant issued the query (0 when single-tenant). Drives the
    /// [`ServerConfig::tenant_quota`] admission cap and the per-tenant
    /// breakdown of [`ServeReport::by_tenant`].
    pub tenant: u32,
    /// End-to-end request id for tracing (0 = unassigned). A trace-only
    /// label: it never influences admission order or virtual time. The TCP
    /// front-end mints wall-ordered ids ([`pythia_obs::request::mint`]);
    /// direct [`PrefetchServer::serve`] callers may leave 0 and the serving
    /// loop assigns the deterministic per-call ordinal `i + 1`, so golden
    /// traces of replayed workloads stay byte-stable.
    pub request: u64,
}

impl<'a> ServerRequest<'a> {
    /// A request arriving at `arrival` with the default replay span name,
    /// attributed to tenant 0 and no request id (the serving loop assigns
    /// a deterministic ordinal).
    pub fn new(plan: &'a PlanNode, trace: &'a Trace, arrival: SimDuration) -> Self {
        ServerRequest {
            plan,
            trace,
            arrival,
            span_name: pythia_db::runtime::DEFAULT_REPLAY_SPAN,
            tenant: 0,
            request: 0,
        }
    }

    /// The same request attributed to `tenant`.
    pub fn with_tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }

    /// The same request carrying an externally minted trace id.
    pub fn with_request(mut self, request: u64) -> Self {
        self.request = request;
        self
    }
}

/// Per-query serving outcome.
#[derive(Debug, Clone, Copy)]
pub struct QueryOutcome {
    /// When the query arrived (absolute virtual time).
    pub arrival: SimTime,
    /// When it was admitted into the replay stack (its wave's dispatch in
    /// wave mode; its own admission instant in continuous mode).
    pub admitted: SimTime,
    /// When replay began (admission + inference charge).
    pub start: SimTime,
    /// When replay finished.
    pub end: SimTime,
    /// Index into [`ServeReport::waves`] of the admission event that served
    /// it.
    pub wave: usize,
    /// Inference latency charged to this query.
    pub inference: SimDuration,
    /// Tenant the query was attributed to ([`ServerRequest::tenant`]).
    pub tenant: u32,
    /// Request id the query carried through the serving loop
    /// ([`ServerRequest::request`], after the loop's ordinal assignment).
    pub request: u64,
}

impl QueryOutcome {
    /// Time spent queued before admission.
    pub fn admission_wait(&self) -> SimDuration {
        self.admitted.since(self.arrival)
    }

    /// End-to-end latency: arrival to completion (includes queueing and
    /// inference).
    pub fn latency(&self) -> SimDuration {
        self.end.since(self.arrival)
    }

    /// The queue / admission / inference / replay latency breakdown — the
    /// same partition the `request.*` trace spans draw, so the report and
    /// the postmortem dump always agree.
    pub fn breakdown(&self) -> RequestBreakdown {
        RequestBreakdown {
            request: self.request,
            tenant: self.tenant,
            arrival_us: self.arrival.as_micros(),
            queue_us: self.admitted.since(self.arrival).as_micros(),
            admission_us: self.start.since(self.admitted).as_micros(),
            infer_us: self.inference.as_micros(),
            replay_us: self.end.since(self.start).as_micros(),
        }
    }
}

/// Per-admission-event serving metrics. In wave mode, one entry per barrier
/// wave; in continuous mode, one entry per admission (so exactly one per
/// query).
#[derive(Debug, Clone, Copy)]
pub struct WaveStats {
    /// When the admission was dispatched.
    pub admitted_at: SimTime,
    /// Queries in flight right after this admission (the wave's size in wave
    /// mode; the slot occupancy including the admitted query in continuous
    /// mode). Always within `1..=concurrency`.
    pub occupancy: usize,
    /// Queue depth at dispatch (admitted + still waiting).
    pub queue_depth: usize,
    /// Queries covered by this admission's batched inference call.
    pub inferred: usize,
    /// Total inference latency charged to the queries admitted here.
    pub inference: SimDuration,
    /// Buffer/prefetch counters accumulated between this admission and the
    /// next (or the end of the serve call) — the per-event entries always
    /// partition [`ServeReport::stats`].
    pub stats: BufferStats,
    /// Tenant of the admitted query in continuous mode (one admission per
    /// query, so the attribution is exact); `None` in wave mode, where one
    /// barrier wave can mix tenants.
    pub tenant: Option<u32>,
}

/// Result of serving one request stream.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Outcomes in the same order as the input requests.
    pub queries: Vec<QueryOutcome>,
    /// One entry per admission event, in dispatch order.
    pub waves: Vec<WaveStats>,
    /// Counters accumulated across the whole serve call.
    pub stats: BufferStats,
}

impl ServeReport {
    /// Wall time from first arrival to last completion.
    pub fn makespan(&self) -> SimDuration {
        let first = self
            .queries
            .iter()
            .map(|q| q.arrival)
            .min()
            .unwrap_or(SimTime::ZERO);
        let last = self.queries.iter().map(|q| q.end).max().unwrap_or(first);
        last.since(first)
    }

    /// Mean time queries spent queued before admission.
    pub fn mean_admission_wait(&self) -> SimDuration {
        if self.queries.is_empty() {
            return SimDuration::ZERO;
        }
        let total: u64 = self
            .queries
            .iter()
            .map(|q| q.admission_wait().as_micros())
            .sum();
        SimDuration::from_micros(total / self.queries.len() as u64)
    }

    /// Log₂-bucket histogram of per-query admission waits in microseconds —
    /// the same estimator the recorder's `server.admission_wait_us`
    /// histogram uses, so the report and the live metrics endpoint agree.
    pub fn admission_wait_hist(&self) -> pythia_obs::hist::Histogram {
        let mut h = pythia_obs::hist::Histogram::new();
        for q in &self.queries {
            h.record(q.admission_wait().as_micros());
        }
        h
    }

    /// Per-request latency breakdowns, in input order (see
    /// [`QueryOutcome::breakdown`]).
    pub fn breakdowns(&self) -> Vec<RequestBreakdown> {
        self.queries.iter().map(|q| q.breakdown()).collect()
    }

    /// The `k` slowest requests by end-to-end latency, slowest first (ties
    /// break toward the lower request id) — what the front-end's
    /// `/debug/slow` route and the report's "slowest requests" section show.
    pub fn slow_requests(&self, k: usize) -> Vec<RequestBreakdown> {
        let mut all = self.breakdowns();
        all.sort_by(|a, b| {
            b.latency_us()
                .cmp(&a.latency_us())
                .then(a.request.cmp(&b.request))
        });
        all.truncate(k);
        all
    }

    /// Mean queries admitted per wave.
    pub fn mean_occupancy(&self) -> f64 {
        if self.waves.is_empty() {
            return 0.0;
        }
        self.waves.iter().map(|w| w.occupancy).sum::<usize>() as f64 / self.waves.len() as f64
    }

    /// Largest queue depth seen at any dispatch.
    pub fn max_queue_depth(&self) -> usize {
        self.waves.iter().map(|w| w.queue_depth).max().unwrap_or(0)
    }

    /// Completed queries per virtual second.
    pub fn throughput_qps(&self) -> f64 {
        let secs = self.makespan().as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.queries.len() as f64 / secs
        }
    }

    /// Serving report: admission metrics, per-wave occupancy and the buffer
    /// manager's read-class breakdown.
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Serving report ({} queries, {} waves)",
            self.queries.len(),
            self.waves.len()
        );
        for (i, w) in self.waves.iter().enumerate() {
            let _ = writeln!(
                out,
                "  wave {i}: at {} occupancy {} queue depth {} inferred {} inference {}",
                w.admitted_at, w.occupancy, w.queue_depth, w.inferred, w.inference
            );
        }
        let _ = writeln!(out, "  makespan: {}", self.makespan());
        let _ = writeln!(out, "  throughput: {:.2} q/s", self.throughput_qps());
        let _ = writeln!(
            out,
            "  admission: mean wait {}, mean occupancy {:.2}, max queue depth {}",
            self.mean_admission_wait(),
            self.mean_occupancy(),
            self.max_queue_depth()
        );
        let aw = self.admission_wait_hist();
        let _ = writeln!(
            out,
            "  admission wait percentiles: p50 {}us p95 {}us p99 {}us",
            aw.p50(),
            aw.p95(),
            aw.p99()
        );
        for (rank, b) in self.slow_requests(3).iter().enumerate() {
            if rank == 0 {
                let _ = writeln!(out, "  slowest requests:");
            }
            let _ = writeln!(
                out,
                "    request {}: tenant {} latency {}us = queue {}us + admission {}us + replay {}us (infer {}us)",
                b.request,
                b.tenant,
                b.latency_us(),
                b.queue_us,
                b.admission_us,
                b.replay_us,
                b.infer_us
            );
        }
        let s = &self.stats;
        let _ = writeln!(
            out,
            "  reads: {} total = {} buffer hits ({:.1}%) + {} OS-cache copies + {} disk reads",
            s.total_reads(),
            s.hits,
            s.hit_rate() * 100.0,
            s.os_copies,
            s.disk_reads
        );
        let _ = writeln!(
            out,
            "  prefetch: {} issued, {} useful ({:.1}% precision), {} wasted",
            s.prefetch_issued,
            s.prefetch_useful,
            s.prefetch_precision() * 100.0,
            s.prefetch_wasted
        );
        out
    }

    /// Per-tenant breakdown. Query counts, waits and inference charges
    /// always partition the global totals; buffer counters additionally
    /// partition [`ServeReport::stats`] in continuous mode, where every
    /// admission event is attributed to exactly one tenant (wave-mode waves
    /// mix tenants, so their counters stay unattributed).
    pub fn by_tenant(&self) -> BTreeMap<u32, TenantReport> {
        let mut out: BTreeMap<u32, TenantReport> = BTreeMap::new();
        for q in &self.queries {
            let t = out.entry(q.tenant).or_default();
            t.queries += 1;
            t.total_admission_wait += q.admission_wait();
            t.total_latency += q.latency();
            t.inference += q.inference;
        }
        for w in &self.waves {
            if let Some(tenant) = w.tenant {
                let t = out.entry(tenant).or_default();
                t.admissions += 1;
                t.stats.merge(&w.stats);
            }
        }
        out
    }

    /// The breakdown for one tenant; a tenant that issued no queries gets
    /// the all-zero (NaN-free) report rather than a panic or a missing key.
    pub fn tenant_report(&self, tenant: u32) -> TenantReport {
        self.by_tenant().remove(&tenant).unwrap_or_default()
    }

    /// The whole serve call as a quality slice: the aggregate buffer
    /// counters plus the summed admission waits, in the same shape the
    /// streaming [`QualityTracker`] windows use — so report-level and live
    /// telemetry compute hit rate / precision / recall identically. The
    /// per-tenant slices ([`TenantReport::quality`]) partition this total
    /// in continuous mode (proptest-pinned).
    pub fn quality(&self) -> QualityTotals {
        QualityTotals {
            outcomes: self.queries.len() as u64,
            hits: self.stats.hits,
            os_copies: self.stats.os_copies,
            disk_reads: self.stats.disk_reads,
            prefetch_issued: self.stats.prefetch_issued,
            prefetch_useful: self.stats.prefetch_useful,
            prefetch_wasted: self.stats.prefetch_wasted,
            wait_us: self
                .queries
                .iter()
                .map(|q| q.admission_wait().as_micros())
                .sum(),
        }
    }
}

/// One tenant's slice of a [`ServeReport`] (see [`ServeReport::by_tenant`]).
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Queries this tenant completed.
    pub queries: usize,
    /// Admission events attributed to this tenant (continuous mode only).
    pub admissions: usize,
    /// Summed time its queries spent queued before admission.
    pub total_admission_wait: SimDuration,
    /// Summed arrival-to-completion latency of its queries.
    pub total_latency: SimDuration,
    /// Summed inference latency charged to its queries.
    pub inference: SimDuration,
    /// Buffer/prefetch counters of its admission intervals (continuous mode
    /// only; zero in wave mode).
    pub stats: BufferStats,
}

impl Default for TenantReport {
    fn default() -> Self {
        TenantReport {
            queries: 0,
            admissions: 0,
            total_admission_wait: SimDuration::ZERO,
            total_latency: SimDuration::ZERO,
            inference: SimDuration::ZERO,
            stats: BufferStats::default(),
        }
    }
}

impl TenantReport {
    /// Mean queueing delay; zero (not NaN) for a zero-query tenant.
    pub fn mean_admission_wait(&self) -> SimDuration {
        if self.queries == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_micros(self.total_admission_wait.as_micros() / self.queries as u64)
    }

    /// Mean end-to-end latency; zero (not NaN) for a zero-query tenant.
    pub fn mean_latency(&self) -> SimDuration {
        if self.queries == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_micros(self.total_latency.as_micros() / self.queries as u64)
    }

    /// This tenant's quality slice, NaN-free for a zero-query tenant.
    pub fn quality(&self) -> QualityTotals {
        QualityTotals {
            outcomes: self.queries as u64,
            hits: self.stats.hits,
            os_copies: self.stats.os_copies,
            disk_reads: self.stats.disk_reads,
            prefetch_issued: self.stats.prefetch_issued,
            prefetch_useful: self.stats.prefetch_useful,
            prefetch_wasted: self.stats.prefetch_wasted,
            wait_us: self.total_admission_wait.as_micros(),
        }
    }

    /// One-line JSON fragment for the front-end's tenant-scoped `/stats`.
    pub fn to_json(&self) -> String {
        let q = self.quality();
        format!(
            "{{\"queries\":{},\"admissions\":{},\"mean_admission_wait_us\":{},\
             \"mean_latency_us\":{},\"inference_us\":{},\"prefetch_issued\":{},\
             \"hit_rate_e6\":{},\"prefetch_precision_e6\":{},\"prefetch_recall_e6\":{}}}",
            self.queries,
            self.admissions,
            self.mean_admission_wait().as_micros(),
            self.mean_latency().as_micros(),
            self.inference.as_micros(),
            self.stats.prefetch_issued,
            pythia_obs::quality::rate_e6(q.hit_rate()),
            pythia_obs::quality::rate_e6(q.prefetch_precision()),
            pythia_obs::quality::rate_e6(q.prefetch_recall()),
        )
    }
}

/// A computed prediction for a queued query: its ordered prefetch list and
/// the inference latency it was charged.
#[derive(Debug, Clone)]
struct PredEntry {
    list: Vec<PageId>,
    charge: SimDuration,
}

/// Request `i`'s full predicted prefetch list (empty before inference, or
/// without a predictor) — what the overlap policies rank on.
fn predicted_pages(preds: &[Option<PredEntry>], i: usize) -> &[PageId] {
    preds[i].as_ref().map_or(&[], |e| &e.list)
}

/// Where the serving loop's model comes from.
enum PredictorSource<'d> {
    /// No model: the DFLT baseline, every query replays unassisted.
    None,
    /// A model fixed for the server's lifetime (borrowed from the caller).
    Fixed(&'d TrainedWorkload),
    /// A tenant fleet in the hot-swap registry: the current model is
    /// re-resolved at every batched inference, so a
    /// [`TenantFleet::publish`] lands between admissions and the batch in
    /// flight keeps its coherent snapshot.
    Registry(Arc<TenantFleet>),
}

/// Observer invoked at each admission event with its ordinal (the index the
/// event gets in [`ServeReport::waves`]), *before* that event's batched
/// inference runs.
type AdmissionHook<'d> = Box<dyn FnMut(usize) + 'd>;

/// The admission-controlled serving loop over one warm replay stack.
pub struct PrefetchServer<'d> {
    db: &'d Database,
    rt: Runtime,
    cfg: ServerConfig,
    predictor: PredictorSource<'d>,
    admission_hook: Option<AdmissionHook<'d>>,
    /// Streaming quality telemetry, fed one outcome per closed admission
    /// interval in continuous mode (`None` disables the whole path — one
    /// branch per interval). Shared so a frontend health route can read it
    /// while serving runs.
    quality: Option<Arc<Mutex<QualityTracker>>>,
    /// End-to-end latency above which a completion counts as a slow request:
    /// it bumps `server.slow_requests` and fires the flight recorder's
    /// `slow.request` postmortem trigger. `None` (the default) disables the
    /// check entirely.
    slow_threshold: Option<SimDuration>,
}

impl<'d> PrefetchServer<'d> {
    /// Build a server over a cold stack, with no predictor (the DFLT
    /// baseline: every query replays without prefetching).
    pub fn new(db: &'d Database, run_cfg: &RunConfig, cfg: ServerConfig) -> Self {
        PrefetchServer {
            db,
            rt: Runtime::new(run_cfg, db.file_lengths()),
            cfg,
            predictor: PredictorSource::None,
            admission_hook: None,
            quality: None,
            slow_threshold: None,
        }
    }

    /// Set (or clear) the slow-request threshold: completions whose
    /// end-to-end latency reaches it bump the `server.slow_requests`
    /// counter and trigger a flight-recorder dump (`slow.request`). A
    /// setter rather than a [`ServerConfig`] field so existing full-literal
    /// config construction sites stay valid.
    pub fn set_slow_threshold(&mut self, threshold: Option<SimDuration>) {
        self.slow_threshold = threshold;
    }

    /// Attach a trained Pythia instance: admitted queries get capped prefetch
    /// plans, with inference batched per admission wave.
    pub fn with_predictor(mut self, tw: &'d TrainedWorkload) -> Self {
        self.predictor = PredictorSource::Fixed(tw);
        self
    }

    /// Attach a hot-swappable tenant fleet: each batched inference resolves
    /// the fleet's current model, so [`TenantFleet::publish`] takes effect
    /// at the next admission without restarting the server. An empty fleet
    /// behaves like no predictor.
    pub fn with_registry(mut self, fleet: Arc<TenantFleet>) -> Self {
        self.predictor = PredictorSource::Registry(fleet);
        self
    }

    /// Install an observer called at each admission event with its ordinal,
    /// before the event's batched inference. Tests use this to publish a
    /// model swap at a deterministic point mid-stream.
    pub fn set_admission_hook(&mut self, hook: impl FnMut(usize) + 'd) {
        self.admission_hook = Some(Box::new(hook));
    }

    /// Attach a streaming quality tracker. In continuous mode every closed
    /// admission interval feeds it one [`QualityOutcome`] (the interval's
    /// `BufferStats::diff` snapshot plus the query's admission wait),
    /// attributed to the admitted query's tenant and template span. Wave
    /// mode stays unattributed (a barrier wave mixes tenants) and feeds
    /// nothing. The tracker only *reads* serving state, so enabling it
    /// never perturbs virtual time or admission order.
    pub fn with_quality(mut self, quality: Arc<Mutex<QualityTracker>>) -> Self {
        self.quality = Some(quality);
        self
    }

    /// The attached quality tracker, if any.
    pub fn quality(&self) -> Option<&Arc<Mutex<QualityTracker>>> {
        self.quality.as_ref()
    }

    /// Feed one closed admission interval to the quality tracker (no-op
    /// without one, or for unattributed wave-mode intervals).
    fn feed_quality(
        &mut self,
        tenant: Option<u32>,
        span: &'static str,
        wait_us: u64,
        stats: &BufferStats,
        now_us: u64,
    ) {
        let Some(q) = self.quality.clone() else {
            return;
        };
        let Some(tenant) = tenant else {
            return;
        };
        let outcome = QualityOutcome {
            hits: stats.hits,
            os_copies: stats.os_copies,
            disk_reads: stats.disk_reads,
            prefetch_issued: stats.prefetch_issued,
            prefetch_useful: stats.prefetch_useful,
            prefetch_wasted: stats.prefetch_wasted,
            wait_us,
        };
        let mut tracker = match q.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        tracker.observe(tenant, span, outcome, now_us, self.rt.recorder_mut());
    }

    /// The underlying replay stack (clock and cumulative counters).
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }

    /// Install a trace/metrics recorder on the serving stack.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.rt.set_recorder(recorder);
    }

    /// The stack's recorder (disabled by default).
    pub fn recorder(&self) -> &Recorder {
        self.rt.recorder()
    }

    /// Mutable access to the stack's recorder (e.g. to absorb wall-clock NN
    /// task spans after serving).
    pub fn recorder_mut(&mut self) -> &mut Recorder {
        self.rt.recorder_mut()
    }

    /// Remove and return the recorder, leaving a disabled one behind.
    pub fn take_recorder(&mut self) -> Recorder {
        self.rt.take_recorder()
    }

    /// Cold restart of the underlying stack.
    pub fn reset(&mut self) {
        self.rt.reset();
    }

    /// Serve a stream of requests to completion and report per-query,
    /// per-admission and aggregate metrics. The stack stays warm across
    /// calls. Dispatches on [`ServerConfig::admission`].
    ///
    /// Requests with `request == 0` get the deterministic per-call ordinal
    /// `i + 1` as their trace id — replayed workloads thus produce
    /// byte-stable traces, while a front-end that minted wall-ordered ids
    /// keeps them.
    pub fn serve(&mut self, requests: &[ServerRequest<'_>]) -> ServeReport {
        let reqs: Vec<ServerRequest<'_>> = requests
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let mut r = *r;
                if r.request == 0 {
                    r.request = i as u64 + 1;
                }
                r
            })
            .collect();
        let report = match self.cfg.admission {
            AdmissionMode::Wave => self.serve_wave(&reqs),
            AdmissionMode::Continuous => self.serve_continuous(&reqs),
        };
        self.publish_tenant_wait_percentiles(&report);
        report
    }

    /// Per-tenant admission-wait p50/p90/p99 as labeled gauges
    /// (`server.admission_wait_us{quantile,tenant}`), refreshed at the end
    /// of every serve call — the per-tenant companions of the global
    /// `server.admission_wait_us` histogram.
    fn publish_tenant_wait_percentiles(&mut self, report: &ServeReport) {
        if !self.rt.recorder().is_enabled() || report.queries.is_empty() {
            return;
        }
        let mut hists: BTreeMap<u32, pythia_obs::hist::Histogram> = BTreeMap::new();
        for q in &report.queries {
            hists
                .entry(q.tenant)
                .or_default()
                .record(q.admission_wait().as_micros());
        }
        let rec = self.rt.recorder_mut();
        for (tenant, h) in &hists {
            let t = tenant.to_string();
            for (q, v) in [
                ("0.5", h.p50()),
                ("0.9", h.quantile(0.90)),
                ("0.99", h.p99()),
            ] {
                rec.set_labeled(
                    "server.admission_wait_us",
                    &[("quantile", q), ("tenant", t.as_str())],
                    v,
                );
            }
        }
        self.rt.recorder().publish();
    }

    /// Emit the per-request span tree for one completed query on its own
    /// `request-<id>` track — `request.queue` (arrival → admitted),
    /// `request.admission` (admitted → replay start), `request.infer` (the
    /// charged inference share) and `request.replay` — plus a Chrome-trace
    /// flow arrow from the request lane into `link` (the serving-loop track
    /// that carried the replay), so Perfetto connects the breakdown to the
    /// shared timeline. Mirrors into the always-on flight ring even when
    /// trace export is off; never touches virtual time. Also applies the
    /// slow-request threshold.
    fn emit_request_spans(&mut self, o: &QueryOutcome, link: Track) {
        let rid = o.request;
        if rid == 0 {
            return;
        }
        let rec = self.rt.recorder_mut();
        let track = pythia_obs::request::request_track(rid);
        rec.declare_track(track, || format!("request-{rid}"));
        let (arrival, admitted) = (o.arrival.as_micros(), o.admitted.as_micros());
        let (start, end) = (o.start.as_micros(), o.end.as_micros());
        rec.span(
            track,
            "request",
            "request.queue",
            arrival,
            admitted,
            &[("request", rid), ("tenant", o.tenant as u64)],
        );
        rec.span(
            track,
            "request",
            "request.admission",
            admitted,
            start,
            &[("request", rid)],
        );
        rec.span(
            track,
            "request",
            "request.infer",
            admitted,
            admitted + o.inference.as_micros(),
            &[("request", rid), ("charge_us", o.inference.as_micros())],
        );
        rec.span(
            track,
            "request",
            "request.replay",
            start,
            end,
            &[
                ("request", rid),
                ("latency_us", end.saturating_sub(arrival)),
            ],
        );
        rec.flow(track, "request", "request.flow", start, rid, FlowDir::Start);
        rec.flow(link, "request", "request.flow", end, rid, FlowDir::Finish);
        if let Some(th) = self.slow_threshold {
            if o.latency() >= th {
                let rec = self.rt.recorder_mut();
                rec.add("server.slow_requests", 1);
                rec.trigger_flight("slow.request", end);
            }
        }
    }

    /// Declare (idempotently) and return the serving-loop trace track.
    fn server_track(&mut self) -> Track {
        let track = Track::virt(tid::SERVER);
        self.rt
            .recorder_mut()
            .declare_track(track, || "serving-loop".to_owned());
        track
    }

    /// One batched inference at virtual instant `at` over every queued query
    /// lacking a prediction — the whole queue, not just the next admission,
    /// so the overlap policy can schedule over everything it has seen and
    /// later admissions reuse cached predictions. Returns the batch size.
    fn batch_infer_missing(
        &mut self,
        requests: &[ServerRequest<'_>],
        queue: &[usize],
        preds: &mut [Option<PredEntry>],
        at: SimTime,
        server_track: Track,
    ) -> usize {
        // Resolve the model once per batch: a registry swap published while
        // this batch runs is picked up by the *next* admission; this batch
        // keeps the coherent snapshot it resolved (the Arc keeps the old
        // weights alive even if the publish drops the registry's reference).
        let snapshot;
        let tw: &TrainedWorkload = match &self.predictor {
            PredictorSource::None => return 0,
            PredictorSource::Fixed(tw) => tw,
            PredictorSource::Registry(fleet) => match fleet.any() {
                Some(m) => {
                    snapshot = m;
                    &snapshot.workload
                }
                None => return 0,
            },
        };
        let missing: Vec<usize> = queue
            .iter()
            .copied()
            .filter(|&i| preds[i].is_none())
            .collect();
        if missing.is_empty() {
            return 0;
        }
        let plans: Vec<&PlanNode> = missing.iter().map(|&i| requests[i].plan).collect();
        // Attribute the pool's wall-clock task spans to the batch head's
        // request id for the duration of the forward pass (the batch
        // amortizes over several requests; the head stands for the batch).
        let head = missing.first().map(|&i| requests[i].request).unwrap_or(0);
        pythia_obs::wall::set_request(head);
        let (lists, measured) = engage(self.db, tw, &plans);
        pythia_obs::wall::set_request(0);
        let charge = match self.cfg.charge {
            InferenceCharge::Fixed(d) => d,
            InferenceCharge::Measured => measured,
        };
        let inferred = missing.len();
        for (&i, list) in missing.iter().zip(lists) {
            preds[i] = Some(PredEntry { list, charge });
        }
        let rec = self.rt.recorder_mut();
        rec.add("server.inferred", inferred as u64);
        // The batch's virtual-time cost is the amortized per-query charge
        // (each covered query pays it before replay).
        rec.span(
            server_track,
            "server",
            "server.infer_batch",
            at.as_micros(),
            (at + charge).as_micros(),
            &[
                ("batch", inferred as u64),
                ("charge_us", charge.as_micros()),
                ("request", head),
            ],
        );
        inferred
    }

    /// Build the replay run for request `i`: capped prefetch plan plus the
    /// inference latency its prediction was charged.
    fn build_run<'q>(
        req: &ServerRequest<'q>,
        pred: &Option<PredEntry>,
        budget: usize,
    ) -> QueryRun<'q> {
        // Limited prefetching (§5.1): only the budgeted prefix is issued.
        let (prefetch, inference) = match pred {
            Some(e) if !e.list.is_empty() => {
                (Some(e.list[..e.list.len().min(budget)].to_vec()), e.charge)
            }
            Some(e) => (None, e.charge),
            None => (None, SimDuration::ZERO),
        };
        QueryRun {
            trace: req.trace,
            prefetch,
            arrival: SimDuration::ZERO,
            inference_latency: inference,
            span_name: req.span_name,
        }
    }

    /// Barrier-wave admission (see the module doc).
    fn serve_wave(&mut self, requests: &[ServerRequest<'_>]) -> ServeReport {
        let base = self.rt.now();
        let start_stats = self.rt.stats();
        let n = requests.len();
        let abs: Vec<SimTime> = requests.iter().map(|r| base + r.arrival).collect();
        // Arrival order, stable by request index.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (abs[i], i));

        let budget = self
            .cfg
            .prefetch_budget
            .unwrap_or(self.rt.pool_frames() * 3 / 4);
        let mut preds: Vec<Option<PredEntry>> = vec![None; n];
        let mut outcomes: Vec<Option<QueryOutcome>> = vec![None; n];
        let mut waves: Vec<WaveStats> = Vec::new();
        let mut queue: Vec<usize> = Vec::new();
        let mut next = 0usize;
        let server_track = self.server_track();

        while next < n || !queue.is_empty() {
            // Pull in everything that has arrived by the current clock.
            while next < n && abs[order[next]] <= self.rt.now() {
                let i = order[next];
                let rec = self.rt.recorder_mut();
                rec.add("server.arrivals", 1);
                rec.instant(
                    server_track,
                    "server",
                    "server.arrive",
                    abs[i].as_micros(),
                    &[("query", i as u64)],
                );
                queue.push(i);
                next += 1;
            }
            if queue.is_empty() {
                // Idle until the next arrival.
                self.rt.advance_to(abs[order[next]]);
                continue;
            }
            let admitted_at = self.rt.now();
            let queue_depth = queue.len();
            if let Some(hook) = self.admission_hook.as_mut() {
                hook(waves.len());
            }
            let inferred =
                self.batch_infer_missing(requests, &queue, &mut preds, admitted_at, server_track);

            // Select this wave's members: walk the queue in the policy's
            // preferred order, capping members per tenant at the quota
            // (`None` admits freely — the original single-tenant path).
            let take = self.cfg.concurrency.max(1).min(queue.len());
            let quota = self.cfg.tenant_quota.map(|q| q.max(1));
            let prefer: Vec<usize> = match self.cfg.policy {
                QueuePolicy::Fifo => (0..queue.len()).collect(),
                QueuePolicy::Overlap => {
                    let sets: Vec<&[PageId]> =
                        queue.iter().map(|&i| predicted_pages(&preds, i)).collect();
                    schedule_by_overlap(&sets)
                }
            };
            let mut members: Vec<usize> = Vec::new();
            let mut per_tenant: HashMap<u32, usize> = HashMap::new();
            for p in prefer {
                if members.len() == take {
                    break;
                }
                let i = queue[p];
                let count = per_tenant.entry(requests[i].tenant).or_insert(0);
                if quota.is_none_or(|q| *count < q) {
                    *count += 1;
                    members.push(i);
                }
            }
            queue.retain(|i| !members.contains(i));

            // Dispatch the wave into concurrent replay; new arrivals wait for
            // the wave to drain.
            let runs: Vec<QueryRun<'_>> = members
                .iter()
                .map(|&i| Self::build_run(&requests[i], &preds[i], budget))
                .collect();
            if self.rt.recorder().is_enabled() {
                let rec = self.rt.recorder_mut();
                rec.add("server.admitted", members.len() as u64);
                for &i in &members {
                    rec.instant(
                        server_track,
                        "server",
                        "server.admit",
                        admitted_at.as_micros(),
                        &[("query", i as u64), ("request", requests[i].request)],
                    );
                    rec.observe(
                        "server.admission_wait_us",
                        admitted_at.since(abs[i]).as_micros(),
                    );
                }
            }
            let before = self.rt.stats();
            let res = self.rt.run(&runs);
            let wave_idx = waves.len();
            let mut wave_inference = SimDuration::ZERO;
            for (k, &i) in members.iter().enumerate() {
                let t = res.timings[k];
                wave_inference += runs[k].inference_latency;
                let o = QueryOutcome {
                    arrival: abs[i],
                    admitted: admitted_at,
                    start: t.start,
                    end: t.end,
                    wave: wave_idx,
                    inference: runs[k].inference_latency,
                    tenant: requests[i].tenant,
                    request: requests[i].request,
                };
                outcomes[i] = Some(o);
                self.emit_request_spans(&o, server_track);
            }
            let wave_stats = res.stats.diff(&before);
            let wave_end = self.rt.now();
            let rec = self.rt.recorder_mut();
            rec.add("server.waves", 1);
            rec.span(
                server_track,
                "server",
                "server.wave",
                admitted_at.as_micros(),
                wave_end.as_micros(),
                &[
                    ("wave", wave_idx as u64),
                    ("occupancy", members.len() as u64),
                    ("queue_depth", queue_depth as u64),
                    ("inferred", inferred as u64),
                ],
            );
            waves.push(WaveStats {
                admitted_at,
                occupancy: members.len(),
                queue_depth,
                inferred,
                inference: wave_inference,
                stats: wave_stats,
                tenant: None,
            });
            // Refresh the live metrics endpoint between waves — the only
            // point where the counters are consistent mid-serve.
            self.rt.recorder().publish();
        }

        let queries = outcomes
            .into_iter()
            .map(|o| o.expect("every request was dispatched"))
            .collect();
        self.rt.recorder().publish();
        ServeReport {
            queries,
            waves,
            stats: self.rt.stats().diff(&start_stats),
        }
    }

    /// Admit-on-completion (see the module doc): arrivals, admissions and
    /// replay events are processed in global virtual-time order over one
    /// incremental [`ReplaySession`]. Same-instant ties go arrival-first
    /// (the admission decision then sees the fresh arrival in the queue,
    /// matching what wave mode's pull-then-admit does at the same instant),
    /// then admission-before-step (injecting at `t <= next_event_time()` is
    /// the session's documented causal contract).
    ///
    /// Slot capacity is tracked explicitly as the virtual instants the
    /// `concurrency` slots become free — an admission consumes the earliest
    /// free instant `f` and is dispatched at `max(f, earliest queued
    /// arrival)`, never at a bare arrival instant. The distinction matters
    /// because the session steps queries in event-*start* order: a
    /// completion whose final event straddles an arrival (say the event runs
    /// 100..2100us and the arrival lands at 150us) is discovered *before*
    /// the arrival is processed, so `sess.live()` alone would claim a free
    /// slot at 150us even though the slot is occupied until 2100us in
    /// virtual time. Admitting there would overlap the straddling query,
    /// violating the concurrency cap and the C=1/FIFO/Fixed bit-identity to
    /// serial [`Runtime::run`] replay.
    fn serve_continuous(&mut self, requests: &[ServerRequest<'_>]) -> ServeReport {
        /// Admission bookkeeping for one in-flight query.
        struct AdmitInfo {
            at: SimTime,
            event: usize,
            inference: SimDuration,
        }

        let base = self.rt.now();
        let start_stats = self.rt.stats();
        let n = requests.len();
        let abs: Vec<SimTime> = requests.iter().map(|r| base + r.arrival).collect();
        // Arrival order, stable by request index.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (abs[i], i));

        let budget = self
            .cfg
            .prefetch_budget
            .unwrap_or(self.rt.pool_frames() * 3 / 4);
        let cap = self.cfg.concurrency.max(1);
        let mut preds: Vec<Option<PredEntry>> = vec![None; n];
        let mut outcomes: Vec<Option<QueryOutcome>> = vec![None; n];
        let mut admits: Vec<Option<AdmitInfo>> = (0..n).map(|_| None).collect();
        let mut waves: Vec<WaveStats> = Vec::new();
        // Parallel to `waves`: the admitted query's replay span (its
        // template identity) and admission wait — what the quality tracker
        // attributes the closed interval to.
        let mut wave_meta: Vec<(&'static str, u64)> = Vec::new();
        // Pool-counter snapshot at the latest admission event: each event's
        // `stats` covers the interval up to the next event, so the entries
        // partition the aggregate.
        let mut last_stats = start_stats;
        let mut queue: Vec<usize> = Vec::new();
        let mut next = 0usize;
        // The most recent admission — the overlap policy chains on its
        // predicted pages.
        let mut last_admitted: Option<usize> = None;
        let server_track = self.server_track();

        let mut sess = ReplaySession::new();
        // Session slot (injection order) → request index.
        let mut slot_req: Vec<usize> = Vec::new();

        // Virtual instants at which the currently-free slots became free.
        // Admissions consume the earliest instant, completions push their
        // end. Invariant between events: free.len() + sess.live() == cap.
        let mut free: Vec<SimTime> = vec![base; cap];

        // Per-tenant admission tokens, same shape as `free`: a tenant's
        // vector holds the instants its quota slots freed, starting at
        // `quota` tokens (all "free since serve start"). Empty vector means
        // the tenant is at its in-flight cap. `None` quota skips all tenant
        // accounting — the single-tenant path is bit-identical to before.
        let quota = self.cfg.tenant_quota.map(|q| q.max(1));
        let mut tenant_tokens: HashMap<u32, Vec<SimTime>> = HashMap::new();
        if let Some(q) = quota {
            for r in requests {
                tenant_tokens
                    .entry(r.tenant)
                    .or_insert_with(|| vec![base; q]);
            }
        }

        // Same-instant event priority: arrivals first (so the admission
        // decision sees them queued), then admissions, then session steps.
        const ARRIVE: u8 = 0;
        const ADMIT: u8 = 1;
        const STEP: u8 = 2;

        loop {
            let next_arrival = if next < n {
                Some(abs[order[next]])
            } else {
                None
            };
            // Queued arrivals all precede the admission instant (events are
            // processed in nondecreasing virtual time), so the earliest the
            // scheduler can dispatch is when the queue head has arrived AND
            // a slot is free — AND, under a tenant quota, the query's tenant
            // holds a token. A quota-blocked head never blocks other
            // tenants: the candidate scan covers the whole queue, earliest
            // feasible instant wins (queue order breaks ties).
            let admit_at = if queue.is_empty() {
                None
            } else if let Some(&fmin) = free.iter().min() {
                match quota {
                    None => Some(fmin.max(abs[queue[0]])),
                    Some(_) => {
                        let mut best: Option<SimTime> = None;
                        for &i in &queue {
                            let Some(&tmin) = tenant_tokens[&requests[i].tenant].iter().min()
                            else {
                                continue;
                            };
                            let at = fmin.max(abs[i]).max(tmin);
                            if best.is_none_or(|b| at < b) {
                                best = Some(at);
                            }
                        }
                        best
                    }
                }
            } else {
                None
            };
            let step_at = sess.next_event_time();

            let mut event: Option<(SimTime, u8)> = None;
            for cand in [
                next_arrival.map(|t| (t, ARRIVE)),
                admit_at.map(|t| (t, ADMIT)),
                step_at.map(|t| (t, STEP)),
            ]
            .into_iter()
            .flatten()
            {
                if event.is_none_or(|best| cand < best) {
                    event = Some(cand);
                }
            }
            let Some((t, kind)) = event else { break };

            // Each event yields at most one completion: `(request, timing)`.
            let completed = match kind {
                ARRIVE => {
                    let i = order[next];
                    next += 1;
                    let rec = self.rt.recorder_mut();
                    rec.add("server.arrivals", 1);
                    rec.instant(
                        server_track,
                        "server",
                        "server.arrive",
                        abs[i].as_micros(),
                        &[("query", i as u64)],
                    );
                    queue.push(i);
                    None
                }
                ADMIT => {
                    // Consume the earliest-freed slot.
                    let slot_pos = free
                        .iter()
                        .enumerate()
                        .min_by_key(|&(_, &f)| f)
                        .map(|(k, _)| k)
                        .expect("admission scheduled with a free slot");
                    free.swap_remove(slot_pos);
                    if let Some(hook) = self.admission_hook.as_mut() {
                        hook(waves.len());
                    }
                    let inferred =
                        self.batch_infer_missing(requests, &queue, &mut preds, t, server_track);
                    // Queue positions admissible at `t`: all of them without
                    // a quota; with one, those whose tenant holds a token
                    // freed by now.
                    let feasible: Vec<usize> = match quota {
                        None => (0..queue.len()).collect(),
                        Some(_) => (0..queue.len())
                            .filter(|&k| {
                                tenant_tokens[&requests[queue[k]].tenant]
                                    .iter()
                                    .min()
                                    .is_some_and(|&f| f <= t)
                            })
                            .collect(),
                    };
                    let (pick, overlap) = match self.cfg.policy {
                        QueuePolicy::Fifo => (
                            *feasible
                                .first()
                                .expect("admission scheduled with a feasible query"),
                            None,
                        ),
                        QueuePolicy::Overlap => {
                            let prev =
                                last_admitted.map_or(&[][..], |i| predicted_pages(&preds, i));
                            let sets: Vec<&[PageId]> = feasible
                                .iter()
                                .map(|&k| predicted_pages(&preds, queue[k]))
                                .collect();
                            let (k, score) = pick_next_by_overlap_scored(prev, &sets);
                            (feasible[k], Some(score))
                        }
                    };
                    let queue_depth = queue.len();
                    let i = queue.remove(pick);
                    if quota.is_some() {
                        // Consume the tenant's earliest-freed token,
                        // mirroring the slot consumption above.
                        let tokens = tenant_tokens
                            .get_mut(&requests[i].tenant)
                            .expect("every tenant holds tokens under a quota");
                        let pos = tokens
                            .iter()
                            .enumerate()
                            .min_by_key(|&(_, &f)| f)
                            .map(|(k, _)| k)
                            .expect("admitted tenant holds a token");
                        tokens.swap_remove(pos);
                    }
                    last_admitted = Some(i);
                    let run = Self::build_run(&requests[i], &preds[i], budget);
                    let inference = run.inference_latency;
                    let event_idx = waves.len();
                    if self.rt.recorder().is_enabled() {
                        let rec = self.rt.recorder_mut();
                        rec.add("server.admitted", 1);
                        // The overlap policy's winning Jaccard score rides
                        // along (e6 fixed-point) so postmortem dumps show how
                        // good each pick was; FIFO admits omit the arg.
                        match overlap {
                            Some(s) => rec.instant(
                                server_track,
                                "server",
                                "server.admit",
                                t.as_micros(),
                                &[
                                    ("query", i as u64),
                                    ("request", requests[i].request),
                                    ("overlap_e6", (s * 1e6) as u64),
                                ],
                            ),
                            None => rec.instant(
                                server_track,
                                "server",
                                "server.admit",
                                t.as_micros(),
                                &[("query", i as u64), ("request", requests[i].request)],
                            ),
                        }
                        rec.observe("server.admission_wait_us", t.since(abs[i]).as_micros());
                    }
                    let occupancy = cap - free.len();
                    let (slot, done) = sess.inject(&mut self.rt, run, t);
                    debug_assert_eq!(slot, slot_req.len());
                    slot_req.push(i);
                    admits[i] = Some(AdmitInfo {
                        at: t,
                        event: event_idx,
                        inference,
                    });
                    // Close the previous admission's stats interval and open
                    // this one's.
                    let now_stats = self.rt.stats();
                    if let Some(prev) = waves.last_mut() {
                        prev.stats = now_stats.diff(&last_stats);
                    }
                    last_stats = now_stats;
                    if self.quality.is_some() {
                        if let Some(prev) = waves.last() {
                            let (tenant, stats) = (prev.tenant, prev.stats);
                            let (span, wait) = wave_meta[waves.len() - 1];
                            self.feed_quality(tenant, span, wait, &stats, t.as_micros());
                        }
                    }
                    waves.push(WaveStats {
                        admitted_at: t,
                        occupancy,
                        queue_depth,
                        inferred,
                        inference,
                        stats: BufferStats::default(),
                        tenant: Some(requests[i].tenant),
                    });
                    wave_meta.push((requests[i].span_name, t.since(abs[i]).as_micros()));
                    // Empty trace: completed — and freed its slot — the
                    // instant it was admitted.
                    done.map(|c| (i, c.timing))
                }
                _ => sess
                    .step(&mut self.rt)
                    .map(|c| (slot_req[c.slot], c.timing)),
            };
            if let Some((i, timing)) = completed {
                let info = admits[i].as_ref().expect("completed query was admitted");
                let o = QueryOutcome {
                    arrival: abs[i],
                    admitted: info.at,
                    start: timing.start,
                    end: timing.end,
                    wave: info.event,
                    inference: info.inference,
                    tenant: requests[i].tenant,
                    request: requests[i].request,
                };
                outcomes[i] = Some(o);
                let rec = self.rt.recorder_mut();
                rec.add("server.completions", 1);
                rec.instant(
                    server_track,
                    "server",
                    "server.complete",
                    o.end.as_micros(),
                    &[("query", i as u64), ("request", o.request)],
                );
                self.emit_request_spans(&o, server_track);
                free.push(o.end);
                if quota.is_some() {
                    tenant_tokens
                        .get_mut(&o.tenant)
                        .expect("token consumed at admission")
                        .push(o.end);
                }
                // Counters are consistent at completions — refresh the live
                // metrics endpoint (wave mode does so per wave).
                self.rt.recorder().publish();
            }
            debug_assert_eq!(free.len() + sess.live(), cap, "slot accounting");
        }

        debug_assert!(queue.is_empty(), "drained queue at exit");
        debug_assert_eq!(free.len(), cap, "all slots free at exit");
        let _ = sess.finish(&mut self.rt);
        // The tail interval (after the last admission) absorbs the remaining
        // counters, end-of-session prefetch-waste accounting included.
        let final_stats = self.rt.stats();
        if let Some(last) = waves.last_mut() {
            last.stats = final_stats.diff(&last_stats);
        }
        if self.quality.is_some() {
            if let Some(last) = waves.last() {
                let (tenant, stats) = (last.tenant, last.stats);
                let (span, wait) = wave_meta[waves.len() - 1];
                let now_us = self.rt.now().as_micros();
                self.feed_quality(tenant, span, wait, &stats, now_us);
            }
        }
        let queries = outcomes
            .into_iter()
            .map(|o| o.expect("every request was dispatched"))
            .collect();
        self.rt.recorder().publish();
        ServeReport {
            queries,
            waves,
            stats: final_stats.diff(&start_stats),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PythiaConfig;
    use crate::predictor::train_workload;
    use pythia_db::exec::execute;
    use pythia_db::expr::Pred;
    use pythia_db::trace::{AccessKind, TraceEvent};
    use pythia_db::types::Schema;
    use pythia_sim::FileId;

    fn read_ev(p: u32) -> TraceEvent {
        TraceEvent::Read {
            obj: pythia_db::catalog::ObjectId(0),
            page: PageId::new(FileId(0), p),
            kind: AccessKind::HeapFetch,
        }
    }

    /// `n` random heap reads with CPU work between them.
    fn random_trace(n: u32) -> Trace {
        let mut events = Vec::new();
        for i in 0..n {
            events.push(read_ev((i * 37) % 10_000));
            events.push(TraceEvent::Cpu { units: 2 });
        }
        events.into_iter().collect()
    }

    fn run_cfg() -> RunConfig {
        RunConfig {
            pool_frames: 2048,
            os_cache_pages: 16384,
            ..Default::default()
        }
    }

    /// A database whose file 0 is big enough for the synthetic traces, plus a
    /// trivial plan (the predictor-less tests never run inference, but
    /// [`ServerRequest`] still wants a plan).
    fn dummy_db_and_plan() -> (Database, PlanNode) {
        let mut db = Database::new();
        let t = db.create_table("t", Schema::ints(&["a"]));
        for i in 0..60_000i64 {
            db.insert(t, Database::row(&[i]));
        }
        let plan = PlanNode::SeqScan {
            table: t,
            pred: None,
        };
        (db, plan)
    }

    /// Wave-mode config with a zero fixed charge.
    fn fixed_cfg(concurrency: usize, policy: QueuePolicy) -> ServerConfig {
        ServerConfig {
            concurrency,
            admission: AdmissionMode::Wave,
            policy,
            charge: InferenceCharge::Fixed(SimDuration::ZERO),
            prefetch_budget: None,
            tenant_quota: None,
        }
    }

    /// Continuous-mode config with a zero fixed charge.
    fn cont_cfg(concurrency: usize, policy: QueuePolicy) -> ServerConfig {
        ServerConfig {
            admission: AdmissionMode::Continuous,
            ..fixed_cfg(concurrency, policy)
        }
    }

    #[test]
    fn empty_request_stream() {
        let (db, _) = dummy_db_and_plan();
        let mut srv = PrefetchServer::new(&db, &run_cfg(), ServerConfig::default());
        let rep = srv.serve(&[]);
        assert!(rep.queries.is_empty());
        assert!(rep.waves.is_empty());
        assert_eq!(rep.makespan(), SimDuration::ZERO);
        assert_eq!(rep.throughput_qps(), 0.0);
    }

    #[test]
    fn admission_respects_concurrency_limit() {
        let (db, plan) = dummy_db_and_plan();
        let t = random_trace(40);
        // Three simultaneous arrivals, then one far in the future.
        let late = SimDuration::from_secs(3600);
        let reqs: Vec<ServerRequest<'_>> = [
            SimDuration::ZERO,
            SimDuration::ZERO,
            SimDuration::ZERO,
            late,
        ]
        .iter()
        .map(|&arrival| ServerRequest::new(&plan, &t, arrival))
        .collect();

        let mut srv = PrefetchServer::new(&db, &run_cfg(), fixed_cfg(2, QueuePolicy::Fifo));
        let rep = srv.serve(&reqs);

        // Wave 0 admits two of the three simultaneous arrivals (queue depth
        // 3), wave 1 the leftover, wave 2 the late one after idling forward.
        assert_eq!(rep.waves.len(), 3);
        assert_eq!(rep.waves[0].occupancy, 2);
        assert_eq!(rep.waves[0].queue_depth, 3);
        assert_eq!(rep.waves[1].occupancy, 1);
        assert_eq!(rep.waves[2].occupancy, 1);
        assert!(rep.waves[2].admitted_at >= SimTime::ZERO + late);
        assert_eq!(rep.max_queue_depth(), 3);

        // FIFO: the third arrival waited for the first wave to drain.
        assert_eq!(rep.queries[2].wave, 1);
        assert!(rep.queries[2].admission_wait() > SimDuration::ZERO);
        // The late arrival never queued.
        assert_eq!(rep.queries[3].admission_wait(), SimDuration::ZERO);
        // Wave stats sum to the aggregate.
        let mut sum = BufferStats::default();
        for w in &rep.waves {
            sum.merge(&w.stats);
        }
        assert_eq!(sum, rep.stats);
    }

    #[test]
    fn c1_fifo_matches_serial_runtime_runs() {
        // The determinism contract the proptests generalize: concurrency 1 +
        // FIFO + fixed charge ≡ serial Runtime::run calls on one warm stack —
        // in BOTH admission modes.
        let (db, plan) = dummy_db_and_plan();
        let traces: Vec<Trace> = vec![random_trace(60), random_trace(25), random_trace(40)];
        let arrivals = [
            SimDuration::ZERO,
            SimDuration::from_micros(300),
            SimDuration::from_secs(30),
        ];
        let reqs: Vec<ServerRequest<'_>> = traces
            .iter()
            .zip(arrivals)
            .map(|(t, arrival)| ServerRequest::new(&plan, t, arrival))
            .collect();

        for cfg in [
            fixed_cfg(1, QueuePolicy::Fifo),
            cont_cfg(1, QueuePolicy::Fifo),
        ] {
            let mut srv = PrefetchServer::new(&db, &run_cfg(), cfg);
            let rep = srv.serve(&reqs);

            let mut rt = Runtime::new(&run_cfg(), db.file_lengths());
            for ((t, arrival), q) in traces.iter().zip(arrivals).zip(&rep.queries) {
                rt.advance_to(SimTime::ZERO + arrival);
                let res = rt.run(&[QueryRun::default_run(t)]);
                assert_eq!(q.start, res.timings[0].start, "{:?}", cfg.admission);
                assert_eq!(q.end, res.timings[0].end, "{:?}", cfg.admission);
            }
            assert_eq!(rep.stats, rt.stats(), "{:?}", cfg.admission);
            // Each query ran alone, in arrival order, back to back.
            assert_eq!(rep.waves.len(), 3);
            assert!(rep.queries[1].start >= rep.queries[0].end);
            assert!(rep.queries[2].start >= rep.queries[1].end);
        }
    }

    #[test]
    fn overlap_policy_without_predictions_degrades_to_fifo() {
        let (db, plan) = dummy_db_and_plan();
        let traces: Vec<Trace> = (0..4).map(|_| random_trace(30)).collect();
        let reqs: Vec<ServerRequest<'_>> = traces
            .iter()
            .map(|t| ServerRequest::new(&plan, t, SimDuration::ZERO))
            .collect();

        for (fifo_cfg, ovlp_cfg) in [
            (
                fixed_cfg(2, QueuePolicy::Fifo),
                fixed_cfg(2, QueuePolicy::Overlap),
            ),
            (
                cont_cfg(2, QueuePolicy::Fifo),
                cont_cfg(2, QueuePolicy::Overlap),
            ),
        ] {
            let mut fifo = PrefetchServer::new(&db, &run_cfg(), fifo_cfg);
            let mut ovlp = PrefetchServer::new(&db, &run_cfg(), ovlp_cfg);
            let a = fifo.serve(&reqs);
            let b = ovlp.serve(&reqs);
            assert_eq!(a.stats, b.stats, "{:?}", fifo_cfg.admission);
            for (qa, qb) in a.queries.iter().zip(&b.queries) {
                assert_eq!(qa.wave, qb.wave);
                assert_eq!(qa.start, qb.start);
                assert_eq!(qa.end, qb.end);
            }
        }
    }

    #[test]
    fn continuous_admits_on_completion_and_beats_waves_under_skew() {
        // One long query plus four short ones, all arriving together, two
        // slots. Wave mode barriers on the long query; continuous streams the
        // shorts through the freed slot while the long one is still running.
        let (db, plan) = dummy_db_and_plan();
        let long = random_trace(400);
        let shorts: Vec<Trace> = (0..4).map(|_| random_trace(30)).collect();
        let mut reqs = vec![ServerRequest::new(&plan, &long, SimDuration::ZERO)];
        reqs.extend(
            shorts
                .iter()
                .map(|t| ServerRequest::new(&plan, t, SimDuration::ZERO)),
        );

        let mut wave_srv = PrefetchServer::new(&db, &run_cfg(), fixed_cfg(2, QueuePolicy::Fifo));
        let mut cont_srv = PrefetchServer::new(&db, &run_cfg(), cont_cfg(2, QueuePolicy::Fifo));
        let wave = wave_srv.serve(&reqs);
        let cont = cont_srv.serve(&reqs);

        // Admit-on-completion: the third query is admitted the moment the
        // first short completes — long before the long query finishes. Wave
        // mode cannot admit it until the whole first wave drains.
        assert!(cont.queries[2].admitted < cont.queries[0].end);
        assert!(wave.queries[2].admitted >= wave.queries[0].end);
        // One admission event per query in continuous mode.
        assert_eq!(cont.waves.len(), reqs.len());
        assert!(cont.waves.iter().all(|w| (1..=2).contains(&w.occupancy)));
        // Work conservation shows up as makespan/throughput: the acceptance
        // bar "continuous ≥ wave throughput under skewed per-query costs".
        assert!(
            cont.makespan() < wave.makespan(),
            "continuous {} vs wave {}",
            cont.makespan(),
            wave.makespan()
        );
        assert!(cont.throughput_qps() > wave.throughput_qps());
        // Both modes serve every query exactly once, with consistent stats
        // partitions.
        for rep in [&wave, &cont] {
            let mut sum = BufferStats::default();
            for w in &rep.waves {
                sum.merge(&w.stats);
            }
            assert_eq!(sum, rep.stats);
        }
    }

    #[test]
    fn concurrency_zero_behaves_as_one() {
        // The documented clamp: "values below 1 behave as 1" — in both
        // admission modes, concurrency 0 must serve bit-identically to 1.
        let (db, plan) = dummy_db_and_plan();
        let traces: Vec<Trace> = vec![random_trace(40), random_trace(20), random_trace(30)];
        let reqs: Vec<ServerRequest<'_>> = traces
            .iter()
            .enumerate()
            .map(|(i, t)| ServerRequest::new(&plan, t, SimDuration::from_micros(i as u64 * 100)))
            .collect();

        for make in [fixed_cfg, cont_cfg] {
            let mut zero = PrefetchServer::new(&db, &run_cfg(), make(0, QueuePolicy::Fifo));
            let mut one = PrefetchServer::new(&db, &run_cfg(), make(1, QueuePolicy::Fifo));
            let a = zero.serve(&reqs);
            let b = one.serve(&reqs);
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.waves.len(), b.waves.len());
            for (qa, qb) in a.queries.iter().zip(&b.queries) {
                assert_eq!(qa.admitted, qb.admitted);
                assert_eq!(qa.start, qb.start);
                assert_eq!(qa.end, qb.end);
                assert_eq!(qa.wave, qb.wave);
            }
            // Occupancy respects the clamped limit.
            assert!(a.waves.iter().all(|w| w.occupancy == 1));
        }
    }

    #[test]
    fn continuous_serves_empty_traces_at_their_admission_instant() {
        // Empty-trace queries complete the instant they are admitted; the
        // refill chain must still admit everything exactly once (this is the
        // instant-completion path of the continuous driver).
        let (db, plan) = dummy_db_and_plan();
        let empty = Trace::new();
        let real = random_trace(25);
        let reqs = [
            ServerRequest::new(&plan, &empty, SimDuration::ZERO),
            ServerRequest::new(&plan, &empty, SimDuration::ZERO),
            ServerRequest::new(&plan, &real, SimDuration::ZERO),
            ServerRequest::new(&plan, &empty, SimDuration::ZERO),
        ];
        let mut srv = PrefetchServer::new(&db, &run_cfg(), cont_cfg(1, QueuePolicy::Fifo));
        let rep = srv.serve(&reqs);
        assert_eq!(rep.queries.len(), 4);
        assert_eq!(rep.waves.len(), 4);
        for (i, q) in rep.queries.iter().enumerate() {
            if i != 2 {
                assert_eq!(q.start, q.admitted);
                assert_eq!(q.end, q.start, "empty trace replays in zero time");
            }
        }
        // FIFO: the two leading empties chain at t=0, the real query runs,
        // the trailing empty completes at the real query's end.
        assert_eq!(rep.queries[0].end, SimTime::ZERO);
        assert_eq!(rep.queries[1].end, SimTime::ZERO);
        assert_eq!(rep.queries[3].admitted, rep.queries[2].end);
    }

    #[test]
    fn continuous_c1_straddling_completion_defers_admission() {
        // Straddle regression: query 0's entire replay is one cold disk read
        // (2ms of virtual time starting at t=0) and query 1 arrives mid-read
        // at 150us. The session steps events in *start* order, so query 0's
        // completion (end 2000us) is discovered before the arrival is
        // processed; the scheduler must still admit query 1 only when the
        // slot actually frees — at the completion end, not at the arrival
        // instant, which would overlap the two queries and break the C=1
        // cap. A raw `live()` check admits at 150us here.
        let (db, plan) = dummy_db_and_plan();
        let long = Trace::from_iter([read_ev(0)]);
        let tail = random_trace(10);
        let arrival = SimDuration::from_micros(150);
        let reqs = [
            ServerRequest::new(&plan, &long, SimDuration::ZERO),
            ServerRequest::new(&plan, &tail, arrival),
        ];
        let mut srv = PrefetchServer::new(&db, &run_cfg(), cont_cfg(1, QueuePolicy::Fifo));
        let rep = srv.serve(&reqs);

        // The scenario really straddles: the arrival lands strictly inside
        // query 0's replay interval.
        assert!(rep.queries[0].start < rep.queries[1].arrival);
        assert!(rep.queries[1].arrival < rep.queries[0].end);
        // Admission waits for the slot: dispatched exactly at the completion.
        assert_eq!(rep.queries[1].admitted, rep.queries[0].end);
        assert_eq!(rep.queries[1].start, rep.queries[0].end);

        // And the result is bit-identical to serial replay — the straddle
        // case of the C=1/FIFO/Fixed pin, hit deterministically.
        let mut rt = Runtime::new(&run_cfg(), db.file_lengths());
        for ((t, arr), q) in [&long, &tail]
            .iter()
            .zip([SimDuration::ZERO, arrival])
            .zip(&rep.queries)
        {
            rt.advance_to(SimTime::ZERO + arr);
            let res = rt.run(&[QueryRun::default_run(t)]);
            assert_eq!(q.start, res.timings[0].start);
            assert_eq!(q.end, res.timings[0].end);
        }
        assert_eq!(rep.stats, rt.stats());
        assert_eq!(srv.runtime().now(), rt.now());
    }

    #[test]
    fn serve_report_is_nan_free_on_empty_and_degenerate_inputs() {
        // Satellite pin: no panics, NaNs or divisions by zero on empty or
        // zero-duration inputs.
        let empty = ServeReport {
            queries: Vec::new(),
            waves: Vec::new(),
            stats: BufferStats::default(),
        };
        assert_eq!(empty.makespan(), SimDuration::ZERO);
        assert_eq!(empty.mean_admission_wait(), SimDuration::ZERO);
        assert_eq!(empty.mean_occupancy(), 0.0);
        assert_eq!(empty.max_queue_depth(), 0);
        assert_eq!(empty.throughput_qps(), 0.0);
        assert!(!empty.throughput_qps().is_nan());
        let aw = empty.admission_wait_hist();
        assert_eq!((aw.p50(), aw.p95(), aw.p99()), (0, 0, 0));
        let text = empty.report();
        assert!(text.contains("0 queries, 0 waves"), "{text}");

        // Zero-duration queries (arrival == end): makespan 0 with a non-zero
        // query count must yield throughput 0, not infinity or NaN.
        let t = SimTime::from_micros(50);
        let degenerate = ServeReport {
            queries: vec![QueryOutcome {
                arrival: t,
                admitted: t,
                start: t,
                end: t,
                wave: 0,
                inference: SimDuration::ZERO,
                tenant: 0,
                request: 1,
            }],
            // A queries/waves mismatch must not trip any indexing either.
            waves: Vec::new(),
            stats: BufferStats::default(),
        };
        assert_eq!(degenerate.makespan(), SimDuration::ZERO);
        assert_eq!(degenerate.throughput_qps(), 0.0);
        assert!(!degenerate.mean_occupancy().is_nan());
        assert!(degenerate.report().contains("1 queries, 0 waves"));
    }

    #[test]
    fn report_mentions_admission_metrics() {
        let (db, plan) = dummy_db_and_plan();
        let t = random_trace(20);
        let reqs = [
            ServerRequest::new(&plan, &t, SimDuration::ZERO),
            ServerRequest::new(&plan, &t, SimDuration::from_micros(5)),
        ];
        let mut srv = PrefetchServer::new(&db, &run_cfg(), fixed_cfg(1, QueuePolicy::Fifo));
        let rep = srv.serve(&reqs).report();
        for needle in [
            "Serving report",
            "wave 0",
            "queue depth",
            "throughput",
            "admission",
            "prefetch",
        ] {
            assert!(rep.contains(needle), "missing '{needle}' in:\n{rep}");
        }
    }

    #[test]
    fn report_pins_hand_computed_admission_wait_percentiles() {
        // Waits in µs: eighteen of 10 (log₂ bucket [8,16) → bound 15), one of
        // 100 (bucket [64,128) → bound 127), one of 1000 (rank 20 lands in
        // its bucket, whose bound 1023 clamps to the observed max).
        let mut waits = vec![10u64; 18];
        waits.push(100);
        waits.push(1000);
        let queries: Vec<QueryOutcome> = waits
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                let admitted = SimTime::ZERO + SimDuration::from_micros(w);
                QueryOutcome {
                    arrival: SimTime::ZERO,
                    admitted,
                    start: admitted,
                    end: admitted + SimDuration::from_micros(1),
                    wave: 0,
                    inference: SimDuration::ZERO,
                    tenant: 0,
                    request: i as u64 + 1,
                }
            })
            .collect();
        let rep = ServeReport {
            queries,
            waves: Vec::new(),
            stats: BufferStats::default(),
        };
        let aw = rep.admission_wait_hist();
        assert_eq!((aw.p50(), aw.p95(), aw.p99()), (15, 127, 1000));
        assert!(
            rep.report()
                .contains("admission wait percentiles: p50 15us p95 127us p99 1000us"),
            "percentile line drifted:\n{}",
            rep.report()
        );
    }

    /// End-to-end with a trained model: a tiny star schema, a handful of
    /// index-probe queries, Poisson-ish staggered arrivals.
    #[test]
    fn serves_with_trained_predictor_and_charges_inference() {
        let mut db = Database::new();
        let fact = db.create_table("fact", Schema::ints(&["id", "date", "dkey"]));
        let dim = db.create_table("dim", Schema::ints(&["d_id", "attr"]));
        for i in 0..800i64 {
            let date = i / 2;
            let dkey = (date * 300 / 400 + i % 3).min(299);
            db.insert(fact, Database::row(&[i, date, dkey]));
        }
        for d in 0..300i64 {
            db.insert(dim, Database::row(&[d, d % 9]));
        }
        let idx = db.create_index("dim_pk", dim, 0);

        let mut plans = Vec::new();
        let mut traces = Vec::new();
        for q in 0..12i64 {
            let lo = (q * 37) % 300;
            let plan = PlanNode::IndexNLJoin {
                outer: Box::new(PlanNode::SeqScan {
                    table: fact,
                    pred: Some(Pred::Between {
                        col: 1,
                        lo,
                        hi: lo + 40,
                    }),
                }),
                outer_key: 2,
                inner: dim,
                inner_index: idx,
                inner_pred: None,
            };
            let (_, trace) = execute(&plan, &db);
            plans.push(plan);
            traces.push(trace);
        }
        let cfg = PythiaConfig {
            epochs: 6,
            batch_size: 8,
            ..PythiaConfig::fast()
        };
        let tw = train_workload(&db, "mini", &plans[..8], &traces[..8], None, &cfg);

        let inf = SimDuration::from_millis(2);
        let server_cfg = ServerConfig {
            concurrency: 2,
            admission: AdmissionMode::Continuous,
            policy: QueuePolicy::Overlap,
            charge: InferenceCharge::Fixed(inf),
            prefetch_budget: None,
            tenant_quota: None,
        };
        let reqs: Vec<ServerRequest<'_>> = plans[8..]
            .iter()
            .zip(&traces[8..])
            .enumerate()
            .map(|(i, (p, t))| ServerRequest::new(p, t, SimDuration::from_micros(i as u64 * 40)))
            .collect();
        let mut srv = PrefetchServer::new(&db, &run_cfg(), server_cfg).with_predictor(&tw);
        let rep = srv.serve(&reqs);

        assert_eq!(rep.queries.len(), 4);
        assert!(
            rep.stats.prefetch_issued > 0,
            "predictor must drive prefetching"
        );
        let covered: usize = rep.waves.iter().map(|w| w.inferred).sum();
        assert_eq!(covered, 4, "every query inferred exactly once");
        for q in &rep.queries {
            assert_eq!(q.inference, inf);
            assert_eq!(q.start, q.admitted + inf);
        }

        // Registry-routed serving is bit-identical to the borrowed
        // predictor, even with a mid-stream hot swap to identical weights
        // published by the admission hook (versions bump, outcomes don't).
        let fleet = Arc::new(TenantFleet::new("t0"));
        fleet.publish(tw.duplicate());
        let mut reg_srv =
            PrefetchServer::new(&db, &run_cfg(), server_cfg).with_registry(Arc::clone(&fleet));
        let swapper = Arc::clone(&fleet);
        let spare = tw.duplicate();
        reg_srv.set_admission_hook(move |k| {
            if k == 2 {
                swapper.publish(spare.duplicate());
            }
        });
        let rep2 = reg_srv.serve(&reqs);
        assert_eq!(fleet.current("mini").unwrap().version, 2, "swap landed");
        for (a, b) in rep.queries.iter().zip(&rep2.queries) {
            assert_eq!(a.start, b.start);
            assert_eq!(a.end, b.end);
            assert_eq!(a.inference, b.inference);
        }
        assert_eq!(rep.stats, rep2.stats);
    }

    #[test]
    fn tenant_quota_zero_clamps_to_one() {
        // The satellite pin: quota 0 behaves as quota 1, mirroring the
        // concurrency clamp — in both admission modes.
        let (db, plan) = dummy_db_and_plan();
        let traces: Vec<Trace> = vec![
            random_trace(30),
            random_trace(20),
            random_trace(25),
            random_trace(15),
        ];
        let reqs: Vec<ServerRequest<'_>> = traces
            .iter()
            .enumerate()
            .map(|(i, t)| {
                ServerRequest::new(&plan, t, SimDuration::from_micros(i as u64 * 50))
                    .with_tenant((i % 2) as u32)
            })
            .collect();
        for make in [fixed_cfg, cont_cfg] {
            let mut zero = PrefetchServer::new(
                &db,
                &run_cfg(),
                ServerConfig {
                    tenant_quota: Some(0),
                    ..make(4, QueuePolicy::Fifo)
                },
            );
            let mut one = PrefetchServer::new(
                &db,
                &run_cfg(),
                ServerConfig {
                    tenant_quota: Some(1),
                    ..make(4, QueuePolicy::Fifo)
                },
            );
            let a = zero.serve(&reqs);
            let b = one.serve(&reqs);
            assert_eq!(a.stats, b.stats);
            for (qa, qb) in a.queries.iter().zip(&b.queries) {
                assert_eq!(qa.admitted, qb.admitted);
                assert_eq!(qa.start, qb.start);
                assert_eq!(qa.end, qb.end);
            }
        }
    }

    #[test]
    fn tenant_quota_caps_per_tenant_concurrency_without_starvation() {
        // Four tenant-0 queries and two tenant-1, all arriving together,
        // four slots, quota 1: same-tenant replays serialize, the global
        // occupancy never exceeds the two admissible tenants, and tenant 1
        // is admitted immediately even though four tenant-0 queries sit
        // ahead of it in the queue (the quota-blocked head is skipped).
        let (db, plan) = dummy_db_and_plan();
        let traces: Vec<Trace> = (0..6).map(|i| random_trace(15 + i * 5)).collect();
        let tenants = [0u32, 0, 0, 0, 1, 1];
        let reqs: Vec<ServerRequest<'_>> = traces
            .iter()
            .zip(tenants)
            .map(|(t, tenant)| ServerRequest::new(&plan, t, SimDuration::ZERO).with_tenant(tenant))
            .collect();
        let cfg = ServerConfig {
            tenant_quota: Some(1),
            ..cont_cfg(4, QueuePolicy::Fifo)
        };
        let mut srv = PrefetchServer::new(&db, &run_cfg(), cfg);
        let rep = srv.serve(&reqs);

        let mut by_tenant: HashMap<u32, Vec<&QueryOutcome>> = HashMap::new();
        for q in &rep.queries {
            by_tenant.entry(q.tenant).or_default().push(q);
        }
        for (tenant, mut qs) in by_tenant {
            qs.sort_by_key(|q| q.start);
            for w in qs.windows(2) {
                assert!(
                    w[1].start >= w[0].end,
                    "quota 1 must serialize tenant {tenant}"
                );
            }
        }
        assert!(rep.waves.iter().all(|w| w.occupancy <= 2));
        let first_t1 = rep
            .queries
            .iter()
            .find(|q| q.tenant == 1)
            .expect("tenant 1 served");
        assert_eq!(
            first_t1.admitted,
            SimTime::ZERO,
            "tenant 1 must not wait behind tenant 0's quota-blocked queue"
        );

        // Per-tenant reports partition the global totals (continuous mode
        // attributes every admission interval to one tenant).
        let by = rep.by_tenant();
        assert_eq!(by.len(), 2);
        assert_eq!(by.values().map(|t| t.queries).sum::<usize>(), 6);
        assert_eq!(
            by.values().map(|t| t.admissions).sum::<usize>(),
            rep.waves.len()
        );
        let mut merged = BufferStats::default();
        for t in by.values() {
            merged.merge(&t.stats);
        }
        assert_eq!(merged, rep.stats);
    }

    #[test]
    fn quality_tracker_observes_every_continuous_interval() {
        let (db, plan) = dummy_db_and_plan();
        let traces: Vec<Trace> = (0..6).map(|i| random_trace(20 + i * 5)).collect();
        let reqs: Vec<ServerRequest<'_>> = traces
            .iter()
            .enumerate()
            .map(|(i, t)| {
                ServerRequest::new(&plan, t, SimDuration::from_micros(i as u64 * 50))
                    .with_tenant((i % 2) as u32)
            })
            .collect();
        let tracker = Arc::new(Mutex::new(QualityTracker::default()));
        let mut srv = PrefetchServer::new(&db, &run_cfg(), cont_cfg(2, QueuePolicy::Fifo))
            .with_quality(Arc::clone(&tracker));
        srv.set_recorder(Recorder::enabled());
        let rep = srv.serve(&reqs);

        let rec = srv.recorder();
        assert_eq!(rec.event_count("quality.observe"), rep.waves.len());
        assert_eq!(rec.counter("quality.observations"), rep.waves.len() as u64);
        assert_eq!(rec.event_count("drift.alert"), 0, "stationary mini run");
        let q = tracker.lock().unwrap();
        assert_eq!(q.tenant_ids(), vec![0, 1]);
        assert_eq!(q.total_alerts(), 0);
        // The tracker's lifetime totals partition exactly like the report's
        // per-tenant quality slices: both come from the same interval diffs.
        let mut folded = QualityTotals::default();
        for t in [0u32, 1] {
            folded.merge(&q.tenant_lifetime(t));
        }
        assert_eq!(folded.hits, rep.stats.hits);
        assert_eq!(folded.prefetch_issued, rep.stats.prefetch_issued);
        assert_eq!(folded.outcomes, rep.waves.len() as u64);
        // The report-side slices partition the global quality totals too.
        let global = rep.quality();
        let mut by = QualityTotals::default();
        for t in rep.by_tenant().values() {
            by.merge(&t.quality());
        }
        assert_eq!(by, global);
        assert!(!global.hit_rate().is_nan());
    }

    #[test]
    fn quality_tracking_is_invisible_to_virtual_time() {
        // Enabling the tracker must not perturb admissions, timings or
        // counters — it only reads interval diffs.
        let (db, plan) = dummy_db_and_plan();
        let traces: Vec<Trace> = (0..5).map(|i| random_trace(15 + i * 7)).collect();
        let reqs: Vec<ServerRequest<'_>> = traces
            .iter()
            .enumerate()
            .map(|(i, t)| ServerRequest::new(&plan, t, SimDuration::from_micros(i as u64 * 30)))
            .collect();
        let mut plain = PrefetchServer::new(&db, &run_cfg(), cont_cfg(2, QueuePolicy::Fifo));
        let tracker = Arc::new(Mutex::new(QualityTracker::default()));
        let mut tracked = PrefetchServer::new(&db, &run_cfg(), cont_cfg(2, QueuePolicy::Fifo))
            .with_quality(tracker);
        let a = plain.serve(&reqs);
        let b = tracked.serve(&reqs);
        assert_eq!(a.stats, b.stats);
        for (qa, qb) in a.queries.iter().zip(&b.queries) {
            assert_eq!(qa.admitted, qb.admitted);
            assert_eq!(qa.start, qb.start);
            assert_eq!(qa.end, qb.end);
        }
    }

    #[test]
    fn request_spans_carry_ordinal_ids_and_reconcile_with_the_report() {
        let (db, plan) = dummy_db_and_plan();
        let traces: Vec<Trace> = (0..4).map(|i| random_trace(15 + i * 10)).collect();
        let reqs: Vec<ServerRequest<'_>> = traces
            .iter()
            .enumerate()
            .map(|(i, t)| ServerRequest::new(&plan, t, SimDuration::from_micros(i as u64 * 40)))
            .collect();
        let mut srv = PrefetchServer::new(&db, &run_cfg(), cont_cfg(2, QueuePolicy::Fifo));
        srv.set_recorder(Recorder::enabled());

        // An externally minted id survives the loop untouched.
        let tagged = [ServerRequest::new(&plan, &traces[0], SimDuration::ZERO).with_request(77)];
        let tagged_rep = srv.serve(&tagged);
        assert_eq!(tagged_rep.queries[0].request, 77);

        let rep = srv.serve(&reqs);
        // Zero ids get the deterministic per-call ordinal i + 1.
        for (i, q) in rep.queries.iter().enumerate() {
            assert_eq!(q.request, i as u64 + 1);
        }

        // One span tree per completed request (5 = 1 tagged + 4 ordinal),
        // flow-linked start + finish.
        let rec = srv.recorder();
        for name in [
            "request.queue",
            "request.admission",
            "request.infer",
            "request.replay",
        ] {
            assert_eq!(rec.event_count(name), 5, "{name}");
        }
        assert_eq!(rec.event_count("request.flow"), 10);

        // Breakdowns reconcile with the report's own latency accounting.
        for q in &rep.queries {
            let b = q.breakdown();
            assert_eq!(b.latency_us(), q.latency().as_micros());
            assert_eq!(b.queue_us, q.admission_wait().as_micros());
            assert_eq!(b.infer_us, q.inference.as_micros());
            assert_eq!(
                b.queue_us + b.admission_us + b.replay_us,
                q.latency().as_micros()
            );
        }
        // Top-K slow log is sorted descending and bounded.
        let slow = rep.slow_requests(2);
        assert_eq!(slow.len(), 2);
        assert!(slow[0].latency_us() >= slow[1].latency_us());

        // Per-tenant admission-wait percentile gauges match the report's
        // histogram estimator exactly.
        let mut h = pythia_obs::hist::Histogram::new();
        for q in &rep.queries {
            h.record(q.admission_wait().as_micros());
        }
        assert_eq!(
            rec.labeled(
                "server.admission_wait_us",
                &[("quantile", "0.5"), ("tenant", "0")]
            ),
            h.p50()
        );
        assert_eq!(
            rec.labeled(
                "server.admission_wait_us",
                &[("quantile", "0.99"), ("tenant", "0")]
            ),
            h.p99()
        );
    }

    #[test]
    fn slow_threshold_counts_and_publishes_postmortem_dumps() {
        let (db, plan) = dummy_db_and_plan();
        let t = random_trace(30);
        let reqs = [
            ServerRequest::new(&plan, &t, SimDuration::ZERO),
            ServerRequest::new(&plan, &t, SimDuration::from_micros(5)),
        ];
        let mut srv = PrefetchServer::new(&db, &run_cfg(), cont_cfg(1, QueuePolicy::Fifo));
        srv.set_recorder(Recorder::enabled());
        let shared = pythia_obs::flight::SharedFlight::new();
        srv.recorder_mut().set_flight_publisher(shared.clone());
        srv.set_slow_threshold(Some(SimDuration::ZERO)); // everything is slow
        srv.serve(&reqs);
        assert_eq!(srv.recorder().counter("server.slow_requests"), 2);
        let dump = shared.get().expect("slow completions publish a dump");
        assert_eq!(dump.reason, "slow.request");
        assert!(
            dump.trace_json.contains("request.replay"),
            "dump carries the request span tree"
        );
        assert!(
            dump.trace_json.contains("\"ph\":\"s\""),
            "dump carries flow links"
        );
    }

    #[test]
    fn flight_recorder_captures_requests_even_with_trace_export_off() {
        // The always-on property: a server whose recorder was never enabled
        // still retains the request span tree in the flight ring and dumps
        // it on a slow-request trigger.
        let (db, plan) = dummy_db_and_plan();
        let t = random_trace(25);
        let reqs = [ServerRequest::new(&plan, &t, SimDuration::ZERO)];
        let mut srv = PrefetchServer::new(&db, &run_cfg(), cont_cfg(1, QueuePolicy::Fifo));
        assert!(!srv.recorder().is_enabled());
        let shared = pythia_obs::flight::SharedFlight::new();
        srv.recorder_mut().set_flight_publisher(shared.clone());
        srv.set_slow_threshold(Some(SimDuration::ZERO));
        srv.serve(&reqs);
        let dump = shared.get().expect("always-on ring captured the request");
        assert_eq!(dump.reason, "slow.request");
        assert!(
            dump.trace_json.contains("request.replay"),
            "{}",
            dump.trace_json
        );
        assert!(
            dump.trace_json.contains("request-1"),
            "request track name dumped"
        );
    }

    #[test]
    fn request_tracing_is_invisible_to_virtual_time() {
        // Enabling tracing, the slow threshold and the flight ring must not
        // perturb admissions, timings or counters.
        let (db, plan) = dummy_db_and_plan();
        let traces: Vec<Trace> = (0..5).map(|i| random_trace(10 + i * 8)).collect();
        let reqs: Vec<ServerRequest<'_>> = traces
            .iter()
            .enumerate()
            .map(|(i, t)| ServerRequest::new(&plan, t, SimDuration::from_micros(i as u64 * 25)))
            .collect();
        let mut plain = PrefetchServer::new(&db, &run_cfg(), cont_cfg(2, QueuePolicy::Fifo));
        let mut traced = PrefetchServer::new(&db, &run_cfg(), cont_cfg(2, QueuePolicy::Fifo));
        traced.set_recorder(Recorder::enabled());
        traced.set_slow_threshold(Some(SimDuration::ZERO));
        let a = plain.serve(&reqs);
        let b = traced.serve(&reqs);
        assert_eq!(a.stats, b.stats);
        for (qa, qb) in a.queries.iter().zip(&b.queries) {
            assert_eq!(qa.admitted, qb.admitted);
            assert_eq!(qa.start, qb.start);
            assert_eq!(qa.end, qb.end);
            assert_eq!(qa.request, qb.request);
        }
    }

    #[test]
    fn zero_query_tenant_report_is_nan_free() {
        // The satellite pin: asking for a tenant that issued nothing yields
        // the all-zero report — no panic, no NaN, no division by zero.
        let (db, plan) = dummy_db_and_plan();
        let t = random_trace(20);
        let reqs = [
            ServerRequest::new(&plan, &t, SimDuration::ZERO),
            ServerRequest::new(&plan, &t, SimDuration::from_micros(5)),
        ];
        let cfg = ServerConfig {
            tenant_quota: Some(2),
            ..cont_cfg(2, QueuePolicy::Fifo)
        };
        let mut srv = PrefetchServer::new(&db, &run_cfg(), cfg);
        let rep = srv.serve(&reqs);
        let ghost = rep.tenant_report(9);
        assert_eq!(ghost.queries, 0);
        assert_eq!(ghost.admissions, 0);
        assert_eq!(ghost.mean_admission_wait(), SimDuration::ZERO);
        assert_eq!(ghost.mean_latency(), SimDuration::ZERO);
        assert_eq!(ghost.stats, BufferStats::default());
        let json = ghost.to_json();
        assert!(json.contains("\"queries\":0"), "{json}");
        assert!(!json.contains("NaN"), "{json}");
        // The tenant that did issue queries aggregates them all.
        assert_eq!(rep.tenant_report(0).queries, 2);
    }
}
