//! Admission-controlled prefetch serving loop.
//!
//! The paper's §5.4 experiments replay *pre-built* batches of concurrent
//! queries. A deployed Pythia sits in front of a live queue instead: queries
//! arrive on their own schedule, the database admits at most `concurrency` of
//! them at once, and the model is invoked over whatever is queued so
//! inference batches naturally with load (the batched forward pass of
//! [`TrainedWorkload::infer_batch`] amortizes across everything queued).
//!
//! There is **one admission loop**, and it is incremental. A
//! [`ServeSession`] is driven beside its [`PrefetchServer`] the way a
//! [`ReplaySession`] is driven beside its [`Runtime`]:
//! [`submit`](ServeSession::submit) hands it a request whenever one turns up,
//! [`poll_completion`](ServeSession::poll_completion) processes arrivals,
//! admissions and replay events in global virtual-time order up to and
//! including the next completion, and [`finish`](ServeSession::finish)
//! settles. [`PrefetchServer::serve`], the batch entry, is that session with
//! every request submitted up front, drained, finished; the socket pump
//! ([`crate::frontend::pump`]) holds one session per tenant for as long as it
//! runs and answers each request the moment its completion is polled, so a
//! long query never stalls a short one — inside a batch or across two.
//!
//! **Admit-on-completion.** The session tracks the virtual instant each of
//! the `concurrency` slots became free (a completion frees its slot at the
//! completion *end*), and an admission happens at `max(earliest queued
//! arrival, earliest free-slot instant)`: an arrival that finds a free slot
//! is admitted at its arrival instant, one that finds every slot busy waits
//! for the slot-freeing completion and is injected at that completion's end.
//! The admitted query is picked FIFO, or as the most page-overlapping
//! candidate ([`pick_next_by_overlap`](crate::scheduler::pick_next_by_overlap)).
//! Each admission instant first runs one batched inference over every queued
//! query lacking a prediction (opportunistic re-batching), charging each
//! covered query the amortized latency ([`InferenceCharge`]).
//!
//! **The clock rule.** A session's clock is the latest instant it has
//! reached — event starts *and* completion ends — and never goes back. A
//! request arrives at `session start + its arrival offset`, or at the clock
//! if that instant has passed. So a client that submits after reading its
//! previous answer arrives at that answer's completion end: exactly where a
//! fresh one-request `serve` call, starting at the stack's clock, would have
//! put it (pinned by `closed_loop_session_equals_one_request_serves`).
//!
//! **What a session holds.** Requests waiting, queued or in flight; one open
//! admission interval; the closed intervals nobody has taken. Never a request
//! it has completed — nor does the replay session under it.
//!
//! The shared pool's counters are attributed to each admission by snapshot
//! diff ([`BufferStats::diff`]): an interval runs from its admission to the
//! next (the last one to `finish`), so the [`WaveStats`] always partition the
//! aggregate report.
//!
//! With `concurrency = 1`, FIFO policy and a fixed inference charge, serving
//! is *bit-identical* to calling [`Runtime::run`] serially per query on one
//! warm stack — what the property tests in `tests/proptest_server.rs` pin
//! down. This is the only admission loop in the workspace: every experiment,
//! benchmark and socket path serves through it.
//!
//! The socket front-end for this loop — bounded queue, load shedding, and the
//! pump that drives sessions from it — lives in [`crate::frontend`]; the
//! `serve_demo` example binary is that pump with a deployment around it.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use pythia_buffer::BufferStats;
use pythia_db::catalog::Database;
use pythia_db::plan::PlanNode;
use pythia_db::runtime::{QueryRun, ReplaySession, RunConfig, Runtime, SessionCompletion};
use pythia_db::trace::Trace;
use pythia_obs::request::{RequestBreakdown, SlowLog};
use pythia_obs::{tid, FlowDir, Recorder, Track};
use pythia_sim::{PageId, SimDuration, SimTime};

use crate::predictor::TrainedWorkload;
use crate::prefetch::{default_budget, engage};
use crate::quality::QualityTracker;
use crate::registry::TenantFleet;
use crate::scheduler::pick_next_by_overlap_scored;

/// The serving loop's trace track: arrivals, admissions, inference batches
/// and completions, and the end of each request's flow arrow.
const SERVER_TRACK: Track = Track::virt(tid::SERVER);

/// How queries are admitted from the queue into the replay stack. One value:
/// the type and [`ServerConfig::admission`] remain only because callers spell
/// the config as a full literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionMode {
    /// Admit-on-completion: the moment a slot frees, the scheduler picks the
    /// next queued query and injects it at the completion instant.
    /// Work-conserving — a long query never stalls short ones queued behind
    /// it.
    Continuous,
}

/// How the serving loop picks the next admission from the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueuePolicy {
    /// Admit in arrival order.
    Fifo,
    /// Prefer page overlap: pick the queued query whose predicted pages most
    /// overlap the previously admitted one's
    /// ([`pick_next_by_overlap`](crate::scheduler::pick_next_by_overlap)), so
    /// consecutive admissions find their working sets resident. Degrades to
    /// FIFO when predictions are absent or empty (the scheduler's all-empty
    /// tie-break).
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
    /// How slots are refilled from the queue (one value; see
    /// [`AdmissionMode`]).
    pub admission: AdmissionMode,
    /// Queue ordering policy.
    pub policy: QueuePolicy,
    /// Inference-latency accounting.
    pub charge: InferenceCharge,
    /// Prefetch budget in pages per query; `None` uses
    /// [`crate::prefetch::default_budget`], 3/4 of the pool (limited
    /// prefetching, §5.1).
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
/// replay) and its arrival offset from the instant its session opened —
/// [`PrefetchServer::serve`] being called — i.e. from the stack's clock then.
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
    /// direct [`PrefetchServer::serve`] callers may leave 0 and the session
    /// assigns the deterministic ordinal `ticket + 1` (`i + 1` in a `serve`
    /// call), so golden traces of replayed workloads stay byte-stable.
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
    /// When it was admitted into the replay stack.
    pub admitted: SimTime,
    /// When replay began (admission + inference charge).
    pub start: SimTime,
    /// When replay finished.
    pub end: SimTime,
    /// Ordinal of the admission event that served it within its session:
    /// the index into [`ServeReport::waves`].
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

/// Per-admission-event serving metrics: one entry per admission, so exactly
/// one per query.
#[derive(Debug, Clone, Copy)]
pub struct WaveStats {
    /// When the admission was dispatched.
    pub admitted_at: SimTime,
    /// Queries in flight right after this admission, the admitted one
    /// included. Always within `1..=concurrency`.
    pub occupancy: usize,
    /// Queue depth at dispatch (admitted + still waiting).
    pub queue_depth: usize,
    /// Queries covered by this admission's batched inference call.
    pub inferred: usize,
    /// Total inference latency charged to the queries admitted here.
    pub inference: SimDuration,
    /// Buffer/prefetch counters accumulated between this admission and the
    /// next (or the session's finish) — the per-event entries always
    /// partition [`ServeReport::stats`].
    pub stats: BufferStats,
    /// Tenant of the admitted query (one admission per query, so the
    /// attribution is exact).
    pub tenant: u32,
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

    /// The `k` slowest requests by end-to-end latency, slowest first: the
    /// queries offered in input order to a [`SlowLog`], the log behind the
    /// front-end's `/debug/slow` route, so both rank and break ties alike.
    pub fn slow_requests(&self, k: usize) -> Vec<RequestBreakdown> {
        let mut log = SlowLog::with_k(k);
        for q in &self.queries {
            log.offer(q.breakdown());
        }
        log.entries().to_vec()
    }

    /// Mean queries in flight right after each admission.
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

    /// Serving report: admission metrics, per-admission occupancy and the
    /// buffer manager's read-class breakdown.
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Serving report ({} queries, {} admissions)",
            self.queries.len(),
            self.waves.len()
        );
        for (i, w) in self.waves.iter().enumerate() {
            let _ = writeln!(
                out,
                "  admission {i}: at {} occupancy {} queue depth {} inferred {} inference {}",
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
    /// partition the global totals, and so do the buffer counters: every
    /// admission event is attributed to exactly one tenant.
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
            let t = out.entry(w.tenant).or_default();
            t.admissions += 1;
            t.stats.merge(&w.stats);
        }
        out
    }

    /// The breakdown for one tenant; a tenant that issued no queries gets
    /// the all-zero (NaN-free) report rather than a panic or a missing key.
    pub fn tenant_report(&self, tenant: u32) -> TenantReport {
        self.by_tenant().remove(&tenant).unwrap_or_default()
    }
}

/// One tenant's slice of a [`ServeReport`] (see [`ServeReport::by_tenant`]).
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Queries this tenant completed.
    pub queries: usize,
    /// Admission events attributed to this tenant.
    pub admissions: usize,
    /// Summed time its queries spent queued before admission.
    pub total_admission_wait: SimDuration,
    /// Summed arrival-to-completion latency of its queries.
    pub total_latency: SimDuration,
    /// Summed inference latency charged to its queries.
    pub inference: SimDuration,
    /// Buffer/prefetch counters of its admission intervals.
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
}

/// A computed prediction for a queued query: its ordered prefetch list and
/// the inference latency it was charged.
#[derive(Debug, Clone)]
struct PredEntry {
    list: Vec<PageId>,
    charge: SimDuration,
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
    /// Where every batched inference finds its model: the fleet's current
    /// one ([`TenantFleet::any`]), re-resolved per batch, so a
    /// [`TenantFleet::publish`] lands between admissions and the batch in
    /// flight keeps its coherent snapshot. Empty, it is the DFLT server.
    fleet: Arc<TenantFleet>,
    admission_hook: Option<AdmissionHook<'d>>,
    /// Streaming quality telemetry, fed one outcome per closed admission
    /// interval (`None` disables the whole path — one branch per interval).
    quality: Option<QualityTracker>,
    /// End-to-end latency above which a completion counts as a slow request:
    /// it bumps `server.slow_requests` and fires the flight recorder's
    /// `slow.request` postmortem trigger. `None` (the default) disables the
    /// check entirely.
    slow_threshold: Option<SimDuration>,
}

impl<'d> PrefetchServer<'d> {
    /// Build a server over a cold stack and an empty fleet, so with no
    /// predictor (the DFLT baseline: every query replays without
    /// prefetching).
    pub fn new(db: &'d Database, run_cfg: &RunConfig, cfg: ServerConfig) -> Self {
        PrefetchServer {
            db,
            rt: Runtime::new(run_cfg, db.file_lengths()),
            cfg,
            fleet: Arc::new(TenantFleet::new("dflt")),
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
    /// plans, with inference batched per admission. `tw` is cloned into a
    /// fleet of its own, and a clone shares the weights, so no server copies
    /// them. Like any fleet's first publish, the server then reports
    /// [`model_version`](Self::model_version)` == Some(1)`.
    pub fn with_predictor(self, tw: &'d TrainedWorkload) -> Self {
        let fleet = TenantFleet::new(&tw.name);
        fleet.publish(tw.clone());
        self.with_registry(Arc::new(fleet))
    }

    /// Serve from a hot-swappable tenant fleet: each batched inference
    /// resolves the fleet's current model, so [`TenantFleet::publish`] takes
    /// effect at the next admission without restarting the server. An empty
    /// fleet behaves like no predictor. No plan match is applied: every
    /// query is inferred by the model [`TenantFleet::any`] returns (the first
    /// by name), never screened by [`TenantFleet::match_plan`].
    pub fn with_registry(mut self, fleet: Arc<TenantFleet>) -> Self {
        self.fleet = fleet;
        self
    }

    /// Install an observer called at each admission event with its ordinal,
    /// before the event's batched inference. Tests use this to publish a
    /// model swap at a deterministic point mid-stream.
    pub fn set_admission_hook(&mut self, hook: impl FnMut(usize) + 'd) {
        self.admission_hook = Some(Box::new(hook));
    }

    /// Attach a streaming quality tracker. Every closed admission interval
    /// feeds it the interval's [`BufferStats`] and the query's admission
    /// wait, attributed to the admitted query's tenant and template span.
    /// The tracker only *reads* serving state, so enabling it never perturbs
    /// virtual time or admission order.
    pub fn with_quality(mut self, quality: QualityTracker) -> Self {
        self.quality = Some(quality);
        self
    }

    /// The quality tracker, if one is attached.
    pub fn quality(&self) -> Option<&QualityTracker> {
        self.quality.as_ref()
    }

    /// The live model version of the fleet this server serves from; `None`
    /// while the fleet is empty (the DFLT server). A server built
    /// [`with_predictor`](Self::with_predictor) reports `Some(1)`.
    pub fn model_version(&self) -> Option<u64> {
        self.fleet.any().map(|v| v.version)
    }

    /// Feed one closed admission interval to the quality tracker (no-op
    /// without one).
    fn feed_quality(&mut self, wave: &WaveStats, span: &'static str, wait_us: u64, now_us: u64) {
        let Some(q) = &mut self.quality else {
            return;
        };
        q.observe(
            wave.tenant,
            span,
            wave.stats,
            wait_us,
            now_us,
            self.rt.recorder_mut(),
        );
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

    /// Open a serving session on this server's stack, starting at the
    /// stack's clock. Drive it with this server and no other; one session at
    /// a time (its [`ServeSession::finish`] is what advances the stack's
    /// clock for the next).
    pub fn session<'q>(&mut self) -> ServeSession<'q> {
        let now = self.rt.now();
        ServeSession {
            replay: ReplaySession::new(),
            base: now,
            clock: now,
            next_ticket: 0,
            future: VecDeque::new(),
            queue: Vec::new(),
            in_flight: Vec::new(),
            free: vec![now; self.cfg.concurrency.max(1)],
            tenant_tokens: HashMap::new(),
            last_admitted: Vec::new(),
            admissions: 0,
            open: None,
            closed: Vec::new(),
            last_stats: self.rt.stats(),
        }
    }

    /// Serve a stream of requests to completion and report per-query,
    /// per-admission and aggregate metrics: one [`ServeSession`] with every
    /// request submitted up front, drained and finished. The stack stays
    /// warm across calls.
    ///
    /// Requests with `request == 0` get the deterministic per-call ordinal
    /// `i + 1` as their trace id — replayed workloads thus produce
    /// byte-stable traces, while a front-end that minted wall-ordered ids
    /// keeps them.
    pub fn serve(&mut self, requests: &[ServerRequest<'_>]) -> ServeReport {
        let start_stats = self.rt.stats();
        let mut session = self.session();
        for r in requests {
            session.submit(*r);
        }
        // Tickets count from zero in submission order: the request's index.
        let mut outcomes: Vec<Option<QueryOutcome>> = vec![None; requests.len()];
        while let Some((ticket, outcome)) = session.poll_completion(self) {
            outcomes[ticket as usize] = Some(outcome);
        }
        let waves = session.finish(self);
        ServeReport {
            queries: outcomes
                .into_iter()
                .map(|o| o.expect("every submitted request completed"))
                .collect(),
            waves,
            stats: self.rt.stats().diff(&start_stats),
        }
    }

    /// Emit the per-request span tree for one completed query on its own
    /// `request-<id>` track — `request.queue` (arrival → admitted),
    /// `request.admission` (admitted → replay start), `request.infer` (the
    /// charged inference share) and `request.replay` — plus a Chrome-trace
    /// flow arrow from the request lane into the serving-loop track that
    /// carried the replay, so Perfetto connects the breakdown to the shared
    /// timeline. Lands in the flight ring whenever the recorder keeps one (a
    /// bounded recorder, or any given a flight publisher), even when trace
    /// export is off; never touches virtual time. Also applies the
    /// slow-request threshold.
    fn emit_request_spans(&mut self, o: &QueryOutcome) {
        let rid = o.request;
        if rid == 0 {
            return;
        }
        let track = pythia_obs::request::request_track(rid);
        let rec = self.rt.recorder_mut();
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
        rec.flow(
            SERVER_TRACK,
            "request",
            "request.flow",
            end,
            rid,
            FlowDir::Finish,
        );
        if let Some(th) = self.slow_threshold {
            if o.latency() >= th {
                let rec = self.rt.recorder_mut();
                rec.add("server.slow_requests", 1);
                rec.trigger_flight("slow.request", end);
            }
        }
    }

    /// One batched inference at virtual instant `at` over every queued query
    /// lacking a prediction — the whole queue, not just the next admission,
    /// so the overlap policy can schedule over everything it has seen and
    /// later admissions reuse cached predictions. Returns the batch size.
    fn batch_infer_missing(&mut self, queue: &mut [Queued<'_>], at: SimTime) -> usize {
        // Resolve the model once per batch: a fleet swap published while
        // this batch runs is picked up by the *next* admission; this batch
        // keeps the coherent snapshot it resolved (the Arc keeps the old
        // weights alive even if the publish drops the fleet's reference).
        let Some(snapshot) = self.fleet.any() else {
            return 0;
        };
        let tw = &snapshot.workload;
        let missing: Vec<usize> = (0..queue.len())
            .filter(|&k| queue[k].pred.is_none())
            .collect();
        // Attribute the pool's wall-clock task spans to the batch head's
        // request id for the duration of the forward pass (the batch
        // amortizes over several requests; the head stands for the batch).
        let Some(head) = missing.first().map(|&k| queue[k].req.request) else {
            return 0;
        };
        let plans: Vec<&PlanNode> = missing.iter().map(|&k| queue[k].req.plan).collect();
        pythia_obs::wall::set_request(head);
        let (lists, measured) = engage(self.db, tw, &plans);
        pythia_obs::wall::set_request(0);
        let charge = match self.cfg.charge {
            InferenceCharge::Fixed(d) => d,
            InferenceCharge::Measured => measured,
        };
        let inferred = missing.len();
        for (&k, list) in missing.iter().zip(lists) {
            queue[k].pred = Some(PredEntry { list, charge });
        }
        let rec = self.rt.recorder_mut();
        rec.add("server.inferred", inferred as u64);
        // The batch's virtual-time cost is the amortized per-query charge
        // (each covered query pays it before replay).
        rec.span(
            SERVER_TRACK,
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
}

/// A submitted request until its admission: waiting for its arrival instant,
/// then queued.
struct Queued<'q> {
    ticket: u64,
    req: ServerRequest<'q>,
    /// Absolute arrival instant.
    at: SimTime,
    /// Set by the first batched inference that finds the request queued.
    pred: Option<PredEntry>,
}

impl<'q> Queued<'q> {
    /// The replay run: capped prefetch plan plus the inference latency the
    /// prediction was charged.
    fn run(&self, budget: usize) -> QueryRun<'q> {
        // Limited prefetching (§5.1): only the budgeted prefix is issued.
        let (prefetch, inference) = match &self.pred {
            Some(e) if !e.list.is_empty() => {
                (Some(e.list[..e.list.len().min(budget)].to_vec()), e.charge)
            }
            Some(e) => (None, e.charge),
            None => (None, SimDuration::ZERO),
        };
        QueryRun {
            trace: self.req.trace,
            prefetch,
            arrival: SimDuration::ZERO,
            inference_latency: inference,
            span_name: self.req.span_name,
        }
    }
}

/// The latest admission's interval, still accumulating pool counters, with
/// what the quality tracker attributes it to once it closes.
struct OpenInterval {
    wave: WaveStats,
    span: &'static str,
    wait_us: u64,
}

/// Consume the earliest instant of a free list (replay slots, or one
/// tenant's quota tokens).
fn take_earliest(free: &mut Vec<SimTime>) -> Option<SimTime> {
    let (pos, _) = free.iter().enumerate().min_by_key(|&(_, &f)| f)?;
    Some(free.swap_remove(pos))
}

// Same-instant event priority: arrivals first (so the admission decision
// sees them queued), then admissions (injecting at `t <= next_event_time()`
// is the replay session's causal contract), then replay steps.
const ARRIVE: u8 = 0;
const ADMIT: u8 = 1;
const STEP: u8 = 2;

/// The admission loop, driven incrementally beside a [`PrefetchServer`] (see
/// the module doc): [`submit`](Self::submit) requests whenever they turn up,
/// [`poll_completion`](Self::poll_completion) to run the arrive / admit /
/// step events up to the next completion, [`finish`](Self::finish) to
/// settle. With its intervals [taken](Self::take_intervals) as it goes, a
/// session is as small after a million requests as after one.
pub struct ServeSession<'q> {
    replay: ReplaySession<'q>,
    /// The stack's clock when the session opened: what
    /// [`ServerRequest::arrival`] offsets count from.
    base: SimTime,
    /// The latest instant the session has reached: event starts and
    /// completion ends. Never goes back; a request whose arrival lies before
    /// it arrives here.
    clock: SimTime,
    next_ticket: u64,
    /// Submitted, not yet arrived; ascending by (arrival, ticket).
    future: VecDeque<Queued<'q>>,
    /// Arrived, awaiting admission, in arrival order.
    queue: Vec<Queued<'q>>,
    /// Admitted, replaying (at most `concurrency` entries): the ticket and
    /// everything known at admission — `start` / `end` arrive with the
    /// completion. `wave` doubles as the replay-session slot: both count
    /// this session's admissions.
    in_flight: Vec<(u64, QueryOutcome)>,
    /// Virtual instants at which the currently-free slots became free.
    /// Admissions consume the earliest, completions push their end — a
    /// completion frees its slot at its *end*, which the replay session
    /// (stepping in event-start order) can report before an arrival that
    /// precedes it is processed; admitting on `replay.live()` alone would
    /// overlap the two. Invariant between events:
    /// `free.len() + replay.live() == concurrency`.
    free: Vec<SimTime>,
    /// Per-tenant admission tokens under [`ServerConfig::tenant_quota`],
    /// same shape as `free`; an empty vector is a tenant at its cap. A
    /// tenant gets its tokens when its first request arrives. Unused
    /// without a quota.
    tenant_tokens: HashMap<u32, Vec<SimTime>>,
    /// The latest admission's predicted pages — the overlap policy chains
    /// on them.
    last_admitted: Vec<PageId>,
    /// Admission events so far: the next one's ordinal.
    admissions: usize,
    open: Option<OpenInterval>,
    closed: Vec<WaveStats>,
    /// Pool-counter snapshot at the latest admission event: each interval
    /// covers the counters up to the next, so they partition the aggregate.
    last_stats: BufferStats,
}

impl<'q> ServeSession<'q> {
    /// Hand the session a request; returns its ticket (0, 1, 2, … in
    /// submission order), which [`Self::poll_completion`] reports back. The
    /// request arrives at `session start + req.arrival`, or at
    /// [`Self::clock`] if that instant has already passed. A request id of 0
    /// becomes `ticket + 1`.
    pub fn submit(&mut self, mut req: ServerRequest<'q>) -> u64 {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        if req.request == 0 {
            req.request = ticket + 1;
        }
        let at = (self.base + req.arrival).max(self.clock);
        // Tickets only grow, so inserting after every entry that is not
        // later keeps (arrival, ticket) order.
        let pos = self.future.partition_point(|q| q.at <= at);
        self.future.insert(
            pos,
            Queued {
                ticket,
                req,
                at,
                pred: None,
            },
        );
        ticket
    }

    /// Requests submitted and not yet completed.
    pub fn pending(&self) -> usize {
        self.future.len() + self.queue.len() + self.in_flight.len()
    }

    /// The latest virtual instant the session has reached.
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// The admission intervals closed since the last call, in admission
    /// order. An interval closes at the next admission (or at
    /// [`Self::finish`]), so the latest admission's is not among them yet.
    pub fn take_intervals(&mut self) -> Vec<WaveStats> {
        std::mem::take(&mut self.closed)
    }

    /// Process events in virtual-time order up to and including the next
    /// completion; `None` once nothing is pending. An admission happens at
    /// `max(earliest free-slot instant, the query's arrival)` — and under a
    /// tenant quota no earlier than the tenant's earliest token — so an
    /// arrival that finds a free slot is admitted at once and one that finds
    /// every slot busy is injected at the slot-freeing completion's end.
    pub fn poll_completion(&mut self, srv: &mut PrefetchServer<'_>) -> Option<(u64, QueryOutcome)> {
        let quota = srv.cfg.tenant_quota.map(|q| q.max(1));
        loop {
            let (t, kind) = self.next_event(quota)?;
            self.clock = self.clock.max(t);
            let completed = match kind {
                ARRIVE => {
                    let q = self.future.pop_front().expect("an arrival was scheduled");
                    let rec = srv.rt.recorder_mut();
                    rec.add("server.arrivals", 1);
                    rec.instant(
                        SERVER_TRACK,
                        "server",
                        "server.arrive",
                        q.at.as_micros(),
                        &[("query", q.ticket)],
                    );
                    if let Some(quota) = quota {
                        self.tenant_tokens
                            .entry(q.req.tenant)
                            .or_insert_with(|| vec![q.at; quota]);
                    }
                    self.queue.push(q);
                    None
                }
                ADMIT => self.admit(srv, quota, t),
                _ => self.replay.step(&mut srv.rt),
            };
            if let Some(c) = completed {
                return Some(self.complete(srv, quota, c));
            }
            debug_assert_eq!(
                self.free.len() + self.replay.live(),
                srv.cfg.concurrency.max(1),
                "slot accounting"
            );
        }
    }

    /// The earliest of: next arrival, next feasible admission, next replay
    /// step.
    fn next_event(&self, quota: Option<usize>) -> Option<(SimTime, u8)> {
        let next_arrival = self.future.front().map(|q| q.at);
        // Queued arrivals all precede the admission instant (events are
        // processed in nondecreasing virtual time), so the earliest the
        // scheduler can dispatch is when the queue head has arrived AND a
        // slot is free — AND, under a tenant quota, the query's tenant holds
        // a token. A quota-blocked head never blocks other tenants: the scan
        // covers the whole queue, earliest feasible instant wins.
        let admit_at = match (self.queue.first(), self.free.iter().min()) {
            (Some(head), Some(&fmin)) => match quota {
                None => Some(fmin.max(head.at)),
                Some(_) => self
                    .queue
                    .iter()
                    .filter_map(|q| {
                        let tmin = self.tenant_tokens[&q.req.tenant].iter().min()?;
                        Some(fmin.max(q.at).max(*tmin))
                    })
                    .min(),
            },
            _ => None,
        };
        let step_at = self.replay.next_event_time();
        [
            next_arrival.map(|t| (t, ARRIVE)),
            admit_at.map(|t| (t, ADMIT)),
            step_at.map(|t| (t, STEP)),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// One admission at `t`: batched inference over the queue, the policy's
    /// pick among the feasible, injection into the replay session. Returns
    /// the completion of an empty-trace query, which is done — and has freed
    /// its slot — the instant it is admitted.
    fn admit(
        &mut self,
        srv: &mut PrefetchServer<'_>,
        quota: Option<usize>,
        t: SimTime,
    ) -> Option<SessionCompletion> {
        take_earliest(&mut self.free).expect("admission scheduled with a free slot");
        if let Some(hook) = srv.admission_hook.as_mut() {
            hook(self.admissions);
        }
        let inferred = srv.batch_infer_missing(&mut self.queue, t);
        // Queue positions admissible at `t`: all of them without a quota;
        // with one, those whose tenant holds a token freed by now.
        let feasible: Vec<usize> = (0..self.queue.len())
            .filter(|&k| {
                quota.is_none()
                    || self.tenant_tokens[&self.queue[k].req.tenant]
                        .iter()
                        .any(|&f| f <= t)
            })
            .collect();
        let (pick, overlap) = match srv.cfg.policy {
            QueuePolicy::Fifo => (
                *feasible
                    .first()
                    .expect("admission scheduled with a feasible query"),
                None,
            ),
            QueuePolicy::Overlap => {
                // Ranked on the full prediction: empty before inference, or
                // without a predictor.
                let sets: Vec<&[PageId]> = feasible
                    .iter()
                    .map(|&k| self.queue[k].pred.as_ref().map_or(&[][..], |e| &e.list))
                    .collect();
                let (k, score) = pick_next_by_overlap_scored(&self.last_admitted, &sets);
                (feasible[k], Some(score))
            }
        };
        let queue_depth = self.queue.len();
        let q = self.queue.remove(pick);
        if quota.is_some() {
            let tokens = self
                .tenant_tokens
                .get_mut(&q.req.tenant)
                .expect("tokens were issued at the tenant's first arrival");
            take_earliest(tokens).expect("admitted tenant holds a token");
        }
        let budget = srv
            .cfg
            .prefetch_budget
            .unwrap_or_else(|| default_budget(srv.rt.pool_frames()));
        let run = q.run(budget);
        let inference = run.inference_latency;
        let wait_us = t.since(q.at).as_micros();
        if srv.rt.recorder().is_enabled() {
            let rec = srv.rt.recorder_mut();
            rec.add("server.admitted", 1);
            // The overlap policy's winning Jaccard score rides along (e6
            // fixed-point) so postmortem dumps show how good each pick was;
            // FIFO admits omit the arg.
            let args = [
                ("query", q.ticket),
                ("request", q.req.request),
                ("overlap_e6", (overlap.unwrap_or(0.0) * 1e6) as u64),
            ];
            let args = &args[..if overlap.is_some() { 3 } else { 2 }];
            rec.instant(SERVER_TRACK, "server", "server.admit", t.as_micros(), args);
            rec.observe("server.admission_wait_us", wait_us);
        }
        let occupancy = srv.cfg.concurrency.max(1) - self.free.len();
        let (slot, done) = self.replay.inject(&mut srv.rt, run, t);
        debug_assert_eq!(slot, self.admissions);
        self.in_flight.push((
            q.ticket,
            QueryOutcome {
                arrival: q.at,
                admitted: t,
                start: t,
                end: t,
                wave: self.admissions,
                inference,
                tenant: q.req.tenant,
                request: q.req.request,
            },
        ));
        self.admissions += 1;
        // Close the previous admission's interval and open this one's.
        let now_stats = srv.rt.stats();
        self.close_interval(srv, now_stats, t);
        self.open = Some(OpenInterval {
            wave: WaveStats {
                admitted_at: t,
                occupancy,
                queue_depth,
                inferred,
                inference,
                stats: BufferStats::default(),
                tenant: q.req.tenant,
            },
            span: q.req.span_name,
            wait_us,
        });
        if srv.cfg.policy == QueuePolicy::Overlap {
            self.last_admitted = q.pred.map(|e| e.list).unwrap_or_default();
        }
        done
    }

    /// Close the open interval over the counters accumulated up to
    /// `now_stats` and feed it to the quality tracker.
    fn close_interval(
        &mut self,
        srv: &mut PrefetchServer<'_>,
        now_stats: BufferStats,
        at: SimTime,
    ) {
        if let Some(mut iv) = self.open.take() {
            iv.wave.stats = now_stats.diff(&self.last_stats);
            srv.feed_quality(&iv.wave, iv.span, iv.wait_us, at.as_micros());
            self.closed.push(iv.wave);
        }
        self.last_stats = now_stats;
    }

    fn complete(
        &mut self,
        srv: &mut PrefetchServer<'_>,
        quota: Option<usize>,
        c: SessionCompletion,
    ) -> (u64, QueryOutcome) {
        let pos = self
            .in_flight
            .iter()
            .position(|(_, o)| o.wave == c.slot)
            .expect("completed query was admitted");
        let (ticket, mut o) = self.in_flight.swap_remove(pos);
        (o.start, o.end) = (c.timing.start, c.timing.end);
        self.clock = self.clock.max(o.end);
        let rec = srv.rt.recorder_mut();
        rec.add("server.completions", 1);
        rec.instant(
            SERVER_TRACK,
            "server",
            "server.complete",
            o.end.as_micros(),
            &[("query", ticket), ("request", o.request)],
        );
        srv.emit_request_spans(&o);
        self.free.push(o.end);
        if quota.is_some() {
            self.tenant_tokens
                .get_mut(&o.tenant)
                .expect("token consumed at admission")
                .push(o.end);
        }
        (ticket, o)
    }

    /// Close the session once nothing is pending: settle the replay session
    /// (end-of-session prefetch-waste accounting, stack clock past the last
    /// completion), close the tail interval over what that added, and return
    /// every interval nobody has taken.
    pub fn finish(mut self, srv: &mut PrefetchServer<'_>) -> Vec<WaveStats> {
        debug_assert_eq!(self.pending(), 0, "finish() with requests pending");
        std::mem::take(&mut self.replay).finish(&mut srv.rt);
        let (final_stats, now) = (srv.rt.stats(), srv.rt.now());
        self.close_interval(srv, final_stats, now);
        self.closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PythiaConfig;
    use crate::predictor::{train_workload, TrainedWorkload};
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
            db.insert(t, &Database::row([i]));
        }
        let plan = PlanNode::SeqScan {
            table: t,
            pred: None,
        };
        (db, plan)
    }

    /// Config with a zero fixed charge.
    fn cont_cfg(concurrency: usize, policy: QueuePolicy) -> ServerConfig {
        ServerConfig {
            concurrency,
            policy,
            charge: InferenceCharge::Fixed(SimDuration::ZERO),
            ..ServerConfig::default()
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

        let mut srv = PrefetchServer::new(&db, &run_cfg(), cont_cfg(2, QueuePolicy::Fifo));
        let rep = srv.serve(&reqs);

        // One admission per query: two of the three simultaneous arrivals at
        // once (the first sees all three queued), the leftover when the first
        // slot frees, the late one into an idle server.
        assert_eq!(rep.waves.len(), 4);
        assert_eq!(rep.waves[0].queue_depth, 3);
        let occupancy: Vec<usize> = rep.waves.iter().map(|w| w.occupancy).collect();
        assert_eq!(occupancy, [1, 2, 2, 1]);
        assert!(rep.waves[3].admitted_at >= SimTime::ZERO + late);
        assert_eq!(rep.max_queue_depth(), 3);

        // FIFO: the third arrival waited for a slot, and got the first freed.
        assert_eq!(rep.queries[2].wave, 2);
        assert!(rep.queries[2].admission_wait() > SimDuration::ZERO);
        assert_eq!(
            rep.queries[2].admitted,
            rep.queries[0].end.min(rep.queries[1].end)
        );
        // The late arrival never queued.
        assert_eq!(rep.queries[3].admission_wait(), SimDuration::ZERO);
        // Interval stats sum to the aggregate.
        let mut sum = BufferStats::default();
        for w in &rep.waves {
            sum.merge(&w.stats);
        }
        assert_eq!(sum, rep.stats);
    }

    #[test]
    fn c1_fifo_matches_serial_runtime_runs() {
        // The determinism contract the property tests generalize: concurrency 1 +
        // FIFO + fixed charge ≡ serial Runtime::run calls on one warm stack.
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

        let mut srv = PrefetchServer::new(&db, &run_cfg(), cont_cfg(1, QueuePolicy::Fifo));
        let rep = srv.serve(&reqs);

        let mut rt = Runtime::new(&run_cfg(), db.file_lengths());
        for ((t, arrival), q) in traces.iter().zip(arrivals).zip(&rep.queries) {
            rt.advance_to(SimTime::ZERO + arrival);
            let res = rt.run(&[QueryRun::default_run(t)]);
            assert_eq!(q.start, res.timings[0].start);
            assert_eq!(q.end, res.timings[0].end);
        }
        assert_eq!(rep.stats, rt.stats());
        // Each query ran alone, in arrival order, back to back.
        assert_eq!(rep.waves.len(), 3);
        assert!(rep.queries[1].start >= rep.queries[0].end);
        assert!(rep.queries[2].start >= rep.queries[1].end);
    }

    #[test]
    fn admits_on_completion_under_skew() {
        // One long query plus four short ones, all arriving together, two
        // slots: the shorts stream through the second slot while the long
        // query still holds the first.
        let (db, plan) = dummy_db_and_plan();
        let long = random_trace(400);
        let shorts: Vec<Trace> = (0..4).map(|_| random_trace(30)).collect();
        let mut reqs = vec![ServerRequest::new(&plan, &long, SimDuration::ZERO)];
        reqs.extend(
            shorts
                .iter()
                .map(|t| ServerRequest::new(&plan, t, SimDuration::ZERO)),
        );
        let cfg = ServerConfig {
            concurrency: 2,
            ..ServerConfig::default()
        };
        let rep = PrefetchServer::new(&db, &run_cfg(), cfg).serve(&reqs);

        // The third query is admitted the moment the first short completes,
        // long before the long query finishes.
        assert!(rep.queries[2].admitted < rep.queries[0].end);
        assert_eq!(rep.waves.len(), reqs.len());
        assert!(rep.waves.iter().all(|w| (1..=2).contains(&w.occupancy)));
    }

    #[test]
    fn overlap_policy_without_predictions_degrades_to_fifo() {
        let (db, plan) = dummy_db_and_plan();
        let traces: Vec<Trace> = (0..4).map(|_| random_trace(30)).collect();
        let reqs: Vec<ServerRequest<'_>> = traces
            .iter()
            .map(|t| ServerRequest::new(&plan, t, SimDuration::ZERO))
            .collect();

        let mut fifo = PrefetchServer::new(&db, &run_cfg(), cont_cfg(2, QueuePolicy::Fifo));
        let mut ovlp = PrefetchServer::new(&db, &run_cfg(), cont_cfg(2, QueuePolicy::Overlap));
        let a = fifo.serve(&reqs);
        let b = ovlp.serve(&reqs);
        assert_eq!(a.stats, b.stats);
        for (qa, qb) in a.queries.iter().zip(&b.queries) {
            assert_eq!(qa.wave, qb.wave);
            assert_eq!(qa.start, qb.start);
            assert_eq!(qa.end, qb.end);
        }
    }

    #[test]
    fn concurrency_zero_behaves_as_one() {
        // The documented clamp: "values below 1 behave as 1" — concurrency 0
        // must serve bit-identically to 1.
        let (db, plan) = dummy_db_and_plan();
        let traces: Vec<Trace> = vec![random_trace(40), random_trace(20), random_trace(30)];
        let reqs: Vec<ServerRequest<'_>> = traces
            .iter()
            .enumerate()
            .map(|(i, t)| ServerRequest::new(&plan, t, SimDuration::from_micros(i as u64 * 100)))
            .collect();

        let mut zero = PrefetchServer::new(&db, &run_cfg(), cont_cfg(0, QueuePolicy::Fifo));
        let mut one = PrefetchServer::new(&db, &run_cfg(), cont_cfg(1, QueuePolicy::Fifo));
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
        assert!(text.contains("0 queries, 0 admissions"), "{text}");

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
            // A queries/admissions mismatch must not trip any indexing either.
            waves: Vec::new(),
            stats: BufferStats::default(),
        };
        assert_eq!(degenerate.makespan(), SimDuration::ZERO);
        assert_eq!(degenerate.throughput_qps(), 0.0);
        assert!(!degenerate.mean_occupancy().is_nan());
        assert!(degenerate.report().contains("1 queries, 0 admissions"));
    }

    #[test]
    fn report_mentions_admission_metrics() {
        let (db, plan) = dummy_db_and_plan();
        let t = random_trace(20);
        let reqs = [
            ServerRequest::new(&plan, &t, SimDuration::ZERO),
            ServerRequest::new(&plan, &t, SimDuration::from_micros(5)),
        ];
        let mut srv = PrefetchServer::new(&db, &run_cfg(), cont_cfg(1, QueuePolicy::Fifo));
        let rep = srv.serve(&reqs).report();
        for needle in [
            "Serving report",
            "admission 0",
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

    /// A tiny star schema and a dozen index-probe queries over it, with a
    /// model trained on the first eight.
    fn mini_star() -> (Database, Vec<PlanNode>, Vec<Trace>) {
        let mut db = Database::new();
        let fact = db.create_table("fact", Schema::ints(&["id", "date", "dkey"]));
        let dim = db.create_table("dim", Schema::ints(&["d_id", "attr"]));
        for i in 0..800i64 {
            let date = i / 2;
            let dkey = (date * 300 / 400 + i % 3).min(299);
            db.insert(fact, &Database::row([i, date, dkey]));
        }
        for d in 0..300i64 {
            db.insert(dim, &Database::row([d, d % 9]));
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
        (db, plans, traces)
    }

    fn train_mini(db: &Database, plans: &[PlanNode], traces: &[Trace]) -> TrainedWorkload {
        // The paper's threshold: these tests read what the model prefetches.
        let cfg = PythiaConfig {
            epochs: 6,
            batch_size: 8,
            threshold: Some(0.5),
            ..PythiaConfig::fast()
        };
        train_workload(db, "mini", &plans[..8], &traces[..8], None, &cfg)
    }

    /// End-to-end with a trained model: Poisson-ish staggered arrivals.
    #[test]
    fn serves_with_trained_predictor_and_charges_inference() {
        let (db, plans, traces) = mini_star();
        let tw = train_mini(&db, &plans, &traces);

        let inf = SimDuration::from_millis(2);
        let server_cfg = ServerConfig {
            charge: InferenceCharge::Fixed(inf),
            ..cont_cfg(2, QueuePolicy::Overlap)
        };
        let reqs: Vec<ServerRequest<'_>> = plans[8..]
            .iter()
            .zip(&traces[8..])
            .enumerate()
            .map(|(i, (p, t))| ServerRequest::new(p, t, SimDuration::from_micros(i as u64 * 40)))
            .collect();
        let mut srv = PrefetchServer::new(&db, &run_cfg(), server_cfg).with_predictor(&tw);
        // The server serves `tw`'s weights, not a copy of them.
        let served = srv.fleet.any().expect("with_predictor publishes");
        assert!(Arc::ptr_eq(&served.workload.groups, &tw.groups));
        assert_eq!(srv.model_version(), Some(1));
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

        // Serving from a shared fleet is bit-identical to `with_predictor`'s
        // own, even with a mid-stream hot swap to identical weights
        // published by the admission hook (versions bump, outcomes don't).
        let fleet = Arc::new(TenantFleet::new("t0"));
        fleet.publish(tw.clone());
        let mut reg_srv =
            PrefetchServer::new(&db, &run_cfg(), server_cfg).with_registry(Arc::clone(&fleet));
        let swapper = Arc::clone(&fleet);
        let spare = tw.clone();
        reg_srv.set_admission_hook(move |k| {
            if k == 2 {
                swapper.publish(spare.clone());
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

    /// Every field of two outcomes but `wave` (a session's admission ordinal).
    fn assert_same_outcome(a: &QueryOutcome, b: &QueryOutcome, what: &str) {
        assert_eq!(
            (a.arrival, a.admitted, a.start, a.end),
            (b.arrival, b.admitted, b.start, b.end),
            "{what}"
        );
        assert_eq!(
            (a.inference, a.tenant, a.request),
            (b.inference, b.tenant, b.request),
            "{what}"
        );
    }

    #[test]
    fn closed_loop_session_equals_one_request_serves() {
        // The pin beneath the sockets' virtual time: a client that submits
        // each request after reading the previous answer gets, through one
        // long-lived session, what it got from one `serve` call per request.
        let (db, plans, traces) = mini_star();
        let tw = train_mini(&db, &plans, &traces);
        for concurrency in [1, 2] {
            for model in [None, Some(&tw)] {
                let what = format!("C={concurrency} model={}", model.is_some());
                let cfg = ServerConfig {
                    charge: InferenceCharge::Fixed(SimDuration::from_micros(150)),
                    ..cont_cfg(concurrency, QueuePolicy::Fifo)
                };
                let build = || {
                    let srv = PrefetchServer::new(&db, &run_cfg(), cfg);
                    match model {
                        Some(tw) => srv.with_predictor(tw),
                        None => srv,
                    }
                };
                let (mut one, mut twin) = (build(), build());
                let mut session = one.session();
                for round in 0..3 {
                    for (i, (p, t)) in plans.iter().zip(&traces).enumerate() {
                        let req = ServerRequest::new(p, t, SimDuration::ZERO)
                            .with_request(1000 * round + i as u64 + 1);
                        let ticket = session.submit(req);
                        let (done, got) = session.poll_completion(&mut one).expect("one pending");
                        assert_eq!(done, ticket);
                        assert!(session.poll_completion(&mut one).is_none());
                        let want = twin.serve(&[req]);
                        assert_same_outcome(&got, &want.queries[0], &what);
                        assert_eq!(session.clock(), twin.runtime().now(), "{what}");
                    }
                }
                if model.is_some() {
                    assert!(one.runtime().stats().prefetch_issued > 0, "{what}");
                }
                session.finish(&mut one);
                assert_eq!(one.runtime().now(), twin.runtime().now(), "{what}");
            }
        }
    }

    #[test]
    fn a_session_holds_nothing_it_has_completed() {
        let (db, plan) = dummy_db_and_plan();
        let traces: Vec<Trace> = vec![random_trace(3), Trace::new(), random_trace(1)];
        let mut srv = PrefetchServer::new(&db, &run_cfg(), cont_cfg(2, QueuePolicy::Fifo));
        let mut session = srv.session();
        let (mut submitted, mut completed, mut intervals) = (0u64, 0u64, 0usize);
        for turn in 0..10_000usize {
            // Mostly one at a time, now and then a burst of three.
            for k in 0..if turn % 100 == 0 { 3 } else { 1 } {
                let t = &traces[(turn + k) % traces.len()];
                session.submit(ServerRequest::new(&plan, t, SimDuration::ZERO));
                submitted += 1;
            }
            while let Some((ticket, _)) = session.poll_completion(&mut srv) {
                assert!(ticket < submitted);
                completed += 1;
            }
            intervals += session.take_intervals().len();
            assert!(session.closed.is_empty(), "take_intervals leaves nothing");
        }
        assert_eq!(completed, submitted);
        assert_eq!(session.pending(), 0);
        assert_eq!(session.replay.live(), 0);
        assert!(session.future.is_empty() && session.queue.is_empty());
        assert!(session.in_flight.is_empty() && session.open.is_some());
        for (what, capacity) in [
            ("future", session.future.capacity()),
            ("queue", session.queue.capacity()),
            ("in_flight", session.in_flight.capacity()),
            ("free", session.free.capacity()),
        ] {
            assert!(capacity <= 8, "{what} grew to {capacity}");
        }
        // All but the open interval were handed over on the way.
        assert_eq!(intervals as u64, submitted - 1);
        assert_eq!(session.finish(&mut srv).len(), 1);
    }

    #[test]
    fn a_late_submit_arrives_at_the_clock() {
        let (db, plan) = dummy_db_and_plan();
        let traces: Vec<Trace> = (0..4).map(|i| random_trace(10 + i * 5)).collect();
        let cfg = ServerConfig {
            tenant_quota: Some(1),
            ..cont_cfg(2, QueuePolicy::Fifo)
        };
        let mut srv = PrefetchServer::new(&db, &run_cfg(), cfg);
        let mut session = srv.session();
        let mut clock = session.clock();
        let mut poll = |session: &mut ServeSession<'_>, srv: &mut PrefetchServer<'_>| {
            let done = session.poll_completion(srv);
            assert!(session.clock() >= clock, "the clock went back");
            clock = session.clock();
            assert_eq!(session.free.len() + session.replay.live(), 2, "slots");
            done
        };

        session.submit(ServerRequest::new(&plan, &traces[0], SimDuration::ZERO));
        let (_, first) = poll(&mut session, &mut srv).expect("first");
        assert_eq!(session.clock(), first.end);

        // An arrival offset in the session's past lands at its clock.
        let past = SimDuration::from_micros(5);
        assert!(SimTime::ZERO + past < session.clock());
        session.submit(ServerRequest::new(&plan, &traces[1], past));
        let (_, late) = poll(&mut session, &mut srv).expect("late");
        assert_eq!(late.arrival, first.end);
        assert_eq!(late.admission_wait(), SimDuration::ZERO);

        // One in the future still arrives when it says.
        let ahead = session.clock() + SimDuration::from_secs(1);
        session.submit(ServerRequest::new(
            &plan,
            &traces[2],
            ahead.since(SimTime::ZERO),
        ));
        let (_, future) = poll(&mut session, &mut srv).expect("future");
        assert_eq!(future.arrival, ahead);

        // A tenant first seen mid-session gets its quota tokens: its two
        // requests arrive together and, at quota 1, run one after the other
        // although a second slot is free.
        let at = session.clock();
        for t in [&traces[3], &traces[0]] {
            session.submit(ServerRequest::new(&plan, t, SimDuration::ZERO).with_tenant(7));
        }
        let (_, a) = poll(&mut session, &mut srv).expect("tenant 7, first");
        let (_, b) = poll(&mut session, &mut srv).expect("tenant 7, second");
        assert_eq!((a.arrival, b.arrival), (at, at));
        assert_eq!(a.admitted, at);
        assert_eq!(b.admitted, a.end, "quota 1 serializes the tenant");
        assert!(poll(&mut session, &mut srv).is_none());
        session.finish(&mut srv);
        assert_eq!(srv.runtime().now(), b.end);
    }

    #[test]
    fn a_minnow_submitted_behind_a_running_whale_completes_first() {
        // No barrier between submissions: a request handed over while a long
        // one is mid-replay is admitted into the free slot and polled first.
        // Through `serve` alone the only way to run both is one call that
        // returns after the whale.
        let (db, plan) = dummy_db_and_plan();
        let whale = random_trace(400);
        let probe: Trace = [TraceEvent::Cpu { units: 1 }].into_iter().collect();
        let minnow = random_trace(5);
        let mut srv = PrefetchServer::new(&db, &run_cfg(), cont_cfg(2, QueuePolicy::Fifo));
        let mut session = srv.session();

        let whale_ticket = session.submit(ServerRequest::new(&plan, &whale, SimDuration::ZERO));
        // The probe's one CPU event ends inside the whale's first disk read,
        // so polling it back leaves the whale exactly one step in.
        let probe_ticket = session.submit(ServerRequest::new(&plan, &probe, SimDuration::ZERO));
        let (ticket, probed) = session.poll_completion(&mut srv).expect("probe");
        assert_eq!(ticket, probe_ticket);
        assert_eq!(session.pending(), 1, "the whale is still replaying");

        let minnow_ticket = session.submit(ServerRequest::new(&plan, &minnow, SimDuration::ZERO));
        let (ticket, small) = session.poll_completion(&mut srv).expect("minnow");
        assert_eq!(
            ticket, minnow_ticket,
            "the minnow is polled before the whale"
        );
        let (ticket, big) = session.poll_completion(&mut srv).expect("whale");
        assert_eq!(ticket, whale_ticket);
        assert!(session.poll_completion(&mut srv).is_none());

        assert_eq!(small.arrival, probed.end, "arrived at the clock");
        assert_eq!(
            small.admitted, small.arrival,
            "into the slot the probe freed"
        );
        assert!(small.end < big.end);
        assert_eq!(session.finish(&mut srv).len(), 3);
    }

    #[test]
    fn a_prefetched_load_is_settled_once_across_serve_calls() {
        // Every serve call closes over the same warm pool. The first runs a
        // query that reads nothing its plan predicts, so each prefetch is
        // written off when the call closes; the frames stay resident, and the
        // later calls — whose query does read them — must count them neither
        // useful on that late read nor wasted again.
        let (db, plans, traces) = mini_star();
        let tw = train_mini(&db, &plans, &traces);
        let idle: Trace = [TraceEvent::Cpu { units: 1 }].into_iter().collect();
        let mut srv = PrefetchServer::new(&db, &run_cfg(), cont_cfg(2, QueuePolicy::Fifo))
            .with_predictor(&tw);
        for (call, trace) in [&idle, &traces[9], &traces[9]].into_iter().enumerate() {
            srv.serve(&[ServerRequest::new(&plans[9], trace, SimDuration::ZERO)]);
            let s = srv.runtime().stats();
            assert!(s.prefetch_issued > 0);
            assert_eq!(s.prefetch_wasted, s.prefetch_issued, "call {call}");
            assert_eq!(s.prefetch_useful, 0, "call {call}");
        }
        assert!(srv.runtime().stats().hits > 0, "the late reads happened");
    }

    #[test]
    fn tenant_quota_zero_clamps_to_one() {
        // The satellite pin: quota 0 behaves as quota 1, mirroring the
        // concurrency clamp.
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
        let with_quota = |quota| ServerConfig {
            tenant_quota: Some(quota),
            ..cont_cfg(4, QueuePolicy::Fifo)
        };
        let mut zero = PrefetchServer::new(&db, &run_cfg(), with_quota(0));
        let mut one = PrefetchServer::new(&db, &run_cfg(), with_quota(1));
        let a = zero.serve(&reqs);
        let b = one.serve(&reqs);
        assert_eq!(a.stats, b.stats);
        for (qa, qb) in a.queries.iter().zip(&b.queries) {
            assert_eq!(qa.admitted, qb.admitted);
            assert_eq!(qa.start, qb.start);
            assert_eq!(qa.end, qb.end);
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

        // Per-tenant reports partition the global totals (every admission
        // interval is attributed to one tenant).
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
        let mut srv = PrefetchServer::new(&db, &run_cfg(), cont_cfg(2, QueuePolicy::Fifo))
            .with_quality(QualityTracker::default());
        srv.set_recorder(Recorder::enabled());
        let rep = srv.serve(&reqs);

        let rec = srv.recorder();
        assert_eq!(rec.event_count("quality.observe"), rep.waves.len());
        assert_eq!(rec.counter("quality.observations"), rep.waves.len() as u64);
        let q = srv.quality().expect("a tracker was attached");
        assert_eq!(q.tenant_ids(), vec![0, 1]);
        // Each tenant's window holds fewer intervals than the window length,
        // so it is exactly the merge of the report's intervals for that
        // tenant — the same `BufferStats`, handed over as they are.
        let span = pythia_db::runtime::DEFAULT_REPLAY_SPAN;
        for t in [0u32, 1] {
            let mut stats = BufferStats::default();
            let mut intervals = 0;
            for w in rep.waves.iter().filter(|w| w.tenant == t) {
                stats.merge(&w.stats);
                intervals += 1;
            }
            let waits: u64 = rep
                .queries
                .iter()
                .filter(|o| o.tenant == t)
                .map(|o| o.admission_wait().as_micros())
                .sum();
            let win = q.window(t, span).expect("the tenant was served");
            assert_eq!(win.stats, stats, "tenant {t}");
            assert_eq!(win.outcomes, intervals, "tenant {t}");
            assert_eq!(win.wait_us, waits, "tenant {t}");
            assert_eq!(q.observations(t), intervals);
        }
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
        let mut tracked = PrefetchServer::new(&db, &run_cfg(), cont_cfg(2, QueuePolicy::Fifo))
            .with_quality(QualityTracker::default());
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
    }

    /// `slow_requests` and `/debug/slow` share one ranking: on equal
    /// latency the request offered first stays first, whatever its id.
    #[test]
    fn slow_requests_rank_ties_like_the_slow_log() {
        let done = |request: u64, latency_us: u64| QueryOutcome {
            arrival: SimTime::ZERO,
            admitted: SimTime::ZERO,
            start: SimTime::ZERO,
            end: SimTime::ZERO + SimDuration::from_micros(latency_us),
            wave: 0,
            inference: SimDuration::ZERO,
            tenant: 0,
            request,
        };
        // Minted ids run against input order on the tie.
        let rep = ServeReport {
            queries: vec![done(9, 500), done(5, 100), done(3, 500)],
            waves: Vec::new(),
            stats: BufferStats::default(),
        };
        let ids = |k| -> Vec<u64> { rep.slow_requests(k).iter().map(|b| b.request).collect() };
        assert_eq!(ids(2), [9, 3]);
        assert_eq!(ids(1), [9]);
        let mut live = pythia_obs::request::SlowLog::default();
        for q in &rep.queries {
            live.offer(q.breakdown());
        }
        assert_eq!(rep.slow_requests(3), live.entries());
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
        let shared = pythia_obs::Shared::default();
        srv.recorder_mut().set_flight_publisher(shared.clone());
        srv.set_slow_threshold(Some(SimDuration::ZERO)); // everything is slow
        srv.serve(&reqs);
        assert_eq!(srv.recorder().counter("server.slow_requests"), 2);
        let dump = shared.get().expect("slow completions publish a dump");
        assert!(dumped_on_slow_request(&dump), "{dump}");
        assert!(
            dump.contains("request.replay"),
            "dump carries the request span tree"
        );
        assert!(dump.contains("\"ph\":\"s\""), "dump carries flow links");
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
        let shared = pythia_obs::Shared::default();
        srv.recorder_mut().set_flight_publisher(shared.clone());
        srv.set_slow_threshold(Some(SimDuration::ZERO));
        srv.serve(&reqs);
        let dump = shared.get().expect("always-on ring captured the request");
        assert!(dumped_on_slow_request(&dump), "{dump}");
        assert!(dump.contains("request.replay"), "{dump}");
        assert!(dump.contains("request-1"), "request track name dumped");
    }

    /// Whether a flight dump was triggered by a slow request: its last event
    /// is the trigger's own instant, whose category is the reason.
    fn dumped_on_slow_request(dump: &str) -> bool {
        let trigger = "\"cat\":\"slow.request\",\"name\":\"flight.trigger\"";
        dump.lines()
            .rev()
            .nth(1)
            .is_some_and(|l| l.contains(trigger))
    }

    /// A long-lived session declares `query-N` and `request-N` tracks per
    /// request and `serving-loop` once, so in a last-N recorder's
    /// FIFO-bounded name table the serving loop's name would be the first
    /// to go; re-declared where it is recorded on, it survives any number
    /// of requests.
    #[test]
    fn flight_dump_keeps_the_serving_loop_name_in_a_long_session() {
        let (db, plan) = dummy_db_and_plan();
        let traces: Vec<Trace> = (0..12).map(|i| random_trace(10 + i)).collect();
        let reqs: Vec<ServerRequest<'_>> = traces
            .iter()
            .enumerate()
            .map(|(i, t)| ServerRequest::new(&plan, t, SimDuration::from_micros(i as u64 * 40)))
            .collect();
        let mut srv = PrefetchServer::new(&db, &run_cfg(), cont_cfg(2, QueuePolicy::Fifo));
        let mut rec = Recorder::bounded();
        rec.set_flight_capacity(16);
        srv.set_recorder(rec);
        srv.serve(&reqs);
        let dump = srv.recorder().flight_dump_json();
        assert!(dump.contains("request-12"), "{dump}");
        assert!(
            dump.contains(
                r#"{"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"serving-loop"}}"#
            ),
            "{dump}"
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
        assert_eq!(ghost.stats.hit_rate(), 0.0);
        assert_eq!(ghost.stats.prefetch_f1(), 0.0);
        // The tenant that did issue queries aggregates them all.
        assert_eq!(rep.tenant_report(0).queries, 2);
    }
}
