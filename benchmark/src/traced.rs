//! The traced run (`--trace 1`): the layer cost table, separate from the
//! timed runs.
//!
//! It replays held-out queries through the staged pipeline with spans on,
//! loops around every other layer, serves the workload's shape for the
//! counts, and sends one traced pass over a socket. Layer groups that the
//! workload does not pick a variant for run in their default variant
//! (`serve_c4_long`'s shape, `socket_trained`'s child), so every traced run
//! reports every per-layer metric.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use pythia::nn::pool::{configured_threads, set_thread_override};
use pythia::obs::Recorder;
use pythia::sim::PageId;

use crate::catalog::{Value, Values};
use crate::fixture::{self, Fixture, Query, Sizes};
use crate::layers::{self, STAGES};
use crate::serve::{self, ServeResult, Shape, VirtualOutcome};
use crate::socket::{self, Flavor};
use crate::spans::{self, Span, Tracer};
use crate::stats::{self, Summary};

pub struct TracedRun {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub spans: Vec<Span>,
}

/// The table being filled, and the checks and request counts that ride
/// along.
struct Table<'a> {
    fx: &'a Fixture,
    sizes: &'a Sizes,
    values: Values,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Table<'_> {
    fn put(&mut self, name: &'static str, value: Value) {
        self.values.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.values[name].value
    }

    /// p95 of `sorted`, with a complaint (standard sizes only) when fewer
    /// than ten samples lie beyond it.
    fn put_p95(&mut self, name: &'static str, sorted: &[f64]) {
        if !self.sizes.quick && stats::tail_percentile(sorted.len()) < 0.95 {
            self.problems
                .push(format!("{} samples are too few for {name}", sorted.len()));
        }
        self.put(
            name,
            Value::of_n(stats::quantile_sorted(sorted, 0.95), sorted.len()),
        );
    }

    /// Count one more `serve` call's requests and its ill-ordered outcomes.
    fn count_arm(&mut self, arm: &serve::Arm, arrivals_us: &[u64]) {
        self.attempted += arrivals_us.len() as u64;
        self.failed += serve::failed_outcomes(&arm.report, arrivals_us) as u64;
    }

    fn count_served(&mut self, served: &ServeResult) {
        self.attempted += served.attempted;
        self.failed += served.failed;
        self.problems.extend(served.problems.iter().cloned());
    }
}

fn median_us(by_name: &BTreeMap<&'static str, Vec<f64>>, name: &str) -> Summary {
    let ns = by_name.get(name).map(Vec::as_slice).unwrap_or(&[]);
    Summary::of(&ns.iter().map(|ns| ns / 1e3).collect::<Vec<_>>())
}

fn scale(s: Summary, k: f64) -> Summary {
    Summary {
        median: s.median * k,
        q1: s.q1 * k,
        q3: s.q3 * k,
        n: s.n,
    }
}

/// The pool width to compare this run's against: two threads for a run on
/// one (what `run.sh` pins), one for a run on more.
fn other_pool_width() -> usize {
    if configured_threads() == 1 {
        2
    } else {
        1
    }
}

/// Set-up, as the fixture timed it.
fn setup_rows(t: &mut Table<'_>, traced: &[Query]) {
    let (fx, sizes) = (t.fx, t.sizes);
    let times = &fx.times;
    t.put("workloads.build_s", Value::one(times.build_s));
    t.put(
        "db.exec.execute_ms_per_query",
        Value::of_n(
            times.execute_ms_per_query,
            fx.train.len() + fx.heldout.len(),
        ),
    );
    let events: usize = fx.heldout.iter().map(|q| q.trace.events.len()).sum();
    t.put(
        "db.exec.events_per_query",
        Value::of_n(events as f64 / fx.heldout.len() as f64, fx.heldout.len()),
    );
    t.put("core.predictor.train_s", Value::one(times.train_s));
    let examples = (sizes.train_queries * sizes.epochs) as f64;
    t.put(
        "core.predictor.train_examples_per_s",
        Value::one(examples / times.train_s),
    );
    t.put(
        "nn.train_sys_cpu_share",
        Value::one(times.train_cpu.sys_share()),
    );
    t.put(
        "core.predictor.model_bytes",
        Value::one(fx.tw.size_bytes() as f64),
    );
    t.put(
        "core.predictor.heldout_f1",
        Value::of_n(fx.heldout_f1(traced.len()), traced.len()),
    );
}

/// Kernels and the model, alone.
fn model_rows(t: &mut Table<'_>, traced: &[Query]) {
    let fx = t.fx;
    let plans: Vec<_> = traced.iter().map(|q| &q.plan).collect();
    t.put(
        "nn.gemm_gflops_256",
        Value::median(layers::gemm_gflops(256, 256, 256)),
    );
    t.put(
        "nn.gemm_gflops_decoder",
        Value::median(layers::gemm_gflops(32, 800, 2000)),
    );
    // What the worker pool costs, seen where it is used: a burst of
    // single-query inferences on the other pool width.
    let burst = &plans[..plans.len().min(100)];
    set_thread_override(other_pool_width());
    let cost = layers::infer_cpu_cost(fx, burst);
    set_thread_override(0);
    t.put(
        "nn.infer_other_width_ms",
        Value::of_n(cost.ms_per_infer, burst.len()),
    );
    t.put(
        "nn.infer_sys_cpu_share",
        Value::of_n(cost.sys_cpu_share, burst.len()),
    );
    t.put(
        "nn.ctx_switches_per_infer",
        Value::of_n(cost.ctx_switches_per_infer, burst.len()),
    );
    t.put(
        "core.predictor.infer_batch8_ms_per_query",
        Value::median(layers::infer_batch8_ms_per_query(fx, &plans)),
    );
}

struct Pipeline {
    spans: Vec<Span>,
    /// Capped prefetch list of each traced query.
    lists: Vec<Vec<PageId>>,
    /// Sum of the stage medians, per query.
    stages_ms: f64,
}

/// The staged pipeline, untraced and traced in turn; the difference is what
/// tracing costs.
fn pipeline_rows(t: &mut Table<'_>, traced: &[Query], origin: Instant) -> Pipeline {
    let mut walls = [Vec::new(), Vec::new()];
    let mut spans = Vec::new();
    let mut lists = Vec::new();
    for round in 0..4 {
        let on = round % 2 == 1;
        let mut tracer = Tracer::new(origin, 0, on);
        let staged = layers::staged_pipeline(t.fx, traced, &mut tracer);
        walls[usize::from(on)].push(staged.wall_s);
        if on && spans.is_empty() {
            spans = tracer.into_spans();
            lists = staged.lists;
        }
    }
    let (untraced_s, traced_s) = (stats::median(&walls[0]), stats::median(&walls[1]));
    t.put(
        "bench.trace_overhead_pct",
        Value::of_n((traced_s - untraced_s) / untraced_s * 100.0, 4),
    );
    let by_name = spans::self_times_by_name(&spans);
    let stage = |name| median_us(&by_name, name);
    t.put("core.serialize.encode_us", Value::median(stage(STAGES[0])));
    t.put(
        "core.predictor.infer_ms",
        Value::median(scale(stage(STAGES[1]), 1e-3)),
    );
    t.put("core.prefetch.list_us", Value::median(stage(STAGES[2])));
    t.put(
        "db.runtime.replay_us_per_query",
        Value::median(stage(STAGES[3])),
    );
    t.put(
        "core.frontend.outcome_json_ns",
        Value::median(scale(stage(STAGES[4]), 1e3)),
    );
    t.put("bench.request_glue_us", Value::median(stage("request")));
    let pages: usize = lists.iter().map(Vec::len).sum();
    t.put(
        "core.prefetch.pages_per_query",
        Value::of_n(pages as f64 / lists.len() as f64, lists.len()),
    );
    let stages_ms = STAGES.iter().map(|s| stage(s).median).sum::<f64>() / 1e3;
    Pipeline {
        spans,
        lists,
        stages_ms,
    }
}

/// The replay stack and its parts.
fn stack_rows(t: &mut Table<'_>, traced: &[Query], lists: &[Vec<PageId>]) {
    let fx = t.fx;
    let few = &traced[..traced.len().min(50)];
    let few_lists = &lists[..few.len()];
    t.put(
        "core.scheduler.pick16_us",
        Value::median(layers::scheduler_pick16_us(lists)),
    );
    t.put(
        "db.runtime.replay_mevents_per_s",
        Value::median(layers::replay_mevents_per_s(fx, few, None)),
    );
    t.put(
        "db.runtime.replay_prefetch_mevents_per_s",
        Value::median(layers::replay_mevents_per_s(fx, few, Some(few_lists))),
    );
    t.put(
        "db.runtime.session_step_ns_100",
        Value::median(layers::session_step_ns(fx, traced, 100)),
    );
    t.put(
        "db.runtime.session_step_ns_1600",
        Value::median(layers::session_step_ns(fx, traced, 1600)),
    );
    let stack = layers::stack_costs(fx, few, few_lists);
    t.put(
        "buffer.pool_ns_per_access",
        Value::median(stack.pool_ns_per_access),
    );
    t.put(
        "buffer.aio_ns_per_page",
        Value::median(stack.aio_ns_per_page),
    );
    t.put(
        "sim.oscache_ns_per_read",
        Value::median(stack.oscache_ns_per_read),
    );
    t.put(
        "sim.iopool_ns_per_schedule",
        Value::median(stack.iopool_ns_per_schedule),
    );
}

/// The wire layer with nothing behind it.
fn frontend_rows(t: &mut Table<'_>) -> std::io::Result<()> {
    let fe = layers::frontend_costs(t.sizes.frontend_round_trips)?;
    t.put(
        "core.frontend.healthz_roundtrip_us",
        Value::median(fe.healthz_roundtrip_us),
    );
    t.put(
        "core.frontend.query_roundtrip_us",
        Value::median(fe.query_roundtrip_us),
    );
    Ok(())
}

/// The serving loop in the workload's shape: counts off the reports, and
/// the wall clock of both arms.
fn serving_rows(t: &mut Table<'_>, shape: &Shape, seed: u64) -> ServeResult {
    let fx = t.fx;
    let served = serve::run(fx, shape, seed, t.sizes.traced_serve_seconds, 2);
    t.count_served(&served);
    let rep = &served.pythia_report;
    let n = rep.queries.len() as f64;
    let s = rep.stats;
    t.put("buffer.hit_rate", Value::one(s.hit_rate()));
    t.put(
        "buffer.prefetch_precision",
        Value::one(s.prefetch_precision()),
    );
    t.put(
        "buffer.prefetch_wasted_share",
        Value::one(s.prefetch_wasted as f64 / s.prefetch_issued.max(1) as f64),
    );
    t.put(
        "buffer.evictions_per_query",
        Value::one(s.evictions as f64 / n),
    );
    t.put(
        "sim.disk_reads_per_query",
        Value::one(s.disk_reads as f64 / n),
    );
    let batches: Vec<f64> = rep
        .waves
        .iter()
        .filter(|w| w.inferred > 0)
        .map(|w| w.inferred as f64)
        .collect();
    t.put(
        "core.server.mean_infer_batch",
        Value::of_n(stats::mean(&batches), batches.len()),
    );
    t.put(
        "core.server.mean_occupancy",
        Value::one(rep.mean_occupancy()),
    );
    t.put(
        "core.server.max_queue_depth",
        Value::one(rep.max_queue_depth() as f64),
    );
    let waits: Vec<f64> = rep
        .queries
        .iter()
        .map(|q| q.admission_wait().as_micros() as f64 / 1e3)
        .collect();
    t.put(
        "core.server.virt_admission_wait_p99_ms",
        Value::of_n(
            stats::quantile_sorted(&stats::sorted(&waits), 0.99),
            waits.len(),
        ),
    );
    t.put(
        "core.server.virt_makespan_speedup",
        Value::one(served.virt_makespan_speedup),
    );
    t.put(
        "core.server.virt_latency_p95_ms",
        Value::of_n(served.virt_p95_ms, served.virt_queries),
    );
    t.put("core.server.host_qps", Value::median_of(&served.pythia_qps));
    t.put(
        "core.server.dflt_host_qps",
        Value::median_of(&served.dflt_qps),
    );
    let gaps = stats::sorted(&served.admit_gaps_ms);
    t.put(
        "core.server.admit_gap_p50_ms",
        Value::of_n(stats::quantile_sorted(&gaps, 0.5), gaps.len()),
    );
    t.put_p95("core.server.admit_gap_p95_ms", &gaps);
    let set0 = &fx.heldout[shape.sets[0].clone()];
    let standalone_s = layers::standalone_replay_s(fx, set0);
    t.put(
        "core.server.admission_us_per_query",
        Value::one((served.dflt_wall_s - standalone_s) * 1e6 / set0.len() as f64),
    );
    served
}

/// What an enabled recorder costs the Pythia-arm `serve` over set 0.
fn recorder_rows(t: &mut Table<'_>, shape: &Shape, served: &ServeResult) {
    let fx = t.fx;
    let set0 = &fx.heldout[shape.sets[0].clone()];
    let arrivals = &served.set0_arrivals_us;
    let mut walls = [Vec::new(), Vec::new()];
    let mut events = 0usize;
    for round in 0..4 {
        let on = round % 2 == 1;
        let recorder = if on {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        };
        let arm = serve::serve_arm(fx, set0, arrivals, shape.concurrency, true, recorder);
        t.count_arm(&arm, arrivals);
        walls[usize::from(on)].push(arm.wall_s);
        if on {
            events = arm.recorder.events().len();
            if VirtualOutcome::of(&arm.report) != VirtualOutcome::of(&served.pythia_report) {
                t.problems.push(
                    "serving with the recorder enabled changed virtual outcomes or counts"
                        .to_owned(),
                );
            }
        }
    }
    let (off_s, on_s) = (stats::median(&walls[0]), stats::median(&walls[1]));
    t.put(
        "obs.serve_overhead_pct",
        Value::of_n((on_s - off_s) / off_s * 100.0, 4),
    );
    t.put(
        "obs.ns_per_event",
        Value::of_n((on_s - off_s) * 1e9 / events.max(1) as f64, events),
    );
    t.put(
        "obs.events_per_query",
        Value::one(events as f64 / set0.len() as f64),
    );
}

/// Reconciliation: the stage medians against what a query costs the
/// `serve_c1_short` Pythia arm, where nothing else is going on.
fn reconcile_rows(
    t: &mut Table<'_>,
    shape: &Shape,
    seed: u64,
    served: &ServeResult,
    stages_ms: f64,
) {
    let sizes = t.sizes;
    let c1_served = (shape.concurrency != 1).then(|| {
        let c1 = Shape::c1_short(sizes.heldout, sizes.c1_set, sizes.closed_batch);
        serve::run(t.fx, &c1, seed, sizes.traced_c1_seconds, 2)
    });
    if let Some(r) = &c1_served {
        t.count_served(r);
    }
    let c1_qps = &c1_served.as_ref().unwrap_or(served).pythia_qps;
    let c1_ms = Summary::of(&c1_qps.iter().map(|qps| 1e3 / qps).collect::<Vec<_>>());
    t.put("bench.c1_host_ms_per_query", Value::median(c1_ms));
    t.put(
        "bench.reconcile_serve_pct",
        Value::one(stages_ms / c1_ms.median * 100.0),
    );
}

/// One traced pass over a real socket; returns its client-side spans.
fn socket_rows(
    t: &mut Table<'_>,
    flavor: Flavor,
    serve_demo: &Path,
    seed: u64,
    origin: Instant,
) -> std::io::Result<Vec<Span>> {
    let per_pass = t.sizes.socket_requests(flavor);
    let pass = socket::run_pass(
        serve_demo,
        flavor,
        &|catalog| socket::request_sequence(per_pass, flavor, catalog, seed),
        Some(origin),
    )?;
    t.attempted += pass.sent as u64;
    t.failed += pass.failed as u64;
    if pass.accepted != pass.sent as u64 {
        t.problems.push(format!(
            "child accepted {} of {} requests sent",
            pass.accepted, pass.sent
        ));
    }
    let client = spans::self_times_by_name(&pass.spans);
    for (metric, span) in [
        ("client.connect_us", "client.connect"),
        ("client.write_us", "client.write"),
        ("client.wait_us", "client.wait"),
        ("client.read_us", "client.read"),
    ] {
        t.put(metric, Value::median(median_us(&client, span)));
    }
    t.put("serve_demo.startup_s", Value::one(pass.startup_s));
    t.put(
        "serve_demo.threads_peak",
        Value::one(pass.threads_peak as f64),
    );
    t.put(
        "obs.rss_kb_per_request",
        Value::of_n(
            pass.rss_end_kb.saturating_sub(pass.rss_start_kb) as f64 / pass.sent as f64,
            pass.sent,
        ),
    );
    let latencies = stats::sorted(&socket::Pass::good(&pass.latency_ms));
    let p50_ms = stats::quantile_sorted(&latencies, 0.5);
    t.put("serve_demo.host_qps", Value::of_n(pass.qps(), pass.sent));
    t.put(
        "serve_demo.req_p50_ms",
        Value::of_n(p50_ms, latencies.len()),
    );
    t.put_p95("serve_demo.req_p95_ms", &latencies);
    let infer_ms = if flavor.train {
        t.get("core.predictor.infer_ms")
    } else {
        0.0
    };
    let accounted_ms = t.get("core.frontend.query_roundtrip_us") / 1e3
        + infer_ms
        + t.get("db.runtime.replay_us_per_query") / 1e3
        + t.get("core.frontend.outcome_json_ns") / 1e6;
    t.put(
        "serve_demo.unattributed_ms",
        Value::of_n(p50_ms - accounted_ms, pass.sent),
    );
    Ok(pass.spans)
}

/// The repository's bit-identity contract, end to end: a model trained on
/// the other pool width predicts, and so serves, exactly as this run's.
fn check_pool_width_identity(
    t: &mut Table<'_>,
    shape: &Shape,
    served: &ServeResult,
    traced: &[Query],
) {
    let fx = t.fx;
    let db = &fx.bench.db;
    let set0 = &fx.heldout[shape.sets[0].clone()];
    let arrivals = &served.set0_arrivals_us;
    set_thread_override(other_pool_width());
    let other = fixture::train(&fx.bench, &fx.train, t.sizes);
    let same_predictions = traced
        .iter()
        .all(|q| other.infer(db, &q.plan).as_set() == fx.tw.infer(db, &q.plan).as_set());
    let arm = serve::serve_arm(
        fx,
        set0,
        arrivals,
        shape.concurrency,
        true,
        Recorder::disabled(),
    );
    set_thread_override(0);
    t.count_arm(&arm, arrivals);
    if !same_predictions {
        t.problems
            .push("a model trained on another pool width predicts differently".to_owned());
    }
    if VirtualOutcome::of(&arm.report) != VirtualOutcome::of(&served.pythia_report) {
        t.problems
            .push("serving on another pool width changed virtual outcomes or counts".to_owned());
    }
}

pub fn run(
    fx: &Fixture,
    sizes: &Sizes,
    shape: &Shape,
    flavor: Flavor,
    serve_demo: &Path,
    seed: u64,
) -> std::io::Result<TracedRun> {
    let origin = Instant::now();
    let traced = &fx.heldout[..sizes.traced_queries.min(fx.heldout.len())];
    let mut t = Table {
        fx,
        sizes,
        values: Values::new(),
        problems: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    setup_rows(&mut t, traced);
    model_rows(&mut t, traced);
    let pipeline = pipeline_rows(&mut t, traced, origin);
    stack_rows(&mut t, traced, &pipeline.lists);
    frontend_rows(&mut t)?;
    let served = serving_rows(&mut t, shape, seed);
    recorder_rows(&mut t, shape, &served);
    reconcile_rows(&mut t, shape, seed, &served, pipeline.stages_ms);
    let client_spans = socket_rows(&mut t, flavor, serve_demo, seed, origin)?;
    // Last, because the seconds after a training (gigabytes allocated and
    // freed) are the noisiest this process gets: a child spawned right then
    // ran three times slower.
    check_pool_width_identity(&mut t, shape, &served, traced);

    let mut all_spans = pipeline.spans;
    spans::merge(&mut all_spans, client_spans);
    Ok(TracedRun {
        values: t.values,
        attempted: t.attempted,
        failed: t.failed,
        problems: t.problems,
        spans: all_spans,
    })
}
