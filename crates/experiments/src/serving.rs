//! Figure 13d through the serving loop: Poisson arrivals against the
//! admission-controlled prefetch server.
//!
//! The original Figure 13d replays a pre-built batch with Poisson arrival
//! offsets through one [`pythia_db::runtime::Runtime::run`] call — every
//! query is "admitted" the moment it arrives. A deployed database instead
//! admits under a concurrency limit, so this experiment re-expresses the
//! sweep through [`PrefetchServer`]: queries arrive on the same Poisson
//! process, queue, get batch-inferred per admission wave, and replay
//! concurrently up to the admission limit. Scheduling extensions are then
//! one-flag variants of the same loop — the table compares DFLT (no
//! predictor) against Pythia under FIFO and under the §7 overlap scheduler.
//!
//! The barrier-wave loop `pythia-core` once served through lives on here as
//! a baseline, [`serve_waves`]: the wave-vs-continuous gap under skewed
//! per-query cost is what the `(wave)` rows and [`admission_snapshot`] measure.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pythia_core::predictor::TrainedWorkload;
use pythia_core::prefetch::{cap_to_budget, engage};
use pythia_core::server::{
    InferenceCharge, PrefetchServer, QueryOutcome, QueuePolicy, ServeReport, ServerConfig,
    ServerRequest, WaveStats,
};
use pythia_db::catalog::Database;
use pythia_db::runtime::{QueryRun, RunConfig, Runtime};
use pythia_obs::Recorder;
use pythia_sim::{SimDuration, SimTime};
use pythia_workloads::templates::Template;

use crate::harness::{mean, Env};
use crate::output::{f2, Table};

/// Queries admitted concurrently per wave (the paper's machine runs a small
/// number of backends at once; 2 keeps contention visible at quick scale).
const CONCURRENCY: usize = 2;
/// Queries in each served stream.
const N_QUERIES: usize = 6;

/// Which admission loop a serving run goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// [`PrefetchServer::serve`]: admit-on-completion under a queue policy.
    Continuous(QueuePolicy),
    /// The barrier baseline, [`serve_waves`]: FIFO by construction.
    Waves,
}

/// The barrier-wave baseline: admit up to `concurrency` queued queries in
/// arrival order, replay the whole wave to completion through one
/// [`Runtime::run`], and only then look at the queue again — so a long query
/// strands the slots of the short ones that finished beside it. Each wave
/// first runs one batched inference over every queued query lacking a
/// prediction and charges its measured latency. One [`WaveStats`] per wave
/// (`tenant: None`: a wave mixes queries). Fresh stack, untraced.
///
/// With `concurrency = 1` and no model this is *bit-identical* to serial
/// `Runtime::run` calls on one warm stack, like the admission loop it is
/// compared against (`c1_waves_match_serial_runtime_runs`).
pub fn serve_waves(
    db: &Database,
    run_cfg: &RunConfig,
    tw: Option<&TrainedWorkload>,
    concurrency: usize,
    requests: &[ServerRequest<'_>],
) -> ServeReport {
    let mut rt = Runtime::new(run_cfg, db.file_lengths());
    let n = requests.len();
    let abs: Vec<SimTime> = requests.iter().map(|r| rt.now() + r.arrival).collect();
    // Arrival order, stable by request index.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (abs[i], i));
    // Limited prefetching (§5.1): the serving loop's default budget.
    let budget = rt.pool_frames() * 3 / 4;
    // A request's replay run, from its inference to its dispatch.
    let mut runs: Vec<Option<QueryRun<'_>>> = vec![None; n];
    let mut queries: Vec<QueryOutcome> = Vec::with_capacity(n);
    let mut waves: Vec<WaveStats> = Vec::new();
    let mut queue: Vec<usize> = Vec::new();
    let mut next = 0;
    while next < n || !queue.is_empty() {
        // Pull in everything that has arrived by the current clock.
        while next < n && abs[order[next]] <= rt.now() {
            queue.push(order[next]);
            next += 1;
        }
        if queue.is_empty() {
            // Idle until the next arrival.
            rt.advance_to(abs[order[next]]);
            continue;
        }
        let (admitted_at, queue_depth) = (rt.now(), queue.len());
        let mut inferred = 0;
        if let Some(tw) = tw {
            let missing: Vec<usize> = queue
                .iter()
                .copied()
                .filter(|&i| runs[i].is_none())
                .collect();
            let plans: Vec<_> = missing.iter().map(|&i| requests[i].plan).collect();
            let (lists, charge) = engage(db, tw, &plans);
            inferred = missing.len();
            for (i, list) in missing.into_iter().zip(lists) {
                let list = cap_to_budget(list, budget);
                runs[i] = Some(QueryRun {
                    prefetch: (!list.is_empty()).then_some(list),
                    inference_latency: charge,
                    ..QueryRun::default_run(requests[i].trace)
                });
            }
        }
        // The wave: the queue's head. New arrivals wait for it to drain.
        let members: Vec<usize> = queue.drain(..concurrency.max(1).min(queue_depth)).collect();
        let wave: Vec<QueryRun<'_>> = members
            .iter()
            .map(|&i| {
                let run = runs[i].take();
                run.unwrap_or_else(|| QueryRun::default_run(requests[i].trace))
            })
            .collect();
        let before = rt.stats();
        let res = rt.run(&wave);
        for ((&i, run), t) in members.iter().zip(&wave).zip(&res.timings) {
            queries.push(QueryOutcome {
                arrival: abs[i],
                admitted: admitted_at,
                start: t.start,
                end: t.end,
                wave: waves.len(),
                inference: run.inference_latency,
                tenant: requests[i].tenant,
                request: i as u64 + 1,
            });
        }
        waves.push(WaveStats {
            admitted_at,
            occupancy: members.len(),
            queue_depth,
            inferred,
            inference: wave
                .iter()
                .fold(SimDuration::ZERO, |sum, run| sum + run.inference_latency),
            stats: res.stats.diff(&before),
            tenant: None,
        });
    }
    // Request ids are `index + 1`: back into input order.
    queries.sort_unstable_by_key(|q| q.request);
    ServeReport {
        queries,
        waves,
        stats: rt.stats(),
    }
}

/// Poisson arrival offsets: exponential inter-arrival gaps with the given
/// mean (first arrival at zero).
fn poisson_arrivals(n: usize, mean_gap_us: f64, rng: &mut StdRng) -> Vec<SimDuration> {
    let mut arrivals = Vec::with_capacity(n);
    let mut t = 0.0f64;
    for i in 0..n {
        if i > 0 {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -mean_gap_us * u.ln();
        }
        arrivals.push(SimDuration::from_micros(t as u64));
    }
    arrivals
}

/// Serve one Poisson-arrival stream of `template` test queries end to end.
///
/// `overlap` is the expected consecutive overlap fraction (Figure 13d's
/// x-axis): the mean inter-arrival gap is `(1 - overlap) ×` the expected
/// DFLT runtime. `tw = None` is the DFLT baseline (no prefetching);
/// `admission` selects wave-barrier or admit-on-completion refill.
pub fn serve_poisson(
    env: &Env,
    template: Template,
    tw: Option<&TrainedWorkload>,
    admission: Admission,
    overlap: f64,
    seed: u64,
) -> ServeReport {
    let (rep, _) = serve_poisson_inner(
        env,
        template,
        tw,
        admission,
        overlap,
        seed,
        InferenceCharge::Measured,
        Recorder::disabled(),
    );
    rep
}

/// Inference charge used by traced runs: a fixed virtual cost keeps every
/// timestamp in the trace independent of host speed, so two same-seed runs
/// produce byte-identical virtual-time traces ([`InferenceCharge::Measured`]
/// would leak wall-clock noise into admission times).
pub const TRACED_INFER_CHARGE_US: u64 = 150;

/// One Poisson stream through the chosen loop under `charge`, with
/// `recorder` on the serving stack and — if it is enabled — NN wall-task
/// capture on for the duration of the call and a quality tracker attached.
/// Returns the report and the recorder holding the run's events.
#[allow(clippy::too_many_arguments)]
fn serve_poisson_inner(
    env: &Env,
    template: Template,
    tw: Option<&TrainedWorkload>,
    admission: Admission,
    overlap: f64,
    seed: u64,
    charge: InferenceCharge,
    recorder: Recorder,
) -> (ServeReport, Recorder) {
    let w = env.prepare(template);
    let idxs: Vec<usize> = (0..N_QUERIES)
        .map(|i| w.test_idx[i % w.test_idx.len()])
        .collect();

    // Expected single-query DFLT runtime calibrates the arrival rate.
    let probes: Vec<f64> = idxs
        .iter()
        .take(3)
        .map(|&qi| {
            env.cold_time(&env.run_cfg, &w.traces[qi], None, SimDuration::ZERO)
                .as_micros() as f64
        })
        .collect();
    let mean_gap = (1.0 - overlap) * mean(&probes);
    let mut rng = StdRng::seed_from_u64(seed);
    let arrivals = poisson_arrivals(idxs.len(), mean_gap, &mut rng);

    let requests: Vec<ServerRequest<'_>> = idxs
        .iter()
        .zip(&arrivals)
        .map(|(&qi, &arrival)| ServerRequest {
            plan: &w.queries[qi].plan,
            trace: &w.traces[qi],
            arrival,
            // Template-derived span name: repeated shapes group in Perfetto.
            span_name: template.replay_span(),
            tenant: 0,
            request: 0,
        })
        .collect();
    let Admission::Continuous(policy) = admission else {
        let rep = serve_waves(&env.bench.db, &env.run_cfg, tw, CONCURRENCY, &requests);
        return (rep, recorder);
    };
    let cfg = ServerConfig {
        concurrency: CONCURRENCY,
        policy,
        charge,
        ..ServerConfig::default()
    };
    let mut server = PrefetchServer::new(&env.bench.db, &env.run_cfg, cfg);
    if let Some(tw) = tw {
        server = server.with_predictor(tw);
    }
    // Traced runs stream per-admission quality telemetry (quality.observe
    // instants, labeled series); the untraced sweep path stays bare. The
    // tracker reads interval diffs only, so virtual-time determinism holds
    // either way.
    if recorder.is_enabled() {
        server = server.with_quality(std::sync::Arc::new(std::sync::Mutex::new(
            pythia_obs::quality::QualityTracker::default(),
        )));
    }
    server.set_recorder(recorder);
    let capture = server.recorder().is_enabled();
    // NN capture (pool task spans + training telemetry) may already be on:
    // [`dump_trace`] enables it *before* training so the epoch ladder lands
    // in the same trace. Only toggle the flags this call turned on itself;
    // absorbing drains whatever accumulated either way.
    let was_on = pythia_obs::wall::enabled();
    if capture && !was_on {
        pythia_obs::wall::drain();
        pythia_obs::train::drain();
        pythia_obs::wall::set_enabled(true);
        pythia_obs::train::set_enabled(true);
    }
    let rep = server.serve(&requests);
    let mut rec = server.take_recorder();
    if capture {
        if !was_on {
            pythia_obs::wall::set_enabled(false);
            pythia_obs::train::set_enabled(false);
        }
        rec.absorb_wall_tasks(pythia_obs::wall::drain());
        rec.absorb_train_telemetry(pythia_obs::train::drain());
    }
    (rep, rec)
}

/// Value of a `--<name> <value>` (or `--<name>=<value>`) command-line flag,
/// if present.
fn flag_value(name: &str) -> Option<String> {
    let long = format!("--{name}");
    let prefixed = format!("--{name}=");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == long {
            return args.next();
        }
        if let Some(p) = a.strip_prefix(&prefixed) {
            return Some(p.to_owned());
        }
    }
    None
}

/// Value of the `--trace-out <path>` (or `--trace-out=<path>`) command-line
/// flag, if present. Experiment binaries use this to dump a Perfetto-loadable
/// Chrome trace of one traced serving run.
pub fn trace_out_arg() -> Option<String> {
    flag_value("trace-out")
}

/// Value of `--metrics-addr <host:port>`: serve the live metrics snapshot
/// over HTTP for the duration of the traced run (`curl <addr>/metrics`).
pub fn metrics_addr_arg() -> Option<String> {
    flag_value("metrics-addr")
}

/// Value of `--metrics-out <path>`: write the final metrics snapshot JSON
/// next to the trace (what CI uploads as an artifact).
pub fn metrics_out_arg() -> Option<String> {
    flag_value("metrics-out")
}

/// Value of `--admission-out <path>`: write the wave-vs-continuous
/// [`admission_snapshot`] JSON to the given path (CI uploads it alongside
/// the trace artifacts).
pub fn admission_out_arg() -> Option<String> {
    flag_value("admission-out")
}

/// Value of `--drift-out <path>`: write the drift-injection sweep's
/// before/after [`crate::drift::drift_snapshot`] JSON to the given path (CI
/// gates on the stationary run reporting zero alerts).
pub fn drift_out_arg() -> Option<String> {
    flag_value("drift-out")
}

/// Score the trained workload on its held-out test queries (one batched
/// inference) and buffer one `nn.heldout_f1` telemetry record per query.
fn record_heldout_f1(env: &Env, template: Template, tw: &TrainedWorkload) {
    let w = env.prepare(template);
    let modeled = tw.modeled_objects();
    let preds = tw.infer_batch(&env.bench.db, &w.test_plans());
    for (qi, ((_, trace), pred)) in w.test_queries().zip(&preds).enumerate() {
        let truth = pythia_core::predictor::ground_truth(trace, &modeled);
        let f1 = pythia_core::f1_score(&pred.as_set(), &truth).f1;
        pythia_obs::train::record_f1(qi as u64, pythia_obs::train::to_e6(f1));
    }
}

/// Run the canonical traced serving run (Fig 13d's 75%-overlap point under
/// continuous admission and the overlap scheduler) and write its Chrome
/// trace JSON to `path`.
///
/// Training-telemetry capture is turned on *before* the (cached) model
/// training, so a cold `Env` contributes its whole epoch ladder — per-epoch
/// `nn.epoch` spans, loss/grad-norm histograms, held-out F1 instants — to
/// the exported trace. With `metrics_addr`, the run's metrics snapshot is
/// served live at `http://<addr>/metrics` (Prometheus text) until the
/// process exits; with `metrics_out`, the final snapshot JSON is written to
/// that path.
pub fn dump_trace(
    env: &Env,
    path: &str,
    metrics_addr: Option<&str>,
    metrics_out: Option<&str>,
) -> ServeReport {
    // Enable NN capture up front so training (if this Env hasn't trained
    // T18 yet) is observed; serve_poisson_inner sees the flag already on
    // and leaves lifecycle management to us.
    pythia_obs::wall::drain();
    pythia_obs::train::drain();
    pythia_obs::wall::set_enabled(true);
    pythia_obs::train::set_enabled(true);

    let shared = pythia_obs::serve::SharedSnapshot::new();
    let metrics_server = metrics_addr.map(|addr| {
        let srv = pythia_obs::serve::MetricsServer::start(addr, shared.clone())
            .unwrap_or_else(|e| panic!("binding metrics endpoint {addr}: {e}"));
        eprintln!("[pythia] metrics live at http://{}/metrics", srv.addr());
        srv
    });
    let mut recorder = Recorder::enabled();
    if metrics_server.is_some() {
        recorder.set_publisher(shared);
    }

    let tw = env.trained_default(Template::T18);
    record_heldout_f1(env, Template::T18, tw.as_ref());

    let (rep, rec) = serve_poisson_inner(
        env,
        Template::T18,
        Some(tw.as_ref()),
        // The canonical traced run: the admission loop under the overlap
        // scheduler.
        Admission::Continuous(QueuePolicy::Overlap),
        0.75,
        env.cfg.seed ^ 0x5E4B,
        InferenceCharge::Fixed(SimDuration::from_micros(TRACED_INFER_CHARGE_US)),
        recorder,
    );
    pythia_obs::wall::set_enabled(false);
    pythia_obs::train::set_enabled(false);
    rec.publish();

    std::fs::write(path, rec.chrome_trace_json())
        .unwrap_or_else(|e| panic!("writing trace to {path}: {e}"));
    eprintln!(
        "[pythia] wrote Perfetto trace ({} events, {} queries) to {path}",
        rec.events().len(),
        rep.queries.len()
    );
    if let Some(out) = metrics_out {
        std::fs::write(out, rec.snapshot().to_json())
            .unwrap_or_else(|e| panic!("writing metrics snapshot to {out}: {e}"));
        eprintln!("[pythia] wrote metrics snapshot to {out}");
    }
    // The endpoint (if any) stays up until the process exits; leaking the
    // handle keeps the accept thread alive without blocking shutdown.
    if let Some(srv) = metrics_server {
        std::mem::forget(srv);
    }
    rep
}

/// The serving-loop sweep: Figure 13d's overlap axis × admission mode ×
/// serving policy. The DFLT baseline goes through the wave-barrier baseline
/// loop; the Pythia variants cover wave FIFO against continuous FIFO and the
/// §7 overlap scheduler under continuous admission.
pub fn run(env: &Env) -> Table {
    let mut t = Table::new(
        "Serving loop: Poisson arrivals through admission control (Fig 13d re-expressed) — T18",
        &[
            "expected overlap",
            "variant",
            "makespan speedup vs DFLT",
            "mean admission wait",
            "mean occupancy",
            "max queue depth",
        ],
    );
    let tw = env.trained_default(Template::T18);

    for &overlap in &[0.25f64, 0.5, 0.75, 1.0] {
        let seed = env.cfg.seed ^ 0x5E ^ (overlap * 100.0) as u64;
        let dflt = serve_poisson(env, Template::T18, None, Admission::Waves, overlap, seed);
        let variants = [
            ("pythia FIFO (wave)", Admission::Waves),
            (
                "pythia FIFO (continuous)",
                Admission::Continuous(QueuePolicy::Fifo),
            ),
            (
                "pythia overlap-sched (continuous)",
                Admission::Continuous(QueuePolicy::Overlap),
            ),
        ];
        for (name, admission) in variants {
            let rep = serve_poisson(
                env,
                Template::T18,
                Some(tw.as_ref()),
                admission,
                overlap,
                seed,
            );
            t.row(vec![
                format!("{:.0}%", overlap * 100.0),
                name.to_string(),
                f2(dflt.makespan().as_micros() as f64 / rep.makespan().as_micros().max(1) as f64),
                rep.mean_admission_wait().to_string(),
                f2(rep.mean_occupancy()),
                rep.max_queue_depth().to_string(),
            ]);
        }
    }
    t
}

/// Wave-vs-continuous admission under a deliberately skewed request mix: the
/// template's longest-trace query plus its shortest companions, all arriving
/// at once under a tight concurrency limit. A wave barrier strands a slot
/// behind the whale; admit-on-completion backfills it. Returns the
/// comparison as a small JSON document (what `--admission-out` writes and CI
/// uploads next to the trace artifacts).
pub fn admission_snapshot(env: &Env) -> String {
    let w = env.prepare(Template::T18);
    // Sort this template's queries by trace length: one whale + minnows.
    let mut by_len: Vec<usize> = (0..w.traces.len()).collect();
    by_len.sort_by_key(|&qi| std::cmp::Reverse(w.traces[qi].events.len()));
    let whale = by_len[0];
    let minnows: Vec<usize> = by_len.iter().rev().take(5).copied().collect();

    let mut idxs = vec![whale];
    idxs.extend(&minnows);
    let requests: Vec<ServerRequest<'_>> = idxs
        .iter()
        .map(|&qi| {
            ServerRequest::new(
                &w.queries[qi].plan,
                &w.traces[qi],
                // Simultaneous arrivals: admission order is pure policy.
                SimDuration::ZERO,
            )
        })
        .collect();

    let wave = serve_waves(&env.bench.db, &env.run_cfg, None, CONCURRENCY, &requests);
    let cfg = ServerConfig {
        concurrency: CONCURRENCY,
        charge: InferenceCharge::Fixed(SimDuration::from_micros(TRACED_INFER_CHARGE_US)),
        ..ServerConfig::default()
    };
    let cont = PrefetchServer::new(&env.bench.db, &env.run_cfg, cfg).serve(&requests);

    format!(
        "{{\n  \"queries\": {},\n  \"concurrency\": {},\n  \"whale_trace_pages\": {},\n  \
         \"wave_makespan_us\": {},\n  \"continuous_makespan_us\": {},\n  \
         \"wave_throughput_qps\": {:.3},\n  \"continuous_throughput_qps\": {:.3},\n  \
         \"continuous_speedup\": {:.3}\n}}\n",
        requests.len(),
        CONCURRENCY,
        w.traces[whale].events.len(),
        wave.makespan().as_micros(),
        cont.makespan().as_micros(),
        wave.throughput_qps(),
        cont.throughput_qps(),
        wave.makespan().as_micros() as f64 / cont.makespan().as_micros().max(1) as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExpConfig;

    #[test]
    fn dflt_serving_reports_admission_metrics() {
        let cfg = ExpConfig {
            scale: 0.05,
            n_queries: 12,
            test_frac: 0.25,
            ..ExpConfig::quick()
        };
        let env = Env::new(cfg);
        for admission in [Admission::Waves, Admission::Continuous(QueuePolicy::Fifo)] {
            // High overlap → arrivals bunch up → the concurrency limit must
            // actually queue some queries.
            let rep = serve_poisson(&env, Template::T91, None, admission, 1.0, 7);
            assert_eq!(rep.queries.len(), N_QUERIES);
            assert!(!rep.waves.is_empty());
            assert!(rep.waves.iter().all(|w| w.occupancy <= CONCURRENCY));
            assert!(
                rep.max_queue_depth() >= CONCURRENCY,
                "simultaneous arrivals must queue ({admission:?})"
            );
            assert!(rep.makespan() > SimDuration::ZERO);
            let report = rep.report();
            assert!(report.contains("admission"), "{report}");
        }
    }

    #[test]
    fn traced_serving_reconciles_and_is_deterministic() {
        let cfg = ExpConfig {
            scale: 0.05,
            n_queries: 12,
            test_frac: 0.25,
            ..ExpConfig::quick()
        };
        let env = Env::new(cfg);
        let serve = || {
            serve_poisson_inner(
                &env,
                Template::T91,
                None,
                Admission::Continuous(QueuePolicy::Fifo),
                1.0,
                7,
                InferenceCharge::Fixed(SimDuration::from_micros(TRACED_INFER_CHARGE_US)),
                Recorder::enabled(),
            )
        };
        let (rep, rec) = serve();
        // Trace counters must reconcile exactly with the report's.
        assert_eq!(rec.counter("reads.hit"), rep.stats.hits);
        assert_eq!(rec.counter("reads.os_copy"), rep.stats.os_copies);
        assert_eq!(rec.counter("reads.disk"), rep.stats.disk_reads);
        assert_eq!(rec.counter("prefetch.issued"), rep.stats.prefetch_issued);
        // One admission event per query, and every admission completes.
        assert_eq!(rec.counter("server.admitted"), rep.waves.len() as u64);
        assert_eq!(rec.counter("server.completions"), rep.queries.len() as u64);
        assert_eq!(rec.counter("queries.replayed"), rep.queries.len() as u64);
        // Same seed, same env → byte-identical virtual-clock traces.
        let (_, rec2) = serve();
        assert_eq!(rec.virtual_trace_json(), rec2.virtual_trace_json());
    }

    #[test]
    fn admission_snapshot_shows_continuous_at_least_as_fast() {
        let cfg = ExpConfig {
            scale: 0.05,
            n_queries: 12,
            test_frac: 0.25,
            ..ExpConfig::quick()
        };
        let env = Env::new(cfg);
        let json = admission_snapshot(&env);
        assert!(json.contains("\"wave_makespan_us\""), "{json}");
        assert!(json.contains("\"continuous_speedup\""), "{json}");
        // Deterministic inputs → deterministic snapshot.
        assert_eq!(json, admission_snapshot(&env));
        // Parse the speedup back out: continuous must not materially lose
        // to waves on a skewed mix. (The strict win under controlled skew is
        // pinned by `continuous_admits_on_completion_and_beats_waves_under_skew`
        // below; real template traces share buffer pages across queries, so
        // the ratio here gets a small tolerance instead of a hard `>= 1`.)
        let speedup: f64 = json
            .lines()
            .find(|l| l.contains("continuous_speedup"))
            .and_then(|l| l.split(':').nth(1))
            .map(|v| v.trim().trim_end_matches(','))
            .and_then(|v| v.parse().ok())
            .expect("snapshot has a parsable speedup");
        assert!(speedup > 0.9, "continuous lost badly to waves: {json}");
    }

    /// A database whose file 0 is big enough for the synthetic traces, plus a
    /// trivial plan ([`ServerRequest`] wants one even with no predictor).
    fn synthetic_db_and_plan() -> (Database, pythia_db::plan::PlanNode) {
        let mut db = Database::new();
        let t = db.create_table("t", pythia_db::types::Schema::ints(&["a"]));
        for i in 0..60_000i64 {
            db.insert(t, Database::row(&[i]));
        }
        let plan = pythia_db::plan::PlanNode::SeqScan {
            table: t,
            pred: None,
        };
        (db, plan)
    }

    /// `n` random heap reads with CPU work between them.
    fn random_trace(n: u32) -> pythia_db::trace::Trace {
        use pythia_db::trace::{AccessKind, TraceEvent};
        (0..n)
            .flat_map(|i| {
                [
                    TraceEvent::Read {
                        obj: pythia_db::catalog::ObjectId(0),
                        page: pythia_sim::PageId::new(pythia_sim::FileId(0), (i * 37) % 10_000),
                        kind: AccessKind::HeapFetch,
                    },
                    TraceEvent::Cpu { units: 2 },
                ]
            })
            .collect()
    }

    fn synthetic_run_cfg() -> RunConfig {
        RunConfig {
            pool_frames: 2048,
            os_cache_pages: 16384,
            ..Default::default()
        }
    }

    #[test]
    fn c1_waves_match_serial_runtime_runs() {
        // The baseline's determinism contract: concurrency 1 ≡ serial
        // Runtime::run calls on one warm stack.
        let (db, plan) = synthetic_db_and_plan();
        let traces = [random_trace(60), random_trace(25), random_trace(40)];
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
        let run_cfg = synthetic_run_cfg();
        let rep = serve_waves(&db, &run_cfg, None, 1, &reqs);

        let mut rt = Runtime::new(&run_cfg, db.file_lengths());
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
    fn waves_respect_the_concurrency_limit() {
        let (db, plan) = synthetic_db_and_plan();
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
        let rep = serve_waves(&db, &synthetic_run_cfg(), None, 2, &reqs);

        // Wave 0 admits two of the three simultaneous arrivals (queue depth
        // 3), wave 1 the leftover, wave 2 the late one after idling forward.
        let shape: Vec<(usize, usize)> = rep
            .waves
            .iter()
            .map(|w| (w.occupancy, w.queue_depth))
            .collect();
        assert_eq!(shape, [(2, 3), (1, 1), (1, 1)]);
        assert!(rep.waves[2].admitted_at >= SimTime::ZERO + late);
        // FIFO: the third arrival waited for the first wave to drain.
        assert_eq!(rep.queries[2].wave, 1);
        assert!(rep.queries[2].admitted >= rep.queries[0].end.max(rep.queries[1].end));
        assert_eq!(rep.queries[3].admission_wait(), SimDuration::ZERO);
        // Wave stats sum to the aggregate.
        let mut sum = pythia_buffer::BufferStats::default();
        for w in &rep.waves {
            sum.merge(&w.stats);
        }
        assert_eq!(sum, rep.stats);
    }

    #[test]
    fn continuous_admits_on_completion_and_beats_waves_under_skew() {
        // One long query plus four short ones, all arriving together, two
        // slots. The waves barrier on the long query; the admission loop
        // streams the shorts through the freed slot while it is still
        // running.
        let (db, plan) = synthetic_db_and_plan();
        let long = random_trace(400);
        let shorts: Vec<_> = (0..4).map(|_| random_trace(30)).collect();
        let mut reqs = vec![ServerRequest::new(&plan, &long, SimDuration::ZERO)];
        reqs.extend(
            shorts
                .iter()
                .map(|t| ServerRequest::new(&plan, t, SimDuration::ZERO)),
        );
        let run_cfg = synthetic_run_cfg();
        let wave = serve_waves(&db, &run_cfg, None, 2, &reqs);
        let cfg = ServerConfig {
            concurrency: 2,
            ..ServerConfig::default()
        };
        let cont = PrefetchServer::new(&db, &run_cfg, cfg).serve(&reqs);

        // Admit-on-completion: the third query is admitted the moment the
        // first short completes — long before the long query finishes. The
        // waves cannot admit it until the whole first wave drains.
        assert!(cont.queries[2].admitted < cont.queries[0].end);
        assert!(wave.queries[2].admitted >= wave.queries[0].end);
        assert_eq!(cont.waves.len(), reqs.len());
        assert!(cont.waves.iter().all(|w| (1..=2).contains(&w.occupancy)));
        // Work conservation shows up as makespan and throughput.
        assert!(
            cont.makespan() < wave.makespan(),
            "continuous {} vs wave {}",
            cont.makespan(),
            wave.makespan()
        );
        assert!(cont.throughput_qps() > wave.throughput_qps());
    }

    #[test]
    fn poisson_gaps_are_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(3);
        let mut b = StdRng::seed_from_u64(3);
        assert_eq!(
            poisson_arrivals(5, 1000.0, &mut a),
            poisson_arrivals(5, 1000.0, &mut b)
        );
        assert_eq!(poisson_arrivals(3, 0.0, &mut a), vec![SimDuration::ZERO; 3]);
    }
}
