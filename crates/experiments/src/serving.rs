//! Figure 13d through the serving loop: Poisson arrivals against the
//! admission-controlled prefetch server.
//!
//! The original Figure 13d replays a pre-built batch with Poisson arrival
//! offsets through one [`pythia_db::runtime::Runtime::run`] call — every
//! query is "admitted" the moment it arrives. A deployed database instead
//! admits under a concurrency limit, so this experiment re-expresses the
//! sweep through [`PrefetchServer`]: queries arrive on the same Poisson
//! process, queue, get batch-inferred at each admission, and replay
//! concurrently up to the admission limit, a slot refilled the moment a query
//! completes. Scheduling extensions are then one-flag variants of the same
//! loop — the table compares DFLT (no predictor) against Pythia under FIFO
//! and under the §7 overlap scheduler, every arm through that one loop.

use pythia_core::predictor::TrainedWorkload;
use pythia_core::server::{PrefetchServer, QueuePolicy, ServeReport, ServerConfig, ServerRequest};
use pythia_obs::{wall, Recorder};
use pythia_sim::rng::Rng;
use pythia_sim::SimDuration;
use pythia_workloads::templates::Template;

use crate::harness::{mean, poisson_arrivals, Env};
use crate::output::{f2, Table};

/// Queries replaying concurrently (the paper's machine runs a small
/// number of backends at once; 2 keeps contention visible at quick scale).
const CONCURRENCY: usize = 2;
/// Queries in each served stream.
const N_QUERIES: usize = 6;

/// Serve one Poisson-arrival stream of `template` test queries end to end.
///
/// `overlap` is the expected consecutive overlap fraction (Figure 13d's
/// x-axis): the mean inter-arrival gap is `(1 - overlap) ×` the expected
/// DFLT runtime. `tw = None` is the DFLT baseline (no prefetching);
/// `policy` picks the next admission from the queue.
pub fn serve_poisson(
    env: &Env,
    template: Template,
    tw: Option<&TrainedWorkload>,
    policy: QueuePolicy,
    overlap: f64,
    seed: u64,
) -> ServeReport {
    let (rep, _) = serve_poisson_inner(
        env,
        template,
        tw,
        policy,
        overlap,
        seed,
        Recorder::disabled(),
    );
    rep
}

/// One Poisson stream through the serving loop, each Pythia query charged
/// the server's default, [`INFER_CHARGE`](pythia_core::prefetch::INFER_CHARGE),
/// with `recorder` on the serving stack and — if it is enabled — NN
/// wall-task capture on for the duration of the call and a quality tracker
/// attached. Returns the report and the recorder holding the run's events;
/// two same-seed runs give byte-identical virtual-time traces.
fn serve_poisson_inner(
    env: &Env,
    template: Template,
    tw: Option<&TrainedWorkload>,
    policy: QueuePolicy,
    overlap: f64,
    seed: u64,
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
    let mut rng = Rng::seed_from_u64(seed);
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
    let cfg = ServerConfig {
        concurrency: CONCURRENCY,
        policy,
        ..ServerConfig::default()
    };
    let mut server = PrefetchServer::new(&env.bench.db, &env.run_cfg, cfg);
    if let Some(tw) = tw {
        server = server.with_predictor(tw);
    }
    // Traced runs stream per-admission quality telemetry (quality.observe
    // instants); the untraced sweep path stays bare. The tracker reads
    // interval diffs only, so virtual-time determinism holds either way.
    if recorder.is_enabled() {
        server = server.with_quality(pythia_core::quality::QualityTracker::default());
    }
    server.set_recorder(recorder);
    let capture = server.recorder().is_enabled();
    // NN capture (pool task spans + training telemetry) may already be on:
    // [`dump_trace`] enables it *before* training so the epoch ladder lands
    // in the same trace. Only toggle the flag this call turned on itself;
    // absorbing drains whatever accumulated either way.
    let was_on = wall::enabled();
    if capture && !was_on {
        wall::drain();
        wall::set_enabled(true);
    }
    let rep = server.serve(&requests);
    let mut rec = server.take_recorder();
    if capture {
        if !was_on {
            wall::set_enabled(false);
        }
        rec.absorb_wall(wall::drain());
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

/// Value of `--metrics-out <path>`: write the final metrics snapshot JSON
/// next to the trace (what CI uploads as an artifact).
pub fn metrics_out_arg() -> Option<String> {
    flag_value("metrics-out")
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
        wall::record(wall::Record::HeldoutF1 {
            query: qi as u64,
            f1_e6: pythia_obs::to_e6(f1),
            at_us: wall::now_us(),
        });
    }
}

/// Run the canonical traced serving run (Fig 13d's 75%-overlap point under
/// continuous admission and the overlap scheduler) and write its Chrome
/// trace JSON to `path`.
///
/// Training-telemetry capture is turned on *before* the (cached) model
/// training, so a cold `Env` contributes its whole epoch ladder — per-epoch
/// `nn.epoch` spans, loss/grad-norm histograms, held-out F1 instants — to
/// the exported trace. With `metrics_out`, the final metrics snapshot JSON
/// is written to that path.
pub fn dump_trace(env: &Env, path: &str, metrics_out: Option<&str>) -> ServeReport {
    // Enable NN capture up front so training (if this Env hasn't trained
    // T18 yet) is observed; serve_poisson_inner sees the flag already on
    // and leaves lifecycle management to us.
    wall::drain();
    wall::set_enabled(true);

    let tw = env.trained_default(Template::T18);
    record_heldout_f1(env, Template::T18, tw.as_ref());

    let (rep, rec) = serve_poisson_inner(
        env,
        Template::T18,
        Some(tw.as_ref()),
        // The canonical traced run: the admission loop under the overlap
        // scheduler.
        QueuePolicy::Overlap,
        0.75,
        env.cfg.seed ^ 0x5E4B,
        Recorder::enabled(),
    );
    wall::set_enabled(false);

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
    rep
}

/// The serving-loop sweep: Figure 13d's overlap axis × queue policy. DFLT
/// and both Pythia variants — FIFO and the §7 overlap scheduler — go through
/// the same admission loop, so every speedup compares prefetching alone.
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
        let dflt = serve_poisson(env, Template::T18, None, QueuePolicy::Fifo, overlap, seed);
        let variants = [
            ("pythia FIFO", QueuePolicy::Fifo),
            ("pythia overlap-sched", QueuePolicy::Overlap),
        ];
        for (name, policy) in variants {
            let rep = serve_poisson(env, Template::T18, Some(tw.as_ref()), policy, overlap, seed);
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
        // High overlap → arrivals bunch up → the concurrency limit must
        // actually queue some queries.
        let rep = serve_poisson(&env, Template::T91, None, QueuePolicy::Fifo, 1.0, 7);
        assert_eq!(rep.queries.len(), N_QUERIES);
        // One admission per query.
        assert_eq!(rep.waves.len(), rep.queries.len());
        assert!(rep.waves.iter().all(|w| w.occupancy <= CONCURRENCY));
        assert!(
            rep.max_queue_depth() >= CONCURRENCY,
            "simultaneous arrivals must queue"
        );
        assert!(rep.makespan() > SimDuration::ZERO);
        let report = rep.report();
        assert!(report.contains("admission"), "{report}");
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
                QueuePolicy::Fifo,
                1.0,
                7,
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
}
