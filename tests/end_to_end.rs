//! End-to-end integration: benchmark generator → executor traces → Pythia
//! training → a published fleet → prefetched serving, across all workspace
//! crates.

use std::sync::Arc;

use pythia::core::metrics::f1_score;
use pythia::core::predictor::ground_truth;
use pythia::core::prefetch::INFER_CHARGE;
use pythia::core::{
    train_workload, InferenceCharge, PrefetchServer, PythiaConfig, QueryOutcome, ServerConfig,
    ServerRequest, TenantFleet, TrainedWorkload,
};
use pythia::db::plan::PlanNode;
use pythia::db::runtime::{QueryRun, RunConfig, Runtime};
use pythia::db::trace::Trace;
use pythia::sim::{SimDuration, SimTime};
use pythia::workloads::templates::{sample_workload, Template};
use pythia::workloads::{build_benchmark, build_for, BenchmarkDb, GeneratorConfig};

fn small_bench() -> BenchmarkDb {
    build_benchmark(&GeneratorConfig {
        scale: 0.1,
        seed: 99,
    })
}

fn quick_cfg() -> PythiaConfig {
    PythiaConfig {
        epochs: 25,
        batch_size: 16,
        lr: 3e-3,
        pos_weight: 2.0,
        // The paper's threshold: the pipeline test reads F1 and speedup.
        threshold: Some(0.5),
        ..PythiaConfig::fast()
    }
}

/// End-to-end virtual latency of one query served alone on `server`.
fn latency_alone(mut server: PrefetchServer<'_>, plan: &PlanNode, trace: &Trace) -> SimDuration {
    let request = ServerRequest::new(plan, trace, SimDuration::ZERO);
    server.serve(&[request]).queries[0].latency()
}

#[test]
fn pipeline_learns_and_speeds_up_t91() {
    let bench = small_bench();
    let n = 60;
    let queries = sample_workload(&bench, Template::T91, n, 17);
    let traces: Vec<_> = queries
        .iter()
        .map(|q| pythia::db::exec::execute(&q.plan, &bench.db).1)
        .collect();
    let (test_q, train_q) = queries.split_at(6);
    let (test_t, train_t) = traces.split_at(6);

    let fleet = Arc::new(TenantFleet::new());
    let train_plans: Vec<_> = train_q.iter().map(|q| q.plan.clone()).collect();
    let tw = train_workload(&bench.db, "t91", &train_plans, train_t, None, &quick_cfg());
    fleet.publish(tw);
    assert_eq!(fleet.len(), 1);

    let model = fleet.current("t91").expect("just learned");
    let tw = &model.workload;
    let modeled = tw.modeled_objects();
    assert!(modeled.len() >= 4, "T91 probes several dims: {modeled:?}");

    // `ServerConfig::default()` prefetches up to 3/4 of the pool.
    let run_cfg = RunConfig {
        pool_frames: (bench.db.disk.total_pages() as usize / 8).max(256),
        ..RunConfig::default()
    };
    let mut f1s = Vec::new();
    let mut speedups = Vec::new();
    for (q, trace) in test_q.iter().zip(test_t) {
        fleet
            .match_plan(&bench.db, &q.plan)
            .expect("in-distribution query engages");
        let m = f1_score(
            &tw.infer(&bench.db, &q.plan).as_set(),
            &ground_truth(trace, &modeled),
        );
        f1s.push(m.f1);

        let server = || PrefetchServer::new(&bench.db, &run_cfg, ServerConfig::default());
        let base = latency_alone(server(), &q.plan, trace);
        let with = latency_alone(server().with_registry(Arc::clone(&fleet)), &q.plan, trace);
        speedups.push(base.as_micros() as f64 / with.as_micros() as f64);
    }
    let mean_f1 = f1s.iter().sum::<f64>() / f1s.len() as f64;
    let mean_sp = speedups.iter().sum::<f64>() / speedups.len() as f64;
    assert!(
        mean_f1 > 0.35,
        "held-out F1 too low: {mean_f1:.3} ({f1s:?})"
    );
    assert!(
        mean_sp > 1.2,
        "Pythia should speed up T91: {mean_sp:.2} ({speedups:?})"
    );
}

#[test]
fn out_of_distribution_query_falls_back() {
    let bench = small_bench();
    let queries = sample_workload(&bench, Template::T91, 20, 17);
    let traces: Vec<_> = queries
        .iter()
        .map(|q| pythia::db::exec::execute(&q.plan, &bench.db).1)
        .collect();
    let cfg = PythiaConfig {
        epochs: 2,
        ..PythiaConfig::fast()
    };
    let fleet = TenantFleet::new();
    let plans: Vec<_> = queries.iter().map(|q| q.plan.clone()).collect();
    fleet.publish(train_workload(
        &bench.db, "t91", &plans, &traces, None, &cfg,
    ));

    // A full scan of an unrelated table must not engage Pythia.
    let foreign = PlanNode::SeqScan {
        table: bench.title,
        pred: None,
    };
    assert!(fleet.match_plan(&bench.db, &foreign).is_none());
    // An IMDB template query also does not match the T91 workload.
    let imdb = sample_workload(&bench, Template::Imdb1a, 1, 3).remove(0);
    assert!(fleet.match_plan(&bench.db, &imdb.plan).is_none());
}

#[test]
fn wrong_predictions_cause_no_meaningful_regression() {
    // Paper: "even if PYTHIA does not predict any page correctly, we can
    // expect the regression to be within the margin of error".
    let bench = small_bench();
    let q = sample_workload(&bench, Template::T18, 1, 5).remove(0);
    let (_, trace) = pythia::db::exec::execute(&q.plan, &bench.db);

    let run_cfg = RunConfig::default();
    let mut rt = Runtime::new(&run_cfg, bench.db.file_lengths());
    let base = rt.run(&[QueryRun::default_run(&trace)]).timings[0].elapsed();

    // Prefetch garbage: pages of a file the query never touches.
    let junk_file = bench
        .db
        .object_file(bench.db.table_info(bench.title).object);
    let junk: Vec<_> = (0..200)
        .map(|p| pythia::sim::PageId::new(junk_file, p))
        .collect();
    let mut rt = Runtime::new(&run_cfg, bench.db.file_lengths());
    let with = rt
        .run(&[QueryRun::with_prefetch(&trace, junk, SimDuration::ZERO)])
        .timings[0]
        .elapsed();
    let ratio = with.as_micros() as f64 / base.as_micros() as f64;
    assert!(ratio < 1.05, "wrong prefetch regressed by {ratio:.3}");
}

#[test]
fn multiple_workloads_route_correctly() {
    let bench = small_bench();
    let cfg = PythiaConfig {
        epochs: 2,
        ..PythiaConfig::fast()
    };
    let fleet = TenantFleet::new();
    for (name, template) in [("t18", Template::T18), ("imdb", Template::Imdb1a)] {
        let queries = sample_workload(&bench, template, 16, 4);
        let traces: Vec<_> = queries
            .iter()
            .map(|q| pythia::db::exec::execute(&q.plan, &bench.db).1)
            .collect();
        let plans: Vec<_> = queries.iter().map(|q| q.plan.clone()).collect();
        let restrict = template.prefetch_objects(&bench);
        let tw = train_workload(&bench.db, name, &plans, &traces, restrict.as_deref(), &cfg);
        fleet.publish(tw);
    }
    assert_eq!(fleet.len(), 2);

    let routed = |plan: &PlanNode| {
        fleet
            .match_plan(&bench.db, plan)
            .unwrap()
            .workload
            .name
            .clone()
    };
    let t18 = sample_workload(&bench, Template::T18, 1, 77).remove(0);
    assert_eq!(routed(&t18.plan), "t18");
    let imdb = sample_workload(&bench, Template::Imdb1a, 1, 77).remove(0);
    assert_eq!(routed(&imdb.plan), "imdb");
}

/// `serve_demo`'s tenant 0.
const DEMO: GeneratorConfig = GeneratorConfig {
    scale: 0.05,
    seed: 7,
};

/// `serve_demo`'s tenant 0 as a whole database, the twelve Template 18
/// queries of its catalog, and their traces.
fn demo_tenant() -> (BenchmarkDb, Vec<PlanNode>, Vec<Trace>) {
    let whole = build_benchmark(&DEMO);
    let queries = sample_workload(&whole, Template::T18, 12, 42);
    let traces = queries
        .iter()
        .map(|q| pythia::db::exec::execute(&q.plan, &whole.db).1)
        .collect();
    (whole, queries.into_iter().map(|q| q.plan).collect(), traces)
}

/// A query's virtual outcome: its times, wave, inference charge, tenant and
/// request id.
type Virtual = ([SimTime; 4], usize, SimDuration, u32, u64);

/// The catalog served from `bench` as `serve_demo` serves it, the twelve
/// queries arriving together at C = 2: DFLT, or with a fleet trained on
/// `bench` with `serve_demo`'s model (the paper's threshold, not a
/// calibrated one). Each query's virtual outcome, and the model.
fn serve_demo_run(
    bench: &BenchmarkDb,
    plans: &[PlanNode],
    traces: &[Trace],
    trained: bool,
) -> (Vec<Virtual>, Option<TrainedWorkload>) {
    let model = PythiaConfig {
        threshold: Some(0.5),
        ..PythiaConfig::fast()
    };
    let tw = trained.then(|| train_workload(&bench.db, "demo-t18", plans, traces, None, &model));
    let fleet = Arc::new(TenantFleet::new());
    if let Some(tw) = &tw {
        fleet.publish(tw.clone());
    }
    let requests: Vec<_> = plans
        .iter()
        .zip(traces)
        .map(|(plan, trace)| ServerRequest::new(plan, trace, SimDuration::ZERO))
        .collect();
    let cfg = ServerConfig {
        concurrency: 2,
        charge: InferenceCharge::Fixed(INFER_CHARGE),
        ..ServerConfig::default()
    };
    let mut server =
        PrefetchServer::new(&bench.db, &RunConfig::default(), cfg).with_registry(fleet);
    let report = server.serve(&requests);
    let virtual_fields = |o: &QueryOutcome| {
        let times = [o.arrival, o.admitted, o.start, o.end];
        (times, o.wave, o.inference, o.tenant, o.request)
    };
    let served: Vec<_> = report.queries.iter().map(virtual_fields).collect();
    assert_eq!(served.len(), 12);
    // A trained fleet is consulted, and charged for, on every query.
    assert!(served.iter().all(|o| (o.2 == INFER_CHARGE) == trained));
    (served, tw)
}

/// Once `serve_demo` has run a tenant's catalog it releases the database's
/// page bytes, then trains and serves from the catalog and file lengths
/// alone. The same twelve queries, arriving together at C = 2, must see the
/// same virtual outcomes from a released database as from one that keeps its
/// pages: DFLT, and with a fleet trained on each side's own database.
#[test]
fn a_released_database_serves_what_a_whole_one_does() {
    let (whole, plans, traces) = demo_tenant();
    let mut released = build_benchmark(&DEMO);
    let pages = released.db.disk.total_pages();
    released.db.disk.release_pages();
    assert_eq!(released.db.disk.total_pages(), pages);
    assert_eq!(released.db.file_lengths(), whole.db.file_lengths());
    for trained in [false, true] {
        let served = serve_demo_run(&whole, &plans, &traces, trained).0;
        let from_released = serve_demo_run(&released, &plans, &traces, trained).0;
        assert_eq!(from_released, served, "trained: {trained}");
    }
}

/// `serve_demo` builds each tenant with rows in only the tables Template 18
/// reads, then releases its pages. From that database the catalog must be
/// served as from a whole one: the same virtual outcomes, DFLT and trained,
/// and a model trained on it with the same threshold and the same scores,
/// read as the pages it predicts at each of five thresholds.
#[test]
fn a_catalog_only_database_serves_what_a_whole_one_does() {
    let (whole, plans, traces) = demo_tenant();
    let mut catalog_only = build_for(&DEMO, &[Template::T18]);
    assert!(catalog_only.db.disk.total_pages() < whole.db.disk.total_pages() / 2);
    catalog_only.db.disk.release_pages();
    let (dflt, _) = serve_demo_run(&whole, &plans, &traces, false);
    assert_eq!(
        serve_demo_run(&catalog_only, &plans, &traces, false).0,
        dflt
    );
    let (served, tw) = serve_demo_run(&whole, &plans, &traces, true);
    let (from_catalog, tw_catalog) = serve_demo_run(&catalog_only, &plans, &traces, true);
    assert_eq!(from_catalog, served);
    let (mut tw, mut tw_catalog) = (tw.unwrap(), tw_catalog.unwrap());
    assert_eq!(tw_catalog.threshold, tw.threshold);
    for threshold in [0.1, 0.3, 0.5, 0.7, 0.9] {
        (tw.threshold, tw_catalog.threshold) = (threshold, threshold);
        for plan in &plans {
            let pages = tw.infer(&whole.db, plan).pages;
            assert_eq!(
                tw_catalog.infer(&catalog_only.db, plan).pages,
                pages,
                "{threshold}"
            );
        }
    }
}
