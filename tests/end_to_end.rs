//! End-to-end integration: benchmark generator → executor traces → Pythia
//! training → inference → prefetched replay, across all workspace crates.

use pythia::core::metrics::f1_score;
use pythia::core::predictor::ground_truth;
use pythia::core::PythiaConfig;
use pythia::db::plan::PlanNode;
use pythia::db::runtime::{QueryRun, RunConfig, Runtime};
use pythia::sim::SimDuration;
use pythia::workloads::templates::{sample_workload, Template};
use pythia::workloads::{build_benchmark, BenchmarkDb, GeneratorConfig};
use pythia::PythiaSystem;

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
        ..PythiaConfig::fast()
    }
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

    let pool_frames = (bench.db.disk.total_pages() as usize / 8).max(256);
    let system = PythiaSystem::new(quick_cfg(), pool_frames * 3 / 4);
    let train_plans: Vec<_> = train_q.iter().map(|q| q.plan.clone()).collect();
    system.learn_workload(&bench.db, "t91", &train_plans, train_t, None);
    assert_eq!(system.workload_count(), 1);

    let model = system.fleet().current("t91").expect("just learned");
    let tw = &model.workload;
    let modeled = tw.modeled_objects();
    assert!(modeled.len() >= 4, "T91 probes several dims: {modeled:?}");

    let run_cfg = RunConfig {
        pool_frames,
        ..RunConfig::default()
    };
    let mut f1s = Vec::new();
    let mut speedups = Vec::new();
    for (q, trace) in test_q.iter().zip(test_t) {
        let eng = system
            .engage(&bench.db, &q.plan)
            .expect("in-distribution query engages");
        let m = f1_score(
            &tw.infer(&bench.db, &q.plan).as_set(),
            &ground_truth(trace, &modeled),
        );
        f1s.push(m.f1);

        let mut rt = Runtime::new(&run_cfg, bench.db.file_lengths());
        let base = rt.run(&[QueryRun::default_run(trace)]).timings[0].elapsed();
        rt.reset();
        let with = rt
            .run(&[QueryRun::with_prefetch(trace, eng.prefetch, eng.inference)])
            .timings[0]
            .elapsed();
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
    let system = PythiaSystem::new(cfg, 512);
    let plans: Vec<_> = queries.iter().map(|q| q.plan.clone()).collect();
    system.learn_workload(&bench.db, "t91", &plans, &traces, None);

    // A full scan of an unrelated table must not engage Pythia.
    let foreign = PlanNode::SeqScan {
        table: bench.title,
        pred: None,
    };
    assert!(system.engage(&bench.db, &foreign).is_none());
    // An IMDB template query also does not match the T91 workload.
    let imdb = sample_workload(&bench, Template::Imdb1a, 1, 3).remove(0);
    assert!(system.engage(&bench.db, &imdb.plan).is_none());
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
    let system = PythiaSystem::new(cfg, 512);
    for (name, template) in [("t18", Template::T18), ("imdb", Template::Imdb1a)] {
        let queries = sample_workload(&bench, template, 16, 4);
        let traces: Vec<_> = queries
            .iter()
            .map(|q| pythia::db::exec::execute(&q.plan, &bench.db).1)
            .collect();
        let plans: Vec<_> = queries.iter().map(|q| q.plan.clone()).collect();
        let restrict = template.prefetch_objects(&bench);
        system.learn_workload(&bench.db, name, &plans, &traces, restrict.as_deref());
    }
    assert_eq!(system.workload_count(), 2);

    let t18 = sample_workload(&bench, Template::T18, 1, 77).remove(0);
    assert_eq!(system.engage(&bench.db, &t18.plan).unwrap().workload, "t18");
    let imdb = sample_workload(&bench, Template::Imdb1a, 1, 77).remove(0);
    assert_eq!(
        system.engage(&bench.db, &imdb.plan).unwrap().workload,
        "imdb"
    );
}
