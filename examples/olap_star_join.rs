//! The paper's main scenario: DSB-like OLAP star joins (Template 18).
//!
//! ```bash
//! cargo run --release --example olap_star_join
//! ```
//!
//! Builds the DSB-like warehouse, samples a Template-18 workload (a
//! sequentially scanned `store_sales` fact driving index probes into
//! `customer`, `customer_demographics`, `household_demographics` and `item`),
//! trains Pythia, and compares per-query speedups against the ORCL oracle
//! and the NN nearest-neighbour baselines on held-out queries.

use pythia::baselines::{oracle_prefetch, NearestNeighbor, OracleScope};
use pythia::core::metrics::f1_score;
use pythia::core::predictor::ground_truth;
use pythia::core::PythiaConfig;
use pythia::db::runtime::{QueryRun, RunConfig, Runtime};
use pythia::sim::SimDuration;
use pythia::workloads::templates::{sample_workload, Template};
use pythia::workloads::{build_benchmark, GeneratorConfig};
use pythia::PythiaSystem;

fn main() {
    // ---- warehouse + workload ----
    let bench = build_benchmark(&GeneratorConfig {
        scale: 0.25,
        seed: 7,
    });
    println!(
        "warehouse built: {} pages across {} objects",
        bench.db.disk.total_pages(),
        bench.db.object_count()
    );

    let n = 160;
    let queries = sample_workload(&bench, Template::T18, n, 42);
    println!("sampled {n} instances of {}", Template::T18);
    println!("example plan:\n{}", queries[0].plan.explain(&bench.db));

    let traces: Vec<_> = queries
        .iter()
        .map(|q| pythia::db::exec::execute(&q.plan, &bench.db).1)
        .collect();

    // 10% unseen test queries.
    let n_test = n / 10;
    let (test_q, train_q) = queries.split_at(n_test);
    let (test_t, train_t) = traces.split_at(n_test);

    // ---- train ----
    let cfg = PythiaConfig {
        epochs: 40,
        batch_size: 32,
        lr: 3e-3,
        pos_weight: 2.0,
        ..PythiaConfig::fast()
    };
    let pool_frames = (bench.db.disk.total_pages() as usize / 8).max(256);
    let pythia = PythiaSystem::new(cfg, pool_frames * 3 / 4);
    let train_plans: Vec<_> = train_q.iter().map(|q| q.plan.clone()).collect();
    pythia.learn_workload(&bench.db, "dsb-t18", &train_plans, train_t, None);
    let model = pythia.fleet().current("dsb-t18").expect("just learned");
    let tw = &model.workload;
    println!(
        "trained models for {} objects ({:.1} MB total)",
        tw.modeled_objects().len(),
        tw.size_bytes() as f64 / 1e6
    );

    // ---- evaluate held-out queries ----
    let nn = NearestNeighbor::new(train_t);
    let run_cfg = RunConfig {
        pool_frames,
        ..RunConfig::default()
    };
    let modeled = tw.modeled_objects();

    println!(
        "\n{:<6} {:>6} {:>10} {:>10} {:>10} {:>10}",
        "query", "F1", "DFLT", "pythia", "ORCL", "NN"
    );
    let mut speedups = Vec::new();
    for (i, (q, trace)) in test_q.iter().zip(test_t).enumerate() {
        let eng = pythia.engage(&bench.db, &q.plan).expect("in-distribution");
        let m = f1_score(
            &tw.infer(&bench.db, &q.plan).as_set(),
            &ground_truth(trace, &modeled),
        );

        let time = |prefetch: Option<Vec<_>>, inf: SimDuration| {
            let mut rt = Runtime::new(&run_cfg, bench.db.file_lengths());
            let run = match prefetch {
                None => QueryRun::default_run(trace),
                Some(p) => QueryRun::with_prefetch(trace, p, inf),
            };
            rt.run(&[run]).timings[0].elapsed()
        };
        let dflt = time(None, SimDuration::ZERO);
        let pyth = time(Some(eng.prefetch), eng.inference);
        let orcl = time(
            Some(oracle_prefetch(trace, OracleScope::All)),
            SimDuration::ZERO,
        );
        let (nn_pages, _, _) = nn.prefetch_for(trace);
        let nnt = time(Some(nn_pages), SimDuration::ZERO);

        let sp = dflt.as_micros() as f64 / pyth.as_micros() as f64;
        speedups.push(sp);
        println!(
            "{:<6} {:>6.3} {:>10} {:>10} {:>10} {:>10}   (pythia speedup {:.2}x)",
            format!("q{i}"),
            m.f1,
            dflt.to_string(),
            pyth.to_string(),
            orcl.to_string(),
            nnt.to_string(),
            sp
        );
    }
    let mean = speedups.iter().sum::<f64>() / speedups.len() as f64;
    println!("\nmean Pythia speedup over DFLT: {mean:.2}x");
}
