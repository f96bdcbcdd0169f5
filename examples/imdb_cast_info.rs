//! The paper's real-world workload: IMDB/CEB template 1a.
//!
//! ```bash
//! cargo run --release --example imdb_cast_info
//! ```
//!
//! `title` is scanned with a production-year filter and drives index probes
//! into the large `cast_info` table. As in the paper, Pythia only builds
//! models for (and only prefetches) `cast_info` — and when the prediction is
//! larger than the buffer budget, it performs *limited prefetching*, keeping
//! only a prefix of the predicted pages.

use pythia::core::metrics::f1_score;
use pythia::core::predictor::ground_truth;
use pythia::core::PythiaConfig;
use pythia::db::runtime::{QueryRun, RunConfig, Runtime};
use pythia::workloads::templates::{sample_workload, Template};
use pythia::workloads::{build_benchmark, GeneratorConfig};
use pythia::PythiaSystem;

fn main() {
    let bench = build_benchmark(&GeneratorConfig {
        scale: 0.25,
        seed: 11,
    });
    let cast_pages = bench
        .db
        .object_pages(bench.db.table_info(bench.cast_info).object);
    println!(
        "IMDB-like data: {} titles, {} cast_info rows over {} pages",
        bench.n_titles, bench.n_cast, cast_pages
    );

    let n = 160;
    let queries = sample_workload(&bench, Template::Imdb1a, n, 3);
    let traces: Vec<_> = queries
        .iter()
        .map(|q| pythia::db::exec::execute(&q.plan, &bench.db).1)
        .collect();
    let (test_q, train_q) = queries.split_at(10);
    let (test_t, train_t) = traces.split_at(10);

    // Deliberately small buffer: cast_info alone overflows it, so limited
    // prefetching kicks in (paper §5.1, IMDB workload).
    let pool_frames = (cast_pages as usize / 4).max(128);
    let budget = pool_frames * 3 / 4;
    println!("buffer pool: {pool_frames} frames; prefetch budget: {budget} pages");

    let cfg = PythiaConfig {
        epochs: 40,
        batch_size: 32,
        lr: 3e-3,
        pos_weight: 2.0,
        ..PythiaConfig::fast()
    };
    let pythia = PythiaSystem::new(cfg, budget);
    let train_plans: Vec<_> = train_q.iter().map(|q| q.plan.clone()).collect();
    // Only cast_info (heap + its movie_id index) gets models.
    let restrict = Template::Imdb1a.prefetch_objects(&bench).unwrap();
    pythia.learn_workload(&bench.db, "imdb-1a", &train_plans, train_t, Some(&restrict));

    let model = pythia.fleet().current("imdb-1a").expect("just learned");
    let tw = &model.workload;
    println!(
        "models cover {} objects (cast_info heap + index), {:.1} MB",
        tw.modeled_objects().len(),
        tw.size_bytes() as f64 / 1e6
    );

    let run_cfg = RunConfig {
        pool_frames,
        ..RunConfig::default()
    };
    let modeled = tw.modeled_objects();
    let mut capped = 0;
    for (i, (q, trace)) in test_q.iter().zip(test_t).enumerate() {
        let eng = pythia.engage(&bench.db, &q.plan).expect("in-distribution");
        let predicted_total = tw.infer(&bench.db, &q.plan).len();
        if eng.prefetch.len() < predicted_total {
            capped += 1;
        }
        let m = f1_score(
            &tw.infer(&bench.db, &q.plan).as_set(),
            &ground_truth(trace, &modeled),
        );

        let mut rt = Runtime::new(&run_cfg, bench.db.file_lengths());
        let dflt = rt.run(&[QueryRun::default_run(trace)]).timings[0].elapsed();
        rt.reset();
        let pyth = rt
            .run(&[QueryRun::with_prefetch(
                trace,
                eng.prefetch.clone(),
                eng.inference,
            )])
            .timings[0]
            .elapsed();
        println!(
            "q{i}: F1={:.3}  predicted={predicted_total} prefetched={} (budget-capped: {})  DFLT={dflt} pythia={pyth}  speedup {:.2}x",
            m.f1,
            eng.prefetch.len(),
            eng.prefetch.len() < predicted_total,
            dflt.as_micros() as f64 / pyth.as_micros() as f64,
        );
    }
    println!("\n{capped}/10 test queries hit the prefetch budget (limited prefetching)");
}
