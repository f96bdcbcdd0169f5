//! Multiple concurrent queries sharing one buffer pool (paper §5.4).
//!
//! ```bash
//! cargo run --release --example concurrent_queries
//! ```
//!
//! Trains Pythia on a Template-18 workload, then launches batches of
//! concurrent test queries against a shared replay stack — with and without
//! Pythia — and reports makespans and buffer statistics. Queries from the
//! same template help each other (one query's prefetched pages are another's
//! buffer hits), exactly the effect the paper measures in Figure 13b.

use pythia::core::PythiaConfig;
use pythia::db::runtime::{QueryRun, RunConfig, Runtime};
use pythia::sim::SimDuration;
use pythia::workloads::templates::{sample_workload, Template};
use pythia::workloads::{build_benchmark, GeneratorConfig};
use pythia::PythiaSystem;

fn main() {
    let bench = build_benchmark(&GeneratorConfig {
        scale: 0.2,
        seed: 5,
    });
    let n = 120;
    let queries = sample_workload(&bench, Template::T18, n, 21);
    let traces: Vec<_> = queries
        .iter()
        .map(|q| pythia::db::exec::execute(&q.plan, &bench.db).1)
        .collect();
    let (test_q, train_q) = queries.split_at(8);
    let (test_t, train_t) = traces.split_at(8);

    let pool_frames = (bench.db.disk.total_pages() as usize / 8).max(256);
    let cfg = PythiaConfig {
        epochs: 40,
        batch_size: 32,
        lr: 3e-3,
        pos_weight: 2.0,
        ..PythiaConfig::fast()
    };
    let pythia = PythiaSystem::new(cfg, pool_frames * 3 / 4);
    let train_plans: Vec<_> = train_q.iter().map(|q| q.plan.clone()).collect();
    pythia.learn_workload(&bench.db, "dsb-t18", &train_plans, train_t, None);
    println!(
        "trained on {} queries; evaluating concurrent batches\n",
        train_q.len()
    );

    let run_cfg = RunConfig {
        pool_frames,
        ..RunConfig::default()
    };
    println!(
        "{:<12} {:>14} {:>14} {:>9} {:>10} {:>10}",
        "concurrency", "DFLT makespan", "pythia makespan", "speedup", "hit rate", "pf useful"
    );
    for &k in &[1usize, 2, 4, 8] {
        // DFLT batch.
        let mut rt = Runtime::new(&run_cfg, bench.db.file_lengths());
        let runs: Vec<QueryRun<'_>> = (0..k)
            .map(|i| QueryRun::default_run(&test_t[i % test_t.len()]))
            .collect();
        let dflt = rt.run(&runs);

        // Pythia batch: each query gets its own prediction + AIO prefetcher.
        let mut rt = Runtime::new(&run_cfg, bench.db.file_lengths());
        let engagements: Vec<_> = (0..k)
            .map(|i| {
                pythia
                    .engage(&bench.db, &test_q[i % test_q.len()].plan)
                    .expect("match")
            })
            .collect();
        let runs: Vec<QueryRun<'_>> = (0..k)
            .map(|i| QueryRun {
                trace: &test_t[i % test_t.len()],
                prefetch: Some(engagements[i].prefetch.clone()),
                arrival: SimDuration::ZERO,
                inference_latency: engagements[i].inference,
                span_name: pythia::db::runtime::DEFAULT_REPLAY_SPAN,
            })
            .collect();
        let pyth = rt.run(&runs);

        println!(
            "{:<12} {:>14} {:>14} {:>8.2}x {:>9.1}% {:>10}",
            k,
            dflt.makespan().to_string(),
            pyth.makespan().to_string(),
            dflt.makespan().as_micros() as f64 / pyth.makespan().as_micros() as f64,
            pyth.stats.hit_rate() * 100.0,
            pyth.stats.prefetch_useful,
        );
    }
}
