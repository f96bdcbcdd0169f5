//! Deployment features: model persistence, the thread-safe serving layer,
//! and incremental retraining (paper §5.3 / §7 extensions).
//!
//! ```bash
//! cargo run --release --example deployment
//! ```
//!
//! 1. Train Pythia on a workload and save the models to disk
//!    (`registry::save_model`: enveloped, catalog-checked on load).
//! 2. Share a [`pythia::PythiaSystem`] in an `Arc`, load the models from
//!    disk, and serve engage-or-fallback decisions from multiple threads
//!    while a background trainer installs a second workload.
//! 3. Fold newly observed queries into existing models with
//!    `TrainedWorkload::refine` instead of retraining from scratch.

use std::sync::Arc;

use pythia::core::metrics::f1_score;
use pythia::core::predictor::{ground_truth, TrainedWorkload};
use pythia::core::registry::{load_model, save_model};
use pythia::core::PythiaConfig;
use pythia::workloads::templates::{sample_workload, Template};
use pythia::workloads::{build_benchmark, GeneratorConfig};
use pythia::{PythiaSystem, TrainRequest};

fn main() {
    let bench = build_benchmark(&GeneratorConfig {
        scale: 0.15,
        seed: 23,
    });
    let cfg = PythiaConfig {
        epochs: 25,
        batch_size: 32,
        lr: 3e-3,
        pos_weight: 2.0,
        ..PythiaConfig::fast()
    };

    // ---- 1. Train + persist ----
    let queries = sample_workload(&bench, Template::T91, 80, 4);
    let traces: Vec<_> = queries
        .iter()
        .map(|q| pythia::db::exec::execute(&q.plan, &bench.db).1)
        .collect();
    let plans: Vec<_> = queries[8..].iter().map(|q| q.plan.clone()).collect();
    let tw = pythia::core::train_workload(&bench.db, "t91", &plans, &traces[8..], None, &cfg);
    let path = std::env::temp_dir().join("pythia_t91.json");
    save_model(&path, 1, &tw).expect("save");
    println!(
        "trained '{}' ({} objects modeled, {:.1} MB) and saved to {}",
        tw.name,
        tw.modeled_objects().len(),
        tw.size_bytes() as f64 / 1e6,
        path.display()
    );

    // ---- 2. Serve from disk + background training of a second workload ----
    let db = Arc::new(bench.db);
    let system = Arc::new(PythiaSystem::new(cfg.clone(), 512));
    let (_, loaded) = load_model(&path, &db).expect("catalog-compatible");
    let version = system
        .install_trained(&db, loaded)
        .expect("catalog-compatible");
    let _ = std::fs::remove_file(&path);
    println!(
        "system loaded persisted models; workloads = {}, fleet version = {version}",
        system.workload_count()
    );

    // Rebuild a cheap second workload request and train it in the background
    // while readers keep engaging.
    let bench2 = build_benchmark(&GeneratorConfig {
        scale: 0.15,
        seed: 23,
    });
    let q2 = sample_workload(&bench2, Template::Imdb1a, 30, 8);
    let t2: Vec<_> = q2
        .iter()
        .map(|q| pythia::db::exec::execute(&q.plan, &db).1)
        .collect();
    let (tx, trainer) = system.spawn_trainer(Arc::clone(&db));
    tx.send(TrainRequest {
        name: "imdb-1a".into(),
        plans: q2.iter().map(|q| q.plan.clone()).collect(),
        traces: t2,
        restrict_objects: Template::Imdb1a.prefetch_objects(&bench2),
    })
    .unwrap();
    drop(tx);

    let readers: Vec<_> = (0..2)
        .map(|r| {
            let (s, db) = (Arc::clone(&system), Arc::clone(&db));
            let probe: Vec<_> = queries[..8].iter().map(|q| q.plan.clone()).collect();
            std::thread::spawn(move || {
                let mut engaged = 0;
                for p in &probe {
                    if s.engage(&db, p).is_some() {
                        engaged += 1;
                    }
                }
                println!(
                    "reader {r}: engaged {engaged}/{} queries during training",
                    probe.len()
                );
            })
        })
        .collect();
    for r in readers {
        r.join().unwrap();
    }
    trainer.join().unwrap();
    println!(
        "background trainer done; workloads = {}",
        system.workload_count()
    );

    // ---- 3. Incremental refinement ----
    // Train on a small initial workload, then fold in newly observed queries
    // with `refine` instead of retraining from scratch ("every new query run
    // can be used as a new training data point", paper §5.3).
    let held_out: Vec<usize> = (0..8).collect();
    let tw = pythia::core::train_workload(
        &bench2.db,
        "t91-drift",
        &plans[..30], // a deliberately small initial workload
        &traces[8..38],
        None,
        &cfg,
    );
    let mut tw = tw;
    let modeled = tw.modeled_objects();
    let f1_of = |tw: &TrainedWorkload| {
        let f1s: Vec<f64> = held_out
            .iter()
            .map(|&i| {
                let pred = tw.infer(&db, &queries[i].plan);
                f1_score(&pred.as_set(), &ground_truth(&traces[i], &modeled)).f1
            })
            .collect();
        f1s.iter().sum::<f64>() / f1s.len() as f64
    };
    let before = f1_of(&tw);
    tw.refine(&db, &plans[30..], &traces[38..]);
    let after = f1_of(&tw);
    println!("incremental refinement with new queries: held-out F1 {before:.3} -> {after:.3}");
}
