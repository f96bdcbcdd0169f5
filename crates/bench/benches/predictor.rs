//! Model-fleet benchmarks: per-object training fan-out and batched inference
//! on the shared worker pool, serial (one thread) vs pooled, over the
//! multi-dimension star fixture. The committed numbers for the same layers
//! (`core.predictor.*`, `nn.*`) come from `benchmark/run.sh --trace`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use pythia_bench::star_workload;
use pythia_core::{train_workload, PythiaConfig};
use pythia_nn::pool::set_thread_override;

fn bench_cfg() -> PythiaConfig {
    PythiaConfig {
        epochs: 2,
        batch_size: 8,
        lr: 5e-3,
        ..PythiaConfig::fast()
    }
}

fn training(c: &mut Criterion) {
    let (db, plans, traces) = star_workload(4, 24);
    let cfg = bench_cfg();
    c.bench_function("predictor/train_workload_serial", |b| {
        set_thread_override(1);
        b.iter(|| black_box(train_workload(&db, "bench", &plans, &traces, None, &cfg)));
        set_thread_override(0);
    });
    c.bench_function("predictor/train_workload_pooled", |b| {
        b.iter(|| black_box(train_workload(&db, "bench", &plans, &traces, None, &cfg)))
    });
}

fn inference(c: &mut Criterion) {
    let (db, plans, traces) = star_workload(4, 24);
    let tw = train_workload(&db, "bench", &plans, &traces, None, &bench_cfg());
    let test = &plans[0];
    // Prewarm the plan-encoding memo so iterations measure model forwards.
    let _ = tw.infer(&db, test);
    c.bench_function("predictor/infer_all_models_serial", |b| {
        set_thread_override(1);
        b.iter(|| black_box(tw.infer(&db, test)));
        set_thread_override(0);
    });
    c.bench_function("predictor/infer_all_models_pooled", |b| {
        b.iter(|| black_box(tw.infer(&db, test)))
    });
}

/// Serial per-query loop vs one batched forward over the same plan set —
/// the tradeoff `pythia_prefetch_batch` and the suite harness rely on.
fn batched_inference(c: &mut Criterion) {
    let (db, plans, traces) = star_workload(4, 24);
    let tw = train_workload(&db, "bench", &plans, &traces, None, &bench_cfg());
    let refs: Vec<&pythia_db::plan::PlanNode> = plans.iter().collect();
    // Prewarm the plan-encoding memo so iterations measure model forwards.
    let _ = tw.infer_batch(&db, &refs);
    c.bench_function("predictor/infer_24_queries_one_by_one", |b| {
        b.iter(|| {
            for p in &plans {
                black_box(tw.infer(&db, p));
            }
        })
    });
    c.bench_function("predictor/infer_24_queries_batched", |b| {
        b.iter(|| black_box(tw.infer_batch(&db, &refs)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = training, inference, batched_inference
}
criterion_main!(benches);
