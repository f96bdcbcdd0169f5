//! Figure 9: Pythia vs sequence-transformer predictors.
//!
//! The paper trains Longformer variants on template 91 (the smallest traces)
//! and finds comparable prediction quality but ~23× the training time and
//! ~8500× the inference time, because sequence models emit one block per
//! inference step. This experiment reproduces the comparison with our
//! from-scratch autoregressive block transformer in the same four variants
//! (raw/dedup × context 32/64).

use std::collections::BTreeSet;

use pythia_baselines::{SeqModel, SeqModelConfig};
use pythia_core::metrics::{f1_score, Distribution};
use pythia_core::predictor::ground_truth;
use pythia_sim::PageId;
use pythia_workloads::templates::Template;

use crate::harness::{mean, Env};
use crate::output::{f2, f3, Table};

fn pageid_truth(trace: &pythia_db::trace::Trace) -> BTreeSet<PageId> {
    use pythia_db::trace::TraceEvent;
    trace
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Read { page, kind, .. } if !kind.is_sequential() => Some(page),
            _ => None,
        })
        .collect()
}

/// Run Figure 9 on template 91.
pub fn run(env: &Env) -> Table {
    let mut table = Table::new(
        "Figure 9: Pythia vs sequence transformers (Template 91)",
        &[
            "model",
            "median F1 / next-block acc",
            "train seconds",
            "train ratio vs pythia",
            "inference steps per query",
        ],
    );

    // Keep the sequence baseline affordable: a subset of the workload.
    let n = env.cfg.n_queries.min(if env.cfg.quick { 40 } else { 200 });
    let w = env.prepare_n(Template::T91, n);

    // --- Pythia ---
    let t0 = std::time::Instant::now();
    let tw = env.train(&w);
    let pythia_train_s = t0.elapsed().as_secs_f64();
    let modeled = tw.modeled_objects();
    let preds = tw.infer_batch(&env.bench.db, &w.test_plans());
    let mut f1s = Vec::new();
    for (pred, (_, trace)) in preds.iter().zip(w.test_queries()) {
        f1s.push(f1_score(&pred.as_set(), &ground_truth(trace, &modeled)).f1);
    }
    let pd = Distribution::of(&f1s);
    table.row(vec![
        "Pythia (one-shot set prediction)".into(),
        f3(pd.median),
        f2(pythia_train_s),
        "1.00".into(),
        "1".into(),
    ]);

    // --- sequence variants ---
    let train_traces = w.train_traces();
    let variants = [
        ("seq raw ctx=32", false, 32usize),
        ("seq raw ctx=64", false, 64),
        ("seq dedup ctx=32", true, 32),
        ("seq dedup ctx=64", true, 64),
    ];
    for (name, dedup, ctx) in variants {
        let cfg = SeqModelConfig {
            context: ctx,
            dedup,
            epochs: if env.cfg.quick { 5 } else { 8 },
            max_windows: if env.cfg.quick { 4_000 } else { 12_000 },
            ..Default::default()
        };
        let m = SeqModel::train(&cfg, &train_traces);
        // Teacher-forced next-block accuracy (sampled) as the quality proxy,
        // plus the inference-step count a full rollout would need.
        let mut accs = Vec::new();
        let mut steps = Vec::new();
        for (_, trace) in w.test_queries().take(4) {
            accs.push(m.teacher_forced_accuracy(trace, 25));
            steps.push(pageid_truth(trace).len() as f64);
        }
        table.row(vec![
            name.into(),
            f3(mean(&accs)),
            f2(m.train_seconds),
            f2(m.train_seconds / pythia_train_s.max(1e-9)),
            format!("{:.0}", mean(&steps)),
        ]);
    }
    table
}
