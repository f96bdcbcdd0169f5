//! Figure 12: the eight factor studies, all on Template 18 (paper §5.3).

use pythia_buffer::PolicyKind;
use pythia_core::metrics::f1_score;
use pythia_core::predictor::ground_truth;
use pythia_core::{Grouping, PythiaConfig};
use pythia_db::runtime::RunConfig;
use pythia_workloads::templates::Template;

use crate::config::ExpConfig;
use crate::harness::{mean, Env, PreparedWorkload};
use crate::output::{f2, f3, Table};

fn mean_f1(env: &Env, w: &PreparedWorkload, tw: &pythia_core::predictor::TrainedWorkload) -> f64 {
    let modeled = tw.modeled_objects();
    let preds = tw.infer_batch(&env.bench.db, &w.test_plans());
    let f1s: Vec<f64> = preds
        .iter()
        .zip(w.test_queries())
        .map(|(pred, (_, trace))| f1_score(&pred.as_set(), &ground_truth(trace, &modeled)).f1)
        .collect();
    mean(&f1s)
}

fn mean_speedup(
    env: &Env,
    run_cfg: &RunConfig,
    w: &PreparedWorkload,
    tw: &pythia_core::predictor::TrainedWorkload,
) -> f64 {
    let prefetches = env.pythia_prefetch_batch(run_cfg, tw, &w.test_plans());
    let sps: Vec<f64> = prefetches
        .into_iter()
        .zip(w.test_queries())
        .map(|((pf, inference), (_, trace))| env.speedup(run_cfg, trace, pf, inference))
        .collect();
    mean(&sps)
}

/// Figure 12a: F1 vs database scale factor (25/50/100 analog).
///
/// The paper fixes the training-set size (1000 queries) and grows the
/// database 25 GB → 100 GB: accuracy slightly deteriorates because the same
/// training data must cover more blocks. We reproduce that regime by growing
/// the database *upward* from the experiment's base scale (1×/2×/4×, the
/// paper's 25/50/100 ratio) with the query count fixed.
pub fn run_a(cfg: &ExpConfig) -> Table {
    let mut t = Table::new(
        "Figure 12a: F1 vs database scale factor (Template 18)",
        &["scale factor (relative)", "total pages", "mean F1"],
    );
    for rel in [1.0, 2.0, 4.0] {
        let env = Env::at_scale(cfg.clone(), cfg.scale * rel);
        let w = env.prepare(Template::T18);
        let tw = env.trained_default(Template::T18);
        t.row(vec![
            format!("{rel:.2}x"),
            env.bench.db.disk.total_pages().to_string(),
            f3(mean_f1(&env, &w, &tw)),
        ]);
    }
    t
}

/// Figure 12b: F1 vs training-set fraction.
pub fn run_b(env: &Env) -> Table {
    let mut t = Table::new(
        "Figure 12b: F1 vs training data size (Template 18)",
        &["train fraction", "train queries", "mean F1"],
    );
    let w = env.prepare(Template::T18);
    for frac in [0.10, 0.25, 0.50, 0.75, 1.00] {
        let k = ((w.train_idx.len() as f64 * frac).round() as usize).max(4);
        let sub = PreparedWorkload {
            template: w.template,
            queries: w.queries.clone(),
            traces: w.traces.clone(),
            train_idx: w.train_idx[..k].to_vec(),
            test_idx: w.test_idx.clone(),
        };
        let tw = env.train(&sub);
        t.row(vec![
            format!("{:.0}%", frac * 100.0),
            k.to_string(),
            f3(mean_f1(env, &sub, &tw)),
        ]);
    }
    t
}

/// Figure 12c: homogeneous vs heterogeneous workloads.
pub fn run_c(env: &Env) -> Table {
    let mut t = Table::new(
        "Figure 12c: homogeneous vs heterogeneous workload (T18 + T19)",
        &[
            "workload type",
            "mean F1 on T18 tests",
            "mean F1 on T19 tests",
        ],
    );
    let w18 = env.prepare(Template::T18);
    let w19 = env.prepare(Template::T19);

    // Homogeneous: one model per template.
    let tw18 = env.trained_default(Template::T18);
    let tw19 = env.trained_default(Template::T19);
    t.row(vec![
        "homogeneous (per-template models)".into(),
        f3(mean_f1(env, &w18, &tw18)),
        f3(mean_f1(env, &w19, &tw19)),
    ]);

    // Heterogeneous: one model trained on a 50/50 mix of the same total size.
    let half18 = w18.train_idx.len() / 2;
    let half19 = w19.train_idx.len() / 2;
    let mut plans = Vec::new();
    let mut traces = Vec::new();
    for &i in w18.train_idx.iter().take(half18) {
        plans.push(w18.queries[i].plan.clone());
        traces.push(w18.traces[i].clone());
    }
    for &i in w19.train_idx.iter().take(half19) {
        plans.push(w19.queries[i].plan.clone());
        traces.push(w19.traces[i].clone());
    }
    let mixed = pythia_core::train_workload(
        &env.bench.db,
        "hetero-t18-t19",
        &plans,
        &traces,
        None,
        &env.cfg.pythia,
    );
    let modeled = mixed.modeled_objects();
    let f1_on = |w: &PreparedWorkload| -> f64 {
        let preds = mixed.infer_batch(&env.bench.db, &w.test_plans());
        let f1s: Vec<f64> = preds
            .iter()
            .zip(w.test_queries())
            .map(|(pred, (_, trace))| f1_score(&pred.as_set(), &ground_truth(trace, &modeled)).f1)
            .collect();
        mean(&f1s)
    };
    t.row(vec![
        "heterogeneous (single mixed model)".into(),
        f3(f1_on(&w18)),
        f3(f1_on(&w19)),
    ]);
    t
}

/// Figure 12d: which labels share an encoder — the paper's separate and
/// combined index/base-table designs, and one encoder for the whole workload
/// with a decoder head per object. Each design is priced on quality, size,
/// measured host inference time per query and the speedup it buys.
pub fn run_d(env: &Env) -> Table {
    let mut t = Table::new(
        "Figure 12d: separate vs combined vs shared-encoder models (Template 18)",
        &[
            "model design",
            "mean F1",
            "total model MB",
            "infer ms / query",
            "mean speedup",
        ],
    );
    let w = env.prepare(Template::T18);
    for (label, grouping) in [
        ("separate (paper default)", Grouping::PerObject),
        ("combined", Grouping::TableIndexPair),
        ("shared encoder (whole workload)", Grouping::Workload),
    ] {
        let tw = if grouping == env.cfg.pythia.grouping {
            env.trained_default(Template::T18)
        } else {
            let cfg = PythiaConfig {
                grouping,
                ..env.cfg.pythia.clone()
            };
            std::sync::Arc::new(env.train_with(&w, &cfg))
        };
        let plans = w.test_plans();
        let t0 = std::time::Instant::now();
        for plan in &plans {
            std::hint::black_box(tw.infer(&env.bench.db, plan));
        }
        let infer_ms = t0.elapsed().as_secs_f64() * 1e3 / plans.len().max(1) as f64;
        t.row(vec![
            label.into(),
            f3(mean_f1(env, &w, &tw)),
            f2(tw.size_bytes() as f64 / 1e6),
            f3(infer_ms),
            f2(mean_speedup(env, &env.run_cfg, &w, &tw)),
        ]);
    }
    t
}

/// Figure 12e: buffer replacement policies (Clock / LRU / MRU) under a
/// halved buffer so replacement actually kicks in (the paper uses 512 MB
/// instead of 1024 MB for the same reason).
pub fn run_e(env: &Env) -> Table {
    let mut t = Table::new(
        "Figure 12e: Pythia speedup under different replacement policies (Template 18)",
        &["policy", "mean speedup"],
    );
    let w = env.prepare(Template::T18);
    let tw = env.trained_default(Template::T18);
    for policy in PolicyKind::ALL {
        let run_cfg = RunConfig {
            policy,
            pool_frames: (env.run_cfg.pool_frames / 2).max(64),
            readahead_window: env
                .run_cfg
                .readahead_window
                .min(env.run_cfg.pool_frames / 4)
                .max(16),
            ..env.run_cfg.clone()
        };
        t.row(vec![
            policy.to_string(),
            f2(mean_speedup(env, &run_cfg, &w, &tw)),
        ]);
    }
    t
}

/// Figure 12f: buffer size sweep.
pub fn run_f(env: &Env) -> Table {
    let mut t = Table::new(
        "Figure 12f: Pythia speedup vs buffer size (Template 18)",
        &["buffer frames", "mean speedup"],
    );
    let w = env.prepare(Template::T18);
    let tw = env.trained_default(Template::T18);
    for mult in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let frames = ((env.run_cfg.pool_frames as f64 * mult) as usize).max(64);
        let run_cfg = RunConfig {
            pool_frames: frames,
            readahead_window: env.run_cfg.readahead_window.min(frames / 2).max(16),
            ..env.run_cfg.clone()
        };
        t.row(vec![
            frames.to_string(),
            f2(mean_speedup(env, &run_cfg, &w, &tw)),
        ]);
    }
    t
}

/// Figure 12g: readahead window sweep.
pub fn run_g(env: &Env) -> Table {
    let mut t = Table::new(
        "Figure 12g: Pythia speedup vs readahead window R (Template 18)",
        &["R (pages pinned)", "mean speedup"],
    );
    let w = env.prepare(Template::T18);
    let tw = env.trained_default(Template::T18);
    for r in [16usize, 64, 256, 1024] {
        let r = r.min(env.run_cfg.pool_frames / 2).max(8);
        let run_cfg = RunConfig {
            readahead_window: r,
            ..env.run_cfg.clone()
        };
        t.row(vec![
            r.to_string(),
            f2(mean_speedup(env, &run_cfg, &w, &tw)),
        ]);
    }
    t
}

/// Figure 12h: predicting only the top-k most frequent pages.
pub fn run_h(env: &Env) -> Table {
    let mut t = Table::new(
        "Figure 12h: top-k page models vs full prediction (Template 18)",
        &["model", "mean F1", "mean speedup"],
    );
    let w = env.prepare(Template::T18);
    // k relative to the largest modeled object.
    let full = env.trained_default(Template::T18);
    let max_pages = full.spans().map(|s| s.n_pages).max().unwrap_or(64) as usize;
    for (label, k) in [
        ("top 1/16 of pages", Some(max_pages / 16)),
        ("top 1/4 of pages", Some(max_pages / 4)),
        ("top 1/2 of pages", Some(max_pages / 2)),
        ("full prediction", None),
    ] {
        let trained;
        let tw: &pythia_core::predictor::TrainedWorkload = match k {
            // Reuse the already-trained full model.
            None => full.as_ref(),
            Some(kv) => {
                let cfg = PythiaConfig {
                    top_k: Some(kv.max(8)),
                    ..env.cfg.pythia.clone()
                };
                trained = env.train_with(&w, &cfg);
                &trained
            }
        };
        t.row(vec![
            label.into(),
            f3(mean_f1(env, &w, tw)),
            f2(mean_speedup(env, &env.run_cfg, &w, tw)),
        ]);
    }
    t
}
