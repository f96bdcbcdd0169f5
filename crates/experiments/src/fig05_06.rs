//! Figures 5 & 6: Pythia vs the idealized baselines.
//!
//! * Figure 5 — F1 of Pythia vs NN (nearest neighbour) per workload. ORCL is
//!   omitted there because its F1 is 1.0 by definition.
//! * Figure 6 — speedup of Pythia vs ORCL vs NN per workload.

use std::collections::BTreeSet;

use pythia_baselines::{oracle_prefetch, NearestNeighbor, OracleScope};
use pythia_core::metrics::{f1_score, Distribution};
use pythia_core::predictor::ground_truth;
use pythia_db::trace::{Trace, TraceEvent};
use pythia_sim::{PageId, SimDuration};
use pythia_workloads::templates::Template;

use crate::harness::{mean, Env};
use crate::output::{f2, f3, Table};

/// The NN baseline's F1 compares raw page-id sets (its stored block accesses
/// vs the test query's true non-sequential accesses).
fn pageid_set(trace: &Trace) -> BTreeSet<PageId> {
    trace
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Read { page, kind, .. } if !kind.is_sequential() => Some(page),
            _ => None,
        })
        .collect()
}

fn f1_of_pageid_sets(pred: &BTreeSet<PageId>, truth: &BTreeSet<PageId>) -> f64 {
    let correct = pred.intersection(truth).count() as f64;
    if pred.is_empty() && truth.is_empty() {
        return 1.0;
    }
    if pred.is_empty() || truth.is_empty() {
        return 0.0;
    }
    let p = correct / pred.len() as f64;
    let r = correct / truth.len() as f64;
    if p + r == 0.0 {
        0.0
    } else {
        2.0 * p * r / (p + r)
    }
}

/// Per-template results for both figures.
pub struct Fig0506 {
    pub f1: Table,
    pub speedup: Table,
}

/// Run Figures 5 and 6 over all four workloads.
pub fn run(env: &Env) -> Fig0506 {
    let mut f1_table = Table::new(
        "Figure 5: F1 score, Pythia vs NN baseline",
        &[
            "workload",
            "pythia median F1",
            "pythia q25",
            "pythia q75",
            "NN median F1",
        ],
    );
    let mut sp_table = Table::new(
        "Figure 6: Speedup over DFLT, Pythia vs ORCL vs NN",
        &["workload", "pythia", "ORCL", "NN"],
    );

    for template in Template::ALL {
        let w = env.prepare(template);
        let tw = env.trained_default(template);
        let modeled = tw.modeled_objects();
        let nn = NearestNeighbor::new(&w.train_traces());

        let mut pythia_f1 = Vec::new();
        let mut nn_f1 = Vec::new();
        let mut pythia_sp = Vec::new();
        let mut orcl_sp = Vec::new();
        let mut nn_sp = Vec::new();

        // One batched forward sweep serves every held-out test query.
        let plans = w.test_plans();
        let preds = tw.infer_batch(&env.bench.db, &plans);
        let prefetches = env.pythia_prefetch_batch(&env.run_cfg, &tw, &plans);
        for (q, (_, trace)) in w.test_queries().enumerate() {
            // --- F1 ---
            let truth = ground_truth(trace, &modeled);
            pythia_f1.push(f1_score(&preds[q].as_set(), &truth).f1);

            let (nn_pages, _, _) = nn.prefetch_for(trace);
            let nn_set: BTreeSet<PageId> = nn_pages.iter().copied().collect();
            nn_f1.push(f1_of_pageid_sets(&nn_set, &pageid_set(trace)));

            // --- speedup ---
            let (pf, inference) = prefetches[q].clone();
            pythia_sp.push(env.speedup(&env.run_cfg, trace, pf, inference));

            let orcl = oracle_prefetch(trace, OracleScope::All);
            orcl_sp.push(env.speedup(&env.run_cfg, trace, orcl, SimDuration::ZERO));

            nn_sp.push(env.speedup(&env.run_cfg, trace, nn_pages, SimDuration::ZERO));
        }

        let pd = Distribution::of(&pythia_f1);
        let nd = Distribution::of(&nn_f1);
        f1_table.row(vec![
            template.name().to_owned(),
            f3(pd.median),
            f3(pd.q25),
            f3(pd.q75),
            f3(nd.median),
        ]);
        sp_table.row(vec![
            template.name().to_owned(),
            f2(mean(&pythia_sp)),
            f2(mean(&orcl_sp)),
            f2(mean(&nn_sp)),
        ]);
    }
    Fig0506 {
        f1: f1_table,
        speedup: sp_table,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pageid_f1_edge_cases() {
        let empty = BTreeSet::new();
        assert_eq!(f1_of_pageid_sets(&empty, &empty), 1.0);
        let one: BTreeSet<PageId> = [PageId::new(pythia_sim::FileId(0), 1)]
            .into_iter()
            .collect();
        assert_eq!(f1_of_pageid_sets(&one, &empty), 0.0);
        assert_eq!(f1_of_pageid_sets(&one, &one), 1.0);
    }
}
