//! Figure 13: Pythia with multiple queries (§5.4) — warm buffers, no cache
//! clearing between queries.

use pythia_baselines::{oracle_prefetch, OracleScope};
use pythia_core::predictor::TrainedWorkload;
use pythia_db::plan::PlanNode;
use pythia_db::runtime::QueryRun;
use pythia_db::trace::Trace;
use pythia_sim::rng::Rng;
use pythia_sim::{PageId, SimDuration};
use pythia_workloads::templates::Template;

use crate::harness::{mean, poisson_arrivals, Env, PreparedWorkload};
use crate::output::{f2, Table};

/// How each query in a batch is prefetched.
enum Variant {
    Dflt,
    Orcl,
    Pythia,
}

struct Batch<'a> {
    items: Vec<(&'a PlanNode, &'a Trace, &'a TrainedWorkload)>,
}

impl<'a> Batch<'a> {
    /// Total latency of the batch run warm-sequentially (each query starts
    /// when the previous one ends; buffers are NOT cleared in between).
    fn sequential_total(&self, env: &Env, variant: &Variant) -> SimDuration {
        let prefetches = self.prefetches(env, variant);
        let mut rt = env.runtime();
        let mut total = SimDuration::ZERO;
        for (&(_, trace, _), pf) in self.items.iter().zip(prefetches) {
            let res = rt.run(&[Self::make_run(trace, pf)]);
            total += res.timings[0].elapsed();
        }
        total
    }

    /// Makespan of the batch run concurrently with the given arrival offsets.
    fn concurrent_makespan(
        &self,
        env: &Env,
        variant: &Variant,
        arrivals: &[SimDuration],
    ) -> SimDuration {
        let prefetches = self.prefetches(env, variant);
        let mut rt = env.runtime();
        let runs: Vec<QueryRun<'_>> = self
            .items
            .iter()
            .zip(prefetches)
            .zip(arrivals)
            .map(|((&(_, trace, _), pf), &arr)| QueryRun {
                arrival: arr,
                ..Self::make_run(trace, pf)
            })
            .collect();
        rt.run(&runs).makespan()
    }

    /// Per-item prefetch list + charged inference latency (`None` = DFLT).
    /// Pythia items are grouped by model and each group goes through one
    /// batched inference call — the multi-query serving path a deployed
    /// batching predictor would use.
    fn prefetches(&self, env: &Env, variant: &Variant) -> Vec<Option<(Vec<PageId>, SimDuration)>> {
        match variant {
            Variant::Dflt => vec![None; self.items.len()],
            Variant::Orcl => self
                .items
                .iter()
                .map(|(_, trace, _)| {
                    Some((oracle_prefetch(trace, OracleScope::All), SimDuration::ZERO))
                })
                .collect(),
            Variant::Pythia => {
                let mut out: Vec<Option<(Vec<PageId>, SimDuration)>> = vec![None; self.items.len()];
                let mut grouped = vec![false; self.items.len()];
                for i in 0..self.items.len() {
                    if grouped[i] {
                        continue;
                    }
                    let tw = self.items[i].2;
                    let idxs: Vec<usize> = (i..self.items.len())
                        .filter(|&j| !grouped[j] && std::ptr::eq(self.items[j].2, tw))
                        .collect();
                    let plans: Vec<&PlanNode> = idxs.iter().map(|&j| self.items[j].0).collect();
                    let batched = env.pythia_prefetch_batch(&env.run_cfg, tw, &plans);
                    for (&j, pf) in idxs.iter().zip(batched) {
                        out[j] = Some(pf);
                        grouped[j] = true;
                    }
                }
                out
            }
        }
    }

    fn make_run(trace: &Trace, prefetch: Option<(Vec<PageId>, SimDuration)>) -> QueryRun<'_> {
        match prefetch {
            None => QueryRun::default_run(trace),
            Some((pf, inference)) => QueryRun::with_prefetch(trace, pf, inference),
        }
    }
}

struct Fleet {
    workloads: Vec<(
        std::sync::Arc<PreparedWorkload>,
        std::sync::Arc<TrainedWorkload>,
    )>,
}

impl Fleet {
    fn train(env: &Env, templates: &[Template]) -> Fleet {
        let workloads = templates
            .iter()
            .map(|&t| {
                let w = env.prepare(t);
                let tw = env.trained_default(t);
                (w, tw)
            })
            .collect();
        Fleet { workloads }
    }

    /// Sample `n` test queries round-robin across the given workload indices,
    /// without replacement within a workload where possible (repeating the
    /// same query would overstate warm-buffer sharing).
    fn sample<'a>(&'a self, which: &[usize], n: usize, seed: u64) -> Batch<'a> {
        let mut rng = Rng::seed_from_u64(seed);
        let mut cursors: Vec<Vec<usize>> = self
            .workloads
            .iter()
            .map(|(w, _)| {
                let mut idx = w.test_idx.clone();
                rng.shuffle(&mut idx);
                idx
            })
            .collect();
        let mut items = Vec::with_capacity(n);
        for i in 0..n {
            let wi = which[i % which.len()];
            let (w, tw) = &self.workloads[wi];
            let pool = &mut cursors[wi];
            let qi = pool
                .pop()
                .unwrap_or_else(|| w.test_idx[rng.gen_range(0..w.test_idx.len())]);
            items.push((&w.queries[qi].plan, &w.traces[qi], tw.as_ref()));
        }
        Batch { items }
    }
}

/// All four panels of Figure 13.
pub struct Fig13 {
    pub a: Table,
    pub b: Table,
    pub c: Table,
    pub d: Table,
}

/// Run Figure 13 (a–d).
pub fn run(env: &Env) -> Fig13 {
    let fleet = Fleet::train(env, &Template::DSB);

    // --- (a) sequential, no overlap, warm buffers ---
    let mut a = Table::new(
        "Figure 13a: sequential multi-query (no overlap, warm buffer) — total-latency speedup",
        &["run", "pythia speedup", "ORCL speedup"],
    );
    for rep in 0..3u64 {
        let batch = fleet.sample(&[0, 1, 2], 4, env.cfg.seed ^ (rep + 1));
        let dflt = batch.sequential_total(env, &Variant::Dflt);
        let pythia = batch.sequential_total(env, &Variant::Pythia);
        let orcl = batch.sequential_total(env, &Variant::Orcl);
        a.row(vec![
            format!("run {}", rep + 1),
            f2(dflt.as_micros() as f64 / pythia.as_micros().max(1) as f64),
            f2(dflt.as_micros() as f64 / orcl.as_micros().max(1) as f64),
        ]);
    }

    // --- (b) concurrent, single template ---
    let mut b = Table::new(
        "Figure 13b: concurrent queries, single template (T18) — makespan speedup",
        &["concurrent queries", "pythia speedup"],
    );
    for &n in &[1usize, 2, 4, 8] {
        let batch = fleet.sample(&[0], n, env.cfg.seed ^ 0xB0 ^ n as u64);
        let arrivals = vec![SimDuration::ZERO; n];
        let dflt = batch.concurrent_makespan(env, &Variant::Dflt, &arrivals);
        let pythia = batch.concurrent_makespan(env, &Variant::Pythia, &arrivals);
        b.row(vec![
            n.to_string(),
            f2(dflt.as_micros() as f64 / pythia.as_micros().max(1) as f64),
        ]);
    }

    // --- (c) concurrent, mixed templates ---
    let mut c = Table::new(
        "Figure 13c: concurrent queries, mixed templates — makespan speedup",
        &["concurrent queries", "pythia speedup"],
    );
    for &n in &[2usize, 4, 8] {
        let batch = fleet.sample(&[0, 1, 2], n, env.cfg.seed ^ 0xC0 ^ n as u64);
        let arrivals = vec![SimDuration::ZERO; n];
        let dflt = batch.concurrent_makespan(env, &Variant::Dflt, &arrivals);
        let pythia = batch.concurrent_makespan(env, &Variant::Pythia, &arrivals);
        c.row(vec![
            n.to_string(),
            f2(dflt.as_micros() as f64 / pythia.as_micros().max(1) as f64),
        ]);
    }

    // --- (d) Poisson arrivals with target expected overlap ---
    let mut d = Table::new(
        "Figure 13d: 5 concurrent T18 queries, Poisson arrivals — makespan speedup",
        &["expected overlap", "pythia speedup"],
    );
    // Expected single-query runtime under DFLT (measured once).
    let probe = fleet.sample(&[0], 3, env.cfg.seed ^ 0xD0);
    let mut runtimes = Vec::new();
    for (_, trace, _) in &probe.items {
        runtimes.push(
            env.cold_time(&env.run_cfg, trace, None, SimDuration::ZERO)
                .as_micros() as f64,
        );
    }
    let expected_rt = mean(&runtimes);
    let mut rng = Rng::seed_from_u64(env.cfg.seed ^ 0xDD);
    for &overlap in &[0.25f64, 0.5, 0.75, 1.0] {
        let batch = fleet.sample(&[0], 5, env.cfg.seed ^ 0xD1 ^ (overlap * 100.0) as u64);
        let arrivals = poisson_arrivals(5, (1.0 - overlap) * expected_rt, &mut rng);
        let dflt = batch.concurrent_makespan(env, &Variant::Dflt, &arrivals);
        let pythia = batch.concurrent_makespan(env, &Variant::Pythia, &arrivals);
        d.row(vec![
            format!("{:.0}%", overlap * 100.0),
            f2(dflt.as_micros() as f64 / pythia.as_micros().max(1) as f64),
        ]);
    }

    Fig13 { a, b, c, d }
}
