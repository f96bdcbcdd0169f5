//! Shared experiment machinery: build the database, prepare workloads
//! (sample + trace + train/test split), train Pythia, and time replays.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use pythia_core::predictor::TrainedWorkload;
use pythia_core::prefetch::{cap_to_budget, engage};
use pythia_core::{train_workload, PythiaConfig};
use pythia_db::plan::PlanNode;
use pythia_db::runtime::{QueryRun, RunConfig, Runtime};
use pythia_db::trace::Trace;
use pythia_sim::{PageId, SimDuration};
use pythia_workloads::templates::{sample_workload, QueryInstance, Template};
use pythia_workloads::{build_benchmark, BenchmarkDb, GeneratorConfig};

use crate::config::ExpConfig;

/// A sampled workload with traces and an unseen-query split.
pub struct PreparedWorkload {
    pub template: Template,
    pub queries: Vec<QueryInstance>,
    pub traces: Vec<Trace>,
    pub train_idx: Vec<usize>,
    pub test_idx: Vec<usize>,
}

impl PreparedWorkload {
    /// Training plans (cloned).
    pub fn train_plans(&self) -> Vec<PlanNode> {
        self.train_idx
            .iter()
            .map(|&i| self.queries[i].plan.clone())
            .collect()
    }

    /// Training traces (cloned).
    pub fn train_traces(&self) -> Vec<Trace> {
        self.train_idx
            .iter()
            .map(|&i| self.traces[i].clone())
            .collect()
    }

    /// Iterate `(plan, trace)` of the held-out test queries.
    pub fn test_queries(&self) -> impl Iterator<Item = (&PlanNode, &Trace)> {
        self.test_idx
            .iter()
            .map(|&i| (&self.queries[i].plan, &self.traces[i]))
    }

    /// Borrowed test-query plans, in [`Self::test_queries`] order — the
    /// input shape batched inference wants.
    pub fn test_plans(&self) -> Vec<&PlanNode> {
        self.test_idx
            .iter()
            .map(|&i| &self.queries[i].plan)
            .collect()
    }
}

/// The experiment environment: database + sized replay configuration.
///
/// Preparing a workload (sampling + tracing) and training the default models
/// are expensive; both are cached per template so the figure modules can
/// share them within one suite run. The caches are mutex-guarded and hand out
/// `Arc`s, so one `Env` is shared by figure jobs running concurrently on the
/// worker pool; a miss computes under the lock (each key exactly once), which
/// is why `bin/all.rs` warms the caches before fanning out.
pub struct Env {
    pub cfg: ExpConfig,
    pub bench: BenchmarkDb,
    pub run_cfg: RunConfig,
    prepared: std::sync::Mutex<
        std::collections::HashMap<(Template, usize), std::sync::Arc<PreparedWorkload>>,
    >,
    trained: std::sync::Mutex<std::collections::HashMap<Template, std::sync::Arc<TrainedWorkload>>>,
}

impl Env {
    /// Build the benchmark database at the configured scale.
    pub fn new(cfg: ExpConfig) -> Env {
        let bench = build_benchmark(&GeneratorConfig {
            scale: cfg.scale,
            seed: cfg.seed,
        });
        let run_cfg = cfg.sized_run(bench.db.disk.total_pages());
        Env {
            cfg,
            bench,
            run_cfg,
            prepared: Default::default(),
            trained: Default::default(),
        }
    }

    /// Like [`Env::new`] but at an explicit scale (Figure 12a).
    pub fn at_scale(cfg: ExpConfig, scale: f64) -> Env {
        let bench = build_benchmark(&GeneratorConfig {
            scale,
            seed: cfg.seed,
        });
        let run_cfg = cfg.sized_run(bench.db.disk.total_pages());
        Env {
            cfg,
            bench,
            run_cfg,
            prepared: Default::default(),
            trained: Default::default(),
        }
    }

    /// Sample `n_queries` instances of `template`, execute them for traces,
    /// and split off the unseen test queries (random, seeded). Cached.
    pub fn prepare(&self, template: Template) -> std::sync::Arc<PreparedWorkload> {
        self.prepare_n(template, self.cfg.n_queries)
    }

    /// [`Env::prepare`] with an explicit workload size. Cached per
    /// `(template, n)`; the lock is held across a miss so each workload is
    /// sampled exactly once even under concurrent callers.
    pub fn prepare_n(&self, template: Template, n: usize) -> std::sync::Arc<PreparedWorkload> {
        let mut cache = self.prepared.lock().unwrap();
        if let Some(w) = cache.get(&(template, n)) {
            return w.clone();
        }
        let w = std::sync::Arc::new(self.prepare_uncached(template, n));
        cache.insert((template, n), w.clone());
        w
    }

    /// Train (once, cached) the default-config models for a template.
    /// Training fans out internally on the worker pool; the lock only
    /// guarantees a single trainer per template.
    pub fn trained_default(&self, template: Template) -> std::sync::Arc<TrainedWorkload> {
        let mut cache = self.trained.lock().unwrap();
        if let Some(tw) = cache.get(&template) {
            return tw.clone();
        }
        let w = self.prepare(template);
        let tw = std::sync::Arc::new(self.train_with(&w, &self.cfg.pythia));
        cache.insert(template, tw.clone());
        tw
    }

    fn prepare_uncached(&self, template: Template, n: usize) -> PreparedWorkload {
        let queries = sample_workload(
            &self.bench,
            template,
            n,
            self.cfg.seed ^ ((template as u64 + 1) * 0x9E37),
        );
        let traces: Vec<Trace> = queries
            .iter()
            .map(|q| pythia_db::exec::execute(&q.plan, &self.bench.db).1)
            .collect();
        let mut idx: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0x5EED);
        idx.shuffle(&mut rng);
        let n_test = ((n as f64 * self.cfg.test_frac).round() as usize).clamp(2, n / 2);
        let (test_idx, train_idx) = idx.split_at(n_test);
        PreparedWorkload {
            template,
            queries,
            traces,
            train_idx: train_idx.to_vec(),
            test_idx: test_idx.to_vec(),
        }
    }

    /// Train Pythia on a prepared workload with the default model config.
    pub fn train(&self, w: &PreparedWorkload) -> TrainedWorkload {
        self.train_with(w, &self.cfg.pythia)
    }

    /// Train with an explicit model config (ablations).
    pub fn train_with(&self, w: &PreparedWorkload, pythia: &PythiaConfig) -> TrainedWorkload {
        let restrict = w.template.prefetch_objects(&self.bench);
        train_workload(
            &self.bench.db,
            w.template.name(),
            &w.train_plans(),
            &w.train_traces(),
            restrict.as_deref(),
            pythia,
        )
    }

    /// A cold replay stack under this environment's sizing.
    pub fn runtime(&self) -> Runtime {
        Runtime::new(&self.run_cfg, self.bench.db.file_lengths())
    }

    /// A cold replay stack with an explicit configuration.
    pub fn runtime_with(&self, cfg: &RunConfig) -> Runtime {
        Runtime::new(cfg, self.bench.db.file_lengths())
    }

    /// Cold-cache runtime of one query (paper methodology: restart +
    /// drop caches between runs).
    pub fn cold_time(
        &self,
        run_cfg: &RunConfig,
        trace: &Trace,
        prefetch: Option<Vec<PageId>>,
        inference: SimDuration,
    ) -> SimDuration {
        let mut rt = self.runtime_with(run_cfg);
        let res = rt.run(&[QueryRun {
            trace,
            prefetch,
            arrival: SimDuration::ZERO,
            inference_latency: inference,
            span_name: pythia_db::runtime::DEFAULT_REPLAY_SPAN,
        }]);
        res.timings[0].elapsed()
    }

    /// Speedup of a prefetch variant over DFLT for one query, cold cache.
    pub fn speedup(
        &self,
        run_cfg: &RunConfig,
        trace: &Trace,
        prefetch: Vec<PageId>,
        inference: SimDuration,
    ) -> f64 {
        let base = self.cold_time(run_cfg, trace, None, SimDuration::ZERO);
        let with = self.cold_time(run_cfg, trace, Some(prefetch), inference);
        base.as_micros() as f64 / with.as_micros().max(1) as f64
    }

    /// Run Pythia for a batch of plans ([`engage`]): per query, the
    /// budget-capped prefetch list and its equal share of the *measured*
    /// wall-clock latency of the one batched forward pass — charged against
    /// the query like the paper charges its 1–1.5 s, amortized as a deployed
    /// batching server would see it.
    pub fn pythia_prefetch_batch(
        &self,
        run_cfg: &RunConfig,
        tw: &TrainedWorkload,
        plans: &[&PlanNode],
    ) -> Vec<(Vec<PageId>, SimDuration)> {
        let (lists, inference) = engage(&self.bench.db, tw, plans);
        // Limited prefetching: stay within buffer bounds (paper §5.1).
        let budget = run_cfg.pool_frames * 3 / 4;
        lists
            .into_iter()
            .map(|list| (cap_to_budget(list, budget), inference))
            .collect()
    }
}

/// Mean of a sample (0 for empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Quartile bucket per element: 0 = bottom 25%, 1 = middle 50%, 2 = top 25%
/// (the paper's Figures 7/8/10/11 bucketing).
pub fn quartile_buckets(values: &[f64]) -> Vec<usize> {
    let n = values.len();
    if n == 0 {
        return Vec::new();
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).expect("no NaN"));
    let q1 = n / 4;
    let q3 = n - n / 4;
    let mut buckets = vec![1usize; n];
    for (rank, &i) in order.iter().enumerate() {
        buckets[i] = if rank < q1 {
            0
        } else if rank >= q3 {
            2
        } else {
            1
        };
    }
    buckets
}

/// Bucket labels matching the paper's figures.
pub const BUCKET_NAMES: [&str; 3] = ["low (bottom 25%)", "medium (mid 50%)", "high (top 25%)"];

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_core::prefetch::prefetch_list;

    fn tiny_env() -> Env {
        let cfg = ExpConfig {
            scale: 0.05,
            n_queries: 12,
            test_frac: 0.25,
            ..ExpConfig::quick()
        };
        Env::new(cfg)
    }

    #[test]
    fn prepare_splits_disjointly() {
        let env = tiny_env();
        let w = env.prepare(Template::T91);
        assert_eq!(w.queries.len(), 12);
        assert_eq!(w.traces.len(), 12);
        let all: std::collections::HashSet<usize> =
            w.train_idx.iter().chain(&w.test_idx).copied().collect();
        assert_eq!(all.len(), 12, "train/test disjoint and covering");
        assert_eq!(w.test_idx.len(), 3);
    }

    #[test]
    fn cold_time_is_deterministic() {
        let env = tiny_env();
        let w = env.prepare_n(Template::T91, 4);
        let t1 = env.cold_time(&env.run_cfg, &w.traces[0], None, SimDuration::ZERO);
        let t2 = env.cold_time(&env.run_cfg, &w.traces[0], None, SimDuration::ZERO);
        assert_eq!(t1, t2);
        assert!(t1 > SimDuration::ZERO);
    }

    #[test]
    fn oracle_speedup_exceeds_one() {
        let env = tiny_env();
        let w = env.prepare_n(Template::T91, 4);
        let pf = pythia_baselines::oracle_prefetch(
            &w.traces[0],
            pythia_baselines::OracleScope::NonSequentialOnly,
        );
        let s = env.speedup(&env.run_cfg, &w.traces[0], pf, SimDuration::ZERO);
        assert!(s > 1.2, "oracle speedup {s:.2}");
    }

    #[test]
    fn quartile_buckets_partition() {
        let vals: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let b = quartile_buckets(&vals);
        assert_eq!(b.iter().filter(|&&x| x == 0).count(), 5);
        assert_eq!(b.iter().filter(|&&x| x == 2).count(), 5);
        assert_eq!(b.iter().filter(|&&x| x == 1).count(), 10);
        assert_eq!(b[0], 0);
        assert_eq!(b[19], 2);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn batched_prefetch_is_the_capped_storage_order_list() {
        let env = tiny_env();
        let w = env.prepare_n(Template::T91, 8);
        let pythia = PythiaConfig {
            epochs: 6,
            ..env.cfg.pythia.clone()
        };
        let tw = env.train_with(&w, &pythia);
        let plans = w.test_plans();
        assert!(!plans.is_empty());
        let batched = env.pythia_prefetch_batch(&env.run_cfg, &tw, &plans);
        assert_eq!(batched.len(), plans.len());
        let budget = env.run_cfg.pool_frames * 3 / 4;
        for (q, plan) in plans.iter().enumerate() {
            let list = prefetch_list(&env.bench.db, &tw.infer(&env.bench.db, plan));
            assert_eq!(batched[q].0, cap_to_budget(list, budget), "query {q}");
        }
        assert!(env.pythia_prefetch_batch(&env.run_cfg, &tw, &[]).is_empty());
    }

    #[test]
    fn env_caches_shared_across_threads() {
        let env = tiny_env();
        let first = env.prepare_n(Template::T91, 4);
        let again = pythia_nn::pool::parallel_map(&[(); 3], |_, _| env.prepare_n(Template::T91, 4));
        for w in &again {
            assert!(
                std::sync::Arc::ptr_eq(w, &first),
                "cache must hand out one workload"
            );
        }
    }
}
