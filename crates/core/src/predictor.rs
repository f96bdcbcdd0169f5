//! Workload-level training (Algorithm 1) and inference (Algorithm 3).
//!
//! A workload's models are [`ModelGroup`]s — which labels share an encoder is
//! [`crate::config::Grouping`]. Every group is an independent, self-seeded
//! training problem, so groups train, infer, and refine on the shared worker
//! pool ([`pythia_nn::pool`]) with outputs bit-identical to a serial run;
//! under the default grouping a workload is one group, one job, and the pool
//! spawns nothing.
//!
//! Unless the configuration fixes it, training ends by choosing the decision
//! threshold on the paper's metric rather than on accuracy: the first
//! training queries are replayed through the simulator at every candidate of
//! [`THRESHOLD_GRID`], and the one with the least total virtual latency is
//! kept.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use pythia_db::catalog::{Database, ObjectId};
use pythia_db::plan::PlanNode;
use pythia_db::runtime::{QueryRun, RunConfig, Runtime};
use pythia_db::trace::Trace;
use pythia_sim::{PageId, SimDuration};

use pythia_nn::pool::{parallel_map_labeled, parallel_map_vec_labeled};
use pythia_nn::tape::{free_inference_arena, free_recording_arena};

use crate::config::PythiaConfig;
use crate::metrics::ObjPage;
use crate::model::{ModelGroup, PageSets, Span};
use crate::prefetch::{cap_to_budget, default_budget, prefetch_list};
use crate::serialize::{serialize_plan, ValueBinner};
use crate::vocab::Vocab;

/// A fully trained Pythia instance for one workload.
#[derive(Clone)]
pub struct TrainedWorkload {
    pub name: String,
    pub vocab: Vocab,
    pub binner: ValueBinner,
    /// The models: one per object (per partition) in the paper's design, one
    /// for the whole workload by default ([`PythiaConfig::grouping`]). A
    /// clone shares them; `refine` copies them first if they are
    /// shared.
    pub groups: Arc<Vec<ModelGroup>>,
    /// The score a label must exceed to be predicted, one for every group:
    /// `cfg.threshold`, else the paper's 0.5 until calibration replaces it.
    /// Re-thresholding a clone copies no weight.
    pub threshold: f32,
    /// Every object scanned by any training plan — the workload signature
    /// used for matching incoming queries.
    pub object_union: BTreeSet<ObjectId>,
    pub cfg: PythiaConfig,
}

/// The output of Algorithm 3's prediction step: pages per object.
#[derive(Debug, Clone, Default)]
pub struct Prediction {
    pub pages: BTreeMap<ObjectId, Vec<u32>>,
}

impl Prediction {
    /// Flatten to a set for F1 computation.
    pub fn as_set(&self) -> BTreeSet<ObjPage> {
        self.pages
            .iter()
            .flat_map(|(obj, pages)| pages.iter().map(move |&p| (*obj, p)))
            .collect()
    }

    /// Total predicted pages.
    pub fn len(&self) -> usize {
        self.pages.values().map(Vec::len).sum()
    }

    /// Whether nothing was predicted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The ground-truth page set for a query, restricted to the objects Pythia
/// models (paper §5.1: predicted vs actual sets over all applicable models).
pub fn ground_truth(trace: &Trace, modeled: &BTreeSet<ObjectId>) -> BTreeSet<ObjPage> {
    trace
        .non_sequential_sets()
        .into_iter()
        .filter(|(obj, _)| modeled.contains(obj))
        .flat_map(|(obj, pages)| pages.into_iter().map(move |p| (obj, p)))
        .collect()
}

/// The decision thresholds calibration tries, highest first, so that a tie
/// keeps the higher one.
pub const THRESHOLD_GRID: [f32; 7] = [0.5, 0.45, 0.4, 0.35, 0.3, 0.25, 0.2];

/// How many training queries, from the first, calibration replays.
const CALIBRATION_QUERIES: usize = 16;

/// Train Pythia for one workload (Algorithm 1).
///
/// * `plans` / `traces` — the training queries and their collected traces.
/// * `restrict_objects` — if `Some`, only these objects get models (the
///   paper restricts IMDB template 1a to `cast_info`); otherwise every object
///   accessed non-sequentially by at least `cfg.min_object_support` of the
///   training queries is modeled.
///
/// With `cfg.threshold` unset, the models' decision threshold is then chosen
/// by replaying the first 16 training queries at each candidate of
/// [`THRESHOLD_GRID`] (`TrainedWorkload::calibrate`).
pub fn train_workload(
    db: &Database,
    name: &str,
    plans: &[PlanNode],
    traces: &[Trace],
    restrict_objects: Option<&[ObjectId]>,
    cfg: &PythiaConfig,
) -> TrainedWorkload {
    assert_eq!(plans.len(), traces.len(), "plan/trace count mismatch");
    assert!(!plans.is_empty(), "empty training workload");
    cfg.validate().expect("invalid config");

    let binner = ValueBinner::from_database(db);
    let mut vocab = Vocab::new();
    // Pre-intern the closed value-token set so unseen parameter values at
    // test time never degrade to [UNK].
    for t in crate::serialize::standard_value_tokens() {
        vocab.intern(&t);
    }
    let token_seqs: Vec<Vec<usize>> = plans
        .iter()
        .map(|p| {
            let toks = serialize_plan(db, &binner, p);
            vocab.encode_interning(&toks)
        })
        .collect();

    let page_sets: Vec<PageSets> = traces.iter().map(|t| t.non_sequential_sets()).collect();

    // Workload signature: union of objects across training plans.
    let mut object_union = BTreeSet::new();
    for p in plans {
        object_union.extend(p.objects(db));
    }

    // Object selection (Algorithm 1 trains per DbObj).
    let selected: Vec<ObjectId> = match restrict_objects {
        Some(objs) => objs.to_vec(),
        None => {
            let mut support: BTreeMap<ObjectId, usize> = BTreeMap::new();
            for sets in &page_sets {
                for obj in sets.keys() {
                    *support.entry(*obj).or_insert(0) += 1;
                }
            }
            let min = (cfg.min_object_support * plans.len() as f64).ceil() as usize;
            support
                .into_iter()
                .filter(|&(_, s)| s >= min.max(1))
                .map(|(o, _)| o)
                .collect()
        }
    };

    // Lay the groups out serially (catalog lookups stay on this thread),
    // then fit them.
    let groups = ModelGroup::plan(cfg, db, vocab.len(), &selected, &page_sets);
    let groups = fit_groups(groups, cfg, &token_seqs, &page_sets, false);

    let mut tw = TrainedWorkload {
        name: name.to_owned(),
        vocab,
        binner,
        groups: Arc::new(groups),
        threshold: cfg.threshold.unwrap_or(0.5),
        object_union,
        cfg: cfg.clone(),
    };
    if cfg.threshold.is_none() && !tw.groups.is_empty() {
        let n = plans.len().min(CALIBRATION_QUERIES);
        tw.threshold = tw.calibrate(db, &plans[..n], &traces[..n]);
    }
    tw
}

/// The candidate with the least total latency; a tie keeps the earlier one
/// (in [`THRESHOLD_GRID`]'s order, the higher threshold).
fn least_latency(totals: impl IntoIterator<Item = (f32, SimDuration)>) -> f32 {
    let mut best: Option<(f32, SimDuration)> = None;
    for (threshold, total) in totals {
        if best.is_none_or(|(_, least)| total < least) {
            best = Some((threshold, total));
        }
    }
    best.expect("at least one candidate").0
}

/// Train (or refine) every group on the worker pool. Each fit is a pure
/// function of (cfg, the group, the queries) with a self-contained RNG, so
/// results are bit-identical to a serial run; every group borrows the same
/// encoded plans and page sets, so N groups over Q queries cost no buffer
/// copies.
fn fit_groups(
    groups: Vec<ModelGroup>,
    cfg: &PythiaConfig,
    token_seqs: &[Vec<usize>],
    page_sets: &[PageSets],
    refine: bool,
) -> Vec<ModelGroup> {
    let label = if refine { "nn.refine" } else { "nn.train" };
    let fitted = parallel_map_vec_labeled(label, groups, |_, mut group| {
        group.fit(cfg, token_seqs, page_sets, refine);
        group
    });
    // At pool width 1 (or with one group) the fits ran here, one after
    // another on this thread's training arena; nothing needs it once they
    // are done.
    free_recording_arena();
    fitted
}

/// Total virtual latency of `traces` replayed in order at concurrency 1 on
/// `rt` from cold, each query prefetching its list as a served query does
/// (an empty list prefetches nothing) and charged no inference time.
fn replay_in_order(rt: &mut Runtime, traces: &[Trace], lists: Vec<Vec<PageId>>) -> SimDuration {
    rt.reset();
    let mut total = SimDuration::ZERO;
    for (trace, list) in traces.iter().zip(lists) {
        let run = QueryRun {
            prefetch: (!list.is_empty()).then_some(list),
            ..QueryRun::default_run(trace)
        };
        total += rt.run(&[run]).timings[0].elapsed();
    }
    total
}

impl TrainedWorkload {
    /// What every run of every group's labels means.
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.groups.iter().flat_map(|g| g.spans())
    }

    /// Objects this workload has models for.
    pub fn modeled_objects(&self) -> BTreeSet<ObjectId> {
        self.spans().map(|s| s.object).collect()
    }

    /// Serialize + encode a plan with this workload's vocabulary.
    pub fn encode_plan(&self, db: &Database, plan: &PlanNode) -> Vec<usize> {
        let toks = serialize_plan(db, &self.binner, plan);
        self.vocab.encode(&toks)
    }

    /// [`Self::encode_plan`] under its former name: the benchmark's staged
    /// pipeline still calls it to warm a plan-encoding memo that no longer
    /// exists. Goes with that call.
    #[deprecated(note = "there is no plan-encoding memo; call `encode_plan`")]
    pub fn encode_plan_cached(&self, db: &Database, plan: &PlanNode) -> Vec<usize> {
        self.encode_plan(db, plan)
    }

    /// Algorithm 3's prediction step for one query: [`Self::infer_batch`] of
    /// one.
    pub fn infer(&self, db: &Database, plan: &PlanNode) -> Prediction {
        self.infer_batch(db, &[plan])
            .pop()
            .expect("one prediction per plan")
    }

    /// Algorithm 3's prediction step for a batch of queries. Each plan is
    /// serialized and encoded here, every time: a served plan is almost
    /// never one served before, and a model keeps nothing per plan. Every
    /// group scores the whole batch, one plan per forward, while the groups
    /// fan out over the worker pool.
    /// A query's prediction does not depend on what shares its batch: groups
    /// run in a fixed order, batched rows are bit-identical whatever the
    /// batch size, and each query's pages go through the same assembly
    /// (`assemble`) at [`Self::threshold`].
    pub fn infer_batch(&self, db: &Database, plans: &[&PlanNode]) -> Vec<Prediction> {
        if plans.is_empty() {
            return Vec::new();
        }
        self.assemble(plans.len(), &self.score_batch(db, plans), self.threshold)
    }

    /// Every group's per-label scores for each of `plans`, group-major,
    /// one plan per forward.
    fn score_batch(&self, db: &Database, plans: &[&PlanNode]) -> Vec<Vec<Vec<f32>>> {
        let toks: Vec<Vec<usize>> = plans.iter().map(|p| self.encode_plan(db, p)).collect();
        parallel_map_labeled("nn.infer_batch", &self.groups, |_, group| {
            toks.iter().map(|t| group.classifier.scores(t)).collect()
        })
    }

    /// Turn `n` queries' scores ([`Self::score_batch`]) into predictions:
    /// each group's pages scoring above `threshold`, pushed in group order,
    /// then sorted and deduplicated per object. Inference and calibration
    /// share it, so a calibrated list is the list served at that threshold.
    fn assemble(&self, n: usize, scores: &[Vec<Vec<f32>>], threshold: f32) -> Vec<Prediction> {
        let mut results: Vec<Prediction> = (0..n).map(|_| Prediction::default()).collect();
        for (group, per_query) in self.groups.iter().zip(scores) {
            for (pred, scores) in results.iter_mut().zip(per_query) {
                for (obj, page) in group.pages_above(scores, threshold) {
                    pred.pages.entry(obj).or_default().push(page);
                }
            }
        }
        for pred in &mut results {
            for v in pred.pages.values_mut() {
                v.sort_unstable();
                v.dedup();
            }
        }
        results
    }

    /// Choose the decision threshold on the paper's metric (§5.1's virtual
    /// latency) instead of on accuracy. `plans` (training queries, never
    /// held-out ones) are scored in one batched forward pass; then, for each
    /// candidate of [`THRESHOLD_GRID`], each query's prefetch list is built
    /// as it would be served ([`prefetch_list`] capped to
    /// [`default_budget`]) and the queries are replayed in order, one at a
    /// time, on one stack sized for `db` ([`RunConfig::sized_for`]) that
    /// warms as they run. The candidate with the least total virtual
    /// latency wins; a tie keeps the higher threshold. The replay is exact
    /// and charges no inference time, so the choice is a pure function of
    /// the models and the queries. Nothing it builds outlives the call.
    fn calibrate(&self, db: &Database, plans: &[PlanNode], traces: &[Trace]) -> f32 {
        assert_eq!(plans.len(), traces.len(), "plan/trace count mismatch");
        let refs: Vec<&PlanNode> = plans.iter().collect();
        let scores = self.score_batch(db, &refs);
        let file_lens = db.file_lengths();
        let total_pages = file_lens.iter().map(|&l| u64::from(l)).sum();
        let mut rt = Runtime::new(&RunConfig::sized_for(total_pages), file_lens);
        let budget = default_budget(rt.pool_frames());
        let totals = THRESHOLD_GRID.iter().map(|&threshold| {
            let lists = self.calibration_lists(db, &scores, plans.len(), threshold, budget);
            (threshold, replay_in_order(&mut rt, traces, lists))
        });
        let chosen = least_latency(totals);
        // The forward pass warmed this thread's inference arena.
        free_inference_arena();
        chosen
    }

    /// The budget-capped prefetch list of each of `n` scored queries at
    /// `threshold`: what serving at that threshold would issue.
    fn calibration_lists(
        &self,
        db: &Database,
        scores: &[Vec<Vec<f32>>],
        n: usize,
        threshold: f32,
        budget: usize,
    ) -> Vec<Vec<PageId>> {
        self.assemble(n, scores, threshold)
            .iter()
            .map(|prediction| cap_to_budget(prefetch_list(db, prediction), budget))
            .collect()
    }

    /// Incremental retraining (§5.3): continue training every group on newly
    /// observed queries. Plans are encoded with the *existing* vocabulary
    /// (tokens unseen at initial training map to `[UNK]`; value tokens are a
    /// closed set, so parameters always encode), and the label spaces are
    /// unchanged — this is the cheap periodic-refresh path the paper
    /// recommends over full retraining. Only tests call it until the server
    /// refits a served model from the queries it serves.
    #[cfg(test)]
    pub(crate) fn refine(&mut self, db: &Database, plans: &[PlanNode], traces: &[Trace]) {
        assert_eq!(plans.len(), traces.len());
        if plans.is_empty() {
            return;
        }
        let token_seqs: Vec<Vec<usize>> = plans.iter().map(|p| self.encode_plan(db, p)).collect();
        let page_sets: Vec<PageSets> = traces.iter().map(|t| t.non_sequential_sets()).collect();
        let groups = Arc::unwrap_or_clone(std::mem::take(&mut self.groups));
        self.groups = Arc::new(fit_groups(groups, &self.cfg, &token_seqs, &page_sets, true));
        for p in plans {
            self.object_union.extend(p.objects(db));
        }
    }

    /// Total model size in bytes (paper §5.1 reports this per template).
    pub fn size_bytes(&self) -> usize {
        self.groups.iter().map(|g| g.classifier.size_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Grouping;
    use crate::metrics::f1_score;
    use pythia_db::exec::execute;
    use pythia_db::expr::{CmpOp, Pred};
    use pythia_db::types::Schema;

    /// The star's `dim` table.
    fn dim_object(db: &Database) -> ObjectId {
        let dim = db.tables().iter().find(|t| t.name == "dim");
        dim.expect("a star has dim").object
    }

    /// A miniature star: fact(2000 rows) probing dim(600 rows) through an
    /// index, with fact.dkey clustered by fact.date so date ranges select
    /// learnable dim page ranges.
    fn mini_star() -> (Database, Vec<PlanNode>, Vec<Trace>) {
        let mut db = Database::new();
        let fact = db.create_table("fact", Schema::ints(&["id", "date", "dkey"]));
        let dim = db.create_table("dim", Schema::ints(&["d_id", "attr"]));
        for i in 0..2000i64 {
            let date = i / 2; // 1000 dates
            let dkey = (date * 600 / 1000 + i % 3).min(599);
            db.insert(fact, &Database::row([i, date, dkey]));
        }
        for d in 0..600i64 {
            db.insert(dim, &Database::row([d, d % 9]));
        }
        let idx = db.create_index("dim_pk", dim, 0);

        let mut plans = Vec::new();
        let mut traces = Vec::new();
        for q in 0..36i64 {
            let lo = (q * 31) % 900;
            let hi = lo + 60;
            let plan = PlanNode::IndexNLJoin {
                outer: Box::new(PlanNode::SeqScan {
                    table: fact,
                    pred: Some(Pred::Between { col: 1, lo, hi }),
                }),
                outer_key: 2,
                inner: dim,
                inner_index: idx,
                inner_pred: Some(Pred::Cmp {
                    col: 1,
                    op: CmpOp::Ge,
                    lit: 0,
                }),
            };
            let (_, trace) = execute(&plan, &db);
            plans.push(plan);
            traces.push(trace);
        }
        (db, plans, traces)
    }

    /// The paper's threshold: these tests read predictions. The ones about
    /// calibration ask for it with `threshold: None`.
    fn cfg() -> PythiaConfig {
        PythiaConfig {
            epochs: 40,
            batch_size: 8,
            lr: 5e-3,
            threshold: Some(0.5),
            ..PythiaConfig::fast()
        }
    }

    const GROUPINGS: [Grouping; 3] = [
        Grouping::PerObject,
        Grouping::TableIndexPair,
        Grouping::Workload,
    ];

    /// The two objects every `mini_star` query probes: dim's heap and index.
    fn dim_objects(db: &Database) -> (ObjectId, ObjectId) {
        // Both exist, so the search ends before it runs past the catalog.
        let named = |name: &str| (0..).map(ObjectId).find(|&o| db.object_name(o) == name);
        (named("dim").unwrap(), named("dim_pk").unwrap())
    }

    /// Interleaved train/test split: every 6th query is held out, so test
    /// parameters fall *inside* the trained range (the paper's unseen
    /// queries are from the same workload distribution, not extrapolations).
    fn split(
        plans: &[PlanNode],
        traces: &[Trace],
    ) -> (Vec<PlanNode>, Vec<Trace>, Vec<PlanNode>, Vec<Trace>) {
        let mut tr_p = Vec::new();
        let mut tr_t = Vec::new();
        let mut te_p = Vec::new();
        let mut te_t = Vec::new();
        for (i, (p, t)) in plans.iter().zip(traces).enumerate() {
            if i % 6 == 5 {
                te_p.push(p.clone());
                te_t.push(t.clone());
            } else {
                tr_p.push(p.clone());
                tr_t.push(t.clone());
            }
        }
        (tr_p, tr_t, te_p, te_t)
    }

    #[test]
    fn no_training_memory_outlives_train_workload_or_refine() {
        use crate::classifier::PlanClassifier;
        use pythia_nn::tape::forward_only;
        use pythia_nn::tape::recording;
        let (db, plans, traces) = mini_star();
        let quick = PythiaConfig {
            epochs: 2,
            threshold: None,
            ..cfg()
        };
        // A fit on this thread leaves its training arena warm, as the fleet's
        // fits do at pool width 1 (at other widths the workers' arenas go
        // with their threads): whatever is in it when the call returns, the
        // call has freed.
        let retained = || recording(|tape| tape.retained_bytes());
        let warm = || {
            PlanClassifier::new(&quick, 10, &[4]).train_phase(&[(&[2, 3], vec![1])], &quick, false);
            assert!(retained() > 0);
        };
        // Calibration's forward pass runs on this thread's inference arena.
        let inference = || forward_only(|tape| tape.retained_bytes());
        warm();
        let mut tw = train_workload(&db, "mini", &plans[..8], &traces[..8], None, &quick);
        assert_eq!(retained(), 0, "train_workload left a training arena");
        assert_eq!(inference(), 0, "calibration left an inference arena");
        let chosen = tw.threshold;
        assert!(THRESHOLD_GRID.contains(&chosen), "{chosen}");
        warm();
        tw.refine(&db, &plans[8..12], &traces[8..12]);
        assert_eq!(retained(), 0, "refine left a training arena");
        assert_eq!(tw.threshold, chosen, "refine kept the threshold");
    }

    /// Total virtual latency of `traces` served in order at concurrency 1
    /// on one stack sized for `db`, each prefetching its list.
    fn serve_in_order(db: &Database, traces: &[Trace], lists: &[Vec<PageId>]) -> SimDuration {
        let total_pages = db.file_lengths().iter().map(|&l| u64::from(l)).sum();
        let mut rt = Runtime::new(&RunConfig::sized_for(total_pages), db.file_lengths());
        let mut total = SimDuration::ZERO;
        for (trace, list) in traces.iter().zip(lists) {
            let run = if list.is_empty() {
                QueryRun::default_run(trace)
            } else {
                QueryRun::with_prefetch(trace, list.clone(), SimDuration::ZERO)
            };
            total += rt.run(&[run]).timings[0].elapsed();
        }
        total
    }

    #[test]
    fn calibration_picks_the_grid_argmin() {
        let (db, plans, traces) = mini_star();
        let c = PythiaConfig {
            epochs: 8,
            threshold: None,
            ..cfg()
        };
        let n = CALIBRATION_QUERIES;
        let mut tw = train_workload(&db, "mini", &plans[..20], &traces[..20], None, &c);
        let chosen = tw.threshold;
        let total_pages = db.file_lengths().iter().map(|&l| u64::from(l)).sum();
        let budget = default_budget(RunConfig::sized_for(total_pages).pool_frames);
        let refs: Vec<&PlanNode> = plans[..n].iter().collect();
        let scores = tw.score_batch(&db, &refs);
        let mut served_totals = Vec::new();
        for threshold in THRESHOLD_GRID {
            // Served: every group predicts at `threshold` through `infer`.
            tw.threshold = threshold;
            let served: Vec<Vec<PageId>> = plans[..n]
                .iter()
                .map(|p| cap_to_budget(prefetch_list(&db, &tw.infer(&db, p)), budget))
                .collect();
            let calibrated = tw.calibration_lists(&db, &scores, n, threshold, budget);
            assert_eq!(calibrated, served, "threshold {threshold}");
            served_totals.push(serve_in_order(&db, &traces[..n], &served));
        }
        // The argmin, the first (highest) threshold on a tie.
        let least = *served_totals.iter().min().unwrap();
        let first = served_totals.iter().position(|&t| t == least).unwrap();
        assert_eq!(chosen, THRESHOLD_GRID[first], "{served_totals:?}");
        // The rule itself, on made-up totals.
        let us = SimDuration::from_micros;
        assert_eq!(
            least_latency([(0.5, us(9)), (0.4, us(7)), (0.3, us(7))]),
            0.4
        );
        assert_eq!(least_latency([(0.5, us(7)), (0.4, us(7))]), 0.5);
        assert_eq!(
            least_latency([(0.5, us(8)), (0.4, us(9)), (0.3, us(1))]),
            0.3
        );
    }

    #[test]
    fn a_fixed_threshold_is_not_calibrated() {
        let (db, plans, traces) = mini_star();
        for threshold in [0.5, 0.05, 0.95] {
            let c = PythiaConfig {
                epochs: 2,
                threshold: Some(threshold),
                ..cfg()
            };
            let tw = train_workload(&db, "mini", &plans[..8], &traces[..8], None, &c);
            assert_eq!(tw.threshold, threshold);
        }
    }

    #[test]
    fn trains_models_for_probed_objects() {
        let (db, plans, traces) = mini_star();
        let quick = PythiaConfig { epochs: 2, ..cfg() };
        let (dim, idx) = dim_objects(&db);
        let sizes: Vec<usize> = GROUPINGS
            .iter()
            .map(|&grouping| {
                let c = PythiaConfig {
                    grouping,
                    ..quick.clone()
                };
                let tw = train_workload(&db, "mini", &plans[..20], &traces[..20], None, &c);
                // dim table + dim index both accessed non-sequentially by every
                // query: two models in the paper's design, one otherwise.
                let expect = if grouping == Grouping::PerObject {
                    2
                } else {
                    1
                };
                assert_eq!(tw.groups.len(), expect, "{grouping:?}");
                assert_eq!(tw.modeled_objects(), BTreeSet::from([dim, idx]));
                assert!(tw.object_union.len() >= 3);
                tw.size_bytes()
            })
            .collect();
        // Per object pays for two encoders and two decoders, the workload
        // group for one encoder and two decoders, the pair for one and one.
        assert!(sizes[0] > sizes[2] && sizes[2] > sizes[1], "{sizes:?}");
        assert_eq!(PythiaConfig::fast().grouping, Grouping::Workload);
    }

    /// Epoch ladder for learning-quality assertions (ROADMAP seed-test
    /// triage): trained F1 at a fixed small epoch count depends on the
    /// shuffle stream, so these tests deterministically grow epochs until the
    /// floor is met instead of gating on a single training budget. Every rung
    /// uses the same seed, so the test passes or fails identically on every
    /// machine.
    const EPOCH_LADDER: [usize; 3] = [40, 80, 160];

    #[test]
    fn predictions_beat_trivial_baselines_on_held_out_queries() {
        let (db, plans, traces) = mini_star();
        let (tr_p, tr_t, te_p, te_t) = split(&plans, &traces);
        let mut mean = 0.0;
        for epochs in EPOCH_LADDER {
            let c = PythiaConfig { epochs, ..cfg() };
            let tw = train_workload(&db, "mini", &tr_p, &tr_t, None, &c);
            let modeled = tw.modeled_objects();
            let f1s: Vec<f64> = te_p
                .iter()
                .zip(&te_t)
                .map(|(p, t)| {
                    let pred = tw.infer(&db, p);
                    f1_score(&pred.as_set(), &ground_truth(t, &modeled)).f1
                })
                .collect();
            mean = f1s.iter().sum::<f64>() / f1s.len() as f64;
            if mean > 0.4 {
                break;
            }
        }
        assert!(
            mean > 0.4,
            "held-out F1 too low even at max epochs: {mean:.3}"
        );
    }

    #[test]
    fn restrict_objects_limits_models() {
        let (db, plans, traces) = mini_star();
        let dim_obj = dim_object(&db);
        let tw = train_workload(
            &db,
            "mini",
            &plans[..12],
            &traces[..12],
            Some(&[dim_obj]),
            &cfg(),
        );
        assert_eq!(tw.modeled_objects(), BTreeSet::from([dim_obj]));
    }

    #[test]
    fn batched_infer_matches_serial_infer() {
        let (db, plans, traces) = mini_star();
        // Every grouping, and top-k spans (whose labels are not in page
        // order) under the default one.
        let designs = [
            (Grouping::PerObject, None),
            (Grouping::TableIndexPair, None),
            (Grouping::Workload, None),
            (Grouping::Workload, Some(6)),
        ];
        for (grouping, top_k) in designs {
            let quick = PythiaConfig {
                epochs: 8,
                grouping,
                top_k,
                ..cfg()
            };
            let tw = train_workload(&db, "mini", &plans[..12], &traces[..12], None, &quick);
            let batch: Vec<&PlanNode> = plans[12..20].iter().collect();
            let preds = tw.infer_batch(&db, &batch);
            assert_eq!(preds.len(), batch.len());
            assert!(preds.iter().any(|p| !p.is_empty()), "{grouping:?}");
            for (q, p) in batch.iter().enumerate() {
                let serial = tw.infer(&db, p);
                assert_eq!(preds[q].pages, serial.pages, "{grouping:?} query {q}");
                // The prefetcher's contract: each object's pages ascending.
                let mut lists = serial.pages.values();
                assert!(lists.all(|l| !l.is_empty() && l.windows(2).all(|w| w[0] < w[1])));
            }
            assert!(tw.infer_batch(&db, &[]).is_empty());
        }
    }

    /// What a workload's models compute, to the bit: every group's score for
    /// every label on each of `plans`.
    fn score_bits(tw: &TrainedWorkload, db: &Database, plans: &[PlanNode]) -> Vec<u32> {
        let mut bits = Vec::new();
        for p in plans {
            let toks = tw.encode_plan(db, p);
            for g in tw.groups.iter() {
                bits.extend(g.classifier.scores(&toks).into_iter().map(f32::to_bits));
            }
        }
        bits
    }

    #[test]
    fn a_workload_group_trains_and_infers_the_same_at_any_pool_width_and_without_simd() {
        use pythia_nn::kernels::{set_simd_override, SimdOverride};
        use pythia_nn::pool::set_thread_override;
        // Both switches are process-wide and change speed only, so tests
        // running beside this one are not disturbed; this one reads them back
        // through what it trains.
        struct Restore;
        impl Drop for Restore {
            fn drop(&mut self) {
                set_thread_override(0);
                set_simd_override(SimdOverride::Env);
            }
        }
        let _restore = Restore;
        let (db, plans, traces) = mini_star();
        // Calibrated: the threshold it picks is part of what must repeat.
        let quick = PythiaConfig {
            epochs: 3,
            threshold: None,
            ..cfg()
        };
        assert_eq!(quick.grouping, Grouping::Workload);
        let run = |threads: usize, simd: SimdOverride| {
            set_thread_override(threads);
            set_simd_override(simd);
            let mut tw = train_workload(&db, "mini", &plans[..12], &traces[..12], None, &quick);
            let trained = score_bits(&tw, &db, &plans[12..20]);
            let threshold = tw.threshold.to_bits();
            let batch: Vec<&PlanNode> = plans[12..20].iter().collect();
            let preds: Vec<_> = tw.infer_batch(&db, &batch);
            let pages: Vec<_> = preds.into_iter().map(|p| p.pages).collect();
            tw.refine(&db, &plans[20..24], &traces[20..24]);
            let refined = score_bits(&tw, &db, &plans[12..20]);
            (trained, threshold, pages, refined)
        };
        let reference = run(1, SimdOverride::ForceDetect);
        assert!(run(4, SimdOverride::ForceDetect) == reference, "pool width");
        assert!(
            run(1, SimdOverride::ForceScalar) == reference,
            "PYTHIA_SIMD=off"
        );
        // On an AVX-512 host, the AVX2 arm below the detected one.
        assert!(run(1, SimdOverride::CapAvx2) == reference, "AVX2");
    }

    #[test]
    fn incremental_refinement_adapts_to_new_region() {
        // Train only on queries over the low half of the date domain; the
        // model is weak on high-range queries. Refining with high-range
        // examples must improve F1 there (the paper's "every new query run
        // can be used as a new training data point").
        let (db, plans, traces) = mini_star();
        // mini_star: lo = (q*31)%900. Low-half training: lo < 450.
        let low: Vec<usize> = (0..36)
            .filter(|&q| (q as i64 * 31) % 900 < 450 && q % 6 != 5)
            .collect();
        let high_train: Vec<usize> = (0..36)
            .filter(|&q| (q as i64 * 31) % 900 >= 450 && q % 6 != 5)
            .collect();
        let high_test: Vec<usize> = (0..36)
            .filter(|&q| (q as i64 * 31) % 900 >= 450 && q % 6 == 5)
            .collect();
        assert!(!high_test.is_empty());

        let pick = |idx: &[usize]| -> (Vec<PlanNode>, Vec<Trace>) {
            (
                idx.iter().map(|&i| plans[i].clone()).collect(),
                idx.iter().map(|&i| traces[i].clone()).collect(),
            )
        };
        let (lp, lt) = pick(&low);
        let (hp, ht) = pick(&high_train);
        // In every grouping: the pair's and the workload's weights sit in one
        // group, and refinement has to reach them too.
        for grouping in GROUPINGS {
            let (mut before, mut after) = (0.0, 0.0);
            for epochs in EPOCH_LADDER {
                let c = PythiaConfig {
                    epochs,
                    grouping,
                    ..cfg()
                };
                let mut tw = train_workload(&db, "mini", &lp, &lt, None, &c);
                let modeled = tw.modeled_objects();
                let f1_high = |tw: &TrainedWorkload| {
                    let f1s: Vec<f64> = high_test
                        .iter()
                        .map(|&i| {
                            let pred = tw.infer(&db, &plans[i]);
                            f1_score(&pred.as_set(), &ground_truth(&traces[i], &modeled)).f1
                        })
                        .collect();
                    f1s.iter().sum::<f64>() / f1s.len() as f64
                };
                before = f1_high(&tw);
                tw.refine(&db, &hp, &ht);
                after = f1_high(&tw);
                if after > before + 0.05 {
                    break;
                }
            }
            assert!(
                after > before + 0.05,
                "{grouping:?}: refinement should improve the new region: {before:.3} -> {after:.3}"
            );
        }
    }

    /// A clone shares its weights until one of them is written: refining the
    /// clone copies them once, and the original scores as before, bit for
    /// bit; re-thresholding the clone copies nothing.
    #[test]
    fn a_clone_shares_weights_until_written() {
        let (db, plans, traces) = mini_star();
        let c = PythiaConfig { epochs: 1, ..cfg() };
        let tw = train_workload(&db, "mini", &plans[..6], &traces[..6], None, &c);
        let refs: Vec<&PlanNode> = plans.iter().collect();
        let bits = |w: &TrainedWorkload| -> Vec<u32> {
            let scores = w.score_batch(&db, &refs).into_iter().flatten().flatten();
            scores.map(f32::to_bits).collect()
        };
        let before = bits(&tw);

        let mut refined = tw.clone();
        assert!(Arc::ptr_eq(&tw.groups, &refined.groups), "a clone copied");
        refined.refine(&db, &plans[6..12], &traces[6..12]);
        assert!(!Arc::ptr_eq(&tw.groups, &refined.groups));
        assert_ne!(bits(&refined), before, "refining changed nothing");
        assert_eq!(bits(&tw), before, "refining a clone changed the original");

        let mut recalibrated = tw.clone();
        recalibrated.threshold = 0.9;
        assert!(
            Arc::ptr_eq(&tw.groups, &recalibrated.groups),
            "a re-threshold copied"
        );
        assert_eq!(tw.threshold, 0.5);
    }

    /// A small star: fact(600) probing dim(150) through an index, with the
    /// dim key clustered by date so the labels are learnable.
    fn tiny_star() -> (Database, Vec<PlanNode>, Vec<Trace>) {
        let mut db = Database::new();
        let fact = db.create_table("fact", Schema::ints(&["id", "date", "dkey"]));
        let dim = db.create_table("dim", Schema::ints(&["d_id", "attr"]));
        for i in 0..600i64 {
            let date = i / 2; // 300 dates
            let dkey = (date * 150 / 300 + i % 3).min(149);
            db.insert(fact, &Database::row([i, date, dkey]));
        }
        for d in 0..150i64 {
            db.insert(dim, &Database::row([d, d % 9]));
        }
        let idx = db.create_index("dim_pk", dim, 0);

        let mut plans = Vec::new();
        let mut traces = Vec::new();
        for q in 0..12i64 {
            let lo = (q * 37) % 200;
            let plan = PlanNode::IndexNLJoin {
                outer: Box::new(PlanNode::SeqScan {
                    table: fact,
                    pred: Some(Pred::Between {
                        col: 1,
                        lo,
                        hi: lo + 40,
                    }),
                }),
                outer_key: 2,
                inner: dim,
                inner_index: idx,
                inner_pred: Some(Pred::Cmp {
                    col: 1,
                    op: CmpOp::Ge,
                    lit: 0,
                }),
            };
            let (_, trace) = execute(&plan, &db);
            plans.push(plan);
            traces.push(trace);
        }
        (db, plans, traces)
    }

    /// The threshold, then every group's parameter tensors, as bit patterns:
    /// all that training, calibration and refinement write.
    fn weight_bits(tw: &TrainedWorkload) -> Vec<((usize, usize), Vec<u32>)> {
        let mut out = vec![((1, 1), vec![tw.threshold.to_bits()])];
        for g in tw.groups.iter() {
            for t in g.classifier.tensors() {
                out.push((
                    t.shape(),
                    t.as_slice().iter().map(|x| x.to_bits()).collect(),
                ));
            }
        }
        out
    }

    /// Training, inference and refinement on the worker pool are
    /// bit-identical to a single-thread run, in every grouping, across seeds
    /// and thread counts.
    #[test]
    fn parallel_fleet_is_bit_identical_to_serial() {
        use pythia_nn::pool::set_thread_override;
        use pythia_sim::rng::cases;
        /// Restores the pool to its environment-configured width even when
        /// a failed assertion unwinds mid-test.
        struct RestoreThreads;
        impl Drop for RestoreThreads {
            fn drop(&mut self) {
                set_thread_override(0);
            }
        }
        cases(6, |rng| {
            let seed = rng.gen_range(0..1000);
            let grouping = GROUPINGS[rng.gen_range(0..3usize)];
            let n_threads = rng.gen_range(2..6);
            let _guard = RestoreThreads;
            let (db, plans, traces) = tiny_star();
            let cfg = PythiaConfig {
                epochs: 2,
                batch_size: 4,
                lr: 5e-3,
                seed,
                grouping,
                ..PythiaConfig::fast()
            };
            let (train_p, train_t) = (&plans[..9], &traces[..9]);
            let (extra_p, extra_t) = (&plans[9..], &traces[9..]);

            set_thread_override(1);
            let mut tw_serial = train_workload(&db, "tiny", train_p, train_t, None, &cfg);
            set_thread_override(n_threads);
            let mut tw_pooled = train_workload(&db, "tiny", train_p, train_t, None, &cfg);

            assert!(
                weight_bits(&tw_serial) == weight_bits(&tw_pooled),
                "pooled training diverged from serial (seed {seed}, {grouping:?}, {n_threads} threads)"
            );
            for p in &plans {
                set_thread_override(1);
                let a = tw_serial.infer(&db, p);
                set_thread_override(n_threads);
                let b = tw_pooled.infer(&db, p);
                assert_eq!(a.pages, b.pages, "pooled inference diverged");
            }

            // Refinement fans out over the same pool; it must stay bit-identical.
            set_thread_override(1);
            tw_serial.refine(&db, extra_p, extra_t);
            set_thread_override(n_threads);
            tw_pooled.refine(&db, extra_p, extra_t);
            assert!(
                weight_bits(&tw_serial) == weight_bits(&tw_pooled),
                "pooled refinement diverged from serial"
            );
        });
    }

    #[test]
    fn ground_truth_restricted_to_modeled() {
        let (db, plans, traces) = mini_star();
        let dim_obj = dim_object(&db);
        let modeled: BTreeSet<ObjectId> = [dim_obj].into_iter().collect();
        let gt = ground_truth(&traces[0], &modeled);
        assert!(gt.iter().all(|(o, _)| *o == dim_obj));
        assert!(!gt.is_empty());
        let _ = plans;
    }
}
