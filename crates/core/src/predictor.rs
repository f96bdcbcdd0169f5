//! Workload-level training (Algorithm 1) and inference (Algorithm 3).
//!
//! A workload's models are [`ModelGroup`]s — which labels share an encoder is
//! [`crate::config::Grouping`]. Every group is an independent, self-seeded
//! training problem, so groups train, infer, and refine on the shared worker
//! pool ([`pythia_nn::pool`]) with outputs bit-identical to a serial run;
//! under the default grouping a workload is one group, one job, and the pool
//! spawns nothing.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Mutex;

use pythia_db::catalog::{Database, ObjectId};
use pythia_db::plan::PlanNode;
use pythia_db::trace::Trace;

use pythia_nn::pool::{parallel_map_labeled, parallel_map_vec_labeled};
use pythia_nn::tape::free_recording_arena;

use crate::config::PythiaConfig;
use crate::metrics::ObjPage;
use crate::model::{ModelGroup, PageSets, Span};
use crate::serialize::{object_token, serialize_plan, ValueBinner};
use crate::vocab::Vocab;

/// Upper bound on memoized plan encodings (each workload template has few
/// distinct plans, so this is generous; it only guards pathological callers).
const ENCODE_CACHE_CAP: usize = 4096;

/// A fully trained Pythia instance for one workload.
#[derive(serde::Serialize, serde::Deserialize)]
pub struct TrainedWorkload {
    pub name: String,
    pub vocab: Vocab,
    pub binner: ValueBinner,
    /// The models: one per object (per partition) in the paper's design, one
    /// for the whole workload by default ([`PythiaConfig::grouping`]).
    pub groups: Vec<ModelGroup>,
    /// Every object scanned by any training plan — the workload signature
    /// used for matching incoming queries.
    pub object_union: BTreeSet<ObjectId>,
    pub cfg: PythiaConfig,
    /// Plan → token-sequence memo for [`Self::infer_batch`]. Encoding depends only
    /// on the (frozen) vocabulary and binner, so entries never invalidate —
    /// not even across [`Self::refine`], which only moves model weights.
    #[serde(skip)]
    encode_cache: Mutex<HashMap<PlanNode, Vec<usize>>>,
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

/// Train Pythia for one workload (Algorithm 1).
///
/// * `plans` / `traces` — the training queries and their collected traces.
/// * `restrict_objects` — if `Some`, only these objects get models (the
///   paper restricts IMDB template 1a to `cast_info`); otherwise every object
///   accessed non-sequentially by at least `cfg.min_object_support` of the
///   training queries is modeled.
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

    TrainedWorkload {
        name: name.to_owned(),
        vocab,
        binner,
        groups,
        object_union,
        cfg: cfg.clone(),
        encode_cache: Mutex::new(HashMap::new()),
    }
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

    /// [`Self::encode_plan`] with memoization: each workload template has
    /// only a handful of distinct plans (paper Table 1), so repeat queries
    /// skip serialization entirely.
    pub fn encode_plan_cached(&self, db: &Database, plan: &PlanNode) -> Vec<usize> {
        if let Some(hit) = self.encode_cache.lock().unwrap().get(plan) {
            return hit.clone();
        }
        let toks = self.encode_plan(db, plan);
        let mut cache = self.encode_cache.lock().unwrap();
        if cache.len() < ENCODE_CACHE_CAP {
            cache.insert(plan.clone(), toks.clone());
        }
        toks
    }

    /// Algorithm 3's prediction step for one query: [`Self::infer_batch`] of
    /// one.
    pub fn infer(&self, db: &Database, plan: &PlanNode) -> Prediction {
        self.infer_batch(db, &[plan])
            .pop()
            .expect("one prediction per plan")
    }

    /// Algorithm 3's prediction step for a batch of queries. Every group
    /// sees the whole batch through one packed forward pass (batch-major
    /// matmuls) while the groups fan out over the worker pool. A query's
    /// prediction does not depend on what shares its batch: groups run in a
    /// fixed order, batched rows are bit-identical whatever the batch size,
    /// and each query's pages go through the same assembly (push in group
    /// order, sort + dedup).
    pub fn infer_batch(&self, db: &Database, plans: &[&PlanNode]) -> Vec<Prediction> {
        if plans.is_empty() {
            return Vec::new();
        }
        let toks: Vec<Vec<usize>> = plans
            .iter()
            .map(|p| self.encode_plan_cached(db, p))
            .collect();
        let toks_refs: Vec<&[usize]> = toks.iter().map(Vec::as_slice).collect();
        let outs = parallel_map_labeled("nn.infer_batch", &self.groups, |_, group| {
            group.predict_batch(&toks_refs)
        });

        let mut results: Vec<Prediction> =
            (0..plans.len()).map(|_| Prediction::default()).collect();
        for per_query in outs {
            for (pred, pages) in results.iter_mut().zip(per_query) {
                for (obj, page) in pages {
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

    /// Incremental retraining (§5.3): continue training every group on newly
    /// observed queries. Plans are encoded with the *existing* vocabulary
    /// (tokens unseen at initial training map to `[UNK]`; value tokens are a
    /// closed set, so parameters always encode), and the label spaces are
    /// unchanged — this is the cheap periodic-refresh path the paper
    /// recommends over full retraining.
    pub fn refine(&mut self, db: &Database, plans: &[PlanNode], traces: &[Trace]) {
        assert_eq!(plans.len(), traces.len());
        if plans.is_empty() {
            return;
        }
        let token_seqs: Vec<Vec<usize>> = plans.iter().map(|p| self.encode_plan(db, p)).collect();
        let page_sets: Vec<PageSets> = traces.iter().map(|t| t.non_sequential_sets()).collect();
        let groups = std::mem::take(&mut self.groups);
        self.groups = fit_groups(groups, &self.cfg, &token_seqs, &page_sets, true);
        for p in plans {
            self.object_union.extend(p.objects(db));
        }
    }

    /// Verify these models were trained against (a catalog identical to)
    /// `db`: every modeled object must exist, have the page count its labels
    /// were laid out for, and carry the name the vocabulary interned. Any
    /// mismatch means predictions would index the wrong pages — the caller
    /// must refuse to serve, not degrade silently.
    pub fn check_compat(&self, db: &Database) -> Result<(), String> {
        let exists = |obj: ObjectId| (obj.0 as usize) < db.object_count();
        for span in self.spans() {
            let obj = span.object;
            if !exists(obj) {
                return Err(format!(
                    "model '{}' predicts object {obj:?}, which does not exist in this catalog \
                     ({} objects)",
                    self.name,
                    db.object_count()
                ));
            }
            let have = db.object_pages(obj);
            if have != span.n_pages {
                return Err(format!(
                    "model '{}' was trained on object {obj:?} ('{}') with {} pages, but this \
                     catalog has {have}",
                    self.name,
                    db.object_name(obj),
                    span.n_pages
                ));
            }
            // Plan serialization names catalog objects; a modeled object
            // whose current name was never interned would encode to [UNK] and
            // silently degrade every prediction (e.g. a renamed table).
            let token = object_token(db, obj);
            if self.vocab.get(&token).is_none() {
                return Err(format!(
                    "model '{}' has no vocabulary token for object {obj:?}'s current name \
                     '{token}' — the catalog changed since training",
                    self.name
                ));
            }
        }
        for obj in &self.object_union {
            if !exists(*obj) {
                return Err(format!(
                    "workload signature of '{}' references object {obj:?}, which does not exist \
                     in this catalog",
                    self.name
                ));
            }
        }
        Ok(())
    }

    /// A deep copy via the serde path (model weights round-trip exactly; the
    /// encode cache starts empty). [`TrainedWorkload`] holds a `Mutex`, so
    /// `derive(Clone)` is unavailable — and the serde route is exactly what
    /// a registry publish of a re-loaded model exercises anyway.
    pub fn duplicate(&self) -> TrainedWorkload {
        let json = serde_json::to_string(self).expect("serialize trained workload");
        serde_json::from_str(&json).expect("deserialize trained workload")
    }

    /// Total model size in bytes (paper §5.1 reports this per template).
    pub fn size_bytes(&self) -> usize {
        self.groups.iter().map(ModelGroup::size_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Grouping;
    use crate::metrics::f1_score;
    use crate::registry::{load_model, save_model};
    use pythia_db::exec::execute;
    use pythia_db::expr::{CmpOp, Pred};
    use pythia_db::types::Schema;

    /// A miniature star: fact(2000 rows) probing dim(600 rows) through an
    /// index, with fact.dkey clustered by fact.date so date ranges select
    /// learnable dim page ranges.
    fn mini_star() -> (Database, Vec<PlanNode>, Vec<Trace>) {
        star(600)
    }

    /// [`mini_star`] with `dim_rows` rows in dim (the fact table probes the
    /// first 600).
    fn star(dim_rows: i64) -> (Database, Vec<PlanNode>, Vec<Trace>) {
        let mut db = Database::new();
        let fact = db.create_table("fact", Schema::ints(&["id", "date", "dkey"]));
        let dim = db.create_table("dim", Schema::ints(&["d_id", "attr"]));
        for i in 0..2000i64 {
            let date = i / 2; // 1000 dates
            let dkey = (date * 600 / 1000 + i % 3).min(599);
            db.insert(fact, Database::row(&[i, date, dkey]));
        }
        for d in 0..dim_rows {
            db.insert(dim, Database::row(&[d, d % 9]));
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

    fn cfg() -> PythiaConfig {
        PythiaConfig {
            epochs: 40,
            batch_size: 8,
            lr: 5e-3,
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
        let named = |name: &str| db.object_ids().find(|&o| db.object_name(o) == name);
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
        use pythia_nn::tape::recording;
        let (db, plans, traces) = mini_star();
        let quick = PythiaConfig { epochs: 2, ..cfg() };
        // A fit on this thread leaves its training arena warm, as the fleet's
        // fits do at pool width 1 (at other widths the workers' arenas go
        // with their threads): whatever is in it when the call returns, the
        // call has freed.
        let retained = || recording(|tape| tape.retained_bytes());
        let warm = || {
            PlanClassifier::new(&quick, 10, &[4]).train(&[(&[2, 3], vec![1])], &quick);
            assert!(retained() > 0);
        };
        warm();
        let mut tw = train_workload(&db, "mini", &plans[..8], &traces[..8], None, &quick);
        assert_eq!(retained(), 0, "train_workload left a training arena");
        warm();
        tw.refine(&db, &plans[8..12], &traces[8..12]);
        assert_eq!(retained(), 0, "refine left a training arena");
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
        let dim_obj = db.table_info(db.table("dim").unwrap()).object;
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
            for g in &tw.groups {
                bits.extend(g.scores(&toks).into_iter().map(f32::to_bits));
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
        let quick = PythiaConfig { epochs: 3, ..cfg() };
        assert_eq!(quick.grouping, Grouping::Workload);
        let run = |threads: usize, simd: SimdOverride| {
            set_thread_override(threads);
            set_simd_override(simd);
            let mut tw = train_workload(&db, "mini", &plans[..12], &traces[..12], None, &quick);
            let trained = score_bits(&tw, &db, &plans[12..20]);
            let batch: Vec<&PlanNode> = plans[12..20].iter().collect();
            let preds: Vec<_> = tw.infer_batch(&db, &batch);
            let pages: Vec<_> = preds.into_iter().map(|p| p.pages).collect();
            tw.refine(&db, &plans[20..24], &traces[20..24]);
            (trained, pages, score_bits(&tw, &db, &plans[12..20]))
        };
        let reference = run(1, SimdOverride::ForceDetect);
        assert!(run(4, SimdOverride::ForceDetect) == reference, "pool width");
        assert!(
            run(1, SimdOverride::ForceScalar) == reference,
            "PYTHIA_SIMD=off"
        );
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

    #[test]
    fn save_load_roundtrip_preserves_predictions() {
        let (db, plans, traces) = mini_star();
        let quick = PythiaConfig { epochs: 4, ..cfg() };
        let tw = train_workload(&db, "mini", &plans[..10], &traces[..10], None, &quick);
        let path = std::env::temp_dir().join("pythia_model_roundtrip.json");
        save_model(&path, 1, &tw).unwrap();
        let (_, loaded) = load_model(&path, &db).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(loaded.name, tw.name);
        assert_eq!(loaded.modeled_objects(), tw.modeled_objects());
        for p in &plans[10..14] {
            let a = tw.infer(&db, p);
            let b = loaded.infer(&db, p);
            assert_eq!(a.pages, b.pages, "loaded model must predict identically");
        }
    }

    #[test]
    fn load_rejects_a_catalog_missing_a_modeled_object() {
        let (db, plans, traces) = mini_star();
        let quick = PythiaConfig { epochs: 4, ..cfg() };
        let tw = train_workload(&db, "mini", &plans[..10], &traces[..10], None, &quick);
        let path = std::env::temp_dir().join("pythia_model_compat_check.json");
        save_model(&path, 1, &tw).unwrap();

        // An object the model predicts for is gone.
        let mut shrunk = Database::new();
        let f2 = shrunk.create_table("fact", Schema::ints(&["id", "date", "dkey"]));
        for i in 0..2000i64 {
            shrunk.insert(f2, Database::row(&[i, i / 2, 0]));
        }
        let err = load_model(&path, &shrunk)
            .err()
            .expect("shrunk catalog must be rejected");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("objects"), "{err}");
        // The body check behind the header names the same fault.
        let err = tw.check_compat(&shrunk).unwrap_err();
        assert!(err.contains("does not exist"), "{err}");
        let _ = std::fs::remove_file(&path);

        // duplicate(): a deep copy via the same serde path, bit-identical.
        let dup = tw.duplicate();
        assert!(dup.check_compat(&db).is_ok());
        for p in &plans[10..12] {
            assert_eq!(dup.infer(&db, p).pages, tw.infer(&db, p).pages);
        }
    }

    #[test]
    fn a_resized_object_is_refused_in_every_grouping() {
        let (db, plans, traces) = mini_star();
        let (grown, _, _) = star(900);
        let (dim, idx) = dim_objects(&db);
        assert!(grown.object_pages(dim) > db.object_pages(dim));
        assert!(grown.object_pages(idx) > db.object_pages(idx));
        for grouping in GROUPINGS {
            let c = PythiaConfig {
                epochs: 1,
                grouping,
                ..cfg()
            };
            let tw = train_workload(&db, "mini", &plans[..6], &traces[..6], None, &c);
            tw.check_compat(&db).unwrap();
            // Labels past the old page count would split at the wrong page.
            let err = tw.check_compat(&grown).unwrap_err();
            assert!(
                err.contains("pages, but this catalog has"),
                "{grouping:?}: {err}"
            );
            // The header a saved file carries sizes every modeled object too.
            let header = crate::registry::CatalogCompat::of(&tw);
            assert_eq!(header.objects.len(), 2, "{grouping:?}");
            header.check_db(&db).unwrap();
            assert!(header.check_db(&grown).is_err(), "{grouping:?}");
        }
    }

    #[test]
    fn ground_truth_restricted_to_modeled() {
        let (db, plans, traces) = mini_star();
        let dim_obj = db.table_info(db.table("dim").unwrap()).object;
        let modeled: BTreeSet<ObjectId> = [dim_obj].into_iter().collect();
        let gt = ground_truth(&traces[0], &modeled);
        assert!(gt.iter().all(|(o, _)| *o == dim_obj));
        assert!(!gt.is_empty());
        let _ = plans;
    }
}
