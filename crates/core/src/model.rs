//! Model groups: which page labels share an encoder.
//!
//! A [`ModelGroup`] is one [`PlanClassifier`] plus, per [`Span`] of its
//! label space, which object and which pages those labels mean. How a
//! workload's objects are dealt into groups is data
//! ([`crate::config::Grouping`]):
//!
//! * **Per object** — the paper's design (§3.3 design choice 2): every group
//!   has one span under one decoder head, so the classifier is exactly the
//!   paper's model. Objects with more pages than
//!   [`crate::PythiaConfig::partition_pages`] are split into page-range
//!   partitions, one group each ("we split large tables into several smaller
//!   partitions and then train one model for each").
//! * **Table + index pair** — the Figure 12d ablation: one decoder head
//!   jointly predicting a base table's and its index's pages.
//! * **Whole workload** — one group: every object (every partition of a
//!   large one) is a decoder head over one shared encoder, so a plan is
//!   encoded once per inference and once per training step.
//!
//! A span is a page range, or — for the Figure 12h ablation
//! ([`crate::PythiaConfig::top_k`]) — the list of an object's `k` most
//! frequently accessed pages.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use pythia_db::catalog::{Database, ObjectId, ObjectKind};

use crate::classifier::{Example, PlanClassifier};
use crate::config::{Grouping, PythiaConfig};

/// One query's sorted distinct non-sequential pages per object (Algorithm 1
/// lines 8–13).
pub type PageSets = BTreeMap<ObjectId, Vec<u32>>;

#[derive(serde::Serialize, serde::Deserialize)]
enum Pages {
    /// Label `l` is page `first + l`: a whole object or one partition of it.
    Range { first: u32, len: u32 },
    /// Label `l` is page `list[l]`: a top-k model's popular pages, most
    /// frequent first.
    List(Vec<u32>),
}

/// A run of consecutive labels of a group's classifier and the pages of one
/// object they mean.
#[derive(serde::Serialize, serde::Deserialize)]
pub struct Span {
    pub object: ObjectId,
    /// The object's page count when the group was laid out; the labels mean
    /// nothing against a catalog where it differs.
    pub n_pages: u32,
    pages: Pages,
}

impl Span {
    /// Pages `first..first + len` of `object`.
    fn range(object: ObjectId, n_pages: u32, first: u32, len: u32) -> Span {
        Span {
            object,
            n_pages,
            pages: Pages::Range { first, len },
        }
    }

    /// The spans that cover one object: its `k` most frequent pages under
    /// [`PythiaConfig::top_k`], else one page range per partition.
    fn of_object(
        cfg: &PythiaConfig,
        object: ObjectId,
        n_pages: u32,
        page_sets: &[PageSets],
    ) -> Vec<Span> {
        assert!(n_pages > 0, "object with zero pages");
        let Some(k) = cfg.top_k else {
            let pp = u32::try_from(cfg.partition_pages).unwrap_or(u32::MAX);
            let partition = |part| {
                let first = part * pp;
                Span::range(object, n_pages, first, pp.min(n_pages - first))
            };
            return (0..n_pages.div_ceil(pp)).map(partition).collect();
        };
        // Rank pages by training-set frequency; model the top k.
        let mut freq: HashMap<u32, u32> = HashMap::new();
        for p in page_sets.iter().filter_map(|s| s.get(&object)).flatten() {
            *freq.entry(*p).or_insert(0) += 1;
        }
        let mut ranked: Vec<(u32, u32)> = freq.into_iter().collect();
        ranked.sort_unstable_by_key(|&(p, c)| (std::cmp::Reverse(c), p));
        let mut list: Vec<u32> = ranked.into_iter().take(k.max(1)).map(|(p, _)| p).collect();
        if list.is_empty() {
            list.push(0);
        }
        vec![Span {
            object,
            n_pages,
            pages: Pages::List(list),
        }]
    }

    /// Number of labels; at least one.
    fn len(&self) -> usize {
        match &self.pages {
            Pages::Range { len, .. } => *len as usize,
            Pages::List(list) => list.len(),
        }
    }

    fn page(&self, label: usize) -> u32 {
        match &self.pages {
            Pages::Range { first, .. } => first + label as u32,
            Pages::List(list) => list[label],
        }
    }

    /// The lookup "which label of this span, if any, is page `p`" — what
    /// training, refinement and every grouping turn a query's pages into
    /// labels with.
    fn label_of(&self) -> impl Fn(u32) -> Option<usize> + '_ {
        let index_of: HashMap<u32, usize> = match &self.pages {
            Pages::Range { .. } => HashMap::new(),
            Pages::List(list) => list.iter().enumerate().map(|(l, &p)| (p, l)).collect(),
        };
        move |p| match &self.pages {
            Pages::Range { first, len } => (*first..first + len)
                .contains(&p)
                .then(|| (p - first) as usize),
            Pages::List(_) => index_of.get(&p).copied(),
        }
    }
}

/// One classifier and what its labels mean.
#[derive(serde::Serialize, serde::Deserialize)]
pub struct ModelGroup {
    classifier: PlanClassifier,
    /// In label order: span `i` starts where span `i - 1` ends.
    spans: Vec<Span>,
}

impl ModelGroup {
    /// An untrained group over `spans` — a decoder head per span, or
    /// `one_head` over all of them — initialized from `cfg.seed + part` (a
    /// partition's position in its object, so same-shaped partitions do not
    /// start as copies).
    fn new(
        cfg: &PythiaConfig,
        vocab_size: usize,
        part: usize,
        spans: Vec<Span>,
        one_head: bool,
    ) -> Self {
        let seeded = PythiaConfig {
            seed: cfg.seed.wrapping_add(part as u64),
            ..cfg.clone()
        };
        let mut head_labels: Vec<usize> = spans.iter().map(Span::len).collect();
        if one_head {
            head_labels = vec![head_labels.iter().sum()];
        }
        let classifier = PlanClassifier::new(&seeded, vocab_size, &head_labels);
        ModelGroup { classifier, spans }
    }

    /// The untrained groups that model `objects` of `db` under
    /// `cfg.grouping`. `page_sets` (the training queries') rank pages for
    /// top-k spans.
    pub fn plan(
        cfg: &PythiaConfig,
        db: &Database,
        vocab_size: usize,
        objects: &[ObjectId],
        page_sets: &[PageSets],
    ) -> Vec<ModelGroup> {
        let spans_of = |obj: ObjectId| Span::of_object(cfg, obj, db.object_pages(obj), page_sets);
        // One group per span: a partition is its own model.
        let alone = |obj: ObjectId| {
            let groups = spans_of(obj).into_iter().enumerate();
            groups.map(|(part, span)| ModelGroup::new(cfg, vocab_size, part, vec![span], true))
        };
        match cfg.grouping {
            Grouping::PerObject => objects.iter().copied().flat_map(alone).collect(),
            Grouping::Workload => {
                let spans: Vec<Span> = objects.iter().copied().flat_map(spans_of).collect();
                if spans.is_empty() {
                    return Vec::new();
                }
                vec![ModelGroup::new(cfg, vocab_size, 0, spans, false)]
            }
            Grouping::TableIndexPair => {
                // Pair each index with its base table when both are modeled:
                // one head over table pages ++ index pages, whole objects
                // both. Leftovers are modeled alone.
                let mut paired: BTreeSet<ObjectId> = BTreeSet::new();
                let mut groups = Vec::new();
                for &index in objects {
                    if db.object_kind(index) != ObjectKind::Index {
                        continue;
                    }
                    let table = db.table_info(db.index_info(index).table).object;
                    if !objects.contains(&table) {
                        continue;
                    }
                    let whole = |object| {
                        let n_pages = db.object_pages(object);
                        Span::range(object, n_pages, 0, n_pages)
                    };
                    let spans = vec![whole(table), whole(index)];
                    groups.push(ModelGroup::new(cfg, vocab_size, 0, spans, true));
                    paired.extend([table, index]);
                }
                let rest = objects.iter().copied().filter(|o| !paired.contains(o));
                groups.extend(rest.flat_map(alone));
                groups
            }
        }
    }

    /// What each run of this group's labels means, in label order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Train (or, with `refine`, continue training — incremental retraining,
    /// §5.3) on per-query plan tokens and page sets. A query that touches
    /// none of the group's objects is a negative for every label; the spans
    /// (so a top-k span's page list) are a layout-time decision and stay.
    pub fn fit(
        &mut self,
        cfg: &PythiaConfig,
        token_seqs: &[Vec<usize>],
        page_sets: &[PageSets],
        refine: bool,
    ) {
        let lookups: Vec<_> = self.spans.iter().map(Span::label_of).collect();
        let data: Vec<Example<'_>> = token_seqs
            .iter()
            .zip(page_sets)
            .map(|(toks, sets)| {
                let mut labels = Vec::new();
                let mut first_label = 0;
                for (span, label_of) in self.spans.iter().zip(&lookups) {
                    let pages = sets.get(&span.object).map_or(&[][..], Vec::as_slice);
                    let here = pages.iter().filter_map(|&p| label_of(p));
                    labels.extend(here.map(|l| first_label + l));
                    first_label += span.len();
                }
                (toks.as_slice(), labels)
            })
            .collect();
        if refine {
            self.classifier.refine(&data, cfg);
        } else {
            self.classifier.train(&data, cfg);
        }
    }

    /// Predicted `(object, page)`s for one plan: [`Self::predict_batch`] of
    /// one.
    pub fn predict(&self, toks: &[usize]) -> Vec<(ObjectId, u32)> {
        self.predict_batch(&[toks]).pop().expect("one row per plan")
    }

    /// Predicted `(object, page)`s per plan, in label order, through one
    /// packed forward over all of `toks_list`; a plan's pages do not depend
    /// on what shares its batch.
    pub fn predict_batch(&self, toks_list: &[&[usize]]) -> Vec<Vec<(ObjectId, u32)>> {
        let mut ends = Vec::with_capacity(self.spans.len());
        let mut end = 0;
        for span in &self.spans {
            end += span.len();
            ends.push(end);
        }
        let page_of = |label: usize| {
            let s = ends.partition_point(|&end| end <= label);
            let span = &self.spans[s];
            (span.object, span.page(label - (ends[s] - span.len())))
        };
        self.classifier
            .predict_batch(toks_list)
            .into_iter()
            .map(|labels| labels.into_iter().map(page_of).collect())
            .collect()
    }

    /// Per-label sigmoid scores for one plan, span after span.
    pub fn scores(&self, toks: &[usize]) -> Vec<f32> {
        self.classifier.scores(toks)
    }

    /// Model size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.classifier.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_db::types::Schema;

    fn cfg(grouping: Grouping) -> PythiaConfig {
        PythiaConfig {
            epochs: 80,
            batch_size: 8,
            lr: 5e-3,
            grouping,
            ..PythiaConfig::fast()
        }
    }

    const TABLE: ObjectId = ObjectId(0);
    const INDEX: ObjectId = ObjectId(1);

    /// [`TABLE`] and its [`INDEX`]; only the object ids and page counts
    /// matter here.
    fn db() -> Database {
        let mut db = Database::new();
        let t = db.create_table("t", Schema::ints(&["id", "v"]));
        for i in 0..4000i64 {
            db.insert(t, Database::row(&[i, i % 7]));
        }
        assert_eq!(db.table_info(t).object, TABLE);
        assert_eq!(db.create_index("t_pk", t, 0), INDEX);
        assert!(db.object_pages(TABLE) >= 10 && db.object_pages(INDEX) >= 3);
        db
    }

    /// Token 2/3 selects the low/high block of the table's pages and page 0/2
    /// of the index. Returns per-query tokens and page sets.
    fn examples() -> (Vec<Vec<usize>>, Vec<PageSets>) {
        let mut toks = Vec::new();
        let mut sets = Vec::new();
        for rep in 0..6 {
            toks.push(vec![2, 5 + rep % 2]);
            sets.push(PageSets::from([(TABLE, vec![0, 1, 2]), (INDEX, vec![0])]));
            toks.push(vec![3, 5 + rep % 2]);
            sets.push(PageSets::from([(TABLE, vec![7, 8, 9]), (INDEX, vec![2])]));
        }
        (toks, sets)
    }

    fn trained(c: &PythiaConfig, objects: &[ObjectId]) -> Vec<ModelGroup> {
        let (toks, sets) = examples();
        let mut groups = ModelGroup::plan(c, &db(), 10, objects, &sets);
        for g in &mut groups {
            g.fit(c, &toks, &sets, false);
        }
        groups
    }

    /// Every group's pages for one plan, sorted.
    fn predict(groups: &[ModelGroup], toks: &[usize]) -> Vec<(ObjectId, u32)> {
        let mut out: Vec<_> = groups.iter().flat_map(|g| g.predict(toks)).collect();
        out.sort_unstable();
        out
    }

    fn on(object: ObjectId, pages: &[u32]) -> Vec<(ObjectId, u32)> {
        pages.iter().map(|&p| (object, p)).collect()
    }

    #[test]
    fn per_object_group_learns() {
        let groups = trained(&cfg(Grouping::PerObject), &[TABLE]);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].spans().len(), 1);
        assert_eq!(predict(&groups, &[2, 5]), on(TABLE, &[0, 1, 2]));
        assert_eq!(predict(&groups, &[3, 5]), on(TABLE, &[7, 8, 9]));
    }

    #[test]
    fn partitions_are_groups_per_object_and_heads_of_a_workload_group() {
        for grouping in [Grouping::PerObject, Grouping::Workload] {
            let c = PythiaConfig {
                partition_pages: 4,
                ..cfg(grouping)
            };
            let groups = trained(&c, &[TABLE]);
            let parts = (db().object_pages(TABLE) as usize).div_ceil(4);
            let spans: usize = groups.iter().map(|g| g.spans().len()).sum();
            assert_eq!(spans, parts, "{grouping:?}");
            let expect = if grouping == Grouping::PerObject {
                parts
            } else {
                1
            };
            assert_eq!(groups.len(), expect, "{grouping:?}");
            // Pages 7-9 live in partitions 1 and 2; prediction must still work.
            assert_eq!(predict(&groups, &[3, 5]), on(TABLE, &[7, 8, 9]));
            assert_eq!(predict(&groups, &[2, 5]), on(TABLE, &[0, 1, 2]));
        }
    }

    #[test]
    fn top_k_limits_label_space() {
        for grouping in [Grouping::PerObject, Grouping::Workload] {
            let c = PythiaConfig {
                top_k: Some(3),
                ..cfg(grouping)
            };
            // Make pages 0,1,2 far more frequent than 7,8,9.
            let (mut toks, mut sets) = examples();
            for _ in 0..10 {
                toks.push(vec![2, 5]);
                sets.push(PageSets::from([(TABLE, vec![0, 1, 2])]));
            }
            let mut groups = ModelGroup::plan(&c, &db(), 10, &[TABLE], &sets);
            assert_eq!(groups.len(), 1);
            assert_eq!(groups[0].spans()[0].len(), 3);
            groups[0].fit(&c, &toks, &sets, false);
            assert_eq!(predict(&groups, &[2, 5]), on(TABLE, &[0, 1, 2]));
            // Pages outside the top-3 can never be predicted.
            let high = predict(&groups, &[3, 5]);
            assert!(high.iter().all(|(_, p)| [0, 1, 2].contains(p)), "{high:?}");
        }
    }

    #[test]
    fn a_pair_and_a_workload_group_split_their_label_space_by_object() {
        for grouping in [Grouping::TableIndexPair, Grouping::Workload] {
            let groups = trained(&cfg(grouping), &[TABLE, INDEX]);
            assert_eq!(groups.len(), 1, "{grouping:?}");
            assert_eq!(groups[0].spans().len(), 2);
            let low = [on(TABLE, &[0, 1, 2]), on(INDEX, &[0])].concat();
            let high = [on(TABLE, &[7, 8, 9]), on(INDEX, &[2])].concat();
            assert_eq!(predict(&groups, &[2, 5]), low, "{grouping:?}");
            assert_eq!(predict(&groups, &[3, 5]), high, "{grouping:?}");
            assert!(groups[0].size_bytes() > 0);
        }
        // The pair is one decoder over both objects; the workload group has
        // one per object, which costs a second hidden layer.
        let pair = &trained(&cfg(Grouping::TableIndexPair), &[TABLE, INDEX])[0];
        let workload = &trained(&cfg(Grouping::Workload), &[TABLE, INDEX])[0];
        assert!(pair.size_bytes() < workload.size_bytes());
        // An index whose table is not modeled is modeled alone.
        let alone = trained(&cfg(Grouping::TableIndexPair), &[INDEX]);
        assert_eq!(alone.len(), 1);
        assert_eq!(alone[0].spans().len(), 1);
    }

    #[test]
    fn batched_predict_matches_serial_in_every_grouping() {
        for grouping in [
            Grouping::PerObject,
            Grouping::TableIndexPair,
            Grouping::Workload,
        ] {
            let c = PythiaConfig {
                partition_pages: 4,
                epochs: 20,
                ..cfg(grouping)
            };
            let groups = trained(&c, &[TABLE, INDEX]);
            let plans: Vec<Vec<usize>> = vec![vec![2, 5], vec![3, 5], vec![2, 6], vec![3, 6]];
            let refs: Vec<&[usize]> = plans.iter().map(|p| p.as_slice()).collect();
            for g in &groups {
                let batched = g.predict_batch(&refs);
                assert_eq!(batched.len(), plans.len());
                for (q, p) in plans.iter().enumerate() {
                    assert_eq!(batched[q], g.predict(p), "{grouping:?} query {q}");
                }
            }
        }
    }

    #[test]
    fn refining_moves_every_grouping() {
        for grouping in [
            Grouping::PerObject,
            Grouping::TableIndexPair,
            Grouping::Workload,
        ] {
            let c = cfg(grouping);
            let mut groups = trained(&c, &[TABLE, INDEX]);
            // Token 2 now means the high block.
            let toks = vec![vec![2usize, 5]; 8];
            let sets = vec![PageSets::from([(TABLE, vec![7, 8, 9]), (INDEX, vec![2])]); 8];
            for g in &mut groups {
                g.fit(&c, &toks, &sets, true);
            }
            let high = [on(TABLE, &[7, 8, 9]), on(INDEX, &[2])].concat();
            assert_eq!(predict(&groups, &[2, 5]), high, "{grouping:?}");
        }
    }
}
