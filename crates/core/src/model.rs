//! Per-object page-prediction models.
//!
//! Pythia trains a separate model per database object (base table or index) —
//! §3.3 design choice 2. Two structural variants from the paper are
//! supported:
//!
//! * **Partitioned models** — objects with more pages than
//!   [`crate::PythiaConfig::partition_pages`] are split into page-range
//!   partitions, one classifier each ("we split large tables into several
//!   smaller partitions and then train one model for each").
//! * **Top-k models** — predict only the `k` most frequently accessed pages
//!   (the Figure 12h ablation).
//!
//! [`CombinedModel`] implements the Figure 12d ablation: one classifier
//! jointly predicting a base table's and its index's pages.

use std::collections::HashMap;

use pythia_db::catalog::ObjectId;

use crate::classifier::{Example, PlanClassifier};
use crate::config::PythiaConfig;

/// Training data for one object: serialized plan tokens plus the sorted
/// distinct non-sequential pages of that object (Algorithm 1 lines 8–13).
/// Both sides are borrowed from the workload's per-query buffers, so fanning
/// the same queries out to many object models shares one encoding.
pub type ObjectExample<'a> = (&'a [usize], &'a [u32]);

/// Training data for a [`CombinedModel`]: plan tokens, table pages, index
/// pages — all borrowed from the workload's buffers.
pub type CombinedExample<'a> = (&'a [usize], &'a [u32], &'a [u32]);

#[derive(serde::Serialize, serde::Deserialize)]
#[allow(clippy::large_enum_variant)] // both variants are model-sized; boxing buys nothing
enum ModelKind {
    /// One classifier per page-range partition.
    Partitioned {
        classifiers: Vec<PlanClassifier>,
        partition_pages: usize,
    },
    /// One classifier over the k most popular pages; `page_map[label]` is the
    /// real page number.
    TopK {
        classifier: PlanClassifier,
        page_map: Vec<u32>,
    },
}

/// A trained page predictor for one database object.
#[derive(serde::Serialize, serde::Deserialize)]
pub struct ObjectModel {
    pub object: ObjectId,
    pub n_pages: u32,
    kind: ModelKind,
}

impl ObjectModel {
    /// Train a model for `object` with `n_pages` pages from per-query
    /// examples. `examples` may contain queries that do not touch the object
    /// (empty page lists) — they serve as negatives.
    pub fn train(
        cfg: &PythiaConfig,
        vocab_size: usize,
        object: ObjectId,
        n_pages: u32,
        examples: &[ObjectExample<'_>],
    ) -> Self {
        assert!(n_pages > 0, "object with zero pages");
        let kind = if let Some(k) = cfg.top_k {
            // Rank pages by training-set frequency; model the top k.
            let mut freq: HashMap<u32, u32> = HashMap::new();
            for (_, pages) in examples {
                for &p in pages.iter() {
                    *freq.entry(p).or_insert(0) += 1;
                }
            }
            let mut ranked: Vec<(u32, u32)> = freq.into_iter().collect();
            ranked.sort_unstable_by_key(|&(p, c)| (std::cmp::Reverse(c), p));
            let page_map: Vec<u32> = ranked.into_iter().take(k.max(1)).map(|(p, _)| p).collect();
            let page_map = if page_map.is_empty() {
                vec![0]
            } else {
                page_map
            };
            let index_of: HashMap<u32, usize> =
                page_map.iter().enumerate().map(|(i, &p)| (p, i)).collect();
            let data: Vec<Example<'_>> = examples
                .iter()
                .map(|&(toks, pages)| {
                    let labels = pages
                        .iter()
                        .filter_map(|p| index_of.get(p).copied())
                        .collect();
                    (toks, labels)
                })
                .collect();
            let mut classifier = PlanClassifier::new(cfg, vocab_size, page_map.len());
            classifier.train(&data, cfg);
            ModelKind::TopK {
                classifier,
                page_map,
            }
        } else {
            let pp = cfg.partition_pages;
            let n_parts = (n_pages as usize).div_ceil(pp);
            let mut classifiers = Vec::with_capacity(n_parts);
            for part in 0..n_parts {
                let base = part * pp;
                let labels_here = pp.min(n_pages as usize - base);
                let data: Vec<Example<'_>> = examples
                    .iter()
                    .map(|&(toks, pages)| {
                        let labels = pages
                            .iter()
                            .filter(|&&p| (p as usize) >= base && (p as usize) < base + labels_here)
                            .map(|&p| p as usize - base)
                            .collect();
                        (toks, labels)
                    })
                    .collect();
                let mut c = PlanClassifier::new(
                    &PythiaConfig {
                        seed: cfg.seed.wrapping_add(part as u64),
                        ..cfg.clone()
                    },
                    vocab_size,
                    labels_here,
                );
                c.train(&data, cfg);
                classifiers.push(c);
            }
            ModelKind::Partitioned {
                classifiers,
                partition_pages: pp,
            }
        };
        ObjectModel {
            object,
            n_pages,
            kind,
        }
    }

    /// Continue training this model on additional examples — incremental
    /// retraining (§5.3). Top-k models keep their original page map (the
    /// popular set is a training-time decision); partitioned models refine
    /// every partition.
    pub fn refine(&mut self, cfg: &PythiaConfig, examples: &[ObjectExample<'_>]) {
        match &mut self.kind {
            ModelKind::Partitioned {
                classifiers,
                partition_pages,
            } => {
                let pp = *partition_pages;
                for (part, c) in classifiers.iter_mut().enumerate() {
                    let base = part * pp;
                    let labels_here = c.n_labels();
                    let data: Vec<Example<'_>> = examples
                        .iter()
                        .map(|&(toks, pages)| {
                            let labels = pages
                                .iter()
                                .filter(|&&p| {
                                    (p as usize) >= base && (p as usize) < base + labels_here
                                })
                                .map(|&p| p as usize - base)
                                .collect();
                            (toks, labels)
                        })
                        .collect();
                    c.refine(&data, cfg);
                }
            }
            ModelKind::TopK {
                classifier,
                page_map,
            } => {
                let index_of: HashMap<u32, usize> =
                    page_map.iter().enumerate().map(|(i, &p)| (p, i)).collect();
                let data: Vec<Example<'_>> = examples
                    .iter()
                    .map(|&(toks, pages)| {
                        let labels = pages
                            .iter()
                            .filter_map(|p| index_of.get(p).copied())
                            .collect();
                        (toks, labels)
                    })
                    .collect();
                classifier.refine(&data, cfg);
            }
        }
    }

    /// Predicted pages for one plan: [`Self::predict_batch`] of one.
    pub fn predict(&self, toks: &[usize]) -> Vec<u32> {
        self.predict_batch(&[toks]).pop().expect("one row per plan")
    }

    /// Predicted pages per plan, each list sorted ascending (the prefetcher
    /// contract). Every partition's classifier runs one packed forward over
    /// all of `toks_list`; partitions are visited in order, so a plan's
    /// pages do not depend on what shares its batch.
    pub fn predict_batch(&self, toks_list: &[&[usize]]) -> Vec<Vec<u32>> {
        let mut out: Vec<Vec<u32>> = vec![Vec::new(); toks_list.len()];
        match &self.kind {
            ModelKind::Partitioned {
                classifiers,
                partition_pages,
            } => {
                for (part, c) in classifiers.iter().enumerate() {
                    let base = part * partition_pages;
                    for (q, labels) in c.predict_batch(toks_list).into_iter().enumerate() {
                        out[q].extend(labels.into_iter().map(|l| (base + l) as u32));
                    }
                }
            }
            ModelKind::TopK {
                classifier,
                page_map,
            } => {
                for (q, labels) in classifier.predict_batch(toks_list).into_iter().enumerate() {
                    out[q].extend(labels.into_iter().map(|l| page_map[l]));
                }
            }
        }
        for pages in &mut out {
            pages.sort_unstable();
        }
        out
    }

    /// Per-page scores over the whole object (top-k models score only their
    /// modeled pages; others are 0).
    pub fn scores(&self, toks: &[usize]) -> Vec<f32> {
        match &self.kind {
            ModelKind::Partitioned { classifiers, .. } => {
                let mut all = Vec::with_capacity(self.n_pages as usize);
                for c in classifiers {
                    all.extend(c.scores(toks));
                }
                all
            }
            ModelKind::TopK {
                classifier,
                page_map,
            } => {
                let mut all = vec![0.0; self.n_pages as usize];
                for (l, s) in classifier.scores(toks).into_iter().enumerate() {
                    all[page_map[l] as usize] = s;
                }
                all
            }
        }
    }

    /// Number of partitions (1 for top-k models).
    pub fn partition_count(&self) -> usize {
        match &self.kind {
            ModelKind::Partitioned { classifiers, .. } => classifiers.len(),
            ModelKind::TopK { .. } => 1,
        }
    }

    /// Model size in bytes.
    pub fn size_bytes(&self) -> usize {
        match &self.kind {
            ModelKind::Partitioned { classifiers, .. } => {
                classifiers.iter().map(PlanClassifier::size_bytes).sum()
            }
            ModelKind::TopK { classifier, .. } => classifier.size_bytes(),
        }
    }
}

/// Figure 12d ablation: one model jointly predicting a base table's and its
/// index's pages (label space = table pages ++ index pages).
#[derive(serde::Serialize, serde::Deserialize)]
pub struct CombinedModel {
    pub table: ObjectId,
    pub index: ObjectId,
    table_pages: u32,
    classifier: PlanClassifier,
}

impl CombinedModel {
    /// Train on examples of `(tokens, table pages, index pages)`.
    pub fn train(
        cfg: &PythiaConfig,
        vocab_size: usize,
        table: ObjectId,
        index: ObjectId,
        table_pages: u32,
        index_pages: u32,
        examples: &[CombinedExample<'_>],
    ) -> Self {
        let n_labels = (table_pages + index_pages) as usize;
        let data: Vec<Example<'_>> = examples
            .iter()
            .map(|&(toks, tp, ip)| {
                let mut labels: Vec<usize> = tp.iter().map(|&p| p as usize).collect();
                labels.extend(ip.iter().map(|&p| (table_pages + p) as usize));
                (toks, labels)
            })
            .collect();
        let mut classifier = PlanClassifier::new(cfg, vocab_size, n_labels.max(1));
        classifier.train(&data, cfg);
        CombinedModel {
            table,
            index,
            table_pages,
            classifier,
        }
    }

    /// `(table pages, index pages)` for one plan: [`Self::predict_batch`] of
    /// one.
    pub fn predict(&self, toks: &[usize]) -> (Vec<u32>, Vec<u32>) {
        self.predict_batch(&[toks]).pop().expect("one row per plan")
    }

    /// `(table pages, index pages)` per plan, each sorted, through one packed
    /// forward.
    pub fn predict_batch(&self, toks_list: &[&[usize]]) -> Vec<(Vec<u32>, Vec<u32>)> {
        self.classifier
            .predict_batch(toks_list)
            .into_iter()
            .map(|labels| {
                let mut tp = Vec::new();
                let mut ip = Vec::new();
                for l in labels {
                    if (l as u32) < self.table_pages {
                        tp.push(l as u32);
                    } else {
                        ip.push(l as u32 - self.table_pages);
                    }
                }
                (tp, ip)
            })
            .collect()
    }

    /// Model size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.classifier.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PythiaConfig {
        PythiaConfig {
            epochs: 80,
            batch_size: 8,
            lr: 5e-3,
            ..PythiaConfig::fast()
        }
    }

    /// Token 2/3 selects low/high page block. Owned data; borrow with
    /// [`as_refs`] before training.
    fn examples() -> Vec<(Vec<usize>, Vec<u32>)> {
        let mut out = Vec::new();
        for rep in 0..6 {
            out.push((vec![2, 5 + rep % 2], vec![0, 1, 2]));
            out.push((vec![3, 5 + rep % 2], vec![7, 8, 9]));
        }
        out
    }

    fn as_refs(owned: &[(Vec<usize>, Vec<u32>)]) -> Vec<ObjectExample<'_>> {
        owned
            .iter()
            .map(|(t, p)| (t.as_slice(), p.as_slice()))
            .collect()
    }

    #[test]
    fn object_model_learns() {
        let owned = examples();
        let m = ObjectModel::train(&cfg(), 10, ObjectId(0), 10, &as_refs(&owned));
        assert_eq!(m.predict(&[2, 5]), vec![0, 1, 2]);
        assert_eq!(m.predict(&[3, 5]), vec![7, 8, 9]);
        assert_eq!(m.partition_count(), 1);
    }

    #[test]
    fn partitioned_model_spans_ranges() {
        let c = PythiaConfig {
            partition_pages: 4,
            ..cfg()
        };
        let owned = examples();
        let m = ObjectModel::train(&c, 10, ObjectId(0), 10, &as_refs(&owned));
        assert_eq!(m.partition_count(), 3); // 4+4+2
                                            // Pages 7-9 live in partitions 1 and 2; prediction must still work.
        assert_eq!(m.predict(&[3, 5]), vec![7, 8, 9]);
        assert_eq!(m.predict(&[2, 5]), vec![0, 1, 2]);
        assert_eq!(m.scores(&[2, 5]).len(), 10);
    }

    #[test]
    fn top_k_limits_label_space() {
        let c = PythiaConfig {
            top_k: Some(3),
            ..cfg()
        };
        // Make pages 0,1,2 far more frequent than 7,8,9.
        let mut ex = examples();
        for _ in 0..10 {
            ex.push((vec![2, 5], vec![0, 1, 2]));
        }
        let m = ObjectModel::train(&c, 10, ObjectId(0), 10, &as_refs(&ex));
        let pred = m.predict(&[2, 5]);
        assert_eq!(pred, vec![0, 1, 2]);
        // Pages outside the top-3 can never be predicted.
        let pred_high = m.predict(&[3, 5]);
        assert!(
            pred_high.iter().all(|p| [0, 1, 2].contains(p)),
            "{pred_high:?}"
        );
    }

    #[test]
    fn combined_model_splits_label_space() {
        let owned: Vec<(Vec<usize>, Vec<u32>, Vec<u32>)> = (0..12)
            .map(|i| {
                if i % 2 == 0 {
                    (vec![2, 5 + i % 3], vec![0, 1], vec![0])
                } else {
                    (vec![3, 5 + i % 3], vec![4, 5], vec![2])
                }
            })
            .collect();
        let data: Vec<CombinedExample<'_>> = owned
            .iter()
            .map(|(t, tp, ip)| (t.as_slice(), tp.as_slice(), ip.as_slice()))
            .collect();
        let m = CombinedModel::train(&cfg(), 10, ObjectId(0), ObjectId(1), 6, 3, &data);
        let (tp, ip) = m.predict(&[2, 5]);
        assert_eq!(tp, vec![0, 1]);
        assert_eq!(ip, vec![0]);
        let (tp, ip) = m.predict(&[3, 5]);
        assert_eq!(tp, vec![4, 5]);
        assert_eq!(ip, vec![2]);
        assert!(m.size_bytes() > 0);
    }

    #[test]
    fn batched_predict_matches_serial_across_partitions() {
        let c = PythiaConfig {
            partition_pages: 4,
            ..cfg()
        };
        let owned = examples();
        let m = ObjectModel::train(&c, 10, ObjectId(0), 10, &as_refs(&owned));
        let plans: Vec<Vec<usize>> = vec![vec![2, 5], vec![3, 5], vec![2, 6], vec![3, 6]];
        let refs: Vec<&[usize]> = plans.iter().map(|p| p.as_slice()).collect();
        let batched = m.predict_batch(&refs);
        assert_eq!(batched.len(), plans.len());
        for (q, p) in plans.iter().enumerate() {
            assert_eq!(batched[q], m.predict(p), "query {q}");
        }
    }

    #[test]
    fn combined_batched_predict_matches_serial() {
        let owned: Vec<(Vec<usize>, Vec<u32>, Vec<u32>)> = (0..12)
            .map(|i| {
                if i % 2 == 0 {
                    (vec![2, 5 + i % 3], vec![0, 1], vec![0])
                } else {
                    (vec![3, 5 + i % 3], vec![4, 5], vec![2])
                }
            })
            .collect();
        let data: Vec<CombinedExample<'_>> = owned
            .iter()
            .map(|(t, tp, ip)| (t.as_slice(), tp.as_slice(), ip.as_slice()))
            .collect();
        let m = CombinedModel::train(&cfg(), 10, ObjectId(0), ObjectId(1), 6, 3, &data);
        let plans: Vec<Vec<usize>> = vec![vec![2, 5], vec![3, 5], vec![2, 7]];
        let refs: Vec<&[usize]> = plans.iter().map(|p| p.as_slice()).collect();
        let batched = m.predict_batch(&refs);
        for (q, p) in plans.iter().enumerate() {
            assert_eq!(batched[q], m.predict(p), "query {q}");
        }
    }

    #[test]
    fn predictions_are_sorted() {
        let owned = examples();
        let m = ObjectModel::train(&cfg(), 10, ObjectId(0), 10, &as_refs(&owned));
        let p = m.predict(&[3, 5]);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(p, sorted);
    }
}
