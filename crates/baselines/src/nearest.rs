//! The NN (nearest-neighbour) idealized baseline (§5.2).
//!
//! "For each test query q, we first retrieve the most similar query NN(q)
//! in the training set. We measure similarity using Jaccard similarity
//! between the blocks accessed by the test and the corresponding query.
//! Once the nearest neighbor is obtained, we retrieve the blocks accessed by
//! NN(q) and use the prefetcher of Pythia. NN is an idealized baseline as it
//! requires the output of the test query q and the storage of block accesses
//! of all queries in the training set."

use std::collections::BTreeSet;

use pythia_db::trace::Trace;
use pythia_sim::PageId;

/// Stored block-access sets of the training workload.
pub struct NearestNeighbor {
    train_sets: Vec<BTreeSet<PageId>>,
}

fn nonseq_page_set(trace: &Trace) -> BTreeSet<PageId> {
    use pythia_db::trace::TraceEvent;
    trace
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Read { page, kind, .. } if !kind.is_sequential() => Some(page),
            _ => None,
        })
        .collect()
}

/// Jaccard similarity of two page sets (1.0 when both empty).
pub fn jaccard(a: &BTreeSet<PageId>, b: &BTreeSet<PageId>) -> f64 {
    let union = a.union(b).count();
    if union == 0 {
        return 1.0;
    }
    a.intersection(b).count() as f64 / union as f64
}

impl NearestNeighbor {
    /// Index the training traces (stores each query's distinct non-sequential
    /// block set).
    pub fn new(train_traces: &[Trace]) -> Self {
        NearestNeighbor {
            train_sets: train_traces.iter().map(nonseq_page_set).collect(),
        }
    }

    /// Number of stored training queries.
    pub fn len(&self) -> usize {
        self.train_sets.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.train_sets.is_empty()
    }

    /// The prefetch list for a test query: the blocks of its most similar
    /// training query, in storage order (Pythia's prefetcher contract).
    /// Also returns the neighbour's index and similarity.
    pub fn prefetch_for(&self, test_trace: &Trace) -> (Vec<PageId>, usize, f64) {
        let test_set = nonseq_page_set(test_trace);
        let (best_idx, best_sim) = self
            .train_sets
            .iter()
            .enumerate()
            .map(|(i, s)| (i, jaccard(&test_set, s)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN"))
            .unwrap_or((0, 0.0));
        let mut pages: Vec<PageId> = self
            .train_sets
            .get(best_idx)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        pages.sort_unstable();
        (pages, best_idx, best_sim)
    }

    /// Average Jaccard similarity of a test query to the whole training
    /// workload — the bucketing statistic of Figures 7/8.
    pub fn mean_similarity(&self, test_trace: &Trace) -> f64 {
        if self.train_sets.is_empty() {
            return 0.0;
        }
        let test_set = nonseq_page_set(test_trace);
        self.train_sets
            .iter()
            .map(|s| jaccard(&test_set, s))
            .sum::<f64>()
            / self.train_sets.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_db::catalog::ObjectId;
    use pythia_db::trace::{AccessKind, TraceEvent};
    use pythia_sim::FileId;

    fn trace_of(pages: &[u32]) -> Trace {
        pages
            .iter()
            .map(|&p| TraceEvent::Read {
                obj: ObjectId(0),
                page: PageId::new(FileId(0), p),
                kind: AccessKind::HeapFetch,
            })
            .collect()
    }

    #[test]
    fn finds_most_similar() {
        let nn = NearestNeighbor::new(&[
            trace_of(&[1, 2, 3]),
            trace_of(&[10, 11, 12]),
            trace_of(&[2, 3, 4]),
        ]);
        let (pages, idx, sim) = nn.prefetch_for(&trace_of(&[2, 3, 4, 5]));
        assert_eq!(idx, 2);
        assert!(sim > 0.5);
        assert_eq!(
            pages.iter().map(|p| p.page_no).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn prefetch_is_storage_ordered() {
        let nn = NearestNeighbor::new(&[trace_of(&[9, 1, 5])]);
        let (pages, _, _) = nn.prefetch_for(&trace_of(&[9, 1]));
        let nos: Vec<u32> = pages.iter().map(|p| p.page_no).collect();
        assert_eq!(nos, vec![1, 5, 9]);
    }

    #[test]
    fn jaccard_properties() {
        let a: BTreeSet<PageId> = [PageId::new(FileId(0), 1)].into_iter().collect();
        let empty = BTreeSet::new();
        assert_eq!(jaccard(&a, &a), 1.0);
        assert_eq!(jaccard(&a, &empty), 0.0);
        assert_eq!(jaccard(&empty, &empty), 1.0);
    }

    #[test]
    fn sequential_reads_are_ignored() {
        let seq_trace = Trace::from_iter([TraceEvent::Read {
            obj: ObjectId(0),
            page: PageId::new(FileId(0), 7),
            kind: AccessKind::SeqScan,
        }]);
        let nn = NearestNeighbor::new(std::slice::from_ref(&seq_trace));
        let (pages, _, _) = nn.prefetch_for(&seq_trace);
        assert!(
            pages.is_empty(),
            "sequential pages are not the prefetch target"
        );
    }

    #[test]
    fn mean_similarity_averages() {
        let nn = NearestNeighbor::new(&[trace_of(&[1, 2]), trace_of(&[3, 4])]);
        let m = nn.mean_similarity(&trace_of(&[1, 2]));
        assert!((m - 0.5).abs() < 1e-9, "{m}");
    }
}
