//! Turning predictions into a prefetch sequence.
//!
//! The paper's prefetcher contract (§3.3 "Prefetcher"): pages are issued in
//! *file storage order* (ascending offsets per object) so the prefetcher
//! cooperates with OS readahead, with index objects first — index blocks are
//! small, heavily re-referenced, and their models are fastest, "allowing the
//! prefetcher to begin loading the index blocks that will be heavily
//! referenced by the buffer manager".
//!
//! When a prediction exceeds the buffer budget, only a prefix is issued —
//! "we perform limited prefetching to stay within buffer memory bounds"
//! (§5.1, IMDB workload).

use pythia_db::catalog::{Database, ObjectKind};
use pythia_db::plan::PlanNode;
use pythia_sim::{PageId, SimDuration};

use crate::predictor::{Prediction, TrainedWorkload};

/// The virtual latency a Pythia query is charged for its inference before
/// its replay starts. The paper charges its measured 1–1.5 s, a 0.1–0.2 %
/// share of its ~15-minute queries; 150 µs is what one forward measures at
/// the benchmark fixture (`core.predictor.infer_ms`, 0.15–0.23 ms), ≈ 0.2 %
/// of that fixture's 70–85 ms queries. A constant keeps the charge
/// independent of the host's speed and load, so a replayed stream's
/// virtual timings are a function of its seed.
pub const INFER_CHARGE: SimDuration = SimDuration::from_micros(150);

/// Algorithm 3 past the workload match: one batched inference over `plans`,
/// each prediction turned into its prefetch list. Each query is charged
/// [`INFER_CHARGE`] by its caller.
///
/// The lists are uncapped: callers apply their budget ([`cap_to_budget`])
/// when they issue, because the overlap scheduler ranks queued queries on
/// the full prediction.
pub fn engage(db: &Database, tw: &TrainedWorkload, plans: &[&PlanNode]) -> Vec<Vec<PageId>> {
    tw.infer_batch(db, plans)
        .iter()
        .map(|prediction| prefetch_list(db, prediction))
        .collect()
}

/// Build the ordered prefetch list for a prediction.
pub fn prefetch_list(db: &Database, prediction: &Prediction) -> Vec<PageId> {
    let mut objs: Vec<_> = prediction.pages.keys().copied().collect();
    // Indexes first, then base tables; stable within each class.
    objs.sort_by_key(|&o| (db.object_kind(o) != ObjectKind::Index, o));
    let mut out = Vec::with_capacity(prediction.len());
    for obj in objs {
        let file = db.object_file(obj);
        let pages = &prediction.pages[&obj];
        debug_assert!(
            pages.windows(2).all(|w| w[0] <= w[1]),
            "pages must be sorted"
        );
        out.extend(pages.iter().map(|&p| PageId::new(file, p)));
    }
    out
}

/// The prefetch budget of a stack with `pool_frames` buffer frames when
/// none is configured: ¾ of the pool, so a query's prefetched pages leave
/// room for the pages it reads itself.
pub fn default_budget(pool_frames: usize) -> usize {
    pool_frames * 3 / 4
}

/// Cap a prefetch list to a buffer budget (limited prefetching).
pub fn cap_to_budget(mut list: Vec<PageId>, budget_pages: usize) -> Vec<PageId> {
    list.truncate(budget_pages);
    list
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_db::catalog::Database;
    use pythia_db::types::Schema;

    fn db_with_index() -> (
        Database,
        pythia_db::catalog::ObjectId,
        pythia_db::catalog::ObjectId,
    ) {
        let mut db = Database::new();
        let t = db.create_table("t", Schema::ints(&["a", "b"]));
        for i in 0..2000 {
            db.insert(t, &Database::row([i, i % 5]));
        }
        let idx = db.create_index("t_pk", t, 0);
        let table_obj = db.table_info(t).object;
        (db, table_obj, idx)
    }

    #[test]
    fn index_pages_come_first_in_storage_order() {
        let (db, table_obj, idx_obj) = db_with_index();
        let mut pred = Prediction::default();
        pred.pages.insert(table_obj, vec![3, 10, 11]);
        pred.pages.insert(idx_obj, vec![0, 2]);
        let list = prefetch_list(&db, &pred);
        assert_eq!(list.len(), 5);
        let idx_file = db.object_file(idx_obj);
        let table_file = db.object_file(table_obj);
        assert_eq!(list[0].file, idx_file);
        assert_eq!(list[1].file, idx_file);
        assert_eq!(list[0].page_no, 0);
        assert_eq!(list[1].page_no, 2);
        assert_eq!(list[2], PageId::new(table_file, 3));
        assert_eq!(list[4], PageId::new(table_file, 11));
    }

    #[test]
    fn budget_caps_prefix() {
        let (db, table_obj, _) = db_with_index();
        let mut pred = Prediction::default();
        pred.pages.insert(table_obj, (0..100).collect());
        let list = cap_to_budget(prefetch_list(&db, &pred), 10);
        assert_eq!(list.len(), 10);
        assert_eq!(list[9].page_no, 9);
    }

    #[test]
    fn empty_prediction_is_empty_list() {
        let (db, _, _) = db_with_index();
        assert!(prefetch_list(&db, &Prediction::default()).is_empty());
    }
}
