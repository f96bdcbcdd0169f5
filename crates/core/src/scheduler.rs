//! Prefetch-aware query scheduling — the paper's §7 extension:
//! "It would be fruitful to investigate the contribution Pythia may have in
//! improving the performance of query scheduling algorithms where the goal
//! is to schedule queries to maximize the overlapping reads."
//!
//! Given a batch of queued queries and Pythia's per-query page predictions,
//! [`schedule_by_overlap`] orders the batch so that consecutive queries share
//! as many predicted pages as possible: a query then finds much of its
//! working set already resident from its predecessor, turning disk reads
//! into buffer hits. The algorithm is a greedy nearest-neighbour chain on
//! Jaccard similarity of predicted page sets — O(n²) set comparisons, which
//! is fine for realistic queue depths.

use std::collections::BTreeSet;

use pythia_sim::PageId;

/// Jaccard similarity of two page sets (1.0 when both are empty).
fn jaccard(a: &BTreeSet<PageId>, b: &BTreeSet<PageId>) -> f64 {
    let union = a.union(b).count();
    if union == 0 {
        return 1.0;
    }
    a.intersection(b).count() as f64 / union as f64
}

/// Order the batch to maximize consecutive predicted-page overlap.
///
/// `predictions[i]` is query `i`'s predicted page set. Returns a permutation
/// of `0..n`: start from the query with the largest prediction (the best
/// "seed" for the buffer pool), then repeatedly append the unscheduled query
/// most similar to the last scheduled one.
///
/// Ties break toward the lowest query index (i.e. arrival order), so the
/// permutation is a deterministic function of the prediction sets — the
/// serving loop relies on this to keep replays reproducible. In particular,
/// all-empty prediction sets (every pair has Jaccard 1.0) degrade to FIFO.
pub fn schedule_by_overlap(predictions: &[impl AsRef<[PageId]>]) -> Vec<usize> {
    let n = predictions.len();
    if n == 0 {
        return Vec::new();
    }
    let sets: Vec<BTreeSet<PageId>> = predictions
        .iter()
        .map(|p| p.as_ref().iter().copied().collect())
        .collect();

    // `remaining` stays sorted by query index (we use `remove`, never
    // `swap_remove`), so "first maximal element" == "lowest query index".
    let mut remaining: Vec<usize> = (0..n).collect();
    let seed_pos = remaining
        .iter()
        .enumerate()
        .max_by(|(pa, &a), (pb, &b)| sets[a].len().cmp(&sets[b].len()).then(pb.cmp(pa)))
        // `Iterator::max_by` keeps the LAST maximal element; the `.then`
        // position tie-break above inverts that to "first maximal", i.e.
        // lowest index.
        .map(|(pos, _)| pos)
        .expect("non-empty");
    let mut order = vec![remaining.remove(seed_pos)];

    while !remaining.is_empty() {
        let last = *order.last().expect("non-empty order");
        let (pos, _) = remaining
            .iter()
            .enumerate()
            .map(|(pos, &i)| (pos, jaccard(&sets[last], &sets[i])))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN").then(b.0.cmp(&a.0)))
            .expect("non-empty remaining");
        order.push(remaining.remove(pos));
    }
    order
}

/// Pick the single next query to admit: the candidate whose predicted page
/// set is most similar (Jaccard) to `prev`, the prediction of the most
/// recently admitted query — the admit-on-completion counterpart of one
/// [`schedule_by_overlap`] chain step.
///
/// Returns an index into `candidates` (which must be non-empty). Ties break
/// toward the lowest index, i.e. arrival order when the caller keeps its
/// queue FIFO-ordered; with `prev` and all candidates empty every pair ties
/// at Jaccard 1.0, so the pick degrades to FIFO — the same determinism
/// contract as the batch scheduler.
pub fn pick_next_by_overlap(prev: &[PageId], candidates: &[impl AsRef<[PageId]>]) -> usize {
    pick_next_by_overlap_scored(prev, candidates).0
}

/// [`pick_next_by_overlap`] plus the winning candidate's Jaccard score —
/// the serving loop attaches the score to its `server.admit` trace instant
/// so a postmortem dump shows *how good* each overlap pick was, not just
/// which query won. Same tie-break, so `pick_next_by_overlap(p, c) ==
/// pick_next_by_overlap_scored(p, c).0` always.
pub fn pick_next_by_overlap_scored(
    prev: &[PageId],
    candidates: &[impl AsRef<[PageId]>],
) -> (usize, f64) {
    assert!(!candidates.is_empty(), "no candidates to pick from");
    let prev_set: BTreeSet<PageId> = prev.iter().copied().collect();
    candidates
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let set = c.as_ref().iter().copied().collect();
            (i, jaccard(&prev_set, &set))
        })
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN").then(b.0.cmp(&a.0)))
        .expect("non-empty candidates")
}

/// Total consecutive-pair overlap of an ordering (diagnostics / tests).
pub fn consecutive_overlap(predictions: &[Vec<PageId>], order: &[usize]) -> f64 {
    let sets: Vec<BTreeSet<PageId>> = predictions
        .iter()
        .map(|p| p.iter().copied().collect())
        .collect();
    order
        .windows(2)
        .map(|w| jaccard(&sets[w[0]], &sets[w[1]]))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_sim::FileId;

    fn pages(ps: &[u32]) -> Vec<PageId> {
        ps.iter().map(|&p| PageId::new(FileId(0), p)).collect()
    }

    #[test]
    fn orders_similar_queries_adjacently() {
        // Two "clusters": {0,2} share pages, {1,3} share pages.
        let preds = vec![
            pages(&[1, 2, 3, 4]),
            pages(&[100, 101, 102]),
            pages(&[2, 3, 4, 5]),
            pages(&[101, 102, 103]),
        ];
        let order = schedule_by_overlap(&preds);
        assert_eq!(order.len(), 4);
        // Cluster members must be adjacent.
        let pos: Vec<usize> = (0..4)
            .map(|q| order.iter().position(|&x| x == q).unwrap())
            .collect();
        assert_eq!((pos[0] as i64 - pos[2] as i64).abs(), 1, "{order:?}");
        assert_eq!((pos[1] as i64 - pos[3] as i64).abs(), 1, "{order:?}");
    }

    #[test]
    fn scheduled_overlap_at_least_fifo() {
        // Alternating clusters in FIFO order: scheduling must not be worse.
        let preds = vec![
            pages(&[1, 2, 3]),
            pages(&[50, 51]),
            pages(&[2, 3, 4]),
            pages(&[51, 52]),
            pages(&[3, 4, 5]),
        ];
        let fifo: Vec<usize> = (0..preds.len()).collect();
        let sched = schedule_by_overlap(&preds);
        assert!(
            consecutive_overlap(&preds, &sched) >= consecutive_overlap(&preds, &fifo),
            "greedy chain must beat (or match) arrival order"
        );
    }

    #[test]
    fn is_a_permutation() {
        let preds = vec![pages(&[1]), pages(&[]), pages(&[2, 3]), pages(&[1, 2])];
        let mut order = schedule_by_overlap(&preds);
        order.sort_unstable();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_and_single() {
        assert!(schedule_by_overlap(&Vec::<Vec<PageId>>::new()).is_empty());
        assert_eq!(schedule_by_overlap(&[pages(&[1])]), vec![0]);
    }

    #[test]
    fn ties_break_toward_arrival_order() {
        // Four identical sets: every seed candidate and every chain step is a
        // tie, so the schedule must be exactly FIFO — not whatever internal
        // iteration order `max_by` happens to keep.
        let preds = vec![pages(&[7, 8]); 4];
        assert_eq!(schedule_by_overlap(&preds), vec![0, 1, 2, 3]);

        // Two equally-similar candidates after a distinct seed: lowest index
        // wins the tie.
        let preds = vec![
            pages(&[1, 2]),       // ties with 2 for the chain step
            pages(&[1, 2, 3, 4]), // unique largest set: the seed
            pages(&[3, 4]),       // same Jaccard to the seed as 0
        ];
        assert_eq!(schedule_by_overlap(&preds), vec![1, 0, 2]);
    }

    #[test]
    fn all_empty_sets_degrade_to_fifo() {
        // Empty predictions (e.g. a cold registry) have pairwise Jaccard 1.0
        // everywhere; the schedule must still be deterministic: FIFO.
        let preds = vec![pages(&[]); 5];
        assert_eq!(schedule_by_overlap(&preds), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn pick_next_prefers_highest_overlap() {
        let prev = pages(&[1, 2, 3]);
        let cands = vec![
            pages(&[50, 51]),   // disjoint
            pages(&[2, 3, 4]),  // 2/4 overlap — best
            pages(&[3, 9, 10]), // 1/5 overlap
        ];
        assert_eq!(pick_next_by_overlap(&prev, &cands), 1);
    }

    #[test]
    fn pick_next_ties_break_toward_arrival_order() {
        // Identical candidates: lowest index wins.
        let prev = pages(&[1, 2]);
        let cands = vec![pages(&[1, 2]); 3];
        assert_eq!(pick_next_by_overlap(&prev, &cands), 0);
        // All empty (prev included): everything ties at Jaccard 1.0 → FIFO.
        let cands = vec![pages(&[]); 4];
        assert_eq!(pick_next_by_overlap(&[], &cands), 0);
        // Empty prev vs non-empty candidates: all Jaccard 0 → still FIFO.
        let cands = vec![pages(&[5]), pages(&[6])];
        assert_eq!(pick_next_by_overlap(&[], &cands), 0);
    }

    #[test]
    fn scored_pick_agrees_with_unscored_and_reports_jaccard() {
        let prev = pages(&[1, 2, 3]);
        let cands = vec![
            pages(&[50, 51]),
            pages(&[2, 3, 4]), // 2 shared / 4 union
            pages(&[3, 9, 10]),
        ];
        let (i, score) = pick_next_by_overlap_scored(&prev, &cands);
        assert_eq!(i, pick_next_by_overlap(&prev, &cands));
        assert_eq!(i, 1);
        assert!((score - 0.5).abs() < 1e-12, "score {score}");
        // All-empty degenerate case: FIFO pick at the defined Jaccard 1.0.
        let empty = vec![pages(&[]); 3];
        assert_eq!(pick_next_by_overlap_scored(&[], &empty), (0, 1.0));
    }

    #[test]
    fn pick_next_agrees_with_batch_chain_step() {
        // One chain step of the batch scheduler and the incremental pick must
        // choose the same query given the same "last admitted" set.
        let cands = vec![
            pages(&[11, 12, 13]),
            pages(&[99]),
            pages(&[10, 11, 12]),
            pages(&[12, 40]),
        ];
        // Batch scheduler with prev as element 0 (largest? not necessarily —
        // feed it as the seed by making it strictly largest).
        let mut batch = vec![pages(&[9, 10, 11, 12, 13])];
        batch.extend(cands.clone());
        let order = schedule_by_overlap(&batch);
        assert_eq!(order[0], 0, "seed is the largest set");
        let chain_pick = order[1] - 1; // shift out the seed slot
        let incr_pick = pick_next_by_overlap(&pages(&[9, 10, 11, 12, 13]), &cands);
        assert_eq!(chain_pick, incr_pick);
    }

    #[test]
    fn schedule_is_reproducible() {
        let preds = vec![
            pages(&[1, 2, 3]),
            pages(&[]),
            pages(&[2, 3]),
            pages(&[9]),
            pages(&[1, 9]),
            pages(&[]),
        ];
        let first = schedule_by_overlap(&preds);
        for _ in 0..10 {
            assert_eq!(schedule_by_overlap(&preds), first);
        }
    }
}
