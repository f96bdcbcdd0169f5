//! Property tests over plan serialization, vocabulary handling and the
//! prefetch-aware scheduler.

use pythia::core::scheduler::schedule_by_overlap;
use pythia::core::{serialize_plan, ValueBinner, Vocab};
use pythia::db::catalog::Database;
use pythia::db::expr::{CmpOp, Pred};
use pythia::db::plan::PlanNode;
use pythia::db::types::Schema;
use pythia::sim::rng::cases;
use pythia::sim::{FileId, PageId};

fn tiny_db() -> (Database, pythia::db::catalog::TableId) {
    let mut db = Database::new();
    let t = db.create_table("t", Schema::ints(&["a", "b"]));
    for i in 0..500 {
        db.insert(t, &Database::row([i, i % 9]));
    }
    (db, t)
}

/// Serialization is a pure function of the plan: same plan, same tokens —
/// even across independently rebuilt binners.
#[test]
fn serialization_is_deterministic() {
    cases(64, |rng| {
        let lo = rng.gen_range(0..400);
        let width = rng.gen_range(0..100);
        let op_idx = rng.gen_range(0..4);
        let (db, t) = tiny_db();
        let ops = [CmpOp::Eq, CmpOp::Lt, CmpOp::Ge, CmpOp::Ne];
        let plan = PlanNode::SeqScan {
            table: t,
            pred: Some(Pred::And(vec![
                Pred::Between {
                    col: 0,
                    lo,
                    hi: lo + width,
                },
                Pred::Cmp {
                    col: 1,
                    op: ops[op_idx],
                    lit: 4,
                },
            ])),
        };
        let b1 = ValueBinner::from_database(&db);
        let b2 = ValueBinner::from_database(&db);
        assert_eq!(
            serialize_plan(&db, &b1, &plan),
            serialize_plan(&db, &b2, &plan)
        );
    });
}

/// Every serialized token of an in-domain plan is encodable after
/// training-time interning plus the standard value-token set (no [UNK]
/// for parameter values).
#[test]
fn value_tokens_never_unk() {
    cases(64, |rng| {
        let lo = rng.gen_range(0..499);
        let (db, t) = tiny_db();
        let binner = ValueBinner::from_database(&db);
        let mut vocab = Vocab::new();
        for tok in pythia::core::serialize::standard_value_tokens() {
            vocab.intern(&tok);
        }
        // Train-time query interns the structural tokens.
        let train = PlanNode::SeqScan {
            table: t,
            pred: Some(Pred::Cmp {
                col: 0,
                op: CmpOp::Ge,
                lit: 0,
            }),
        };
        vocab.encode_interning(&serialize_plan(&db, &binner, &train));
        // A test query with an arbitrary unseen literal encodes fully.
        let test = PlanNode::SeqScan {
            table: t,
            pred: Some(Pred::Cmp {
                col: 0,
                op: CmpOp::Ge,
                lit: lo,
            }),
        };
        let ids = vocab.encode(&serialize_plan(&db, &binner, &test));
        assert!(ids.iter().all(|&i| i != Vocab::UNK), "UNK leaked: {ids:?}");
    });
}

/// Vocab: interning then encoding yields identical ids.
#[test]
fn vocab_encode_roundtrip() {
    cases(64, |rng| {
        // 1..30 tokens of 1..=6 lowercase letters.
        let n = rng.gen_range(1..30);
        let tokens: Vec<String> = (0..n)
            .map(|_| {
                let len = rng.gen_range(1..=6);
                (0..len)
                    .map(|_| char::from(rng.gen_range(b'a'..=b'z')))
                    .collect()
            })
            .collect();
        let toks: Vec<String> = tokens;
        let mut v = Vocab::new();
        let a = v.encode_interning(&toks);
        let b = v.encode(&toks);
        assert_eq!(a, b);
    });
}

/// The scheduler always returns a permutation, never drops or duplicates
/// queries, and starts from a largest prediction.
#[test]
fn scheduler_is_a_permutation() {
    cases(64, |rng| {
        let n = rng.gen_range(1..12);
        let preds: Vec<Vec<u32>> = (0..n)
            .map(|_| {
                let len = rng.gen_range(0..20);
                (0..len).map(|_| rng.gen_range(0..64)).collect()
            })
            .collect();
        let lists: Vec<Vec<PageId>> = preds
            .iter()
            .map(|ps| {
                let mut set: Vec<u32> = ps.clone();
                set.sort_unstable();
                set.dedup();
                set.into_iter().map(|p| PageId::new(FileId(0), p)).collect()
            })
            .collect();
        let order = schedule_by_overlap(&lists);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..lists.len()).collect::<Vec<_>>());
        // Seed = a maximal prediction.
        let max_len = lists.iter().map(Vec::len).max().unwrap();
        assert_eq!(lists[order[0]].len(), max_len);
    });
}
