//! # pythia-bench
//!
//! Criterion micro-benchmarks for the Pythia workspace (see `benches/`):
//!
//! * `storage` — B+Tree build/search/range, heap scans, slotted pages.
//! * `buffer` — pool lookups, eviction cycles per policy, AIO pump.
//! * `nn` — matmul kernels, transformer encoder forward, training steps.
//! * `pipeline` — plan serialization, model inference latency (the paper's
//!   "1–1.5 s per query" claim, at our scale), trace replay throughput.
//!
//! This crate's library exposes small shared fixtures.

use pythia_db::catalog::Database;
use pythia_db::exec::execute;
use pythia_db::expr::{CmpOp, Pred};
use pythia_db::plan::PlanNode;
use pythia_db::trace::Trace;
use pythia_db::types::Schema;

/// A small fact/dim pair with an index, used by several benches.
pub fn bench_db(
    rows: i64,
) -> (
    Database,
    pythia_db::catalog::TableId,
    pythia_db::catalog::ObjectId,
) {
    let mut db = Database::new();
    let fact = db.create_table("fact", Schema::ints(&["id", "day", "k"]));
    let dim = db.create_table("dim", Schema::ints(&["d_id", "attr"]));
    for i in 0..rows {
        db.insert(
            fact,
            Database::row(&[i, i / 8, (i * 13) % (rows / 4).max(1)]),
        );
    }
    for d in 0..(rows / 4).max(1) {
        db.insert(dim, Database::row(&[d, d % 9]));
    }
    let idx = db.create_index("dim_pk", dim, 0);
    (db, fact, idx)
}

/// A star-schema workload with `n_dims` dimension tables, each probed
/// through its own index by a rotating subset of queries. Every dimension
/// heap and index becomes an independent per-object model, which is what the
/// parallel-training benchmarks fan out over.
///
/// The fact table's per-dim key columns are clustered by `date`, so a date
/// range selects a learnable page range in each dimension (same construction
/// as the predictor unit tests' `mini_star`, widened to many objects).
pub fn star_workload(n_dims: usize, n_queries: usize) -> (Database, Vec<PlanNode>, Vec<Trace>) {
    assert!(n_dims >= 1);
    const DIM_ROWS: i64 = 600;
    let mut db = Database::new();
    let mut cols: Vec<String> = vec!["id".into(), "date".into()];
    for d in 0..n_dims {
        cols.push(format!("k{d}"));
    }
    let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
    let fact = db.create_table("fact", Schema::ints(&col_refs));
    for i in 0..2000i64 {
        let date = i / 2; // 1000 distinct dates
        let mut row = vec![i, date];
        for d in 0..n_dims {
            // Clustered key with a little jitter so labels are learnable but
            // not trivial; each dim gets a distinct phase.
            let key = (date * DIM_ROWS / 1000 + (i + d as i64) % 3).min(DIM_ROWS - 1);
            row.push(key);
        }
        db.insert(fact, Database::row(&row));
    }
    let mut dims = Vec::with_capacity(n_dims);
    for d in 0..n_dims {
        let dim = db.create_table(&format!("dim{d}"), Schema::ints(&["d_id", "attr"]));
        for r in 0..DIM_ROWS {
            db.insert(dim, Database::row(&[r, r % 9]));
        }
        let idx = db.create_index(&format!("dim{d}_pk"), dim, 0);
        dims.push((dim, idx));
    }

    let mut plans = Vec::with_capacity(n_queries);
    let mut traces = Vec::with_capacity(n_queries);
    for q in 0..n_queries {
        let d = q % n_dims;
        let lo = ((q as i64) * 31) % 900;
        let hi = lo + 60;
        let (dim, idx) = dims[d];
        let plan = PlanNode::IndexNLJoin {
            outer: Box::new(PlanNode::SeqScan {
                table: fact,
                pred: Some(Pred::Between { col: 1, lo, hi }),
            }),
            outer_key: 2 + d,
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
