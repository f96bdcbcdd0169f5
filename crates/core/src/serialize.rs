//! Query plan serialization (the paper's Algorithm 2).
//!
//! A preorder traversal emits:
//!
//! * an operator token per node (`[SEQ]`, `[IDX]`, `[NLJ]`, `[HJ]`, `[FLT]`,
//!   `[AGG]`, `[LIM]`; sorts are skipped — "they do not affect page access
//!   order");
//! * for scan nodes, the database object name(s);
//! * for each filter predicate atom, `[PRED] colName opName valName` tokens.
//!
//! **Value binning.** The paper serializes raw literal values. With uniform
//! parameter sampling, raw values almost never repeat between training and
//! test queries, so we bin numeric literals instead: literals over small
//! categorical domains (≤ [`EXACT_DOMAIN`] distinct values) become exact
//! `v:` tokens; larger domains are emitted as a multi-resolution bin pyramid
//! (`b8:`, `b64:`, `b512:` — one token per level). Coarse bins recur across
//! the training workload, so a test query whose exact value was never seen
//! still shares tokens with many training queries; that shared context is
//! what lets the model generalize to unseen parameters. This is a documented
//! deviation (see DESIGN.md).

use std::collections::HashMap;

use pythia_db::catalog::{Database, ObjectId, ObjectKind, TableId};
use pythia_db::expr::{CmpOp, Pred};
use pythia_db::plan::PlanNode;
use pythia_db::tuple::Layout;

/// Domain size at or below which literals are emitted exactly. Kept small:
/// exact tokens only make sense for categorical columns whose every value
/// appears in training (months, genders, kinds); anything larger uses digit
/// binning so unseen test values still encode meaningfully.
pub const EXACT_DOMAIN: i64 = 32;
/// Bin counts of the multi-resolution value pyramid. A literal over a large
/// domain is emitted as one token per level (`b8:`, `b64:`, `b512:`). The
/// coarse levels repeat often across a training workload, so the model
/// learns a region→pages mapping that generalizes to parameter values whose
/// fine bins were never seen — the property that makes *unseen* queries
/// predictable (the paper's test queries are new parameterizations, not new
/// shapes).
const PYRAMID: [i64; 3] = [8, 64, 512];

/// The closed set of value tokens the binner can ever emit (pyramid bins and
/// exact small-domain values). Pre-interned into every training vocabulary
/// so a test query's value tokens are never `[UNK]` even when the exact
/// parameter value was absent from training.
pub fn standard_value_tokens() -> Vec<String> {
    let mut out =
        Vec::with_capacity(PYRAMID.iter().sum::<i64>() as usize + EXACT_DOMAIN as usize + 1);
    for &levels in &PYRAMID {
        for b in 0..levels {
            out.push(format!("b{levels}:{b}"));
        }
    }
    for v in 0..=EXACT_DOMAIN {
        out.push(format!("v:{v}"));
    }
    out
}
/// Cap on IN-list values serialized (the count is always emitted).
const MAX_IN_VALUES: usize = 6;

#[derive(Debug, Clone, Copy)]
pub(crate) struct ColumnStats {
    pub(crate) min: i64,
    pub(crate) max: i64,
}

/// Per-column min/max statistics used to normalize literals — the analogue
/// of the optimizer's statistics catalog. An all-`Int` heap's bounds are
/// folded from its zones, one `(min, max)` per column per extent, which are
/// exact; any other heap's are read record by record through
/// [`Layout::int_at`]. No row is decoded.
#[derive(Debug, Clone)]
pub struct ValueBinner {
    pub(crate) stats: HashMap<(ObjectId, usize), ColumnStats>,
}

impl ValueBinner {
    /// Record every table's per-column integer ranges.
    pub fn from_database(db: &Database) -> Self {
        let mut stats = HashMap::new();
        for t in db.tables() {
            let mut bounds = vec![(i64::MAX, i64::MIN); t.schema.arity()];
            match t.heap.layout() {
                Layout::Ints(_) => {
                    for zone in t.heap.zones() {
                        for (b, &(lo, hi)) in bounds.iter_mut().zip(zone) {
                            *b = (b.0.min(lo), b.1.max(hi));
                        }
                    }
                }
                Layout::Tagged => {
                    for (_, rec) in t.heap.records(&db.disk) {
                        for (c, b) in bounds.iter_mut().enumerate() {
                            if let Some(v) = Layout::Tagged.int_at(rec, c) {
                                *b = (b.0.min(v), b.1.max(v));
                            }
                        }
                    }
                }
            }
            for (c, (min, max)) in bounds.into_iter().enumerate() {
                if min <= max {
                    stats.insert((t.object, c), ColumnStats { min, max });
                }
            }
        }
        ValueBinner { stats }
    }

    /// Emit the token(s) encoding literal `v` for `(table object, column)`.
    fn value_tokens(&self, obj: ObjectId, col: usize, v: i64, out: &mut Vec<String>) {
        let Some(s) = self.stats.get(&(obj, col)) else {
            out.push(format!("v:{v}"));
            return;
        };
        let domain = s.max - s.min + 1;
        if domain <= EXACT_DOMAIN {
            out.push(format!("v:{}", (v - s.min).clamp(0, domain)));
        } else {
            let frac = (v - s.min).clamp(0, s.max - s.min) as f64 / (s.max - s.min) as f64;
            for &levels in &PYRAMID {
                let b = ((frac * levels as f64) as i64).min(levels - 1);
                out.push(format!("b{levels}:{b}"));
            }
        }
    }
}

fn emit_pred(
    db: &Database,
    binner: &ValueBinner,
    table: TableId,
    pred: &Pred,
    out: &mut Vec<String>,
) {
    let info = db.table_info(table);
    let obj = info.object;
    match pred {
        Pred::Cmp { col, op, lit } => {
            out.push("[PRED]".into());
            out.push(format!("col:{}.{}", info.name, info.schema.name(*col)));
            out.push(format!("op:{}", op.sql()));
            binner.value_tokens(obj, *col, *lit, out);
        }
        Pred::Between { col, lo, hi } => {
            emit_pred(
                db,
                binner,
                table,
                &Pred::Cmp {
                    col: *col,
                    op: CmpOp::Ge,
                    lit: *lo,
                },
                out,
            );
            emit_pred(
                db,
                binner,
                table,
                &Pred::Cmp {
                    col: *col,
                    op: CmpOp::Le,
                    lit: *hi,
                },
                out,
            );
        }
        Pred::In { col, set } => {
            out.push("[PRED]".into());
            out.push(format!("col:{}.{}", info.name, info.schema.name(*col)));
            out.push("op:IN".into());
            out.push(format!("incnt:{}", set.len().min(MAX_IN_VALUES + 1)));
            for v in set.iter().take(MAX_IN_VALUES) {
                binner.value_tokens(obj, *col, *v, out);
            }
        }
        Pred::And(ps) => {
            for p in ps {
                emit_pred(db, binner, table, p, out);
            }
        }
    }
}

/// The token a plan names `obj` by wherever it scans it.
fn object_token(db: &Database, obj: ObjectId) -> String {
    let prefix = match db.object_kind(obj) {
        ObjectKind::Table => "rel",
        ObjectKind::Index => "idx",
    };
    format!("{prefix}:{}", db.object_name(obj))
}

fn walk(db: &Database, binner: &ValueBinner, node: &PlanNode, out: &mut Vec<String>) {
    match node {
        PlanNode::SeqScan { table, pred } => {
            out.push("[SEQ]".into());
            out.push(object_token(db, db.table_info(*table).object));
            if let Some(p) = pred {
                emit_pred(db, binner, *table, p, out);
            }
        }
        PlanNode::IndexScan {
            table,
            index,
            lo,
            hi,
            residual,
        } => {
            out.push("[IDX]".into());
            out.push(object_token(db, *index));
            out.push(object_token(db, db.table_info(*table).object));
            let key_col = db.index_info(*index).key_col;
            emit_pred(
                db,
                binner,
                *table,
                &Pred::Between {
                    col: key_col,
                    lo: *lo,
                    hi: *hi,
                },
                out,
            );
            if let Some(p) = residual {
                emit_pred(db, binner, *table, p, out);
            }
        }
        PlanNode::IndexNLJoin {
            outer,
            inner,
            inner_index,
            inner_pred,
            ..
        } => {
            out.push("[NLJ]".into());
            walk(db, binner, outer, out);
            out.push("[IDX]".into());
            out.push(object_token(db, *inner_index));
            out.push(object_token(db, db.table_info(*inner).object));
            if let Some(p) = inner_pred {
                emit_pred(db, binner, *inner, p, out);
            }
        }
        PlanNode::HashJoin { build, probe, .. } => {
            out.push("[HJ]".into());
            walk(db, binner, probe, out);
            walk(db, binner, build, out);
        }
        PlanNode::Filter { input, .. } => {
            // Filter predicates over joined schemas have no stable column
            // names; the operator token alone marks their presence.
            out.push("[FLT]".into());
            walk(db, binner, input, out);
        }
        PlanNode::Aggregate { input, .. } => {
            out.push("[AGG]".into());
            walk(db, binner, input, out);
        }
        PlanNode::Sort { input, .. } => {
            // Skipped: sorting does not affect page access order (paper §3.3).
            walk(db, binner, input, out);
        }
        PlanNode::Limit { input, .. } => {
            out.push("[LIM]".into());
            walk(db, binner, input, out);
        }
    }
}

/// Serialize a plan into tokens (Algorithm 2).
pub fn serialize_plan(db: &Database, binner: &ValueBinner, plan: &PlanNode) -> Vec<String> {
    let mut out = Vec::with_capacity(64);
    walk(db, binner, plan, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_db::plan::AggFunc;
    use pythia_db::types::{Datum, Schema};

    fn sample_db() -> (Database, TableId, TableId, ObjectId) {
        let mut db = Database::new();
        let fact = db.create_table("fact", Schema::ints(&["k", "date", "dkey"]));
        let dim = db.create_table("dim", Schema::ints(&["id", "attr"]));
        for i in 0..2000 {
            db.insert(fact, &Database::row([i, i % 1000, i % 50]));
        }
        for i in 0..50 {
            db.insert(dim, &Database::row([i, i % 7]));
        }
        let idx = db.create_index("dim_pk", dim, 0);
        (db, fact, dim, idx)
    }

    /// Every table's per-column `(min, max)` as a fold over its decoded rows
    /// finds it, sorted.
    fn decoded_bounds(db: &Database) -> Vec<((ObjectId, usize), (i64, i64))> {
        let mut out = Vec::new();
        for t in db.tables() {
            let rows: Vec<_> = (0..t.heap.page_count(&db.disk))
                .flat_map(|p| t.heap.read_page(&db.disk, p))
                .map(|(_, row)| row)
                .collect();
            for c in 0..t.schema.arity() {
                let col = rows.iter().filter_map(|row| row[c].as_int());
                if let (Some(min), Some(max)) = (col.clone().min(), col.max()) {
                    out.push(((t.object, c), (min, max)));
                }
            }
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn binner_bounds_equal_a_fold_over_decoded_rows() {
        let mut db = Database::new();
        // An all-`Int` heap over several extents whose last row holds every
        // column's extreme, so the last extent decides each bound.
        let ints = db.create_table("ints", Schema::ints(&["a", "b", "c"]));
        for i in 0..3000_i64 {
            db.insert(ints, &Database::row([(i * 7919) % 1013 - 500, -i, i % 17]));
        }
        db.insert(ints, &Database::row([5000, -5000, 99]));
        // A heap that turns `Tagged` late: its second column holds strings
        // from then on, and its third NULLs among negative values.
        let mixed = db.create_table("mixed", Schema::ints(&["id", "name", "v"]));
        for i in 0..1200_i64 {
            db.insert(mixed, &Database::row([i, i % 5, i * 3]));
        }
        for i in 1200..1500_i64 {
            let v = if i % 4 == 0 {
                Datum::Null
            } else {
                Datum::Int(-i)
            };
            db.insert(mixed, &[Datum::Int(i), Datum::Str(format!("n{i}")), v]);
        }
        let empty = db.create_table("empty", Schema::ints(&["x"]));
        let heap = |t| &db.table_info(t).heap;
        assert_eq!(heap(ints).layout(), Layout::Ints(3));
        assert!(heap(ints).zones().count() > 2, "several extents");
        assert_eq!(heap(mixed).layout(), Layout::Tagged);
        assert_eq!(heap(empty).tuple_count(), 0);

        let binner = ValueBinner::from_database(&db);
        let mut bounds: Vec<_> = binner
            .stats
            .iter()
            .map(|(&key, s)| (key, (s.min, s.max)))
            .collect();
        bounds.sort_unstable();
        assert_eq!(bounds, decoded_bounds(&db));
        assert_eq!(
            bounds.len(),
            3 + 3,
            "every column of ints and mixed, none of empty"
        );
    }

    #[test]
    fn binner_exact_for_small_domains() {
        let (db, _fact, dim, _idx) = sample_db();
        let b = ValueBinner::from_database(&db);
        let obj = db.table_info(dim).object;
        let mut out = Vec::new();
        b.value_tokens(obj, 1, 3, &mut out); // attr domain 0..6 -> exact
        assert_eq!(out, vec!["v:3"]);
    }

    #[test]
    fn binner_pyramid_for_large_domains() {
        let (db, fact, _dim, _idx) = sample_db();
        let b = ValueBinner::from_database(&db);
        let obj = db.table_info(fact).object;
        let mut out = Vec::new();
        b.value_tokens(obj, 0, 1000, &mut out); // k domain 0..1999 -> pyramid
        assert_eq!(out.len(), 3);
        assert!(out[0].starts_with("b8:"));
        assert!(out[1].starts_with("b64:"));
        assert!(out[2].starts_with("b512:"));
        // Monotone: a larger value never gets a smaller coarse bin.
        let coarse = |v: i64| {
            let mut o = Vec::new();
            b.value_tokens(obj, 0, v, &mut o);
            o[0].trim_start_matches("b8:").parse::<i64>().unwrap()
        };
        assert!(coarse(100) <= coarse(500));
        assert!(coarse(500) <= coarse(1900));
        // Every emitted token is in the pre-interned closed set.
        let std = standard_value_tokens();
        for t in &out {
            assert!(std.contains(t), "{t} not in standard set");
        }
    }

    #[test]
    fn close_values_share_coarse_digit() {
        let (db, fact, _dim, _idx) = sample_db();
        let b = ValueBinner::from_database(&db);
        let obj = db.table_info(fact).object;
        let tok = |v: i64| {
            let mut o = Vec::new();
            b.value_tokens(obj, 0, v, &mut o);
            o[0].clone()
        };
        assert_eq!(tok(1000), tok(1002), "nearby values should bin together");
        assert_ne!(tok(100), tok(1900));
    }

    #[test]
    fn serialization_structure() {
        let (db, fact, dim, idx) = sample_db();
        let b = ValueBinner::from_database(&db);
        let plan = PlanNode::Aggregate {
            input: Box::new(PlanNode::IndexNLJoin {
                outer: Box::new(PlanNode::SeqScan {
                    table: fact,
                    pred: Some(Pred::Between {
                        col: 1,
                        lo: 100,
                        hi: 200,
                    }),
                }),
                outer_key: 2,
                inner: dim,
                inner_index: idx,
                inner_pred: Some(Pred::In {
                    col: 1,
                    set: vec![1, 3],
                }),
            }),
            group_col: None,
            agg: AggFunc::CountStar,
        };
        let toks = serialize_plan(&db, &b, &plan);
        let s = toks.join(" ");
        assert!(s.starts_with("[AGG] [NLJ] [SEQ] rel:fact [PRED] col:fact.date op:>="));
        assert!(s.contains("[IDX] idx:dim_pk rel:dim [PRED] col:dim.attr op:IN incnt:2 v:1 v:3"));
    }

    #[test]
    fn different_params_differ_only_in_value_tokens() {
        let (db, fact, _dim, _idx) = sample_db();
        let b = ValueBinner::from_database(&db);
        let mk = |lo: i64| {
            serialize_plan(
                &db,
                &b,
                &PlanNode::SeqScan {
                    table: fact,
                    pred: Some(Pred::Cmp {
                        col: 1,
                        op: CmpOp::Ge,
                        lit: lo,
                    }),
                },
            )
        };
        let a = mk(100);
        let c = mk(900);
        assert_eq!(a.len(), c.len());
        let diffs = a.iter().zip(&c).filter(|(x, y)| x != y).count();
        assert!(
            (1..=3).contains(&diffs),
            "only value tokens differ: {diffs}"
        );
    }

    #[test]
    fn in_lists_are_capped() {
        let (db, fact, _dim, _idx) = sample_db();
        let b = ValueBinner::from_database(&db);
        let plan = PlanNode::SeqScan {
            table: fact,
            pred: Some(Pred::In {
                col: 2,
                set: (0..20).collect(),
            }),
        };
        let toks = serialize_plan(&db, &b, &plan);
        // dkey's domain (0..49) exceeds EXACT_DOMAIN, so each of the capped
        // 6 values becomes a 3-token pyramid.
        let vals = toks.iter().filter(|t| t.starts_with("b8:")).count();
        assert_eq!(vals, MAX_IN_VALUES);
        assert!(toks.iter().any(|t| t.starts_with("incnt:")));
    }

    #[test]
    fn sort_nodes_are_skipped() {
        let (db, fact, _dim, _idx) = sample_db();
        let b = ValueBinner::from_database(&db);
        let plan = PlanNode::Sort {
            input: Box::new(PlanNode::SeqScan {
                table: fact,
                pred: None,
            }),
            col: 0,
        };
        let toks = serialize_plan(&db, &b, &plan);
        assert_eq!(toks, vec!["[SEQ]".to_owned(), "rel:fact".to_owned()]);
    }
}
