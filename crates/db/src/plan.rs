//! Physical query plans.
//!
//! A plan is the tree the optimizer would hand to the executor. The workload
//! generator builds these directly (there is no SQL parser — the paper's
//! model never sees SQL either: "We focus on serializing the query execution
//! plan since it contains information that is sufficiently predictive of
//! eventual access patterns", §3.3).

use crate::catalog::{Database, ObjectId, TableId};
use crate::expr::Pred;

/// Aggregate functions (enough for DSB's SPJ+agg templates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    CountStar,
    Sum(usize),
    Min(usize),
    Max(usize),
}

/// A physical plan node.
///
/// Join outputs concatenate the streaming side's columns first:
/// `IndexNLJoin` emits `outer ++ inner`, `HashJoin` emits `probe ++ build`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PlanNode {
    /// Full sequential scan of a table with an optional filter.
    SeqScan { table: TableId, pred: Option<Pred> },
    /// Range scan `lo <= key <= hi` through an index, with heap fetches and
    /// an optional residual filter on the heap tuple.
    IndexScan {
        table: TableId,
        index: ObjectId,
        lo: i64,
        hi: i64,
        residual: Option<Pred>,
    },
    /// Nested-loop join probing `inner_index` with the outer tuple's
    /// `outer_key` column — Postgres' "index scan on the smaller dimension
    /// tables for each qualifying fact row" pattern.
    IndexNLJoin {
        outer: Box<PlanNode>,
        outer_key: usize,
        inner: TableId,
        inner_index: ObjectId,
        /// Filter applied to the *inner* tuple (column indices relative to
        /// the inner table).
        inner_pred: Option<Pred>,
    },
    /// Hash join: `build`, a base-table [`PlanNode::SeqScan`], is
    /// materialized into a hash table, `probe` side streams. Keys are integer
    /// columns.
    HashJoin {
        build: Box<PlanNode>,
        probe: Box<PlanNode>,
        build_key: usize,
        probe_key: usize,
    },
    /// Row filter.
    Filter { input: Box<PlanNode>, pred: Pred },
    /// Hash aggregation (optionally grouped by one column).
    Aggregate {
        input: Box<PlanNode>,
        group_col: Option<usize>,
        agg: AggFunc,
    },
    /// Full sort on one column (blocking).
    Sort { input: Box<PlanNode>, col: usize },
    /// First `n` rows.
    Limit { input: Box<PlanNode>, n: usize },
}

impl PlanNode {
    /// Children of this node, outer/probe side first where relevant.
    pub(crate) fn children(&self) -> Vec<&PlanNode> {
        match self {
            PlanNode::SeqScan { .. } | PlanNode::IndexScan { .. } => vec![],
            PlanNode::IndexNLJoin { outer, .. } => vec![outer],
            PlanNode::HashJoin { build, probe, .. } => vec![probe, build],
            PlanNode::Filter { input, .. }
            | PlanNode::Aggregate { input, .. }
            | PlanNode::Sort { input, .. }
            | PlanNode::Limit { input, .. } => vec![input],
        }
    }

    /// Preorder traversal of the plan tree.
    pub fn preorder<'a>(&'a self, visit: &mut impl FnMut(&'a PlanNode)) {
        visit(self);
        for c in self.children() {
            c.preorder(visit);
        }
    }

    /// All tables and indexes this plan touches, in preorder.
    pub fn objects(&self, db: &Database) -> Vec<ObjectId> {
        let mut out = Vec::new();
        self.preorder(&mut |n| match n {
            PlanNode::SeqScan { table, .. } => out.push(db.table_info(*table).object),
            PlanNode::IndexScan { table, index, .. } => {
                out.push(db.table_info(*table).object);
                out.push(*index);
            }
            PlanNode::IndexNLJoin {
                inner, inner_index, ..
            } => {
                out.push(db.table_info(*inner).object);
                out.push(*inner_index);
            }
            _ => {}
        });
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Schema;

    fn db_with_two_tables() -> (Database, TableId, TableId, ObjectId) {
        let mut db = Database::new();
        let fact = db.create_table("fact", Schema::ints(&["k", "d"]));
        let dim = db.create_table("dim", Schema::ints(&["id", "v"]));
        for i in 0..200 {
            db.insert(fact, &Database::row([i, i % 20]));
            db.insert(dim, &Database::row([i, i * 2]));
        }
        let idx = db.create_index("dim_id", dim, 0);
        (db, fact, dim, idx)
    }

    #[test]
    fn preorder_and_children() {
        let (db, fact, dim, idx) = db_with_two_tables();
        let plan = PlanNode::Aggregate {
            input: Box::new(PlanNode::IndexNLJoin {
                outer: Box::new(PlanNode::SeqScan {
                    table: fact,
                    pred: None,
                }),
                outer_key: 1,
                inner: dim,
                inner_index: idx,
                inner_pred: None,
            }),
            group_col: None,
            agg: AggFunc::CountStar,
        };
        let mut kinds = Vec::new();
        plan.preorder(&mut |n| {
            kinds.push(std::mem::discriminant(n));
        });
        assert_eq!(kinds.len(), 3);
        let objs = plan.objects(&db);
        // fact table, dim table, dim index.
        assert_eq!(objs.len(), 3);
        let _ = db.table_info(fact);
    }

    #[test]
    fn hash_join_children_probe_first() {
        let (_db, fact, dim, _idx) = db_with_two_tables();
        let build = PlanNode::SeqScan {
            table: dim,
            pred: None,
        };
        let probe = PlanNode::SeqScan {
            table: fact,
            pred: None,
        };
        let plan = PlanNode::HashJoin {
            build: Box::new(build.clone()),
            probe: Box::new(probe.clone()),
            build_key: 0,
            probe_key: 1,
        };
        let ch = plan.children();
        assert_eq!(ch[0], &probe);
        assert_eq!(ch[1], &build);
    }
}
