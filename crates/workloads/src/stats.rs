//! Workload statistics — reproduces the paper's Table 1.

use std::collections::HashSet;

use pythia_db::trace::Trace;

use crate::schema::BenchmarkDb;
use crate::templates::{QueryInstance, Template};

/// The per-workload statistics of Table 1.
#[derive(Debug, Clone)]
pub struct WorkloadStats {
    pub template: Template,
    /// Total sequential page reads across the workload.
    pub sequential_io: u64,
    /// Minimum distinct non-sequential reads of any single query.
    pub min_distinct_nonseq: usize,
    /// Maximum distinct non-sequential reads of any single query.
    pub max_distinct_nonseq: usize,
    /// Distinct plan shapes observed (parameters ignored).
    pub distinct_plans: usize,
    /// Relations joined by the template.
    pub relations_joined: usize,
    /// Of those, how many are index-scanned (in the most common shape).
    pub index_scanned: usize,
}

/// Plan shape fingerprint: node kinds + scanned objects, parameters ignored
/// (Table 1 counts "distinct query plans", which for a templated workload
/// means distinct shapes).
pub(crate) fn plan_shape(q: &QueryInstance) -> String {
    let mut s = String::new();
    q.plan.preorder(&mut |n| {
        use pythia_db::plan::PlanNode::*;
        match n {
            SeqScan { table, .. } => s.push_str(&format!("S{},", table.0)),
            IndexScan { index, .. } => s.push_str(&format!("I{},", index.0)),
            IndexNLJoin {
                inner, inner_index, ..
            } => s.push_str(&format!("N{}i{},", inner.0, inner_index.0)),
            HashJoin { .. } => s.push_str("H,"),
            Filter { .. } => s.push_str("F,"),
            Aggregate { .. } => s.push_str("A,"),
            Sort { .. } => s.push_str("O,"),
            Limit { .. } => s.push_str("L,"),
        }
    });
    s
}

/// Compute Table 1 statistics over a workload, given each query's trace.
pub fn workload_stats(
    b: &BenchmarkDb,
    template: Template,
    queries: &[QueryInstance],
    traces: &[Trace],
) -> WorkloadStats {
    assert_eq!(queries.len(), traces.len());
    let mut sequential_io = 0u64;
    let mut min_nonseq = usize::MAX;
    let mut max_nonseq = 0usize;
    let mut shapes = HashSet::new();
    for (q, t) in queries.iter().zip(traces) {
        sequential_io += t.sequential_reads() as u64;
        let d = t.distinct_non_sequential();
        min_nonseq = min_nonseq.min(d);
        max_nonseq = max_nonseq.max(d);
        shapes.insert(plan_shape(q));
    }

    // Relations / index-scans: maximum across plan variants (the paper
    // reports the template's canonical shape; selectivity-driven variants
    // may hash-join a dim that is usually index-probed).
    let mut relations_joined = 0usize;
    let mut index_scanned_max = 0usize;
    for q in queries {
        let mut relations = HashSet::new();
        let mut index_scanned = HashSet::new();
        q.plan.preorder(&mut |n| {
            use pythia_db::plan::PlanNode::*;
            match n {
                SeqScan { table, .. } => {
                    relations.insert(table.0);
                }
                IndexScan { table, .. } => {
                    relations.insert(table.0);
                    index_scanned.insert(table.0);
                }
                IndexNLJoin { inner, .. } => {
                    relations.insert(inner.0);
                    index_scanned.insert(inner.0);
                }
                _ => {}
            }
        });
        relations_joined = relations_joined.max(relations.len());
        index_scanned_max = index_scanned_max.max(index_scanned.len());
    }
    let _ = b;
    WorkloadStats {
        template,
        sequential_io,
        min_distinct_nonseq: if min_nonseq == usize::MAX {
            0
        } else {
            min_nonseq
        },
        max_distinct_nonseq: max_nonseq,
        distinct_plans: shapes.len(),
        relations_joined,
        index_scanned: index_scanned_max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{build_benchmark, GeneratorConfig};
    use crate::templates::sample_workload;
    use pythia_db::exec::execute;

    #[test]
    fn table1_shape_for_t18() {
        let b = build_benchmark(&GeneratorConfig {
            scale: 0.08,
            seed: 2,
        });
        let w = sample_workload(&b, Template::T18, 12, 4);
        let traces: Vec<Trace> = w.iter().map(|q| execute(&q.plan, &b.db).1).collect();
        let s = workload_stats(&b, Template::T18, &w, &traces);
        assert_eq!(s.relations_joined, 6, "T18 joins 6 relations");
        assert!(s.index_scanned >= 3, "most dims are index-probed");
        assert!(s.sequential_io > 0);
        assert!(s.min_distinct_nonseq > 0);
        assert!(s.max_distinct_nonseq >= s.min_distinct_nonseq);
        assert!(s.distinct_plans >= 1);
    }

    #[test]
    fn t91_joins_seven_relations() {
        let b = build_benchmark(&GeneratorConfig {
            scale: 0.08,
            seed: 2,
        });
        let w = sample_workload(&b, Template::T91, 6, 5);
        let traces: Vec<Trace> = w.iter().map(|q| execute(&q.plan, &b.db).1).collect();
        let s = workload_stats(&b, Template::T91, &w, &traces);
        assert_eq!(s.relations_joined, 7);
        assert_eq!(s.index_scanned, 5);
    }

    #[test]
    fn plan_shape_ignores_parameters() {
        let b = build_benchmark(&GeneratorConfig {
            scale: 0.08,
            seed: 2,
        });
        // Two T91 narrow queries share a shape even with different params.
        let w = sample_workload(&b, Template::T91, 30, 6);
        let shapes: HashSet<String> = w.iter().map(plan_shape).collect();
        assert!(
            shapes.len() < w.len(),
            "shapes collapse parameter variation"
        );
        assert!(shapes.len() <= 3, "T91 has few shapes (paper: 2)");
    }
}
