//! The executor's scans test their predicate on the encoded record and
//! decode only the rows it keeps. Nothing observable may depend on that:
//! here every benchmark template runs against a reference executor that
//! decodes first — whole pages through `HeapFile::read_page`, fetched rows
//! through `read_tuple`, predicates through `Pred::eval` on the tuple — and
//! must yield the same rows and the same trace, event for event.

use std::collections::{HashMap, VecDeque};

use pythia::db::btree::NodeKind;
use pythia::db::exec::{execute, ExecContext};
use pythia::db::heap::RecordId;
use pythia::db::trace::{AccessKind, TraceEvent};
use pythia::db::{AggFunc, Database, Datum, PlanNode, Tuple};
use pythia::sim::PageId;
use pythia::workloads::templates::{sample_workload, Template};
use pythia::workloads::{build_benchmark, GeneratorConfig};

/// A Volcano operator: the next row, or `None` when exhausted.
type Rows<'a> = Box<dyn FnMut(&mut ExecContext<'a>) -> Option<Tuple> + 'a>;

/// The decode-first operator tree of `plan`, over the node kinds the
/// templates plan with.
fn reference<'a>(plan: &'a PlanNode, db: &'a Database) -> Rows<'a> {
    match plan {
        PlanNode::SeqScan { table, pred } => {
            let info = db.table_info(*table);
            let pages = info.heap.page_count(&db.disk);
            let mut page = 0;
            let mut buffer = VecDeque::new();
            Box::new(move |ctx| loop {
                if let Some(row) = buffer.pop_front() {
                    ctx.charge_cpu(1);
                    match pred {
                        Some(p) if !p.eval(&row) => continue,
                        _ => return Some(row),
                    }
                }
                if page >= pages {
                    return None;
                }
                let pid = PageId::new(info.heap.file, page);
                ctx.record_read(info.object, pid, AccessKind::SeqScan);
                buffer.extend(
                    info.heap
                        .read_page(&db.disk, page)
                        .into_iter()
                        .map(|(_, t)| t),
                );
                page += 1;
            })
        }
        PlanNode::IndexNLJoin {
            outer,
            outer_key,
            inner,
            inner_index,
            inner_pred,
        } => {
            let mut outer = reference(outer, db);
            let (info, idx) = (db.table_info(*inner), db.index_info(*inner_index));
            let mut current_outer: Option<Tuple> = None;
            let mut pending: VecDeque<RecordId> = VecDeque::new();
            Box::new(move |ctx| loop {
                if let Some(rid) = pending.pop_front() {
                    let pid = PageId::new(info.heap.file, rid.page_no);
                    ctx.record_read(info.object, pid, AccessKind::HeapFetch);
                    let inner_row = info.heap.read_tuple(&db.disk, rid);
                    ctx.charge_cpu(1);
                    if inner_pred.as_ref().is_some_and(|p| !p.eval(&inner_row)) {
                        continue;
                    }
                    let mut out = current_outer.clone().expect("outer row present");
                    out.extend(inner_row);
                    return Some(out);
                }
                let outer_row = outer(ctx)?;
                let Some(key) = outer_row[*outer_key].as_int() else {
                    continue;
                };
                let mut visits = Vec::new();
                let rids = idx
                    .btree
                    .search(&db.disk, key, &mut |pid, kind| visits.push((pid, kind)));
                for (pid, kind) in visits {
                    let kind = match kind {
                        NodeKind::Internal => AccessKind::IndexInternal,
                        NodeKind::Leaf => AccessKind::IndexLeaf,
                    };
                    ctx.record_read(idx.object, pid, kind);
                }
                ctx.charge_cpu(1);
                pending.extend(rids);
                current_outer = Some(outer_row);
            })
        }
        PlanNode::HashJoin {
            build,
            probe,
            build_key,
            probe_key,
        } => {
            let (mut build, mut probe) = (reference(build, db), reference(probe, db));
            let mut table: Option<HashMap<i64, Vec<Tuple>>> = None;
            let mut pending = VecDeque::new();
            Box::new(move |ctx| {
                let table = table.get_or_insert_with(|| {
                    let mut table: HashMap<i64, Vec<Tuple>> = HashMap::new();
                    while let Some(row) = build(ctx) {
                        if let Some(k) = row[*build_key].as_int() {
                            table.entry(k).or_default().push(row);
                        }
                        ctx.charge_cpu(1);
                    }
                    table
                });
                loop {
                    if let Some(row) = pending.pop_front() {
                        return Some(row);
                    }
                    let probe_row = probe(ctx)?;
                    ctx.charge_cpu(1);
                    let matches = probe_row[*probe_key].as_int().and_then(|k| table.get(&k));
                    for m in matches.into_iter().flatten() {
                        let mut out = probe_row.clone();
                        out.extend(m.iter().cloned());
                        pending.push_back(out);
                    }
                }
            })
        }
        PlanNode::Aggregate {
            input,
            group_col: None,
            agg: agg @ (AggFunc::CountStar | AggFunc::Sum(_)),
        } => {
            let mut input = reference(input, db);
            let mut done = false;
            Box::new(move |ctx| {
                if std::mem::replace(&mut done, true) {
                    return None;
                }
                let (mut acc, mut any) = (0, false);
                while let Some(row) = input(ctx) {
                    any = true;
                    acc += match agg {
                        AggFunc::Sum(c) => row[*c].as_int().unwrap_or(0),
                        _ => 1,
                    };
                    ctx.charge_cpu(1);
                }
                let counts = matches!(agg, AggFunc::CountStar);
                Some(vec![if any || counts {
                    Datum::Int(acc)
                } else {
                    Datum::Null
                }])
            })
        }
        other => panic!("no template plans with {other:?}"),
    }
}

fn execute_decoding_first(plan: &PlanNode, db: &Database) -> (Vec<Tuple>, Vec<TraceEvent>) {
    let mut ctx = ExecContext::new(db);
    let mut op = reference(plan, db);
    let mut rows = Vec::new();
    while let Some(row) = op(&mut ctx) {
        rows.push(row);
    }
    (rows, ctx.into_trace().iter().collect())
}

#[test]
fn every_template_matches_the_decode_first_executor() {
    let bench = build_benchmark(&GeneratorConfig {
        scale: 0.05,
        seed: 23,
    });
    for (i, template) in [
        Template::T18,
        Template::T19,
        Template::T91,
        Template::Imdb1a,
    ]
    .into_iter()
    .enumerate()
    {
        let mut survivors = 0;
        for (q, query) in sample_workload(&bench, template, 20, 5 + i as u64)
            .iter()
            .enumerate()
        {
            let (rows, trace) = execute(&query.plan, &bench.db);
            let (want_rows, want_trace) = execute_decoding_first(&query.plan, &bench.db);
            assert_eq!(rows, want_rows, "{template:?} query {q}: rows");
            let trace: Vec<_> = trace.iter().collect();
            assert!(trace.len() > 100, "{template:?} query {q}: a trivial trace");
            assert_eq!(trace, want_trace, "{template:?} query {q}: trace");
            survivors += rows[0][0].as_int().map_or(0, |v| (v != 0) as usize);
        }
        // Not twenty empty joins: rows survived the predicates.
        assert!(survivors > 0, "{template:?}: every result is empty");
    }
}
