//! Volcano executor with page-access instrumentation.
//!
//! Operators pull tuples from their children; every page the executor touches
//! is reported to the [`ExecContext`]'s trace, including repeated requests
//! (index paths, hot heap pages) — deduplication happens later in Pythia's
//! training pipeline, exactly as in the paper (Algorithm 1).
//!
//! A scan pays for the rows it keeps: it tests its predicate on the record's
//! bytes where they lie on the page and decodes only a survivor (`examine`).
//! The trace cannot tell — a page is requested when the scan first needs it
//! and every tuple examined is one CPU unit, kept or not.
//!
//! Execution here is *untimed*: it computes results and the trace. Timing is
//! done by replaying the trace through the buffer manager in [`crate::runtime`].

use std::collections::HashMap;
use std::collections::VecDeque;

use pythia_sim::PageId;

use crate::btree::NodeKind;
use crate::catalog::{Database, ObjectId, TableId};
use crate::expr::Pred;
use crate::heap::RecordId;
use crate::plan::{AggFunc, PlanNode};
use crate::trace::{AccessKind, Trace, TraceEvent};
use crate::tuple::{self, Tuple};
use crate::types::Datum;

/// Execution context: the database plus the trace being recorded.
pub struct ExecContext<'a> {
    pub db: &'a Database,
    trace: Trace,
    cpu_pending: u32,
}

impl<'a> ExecContext<'a> {
    /// Fresh context over `db`.
    pub fn new(db: &'a Database) -> Self {
        ExecContext {
            db,
            trace: Trace::new(),
            cpu_pending: 0,
        }
    }

    /// Record a page request (flushes pending CPU work first so the trace
    /// interleaves CPU and I/O in execution order).
    pub fn record_read(&mut self, obj: ObjectId, page: PageId, kind: AccessKind) {
        if self.cpu_pending > 0 {
            self.trace.push(TraceEvent::Cpu {
                units: self.cpu_pending,
            });
            self.cpu_pending = 0;
        }
        self.trace.push(TraceEvent::Read { obj, page, kind });
    }

    /// Charge `units` tuples of CPU work.
    pub fn charge_cpu(&mut self, units: u32) {
        self.cpu_pending += units;
    }

    /// Finish and take the trace, holding exactly its events: traces outlive
    /// execution by the whole run, the slack of doubling growth would too.
    pub fn into_trace(mut self) -> Trace {
        if self.cpu_pending > 0 {
            self.trace.push(TraceEvent::Cpu {
                units: self.cpu_pending,
            });
        }
        self.trace.events.shrink_to_fit();
        self.trace
    }
}

/// A Volcano operator.
trait Op {
    fn next(&mut self, ctx: &mut ExecContext<'_>) -> Option<Tuple>;
}

/// One tuple examined where it lies on its page: a CPU unit whether or not
/// `pred` keeps it, and only a kept row is decoded.
fn examine(ctx: &mut ExecContext<'_>, record: &[u8], pred: Option<&Pred>) -> Option<Tuple> {
    ctx.charge_cpu(1);
    match pred {
        Some(p) if !p.eval_encoded(record) => None,
        _ => Some(tuple::decode(record)),
    }
}

/// Request the heap page of `rid` and [`examine`] the tuple there.
fn heap_fetch(
    ctx: &mut ExecContext<'_>,
    table: TableId,
    rid: RecordId,
    pred: Option<&Pred>,
) -> Option<Tuple> {
    let db = ctx.db;
    let info = db.table_info(table);
    let pid = PageId::new(info.heap.file, rid.page_no);
    ctx.record_read(info.object, pid, AccessKind::HeapFetch);
    examine(ctx, info.heap.record(&db.disk, rid), pred)
}

struct SeqScanOp {
    table: TableId,
    pred: Option<Pred>,
    /// Pages requested so far: the cursor is on page `page - 1`.
    page: u32,
    total_pages: u32,
    /// Next record of the cursor's page, and how many the page holds.
    slot: u16,
    slots: u16,
}

impl Op for SeqScanOp {
    fn next(&mut self, ctx: &mut ExecContext<'_>) -> Option<Tuple> {
        let db = ctx.db;
        let info = db.table_info(self.table);
        loop {
            while self.slot < self.slots {
                let rid = RecordId {
                    page_no: self.page - 1,
                    slot: self.slot,
                };
                self.slot += 1;
                let record = info.heap.record(&db.disk, rid);
                if let Some(row) = examine(ctx, record, self.pred.as_ref()) {
                    return Some(row);
                }
            }
            if self.page >= self.total_pages {
                return None;
            }
            let pid = PageId::new(info.heap.file, self.page);
            ctx.record_read(info.object, pid, AccessKind::SeqScan);
            self.slots = info.heap.tuples_on_page(&db.disk, self.page);
            self.slot = 0;
            self.page += 1;
        }
    }
}

struct IndexScanOp {
    table: TableId,
    index: ObjectId,
    lo: i64,
    hi: i64,
    residual: Option<Pred>,
    started: bool,
    rids: VecDeque<RecordId>,
}

impl Op for IndexScanOp {
    fn next(&mut self, ctx: &mut ExecContext<'_>) -> Option<Tuple> {
        if !self.started {
            self.started = true;
            let idx = ctx.db.index_info(self.index);
            let obj = idx.object;
            let disk = &ctx.db.disk;
            // Collect visits, then record (can't borrow ctx mutably inside).
            let mut visits: Vec<(PageId, NodeKind)> = Vec::new();
            let matches = idx.btree.range(disk, self.lo, self.hi, &mut |pid, kind| {
                visits.push((pid, kind));
            });
            for (pid, kind) in visits {
                let ak = match kind {
                    NodeKind::Internal => AccessKind::IndexInternal,
                    NodeKind::Leaf => AccessKind::IndexLeaf,
                };
                ctx.record_read(obj, pid, ak);
            }
            self.rids.extend(matches.into_iter().map(|(_, rid)| rid));
        }
        loop {
            let rid = self.rids.pop_front()?;
            if let Some(row) = heap_fetch(ctx, self.table, rid, self.residual.as_ref()) {
                return Some(row);
            }
        }
    }
}

struct IndexNLJoinOp {
    outer: Box<dyn Op>,
    outer_key: usize,
    inner: TableId,
    inner_index: ObjectId,
    inner_pred: Option<Pred>,
    current_outer: Option<Tuple>,
    pending: VecDeque<RecordId>,
}

impl Op for IndexNLJoinOp {
    fn next(&mut self, ctx: &mut ExecContext<'_>) -> Option<Tuple> {
        loop {
            if let Some(rid) = self.pending.pop_front() {
                let Some(inner_row) = heap_fetch(ctx, self.inner, rid, self.inner_pred.as_ref())
                else {
                    continue;
                };
                let mut out = self.current_outer.clone().expect("outer row present");
                out.extend(inner_row);
                return Some(out);
            }
            // Advance the outer side and probe.
            let outer_row = self.outer.next(ctx)?;
            let Some(key) = outer_row[self.outer_key].as_int() else {
                continue;
            };
            let idx = ctx.db.index_info(self.inner_index);
            let obj = idx.object;
            let mut visits: Vec<(PageId, NodeKind)> = Vec::new();
            let rids = idx.btree.search(&ctx.db.disk, key, &mut |pid, kind| {
                visits.push((pid, kind));
            });
            for (pid, kind) in visits {
                let ak = match kind {
                    NodeKind::Internal => AccessKind::IndexInternal,
                    NodeKind::Leaf => AccessKind::IndexLeaf,
                };
                ctx.record_read(obj, pid, ak);
            }
            ctx.charge_cpu(1);
            self.pending.extend(rids);
            self.current_outer = Some(outer_row);
        }
    }
}

struct HashJoinOp {
    build: Box<dyn Op>,
    probe: Box<dyn Op>,
    build_key: usize,
    probe_key: usize,
    table: Option<HashMap<i64, Vec<Tuple>>>,
    pending: VecDeque<Tuple>,
}

impl Op for HashJoinOp {
    fn next(&mut self, ctx: &mut ExecContext<'_>) -> Option<Tuple> {
        if self.table.is_none() {
            let mut table: HashMap<i64, Vec<Tuple>> = HashMap::new();
            while let Some(row) = self.build.next(ctx) {
                if let Some(k) = row[self.build_key].as_int() {
                    table.entry(k).or_default().push(row);
                }
                ctx.charge_cpu(1);
            }
            self.table = Some(table);
        }
        loop {
            if let Some(row) = self.pending.pop_front() {
                return Some(row);
            }
            let probe_row = self.probe.next(ctx)?;
            ctx.charge_cpu(1);
            let Some(k) = probe_row[self.probe_key].as_int() else {
                continue;
            };
            if let Some(matches) = self.table.as_ref().expect("built").get(&k) {
                for m in matches {
                    let mut out = probe_row.clone();
                    out.extend(m.iter().cloned());
                    self.pending.push_back(out);
                }
            }
        }
    }
}

struct FilterOp {
    input: Box<dyn Op>,
    pred: Pred,
}

impl Op for FilterOp {
    fn next(&mut self, ctx: &mut ExecContext<'_>) -> Option<Tuple> {
        loop {
            let row = self.input.next(ctx)?;
            ctx.charge_cpu(1);
            if self.pred.eval(&row) {
                return Some(row);
            }
        }
    }
}

struct AggregateOp {
    input: Box<dyn Op>,
    group_col: Option<usize>,
    agg: AggFunc,
    done: bool,
    output: VecDeque<Tuple>,
}

impl AggregateOp {
    fn fold(agg: AggFunc, acc: &mut i64, row: &Tuple) {
        match agg {
            AggFunc::CountStar => *acc += 1,
            AggFunc::Sum(c) => *acc += row[c].as_int().unwrap_or(0),
            AggFunc::Min(c) => {
                if let Some(v) = row[c].as_int() {
                    *acc = (*acc).min(v);
                }
            }
            AggFunc::Max(c) => {
                if let Some(v) = row[c].as_int() {
                    *acc = (*acc).max(v);
                }
            }
        }
    }

    fn init(agg: AggFunc) -> i64 {
        match agg {
            AggFunc::CountStar | AggFunc::Sum(_) => 0,
            AggFunc::Min(_) => i64::MAX,
            AggFunc::Max(_) => i64::MIN,
        }
    }
}

impl Op for AggregateOp {
    fn next(&mut self, ctx: &mut ExecContext<'_>) -> Option<Tuple> {
        if !self.done {
            self.done = true;
            match self.group_col {
                None => {
                    let mut acc = Self::init(self.agg);
                    let mut any = false;
                    while let Some(row) = self.input.next(ctx) {
                        any = true;
                        Self::fold(self.agg, &mut acc, &row);
                        ctx.charge_cpu(1);
                    }
                    // SQL: a non-grouped aggregate always yields one row;
                    // MIN/MAX/SUM of the empty set are NULL, COUNT is 0.
                    let out = if any || matches!(self.agg, AggFunc::CountStar) {
                        Datum::Int(acc)
                    } else {
                        Datum::Null
                    };
                    self.output.push_back(vec![out]);
                }
                Some(g) => {
                    let mut groups: HashMap<i64, i64> = HashMap::new();
                    while let Some(row) = self.input.next(ctx) {
                        let k = row[g].as_int().unwrap_or(i64::MIN);
                        let acc = groups.entry(k).or_insert_with(|| Self::init(self.agg));
                        Self::fold(self.agg, acc, &row);
                        ctx.charge_cpu(1);
                    }
                    let mut pairs: Vec<_> = groups.into_iter().collect();
                    pairs.sort_unstable();
                    for (k, v) in pairs {
                        self.output.push_back(vec![Datum::Int(k), Datum::Int(v)]);
                    }
                }
            }
        }
        self.output.pop_front()
    }
}

struct SortOp {
    input: Box<dyn Op>,
    col: usize,
    done: bool,
    output: VecDeque<Tuple>,
}

impl Op for SortOp {
    fn next(&mut self, ctx: &mut ExecContext<'_>) -> Option<Tuple> {
        if !self.done {
            self.done = true;
            let mut rows = Vec::new();
            while let Some(r) = self.input.next(ctx) {
                ctx.charge_cpu(1);
                rows.push(r);
            }
            let col = self.col;
            rows.sort_by(|a, b| a[col].cmp(&b[col]));
            self.output.extend(rows);
        }
        self.output.pop_front()
    }
}

struct LimitOp {
    input: Box<dyn Op>,
    remaining: usize,
}

impl Op for LimitOp {
    fn next(&mut self, ctx: &mut ExecContext<'_>) -> Option<Tuple> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.input.next(ctx)
    }
}

fn build_op(plan: &PlanNode, db: &Database) -> Box<dyn Op> {
    match plan {
        PlanNode::SeqScan { table, pred } => Box::new(SeqScanOp {
            table: *table,
            pred: pred.clone(),
            page: 0,
            total_pages: db.table_info(*table).heap.page_count(&db.disk),
            slot: 0,
            slots: 0,
        }),
        PlanNode::IndexScan {
            table,
            index,
            lo,
            hi,
            residual,
        } => Box::new(IndexScanOp {
            table: *table,
            index: *index,
            lo: *lo,
            hi: *hi,
            residual: residual.clone(),
            started: false,
            rids: VecDeque::new(),
        }),
        PlanNode::IndexNLJoin {
            outer,
            outer_key,
            inner,
            inner_index,
            inner_pred,
        } => Box::new(IndexNLJoinOp {
            outer: build_op(outer, db),
            outer_key: *outer_key,
            inner: *inner,
            inner_index: *inner_index,
            inner_pred: inner_pred.clone(),
            current_outer: None,
            pending: VecDeque::new(),
        }),
        PlanNode::HashJoin {
            build,
            probe,
            build_key,
            probe_key,
        } => Box::new(HashJoinOp {
            build: build_op(build, db),
            probe: build_op(probe, db),
            build_key: *build_key,
            probe_key: *probe_key,
            table: None,
            pending: VecDeque::new(),
        }),
        PlanNode::Filter { input, pred } => Box::new(FilterOp {
            input: build_op(input, db),
            pred: pred.clone(),
        }),
        PlanNode::Aggregate {
            input,
            group_col,
            agg,
        } => Box::new(AggregateOp {
            input: build_op(input, db),
            group_col: *group_col,
            agg: *agg,
            done: false,
            output: VecDeque::new(),
        }),
        PlanNode::Sort { input, col } => Box::new(SortOp {
            input: build_op(input, db),
            col: *col,
            done: false,
            output: VecDeque::new(),
        }),
        PlanNode::Limit { input, n } => Box::new(LimitOp {
            input: build_op(input, db),
            remaining: *n,
        }),
    }
}

/// Execute `plan` against `db`, returning the result rows and the recorded
/// page-access trace.
pub fn execute(plan: &PlanNode, db: &Database) -> (Vec<Tuple>, Trace) {
    let mut ctx = ExecContext::new(db);
    let mut op = build_op(plan, db);
    let mut rows = Vec::new();
    while let Some(r) = op.next(&mut ctx) {
        rows.push(r);
    }
    (rows, ctx.into_trace())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::types::Schema;

    /// fact(k, dkey): 2000 rows, dkey = k % 100.
    /// dim(id, attr): 100 rows, attr = id * 3, indexed on id.
    fn star_db() -> (Database, TableId, TableId, ObjectId) {
        let mut db = Database::new();
        let fact = db.create_table("fact", Schema::ints(&["k", "dkey"]));
        let dim = db.create_table("dim", Schema::ints(&["id", "attr"]));
        for i in 0..2000 {
            db.insert(fact, Database::row(&[i, i % 100]));
        }
        for i in 0..100 {
            db.insert(dim, Database::row(&[i, i * 3]));
        }
        let idx = db.create_index("dim_id", dim, 0);
        (db, fact, dim, idx)
    }

    #[test]
    fn seq_scan_returns_all_rows() {
        let (db, fact, _, _) = star_db();
        let (rows, trace) = execute(
            &PlanNode::SeqScan {
                table: fact,
                pred: None,
            },
            &db,
        );
        assert_eq!(rows.len(), 2000);
        let pages = db.table_info(fact).heap.page_count(&db.disk);
        assert_eq!(trace.read_count(), pages as usize);
        assert_eq!(trace.sequential_reads(), pages as usize);
    }

    #[test]
    fn seq_scan_filter() {
        let (db, fact, _, _) = star_db();
        let plan = PlanNode::SeqScan {
            table: fact,
            pred: Some(Pred::Cmp {
                col: 1,
                op: CmpOp::Eq,
                lit: 7,
            }),
        };
        let (rows, _) = execute(&plan, &db);
        assert_eq!(rows.len(), 20); // 2000/100
        assert!(rows.iter().all(|r| r[1] == Datum::Int(7)));
    }

    #[test]
    fn filtered_seq_scan_charges_every_tuple_and_decodes_the_survivors() {
        let (db, fact, _, _) = star_db();
        let pred = Pred::And(vec![
            Pred::Between {
                col: 0,
                lo: 40,
                hi: 1700,
            },
            Pred::In {
                col: 1,
                set: vec![7, 41, 99],
            },
        ]);
        let (rows, trace) = execute(
            &PlanNode::SeqScan {
                table: fact,
                pred: Some(pred.clone()),
            },
            &db,
        );
        // The reference decodes the whole page, then looks at the predicate.
        let info = db.table_info(fact);
        let mut expect_rows = Vec::new();
        let mut expect_trace = Vec::new();
        for p in 0..info.heap.page_count(&db.disk) {
            let page = info.heap.read_page(&db.disk, p);
            expect_trace.push(TraceEvent::Read {
                obj: info.object,
                page: PageId::new(info.heap.file, p),
                kind: AccessKind::SeqScan,
            });
            // One unit per tuple examined, survivor or not.
            expect_trace.push(TraceEvent::Cpu {
                units: page.len() as u32,
            });
            expect_rows.extend(page.into_iter().map(|(_, t)| t).filter(|t| pred.eval(t)));
        }
        assert_eq!(expect_rows.len(), 50);
        assert_eq!(rows, expect_rows);
        assert_eq!(trace.iter().collect::<Vec<_>>(), expect_trace);
    }

    #[test]
    fn limit_mid_page_charges_only_the_tuples_pulled() {
        let (db, fact, _, _) = star_db();
        let per_page = db.table_info(fact).heap.tuples_on_page(&db.disk, 0) as i64;
        // The third survivor is row 12 of the second page.
        let third = per_page + 12;
        let plan = PlanNode::Limit {
            input: Box::new(PlanNode::SeqScan {
                table: fact,
                pred: Some(Pred::In {
                    col: 0,
                    set: vec![3, per_page - 1, third, third + 1],
                }),
            }),
            n: 3,
        };
        let (rows, trace) = execute(&plan, &db);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2][0], Datum::Int(third));
        let events: Vec<_> = trace.iter().collect();
        assert_eq!(events.len(), 4, "{events:?}");
        assert_eq!(
            (events[1], events[3]),
            (
                TraceEvent::Cpu {
                    units: per_page as u32
                },
                TraceEvent::Cpu { units: 13 }
            )
        );
    }

    #[test]
    fn index_scan_range() {
        let (db, dim, _, _) = {
            let (db, _f, d, i) = star_db();
            (db, d, d, i)
        };
        let idx = db.index_on(dim, 0).unwrap().object;
        let plan = PlanNode::IndexScan {
            table: dim,
            index: idx,
            lo: 10,
            hi: 19,
            residual: None,
        };
        let (rows, trace) = execute(&plan, &db);
        assert_eq!(rows.len(), 10);
        // Index pages + heap fetches, all non-sequential.
        assert_eq!(trace.sequential_reads(), 0);
        assert!(trace.read_count() >= 11);
    }

    #[test]
    fn index_nl_join_matches_hash_join() {
        let (db, fact, dim, idx) = star_db();
        let nlj = PlanNode::IndexNLJoin {
            outer: Box::new(PlanNode::SeqScan {
                table: fact,
                pred: Some(Pred::Cmp {
                    col: 0,
                    op: CmpOp::Lt,
                    lit: 500,
                }),
            }),
            outer_key: 1,
            inner: dim,
            inner_index: idx,
            inner_pred: None,
        };
        let hj = PlanNode::HashJoin {
            build: Box::new(PlanNode::SeqScan {
                table: dim,
                pred: None,
            }),
            probe: Box::new(PlanNode::SeqScan {
                table: fact,
                pred: Some(Pred::Cmp {
                    col: 0,
                    op: CmpOp::Lt,
                    lit: 500,
                }),
            }),
            build_key: 0,
            probe_key: 1,
        };
        let (mut r1, t1) = execute(&nlj, &db);
        let (mut r2, _) = execute(&hj, &db);
        r1.sort();
        r2.sort();
        assert_eq!(r1.len(), 500);
        assert_eq!(r1, r2, "both joins emit outer/probe ++ inner/build");
        // NLJ probes are non-sequential; the fact scan is sequential.
        assert!(t1.sequential_reads() > 0);
        assert!(t1.read_count() > t1.sequential_reads());
    }

    #[test]
    fn nl_join_trace_interleaves_seq_and_probes() {
        let (db, fact, dim, idx) = star_db();
        let plan = PlanNode::IndexNLJoin {
            outer: Box::new(PlanNode::SeqScan {
                table: fact,
                pred: None,
            }),
            outer_key: 1,
            inner: dim,
            inner_index: idx,
            inner_pred: None,
        };
        let (_, trace) = execute(&plan, &db);
        // Find a SeqScan read that appears *after* some index read: proves
        // pipelined interleaving rather than phase-by-phase execution.
        let mut seen_index = false;
        let mut interleaved = false;
        for e in trace.iter() {
            if let TraceEvent::Read { kind, .. } = e {
                match kind {
                    AccessKind::IndexInternal | AccessKind::IndexLeaf => seen_index = true,
                    AccessKind::SeqScan if seen_index => {
                        interleaved = true;
                        break;
                    }
                    _ => {}
                }
            }
        }
        assert!(interleaved, "fact pages must interleave with dim probes");
    }

    #[test]
    fn aggregate_count() {
        let (db, fact, _, _) = star_db();
        let plan = PlanNode::Aggregate {
            input: Box::new(PlanNode::SeqScan {
                table: fact,
                pred: None,
            }),
            group_col: None,
            agg: AggFunc::CountStar,
        };
        let (rows, _) = execute(&plan, &db);
        assert_eq!(rows, vec![vec![Datum::Int(2000)]]);
    }

    #[test]
    fn aggregate_grouped_sum() {
        let (db, fact, _, _) = star_db();
        let plan = PlanNode::Aggregate {
            input: Box::new(PlanNode::SeqScan {
                table: fact,
                pred: Some(Pred::Cmp {
                    col: 1,
                    op: CmpOp::Lt,
                    lit: 2,
                }),
            }),
            group_col: Some(1),
            agg: AggFunc::CountStar,
        };
        let (rows, _) = execute(&plan, &db);
        assert_eq!(
            rows,
            vec![
                vec![Datum::Int(0), Datum::Int(20)],
                vec![Datum::Int(1), Datum::Int(20)]
            ]
        );
    }

    #[test]
    fn sort_and_limit() {
        let (db, fact, _, _) = star_db();
        let plan = PlanNode::Limit {
            input: Box::new(PlanNode::Sort {
                input: Box::new(PlanNode::SeqScan {
                    table: fact,
                    pred: None,
                }),
                col: 1,
            }),
            n: 5,
        };
        let (rows, _) = execute(&plan, &db);
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|r| r[1] == Datum::Int(0)));
    }

    #[test]
    fn min_max_aggregates() {
        let (db, fact, _, _) = star_db();
        for (agg, expect) in [(AggFunc::Min(0), 0i64), (AggFunc::Max(0), 1999)] {
            let plan = PlanNode::Aggregate {
                input: Box::new(PlanNode::SeqScan {
                    table: fact,
                    pred: None,
                }),
                group_col: None,
                agg,
            };
            let (rows, _) = execute(&plan, &db);
            assert_eq!(rows, vec![vec![Datum::Int(expect)]]);
        }
    }

    #[test]
    fn filter_node() {
        let (db, fact, _, _) = star_db();
        let plan = PlanNode::Filter {
            input: Box::new(PlanNode::SeqScan {
                table: fact,
                pred: None,
            }),
            pred: Pred::Between {
                col: 0,
                lo: 100,
                hi: 109,
            },
        };
        let (rows, _) = execute(&plan, &db);
        assert_eq!(rows.len(), 10);
    }

    #[test]
    fn index_scan_residual_filter() {
        let (db, _, dim, idx) = star_db();
        let plan = PlanNode::IndexScan {
            table: dim,
            index: idx,
            lo: 0,
            hi: 49,
            residual: Some(Pred::Cmp {
                col: 1,
                op: CmpOp::Ge,
                lit: 90,
            }),
        };
        let (rows, trace) = execute(&plan, &db);
        // dim attr = id*3; ids 0..=49 with attr >= 90 -> ids 30..=49.
        assert_eq!(rows.len(), 20);
        assert!(rows.iter().all(|r| r[1].as_int().unwrap() >= 90));
        // Heap pages for *all* 50 ids were still fetched (residual applies
        // after the read) — the paper's point that predicates don't reduce
        // heap I/O for index scans.
        let heap_fetches = trace
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TraceEvent::Read {
                        kind: AccessKind::HeapFetch,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(heap_fetches, 50);
    }

    #[test]
    fn limit_stops_scanning_early() {
        let (db, fact, _, _) = star_db();
        let full = execute(
            &PlanNode::SeqScan {
                table: fact,
                pred: None,
            },
            &db,
        )
        .1;
        let limited = execute(
            &PlanNode::Limit {
                input: Box::new(PlanNode::SeqScan {
                    table: fact,
                    pred: None,
                }),
                n: 5,
            },
            &db,
        )
        .1;
        assert!(
            limited.read_count() < full.read_count(),
            "LIMIT must not scan the whole table"
        );
        assert_eq!(limited.read_count(), 1, "5 rows fit in the first page");
    }

    #[test]
    fn empty_index_range_reads_only_index_pages() {
        let (db, _, dim, idx) = star_db();
        let plan = PlanNode::IndexScan {
            table: dim,
            index: idx,
            lo: 1000,
            hi: 2000,
            residual: None,
        };
        let (rows, trace) = execute(&plan, &db);
        assert!(rows.is_empty());
        assert!(trace.iter().all(|e| !matches!(
            e,
            TraceEvent::Read {
                kind: AccessKind::HeapFetch,
                ..
            }
        )));
    }

    #[test]
    fn trace_has_cpu_events() {
        let (db, fact, _, _) = star_db();
        let (_, trace) = execute(
            &PlanNode::SeqScan {
                table: fact,
                pred: None,
            },
            &db,
        );
        assert!(trace.cpu_units() >= 2000, "at least one unit per tuple");
    }

    #[test]
    fn executed_trace_holds_exactly_its_events() {
        let (db, fact, dim, idx) = star_db();
        let plan = PlanNode::IndexNLJoin {
            outer: Box::new(PlanNode::SeqScan {
                table: fact,
                pred: None,
            }),
            outer_key: 1,
            inner: dim,
            inner_index: idx,
            inner_pred: None,
        };
        let (_, trace) = execute(&plan, &db);
        // Thousands of pushes, and not a length doubling growth stops at.
        assert!(trace.events.len() > 2000 && !trace.events.len().is_power_of_two());
        assert_eq!(trace.events.capacity(), trace.events.len());
    }
}
