//! Parameterized query templates: analogs of DSB templates 18, 19 and 91 and
//! the IMDB/CEB template 1a the paper evaluates (§5.1).
//!
//! Each template is an SPJ+aggregate star join: a sequentially scanned fact
//! filtered by parameterized predicates drives index probes into dimension
//! tables, with at least one dimension hash-joined (sequentially scanned) —
//! exactly the plan shape the paper describes for Postgres on DSB.
//!
//! Parameter values are sampled uniformly (the paper uses DSB's standard
//! uniform generator). Like a real optimizer, the plan *shape* depends on
//! parameter selectivities (e.g. a very wide date range flips a nested-loop
//! probe into a hash join), which yields the several "distinct query plans
//! per workload" of Table 1.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pythia_db::catalog::ObjectId;
use pythia_db::expr::{CmpOp, Pred};
use pythia_db::plan::{AggFunc, PlanNode};

use crate::schema::BenchmarkDb;

/// The four workload templates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Template {
    /// DSB template 18 analog: store_sales ⋈ customer ⋈ customer_demographics
    /// ⋈ household_demographics ⋈ item ⋈ date_dim (6 relations, 4
    /// index-probed).
    T18,
    /// DSB template 19 analog: store_sales ⋈ item ⋈ customer ⋈
    /// customer_address ⋈ store ⋈ date_dim (6 relations, 4 index-probed).
    T19,
    /// DSB template 91 analog: catalog_returns ⋈ customer ⋈
    /// customer_demographics ⋈ household_demographics ⋈ customer_address ⋈
    /// call_center ⋈ date_dim (7 relations, 5 index-probed).
    T91,
    /// IMDB/CEB template 1a analog: title ⋈ cast_info ⋈ movie_companies ⋈
    /// company_type; only `cast_info` is prefetched, as in the paper.
    Imdb1a,
}

impl Template {
    /// All templates, DSB ones first.
    pub const ALL: [Template; 4] = [
        Template::T18,
        Template::T19,
        Template::T91,
        Template::Imdb1a,
    ];

    /// The three DSB templates used in most experiments.
    pub const DSB: [Template; 3] = [Template::T18, Template::T19, Template::T91];

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Template::T18 => "Template 18",
            Template::T19 => "Template 19",
            Template::T91 => "Template 91",
            Template::Imdb1a => "IMDB Template 1a",
        }
    }

    /// Trace span name for replays of this template's queries. Event names
    /// must be `&'static str`, so each template carries its own literal —
    /// Perfetto then groups repeated instances of a template together
    /// instead of scattering them across anonymous query indexes.
    pub fn replay_span(&self) -> &'static str {
        match self {
            Template::T18 => "query.replay.T18",
            Template::T19 => "query.replay.T19",
            Template::T91 => "query.replay.T91",
            Template::Imdb1a => "query.replay.imdb1a",
        }
    }

    /// Objects Pythia should build models for / prefetch on this template.
    /// `None` means every non-sequentially accessed object; the paper limits
    /// IMDB 1a to `cast_info` ("we only prefetch the table cast_info").
    pub fn prefetch_objects(&self, b: &BenchmarkDb) -> Option<Vec<ObjectId>> {
        match self {
            Template::Imdb1a => Some(vec![b.db.table_info(b.cast_info).object, b.idx_cast_movie]),
            _ => None,
        }
    }
}

impl std::fmt::Display for Template {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A sampled query: the template it came from plus its physical plan.
#[derive(Debug, Clone)]
pub struct QueryInstance {
    pub template: Template,
    pub plan: PlanNode,
}

fn pick_distinct(rng: &mut StdRng, n: i64, k: usize) -> Vec<i64> {
    let mut vals: Vec<i64> = Vec::with_capacity(k);
    while vals.len() < k.min(n as usize) {
        let v = rng.gen_range(0..n);
        if !vals.contains(&v) {
            vals.push(v);
        }
    }
    vals.sort_unstable();
    vals
}

fn sample_t18(b: &BenchmarkDb, rng: &mut StdRng) -> PlanNode {
    // Date range confined to one year so the date_dim hash join (on d_year)
    // agrees with the fact range.
    let width = rng.gen_range(40..=300);
    let year_idx = rng.gen_range(0..(b.n_dates / 365));
    let year_start = year_idx * 365;
    let d0 = year_start + rng.gen_range(0..(365 - width.min(364)).max(1));
    let d1 = (d0 + width).min(year_start + 364);
    let year = 2000 + year_idx;
    let q0 = rng.gen_range(0..50);
    let q1 = q0 + 50;
    let months = pick_distinct(rng, 12, 3)
        .iter()
        .map(|m| m + 1)
        .collect::<Vec<_>>();
    let edu = rng.gen_range(0..7);
    let incomes = pick_distinct(rng, 20, 5);
    let n_cats = rng.gen_range(1..=3usize);
    let cats = pick_distinct(rng, 10, n_cats);

    let fact = PlanNode::SeqScan {
        table: b.store_sales,
        pred: Some(Pred::And(vec![
            Pred::Between {
                col: 1,
                lo: d0,
                hi: d1,
            },
            Pred::Between {
                col: 7,
                lo: q0,
                hi: q1,
            },
        ])),
    };

    // Optimizer-style shape decisions.
    let customer_hash = width > 240; // very wide range: hash join the customer dim
    let item_first = n_cats == 1; // very selective item filter: probe it early

    let join_customer = |outer: PlanNode| -> PlanNode {
        let pred = Pred::In {
            col: 4,
            set: months.clone(),
        };
        if customer_hash {
            PlanNode::HashJoin {
                build: Box::new(PlanNode::SeqScan {
                    table: b.customer,
                    pred: Some(pred),
                }),
                probe: Box::new(outer),
                build_key: 0,
                probe_key: 2,
            }
        } else {
            PlanNode::IndexNLJoin {
                outer: Box::new(outer),
                outer_key: 2,
                inner: b.customer,
                inner_index: b.idx_customer,
                inner_pred: Some(pred),
            }
        }
    };
    let join_item = |outer: PlanNode| PlanNode::IndexNLJoin {
        outer: Box::new(outer),
        outer_key: 5,
        inner: b.item,
        inner_index: b.idx_item,
        inner_pred: Some(Pred::In {
            col: 1,
            set: cats.clone(),
        }),
    };
    let join_cdemo = |outer: PlanNode| PlanNode::IndexNLJoin {
        outer: Box::new(outer),
        outer_key: 3,
        inner: b.customer_demographics,
        inner_index: b.idx_cdemo,
        inner_pred: Some(Pred::Cmp {
            col: 3,
            op: CmpOp::Eq,
            lit: edu,
        }),
    };
    let join_hdemo = |outer: PlanNode| PlanNode::IndexNLJoin {
        outer: Box::new(outer),
        outer_key: 4,
        inner: b.household_demographics,
        inner_index: b.idx_hdemo,
        inner_pred: Some(Pred::In {
            col: 1,
            set: incomes.clone(),
        }),
    };

    let joined = if item_first {
        let x = join_item(fact);
        let x = join_customer(x);
        let x = join_cdemo(x);
        join_hdemo(x)
    } else {
        let x = join_customer(fact);
        let x = join_cdemo(x);
        let x = join_hdemo(x);
        join_item(x)
    };

    let hj = PlanNode::HashJoin {
        build: Box::new(PlanNode::SeqScan {
            table: b.date_dim,
            pred: Some(Pred::Cmp {
                col: 1,
                op: CmpOp::Eq,
                lit: year,
            }),
        }),
        probe: Box::new(joined),
        build_key: 0,
        probe_key: 1,
    };
    PlanNode::Aggregate {
        input: Box::new(hj),
        group_col: None,
        agg: AggFunc::CountStar,
    }
}

fn sample_t19(b: &BenchmarkDb, rng: &mut StdRng) -> PlanNode {
    let width = rng.gen_range(40..=250);
    let year_idx = rng.gen_range(0..(b.n_dates / 365));
    let year_start = year_idx * 365;
    let d0 = year_start + rng.gen_range(0..(365 - width.min(364)).max(1));
    let d1 = (d0 + width).min(year_start + 364);
    let year = 2000 + year_idx;
    let price = rng.gen_range(100..600);
    let n_brands = rng.gen_range(2..=6usize);
    let brands = pick_distinct(rng, 100, n_brands);
    let states = pick_distinct(rng, 50, 8);
    let market = rng.gen_range(0..10);

    let fact = PlanNode::SeqScan {
        table: b.store_sales,
        pred: Some(Pred::And(vec![
            Pred::Between {
                col: 1,
                lo: d0,
                hi: d1,
            },
            Pred::Cmp {
                col: 8,
                op: CmpOp::Ge,
                lit: price,
            },
        ])),
    };

    let item_pred = Pred::In {
        col: 2,
        set: brands.clone(),
    };
    let j1 = if n_brands >= 4 {
        // Loose brand filter: hash-join item instead of probing.
        PlanNode::HashJoin {
            build: Box::new(PlanNode::SeqScan {
                table: b.item,
                pred: Some(item_pred),
            }),
            probe: Box::new(fact),
            build_key: 0,
            probe_key: 5,
        }
    } else {
        PlanNode::IndexNLJoin {
            outer: Box::new(fact),
            outer_key: 5,
            inner: b.item,
            inner_index: b.idx_item,
            inner_pred: Some(item_pred),
        }
    };
    // out: fact 0-8, item 9-12
    let j2 = PlanNode::IndexNLJoin {
        outer: Box::new(j1),
        outer_key: 2,
        inner: b.customer,
        inner_index: b.idx_customer,
        inner_pred: None,
    };
    // customer at 13-18; c_addr_sk = col 16
    let j3 = PlanNode::IndexNLJoin {
        outer: Box::new(j2),
        outer_key: 16,
        inner: b.customer_address,
        inner_index: b.idx_caddr,
        inner_pred: Some(Pred::In {
            col: 1,
            set: states,
        }),
    };
    // ca at 19-21
    let j4 = PlanNode::IndexNLJoin {
        outer: Box::new(j3),
        outer_key: 6,
        inner: b.store,
        inner_index: b.idx_store,
        inner_pred: Some(Pred::Cmp {
            col: 2,
            op: CmpOp::Eq,
            lit: market,
        }),
    };
    let hj = PlanNode::HashJoin {
        build: Box::new(PlanNode::SeqScan {
            table: b.date_dim,
            pred: Some(Pred::Cmp {
                col: 1,
                op: CmpOp::Eq,
                lit: year,
            }),
        }),
        probe: Box::new(j4),
        build_key: 0,
        probe_key: 1,
    };
    PlanNode::Aggregate {
        input: Box::new(hj),
        group_col: None,
        agg: AggFunc::Sum(8),
    }
}

fn sample_t91(b: &BenchmarkDb, rng: &mut StdRng) -> PlanNode {
    let width = rng.gen_range(60..=500);
    let d0 = rng.gen_range(0..(b.n_dates - width));
    let d1 = d0 + width;
    let amount = rng.gen_range(50..300);
    let gender = rng.gen_range(0..2);
    let incomes = pick_distinct(rng, 20, 6);
    let states = pick_distinct(rng, 50, 10);
    let class = rng.gen_range(0..3);

    let fact = PlanNode::SeqScan {
        table: b.catalog_returns,
        pred: Some(Pred::And(vec![
            Pred::Between {
                col: 1,
                lo: d0,
                hi: d1,
            },
            Pred::Cmp {
                col: 5,
                op: CmpOp::Ge,
                lit: amount,
            },
        ])),
    };
    let j1 = PlanNode::IndexNLJoin {
        outer: Box::new(fact),
        outer_key: 2,
        inner: b.customer,
        inner_index: b.idx_customer,
        inner_pred: None,
    };
    // customer at 6-11
    let j2 = PlanNode::IndexNLJoin {
        outer: Box::new(j1),
        outer_key: 7, // c_cdemo_sk
        inner: b.customer_demographics,
        inner_index: b.idx_cdemo,
        inner_pred: Some(Pred::Cmp {
            col: 1,
            op: CmpOp::Eq,
            lit: gender,
        }),
    };
    // cd at 12-16
    let j3 = PlanNode::IndexNLJoin {
        outer: Box::new(j2),
        outer_key: 8, // c_hdemo_sk
        inner: b.household_demographics,
        inner_index: b.idx_hdemo,
        inner_pred: Some(Pred::In {
            col: 1,
            set: incomes,
        }),
    };
    // hd at 17-20
    let ca_pred = Pred::In {
        col: 1,
        set: states,
    };
    let j4 = if width > 200 {
        PlanNode::HashJoin {
            build: Box::new(PlanNode::SeqScan {
                table: b.customer_address,
                pred: Some(ca_pred),
            }),
            probe: Box::new(j3),
            build_key: 0,
            probe_key: 9, // c_addr_sk
        }
    } else {
        PlanNode::IndexNLJoin {
            outer: Box::new(j3),
            outer_key: 9,
            inner: b.customer_address,
            inner_index: b.idx_caddr,
            inner_pred: Some(ca_pred),
        }
    };
    // ca at 21-23
    let j5 = PlanNode::IndexNLJoin {
        outer: Box::new(j4),
        outer_key: 3, // cr_call_center_sk
        inner: b.call_center,
        inner_index: b.idx_cc,
        inner_pred: Some(Pred::Cmp {
            col: 1,
            op: CmpOp::Eq,
            lit: class,
        }),
    };
    let hj = PlanNode::HashJoin {
        build: Box::new(PlanNode::SeqScan {
            table: b.date_dim,
            pred: None,
        }),
        probe: Box::new(j5),
        build_key: 0,
        probe_key: 1,
    };
    PlanNode::Aggregate {
        input: Box::new(hj),
        group_col: None,
        agg: AggFunc::Sum(5),
    }
}

fn sample_imdb1a(b: &BenchmarkDb, rng: &mut StdRng) -> PlanNode {
    let width = rng.gen_range(2..=20);
    let y0 = 1920 + rng.gen_range(0..(100 - width));
    let y1 = y0 + width;
    let n_kinds = rng.gen_range(1..=3usize);
    let kinds = pick_distinct(rng, 7, n_kinds);
    let role = rng.gen_range(0..11);
    let ct_kind = rng.gen_range(0..4);

    let title = PlanNode::SeqScan {
        table: b.title,
        pred: Some(Pred::And(vec![
            Pred::Between {
                col: 1,
                lo: y0,
                hi: y1,
            },
            Pred::In { col: 2, set: kinds },
        ])),
    };
    let j1 = PlanNode::IndexNLJoin {
        outer: Box::new(title),
        outer_key: 0,
        inner: b.cast_info,
        inner_index: b.idx_cast_movie,
        inner_pred: Some(Pred::Cmp {
            col: 3,
            op: CmpOp::Eq,
            lit: role,
        }),
    };
    // cast_info at 3-6
    let j2 = if width > 12 {
        PlanNode::HashJoin {
            build: Box::new(PlanNode::SeqScan {
                table: b.movie_companies,
                pred: None,
            }),
            probe: Box::new(j1),
            build_key: 1,
            probe_key: 0,
        }
    } else {
        PlanNode::IndexNLJoin {
            outer: Box::new(j1),
            outer_key: 0,
            inner: b.movie_companies,
            inner_index: b.idx_mc_movie,
            inner_pred: None,
        }
    };
    // movie_companies at 7-10
    let ct_pred = Pred::Cmp {
        col: 1,
        op: CmpOp::Eq,
        lit: ct_kind,
    };
    let j3 = if n_kinds == 1 {
        PlanNode::HashJoin {
            build: Box::new(PlanNode::SeqScan {
                table: b.company_type,
                pred: Some(ct_pred),
            }),
            probe: Box::new(j2),
            build_key: 0,
            probe_key: 10, // mc_company_type_id
        }
    } else {
        PlanNode::IndexNLJoin {
            outer: Box::new(j2),
            outer_key: 10,
            inner: b.company_type,
            inner_index: b.idx_ct,
            inner_pred: Some(ct_pred),
        }
    };
    PlanNode::Aggregate {
        input: Box::new(j3),
        group_col: None,
        agg: AggFunc::CountStar,
    }
}

/// Sample one query instance from `template`.
pub fn sample_query(b: &BenchmarkDb, template: Template, rng: &mut StdRng) -> QueryInstance {
    let plan = match template {
        Template::T18 => sample_t18(b, rng),
        Template::T19 => sample_t19(b, rng),
        Template::T91 => sample_t91(b, rng),
        Template::Imdb1a => sample_imdb1a(b, rng),
    };
    QueryInstance { template, plan }
}

/// Sample a whole workload (the paper's "workload" = many instances of one
/// template).
pub fn sample_workload(
    b: &BenchmarkDb,
    template: Template,
    n: usize,
    seed: u64,
) -> Vec<QueryInstance> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| sample_query(b, template, &mut rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{build_benchmark, GeneratorConfig};
    use pythia_db::exec::execute;
    use pythia_db::trace::AccessKind;
    use pythia_db::trace::TraceEvent;

    fn bench() -> BenchmarkDb {
        build_benchmark(&GeneratorConfig {
            scale: 0.08,
            seed: 2,
        })
    }

    #[test]
    fn every_template_executes() {
        let b = bench();
        let mut rng = StdRng::seed_from_u64(5);
        for t in Template::ALL {
            let q = sample_query(&b, t, &mut rng);
            let (rows, trace) = execute(&q.plan, &b.db);
            assert!(!rows.is_empty(), "{t}: aggregate always returns one row");
            assert!(trace.read_count() > 0, "{t}: no page reads");
        }
    }

    #[test]
    fn dsb_templates_mix_seq_and_nonseq() {
        let b = bench();
        let mut rng = StdRng::seed_from_u64(6);
        for t in Template::DSB {
            let q = sample_query(&b, t, &mut rng);
            let (_, trace) = execute(&q.plan, &b.db);
            assert!(trace.sequential_reads() > 0, "{t}: fact scan missing");
            assert!(
                trace.read_count() > trace.sequential_reads(),
                "{t}: no non-sequential reads"
            );
            assert!(
                trace.distinct_non_sequential() > 10,
                "{t}: too few distinct non-seq pages"
            );
        }
    }

    #[test]
    fn workload_is_deterministic() {
        let b = bench();
        let w1 = sample_workload(&b, Template::T18, 5, 9);
        let w2 = sample_workload(&b, Template::T18, 5, 9);
        for (a, c) in w1.iter().zip(&w2) {
            assert_eq!(a.plan, c.plan);
        }
    }

    #[test]
    fn workload_has_varied_params() {
        let b = bench();
        let w = sample_workload(&b, Template::T18, 10, 11);
        let distinct: std::collections::HashSet<String> =
            w.iter().map(|q| format!("{:?}", q.plan)).collect();
        assert!(
            distinct.len() >= 9,
            "parameters should differ across instances"
        );
    }

    #[test]
    fn templates_produce_multiple_plan_shapes() {
        let b = bench();
        let w = sample_workload(&b, Template::T18, 60, 3);
        let shapes: std::collections::HashSet<String> =
            w.iter().map(crate::stats::plan_shape).collect();
        assert!(
            shapes.len() >= 2,
            "expected multiple plan shapes, got {}",
            shapes.len()
        );
    }

    #[test]
    fn imdb_nonseq_concentrates_on_cast_info() {
        let b = bench();
        let mut rng = StdRng::seed_from_u64(8);
        let q = sample_query(&b, Template::Imdb1a, &mut rng);
        let (_, trace) = execute(&q.plan, &b.db);
        let sets = trace.non_sequential_sets();
        let cast_obj = b.db.table_info(b.cast_info).object;
        let cast_pages = sets.get(&cast_obj).map(Vec::len).unwrap_or(0);
        assert!(
            cast_pages > 5,
            "cast_info should dominate non-seq reads: {cast_pages}"
        );
        let objs = Template::Imdb1a.prefetch_objects(&b).unwrap();
        assert!(objs.contains(&cast_obj));
    }

    #[test]
    fn narrow_date_ranges_select_clustered_customers() {
        // The learnability property: two queries with close date ranges
        // should touch overlapping customer pages; far ranges should not.
        let b = bench();
        let mk = |d0: i64, d1: i64| {
            let fact = PlanNode::SeqScan {
                table: b.store_sales,
                pred: Some(Pred::Between {
                    col: 1,
                    lo: d0,
                    hi: d1,
                }),
            };
            let j = PlanNode::IndexNLJoin {
                outer: Box::new(fact),
                outer_key: 2,
                inner: b.customer,
                inner_index: b.idx_customer,
                inner_pred: None,
            };
            let (_, trace) = execute(&j, &b.db);
            let sets = trace.non_sequential_sets();
            let cust_obj = b.db.table_info(b.customer).object;
            sets.get(&cust_obj).cloned().unwrap_or_default()
        };
        let a: std::collections::HashSet<u32> = mk(100, 160).into_iter().collect();
        let near: std::collections::HashSet<u32> = mk(110, 170).into_iter().collect();
        let far: std::collections::HashSet<u32> = mk(1800, 1860).into_iter().collect();
        let j_near = a.intersection(&near).count() as f64 / a.union(&near).count().max(1) as f64;
        let j_far = a.intersection(&far).count() as f64 / a.union(&far).count().max(1) as f64;
        assert!(
            j_near > 0.4,
            "near ranges should overlap heavily: {j_near:.2}"
        );
        assert!(j_far < 0.35, "far ranges should barely overlap: {j_far:.2}");
        assert!(j_near > 1.5 * j_far.max(0.01));
    }

    #[test]
    fn trace_events_include_cpu_work() {
        let b = bench();
        let mut rng = StdRng::seed_from_u64(10);
        let q = sample_query(&b, Template::T18, &mut rng);
        let (_, trace) = execute(&q.plan, &b.db);
        assert!(trace.iter().any(|e| matches!(e, TraceEvent::Cpu { .. })));
        assert!(trace.iter().any(
            |e| matches!(e, TraceEvent::Read { kind, .. } if kind == AccessKind::IndexInternal)
        ));
    }
}
