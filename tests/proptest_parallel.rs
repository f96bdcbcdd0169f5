//! Property test for the parallel model fleet: training, inference and
//! refinement on the worker pool must be **bit-identical** to a single-thread
//! run, for every way of grouping labels under encoders (a model per object,
//! the combined table+index ablation, one encoder for the workload), across
//! random seeds and thread counts.
//!
//! Identity is checked on the full serialized `TrainedWorkload` (every model
//! weight, the vocabulary and the binner) and on the per-plan predictions.

use proptest::prelude::*;

use pythia::core::config::{Grouping, PythiaConfig};
use pythia::core::predictor::train_workload;
use pythia::db::catalog::Database;
use pythia::db::exec::execute;
use pythia::db::expr::{CmpOp, Pred};
use pythia::db::plan::PlanNode;
use pythia::db::trace::Trace;
use pythia::db::types::Schema;
use pythia::nn::pool::set_thread_override;

/// Restores the pool to its environment-configured width even when a
/// `prop_assert!` failure unwinds mid-test.
struct RestoreThreads;
impl Drop for RestoreThreads {
    fn drop(&mut self) {
        set_thread_override(0);
    }
}

fn any_grouping() -> impl Strategy<Value = Grouping> {
    prop::sample::select(vec![
        Grouping::PerObject,
        Grouping::TableIndexPair,
        Grouping::Workload,
    ])
}

/// A small star workload: fact(600) probing dim(150) through an index, with
/// the dim key clustered by date so the labels are learnable.
fn tiny_star() -> (Database, Vec<PlanNode>, Vec<Trace>) {
    let mut db = Database::new();
    let fact = db.create_table("fact", Schema::ints(&["id", "date", "dkey"]));
    let dim = db.create_table("dim", Schema::ints(&["d_id", "attr"]));
    for i in 0..600i64 {
        let date = i / 2; // 300 dates
        let dkey = (date * 150 / 300 + i % 3).min(149);
        db.insert(fact, Database::row(&[i, date, dkey]));
    }
    for d in 0..150i64 {
        db.insert(dim, Database::row(&[d, d % 9]));
    }
    let idx = db.create_index("dim_pk", dim, 0);

    let mut plans = Vec::new();
    let mut traces = Vec::new();
    for q in 0..12i64 {
        let lo = (q * 37) % 200;
        let plan = PlanNode::IndexNLJoin {
            outer: Box::new(PlanNode::SeqScan {
                table: fact,
                pred: Some(Pred::Between {
                    col: 1,
                    lo,
                    hi: lo + 40,
                }),
            }),
            outer_key: 2,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn parallel_fleet_is_bit_identical_to_serial(
        seed in 0u64..1000,
        grouping in any_grouping(),
        n_threads in 2usize..6,
    ) {
        let _guard = RestoreThreads;
        let (db, plans, traces) = tiny_star();
        let cfg = PythiaConfig {
            epochs: 2,
            batch_size: 4,
            lr: 5e-3,
            seed,
            grouping,
            ..PythiaConfig::fast()
        };
        let (train_p, train_t) = (&plans[..9], &traces[..9]);
        let (extra_p, extra_t) = (&plans[9..], &traces[9..]);

        set_thread_override(1);
        let mut tw_serial = train_workload(&db, "tiny", train_p, train_t, None, &cfg);
        set_thread_override(n_threads);
        let mut tw_pooled = train_workload(&db, "tiny", train_p, train_t, None, &cfg);

        prop_assert_eq!(
            serde_json::to_string(&tw_serial).unwrap(),
            serde_json::to_string(&tw_pooled).unwrap(),
            "pooled training diverged from serial (seed {}, {:?}, {} threads)",
            seed, grouping, n_threads
        );
        for p in &plans {
            set_thread_override(1);
            let a = tw_serial.infer(&db, p);
            set_thread_override(n_threads);
            let b = tw_pooled.infer(&db, p);
            prop_assert_eq!(a.pages, b.pages, "pooled inference diverged");
        }

        // Refinement fans out over the same pool; it must stay bit-identical.
        set_thread_override(1);
        tw_serial.refine(&db, extra_p, extra_t);
        set_thread_override(n_threads);
        tw_pooled.refine(&db, extra_p, extra_t);
        prop_assert_eq!(
            serde_json::to_string(&tw_serial).unwrap(),
            serde_json::to_string(&tw_pooled).unwrap(),
            "pooled refinement diverged from serial"
        );
    }

    /// Batched inference must be bit-identical to the serial one-query-at-a-
    /// time path for any batch size and thread count — checked on a model
    /// that went through a full serde roundtrip (the deployed shape: loaded
    /// weights, empty plan-encoding cache), in every model design.
    #[test]
    fn batched_inference_is_bit_identical_to_serial(
        seed in 0u64..1000,
        grouping in any_grouping(),
    ) {
        let _guard = RestoreThreads;
        let (db, plans, traces) = tiny_star();
        let cfg = PythiaConfig {
            epochs: 2,
            batch_size: 4,
            lr: 5e-3,
            seed,
            grouping,
            ..PythiaConfig::fast()
        };
        let tw = train_workload(&db, "tiny", &plans[..9], &traces[..9], None, &cfg);
        let tw: pythia::core::predictor::TrainedWorkload =
            serde_json::from_str(&serde_json::to_string(&tw).unwrap()).unwrap();

        // Serial single-thread reference: one forward pass per plan.
        set_thread_override(1);
        let serial: Vec<_> = plans.iter().map(|p| tw.infer(&db, p)).collect();

        for &threads in &[1usize, 4] {
            for &batch in &[1usize, 3, 17] {
                set_thread_override(threads);
                let batch_plans: Vec<&PlanNode> = plans.iter().cycle().take(batch).collect();
                let preds = tw.infer_batch(&db, &batch_plans);
                prop_assert_eq!(preds.len(), batch);
                for (q, pred) in preds.iter().enumerate() {
                    prop_assert_eq!(
                        &pred.pages,
                        &serial[q % plans.len()].pages,
                        "batch size {} / {} threads: query {} diverged",
                        batch, threads, q
                    );
                }
            }
        }
    }
}
