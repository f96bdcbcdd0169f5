//! Property test for batched inference on the worker pool: it must be
//! **bit-identical** to one query at a time on one thread, for every way of
//! grouping labels under encoders (a model per object, the combined
//! table+index ablation, one encoder for the workload), across random seeds,
//! batch sizes and thread counts. Training and refinement on the pool are
//! pinned against serial runs, weight for weight, by pythia-core's
//! `parallel_fleet_is_bit_identical_to_serial`.

use pythia::core::config::{Grouping, PythiaConfig};
use pythia::core::predictor::train_workload;
use pythia::core::registry::TenantFleet;
use pythia::db::catalog::Database;
use pythia::db::exec::execute;
use pythia::db::expr::{CmpOp, Pred};
use pythia::db::plan::PlanNode;
use pythia::db::trace::Trace;
use pythia::db::types::Schema;
use pythia::nn::pool::set_thread_override;
use pythia::sim::rng::{cases, Rng};

/// Restores the pool to its environment-configured width even when a
/// failed assertion unwinds mid-test.
struct RestoreThreads;
impl Drop for RestoreThreads {
    fn drop(&mut self) {
        set_thread_override(0);
    }
}

fn any_grouping(rng: &mut Rng) -> Grouping {
    [
        Grouping::PerObject,
        Grouping::TableIndexPair,
        Grouping::Workload,
    ][rng.gen_range(0..3usize)]
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
        db.insert(fact, &Database::row([i, date, dkey]));
    }
    for d in 0..150i64 {
        db.insert(dim, &Database::row([d, d % 9]));
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

/// Batched inference must be bit-identical to the serial one-query-at-a-
/// time path for any batch size and thread count — checked on the snapshot a
/// fleet serves after a publish (the shape a server infers with), in every
/// model design.
#[test]
fn batched_inference_is_bit_identical_to_serial() {
    cases(6, |rng| {
        let seed = rng.gen_range(0..1000);
        let grouping = any_grouping(rng);
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
        let trained = train_workload(&db, "tiny", &plans[..9], &traces[..9], None, &cfg);
        let fleet = TenantFleet::new();
        fleet.publish(trained.clone());
        let snapshot = fleet.any().expect("a fleet serves what it was published");
        let tw = &snapshot.workload;

        // Serial single-thread reference: one forward pass per plan.
        set_thread_override(1);
        let serial: Vec<_> = plans.iter().map(|p| tw.infer(&db, p)).collect();

        for &threads in &[1usize, 4] {
            for &batch in &[1usize, 3, 17] {
                set_thread_override(threads);
                let batch_plans: Vec<&PlanNode> = plans.iter().cycle().take(batch).collect();
                let preds = tw.infer_batch(&db, &batch_plans);
                assert_eq!(preds.len(), batch);
                for (q, pred) in preds.iter().enumerate() {
                    assert_eq!(
                        &pred.pages,
                        &serial[q % plans.len()].pages,
                        "batch size {} / {} threads: query {} diverged",
                        batch,
                        threads,
                        q
                    );
                }
            }
        }
    });
}
