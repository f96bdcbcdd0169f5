//! Quickstart: train Pythia on a tiny hand-built star schema, publish the
//! model, and serve unseen queries with and without its prefetching.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! Walks the whole pipeline on a database small enough to read the output:
//! build tables + index, run a training workload (collecting page-access
//! traces), train the model and publish it to a model fleet, then serve the
//! held-out queries as one batch twice — on a server with no predictor (the
//! DFLT baseline) and on one that reads the fleet.

use std::sync::Arc;

use pythia::core::metrics::f1_score;
use pythia::core::predictor::ground_truth;
use pythia::core::{
    train_workload, PrefetchServer, PythiaConfig, ServerConfig, ServerRequest, TenantFleet,
};
use pythia::db::catalog::Database;
use pythia::db::exec::execute;
use pythia::db::expr::Pred;
use pythia::db::plan::PlanNode;
use pythia::db::runtime::RunConfig;
use pythia::db::types::Schema;
use pythia::sim::SimDuration;

fn main() {
    // ---- 1. Build a small star: orders(fact) -> customers(dim, indexed).
    let mut db = Database::new();
    let orders = db.create_table("orders", Schema::ints(&["o_id", "o_day", "o_cust"]));
    let customers = db.create_table("customers", Schema::ints(&["c_id", "c_segment"]));

    let n_days = 1000i64;
    let n_cust = 20_000i64;
    for i in 0..8_000i64 {
        let day = i / 8;
        // Customers arrive over time: day ranges map to customer-page ranges.
        let cust = (day * n_cust / n_days + (i * 7919) % 4000).min(n_cust - 1);
        db.insert(orders, &Database::row([i, day, cust]));
    }
    for c in 0..n_cust {
        db.insert(customers, &Database::row([c, c % 5]));
    }
    let cust_idx = db.create_index("customers_pk", customers, 0);
    println!(
        "database: {} pages ({} orders pages, {} customers pages)",
        db.disk.total_pages(),
        db.table_info(orders).heap.page_count(&db.disk),
        db.table_info(customers).heap.page_count(&db.disk),
    );

    // ---- 2. A parameterized query template: orders in a day range, joined
    //         to their customers through the index.
    let template = |lo: i64| PlanNode::IndexNLJoin {
        outer: Box::new(PlanNode::SeqScan {
            table: orders,
            pred: Some(Pred::Between {
                col: 1,
                lo,
                hi: lo + 120,
            }),
        }),
        outer_key: 2,
        inner: customers,
        inner_index: cust_idx,
        inner_pred: None,
    };

    // ---- 3. Training workload: 40 instances, traces collected by running
    //         them (the paper's trace-construction step).
    let plans: Vec<PlanNode> = (0..40i64).map(|q| template((q * 23) % 880)).collect();
    let traces: Vec<_> = plans.iter().map(|p| execute(p, &db).1).collect();
    println!("collected {} training traces", traces.len());

    // ---- 4. Train Pythia (Algorithm 1) and publish the model to a fleet.
    let cfg = PythiaConfig {
        epochs: 40,
        batch_size: 8,
        lr: 5e-3,
        ..PythiaConfig::fast()
    };
    let tw = train_workload(&db, "orders-by-day", &plans, &traces, None, &cfg);
    println!("model size {:.2} MB", tw.size_bytes() as f64 / 1e6);
    // No threshold in the config: training chose it by replaying the first
    // training queries through the simulator.
    println!("decision threshold {} (chosen by replay)", tw.threshold);
    let fleet = Arc::new(TenantFleet::new());
    println!("published 'orders-by-day' as version {}", fleet.publish(tw));

    // ---- 5. Held-out queries: day ranges no training instance starts at.
    let held_out: Vec<PlanNode> = (0..8i64).map(|q| template(11 + q * 113)).collect();
    let held_traces: Vec<_> = held_out.iter().map(|p| execute(p, &db).1).collect();
    let model = fleet.current("orders-by-day").expect("just published");
    let modeled = model.workload.modeled_objects();
    let f1 = held_out
        .iter()
        .zip(&held_traces)
        .map(|(plan, trace)| {
            let predicted = model.workload.infer(&db, plan).as_set();
            f1_score(&predicted, &ground_truth(trace, &modeled)).f1
        })
        .sum::<f64>()
        / held_out.len() as f64;
    println!("held-out F1 over {} queries: {f1:.3}", held_out.len());

    // ---- 6. Serve them as one batch, all arriving at once, on a cold
    //         512-frame pool: DFLT, then Pythia reading the fleet.
    let run_cfg = RunConfig {
        pool_frames: 512,
        ..RunConfig::default()
    };
    let requests: Vec<_> = held_out
        .iter()
        .zip(&held_traces)
        .map(|(plan, trace)| ServerRequest::new(plan, trace, SimDuration::ZERO))
        .collect();
    let server = || PrefetchServer::new(&db, &run_cfg, ServerConfig::default());
    let dflt = server().serve(&requests).makespan();
    let pythia = server()
        .with_registry(Arc::clone(&fleet))
        .serve(&requests)
        .makespan();
    println!("DFLT makespan    : {dflt}");
    println!("Pythia makespan  : {pythia}");
    println!(
        "speedup          : {:.2}x",
        dflt.as_micros() as f64 / pythia.as_micros() as f64
    );

    // ---- 7. A query of a shape Pythia never trained on matches no workload
    //         (Algorithm 3's engage test). The server does not apply this
    //         match yet: it engages every query of a tenant with a model.
    let foreign = PlanNode::SeqScan {
        table: customers,
        pred: None,
    };
    assert!(fleet.match_plan(&db, &foreign).is_none());
    println!("out-of-distribution query: no trained workload matches it");
}
