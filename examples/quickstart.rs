//! Quickstart: train Pythia on a tiny hand-built star schema and watch it
//! prefetch for an unseen query.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! Walks the whole pipeline on a database small enough to read the output:
//! build tables + index, run a training workload (collecting page-access
//! traces), train the model, and then — for an *unseen* query —
//! compare default execution against execution with Pythia's prefetch.

use pythia::core::metrics::f1_score;
use pythia::core::predictor::ground_truth;
use pythia::core::PythiaConfig;
use pythia::db::catalog::Database;
use pythia::db::exec::execute;
use pythia::db::expr::Pred;
use pythia::db::plan::PlanNode;
use pythia::db::runtime::{QueryRun, RunConfig, Runtime};
use pythia::db::types::Schema;
use pythia::PythiaSystem;

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
        db.insert(orders, Database::row(&[i, day, cust]));
    }
    for c in 0..n_cust {
        db.insert(customers, Database::row(&[c, c % 5]));
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
    let template = |lo: i64, hi: i64| PlanNode::IndexNLJoin {
        outer: Box::new(PlanNode::SeqScan {
            table: orders,
            pred: Some(Pred::Between { col: 1, lo, hi }),
        }),
        outer_key: 2,
        inner: customers,
        inner_index: cust_idx,
        inner_pred: None,
    };

    // ---- 3. Training workload: 40 instances, traces collected by running
    //         them (the paper's trace-construction step).
    let mut plans = Vec::new();
    let mut traces = Vec::new();
    for q in 0..40i64 {
        let lo = (q * 23) % 880;
        let plan = template(lo, lo + 120);
        let (_rows, trace) = execute(&plan, &db);
        plans.push(plan);
        traces.push(trace);
    }
    println!("collected {} training traces", traces.len());

    // ---- 4. Train Pythia (Algorithm 1).
    let cfg = PythiaConfig {
        epochs: 40,
        batch_size: 8,
        lr: 5e-3,
        ..PythiaConfig::fast()
    };
    let pythia = PythiaSystem::new(cfg, 512);
    pythia.learn_workload(&db, "orders-by-day", &plans, &traces, None);
    let model = pythia
        .fleet()
        .current("orders-by-day")
        .expect("just learned");
    let tw = &model.workload;
    println!(
        "trained {} workload(s); model size {:.2} MB",
        pythia.workload_count(),
        tw.size_bytes() as f64 / 1e6
    );

    // ---- 5. An unseen query from the same workload.
    let unseen = template(411, 531);
    let (_rows, unseen_trace) = execute(&unseen, &db);

    let engagement = pythia
        .engage(&db, &unseen)
        .expect("query matches the workload");
    println!(
        "engaged workload '{}': predicted {} pages, inference {}",
        engagement.workload,
        engagement.prefetch.len(),
        engagement.inference
    );

    // Prediction quality.
    let truth = ground_truth(&unseen_trace, &tw.modeled_objects());
    let pred = tw.infer(&db, &unseen);
    let m = f1_score(&pred.as_set(), &truth);
    println!(
        "prediction: precision={:.3} recall={:.3} F1={:.3} ({} predicted / {} actual)",
        m.precision, m.recall, m.f1, m.predicted, m.actual
    );

    // ---- 6. Replay: default vs Pythia-prefetched execution (cold cache).
    let run_cfg = RunConfig {
        pool_frames: 512,
        ..RunConfig::default()
    };
    let mut rt = Runtime::new(&run_cfg, db.file_lengths());
    let base = rt.run(&[QueryRun::default_run(&unseen_trace)]).timings[0].elapsed();
    rt.reset();
    let with = rt
        .run(&[QueryRun::with_prefetch(
            &unseen_trace,
            engagement.prefetch,
            engagement.inference,
        )])
        .timings[0]
        .elapsed();
    println!("default execution: {base}");
    println!("with Pythia      : {with}");
    println!(
        "speedup          : {:.2}x",
        base.as_micros() as f64 / with.as_micros() as f64
    );

    // ---- 7. A query Pythia has never seen the shape of: it stays out.
    let foreign = PlanNode::SeqScan {
        table: customers,
        pred: None,
    };
    assert!(pythia.engage(&db, &foreign).is_none());
    println!("out-of-distribution query: Pythia falls back to default execution");
}
