//! Extension experiments — the paper's §7 future-work directions, built and
//! measured here:
//!
//! * **Prefetch-aware query scheduling** ("schedule queries to maximize the
//!   overlapping reads"): a queued batch is reordered by
//!   [`pythia_core::scheduler::schedule_by_overlap`] over Pythia's
//!   *predictions* (no execution needed), then run warm-sequentially.
//!
//! §7's other direction, a replacement policy that protects unread
//! prefetches, measured null: `docs/measurements.md`, "Prefetch-aware
//! replacement: three measured nulls".

use pythia_db::runtime::QueryRun;
use pythia_workloads::templates::Template;

use crate::harness::Env;
use crate::output::Table;

/// Prefetch-aware scheduling of a queued batch.
pub fn run_scheduler(env: &Env) -> Table {
    let mut t = Table::new(
        "Extension (paper §7): prefetch-aware query scheduling — warm-sequential total latency",
        &["batch", "FIFO total", "scheduled total", "improvement"],
    );
    let w = env.prepare(Template::T18);
    let tw = env.trained_default(Template::T18);

    for (bi, chunk) in w.test_idx.chunks(6).take(3).enumerate() {
        if chunk.len() < 3 {
            continue;
        }
        // Predict (cheap, no execution) and schedule on predictions alone.
        // The queued batch is exactly the batched-inference shape: one
        // forward sweep predicts for the whole queue.
        let plans: Vec<_> = chunk.iter().map(|&qi| &w.queries[qi].plan).collect();
        let engagements = env.pythia_prefetch_batch(&env.run_cfg, &tw, &plans);
        let predictions: Vec<_> = engagements.iter().map(|(p, _)| p.clone()).collect();
        let order = pythia_core::scheduler::schedule_by_overlap(&predictions);

        let total_for = |order: &[usize]| {
            let mut rt = env.runtime();
            let mut total = pythia_sim::SimDuration::ZERO;
            for &pos in order {
                let qi = chunk[pos];
                let (pf, inf) = &engagements[pos];
                let res = rt.run(&[QueryRun::with_prefetch(&w.traces[qi], pf.clone(), *inf)]);
                total += res.timings[0].elapsed();
            }
            total
        };
        let fifo_order: Vec<usize> = (0..chunk.len()).collect();
        let fifo = total_for(&fifo_order);
        let sched = total_for(&order);
        t.row(vec![
            format!("batch {} ({} queries)", bi + 1, chunk.len()),
            fifo.to_string(),
            sched.to_string(),
            format!(
                "{:.1}%",
                (1.0 - sched.as_micros() as f64 / fifo.as_micros() as f64) * 100.0
            ),
        ]);
    }
    t
}
