//! Run the entire experiment suite (every table and figure of the paper).
//! `PYTHIA_FULL=1` switches to the full-size configuration. With
//! `--trace-out <path>`, a traced serving run is appended and its Chrome
//! trace JSON written to the given path (open in ui.perfetto.dev).
//!
//! Independent artifacts fan out over the shared deterministic worker pool
//! (`pythia_nn::pool`): the workloads and default models every figure shares
//! are prepared once up front (the `Env` caches them behind `Arc`s), then the
//! figure jobs run concurrently and the finished tables are emitted serially
//! in the paper's order. Every CSV is byte-identical to the same table run
//! by its own binary, at any `PYTHIA_THREADS`, with `PYTHIA_SIMD=off` and
//! on a loaded host, except the wall-clock columns:
//! Fig 9's `train seconds` and `train ratio vs pythia`, and Fig 12d's
//! `infer ms / query`.
use pythia_experiments::*;
use pythia_nn::pool::parallel_map;
use pythia_workloads::templates::Template;

/// One independent artifact of the suite.
#[derive(Clone, Copy)]
enum Job {
    Table1,
    Fig01,
    Fig0506,
    Fig0708,
    Fig09,
    Fig1011,
    Fig12A,
    Fig12B,
    Fig12C,
    Fig12D,
    Fig12E,
    Fig12F,
    Fig12G,
    Fig12H,
    Fig13,
    Serving,
}

fn main() {
    let cfg = ExpConfig::from_env();
    eprintln!(
        "[pythia] running {} suite (scale={}, {} queries/workload, {} worker threads)",
        if cfg.quick { "quick" } else { "FULL" },
        cfg.scale,
        cfg.n_queries,
        pythia_nn::pool::configured_threads()
    );
    let t0 = std::time::Instant::now();
    let env = Env::new(cfg.clone());
    eprintln!(
        "[pythia] database built: {} pages",
        env.bench.db.disk.total_pages()
    );

    // Warm the shared caches before fanning out: training itself spreads
    // over the pool, and warmed caches keep the figure jobs lock-free.
    for template in Template::ALL {
        env.prepare(template);
        env.trained_default(template);
    }
    eprintln!(
        "[pythia] workloads sampled and models trained ({:.1}s)",
        t0.elapsed().as_secs_f64()
    );

    use Job::*;
    let jobs = [
        Table1, Fig01, Fig0506, Fig0708, Fig09, Fig1011, Fig12A, Fig12B, Fig12C, Fig12D, Fig12E,
        Fig12F, Fig12G, Fig12H, Fig13, Serving,
    ];
    let groups: Vec<Vec<(&'static str, Table)>> = parallel_map(&jobs, |_, job| match job {
        Table1 => vec![("table1", table1::run(&env))],
        Fig01 => vec![("fig01", fig01::run(&env))],
        Fig0506 => {
            let r = fig05_06::run(&env);
            vec![("fig05", r.f1), ("fig06", r.speedup)]
        }
        Fig0708 => {
            let r = fig07_08::run(&env);
            vec![("fig07", r.f1), ("fig08", r.speedup)]
        }
        Fig09 => vec![("fig09", fig09::run(&env))],
        Fig1011 => {
            let r = fig10_11::run(&env);
            vec![("fig10", r.f1), ("fig11", r.speedup)]
        }
        Fig12A => vec![("fig12a", fig12::run_a(&cfg))],
        Fig12B => vec![("fig12b", fig12::run_b(&env))],
        Fig12C => vec![("fig12c", fig12::run_c(&env))],
        Fig12D => vec![("fig12d", fig12::run_d(&env))],
        Fig12E => vec![("fig12e", fig12::run_e(&env))],
        Fig12F => vec![("fig12f", fig12::run_f(&env))],
        Fig12G => vec![("fig12g", fig12::run_g(&env))],
        Fig12H => vec![("fig12h", fig12::run_h(&env))],
        Fig13 => {
            let r = fig13::run(&env);
            vec![
                ("fig13a", r.a),
                ("fig13b", r.b),
                ("fig13c", r.c),
                ("fig13d", r.d),
            ]
        }
        Serving => vec![("serving", serving::run(&env))],
    });
    for group in groups {
        for (id, table) in group {
            table.emit(id);
        }
    }

    if let Some(path) = serving::trace_out_arg() {
        let metrics_out = serving::metrics_out_arg();
        serving::dump_trace(&env, &path, metrics_out.as_deref());
    }

    eprintln!(
        "[pythia] suite finished in {:.1}s; CSVs in results/",
        t0.elapsed().as_secs_f64()
    );
}
