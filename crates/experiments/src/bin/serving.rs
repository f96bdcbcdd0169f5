//! Run the serving-loop experiment (Figure 13d through admission control)
//! and print one full serving report for illustration.
//!
//! Flags:
//!
//! * `--trace-out <path>` — trace the illustrative run and write a
//!   Perfetto-loadable Chrome trace of the whole serving stack (admission
//!   waves, query replays, buffer events, prefetch I/O, NN tasks, training
//!   epochs) to the given path.
//! * `--metrics-addr <host:port>` — with `--trace-out`, serve the live
//!   metrics snapshot at `http://<addr>/metrics` (Prometheus text; the
//!   endpoint stays up until the process exits).
//! * `--metrics-out <path>` — with `--trace-out`, write the final metrics
//!   snapshot JSON to the given path (CI uploads it as an artifact).
//! * `--admission-out <path>` — write the wave-vs-continuous admission
//!   comparison (skewed request mix, simultaneous arrivals) as JSON to the
//!   given path; CI uploads it alongside the trace artifacts.
//! * `--drift-out <path>` — run the drift-injection sweep (stationary
//!   control vs template-mix rotation through the quality-tracked serving
//!   loop) and write the before/after detector artifact as JSON; CI gates on
//!   the stationary run reporting zero alerts.
//! * `--mini` — CI-sized configuration (tiny database, 12 queries) and skip
//!   the overlap sweep; combined with `--trace-out` this is the tier-1
//!   traced mini-serving run.
use pythia_core::server::QueuePolicy;
use pythia_experiments::{serving, Env, ExpConfig};
use pythia_workloads::templates::Template;

fn main() {
    let mini = std::env::args().any(|a| a == "--mini");
    let cfg = if mini {
        ExpConfig {
            scale: 0.05,
            n_queries: 12,
            test_frac: 0.25,
            ..ExpConfig::quick()
        }
    } else {
        ExpConfig::from_env()
    };
    let env = Env::new(cfg);
    if !mini {
        serving::run(&env).emit("serving");
    }

    if let Some(path) = serving::admission_out_arg() {
        let json = serving::admission_snapshot(&env);
        std::fs::write(&path, &json)
            .unwrap_or_else(|e| panic!("writing admission snapshot to {path}: {e}"));
        eprintln!("[pythia] wrote wave-vs-continuous admission snapshot to {path}");
    }

    if let Some(path) = serving::drift_out_arg() {
        let json = pythia_experiments::drift::drift_snapshot(&env);
        std::fs::write(&path, &json)
            .unwrap_or_else(|e| panic!("writing drift snapshot to {path}: {e}"));
        eprintln!("[pythia] wrote drift-injection snapshot to {path}");
    }

    if let Some(path) = serving::trace_out_arg() {
        let metrics_addr = serving::metrics_addr_arg();
        let metrics_out = serving::metrics_out_arg();
        let rep = serving::dump_trace(&env, &path, metrics_addr.as_deref(), metrics_out.as_deref());
        println!("{}", rep.report());
        return;
    }

    let tw = env.trained_default(Template::T18);
    let rep = serving::serve_poisson(
        &env,
        Template::T18,
        Some(tw.as_ref()),
        serving::Admission::Continuous(QueuePolicy::Overlap),
        0.75,
        env.cfg.seed ^ 0x5E4B,
    );
    println!("{}", rep.report());
}
