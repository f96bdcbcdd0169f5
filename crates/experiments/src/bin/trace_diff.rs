//! Structural comparison of virtual-clock traces — the CI regression gate.
//!
//! ```text
//! trace_diff --validate FILE          # parse + require virtual events
//! trace_diff --summary FILE           # print the golden-able summary
//! trace_diff A B                      # compare; exit 1 on drift
//! ```
//!
//! `A`/`B` are Chrome trace JSON files from a traced run, or checked-in
//! golden summaries previously produced by `--summary` (detected by the
//! `# trace_diff summary v1` header). Wall-clock events never participate
//! (`pythia_obs::diff::summarize` keeps only the virtual process), so the
//! comparison is deterministic across hosts. It is exact: a deliberate
//! change, such as a span rename, re-blesses the golden.
//!
//! Exit codes: 0 = identical (or valid), 1 = drift / invalid trace,
//! 2 = usage error.

use pythia_obs::diff::{self, TraceSummary};

fn usage() -> ! {
    eprintln!(
        "usage: trace_diff --validate FILE\n\
         \x20      trace_diff --summary FILE\n\
         \x20      trace_diff A B"
    );
    std::process::exit(2)
}

/// Load a trace JSON file or a rendered golden summary.
fn load(path: &str) -> Result<TraceSummary, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    if text.starts_with("# trace_diff summary v1") {
        TraceSummary::parse_rendered(&text)
    } else {
        diff::validate(&text)
    }
}

fn load_or_die(path: &str) -> TraceSummary {
    load(path).unwrap_or_else(|e| {
        eprintln!("trace_diff: {path}: {e}");
        std::process::exit(1)
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--validate") => {
            let [_, file] = args.as_slice() else { usage() };
            let s = load_or_die(file);
            eprintln!(
                "trace_diff: {file}: OK ({} virtual events, {} names, {} tracks)",
                s.virtual_events,
                s.per_name.len(),
                s.tracks.len()
            );
        }
        Some("--summary") => {
            let [_, file] = args.as_slice() else { usage() };
            print!("{}", load_or_die(file).render());
        }
        Some(_) => {
            let [a, b] = args.as_slice() else { usage() };
            if a.starts_with("--") || b.starts_with("--") {
                usage()
            }
            let sa = load_or_die(a);
            let sb = load_or_die(b);
            let drift = diff::diff(&sa, &sb);
            if drift.is_empty() {
                eprintln!(
                    "trace_diff: {a} and {b} are structurally identical \
                     ({} virtual events)",
                    sa.virtual_events
                );
            } else {
                eprintln!("trace_diff: {a} vs {b}: {} drift(s)", drift.len());
                for msg in &drift {
                    eprintln!("  {msg}");
                }
                std::process::exit(1);
            }
        }
        None => usage(),
    }
}
