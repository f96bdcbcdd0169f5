//! The repository's benchmark: four workloads, end-to-end metrics with
//! tracing off, and a traced run that fills the layer cost table. Built and
//! started by `benchmark/run.sh`; see `benchmark/README.md`.

mod catalog;
mod fixture;
mod layers;
mod procfs;
mod serve;
mod socket;
mod spans;
mod stats;
mod traced;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use catalog::{json_str, Value, Values, Workload, END_TO_END, PER_LAYER, REPORTED, RUN_SECONDS};
use fixture::{Fixture, Sizes};
use serve::Shape;
use socket::Flavor;

/// Floor on the held-out F1 of the fixture's model: well under what it
/// reaches (see `results/baseline.json`), well over an untrained model's.
const F1_FLOOR: f64 = 0.2;
/// Held-out queries the timed `serve_*` runs check the floor on.
const F1_CHECK_QUERIES: usize = 100;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out_dir: Option<PathBuf>,
    describe: bool,
}

const USAGE: &str = "usage: benchmark/run.sh [--workload <name>|all] [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--out-dir DIR] [--describe]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        out_dir: None,
        describe: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if name != "all" {
                    let w = Workload::parse(&name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?;
                    args.workloads = vec![w];
                }
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_owned());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                // Bare `--trace` means on; the driver passes `--trace 0|1`.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => args.quick = true,
            "--out-dir" => args.out_dir = Some(PathBuf::from(value("--out-dir")?)),
            "--describe" => args.describe = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// One workload's run, timed or traced.
struct Outcome {
    workload: Workload,
    traced: bool,
    passes: usize,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    values: Values,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }
}

fn shape_of(w: Workload, sizes: &Sizes) -> Shape {
    match w {
        Workload::ServeC1Short => Shape::c1_short(sizes.heldout, sizes.c1_set, sizes.closed_batch),
        _ => Shape::c4_long(sizes.c4_stream, sizes.closed_batch),
    }
}

fn flavor_of(w: Workload) -> Flavor {
    match w {
        Workload::SocketDflt => Flavor::DFLT,
        _ => Flavor::TRAINED,
    }
}

/// Median of pooled per-request wall timings.
fn req_p50(pooled: &[f64]) -> Value {
    Value::of_n(stats::median(pooled), pooled.len())
}

fn timed_socket(
    w: Workload,
    sizes: &Sizes,
    exe: &Path,
    seed: u64,
    seconds: f64,
) -> std::io::Result<Outcome> {
    let flavor = flavor_of(w);
    let r = socket::run(
        exe,
        flavor,
        sizes.socket_requests(flavor),
        sizes.socket_reference_requests,
        seed,
        seconds,
        sizes.min_passes,
    )?;
    let problems = r.problems.clone();
    let mut v = Values::new();
    v.insert("setup_s", Value::median_of(&r.per_pass(|p| p.startup_s)));
    v.insert("host_qps", Value::median_of(&r.per_pass(|p| p.qps())));
    v.insert("req_p50_ms", req_p50(&r.pooled(|p| &p.latency_ms)));
    v.insert(
        "peak_rss_mb",
        Value::median_of(&r.per_pass(|p| p.peak_rss_kb as f64 / 1024.0)),
    );
    let virt = r.pooled(|p| &p.virt_latency_ms);
    v.insert("virt_mean_ms", Value::of_n(stats::mean(&virt), virt.len()));
    v.insert(
        "virt_latency_speedup",
        Value::of_n(r.virt_latency_speedup, r.reference.sent),
    );
    Ok(Outcome {
        workload: w,
        traced: false,
        passes: r.passes.len(),
        attempted: r.attempted,
        failed: r.failed,
        problems,
        values: v,
    })
}

fn timed_serve(w: Workload, sizes: &Sizes, fx: &Fixture, seed: u64, seconds: f64) -> Outcome {
    let r = serve::run(fx, &shape_of(w, sizes), seed, seconds, sizes.min_passes);
    let mut problems = r.problems.clone();
    let f1 = fx.heldout_f1(F1_CHECK_QUERIES);
    if f1 < F1_FLOOR {
        problems.push(format!("held-out F1 {f1:.3} is under the floor {F1_FLOOR}"));
    }
    if w == Workload::ServeC1Short && r.virt_latency_speedup <= 1.0 {
        problems.push(format!(
            "prefetching does not pay at C=1: virtual latency speedup {:.3}",
            r.virt_latency_speedup
        ));
    }
    let mut v = Values::new();
    v.insert("setup_s", Value::one(fx.times.total_s()));
    v.insert("host_qps", Value::median_of(&r.pythia_qps));
    v.insert("req_p50_ms", req_p50(&r.admit_gaps_ms));
    v.insert(
        "peak_rss_mb",
        Value::one(procfs::self_status().vm_hwm_kb as f64 / 1024.0),
    );
    v.insert("virt_mean_ms", Value::of_n(r.virt_mean_ms, r.virt_queries));
    v.insert(
        "virt_latency_speedup",
        Value::of_n(r.virt_latency_speedup, r.virt_queries),
    );
    Outcome {
        workload: w,
        traced: false,
        passes: r.passes,
        attempted: r.attempted,
        failed: r.failed,
        problems,
        values: v,
    }
}

fn traced_run(
    w: Workload,
    sizes: &Sizes,
    fx: &Fixture,
    exe: &Path,
    seed: u64,
    out_dir: Option<&Path>,
) -> std::io::Result<Outcome> {
    let mut r = traced::run(fx, sizes, &shape_of(w, sizes), flavor_of(w), exe, seed)?;
    let pct = r.values["bench.reconcile_serve_pct"].value;
    if !(80.0..=120.0).contains(&pct) {
        // Not a failure: the table says where to look.
        eprintln!(
            "[benchmark] stage medians are {pct:.0} % of a C=1 query's host time: {}",
            if pct < 80.0 {
                "a stage `serve` runs is not in the staged pipeline (admission, session bookkeeping, report assembly)"
            } else {
                "the staged pipeline does work `serve` does not (per-query list clone, outcome JSON)"
            }
        );
    }
    let trace_json = spans::chrome_trace_json(&r.spans);
    if let Err(e) = pythia::obs::diff::parse_json(&trace_json) {
        r.problems
            .push(format!("the Chrome trace does not parse back: {e}"));
    }
    if let Some(dir) = out_dir {
        std::fs::write(dir.join(format!("trace_{}.json", w.name())), trace_json)?;
    }
    Ok(Outcome {
        workload: w,
        traced: true,
        passes: 1,
        attempted: r.attempted,
        failed: r.failed,
        problems: r.problems,
        values: r.values,
    })
}

fn env_or_unknown(key: &str) -> String {
    std::env::var(key).unwrap_or_else(|_| "unknown".to_owned())
}

/// The environment block of every output: a number without its thread count
/// is not a number.
fn environment(args: &Args, seconds: f64) -> Vec<(&'static str, String)> {
    vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        (
            "configured_threads",
            pythia::nn::pool::configured_threads().to_string(),
        ),
        ("isa", pythia::nn::kernels::detected_isa_label().to_owned()),
        ("rustc", env_or_unknown("PYTHIA_BENCH_RUSTC")),
        ("git_commit", env_or_unknown("PYTHIA_BENCH_COMMIT")),
        (
            "compat_patches_applied",
            env_or_unknown("PYTHIA_BENCH_COMPAT"),
        ),
        ("shims", env_or_unknown("PYTHIA_BENCH_SHIMS")),
        ("seed", args.seed.to_string()),
        ("seconds", seconds.to_string()),
        (
            "sizes",
            if args.quick { "quick" } else { "standard" }.to_owned(),
        ),
    ]
}

/// The metrics of the contract's result line: the end-to-end list for a
/// timed run, the per-layer list for a traced one.
fn contract_metrics(traced: bool) -> Vec<(&'static str, &'static str)> {
    if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

/// The rows a run prints and saves: the contract's, and for a timed run
/// the wall-clock numbers that are reported without a bound.
fn table_metrics(traced: bool) -> Vec<(&'static str, &'static str)> {
    let mut rows = contract_metrics(traced);
    if !traced {
        rows.extend(REPORTED);
    }
    rows
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`, each value with all its digits.
fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = contract_metrics(o.traced)
        .into_iter()
        .map(|(name, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                o.values[name].value,
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

fn print_table(o: &Outcome) {
    println!(
        "== {} [{}] passes {} attempted {} failed {} (failed_share {:.6}) ==",
        o.workload.name(),
        if o.traced { "traced" } else { "timed" },
        o.passes,
        o.attempted,
        o.failed,
        o.failed as f64 / o.attempted.max(1) as f64
    );
    for (name, unit) in table_metrics(o.traced) {
        let v = &o.values[name];
        let spread = v
            .quartiles
            .map_or(String::new(), |(q1, q3)| format!("  q1 {q1:.6} q3 {q3:.6}"));
        println!("  {name:<44} {:>16.6} {unit:<8} n {}{spread}", v.value, v.n);
    }
    for p in &o.problems {
        println!("  CHECK FAILED: {p}");
    }
}

fn results_json(env: &[(&'static str, String)], outcomes: &[Outcome]) -> String {
    let mut out = String::from("{\n  \"env\": {");
    let fields: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    out.push_str(&fields.join(", "));
    out.push_str("},\n  \"runs\": [\n");
    let runs: Vec<String> = outcomes
        .iter()
        .map(|o| {
            let metrics: Vec<String> = table_metrics(o.traced)
                .into_iter()
                .map(|(name, unit)| {
                    let v = &o.values[name];
                    let quartiles = v.quartiles.map_or(String::new(), |(q1, q3)| format!(", \"q1\": {q1}, \"q3\": {q3}"));
                    format!(
                        "      {}: {{\"value\": {}, \"unit\": {}, \"n\": {}{quartiles}}}",
                        json_str(name),
                        v.value,
                        json_str(unit),
                        v.n
                    )
                })
                .collect();
            let problems: Vec<String> = o.problems.iter().map(|p| json_str(p)).collect();
            format!(
                "    {{\"workload\": {}, \"trace\": {}, \"correct\": {}, \"passes\": {}, \"attempted\": {}, \"failed\": {}, \"problems\": [{}], \"metrics\": {{\n{}\n    }}}}",
                json_str(o.workload.name()),
                u8::from(o.traced),
                o.correct(),
                o.passes,
                o.attempted,
                o.failed,
                problems.join(", "),
                metrics.join(",\n")
            )
        })
        .collect();
    out.push_str(&runs.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

fn run(args: &Args) -> Result<bool, String> {
    let sizes = if args.quick {
        Sizes::quick()
    } else {
        Sizes::standard()
    };
    let seconds = args.seconds.unwrap_or(if args.quick {
        1.0
    } else {
        f64::from(RUN_SECONDS)
    });
    let env = environment(args, seconds);
    println!("environment:");
    for (k, v) in &env {
        println!("  {k:<24} {v}");
    }
    if let Some(dir) = &args.out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let exe = socket::serve_demo_path().map_err(|e| e.to_string())?;
    let needs_fixture = args.trace || args.workloads.iter().any(|w| !w.is_socket());
    let fx = needs_fixture.then(|| Fixture::build(&sizes, args.seed));

    let mut outcomes: Vec<Outcome> = Vec::new();
    for &w in &args.workloads {
        let fixture = || {
            fx.as_ref()
                .expect("traced and serve runs build the fixture")
        };
        let mut o = if args.trace {
            let out_dir = args.out_dir.as_deref();
            traced_run(w, &sizes, fixture(), &exe, args.seed, out_dir)
        } else if w.is_socket() {
            timed_socket(w, &sizes, &exe, args.seed, seconds)
        } else {
            Ok(timed_serve(w, &sizes, fixture(), args.seed, seconds))
        }
        .map_err(|e| format!("{}: {e}", w.name()))?;
        for (name, _) in table_metrics(o.traced) {
            match o.values.get(name) {
                Some(v) if v.value.is_finite() => {}
                Some(_) => {
                    o.problems.push(format!("{name} is not a finite number"));
                    o.values.insert(name, Value::one(0.0));
                }
                None => return Err(format!("{}: metric {name} was not measured", w.name())),
            }
        }
        print_table(&o);
        outcomes.push(o);
    }
    if let Some(dir) = &args.out_dir {
        let path = dir.join("latest.json");
        std::fs::write(&path, results_json(&env, &outcomes))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    // Last on standard output: one result line per run, the final line being
    // the last workload's (the driver runs one workload at a time).
    for o in &outcomes {
        println!("{}", result_line(o));
    }
    Ok(outcomes.iter().all(Outcome::correct))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.describe {
        print!("{}", catalog::benchmark_json());
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("[benchmark] a self-check failed; see CHECK FAILED above");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("[benchmark] {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args(&[
            "--workload",
            "socket_dflt",
            "--seed",
            "17",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workloads, vec![Workload::SocketDflt]);
        assert_eq!((a.seed, a.seconds, a.trace), (17, Some(10.0), false));
        assert!(
            args(&["--trace", "1", "--workload", "serve_c1_short"])
                .unwrap()
                .trace
        );
    }

    #[test]
    fn bare_trace_means_on_and_defaults_cover_every_workload() {
        let a = args(&["--trace", "--quick"]).unwrap();
        assert!(a.trace && a.quick);
        assert_eq!(a.workloads, Workload::ALL.to_vec());
        assert_eq!(args(&["--workload", "all"]).unwrap().workloads.len(), 4);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seconds", "61"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }

    #[test]
    fn the_result_line_has_the_contracts_keys_and_every_metric() {
        let values: Values = END_TO_END
            .iter()
            .map(|m| (m.name, Value::one(1.25)))
            .collect();
        let o = Outcome {
            workload: Workload::ServeC4Long,
            traced: false,
            passes: 3,
            attempted: 10,
            failed: 0,
            problems: Vec::new(),
            values,
        };
        let line = result_line(&o);
        let pythia::obs::diff::Json::Obj(fields) =
            pythia::obs::diff::parse_json(&line.replace("1.25", "125")).unwrap()
        else {
            panic!("not an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let pythia::obs::diff::Json::Obj(metrics) = &fields[3].1 else {
            panic!("metrics is not an object");
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(!line.contains('\n'));
    }
}
