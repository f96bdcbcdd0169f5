//! What the benchmark measures: the workloads, the end-to-end metrics with
//! their regression bounds, and the per-layer metrics. `BENCHMARK.json` at
//! the repository root is [`benchmark_json`] of these tables (a unit test
//! keeps the file and the tables equal).

use std::collections::BTreeMap;

use crate::stats::Summary;

/// Seconds of passes one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SocketTrained,
    SocketDflt,
    ServeC4Long,
    ServeC1Short,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SocketTrained,
        Workload::SocketDflt,
        Workload::ServeC4Long,
        Workload::ServeC1Short,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SocketTrained => "socket_trained",
            Workload::SocketDflt => "socket_dflt",
            Workload::ServeC4Long => "serve_c4_long",
            Workload::ServeC1Short => "serve_c1_short",
        }
    }

    /// One line on why the workload exists (which layers it stresses and
    /// which it bypasses).
    pub fn why(self) -> &'static str {
        match self {
            Workload::SocketTrained => {
                "serve_demo --train behind real sockets: the live path, where the NN forward pass dominates each request"
            }
            Workload::SocketDflt => {
                "serve_demo with two tenants and no predictor: bypasses the NN, so only wire, pump, replay and recorder costs remain"
            }
            Workload::ServeC4Long => {
                "one long PrefetchServer::serve session at C=4 under Poisson load: pool pressure, batched inference, session bookkeeping"
            }
            Workload::ServeC1Short => {
                "fresh C=1 servers on short streams, the paper's setting: batches of one, no contention, bypasses pressure and bookkeeping"
            }
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_socket(self) -> bool {
        matches!(self, Workload::SocketTrained | Workload::SocketDflt)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// An end-to-end metric: what a user of the system would see. Every
/// workload reports every one of them (the socket workloads read the
/// virtual-time ones off the response bodies). `bound` is the share of the
/// parent's median by which it may worsen before a change is a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.1,
    },
    EndToEnd {
        name: "virt_mean_ms",
        unit: "ms",
        better: Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "virt_latency_speedup",
        unit: "x",
        better: Higher,
        bound: 0.15,
    },
];

/// Wall-clock numbers every timed run measures and prints next to the
/// end-to-end metrics, but which carry no bound: on the container the
/// bounds were set on, memory-bound code (all of this repository) slows by
/// 20–40 % for seconds to minutes at a time while arithmetic does not —
/// neighbours on the host — so over ten seeds their spread ran from 4 % to
/// 40 %, and the contract refuses a metric whose spread exceeds its bound
/// (at most 25 %). The traced run reports the same quantities per layer.
pub const REPORTED: [(&str, &str); 2] = [("host_qps", "1/s"), ("req_p50_ms", "ms")];

/// A per-layer metric: module names are the layers.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 65] = [
    layer("workloads.build_s", "s", Lower),
    layer("db.exec.execute_ms_per_query", "ms", Lower),
    layer("db.exec.events_per_query", "count", Lower),
    layer("core.predictor.train_s", "s", Lower),
    layer("core.predictor.train_examples_per_s", "1/s", Higher),
    layer("core.predictor.heldout_f1", "ratio", Higher),
    layer("core.predictor.model_bytes", "B", Lower),
    layer("nn.train_sys_cpu_share", "ratio", Lower),
    layer("nn.gemm_gflops_256", "GFLOP/s", Higher),
    layer("nn.gemm_gflops_decoder", "GFLOP/s", Higher),
    layer("core.serialize.encode_us", "us", Lower),
    layer("core.predictor.infer_ms", "ms", Lower),
    layer("nn.infer_other_width_ms", "ms", Lower),
    layer("nn.infer_sys_cpu_share", "ratio", Lower),
    layer("nn.ctx_switches_per_infer", "count", Lower),
    layer("core.predictor.infer_batch8_ms_per_query", "ms", Lower),
    layer("core.server.mean_infer_batch", "count", Higher),
    layer("core.prefetch.list_us", "us", Lower),
    layer("core.prefetch.pages_per_query", "count", Higher),
    layer("core.scheduler.pick16_us", "us", Lower),
    layer("db.runtime.replay_mevents_per_s", "M/s", Higher),
    layer("db.runtime.replay_prefetch_mevents_per_s", "M/s", Higher),
    layer("db.runtime.replay_us_per_query", "us", Lower),
    layer("db.runtime.session_step_ns_100", "ns", Lower),
    layer("db.runtime.session_step_ns_1600", "ns", Lower),
    layer("buffer.pool_ns_per_access", "ns", Lower),
    layer("buffer.aio_ns_per_page", "ns", Lower),
    layer("sim.oscache_ns_per_read", "ns", Lower),
    layer("sim.iopool_ns_per_schedule", "ns", Lower),
    layer("buffer.hit_rate", "ratio", Higher),
    layer("buffer.prefetch_precision", "ratio", Higher),
    layer("buffer.prefetch_wasted_share", "ratio", Lower),
    layer("buffer.evictions_per_query", "count", Lower),
    layer("sim.disk_reads_per_query", "count", Lower),
    layer("core.server.host_qps", "1/s", Higher),
    layer("core.server.dflt_host_qps", "1/s", Higher),
    layer("core.server.admission_us_per_query", "us", Lower),
    layer("core.server.mean_occupancy", "count", Higher),
    layer("core.server.max_queue_depth", "count", Lower),
    layer("core.server.virt_admission_wait_p99_ms", "ms", Lower),
    layer("core.server.virt_makespan_speedup", "x", Higher),
    layer("core.server.virt_latency_p95_ms", "ms", Lower),
    layer("core.server.admit_gap_p50_ms", "ms", Lower),
    layer("core.server.admit_gap_p95_ms", "ms", Lower),
    layer("core.frontend.healthz_roundtrip_us", "us", Lower),
    layer("core.frontend.query_roundtrip_us", "us", Lower),
    layer("core.frontend.outcome_json_ns", "ns", Lower),
    layer("obs.serve_overhead_pct", "%", Lower),
    layer("obs.ns_per_event", "ns", Lower),
    layer("obs.events_per_query", "count", Lower),
    layer("obs.rss_kb_per_request", "kB", Lower),
    layer("serve_demo.startup_s", "s", Lower),
    layer("serve_demo.threads_peak", "count", Lower),
    layer("serve_demo.host_qps", "1/s", Higher),
    layer("serve_demo.req_p50_ms", "ms", Lower),
    layer("serve_demo.req_p95_ms", "ms", Lower),
    layer("serve_demo.unattributed_ms", "ms", Lower),
    layer("client.connect_us", "us", Lower),
    layer("client.write_us", "us", Lower),
    layer("client.wait_us", "us", Lower),
    layer("client.read_us", "us", Lower),
    layer("bench.request_glue_us", "us", Lower),
    layer("bench.c1_host_ms_per_query", "ms", Lower),
    layer("bench.reconcile_serve_pct", "%", Higher),
    layer("bench.trace_overhead_pct", "%", Lower),
];

/// One measured value: the number reported, and how it came about.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    pub value: f64,
    /// Samples behind the value (passes, requests, rounds; 1 for a count).
    pub n: usize,
    /// Quartiles of those samples, where the value is their median.
    pub quartiles: Option<(f64, f64)>,
}

impl Value {
    /// A single reading or a count.
    pub fn one(value: f64) -> Value {
        Value {
            value,
            n: 1,
            quartiles: None,
        }
    }

    /// A statistic of `n` samples other than their median.
    pub fn of_n(value: f64, n: usize) -> Value {
        Value {
            value,
            n,
            quartiles: None,
        }
    }

    /// The median of `samples`.
    pub fn median_of(samples: &[f64]) -> Value {
        Value::median(Summary::of(samples))
    }

    /// The median of a summarised sample set.
    pub fn median(s: Summary) -> Value {
        Value {
            value: s.median,
            n: s.n,
            quartiles: Some((s.q1, s.q3)),
        }
    }
}

/// Metric name → value, as one run produced them.
pub type Values = BTreeMap<&'static str, Value>;

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name()),
                json_str(w.why())
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.as_str())
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut names = BTreeSet::new();
        for w in Workload::ALL {
            assert!(name_ok(w.name()) && names.insert(w.name()));
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        for m in &END_TO_END {
            assert!(
                name_ok(m.name) && unit_ok(m.unit) && names.insert(m.name),
                "{}",
                m.name
            );
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in &PER_LAYER {
            assert!(
                name_ok(m.name) && unit_ok(m.unit) && names.insert(m.name),
                "{}",
                m.name
            );
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s gets the largest bound"
        );
        assert!(benchmark_json().len() < 64 * 1024);
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_at_the_root_is_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with: benchmark/run.sh --describe > BENCHMARK.json"
        );
    }
}
