//! End-to-end checks of the observability layer (`pythia-obs`) against the
//! serving stack:
//!
//! * trace counters and instant events reconcile **exactly** with the
//!   `BufferStats` the runtime reports (hits / OS copies / disk reads /
//!   prefetch issued),
//! * per-query `query.replay*` span ends reconcile exactly with the
//!   runtime's and server's reported end times (the server test names its
//!   spans per template, e.g. `query.replay.T18`),
//! * two same-seed runs produce **byte-identical** virtual-time traces,
//! * the emitted Chrome trace JSON is schema-valid (the exact shape
//!   Perfetto's legacy JSON importer accepts), and
//! * the metrics snapshot JSON parses with the documented structure.

use pythia::core::server::{
    AdmissionMode, InferenceCharge, PrefetchServer, QueuePolicy, ServerConfig, ServerRequest,
};
use pythia::db::catalog::{Database, ObjectId};
use pythia::db::plan::PlanNode;
use pythia::db::runtime::{QueryRun, RunConfig, Runtime};
use pythia::db::trace::{AccessKind, Trace, TraceEvent};
use pythia::db::types::Schema;
use pythia::obs::Recorder;
use pythia::sim::{FileId, PageId, SimDuration};
use pythia::workloads::templates::Template;

fn fixture_db() -> Database {
    let mut db = Database::new();
    let t = db.create_table("t", Schema::ints(&["a"]));
    for i in 0..2000i64 {
        db.insert(t, Database::row(&[i]));
    }
    db
}

fn seq_trace(start: u32, n: u32) -> Trace {
    (start..start + n)
        .map(|p| TraceEvent::Read {
            obj: ObjectId(0),
            page: PageId::new(FileId(0), p),
            kind: AccessKind::SeqScan,
        })
        .collect()
}

/// Replay a small batch — one query with an explicit prefetch plan, one
/// without — on a traced runtime and return the result plus the recorder.
fn traced_run(db: &Database) -> (pythia::db::runtime::RunResult, Recorder) {
    let cfg = RunConfig {
        pool_frames: 64,
        os_cache_pages: 96,
        ..Default::default()
    };
    let mut rt = Runtime::new(&cfg, db.file_lengths());
    rt.set_recorder(Recorder::enabled());
    let t0 = seq_trace(0, 24);
    let t1 = seq_trace(12, 24);
    let prefetch: Vec<PageId> = (0..24).map(|p| PageId::new(FileId(0), p)).collect();
    let res = rt.run(&[
        QueryRun::with_prefetch(&t0, prefetch, SimDuration::from_micros(80)),
        QueryRun::default_run(&t1),
    ]);
    (res, rt.take_recorder())
}

#[test]
fn trace_counters_reconcile_exactly_with_buffer_stats() {
    let db = fixture_db();
    let (res, rec) = traced_run(&db);
    let s = res.stats;
    assert!(s.total_reads() == 48, "fixture should replay 48 reads");
    assert!(s.prefetch_issued > 0, "fixture should actually prefetch");

    // Counters at the exact BufferStats increment sites.
    assert_eq!(rec.counter("reads.hit"), s.hits);
    assert_eq!(rec.counter("reads.os_copy"), s.os_copies);
    assert_eq!(rec.counter("reads.disk"), s.disk_reads);
    assert_eq!(rec.counter("prefetch.issued"), s.prefetch_issued);
    assert_eq!(rec.counter("reads.prefetch_wait"), s.prefetch_waits);
    assert_eq!(
        rec.counter("prefetch.already_resident"),
        s.prefetch_already_resident
    );
    assert_eq!(rec.counter("prefetch.useful"), s.prefetch_useful);
    assert_eq!(rec.counter("buffer.evictions"), s.evictions);
    assert_eq!(rec.counter("queries.replayed"), 2);

    // One instant per classified read, one I/O span per issued prefetch.
    assert_eq!(rec.event_count("read.hit") as u64, s.hits);
    assert_eq!(rec.event_count("read.os_copy") as u64, s.os_copies);
    assert_eq!(rec.event_count("read.disk") as u64, s.disk_reads);
    assert_eq!(rec.event_count("prefetch.io") as u64, s.prefetch_issued);
}

#[test]
fn replay_span_ends_reconcile_exactly_with_timings() {
    let db = fixture_db();
    let (res, rec) = traced_run(&db);
    let mut span_ends: Vec<u64> = rec
        .events()
        .iter()
        .filter(|e| e.name == "query.replay")
        .map(|e| e.ts_us + e.dur_us.expect("replay is a complete span"))
        .collect();
    span_ends.sort_unstable();
    let mut timing_ends: Vec<u64> = res.timings.iter().map(|t| t.end.as_micros()).collect();
    timing_ends.sort_unstable();
    assert_eq!(span_ends, timing_ends);
}

#[test]
fn traced_server_reconciles_and_virtual_trace_is_deterministic() {
    let db = fixture_db();
    let serve = || {
        let run_cfg = RunConfig {
            pool_frames: 64,
            os_cache_pages: 96,
            ..Default::default()
        };
        let cfg = ServerConfig {
            concurrency: 2,
            admission: AdmissionMode::Continuous,
            policy: QueuePolicy::Overlap,
            charge: InferenceCharge::Fixed(SimDuration::from_micros(40)),
            prefetch_budget: Some(16),
            tenant_quota: None,
        };
        let traces: Vec<Trace> = (0..6).map(|q| seq_trace(q * 13, 20)).collect();
        let requests: Vec<ServerRequest<'_>> = traces
            .iter()
            .enumerate()
            .map(|(i, trace)| ServerRequest {
                plan: &PlanNode::SeqScan {
                    table: pythia::db::catalog::TableId(0),
                    pred: None,
                },
                trace,
                arrival: SimDuration::from_micros(150 * i as u64),
                // Alternate templates so the trace groups repeated shapes.
                span_name: [Template::T18, Template::T91][i % 2].replay_span(),
                tenant: 0,
                request: 0,
            })
            .collect();
        let mut server = PrefetchServer::new(&db, &run_cfg, cfg);
        server.set_recorder(Recorder::enabled());
        let report = server.serve(&requests);
        (report, server.take_recorder())
    };
    let (report, rec) = serve();

    // Counter reconciliation at the server level.
    assert_eq!(rec.counter("reads.hit"), report.stats.hits);
    assert_eq!(rec.counter("reads.os_copy"), report.stats.os_copies);
    assert_eq!(rec.counter("reads.disk"), report.stats.disk_reads);
    assert_eq!(rec.counter("prefetch.issued"), report.stats.prefetch_issued);
    // The admission loop's vocabulary: one arrival, one admission and one
    // completion per query.
    let n = report.queries.len() as u64;
    assert_eq!(report.waves.len() as u64, n);
    for counter in ["server.arrivals", "server.admitted", "server.completions"] {
        assert_eq!(rec.counter(counter), n, "{counter}");
    }

    // Per-query replay span ends == ServeReport end times. Spans carry
    // template-derived names, so match on the shared prefix.
    let replay_spans: Vec<_> = rec
        .events()
        .iter()
        .filter(|e| e.name.starts_with("query.replay."))
        .collect();
    for t in [Template::T18, Template::T91] {
        assert_eq!(
            replay_spans
                .iter()
                .filter(|e| e.name == t.replay_span())
                .count(),
            3,
            "three queries per template in the fixture"
        );
    }
    let mut span_ends: Vec<u64> = replay_spans
        .iter()
        .map(|e| e.ts_us + e.dur_us.unwrap())
        .collect();
    span_ends.sort_unstable();
    let mut report_ends: Vec<u64> = report.queries.iter().map(|q| q.end.as_micros()).collect();
    report_ends.sort_unstable();
    assert_eq!(span_ends, report_ends);

    // Same stack, same seed → byte-identical virtual-clock traces.
    let (_, rec2) = serve();
    assert_eq!(rec.virtual_trace_json(), rec2.virtual_trace_json());
}

#[test]
fn served_trace_carries_flow_linked_request_spans() {
    let db = fixture_db();
    let run_cfg = RunConfig {
        pool_frames: 64,
        os_cache_pages: 96,
        ..Default::default()
    };
    let cfg = ServerConfig {
        concurrency: 2,
        admission: AdmissionMode::Continuous,
        policy: QueuePolicy::Fifo,
        charge: InferenceCharge::Fixed(SimDuration::from_micros(40)),
        prefetch_budget: Some(16),
        tenant_quota: None,
    };
    let traces: Vec<Trace> = (0..4).map(|q| seq_trace(q * 11, 16)).collect();
    let requests: Vec<ServerRequest<'_>> = traces
        .iter()
        .enumerate()
        .map(|(i, trace)| ServerRequest {
            plan: &PlanNode::SeqScan {
                table: pythia::db::catalog::TableId(0),
                pred: None,
            },
            trace,
            arrival: SimDuration::from_micros(100 * i as u64),
            span_name: Template::T18.replay_span(),
            tenant: 0,
            request: 0,
        })
        .collect();
    let mut server = PrefetchServer::new(&db, &run_cfg, cfg);
    server.set_recorder(Recorder::enabled());
    let report = server.serve(&requests);
    let rec = server.take_recorder();

    // Zero ids are replaced with per-serve ordinals.
    for (i, q) in report.queries.iter().enumerate() {
        assert_eq!(q.request, i as u64 + 1, "serve assigns ordinal request ids");
    }

    // The request span tree: one queue/admission/infer/replay span per query.
    for name in [
        "request.queue",
        "request.admission",
        "request.infer",
        "request.replay",
    ] {
        assert_eq!(rec.event_count(name), 4, "one {name} span per query");
    }

    // request.replay ends reconcile with the report's per-query end times.
    let mut span_ends: Vec<u64> = rec
        .events()
        .iter()
        .filter(|e| e.name == "request.replay")
        .map(|e| e.ts_us + e.dur_us.expect("request.replay is a complete span"))
        .collect();
    span_ends.sort_unstable();
    let mut report_ends: Vec<u64> = report.queries.iter().map(|q| q.end.as_micros()).collect();
    report_ends.sort_unstable();
    assert_eq!(span_ends, report_ends);

    // Chrome export links each request track to the server track with one
    // flow start + one flow finish carrying the request id.
    let json = rec.chrome_trace_json();
    let v: serde_json::Value = serde_json::from_str(&json).expect("trace must be valid JSON");
    let mut starts = std::collections::BTreeSet::new();
    let mut finishes = std::collections::BTreeSet::new();
    for e in v.as_array().expect("trace is a JSON array") {
        match e["ph"].as_str().expect("ph is a string") {
            "s" => {
                starts.insert(e["id"].as_u64().expect("flow start id"));
            }
            "f" => {
                assert_eq!(e["bp"].as_str(), Some("e"), "flow finish binds enclosing");
                finishes.insert(e["id"].as_u64().expect("flow finish id"));
            }
            _ => {}
        }
    }
    let want: std::collections::BTreeSet<u64> = (1..=4).collect();
    assert_eq!(starts, want, "one flow start per request id");
    assert_eq!(finishes, want, "one flow finish per request id");
}

#[test]
fn chrome_trace_json_is_schema_valid() {
    let db = fixture_db();
    let (_, rec) = traced_run(&db);
    let json = rec.chrome_trace_json();
    let v: serde_json::Value = serde_json::from_str(&json).expect("trace must be valid JSON");
    let events = v.as_array().expect("trace is a JSON array");
    assert!(!events.is_empty());

    let mut phases = std::collections::BTreeSet::new();
    for e in events {
        let obj = e.as_object().expect("every event is an object");
        let ph = obj["ph"].as_str().expect("ph is a string");
        phases.insert(ph.to_owned());
        let pid = obj["pid"].as_u64().expect("pid is an integer");
        assert!(pid == 1 || pid == 2, "unknown trace process {pid}");
        assert!(obj["tid"].is_u64(), "tid is an integer");
        match ph {
            "M" => {
                let name = obj["name"].as_str().unwrap();
                assert!(
                    name == "process_name" || name == "thread_name",
                    "unexpected metadata record {name}"
                );
                assert!(obj["args"]["name"].is_string());
            }
            "X" => {
                assert!(obj["ts"].is_u64());
                assert!(obj["dur"].is_u64());
                assert!(obj["cat"].is_string());
                assert!(obj["name"].is_string());
            }
            "i" => {
                assert!(obj["ts"].is_u64());
                assert_eq!(obj["s"].as_str(), Some("t"), "instants are thread-scoped");
                assert!(obj["name"].is_string());
            }
            "s" | "f" => {
                // Flow events (request linking): numeric id instead of
                // dur/s; finishes bind to the enclosing slice.
                assert!(obj["ts"].is_u64());
                assert!(obj["id"].is_u64(), "flow events carry a numeric id");
                assert!(obj["name"].is_string());
                if ph == "f" {
                    assert_eq!(obj["bp"].as_str(), Some("e"), "flow finish binds enclosing");
                }
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    for required in ["M", "X", "i"] {
        assert!(phases.contains(required), "trace never emitted {required}");
    }
}

#[test]
fn metrics_snapshot_json_parses_with_documented_shape() {
    let db = fixture_db();
    let (_, rec) = traced_run(&db);
    let v: serde_json::Value =
        serde_json::from_str(&rec.snapshot().to_json()).expect("snapshot must be valid JSON");
    let counters = v["counters"].as_object().expect("counters object");
    assert!(counters.contains_key("reads.hit"));
    assert!(counters.values().all(serde_json::Value::is_u64));
    let hists = v["histograms_us"].as_object().expect("histograms object");
    assert!(hists.contains_key("read.service_us"));
    for (name, h) in hists {
        for field in ["count", "sum", "min", "max", "p50", "p90", "p95", "p99"] {
            assert!(h[field].is_u64(), "histogram {name} missing {field}");
        }
    }
}

#[test]
fn disabled_recorder_emits_nothing() {
    let db = fixture_db();
    let cfg = RunConfig::default();
    let mut rt = Runtime::new(&cfg, db.file_lengths());
    let t0 = seq_trace(0, 16);
    let _ = rt.run(&[QueryRun::default_run(&t0)]);
    let rec = rt.take_recorder();
    assert!(!rec.is_enabled());
    assert!(rec.events().is_empty());
    assert_eq!(rec.chrome_trace_json(), "[\n]\n");
}
