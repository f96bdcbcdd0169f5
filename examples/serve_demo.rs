//! A live prefetch-serving endpoint you can hit with `curl` or netcat.
//!
//! ```bash
//! cargo run --release --example serve_demo -- --addr 127.0.0.1:7878 --tenants 2
//! # then, from another shell:
//! curl http://127.0.0.1:7878/healthz
//! curl http://127.0.0.1:7878/query/0          # tenant 0 (legacy route)
//! curl http://127.0.0.1:7878/t/1/query/0      # tenant 1
//! curl http://127.0.0.1:7878/t/1/stats        # tenant-scoped counters
//! curl http://127.0.0.1:7878/t/1/health       # live quality/drift snapshot
//! curl http://127.0.0.1:7878/stats
//! curl http://127.0.0.1:7878/shutdown
//! ```
//!
//! Builds one small DSB-like benchmark database **per tenant** (different
//! generator seeds) with a catalog of Template-18 queries, then puts the
//! zero-dependency TCP [`Frontend`] in front of a [`PrefetchServer`] fleet —
//! one server per tenant, each over its own database — and hands both to
//! [`pump`], the library's serving loop: `GET /t/<tenant>/query/<idx>`
//! becomes an arrival submitted to that tenant's long-lived session, answered
//! with the query's virtual-time outcome as JSON the moment its completion
//! is polled. Requests beyond the queue depth target are load-shed with
//! `503 Retry-After`.
//!
//! What this file decides is the deployment: the flags, the fixtures, whether
//! to train, the two listen addresses, what `/t/<tenant>/health` reports,
//! which recorder publishes where — and what happens at each answer (the
//! `/debug/slow` log, the `--force-drift` drill). The loop itself is not here.
//!
//! Flags:
//!
//! * `--addr <host:port>` — listen address (default `127.0.0.1:0`, i.e. an
//!   ephemeral port; the bound address is printed on startup).
//! * `--shed-depth <n>` — queue depth target above which requests are shed
//!   (default 32).
//! * `--tenants <n>` — number of tenant databases to serve (default 1).
//! * `--train` — train a Pythia predictor per tenant and publish it through
//!   the hot-swappable model registry (slower startup; admitted queries then
//!   replay with learned prefetching).
//! * `--metrics-addr <host:port>` — listen address for the metrics/debug
//!   endpoint (default `127.0.0.1:0`). Serves `/metrics`, `/metrics.json`,
//!   `/debug/slow` (top-K slowest requests with latency breakdowns) and
//!   `/debug/flight` (the latest anomaly-triggered postmortem trace dump).
//! * `--slow-ms <n>` — virtual-time latency (milliseconds) above which a
//!   completion counts as a slow request and triggers a flight-recorder
//!   dump (default 0 = disabled).
//! * `--flight-out <path>` — write the latest flight dump (Chrome-trace
//!   JSON) to `path` on shutdown.
//! * `--force-drift <tenant>` — raise one operator-drill drift alert on
//!   that tenant after its first served request; exercises the full
//!   drift-alert + postmortem-dump path deterministically (the CI anomaly
//!   smoke).
//!
//! Anomaly triggers that dump the flight recorder into `/debug/flight`:
//! drift alerts (real or drilled), slow requests over `--slow-ms`, and shed
//! bursts (8+ newly shed requests between drains).
//!
//! **What a long-lived process retains.** Each tenant's recorder is
//! [`Recorder::bounded`]: counters, histograms and labeled series (what
//! `/metrics` serves), plus the last 4096 trace events and their track names
//! in a fixed ring (what a flight dump renders). Its memory does not grow
//! with requests served. A full trace is a *capture* — `Recorder::enabled()`,
//! which keeps every event and is what `serving --trace-out` and the tests
//! run for as long as a run lasts — not something a server holds by default.
//!
//! `/shutdown` serves what the front had accepted by then, settles every
//! session and exits cleanly (later arrivals get `503`) — that is how the CI
//! smoke test stops the demo.

use std::sync::{Arc, Mutex};

use pythia::core::frontend::{pump, Tenant};
use pythia::core::registry::ModelRegistry;
use pythia::core::{
    train_workload, Frontend, FrontendConfig, InferenceCharge, PrefetchServer, PythiaConfig,
    ServerConfig, ServerRequest,
};
use pythia::db::runtime::RunConfig;
use pythia::obs::flight::SharedFlight;
use pythia::obs::quality::QualityTracker;
use pythia::obs::request::SharedSlowLog;
use pythia::obs::serve::{DebugEndpoints, MetricsServer, SharedSnapshot};
use pythia::obs::{lock, Recorder};
use pythia::sim::SimDuration;
use pythia::workloads::templates::{sample_workload, Template};
use pythia::workloads::{build_benchmark, GeneratorConfig};

/// Value of a `--<name> <value>` (or `--<name>=<value>`) flag, if present.
fn flag_value(name: &str) -> Option<String> {
    let long = format!("--{name}");
    let prefixed = format!("--{name}=");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == long {
            return args.next();
        }
        if let Some(p) = a.strip_prefix(&prefixed) {
            return Some(p.to_owned());
        }
    }
    None
}

fn main() {
    let addr = flag_value("addr").unwrap_or_else(|| "127.0.0.1:0".to_owned());
    let shed_depth: usize = flag_value("shed-depth")
        .map(|v| v.parse().expect("--shed-depth takes an integer"))
        .unwrap_or(32);
    let tenants: usize = flag_value("tenants")
        .map(|v| v.parse().expect("--tenants takes an integer"))
        .unwrap_or(1)
        .max(1);
    let train = std::env::args().any(|a| a == "--train");
    let metrics_addr = flag_value("metrics-addr").unwrap_or_else(|| "127.0.0.1:0".to_owned());
    let slow_ms: u64 = flag_value("slow-ms")
        .map(|v| v.parse().expect("--slow-ms takes an integer"))
        .unwrap_or(0);
    let flight_out = flag_value("flight-out");
    let force_drift: Option<u32> =
        flag_value("force-drift").map(|v| v.parse().expect("--force-drift takes a tenant index"));

    eprintln!("[serve_demo] building {tenants} tenant database(s) + query catalogs...");
    let benches: Vec<_> = (0..tenants)
        .map(|t| {
            build_benchmark(&GeneratorConfig {
                scale: 0.05,
                seed: 7 + t as u64,
            })
        })
        .collect();
    let catalogs: Vec<_> = benches
        .iter()
        .map(|b| {
            let queries = sample_workload(b, Template::T18, 12, 42);
            let traces: Vec<_> = queries
                .iter()
                .map(|q| pythia::db::exec::execute(&q.plan, &b.db).1)
                .collect();
            (queries, traces)
        })
        .collect();
    let catalog_len = catalogs[0].0.len();

    // Optionally train Pythia per tenant and publish through the model
    // registry (versioned, hot-swappable mid-serving); without --train the
    // demo serves the DFLT baseline (instant startup, which is what the CI
    // smoke test wants).
    let registry = ModelRegistry::new();
    if train {
        for (t, (b, (queries, traces))) in benches.iter().zip(&catalogs).enumerate() {
            eprintln!("[serve_demo] training tenant {t}'s predictor (--train)...");
            let plans: Vec<_> = queries.iter().map(|q| q.plan.clone()).collect();
            let tw = train_workload(
                &b.db,
                "demo-t18",
                &plans,
                traces,
                None,
                &PythiaConfig::fast(),
            );
            let v = registry.tenant(&format!("tenant{t}")).publish(tw);
            eprintln!("[serve_demo] tenant {t} fleet at version {v}");
        }
    }

    let fe = Frontend::start(
        &addr,
        FrontendConfig {
            shed_depth,
            tenants,
            ..FrontendConfig::new(catalog_len)
        },
    )
    .unwrap_or_else(|e| panic!("binding {addr}: {e}"));
    println!("serve_demo listening on http://{}", fe.addr());
    println!(
        "  catalog: {} Template-18 queries x {} tenant(s); predictor: {}",
        catalog_len,
        tenants,
        if train { "trained" } else { "none (DFLT)" }
    );
    println!("  try: curl http://{}/query/0", fe.addr());
    println!("  try: curl http://{}/t/0/health", fe.addr());
    if tenants > 1 {
        println!("  try: curl http://{}/t/1/query/0", fe.addr());
        println!("  try: curl http://{}/t/1/stats", fe.addr());
    }
    println!("  stop: curl http://{}/shutdown", fe.addr());

    // Live metrics plus the postmortem debug surface. The flight recorder
    // and slow log are shared by the whole tenant fleet: any server's
    // anomaly trigger publishes the dump `/debug/flight` serves, and every
    // completion feeds the top-K slow log behind `/debug/slow`.
    let snap = SharedSnapshot::new();
    let flight = SharedFlight::new();
    let slow_log = SharedSlowLog::new();
    let metrics = MetricsServer::start_with_debug(
        &metrics_addr,
        snap.clone(),
        DebugEndpoints {
            flight: flight.clone(),
            slow: slow_log.clone(),
        },
    )
    .unwrap_or_else(|e| panic!("binding metrics {metrics_addr}: {e}"));
    println!("serve_demo metrics on http://{}/metrics", metrics.addr());
    println!(
        "  debug: http://{0}/debug/slow and http://{0}/debug/flight",
        metrics.addr()
    );

    // One quality tracker shared by the whole fleet (it is keyed by tenant
    // internally) feeds the per-tenant /t/<tenant>/health route: rolling
    // quality windows, drift detectors, the fleet's live model version, and
    // this front's own per-tenant counters.
    let quality = Arc::new(Mutex::new(QualityTracker::default()));
    let fleets: Vec<_> = (0..tenants)
        .map(|t| registry.tenant(&format!("tenant{t}")))
        .collect();
    {
        let quality = Arc::clone(&quality);
        fe.set_health_provider(Arc::new(move |tenant, stats| {
            let version = fleets
                .get(tenant as usize)
                .and_then(|f| f.any())
                .map(|v| v.version);
            Some(lock(&quality).health_json(
                tenant,
                version,
                Some((stats.accepted, stats.shed, stats.rejected)),
            ))
        }));
    }

    let cfg = ServerConfig {
        concurrency: 2,
        charge: InferenceCharge::Fixed(SimDuration::from_micros(150)),
        ..ServerConfig::default()
    };
    let mut fleet: Vec<Tenant<'_>> = benches
        .iter()
        .zip(&catalogs)
        .enumerate()
        .map(|(t, (b, (queries, traces)))| {
            let mut s = PrefetchServer::new(&b.db, &RunConfig::default(), cfg)
                .with_quality(Arc::clone(&quality));
            if train {
                s = s.with_registry(registry.tenant(&format!("tenant{t}")));
            }
            // Every tenant's recorder can publish postmortem dumps; tenant
            // 0's additionally feeds the /metrics snapshot (one snapshot
            // cell — per-tenant quality lives at /t/<tenant>/health).
            let mut rec = Recorder::bounded();
            rec.set_flight_publisher(flight.clone());
            if t == 0 {
                rec.set_publisher(snap.clone());
            }
            s.set_recorder(rec);
            if slow_ms > 0 {
                s.set_slow_threshold(Some(SimDuration::from_millis(slow_ms)));
            }
            // What `/t/<t>/query/<idx>` submits: a template-derived span so
            // the quality tracker slots outcomes under the template, not an
            // anonymous replay.
            let catalog = queries
                .iter()
                .zip(traces)
                .map(|(q, trace)| ServerRequest {
                    span_name: Template::T18.replay_span(),
                    ..ServerRequest::new(&q.plan, trace, SimDuration::ZERO).with_tenant(t as u32)
                })
                .collect();
            Tenant { server: s, catalog }
        })
        .collect();

    // Serve until `/shutdown`. Every answer feeds the /debug/slow top-K log
    // with the request's queue/admission/inference/replay breakdown, and the
    // drilled tenant's first one raises the operator-drill drift alert.
    let mut drift_fired = false;
    pump(&fe, &mut fleet, |t, _query, outcome, server| {
        slow_log.offer(outcome.breakdown());
        if force_drift == Some(t as u32) && !drift_fired {
            drift_fired = true;
            let now_us = outcome.end.as_micros();
            let alert = lock(&quality).force_alert(t as u32, now_us, server.recorder_mut());
            eprintln!(
                "[serve_demo] forced drift drill on tenant {t}: kind {}, flight dump captured",
                alert.kind.name()
            );
        }
    });

    if let Some(path) = flight_out {
        match flight.get() {
            Some(d) => {
                std::fs::write(&path, &d.trace_json)
                    .unwrap_or_else(|e| panic!("writing {path}: {e}"));
                println!("flight dump ({}) written to {path}", d.reason);
            }
            None => eprintln!(
                "[serve_demo] no flight dump captured (no anomaly trigger fired); {path} not written"
            ),
        }
    }
    let stats = fe.stats();
    println!(
        "serve_demo done: accepted {} shed {} rejected {}",
        stats.accepted, stats.shed, stats.rejected
    );
    metrics.shutdown();
    fe.shutdown();
}
