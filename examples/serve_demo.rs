//! A live prefetch-serving endpoint you can hit with `curl` or netcat.
//!
//! ```bash
//! cargo run --release --example serve_demo -- --addr 127.0.0.1:7878 --tenants 2
//! # then, from another shell:
//! curl http://127.0.0.1:7878/healthz
//! curl http://127.0.0.1:7878/query/0          # tenant 0 (legacy route)
//! curl http://127.0.0.1:7878/t/1/query/0      # tenant 1
//! curl http://127.0.0.1:7878/t/1/stats        # tenant-scoped counters
//! curl http://127.0.0.1:7878/t/1/health       # live quality snapshot
//! curl http://127.0.0.1:7878/stats
//! curl http://127.0.0.1:7878/metrics          # tenant 0's recorder, Prometheus text
//! curl http://127.0.0.1:7878/debug/slow       # top-K slowest requests
//! curl http://127.0.0.1:7878/debug/flight     # latest flight-recorder dump
//! curl http://127.0.0.1:7878/shutdown
//! ```
//!
//! Builds one small DSB-like benchmark database **per tenant** (different
//! generator seeds) with a catalog of Template-18 queries, runs each
//! catalog once to record the traces it replays, then puts the
//! zero-dependency TCP [`Frontend`] in front of a [`PrefetchServer`] fleet —
//! one server per tenant, each over its own database — and hands both to
//! [`pump`], the library's serving loop: `GET /t/<tenant>/query/<idx>`
//! becomes an arrival submitted to that tenant's long-lived session, answered
//! with the query's virtual-time outcome as JSON the moment its completion
//! is polled. Requests beyond the queue depth target are load-shed with
//! `503 Retry-After`. The same socket serves `/t/<tenant>/health` (from each
//! tenant's own quality tracker), `/metrics`, `/metrics.json`, `/debug/slow`
//! and `/debug/flight`, which the pump keeps current.
//!
//! What this file decides is the deployment: the flags, the fixtures, whether
//! to train, the listen address, which servers keep a quality tracker and
//! which recorders are bounded. The loop itself is not here.
//!
//! Flags:
//!
//! * `--addr <host:port>` — listen address (default `127.0.0.1:0`, i.e. an
//!   ephemeral port; the bound address is printed on startup).
//! * `--shed-depth <n>` — queue depth target above which requests are shed
//!   (default 32).
//! * `--tenants <n>` — number of tenant databases to serve (default 1).
//! * `--train` — train a Pythia predictor per tenant and publish it to that
//!   tenant's hot-swappable [`TenantFleet`] (slower startup; admitted queries
//!   then replay with learned prefetching).
//! * `--slow-ms <n>` — virtual-time latency (milliseconds) above which a
//!   completion counts as a slow request and triggers a flight-recorder
//!   dump (default 0 = disabled).
//! * `--flight-out <path>` — write the latest flight dump (Chrome-trace
//!   JSON) to `path` on shutdown.
//!
//! Anomaly triggers that dump the flight recorder into `/debug/flight`: slow
//! requests over `--slow-ms`, and shed bursts (8+ newly shed requests between
//! drains).
//!
//! **What a long-lived process retains.** Each tenant's database keeps its
//! catalog, its column bounds and its files' lengths, not its pages. Set-up
//! runs one tenant at a time: build the database with rows in only the six
//! tables Template 18 reads ([`build_for`]: every table and index is still
//! created, so every id is a whole build's), sample the catalog and execute
//! it once to record its traces, release the page bytes
//! ([`SimDisk::release_pages`]), then — with `--train` — train on the
//! released database, hand what the set-up freed back to the OS
//! ([`return_freed_memory`]), and only then build the next tenant. Serving
//! replays the recorded traces and encodes plans against the catalog, and
//! training reads no page either, so at most one tenant's pages (414 of the
//! 925 a whole build makes, ≈ 0.85 MB at this scale) are ever live, none
//! while a model trains, and no page byte outlives set-up, on the heap or in
//! the resident set. Freeing alone is not enough for the second: glibc keeps
//! freed memory mapped, and once tenant 0's largest page vector is unmapped,
//! its raised mmap threshold puts tenant 1's pages on the heap, whose release
//! then returns nothing.
//! `docs/measurements.md` ("Freed set-up heap goes back to the OS") has the
//! resident set at each stage, with and without the trim. Each tenant's
//! recorder is [`Recorder::bounded`]: counters and histograms (what
//! `/metrics` serves), plus the last 4096 trace events in a fixed ring —
//! 4096 slots of 80 bytes, 320 KiB per tenant, allocated at start. Nothing
//! is kept per track: a flight dump names each track it has an event on
//! when it renders, by rule from the track's ids (`request-42`, `query-7`,
//! `serving-loop`), so a tenant's recorder holds the same heap after its
//! first request as after its millionth. Each tenant's OS cache grows with
//! the pages its database has, not the 8192 its run configuration allows. A
//! full trace is a *capture* — `Recorder::enabled()`, which keeps every
//! event and is what `serving --trace-out` and the tests run for as long as
//! a run lasts — not something a server holds by default.
//!
//! [`build_for`]: pythia::workloads::build_for
//! [`SimDisk::release_pages`]: pythia::sim::SimDisk::release_pages
//! [`return_freed_memory`]: pythia::sim::return_freed_memory
//!
//! `/shutdown` serves what the front had accepted by then, settles every
//! session and exits cleanly (later arrivals get `503`) — that is how the CI
//! smoke test stops the demo.

use std::sync::Arc;

use pythia::core::frontend::{pump, Tenant};
use pythia::core::prefetch::INFER_CHARGE;
use pythia::core::quality::QualityTracker;
use pythia::core::{
    train_workload, Frontend, FrontendConfig, InferenceCharge, PrefetchServer, PythiaConfig,
    ServerConfig, ServerRequest, TenantFleet,
};
use pythia::db::runtime::RunConfig;
use pythia::obs::Recorder;
use pythia::sim::{return_freed_memory, SimDuration};
use pythia::workloads::templates::{sample_workload, Template};
use pythia::workloads::{build_for, GeneratorConfig};

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
    let slow_ms: u64 = flag_value("slow-ms")
        .map(|v| v.parse().expect("--slow-ms takes an integer"))
        .unwrap_or(0);
    let flight_out = flag_value("flight-out");

    // One model fleet per tenant (versioned, hot-swappable mid-serving).
    // Without --train a fleet stays empty and its tenant is served by the
    // DFLT baseline (instant startup, which is what the CI smoke test wants).
    let fleets: Vec<Arc<TenantFleet>> =
        (0..tenants).map(|_| Arc::new(TenantFleet::new())).collect();
    // One tenant at a time: build its database, sample its catalog and run
    // it once to record the traces that serving replays, release the
    // database's page bytes (serving and training read only its catalog,
    // column bounds and file lengths), and only then train — so at most one
    // tenant's pages are ever live, and training holds none.
    let tenant_dbs: Vec<_> = (0..tenants)
        .map(|t| {
            eprintln!("[serve_demo] building tenant {t}'s database + query catalog...");
            let mut b = build_for(
                &GeneratorConfig {
                    scale: 0.05,
                    seed: 7 + t as u64,
                },
                &[Template::T18],
            );
            let queries = sample_workload(&b, Template::T18, 12, 42);
            let traces: Vec<_> = queries
                .iter()
                .map(|q| pythia::db::exec::execute(&q.plan, &b.db).1)
                .collect();
            b.db.disk.release_pages();
            if train {
                eprintln!("[serve_demo] training tenant {t}'s predictor (--train)...");
                let plans: Vec<_> = queries.iter().map(|q| q.plan.clone()).collect();
                // The paper's threshold, not a calibrated one: the demo's
                // 1 024-frame pool holds each tenant's database whole, which a
                // calibration stack sized to the database would not model.
                let cfg = PythiaConfig {
                    threshold: Some(0.5),
                    ..PythiaConfig::fast()
                };
                let tw = train_workload(&b.db, "demo-t18", &plans, &traces, None, &cfg);
                let v = fleets[t].publish(tw);
                eprintln!("[serve_demo] tenant {t} fleet at version {v}");
            }
            // What this set-up freed (the pages, training's moments and
            // gradients) goes back to the OS, so the next tenant and the
            // front start from a trimmed heap.
            return_freed_memory();
            (b, queries, traces)
        })
        .collect();
    let catalog_len = tenant_dbs[0].1.len();

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
    println!(
        "  metrics: http://{0}/metrics; debug: http://{0}/debug/slow and http://{0}/debug/flight",
        fe.addr()
    );
    println!("  stop: curl http://{}/shutdown", fe.addr());

    let cfg = ServerConfig {
        concurrency: 2,
        charge: InferenceCharge::Fixed(INFER_CHARGE),
        ..ServerConfig::default()
    };
    let mut fleet: Vec<Tenant<'_>> = tenant_dbs
        .iter()
        .enumerate()
        .map(|(t, (b, queries, traces))| {
            // Each server's own tracker is what its /t/<tenant>/health serves;
            // without --train its fleet stays empty, the DFLT server.
            let mut s = PrefetchServer::new(&b.db, &RunConfig::default(), cfg)
                .with_registry(Arc::clone(&fleets[t]))
                .with_quality(QualityTracker::default());
            // Metrics and a fixed event ring: tenant 0's snapshot is what
            // /metrics serves, and every tenant's ring can feed /debug/flight.
            s.set_recorder(Recorder::bounded());
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

    // Serve until `/shutdown`.
    pump(&fe, &mut fleet, |_, _, _| {});

    if let Some(path) = flight_out {
        match fe.flight_dump() {
            Some(dump) => {
                std::fs::write(&path, dump).unwrap_or_else(|e| panic!("writing {path}: {e}"));
                println!("flight dump written to {path}");
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
    fe.shutdown();
}
