//! Property tests for the admission-controlled serving loop: with
//! concurrency limit 1, FIFO admission and a fixed inference charge, serving
//! a request stream must be **bit-identical** — per-query start/end
//! instants, final clock and every buffer counter — to replaying the same
//! queries serially through `Runtime::run` on one warm stack, across random
//! traces, arrival patterns and stack sizings: at C=1 the admit-on-completion
//! scheduler degenerates to the serial schedule. (The barrier-wave baseline's
//! copy of this pin lives next to it, in `pythia-experiments::serving`.)

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use pythia::core::predictor::TrainedWorkload;
use pythia::core::registry::TenantFleet;
use pythia::core::server::{
    AdmissionMode, InferenceCharge, PrefetchServer, QueuePolicy, ServerConfig, ServerRequest,
};
use pythia::core::{train_workload, PythiaConfig};
use pythia::db::catalog::{Database, ObjectId};
use pythia::db::expr::Pred;
use pythia::db::plan::PlanNode;
use pythia::db::runtime::{QueryRun, RunConfig, Runtime};
use pythia::db::trace::{AccessKind, Trace, TraceEvent};
use pythia::db::types::Schema;
use pythia::obs::Recorder;
use pythia::sim::{FileId, PageId, SimDuration, SimTime};

/// One shared database: the serving loop only uses it for file lengths (no
/// predictor is attached), so a single small fixture serves every case.
fn db() -> &'static Database {
    static DB: OnceLock<Database> = OnceLock::new();
    DB.get_or_init(|| {
        let mut db = Database::new();
        let t = db.create_table("t", Schema::ints(&["a"]));
        for i in 0..2000i64 {
            db.insert(t, Database::row(&[i]));
        }
        db
    })
}

fn plan() -> PlanNode {
    PlanNode::SeqScan {
        table: pythia::db::catalog::TableId(0),
        pred: None,
    }
}

/// Build a trace from `(selector, page, cpu)` triples: selector picks the
/// access kind (sequential runs vs strided heap fetches), `cpu` inserts
/// think-time between reads.
fn build_trace(spec: &[(u8, u16, u8)]) -> Trace {
    let mut events = Vec::with_capacity(spec.len() * 2);
    for &(sel, page, cpu) in spec {
        let kind = if sel % 2 == 0 {
            AccessKind::HeapFetch
        } else {
            AccessKind::SeqScan
        };
        events.push(TraceEvent::Read {
            obj: ObjectId(0),
            page: PageId::new(FileId(0), page as u32),
            kind,
        });
        if cpu > 0 {
            events.push(TraceEvent::Cpu { units: cpu as u32 });
        }
    }
    events.into_iter().collect()
}

fn trace_strategy() -> impl Strategy<Value = Vec<(u8, u16, u8)>> {
    prop::collection::vec((any::<u8>(), 0u16..3000, 0u8..4), 1..60)
}

/// A trained star-join fixture for the registry-routed pins: real plans with
/// real traces so inference actually runs (and is charged) during serving.
/// Trained once — proptest cases reuse it.
struct TrainedFixture {
    db: Database,
    plans: Vec<PlanNode>,
    traces: Vec<Trace>,
    tw: TrainedWorkload,
}

fn trained() -> &'static TrainedFixture {
    static FX: OnceLock<TrainedFixture> = OnceLock::new();
    FX.get_or_init(|| {
        let mut db = Database::new();
        let fact = db.create_table("fact", Schema::ints(&["id", "day", "k"]));
        let dim = db.create_table("dim", Schema::ints(&["d_id", "v"]));
        for i in 0..600i64 {
            db.insert(fact, Database::row(&[i, i % 50, i % 30]));
            db.insert(dim, Database::row(&[i % 30, i % 5]));
        }
        let idx = db.create_index("dim_pk", dim, 0);
        let plans: Vec<PlanNode> = (0..8)
            .map(|i| PlanNode::IndexNLJoin {
                outer: Box::new(PlanNode::SeqScan {
                    table: fact,
                    pred: Some(Pred::Between {
                        col: 1,
                        lo: i * 6,
                        hi: i * 6 + 8,
                    }),
                }),
                outer_key: 2,
                inner: dim,
                inner_index: idx,
                inner_pred: None,
            })
            .collect();
        let traces: Vec<Trace> = plans
            .iter()
            .map(|p| pythia::db::exec::execute(p, &db).1)
            .collect();
        let cfg = PythiaConfig {
            epochs: 2,
            ..PythiaConfig::fast()
        };
        let tw = train_workload(&db, "fx", &plans, &traces, None, &cfg);
        TrainedFixture {
            db,
            plans,
            traces,
            tw,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn c1_fifo_server_is_bit_identical_to_serial_runs(
        specs in prop::collection::vec(trace_strategy(), 1..5),
        arrivals in prop::collection::vec(0u64..2_000_000, 5),
        pool_frames in prop::sample::select(vec![64usize, 256, 1024]),
        os_cache_pages in prop::sample::select(vec![512usize, 4096]),
        charge_us in 0u64..5_000,
    ) {
        let db = db();
        let traces: Vec<Trace> = specs.iter().map(|s| build_trace(s)).collect();
        let run_cfg = RunConfig { pool_frames, os_cache_pages, ..Default::default() };
        let plan = plan();

        let requests: Vec<ServerRequest<'_>> = traces
            .iter()
            .zip(&arrivals)
            .map(|(trace, &us)| ServerRequest::new(&plan, trace, SimDuration::from_micros(us)))
            .collect();

        let cfg = ServerConfig {
            concurrency: 1,
            admission: AdmissionMode::Continuous,
            policy: QueuePolicy::Fifo,
            // No predictor is attached, so nothing is ever charged — but
            // the config must not leak into the timings either way.
            charge: InferenceCharge::Fixed(SimDuration::from_micros(charge_us)),
            prefetch_budget: None,
            tenant_quota: None,
        };
        let mut server = PrefetchServer::new(db, &run_cfg, cfg);
        let report = server.serve(&requests);

        // Serial comparator: same queries, one warm stack, arrival order
        // (ties broken by request index — the server's queue order).
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by_key(|&i| (requests[i].arrival, i));
        let mut rt = Runtime::new(&run_cfg, db.file_lengths());
        for &i in &order {
            rt.advance_to(SimTime::ZERO + requests[i].arrival);
            let res = rt.run(&[QueryRun::default_run(&traces[i])]);
            prop_assert_eq!(report.queries[i].start, res.timings[0].start, "start of query {}", i);
            prop_assert_eq!(report.queries[i].end, res.timings[0].end, "end of query {}", i);
            prop_assert_eq!(report.queries[i].inference, SimDuration::ZERO);
        }
        prop_assert_eq!(report.stats, rt.stats());
        prop_assert_eq!(server.runtime().now(), rt.now());
        prop_assert_eq!(report.waves.len(), requests.len(), "one admission event per query");
        for w in &report.waves {
            prop_assert_eq!(w.occupancy, 1);
        }
    }

    /// Admission metrics invariants across random traces, arrivals, policies
    /// and concurrency limits: exactly one admission
    /// event per query, occupancy within `1..=concurrency`, monotone
    /// admission instants, causally ordered per-query timelines, and
    /// per-admission buffer counters that partition the report totals.
    #[test]
    fn continuous_admission_metrics_are_consistent(
        specs in prop::collection::vec(trace_strategy(), 1..7),
        arrivals in prop::collection::vec(0u64..1_500_000, 7),
        concurrency in 1usize..4,
        overlap_policy in any::<bool>(),
        pool_frames in prop::sample::select(vec![64usize, 512]),
        charge_us in 0u64..3_000,
    ) {
        let db = db();
        let traces: Vec<Trace> = specs.iter().map(|s| build_trace(s)).collect();
        let n = traces.len();
        let run_cfg = RunConfig { pool_frames, ..Default::default() };
        let plan = plan();
        let requests: Vec<ServerRequest<'_>> = traces
            .iter()
            .zip(&arrivals)
            .map(|(trace, &us)| ServerRequest::new(&plan, trace, SimDuration::from_micros(us)))
            .collect();
        let cfg = ServerConfig {
            concurrency,
            admission: AdmissionMode::Continuous,
            policy: if overlap_policy { QueuePolicy::Overlap } else { QueuePolicy::Fifo },
            charge: InferenceCharge::Fixed(SimDuration::from_micros(charge_us)),
            prefetch_budget: None,
            tenant_quota: None,
        };
        let mut server = PrefetchServer::new(db, &run_cfg, cfg);
        let report = server.serve(&requests);

        prop_assert_eq!(report.queries.len(), n);
        // Queries are dispatched one at a time: exactly one admission event
        // per query.
        prop_assert_eq!(report.waves.len(), n);

        let mut merged = pythia::buffer::BufferStats::default();
        let mut prev_dispatch = SimTime::ZERO;
        for (i, w) in report.waves.iter().enumerate() {
            prop_assert!(w.occupancy >= 1, "admission {} with empty slots only", i);
            prop_assert!(w.occupancy <= concurrency, "admission {} over the limit", i);
            prop_assert!(w.queue_depth >= 1, "admission {} from an empty queue", i);
            prop_assert!(w.queue_depth <= n);
            prop_assert!(w.admitted_at >= prev_dispatch, "admission {} out of order", i);
            prev_dispatch = w.admitted_at;
            merged.merge(&w.stats);
        }
        prop_assert_eq!(merged, report.stats, "per-admission stats must partition the totals");

        for (i, q) in report.queries.iter().enumerate() {
            prop_assert!(q.wave < report.waves.len());
            prop_assert_eq!(q.admitted, report.waves[q.wave].admitted_at, "query {}", i);
            prop_assert!(q.arrival <= q.admitted, "query {} admitted before arriving", i);
            prop_assert!(q.admitted <= q.start);
            prop_assert!(q.start <= q.end);
        }

        // The concurrency cap holds in *virtual time*, not just in the
        // per-admission occupancy bookkeeping: a query holds its slot over
        // [admitted, end), and slot counts only rise at admission instants,
        // so checking each admission instant covers the maximum. (This is
        // the invariant a completion whose final event straddles an arrival
        // used to break: the arrival was admitted inside the still-occupied
        // interval.)
        for (i, qi) in report.queries.iter().enumerate() {
            let held = report
                .queries
                .iter()
                .filter(|qj| qj.admitted <= qi.admitted && qi.admitted < qj.end)
                .count();
            prop_assert!(
                held <= concurrency,
                "query {}: {} slots held at its admission instant (cap {})",
                i, held, concurrency
            );
        }

        let max_depth = report.waves.iter().map(|w| w.queue_depth).max().unwrap();
        prop_assert_eq!(report.max_queue_depth(), max_depth);
    }

    /// Request tracing is a pure observation layer: serving with an enabled
    /// recorder — which emits per-request span trees and flow links, and
    /// mirrors every event into the always-on flight ring — leaves the
    /// schedule bit-identical to an untraced serve. The per-request latency
    /// breakdowns partition each query's end-to-end latency exactly, the
    /// `request.*` spans reconcile with the report, and the flight ring
    /// retains precisely the tail of the full event stream at any capacity.
    #[test]
    fn request_tracing_is_pure_observation_and_flight_ring_is_a_tail(
        specs in prop::collection::vec(trace_strategy(), 1..6),
        arrivals in prop::collection::vec(0u64..1_500_000, 6),
        concurrency in 1usize..4,
        flight_cap in prop::sample::select(vec![4usize, 32, 4096]),
        charge_us in 0u64..3_000,
    ) {
        let db = db();
        let traces: Vec<Trace> = specs.iter().map(|s| build_trace(s)).collect();
        let run_cfg = RunConfig { pool_frames: 128, ..Default::default() };
        let plan = plan();
        let requests: Vec<ServerRequest<'_>> = traces
            .iter()
            .zip(&arrivals)
            .map(|(trace, &us)| ServerRequest::new(&plan, trace, SimDuration::from_micros(us)))
            .collect();
        let cfg = ServerConfig {
            concurrency,
            admission: AdmissionMode::Continuous,
            policy: QueuePolicy::Overlap,
            charge: InferenceCharge::Fixed(SimDuration::from_micros(charge_us)),
            prefetch_budget: None,
            tenant_quota: None,
        };

        let mut untraced = PrefetchServer::new(db, &run_cfg, cfg);
        let base = untraced.serve(&requests);

        let mut traced = PrefetchServer::new(db, &run_cfg, cfg);
        let mut recorder = Recorder::enabled();
        recorder.set_flight_capacity(flight_cap);
        traced.set_recorder(recorder);
        let report = traced.serve(&requests);
        let rec = traced.take_recorder();

        // Bit identity: tracing must not perturb virtual time.
        prop_assert_eq!(base.queries.len(), report.queries.len());
        for (i, (a, b)) in base.queries.iter().zip(&report.queries).enumerate() {
            prop_assert_eq!(a.arrival, b.arrival, "query {}", i);
            prop_assert_eq!(a.admitted, b.admitted, "query {}", i);
            prop_assert_eq!(a.start, b.start, "query {}", i);
            prop_assert_eq!(a.end, b.end, "query {}", i);
            prop_assert_eq!(a.inference, b.inference, "query {}", i);
        }
        prop_assert_eq!(base.stats, report.stats);
        prop_assert_eq!(untraced.runtime().now(), traced.runtime().now());

        // Breakdowns partition each query's end-to-end latency, and the
        // span tree drawn from them reconciles with the report: every query
        // gets its four `request.*` spans, tagged with its ordinal id, whose
        // bounds are exactly the report's arrival/admitted/start/end times.
        let n = report.queries.len();
        for name in ["request.queue", "request.admission", "request.infer", "request.replay"] {
            prop_assert_eq!(rec.event_count(name), n, "one {} span per query", name);
        }
        for (i, q) in report.queries.iter().enumerate() {
            prop_assert_eq!(q.request, i as u64 + 1, "serve assigns ordinal ids");
            let b = q.breakdown();
            prop_assert_eq!(b.queue_us, q.admission_wait().as_micros());
            prop_assert_eq!(
                b.queue_us + b.admission_us + b.replay_us,
                q.latency().as_micros(),
                "breakdown must partition the end-to-end latency of query {}", i
            );
            let tagged = |name: &str| {
                rec.events()
                    .iter()
                    .find(|e| e.name == name && e.args.contains(&("request", q.request)))
                    .cloned()
            };
            let queue = tagged("request.queue").expect("queue span");
            prop_assert_eq!(queue.ts_us, q.arrival.as_micros());
            prop_assert_eq!(queue.ts_us + queue.dur_us.unwrap(), q.admitted.as_micros());
            let replay = tagged("request.replay").expect("replay span");
            prop_assert_eq!(replay.ts_us, q.start.as_micros());
            prop_assert_eq!(replay.ts_us + replay.dur_us.unwrap(), q.end.as_micros());
        }

        // Flight ring == tail of the full same-run event stream: the ring
        // drops only the oldest events, never reorders or rewrites.
        let events = rec.events();
        let ring = rec.flight().tail();
        let tail_from = events.len().saturating_sub(flight_cap);
        prop_assert_eq!(ring.len(), events.len().min(flight_cap));
        prop_assert_eq!(ring.as_slice(), &events[tail_from..]);
    }

    /// The C=1/FIFO/Fixed bit-identity pin also holds when queries route
    /// through the model registry (single tenant): resolving the model via a
    /// `TenantFleet` snapshot instead of a fixed borrow changes nothing about
    /// the schedule — per-query timings, inference charges, buffer counters
    /// and the final clock are bit-identical.
    #[test]
    fn registry_routed_c1_fifo_is_bit_identical_to_fixed_predictor(
        picks in prop::collection::vec(0usize..8, 1..6),
        arrivals in prop::collection::vec(0u64..1_000_000, 6),
        charge_us in 0u64..2_000,
    ) {
        let fx = trained();
        let run_cfg = RunConfig::default();
        let requests: Vec<ServerRequest<'_>> = picks
            .iter()
            .zip(&arrivals)
            .map(|(&p, &us)| {
                ServerRequest::new(&fx.plans[p], &fx.traces[p], SimDuration::from_micros(us))
            })
            .collect();

        let cfg = ServerConfig {
            concurrency: 1,
            admission: AdmissionMode::Continuous,
            policy: QueuePolicy::Fifo,
            charge: InferenceCharge::Fixed(SimDuration::from_micros(charge_us)),
            prefetch_budget: None,
            tenant_quota: None,
        };

        let mut fixed = PrefetchServer::new(&fx.db, &run_cfg, cfg).with_predictor(&fx.tw);
        let fixed_rep = fixed.serve(&requests);

        let fleet = Arc::new(TenantFleet::new("t0"));
        fleet.publish(fx.tw.duplicate());
        let mut routed = PrefetchServer::new(&fx.db, &run_cfg, cfg).with_registry(fleet);
        let routed_rep = routed.serve(&requests);

        for (i, (a, b)) in fixed_rep.queries.iter().zip(&routed_rep.queries).enumerate() {
            prop_assert_eq!(a.start, b.start, "start of query {}", i);
            prop_assert_eq!(a.end, b.end, "end of query {}", i);
            prop_assert_eq!(a.inference, b.inference, "inference charge of query {}", i);
        }
        prop_assert_eq!(&fixed_rep.stats, &routed_rep.stats);
        prop_assert_eq!(fixed.runtime().now(), routed.runtime().now());
        prop_assert_eq!(fixed_rep.waves.len(), routed_rep.waves.len());
    }

    /// Tentpole pin: a mid-stream hot-swap to a bit-identical model is
    /// bit-identical to not swapping at all, and the per-tenant
    /// `ServeReport` views partition the global totals — queries, admission
    /// events, latencies, inference charges and buffer counters each sum
    /// back to the report-level numbers.
    #[test]
    fn hot_swap_is_bit_identical_and_tenant_stats_partition(
        picks in prop::collection::vec(0usize..8, 2..7),
        arrivals in prop::collection::vec(0u64..1_000_000, 7),
        tenants in prop::collection::vec(0u32..3, 7),
        concurrency in 1usize..4,
        swap_at in 1usize..4,
        charge_us in 0u64..2_000,
    ) {
        let fx = trained();
        let run_cfg = RunConfig::default();
        let n = picks.len();
        let requests: Vec<ServerRequest<'_>> = picks
            .iter()
            .zip(&arrivals)
            .zip(&tenants)
            .map(|((&p, &us), &tenant)| {
                ServerRequest::new(&fx.plans[p], &fx.traces[p], SimDuration::from_micros(us))
                    .with_tenant(tenant)
            })
            .collect();
        let cfg = ServerConfig {
            concurrency,
            admission: AdmissionMode::Continuous,
            policy: QueuePolicy::Fifo,
            charge: InferenceCharge::Fixed(SimDuration::from_micros(charge_us)),
            prefetch_budget: None,
            tenant_quota: None,
        };

        // Baseline: registry-routed serving, no swap.
        let fleet = Arc::new(TenantFleet::new("a"));
        fleet.publish(fx.tw.duplicate());
        let mut base = PrefetchServer::new(&fx.db, &run_cfg, cfg).with_registry(fleet);
        let base_rep = base.serve(&requests);

        // Swap run: publish a bit-identical duplicate at the `swap_at`-th
        // admission (if the stream is long enough to reach it).
        let fleet2 = Arc::new(TenantFleet::new("a"));
        fleet2.publish(fx.tw.duplicate());
        let swapper = Arc::clone(&fleet2);
        let spare = fx.tw.duplicate();
        let mut swapped = PrefetchServer::new(&fx.db, &run_cfg, cfg)
            .with_registry(Arc::clone(&fleet2));
        swapped.set_admission_hook(move |k| {
            if k == swap_at {
                swapper.publish(spare.duplicate());
            }
        });
        let swap_rep = swapped.serve(&requests);
        if swap_at < n {
            prop_assert_eq!(
                fleet2.current("fx").expect("published").version, 2,
                "the swap must actually have happened mid-stream"
            );
        }

        for (i, (a, b)) in base_rep.queries.iter().zip(&swap_rep.queries).enumerate() {
            prop_assert_eq!(a.start, b.start, "start of query {}", i);
            prop_assert_eq!(a.end, b.end, "end of query {}", i);
            prop_assert_eq!(a.inference, b.inference, "inference charge of query {}", i);
            prop_assert_eq!(a.tenant, b.tenant, "tenant tag of query {}", i);
        }
        prop_assert_eq!(&base_rep.stats, &swap_rep.stats);
        prop_assert_eq!(base.runtime().now(), swapped.runtime().now());

        // Per-tenant views partition the global report.
        let by = swap_rep.by_tenant();
        let mut queries = 0usize;
        let mut admissions = 0usize;
        let mut latency = SimDuration::ZERO;
        let mut wait = SimDuration::ZERO;
        let mut inference = SimDuration::ZERO;
        let mut merged = pythia::buffer::BufferStats::default();
        for rep in by.values() {
            queries += rep.queries;
            admissions += rep.admissions;
            latency = latency + rep.total_latency;
            wait = wait + rep.total_admission_wait;
            inference = inference + rep.inference;
            merged.merge(&rep.stats);
        }
        prop_assert_eq!(queries, n, "tenant query counts partition the stream");
        prop_assert_eq!(admissions, swap_rep.waves.len(), "admission events partition");
        prop_assert_eq!(&merged, &swap_rep.stats, "tenant buffer stats partition the totals");

        let mut want_latency = SimDuration::ZERO;
        let mut want_wait = SimDuration::ZERO;
        let mut want_inference = SimDuration::ZERO;
        for q in &swap_rep.queries {
            want_latency = want_latency + (q.end - q.arrival);
            want_wait = want_wait + (q.admitted - q.arrival);
            want_inference = want_inference + q.inference;
        }
        prop_assert_eq!(latency, want_latency, "tenant latencies sum to the stream total");
        prop_assert_eq!(wait, want_wait, "tenant admission waits sum to the stream total");
        prop_assert_eq!(inference, want_inference, "tenant inference charges sum");

        // Every tagged tenant is present; untagged tenants report zeros.
        for &t in &tenants[..n] {
            prop_assert!(by.contains_key(&t));
        }
        let absent = swap_rep.tenant_report(99);
        prop_assert_eq!(absent.queries, 0);
        prop_assert_eq!(absent.mean_latency(), SimDuration::ZERO);
    }
}
