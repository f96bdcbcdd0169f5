//! The layer cost table: each layer's public functions timed from here, on
//! the fixture's held-out plans and traces.
//!
//! Two mechanisms. Stages that `serve` runs once per query are timed by the
//! *staged pipeline*: the benchmark calls each layer in the order `serve`
//! does, inside spans, and a stage's cost is the median self time of its
//! span. Everything else (kernels, the simulator's parts, batched use) is a
//! loop around the call, reported as the median over rounds.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use pythia::buffer::{AioPrefetcher, BufferPool};
use pythia::core::frontend::outcome_json;
use pythia::core::prefetch::{cap_to_budget, prefetch_list};
use pythia::core::scheduler::pick_next_by_overlap;
use pythia::core::{Frontend, FrontendConfig, QueryOutcome};
use pythia::db::plan::PlanNode;
use pythia::db::runtime::{QueryRun, ReplaySession, Runtime};
use pythia::db::trace::Trace;
use pythia::nn::Tensor;
use pythia::sim::{IoWorkerPool, OsPageCache, PageId, SimDuration, SimTime, StreamId};

use crate::fixture::{Fixture, Query};
use crate::procfs;
use crate::serve::INFER_CHARGE_US;
use crate::socket::http_get;
use crate::spans::Tracer;
use crate::stats::Summary;

/// Wall budget of one timed loop.
const LOOP_BUDGET: Duration = Duration::from_millis(300);

/// Run `round` — which returns the time it measured and the units of work
/// that time covers — at least `min_rounds` times and until `budget` is
/// spent. Nanoseconds per unit, one value per round.
fn ns_per_unit(
    min_rounds: usize,
    budget: Duration,
    mut round: impl FnMut() -> (Duration, u64),
) -> Vec<f64> {
    let started = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_rounds || started.elapsed() < budget {
        let (took, units) = round();
        out.push(took.as_nanos() as f64 / units.max(1) as f64);
    }
    out
}

/// Time all of `work`, which returns its units.
fn timed(work: impl FnOnce() -> u64) -> (Duration, u64) {
    let t0 = Instant::now();
    let units = work();
    (t0.elapsed(), units)
}

fn summary_of(ns: &[f64], convert: impl Fn(f64) -> f64) -> Summary {
    Summary::of(&ns.iter().map(|&x| convert(x)).collect::<Vec<_>>())
}

/// `Tensor::matmul` of `[m, k] × [k, n]`, GFLOP/s (2·m·k·n operations).
pub fn gemm_gflops(m: usize, k: usize, n: usize) -> Summary {
    let a = Tensor::from_fn(m, k, |r, c| ((r * 31 + c * 17) % 13) as f32 * 0.1 - 0.6);
    let b = Tensor::from_fn(k, n, |r, c| ((r * 7 + c * 29) % 11) as f32 * 0.1 - 0.5);
    let flops = 2.0 * (m * k * n) as f64;
    let ns = ns_per_unit(5, LOOP_BUDGET, || {
        timed(|| {
            black_box(black_box(&a).matmul(black_box(&b)));
            1
        })
    });
    summary_of(&ns, |ns| flops / ns)
}

/// CPU accounting of a burst of single-query inferences.
pub struct InferCost {
    pub ms_per_infer: f64,
    pub sys_cpu_share: f64,
    pub ctx_switches_per_infer: f64,
}

/// `infer` over `plans`, reading this process's CPU ticks and the calling
/// thread's context switches around the burst. The pool's workers live for
/// one call only, so what an inference costs its caller is how often the
/// caller is switched out while it waits for them.
pub fn infer_cpu_cost(fx: &Fixture, plans: &[&PlanNode]) -> InferCost {
    let cpu0 = procfs::self_cpu();
    let ctx0 = procfs::self_status().ctxt_switches();
    let t0 = Instant::now();
    for plan in plans {
        black_box(fx.tw.infer(&fx.bench.db, plan));
    }
    let wall = t0.elapsed();
    let cpu = procfs::self_cpu().since(cpu0);
    let switches = procfs::self_status().ctxt_switches() - ctx0;
    InferCost {
        ms_per_infer: wall.as_secs_f64() * 1e3 / plans.len() as f64,
        sys_cpu_share: cpu.sys_share(),
        ctx_switches_per_infer: switches as f64 / plans.len() as f64,
    }
}

/// `infer_batch` of 8 plans, milliseconds per query.
pub fn infer_batch8_ms_per_query(fx: &Fixture, plans: &[&PlanNode]) -> Summary {
    let mut chunks = plans.chunks_exact(8).cycle();
    let ns = ns_per_unit(5, LOOP_BUDGET, || {
        let chunk = chunks.next().expect("at least eight plans");
        timed(|| {
            black_box(fx.tw.infer_batch(&fx.bench.db, chunk));
            8
        })
    });
    summary_of(&ns, |ns| ns / 1e6)
}

/// `pick_next_by_overlap` over 16 candidate lists, microseconds per call.
pub fn scheduler_pick16_us(lists: &[Vec<PageId>]) -> Summary {
    assert!(lists.len() >= 17, "need a previous list and 16 candidates");
    let ns = ns_per_unit(5, LOOP_BUDGET / 3, || {
        timed(|| {
            for start in 0..lists.len() - 16 {
                black_box(pick_next_by_overlap(
                    &lists[start],
                    &lists[start + 1..start + 17],
                ));
            }
            (lists.len() - 16) as u64
        })
    });
    summary_of(&ns, |ns| ns / 1e3)
}

/// Cold `Runtime::run` of each query on its own (reset between queries):
/// replayed trace events per wall second, in millions. `lists[i]`, when
/// given, is query `i`'s prefetch list.
pub fn replay_mevents_per_s(
    fx: &Fixture,
    queries: &[Query],
    lists: Option<&[Vec<PageId>]>,
) -> Summary {
    let mut rt = Runtime::new(&fx.run_cfg, fx.bench.db.file_lengths());
    let events: u64 = queries.iter().map(|q| q.trace.events.len() as u64).sum();
    let ns = ns_per_unit(3, LOOP_BUDGET, || {
        timed(|| {
            for (i, q) in queries.iter().enumerate() {
                rt.reset();
                let run = match lists {
                    Some(lists) => QueryRun::with_prefetch(
                        &q.trace,
                        lists[i].clone(),
                        SimDuration::from_micros(INFER_CHARGE_US),
                    ),
                    None => QueryRun::default_run(&q.trace),
                };
                black_box(rt.run(&[run]));
            }
            events
        })
    });
    summary_of(&ns, |ns| 1e3 / ns)
}

/// Wall time of replaying `queries` one after another on one warm stack
/// with no serving loop around it — what `serve`'s DFLT arm is compared
/// against to isolate admission and session bookkeeping.
pub fn standalone_replay_s(fx: &Fixture, queries: &[Query]) -> f64 {
    let mut rt = Runtime::new(&fx.run_cfg, fx.bench.db.file_lengths());
    let t0 = Instant::now();
    for q in queries {
        black_box(rt.run(&[QueryRun::default_run(&q.trace)]));
    }
    t0.elapsed().as_secs_f64()
}

/// `ReplaySession::step`, nanoseconds per step, with `injected` queries in
/// the session of which only four are still live: the rest completed at
/// injection (empty traces) but stay in the session, as completed queries
/// do in a long-lived one.
pub fn session_step_ns(fx: &Fixture, live: &[Query], injected: usize) -> Summary {
    assert!(live.len() >= 4 && injected >= 4);
    let empty = Trace::new();
    let mut rt = Runtime::new(&fx.run_cfg, fx.bench.db.file_lengths());
    let ns = ns_per_unit(3, LOOP_BUDGET, || {
        rt.reset();
        let mut session = ReplaySession::new();
        for _ in 0..injected - 4 {
            session.inject(&mut rt, QueryRun::default_run(&empty), SimTime::ZERO);
        }
        for q in &live[..4] {
            session.inject(&mut rt, QueryRun::default_run(&q.trace), SimTime::ZERO);
        }
        let stepping = timed(|| {
            let mut steps = 0;
            while session.live() > 0 {
                session.step(&mut rt);
                steps += 1;
            }
            steps
        });
        black_box(session.finish(&mut rt));
        stepping
    });
    summary_of(&ns, |ns| ns)
}

/// The parts of the replay stack, each driven alone over the traces' page
/// sequences.
pub struct StackCosts {
    pub pool_ns_per_access: Summary,
    pub aio_ns_per_page: Summary,
    pub oscache_ns_per_read: Summary,
    pub iopool_ns_per_schedule: Summary,
}

pub fn stack_costs(fx: &Fixture, queries: &[Query], lists: &[Vec<PageId>]) -> StackCosts {
    let cfg = &fx.run_cfg;
    let file_lens = fx.bench.db.file_lengths();
    let pages: Vec<PageId> = queries
        .iter()
        .flat_map(|q| q.trace.page_sequence())
        .collect();

    let mut pool = BufferPool::new(cfg.pool_frames, cfg.policy);
    let pool_ns = ns_per_unit(3, LOOP_BUDGET, || {
        timed(|| {
            for &pid in &pages {
                match pool.lookup(pid) {
                    Some(fid) => pool.touch(fid),
                    None => {
                        black_box(pool.load(pid, false, SimTime::ZERO));
                    }
                }
            }
            pages.len() as u64
        })
    });

    let mut os = OsPageCache::new(cfg.os_cache_pages, cfg.cost.os_readahead_window);
    let os_ns = ns_per_unit(3, LOOP_BUDGET, || {
        timed(|| {
            for &pid in &pages {
                black_box(os.read(StreamId(0), pid, file_lens[pid.file.0 as usize]));
            }
            pages.len() as u64
        })
    });

    let mut io = IoWorkerPool::new(cfg.cost.io_workers);
    let io_ns = ns_per_unit(3, LOOP_BUDGET / 3, || {
        io.reset();
        timed(|| {
            for i in 0..100_000u64 {
                black_box(io.schedule(SimTime::from_micros(i * 300), cfg.cost.disk_read));
            }
            100_000
        })
    });

    // The prefetcher end to end: start on a query's list, then one dummy
    // request per virtual 10 ms (every issued page has arrived by then)
    // until the window has drained.
    let aio_ns = ns_per_unit(3, LOOP_BUDGET, || {
        pool.reset();
        os.reset();
        io.reset();
        timed(|| {
            let mut issued = 0u64;
            let mut now = SimTime::ZERO;
            for (k, list) in lists.iter().enumerate() {
                let mut aio = AioPrefetcher::with_file_lens(
                    cfg.readahead_window,
                    file_lens.clone(),
                    StreamId(k as u64 + 1),
                );
                aio.start(
                    list.iter().copied(),
                    &mut pool,
                    &mut os,
                    &mut io,
                    &cfg.cost,
                    now,
                );
                while !aio.is_idle() {
                    now += SimDuration::from_micros(10_000);
                    aio.on_query_read(&mut pool, &mut os, &mut io, &cfg.cost, now);
                }
                aio.finish(&mut pool);
                issued += list.len() as u64;
            }
            issued
        })
    });

    StackCosts {
        pool_ns_per_access: summary_of(&pool_ns, |ns| ns),
        aio_ns_per_page: summary_of(&aio_ns, |ns| ns),
        oscache_ns_per_read: summary_of(&os_ns, |ns| ns),
        iopool_ns_per_schedule: summary_of(&io_ns, |ns| ns),
    }
}

/// In-process `Frontend` with a pump that answers a canned body at once:
/// the wire layer's round trip with nothing behind it. Microseconds.
pub struct FrontendCosts {
    pub healthz_roundtrip_us: Summary,
    pub query_roundtrip_us: Summary,
}

pub fn frontend_costs(round_trips: usize) -> std::io::Result<FrontendCosts> {
    let fe = Frontend::start("127.0.0.1:0", FrontendConfig::new(16))?;
    let addr = fe.addr();
    let stop = AtomicBool::new(false);
    let result = std::thread::scope(|scope| {
        let pump = scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                for arrival in fe.drain_batch(Duration::from_millis(5)) {
                    arrival.responder.ok_json("{\"query\":0}\n");
                }
            }
        });
        let trip = |path: &str| -> std::io::Result<Summary> {
            let mut us = Vec::with_capacity(round_trips);
            for _ in 0..round_trips {
                let r = http_get(addr, path)?;
                if r.status != 200 {
                    return Err(std::io::Error::other(format!(
                        "{path} answered {}",
                        r.status
                    )));
                }
                us.push(r.marks[4].duration_since(r.marks[0]).as_secs_f64() * 1e6);
            }
            Ok(Summary::of(&us))
        };
        let costs = trip("/healthz").and_then(|healthz_roundtrip_us| {
            Ok(FrontendCosts {
                healthz_roundtrip_us,
                query_roundtrip_us: trip("/query/0")?,
            })
        });
        stop.store(true, Ordering::Relaxed);
        pump.join().expect("pump thread panicked");
        costs
    });
    fe.shutdown();
    result
}

/// Stage names of the staged pipeline, in the order `serve` runs them.
pub const STAGES: [&str; 5] = [
    "core.serialize.encode",
    "core.predictor.infer",
    "core.prefetch.list",
    "db.runtime.replay",
    "core.frontend.outcome_json",
];

/// What one run of the staged pipeline produced.
pub struct Staged {
    pub wall_s: f64,
    /// Capped prefetch list of each query.
    pub lists: Vec<Vec<PageId>>,
}

/// Replay `queries` through the stages `serve` runs for one query at C = 1,
/// on one warm stack: encode the plan, infer, build and cap the prefetch
/// list, replay, render the outcome. Each query is a `request` span with one
/// child per stage. The plan-encoding memo is warmed beforehand, so the
/// `encode` stage (which bypasses the memo) is the encoding cost and `infer`
/// is the forward pass alone.
pub fn staged_pipeline(fx: &Fixture, queries: &[Query], tracer: &mut Tracer) -> Staged {
    let db = &fx.bench.db;
    for q in queries {
        fx.tw.encode_plan_cached(db, &q.plan);
    }
    let mut rt = Runtime::new(&fx.run_cfg, db.file_lengths());
    let budget = rt.pool_frames() * 3 / 4;
    let charge = SimDuration::from_micros(INFER_CHARGE_US);
    let mut lists = Vec::with_capacity(queries.len());
    let t0 = Instant::now();
    for (i, q) in queries.iter().enumerate() {
        let id = i as u64 + 1;
        let request = tracer.begin("request", id);

        let s = tracer.begin(STAGES[0], id);
        black_box(fx.tw.encode_plan(db, &q.plan));
        tracer.end(s);

        let s = tracer.begin(STAGES[1], id);
        let prediction = fx.tw.infer(db, &q.plan);
        tracer.end(s);

        let s = tracer.begin(STAGES[2], id);
        let list = cap_to_budget(prefetch_list(db, &prediction), budget);
        tracer.end(s);

        let s = tracer.begin(STAGES[3], id);
        let arrival = rt.now();
        let run = rt.run(&[QueryRun::with_prefetch(&q.trace, list.clone(), charge)]);
        tracer.end(s);

        let s = tracer.begin(STAGES[4], id);
        let t = run.timings[0];
        black_box(outcome_json(
            i,
            &QueryOutcome {
                arrival,
                admitted: t.arrival,
                start: t.start,
                end: t.end,
                wave: i,
                inference: charge,
                tenant: 0,
                request: id,
            },
        ));
        tracer.end(s);

        tracer.end(request);
        lists.push(list);
    }
    Staged {
        wall_s: t0.elapsed().as_secs_f64(),
        lists,
    }
}
