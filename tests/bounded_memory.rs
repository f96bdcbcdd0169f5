//! Memory that must not grow with work served, measured by a counting
//! global allocator:
//!
//! - inference keeps nothing per plan: once warm, a trained workload that
//!   infers 500 plans it has never seen holds as many heap bytes as before,
//!   within a few kB;
//! - a bounded recorder holds its event ring and nothing per track: the
//!   same heap, under 330 KiB, after one request as after 16 384 more;
//! - a serving session built as `serve_demo` builds one holds as much heap
//!   after 5 200 requests as after 200, and the OS cache it runs over
//!   reserves nothing for its nominal capacity;
//! - set-up allocates per table and per index, not per row: building the
//!   benchmark database makes fewer allocations than it writes pages, and
//!   the value binner a few per table;
//! - a released database holds no page: releasing a tenant as `serve_demo`
//!   builds one frees at least its page count times the page size
//!   (`tests/heap_trim.rs` checks that the resident set follows).
//!
//! The tests run one at a time, so that nothing else allocates beside the
//! one measuring the whole process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::{Mutex, PoisonError};

use pythia::core::config::PythiaConfig;
use pythia::core::predictor::{train_workload, TrainedWorkload};
use pythia::core::prefetch::INFER_CHARGE;
use pythia::core::quality::QualityTracker;
use pythia::core::{InferenceCharge, PrefetchServer, ServerConfig, ServerRequest, ValueBinner};
use pythia::db::catalog::{Database, ObjectId, TableId};
use pythia::db::exec::execute;
use pythia::db::expr::Pred;
use pythia::db::plan::PlanNode;
use pythia::db::runtime::RunConfig;
use pythia::db::types::Schema;
use pythia::nn::pool::set_thread_override;
use pythia::obs::flight::DEFAULT_CAPACITY;
use pythia::obs::request::request_track;
use pythia::obs::{tid, FlowDir, Recorder, Shared, Track};
use pythia::sim::{OsPageCache, SimDuration, PAGE_SIZE};
use pythia::workloads::templates::{sample_workload, Template};
use pythia::workloads::{build_benchmark, GeneratorConfig};

/// Bytes allocated and not yet freed, process-wide.
static LIVE: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    /// Bytes this thread allocated, less those it freed.
    static THREAD_LIVE: Cell<isize> = const { Cell::new(0) };
    /// Blocks this thread allocated or reallocated.
    static THREAD_ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// Held by each test for its whole run.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn count(bytes: isize) {
    LIVE.fetch_add(bytes, Ordering::Relaxed);
    // A thread being torn down has no counter left; nothing measures it.
    let _ = THREAD_LIVE.try_with(|live| live.set(live.get() + bytes));
}

/// One more block from the allocator (a new one, or a resized one).
fn count_block() {
    let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every call goes to `System` unchanged; the counters only watch.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count(layout.size() as isize);
            count_block();
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            count(layout.size() as isize);
            count_block();
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            count(new_size as isize - layout.size() as isize);
            count_block();
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// A fact table probing a dimension through its index, the join's outer
/// side filtered on a date range that starts at `lo`.
fn probe(fact: TableId, dim: TableId, idx: ObjectId, lo: i64) -> PlanNode {
    PlanNode::IndexNLJoin {
        outer: Box::new(PlanNode::SeqScan {
            table: fact,
            pred: Some(Pred::Between {
                col: 1,
                lo,
                hi: lo + 40,
            }),
        }),
        outer_key: 2,
        inner: dim,
        inner_index: idx,
        inner_pred: None,
    }
}

/// Infer the first half of `plans` one at a time and the second in batches
/// of five. The inference arena keeps what the last calls' shapes needed, so
/// two sets whose halves divide by five leave it holding the same.
fn infer_all(tw: &TrainedWorkload, db: &Database, plans: &[PlanNode]) {
    let (alone, batched) = plans.split_at(plans.len() / 2);
    for plan in alone {
        assert!(tw.infer(db, plan).len() < 10_000);
    }
    for batch in batched.chunks(5) {
        let refs: Vec<&PlanNode> = batch.iter().collect();
        assert_eq!(tw.infer_batch(db, &refs).len(), batch.len());
    }
}

#[test]
fn inferring_unseen_plans_holds_no_memory() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    // The pool at one thread: no worker keeps an arena of its own.
    set_thread_override(1);
    let mut db = Database::new();
    let fact = db.create_table("fact", Schema::ints(&["id", "date", "dkey"]));
    let dim = db.create_table("dim", Schema::ints(&["d_id", "attr"]));
    for i in 0..600i64 {
        let date = i / 2;
        db.insert(fact, &Database::row([i, date, (date / 2 + i % 3).min(149)]));
    }
    for d in 0..150i64 {
        db.insert(dim, &Database::row([d, d % 9]));
    }
    let idx = db.create_index("dim_pk", dim, 0);
    let plans: Vec<PlanNode> = (0..12).map(|q| probe(fact, dim, idx, q * 23)).collect();
    let traces: Vec<_> = plans.iter().map(|p| execute(p, &db).1).collect();
    let cfg = PythiaConfig {
        epochs: 2,
        ..PythiaConfig::fast()
    };
    let tw = train_workload(&db, "probe", &plans, &traces, None, &cfg);

    // Warm the inference arena on plans of the same shape, then measure
    // 500 more, every one distinct from all before it.
    let warm: Vec<PlanNode> = (0..40).map(|q| probe(fact, dim, idx, -1 - q)).collect();
    infer_all(&tw, &db, &warm);
    let unseen: Vec<PlanNode> = (0..500).map(|q| probe(fact, dim, idx, 1000 + q)).collect();
    let before = LIVE.load(Ordering::Relaxed);
    infer_all(&tw, &db, &unseen);
    let grew = LIVE.load(Ordering::Relaxed) - before;
    assert!(
        grew.abs() < 4096,
        "500 unseen plans left {grew} B more live heap"
    );
}

#[test]
fn a_bounded_recorder_holds_its_ring_and_nothing_per_track() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let live = || THREAD_LIVE.with(Cell::get);
    let start = live();
    let mut rec = Recorder::bounded();
    // What the serving loop records per request: a span on the request's
    // own track and the end of its flow arrow on the serving loop's.
    let server = Track::virt(tid::SERVER);
    let mut serve = |requests: std::ops::Range<u64>| {
        for rid in requests {
            let track = request_track(rid);
            rec.span(track, "request", "request.queue", rid, rid + 5, &[]);
            rec.flow(
                server,
                "request",
                "request.flow",
                rid + 5,
                rid,
                FlowDir::Finish,
            );
        }
    };
    serve(1..2);
    let first = live() - start;
    let cap = DEFAULT_CAPACITY as u64;
    serve(2..4 * cap + 2);
    let later = live() - start;
    assert!(
        (later - first).abs() < 1024,
        "{first} B after one request, {later} B after {} more",
        4 * cap
    );
    assert!(later < 330 << 10, "a bounded recorder retains {later} B");
}

/// A tenant as `serve_demo` builds it: a small database, the default run
/// configuration (whose OS cache is larger than the database), a quality
/// tracker and a bounded recorder whose dumps have a reader, driven the way
/// the socket pump drives it. Once warm, its heap does not grow with the
/// requests it serves.
#[test]
fn a_serving_session_stops_growing_once_warm() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let live = || THREAD_LIVE.with(Cell::get);
    let bench = build_benchmark(&GeneratorConfig {
        scale: 0.05,
        seed: 7,
    });
    let queries = sample_workload(&bench, Template::T18, 12, 42);
    let traces: Vec<_> = queries
        .iter()
        .map(|q| execute(&q.plan, &bench.db).1)
        .collect();
    let catalog: Vec<ServerRequest<'_>> = queries
        .iter()
        .zip(&traces)
        .map(|(q, trace)| ServerRequest {
            span_name: Template::T18.replay_span(),
            ..ServerRequest::new(&q.plan, trace, SimDuration::ZERO).with_tenant(0)
        })
        .collect();
    let cfg = ServerConfig {
        concurrency: 2,
        charge: InferenceCharge::Fixed(INFER_CHARGE),
        ..ServerConfig::default()
    };
    let mut srv = PrefetchServer::new(&bench.db, &RunConfig::default(), cfg)
        .with_quality(QualityTracker::default());
    srv.set_recorder(Recorder::bounded());
    srv.recorder_mut().set_flight_publisher(Shared::default());
    let mut session = srv.session();
    let mut rid = 0u64;
    let mut serve = |srv: &mut PrefetchServer<'_>, pairs: u64| {
        for _ in 0..pairs {
            for _ in 0..2 {
                rid += 1;
                let request = catalog[rid as usize % catalog.len()];
                session.submit(request.with_request(rid));
            }
            for _ in 0..2 {
                assert!(session.poll_completion(srv).is_some());
                session.take_intervals();
            }
        }
    };
    serve(&mut srv, 100);
    let warm = live();
    serve(&mut srv, 2_500);
    let grew = live() - warm;
    assert!(
        grew < 4096,
        "serving requests 200 to 5 200 left {grew} B more live heap"
    );
}

/// `serve_demo` releases a tenant's page bytes once its catalog has run:
/// the live process keeps the catalog and the file lengths, and the live
/// heap gives back at least every page.
#[test]
fn releasing_a_tenants_pages_frees_every_page() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let live = || THREAD_LIVE.with(Cell::get);
    let mut bench = build_benchmark(&GeneratorConfig {
        scale: 0.05,
        seed: 7,
    });
    let queries = sample_workload(&bench, Template::T18, 12, 42);
    // The traces serving replays stay live across the release.
    let _traces: Vec<_> = queries
        .iter()
        .map(|q| execute(&q.plan, &bench.db).1)
        .collect();
    let pages = bench.db.disk.total_pages();
    let before = live();
    bench.db.disk.release_pages();
    let freed = before - live();
    let page_bytes = (pages * PAGE_SIZE as u64) as isize;
    assert!(
        freed >= page_bytes,
        "releasing {pages} pages ({page_bytes} B) freed {freed} B"
    );
    assert_eq!(bench.db.disk.total_pages(), pages);
}

/// The OS cache reserves nothing for pages it may never hold: at the
/// default run configuration's 8 192 pages, a database of 925 fills a
/// ninth of it.
#[test]
fn an_os_cache_allocates_nothing_before_its_first_read() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let live = || THREAD_LIVE.with(Cell::get);
    let start = live();
    let cache = OsPageCache::new(8192, 32);
    let held = live() - start;
    assert!(held < 4096, "an empty 8 192-page OS cache holds {held} B");
    drop(cache);
}

#[test]
fn set_up_allocates_per_table_not_per_row() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let allocs = || THREAD_ALLOCS.with(Cell::get);
    // Row and page counts follow the scale alone, whatever the RNG stream.
    let start = allocs();
    let bench = build_benchmark(&GeneratorConfig {
        scale: 0.05,
        seed: 7,
    });
    let built = allocs() - start;
    let pages = bench.db.disk.total_pages();
    let rows: u64 = bench.db.tables().iter().map(|t| t.heap.tuple_count()).sum();
    assert!(
        (built as u64) < pages,
        "building {rows} rows on {pages} pages made {built} allocations"
    );

    let start = allocs();
    let binner = ValueBinner::from_database(&bench.db);
    let binned = allocs() - start;
    let tables = bench.db.tables().len();
    assert!(
        binned <= 3 * tables,
        "the binner made {binned} allocations for {tables} tables"
    );
    drop(binner);
}
