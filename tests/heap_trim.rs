//! `serve_demo` hands what each tenant's set-up freed back to the OS, so a
//! released tenant's pages leave the resident set, not just the live heap
//! (`tests/bounded_memory.rs` checks the live heap).
//!
//! What glibc keeps depends on what the process freed before, so this file
//! holds one test: cargo runs it in a fresh process, where the allocator
//! starts as `serve_demo`'s does. Linux and glibc only: the reading comes
//! from `/proc`, and the trim is glibc's.
//!
//! Each tenant here is a whole `build_benchmark` database, not the
//! `build_for(.., &[Template::T18])` one `serve_demo` builds: the test pins
//! the trim at the set-up size where an untrimmed heap shows above its
//! margin.

#![cfg(all(target_os = "linux", target_env = "gnu"))]

use pythia::db::exec::execute;
use pythia::workloads::templates::{sample_workload, Template};
use pythia::workloads::{build_benchmark, GeneratorConfig};

/// The second tenant's set-up leaves `RssAnon` where the first's left it,
/// within a margin of about a third of one tenant's 1.85 MB of pages.
/// Without the trim, glibc keeps the second tenant's pages resident
/// (+1.7 MB here): unmapping the first tenant's largest page vector raised
/// its mmap threshold, so the second's page vectors came from the heap.
///
/// The test runs on a test thread, whose arena keeps its top mapped
/// through a trim (≈ 0.4 MB here); `serve_demo` sets up on its main
/// thread, where the trim returns the top too.
#[test]
fn a_released_tenants_pages_leave_the_resident_set() {
    let set_up = |seed| {
        let mut bench = build_benchmark(&GeneratorConfig { scale: 0.05, seed });
        let queries = sample_workload(&bench, Template::T18, 12, 42);
        let traces: Vec<_> = queries
            .iter()
            .map(|q| execute(&q.plan, &bench.db).1)
            .collect();
        bench.db.disk.release_pages();
        pythia::sim::return_freed_memory();
        (bench, queries, traces)
    };
    let _first = set_up(7);
    let after_first = rss_anon_kb();
    let _second = set_up(8);
    let after_second = rss_anon_kb();
    assert!(
        after_second <= after_first + 640,
        "RssAnon read {after_first} kB after the first tenant's set-up, {after_second} kB after the second's"
    );
}

/// The process's resident anonymous memory, from `/proc/self/status`.
fn rss_anon_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kb = status.lines().find_map(|l| l.strip_prefix("RssAnon:"));
    let kb = kb.and_then(|v| v.trim().strip_suffix(" kB"));
    kb.and_then(|v| v.parse().ok())
        .expect("/proc/self/status has an RssAnon line in kB")
}
