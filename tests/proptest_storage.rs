//! Property-based tests over the storage substrate: B+Tree vs an ordered-map
//! model, slotted pages, heap files, and buffer-pool invariants under random
//! operation sequences.

use proptest::prelude::*;

use pythia::buffer::{BufferPool, PolicyKind};
use pythia::db::btree::BTree;
use pythia::db::heap::{HeapFile, RecordId};
use pythia::db::types::Datum;
use pythia::sim::{FileId, PageId, SimDisk, SimTime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The B+Tree agrees with a sorted-vector model on every range query,
    /// including duplicate-heavy key sets.
    #[test]
    fn btree_matches_model(
        keys in prop::collection::vec(-50i64..50, 0..400),
        ranges in prop::collection::vec((-60i64..60, 0i64..40), 1..8),
    ) {
        let mut disk = SimDisk::new();
        let entries: Vec<(i64, RecordId)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, RecordId { page_no: i as u32, slot: 0 }))
            .collect();
        let tree = BTree::bulk_build(&mut disk, entries.clone());

        let mut model = entries;
        model.sort_unstable_by_key(|(k, rid)| (*k, rid.page_no));

        for (lo, width) in ranges {
            let hi = lo + width;
            let got = tree.range(&disk, lo, hi, &mut |_, _| {});
            let expect: Vec<(i64, RecordId)> = model
                .iter()
                .filter(|(k, _)| *k >= lo && *k <= hi)
                .cloned()
                .collect();
            prop_assert_eq!(got, expect, "range [{}, {}]", lo, hi);
        }
    }

    /// Every key searched individually returns exactly its duplicates.
    #[test]
    fn btree_point_lookups(keys in prop::collection::vec(0i64..30, 1..300)) {
        let mut disk = SimDisk::new();
        let entries: Vec<(i64, RecordId)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, RecordId { page_no: i as u32, slot: 0 }))
            .collect();
        let tree = BTree::bulk_build(&mut disk, entries);
        for k in 0..30 {
            let expect = keys.iter().filter(|&&x| x == k).count();
            let got = tree.search(&disk, k, &mut |_, _| {}).len();
            prop_assert_eq!(got, expect, "key {}", k);
        }
    }

    /// Heap files return every inserted tuple unchanged, in order, through
    /// both scan and point fetch.
    #[test]
    fn heap_roundtrip(rows in prop::collection::vec(prop::collection::vec(-1000i64..1000, 1..6), 1..200)) {
        let mut disk = SimDisk::new();
        let mut heap = HeapFile::create(&mut disk);
        let rids: Vec<RecordId> = rows
            .iter()
            .map(|r| {
                let row: Vec<Datum> = r.iter().map(|&v| Datum::Int(v)).collect();
                heap.insert(&mut disk, &row)
            })
            .collect();
        // Point fetches.
        for (rid, r) in rids.iter().zip(&rows) {
            let row = heap.read_tuple(&disk, *rid);
            let expect: Vec<Datum> = r.iter().map(|&v| Datum::Int(v)).collect();
            prop_assert_eq!(row, expect);
        }
        // Scan order matches insertion order.
        let scanned: Vec<i64> = heap.scan(&disk).map(|(_, t)| t[0].as_int().unwrap()).collect();
        let expect: Vec<i64> = rows.iter().map(|r| r[0]).collect();
        prop_assert_eq!(scanned, expect);
    }

    /// Buffer pool safety invariants under arbitrary load/pin/unpin/touch
    /// sequences: capacity respected, residency consistent with the page
    /// table, pinned pages never evicted.
    #[test]
    fn buffer_pool_invariants(
        ops in prop::collection::vec((0u8..4, 0u32..64), 1..300),
        policy_idx in 0usize..3,
    ) {
        let policy = PolicyKind::ALL[policy_idx];
        let mut pool = BufferPool::new(8, policy);
        let mut pinned: Vec<(PageId, u32)> = Vec::new(); // (page, pins held)
        for (op, page_no) in ops {
            let pid = PageId::new(FileId(0), page_no);
            match op {
                0 => {
                    // Load if absent (may fail when everything is pinned).
                    if pool.lookup(pid).is_none() {
                        let _ = pool.load(pid, false, SimTime::ZERO);
                    }
                }
                1 => {
                    // Pin if resident.
                    if let Some(fid) = pool.lookup(pid) {
                        pool.pin(fid);
                        pinned.push((pid, 1));
                    }
                }
                2 => {
                    // Unpin one of our pins.
                    if let Some(pos) = pinned.iter().position(|(p, _)| *p == pid) {
                        let fid = pool.lookup(pid).expect("pinned page resident");
                        pool.unpin(fid);
                        pinned.remove(pos);
                    }
                }
                _ => {
                    if let Some(fid) = pool.lookup(pid) {
                        pool.touch(fid);
                    }
                }
            }
            // Invariants after every operation:
            prop_assert!(pool.resident_count() <= pool.capacity());
            for (p, _) in &pinned {
                prop_assert!(pool.lookup(*p).is_some(), "pinned page {p} was evicted");
            }
            // Page table and frames agree.
            for rp in pool.resident_pages() {
                let fid = pool.lookup(rp).expect("page table entry");
                prop_assert_eq!(pool.frame(fid).page, Some(rp));
            }
        }
    }

    /// The trace post-processing (Algorithm 1): output sets are sorted,
    /// deduplicated and contain exactly the non-sequential distinct pages.
    #[test]
    fn trace_postprocessing_properties(
        reads in prop::collection::vec((0u32..4, 0u32..50, prop::bool::ANY), 0..300),
    ) {
        use pythia::db::catalog::ObjectId;
        use pythia::db::trace::{AccessKind, Trace, TraceEvent};
        let trace: Trace = reads
            .iter()
            .map(|&(obj, page, seq)| TraceEvent::Read {
                obj: ObjectId(obj),
                page: PageId::new(FileId(obj), page),
                kind: if seq { AccessKind::SeqScan } else { AccessKind::HeapFetch },
            })
            .collect();
        let sets = trace.non_sequential_sets();
        for (obj, pages) in &sets {
            // Sorted, deduplicated.
            prop_assert!(pages.windows(2).all(|w| w[0] < w[1]));
            // Every page actually appears as a non-sequential read.
            for &p in pages {
                prop_assert!(reads.iter().any(|&(o, pg, seq)| ObjectId(o) == *obj && pg == p && !seq));
            }
        }
        // Count matches a set-based model.
        let model: std::collections::HashSet<(u32, u32)> = reads
            .iter()
            .filter(|(_, _, seq)| !seq)
            .map(|&(o, p, _)| (o, p))
            .collect();
        prop_assert_eq!(trace.distinct_non_sequential(), model.len());
    }
}
