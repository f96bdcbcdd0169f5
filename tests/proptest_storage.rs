//! Property-based tests over the storage substrate: B+Tree vs an ordered-map
//! model, slotted pages, heap files, and buffer-pool invariants under random
//! operation sequences.

use pythia::buffer::{BufferPool, PolicyKind};
use pythia::db::btree::BTree;
use pythia::db::heap::{HeapFile, RecordId};
use pythia::db::types::Datum;
use pythia::sim::rng::cases;
use pythia::sim::{FileId, PageId, SimDisk, SimTime};

/// The B+Tree agrees with a sorted-vector model on every range query,
/// including duplicate-heavy key sets.
#[test]
fn btree_matches_model() {
    cases(64, |rng| {
        let n = rng.gen_range(0..400);
        let keys: Vec<i64> = (0..n).map(|_| rng.gen_range(-50..50)).collect();
        let n = rng.gen_range(1..8);
        let ranges: Vec<(i64, i64)> = (0..n)
            .map(|_| (rng.gen_range(-60..60), rng.gen_range(0..40)))
            .collect();
        let mut disk = SimDisk::new();
        let entries: Vec<(i64, RecordId)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                (
                    k,
                    RecordId {
                        page_no: i as u32,
                        slot: 0,
                    },
                )
            })
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
            assert_eq!(got, expect, "range [{lo}, {hi}]");
        }
    });
}

/// Every key searched individually returns exactly its duplicates.
#[test]
fn btree_point_lookups() {
    cases(64, |rng| {
        let n = rng.gen_range(1..300);
        let keys: Vec<i64> = (0..n).map(|_| rng.gen_range(0..30)).collect();
        let mut disk = SimDisk::new();
        let entries: Vec<(i64, RecordId)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                (
                    k,
                    RecordId {
                        page_no: i as u32,
                        slot: 0,
                    },
                )
            })
            .collect();
        let tree = BTree::bulk_build(&mut disk, entries);
        for k in 0..30 {
            let expect = keys.iter().filter(|&&x| x == k).count();
            let got = tree.search(&disk, k, &mut |_, _| {}).len();
            assert_eq!(got, expect, "key {k}");
        }
    });
}

/// Heap files return every inserted tuple unchanged, in order, through
/// both the record walk and point fetch.
#[test]
fn heap_roundtrip() {
    cases(64, |rng| {
        let n = rng.gen_range(1..200);
        let rows: Vec<Vec<i64>> = (0..n)
            .map(|_| {
                let width = rng.gen_range(1..6);
                (0..width).map(|_| rng.gen_range(-1000..1000)).collect()
            })
            .collect();
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
            assert_eq!(row, expect);
        }
        // Storage order matches insertion order.
        let scanned: Vec<i64> = heap
            .records(&disk)
            .map(|(_, rec)| heap.layout().int_at(rec, 0).unwrap())
            .collect();
        let expect: Vec<i64> = rows.iter().map(|r| r[0]).collect();
        assert_eq!(scanned, expect);
    });
}

/// Buffer pool safety invariants under arbitrary load/pin/unpin/touch
/// sequences: capacity respected, residency consistent with the page
/// table, pinned pages never evicted.
#[test]
fn buffer_pool_invariants() {
    cases(64, |rng| {
        let n = rng.gen_range(1..300);
        let ops: Vec<(u8, u32)> = (0..n)
            .map(|_| (rng.gen_range(0..4), rng.gen_range(0..64)))
            .collect();
        let policy_idx = rng.gen_range(0..3);
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
            // Invariants after every operation, over every page the ops
            // can name (so the whole page table):
            let resident: Vec<PageId> = (0..64)
                .map(|p| PageId::new(FileId(0), p))
                .filter(|&p| pool.lookup(p).is_some())
                .collect();
            assert!(resident.len() <= pool.capacity());
            for (p, _) in &pinned {
                assert!(pool.lookup(*p).is_some(), "pinned page {p} was evicted");
            }
            // Page table and frames agree.
            for rp in resident {
                let fid = pool.lookup(rp).expect("page table entry");
                assert_eq!(pool.frame(fid).page, Some(rp));
            }
        }
    });
}

/// The trace post-processing (Algorithm 1): output sets are sorted,
/// deduplicated and contain exactly the non-sequential distinct pages.
#[test]
fn trace_postprocessing_properties() {
    cases(64, |rng| {
        let n = rng.gen_range(0..300);
        let reads: Vec<(u32, u32, bool)> = (0..n)
            .map(|_| {
                (
                    rng.gen_range(0..4),
                    rng.gen_range(0..50),
                    rng.gen_range(0..=1) == 1,
                )
            })
            .collect();
        use pythia::db::catalog::ObjectId;
        use pythia::db::trace::{AccessKind, Trace, TraceEvent};
        let trace: Trace = reads
            .iter()
            .map(|&(obj, page, seq)| TraceEvent::Read {
                obj: ObjectId(obj),
                page: PageId::new(FileId(obj), page),
                kind: if seq {
                    AccessKind::SeqScan
                } else {
                    AccessKind::HeapFetch
                },
            })
            .collect();
        let sets = trace.non_sequential_sets();
        for (obj, pages) in &sets {
            // Sorted, deduplicated.
            assert!(pages.windows(2).all(|w| w[0] < w[1]));
            // Every page actually appears as a non-sequential read.
            for &p in pages {
                assert!(reads
                    .iter()
                    .any(|&(o, pg, seq)| ObjectId(o) == *obj && pg == p && !seq));
            }
        }
        // Count matches a set-based model.
        let model: std::collections::HashSet<(u32, u32)> = reads
            .iter()
            .filter(|(_, _, seq)| !seq)
            .map(|&(o, p, _)| (o, p))
            .collect();
        assert_eq!(trace.distinct_non_sequential(), model.len());
    });
}

/// A trace gives back exactly the events pushed into it: `Cpu` units
/// either side of the tag's reach, reads that open an object, and page
/// steps near and far on the object before.
#[test]
fn trace_round_trips_every_event() {
    cases(64, |rng| {
        let n = rng.gen_range(0..400);
        let spec: Vec<(u8, u32, u32, u32)> = (0..n)
            .map(|_| {
                let (sel, obj, near) = (
                    rng.gen_range(0..8),
                    rng.gen_range(0..3),
                    rng.gen_range(0..40),
                );
                (sel, obj, near, rng.next_u64() as u32)
            })
            .collect();
        use pythia::db::catalog::ObjectId;
        use pythia::db::trace::{AccessKind, Trace, TraceEvent};
        let kinds = [
            AccessKind::SeqScan,
            AccessKind::IndexInternal,
            AccessKind::IndexLeaf,
            AccessKind::HeapFetch,
        ];
        let mut page = 0u32;
        let events: Vec<TraceEvent> = spec
            .iter()
            .map(|&(sel, obj, near, wide)| {
                let (obj, file) = match sel {
                    0 => return TraceEvent::Cpu { units: near },
                    1 => return TraceEvent::Cpu { units: wide },
                    2 => (wide, wide / 3),
                    _ => (obj, obj),
                };
                page = match sel {
                    2 | 3 => wide,
                    _ => page.wrapping_add(near).wrapping_sub(20),
                };
                TraceEvent::Read {
                    obj: ObjectId(obj),
                    page: PageId::new(FileId(file), page),
                    kind: kinds[sel as usize % 4],
                }
            })
            .collect();
        let mut trace = Trace::new();
        for &e in &events {
            trace.push(e);
        }
        assert_eq!(trace.iter().collect::<Vec<_>>(), events.clone());
        assert_eq!(trace.events.len(), events.len());
        let reads = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Read { .. }));
        assert_eq!(trace.read_count(), reads.count());
    });
}
