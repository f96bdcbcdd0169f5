//! Page-backed B+Tree secondary indexes on `i64` keys.
//!
//! Indexes are bulk-loaded once over static data (the paper assumes a static
//! database; incremental maintenance is future work there too). Duplicates
//! are supported. Every traversal reports the pages it touches through a
//! visitor, which is how the executor's instrumentation captures the
//! root-to-leaf access patterns the paper highlights ("two sibling leaf nodes
//! share the same path from the root node and hence this path sequence will
//! be repeated in the trace").
//!
//! Node layout (within one [`PAGE_SIZE`] page):
//!
//! * byte 0: node kind (0 = leaf, 1 = internal)
//! * bytes 1..3: `u16` number of keys
//! * leaf: bytes 4..8: `u32` next-leaf page (`u32::MAX` = none); entries from
//!   byte 8: `i64` key, `u32` heap page, `u16` slot (14 bytes each)
//! * internal: keys (`i64`) from byte 8; children (`u32` page numbers) from a
//!   fixed offset past the maximum key area
//!
//! Separator `keys[i]` of an internal node is the first key of
//! `children[i+1]`. Because a duplicate run may straddle a boundary, descents
//! use `partition_point(< key)` (leftmost child that could contain the key)
//! and rely on the next-leaf chain to walk right — never missing duplicates
//! at the cost of occasionally reading one extra leaf.

use pythia_sim::{FileId, PageId, SimDisk, PAGE_SIZE};

use crate::heap::RecordId;

/// Kind of index node visited during a traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    Internal,
    Leaf,
}

const LEAF_HDR: usize = 8;
const LEAF_ENTRY: usize = 14;
/// Max entries per leaf.
pub const LEAF_CAP: usize = (PAGE_SIZE - LEAF_HDR) / LEAF_ENTRY; // 145

const INT_HDR: usize = 8;
/// Max keys per internal node (children = keys + 1).
pub const INT_CAP: usize = 169;
const INT_CHILD_OFF: usize = INT_HDR + INT_CAP * 8; // 1360
const NO_LEAF: u32 = u32::MAX;

// Bulk-load fill factors: leave some slack like a freshly built Postgres
// index (default fillfactor 90).
const LEAF_FILL: usize = LEAF_CAP * 9 / 10;
const INT_FILL: usize = INT_CAP * 9 / 10;

/// A bulk-loaded B+Tree over one heap column.
#[derive(Debug, Clone)]
pub struct BTree {
    pub file: FileId,
    root: u32,
}

fn put_u16(buf: &mut [u8], off: usize, v: u16) {
    buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
}
fn put_u32(buf: &mut [u8], off: usize, v: u32) {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}
fn put_i64(buf: &mut [u8], off: usize, v: i64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}
fn get_u16(buf: &[u8], off: usize) -> u16 {
    u16::from_le_bytes([buf[off], buf[off + 1]])
}
fn get_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(buf[off..off + 4].try_into().expect("4 bytes"))
}
fn get_i64(buf: &[u8], off: usize) -> i64 {
    i64::from_le_bytes(buf[off..off + 8].try_into().expect("8 bytes"))
}

fn is_leaf(buf: &[u8; PAGE_SIZE]) -> bool {
    buf[0] == 0
}
fn nkeys(buf: &[u8; PAGE_SIZE]) -> usize {
    get_u16(buf, 1) as usize
}

/// `partition_point(< key)` over `n` ascending keys read by `key_at`: the
/// first not below `key`, or `n`.
fn lower_bound(n: usize, key: i64, key_at: impl Fn(usize) -> i64) -> usize {
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if key_at(mid) < key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

fn leaf_key(buf: &[u8; PAGE_SIZE], i: usize) -> i64 {
    get_i64(buf, LEAF_HDR + i * LEAF_ENTRY)
}
fn leaf_rid(buf: &[u8; PAGE_SIZE], i: usize) -> RecordId {
    RecordId {
        page_no: get_u32(buf, LEAF_HDR + i * LEAF_ENTRY + 8),
        slot: get_u16(buf, LEAF_HDR + i * LEAF_ENTRY + 12),
    }
}
fn int_key(buf: &[u8; PAGE_SIZE], i: usize) -> i64 {
    get_i64(buf, INT_HDR + i * 8)
}
fn int_child(buf: &[u8; PAGE_SIZE], i: usize) -> u32 {
    get_u32(buf, INT_CHILD_OFF + i * 4)
}

impl BTree {
    /// Bulk-load a tree from `(key, rid)` pairs (sorted internally).
    ///
    /// Leaf pages are allocated contiguously first, then each internal level,
    /// with the root last — matching the page locality of a freshly built
    /// index.
    pub fn bulk_build(disk: &mut SimDisk, mut entries: Vec<(i64, RecordId)>) -> BTree {
        entries.sort_unstable_by_key(|(k, rid)| (*k, rid.page_no, rid.slot));
        let file = disk.create_file();

        // Empty index: a single empty leaf as root.
        if entries.is_empty() {
            let pid = disk.allocate_page(file);
            let buf = disk.write(pid);
            buf[0] = 0;
            put_u16(buf, 1, 0);
            put_u32(buf, 4, NO_LEAF);
            return BTree {
                file,
                root: pid.page_no,
            };
        }

        // Level 0: leaves.
        let mut level: Vec<(u32, i64)> = Vec::new(); // (page_no, min key)
        {
            let chunks: Vec<&[(i64, RecordId)]> = entries.chunks(LEAF_FILL).collect();
            let first_page = disk.file_len(file);
            for (ci, chunk) in chunks.iter().enumerate() {
                let pid = disk.allocate_page(file);
                let buf = disk.write(pid);
                buf[0] = 0;
                put_u16(buf, 1, chunk.len() as u16);
                let next = if ci + 1 < chunks.len() {
                    first_page + ci as u32 + 1
                } else {
                    NO_LEAF
                };
                put_u32(buf, 4, next);
                for (i, (k, rid)) in chunk.iter().enumerate() {
                    let off = LEAF_HDR + i * LEAF_ENTRY;
                    put_i64(buf, off, *k);
                    put_u32(buf, off + 8, rid.page_no);
                    put_u16(buf, off + 12, rid.slot);
                }
                level.push((pid.page_no, chunk[0].0));
            }
        }

        // Upper levels until a single root remains.
        while level.len() > 1 {
            let mut next_level = Vec::new();
            for group in level.chunks(INT_FILL + 1) {
                let pid = disk.allocate_page(file);
                let buf = disk.write(pid);
                buf[0] = 1;
                put_u16(buf, 1, (group.len() - 1) as u16);
                for (i, (child, min_key)) in group.iter().enumerate() {
                    put_u32(buf, INT_CHILD_OFF + i * 4, *child);
                    if i > 0 {
                        put_i64(buf, INT_HDR + (i - 1) * 8, *min_key);
                    }
                }
                next_level.push((pid.page_no, group[0].1));
            }
            level = next_level;
        }

        BTree {
            file,
            root: level[0].0,
        }
    }

    /// Descend to the leftmost leaf that could contain `key`, reporting every
    /// node visited. Returns the leaf page number.
    fn descend(&self, disk: &SimDisk, key: i64, visit: &mut impl FnMut(PageId, NodeKind)) -> u32 {
        let mut page_no = self.root;
        loop {
            let pid = PageId::new(self.file, page_no);
            let buf = disk.read(pid);
            if is_leaf(buf) {
                visit(pid, NodeKind::Leaf);
                return page_no;
            }
            visit(pid, NodeKind::Internal);
            // The leftmost child that could contain `key` (see module docs
            // for duplicate handling).
            let child = lower_bound(nkeys(buf), key, |i| int_key(buf, i));
            page_no = int_child(buf, child);
        }
    }

    /// Hand every entry with key in `[lo, hi]` to `hit`, in key order, and
    /// every index page visited to `visit` as it is read. The first leaf is
    /// binary-searched as the descent searches each internal node; the
    /// leaves right of it are read from their first entry.
    pub(crate) fn scan(
        &self,
        disk: &SimDisk,
        lo: i64,
        hi: i64,
        visit: &mut impl FnMut(PageId, NodeKind),
        hit: &mut impl FnMut(i64, RecordId),
    ) {
        if lo > hi {
            return;
        }
        let page_no = self.descend(disk, lo, visit);
        let mut buf = disk.read(PageId::new(self.file, page_no));
        let mut from = lower_bound(nkeys(buf), lo, |i| leaf_key(buf, i));
        loop {
            for i in from..nkeys(buf) {
                let k = leaf_key(buf, i);
                if k > hi {
                    return;
                }
                hit(k, leaf_rid(buf, i));
            }
            let next = get_u32(buf, 4);
            if next == NO_LEAF {
                return;
            }
            let pid = PageId::new(self.file, next);
            visit(pid, NodeKind::Leaf);
            buf = disk.read(pid);
            from = 0;
        }
    }

    /// All record ids with key in `[lo, hi]`, together with their keys,
    /// reporting every index page visited.
    pub fn range(
        &self,
        disk: &SimDisk,
        lo: i64,
        hi: i64,
        visit: &mut impl FnMut(PageId, NodeKind),
    ) -> Vec<(i64, RecordId)> {
        let mut out = Vec::new();
        self.scan(disk, lo, hi, visit, &mut |k, rid| out.push((k, rid)));
        out
    }

    /// All record ids with exactly `key`.
    pub fn search(
        &self,
        disk: &SimDisk,
        key: i64,
        visit: &mut impl FnMut(PageId, NodeKind),
    ) -> Vec<RecordId> {
        let mut out = Vec::new();
        self.scan(disk, key, key, visit, &mut |_, rid| out.push(rid));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(n: u32) -> RecordId {
        RecordId {
            page_no: n,
            slot: (n % 7) as u16,
        }
    }

    fn build(keys: impl IntoIterator<Item = i64>) -> (SimDisk, BTree) {
        let mut disk = SimDisk::new();
        let entries: Vec<_> = keys
            .into_iter()
            .enumerate()
            .map(|(i, k)| (k, rid(i as u32)))
            .collect();
        let t = BTree::bulk_build(&mut disk, entries);
        (disk, t)
    }

    fn nop(_: PageId, _: NodeKind) {}

    /// Levels from the root to a leaf (1 = the root is a leaf).
    fn height(t: &BTree, disk: &SimDisk) -> usize {
        let mut levels = 0;
        t.descend(disk, i64::MIN, &mut |_, _| levels += 1);
        levels
    }

    #[test]
    fn empty_tree() {
        let (disk, t) = build([]);
        assert_eq!(height(&t, &disk), 1);
        assert!(t.search(&disk, 5, &mut nop).is_empty());
        assert!(t.range(&disk, i64::MIN, i64::MAX, &mut nop).is_empty());
    }

    #[test]
    fn single_leaf_lookup() {
        let (disk, t) = build(0..100);
        assert_eq!(height(&t, &disk), 1);
        for k in [0i64, 50, 99] {
            assert_eq!(t.search(&disk, k, &mut nop).len(), 1);
        }
        assert!(t.search(&disk, 100, &mut nop).is_empty());
        assert!(t.search(&disk, -1, &mut nop).is_empty());
    }

    #[test]
    fn multi_level_lookup() {
        let n = 100_000i64;
        let (disk, t) = build(0..n);
        let levels = height(&t, &disk);
        assert!(levels >= 3, "height {levels} for {n} keys");
        for k in [0, 1, 12_345, n / 2, n - 1] {
            let hits = t.search(&disk, k, &mut nop);
            assert_eq!(hits.len(), 1, "key {k}");
            assert_eq!(hits[0], rid(k as u32));
        }
        assert!(t.search(&disk, n, &mut nop).is_empty());
    }

    #[test]
    fn range_scan_exact() {
        let (disk, t) = build((0..10_000).map(|i| i * 2)); // even keys
        let got = t.range(&disk, 101, 201, &mut nop);
        let keys: Vec<i64> = got.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, (51..=100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn duplicates_all_found() {
        // 50 distinct keys, 500 copies each: runs straddle leaf boundaries.
        let keys = (0..50i64).flat_map(|k| std::iter::repeat_n(k, 500));
        let (disk, t) = build(keys);
        for k in [0i64, 7, 49] {
            assert_eq!(t.search(&disk, k, &mut nop).len(), 500, "key {k}");
        }
        assert_eq!(t.range(&disk, 10, 12, &mut nop).len(), 1500);
    }

    /// [`BTree::scan`]'s walk as it was before the first leaf was
    /// binary-searched: every leaf read from its first entry.
    fn linear_range(
        t: &BTree,
        disk: &SimDisk,
        lo: i64,
        hi: i64,
        visit: &mut impl FnMut(PageId, NodeKind),
    ) -> Vec<(i64, RecordId)> {
        let mut out = Vec::new();
        let mut page_no = t.descend(disk, lo, visit);
        loop {
            let buf = disk.read(PageId::new(t.file, page_no));
            for i in 0..nkeys(buf) {
                let k = leaf_key(buf, i);
                if k > hi {
                    return out;
                }
                if k >= lo {
                    out.push((k, leaf_rid(buf, i)));
                }
            }
            page_no = get_u32(buf, 4);
            if page_no == NO_LEAF {
                return out;
            }
            visit(PageId::new(t.file, page_no), NodeKind::Leaf);
        }
    }

    #[test]
    fn point_lookups_equal_range_and_visit_the_same_pages() {
        // Even keys in runs of 1 to 300 copies: many runs straddle a leaf
        // boundary, some span whole leaves, and odd keys fall between runs.
        let keys =
            (0..400i64).flat_map(|k| std::iter::repeat_n(k * 2, 1 + (k * 37 % 300) as usize));
        let (disk, t) = build(keys);
        assert!(height(&t, &disk) >= 2);
        for k in -1..=801 {
            let (mut point, mut ranged, mut linear) = (Vec::new(), Vec::new(), Vec::new());
            let rids = t.search(&disk, k, &mut |pid, kind| point.push((pid, kind)));
            let got = t.range(&disk, k, k, &mut |pid, kind| ranged.push((pid, kind)));
            let want = linear_range(&t, &disk, k, k, &mut |pid, kind| linear.push((pid, kind)));
            assert_eq!(got, want, "key {k}");
            assert_eq!(rids, want.iter().map(|&(_, rid)| rid).collect::<Vec<_>>());
            assert_eq!(point, linear, "key {k}");
            assert_eq!(ranged, linear, "key {k}");
        }
        // Ranges that start mid-run, on a missing key and past the end.
        for (lo, hi) in [(3, 9), (100, 100), (101, 311), (0, 0), (-5, 2), (798, 900)] {
            let (mut ranged, mut linear) = (Vec::new(), Vec::new());
            let got = t.range(&disk, lo, hi, &mut |pid, kind| ranged.push((pid, kind)));
            let want = linear_range(&t, &disk, lo, hi, &mut |pid, kind| linear.push((pid, kind)));
            assert_eq!(got, want, "[{lo}, {hi}]");
            assert_eq!(ranged, linear, "[{lo}, {hi}]");
        }
    }

    #[test]
    fn visitor_sees_root_to_leaf_path() {
        let (disk, t) = build(0..100_000);
        let mut path = Vec::new();
        t.search(&disk, 55_555, &mut |pid, kind| path.push((pid, kind)));
        assert!(path.len() >= height(&t, &disk));
        assert_eq!(path[0].0.page_no, t.root);
        assert_eq!(path[0].1, NodeKind::Internal);
        assert_eq!(path.last().unwrap().1, NodeKind::Leaf);
        // Internal prefix then leaves.
        let first_leaf = path.iter().position(|(_, k)| *k == NodeKind::Leaf).unwrap();
        assert!(path[..first_leaf]
            .iter()
            .all(|(_, k)| *k == NodeKind::Internal));
        assert!(path[first_leaf..].iter().all(|(_, k)| *k == NodeKind::Leaf));
    }

    #[test]
    fn sibling_probes_share_path_prefix() {
        let (disk, t) = build(0..100_000);
        let mut p1 = Vec::new();
        let mut p2 = Vec::new();
        t.search(&disk, 40_000, &mut |pid, _| p1.push(pid));
        t.search(&disk, 40_001, &mut |pid, _| p2.push(pid));
        // Root is certainly shared; most likely the whole internal path.
        assert_eq!(p1[0], p2[0]);
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let mut disk = SimDisk::new();
        let entries = vec![(5, rid(0)), (1, rid(1)), (3, rid(2))];
        let t = BTree::bulk_build(&mut disk, entries);
        let all = t.range(&disk, i64::MIN, i64::MAX, &mut nop);
        let keys: Vec<i64> = all.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![1, 3, 5]);
    }

    #[test]
    fn full_range_returns_everything() {
        let (disk, t) = build(0..50_000);
        assert_eq!(t.range(&disk, i64::MIN, i64::MAX, &mut nop).len(), 50_000);
    }

    #[test]
    fn negative_keys() {
        let (disk, t) = build(-1000..1000);
        assert_eq!(t.search(&disk, -500, &mut nop).len(), 1);
        assert_eq!(t.range(&disk, -10, 10, &mut nop).len(), 21);
    }

    #[test]
    fn leaf_pages_are_contiguous_prefix() {
        let (disk, t) = build(0..100_000);
        // Leaves were allocated first: pages 0..n_leaves are all leaves.
        let total = disk.file_len(t.file);
        let mut seen_internal = false;
        for p in 0..total {
            let leaf = is_leaf(disk.read(PageId::new(t.file, p)));
            if !leaf {
                seen_internal = true;
            }
            assert!(!(leaf && seen_internal), "leaf after internal at page {p}");
        }
        assert_eq!(t.root, total - 1, "root allocated last");
    }
}
