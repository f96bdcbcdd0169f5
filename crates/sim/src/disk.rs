//! The simulated persistent store.
//!
//! A [`SimDisk`] is a collection of files, each an append-only vector of
//! fixed-size pages holding real bytes. The mini-RDBMS stores its heap files
//! and B+Tree node files here, exactly like Postgres stores each relation
//! and index in its own file. Timing is *not* modelled here — the buffer
//! manager combines disk contents with the [`crate::OsPageCache`] and
//! [`crate::CostModel`] to decide what each access costs.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Size of a disk page in bytes.
///
/// Postgres uses 8 KiB pages over ~12M pages at DSB SF100; we use 2 KiB pages
/// over tens of thousands of pages so the whole database (and the model output
/// layer sized by page count) fits a laptop. The ratio of tuples per page is
/// preserved by also shrinking tuple width in the workload generator.
pub const PAGE_SIZE: usize = 2048;

/// Identifier of a file on the simulated disk (one per relation / index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub u32);

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "file#{}", self.0)
    }
}

/// A page address: file plus page number within that file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId {
    pub file: FileId,
    pub page_no: u32,
}

impl PageId {
    pub fn new(file: FileId, page_no: u32) -> Self {
        PageId { file, page_no }
    }

    /// Pack this address into one `u64` (`file` in the high half, `page_no`
    /// in the low half) — the form trace events carry as an argument.
    pub fn trace_key(self) -> u64 {
        ((self.file.0 as u64) << 32) | self.page_no as u64
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.file, self.page_no)
    }
}

/// The hasher of every page-keyed table on the replay path (the buffer
/// pool's page table, the OS cache's LRU index and its readahead detector):
/// one rotate-xor-multiply per key word, fixed for all processes.
///
/// Those keys are page, file and stream ids derived from the catalog; none
/// arrives from the wire, so `std`'s keyed SipHash — there to resist crafted
/// collisions — would buy nothing and cost most of every lookup. No result
/// may depend on a table's iteration order: the tables are probed, `retain`ed
/// (order-free) and listed for tests, nothing else.
#[derive(Debug, Clone, Copy, Default)]
pub struct PageHasher(u64);

/// `HashMap` keyed by page, file or stream ids, hashed with [`PageHasher`].
pub type PageMap<K, V> = HashMap<K, V, BuildHasherDefault<PageHasher>>;

impl PageHasher {
    /// 2^64 / φ, odd: the multiply carries every input bit into the top
    /// bits, which is where the table takes its 7-bit tag from.
    const MUL: u64 = 0x9E37_79B9_7F4A_7C15;

    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::MUL);
    }
}

impl Hasher for PageHasher {
    /// Any other key shape, a byte at a time (no derived `Hash` of the keys
    /// above comes through here).
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(b as u64);
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// One simulated file: an ordered sequence of pages.
#[derive(Debug, Default)]
struct SimFile {
    pages: Vec<[u8; PAGE_SIZE]>,
}

/// The simulated disk: all persistent bytes of the database.
#[derive(Debug, Default)]
pub struct SimDisk {
    files: Vec<SimFile>,
}

impl SimDisk {
    /// An empty disk with no files.
    pub fn new() -> Self {
        SimDisk::default()
    }

    /// Create a new empty file and return its id.
    pub fn create_file(&mut self) -> FileId {
        let id = FileId(self.files.len() as u32);
        self.files.push(SimFile::default());
        id
    }

    /// Number of files on the disk.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Append a zeroed page to `file`, returning the new page's id.
    ///
    /// # Panics
    /// Panics if `file` does not exist — allocation against a missing file is
    /// a programming error in the storage layer, not a runtime condition.
    pub fn allocate_page(&mut self, file: FileId) -> PageId {
        let f = &mut self.files[file.0 as usize];
        let page_no = f.pages.len() as u32;
        f.pages.push([0u8; PAGE_SIZE]);
        PageId::new(file, page_no)
    }

    /// Number of pages currently allocated in `file`.
    pub fn file_len(&self, file: FileId) -> u32 {
        self.files[file.0 as usize].pages.len() as u32
    }

    /// Total pages across all files.
    pub fn total_pages(&self) -> u64 {
        self.files.iter().map(|f| f.pages.len() as u64).sum()
    }

    /// Read-only view of a page's bytes.
    ///
    /// # Panics
    /// Panics on an out-of-range page id (storage-layer invariant violation).
    pub fn read(&self, pid: PageId) -> &[u8; PAGE_SIZE] {
        &self.files[pid.file.0 as usize].pages[pid.page_no as usize]
    }

    /// Mutable view of a page's bytes.
    pub fn write(&mut self, pid: PageId) -> &mut [u8; PAGE_SIZE] {
        &mut self.files[pid.file.0 as usize].pages[pid.page_no as usize]
    }

    /// Whether `pid` addresses an allocated page.
    pub fn contains(&self, pid: PageId) -> bool {
        (pid.file.0 as usize) < self.files.len()
            && (pid.page_no as usize) < self.files[pid.file.0 as usize].pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn create_and_allocate() {
        let mut d = SimDisk::new();
        let f = d.create_file();
        assert_eq!(d.file_len(f), 0);
        let p0 = d.allocate_page(f);
        let p1 = d.allocate_page(f);
        assert_eq!(p0.page_no, 0);
        assert_eq!(p1.page_no, 1);
        assert_eq!(d.file_len(f), 2);
        assert_eq!(d.total_pages(), 2);
    }

    #[test]
    fn pages_are_zeroed_and_independent() {
        let mut d = SimDisk::new();
        let f = d.create_file();
        let p0 = d.allocate_page(f);
        let p1 = d.allocate_page(f);
        d.write(p0)[0] = 0xAB;
        assert_eq!(d.read(p0)[0], 0xAB);
        assert_eq!(d.read(p1)[0], 0);
    }

    #[test]
    fn files_are_independent() {
        let mut d = SimDisk::new();
        let f0 = d.create_file();
        let f1 = d.create_file();
        let a = d.allocate_page(f0);
        let b = d.allocate_page(f1);
        d.write(a)[10] = 1;
        d.write(b)[10] = 2;
        assert_eq!(d.read(a)[10], 1);
        assert_eq!(d.read(b)[10], 2);
        assert_ne!(a, b);
    }

    #[test]
    fn contains_bounds() {
        let mut d = SimDisk::new();
        let f = d.create_file();
        let p = d.allocate_page(f);
        assert!(d.contains(p));
        assert!(!d.contains(PageId::new(f, 99)));
        assert!(!d.contains(PageId::new(FileId(9), 0)));
    }

    #[test]
    fn page_id_display() {
        let pid = PageId::new(FileId(3), 17);
        assert_eq!(pid.to_string(), "file#3:17");
    }

    #[test]
    fn page_hasher_is_the_same_in_every_table() {
        // No per-instance (or per-process) key: two builders agree, so a
        // table's layout — and anything that leaked from it — repeats.
        type Build = BuildHasherDefault<PageHasher>;
        let (a, b) = (Build::default(), Build::default());
        for key in [PageId::new(FileId(0), 0), PageId::new(FileId(24), 499)] {
            assert_eq!(a.hash_one(key), b.hash_one(key));
        }
        assert_eq!(a.hash_one((7u64, FileId(3))), b.hash_one((7u64, FileId(3))));
        assert_ne!(
            a.hash_one(PageId::new(FileId(1), 2)),
            a.hash_one(PageId::new(FileId(2), 1))
        );
    }

    #[test]
    fn page_hasher_bytes_hash_the_same_however_they_are_split() {
        let bytes: Vec<u8> = (1..=41).collect();
        let mut whole = PageHasher::default();
        whole.write(&bytes);
        for cut in [0, 1, 7, 8, 9, 40, 41] {
            let mut split = PageHasher::default();
            split.write(&bytes[..cut]);
            split.write(&bytes[cut..]);
            assert_eq!(split.finish(), whole.finish(), "cut at {cut}");
        }
        let mut other = PageHasher::default();
        other.write(&bytes[1..]);
        assert_ne!(other.finish(), whole.finish());
    }

    #[test]
    fn page_hasher_spreads_the_benchmark_catalog() {
        // `Database::file_lengths()` of the benchmark's fixture (scale 0.1,
        // 25 files, 1768 pages). The table picks a bucket from the hash's low
        // bits (8 for a pool of 12 % of these pages, 10 for an OS cache of
        // 35 %) and tags the entry with its top 7 bits: neither may pile up.
        const LENS: [u32; 25] = [
            46, 142, 96, 30, 40, 50, 1, 1, 261, 30, 66, 500, 125, 1, 38, 31, 13, 20, 20, 1, 1, 18,
            188, 48, 1,
        ];
        let build = BuildHasherDefault::<PageHasher>::default();
        let hashes: Vec<u64> = (0u32..)
            .zip(LENS)
            .flat_map(|(f, len)| (0..len).map(move |p| PageId::new(FileId(f), p)))
            .map(|pid| build.hash_one(pid))
            .collect();
        let fullest = |slot: &dyn Fn(u64) -> usize, slots: usize| {
            let mut load = vec![0usize; slots];
            for &h in &hashes {
                load[slot(h)] += 1;
            }
            let fair = (4.0 * hashes.len() as f64 / slots as f64).ceil() as usize;
            let max = load.into_iter().max().unwrap_or(0);
            assert!(
                max <= fair,
                "{max} keys in one of {slots} slots (4x mean: {fair})"
            );
        };
        for bits in [8, 10, 12] {
            fullest(&|h| (h & ((1 << bits) - 1)) as usize, 1 << bits);
        }
        fullest(&|h| (h >> 57) as usize, 128);
    }

    #[test]
    fn page_id_ordering_is_file_then_offset() {
        let a = PageId::new(FileId(0), 100);
        let b = PageId::new(FileId(1), 0);
        let c = PageId::new(FileId(1), 5);
        assert!(a < b && b < c);
    }
}
