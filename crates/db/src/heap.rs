//! Heap files: one file of slotted pages per relation.

use pythia_sim::{FileId, PageId, SimDisk};

use crate::page::SlottedPage;
use crate::tuple::{self, Tuple};
use crate::types::Datum;

/// Physical address of a tuple: page number within the heap file plus slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordId {
    pub page_no: u32,
    pub slot: u16,
}

/// A heap relation: an append-only sequence of slotted pages.
#[derive(Debug, Clone)]
pub struct HeapFile {
    pub file: FileId,
    tuple_count: u64,
}

impl HeapFile {
    /// Create an empty heap in a fresh file.
    pub fn create(disk: &mut SimDisk) -> Self {
        HeapFile {
            file: disk.create_file(),
            tuple_count: 0,
        }
    }

    /// Number of tuples inserted.
    pub fn tuple_count(&self) -> u64 {
        self.tuple_count
    }

    /// Number of pages in the heap.
    pub fn page_count(&self, disk: &SimDisk) -> u32 {
        disk.file_len(self.file)
    }

    /// Append `row`, returning where it landed. A new page is allocated when
    /// the current last page is full.
    pub fn insert(&mut self, disk: &mut SimDisk, row: &[Datum]) -> RecordId {
        let len = tuple::encoded_len(row);
        let mut buf = Vec::with_capacity(len);
        tuple::encode(row, &mut buf);

        let n_pages = disk.file_len(self.file);
        let target = if n_pages > 0 {
            let last = PageId::new(self.file, n_pages - 1);
            if SlottedPage::fits(disk.read(last), buf.len()) {
                Some(last)
            } else {
                None
            }
        } else {
            None
        };
        let pid = target.unwrap_or_else(|| {
            let pid = disk.allocate_page(self.file);
            SlottedPage::init(disk.write(pid));
            pid
        });
        let slot = SlottedPage::insert(disk.write(pid), &buf);
        self.tuple_count += 1;
        RecordId {
            page_no: pid.page_no,
            slot,
        }
    }

    /// The encoded bytes of the tuple at `rid`, borrowed from the disk.
    pub fn record<'d>(&self, disk: &'d SimDisk, rid: RecordId) -> &'d [u8] {
        let page = disk.read(PageId::new(self.file, rid.page_no));
        SlottedPage::record(page, rid.slot)
    }

    /// Fetch the tuple at `rid`.
    pub fn read_tuple(&self, disk: &SimDisk, rid: RecordId) -> Tuple {
        tuple::decode(self.record(disk, rid))
    }

    /// Number of tuples on page `page_no`.
    pub fn tuples_on_page(&self, disk: &SimDisk, page_no: u32) -> u16 {
        SlottedPage::slot_count(disk.read(PageId::new(self.file, page_no)))
    }

    /// Decode every tuple on page `page_no` (in slot order).
    pub fn read_page(&self, disk: &SimDisk, page_no: u32) -> Vec<(RecordId, Tuple)> {
        let page = disk.read(PageId::new(self.file, page_no));
        let n = SlottedPage::slot_count(page);
        (0..n)
            .map(|slot| {
                (
                    RecordId { page_no, slot },
                    tuple::decode(SlottedPage::record(page, slot)),
                )
            })
            .collect()
    }

    /// Full scan in storage order (used for index builds and tests; the
    /// executor's SeqScan walks the records itself, so it can record the
    /// trace and decode only the rows its predicate keeps).
    pub fn scan<'a>(&'a self, disk: &'a SimDisk) -> impl Iterator<Item = (RecordId, Tuple)> + 'a {
        let pages = self.page_count(disk);
        (0..pages).flat_map(move |p| self.read_page(disk, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(v: i64) -> Vec<Datum> {
        vec![Datum::Int(v), Datum::Int(v * 10)]
    }

    #[test]
    fn insert_and_fetch() {
        let mut disk = SimDisk::new();
        let mut h = HeapFile::create(&mut disk);
        let rid = h.insert(&mut disk, &row(7));
        assert_eq!(h.read_tuple(&disk, rid), row(7));
        assert_eq!(h.tuple_count(), 1);
    }

    #[test]
    fn spills_to_new_pages() {
        let mut disk = SimDisk::new();
        let mut h = HeapFile::create(&mut disk);
        for i in 0..1000 {
            h.insert(&mut disk, &row(i));
        }
        assert!(h.page_count(&disk) > 1, "1000 rows cannot fit one 2KB page");
        // Rows per page: 2 ints = 2+9+9=20 bytes + 4 slot = 24 -> ~85/page.
        let per_page = h.tuples_on_page(&disk, 0);
        assert!((80..=90).contains(&per_page), "got {per_page}");
    }

    #[test]
    fn scan_returns_all_in_order() {
        let mut disk = SimDisk::new();
        let mut h = HeapFile::create(&mut disk);
        for i in 0..500 {
            h.insert(&mut disk, &row(i));
        }
        let vals: Vec<i64> = h.scan(&disk).map(|(_, t)| t[0].as_int().unwrap()).collect();
        assert_eq!(vals, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn rids_are_dense_and_addressable() {
        let mut disk = SimDisk::new();
        let mut h = HeapFile::create(&mut disk);
        let rids: Vec<RecordId> = (0..300).map(|i| h.insert(&mut disk, &row(i))).collect();
        for (i, rid) in rids.iter().enumerate() {
            assert_eq!(h.read_tuple(&disk, *rid)[0], Datum::Int(i as i64));
        }
    }

    #[test]
    fn variable_width_rows() {
        let mut disk = SimDisk::new();
        let mut h = HeapFile::create(&mut disk);
        let wide = vec![Datum::Str("x".repeat(500))];
        let rids: Vec<_> = (0..10).map(|_| h.insert(&mut disk, &wide)).collect();
        assert!(h.page_count(&disk) >= 3);
        for rid in rids {
            assert_eq!(h.read_tuple(&disk, rid), wide);
        }
    }
}
