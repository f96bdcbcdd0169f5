//! Heap files: one file of slotted pages per relation.

use pythia_sim::{FileId, PageId, SimDisk};

use crate::page::SlottedPage;
use crate::tuple::{self, Layout, Tuple};
use crate::types::Datum;

/// Physical address of a tuple: page number within the heap file plus slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordId {
    pub page_no: u32,
    pub slot: u16,
}

/// Consecutive pages that share one zone.
const ZONE_PAGES: u32 = 8;

/// A heap relation: an append-only sequence of slotted pages.
#[derive(Debug, Clone)]
pub struct HeapFile {
    pub file: FileId,
    tuple_count: u64,
    /// Set by the first row; a later row of any other layout makes it
    /// `Tagged` for good.
    layout: Layout,
    /// While the layout is `Ints(n)`: `n` `(min, max)` pairs per extent of
    /// [`ZONE_PAGES`] pages, the bounds of each column over the extent's rows.
    zones: Vec<(i64, i64)>,
    /// Column `c`'s `(min, max)` over every `Int` the heap holds in it,
    /// `(i64::MAX, i64::MIN)` while it holds none; as long as the longest
    /// row.
    bounds: Vec<(i64, i64)>,
}

impl HeapFile {
    /// Create an empty heap in a fresh file.
    pub fn create(disk: &mut SimDisk) -> Self {
        HeapFile {
            file: disk.create_file(),
            tuple_count: 0,
            layout: Layout::Tagged,
            zones: Vec::new(),
            bounds: Vec::new(),
        }
    }

    /// Number of tuples inserted.
    pub fn tuple_count(&self) -> u64 {
        self.tuple_count
    }

    /// How every record of the heap is laid out (`Tagged` while empty).
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// The column bounds of the extent holding page `page_no`: every row on
    /// the page has column `c` within `zone[c]`. `None` unless the heap's
    /// layout is `Ints`.
    pub fn zone(&self, page_no: u32) -> Option<&[(i64, i64)]> {
        let Layout::Ints(n) = self.layout else {
            return None;
        };
        let start = (page_no / ZONE_PAGES) as usize * n;
        Some(&self.zones[start..start + n])
    }

    /// Each column's `(min, max)` over every `Int` in it, of any layout:
    /// what the zones of an `Ints` heap fold to, and `(i64::MAX, i64::MIN)`
    /// for a column that holds none. Kept at insert, so it reads no page.
    pub fn bounds(&self) -> &[(i64, i64)] {
        &self.bounds
    }

    /// Number of pages in the heap.
    pub fn page_count(&self, disk: &SimDisk) -> u32 {
        disk.file_len(self.file)
    }

    /// Append `row`, encoded straight into its place on the heap's last
    /// page, and return where it landed. A new page is allocated when the
    /// last page is full.
    pub fn insert(&mut self, disk: &mut SimDisk, row: &[Datum]) -> RecordId {
        let len = tuple::encoded_len(row);
        let n_pages = disk.file_len(self.file);
        let last = (n_pages > 0).then(|| PageId::new(self.file, n_pages - 1));
        let pid = match last {
            Some(last) if SlottedPage::fits(disk.read(last), len) => last,
            _ => {
                let pid = disk.allocate_page(self.file);
                SlottedPage::init(disk.write(pid));
                pid
            }
        };
        let slot = SlottedPage::insert(disk.write(pid), len, |dst| tuple::encode(row, dst));
        self.tuple_count += 1;
        self.widen_zone(pid.page_no, row);
        self.widen_bounds(row);
        RecordId {
            page_no: pid.page_no,
            slot,
        }
    }

    /// Keep the layout and the zone of page `page_no` true of `row`, the
    /// heap's newest.
    fn widen_zone(&mut self, page_no: u32, row: &[Datum]) {
        if self.tuple_count == 1 {
            self.layout = Layout::of(row);
        } else if self.layout != Layout::of(row) {
            self.layout = Layout::Tagged;
            self.zones = Vec::new();
        }
        let Layout::Ints(n) = self.layout else {
            return;
        };
        let start = (page_no / ZONE_PAGES) as usize * n;
        if start == self.zones.len() {
            self.zones.extend(row.iter().map(|_| (i64::MAX, i64::MIN)));
        }
        for (zone, datum) in self.zones[start..].iter_mut().zip(row) {
            let v = datum.as_int().expect("an Ints row");
            *zone = (zone.0.min(v), zone.1.max(v));
        }
    }

    /// Keep [`Self::bounds`] true of `row`.
    fn widen_bounds(&mut self, row: &[Datum]) {
        if self.bounds.len() < row.len() {
            self.bounds.resize(row.len(), (i64::MAX, i64::MIN));
        }
        for (b, datum) in self.bounds.iter_mut().zip(row) {
            if let Some(v) = datum.as_int() {
                *b = (b.0.min(v), b.1.max(v));
            }
        }
    }

    /// The encoded bytes of the tuple at `rid`, borrowed from the disk.
    pub(crate) fn record<'d>(&self, disk: &'d SimDisk, rid: RecordId) -> &'d [u8] {
        let page = disk.read(PageId::new(self.file, rid.page_no));
        SlottedPage::record(page, rid.slot)
    }

    /// Fetch the tuple at `rid`.
    pub fn read_tuple(&self, disk: &SimDisk, rid: RecordId) -> Tuple {
        tuple::decode(self.record(disk, rid))
    }

    /// Number of tuples on page `page_no`.
    pub(crate) fn tuples_on_page(&self, disk: &SimDisk, page_no: u32) -> u16 {
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

    /// Every record in storage order, with the bytes borrowed from the disk:
    /// a set-up pass reads the columns it needs through [`Layout::int_at`]
    /// and decodes nothing.
    pub fn records<'d>(
        &self,
        disk: &'d SimDisk,
    ) -> impl Iterator<Item = (RecordId, &'d [u8])> + 'd {
        let file = self.file;
        (0..self.page_count(disk)).flat_map(move |page_no| {
            let page = disk.read(PageId::new(file, page_no));
            (0..SlottedPage::slot_count(page))
                .map(move |slot| (RecordId { page_no, slot }, SlottedPage::record(page, slot)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_sim::PAGE_SIZE;

    fn row(v: i64) -> Vec<Datum> {
        vec![Datum::Int(v), Datum::Int(v * 10)]
    }

    /// The encoding the tuple module's docs state, written out by hand.
    fn encode_by_hand(row: &[Datum]) -> Vec<u8> {
        let mut out = (row.len() as u16).to_le_bytes().to_vec();
        for d in row {
            match d {
                Datum::Int(v) => {
                    out.push(0);
                    out.extend_from_slice(&v.to_le_bytes());
                }
                Datum::Str(s) => {
                    out.push(1);
                    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
                    out.extend_from_slice(s.as_bytes());
                }
                Datum::Null => out.push(2),
            }
        }
        out
    }

    #[test]
    fn insert_in_place_writes_the_bytes_of_encode_then_copy() {
        let mut disk = SimDisk::new();
        let mut h = HeapFile::create(&mut disk);
        // The reference: encode each row into a buffer, then copy it onto
        // the last page that has room.
        let mut pages: Vec<Box<[u8; PAGE_SIZE]>> = Vec::new();
        for i in 0..400_i64 {
            let row = match i % 3 {
                0 => vec![Datum::Int(i), Datum::Int(-i)],
                1 => vec![Datum::Str("s".repeat(i as usize % 40)), Datum::Int(i)],
                _ => vec![Datum::Null, Datum::Str(String::new()), Datum::Int(i)],
            };
            let rec = encode_by_hand(&row);
            if !pages
                .last()
                .is_some_and(|p| SlottedPage::fits(p, rec.len()))
            {
                let mut page = Box::new([0u8; PAGE_SIZE]);
                SlottedPage::init(&mut page);
                pages.push(page);
            }
            let page = pages.last_mut().expect("a page");
            let slot = SlottedPage::insert(page, rec.len(), |dst| dst.copy_from_slice(&rec));
            let page_no = pages.len() as u32 - 1;
            assert_eq!(h.insert(&mut disk, &row), RecordId { page_no, slot });
            assert_eq!(h.read_tuple(&disk, RecordId { page_no, slot }), row);
        }
        assert!(
            pages.len() > 2,
            "{} pages: the rows must spill",
            pages.len()
        );
        assert_eq!(h.page_count(&disk) as usize, pages.len());
        for (p, page) in pages.iter().enumerate() {
            assert_eq!(
                disk.read(PageId::new(h.file, p as u32)),
                &**page,
                "page {p}"
            );
        }
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
    fn records_come_in_storage_order() {
        let mut disk = SimDisk::new();
        let mut h = HeapFile::create(&mut disk);
        let rids: Vec<RecordId> = (0..500).map(|i| h.insert(&mut disk, &row(i))).collect();
        let (seen, vals): (Vec<RecordId>, Vec<Tuple>) = h
            .records(&disk)
            .map(|(rid, bytes)| (rid, tuple::decode(bytes)))
            .unzip();
        assert_eq!(seen, rids);
        assert_eq!(vals, (0..500).map(row).collect::<Vec<_>>());
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
    fn layout_stays_ints_until_a_row_is_not() {
        let mut disk = SimDisk::new();
        let empty = HeapFile::create(&mut disk);
        assert_eq!(empty.layout(), Layout::Tagged);
        for odd in [
            vec![Datum::Int(1), Datum::Str("x".into())],
            vec![Datum::Null, Datum::Int(1)],
            vec![Datum::Int(1), Datum::Int(2), Datum::Int(3)],
        ] {
            let mut h = HeapFile::create(&mut disk);
            for i in 0..200 {
                h.insert(&mut disk, &row(i));
            }
            assert_eq!(h.layout(), Layout::Ints(2));
            assert!(h.zone(0).is_some());
            h.insert(&mut disk, &odd);
            h.insert(&mut disk, &row(7));
            assert_eq!(h.layout(), Layout::Tagged, "after {odd:?}");
            assert_eq!(h.zone(0), None);
        }
    }

    #[test]
    fn zones_bound_every_row_of_their_extent() {
        let mut disk = SimDisk::new();
        let mut h = HeapFile::create(&mut disk);
        // Scattered values, so an extent's bounds are not its first and
        // last rows.
        for i in 0..3000_i64 {
            h.insert(
                &mut disk,
                &[Datum::Int((i * 7919) % 1013 - 500), Datum::Int(-i)],
            );
        }
        let pages = h.page_count(&disk);
        assert!(pages > 2 * ZONE_PAGES, "{pages} pages");
        for p in 0..pages {
            let zone = h.zone(p).expect("an Ints heap");
            assert_eq!(
                zone,
                h.zone(p - p % ZONE_PAGES).unwrap(),
                "one zone per extent"
            );
            for (_, t) in h.read_page(&disk, p) {
                for (c, d) in t.iter().enumerate() {
                    let v = d.as_int().unwrap();
                    assert!(zone[c].0 <= v && v <= zone[c].1, "page {p} column {c}: {v}");
                }
            }
        }
        // Tight: each bound is some row of its extent.
        let extent: Vec<Tuple> = (0..ZONE_PAGES)
            .flat_map(|p| h.read_page(&disk, p).into_iter().map(|(_, t)| t))
            .collect();
        for (c, &(lo, hi)) in h.zone(0).unwrap().iter().enumerate() {
            let col = extent.iter().map(|t| t[c].as_int().unwrap());
            assert_eq!((lo, hi), (col.clone().min().unwrap(), col.max().unwrap()));
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
