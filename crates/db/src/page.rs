//! Slotted heap pages.
//!
//! Layout within a [`PAGE_SIZE`]-byte page:
//!
//! ```text
//! +-------------------+------------------------+--------------------+
//! | header (4 bytes)  | slot array (4 B each)  |  ...free...  data  |
//! +-------------------+------------------------+--------------------+
//!   u16 slot_count      per slot: u16 offset,      records grow from
//!   u16 free_end        u16 length                 the page tail
//! ```
//!
//! Records are never deleted or updated (the database is static, as in the
//! paper), so there is no compaction path.

use pythia_sim::PAGE_SIZE;

const HEADER: usize = 4;
const SLOT: usize = 4;

/// Read-only and append-only access to one slotted page.
pub struct SlottedPage;

impl SlottedPage {
    /// Initialize an empty slotted page in `buf`.
    pub(crate) fn init(buf: &mut [u8; PAGE_SIZE]) {
        buf[0..2].copy_from_slice(&0u16.to_le_bytes());
        buf[2..4].copy_from_slice(&(PAGE_SIZE as u16).to_le_bytes());
    }

    /// Number of records on the page.
    pub(crate) fn slot_count(buf: &[u8; PAGE_SIZE]) -> u16 {
        u16::from_le_bytes([buf[0], buf[1]])
    }

    fn free_end(buf: &[u8; PAGE_SIZE]) -> u16 {
        u16::from_le_bytes([buf[2], buf[3]])
    }

    /// Free bytes remaining (accounting for the slot the record would need).
    pub(crate) fn free_space(buf: &[u8; PAGE_SIZE]) -> usize {
        let slots_end = HEADER + Self::slot_count(buf) as usize * SLOT;
        (Self::free_end(buf) as usize).saturating_sub(slots_end)
    }

    /// Whether a record of `len` bytes fits.
    pub(crate) fn fits(buf: &[u8; PAGE_SIZE], len: usize) -> bool {
        Self::free_space(buf) >= len + SLOT
    }

    /// Append a record of `len` bytes, which `write` fills in place; returns
    /// its slot number.
    ///
    /// # Panics
    /// Panics if the record does not fit — callers must check [`Self::fits`].
    pub(crate) fn insert(
        buf: &mut [u8; PAGE_SIZE],
        len: usize,
        write: impl FnOnce(&mut [u8]),
    ) -> u16 {
        assert!(Self::fits(buf, len), "record does not fit in page");
        let n = Self::slot_count(buf);
        let end = Self::free_end(buf) as usize;
        let start = end - len;
        write(&mut buf[start..end]);
        let slot_off = HEADER + n as usize * SLOT;
        buf[slot_off..slot_off + 2].copy_from_slice(&(start as u16).to_le_bytes());
        buf[slot_off + 2..slot_off + 4].copy_from_slice(&(len as u16).to_le_bytes());
        buf[0..2].copy_from_slice(&(n + 1).to_le_bytes());
        buf[2..4].copy_from_slice(&(start as u16).to_le_bytes());
        n
    }

    /// The bytes of record `slot`.
    ///
    /// # Panics
    /// Panics if `slot` is out of range.
    pub(crate) fn record(buf: &[u8; PAGE_SIZE], slot: u16) -> &[u8] {
        let n = Self::slot_count(buf);
        assert!(slot < n, "slot {slot} out of range ({n} slots)");
        let slot_off = HEADER + slot as usize * SLOT;
        let start = u16::from_le_bytes([buf[slot_off], buf[slot_off + 1]]) as usize;
        let len = u16::from_le_bytes([buf[slot_off + 2], buf[slot_off + 3]]) as usize;
        &buf[start..start + len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty() -> Box<[u8; PAGE_SIZE]> {
        let mut b = Box::new([0u8; PAGE_SIZE]);
        SlottedPage::init(&mut b);
        b
    }

    fn insert(buf: &mut [u8; PAGE_SIZE], record: &[u8]) -> u16 {
        SlottedPage::insert(buf, record.len(), |dst| dst.copy_from_slice(record))
    }

    #[test]
    fn init_is_empty() {
        let b = empty();
        assert_eq!(SlottedPage::slot_count(&b), 0);
        assert_eq!(SlottedPage::free_space(&b), PAGE_SIZE - HEADER);
    }

    #[test]
    fn insert_and_read_back() {
        let mut b = empty();
        let s0 = insert(&mut b, b"hello");
        let s1 = insert(&mut b, b"world!");
        assert_eq!(s0, 0);
        assert_eq!(s1, 1);
        assert_eq!(SlottedPage::record(&b, 0), b"hello");
        assert_eq!(SlottedPage::record(&b, 1), b"world!");
        assert_eq!(SlottedPage::slot_count(&b), 2);
    }

    #[test]
    fn fills_until_capacity() {
        let mut b = empty();
        let rec = [7u8; 100];
        let mut n = 0;
        while SlottedPage::fits(&b, rec.len()) {
            insert(&mut b, &rec);
            n += 1;
        }
        // 104 bytes per record (100 data + 4 slot) within 2044 usable.
        assert_eq!(n, (PAGE_SIZE - HEADER) / (100 + SLOT));
        // Everything still readable.
        for s in 0..n {
            assert_eq!(SlottedPage::record(&b, s as u16), &rec);
        }
    }

    #[test]
    fn zero_length_records() {
        let mut b = empty();
        let s = insert(&mut b, b"");
        assert_eq!(SlottedPage::record(&b, s), b"");
    }

    #[test]
    #[should_panic]
    fn oversized_insert_panics() {
        let mut b = empty();
        insert(&mut b, &vec![0u8; PAGE_SIZE]);
    }

    #[test]
    #[should_panic]
    fn bad_slot_panics() {
        let b = empty();
        SlottedPage::record(&b, 0);
    }
}
