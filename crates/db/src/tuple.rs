//! Tuples and their on-page byte encoding.
//!
//! Encoding (little-endian throughout):
//! `u16 arity`, then per datum a 1-byte tag (`0`=Int, `1`=Str, `2`=Null)
//! followed by the payload (`i64` for Int, `u16 len` + UTF-8 bytes for Str,
//! nothing for Null).

use crate::types::Datum;

/// A row: an ordered list of datums.
pub type Tuple = Vec<Datum>;

const TAG_INT: u8 = 0;
const TAG_STR: u8 = 1;
const TAG_NULL: u8 = 2;

/// Serialized size of `tuple` in bytes.
pub(crate) fn encoded_len(tuple: &[Datum]) -> usize {
    2 + tuple
        .iter()
        .map(|d| match d {
            Datum::Int(_) => 1 + 8,
            Datum::Str(s) => 1 + 2 + s.len(),
            Datum::Null => 1,
        })
        .sum::<usize>()
}

/// Write the encoding of `tuple` into `out`, which must be exactly
/// [`encoded_len`] bytes long: a heap page hands over the record's place, so
/// a row is encoded where it lands.
///
/// # Panics
/// Panics if `out` is not [`encoded_len`] bytes long.
pub(crate) fn encode(tuple: &[Datum], out: &mut [u8]) {
    out[..2].copy_from_slice(&(tuple.len() as u16).to_le_bytes());
    let mut off = 2;
    for d in tuple {
        match d {
            Datum::Int(v) => {
                out[off] = TAG_INT;
                out[off + 1..off + 9].copy_from_slice(&v.to_le_bytes());
                off += 9;
            }
            Datum::Str(s) => {
                assert!(s.len() <= u16::MAX as usize, "string too long to encode");
                out[off] = TAG_STR;
                out[off + 1..off + 3].copy_from_slice(&(s.len() as u16).to_le_bytes());
                out[off + 3..off + 3 + s.len()].copy_from_slice(s.as_bytes());
                off += 3 + s.len();
            }
            Datum::Null => {
                out[off] = TAG_NULL;
                off += 1;
            }
        }
    }
    assert_eq!(off, out.len(), "encode target is not encoded_len bytes");
}

/// Decode one tuple from `bytes`.
///
/// # Panics
/// Panics on malformed input — page bytes are written only by [`encode`], so
/// corruption is an internal invariant violation, not a user error.
pub(crate) fn decode(bytes: &[u8]) -> Tuple {
    let arity = u16::from_le_bytes([bytes[0], bytes[1]]) as usize;
    let mut off = 2;
    let mut out = Vec::with_capacity(arity);
    for _ in 0..arity {
        let tag = bytes[off];
        off += 1;
        match tag {
            TAG_INT => {
                let v = i64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes"));
                off += 8;
                out.push(Datum::Int(v));
            }
            TAG_STR => {
                let len = u16::from_le_bytes([bytes[off], bytes[off + 1]]) as usize;
                off += 2;
                let s = std::str::from_utf8(&bytes[off..off + len]).expect("valid UTF-8");
                off += len;
                out.push(Datum::Str(s.to_owned()));
            }
            TAG_NULL => out.push(Datum::Null),
            other => panic!("corrupt tuple encoding: tag {other}"),
        }
    }
    out
}

/// How a heap's records are laid out, which decides how a column is found
/// in an encoding without decoding it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Every record is exactly `n` `Int`s: column `c`'s payload sits at
    /// byte `3 + 9·c`.
    Ints(usize),
    /// Anything else: a column is found by walking the tags before it.
    Tagged,
}

impl Layout {
    /// The layout of `tuple` alone.
    pub(crate) fn of(tuple: &[Datum]) -> Layout {
        if tuple.iter().all(|d| matches!(d, Datum::Int(_))) {
            Layout::Ints(tuple.len())
        } else {
            Layout::Tagged
        }
    }

    /// `decode(bytes)[col].as_int()` without decoding, for a record laid out
    /// as `self`: one load under `Ints`, a walk of the tags up to `col`
    /// under `Tagged`. Allocates nothing, so a scan can test its predicate
    /// on the record where it lies. `None` for a `Str` or `Null` column.
    ///
    /// # Panics
    /// Panics if `col` is past the tuple's arity, as indexing the decoded
    /// tuple does, and on malformed input, as `decode` does.
    #[inline]
    pub fn int_at(self, bytes: &[u8], col: usize) -> Option<i64> {
        match self {
            Layout::Ints(arity) => {
                assert!(col < arity, "column {col} out of range ({arity} columns)");
                let off = 3 + 9 * col;
                Some(i64::from_le_bytes(
                    bytes[off..off + 8].try_into().expect("8 bytes"),
                ))
            }
            Layout::Tagged => int_at(bytes, col),
        }
    }
}

/// [`Layout::int_at`] under `Tagged`: walks the tags up to `col`.
fn int_at(bytes: &[u8], col: usize) -> Option<i64> {
    let arity = u16::from_le_bytes([bytes[0], bytes[1]]) as usize;
    assert!(col < arity, "column {col} out of range ({arity} columns)");
    let mut off = 2;
    for _ in 0..col {
        off += match bytes[off] {
            TAG_INT => 1 + 8,
            TAG_STR => 1 + 2 + u16::from_le_bytes([bytes[off + 1], bytes[off + 2]]) as usize,
            TAG_NULL => 1,
            other => panic!("corrupt tuple encoding: tag {other}"),
        };
    }
    match bytes[off] {
        TAG_INT => Some(i64::from_le_bytes(
            bytes[off + 1..off + 9].try_into().expect("8 bytes"),
        )),
        TAG_STR | TAG_NULL => None,
        other => panic!("corrupt tuple encoding: tag {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(t: &[Datum]) {
        let mut buf = vec![0; encoded_len(t)];
        encode(t, &mut buf);
        assert_eq!(decode(&buf), t);
    }

    #[test]
    fn roundtrip_ints() {
        roundtrip(&[Datum::Int(0), Datum::Int(-1), Datum::Int(i64::MAX)]);
    }

    #[test]
    fn roundtrip_mixed() {
        roundtrip(&[Datum::Int(42), Datum::Str("hello".into()), Datum::Null]);
    }

    #[test]
    fn roundtrip_empty() {
        roundtrip(&[]);
    }

    #[test]
    fn roundtrip_empty_string() {
        roundtrip(&[Datum::Str(String::new())]);
    }

    #[test]
    fn encoded_len_matches() {
        let t = vec![Datum::Int(1), Datum::Str("abc".into())];
        assert_eq!(encoded_len(&t), 2 + 9 + 1 + 2 + 3);
    }
}
