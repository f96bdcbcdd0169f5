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
pub fn encoded_len(tuple: &[Datum]) -> usize {
    2 + tuple
        .iter()
        .map(|d| match d {
            Datum::Int(_) => 1 + 8,
            Datum::Str(s) => 1 + 2 + s.len(),
            Datum::Null => 1,
        })
        .sum::<usize>()
}

/// Append the encoding of `tuple` to `out`.
pub fn encode(tuple: &[Datum], out: &mut Vec<u8>) {
    out.extend_from_slice(&(tuple.len() as u16).to_le_bytes());
    for d in tuple {
        match d {
            Datum::Int(v) => {
                out.push(TAG_INT);
                out.extend_from_slice(&v.to_le_bytes());
            }
            Datum::Str(s) => {
                assert!(s.len() <= u16::MAX as usize, "string too long to encode");
                out.push(TAG_STR);
                out.extend_from_slice(&(s.len() as u16).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Datum::Null => out.push(TAG_NULL),
        }
    }
}

/// Decode one tuple from `bytes`.
///
/// # Panics
/// Panics on malformed input — page bytes are written only by [`encode`], so
/// corruption is an internal invariant violation, not a user error.
pub fn decode(bytes: &[u8]) -> Tuple {
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

/// `decode(bytes)[col].as_int()` without decoding: walks the tags up to
/// `col` and allocates nothing, so a scan can test its predicate on the
/// record where it lies. `None` for a `Str` or `Null` column.
///
/// # Panics
/// Panics if `col` is past the tuple's arity, as indexing the decoded tuple
/// does, and on malformed input, as [`decode`] does.
pub fn int_at(bytes: &[u8], col: usize) -> Option<i64> {
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
        let mut buf = Vec::new();
        encode(t, &mut buf);
        assert_eq!(buf.len(), encoded_len(t));
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
