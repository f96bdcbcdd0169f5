//! Datums and schemas.
//!
//! The workload generator only needs integer and short-string columns (DSB's
//! join keys, surrogate keys and categorical attributes are all integers or
//! fixed-length codes), so the type system is deliberately small.

use std::fmt;

/// A single column value.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Datum {
    Int(i64),
    Str(String),
    Null,
}

impl Datum {
    /// The integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Datum::Int(v) => Some(*v),
            _ => None,
        }
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datum::Int(v) => write!(f, "{v}"),
            Datum::Str(s) => write!(f, "'{s}'"),
            Datum::Null => write!(f, "NULL"),
        }
    }
}

impl From<i64> for Datum {
    fn from(v: i64) -> Self {
        Datum::Int(v)
    }
}

impl From<&str> for Datum {
    fn from(v: &str) -> Self {
        Datum::Str(v.to_owned())
    }
}

/// Declared type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataType {
    Int,
    Str,
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    pub name: String,
    pub ty: DataType,
}

/// An ordered list of columns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    pub columns: Vec<Column>,
}

impl Schema {
    /// Build a schema of integer columns from names (the common case).
    pub fn ints<S: AsRef<str>>(names: &[S]) -> Schema {
        Schema {
            columns: names
                .iter()
                .map(|n| Column {
                    name: n.as_ref().to_owned(),
                    ty: DataType::Int,
                })
                .collect(),
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Column name at `idx` (for EXPLAIN output).
    pub fn name(&self, idx: usize) -> &str {
        &self.columns[idx].name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datum_accessors() {
        assert_eq!(Datum::Int(5).as_int(), Some(5));
        assert_eq!(Datum::Str("x".into()).as_int(), None);
    }

    #[test]
    fn datum_ordering_within_ints() {
        assert!(Datum::Int(1) < Datum::Int(2));
    }

    #[test]
    fn schema_lookup() {
        let s = Schema::ints(&["a", "b", "c"]);
        assert_eq!(s.arity(), 3);
        assert_eq!(s.name(1), "b");
        assert_eq!(s.name(2), "c");
    }

    #[test]
    fn datum_display() {
        assert_eq!(Datum::Int(7).to_string(), "7");
        assert_eq!(Datum::Str("hi".into()).to_string(), "'hi'");
        assert_eq!(Datum::Null.to_string(), "NULL");
    }

    #[test]
    fn conversions() {
        assert_eq!(Datum::from(3i64), Datum::Int(3));
        assert_eq!(Datum::from("s"), Datum::Str("s".into()));
    }
}
