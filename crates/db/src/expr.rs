//! Scan and filter predicates.
//!
//! DSB's SPJ templates use conjunctions of comparisons, BETWEEN ranges and IN
//! lists over integer columns — that is exactly the predicate language here.
//! Predicates reference columns by position in the operator's input tuple.

use crate::tuple::{self, Tuple};

/// Comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// SQL spelling (used by the plan serializer's `[PRED] col op val`
    /// tokens).
    pub fn sql(&self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    fn eval(&self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

/// A predicate over a tuple.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Pred {
    /// `col <op> literal` on an integer column. NULLs compare false.
    Cmp { col: usize, op: CmpOp, lit: i64 },
    /// `col IN (set)`.
    In { col: usize, set: Vec<i64> },
    /// `col BETWEEN lo AND hi` (inclusive).
    Between { col: usize, lo: i64, hi: i64 },
    /// Conjunction.
    And(Vec<Pred>),
}

impl Pred {
    /// Evaluate against `row`.
    pub fn eval(&self, row: &Tuple) -> bool {
        self.eval_with(&|col| row[col].as_int())
    }

    /// [`Pred::eval`] on the tuple's encoding ([`crate::tuple::encode`]),
    /// without decoding it.
    pub fn eval_encoded(&self, bytes: &[u8]) -> bool {
        self.eval_with(&|col| tuple::int_at(bytes, col))
    }

    /// The evaluator, over a column reader: the integer in a column, `None`
    /// (which compares false) for a string or NULL.
    fn eval_with(&self, int_at: &impl Fn(usize) -> Option<i64>) -> bool {
        match self {
            Pred::Cmp { col, op, lit } => int_at(*col).is_some_and(|v| op.eval(v, *lit)),
            Pred::In { col, set } => int_at(*col).is_some_and(|v| set.contains(&v)),
            Pred::Between { col, lo, hi } => int_at(*col).is_some_and(|v| v >= *lo && v <= *hi),
            Pred::And(ps) => ps.iter().all(|p| p.eval_with(int_at)),
        }
    }

    /// Shift every column reference by `offset` (used when a predicate
    /// written against one side of a join is evaluated over the concatenated
    /// join output).
    pub fn shift_cols(&self, offset: usize) -> Pred {
        match self {
            Pred::Cmp { col, op, lit } => Pred::Cmp {
                col: col + offset,
                op: *op,
                lit: *lit,
            },
            Pred::In { col, set } => Pred::In {
                col: col + offset,
                set: set.clone(),
            },
            Pred::Between { col, lo, hi } => Pred::Between {
                col: col + offset,
                lo: *lo,
                hi: *hi,
            },
            Pred::And(ps) => Pred::And(ps.iter().map(|p| p.shift_cols(offset)).collect()),
        }
    }

    /// The atomic `(col, op-string, value-string)` triples in this predicate,
    /// flattened in order — the plan serializer turns each into
    /// `[PRED] colName opName valName` tokens (Algorithm 2).
    pub fn atoms(&self) -> Vec<(usize, String, String)> {
        let mut out = Vec::new();
        self.collect_atoms(&mut out);
        out
    }

    fn collect_atoms(&self, out: &mut Vec<(usize, String, String)>) {
        match self {
            Pred::Cmp { col, op, lit } => out.push((*col, op.sql().to_owned(), lit.to_string())),
            Pred::In { col, set } => {
                let vals = set
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(",");
                out.push((*col, "IN".to_owned(), vals));
            }
            Pred::Between { col, lo, hi } => {
                out.push((*col, ">=".to_owned(), lo.to_string()));
                out.push((*col, "<=".to_owned(), hi.to_string()));
            }
            Pred::And(ps) => {
                for p in ps {
                    p.collect_atoms(out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Datum;

    fn row(vals: &[i64]) -> Tuple {
        vals.iter().map(|&v| Datum::Int(v)).collect()
    }

    #[test]
    fn cmp_ops() {
        let r = row(&[5]);
        for (op, expect) in [
            (CmpOp::Eq, true),
            (CmpOp::Ne, false),
            (CmpOp::Lt, false),
            (CmpOp::Le, true),
            (CmpOp::Gt, false),
            (CmpOp::Ge, true),
        ] {
            assert_eq!(Pred::Cmp { col: 0, op, lit: 5 }.eval(&r), expect, "{op:?}");
        }
    }

    #[test]
    fn in_and_between() {
        let r = row(&[5, 10]);
        assert!(Pred::In {
            col: 0,
            set: vec![1, 5, 9]
        }
        .eval(&r));
        assert!(!Pred::In {
            col: 0,
            set: vec![1, 9]
        }
        .eval(&r));
        assert!(Pred::Between {
            col: 1,
            lo: 10,
            hi: 20
        }
        .eval(&r));
        assert!(!Pred::Between {
            col: 1,
            lo: 11,
            hi: 20
        }
        .eval(&r));
    }

    #[test]
    fn and_conjunction() {
        let r = row(&[5, 10]);
        let p = Pred::And(vec![
            Pred::Cmp {
                col: 0,
                op: CmpOp::Eq,
                lit: 5,
            },
            Pred::Cmp {
                col: 1,
                op: CmpOp::Ge,
                lit: 10,
            },
        ]);
        assert!(p.eval(&r));
        let p2 = Pred::And(vec![
            Pred::Cmp {
                col: 0,
                op: CmpOp::Eq,
                lit: 5,
            },
            Pred::Cmp {
                col: 1,
                op: CmpOp::Gt,
                lit: 10,
            },
        ]);
        assert!(!p2.eval(&r));
    }

    #[test]
    fn null_compares_false() {
        let r = vec![Datum::Null];
        assert!(!Pred::Cmp {
            col: 0,
            op: CmpOp::Eq,
            lit: 0
        }
        .eval(&r));
        assert!(!Pred::In {
            col: 0,
            set: vec![0]
        }
        .eval(&r));
    }

    #[test]
    fn shift_cols_moves_references() {
        let p = Pred::And(vec![
            Pred::Cmp {
                col: 1,
                op: CmpOp::Eq,
                lit: 3,
            },
            Pred::Between {
                col: 0,
                lo: 1,
                hi: 2,
            },
        ]);
        let shifted = p.shift_cols(4);
        assert!(shifted.eval(&row(&[9, 9, 9, 9, 1, 3])));
    }

    #[test]
    fn atoms_flatten_in_order() {
        let p = Pred::And(vec![
            Pred::Cmp {
                col: 2,
                op: CmpOp::Ge,
                lit: 7,
            },
            Pred::In {
                col: 0,
                set: vec![1, 2],
            },
            Pred::Between {
                col: 1,
                lo: 5,
                hi: 6,
            },
        ]);
        let atoms = p.atoms();
        assert_eq!(atoms.len(), 4); // Between expands to two
        assert_eq!(atoms[0], (2, ">=".into(), "7".into()));
        assert_eq!(atoms[1], (0, "IN".into(), "1,2".into()));
        assert_eq!(atoms[2].1, ">=");
        assert_eq!(atoms[3].1, "<=");
    }

    /// Every `Pred` variant over columns 0..4, nested conjunctions included.
    fn preds_over_four_columns() -> Vec<Pred> {
        let mut out = Vec::new();
        for col in 0..4 {
            for op in [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ] {
                out.push(Pred::Cmp { col, op, lit: 7 });
            }
            out.push(Pred::In {
                col,
                set: vec![-3, 7, i64::MAX],
            });
            out.push(Pred::In { col, set: vec![] });
            out.push(Pred::Between { col, lo: -3, hi: 7 });
        }
        let pairs: Vec<Pred> = out.chunks(2).map(|pair| Pred::And(pair.to_vec())).collect();
        out.push(Pred::And(vec![]));
        out.push(Pred::And(vec![
            Pred::And(vec![pairs[0].clone(), pairs[5].clone()]),
            Pred::Between {
                col: 3,
                lo: i64::MIN,
                hi: i64::MAX,
            },
        ]));
        out.extend(pairs);
        out
    }

    #[test]
    fn encoded_reader_agrees_with_tuple_reader() {
        let values = [
            Datum::Int(7),
            Datum::Int(-3),
            Datum::Int(i64::MAX),
            Datum::Int(i64::MIN),
            Datum::Str(String::new()),
            Datum::Str("x".repeat(300)),
            Datum::Null,
        ];
        let preds = preds_over_four_columns();
        // Every value in every column, the other columns cycling behind it.
        for col in 0..4 {
            for (i, v) in values.iter().enumerate() {
                let mut t: Tuple = (0..4)
                    .map(|c| values[(i + c * 3 + 1) % values.len()].clone())
                    .collect();
                t[col] = v.clone();
                let mut bytes = Vec::new();
                tuple::encode(&t, &mut bytes);
                for (c, d) in t.iter().enumerate() {
                    assert_eq!(tuple::int_at(&bytes, c), d.as_int(), "column {c} of {t:?}");
                }
                for p in &preds {
                    assert_eq!(p.eval_encoded(&bytes), p.eval(&t), "{p:?} on {t:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn column_past_the_arity_panics_on_a_tuple() {
        Pred::Between {
            col: 2,
            lo: 0,
            hi: 9,
        }
        .eval(&row(&[5, 10]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn column_past_the_arity_panics_on_an_encoding() {
        let mut bytes = Vec::new();
        tuple::encode(&row(&[5, 10]), &mut bytes);
        Pred::Between {
            col: 2,
            lo: 0,
            hi: 9,
        }
        .eval_encoded(&bytes);
    }
}
