//! Scan and filter predicates.
//!
//! DSB's SPJ templates use conjunctions of comparisons, BETWEEN ranges and IN
//! lists over integer columns — that is exactly the predicate language here.
//! Predicates reference columns by position in the operator's input tuple.

use crate::tuple::{Layout, Tuple};

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
    /// laid out as `layout`, without decoding it.
    pub(crate) fn eval_encoded(&self, bytes: &[u8], layout: Layout) -> bool {
        self.eval_with(&|col| layout.int_at(bytes, col))
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

    /// Whether a row whose column `c` lies within `zone[c]` (inclusive
    /// `(min, max)`) may satisfy the predicate. `false` proves that none
    /// does: [`Pred::eval`] returns `false` on every such row.
    ///
    /// A column past the zone reads as unbounded, and a conjunction stops
    /// there unless a conjunct before it already rules the zone out — just
    /// where the per-row evaluation panics or not.
    pub(crate) fn may_match(&self, zone: &[(i64, i64)]) -> bool {
        self.rules_out(zone) != Some(true)
    }

    /// `Some(true)` when no row in `zone` satisfies the predicate, `None`
    /// when evaluating it reads a column past the zone.
    fn rules_out(&self, zone: &[(i64, i64)]) -> Option<bool> {
        let range = |col: &usize| zone.get(*col).copied();
        match self {
            Pred::Cmp { col, op, lit } => range(col).map(|(lo, hi)| match op {
                CmpOp::Eq => *lit < lo || *lit > hi,
                CmpOp::Ne => lo == hi && *lit == lo,
                CmpOp::Lt => lo >= *lit,
                CmpOp::Le => lo > *lit,
                CmpOp::Gt => hi <= *lit,
                CmpOp::Ge => hi < *lit,
            }),
            Pred::In { col, set } => {
                range(col).map(|(lo, hi)| !set.iter().any(|v| (lo..=hi).contains(v)))
            }
            Pred::Between { col, lo, hi } => {
                range(col).map(|(min, max)| lo > hi || *hi < min || *lo > max)
            }
            Pred::And(ps) => {
                for p in ps {
                    match p.rules_out(zone) {
                        Some(false) => {}
                        decided => return decided,
                    }
                }
                Some(false)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;
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
        let mut ints = 0;
        // Every value in every column, the other columns cycling behind it.
        for col in 0..4 {
            for (i, v) in values.iter().enumerate() {
                let mut t: Tuple = (0..4)
                    .map(|c| values[(i + c * 3 + 1) % values.len()].clone())
                    .collect();
                t[col] = v.clone();
                let mut bytes = vec![0; tuple::encoded_len(&t)];
                tuple::encode(&t, &mut bytes);
                let layout = Layout::of(&t);
                ints += (layout != Layout::Tagged) as usize;
                for (c, d) in t.iter().enumerate() {
                    for l in [layout, Layout::Tagged] {
                        assert_eq!(l.int_at(&bytes, c), d.as_int(), "column {c} of {t:?}");
                    }
                }
                for p in &preds {
                    assert_eq!(p.eval_encoded(&bytes, layout), p.eval(&t), "{p:?} on {t:?}");
                }
            }
        }
        assert!(ints > 0, "no tuple read through the Ints arm");
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
    fn column_past_the_arity_panics_on_an_encoding() {
        let t = row(&[5, 10]);
        let mut bytes = vec![0; tuple::encoded_len(&t)];
        tuple::encode(&t, &mut bytes);
        let p = Pred::Between {
            col: 2,
            lo: 0,
            hi: 9,
        };
        for layout in [Layout::of(&t), Layout::Tagged] {
            let err = std::panic::catch_unwind(|| p.eval_encoded(&bytes, layout))
                .expect_err("a column past the arity must panic");
            let msg = err.downcast_ref::<String>().expect("a formatted message");
            assert!(msg.contains("out of range"), "{layout:?}: {msg}");
        }
    }

    #[test]
    fn no_row_a_zone_rules_out_satisfies_the_predicate() {
        let mut preds = preds_over_four_columns();
        for col in 0..4 {
            for (op, lit) in [
                (CmpOp::Ne, -3),
                (CmpOp::Lt, i64::MIN),
                (CmpOp::Le, i64::MIN),
                (CmpOp::Gt, i64::MAX),
                (CmpOp::Ge, i64::MAX),
            ] {
                preds.push(Pred::Cmp { col, op, lit });
            }
            preds.push(Pred::Between { col, lo: 7, hi: -3 });
        }
        let values = [i64::MIN, -4, -3, 0, 6, 7, 8, i64::MAX];
        // A small xorshift: the rows of each set, from a few values around
        // every literal above.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut pick = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            values[(state % values.len() as u64) as usize]
        };
        let mut ruled_out = 0;
        for set in 0..400 {
            let rows: Vec<Tuple> = (0..1 + set % 4)
                .map(|_| row(&[pick(), pick(), pick(), pick()]))
                .collect();
            let zone: Vec<(i64, i64)> = (0..4)
                .map(|c| {
                    let col = rows.iter().map(|r| r[c].as_int().expect("an Int"));
                    (col.clone().min().unwrap(), col.max().unwrap())
                })
                .collect();
            for p in &preds {
                if !p.may_match(&zone) {
                    ruled_out += 1;
                    assert!(!rows.iter().any(|r| p.eval(r)), "{p:?} over {zone:?}");
                }
            }
        }
        assert!(ruled_out > 1000, "only {ruled_out} zones ruled out");
        // A column past the zone is unbounded, unless a conjunct before it
        // already rules the zone out (the per-row path stops there too).
        let past = Pred::Cmp {
            col: 4,
            op: CmpOp::Eq,
            lit: 7,
        };
        let zone = [(0, 0); 4];
        assert!(past.may_match(&zone));
        let first = Pred::Cmp {
            col: 0,
            op: CmpOp::Eq,
            lit: 7,
        };
        assert!(Pred::And(vec![past.clone(), first.clone()]).may_match(&zone));
        assert!(!Pred::And(vec![first, past]).may_match(&zone));
    }
}
