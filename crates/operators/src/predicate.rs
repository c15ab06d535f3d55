//! Selection predicates.
//!
//! A [`Predicate`] describes the condition a select operator evaluates over a
//! column. Predicates are self-contained values (no closures) so that plan
//! nodes can be cloned freely during plan mutation and compared in tests.

use std::fmt;

use apq_columnar::strings::like_match;
use apq_columnar::{Column, DataType, ScalarValue};

use crate::error::{OperatorError, Result};

/// Comparison operator of a simple predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    fn holds<T: PartialOrd>(self, left: T, right: T) -> bool {
        match self {
            CmpOp::Eq => left == right,
            CmpOp::Ne => left != right,
            CmpOp::Lt => left < right,
            CmpOp::Le => left <= right,
            CmpOp::Gt => left > right,
            CmpOp::Ge => left >= right,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A predicate over a single column.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `column <op> constant`.
    Compare {
        /// Comparison operator.
        op: CmpOp,
        /// Constant compared against.
        value: ScalarValue,
    },
    /// `lo <= column <= hi` (bounds inclusive/exclusive per flags).
    Between {
        /// Lower bound.
        lo: ScalarValue,
        /// Upper bound.
        hi: ScalarValue,
        /// Whether the lower bound itself matches.
        lo_inclusive: bool,
        /// Whether the upper bound itself matches.
        hi_inclusive: bool,
    },
    /// SQL `LIKE` on a string column.
    Like {
        /// Pattern with `%` / `_` wildcards.
        pattern: String,
    },
    /// Membership in a set of integer values.
    InI64(Vec<i64>),
    /// Membership in a set of string values.
    InStr(Vec<String>),
    /// The column is a boolean column and the row is `true`.
    IsTrue,
    /// Both sub-predicates hold.
    And(Box<Predicate>, Box<Predicate>),
    /// At least one sub-predicate holds.
    Or(Box<Predicate>, Box<Predicate>),
    /// The sub-predicate does not hold.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Convenience constructor for `column <op> value`.
    pub fn cmp(op: CmpOp, value: impl Into<ScalarValue>) -> Self {
        Predicate::Compare { op, value: value.into() }
    }

    /// Convenience constructor for an inclusive between.
    pub fn between(lo: impl Into<ScalarValue>, hi: impl Into<ScalarValue>) -> Self {
        Predicate::Between { lo: lo.into(), hi: hi.into(), lo_inclusive: true, hi_inclusive: true }
    }

    /// Convenience constructor for a half-open range `[lo, hi)`, which is how
    /// TPC-H date predicates (`>= date AND < date + interval`) are expressed.
    pub fn range(lo: impl Into<ScalarValue>, hi: impl Into<ScalarValue>) -> Self {
        Predicate::Between { lo: lo.into(), hi: hi.into(), lo_inclusive: true, hi_inclusive: false }
    }

    /// Convenience constructor for `LIKE`.
    pub fn like(pattern: impl Into<String>) -> Self {
        Predicate::Like { pattern: pattern.into() }
    }

    /// Conjunction helper.
    pub fn and(self, other: Predicate) -> Self {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// Disjunction helper.
    pub fn or(self, other: Predicate) -> Self {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// Negation helper.
    pub fn negate(self) -> Self {
        Predicate::Not(Box::new(self))
    }

    /// Short human-readable description (used in plan pretty-printing).
    pub fn describe(&self) -> String {
        match self {
            Predicate::Compare { op, value } => format!("x {op} {value}"),
            Predicate::Between { lo, hi, lo_inclusive, hi_inclusive } => format!(
                "x in {}{lo}, {hi}{}",
                if *lo_inclusive { "[" } else { "(" },
                if *hi_inclusive { "]" } else { ")" }
            ),
            Predicate::Like { pattern } => format!("x LIKE '{pattern}'"),
            Predicate::InI64(v) => format!("x IN {v:?}"),
            Predicate::InStr(v) => format!("x IN {v:?}"),
            Predicate::IsTrue => "x".to_string(),
            Predicate::And(a, b) => format!("({}) AND ({})", a.describe(), b.describe()),
            Predicate::Or(a, b) => format!("({}) OR ({})", a.describe(), b.describe()),
            Predicate::Not(a) => format!("NOT ({})", a.describe()),
        }
    }

    /// Evaluates the predicate over every visible row of `column`, returning
    /// one boolean per row.
    ///
    /// The select operator uses this to build candidate lists; keeping the
    /// row-mask evaluation here keeps the select operator oblivious to types.
    pub fn eval_mask(&self, column: &Column) -> Result<Vec<bool>> {
        match self {
            Predicate::And(a, b) => {
                let mut m = a.eval_mask(column)?;
                let mb = b.eval_mask(column)?;
                for (x, y) in m.iter_mut().zip(mb) {
                    *x = *x && y;
                }
                Ok(m)
            }
            Predicate::Or(a, b) => {
                let mut m = a.eval_mask(column)?;
                let mb = b.eval_mask(column)?;
                for (x, y) in m.iter_mut().zip(mb) {
                    *x = *x || y;
                }
                Ok(m)
            }
            Predicate::Not(a) => {
                let mut m = a.eval_mask(column)?;
                for x in m.iter_mut() {
                    *x = !*x;
                }
                Ok(m)
            }
            _ => self.eval_leaf_with(column, MaskSink),
        }
    }

    fn type_error(&self, column: &Column) -> OperatorError {
        OperatorError::PredicateTypeMismatch {
            column_type: column.data_type().name(),
            predicate: self.describe(),
        }
    }

    /// True for `And`/`Or`/`Not`, which combine row masks of their operands;
    /// every other variant is a leaf that tests one value at a time.
    pub(crate) fn is_compound(&self) -> bool {
        matches!(self, Predicate::And(..) | Predicate::Or(..) | Predicate::Not(..))
    }

    /// Lowers a leaf predicate over `column` to a typed value slice plus a
    /// per-value test and hands both to `sink`.
    ///
    /// The row mask ([`Predicate::eval_mask`]), the oid-list select and the
    /// candidate filter are three sinks over this one lowering, so they share
    /// one predicate semantics. Each comparison operator is matched once per
    /// call, so the sink's loop sees a branch-free test. Compound predicates
    /// are a type error here; callers route them through `eval_mask`.
    pub(crate) fn eval_leaf_with<S: LeafSink>(
        &self,
        column: &Column,
        sink: S,
    ) -> Result<S::Output> {
        match column.data_type() {
            DataType::Int64 => self.int_leaf(column.i64_values()?, |v| v, column, sink),
            // Dates are i32; they compare against i64 constants widened per value.
            DataType::Int32 => self.int_leaf(column.i32_values()?, |v| v as i64, column, sink),
            DataType::Float64 => {
                let values = column.f64_values()?;
                match self {
                    Predicate::Compare { op, value } => {
                        let rhs = value.as_f64().ok_or_else(|| self.type_error(column))?;
                        Ok(compare_leaf(values, |v| v, *op, rhs, sink))
                    }
                    Predicate::Between { lo, hi, lo_inclusive, hi_inclusive } => {
                        let lo = lo.as_f64().ok_or_else(|| self.type_error(column))?;
                        let hi = hi.as_f64().ok_or_else(|| self.type_error(column))?;
                        let bounds = (lo, hi, *lo_inclusive, *hi_inclusive);
                        Ok(between_leaf(values, |v| v, bounds, sink))
                    }
                    _ => Err(self.type_error(column)),
                }
            }
            DataType::Bool => {
                let values = column.bool_values()?;
                match self {
                    Predicate::IsTrue => Ok(sink.run(values, |v| v)),
                    Predicate::Compare { op: CmpOp::Eq, value: ScalarValue::Bool(b) } => {
                        let b = *b;
                        Ok(sink.run(values, move |v| v == b))
                    }
                    _ => Err(self.type_error(column)),
                }
            }
            DataType::Str => {
                let (codes, dict) = column.str_codes()?;
                // Evaluate the predicate once per dictionary entry, then map codes.
                let dict_mask: Vec<bool> = match self {
                    Predicate::Compare { op, value } => {
                        let rhs = value.as_str().ok_or_else(|| self.type_error(column))?;
                        dict.iter().map(|s| op.holds(s.as_str(), rhs)).collect()
                    }
                    Predicate::Like { pattern } => {
                        dict.iter().map(|s| like_match(pattern, s)).collect()
                    }
                    Predicate::InStr(set) => {
                        dict.iter().map(|s| set.iter().any(|x| x == s)).collect()
                    }
                    _ => return Err(self.type_error(column)),
                };
                Ok(sink.run(codes, |c| dict_mask[c as usize]))
            }
        }
    }

    fn int_leaf<T: Copy, S: LeafSink>(
        &self,
        values: &[T],
        widen: impl Fn(T) -> i64,
        column: &Column,
        sink: S,
    ) -> Result<S::Output> {
        match self {
            Predicate::Compare { op, value } => {
                let rhs = value.as_i64().ok_or_else(|| self.type_error(column))?;
                Ok(compare_leaf(values, widen, *op, rhs, sink))
            }
            Predicate::Between { lo, hi, lo_inclusive, hi_inclusive } => {
                let lo = lo.as_i64().ok_or_else(|| self.type_error(column))?;
                let hi = hi.as_i64().ok_or_else(|| self.type_error(column))?;
                Ok(between_leaf(values, widen, (lo, hi, *lo_inclusive, *hi_inclusive), sink))
            }
            Predicate::InI64(set) => Ok(sink.run(values, |v| set.contains(&widen(v)))),
            _ => Err(self.type_error(column)),
        }
    }
}

/// Consumer of a lowered leaf predicate: a typed value slice plus a
/// per-value test (see [`Predicate::eval_leaf_with`]).
pub(crate) trait LeafSink {
    /// What the sink produces from the slice.
    type Output;

    /// Consumes `values`, testing each with `hit`.
    fn run<T: Copy>(self, values: &[T], hit: impl Fn(T) -> bool) -> Self::Output;
}

/// The row-mask sink behind [`Predicate::eval_mask`].
struct MaskSink;

impl LeafSink for MaskSink {
    type Output = Vec<bool>;

    fn run<T: Copy>(self, values: &[T], hit: impl Fn(T) -> bool) -> Vec<bool> {
        values.iter().map(|&v| hit(v)).collect()
    }
}

/// `key(v) <op> rhs`, one monomorphic test per operator.
fn compare_leaf<T: Copy, U: PartialOrd + Copy, S: LeafSink>(
    values: &[T],
    key: impl Fn(T) -> U,
    op: CmpOp,
    rhs: U,
    sink: S,
) -> S::Output {
    match op {
        CmpOp::Eq => sink.run(values, |v| key(v) == rhs),
        CmpOp::Ne => sink.run(values, |v| key(v) != rhs),
        CmpOp::Lt => sink.run(values, |v| key(v) < rhs),
        CmpOp::Le => sink.run(values, |v| key(v) <= rhs),
        CmpOp::Gt => sink.run(values, |v| key(v) > rhs),
        CmpOp::Ge => sink.run(values, |v| key(v) >= rhs),
    }
}

/// `lo <(=) key(v) <(=) hi`, one monomorphic test per bound inclusivity.
/// Both bounds are always evaluated (`&`), which keeps the test branch-free.
fn between_leaf<T: Copy, U: PartialOrd + Copy, S: LeafSink>(
    values: &[T],
    key: impl Fn(T) -> U,
    (lo, hi, lo_inclusive, hi_inclusive): (U, U, bool, bool),
    sink: S,
) -> S::Output {
    match (lo_inclusive, hi_inclusive) {
        (true, true) => sink.run(values, |v| (key(v) >= lo) & (key(v) <= hi)),
        (true, false) => sink.run(values, |v| (key(v) >= lo) & (key(v) < hi)),
        (false, true) => sink.run(values, |v| (key(v) > lo) & (key(v) <= hi)),
        (false, false) => sink.run(values, |v| (key(v) > lo) & (key(v) < hi)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_i64() {
        let c = Column::from_i64(vec![1, 5, 10, 15]);
        let m = Predicate::cmp(CmpOp::Lt, 10i64).eval_mask(&c).unwrap();
        assert_eq!(m, vec![true, true, false, false]);
        let m = Predicate::cmp(CmpOp::Ge, 10i64).eval_mask(&c).unwrap();
        assert_eq!(m, vec![false, false, true, true]);
        let m = Predicate::cmp(CmpOp::Eq, 5i64).eval_mask(&c).unwrap();
        assert_eq!(m, vec![false, true, false, false]);
        let m = Predicate::cmp(CmpOp::Ne, 5i64).eval_mask(&c).unwrap();
        assert_eq!(m, vec![true, false, true, true]);
    }

    #[test]
    fn between_and_range() {
        let c = Column::from_i64(vec![1, 5, 10, 15]);
        let m = Predicate::between(5i64, 10i64).eval_mask(&c).unwrap();
        assert_eq!(m, vec![false, true, true, false]);
        let m = Predicate::range(5i64, 10i64).eval_mask(&c).unwrap();
        assert_eq!(m, vec![false, true, false, false]);
    }

    #[test]
    fn i32_dates_widen() {
        let c = Column::from_i32(vec![8035, 8400, 9000]);
        let m = Predicate::range(8035i64, 8400i64).eval_mask(&c).unwrap();
        assert_eq!(m, vec![true, false, false]);
    }

    #[test]
    fn float_predicates() {
        let c = Column::from_f64(vec![0.04, 0.05, 0.06, 0.07]);
        let m = Predicate::between(0.05, 0.07).eval_mask(&c).unwrap();
        assert_eq!(m, vec![false, true, true, true]);
        let m = Predicate::cmp(CmpOp::Lt, 0.06).eval_mask(&c).unwrap();
        assert_eq!(m, vec![true, true, false, false]);
    }

    #[test]
    fn in_lists() {
        let c = Column::from_i64(vec![1, 2, 3, 4]);
        let m = Predicate::InI64(vec![2, 4]).eval_mask(&c).unwrap();
        assert_eq!(m, vec![false, true, false, true]);

        let s = Column::from_strings(["AIR", "RAIL", "SHIP"]);
        let m = Predicate::InStr(vec!["AIR".into(), "SHIP".into()]).eval_mask(&s).unwrap();
        assert_eq!(m, vec![true, false, true]);
    }

    #[test]
    fn string_like_and_eq() {
        let c = Column::from_strings(["PROMO BRUSHED", "STANDARD", "PROMO PLATED"]);
        let m = Predicate::like("PROMO%").eval_mask(&c).unwrap();
        assert_eq!(m, vec![true, false, true]);
        let m = Predicate::cmp(CmpOp::Eq, "STANDARD").eval_mask(&c).unwrap();
        assert_eq!(m, vec![false, true, false]);
    }

    #[test]
    fn boolean_columns() {
        let c = Column::from_bool(vec![true, false, true]);
        assert_eq!(Predicate::IsTrue.eval_mask(&c).unwrap(), vec![true, false, true]);
        assert_eq!(
            Predicate::cmp(CmpOp::Eq, false).eval_mask(&c).unwrap(),
            vec![false, true, false]
        );
    }

    #[test]
    fn logical_combinators() {
        let c = Column::from_i64(vec![1, 5, 10, 15]);
        let p = Predicate::cmp(CmpOp::Gt, 1i64).and(Predicate::cmp(CmpOp::Lt, 15i64));
        assert_eq!(p.eval_mask(&c).unwrap(), vec![false, true, true, false]);
        let p = Predicate::cmp(CmpOp::Eq, 1i64).or(Predicate::cmp(CmpOp::Eq, 15i64));
        assert_eq!(p.eval_mask(&c).unwrap(), vec![true, false, false, true]);
        let p = Predicate::cmp(CmpOp::Eq, 1i64).negate();
        assert_eq!(p.eval_mask(&c).unwrap(), vec![false, true, true, true]);
    }

    #[test]
    fn type_mismatches_are_errors() {
        let c = Column::from_i64(vec![1]);
        assert!(Predicate::like("%x%").eval_mask(&c).is_err());
        assert!(Predicate::cmp(CmpOp::Eq, "str").eval_mask(&c).is_err());
        let s = Column::from_strings(["a"]);
        assert!(Predicate::between(1i64, 2i64).eval_mask(&s).is_err());
        let b = Column::from_bool(vec![true]);
        assert!(Predicate::cmp(CmpOp::Lt, 1i64).eval_mask(&b).is_err());
    }

    #[test]
    fn describe_is_readable() {
        assert_eq!(Predicate::cmp(CmpOp::Lt, 3i64).describe(), "x < 3");
        assert!(Predicate::range(1i64, 2i64).describe().contains('['));
        assert!(Predicate::like("%P%").describe().contains("LIKE"));
        assert!(Predicate::cmp(CmpOp::Eq, 1i64)
            .and(Predicate::cmp(CmpOp::Eq, 2i64))
            .describe()
            .contains("AND"));
    }
}
