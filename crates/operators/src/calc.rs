//! Vectorized arithmetic (`batcalc.*` in the paper's plans).
//!
//! TPC-H expressions such as `l_extendedprice * (1 - l_discount)` (Q6, Q14,
//! Q19) are evaluated by element-wise operations over columns and scalars.
//! Integer columns use fixed-point(2) decimal semantics: multiplication of
//! two fixed-point(2) values is rescaled back to fixed-point(2) by the
//! workload layer (the operator itself is plain integer arithmetic, exactly
//! like MonetDB's `batcalc.*` on `lng` decimals).

use apq_columnar::{Column, DataType, ScalarValue};

use crate::error::{OperatorError, Result};

/// Element-wise binary operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (errors on a zero divisor).
    Div,
}

impl BinaryOp {
    /// Short symbol for plan pretty-printing.
    pub fn symbol(self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
        }
    }
}

fn numeric_error(left: DataType, right: DataType) -> OperatorError {
    OperatorError::InvalidCalc(format!(
        "calc requires numeric inputs of matching class, got {left} and {right}"
    ))
}

/// `out[i] = left[i] <op> right[i]` for two equally long numeric columns.
///
/// Both `Int64` (fixed-point) and `Float64` columns are supported; the two
/// inputs must belong to the same numeric class. `Int32` inputs are widened
/// to `Int64`.
pub fn calc_col_col(op: BinaryOp, left: &Column, right: &Column) -> Result<Column> {
    if left.len() != right.len() {
        return Err(OperatorError::LengthMismatch { left: left.len(), right: right.len() });
    }
    if (left.data_type(), right.data_type()) == (DataType::Float64, DataType::Float64) {
        let (l, r) = (left.f64_values()?, right.f64_values()?);
        check_divisors(op, r.contains(&0.0))?;
        return Ok(Column::from_f64(float_op(op, l.iter().zip(r).map(|(&a, &b)| (a, b)))));
    }
    let out = match (ints(left)?, ints(right)?) {
        (Some(Ints::I64(l)), Some(Ints::I64(r))) => int_col_col(op, l, r),
        (Some(Ints::I64(l)), Some(Ints::I32(r))) => int_col_col(op, l, r),
        (Some(Ints::I32(l)), Some(Ints::I64(r))) => int_col_col(op, l, r),
        (Some(Ints::I32(l)), Some(Ints::I32(r))) => int_col_col(op, l, r),
        _ => return Err(numeric_error(left.data_type(), right.data_type())),
    }?;
    Ok(Column::from_i64(out))
}

/// `out[i] = left[i] <op> scalar`.
pub fn calc_col_scalar(op: BinaryOp, left: &Column, scalar: &ScalarValue) -> Result<Column> {
    let error = || numeric_error(left.data_type(), scalar.data_type());
    if left.data_type() == DataType::Float64 {
        let rhs = scalar.as_f64().ok_or_else(error)?;
        let l = left.f64_values()?;
        check_divisors(op, rhs == 0.0 && !l.is_empty())?;
        return Ok(Column::from_f64(float_op(op, l.iter().map(|&a| (a, rhs)))));
    }
    let (Some(l), Some(rhs)) = (ints(left)?, scalar.as_i64()) else {
        return Err(error());
    };
    check_divisors(op, rhs == 0 && !left.is_empty())?;
    Ok(Column::from_i64(match l {
        Ints::I64(l) => int_op(op, l.iter().map(|&a| (a, rhs))),
        Ints::I32(l) => int_op(op, l.iter().map(|&a| (a as i64, rhs))),
    }))
}

/// `out[i] = scalar <op> right[i]` (needed for `1 - l_discount` style expressions).
pub fn calc_scalar_col(op: BinaryOp, scalar: &ScalarValue, right: &Column) -> Result<Column> {
    let error = || numeric_error(scalar.data_type(), right.data_type());
    if right.data_type() == DataType::Float64 {
        let lhs = scalar.as_f64().ok_or_else(error)?;
        let r = right.f64_values()?;
        check_divisors(op, r.contains(&0.0))?;
        return Ok(Column::from_f64(float_op(op, r.iter().map(|&b| (lhs, b)))));
    }
    let (Some(r), Some(lhs)) = (ints(right)?, scalar.as_i64()) else {
        return Err(error());
    };
    Ok(Column::from_i64(match r {
        Ints::I64(r) => int_scalar_col(op, lhs, r),
        Ints::I32(r) => int_scalar_col(op, lhs, r),
    }?))
}

/// Visible values of an integer column, borrowed at their stored width.
enum Ints<'a> {
    I64(&'a [i64]),
    I32(&'a [i32]),
}

/// The integer values of `col`, or `None` for a non-integer column.
fn ints(col: &Column) -> Result<Option<Ints<'_>>> {
    Ok(match col.data_type() {
        DataType::Int64 => Some(Ints::I64(col.i64_values()?)),
        DataType::Int32 => Some(Ints::I32(col.i32_values()?)),
        _ => None,
    })
}

/// Fails a division whose divisor contains a zero; any other op passes.
fn check_divisors(op: BinaryOp, has_zero: bool) -> Result<()> {
    if op == BinaryOp::Div && has_zero {
        return Err(OperatorError::DivisionByZero);
    }
    Ok(())
}

/// Integer `l[i] <op> r[i]`, widening each side to `i64` inside the loop.
fn int_col_col<A, B>(op: BinaryOp, l: &[A], r: &[B]) -> Result<Vec<i64>>
where
    A: Copy + Into<i64>,
    B: Copy + Into<i64>,
{
    check_divisors(op, r.iter().any(|&b| b.into() == 0))?;
    Ok(int_op(op, l.iter().zip(r).map(|(&a, &b)| (a.into(), b.into()))))
}

/// Integer `lhs <op> r[i]`, widening `r` inside the loop.
fn int_scalar_col<B: Copy + Into<i64>>(op: BinaryOp, lhs: i64, r: &[B]) -> Result<Vec<i64>> {
    check_divisors(op, r.iter().any(|&b| b.into() == 0))?;
    Ok(int_op(op, r.iter().map(|&b| (lhs, b.into()))))
}

/// Applies `op` to every pair; the op is matched once, not per row. Callers
/// have already rejected zero divisors.
fn int_op(op: BinaryOp, pairs: impl Iterator<Item = (i64, i64)>) -> Vec<i64> {
    match op {
        BinaryOp::Add => pairs.map(|(a, b)| a.wrapping_add(b)).collect(),
        BinaryOp::Sub => pairs.map(|(a, b)| a.wrapping_sub(b)).collect(),
        BinaryOp::Mul => pairs.map(|(a, b)| a.wrapping_mul(b)).collect(),
        BinaryOp::Div => pairs.map(|(a, b)| a.wrapping_div(b)).collect(),
    }
}

/// Float counterpart of [`int_op`].
fn float_op(op: BinaryOp, pairs: impl Iterator<Item = (f64, f64)>) -> Vec<f64> {
    match op {
        BinaryOp::Add => pairs.map(|(a, b)| a + b).collect(),
        BinaryOp::Sub => pairs.map(|(a, b)| a - b).collect(),
        BinaryOp::Mul => pairs.map(|(a, b)| a * b).collect(),
        BinaryOp::Div => pairs.map(|(a, b)| a / b).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn col_col_int() {
        let a = Column::from_i64(vec![10, 20, 30]);
        let b = Column::from_i64(vec![1, 2, 3]);
        assert_eq!(
            calc_col_col(BinaryOp::Add, &a, &b).unwrap().i64_values().unwrap(),
            &[11, 22, 33]
        );
        assert_eq!(
            calc_col_col(BinaryOp::Sub, &a, &b).unwrap().i64_values().unwrap(),
            &[9, 18, 27]
        );
        assert_eq!(
            calc_col_col(BinaryOp::Mul, &a, &b).unwrap().i64_values().unwrap(),
            &[10, 40, 90]
        );
        assert_eq!(
            calc_col_col(BinaryOp::Div, &a, &b).unwrap().i64_values().unwrap(),
            &[10, 10, 10]
        );
    }

    #[test]
    fn col_col_float_and_mixed_int() {
        let a = Column::from_f64(vec![1.5, 2.5]);
        let b = Column::from_f64(vec![0.5, 0.5]);
        assert_eq!(
            calc_col_col(BinaryOp::Mul, &a, &b).unwrap().f64_values().unwrap(),
            &[0.75, 1.25]
        );
        let a = Column::from_i32(vec![1, 2]);
        let b = Column::from_i64(vec![10, 20]);
        assert_eq!(calc_col_col(BinaryOp::Add, &a, &b).unwrap().i64_values().unwrap(), &[11, 22]);
    }

    #[test]
    fn scalar_variants() {
        let a = Column::from_i64(vec![100, 200]);
        assert_eq!(
            calc_col_scalar(BinaryOp::Div, &a, &ScalarValue::I64(10))
                .unwrap()
                .i64_values()
                .unwrap(),
            &[10, 20]
        );
        assert_eq!(
            calc_scalar_col(BinaryOp::Sub, &ScalarValue::I64(100), &a)
                .unwrap()
                .i64_values()
                .unwrap(),
            &[0, -100]
        );
        let f = Column::from_f64(vec![0.1, 0.2]);
        assert_eq!(
            calc_scalar_col(BinaryOp::Sub, &ScalarValue::F64(1.0), &f)
                .unwrap()
                .f64_values()
                .unwrap(),
            &[0.9, 0.8]
        );
    }

    #[test]
    fn division_by_zero() {
        let a = Column::from_i64(vec![1]);
        let b = Column::from_i64(vec![0]);
        assert_eq!(calc_col_col(BinaryOp::Div, &a, &b).unwrap_err(), OperatorError::DivisionByZero);
        let f = Column::from_f64(vec![1.0]);
        assert_eq!(
            calc_col_scalar(BinaryOp::Div, &f, &ScalarValue::F64(0.0)).unwrap_err(),
            OperatorError::DivisionByZero
        );
    }

    #[test]
    fn divisor_checks_cover_every_row_but_not_empty_inputs() {
        let a = Column::from_i32(vec![4, 5, 6]);
        let b = Column::from_i32(vec![2, 1, 0]);
        assert_eq!(calc_col_col(BinaryOp::Div, &a, &b).unwrap_err(), OperatorError::DivisionByZero);
        assert_eq!(
            calc_scalar_col(BinaryOp::Div, &ScalarValue::I64(1), &b).unwrap_err(),
            OperatorError::DivisionByZero
        );
        let f = Column::from_f64(vec![1.0, -0.0]);
        assert_eq!(
            calc_scalar_col(BinaryOp::Div, &ScalarValue::F64(1.0), &f).unwrap_err(),
            OperatorError::DivisionByZero
        );
        // A zero divisor is only an error when some row is divided by it.
        let empty = Column::from_i64(vec![]);
        let out = calc_col_scalar(BinaryOp::Div, &empty, &ScalarValue::I64(0)).unwrap();
        assert!(out.is_empty());
        assert!(calc_col_col(BinaryOp::Div, &empty, &empty).unwrap().is_empty());
        // Division wraps like the other ops instead of panicking on overflow.
        let min = Column::from_i64(vec![i64::MIN]);
        let out = calc_col_scalar(BinaryOp::Div, &min, &ScalarValue::I64(-1)).unwrap();
        assert_eq!(out.i64_values().unwrap(), &[i64::MIN]);
        assert_eq!(calc_col_col(BinaryOp::Sub, &a, &b).unwrap().i64_values().unwrap(), &[2, 4, 6]);
    }

    #[test]
    fn errors_on_bad_inputs() {
        let a = Column::from_i64(vec![1, 2]);
        let b = Column::from_i64(vec![1]);
        assert!(matches!(
            calc_col_col(BinaryOp::Add, &a, &b).unwrap_err(),
            OperatorError::LengthMismatch { .. }
        ));
        let s = Column::from_strings(["x", "y"]);
        assert!(calc_col_col(BinaryOp::Add, &a, &s).is_err());
        assert!(calc_col_scalar(BinaryOp::Add, &s, &ScalarValue::I64(1)).is_err());
        assert!(calc_col_scalar(BinaryOp::Add, &a, &ScalarValue::Str("x".into())).is_err());
        assert!(calc_scalar_col(BinaryOp::Add, &ScalarValue::I64(1), &s).is_err());
    }

    #[test]
    fn fixed_point_revenue_expression() {
        // revenue = extendedprice * (1 - discount), prices fixed-point(2),
        // discount fixed-point(2) as well: (100 - disc) then rescale by /100.
        let price = Column::from_i64(vec![10_00, 20_00]); // 10.00, 20.00
        let disc = Column::from_i64(vec![10, 25]); // 0.10, 0.25
        let one_minus = calc_scalar_col(BinaryOp::Sub, &ScalarValue::I64(100), &disc).unwrap();
        let raw = calc_col_col(BinaryOp::Mul, &price, &one_minus).unwrap();
        let revenue = calc_col_scalar(BinaryOp::Div, &raw, &ScalarValue::I64(100)).unwrap();
        assert_eq!(revenue.i64_values().unwrap(), &[9_00, 15_00]);
    }
}
