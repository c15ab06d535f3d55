//! The select operator: predicate evaluation producing a candidate oid list.
//!
//! The output is a list of *absolute* oids (positions in the base column),
//! not positions within the slice — this is what keeps the results of select
//! clones running on different dynamic partitions directly combinable by the
//! exchange-union operator and directly usable by tuple reconstruction.
//!
//! Both flavours are mask-free for leaf predicates, in the style of the
//! cache-resident primitives of MonetDB/X100 (Boncz et al., CIDR 2005):
//!
//! * [`select`] tests 64 values at a time into one `u64` bit block (a
//!   branch-free loop the compiler can vectorize), sizes its output from the
//!   blocks' bit counts and turns the set bits straight into oids.
//! * [`select_with_candidates`] tests each in-partition candidate's value in
//!   place; nothing is gathered and no mask is built.
//!
//! Compound `And`/`Or`/`Not` predicates combine the row masks of their
//! operands through [`Predicate::eval_mask`] (which the `PredMask` operator
//! needs anyway) and are compacted from that mask.

use apq_columnar::{Column, Oid};

use crate::error::Result;
use crate::predicate::{LeafSink, Predicate};

/// Rows tested per compare block: one bit each in a `u64`.
const BLOCK: usize = 64;

/// Evaluates `predicate` over every visible row of `column` and returns the
/// absolute oids of matching rows, in ascending order.
pub fn select(column: &Column, predicate: &Predicate) -> Result<Vec<Oid>> {
    let base = column.base_oid();
    if !predicate.is_compound() {
        return predicate.eval_leaf_with(column, BlockSink { base });
    }
    let mask = predicate.eval_mask(column)?;
    Ok(mask.iter().enumerate().filter_map(|(i, &hit)| hit.then_some(base + i as Oid)).collect())
}

/// Evaluates `predicate` only for the rows named by `candidates` (absolute
/// oids) and returns the surviving oids, preserving the candidate order.
///
/// This is the second select flavour of paper §2.2: a filter that accepts a
/// column *and* the output of a previous selection. Candidates that fall
/// outside the column slice are ignored (they belong to another partition's
/// clone and will be evaluated there).
pub fn select_with_candidates(
    column: &Column,
    predicate: &Predicate,
    candidates: &[Oid],
) -> Result<Vec<Oid>> {
    let (lo, hi) = (column.base_oid(), column.end_oid());
    let in_range = |o: &Oid| (lo..hi).contains(o);
    // With no candidate in this partition the predicate is never evaluated,
    // so it cannot fail on a type mismatch either.
    if !candidates.iter().any(in_range) {
        return Ok(Vec::new());
    }
    if !predicate.is_compound() {
        return predicate.eval_leaf_with(column, CandidateSink { candidates, lo, hi });
    }
    let in_range: Vec<Oid> = candidates.iter().copied().filter(in_range).collect();
    let mask = predicate.eval_mask(&column.gather_oids(&in_range)?)?;
    Ok(in_range.into_iter().zip(mask).filter_map(|(oid, hit)| hit.then_some(oid)).collect())
}

/// Tests a whole column in [`BLOCK`]-row compare blocks and emits the oids of
/// the set bits.
struct BlockSink {
    base: Oid,
}

impl LeafSink for BlockSink {
    type Output = Vec<Oid>;

    fn run<T: Copy>(self, values: &[T], hit: impl Fn(T) -> bool) -> Vec<Oid> {
        let words: Vec<u64> = values.chunks(BLOCK).map(|block| block_bits(block, &hit)).collect();
        // Sized from the bit counts: one allocation, no regrowth.
        let mut out = Vec::with_capacity(words.iter().map(|w| w.count_ones() as usize).sum());
        for (k, &word) in words.iter().enumerate() {
            push_set_bits(&mut out, self.base + (k * BLOCK) as Oid, word);
        }
        out
    }
}

/// Tests up to [`BLOCK`] values into one bit each (bit `j` for value `j`).
///
/// The tests first go to one byte each, a loop the compiler vectorizes; then
/// each 8 bytes (each 0 or 1) are packed into 8 bits by one multiply, which
/// moves byte `i`'s bit to bit `56 + i`.
#[inline]
fn block_bits<T: Copy>(block: &[T], hit: &impl Fn(T) -> bool) -> u64 {
    let mut bytes = [0u8; BLOCK];
    for (byte, &v) in bytes.iter_mut().zip(block) {
        *byte = hit(v) as u8;
    }
    bytes.chunks_exact(8).enumerate().fold(0, |bits, (k, eight)| {
        let eight = u64::from_le_bytes(eight.try_into().expect("chunks of 8 bytes"));
        bits | (eight.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * k)
    })
}

/// Appends `base + j` for every set bit `j` of `bits`, in ascending order.
#[inline]
fn push_set_bits(out: &mut Vec<Oid>, base: Oid, mut bits: u64) {
    while bits != 0 {
        out.push(base + bits.trailing_zeros() as Oid);
        bits &= bits - 1;
    }
}

/// Tests the value of each candidate inside `[lo, hi)` in place, keeping the
/// candidate order.
struct CandidateSink<'a> {
    candidates: &'a [Oid],
    lo: Oid,
    hi: Oid,
}

impl LeafSink for CandidateSink<'_> {
    type Output = Vec<Oid>;

    fn run<T: Copy>(self, values: &[T], hit: impl Fn(T) -> bool) -> Vec<Oid> {
        let (lo, hi) = (self.lo, self.hi);
        self.candidates
            .iter()
            .copied()
            .filter(|&o| o >= lo && o < hi && hit(values[(o - lo) as usize]))
            .collect()
    }
}

/// Fraction of rows of `column` that satisfy `predicate` (test / workload helper).
pub fn selectivity(column: &Column, predicate: &Predicate) -> Result<f64> {
    if column.is_empty() {
        return Ok(0.0);
    }
    let hits = select(column, predicate)?.len();
    Ok(hits as f64 / column.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;

    #[test]
    fn select_returns_absolute_oids() {
        let base = Column::from_i64((0..100).collect());
        let slice = base.slice(40, 20).unwrap(); // oids [40, 60)
        let oids = select(&slice, &Predicate::cmp(CmpOp::Ge, 55i64)).unwrap();
        assert_eq!(oids, vec![55, 56, 57, 58, 59]);
    }

    #[test]
    fn select_on_full_column() {
        let c = Column::from_i64(vec![5, 1, 9, 3]);
        let oids = select(&c, &Predicate::cmp(CmpOp::Gt, 3i64)).unwrap();
        assert_eq!(oids, vec![0, 2]);
        let none = select(&c, &Predicate::cmp(CmpOp::Gt, 100i64)).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn partitioned_selects_union_to_serial_select() {
        let values: Vec<i64> = (0..1000).map(|v| (v * 7919) % 100).collect();
        let c = Column::from_i64(values);
        let pred = Predicate::cmp(CmpOp::Lt, 37i64);
        let serial = select(&c, &pred).unwrap();

        let mut packed = Vec::new();
        for (start, len) in [(0usize, 400usize), (400, 350), (750, 250)] {
            let part = c.slice(start, len).unwrap();
            packed.extend(select(&part, &pred).unwrap());
        }
        assert_eq!(packed, serial);
    }

    #[test]
    fn candidate_select_preserves_order_and_filters() {
        let c = Column::from_i64(vec![10, 20, 30, 40, 50]);
        let cands = vec![4, 1, 3];
        let out = select_with_candidates(&c, &Predicate::cmp(CmpOp::Ge, 40i64), &cands).unwrap();
        assert_eq!(out, vec![4, 3]);
    }

    #[test]
    fn candidate_select_ignores_out_of_partition_oids() {
        let base = Column::from_i64((0..100).collect());
        let part = base.slice(50, 50).unwrap();
        // Candidates 10 and 20 belong to the other partition: silently skipped.
        let out =
            select_with_candidates(&part, &Predicate::cmp(CmpOp::Ge, 0i64), &[10, 20, 60, 70])
                .unwrap();
        assert_eq!(out, vec![60, 70]);
        // All candidates out of range.
        let out =
            select_with_candidates(&part, &Predicate::cmp(CmpOp::Ge, 0i64), &[1, 2, 3]).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn selectivity_helper() {
        let c = Column::from_i64((0..100).collect());
        let s = selectivity(&c, &Predicate::cmp(CmpOp::Lt, 25i64)).unwrap();
        assert!((s - 0.25).abs() < 1e-9);
        let empty = Column::from_i64(vec![]);
        assert_eq!(selectivity(&empty, &Predicate::cmp(CmpOp::Lt, 1i64)).unwrap(), 0.0);
    }
}
