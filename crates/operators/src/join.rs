//! Hash join (build + probe).
//!
//! The paper analyzes the hash-join implementation "as it suits most
//! workloads due to the omnipresence of non-sorted data" and parallelizes it
//! by splitting only the larger (outer) input into equi-range partitions
//! while the hash table built on the inner input is shared by all probe
//! clones (§2.1, Fig. 4). Accordingly:
//!
//! * [`JoinHashTable::build`] builds a table over the inner key column once;
//!   the table is immutable afterwards and cheap to share (`Arc`) between
//!   probe clones.
//! * [`JoinHashTable::probe`] probes with an outer key column (a slice of the
//!   outer base column or a fetched intermediate) and produces matching
//!   `(outer_oid, inner_oid)` pairs.
//!
//! # Layout
//!
//! The table borrows the build keys (an `Int64` column is shared, not
//! copied; `Int32` keys are widened once) and stores only `u32` row links:
//! a `heads` array of buckets and a `next` array chaining build rows that
//! share a bucket. The inner oid of build row `r` is `base_oid + r`, so no
//! oid array is kept. The bucket of a key is chosen from the input alone:
//!
//! * **Direct.** When the build keys span at most
//!   `max(4 × rows, 65,536)` values, the bucket is `key − min`. A bucket then
//!   holds exactly one key value, so a probe does not compare keys, and when
//!   the build side has no duplicate keys the `next` array is dropped and a
//!   probe reads one bucket.
//! * **Hashed.** Otherwise the bucket is a Fibonacci hash of the key over a
//!   power-of-two table of at least `2 × rows` buckets, and a probe walks
//!   the chain comparing keys.
//!
//! The build is one pass that pushes each row onto the front of its
//! bucket's chain. A probe therefore emits an outer row's matches in
//! **descending build-row order**, in both layouts.

use apq_columnar::{Column, DataType, Oid};

use crate::error::{OperatorError, Result};

/// Empty bucket / end of chain. Links store `row + 1`, so a zeroed
/// allocation is an empty table.
const EMPTY: u32 = 0;

/// Build keys may span up to this many buckets per build row before the
/// table falls back to hashing (with a floor of [`DIRECT_MIN_SPAN`]).
const DIRECT_SPAN_PER_ROW: usize = 4;

/// Key spans up to this size are always direct-addressed.
const DIRECT_MIN_SPAN: usize = 1 << 16;

/// How a key maps to its bucket.
#[derive(Debug, Clone, Copy)]
enum Layout {
    /// `bucket = key − min` for keys in `[min, max]`; every other key misses.
    Direct { min: i64, max: i64 },
    /// `bucket = hash_key(key, mask)`; chains hold colliding keys.
    Hashed { mask: u64 },
}

/// An immutable hash table over the inner (build-side) join keys.
#[derive(Debug)]
pub struct JoinHashTable {
    /// Build keys as an `Int64` view.
    keys: Column,
    /// Oid of build row 0.
    base: Oid,
    layout: Layout,
    heads: Vec<u32>,
    /// Chain links; empty for a direct table without duplicate keys.
    next: Vec<u32>,
}

/// The output of a probe: parallel vectors of matching outer and inner oids.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JoinResult {
    /// Oid on the probe (outer) side for each match.
    pub outer_oids: Vec<Oid>,
    /// Oid on the build (inner) side for each match.
    pub inner_oids: Vec<Oid>,
}

impl JoinResult {
    /// Number of matching pairs.
    pub fn len(&self) -> usize {
        self.outer_oids.len()
    }

    /// True when no pairs matched.
    pub fn is_empty(&self) -> bool {
        self.outer_oids.is_empty()
    }

    /// Concatenates several probe results in argument order (exchange union).
    pub fn concat(parts: &[JoinResult]) -> JoinResult {
        let total: usize = parts.iter().map(JoinResult::len).sum();
        let mut out = JoinResult {
            outer_oids: Vec::with_capacity(total),
            inner_oids: Vec::with_capacity(total),
        };
        for p in parts {
            out.outer_oids.extend_from_slice(&p.outer_oids);
            out.inner_oids.extend_from_slice(&p.inner_oids);
        }
        out
    }

    /// Concatenates borrowed `(outer, inner)` pair windows in argument order.
    ///
    /// The slice-based flavour of [`JoinResult::concat`], for callers holding
    /// windowed views over shared results: packs straight from the backing
    /// (two output allocations total, no per-part intermediate clones). Each
    /// part's slices must have equal length.
    pub fn concat_parts(parts: &[(&[Oid], &[Oid])]) -> JoinResult {
        let total: usize = parts.iter().map(|(o, _)| o.len()).sum();
        let mut out = JoinResult {
            outer_oids: Vec::with_capacity(total),
            inner_oids: Vec::with_capacity(total),
        };
        for (outer, inner) in parts {
            debug_assert_eq!(outer.len(), inner.len(), "join part windows must be parallel");
            out.outer_oids.extend_from_slice(outer);
            out.inner_oids.extend_from_slice(inner);
        }
        out
    }
}

#[inline]
fn hash_key(key: i64, mask: u64) -> usize {
    // Fibonacci hashing: cheap, good spread for dense and sparse keys alike.
    ((key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32 & mask) as usize
}

/// Number of buckets a direct table needs for keys in `[min, max]`, if it is
/// within the direct-address budget for `rows` build rows.
pub(crate) fn direct_span(min: i64, max: i64, rows: usize) -> Option<usize> {
    let span = (max as i128 - min as i128 + 1) as u128;
    let limit = (rows.saturating_mul(DIRECT_SPAN_PER_ROW)).max(DIRECT_MIN_SPAN);
    (span <= limit as u128).then_some(span as usize)
}

/// Offset of `key` within `[min, max]`, or `None` outside it.
#[inline]
pub(crate) fn direct_slot(key: i64, min: i64, max: i64) -> Option<usize> {
    // `key - min` cannot overflow as an unsigned offset once `key >= min`.
    (key >= min && key <= max).then(|| key.wrapping_sub(min) as u64 as usize)
}

/// Calls `f(row, key)` for every visible row of an integer key column.
fn for_each_key(column: &Column, mut f: impl FnMut(usize, i64)) -> Result<()> {
    match column.data_type() {
        DataType::Int64 => column.i64_values()?.iter().enumerate().for_each(|(i, &k)| f(i, k)),
        DataType::Int32 => {
            column.i32_values()?.iter().enumerate().for_each(|(i, &k)| f(i, k as i64))
        }
        other => return Err(OperatorError::UnsupportedJoinKey(other.name())),
    }
    Ok(())
}

impl JoinHashTable {
    /// Builds the hash table over the inner key column. Build row `i` stands
    /// for the absolute oid `inner.base_oid() + i`.
    pub fn build(inner: &Column) -> Result<JoinHashTable> {
        let keys = match inner.data_type() {
            DataType::Int64 => inner.clone(),
            DataType::Int32 => {
                Column::from_i64(inner.i32_values()?.iter().map(|&v| v as i64).collect())
            }
            other => return Err(OperatorError::UnsupportedJoinKey(other.name())),
        };
        let values = keys.i64_values()?;
        let n = values.len();
        let (min, max) =
            values.iter().fold((i64::MAX, i64::MIN), |(lo, hi), &k| (lo.min(k), hi.max(k)));
        let direct = if n == 0 { None } else { direct_span(min, max, n) };
        let (layout, n_buckets) = match direct {
            Some(span) => (Layout::Direct { min, max }, span),
            None => {
                let n_buckets = (n.max(1) * 2).next_power_of_two();
                (Layout::Hashed { mask: (n_buckets - 1) as u64 }, n_buckets)
            }
        };
        let mut heads = vec![EMPTY; n_buckets];
        let mut next = vec![EMPTY; n];
        let mut chained = false;
        for (i, &key) in values.iter().enumerate() {
            let b = match layout {
                Layout::Direct { min, .. } => key.wrapping_sub(min) as u64 as usize,
                Layout::Hashed { mask } => hash_key(key, mask),
            };
            next[i] = heads[b];
            chained |= heads[b] != EMPTY;
            heads[b] = i as u32 + 1;
        }
        if matches!(layout, Layout::Direct { .. }) && !chained {
            next = Vec::new();
        }
        Ok(JoinHashTable { keys, base: inner.base_oid(), layout, heads, next })
    }

    /// Number of build-side entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when the build side was empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Approximate memory footprint in bytes (profiler memory claim).
    pub fn byte_size(&self) -> usize {
        self.heads.len() * 4 + self.next.len() * 4 + self.keys.len() * 8
    }

    /// The build keys; `build` only ever stores an `Int64` column.
    fn key_values(&self) -> &[i64] {
        self.keys.i64_values().expect("join build keys are stored as Int64")
    }

    /// Chain link after build row `link - 1`; `EMPTY` for an unchained table.
    #[inline]
    fn next_link(&self, link: u32) -> u32 {
        self.next.get(link as usize - 1).copied().unwrap_or(EMPTY)
    }

    /// Calls `emit(row, inner_oid)` for every outer row and match, in outer
    /// row order and descending build-row order per outer row.
    fn for_each_match(&self, outer: &Column, mut emit: impl FnMut(usize, Oid)) -> Result<()> {
        let base = self.base;
        match self.layout {
            // A direct bucket holds one key value: no key compare.
            Layout::Direct { min, max } => for_each_key(outer, |i, key| {
                let Some(slot) = direct_slot(key, min, max) else { return };
                let mut link = self.heads[slot];
                while link != EMPTY {
                    emit(i, base + (link - 1) as Oid);
                    link = self.next_link(link);
                }
            }),
            Layout::Hashed { mask } => {
                let keys = self.key_values();
                for_each_key(outer, |i, key| {
                    let mut link = self.heads[hash_key(key, mask)];
                    while link != EMPTY {
                        let row = link as usize - 1;
                        if keys[row] == key {
                            emit(i, base + row as Oid);
                        }
                        link = self.next[row];
                    }
                })
            }
        }
    }

    /// Returns the inner oids whose key equals `key`, in descending order.
    pub fn lookup(&self, key: i64) -> Vec<Oid> {
        let mut out = Vec::new();
        self.for_each_match(&Column::from_i64(vec![key]), |_, inner| out.push(inner))
            .expect("an Int64 probe column is always accepted");
        out
    }

    /// Probes the table with an outer key column. Each outer row's absolute
    /// oid is paired with every matching inner oid.
    pub fn probe(&self, outer: &Column) -> Result<JoinResult> {
        let base = outer.base_oid();
        let mut result = JoinResult::default();
        self.for_each_match(outer, |i, inner| {
            result.outer_oids.push(base + i as Oid);
            result.inner_oids.push(inner);
        })?;
        Ok(result)
    }

    /// Probes with explicit outer oids: `outer_oids[i]` is reported for row
    /// `i` of `outer_keys` instead of `outer_keys.base_oid() + i`. Used when
    /// the outer keys were produced by a fetch over a candidate list, so the
    /// join result keeps referring to base-table oids.
    pub fn probe_with_oids(&self, outer_keys: &Column, outer_oids: &[Oid]) -> Result<JoinResult> {
        if outer_keys.len() != outer_oids.len() {
            return Err(OperatorError::LengthMismatch {
                left: outer_keys.len(),
                right: outer_oids.len(),
            });
        }
        let mut result = JoinResult::default();
        self.for_each_match(outer_keys, |i, inner| {
            result.outer_oids.push(outer_oids[i]);
            result.inner_oids.push(inner);
        })?;
        Ok(result)
    }

    /// Probes and reports only whether each outer row has at least one match
    /// (semi-join), returning the matching outer oids. Used for `EXISTS`
    /// style sub-queries (TPC-H Q4).
    pub fn probe_semi(&self, outer: &Column) -> Result<Vec<Oid>> {
        let base = outer.base_oid();
        let mut out = Vec::new();
        match self.layout {
            Layout::Direct { min, max } => for_each_key(outer, |i, key| {
                if direct_slot(key, min, max).is_some_and(|slot| self.heads[slot] != EMPTY) {
                    out.push(base + i as Oid);
                }
            }),
            Layout::Hashed { mask } => {
                let keys = self.key_values();
                for_each_key(outer, |i, key| {
                    let mut link = self.heads[hash_key(key, mask)];
                    while link != EMPTY && keys[link as usize - 1] != key {
                        link = self.next[link as usize - 1];
                    }
                    if link != EMPTY {
                        out.push(base + i as Oid);
                    }
                })
            }
        }?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_lookup() {
        let inner = Column::from_i64(vec![10, 20, 30, 20]);
        let ht = JoinHashTable::build(&inner).unwrap();
        assert_eq!(ht.len(), 4);
        assert!(!ht.is_empty());
        assert!(ht.byte_size() > 0);
        let mut hits = ht.lookup(20);
        hits.sort_unstable();
        assert_eq!(hits, vec![1, 3]);
        assert!(ht.lookup(99).is_empty());
    }

    #[test]
    fn layout_follows_the_key_span() {
        // A small build direct-addresses spans up to 65,536 keys.
        let direct = JoinHashTable::build(&Column::from_i64(vec![0, 65_535])).unwrap();
        assert!(matches!(direct.layout, Layout::Direct { min: 0, max: 65_535 }));
        assert!(direct.next.is_empty(), "unique keys need no chain");
        let hashed = JoinHashTable::build(&Column::from_i64(vec![0, 65_536])).unwrap();
        assert!(matches!(hashed.layout, Layout::Hashed { .. }));
        let duplicated = JoinHashTable::build(&Column::from_i64(vec![5, 5])).unwrap();
        assert_eq!(duplicated.next.len(), 2);
        assert_eq!(duplicated.lookup(5), vec![1, 0]);
        // Larger builds may span 4 keys per row.
        assert_eq!(direct_span(0, 79_999, 20_000), Some(80_000));
        assert_eq!(direct_span(0, 80_000, 20_000), None);
        // The span and slot arithmetic hold at the ends of the domain.
        assert_eq!(direct_span(i64::MIN, i64::MAX, usize::MAX), None);
        assert_eq!(direct_span(i64::MAX - 9, i64::MAX, 1), Some(10));
        assert_eq!(direct_slot(i64::MIN, i64::MAX - 9, i64::MAX), None);
        assert_eq!(direct_slot(i64::MAX, i64::MAX - 9, i64::MAX), Some(9));
        let extremes = JoinHashTable::build(&Column::from_i64(vec![i64::MIN, i64::MAX])).unwrap();
        assert_eq!(extremes.lookup(i64::MAX), vec![1]);
        assert_eq!(extremes.lookup(i64::MIN), vec![0]);
        assert!(extremes.lookup(0).is_empty());
    }

    #[test]
    fn probe_produces_all_pairs() {
        let inner = Column::from_i64(vec![1, 2, 2, 3]);
        let outer = Column::from_i64(vec![2, 3, 4]);
        let ht = JoinHashTable::build(&inner).unwrap();
        let res = ht.probe(&outer).unwrap();
        // outer row 0 (key 2) matches inner oids {1,2}; outer row 1 (key 3) matches inner oid 3.
        let mut pairs: Vec<(Oid, Oid)> =
            res.outer_oids.iter().copied().zip(res.inner_oids.iter().copied()).collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 1), (0, 2), (1, 3)]);
        assert_eq!(res.len(), 3);
        assert!(!res.is_empty());
    }

    #[test]
    fn probe_uses_absolute_oids_of_outer_slice() {
        let inner = Column::from_i64(vec![5, 6]);
        let outer_base = Column::from_i64(vec![5, 5, 6, 7, 6, 5]);
        let outer_part = outer_base.slice(3, 3).unwrap(); // oids [3,6): keys 7,6,5
        let ht = JoinHashTable::build(&inner).unwrap();
        let res = ht.probe(&outer_part).unwrap();
        let pairs: Vec<(Oid, Oid)> =
            res.outer_oids.iter().copied().zip(res.inner_oids.iter().copied()).collect();
        assert_eq!(pairs, vec![(4, 1), (5, 0)]);
    }

    #[test]
    fn partitioned_probes_union_to_serial_probe() {
        let inner = Column::from_i64((0..64).collect());
        let outer = Column::from_i64((0..1000).map(|v| v % 100).collect());
        let ht = JoinHashTable::build(&inner).unwrap();
        let serial = ht.probe(&outer).unwrap();

        let mut parts = Vec::new();
        for (s, l) in [(0usize, 300usize), (300, 300), (600, 400)] {
            parts.push(ht.probe(&outer.slice(s, l).unwrap()).unwrap());
        }
        let packed = JoinResult::concat(&parts);
        assert_eq!(packed, serial);
    }

    #[test]
    fn concat_parts_matches_concat() {
        let a = JoinResult { outer_oids: vec![1, 2], inner_oids: vec![10, 20] };
        let b = JoinResult { outer_oids: vec![3], inner_oids: vec![30] };
        let owned = JoinResult::concat(&[a.clone(), b.clone()]);
        let borrowed = JoinResult::concat_parts(&[
            (a.outer_oids.as_slice(), a.inner_oids.as_slice()),
            (b.outer_oids.as_slice(), b.inner_oids.as_slice()),
        ]);
        assert_eq!(owned, borrowed);
        assert!(JoinResult::concat_parts(&[]).is_empty());
    }

    #[test]
    fn probe_with_explicit_oids() {
        let inner = Column::from_i64(vec![7, 8]);
        let keys = Column::from_i64(vec![8, 9, 7]);
        let oids = vec![100, 200, 300];
        let ht = JoinHashTable::build(&inner).unwrap();
        let res = ht.probe_with_oids(&keys, &oids).unwrap();
        let pairs: Vec<(Oid, Oid)> =
            res.outer_oids.iter().copied().zip(res.inner_oids.iter().copied()).collect();
        assert_eq!(pairs, vec![(100, 1), (300, 0)]);
        assert!(ht.probe_with_oids(&keys, &[1, 2]).is_err());
    }

    #[test]
    fn semi_join_reports_each_outer_once() {
        let inner = Column::from_i64(vec![1, 1, 2]);
        let outer = Column::from_i64(vec![1, 3, 2, 1]);
        let ht = JoinHashTable::build(&inner).unwrap();
        assert_eq!(ht.probe_semi(&outer).unwrap(), vec![0, 2, 3]);
    }

    #[test]
    fn i32_keys_and_unsupported_types() {
        let inner = Column::from_i32(vec![1, 2]);
        let outer = Column::from_i32(vec![2, 2]);
        let ht = JoinHashTable::build(&inner).unwrap();
        assert_eq!(ht.probe(&outer).unwrap().len(), 2);
        let bad = Column::from_strings(["x"]);
        assert!(JoinHashTable::build(&bad).is_err());
        assert!(ht.probe(&bad).is_err());
    }

    #[test]
    fn empty_build_side() {
        let inner = Column::from_i64(vec![]);
        let ht = JoinHashTable::build(&inner).unwrap();
        assert!(ht.is_empty());
        let outer = Column::from_i64(vec![1, 2, 3]);
        assert!(ht.probe(&outer).unwrap().is_empty());
    }
}
