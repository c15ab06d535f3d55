//! Row-at-a-time reference kernels for the differential tests.
//!
//! These are the select, hash-join and group-by kernels as they were before
//! the flat kernels replaced them: select builds a full row mask and then
//! compacts it, the join keeps a copied key array and an oid array in a
//! chained bucket table and always walks the chain comparing keys, and the
//! group-by looks up a freshly built `GroupKey` in a SipHash `HashMap` for
//! every row. They are slow on purpose and simple enough to check by eye.
//! No production path calls them; `kernels_vs_reference.rs` asserts that the
//! production kernels return the same output, element order included.

use std::collections::HashMap;

use apq_columnar::{Column, DataType, Oid};
use apq_operators::{AggFunc, AggState, GroupKey, JoinResult, OperatorError, Predicate, Result};

/// `select` as mask-then-compact.
pub fn select(column: &Column, predicate: &Predicate) -> Result<Vec<Oid>> {
    let mask = predicate.eval_mask(column)?;
    let base = column.base_oid();
    let mut out = Vec::new();
    for (i, hit) in mask.into_iter().enumerate() {
        if hit {
            out.push(base + i as Oid);
        }
    }
    Ok(out)
}

/// `select_with_candidates` as gather-then-mask.
pub fn select_with_candidates(
    column: &Column,
    predicate: &Predicate,
    candidates: &[Oid],
) -> Result<Vec<Oid>> {
    let lo = column.base_oid();
    let hi = column.end_oid();
    let in_range: Vec<Oid> = candidates.iter().copied().filter(|&o| o >= lo && o < hi).collect();
    if in_range.is_empty() {
        return Ok(Vec::new());
    }
    let gathered = column.gather_oids(&in_range)?;
    let mask = predicate.eval_mask(&gathered)?;
    Ok(in_range.into_iter().zip(mask).filter_map(|(oid, hit)| hit.then_some(oid)).collect())
}

const EMPTY: u32 = u32::MAX;

/// The chained hash table: bucket heads plus a next-chain, with copied keys
/// and oids.
pub struct ChainedTable {
    mask: u64,
    heads: Vec<u32>,
    next: Vec<u32>,
    keys: Vec<i64>,
    oids: Vec<Oid>,
}

fn hash_key(key: i64, mask: u64) -> usize {
    ((key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32 & mask) as usize
}

fn key_values(column: &Column) -> Result<Vec<i64>> {
    match column.data_type() {
        DataType::Int64 => Ok(column.i64_values()?.to_vec()),
        DataType::Int32 => Ok(column.i32_values()?.iter().map(|&v| v as i64).collect()),
        other => Err(OperatorError::UnsupportedJoinKey(other.name())),
    }
}

impl ChainedTable {
    pub fn build(inner: &Column) -> Result<ChainedTable> {
        let keys = key_values(inner)?;
        let n = keys.len();
        let n_buckets = (n.max(1) * 2).next_power_of_two();
        let mask = (n_buckets - 1) as u64;
        let mut heads = vec![EMPTY; n_buckets];
        let mut next = vec![EMPTY; n];
        let base = inner.base_oid();
        let oids: Vec<Oid> = (0..n as u64).map(|i| base + i).collect();
        for (i, &key) in keys.iter().enumerate() {
            let b = hash_key(key, mask);
            next[i] = heads[b];
            heads[b] = i as u32;
        }
        Ok(ChainedTable { mask, heads, next, keys, oids })
    }

    pub fn probe_with_oids(&self, outer_keys: &Column, outer_oids: &[Oid]) -> Result<JoinResult> {
        if outer_keys.len() != outer_oids.len() {
            return Err(OperatorError::LengthMismatch {
                left: outer_keys.len(),
                right: outer_oids.len(),
            });
        }
        let keys = key_values(outer_keys)?;
        let mut result = JoinResult::default();
        for (i, &key) in keys.iter().enumerate() {
            let mut e = self.heads[hash_key(key, self.mask)];
            while e != EMPTY {
                let j = e as usize;
                if self.keys[j] == key {
                    result.outer_oids.push(outer_oids[i]);
                    result.inner_oids.push(self.oids[j]);
                }
                e = self.next[j];
            }
        }
        Ok(result)
    }

    pub fn probe(&self, outer: &Column) -> Result<JoinResult> {
        let oids: Vec<Oid> = (outer.base_oid()..outer.end_oid()).collect();
        self.probe_with_oids(outer, &oids)
    }

    pub fn probe_semi(&self, outer: &Column) -> Result<Vec<Oid>> {
        let keys = key_values(outer)?;
        let base = outer.base_oid();
        let mut out = Vec::new();
        for (i, &key) in keys.iter().enumerate() {
            let mut e = self.heads[hash_key(key, self.mask)];
            while e != EMPTY {
                let j = e as usize;
                if self.keys[j] == key {
                    out.push(base + i as Oid);
                    break;
                }
                e = self.next[j];
            }
        }
        Ok(out)
    }
}

/// Grouped aggregation through a per-row `GroupKey` and a SipHash map;
/// groups in first-occurrence order with their partial states.
pub fn grouped_agg(
    func: AggFunc,
    keys: &Column,
    values: &Column,
) -> Result<Vec<(GroupKey, AggState)>> {
    if keys.len() != values.len() {
        return Err(OperatorError::LengthMismatch { left: keys.len(), right: values.len() });
    }
    let key_of = |i: usize| -> Result<GroupKey> {
        Ok(match keys.data_type() {
            DataType::Int64 => GroupKey::I64(keys.i64_values()?[i]),
            DataType::Int32 => GroupKey::I64(keys.i32_values()?[i] as i64),
            DataType::Bool => GroupKey::I64(keys.bool_values()?[i] as i64),
            DataType::Str => {
                let (codes, dict) = keys.str_codes()?;
                GroupKey::Str(dict[codes[i] as usize].clone())
            }
            DataType::Float64 => {
                return Err(OperatorError::IncompatibleAggregates(
                    "float group-by keys are not supported".to_string(),
                ))
            }
        })
    };
    if keys.data_type() == DataType::Float64 {
        key_of(0)?;
    }
    if values.data_type() == DataType::Str && func != AggFunc::Count {
        return Err(OperatorError::IncompatibleAggregates(format!(
            "{} over a string value column",
            func.name()
        )));
    }
    let mut groups: Vec<(GroupKey, AggState)> = Vec::new();
    let mut index: HashMap<GroupKey, usize> = HashMap::new();
    for i in 0..keys.len() {
        let key = key_of(i)?;
        let g = *index.entry(key.clone()).or_insert_with(|| {
            groups.push((key, AggState::new(func)));
            groups.len() - 1
        });
        let state = &mut groups[g].1;
        match values.data_type() {
            DataType::Int64 => state.update_i64(values.i64_values()?[i]),
            DataType::Int32 => state.update_i64(values.i32_values()?[i] as i64),
            DataType::Float64 => state.update_f64(values.f64_values()?[i]),
            DataType::Bool => state.update_i64(values.bool_values()?[i] as i64),
            DataType::Str => state.update_i64(1),
        }
    }
    Ok(groups)
}
