//! Scalar and grouped aggregation with mergeable partial states.
//!
//! Adaptive parallelization clones aggregation operators over partitions and
//! later combines their outputs (the *advanced mutation*, paper §2.1). That
//! only works if per-partition aggregates are *partial states* that can be
//! merged: sums add up, counts add up, min/max take the extremum and avg
//! carries `(sum, count)`. Both the scalar aggregate ([`AggState`]) and the
//! single-attribute grouped aggregate ([`GroupedAgg`]) are therefore
//! represented as mergeable states with a final `finish` step, exactly like
//! the paper's `aggr.sum` over `mat.pack`-ed partials in the Q14 plan.
//!
//! # Grouping kernel
//!
//! [`grouped_agg`] is one flat pass over the rows: it maps each row's key to
//! a dense group id and updates `states[group]` with the row's value. Keys
//! are handled as integers: `Int64`, `Int32` and `Bool` values directly,
//! strings by their dictionary code. The id map is chosen from the input:
//!
//! * **Dense slots** when the keys span at most `max(4 × rows, 65,536)`
//!   values, which always holds for dictionary codes of a small dictionary
//!   and for small integer domains: `slot = key − min`.
//! * **A flat hash table** otherwise: open addressing with linear probing
//!   over a multiplicative hash, doubled at half load.
//!
//! The [`GroupKey`] of a group and its entry in the key index are built once,
//! when the group first appears, so string keys are cloned once per group.
//! Groups keep **first-occurrence order**, and each group accumulates its
//! rows **in row order**; together with the morsel-order merge upstream this
//! keeps float results byte-identical however the input is partitioned.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use apq_columnar::{Column, DataType, ScalarValue};

use crate::error::{OperatorError, Result};
use crate::join::direct_span;

/// Aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Sum of values.
    Sum,
    /// Row count.
    Count,
    /// Minimum value.
    Min,
    /// Maximum value.
    Max,
    /// Arithmetic mean.
    Avg,
}

impl AggFunc {
    /// Short name for plan pretty-printing.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Sum => "sum",
            AggFunc::Count => "count",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        }
    }
}

/// Mergeable partial state of one aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct AggState {
    func: AggFunc,
    saw_float: bool,
    count: i64,
    sum_i: i64,
    sum_f: f64,
    min_i: i64,
    max_i: i64,
    min_f: f64,
    max_f: f64,
}

impl AggState {
    /// Fresh (empty) state for the given function.
    pub fn new(func: AggFunc) -> Self {
        AggState {
            func,
            saw_float: false,
            count: 0,
            sum_i: 0,
            sum_f: 0.0,
            min_i: i64::MAX,
            max_i: i64::MIN,
            min_f: f64::INFINITY,
            max_f: f64::NEG_INFINITY,
        }
    }

    /// The aggregate function this state computes.
    pub fn func(&self) -> AggFunc {
        self.func
    }

    /// Number of accumulated rows.
    pub fn count(&self) -> i64 {
        self.count
    }

    /// Accumulates one integer value.
    pub fn update_i64(&mut self, v: i64) {
        self.count += 1;
        self.sum_i = self.sum_i.wrapping_add(v);
        self.sum_f += v as f64;
        self.min_i = self.min_i.min(v);
        self.max_i = self.max_i.max(v);
        self.min_f = self.min_f.min(v as f64);
        self.max_f = self.max_f.max(v as f64);
    }

    /// Accumulates one float value.
    pub fn update_f64(&mut self, v: f64) {
        self.saw_float = true;
        self.count += 1;
        self.sum_f += v;
        self.min_f = self.min_f.min(v);
        self.max_f = self.max_f.max(v);
    }

    /// Accumulates every visible row of a column.
    pub fn update_column(&mut self, column: &Column) -> Result<()> {
        match column.data_type() {
            DataType::Int64 => {
                for &v in column.i64_values()? {
                    self.update_i64(v);
                }
            }
            DataType::Int32 => {
                for &v in column.i32_values()? {
                    self.update_i64(v as i64);
                }
            }
            DataType::Float64 => {
                for &v in column.f64_values()? {
                    self.update_f64(v);
                }
            }
            DataType::Bool => {
                for &v in column.bool_values()? {
                    self.update_i64(v as i64);
                }
            }
            DataType::Str => {
                if self.func != AggFunc::Count {
                    return Err(OperatorError::IncompatibleAggregates(format!(
                        "{} over a string column",
                        self.func.name()
                    )));
                }
                self.count += column.len() as i64;
            }
        }
        Ok(())
    }

    /// Merges another partial state into this one.
    pub fn merge(&mut self, other: &AggState) -> Result<()> {
        if self.func != other.func {
            return Err(OperatorError::IncompatibleAggregates(format!(
                "{} vs {}",
                self.func.name(),
                other.func.name()
            )));
        }
        self.saw_float |= other.saw_float;
        self.count += other.count;
        self.sum_i = self.sum_i.wrapping_add(other.sum_i);
        self.sum_f += other.sum_f;
        self.min_i = self.min_i.min(other.min_i);
        self.max_i = self.max_i.max(other.max_i);
        self.min_f = self.min_f.min(other.min_f);
        self.max_f = self.max_f.max(other.max_f);
        Ok(())
    }

    /// Finalizes the state into a scalar result.
    ///
    /// Empty inputs yield `0` for sum/count and `0.0` for avg; min/max over
    /// an empty input yield `I64(0)` (the engine never produces that case for
    /// the evaluated queries, but the behaviour is defined and tested).
    pub fn finish(&self) -> ScalarValue {
        match self.func {
            AggFunc::Count => ScalarValue::I64(self.count),
            AggFunc::Sum => {
                if self.saw_float {
                    ScalarValue::F64(self.sum_f)
                } else {
                    ScalarValue::I64(self.sum_i)
                }
            }
            AggFunc::Avg => {
                if self.count == 0 {
                    ScalarValue::F64(0.0)
                } else {
                    ScalarValue::F64(self.sum_f / self.count as f64)
                }
            }
            AggFunc::Min => {
                if self.count == 0 {
                    ScalarValue::I64(0)
                } else if self.saw_float {
                    ScalarValue::F64(self.min_f)
                } else {
                    ScalarValue::I64(self.min_i)
                }
            }
            AggFunc::Max => {
                if self.count == 0 {
                    ScalarValue::I64(0)
                } else if self.saw_float {
                    ScalarValue::F64(self.max_f)
                } else {
                    ScalarValue::I64(self.max_i)
                }
            }
        }
    }
}

/// Computes the partial aggregate of `func` over a whole column.
pub fn scalar_agg(func: AggFunc, column: &Column) -> Result<AggState> {
    let mut state = AggState::new(func);
    state.update_column(column)?;
    Ok(state)
}

/// Grouping key of the single-attribute grouped aggregate.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GroupKey {
    /// Integer key (covers `Int64`, `Int32` and `Bool` key columns).
    I64(i64),
    /// String key.
    Str(String),
}

impl std::fmt::Display for GroupKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GroupKey::I64(v) => write!(f, "{v}"),
            GroupKey::Str(s) => write!(f, "{s}"),
        }
    }
}

/// Mergeable result of a single-attribute grouped aggregation.
#[derive(Debug, Clone)]
pub struct GroupedAgg {
    func: AggFunc,
    keys: Vec<GroupKey>,
    states: Vec<AggState>,
    index: HashMap<GroupKey, usize>,
}

impl GroupedAgg {
    /// Empty grouped aggregate for `func`.
    pub fn new(func: AggFunc) -> Self {
        GroupedAgg { func, keys: Vec::new(), states: Vec::new(), index: HashMap::new() }
    }

    /// The aggregate function.
    pub fn func(&self) -> AggFunc {
        self.func
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no groups were formed.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Id of the group for `key`, creating an empty group on first sight.
    fn group_id(&mut self, key: GroupKey) -> usize {
        let next = self.keys.len();
        match self.index.entry(key) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                self.keys.push(e.key().clone());
                self.states.push(AggState::new(self.func));
                e.insert(next);
                next
            }
        }
    }

    /// Groups in first-occurrence order with their partial states.
    pub fn groups(&self) -> impl Iterator<Item = (&GroupKey, &AggState)> {
        self.keys.iter().zip(&self.states)
    }

    /// Finalized value of one group, if present.
    pub fn get(&self, key: &GroupKey) -> Option<ScalarValue> {
        self.index.get(key).map(|&i| self.states[i].finish())
    }

    /// Merges another grouped aggregate (same function) into this one.
    pub fn merge(&mut self, other: &GroupedAgg) -> Result<()> {
        if self.func != other.func {
            return Err(OperatorError::IncompatibleAggregates(format!(
                "{} vs {}",
                self.func.name(),
                other.func.name()
            )));
        }
        for (key, state) in other.groups() {
            let g = self.group_id(key.clone());
            self.states[g].merge(state)?;
        }
        Ok(())
    }

    /// Groups sorted by key with their finalized values — the deterministic
    /// result representation used to compare serial and parallel plans.
    pub fn finish_sorted(&self) -> Vec<(GroupKey, ScalarValue)> {
        let mut out: Vec<(GroupKey, ScalarValue)> =
            self.groups().map(|(key, state)| (key.clone(), state.finish())).collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Approximate memory footprint in bytes (profiler memory claim).
    pub fn byte_size(&self) -> usize {
        self.keys.len() * (std::mem::size_of::<GroupKey>() + std::mem::size_of::<AggState>())
    }

    /// Calls `update(state, row)` for every row of an integer-coded key
    /// column, creating groups in first-occurrence order.
    fn group_rows(
        &mut self,
        keys: &Column,
        update: impl FnMut(&mut AggState, usize),
    ) -> Result<()> {
        match keys.data_type() {
            DataType::Int64 => self.group_ints(keys.i64_values()?, |k| k, GroupKey::I64, update),
            DataType::Int32 => {
                self.group_ints(keys.i32_values()?, |k| k as i64, GroupKey::I64, update)
            }
            DataType::Bool => {
                self.group_ints(keys.bool_values()?, |k| k as i64, GroupKey::I64, update)
            }
            DataType::Str => {
                let (codes, dict) = keys.str_codes()?;
                // Two codes with equal strings still meet in one group: new
                // groups are resolved through the key index.
                let key = |c: i64| GroupKey::Str(dict[c as usize].clone());
                self.group_ints(codes, |c| c as i64, key, update)
            }
            DataType::Float64 => {
                return Err(OperatorError::IncompatibleAggregates(
                    "float group-by keys are not supported".to_string(),
                ))
            }
        }
        Ok(())
    }

    /// [`GroupedAgg::group_rows`] over integer keys: dense slots when the
    /// key span is small, a flat hash table otherwise.
    fn group_ints<T: Copy>(
        &mut self,
        keys: &[T],
        widen: impl Fn(T) -> i64,
        group_key: impl Fn(i64) -> GroupKey,
        mut update: impl FnMut(&mut AggState, usize),
    ) {
        if keys.is_empty() {
            return;
        }
        let (min, max) = keys
            .iter()
            .fold((i64::MAX, i64::MIN), |(lo, hi), &k| (lo.min(widen(k)), hi.max(widen(k))));
        if let Some(span) = direct_span(min, max, keys.len()) {
            // Slot `key - min` holds `group id + 1`; 0 means not seen yet.
            let mut slots = vec![0u32; span];
            for (row, &k) in keys.iter().enumerate() {
                let k = widen(k);
                let slot = &mut slots[k.wrapping_sub(min) as u64 as usize];
                if *slot == 0 {
                    *slot = self.group_id(group_key(k)) as u32 + 1;
                }
                update(&mut self.states[*slot as usize - 1], row);
            }
        } else {
            let mut table = FlatGroups::new();
            for (row, &k) in keys.iter().enumerate() {
                let k = widen(k);
                let g = table.get_or_insert(k, || self.group_id(group_key(k)) as u32);
                update(&mut self.states[g as usize], row);
            }
        }
    }
}

/// Open-addressing map from an integer key to a group id, for key sets too
/// sparse for dense slots.
struct FlatGroups {
    keys: Vec<i64>,
    /// `group id + 1` per slot; 0 marks an empty slot.
    slots: Vec<u32>,
    len: usize,
    /// `64 - log2(slots.len())`: the hash keeps the product's top bits.
    shift: u32,
}

impl FlatGroups {
    const INITIAL_BITS: u32 = 10;

    fn new() -> Self {
        let n = 1 << Self::INITIAL_BITS;
        FlatGroups { keys: vec![0; n], slots: vec![0; n], len: 0, shift: 64 - Self::INITIAL_BITS }
    }

    #[inline]
    fn home(&self, key: i64) -> usize {
        ((key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Group id of `key`, calling `new_group` for a key not seen before.
    fn get_or_insert(&mut self, key: i64, new_group: impl FnOnce() -> u32) -> u32 {
        if self.len * 2 >= self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            match self.slots[i] {
                0 => {
                    let g = new_group();
                    self.keys[i] = key;
                    self.slots[i] = g + 1;
                    self.len += 1;
                    return g;
                }
                s if self.keys[i] == key => return s - 1,
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn grow(&mut self) {
        let old_keys = std::mem::take(&mut self.keys);
        let old_slots = std::mem::take(&mut self.slots);
        let n = old_slots.len() * 2;
        self.keys = vec![0; n];
        self.slots = vec![0; n];
        self.shift -= 1;
        let mask = n - 1;
        for (key, slot) in old_keys.into_iter().zip(old_slots).filter(|&(_, s)| s != 0) {
            let mut i = self.home(key);
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.keys[i] = key;
            self.slots[i] = slot;
        }
    }
}

/// Single-attribute grouped aggregation: `SELECT key, func(value) GROUP BY key`.
///
/// `keys` and `values` must be equally long and positionally aligned (they
/// usually are two columns fetched through the same candidate list). Groups
/// appear in first-occurrence order (see the module docs for the kernel).
pub fn grouped_agg(func: AggFunc, keys: &Column, values: &Column) -> Result<GroupedAgg> {
    if keys.len() != values.len() {
        return Err(OperatorError::LengthMismatch { left: keys.len(), right: values.len() });
    }
    let mut agg = GroupedAgg::new(func);
    match values.data_type() {
        DataType::Int64 => {
            let vals = values.i64_values()?;
            agg.group_rows(keys, |s, i| s.update_i64(vals[i]))?;
        }
        DataType::Int32 => {
            let vals = values.i32_values()?;
            agg.group_rows(keys, |s, i| s.update_i64(vals[i] as i64))?;
        }
        DataType::Float64 => {
            let vals = values.f64_values()?;
            agg.group_rows(keys, |s, i| s.update_f64(vals[i]))?;
        }
        DataType::Bool => {
            let vals = values.bool_values()?;
            agg.group_rows(keys, |s, i| s.update_i64(vals[i] as i64))?;
        }
        DataType::Str => {
            if keys.data_type() != DataType::Float64 && func != AggFunc::Count {
                return Err(OperatorError::IncompatibleAggregates(format!(
                    "{} over a string value column",
                    func.name()
                )));
            }
            agg.group_rows(keys, |s, _| s.update_i64(1))?;
        }
    }
    Ok(agg)
}

/// Merges per-partition grouped aggregates into one (the advanced mutation's
/// combiner). The inputs are consumed in order; order does not affect the
/// result because the partial states commute.
pub fn merge_grouped(parts: &[GroupedAgg]) -> Result<GroupedAgg> {
    let first = parts.first().ok_or(OperatorError::EmptyInput("merge_grouped"))?;
    let mut out = GroupedAgg::new(first.func());
    for p in parts {
        out.merge(p)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sum_count_min_max_avg() {
        let c = Column::from_i64(vec![3, 1, 4, 1, 5]);
        assert_eq!(scalar_agg(AggFunc::Sum, &c).unwrap().finish(), ScalarValue::I64(14));
        assert_eq!(scalar_agg(AggFunc::Count, &c).unwrap().finish(), ScalarValue::I64(5));
        assert_eq!(scalar_agg(AggFunc::Min, &c).unwrap().finish(), ScalarValue::I64(1));
        assert_eq!(scalar_agg(AggFunc::Max, &c).unwrap().finish(), ScalarValue::I64(5));
        assert_eq!(scalar_agg(AggFunc::Avg, &c).unwrap().finish(), ScalarValue::F64(2.8));
    }

    #[test]
    fn scalar_float_and_i32_and_bool() {
        let f = Column::from_f64(vec![1.5, 2.5]);
        assert_eq!(scalar_agg(AggFunc::Sum, &f).unwrap().finish(), ScalarValue::F64(4.0));
        assert_eq!(scalar_agg(AggFunc::Min, &f).unwrap().finish(), ScalarValue::F64(1.5));
        let i = Column::from_i32(vec![2, 3]);
        assert_eq!(scalar_agg(AggFunc::Sum, &i).unwrap().finish(), ScalarValue::I64(5));
        let b = Column::from_bool(vec![true, true, false]);
        assert_eq!(scalar_agg(AggFunc::Sum, &b).unwrap().finish(), ScalarValue::I64(2));
    }

    #[test]
    fn scalar_empty_inputs() {
        let c = Column::from_i64(vec![]);
        assert_eq!(scalar_agg(AggFunc::Sum, &c).unwrap().finish(), ScalarValue::I64(0));
        assert_eq!(scalar_agg(AggFunc::Count, &c).unwrap().finish(), ScalarValue::I64(0));
        assert_eq!(scalar_agg(AggFunc::Avg, &c).unwrap().finish(), ScalarValue::F64(0.0));
        assert_eq!(scalar_agg(AggFunc::Min, &c).unwrap().finish(), ScalarValue::I64(0));
    }

    #[test]
    fn scalar_strings_only_countable() {
        let c = Column::from_strings(["a", "b"]);
        assert_eq!(scalar_agg(AggFunc::Count, &c).unwrap().finish(), ScalarValue::I64(2));
        assert!(scalar_agg(AggFunc::Sum, &c).is_err());
    }

    #[test]
    fn partial_merge_equals_whole_column() {
        let values: Vec<i64> = (0..1000).map(|v| (v * 31) % 97).collect();
        let whole = Column::from_i64(values.clone());
        for func in [AggFunc::Sum, AggFunc::Count, AggFunc::Min, AggFunc::Max, AggFunc::Avg] {
            let expected = scalar_agg(func, &whole).unwrap().finish();
            let mut merged = AggState::new(func);
            for chunk in values.chunks(137) {
                let part = scalar_agg(func, &Column::from_i64(chunk.to_vec())).unwrap();
                merged.merge(&part).unwrap();
            }
            assert_eq!(merged.finish(), expected, "func {:?}", func);
        }
    }

    #[test]
    fn merge_rejects_mixed_functions() {
        let mut a = AggState::new(AggFunc::Sum);
        let b = AggState::new(AggFunc::Count);
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn grouped_agg_by_int_key() {
        let keys = Column::from_i64(vec![1, 2, 1, 3, 2, 1]);
        let vals = Column::from_i64(vec![10, 20, 30, 40, 50, 60]);
        let g = grouped_agg(AggFunc::Sum, &keys, &vals).unwrap();
        assert_eq!(g.len(), 3);
        assert_eq!(g.get(&GroupKey::I64(1)), Some(ScalarValue::I64(100)));
        assert_eq!(g.get(&GroupKey::I64(2)), Some(ScalarValue::I64(70)));
        assert_eq!(g.get(&GroupKey::I64(3)), Some(ScalarValue::I64(40)));
        assert_eq!(g.get(&GroupKey::I64(9)), None);
        assert!(g.byte_size() > 0);
    }

    #[test]
    fn grouped_agg_by_string_key_and_count() {
        let keys = Column::from_strings(["AIR", "RAIL", "AIR", "SHIP"]);
        let vals = Column::from_strings(["x", "y", "z", "w"]);
        let g = grouped_agg(AggFunc::Count, &keys, &vals).unwrap();
        assert_eq!(g.get(&GroupKey::Str("AIR".into())), Some(ScalarValue::I64(2)));
        assert_eq!(g.get(&GroupKey::Str("SHIP".into())), Some(ScalarValue::I64(1)));
        // Non-count aggregates over string values are rejected.
        assert!(grouped_agg(AggFunc::Sum, &keys, &vals).is_err());
        // Float group keys are rejected.
        let fkeys = Column::from_f64(vec![1.0]);
        let v = Column::from_i64(vec![1]);
        assert!(grouped_agg(AggFunc::Sum, &fkeys, &v).is_err());
    }

    #[test]
    fn grouped_merge_equals_whole() {
        let n = 2000;
        let keys: Vec<i64> = (0..n).map(|v| v % 17).collect();
        let vals: Vec<i64> = (0..n).map(|v| v * 3).collect();
        let whole = grouped_agg(
            AggFunc::Sum,
            &Column::from_i64(keys.clone()),
            &Column::from_i64(vals.clone()),
        )
        .unwrap();
        let mut parts = Vec::new();
        let kcol = Column::from_i64(keys);
        let vcol = Column::from_i64(vals);
        for (s, l) in [(0usize, 700usize), (700, 800), (1500, 500)] {
            parts.push(
                grouped_agg(AggFunc::Sum, &kcol.slice(s, l).unwrap(), &vcol.slice(s, l).unwrap())
                    .unwrap(),
            );
        }
        let merged = merge_grouped(&parts).unwrap();
        assert_eq!(merged.finish_sorted(), whole.finish_sorted());
    }

    #[test]
    fn grouped_errors() {
        let keys = Column::from_i64(vec![1, 2]);
        let vals = Column::from_i64(vec![1]);
        assert!(grouped_agg(AggFunc::Sum, &keys, &vals).is_err());
        assert!(merge_grouped(&[]).is_err());
        let mut a = GroupedAgg::new(AggFunc::Sum);
        let b = GroupedAgg::new(AggFunc::Count);
        assert!(a.merge(&b).is_err());
        assert!(a.is_empty());
    }

    #[test]
    fn group_key_display_and_order() {
        assert_eq!(GroupKey::I64(3).to_string(), "3");
        assert_eq!(GroupKey::Str("x".into()).to_string(), "x");
        assert!(GroupKey::I64(1) < GroupKey::I64(2));
        assert!(GroupKey::I64(1) < GroupKey::Str("a".into()));
    }
}
