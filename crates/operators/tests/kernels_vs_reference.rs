//! Differential tests: the flat select, hash-join and group-by kernels
//! against the row-at-a-time reference kernels in `reference/`.
//!
//! Every property compares whole outputs, element order included: oid lists
//! in order, join pairs in outer-row order with each outer row's matches in
//! descending build-row order, and groups in first-occurrence order with
//! their partial states. Inputs cover empty and one-row columns, negative
//! keys and keys at `i64::MIN`/`i64::MAX`, key spans just below and just
//! above the direct-address threshold, duplicate build keys, probe keys
//! outside the build range, `Int32`/`Bool`/`Str` columns, windows with a
//! non-zero base oid, NaN and −0.0 floats, and candidates outside the
//! partition.

mod reference;

use apq_columnar::{Column, Oid, ScalarValue};
use apq_operators::{
    grouped_agg, select, select_with_candidates, AggFunc, CmpOp, JoinHashTable, Predicate,
};
use proptest::prelude::*;

/// Keys span this many values at most for a direct-addressed table of fewer
/// than 16,384 rows.
const DIRECT_MIN_SPAN: i64 = 1 << 16;

/// Reshapes small raw keys into one of several key families.
fn shape_keys(raw: &[i64], family: u8) -> Vec<i64> {
    match family % 7 {
        // Small dense range, with negatives.
        0 => raw.to_vec(),
        // Spans exactly the direct-address limit: `[0, DIRECT_MIN_SPAN - 1]`.
        1 => with_ends(raw, 0, DIRECT_MIN_SPAN - 1),
        // One past the limit: hashed.
        2 => with_ends(raw, 0, DIRECT_MIN_SPAN),
        // Near `i64::MAX`.
        3 => raw.iter().map(|&k| i64::MAX - k.abs()).collect(),
        // Near `i64::MIN`.
        4 => raw.iter().map(|&k| i64::MIN + k.abs()).collect(),
        // Both extremes at once: the widest possible span.
        5 => raw
            .iter()
            .map(|&k| if k % 2 == 0 { i64::MIN + k.abs() } else { i64::MAX - k.abs() })
            .collect(),
        // Sparse: a multiplicative spread over the whole domain.
        _ => raw.iter().map(|&k| k.wrapping_mul(0x9E37_79B9_7F4A_7C15_u64 as i64)).collect(),
    }
}

/// `raw` shifted into `[lo, hi]` with both ends present (for a non-empty input).
fn with_ends(raw: &[i64], lo: i64, hi: i64) -> Vec<i64> {
    let mut keys: Vec<i64> = raw.iter().map(|&k| lo + k.rem_euclid(hi - lo + 1)).collect();
    if let Some(first) = keys.first_mut() {
        *first = lo;
    }
    if let Some(last) = keys.last_mut() {
        *last = hi;
    }
    keys
}

/// A window of `values` starting at `skip` (so its base oid is `skip`).
fn window(column: Column, skip: usize) -> Column {
    let skip = skip.min(column.len());
    let len = column.len() - skip;
    column.slice(skip, len).unwrap()
}

fn i64_column(values: Vec<i64>, as_i32: bool) -> Column {
    if as_i32 {
        Column::from_i32(values.into_iter().map(|v| v as i32).collect())
    } else {
        Column::from_i64(values)
    }
}

fn predicates_i64(a: i64, b: i64) -> Vec<Predicate> {
    let (lo, hi) = (a.min(b), a.max(b));
    let mut out: Vec<Predicate> =
        [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge]
            .into_iter()
            .map(|op| Predicate::cmp(op, a))
            .collect();
    for (lo_inclusive, hi_inclusive) in [(true, true), (true, false), (false, true), (false, false)]
    {
        out.push(Predicate::Between {
            lo: ScalarValue::I64(lo),
            hi: ScalarValue::I64(hi),
            lo_inclusive,
            hi_inclusive,
        });
    }
    out.push(Predicate::InI64(vec![a, b, i64::MIN, i64::MAX]));
    out.push(Predicate::cmp(CmpOp::Gt, a).and(Predicate::cmp(CmpOp::Lt, b)));
    out.push(Predicate::cmp(CmpOp::Eq, a).or(Predicate::cmp(CmpOp::Eq, b)));
    out.push(Predicate::cmp(CmpOp::Le, a).negate());
    out
}

/// Candidate oids: in and around `[base, base + len)`, unsorted, with repeats.
fn candidates(raw: &[usize], base: Oid, len: usize) -> Vec<Oid> {
    raw.iter().map(|&r| (base + (r % (len + 8)) as Oid).saturating_sub(4)).collect()
}

fn check_select(column: &Column, predicate: &Predicate, cands: &[Oid]) {
    assert_eq!(
        select(column, predicate),
        reference::select(column, predicate),
        "select {}",
        predicate.describe()
    );
    assert_eq!(
        select_with_candidates(column, predicate, cands),
        reference::select_with_candidates(column, predicate, cands),
        "select_with_candidates {}",
        predicate.describe()
    );
}

fn check_join(inner: &Column, outer: &Column) {
    let flat = JoinHashTable::build(inner).unwrap();
    let chained = reference::ChainedTable::build(inner).unwrap();
    assert_eq!(flat.probe(outer), chained.probe(outer));
    assert_eq!(flat.probe_semi(outer), chained.probe_semi(outer));
    let oids: Vec<Oid> = (0..outer.len() as Oid).map(|i| 1000 + 3 * i).collect();
    assert_eq!(flat.probe_with_oids(outer, &oids), chained.probe_with_oids(outer, &oids));
    for key in [0, -1, i64::MIN, i64::MAX] {
        let expected = chained.probe(&Column::from_i64(vec![key])).unwrap().inner_oids;
        assert_eq!(flat.lookup(key), expected, "lookup {key}");
    }
}

fn check_grouped(keys: &Column, values: &Column) {
    for func in [AggFunc::Sum, AggFunc::Count, AggFunc::Min, AggFunc::Max, AggFunc::Avg] {
        let flat = grouped_agg(func, keys, values)
            .map(|g| g.groups().map(|(k, s)| (k.clone(), s.clone())).collect::<Vec<_>>());
        assert_eq!(flat, reference::grouped_agg(func, keys, values), "func {func:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Integer selects, whole-column and candidate flavours, on `Int64` and
    /// `Int32` windows.
    #[test]
    fn select_matches_reference_on_integers(raw in prop::collection::vec(-50i64..50, 0..300),
                                            family in 0u8..7,
                                            ab in (-60i64..60, -60i64..60),
                                            skip_i32 in (0usize..40, 0u8..2),
                                            cands in prop::collection::vec(0usize..400, 0..80)) {
        let ((a, b), (skip, as_i32)) = (ab, skip_i32);
        let as_i32 = as_i32 == 1 && family == 0;
        let values = shape_keys(&raw, family);
        let (a, b) = if family == 0 { (a, b) } else {
            let pick = |x: i64| values.get(x.unsigned_abs() as usize % values.len().max(1)).copied().unwrap_or(x);
            (pick(a), pick(b))
        };
        let column = window(i64_column(values, as_i32), skip);
        let cands = candidates(&cands, column.base_oid(), column.len());
        for predicate in predicates_i64(a, b) {
            check_select(&column, &predicate, &cands);
        }
    }

    /// Float selects over NaN, −0.0, 0.0 and infinities.
    #[test]
    fn select_matches_reference_on_floats(raw in prop::collection::vec((0usize..8, -4.0f64..4.0), 0..200),
                                          ab in (0usize..8, 0usize..8),
                                          skip in 0usize..20,
                                          cands in prop::collection::vec(0usize..300, 0..60)) {
        let (a, b) = ab;
        let special = [f64::NAN, -0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY, 1.5, -1.5, 0.25];
        let values: Vec<f64> =
            raw.iter().map(|&(pick, x)| if pick < 5 { special[pick] } else { x }).collect();
        let column = window(Column::from_f64(values), skip);
        let cands = candidates(&cands, column.base_oid(), column.len());
        let (a, b) = (special[a], special[b]);
        let mut predicates: Vec<Predicate> =
            [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge]
                .into_iter()
                .map(|op| Predicate::cmp(op, a))
                .collect();
        for (lo_inclusive, hi_inclusive) in [(true, true), (true, false), (false, true), (false, false)] {
            predicates.push(Predicate::Between {
                lo: ScalarValue::F64(a),
                hi: ScalarValue::F64(b),
                lo_inclusive,
                hi_inclusive,
            });
        }
        predicates.push(Predicate::cmp(CmpOp::Ge, a).and(Predicate::cmp(CmpOp::Le, b)).negate());
        for predicate in predicates {
            check_select(&column, &predicate, &cands);
        }
    }

    /// String and boolean selects, plus type mismatches (which must fail
    /// the same way).
    #[test]
    fn select_matches_reference_on_strings_and_bools(raw in prop::collection::vec(0usize..5, 0..200),
                                                     skip in 0usize..20,
                                                     cands in prop::collection::vec(0usize..300, 0..60)) {
        let words = ["AIR", "RAIL", "SHIP", "PROMO BRUSHED", "TRUCK"];
        let strings = window(Column::from_strings(raw.iter().map(|&i| words[i])), skip);
        let bools = window(Column::from_bool(raw.iter().map(|&i| i % 2 == 0).collect()), skip);
        let cands = candidates(&cands, strings.base_oid(), strings.len());
        for predicate in [
            Predicate::cmp(CmpOp::Eq, "RAIL"),
            Predicate::cmp(CmpOp::Lt, "RAIL"),
            Predicate::like("PROMO%"),
            Predicate::InStr(vec!["AIR".into(), "TRUCK".into()]),
            Predicate::like("%AI%").or(Predicate::cmp(CmpOp::Eq, "SHIP")),
            Predicate::cmp(CmpOp::Eq, 1i64),
        ] {
            check_select(&strings, &predicate, &cands);
        }
        for predicate in [
            Predicate::IsTrue,
            Predicate::cmp(CmpOp::Eq, false),
            Predicate::IsTrue.negate(),
            Predicate::cmp(CmpOp::Lt, 1i64),
        ] {
            check_select(&bools, &predicate, &cands);
        }
    }

    /// Probe, semi-probe, explicit-oid probe and lookup over every key family.
    #[test]
    fn join_matches_reference(inner_raw in prop::collection::vec(-40i64..40, 0..200),
                              outer_raw in prop::collection::vec(-60i64..60, 0..300),
                              family in 0u8..7,
                              skips in (0usize..30, 0usize..30),
                              as_i32 in 0u8..2) {
        let (inner_skip, outer_skip) = skips;
        let as_i32 = as_i32 == 1 && family == 0;
        let inner = window(i64_column(shape_keys(&inner_raw, family), as_i32), inner_skip);
        // Outer keys from the same family: hits, duplicates and keys outside
        // the build range alike.
        let outer = window(i64_column(shape_keys(&outer_raw, family), as_i32), outer_skip);
        check_join(&inner, &outer);
    }

    /// Grouped aggregation over every key family and key/value type.
    #[test]
    fn grouped_agg_matches_reference(rows in prop::collection::vec((-30i64..30, -1000i64..1000), 0..300),
                                     family in 0u8..7,
                                     key_type in 0u8..4,
                                     value_type in 0u8..5,
                                     skip in 0usize..30) {
        let raw: Vec<i64> = rows.iter().map(|r| r.0).collect();
        let vals: Vec<i64> = rows.iter().map(|r| r.1).collect();
        let keys = match key_type {
            0 => Column::from_i64(shape_keys(&raw, family)),
            1 => Column::from_i32(raw.iter().map(|&k| k as i32 * 1000).collect()),
            2 => Column::from_bool(raw.iter().map(|&k| k > 0).collect()),
            _ => Column::from_strings(raw.iter().map(|k| format!("k{}", k.rem_euclid(7)))),
        };
        let values = match value_type {
            0 => Column::from_i64(vals),
            1 => Column::from_i32(vals.iter().map(|&v| v as i32).collect()),
            2 => Column::from_f64(vals.iter().map(|&v| v as f64 / 7.0).collect()),
            3 => Column::from_bool(vals.iter().map(|&v| v % 3 == 0).collect()),
            _ => Column::from_strings(vals.iter().map(|v| format!("v{}", v % 5))),
        };
        check_grouped(&window(keys, skip), &window(values, skip));
    }
}

#[test]
fn join_at_the_direct_address_threshold_for_large_builds() {
    // 20,000 build rows allow a span of 80,000 keys: one more is hashed.
    for span in [80_000i64, 80_001] {
        let mut keys: Vec<i64> = (0..20_000).map(|i| (i * 7919) % span).collect();
        keys[0] = 0;
        keys[19_999] = span - 1;
        keys[10] = keys[11];
        let inner = Column::from_i64(keys);
        let outer = Column::from_i64((-5..span + 5).step_by(3).collect());
        check_join(&inner, &outer);
    }
}

#[test]
fn grouped_agg_on_high_cardinality_sparse_keys() {
    // More distinct keys than the flat table's initial capacity, spread over
    // the whole domain: exercises growth and probing of the hashed map.
    let keys: Vec<i64> = (0..5_000)
        .map(|i: i64| (i % 3_000).wrapping_mul(0x9E37_79B9_7F4A_7C15_u64 as i64))
        .collect();
    let values: Vec<i64> = (0..5_000).collect();
    check_grouped(&Column::from_i64(keys), &Column::from_i64(values));
}

#[test]
fn string_groups_with_duplicate_dictionary_entries_merge() {
    use std::sync::Arc;

    use apq_columnar::strings::StringColumn;

    // Codes 0 and 2 both spell "a": they must form one group, as the
    // per-row `GroupKey` reference does.
    let dict = Arc::new(vec!["a".to_string(), "b".to_string(), "a".to_string()]);
    let keys = Column::from_string_column(StringColumn::from_codes(vec![0, 1, 2, 2, 0], dict));
    let values = Column::from_i64(vec![1, 2, 3, 4, 5]);
    check_grouped(&keys, &values);
    assert_eq!(grouped_agg(AggFunc::Sum, &keys, &values).unwrap().len(), 2);
}

#[test]
fn empty_and_one_row_inputs() {
    for column in [Column::from_i64(vec![]), Column::from_i64(vec![i64::MIN])] {
        check_join(&column, &column);
        check_join(&column, &Column::from_i64(vec![i64::MAX, i64::MIN, 0]));
        check_grouped(&column, &column);
        for predicate in predicates_i64(i64::MIN, i64::MAX) {
            check_select(&column, &predicate, &[0, 1, 2]);
        }
    }
}
