//! Hot-path microbenchmark for the zero-copy stream views: slice + union
//! throughput of windowed `Chunk::Oids` / `Chunk::Join` streams against a
//! materializing reference (the pre-view engine behaviour: `to_vec` per cut,
//! owned-clone-then-pack per union part), plus morsel-mode TPC-H Q6/Q14 wall
//! times on the engine as built.
//!
//! The `groupagg_q1_style` section times a TPC-H Q1-style grouped aggregate
//! executed as a fused pipeline terminal (morsel mode) vs unfused
//! (operator-at-a-time). Both engines run the work-stealing scheduler with
//! the same worker count, so this comparison and the TPC-H one differ only
//! in the execution mode.
//!
//! The `hotpath` binary writes the results as `BENCH_hotpath.json` at the
//! repository root — the before/after trajectory record the ROADMAP asks
//! for. CI runs it in `--smoke` mode so the binary never rots; real numbers
//! come from the default (full) mode.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use apq_columnar::partition::RowRange;
use apq_columnar::{Catalog, Oid};
use apq_engine::interpreter::execute_node;
use apq_engine::plan::{OperatorSpec, Plan};
use apq_engine::{Chunk, Engine, EngineConfig, ExecutionMode, SchedulerPolicy};
use apq_operators::{AggFunc, JoinResult};
use apq_workloads::tpch::{self, TpchQuery, TpchScale};

use crate::common::time_plan_ms;

/// Sizing knobs for one run.
#[derive(Debug, Clone, Copy)]
pub struct HotpathConfig {
    /// Candidate-stream length for the slice/union microbench.
    pub stream_rows: usize,
    /// Morsel width the stream is cut into.
    pub morsel_rows: usize,
    /// Timed slice+union round trips per path.
    pub iters: usize,
    /// TPC-H scale factor for the wall-time section.
    pub tpch_sf: f64,
    /// Wall-time repetitions (minimum is reported).
    pub reps: usize,
    /// Workers for the TPC-H section.
    pub workers: usize,
    /// Label recorded in the JSON (`"full"` / `"smoke"`).
    pub mode: &'static str,
}

impl HotpathConfig {
    /// Full-size run: minutes-scale, produces the recorded numbers.
    pub fn full() -> Self {
        HotpathConfig {
            stream_rows: 4_000_000,
            morsel_rows: 64 * 1024,
            iters: 40,
            tpch_sf: 0.02,
            reps: 9,
            workers: 4,
            mode: "full",
        }
    }

    /// Seconds-scale run for CI smoke and unit tests.
    pub fn smoke() -> Self {
        HotpathConfig {
            stream_rows: 200_000,
            morsel_rows: 16 * 1024,
            iters: 4,
            tpch_sf: 0.002,
            reps: 2,
            workers: 2,
            mode: "smoke",
        }
    }
}

/// One slice+union round trip through the engine's interpreter: cut the
/// stream into its morsel grid with `SlicePart`, recombine with
/// `ExchangeUnion`. With windowed views every cut is window arithmetic and
/// the recombination is the widening fast path.
fn windowed_round_trip(cat: &Catalog, stream: &Chunk, morsel: usize) -> Chunk {
    let rows = stream.rows();
    let n = rows.div_ceil(morsel).max(1);
    let parts: Vec<Chunk> = (0..n)
        .map(|i| {
            execute_node(
                0,
                &OperatorSpec::SlicePart { start: i * morsel, len: morsel },
                std::slice::from_ref(stream),
                cat,
            )
            .expect("slice")
        })
        .collect();
    execute_node(1, &OperatorSpec::ExchangeUnion, &parts, cat).expect("union")
}

/// The materializing reference for an oid stream — what the engine did
/// before the view rewrite: every cut copies its window out
/// (`oids[start..end].to_vec()`), and the union clones each part once more
/// before packing (the `as_ref().clone()` the fallback path used to do).
fn materializing_oids_round_trip(oids: &Arc<Vec<Oid>>, morsel: usize) -> Vec<Oid> {
    let rows = oids.len();
    let n = rows.div_ceil(morsel).max(1);
    let parts: Vec<(Vec<Oid>, Oid)> = (0..n)
        .map(|i| {
            let start = (i * morsel).min(rows);
            let end = (start + morsel).min(rows);
            (oids[start..end].to_vec(), start as Oid)
        })
        .collect();
    let owned: Vec<Vec<Oid>> = parts.iter().map(|(p, _)| p.clone()).collect();
    apq_operators::pack_oids(&owned)
}

/// Materializing reference for a join stream: windowed pair copies per cut,
/// owned `JoinResult` clones packed via `concat`.
fn materializing_join_round_trip(result: &Arc<JoinResult>, morsel: usize) -> JoinResult {
    let rows = result.len();
    let n = rows.div_ceil(morsel).max(1);
    let parts: Vec<JoinResult> = (0..n)
        .map(|i| {
            let start = (i * morsel).min(rows);
            let end = (start + morsel).min(rows);
            JoinResult {
                outer_oids: result.outer_oids[start..end].to_vec(),
                inner_oids: result.inner_oids[start..end].to_vec(),
            }
        })
        .collect();
    let owned: Vec<JoinResult> = parts.to_vec();
    JoinResult::concat(&owned)
}

/// Times `iters` runs of `f` (after one warmup), returning total
/// milliseconds.
fn time_ms<R>(iters: usize, mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    start.elapsed().as_secs_f64() * 1_000.0
}

fn fmt_ms(ms: f64) -> String {
    format!("{ms:.3}")
}

/// TPC-H Q1-style grouped aggregate: `SELECT l_tax, sum(l_extendedprice)
/// FROM lineitem GROUP BY l_tax`. Over range-aligned scans this fuses as a
/// pipeline terminal in morsel mode and runs unfused operator-at-a-time.
fn q1_style_group_plan(catalog: &Catalog) -> Plan {
    let rows = catalog.table("lineitem").expect("tpch lineitem").row_count();
    let mut p = Plan::new();
    let keys = p.add(
        OperatorSpec::ScanColumn {
            table: "lineitem".into(),
            column: "l_tax".into(),
            range: RowRange::new(0, rows),
        },
        vec![],
    );
    let values = p.add(
        OperatorSpec::ScanColumn {
            table: "lineitem".into(),
            column: "l_extendedprice".into(),
            range: RowRange::new(0, rows),
        },
        vec![],
    );
    let group = p.add(OperatorSpec::GroupAgg { func: AggFunc::Sum }, vec![keys, values]);
    let merge = p.add(OperatorSpec::MergeGrouped, vec![group]);
    p.set_root(merge);
    p
}

/// Runs the full benchmark, returning the report as a JSON string.
pub fn run(cfg: &HotpathConfig) -> String {
    // --- slice + union microbench -------------------------------------
    let cat = Catalog::new();
    let backing: Vec<Oid> = (0..cfg.stream_rows as Oid).collect();
    let oids_chunk = Chunk::oids(backing.clone());
    let oids_arc = Arc::new(backing);
    let join_backing = JoinResult {
        outer_oids: (0..cfg.stream_rows as Oid).collect(),
        inner_oids: (0..cfg.stream_rows as Oid).rev().collect(),
    };
    let join_chunk = Chunk::join(JoinResult {
        outer_oids: join_backing.outer_oids.clone(),
        inner_oids: join_backing.inner_oids.clone(),
    });
    let join_arc = Arc::new(join_backing);

    let oids_windowed =
        time_ms(cfg.iters, || windowed_round_trip(&cat, &oids_chunk, cfg.morsel_rows));
    let oids_materializing =
        time_ms(cfg.iters, || materializing_oids_round_trip(&oids_arc, cfg.morsel_rows));
    let join_windowed =
        time_ms(cfg.iters, || windowed_round_trip(&cat, &join_chunk, cfg.morsel_rows));
    let join_materializing =
        time_ms(cfg.iters, || materializing_join_round_trip(&join_arc, cfg.morsel_rows));

    // --- morsel-mode TPC-H wall times ---------------------------------
    let catalog = tpch::generate(TpchScale::new(cfg.tpch_sf), 1234);
    // Both engines share the scheduler and worker count, so each
    // comparison below changes only the execution mode.
    let base = EngineConfig::with_workers(cfg.workers)
        .with_scheduler(SchedulerPolicy::WorkStealing)
        .with_morsel_rows(cfg.morsel_rows);
    let oat = Engine::new(base.clone().with_execution_mode(ExecutionMode::OperatorAtATime));
    let morsel = Engine::new(base.with_execution_mode(ExecutionMode::MorselDriven));
    let tpch_rows: Vec<String> = [TpchQuery::Q6, TpchQuery::Q14]
        .iter()
        .map(|q| {
            let plan = q.build(&catalog).expect("TPC-H plan builds");
            let oat_ms = time_plan_ms(&oat, &catalog, &plan, cfg.reps);
            let morsel_ms = time_plan_ms(&morsel, &catalog, &plan, cfg.reps);
            format!(
                "    {{ \"query\": \"{q}\", \"operator_at_a_time_ms\": {}, \"morsel_ms\": {} }}",
                fmt_ms(oat_ms),
                fmt_ms(morsel_ms)
            )
        })
        .collect();

    // --- fused vs unfused GroupAgg ------------------------------------
    let group_plan = q1_style_group_plan(&catalog);
    let group_unfused = time_plan_ms(&oat, &catalog, &group_plan, cfg.reps);
    let group_fused = time_plan_ms(&morsel, &catalog, &group_plan, cfg.reps);

    format!(
        "{{\n  \"bench\": \"hotpath\",\n  \"mode\": \"{mode}\",\n  \"config\": {{ \"stream_rows\": {stream_rows}, \"morsel_rows\": {morsel_rows}, \"iters\": {iters}, \"tpch_sf\": {tpch_sf}, \"reps\": {reps}, \"workers\": {workers} }},\n  \"slice_union_microbench\": {{\n    \"oids\": {{ \"windowed_ms\": {ow}, \"materializing_ms\": {om}, \"speedup\": {os:.2} }},\n    \"join\": {{ \"windowed_ms\": {jw}, \"materializing_ms\": {jm}, \"speedup\": {js:.2} }}\n  }},\n  \"groupagg_q1_style\": {{ \"fused_ms\": {gf}, \"unfused_ms\": {gu} }},\n  \"tpch_morsel_wall_time\": [\n{tpch}\n  ]\n}}\n",
        mode = cfg.mode,
        stream_rows = cfg.stream_rows,
        morsel_rows = cfg.morsel_rows,
        iters = cfg.iters,
        tpch_sf = cfg.tpch_sf,
        reps = cfg.reps,
        workers = cfg.workers,
        ow = fmt_ms(oids_windowed),
        om = fmt_ms(oids_materializing),
        os = oids_materializing / oids_windowed.max(f64::EPSILON),
        jw = fmt_ms(join_windowed),
        jm = fmt_ms(join_materializing),
        js = join_materializing / join_windowed.max(f64::EPSILON),
        gf = fmt_ms(group_fused),
        gu = fmt_ms(group_unfused),
        tpch = tpch_rows.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_well_formed_report() {
        let json = run(&HotpathConfig::smoke());
        for key in [
            "\"bench\": \"hotpath\"",
            "\"mode\": \"smoke\"",
            "slice_union_microbench",
            "windowed_ms",
            "materializing_ms",
            "groupagg_q1_style",
            "fused_ms",
            "unfused_ms",
            "tpch_morsel_wall_time",
            "\"query\": \"Q6\"",
            "\"query\": \"Q14\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        // Balanced braces/brackets — cheap well-formedness check without a
        // JSON parser in the dependency set.
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
    }

    #[test]
    fn round_trips_agree() {
        let cat = Catalog::new();
        let oids: Vec<Oid> = (0..10_000).map(|v| v * 2 + 1).collect();
        let chunk = Chunk::oids(oids.clone());
        let via_engine = windowed_round_trip(&cat, &chunk, 1_024);
        let via_reference = materializing_oids_round_trip(&Arc::new(oids), 1_024);
        match via_engine {
            Chunk::Oids(v) => assert_eq!(v.as_slice(), &via_reference[..]),
            other => panic!("unexpected chunk kind {}", other.kind()),
        }
    }
}
