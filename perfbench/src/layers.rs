//! Per-layer metrics of a traced run. Layers are named after the modules
//! they measure; each function adds one layer's metrics.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use apq_columnar::Catalog;
use apq_core::MutationKind;
use apq_engine::interpreter::execute_node;
use apq_engine::{Chunk, NodeId, Plan, QueryProfile, SchedulerStats, ServiceStats, SharingStats};
use apq_operators::{
    calc_col_col, fetch, grouped_agg, scalar_agg, select, AggFunc, BinaryOp, JoinHashTable,
    Predicate,
};
use apq_workloads::dates::days_from_civil;
use apq_workloads::tpch::TpchQuery;

use crate::trace::{mean, median, ms, ratio, Tracer};
use crate::workload::{Adaptive, Executed, Headline, Phase, Query, SetUp, CONVERGE_EPISODES};
use crate::Metrics;

/// Every name `OperatorSpec::name` can return: the interpreter layer
/// reports one time per name.
pub const OPERATOR_NAMES: [&str; 19] = [
    "scan",
    "slice",
    "select",
    "predmask",
    "ifthenelse",
    "fetch",
    "hashbuild",
    "join",
    "semijoin",
    "antijoin",
    "projectside",
    "asoids",
    "calc",
    "aggregate",
    "finalizeagg",
    "groupby",
    "mergegroup",
    "union",
    "calcscalar",
];

/// Kernel repetitions; `ns_per_row` is their median.
const KERNEL_REPS: usize = 5;
/// Interpreter replay passes; the layer reports medians over them.
const REPLAY_PASSES: usize = CONVERGE_EPISODES;

pub fn query_labels() -> Vec<String> {
    TpchQuery::all().iter().map(|q| q.to_string()).collect()
}

/// `columnar`: data generation and catalog size.
pub fn columnar(m: &mut Metrics, setup: &SetUp) {
    m.put("columnar.generate_s", median(&setup.generate_s), "s");
    m.put("columnar.catalog_bytes", setup.catalog.byte_size() as f64, "bytes");
}

/// `operators`: each kernel called directly, single-threaded, on this
/// workload's lineitem/orders columns.
pub fn operators(m: &mut Metrics, catalog: &Catalog, tracer: &mut Tracer) {
    let col = |table: &str, name: &str| {
        catalog.table(table).and_then(|t| t.column_cloned(name)).expect("TPC-H column exists")
    };
    let shipdate = col("lineitem", "l_shipdate");
    let price = col("lineitem", "l_extendedprice");
    let discount = col("lineitem", "l_discount");
    let quantity = col("lineitem", "l_quantity");
    let l_orderkey = col("lineitem", "l_orderkey");
    let o_orderkey = col("orders", "o_orderkey");
    let in_1994 =
        Predicate::range(days_from_civil(1994, 1, 1) as i64, days_from_civil(1995, 1, 1) as i64);
    let selected = select(&shipdate, &in_1994).expect("select kernel");
    let table = JoinHashTable::build(&o_orderkey).expect("hash build kernel");

    let mut kernel = |name: &'static str, rows: usize, f: &mut dyn FnMut()| {
        let mut per_row = Vec::new();
        for rep in 0..KERNEL_REPS {
            let t0 = Instant::now();
            f();
            let t1 = Instant::now();
            tracer.record(name, rep as u64, 0, t0, t1);
            per_row.push((t1 - t0).as_nanos() as f64 / rows.max(1) as f64);
        }
        m.put(format!("{name}.ns_per_row"), median(&per_row), "ns/row");
    };
    kernel("operators.select", shipdate.len(), &mut || {
        black_box(select(black_box(&shipdate), &in_1994).expect("select kernel"));
    });
    kernel("operators.fetch", selected.len(), &mut || {
        black_box(fetch(black_box(&price), &selected).expect("fetch kernel"));
    });
    kernel("operators.join_build", o_orderkey.len(), &mut || {
        black_box(JoinHashTable::build(black_box(&o_orderkey)).expect("hash build kernel"));
    });
    kernel("operators.join_probe", l_orderkey.len(), &mut || {
        black_box(table.probe(black_box(&l_orderkey)).expect("probe kernel"));
    });
    kernel("operators.grouped_agg", quantity.len(), &mut || {
        black_box(
            grouped_agg(AggFunc::Sum, black_box(&quantity), &price).expect("group-by kernel"),
        );
    });
    kernel("operators.scalar_agg", price.len(), &mut || {
        black_box(scalar_agg(AggFunc::Sum, black_box(&price)).expect("aggregate kernel"));
    });
    kernel("operators.calc", price.len(), &mut || {
        black_box(calc_col_col(BinaryOp::Mul, black_box(&price), &discount).expect("calc kernel"));
    });
}

/// `interpreter`: each converged plan replayed with `execute_node` in
/// topological order on this thread, no scheduler; pass `p` replays
/// episode `p`'s plans. Returns `(attempted, failed)`.
pub fn interpreter(
    m: &mut Metrics,
    catalog: &Arc<Catalog>,
    episodes: &[Adaptive],
    refs: &[Query],
    tracer: &mut Tracer,
) -> (u64, u64) {
    let mut by_name: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut pass_ms = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for pass in 0..REPLAY_PASSES {
        let plans = &episodes[pass % episodes.len()].plans;
        let mut pass_by_name: HashMap<&'static str, f64> = HashMap::new();
        for (i, (plan, query)) in plans.iter().zip(refs).enumerate() {
            let request = (pass * plans.len() + i) as u64;
            let parent = tracer.open();
            let start = Instant::now();
            let output = replay(plan, catalog, request, parent, tracer, &mut pass_by_name);
            tracer.close(parent, "interpreter.plan", request, 0, start, Instant::now());
            attempted += 1;
            if output.is_none_or(|o| o != query.reference) {
                failed += 1;
            }
        }
        pass_ms.push(pass_by_name.values().sum());
        for name in OPERATOR_NAMES {
            by_name.entry(name).or_default().push(pass_by_name.get(name).copied().unwrap_or(0.0));
        }
    }
    for name in OPERATOR_NAMES {
        m.put(format!("interpreter.{name}.ms"), median(&by_name[name]), "ms");
    }
    m.put("interpreter.pass_ms", median(&pass_ms), "ms");
    (attempted, failed)
}

/// Runs one plan node by node; adds each node's time to `by_name`.
fn replay(
    plan: &Plan,
    catalog: &Arc<Catalog>,
    request: u64,
    parent: u64,
    tracer: &mut Tracer,
    by_name: &mut HashMap<&'static str, f64>,
) -> Option<apq_engine::QueryOutput> {
    let mut outputs: HashMap<NodeId, Chunk> = HashMap::new();
    for id in plan.topo_order().ok()? {
        let node = plan.node(id).ok()?;
        let inputs: Vec<Chunk> =
            node.inputs.iter().map(|i| outputs.get(i).cloned()).collect::<Option<_>>()?;
        let t0 = Instant::now();
        let chunk = execute_node(id, &node.spec, &inputs, catalog).ok()?;
        let t1 = Instant::now();
        tracer.record("interpreter.node", request, parent, t0, t1);
        *by_name.entry(node.spec.name()).or_default() += ms(t1 - t0);
        outputs.insert(id, chunk);
    }
    outputs.get(&plan.root()?).map(Chunk::to_output)
}

/// Longest chain of operator times through the plan DAG, microseconds.
fn critical_path_us(plan: &Plan, profile: &QueryProfile) -> f64 {
    let duration: HashMap<NodeId, u64> =
        profile.operators.iter().map(|o| (o.node, o.duration_us)).collect();
    let mut finish: HashMap<NodeId, u64> = HashMap::new();
    let mut longest = 0;
    for id in plan.topo_order().unwrap_or_default() {
        let ready = plan
            .node(id)
            .map(|n| n.inputs.iter().filter_map(|i| finish.get(i)).copied().max().unwrap_or(0))
            .unwrap_or(0);
        let done = ready + duration.get(&id).copied().unwrap_or(0);
        longest = longest.max(done);
        finish.insert(id, done);
    }
    longest as f64
}

/// Scheduler and sharing counters taken before and after a phase.
pub struct Counters {
    pub scheduler: SchedulerStats,
    pub sharing: SharingStats,
    pub service: Option<ServiceStats>,
}

/// `executor`, `scheduler` and `pipeline`: from the profiles of the
/// queries the phase executed, its process CPU time and the scheduler
/// counters around it.
pub fn executor(m: &mut Metrics, phase: &Phase, before: &Counters, after: &Counters) {
    let executed = &phase.executed;
    for (q, label) in query_labels().iter().enumerate() {
        let walls: Vec<f64> =
            executed.iter().filter(|e| e.query == q).map(|e| ms(e.profile.wall_time)).collect();
        m.put(format!("executor.{label}.wall_ms"), median(&walls), "ms");
    }
    let critical: Vec<f64> =
        executed.iter().map(|e| critical_path_us(&e.plan, &e.profile) / 1e3).collect();
    let overhead: Vec<f64> =
        executed.iter().zip(&critical).map(|(e, c)| ms(e.profile.wall_time) - c).collect();
    let per_query = |f: fn(&QueryProfile) -> f64| {
        mean(&executed.iter().map(|e| f(&e.profile)).collect::<Vec<_>>())
    };
    m.put("executor.critical_path_ms", mean(&critical), "ms");
    m.put("executor.overhead_ms", mean(&overhead), "ms");
    m.put("executor.queue_wait_ms", per_query(|p| p.total_queue_wait_us() as f64 / 1e3), "ms");
    m.put("executor.worker_busy_ms", per_query(|p| p.total_cpu_us() as f64 / 1e3), "ms");
    m.put("executor.cpu_ms", ratio(phase.cpu_ms, phase.calls as f64), "ms");

    let (s0, s1) = (&before.scheduler, &after.scheduler);
    let tasks = s1.total_executed().saturating_sub(s0.total_executed()) as f64;
    let local = s1.total_local_hits().saturating_sub(s0.total_local_hits()) as f64;
    m.put("scheduler.tasks", tasks, "count");
    m.put("scheduler.local_ratio", ratio(local, tasks), "ratio");
    m.put("scheduler.steals", s1.total_steals().saturating_sub(s0.total_steals()) as f64, "count");

    let total = |f: fn(&QueryProfile) -> f64| executed.iter().map(|e| f(&e.profile)).sum::<f64>();
    m.put("pipeline.morsels", total(|p| p.total_morsels() as f64), "count");
    m.put("pipeline.fused_steps", total(|p| p.pipelines.len() as f64), "count");
    m.put("pipeline.groupagg_fused", total(|p| p.fused_groupagg_pipelines() as f64), "count");
}

/// `sharing`: the engine's sharing counters over the phase.
pub fn sharing(m: &mut Metrics, before: &Counters, after: &Counters) {
    let (a, b) = (&before.sharing, &after.sharing);
    let shared = b.morsels_shared.saturating_sub(a.morsels_shared) as f64;
    let private = b.morsels_private.saturating_sub(a.morsels_private) as f64;
    m.put("sharing.morsels_shared", shared, "count");
    m.put("sharing.morsels_private", private, "count");
    m.put(
        "sharing.partials_reused",
        b.partials_reused.saturating_sub(a.partials_reused) as f64,
        "count",
    );
    m.put(
        "sharing.partials_stored",
        b.partials_stored.saturating_sub(a.partials_stored) as f64,
        "count",
    );
    m.put("sharing.shared_ratio", ratio(shared, shared + private), "ratio");
}

/// `service`: cache ratios and response splits over the phase (all 0 when
/// the workload bypasses the service).
pub fn service(m: &mut Metrics, phase: &Phase, before: &Counters, after: &Counters) {
    let default = ServiceStats::default();
    let a = before.service.as_ref().unwrap_or(&default);
    let b = after.service.as_ref().unwrap_or(&default);
    let delta = |f: fn(&ServiceStats) -> u64| f(b).saturating_sub(f(a)) as f64;
    let hits = delta(|s| s.result_cache_hits);
    let plan_hits = delta(|s| s.plan_cache_hits);
    m.put(
        "service.result_hit_ratio",
        ratio(hits, hits + delta(|s| s.result_cache_misses)),
        "ratio",
    );
    m.put(
        "service.plan_hit_ratio",
        ratio(plan_hits, plan_hits + delta(|s| s.plan_cache_misses)),
        "ratio",
    );
    // Only service responses carry a profile on a miss; engine executions
    // are not service misses.
    let misses: &[Executed] = if before.service.is_some() { &phase.executed } else { &[] };
    let miss_ms: Vec<f64> = misses.iter().map(|e| e.latency_ms).collect();
    let overhead: Vec<f64> =
        misses.iter().map(|e| e.latency_ms - ms(e.profile.wall_time)).collect();
    m.put("service.hit_us.p50", median(phase.hit_us.values()), "us");
    m.put("service.miss_ms.p50", median(&miss_ms), "ms");
    m.put("service.overhead_ms", median(&overhead), "ms");
    m.put("service.shed", delta(|s| s.shed), "count");
    m.put("service.timed_out", delta(|s| s.timed_out), "count");
    m.put("service.results_invalidated", delta(|s| s.results_invalidated), "count");
}

/// `core`: medians over the convergence episodes of each episode's
/// figures, and the serial / HP / AP timings.
pub fn core(m: &mut Metrics, episodes: &[Adaptive], headline: &[Headline]) {
    let per_episode: Vec<Metrics> = episodes.iter().map(episode).collect();
    for (i, (name, _, unit)) in per_episode[0].0.iter().enumerate() {
        let values: Vec<f64> = per_episode.iter().map(|e| e.0[i].1).collect();
        m.put(name.clone(), median(&values), unit);
    }
    for (label, h) in query_labels().iter().zip(headline) {
        m.put(format!("core.speedup_vs_serial.{label}"), ratio(h.serial_ms, h.ap_ms), "x");
        m.put(format!("core.ap_over_hp.{label}"), ratio(h.ap_ms, h.hp_ms), "x");
    }
}

fn episode(adaptive: &Adaptive) -> Metrics {
    let mut m = Metrics::default();
    let reports: Vec<_> = adaptive.reports.iter().flatten().collect();
    let exec_s: f64 =
        reports.iter().flat_map(|r| &r.records).map(|rec| rec.exec_us as f64 / 1e6).sum();
    m.put("core.converge_s", adaptive.converge_s, "s");
    m.put("core.converge_exec_s", exec_s, "s");
    m.put("core.optimizer_ms", (adaptive.converge_s - exec_s) * 1e3, "ms");
    for (label, report) in query_labels().iter().zip(&adaptive.reports) {
        let runs = report.as_ref().map_or(0, |r| r.total_runs);
        m.put(format!("core.runs.{label}"), runs as f64, "count");
    }
    let mut mutations: BTreeMap<&str, f64> =
        [("basic", 0.0), ("medium", 0.0), ("advanced", 0.0)].into_iter().collect();
    for kind in reports.iter().flat_map(|r| &r.records).filter_map(|rec| rec.mutation) {
        let name = match kind {
            MutationKind::Basic => "basic",
            MutationKind::Medium => "medium",
            MutationKind::Advanced => "advanced",
        };
        *mutations.get_mut(name).expect("all kinds listed") += 1.0;
    }
    for (name, count) in mutations {
        m.put(format!("core.mutations.{name}"), count, "count");
    }
    let nodes: usize = reports.iter().map(|r| r.best_plan.node_count()).sum();
    m.put("core.best_plan_nodes", nodes as f64, "count");
    let by_balance = reports.iter().filter(|r| r.converged_by_balance).count();
    m.put("core.converged_by_balance", by_balance as f64, "count");
    m
}

/// Tracing overhead: median call latency of the traced phase over that of
/// the untraced phase run just before it, minus one, in percent.
pub fn trace_overhead(m: &mut Metrics, untraced: &Phase, traced: &Phase, spans: (usize, u64)) {
    let base = median(untraced.latency_ms.values());
    let with = median(traced.latency_ms.values());
    m.put("trace.overhead_pct", ratio(with - base, base) * 100.0, "%");
    m.put("trace.spans", (spans.0 as u64 + spans.1) as f64, "count");
}
