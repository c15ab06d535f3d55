//! The three workloads: set-up, working sets and their reference outputs,
//! the adaptive phase, and the closed-loop timed phases.

use std::sync::Arc;
use std::time::{Duration, Instant};

use apq_baselines::heuristic_parallelize;
use apq_columnar::Catalog;
use apq_core::{AdaptiveConfig, AdaptiveOptimizer, AdaptiveReport};
use apq_engine::{
    Engine, EngineConfig, ExecutionMode, Plan, QueryOutput, QueryProfile, QueryService,
    SchedulerPolicy, ServiceConfig,
};
use apq_operators::{AggFunc, BinaryOp, CmpOp, Predicate};
use apq_workloads::dates::days_from_civil;
use apq_workloads::tpch::{self, queries::q06_with_quantity, TpchQuery, TpchScale};
use apq_workloads::PlanBuilder;

use crate::trace::{median, ms, process_cpu_ms, Rng, Tracer};

/// TPC-H scale factor of every workload.
pub const SCALE_FACTOR: f64 = 0.2;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// `service_refresh`: client 0 calls `invalidate_table("lineitem")` before
/// every this-many-th submission of its own.
pub const INVALIDATE_EVERY: u64 = 32;
/// `service_hot`: each client spins this long between a reply and its next
/// submission. Without it the two clients collide on the service's locks
/// at microsecond granularity and qps spread 0.3 from run to run.
pub const HOT_THINK: Duration = Duration::from_micros(20);
/// `service_refresh`: Q6 (shipdate year × quantity threshold) variants in
/// the working set, drawn from the seed.
pub const REFRESH_VARIANTS: usize = 300;
/// Convergence episodes per run: every run converges the 7 TPC-H queries
/// this many times; `converge_runs` is the median episode and the timed
/// passes of `tpch_adaptive` rotate over the episodes' plans.
pub const CONVERGE_EPISODES: usize = 3;
/// Interleaved repetitions of the serial / HP / AP timing in a traced run.
pub const HEADLINE_REPS: usize = 6;
/// Segments of the service workloads' untraced timed phase, each on a
/// fresh service.
pub const SERVICE_SEGMENTS: usize = 4;
/// Calls in one pass: the 7 TPC-H queries on `tpch_adaptive`, and as many
/// consecutive submissions of one client on the service workloads.
pub const PASS_LEN: usize = 7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TpchAdaptive,
    ServiceHot,
    ServiceRefresh,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::TpchAdaptive, Workload::ServiceHot, Workload::ServiceRefresh];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TpchAdaptive => "tpch_adaptive",
            Workload::ServiceHot => "service_hot",
            Workload::ServiceRefresh => "service_refresh",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Engine workers (and service clients) for this host.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The OAT engine of `tpch_adaptive` and of every adaptive phase:
/// operator-at-a-time, global queue (both the engine defaults).
pub fn oat_config(workers: usize) -> EngineConfig {
    EngineConfig::with_workers(workers)
}

/// The service of `service_hot` and `service_refresh`: morsel-driven,
/// work-stealing, shared scans on, default cache capacities.
pub fn service_config(workers: usize) -> ServiceConfig {
    ServiceConfig::with_engine(
        EngineConfig::with_workers(workers)
            .with_execution_mode(ExecutionMode::MorselDriven)
            .with_scheduler(SchedulerPolicy::WorkStealing),
    )
    .with_shared_scans(true)
}

/// What the clients call: the engine or the service.
pub enum Front {
    Engine(Box<Engine>),
    Service(QueryService),
}

impl Front {
    pub fn engine(&self) -> &Engine {
        match self {
            Front::Engine(engine) => engine,
            Front::Service(service) => service.engine(),
        }
    }
}

pub struct SetUp {
    pub catalog: Arc<Catalog>,
    pub front: Front,
    /// Data generation plus engine/service start, one entry per set-up.
    pub setup_s: Vec<f64>,
    /// Data generation alone, one entry per set-up.
    pub generate_s: Vec<f64>,
}

/// Starts the workload's engine or service over `catalog`.
pub fn start_front(workload: Workload, catalog: &Arc<Catalog>, workers: usize) -> Front {
    match workload {
        Workload::TpchAdaptive => Front::Engine(Box::new(Engine::new(oat_config(workers)))),
        _ => Front::Service(QueryService::new(service_config(workers), catalog.clone())),
    }
}

/// Sets the workload up `reps` times and keeps the last one. The previous
/// catalog and front are dropped before the next generation starts, so the
/// peak memory holds one copy.
pub fn set_up(workload: Workload, sf: f64, seed: u64, workers: usize, reps: usize) -> SetUp {
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let start = Instant::now();
        let catalog = tpch::generate(TpchScale::new(sf), seed);
        let generated = Instant::now();
        let front = start_front(workload, &catalog, workers);
        let started = Instant::now();
        generate_s.push((generated - start).as_secs_f64());
        setup_s.push((started - start).as_secs_f64());
        last = Some((catalog, front));
    }
    let (catalog, front) = last.expect("at least one set-up ran");
    SetUp { catalog, front, setup_s, generate_s }
}

/// A plan of the working set with the output every execution must match.
pub struct Query {
    pub plan: Arc<Plan>,
    pub reference: QueryOutput,
}

/// Q6 with a shipdate year and a quantity threshold as parameters.
pub fn q06_year_quantity(catalog: &Catalog, year: i32, quantity: i64) -> apq_engine::Result<Plan> {
    let mut b = PlanBuilder::new(catalog);
    let ship = b.scan("lineitem", "l_shipdate")?;
    let in_year = b.select(
        ship,
        Predicate::range(
            days_from_civil(year, 1, 1) as i64,
            days_from_civil(year + 1, 1, 1) as i64,
        ),
    );
    let disc = b.scan("lineitem", "l_discount")?;
    let disc_band = b.select_with(disc, in_year, Predicate::between(5i64, 7i64));
    let qty = b.scan("lineitem", "l_quantity")?;
    let selected = b.select_with(qty, disc_band, Predicate::cmp(CmpOp::Lt, quantity));
    let price = b.scan("lineitem", "l_extendedprice")?;
    let price_f = b.fetch(selected, price);
    let disc_f = b.fetch(selected, disc);
    let revenue = b.calc(BinaryOp::Mul, price_f, disc_f);
    let total = b.scalar_agg(AggFunc::Sum, revenue);
    b.finish(total)
}

/// The workload's plans: the 7 TPC-H queries first, then the Q6 variants
/// of the service workloads.
pub fn working_set(workload: Workload, catalog: &Catalog, rng: &mut Rng) -> Vec<(String, Plan)> {
    const BUILDS: &str = "TPC-H plans build over the generated catalog";
    let mut plans: Vec<(String, Plan)> =
        TpchQuery::all().iter().map(|q| (q.to_string(), q.build(catalog).expect(BUILDS))).collect();
    match workload {
        Workload::TpchAdaptive => {}
        Workload::ServiceHot => {
            // 52 quantity thresholds; 24 is Q6 itself.
            for quantity in (1..=53).filter(|&q| q != 24) {
                let plan = q06_with_quantity(catalog, quantity).expect(BUILDS);
                plans.push((format!("Q6.qty{quantity}"), plan));
            }
        }
        Workload::ServiceRefresh => {
            let mut grid: Vec<(i32, i64)> = (1992..=1998)
                .flat_map(|year| (1..=50).map(move |quantity| (year, quantity)))
                .filter(|&point| point != (1994, 24))
                .collect();
            rng.shuffle(&mut grid);
            for (year, quantity) in grid.into_iter().take(REFRESH_VARIANTS) {
                let plan = q06_year_quantity(catalog, year, quantity).expect(BUILDS);
                plans.push((format!("Q6.{year}.qty{quantity}"), plan));
            }
        }
    }
    plans
}

/// Reference outputs: every plan in its serial form on a 1-worker OAT
/// engine. This reference runs the same kernels as the engine under test;
/// it catches driver, scheduler, mutation and cache faults, not kernel
/// faults. A failed reference execution yields an output no run matches.
pub fn with_references(plans: Vec<(String, Plan)>, catalog: &Arc<Catalog>) -> Vec<Query> {
    let engine = Engine::new(oat_config(1));
    plans
        .into_iter()
        .map(|(label, plan)| {
            let reference = match engine.execute(&plan, catalog) {
                Ok(exec) => exec.output,
                Err(e) => QueryOutput::Opaque(format!("reference of {label} failed: {e}")),
            };
            Query { plan: Arc::new(plan), reference }
        })
        .collect()
}

/// The 7 TPC-H queries converged once from their serial plans.
pub struct Adaptive {
    /// Converged plans (the serial plan where convergence failed).
    pub plans: Vec<Arc<Plan>>,
    pub reports: Vec<Option<AdaptiveReport>>,
    pub converge_s: f64,
    pub attempted: u64,
    pub failed: u64,
}

impl Adaptive {
    /// Adaptive runs summed over the queries.
    pub fn runs(&self) -> usize {
        self.reports.iter().flatten().map(|r| r.total_runs).sum()
    }
}

/// Converges every query of `fixed` on `engine`. The optimizer compares
/// every adaptive run's output with the serial run's (a mismatch fails the
/// query), and the serial output is compared with the reference.
pub fn converge(
    engine: &Engine,
    catalog: &Arc<Catalog>,
    fixed: &[Query],
    tracer: &mut Tracer,
) -> Adaptive {
    let config = AdaptiveConfig::for_cores(engine.n_workers()).with_verification();
    let optimizer = AdaptiveOptimizer::new(config);
    let mut out = Adaptive {
        plans: Vec::new(),
        reports: Vec::new(),
        converge_s: 0.0,
        attempted: 0,
        failed: 0,
    };
    let start = Instant::now();
    for (i, query) in fixed.iter().enumerate() {
        let t0 = Instant::now();
        let result = optimizer.optimize(engine, catalog, &query.plan);
        tracer.record("core.optimize", i as u64, 0, t0, Instant::now());
        out.attempted += 1;
        match result {
            Ok(report) => {
                if report.final_output != query.reference {
                    out.failed += 1;
                }
                out.plans.push(Arc::new(report.best_plan.clone()));
                out.reports.push(Some(report));
            }
            Err(_) => {
                out.failed += 1;
                out.plans.push(query.plan.clone());
                out.reports.push(None);
            }
        }
    }
    out.converge_s = start.elapsed().as_secs_f64();
    out
}

/// Serial, heuristic (HP) and converged (AP) time of one query: medians
/// over [`HEADLINE_REPS`] interleaved repetitions. Repetition `r` runs the
/// AP plan of convergence episode `r % episodes.len()`.
pub struct Headline {
    pub serial_ms: f64,
    pub hp_ms: f64,
    pub ap_ms: f64,
}

/// Times the serial, HP (at the engine's worker count) and AP plans of
/// every query. Returns the timings and `(attempted, failed)`.
pub fn headline(
    engine: &Engine,
    catalog: &Arc<Catalog>,
    fixed: &[Query],
    episodes: &[Adaptive],
    tracer: &mut Tracer,
) -> (Vec<Headline>, (u64, u64)) {
    let (mut attempted, mut failed) = (0, 0);
    let mut out = Vec::new();
    for (i, query) in fixed.iter().enumerate() {
        let hp = heuristic_parallelize(&query.plan, catalog, engine.n_workers())
            .map(Arc::new)
            .unwrap_or_else(|_| query.plan.clone());
        let mut times: [Vec<f64>; 3] = Default::default();
        for rep in 0..HEADLINE_REPS {
            let ap = &episodes[rep % episodes.len()].plans[i];
            for (v, plan) in [&query.plan, &hp, ap].into_iter().enumerate() {
                let t0 = Instant::now();
                let result = engine.execute_shared(plan, catalog);
                let t1 = Instant::now();
                tracer.record("executor.execute", i as u64, 0, t0, t1);
                attempted += 1;
                if !result.is_ok_and(|exec| exec.output == query.reference) {
                    failed += 1;
                }
                times[v].push(ms(t1 - t0));
            }
        }
        out.push(Headline {
            serial_ms: median(&times[0]),
            hp_ms: median(&times[1]),
            ap_ms: median(&times[2]),
        });
    }
    (out, (attempted, failed))
}

/// A query execution kept for the per-layer metrics (traced runs only).
pub struct Executed {
    /// Index into the queries the phase ran.
    pub query: usize,
    pub plan: Arc<Plan>,
    pub latency_ms: f64,
    pub profile: QueryProfile,
}

/// What a closed-loop phase measured. Latencies are kept in fixed-size
/// reservoirs, so the benchmark's own memory does not grow with the call
/// rate and `peak_rss_mb` stays the program's.
pub struct Phase {
    pub calls: u64,
    pub failed: u64,
    pub latency_ms: Reservoir,
    /// Summed latency of each run of [`PASS_LEN`] consecutive calls of one
    /// client.
    pub pass_ms: Reservoir,
    /// Latency of result-cache hits, microseconds.
    pub hit_us: Reservoir,
    pub executed: Vec<Executed>,
    pub wall_s: f64,
    /// Process CPU time spent during the phase.
    pub cpu_ms: f64,
    keep_profiles: bool,
    open_pass: (usize, f64),
}

impl Phase {
    pub fn new(seed: u64, keep_profiles: bool) -> Self {
        Phase {
            calls: 0,
            failed: 0,
            latency_ms: Reservoir::new(seed),
            pass_ms: Reservoir::new(seed ^ 1),
            hit_us: Reservoir::new(seed ^ 2),
            executed: Vec::new(),
            wall_s: 0.0,
            cpu_ms: 0.0,
            keep_profiles,
            open_pass: (0, 0.0),
        }
    }

    /// Records one call of this phase's client.
    pub fn observe(
        &mut self,
        query: usize,
        plan: &Arc<Plan>,
        latency: Duration,
        ok: bool,
        result_hit: bool,
        profile: Option<QueryProfile>,
    ) {
        let latency_ms = ms(latency);
        self.calls += 1;
        self.failed += u64::from(!ok);
        self.latency_ms.push(latency_ms);
        if result_hit {
            self.hit_us.push(latency_ms * 1e3);
        }
        if let Some(profile) = profile.filter(|_| self.keep_profiles) {
            self.executed.push(Executed { query, plan: plan.clone(), latency_ms, profile });
        }
        self.open_pass.0 += 1;
        self.open_pass.1 += latency_ms;
        if self.open_pass.0 == PASS_LEN {
            self.pass_ms.push(self.open_pass.1);
            self.open_pass = (0, 0.0);
        }
    }

    /// Adds another client's or segment's calls (an unfinished pass is
    /// dropped).
    pub fn merge(&mut self, other: Phase) {
        self.wall_s += other.wall_s;
        self.cpu_ms += other.cpu_ms;
        self.calls += other.calls;
        self.failed += other.failed;
        self.latency_ms.merge(other.latency_ms);
        self.pass_ms.merge(other.pass_ms);
        self.hit_us.merge(other.hit_us);
        self.executed.extend(other.executed);
    }
}

/// Uniform sample of at most [`RESERVOIR`] values of a stream (algorithm R,
/// seeded).
pub struct Reservoir {
    values: Vec<f64>,
    seen: u64,
    rng: Rng,
}

/// Values a reservoir keeps; percentiles of this many uniform draws are
/// well inside the run-to-run spread.
const RESERVOIR: usize = 50_000;

impl Reservoir {
    fn new(seed: u64) -> Self {
        Reservoir { values: Vec::new(), seen: 0, rng: Rng::new(seed) }
    }

    fn push(&mut self, value: f64) {
        self.seen += 1;
        if self.values.len() < RESERVOIR {
            self.values.push(value);
        } else {
            let slot = (self.rng.next_u64() % self.seen) as usize;
            if slot < RESERVOIR {
                self.values[slot] = value;
            }
        }
    }

    fn merge(&mut self, other: Reservoir) {
        self.seen += other.seen;
        self.values.extend(other.values);
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// `tpch_adaptive`: one client executes passes over the converged plans,
/// each pass over the next episode's plans in a freshly drawn order, until
/// `seconds` have passed; a started pass always completes.
pub fn engine_phase(
    engine: &Engine,
    catalog: &Arc<Catalog>,
    episodes: &[Adaptive],
    refs: &[Query],
    seconds: f64,
    rng: &mut Rng,
    tracer: &mut Tracer,
) -> Phase {
    let mut phase = Phase::new(rng.next_u64(), tracer.enabled());
    let mut order: Vec<usize> = (0..refs.len()).collect();
    let cpu0 = process_cpu_ms();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    for pass in 0.. {
        if Instant::now() >= deadline {
            break;
        }
        let plans = &episodes[pass % episodes.len()].plans;
        rng.shuffle(&mut order);
        for &q in &order {
            let t0 = Instant::now();
            let result = engine.execute_shared(&plans[q], catalog);
            let t1 = Instant::now();
            tracer.record("executor.execute", phase.calls, 0, t0, t1);
            match result {
                Ok(exec) => {
                    let ok = exec.output == refs[q].reference;
                    phase.observe(q, &plans[q], t1 - t0, ok, false, Some(exec.profile));
                }
                Err(_) => phase.observe(q, &plans[q], t1 - t0, false, false, None),
            }
        }
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase.cpu_ms = process_cpu_ms() - cpu0;
    phase
}

/// Submits every query of `queries` once through one session.
pub fn warm_up(service: &QueryService, queries: &[Query], tracer: &mut Tracer) -> Phase {
    let session = service.connect();
    let mut phase = Phase::new(0, false);
    let start = Instant::now();
    for (q, query) in queries.iter().enumerate() {
        let t0 = Instant::now();
        let result = session.submit(&query.plan);
        let t1 = Instant::now();
        tracer.record("service.submit", q as u64, 0, t0, t1);
        observe_response(&mut phase, q, t1 - t0, result, query);
    }
    session.close();
    phase.wall_s = start.elapsed().as_secs_f64();
    phase
}

fn observe_response(
    phase: &mut Phase,
    query: usize,
    latency: Duration,
    result: apq_engine::Result<apq_engine::ServiceResponse>,
    expected: &Query,
) {
    match result {
        Ok(r) => {
            let ok = r.output == expected.reference;
            phase.observe(query, &expected.plan, latency, ok, r.result_cache_hit, r.profile);
        }
        Err(_) => phase.observe(query, &expected.plan, latency, false, false, None),
    }
}

/// How the service workloads' clients behave.
#[derive(Debug, Clone, Copy)]
pub struct ClientLoop {
    pub clients: usize,
    pub seed: u64,
    /// Client 0 invalidates `lineitem` before every this-many-th
    /// submission of its own.
    pub invalidate_every: Option<u64>,
    /// Busy wait between a reply and the next submission.
    pub think: Duration,
}

/// The service workloads: `clients` sessions, each drawing plans uniformly
/// from `queries` with its own seeded generator, in a closed loop for
/// `seconds`.
pub fn service_phase(
    service: &QueryService,
    queries: &[Query],
    seconds: f64,
    clients: ClientLoop,
    tracer: &mut Tracer,
) -> Phase {
    let ClientLoop { clients, seed, invalidate_every, think } = clients;
    let tracing = tracer.enabled();
    let epoch = tracer.epoch();
    let cpu0 = process_cpu_ms();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_client: Vec<(Phase, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                s.spawn(move || {
                    let client_seed = seed ^ ((client as u64 + 1) << 32);
                    let mut rng = Rng::new(client_seed);
                    let mut phase = Phase::new(client_seed, tracing);
                    let mut own = Tracer::new(tracing, epoch, client as u64 + 1);
                    let session = service.connect();
                    while Instant::now() < deadline {
                        let i = phase.calls;
                        let request = ((client as u64) << 32) | i;
                        if client == 0
                            && invalidate_every.is_some_and(|n| i > 0 && i.is_multiple_of(n))
                        {
                            let t0 = Instant::now();
                            service.invalidate_table("lineitem");
                            own.record("service.invalidate", request, 0, t0, Instant::now());
                        }
                        let q = rng.below(queries.len());
                        let t0 = Instant::now();
                        let result = session.submit(&queries[q].plan);
                        let t1 = Instant::now();
                        own.record("service.submit", request, 0, t0, t1);
                        observe_response(&mut phase, q, t1 - t0, result, &queries[q]);
                        while t1.elapsed() < think {
                            std::hint::spin_loop();
                        }
                    }
                    session.close();
                    (phase, own)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut merged = Phase::new(seed, tracing);
    for (phase, own) in per_client {
        merged.merge(phase);
        tracer.absorb(own);
    }
    merged.wall_s = start.elapsed().as_secs_f64();
    merged.cpu_ms = process_cpu_ms() - cpu0;
    merged
}
