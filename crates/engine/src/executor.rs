//! The execution engine: a dataflow scheduler over a fixed worker pool.
//!
//! The paper's run-time environment consists of "a scheduler, an interpreter,
//! and a profiler. The scheduler uses a data-flow graph based scheduling
//! policy, where an operator is scheduled for execution once all its input
//! sources are available. While an interpreter per CPU core executes the
//! scheduled operators, the profiler gathers performance data on an executed
//! operator basis." (§2)
//!
//! [`Engine`] owns the worker pool ("interpreter per CPU core"); queries are
//! submitted with [`Engine::execute`], which performs dependency-counting
//! dataflow scheduling over the plan's steps ([`crate::pipeline`]): a step
//! becomes runnable when all its producers have published and is then handed
//! to the engine's [`Scheduler`]. One driver serves both execution modes —
//! under operator-at-a-time every node is its own step, in morsel mode a
//! fused pipeline step fans out into one task per morsel. *Which* worker
//! runs it *when* is the scheduler's choice — see [`crate::scheduler`] for
//! the pluggable policies ([`SchedulerPolicy::GlobalQueue`], the seed
//! engine's shared FIFO, and [`SchedulerPolicy::WorkStealing`], per-worker
//! deques with local-first pop). Because the pool is shared by *all*
//! concurrently submitted queries, a heavy concurrent workload creates
//! exactly the resource contention the paper studies; per-task queue-wait
//! times are recorded in the profile so downstream consumers can tell
//! operator cost from scheduler interference.

use std::collections::{hash_map, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

use apq_columnar::partition::RowRange;
use apq_columnar::Catalog;

use crate::chunk::{Chunk, QueryOutput};
use crate::controller::{
    equal_share, is_governed, share_weight, weighted_share, ControllerConfig, ResourceController,
    TickReport,
};
use crate::error::{EngineError, Result};
use crate::fault::{FaultConfig, FaultInjector, FaultKind, FaultStats};
use crate::interpreter::{exchange_union, execute_node, slice_part};
use crate::pipeline::{
    morsel_count, ExecutionMode, Pipeline, PipelinePlan, PipelineSource, Step, DEFAULT_MORSEL_ROWS,
};
use crate::plan::{NodeId, OperatorSpec, Plan};
use crate::profiler::{DopPhase, OperatorProfile, PipelineProfile, QueryProfile};
use crate::scheduler::{
    QueryHandle, Scheduler, SchedulerPolicy, SchedulerStats, Task, TaskContext,
};
use crate::sharing::{ScanRegistry, SharedScan, SharingConfig, SharingStats};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of worker threads ("interpreters"). The paper's machines have
    /// 32 / 96 hardware threads; experiments here scale this down.
    pub n_workers: usize,
    /// Fixed extra latency added to every operator execution, in
    /// microseconds. Used to emulate a platform with slower memory access
    /// (the 4-socket configuration of paper Fig. 17b).
    pub per_operator_overhead_us: u64,
    /// Task-scheduling policy of the worker pool.
    pub scheduler: SchedulerPolicy,
    /// How plans are turned into scheduler tasks: one task per operator
    /// (default) or fused pipelines driven by fixed-size morsels. See
    /// [`crate::pipeline`] for the execution-model comparison; results are
    /// byte-identical either way.
    pub execution_mode: ExecutionMode,
    /// Morsel size in rows for [`ExecutionMode::MorselDriven`]
    /// (default [`DEFAULT_MORSEL_ROWS`]). Ignored in operator-at-a-time
    /// mode. Under the elastic controller this is the *starting* size; the
    /// controller may override it per query within its configured bounds.
    pub morsel_rows: usize,
    /// Elastic resource controller ([`crate::controller`]): mid-flight DOP
    /// re-grants and adaptive morsel sizing driven by live scheduler
    /// signals. `None` (default) disables the subsystem — admitted DOP and
    /// morsel size then stay exactly as submitted.
    pub controller: Option<ControllerConfig>,
    /// Deterministic fault injection ([`crate::fault`]): seeded operator
    /// panics, dispatch stalls, spurious cancellations and delays, threaded
    /// through the panic-guarded operator runner and both scheduler
    /// policies' dispatch loops. `None` (default) disables the chaos layer.
    pub faults: Option<FaultConfig>,
    /// Multi-query work sharing ([`crate::sharing`]): cooperative shared
    /// scans (each morsel window of a table produced once and fanned to
    /// every concurrent consumer) and bounded partial-aggregate reuse.
    /// `None` (default) disables the subsystem — every query then scans
    /// privately, exactly as before.
    pub sharing: Option<SharingConfig>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            n_workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            per_operator_overhead_us: 0,
            scheduler: SchedulerPolicy::default(),
            execution_mode: ExecutionMode::default(),
            morsel_rows: DEFAULT_MORSEL_ROWS,
            controller: None,
            faults: None,
            sharing: None,
        }
    }
}

impl EngineConfig {
    /// Configuration with an explicit worker count and defaults otherwise.
    pub fn with_workers(n_workers: usize) -> Self {
        EngineConfig { n_workers: n_workers.max(1), ..EngineConfig::default() }
    }

    /// Sets the scheduling policy (builder style).
    pub fn with_scheduler(mut self, scheduler: SchedulerPolicy) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Sets the execution mode (builder style).
    pub fn with_execution_mode(mut self, mode: ExecutionMode) -> Self {
        self.execution_mode = mode;
        self
    }

    /// Sets the morsel size in rows for morsel-driven execution (builder
    /// style). Values are clamped to at least 1 at use sites.
    pub fn with_morsel_rows(mut self, morsel_rows: usize) -> Self {
        self.morsel_rows = morsel_rows;
        self
    }

    /// Enables the elastic resource controller (builder style); see
    /// [`crate::controller`] for the feedback-loop specification.
    pub fn with_controller(mut self, controller: ControllerConfig) -> Self {
        self.controller = Some(controller);
        self
    }

    /// Enables deterministic fault injection (builder style); see
    /// [`crate::fault`] for the chaos-layer specification.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Enables multi-query work sharing (builder style); see
    /// [`crate::sharing`] for the shared-scan and partial-reuse protocols.
    pub fn with_sharing(mut self, sharing: SharingConfig) -> Self {
        self.sharing = Some(sharing);
        self
    }
}

/// Per-query submission options: scheduling priority and admitted degree of
/// parallelism (see [`QueryHandle`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryOptions {
    /// Scheduling priority; `> 0` uses the schedulers' priority lane.
    pub priority: u8,
    /// Maximum concurrently executing tasks of this query (`0` = unlimited).
    pub admitted_dop: usize,
}

impl QueryOptions {
    /// Options with an admitted degree of parallelism.
    pub fn with_admitted_dop(dop: usize) -> Self {
        QueryOptions { admitted_dop: dop, ..QueryOptions::default() }
    }

    /// Options with a scheduling priority.
    pub fn with_priority(priority: u8) -> Self {
        QueryOptions { priority, ..QueryOptions::default() }
    }
}

/// Result of one query execution: the final value plus its profile.
#[derive(Debug, Clone)]
pub struct QueryExecution {
    /// Canonical result value (comparable across plans of the same query).
    pub output: QueryOutput,
    /// Per-operator and per-query performance data.
    pub profile: QueryProfile,
}

/// A census reservation: a [`QueryHandle`] registered in the engine's
/// live-query registry *before* submission ([`Engine::reserve_query`] /
/// [`Engine::reserve_admitted`]), so the elastic controller counts the
/// pending client from issue time — a ticket *is* a registry entry, not a
/// side counter.
///
/// Dropping the reservation releases the census slot (and with it the
/// query's claim on future DOP shares). The reservation does not cancel a
/// submission already in flight — cancellation stays with
/// [`QueryHandle::cancel`].
pub struct ReservedQuery {
    handle: Arc<QueryHandle>,
    registry: Arc<Mutex<HashMap<u64, Arc<QueryHandle>>>>,
}

impl ReservedQuery {
    /// The reservation's query handle — pass it to
    /// [`Engine::execute_with_handle`] to submit under this census slot.
    pub fn handle(&self) -> Arc<QueryHandle> {
        Arc::clone(&self.handle)
    }

    /// Engine-assigned query id of the reserved slot.
    pub fn id(&self) -> u64 {
        self.handle.id()
    }
}

impl std::fmt::Debug for ReservedQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReservedQuery")
            .field("id", &self.handle.id())
            .field("admitted_dop", &self.handle.admitted_dop())
            .finish()
    }
}

impl Drop for ReservedQuery {
    fn drop(&mut self) {
        self.registry.lock().remove(&self.handle.id());
    }
}

/// The shared execution engine (worker pool + pluggable task scheduler).
pub struct Engine {
    config: EngineConfig,
    scheduler: Arc<dyn Scheduler>,
    workers: Vec<JoinHandle<()>>,
    next_query_id: AtomicU64,
    /// Queries currently inside `execute_with_handle` (all clients).
    in_flight: AtomicUsize,
    /// Handles of the queries currently executing, keyed by query id — the
    /// registry the controller's ticks (and [`Engine::active_queries`])
    /// snapshot.
    registry: Arc<Mutex<HashMap<u64, Arc<QueryHandle>>>>,
    /// Elastic resource controller; `None` when disabled.
    controller: Option<Arc<ResourceController>>,
    /// Stop flag + wakeup for the background control thread.
    controller_stop: Arc<(Mutex<bool>, Condvar)>,
    controller_thread: Option<JoinHandle<()>>,
    /// Chaos layer ([`crate::fault`]); `None` when disabled.
    faults: Option<Arc<FaultInjector>>,
    /// Work-sharing coordinator ([`crate::sharing`]); `None` when disabled.
    sharing: Option<Arc<ScanRegistry>>,
    /// Monotonic controller tick number, shared by the background loop and
    /// [`Engine::controller_tick`] (the fault schedule keys scripted tick
    /// panics on it).
    controller_ticks: Arc<AtomicU64>,
    /// Times the tick watchdog contained a panicking controller tick and
    /// restarted the loop.
    controller_restarts: Arc<AtomicU64>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("n_workers", &self.config.n_workers)
            .field("scheduler", &self.config.scheduler)
            .field("execution_mode", &self.config.execution_mode)
            .finish()
    }
}

impl Engine {
    /// Creates an engine with the given configuration, spawning the worker pool.
    pub fn new(config: EngineConfig) -> Self {
        let n_workers = config.n_workers.max(1);
        let faults = config.faults.clone().map(|c| Arc::new(FaultInjector::new(c)));
        let scheduler = config.scheduler.build(n_workers, faults.clone());
        let mut workers = Vec::with_capacity(n_workers);
        for worker_idx in 0..n_workers {
            let sched = Arc::clone(&scheduler);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("apq-worker-{worker_idx}"))
                    .spawn(move || sched.run_worker(worker_idx))
                    .expect("failed to spawn worker thread"),
            );
        }
        let registry: Arc<Mutex<HashMap<u64, Arc<QueryHandle>>>> =
            Arc::new(Mutex::new(HashMap::new()));
        let controller = config
            .controller
            .clone()
            .map(|cfg| Arc::new(ResourceController::new(cfg, n_workers, config.morsel_rows)));
        let controller_stop = Arc::new((Mutex::new(false), Condvar::new()));
        let controller_ticks = Arc::new(AtomicU64::new(0));
        let controller_restarts = Arc::new(AtomicU64::new(0));
        let controller_thread = controller.as_ref().map(|ctrl| {
            let ctrl = Arc::clone(ctrl);
            let registry = Arc::clone(&registry);
            let sched = Arc::clone(&scheduler);
            let stop = Arc::clone(&controller_stop);
            let faults = faults.clone();
            let ticks = Arc::clone(&controller_ticks);
            let restarts = Arc::clone(&controller_restarts);
            std::thread::Builder::new()
                .name("apq-controller".to_string())
                .spawn(move || loop {
                    {
                        let (lock, cv) = &*stop;
                        let mut stopped = lock.lock();
                        if *stopped {
                            return;
                        }
                        cv.wait_for(&mut stopped, ctrl.config().tick);
                        if *stopped {
                            return;
                        }
                    }
                    supervised_tick(
                        &ctrl,
                        &registry,
                        &*sched,
                        faults.as_deref(),
                        &ticks,
                        &restarts,
                    );
                })
                .expect("failed to spawn controller thread")
        });
        let sharing = config.sharing.clone().map(|cfg| Arc::new(ScanRegistry::new(cfg)));
        Engine {
            config,
            scheduler,
            workers,
            next_query_id: AtomicU64::new(0),
            in_flight: AtomicUsize::new(0),
            registry,
            controller,
            controller_stop,
            controller_thread,
            faults,
            sharing,
            controller_ticks,
            controller_restarts,
        }
    }

    /// Engine with `n` workers and default settings otherwise.
    pub fn with_workers(n: usize) -> Self {
        Engine::new(EngineConfig::with_workers(n))
    }

    /// Number of worker threads.
    pub fn n_workers(&self) -> usize {
        self.config.n_workers
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Snapshot of the scheduler's per-worker counters (cumulative since the
    /// engine was created).
    pub fn scheduler_stats(&self) -> SchedulerStats {
        self.scheduler.stats()
    }

    /// Number of queries currently executing on this engine (all clients).
    pub fn in_flight_queries(&self) -> usize {
        self.in_flight.load(Ordering::Acquire)
    }

    /// Handles of the queries currently executing (all clients), in no
    /// particular order — the live population the controller governs.
    pub fn active_queries(&self) -> Vec<Arc<QueryHandle>> {
        self.registry.lock().values().cloned().collect()
    }

    /// Number of submitted tasks not yet dispatched by the scheduler (pool
    /// pressure; approximate while workers drain concurrently).
    pub fn pending_tasks(&self) -> usize {
        self.scheduler.pending_tasks()
    }

    /// Runs one synchronous control round of the elastic resource
    /// controller over the currently active queries, returning what it did.
    /// A no-op returning an empty report when the controller is disabled.
    ///
    /// The background control thread ticks on its own
    /// ([`ControllerConfig::tick`]); this entry point exists so tests,
    /// examples and operators can force a deterministic round. Like the
    /// background loop, the round runs under the tick watchdog: a panicking
    /// tick is contained, counted in [`Engine::controller_restarts`] and
    /// returns an empty report instead of unwinding into the caller.
    pub fn controller_tick(&self) -> TickReport {
        match &self.controller {
            Some(ctrl) => supervised_tick(
                ctrl,
                &self.registry,
                &*self.scheduler,
                self.faults.as_deref(),
                &self.controller_ticks,
                &self.controller_restarts,
            ),
            None => TickReport::default(),
        }
    }

    /// Times the controller tick watchdog contained a panicking tick and
    /// restarted the control loop (0 in healthy operation; chaos runs with
    /// scripted tick panics drive it up). A panic costs one interval of
    /// adaptive signal, never the control loop itself — the alternative, a
    /// dead `apq-controller` thread, would silently freeze elastic
    /// re-grants for the rest of the engine's life.
    pub fn controller_restarts(&self) -> u64 {
        self.controller_restarts.load(Ordering::Relaxed)
    }

    /// Cumulative fault-injection counters of the chaos layer
    /// ([`crate::fault`]); all zeros when injection is disabled.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.as_ref().map(|f| f.stats()).unwrap_or_default()
    }

    /// Cumulative work-sharing counters ([`crate::sharing`]); all zeros when
    /// sharing is disabled.
    pub fn sharing_stats(&self) -> SharingStats {
        self.sharing.as_ref().map(|s| s.stats()).unwrap_or_default()
    }

    /// True when the work-sharing subsystem is enabled.
    pub fn sharing_enabled(&self) -> bool {
        self.sharing.is_some()
    }

    /// Drops every shared-scan group over `table` and every cached
    /// aggregate partial whose subtree read `table`. A no-op when sharing
    /// is disabled. The service layer calls this from its per-table
    /// invalidation so mutated tables can never serve stale windows.
    pub fn invalidate_sharing_table(&self, table: &str) {
        if let Some(sharing) = &self.sharing {
            sharing.invalidate_table(table);
        }
    }

    /// Flushes every shared-scan group and cached aggregate partial
    /// (catalog swaps, global invalidation). A no-op when sharing is
    /// disabled.
    pub fn invalidate_sharing(&self) {
        if let Some(sharing) = &self.sharing {
            sharing.invalidate_all();
        }
    }

    /// Registers a query with the scheduler, returning its handle. The handle
    /// can be passed to [`Engine::execute_with_handle`] and retained by the
    /// caller for mid-flight control (cancellation, DOP re-grants).
    pub fn register_query(&self, options: QueryOptions) -> Arc<QueryHandle> {
        let id = self.next_query_id.fetch_add(1, Ordering::Relaxed);
        Arc::new(QueryHandle::new(id, options.priority, options.admitted_dop))
    }

    /// Reserves a census slot for a query *before* it is submitted: the
    /// returned reservation's handle enters the live-query registry
    /// immediately, so [`Engine::active_queries`] and controller ticks count
    /// it from issue time. This is the unified-census replacement for
    /// side-table admission tickets (the baselines crate's
    /// `AdmissionController` keeps its own active counter — a second census
    /// the controller's ticks cannot see).
    ///
    /// The reservation is RAII: dropping it removes the handle from the
    /// registry. Executing via [`Engine::execute_with_handle`] with the
    /// reservation's handle records a [`DopPhase::Submit`] timeline event
    /// and leaves registration to the reservation — the slot stays held
    /// across repeated submissions until the client drops it.
    pub fn reserve_query(&self, options: QueryOptions) -> ReservedQuery {
        let id = self.next_query_id.fetch_add(1, Ordering::Relaxed);
        let handle = Arc::new(QueryHandle::with_phase(
            id,
            options.priority,
            options.admitted_dop,
            DopPhase::Reserve,
        ));
        self.registry.lock().insert(id, Arc::clone(&handle));
        ReservedQuery { handle, registry: Arc::clone(&self.registry) }
    }

    /// Reserves a census slot with an *admission-controlled* DOP grant: the
    /// equal share `max(1, total_dop / n_governed)` over the governed
    /// population, counted and granted under one registry lock — the same
    /// census snapshot the elastic controller's ticks rebalance over, so
    /// the admit-time target and the next re-grant target can never
    /// disagree about who is present. `total_dop == 0` means the engine's
    /// worker count.
    ///
    /// ```
    /// use apq_engine::Engine;
    ///
    /// let engine = Engine::with_workers(4);
    /// let first = engine.reserve_admitted(0, 4);
    /// assert_eq!(first.handle().admitted_dop(), 4); // alone: whole pool
    /// let second = engine.reserve_admitted(0, 4);
    /// assert_eq!(second.handle().admitted_dop(), 2); // equal share of 2
    /// // Both are census-visible before any submission:
    /// assert_eq!(engine.active_queries().len(), 2);
    /// drop(first);
    /// assert_eq!(engine.active_queries().len(), 1);
    /// ```
    pub fn reserve_admitted(&self, priority: u8, total_dop: usize) -> ReservedQuery {
        let total = if total_dop == 0 { self.config.n_workers } else { total_dop };
        let id = self.next_query_id.fetch_add(1, Ordering::Relaxed);
        let weighted = self.controller.as_ref().is_some_and(|c| c.config().weighted_shares);
        let mut registry = self.registry.lock();
        let target = if weighted {
            // Priority-weighted admission (`ControllerConfig::weighted_shares`):
            // the grant is proportional to `priority + 1` over the governed
            // population plus this arrival, mirroring the controller's
            // weighted re-grants tick-for-tick.
            let weight_sum = registry
                .values()
                .filter(|h| is_governed(h))
                .map(|h| share_weight(h.priority()))
                .sum::<usize>()
                + share_weight(priority);
            weighted_share(total, share_weight(priority), weight_sum)
        } else {
            let n_governed = registry.values().filter(|h| is_governed(h)).count() + 1;
            equal_share(total, n_governed)
        };
        let handle = Arc::new(QueryHandle::with_phase(id, priority, target, DopPhase::Reserve));
        registry.insert(id, Arc::clone(&handle));
        drop(registry);
        ReservedQuery { handle, registry: Arc::clone(&self.registry) }
    }

    /// Executes a plan against a catalog, blocking until the result is ready.
    ///
    /// May be called concurrently from many client threads; all queries share
    /// the same worker pool.
    pub fn execute(&self, plan: &Plan, catalog: &Arc<Catalog>) -> Result<QueryExecution> {
        self.execute_shared(&Arc::new(plan.clone()), catalog)
    }

    /// Like [`Engine::execute`] but borrows an already-shared plan, avoiding
    /// the deep plan clone per run — the hot path for repeated executions of
    /// the same plan (benchmark loops, background workloads).
    ///
    /// ```
    /// use std::sync::Arc;
    /// use apq_columnar::{partition::RowRange, Catalog, ScalarValue, TableBuilder};
    /// use apq_engine::plan::{OperatorSpec, Plan};
    /// use apq_engine::{Engine, QueryOutput};
    /// use apq_operators::{AggFunc, CmpOp, Predicate};
    ///
    /// // A tiny table and the plan for `SELECT sum(v) FROM t WHERE v < 3`.
    /// let mut catalog = Catalog::new();
    /// catalog.register(
    ///     TableBuilder::new("t").i64_column("v", vec![0, 1, 2, 3, 4]).build()?,
    /// );
    /// let catalog = Arc::new(catalog);
    ///
    /// let mut plan = Plan::new();
    /// let scan = plan.add(
    ///     OperatorSpec::ScanColumn {
    ///         table: "t".into(),
    ///         column: "v".into(),
    ///         range: RowRange::new(0, 5),
    ///     },
    ///     vec![],
    /// );
    /// let sel = plan.add(
    ///     OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 3i64) },
    ///     vec![scan],
    /// );
    /// let fetch = plan.add(OperatorSpec::Fetch, vec![sel, scan]);
    /// let agg = plan.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![fetch]);
    /// let fin = plan.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![agg]);
    /// plan.set_root(fin);
    ///
    /// // Share the plan once, execute it many times without re-cloning it.
    /// let engine = Engine::with_workers(2);
    /// let plan = Arc::new(plan);
    /// for _ in 0..3 {
    ///     let exec = engine.execute_shared(&plan, &catalog)?;
    ///     assert_eq!(exec.output, QueryOutput::Scalar(ScalarValue::I64(3)));
    /// }
    /// # Ok::<(), apq_engine::EngineError>(())
    /// ```
    pub fn execute_shared(
        &self,
        plan: &Arc<Plan>,
        catalog: &Arc<Catalog>,
    ) -> Result<QueryExecution> {
        let handle = self.register_query(QueryOptions::default());
        self.execute_with_handle(plan, catalog, handle)
    }

    /// Executes a plan under an explicit [`QueryHandle`] (from
    /// [`Engine::register_query`]), giving the caller per-query scheduling
    /// control: priority, admitted degree of parallelism, cancellation.
    pub fn execute_with_handle(
        &self,
        plan: &Arc<Plan>,
        catalog: &Arc<Catalog>,
        handle: Arc<QueryHandle>,
    ) -> Result<QueryExecution> {
        plan.validate()?;

        // Count of *other* queries in flight at submission, recorded in the
        // profile so consumers of the queue-wait signal can tell cross-query
        // interference from self-inflicted queueing (more partitions than
        // workers). The guard keeps the counter balanced on error returns.
        let concurrent_peers = self.in_flight.fetch_add(1, Ordering::AcqRel);
        struct InFlightGuard<'a>(&'a AtomicUsize);
        impl Drop for InFlightGuard<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::AcqRel);
            }
        }
        let _in_flight = InFlightGuard(&self.in_flight);

        // Publish the handle in the live-query registry for the duration of
        // the execution, so controller ticks see it. The guard keeps the
        // registry consistent on every exit path; a re-grant racing query
        // completion at worst writes to a handle nobody reads anymore.
        //
        // A handle that is *already* registered is a census reservation
        // ([`Engine::reserve_admitted`]): it entered the registry at issue
        // time and its [`ReservedQuery`] owns the removal, so the guard must
        // not unregister it here — the reservation stays census-visible
        // until the client drops it, even across repeated submissions.
        let reserved = {
            let mut registry = self.registry.lock();
            match registry.entry(handle.id()) {
                hash_map::Entry::Occupied(_) => true,
                hash_map::Entry::Vacant(slot) => {
                    slot.insert(Arc::clone(&handle));
                    false
                }
            }
        };
        if reserved {
            handle.mark_submitted();
        }
        struct RegistryGuard<'a> {
            registry: &'a Mutex<HashMap<u64, Arc<QueryHandle>>>,
            id: u64,
            owned: bool,
        }
        impl Drop for RegistryGuard<'_> {
            fn drop(&mut self) {
                if self.owned {
                    self.registry.lock().remove(&self.id);
                }
            }
        }
        let _registered =
            RegistryGuard { registry: &self.registry, id: handle.id(), owned: !reserved };

        // Pre-dispatch liveness gate: a query submitted already cancelled or
        // with an expired deadline fails here, before a single task reaches
        // the scheduler — no morsel is dispatched for work that cannot
        // complete.
        if let Some(err) = liveness_error(&handle) {
            return Err(err);
        }

        // Decompose the plan into steps ([`crate::pipeline`]). This is the
        // one place the execution mode is read: operator-at-a-time is the
        // step plan with fusion off, so every live node is its own step and
        // the driver below dispatches one task per operator.
        let dag = PipelinePlan::analyze(plan, self.config.execution_mode)?;
        let capacity = plan.capacity();
        let n_steps = dag.steps.len();

        // Partial-aggregate reuse ([`crate::sharing`]): before anything is
        // launched, probe the registry for cached terminal chunks of
        // aggregate-terminated steps. A hit satisfies the whole step — its
        // terminal chunk is seeded into the result slot instead of being
        // recomputed, and steps that would feed only satisfied work are
        // skipped transitively.
        let grid = handle.morsel_rows_hint().unwrap_or(self.config.morsel_rows.max(1)).max(1);
        let mut satisfied = vec![false; n_steps];
        let mut partial_keys: Vec<Option<PartialKey>> = vec![None; n_steps];
        let mut seeded: Vec<(NodeId, Chunk)> = Vec::new();
        if let Some(registry) = &self.sharing {
            // Read before any partial is computed: an invalidation during
            // the run makes this run's `partial_put`s no-ops.
            let generation = registry.generation();
            for (idx, step) in dag.steps.iter().enumerate() {
                // A fused pipeline's terminal chunk is the exchange-union
                // merge over its morsel grid, so the cache key carries the
                // grid; single steps execute whole (grid 0).
                let (terminal, step_grid) = match step {
                    Step::Single(node) => (*node, 0),
                    Step::Fused(p) => (p.terminal(), grid),
                };
                let spec = &plan.node(terminal)?.spec;
                if !matches!(spec, OperatorSpec::ScalarAgg { .. } | OperatorSpec::GroupAgg { .. }) {
                    continue;
                }
                let signature = plan.subtree_signature(terminal)?;
                let tables = plan.subtree_tables(terminal)?;
                if let Some(chunk) = registry.partial_get(catalog, step_grid, &signature) {
                    satisfied[idx] = true;
                    seeded.push((terminal, chunk));
                }
                partial_keys[idx] = Some(PartialKey { signature, tables, generation });
            }
        }

        // Transitively skip steps whose entire consumer set is skipped —
        // their published output would feed only work that never runs. A
        // fixpoint loop, not a single reverse sweep: step indices are not
        // topologically ordered.
        let mut skipped = satisfied;
        loop {
            let mut changed = false;
            for idx in 0..n_steps {
                if !skipped[idx]
                    && !dag.out_edges[idx].is_empty()
                    && dag.out_edges[idx].iter().all(|&(c, _)| skipped[c])
                {
                    skipped[idx] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // Remove skipped producers' edges from the dependency counts so live
        // consumers do not wait on steps that will never run.
        let mut adjusted_deps = dag.deps.clone();
        for (idx, _) in skipped.iter().enumerate().filter(|(_, &skip)| skip) {
            for &(consumer, edges) in &dag.out_edges[idx] {
                adjusted_deps[consumer] -= edges;
            }
        }
        let live_steps = skipped.iter().filter(|&&s| !s).count();

        let state = Arc::new(QueryRun {
            plan: Arc::clone(plan),
            catalog: Arc::clone(catalog),
            handle,
            results: (0..capacity).map(|_| OnceLock::new()).collect(),
            profiles: (0..capacity).map(|_| OnceLock::new()).collect(),
            step_deps: adjusted_deps.iter().map(|&d| AtomicUsize::new(d)).collect(),
            fused_runs: (0..n_steps).map(|_| OnceLock::new()).collect(),
            pipeline_profiles: Mutex::new(Vec::new()),
            remaining: AtomicUsize::new(live_steps),
            failed: AtomicBool::new(false),
            error: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            started: Instant::now(),
            faults: self.faults.clone(),
            overhead_us: self.config.per_operator_overhead_us,
            morsel_rows: self.config.morsel_rows.max(1),
            n_workers: self.config.n_workers,
            sharing: self.sharing.clone(),
            partial_keys,
            skipped,
            dag,
        });

        // Publish reused partials before any task can observe the slots.
        for (terminal, chunk) in seeded {
            let _ = state.results[terminal].set(chunk);
        }

        if live_steps == 0 {
            // Every step was satisfied from the partial cache (the root's
            // terminal chunk included): nothing to schedule.
            state.finish();
        }
        // Seed every live step with no remaining cross-step dependencies.
        // Seeding must consult the *static* (pre-launch) dependency counts,
        // not the atomic counters: workers already run seeded steps
        // concurrently with this loop and may drive another step's counter
        // to zero before the loop reaches it, which would double-launch it.
        for (step, &deps) in adjusted_deps.iter().enumerate() {
            if !state.skipped[step] && deps == 0 {
                let ok = launch_step(&state, step, &|task| self.scheduler.submit(task));
                if !ok {
                    return Err(EngineError::EngineShutDown);
                }
            }
        }

        // Wait for completion (or failure).
        {
            let mut done = state.done.lock();
            while !*done {
                state.done_cv.wait(&mut done);
            }
        }
        drain_query_tasks(&state.handle);
        if let Some(err) = state.error.lock().clone() {
            return Err(err);
        }

        let root = plan.root().expect("validated plan has a root");
        let root_chunk = state.results[root]
            .get()
            .cloned()
            .ok_or_else(|| EngineError::InvalidPlan("root node produced no result".to_string()))?;
        let operators: Vec<OperatorProfile> =
            state.profiles.iter().filter_map(OnceLock::get).cloned().collect();
        let pipelines = std::mem::take(&mut *state.pipeline_profiles.lock());
        let profile = QueryProfile {
            wall_time: state.started.elapsed(),
            n_workers: self.config.n_workers,
            concurrent_peers,
            operators,
            pipelines,
            dop_timeline: state.handle.dop_timeline(),
        };
        Ok(QueryExecution { output: root_chunk.to_output(), profile })
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Stop the control loop first so no tick runs against a draining
        // scheduler.
        if let Some(thread) = self.controller_thread.take() {
            {
                let (lock, cv) = &*self.controller_stop;
                *lock.lock() = true;
                cv.notify_all();
            }
            let _ = thread.join();
        }
        // Shutting the scheduler down lets the workers drain remaining tasks
        // and exit.
        self.scheduler.shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One watchdog-supervised controller round, shared by the background
/// control thread and [`Engine::controller_tick`]. A panicking tick (a
/// controller bug, or a scripted
/// [`crate::fault::FaultConfig::controller_tick_panics`] entry) is contained
/// here: the controller's signal windows are reset (a panic may have unwound
/// mid-update) and the restart counter incremented, so the control loop
/// keeps ticking instead of dying silently and freezing elastic re-grants.
fn supervised_tick(
    ctrl: &ResourceController,
    registry: &Mutex<HashMap<u64, Arc<QueryHandle>>>,
    sched: &dyn Scheduler,
    faults: Option<&FaultInjector>,
    ticks: &AtomicU64,
    restarts: &AtomicU64,
) -> TickReport {
    let tick_idx = ticks.fetch_add(1, Ordering::Relaxed);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Some(faults) = faults {
            if faults.tick_should_panic(tick_idx) {
                panic!("injected controller tick panic (tick {tick_idx})");
            }
        }
        let active: Vec<Arc<QueryHandle>> = registry.lock().values().cloned().collect();
        ctrl.tick(&active, sched.pending_tasks())
    }));
    match outcome {
        Ok(report) => report,
        Err(_) => {
            ctrl.reset();
            restarts.fetch_add(1, Ordering::Relaxed);
            TickReport::default()
        }
    }
}

/// The liveness check every cancel checkpoint runs: `Cancelled` wins over
/// `DeadlineExceeded` (an explicit client action over a passive expiry);
/// expiry records the [`DopPhase::Timeout`] timeline event on first
/// observation.
fn liveness_error(handle: &QueryHandle) -> Option<EngineError> {
    if handle.is_cancelled() {
        return Some(EngineError::Cancelled);
    }
    if handle.deadline_exceeded() {
        handle.mark_deadline_exceeded();
        return Some(EngineError::DeadlineExceeded);
    }
    None
}

/// Spin-waits until no task of the query is left anywhere in the scheduler.
///
/// Completion (`done`) fires from inside the last task's body — and a
/// *failure* fires from the first checkpoint that observes it, with sibling
/// tasks still queued or executing. Returning to the client at that point
/// would leak stragglers into the pool: they hold DOP slots, touch the run
/// state, and skew the next submission's scheduling. Draining here makes
/// `running() == 0` an invariant the moment a submission returns, errors
/// included. The wait is short by construction — post-failure tasks bail at
/// their first liveness check before doing operator work.
fn drain_query_tasks(handle: &QueryHandle) {
    while handle.inflight_tasks() > 0 {
        std::thread::yield_now();
    }
}

// -------------------------------------------------------------- step driver
//
// Dependency tracking happens at *step* granularity (a step is a fused
// pipeline or a single node, see `crate::pipeline`). A runnable single step
// executes its node whole; a runnable pipeline fans out into one task per
// morsel, and the last morsel to finish assembles the partial outputs in
// morsel order and publishes the terminal chunk exactly where whole-node
// execution would have published it. Under operator-at-a-time every step is
// single, so this one driver serves both execution modes.

/// Shared state of one query execution.
struct QueryRun {
    plan: Arc<Plan>,
    catalog: Arc<Catalog>,
    handle: Arc<QueryHandle>,
    /// One write-once chunk slot per plan node: a producer publishes its
    /// chunk, consumers read it lock-free. Only published nodes (single
    /// steps and pipeline terminals) are ever set.
    results: Vec<OnceLock<Chunk>>,
    profiles: Vec<OnceLock<OperatorProfile>>,
    /// Remaining cross-step input edges per step.
    step_deps: Vec<AtomicUsize>,
    /// Morsel bookkeeping per step; set when the step is launched (fused
    /// steps only).
    fused_runs: Vec<OnceLock<Arc<FusedRun>>>,
    pipeline_profiles: Mutex<Vec<PipelineProfile>>,
    /// Steps still to complete.
    remaining: AtomicUsize,
    /// Fast-path flag mirroring `error.is_some()`.
    failed: AtomicBool,
    error: Mutex<Option<EngineError>>,
    done: Mutex<bool>,
    done_cv: Condvar,
    started: Instant,
    faults: Option<Arc<FaultInjector>>,
    overhead_us: u64,
    /// Engine-default morsel size; each pipeline launch may override it
    /// with the query's live hint (see [`FusedRun::morsel_rows`]).
    morsel_rows: usize,
    n_workers: usize,
    /// Shared-scan coordinator ([`crate::sharing`]); `None` when disabled.
    sharing: Option<Arc<ScanRegistry>>,
    /// Per-step partial-aggregate cache key; `Some` only for steps whose
    /// terminal is a cacheable aggregate and sharing is enabled.
    partial_keys: Vec<Option<PartialKey>>,
    /// Steps satisfied by a cached partial (or feeding only such steps);
    /// they are never launched, their terminal chunk is seeded instead.
    skipped: Vec<bool>,
    dag: PipelinePlan,
}

/// Cache key of a step's partial-aggregate entry ([`crate::sharing`]): the
/// terminal's structural signature plus the base tables its subtree reads
/// (the per-table invalidation handle).
#[derive(Clone)]
struct PartialKey {
    signature: String,
    tables: Vec<String>,
    /// [`ScanRegistry::generation`] when the run started.
    generation: u64,
}

impl QueryRun {
    fn finish(&self) {
        let mut done = self.done.lock();
        *done = true;
        self.done_cv.notify_all();
    }

    fn fail(&self, err: EngineError) {
        {
            let mut slot = self.error.lock();
            if slot.is_none() {
                *slot = Some(err);
            }
        }
        self.failed.store(true, Ordering::Release);
        self.finish();
    }

    /// The chaos layer's outcome-changing fault decision for one operator
    /// execution. A [`FaultKind::SpuriousCancel`] flips the real cancel flag
    /// (so every later checkpoint observes the same cancellation an
    /// external client would have caused) and returns `Err(Cancelled)`;
    /// `Ok(true)` asks [`guarded_execute`] to inject a
    /// [`FaultKind::OperatorPanic`].
    fn inject_fault(&self, node: NodeId) -> Result<bool> {
        match self.faults.as_ref().and_then(|f| f.operator_fault(self.handle.id(), node)) {
            Some(FaultKind::SpuriousCancel) => {
                self.handle.cancel();
                Err(EngineError::Cancelled)
            }
            Some(FaultKind::OperatorPanic) => Ok(true),
            _ => Ok(false),
        }
    }

    /// Emulated per-dispatch overhead plus the chaos layer's site-keyed
    /// [`FaultKind::Delay`], applied once per task (an operator of a single
    /// step, or a morsel keyed on its pipeline terminal). Timing-only.
    fn emulate_delays(&self, node: NodeId) {
        if self.overhead_us > 0 {
            std::thread::sleep(std::time::Duration::from_micros(self.overhead_us));
        }
        if let Some(faults) = &self.faults {
            let delay = faults.operator_delay_us(self.handle.id(), node);
            if delay > 0 {
                std::thread::sleep(std::time::Duration::from_micros(delay));
            }
        }
    }
}

/// Gathers `node`'s materialized inputs from the write-once slots, executes
/// the operator (panic-guarded, with emulated overhead and delays applied),
/// and publishes its chunk and profile: the whole-node execution protocol of
/// a single step. Errors are returned for the caller to fail the query with.
fn execute_and_publish(
    state: &QueryRun,
    ctx: &TaskContext<'_>,
    node: NodeId,
    inject_panic: bool,
) -> Result<()> {
    let node_ref = state.plan.node(node)?.clone();
    let catalog = &state.catalog;

    // Gather the (already materialized) inputs from their write-once slots.
    let mut inputs: Vec<Chunk> = Vec::with_capacity(node_ref.inputs.len());
    for &input in &node_ref.inputs {
        match state.results.get(input).and_then(OnceLock::get) {
            Some(chunk) => inputs.push(chunk.clone()),
            None => {
                return Err(EngineError::InvalidPlan(format!(
                    "node {node} was scheduled before its input {input} completed"
                )));
            }
        }
    }

    let queue_wait_us = ctx.queue_wait.as_micros() as u64;
    let start_us = state.started.elapsed().as_micros() as u64;
    let outcome = match &node_ref.spec {
        OperatorSpec::ScanColumn { table, column, range } => {
            // Whole-node scans go through the shared-scan coordinator when
            // sharing is on: the first consumer of the window executes the
            // scan and publishes it, later consumers reuse the published
            // chunk. Fault-injected executions bypass the coordinator — an
            // injected panic must fail this query, never poison (or be
            // masked by) a window other queries reuse.
            let served = match &state.sharing {
                Some(registry) if !inject_panic => {
                    let scan = registry.attach(catalog, table, column);
                    scan.window(range.start, range.end, || {
                        guarded_execute(node, &node_ref.spec, &inputs, catalog, false)
                    })
                }
                _ => guarded_execute(node, &node_ref.spec, &inputs, catalog, inject_panic)
                    .map(|chunk| (chunk, false)),
            };
            served.map(|(chunk, shared)| {
                state.handle.record_morsel(shared);
                chunk
            })
        }
        _ => guarded_execute(node, &node_ref.spec, &inputs, catalog, inject_panic),
    };
    state.emulate_delays(node);
    let end_us = state.started.elapsed().as_micros() as u64;

    let chunk = outcome?;
    let profile = OperatorProfile {
        node,
        name: node_ref.spec.name(),
        start_us,
        duration_us: end_us.saturating_sub(start_us),
        queue_wait_us,
        worker: ctx.worker,
        rows_out: chunk.rows(),
        bytes_out: chunk.byte_size(),
    };
    if state.profiles[node].set(profile).is_err() {
        return Err(EngineError::InvalidPlan(format!("node {node} executed twice")));
    }
    if state.results[node].set(chunk).is_err() {
        return Err(EngineError::InvalidPlan(format!("node {node} produced two results")));
    }
    Ok(())
}

/// Executes one operator, converting panics into query-level errors: a
/// panicking operator must fail *this query* (waking the submitting client)
/// rather than unwind through the shared worker pool.
///
/// `inject_panic` is the chaos layer's [`FaultKind::OperatorPanic`]: the
/// injected panic unwinds from *inside* the guarded region, so it exercises
/// exactly the containment path a genuine operator bug would take.
fn guarded_execute(
    node: NodeId,
    spec: &OperatorSpec,
    inputs: &[Chunk],
    catalog: &Catalog,
    inject_panic: bool,
) -> Result<Chunk> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if inject_panic {
            panic!("injected operator fault");
        }
        execute_node(node, spec, inputs, catalog)
    }))
    .unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Err(EngineError::WorkerPanicked(format!("operator {node} panicked: {msg}")))
    })
}

/// Per-pipeline morsel bookkeeping, created when the pipeline is launched
/// (its fan-out depends on the actual source size).
struct FusedRun {
    /// Morsel size resolved at launch: the query's live override
    /// ([`QueryHandle::morsel_rows_hint`], written by the adaptive
    /// controller) or the engine default. Fixed for the pipeline's lifetime
    /// so slicing and fan-out agree.
    morsel_rows: usize,
    n_morsels: usize,
    /// Rows of the pipeline's input (effective scan range or source chunk).
    source_rows: usize,
    /// First effective row of a scan source (clamped to the table size).
    scan_start: usize,
    /// Terminal partial output per morsel, assembled in morsel order.
    parts: Vec<OnceLock<Chunk>>,
    remaining: AtomicUsize,
    /// Accumulated per-stage execution time / output rows / output bytes,
    /// indexed like `Pipeline::member_nodes`.
    stage_time_us: Vec<AtomicU64>,
    stage_rows: Vec<AtomicU64>,
    stage_bytes: Vec<AtomicU64>,
    /// Morsels executed per worker — the locality signal fig19 reports.
    morsels_by_worker: Vec<AtomicU64>,
    queue_wait_us: AtomicU64,
    /// Offset since query start when the pipeline became runnable.
    start_us: u64,
    /// Shared-scan membership for the pipeline's lifetime (scan-source
    /// pipelines with sharing on); dropping it detaches from the group.
    shared: Option<SharedScan>,
    /// Morsels of this pipeline served from the group's published windows.
    morsels_shared: AtomicU64,
}

impl FusedRun {
    fn record_stage(&self, member: usize, started: Instant, chunk: &Chunk) {
        self.stage_time_us[member]
            .fetch_add(started.elapsed().as_micros() as u64, Ordering::Relaxed);
        self.stage_rows[member].fetch_add(chunk.rows() as u64, Ordering::Relaxed);
        self.stage_bytes[member].fetch_add(chunk.byte_size() as u64, Ordering::Relaxed);
    }
}

/// Launches a runnable step: submits the single-node task, or computes the
/// morsel fan-out and submits one task per morsel.
///
/// Returns `false` only when the scheduler refused a submission (engine shut
/// down). Query-level failures (bad catalog references, double launches) are
/// routed through [`QueryRun::fail`] and return `true` — the engine is
/// alive, the query is not.
fn launch_step(state: &Arc<QueryRun>, step: usize, submit: &dyn Fn(Task) -> bool) -> bool {
    match &state.dag.steps[step] {
        Step::Single(node) => {
            let st = Arc::clone(state);
            let node = *node;
            submit(Task::new(Arc::clone(&state.handle), move |ctx| {
                run_single_step(st, ctx, step, node)
            }))
        }
        Step::Fused(pipeline) => {
            let (source_rows, scan_start, sliceable, shared) = match pipeline.source {
                PipelineSource::Scan { node } => {
                    let spec = match state.plan.node(node) {
                        Ok(n) => n.spec.clone(),
                        Err(e) => {
                            state.fail(e);
                            return true;
                        }
                    };
                    let OperatorSpec::ScanColumn { table, column, range } = spec else {
                        state.fail(EngineError::InvalidPlan(format!(
                            "pipeline source {node} is not a scan"
                        )));
                        return true;
                    };
                    let len = match state.catalog.table(&table).and_then(|t| t.column(&column)) {
                        Ok(col) => col.len(),
                        Err(e) => {
                            state.fail(e.into());
                            return true;
                        }
                    };
                    let end = range.end.min(len);
                    let start = range.start.min(end);
                    // Attach to the table's scan group for the pipeline's
                    // lifetime; the `FusedRun` holds the membership and every
                    // morsel produces-or-reuses through it.
                    let shared = state
                        .sharing
                        .as_ref()
                        .filter(|_| pipeline.shareable)
                        .map(|reg| reg.attach(&state.catalog, &table, &column));
                    (end - start, start, true, shared)
                }
                PipelineSource::Chunk { producer } => {
                    let chunk = state.results[producer]
                        .get()
                        .expect("chunk-source pipeline launched before its producer");
                    // Non-positional chunks (hash tables, scalars, partials)
                    // cannot be sliced; the pipeline still runs, as a single
                    // morsel covering the whole input.
                    let sliceable =
                        matches!(chunk, Chunk::Column(_) | Chunk::Oids(_) | Chunk::Join(_));
                    (chunk.rows(), 0, sliceable, None)
                }
            };
            // Morsel size is resolved per pipeline launch: the adaptive
            // controller may have overridden the query's size since the
            // last pipeline started. Within one pipeline the size is fixed
            // (slice offsets and fan-out must agree).
            let morsel_rows = state.handle.morsel_rows_hint().unwrap_or(state.morsel_rows).max(1);
            let n_morsels = if sliceable { morsel_count(source_rows, morsel_rows) } else { 1 };
            let n_members = pipeline.member_nodes().len();
            let run = Arc::new(FusedRun {
                morsel_rows,
                n_morsels,
                source_rows,
                scan_start,
                parts: (0..n_morsels).map(|_| OnceLock::new()).collect(),
                remaining: AtomicUsize::new(n_morsels),
                stage_time_us: (0..n_members).map(|_| AtomicU64::new(0)).collect(),
                stage_rows: (0..n_members).map(|_| AtomicU64::new(0)).collect(),
                stage_bytes: (0..n_members).map(|_| AtomicU64::new(0)).collect(),
                morsels_by_worker: (0..state.n_workers).map(|_| AtomicU64::new(0)).collect(),
                queue_wait_us: AtomicU64::new(0),
                start_us: state.started.elapsed().as_micros() as u64,
                shared,
                morsels_shared: AtomicU64::new(0),
            });
            if state.fused_runs[step].set(run).is_err() {
                state.fail(EngineError::InvalidPlan(format!("step {step} launched twice")));
                return true;
            }
            for morsel in 0..n_morsels {
                let st = Arc::clone(state);
                let task = Task::new(Arc::clone(&state.handle), move |ctx| {
                    run_morsel(st, ctx, step, morsel)
                });
                if !submit(task) {
                    return false;
                }
            }
            true
        }
    }
}

/// Executes a single-node step whole — every step under operator-at-a-time,
/// pipeline breakers and unfusable nodes in morsel mode — then advances the
/// step graph.
fn run_single_step(state: Arc<QueryRun>, ctx: &TaskContext<'_>, step: usize, node: NodeId) {
    // A failed sibling already tore the query down; do nothing.
    if state.failed.load(Ordering::Acquire) {
        return;
    }
    if let Some(err) = liveness_error(&state.handle) {
        return state.fail(err);
    }
    let inject_panic = match state.inject_fault(node) {
        Ok(inject) => inject,
        Err(e) => return state.fail(e),
    };
    if let Err(e) = execute_and_publish(&state, ctx, node, inject_panic) {
        return state.fail(e);
    }
    // Keep a whole-node aggregate partial warm for the next query of the
    // same shape (grid 0: single steps execute unsliced).
    if let (Some(registry), Some(key)) = (&state.sharing, &state.partial_keys[step]) {
        if let Some(chunk) = state.results.get(node).and_then(OnceLock::get) {
            registry.partial_put(
                key.generation,
                &state.catalog,
                0,
                &key.signature,
                key.tables.clone(),
                chunk.clone(),
            );
        }
    }
    complete_step(&state, ctx, step);
}

/// Executes one morsel: slices the pipeline's source, streams the slice
/// through every fused stage, and stores the terminal partial output. The
/// last morsel to finish assembles and publishes.
fn run_morsel(state: Arc<QueryRun>, ctx: &TaskContext<'_>, step: usize, morsel: usize) {
    if state.failed.load(Ordering::Acquire) {
        return;
    }
    if let Some(err) = liveness_error(&state.handle) {
        return state.fail(err);
    }
    let Step::Fused(pipeline) = &state.dag.steps[step] else {
        return state.fail(EngineError::InvalidPlan(format!("step {step} is not a pipeline")));
    };
    let run = Arc::clone(
        state.fused_runs[step].get().expect("morsel dispatched before its step was launched"),
    );
    let morsel_rows = run.morsel_rows;

    // The morsel's slice of the pipeline source. Stream slices go through
    // `slice_part`, which preserves the `stream_base` alignment invariant
    // (see `crate::chunk::Chunk::Oids`).
    let mut member = 0;
    let mut cur: Chunk = match pipeline.source {
        PipelineSource::Scan { node } => {
            let spec = match state.plan.node(node) {
                Ok(n) => n.spec.clone(),
                Err(e) => return state.fail(e),
            };
            let OperatorSpec::ScanColumn { table, column, .. } = spec else {
                return state.fail(EngineError::InvalidPlan(format!(
                    "pipeline source {node} is not a scan"
                )));
            };
            let lo = run.scan_start + morsel * morsel_rows;
            let hi = (lo + morsel_rows).min(run.scan_start + run.source_rows);
            let sub = OperatorSpec::ScanColumn { table, column, range: RowRange::new(lo, hi) };
            let inject_panic = match state.inject_fault(node) {
                Ok(inject) => inject,
                Err(e) => return state.fail(e),
            };
            let started = Instant::now();
            // Produce-or-reuse through the scan group: the first member to
            // need this window executes the slice and publishes it; everyone
            // else (late attachers circling back for the prefix included)
            // reuses the published chunk. Fault-injected morsels bypass the
            // group — an injected panic must fail this query, never poison
            // (or be masked by) a window other members reuse.
            let produced = match &run.shared {
                Some(scan) if !inject_panic => scan
                    .window(lo, hi, || guarded_execute(node, &sub, &[], &state.catalog, false))
                    .map(|(chunk, shared)| {
                        if shared {
                            run.morsels_shared.fetch_add(1, Ordering::Relaxed);
                        }
                        state.handle.record_morsel(shared);
                        chunk
                    }),
                _ => guarded_execute(node, &sub, &[], &state.catalog, inject_panic)
                    .inspect(|_| state.handle.record_morsel(false)),
            };
            match produced {
                Ok(chunk) => {
                    run.record_stage(member, started, &chunk);
                    member = 1;
                    chunk
                }
                Err(e) => return state.fail(e),
            }
        }
        PipelineSource::Chunk { producer } => {
            let chunk = match state.results.get(producer).and_then(OnceLock::get) {
                Some(chunk) => chunk.clone(),
                None => {
                    return state.fail(EngineError::InvalidPlan(format!(
                        "pipeline over node {producer} ran before it completed"
                    )));
                }
            };
            if run.n_morsels == 1 {
                chunk
            } else {
                match slice_part(producer, &chunk, morsel * morsel_rows, morsel_rows) {
                    Ok(slice) => slice,
                    Err(e) => return state.fail(e),
                }
            }
        }
    };

    // Stream the morsel through the fused stages while it is cache-hot.
    for &stage in &pipeline.stages {
        let node_ref = match state.plan.node(stage) {
            Ok(n) => n.clone(),
            Err(e) => return state.fail(e),
        };
        let mut inputs: Vec<Chunk> = Vec::with_capacity(node_ref.inputs.len());
        inputs.push(cur);
        let aligned = node_ref.spec.aligned_inputs(node_ref.inputs.len());
        for (i, &input) in node_ref.inputs.iter().enumerate().skip(1) {
            let chunk = match state.results.get(input).and_then(OnceLock::get) {
                Some(chunk) => chunk,
                None => {
                    return state.fail(EngineError::InvalidPlan(format!(
                        "stage {stage} ran before its shared input {input} completed"
                    )));
                }
            };
            // A range-aligned secondary input (Calc col⊗col, IfThenElse)
            // zips positionally against the pipeline stream, so it must be
            // cut at the same relative window as the source morsel. The
            // analyzer only fuses these stages when nothing upstream has
            // compacted the stream, so the source's morsel grid applies
            // verbatim. A whole-length mismatch is surfaced here exactly as
            // operator-at-a-time would report it; without this check each
            // morsel-sized slice pair could happen to agree and silently
            // diverge from the serial semantics.
            let positional = matches!(chunk, Chunk::Column(_) | Chunk::Oids(_) | Chunk::Join(_));
            if run.n_morsels > 1 && aligned.get(i).copied().unwrap_or(false) && positional {
                if chunk.rows() != run.source_rows {
                    return state.fail(
                        apq_operators::OperatorError::LengthMismatch {
                            left: run.source_rows,
                            right: chunk.rows(),
                        }
                        .into(),
                    );
                }
                match slice_part(input, chunk, morsel * morsel_rows, morsel_rows) {
                    Ok(slice) => inputs.push(slice),
                    Err(e) => return state.fail(e),
                }
            } else {
                inputs.push(chunk.clone());
            }
        }
        let inject_panic = match state.inject_fault(stage) {
            Ok(inject) => inject,
            Err(e) => return state.fail(e),
        };
        let started = Instant::now();
        match guarded_execute(stage, &node_ref.spec, &inputs, &state.catalog, inject_panic) {
            Ok(chunk) => {
                run.record_stage(member, started, &chunk);
                member += 1;
                cur = chunk;
            }
            Err(e) => return state.fail(e),
        }
    }

    // Emulated overhead and delays apply once per morsel (the morsel is the
    // dispatch unit here), keyed on the pipeline terminal.
    state.emulate_delays(pipeline.terminal());

    run.morsels_by_worker[ctx.worker].fetch_add(1, Ordering::Relaxed);
    run.queue_wait_us.fetch_add(ctx.queue_wait.as_micros() as u64, Ordering::Relaxed);
    if run.parts[morsel].set(cur).is_err() {
        return state.fail(EngineError::InvalidPlan(format!(
            "morsel {morsel} of step {step} executed twice"
        )));
    }
    if run.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        assemble_pipeline(&state, ctx, step, pipeline, &run);
    }
}

/// Runs on the worker that finished a pipeline's last morsel: packs the
/// partial outputs in morsel order (the exchange-union recombination, so the
/// published chunk is byte-identical to whole-node execution), publishes the
/// terminal chunk and the per-node/per-pipeline profiles, and advances the
/// step graph.
fn assemble_pipeline(
    state: &Arc<QueryRun>,
    ctx: &TaskContext<'_>,
    step: usize,
    pipeline: &Pipeline,
    run: &FusedRun,
) {
    let terminal = pipeline.terminal();
    let members = pipeline.member_nodes();
    let terminal_member = members.len() - 1;

    let assembly_started = Instant::now();
    let final_chunk = if run.n_morsels == 1 {
        run.parts[0].get().cloned().expect("single morsel completed")
    } else {
        let parts: Vec<Chunk> =
            run.parts.iter().map(|p| p.get().cloned().expect("all morsels completed")).collect();
        match exchange_union(terminal, &parts) {
            Ok(chunk) => chunk,
            Err(e) => return state.fail(e),
        }
    };
    run.stage_time_us[terminal_member]
        .fetch_add(assembly_started.elapsed().as_micros() as u64, Ordering::Relaxed);

    for (i, &node) in members.iter().enumerate() {
        let node_ref = match state.plan.node(node) {
            Ok(n) => n.clone(),
            Err(e) => return state.fail(e),
        };
        let is_terminal = i == terminal_member;
        let profile = OperatorProfile {
            node,
            name: node_ref.spec.name(),
            start_us: run.start_us,
            duration_us: run.stage_time_us[i].load(Ordering::Relaxed),
            // The pipeline's accumulated morsel queue wait is attributed to
            // the terminal stage so query-level totals stay meaningful
            // without double counting per fused stage.
            queue_wait_us: if is_terminal { run.queue_wait_us.load(Ordering::Relaxed) } else { 0 },
            worker: ctx.worker,
            rows_out: if is_terminal {
                final_chunk.rows()
            } else {
                run.stage_rows[i].load(Ordering::Relaxed) as usize
            },
            bytes_out: if is_terminal {
                final_chunk.byte_size()
            } else {
                run.stage_bytes[i].load(Ordering::Relaxed) as usize
            },
        };
        if state.profiles[node].set(profile).is_err() {
            return state.fail(EngineError::InvalidPlan(format!("node {node} executed twice")));
        }
    }

    state.pipeline_profiles.lock().push(PipelineProfile {
        step,
        nodes: members,
        n_morsels: run.n_morsels,
        morsel_rows: run.morsel_rows,
        source_rows: run.source_rows,
        queue_wait_us: run.queue_wait_us.load(Ordering::Relaxed),
        morsels_by_worker: run
            .morsels_by_worker
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect(),
        morsels_shared: run.morsels_shared.load(Ordering::Relaxed),
        groupagg_fused: matches!(
            state.plan.node(terminal).map(|n| &n.spec),
            Ok(OperatorSpec::GroupAgg { .. })
        ),
    });

    // Keep the assembled aggregate partial warm for the next query of the
    // same shape ([`crate::sharing`] partial-aggregate reuse).
    if let (Some(registry), Some(key)) = (&state.sharing, &state.partial_keys[step]) {
        registry.partial_put(
            key.generation,
            &state.catalog,
            run.morsel_rows,
            &key.signature,
            key.tables.clone(),
            final_chunk.clone(),
        );
    }

    if state.results[terminal].set(final_chunk).is_err() {
        return state
            .fail(EngineError::InvalidPlan(format!("node {terminal} produced two results")));
    }
    complete_step(state, ctx, step);
}

/// Marks a step complete: launches consumer steps whose dependencies are now
/// all satisfied (their tasks go through the task context, so work-stealing
/// schedulers keep them on the publishing worker's deque) and finishes the
/// query when every step is done.
fn complete_step(state: &Arc<QueryRun>, ctx: &TaskContext<'_>, step: usize) {
    for &(consumer, edges) in &state.dag.out_edges[step] {
        let before = state.step_deps[consumer].fetch_sub(edges, Ordering::AcqRel);
        if before == edges {
            // A consumer satisfied from the partial cache already has its
            // terminal chunk seeded; it must never launch.
            if state.skipped[consumer] {
                continue;
            }
            launch_step(state, consumer, &|task| {
                ctx.submit(task);
                true
            });
        }
    }
    if state.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        state.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apq_columnar::partition::RowRange;
    use apq_columnar::{ScalarValue, TableBuilder};
    use apq_operators::{AggFunc, CmpOp, Predicate};

    use crate::plan::OperatorSpec;

    fn catalog(rows: usize) -> Arc<Catalog> {
        let mut c = Catalog::new();
        c.register(
            TableBuilder::new("t")
                .i64_column("a", (0..rows as i64).collect())
                .i64_column("b", (0..rows as i64).map(|v| v * 2).collect())
                .build()
                .unwrap(),
        );
        Arc::new(c)
    }

    fn scan(col: &str, rows: usize) -> OperatorSpec {
        OperatorSpec::ScanColumn {
            table: "t".into(),
            column: col.into(),
            range: RowRange::new(0, rows),
        }
    }

    /// Serial plan: sum(b) where a < threshold.
    fn filter_sum_plan(rows: usize, threshold: i64) -> Plan {
        let mut p = Plan::new();
        let a = p.add(scan("a", rows), vec![]);
        let sel = p
            .add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, threshold) }, vec![a]);
        let b = p.add(scan("b", rows), vec![]);
        let fetch = p.add(OperatorSpec::Fetch, vec![sel, b]);
        let agg = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![fetch]);
        let fin = p.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![agg]);
        p.set_root(fin);
        p
    }

    fn both_policies() -> [Engine; 2] {
        [
            Engine::new(EngineConfig::with_workers(2)),
            Engine::new(
                EngineConfig::with_workers(2).with_scheduler(SchedulerPolicy::WorkStealing),
            ),
        ]
    }

    #[test]
    fn executes_serial_plan() {
        for engine in both_policies() {
            let cat = catalog(1000);
            let plan = filter_sum_plan(1000, 10);
            let exec = engine.execute(&plan, &cat).unwrap();
            // sum of b over a in [0,10) = 2 * (0+..+9) = 90.
            assert_eq!(exec.output, QueryOutput::Scalar(ScalarValue::I64(90)));
            assert_eq!(exec.profile.operators.len(), 6);
            assert!(exec.profile.wall_us() > 0);
            assert!(exec.profile.most_expensive().is_some());
            // Every task's dispatch is recorded by the scheduler.
            assert_eq!(engine.scheduler_stats().total_executed(), 6);
        }
    }

    #[test]
    fn parallel_partitioned_plan_gives_same_answer() {
        let engine = Engine::with_workers(4);
        let cat = catalog(10_000);
        let serial = filter_sum_plan(10_000, 500);
        let serial_out = engine.execute(&serial, &cat).unwrap().output;

        // Hand-built two-partition version of the same query.
        let mut p = Plan::new();
        let a0 = p.add(
            OperatorSpec::ScanColumn {
                table: "t".into(),
                column: "a".into(),
                range: RowRange::new(0, 5_000),
            },
            vec![],
        );
        let a1 = p.add(
            OperatorSpec::ScanColumn {
                table: "t".into(),
                column: "a".into(),
                range: RowRange::new(5_000, 10_000),
            },
            vec![],
        );
        let pred = Predicate::cmp(CmpOp::Lt, 500i64);
        let s0 = p.add(OperatorSpec::Select { predicate: pred.clone() }, vec![a0]);
        let s1 = p.add(OperatorSpec::Select { predicate: pred }, vec![a1]);
        let b = p.add(scan("b", 10_000), vec![]);
        let f0 = p.add(OperatorSpec::Fetch, vec![s0, b]);
        let f1 = p.add(OperatorSpec::Fetch, vec![s1, b]);
        let g0 = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![f0]);
        let g1 = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![f1]);
        let fin = p.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![g0, g1]);
        p.set_root(fin);

        let exec = engine.execute(&p, &cat).unwrap();
        assert_eq!(exec.output, serial_out);
        // Both partitions' operators were profiled.
        assert_eq!(exec.profile.operators.len(), 10);
    }

    #[test]
    fn concurrent_queries_share_the_pool() {
        for policy in SchedulerPolicy::ALL {
            let engine =
                Arc::new(Engine::new(EngineConfig::with_workers(3).with_scheduler(policy)));
            let cat = catalog(5_000);
            let mut handles = Vec::new();
            for i in 0..8 {
                let engine = Arc::clone(&engine);
                let cat = Arc::clone(&cat);
                handles.push(std::thread::spawn(move || {
                    let plan = filter_sum_plan(5_000, 100 + i);
                    engine.execute(&plan, &cat).unwrap().output
                }));
            }
            for (i, h) in handles.into_iter().enumerate() {
                let out = h.join().unwrap();
                let threshold = 100 + i as i64;
                let expected: i64 = (0..threshold).map(|v| v * 2).sum();
                assert_eq!(out, QueryOutput::Scalar(ScalarValue::I64(expected)));
            }
        }
    }

    #[test]
    fn execution_errors_are_propagated() {
        for engine in both_policies() {
            let cat = catalog(10);
            // Division by zero in a calc node.
            let mut p = Plan::new();
            let a = p.add(scan("a", 10), vec![]);
            let div = p.add(
                OperatorSpec::Calc {
                    op: apq_operators::BinaryOp::Div,
                    left_scalar: None,
                    right_scalar: Some(ScalarValue::I64(0)),
                },
                vec![a],
            );
            p.set_root(div);
            let err = engine.execute(&p, &cat).unwrap_err();
            assert!(matches!(err, EngineError::Operator(_)));

            // Unknown table surfaces as a storage error.
            let mut p = Plan::new();
            let bad = p.add(
                OperatorSpec::ScanColumn {
                    table: "missing".into(),
                    column: "x".into(),
                    range: RowRange::new(0, 1),
                },
                vec![],
            );
            p.set_root(bad);
            assert!(engine.execute(&p, &cat).is_err());

            // Invalid plans are rejected before execution.
            let p = Plan::new();
            assert!(matches!(engine.execute(&p, &cat), Err(EngineError::InvalidPlan(_))));
        }
    }

    #[test]
    fn noise_and_overhead_inflate_operator_times() {
        let cat = catalog(100);
        let plan = filter_sum_plan(100, 50);
        let quiet = Engine::new(EngineConfig::with_workers(2));
        let slow = Engine::new(EngineConfig {
            per_operator_overhead_us: 500,
            ..EngineConfig::with_workers(2)
        });
        let q = quiet.execute(&plan, &cat).unwrap();
        let s = slow.execute(&plan, &cat).unwrap();
        assert_eq!(q.output, s.output);
        assert!(s.profile.total_cpu_us() > q.profile.total_cpu_us() + 1_000);

        // Site-keyed delays on every operator: timing-only, so the result
        // is unchanged and one delay fires per executed operator.
        let noisy = Engine::new(EngineConfig::with_workers(2).with_faults(FaultConfig {
            delay_probability: 1.0,
            max_delay_us: 300,
            ..FaultConfig::quiet(7)
        }));
        let n = noisy.execute(&plan, &cat).unwrap();
        assert_eq!(n.output, q.output);
        assert_eq!(noisy.fault_stats().delays, n.profile.operators.len() as u64);
    }

    #[test]
    fn engine_debug_and_config() {
        let engine = Engine::with_workers(2);
        assert_eq!(engine.n_workers(), 2);
        assert!(format!("{engine:?}").contains("n_workers"));
        assert_eq!(engine.config().per_operator_overhead_us, 0);
        assert_eq!(engine.config().scheduler, SchedulerPolicy::GlobalQueue);
        let default_cfg = EngineConfig::default();
        assert!(default_cfg.n_workers >= 1);
        assert_eq!(default_cfg.scheduler, SchedulerPolicy::GlobalQueue);
    }

    #[test]
    fn queue_wait_is_profiled() {
        // One worker, a plan with independent scans: whichever scan runs
        // second must have waited in the queue while the first executed.
        let engine = Engine::with_workers(1);
        let cat = catalog(50_000);
        let plan = filter_sum_plan(50_000, 1_000);
        let exec = engine.execute(&plan, &cat).unwrap();
        let total_wait: u64 = exec.profile.operators.iter().map(|o| o.queue_wait_us).sum();
        assert!(
            total_wait > 0,
            "no queue wait recorded on a single-worker engine: {:?}",
            exec.profile.operators
        );
        assert_eq!(exec.profile.total_queue_wait_us(), total_wait);
    }

    #[test]
    fn cancellation_aborts_the_query() {
        for engine in both_policies() {
            let cat = catalog(1_000);
            let plan = Arc::new(filter_sum_plan(1_000, 10));
            let handle = engine.register_query(QueryOptions::default());
            handle.cancel();
            let err = engine.execute_with_handle(&plan, &cat, handle).unwrap_err();
            assert_eq!(err, EngineError::Cancelled);
        }
    }

    #[test]
    fn admitted_dop_throttles_but_preserves_results() {
        for policy in SchedulerPolicy::ALL {
            let engine = Engine::new(EngineConfig::with_workers(4).with_scheduler(policy));
            let cat = catalog(10_000);
            let plan = Arc::new(filter_sum_plan(10_000, 500));
            let expected = engine.execute_shared(&plan, &cat).unwrap().output;
            let handle = engine.register_query(QueryOptions::with_admitted_dop(1));
            let exec = engine.execute_with_handle(&plan, &cat, handle).unwrap();
            assert_eq!(exec.output, expected, "{policy}: throttled run diverged");
        }
    }

    #[test]
    fn shared_plan_execution_avoids_replanning() {
        let engine = Engine::with_workers(2);
        let cat = catalog(2_000);
        let plan = Arc::new(filter_sum_plan(2_000, 20));
        let first = engine.execute_shared(&plan, &cat).unwrap().output;
        for _ in 0..3 {
            assert_eq!(engine.execute_shared(&plan, &cat).unwrap().output, first);
        }
    }

    #[test]
    fn morsel_mode_matches_operator_at_a_time() {
        let cat = catalog(10_000);
        let plan = filter_sum_plan(10_000, 500);
        let reference = Engine::with_workers(2).execute(&plan, &cat).unwrap();
        for policy in SchedulerPolicy::ALL {
            let engine = Engine::new(
                EngineConfig::with_workers(2)
                    .with_scheduler(policy)
                    .with_execution_mode(ExecutionMode::MorselDriven)
                    .with_morsel_rows(1_000),
            );
            let exec = engine.execute(&plan, &cat).unwrap();
            assert_eq!(exec.output, reference.output, "{policy}: morsel mode diverged");
            // Every live node still gets a profile.
            assert_eq!(exec.profile.operators.len(), reference.profile.operators.len());
            // The scan→select→fetch→agg chain fused: 10 morsels of 1000 rows.
            assert_eq!(exec.profile.pipelines.len(), 1);
            let pipeline = &exec.profile.pipelines[0];
            assert_eq!(pipeline.n_morsels, 10);
            assert_eq!(pipeline.source_rows, 10_000);
            assert_eq!(exec.profile.total_morsels(), 10);
            assert_eq!(
                exec.profile.morsels_by_worker().iter().sum::<u64>(),
                10,
                "{policy}: morsel worker counters incomplete"
            );
        }
    }

    #[test]
    fn morsel_mode_handles_errors_and_cancellation() {
        let engine = Engine::new(
            EngineConfig::with_workers(2).with_execution_mode(ExecutionMode::MorselDriven),
        );
        let cat = catalog(100);
        // Division by zero inside a fused stage fails the query cleanly.
        let mut p = Plan::new();
        let a = p.add(scan("a", 100), vec![]);
        let div = p.add(
            OperatorSpec::Calc {
                op: apq_operators::BinaryOp::Div,
                left_scalar: None,
                right_scalar: Some(ScalarValue::I64(0)),
            },
            vec![a],
        );
        p.set_root(div);
        assert!(matches!(engine.execute(&p, &cat), Err(EngineError::Operator(_))));

        // Cancellation before submission aborts the query.
        let plan = Arc::new(filter_sum_plan(100, 10));
        let handle = engine.register_query(QueryOptions::default());
        handle.cancel();
        let err = engine.execute_with_handle(&plan, &cat, handle).unwrap_err();
        assert_eq!(err, EngineError::Cancelled);

        // And the engine still executes healthy queries afterwards.
        let ok = engine.execute(&filter_sum_plan(100, 10), &cat).unwrap();
        assert_eq!(ok.output, QueryOutput::Scalar(ScalarValue::I64(90)));
    }

    #[test]
    fn morsel_mode_respects_admitted_dop() {
        for policy in SchedulerPolicy::ALL {
            let engine = Engine::new(
                EngineConfig::with_workers(4)
                    .with_scheduler(policy)
                    .with_execution_mode(ExecutionMode::MorselDriven)
                    .with_morsel_rows(512),
            );
            let cat = catalog(10_000);
            let plan = Arc::new(filter_sum_plan(10_000, 500));
            let expected = engine.execute_shared(&plan, &cat).unwrap().output;
            let handle = engine.register_query(QueryOptions::with_admitted_dop(1));
            let exec = engine.execute_with_handle(&plan, &cat, handle).unwrap();
            assert_eq!(exec.output, expected, "{policy}: throttled morsel run diverged");
        }
    }

    #[test]
    fn work_stealing_records_locality() {
        let engine = Engine::new(
            EngineConfig::with_workers(2).with_scheduler(SchedulerPolicy::WorkStealing),
        );
        let cat = catalog(20_000);
        // A serial chain: every follow-up is produced on a worker, so local
        // hits must appear.
        let plan = filter_sum_plan(20_000, 500);
        engine.execute(&plan, &cat).unwrap();
        let stats = engine.scheduler_stats();
        assert_eq!(stats.policy, "work-stealing");
        assert_eq!(stats.total_executed(), 6);
        assert!(
            stats.total_local_hits() > 0,
            "chained operators never hit the local deque: {stats:?}"
        );
    }
}
