//! Work sharing across concurrent queries: cooperative shared scans and
//! partial-aggregate reuse.
//!
//! The paper's motivating workload is "millions of users" submitting
//! overlapping analytical queries; the MonetDB/Vectorwise lineage it
//! evaluates against answers that pressure with **Cooperative Scans**
//! (Zukowski et al.): when N in-flight queries read the same table, the
//! buffer manager streams each page once and fans it to every attached
//! consumer, so the concurrent scans cost ~1 table pass instead of N. This
//! module is that idea adapted to the engine's morsel driver
//! ([`crate::pipeline`]), plus a noria-style partial-result layer on top.
//!
//! # Shared scans ([`ScanGroup`])
//!
//! A [`ScanRegistry`] keys one [`ScanGroup`] per `(catalog, table, column)`.
//! Pipelines whose source is a shareable scan
//! ([`crate::pipeline`]'s `Pipeline::shareable`) attach to the group for the
//! duration of their run; each morsel window the group's members need is
//! **produced exactly once** and published as a zero-copy `Column` window
//! (an `Arc` slice of the base column — the PR-1 `stream_base` invariant
//! guarantees the cached window is bit-for-bit what executing the scan on
//! that sub-range produces). The coordination protocol is *produce-or-reuse*,
//! never wait:
//!
//! - the first consumer to reach a window executes the scan slice and
//!   publishes it (a **private** morsel);
//! - every other consumer — including late attachers circling back for the
//!   prefix they missed, the elevator of the Cooperative Scans model — finds
//!   the window already published and reuses it (a **shared** morsel).
//!
//! Because no member ever blocks on another member's progress, detaching a
//! consumer mid-stream (cancellation, deadline expiry, injected fault) can
//! never stall the remaining members: detach is a counter decrement, and the
//! produced windows stay valid for whoever still needs them.
//!
//! # Partial-aggregate reuse
//!
//! Repeated query shapes re-aggregate the same subtree over and over. The
//! registry keeps a bounded LRU (the service caches' `LruMap`, so a lookup
//! is O(1)) of published **aggregate partials**
//! (`ScalarAgg` / `GroupAgg` pipeline terminals), keyed on the canonical
//! subtree signature ([`crate::plan::Plan::subtree_signature`]), the catalog
//! identity, and the morsel grid that produced them. A later query whose
//! fused decomposition contains a step with the same key resumes from the
//! cached partial instead of rescanning — the executor seeds the step's
//! terminal result and prunes every upstream step that fed only it. The
//! cache is chunk-typed: a fused `GroupAgg` terminal stores its
//! `Chunk::Grouped` partial (per-morsel group states merged in morsel
//! order, so first-occurrence key order and float merge order match
//! whole-column execution), and a repeated group-by resumes from it
//! exactly as a scalar aggregate does. The grid component of the key makes
//! any morsel-size drift (e.g. controller re-sizing) a safe miss.
//!
//! # Invalidation
//!
//! Groups and partials are pinned to a catalog *allocation* (`Weak<Catalog>`
//! identity), so swapping catalogs can never serve stale windows. Explicit
//! per-table invalidation ([`ScanRegistry::invalidate_table`]) drops the
//! table's groups **and** every cached partial whose subtree read the table;
//! [`ScanRegistry::invalidate_all`] flushes everything.
//!
//! Both also advance the registry's [`ScanRegistry::generation`]. A query
//! reads it when it starts and passes it to [`ScanRegistry::partial_put`],
//! which stores nothing once an invalidation has run since: a partial
//! computed before the flush never lands after it. Bump and check both run
//! under the partial cache's lock.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use apq_columnar::Catalog;

use crate::chunk::Chunk;
use crate::error::Result;
use crate::lru::LruMap;

/// Configuration of the work-sharing subsystem (shared scans +
/// partial-aggregate reuse). Enabled by attaching it to
/// [`crate::EngineConfig::sharing`] (builder:
/// [`crate::EngineConfig::with_sharing`]).
#[derive(Debug, Clone)]
pub struct SharingConfig {
    /// Maximum cached morsel windows per scan group. Windows are zero-copy
    /// `Arc` slices of the base column, so the bound caps bookkeeping, not
    /// data copies; once full, further windows execute privately without
    /// being published.
    pub max_windows_per_group: usize,
    /// Capacity of the partial-aggregate LRU (entries, across all queries).
    pub partial_cache_capacity: usize,
}

impl Default for SharingConfig {
    fn default() -> Self {
        SharingConfig { max_windows_per_group: 4096, partial_cache_capacity: 64 }
    }
}

impl SharingConfig {
    /// Sets the per-group window bound (builder style).
    pub fn with_max_windows_per_group(mut self, max: usize) -> Self {
        self.max_windows_per_group = max;
        self
    }

    /// Sets the partial-aggregate cache capacity (builder style).
    pub fn with_partial_cache_capacity(mut self, capacity: usize) -> Self {
        self.partial_cache_capacity = capacity;
        self
    }
}

/// Cumulative counters of the work-sharing subsystem, surfaced through
/// [`crate::Engine::sharing_stats`] and the service layer's
/// `ServiceStats::{scan_groups, morsels_shared, partials_reused}`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharingStats {
    /// Scan groups created since the engine started.
    pub scan_groups: u64,
    /// Morsels served from a group's published windows (work saved: each of
    /// these would have been a private scan slice without sharing).
    pub morsels_shared: u64,
    /// Morsels produced by executing the scan slice (exactly one per window
    /// in the steady state — the "~1 table pass" of the acceptance bar).
    pub morsels_private: u64,
    /// Aggregate steps served from the partial cache instead of rescanning.
    pub partials_reused: u64,
    /// Aggregate partials published into the cache.
    pub partials_stored: u64,
}

/// Shared monotonic counters, cloned into every group the registry creates.
#[derive(Debug, Default)]
struct SharingCounters {
    scan_groups: AtomicU64,
    morsels_shared: AtomicU64,
    morsels_private: AtomicU64,
    partials_reused: AtomicU64,
    partials_stored: AtomicU64,
}

/// Identity key of a scan group: the catalog *allocation* plus the scanned
/// table/column. The pointer is only ever compared, never dereferenced; the
/// group's `Weak<Catalog>` guards against an address being recycled by a
/// later allocation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct GroupKey {
    catalog: usize,
    table: String,
    column: String,
}

/// Per-`(catalog, table, column)` shared-scan coordinator: a bounded map of
/// published morsel windows plus membership accounting. See the module docs
/// for the produce-or-reuse protocol.
#[derive(Debug)]
pub struct ScanGroup {
    /// The catalog allocation the windows were produced against; a dead or
    /// different catalog makes every window unreachable (checked on attach).
    catalog: Weak<Catalog>,
    /// Published windows, keyed by the clamped `(lo, hi)` row range.
    windows: Mutex<HashMap<(usize, usize), Chunk>>,
    /// Currently attached consumers (pipelines mid-flight).
    members: AtomicUsize,
    /// Highest row bound any member has published — the stream frontier a
    /// late attacher circles back from (diagnostics; nothing blocks on it).
    frontier: AtomicUsize,
    max_windows: usize,
    counters: Arc<SharingCounters>,
}

impl ScanGroup {
    /// Currently attached consumers.
    pub fn members(&self) -> usize {
        self.members.load(Ordering::Acquire)
    }

    /// Highest row bound published by any member so far.
    pub fn frontier(&self) -> usize {
        self.frontier.load(Ordering::Relaxed)
    }

    /// The produce-or-reuse protocol for one morsel window `[lo, hi)`:
    /// returns the published window when a member already produced it
    /// (`true` = shared), otherwise runs `produce` and publishes the result
    /// (`false` = private). Two members racing on the same unpublished
    /// window both produce — the first publication wins, nobody waits.
    fn window(
        &self,
        lo: usize,
        hi: usize,
        produce: impl FnOnce() -> Result<Chunk>,
    ) -> Result<(Chunk, bool)> {
        if let Some(chunk) = self.windows.lock().get(&(lo, hi)) {
            self.counters.morsels_shared.fetch_add(1, Ordering::Relaxed);
            return Ok((chunk.clone(), true));
        }
        let chunk = produce()?;
        self.counters.morsels_private.fetch_add(1, Ordering::Relaxed);
        self.frontier.fetch_max(hi, Ordering::Relaxed);
        let mut windows = self.windows.lock();
        if windows.len() < self.max_windows {
            windows.entry((lo, hi)).or_insert_with(|| chunk.clone());
        }
        Ok((chunk, false))
    }
}

/// RAII membership of one pipeline in a [`ScanGroup`]: created by
/// [`ScanRegistry::attach`], detached (a counter decrement — never a wait)
/// on drop. Cancellation, deadline and fault paths drop the run state and
/// with it this guard, so a dying query can never stall the group.
#[derive(Debug)]
pub struct SharedScan {
    group: Arc<ScanGroup>,
}

impl SharedScan {
    /// Produce-or-reuse one morsel window; see [`ScanGroup`].
    pub fn window(
        &self,
        lo: usize,
        hi: usize,
        produce: impl FnOnce() -> Result<Chunk>,
    ) -> Result<(Chunk, bool)> {
        self.group.window(lo, hi, produce)
    }

    /// The group this membership belongs to.
    pub fn group(&self) -> &Arc<ScanGroup> {
        &self.group
    }
}

impl Drop for SharedScan {
    fn drop(&mut self) {
        self.group.members.fetch_sub(1, Ordering::AcqRel);
    }
}

/// One cached aggregate partial.
#[derive(Debug)]
struct PartialEntry {
    chunk: Chunk,
    /// Catalog allocation the partial was computed against.
    catalog: Weak<Catalog>,
    /// Tables the subtree read — the per-table invalidation key set.
    tables: Vec<String>,
}

/// The engine-wide work-sharing coordinator: scan groups + partial cache.
/// One per [`crate::Engine`] when sharing is enabled.
#[derive(Debug)]
pub struct ScanRegistry {
    config: SharingConfig,
    groups: Mutex<HashMap<GroupKey, Arc<ScanGroup>>>,
    partials: Mutex<LruMap<String, PartialEntry>>,
    /// Invalidations so far; bumped under the `partials` lock.
    generation: AtomicU64,
    counters: Arc<SharingCounters>,
}

impl ScanRegistry {
    /// Creates an empty registry.
    pub fn new(config: SharingConfig) -> Self {
        ScanRegistry {
            groups: Mutex::new(HashMap::new()),
            partials: Mutex::new(LruMap::new(config.partial_cache_capacity)),
            generation: AtomicU64::new(0),
            counters: Arc::new(SharingCounters::default()),
            config,
        }
    }

    /// Attaches a consumer to the `(catalog, table, column)` scan group,
    /// creating the group on first touch. A group found pinned to a dead or
    /// different catalog allocation (the address was recycled) is replaced
    /// wholesale — stale windows are unreachable by construction.
    pub fn attach(&self, catalog: &Arc<Catalog>, table: &str, column: &str) -> SharedScan {
        let key = GroupKey {
            catalog: Arc::as_ptr(catalog) as usize,
            table: table.to_string(),
            column: column.to_string(),
        };
        let mut groups = self.groups.lock();
        let group = groups
            .entry(key)
            .and_modify(|g| {
                let live = g.catalog.upgrade().is_some_and(|c| Arc::ptr_eq(&c, catalog));
                if !live {
                    *g = Self::new_group(catalog, &self.config, &self.counters);
                }
            })
            .or_insert_with(|| Self::new_group(catalog, &self.config, &self.counters));
        group.members.fetch_add(1, Ordering::AcqRel);
        SharedScan { group: Arc::clone(group) }
    }

    fn new_group(
        catalog: &Arc<Catalog>,
        config: &SharingConfig,
        counters: &Arc<SharingCounters>,
    ) -> Arc<ScanGroup> {
        counters.scan_groups.fetch_add(1, Ordering::Relaxed);
        Arc::new(ScanGroup {
            catalog: Arc::downgrade(catalog),
            windows: Mutex::new(HashMap::new()),
            members: AtomicUsize::new(0),
            frontier: AtomicUsize::new(0),
            max_windows: config.max_windows_per_group.max(1),
            counters: Arc::clone(counters),
        })
    }

    /// Looks up a cached aggregate partial for `(catalog, grid, signature)`.
    /// Entries pinned to a dead or different catalog allocation are evicted
    /// on sight instead of served.
    pub fn partial_get(
        &self,
        catalog: &Arc<Catalog>,
        morsel_rows: usize,
        signature: &str,
    ) -> Option<Chunk> {
        let key = Self::partial_key(catalog, morsel_rows, signature);
        let mut cache = self.partials.lock();
        let entry = cache.get(&key)?;
        if !entry.catalog.upgrade().is_some_and(|c| Arc::ptr_eq(&c, catalog)) {
            cache.remove(&key);
            return None;
        }
        let chunk = entry.chunk.clone();
        self.counters.partials_reused.fetch_add(1, Ordering::Relaxed);
        Some(chunk)
    }

    /// The invalidation count. A query reads it when it starts and hands it
    /// to [`ScanRegistry::partial_put`].
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Publishes an aggregate partial, evicting the least recently used
    /// entry when the cache is full. Stores nothing when an invalidation ran
    /// since `generation` was read ([`ScanRegistry::generation`]).
    pub fn partial_put(
        &self,
        generation: u64,
        catalog: &Arc<Catalog>,
        morsel_rows: usize,
        signature: &str,
        tables: Vec<String>,
        chunk: Chunk,
    ) {
        let key = Self::partial_key(catalog, morsel_rows, signature);
        let mut cache = self.partials.lock();
        if self.generation.load(Ordering::Acquire) != generation {
            return;
        }
        let entry = PartialEntry { chunk, catalog: Arc::downgrade(catalog), tables };
        if cache.insert(key, entry) {
            self.counters.partials_stored.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn partial_key(catalog: &Arc<Catalog>, morsel_rows: usize, signature: &str) -> String {
        format!("{:x}/{morsel_rows}/{signature}", Arc::as_ptr(catalog) as usize)
    }

    /// Drops every scan group over `table` and every cached partial whose
    /// subtree read `table` — the service layer calls this alongside its
    /// result-cache invalidation so a mutated table can never serve stale
    /// windows or partials.
    pub fn invalidate_table(&self, table: &str) {
        self.groups.lock().retain(|key, _| key.table != table);
        let mut cache = self.partials.lock();
        self.generation.fetch_add(1, Ordering::Release);
        cache.retain(|entry| !entry.tables.iter().any(|t| t == table));
    }

    /// Flushes every scan group and cached partial (catalog swaps, global
    /// invalidation).
    pub fn invalidate_all(&self) {
        self.groups.lock().clear();
        let mut cache = self.partials.lock();
        self.generation.fetch_add(1, Ordering::Release);
        cache.clear();
    }

    /// Scan groups currently registered (post-invalidation live count).
    pub fn live_groups(&self) -> usize {
        self.groups.lock().len()
    }

    /// Cached partials currently held.
    pub fn live_partials(&self) -> usize {
        self.partials.lock().len()
    }

    /// Snapshot of the cumulative counters.
    pub fn stats(&self) -> SharingStats {
        SharingStats {
            scan_groups: self.counters.scan_groups.load(Ordering::Relaxed),
            morsels_shared: self.counters.morsels_shared.load(Ordering::Relaxed),
            morsels_private: self.counters.morsels_private.load(Ordering::Relaxed),
            partials_reused: self.counters.partials_reused.load(Ordering::Relaxed),
            partials_stored: self.counters.partials_stored.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apq_columnar::TableBuilder;

    fn catalog(rows: usize) -> Arc<Catalog> {
        let mut c = Catalog::new();
        c.register(
            TableBuilder::new("t").i64_column("v", (0..rows as i64).collect()).build().unwrap(),
        );
        Arc::new(c)
    }

    fn produce(cat: &Arc<Catalog>, lo: usize, hi: usize) -> Result<Chunk> {
        let col = cat.table("t").unwrap().column("v").unwrap();
        let end = hi.min(col.len());
        let start = lo.min(end);
        Ok(Chunk::Column(col.slice(start, end - start).unwrap()))
    }

    #[test]
    fn second_consumer_reuses_published_windows() {
        let reg = ScanRegistry::new(SharingConfig::default());
        let cat = catalog(100);
        let first = reg.attach(&cat, "t", "v");
        let second = reg.attach(&cat, "t", "v");
        assert_eq!(first.group().members(), 2);

        let (a, shared) = first.window(0, 50, || produce(&cat, 0, 50)).unwrap();
        assert!(!shared, "first producer must be private");
        let (b, shared) = second.window(0, 50, || panic!("window must be reused")).unwrap();
        assert!(shared);
        assert_eq!(a.rows(), b.rows());
        assert_eq!(first.group().frontier(), 50);

        let stats = reg.stats();
        assert_eq!(stats.scan_groups, 1);
        assert_eq!(stats.morsels_private, 1);
        assert_eq!(stats.morsels_shared, 1);
    }

    #[test]
    fn detach_is_a_counter_decrement() {
        let reg = ScanRegistry::new(SharingConfig::default());
        let cat = catalog(10);
        let a = reg.attach(&cat, "t", "v");
        let b = reg.attach(&cat, "t", "v");
        let group = Arc::clone(b.group());
        drop(a); // a "cancelled" member leaves without touching b
        assert_eq!(group.members(), 1);
        let (_, shared) = b.window(0, 10, || produce(&cat, 0, 10)).unwrap();
        assert!(!shared, "survivor still produces normally");
        drop(b);
        assert_eq!(group.members(), 0);
        // Windows survive the last detach: a later query still reuses them.
        let late = reg.attach(&cat, "t", "v");
        let (_, shared) = late.window(0, 10, || panic!("must reuse")).unwrap();
        assert!(shared);
    }

    #[test]
    fn window_bound_caps_publication_not_execution() {
        let reg = ScanRegistry::new(SharingConfig::default().with_max_windows_per_group(1));
        let cat = catalog(100);
        let scan = reg.attach(&cat, "t", "v");
        let (_, s1) = scan.window(0, 10, || produce(&cat, 0, 10)).unwrap();
        let (_, s2) = scan.window(10, 20, || produce(&cat, 10, 20)).unwrap();
        assert!(!s1 && !s2);
        // The second window was produced but not published (bound hit).
        let (_, shared) = scan.window(10, 20, || produce(&cat, 10, 20)).unwrap();
        assert!(!shared);
        // The first window is still served.
        let (_, shared) = scan.window(0, 10, || panic!("must reuse")).unwrap();
        assert!(shared);
    }

    #[test]
    fn catalog_identity_gates_reuse() {
        let reg = ScanRegistry::new(SharingConfig::default());
        let cat1 = catalog(10);
        let scan = reg.attach(&cat1, "t", "v");
        scan.window(0, 10, || produce(&cat1, 0, 10)).unwrap();
        drop(scan);
        drop(cat1); // allocation dies; a recycled address must not serve it
        let cat2 = catalog(10);
        let scan = reg.attach(&cat2, "t", "v");
        // Either a fresh group (different address) or a replaced group (same
        // address, dead weak): both must produce privately.
        let (_, shared) = scan.window(0, 10, || produce(&cat2, 0, 10)).unwrap();
        assert!(!shared);
    }

    #[test]
    fn partial_cache_round_trips_and_bounds() {
        let reg = ScanRegistry::new(SharingConfig::default().with_partial_cache_capacity(2));
        let cat = catalog(10);
        let chunk = produce(&cat, 0, 10).unwrap();
        reg.partial_put(reg.generation(), &cat, 64, "sig-a", vec!["t".into()], chunk.clone());
        reg.partial_put(reg.generation(), &cat, 64, "sig-b", vec!["t".into()], chunk.clone());
        assert!(reg.partial_get(&cat, 64, "sig-a").is_some());
        // Different grid or signature: miss.
        assert!(reg.partial_get(&cat, 32, "sig-a").is_none());
        assert!(reg.partial_get(&cat, 64, "sig-c").is_none());
        // Capacity 2: inserting a third evicts the coldest (sig-b; sig-a was
        // touched by the get above).
        reg.partial_put(reg.generation(), &cat, 64, "sig-c", vec!["t".into()], chunk.clone());
        assert!(reg.partial_get(&cat, 64, "sig-b").is_none());
        assert!(reg.partial_get(&cat, 64, "sig-a").is_some());
        assert_eq!(reg.live_partials(), 2);
        let stats = reg.stats();
        assert_eq!(stats.partials_stored, 3);
        assert!(stats.partials_reused >= 2);
    }

    #[test]
    fn invalidation_flushes_groups_and_partials() {
        let reg = ScanRegistry::new(SharingConfig::default());
        let cat = catalog(10);
        let scan = reg.attach(&cat, "t", "v");
        scan.window(0, 10, || produce(&cat, 0, 10)).unwrap();
        reg.partial_put(
            reg.generation(),
            &cat,
            64,
            "sig",
            vec!["t".into()],
            produce(&cat, 0, 10).unwrap(),
        );
        reg.partial_put(
            reg.generation(),
            &cat,
            64,
            "other",
            vec!["u".into()],
            produce(&cat, 0, 10).unwrap(),
        );
        assert_eq!(reg.live_groups(), 1);
        assert_eq!(reg.live_partials(), 2);

        reg.invalidate_table("t");
        assert_eq!(reg.live_groups(), 0, "table groups flushed");
        assert_eq!(reg.live_partials(), 1, "only partials reading t flushed");
        assert!(reg.partial_get(&cat, 64, "sig").is_none());
        assert!(reg.partial_get(&cat, 64, "other").is_some());

        // The old membership still detaches cleanly after invalidation.
        drop(scan);

        reg.invalidate_all();
        assert_eq!(reg.live_partials(), 0);
        // A partial computed before an invalidation is not stored after it.
        let started = reg.generation();
        reg.invalidate_table("t");
        reg.partial_put(started, &cat, 64, "sig", vec!["t".into()], produce(&cat, 0, 10).unwrap());
        assert_eq!(reg.live_partials(), 0);
        // A fresh attach after invalidation produces privately again.
        let scan = reg.attach(&cat, "t", "v");
        let (_, shared) = scan.window(0, 10, || produce(&cat, 0, 10)).unwrap();
        assert!(!shared);
    }
}
