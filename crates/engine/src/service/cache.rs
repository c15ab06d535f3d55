//! Shared caches of the query service: a plan cache keyed on plan shape
//! and a bounded result cache with explicit invalidation.
//!
//! Both caches key on [`PlanKey`] ([`Plan::key`]): the canonical structural
//! encoding of the DAG including every operator parameter, rendered and
//! hashed once per plan value. Two clients building "the same query" hit
//! the same entry while "same shape, different constants" never collides.
//! A resubmitted plan value already carries its key, so a hit is a hash
//! lookup: no signature rendering, no scan over the cached keys.
//!
//! **Keying rules** (also documented in `docs/architecture.md` §8):
//!
//! * plan cache: `key → Arc<Plan>`. A hit skips the deep plan clone
//!   and re-validation setup of a cold submission and executes via the
//!   engine's shared-plan path ([`crate::Engine::execute_shared`] style);
//!   results are byte-identical by construction since the *same* plan
//!   object is executed.
//! * result cache: `key → (QueryOutput, referenced tables)`. A hit
//!   returns the stored output without touching the engine, so it is only
//!   correct while the underlying tables are unchanged — any mutation must
//!   call [`ResultCache::invalidate_table`] (or swap the catalog, which
//!   invalidates everything).
//!
//! Both caches are bounded by the one [`LruMap`]: insertion beyond capacity
//! evicts the least recently *used* entry (lookups refresh recency). A
//! lookup is O(1); the eviction scan runs only on an overflowing insert.
//!
//! **Invalidation generation.** A miss that read the catalog before an
//! invalidation must not insert its result after the flush: later
//! submissions would be served the pre-invalidation output. The result
//! cache counts invalidations; a miss reads [`ResultCache::generation`]
//! before its catalog snapshot and inserts through
//! [`ResultCache::insert_since`], which stores nothing when the count moved.
//! Both the bump and the check run under the cache lock.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::chunk::QueryOutput;
use crate::lru::LruMap;
use crate::plan::{Plan, PlanKey};

/// What a cache lookup accepts: a [`PlanKey`], or signature text that is
/// hashed into one on the spot.
pub(crate) trait CacheProbe {
    fn plan_key(&self) -> Cow<'_, PlanKey>;
}

impl CacheProbe for PlanKey {
    fn plan_key(&self) -> Cow<'_, PlanKey> {
        Cow::Borrowed(self)
    }
}

impl CacheProbe for str {
    fn plan_key(&self) -> Cow<'_, PlanKey> {
        Cow::Owned(PlanKey::from(self))
    }
}

/// Shared plan cache: plan key → [`Arc<Plan>`]. Bounded, LRU.
pub(crate) struct PlanCache {
    entries: Mutex<LruMap<PlanKey, Arc<Plan>>>,
}

impl PlanCache {
    pub(crate) fn new(capacity: usize) -> Self {
        PlanCache { entries: Mutex::new(LruMap::new(capacity)) }
    }

    /// Returns the cached shared plan for `key`, or inserts one built by
    /// cloning `plan`. The boolean is `true` on a hit.
    pub(crate) fn get_or_insert(&self, key: &PlanKey, plan: &Plan) -> (Arc<Plan>, bool) {
        let mut entries = self.entries.lock();
        if let Some(shared) = entries.get(key) {
            return (Arc::clone(shared), true);
        }
        let shared = Arc::new(plan.clone());
        entries.insert(key.clone(), Arc::clone(&shared));
        (shared, false)
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.lock().len()
    }
}

/// One stored result: the output plus the tables it was computed from
/// (the invalidation keys).
struct CachedResult {
    output: QueryOutput,
    tables: Vec<String>,
}

/// Shared result cache: plan key → output. Bounded, LRU, with explicit
/// per-table and whole-cache invalidation guarded by a generation count.
pub(crate) struct ResultCache {
    entries: Mutex<LruMap<PlanKey, CachedResult>>,
    /// Invalidations so far; bumped under the `entries` lock.
    generation: AtomicU64,
}

impl ResultCache {
    pub(crate) fn new(capacity: usize) -> Self {
        ResultCache { entries: Mutex::new(LruMap::new(capacity)), generation: AtomicU64::new(0) }
    }

    pub(crate) fn get<Q: CacheProbe + ?Sized>(&self, key: &Q) -> Option<QueryOutput> {
        let key = key.plan_key();
        self.entries.lock().get(key.as_ref()).map(|r| r.output.clone())
    }

    /// The invalidation count. A miss reads it before taking its catalog
    /// snapshot and hands it to [`ResultCache::insert_since`].
    pub(crate) fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Inserts unless an invalidation ran since `generation` was read;
    /// returns whether the entry was stored.
    pub(crate) fn insert_since(
        &self,
        generation: u64,
        key: PlanKey,
        output: QueryOutput,
        tables: Vec<String>,
    ) -> bool {
        let mut entries = self.entries.lock();
        if self.generation.load(Ordering::Acquire) != generation {
            return false;
        }
        entries.insert(key, CachedResult { output, tables });
        true
    }

    #[cfg(test)]
    fn insert(&self, key: PlanKey, output: QueryOutput, tables: Vec<String>) {
        self.insert_since(self.generation(), key, output, tables);
    }

    /// Drops every entry computed from `table`; returns how many.
    pub(crate) fn invalidate_table(&self, table: &str) -> usize {
        let mut entries = self.entries.lock();
        self.generation.fetch_add(1, Ordering::Release);
        entries.retain(|r| !r.tables.iter().any(|t| t == table))
    }

    /// Drops everything; returns how many entries were held.
    pub(crate) fn invalidate_all(&self) -> usize {
        let mut entries = self.entries.lock();
        self.generation.fetch_add(1, Ordering::Release);
        entries.clear()
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apq_columnar::ScalarValue;

    fn out(v: i64) -> QueryOutput {
        QueryOutput::Scalar(ScalarValue::I64(v))
    }

    #[test]
    fn lru_evicts_coldest_and_lookups_refresh() {
        let cache = ResultCache::new(2);
        cache.insert("a".into(), out(1), vec![]);
        cache.insert("b".into(), out(2), vec![]);
        // Touch `a` so `b` is the coldest entry, then overflow.
        assert!(cache.get("a").is_some());
        cache.insert("c".into(), out(3), vec![]);
        assert_eq!(cache.len(), 2);
        assert!(cache.get("b").is_none(), "coldest entry was evicted");
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());
    }

    #[test]
    fn reinserting_a_key_does_not_grow_the_cache() {
        let cache = ResultCache::new(2);
        cache.insert("a".into(), out(1), vec![]);
        cache.insert("a".into(), out(2), vec![]);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get("a"), Some(out(2)));
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let cache = ResultCache::new(0);
        cache.insert("a".into(), out(1), vec![]);
        assert_eq!(cache.len(), 0);
        assert!(cache.get("a").is_none());
    }

    #[test]
    fn table_invalidation_is_selective() {
        let cache = ResultCache::new(8);
        cache.insert("q1".into(), out(1), vec!["orders".into()]);
        cache.insert("q2".into(), out(2), vec!["orders".into(), "lineitem".into()]);
        cache.insert("q3".into(), out(3), vec!["part".into()]);
        assert_eq!(cache.invalidate_table("orders"), 2);
        assert!(cache.get("q1").is_none());
        assert!(cache.get("q2").is_none());
        assert!(cache.get("q3").is_some());
        assert_eq!(cache.invalidate_all(), 1);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn inserts_read_before_an_invalidation_are_dropped() {
        let cache = ResultCache::new(8);
        let before = cache.generation();
        cache.invalidate_table("orders");
        assert!(!cache.insert_since(before, "q".into(), out(1), vec!["orders".into()]));
        assert_eq!(cache.len(), 0);
        assert!(cache.insert_since(cache.generation(), "q".into(), out(1), vec![]));
        assert_eq!(cache.get("q"), Some(out(1)));
    }
}
