//! A bounded map with exact least-recently-used eviction: the one LRU behind
//! the service layer's plan and result caches ([`crate::service`]) and the
//! sharing layer's partial-aggregate cache ([`crate::sharing`]).
//!
//! Every entry carries the tick of its last use, taken from a per-map clock
//! that `get` hits and `insert`s advance. A hit is a hash lookup plus a tick
//! store, O(1) whatever the capacity. Only an insert that overflows the
//! capacity scans for the minimum tick (O(capacity)); that happens on a
//! cache miss, which has already paid for an execution. Ticks are unique,
//! so the evicted entry is exactly the least recently used one.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// Bounded map with least-recently-used eviction; see the module docs.
#[derive(Debug)]
pub(crate) struct LruMap<K, V> {
    capacity: usize,
    /// Last tick handed out; every hit and insert takes the next one.
    clock: u64,
    /// Value and last-use tick per key.
    map: HashMap<K, (V, u64)>,
}

impl<K: Hash + Eq + Clone, V> LruMap<K, V> {
    /// An empty map holding at most `capacity` entries (`0` stores nothing).
    pub(crate) fn new(capacity: usize) -> Self {
        LruMap { capacity, clock: 0, map: HashMap::new() }
    }

    /// The value under `key`, marked most recently used.
    pub(crate) fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let (value, last_use) = self.map.get_mut(key)?;
        self.clock += 1;
        *last_use = self.clock;
        Some(value)
    }

    /// Stores `value` under `key` as the most recently used entry, replacing
    /// any previous value. When a new key overflows the capacity, the least
    /// recently used entry is evicted. Returns `true` when the key was new
    /// and stored.
    pub(crate) fn insert(&mut self, key: K, value: V) -> bool {
        if self.capacity == 0 {
            return false;
        }
        self.clock += 1;
        let fresh = self.map.insert(key, (value, self.clock)).is_none();
        if self.map.len() > self.capacity {
            let coldest = self
                .map
                .iter()
                .min_by_key(|(_, (_, last_use))| *last_use)
                .map(|(k, _)| k.clone())
                .expect("an over-capacity map is not empty");
            self.map.remove(&coldest);
        }
        fresh
    }

    /// Removes `key`, returning its value.
    pub(crate) fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.remove(key).map(|(value, _)| value)
    }

    /// Keeps only the entries whose value passes `keep`; returns how many
    /// were dropped.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&V) -> bool) -> usize {
        let before = self.map.len();
        self.map.retain(|_, (value, _)| keep(value));
        before - self.map.len()
    }

    /// Drops everything; returns how many entries were held.
    pub(crate) fn clear(&mut self) -> usize {
        let n = self.map.len();
        self.map.clear();
        n
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_follows_last_use_exactly() {
        let mut lru: LruMap<&str, i32> = LruMap::new(3);
        assert!(lru.insert("a", 1));
        assert!(lru.insert("b", 2));
        assert!(lru.insert("c", 3));
        // Recency now (coldest first): a b c → touch a, re-insert b.
        assert_eq!(lru.get("a"), Some(&1));
        assert!(!lru.insert("b", 20), "re-insert replaces in place");
        // Order: c a b. Two overflows evict c, then a.
        lru.insert("d", 4);
        assert!(lru.get("c").is_none());
        lru.insert("e", 5);
        assert!(lru.get("a").is_none());
        assert_eq!(lru.get("b"), Some(&20));
        assert_eq!(lru.len(), 3);
    }

    #[test]
    fn remove_retain_and_clear() {
        let mut lru: LruMap<String, i32> = LruMap::new(4);
        for (k, v) in [("a", 1), ("b", 2), ("c", 3)] {
            lru.insert(k.to_string(), v);
        }
        assert_eq!(lru.remove("b"), Some(2));
        assert_eq!(lru.retain(|v| *v > 1), 1);
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.clear(), 1);
        assert!(!LruMap::<String, i32>::new(0).insert("x".into(), 1));
    }
}
