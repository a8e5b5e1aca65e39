//! The bounded verdict map under every verdict cache.
//!
//! Production's one verdict cache is the service's content-keyed,
//! sharded, single-flight cache; each of its shards holds one
//! [`VerdictCache`] behind its own lock.

use std::collections::HashMap;
use std::hash::Hash;

/// A bounded verdict memo with least-recently-used-ish eviction.
///
/// Every distinct array *content* would otherwise hold its entry
/// forever. `VerdictCache` caps the entry count explicitly;
/// when an insert would exceed the capacity, the entry with the oldest
/// recency stamp is evicted (a linear min-scan — exact LRU order is not
/// worth a linked list at the capacities the runtime uses, and the scan
/// only runs on inserts into a full cache).
///
/// The type is deliberately not internally synchronized: the service's
/// sharded cache wraps one per shard — locking granularity is the
/// caller's concern.
#[derive(Debug)]
pub struct VerdictCache<K, V> {
    cap: usize,
    tick: u64,
    evictions: u64,
    map: HashMap<K, (u64, V)>,
}

impl<K: Eq + Hash + Clone, V> VerdictCache<K, V> {
    /// A cache holding at most `cap` entries (clamped to at least 1).
    pub fn with_capacity(cap: usize) -> VerdictCache<K, V> {
        VerdictCache {
            cap: cap.max(1),
            tick: 0,
            evictions: 0,
            map: HashMap::new(),
        }
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Current entry count (always `<= capacity()`).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entry is held.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Entries evicted under capacity pressure so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Looks up `key`, refreshing its recency stamp on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(key) {
            Some((stamp, v)) => {
                *stamp = tick;
                Some(v)
            }
            None => None,
        }
    }

    /// Inserts (or replaces) `key`, evicting the stalest entry first if
    /// the cache is full. Returns the evicted key, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<K> {
        self.tick += 1;
        let mut evicted = None;
        if !self.map.contains_key(&key) && self.map.len() >= self.cap {
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&victim);
                self.evictions += 1;
                evicted = Some(victim);
            }
        }
        self.map.insert(key, (self.tick, value));
        evicted
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.map.remove(key).map(|(_, v)| v)
    }

    /// Drops every entry (the eviction counter is kept).
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Iterates over `(key, value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.map.iter().map(|(k, (_, v))| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_cache_evicts_stalest_under_pressure() {
        let mut c: VerdictCache<u32, &str> = VerdictCache::with_capacity(3);
        assert!(c.insert(1, "a").is_none());
        assert!(c.insert(2, "b").is_none());
        assert!(c.insert(3, "c").is_none());
        assert_eq!(c.len(), 3);
        // Touch 1 and 2 so 3 is the stalest.
        assert_eq!(c.get(&1), Some(&"a"));
        assert_eq!(c.get(&2), Some(&"b"));
        assert_eq!(c.insert(4, "d"), Some(3));
        assert_eq!((c.len(), c.evictions()), (3, 1));
        assert!(c.get(&3).is_none(), "victim is gone");
        assert_eq!(c.get(&4), Some(&"d"));
        // Replacing an existing key under a full cache evicts nothing.
        assert!(c.insert(4, "d2").is_none());
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn verdict_cache_capacity_is_clamped_to_one() {
        let mut c: VerdictCache<u8, u8> = VerdictCache::with_capacity(0);
        assert_eq!(c.capacity(), 1);
        assert!(c.insert(1, 10).is_none());
        assert_eq!(c.insert(2, 20), Some(1));
        assert_eq!((c.len(), c.get(&2)), (1, Some(&20)));
    }
}
