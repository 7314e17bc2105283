//! The 2Q cache replacement policy (Johnson & Shasha, VLDB '94).

use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasher;

use shhc_types::FingerprintBuildHasher;

use crate::stats::RECENT_HALF_LIFE;
use crate::{Cache, CacheKey, CacheStats, LruCache, WindowedHitRate};

/// 2Q: a FIFO admission queue (`A1in`), a ghost queue of recently evicted
/// keys (`A1out`), and a main LRU (`Am`).
///
/// A key only enters the main LRU on its *second* miss within the ghost
/// window, filtering out one-shot fingerprints even more aggressively than
/// [`crate::SegmentedLruCache`]. Included as an ablation point for the
/// hybrid node's RAM-cache policy.
///
/// # Examples
///
/// ```
/// use shhc_cache::{Cache, TwoQCache};
///
/// let mut c = TwoQCache::new(8);
/// c.insert(1u32, "v");
/// assert!(c.peek(&1));
/// ```
#[derive(Debug, Clone)]
pub struct TwoQCache<K, V, S = FingerprintBuildHasher> {
    a1in: LruCache<K, V, S>,
    /// Ghost keys (no values). `ghost_seq` orders them FIFO; stale deque
    /// entries are skipped lazily.
    a1out: HashMap<K, u64, S>,
    ghost_fifo: VecDeque<(K, u64)>,
    ghost_cap: usize,
    next_seq: u64,
    am: LruCache<K, V, S>,
    stats: CacheStats,
    recent: WindowedHitRate,
}

impl<K: CacheKey, V> TwoQCache<K, V> {
    /// Creates a 2Q cache with `capacity` resident entries, using the
    /// classic split: 25 % `A1in`, 75 % `Am`, ghost list of `capacity/2`
    /// keys.
    ///
    /// # Panics
    ///
    /// Panics if `capacity < 4` (the split needs at least one slot per
    /// queue).
    pub fn new(capacity: usize) -> Self {
        Self::with_hasher(capacity, FingerprintBuildHasher)
    }
}

impl<K: CacheKey, V, S: BuildHasher + Clone> TwoQCache<K, V, S> {
    /// Like [`TwoQCache::new`] with an explicit hash-state builder
    /// (cloned into each of the three queues).
    ///
    /// # Panics
    ///
    /// Panics if `capacity < 4`.
    pub fn with_hasher(capacity: usize, hasher: S) -> Self {
        assert!(capacity >= 4, "2Q needs capacity ≥ 4");
        let a1in_cap = (capacity / 4).max(1);
        let am_cap = capacity - a1in_cap;
        TwoQCache {
            a1in: LruCache::with_hasher(a1in_cap, hasher.clone()),
            a1out: HashMap::with_hasher(hasher.clone()),
            ghost_fifo: VecDeque::new(),
            ghost_cap: (capacity / 2).max(1),
            next_seq: 0,
            am: LruCache::with_hasher(am_cap, hasher),
            stats: CacheStats::default(),
            recent: WindowedHitRate::new(RECENT_HALF_LIFE),
        }
    }
}

impl<K: CacheKey, V, S: BuildHasher> TwoQCache<K, V, S> {
    fn ghost_insert(&mut self, key: K) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.a1out.insert(key.clone(), seq);
        self.ghost_fifo.push_back((key, seq));
        while self.a1out.len() > self.ghost_cap {
            if let Some((k, s)) = self.ghost_fifo.pop_front() {
                // Only evict if this deque entry is the live one.
                if self.a1out.get(&k) == Some(&s) {
                    self.a1out.remove(&k);
                }
            } else {
                break;
            }
        }
    }

    fn ghost_remove(&mut self, key: &K) -> bool {
        self.a1out.remove(key).is_some()
    }

    /// Entries currently in the admission (FIFO) queue.
    pub fn a1in_len(&self) -> usize {
        self.a1in.len()
    }

    /// Entries currently in the main LRU.
    pub fn am_len(&self) -> usize {
        self.am.len()
    }

    /// Keys currently remembered in the ghost list.
    pub fn ghost_len(&self) -> usize {
        self.a1out.len()
    }
}

impl<K: CacheKey, V, S: BuildHasher> Cache<K, V> for TwoQCache<K, V, S> {
    fn get(&mut self, key: &K) -> Option<&V> {
        if self.am.peek(key) {
            self.stats.hits += 1;
            self.recent.observe(true);
            return self.am.get(key);
        }
        // A1in hits do not reorder (it's a FIFO) and do not promote —
        // promotion only happens via the ghost list, per the paper.
        if self.a1in.peek(key) {
            self.stats.hits += 1;
            self.recent.observe(true);
            return self.a1in.peek_value(key);
        }
        self.stats.misses += 1;
        self.recent.observe(false);
        None
    }

    fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        self.stats.insertions += 1;
        if self.am.peek(&key) {
            return self.am.insert(key, value);
        }
        if self.a1in.peek(&key) {
            return self.a1in.insert(key, value);
        }
        // Second chance: a key remembered by the ghost list goes straight
        // to the main LRU.
        if self.ghost_remove(&key) {
            let evicted = self.am.insert(key, value);
            if evicted.is_some() {
                self.stats.evictions += 1;
            }
            return evicted;
        }
        // First sight: admission FIFO; its eviction becomes a ghost.
        let evicted = self.a1in.insert(key, value);
        if let Some((ek, ev)) = evicted {
            self.stats.evictions += 1;
            self.ghost_insert(ek.clone());
            return Some((ek, ev));
        }
        None
    }

    fn peek(&self, key: &K) -> bool {
        self.am.peek(key) || self.a1in.peek(key)
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        self.ghost_remove(key);
        self.a1in.remove(key).or_else(|| self.am.remove(key))
    }

    fn len(&self) -> usize {
        self.a1in.len() + self.am.len()
    }

    fn capacity(&self) -> usize {
        self.a1in.capacity() + self.am.capacity()
    }

    fn resize(&mut self, capacity: usize) {
        assert!(capacity >= 4, "2Q needs capacity ≥ 4");
        let a1in_cap = (capacity / 4).max(1);
        let am_cap = capacity - a1in_cap;
        let before = self.len();
        // A1in overflow becomes ghosts, exactly as a normal capacity
        // eviction would.
        while self.a1in.len() > a1in_cap {
            if let Some((k, _)) = self.a1in.pop_lru() {
                self.ghost_insert(k);
            }
        }
        self.a1in.resize(a1in_cap);
        while self.am.len() > am_cap {
            self.am.pop_lru();
        }
        self.am.resize(am_cap);
        self.ghost_cap = (capacity / 2).max(1);
        while self.a1out.len() > self.ghost_cap {
            match self.ghost_fifo.pop_front() {
                Some((k, s)) => {
                    if self.a1out.get(&k) == Some(&s) {
                        self.a1out.remove(&k);
                    }
                }
                None => break,
            }
        }
        self.stats.evictions += (before - self.len()) as u64;
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }

    fn recent_hit_ratio(&self) -> f64 {
        self.recent.hit_ratio()
    }

    fn recent_misses(&self) -> f64 {
        self.recent.misses()
    }

    fn clear(&mut self) {
        self.a1in.clear();
        self.am.clear();
        self.a1out.clear();
        self.ghost_fifo.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn second_access_promotes_via_ghost() {
        let mut c = TwoQCache::new(8); // a1in=2, am=6, ghost=4
        c.insert(1, ());
        c.insert(2, ());
        c.insert(3, ()); // evicts 1 from a1in → ghost
        assert!(!c.peek(&1));
        assert_eq!(c.ghost_len(), 1);
        c.insert(1, ()); // ghost hit → goes to Am
        assert_eq!(c.am_len(), 1);
        assert!(c.peek(&1));
    }

    #[test]
    fn one_shot_scan_never_reaches_am() {
        let mut c = TwoQCache::new(16);
        for k in 0..1000 {
            c.insert(k, ());
        }
        assert_eq!(c.am_len(), 0, "single-touch keys must not enter Am");
        assert!(c.len() <= 16);
    }

    #[test]
    fn hot_set_survives_scan() {
        let mut c = TwoQCache::new(16);
        // Make 1,2 hot (insert, evict to ghost, reinsert → Am).
        for round in 0..3 {
            for k in [1, 2] {
                c.insert(k, round);
            }
            for k in 100..110 {
                c.insert(k, round);
            }
        }
        assert!(c.am_len() >= 2, "hot keys should be in Am");
        for k in 1000..2000 {
            c.insert(k, 0);
        }
        assert!(c.peek(&1) && c.peek(&2), "scan displaced the hot set");
    }

    #[test]
    fn ghost_capacity_bounded() {
        let mut c = TwoQCache::new(8);
        for k in 0..10_000 {
            c.insert(k, ());
        }
        assert!(c.ghost_len() <= 4);
        assert!(c.len() <= 8);
    }

    #[test]
    fn remove_works_across_queues() {
        let mut c = TwoQCache::new(8);
        c.insert(1, "a");
        assert_eq!(c.remove(&1), Some("a"));
        assert_eq!(c.remove(&1), None);
        assert!(c.is_empty());
    }

    #[test]
    fn get_returns_current_value() {
        let mut c = TwoQCache::new(4);
        c.insert(1, 10);
        c.insert(1, 11);
        assert_eq!(c.get(&1), Some(&11));
    }

    #[test]
    #[should_panic(expected = "capacity ≥ 4")]
    fn tiny_capacity_panics() {
        let _: TwoQCache<u8, ()> = TwoQCache::new(2);
    }

    #[test]
    fn resize_rebalances_queues() {
        let mut c = TwoQCache::new(16); // a1in=4, am=12, ghost=8
                                        // Populate Am via the ghost path.
        for round in 0..3 {
            for k in 0..8 {
                c.insert(k, round);
            }
        }
        assert!(c.am_len() > 0);
        let before = c.len();
        c.resize(8); // a1in=2, am=6, ghost=4
        assert_eq!(c.capacity(), 8);
        assert!(c.len() <= 8 && c.len() <= before);
        assert!(c.ghost_len() <= 4);
        c.resize(32);
        for k in 100..140 {
            c.insert(k, 0);
        }
        assert!(c.len() <= 32);
        assert!(c.a1in_len() <= 8);
    }

    proptest! {
        #[test]
        fn prop_capacity_invariant(ops in proptest::collection::vec((0u8..64, any::<u8>()), 1..400)) {
            let mut c: TwoQCache<u8, u8> = TwoQCache::new(8);
            for (k, v) in ops {
                c.insert(k, v);
                prop_assert!(c.len() <= 8);
                prop_assert!(c.ghost_len() <= 4);
            }
        }

        /// A resident key always returns the latest inserted value.
        #[test]
        fn prop_value_fidelity(ops in proptest::collection::vec((0u8..16, any::<u16>()), 1..200)) {
            let mut c: TwoQCache<u8, u16> = TwoQCache::new(8);
            let mut last: std::collections::HashMap<u8, u16> = Default::default();
            for (k, v) in ops {
                c.insert(k, v);
                last.insert(k, v);
                if let Some(got) = c.get(&k) {
                    prop_assert_eq!(*got, last[&k]);
                }
            }
        }
    }
}
