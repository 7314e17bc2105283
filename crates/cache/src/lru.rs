//! O(1) least-recently-used cache.

use std::collections::HashMap;
use std::hash::BuildHasher;

use shhc_types::FingerprintBuildHasher;

use crate::stats::RECENT_HALF_LIFE;
use crate::{Cache, CacheKey, CacheStats, WindowedHitRate};

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Slot<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// The paper's per-node RAM cache: a hash map for O(1) lookup plus an
/// intrusive doubly-linked list (over a slab of slots) for O(1) recency
/// maintenance and eviction.
///
/// "Node N maintains a least recently used (LRU) cache list in RAM. If the
/// LRU is full, it discards the least recently used fingerprints."
/// — SHHC §III.B
///
/// The index defaults to [`FingerprintBuildHasher`] — cache keys are
/// content hashes (or ids derived from them), so SipHash's seeded rounds
/// buy nothing on this hot path. Pass another [`BuildHasher`] via
/// [`LruCache::with_hasher`] to override.
///
/// # Examples
///
/// ```
/// use shhc_cache::{Cache, LruCache};
///
/// let mut cache = LruCache::new(3);
/// for i in 0..5u32 {
///     cache.insert(i, i * 10);
/// }
/// // 0 and 1 were evicted.
/// assert!(!cache.peek(&0) && !cache.peek(&1));
/// assert_eq!(cache.get(&4), Some(&40));
/// ```
#[derive(Debug, Clone)]
pub struct LruCache<K, V, S = FingerprintBuildHasher> {
    map: HashMap<K, usize, S>,
    slots: Vec<Option<Slot<K, V>>>,
    free: Vec<usize>,
    /// Most recently used.
    head: usize,
    /// Least recently used.
    tail: usize,
    capacity: usize,
    stats: CacheStats,
    recent: WindowedHitRate,
}

impl<K: CacheKey, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        Self::with_hasher(capacity, FingerprintBuildHasher)
    }
}

impl<K: CacheKey, V, S: BuildHasher> LruCache<K, V, S> {
    /// Like [`LruCache::new`] but with an explicit hash-state builder.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_hasher(capacity: usize, hasher: S) -> Self {
        assert!(capacity > 0, "cache capacity must be nonzero");
        LruCache {
            map: HashMap::with_hasher(hasher),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            stats: CacheStats::default(),
            recent: WindowedHitRate::new(RECENT_HALF_LIFE),
        }
    }

    fn slot(&self, idx: usize) -> &Slot<K, V> {
        self.slots[idx].as_ref().expect("linked slot is occupied")
    }

    fn slot_mut(&mut self, idx: usize) -> &mut Slot<K, V> {
        self.slots[idx].as_mut().expect("linked slot is occupied")
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = {
            let s = self.slot(idx);
            (s.prev, s.next)
        };
        if prev != NIL {
            self.slot_mut(prev).next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slot_mut(next).prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        {
            let head = self.head;
            let s = self.slot_mut(idx);
            s.prev = NIL;
            s.next = head;
        }
        if self.head != NIL {
            let old_head = self.head;
            self.slot_mut(old_head).prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn touch(&mut self, idx: usize) {
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
    }

    fn alloc(&mut self, slot: Slot<K, V>) -> usize {
        match self.free.pop() {
            Some(i) => {
                debug_assert!(self.slots[i].is_none());
                self.slots[i] = Some(slot);
                i
            }
            None => {
                self.slots.push(Some(slot));
                self.slots.len() - 1
            }
        }
    }

    fn release(&mut self, idx: usize) -> Slot<K, V> {
        self.free.push(idx);
        self.slots[idx].take().expect("released slot was occupied")
    }

    /// Removes and returns the least-recently-used entry.
    ///
    /// Exposed so callers can drain in eviction order.
    ///
    /// # Examples
    ///
    /// ```
    /// use shhc_cache::{Cache, LruCache};
    /// let mut c = LruCache::new(4);
    /// c.insert('a', 1);
    /// c.insert('b', 2);
    /// assert_eq!(c.pop_lru(), Some(('a', 1)));
    /// ```
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        let idx = self.tail;
        if idx == NIL {
            return None;
        }
        self.unlink(idx);
        let slot = self.release(idx);
        self.map.remove(&slot.key);
        Some((slot.key, slot.value))
    }

    /// Returns the least-recently-used key without removing it.
    pub fn peek_lru(&self) -> Option<&K> {
        if self.tail == NIL {
            None
        } else {
            Some(&self.slot(self.tail).key)
        }
    }

    /// Looks up without updating recency (unlike [`Cache::get`]).
    pub fn peek_value(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|&idx| &self.slot(idx).value)
    }

    /// Iterates over entries from most- to least-recently used.
    pub fn iter(&self) -> Iter<'_, K, V, S> {
        Iter {
            cache: self,
            cursor: self.head,
        }
    }
}

/// Iterator over cache entries in recency order (MRU first); created by
/// [`LruCache::iter`].
#[derive(Debug)]
pub struct Iter<'a, K, V, S = FingerprintBuildHasher> {
    cache: &'a LruCache<K, V, S>,
    cursor: usize,
}

impl<'a, K: CacheKey, V, S: BuildHasher> Iterator for Iter<'a, K, V, S> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cursor == NIL {
            return None;
        }
        let slot = self.cache.slot(self.cursor);
        self.cursor = slot.next;
        Some((&slot.key, &slot.value))
    }
}

impl<K: CacheKey, V, S: BuildHasher> Cache<K, V> for LruCache<K, V, S> {
    fn get(&mut self, key: &K) -> Option<&V> {
        match self.map.get(key).copied() {
            Some(idx) => {
                self.stats.hits += 1;
                self.recent.observe(true);
                self.touch(idx);
                Some(&self.slot(idx).value)
            }
            None => {
                self.stats.misses += 1;
                self.recent.observe(false);
                None
            }
        }
    }

    fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        self.stats.insertions += 1;
        if let Some(&idx) = self.map.get(&key) {
            self.slot_mut(idx).value = value;
            self.touch(idx);
            return None;
        }

        let evicted = if self.map.len() == self.capacity {
            self.stats.evictions += 1;
            self.pop_lru()
        } else {
            None
        };

        let idx = self.alloc(Slot {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        });
        self.map.insert(key, idx);
        self.push_front(idx);
        evicted
    }

    fn peek(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.map.remove(key)?;
        self.unlink(idx);
        let slot = self.release(idx);
        Some(slot.value)
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn resize(&mut self, capacity: usize) {
        assert!(capacity > 0, "cache capacity must be nonzero");
        while self.map.len() > capacity {
            self.stats.evictions += 1;
            self.pop_lru();
        }
        self.capacity = capacity;
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
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn evicts_lru_order() {
        let mut c = LruCache::new(3);
        c.insert(1, "a");
        c.insert(2, "b");
        c.insert(3, "c");
        // Touch 1 so 2 becomes LRU.
        assert_eq!(c.get(&1), Some(&"a"));
        let evicted = c.insert(4, "d");
        assert_eq!(evicted, Some((2, "b")));
        assert!(c.peek(&1) && c.peek(&3) && c.peek(&4));
    }

    #[test]
    fn update_existing_does_not_evict() {
        let mut c = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.insert(1, 11), None);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&1), Some(&11));
    }

    #[test]
    fn remove_then_reinsert() {
        let mut c = LruCache::new(2);
        c.insert('x', 1);
        c.insert('y', 2);
        assert_eq!(c.remove(&'x'), Some(1));
        assert_eq!(c.len(), 1);
        c.insert('z', 3);
        assert_eq!(c.len(), 2);
        assert!(c.peek(&'y') && c.peek(&'z'));
        assert_eq!(c.remove(&'x'), None);
    }

    #[test]
    fn pop_lru_drains_in_order() {
        let mut c = LruCache::new(3);
        c.insert(1, ());
        c.insert(2, ());
        c.insert(3, ());
        c.get(&1); // order now (MRU) 1,3,2 (LRU)
        assert_eq!(c.pop_lru().map(|e| e.0), Some(2));
        assert_eq!(c.pop_lru().map(|e| e.0), Some(3));
        assert_eq!(c.pop_lru().map(|e| e.0), Some(1));
        assert_eq!(c.pop_lru(), None);
        assert!(c.is_empty());
    }

    #[test]
    fn iter_is_mru_first() {
        let mut c = LruCache::new(3);
        c.insert(1, ());
        c.insert(2, ());
        c.insert(3, ());
        c.get(&2);
        let order: Vec<i32> = c.iter().map(|(k, _)| *k).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn peek_does_not_change_order() {
        let mut c = LruCache::new(2);
        c.insert(1, ());
        c.insert(2, ());
        assert!(c.peek(&1));
        assert_eq!(c.peek_value(&1), Some(&()));
        assert_eq!(c.peek_lru(), Some(&1));
        c.insert(3, ()); // must evict 1 (peek didn't touch it)
        assert!(!c.peek(&1));
    }

    #[test]
    fn peek_value_is_stat_silent() {
        let mut c = LruCache::new(2);
        c.insert(1, ());
        let before = c.stats();
        assert_eq!(c.peek_value(&1), Some(&()));
        assert!(c.peek_value(&9).is_none());
        let after = c.stats();
        assert_eq!((before.hits, before.misses), (after.hits, after.misses));
        assert_eq!(c.recent_hit_ratio(), 0.0, "no observations recorded");
    }

    #[test]
    fn stats_track_operations() {
        let mut c = LruCache::new(1);
        c.insert(1, ());
        c.get(&1);
        c.get(&2);
        c.insert(2, ()); // evicts 1
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.insertions, 2);
    }

    #[test]
    fn clear_preserves_stats() {
        let mut c = LruCache::new(2);
        c.insert(1, ());
        c.get(&1);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.stats().hits, 1);
        c.insert(5, ());
        assert!(c.peek(&5));
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_panics() {
        let _: LruCache<u8, u8> = LruCache::new(0);
    }

    #[test]
    fn resize_shrinks_in_lru_order_and_grows_lazily() {
        let mut c = LruCache::new(4);
        for k in 0..4 {
            c.insert(k, ());
        }
        c.get(&0); // order (MRU) 0,3,2,1 (LRU)
        c.resize(2);
        assert_eq!(c.capacity(), 2);
        assert_eq!(c.len(), 2);
        assert!(c.peek(&0) && c.peek(&3), "hottest entries survive");
        assert_eq!(c.stats().evictions, 2);
        c.resize(5);
        for k in 10..13 {
            c.insert(k, ());
        }
        assert_eq!(c.len(), 5, "grown capacity is usable immediately");
    }

    #[test]
    fn recent_ratio_tracks_window() {
        let mut c = LruCache::new(2);
        c.insert(1, ());
        for _ in 0..100 {
            c.get(&1);
        }
        assert!(c.recent_hit_ratio() > 0.9);
        for _ in 0..5 {
            c.get(&9);
        }
        assert!(c.recent_misses() > 0.0);
    }

    /// Reference model: Vec kept in recency order.
    #[derive(Default)]
    struct ModelLru {
        cap: usize,
        entries: Vec<(u8, u32)>, // MRU first
    }

    impl ModelLru {
        fn get(&mut self, k: u8) -> Option<u32> {
            let pos = self.entries.iter().position(|(key, _)| *key == k)?;
            let e = self.entries.remove(pos);
            self.entries.insert(0, e);
            Some(self.entries[0].1)
        }

        fn insert(&mut self, k: u8, v: u32) {
            if let Some(pos) = self.entries.iter().position(|(key, _)| *key == k) {
                self.entries.remove(pos);
            } else if self.entries.len() == self.cap {
                self.entries.pop();
            }
            self.entries.insert(0, (k, v));
        }

        fn remove(&mut self, k: u8) -> Option<u32> {
            let pos = self.entries.iter().position(|(key, _)| *key == k)?;
            Some(self.entries.remove(pos).1)
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Get(u8),
        Insert(u8, u32),
        Remove(u8),
        PopLru,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (any::<u8>()).prop_map(Op::Get),
            (any::<u8>(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
            (any::<u8>()).prop_map(Op::Remove),
            Just(Op::PopLru),
        ]
    }

    proptest! {
        /// The slab implementation behaves exactly like the naive model
        /// under arbitrary operation sequences, and never exceeds capacity.
        #[test]
        fn prop_matches_reference_model(cap in 1usize..8,
                                        ops in proptest::collection::vec(op_strategy(), 0..200)) {
            let mut real: LruCache<u8, u32> = LruCache::new(cap);
            let mut model = ModelLru { cap, entries: Vec::new() };
            for op in ops {
                match op {
                    Op::Get(k) => {
                        let r = real.get(&k).copied();
                        let m = model.get(k);
                        prop_assert_eq!(r, m);
                    }
                    Op::Insert(k, v) => {
                        real.insert(k, v);
                        model.insert(k, v);
                    }
                    Op::Remove(k) => {
                        prop_assert_eq!(real.remove(&k), model.remove(k));
                    }
                    Op::PopLru => {
                        let m = model.entries.pop();
                        prop_assert_eq!(real.pop_lru(), m);
                    }
                }
                prop_assert!(real.len() <= cap);
                prop_assert_eq!(real.len(), model.entries.len());
                let order: Vec<u8> = real.iter().map(|(k, _)| *k).collect();
                let model_order: Vec<u8> = model.entries.iter().map(|(k, _)| *k).collect();
                prop_assert_eq!(order, model_order);
            }
        }
    }
}
