//! Segmented LRU: a scan-resistant refinement of plain LRU.

use std::hash::BuildHasher;

use shhc_types::FingerprintBuildHasher;

use crate::stats::RECENT_HALF_LIFE;
use crate::{Cache, CacheKey, CacheStats, LruCache, WindowedHitRate};

/// Two-segment LRU (probation + protected).
///
/// New entries land in the *probation* segment; a hit promotes an entry to
/// the *protected* segment, which only demotes (never discards) back into
/// probation. One-shot scans — common when a backup stream contains long
/// runs of never-repeated fingerprints — wash through probation without
/// displacing the protected working set, which is precisely the hazard for
/// the hybrid node's RAM cache on low-redundancy workloads.
///
/// # Examples
///
/// ```
/// use shhc_cache::{Cache, SegmentedLruCache};
///
/// let mut c = SegmentedLruCache::new(4, 0.5);
/// c.insert(1u32, "hot");
/// c.get(&1); // promote to protected
/// // A scan of cold keys cannot evict the protected entry.
/// for k in 100..200u32 {
///     c.insert(k, "cold");
/// }
/// assert!(c.peek(&1));
/// ```
#[derive(Debug, Clone)]
pub struct SegmentedLruCache<K, V, S = FingerprintBuildHasher> {
    probation: LruCache<K, V, S>,
    protected: LruCache<K, V, S>,
    protected_fraction: f64,
    stats: CacheStats,
    recent: WindowedHitRate,
}

impl<K: CacheKey, V> SegmentedLruCache<K, V> {
    /// Creates a cache of `capacity` total entries, reserving
    /// `protected_fraction` of it for the protected segment.
    ///
    /// # Panics
    ///
    /// Panics if `capacity < 2` or `protected_fraction` is outside
    /// `(0, 1)`.
    pub fn new(capacity: usize, protected_fraction: f64) -> Self {
        Self::with_hasher(capacity, protected_fraction, FingerprintBuildHasher)
    }
}

impl<K: CacheKey, V, S: BuildHasher + Clone> SegmentedLruCache<K, V, S> {
    /// Like [`SegmentedLruCache::new`] with an explicit hash-state
    /// builder (cloned into both segments).
    ///
    /// # Panics
    ///
    /// Panics if `capacity < 2` or `protected_fraction` is outside
    /// `(0, 1)`.
    pub fn with_hasher(capacity: usize, protected_fraction: f64, hasher: S) -> Self {
        assert!(capacity >= 2, "segmented LRU needs capacity ≥ 2");
        assert!(
            protected_fraction > 0.0 && protected_fraction < 1.0,
            "protected fraction must be in (0,1)"
        );
        let protected = ((capacity as f64 * protected_fraction) as usize)
            .max(1)
            .min(capacity - 1);
        let probation = capacity - protected;
        SegmentedLruCache {
            probation: LruCache::with_hasher(probation, hasher.clone()),
            protected: LruCache::with_hasher(protected, hasher),
            protected_fraction,
            stats: CacheStats::default(),
            recent: WindowedHitRate::new(RECENT_HALF_LIFE),
        }
    }
}

impl<K: CacheKey, V, S: BuildHasher> SegmentedLruCache<K, V, S> {
    /// Number of entries currently in the protected segment.
    pub fn protected_len(&self) -> usize {
        self.protected.len()
    }

    /// Number of entries currently in the probation segment.
    pub fn probation_len(&self) -> usize {
        self.probation.len()
    }
}

impl<K: CacheKey, V, S: BuildHasher> Cache<K, V> for SegmentedLruCache<K, V, S> {
    fn get(&mut self, key: &K) -> Option<&V> {
        // Hit in protected: plain recency update.
        if self.protected.peek(key) {
            self.stats.hits += 1;
            self.recent.observe(true);
            return self.protected.get(key);
        }
        // Hit in probation: promote to protected; protected overflow
        // demotes its LRU back to probation.
        if let Some(value) = self.probation.remove(key) {
            self.stats.hits += 1;
            self.recent.observe(true);
            if let Some((dk, dv)) = self.protected.insert(key.clone(), value) {
                self.probation.insert(dk, dv);
            }
            // The outer hit counter was already incremented above; the
            // inner cache's own counters track segment-level behaviour.
            return self.protected.get(key);
        }
        self.stats.misses += 1;
        self.recent.observe(false);
        None
    }

    fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        self.stats.insertions += 1;
        // Updates of resident keys stay in their segment.
        if self.protected.peek(&key) {
            return self.protected.insert(key, value);
        }
        let evicted = self.probation.insert(key, value);
        if evicted.is_some() {
            self.stats.evictions += 1;
        }
        evicted
    }

    fn peek(&self, key: &K) -> bool {
        self.probation.peek(key) || self.protected.peek(key)
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        self.probation
            .remove(key)
            .or_else(|| self.protected.remove(key))
    }

    fn len(&self) -> usize {
        self.probation.len() + self.protected.len()
    }

    fn capacity(&self) -> usize {
        self.probation.capacity() + self.protected.capacity()
    }

    fn resize(&mut self, capacity: usize) {
        assert!(capacity >= 2, "segmented LRU needs capacity ≥ 2");
        let protected_cap = ((capacity as f64 * self.protected_fraction) as usize)
            .max(1)
            .min(capacity - 1);
        let probation_cap = capacity - protected_cap;
        let before = self.len();
        // Probation first (may already free room), then demote protected
        // overflow into probation — a shrink keeps the hottest entries
        // resident and pushes the protected tail down a tier instead of
        // dropping it outright.
        self.probation.resize(probation_cap);
        while self.protected.len() > protected_cap {
            if let Some((k, v)) = self.protected.pop_lru() {
                self.probation.insert(k, v);
            }
        }
        self.protected.resize(protected_cap);
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
        self.probation.clear();
        self.protected.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn promotion_on_hit() {
        let mut c = SegmentedLruCache::new(4, 0.5);
        c.insert(1, ());
        assert_eq!(c.probation_len(), 1);
        assert_eq!(c.protected_len(), 0);
        c.get(&1);
        assert_eq!(c.probation_len(), 0);
        assert_eq!(c.protected_len(), 1);
    }

    #[test]
    fn scan_resistance() {
        let mut c = SegmentedLruCache::new(8, 0.5);
        // Build a protected working set.
        for k in 0..4 {
            c.insert(k, ());
            c.get(&k);
        }
        // Blast a scan of 1000 cold keys through.
        for k in 1000..2000 {
            c.insert(k, ());
        }
        for k in 0..4 {
            assert!(c.peek(&k), "protected key {k} evicted by scan");
        }
    }

    #[test]
    fn protected_overflow_demotes() {
        let mut c = SegmentedLruCache::new(4, 0.5); // 2 protected, 2 probation
        for k in 0..4 {
            c.insert(k, ());
        }
        // Probation can hold 2: keys 2,3 remain; 0,1 were evicted.
        c.get(&2);
        c.get(&3); // both promoted, protected full
        c.insert(10, ());
        c.insert(11, ());
        c.get(&10); // promote 10 → protected overflow demotes 2
        assert!(
            c.peek(&2),
            "demoted entry must remain cached (in probation)"
        );
        assert_eq!(c.protected_len(), 2);
    }

    #[test]
    fn never_exceeds_capacity() {
        let mut c = SegmentedLruCache::new(10, 0.8);
        for k in 0..1000 {
            c.insert(k, ());
            if k % 3 == 0 {
                c.get(&k);
            }
            assert!(c.len() <= 10);
        }
    }

    #[test]
    fn remove_from_either_segment() {
        let mut c = SegmentedLruCache::new(4, 0.5);
        c.insert(1, "a");
        c.insert(2, "b");
        c.get(&1); // 1 → protected
        assert_eq!(c.remove(&1), Some("a"));
        assert_eq!(c.remove(&2), Some("b"));
        assert_eq!(c.remove(&3), None);
        assert!(c.is_empty());
    }

    #[test]
    fn stats_accumulate() {
        let mut c = SegmentedLruCache::new(2, 0.5);
        c.insert(1, ());
        c.get(&1);
        c.get(&2);
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    #[should_panic(expected = "capacity ≥ 2")]
    fn tiny_capacity_panics() {
        let _: SegmentedLruCache<u8, ()> = SegmentedLruCache::new(1, 0.5);
    }

    #[test]
    fn resize_keeps_fraction_and_demotes_protected_tail() {
        let mut c = SegmentedLruCache::new(8, 0.5); // 4 + 4
        for k in 0..4 {
            c.insert(k, ());
            c.get(&k); // all protected
        }
        for k in 10..14 {
            c.insert(k, ()); // fill probation
        }
        assert_eq!(c.len(), 8);
        c.resize(4); // 2 protected + 2 probation
        assert_eq!(c.capacity(), 4);
        assert!(c.len() <= 4);
        assert_eq!(c.protected_len(), 2);
        // The protected MRU pair (2,3) stays protected; the demoted tail
        // may still be resident in probation but never above it.
        assert!(c.peek(&2) && c.peek(&3));
        c.resize(12);
        for k in 20..30 {
            c.insert(k, ());
        }
        assert!(c.len() > 4, "grown capacity is usable");
        assert!(c.len() <= 12);
    }

    proptest! {
        /// Capacity invariant under arbitrary workloads, and hits always
        /// return the most recently inserted value for the key.
        #[test]
        fn prop_value_fidelity(ops in proptest::collection::vec((0u8..32, any::<u16>()), 1..300)) {
            let mut c: SegmentedLruCache<u8, u16> = SegmentedLruCache::new(8, 0.5);
            let mut last: std::collections::HashMap<u8, u16> = Default::default();
            for (k, v) in ops {
                c.insert(k, v);
                last.insert(k, v);
                if let Some(got) = c.get(&k) {
                    prop_assert_eq!(*got, last[&k]);
                }
                prop_assert!(c.len() <= 8);
            }
        }
    }
}
