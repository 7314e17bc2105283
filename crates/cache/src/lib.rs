//! In-RAM caches for hot fingerprints.
//!
//! Each SHHC hybrid node fronts its on-SSD hash table with a RAM cache:
//! "RAM serves as the cache for SSDs to absorb requests for frequent
//! queries and hide the latency of SSD accesses", managed with an LRU
//! discipline (paper Fig. 4). This crate provides:
//!
//! - [`LruCache`] — O(1) least-recently-used cache (hash map + intrusive
//!   doubly-linked list over a slab), implementing the object-safe
//!   [`Cache`] trait,
//! - [`CacheStats`] and [`WindowedHitRate`] instrumentation,
//! - [`CacheSizer`], which moves capacity between a node's shard caches.
//!
//! The cache is generic over its [`std::hash::BuildHasher`] and
//! defaults to [`shhc_types::FingerprintBuildHasher`]: cache keys are
//! SHA-1 fingerprints (or ids derived from them), already uniform, so the
//! default SipHash state buys nothing on the lookup hot path.
//!
//! # Examples
//!
//! ```
//! use shhc_cache::{Cache, LruCache};
//!
//! let mut cache = LruCache::new(2);
//! cache.insert(1u64, "a");
//! cache.insert(2, "b");
//! cache.get(&1);            // 1 is now most recent
//! cache.insert(3, "c");     // evicts 2, the least recently used
//! assert!(cache.get(&2).is_none());
//! assert!(cache.get(&1).is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lru;
mod sizer;
mod stats;

pub use lru::LruCache;
pub use sizer::{CacheSizer, SizerConfig, SizerDecision};
pub use stats::{CacheStats, WindowedHitRate};

use std::hash::Hash;

/// A bounded key-value cache with an eviction policy.
pub trait Cache<K, V> {
    /// Looks up `key`, updating recency metadata on hit.
    fn get(&mut self, key: &K) -> Option<&V>;

    /// Inserts `key → value`, possibly evicting. Returns the evicted
    /// entry, if any.
    fn insert(&mut self, key: K, value: V) -> Option<(K, V)>;

    /// Tests presence *without* updating recency.
    fn peek(&self, key: &K) -> bool;

    /// Removes `key`, returning its value if present.
    fn remove(&mut self, key: &K) -> Option<V>;

    /// Current number of cached entries.
    fn len(&self) -> usize;

    /// True if the cache holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of entries.
    fn capacity(&self) -> usize;

    /// Changes the capacity online. Shrinking evicts down to the new
    /// bound in the policy's own eviction order (counted in
    /// [`CacheStats::evictions`]); growing takes effect immediately for
    /// subsequent inserts. Cached answers are never changed — only how
    /// many entries may stay resident.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is below the policy's minimum (1 for LRU).
    fn resize(&mut self, capacity: usize);

    /// Hit/miss/eviction counters.
    fn stats(&self) -> CacheStats;

    /// Exponentially decayed recent hit ratio (see [`WindowedHitRate`]) —
    /// the control signal for cache autosizing, where the lifetime
    /// [`CacheStats::hit_ratio`] is too slow to move.
    fn recent_hit_ratio(&self) -> f64 {
        self.stats().hit_ratio()
    }

    /// Exponentially decayed recent miss count (the marginal-utility
    /// sizer's raw demand signal).
    fn recent_misses(&self) -> f64 {
        self.stats().misses as f64
    }

    /// Empties the cache (stats are preserved).
    fn clear(&mut self);
}

/// Marker bound for cache keys.
pub trait CacheKey: Eq + Hash + Clone {}
impl<T: Eq + Hash + Clone> CacheKey for T {}
