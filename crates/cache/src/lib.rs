//! In-RAM caches for hot fingerprints.
//!
//! Each SHHC hybrid node fronts its on-SSD hash table with a RAM cache:
//! "RAM serves as the cache for SSDs to absorb requests for frequent
//! queries and hide the latency of SSD accesses", managed with an LRU
//! discipline (paper Fig. 4). This crate provides:
//!
//! - [`ClockCache`] — the node's cache: a set-associative table of
//!   32-byte `(fingerprint, value)` slots, eight ways a set, each set
//!   evicting by second chance (CLOCK), indexed by the fingerprint's own
//!   bytes; 36 bytes an entry;
//! - [`LruCache`] — an exact least-recently-used cache (hash map +
//!   intrusive doubly-linked list over a slab), generic over its keys,
//!   which the DDFS and HDD baselines use and which is the reference the
//!   table's hit rate is held to;
//! - the object-safe [`Cache`] trait both implement, and
//!   [`CacheStats`], their hit/miss/eviction counters.
//!
//! `LruCache` defaults to [`shhc_types::FingerprintBuildHasher`]: its
//! keys are SHA-1 fingerprints (or ids derived from them), already
//! uniform, so SipHash's seeded rounds buy nothing.
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

mod clock;
mod lru;
mod stats;

pub use clock::ClockCache;
pub use lru::LruCache;
pub use stats::CacheStats;

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

    /// Hit/miss/eviction counters.
    fn stats(&self) -> CacheStats;

    /// Empties the cache (stats are preserved).
    fn clear(&mut self);
}

/// Marker bound for cache keys.
pub trait CacheKey: Eq + Hash + Clone {}
impl<T: Eq + Hash + Clone> CacheKey for T {}
