//! The disk-index strawman.

use shhc_cache::{Cache, LruCache};
use shhc_types::{Fingerprint, Nanos, Result};

use crate::{FingerprintIndex, IndexResult};

/// A hash-table index kept on a spinning disk, with a small RAM cache.
///
/// This is the configuration every deduplication paper (DDFS,
/// ChunkStash, SHHC's introduction) uses as the motivating strawman:
/// fingerprint lookups are uniformly random, so nearly every cold probe
/// costs a full seek + rotational delay, and insertion costs another.
///
/// Contents are held in RAM for correctness; only the *cost model*
/// distinguishes it from a hash map — a cold read charges `seek`, a
/// write charges `seek` too (in-place hash table update).
///
/// # Examples
///
/// ```
/// use shhc_baseline::{FingerprintIndex, HddIndex};
/// use shhc_types::Fingerprint;
///
/// let mut idx = HddIndex::small_test();
/// let r = idx.lookup_insert(Fingerprint::from_u64(1)).unwrap();
/// assert!(!r.existed);
/// ```
#[derive(Debug)]
pub struct HddIndex {
    table: std::collections::HashMap<Fingerprint, u64>,
    cache: LruCache<Fingerprint, u64>,
    seek: Nanos,
    cpu_per_op: Nanos,
    busy: Nanos,
    next_id: u64,
}

impl HddIndex {
    /// Creates the index with a given RAM-cache capacity and seek time.
    ///
    /// # Panics
    ///
    /// Panics if `cache_capacity` is zero.
    pub fn new(cache_capacity: usize, seek: Nanos, cpu_per_op: Nanos) -> Self {
        HddIndex {
            table: std::collections::HashMap::new(),
            cache: LruCache::new(cache_capacity),
            seek,
            cpu_per_op,
            busy: Nanos::ZERO,
            next_id: 0,
        }
    }

    /// A 7200-rpm disk (≈8 ms seek+rotate) with a 64-entry cache.
    pub fn small_test() -> Self {
        Self::new(64, Nanos::from_millis(8), Nanos::from_micros(1))
    }

    /// Paper-scale: 1 M-entry RAM cache, 8 ms seek, 20 µs CPU.
    pub fn default_index() -> Self {
        Self::new(1_000_000, Nanos::from_millis(8), Nanos::from_micros(20))
    }
}

impl FingerprintIndex for HddIndex {
    fn lookup_insert(&mut self, fp: Fingerprint) -> Result<IndexResult> {
        let mut cost = self.cpu_per_op;
        let existed = if self.cache.get(&fp).is_some() {
            true
        } else if let Some(&v) = self.table.get(&fp) {
            // Cold hit: one seek to read the on-disk bucket.
            cost += self.seek;
            self.cache.insert(fp, v);
            true
        } else {
            // Miss: one seek to read the bucket (and find it empty), one
            // to write the new entry.
            cost += self.seek * 2;
            let v = self.next_id;
            self.next_id += 1;
            self.table.insert(fp, v);
            self.cache.insert(fp, v);
            false
        };
        self.busy += cost;
        Ok(IndexResult { existed, cost })
    }

    fn entries(&self) -> u64 {
        self.table.len() as u64
    }

    fn busy(&self) -> Nanos {
        self.busy
    }

    fn name(&self) -> &'static str {
        "hdd-index"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_correctness() {
        let mut idx = HddIndex::small_test();
        let fp = Fingerprint::from_u64(1);
        assert!(!idx.lookup_insert(fp).unwrap().existed);
        assert!(idx.lookup_insert(fp).unwrap().existed);
        assert_eq!(idx.entries(), 1);
    }

    #[test]
    fn cold_lookups_pay_seeks() {
        let mut idx = HddIndex::small_test();
        let miss = idx.lookup_insert(Fingerprint::from_u64(1)).unwrap();
        assert!(miss.cost >= Nanos::from_millis(16), "miss pays two seeks");
        let warm = idx.lookup_insert(Fingerprint::from_u64(1)).unwrap();
        assert!(warm.cost < Nanos::from_millis(1), "cache hit is cheap");
    }

    #[test]
    fn evicted_duplicate_pays_one_seek() {
        let mut idx = HddIndex::small_test();
        idx.lookup_insert(Fingerprint::from_u64(0)).unwrap();
        for i in 1..200u64 {
            idx.lookup_insert(Fingerprint::from_u64(i)).unwrap();
        }
        let r = idx.lookup_insert(Fingerprint::from_u64(0)).unwrap();
        assert!(r.existed);
        assert!(r.cost >= Nanos::from_millis(8));
        assert!(r.cost < Nanos::from_millis(16));
    }

    #[test]
    fn busy_accumulates() {
        let mut idx = HddIndex::small_test();
        for i in 0..10u64 {
            idx.lookup_insert(Fingerprint::from_u64(i)).unwrap();
        }
        assert!(idx.busy() >= Nanos::from_millis(160));
    }
}
