//! DDFS-like index: bloom summary + locality-preserved container caching.

use std::collections::HashMap;

use shhc_bloom::BloomFilter;
use shhc_cache::{Cache, LruCache};
use shhc_types::{Fingerprint, Nanos, Result};

use crate::{FingerprintIndex, IndexResult};

/// A Data-Domain-style single-node index.
///
/// Three techniques from the DDFS paper, in order:
/// 1. a *summary vector* (bloom filter) answers most absent-key lookups
///    without touching disk,
/// 2. fingerprints are grouped into *containers* in stream order, so one
///    disk read prefetches a whole locality unit,
/// 3. a container-grained RAM cache exploits the prefetch: subsequent
///    duplicates from the same backup region hit RAM.
///
/// The on-disk index charges one seek per cold container fetch. As in
/// [`crate::HddIndex`], contents live in RAM for correctness; only the
/// cost model is disk-shaped.
///
/// # Examples
///
/// ```
/// use shhc_baseline::{DdfsIndex, FingerprintIndex};
/// use shhc_types::Fingerprint;
///
/// let mut idx = DdfsIndex::small_test();
/// assert!(!idx.lookup_insert(Fingerprint::from_u64(1)).unwrap().existed);
/// assert!(idx.lookup_insert(Fingerprint::from_u64(1)).unwrap().existed);
/// ```
#[derive(Debug)]
pub struct DdfsIndex {
    bloom: BloomFilter,
    /// Full fingerprint → (container, value) map ("on disk").
    table: HashMap<Fingerprint, (u32, u64)>,
    /// Container id → member fingerprints, in insertion order.
    containers: Vec<Vec<Fingerprint>>,
    container_capacity: usize,
    /// RAM cache of recently fetched containers.
    cached_containers: LruCache<u32, ()>,
    /// Fingerprints resident via cached containers.
    resident: HashMap<Fingerprint, u64>,
    seek: Nanos,
    cpu_per_op: Nanos,
    busy: Nanos,
    next_id: u64,
    /// Container fetches (cold duplicate lookups).
    pub_fetches: u64,
}

impl DdfsIndex {
    /// Creates the index.
    ///
    /// `container_capacity` is the number of fingerprints per locality
    /// container; `cache_containers` how many containers the RAM cache
    /// holds.
    ///
    /// # Panics
    ///
    /// Panics if `container_capacity` or `cache_containers` is zero.
    pub fn new(
        expected: u64,
        container_capacity: usize,
        cache_containers: usize,
        seek: Nanos,
        cpu_per_op: Nanos,
    ) -> Self {
        assert!(container_capacity > 0, "container capacity must be nonzero");
        DdfsIndex {
            bloom: BloomFilter::with_rate(expected, 0.01),
            table: HashMap::new(),
            containers: vec![Vec::new()],
            container_capacity,
            cached_containers: LruCache::new(cache_containers),
            resident: HashMap::new(),
            seek,
            cpu_per_op,
            busy: Nanos::ZERO,
            next_id: 0,
            pub_fetches: 0,
        }
    }

    /// Tiny test configuration.
    pub fn small_test() -> Self {
        Self::new(10_000, 32, 4, Nanos::from_millis(8), Nanos::from_micros(1))
    }

    /// Paper-scale configuration: 1024-fingerprint containers, 1024
    /// cached containers (≈1 M resident fingerprints).
    pub fn default_index() -> Self {
        Self::new(
            16_000_000,
            1024,
            1024,
            Nanos::from_millis(8),
            Nanos::from_micros(20),
        )
    }

    /// Container fetches so far (each cost one seek).
    #[cfg(test)]
    pub(crate) fn container_fetches(&self) -> u64 {
        self.pub_fetches
    }

    fn cache_container(&mut self, container: u32) {
        if let Some((evicted, ())) = self.cached_containers.insert(container, ()) {
            for fp in &self.containers[evicted as usize] {
                self.resident.remove(fp);
            }
        }
        for fp in self.containers[container as usize].clone() {
            if let Some(&(_, v)) = self.table.get(&fp) {
                self.resident.insert(fp, v);
            }
        }
    }
}

impl FingerprintIndex for DdfsIndex {
    fn lookup_insert(&mut self, fp: Fingerprint) -> Result<IndexResult> {
        let mut cost = self.cpu_per_op;

        let existed = if self.resident.contains_key(&fp) {
            true
        } else if !self.bloom.contains(fp.as_bytes()) {
            // Summary vector: definitely new. Append to the open
            // container; index write is amortized (DDFS batches index
            // updates with container writes), charge CPU only.
            let container = self.containers.len() as u32 - 1;
            let v = self.next_id;
            self.next_id += 1;
            self.table.insert(fp, (container, v));
            self.containers[container as usize].push(fp);
            self.resident.insert(fp, v); // newly written containers stay hot
            if self.containers[container as usize].len() >= self.container_capacity {
                self.containers.push(Vec::new());
            }
            self.bloom.insert(fp.as_bytes());
            false
        } else if let Some(&(container, _)) = self.table.get(&fp) {
            // Cold duplicate: fetch its whole container (one seek),
            // prefetching the locality unit.
            cost += self.seek;
            self.pub_fetches += 1;
            self.cache_container(container);
            true
        } else {
            // Bloom false positive: pay the index probe, then insert.
            cost += self.seek;
            let container = self.containers.len() as u32 - 1;
            let v = self.next_id;
            self.next_id += 1;
            self.table.insert(fp, (container, v));
            self.containers[container as usize].push(fp);
            self.resident.insert(fp, v);
            if self.containers[container as usize].len() >= self.container_capacity {
                self.containers.push(Vec::new());
            }
            self.bloom.insert(fp.as_bytes());
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
        "ddfs"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_correctness() {
        let mut idx = DdfsIndex::small_test();
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000u64 {
            let k = (i * 31) % 300;
            let r = idx.lookup_insert(Fingerprint::from_u64(k)).unwrap();
            assert_eq!(r.existed, seen.contains(&k));
            seen.insert(k);
        }
        assert_eq!(idx.entries(), seen.len() as u64);
    }

    #[test]
    fn locality_prefetch_amortizes_seeks() {
        let mut idx = DdfsIndex::small_test();
        // First backup: 128 sequential new fingerprints (4 containers).
        for i in 0..128u64 {
            idx.lookup_insert(Fingerprint::from_u64(i)).unwrap();
        }
        // Age the cache far past the working set with unrelated data.
        for i in 10_000..12_000u64 {
            idx.lookup_insert(Fingerprint::from_u64(i)).unwrap();
        }
        let fetches_before = idx.container_fetches();
        // Second backup: replay the same 128 in order. Only ~4 container
        // fetches (one per container), not 128 seeks.
        for i in 0..128u64 {
            let r = idx.lookup_insert(Fingerprint::from_u64(i)).unwrap();
            assert!(r.existed);
        }
        let fetched = idx.container_fetches() - fetches_before;
        assert!(
            fetched <= 8,
            "expected ~4 container fetches for a sequential replay, got {fetched}"
        );
    }

    #[test]
    fn bloom_spares_disk_for_new_data() {
        let mut idx = DdfsIndex::small_test();
        let before = idx.busy();
        for i in 0..100u64 {
            idx.lookup_insert(Fingerprint::from_u64(i)).unwrap();
        }
        let spent = idx.busy() - before;
        // 100 new fingerprints should cost ~100 CPU ops, not 100 seeks.
        assert!(
            spent < Nanos::from_millis(8) * 10,
            "new data cost {spent}, bloom is not working"
        );
    }

    #[test]
    fn eviction_keeps_answers_correct() {
        let mut idx = DdfsIndex::small_test();
        for i in 0..64u64 {
            idx.lookup_insert(Fingerprint::from_u64(i)).unwrap();
        }
        for i in 1000..2000u64 {
            idx.lookup_insert(Fingerprint::from_u64(i)).unwrap();
        }
        // Old keys still correctly recognized (via table, costing a
        // seek).
        for i in 0..64u64 {
            assert!(idx.lookup_insert(Fingerprint::from_u64(i)).unwrap().existed);
        }
    }
}
