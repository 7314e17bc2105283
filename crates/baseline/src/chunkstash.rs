//! ChunkStash-like index: RAM cuckoo signatures + flash-resident table.

use shhc_flash::{FlashConfig, FlashStore};
use shhc_types::{Fingerprint, Nanos, Result};

use crate::{CuckooTable, FingerprintIndex, IndexResult};

/// A ChunkStash-style single-node index: every stored fingerprint has a
/// compact signature in an in-RAM cuckoo table; a signature hit is
/// confirmed with one flash read, a signature miss is a definitive miss
/// (the cuckoo table is a *complete* index).
///
/// The hybrid node works the same way: its flash store's signature
/// directory is a complete index too, so both answer an absent key
/// without a flash read, bar a signature collision. What differs is the
/// RAM: ChunkStash spends ~12 B per stored entry here on cuckoo
/// signatures, the hybrid node 2–4 B per stored record on directory tags
/// plus a fixed-size LRU cache of hot fingerprints.
///
/// # Examples
///
/// ```
/// use shhc_baseline::{ChunkStashIndex, FingerprintIndex};
/// use shhc_types::Fingerprint;
///
/// # fn main() -> Result<(), shhc_types::Error> {
/// let mut idx = ChunkStashIndex::small_test()?;
/// assert!(!idx.lookup_insert(Fingerprint::from_u64(3))?.existed);
/// assert!(idx.lookup_insert(Fingerprint::from_u64(3))?.existed);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ChunkStashIndex {
    signatures: CuckooTable,
    store: FlashStore,
    cpu_per_op: Nanos,
    busy: Nanos,
    entries: u64,
    /// Signature said "present" but flash disagreed (tag collision).
    tag_collisions: u64,
}

impl ChunkStashIndex {
    /// Creates the index with a cuckoo table sized for `capacity`
    /// fingerprints over the given flash configuration.
    ///
    /// # Errors
    ///
    /// Propagates invalid flash configurations.
    pub fn new(capacity: usize, flash: FlashConfig, cpu_per_op: Nanos) -> Result<Self> {
        Ok(ChunkStashIndex {
            signatures: CuckooTable::with_capacity(capacity),
            store: FlashStore::new(flash)?,
            cpu_per_op,
            busy: Nanos::ZERO,
            entries: 0,
            tag_collisions: 0,
        })
    }

    /// Tiny test configuration (zero-latency flash).
    ///
    /// # Errors
    ///
    /// Never fails in practice; propagates config validation.
    pub fn small_test() -> Result<Self> {
        Self::new(20_000, FlashConfig::small_test(), Nanos::from_micros(1))
    }

    /// Paper-scale configuration (default flash latency, 20 µs CPU/op).
    ///
    /// # Errors
    ///
    /// Propagates config validation.
    pub fn default_index() -> Result<Self> {
        Self::new(
            16_000_000,
            FlashConfig::default_node(),
            Nanos::from_micros(20),
        )
    }

    /// Observed tag collisions (wasted flash confirms).
    pub fn tag_collisions(&self) -> u64 {
        self.tag_collisions
    }
}

impl FingerprintIndex for ChunkStashIndex {
    fn lookup_insert(&mut self, fp: Fingerprint) -> Result<IndexResult> {
        let mut cost = self.cpu_per_op;
        let before = self.store.busy();

        let existed = if self.signatures.get(fp).is_some() {
            // Confirm with flash (ChunkStash: "one flash read per
            // signature lookup").
            match self.store.get(fp)? {
                Some(_) => true,
                None => {
                    // Tag collision with a different fingerprint.
                    self.tag_collisions += 1;
                    self.store.put(fp, self.entries)?;
                    if !self.signatures.insert(fp, self.entries) {
                        return Err(shhc_types::Error::OutOfSpace {
                            what: "cuckoo signature table".into(),
                        });
                    }
                    self.entries += 1;
                    false
                }
            }
        } else {
            self.store.put(fp, self.entries)?;
            if !self.signatures.insert(fp, self.entries) {
                return Err(shhc_types::Error::OutOfSpace {
                    what: "cuckoo signature table".into(),
                });
            }
            self.entries += 1;
            false
        };

        cost += self.store.busy() - before;
        self.busy += cost;
        Ok(IndexResult { existed, cost })
    }

    fn entries(&self) -> u64 {
        self.entries
    }

    fn busy(&self) -> Nanos {
        self.busy
    }

    fn name(&self) -> &'static str {
        "chunkstash"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_correctness_over_evictions() {
        let mut idx = ChunkStashIndex::small_test().unwrap();
        let mut seen = std::collections::HashSet::new();
        for i in 0..2000u64 {
            let k = (i * 13) % 700;
            let fp = Fingerprint::from_u64(k);
            let r = idx.lookup_insert(fp).unwrap();
            assert_eq!(r.existed, seen.contains(&k), "key {k}");
            seen.insert(k);
        }
        assert_eq!(idx.entries(), seen.len() as u64);
    }

    #[test]
    fn duplicate_costs_one_flash_read() {
        let mut idx = ChunkStashIndex::new(
            1000,
            FlashConfig::small_test_with_latency(),
            Nanos::from_micros(1),
        )
        .unwrap();
        let fp = Fingerprint::from_u64(7);
        idx.lookup_insert(fp).unwrap();
        // Force the write buffer to flash so the confirm is a real read.
        // (put() buffered it; a duplicate lookup hits the buffer for free
        // otherwise.)
        for i in 100..200u64 {
            idx.lookup_insert(Fingerprint::from_u64(i)).unwrap();
        }
        let dup = idx.lookup_insert(fp).unwrap();
        assert!(dup.existed);
        assert!(
            dup.cost >= Nanos::from_micros(25),
            "confirm requires ≥1 flash read, cost {}",
            dup.cost
        );
        assert!(
            dup.cost <= Nanos::from_micros(200),
            "confirm should be ~1-2 reads, cost {}",
            dup.cost
        );
    }

    #[test]
    fn absent_key_costs_no_flash_read() {
        // The complete RAM index means misses never probe flash for
        // reading (only buffered writes).
        let mut idx = ChunkStashIndex::new(
            1000,
            FlashConfig::small_test_with_latency(),
            Nanos::from_micros(1),
        )
        .unwrap();
        let r = idx.lookup_insert(Fingerprint::from_u64(1)).unwrap();
        assert!(!r.existed);
        assert!(
            r.cost < Nanos::from_micros(25),
            "first insert is RAM + buffered write, cost {}",
            r.cost
        );
    }
}
