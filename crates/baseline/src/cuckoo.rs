//! Partial-key cuckoo hash table (the ChunkStash in-RAM index structure).

use shhc_hash::xxh64;
use shhc_types::Fingerprint;

const SLOTS_PER_BUCKET: usize = 4;
const MAX_KICKS: usize = 512;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    /// Compact signature of the fingerprint (its trailing 32 bits).
    tag: u32,
    /// The indexed value (e.g. a flash location).
    value: u64,
}

/// A 4-way, two-choice cuckoo hash table storing compact fingerprint
/// signatures, as ChunkStash keeps in RAM ("an in-memory hash table to
/// index the signatures on SSD by using cuckoo hashing").
///
/// Partial-key cuckooing (the cuckoo-filter trick) lets displaced entries
/// compute their alternate bucket from the tag alone, so the table never
/// needs the full 20-byte fingerprint — that lives on flash. Tag
/// collisions therefore produce rare false positives, which the caller
/// disambiguates with one flash read, exactly like ChunkStash.
///
/// # Examples
///
/// ```
/// use shhc_baseline::CuckooTable;
/// use shhc_types::Fingerprint;
///
/// let mut table = CuckooTable::with_capacity(1000);
/// let fp = Fingerprint::from_u64(9);
/// assert!(table.insert(fp, 42));
/// assert_eq!(table.get(fp), Some(42));
/// ```
#[derive(Debug, Clone)]
pub struct CuckooTable {
    buckets: Vec<[Option<Entry>; SLOTS_PER_BUCKET]>,
    /// Power-of-two bucket count minus one.
    mask: u64,
    len: usize,
    /// Total displacement steps performed (diagnostics).
    kicks: u64,
}

impl CuckooTable {
    /// Creates a table sized for at least `capacity` entries at ≤ 95 %
    /// load (4-way cuckoo sustains very high load factors).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be nonzero");
        let buckets_needed = capacity.div_ceil(SLOTS_PER_BUCKET) * 100 / 95 + 1;
        let buckets = buckets_needed.next_power_of_two().max(2);
        CuckooTable {
            buckets: vec![[None; SLOTS_PER_BUCKET]; buckets],
            mask: buckets as u64 - 1,
            len: 0,
            kicks: 0,
        }
    }

    fn tag_of(fp: Fingerprint) -> u32 {
        // Never 0 so tests can use 0 as a tombstone-free sentinel; tag 0
        // is remapped deterministically.
        match fp.tag32() {
            0 => 0x5348_4843,
            t => t,
        }
    }

    fn bucket1(&self, fp: Fingerprint) -> usize {
        (fp.bucket_key() & self.mask) as usize
    }

    fn alt_bucket(&self, bucket: usize, tag: u32) -> usize {
        // Partial-key displacement: alternate index derives from the tag
        // only, so it is computable during kicks.
        ((bucket as u64 ^ xxh64(&tag.to_le_bytes(), 0x4355_434b)) & self.mask) as usize
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current load factor.
    #[cfg(test)]
    pub(crate) fn load_factor(&self) -> f64 {
        self.len as f64 / (self.buckets.len() * SLOTS_PER_BUCKET) as f64
    }

    /// Total cuckoo displacements performed so far.
    #[cfg(test)]
    pub(crate) fn kicks(&self) -> u64 {
        self.kicks
    }

    /// Looks up the value stored for `fp`'s signature.
    ///
    /// A `Some` answer may (rarely) be a tag collision with a different
    /// fingerprint; callers that need certainty verify against the full
    /// fingerprint stored at the pointed-to location.
    pub fn get(&self, fp: Fingerprint) -> Option<u64> {
        let tag = Self::tag_of(fp);
        let b1 = self.bucket1(fp);
        let b2 = self.alt_bucket(b1, tag);
        for &bucket in &[b1, b2] {
            for e in self.buckets[bucket].iter().flatten() {
                if e.tag == tag {
                    return Some(e.value);
                }
            }
        }
        None
    }

    /// Inserts (or updates) the signature of `fp` with `value`.
    ///
    /// Returns `false` when the table is too full to place the entry even
    /// after the displacement budget — callers should treat that as
    /// "resize needed" (ChunkStash provisions the table for the full SSD
    /// population up front).
    pub fn insert(&mut self, fp: Fingerprint, value: u64) -> bool {
        let tag = Self::tag_of(fp);
        let b1 = self.bucket1(fp);
        let b2 = self.alt_bucket(b1, tag);

        // Update in place if the tag is already present.
        for &bucket in &[b1, b2] {
            for e in self.buckets[bucket].iter_mut().flatten() {
                if e.tag == tag {
                    e.value = value;
                    return true;
                }
            }
        }
        // Take any free slot in either bucket.
        for &bucket in &[b1, b2] {
            for slot in self.buckets[bucket].iter_mut() {
                if slot.is_none() {
                    *slot = Some(Entry { tag, value });
                    self.len += 1;
                    return true;
                }
            }
        }

        // Kick: displace a resident entry to its alternate bucket.
        let mut bucket = b1;
        let mut homeless = Entry { tag, value };
        for kick in 0..MAX_KICKS {
            // Deterministic victim rotation avoids RNG while still cycling
            // through slots.
            let victim_slot = kick % SLOTS_PER_BUCKET;
            let victim = self.buckets[bucket][victim_slot].replace(homeless);
            let victim = victim.expect("kick path only runs on full buckets");
            self.kicks += 1;
            homeless = victim;
            bucket = self.alt_bucket(bucket, homeless.tag);
            for slot in self.buckets[bucket].iter_mut() {
                if slot.is_none() {
                    *slot = Some(homeless);
                    self.len += 1;
                    return true;
                }
            }
        }
        // Could not place; restore is impossible (entries shuffled) but
        // the homeless entry is simply dropped after reporting failure —
        // callers must treat `false` as fatal for the table.
        false
    }

    /// Removes `fp`'s signature, returning its value.
    pub fn remove(&mut self, fp: Fingerprint) -> Option<u64> {
        let tag = Self::tag_of(fp);
        let b1 = self.bucket1(fp);
        let b2 = self.alt_bucket(b1, tag);
        for &bucket in &[b1, b2] {
            for slot in self.buckets[bucket].iter_mut() {
                if matches!(slot, Some(e) if e.tag == tag) {
                    let e = slot.take().expect("matched slot");
                    self.len -= 1;
                    return Some(e.value);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_get_remove() {
        let mut t = CuckooTable::with_capacity(100);
        let fp = Fingerprint::from_u64(5);
        assert!(t.insert(fp, 50));
        assert_eq!(t.get(fp), Some(50));
        assert_eq!(t.remove(fp), Some(50));
        assert_eq!(t.get(fp), None);
        assert!(t.is_empty());
    }

    #[test]
    fn update_in_place() {
        let mut t = CuckooTable::with_capacity(10);
        let fp = Fingerprint::from_u64(1);
        t.insert(fp, 1);
        t.insert(fp, 2);
        assert_eq!(t.get(fp), Some(2));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn fills_to_design_capacity() {
        let n = 10_000;
        let mut t = CuckooTable::with_capacity(n);
        for i in 0..n as u64 {
            assert!(
                t.insert(Fingerprint::from_u64(i), i),
                "insert {i} failed at load {}",
                t.load_factor()
            );
        }
        assert_eq!(t.len(), n);
        for i in 0..n as u64 {
            assert_eq!(t.get(Fingerprint::from_u64(i)), Some(i));
        }
    }

    #[test]
    fn kicks_happen_under_load() {
        let n = 50_000;
        let mut t = CuckooTable::with_capacity(n);
        for i in 0..n as u64 {
            t.insert(Fingerprint::from_u64(i), i);
        }
        assert!(t.kicks() > 0, "a well-loaded table must have displaced");
        assert!(t.load_factor() > 0.5);
    }

    #[test]
    fn absent_keys_usually_miss() {
        let mut t = CuckooTable::with_capacity(1000);
        for i in 0..1000u64 {
            t.insert(Fingerprint::from_u64(i), i);
        }
        // 32-bit tags: false positives are ~n/2^32 per probe; in 10 000
        // probes expect essentially none.
        let fps = (10_000..20_000u64)
            .filter(|i| t.get(Fingerprint::from_u64(*i)).is_some())
            .count();
        assert!(fps <= 2, "{fps} unexpected tag collisions");
    }

    proptest! {
        /// The table agrees with a HashMap keyed by tag (tag collisions
        /// merge keys — that is the documented semantic).
        #[test]
        fn prop_matches_tag_map(ops in proptest::collection::vec((0u64..500, any::<u64>(), any::<bool>()), 1..300)) {
            let mut t = CuckooTable::with_capacity(600);
            let mut model: std::collections::HashMap<u32, u64> = Default::default();
            for (k, v, is_remove) in ops {
                let fp = Fingerprint::from_u64(k);
                let tag = CuckooTable::tag_of(fp);
                if is_remove {
                    prop_assert_eq!(t.remove(fp), model.remove(&tag));
                } else {
                    prop_assert!(t.insert(fp, v));
                    model.insert(tag, v);
                }
                prop_assert_eq!(t.get(fp), model.get(&tag).copied());
                prop_assert_eq!(t.len(), model.len());
            }
        }
    }
}
