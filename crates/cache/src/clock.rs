//! The node's RAM cache: a set-associative CLOCK table of fingerprints.

use std::fmt;

use shhc_types::{Fingerprint, FINGERPRINT_LEN};

use crate::{Cache, CacheStats};

/// Ways per set.
const WAYS: usize = 8;
/// `u64` words per slot: fingerprint bytes 0..8, 8..16 and 16..20, then
/// the value — 32 bytes.
const SLOT_WORDS: usize = 4;
/// The value's word in a slot; the words before it are the key.
const VALUE: usize = 3;
/// `u16` words per set record: the eight way tags, then the occupied
/// mask, the reference mask and the hand; the rest is padding to 32 bytes.
const META_WORDS: usize = 16;
const OCCUPIED: usize = WAYS;
const REFERENCED: usize = WAYS + 1;
const HAND: usize = WAYS + 2;
/// Records and slots start on this boundary, so none straddles a cache
/// line.
const ALIGN: usize = 32;

/// The per-node RAM cache of hot fingerprints: `⌈capacity / 8⌉` sets of
/// eight `(fingerprint, value)` slots, each set evicting by second chance
/// (CLOCK) — the paper's LRU list (§III.B), approximated per set.
///
/// The fingerprint's own bytes index the table, so there is no hasher:
/// bytes 8..12 (the half of [`Fingerprint::bucket_key`] the flash bucket
/// mask never reaches) pick the set by multiply-shift, and bytes 16..18
/// (the half of [`Fingerprint::tag32`] the flash directory does not use)
/// are the way tag. Ring placement and the shard router use bytes 0..8.
///
/// Each set keeps a 32-byte record in an array of its own: eight 16-bit
/// way tags, an occupied mask, a reference mask and the clock hand. A miss
/// reads that one record; a hit, update or eviction also touches one
/// 32-byte slot. An entry costs 36 bytes. All-zero memory is an empty
/// table, so sets nobody touches cost no resident memory.
///
/// The capacity is exact: sets get `⌊capacity / sets⌋` or one more ways,
/// so [`Cache::len`] never exceeds [`Cache::capacity`].
///
/// # Examples
///
/// ```
/// use shhc_cache::{Cache, ClockCache};
/// use shhc_types::Fingerprint;
///
/// let mut cache = ClockCache::new(2);
/// let (a, b, c) = (Fingerprint::from_u64(1), Fingerprint::from_u64(2), Fingerprint::from_u64(3));
/// cache.insert(a, 10);
/// cache.insert(b, 20);
/// cache.get(&a); // a gets a second chance
/// assert_eq!(cache.insert(c, 30), Some((b, 20)));
/// assert_eq!(cache.get(&a), Some(&10));
/// assert_eq!(cache.len(), 2);
/// ```
pub struct ClockCache {
    /// Set records, [`META_WORDS`] each, from `meta_start`.
    meta: Vec<u16>,
    meta_start: usize,
    /// Slots, [`WAYS`] × [`SLOT_WORDS`] per set, from `slot_start`.
    slots: Vec<u64>,
    slot_start: usize,
    sets: usize,
    /// Every set has `base_ways` ways; the first `extra` sets one more.
    base_ways: usize,
    extra: usize,
    capacity: usize,
    len: usize,
    stats: CacheStats,
}

/// Index of the first element of `v` on an [`ALIGN`]-byte boundary.
fn aligned_start<T>(v: &[T]) -> usize {
    v.as_ptr().addr().wrapping_neg() % ALIGN / std::mem::size_of::<T>()
}

/// A fingerprint as the three slot words it is stored and compared as:
/// bytes 0..8, 8..16 and 16..20, little-endian.
#[inline]
fn key_words(fp: &Fingerprint) -> [u64; 3] {
    let b = fp.as_bytes();
    let word = |at: usize| u64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"));
    let tail = u32::from_le_bytes(b[16..].try_into().expect("4 bytes"));
    [word(0), word(8), u64::from(tail)]
}

#[inline]
fn fingerprint_of(words: &[u64]) -> Fingerprint {
    let mut b = [0u8; FINGERPRINT_LEN];
    b[..8].copy_from_slice(&words[0].to_le_bytes());
    b[8..16].copy_from_slice(&words[1].to_le_bytes());
    b[16..].copy_from_slice(&(words[2] as u32).to_le_bytes());
    Fingerprint::from_bytes(b)
}

/// The way tag: bytes 16..18.
#[inline]
fn way_tag(key: &[u64; 3]) -> u16 {
    key[2] as u16
}

impl ClockCache {
    /// Creates a table holding at most `capacity` entries, allocated
    /// zeroed.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be nonzero");
        let sets = capacity.div_ceil(WAYS);
        let meta = vec![0u16; (sets + 1) * META_WORDS];
        let slots = vec![0u64; (sets + 1) * WAYS * SLOT_WORDS];
        ClockCache {
            meta_start: aligned_start(&meta),
            slot_start: aligned_start(&slots),
            meta,
            slots,
            sets,
            base_ways: capacity / sets,
            extra: capacity % sets,
            capacity,
            len: 0,
            stats: CacheStats::default(),
        }
    }

    /// The set: bytes 8..12, multiplied by the set count, high half.
    #[inline]
    fn set_of(&self, key: &[u64; 3]) -> usize {
        ((u64::from(key[1] as u32) * self.sets as u64) >> 32) as usize
    }

    #[inline]
    fn record(&self, set: usize) -> &[u16; META_WORDS] {
        let at = self.meta_start + set * META_WORDS;
        self.meta[at..at + META_WORDS]
            .try_into()
            .expect("one record")
    }

    #[inline]
    fn record_mut(&mut self, set: usize) -> &mut [u16; META_WORDS] {
        let at = self.meta_start + set * META_WORDS;
        (&mut self.meta[at..at + META_WORDS])
            .try_into()
            .expect("one record")
    }

    #[inline]
    fn slot_at(&self, set: usize, way: usize) -> usize {
        self.slot_start + (set * WAYS + way) * SLOT_WORDS
    }

    /// The mask of the ways `set` may use.
    #[inline]
    fn way_mask(&self, set: usize) -> u16 {
        let ways = self.base_ways + usize::from(set < self.extra);
        (1u16 << ways) - 1
    }

    /// The set of `key` and, when the table holds it, its way.
    #[inline]
    fn find(&self, key: &[u64; 3]) -> (usize, Option<usize>) {
        let set = self.set_of(key);
        let record = self.record(set);
        let tag = way_tag(key);
        let mut candidates = record[..WAYS]
            .iter()
            .enumerate()
            .fold(0u16, |m, (w, &t)| m | (u16::from(t == tag) << w))
            & record[OCCUPIED];
        while candidates != 0 {
            let way = candidates.trailing_zeros() as usize;
            let at = self.slot_at(set, way);
            if self.slots[at..at + VALUE] == *key {
                return (set, Some(way));
            }
            candidates &= candidates - 1;
        }
        (set, None)
    }

    /// The way an insert into the full `set` replaces: the first way from
    /// the hand whose reference bit is clear. The bits it passes are
    /// cleared (their second chance), and when every bit is set the
    /// sweep clears them all and takes the first way from the hand.
    #[inline]
    fn victim(&mut self, set: usize) -> usize {
        let record = self.record_mut(set);
        let hand = u32::from(record[HAND]);
        let occupied = record[OCCUPIED] as u8;
        let mut unreferenced = occupied & !(record[REFERENCED] as u8);
        if unreferenced == 0 {
            record[REFERENCED] = 0;
            unreferenced = occupied;
        }
        let distance = unreferenced.rotate_right(hand).trailing_zeros();
        let passed = (((1u16 << distance) - 1) as u8).rotate_left(hand);
        record[REFERENCED] &= !u16::from(passed);
        let way = (hand + distance) as usize % WAYS;
        record[HAND] = ((way + 1) % WAYS) as u16;
        way
    }
}

impl Cache<Fingerprint, u64> for ClockCache {
    #[inline]
    fn get(&mut self, key: &Fingerprint) -> Option<&u64> {
        match self.find(&key_words(key)) {
            (set, Some(way)) => {
                self.stats.hits += 1;
                self.record_mut(set)[REFERENCED] |= 1 << way;
                Some(&self.slots[self.slot_at(set, way) + VALUE])
            }
            (_, None) => {
                self.stats.misses += 1;
                None
            }
        }
    }

    #[inline]
    fn insert(&mut self, key: Fingerprint, value: u64) -> Option<(Fingerprint, u64)> {
        self.stats.insertions += 1;
        let key = key_words(&key);
        let (set, way) = self.find(&key);
        if let Some(way) = way {
            let at = self.slot_at(set, way);
            self.slots[at + VALUE] = value;
            self.record_mut(set)[REFERENCED] |= 1 << way;
            return None;
        }
        let free = self.way_mask(set) & !self.record(set)[OCCUPIED];
        let (way, evicted) = if free != 0 {
            self.len += 1;
            (free.trailing_zeros() as usize, None)
        } else {
            self.stats.evictions += 1;
            let way = self.victim(set);
            let at = self.slot_at(set, way);
            let old = &self.slots[at..at + SLOT_WORDS];
            (way, Some((fingerprint_of(old), old[VALUE])))
        };
        let at = self.slot_at(set, way);
        let [w0, w1, w2] = key;
        self.slots[at..at + SLOT_WORDS].copy_from_slice(&[w0, w1, w2, value]);
        let record = self.record_mut(set);
        record[way] = way_tag(&key);
        record[OCCUPIED] |= 1 << way;
        evicted
    }

    #[inline]
    fn peek(&self, key: &Fingerprint) -> bool {
        self.find(&key_words(key)).1.is_some()
    }

    fn remove(&mut self, key: &Fingerprint) -> Option<u64> {
        let (set, way) = self.find(&key_words(key));
        let way = way?;
        let record = self.record_mut(set);
        record[OCCUPIED] &= !(1 << way);
        record[REFERENCED] &= !(1 << way);
        self.len -= 1;
        Some(self.slots[self.slot_at(set, way) + VALUE])
    }

    fn len(&self) -> usize {
        self.len
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }

    fn clear(&mut self) {
        self.meta.fill(0);
        self.len = 0;
    }
}

impl fmt::Debug for ClockCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClockCache")
            .field("capacity", &self.capacity)
            .field("sets", &self.sets)
            .field("len", &self.len)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn fp(k: u64) -> Fingerprint {
        Fingerprint::from_u64(k)
    }

    #[test]
    fn second_chance_spares_a_referenced_way() {
        let mut c = ClockCache::new(3);
        c.insert(fp(1), 1);
        c.insert(fp(2), 2);
        c.insert(fp(3), 3);
        c.get(&fp(1));
        assert_eq!(c.insert(fp(4), 4), Some((fp(2), 2)));
        // The hand moved past the way it filled; 1 lost its reference
        // bit when the sweep passed it, so it goes next after 3.
        assert_eq!(c.insert(fp(5), 5), Some((fp(3), 3)));
        assert_eq!(c.insert(fp(6), 6), Some((fp(1), 1)));
        assert!(c.peek(&fp(4)) && c.peek(&fp(5)) && c.peek(&fp(6)));
    }

    #[test]
    fn capacity_is_exact_below_and_above_one_set() {
        for cap in [1, 3, 4, 7, 8, 9, 17, 100] {
            let mut c = ClockCache::new(cap);
            for k in 0..(cap as u64 * 40) {
                c.insert(fp(k), k);
                assert!(c.len() <= cap, "capacity {cap}: {} entries", c.len());
            }
            assert_eq!(c.len(), cap, "capacity {cap} never filled");
            assert_eq!(c.capacity(), cap);
            let s = c.stats();
            assert_eq!(s.insertions - s.evictions, cap as u64);
        }
    }

    #[test]
    fn one_set_fills_before_it_evicts() {
        let mut c = ClockCache::new(8);
        for k in 0..8 {
            assert_eq!(c.insert(fp(k), k), None);
        }
        assert!(c.insert(fp(8), 8).is_some());
        assert_eq!(c.len(), 8);
    }

    #[test]
    fn keys_that_share_set_and_tag_bytes_stay_apart() {
        // Bytes 8..20 pick the set and the tag; these differ only in 0..8.
        let tail = *fp(7).as_bytes();
        let twin = |head: u64| {
            let mut b = tail;
            b[..8].copy_from_slice(&head.to_be_bytes());
            Fingerprint::from_bytes(b)
        };
        let mut c = ClockCache::new(64);
        c.insert(twin(1), 10);
        c.insert(twin(2), 20);
        assert_eq!(c.get(&twin(1)), Some(&10));
        assert_eq!(c.get(&twin(2)), Some(&20));
        assert_eq!(c.remove(&twin(1)), Some(10));
        assert!(c.get(&twin(1)).is_none());
        assert!(c.peek(&twin(2)));
    }

    #[test]
    fn clear_preserves_stats() {
        let mut c = ClockCache::new(16);
        c.insert(fp(1), 1);
        c.get(&fp(1));
        c.clear();
        assert!(c.is_empty());
        assert!(c.get(&fp(1)).is_none());
        assert_eq!(c.stats().hits, 1);
        c.insert(fp(1), 2);
        assert_eq!(c.get(&fp(1)), Some(&2));
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_panics() {
        let _ = ClockCache::new(0);
    }

    const CAPACITIES: [usize; 8] = [1, 3, 4, 7, 8, 9, 64, 1_000];

    #[derive(Debug, Clone)]
    enum Op {
        Get(u16),
        Insert(u16, u64),
        Remove(u16),
        Peek(u16),
        Clear,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            any::<u16>().prop_map(Op::Get),
            any::<u16>().prop_map(Op::Get),
            (any::<u16>(), any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
            (any::<u16>(), any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
            (any::<u16>(), any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
            any::<u16>().prop_map(Op::Remove),
            any::<u16>().prop_map(Op::Peek),
            Just(Op::Clear),
        ]
    }

    proptest! {
        /// Against a `HashMap` of what the table holds (kept exact by
        /// the evictions `insert` returns): a hit returns the last value
        /// inserted, a removed or evicted key never hits, `len` never
        /// exceeds the capacity, and the counters match the model's.
        #[test]
        fn prop_matches_hash_map_model(cap_at in 0usize..8,
                                       ops in proptest::collection::vec(op_strategy(), 0..600)) {
            let cap = CAPACITIES[cap_at];
            // Twice the capacity in distinct keys, so sets fill and evict.
            let domain = 2 * cap as u64 + 3;
            let key = |k: u16| fp(u64::from(k) % domain);
            let mut real = ClockCache::new(cap);
            let mut model: HashMap<Fingerprint, u64> = HashMap::new();
            let mut want = CacheStats::default();
            for op in ops {
                match op {
                    Op::Get(k) => {
                        let m = model.get(&key(k)).copied();
                        prop_assert_eq!(real.get(&key(k)).copied(), m);
                        if m.is_some() { want.hits += 1 } else { want.misses += 1 }
                    }
                    Op::Insert(k, v) => {
                        want.insertions += 1;
                        let evicted = real.insert(key(k), v);
                        if model.contains_key(&key(k)) {
                            prop_assert_eq!(evicted, None);
                        } else if let Some((gone, gone_value)) = evicted {
                            want.evictions += 1;
                            prop_assert_eq!(model.remove(&gone), Some(gone_value));
                        }
                        model.insert(key(k), v);
                    }
                    Op::Remove(k) => {
                        prop_assert_eq!(real.remove(&key(k)), model.remove(&key(k)));
                    }
                    Op::Peek(k) => {
                        prop_assert_eq!(real.peek(&key(k)), model.contains_key(&key(k)));
                    }
                    Op::Clear => {
                        real.clear();
                        model.clear();
                    }
                }
                prop_assert!(real.len() <= cap);
                prop_assert_eq!(real.len(), model.len());
                prop_assert_eq!(real.stats(), want);
            }
        }
    }
}
