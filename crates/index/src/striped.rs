//! Striped `RwLock` backend: readers never block readers.

use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::Arc;

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use shhc_types::FingerprintBuildHasher;

use crate::stats::ContentionCounters;
use crate::{
    hash_one, stripe_count, stripe_of, Collection, CollectionHandle, IndexKey, IndexStats,
    IndexValue, DEFAULT_STRIPES,
};

/// A hash map split into `N` power-of-two stripes, each behind its own
/// `RwLock`. Keys are routed by the *upper* bits of their hash so the
/// stripe choice stays decorrelated from `HashMap`'s own bucket masking.
///
/// Readers on different keys proceed fully in parallel; readers on the
/// *same* stripe still share the lock (shared mode); only a writer to a
/// stripe excludes that stripe's readers. Writes to distinct stripes
/// also proceed in parallel.
pub struct StripedMap<K, V, H = FingerprintBuildHasher> {
    inner: Arc<Inner<K, V, H>>,
}

struct Inner<K, V, H> {
    stripes: Box<[RwLock<HashMap<K, V, H>>]>,
    mask: usize,
    hasher: H,
    contention: ContentionCounters,
}

impl<K, V, H> Clone for StripedMap<K, V, H> {
    fn clone(&self) -> Self {
        StripedMap {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<K: IndexKey, V: IndexValue, H: BuildHasher + Default> StripedMap<K, V, H> {
    /// Creates an empty map with [`DEFAULT_STRIPES`] stripes, sized for
    /// `capacity` entries overall.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_and_stripes(capacity, DEFAULT_STRIPES)
    }

    /// Creates an empty map with `stripes` stripes (rounded up to a
    /// power of two), sized for `capacity` entries overall.
    pub fn with_capacity_and_stripes(capacity: usize, stripes: usize) -> Self {
        let n = stripe_count(stripes);
        let per_stripe = capacity.div_ceil(n);
        let stripes: Vec<_> = (0..n)
            .map(|_| RwLock::new(HashMap::with_capacity_and_hasher(per_stripe, H::default())))
            .collect();
        StripedMap {
            inner: Arc::new(Inner {
                stripes: stripes.into_boxed_slice(),
                mask: n - 1,
                hasher: H::default(),
                contention: ContentionCounters::default(),
            }),
        }
    }

    /// Number of stripes (always a power of two).
    pub fn stripes(&self) -> usize {
        self.inner.stripes.len()
    }
}

impl<K: IndexKey, V, H: BuildHasher> Inner<K, V, H> {
    fn stripe_for(&self, key: &K) -> &RwLock<HashMap<K, V, H>> {
        let h = hash_one(&self.hasher, key);
        &self.stripes[stripe_of(h, self.mask)]
    }

    fn read_counted<'a>(
        &'a self,
        lock: &'a RwLock<HashMap<K, V, H>>,
    ) -> RwLockReadGuard<'a, HashMap<K, V, H>> {
        match lock.try_read() {
            Some(g) => g,
            None => {
                self.contention.count_lock_wait();
                lock.read()
            }
        }
    }

    fn write_counted<'a>(
        &'a self,
        lock: &'a RwLock<HashMap<K, V, H>>,
    ) -> RwLockWriteGuard<'a, HashMap<K, V, H>> {
        match lock.try_write() {
            Some(g) => g,
            None => {
                self.contention.count_lock_wait();
                lock.write()
            }
        }
    }
}

/// Per-thread accessor for [`StripedMap`]; carries no state beyond the
/// shared `Arc`.
pub struct StripedHandle<K, V, H = FingerprintBuildHasher> {
    inner: Arc<Inner<K, V, H>>,
}

impl<K, V, H> Collection for StripedMap<K, V, H>
where
    K: IndexKey,
    V: IndexValue,
    H: BuildHasher + Default + Send + Sync + 'static,
{
    type Key = K;
    type Value = V;
    type Handle = StripedHandle<K, V, H>;

    fn pin(&self) -> Self::Handle {
        StripedHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    fn stats(&self) -> IndexStats {
        self.inner.contention.snapshot()
    }

    fn len(&self) -> usize {
        self.inner
            .stripes
            .iter()
            .map(|s| self.inner.read_counted(s).len())
            .sum()
    }

    fn snapshot_entries(&self) -> Vec<(K, V)> {
        let mut out = Vec::new();
        for stripe in self.inner.stripes.iter() {
            let guard = self.inner.read_counted(stripe);
            out.extend(guard.iter().map(|(k, v)| (k.clone(), v.clone())));
        }
        out
    }
}

impl<K, V, H> CollectionHandle for StripedHandle<K, V, H>
where
    K: IndexKey,
    V: IndexValue,
    H: BuildHasher + Default + Send + Sync + 'static,
{
    type Key = K;
    type Value = V;

    fn get(&mut self, key: &K) -> Option<V> {
        let stripe = self.inner.stripe_for(key);
        self.inner.read_counted(stripe).get(key).cloned()
    }

    fn insert(&mut self, key: K, value: V) -> Option<V> {
        let stripe = self.inner.stripe_for(&key);
        self.inner.write_counted(stripe).insert(key, value)
    }

    fn insert_if_absent(&mut self, key: K, value: V) -> Option<V> {
        let stripe = self.inner.stripe_for(&key);
        let mut map = self.inner.write_counted(stripe);
        match map.get(&key) {
            Some(existing) => Some(existing.clone()),
            None => {
                map.insert(key, value);
                None
            }
        }
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        let stripe = self.inner.stripe_for(key);
        self.inner.write_counted(stripe).remove(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Map = StripedMap<u64, u64, FingerprintBuildHasher>;

    #[test]
    fn basic_ops_round_trip() {
        let map = Map::with_capacity_and_stripes(16, 4);
        assert_eq!(map.stripes(), 4);
        let mut h = map.pin();
        for k in 0..100u64 {
            assert_eq!(h.insert(k, k * 2), None);
        }
        for k in 0..100u64 {
            assert_eq!(h.get(&k), Some(k * 2));
        }
        assert_eq!(map.len(), 100);
        assert_eq!(h.insert(7, 1), Some(14));
        assert_eq!(h.insert_if_absent(7, 2), Some(1));
        assert_eq!(h.remove(&7), Some(1));
        assert_eq!(h.get(&7), None);
        assert_eq!(map.len(), 99);
        let mut entries = map.snapshot_entries();
        entries.sort_unstable();
        assert_eq!(entries.len(), 99);
        assert_eq!(entries[0], (0, 0));
    }

    #[test]
    fn keys_spread_across_stripes() {
        let map = Map::with_capacity_and_stripes(0, 8);
        let mut h = map.pin();
        for k in 0..1000u64 {
            h.insert(k, k);
        }
        let occupied = map
            .inner
            .stripes
            .iter()
            .filter(|s| !s.read().is_empty())
            .count();
        assert!(
            occupied >= 6,
            "1000 keys should land in most of 8 stripes, got {occupied}"
        );
    }

    #[test]
    fn concurrent_readers_and_writers_agree() {
        let map = Map::with_capacity(1024);
        let mut h = map.pin();
        for k in 0..512u64 {
            h.insert(k, k);
        }
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let map = map.clone();
                std::thread::spawn(move || {
                    let mut h = map.pin();
                    for round in 0..200u64 {
                        let k = (t * 131 + round * 7) % 512;
                        if t % 2 == 0 {
                            assert!(h.get(&k).is_some() || h.get(&k).is_none());
                        } else {
                            h.insert(k, k + 1000);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("worker");
        }
        assert_eq!(map.len(), 512);
    }
}
