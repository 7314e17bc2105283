//! The retained baseline: one `HashMap` behind one mutex.

use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};
use shhc_types::FingerprintBuildHasher;

use crate::stats::ContentionCounters;
use crate::{Collection, CollectionHandle, IndexKey, IndexStats, IndexValue};

/// Every operation — reads included — takes the one mutex. This is the
/// correct choice when a map is owned by exactly one thread (the lock is
/// then always uncontended).
pub struct SingleWriterMap<K, V, H = FingerprintBuildHasher> {
    inner: Arc<Inner<K, V, H>>,
}

struct Inner<K, V, H> {
    map: Mutex<HashMap<K, V, H>>,
    contention: ContentionCounters,
}

impl<K, V, H> Clone for SingleWriterMap<K, V, H> {
    fn clone(&self) -> Self {
        SingleWriterMap {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<K: IndexKey, V: IndexValue, H: BuildHasher + Default> SingleWriterMap<K, V, H> {
    /// Creates an empty map sized for `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        SingleWriterMap {
            inner: Arc::new(Inner {
                map: Mutex::new(HashMap::with_capacity_and_hasher(capacity, H::default())),
                contention: ContentionCounters::default(),
            }),
        }
    }
}

impl<K, V, H> Inner<K, V, H> {
    /// Locks the map, counting a `lock_wait` when another thread held it.
    fn lock_counted(&self) -> MutexGuard<'_, HashMap<K, V, H>> {
        match self.map.try_lock() {
            Some(g) => g,
            None => {
                self.contention.count_lock_wait();
                self.map.lock()
            }
        }
    }
}

/// Per-thread accessor for [`SingleWriterMap`]; carries no state beyond
/// the shared `Arc`.
pub struct SingleWriterHandle<K, V, H = FingerprintBuildHasher> {
    inner: Arc<Inner<K, V, H>>,
}

impl<K, V, H> Collection for SingleWriterMap<K, V, H>
where
    K: IndexKey,
    V: IndexValue,
    H: BuildHasher + Default + Send + Sync + 'static,
{
    type Key = K;
    type Value = V;
    type Handle = SingleWriterHandle<K, V, H>;

    fn pin(&self) -> Self::Handle {
        SingleWriterHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    fn stats(&self) -> IndexStats {
        self.inner.contention.snapshot()
    }

    fn len(&self) -> usize {
        self.inner.lock_counted().len()
    }

    fn snapshot_entries(&self) -> Vec<(K, V)> {
        self.inner
            .lock_counted()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }
}

impl<K, V, H> CollectionHandle for SingleWriterHandle<K, V, H>
where
    K: IndexKey,
    V: IndexValue,
    H: BuildHasher + Default + Send + Sync + 'static,
{
    type Key = K;
    type Value = V;

    fn get(&mut self, key: &K) -> Option<V> {
        self.inner.lock_counted().get(key).cloned()
    }

    fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.inner.lock_counted().insert(key, value)
    }

    fn insert_if_absent(&mut self, key: K, value: V) -> Option<V> {
        let mut map = self.inner.lock_counted();
        match map.get(&key) {
            Some(existing) => Some(existing.clone()),
            None => {
                map.insert(key, value);
                None
            }
        }
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        self.inner.lock_counted().remove(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Map = SingleWriterMap<u64, u64, FingerprintBuildHasher>;

    #[test]
    fn basic_ops_round_trip() {
        let map = Map::with_capacity(8);
        let mut h = map.pin();
        assert_eq!(h.get(&1), None);
        assert_eq!(h.insert(1, 10), None);
        assert_eq!(h.insert(1, 11), Some(10));
        assert_eq!(h.insert_if_absent(1, 99), Some(11));
        assert_eq!(h.insert_if_absent(2, 20), None);
        assert_eq!(h.get(&1), Some(11));
        assert_eq!(map.len(), 2);
        assert_eq!(h.remove(&1), Some(11));
        assert_eq!(h.remove(&1), None);
        let mut entries = map.snapshot_entries();
        entries.sort_unstable();
        assert_eq!(entries, vec![(2, 20)]);
    }

    #[test]
    fn contended_lock_counts_a_wait() {
        let map = Map::with_capacity(0);
        let other = map.clone();
        // Hold the lock on another thread while this one operates.
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(2));
        let b2 = std::sync::Arc::clone(&barrier);
        let holder = std::thread::spawn(move || {
            let _g = other.inner.lock_counted();
            b2.wait();
            std::thread::sleep(std::time::Duration::from_millis(10));
        });
        barrier.wait();
        let mut h = map.pin();
        let _ = h.get(&0);
        holder.join().expect("holder thread");
        assert!(
            map.stats().lock_waits >= 1,
            "blocking behind a held mutex must count a lock_wait"
        );
    }
}
