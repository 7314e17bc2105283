//! Runtime-selected backend: enum dispatch over the two maps, so one
//! harness can measure both behind one type.

use std::hash::BuildHasher;

use shhc_types::FingerprintBuildHasher;

use crate::{
    BackendKind, Collection, CollectionHandle, IndexKey, IndexStats, IndexValue,
    SingleWriterHandle, SingleWriterMap, StripedHandle, StripedMap, DEFAULT_STRIPES,
};

/// A map whose backend is chosen at runtime by [`BackendKind`].
pub enum AnyIndex<K, V, H = FingerprintBuildHasher> {
    /// Single-mutex baseline.
    Single(SingleWriterMap<K, V, H>),
    /// Striped `RwLock` map.
    Striped(StripedMap<K, V, H>),
}

impl<K, V, H> Clone for AnyIndex<K, V, H> {
    fn clone(&self) -> Self {
        match self {
            AnyIndex::Single(m) => AnyIndex::Single(m.clone()),
            AnyIndex::Striped(m) => AnyIndex::Striped(m.clone()),
        }
    }
}

impl<K, V, H> AnyIndex<K, V, H>
where
    K: IndexKey,
    V: IndexValue,
    H: BuildHasher + Default + Clone + Send + Sync + 'static,
{
    /// Creates an empty index of the given kind with default striping.
    pub fn new(kind: BackendKind, capacity: usize) -> Self {
        Self::with_stripes(kind, capacity, DEFAULT_STRIPES)
    }

    /// Creates an empty index of the given kind; `stripes` applies to
    /// the striped backend and is ignored by the single-writer one.
    pub fn with_stripes(kind: BackendKind, capacity: usize, stripes: usize) -> Self {
        match kind {
            BackendKind::Single => AnyIndex::Single(SingleWriterMap::with_capacity(capacity)),
            BackendKind::Striped => {
                AnyIndex::Striped(StripedMap::with_capacity_and_stripes(capacity, stripes))
            }
        }
    }

    /// Which backend this index runs on.
    pub fn kind(&self) -> BackendKind {
        match self {
            AnyIndex::Single(_) => BackendKind::Single,
            AnyIndex::Striped(_) => BackendKind::Striped,
        }
    }
}

impl<K, V, H> std::fmt::Debug for AnyIndex<K, V, H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Deliberately lock-free: a Debug print must never contend with
        // (or deadlock against) live index traffic.
        f.write_str(match self {
            AnyIndex::Single(_) => "AnyIndex::Single",
            AnyIndex::Striped(_) => "AnyIndex::Striped",
        })
    }
}

/// Per-thread accessor for [`AnyIndex`].
pub enum AnyHandle<K, V, H = FingerprintBuildHasher> {
    /// Handle onto the single-mutex baseline.
    Single(SingleWriterHandle<K, V, H>),
    /// Handle onto the striped map.
    Striped(StripedHandle<K, V, H>),
}

impl<K, V, H> std::fmt::Debug for AnyHandle<K, V, H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AnyHandle::Single(_) => "AnyHandle::Single",
            AnyHandle::Striped(_) => "AnyHandle::Striped",
        })
    }
}

impl<K, V, H> Collection for AnyIndex<K, V, H>
where
    K: IndexKey,
    V: IndexValue,
    H: BuildHasher + Default + Clone + Send + Sync + 'static,
{
    type Key = K;
    type Value = V;
    type Handle = AnyHandle<K, V, H>;

    fn pin(&self) -> Self::Handle {
        match self {
            AnyIndex::Single(m) => AnyHandle::Single(m.pin()),
            AnyIndex::Striped(m) => AnyHandle::Striped(m.pin()),
        }
    }

    fn stats(&self) -> IndexStats {
        match self {
            AnyIndex::Single(m) => m.stats(),
            AnyIndex::Striped(m) => m.stats(),
        }
    }

    fn len(&self) -> usize {
        match self {
            AnyIndex::Single(m) => m.len(),
            AnyIndex::Striped(m) => m.len(),
        }
    }

    fn snapshot_entries(&self) -> Vec<(K, V)> {
        match self {
            AnyIndex::Single(m) => m.snapshot_entries(),
            AnyIndex::Striped(m) => m.snapshot_entries(),
        }
    }
}

impl<K, V, H> CollectionHandle for AnyHandle<K, V, H>
where
    K: IndexKey,
    V: IndexValue,
    H: BuildHasher + Default + Clone + Send + Sync + 'static,
{
    type Key = K;
    type Value = V;

    fn get(&mut self, key: &K) -> Option<V> {
        match self {
            AnyHandle::Single(h) => h.get(key),
            AnyHandle::Striped(h) => h.get(key),
        }
    }

    fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self {
            AnyHandle::Single(h) => h.insert(key, value),
            AnyHandle::Striped(h) => h.insert(key, value),
        }
    }

    fn insert_if_absent(&mut self, key: K, value: V) -> Option<V> {
        match self {
            AnyHandle::Single(h) => h.insert_if_absent(key, value),
            AnyHandle::Striped(h) => h.insert_if_absent(key, value),
        }
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        match self {
            AnyHandle::Single(h) => h.remove(key),
            AnyHandle::Striped(h) => h.remove(key),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_round_trips() {
        for kind in BackendKind::ALL {
            let index: AnyIndex<u64, u64> = AnyIndex::new(kind, 8);
            assert_eq!(index.kind(), kind);
            let mut h = index.pin();
            assert_eq!(h.insert(1, 2), None, "{kind}");
            assert_eq!(h.get(&1), Some(2), "{kind}");
            assert_eq!(h.insert_if_absent(1, 9), Some(2), "{kind}");
            assert_eq!(h.remove(&1), Some(2), "{kind}");
            assert_eq!(index.len(), 0, "{kind}");
            assert!(index.clone().snapshot_entries().is_empty(), "{kind}");
        }
    }
}
