//! Concurrent fingerprint maps behind a map-bench-style adapter.
//!
//! A node's RAM index is its own cache and flash table, owned by one
//! shard worker; this crate is not on that path. It keeps two maps behind
//! a [`Collection`]/[`CollectionHandle`] adapter pair so the ledger's
//! `index.*` kernel rows can keep measuring them:
//!
//! | backend | reads | writes |
//! |---|---|---|
//! | [`SingleWriterMap`] | serialize on one mutex | serialize |
//! | [`StripedMap`] | shared `RwLock` per stripe — readers never block readers | exclusive per stripe |
//!
//! A [`Collection`] is the cheaply-cloneable shared structure; each
//! thread *pins* it into a [`CollectionHandle`] it owns exclusively.
//! Both backends count [`IndexStats::lock_waits`]: a `try_lock` that
//! failed and had to block.
//!
//! # Examples
//!
//! ```
//! use shhc_index::{AnyIndex, BackendKind, Collection, CollectionHandle};
//! use shhc_types::Fingerprint;
//!
//! let index: AnyIndex<Fingerprint, u64> = AnyIndex::new(BackendKind::Striped, 64);
//! let mut handle = index.pin();
//! let fp = Fingerprint::from_u64(7);
//! assert_eq!(handle.insert(fp, 42), None);
//! assert_eq!(handle.get(&fp), Some(42));
//! assert_eq!(handle.remove(&fp), Some(42));
//! assert_eq!(index.len(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod any;
mod single;
mod stats;
mod striped;

pub use any::{AnyHandle, AnyIndex};
pub use single::{SingleWriterHandle, SingleWriterMap};
pub use stats::IndexStats;
pub use striped::{StripedHandle, StripedMap};

use std::hash::{BuildHasher, Hash};

/// Marker bounds every index key must satisfy (fingerprints do).
pub trait IndexKey: Hash + Eq + Clone + Send + Sync + 'static {}
impl<T: Hash + Eq + Clone + Send + Sync + 'static> IndexKey for T {}

/// Marker bounds every index value must satisfy.
pub trait IndexValue: Clone + Send + Sync + 'static {}
impl<T: Clone + Send + Sync + 'static> IndexValue for T {}

/// A concurrent map shared between threads — the factory half of the
/// adapter pair (map-bench's `Collection`).
///
/// Cloning a collection is cheap (an `Arc` bump) and yields another
/// view of the *same* map. Each thread calls [`Collection::pin`] once
/// and performs its operations through the returned handle.
pub trait Collection: Clone + Send + Sync + 'static {
    /// Key type.
    type Key: IndexKey;
    /// Value type.
    type Value: IndexValue;
    /// The per-thread accessor.
    type Handle: CollectionHandle<Key = Self::Key, Value = Self::Value>;

    /// Creates this thread's handle.
    fn pin(&self) -> Self::Handle;

    /// Contention counters accumulated so far (all handles combined).
    fn stats(&self) -> IndexStats;

    /// Number of live entries.
    fn len(&self) -> usize;

    /// Whether the map is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every live `(key, value)` pair, in unspecified order. Meant for
    /// verification and tests, not the hot path.
    fn snapshot_entries(&self) -> Vec<(Self::Key, Self::Value)>;
}

/// A per-thread accessor onto a [`Collection`] (map-bench's
/// `CollectionHandle`).
///
/// Methods take `&mut self`: a handle belongs to exactly one thread.
pub trait CollectionHandle: Send {
    /// Key type.
    type Key: IndexKey;
    /// Value type.
    type Value: IndexValue;

    /// Looks up `key`, returning its value when present.
    fn get(&mut self, key: &Self::Key) -> Option<Self::Value>;

    /// Upserts `key`, returning the previous value when it existed.
    fn insert(&mut self, key: Self::Key, value: Self::Value) -> Option<Self::Value>;

    /// Inserts `key` only when absent; returns the existing value (and
    /// leaves it untouched) when present.
    fn insert_if_absent(&mut self, key: Self::Key, value: Self::Value) -> Option<Self::Value>;

    /// Removes `key`, returning its value when it was present.
    fn remove(&mut self, key: &Self::Key) -> Option<Self::Value>;
}

/// Which backend an [`AnyIndex`] runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// One mutex, single-writer semantics.
    #[default]
    Single,
    /// Striped `RwLock` map: readers never block readers.
    Striped,
}

impl BackendKind {
    /// Every backend.
    pub const ALL: [BackendKind; 2] = [BackendKind::Single, BackendKind::Striped];
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BackendKind::Single => "single",
            BackendKind::Striped => "striped",
        })
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "single" | "single-writer" | "mutex" => Ok(BackendKind::Single),
            "striped" | "striped-rwlock" | "rwlock" => Ok(BackendKind::Striped),
            other => Err(format!("unknown index backend {other:?}")),
        }
    }
}

/// Number of stripes the striped backends default to: enough that 8–16
/// threads rarely collide on a stripe, small enough that per-stripe maps
/// stay cache-friendly.
pub const DEFAULT_STRIPES: usize = 64;

pub(crate) fn stripe_count(requested: usize) -> usize {
    requested.next_power_of_two().max(1)
}

/// Picks the stripe for a hash: the *upper* bits, decorrelated from the
/// low bits `HashMap` masks for its own buckets.
pub(crate) fn stripe_of(hash: u64, mask: usize) -> usize {
    ((hash >> 32) as usize ^ (hash as usize)) & mask
}

pub(crate) fn hash_one<K: Hash, H: BuildHasher>(hasher: &H, key: &K) -> u64 {
    hasher.hash_one(key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_kind_parses_and_displays() {
        for kind in BackendKind::ALL {
            let round: BackendKind = kind.to_string().parse().unwrap();
            assert_eq!(round, kind);
        }
        assert_eq!(
            "rwlock".parse::<BackendKind>().unwrap(),
            BackendKind::Striped
        );
        assert_eq!(
            "single-writer".parse::<BackendKind>().unwrap(),
            BackendKind::Single
        );
        assert!("snapshot".parse::<BackendKind>().is_err());
    }

    #[test]
    fn stripe_helpers() {
        assert_eq!(stripe_count(0), 1);
        assert_eq!(stripe_count(1), 1);
        assert_eq!(stripe_count(48), 64);
        assert_eq!(stripe_count(64), 64);
        let mask = stripe_count(64) - 1;
        for h in [0u64, 1, u64::MAX, 0xdead_beef_cafe_f00d] {
            assert!(stripe_of(h, mask) <= mask);
        }
    }
}
