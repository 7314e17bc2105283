//! Small newtype identifiers used across the workspace.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(u32);

        impl $name {
            /// Creates the identifier from its raw index.
            pub const fn new(raw: u32) -> Self {
                $name(raw)
            }

            /// Returns the raw index.
            pub const fn raw(self) -> u32 {
                self.0
            }

            /// Returns the raw index widened to `usize`, convenient for
            /// vector indexing.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(raw: u32) -> Self {
                $name(raw)
            }
        }

        impl From<$name> for u32 {
            fn from(id: $name) -> u32 {
                id.0
            }
        }
    };
}

id_type!(
    /// Identifies one hash node in the cluster.
    ///
    /// # Examples
    ///
    /// ```
    /// use shhc_types::NodeId;
    /// let n = NodeId::new(3);
    /// assert_eq!(n.index(), 3);
    /// assert_eq!(n.to_string(), "node-3");
    /// ```
    NodeId,
    "node-"
);

id_type!(
    /// Identifies a backup client (one machine or mobile device).
    ///
    /// # Examples
    ///
    /// ```
    /// use shhc_types::ClientId;
    /// assert_eq!(ClientId::new(0).to_string(), "client-0");
    /// ```
    ClientId,
    "client-"
);

id_type!(
    /// Identifies one backup stream (a single backup session of a client).
    ///
    /// # Examples
    ///
    /// ```
    /// use shhc_types::StreamId;
    /// assert_eq!(StreamId::new(9).raw(), 9);
    /// ```
    StreamId,
    "stream-"
);

/// The value a hash node stores with a fingerprint it has inserted but
/// whose chunk location is not recorded yet: the "new, send the data"
/// answer's placeholder, and what a repeat of that fingerprint answers
/// until the location is recorded. As a [`ChunkId`] it names container
/// `u32::MAX`, which no chunk store reaches, so it never verifies as a
/// stored chunk.
///
/// ```
/// use shhc_types::{ChunkId, PENDING_VALUE};
/// assert_eq!(ChunkId::from_u64(PENDING_VALUE).container(), u32::MAX);
/// ```
pub const PENDING_VALUE: u64 = u64::MAX;

/// Identifies a stored chunk inside the cloud-storage backend: a container
/// number plus the slot within the container.
///
/// # Examples
///
/// ```
/// use shhc_types::ChunkId;
/// let id = ChunkId::new(2, 17);
/// assert_eq!(id.container(), 2);
/// assert_eq!(id.slot(), 17);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChunkId {
    container: u32,
    slot: u32,
}

impl ChunkId {
    /// Creates a chunk id from a container number and slot index.
    pub const fn new(container: u32, slot: u32) -> Self {
        ChunkId { container, slot }
    }

    /// The container (large append-only file) holding the chunk.
    pub const fn container(self) -> u32 {
        self.container
    }

    /// The slot within the container.
    pub const fn slot(self) -> u32 {
        self.slot
    }

    /// Packs the id into a single `u64` (container in the high half).
    pub const fn to_u64(self) -> u64 {
        ((self.container as u64) << 32) | self.slot as u64
    }

    /// Unpacks an id previously packed with [`ChunkId::to_u64`].
    pub const fn from_u64(v: u64) -> Self {
        ChunkId {
            container: (v >> 32) as u32,
            slot: v as u32,
        }
    }
}

impl fmt::Debug for ChunkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chunk-{}.{}", self.container, self.slot)
    }
}

impl fmt::Display for ChunkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chunk-{}.{}", self.container, self.slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trips_raw() {
        let id = NodeId::new(7);
        assert_eq!(u32::from(id), 7);
        assert_eq!(NodeId::from(7u32), id);
    }

    #[test]
    fn chunk_id_pack_unpack() {
        let id = ChunkId::new(0xdead, 0xbeef);
        assert_eq!(ChunkId::from_u64(id.to_u64()), id);
        assert_eq!(id.to_string(), "chunk-57005.48879");
    }

    #[test]
    fn ids_are_ordered() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert!(ChunkId::new(0, 5) < ChunkId::new(1, 0));
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", StreamId::default()).is_empty());
        assert!(!format!("{:?}", ClientId::new(2)).is_empty());
    }
}
