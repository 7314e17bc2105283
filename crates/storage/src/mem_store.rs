//! In-memory container store.

use shhc_hash::fingerprint_of;
use shhc_types::{ChunkId, Error, Fingerprint, FpHashMap, Result};

use crate::{ChunkStore, StoreStats};

struct StoredChunk {
    fingerprint: Fingerprint,
    data: Vec<u8>,
    refs: u32,
}

/// An in-memory [`ChunkStore`] grouping chunks into fixed-size containers
/// (the unit cloud backends would upload and reclaim).
///
/// # Examples
///
/// ```
/// use shhc_storage::{ChunkStore, MemChunkStore};
/// use shhc_hash::fingerprint_of;
///
/// # fn main() -> Result<(), shhc_types::Error> {
/// let mut store = MemChunkStore::new(64); // tiny containers
/// let a = store.put(fingerprint_of(b"aaaa"), b"aaaa".to_vec())?;
/// let b = store.put(fingerprint_of(&vec![7; 100]), vec![7; 100])?;
/// assert_ne!(a.container(), b.container(), "second chunk overflowed");
/// # Ok(())
/// # }
/// ```
pub struct MemChunkStore {
    container_capacity: u64,
    containers: Vec<Vec<StoredChunk>>,
    open_bytes: u64,
    /// Live (referenced) chunks per container, for reclamation.
    live_per_container: Vec<u32>,
    index: FpHashMap<ChunkId, ()>,
    stats: StoreStats,
}

impl std::fmt::Debug for MemChunkStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemChunkStore")
            .field("containers", &self.containers.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl MemChunkStore {
    /// Creates a store whose containers hold up to `container_capacity`
    /// payload bytes (at least one chunk is always accepted).
    ///
    /// # Panics
    ///
    /// Panics if `container_capacity` is zero.
    pub fn new(container_capacity: u64) -> Self {
        assert!(container_capacity > 0, "container capacity must be nonzero");
        MemChunkStore {
            container_capacity,
            containers: vec![Vec::new()],
            open_bytes: 0,
            live_per_container: vec![0],
            index: FpHashMap::default(),
            stats: StoreStats {
                containers: 1,
                ..StoreStats::default()
            },
        }
    }

    fn chunk(&self, id: ChunkId) -> Result<&StoredChunk> {
        self.containers
            .get(id.container() as usize)
            .and_then(|c| c.get(id.slot() as usize))
            .filter(|c| c.refs > 0)
            .ok_or_else(|| Error::not_found(id))
    }

    /// Containers whose chunks are all released (reclaimable space).
    #[cfg(test)]
    pub(crate) fn reclaimable_containers(&self) -> Vec<u32> {
        self.live_per_container
            .iter()
            .enumerate()
            .filter(|(i, &live)| live == 0 && !self.containers[*i].is_empty())
            .map(|(i, _)| i as u32)
            .collect()
    }
}

impl ChunkStore for MemChunkStore {
    fn put(&mut self, fingerprint: Fingerprint, data: Vec<u8>) -> Result<ChunkId> {
        let len = data.len() as u64;
        // Roll to a fresh container when the open one is full (but never
        // leave a chunk unplaced: oversized chunks get their own
        // container).
        if self.open_bytes > 0 && self.open_bytes + len > self.container_capacity {
            self.containers.push(Vec::new());
            self.live_per_container.push(0);
            self.open_bytes = 0;
            self.stats.containers += 1;
        }
        let container = self.containers.len() as u32 - 1;
        let slot = self.containers[container as usize].len() as u32;
        self.containers[container as usize].push(StoredChunk {
            fingerprint,
            data,
            refs: 1,
        });
        self.open_bytes += len;
        self.live_per_container[container as usize] += 1;
        self.stats.chunks += 1;
        self.stats.bytes += len;
        let id = ChunkId::new(container, slot);
        self.index.insert(id, ());
        Ok(id)
    }

    fn get(&self, id: ChunkId) -> Result<Vec<u8>> {
        let chunk = self.chunk(id)?;
        if fingerprint_of(&chunk.data) != chunk.fingerprint {
            return Err(Error::Corruption(format!(
                "chunk {id} payload does not match its fingerprint"
            )));
        }
        Ok(chunk.data.clone())
    }

    fn fingerprint_of(&self, id: ChunkId) -> Result<Fingerprint> {
        Ok(self.chunk(id)?.fingerprint)
    }

    fn add_ref(&mut self, id: ChunkId) -> Result<()> {
        let container = id.container() as usize;
        let chunk = self
            .containers
            .get_mut(container)
            .and_then(|c| c.get_mut(id.slot() as usize))
            .filter(|c| c.refs > 0)
            .ok_or_else(|| Error::not_found(id))?;
        chunk.refs += 1;
        Ok(())
    }

    fn release(&mut self, id: ChunkId) -> Result<u32> {
        let container = id.container() as usize;
        let chunk = self
            .containers
            .get_mut(container)
            .and_then(|c| c.get_mut(id.slot() as usize))
            .filter(|c| c.refs > 0)
            .ok_or_else(|| Error::not_found(id))?;
        chunk.refs -= 1;
        if chunk.refs == 0 {
            let len = chunk.data.len() as u64;
            chunk.data = Vec::new(); // reclaim payload immediately
            self.live_per_container[container] -= 1;
            self.stats.chunks -= 1;
            self.stats.bytes -= len;
            self.index.remove(&id);
            Ok(0)
        } else {
            Ok(chunk.refs)
        }
    }

    fn stats(&self) -> StoreStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put_str(store: &mut MemChunkStore, s: &[u8]) -> ChunkId {
        store.put(fingerprint_of(s), s.to_vec()).expect("put")
    }

    #[test]
    fn round_trip() {
        let mut store = MemChunkStore::new(1024);
        let id = put_str(&mut store, b"hello");
        assert_eq!(store.get(id).unwrap(), b"hello");
        assert_eq!(store.fingerprint_of(id).unwrap(), fingerprint_of(b"hello"));
    }

    #[test]
    fn container_rollover() {
        let mut store = MemChunkStore::new(10);
        let a = put_str(&mut store, b"123456");
        let b = put_str(&mut store, b"789012");
        assert_eq!(a.container(), 0);
        assert_eq!(b.container(), 1);
        assert_eq!(store.stats().containers, 2);
    }

    #[test]
    fn oversized_chunk_gets_own_container() {
        let mut store = MemChunkStore::new(4);
        let id = put_str(&mut store, b"way too big for one container");
        assert_eq!(store.get(id).unwrap(), b"way too big for one container");
    }

    #[test]
    fn get_many_returns_request_order() {
        let mut store = MemChunkStore::new(16);
        let a = put_str(&mut store, b"alpha");
        let b = put_str(&mut store, b"bravo");
        let c = put_str(&mut store, b"charlie");
        let got = store.get_many(&[c, a, b, a]).unwrap();
        assert_eq!(
            got,
            vec![
                b"charlie".to_vec(),
                b"alpha".to_vec(),
                b"bravo".to_vec(),
                b"alpha".to_vec(),
            ]
        );
        store.release(b).unwrap();
        assert!(matches!(store.get_many(&[a, b]), Err(Error::NotFound(_))));
    }

    #[test]
    fn refcount_lifecycle() {
        let mut store = MemChunkStore::new(1024);
        let id = put_str(&mut store, b"shared");
        store.add_ref(id).unwrap();
        assert_eq!(store.release(id).unwrap(), 1);
        assert_eq!(store.release(id).unwrap(), 0);
        assert!(matches!(store.get(id), Err(Error::NotFound(_))));
        assert!(matches!(store.release(id), Err(Error::NotFound(_))));
    }

    #[test]
    fn reclaimable_containers_tracked() {
        let mut store = MemChunkStore::new(8);
        let a = put_str(&mut store, b"aaaaaaaa");
        let _b = put_str(&mut store, b"bbbbbbbb");
        assert!(store.reclaimable_containers().is_empty());
        store.release(a).unwrap();
        assert_eq!(store.reclaimable_containers(), vec![0]);
    }

    #[test]
    fn stats_track_bytes() {
        let mut store = MemChunkStore::new(1024);
        let id = put_str(&mut store, b"12345");
        assert_eq!(store.stats().bytes, 5);
        assert_eq!(store.stats().chunks, 1);
        store.release(id).unwrap();
        assert_eq!(store.stats().bytes, 0);
        assert_eq!(store.stats().chunks, 0);
    }

    #[test]
    fn unknown_id_not_found() {
        let store = MemChunkStore::new(64);
        assert!(matches!(
            store.get(ChunkId::new(5, 5)),
            Err(Error::NotFound(_))
        ));
    }
}
