//! Backup manifests and restore.

use shhc_types::{ChunkId, Error, Fingerprint, Result, StreamId};

use crate::ChunkStore;

/// One chunk reference within a backup manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ManifestEntry {
    /// The chunk's content fingerprint.
    pub fingerprint: Fingerprint,
    /// Where the chunk lives in the store.
    pub chunk: ChunkId,
    /// Payload length in bytes.
    pub len: u32,
}

impl ManifestEntry {
    /// Checks a chunk read back for this entry, the manifest's `index`-th:
    /// its payload length `len` and the fingerprint the store holds for
    /// it, `stored`, must both be the ones recorded at backup time.
    ///
    /// # Errors
    ///
    /// [`Error::Corruption`] naming `index` on either mismatch.
    pub fn verify(&self, index: usize, len: usize, stored: Fingerprint) -> Result<()> {
        if len != self.len as usize {
            return Err(Error::Corruption(format!(
                "manifest entry {index}: length {} but stored chunk has {len}",
                self.len
            )));
        }
        if stored != self.fingerprint {
            return Err(Error::Corruption(format!(
                "manifest entry {index}: fingerprint mismatch (chunk {} holds different content)",
                self.chunk
            )));
        }
        Ok(())
    }
}

/// The recipe to reconstruct one backup stream: an ordered list of chunk
/// references (both the deduplicated ones and the freshly stored ones).
///
/// # Examples
///
/// ```
/// use shhc_storage::{BackupManifest, ChunkStore, MemChunkStore, restore};
/// use shhc_hash::fingerprint_of;
/// use shhc_types::StreamId;
///
/// # fn main() -> Result<(), shhc_types::Error> {
/// let mut store = MemChunkStore::new(1024);
/// let mut manifest = BackupManifest::new(StreamId::new(1));
/// let data = b"the only chunk".to_vec();
/// let fp = fingerprint_of(&data);
/// let id = store.put(fp, data.clone())?;
/// manifest.push(fp, id, data.len() as u32);
/// assert_eq!(restore(&store, &manifest)?, data);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackupManifest {
    /// The backup stream this manifest describes.
    pub stream: StreamId,
    /// Chunk references in stream order.
    pub entries: Vec<ManifestEntry>,
}

impl BackupManifest {
    /// Creates an empty manifest for `stream`.
    pub fn new(stream: StreamId) -> Self {
        BackupManifest {
            stream,
            entries: Vec::new(),
        }
    }

    /// Appends a chunk reference.
    pub fn push(&mut self, fingerprint: Fingerprint, chunk: ChunkId, len: u32) {
        self.entries.push(ManifestEntry {
            fingerprint,
            chunk,
            len,
        });
    }

    /// Number of chunk references.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the manifest references no chunks.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total logical bytes the manifest reconstructs.
    pub fn logical_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.len as u64).sum()
    }
}

/// Reconstructs the full backup payload from a manifest, verifying every
/// chunk against the fingerprint recorded at backup time.
///
/// # Errors
///
/// [`Error::NotFound`] if a referenced chunk is gone;
/// [`Error::Corruption`] if a chunk's payload or length no longer matches
/// the manifest.
pub fn restore<S: ChunkStore + ?Sized>(store: &S, manifest: &BackupManifest) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(manifest.logical_bytes() as usize);
    for (i, entry) in manifest.entries.iter().enumerate() {
        let data = store.get(entry.chunk)?;
        entry.verify(i, data.len(), store.fingerprint_of(entry.chunk)?)?;
        out.extend_from_slice(&data);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemChunkStore;
    use shhc_hash::fingerprint_of;

    #[test]
    fn restore_multi_chunk_stream() {
        let mut store = MemChunkStore::new(1024);
        let mut manifest = BackupManifest::new(StreamId::new(3));
        let mut expected = Vec::new();
        for i in 0..10u8 {
            let data = vec![i; 16];
            let fp = fingerprint_of(&data);
            let id = store.put(fp, data.clone()).unwrap();
            manifest.push(fp, id, data.len() as u32);
            expected.extend_from_slice(&data);
        }
        assert_eq!(restore(&store, &manifest).unwrap(), expected);
        assert_eq!(manifest.logical_bytes(), 160);
    }

    #[test]
    fn dedup_reference_restores_same_bytes() {
        let mut store = MemChunkStore::new(1024);
        let data = b"repeated".to_vec();
        let fp = fingerprint_of(&data);
        let id = store.put(fp, data.clone()).unwrap();
        store.add_ref(id).unwrap();
        let mut manifest = BackupManifest::new(StreamId::new(1));
        manifest.push(fp, id, data.len() as u32);
        manifest.push(fp, id, data.len() as u32); // duplicate reference
        let restored = restore(&store, &manifest).unwrap();
        assert_eq!(restored, b"repeatedrepeated");
    }

    #[test]
    fn missing_chunk_detected() {
        let store = MemChunkStore::new(64);
        let mut manifest = BackupManifest::new(StreamId::new(1));
        manifest.push(Fingerprint::from_u64(1), ChunkId::new(0, 9), 4);
        assert!(matches!(
            restore(&store, &manifest),
            Err(Error::NotFound(_))
        ));
    }

    #[test]
    fn wrong_fingerprint_detected() {
        let mut store = MemChunkStore::new(64);
        let data = b"actual".to_vec();
        let id = store.put(fingerprint_of(&data), data.clone()).unwrap();
        let mut manifest = BackupManifest::new(StreamId::new(1));
        // Manifest claims different content for the chunk.
        manifest.push(Fingerprint::from_u64(999), id, data.len() as u32);
        match restore(&store, &manifest) {
            Err(Error::Corruption(msg)) => assert_eq!(
                msg,
                format!(
                    "manifest entry 0: fingerprint mismatch (chunk {id} holds different content)"
                )
            ),
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    #[test]
    fn wrong_length_detected() {
        let mut store = MemChunkStore::new(64);
        let data = b"1234".to_vec();
        let fp = fingerprint_of(&data);
        let id = store.put(fp, data).unwrap();
        let mut manifest = BackupManifest::new(StreamId::new(1));
        manifest.push(fp, id, 99);
        match restore(&store, &manifest) {
            Err(Error::Corruption(msg)) => {
                assert_eq!(msg, "manifest entry 0: length 99 but stored chunk has 4")
            }
            other => panic!("expected corruption, got {other:?}"),
        }
    }
}
