//! File-backed container store.

use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use shhc_hash::fingerprint_of;
use shhc_types::{ChunkId, Error, Fingerprint, FpHashMap, Result, FINGERPRINT_LEN};

use crate::{ChunkStore, StoreStats};

/// Container file record layout:
/// `[fp: 20][len: u32 le][data: len bytes]`, appended back to back.
const RECORD_HEADER: usize = FINGERPRINT_LEN + 4;

#[derive(Debug, Clone)]
struct IndexEntry {
    fingerprint: Fingerprint,
    offset: u64,
    len: u32,
    refs: u32,
}

/// A [`ChunkStore`] persisting containers as append-only files
/// (`c00000.ctr`, `c00001.ctr`, …) in a directory; the index is rebuilt by
/// scanning the files on [`FileChunkStore::open`].
///
/// # Examples
///
/// ```no_run
/// use shhc_storage::{ChunkStore, FileChunkStore};
/// use shhc_hash::fingerprint_of;
///
/// # fn main() -> Result<(), shhc_types::Error> {
/// let mut store = FileChunkStore::open("/tmp/shhc-containers", 4 * 1024 * 1024)?;
/// let id = store.put(fingerprint_of(b"data"), b"data".to_vec())?;
/// assert_eq!(store.get(id)?, b"data");
/// # Ok(())
/// # }
/// ```
pub struct FileChunkStore {
    dir: PathBuf,
    container_capacity: u64,
    open_container: u32,
    open_bytes: u64,
    index: FpHashMap<ChunkId, IndexEntry>,
    next_slot: u32,
    stats: StoreStats,
}

impl std::fmt::Debug for FileChunkStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileChunkStore")
            .field("dir", &self.dir)
            .field("stats", &self.stats)
            .finish()
    }
}

impl FileChunkStore {
    /// Opens (or creates) a store in `dir` with the given per-container
    /// byte capacity, re-indexing any existing container files.
    ///
    /// Reference counts are not persisted; every chunk found on disk
    /// reopens with one reference (refcounts are cluster-side metadata in
    /// SHHC, not storage-side).
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on filesystem problems, [`Error::Corruption`] if an
    /// existing container file is malformed.
    pub fn open(dir: impl AsRef<Path>, container_capacity: u64) -> Result<Self> {
        if container_capacity == 0 {
            return Err(Error::invalid("container capacity must be nonzero"));
        }
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;

        let mut store = FileChunkStore {
            dir,
            container_capacity,
            open_container: 0,
            open_bytes: 0,
            index: FpHashMap::default(),
            next_slot: 0,
            stats: StoreStats::default(),
        };
        store.reindex()?;
        Ok(store)
    }

    fn container_path(&self, container: u32) -> PathBuf {
        self.dir.join(format!("c{container:05}.ctr"))
    }

    fn reindex(&mut self) -> Result<()> {
        let mut containers: Vec<u32> = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(num) = name
                .strip_prefix('c')
                .and_then(|s| s.strip_suffix(".ctr"))
                .and_then(|s| s.parse::<u32>().ok())
            {
                containers.push(num);
            }
        }
        containers.sort_unstable();

        for &container in &containers {
            let file = File::open(self.container_path(container))?;
            let mut reader = BufReader::new(file);
            let mut offset = 0u64;
            let mut slot = 0u32;
            loop {
                let mut header = [0u8; RECORD_HEADER];
                match reader.read_exact(&mut header) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
                    Err(e) => return Err(e.into()),
                }
                let fp_bytes: [u8; FINGERPRINT_LEN] =
                    header[..FINGERPRINT_LEN].try_into().expect("20 bytes");
                let len =
                    u32::from_le_bytes(header[FINGERPRINT_LEN..].try_into().expect("4 bytes"));
                // Skip the payload without loading it.
                std::io::copy(&mut reader.by_ref().take(len as u64), &mut std::io::sink())?;
                self.index.insert(
                    ChunkId::new(container, slot),
                    IndexEntry {
                        fingerprint: Fingerprint::from_bytes(fp_bytes),
                        offset: offset + RECORD_HEADER as u64,
                        len,
                        refs: 1,
                    },
                );
                offset += RECORD_HEADER as u64 + len as u64;
                slot += 1;
                self.stats.chunks += 1;
                self.stats.bytes += len as u64;
            }
            self.stats.containers += 1;
            if container == *containers.last().expect("non-empty") {
                self.open_container = container;
                self.open_bytes = offset;
                self.next_slot = slot;
            }
        }
        if containers.is_empty() {
            self.stats.containers = 1; // the (empty) open container
        }
        Ok(())
    }
}

/// Reads one record's payload from its open container file and checks it
/// against the fingerprint the index holds for it.
fn read_verified(file: &mut File, id: ChunkId, entry: &IndexEntry) -> Result<Vec<u8>> {
    file.seek(SeekFrom::Start(entry.offset))?;
    let mut data = vec![0u8; entry.len as usize];
    file.read_exact(&mut data)?;
    if fingerprint_of(&data) != entry.fingerprint {
        return Err(Error::Corruption(format!(
            "chunk {id} payload does not match its fingerprint"
        )));
    }
    Ok(data)
}

impl ChunkStore for FileChunkStore {
    fn put(&mut self, fingerprint: Fingerprint, data: Vec<u8>) -> Result<ChunkId> {
        let len = data.len() as u64;
        if self.open_bytes > 0 && self.open_bytes + len > self.container_capacity {
            self.open_container += 1;
            self.open_bytes = 0;
            self.next_slot = 0;
            self.stats.containers += 1;
        }
        let path = self.container_path(self.open_container);
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        let offset = file.metadata()?.len();
        file.write_all(fingerprint.as_bytes())?;
        file.write_all(&(data.len() as u32).to_le_bytes())?;
        file.write_all(&data)?;
        file.flush()?;

        let id = ChunkId::new(self.open_container, self.next_slot);
        self.index.insert(
            id,
            IndexEntry {
                fingerprint,
                offset: offset + RECORD_HEADER as u64,
                len: data.len() as u32,
                refs: 1,
            },
        );
        self.next_slot += 1;
        self.open_bytes += RECORD_HEADER as u64 + len;
        self.stats.chunks += 1;
        self.stats.bytes += len;
        Ok(id)
    }

    fn get(&self, id: ChunkId) -> Result<Vec<u8>> {
        let entry = self.index.get(&id).ok_or_else(|| Error::not_found(id))?;
        let mut file = File::open(self.container_path(id.container()))?;
        read_verified(&mut file, id, entry)
    }

    /// One open per container and reads in ascending offset order (the
    /// append order, so a manifest window replays as a near-sequential
    /// sweep of each container file instead of N open+seek round trips).
    fn get_many(&self, ids: &[ChunkId]) -> Result<Vec<Vec<u8>>> {
        // Resolve every id up front: an unknown chunk fails the window
        // before any file is opened.
        let mut entries = Vec::with_capacity(ids.len());
        for &id in ids {
            let entry = self.index.get(&id).ok_or_else(|| Error::not_found(id))?;
            entries.push((id, entry));
        }
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_by_key(|&i| (entries[i].0.container(), entries[i].1.offset));
        let mut out: Vec<Vec<u8>> = vec![Vec::new(); entries.len()];
        let mut open: Option<(u32, File)> = None;
        for i in order {
            let (id, entry) = entries[i];
            let container = id.container();
            if open.as_ref().map(|(c, _)| *c) != Some(container) {
                open = Some((container, File::open(self.container_path(container))?));
            }
            let file = &mut open.as_mut().expect("container opened above").1;
            out[i] = read_verified(file, id, entry)?;
        }
        Ok(out)
    }

    fn fingerprint_of(&self, id: ChunkId) -> Result<Fingerprint> {
        self.index
            .get(&id)
            .map(|e| e.fingerprint)
            .ok_or_else(|| Error::not_found(id))
    }

    fn add_ref(&mut self, id: ChunkId) -> Result<()> {
        let entry = self
            .index
            .get_mut(&id)
            .ok_or_else(|| Error::not_found(id))?;
        entry.refs += 1;
        Ok(())
    }

    fn release(&mut self, id: ChunkId) -> Result<u32> {
        let entry = self
            .index
            .get_mut(&id)
            .ok_or_else(|| Error::not_found(id))?;
        entry.refs -= 1;
        let refs = entry.refs;
        if refs == 0 {
            let len = entry.len as u64;
            self.index.remove(&id);
            self.stats.chunks -= 1;
            self.stats.bytes -= len;
            // Physical space is reclaimed when a whole container goes
            // dead; dead records simply stop being indexed.
        }
        Ok(refs)
    }

    fn stats(&self) -> StoreStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("shhc_filestore_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn round_trip_and_reopen() {
        let dir = temp_dir("reopen");
        let (id_a, id_b);
        {
            let mut store = FileChunkStore::open(&dir, 1024).unwrap();
            id_a = store
                .put(fingerprint_of(b"alpha"), b"alpha".to_vec())
                .unwrap();
            id_b = store
                .put(fingerprint_of(b"beta"), b"beta".to_vec())
                .unwrap();
            assert_eq!(store.get(id_a).unwrap(), b"alpha");
        }
        // Reopen: index must be rebuilt from the files.
        let store = FileChunkStore::open(&dir, 1024).unwrap();
        assert_eq!(store.get(id_a).unwrap(), b"alpha");
        assert_eq!(store.get(id_b).unwrap(), b"beta");
        assert_eq!(store.stats().chunks, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rollover_creates_files() {
        let dir = temp_dir("rollover");
        let mut store = FileChunkStore::open(&dir, 16).unwrap();
        for i in 0..4u8 {
            let data = vec![i; 10];
            store.put(fingerprint_of(&data), data).unwrap();
        }
        let files = std::fs::read_dir(&dir).unwrap().count();
        assert!(files >= 3, "expected ≥3 container files, found {files}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_after_reopen_continues_container() {
        let dir = temp_dir("append");
        let id0;
        {
            let mut store = FileChunkStore::open(&dir, 1 << 20).unwrap();
            id0 = store.put(fingerprint_of(b"one"), b"one".to_vec()).unwrap();
        }
        let id1;
        {
            let mut store = FileChunkStore::open(&dir, 1 << 20).unwrap();
            id1 = store.put(fingerprint_of(b"two"), b"two".to_vec()).unwrap();
            assert_eq!(store.get(id0).unwrap(), b"one");
            assert_eq!(store.get(id1).unwrap(), b"two");
        }
        assert_eq!(id0.container(), id1.container());
        assert_eq!(id1.slot(), id0.slot() + 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn get_many_spans_containers_in_request_order() {
        let dir = temp_dir("getmany");
        let mut store = FileChunkStore::open(&dir, 24).unwrap();
        let mut ids = Vec::new();
        let mut payloads = Vec::new();
        for i in 0..6u8 {
            let data = vec![i; 8];
            ids.push(store.put(fingerprint_of(&data), data.clone()).unwrap());
            payloads.push(data);
        }
        assert!(store.stats().containers >= 3, "payloads span containers");
        // Shuffled request order, with a repeat: results must line up.
        let req = vec![ids[5], ids[0], ids[3], ids[0], ids[2]];
        let got = store.get_many(&req).unwrap();
        assert_eq!(
            got,
            vec![
                payloads[5].clone(),
                payloads[0].clone(),
                payloads[3].clone(),
                payloads[0].clone(),
                payloads[2].clone(),
            ]
        );
        assert!(matches!(
            store.get_many(&[ids[1], ChunkId::new(99, 0)]),
            Err(Error::NotFound(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn get_many_detects_corruption() {
        let dir = temp_dir("getmany_corrupt");
        let mut store = FileChunkStore::open(&dir, 1024).unwrap();
        let ok = store
            .put(fingerprint_of(b"fine"), b"fine".to_vec())
            .unwrap();
        let bad = store
            .put(fingerprint_of(b"doomed"), b"doomed".to_vec())
            .unwrap();
        let path = dir.join("c00000.ctr");
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, bytes).unwrap();
        assert!(matches!(
            store.get_many(&[ok, bad]),
            Err(Error::Corruption(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_detected_on_get() {
        let dir = temp_dir("corrupt");
        let mut store = FileChunkStore::open(&dir, 1024).unwrap();
        let id = store
            .put(fingerprint_of(b"pristine"), b"pristine".to_vec())
            .unwrap();
        // Flip a payload byte on disk.
        let path = dir.join("c00000.ctr");
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, bytes).unwrap();
        assert!(matches!(store.get(id), Err(Error::Corruption(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn release_unindexes() {
        let dir = temp_dir("release");
        let mut store = FileChunkStore::open(&dir, 1024).unwrap();
        let id = store.put(fingerprint_of(b"x"), b"x".to_vec()).unwrap();
        assert_eq!(store.release(id).unwrap(), 0);
        assert!(matches!(store.get(id), Err(Error::NotFound(_))));
        std::fs::remove_dir_all(&dir).ok();
    }
}
