//! The client application role: file-level change detection over
//! snapshots.
//!
//! The paper's client "collect[s] changes in local data, calculat[es]
//! data fingerprints and communicat[es] with the cloud back-up service to
//! selectively upload new data". [`BackupClient`] implements that loop on
//! top of [`BackupService`]: unchanged files (detected by whole-file
//! SHA-1) skip chunking *and* the cluster entirely; changed files go
//! through the normal chunk-level dedup path. Each run produces a
//! [`Snapshot`] that can be restored or retired (releasing chunk
//! references) independently.

use std::collections::BTreeMap;

use shhc_chunking::Chunker;
use shhc_hash::fingerprint_of;
use shhc_storage::{BackupManifest, ChunkStore};
use shhc_types::{Error, Fingerprint, Result, StreamId};
use shhc_workload::Dataset;

use crate::{BackupService, DeleteReport};

/// One retained snapshot of a dataset.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The snapshot's backup stream id.
    pub stream: StreamId,
    /// Per-file manifests, in path order.
    pub files: BTreeMap<String, FileEntry>,
}

/// One file inside a snapshot.
#[derive(Debug, Clone)]
pub struct FileEntry {
    /// Whole-file SHA-1 (change detection key).
    pub(crate) content_hash: Fingerprint,
    /// The file's chunk manifest.
    pub manifest: BackupManifest,
}

impl Snapshot {
    /// Total logical bytes across all files.
    pub fn logical_bytes(&self) -> u64 {
        self.files
            .values()
            .map(|f| f.manifest.logical_bytes())
            .sum()
    }
}

/// Report of one incremental snapshot run.
#[derive(Debug, Clone, Default)]
pub struct SnapshotReport {
    /// Files examined.
    pub files_total: usize,
    /// Files skipped (unchanged since the previous snapshot).
    pub files_unchanged: usize,
    /// Files that went through chunk-level dedup.
    pub files_changed: usize,
    /// Chunks newly uploaded across changed files.
    pub new_chunks: usize,
    /// Chunks deduplicated across changed files.
    pub duplicate_chunks: usize,
    /// Bytes shipped to storage.
    pub stored_bytes: u64,
}

/// An incremental backup client for [`Dataset`] file trees.
///
/// This is the *session* half of the session-split: the client owns the
/// per-session change-detection state (`previous`), while the wrapped
/// [`BackupService`] is a cloneable shared handle — spawn one
/// `BackupClient` per thread over clones of one service and N clients
/// snapshot concurrently against one cluster + chunk store, their
/// fingerprint lookups aggregating in the shared front-end.
///
/// # Examples
///
/// ```
/// use shhc::prelude::*;
/// use shhc::{BackupClient, BackupService, ClusterConfig, ShhcCluster};
/// use shhc_workload::{Dataset, DatasetSpec};
///
/// # fn main() -> shhc_types::Result<()> {
/// let cluster = ShhcCluster::spawn(ClusterConfig::small_test(2))?;
/// let service = BackupService::new(
///     cluster.clone(),
///     FixedChunker::new(512),
///     MemChunkStore::new(1 << 20),
///     64,
/// );
/// let mut client = BackupClient::new(service);
///
/// let ds = Dataset::generate(&DatasetSpec { files: 4, mean_file_size: 1024, seed: 1 });
/// let (_snap1, _r1) = client.snapshot(&ds)?;
/// let (_snap2, r2) = client.snapshot(&ds)?; // nothing changed
/// assert_eq!(r2.files_unchanged, 4);
/// assert_eq!(r2.stored_bytes, 0);
/// cluster.shutdown()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BackupClient<C, S> {
    service: BackupService<C, S>,
    /// File states as of the previous snapshot.
    previous: BTreeMap<String, FileEntry>,
    next_stream: u32,
}

impl<C: Chunker, S: ChunkStore> BackupClient<C, S> {
    /// Wraps a backup service.
    pub fn new(service: BackupService<C, S>) -> Self {
        BackupClient {
            service,
            previous: BTreeMap::new(),
            next_stream: 0,
        }
    }

    /// Access to the wrapped service (e.g. for store statistics).
    pub fn service(&self) -> &BackupService<C, S> {
        &self.service
    }

    /// Takes an incremental snapshot of `dataset`.
    ///
    /// Unchanged files reuse their previous manifests (each stored chunk
    /// gains one reference so snapshots retire independently); changed
    /// and new files run through chunk-level deduplication.
    ///
    /// # Errors
    ///
    /// Propagates cluster and storage failures.
    pub fn snapshot(&mut self, dataset: &Dataset) -> Result<(Snapshot, SnapshotReport)> {
        let stream = StreamId::new(self.next_stream);
        self.next_stream += 1;

        let mut report = SnapshotReport::default();
        let mut files = BTreeMap::new();

        for (path, data) in dataset.iter() {
            report.files_total += 1;
            let content_hash = fingerprint_of(data);

            if let Some(prev) = self.previous.get(path) {
                if prev.content_hash == content_hash {
                    // Unchanged: no chunking, no cluster traffic — just
                    // re-reference the chunks so this snapshot owns them.
                    report.files_unchanged += 1;
                    self.service.reference_manifest(&prev.manifest)?;
                    files.insert(
                        path.to_string(),
                        FileEntry {
                            content_hash,
                            manifest: prev.manifest.clone(),
                        },
                    );
                    continue;
                }
            }

            report.files_changed += 1;
            let backup = self.service.backup(stream, data)?;
            report.new_chunks += backup.new_chunks;
            report.duplicate_chunks += backup.duplicate_chunks;
            report.stored_bytes += backup.stored_bytes;
            files.insert(
                path.to_string(),
                FileEntry {
                    content_hash,
                    manifest: backup.manifest,
                },
            );
        }

        let snapshot = Snapshot { stream, files };
        self.previous = snapshot.files.clone();
        Ok((snapshot, report))
    }

    /// Restores a snapshot into an in-memory dataset, verifying every
    /// chunk.
    ///
    /// # Errors
    ///
    /// Propagates storage failures; corruption is detected per chunk.
    pub fn restore_snapshot(&self, snapshot: &Snapshot) -> Result<Dataset>
    where
        C: Send + Sync,
        S: Send + Sync,
    {
        let mut ds = Dataset::generate(&shhc_workload::DatasetSpec {
            files: 0,
            mean_file_size: 1,
            seed: 0,
        });
        for (path, entry) in &snapshot.files {
            let data = self.service.restore(&entry.manifest)?;
            if fingerprint_of(&data) != entry.content_hash {
                return Err(Error::Corruption(format!(
                    "restored file {path} does not match its snapshot hash"
                )));
            }
            ds.put_file(path.clone(), data);
        }
        Ok(ds)
    }

    /// Retires a snapshot: every file manifest releases its chunk
    /// references; chunks reaching zero are garbage collected.
    ///
    /// # Errors
    ///
    /// Propagates storage and cluster failures.
    pub fn delete_snapshot(&mut self, snapshot: &Snapshot) -> Result<DeleteReport> {
        let mut total = DeleteReport {
            references_released: 0,
            chunks_freed: 0,
        };
        for entry in snapshot.files.values() {
            let r = self.service.delete_backup(&entry.manifest)?;
            total.references_released += r.references_released;
            total.chunks_freed += r.chunks_freed;
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterConfig, ShhcCluster};
    use shhc_chunking::FixedChunker;
    use shhc_storage::MemChunkStore;
    use shhc_workload::{DatasetSpec, MutationSpec};

    fn client(nodes: u32) -> BackupClient<FixedChunker, MemChunkStore> {
        let cluster = ShhcCluster::spawn(ClusterConfig::small_test(nodes)).unwrap();
        BackupClient::new(BackupService::new(
            cluster,
            FixedChunker::new(512),
            MemChunkStore::new(1 << 22),
            64,
        ))
    }

    fn dataset() -> Dataset {
        Dataset::generate(&DatasetSpec {
            files: 12,
            mean_file_size: 4096,
            seed: 3,
        })
    }

    #[test]
    fn unchanged_files_skip_everything() {
        let mut client = client(2);
        let ds = dataset();
        let (_, first) = client.snapshot(&ds).unwrap();
        assert_eq!(first.files_changed, 12);
        let (_, second) = client.snapshot(&ds).unwrap();
        assert_eq!(second.files_unchanged, 12);
        assert_eq!(second.new_chunks, 0);
        assert_eq!(second.stored_bytes, 0);
    }

    #[test]
    fn edits_touch_only_changed_files() {
        let mut client = client(2);
        let mut ds = dataset();
        client.snapshot(&ds).unwrap();
        ds.mutate(
            &MutationSpec {
                edits: 2,
                appends: 0,
                creates: 0,
                deletes: 0,
                change_size: 512,
            },
            99,
        );
        let (_, report) = client.snapshot(&ds).unwrap();
        assert!(report.files_changed <= 2, "{report:?}");
        assert!(report.files_unchanged >= 10);
        // Only the edited regions upload; untouched chunks of the edited
        // files dedup against the first snapshot.
        assert!(report.duplicate_chunks > 0);
    }

    #[test]
    fn snapshots_restore_independently() {
        let mut client = client(3);
        let mut ds = dataset();
        let (snap1, _) = client.snapshot(&ds).unwrap();
        let v1 = ds.clone();
        ds.mutate(&MutationSpec::default(), 7);
        let (snap2, _) = client.snapshot(&ds).unwrap();

        assert_eq!(client.restore_snapshot(&snap1).unwrap(), v1);
        assert_eq!(client.restore_snapshot(&snap2).unwrap(), ds);
    }

    #[test]
    fn deleting_old_snapshot_keeps_new_one_restorable() {
        let mut client = client(2);
        let mut ds = dataset();
        let (snap1, _) = client.snapshot(&ds).unwrap();
        ds.mutate(&MutationSpec::default(), 11);
        let (snap2, _) = client.snapshot(&ds).unwrap();

        let del = client.delete_snapshot(&snap1).unwrap();
        assert!(del.references_released > 0);
        assert_eq!(client.restore_snapshot(&snap2).unwrap(), ds);

        // Retiring the last snapshot empties the store.
        client.delete_snapshot(&snap2).unwrap();
        assert_eq!(client.service().store().stats().chunks, 0);
    }
}
