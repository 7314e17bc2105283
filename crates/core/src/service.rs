//! The end-to-end backup service: chunk → dedup → store → manifest.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use shhc_chunking::Chunker;
use shhc_hash::fingerprint_of;
use shhc_storage::{BackupManifest, ChunkStore, ManifestEntry};
use shhc_types::{ChunkId, Error, Fingerprint, Result, StreamId};

use crate::{LookupAnswer, SharedFrontend, ShhcCluster};

/// Age limit for the service's private shared front-end. Rarely hit —
/// full windows close their batch by size and tail windows flush — but it
/// bounds the wait when concurrent sessions interleave submissions and a
/// window's fingerprints straddle a batch boundary.
const SERVICE_MAX_AGE: Duration = Duration::from_millis(20);

/// How many times a shed lookup submission is retried (with backoff)
/// before the overload error is surfaced to the backup session. At the
/// backoff cap this is ≈¼ s of yielding — long enough to ride out a
/// burst, short enough that a truly saturated front-end fails fast.
const SHED_RETRY_LIMIT: u32 = 32;

/// First retry backoff after a shed submission; doubles per attempt.
const SHED_BACKOFF_FLOOR: Duration = Duration::from_micros(200);

/// Backoff ceiling for shed retries.
const SHED_BACKOFF_CAP: Duration = Duration::from_millis(10);

/// Cut points the cutter thread of [`BackupService::backup`] sends per
/// channel message: one send per chunk would cost more than the chunk's
/// cut search.
const CUT_BLOCK: usize = 16;

/// Blocks of cut points the cutter may run ahead of fingerprinting:
/// 1 024 cuts, ≈ 8 MiB of input at 8 KiB chunks.
const CUT_QUEUE_BLOCKS: usize = 64;

/// Running accounting of one backup: its manifest and chunk counts.
struct Tally {
    manifest: BackupManifest,
    new: usize,
    duplicate: usize,
    total: usize,
    stored_bytes: u64,
}

/// One restore batch: manifest entries `first..first + entries.len()`
/// and the part of the output buffer they fill.
struct RestoreJob<'a> {
    first: usize,
    entries: &'a [ManifestEntry],
    region: &'a mut [u8],
}

/// Outcome of a backup deletion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeleteReport {
    /// Chunk references released (one per manifest entry).
    pub references_released: usize,
    /// Chunks whose last reference was dropped (payload freed and
    /// fingerprint removed from the cluster).
    pub chunks_freed: usize,
}

/// Tuning for the restore read path.
///
/// `batch` is the number of manifest entries fetched per store-lock
/// scope (the restore releases the chunk-store read lock between
/// batches, so concurrent backup sessions' writers are never starved by
/// a long replay). Besides the output buffer, a restore holds
/// at most one fetched batch per worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestoreConfig {
    /// Manifest entries per fetch batch (per lock scope).
    pub batch: usize,
}

impl RestoreConfig {
    /// Creates a config.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn new(batch: usize) -> Self {
        assert!(batch > 0, "restore batch must be nonzero");
        RestoreConfig { batch }
    }
}

impl Default for RestoreConfig {
    fn default() -> Self {
        RestoreConfig { batch: 64 }
    }
}

/// Outcome of one restore run: the reconstructed payload, its size and
/// the time it took.
///
/// A restore reads only the chunk store: data is fetched by the
/// manifest's own chunk ids and checked against each entry, and the
/// fingerprint index is never asked.
#[derive(Debug, Clone)]
pub struct RestoreReport {
    /// The reconstructed backup payload.
    pub data: Vec<u8>,
    /// Manifest entries replayed.
    pub chunks: usize,
    /// Bytes reconstructed (equals `data.len()`).
    pub bytes: u64,
    /// Wall-clock time for the whole replay.
    pub duration: Duration,
}

/// Outcome of one backup run.
#[derive(Debug, Clone)]
pub struct BackupReport {
    /// The restore recipe.
    pub manifest: BackupManifest,
    /// Chunks in the stream.
    pub total_chunks: usize,
    /// Chunks whose data had to be uploaded.
    pub new_chunks: usize,
    /// Chunks deduplicated against existing data.
    pub duplicate_chunks: usize,
    /// Bytes the client logically backed up.
    pub logical_bytes: u64,
    /// Bytes actually shipped to storage.
    pub stored_bytes: u64,
}

impl BackupReport {
    /// Deduplication ratio: logical / stored (∞-safe: full dedup reports
    /// `f64::INFINITY`).
    pub fn dedup_ratio(&self) -> f64 {
        if self.stored_bytes == 0 {
            if self.logical_bytes == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.logical_bytes as f64 / self.stored_bytes as f64
        }
    }

    /// Fraction of chunks that were duplicates.
    pub fn duplicate_fraction(&self) -> f64 {
        if self.total_chunks == 0 {
            0.0
        } else {
            self.duplicate_chunks as f64 / self.total_chunks as f64
        }
    }
}

struct ServiceInner<C, S> {
    frontend: SharedFrontend,
    chunker: C,
    /// Reader-writer: restores and stats only read (`ChunkStore::get`/
    /// `fingerprint_of` take `&self`), so a long restore does not
    /// serialize concurrent sessions' metadata reads.
    store: RwLock<S>,
    /// Chunk locations assigned for fingerprints whose cluster-side
    /// `record` may not have landed yet, keyed by fingerprint. This is
    /// the placeholder shield, shared across sessions: a concurrent
    /// session that sees "exists" for a chunk stored moments ago resolves
    /// its location here instead of trusting the cluster's placeholder
    /// value. Entries are dropped once the record batch lands.
    pending_records: Mutex<HashMap<Fingerprint, ChunkId>>,
}

/// The full cloud-backup pipeline of the paper's Figure 2: a client-side
/// chunker, the SHHC fingerprint cluster behind a shared web front-end,
/// and a cloud chunk store behind that.
///
/// `backup` plays the client role: chunk the stream, submit fingerprints
/// through the shared front-end (receiving completion tickets), upload
/// only new chunks, and assemble the manifest. `restore` plays recovery,
/// verifying every chunk against its fingerprint.
///
/// The service is a cheaply cloneable handle: N sessions on N threads can
/// back up concurrently against one cluster + chunk store, and their
/// fingerprint lookups aggregate in the shared front-end — the paper's
/// many-clients-per-front-end shape. Under a concurrent race on the *same
/// brand-new* chunk, a session may upload a redundant copy (each manifest
/// references the copy it stored, so restores stay byte-exact); dedup
/// efficiency degrades slightly under such races, correctness never.
///
/// # Examples
///
/// ```
/// use shhc::prelude::*;
/// use shhc::{BackupService, ClusterConfig, ShhcCluster};
///
/// # fn main() -> shhc_types::Result<()> {
/// let cluster = ShhcCluster::spawn(ClusterConfig::small_test(2))?;
/// let store = MemChunkStore::new(1 << 20);
/// let service = BackupService::new(cluster, FixedChunker::new(256), store, 64);
///
/// let data = vec![42u8; 4096];
/// let report = service.backup(StreamId::new(1), &data)?;
/// assert_eq!(report.total_chunks, 16);
/// assert!(report.duplicate_chunks > 0, "constant data dedups internally");
/// let restored = service.restore(&report.manifest)?;
/// assert_eq!(restored, data);
/// service.cluster().clone().shutdown()?;
/// # Ok(())
/// # }
/// ```
pub struct BackupService<C, S> {
    inner: Arc<ServiceInner<C, S>>,
}

impl<C, S> Clone for BackupService<C, S> {
    fn clone(&self) -> Self {
        BackupService {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<C, S> std::fmt::Debug for BackupService<C, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackupService")
            .field("frontend", &self.inner.frontend)
            .finish()
    }
}

impl<C: Chunker, S: ChunkStore> BackupService<C, S> {
    /// Creates a service with its own shared front-end; `batch_size`
    /// controls fingerprint batching toward the cluster.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn new(cluster: ShhcCluster, chunker: C, store: S, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be nonzero");
        Self::with_frontend(
            SharedFrontend::new(cluster, batch_size, SERVICE_MAX_AGE),
            chunker,
            store,
        )
    }

    /// Creates a service over an existing shared front-end; its batch
    /// size becomes the service's lookup window. Each session's
    /// submissions carry its stream id as the admission tenant — under a
    /// `FairShed` policy a noisy stream sheds before it can starve quiet
    /// ones.
    pub fn with_frontend(frontend: SharedFrontend, chunker: C, store: S) -> Self {
        BackupService {
            inner: Arc::new(ServiceInner {
                frontend,
                chunker,
                store: RwLock::new(store),
                pending_records: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// The underlying cluster handle.
    pub fn cluster(&self) -> &ShhcCluster {
        self.inner.frontend.cluster()
    }

    /// The shared front-end this service submits lookups through.
    pub fn frontend(&self) -> &SharedFrontend {
        &self.inner.frontend
    }

    /// Locked (shared, read-only) access to the underlying chunk store
    /// (e.g. for statistics).
    pub fn store(&self) -> RwLockReadGuard<'_, S> {
        self.inner.store.read()
    }

    /// Submits one window of fingerprints through the front-end
    /// (tenant-attributed to `stream`) and waits for every ticket.
    ///
    /// Shed submissions are retried with exponential backoff up to
    /// [`SHED_RETRY_LIMIT`] times — overload shows up as a slower backup
    /// first and an [`Overloaded`](shhc_types::Error::Overloaded) error
    /// only once the front-end stays saturated through the whole backoff
    /// run.
    fn lookup_window(&self, stream: StreamId, fps: &[Fingerprint]) -> Result<Vec<LookupAnswer>> {
        let tenant = Some(stream.raw());
        let mut tickets = Vec::with_capacity(fps.len());
        for fp in fps {
            let mut backoff = SHED_BACKOFF_FLOOR;
            let mut attempts = 0u32;
            let ticket = loop {
                let (ticket, shed) = self.inner.frontend.submit_from(tenant, *fp);
                if !shed || attempts >= SHED_RETRY_LIMIT {
                    // Retries exhausted: the shed ticket is already
                    // resolved Overloaded and surfaces below in wait().
                    break ticket;
                }
                attempts += 1;
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(SHED_BACKOFF_CAP);
            };
            tickets.push(ticket);
        }
        tickets.into_iter().map(|t| t.wait()).collect()
    }

    /// Backs up `data` as stream `stream`, returning the manifest and
    /// dedup accounting. Takes `&self`: any number of sessions may back
    /// up concurrently through one service handle.
    ///
    /// The byte path is two stages over the caller's buffer: a helper
    /// thread searches for cut points ([`Chunker::cuts`]) and streams
    /// them over in small blocks, while this thread fingerprints the
    /// borrowed slices, looks each window up and uploads the new chunks
    /// (the only bytes copied). The chunks, lookups and manifest are
    /// those of a single-threaded walk over [`Chunker::chunk`].
    ///
    /// # Errors
    ///
    /// Propagates cluster and storage failures. On error the store may
    /// hold chunks not referenced by any manifest (garbage, not
    /// corruption).
    pub fn backup(&self, stream: StreamId, data: &[u8]) -> Result<BackupReport> {
        let chunker = &self.inner.chunker;
        let (tx, rx) = std::sync::mpsc::sync_channel::<Vec<usize>>(CUT_QUEUE_BLOCKS);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let mut block = Vec::with_capacity(CUT_BLOCK);
                for end in chunker.cuts(data) {
                    block.push(end);
                    if block.len() == CUT_BLOCK {
                        let full = std::mem::replace(&mut block, Vec::with_capacity(CUT_BLOCK));
                        // A send error means the fingerprinting side
                        // failed and hung up: stop cutting.
                        if tx.send(full).is_err() {
                            return;
                        }
                    }
                }
                if !block.is_empty() {
                    let _ = tx.send(block);
                }
            });
            // `rx` moves into the iterator, so an early error return
            // drops it and unblocks a cutter parked on a full channel
            // before the scope joins it.
            self.dedup_stream(stream, data, rx.into_iter().flatten())
        })
    }

    /// The fingerprinting stage of [`backup`](Self::backup): hashes each
    /// chunk `data[previous end..end]` as its end arrives and dedups the
    /// chunks one lookup window at a time.
    fn dedup_stream(
        &self,
        stream: StreamId,
        data: &[u8],
        ends: impl Iterator<Item = usize>,
    ) -> Result<BackupReport> {
        let mut tally = Tally {
            manifest: BackupManifest::new(stream),
            new: 0,
            duplicate: 0,
            total: 0,
            stored_bytes: 0,
        };
        let window_len = self.inner.frontend.batch_size();
        let mut spans: Vec<Range<usize>> = Vec::with_capacity(window_len);
        let mut fps: Vec<Fingerprint> = Vec::with_capacity(window_len);
        let mut start = 0;
        for end in ends {
            fps.push(fingerprint_of(&data[start..end]));
            spans.push(start..end);
            start = end;
            if fps.len() == window_len {
                self.dedup_window(stream, data, &spans, &fps, &mut tally)?;
                spans.clear();
                fps.clear();
            }
        }
        if !fps.is_empty() {
            self.dedup_window(stream, data, &spans, &fps, &mut tally)?;
        }

        Ok(BackupReport {
            manifest: tally.manifest,
            total_chunks: tally.total,
            new_chunks: tally.new,
            duplicate_chunks: tally.duplicate,
            logical_bytes: data.len() as u64,
            stored_bytes: tally.stored_bytes,
        })
    }

    /// Dedups one lookup window: the chunk `data[spans[i]]` has
    /// fingerprint `fps[i]`. Duplicates are verified and referenced, new
    /// chunks uploaded and their locations recorded in the cluster.
    fn dedup_window(
        &self,
        stream: StreamId,
        data: &[u8],
        spans: &[Range<usize>],
        fps: &[Fingerprint],
        tally: &mut Tally,
    ) -> Result<()> {
        let answers = self.lookup_window(stream, fps)?;

        let mut record_pairs: Vec<(Fingerprint, u64)> = Vec::new();
        #[allow(clippy::redundant_closure_call)] // try-block emulation
        let window_result: Result<()> = (|| {
            for ((span, &fp), answer) in spans.iter().zip(fps).zip(&answers) {
                tally.total += 1;
                let bytes = &data[span.clone()];
                let len = bytes.len() as u32;
                let resolved = if answer.existed {
                    // Prefer the in-flight location: the cluster value
                    // may still be the insert-time placeholder.
                    let shielded = self.inner.pending_records.lock().get(&fp).copied();
                    // Resolve, verify and take the reference under ONE
                    // store lock, so a concurrent delete cannot free
                    // the chunk between the check and the add_ref. Any
                    // failure here — placeholder value, wrong payload,
                    // chunk just deleted — falls back to uploading our
                    // own copy (benign redundancy, never corruption).
                    let mut store = self.inner.store.write();
                    shielded
                        .or_else(|| {
                            let id = ChunkId::from_u64(answer.value);
                            match store.fingerprint_of(id) {
                                Ok(stored) if stored == fp => Some(id),
                                _ => None,
                            }
                        })
                        .filter(|&id| store.add_ref(id).is_ok())
                } else {
                    None
                };
                match resolved {
                    Some(id) => {
                        tally.duplicate += 1;
                        tally.manifest.push(fp, id, len);
                    }
                    None => {
                        tally.new += 1;
                        tally.stored_bytes += bytes.len() as u64;
                        let id = self.inner.store.write().put(fp, bytes.to_vec())?;
                        self.inner.pending_records.lock().insert(fp, id);
                        record_pairs.push((fp, id.to_u64()));
                        tally.manifest.push(fp, id, len);
                    }
                }
            }
            if record_pairs.is_empty() {
                Ok(())
            } else {
                self.cluster().record_batch(&record_pairs)
            }
        })();
        // Drop this window's shield entries whether or not the record
        // landed, so error paths cannot grow the map for the lifetime
        // of the service. After a failed record the cluster holds a
        // placeholder value; later sessions fail its verification and
        // re-upload, which is correct (if slightly redundant).
        if !record_pairs.is_empty() {
            let mut pending = self.inner.pending_records.lock();
            for (fp, _) in &record_pairs {
                pending.remove(fp);
            }
        }
        window_result
    }

    /// Adds one storage reference per entry of `manifest` — used when a
    /// new snapshot reuses a previous snapshot's file manifest verbatim,
    /// so each snapshot owns its references and can retire independently.
    ///
    /// # Errors
    ///
    /// [`shhc_types::Error::NotFound`] if a referenced chunk is gone
    /// (the manifest was already retired).
    pub fn reference_manifest(&self, manifest: &shhc_storage::BackupManifest) -> Result<()> {
        let mut store = self.inner.store.write();
        for entry in &manifest.entries {
            store.add_ref(entry.chunk)?;
        }
        Ok(())
    }

    /// Deletes a backup: every chunk loses one reference; chunks reaching
    /// zero references are freed from storage and their fingerprints are
    /// removed from the hash cluster (so future backups re-upload them).
    ///
    /// # Errors
    ///
    /// Propagates storage and cluster failures. Deleting the same
    /// manifest twice releases references twice — callers own manifest
    /// lifecycle.
    pub fn delete_backup(&self, manifest: &shhc_storage::BackupManifest) -> Result<DeleteReport> {
        // A manifest may reference one chunk many times, but it only held
        // one storage reference per distinct chunk (duplicates within the
        // backup used add_ref at backup time, so each occurrence does own
        // a reference).
        let mut freed_fps: Vec<Fingerprint> = Vec::new();
        let mut released = 0usize;
        {
            let mut store = self.inner.store.write();
            for entry in &manifest.entries {
                released += 1;
                if store.release(entry.chunk)? == 0 {
                    freed_fps.push(entry.fingerprint);
                }
            }
        }
        if !freed_fps.is_empty() {
            self.cluster().remove_batch(&freed_fps)?;
        }
        Ok(DeleteReport {
            references_released: released,
            chunks_freed: freed_fps.len(),
        })
    }

    /// Reconstructs a backup from its manifest, verifying every chunk.
    ///
    /// Equivalent to [`restore_with`](Self::restore_with) under the
    /// default [`RestoreConfig`], returning just the payload.
    ///
    /// # Errors
    ///
    /// Propagates storage errors; corruption and missing chunks are
    /// detected.
    pub fn restore(&self, manifest: &BackupManifest) -> Result<Vec<u8>>
    where
        C: Send + Sync,
        S: Send + Sync,
    {
        self.restore_with(manifest, RestoreConfig::default())
            .map(|r| r.data)
    }

    /// Another name for [`restore`](Self::restore), kept only because the
    /// benchmark package (`ledger/src/bytes.rs`) calls it.
    ///
    /// # Errors
    ///
    /// As [`restore`](Self::restore).
    pub fn restore_pipelined(&self, manifest: &BackupManifest) -> Result<Vec<u8>>
    where
        C: Send + Sync,
        S: Send + Sync,
    {
        self.restore(manifest)
    }

    /// Replays a manifest on two workers, this thread and one scoped
    /// helper. The manifest is cut into batches of `config.batch`
    /// entries, each paired with the disjoint region of the output buffer
    /// its entries fill, and the workers take batches from one shared
    /// cursor in manifest order. Per batch, a worker fetches the chunks
    /// as **one** [`ChunkStore::get_many`] call (which re-verifies every
    /// payload against its fingerprint), checks each chunk against its
    /// manifest entry and copies it into place. The SHA-1 verification of
    /// two batches thus runs at once.
    ///
    /// The store read lock is taken per `config.batch` entries, never for
    /// the whole replay, so concurrent backup sessions' writes interleave
    /// with a long restore instead of queueing behind it.
    ///
    /// The restore never asks the fingerprint index: the manifest names
    /// every chunk, so the cluster's nodes, caches and counters are
    /// untouched, and a restore succeeds with every node down.
    ///
    /// # Errors
    ///
    /// [`Error::NotFound`] if a referenced chunk is gone,
    /// [`Error::Corruption`] if a chunk's payload or length no longer
    /// matches the manifest. When several batches fail, the error is the
    /// one at the lowest manifest index, as a front-to-back replay would
    /// report it.
    pub fn restore_with(
        &self,
        manifest: &BackupManifest,
        config: RestoreConfig,
    ) -> Result<RestoreReport>
    where
        C: Send + Sync,
        S: Send + Sync,
    {
        let start_time = Instant::now();
        let batch = config.batch.max(1);
        let mut data = vec![0u8; manifest.logical_bytes() as usize];
        let outcomes = {
            let mut jobs = Vec::with_capacity(manifest.len().div_ceil(batch));
            let mut rest = data.as_mut_slice();
            for (k, entries) in manifest.entries.chunks(batch).enumerate() {
                let len = entries.iter().map(|e| e.len as usize).sum();
                let (region, tail) = std::mem::take(&mut rest).split_at_mut(len);
                rest = tail;
                jobs.push(RestoreJob {
                    first: k * batch,
                    entries,
                    region,
                });
            }
            let cursor = Mutex::new(jobs.into_iter());
            // Publishes no data (errors travel back through the joins),
            // so relaxed loads and stores are enough.
            let failed = AtomicBool::new(false);
            // Batches leave the cursor in order, so when one fails every
            // lower batch is already taken and runs to its end: the
            // lowest failing index is always found.
            let work = || {
                while !failed.load(Ordering::Relaxed) {
                    let Some(job) = cursor.lock().next() else {
                        break;
                    };
                    if let Err(e) = self.restore_batch(job) {
                        failed.store(true, Ordering::Relaxed);
                        return Err(e);
                    }
                }
                Ok(())
            };
            std::thread::scope(|scope| {
                let helper = scope.spawn(work);
                [work(), helper.join().expect("restore worker panicked")]
            })
        };
        if let Some((_, e)) = outcomes
            .into_iter()
            .filter_map(|o| o.err())
            .min_by_key(|(i, _)| *i)
        {
            return Err(e);
        }
        Ok(RestoreReport {
            chunks: manifest.len(),
            bytes: data.len() as u64,
            data,
            duration: start_time.elapsed(),
        })
    }

    /// Fetches, checks and places one restore batch. An error carries
    /// the manifest index a front-to-back replay reports it at.
    fn restore_batch(&self, job: RestoreJob<'_>) -> std::result::Result<(), (usize, Error)> {
        let RestoreJob {
            first,
            entries,
            region,
        } = job;
        let (blobs, stored_fps) = {
            // Lock scope: one batch. Writers get in between batches.
            let store = self.inner.store.read();
            let ids: Vec<ChunkId> = entries.iter().map(|e| e.chunk).collect();
            store
                .get_many(&ids)
                .and_then(|blobs| {
                    let stored_fps = ids
                        .iter()
                        .map(|&id| store.fingerprint_of(id))
                        .collect::<Result<Vec<_>>>()?;
                    Ok((blobs, stored_fps))
                })
                .map_err(|e| (first, e))?
        };
        let mut offset = 0;
        for (j, ((entry, blob), stored_fp)) in
            entries.iter().zip(&blobs).zip(stored_fps).enumerate()
        {
            let i = first + j;
            entry.verify(i, blob.len(), stored_fp).map_err(|e| (i, e))?;
            region[offset..offset + blob.len()].copy_from_slice(blob);
            offset += blob.len();
        }
        Ok(())
    }

    /// Consumes the service, returning the store (e.g. to inspect
    /// containers after a run).
    ///
    /// # Panics
    ///
    /// Panics when other clones of this service handle are still alive.
    pub fn into_store(self) -> S {
        match Arc::try_unwrap(self.inner) {
            Ok(inner) => inner.store.into_inner(),
            Err(_) => panic!("into_store with other service handles alive"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterConfig;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use shhc_chunking::FixedChunker;
    use shhc_storage::MemChunkStore;

    fn service(nodes: u32) -> BackupService<FixedChunker, MemChunkStore> {
        let cluster = ShhcCluster::spawn(ClusterConfig::small_test(nodes)).unwrap();
        BackupService::new(
            cluster,
            FixedChunker::new(128),
            MemChunkStore::new(1 << 20),
            32,
        )
    }

    fn random_data(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut v = vec![0u8; len];
        rng.fill_bytes(&mut v);
        v
    }

    #[test]
    fn backup_restore_round_trip() {
        let svc = service(2);
        let data = random_data(10_000, 1);
        let report = svc.backup(StreamId::new(1), &data).unwrap();
        assert_eq!(report.logical_bytes, 10_000);
        assert_eq!(report.duplicate_chunks, 0, "random data has no dups");
        let restored = svc.restore(&report.manifest).unwrap();
        assert_eq!(restored, data);
    }

    #[test]
    fn second_backup_fully_deduplicates() {
        let svc = service(3);
        let data = random_data(20_000, 2);
        let first = svc.backup(StreamId::new(1), &data).unwrap();
        let second = svc.backup(StreamId::new(2), &data).unwrap();
        assert_eq!(second.new_chunks, 0);
        assert_eq!(second.duplicate_chunks, second.total_chunks);
        assert_eq!(second.stored_bytes, 0);
        assert!(second.dedup_ratio().is_infinite());
        // Both manifests restore correctly.
        assert_eq!(svc.restore(&first.manifest).unwrap(), data);
        assert_eq!(svc.restore(&second.manifest).unwrap(), data);
    }

    #[test]
    fn incremental_backup_stores_only_changes() {
        let svc = service(2);
        let mut data = random_data(12_800, 3); // 100 chunks of 128
        svc.backup(StreamId::new(1), &data).unwrap();
        // Change exactly one chunk-aligned block.
        data[256..384].copy_from_slice(&random_data(128, 4));
        let second = svc.backup(StreamId::new(2), &data).unwrap();
        assert_eq!(second.new_chunks, 1);
        assert_eq!(second.duplicate_chunks, 99);
        assert_eq!(svc.restore(&second.manifest).unwrap(), data);
    }

    #[test]
    fn intra_stream_duplicates_resolved_in_session() {
        let svc = service(2);
        // The same 128-byte block repeated 50 times: first is new, the
        // other 49 resolve via the pending-record shield.
        let block = random_data(128, 5);
        let data: Vec<u8> = block.iter().copied().cycle().take(128 * 50).collect();
        let report = svc.backup(StreamId::new(1), &data).unwrap();
        assert_eq!(report.new_chunks, 1);
        assert_eq!(report.duplicate_chunks, 49);
        assert_eq!(svc.restore(&report.manifest).unwrap(), data);
        assert!((report.dedup_ratio() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn cross_session_dedup_uses_recorded_locations() {
        let svc = service(2);
        let data = random_data(5120, 6);
        svc.backup(StreamId::new(1), &data).unwrap();
        // The pending-record shield has drained — locations must come
        // from the cluster's recorded values.
        assert!(svc.inner.pending_records.lock().is_empty());
        let report = svc.backup(StreamId::new(2), &data).unwrap();
        assert_eq!(report.new_chunks, 0);
        assert_eq!(svc.restore(&report.manifest).unwrap(), data);
    }

    #[test]
    fn store_refcounts_track_manifests() {
        let svc = service(1);
        let data = random_data(1280, 7);
        let r1 = svc.backup(StreamId::new(1), &data).unwrap();
        let r2 = svc.backup(StreamId::new(2), &data).unwrap();
        // 10 chunks stored once, referenced twice.
        assert_eq!(svc.store().stats().chunks, 10);
        assert_eq!(r1.manifest.len(), 10);
        assert_eq!(r2.manifest.len(), 10);
    }

    #[test]
    fn concurrent_sessions_share_one_service() {
        let svc = service(2);
        let mut handles = Vec::new();
        for s in 0..4u32 {
            let svc = svc.clone();
            handles.push(std::thread::spawn(move || {
                let data = random_data(6400, 100 + u64::from(s));
                let report = svc.backup(StreamId::new(s), &data).unwrap();
                assert_eq!(svc.restore(&report.manifest).unwrap(), data);
                report
            }));
        }
        let reports: Vec<BackupReport> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Disjoint random streams: everything was new, nothing was lost.
        let stored: u64 = reports.iter().map(|r| r.stored_bytes).sum();
        assert_eq!(stored, 4 * 6400);
        assert_eq!(svc.store().stats().chunks, 4 * 50);
    }

    #[test]
    fn concurrent_sessions_with_identical_data_stay_correct() {
        // The documented race: sessions may duplicate a brand-new chunk,
        // but every manifest must restore byte-exactly.
        let svc = service(2);
        let data = Arc::new(random_data(6400, 9));
        let mut handles = Vec::new();
        for s in 0..4u32 {
            let svc = svc.clone();
            let data = Arc::clone(&data);
            handles.push(std::thread::spawn(move || {
                let report = svc.backup(StreamId::new(s), &data).unwrap();
                assert_eq!(svc.restore(&report.manifest).unwrap(), *data);
                report
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // At least one copy of each chunk exists; races may add a few
        // redundant copies but never lose data.
        let chunks = svc.store().stats().chunks;
        assert!((50..=200).contains(&chunks), "stored {chunks} chunks");
    }

    #[test]
    fn concurrent_backups_complete_through_a_fair_shed_tier() {
        // One tightly bounded front-end: sessions get shed under the
        // combined load and the retry/backoff path must still land every
        // backup byte-exactly.
        let cluster = ShhcCluster::spawn(ClusterConfig::small_test(2)).unwrap();
        let config = crate::FrontendConfig::new(32, SERVICE_MAX_AGE).admission(
            shhc_net::AdmissionPolicy::FairShed {
                max_pending: 48,
                per_tenant_quota: 40,
            },
        );
        let svc = BackupService::with_frontend(
            SharedFrontend::with_config(cluster, config),
            FixedChunker::new(128),
            MemChunkStore::new(1 << 20),
        );
        let mut handles = Vec::new();
        for s in 0..4u32 {
            let svc = svc.clone();
            handles.push(std::thread::spawn(move || {
                let data = random_data(6400, 200 + u64::from(s));
                let report = svc.backup(StreamId::new(s), &data).unwrap();
                assert_eq!(svc.restore(&report.manifest).unwrap(), data);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(svc.store().stats().chunks, 4 * 50);
    }
}
