//! The two data-side workloads: `ingest_bytes` (generational backup of
//! a mutating image) and `restore_bytes` (pipelined restore of the
//! generations' manifests), through one `BackupService`.

use std::time::Duration;

use shhc::{Admission, BackupService, LookupAnswer, SharedFrontend, Ticket};
use shhc_chunking::{Chunk, Chunker, GearChunker};
use shhc_hash::{xxh64, Sha1};
use shhc_storage::{BackupManifest, ChunkStore, MemChunkStore};
use shhc_types::{ChunkId, Fingerprint, StreamId};

use crate::gen::{Image, InputsDigest};
use crate::phase::{closed_loop, Phase};
use crate::span::Recorder;
use crate::sut::{spawn_cluster, NODES};

/// Bytes per backup call and per restored manifest: one operation.
pub const SLICE: usize = 4 << 20;
/// Fingerprints per lookup window inside `BackupService::backup`.
pub const LOOKUP_WINDOW: usize = 512;
/// Container size of the in-memory chunk store.
const CONTAINER_BYTES: u64 = 4 << 20;
/// RAM cache entries per node: the image's ≈ 8 KiB chunks all fit.
pub const CACHE_ENTRIES: usize = 64 * 1024;

pub type Service = BackupService<GearChunker, MemChunkStore>;

fn chunker() -> GearChunker {
    GearChunker::new(2 * 1024, 8 * 1024, 64 * 1024)
}

/// A service holding a full backup of the seed's image.
pub struct Rig {
    pub service: Service,
    pub image: Image,
    /// The newest manifest of every slice, in slice order.
    pub manifests: Vec<BackupManifest>,
    pub digest: InputsDigest,
    pub logical_bytes: u64,
    /// Backup calls during set-up whose accounting did not add up.
    pub setup_failed: u64,
}

const STREAM: u32 = 1;

impl Rig {
    /// Spawns cluster, front-end, chunk store and service, generates the
    /// seed's image and backs it up slice by slice.
    pub fn setup(seed: u64, image_bytes: usize) -> Rig {
        assert_eq!(image_bytes % SLICE, 0, "image is a whole number of slices");
        let expected_chunks = (image_bytes / 8192) as u64;
        let cluster = spawn_cluster(CACHE_ENTRIES, expected_chunks * 2 / u64::from(NODES));
        let frontend = SharedFrontend::new(cluster, LOOKUP_WINDOW, Duration::from_millis(5));
        let service =
            BackupService::with_frontend(frontend, chunker(), MemChunkStore::new(CONTAINER_BYTES));
        let image = Image::new(seed, image_bytes);
        let mut digest = InputsDigest::new(seed);
        digest.bytes(&image.data);
        let mut rig = Rig {
            service,
            image,
            manifests: Vec::new(),
            digest,
            logical_bytes: 0,
            setup_failed: 0,
        };
        for slice in 0..image_bytes / SLICE {
            let (ok, manifest) = rig.backup_slice(slice);
            rig.setup_failed += u64::from(!ok);
            rig.manifests.push(manifest);
        }
        rig
    }

    pub fn slices(&self) -> usize {
        self.image.data.len() / SLICE
    }

    fn slice_bytes(&self, slice: usize) -> &[u8] {
        &self.image.data[slice * SLICE..(slice + 1) * SLICE]
    }

    /// One `BackupService::backup` call; true when its accounting adds
    /// up (`new + duplicate = total`, every byte in the manifest).
    fn backup_slice(&mut self, slice: usize) -> (bool, BackupManifest) {
        let report = self
            .service
            .backup(StreamId::new(STREAM), self.slice_bytes(slice));
        self.logical_bytes += SLICE as u64;
        match report {
            Ok(r) => (
                r.new_chunks + r.duplicate_chunks == r.total_chunks
                    && r.logical_bytes == SLICE as u64
                    && r.manifest.logical_bytes() == SLICE as u64,
                r.manifest,
            ),
            Err(_) => (false, BackupManifest::new(StreamId::new(STREAM))),
        }
    }

    /// Backs one slice up again and keeps its new manifest.
    pub fn rebackup(&mut self, slice: usize) -> bool {
        let (ok, manifest) = self.backup_slice(slice);
        self.manifests[slice] = manifest;
        ok
    }

    /// Chunk-store bytes per logical byte backed up so far.
    pub fn stored_per_logical(&self) -> f64 {
        self.service.store().stats().bytes as f64 / self.logical_bytes as f64
    }

    /// Restores every `step`-th slice's newest manifest and compares it
    /// with the image byte for byte. Returns the slices that differ.
    pub fn verify_image(&self, step: usize) -> u64 {
        let mut bad = 0;
        for (slice, manifest) in self.manifests.iter().enumerate().step_by(step) {
            match self.service.restore_pipelined(manifest) {
                Ok(data) if data == self.slice_bytes(slice) => {}
                _ => bad += 1,
            }
        }
        bad
    }

    pub fn shutdown(self) {
        let cluster = self.service.cluster().clone();
        drop(self.service);
        cluster.shutdown().expect("cluster shutdown");
    }
}

/// `generations` passes over the image: each overwrites `extents`
/// seeded extents, then backs every slice up again. One op is one
/// backup call.
///
/// On a traced run odd ops go through [`staged_backup`] instead of
/// `BackupService::backup`: the same public stages, called one by one
/// with a span each, which is the only way to see inside the call from
/// outside. With an even slice count odd ops are always odd slices, and
/// odd and even slices never share chunks (the image is random data), so
/// the two paths do not disturb each other's answers.
pub fn ingest_phase(
    rig: &mut Rig,
    generations: usize,
    extents: usize,
    rec: &mut Recorder,
) -> Phase {
    let slices = rig.slices();
    let staged_odd = rec.is_on();
    assert!(
        !staged_odd || slices.is_multiple_of(2),
        "staged ops must keep to their own slices"
    );
    let mut staged_store = MemChunkStore::new(CONTAINER_BYTES);
    let chunker = chunker();
    // The closures below need the rig mutably one at a time.
    let rig = std::cell::RefCell::new(rig);
    closed_loop(
        generations * slices,
        rec,
        "ingest.op",
        |i| {
            if i % slices == 0 {
                let rig = &mut *rig.borrow_mut();
                rig.image.mutate(extents, &mut rig.digest);
            }
            (i % slices, (SLICE / 1024) as f64)
        },
        |rec, op, parent, &slice| {
            let rig = &mut *rig.borrow_mut();
            if staged_odd && op % 2 == 1 {
                rig.logical_bytes += SLICE as u64;
                let data = rig.slice_bytes(slice);
                let frontend = rig.service.frontend();
                staged_backup(rec, op, parent, &chunker, frontend, &mut staged_store, data)
            } else {
                rig.rebackup(slice)
            }
        },
        |_, ok| ok,
    )
}

/// The stages of `BackupService::backup`, called from outside with a
/// span around each: chunk (which also hashes), SHA-1 on its own to
/// split chunking from hashing, the front-end lookup window, `put` of
/// new chunks, and `record_batch` of their locations.
fn staged_backup(
    rec: &mut Recorder,
    op: u32,
    parent: Option<u32>,
    chunker: &GearChunker,
    frontend: &SharedFrontend,
    store: &mut MemChunkStore,
    data: &[u8],
) -> bool {
    let chunks: Vec<Chunk> = rec.span("chunking.chunk", op, parent, |_, _| {
        chunker.chunk(data).collect()
    });
    // `Chunker::chunk` hashes each chunk itself; hashing again here is
    // extra work that exists only to give SHA-1 its own span.
    let rehashed = rec.span("hash.sha1", op, parent, |_, _| {
        chunks
            .iter()
            .all(|c| Fingerprint::from_bytes(*Sha1::digest(&c.data).as_bytes()) == c.fingerprint)
    });
    let mut total = 0;
    for window in chunks.chunks(LOOKUP_WINDOW) {
        let tickets: Vec<Ticket<LookupAnswer>> = rec.span("net.submit", op, parent, |_, _| {
            let t = window
                .iter()
                .map(|c| frontend.submit(c.fingerprint))
                .collect();
            if window.len() < LOOKUP_WINDOW {
                let _ = frontend.flush();
            }
            t
        });
        let answers: Vec<Option<LookupAnswer>> = rec.span("net.wait", op, parent, |_, _| {
            tickets.into_iter().map(|t| t.wait().ok()).collect()
        });
        let mut records = Vec::new();
        let put_ok = rec.span("storage.put", op, parent, |_, _| {
            for (chunk, answer) in window.iter().zip(&answers) {
                match answer {
                    Some(a) if a.existed => {}
                    Some(_) => match store.put(chunk.fingerprint, chunk.data.clone()) {
                        Ok(id) => records.push((chunk.fingerprint, id.to_u64())),
                        Err(_) => return false,
                    },
                    None => return false,
                }
            }
            true
        });
        let record_ok = records.is_empty()
            || rec.span("core.record_batch", op, parent, |_, _| {
                frontend.cluster().record_batch(&records).is_ok()
            });
        if !(put_ok && record_ok) {
            return false;
        }
        total += window.len();
    }
    rehashed && total == chunks.len()
}

/// The generations a restore run reads back: manifest and content
/// digest of every slice of every generation.
pub type Generations = Vec<(BackupManifest, u64)>;

/// Backs up `extra` further mutated generations on top of the rig's
/// full backup, keeping every generation's manifests and digests.
pub fn build_generations(rig: &mut Rig, extra: usize, extents: usize) -> Generations {
    let mut entries = Vec::new();
    let digest_of = |rig: &Rig, slice: usize| xxh64(rig.slice_bytes(slice), 0);
    for slice in 0..rig.slices() {
        entries.push((rig.manifests[slice].clone(), digest_of(rig, slice)));
    }
    for _ in 0..extra {
        let mut digest = rig.digest;
        rig.image.mutate(extents, &mut digest);
        rig.digest = digest;
        for slice in 0..rig.slices() {
            let (ok, manifest) = rig.backup_slice(slice);
            rig.setup_failed += u64::from(!ok);
            entries.push((manifest.clone(), digest_of(rig, slice)));
            rig.manifests[slice] = manifest;
        }
    }
    entries
}

/// `passes` rounds over every generation's manifests, one
/// `restore_pipelined` call per op; every restored buffer is
/// digest-checked against the bytes that were backed up.
///
/// On a traced run odd ops call the restore's public stages one by one
/// instead (`query_batch_values_with` with `Admission::Bypass`, then
/// `ChunkStore::get_many`), each with its span.
pub fn restore_phase(
    rig: &Rig,
    generations: &Generations,
    passes: usize,
    rec: &mut Recorder,
) -> Phase {
    let n = generations.len();
    let staged_odd = rec.is_on();
    closed_loop(
        passes * n,
        rec,
        "restore.op",
        |i| (i % n, (SLICE / 1024) as f64),
        |rec, op, parent, &k| {
            let manifest = &generations[k].0;
            if staged_odd && op % 2 == 1 {
                staged_restore(rec, op, parent, &rig.service, manifest)
            } else {
                rig.service.restore_pipelined(manifest).ok()
            }
        },
        |&k, data| data.is_some_and(|d| xxh64(&d, 0) == generations[k].1),
    )
}

/// Entries per locate/fetch batch: `RestoreConfig::default().batch`.
pub const RESTORE_BATCH: usize = 64;

fn staged_restore(
    rec: &mut Recorder,
    op: u32,
    parent: Option<u32>,
    service: &Service,
    manifest: &BackupManifest,
) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(manifest.logical_bytes() as usize);
    for batch in manifest.entries.chunks(RESTORE_BATCH) {
        let fps: Vec<Fingerprint> = batch.iter().map(|e| e.fingerprint).collect();
        let located = rec.span("core.query_batch", op, parent, |_, _| {
            service
                .cluster()
                .query_batch_values_with(&fps, Admission::Bypass)
                .is_ok_and(|(existed, _)| existed.iter().all(|e| *e))
        });
        let ids: Vec<ChunkId> = batch.iter().map(|e| e.chunk).collect();
        let blobs = rec.span("storage.get_many", op, parent, |_, _| {
            service.store().get_many(&ids).ok()
        })?;
        if !located {
            return None;
        }
        for blob in &blobs {
            out.extend_from_slice(blob);
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::totals_by_name;

    #[test]
    fn ingest_then_restore_round_trips_and_repeats() {
        let run = |seed: u64, traced: bool| {
            let mut rig = Rig::setup(seed, 2 * SLICE);
            assert_eq!(rig.setup_failed, 0);
            let mut rec = Recorder::new(traced);
            let phase = ingest_phase(&mut rig, 2, 4, &mut rec);
            assert_eq!((phase.ops(), phase.failed), (4, 0));
            if traced {
                let t = totals_by_name(rec.spans());
                assert_eq!(t["ingest.op"].count, 4);
                assert_eq!(t["chunking.chunk"].count, 2);
                assert!(t["storage.put"].count >= 2);
            } else {
                assert_eq!(rig.verify_image(1), 0);
            }
            let out = (rig.digest.value(), rig.stored_per_logical());
            rig.shutdown();
            out
        };
        let a = run(5, false);
        assert_eq!(a, run(5, false));
        assert_ne!(a.0, run(6, false).0);
        // 8 extents of 16 KiB over 8 MiB re-store little: ratio stays
        // near 1/3 after two further generations.
        assert!(a.1 > 0.33 && a.1 < 0.40, "{}", a.1);
        run(5, true);
    }

    #[test]
    fn restore_checks_every_buffer() {
        let mut rig = Rig::setup(8, 2 * SLICE);
        let mut gens = build_generations(&mut rig, 1, 4);
        assert_eq!(gens.len(), 4);
        let mut rec = Recorder::new(true);
        let phase = restore_phase(&rig, &gens, 2, &mut rec);
        assert_eq!((phase.ops(), phase.failed), (8, 0));
        let t = totals_by_name(rec.spans());
        assert_eq!(t["restore.op"].count, 8);
        assert!(t["storage.get_many"].count > 4 && t["core.query_batch"].count > 4);
        // A wrong digest is a failed op.
        gens[0].1 ^= 1;
        let phase = restore_phase(&rig, &gens, 1, &mut Recorder::new(false));
        assert_eq!(phase.failed, 1);
        rig.shutdown();
    }
}
