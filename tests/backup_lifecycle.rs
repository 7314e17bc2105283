//! The full backup lifecycle: create, deduplicate, delete, garbage
//! collect, and re-ingest — exercising refcounts, fingerprint removal
//! and removed fingerprints leaving the nodes' flash directories.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use shhc::prelude::*;
use shhc::{BackupService, ClusterConfig, ShhcCluster};

fn random_data(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

fn service(nodes: u32) -> BackupService<FixedChunker, MemChunkStore> {
    let cluster = ShhcCluster::spawn(ClusterConfig::small_test(nodes)).unwrap();
    BackupService::new(
        cluster,
        FixedChunker::new(512),
        MemChunkStore::new(1 << 20),
        64,
    )
}

#[test]
fn delete_frees_unshared_chunks() {
    let svc = service(2);
    let data = random_data(20_000, 1);
    let report = svc.backup(StreamId::new(1), &data).unwrap();
    assert_eq!(svc.store().stats().chunks, 40);

    let del = svc.delete_backup(&report.manifest).unwrap();
    assert_eq!(del.references_released, 40);
    assert_eq!(del.chunks_freed, 40);
    assert_eq!(svc.store().stats().chunks, 0);
    assert_eq!(svc.store().stats().bytes, 0);
    // The cluster forgot the fingerprints too.
    assert_eq!(svc.cluster().stats().unwrap().total_entries(), 0);
}

#[test]
fn delete_keeps_chunks_shared_with_other_backups() {
    let svc = service(3);
    let data = random_data(10_000, 2);
    let first = svc.backup(StreamId::new(1), &data).unwrap();
    let second = svc.backup(StreamId::new(2), &data).unwrap();

    let del = svc.delete_backup(&first.manifest).unwrap();
    assert_eq!(del.chunks_freed, 0, "second backup still references all");
    // The surviving backup restores byte-identically.
    assert_eq!(svc.restore(&second.manifest).unwrap(), data);

    // Deleting the second frees everything.
    let del = svc.delete_backup(&second.manifest).unwrap();
    assert_eq!(del.chunks_freed, 20);
    assert_eq!(svc.store().stats().chunks, 0);
}

#[test]
fn reingest_after_delete_stores_fresh_copies() {
    let svc = service(2);
    let data = random_data(5_000, 3);
    let first = svc.backup(StreamId::new(1), &data).unwrap();
    svc.delete_backup(&first.manifest).unwrap();

    // After GC, the same data is new again: a removed fingerprint's
    // tombstone must not leave a false "exists" answer.
    let again = svc.backup(StreamId::new(2), &data).unwrap();
    assert_eq!(again.new_chunks, again.total_chunks);
    assert_eq!(svc.restore(&again.manifest).unwrap(), data);
}

#[test]
fn partial_overlap_deletes_only_unshared() {
    let svc = service(2);
    let shared = random_data(8_192, 4);
    let mut a = shared.clone();
    a.extend_from_slice(&random_data(4_096, 5));
    let mut b = shared.clone();
    b.extend_from_slice(&random_data(4_096, 6));

    let ra = svc.backup(StreamId::new(1), &a).unwrap();
    let rb = svc.backup(StreamId::new(2), &b).unwrap();
    assert_eq!(rb.duplicate_chunks, 16, "the shared prefix dedups");

    let del = svc.delete_backup(&ra.manifest).unwrap();
    // Only A's unique tail (8 chunks of 512) is freed.
    assert_eq!(del.chunks_freed, 8);
    assert_eq!(svc.restore(&rb.manifest).unwrap(), b);
}

#[test]
fn intra_backup_duplicates_release_cleanly() {
    let svc = service(2);
    let block = random_data(512, 7);
    let data: Vec<u8> = block.iter().copied().cycle().take(512 * 30).collect();
    let report = svc.backup(StreamId::new(1), &data).unwrap();
    assert_eq!(report.new_chunks, 1);
    // One chunk, 30 references (one per manifest entry).
    let del = svc.delete_backup(&report.manifest).unwrap();
    assert_eq!(del.references_released, 30);
    assert_eq!(del.chunks_freed, 1);
    assert_eq!(svc.store().stats().chunks, 0);
}

#[test]
fn generational_backups_gc_incrementally() {
    // A rolling window of 3 retained backups over slowly mutating data.
    let svc = service(3);
    let mut data = random_data(30_000, 8);
    let mut retained: Vec<(shhc_storage::BackupManifest, Vec<u8>)> = Vec::new();
    let mut rng = StdRng::seed_from_u64(99);

    for generation in 0..8u32 {
        // Mutate ~5% of the chunks.
        for _ in 0..3 {
            let at = (rng.next_u32() as usize % (data.len() / 512)) * 512;
            let patch = random_data(512, 1000 + generation as u64);
            data[at..at + 512].copy_from_slice(&patch);
        }
        let report = svc.backup(StreamId::new(generation), &data).unwrap();
        retained.push((report.manifest, data.clone()));
        if retained.len() > 3 {
            let (old, _) = retained.remove(0);
            svc.delete_backup(&old).unwrap();
        }
        // Every retained generation must still restore.
        for (manifest, snapshot) in &retained {
            assert_eq!(&svc.restore(manifest).unwrap(), snapshot);
        }
    }
    // Storage holds no more than the union of the retained generations.
    let live_chunks = svc.store().stats().chunks;
    assert!(
        live_chunks <= 59 + 9,
        "GC is leaking: {live_chunks} chunks for 3 retained generations"
    );
}
