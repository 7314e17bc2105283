//! End-to-end backup/restore integration: every chunker × every store,
//! byte-exact restores, and dedup accounting that matches the workload.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use shhc::prelude::*;
use shhc::{BackupService, ClusterConfig, ShhcCluster};
use shhc_chunking::GearChunker;

fn random_data(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

fn run_round_trip<C: Chunker + Send + Sync>(chunker: C, data: &[u8]) {
    let cluster = ShhcCluster::spawn(ClusterConfig::small_test(3)).unwrap();
    let service = BackupService::new(cluster.clone(), chunker, MemChunkStore::new(1 << 20), 64);
    let report = service.backup(StreamId::new(1), data).unwrap();
    assert_eq!(report.logical_bytes as usize, data.len());
    let restored = service.restore(&report.manifest).unwrap();
    assert_eq!(restored, data, "restore must be byte-identical");
    cluster.shutdown().unwrap();
}

#[test]
fn round_trip_fixed_chunker() {
    run_round_trip(FixedChunker::new(512), &random_data(100_000, 1));
}

#[test]
fn round_trip_rabin_chunker() {
    run_round_trip(RabinChunker::new(256, 1024, 8192), &random_data(100_000, 2));
}

#[test]
fn round_trip_gear_chunker() {
    run_round_trip(GearChunker::new(256, 1024, 8192), &random_data(100_000, 3));
}

#[test]
fn round_trip_empty_and_tiny_inputs() {
    for len in [0usize, 1, 7, 511, 512, 513] {
        run_round_trip(FixedChunker::new(512), &random_data(len, len as u64));
    }
}

#[test]
fn file_store_round_trip_with_reopen() {
    let dir = std::env::temp_dir().join(format!("shhc_e2e_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let data = random_data(50_000, 4);

    let manifest = {
        let cluster = ShhcCluster::spawn(ClusterConfig::small_test(2)).unwrap();
        let store = FileChunkStore::open(&dir, 1 << 20).unwrap();
        let service = BackupService::new(cluster.clone(), FixedChunker::new(1024), store, 32);
        let report = service.backup(StreamId::new(1), &data).unwrap();
        cluster.shutdown().unwrap();
        report.manifest
    };

    // A fresh process (store reopened from disk) can still restore.
    let store = FileChunkStore::open(&dir, 1 << 20).unwrap();
    let restored = restore(&store, &manifest).unwrap();
    assert_eq!(restored, data);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dedup_ratio_tracks_workload_redundancy() {
    // Build a dataset whose chunk stream is ~40% duplicates and verify
    // the service's accounting agrees.
    let chunk = 1024usize;
    let unique: Vec<Vec<u8>> = (0..1000).map(|i| random_data(chunk, 100 + i)).collect();
    let mut rng = StdRng::seed_from_u64(9);
    let mut stream_chunks: Vec<usize> = Vec::new();
    let mut next_unique = 0usize;
    let mut data = Vec::new();
    for i in 0..1000usize {
        let idx = if i > 0 && rng.gen_bool(0.4) {
            stream_chunks[rng.gen_range(0..stream_chunks.len())]
        } else {
            next_unique += 1;
            next_unique - 1
        };
        stream_chunks.push(idx);
        data.extend_from_slice(&unique[idx]);
    }

    let cluster = ShhcCluster::spawn(ClusterConfig::small_test(4)).unwrap();
    let service = BackupService::new(
        cluster.clone(),
        FixedChunker::new(chunk),
        MemChunkStore::new(1 << 22),
        128,
    );
    let report = service.backup(StreamId::new(1), &data).unwrap();
    let measured = report.duplicate_fraction();
    assert!(
        (0.3..0.55).contains(&measured),
        "expected ~0.4 duplicate fraction, measured {measured}"
    );
    assert_eq!(service.restore(&report.manifest).unwrap(), data);
    cluster.shutdown().unwrap();
}

#[test]
fn many_streams_share_one_cluster() {
    let cluster = ShhcCluster::spawn(ClusterConfig::small_test(2)).unwrap();
    let service = BackupService::new(
        cluster.clone(),
        FixedChunker::new(512),
        MemChunkStore::new(1 << 22),
        64,
    );
    let base = random_data(20_000, 11);
    let mut manifests = Vec::new();
    for s in 0..5u32 {
        // Each stream shares 75% of its content with the base.
        let mut data = base.clone();
        let tail = random_data(5_000, 200 + s as u64);
        data.extend_from_slice(&tail);
        let report = service.backup(StreamId::new(s), &data).unwrap();
        if s > 0 {
            assert!(
                report.duplicate_fraction() > 0.7,
                "stream {s} should dedup against stream 0"
            );
        }
        manifests.push((report.manifest, data));
    }
    for (manifest, data) in &manifests {
        assert_eq!(&service.restore(manifest).unwrap(), data);
    }
    cluster.shutdown().unwrap();
}
