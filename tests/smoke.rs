//! Smoke gate: the `quickstart` example's end-to-end flow must run to
//! completion, and the facade crate's root re-exports must stay wired.
//!
//! CI additionally executes `cargo run --example quickstart`; this test
//! keeps the same pipeline under `cargo test -q` so a tier-1 run alone
//! catches a broken quick-start path.

use shhc::prelude::*;

/// Mirrors examples/quickstart.rs: backup twice, restore, verify.
#[test]
fn quickstart_flow_runs_to_completion() {
    let cluster = ShhcCluster::spawn(ClusterConfig::small_test(4)).expect("spawn cluster");
    let store = MemChunkStore::new(4 * 1024 * 1024);
    let service = BackupService::new(cluster.clone(), FixedChunker::new(4096), store, 128);

    let data: Vec<u8> = (0..512 * 1024u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
        .collect();

    let first = service
        .backup(StreamId::new(1), &data)
        .expect("first backup");
    assert_eq!(first.duplicate_chunks, 0, "fresh data must not deduplicate");
    assert_eq!(first.new_chunks, first.total_chunks);

    let second = service
        .backup(StreamId::new(2), &data)
        .expect("second backup");
    assert_eq!(
        second.new_chunks, 0,
        "identical data must fully deduplicate"
    );
    assert_eq!(second.duplicate_chunks, second.total_chunks);

    let restored = service.restore(&second.manifest).expect("restore");
    assert_eq!(restored, data, "restore must be byte-identical");

    cluster.shutdown().expect("shutdown");
}

/// The facade crate re-exports each layer; spot-check the wiring.
#[test]
fn facade_reexports_are_wired() {
    let fp = shhc_repro::types::Fingerprint::from_u64(42);
    assert_eq!(fp.to_hex().len(), 40);
    assert_eq!(
        shhc_repro::hash::xxh64(b"shhc", 7),
        shhc_hash::xxh64(b"shhc", 7)
    );

    let cluster =
        shhc_repro::ShhcCluster::spawn(shhc_repro::ClusterConfig::small_test(2)).expect("spawn");
    assert_eq!(
        cluster.lookup_insert_batch(&[fp]).expect("lookup"),
        vec![false]
    );
    cluster.shutdown().expect("shutdown");
}
