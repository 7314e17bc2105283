//! Baseline indexes: all designs must agree on *answers* while differing
//! in *cost* exactly the way their papers claim.

use shhc_baseline::{ChunkStashIndex, DdfsIndex, FingerprintIndex, HddIndex, ShhcNodeIndex};
use shhc_node::{HybridHashNode, NodeConfig};
use shhc_types::{Nanos, NodeId};
use shhc_workload::presets;

fn all_indexes() -> Vec<Box<dyn FingerprintIndex>> {
    vec![
        Box::new(HddIndex::small_test()),
        Box::new(ChunkStashIndex::small_test().unwrap()),
        Box::new(DdfsIndex::small_test()),
        Box::new(ShhcNodeIndex::new(
            HybridHashNode::new(NodeId::new(0), NodeConfig::small_test()).unwrap(),
        )),
    ]
}

#[test]
fn identical_answers_on_a_real_workload_shape() {
    let trace = presets::home_dir().scaled(512).generate();
    let mut indexes = all_indexes();
    let mut reference = std::collections::HashSet::new();
    for (i, fp) in trace.fingerprints.iter().enumerate() {
        let expected = reference.contains(fp);
        for index in &mut indexes {
            let got = index.lookup_insert(*fp).unwrap().existed;
            assert_eq!(got, expected, "{} diverged at position {i}", index.name());
        }
        reference.insert(*fp);
    }
    for index in &indexes {
        assert_eq!(index.entries(), reference.len() as u64, "{}", index.name());
    }
}

#[test]
fn cost_ordering_matches_the_literature() {
    // On a redundancy-heavy workload with cold lookups, the HDD index
    // pays seeks per duplicate while flash-based designs pay microseconds
    // — the 7x-60x ChunkStash claim comes from exactly this gap.
    let trace = presets::mail_server().scaled(2048).generate();

    let mut hdd = HddIndex::small_test();
    let mut stash = ChunkStashIndex::new(
        trace.len(),
        shhc_flash::FlashConfig::small_test_with_latency(),
        Nanos::from_micros(1),
    )
    .unwrap();

    for fp in &trace.fingerprints {
        hdd.lookup_insert(*fp).unwrap();
        stash.lookup_insert(*fp).unwrap();
    }
    let hdd_per_op = hdd.busy().as_nanos() as f64 / trace.len() as f64;
    let stash_per_op = stash.busy().as_nanos() as f64 / trace.len() as f64;
    let speedup = hdd_per_op / stash_per_op;
    assert!(
        speedup > 5.0,
        "flash index should be ≫ disk index; got only {speedup:.1}x"
    );
}

#[test]
fn ddfs_locality_cache_beats_naive_disk() {
    // Sequential second backup: DDFS's container prefetch turns per-chunk
    // seeks into per-container seeks.
    let trace = presets::web_server().scaled(1024).generate();
    let mut ddfs = DdfsIndex::small_test();
    let mut hdd = HddIndex::small_test();
    // First pass (mostly new).
    for fp in &trace.fingerprints {
        ddfs.lookup_insert(*fp).unwrap();
        hdd.lookup_insert(*fp).unwrap();
    }
    let (d0, h0) = (ddfs.busy(), hdd.busy());
    // Second pass (all duplicates, in original order — full locality).
    for fp in &trace.fingerprints {
        ddfs.lookup_insert(*fp).unwrap();
        hdd.lookup_insert(*fp).unwrap();
    }
    let ddfs_second = (ddfs.busy() - d0).as_nanos() as f64;
    let hdd_second = (hdd.busy() - h0).as_nanos() as f64;
    assert!(
        hdd_second / ddfs_second > 3.0,
        "locality caching should amortize seeks: ddfs {ddfs_second} vs hdd {hdd_second}"
    );
}

#[test]
fn shhc_node_directory_keeps_cold_misses_cheap() {
    // Unique stream: the hybrid node's flash directory answers "absent"
    // from RAM; per-op cost must stay near CPU cost, far from a flash
    // read per op.
    let config = NodeConfig {
        // Realistically proportioned store: the write buffer is large
        // enough that bucket flushes carry near-page batches.
        flash: shhc_flash::FlashConfig {
            latency: shhc_flash::FlashLatency::default(),
            write_buffer: 8192,
            buckets: 64,
            ..shhc_flash::FlashConfig::medium_test()
        },
        ..NodeConfig::small_test()
    };
    let mut node = ShhcNodeIndex::new(HybridHashNode::new(NodeId::new(1), config).unwrap());
    let trace = presets::time_machine().scaled(1024).generate();
    for fp in &trace.fingerprints {
        node.lookup_insert(*fp).unwrap();
    }
    let per_op = node.busy().as_nanos() / trace.len() as u64;
    // A flash read is 25 µs; with delayed writes the amortized program
    // cost per record is a few µs. Without the directory every cold
    // miss would additionally pay ≥25 µs of probe reads.
    assert!(
        per_op < 20_000,
        "per-op cost {per_op} ns suggests the directory is not skipping SSD probes"
    );
}
