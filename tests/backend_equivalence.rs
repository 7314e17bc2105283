//! Backend equivalence under randomized interleavings — the node- and
//! cluster-level half of the PR-6 equivalence suite (the crate-level
//! half lives in `shhc-index`'s `model_equivalence` tests).
//!
//! A concurrent mirror backend plus a reader pool must be a pure
//! performance change: every data-plane answer byte-identical to the
//! single-writer baseline, for every backend, under randomized
//! lookup/query/record/remove interleavings.

use proptest::prelude::*;
use shhc::{BackendKind, ClusterConfig, NodeConfig, ShhcCluster};
use shhc_index::Collection;
use shhc_node::HybridHashNode;
use shhc_types::{Fingerprint, NodeId};

/// Spreads a small key domain over the routing-key space so batches
/// cross shard and node boundaries.
fn fp(k: u64) -> Fingerprint {
    Fingerprint::from_u64(k.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31))
}

#[derive(Debug, Clone)]
enum Op {
    Lookup(Vec<u64>),
    Query(Vec<u64>),
    Record(Vec<(u64, u64)>),
    Remove(Vec<u64>),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Keys from a small domain so hits, misses, overwrites and in-batch
    // duplicates all occur; the vendored prop_oneof! picks uniformly.
    let keys = proptest::collection::vec(0u64..96, 1..24);
    let pairs = proptest::collection::vec(((0u64..96), any::<u64>()), 1..16);
    prop_oneof![
        keys.clone().prop_map(Op::Lookup),
        keys.clone().prop_map(Op::Query),
        pairs.prop_map(Op::Record),
        keys.prop_map(Op::Remove),
    ]
}

fn node_config(backend: BackendKind, shards: u32, readers: u32) -> NodeConfig {
    NodeConfig::small_test()
        .with_shards(shards)
        .with_backend(backend)
        .with_readers(readers)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Node level: a node with a concurrent mirror answers every batch
    /// exactly like the mirror-less baseline, and after any op sequence
    /// the mirror's contents equal the store's scan — the invariant the
    /// reader pool's byte-identical answers rest on.
    #[test]
    fn prop_node_with_mirror_matches_baseline(
        ops in proptest::collection::vec(op_strategy(), 1..24),
    ) {
        for backend in [BackendKind::Striped, BackendKind::Snapshot] {
            // A fresh baseline per backend (both nodes mutate as the ops
            // run), pinned to Single explicitly so the SHHC_TEST_BACKEND
            // CI leg cannot redirect it.
            let mut baseline = HybridHashNode::new(
                NodeId::new(0),
                node_config(BackendKind::Single, 1, 0),
            ).unwrap();
            let mut node = HybridHashNode::new(
                NodeId::new(0),
                node_config(backend, 1, 2),
            ).unwrap();
            for (i, op) in ops.iter().enumerate() {
                match op {
                    Op::Lookup(keys) => {
                        let batch: Vec<Fingerprint> = keys.iter().map(|&k| fp(k)).collect();
                        let a = baseline.lookup_insert_batch(&batch).unwrap();
                        let b = node.lookup_insert_batch(&batch).unwrap();
                        prop_assert_eq!(&a.exists, &b.exists, "{} exists diverged at op {}", backend, i);
                        prop_assert_eq!(&a.values, &b.values, "{} values diverged at op {}", backend, i);
                    }
                    Op::Query(keys) => {
                        for &k in keys {
                            let a = baseline.query(fp(k)).unwrap();
                            let b = node.query(fp(k)).unwrap();
                            prop_assert_eq!(a.existed, b.existed, "{} query({}) diverged", backend, k);
                            prop_assert_eq!(a.value, b.value, "{} query({}) value diverged", backend, k);
                        }
                    }
                    Op::Record(pairs) => {
                        for &(k, v) in pairs {
                            baseline.record(fp(k), v).unwrap();
                            node.record(fp(k), v).unwrap();
                        }
                    }
                    Op::Remove(keys) => {
                        for &k in keys {
                            baseline.remove(fp(k)).unwrap();
                            node.remove(fp(k)).unwrap();
                        }
                    }
                }
            }
            // The mirror must track the store exactly — every live
            // record, no tombstone ghosts.
            let mut store: Vec<(Fingerprint, u64)> = node.scan().unwrap();
            store.sort_unstable();
            let mirror = node.mirror_index().expect("concurrent backend has a mirror");
            let mut mirrored = mirror.snapshot_entries();
            mirrored.sort_unstable();
            prop_assert_eq!(store, mirrored, "{} mirror diverged from store", backend);
        }
    }
}

/// Drives one randomized-schedule round through baseline and pooled
/// clusters and asserts every answer is identical.
fn assert_cluster_equivalence(ops: &[Op], backend: BackendKind, shards: u32) {
    let baseline = ShhcCluster::spawn(ClusterConfig::new(
        2,
        node_config(BackendKind::Single, 1, 0),
    ))
    .unwrap();
    let pooled =
        ShhcCluster::spawn(ClusterConfig::new(2, node_config(backend, shards, 3))).unwrap();
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Lookup(keys) => {
                let batch: Vec<Fingerprint> = keys.iter().map(|&k| fp(k)).collect();
                let a = baseline.lookup_insert_batch_values(&batch).unwrap();
                let b = pooled.lookup_insert_batch_values(&batch).unwrap();
                assert_eq!(a, b, "{backend} lookup diverged at op {i}");
            }
            Op::Query(keys) => {
                let batch: Vec<Fingerprint> = keys.iter().map(|&k| fp(k)).collect();
                let a = baseline.query_batch(&batch).unwrap();
                let b = pooled.query_batch(&batch).unwrap();
                assert_eq!(a, b, "{backend} query diverged at op {i}");
            }
            Op::Record(pairs) => {
                let batch: Vec<(Fingerprint, u64)> =
                    pairs.iter().map(|&(k, v)| (fp(k), v)).collect();
                baseline.record_batch(&batch).unwrap();
                pooled.record_batch(&batch).unwrap();
            }
            Op::Remove(keys) => {
                let batch: Vec<Fingerprint> = keys.iter().map(|&k| fp(k)).collect();
                baseline.remove_batch(&batch).unwrap();
                pooled.remove_batch(&batch).unwrap();
                let a = baseline.query_batch(&batch).unwrap();
                let b = pooled.query_batch(&batch).unwrap();
                assert_eq!(a, b, "{backend} post-remove query diverged");
            }
        }
    }
    let a = baseline.stats().unwrap();
    let b = pooled.stats().unwrap();
    assert_eq!(
        a.total_entries(),
        b.total_entries(),
        "{backend} totals diverged"
    );
    if ops
        .iter()
        .any(|op| matches!(op, Op::Query(_) | Op::Remove(_)))
    {
        assert!(
            b.total_pool_queries() > 0,
            "{backend} reader pool must actually serve queries"
        );
        assert_eq!(
            a.total_pool_queries(),
            0,
            "baseline has no pool to serve from"
        );
    }
    assert_eq!(
        b.nodes.iter().map(|n| n.readers).max(),
        Some(3),
        "snapshots must report the pool size"
    );
    baseline.shutdown().unwrap();
    pooled.shutdown().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Cluster level, over the pipelined data plane: pooled nodes of
    /// every backend, single- and multi-shard, answer randomized traffic
    /// exactly like the baseline, and their pools demonstrably serve the
    /// queries.
    #[test]
    fn prop_cluster_backends_match_pipelined(
        ops in proptest::collection::vec(op_strategy(), 1..10),
    ) {
        for (backend, shards) in [
            (BackendKind::Striped, 1),
            (BackendKind::Striped, 2),
            (BackendKind::Snapshot, 1),
            (BackendKind::Snapshot, 2),
        ] {
            assert_cluster_equivalence(&ops, backend, shards);
        }
    }
}
