//! Cluster-level behaviour: concurrency, membership change, replication,
//! and failure handling across the real threaded implementation.

use std::time::Duration;

use shhc::{BackendKind, ClusterConfig, NodeConfig, SharedFrontend, ShhcCluster};
use shhc_types::{Error, Fingerprint, NodeId};

fn fps(range: std::ops::Range<u64>) -> Vec<Fingerprint> {
    range
        .map(|i| Fingerprint::from_u64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31)))
        .collect()
}

#[test]
fn cluster_is_a_coherent_global_index() {
    // Whatever the batch boundaries and interleavings, the cluster as a
    // whole must behave like one big set.
    let cluster = ShhcCluster::spawn(ClusterConfig::small_test(4)).unwrap();
    let all = fps(0..2_000);
    let mut reference = std::collections::HashSet::new();
    for window in all.chunks(97) {
        let exists = cluster.lookup_insert_batch(window).unwrap();
        for (fp, e) in window.iter().zip(exists) {
            assert_eq!(e, reference.contains(fp), "{fp}");
            reference.insert(*fp);
        }
    }
    // Replay in a different batch grouping: everything exists.
    for window in all.chunks(31) {
        assert!(cluster
            .lookup_insert_batch(window)
            .unwrap()
            .iter()
            .all(|e| *e));
    }
    assert_eq!(cluster.stats().unwrap().total_entries(), 2_000);
    cluster.shutdown().unwrap();
}

#[test]
fn load_balances_across_nodes() {
    // Medium-sized stores: 20k entries exceed the tiny test device.
    let node_config = shhc::NodeConfig {
        flash: shhc_flash::FlashConfig::medium_test(),
        ..shhc::NodeConfig::small_test()
    };
    let cluster = ShhcCluster::spawn(ClusterConfig::new(4, node_config)).unwrap();
    cluster.lookup_insert_batch(&fps(0..20_000)).unwrap();
    let stats = cluster.stats().unwrap();
    for (node, share) in stats.entry_shares() {
        assert!(
            (0.15..0.35).contains(&share),
            "{node} holds {share:.3} of entries; expected ≈0.25"
        );
    }
    cluster.shutdown().unwrap();
}

#[test]
fn concurrent_writers_never_lose_entries() {
    let cluster = ShhcCluster::spawn(ClusterConfig::small_test(3)).unwrap();
    let mut handles = Vec::new();
    for t in 0..8u64 {
        let cluster = cluster.clone();
        handles.push(std::thread::spawn(move || {
            // Each thread owns a disjoint key range.
            let mine = fps(t * 500..(t + 1) * 500);
            for window in mine.chunks(50) {
                cluster.lookup_insert_batch(window).unwrap();
            }
            // Every key must be present afterwards.
            let exists = cluster.query_batch(&mine).unwrap();
            assert!(exists.iter().all(|e| *e));
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(cluster.stats().unwrap().total_entries(), 4_000);
    cluster.shutdown().unwrap();
}

#[test]
fn overlapping_concurrent_writers_converge() {
    // All threads hammer the SAME keys; the index must end with exactly
    // one entry per key.
    let cluster = ShhcCluster::spawn(ClusterConfig::small_test(2)).unwrap();
    let shared = fps(0..300);
    let mut handles = Vec::new();
    for _ in 0..6 {
        let cluster = cluster.clone();
        let shared = shared.clone();
        handles.push(std::thread::spawn(move || {
            for window in shared.chunks(30) {
                cluster.lookup_insert_batch(window).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(cluster.stats().unwrap().total_entries(), 300);
    cluster.shutdown().unwrap();
}

#[test]
fn frontend_batches_and_answers_everything() {
    let cluster = ShhcCluster::spawn(ClusterConfig::small_test(2)).unwrap();
    let frontend = SharedFrontend::new(cluster.clone(), 64, Duration::from_secs(10));
    let tickets: Vec<_> = fps(0..1_000)
        .into_iter()
        .map(|fp| (fp, frontend.submit(fp)))
        .collect();
    frontend.flush().unwrap();
    for (fp, ticket) in tickets {
        assert!(
            !ticket.wait().unwrap().existed,
            "{fp} answered as a duplicate"
        );
    }
    assert!(frontend.stats().batches >= 15);
    cluster.shutdown().unwrap();
}

/// A node has one RAM index per shard and no reader pool: a cluster
/// asked for either fails to spawn instead of running without it.
#[test]
fn spawn_rejects_a_reader_pool_or_a_concurrent_backend() {
    let with = |edit: fn(&mut NodeConfig)| {
        let mut node = NodeConfig::small_test();
        edit(&mut node);
        ShhcCluster::spawn(ClusterConfig::new(2, node))
    };
    for result in [
        with(|n| n.readers = 2),
        with(|n| n.backend = BackendKind::Striped),
        with(|n| {
            n.shards = 4;
            n.readers = 2;
        }),
    ] {
        assert!(
            matches!(result, Err(Error::InvalidArgument(_))),
            "{:?}",
            result.map(|_| ())
        );
    }
}

#[test]
fn growth_preserves_every_answer() {
    let cluster = ShhcCluster::spawn(ClusterConfig::small_test(2)).unwrap();
    let stream = fps(0..5_000);
    cluster.lookup_insert_batch(&stream).unwrap();

    // Grow twice.
    for _ in 0..2 {
        let (_, report) = cluster.add_node().unwrap();
        assert!(report.moved > 0);
        let exists = cluster.lookup_insert_batch(&stream).unwrap();
        assert!(exists.iter().all(|e| *e), "growth lost fingerprints");
        assert_eq!(cluster.stats().unwrap().total_entries(), 5_000);
    }
    // New nodes carry a meaningful share.
    let stats = cluster.stats().unwrap();
    let shares = stats.entry_shares();
    assert_eq!(shares.len(), 4);
    for (node, share) in shares {
        assert!(share > 0.1, "{node} holds only {share:.3}");
    }
    cluster.shutdown().unwrap();
}

#[test]
fn replicated_cluster_masks_single_failures_fully() {
    let cluster = ShhcCluster::spawn(ClusterConfig::small_test(4).with_replication(2)).unwrap();
    let stream = fps(0..2_000);
    cluster.lookup_insert_batch(&stream).unwrap();

    for victim in 0..4u32 {
        cluster.kill_node(NodeId::new(victim)).unwrap();
        let exists = cluster.lookup_insert_batch(&stream).unwrap();
        let found = exists.iter().filter(|e| **e).count();
        assert_eq!(
            found, 2_000,
            "with r=2, killing {victim} must not lose answers"
        );
        cluster.restart_cold(NodeId::new(victim)).unwrap();
        // Re-warm the cold node: the fan-out write path re-registers
        // every fingerprint on it, restoring the replication factor
        // before the next failure (a stand-in for anti-entropy repair).
        cluster.lookup_insert_batch(&stream).unwrap();
    }
    cluster.shutdown().unwrap();
}

#[test]
fn unreplicated_cluster_reports_unavailable() {
    let cluster = ShhcCluster::spawn(ClusterConfig::small_test(4)).unwrap();
    let stream = fps(0..1_000);
    cluster.lookup_insert_batch(&stream).unwrap();
    cluster.kill_node(NodeId::new(2)).unwrap();
    match cluster.lookup_insert_batch(&stream) {
        Err(Error::Unavailable(_)) => {}
        other => panic!("expected Unavailable, got {other:?}"),
    }
    // Queries to surviving ranges still work.
    let survivors: Vec<Fingerprint> = stream
        .iter()
        .filter(|fp| {
            // Keep only fingerprints the dead node does not own: probe
            // one by one and keep the ones that answer.
            cluster.query_batch(std::slice::from_ref(fp)).is_ok()
        })
        .copied()
        .collect();
    assert!(!survivors.is_empty());
    cluster.shutdown().unwrap();
}

#[test]
fn flush_all_persists_buffers() {
    let cluster = ShhcCluster::spawn(ClusterConfig::small_test(3)).unwrap();
    cluster.lookup_insert_batch(&fps(0..500)).unwrap();
    cluster.flush_all().unwrap();
    let stats = cluster.stats().unwrap();
    // After a flush, flash devices have seen programs.
    assert!(stats.nodes.iter().any(|n| n.device.programs > 0));
    assert_eq!(stats.total_entries(), 500);
    cluster.shutdown().unwrap();
}
