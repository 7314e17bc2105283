//! Sharded-node equivalence and head-of-line-blocking suite.
//!
//! Nodes with `shards > 1`, served by one worker thread per shard, must be
//! a pure performance change: byte-identical answers to single-threaded
//! nodes for every operation, through membership changes —
//! plus the property the sharding exists for: a small frame queued
//! behind a deep frame is answered in ≈ its own service time instead of
//! waiting for the deep frame to drain.

use std::time::{Duration, Instant};

use shhc::{ClusterConfig, NodeConfig, ShardRouter, ShhcCluster};
use shhc_types::Fingerprint;

/// Deterministic fingerprints spread over the routing-key space.
fn fps(range: std::ops::Range<u64>) -> Vec<Fingerprint> {
    range
        .map(|i| Fingerprint::from_u64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31)))
        .collect()
}

/// A fingerprint guaranteed to route to shard `k` of `of` on every node
/// (shards are contiguous routing-key slices).
fn fp_in_shard(k: u32, of: u32, i: u64) -> Fingerprint {
    let lo = ((u128::from(k) << 64).div_ceil(u128::from(of))) as u64;
    let fp = Fingerprint::from_u64(lo + i);
    assert_eq!(ShardRouter::new(of).shard_of(&fp), k as usize);
    fp
}

fn config(nodes: u32, shards: u32) -> ClusterConfig {
    let mut node_config = NodeConfig::small_test();
    node_config.flash = shhc_flash::FlashConfig::medium_test();
    node_config.cache_capacity = 512;
    node_config.shards = shards;
    ClusterConfig::new(nodes, node_config).with_migration_chunk(48)
}

/// Drives the same randomized lookup/query/record/remove interleaving
/// through a single-threaded and a sharded cluster and asserts every
/// answer is identical.
fn assert_equivalent_traffic(shards: u32) {
    let baseline = ShhcCluster::spawn(config(3, 1)).unwrap();
    let sharded = ShhcCluster::spawn(config(3, shards)).unwrap();
    let universe = fps(0..2_000);
    // A seed-free deterministic schedule: op kind cycles with the round,
    // batches revisit earlier keys so hits, misses and in-frame
    // duplicates all occur.
    for round in 0..12u64 {
        let start = (round * 113) as usize % 1_200;
        let mut batch: Vec<Fingerprint> = universe[start..start + 160].to_vec();
        let dups: Vec<Fingerprint> = batch[..10].to_vec();
        batch.extend(dups); // in-frame duplicates
        match round % 4 {
            0 | 1 => {
                let a = baseline.lookup_insert_batch_values(&batch).unwrap();
                let b = sharded.lookup_insert_batch_values(&batch).unwrap();
                assert_eq!(a, b, "lookup diverged (S={shards}, round {round})");
            }
            2 => {
                let a = baseline.query_batch(&batch).unwrap();
                let b = sharded.query_batch(&batch).unwrap();
                assert_eq!(a, b, "query diverged (S={shards}, round {round})");
                let pairs: Vec<(Fingerprint, u64)> = batch
                    .iter()
                    .take(40)
                    .enumerate()
                    .map(|(i, fp)| (*fp, round * 1_000 + i as u64))
                    .collect();
                baseline.record_batch(&pairs).unwrap();
                sharded.record_batch(&pairs).unwrap();
            }
            _ => {
                let doomed: Vec<Fingerprint> = batch.iter().step_by(7).copied().collect();
                baseline.remove_batch(&doomed).unwrap();
                sharded.remove_batch(&doomed).unwrap();
                let a = baseline.query_batch(&batch).unwrap();
                let b = sharded.query_batch(&batch).unwrap();
                assert_eq!(a, b, "post-remove query diverged (S={shards})");
            }
        }
    }
    let a = baseline.stats().unwrap();
    let b = sharded.stats().unwrap();
    assert_eq!(a.total_entries(), b.total_entries());
    assert_eq!(
        b.nodes.iter().map(|n| n.shards).max(),
        Some(shards.max(1)),
        "snapshots must report the shard count"
    );
    baseline.shutdown().unwrap();
    sharded.shutdown().unwrap();
}

#[test]
fn sharded_matches_single_threaded_pipelined() {
    for shards in [2, 3, 4, 8] {
        assert_equivalent_traffic(shards);
    }
}

/// Membership changes (the PR-4 epoch machinery) behave identically on
/// sharded nodes: answers and totals match a single-threaded cluster
/// through join, drain and anti-entropy.
#[test]
fn migration_interleavings_preserve_equivalence() {
    let baseline = ShhcCluster::spawn(config(2, 1)).unwrap();
    let sharded = ShhcCluster::spawn(config(2, 4)).unwrap();
    let stream = fps(0..3_000);
    for window in stream.chunks(250) {
        let a = baseline.lookup_insert_batch_values(window).unwrap();
        let b = sharded.lookup_insert_batch_values(window).unwrap();
        assert_eq!(a, b);
    }
    // Join: every entry must keep deduplicating afterwards.
    let (_, report_a) = baseline.add_node().unwrap();
    let (_, report_b) = sharded.add_node().unwrap();
    assert!(report_b.moved > 0, "sharded migration must move entries");
    assert_eq!(
        report_a.moved, report_b.moved,
        "identical stores must migrate identical volumes"
    );
    for window in stream.chunks(250) {
        let a = baseline.lookup_insert_batch_values(window).unwrap();
        let b = sharded.lookup_insert_batch_values(window).unwrap();
        assert_eq!(a, b, "post-join answers diverged");
        assert!(a.0.iter().all(|e| *e), "join must not lose entries");
    }
    // Drain the first node: verified-empty decommission must work
    // against sharded scan/migrate paths too.
    let report = sharded.drain_node(shhc_types::NodeId::new(0)).unwrap();
    assert_eq!(report.post_scan_entries, 0, "drain must verify empty");
    baseline.drain_node(shhc_types::NodeId::new(0)).unwrap();
    let exists = sharded.lookup_insert_batch(&stream).unwrap();
    assert!(exists.iter().all(|e| *e), "drain must not lose entries");
    // Anti-entropy converges to the same totals.
    baseline.rebalance().unwrap();
    sharded.rebalance().unwrap();
    assert_eq!(
        baseline.stats().unwrap().total_entries(),
        sharded.stats().unwrap().total_entries()
    );
    baseline.shutdown().unwrap();
    sharded.shutdown().unwrap();
}

/// The head-of-line regression the worker pool exists to fix: a 1-
/// fingerprint frame submitted right behind a 48-fingerprint frame is
/// answered in ≈ its own service time on a sharded node (its shard is
/// idle), while the single-threaded baseline demonstrably makes it wait
/// for the whole deep frame.
#[test]
fn small_frame_is_not_blocked_behind_a_deep_frame() {
    let delay = Duration::from_millis(2);
    let deep_len = 48u32;
    let run = |shards: u32| -> (Duration, Duration) {
        let mut node_config = NodeConfig::small_test();
        node_config.shards = shards;
        node_config.service_delay = delay;
        let cluster = ShhcCluster::spawn(ClusterConfig::new(1, node_config)).unwrap();
        // The deep frame occupies shards 0..3 (of 4); the small frame's
        // shard 3 stays idle on the sharded node.
        let deep: Vec<Fingerprint> = (0..deep_len)
            .map(|i| fp_in_shard(i % 3, 4, 10 + u64::from(i)))
            .collect();
        let small = vec![fp_in_shard(3, 4, 1)];
        let deep_cluster = cluster.clone();
        let deep_thread = std::thread::spawn(move || {
            let start = Instant::now();
            deep_cluster.lookup_insert_batch(&deep).unwrap();
            start.elapsed()
        });
        // Let the deep frame reach the node queue first.
        std::thread::sleep(Duration::from_millis(10));
        let start = Instant::now();
        cluster.lookup_insert_batch(&small).unwrap();
        let small_elapsed = start.elapsed();
        let deep_elapsed = deep_thread.join().unwrap();
        cluster.shutdown().unwrap();
        (deep_elapsed, small_elapsed)
    };
    let (deep_base, small_base) = run(1);
    let (deep_sharded, small_sharded) = run(4);
    // Baseline: 48 × 2 ms of service sit ahead of the small frame; even
    // granting generous scheduling slack it must wait out most of it.
    let deep_service = delay * deep_len;
    assert!(
        small_base > deep_service / 2,
        "single-threaded node must make the small frame wait out the deep \
         frame (waited {small_base:?} of {deep_service:?}; deep took {deep_base:?})"
    );
    // Sharded: the small frame's shard is idle — answered in ≈ its own
    // 2 ms service time. 40 ms leaves a 20× margin for CI jitter while
    // staying far below the 86 ms the baseline pays.
    assert!(
        small_sharded < Duration::from_millis(40),
        "sharded node must answer the small frame in ≈ its own service \
         time (took {small_sharded:?}; deep ran {deep_sharded:?})"
    );
    assert!(
        small_sharded * 2 < small_base,
        "sharding must beat the baseline's head-of-line wait \
         ({small_sharded:?} vs {small_base:?})"
    );
}

/// Intra-node parallelism is real wall-clock concurrency: a frame that
/// spreads over all shards finishes in ≈ the largest per-shard share of
/// the service time, not the sum.
#[test]
fn sharded_frame_latency_tracks_share_not_sum() {
    let delay = Duration::from_millis(1);
    let batch = fps(0..96);
    let run = |shards: u32| {
        let mut node_config = NodeConfig::small_test();
        node_config.shards = shards;
        node_config.service_delay = delay;
        let cluster = ShhcCluster::spawn(ClusterConfig::new(1, node_config)).unwrap();
        let start = Instant::now();
        cluster.lookup_insert_batch(&batch).unwrap();
        let elapsed = start.elapsed();
        cluster.shutdown().unwrap();
        elapsed
    };
    let single = run(1);
    let sharded = run(4);
    assert!(
        single >= delay * batch.len() as u32,
        "single-threaded node pays the full sum ({single:?})"
    );
    assert!(
        sharded * 2 < single,
        "4 shards must cut frame latency well below the single-threaded \
         sum ({sharded:?} vs {single:?})"
    );
}
