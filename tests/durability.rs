//! End-to-end durability: WAL-backed clusters under kill -9, dirty
//! shutdowns with torn log tails, cold-vs-warm restarts, and
//! cross-process-style reopen (a fresh cluster over the same data dir).
//!
//! The contract under test, from strongest to weakest:
//!
//! 1. **Acked implies durable**: every frame the cluster acknowledged
//!    before a crash is recovered by a warm restart — byte-exact values,
//!    even with `replication = 1` (no peer to lean on).
//! 2. **Torn tails are detected, truncated, never replayed**: dirty
//!    shutdowns that leave partially written journal/segment records
//!    must not corrupt recovery or invent state.
//! 3. **Cold restarts wipe**: `restart_cold` discards durable state —
//!    the historical empty-standby semantics stay available.

use shhc::{
    ClusterConfig, Durability, FaultPlan, Fingerprint, NodeConfig, NodeId, ShhcCluster, WalConfig,
};

fn fps(range: std::ops::Range<u64>) -> Vec<Fingerprint> {
    range
        .map(|i| Fingerprint::from_u64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31)))
        .collect()
}

fn wal_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("shhc-durability-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_config(nodes: u32, dir: &std::path::Path) -> ClusterConfig {
    let node_config = NodeConfig::small_test().with_durability(Durability::wal(dir));
    ClusterConfig::new(nodes, node_config)
}

/// Acceptance: kill -9 mid-load, warm restart, zero lost acked entries.
/// `replication = 1` makes the WAL the *only* copy — nothing can be
/// papered over by a replica.
#[test]
fn acked_entries_survive_kill_nine_without_replication() {
    let dir = wal_dir("kill9");
    let cluster = ShhcCluster::spawn(durable_config(2, &dir)).unwrap();
    let batch = fps(0..2_000);
    cluster.lookup_insert_batch(&batch).unwrap();
    // Re-looking the batch up returns the stored values (inserts carry
    // no values on the wire; duplicates do).
    let (_, values) = cluster.lookup_insert_batch_values(&batch).unwrap();

    // kill -9 both nodes: threads exit without closing their stores.
    cluster.kill_node(NodeId::new(0)).unwrap();
    cluster.kill_node(NodeId::new(1)).unwrap();
    let r0 = cluster.restart_node(NodeId::new(0)).unwrap();
    let r1 = cluster.restart_node(NodeId::new(1)).unwrap();
    assert_eq!(
        r0.recovered_entries + r1.recovered_entries,
        batch.len() as u64,
        "every acked entry must be rebuilt from the WALs"
    );
    // No replicas to pull from: recovery was purely local replay.
    assert_eq!(r0.resynced + r1.resynced, 0);

    let (exists, after) = cluster.lookup_insert_batch_values(&batch).unwrap();
    assert!(exists.iter().all(|e| *e), "acked entries lost by the crash");
    assert_eq!(values, after, "recovered values differ from acked values");
    cluster.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash between a window's lookup-insert and its record: the victim's
/// log replays the insert-time placeholders while its replica peer holds
/// the recorded values. Warm restart must not leave the stale copies
/// answering — the peer that stayed up saw every record.
#[test]
fn records_missed_while_down_are_not_shadowed_by_replayed_placeholders() {
    let dir = wal_dir("stale-values");
    let cluster = ShhcCluster::spawn(durable_config(3, &dir).with_replication(2)).unwrap();
    let batch = fps(0..1_500);
    cluster.lookup_insert_batch(&batch).unwrap();

    let victim = NodeId::new(2);
    cluster.kill_node(victim).unwrap();
    let recorded: Vec<(Fingerprint, u64)> = batch
        .iter()
        .enumerate()
        .map(|(i, fp)| (*fp, 0xC0DE_0000 + i as u64))
        .collect();
    cluster.record_batch(&recorded).unwrap();
    let report = cluster.restart_node(victim).unwrap();
    assert!(
        report.recovered_entries > 0,
        "the victim replayed its share"
    );

    let (exists, values) = cluster.lookup_insert_batch_values(&batch).unwrap();
    assert!(exists.iter().all(|e| *e));
    let expected: Vec<u64> = recorded.iter().map(|(_, value)| *value).collect();
    assert_eq!(values, expected, "a replayed placeholder shadowed a record");
    cluster.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Dirty shutdown: every crash also tears the final journal and segment
/// records. Recovery must detect the torn tails by checksum, truncate
/// them, and still serve every acked entry.
#[test]
fn torn_log_tails_are_truncated_never_replayed() {
    let dir = wal_dir("torn");
    let mut config = durable_config(1, &dir);
    config.node_config.durability =
        Durability::Wal(WalConfig::new(&dir).with_fault(FaultPlan::torn_tails()));
    let cluster = ShhcCluster::spawn(config).unwrap();
    let batch = fps(0..1_000);
    cluster.lookup_insert_batch(&batch).unwrap();

    cluster.kill_node(NodeId::new(0)).unwrap();
    let report = cluster.restart_node(NodeId::new(0)).unwrap();
    assert_eq!(report.recovered_entries, batch.len() as u64);
    assert!(
        report.torn >= 1,
        "the armed fault plan must have torn at least one tail record"
    );

    let exists = cluster.lookup_insert_batch(&batch).unwrap();
    assert!(exists.iter().all(|e| *e));
    // The node's snapshot carries the recovery counters too.
    let stats = cluster.stats().unwrap();
    let node = &stats.nodes[0];
    assert_eq!(node.stats.recovered_entries, batch.len() as u64);
    assert!(node.stats.recovery_torn >= 1);
    cluster.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Repeated crash/recover cycles with live writes between crashes: each
/// generation's acked writes accumulate; nothing regresses.
#[test]
fn repeated_crash_recover_cycles_accumulate_state() {
    let dir = wal_dir("cycles");
    let cluster = ShhcCluster::spawn(durable_config(1, &dir)).unwrap();
    let mut all: Vec<Fingerprint> = Vec::new();
    for round in 0..4u64 {
        let batch = fps(round * 500..(round + 1) * 500);
        cluster.lookup_insert_batch(&batch).unwrap();
        all.extend(batch);
        cluster.kill_node(NodeId::new(0)).unwrap();
        let report = cluster.restart_node(NodeId::new(0)).unwrap();
        assert_eq!(
            report.recovered_entries,
            all.len() as u64,
            "round {round}: recovery lost ground"
        );
        let exists = cluster.lookup_insert_batch(&all).unwrap();
        assert!(exists.iter().all(|e| *e), "round {round} lost entries");
    }
    cluster.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A sharded durable node keeps one WAL per shard and recovers them all.
#[test]
fn sharded_durable_node_recovers_every_shard() {
    let dir = wal_dir("sharded");
    let mut config = durable_config(1, &dir);
    config.node_config = config.node_config.with_shards(4);
    let cluster = ShhcCluster::spawn(config).unwrap();
    let batch = fps(0..2_000);
    cluster.lookup_insert_batch(&batch).unwrap();
    let (_, values) = cluster.lookup_insert_batch_values(&batch).unwrap();

    cluster.kill_node(NodeId::new(0)).unwrap();
    let report = cluster.restart_node(NodeId::new(0)).unwrap();
    assert_eq!(report.recovered_entries, batch.len() as u64);

    let (exists, after) = cluster.lookup_insert_batch_values(&batch).unwrap();
    assert!(exists.iter().all(|e| *e));
    assert_eq!(values, after, "a shard recovered the wrong values");
    cluster.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `restart_cold` discards durable state: the node rejoins empty even
/// though its WAL held every entry, and the wiped directory cannot leak
/// into a later warm restart.
#[test]
fn cold_restart_wipes_the_wal() {
    let dir = wal_dir("cold");
    let cluster = ShhcCluster::spawn(durable_config(1, &dir)).unwrap();
    cluster.lookup_insert_batch(&fps(0..500)).unwrap();
    cluster.kill_node(NodeId::new(0)).unwrap();
    cluster.restart_cold(NodeId::new(0)).unwrap();
    let stats = cluster.stats().unwrap();
    assert_eq!(stats.nodes[0].entries, 0, "cold standby must start empty");
    assert!(stats.recovered.is_empty());

    // A second crash/warm-restart finds nothing to replay either.
    cluster.kill_node(NodeId::new(0)).unwrap();
    let report = cluster.restart_node(NodeId::new(0)).unwrap();
    assert_eq!(report.recovered_entries, 0);
    cluster.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Clean shutdown, then a brand-new cluster over the same data dir (the
/// process-restart story): every entry reopens with its value intact.
#[test]
fn fresh_cluster_reopens_cleanly_shut_down_state() {
    let dir = wal_dir("reopen");
    let batch = fps(0..1_500);
    let values = {
        let cluster = ShhcCluster::spawn(durable_config(2, &dir)).unwrap();
        cluster.lookup_insert_batch(&batch).unwrap();
        let (_, values) = cluster.lookup_insert_batch_values(&batch).unwrap();
        cluster.shutdown().unwrap(); // clean close: journals checkpointed
        values
    };
    let cluster = ShhcCluster::spawn(durable_config(2, &dir)).unwrap();
    let (exists, after) = cluster.lookup_insert_batch_values(&batch).unwrap();
    assert!(exists.iter().all(|e| *e), "reopened cluster lost entries");
    assert_eq!(values, after);
    let stats = cluster.stats().unwrap();
    assert_eq!(stats.total_entries(), batch.len() as u64);
    cluster.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
