//! Fault tolerance and elastic scaling — the paper's future-work items,
//! implemented: replication with failover, node crash, restart, and
//! online rebalancing when a node joins.
//!
//! ```text
//! cargo run --example fault_tolerance
//! ```

use shhc::{ClusterConfig, ShhcCluster};
use shhc_types::{Fingerprint, NodeId, Result};

fn fps(range: std::ops::Range<u64>) -> Vec<Fingerprint> {
    range
        .map(|i| Fingerprint::from_u64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31)))
        .collect()
}

fn main() -> Result<()> {
    // Three nodes, every fingerprint on two of them.
    let cluster = ShhcCluster::spawn(ClusterConfig::small_test(3).with_replication(2))?;
    let batch = fps(0..3_000);

    println!("=== ingest 3000 fingerprints (replication factor 2) ===");
    cluster.lookup_insert_batch(&batch)?;
    for node in &cluster.stats()?.nodes {
        println!("{}: {} fingerprints", node.id, node.entries);
    }

    println!("\n=== crash node-1 ===");
    cluster.kill_node(NodeId::new(1))?;
    println!("alive nodes: {}", cluster.alive_count());

    let exists = cluster.lookup_insert_batch(&batch)?;
    let found = exists.iter().filter(|e| **e).count();
    println!("lookups after the crash: {found}/3000 still answered 'exists'");
    assert_eq!(found, 3000, "replication must mask the crash");

    println!("\n=== restart node-1 (cold) and add a fourth node ===");
    cluster.restart_cold(NodeId::new(1))?;
    let (new_id, report) = cluster.add_node()?;
    println!(
        "{new_id} joined; rebalance scanned {} and moved {} fingerprints",
        report.scanned, report.moved
    );

    // The join re-homes every entry to its full replica set, so the
    // cold-restarted node-1 is refilled from its peers on the way.
    let exists = cluster.lookup_insert_batch(&batch)?;
    let found = exists.iter().filter(|e| **e).count();
    println!("lookups after rebalance: {found}/3000 answered 'exists'");
    assert_eq!(found, 3000, "the join keeps every fingerprint");
    let copies = cluster.stats()?.total_entries();
    println!("stored copies: {copies} (two per fingerprint)");

    println!("\n=== final layout ===");
    for node in &cluster.stats()?.nodes {
        println!("{}: {} fingerprints", node.id, node.entries);
    }

    cluster.shutdown()?;
    Ok(())
}
