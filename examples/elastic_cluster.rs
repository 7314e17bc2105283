//! Elastic membership under live traffic — epoch-versioned ring, online
//! join, and graceful drain.
//!
//! A writer thread keeps inserting fingerprints the whole time; the
//! cluster joins a node and then drains one **without pausing traffic**:
//! the new epoch's ring is installed first, misses inside in-flight
//! migration ranges dual-read from the previous owner, and the data
//! moves in chunks behind the scenes.
//!
//! ```text
//! cargo run --example elastic_cluster
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use shhc::{ClusterConfig, ShhcCluster};
use shhc_types::{Fingerprint, NodeId, Result};

fn fps(range: std::ops::Range<u64>) -> Vec<Fingerprint> {
    range
        .map(|i| Fingerprint::from_u64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31)))
        .collect()
}

fn main() -> Result<()> {
    // Room for the resident population plus everything the writer adds.
    let mut node_config = shhc::NodeConfig::small_test();
    node_config.flash = shhc_flash::FlashConfig::medium_test();
    node_config.cache_capacity = 4_096;
    let cluster = ShhcCluster::spawn(ClusterConfig::new(3, node_config).with_migration_chunk(128))?;
    println!(
        "=== epoch {}: 3 nodes, ingest 6000 fingerprints ===",
        cluster.epoch()
    );
    let resident = fps(0..6_000);
    for window in resident.chunks(512) {
        cluster.lookup_insert_batch(window)?;
    }

    // Live traffic: a writer keeps registering new fingerprints through
    // every membership change below.
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let cluster = cluster.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || -> Result<Vec<Fingerprint>> {
            let mut written = Vec::new();
            let mut next = 1_000_000u64;
            while !stop.load(Ordering::Relaxed) && written.len() < 20_000 {
                let batch = fps(next..next + 64);
                next += 64;
                cluster.lookup_insert_batch(&batch)?;
                written.extend(batch);
            }
            Ok(written)
        })
    };

    println!("\n=== join node-3 (traffic keeps flowing) ===");
    let (new_id, join) = cluster.add_node()?;
    println!(
        "{new_id} joined: epoch {} → {}, moved {} fingerprints in {} chunks \
         over {:.0} ms",
        join.from_epoch,
        join.to_epoch,
        join.moved,
        join.chunks,
        join.wall_clock.as_secs_f64() * 1e3
    );

    println!("\n=== drain node-1 (graceful decommission) ===");
    let drain = cluster.drain_node(NodeId::new(1))?;
    println!(
        "node-1 drained: epoch {} → {}, moved {} fingerprints in {} chunks \
         over {:.0} ms; final scan found {} entries",
        drain.from_epoch,
        drain.to_epoch,
        drain.moved,
        drain.chunks,
        drain.wall_clock.as_secs_f64() * 1e3,
        drain.post_scan_entries
    );
    assert_eq!(drain.post_scan_entries, 0, "drain verifies the node empty");

    stop.store(true, Ordering::Relaxed);
    let written = writer.join().expect("writer thread")?;
    println!(
        "\nwriter registered {} fingerprints during the churn",
        written.len()
    );

    // Nothing was stranded: everything written before or during the
    // membership changes still deduplicates.
    let mut found = 0usize;
    for window in resident.chunks(512).chain(written.chunks(512)) {
        found += cluster
            .lookup_insert_batch(window)?
            .iter()
            .filter(|e| **e)
            .count();
    }
    let total = resident.len() + written.len();
    println!("dedup after churn: {found}/{total} fingerprints answered 'exists'");
    assert_eq!(found, total, "no fingerprint may be stranded by churn");

    let stats = cluster.stats()?;
    println!("\n=== final layout (epoch {}) ===", stats.epoch);
    for node in &stats.nodes {
        println!("{}: {} fingerprints", node.id, node.entries);
    }
    println!("drained: {:?}", stats.drained);

    cluster.shutdown()?;
    Ok(())
}
