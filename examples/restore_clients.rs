//! Restore day: four clients stream their backups back concurrently.
//!
//! Each client owns a disjoint deduplicated stream backed up through a
//! shared `BackupService`. All four then restore at once over the
//! two-worker read path (batched `Admission::Bypass` locate queries and
//! `get_many` container reads, each worker verifying and placing whole
//! batches into the output buffer). Prints per-client throughput plus the
//! node cache and locate-audit stats.
//!
//! Run with: `cargo run --release --example restore_clients`

use std::sync::{Arc, Barrier};
use std::time::Instant;

use shhc::prelude::*;
use shhc::NodeConfig;
use shhc_workload::RestoreSpec;

const CLIENTS: usize = 4;

fn main() -> Result<()> {
    println!("SHHC restore at scale: {CLIENTS} concurrent restoring clients\n");

    // A realistic per-frame service overhead is what the restore's
    // batched locates amortize.
    let mut node_config = NodeConfig::small_test();
    node_config.batch_overhead = std::time::Duration::from_micros(80);
    let cluster = ShhcCluster::spawn(ClusterConfig::new(2, node_config))?;
    let service = BackupService::new(
        cluster.clone(),
        FixedChunker::new(4096),
        MemChunkStore::new(1 << 24),
        64,
    );

    let spec = RestoreSpec::open_loop(CLIENTS, 256);
    let payloads = spec.client_payloads();
    let mut manifests = Vec::new();
    for (c, data) in payloads.iter().enumerate() {
        let report = service.backup(StreamId::new(c as u32), data)?;
        manifests.push(report.manifest);
    }
    println!(
        "backed up {} clients × {} chunks × {} B ({:.1} MB logical)\n",
        CLIENTS,
        spec.chunks_per_client,
        spec.chunk_size,
        spec.total_restored_bytes() as f64 / 1e6
    );

    let config = RestoreConfig::new(64);
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let mut handles = Vec::new();
    for (c, (manifest, payload)) in manifests.iter().zip(&payloads).enumerate() {
        let service = service.clone();
        let barrier = Arc::clone(&barrier);
        let manifest = manifest.clone();
        let payload = payload.clone();
        handles.push(std::thread::spawn(move || -> Result<_> {
            barrier.wait();
            let start = Instant::now();
            let report = service.restore_with(&manifest, config)?;
            let elapsed = start.elapsed();
            assert_eq!(
                report.data, payload,
                "client {c}: restore must be byte-exact"
            );
            Ok((c, report, elapsed))
        }));
    }

    println!("restore ({}-chunk batches, two workers):", config.batch);
    println!(
        "{:>8} {:>10} {:>12} {:>10} {:>14}",
        "client", "chunks", "elapsed_ms", "MB/s", "locate hits"
    );
    for handle in handles {
        let (c, report, elapsed) = handle.join().expect("client thread")?;
        println!(
            "{c:>8} {:>10} {:>12.1} {:>10.1} {:>13.0}%",
            report.chunks,
            elapsed.as_secs_f64() * 1e3,
            report.bytes as f64 / 1e6 / elapsed.as_secs_f64().max(1e-9),
            report.locate_coverage() * 100.0
        );
    }
    println!();

    let stats = cluster.stats()?;
    println!("cluster after the restore wave:");
    for node in &stats.nodes {
        println!(
            "  node {}: {} entries, cache {} hits / {} misses / {} evictions \
             ({} ram hits, {} ssd hits, {} queries)",
            node.id,
            node.entries,
            node.cache.hits,
            node.cache.misses,
            node.cache.evictions,
            node.stats.ram_hits,
            node.stats.ssd_hits,
            node.stats.queries
        );
    }

    drop(service);
    cluster.shutdown()?;
    println!("\nok: {CLIENTS} concurrent clients, byte-exact restores");
    Ok(())
}
