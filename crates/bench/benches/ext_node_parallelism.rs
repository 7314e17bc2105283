//! Extension — intra-node parallelism: one server thread per shard.
//!
//! The paper scales SHHC across machines but serves each hybrid hash
//! node from one sequential thread, so a node can never use more than
//! one core. This harness measures *real* wall-clock throughput of a
//! **single node** whose per-fingerprint service time is a true sleep
//! (`NodeConfig::service_delay`, standing in for device latency), as the
//! node's shard count sweeps 1 → 8:
//!
//! - `shards = 1` — the paper's node, one server thread (the measured
//!   baseline),
//! - `shards = S` — one server thread per shard: the cluster splits
//!   every window into per-shard frames that sleep and execute
//!   **concurrently** on the S shard threads, and a window costs ≈ its
//!   largest per-shard share.
//!
//! A second measurement drives two clients — one submitting deep frames,
//! one submitting 1-fingerprint frames — and reports the small client's
//! mean latency: on the baseline it queues head-of-line behind every
//! deep frame; on the sharded node it is answered in ≈ its own service
//! time. Emits `results/ext_node_parallelism.csv` plus
//! `BENCH_node_parallelism.json` at the workspace root. Set
//! `SHHC_NODE_PARALLELISM_QUICK=1` for a sub-second CI smoke run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use shhc::{ClusterConfig, NodeConfig, ShhcCluster};
use shhc_bench::{banner, node_parallelism_quick, write_bench_json, write_csv};
use shhc_flash::FlashConfig;
use shhc_types::Fingerprint;
use shhc_workload::spread_batches;

fn node_config(shards: u32, service_delay: Duration) -> NodeConfig {
    let mut config = NodeConfig::small_test();
    config.flash = FlashConfig::medium_test();
    config.cache_capacity = 16_384;
    config.service_delay = service_delay;
    config.shards = shards;
    config
}

struct Measured {
    lookups: u64,
    elapsed: Duration,
    lookups_per_sec: f64,
}

/// One node, `shards` shards: an ingest pass (all new) followed by a
/// dedup pass (all duplicates) over the same batches — the same total
/// work at every shard count.
fn drive(shards: u32, stream: &[Vec<Fingerprint>], service_delay: Duration) -> Measured {
    let cluster = ShhcCluster::spawn(ClusterConfig::new(1, node_config(shards, service_delay)))
        .expect("spawn cluster");
    let start = Instant::now();
    for batch in stream {
        let exists = cluster.lookup_insert_batch(batch).expect("lookup");
        debug_assert!(exists.iter().all(|e| !e), "ingest pass must be all-new");
    }
    for batch in stream {
        let exists = cluster.lookup_insert_batch(batch).expect("lookup");
        assert!(exists.iter().all(|e| *e), "dedup pass must be all-hits");
    }
    let elapsed = start.elapsed();
    cluster.shutdown().expect("shutdown");
    let lookups = 2 * stream.iter().map(|b| b.len() as u64).sum::<u64>();
    Measured {
        lookups,
        elapsed,
        lookups_per_sec: lookups as f64 / elapsed.as_secs_f64(),
    }
}

/// Two clients against one node: a hog streaming deep frames and a
/// latency-sensitive client submitting 1-fingerprint frames. Returns the
/// small client's mean frame latency.
fn small_frame_latency(
    shards: u32,
    deep_size: usize,
    probes: usize,
    service_delay: Duration,
) -> Duration {
    let cluster = ShhcCluster::spawn(ClusterConfig::new(1, node_config(shards, service_delay)))
        .expect("spawn cluster");
    let stop = Arc::new(AtomicBool::new(false));
    let hog = {
        let cluster = cluster.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut k = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let batch: Vec<Fingerprint> = (0..deep_size as u64)
                    .map(|i| {
                        shhc_workload::spread_fingerprint(1_000_000 + k * deep_size as u64 + i)
                    })
                    .collect();
                k += 1;
                cluster.lookup_insert_batch(&batch).expect("deep lookup");
            }
        })
    };
    // Let the hog saturate the node before probing.
    std::thread::sleep(service_delay * deep_size as u32);
    let mut total = Duration::ZERO;
    for p in 0..probes {
        let probe = vec![shhc_workload::spread_fingerprint(9_000_000 + p as u64)];
        let start = Instant::now();
        cluster.lookup_insert_batch(&probe).expect("small lookup");
        total += start.elapsed();
    }
    stop.store(true, Ordering::Relaxed);
    hog.join().expect("hog thread");
    cluster.shutdown().expect("shutdown");
    total / probes as u32
}

fn main() {
    let quick = node_parallelism_quick();
    let (shard_counts, batches, batch_size, delay, probes) = if quick {
        (
            vec![1u32, 2, 4],
            3usize,
            64usize,
            Duration::from_micros(200),
            4usize,
        )
    } else {
        (
            vec![1, 2, 4, 8],
            10usize,
            512usize,
            Duration::from_micros(100),
            24usize,
        )
    };
    banner(
        "Extension — intra-node parallelism: one server thread per shard",
        "a node's throughput scales with its shard count (multi-core execution \
         the paper's sequential node leaves on the table), and small frames \
         stop waiting head-of-line behind deep ones",
    );
    println!(
        "mode: {}, 1 node, {batches} batches x {batch_size} fingerprints x 2 passes, \
         {} µs simulated device latency per fingerprint\n",
        if quick { "quick (CI smoke)" } else { "full" },
        delay.as_micros()
    );
    let stream = spread_batches(batches, batch_size);

    println!(
        "{:>7} {:>18} {:>9}   (sustained lookups/second, one node)",
        "shards", "throughput", "speedup"
    );
    let mut rows = Vec::new();
    let mut summary = Vec::new();
    let mut baseline = None;
    for &shards in &shard_counts {
        let m = drive(shards, &stream, delay);
        let base = *baseline.get_or_insert(m.lookups_per_sec);
        let speedup = m.lookups_per_sec / base;
        println!("{shards:>7} {:>18.0} {speedup:>8.2}x", m.lookups_per_sec);
        rows.push(format!(
            "{shards},{batches},{batch_size},{},{},{:.3},{:.0},{speedup:.3}",
            delay.as_micros(),
            m.lookups,
            m.elapsed.as_secs_f64() * 1e3,
            m.lookups_per_sec
        ));
        summary.push((shards, m.lookups_per_sec, speedup));
    }

    // Head-of-line latency: deep frames vs a 1-fingerprint client.
    let deep_size = batch_size.min(128);
    let hol_base = small_frame_latency(1, deep_size, probes, delay);
    let hol_sharded = small_frame_latency(4, deep_size, probes, delay);
    println!(
        "\nsmall-frame latency behind {deep_size}-deep frames: \
         {:.2} ms single-threaded vs {:.2} ms with 4 shards",
        hol_base.as_secs_f64() * 1e3,
        hol_sharded.as_secs_f64() * 1e3
    );

    let at = |n: u32| summary.iter().find(|s| s.0 == n);
    println!("\nchecks:");
    if let Some(&(_, _, speedup)) = at(4) {
        println!("  4-shard vs single-threaded node: {speedup:.2}x (target: ≥ 2x)");
    }
    if let Some(&(_, _, speedup)) = at(8) {
        println!("  8-shard vs single-threaded node: {speedup:.2}x (paper: near-linear)");
    }

    // Quick (smoke) runs write under a distinct name so they can never
    // clobber the committed full-run artifacts.
    write_csv(
        if quick {
            "ext_node_parallelism_quick"
        } else {
            "ext_node_parallelism"
        },
        "shards,batches,batch_size,service_delay_us,total_lookups,elapsed_ms,lookups_per_sec,speedup",
        &rows,
    );
    if quick {
        println!("quick mode: skipping BENCH_node_parallelism.json (full-run record)");
        return;
    }
    let entries: Vec<String> = summary
        .iter()
        .map(|(s, tput, x)| {
            format!("    {{\"shards\": {s}, \"lookups_per_sec\": {tput:.0}, \"speedup\": {x:.3}}}")
        })
        .collect();
    write_bench_json(
        "node_parallelism",
        &format!(
            "{{\n  \"bench\": \"ext_node_parallelism\",\n  \"quick\": {quick},\n  \
             \"nodes\": 1,\n  \"batches\": {batches},\n  \"batch_size\": {batch_size},\n  \
             \"service_delay_us\": {},\n  \"deep_frame_size\": {deep_size},\n  \
             \"small_frame_latency_ms_single\": {:.3},\n  \
             \"small_frame_latency_ms_sharded\": {:.3},\n  \"results\": [\n{}\n  ]\n}}\n",
            delay.as_micros(),
            hol_base.as_secs_f64() * 1e3,
            hol_sharded.as_secs_f64() * 1e3,
            entries.join(",\n")
        ),
    );
}
