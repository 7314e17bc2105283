//! Extension — restore at scale: the two-worker, batched read path.
//!
//! Backup systems are judged on restore day. The restore cuts the
//! manifest into batches that two workers take in order: each batch's
//! chunks come back from the chunk store as **one** `get_many`, and the
//! worker verifies them and copies them straight into the output buffer.
//! The fingerprint index is never asked.
//!
//! Two measurements, on clusters with realistic per-frame and per-op
//! service time turned up (which only the ingest sessions pay):
//! 1. K-client restore throughput (K swept).
//! 2. A mixed row: pipelined restores running against concurrent ingest
//!    sessions on the same service (both throughputs reported).
//!
//! Emits `results/ext_restore.csv` plus `BENCH_restore.json` at the
//! workspace root. Set `SHHC_RESTORE_QUICK=1` for a CI smoke run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use shhc::prelude::*;
use shhc::{NodeConfig, RestoreConfig, ShhcCluster};
use shhc_bench::{banner, restore_quick, write_bench_json, write_csv};
use shhc_workload::RestoreSpec;

struct Scenario {
    nodes: u32,
    client_counts: Vec<usize>,
    chunks_per_client: usize,
    chunk_size: usize,
    passes: usize,
    batch: usize,
    /// Per-frame node service overhead — what batching amortizes.
    batch_overhead: Duration,
    /// Per-fingerprint node service time.
    service_delay: Duration,
    /// Ingest sessions in the mixed row.
    mixed_ingest_sessions: usize,
}

type Svc = BackupService<FixedChunker, MemChunkStore>;

fn spawn_service(scenario: &Scenario) -> Svc {
    let mut node_config = NodeConfig::small_test();
    node_config.flash = shhc_flash::FlashConfig::medium_test();
    node_config.cache_capacity = 16_384;
    node_config.batch_overhead = scenario.batch_overhead;
    node_config.service_delay = scenario.service_delay;
    let cluster =
        ShhcCluster::spawn(ClusterConfig::new(scenario.nodes, node_config)).expect("spawn cluster");
    BackupService::new(
        cluster,
        FixedChunker::new(scenario.chunk_size),
        MemChunkStore::new(8 << 20),
        64,
    )
}

struct Measured {
    total_bytes: u64,
    elapsed: Duration,
}

impl Measured {
    fn mbps(&self) -> f64 {
        self.total_bytes as f64 / 1e6 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// K clients restore their manifests `passes` times, concurrently.
/// Every pass is verified byte-exact against the client's payload.
fn drive_restores(
    svc: &Svc,
    manifests: &[BackupManifest],
    payloads: &[Vec<u8>],
    passes: usize,
    config: RestoreConfig,
) -> Measured {
    let barrier = Arc::new(Barrier::new(manifests.len()));
    let (total_bytes, elapsed) = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (manifest, payload) in manifests.iter().zip(payloads) {
            let svc = svc.clone();
            let barrier = Arc::clone(&barrier);
            handles.push(scope.spawn(move || {
                barrier.wait();
                let start = Instant::now();
                let mut bytes = 0u64;
                for _ in 0..passes {
                    let report = svc.restore_with(manifest, config).expect("restore");
                    assert_eq!(report.data, *payload, "restore must be byte-exact");
                    bytes += report.bytes;
                }
                (bytes, start.elapsed())
            }));
        }
        handles
            .into_iter()
            .fold((0u64, Duration::ZERO), |(b, e), h| {
                let (bytes, elapsed) = h.join().expect("restorer");
                (b + bytes, e.max(elapsed))
            })
    });
    Measured {
        total_bytes,
        elapsed,
    }
}

/// Backs up the spec's payloads, returning (manifests, payloads).
fn setup_backups(svc: &Svc, spec: &RestoreSpec) -> (Vec<BackupManifest>, Vec<Vec<u8>>) {
    let payloads = spec.client_payloads();
    let manifests = payloads
        .iter()
        .enumerate()
        .map(|(c, data)| {
            svc.backup(StreamId::new(c as u32), data)
                .expect("backup")
                .manifest
        })
        .collect();
    (manifests, payloads)
}

fn main() {
    let quick = restore_quick();
    let scenario = if quick {
        Scenario {
            nodes: 2,
            client_counts: vec![2],
            chunks_per_client: 48,
            chunk_size: 1024,
            passes: 1,
            batch: 16,
            batch_overhead: Duration::from_micros(40),
            service_delay: Duration::from_nanos(100),
            mixed_ingest_sessions: 1,
        }
    } else {
        Scenario {
            nodes: 2,
            client_counts: vec![1, 4, 8],
            chunks_per_client: 512,
            chunk_size: 4096,
            passes: 3,
            batch: 64,
            batch_overhead: Duration::from_micros(120),
            service_delay: Duration::from_nanos(300),
            mixed_ingest_sessions: 2,
        }
    };
    banner(
        "Extension — restore at scale: two workers fetch, verify and place manifest batches",
        "batched store reads with fetch + verification spread over two workers restore \
         at storage speed, and the restore never touches the fingerprint index",
    );
    println!(
        "mode: {}, {} nodes, {} chunks × {} B per client, {} passes, batch {}, \
         {:?} per frame + {:?} per op\n",
        if quick { "quick (CI smoke)" } else { "full" },
        scenario.nodes,
        scenario.chunks_per_client,
        scenario.chunk_size,
        scenario.passes,
        scenario.batch,
        scenario.batch_overhead,
        scenario.service_delay,
    );

    let config = RestoreConfig::new(scenario.batch);
    let mut rows: Vec<String> = Vec::new();
    let mut results_json: Vec<String> = Vec::new();
    println!(
        "{:>22} {:>8} {:>7} {:>9} {:>11} {:>9}",
        "mode", "clients", "batch", "MB", "elapsed_ms", "MB/s"
    );
    let mut record = |mode: &str, clients: usize, cfg: RestoreConfig, m: &Measured| {
        println!(
            "{mode:>22} {clients:>8} {:>7} {:>9.1} {:>11.1} {:>9.1}",
            cfg.batch,
            m.total_bytes as f64 / 1e6,
            m.elapsed.as_secs_f64() * 1e3,
            m.mbps(),
        );
        rows.push(format!(
            "{mode},{clients},{},{},{:.3},{:.2}",
            cfg.batch,
            m.total_bytes,
            m.elapsed.as_secs_f64() * 1e3,
            m.mbps(),
        ));
        results_json.push(format!(
            "    {{\"mode\": \"{mode}\", \"clients\": {clients}, \"batch\": {}, \
             \"total_bytes\": {}, \"elapsed_ms\": {:.3}, \"mbps\": {:.2}}}",
            cfg.batch,
            m.total_bytes,
            m.elapsed.as_secs_f64() * 1e3,
            m.mbps(),
        ));
    };

    // 1. Client-count sweep on fresh clusters.
    for &clients in &scenario.client_counts {
        let spec = RestoreSpec::open_loop(clients, scenario.chunks_per_client)
            .with_chunk_size(scenario.chunk_size);
        let svc = spawn_service(&scenario);
        let (manifests, payloads) = setup_backups(&svc, &spec);
        let m = drive_restores(&svc, &manifests, &payloads, scenario.passes, config);
        record("pipelined", clients, config, &m);
        svc.cluster().clone().shutdown().expect("shutdown");
    }

    // 2. Mixed row: pipelined restores against live ingest sessions.
    {
        let clients = scenario.client_counts.last().copied().unwrap_or(1);
        let spec = RestoreSpec::open_loop(clients, scenario.chunks_per_client)
            .with_chunk_size(scenario.chunk_size);
        let svc = spawn_service(&scenario);
        let (manifests, payloads) = setup_backups(&svc, &spec);
        let stop = Arc::new(AtomicBool::new(false));
        let (restore_m, ingest_bytes, ingest_elapsed) = std::thread::scope(|scope| {
            let mut ingest_handles = Vec::new();
            for session in 0..scenario.mixed_ingest_sessions {
                let svc = svc.clone();
                let stop = Arc::clone(&stop);
                let ingest_spec = RestoreSpec::open_loop(1, scenario.chunks_per_client / 2)
                    .with_chunk_size(scenario.chunk_size)
                    .with_seed(0xB0B0 + session as u64);
                ingest_handles.push(scope.spawn(move || {
                    let start = Instant::now();
                    let mut bytes = 0u64;
                    let mut round = 0u32;
                    while !stop.load(Ordering::Relaxed) {
                        let data = ingest_spec
                            .clone()
                            .with_seed(0xB0B0 + session as u64 + u64::from(round) * 131)
                            .client_data(0);
                        svc.backup(StreamId::new(500 + session as u32 * 100 + round), &data)
                            .expect("mixed ingest backup");
                        bytes += data.len() as u64;
                        round += 1;
                    }
                    (bytes, start.elapsed())
                }));
            }
            let m = drive_restores(&svc, &manifests, &payloads, scenario.passes, config);
            stop.store(true, Ordering::Relaxed);
            let (bytes, elapsed) =
                ingest_handles
                    .into_iter()
                    .fold((0u64, Duration::ZERO), |(b, e), h| {
                        let (bytes, elapsed) = h.join().expect("ingester");
                        (b + bytes, e.max(elapsed))
                    });
            (m, bytes, elapsed)
        });
        record("mixed-restore", clients, config, &restore_m);
        let ingest_m = Measured {
            total_bytes: ingest_bytes,
            elapsed: ingest_elapsed,
        };
        record(
            "mixed-ingest",
            scenario.mixed_ingest_sessions,
            config,
            &ingest_m,
        );
        svc.cluster().clone().shutdown().expect("shutdown");
    }

    write_csv(
        if quick {
            "ext_restore_quick"
        } else {
            "ext_restore"
        },
        "mode,clients,batch,total_bytes,elapsed_ms,mbps",
        &rows,
    );
    if quick {
        println!("quick mode: skipping BENCH_restore.json (full-run record)");
        return;
    }
    write_bench_json(
        "restore",
        &format!(
            "{{\n  \"bench\": \"ext_restore\",\n  \"quick\": {quick},\n  \"nodes\": {},\n  \
             \"chunks_per_client\": {},\n  \"chunk_size\": {},\n  \"passes\": {},\n  \
             \"batch_overhead_us\": {},\n  \"service_delay_ns\": {},\n  \
             \"results\": [\n{}\n  ]\n}}\n",
            scenario.nodes,
            scenario.chunks_per_client,
            scenario.chunk_size,
            scenario.passes,
            scenario.batch_overhead.as_micros(),
            scenario.service_delay.as_nanos(),
            results_json.join(",\n")
        ),
    );
}
