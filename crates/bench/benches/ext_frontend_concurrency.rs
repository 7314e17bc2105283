//! Extension — cross-client aggregation vs per-client batching, in
//! wall-clock terms.
//!
//! The paper's Figure-4 flow has one web front-end aggregating the
//! fingerprints of many concurrent clients before querying the hash
//! nodes. This harness measures what that buys: K paced client threads
//! (open-loop style — a fixed think time between submissions, the
//! `MultiClientSpec` preset) replay disjoint trace shards against
//!
//! - `shared` — one [`SharedFrontend`]: submissions from every client
//!   join one batch queue and receive completion tickets; batches close
//!   on size, or on age via the background flusher,
//! - `per_client` — K private [`SharedFrontend`]s at the *same* size/age
//!   config, one per client: each client batches alone.
//!
//! Nodes charge a wall-clock `batch_overhead` per frame (the per-message
//! network/protocol cost batching exists to amortize) — so a front-end
//! that only ever fills `arrival_rate × max_age` of its batch pays that
//! overhead over fewer fingerprints. Expected shape: the shared front-end
//! fills full batches from the aggregate stream and sustains the offered
//! load at a p99 queueing delay within 2×`max_age`; per-client batching
//! saturates the nodes with small batches and falls behind. Emits
//! `results/ext_frontend_concurrency.csv` plus
//! `BENCH_frontend_concurrency.json` at the workspace root. Set
//! `SHHC_FRONTEND_QUICK=1` for a sub-second CI smoke run.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use shhc::{ClusterConfig, NodeConfig, SharedFrontend, ShhcCluster};
use shhc_bench::{banner, frontend_quick, write_bench_json, write_csv};
use shhc_net::SharedBatcherStats;
use shhc_workload::MultiClientSpec;

struct Scenario {
    nodes: u32,
    client_counts: Vec<usize>,
    batch_sizes: Vec<usize>,
    per_client: usize,
    max_age: Duration,
    arrival_gap: Duration,
    batch_overhead: Duration,
}

struct Measured {
    lookups: u64,
    elapsed: Duration,
    lookups_per_sec: f64,
    mean_occupancy: f64,
    p99_delay: Option<Duration>,
    closed_by_size: u64,
    closed_by_age: u64,
}

fn spawn_cluster(scenario: &Scenario) -> ShhcCluster {
    let mut node_config = NodeConfig::small_test();
    node_config.flash = shhc_flash::FlashConfig::medium_test();
    node_config.cache_capacity = 16_384;
    node_config.batch_overhead = scenario.batch_overhead;
    ShhcCluster::spawn(ClusterConfig::new(scenario.nodes, node_config)).expect("spawn cluster")
}

/// Merges per-front-end stats (per-client mode has K of them) into one
/// distribution for reporting.
fn merge_stats(all: &[SharedBatcherStats]) -> Measured {
    let mut merged = SharedBatcherStats::default();
    for s in all {
        merged.batches += s.batches;
        merged.fingerprints += s.fingerprints;
        merged.closed_by_size += s.closed_by_size;
        merged.closed_by_age += s.closed_by_age;
        merged.closed_by_flush += s.closed_by_flush;
        merged
            .delay_samples_ns
            .extend_from_slice(&s.delay_samples_ns);
    }
    Measured {
        lookups: 0,
        elapsed: Duration::ZERO,
        lookups_per_sec: 0.0,
        mean_occupancy: merged.mean_occupancy(),
        p99_delay: merged.delay_quantile(0.99),
        closed_by_size: merged.closed_by_size,
        closed_by_age: merged.closed_by_age,
    }
}

/// K client threads spread round-robin over `frontends` front-ends (1 =
/// all share one; K = one private front-end each); each paces its shard,
/// collects completion tickets, flushes its tail and waits for every
/// answer.
fn drive_shared(
    scenario: &Scenario,
    clients: usize,
    frontends: usize,
    batch_size: usize,
    shards: &[Vec<shhc_types::Fingerprint>],
) -> Measured {
    let cluster = spawn_cluster(scenario);
    let frontends: Vec<SharedFrontend> = (0..frontends)
        .map(|_| SharedFrontend::new(cluster.clone(), batch_size, scenario.max_age))
        .collect();
    let barrier = Arc::new(Barrier::new(clients + 1));
    let mut handles = Vec::new();
    for (c, shard) in shards.iter().take(clients).cloned().enumerate() {
        let fe = frontends[c % frontends.len()].clone();
        let barrier = Arc::clone(&barrier);
        let gap = scenario.arrival_gap;
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            let mut tickets = Vec::with_capacity(shard.len());
            for fp in shard {
                std::thread::sleep(gap);
                tickets.push(fe.submit(fp));
            }
            // Tail: don't leave the last partial batch to the age limit.
            fe.flush().expect("flush");
            let mut answered = 0u64;
            for t in tickets {
                t.wait().expect("ticket answer");
                answered += 1;
            }
            answered
        }));
    }
    barrier.wait();
    let start = Instant::now();
    let lookups: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let elapsed = start.elapsed();
    let stats: Vec<SharedBatcherStats> = frontends.iter().map(SharedFrontend::stats).collect();
    let mut m = merge_stats(&stats);
    cluster.shutdown().expect("shutdown");
    m.lookups = lookups;
    m.elapsed = elapsed;
    m.lookups_per_sec = lookups as f64 / elapsed.as_secs_f64();
    m
}

fn main() {
    let quick = frontend_quick();
    let scenario = if quick {
        Scenario {
            nodes: 2,
            client_counts: vec![2],
            batch_sizes: vec![16],
            per_client: 120,
            max_age: Duration::from_millis(2),
            arrival_gap: Duration::from_micros(50),
            batch_overhead: Duration::from_micros(200),
        }
    } else {
        Scenario {
            nodes: 2,
            client_counts: vec![2, 4, 8],
            batch_sizes: vec![16, 64],
            per_client: 2000,
            max_age: Duration::from_millis(4),
            arrival_gap: Duration::from_micros(250),
            batch_overhead: Duration::from_millis(1),
        }
    };
    banner(
        "Extension — shared front-end: cross-client aggregation vs per-client batching",
        "aggregating many clients' fingerprints at one front-end amortizes per-message \
         cost, sustaining higher lookup throughput at bounded queueing delay (Figure-4 flow)",
    );
    println!(
        "mode: {}, {} nodes, {} fps/client, think {} µs/fp, max_age {} ms, \
         {} µs per-frame node overhead\n",
        if quick { "quick (CI smoke)" } else { "full" },
        scenario.nodes,
        scenario.per_client,
        scenario.arrival_gap.as_micros(),
        scenario.max_age.as_millis(),
        scenario.batch_overhead.as_micros(),
    );

    println!(
        "{:>8} {:>6} {:>12} {:>12} {:>9} {:>11} {:>11}   (lookups/second)",
        "clients", "batch", "per_client", "shared", "speedup", "sh.occup", "sh.p99_ms"
    );
    let mut rows = Vec::new();
    let mut summary = Vec::new();
    let max_clients = *scenario.client_counts.iter().max().unwrap();
    for &batch_size in &scenario.batch_sizes {
        for &clients in &scenario.client_counts {
            let spec = MultiClientSpec::open_loop(max_clients, scenario.per_client);
            let shards = spec.shards();
            let per = drive_shared(&scenario, clients, clients, batch_size, &shards);
            let shared = drive_shared(&scenario, clients, 1, batch_size, &shards);
            let speedup = shared.lookups_per_sec / per.lookups_per_sec;
            let p99 = shared.p99_delay.unwrap_or_default();
            println!(
                "{clients:>8} {batch_size:>6} {:>12.0} {:>12.0} {speedup:>8.2}x {:>11.1} {:>11.2}",
                per.lookups_per_sec,
                shared.lookups_per_sec,
                shared.mean_occupancy,
                p99.as_secs_f64() * 1e3,
            );
            for (name, m) in [("per_client", &per), ("shared", &shared)] {
                rows.push(format!(
                    "{clients},{batch_size},{name},{},{:.3},{:.0},{:.2},{:.1},{},{}",
                    m.lookups,
                    m.elapsed.as_secs_f64() * 1e3,
                    m.lookups_per_sec,
                    m.mean_occupancy,
                    m.p99_delay.unwrap_or_default().as_secs_f64() * 1e6,
                    m.closed_by_size,
                    m.closed_by_age,
                ));
            }
            summary.push((clients, batch_size, per, shared, speedup));
        }
    }

    println!("\nchecks:");
    let acceptance = summary
        .iter()
        .filter(|(c, ..)| *c == max_clients)
        .max_by_key(|(_, b, ..)| *b);
    if let Some((clients, batch, _, shared, speedup)) = acceptance {
        let p99 = shared.p99_delay.unwrap_or_default();
        println!(
            "  shared vs {clients} per-client front-ends at batch {batch}: \
             {speedup:.2}x (target: ≥ 1.5x)"
        );
        println!(
            "  shared p99 queueing delay: {:.2} ms (bound: ≤ 2×max_age = {:.2} ms)",
            p99.as_secs_f64() * 1e3,
            scenario.max_age.as_secs_f64() * 2e3
        );
    }

    // Quick (smoke) runs write under a distinct name so they can never
    // clobber the committed full-run artifacts.
    write_csv(
        if quick {
            "ext_frontend_concurrency_quick"
        } else {
            "ext_frontend_concurrency"
        },
        "clients,batch_size,mode,total_lookups,elapsed_ms,lookups_per_sec,\
         mean_batch_occupancy,p99_queue_delay_us,closed_by_size,closed_by_age",
        &rows,
    );
    if quick {
        println!("quick mode: skipping BENCH_frontend_concurrency.json (full-run record)");
        return;
    }
    let entries: Vec<String> = summary
        .iter()
        .map(|(clients, batch, per, shared, speedup)| {
            format!(
                "    {{\"clients\": {clients}, \"batch_size\": {batch}, \
                 \"per_client_lookups_per_sec\": {:.0}, \
                 \"shared_lookups_per_sec\": {:.0}, \"speedup\": {speedup:.3}, \
                 \"shared_mean_occupancy\": {:.2}, \
                 \"shared_p99_queue_delay_us\": {:.1}}}",
                per.lookups_per_sec,
                shared.lookups_per_sec,
                shared.mean_occupancy,
                shared.p99_delay.unwrap_or_default().as_secs_f64() * 1e6,
            )
        })
        .collect();
    write_bench_json(
        "frontend_concurrency",
        &format!(
            "{{\n  \"bench\": \"ext_frontend_concurrency\",\n  \"quick\": {quick},\n  \
             \"nodes\": {},\n  \"per_client_fingerprints\": {},\n  \
             \"arrival_gap_us\": {},\n  \"max_age_us\": {},\n  \
             \"batch_overhead_us\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
            scenario.nodes,
            scenario.per_client,
            scenario.arrival_gap.as_micros(),
            scenario.max_age.as_micros(),
            scenario.batch_overhead.as_micros(),
            entries.join(",\n")
        ),
    );
}
