//! Extension — elastic membership under live traffic.
//!
//! The paper names dynamic resource scaling as future work; this harness
//! measures it. A paced multi-client fingerprint load (K threads, each
//! replaying fresh workload rounds through `lookup_insert_batch`) runs
//! continuously while the cluster, mid-run:
//!
//! 1. **joins** a node (`add_node`: install-first epoch swap, dual-read,
//!    chunked re-home passes), then
//! 2. **drains** one of the original nodes (`drain_node`: the same
//!    re-home passes, verify empty by scan, decommission).
//!
//! A sampler thread bins completed lookups into a throughput timeline
//! (`results/ext_elastic_scaling.csv`, one row per bin with its phase),
//! and the summary (`BENCH_elastic_scaling.json`) reports sustained
//! throughput during each membership change against the steady state
//! around it, the two `RebalanceReport`s (moved entries, chunk count,
//! wall-clock), and the drained node's final scan count. The headline
//! checks: throughput during join and drain stays ≥ 0.5× the preceding
//! steady state, recovers after, and the drain leaves zero entries
//! behind. Set `SHHC_ELASTIC_QUICK=1` for a few-second CI smoke run.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use shhc::{ClusterConfig, NodeConfig, RebalanceReport, ShhcCluster};
use shhc_bench::{banner, elastic_quick, write_bench_json, write_csv};
use shhc_flash::FlashConfig;
use shhc_types::NodeId;
use shhc_workload::MultiClientSpec;

struct Scenario {
    clients: usize,
    /// Fingerprints per workload round per client.
    round_size: usize,
    /// Fingerprints per submitted batch.
    batch: usize,
    /// Pacing gap between a client's batches.
    gap: Duration,
    /// Simulated per-fingerprint device latency (wall-clock).
    service_delay: Duration,
    /// Resident fingerprints preloaded before the run.
    preload: usize,
    /// Steady-state window between membership events.
    steady: Duration,
    /// Timeline bin width.
    bin: Duration,
    migration_chunk: usize,
}

impl Scenario {
    fn new(quick: bool) -> Self {
        if quick {
            Scenario {
                clients: 3,
                round_size: 1_024,
                batch: 128,
                gap: Duration::from_millis(20),
                service_delay: Duration::from_micros(120),
                preload: 4_000,
                steady: Duration::from_millis(250),
                bin: Duration::from_millis(25),
                migration_chunk: 128,
            }
        } else {
            Scenario {
                clients: 8,
                round_size: 4_096,
                batch: 128,
                gap: Duration::from_millis(30),
                service_delay: Duration::from_micros(80),
                preload: 32_000,
                steady: Duration::from_millis(900),
                bin: Duration::from_millis(50),
                migration_chunk: 128,
            }
        }
    }
}

/// One membership event on the measured timeline, in ms since start.
struct Event {
    start_ms: f64,
    end_ms: f64,
    report: RebalanceReport,
}

fn mean_rate(samples: &[(f64, u64)], from_ms: f64, to_ms: f64) -> f64 {
    // Cumulative counts: rate over a window is the count delta across it.
    let at = |t: f64| -> u64 {
        samples
            .iter()
            .take_while(|(ms, _)| *ms <= t)
            .last()
            .map(|(_, c)| *c)
            .unwrap_or(0)
    };
    let span_s = (to_ms - from_ms).max(1.0) / 1e3;
    (at(to_ms).saturating_sub(at(from_ms))) as f64 / span_s
}

fn main() {
    let quick = elastic_quick();
    let s = Scenario::new(quick);
    banner(
        "Extension — elastic membership: join and drain under live traffic",
        "epoch-versioned ring: install-first swap, dual-read, chunked online \
         migration; throughput sustained through membership changes",
    );
    println!(
        "mode: {}, {} clients x {}-fp batches ({} µs gap), {} µs device \
         latency, {} preloaded fingerprints\n",
        if quick { "quick (CI smoke)" } else { "full" },
        s.clients,
        s.batch,
        s.gap.as_micros(),
        s.service_delay.as_micros(),
        s.preload
    );

    let mut node_config = NodeConfig::small_test();
    node_config.flash = FlashConfig::medium_test();
    node_config.cache_capacity = 16_384;
    node_config.service_delay = s.service_delay;
    let cluster = ShhcCluster::spawn(
        ClusterConfig::new(3, node_config).with_migration_chunk(s.migration_chunk),
    )
    .expect("spawn cluster");

    // Resident population: what the membership changes must migrate.
    let preload: Vec<_> = (0..s.preload as u64)
        .map(|i| {
            shhc_types::Fingerprint::from_u64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31))
        })
        .collect();
    for window in preload.chunks(2_048) {
        cluster.lookup_insert_batch(window).expect("preload");
    }

    // Paced multi-client load: each client walks fresh workload rounds.
    let spec = MultiClientSpec::open_loop(s.clients, s.round_size)
        .with_redundancy(0.5)
        .with_seed(0xE1A5_71C5);
    let stop = Arc::new(AtomicBool::new(false));
    let completed = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let mut clients = Vec::new();
    for c in 0..s.clients {
        let cluster = cluster.clone();
        let spec = spec.clone();
        let stop = Arc::clone(&stop);
        let completed = Arc::clone(&completed);
        let batch = s.batch;
        let gap = s.gap;
        clients.push(std::thread::spawn(move || {
            let mut round = 0u64;
            'run: loop {
                let shard = spec.round_shard(c, round);
                round += 1;
                for window in shard.chunks(batch) {
                    if stop.load(Ordering::Relaxed) {
                        break 'run;
                    }
                    cluster.lookup_insert_batch(window).expect("lookup");
                    completed.fetch_add(window.len() as u64, Ordering::Relaxed);
                    std::thread::sleep(gap);
                }
            }
        }));
    }

    // Sampler: cumulative completed lookups per bin.
    let sampler = {
        let stop = Arc::clone(&stop);
        let completed = Arc::clone(&completed);
        let bin = s.bin;
        std::thread::spawn(move || {
            let mut samples: Vec<(f64, u64)> = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(bin);
                samples.push((
                    start.elapsed().as_secs_f64() * 1e3,
                    completed.load(Ordering::Relaxed),
                ));
            }
            samples
        })
    };

    // The membership schedule, with steady windows around each event.
    let mut events = Vec::new();
    std::thread::sleep(s.steady);
    {
        let t0 = start.elapsed().as_secs_f64() * 1e3;
        let (id, report) = cluster.add_node().expect("join");
        let t1 = start.elapsed().as_secs_f64() * 1e3;
        println!(
            "join   +{id}: moved {} entries in {} chunks over {:.0} ms",
            report.moved,
            report.chunks,
            report.wall_clock.as_secs_f64() * 1e3
        );
        events.push(Event {
            start_ms: t0,
            end_ms: t1,
            report,
        });
    }
    std::thread::sleep(s.steady);
    {
        let victim = NodeId::new(1);
        let t0 = start.elapsed().as_secs_f64() * 1e3;
        let report = cluster.drain_node(victim).expect("drain");
        let t1 = start.elapsed().as_secs_f64() * 1e3;
        println!(
            "drain  -{victim}: moved {} entries in {} chunks over {:.0} ms \
             (final scan: {} entries)",
            report.moved,
            report.chunks,
            report.wall_clock.as_secs_f64() * 1e3,
            report.post_scan_entries
        );
        events.push(Event {
            start_ms: t0,
            end_ms: t1,
            report,
        });
    }
    std::thread::sleep(s.steady);
    stop.store(true, Ordering::Relaxed);
    for client in clients {
        client.join().expect("client thread");
    }
    let samples = sampler.join().expect("sampler thread");
    let end_ms = start.elapsed().as_secs_f64() * 1e3;

    // Phase windows: steady slices between events (first quarter of the
    // initial window dropped as warmup).
    let join = &events[0];
    let drain = &events[1];
    let steady_before = mean_rate(&samples, join.start_ms * 0.25, join.start_ms);
    let during_join = mean_rate(&samples, join.start_ms, join.end_ms);
    let between = mean_rate(&samples, join.end_ms, drain.start_ms);
    let during_drain = mean_rate(&samples, drain.start_ms, drain.end_ms);
    let after = mean_rate(&samples, drain.end_ms, end_ms);
    let join_ratio = during_join / steady_before.max(1.0);
    let drain_ratio = during_drain / between.max(1.0);
    let recovery = after / steady_before.max(1.0);

    println!(
        "\n{:>12} {:>14}   (sustained lookups/second)",
        "phase", "rate"
    );
    for (name, rate) in [
        ("steady", steady_before),
        ("join", during_join),
        ("steady", between),
        ("drain", during_drain),
        ("steady", after),
    ] {
        println!("{name:>12} {rate:>14.0}");
    }
    println!("\nchecks:");
    println!("  during join:  {join_ratio:.2}x of preceding steady (target ≥ 0.5x)");
    println!("  during drain: {drain_ratio:.2}x of preceding steady (target ≥ 0.5x)");
    println!("  recovery:     {recovery:.2}x of initial steady (target ≥ 0.8x)");
    println!(
        "  drained node final scan: {} entries (target 0)",
        drain.report.post_scan_entries
    );

    // Timeline CSV: per-bin rate plus the phase the bin falls in.
    let phase_of = |ms: f64| -> &'static str {
        if ms < join.start_ms {
            "steady_before"
        } else if ms < join.end_ms {
            "join"
        } else if ms < drain.start_ms {
            "steady_between"
        } else if ms < drain.end_ms {
            "drain"
        } else {
            "steady_after"
        }
    };
    let mut rows = Vec::with_capacity(samples.len());
    let mut prev = (0.0f64, 0u64);
    for &(ms, count) in &samples {
        let rate = (count - prev.1) as f64 / ((ms - prev.0).max(1.0) / 1e3);
        rows.push(format!("{ms:.0},{rate:.0},{}", phase_of(ms)));
        prev = (ms, count);
    }
    write_csv(
        if quick {
            "ext_elastic_scaling_quick"
        } else {
            "ext_elastic_scaling"
        },
        "elapsed_ms,lookups_per_sec,phase",
        &rows,
    );
    if quick {
        println!("quick mode: skipping BENCH_elastic_scaling.json (full-run record)");
        return;
    }

    let report_json = |e: &Event| {
        format!(
            "{{\"moved\": {}, \"scanned\": {}, \"chunks\": {}, \
             \"wall_clock_ms\": {:.1}, \"from_epoch\": {}, \"to_epoch\": {}, \
             \"post_scan_entries\": {}}}",
            e.report.moved,
            e.report.scanned,
            e.report.chunks,
            e.report.wall_clock.as_secs_f64() * 1e3,
            e.report.from_epoch,
            e.report.to_epoch,
            e.report.post_scan_entries
        )
    };
    write_bench_json(
        "elastic_scaling",
        &format!(
            "{{\n  \"bench\": \"ext_elastic_scaling\",\n  \"quick\": {quick},\n  \
             \"clients\": {},\n  \"batch_size\": {},\n  \"service_delay_us\": {},\n  \
             \"preload\": {},\n  \"rates\": {{\n    \"steady_before\": {steady_before:.0},\n    \
             \"during_join\": {during_join:.0},\n    \"steady_between\": {between:.0},\n    \
             \"during_drain\": {during_drain:.0},\n    \"steady_after\": {after:.0}\n  }},\n  \
             \"join_ratio\": {join_ratio:.3},\n  \"drain_ratio\": {drain_ratio:.3},\n  \
             \"recovery_ratio\": {recovery:.3},\n  \
             \"join_report\": {},\n  \"drain_report\": {},\n  \
             \"drained_node_entries\": {},\n  \
             \"sustained_during_join\": {},\n  \"sustained_during_drain\": {},\n  \
             \"recovered_after\": {},\n  \"drain_verified_empty\": {}\n}}\n",
            s.clients,
            s.batch,
            s.service_delay.as_micros(),
            s.preload,
            report_json(join),
            report_json(drain),
            drain.report.post_scan_entries,
            join_ratio >= 0.5,
            drain_ratio >= 0.5,
            recovery >= 0.8,
            drain.report.post_scan_entries == 0,
        ),
    );
}
