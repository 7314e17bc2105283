//! Extension — WAL crash recovery and replica re-sync.
//!
//! The paper treats node state as volatile; this harness measures the
//! cost of making it durable. Two sweeps over WAL-backed clusters:
//!
//! 1. **Replay time vs store size** — a single-node cluster (no replica
//!    to lean on) is loaded with N acked fingerprints, killed dirty
//!    (kill -9 semantics: the store is dropped unclosed, torn-tail
//!    faults armed), then warm-restarted. We record the recovery
//!    wall-clock, the journal/segment records replayed, and the torn
//!    tail records truncated — and assert every acked entry came back.
//! 2. **Re-sync traffic vs entries-behind** — a replicated pair takes a
//!    base load, one replica is killed, D more entries are acked by the
//!    survivor, and the victim warm-restarts: local replay catches it up
//!    to the crash point, then delta re-sync pulls what it missed. We
//!    record resynced entries and chunk round-trips against D; the
//!    headline check is `resynced ≤ D` — re-sync traffic is bounded by
//!    the missed delta, never a full copy.
//!
//! Writes `results/ext_recovery.csv` (one row per trial, both sweeps)
//! and `BENCH_recovery.json`. Set `SHHC_RECOVERY_QUICK=1` for a CI
//! smoke run (tiny sizes, no JSON).

use std::time::Instant;

use shhc::{
    ClusterConfig, Durability, FaultPlan, Fingerprint, NodeConfig, NodeId, RecoveryReport,
    ShhcCluster, WalConfig,
};
use shhc_bench::{banner, recovery_quick, write_bench_json, write_csv};
use shhc_flash::{FlashConfig, FlashGeometry};

/// A roomy device: recovery replay transiently doubles the live footprint
/// (segment images plus re-applied journal records before compaction), so
/// the largest sweep points need ~4x headroom over the resident set.
fn roomy_flash() -> FlashConfig {
    FlashConfig {
        geometry: FlashGeometry::new(4096, 16, 512),
        buckets: 512,
        ..FlashConfig::medium_test()
    }
}

fn fps(range: std::ops::Range<u64>) -> Vec<Fingerprint> {
    range
        .map(|i| Fingerprint::from_u64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31)))
        .collect()
}

fn bench_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("shhc-bench-recovery-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn load(cluster: &ShhcCluster, batch: &[Fingerprint]) {
    for window in batch.chunks(2_048) {
        cluster.lookup_insert_batch(window).expect("load");
    }
}

/// One replay trial: load `size` entries, crash dirty, warm-restart.
struct ReplayTrial {
    size: u64,
    report: RecoveryReport,
    restart_ms: f64,
}

fn replay_trial(size: u64, torn: bool) -> ReplayTrial {
    let dir = bench_dir(&format!("replay-{size}"));
    let wal = if torn {
        Durability::Wal(WalConfig::new(&dir).with_fault(FaultPlan::torn_tails()))
    } else {
        Durability::wal(&dir)
    };
    let mut node_config = NodeConfig::small_test().with_durability(wal);
    node_config.flash = roomy_flash();
    let cluster = ShhcCluster::spawn(ClusterConfig::new(1, node_config)).expect("spawn");
    load(&cluster, &fps(0..size));

    cluster.kill_node(NodeId::new(0)).expect("kill");
    let t0 = Instant::now();
    let report = cluster.restart_node(NodeId::new(0)).expect("warm restart");
    let restart_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        report.recovered_entries, size,
        "replay must rebuild every acked entry"
    );

    cluster.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
    ReplayTrial {
        size,
        report,
        restart_ms,
    }
}

/// One re-sync trial: replicated pair, victim misses `delta` entries.
struct ResyncTrial {
    base: u64,
    delta: u64,
    report: RecoveryReport,
}

fn resync_trial(base: u64, delta: u64) -> ResyncTrial {
    let dir = bench_dir(&format!("resync-{delta}"));
    let mut node_config = NodeConfig::small_test().with_durability(Durability::wal(&dir));
    node_config.flash = roomy_flash();
    let cluster = ShhcCluster::spawn(
        ClusterConfig::new(2, node_config)
            .with_replication(2)
            .with_migration_chunk(256),
    )
    .expect("spawn");
    load(&cluster, &fps(0..base));

    let victim = NodeId::new(0);
    cluster.kill_node(victim).expect("kill");
    load(&cluster, &fps(base..base + delta)); // acked by the survivor only
    let report = cluster.restart_node(victim).expect("warm restart");
    assert!(
        report.resynced <= delta,
        "re-sync traffic ({}) exceeded the missed delta ({delta})",
        report.resynced
    );

    cluster.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
    ResyncTrial {
        base,
        delta,
        report,
    }
}

fn main() {
    let quick = recovery_quick();
    banner(
        "Extension — WAL crash recovery: replay time and re-sync traffic",
        "acked implies durable: warm restart replays the local journal, then \
         pulls only the missed delta from replica peers",
    );
    let (sizes, base, deltas): (Vec<u64>, u64, Vec<u64>) = if quick {
        (vec![500, 1_000], 1_000, vec![100, 250])
    } else {
        (
            vec![5_000, 10_000, 25_000, 50_000, 75_000],
            40_000,
            vec![500, 1_000, 2_500, 5_000, 10_000, 20_000],
        )
    };
    println!(
        "mode: {}\n",
        if quick { "quick (CI smoke)" } else { "full" }
    );

    // Sweep 1: replay time vs store size (torn tails armed throughout —
    // every crash also exercises the truncation path).
    println!(
        "{:>9} {:>12} {:>10} {:>6} {:>12} {:>14}",
        "entries", "replayed", "torn", "sync", "restart_ms", "entries/sec"
    );
    let mut rows = Vec::new();
    let mut replays = Vec::new();
    for &size in &sizes {
        let t = replay_trial(size, true);
        let rate = t.size as f64 / (t.restart_ms / 1e3).max(1e-9);
        println!(
            "{:>9} {:>12} {:>10} {:>6} {:>12.1} {:>14.0}",
            t.size, t.report.replayed, t.report.torn, t.report.resynced, t.restart_ms, rate
        );
        rows.push(format!(
            "replay,{},{},{},{},{},{:.2},{:.0}",
            t.size,
            t.report.recovered_entries,
            t.report.replayed,
            t.report.torn,
            t.report.resynced,
            t.restart_ms,
            rate
        ));
        replays.push(t);
    }

    // Sweep 2: re-sync traffic vs entries-behind (fixed base load).
    println!(
        "\n{:>9} {:>9} {:>10} {:>8} {:>12}",
        "behind", "resynced", "chunks", "ratio", "restart_ms"
    );
    let mut resyncs = Vec::new();
    for &delta in &deltas {
        let t = resync_trial(base, delta);
        let ratio = t.report.resynced as f64 / t.delta.max(1) as f64;
        let ms = t.report.wall_clock.as_secs_f64() * 1e3;
        println!(
            "{:>9} {:>9} {:>10} {:>8.2} {:>12.1}",
            t.delta, t.report.resynced, t.report.chunks, ratio, ms
        );
        rows.push(format!(
            "resync,{},{},{},{},{},{:.2},{:.2}",
            t.delta,
            t.report.recovered_entries,
            t.report.replayed,
            t.report.resynced,
            t.report.chunks,
            ms,
            ratio
        ));
        resyncs.push(t);
    }
    write_csv(
        if quick {
            "ext_recovery_quick"
        } else {
            "ext_recovery"
        },
        "sweep,param,recovered_entries,replayed,torn_or_resynced,resynced_or_chunks,\
         wall_clock_ms,rate_or_ratio",
        &rows,
    );
    if quick {
        println!("quick mode: skipping BENCH_recovery.json (full-run record)");
        return;
    }

    let replay_json: Vec<String> = replays
        .iter()
        .map(|t| {
            format!(
                "{{\"entries\": {}, \"replayed\": {}, \"torn\": {}, \
                 \"restart_ms\": {:.2}, \"entries_per_sec\": {:.0}}}",
                t.size,
                t.report.replayed,
                t.report.torn,
                t.restart_ms,
                t.size as f64 / (t.restart_ms / 1e3).max(1e-9)
            )
        })
        .collect();
    let resync_json: Vec<String> = resyncs
        .iter()
        .map(|t| {
            format!(
                "{{\"base\": {}, \"behind\": {}, \"resynced\": {}, \"chunks\": {}, \
                 \"restart_ms\": {:.2}}}",
                t.base,
                t.delta,
                t.report.resynced,
                t.report.chunks,
                t.report.wall_clock.as_secs_f64() * 1e3
            )
        })
        .collect();
    let bounded = resyncs.iter().all(|t| t.report.resynced <= t.delta);
    let torn_exercised = replays.iter().all(|t| t.report.torn >= 1);
    write_bench_json(
        "recovery",
        &format!(
            "{{\n  \"bench\": \"ext_recovery\",\n  \"quick\": {quick},\n  \
             \"replay\": [\n    {}\n  ],\n  \"resync\": [\n    {}\n  ],\n  \
             \"resync_bounded_by_delta\": {bounded},\n  \
             \"torn_tails_exercised\": {torn_exercised}\n}}\n",
            replay_json.join(",\n    "),
            resync_json.join(",\n    ")
        ),
    );
}
