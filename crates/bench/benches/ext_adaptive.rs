//! Extension — self-tuning under skew: static configs vs the closed loop.
//!
//! The paper tunes SHHC for uniform SHA-1 traffic, and every knob it
//! fixes — batch close limits, the uniform shard split, equal per-shard
//! caches — is only right for that easy case. This harness drives one
//! four-shard node (true per-fingerprint device sleeps plus a per-frame
//! overhead, as in `ext_node_parallelism`) through three traces:
//!
//! - `uniform` — the paper's assumption (Zipf s = 0),
//! - `zipf_clustered` — a stationary Zipf(1.1) head landing on a
//!   contiguous ring prefix, i.e. one hot shard,
//! - `phase_shift` — the same skew whose hot set rotates mid-trace,
//!
//! and compares a grid of hand-tuned *static* front-end size limits
//! against the *adaptive* stack: a size limit nobody tuned (larger than
//! any wave, so every batch ends by demand close — when its client
//! blocks) plus a [`ShhcCluster::autotune`] pass between waves (hot-range
//! re-split + cache autosizing). The claim under test: that stack matches
//! the best static configuration on every trace without hand-tuning —
//! ≥ 0.95× best static on uniform, no worse than it on the skewed traces
//! (in practice it *beats* every static config there, because no static
//! batch size can fix a hot shard). Autotune passes are charged to the
//! adaptive run's clock. Until PR 16 the adaptive stack also carried an
//! AIMD `BatchTuner` probing for the size limit (0.75× best static on
//! uniform — the price of probing); its last numbers are archived in
//! `results/baselines/`.
//!
//! Emits `results/ext_adaptive.csv` plus `BENCH_adaptive.json` at the
//! workspace root. Set `SHHC_ADAPTIVE_QUICK=1` for a CI smoke run
//! (writes `ext_adaptive_quick.csv`, no JSON).

use std::time::{Duration, Instant};

use shhc::{
    AutotuneOptions, ClusterConfig, Durability, NodeConfig, SharedFrontend, ShhcCluster,
    SizerConfig,
};
use shhc_bench::{adaptive_quick, banner, write_bench_json, write_csv};
use shhc_flash::FlashConfig;
use shhc_types::Fingerprint;
use shhc_workload::{KeyMapping, SkewSpec};

const SHARDS: u32 = 4;
const MAX_AGE: Duration = Duration::from_millis(5);
const DEFAULT_BATCH: usize = 16;
/// The adaptive stack's size limit: a cap nobody tuned, larger than any
/// wave. Its batches end when their client blocks, not when they fill.
const GENEROUS_BATCH: usize = 512;

fn node_config(service_delay: Duration, frame_overhead: Duration) -> NodeConfig {
    let mut config = NodeConfig::small_test()
        .with_shards(SHARDS)
        .with_durability(Durability::Volatile);
    config.flash = FlashConfig::medium_test();
    config.cache_capacity = 4096;
    config.service_delay = service_delay;
    config.batch_overhead = frame_overhead;
    config
}

/// The three traces, sharing one seed so reruns are reproducible.
fn traces(ops: usize, keyspace: u64, seed: u64) -> Vec<SkewSpec> {
    vec![
        SkewSpec {
            name: "uniform",
            ops,
            keyspace,
            exponent: 0.0,
            mapping: KeyMapping::Clustered,
            phase_len: 0,
            seed,
        },
        SkewSpec::zipf_clustered(ops, keyspace, 1.1, seed),
        SkewSpec::phase_shifting(ops, keyspace, 1.1, ops / 3, seed),
    ]
}

struct Measured {
    lookups_per_sec: f64,
    elapsed: Duration,
    resplits: u64,
    moved: u64,
}

/// Drives the trace through `fe` in waves; the adaptive variant runs one
/// cluster-wide autotune pass between waves (inside the timed region —
/// the controller pays for its own scans).
fn drive(
    fe: &SharedFrontend,
    trace: &[Fingerprint],
    wave: usize,
    autotune: Option<AutotuneOptions>,
) -> Measured {
    let cluster = fe.cluster().clone();
    let mut resplits = 0u64;
    let mut moved = 0u64;
    let start = Instant::now();
    for (k, chunk) in trace.chunks(wave).enumerate() {
        // No flush: the first wait ships whatever the size limit left
        // open (demand close).
        let tickets: Vec<_> = chunk.iter().map(|&fp| fe.submit(fp)).collect();
        for t in tickets {
            t.wait().expect("answer");
        }
        // Tune every other wave: the drain-and-scan pass is cheap but
        // not free, and the load signal needs a wave or two to firm up.
        if k % 2 == 0 {
            continue;
        }
        if let Some(opts) = autotune {
            for report in cluster.autotune(opts).expect("autotune") {
                resplits += u64::from(report.resplit);
                moved += report.moved_entries;
            }
        }
    }
    let elapsed = start.elapsed();
    Measured {
        lookups_per_sec: trace.len() as f64 / elapsed.as_secs_f64(),
        elapsed,
        resplits,
        moved,
    }
}

fn run_static(config: &NodeConfig, trace: &[Fingerprint], wave: usize, batch: usize) -> Measured {
    let cluster = ShhcCluster::spawn(ClusterConfig::new(1, config.clone())).expect("spawn");
    let fe = SharedFrontend::new(cluster.clone(), batch, MAX_AGE);
    let m = drive(&fe, trace, wave, None);
    cluster.shutdown().expect("shutdown");
    m
}

fn run_adaptive(config: &NodeConfig, trace: &[Fingerprint], wave: usize) -> Measured {
    let cluster = ShhcCluster::spawn(ClusterConfig::new(1, config.clone())).expect("spawn");
    let fe = SharedFrontend::new(cluster.clone(), GENEROUS_BATCH, MAX_AGE);
    let opts = AutotuneOptions {
        imbalance_threshold: 1.3,
        resplit: true,
        autosize_caches: true,
        // Per-shard caches are 4096 / 4 = 1024 entries.
        sizer: SizerConfig {
            min_capacity: 64,
            step: 128,
            hysteresis: 2.0,
        },
    };
    let m = drive(&fe, trace, wave, Some(opts));
    cluster.shutdown().expect("shutdown");
    m
}

fn main() {
    let quick = adaptive_quick();
    let (ops, keyspace, wave, grid, service_delay, frame_overhead) = if quick {
        (
            900usize,
            600u64,
            150usize,
            vec![4usize, 64],
            Duration::from_micros(20),
            Duration::from_micros(100),
        )
    } else {
        (
            9_000usize,
            3_000u64,
            250usize,
            vec![4usize, 16, 64, 256],
            Duration::from_micros(20),
            Duration::from_micros(150),
        )
    };
    banner(
        "Extension — self-tuning under skew: demand close + autotune vs static configs",
        "batches that end when their client blocks, plus hot-range re-split and cache \
         autosizing, match hand-tuned static size limits on uniform traffic and beat them \
         under Zipf skew, where no static batch size can fix a hot shard",
    );
    let config = node_config(service_delay, frame_overhead);
    println!(
        "mode: {}, 1 node x {SHARDS} shards, {ops} ops/trace over {keyspace} keys, \
         waves of {wave}, {} µs/fingerprint + {} µs/frame simulated device time\n",
        if quick { "quick (CI smoke)" } else { "full" },
        service_delay.as_micros(),
        frame_overhead.as_micros()
    );

    let mut rows = Vec::new();
    let mut summary = Vec::new();
    for spec in traces(ops, keyspace, 42) {
        let trace = spec.fingerprints();
        println!("trace {:>14}:", spec.name);
        let mut best_static = f64::MIN;
        let mut default_static = 0.0f64;
        for &batch in &grid {
            let m = run_static(&config, &trace, wave, batch);
            println!(
                "  static batch {batch:>4}: {:>9.0} lookups/s",
                m.lookups_per_sec
            );
            if batch == DEFAULT_BATCH || (quick && batch == grid[0]) {
                default_static = m.lookups_per_sec;
            }
            best_static = best_static.max(m.lookups_per_sec);
            rows.push(format!(
                "{},static,{batch},{ops},{:.3},{:.0},0,0",
                spec.name,
                m.elapsed.as_secs_f64() * 1e3,
                m.lookups_per_sec
            ));
        }
        let m = run_adaptive(&config, &trace, wave);
        println!(
            "  adaptive        : {:>9.0} lookups/s  ({} re-splits, {} entries re-homed, \
             size limit {})",
            m.lookups_per_sec, m.resplits, m.moved, GENEROUS_BATCH
        );
        rows.push(format!(
            "{},adaptive,{GENEROUS_BATCH},{ops},{:.3},{:.0},{},{}",
            spec.name,
            m.elapsed.as_secs_f64() * 1e3,
            m.lookups_per_sec,
            m.resplits,
            m.moved
        ));
        summary.push((
            spec.name,
            m.lookups_per_sec,
            best_static,
            default_static,
            m.resplits,
            m.moved,
        ));
    }

    println!("\nchecks:");
    for &(name, adaptive, best, default, _, _) in &summary {
        let vs_best = adaptive / best;
        let vs_default = adaptive / default;
        if name == "uniform" {
            println!(
                "  {name:>14}: adaptive/best-static = {vs_best:.2}x (target ≥ 0.95x), \
                 adaptive/default = {vs_default:.2}x"
            );
        } else {
            println!("  {name:>14}: adaptive/best-static = {vs_best:.2}x (target ≥ 1.0x)");
        }
    }

    write_csv(
        if quick {
            "ext_adaptive_quick"
        } else {
            "ext_adaptive"
        },
        "trace,variant,batch_size,ops,elapsed_ms,lookups_per_sec,resplits,moved_entries",
        &rows,
    );
    if quick {
        println!("quick mode: skipping BENCH_adaptive.json (full-run record)");
        return;
    }
    let entries: Vec<String> = summary
        .iter()
        .map(|(name, adaptive, best, default, resplits, moved)| {
            format!(
                "    {{\"trace\": \"{name}\", \"adaptive_lookups_per_sec\": {adaptive:.0}, \
                 \"best_static_lookups_per_sec\": {best:.0}, \
                 \"default_static_lookups_per_sec\": {default:.0}, \
                 \"adaptive_vs_best_static\": {:.3}, \"adaptive_vs_default\": {:.3}, \
                 \"resplits\": {resplits}, \"moved_entries\": {moved}}}",
                adaptive / best,
                adaptive / default
            )
        })
        .collect();
    write_bench_json(
        "adaptive",
        &format!(
            "{{\n  \"bench\": \"ext_adaptive\",\n  \"quick\": {quick},\n  \"nodes\": 1,\n  \
             \"shards\": {SHARDS},\n  \"ops_per_trace\": {ops},\n  \"keyspace\": {keyspace},\n  \
             \"wave\": {wave},\n  \"service_delay_us\": {},\n  \"frame_overhead_us\": {},\n  \
             \"static_grid\": {grid:?},\n  \"default_batch\": {DEFAULT_BATCH},\n  \
             \"results\": [\n{}\n  ]\n}}\n",
            service_delay.as_micros(),
            frame_overhead.as_micros(),
            entries.join(",\n")
        ),
    );
}
