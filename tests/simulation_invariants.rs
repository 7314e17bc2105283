//! Invariants of the virtual-time cluster and the Figure-1 simulator,
//! driven with the real Table I workloads.

use shhc::motivation::{execution_time, sweep, MotivationConfig};
use shhc::{SimCluster, SimClusterConfig};
use shhc_flash::FlashConfig;
use shhc_types::Nanos;
use shhc_workload::{characterize, mix, presets};

fn sim_config(nodes: u32, batch: usize) -> SimClusterConfig {
    let mut config = SimClusterConfig::paper_scale(nodes, batch);
    config.node_config.flash = FlashConfig::medium_test();
    config.node_config.cache_capacity = 8192;
    config
}

fn mixed_clients(scale: usize) -> Vec<Vec<shhc_types::Fingerprint>> {
    let traces: Vec<_> = presets::all()
        .into_iter()
        .map(|s| s.scaled(scale).generate())
        .collect();
    let stream = mix(&traces, 3);
    let half = stream.len() / 2;
    vec![stream[..half].to_vec(), stream[half..].to_vec()]
}

#[test]
fn entries_conserve_unique_fingerprints() {
    let clients = mixed_clients(512);
    let unique = {
        let all: Vec<_> = clients.iter().flatten().copied().collect();
        characterize(&all).unique as u64
    };
    let mut sim = SimCluster::new(sim_config(4, 128)).unwrap();
    let report = sim.run(&clients).unwrap();
    assert_eq!(
        report.per_node_entries.iter().sum::<u64>(),
        unique,
        "every unique fingerprint stored exactly once"
    );
}

#[test]
fn throughput_scales_with_nodes_on_real_mix() {
    let clients = mixed_clients(512);
    let mut throughputs = Vec::new();
    for nodes in [1u32, 2, 4] {
        let mut sim = SimCluster::new(sim_config(nodes, 128)).unwrap();
        throughputs.push(sim.run(&clients).unwrap().throughput());
    }
    assert!(
        throughputs[2] > throughputs[0] * 1.8,
        "4 nodes should be ≳2x of 1 node: {throughputs:?}"
    );
}

#[test]
fn batch_one_is_an_order_of_magnitude_slower() {
    let clients = mixed_clients(1024);
    let mut sim1 = SimCluster::new(sim_config(2, 1)).unwrap();
    let t1 = sim1.run(&clients).unwrap().throughput();
    let mut sim128 = SimCluster::new(sim_config(2, 128)).unwrap();
    let t128 = sim128.run(&clients).unwrap().throughput();
    assert!(
        t128 / t1 > 5.0,
        "paper reports ~10x for batching; measured {:.1}x",
        t128 / t1
    );
}

#[test]
fn batch_latency_grows_with_batch_size() {
    let clients = mixed_clients(1024);
    let mut lat = Vec::new();
    for batch in [16usize, 256, 2048] {
        let mut sim = SimCluster::new(sim_config(2, batch)).unwrap();
        lat.push(sim.run(&clients).unwrap().batch_latency.mean);
    }
    assert!(
        lat[0] < lat[1] && lat[1] < lat[2],
        "bigger batches must wait longer: {lat:?}"
    );
}

#[test]
fn redundant_workloads_lean_on_the_cache() {
    // Mail server (85% redundant, short distances after scaling) should
    // show a high RAM-hit ratio; time machine (17%, huge distances)
    // should not.
    let mail = presets::mail_server().scaled(512).generate();
    let mut sim = SimCluster::new(sim_config(1, 128)).unwrap();
    let report = sim.run(&[mail.fingerprints]).unwrap();
    let stats = &report.node_stats[0];
    assert!(
        stats.ram_hits + stats.ssd_hits > stats.inserted,
        "mail server is duplicate-dominated"
    );
}

#[test]
fn figure1_shape_holds_under_the_kernel() {
    // Execution time flat at low rate, then hyperbolic in node count at
    // high rate.
    let base = MotivationConfig {
        total_requests: 30_000,
        ..MotivationConfig::default()
    };
    let grid = sweep(&[1, 2, 4, 8, 16], &[20_000.0, 100_000.0], base);
    // At 20k req/s: every size within 15% of 1.5 s.
    for p in grid.iter().filter(|p| p.rate_per_sec < 50_000.0) {
        let t = p.execution_time.as_secs_f64();
        assert!((1.2..1.8).contains(&t), "nodes={} t={t}", p.nodes);
    }
    // At 100k req/s: strictly improving up to 4 nodes.
    let hi: Vec<f64> = grid
        .iter()
        .filter(|p| p.rate_per_sec > 50_000.0)
        .map(|p| p.execution_time.as_secs_f64())
        .collect();
    assert!(
        hi[0] > hi[1] && hi[1] > hi[2],
        "no scaling at high rate: {hi:?}"
    );
}

#[test]
fn service_time_sensitivity() {
    // Faster nodes finish sooner when saturated.
    let slow = execution_time(MotivationConfig {
        nodes: 1,
        rate_per_sec: 100_000.0,
        total_requests: 20_000,
        mean_service: Nanos::from_micros(64),
        ..MotivationConfig::default()
    });
    let fast = execution_time(MotivationConfig {
        nodes: 1,
        rate_per_sec: 100_000.0,
        total_requests: 20_000,
        mean_service: Nanos::from_micros(16),
        ..MotivationConfig::default()
    });
    assert!(slow.as_secs_f64() > 2.5 * fast.as_secs_f64());
}
