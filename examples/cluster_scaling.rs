//! Cluster-scaling demo: the Figure 5 experiment at example scale.
//!
//! Feeds a mix of the four Table I workloads (scaled down 1/256) through
//! the deterministic virtual-time cluster for 1–4 nodes × three batch
//! sizes, and prints the throughput matrix.
//!
//! ```text
//! cargo run --release --example cluster_scaling
//! ```

use shhc::prelude::*;
use shhc::{SimCluster, SimClusterConfig};
use shhc_flash::FlashConfig;
use shhc_types::Nanos;

fn main() -> Result<()> {
    let scale = 256;
    println!("generating the four Table I workloads at 1/{scale} scale…");
    let traces: Vec<_> = presets::all()
        .into_iter()
        .map(|spec| spec.scaled(scale).generate())
        .collect();
    let stream = mix(&traces, 7);
    println!("mixed stream: {} fingerprints\n", stream.len());

    // Two client drivers, as in the paper's evaluation setup.
    let half = stream.len() / 2;
    let clients = vec![stream[..half].to_vec(), stream[half..].to_vec()];

    println!(
        "{:>6} {:>12} {:>12} {:>12}",
        "nodes", "batch=1", "batch=128", "batch=2048"
    );
    for nodes in 1..=4u32 {
        let mut row = format!("{nodes:>6}");
        for batch in [1usize, 128, 2048] {
            let mut config = SimClusterConfig::paper_scale(nodes, batch);
            // Example-sized node hardware so the run stays snappy.
            config.node_config.flash = FlashConfig::medium_test();
            config.node_config.cache_capacity = 8192;
            config.node_config.cpu_per_op = Nanos::from_micros(20);
            let mut sim = SimCluster::new(config)?;
            let report = sim.run(&clients)?;
            row.push_str(&format!(" {:>11.0}/s", report.throughput()));
        }
        println!("{row}");
    }

    println!("\nbatching amortizes the per-message network cost (~10x),");
    println!("and batched throughput scales with the node count — the");
    println!("shape of the paper's Figure 5.");
    Ok(())
}
