//! Extension F — the hybrid RAM/SSD split: RAM cache size vs hit ratio
//! and effective lookup cost on one node. This is the design
//! dial behind Figure 3's "RAM serves as the cache for SSDs".

use shhc_bench::{banner, scale, write_csv};
use shhc_node::{HybridHashNode, NodeConfig};
use shhc_types::NodeId;
use shhc_workload::presets;

fn main() {
    let scale = (scale() * 2).max(1);
    banner(
        "Extension F — RAM cache size vs hit ratio and lookup cost",
        "the RAM tier absorbs repeat queries and hides SSD latency (paper Fig. 3/4)",
    );
    let trace = presets::mail_server().scaled(scale).generate();
    println!(
        "workload: Mail Server at 1/{scale} — {} fingerprints, 85% redundant\n",
        trace.len()
    );

    let mut rows = Vec::new();
    println!(
        "{:>10} {:>10} {:>10} {:>12} {:>12}",
        "capacity", "RAM hit%", "SSD hit%", "µs/lookup", "SSD reads"
    );
    for capacity in [1_024usize, 8_192, 65_536, 524_288] {
        let config = NodeConfig {
            cache_capacity: capacity,
            ..NodeConfig::default_node()
        };
        let mut node = HybridHashNode::new(NodeId::new(0), config).expect("config");
        for fp in &trace.fingerprints {
            node.lookup_insert(*fp).expect("lookup");
        }
        let stats = node.stats();
        let device = node.device_stats();
        let dups = (stats.ram_hits + stats.ssd_hits) as f64;
        let ram_pct = stats.ram_hits as f64 / dups * 100.0;
        let ssd_pct = stats.ssd_hits as f64 / dups * 100.0;
        let per_op = stats.busy.as_micros_f64() / stats.ops() as f64;
        println!(
            "{capacity:>10} {ram_pct:>9.1}% {ssd_pct:>9.1}% {per_op:>12.2} {:>12}",
            device.reads
        );
        rows.push(format!(
            "{capacity},{ram_pct:.2},{ssd_pct:.2},{per_op:.2},{}",
            device.reads
        ));
    }

    println!("\nreading: hit ratio climbs with capacity until the working set");
    println!("fits; every point of RAM hit ratio converts an SSD read (25 µs)");
    println!("into a sub-µs RAM probe.");

    write_csv(
        "ext_cache_sweep",
        "capacity,ram_hit_pct,ssd_hit_pct,us_per_lookup,ssd_reads",
        &rows,
    );
}
