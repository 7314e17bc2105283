//! The system under test, built one fixed way for every workload, and
//! the counters read off its public stats structs.

use std::time::Duration;

use shhc::{
    BackendKind, CachePolicy, ClusterConfig, DataPlane, Durability, NodeConfig, SharedBatcherStats,
    SharedFrontend, ShhcCluster,
};
use shhc_flash::FlashConfig;

/// Nodes in every workload's cluster. Two single-shard nodes and one
/// generator keep at most two threads runnable on this two-core host.
pub const NODES: u32 = 2;
/// Virtual nodes per node on the ring (the cluster's default, pinned so
/// the kernel pass can route the way the cluster does).
pub const VNODES: u32 = 64;

/// One node: single shard, no reader pool, volatile flash, no injected
/// delays — the sleeps-off configuration ROADMAP item 1 asks for.
pub fn node_config(cache_entries: usize, expected_entries: u64) -> NodeConfig {
    NodeConfig {
        cache_capacity: cache_entries,
        cache_policy: CachePolicy::Lru,
        bloom_expected: expected_entries,
        bloom_fpr: 0.01,
        flash: FlashConfig::default_node(),
        service_delay: Duration::ZERO,
        batch_overhead: Duration::ZERO,
        shards: 1,
        backend: BackendKind::Single,
        readers: 0,
        durability: Durability::Volatile,
        ..NodeConfig::default_node()
    }
}

pub fn spawn_cluster(cache_entries: usize, expected_entries_per_node: u64) -> ShhcCluster {
    let mut config =
        ClusterConfig::new(NODES, node_config(cache_entries, expected_entries_per_node))
            .with_data_plane(DataPlane::Pipelined);
    config.vnodes = VNODES;
    ShhcCluster::spawn(config).expect("spawn cluster")
}

/// Cluster-side counters summed over nodes. Deltas of two snapshots
/// give the counts of a phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub entries: u64,
    pub ram_hits: u64,
    pub ssd_hits: u64,
    pub inserted: u64,
    pub bloom_skips: u64,
    pub bloom_false_positives: u64,
    pub queries: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub device_reads: u64,
    pub device_programs: u64,
    pub user_programs: u64,
    pub gc_programs: u64,
    /// Largest per-node share of lookup operations ÷ the mean share.
    pub load_imbalance: f64,
    pub queue_peak: u64,
}

impl Counts {
    pub fn snapshot(cluster: &ShhcCluster) -> Counts {
        let stats = cluster.stats().expect("cluster stats");
        let mut c = Counts::default();
        let mut ops = Vec::new();
        for n in &stats.nodes {
            c.entries += n.entries;
            c.ram_hits += n.stats.ram_hits;
            c.ssd_hits += n.stats.ssd_hits;
            c.inserted += n.stats.inserted;
            c.bloom_skips += n.stats.bloom_skips;
            c.bloom_false_positives += n.stats.bloom_false_positives;
            c.queries += n.stats.queries;
            c.cache_hits += n.cache.hits;
            c.cache_misses += n.cache.misses;
            c.cache_evictions += n.cache.evictions;
            c.device_reads += n.device.reads;
            c.device_programs += n.device.programs;
            c.user_programs += n.ftl.user_programs;
            c.gc_programs += n.ftl.gc_programs;
            c.queue_peak = c.queue_peak.max(n.stats.queue_peak);
            ops.push(n.stats.ops() + n.stats.queries);
        }
        let mean = ops.iter().sum::<u64>() as f64 / ops.len().max(1) as f64;
        c.load_imbalance = if mean > 0.0 {
            ops.iter().copied().max().unwrap_or(0) as f64 / mean
        } else {
            1.0
        };
        c
    }

    /// Counters of the phase between `earlier` and `self`. Gauges
    /// (`entries`, `load_imbalance`, `queue_peak`) keep the later value.
    pub fn since(&self, earlier: &Counts) -> Counts {
        Counts {
            entries: self.entries,
            ram_hits: self.ram_hits - earlier.ram_hits,
            ssd_hits: self.ssd_hits - earlier.ssd_hits,
            inserted: self.inserted - earlier.inserted,
            bloom_skips: self.bloom_skips - earlier.bloom_skips,
            bloom_false_positives: self.bloom_false_positives - earlier.bloom_false_positives,
            queries: self.queries - earlier.queries,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            cache_evictions: self.cache_evictions - earlier.cache_evictions,
            device_reads: self.device_reads - earlier.device_reads,
            device_programs: self.device_programs - earlier.device_programs,
            user_programs: self.user_programs - earlier.user_programs,
            gc_programs: self.gc_programs - earlier.gc_programs,
            load_imbalance: self.load_imbalance,
            queue_peak: self.queue_peak,
        }
    }

    /// Index-side operations the nodes served in the phase.
    pub fn node_ops(&self) -> u64 {
        self.ram_hits + self.ssd_hits + self.inserted + self.queries
    }
}

/// Front-end counters of a phase (the delay samples are the ring's
/// latest, which a phase longer than the ring fills entirely).
pub fn frontend_since(now: &SharedBatcherStats, earlier: &SharedBatcherStats) -> FrontendCounts {
    let batches = now.batches - earlier.batches;
    let fingerprints = now.fingerprints - earlier.fingerprints;
    FrontendCounts {
        batches,
        fingerprints,
        closed_by_age: now.closed_by_age - earlier.closed_by_age,
        delay_p50_us: now
            .delay_quantile(0.5)
            .map_or(0.0, |d| d.as_secs_f64() * 1e6),
        delay_p99_us: now
            .delay_quantile(0.99)
            .map_or(0.0, |d| d.as_secs_f64() * 1e6),
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct FrontendCounts {
    pub batches: u64,
    pub fingerprints: u64,
    pub closed_by_age: u64,
    pub delay_p50_us: f64,
    pub delay_p99_us: f64,
}

impl FrontendCounts {
    /// Mean batch occupancy as a share of the size limit.
    pub fn batch_fill(&self, frontend: &SharedFrontend) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.fingerprints as f64 / self.batches as f64 / frontend.batch_size() as f64
    }

    pub fn closed_by_age_share(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.closed_by_age as f64 / self.batches as f64
    }
}
