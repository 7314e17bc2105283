//! The virtual-time cluster: real node data structures, modeled time.
//!
//! The paper's Figure 5/6 testbed was six physical machines. Our
//! substitute keeps every *data structure* real — actual
//! [`HybridHashNode`]s with LRU caches, flash directories and the flash-store
//! stack — but advances time on a virtual clock: node service time comes
//! from the nodes' own device accounting, network time from the
//! [`NetModel`], and queueing from per-node FCFS servers. Runs are
//! deterministic and laptop-fast while preserving exactly the effects the
//! figures measure: batch amortization of per-message cost and node-count
//! scaling.
//!
//! A node serves a sub-batch in one pass
//! ([`HybridHashNode::lookup_insert_batch`]), probing flash for all of its
//! cache misses at once against the sub-batch's starting state, so its
//! virtual service time drops below a per-fingerprint loop's by the page
//! reads the batch coalesces: a page that several of the sub-batch's
//! misses need is charged once.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use shhc_net::{lookup_req_len, lookup_resp_len, NetModel};
use shhc_node::{HybridHashNode, NodeConfig, NodeStats};
use shhc_ring::{ConsistentHashRing, Partitioner};
use shhc_sim::{FcfsQueue, Histogram, Summary};
use shhc_types::{Fingerprint, Nanos, NodeId, Result};

/// Configuration of a [`SimCluster`] run.
#[derive(Debug, Clone)]
pub struct SimClusterConfig {
    /// Number of hash nodes.
    pub nodes: u32,
    /// Virtual nodes per physical node on the ring.
    pub vnodes: u32,
    /// Per-node configuration (cache, flash, CPU).
    pub node_config: NodeConfig,
    /// Link cost model between clients/front-ends and nodes.
    pub net: NetModel,
    /// Fingerprints per client batch (the Figure 5 x-axis series).
    pub batch_size: usize,
    /// Outstanding batches per client (1 = strict request/response, as
    /// in the paper's client driver).
    pub client_inflight: usize,
}

impl SimClusterConfig {
    /// Paper-shaped configuration: default node hardware, gigabit
    /// network, strict request/response clients. 256 virtual nodes keep
    /// per-node shares within a few percent of `1/n` (paper Figure 6).
    pub fn paper_scale(nodes: u32, batch_size: usize) -> Self {
        SimClusterConfig {
            nodes,
            vnodes: 256,
            node_config: NodeConfig::default_node(),
            net: NetModel::gigabit(),
            batch_size,
            client_inflight: 1,
        }
    }

    /// Small, zero-latency configuration for unit tests.
    pub fn small_test(nodes: u32, batch_size: usize) -> Self {
        SimClusterConfig {
            nodes,
            vnodes: 16,
            node_config: NodeConfig::small_test(),
            net: NetModel::instant(),
            batch_size,
            client_inflight: 1,
        }
    }
}

/// Result of a [`SimCluster`] run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Virtual time from first dispatch to last response.
    pub duration: Nanos,
    /// Fingerprints processed.
    pub chunks: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Fingerprints stored per node (Figure 6).
    pub per_node_entries: Vec<u64>,
    /// Per-node lookup counters.
    pub node_stats: Vec<NodeStats>,
    /// Client-observed batch latency distribution.
    pub batch_latency: Summary,
}

impl SimReport {
    /// Cluster throughput in chunks (fingerprints) per second — the
    /// Figure 5 y-axis.
    pub fn throughput(&self) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.chunks as f64 / secs
        }
    }

    /// Per-node share of stored fingerprints (sums to 1) — Figure 6.
    pub fn entry_shares(&self) -> Vec<f64> {
        let total: u64 = self.per_node_entries.iter().sum();
        let total = total.max(1) as f64;
        self.per_node_entries
            .iter()
            .map(|&e| e as f64 / total)
            .collect()
    }
}

/// The deterministic virtual-time cluster (see module docs).
///
/// # Examples
///
/// ```
/// use shhc::{SimCluster, SimClusterConfig};
/// use shhc_types::Fingerprint;
///
/// # fn main() -> Result<(), shhc_types::Error> {
/// let mut sim = SimCluster::new(SimClusterConfig::small_test(2, 16))?;
/// let stream: Vec<Fingerprint> = (0..256).map(Fingerprint::from_u64).collect();
/// let report = sim.run(&[stream])?;
/// assert_eq!(report.chunks, 256);
/// assert!(report.throughput() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SimCluster {
    config: SimClusterConfig,
    nodes: Vec<HybridHashNode>,
    queues: Vec<FcfsQueue>,
    ring: ConsistentHashRing,
}

impl SimCluster {
    /// Builds the cluster's nodes and routing state.
    ///
    /// # Errors
    ///
    /// Propagates node-configuration errors.
    pub fn new(config: SimClusterConfig) -> Result<Self> {
        if config.nodes == 0 {
            return Err(shhc_types::Error::invalid("need at least one node"));
        }
        if config.batch_size == 0 || config.client_inflight == 0 {
            return Err(shhc_types::Error::invalid(
                "batch size and inflight must be nonzero",
            ));
        }
        let nodes = (0..config.nodes)
            .map(|i| HybridHashNode::new(NodeId::new(i), config.node_config.clone()))
            .collect::<Result<Vec<_>>>()?;
        let queues = (0..config.nodes).map(|_| FcfsQueue::new(1)).collect();
        let ring = ConsistentHashRing::with_nodes(config.nodes, config.vnodes);
        Ok(SimCluster {
            config,
            nodes,
            queues,
            ring,
        })
    }

    /// Access to the (post-run) nodes, e.g. for entry counting.
    pub fn nodes(&self) -> &[HybridHashNode] {
        &self.nodes
    }

    /// Flushes every node's SSD write buffer (end of the backup window).
    ///
    /// Returns the total virtual device time spent. Runs *outside* the
    /// timed window — matching the paper's method of measuring lookup
    /// throughput against cold machines, not end-of-day persistence.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn flush_all(&mut self) -> Result<Nanos> {
        let mut total = Nanos::ZERO;
        for node in &mut self.nodes {
            total += node.flush()?;
        }
        Ok(total)
    }

    /// Drives one stream per client through the cluster to completion.
    ///
    /// Each client batches its stream, keeps `client_inflight` batches
    /// outstanding, and every batch is split by the ring into per-node
    /// sub-requests that queue FCFS at the nodes.
    ///
    /// # Errors
    ///
    /// Propagates node device errors (e.g. a full SSD).
    pub fn run(&mut self, client_streams: &[Vec<Fingerprint>]) -> Result<SimReport> {
        struct ClientState {
            batches: Vec<Vec<Fingerprint>>,
            next: usize,
            completions: Vec<Nanos>,
        }

        let mut clients: Vec<ClientState> = client_streams
            .iter()
            .map(|stream| ClientState {
                batches: stream
                    .chunks(self.config.batch_size)
                    .map(|b| b.to_vec())
                    .collect(),
                next: 0,
                completions: Vec::new(),
            })
            .collect();

        // (dispatch_ready, client) min-heap.
        let mut heap: BinaryHeap<Reverse<(Nanos, usize)>> = BinaryHeap::new();
        for (c, state) in clients.iter().enumerate() {
            if !state.batches.is_empty() {
                heap.push(Reverse((Nanos::ZERO, c)));
            }
        }

        let mut latency = Histogram::new();
        let mut duration = Nanos::ZERO;
        let mut chunks = 0u64;
        let mut batches = 0u64;
        let inflight = self.config.client_inflight;

        while let Some(Reverse((t0, c))) = heap.pop() {
            let batch = {
                let state = &mut clients[c];
                let batch = state.batches[state.next].clone();
                state.next += 1;
                batch
            };
            batches += 1;
            chunks += batch.len() as u64;

            // Split by owning node, preserving order within sub-batches.
            let mut per_node: Vec<Vec<Fingerprint>> = vec![Vec::new(); self.config.nodes as usize];
            for fp in &batch {
                per_node[self.ring.route_fingerprint(*fp).index()].push(*fp);
            }

            let mut batch_done = t0;
            for (n, sub) in per_node.iter().enumerate() {
                if sub.is_empty() {
                    continue;
                }
                let req_len = lookup_req_len(sub.len());
                let arrive = t0 + self.config.net.one_way(req_len);
                let result = self.nodes[n].lookup_insert_batch(sub)?;
                let served_at = self.queues[n].submit(arrive, result.cost);
                let hits = result.exists.iter().filter(|e| **e).count();
                let resp_len = lookup_resp_len(result.exists.len(), hits);
                let resp_arrive = served_at + self.config.net.one_way(resp_len);
                batch_done = batch_done.max(resp_arrive);
            }

            latency.record(batch_done - t0);
            duration = duration.max(batch_done);

            let state = &mut clients[c];
            state.completions.push(batch_done);
            if state.next < state.batches.len() {
                // The next dispatch waits until the (next - inflight)-th
                // batch has completed.
                let gate = if state.next >= inflight {
                    state.completions[state.next - inflight]
                } else {
                    Nanos::ZERO
                };
                heap.push(Reverse((gate, c)));
            }
        }

        Ok(SimReport {
            duration,
            chunks,
            batches,
            per_node_entries: self.nodes.iter().map(|n| n.entries()).collect(),
            node_stats: self.nodes.iter().map(|n| n.stats()).collect(),
            batch_latency: latency.summary(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unique_stream(n: u64, tag: u64) -> Vec<Fingerprint> {
        (0..n)
            .map(|i| {
                Fingerprint::from_u64(
                    (tag * 1_000_000 + i)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .rotate_left(31),
                )
            })
            .collect()
    }

    fn paper_small(nodes: u32, batch: usize) -> SimClusterConfig {
        // Paper network/CPU shape but the small flash device, so tests
        // stay quick.
        SimClusterConfig {
            node_config: NodeConfig {
                cpu_per_op: Nanos::from_micros(20),
                cache_capacity: 4096,
                flash: shhc_flash::FlashConfig::medium_test(),
                ..NodeConfig::small_test()
            },
            net: NetModel::gigabit(),
            ..SimClusterConfig::small_test(nodes, batch)
        }
    }

    #[test]
    fn more_nodes_more_throughput() {
        let stream = unique_stream(4000, 1);
        let mut t = Vec::new();
        for nodes in [1u32, 2, 4] {
            let mut sim = SimCluster::new(paper_small(nodes, 128)).unwrap();
            let report = sim.run(&[stream.clone(), unique_stream(4000, 2)]).unwrap();
            t.push(report.throughput());
        }
        assert!(
            t[1] > t[0] * 1.3,
            "2 nodes {:.0} vs 1 node {:.0}",
            t[1],
            t[0]
        );
        assert!(
            t[2] > t[1] * 1.2,
            "4 nodes {:.0} vs 2 nodes {:.0}",
            t[2],
            t[1]
        );
    }

    #[test]
    fn batching_beats_single_requests() {
        let stream = unique_stream(2000, 3);
        let mut sim1 = SimCluster::new(paper_small(2, 1)).unwrap();
        let single = sim1
            .run(std::slice::from_ref(&stream))
            .unwrap()
            .throughput();
        let mut sim128 = SimCluster::new(paper_small(2, 128)).unwrap();
        let batched = sim128.run(&[stream]).unwrap().throughput();
        assert!(
            batched > single * 3.0,
            "batched {batched:.0} should dwarf unbatched {single:.0}"
        );
    }

    #[test]
    fn entries_partition_the_stream() {
        let stream = unique_stream(3000, 4);
        let mut sim = SimCluster::new(SimClusterConfig::small_test(4, 64)).unwrap();
        let report = sim.run(&[stream]).unwrap();
        assert_eq!(report.per_node_entries.iter().sum::<u64>(), 3000);
        assert!(report.per_node_entries.iter().all(|&e| e > 0));
        let shares = report.entry_shares();
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic() {
        let stream = unique_stream(1000, 5);
        let run = |stream: &Vec<Fingerprint>| {
            let mut sim = SimCluster::new(paper_small(3, 64)).unwrap();
            let r = sim.run(std::slice::from_ref(stream)).unwrap();
            (r.duration, r.per_node_entries.clone())
        };
        assert_eq!(run(&stream), run(&stream));
    }

    #[test]
    fn duplicates_do_not_add_entries() {
        let mut stream = unique_stream(500, 6);
        stream.extend(unique_stream(500, 6)); // same again
        let mut sim = SimCluster::new(SimClusterConfig::small_test(2, 32)).unwrap();
        let report = sim.run(&[stream]).unwrap();
        assert_eq!(report.chunks, 1000);
        assert_eq!(report.per_node_entries.iter().sum::<u64>(), 500);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(SimCluster::new(SimClusterConfig::small_test(0, 8)).is_err());
        assert!(SimCluster::new(SimClusterConfig::small_test(1, 0)).is_err());
    }
}
