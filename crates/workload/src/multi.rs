//! Multi-client workloads: K concurrent backup streams for one shared
//! front-end.
//!
//! The paper's Figure-4 request flow has each web front-end serving many
//! concurrent clients. [`MultiClientSpec`] models that population: K
//! clients, each replaying its own trace shard (disjoint fingerprint
//! populations, so per-client dedup stays self-contained) at a fixed
//! open-loop arrival gap. The spec yields the per-client shards for
//! threaded drivers and a deterministic round-robin interleaving for
//! sequential equivalence replays.

use shhc_types::{ClientId, Fingerprint, Nanos};

use crate::TraceSpec;

/// Seed namespace for multi-client shards ("SHHCMCli").
const SEED_BASE: u64 = 0x5348_4843_4d43_6c69;

/// A population of K concurrent clients, each with its own trace shard
/// and a fixed submission pacing.
///
/// # Examples
///
/// ```
/// use shhc_workload::MultiClientSpec;
///
/// let spec = MultiClientSpec::open_loop(4, 100);
/// let shards = spec.shards();
/// assert_eq!(shards.len(), 4);
/// assert!(shards.iter().all(|s| s.len() == 100));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MultiClientSpec {
    /// Number of concurrent clients.
    pub clients: usize,
    /// Fingerprints each client submits.
    pub per_client: usize,
    /// Per-shard redundant fraction (intra-client duplicates; shards
    /// never share fingerprints).
    pub redundancy: f64,
    /// Mean re-reference distance within a shard.
    pub mean_distance: f64,
    /// Open-loop inter-submission gap per client (its think time); the
    /// aggregate offered load is `clients / arrival_gap`.
    pub arrival_gap: Nanos,
    /// Base RNG seed; client `i` derives seed `seed + i`.
    pub seed: u64,
}

impl MultiClientSpec {
    /// A paced open-loop population: moderate redundancy, 250 µs think
    /// time per client (≈4 k fingerprints/s each).
    pub fn open_loop(clients: usize, per_client: usize) -> Self {
        MultiClientSpec {
            clients,
            per_client,
            redundancy: 0.3,
            mean_distance: 64.0,
            arrival_gap: Nanos::from_micros(250),
            seed: SEED_BASE,
        }
    }

    /// Returns a copy with a different arrival gap.
    #[cfg(test)]
    pub(crate) fn with_arrival_gap(mut self, gap: Nanos) -> Self {
        self.arrival_gap = gap;
        self
    }

    /// Returns a copy with a different intra-shard redundancy.
    pub fn with_redundancy(mut self, redundancy: f64) -> Self {
        self.redundancy = redundancy.clamp(0.0, 1.0);
        self
    }

    /// Returns a copy with a different base seed (shifting every shard
    /// into a fresh fingerprint population).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Total fingerprints across all clients.
    pub fn total(&self) -> usize {
        self.clients * self.per_client
    }

    /// The trace spec backing client `client`'s shard.
    fn shard_spec(&self, client: usize) -> TraceSpec {
        TraceSpec {
            name: format!("multi-client-{client}"),
            total: self.per_client.max(1),
            redundancy: self.redundancy,
            mean_distance: self.mean_distance.max(1.0),
            distance_cv: 1.0,
            chunk_size: 4 * 1024,
            // Distinct seeds put shards in disjoint fingerprint
            // populations (fingerprints are seed-keyed hashes).
            seed: self.seed + client as u64,
        }
    }

    /// Generates one client's fingerprint shard.
    pub fn shard(&self, client: usize) -> Vec<Fingerprint> {
        self.shard_spec(client).generate().fingerprints
    }

    /// Generates round `round` of client `client`'s open-ended stream:
    /// each round is a fresh `per_client`-sized shard in a fingerprint
    /// population disjoint from every other `(client, round)` pair, so a
    /// driver can offer load indefinitely — a node-churn bench runs
    /// rounds until its scenario ends rather than sizing the workload up
    /// front. Deterministic in `(seed, client, round)`.
    pub fn round_shard(&self, client: usize, round: u64) -> Vec<Fingerprint> {
        // Rounds stride the seed space beyond any realistic client count.
        let spec = TraceSpec {
            seed: self.seed + client as u64 + round.wrapping_mul(0x0001_0000_0001),
            name: format!("multi-client-{client}-round-{round}"),
            ..self.shard_spec(client)
        };
        spec.generate().fingerprints
    }

    /// Generates every client's shard, indexed by client.
    pub fn shards(&self) -> Vec<Vec<Fingerprint>> {
        (0..self.clients).map(|c| self.shard(c)).collect()
    }

    /// A deterministic round-robin interleaving of all shards — the
    /// arrival order an ideally fair scheduler would produce, for
    /// sequential replays that must match a threaded run's per-client
    /// submission order.
    pub fn interleave(&self) -> Vec<(ClientId, Fingerprint)> {
        let shards = self.shards();
        let mut out = Vec::with_capacity(self.total());
        for i in 0..self.per_client {
            for (c, shard) in shards.iter().enumerate() {
                out.push((ClientId::new(c as u32), shard[i]));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn shards_are_disjoint_and_deterministic() {
        let spec = MultiClientSpec::open_loop(4, 200);
        let shards = spec.shards();
        let mut seen: HashSet<Fingerprint> = HashSet::new();
        for shard in &shards {
            assert_eq!(shard.len(), 200);
            let unique: HashSet<Fingerprint> = shard.iter().copied().collect();
            assert!(
                unique.len() < shard.len(),
                "redundancy must create intra-shard duplicates"
            );
            for fp in &unique {
                assert!(seen.insert(*fp), "fingerprint shared across shards");
            }
        }
        assert_eq!(spec.shards(), shards, "generation must be deterministic");
    }

    #[test]
    fn interleave_is_round_robin_over_shards() {
        let spec = MultiClientSpec::open_loop(3, 50);
        let interleaved = spec.interleave();
        assert_eq!(interleaved.len(), spec.total());
        for (c, shard) in spec.shards().into_iter().enumerate() {
            let replayed: Vec<Fingerprint> = interleaved
                .iter()
                .filter(|(id, _)| *id == ClientId::new(c as u32))
                .map(|(_, fp)| *fp)
                .collect();
            assert_eq!(replayed, shard, "per-client order must be preserved");
        }
        // Fair round-robin: the first `clients` entries are every
        // client's first fingerprint.
        let heads: Vec<ClientId> = interleaved.iter().take(3).map(|(id, _)| *id).collect();
        assert_eq!(
            heads,
            vec![ClientId::new(0), ClientId::new(1), ClientId::new(2)]
        );
    }

    #[test]
    fn round_shards_are_disjoint_and_deterministic() {
        let spec = MultiClientSpec::open_loop(3, 100);
        let mut seen: HashSet<Fingerprint> = HashSet::new();
        for client in 0..3 {
            for round in 0..4u64 {
                let shard = spec.round_shard(client, round);
                assert_eq!(shard.len(), 100);
                assert_eq!(
                    shard,
                    spec.round_shard(client, round),
                    "rounds must be deterministic"
                );
                for fp in shard.iter().collect::<HashSet<_>>() {
                    assert!(
                        seen.insert(*fp),
                        "fingerprint shared across (client, round) pairs"
                    );
                }
            }
        }
        // Round 0 is the base shard (one population, two access paths).
        assert_eq!(spec.round_shard(1, 0), spec.shard(1));
    }

    #[test]
    fn builders_adjust_population_knobs() {
        let spec = MultiClientSpec::open_loop(2, 50)
            .with_redundancy(0.0)
            .with_seed(42);
        assert_eq!(spec.seed, 42);
        let shard = spec.shard(0);
        let unique: HashSet<Fingerprint> = shard.iter().copied().collect();
        assert_eq!(unique.len(), shard.len(), "zero redundancy: no duplicates");
        assert_ne!(
            MultiClientSpec::open_loop(2, 50).shard(0),
            shard,
            "a different seed shifts the population"
        );
    }

    #[test]
    fn arrival_gap_scales_offered_load() {
        let spec = MultiClientSpec::open_loop(8, 10).with_arrival_gap(Nanos::from_micros(100));
        assert_eq!(spec.arrival_gap, Nanos::from_micros(100));
        assert_eq!(spec.total(), 80);
    }
}
