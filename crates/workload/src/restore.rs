//! Restore-at-scale workloads: K concurrent clients replaying disjoint
//! manifests.
//!
//! Backup traffic has a well-studied shape (this crate's other specs);
//! restore traffic is different — each client streams *back* a manifest
//! it wrote earlier, at whatever pace its recovery pipeline sustains.
//! [`RestoreSpec`] models that population: K clients, each owning a
//! deterministic, chunk-aligned payload in a fingerprint population
//! disjoint from every other client's, restored for a configurable
//! number of passes with an open-loop gap between passes. The driver
//! backs each payload up once to obtain the manifests, then replays
//! them concurrently.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use shhc_types::Nanos;

/// Seed namespace for restore payloads ("SHHCRest").
const SEED_BASE: u64 = 0x5348_4843_5265_7374;

/// A population of K restoring clients with disjoint payloads.
///
/// # Examples
///
/// ```
/// use shhc_workload::RestoreSpec;
///
/// let spec = RestoreSpec::open_loop(4, 64);
/// let a = spec.client_data(0);
/// let b = spec.client_data(1);
/// assert_eq!(a.len(), spec.logical_bytes());
/// assert_ne!(a, b, "clients own disjoint payloads");
/// assert_eq!(a, spec.client_data(0), "payloads are deterministic");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RestoreSpec {
    /// Number of concurrent restoring clients.
    pub clients: usize,
    /// Chunks in each client's backup stream.
    pub chunks_per_client: usize,
    /// Payload bytes per chunk (streams are chunk-aligned so fixed-size
    /// chunkers reproduce the generator's chunk boundaries).
    pub chunk_size: usize,
    /// Fraction of chunks that repeat an earlier chunk of the *same*
    /// stream — restores then re-read shared containers, as real
    /// deduplicated backups do.
    pub redundancy: f64,
    /// Full restore passes each client performs.
    pub passes: usize,
    /// Open-loop pause between a client's successive passes (its
    /// recovery pipeline's think time).
    pub arrival_gap: Nanos,
    /// Base RNG seed; client `i` derives seed `seed + i`.
    pub seed: u64,
}

impl RestoreSpec {
    /// A paced open-loop population: 4 KiB chunks, 25 % intra-stream
    /// redundancy, one pass, 250 µs between passes.
    pub fn open_loop(clients: usize, chunks_per_client: usize) -> Self {
        RestoreSpec {
            clients,
            chunks_per_client,
            chunk_size: 4 * 1024,
            redundancy: 0.25,
            passes: 1,
            arrival_gap: Nanos::from_micros(250),
            seed: SEED_BASE,
        }
    }

    /// Returns a copy with a different chunk size.
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size.max(1);
        self
    }

    /// Returns a copy with a different intra-stream redundancy.
    pub fn with_redundancy(mut self, redundancy: f64) -> Self {
        self.redundancy = redundancy.clamp(0.0, 1.0);
        self
    }

    /// Returns a copy restoring `passes` times per client.
    #[cfg(test)]
    pub(crate) fn with_passes(mut self, passes: usize) -> Self {
        self.passes = passes.max(1);
        self
    }

    /// Returns a copy with a different inter-pass gap.
    #[cfg(test)]
    pub(crate) fn with_arrival_gap(mut self, gap: Nanos) -> Self {
        self.arrival_gap = gap;
        self
    }

    /// Returns a copy with a different base seed (shifting every client
    /// into a fresh payload population).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Logical bytes in one client's stream.
    pub fn logical_bytes(&self) -> usize {
        self.chunks_per_client * self.chunk_size
    }

    /// Bytes the whole population restores across all passes.
    pub fn total_restored_bytes(&self) -> u64 {
        self.logical_bytes() as u64 * self.clients as u64 * self.passes as u64
    }

    /// Generates client `client`'s backup payload: chunk-aligned,
    /// deterministic in `(seed, client)`, with `redundancy` of its
    /// chunks repeating earlier chunks of the same stream and the rest
    /// drawn from a population disjoint from every other client's.
    pub fn client_data(&self, client: usize) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(client as u64));
        let mut data = Vec::with_capacity(self.logical_bytes());
        let mut chunk = vec![0u8; self.chunk_size];
        for i in 0..self.chunks_per_client {
            if i > 0 && rng.gen_bool(self.redundancy) {
                // Repeat an earlier chunk verbatim (a duplicate the
                // dedup path collapses to a shared container read).
                let j = rng.gen_range(0..i);
                let start = j * self.chunk_size;
                data.extend_from_within(start..start + self.chunk_size);
            } else {
                rng.fill_bytes(&mut chunk);
                data.extend_from_slice(&chunk);
            }
        }
        data
    }

    /// Generates every client's payload, indexed by client.
    pub fn client_payloads(&self) -> Vec<Vec<u8>> {
        (0..self.clients).map(|c| self.client_data(c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn payloads_are_disjoint_deterministic_and_chunk_aligned() {
        let spec = RestoreSpec::open_loop(3, 40).with_chunk_size(128);
        let mut seen: HashSet<Vec<u8>> = HashSet::new();
        for c in 0..3 {
            let data = spec.client_data(c);
            assert_eq!(data.len(), 40 * 128);
            assert_eq!(data, spec.client_data(c), "generation is deterministic");
            // Fresh chunks never collide across clients (128 random
            // bytes); only intra-stream duplicates repeat.
            let unique: HashSet<Vec<u8>> = data.chunks(128).map(|c| c.to_vec()).collect();
            assert!(
                unique.len() < 40,
                "redundancy must create intra-stream duplicates"
            );
            for chunk in unique {
                assert!(seen.insert(chunk), "chunk shared across clients");
            }
        }
    }

    #[test]
    fn zero_redundancy_makes_every_chunk_unique() {
        let spec = RestoreSpec::open_loop(1, 32)
            .with_chunk_size(64)
            .with_redundancy(0.0);
        let data = spec.client_data(0);
        let unique: HashSet<&[u8]> = data.chunks(64).collect();
        assert_eq!(unique.len(), 32);
    }

    #[test]
    fn builders_adjust_population_knobs() {
        let spec = RestoreSpec::open_loop(2, 10)
            .with_passes(3)
            .with_arrival_gap(Nanos::from_micros(50))
            .with_seed(7);
        assert_eq!(spec.passes, 3);
        assert_eq!(spec.arrival_gap, Nanos::from_micros(50));
        assert_eq!(spec.total_restored_bytes(), 2 * 3 * 10 * 4096);
        assert_ne!(
            spec.client_data(0),
            RestoreSpec::open_loop(2, 10).client_data(0),
            "a different seed shifts the population"
        );
    }
}
