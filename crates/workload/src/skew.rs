//! Zipf / hot-set skewed key streams.
//!
//! SHA-1 fingerprints are uniform over the ring, which is the *easy* case
//! for a hash cluster: every node and every intra-node shard sees the same
//! load and the same cache behavior. Real request streams are not like
//! that — popularity follows a Zipf law and the popular set drifts over
//! time. This module generates seeded, reproducible skewed streams so the
//! self-tuning layer (adaptive batching, cache autosizing, hot-shard
//! re-splits) has something to tune *against*:
//!
//! - [`ZipfSampler`] — exact inverse-CDF Zipf(s) sampling over a bounded
//!   rank space, with the theoretical top-1 mass exposed for tests,
//! - [`SkewSpec`] — a named trace spec (exponent, key mapping, optional
//!   rotating hot-set phases) producing keys or fingerprints,
//! - [`KeyMapping`] — whether popular ranks *cluster* on a contiguous
//!   ring prefix (hot shard under a uniform [`ShardRouter`] split) or are
//!   *scattered* uniformly (cache skew only, balanced shards).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shhc_types::Fingerprint;

/// Exact Zipf(s) sampler over ranks `0..n` via a precomputed CDF.
///
/// Rank `r` is drawn with probability `(r+1)^-s / H(n,s)` where `H` is the
/// generalized harmonic number. Sampling is a binary search over the
/// cumulative weights — O(log n) per draw, O(n) memory — which is exact
/// (no rejection-method approximation) and plenty fast for the bounded
/// keyspaces the benches use.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the sampler for `n` ranks with exponent `s ≥ 0`.
    ///
    /// `s = 0` degenerates to uniform; `s ≈ 1` is the classic web-trace
    /// skew. `n` is clamped to ≥ 1.
    pub fn new(n: u64, s: f64) -> Self {
        let n = n.max(1) as usize;
        let s = s.max(0.0);
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for rank in 0..n {
            total += (rank as f64 + 1.0).powf(-s);
            cdf.push(total);
        }
        for w in &mut cdf {
            *w /= total;
        }
        // Guard against floating-point shortfall at the top end.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        ZipfSampler { cdf }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> u64 {
        self.cdf.len() as u64
    }

    /// Theoretical probability mass of the most popular rank,
    /// `1 / H(n,s)` — what a frequency count of rank 0 converges to.
    pub fn top1_mass(&self) -> f64 {
        self.cdf[0]
    }

    /// Draws one rank in `0..ranks()` (0 = most popular).
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u) as u64
    }
}

/// How Zipf *ranks* become ring *keys* (the fingerprint's
/// [`route_key`](Fingerprint::route_key)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyMapping {
    /// Rank `r` maps to `r · (2⁶⁴ / keyspace)`: consecutive ranks land on
    /// a contiguous, evenly spaced span of the ring, so the popular head
    /// concentrates on the low-key prefix — the workload that overloads
    /// one shard of a uniformly split node.
    Clustered,
    /// Rank `r` maps to `r · φ⁻¹·2⁶⁴ (mod 2⁶⁴)` (golden-ratio scramble):
    /// popular keys spread uniformly over the ring, so shard loads stay
    /// balanced and only the *cache* sees the skew.
    Scattered,
}

const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// A named, seeded skewed-trace spec.
///
/// Phases rotate the identity of the popular set: during phase `p` (every
/// `phase_len` operations) the sampled rank is offset by `p · keyspace/3`
/// before mapping, so the hot keys — and, under [`KeyMapping::Clustered`],
/// the hot *shard* — move. `phase_len = 0` disables phases.
#[derive(Debug, Clone, PartialEq)]
pub struct SkewSpec {
    /// Short name, used in CSV rows ("zipf_clustered", "phase_shift").
    pub name: &'static str,
    /// Total keys to generate.
    pub ops: usize,
    /// Ranks are drawn from `0..keyspace`.
    pub keyspace: u64,
    /// Zipf exponent `s` (0 = uniform, ~1 = web-trace skew).
    pub exponent: f64,
    /// How ranks become ring keys.
    pub mapping: KeyMapping,
    /// Operations per popularity phase; 0 = a single phase forever.
    pub phase_len: usize,
    /// RNG seed.
    pub seed: u64,
}

impl SkewSpec {
    /// A stationary Zipf trace with the popular head clustered on a ring
    /// prefix — the hot-shard workload.
    pub fn zipf_clustered(ops: usize, keyspace: u64, exponent: f64, seed: u64) -> Self {
        SkewSpec {
            name: "zipf_clustered",
            ops,
            keyspace,
            exponent,
            mapping: KeyMapping::Clustered,
            phase_len: 0,
            seed,
        }
    }

    /// A stationary Zipf trace with popular keys scattered uniformly —
    /// skewed cache traffic over balanced shards.
    pub fn zipf_scattered(ops: usize, keyspace: u64, exponent: f64, seed: u64) -> Self {
        SkewSpec {
            name: "zipf_scattered",
            ops,
            keyspace,
            exponent,
            mapping: KeyMapping::Scattered,
            phase_len: 0,
            seed,
        }
    }

    /// A phase-shifting trace: clustered Zipf whose hot set (and hot
    /// shard) rotates every `phase_len` operations.
    pub fn phase_shifting(
        ops: usize,
        keyspace: u64,
        exponent: f64,
        phase_len: usize,
        seed: u64,
    ) -> Self {
        SkewSpec {
            name: "phase_shift",
            ops,
            keyspace,
            exponent,
            mapping: KeyMapping::Clustered,
            phase_len,
            seed,
        }
    }

    /// Theoretical frequency of the most popular key (per phase).
    pub fn top1_mass(&self) -> f64 {
        ZipfSampler::new(self.keyspace, self.exponent).top1_mass()
    }

    fn map_rank(&self, rank: u64, phase: u64) -> u64 {
        let keyspace = self.keyspace.max(1);
        let stride = (keyspace / 3).max(1);
        let rank = (rank + phase.wrapping_mul(stride)) % keyspace;
        match self.mapping {
            KeyMapping::Clustered => rank.wrapping_mul(u64::MAX / keyspace),
            KeyMapping::Scattered => rank.wrapping_mul(GOLDEN_GAMMA),
        }
    }

    /// Generates the mapped ring keys (each is the resulting
    /// fingerprint's [`route_key`](Fingerprint::route_key)).
    pub fn keys(&self) -> Vec<u64> {
        let sampler = ZipfSampler::new(self.keyspace, self.exponent);
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..self.ops)
            .map(|i| {
                let phase = i.checked_div(self.phase_len).unwrap_or(0) as u64;
                self.map_rank(sampler.sample(&mut rng), phase)
            })
            .collect()
    }

    /// Generates the fingerprint stream.
    pub fn fingerprints(&self) -> Vec<Fingerprint> {
        self.keys().into_iter().map(Fingerprint::from_u64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_is_a_distribution() {
        let z = ZipfSampler::new(1000, 1.0);
        assert_eq!(z.ranks(), 1000);
        assert!((z.cdf.last().copied().unwrap() - 1.0).abs() < 1e-12);
        // Monotone non-decreasing CDF.
        assert!(z.cdf.windows(2).all(|w| w[0] <= w[1]));
        // s = 0 is uniform: top-1 mass is 1/n.
        let u = ZipfSampler::new(1000, 0.0);
        assert!((u.top1_mass() - 1e-3).abs() < 1e-9);
    }

    #[test]
    fn same_seed_same_trace() {
        let spec = SkewSpec::zipf_clustered(5000, 4096, 1.0, 42);
        assert_eq!(spec.keys(), spec.keys());
        assert_eq!(spec.fingerprints(), spec.fingerprints());
        let other = SkewSpec::zipf_clustered(5000, 4096, 1.0, 43);
        assert_ne!(spec.keys(), other.keys());
    }

    #[test]
    fn top1_frequency_matches_theory() {
        let spec = SkewSpec::zipf_clustered(200_000, 1024, 1.0, 7);
        let keys = spec.keys();
        // Rank 0 maps to key 0 under Clustered with no phases.
        let hits = keys.iter().filter(|&&k| k == 0).count();
        let observed = hits as f64 / keys.len() as f64;
        let expected = spec.top1_mass();
        // 1/H(1024, 1) ≈ 0.133; 200k draws put the sample error well
        // under 10 % relative.
        assert!(
            (observed - expected).abs() / expected < 0.1,
            "observed {observed}, expected {expected}"
        );
    }

    #[test]
    fn clustered_head_lands_on_low_prefix() {
        let spec = SkewSpec::zipf_clustered(50_000, 4096, 1.2, 11);
        let keys = spec.keys();
        // With s = 1.2 over 4096 ranks, well over half the mass sits in
        // the first 1/4 of ranks → the first 1/4 of the ring.
        let low = keys.iter().filter(|&&k| k < u64::MAX / 4).count();
        assert!(
            low * 2 > keys.len(),
            "low-prefix share {}/{}",
            low,
            keys.len()
        );
    }

    #[test]
    fn scattered_head_spreads_over_ring() {
        let spec = SkewSpec::zipf_scattered(50_000, 4096, 1.2, 11);
        let keys = spec.keys();
        let mut quarters = [0usize; 4];
        for k in &keys {
            quarters[(k >> 62) as usize] += 1;
        }
        let max = *quarters.iter().max().unwrap();
        // No quarter of the ring dominates (the golden-ratio scramble
        // spreads even a skewed head).
        assert!(max < keys.len() / 2, "quarters {quarters:?}");
    }

    #[test]
    fn phases_rotate_the_hot_key() {
        let spec = SkewSpec::phase_shifting(40_000, 3000, 1.0, 20_000, 5);
        let keys = spec.keys();
        let top = |window: &[u64]| {
            let mut counts = std::collections::HashMap::new();
            for k in window {
                *counts.entry(*k).or_insert(0usize) += 1;
            }
            counts.into_iter().max_by_key(|&(_, c)| c).unwrap().0
        };
        let first = top(&keys[..20_000]);
        let second = top(&keys[20_000..]);
        assert_ne!(first, second, "hot key should move across phases");
    }
}
