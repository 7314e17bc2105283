//! Zipf-skewed fingerprint streams.
//!
//! Popularity in a backup stream follows a Zipf law: a few chunks recur
//! far more often than the rest. This module generates seeded,
//! reproducible Zipf streams of fingerprints:
//!
//! - [`ZipfSampler`] — exact inverse-CDF Zipf(s) sampling over a bounded
//!   rank space, with the theoretical top-1 mass exposed for tests,
//! - [`SkewSpec`] — a trace spec (length, rank space, exponent, seed)
//!   whose fingerprints are the SHA-1 of the sampled rank, as a chunk's
//!   fingerprint is the SHA-1 of its content. The skew is in how often a
//!   fingerprint recurs, never in where it lands on the ring.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shhc_hash::fingerprint_of;
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
    #[cfg(test)]
    pub(crate) fn top1_mass(&self) -> f64 {
        self.cdf[0]
    }

    /// Draws one rank in `0..ranks()` (0 = most popular).
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u) as u64
    }
}

/// A seeded Zipf trace of SHA-1 fingerprints: rank `r` (0 = most
/// popular) becomes [`fingerprint_of`] its little-endian bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct SkewSpec {
    /// Total fingerprints to generate.
    pub ops: usize,
    /// Ranks are drawn from `0..keyspace`.
    pub keyspace: u64,
    /// Zipf exponent `s` (0 = uniform, ~1 = web-trace skew).
    pub exponent: f64,
    /// RNG seed.
    pub seed: u64,
}

impl SkewSpec {
    /// A Zipf(`exponent`) trace of `ops` draws over `keyspace` ranks.
    pub fn new(ops: usize, keyspace: u64, exponent: f64, seed: u64) -> Self {
        SkewSpec {
            ops,
            keyspace,
            exponent,
            seed,
        }
    }

    /// Theoretical frequency of the most popular fingerprint.
    #[cfg(test)]
    pub(crate) fn top1_mass(&self) -> f64 {
        ZipfSampler::new(self.keyspace, self.exponent).top1_mass()
    }

    /// Generates the sampled ranks.
    pub fn ranks(&self) -> Vec<u64> {
        let sampler = ZipfSampler::new(self.keyspace, self.exponent);
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..self.ops).map(|_| sampler.sample(&mut rng)).collect()
    }

    /// The fingerprint of rank `rank`.
    pub fn fingerprint(rank: u64) -> Fingerprint {
        fingerprint_of(&rank.to_le_bytes())
    }

    /// Generates the fingerprint stream.
    pub fn fingerprints(&self) -> Vec<Fingerprint> {
        self.ranks().into_iter().map(Self::fingerprint).collect()
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
        let spec = SkewSpec::new(5000, 4096, 1.0, 42);
        assert_eq!(spec.ranks(), spec.ranks());
        assert_eq!(spec.fingerprints(), spec.fingerprints());
        let other = SkewSpec::new(5000, 4096, 1.0, 43);
        assert_ne!(spec.ranks(), other.ranks());
    }

    #[test]
    fn top1_frequency_matches_theory() {
        let spec = SkewSpec::new(200_000, 1024, 1.0, 7);
        let top = SkewSpec::fingerprint(0);
        let hits = spec.fingerprints().iter().filter(|&&f| f == top).count();
        let observed = hits as f64 / spec.ops as f64;
        let expected = spec.top1_mass();
        // 1/H(1024, 1) ≈ 0.133; 200k draws put the sample error well
        // under 10 % relative.
        assert!(
            (observed - expected).abs() / expected < 0.1,
            "observed {observed}, expected {expected}"
        );
    }

    #[test]
    fn scattered_head_spreads_over_ring() {
        let spec = SkewSpec::new(50_000, 4096, 1.2, 11);
        let fps = spec.fingerprints();
        let mut quarters = [0usize; 4];
        for f in &fps {
            quarters[(f.route_key() >> 62) as usize] += 1;
        }
        let max = *quarters.iter().max().unwrap();
        // No quarter of the ring dominates: SHA-1 spreads even a skewed
        // head.
        assert!(max < fps.len() / 2, "quarters {quarters:?}");
    }
}
