//! Seeded input generation. The program under test receives only what
//! these functions produce; the same seed gives the same inputs.

use shhc_hash::xxh64;
use shhc_types::Fingerprint;

/// SplitMix64's increment.
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// One SplitMix64 step on `x`: a bijection on `u64`, so distinct indices
/// give distinct fingerprints.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(GAMMA);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(mix64(seed))
    }

    pub fn next_u64(&mut self) -> u64 {
        let out = mix64(self.0);
        self.0 = self.0.wrapping_add(GAMMA);
        out
    }

    /// Uniform in `0..n` (multiply-shift; the bias at these sizes is
    /// below 2⁻⁴⁰).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for c in &mut chunks {
            c.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rest = chunks.into_remainder();
        let tail = self.next_u64().to_le_bytes();
        rest.copy_from_slice(&tail[..rest.len()]);
    }
}

/// Member `index` of the seed's fingerprint population: ring-uniform
/// (the route key is a mixed 64-bit value) and unique per index.
pub fn fingerprint(seed: u64, index: u64) -> Fingerprint {
    Fingerprint::from_u64(mix64(index ^ mix64(seed)))
}

/// Running digest of everything offered to the program, so two runs can
/// prove they used the same inputs.
#[derive(Debug, Clone, Copy)]
pub struct InputsDigest(u64);

impl InputsDigest {
    pub fn new(seed: u64) -> Self {
        InputsDigest(mix64(seed))
    }

    pub fn bytes(&mut self, data: &[u8]) {
        self.0 = xxh64(data, self.0);
    }

    pub fn word(&mut self, w: u64) {
        self.0 = mix64(self.0 ^ w);
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// A seeded backup image that mutates in place, generation by
/// generation, in fixed-size extents at seeded offsets.
pub struct Image {
    pub data: Vec<u8>,
    rng: Rng,
}

/// Size of one overwritten extent.
pub const EXTENT: usize = 16 * 1024;

impl Image {
    pub fn new(seed: u64, len: usize) -> Self {
        let mut rng = Rng::new(seed ^ 0x0069_6d61_6765); // "image"
        let mut data = vec![0u8; len];
        rng.fill(&mut data);
        Image { data, rng }
    }

    /// Overwrites `extents` extents with fresh bytes; returns the byte
    /// offsets touched (for the digest).
    pub fn mutate(&mut self, extents: usize, digest: &mut InputsDigest) {
        let slots = (self.data.len() / EXTENT) as u64;
        for _ in 0..extents {
            let at = self.rng.below(slots) as usize * EXTENT;
            self.rng.fill(&mut self.data[at..at + EXTENT]);
            digest.word(at as u64);
            digest.bytes(&self.data[at..at + 64]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_are_unique_and_seeded() {
        let a: Vec<_> = (0..1000).map(|i| fingerprint(1, i)).collect();
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), a.len());
        assert_eq!(fingerprint(1, 5), fingerprint(1, 5));
        assert_ne!(fingerprint(1, 5), fingerprint(2, 5));
    }

    #[test]
    fn below_stays_in_range_and_fill_covers_tail() {
        let mut r = Rng::new(3);
        assert!((0..10_000).all(|_| r.below(7) < 7));
        let mut buf = [0u8; 13];
        r.fill(&mut buf);
        assert!(buf[8..].iter().any(|&b| b != 0));
    }

    #[test]
    fn image_mutation_repeats_for_a_seed() {
        let run = |seed| {
            let mut d = InputsDigest::new(seed);
            let mut img = Image::new(seed, 1 << 20);
            d.bytes(&img.data);
            img.mutate(8, &mut d);
            d.value()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}
