//! Content-defined chunking (CDC).
//!
//! CDC places chunk boundaries where a rolling hash of the trailing window
//! matches a target pattern, so insertions or deletions only disturb the
//! chunks near the edit ("shift resistance"). Two variants:
//!
//! - [`RabinChunker`]: LBFS-style, boundary when
//!   `rabin(window) & mask == mask` (expected chunk size `2^bits`), with
//!   hard min/max bounds.
//! - [`GearChunker`]: FastCDC-style normalized chunking — a stricter mask
//!   before the target size and a looser one after, which tightens the
//!   size distribution around the target.

use shhc_hash::{GearHasher, RabinHasher, RabinTables, DEFAULT_IRREDUCIBLE_POLY};

use crate::Chunker;

/// Validated (min, target, max) chunk-size bounds shared by both CDC
/// chunkers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SizeBounds {
    min: usize,
    target: usize,
    max: usize,
}

impl SizeBounds {
    fn new(min: usize, target: usize, max: usize) -> Self {
        assert!(min > 0, "min chunk size must be nonzero");
        assert!(
            min <= target && target <= max,
            "require min ≤ target ≤ max, got {min} ≤ {target} ≤ {max}"
        );
        assert!(
            target.is_power_of_two(),
            "target chunk size must be a power of two (mask-based cut detection)"
        );
        SizeBounds { min, target, max }
    }
}

/// LBFS-style Rabin content-defined chunker.
///
/// # Examples
///
/// ```
/// use shhc_chunking::{Chunker, RabinChunker};
///
/// // 2 KiB min, 8 KiB target, 64 KiB max — LBFS-like parameters.
/// let chunker = RabinChunker::new(2048, 8192, 65536);
/// let data: Vec<u8> = (0u32..100_000).map(|i| (i.wrapping_mul(2654435761) >> 24) as u8).collect();
/// let chunks: Vec<_> = chunker.chunk(&data).collect();
/// let rebuilt: Vec<u8> = chunks.iter().flat_map(|c| c.data.clone()).collect();
/// assert_eq!(rebuilt, data);
/// ```
#[derive(Debug, Clone)]
pub struct RabinChunker {
    bounds: SizeBounds,
    tables: RabinTables,
    mask: u64,
}

impl RabinChunker {
    /// Standard rolling-window width in bytes (as in LBFS).
    pub const WINDOW: usize = 48;

    /// Creates a chunker with the given size bounds using the default
    /// irreducible polynomial.
    ///
    /// `target` must be a power of two; the boundary probability is tuned
    /// so the *expected* chunk size equals `target`.
    ///
    /// # Panics
    ///
    /// Panics if `min == 0`, bounds are not ordered, or `target` is not a
    /// power of two.
    pub fn new(min: usize, target: usize, max: usize) -> Self {
        Self::with_poly(min, target, max, DEFAULT_IRREDUCIBLE_POLY)
    }

    /// Creates a chunker with a caller-chosen irreducible polynomial.
    ///
    /// # Panics
    ///
    /// Same conditions as [`RabinChunker::new`].
    pub fn with_poly(min: usize, target: usize, max: usize, poly: u64) -> Self {
        let bounds = SizeBounds::new(min, target, max);
        let mask = (target as u64) - 1;
        RabinChunker {
            bounds,
            tables: RabinTables::new(poly, Self::WINDOW),
            mask,
        }
    }

    /// Minimum chunk size.
    pub fn min_size(&self) -> usize {
        self.bounds.min
    }

    /// Target (expected) chunk size.
    pub fn target_size(&self) -> usize {
        self.bounds.target
    }

    /// Maximum chunk size.
    pub fn max_size(&self) -> usize {
        self.bounds.max
    }
}

impl Chunker for RabinChunker {
    fn cut(&self, data: &[u8]) -> usize {
        let n = data.len();
        if n <= self.bounds.min {
            return n;
        }
        let end = n.min(self.bounds.max);
        let mut hasher = RabinHasher::new(&self.tables);
        // Warm the window over the bytes before the earliest legal cut so
        // the hash at position `min` covers a full window where possible.
        let warm_start = self.bounds.min.saturating_sub(Self::WINDOW);
        for &b in &data[warm_start..self.bounds.min] {
            hasher.roll(b);
        }
        for (i, &b) in data[self.bounds.min..end].iter().enumerate() {
            hasher.roll(b);
            if hasher.fingerprint() & self.mask == self.mask {
                return self.bounds.min + i + 1;
            }
        }
        end
    }
}

/// FastCDC-style chunker using the gear rolling hash with normalized
/// cut-point selection.
///
/// Before the target size a mask with two extra set bits is used (cuts are
/// 4× rarer); after the target a mask with two fewer bits (cuts 4× more
/// likely). This squeezes the chunk-size distribution toward the target
/// compared to plain gear/Rabin chunking.
///
/// # Examples
///
/// ```
/// use shhc_chunking::{Chunker, GearChunker};
///
/// let chunker = GearChunker::new(2048, 8192, 65536);
/// let data: Vec<u8> = (0u32..50_000).map(|i| (i.wrapping_mul(0x9E3779B9) >> 16) as u8).collect();
/// let total: usize = chunker.chunk(&data).map(|c| c.data.len()).sum();
/// assert_eq!(total, data.len());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct GearChunker {
    bounds: SizeBounds,
    mask_strict: u64,
    mask_loose: u64,
}

impl GearChunker {
    /// Creates a chunker with the given size bounds.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`RabinChunker::new`].
    pub fn new(min: usize, target: usize, max: usize) -> Self {
        let bounds = SizeBounds::new(min, target, max);
        let bits = target.trailing_zeros();
        // Masks use the *high* bits of the gear value: gear hashes mix new
        // bytes into the low bits first, so high bits depend on the whole
        // 64-byte window.
        let strict_bits = (bits + 2).min(48);
        let loose_bits = bits.saturating_sub(2).max(1);
        GearChunker {
            bounds,
            mask_strict: high_mask(strict_bits),
            mask_loose: high_mask(loose_bits),
        }
    }

    /// Minimum chunk size.
    pub fn min_size(&self) -> usize {
        self.bounds.min
    }

    /// Target chunk size.
    pub fn target_size(&self) -> usize {
        self.bounds.target
    }

    /// Maximum chunk size.
    pub fn max_size(&self) -> usize {
        self.bounds.max
    }
}

impl Chunker for GearChunker {
    fn cut(&self, data: &[u8]) -> usize {
        let n = data.len();
        if n <= self.bounds.min {
            return n;
        }
        let end = n.min(self.bounds.max);
        let normal = self.bounds.target.min(end);
        let mut gear = GearHasher::new();

        // FastCDC skips the sub-min prefix entirely (gear's window is only
        // 64 bytes, warming inside the skipped region is enough).
        let warm_start = self.bounds.min.saturating_sub(64);
        for &b in &data[warm_start..self.bounds.min] {
            gear.roll(b);
        }

        for (i, &b) in data[self.bounds.min..normal].iter().enumerate() {
            gear.roll(b);
            if gear.value() & self.mask_strict == 0 {
                return self.bounds.min + i + 1;
            }
        }
        for (i, &b) in data[normal..end].iter().enumerate() {
            gear.roll(b);
            if gear.value() & self.mask_loose == 0 {
                return normal + i + 1;
            }
        }
        end
    }
}

fn high_mask(bits: u32) -> u64 {
    debug_assert!(bits > 0 && bits <= 63);
    !0u64 << (64 - bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    fn random_data(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut v = vec![0u8; len];
        rng.fill_bytes(&mut v);
        v
    }

    fn check_reassembly<C: Chunker>(chunker: &C, data: &[u8]) {
        let rebuilt: Vec<u8> = chunker.chunk(data).flat_map(|c| c.data).collect();
        assert_eq!(rebuilt, data);
    }

    fn check_bounds<C: Chunker>(chunker: &C, data: &[u8], min: usize, max: usize) {
        let chunks: Vec<_> = chunker.chunk(data).collect();
        for (i, c) in chunks.iter().enumerate() {
            assert!(c.data.len() <= max, "chunk {i} exceeds max");
            if i + 1 != chunks.len() {
                assert!(c.data.len() >= min, "non-final chunk {i} under min");
            }
        }
    }

    #[test]
    fn rabin_respects_bounds_and_reassembles() {
        let chunker = RabinChunker::new(256, 1024, 4096);
        let data = random_data(100_000, 42);
        check_reassembly(&chunker, &data);
        check_bounds(&chunker, &data, 256, 4096);
    }

    #[test]
    fn gear_respects_bounds_and_reassembles() {
        let chunker = GearChunker::new(256, 1024, 4096);
        let data = random_data(100_000, 43);
        check_reassembly(&chunker, &data);
        check_bounds(&chunker, &data, 256, 4096);
    }

    #[test]
    fn rabin_mean_chunk_size_near_target() {
        let chunker = RabinChunker::new(64, 1024, 16 * 1024);
        let data = random_data(2_000_000, 7);
        let n = chunker.chunk(&data).count();
        let mean = data.len() / n;
        // Expected size ≈ target (+ min offset); allow a generous band.
        assert!(
            (400..=2600).contains(&mean),
            "mean chunk size {mean} not within band around 1024"
        );
    }

    #[test]
    fn gear_mean_chunk_size_near_target() {
        let chunker = GearChunker::new(64, 1024, 16 * 1024);
        let data = random_data(2_000_000, 8);
        let n = chunker.chunk(&data).count();
        let mean = data.len() / n;
        assert!(
            (400..=2600).contains(&mean),
            "mean chunk size {mean} not within band around 1024"
        );
    }

    #[test]
    fn cdc_is_shift_resistant() {
        // Insert bytes near the front; the cut points after the edit
        // region must re-synchronize, i.e. most fingerprints are shared.
        let chunker = RabinChunker::new(128, 512, 4096);
        let original = random_data(200_000, 11);
        let mut edited = original.clone();
        let insert = random_data(64, 12);
        for (i, b) in insert.iter().enumerate() {
            edited.insert(1000 + i, *b);
        }

        let fps_a: std::collections::HashSet<_> =
            chunker.chunk(&original).map(|c| c.fingerprint).collect();
        let fps_b: Vec<_> = chunker.chunk(&edited).map(|c| c.fingerprint).collect();
        let shared = fps_b.iter().filter(|fp| fps_a.contains(fp)).count();
        let ratio = shared as f64 / fps_b.len() as f64;
        assert!(
            ratio > 0.9,
            "only {ratio:.2} of chunks survived a 64-byte insertion"
        );
    }

    #[test]
    fn fixed_chunking_is_not_shift_resistant_contrast() {
        // Contrast test documenting *why* CDC exists: with fixed-size
        // chunking the same insertion invalidates almost every chunk.
        use crate::FixedChunker;
        let chunker = FixedChunker::new(512);
        let original = random_data(200_000, 11);
        let mut edited = original.clone();
        edited.insert(1000, 0xAA);

        let fps_a: std::collections::HashSet<_> =
            chunker.chunk(&original).map(|c| c.fingerprint).collect();
        let fps_b: Vec<_> = chunker.chunk(&edited).map(|c| c.fingerprint).collect();
        let shared = fps_b.iter().filter(|fp| fps_a.contains(fp)).count();
        let ratio = shared as f64 / fps_b.len() as f64;
        assert!(
            ratio < 0.1,
            "fixed chunking unexpectedly survived the shift: {ratio:.2}"
        );
    }

    #[test]
    fn deterministic_across_calls() {
        let chunker = GearChunker::new(128, 512, 2048);
        let data = random_data(50_000, 3);
        let a: Vec<_> = chunker.chunk(&data).collect();
        let b: Vec<_> = chunker.chunk(&data).collect();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_target_panics() {
        let _ = RabinChunker::new(100, 1000, 10_000);
    }

    #[test]
    #[should_panic(expected = "min ≤ target ≤ max")]
    fn unordered_bounds_panic() {
        let _ = GearChunker::new(4096, 1024, 512);
    }

    #[test]
    fn tiny_inputs() {
        let chunker = RabinChunker::new(128, 512, 2048);
        assert_eq!(chunker.chunk(&[]).count(), 0);
        let one = [42u8];
        let chunks: Vec<_> = chunker.chunk(&one).collect();
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].data, vec![42]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_reassembly_rabin(seed: u64, len in 0usize..20_000) {
            let chunker = RabinChunker::new(64, 256, 1024);
            let mut rng = StdRng::seed_from_u64(seed);
            let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            let rebuilt: Vec<u8> = chunker.chunk(&data).flat_map(|c| c.data).collect();
            prop_assert_eq!(rebuilt, data);
        }

        #[test]
        fn prop_bounds_gear(seed: u64, len in 1usize..20_000) {
            let chunker = GearChunker::new(64, 256, 1024);
            let mut rng = StdRng::seed_from_u64(seed);
            let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            let chunks: Vec<_> = chunker.chunk(&data).collect();
            for (i, c) in chunks.iter().enumerate() {
                prop_assert!(c.data.len() <= 1024);
                if i + 1 != chunks.len() {
                    prop_assert!(c.data.len() >= 64);
                }
            }
        }
    }
}
