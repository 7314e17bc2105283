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

use shhc_hash::{GearHasher, RabinHasher, RabinTables, DEFAULT_IRREDUCIBLE_POLY, GEAR_TABLE};

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
        let bounds = SizeBounds::new(min, target, max);
        let mask = (target as u64) - 1;
        RabinChunker {
            bounds,
            tables: RabinTables::new(DEFAULT_IRREDUCIBLE_POLY, Self::WINDOW),
            mask,
        }
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
/// The cut search rolls four bytes a step: the gear value's loop-carried
/// work is one shift and one add per step instead of per byte, and one
/// branch tests the four values against the mask. The cuts are exactly
/// those of [`GearHasher::roll`] applied byte by byte, which the tests
/// keep as the oracle.
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

        let mut value = gear.value();
        let min = self.bounds.min;
        if let Some(len) = gear_scan(&mut value, &data[min..normal], self.mask_strict) {
            return min + len;
        }
        if let Some(len) = gear_scan(&mut value, &data[normal..end], self.mask_loose) {
            return normal + len;
        }
        end
    }
}

/// Rolls `bytes` into the gear value `value` and returns the length of
/// the shortest prefix after which `value & mask == 0`, or `None` (with
/// `value` rolled over all of `bytes`) if there is none.
///
/// Four bytes a step: from `x`, the value after byte `j` of the step is
/// `(x << j) + t_j` with `t_j = 2·t_(j-1) + T[byte j]`, and the `t_j`
/// do not depend on `x`. So the only work carried from one step to the
/// next is `x = (x << 4) + t_4`, and one branch tests all four values.
/// The result is exactly that of [`GearHasher::roll`] byte by byte.
#[inline]
fn gear_scan(value: &mut u64, bytes: &[u8], mask: u64) -> Option<usize> {
    let mut x = *value;
    let mut done = 0;
    let mut steps = bytes.chunks_exact(4);
    for b in steps.by_ref() {
        let t1 = GEAR_TABLE[b[0] as usize];
        let t2 = (t1 << 1).wrapping_add(GEAR_TABLE[b[1] as usize]);
        let t3 = (t2 << 1).wrapping_add(GEAR_TABLE[b[2] as usize]);
        let t4 = (t3 << 1).wrapping_add(GEAR_TABLE[b[3] as usize]);
        let lanes = [
            (x << 1).wrapping_add(t1),
            (x << 2).wrapping_add(t2),
            (x << 3).wrapping_add(t3),
            (x << 4).wrapping_add(t4),
        ];
        // Non-short-circuit `|` over `u8`s: one branch for the step.
        let hits = (lanes[0] & mask == 0) as u8
            | (lanes[1] & mask == 0) as u8
            | (lanes[2] & mask == 0) as u8
            | (lanes[3] & mask == 0) as u8;
        if hits != 0 {
            let lane = lanes.iter().position(|v| v & mask == 0)?;
            return Some(done + lane + 1);
        }
        x = lanes[3];
        done += 4;
    }
    for (i, &b) in steps.remainder().iter().enumerate() {
        x = (x << 1).wrapping_add(GEAR_TABLE[b as usize]);
        if x & mask == 0 {
            return Some(done + i + 1);
        }
    }
    *value = x;
    None
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

    /// The cut [`GearChunker::cut`] must equal: [`GearHasher::roll`]
    /// over one byte at a time. Returns the cut and, when a mask hit made
    /// it, the hit's lane (its place within a four-byte scan step).
    fn reference_cut(chunker: &GearChunker, data: &[u8]) -> (usize, Option<usize>) {
        let SizeBounds { min, target, max } = chunker.bounds;
        let n = data.len();
        if n <= min {
            return (n, None);
        }
        let end = n.min(max);
        let normal = target.min(end);
        let mut gear = GearHasher::new();
        for &b in &data[min.saturating_sub(64)..min] {
            gear.roll(b);
        }
        for (i, &b) in data.iter().enumerate().take(end).skip(min) {
            gear.roll(b);
            let (mask, from) = if i < normal {
                (chunker.mask_strict, min)
            } else {
                (chunker.mask_loose, normal)
            };
            if gear.value() & mask == 0 {
                return (i + 1, Some((i - from) % 4));
            }
        }
        (end, None)
    }

    /// Walks `data` with both cuts, asserting they agree; returns how
    /// many mask hits landed on each lane.
    fn check_against_reference(chunker: &GearChunker, data: &[u8]) -> [usize; 4] {
        let mut lanes = [0; 4];
        let mut pos = 0;
        while pos < data.len() {
            let (len, lane) = reference_cut(chunker, &data[pos..]);
            assert_eq!(chunker.cut(&data[pos..]), len, "cut at offset {pos}");
            if let Some(lane) = lane {
                lanes[lane] += 1;
            }
            pos += len;
        }
        lanes
    }

    #[test]
    fn gear_cut_hits_every_lane_of_a_step() {
        // Bounds that are not multiples of four, so the scan's steps and
        // its per-byte tail start at every alignment.
        for chunker in [
            GearChunker::new(64, 256, 1024),
            GearChunker::new(61, 256, 1021),
        ] {
            let lanes = check_against_reference(&chunker, &random_data(1_000_003, 21));
            assert!(
                lanes.iter().all(|&hits| hits > 100),
                "hits per lane {lanes:?}"
            );
        }
    }

    #[test]
    fn gear_cut_matches_reference_on_constant_inputs() {
        let chunker = GearChunker::new(61, 256, 1021);
        for byte in [0x00, 0xFF] {
            for len in [0, 1, 60, 61, 62, 255, 256, 1021, 1022, 100_003] {
                check_against_reference(&chunker, &vec![byte; len]);
            }
        }
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

    // No `with_cases`: CI's `PROPTEST_CASES=1024` step widens this block.
    proptest! {
        #[test]
        fn prop_gear_cut_matches_per_byte_roll(seed: u64, len in 0usize..20_000, fill in 0u8..3) {
            let mut data = random_data(len, seed);
            match fill {
                0 => {}
                1 => data.fill(0x00),
                _ => data.fill(0xFF),
            }
            for chunker in [
                GearChunker::new(64, 256, 1024),
                GearChunker::new(61, 256, 1021),
            ] {
                check_against_reference(&chunker, &data);
            }
        }
    }
}
