//! Gear rolling hash (the FastCDC family's inner hash).
//!
//! Gear is dramatically simpler than Rabin — one table lookup, one shift
//! and one add per byte — at the cost of a shorter effective window
//! (64 bytes, one per output bit). It is the standard rolling hash for
//! modern content-defined chunkers and serves as the fast alternative to
//! [`crate::RabinHasher`] in `shhc-chunking`.

/// The 256-entry random table driving the gear hash.
///
/// Generated deterministically from a fixed seed with the SplitMix64
/// sequence so builds are reproducible.
pub static GEAR_TABLE: [u64; 256] = build_gear_table(0x5348_4843_2d31_3131); // "SHHC-111"

const fn build_gear_table(seed: u64) -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut state = seed;
    let mut i = 0;
    while i < 256 {
        // SplitMix64 step.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        table[i] = z ^ (z >> 31);
        i += 1;
    }
    table
}

/// Rolling gear hasher, one byte at a time.
///
/// `GearChunker` in `shhc-chunking` rolls the window warm-up with
/// [`roll`](Self::roll) and then scans four bytes a step straight over
/// [`GEAR_TABLE`]; `roll` stays the reference that scan is tested
/// against.
///
/// # Examples
///
/// ```
/// use shhc_hash::GearHasher;
///
/// let mut h = GearHasher::new();
/// for b in b"streamed content" {
///     h.roll(*b);
/// }
/// assert_ne!(h.value(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GearHasher {
    value: u64,
}

impl GearHasher {
    /// Creates a hasher with zeroed state.
    pub const fn new() -> Self {
        GearHasher { value: 0 }
    }

    /// Rolls one byte into the hash.
    #[inline]
    pub fn roll(&mut self, byte: u8) {
        self.value = (self.value << 1).wrapping_add(GEAR_TABLE[byte as usize]);
    }

    /// Current hash value. Only the most recent 64 bytes influence it.
    #[inline]
    pub const fn value(&self) -> u64 {
        self.value
    }

    /// Resets the hash to its initial state.
    pub fn reset(&mut self) {
        self.value = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn table_is_nontrivial() {
        let distinct: std::collections::HashSet<_> = GEAR_TABLE.iter().collect();
        assert_eq!(distinct.len(), 256, "all table entries distinct");
        assert!(GEAR_TABLE.iter().all(|&v| v != 0));
    }

    #[test]
    fn window_is_64_bytes() {
        // Bytes older than 64 positions have been shifted out entirely:
        // two streams with different prefixes but identical last 64 bytes
        // hash identically.
        let tail: Vec<u8> = (0..64u8).collect();
        let mut a = GearHasher::new();
        let mut b = GearHasher::new();
        for byte in b"prefix-one-" {
            a.roll(*byte);
        }
        for byte in b"a-completely-different-prefix" {
            b.roll(*byte);
        }
        for &byte in &tail {
            a.roll(byte);
            b.roll(byte);
        }
        assert_eq!(a.value(), b.value());
    }

    #[test]
    fn reset_clears_state() {
        let mut h = GearHasher::new();
        h.roll(42);
        h.reset();
        assert_eq!(h.value(), 0);
    }

    proptest! {
        #[test]
        fn sensitive_within_window(data in proptest::collection::vec(any::<u8>(), 64),
                                   idx in 32usize..64, delta in 1u8..=255) {
            // Changes in the second half of the window (high shift counts
            // not yet overflowed) must alter the value.
            let mut a = GearHasher::new();
            for &b in &data {
                a.roll(b);
            }
            let mut modified = data.clone();
            modified[idx] = modified[idx].wrapping_add(delta);
            let mut b = GearHasher::new();
            for &x in &modified {
                b.roll(x);
            }
            prop_assert_ne!(a.value(), b.value());
        }
    }
}
