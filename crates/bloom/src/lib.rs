//! Bloom filters for the in-RAM summary of the on-SSD fingerprint table.
//!
//! Each SHHC hybrid node keeps "a bloom filter … to represent the hash
//! values in the database" so that lookups for fingerprints that are *not*
//! stored can usually be answered without touching the SSD at all. This
//! crate provides:
//!
//! - [`BloomFilter`] — the classic bit-array filter with double hashing,
//! - [`BloomParams`] — the usual parameter solver (optimal `m`, `k` from
//!   expected insertions and target false-positive rate).
//!
//! # Examples
//!
//! ```
//! use shhc_bloom::BloomFilter;
//!
//! let mut bloom = BloomFilter::with_rate(10_000, 0.01);
//! bloom.insert(b"fingerprint-1");
//! assert!(bloom.contains(b"fingerprint-1"));   // never a false negative
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod filter;
mod params;

pub use filter::BloomFilter;
pub use params::BloomParams;

/// Derives the two independent 64-bit hashes used for double hashing.
///
/// Kirsch–Mitzenmacher: probe `i` uses `h1 + i·h2`, which preserves the
/// asymptotic false-positive rate of `k` independent hashes.
pub(crate) fn double_hash(key: &[u8]) -> (u64, u64) {
    let h1 = shhc_hash::xxh64(key, 0x5348_4843);
    // Seeding the second hash with the first decorrelates them even for
    // adversarially similar keys.
    let h2 = shhc_hash::xxh64(key, h1 | 1);
    (h1, h2 | 1) // force h2 odd so probes cycle through all positions
}

/// Iterator over the `k` probe positions for a key in a filter of `m` bits.
pub(crate) fn probes(key: &[u8], k: u32, m: u64) -> impl Iterator<Item = u64> {
    let (h1, h2) = double_hash(key);
    (0..k as u64).map(move |i| (h1.wrapping_add(i.wrapping_mul(h2))) % m)
}
