//! Chunking: splitting backup streams into non-overlapping data blocks.
//!
//! The deduplication pipeline described in the SHHC paper "splits data into
//! chunks of non-overlapping data blocks, calculates a fingerprint for each
//! chunk … and stores the fingerprint in a chunk index". This crate
//! provides the splitting step:
//!
//! - [`FixedChunker`] — fixed-size blocks (the paper's evaluation uses
//!   fixed 4 KB / 8 KB chunks),
//! - [`RabinChunker`] — classic content-defined chunking with a Rabin
//!   rolling hash (LBFS-style), boundaries where the windowed fingerprint
//!   matches a mask,
//! - [`GearChunker`] — FastCDC-style gear-hash chunking with normalized
//!   cut-point selection.
//!
//! All chunkers implement [`Chunker`] and yield [`Chunk`]s carrying the
//! SHA-1 [`Fingerprint`] of their content.
//!
//! # Examples
//!
//! ```
//! use shhc_chunking::{Chunker, FixedChunker};
//!
//! let data = vec![7u8; 10_000];
//! let chunker = FixedChunker::new(4096);
//! let chunks: Vec<_> = chunker.chunk(&data).collect();
//! assert_eq!(chunks.len(), 3);
//! assert_eq!(chunks[0].data.len(), 4096);
//! assert_eq!(chunks[2].data.len(), 10_000 - 2 * 4096);
//! // Identical content ⇒ identical fingerprints.
//! assert_eq!(chunks[0].fingerprint, chunks[1].fingerprint);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cdc;
mod fixed;

pub use cdc::{GearChunker, RabinChunker};
pub use fixed::FixedChunker;

use shhc_hash::fingerprint_of;
use shhc_types::Fingerprint;

/// One chunk cut from an input stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    /// Byte offset of the chunk within the input.
    pub offset: usize,
    /// The chunk's content.
    pub data: Vec<u8>,
    /// SHA-1 fingerprint of `data`.
    pub fingerprint: Fingerprint,
}

impl Chunk {
    /// Length of the chunk in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the chunk carries no bytes (never produced by chunkers).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// A strategy for splitting a byte stream into chunks.
///
/// Implementations must be deterministic: the same input always yields the
/// same chunk sequence. Every byte of input appears in exactly one chunk,
/// in order. A chunker only decides where chunks end ([`Chunker::cut`]);
/// walking the input, copying and fingerprinting are provided on top of
/// that, so every chunker shares one driver.
///
/// Chunkers are `Sync`: `BackupService::backup` searches for cut points on
/// a helper thread while the calling thread fingerprints the chunks (and
/// the helper, once it has cut everything, fingerprints from the back).
pub trait Chunker: Sync {
    /// Length of the next chunk at the front of `rest` (non-empty).
    ///
    /// The driver clamps the answer to `1..=rest.len()`.
    fn cut(&self, rest: &[u8]) -> usize;

    /// Lazily yields the chunk end offsets (exclusive) of `data` — no
    /// copying, no hashing.
    fn cuts<'a>(&'a self, data: &'a [u8]) -> Cuts<'a, Self> {
        Cuts {
            chunker: self,
            data,
            pos: 0,
        }
    }

    /// Splits `data`, returning an iterator over owned, fingerprinted
    /// chunks.
    fn chunk<'a>(&'a self, data: &'a [u8]) -> Box<dyn Iterator<Item = Chunk> + 'a> {
        let mut start = 0;
        Box::new(self.cuts(data).map(move |end| {
            let block = &data[start..end];
            let chunk = Chunk {
                offset: start,
                data: block.to_vec(),
                fingerprint: fingerprint_of(block),
            };
            start = end;
            chunk
        }))
    }

    /// Returns only the cut-point offsets (chunk end positions, exclusive).
    fn boundaries(&self, data: &[u8]) -> Vec<usize> {
        self.cuts(data).collect()
    }
}

/// Iterator over a chunker's cut points; see [`Chunker::cuts`].
#[derive(Debug)]
pub struct Cuts<'a, C: ?Sized> {
    chunker: &'a C,
    data: &'a [u8],
    pos: usize,
}

impl<C: Chunker + ?Sized> Iterator for Cuts<'_, C> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let rest = &self.data[self.pos..];
        if rest.is_empty() {
            return None;
        }
        self.pos += self.chunker.cut(rest).clamp(1, rest.len());
        Some(self.pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn ends_from_chunks<C: Chunker>(chunker: &C, data: &[u8]) -> Vec<usize> {
        chunker.chunk(data).map(|c| c.offset + c.len()).collect()
    }

    #[test]
    fn chunk_len_and_empty() {
        let c = Chunk {
            offset: 0,
            data: vec![1, 2, 3],
            fingerprint: Fingerprint::ZERO,
        };
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn boundaries_equal_chunk_ends(seed: u64, len in 0usize..20_000) {
            let mut data = vec![0u8; len];
            StdRng::seed_from_u64(seed).fill_bytes(&mut data);
            let fixed = FixedChunker::new(700);
            let rabin = RabinChunker::new(64, 256, 1024);
            let gear = GearChunker::new(64, 256, 1024);
            prop_assert_eq!(fixed.boundaries(&data), ends_from_chunks(&fixed, &data));
            prop_assert_eq!(rabin.boundaries(&data), ends_from_chunks(&rabin, &data));
            prop_assert_eq!(gear.boundaries(&data), ends_from_chunks(&gear, &data));
        }
    }
}
