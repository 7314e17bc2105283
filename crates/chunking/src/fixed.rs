//! Fixed-size chunking.

use crate::Chunker;

/// Splits input into fixed-size blocks (the last block may be shorter).
///
/// This is the chunking used throughout the SHHC evaluation: 8 KB chunks
/// for the Time-machine workload, 4 KB for the FIU traces.
///
/// # Examples
///
/// ```
/// use shhc_chunking::{Chunker, FixedChunker};
///
/// let chunker = FixedChunker::new(8 * 1024);
/// let data = vec![0u8; 20 * 1024];
/// let sizes: Vec<usize> = chunker.chunk(&data).map(|c| c.data.len()).collect();
/// assert_eq!(sizes, [8192, 8192, 4096]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedChunker {
    size: usize,
}

impl FixedChunker {
    /// Creates a chunker producing `size`-byte blocks.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "chunk size must be nonzero");
        FixedChunker { size }
    }

    /// The configured block size.
    pub fn size(&self) -> usize {
        self.size
    }
}

impl Chunker for FixedChunker {
    fn cut(&self, _rest: &[u8]) -> usize {
        self.size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_input_yields_no_chunks() {
        let chunker = FixedChunker::new(8);
        assert_eq!(chunker.chunk(&[]).count(), 0);
        assert!(chunker.boundaries(&[]).is_empty());
    }

    #[test]
    fn exact_multiple() {
        let chunker = FixedChunker::new(4);
        let data = [1u8; 12];
        let chunks: Vec<_> = chunker.chunk(&data).collect();
        assert_eq!(chunks.len(), 3);
        assert!(chunks.iter().all(|c| c.data.len() == 4));
        assert_eq!(chunker.boundaries(&data), vec![4, 8, 12]);
    }

    #[test]
    fn offsets_are_contiguous() {
        let chunker = FixedChunker::new(5);
        let data: Vec<u8> = (0..23).collect();
        let chunks: Vec<_> = chunker.chunk(&data).collect();
        let mut pos = 0;
        for c in &chunks {
            assert_eq!(c.offset, pos);
            pos += c.data.len();
        }
        assert_eq!(pos, data.len());
    }

    #[test]
    fn reassembly_is_identity() {
        let chunker = FixedChunker::new(7);
        let data: Vec<u8> = (0..100u8).collect();
        let rebuilt: Vec<u8> = chunker.chunk(&data).flat_map(|c| c.data).collect();
        assert_eq!(rebuilt, data);
    }

    #[test]
    #[should_panic(expected = "chunk size must be nonzero")]
    fn zero_size_panics() {
        let _ = FixedChunker::new(0);
    }

    proptest! {
        #[test]
        fn boundaries_match_chunk_iter(data in proptest::collection::vec(any::<u8>(), 0..300),
                                       size in 1usize..40) {
            let chunker = FixedChunker::new(size);
            let from_iter: Vec<usize> =
                chunker.chunk(&data).map(|c| c.offset + c.data.len()).collect();
            prop_assert_eq!(chunker.boundaries(&data), from_iter);
        }
    }
}
