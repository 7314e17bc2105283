//! The classic bit-array bloom filter.

use crate::{probes, BloomParams};

/// A space-efficient probabilistic set: membership queries may return
/// false positives (tunable rate) but never false negatives.
///
/// SHHC keeps one filter per hash node summarizing every fingerprint in
/// the node's on-SSD table; a negative answer lets the node skip the SSD
/// probe entirely on the (common, for low-redundancy workloads) "new
/// chunk" path.
///
/// # Examples
///
/// ```
/// use shhc_bloom::BloomFilter;
///
/// let mut bloom = BloomFilter::with_rate(1000, 0.01);
/// for key in 0u32..100 {
///     bloom.insert(&key.to_le_bytes());
/// }
/// assert!((0u32..100).all(|k| bloom.contains(&k.to_le_bytes())));
/// assert_eq!(bloom.len(), 100);
/// ```
#[derive(Debug, Clone)]
pub struct BloomFilter {
    params: BloomParams,
    bits: Vec<u64>,
    inserted: u64,
}

impl BloomFilter {
    /// Creates a filter from explicit parameters.
    pub fn new(params: BloomParams) -> Self {
        let words = params.bits.div_ceil(64) as usize;
        BloomFilter {
            params,
            bits: vec![0; words],
            inserted: 0,
        }
    }

    /// Creates a filter sized for `expected_items` insertions at target
    /// false-positive rate `rate`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `(0, 1)` or `expected_items` is zero.
    pub fn with_rate(expected_items: u64, rate: f64) -> Self {
        Self::new(BloomParams::optimal(expected_items, rate))
    }

    /// Inserts a key. Idempotent with respect to membership.
    pub fn insert(&mut self, key: &[u8]) {
        let m = self.params.bits;
        for pos in probes(key, self.params.hashes, m) {
            self.bits[(pos / 64) as usize] |= 1 << (pos % 64);
        }
        self.inserted += 1;
    }

    /// Tests membership. False positives possible; false negatives not.
    pub fn contains(&self, key: &[u8]) -> bool {
        let m = self.params.bits;
        probes(key, self.params.hashes, m)
            .all(|pos| self.bits[(pos / 64) as usize] & (1 << (pos % 64)) != 0)
    }

    /// Number of `insert` calls so far (an upper bound on distinct keys).
    pub fn len(&self) -> u64 {
        self.inserted
    }

    /// True if nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.inserted == 0
    }

    /// The filter's parameters.
    pub fn params(&self) -> BloomParams {
        self.params
    }

    /// Fraction of bits set — a direct measure of saturation.
    #[cfg(test)]
    pub(crate) fn fill_ratio(&self) -> f64 {
        let set: u64 = self.bits.iter().map(|w| w.count_ones() as u64).sum();
        set as f64 / self.params.bits as f64
    }

    /// Clears the filter to empty without reallocating.
    pub fn clear(&mut self) {
        self.bits.iter_mut().for_each(|w| *w = 0);
        self.inserted = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn no_false_negatives_ever() {
        let mut bloom = BloomFilter::with_rate(5_000, 0.01);
        let keys: Vec<[u8; 8]> = (0u64..5_000).map(|i| i.to_le_bytes()).collect();
        for k in &keys {
            bloom.insert(k);
        }
        for k in &keys {
            assert!(bloom.contains(k));
        }
    }

    #[test]
    fn measured_fpr_near_target() {
        let n = 20_000u64;
        let mut bloom = BloomFilter::with_rate(n, 0.01);
        for i in 0..n {
            bloom.insert(&i.to_le_bytes());
        }
        // Query keys disjoint from the inserted set.
        let trials = 50_000u64;
        let fp = (0..trials)
            .filter(|i| bloom.contains(&(i + 1_000_000_000).to_le_bytes()))
            .count();
        let rate = fp as f64 / trials as f64;
        assert!(rate < 0.03, "measured FPR {rate} far above 1% target");
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let bloom = BloomFilter::with_rate(100, 0.01);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let key: [u8; 16] = rng.gen();
            assert!(!bloom.contains(&key));
        }
        assert!(bloom.is_empty());
    }

    #[test]
    fn clear_resets() {
        let mut bloom = BloomFilter::with_rate(100, 0.01);
        bloom.insert(b"x");
        assert!(bloom.contains(b"x"));
        bloom.clear();
        assert!(!bloom.contains(b"x"));
        assert_eq!(bloom.len(), 0);
        assert_eq!(bloom.fill_ratio(), 0.0);
    }

    #[test]
    fn fill_ratio_grows_monotonically() {
        let mut bloom = BloomFilter::with_rate(1000, 0.01);
        let mut last = 0.0;
        for i in 0u64..1000 {
            bloom.insert(&i.to_le_bytes());
            if i % 100 == 0 {
                let r = bloom.fill_ratio();
                assert!(r >= last);
                last = r;
            }
        }
        // At design load, fill ratio should be near 50% (optimal k).
        let r = bloom.fill_ratio();
        assert!((0.4..0.6).contains(&r), "fill ratio {r}");
    }

    proptest! {
        /// The defining property: anything inserted is always found.
        #[test]
        fn prop_no_false_negatives(keys in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..40), 1..200)) {
            let mut bloom = BloomFilter::with_rate(1000, 0.05);
            for k in &keys {
                bloom.insert(k);
            }
            for k in &keys {
                prop_assert!(bloom.contains(k));
            }
        }
    }
}
