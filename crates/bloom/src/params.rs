//! Bloom filter parameter mathematics.

/// Solved bloom-filter parameters.
///
/// # Examples
///
/// ```
/// use shhc_bloom::BloomParams;
///
/// let p = BloomParams::optimal(1_000_000, 0.01);
/// // The classic ~9.6 bits/key, 7 hashes for 1% FPR.
/// assert!(p.bits_per_key() > 9.0 && p.bits_per_key() < 10.5);
/// assert_eq!(p.hashes, 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BloomParams {
    /// Number of bits in the filter (`m`).
    pub bits: u64,
    /// Number of hash probes per key (`k`).
    pub hashes: u32,
    /// The number of insertions the filter was sized for (`n`).
    pub expected_items: u64,
}

impl BloomParams {
    /// Computes the optimal `m` and `k` for `n` expected insertions and a
    /// target false-positive rate `p`.
    ///
    /// Uses `m = −n·ln p / (ln 2)²` and `k = (m/n)·ln 2`, clamped to at
    /// least 64 bits and one hash.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 1)` or `n` is zero — both indicate a
    /// configuration bug, not a runtime condition.
    pub fn optimal(n: u64, p: f64) -> Self {
        assert!(n > 0, "expected_items must be nonzero");
        assert!(p > 0.0 && p < 1.0, "false-positive rate must be in (0,1)");
        let ln2 = std::f64::consts::LN_2;
        let m = (-(n as f64) * p.ln() / (ln2 * ln2)).ceil().max(64.0);
        let k = ((m / n as f64) * ln2).round().max(1.0);
        BloomParams {
            bits: m as u64,
            hashes: k as u32,
            expected_items: n,
        }
    }

    /// Bits of memory per expected key.
    pub fn bits_per_key(&self) -> f64 {
        self.bits as f64 / self.expected_items as f64
    }

    /// Predicted false-positive rate once `inserted` keys are present:
    /// `(1 − e^(−k·i/m))^k`.
    #[cfg(test)]
    pub(crate) fn expected_fpr(&self, inserted: u64) -> f64 {
        let k = self.hashes as f64;
        let exponent = -k * inserted as f64 / self.bits as f64;
        (1.0 - exponent.exp()).powf(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_percent_is_seven_hashes() {
        let p = BloomParams::optimal(1_000_000, 0.01);
        assert_eq!(p.hashes, 7);
        let bpk = p.bits_per_key();
        assert!((9.0..10.5).contains(&bpk), "bits/key {bpk}");
    }

    #[test]
    fn lower_fpr_needs_more_bits() {
        let loose = BloomParams::optimal(10_000, 0.05);
        let tight = BloomParams::optimal(10_000, 0.001);
        assert!(tight.bits > loose.bits);
        assert!(tight.hashes >= loose.hashes);
    }

    #[test]
    fn predicted_fpr_at_capacity_matches_target() {
        let p = BloomParams::optimal(100_000, 0.01);
        let fpr = p.expected_fpr(100_000);
        assert!((0.005..0.02).contains(&fpr), "fpr at design capacity {fpr}");
    }

    #[test]
    fn fpr_grows_with_load() {
        let p = BloomParams::optimal(1000, 0.01);
        assert!(p.expected_fpr(100) < p.expected_fpr(1000));
        assert!(p.expected_fpr(1000) < p.expected_fpr(10_000));
    }

    #[test]
    fn minimum_sizes() {
        let p = BloomParams::optimal(1, 0.5);
        assert!(p.bits >= 64);
        assert!(p.hashes >= 1);
    }

    #[test]
    #[should_panic(expected = "false-positive rate")]
    fn bad_rate_panics() {
        let _ = BloomParams::optimal(10, 1.5);
    }
}
