//! Rabin fingerprinting over GF(2) with a sliding window.
//!
//! This is the rolling hash classically used for content-defined chunking
//! in deduplication systems (LBFS, and the chunkers referenced by the SHHC
//! paper). A byte stream is interpreted as a polynomial over GF(2) and the
//! fingerprint is its residue modulo an irreducible polynomial `P`.
//! Appending a byte and expiring the oldest byte of a fixed window are both
//! O(1) via precomputed tables.

/// Degree-53 irreducible polynomial used by default.
///
/// This is a well-known chunking polynomial (also used by the restic
/// chunker); its irreducibility is verified by a Ben-Or test in this
/// crate's test suite.
pub const DEFAULT_IRREDUCIBLE_POLY: u64 = 0x003D_A335_8B4D_C173;

/// Precomputed lookup tables binding a polynomial to a window size.
///
/// Building tables is O(256·deg); rolling with them is O(1) per byte.
/// Tables are immutable and can be shared across many hashers.
///
/// # Examples
///
/// ```
/// use shhc_hash::{RabinHasher, RabinTables, DEFAULT_IRREDUCIBLE_POLY};
///
/// let tables = RabinTables::new(DEFAULT_IRREDUCIBLE_POLY, 48);
/// let mut h = RabinHasher::new(&tables);
/// for b in b"some streamed backup data" {
///     h.roll(*b);
/// }
/// assert_ne!(h.fingerprint(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct RabinTables {
    degree: u32,
    mask: u64,
    window: usize,
    /// `append[hi]` = (hi · x^degree) mod P — reduces the byte shifted out
    /// of the top when appending.
    append: [u64; 256],
    /// `expire[b]` = (b · x^(8·window)) mod P — removes the contribution of
    /// the byte leaving the window.
    expire: [u64; 256],
}

impl RabinTables {
    /// Builds tables for polynomial `poly` (must have degree ≥ 9, i.e. the
    /// value must be ≥ 512) and a sliding window of `window` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `poly < 512` or `window == 0`; these are programmer
    /// errors, not runtime conditions.
    pub fn new(poly: u64, window: usize) -> Self {
        assert!(poly >= 512, "polynomial degree must be at least 9");
        assert!(window > 0, "window must be nonzero");
        let degree = 63 - poly.leading_zeros();
        let mask = (1u64 << degree) - 1;

        let mut append = [0u64; 256];
        for (hi, slot) in append.iter_mut().enumerate() {
            *slot = gf2_mod((hi as u128) << degree, poly, degree);
        }

        // expire[b] = b · x^(8·(window−1)) mod P: the oldest byte's
        // contribution at the moment it is expired, which in
        // `RabinHasher::roll` happens *before* the shift by one byte.
        let mut expire = [0u64; 256];
        for (b, slot) in expire.iter_mut().enumerate() {
            let mut f = b as u64;
            for _ in 0..window - 1 {
                f = gf2_mod((f as u128) << 8, poly, degree);
            }
            *slot = f;
        }

        RabinTables {
            degree,
            mask,
            window,
            append,
            expire,
        }
    }

    /// The window size in bytes.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Degree of the polynomial (number of significant fingerprint bits).
    #[cfg(test)]
    pub(crate) fn degree(&self) -> u32 {
        self.degree
    }
}

/// Rolling Rabin hasher over a fixed-size window.
///
/// Bytes enter with [`RabinHasher::roll`]; once more than `window` bytes
/// have been rolled in, the oldest byte's contribution is expired
/// automatically, so [`RabinHasher::fingerprint`] always covers exactly the
/// last `window` bytes (fewer during warm-up).
#[derive(Debug, Clone)]
pub struct RabinHasher<'t> {
    tables: &'t RabinTables,
    fingerprint: u64,
    ring: Vec<u8>,
    pos: usize,
    filled: bool,
}

impl<'t> RabinHasher<'t> {
    /// Creates a hasher with an empty window.
    pub fn new(tables: &'t RabinTables) -> Self {
        RabinHasher {
            tables,
            fingerprint: 0,
            ring: vec![0; tables.window],
            pos: 0,
            filled: false,
        }
    }

    /// Rolls one byte into the window (expiring the oldest if full).
    #[inline]
    pub fn roll(&mut self, byte: u8) {
        let t = self.tables;
        if self.filled {
            let out = self.ring[self.pos];
            self.fingerprint ^= t.expire[out as usize];
        }
        self.ring[self.pos] = byte;
        self.pos += 1;
        if self.pos == t.window {
            self.pos = 0;
            self.filled = true;
        }

        let shifted = (self.fingerprint << 8) | byte as u64;
        // After the shift, bits ≥ degree need reduction. Because
        // fingerprint < 2^degree, the overflow fits in 8 bits.
        let hi = (shifted >> t.degree) as usize;
        self.fingerprint = t.append[hi] ^ (shifted & t.mask);
    }

    /// Current fingerprint of the window contents.
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Resets the window to empty without reallocating.
    pub fn reset(&mut self) {
        self.fingerprint = 0;
        self.ring.iter_mut().for_each(|b| *b = 0);
        self.pos = 0;
        self.filled = false;
    }

    /// True once the window has seen at least `window` bytes.
    #[cfg(test)]
    pub(crate) fn is_warm(&self) -> bool {
        self.filled
    }
}

/// Reduces a GF(2) polynomial `v` modulo `p` (of degree `degree`).
fn gf2_mod(mut v: u128, p: u64, degree: u32) -> u64 {
    let p = p as u128;
    while v >> degree != 0 {
        let shift = (127 - v.leading_zeros()) - degree;
        v ^= p << shift;
    }
    v as u64
}

/// Multiplies two GF(2) polynomials modulo `p`.
fn gf2_mulmod(a: u64, b: u64, p: u64, degree: u32) -> u64 {
    let mut acc: u128 = 0;
    let a = a as u128;
    for i in 0..64 {
        if (b >> i) & 1 == 1 {
            acc ^= a << i;
        }
    }
    gf2_mod(acc, p, degree)
}

/// GCD of two GF(2) polynomials.
fn gf2_gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let deg_b = 63 - b.leading_zeros();
        let r = gf2_mod(a as u128, b, deg_b);
        a = b;
        b = r;
    }
    a
}

/// Ben-Or irreducibility test for a GF(2) polynomial.
///
/// `p` is irreducible iff for every `i ≤ deg(p)/2`,
/// `gcd(p, x^(2^i) − x) = 1`. Rabin fingerprinting requires an
/// irreducible modulus for its collision guarantees, so callers supplying
/// their own polynomial to [`RabinTables::new`] should validate it here
/// first.
///
/// # Examples
///
/// ```
/// use shhc_hash::{is_irreducible, DEFAULT_IRREDUCIBLE_POLY};
/// assert!(is_irreducible(DEFAULT_IRREDUCIBLE_POLY));
/// assert!(!is_irreducible(0b101)); // (x+1)² is reducible
/// ```
pub fn is_irreducible(p: u64) -> bool {
    if p < 4 {
        return false;
    }
    let degree = 63 - p.leading_zeros();
    // x^(2^i) mod p by repeated squaring of x.
    let mut xpow = 2u64; // the polynomial "x"
    for _ in 1..=degree / 2 {
        xpow = gf2_mulmod(xpow, xpow, p, degree);
        let g = gf2_gcd(p, xpow ^ 2);
        if g != 1 {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tables() -> RabinTables {
        RabinTables::new(DEFAULT_IRREDUCIBLE_POLY, 16)
    }

    #[test]
    fn default_poly_is_irreducible() {
        assert!(is_irreducible(DEFAULT_IRREDUCIBLE_POLY));
    }

    #[test]
    fn reducible_polys_detected() {
        // x^2 = x·x is reducible; (x+1)^2 = x^2+1 = 0b101 reducible.
        assert!(!is_irreducible(0b100));
        assert!(!is_irreducible(0b101));
        // x^2 + x + 1 is the unique irreducible quadratic.
        assert!(is_irreducible(0b111));
        // x^3 + x + 1 irreducible.
        assert!(is_irreducible(0b1011));
        // x^3 + x^2 + x + 1 = (x+1)(x^2+1) reducible.
        assert!(!is_irreducible(0b1111));
    }

    #[test]
    fn window_slide_matches_fresh_hash() {
        // Rolling a long stream must equal hashing just the last W bytes.
        let t = tables();
        let data: Vec<u8> = (0..200u16).map(|i| (i * 31 % 251) as u8).collect();

        let mut rolling = RabinHasher::new(&t);
        for &b in &data {
            rolling.roll(b);
        }

        let mut fresh = RabinHasher::new(&t);
        for &b in &data[data.len() - t.window()..] {
            fresh.roll(b);
        }
        assert_eq!(rolling.fingerprint(), fresh.fingerprint());
    }

    #[test]
    fn fingerprint_fits_in_degree_bits() {
        let t = tables();
        let mut h = RabinHasher::new(&t);
        for b in 0..=255u8 {
            h.roll(b);
            assert!(h.fingerprint() < (1 << t.degree()));
        }
    }

    #[test]
    fn reset_restores_initial_state() {
        let t = tables();
        let mut h = RabinHasher::new(&t);
        for b in b"abcdefgh" {
            h.roll(*b);
        }
        h.reset();
        assert_eq!(h.fingerprint(), 0);
        assert!(!h.is_warm());
        let mut fresh = RabinHasher::new(&t);
        for b in b"xy" {
            h.roll(*b);
            fresh.roll(*b);
        }
        assert_eq!(h.fingerprint(), fresh.fingerprint());
    }

    #[test]
    fn warm_up_flag() {
        let t = RabinTables::new(DEFAULT_IRREDUCIBLE_POLY, 4);
        let mut h = RabinHasher::new(&t);
        for (i, b) in [1u8, 2, 3, 4, 5].iter().enumerate() {
            assert_eq!(h.is_warm(), i >= 4);
            h.roll(*b);
        }
        assert!(h.is_warm());
    }

    #[test]
    #[should_panic(expected = "window must be nonzero")]
    fn zero_window_panics() {
        let _ = RabinTables::new(DEFAULT_IRREDUCIBLE_POLY, 0);
    }

    proptest! {
        /// The sliding property: for any stream, the rolling fingerprint
        /// equals the fingerprint of the trailing window computed fresh.
        #[test]
        fn sliding_property(data in proptest::collection::vec(any::<u8>(), 17..256)) {
            let t = tables();
            let mut rolling = RabinHasher::new(&t);
            for &b in &data {
                rolling.roll(b);
            }
            let mut fresh = RabinHasher::new(&t);
            for &b in &data[data.len() - t.window()..] {
                fresh.roll(b);
            }
            prop_assert_eq!(rolling.fingerprint(), fresh.fingerprint());
        }

        /// Content sensitivity: changing a byte inside the window changes
        /// the fingerprint (P is irreducible, window < degree·8 keeps
        /// collisions essentially impossible for single-byte flips).
        #[test]
        fn window_content_sensitivity(mut data in proptest::collection::vec(any::<u8>(), 16),
                                      idx in 0usize..16, delta in 1u8..=255) {
            let t = tables();
            let mut a = RabinHasher::new(&t);
            for &b in &data {
                a.roll(b);
            }
            data[idx] = data[idx].wrapping_add(delta);
            let mut b = RabinHasher::new(&t);
            for &x in &data {
                b.roll(x);
            }
            prop_assert_ne!(a.fingerprint(), b.fingerprint());
        }
    }
}
