//! The 160-bit chunk fingerprint type.

use std::fmt;
use std::str::FromStr;

/// Length in bytes of a [`Fingerprint`] (SHA-1 digest size).
pub const FINGERPRINT_LEN: usize = 20;

/// A 160-bit content fingerprint of a data chunk.
///
/// SHHC identifies chunks by the SHA-1 digest of their content, exactly as
/// the paper does. The type is a thin, copyable wrapper around the 20 raw
/// digest bytes and provides the derived keys the rest of the system needs:
/// a routing key for ring placement ([`Fingerprint::route_key`]) and bucket
/// keys for the on-flash table ([`Fingerprint::bucket_key`]).
///
/// # Examples
///
/// ```
/// use shhc_types::Fingerprint;
///
/// let fp = Fingerprint::from_bytes([7; 20]);
/// assert_ne!(fp.route_key(), 0);
/// assert_eq!(fp, fp.to_hex().parse().unwrap());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Fingerprint([u8; FINGERPRINT_LEN]);

impl Fingerprint {
    /// The all-zero fingerprint. Useful as a sentinel in fixed-size records.
    pub const ZERO: Fingerprint = Fingerprint([0; FINGERPRINT_LEN]);

    /// Creates a fingerprint from its raw digest bytes.
    pub const fn from_bytes(bytes: [u8; FINGERPRINT_LEN]) -> Self {
        Fingerprint(bytes)
    }

    /// Creates a fingerprint whose first eight bytes encode `v` (big
    /// endian) and whose remaining bytes are a deterministic mix of `v`.
    ///
    /// This is a convenience for tests and synthetic workloads: distinct
    /// `v` always produce distinct fingerprints, and the bit mixing keeps
    /// the value spread uniformly enough for routing experiments.
    pub fn from_u64(v: u64) -> Self {
        let mut b = [0u8; FINGERPRINT_LEN];
        b[..8].copy_from_slice(&v.to_be_bytes());
        // SplitMix64-style finalizers fill the tail so that the low bytes
        // are well distributed even for small sequential inputs.
        let mut x = v.wrapping_add(0x9e37_79b9_7f4a_7c15);
        for chunk in b[8..].chunks_mut(8) {
            x ^= x >> 30;
            x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x ^= x >> 27;
            x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^= x >> 31;
            let bytes = x.to_be_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&bytes[..n]);
        }
        Fingerprint(b)
    }

    /// Returns the raw digest bytes.
    pub const fn as_bytes(&self) -> &[u8; FINGERPRINT_LEN] {
        &self.0
    }

    /// Consumes the fingerprint, returning the raw digest bytes.
    pub const fn into_bytes(self) -> [u8; FINGERPRINT_LEN] {
        self.0
    }

    /// Returns the first eight digest bytes as a big-endian `u64`.
    ///
    /// Because SHA-1 output is uniformly distributed, this prefix is the
    /// natural key for placing the fingerprint on the hash ring — the same
    /// trick the paper's "each node holds a range of hash values" relies
    /// on.
    pub fn route_key(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("slice length is 8"))
    }

    /// Returns bytes 8..16 as a big-endian `u64`.
    ///
    /// This second, independent 64-bit view is used for bucket selection in
    /// on-flash tables and for bloom-filter double hashing, so that routing
    /// and bucketing decisions are not correlated.
    pub fn bucket_key(&self) -> u64 {
        u64::from_be_bytes(self.0[8..16].try_into().expect("slice length is 8"))
    }

    /// Returns the trailing four bytes as a big-endian `u32`, a compact
    /// checksum used by compact in-RAM signatures (ChunkStash-style).
    pub fn tag32(&self) -> u32 {
        u32::from_be_bytes(self.0[16..20].try_into().expect("slice length is 4"))
    }

    /// Formats the fingerprint as a 40-character lowercase hex string.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(FINGERPRINT_LEN * 2);
        for b in &self.0 {
            s.push(HEX[(b >> 4) as usize] as char);
            s.push(HEX[(b & 0xf) as usize] as char);
        }
        s
    }
}

const HEX: &[u8; 16] = b"0123456789abcdef";

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fingerprint({})", self.to_hex())
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl From<[u8; FINGERPRINT_LEN]> for Fingerprint {
    fn from(bytes: [u8; FINGERPRINT_LEN]) -> Self {
        Fingerprint(bytes)
    }
}

impl From<Fingerprint> for [u8; FINGERPRINT_LEN] {
    fn from(fp: Fingerprint) -> Self {
        fp.0
    }
}

impl AsRef<[u8]> for Fingerprint {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// Error returned when parsing a [`Fingerprint`] from hex fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFingerprintError {
    kind: ParseErrorKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ParseErrorKind {
    Length(usize),
    Digit(char),
}

impl fmt::Display for ParseFingerprintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ParseErrorKind::Length(n) => {
                write!(
                    f,
                    "expected {} hex characters, found {n}",
                    FINGERPRINT_LEN * 2
                )
            }
            ParseErrorKind::Digit(c) => write!(f, "invalid hex digit {c:?}"),
        }
    }
}

impl std::error::Error for ParseFingerprintError {}

impl FromStr for Fingerprint {
    type Err = ParseFingerprintError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.len() != FINGERPRINT_LEN * 2 {
            return Err(ParseFingerprintError {
                kind: ParseErrorKind::Length(s.len()),
            });
        }
        let mut out = [0u8; FINGERPRINT_LEN];
        let bytes = s.as_bytes();
        for (i, slot) in out.iter_mut().enumerate() {
            let hi = hex_val(bytes[2 * i]).ok_or(ParseFingerprintError {
                kind: ParseErrorKind::Digit(bytes[2 * i] as char),
            })?;
            let lo = hex_val(bytes[2 * i + 1]).ok_or(ParseFingerprintError {
                kind: ParseErrorKind::Digit(bytes[2 * i + 1] as char),
            })?;
            *slot = (hi << 4) | lo;
        }
        Ok(Fingerprint(out))
    }
}

fn hex_val(c: u8) -> Option<u8> {
    match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        b'A'..=b'F' => Some(c - b'A' + 10),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trip() {
        let fp = Fingerprint::from_u64(0xdead_beef_cafe_f00d);
        let hex = fp.to_hex();
        assert_eq!(hex.len(), 40);
        let back: Fingerprint = hex.parse().expect("parse back");
        assert_eq!(fp, back);
    }

    #[test]
    fn parse_rejects_bad_length() {
        let err = "abcd".parse::<Fingerprint>().unwrap_err();
        assert!(err.to_string().contains("40 hex characters"));
    }

    #[test]
    fn parse_rejects_bad_digit() {
        let s = "zz".repeat(20);
        let err = s.parse::<Fingerprint>().unwrap_err();
        assert!(err.to_string().contains("invalid hex digit"));
    }

    #[test]
    fn parse_accepts_uppercase() {
        let fp = Fingerprint::from_bytes([0xAB; 20]);
        let upper = fp.to_hex().to_uppercase();
        assert_eq!(upper.parse::<Fingerprint>().unwrap(), fp);
    }

    #[test]
    fn from_u64_is_injective_on_prefix() {
        let a = Fingerprint::from_u64(1);
        let b = Fingerprint::from_u64(2);
        assert_ne!(a, b);
        assert_eq!(a.route_key(), 1);
        assert_eq!(b.route_key(), 2);
    }

    #[test]
    fn keys_read_expected_byte_ranges() {
        let mut bytes = [0u8; 20];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = i as u8;
        }
        let fp = Fingerprint::from_bytes(bytes);
        assert_eq!(fp.route_key(), u64::from_be_bytes([0, 1, 2, 3, 4, 5, 6, 7]));
        assert_eq!(
            fp.bucket_key(),
            u64::from_be_bytes([8, 9, 10, 11, 12, 13, 14, 15])
        );
        assert_eq!(fp.tag32(), u32::from_be_bytes([16, 17, 18, 19]));
    }

    #[test]
    fn display_matches_hex() {
        let fp = Fingerprint::from_u64(42);
        assert_eq!(format!("{fp}"), fp.to_hex());
        assert!(format!("{fp:?}").starts_with("Fingerprint("));
    }

    #[test]
    fn zero_is_default() {
        assert_eq!(Fingerprint::default(), Fingerprint::ZERO);
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = Fingerprint::from_bytes([0; 20]);
        let mut high = [0; 20];
        high[0] = 1;
        let b = Fingerprint::from_bytes(high);
        assert!(a < b);
    }
}
