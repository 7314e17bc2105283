//! From-scratch hash primitives used across the SHHC reproduction.
//!
//! The paper fingerprints chunks with SHA-1 and relies on uniformly
//! distributed hashes for routing, bucketing and bloom filters. This crate
//! implements every hash the workspace needs without external
//! dependencies:
//!
//! - [`Sha1`] — the RFC 3174 digest used for chunk fingerprints,
//! - [`xxh64`] — fast 64-bit hash used for bloom-filter double hashing
//!   over arbitrary byte keys,
//! - [`RabinHasher`] — rolling Rabin fingerprint over a sliding window,
//!   used by the content-defined chunker,
//! - [`GearHasher`] — the gear rolling hash used by the FastCDC-style
//!   chunker.
//!
//! # SHA-1 dispatch
//!
//! [`Sha1`] hands every whole 64-byte block of an update to one
//! compression core, and that core has two bodies producing identical
//! digests: on x86-64, when `is_x86_feature_detected!` reports `sha`,
//! `ssse3` and `sse4.1` at run time, the CPU's SHA-extension rounds;
//! everywhere else — other CPUs, other targets — the portable RFC 3174
//! rounds, which are also the oracle the tests hold the first body to.
//! Nothing selects between them but the CPU: no feature, variable or
//! option. The accelerated body is ordinary safe code inside a
//! `#[target_feature]` function, so the only thing the compiler cannot
//! check is that the CPU really executes those instructions. The crate is
//! therefore `deny(unsafe_code)` with a single exemption, the call from
//! the dispatcher into that function, which is sound because the
//! detection that guards it sits on the lines directly above it.
//!
//! # Examples
//!
//! ```
//! use shhc_hash::Sha1;
//!
//! let digest = Sha1::digest(b"abc");
//! assert_eq!(
//!     digest.to_hex(),
//!     "a9993e364706816aba3e25717850c26c9cd0d89d",
//! );
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod gear;
mod rabin;
mod sha1;
mod xxh;

pub use gear::{GearHasher, GEAR_TABLE};
pub use rabin::{is_irreducible, RabinHasher, RabinTables, DEFAULT_IRREDUCIBLE_POLY};
pub use sha1::{Digest, Sha1};
pub use xxh::xxh64;

// The fingerprint-aware `std::hash` plumbing lives in `shhc-types` (next
// to `Fingerprint` itself) but belongs to this crate's vocabulary too.
pub use shhc_types::{FingerprintBuildHasher, FingerprintHasher, FpHashMap, FpHashSet};

use shhc_types::Fingerprint;

/// Computes the SHA-1 fingerprint of a chunk of data.
///
/// This is the fingerprinting function of the paper's client application:
/// every chunk is identified by the SHA-1 digest of its content.
///
/// # Examples
///
/// ```
/// use shhc_hash::fingerprint_of;
///
/// let fp = fingerprint_of(b"hello world");
/// assert_eq!(fp.to_hex(), "2aae6c35c94fcfb415dbe95f408b9ce91ee846ed");
/// ```
pub fn fingerprint_of(data: &[u8]) -> Fingerprint {
    Fingerprint::from_bytes(Sha1::digest(data).into_bytes())
}
