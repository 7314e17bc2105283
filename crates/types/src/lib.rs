//! Shared identifiers, fingerprints and error types for the SHHC
//! reproduction.
//!
//! This crate defines the vocabulary the rest of the workspace speaks:
//! [`Fingerprint`] (a SHA-1 digest of a chunk), [`ChunkId`], [`NodeId`],
//! [`Nanos`] and the common [`Error`] type used by fallible substrate
//! operations.
//!
//! # Examples
//!
//! ```
//! use shhc_types::Fingerprint;
//!
//! let fp = Fingerprint::from_bytes([0xab; 20]);
//! assert_eq!(fp.to_hex().len(), 40);
//! assert_eq!(fp, "abababababababababababababababababababab".parse().unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod fingerprint;
mod fphash;
mod ids;
mod range;
mod time;

pub use error::{Error, Result};
pub use fingerprint::{Fingerprint, ParseFingerprintError, FINGERPRINT_LEN};
pub use fphash::{FingerprintBuildHasher, FingerprintHasher, FpHashMap, FpHashSet};
pub use ids::{ChunkId, ClientId, NodeId, StreamId, PENDING_VALUE};
pub use range::KeyRange;
pub use time::Nanos;
