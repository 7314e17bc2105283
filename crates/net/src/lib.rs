//! Networking substrate for the SHHC cluster.
//!
//! The paper's cluster nodes talk over 1 GbE; the front-ends "aggregate
//! fingerprints from clients and send them as a batch to hybrid nodes".
//! This crate provides the pieces that stand in for that fabric:
//!
//! - [`Frame`] + [`encode`]/[`decode`] — a length-prefixed, versioned wire
//!   format for a transport between processes (the in-process cluster
//!   sends typed requests over channels and encodes nothing),
//! - [`NetModel`] — the link cost model (per-message overhead, RTT,
//!   bandwidth) used to account virtual network time,
//! - [`SharedBatcher`] + [`Ticket`] — the thread-safe *cross-client*
//!   aggregator behind the paper's Figure-4 request flow: submissions
//!   from any client thread join one shared queue and receive a blocking
//!   completion ticket; one cluster round-trip answers a whole batch
//!   through index-mapped demux; a batch leaves when it is full or when
//!   one of its clients blocks on it, so its size follows load with
//!   nothing to tune,
//! - [`AdmissionPolicy`] — bounded admission in front of the shared
//!   queue: blocking backpressure, fail-fast shedding
//!   (`Error::Overloaded`), or per-tenant fair shedding, so a front-end
//!   degrades gracefully instead of queue-collapsing once the cluster
//!   behind it saturates.
//!
//! # Examples
//!
//! ```
//! use shhc_net::{decode, encode, Frame};
//! use shhc_types::{Fingerprint, StreamId};
//!
//! let frame = Frame::LookupInsertReq {
//!     correlation: 7,
//!     stream: StreamId::new(1),
//!     fingerprints: vec![Fingerprint::from_u64(42)],
//! };
//! let bytes = encode(&frame);
//! assert_eq!(decode(&bytes).unwrap(), frame);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod model;
mod samples;
mod shared;
mod wire;

pub use admission::{AdmissionPolicy, DEFAULT_MAX_PENDING};
pub use model::NetModel;
pub use samples::{RingReader, SampleRing};
pub use shared::{
    CloseReason, ClosedBatch, SharedBatcher, SharedBatcherStats, Submitted, Ticket, PART,
};
pub use wire::{
    decode, encode, encode_into, encoded_len, lookup_req_len, lookup_resp_len, Frame, WIRE_VERSION,
};
