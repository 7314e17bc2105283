//! Fingerprint-space partitioning for the hash cluster.
//!
//! SHHC distributes the fingerprint space across hash nodes "like the
//! Chord system … each node holds a range of hash values", but — unlike
//! Chord — runs in a structured, relatively static datacenter environment
//! where every front-end knows the full routing table. This crate
//! provides the partitioning and the machinery to reason about it:
//!
//! - [`ConsistentHashRing`] — virtual-node consistent hashing (balanced
//!   and minimally disruptive on membership change),
//! - [`RingView`] + [`MigrationPlan`] — immutable, epoch-stamped ring
//!   snapshots and the exact ownership diff between consecutive epochs,
//!   the machinery behind online membership changes (join/drain under
//!   live traffic).
//!
//! # Examples
//!
//! ```
//! use shhc_ring::{ConsistentHashRing, Partitioner};
//! use shhc_types::{Fingerprint, NodeId};
//!
//! let ring = ConsistentHashRing::with_nodes(4, 64);
//! let fp = Fingerprint::from_u64(12345);
//! let owner = ring.route_fingerprint(fp);
//! assert!(owner.index() < 4);
//! // Routing is deterministic.
//! assert_eq!(owner, ring.route_fingerprint(fp));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod epoch;
mod ring;

pub use epoch::{MigrationPlan, RangeMove, RingView};
pub use ring::ConsistentHashRing;

use shhc_types::{Fingerprint, NodeId};

/// A strategy assigning 64-bit routing keys to cluster nodes.
///
/// Implementations are deterministic and total: every key maps to exactly
/// one node.
pub trait Partitioner {
    /// Routes a 64-bit key to its owning node.
    fn route(&self, key: u64) -> NodeId;

    /// Number of nodes currently in the partition map.
    fn node_count(&self) -> usize;

    /// Routes a fingerprint via its [`Fingerprint::route_key`] prefix.
    fn route_fingerprint(&self, fp: Fingerprint) -> NodeId {
        self.route(fp.route_key())
    }
}

/// Counts how many of `keys` land on each node — the measurement behind
/// the paper's Figure 6 (load-balance) experiment.
///
/// # Examples
///
/// ```
/// use shhc_ring::{load_distribution, ConsistentHashRing};
///
/// let ring = ConsistentHashRing::with_nodes(4, 128);
/// let counts = load_distribution(&ring, (0..10_000u64).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15)));
/// assert_eq!(counts.len(), 4);
/// assert_eq!(counts.iter().sum::<u64>(), 10_000);
/// ```
pub fn load_distribution<P: Partitioner + ?Sized>(
    partitioner: &P,
    keys: impl Iterator<Item = u64>,
) -> Vec<u64> {
    let mut counts = vec![0u64; partitioner.node_count()];
    for key in keys {
        counts[partitioner.route(key).index()] += 1;
    }
    counts
}

/// Fraction of `keys` whose owner differs between two partitioners —
/// the disruption metric for membership changes.
pub fn moved_fraction<A: Partitioner + ?Sized, B: Partitioner + ?Sized>(
    before: &A,
    after: &B,
    keys: impl Iterator<Item = u64>,
) -> f64 {
    let mut total = 0u64;
    let mut moved = 0u64;
    for key in keys {
        total += 1;
        if before.route(key) != after.route(key) {
            moved += 1;
        }
    }
    if total == 0 {
        0.0
    } else {
        moved as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_distribution_sums_to_total() {
        let ring = ConsistentHashRing::with_nodes(3, 16);
        let counts = load_distribution(&ring, 0..1000u64);
        assert_eq!(counts.iter().sum::<u64>(), 1000);
    }

    #[test]
    fn moved_fraction_zero_for_identical() {
        let a = ConsistentHashRing::with_nodes(4, 64);
        let b = ConsistentHashRing::with_nodes(4, 64);
        assert_eq!(moved_fraction(&a, &b, 0..500u64), 0.0);
    }
}
