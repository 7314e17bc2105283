//! Consistent hashing with virtual nodes.

use std::collections::BTreeMap;

use shhc_hash::xxh64;
use shhc_types::NodeId;

use crate::Partitioner;

/// A consistent-hash ring with virtual nodes.
///
/// Each physical node is hashed onto the 64-bit ring at `vnodes` points; a
/// key is owned by the first point at or after it (wrapping). Virtual
/// nodes smooth the per-node share toward `1/n`, and membership changes
/// move only the ranges adjacent to the added/removed points — the two
/// properties SHHC needs from its "relatively static" DHT.
///
/// # Examples
///
/// ```
/// use shhc_ring::{ConsistentHashRing, Partitioner};
/// use shhc_types::NodeId;
///
/// let mut ring = ConsistentHashRing::with_nodes(3, 64);
/// assert_eq!(ring.node_count(), 3);
/// ring.add_node(NodeId::new(3));
/// assert_eq!(ring.node_count(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct ConsistentHashRing {
    points: BTreeMap<u64, NodeId>,
    vnodes: u32,
    nodes: Vec<NodeId>,
}

impl ConsistentHashRing {
    /// Creates an empty ring with the given virtual-node count per node.
    ///
    /// # Panics
    ///
    /// Panics if `vnodes` is zero.
    pub fn new(vnodes: u32) -> Self {
        assert!(vnodes > 0, "virtual node count must be nonzero");
        ConsistentHashRing {
            points: BTreeMap::new(),
            vnodes,
            nodes: Vec::new(),
        }
    }

    /// Creates a ring populated with nodes `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `vnodes` is zero.
    pub fn with_nodes(n: u32, vnodes: u32) -> Self {
        assert!(n > 0, "need at least one node");
        let mut ring = Self::new(vnodes);
        for i in 0..n {
            ring.add_node(NodeId::new(i));
        }
        ring
    }

    fn point_for(node: NodeId, vnode: u32) -> u64 {
        let mut key = [0u8; 8];
        key[..4].copy_from_slice(&node.raw().to_le_bytes());
        key[4..].copy_from_slice(&vnode.to_le_bytes());
        xxh64(&key, 0x5348_4843_5249_4e47) // "SHHCRING"
    }

    /// Adds a node's virtual points to the ring. Adding a node twice is a
    /// no-op.
    pub fn add_node(&mut self, node: NodeId) {
        if self.nodes.contains(&node) {
            return;
        }
        for v in 0..self.vnodes {
            // Collisions between distinct (node, vnode) points are
            // vanishingly rare; last insert wins deterministically.
            self.points.insert(Self::point_for(node, v), node);
        }
        self.nodes.push(node);
        self.nodes.sort();
    }

    /// Removes a node's virtual points. Removing an absent node is a
    /// no-op.
    pub fn remove_node(&mut self, node: NodeId) {
        if !self.nodes.contains(&node) {
            return;
        }
        for v in 0..self.vnodes {
            let point = Self::point_for(node, v);
            if self.points.get(&point) == Some(&node) {
                self.points.remove(&point);
            }
        }
        self.nodes.retain(|n| *n != node);
    }

    /// The member nodes, sorted by id.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Virtual nodes per physical node.
    pub fn vnodes(&self) -> u32 {
        self.vnodes
    }

    /// The virtual points on the ring, in ascending key order — the arc
    /// boundaries an epoch diff needs to compute exact ownership changes.
    pub fn points(&self) -> impl Iterator<Item = u64> + '_ {
        self.points.keys().copied()
    }

    /// Returns the `n` distinct nodes following `key` on the ring — the
    /// replica set for that key (primary first). Returns fewer than `n`
    /// when the cluster is smaller than `n`.
    pub fn replicas(&self, key: u64, n: usize) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(n);
        self.replicas_into(key, n, &mut out);
        out
    }

    /// Allocation-free variant of [`ConsistentHashRing::replicas`]:
    /// clears `out` and fills it with the replica set, reusing its
    /// capacity. Hot-path routing loops call this once per fingerprint.
    pub fn replicas_into(&self, key: u64, n: usize, out: &mut Vec<NodeId>) {
        out.clear();
        if self.points.is_empty() {
            return;
        }
        for (_, node) in self.points.range(key..).chain(self.points.iter()) {
            if !out.contains(node) {
                out.push(*node);
                if out.len() == n || out.len() == self.nodes.len() {
                    break;
                }
            }
        }
    }

    /// Fraction of the key space owned by each node, estimated from the
    /// ring arc lengths (exact, not sampled).
    #[cfg(test)]
    pub(crate) fn ownership_shares(&self) -> Vec<(NodeId, f64)> {
        let mut share: std::collections::HashMap<NodeId, u128> = Default::default();
        if self.points.is_empty() {
            return Vec::new();
        }
        let points: Vec<(u64, NodeId)> = self.points.iter().map(|(k, v)| (*k, *v)).collect();
        for i in 0..points.len() {
            let (start, _) = points[i];
            let (_, owner) = points[(i + 1) % points.len()];
            let arc = if i + 1 == points.len() {
                // Wrap: from last point to first point.
                (u64::MAX as u128 + 1) - start as u128 + points[0].0 as u128
            } else {
                (points[i + 1].0 - start) as u128
            };
            *share.entry(owner).or_default() += arc;
        }
        let total = u64::MAX as u128 + 1;
        let mut out: Vec<(NodeId, f64)> = share
            .into_iter()
            .map(|(n, s)| (n, s as f64 / total as f64))
            .collect();
        out.sort_by_key(|(n, _)| *n);
        out
    }
}

impl Partitioner for ConsistentHashRing {
    fn route(&self, key: u64) -> NodeId {
        assert!(
            !self.points.is_empty(),
            "cannot route on an empty ring; add nodes first"
        );
        match self.points.range(key..).next() {
            Some((_, node)) => *node,
            None => *self
                .points
                .values()
                .next()
                .expect("non-empty ring has a first point"),
        }
    }

    fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{load_distribution, moved_fraction};
    use proptest::prelude::*;

    fn sample_keys(n: u64) -> impl Iterator<Item = u64> {
        (0..n).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17))
    }

    #[test]
    fn routes_deterministically() {
        let ring = ConsistentHashRing::with_nodes(4, 32);
        for key in sample_keys(100) {
            assert_eq!(ring.route(key), ring.route(key));
        }
    }

    #[test]
    fn balanced_within_tolerance() {
        let ring = ConsistentHashRing::with_nodes(4, 128);
        let counts = load_distribution(&ring, sample_keys(100_000));
        for (i, &c) in counts.iter().enumerate() {
            let share = c as f64 / 100_000.0;
            assert!(
                (0.15..0.35).contains(&share),
                "node {i} owns {share:.3} of keys; expected ≈0.25"
            );
        }
    }

    #[test]
    fn ownership_shares_sum_to_one() {
        let ring = ConsistentHashRing::with_nodes(5, 64);
        let shares = ring.ownership_shares();
        let total: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9, "shares sum to {total}");
        assert_eq!(shares.len(), 5);
    }

    #[test]
    fn adding_node_moves_only_its_share() {
        let before = ConsistentHashRing::with_nodes(4, 128);
        let mut after = before.clone();
        after.add_node(NodeId::new(4));
        let moved = moved_fraction(&before, &after, sample_keys(50_000));
        // New node should take ≈1/5 of the space; consistent hashing moves
        // only what the new node now owns.
        assert!(
            (0.1..0.3).contains(&moved),
            "moved fraction {moved}; expected ≈0.2"
        );
        // Every moved key must now belong to the new node.
        for key in sample_keys(50_000) {
            if before.route(key) != after.route(key) {
                assert_eq!(after.route(key), NodeId::new(4));
            }
        }
    }

    #[test]
    fn removing_node_reassigns_only_its_keys() {
        let before = ConsistentHashRing::with_nodes(4, 64);
        let mut after = before.clone();
        after.remove_node(NodeId::new(2));
        for key in sample_keys(20_000) {
            let b = before.route(key);
            let a = after.route(key);
            if b != NodeId::new(2) {
                assert_eq!(a, b, "key not owned by the removed node moved");
            } else {
                assert_ne!(a, NodeId::new(2));
            }
        }
    }

    #[test]
    fn add_remove_round_trip_is_identity() {
        let base = ConsistentHashRing::with_nodes(3, 32);
        let mut changed = base.clone();
        changed.add_node(NodeId::new(9));
        changed.remove_node(NodeId::new(9));
        assert_eq!(moved_fraction(&base, &changed, sample_keys(10_000)), 0.0);
    }

    #[test]
    fn duplicate_add_is_noop() {
        let mut ring = ConsistentHashRing::with_nodes(2, 16);
        ring.add_node(NodeId::new(1));
        assert_eq!(ring.node_count(), 2);
    }

    #[test]
    fn replicas_are_distinct_and_start_with_primary() {
        let ring = ConsistentHashRing::with_nodes(5, 32);
        for key in sample_keys(200) {
            let reps = ring.replicas(key, 3);
            assert_eq!(reps.len(), 3);
            assert_eq!(reps[0], ring.route(key));
            let set: std::collections::HashSet<_> = reps.iter().collect();
            assert_eq!(set.len(), 3, "replicas must be distinct nodes");
        }
    }

    #[test]
    fn replicas_clamped_to_cluster_size() {
        let ring = ConsistentHashRing::with_nodes(2, 16);
        let reps = ring.replicas(42, 5);
        assert_eq!(reps.len(), 2);
    }

    #[test]
    #[should_panic(expected = "empty ring")]
    fn empty_ring_panics_on_route() {
        let ring = ConsistentHashRing::new(16);
        let _ = ring.route(1);
    }

    proptest! {
        /// Consistency: for any cluster size, every key routes to a member
        /// node, and adding a node never reroutes a key to a third node.
        #[test]
        fn prop_membership_change_minimality(n in 1u32..10, key: u64) {
            let before = ConsistentHashRing::with_nodes(n, 32);
            let mut after = before.clone();
            after.add_node(NodeId::new(n));
            let b = before.route(key);
            let a = after.route(key);
            prop_assert!(a == b || a == NodeId::new(n));
        }
    }
}
