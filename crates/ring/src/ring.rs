//! Consistent hashing with virtual nodes.

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
    /// The virtual points, sorted by key with no key twice. A lookup is a
    /// binary search over one contiguous array (≈ 15 ns in `micro --
    /// ring/route`, against ≈ 60 ns for the `BTreeMap` walk it replaced),
    /// and membership changes, which insert into it, are rare.
    points: Vec<(u64, NodeId)>,
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
            points: Vec::new(),
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
            self.insert_point(Self::point_for(node, v), node);
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
            self.remove_point(Self::point_for(node, v), node);
        }
        self.nodes.retain(|n| *n != node);
    }

    /// Places `node` at `point`. Collisions between distinct (node,
    /// vnode) points are vanishingly rare; the last insert wins
    /// deterministically.
    fn insert_point(&mut self, point: u64, node: NodeId) {
        match self.points.binary_search_by_key(&point, |&(key, _)| key) {
            Ok(at) => self.points[at].1 = node,
            Err(at) => self.points.insert(at, (point, node)),
        }
    }

    /// Takes `point` off the ring if `node` owns it (a point another
    /// node won by collision stays).
    fn remove_point(&mut self, point: u64, node: NodeId) {
        if let Ok(at) = self.points.binary_search_by_key(&point, |&(key, _)| key) {
            if self.points[at].1 == node {
                self.points.remove(at);
            }
        }
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
        self.points.iter().map(|&(key, _)| key)
    }

    /// Index of the point that owns `key`: the first at or after it,
    /// wrapping to the first point. The ring must not be empty.
    fn owner_index(&self, key: u64) -> usize {
        let at = self.points.partition_point(|&(point, _)| point < key);
        if at == self.points.len() {
            0
        } else {
            at
        }
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
        let (before, after) = self.points.split_at(self.owner_index(key));
        for (_, node) in after.iter().chain(before) {
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
        let points = &self.points;
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
        self.points[self.owner_index(key)].1
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

    /// The reference the sorted-`Vec` ring is held to: the same points
    /// in a `BTreeMap` under the same "last insert wins" rule, walked
    /// with `range(key..)` and wrapped.
    struct TreeRing {
        points: std::collections::BTreeMap<u64, NodeId>,
        nodes: Vec<NodeId>,
        vnodes: u32,
    }

    impl TreeRing {
        fn add(&mut self, node: NodeId) {
            if self.nodes.contains(&node) {
                return;
            }
            for v in 0..self.vnodes {
                self.points
                    .insert(ConsistentHashRing::point_for(node, v), node);
            }
            self.nodes.push(node);
            self.nodes.sort();
        }

        fn remove(&mut self, node: NodeId) {
            if !self.nodes.contains(&node) {
                return;
            }
            for v in 0..self.vnodes {
                let point = ConsistentHashRing::point_for(node, v);
                if self.points.get(&point) == Some(&node) {
                    self.points.remove(&point);
                }
            }
            self.nodes.retain(|n| *n != node);
        }

        fn replicas(&self, key: u64, n: usize) -> Vec<NodeId> {
            let mut out = Vec::new();
            for (_, node) in self.points.range(key..).chain(self.points.iter()) {
                if !out.contains(node) {
                    out.push(*node);
                    if out.len() == n || out.len() == self.nodes.len() {
                        break;
                    }
                }
            }
            out
        }
    }

    #[test]
    fn colliding_points_keep_the_last_insert() {
        let (a, b) = (NodeId::new(1), NodeId::new(2));
        let mut ring = ConsistentHashRing::new(1);
        ring.insert_point(10, a);
        ring.insert_point(5, a);
        ring.insert_point(10, b);
        assert_eq!(ring.points, vec![(5, a), (10, b)]);
        ring.remove_point(10, a);
        assert_eq!(ring.points, vec![(5, a), (10, b)], "b won the point");
        ring.remove_point(10, b);
        assert_eq!(ring.points, vec![(5, a)]);
    }

    proptest! {
        /// The sorted-`Vec` ring answers exactly as the `BTreeMap` ring it
        /// replaced, through any sequence of joins and leaves: the same
        /// points, members, owners and replica sets, for random keys plus
        /// `0`, `u64::MAX`, every point and its neighbours (the wrap past
        /// the last point included), at every replica count.
        #[test]
        fn prop_sorted_ring_matches_tree_reference(
            changes in proptest::collection::vec((0u32..6, 0u8..3), 1..12),
            keys in proptest::collection::vec(any::<u64>(), 1..24),
        ) {
            const VNODES: u32 = 6;
            let mut ring = ConsistentHashRing::new(VNODES);
            let mut tree = TreeRing {
                points: Default::default(),
                nodes: Vec::new(),
                vnodes: VNODES,
            };
            for (node, op) in changes {
                // Two adds to one remove, so rings grow as well as shrink.
                let node = NodeId::new(node);
                if op < 2 {
                    ring.add_node(node);
                    tree.add(node);
                } else {
                    ring.remove_node(node);
                    tree.remove(node);
                }
                prop_assert_eq!(
                    ring.points().collect::<Vec<_>>(),
                    tree.points.keys().copied().collect::<Vec<_>>()
                );
                prop_assert_eq!(ring.nodes(), &tree.nodes[..]);
                if tree.nodes.is_empty() {
                    continue;
                }
                let edges = tree.points.keys().flat_map(|&p| {
                    [p.wrapping_sub(1), p, p.wrapping_add(1)]
                });
                let probes: Vec<u64> = keys
                    .iter()
                    .copied()
                    .chain([0, u64::MAX])
                    .chain(edges)
                    .collect();
                let mut out = Vec::new();
                for key in probes {
                    prop_assert_eq!(ring.route(key), tree.replicas(key, 1)[0]);
                    for n in 1..=tree.nodes.len() {
                        ring.replicas_into(key, n, &mut out);
                        prop_assert_eq!(&out, &tree.replicas(key, n));
                    }
                }
            }
        }

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
