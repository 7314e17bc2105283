//! Epoch-versioned ring views and migration plans.
//!
//! Membership changes under live traffic need two things the bare
//! [`ConsistentHashRing`] cannot give: an **immutable snapshot** a hot
//! path can route against without locking (a [`RingView`], stamped with a
//! monotonically increasing epoch), and an **exact diff** between two
//! consecutive snapshots (a [`MigrationPlan`]) describing precisely which
//! key ranges changed owner — the ranges a rebalancer must move and a
//! dual-reading front-end must treat as in-flight.

use shhc_types::{Fingerprint, KeyRange, NodeId};

use crate::{ConsistentHashRing, Partitioner};

/// An immutable, epoch-stamped snapshot of the consistent-hash ring.
///
/// Cluster front-ends hold the current view behind an `Arc` and swap the
/// whole pointer on membership change; routing never takes a lock over a
/// mutable ring. Epochs increase by exactly one per membership change, so
/// two views can always tell which is newer and a [`MigrationPlan`] can
/// name the transition it covers.
///
/// # Examples
///
/// ```
/// use shhc_ring::{Partitioner, RingView};
/// use shhc_types::NodeId;
///
/// let v1 = RingView::initial(3, 64);
/// assert_eq!(v1.epoch(), 1);
/// let v2 = v1.with_node_added(NodeId::new(3));
/// assert_eq!(v2.epoch(), 2);
/// let plan = v1.diff(&v2);
/// assert!(!plan.is_empty());
/// // Every moved key now belongs to the new node.
/// for mv in plan.ranges() {
///     assert_eq!(mv.to, NodeId::new(3));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct RingView {
    ring: ConsistentHashRing,
    epoch: u64,
}

impl RingView {
    /// The first epoch: a ring of nodes `0..n` at epoch 1.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `vnodes` is zero.
    pub fn initial(n: u32, vnodes: u32) -> Self {
        RingView {
            ring: ConsistentHashRing::with_nodes(n, vnodes),
            epoch: 1,
        }
    }

    /// Wraps an existing ring as epoch `epoch`.
    #[cfg(test)]
    pub(crate) fn from_ring(ring: ConsistentHashRing, epoch: u64) -> Self {
        RingView { ring, epoch }
    }

    /// The view's epoch (starts at 1, +1 per membership change).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The underlying ring.
    pub fn ring(&self) -> &ConsistentHashRing {
        &self.ring
    }

    /// The member nodes, sorted by id.
    pub fn nodes(&self) -> &[NodeId] {
        self.ring.nodes()
    }

    /// The next epoch with `node` added (no-op membership change still
    /// advances the epoch).
    pub fn with_node_added(&self, node: NodeId) -> RingView {
        let mut ring = self.ring.clone();
        ring.add_node(node);
        RingView {
            ring,
            epoch: self.epoch + 1,
        }
    }

    /// The next epoch with `node` removed.
    pub fn with_node_removed(&self, node: NodeId) -> RingView {
        let mut ring = self.ring.clone();
        ring.remove_node(node);
        RingView {
            ring,
            epoch: self.epoch + 1,
        }
    }

    /// Allocation-free replica-set lookup (see
    /// [`ConsistentHashRing::replicas_into`]).
    pub fn replicas_into(&self, key: u64, n: usize, out: &mut Vec<NodeId>) {
        self.ring.replicas_into(key, n, out);
    }

    /// Replica set for `key` (primary first).
    pub fn replicas(&self, key: u64, n: usize) -> Vec<NodeId> {
        self.ring.replicas(key, n)
    }

    /// The exact ownership diff from `self` to `next`.
    ///
    /// The plan's ranges cover precisely the keys whose owner differs
    /// between the two views — no overlap, no gap — each annotated with
    /// the old and new owner. Cost is `O(p log p)` in the total virtual
    /// point count; no key sampling is involved.
    pub fn diff(&self, next: &RingView) -> MigrationPlan {
        let mut boundaries: Vec<u64> = self.ring.points().chain(next.ring.points()).collect();
        boundaries.sort_unstable();
        boundaries.dedup();

        let mut moves: Vec<RangeMove> = Vec::new();
        if boundaries.is_empty() {
            return MigrationPlan {
                from_epoch: self.epoch,
                to_epoch: next.epoch,
                ranges: moves,
            };
        }
        // Ownership under either view is constant on each arc
        // `(boundary[j-1], boundary[j]]` (no ring point of either view
        // lies strictly inside), so probing the arc's endpoint suffices.
        for j in 0..boundaries.len() {
            let last = boundaries[j];
            let prev = if j == 0 {
                boundaries[boundaries.len() - 1]
            } else {
                boundaries[j - 1]
            };
            let from = self.ring.route(last);
            let to = next.ring.route(last);
            if from == to {
                continue;
            }
            let first = prev.wrapping_add(1);
            if boundaries.len() == 1 || first <= last {
                if boundaries.len() == 1 {
                    // One boundary: the arc is the whole circle.
                    moves.push(RangeMove {
                        range: KeyRange::full(),
                        from,
                        to,
                    });
                } else {
                    moves.push(RangeMove {
                        range: KeyRange::new(first, last),
                        from,
                        to,
                    });
                }
            } else {
                // The wrap arc: split at zero so every stored range is
                // non-wrapping and the plan stays binary-searchable.
                moves.push(RangeMove {
                    range: KeyRange::new(first, u64::MAX),
                    from,
                    to,
                });
                moves.push(RangeMove {
                    range: KeyRange::new(0, last),
                    from,
                    to,
                });
            }
        }
        moves.sort_unstable_by_key(|m| m.range.first);
        // Merge adjacent arcs with the same owner transition.
        let mut merged: Vec<RangeMove> = Vec::with_capacity(moves.len());
        for mv in moves {
            match merged.last_mut() {
                Some(prev)
                    if prev.from == mv.from
                        && prev.to == mv.to
                        && prev.range.last.wrapping_add(1) == mv.range.first
                        && prev.range.last != u64::MAX =>
                {
                    prev.range.last = mv.range.last;
                }
                _ => merged.push(mv),
            }
        }
        MigrationPlan {
            from_epoch: self.epoch,
            to_epoch: next.epoch,
            ranges: merged,
        }
    }
}

impl Partitioner for RingView {
    fn route(&self, key: u64) -> NodeId {
        self.ring.route(key)
    }

    fn node_count(&self) -> usize {
        self.ring.node_count()
    }
}

/// One contiguous key range changing owner between two epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeMove {
    /// The keys moving (inclusive, non-wrapping: plans split wrap arcs at
    /// zero).
    pub range: KeyRange,
    /// The owner under the old epoch.
    pub from: NodeId,
    /// The owner under the new epoch.
    pub to: NodeId,
}

/// The exact ownership diff between two consecutive ring epochs.
///
/// A key is covered by (exactly one of) the plan's ranges **iff** its
/// owner differs between the two views; dual-reading front-ends use
/// [`MigrationPlan::change_for`] to decide whether a miss should fall
/// back to the key's previous owner, and rebalancers walk
/// [`MigrationPlan::ranges`] to move the data.
///
/// # Examples
///
/// ```
/// use shhc_ring::{Partitioner, RingView};
/// use shhc_types::NodeId;
///
/// let v1 = RingView::initial(4, 64);
/// let v2 = v1.with_node_removed(NodeId::new(2));
/// let plan = v1.diff(&v2);
/// for key in (0..1000u64).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15)) {
///     let moved = v1.route(key) != v2.route(key);
///     assert_eq!(plan.change_for(key).is_some(), moved);
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct MigrationPlan {
    /// Epoch the plan migrates from.
    pub from_epoch: u64,
    /// Epoch the plan migrates to.
    pub to_epoch: u64,
    /// Sorted, disjoint, non-wrapping ranges.
    ranges: Vec<RangeMove>,
}

impl MigrationPlan {
    /// The moved ranges, sorted by first key, disjoint and non-wrapping.
    pub fn ranges(&self) -> &[RangeMove] {
        &self.ranges
    }

    /// Whether no keys change owner.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The ownership change covering `key`, if its owner differs between
    /// the plan's epochs. Binary search over the sorted ranges.
    pub fn change_for(&self, key: u64) -> Option<&RangeMove> {
        let idx = self.ranges.partition_point(|m| m.range.first <= key);
        if idx == 0 {
            return None;
        }
        let candidate = &self.ranges[idx - 1];
        candidate.range.contains(key).then_some(candidate)
    }

    /// The ownership change covering a fingerprint's routing key.
    pub fn change_for_fingerprint(&self, fp: Fingerprint) -> Option<&RangeMove> {
        self.change_for(fp.route_key())
    }

    /// Total keys covered by the plan (65-bit to hold the full space).
    fn moved_span(&self) -> u128 {
        self.ranges.iter().map(|m| m.range.span()).sum()
    }

    /// Fraction of the key space that changes owner — the exact (arc
    /// length, not sampled) disruption metric of the membership change.
    pub fn moved_fraction(&self) -> f64 {
        self.moved_span() as f64 / (u64::MAX as f64 + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_keys(n: u64) -> impl Iterator<Item = u64> {
        (0..n).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17))
    }

    #[test]
    fn epochs_advance_by_one() {
        let v1 = RingView::initial(2, 32);
        let v2 = v1.with_node_added(NodeId::new(2));
        let v3 = v2.with_node_removed(NodeId::new(0));
        assert_eq!((v1.epoch(), v2.epoch(), v3.epoch()), (1, 2, 3));
        assert_eq!(v3.nodes(), &[NodeId::new(1), NodeId::new(2)]);
    }

    #[test]
    fn identical_views_have_empty_diff() {
        let v1 = RingView::initial(3, 64);
        let v2 = RingView::from_ring(v1.ring().clone(), 2);
        let plan = v1.diff(&v2);
        assert!(plan.is_empty());
        assert_eq!(plan.moved_span(), 0);
        assert_eq!((plan.from_epoch, plan.to_epoch), (1, 2));
    }

    /// The exactness contract: a key is covered by the plan iff its owner
    /// differs, and the recorded from/to match the views.
    fn assert_plan_exact(old: &RingView, new: &RingView) {
        let plan = old.diff(new);
        for key in sample_keys(20_000) {
            let from = old.route(key);
            let to = new.route(key);
            match plan.change_for(key) {
                Some(mv) => {
                    assert_ne!(from, to, "covered key {key} did not move");
                    assert_eq!(mv.from, from);
                    assert_eq!(mv.to, to);
                }
                None => assert_eq!(from, to, "moved key {key} not covered"),
            }
        }
        // Structural: sorted, disjoint, non-wrapping.
        let ranges = plan.ranges();
        for w in ranges.windows(2) {
            assert!(
                w[0].range.last < w[1].range.first,
                "ranges overlap or are unsorted: {} vs {}",
                w[0].range,
                w[1].range
            );
        }
        for mv in ranges {
            assert!(!mv.range.wraps(), "stored range wraps: {}", mv.range);
            // Boundary exactness: the keys just outside each range did
            // not move (no gap is hiding next to a range edge).
            assert_eq!(mv.from, old.route(mv.range.first));
            assert_eq!(mv.to, new.route(mv.range.first));
            assert_eq!(mv.from, old.route(mv.range.last));
            assert_eq!(mv.to, new.route(mv.range.last));
        }
    }

    #[test]
    fn add_diff_is_exact_and_targets_new_node() {
        let v1 = RingView::initial(4, 64);
        let v2 = v1.with_node_added(NodeId::new(4));
        assert_plan_exact(&v1, &v2);
        let plan = v1.diff(&v2);
        for mv in plan.ranges() {
            assert_eq!(mv.to, NodeId::new(4));
            assert_ne!(mv.from, NodeId::new(4));
        }
        // ≈1/5 of the space should move.
        let f = plan.moved_fraction();
        assert!((0.1..0.35).contains(&f), "moved fraction {f}");
    }

    #[test]
    fn remove_diff_is_exact_and_sources_removed_node() {
        let v1 = RingView::initial(4, 64);
        let v2 = v1.with_node_removed(NodeId::new(1));
        assert_plan_exact(&v1, &v2);
        let plan = v1.diff(&v2);
        for mv in plan.ranges() {
            assert_eq!(mv.from, NodeId::new(1));
            assert_ne!(mv.to, NodeId::new(1));
        }
    }

    #[test]
    fn single_node_swap_moves_everything() {
        let v1 = RingView::from_ring(
            {
                let mut r = ConsistentHashRing::new(16);
                r.add_node(NodeId::new(0));
                r
            },
            1,
        );
        let v2 = v1
            .with_node_added(NodeId::new(1))
            .with_node_removed(NodeId::new(0));
        // Not consecutive epochs semantically, but the diff machinery
        // must still be exact.
        assert_plan_exact(&v1, &v2);
        let plan = v1.diff(&v2);
        assert_eq!(plan.moved_span(), u64::MAX as u128 + 1);
        assert!((plan.moved_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exact_moved_fraction_matches_sampled() {
        let v1 = RingView::initial(5, 96);
        let v2 = v1.with_node_added(NodeId::new(5));
        let plan = v1.diff(&v2);
        let sampled = crate::moved_fraction(&v1, &v2, sample_keys(200_000));
        assert!(
            (plan.moved_fraction() - sampled).abs() < 0.01,
            "exact {} vs sampled {sampled}",
            plan.moved_fraction()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Across randomized join/leave sequences, every consecutive-epoch
        /// plan is exact (covers precisely the diff) and the disruption of
        /// each change stays near the consistent-hashing ideal.
        #[test]
        fn prop_join_leave_plans_exact_and_near_ideal(
            ops in proptest::collection::vec(any::<u8>(), 1..10),
        ) {
            let vnodes = 128;
            let mut view = RingView::initial(4, vnodes);
            let mut next_id = 4u32;
            for op in ops {
                let n = view.nodes().len();
                // Leave only while >2 nodes remain; id picked from members.
                let leave = op % 2 == 1 && n > 2;
                let next = if leave {
                    let victim = view.nodes()[(op as usize / 2) % n];
                    view.with_node_removed(victim)
                } else {
                    let id = NodeId::new(next_id);
                    next_id += 1;
                    view.with_node_added(id)
                };
                let plan = view.diff(&next);
                prop_assert_eq!(plan.from_epoch, view.epoch());
                prop_assert_eq!(plan.to_epoch, next.epoch());

                // Exactness on sampled keys.
                for key in sample_keys(2_000) {
                    let moved = view.route(key) != next.route(key);
                    let covered = plan.change_for(key);
                    prop_assert_eq!(covered.is_some(), moved);
                    if let Some(mv) = covered {
                        prop_assert_eq!(mv.from, view.route(key));
                        prop_assert_eq!(mv.to, next.route(key));
                    }
                }
                // Structural: sorted + disjoint.
                for w in plan.ranges().windows(2) {
                    prop_assert!(w[0].range.last < w[1].range.first);
                }

                // Disruption near the 1/n ideal: a join into n nodes (or a
                // leave from n+1) should move ≈ 1/(n_after) of the space.
                // Virtual-node placement variance at 128 vnodes stays well
                // inside a factor of 2.5 of the ideal.
                let n_after = next.nodes().len() as f64;
                let ideal = 1.0 / n_after;
                let moved = plan.moved_fraction();
                prop_assert!(
                    moved < ideal * 2.5,
                    "moved {} vs ideal {} (n_after {})", moved, ideal, n_after
                );
                prop_assert!(
                    moved > ideal * 0.3,
                    "moved {} vs ideal {} (n_after {})", moved, ideal, n_after
                );
                view = next;
            }
        }
    }
}
