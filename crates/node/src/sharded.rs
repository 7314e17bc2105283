//! Intra-node sharding: one hybrid node split into prefix-routed shards.
//!
//! The paper scales SHHC *across* machines but runs each hybrid hash
//! node as one sequential server, so a node can never exploit more than
//! one core. This module partitions a node's fingerprint range into `S`
//! contiguous routing-key slices ([`ShardRouter`]); each shard owns its
//! own RAM cache and flash slice with its directory (a full
//! [`HybridHashNode`] built from [`NodeConfig::shard_slice`]). Because a
//! fingerprint's shard is a pure function of its routing-key prefix, the
//! shards are a true partition: every operation routes to exactly one
//! shard, and cross-shard order equals fingerprint order (the routing
//! key is the fingerprint's first eight bytes), which keeps scans and
//! migration cursors deterministic.
//!
//! A batched lookup-insert runs in one pass per shard: the caller splits
//! the batch by shard ([`ShardRouter::shard_of`], or
//! [`ShardRouter::split`] for a position-keyed split), each shard answers
//! its slice with [`HybridHashNode::lookup_insert_batch`] — probing and
//! inserting in the same call — and the answers are scattered back to
//! their positions. Every occurrence of a fingerprint routes to the same
//! shard, so a shard sees each frame's repeats together and serves frames
//! in the order it receives them: a fingerprint is answered "new" exactly
//! once. An insert stores [`shhc_types::PENDING_VALUE`] until its
//! location is recorded, so the answers carry no shard-local state.
//!
//! [`shard_slices`] builds a node's shards. The cluster serves each from
//! its own server thread behind its own queue, one core per shard, and
//! routes every fingerprint to its shard itself; its tests and the
//! equivalence suites hold the answers byte-identical to one
//! [`HybridHashNode`].

use shhc_types::{Fingerprint, NodeId, Result};

use crate::hybrid::{HybridHashNode, NodeConfig};

/// Routes fingerprints to intra-node shards by routing-key prefix.
///
/// Shard `s` of `S` owns the routing-key slice `[⌈s·2⁶⁴/S⌉, ⌈(s+1)·2⁶⁴/S⌉)`,
/// so the shard index is the fixed-point product `⌊route_key · S / 2⁶⁴⌋`:
/// monotone in the routing key, and the shards partition the fingerprint
/// space exactly. The slices never move. Fingerprints are SHA-1 digests,
/// so their prefixes already spread a node's load evenly over its shards
/// (`tests/sharded_equivalence.rs` measures the cache misses and device
/// reads per shard under a Zipf stream).
///
/// # Examples
///
/// ```
/// use shhc_node::ShardRouter;
/// use shhc_types::Fingerprint;
///
/// let router = ShardRouter::new(4);
/// // u64::MAX / 2 sits just below the midpoint: last key of shard 1.
/// assert_eq!(router.shard_of(&Fingerprint::from_u64(u64::MAX / 2)), 1);
/// assert_eq!(router.shard_of(&Fingerprint::from_u64(u64::MAX / 2 + 1)), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shards: u32,
}

impl ShardRouter {
    /// A router over `shards` equal slices (clamped to ≥ 1).
    pub fn new(shards: u32) -> Self {
        ShardRouter {
            shards: shards.max(1),
        }
    }

    /// Number of shards.
    pub fn count(&self) -> usize {
        self.shards as usize
    }

    /// The shard owning `fp`: `⌊route_key · S / 2⁶⁴⌋`.
    pub fn shard_of(&self, fp: &Fingerprint) -> usize {
        ((u128::from(fp.route_key()) * u128::from(self.shards)) >> 64) as usize
    }

    /// Splits a position-ordered batch of records into one [`SubBatch`]
    /// per shard (empty sub-batches included, so index `s` is always
    /// shard `s`), routing each record by the fingerprint `fp` reads from
    /// it. Each record lands in exactly one sub-batch, in its original
    /// relative order, alongside its position in the caller's batch.
    pub fn split<T>(&self, records: Vec<T>, fp: impl Fn(&T) -> Fingerprint) -> Vec<SubBatch<T>> {
        let mut subs: Vec<SubBatch<T>> = (0..self.count())
            .map(|_| SubBatch {
                positions: Vec::new(),
                records: Vec::new(),
            })
            .collect();
        for (i, record) in records.into_iter().enumerate() {
            let sub = &mut subs[self.shard_of(&fp(&record))];
            sub.positions.push(i);
            sub.records.push(record);
        }
        subs
    }
}

/// One shard's slice of a batch: the records routed to it, parallel to
/// their positions in the original batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubBatch<T> {
    /// Positions in the original batch, ascending.
    pub positions: Vec<usize>,
    /// The slice's records, parallel to `positions`.
    pub records: Vec<T>,
}

/// Builds the `config.shards` shards of node `id`, in shard order: each a
/// [`HybridHashNode`] over [`NodeConfig::shard_slice`], owning slice `s`
/// of [`ShardRouter::new`]`(config.shards)`.
///
/// Each shard persists under its own `s{i}` subdirectory of the node's
/// data dir (no-op for volatile configs), so shard WALs never interleave
/// and a restart reopens each shard's own log.
///
/// # Errors
///
/// Propagates flash-configuration errors from any shard.
///
/// # Examples
///
/// ```
/// use shhc_node::{shard_slices, NodeConfig, ShardRouter};
/// use shhc_types::{Fingerprint, NodeId};
///
/// # fn main() -> Result<(), shhc_types::Error> {
/// let config = NodeConfig::small_test().with_shards(4);
/// let mut shards = shard_slices(NodeId::new(0), &config)?;
/// assert_eq!(shards.len(), 4);
/// let fp = Fingerprint::from_u64(7);
/// let owner = &mut shards[ShardRouter::new(4).shard_of(&fp)];
/// assert!(!owner.lookup_insert(fp)?.existed);
/// assert!(owner.lookup_insert(fp)?.existed);
/// # Ok(())
/// # }
/// ```
pub fn shard_slices(id: NodeId, config: &NodeConfig) -> Result<Vec<HybridHashNode>> {
    let slice = config.shard_slice();
    (0..config.shards.max(1))
        .map(|i| {
            let mut shard_cfg = slice.clone();
            shard_cfg.durability = config.durability.scoped(format!("s{i}"));
            HybridHashNode::new(id, shard_cfg)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use shhc_types::Nanos;

    fn fp(v: u64) -> Fingerprint {
        Fingerprint::from_u64(v)
    }

    /// Fingerprints spread over the routing-key space.
    fn spread(i: u64) -> Fingerprint {
        fp(i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31))
    }

    /// A node's [`shard_slices`] driven one shard after another: the
    /// split → per-shard lookup-insert → scatter the cluster runs across
    /// the shards' server threads concurrently.
    struct Sequential {
        router: ShardRouter,
        shards: Vec<HybridHashNode>,
    }

    impl Sequential {
        fn new(config: NodeConfig) -> Self {
            Sequential {
                router: ShardRouter::new(config.shards),
                shards: shard_slices(NodeId::new(0), &config).unwrap(),
            }
        }

        fn owner(&mut self, f: Fingerprint) -> &mut HybridHashNode {
            &mut self.shards[self.router.shard_of(&f)]
        }

        fn lookup_insert_batch(&mut self, fps: &[Fingerprint]) -> (Vec<bool>, Vec<u64>) {
            let mut exists = vec![false; fps.len()];
            let mut values = vec![0; fps.len()];
            let subs = self.router.split(fps.to_vec(), |f| *f);
            for (sub, shard) in subs.into_iter().zip(&mut self.shards) {
                let got = shard.lookup_insert_batch(&sub.records).unwrap();
                for (k, &pos) in sub.positions.iter().enumerate() {
                    exists[pos] = got.exists[k];
                    values[pos] = got.values[k];
                }
            }
            (exists, values)
        }

        /// Shard order is fingerprint order, so concatenated shard scans
        /// are globally sorted.
        fn scan(&mut self) -> Vec<(Fingerprint, u64)> {
            self.shards
                .iter_mut()
                .flat_map(|s| s.scan().unwrap())
                .collect()
        }

        fn entries(&self) -> u64 {
            self.shards.iter().map(HybridHashNode::entries).sum()
        }

        fn stats(&self) -> crate::NodeStats {
            let parts: Vec<crate::NodeStats> =
                self.shards.iter().map(HybridHashNode::stats).collect();
            crate::NodeStats::merge(parts.iter())
        }
    }

    #[test]
    fn router_slices_are_contiguous_and_cover_the_key_space() {
        for s in 1..=9u32 {
            let router = ShardRouter::new(s);
            // Boundaries: shard k starts exactly at ⌈k·2⁶⁴/S⌉.
            for k in 0..u128::from(s) {
                let lo = (k << 64).div_ceil(u128::from(s)) as u64;
                assert_eq!(router.shard_of(&fp(lo)), k as usize, "S={s} k={k} lo");
                if lo > 0 {
                    assert_eq!(
                        router.shard_of(&fp(lo - 1)),
                        (k as usize).saturating_sub(1),
                        "S={s} k={k} below lo"
                    );
                }
            }
            assert_eq!(router.shard_of(&fp(u64::MAX)), s as usize - 1);
        }
    }

    #[test]
    fn uniform_bounds_match_fixed_point_routing() {
        // The bounds-based router must agree everywhere with the old
        // multiplicative routing ⌊route_key · S / 2⁶⁴⌋.
        for s in 1..=9u32 {
            let router = ShardRouter::new(s);
            assert_eq!(router.count(), s as usize);
            for i in 0..4000u64 {
                let key = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let want = ((u128::from(key) * u128::from(s)) >> 64) as usize;
                assert_eq!(router.shard_of(&fp(key)), want, "S={s} key={key:#x}");
            }
        }
    }

    #[test]
    fn split_preserves_positions_and_order() {
        let router = ShardRouter::new(5);
        let fps: Vec<Fingerprint> = (0..200).map(spread).collect();
        let subs = router.split(fps.clone(), |f| *f);
        assert_eq!(subs.len(), 5);
        let mut seen = vec![false; fps.len()];
        for (s, sub) in subs.iter().enumerate() {
            assert_eq!(sub.positions.len(), sub.records.len());
            for w in sub.positions.windows(2) {
                assert!(w[0] < w[1], "positions must stay in arrival order");
            }
            for (&pos, f) in sub.positions.iter().zip(&sub.records) {
                assert_eq!(*f, fps[pos]);
                assert_eq!(router.shard_of(f), s);
                assert!(!seen[pos], "position {pos} routed twice");
                seen[pos] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every position routed");
    }

    #[test]
    fn sharded_node_matches_hybrid_on_a_mixed_stream() {
        for s in [1u32, 2, 3, 4, 7, 8] {
            let mut reference =
                HybridHashNode::new(NodeId::new(0), NodeConfig::small_test()).unwrap();
            let mut node = Sequential::new(NodeConfig::small_test().with_shards(s));
            // In-batch repeats (positions 48.. redo 0..16), cross-round revisits.
            for round in 0..6u64 {
                let batch: Vec<Fingerprint> = (0..64)
                    .map(|i| spread((round * 40 + i % 48) % 150))
                    .collect();
                let want = reference.lookup_insert_batch(&batch).unwrap();
                let (exists, values) = node.lookup_insert_batch(&batch);
                assert_eq!(exists, want.exists, "S={s} round={round}");
                assert_eq!(values, want.values, "S={s} round={round}");
            }
            assert_eq!(node.entries(), reference.entries());
            assert_eq!(node.scan(), reference.scan().unwrap());
            assert_eq!(node.stats().ops(), reference.stats().ops());
        }
    }

    /// A re-home pass reads a sharded node through one `Scan`: shard
    /// order is fingerprint order, so the concatenated shard scans are
    /// the unsharded node's sorted scan, entry for entry.
    #[test]
    fn scan_matches_hybrid_exactly() {
        let mut reference = HybridHashNode::new(NodeId::new(0), NodeConfig::small_test()).unwrap();
        let mut node = Sequential::new(NodeConfig::small_test().with_shards(4));
        let all: Vec<Fingerprint> = (0..300).map(spread).collect();
        reference.lookup_insert_batch(&all).unwrap();
        node.lookup_insert_batch(&all);
        for f in all.iter().step_by(7) {
            reference.remove(*f).unwrap();
            node.owner(*f).remove(*f).unwrap();
        }
        let want = reference.scan().unwrap();
        assert!(want.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(node.scan(), want);
    }

    #[test]
    fn stats_aggregate_across_shards() {
        let mut node = Sequential::new(NodeConfig::small_test().with_shards(4));
        let batch: Vec<Fingerprint> = (0..40).map(spread).collect();
        node.lookup_insert_batch(&batch);
        node.lookup_insert_batch(&batch);
        let every_slice_took_keys = node.shards.iter().all(|p| p.stats().inserted > 0);
        assert!(every_slice_took_keys);
        let s = node.stats();
        assert_eq!(s.ops(), 80);
        assert_eq!(s.inserted, 40);
        assert_eq!(s.ram_hits + s.ssd_hits, 40);
        assert!(s.ram_hit_ratio() > 0.0);
        assert!(s.busy > Nanos::ZERO);
        assert_eq!(node.entries(), 40);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Shard routing is a true partition of the fingerprint space:
        /// every fingerprint lands on exactly one in-range shard, the
        /// shard index is monotone in the routing key (contiguous
        /// slices), and batch splitting is a permutation of positions.
        #[test]
        fn prop_routing_partitions_the_key_space(
            shards in 1u32..=8,
            keys in proptest::collection::vec(0u64..=u64::MAX, 1..200),
        ) {
            let router = ShardRouter::new(shards);
            let fps: Vec<Fingerprint> = keys.iter().map(|&k| fp(k)).collect();
            let mut keyed: Vec<(u64, usize)> = keys
                .iter()
                .map(|&k| (k, router.shard_of(&fp(k))))
                .collect();
            for &(k, s) in &keyed {
                prop_assert!(s < shards as usize, "key {k:#x} routed to shard {s}");
            }
            keyed.sort_unstable();
            for w in keyed.windows(2) {
                prop_assert!(w[0].1 <= w[1].1, "shard index must be monotone in the key");
            }
            let subs = router.split(fps.clone(), |f| *f);
            let covered: usize = subs.iter().map(|s| s.positions.len()).sum();
            prop_assert_eq!(covered, fps.len(), "split must cover every position once");
            for (s, sub) in subs.iter().enumerate() {
                for f in &sub.records {
                    prop_assert_eq!(router.shard_of(f), s);
                }
            }
        }

        /// The slices of a node (any S), each answering its part of a
        /// frame in one pass, answer exactly like the unsharded node under
        /// random lookup/remove/record/install interleavings.
        #[test]
        fn prop_sharded_matches_reference(
            shards in 1u32..=8,
            keys in proptest::collection::vec(0u64..120, 1..150),
        ) {
            let mut reference =
                HybridHashNode::new(NodeId::new(0), NodeConfig::small_test()).unwrap();
            let mut node = Sequential::new(NodeConfig::small_test().with_shards(shards));
            for (i, &k) in keys.iter().enumerate() {
                let f = spread(k);
                match k % 7 {
                    0 => {
                        reference.remove(f).unwrap();
                        node.owner(f).remove(f).unwrap();
                    }
                    1 => {
                        reference.record(f, k * 10).unwrap();
                        node.owner(f).record(f, k * 10).unwrap();
                    }
                    2 => {
                        let a = reference.install(f, k).unwrap();
                        let b = node.owner(f).install(f, k).unwrap();
                        prop_assert_eq!(a, b, "install at op {}", i);
                    }
                    _ => {
                        let want = reference.lookup_insert_batch(&[f]).unwrap();
                        let (exists, values) = node.lookup_insert_batch(&[f]);
                        prop_assert_eq!(exists, want.exists, "lookup at op {}", i);
                        prop_assert_eq!(values, want.values, "value at op {}", i);
                    }
                }
            }
            prop_assert_eq!(node.entries(), reference.entries());
            prop_assert_eq!(node.scan(), reference.scan().unwrap());
        }
    }
}
