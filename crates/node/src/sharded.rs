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
//! Batched lookup-inserts run in three steps so insert values stay
//! frame-ordered no matter how shards are scheduled:
//!
//! 1. **classify** — each shard resolves its slice of the frame
//!    read-only ([`HybridHashNode::classify_batch`], with coalesced
//!    flash reads),
//! 2. **merge** — [`merge_classified`] walks the frame in arrival order,
//!    allocating one value per first-sighting and resolving in-frame
//!    repeats,
//! 3. **apply** — each shard registers its new entries
//!    ([`HybridHashNode::apply_inserts`]).
//!
//! [`shard_slices`] builds a node's shards. The cluster server runs steps
//! 1 and 3 on a per-shard worker pool, one core per shard, and step 2 on
//! whichever worker finishes classifying last; its tests and the
//! equivalence suites hold the answers byte-identical to one
//! [`HybridHashNode`].

use shhc_types::{Fingerprint, Nanos, NodeId, Result};

use crate::hybrid::{Classified, HybridHashNode, NodeConfig};

/// Routes fingerprints to intra-node shards by routing-key prefix.
///
/// Each shard owns one contiguous routing-key slice. The uniform router
/// ([`ShardRouter::new`]) gives shard `s` of `S` the slice
/// `[s·2⁶⁴/S, (s+1)·2⁶⁴/S)`; a *rebalanced* router
/// ([`ShardRouter::rebalanced_over_keys`]) keeps the same number of
/// shards but moves the slice boundaries so observed load splits evenly —
/// the hot-shard mitigation narrows the overloaded prefix instead of
/// re-sharding the whole node. Either way the shard index is monotone in
/// the routing key and the shards partition the fingerprint space
/// exactly.
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRouter {
    /// Lower routing-key bound of each shard's slice: `bounds[0] == 0`,
    /// strictly ascending; shard `s` owns `[bounds[s], bounds[s+1])`
    /// (the last shard is open-ended).
    bounds: std::sync::Arc<[u64]>,
}

impl ShardRouter {
    /// A uniform router over `shards` equal slices (clamped to ≥ 1) —
    /// shard `k` starts at `⌈k·2⁶⁴/S⌉`, matching the fixed-point product
    /// routing `⌊route_key · S / 2⁶⁴⌋` exactly.
    pub fn new(shards: u32) -> Self {
        let s = u128::from(shards.max(1));
        let bounds: Vec<u64> = (0..s).map(|k| ((k << 64).div_ceil(s)) as u64).collect();
        ShardRouter {
            bounds: bounds.into(),
        }
    }

    /// A router with explicit slice boundaries: `bounds[s]` is shard
    /// `s`'s first routing key.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty, does not start at 0, or is not
    /// strictly ascending.
    pub fn from_bounds(bounds: Vec<u64>) -> Self {
        assert!(!bounds.is_empty(), "router needs at least one shard");
        assert_eq!(bounds[0], 0, "shard 0 must start at routing key 0");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "shard bounds must be strictly ascending"
        );
        ShardRouter {
            bounds: bounds.into(),
        }
    }

    /// Number of shards.
    pub fn count(&self) -> usize {
        self.bounds.len()
    }

    /// The shard slice boundaries (see [`ShardRouter::from_bounds`]).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// The shard owning `fp`: the index of the contiguous routing-key
    /// slice the fingerprint's prefix falls in (binary search over the
    /// slice boundaries).
    pub fn shard_of(&self, fp: &Fingerprint) -> usize {
        let key = fp.route_key();
        self.bounds.partition_point(|&b| b <= key) - 1
    }

    /// A router with the same shard count whose boundaries split the
    /// *observed* per-shard load evenly, modelling each shard's load as
    /// point masses on its *actual stored routing keys*. This is what the
    /// autotuner re-splits with once it holds the shard scans: a hot set
    /// clustered at the very bottom of one slice gets boundaries placed
    /// *between* its keys in a single pass, where a model spreading load
    /// uniformly over each slice would need many narrowing rounds to reach
    /// them.
    ///
    /// `keys_by_shard[s]` are shard `s`'s stored routing keys (order
    /// irrelevant). Shards with no load or no keys contribute nothing;
    /// if every shard is empty the router is returned unchanged.
    pub fn rebalanced_over_keys(&self, loads: &[u64], keys_by_shard: &[Vec<u64>]) -> ShardRouter {
        let s = self.count();
        assert_eq!(loads.len(), s, "one load sample per shard");
        assert_eq!(keys_by_shard.len(), s, "one key set per shard");
        if s == 1 {
            return self.clone();
        }
        // Point masses: each stored key carries an equal share of its
        // shard's observed load.
        let mut points: Vec<(u64, f64)> = Vec::new();
        for (&load, keys) in loads.iter().zip(keys_by_shard) {
            if load == 0 || keys.is_empty() {
                continue;
            }
            let w = load as f64 / keys.len() as f64;
            points.extend(keys.iter().map(|&k| (k, w)));
        }
        if points.is_empty() {
            return self.clone();
        }
        points.sort_unstable_by_key(|p| p.0);
        let total: f64 = points.iter().map(|p| p.1).sum();
        let mut bounds: Vec<u64> = Vec::with_capacity(s);
        bounds.push(0);
        let mut cum = 0.0;
        let mut it = points.iter().peekable();
        for k in 1..s {
            let target = total * k as f64 / s as f64;
            let mut boundary = None;
            while let Some(&&(key, w)) = it.peek() {
                if cum + w < target {
                    cum += w;
                    it.next();
                } else {
                    // This key's mass crosses the target: it stays in
                    // the lower slice, the boundary sits just above it.
                    cum += w;
                    it.next();
                    boundary = Some(key.saturating_add(1));
                    break;
                }
            }
            let prev = *bounds.last().expect("bounds start at 0");
            // Reserve one key of headroom per remaining boundary so the
            // tail stays strictly ascending even when the points run out
            // or cluster at the top of the key space.
            let headroom = (s - 1 - k) as u64;
            let key = boundary
                .unwrap_or(u64::MAX - headroom)
                .max(prev + 1)
                .min(u64::MAX - headroom);
            bounds.push(key);
        }
        ShardRouter::from_bounds(bounds)
    }

    /// Splits a position-ordered batch into one [`SubBatch`] per shard
    /// (empty sub-batches included, so index `s` is always shard `s`).
    /// Each fingerprint lands in exactly one sub-batch, in its original
    /// relative order, alongside its position in the caller's batch.
    pub fn split(&self, fps: &[Fingerprint]) -> Vec<SubBatch> {
        let mut subs: Vec<SubBatch> = (0..self.count()).map(|_| SubBatch::default()).collect();
        for (i, fp) in fps.iter().enumerate() {
            let sub = &mut subs[self.shard_of(fp)];
            sub.positions.push(i);
            sub.fingerprints.push(*fp);
        }
        subs
    }
}

/// One intra-node shard's share of the node's work — the imbalance
/// signal hot-shard detection reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardLoad {
    /// Lookup/insert/query operations the shard served.
    pub queries: u64,
    /// Busy virtual time the shard accumulated.
    pub busy: Nanos,
}

/// Max/mean ratio of per-shard query counts: 1.0 is perfectly balanced,
/// `S` is everything-on-one-shard. Zero-load vectors report 1.0.
pub fn load_imbalance(loads: &[ShardLoad]) -> f64 {
    if loads.is_empty() {
        return 1.0;
    }
    let total: u64 = loads.iter().map(|l| l.queries).sum();
    if total == 0 {
        return 1.0;
    }
    let mean = total as f64 / loads.len() as f64;
    let max = loads.iter().map(|l| l.queries).max().unwrap_or(0) as f64;
    max / mean
}

/// One shard's slice of a batch: the fingerprints routed to it, parallel
/// to their positions in the original batch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SubBatch {
    /// Positions in the original batch, ascending.
    pub positions: Vec<usize>,
    /// The slice's fingerprints, parallel to `positions`.
    pub fingerprints: Vec<Fingerprint>,
}

/// One shard's classified slice of a lookup-insert frame, ready for the
/// frame-order merge.
#[derive(Debug, Clone)]
pub struct SubClassified {
    /// Positions in the original batch, ascending.
    pub positions: Vec<usize>,
    /// The slice's fingerprints, parallel to `positions`.
    pub fingerprints: Vec<Fingerprint>,
    /// Per-fingerprint decisions, parallel to `positions`.
    pub classes: Vec<Classified>,
}

/// The merged outcome of a classified lookup-insert frame.
#[derive(Debug, Clone)]
pub struct MergedLookup {
    /// Per-fingerprint existence, parallel to the frame.
    pub exists: Vec<bool>,
    /// Per-fingerprint values, parallel to the frame: the stored value
    /// for hits, the newly assigned value for inserts (mirroring
    /// [`crate::BatchResult::values`]).
    pub values: Vec<u64>,
    /// Per-sub-slice `(fingerprint, value)` insert lists, parallel to
    /// the `subs` argument of [`merge_classified`] — each shard applies
    /// its own list.
    pub inserts: Vec<Vec<(Fingerprint, u64)>>,
}

/// Merges per-shard classifications back into one frame answer,
/// allocating insert values in **frame arrival order** via `alloc` —
/// exactly the order a sequential [`HybridHashNode`] would have assigned
/// them, regardless of how the shards were scheduled. In-frame repeats
/// ([`Classified::NewDup`]) resolve to their first occurrence's value.
pub fn merge_classified(
    total: usize,
    subs: &[SubClassified],
    mut alloc: impl FnMut() -> u64,
) -> MergedLookup {
    // Scatter each position's (sub, offset) so the walk below runs in
    // global frame order.
    let mut at: Vec<(usize, usize)> = vec![(usize::MAX, 0); total];
    for (si, sub) in subs.iter().enumerate() {
        for (k, &pos) in sub.positions.iter().enumerate() {
            at[pos] = (si, k);
        }
    }
    let mut exists = vec![false; total];
    let mut values = vec![0u64; total];
    let mut inserts: Vec<Vec<(Fingerprint, u64)>> = vec![Vec::new(); subs.len()];
    for pos in 0..total {
        let (si, k) = at[pos];
        debug_assert_ne!(si, usize::MAX, "sub-batches must cover every position");
        let sub = &subs[si];
        let fp = sub.fingerprints[k];
        match sub.classes[k] {
            Classified::Hit(v) => {
                exists[pos] = true;
                values[pos] = v;
            }
            Classified::New => {
                let v = alloc();
                inserts[si].push((fp, v));
                values[pos] = v;
            }
            Classified::NewDup(first) => {
                // The first occurrence precedes this one in frame order.
                exists[pos] = true;
                values[pos] = values[sub.positions[first]];
            }
        }
    }
    MergedLookup {
        exists,
        values,
        inserts,
    }
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

    fn fp(v: u64) -> Fingerprint {
        Fingerprint::from_u64(v)
    }

    /// Fingerprints spread over the routing-key space.
    fn spread(i: u64) -> Fingerprint {
        fp(i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31))
    }

    /// A node's [`shard_slices`] driven one shard after another: the
    /// classify → merge → apply semantics the server's shard workers
    /// reproduce concurrently.
    struct Sequential {
        router: ShardRouter,
        shards: Vec<HybridHashNode>,
        next: u64,
    }

    impl Sequential {
        fn new(config: NodeConfig) -> Self {
            let shards = shard_slices(NodeId::new(0), &config).unwrap();
            let next = shards.iter().map(HybridHashNode::next_value_hint).max();
            Sequential {
                router: ShardRouter::new(config.shards),
                shards,
                next: next.unwrap_or(0),
            }
        }

        fn owner(&mut self, f: Fingerprint) -> &mut HybridHashNode {
            &mut self.shards[self.router.shard_of(&f)]
        }

        fn lookup_insert_batch(&mut self, fps: &[Fingerprint]) -> (Vec<bool>, Vec<u64>) {
            let subs: Vec<SubClassified> = self
                .router
                .split(fps)
                .into_iter()
                .zip(&mut self.shards)
                .map(|(sub, shard)| {
                    let classes = shard.classify_batch(&sub.fingerprints).unwrap();
                    SubClassified {
                        positions: sub.positions,
                        fingerprints: sub.fingerprints,
                        classes,
                    }
                })
                .collect();
            let next = &mut self.next;
            let merged = merge_classified(fps.len(), &subs, || {
                *next += 1;
                *next - 1
            });
            for (shard, pairs) in self.shards.iter_mut().zip(&merged.inserts) {
                shard.apply_inserts(pairs).unwrap();
            }
            (merged.exists, merged.values)
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
    fn from_bounds_routes_by_explicit_slices() {
        let router = ShardRouter::from_bounds(vec![0, 100, 1 << 40]);
        assert_eq!(router.shard_of(&fp(0)), 0);
        assert_eq!(router.shard_of(&fp(99)), 0);
        assert_eq!(router.shard_of(&fp(100)), 1);
        assert_eq!(router.shard_of(&fp((1 << 40) - 1)), 1);
        assert_eq!(router.shard_of(&fp(1 << 40)), 2);
        assert_eq!(router.shard_of(&fp(u64::MAX)), 2);
        assert_eq!(router.bounds(), &[0, 100, 1 << 40]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn from_bounds_rejects_disorder() {
        let _ = ShardRouter::from_bounds(vec![0, 5, 5]);
    }

    #[test]
    fn rebalanced_over_keys_splits_a_clustered_hot_set() {
        let router = ShardRouter::new(4);
        // 300 keys clustered at the very bottom of shard 0's slice: the
        // key-weighted split must land boundaries between the stored
        // keys.
        let keys: Vec<u64> = (0..300).map(|i| i * 1000).collect();
        let loads = [300u64, 0, 0, 0];
        let keys_by_shard = [keys.clone(), Vec::new(), Vec::new(), Vec::new()];
        let hot = router.rebalanced_over_keys(&loads, &keys_by_shard);
        let mut per_shard = [0usize; 4];
        for &k in &keys {
            per_shard[hot.shard_of(&fp(k))] += 1;
        }
        assert_eq!(per_shard, [75, 75, 75, 75], "bounds {:?}", hot.bounds());
        // Degenerate inputs leave the router unchanged.
        assert_eq!(
            router
                .rebalanced_over_keys(&[0; 4], &[vec![], vec![], vec![], vec![]])
                .bounds(),
            router.bounds()
        );
        // Fewer keys than shards still yields a valid (strictly
        // ascending) partition.
        let tiny = router.rebalanced_over_keys(
            &[2, 0, 0, 0],
            &[vec![u64::MAX - 1, u64::MAX], vec![], vec![], vec![]],
        );
        assert_eq!(tiny.count(), 4);
    }

    #[test]
    fn load_imbalance_signal() {
        let balanced: Vec<ShardLoad> = (0..4)
            .map(|_| ShardLoad {
                queries: 100,
                busy: Nanos::ZERO,
            })
            .collect();
        assert!((load_imbalance(&balanced) - 1.0).abs() < 1e-9);
        let skewed: Vec<ShardLoad> = [970u64, 10, 10, 10]
            .iter()
            .map(|&q| ShardLoad {
                queries: q,
                busy: Nanos::ZERO,
            })
            .collect();
        assert!(load_imbalance(&skewed) > 3.0);
        assert_eq!(load_imbalance(&[]), 1.0);
    }

    #[test]
    fn resplit_preserves_every_answer() {
        // Volatile regardless of the env matrix: WAL nodes never re-split
        // (see the test below).
        let volatile = NodeConfig::small_test().with_durability(crate::Durability::Volatile);
        let mut reference = HybridHashNode::new(NodeId::new(0), volatile.clone()).unwrap();
        let mut node = Sequential::new(volatile.with_shards(4));
        // Clustered keys: everything lands on shard 0.
        let hot: Vec<Fingerprint> = (0..120).map(|i| fp(i * 1000)).collect();
        reference.lookup_insert_batch(&hot).unwrap();
        node.lookup_insert_batch(&hot);
        let queries: Vec<u64> = node.shards.iter().map(|s| s.stats().ops()).collect();
        let loads: Vec<ShardLoad> = queries
            .iter()
            .map(|&queries| ShardLoad {
                queries,
                busy: Nanos::ZERO,
            })
            .collect();
        assert!(
            load_imbalance(&loads) > 2.0,
            "clustered keys overload shard 0"
        );
        // Re-split over the stored keys and re-home every entry outside
        // its new slice — install on the target, then remove from the
        // source — the way the server's autotune does.
        let scans: Vec<Vec<(Fingerprint, u64)>> =
            node.shards.iter_mut().map(|s| s.scan().unwrap()).collect();
        let keys: Vec<Vec<u64>> = scans
            .iter()
            .map(|pairs| pairs.iter().map(|(f, _)| f.route_key()).collect())
            .collect();
        let router = node.router.rebalanced_over_keys(&queries, &keys);
        let mut moved = 0;
        for (s, pairs) in scans.into_iter().enumerate() {
            for (f, v) in pairs {
                let t = router.shard_of(&f);
                if t != s {
                    assert_eq!(node.shards[t].install(f, v).unwrap(), None);
                    node.shards[s].remove(f).unwrap();
                    moved += 1;
                }
            }
        }
        node.router = router;
        assert!(moved > 0, "clustered entries must re-home");
        // Nothing changed observably: same answers, same scan, same
        // entries — and the stored entries now span several shards.
        let want = reference.lookup_insert_batch(&hot).unwrap();
        assert_eq!(node.lookup_insert_batch(&hot), (want.exists, want.values));
        assert_eq!(node.scan(), reference.scan().unwrap());
        assert_eq!(node.entries(), reference.entries());
        assert!(node.shards.iter().filter(|s| s.entries() > 0).count() > 1);
    }

    /// Why a WAL-backed node declines to re-split: each shard replays its
    /// own `s{i}` log on restart and the reopened node routes uniformly,
    /// so an entry a re-split moved comes back on a shard the uniform
    /// router never asks. (The server declining is checked by the
    /// adaptive-equivalence suite.)
    #[test]
    fn resplit_declined_for_durable_nodes() {
        let dir = std::env::temp_dir().join(format!("shhc-resplit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = NodeConfig::small_test()
            .with_shards(4)
            .with_durability(crate::Durability::wal(&dir));
        let uniform = ShardRouter::new(4);
        let resplit = ShardRouter::from_bounds(vec![0, 1, 2, 3]);
        let f = fp(1000);
        let (home, target) = (uniform.shard_of(&f), resplit.shard_of(&f));
        assert_ne!(home, target);
        let mut shards = shard_slices(NodeId::new(0), &config).unwrap();
        assert!(shards.iter().all(HybridHashNode::is_durable));
        let v = shards[home].lookup_insert(f).unwrap().value;
        assert_eq!(shards[target].install(f, v).unwrap(), None);
        shards[home].remove(f).unwrap();
        for shard in &mut shards {
            shard.close().unwrap();
        }
        drop(shards);
        let mut reopened = shard_slices(NodeId::new(0), &config).unwrap();
        assert_eq!(reopened[target].scan().unwrap(), vec![(f, v)]);
        let (exists, _) = reopened[uniform.shard_of(&f)].query_many(&[f]).unwrap();
        assert_eq!(exists, vec![false], "the uniform owner lost the entry");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn autosize_moves_capacity_to_the_missing_shard() {
        use shhc_cache::{CacheSizer, SizerConfig};
        let mut node = Sequential::new(NodeConfig::small_test().with_shards(4));
        // Warm every shard, then hammer shard 0 with misses (clustered
        // low keys) so its decayed miss count dominates.
        let spread_keys: Vec<Fingerprint> = (0..64).map(spread).collect();
        node.lookup_insert_batch(&spread_keys);
        for i in 0..2000u64 {
            let f = fp(i % 701); // low keys → shard 0, mostly capacity misses
            node.owner(f).query_many(&[f]).unwrap();
        }
        let sizer = CacheSizer::new(SizerConfig {
            min_capacity: 8,
            step: 16,
            hysteresis: 1.5,
        });
        let profile = |shards: &[HybridHashNode]| -> Vec<(usize, f64)> {
            shards
                .iter()
                .map(|s| (s.cache_capacity(), s.recent_cache_misses()))
                .collect()
        };
        let before = profile(&node.shards);
        let d = sizer.plan(&before).expect("skewed misses move capacity");
        assert_eq!(d.to, 0, "hot shard receives: {d:?}");
        // Shrink the donor first, then grow the receiver, as the server's
        // autotune does: total residency never overshoots.
        node.shards[d.from].resize_cache(before[d.from].0 - d.entries);
        node.shards[d.to].resize_cache(before[d.to].0 + d.entries);
        let after = profile(&node.shards);
        let total = |p: &[(usize, f64)]| p.iter().map(|c| c.0).sum::<usize>();
        assert_eq!(total(&after), total(&before));
        assert!(after[0].0 > before[0].0);
    }

    #[test]
    fn split_preserves_positions_and_order() {
        let router = ShardRouter::new(5);
        let fps: Vec<Fingerprint> = (0..200).map(spread).collect();
        let subs = router.split(&fps);
        assert_eq!(subs.len(), 5);
        let mut seen = vec![false; fps.len()];
        for (s, sub) in subs.iter().enumerate() {
            assert_eq!(sub.positions.len(), sub.fingerprints.len());
            for w in sub.positions.windows(2) {
                assert!(w[0] < w[1], "positions must stay in arrival order");
            }
            for (&pos, f) in sub.positions.iter().zip(&sub.fingerprints) {
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
            let subs = router.split(&fps);
            let covered: usize = subs.iter().map(|s| s.positions.len()).sum();
            prop_assert_eq!(covered, fps.len(), "split must cover every position once");
            for (s, sub) in subs.iter().enumerate() {
                for f in &sub.fingerprints {
                    prop_assert_eq!(router.shard_of(f), s);
                }
            }
        }

        /// The slices of a node (any S), driven through classify → merge
        /// → apply, answer exactly like the unsharded node under random
        /// lookup/remove/record/install interleavings.
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
