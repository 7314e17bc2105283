//! Intra-node sharding: one hybrid node split into prefix-routed shards.
//!
//! The paper scales SHHC *across* machines but runs each hybrid hash
//! node as one sequential server, so a node can never exploit more than
//! one core. This module partitions a node's fingerprint range into `S`
//! contiguous routing-key slices ([`ShardRouter`]); each shard owns its
//! own RAM cache, bloom filter and flash slice (a full
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
//! [`ShardedNode`] drives the three steps sequentially (the reference
//! semantics — the equivalence suite proves it answers byte-identically
//! to a [`HybridHashNode`]); the cluster server runs step 1 and 3 on a
//! per-shard worker pool, one core per shard.

use shhc_cache::{CacheSizer, CacheStats, SizerDecision};
use shhc_flash::{DeviceStats, FtlStats};
use shhc_types::{Admission, Fingerprint, FpHashMap, KeyRange, Nanos, NodeId, Result};

use crate::hybrid::{BatchResult, Classified, HybridHashNode, LookupResult, NodeConfig, NodeStats};

/// Routes fingerprints to intra-node shards by routing-key prefix.
///
/// Each shard owns one contiguous routing-key slice. The uniform router
/// ([`ShardRouter::new`]) gives shard `s` of `S` the slice
/// `[s·2⁶⁴/S, (s+1)·2⁶⁴/S)`; a *rebalanced* router
/// ([`ShardRouter::rebalanced`]) keeps the same number of shards but
/// moves the slice boundaries so observed load splits evenly — the
/// hot-shard mitigation narrows the overloaded prefix instead of
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
    /// *observed* per-shard load evenly, assuming load is uniform within
    /// each current slice (piecewise-linear interpolation of the load
    /// CDF). A shard carrying most of the load ends up with a
    /// proportionally narrower slice; an all-zero load vector returns
    /// the router unchanged.
    pub fn rebalanced(&self, loads: &[u64]) -> ShardRouter {
        let s = self.count();
        assert_eq!(loads.len(), s, "one load sample per shard");
        let total: u128 = loads.iter().map(|&l| u128::from(l)).sum();
        if total == 0 || s == 1 {
            return self.clone();
        }
        const SPAN_END: u128 = 1 << 64;
        let mut bounds: Vec<u64> = Vec::with_capacity(s);
        bounds.push(0);
        let mut cum: u128 = 0; // load below segment `seg`
        let mut seg = 0usize;
        for k in 1..s {
            let target = total * k as u128 / s as u128;
            while cum + u128::from(loads[seg]) < target {
                cum += u128::from(loads[seg]);
                seg += 1;
            }
            let lo = u128::from(self.bounds[seg]);
            let hi = if seg + 1 < s {
                u128::from(self.bounds[seg + 1])
            } else {
                SPAN_END
            };
            let seg_load = u128::from(loads[seg]);
            let key = ((hi - lo) * (target - cum))
                .checked_div(seg_load)
                .map_or(lo, |offset| lo + offset);
            // Keep the bounds strictly ascending even when several
            // targets collapse into one narrow hot slice.
            let prev = u128::from(*bounds.last().expect("bounds start at 0"));
            bounds.push(key.max(prev + 1).min(SPAN_END - 1) as u64);
        }
        ShardRouter::from_bounds(bounds)
    }

    /// Like [`rebalanced`](Self::rebalanced), but models each shard's
    /// load as point masses on its *actual stored routing keys* instead
    /// of spreading it uniformly over the slice. This is the form the
    /// autotuner uses once it holds the shard scans: a hot set clustered
    /// at the very bottom of one slice gets boundaries placed *between*
    /// its keys in a single pass, where the uniform model would need
    /// many narrowing rounds to reach them.
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
    /// [`BatchResult::values`]).
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
    let mut assigned: FpHashMap<Fingerprint, u64> = FpHashMap::default();
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
                assigned.insert(fp, v);
                inserts[si].push((fp, v));
                values[pos] = v;
            }
            Classified::NewDup => {
                exists[pos] = true;
                values[pos] = *assigned
                    .get(&fp)
                    .expect("NewDup follows its New in frame order");
            }
        }
    }
    MergedLookup {
        exists,
        values,
        inserts,
    }
}

/// A hybrid hash node split into prefix-routed shards — the intra-node
/// scaling counterpart of [`HybridHashNode`], answering **byte-identically**
/// to it for every operation (the equivalence suite drives both against
/// randomized interleavings).
///
/// This type drives its shards sequentially and is the semantic
/// reference; the cluster server distributes the same shards across a
/// worker pool for real multi-core execution. Statistics aggregate
/// across shards via the `merge` constructors
/// ([`NodeStats::merge`], [`CacheStats::merge`], …).
///
/// # Examples
///
/// ```
/// use shhc_node::{NodeConfig, ShardedNode};
/// use shhc_types::{Fingerprint, NodeId};
///
/// # fn main() -> Result<(), shhc_types::Error> {
/// let config = NodeConfig::small_test().with_shards(4);
/// let mut node = ShardedNode::new(NodeId::new(0), config)?;
/// let fp = Fingerprint::from_u64(7);
/// assert!(!node.lookup_insert(fp)?.existed);
/// assert!(node.lookup_insert(fp)?.existed);
/// assert_eq!(node.entries(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ShardedNode {
    id: NodeId,
    config: NodeConfig,
    router: ShardRouter,
    shards: Vec<HybridHashNode>,
    next_value: u64,
}

impl ShardedNode {
    /// Creates a node with `config.shards` shards, each built from
    /// [`NodeConfig::shard_slice`].
    ///
    /// # Errors
    ///
    /// Propagates flash-configuration errors from any shard.
    pub fn new(id: NodeId, config: NodeConfig) -> Result<Self> {
        let router = ShardRouter::new(config.shards);
        let slice = config.shard_slice();
        let shards = (0..router.count())
            .map(|i| {
                // Each shard persists under its own subdirectory of the
                // node's data dir (no-op for volatile configs), so shard
                // WALs never interleave and a restart reopens each
                // shard's own log.
                let mut shard_cfg = slice.clone();
                shard_cfg.durability = config.durability.scoped(format!("s{i}"));
                HybridHashNode::new(id, shard_cfg)
            })
            .collect::<Result<Vec<_>>>()?;
        let next_value = shards
            .iter()
            .map(HybridHashNode::next_value_hint)
            .max()
            .unwrap_or(0);
        Ok(ShardedNode {
            id,
            config,
            router,
            shards,
            next_value,
        })
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node-level configuration (shard slices derive from it).
    pub fn config(&self) -> &NodeConfig {
        &self.config
    }

    /// The shard router (for callers that partition work themselves) —
    /// cheap to clone, the boundary table is shared.
    pub fn router(&self) -> ShardRouter {
        self.router.clone()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Decomposes the node into its shards (shard order preserved) — the
    /// cluster server moves each onto its own worker thread.
    pub fn into_shards(self) -> Vec<HybridHashNode> {
        self.shards
    }

    /// Merged node counters across shards.
    pub fn stats(&self) -> NodeStats {
        NodeStats::merge(
            self.shards
                .iter()
                .map(HybridHashNode::stats)
                .collect::<Vec<_>>()
                .iter(),
        )
    }

    /// Per-shard load shares — the imbalance signal hot-shard detection
    /// feeds to [`load_imbalance`] and [`ShardRouter::rebalanced`].
    pub fn shard_loads(&self) -> Vec<ShardLoad> {
        self.shards
            .iter()
            .map(|shard| {
                let s = shard.stats();
                ShardLoad {
                    queries: s.ops() + s.queries,
                    busy: s.busy,
                }
            })
            .collect()
    }

    /// Re-partitions the shard slices in place: every stored entry whose
    /// routing key falls outside its shard's *new* slice migrates to the
    /// owning shard (install on the target, then remove from the source —
    /// entries are never absent mid-move). Returns the number of entries
    /// moved. Answers are unaffected: the router changes *where* an entry
    /// lives inside the node, never what a lookup returns.
    ///
    /// # Errors
    ///
    /// [`shhc_types::Error::InvalidArgument`] when the new router's shard
    /// count differs, or when the node is durable — a WAL restart rebuilds
    /// the uniform router and would mis-route re-homed entries, so live
    /// re-splitting is (for now) a volatile-node optimization.
    pub fn resplit(&mut self, new_router: ShardRouter) -> Result<u64> {
        if new_router.count() != self.shards.len() {
            return Err(shhc_types::Error::InvalidArgument(format!(
                "resplit must keep the shard count ({} != {})",
                new_router.count(),
                self.shards.len()
            )));
        }
        if self.config.durability.is_durable() {
            return Err(shhc_types::Error::InvalidArgument(
                "resplit of a durable node would diverge from the WAL's uniform layout".into(),
            ));
        }
        if new_router == self.router {
            return Ok(0);
        }
        let mut moved = 0u64;
        for s in 0..self.shards.len() {
            for (fp, value) in self.shards[s].scan()? {
                let target = new_router.shard_of(&fp);
                if target != s {
                    self.shards[target].install(fp, value)?;
                    self.shards[s].remove(fp)?;
                    moved += 1;
                }
            }
        }
        self.router = new_router;
        Ok(moved)
    }

    /// Per-shard `(cache capacity, decayed recent misses)` — the cache
    /// autosizer's input vector.
    pub fn shard_cache_profile(&self) -> Vec<(usize, f64)> {
        self.shards
            .iter()
            .map(|s| (s.cache_capacity(), s.recent_cache_misses()))
            .collect()
    }

    /// Resizes one shard's RAM cache online (clamped to the policy
    /// minimum).
    pub fn resize_shard_cache(&mut self, shard: usize, capacity: usize) {
        self.shards[shard].resize_cache(capacity);
    }

    /// One cache-autosizing step: asks `sizer` for a capacity move given
    /// the current per-shard profile and applies it (shrink the donor
    /// first, then grow the receiver — total residency never overshoots).
    /// Returns the applied move, `None` when the shards are balanced.
    pub fn autosize_caches(&mut self, sizer: &CacheSizer) -> Option<SizerDecision> {
        let profile = self.shard_cache_profile();
        let d = sizer.plan(&profile)?;
        self.shards[d.from].resize_cache(profile[d.from].0 - d.entries);
        self.shards[d.to].resize_cache(profile[d.to].0 + d.entries);
        Some(d)
    }

    /// Merged RAM cache counters across shards.
    pub fn cache_stats(&self) -> CacheStats {
        let parts: Vec<CacheStats> = self
            .shards
            .iter()
            .map(HybridHashNode::cache_stats)
            .collect();
        CacheStats::merge(parts.iter())
    }

    /// Merged flash device counters across shard slices.
    pub fn device_stats(&self) -> DeviceStats {
        let parts: Vec<DeviceStats> = self
            .shards
            .iter()
            .map(HybridHashNode::device_stats)
            .collect();
        DeviceStats::merge(parts.iter())
    }

    /// Merged FTL counters across shard slices.
    pub fn ftl_stats(&self) -> FtlStats {
        let parts: Vec<FtlStats> = self.shards.iter().map(HybridHashNode::ftl_stats).collect();
        FtlStats::merge(parts.iter())
    }

    /// Fingerprints stored across all shards (live records).
    pub fn entries(&self) -> u64 {
        self.shards.iter().map(HybridHashNode::entries).sum()
    }

    /// RAM cache occupancy across all shards.
    pub fn cached_entries(&self) -> usize {
        self.shards.iter().map(HybridHashNode::cached_entries).sum()
    }

    /// Flash signature-directory bytes across all shards.
    pub fn directory_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(HybridHashNode::directory_bytes)
            .sum()
    }

    /// The paper's lookup-insert over one fingerprint.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn lookup_insert(&mut self, fp: Fingerprint) -> Result<LookupResult> {
        let batch = self.lookup_insert_batch(std::slice::from_ref(&fp))?;
        Ok(LookupResult {
            existed: batch.exists[0],
            outcome: if batch.exists[0] {
                // The tier that answered is a per-shard detail; existence
                // and value are what the wire carries.
                crate::hybrid::LookupOutcome::RamHit
            } else {
                crate::hybrid::LookupOutcome::Inserted
            },
            value: batch.values[0],
            cost: batch.cost,
        })
    }

    /// Batched lookup-insert: classify each shard's slice, merge in
    /// frame order (allocating insert values exactly as a sequential
    /// [`HybridHashNode`] would), then apply the inserts per shard.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn lookup_insert_batch(&mut self, fps: &[Fingerprint]) -> Result<BatchResult> {
        let subs = self.router.split(fps);
        let mut classified: Vec<SubClassified> = Vec::new();
        let mut involved: Vec<usize> = Vec::new();
        let mut cost = Nanos::ZERO;
        for (s, sub) in subs.into_iter().enumerate() {
            if sub.fingerprints.is_empty() {
                continue;
            }
            let before = self.shards[s].stats().busy;
            let classes = self.shards[s].classify_batch(&sub.fingerprints)?;
            cost += self.shards[s].stats().busy - before;
            involved.push(s);
            classified.push(SubClassified {
                positions: sub.positions,
                fingerprints: sub.fingerprints,
                classes,
            });
        }
        let next = &mut self.next_value;
        let merged = merge_classified(fps.len(), &classified, || {
            let v = *next;
            *next += 1;
            v
        });
        for (&s, pairs) in involved.iter().zip(&merged.inserts) {
            if pairs.is_empty() {
                continue;
            }
            let before = self.shards[s].stats().busy;
            self.shards[s].apply_inserts(pairs)?;
            cost += self.shards[s].stats().busy - before;
        }
        Ok(BatchResult {
            exists: merged.exists,
            values: merged.values,
            cost,
        })
    }

    /// Read-only batched existence query (no insertion on miss), with
    /// per-shard coalesced flash reads.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn query_many(&mut self, fps: &[Fingerprint]) -> Result<(Vec<bool>, Vec<u64>)> {
        self.query_many_with(fps, Admission::Normal)
    }

    /// [`ShardedNode::query_many`] with an explicit cache-admission hint,
    /// forwarded to every involved shard (see
    /// [`HybridHashNode::query_many_with`]). Answers are identical for
    /// both hints.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn query_many_with(
        &mut self,
        fps: &[Fingerprint],
        admission: Admission,
    ) -> Result<(Vec<bool>, Vec<u64>)> {
        let mut exists = vec![false; fps.len()];
        let mut values = vec![0u64; fps.len()];
        for (s, sub) in self.router.split(fps).into_iter().enumerate() {
            if sub.fingerprints.is_empty() {
                continue;
            }
            let (e, v) = self.shards[s].query_many_with(&sub.fingerprints, admission)?;
            for ((&pos, e), v) in sub.positions.iter().zip(e).zip(v) {
                exists[pos] = e;
                values[pos] = v;
            }
        }
        Ok((exists, values))
    }

    /// Sets the value stored with a fingerprint (upsert), on its shard.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn record(&mut self, fp: Fingerprint, value: u64) -> Result<Nanos> {
        self.shard_mut(&fp).record(fp, value)
    }

    /// Installs a migrated entry if absent, on its shard.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn install(&mut self, fp: Fingerprint, value: u64) -> Result<bool> {
        self.shard_mut(&fp).install(fp, value)
    }

    /// Removes a fingerprint from its shard (no-op when absent).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn remove(&mut self, fp: Fingerprint) -> Result<()> {
        self.shard_mut(&fp).remove(fp)
    }

    /// Flushes every shard's SSD write buffer.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn flush(&mut self) -> Result<Nanos> {
        let mut cost = Nanos::ZERO;
        for shard in &mut self.shards {
            cost += shard.flush()?;
        }
        Ok(cost)
    }

    /// First value [`ShardedNode::lookup_insert`] would assign — after
    /// recovery, one past the highest value any shard recovered.
    pub fn next_value_hint(&self) -> u64 {
        self.next_value
    }

    /// Group-commits every shard's write-ahead log (no-op for volatile
    /// nodes).
    ///
    /// # Errors
    ///
    /// Propagates file-system errors from any shard.
    pub fn wal_commit(&mut self) -> Result<()> {
        for shard in &mut self.shards {
            shard.wal_commit()?;
        }
        Ok(())
    }

    /// Cleanly shuts every shard down (flush + WAL close). Dropping the
    /// node without closing models a crash.
    ///
    /// # Errors
    ///
    /// Propagates device and file-system errors from any shard.
    pub fn close(&mut self) -> Result<Nanos> {
        let mut cost = Nanos::ZERO;
        for shard in &mut self.shards {
            cost += shard.close()?;
        }
        Ok(cost)
    }

    /// Scans every fingerprint stored on the node, in ascending
    /// fingerprint order: shard slices are contiguous routing-key
    /// ranges, so concatenating per-shard (sorted) scans in shard order
    /// is already globally sorted.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn scan(&mut self) -> Result<Vec<(Fingerprint, u64)>> {
        let mut out = Vec::new();
        for shard in &mut self.shards {
            out.extend(shard.scan()?);
        }
        Ok(out)
    }

    /// One page of a cursor-driven range scan, byte-identical to
    /// [`HybridHashNode::scan_range`]: shards are walked in fingerprint
    /// order starting at the cursor's shard, over-fetching one entry to
    /// decide `done` exactly as the unsharded scan does.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn scan_range(
        &mut self,
        range: KeyRange,
        after: Option<Fingerprint>,
        limit: usize,
    ) -> Result<(Vec<(Fingerprint, u64)>, bool)> {
        let start = after.map(|fp| self.router.shard_of(&fp)).unwrap_or(0);
        let mut out: Vec<(Fingerprint, u64)> = Vec::new();
        for s in start..self.shards.len() {
            let want = limit + 1 - out.len();
            let (page, _) = self.shards[s].scan_range(range, after, want)?;
            out.extend(page);
            if out.len() > limit {
                break;
            }
        }
        let done = out.len() <= limit;
        out.truncate(limit);
        Ok((out, done))
    }

    fn shard_mut(&mut self, fp: &Fingerprint) -> &mut HybridHashNode {
        let s = self.router.shard_of(fp);
        &mut self.shards[s]
    }
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

    fn sharded(s: u32) -> ShardedNode {
        ShardedNode::new(NodeId::new(0), NodeConfig::small_test().with_shards(s)).expect("config")
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
    fn rebalanced_narrows_the_hot_slice() {
        let router = ShardRouter::new(4);
        // Shard 0 carries ~97% of the load: its slice must shrink and
        // the other boundaries must crowd into the old shard-0 range.
        let hot = router.rebalanced(&[9700, 100, 100, 100]);
        assert_eq!(hot.count(), 4);
        let old_shard0_end = router.bounds()[1];
        assert!(
            hot.bounds()[1] < old_shard0_end / 2,
            "hot prefix should narrow, bounds {:?}",
            hot.bounds()
        );
        // Under the assumed piecewise-uniform load, each new slice now
        // carries ~1/4: re-deriving loads from the new bounds via overlap
        // with the old slices should be near-balanced.
        // Balanced load is a fixed point.
        let balanced = router.rebalanced(&[5, 5, 5, 5]);
        assert_eq!(balanced.bounds(), router.bounds());
        // Zero load leaves the router unchanged.
        assert_eq!(router.rebalanced(&[0; 4]).bounds(), router.bounds());
    }

    #[test]
    fn rebalanced_over_keys_splits_a_clustered_hot_set() {
        let router = ShardRouter::new(4);
        // 300 keys clustered at the very bottom of shard 0's slice — the
        // uniform model barely moves the boundary; the key-weighted one
        // must land boundaries between the stored keys.
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
        // Volatile regardless of the env matrix: re-splitting is
        // *supposed* to be declined on durable nodes (tested below).
        let volatile = NodeConfig::small_test().with_durability(crate::Durability::Volatile);
        let mut reference = HybridHashNode::new(NodeId::new(0), volatile.clone()).unwrap();
        let mut node = ShardedNode::new(NodeId::new(0), volatile.with_shards(4)).unwrap();
        // Clustered keys: everything lands on shard 0.
        let hot: Vec<Fingerprint> = (0..120).map(|i| fp(i * 1000)).collect();
        reference.lookup_insert_batch(&hot).unwrap();
        node.lookup_insert_batch(&hot).unwrap();
        let loads = node.shard_loads();
        assert!(
            load_imbalance(&loads) > 2.0,
            "clustered keys overload shard 0"
        );
        // Re-split the hot prefix across all four shards, then verify
        // nothing changed observably: same answers, same scan, same
        // entries.
        let new_router = ShardRouter::from_bounds(vec![0, 30_000, 60_000, 90_000]);
        let moved = node.resplit(new_router.clone()).unwrap();
        assert!(moved > 0, "clustered entries must re-home");
        assert_eq!(node.router(), new_router);
        let want = reference.lookup_insert_batch(&hot).unwrap();
        let got = node.lookup_insert_batch(&hot).unwrap();
        assert_eq!(got.exists, want.exists);
        assert_eq!(got.values, want.values);
        assert_eq!(node.scan().unwrap(), reference.scan().unwrap());
        assert_eq!(node.entries(), reference.entries());
        // The re-split spread the stored entries across shards.
        let spread_loads = node.shard_loads();
        assert!(spread_loads.iter().filter(|l| l.queries > 0).count() > 1);
    }

    #[test]
    fn resplit_declined_for_durable_nodes() {
        let dir = std::env::temp_dir().join(format!("shhc-resplit-{}", std::process::id()));
        let config = NodeConfig::small_test()
            .with_shards(4)
            .with_durability(crate::Durability::wal(&dir));
        let mut node = ShardedNode::new(NodeId::new(0), config).unwrap();
        let err = node
            .resplit(ShardRouter::from_bounds(vec![0, 1, 2, 3]))
            .unwrap_err();
        assert!(
            matches!(err, shhc_types::Error::InvalidArgument(_)),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resplit_rejects_shard_count_change() {
        let mut node = sharded(4);
        let err = node.resplit(ShardRouter::new(8)).unwrap_err();
        assert!(
            matches!(err, shhc_types::Error::InvalidArgument(_)),
            "{err}"
        );
    }

    #[test]
    fn autosize_moves_capacity_to_the_missing_shard() {
        use shhc_cache::SizerConfig;
        let mut node = sharded(4);
        // Warm every shard, then hammer shard 0 with misses (clustered
        // low keys) so its decayed miss count dominates.
        let spread_keys: Vec<Fingerprint> = (0..64).map(spread).collect();
        node.lookup_insert_batch(&spread_keys).unwrap();
        for i in 0..2000u64 {
            let f = fp(i % 701); // low keys → shard 0, mostly capacity misses
            node.query_many(std::slice::from_ref(&f)).unwrap();
        }
        let sizer = CacheSizer::new(SizerConfig {
            min_capacity: 8,
            step: 16,
            hysteresis: 1.5,
        });
        let before = node.shard_cache_profile();
        let total_before: usize = before.iter().map(|p| p.0).sum();
        let d = node
            .autosize_caches(&sizer)
            .expect("skewed misses move capacity");
        assert_eq!(d.to, 0, "hot shard receives: {d:?}");
        let after = node.shard_cache_profile();
        assert_eq!(after.iter().map(|p| p.0).sum::<usize>(), total_before);
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
            let mut node = sharded(s);
            // Mixed batches with in-batch duplicates and revisits.
            for round in 0..6u64 {
                let batch: Vec<Fingerprint> =
                    (0..64).map(|i| spread((round * 40 + i) % 150)).collect();
                let want = reference.lookup_insert_batch(&batch).unwrap();
                let got = node.lookup_insert_batch(&batch).unwrap();
                assert_eq!(got.exists, want.exists, "S={s} round={round}");
                assert_eq!(got.values, want.values, "S={s} round={round}");
            }
            assert_eq!(node.entries(), reference.entries());
            assert_eq!(node.scan().unwrap(), reference.scan().unwrap());
            assert_eq!(node.stats().ops(), reference.stats().ops());
        }
    }

    #[test]
    fn scan_range_pages_match_hybrid_exactly() {
        let mut reference = HybridHashNode::new(NodeId::new(0), NodeConfig::small_test()).unwrap();
        let mut node = sharded(4);
        for i in 0..300 {
            reference.lookup_insert(spread(i)).unwrap();
        }
        let all: Vec<Fingerprint> = (0..300).map(spread).collect();
        node.lookup_insert_batch(&all).unwrap();
        for range in [
            KeyRange::full(),
            KeyRange::new(0, u64::MAX / 2),
            KeyRange::new(u64::MAX / 4 * 3, u64::MAX / 4), // wrapping
        ] {
            let mut cursor = None;
            loop {
                let want = reference.scan_range(range, cursor, 11).unwrap();
                let got = node.scan_range(range, cursor, 11).unwrap();
                assert_eq!(got, want, "range {range:?} cursor {cursor:?}");
                cursor = want.0.last().map(|(f, _)| *f);
                if want.1 {
                    break;
                }
            }
        }
    }

    #[test]
    fn stats_aggregate_across_shards() {
        let mut node = sharded(4);
        let batch: Vec<Fingerprint> = (0..100).map(spread).collect();
        node.lookup_insert_batch(&batch).unwrap();
        node.lookup_insert_batch(&batch).unwrap();
        let s = node.stats();
        assert_eq!(s.ops(), 200);
        assert_eq!(s.inserted, 100);
        assert_eq!(s.ram_hits + s.ssd_hits, 100);
        assert!(s.ram_hit_ratio() > 0.0);
        assert!(s.busy > Nanos::ZERO);
        assert_eq!(node.entries(), 100);
        assert!(node.cache_stats().lookups() > 0);
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

        /// A sharded node (any S) answers exactly like the sequential
        /// reference under random lookup/remove/record interleavings.
        #[test]
        fn prop_sharded_matches_reference(
            shards in 1u32..=8,
            keys in proptest::collection::vec(0u64..120, 1..150),
        ) {
            let mut reference =
                HybridHashNode::new(NodeId::new(0), NodeConfig::small_test()).unwrap();
            let mut node = sharded(shards);
            for (i, &k) in keys.iter().enumerate() {
                let f = spread(k);
                match k % 7 {
                    0 => {
                        reference.remove(f).unwrap();
                        node.remove(f).unwrap();
                    }
                    1 => {
                        reference.record(f, k * 10).unwrap();
                        node.record(f, k * 10).unwrap();
                    }
                    2 => {
                        let a = reference.install(f, k).unwrap();
                        let b = node.install(f, k).unwrap();
                        prop_assert_eq!(a, b, "install at op {i}");
                    }
                    _ => {
                        let want = reference.lookup_insert_batch(&[f]).unwrap();
                        let got = node.lookup_insert_batch(&[f]).unwrap();
                        prop_assert_eq!(got.exists, want.exists, "lookup at op {i}");
                        prop_assert_eq!(got.values, want.values, "value at op {i}");
                    }
                }
            }
            prop_assert_eq!(node.entries(), reference.entries());
            prop_assert_eq!(node.scan().unwrap(), reference.scan().unwrap());
        }
    }
}
