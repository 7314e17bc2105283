//! The hybrid node implementation.

use shhc_bloom::BloomFilter;
use shhc_cache::{Cache, LruCache, SegmentedLruCache, TwoQCache};
use shhc_flash::{DeviceStats, Durability, FlashConfig, FlashStore, FtlStats};
use shhc_index::{AnyHandle, AnyIndex, BackendKind, Collection, CollectionHandle};
use shhc_types::{Fingerprint, KeyRange, Nanos, NodeId, Result};

/// Which replacement policy manages the RAM fingerprint cache.
///
/// The paper prescribes plain LRU; the alternatives are ablation points
/// for the cache-policy bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CachePolicy {
    /// Plain least-recently-used (the paper's design).
    #[default]
    Lru,
    /// Segmented LRU (scan-resistant).
    Slru,
    /// 2Q (ghost-list admission).
    TwoQ,
}

/// A process-unique temp directory for a WAL-backed test node
/// (`SHHC_TEST_DURABILITY=wal`): pid + monotonic counter keep parallel
/// test binaries and successive test nodes from sharing store state.
fn unique_test_dir() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("shhc-test-{}-{seq}", std::process::id()))
}

/// Configuration of one hybrid node.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// RAM cache capacity in fingerprint entries.
    pub cache_capacity: usize,
    /// RAM cache replacement policy.
    pub cache_policy: CachePolicy,
    /// Expected fingerprints on this node (bloom sizing).
    pub bloom_expected: u64,
    /// Bloom false-positive rate target.
    pub bloom_fpr: f64,
    /// The node's SSD (geometry, latency, bucketing).
    pub flash: FlashConfig,
    /// CPU time to parse, hash and dispatch one fingerprint lookup.
    pub cpu_per_op: Nanos,
    /// RAM access time for one cache/bloom probe round.
    pub ram_probe: Nanos,
    /// Artificial *wall-clock* service time per fingerprint in a
    /// data-plane request (zero in production configs). Unlike the
    /// virtual-time costs above, the node server thread really sleeps
    /// for this long, making per-node service time visible to wall-clock
    /// scaling benches and slow-replica concurrency tests.
    pub service_delay: std::time::Duration,
    /// Artificial *wall-clock* cost charged once per data-plane frame
    /// (zero in production configs) — the per-message network/protocol
    /// overhead the in-process channel transport otherwise hides, and the
    /// cost that fingerprint batching exists to amortize. The front-end
    /// concurrency bench turns this up to make the batching dial visible
    /// in wall-clock terms.
    pub batch_overhead: std::time::Duration,
    /// Number of intra-node shards. `1` (the default) is the paper's
    /// single-threaded node, served by one server thread; `> 1` splits
    /// the node's fingerprint range into that many prefix-routed
    /// [`crate::ShardedNode`] shards, each owning its own RAM cache,
    /// bloom filter and flash slice, executed by a per-shard worker pool
    /// in the cluster server (one core per shard).
    pub shards: u32,
    /// Which concurrent index backend mirrors the node's live records.
    /// [`BackendKind::Single`] (the default) keeps the node exactly as
    /// before — no mirror, every request served by the owning worker.
    /// A concurrent backend maintains a [`shhc_index::AnyIndex`] mirror
    /// of the live fingerprint set, updated at every store mutation,
    /// from which read-only queries can be answered by [`NodeConfig::
    /// readers`] pool threads without touching the single-writer state.
    pub backend: BackendKind,
    /// Size of the read-only query pool the cluster server attaches to
    /// this node when [`NodeConfig::backend`] is concurrent. `0`
    /// disables the pool; with `R > 0`, `R` reader threads (readers can
    /// outnumber shards) answer `QueryReq` frames from the mirror index
    /// while writes stay serialized on the shard workers.
    pub readers: u32,
    /// Persistence mode of the node's flash store.
    /// [`Durability::Volatile`] (the default) keeps the historical
    /// behavior — state dies with the process. [`Durability::Wal`] gives
    /// the node a data-dir root under which its store (one subdirectory
    /// per shard) keeps a write-ahead journal + segment log, replayed on
    /// restart to rebuild the bucket directory, bloom filter and RAM
    /// cache before the node accepts traffic.
    pub durability: Durability,
}

impl NodeConfig {
    /// A realistic node: 1 M-entry RAM cache, bloom sized for 16 M
    /// fingerprints at 1 %, a 512 MiB simulated SSD, 2008-era Xeon-ish
    /// per-op CPU cost.
    pub fn default_node() -> Self {
        NodeConfig {
            cache_capacity: 1_000_000,
            cache_policy: CachePolicy::Lru,
            bloom_expected: 16_000_000,
            bloom_fpr: 0.01,
            flash: FlashConfig::default_node(),
            cpu_per_op: Nanos::from_micros(20),
            ram_probe: Nanos::new(500),
            service_delay: std::time::Duration::ZERO,
            batch_overhead: std::time::Duration::ZERO,
            shards: 1,
            backend: BackendKind::Single,
            readers: 0,
            durability: Durability::Volatile,
        }
    }

    /// A tiny node for unit tests: 64-entry cache, small flash, zero
    /// device latency.
    ///
    /// Honors the `SHHC_TEST_SHARDS` environment variable: when set to a
    /// shard count the whole test suite (cluster behavior, membership
    /// churn, …) runs against **sharded** nodes unmodified — CI uses this
    /// to prove the migration/drain/rebalance machinery is shard-agnostic.
    ///
    /// Honors `SHHC_TEST_BACKEND` the same way: when set to a concurrent
    /// [`BackendKind`] (`striped`, `snapshot`) every test node mirrors
    /// its live records into that backend and gets a two-thread reader
    /// pool, so the whole suite exercises pool-served queries against a
    /// concurrent index unmodified.
    ///
    /// Honors `SHHC_TEST_DURABILITY=wal` the same way: every test node
    /// gets a WAL-backed store under a unique temp directory, so the
    /// whole suite runs on top of the durable flash path unmodified.
    pub fn small_test() -> Self {
        let shards = std::env::var("SHHC_TEST_SHARDS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&s| s > 0)
            .unwrap_or(1);
        let backend = BackendKind::from_env("SHHC_TEST_BACKEND").unwrap_or_default();
        let durability = match std::env::var("SHHC_TEST_DURABILITY").as_deref() {
            Ok("wal") => Durability::wal(unique_test_dir()),
            _ => Durability::Volatile,
        };
        NodeConfig {
            cache_capacity: 64,
            cache_policy: CachePolicy::Lru,
            bloom_expected: 10_000,
            bloom_fpr: 0.01,
            flash: FlashConfig::small_test(),
            cpu_per_op: Nanos::from_micros(1),
            ram_probe: Nanos::new(100),
            service_delay: std::time::Duration::ZERO,
            batch_overhead: std::time::Duration::ZERO,
            shards,
            backend,
            readers: if backend.concurrent() { 2 } else { 0 },
            durability,
        }
    }

    /// Returns this configuration with the given intra-node shard count.
    pub fn with_shards(mut self, shards: u32) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Returns this configuration with the given index backend. Picking
    /// a concurrent backend without also setting
    /// [`NodeConfig::with_readers`] keeps request routing unchanged (the
    /// mirror is maintained but nobody reads from it).
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Returns this configuration with a reader pool of `readers`
    /// threads (only effective with a concurrent
    /// [`NodeConfig::backend`]).
    pub fn with_readers(mut self, readers: u32) -> Self {
        self.readers = readers;
        self
    }

    /// Returns this configuration with the given [`Durability`] mode.
    /// `Durability::wal(dir)` makes the node's flash store journal every
    /// mutation under `dir` and replay it on restart.
    pub fn with_durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// Whether the cluster server should attach a reader pool to this
    /// node: a concurrent backend and at least one reader thread.
    pub fn wants_reader_pool(&self) -> bool {
        self.backend.concurrent() && self.readers > 0
    }

    /// The per-shard configuration of one slice of this node: the SSD
    /// geometry, RAM write buffer, cache capacity and bloom sizing are
    /// divided across the shards (a shard owns a *slice* of the node's
    /// hardware, not a copy), with floors that keep each slice viable —
    /// enough spare blocks for FTL garbage collection and at least one
    /// cache/write-buffer entry. With `shards <= 1` the configuration is
    /// returned unchanged.
    pub fn shard_slice(&self) -> NodeConfig {
        let s = self.shards.max(1);
        let mut cfg = self.clone();
        cfg.shards = 1;
        if s == 1 {
            return cfg;
        }
        // GC needs ≈2 blocks of spare pages: blocks * overprovision ≥ 2.
        let min_blocks = (2.0 / self.flash.overprovision).ceil() as u32 + 1;
        cfg.flash.geometry.blocks = (self.flash.geometry.blocks / s).max(min_blocks);
        // The bucket directory shrinks with the slice (rounded down to a
        // power of two) — every occupied bucket pins at least one flash
        // page, so a full-size directory over a sliced device would
        // exhaust the logical address space long before the slice fills.
        let buckets = (self.flash.buckets / s as usize).max(1);
        cfg.flash.buckets = if buckets.is_power_of_two() {
            buckets
        } else {
            buckets.next_power_of_two() / 2
        };
        cfg.flash.write_buffer = (self.flash.write_buffer / s as usize).max(1);
        cfg.cache_capacity = (self.cache_capacity / s as usize).max(1);
        cfg.bloom_expected = (self.bloom_expected / u64::from(s)).max(1);
        cfg
    }
}

/// Which tier answered a lookup (paper Fig. 4 branches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupOutcome {
    /// Answered from the RAM cache.
    RamHit,
    /// Answered from the SSD table (and promoted to RAM).
    SsdHit,
    /// Fingerprint was new; inserted (the "send the data" answer).
    Inserted,
}

/// Per-fingerprint decision of a [`HybridHashNode::classify_batch`]
/// pass — the read half of a lookup-insert, split from the write half
/// ([`HybridHashNode::apply_inserts`]) so a sharded node can classify
/// shards concurrently, assign insert values in frame order at the
/// merge, and only then apply the writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Classified {
    /// The fingerprint is already stored; carries its value.
    Hit(u64),
    /// First sighting in this frame: absent from the node, to be
    /// inserted with a merge-assigned value.
    New,
    /// Repeat of a fingerprint already classified [`Classified::New`]
    /// earlier in the same frame — it exists *for the client* (same
    /// chunk, no second upload) and resolves to the first occurrence's
    /// assigned value.
    NewDup,
}

/// Result of one lookup-insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupResult {
    /// Whether the chunk already existed somewhere in the node.
    pub existed: bool,
    /// Which tier resolved the lookup.
    pub outcome: LookupOutcome,
    /// The value stored with the fingerprint (existing value on a hit,
    /// the newly assigned value on an insert).
    pub value: u64,
    /// Virtual time this operation consumed on the node.
    pub cost: Nanos,
}

/// Result of a batched lookup-insert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchResult {
    /// Per-fingerprint existence, parallel to the request order.
    pub exists: Vec<bool>,
    /// Per-fingerprint stored values, parallel to the request order.
    pub values: Vec<u64>,
    /// Total virtual node time consumed by the batch.
    pub cost: Nanos,
}

/// Node-level counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Lookups answered by the RAM cache.
    pub ram_hits: u64,
    /// Lookups answered by the SSD table.
    pub ssd_hits: u64,
    /// Lookups that inserted a new fingerprint.
    pub inserted: u64,
    /// SSD probes avoided because the bloom filter said "absent".
    pub bloom_skips: u64,
    /// Bloom said "present" but the SSD probe found nothing.
    pub bloom_false_positives: u64,
    /// Read-only queries served.
    pub queries: u64,
    /// Entries installed by migration (rebalance traffic, not client
    /// lookups — kept out of `inserted` so dedup accounting stays clean).
    pub migrated_in: u64,
    /// Total virtual busy time of this node (CPU + RAM + device).
    pub busy: Nanos,
    /// Times a mirror-index lock acquisition found the lock held and had
    /// to block (zero without a concurrent [`NodeConfig::backend`]).
    pub lock_waits: u64,
    /// Times a snapshot-backend reader refreshed a stale frozen snapshot
    /// (zero for the locking backends).
    pub read_retries: u64,
    /// Queries answered by the reader pool from the mirror index — a
    /// subset of [`NodeStats::queries`], so `pool_queries / queries` is
    /// the pool's share of the query traffic (its occupancy).
    pub pool_queries: u64,
    /// Live entries rebuilt from the WAL when this node (re)opened its
    /// store — zero for volatile nodes and for first boots of a durable
    /// node.
    pub recovered_entries: u64,
    /// WAL records (journal + segment pages + compactions) replayed at
    /// recovery.
    pub recovery_replayed: u64,
    /// Torn (partially written) WAL tail records detected, truncated and
    /// *not* replayed at recovery.
    pub recovery_torn: u64,
    /// Virtual time spent replaying the WAL at recovery (also included
    /// in [`NodeStats::busy`]).
    pub recovery_busy: Nanos,
    /// Peak depth observed on the node's inbound request queue (frames
    /// waiting plus the one being served). The overload gauge: a node
    /// keeping up hovers near 1; a saturated node's peak grows with the
    /// burst it absorbed. Merged with `max`, not summed — it is a
    /// high-water mark, not a counter.
    pub queue_peak: u64,
}

impl NodeStats {
    /// Sums counters across shards into one node-level aggregate.
    ///
    /// Idle (all-zero) shards contribute nothing — the merged
    /// [`NodeStats::ops`] and [`NodeStats::ram_hit_ratio`] are computed
    /// from the summed raw counters, never by averaging per-shard ratios
    /// (which would divide by zero on an empty shard and weight a
    /// one-lookup shard like a million-lookup one). `busy` sums too: it
    /// is aggregate virtual *work*, not wall-clock — shards execute
    /// concurrently.
    pub fn merge<'a>(parts: impl IntoIterator<Item = &'a NodeStats>) -> NodeStats {
        parts.into_iter().fold(NodeStats::default(), |mut acc, p| {
            acc.ram_hits += p.ram_hits;
            acc.ssd_hits += p.ssd_hits;
            acc.inserted += p.inserted;
            acc.bloom_skips += p.bloom_skips;
            acc.bloom_false_positives += p.bloom_false_positives;
            acc.queries += p.queries;
            acc.migrated_in += p.migrated_in;
            acc.busy += p.busy;
            acc.lock_waits += p.lock_waits;
            acc.read_retries += p.read_retries;
            acc.pool_queries += p.pool_queries;
            acc.recovered_entries += p.recovered_entries;
            acc.recovery_replayed += p.recovery_replayed;
            acc.recovery_torn += p.recovery_torn;
            acc.recovery_busy += p.recovery_busy;
            acc.queue_peak = acc.queue_peak.max(p.queue_peak);
            acc
        })
    }

    /// Total lookup-insert operations.
    pub fn ops(&self) -> u64 {
        self.ram_hits + self.ssd_hits + self.inserted
    }

    /// Fraction of duplicate detections served from RAM; 0.0 when no
    /// duplicate was ever detected (a fresh or empty node), so merged and
    /// per-shard stats alike never divide by zero.
    pub fn ram_hit_ratio(&self) -> f64 {
        let dups = self.ram_hits + self.ssd_hits;
        if dups == 0 {
            0.0
        } else {
            self.ram_hits as f64 / dups as f64
        }
    }
}

/// One hybrid RAM+SSD hash node.
///
/// See the [crate docs](crate) for the lookup workflow. The node is
/// single-threaded by design — the cluster layer runs one node per OS
/// thread (as the paper runs one hash server per machine) or drives nodes
/// as simulation agents.
#[derive(Debug)]
pub struct HybridHashNode {
    id: NodeId,
    bloom: BloomFilter,
    cache: NodeCache,
    store: FlashStore,
    config: NodeConfig,
    stats: NodeStats,
    next_value: u64,
    /// With a concurrent [`NodeConfig::backend`]: a shareable index
    /// mirroring the node's live records (fingerprint → stored value),
    /// updated by this (single-writer) node at every store mutation.
    /// Reader-pool threads clone it and answer read-only queries without
    /// entering the node. `None` under [`BackendKind::Single`].
    mirror: Option<AnyIndex<Fingerprint, u64>>,
    /// The node's own pinned writer handle onto the mirror.
    mirror_writer: Option<AnyHandle<Fingerprint, u64>>,
}

/// Concrete cache dispatch (enum instead of trait object to keep the node
/// `Debug` and the dispatch branch-predictable).
#[derive(Debug)]
enum NodeCache {
    Lru(LruCache<Fingerprint, u64>),
    Slru(SegmentedLruCache<Fingerprint, u64>),
    TwoQ(TwoQCache<Fingerprint, u64>),
}

impl NodeCache {
    fn new(policy: CachePolicy, capacity: usize) -> Self {
        match policy {
            CachePolicy::Lru => NodeCache::Lru(LruCache::new(capacity)),
            CachePolicy::Slru => NodeCache::Slru(SegmentedLruCache::new(capacity.max(2), 0.8)),
            CachePolicy::TwoQ => NodeCache::TwoQ(TwoQCache::new(capacity.max(4))),
        }
    }

    fn get(&mut self, fp: &Fingerprint) -> Option<u64> {
        match self {
            NodeCache::Lru(c) => c.get(fp).copied(),
            NodeCache::Slru(c) => c.get(fp).copied(),
            NodeCache::TwoQ(c) => c.get(fp).copied(),
        }
    }

    fn insert(&mut self, fp: Fingerprint, v: u64) {
        match self {
            NodeCache::Lru(c) => {
                c.insert(fp, v);
            }
            NodeCache::Slru(c) => {
                c.insert(fp, v);
            }
            NodeCache::TwoQ(c) => {
                c.insert(fp, v);
            }
        }
    }

    fn remove(&mut self, fp: &Fingerprint) {
        match self {
            NodeCache::Lru(c) => {
                c.remove(fp);
            }
            NodeCache::Slru(c) => {
                c.remove(fp);
            }
            NodeCache::TwoQ(c) => {
                c.remove(fp);
            }
        }
    }

    fn len(&self) -> usize {
        match self {
            NodeCache::Lru(c) => c.len(),
            NodeCache::Slru(c) => c.len(),
            NodeCache::TwoQ(c) => c.len(),
        }
    }

    fn stats(&self) -> shhc_cache::CacheStats {
        match self {
            NodeCache::Lru(c) => c.stats(),
            NodeCache::Slru(c) => c.stats(),
            NodeCache::TwoQ(c) => c.stats(),
        }
    }

    fn capacity(&self) -> usize {
        match self {
            NodeCache::Lru(c) => c.capacity(),
            NodeCache::Slru(c) => c.capacity(),
            NodeCache::TwoQ(c) => c.capacity(),
        }
    }

    /// Resizes online, clamping to the policy's minimum capacity (the
    /// same clamps [`NodeCache::new`] applies).
    fn resize(&mut self, capacity: usize) {
        match self {
            NodeCache::Lru(c) => c.resize(capacity.max(1)),
            NodeCache::Slru(c) => c.resize(capacity.max(2)),
            NodeCache::TwoQ(c) => c.resize(capacity.max(4)),
        }
    }

    fn recent_hit_ratio(&self) -> f64 {
        match self {
            NodeCache::Lru(c) => c.recent_hit_ratio(),
            NodeCache::Slru(c) => c.recent_hit_ratio(),
            NodeCache::TwoQ(c) => c.recent_hit_ratio(),
        }
    }

    fn recent_misses(&self) -> f64 {
        match self {
            NodeCache::Lru(c) => c.recent_misses(),
            NodeCache::Slru(c) => c.recent_misses(),
            NodeCache::TwoQ(c) => c.recent_misses(),
        }
    }
}

impl HybridHashNode {
    /// Creates a node with the given configuration.
    ///
    /// With [`Durability::Wal`] the flash store is *opened*, not created:
    /// any surviving journal + segment log under the data dir is replayed
    /// first, and the node warms its bloom filter, RAM cache and mirror
    /// index from the recovered records before accepting traffic — a
    /// restarted node answers exactly as it did before the crash.
    ///
    /// # Errors
    ///
    /// Propagates [`shhc_types::Error::InvalidArgument`] from the flash
    /// store configuration and [`shhc_types::Error::Io`] /
    /// [`shhc_types::Error::Corruption`] from WAL recovery.
    pub fn new(id: NodeId, config: NodeConfig) -> Result<Self> {
        let (mut store, recovery) = FlashStore::open(config.flash, &config.durability)?;
        let mirror = config
            .backend
            .concurrent()
            .then(|| AnyIndex::new(config.backend, config.cache_capacity));
        let mut mirror_writer = mirror.as_ref().map(Collection::pin);

        let mut bloom = BloomFilter::with_rate(config.bloom_expected, config.bloom_fpr);
        let mut cache = NodeCache::new(config.cache_policy, config.cache_capacity);
        let mut stats = NodeStats::default();
        let mut next_value = 0;
        let mut warm_cost = Nanos::ZERO;
        if recovery.entries > 0 {
            // Warm the read path from the recovered table: bloom must see
            // every live fingerprint (or lookups would wrongly skip the
            // SSD), the cache and mirror may see all of them (both are
            // capacity-bounded), and value allocation resumes above the
            // highest recovered value.
            let before = store.busy();
            for (fp, value) in store.scan()? {
                bloom.insert(fp.as_bytes());
                cache.insert(fp, value);
                if let Some(w) = mirror_writer.as_mut() {
                    w.insert(fp, value);
                }
                next_value = next_value.max(value + 1);
            }
            warm_cost = store.busy() - before;
            stats.recovered_entries = recovery.entries;
        }
        stats.recovery_replayed =
            recovery.journal_records + recovery.segment_pages + recovery.compactions;
        stats.recovery_torn = recovery.torn_records;
        stats.recovery_busy = recovery.replay_busy + warm_cost;
        stats.busy += stats.recovery_busy;

        Ok(HybridHashNode {
            id,
            bloom,
            cache,
            store,
            config,
            stats,
            next_value,
            mirror,
            mirror_writer,
        })
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's configuration.
    pub fn config(&self) -> &NodeConfig {
        &self.config
    }

    /// Node counters. With a concurrent backend the mirror's contention
    /// counters ([`NodeStats::lock_waits`], [`NodeStats::read_retries`])
    /// are folded in at read time — they live in the shared index, where
    /// reader-pool threads bump them too.
    pub fn stats(&self) -> NodeStats {
        let mut stats = self.stats;
        if let Some(mirror) = &self.mirror {
            let index = mirror.stats();
            stats.lock_waits = index.lock_waits;
            stats.read_retries = index.read_retries;
        }
        stats
    }

    /// The shareable mirror of this node's live records, when the
    /// configured [`NodeConfig::backend`] is concurrent. The cluster
    /// server clones this for its reader-pool threads; each then pins
    /// its own handle and answers queries without entering the node.
    pub fn mirror_index(&self) -> Option<&AnyIndex<Fingerprint, u64>> {
        self.mirror.as_ref()
    }

    /// RAM cache counters.
    pub fn cache_stats(&self) -> shhc_cache::CacheStats {
        self.cache.stats()
    }

    /// Current RAM cache capacity (may differ from the configured one
    /// after [`HybridHashNode::resize_cache`]).
    pub fn cache_capacity(&self) -> usize {
        self.cache.capacity()
    }

    /// Resizes the RAM cache online (clamped to the policy minimum).
    /// Purely a performance dial: a shrink evicts in policy order, which
    /// can only turn future hits into SSD hits — never change an answer.
    pub fn resize_cache(&mut self, capacity: usize) {
        self.cache.resize(capacity);
    }

    /// Exponentially decayed recent cache hit ratio — the autosizer's
    /// freshness-weighted view of [`HybridHashNode::cache_stats`].
    pub fn recent_cache_hit_ratio(&self) -> f64 {
        self.cache.recent_hit_ratio()
    }

    /// Exponentially decayed recent cache miss count (the
    /// marginal-utility demand signal).
    pub fn recent_cache_misses(&self) -> f64 {
        self.cache.recent_misses()
    }

    /// Flash device counters (for energy accounting).
    pub fn device_stats(&self) -> DeviceStats {
        self.store.device_stats()
    }

    /// FTL counters (GC activity).
    pub fn ftl_stats(&self) -> FtlStats {
        self.store.ftl_stats()
    }

    /// Number of fingerprints stored on this node (live records,
    /// including the RAM write buffer) — the Figure 6 measurement.
    pub fn entries(&self) -> u64 {
        self.store.len()
    }

    /// Current RAM cache occupancy.
    pub fn cached_entries(&self) -> usize {
        self.cache.len()
    }

    /// RAM held by the flash table's signature directories, in bytes
    /// ([`FlashStore::directory_bytes`]) — with the bloom filter and the
    /// cache, the third term of the node's RAM per fingerprint.
    pub fn directory_bytes(&self) -> usize {
        self.store.directory_bytes()
    }

    /// The paper's Figure 4 operation: look up `fp`, inserting it as a
    /// new chunk when absent.
    ///
    /// # Errors
    ///
    /// Propagates device errors ([`shhc_types::Error::OutOfSpace`] when
    /// the SSD fills).
    pub fn lookup_insert(&mut self, fp: Fingerprint) -> Result<LookupResult> {
        let value = self.next_value;
        let result = self.lookup_insert_with(fp, value)?;
        if result.outcome == LookupOutcome::Inserted {
            self.next_value += 1;
        }
        Ok(result)
    }

    /// [`HybridHashNode::lookup_insert`] with a caller-chosen value to
    /// associate on insert (e.g. a packed [`shhc_types::ChunkId`]).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn lookup_insert_with(&mut self, fp: Fingerprint, value: u64) -> Result<LookupResult> {
        let mut cost = self.config.cpu_per_op + self.config.ram_probe;

        // 1. RAM cache.
        if let Some(cached) = self.cache.get(&fp) {
            self.stats.ram_hits += 1;
            self.charge(cost);
            return Ok(LookupResult {
                existed: true,
                outcome: LookupOutcome::RamHit,
                value: cached,
                cost,
            });
        }

        // 2. Bloom filter guard in front of the SSD.
        if !self.bloom.contains(fp.as_bytes()) {
            self.stats.bloom_skips += 1;
            let flash_cost = self.charged_store(|s| s.put(fp, value))?;
            cost += flash_cost;
            self.bloom.insert(fp.as_bytes());
            self.cache.insert(fp, value);
            self.mirror_put(fp, value);
            self.stats.inserted += 1;
            self.charge(cost);
            return Ok(LookupResult {
                existed: false,
                outcome: LookupOutcome::Inserted,
                value,
                cost,
            });
        }

        // 3. SSD probe.
        let (found, flash_cost) = {
            let before = self.store.busy();
            let found = self.store.get(fp)?;
            (found, self.store.busy() - before)
        };
        cost += flash_cost;
        match found {
            Some(stored) => {
                self.cache.insert(fp, stored);
                self.stats.ssd_hits += 1;
                self.charge(cost);
                Ok(LookupResult {
                    existed: true,
                    outcome: LookupOutcome::SsdHit,
                    value: stored,
                    cost,
                })
            }
            None => {
                // Bloom false positive: the SSD probe was wasted.
                self.stats.bloom_false_positives += 1;
                let put_cost = self.charged_store(|s| s.put(fp, value))?;
                cost += put_cost;
                self.bloom.insert(fp.as_bytes());
                self.cache.insert(fp, value);
                self.mirror_put(fp, value);
                self.stats.inserted += 1;
                self.charge(cost);
                Ok(LookupResult {
                    existed: false,
                    outcome: LookupOutcome::Inserted,
                    value,
                    cost,
                })
            }
        }
    }

    /// Read-only existence check (no insertion on miss).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn query(&mut self, fp: Fingerprint) -> Result<LookupResult> {
        self.stats.queries += 1;
        let mut cost = self.config.cpu_per_op + self.config.ram_probe;
        if let Some(cached) = self.cache.get(&fp) {
            self.charge(cost);
            return Ok(LookupResult {
                existed: true,
                outcome: LookupOutcome::RamHit,
                value: cached,
                cost,
            });
        }
        if !self.bloom.contains(fp.as_bytes()) {
            self.charge(cost);
            return Ok(LookupResult {
                existed: false,
                outcome: LookupOutcome::Inserted,
                value: 0,
                cost,
            });
        }
        let before = self.store.busy();
        let found = self.store.get(fp)?;
        cost += self.store.busy() - before;
        self.charge(cost);
        match found {
            Some(v) => {
                self.cache.insert(fp, v);
                Ok(LookupResult {
                    existed: true,
                    outcome: LookupOutcome::SsdHit,
                    value: v,
                    cost,
                })
            }
            None => Ok(LookupResult {
                existed: false,
                outcome: LookupOutcome::Inserted,
                value: 0,
                cost,
            }),
        }
    }

    /// Batched [`HybridHashNode::lookup_insert`] — the unit of work a
    /// front-end ships to a node.
    ///
    /// # Errors
    ///
    /// Fails on the first device error, leaving earlier insertions done.
    pub fn lookup_insert_batch(&mut self, fps: &[Fingerprint]) -> Result<BatchResult> {
        let mut exists = Vec::with_capacity(fps.len());
        let mut values = Vec::with_capacity(fps.len());
        let mut cost = Nanos::ZERO;
        for fp in fps {
            let r = self.lookup_insert(*fp)?;
            exists.push(r.existed);
            values.push(r.value);
            cost += r.cost;
        }
        Ok(BatchResult {
            exists,
            values,
            cost,
        })
    }

    /// The read half of a batched lookup-insert: classifies every
    /// fingerprint as [`Classified::Hit`] (present, with its value),
    /// [`Classified::New`] (absent, to be inserted) or
    /// [`Classified::NewDup`] (repeat of a `New` earlier in this batch)
    /// **without writing anything**. SSD probes the bloom filter cannot
    /// rule out are deferred and issued as one coalesced
    /// [`FlashStore::get_batch`], so misses destined for the same
    /// on-flash bucket page share a single device read.
    ///
    /// Combined with [`HybridHashNode::apply_inserts`] this produces
    /// exactly the answers of [`HybridHashNode::lookup_insert_batch`]:
    /// the split exists so a sharded node can classify shards
    /// concurrently and assign insert values in frame order in between.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn classify_batch(&mut self, fps: &[Fingerprint]) -> Result<Vec<Classified>> {
        let mut out = vec![Classified::New; fps.len()];
        // Fingerprints classified New in this batch (not yet applied).
        let mut pending: shhc_types::FpHashSet<Fingerprint> = Default::default();
        let mut probe_idx: Vec<usize> = Vec::new();
        let mut probe_fps: Vec<Fingerprint> = Vec::new();
        let per_op = self.config.cpu_per_op + self.config.ram_probe;
        for (i, fp) in fps.iter().enumerate() {
            self.charge(per_op);
            if pending.contains(fp) {
                self.stats.ram_hits += 1;
                out[i] = Classified::NewDup;
                continue;
            }
            if let Some(cached) = self.cache.get(fp) {
                self.stats.ram_hits += 1;
                out[i] = Classified::Hit(cached);
                continue;
            }
            if !self.bloom.contains(fp.as_bytes()) {
                self.stats.bloom_skips += 1;
                pending.insert(*fp);
                continue; // out[i] stays New
            }
            probe_idx.push(i);
            probe_fps.push(*fp);
        }
        if !probe_fps.is_empty() {
            let before = self.store.busy();
            let found = self.store.get_batch(&probe_fps)?;
            let probe_cost = self.store.busy() - before;
            self.charge(probe_cost);
            for (k, &i) in probe_idx.iter().enumerate() {
                let fp = probe_fps[k];
                if pending.contains(&fp) {
                    self.stats.ram_hits += 1;
                    out[i] = Classified::NewDup;
                    continue;
                }
                match found[k] {
                    Some(v) => {
                        self.stats.ssd_hits += 1;
                        self.cache.insert(fp, v);
                        out[i] = Classified::Hit(v);
                    }
                    None => {
                        self.stats.bloom_false_positives += 1;
                        pending.insert(fp);
                        // out[i] stays New
                    }
                }
            }
        }
        Ok(out)
    }

    /// The write half of a batched lookup-insert: registers the entries a
    /// [`HybridHashNode::classify_batch`] pass decided were new, with the
    /// values the merge assigned. Counted as client inserts (not
    /// migration).
    ///
    /// The write is presence-checked: on a concurrently-driven sharded
    /// node another frame may have applied the same fingerprint between
    /// this frame's classify and apply, and a blind re-insert would
    /// double-count the live record. A late duplicate degrades to a
    /// value overwrite (both clients were told "send the data" — the
    /// benign redundant-copy race the backup service resolves) and is
    /// counted as an SSD-detected duplicate, keeping
    /// [`NodeStats::ops`] at one operation per fingerprint.
    ///
    /// # Errors
    ///
    /// Fails on the first device error, leaving earlier insertions done.
    pub fn apply_inserts(&mut self, pairs: &[(Fingerprint, u64)]) -> Result<()> {
        for &(fp, value) in pairs {
            let mut cost = Nanos::ZERO;
            let present = if self.bloom.contains(fp.as_bytes()) {
                let before = self.store.busy();
                let found = self.store.get(fp)?;
                cost += self.store.busy() - before;
                found.is_some()
            } else {
                false
            };
            if present {
                cost += self.charged_store(|s| s.update(fp, value))?;
                self.stats.ssd_hits += 1;
            } else {
                cost += self.charged_store(|s| s.put(fp, value))?;
                self.bloom.insert(fp.as_bytes());
                self.stats.inserted += 1;
            }
            self.cache.insert(fp, value);
            self.mirror_put(fp, value);
            self.charge(cost);
        }
        Ok(())
    }

    /// Batched [`HybridHashNode::query`] with coalesced SSD probes:
    /// returns position-parallel existence flags and values (zero for
    /// misses). Answers are identical to querying one at a time; bloom
    /// positives share bucket page reads via
    /// [`FlashStore::get_batch`].
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn query_many(&mut self, fps: &[Fingerprint]) -> Result<(Vec<bool>, Vec<u64>)> {
        self.stats.queries += fps.len() as u64;
        let mut exists = vec![false; fps.len()];
        let mut values = vec![0u64; fps.len()];
        let mut probe_idx: Vec<usize> = Vec::new();
        let mut probe_fps: Vec<Fingerprint> = Vec::new();
        let per_op = self.config.cpu_per_op + self.config.ram_probe;
        for (i, fp) in fps.iter().enumerate() {
            self.charge(per_op);
            if let Some(cached) = self.cache.get(fp) {
                exists[i] = true;
                values[i] = cached;
            } else if self.bloom.contains(fp.as_bytes()) {
                probe_idx.push(i);
                probe_fps.push(*fp);
            }
        }
        if !probe_fps.is_empty() {
            let before = self.store.busy();
            let found = self.store.get_batch(&probe_fps)?;
            let probe_cost = self.store.busy() - before;
            self.charge(probe_cost);
            for (k, &i) in probe_idx.iter().enumerate() {
                if let Some(v) = found[k] {
                    self.cache.insert(probe_fps[k], v);
                    exists[i] = true;
                    values[i] = v;
                }
            }
        }
        Ok((exists, values))
    }

    /// Flushes the SSD write buffer (e.g. at end of a backup window).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn flush(&mut self) -> Result<Nanos> {
        self.charged_store(|s| s.flush())
    }

    /// First value [`HybridHashNode::lookup_insert`] would assign. After
    /// recovery this is one past the highest recovered value, letting
    /// the cluster server reseed its value allocator without handing out
    /// ids the pre-crash node already used.
    pub fn next_value_hint(&self) -> u64 {
        self.next_value
    }

    /// True when the node's store persists through a write-ahead log.
    pub fn is_durable(&self) -> bool {
        self.store.is_durable()
    }

    /// Group-commits the write-ahead log: every mutation staged since
    /// the last commit reaches the journal file. The cluster server
    /// calls this after each data-plane frame, so an acknowledged frame
    /// is always recoverable. No-op for volatile nodes.
    ///
    /// # Errors
    ///
    /// Propagates [`shhc_types::Error::Io`] on file-system failures.
    pub fn wal_commit(&mut self) -> Result<()> {
        self.store.wal_commit()
    }

    /// Clean shutdown: flushes the write buffer (checkpointing the
    /// journal) and closes the WAL, so a subsequent open replays only
    /// segment metadata. Dropping the node *without* closing models a
    /// crash — staged records are lost and any configured
    /// [`shhc_flash::FaultPlan`] dirties the log tails.
    ///
    /// # Errors
    ///
    /// Propagates device and file-system errors.
    pub fn close(&mut self) -> Result<Nanos> {
        let cost = self.charged_store(|s| {
            if s.is_durable() {
                s.flush()?;
            }
            s.close()
        })?;
        self.charge(cost);
        Ok(cost)
    }

    /// Sets the value stored with a fingerprint: overwrites when the node
    /// holds it (replacing an insert-time placeholder with the chunk
    /// location assigned by the storage backend), inserts when it does
    /// not — a record racing a membership change may land on an owner
    /// that never saw the insert, and must still register the entry
    /// (with a correct live count). The RAM cache is refreshed too.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn record(&mut self, fp: Fingerprint, value: u64) -> Result<Nanos> {
        let mut cost = Nanos::ZERO;
        let present = if self.bloom.contains(fp.as_bytes()) {
            let before = self.store.busy();
            let found = self.store.get(fp)?;
            cost += self.store.busy() - before;
            found.is_some()
        } else {
            false
        };
        cost += if present {
            self.charged_store(|s| s.update(fp, value))?
        } else {
            let put = self.charged_store(|s| s.put(fp, value))?;
            self.bloom.insert(fp.as_bytes());
            put
        };
        self.cache.insert(fp, value);
        self.mirror_put(fp, value);
        self.charge(cost);
        Ok(cost)
    }

    /// Scans every fingerprint stored on the node (rebalancing support).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn scan(&mut self) -> Result<Vec<(Fingerprint, u64)>> {
        self.store.scan()
    }

    /// One page of a cursor-driven scan over the entries whose routing
    /// keys fall in `range`: at most `limit` entries with fingerprints
    /// strictly greater than `after` (or from the start when `None`), in
    /// ascending fingerprint order, plus whether the range is exhausted.
    ///
    /// Chunked migration walks a range with this: entries returned by one
    /// page may be removed before the next is requested without
    /// disturbing the cursor.
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
        let mut matches: Vec<(Fingerprint, u64)> = self
            .store
            .scan()?
            .into_iter()
            .filter(|(fp, _)| range.contains(fp.route_key()))
            .filter(|(fp, _)| after.is_none_or(|cursor| *fp > cursor))
            .collect();
        matches.sort_unstable_by_key(|(fp, _)| *fp);
        let done = matches.len() <= limit;
        matches.truncate(limit);
        Ok((matches, done))
    }

    /// Installs a migrated entry: inserts `fp` with `value` when absent,
    /// keeps the existing (fresher) record when present. Returns whether
    /// the entry was installed.
    ///
    /// This is the node half of online rebalancing — unlike
    /// [`HybridHashNode::lookup_insert_with`] it never counts toward the
    /// lookup statistics, and unlike [`HybridHashNode::record`] it cannot
    /// clobber a value a client recorded during the migration window.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn install(&mut self, fp: Fingerprint, value: u64) -> Result<bool> {
        let mut cost = self.config.cpu_per_op + self.config.ram_probe;
        if self.cache.get(&fp).is_some() {
            self.charge(cost);
            return Ok(false);
        }
        if self.bloom.contains(fp.as_bytes()) {
            let (found, probe) = {
                let before = self.store.busy();
                let found = self.store.get(fp)?;
                (found, self.store.busy() - before)
            };
            cost += probe;
            if let Some(existing) = found {
                self.cache.insert(fp, existing);
                self.charge(cost);
                return Ok(false);
            }
        }
        cost += self.charged_store(|s| s.put(fp, value))?;
        self.bloom.insert(fp.as_bytes());
        self.cache.insert(fp, value);
        self.mirror_put(fp, value);
        self.stats.migrated_in += 1;
        self.charge(cost);
        Ok(true)
    }

    /// Removes a fingerprint (rebalancing: entry moved to another node).
    /// Removing an absent fingerprint is a no-op — double removes (a
    /// client delete racing a migration's cleanup) must not underflow the
    /// live-record count or waste a tombstone write.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn remove(&mut self, fp: Fingerprint) -> Result<()> {
        // The bloom filter cannot unlearn; deletions leave it slightly
        // pessimistic, which is safe (false positives only). The RAM
        // cache, however, must evict immediately or a stale entry would
        // keep answering "exists".
        self.cache.remove(&fp);
        if !self.bloom.contains(fp.as_bytes()) {
            return Ok(());
        }
        let mut cost = {
            let before = self.store.busy();
            let found = self.store.get(fp)?;
            let probe = self.store.busy() - before;
            if found.is_none() {
                self.charge(probe);
                return Ok(());
            }
            probe
        };
        cost += self.charged_store(|s| s.delete(fp))?;
        self.mirror_remove(&fp);
        self.charge(cost);
        Ok(())
    }

    /// Mirrors a live-record write (put or update) into the concurrent
    /// index. Called at every store mutation site so the mirror tracks
    /// the store's live set exactly; a no-op without a mirror.
    fn mirror_put(&mut self, fp: Fingerprint, value: u64) {
        if let Some(writer) = &mut self.mirror_writer {
            writer.insert(fp, value);
        }
    }

    /// Mirrors a record deletion; a no-op without a mirror.
    fn mirror_remove(&mut self, fp: &Fingerprint) {
        if let Some(writer) = &mut self.mirror_writer {
            writer.remove(fp);
        }
    }

    /// Runs `f` against the store, returning the virtual device time it
    /// consumed.
    fn charged_store<T>(&mut self, f: impl FnOnce(&mut FlashStore) -> Result<T>) -> Result<Nanos> {
        let before = self.store.busy();
        f(&mut self.store)?;
        Ok(self.store.busy() - before)
    }

    fn charge(&mut self, cost: Nanos) {
        self.stats.busy += cost;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    fn node() -> HybridHashNode {
        HybridHashNode::new(NodeId::new(0), NodeConfig::small_test()).expect("config")
    }

    fn fp(v: u64) -> Fingerprint {
        Fingerprint::from_u64(v)
    }

    #[test]
    fn new_then_duplicate() {
        let mut n = node();
        let first = n.lookup_insert(fp(1)).unwrap();
        assert!(!first.existed);
        assert_eq!(first.outcome, LookupOutcome::Inserted);
        let second = n.lookup_insert(fp(1)).unwrap();
        assert!(second.existed);
        assert_eq!(second.outcome, LookupOutcome::RamHit);
        assert_eq!(n.stats().inserted, 1);
        assert_eq!(n.stats().ram_hits, 1);
    }

    #[test]
    fn ssd_hit_after_cache_eviction() {
        let mut n = node();
        let cap = n.config().cache_capacity as u64;
        n.lookup_insert(fp(0)).unwrap();
        // Evict fp(0) by inserting more than the cache holds.
        for i in 1..=cap + 8 {
            n.lookup_insert(fp(i)).unwrap();
        }
        let r = n.lookup_insert(fp(0)).unwrap();
        assert!(r.existed);
        assert_eq!(r.outcome, LookupOutcome::SsdHit, "must fall back to SSD");
        assert!(n.stats().ssd_hits >= 1);
    }

    #[test]
    fn bloom_skips_ssd_for_cold_misses() {
        let mut n = node();
        for i in 0..100 {
            n.lookup_insert(fp(i)).unwrap();
        }
        // All 100 were first sightings; the bloom filter should have
        // spared (almost) every one an SSD read.
        let s = n.stats();
        assert_eq!(s.inserted, 100);
        assert!(
            s.bloom_skips >= 95,
            "bloom skipped only {} of 100 cold misses",
            s.bloom_skips
        );
    }

    #[test]
    fn ram_accounting_names_the_flash_directory() {
        let mut n = node();
        let empty = n.directory_bytes();
        for i in 0..500 {
            n.lookup_insert(fp(i)).unwrap();
        }
        n.flush().unwrap();
        // Two bytes a record on flash, up to doubled by vector growth.
        let tags = n.directory_bytes() - empty;
        assert!(
            (2 * 500..=4 * 500).contains(&tags),
            "{tags} B for 500 records"
        );
    }

    #[test]
    fn query_does_not_insert() {
        let mut n = node();
        let r = n.query(fp(5)).unwrap();
        assert!(!r.existed);
        assert_eq!(n.entries(), 0);
        n.lookup_insert(fp(5)).unwrap();
        let r = n.query(fp(5)).unwrap();
        assert!(r.existed);
        assert_eq!(n.entries(), 1);
        assert_eq!(n.stats().queries, 2);
    }

    #[test]
    fn batch_equals_singles() {
        let fps: Vec<Fingerprint> = [1u64, 2, 1, 3, 2, 1].iter().map(|v| fp(*v)).collect();
        let mut a = node();
        let batch = a.lookup_insert_batch(&fps).unwrap();
        let mut b = node();
        let singles: Vec<bool> = fps
            .iter()
            .map(|f| b.lookup_insert(*f).unwrap().existed)
            .collect();
        assert_eq!(batch.exists, singles);
        assert_eq!(batch.exists, vec![false, false, true, false, true, true]);
    }

    #[test]
    fn costs_reflect_tiers() {
        // With real latencies, a RAM hit must be much cheaper than an
        // insert that programs flash pages.
        let mut config = NodeConfig::small_test();
        config.flash = FlashConfig::small_test_with_latency();
        config.cache_capacity = 4;
        let mut n = HybridHashNode::new(NodeId::new(1), config).unwrap();

        n.lookup_insert(fp(1)).unwrap();
        let ram = n.lookup_insert(fp(1)).unwrap();
        assert_eq!(ram.outcome, LookupOutcome::RamHit);

        // Evict fp(1) and flush so the next duplicate is a true SSD hit.
        for i in 2..10 {
            n.lookup_insert(fp(i)).unwrap();
        }
        n.flush().unwrap();
        let ssd = n.lookup_insert(fp(1)).unwrap();
        assert_eq!(ssd.outcome, LookupOutcome::SsdHit);
        assert!(
            ssd.cost > ram.cost,
            "SSD hit ({}) must cost more than RAM hit ({})",
            ssd.cost,
            ram.cost
        );
        assert!(ssd.cost >= Nanos::from_micros(25), "includes a flash read");
    }

    #[test]
    fn entries_counts_live_records() {
        let mut n = node();
        for i in 0..50 {
            n.lookup_insert(fp(i)).unwrap();
        }
        for i in 0..50 {
            n.lookup_insert(fp(i)).unwrap(); // duplicates don't add
        }
        assert_eq!(n.entries(), 50);
    }

    #[test]
    fn remove_supports_rebalancing() {
        let mut n = node();
        n.lookup_insert(fp(9)).unwrap();
        n.remove(fp(9)).unwrap();
        assert_eq!(n.entries(), 0);
        let scan = n.scan().unwrap();
        assert!(scan.is_empty());
    }

    #[test]
    fn remove_evicts_the_ram_cache() {
        let mut n = node();
        n.lookup_insert(fp(11)).unwrap();
        n.remove(fp(11)).unwrap();
        // A fresh lookup must see the fingerprint as NEW (not a stale
        // cache hit).
        let r = n.lookup_insert(fp(11)).unwrap();
        assert!(!r.existed, "stale RAM cache entry after remove");
        assert_eq!(n.entries(), 1);
    }

    #[test]
    fn record_on_absent_fingerprint_registers_it() {
        let mut n = node();
        n.record(fp(8), 800).unwrap();
        assert_eq!(n.entries(), 1, "record must register absent entries");
        let r = n.query(fp(8)).unwrap();
        assert!(r.existed);
        assert_eq!(r.value, 800);
        // And still overwrites when present.
        n.record(fp(8), 801).unwrap();
        assert_eq!(n.entries(), 1);
        assert_eq!(n.query(fp(8)).unwrap().value, 801);
    }

    #[test]
    fn remove_of_absent_fingerprint_is_a_noop() {
        let mut n = node();
        n.lookup_insert(fp(1)).unwrap();
        n.remove(fp(1)).unwrap();
        n.remove(fp(1)).unwrap(); // double remove
        n.remove(fp(2)).unwrap(); // never present
        assert_eq!(n.entries(), 0, "live count must not underflow");
        n.lookup_insert(fp(3)).unwrap();
        assert_eq!(n.entries(), 1);
    }

    #[test]
    fn install_inserts_only_when_absent() {
        let mut n = node();
        assert!(n.install(fp(1), 100).unwrap());
        assert!(
            !n.install(fp(1), 200).unwrap(),
            "present entries keep their value"
        );
        let r = n.query(fp(1)).unwrap();
        assert!(r.existed);
        assert_eq!(r.value, 100);
        // A client-recorded value survives a late migration install.
        n.lookup_insert(fp(2)).unwrap();
        n.record(fp(2), 555).unwrap();
        assert!(!n.install(fp(2), 1).unwrap());
        assert_eq!(n.query(fp(2)).unwrap().value, 555);
        // Installs count as migration, not lookups.
        assert_eq!(n.stats().migrated_in, 1);
        assert_eq!(n.stats().inserted, 1);
        assert_eq!(n.entries(), 2);
    }

    /// Fingerprints spread over the routing-key space (plain `fp(i)`
    /// keeps small counters in the route-key prefix).
    fn spread(i: u64) -> Fingerprint {
        fp(i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31))
    }

    #[test]
    fn scan_range_pages_through_a_range_in_order() {
        let mut n = node();
        for i in 0..200 {
            n.lookup_insert(spread(i)).unwrap();
        }
        let range = KeyRange::new(0, u64::MAX / 2);
        // Full walk in pages of 16, removing each page as migration does.
        let mut seen: Vec<Fingerprint> = Vec::new();
        let mut cursor = None;
        loop {
            let (page, done) = n.scan_range(range, cursor, 16).unwrap();
            assert!(page.len() <= 16);
            for w in page.windows(2) {
                assert!(w[0].0 < w[1].0, "page must be sorted");
            }
            if let Some(last) = page.last() {
                cursor = Some(last.0);
            }
            seen.extend(page.iter().map(|(f, _)| *f));
            if done {
                break;
            }
        }
        // Exactly the in-range entries, each once.
        let expected: Vec<Fingerprint> = {
            let mut v: Vec<Fingerprint> = (0..200)
                .map(spread)
                .filter(|f| range.contains(f.route_key()))
                .collect();
            v.sort_unstable();
            v
        };
        assert!(!expected.is_empty() && expected.len() < 200);
        assert_eq!(seen, expected);
        // Pages survive interleaved removal: removing what was returned
        // does not disturb the cursor.
        let (page, _) = n.scan_range(range, None, 8).unwrap();
        let cursor = page.last().map(|(f, _)| *f);
        for (f, _) in &page {
            n.remove(*f).unwrap();
        }
        let (next, _) = n.scan_range(range, cursor, 8).unwrap();
        for (f, _) in &next {
            assert!(
                !page.iter().any(|(p, _)| p == f),
                "page overlap after removal"
            );
        }
    }

    #[test]
    fn scan_range_wrapping_range_and_empty_result() {
        let mut n = node();
        for i in 0..50 {
            n.lookup_insert(spread(i)).unwrap();
        }
        // A wrapping range plus its complement partition the key space.
        let wrap = KeyRange::new(u64::MAX / 4 * 3, u64::MAX / 4);
        let complement = KeyRange::new(u64::MAX / 4 + 1, u64::MAX / 4 * 3 - 1);
        let (a, a_done) = n.scan_range(wrap, None, 1000).unwrap();
        let (b, b_done) = n.scan_range(complement, None, 1000).unwrap();
        assert!(a_done && b_done);
        assert_eq!(a.len() + b.len(), 50);
        // An empty node page reports done immediately.
        let mut empty = node();
        let (page, done) = empty.scan_range(KeyRange::full(), None, 10).unwrap();
        assert!(page.is_empty() && done);
    }

    #[test]
    fn scan_returns_all_live() {
        let mut n = node();
        for i in 0..30 {
            n.lookup_insert(fp(i)).unwrap();
        }
        n.flush().unwrap();
        let scan = n.scan().unwrap();
        assert_eq!(scan.len(), 30);
    }

    #[test]
    fn stats_partition_operations() {
        let mut n = node();
        for i in 0..200 {
            n.lookup_insert(fp(i % 40)).unwrap();
        }
        let s = n.stats();
        assert_eq!(s.ops(), 200);
        assert_eq!(s.inserted, 40);
        assert_eq!(s.ram_hits + s.ssd_hits, 160);
        assert!(s.busy > Nanos::ZERO);
    }

    #[test]
    fn alternative_cache_policies_work() {
        for policy in [CachePolicy::Slru, CachePolicy::TwoQ] {
            let mut config = NodeConfig::small_test();
            config.cache_policy = policy;
            let mut n = HybridHashNode::new(NodeId::new(2), config).unwrap();
            for i in 0..100 {
                n.lookup_insert(fp(i % 20)).unwrap();
            }
            assert_eq!(n.entries(), 20, "{policy:?}");
        }
    }

    /// The mirror index must track the store's live set exactly through
    /// every mutation path (lookup-insert, record, install, remove,
    /// apply-inserts), for every concurrent backend.
    #[test]
    fn mirror_tracks_live_records_for_every_backend() {
        for backend in [BackendKind::Striped, BackendKind::Snapshot] {
            let config = NodeConfig::small_test()
                .with_backend(backend)
                .with_readers(2);
            assert!(config.wants_reader_pool());
            let mut n = HybridHashNode::new(NodeId::new(3), config).unwrap();
            for i in 0..100 {
                n.lookup_insert(fp(i % 30)).unwrap();
            }
            n.record(fp(5), 5000).unwrap();
            n.record(fp(200), 2000).unwrap(); // absent: registers
            n.install(fp(201), 2010).unwrap();
            n.install(fp(5), 1).unwrap(); // present: keeps value
            n.apply_inserts(&[(fp(202), 2020), (fp(5), 5001)]).unwrap();
            for i in 0..10 {
                n.remove(fp(i)).unwrap();
            }
            n.remove(fp(999)).unwrap(); // absent: no-op

            let mirror = n.mirror_index().expect("concurrent backend").clone();
            let mut mirrored = mirror.snapshot_entries();
            mirrored.sort_unstable();
            let mut live = n.scan().unwrap();
            live.sort_unstable();
            assert_eq!(mirrored, live, "{backend} mirror diverged from store");

            // Read-only queries agree with the mirror, value included.
            let mut handle = mirror.pin();
            for i in 0..40 {
                let q = n.query(fp(i)).unwrap();
                let m = handle.get(&fp(i));
                assert_eq!(q.existed, m.is_some(), "{backend} fp {i}");
                if let Some(v) = m {
                    assert_eq!(q.value, v, "{backend} fp {i}");
                }
            }
        }
    }

    /// Without a concurrent backend there is no mirror and the new
    /// counters stay zero — the retained single-writer baseline.
    /// (Backend pinned explicitly: this test is *about* the baseline, so
    /// the `SHHC_TEST_BACKEND` matrix leg must not redirect it.)
    #[test]
    fn single_backend_has_no_mirror() {
        let config = NodeConfig::small_test()
            .with_backend(BackendKind::Single)
            .with_readers(0);
        let n = HybridHashNode::new(NodeId::new(0), config).expect("config");
        assert!(n.mirror_index().is_none());
        let s = n.stats();
        assert_eq!((s.lock_waits, s.read_retries, s.pool_queries), (0, 0, 0));
    }

    /// A durable node that crashed (dropped without `close`) after
    /// committing comes back answering exactly as before: every
    /// committed fingerprint is a duplicate, values are identical, and
    /// value allocation resumes past the recovered maximum.
    #[test]
    fn durable_node_survives_crash() {
        let dir = std::env::temp_dir().join(format!("shhc-node-crash-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = NodeConfig::small_test().with_durability(Durability::wal(&dir));
        // Real device latency, so recovery's simulated-time charge is
        // observable.
        config.flash = FlashConfig::small_test_with_latency();
        let mut values = Vec::new();
        {
            let mut n = HybridHashNode::new(NodeId::new(3), config.clone()).unwrap();
            assert!(n.is_durable());
            assert_eq!(
                n.stats().recovered_entries,
                0,
                "first boot recovers nothing"
            );
            for i in 0..300 {
                values.push(n.lookup_insert(fp(i)).unwrap().value);
            }
            n.wal_commit().unwrap();
            // Dropped here without close(): a crash.
        }
        let mut n = HybridHashNode::new(NodeId::new(3), config).unwrap();
        let s = n.stats();
        assert_eq!(s.recovered_entries, 300);
        assert!(s.recovery_replayed > 0);
        assert!(s.recovery_busy > Nanos::ZERO);
        assert!(n.next_value_hint() > 0);
        for i in 0..300 {
            let r = n.lookup_insert(fp(i)).unwrap();
            assert!(r.existed, "fingerprint {i} lost in the crash");
            assert_eq!(r.value, values[i as usize], "value changed for {i}");
        }
        let fresh = n.lookup_insert(fp(9999)).unwrap();
        assert!(!fresh.existed);
        assert!(
            !values.contains(&fresh.value),
            "recovered allocator reissued a pre-crash value"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Clean shutdown (`close`) checkpoints the journal; reopening
    /// replays only segment metadata and still recovers every entry.
    #[test]
    fn durable_node_clean_shutdown_roundtrip() {
        let dir = std::env::temp_dir().join(format!("shhc-node-clean-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = NodeConfig::small_test().with_durability(Durability::wal(&dir));
        {
            let mut n = HybridHashNode::new(NodeId::new(4), config.clone()).unwrap();
            for i in 0..200 {
                n.lookup_insert(fp(i)).unwrap();
            }
            n.close().unwrap();
        }
        let mut n = HybridHashNode::new(NodeId::new(4), config).unwrap();
        assert_eq!(n.stats().recovered_entries, 200);
        assert_eq!(n.entries(), 200);
        for i in 0..200 {
            assert!(n.query(fp(i)).unwrap().existed);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Existence answers always agree with a reference HashSet,
        /// regardless of cache evictions, flushes and bloom noise.
        #[test]
        fn prop_matches_reference_set(keys in proptest::collection::vec(0u64..200, 1..400),
                                      flush_every in 1usize..50) {
            let mut n = node();
            let mut seen = std::collections::HashSet::new();
            for (i, k) in keys.iter().enumerate() {
                let r = n.lookup_insert(fp(*k)).unwrap();
                prop_assert_eq!(r.existed, seen.contains(k), "key {} at pos {}", k, i);
                seen.insert(*k);
                if i % flush_every == 0 {
                    n.flush().unwrap();
                }
            }
            prop_assert_eq!(n.entries(), seen.len() as u64);
        }
    }
}
