//! The hybrid node implementation.

use shhc_cache::{Cache, LruCache};
use shhc_flash::{DeviceStats, Durability, FlashConfig, FlashStore, FtlStats};
use shhc_index::BackendKind;
use shhc_types::{Error, Fingerprint, Nanos, NodeId, Result};

/// Which replacement policy manages the RAM fingerprint cache: plain
/// LRU, the paper's design, is the only one. The type survives only
/// because the ledger sets [`NodeConfig::cache_policy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CachePolicy {
    /// Plain least-recently-used (the paper's design).
    #[default]
    Lru,
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
    /// RAM cache replacement policy; always [`CachePolicy::Lru`].
    pub cache_policy: CachePolicy,
    /// Ignored: the node has no bloom filter (the flash directory is its
    /// absence test). Kept only because the ledger sets it.
    pub bloom_expected: u64,
    /// Ignored, like [`NodeConfig::bloom_expected`].
    pub bloom_fpr: f64,
    /// The node's SSD (geometry, latency, bucketing).
    pub flash: FlashConfig,
    /// CPU time to parse, hash and dispatch one fingerprint lookup.
    pub cpu_per_op: Nanos,
    /// RAM access time for one cache probe. A directory probe is charged
    /// through the flash store's own clock (zero for a directory miss).
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
    /// the node's fingerprint range into that many prefix-routed shards
    /// ([`crate::shard_slices`]), each owning its own RAM cache and flash
    /// slice (with its directory), executed by a per-shard worker pool in the
    /// cluster server (one core per shard).
    pub shards: u32,
    /// Must be [`BackendKind::Single`]: each shard's RAM index is its own
    /// cache and flash table, owned by its worker. The field survives
    /// only because the ledger sets it; [`HybridHashNode::new`] rejects
    /// any other value.
    pub backend: BackendKind,
    /// Must be `0`: there is no reader pool. Kept for the same reason as
    /// [`NodeConfig::backend`], and rejected the same way.
    pub readers: u32,
    /// Persistence mode of the node's flash store.
    /// [`Durability::Volatile`] (the default) keeps the historical
    /// behavior — state dies with the process. [`Durability::Wal`] gives
    /// the node a data-dir root under which its store (one subdirectory
    /// per shard) keeps a write-ahead journal + segment log, replayed on
    /// restart to rebuild the bucket directory and warm the RAM cache
    /// before the node accepts traffic.
    pub durability: Durability,
}

impl NodeConfig {
    /// A realistic node: 1 M-entry RAM cache, a 512 MiB simulated SSD,
    /// 2008-era Xeon-ish per-op CPU cost.
    pub fn default_node() -> Self {
        NodeConfig {
            cache_capacity: 1_000_000,
            cache_policy: CachePolicy::Lru,
            bloom_expected: 0,
            bloom_fpr: 0.0,
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
    /// Honors `SHHC_TEST_DURABILITY=wal` the same way: every test node
    /// gets a WAL-backed store under a unique temp directory, so the
    /// whole suite runs on top of the durable flash path unmodified.
    pub fn small_test() -> Self {
        let shards = std::env::var("SHHC_TEST_SHARDS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&s| s > 0)
            .unwrap_or(1);
        let durability = match std::env::var("SHHC_TEST_DURABILITY").as_deref() {
            Ok("wal") => Durability::wal(unique_test_dir()),
            _ => Durability::Volatile,
        };
        NodeConfig {
            cache_capacity: 64,
            cache_policy: CachePolicy::Lru,
            bloom_expected: 0,
            bloom_fpr: 0.0,
            flash: FlashConfig::small_test(),
            cpu_per_op: Nanos::from_micros(1),
            ram_probe: Nanos::new(100),
            service_delay: std::time::Duration::ZERO,
            batch_overhead: std::time::Duration::ZERO,
            shards,
            backend: BackendKind::Single,
            readers: 0,
            durability,
        }
    }

    /// Returns this configuration with the given intra-node shard count.
    pub fn with_shards(mut self, shards: u32) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Returns this configuration with the given [`Durability`] mode.
    /// `Durability::wal(dir)` makes the node's flash store journal every
    /// mutation under `dir` and replay it on restart.
    pub fn with_durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// The per-shard configuration of one slice of this node: the SSD
    /// geometry, bucket directory, RAM write buffer and cache capacity are
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
/// pass — the read half of a lookup-insert. A one-shard node inserts the
/// `New` entries right after ([`HybridHashNode::lookup_insert_batch`]); a
/// sharded node classifies shards concurrently, assigns insert values in
/// frame order at the merge, and only then applies the writes
/// ([`HybridHashNode::apply_inserts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Classified {
    /// The fingerprint is already stored; carries its value.
    Hit(u64),
    /// First sighting in this frame: absent from the node, to be
    /// inserted with a merge-assigned value.
    New,
    /// Repeat of a fingerprint classified [`Classified::New`] at the
    /// given earlier position of the same frame — it exists *for the
    /// client* (same chunk, no second upload) and resolves to that first
    /// occurrence's assigned value.
    NewDup(usize),
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
    /// Always 0: the node has no bloom filter. Kept only because the
    /// ledger reads it.
    pub bloom_skips: u64,
    /// Always 0, like [`NodeStats::bloom_skips`].
    pub bloom_false_positives: u64,
    /// Read-only queries served.
    pub queries: u64,
    /// Entries installed by migration (rebalance traffic, not client
    /// lookups — kept out of `inserted` so dedup accounting stays clean).
    pub migrated_in: u64,
    /// Total virtual busy time of this node (CPU + RAM + device).
    pub busy: Nanos,
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
            acc.queries += p.queries;
            acc.migrated_in += p.migrated_in;
            acc.busy += p.busy;
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
    cache: LruCache<Fingerprint, u64>,
    store: FlashStore,
    config: NodeConfig,
    stats: NodeStats,
    next_value: u64,
}

impl HybridHashNode {
    /// Creates a node with the given configuration.
    ///
    /// With [`Durability::Wal`] the flash store is *opened*, not created:
    /// any surviving journal + segment log under the data dir is replayed
    /// first (rebuilding the flash directory), and the node warms its RAM
    /// cache from the recovered records before accepting traffic — a
    /// restarted node answers exactly as it did before the crash.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidArgument`] when [`NodeConfig::backend`] is not
    /// [`BackendKind::Single`] or [`NodeConfig::readers`] is not `0`, or
    /// from the flash store configuration; [`Error::Io`] /
    /// [`Error::Corruption`] from WAL recovery.
    pub fn new(id: NodeId, config: NodeConfig) -> Result<Self> {
        if config.backend != BackendKind::Single || config.readers != 0 {
            return Err(Error::invalid(format!(
                "a node has one RAM index per shard and no reader pool \
                 (backend {}, readers {}; only single/0 is accepted)",
                config.backend, config.readers
            )));
        }
        let (mut store, recovery) = FlashStore::open(config.flash, &config.durability)?;

        let mut cache = LruCache::new(config.cache_capacity);
        let mut stats = NodeStats::default();
        let mut next_value = 0;
        let mut warm_cost = Nanos::ZERO;
        if recovery.entries > 0 {
            // Warm the cache from the recovered table (it is
            // capacity-bounded), and resume value allocation above the
            // highest recovered value.
            let before = store.busy();
            for (fp, value) in store.scan()? {
                cache.insert(fp, value);
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
            cache,
            store,
            config,
            stats,
            next_value,
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

    /// Node counters.
    pub fn stats(&self) -> NodeStats {
        self.stats
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

    /// Resizes the RAM cache online (clamped to one entry). Purely a
    /// performance dial: a shrink evicts in LRU order, which can only
    /// turn future hits into SSD hits — never change an answer.
    pub fn resize_cache(&mut self, capacity: usize) {
        self.cache.resize(capacity.max(1));
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

    /// Flash device counters (reads, programs, erases).
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
    /// ([`FlashStore::directory_bytes`]) — with the cache, the node's RAM
    /// per fingerprint.
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
        let mut cost = self.config.cpu_per_op + self.config.ram_probe;
        let (existed, outcome, value) = if let Some(&cached) = self.cache.get(&fp) {
            self.stats.ram_hits += 1;
            (true, LookupOutcome::RamHit, cached)
        } else {
            // The flash directory answers an absent fingerprint without a
            // device read.
            let (found, probe) = self.timed(|s| s.get(fp))?;
            cost += probe;
            match found {
                Some(stored) => {
                    self.stats.ssd_hits += 1;
                    self.cache.insert(fp, stored);
                    (true, LookupOutcome::SsdHit, stored)
                }
                None => {
                    let (value, put) = self.insert_new(fp)?;
                    cost += put;
                    (false, LookupOutcome::Inserted, value)
                }
            }
        };
        self.charge(cost);
        Ok(LookupResult {
            existed,
            outcome,
            value,
            cost,
        })
    }

    /// Batched [`HybridHashNode::lookup_insert`] — the unit of work a
    /// front-end ships to a node, resolved in one pass: the cache pass
    /// and one coalesced flash probe for every miss
    /// ([`HybridHashNode::classify_batch`]), then the inserts, in frame
    /// order, with the values a per-fingerprint loop would assign. A
    /// repeat of a new fingerprint later in the frame answers "exists"
    /// with the first occurrence's value.
    ///
    /// The answers, [`HybridHashNode::entries`] and the insert count
    /// equal those of calling [`HybridHashNode::lookup_insert`] on each
    /// fingerprint in turn; the split of the other lookups between RAM
    /// and SSD hits may differ. Every probe sees the frame's starting
    /// state, and the virtual cost drops below the loop's by the page
    /// reads the batch coalesces: a page several misses need is charged
    /// once.
    ///
    /// # Errors
    ///
    /// A device error while probing inserts nothing; one while inserting
    /// leaves the earlier insertions done.
    pub fn lookup_insert_batch(&mut self, fps: &[Fingerprint]) -> Result<BatchResult> {
        let busy = self.stats.busy;
        let classes = self.classify_batch(fps)?;
        let mut exists = Vec::with_capacity(fps.len());
        let mut values = Vec::with_capacity(fps.len());
        for (fp, class) in fps.iter().zip(classes) {
            let (existed, value) = match class {
                Classified::Hit(value) => (true, value),
                Classified::New => {
                    let (value, cost) = self.insert_new(*fp)?;
                    self.charge(cost);
                    (false, value)
                }
                Classified::NewDup(first) => (true, values[first]),
            };
            exists.push(existed);
            values.push(value);
        }
        Ok(BatchResult {
            exists,
            values,
            cost: self.stats.busy - busy,
        })
    }

    /// Stores `fp` as a new chunk under the next value, counting it as a
    /// client insert; returns the value and the device time of the put,
    /// which the caller charges.
    fn insert_new(&mut self, fp: Fingerprint) -> Result<(u64, Nanos)> {
        let value = self.next_value;
        let cost = self.charged_store(|s| s.put(fp, value))?;
        self.next_value += 1;
        self.stats.inserted += 1;
        self.cache.insert(fp, value);
        Ok((value, cost))
    }

    /// The read half of a batched lookup-insert: classifies every
    /// fingerprint as [`Classified::Hit`] (present, with its value),
    /// [`Classified::New`] (absent, to be inserted) or
    /// [`Classified::NewDup`] (repeat of a `New` earlier in this batch)
    /// **without writing anything**. Cache misses are deferred and probed
    /// as one coalesced [`FlashStore::get_batch_with_repeats`]: the
    /// directory answers absent keys without a read, misses destined for
    /// the same on-flash page share a single device read, and the store
    /// names the in-batch repeats.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn classify_batch(&mut self, fps: &[Fingerprint]) -> Result<Vec<Classified>> {
        let mut out = vec![Classified::New; fps.len()];
        let mut repeats = Vec::new();
        let misses = self.probe_misses(
            fps,
            |i, v| out[i] = Classified::Hit(v),
            |i, first| repeats.push((i, first)),
        )?;
        self.stats.ram_hits += (fps.len() - misses.len()) as u64;
        for (i, fp, found) in misses {
            if let Some(v) = found {
                self.stats.ssd_hits += 1;
                self.cache.insert(fp, v);
                out[i] = Classified::Hit(v);
            }
        }
        // A repeat of a present fingerprint is a hit like its first
        // occurrence; one of an absent fingerprint exists once the first
        // is inserted.
        for (i, first) in repeats {
            if out[first] == Classified::New {
                self.stats.ram_hits += 1;
                out[i] = Classified::NewDup(first);
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
            let (present, cost) = self.write(fp, value)?;
            if present {
                self.stats.ssd_hits += 1;
            } else {
                self.stats.inserted += 1;
            }
            self.charge(cost);
        }
        Ok(())
    }

    /// Read-only batched existence check with coalesced SSD probes:
    /// returns position-parallel existence flags and values (zero for
    /// misses), inserting nothing. Cache misses share bucket page reads
    /// via [`FlashStore::get_batch`].
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn query_many(&mut self, fps: &[Fingerprint]) -> Result<(Vec<bool>, Vec<u64>)> {
        self.stats.queries += fps.len() as u64;
        let mut exists = vec![false; fps.len()];
        let mut values = vec![0u64; fps.len()];
        let misses = self.probe_misses(
            fps,
            |i, v| {
                exists[i] = true;
                values[i] = v;
            },
            |_, _| {},
        )?;
        for (i, fp, found) in misses {
            if let Some(v) = found {
                self.cache.insert(fp, v);
                exists[i] = true;
                values[i] = v;
            }
        }
        Ok((exists, values))
    }

    /// The first pass of a batch: charges each fingerprint's CPU and
    /// cache probe, hands cache hits to `hit` as `(position, value)`, and
    /// probes the flash store once, coalesced, for every miss, handing
    /// each miss that repeats an earlier one to `repeat` as `(position,
    /// first position)`. Returns each miss as `(position, fingerprint,
    /// what the store holds)`.
    fn probe_misses(
        &mut self,
        fps: &[Fingerprint],
        mut hit: impl FnMut(usize, u64),
        mut repeat: impl FnMut(usize, usize),
    ) -> Result<Vec<(usize, Fingerprint, Option<u64>)>> {
        let mut probe_idx = Vec::new();
        let mut probe_fps = Vec::new();
        for (i, fp) in fps.iter().enumerate() {
            match self.cache.get(fp) {
                Some(&v) => hit(i, v),
                None => {
                    probe_idx.push(i);
                    probe_fps.push(*fp);
                }
            }
        }
        self.charge((self.config.cpu_per_op + self.config.ram_probe) * fps.len() as u64);
        let (found, cost) = self.timed(|s| {
            s.get_batch_with_repeats(&probe_fps, |i, first| {
                repeat(probe_idx[i], probe_idx[first]);
            })
        })?;
        self.charge(cost);
        Ok(probe_idx
            .into_iter()
            .zip(probe_fps)
            .zip(found)
            .map(|((i, fp), v)| (i, fp, v))
            .collect())
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
        let (_, cost) = self.write(fp, value)?;
        self.charge(cost);
        Ok(cost)
    }

    /// Stores `value` for `fp`: an update when the store holds `fp`, a
    /// put (one more live record) when it does not. Refreshes the cache
    /// and returns whether `fp` was present, with the device time spent.
    fn write(&mut self, fp: Fingerprint, value: u64) -> Result<(bool, Nanos)> {
        let (found, mut cost) = self.timed(|s| s.get(fp))?;
        let present = found.is_some();
        cost += if present {
            self.charged_store(|s| s.update(fp, value))?
        } else {
            self.charged_store(|s| s.put(fp, value))?
        };
        self.cache.insert(fp, value);
        Ok((present, cost))
    }

    /// Every fingerprint stored on the node, in ascending fingerprint
    /// order (rebalancing support: one scan feeds a whole re-home pass).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn scan(&mut self) -> Result<Vec<(Fingerprint, u64)>> {
        self.store.scan()
    }

    /// Installs a migrated entry: inserts `fp` with `value` when absent,
    /// keeps the existing (fresher) record when present. Returns the
    /// value the node already held, or `None` when it installed `value`.
    ///
    /// This is the node half of online rebalancing — unlike
    /// [`HybridHashNode::lookup_insert`] it never counts toward the
    /// lookup statistics, and unlike [`HybridHashNode::record`] it cannot
    /// clobber a value a client recorded during the migration window.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn install(&mut self, fp: Fingerprint, value: u64) -> Result<Option<u64>> {
        let mut cost = self.config.cpu_per_op + self.config.ram_probe;
        if let Some(&held) = self.cache.get(&fp) {
            self.charge(cost);
            return Ok(Some(held));
        }
        let (found, probe) = self.timed(|s| s.get(fp))?;
        cost += probe;
        if let Some(existing) = found {
            self.cache.insert(fp, existing);
            self.charge(cost);
            return Ok(Some(existing));
        }
        cost += self.charged_store(|s| s.put(fp, value))?;
        self.cache.insert(fp, value);
        self.stats.migrated_in += 1;
        self.charge(cost);
        Ok(None)
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
        // The RAM cache must evict immediately or a stale entry would
        // keep answering "exists".
        self.cache.remove(&fp);
        let (found, mut cost) = self.timed(|s| s.get(fp))?;
        if found.is_some() {
            cost += self.charged_store(|s| s.delete(fp))?;
        }
        self.charge(cost);
        Ok(())
    }

    /// Runs `f` against the store, returning its result and the virtual
    /// device time it consumed.
    fn timed<T>(&mut self, f: impl FnOnce(&mut FlashStore) -> Result<T>) -> Result<(T, Nanos)> {
        let before = self.store.busy();
        let out = f(&mut self.store)?;
        Ok((out, self.store.busy() - before))
    }

    /// [`HybridHashNode::timed`] for calls whose result is `()`.
    fn charged_store(&mut self, f: impl FnOnce(&mut FlashStore) -> Result<()>) -> Result<Nanos> {
        Ok(self.timed(f)?.1)
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

    /// The flash directory is the node's only absence test: a fresh
    /// fingerprint looked up against flushed records is answered "new"
    /// from RAM, and reads a page only on a directory tag collision.
    #[test]
    fn directory_answers_fresh_fingerprints_without_reads() {
        let config = NodeConfig {
            flash: FlashConfig::medium_test(),
            ..NodeConfig::small_test()
        };
        let mut n = HybridHashNode::new(NodeId::new(0), config).unwrap();
        let stored: Vec<Fingerprint> = (0..20_000).map(spread).collect();
        n.lookup_insert_batch(&stored).unwrap();
        n.flush().unwrap();
        let (before, reads) = (n.stats(), n.device_stats().reads);
        // Fewer than the write buffer holds, so no flush reads a page.
        let fresh = 2_000u64;
        for i in 0..fresh {
            let r = n.lookup_insert(spread(1_000_000 + i)).unwrap();
            assert_eq!(r.outcome, LookupOutcome::Inserted, "fresh fingerprint {i}");
        }
        let s = n.stats();
        assert_eq!(s.inserted - before.inserted, fresh);
        assert_eq!(
            s.ssd_hits, before.ssd_hits,
            "no fresh fingerprint is an SSD hit"
        );
        let collisions = n.device_stats().reads - reads;
        assert!(
            collisions * 100 <= fresh,
            "{collisions} device reads for {fresh} fresh fingerprints"
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

    /// One fingerprint's `query_many` answer: `Some(value)` when present.
    fn query(n: &mut HybridHashNode, f: Fingerprint) -> Option<u64> {
        let (exists, values) = n.query_many(&[f]).unwrap();
        exists[0].then_some(values[0])
    }

    #[test]
    fn query_does_not_insert() {
        let mut n = node();
        assert_eq!(query(&mut n, fp(5)), None);
        assert_eq!(n.entries(), 0);
        let v = n.lookup_insert(fp(5)).unwrap().value;
        assert_eq!(query(&mut n, fp(5)), Some(v));
        assert_eq!(n.entries(), 1);
        assert_eq!(n.stats().queries, 2);
    }

    /// A new fingerprint repeated within a frame is inserted once and
    /// answered "exists" with the first occurrence's value, whether the
    /// repeats sit next to each other or far apart, beside repeats of a
    /// stored fingerprint, and for a fingerprint removed just before (its
    /// tombstone still in the write buffer).
    #[test]
    fn batch_equals_singles() {
        let fps = |ks: &[u64]| -> Vec<Fingerprint> { ks.iter().map(|k| fp(*k)).collect() };
        let first = fps(&[1, 2, 1, 3, 2, 1]);
        check_batch_against_singles(&[
            Step {
                remove: vec![],
                frame: first.clone(),
                flush: true,
            },
            Step {
                remove: fps(&[2]),
                frame: fps(&[4, 4, 1, 5, 2, 4, 1, 5, 2, 6, 6, 4]),
                flush: false,
            },
        ]);
        let mut n = node();
        let batch = n.lookup_insert_batch(&first).unwrap();
        assert_eq!(batch.exists, vec![false, false, true, false, true, true]);
        assert_eq!(batch.values, vec![0, 1, 0, 2, 1, 0]);
        assert_eq!(n.stats().inserted, 3);
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
        assert_eq!(query(&mut n, fp(8)), Some(800));
        // And still overwrites when present.
        n.record(fp(8), 801).unwrap();
        assert_eq!(n.entries(), 1);
        assert_eq!(query(&mut n, fp(8)), Some(801));
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
        assert_eq!(n.install(fp(1), 100).unwrap(), None);
        assert_eq!(
            n.install(fp(1), 200).unwrap(),
            Some(100),
            "present entries keep their value"
        );
        assert_eq!(query(&mut n, fp(1)), Some(100));
        // A client-recorded value survives a late migration install.
        n.lookup_insert(fp(2)).unwrap();
        n.record(fp(2), 555).unwrap();
        assert_eq!(n.install(fp(2), 1).unwrap(), Some(555));
        assert_eq!(query(&mut n, fp(2)), Some(555));
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
    fn scan_is_sorted_and_survives_interleaved_removal() {
        let mut n = node();
        for i in 0..200 {
            n.lookup_insert(spread(i)).unwrap();
        }
        n.flush().unwrap();
        for i in 200..230 {
            n.lookup_insert(spread(i)).unwrap(); // still in the RAM buffer
        }
        let scan = n.scan().unwrap();
        let mut expected: Vec<Fingerprint> = (0..230).map(spread).collect();
        expected.sort_unstable();
        let seen: Vec<Fingerprint> = scan.iter().map(|(f, _)| *f).collect();
        assert_eq!(seen, expected, "one scan, every entry, fingerprint order");
        // Removing what a scan returned leaves exactly the rest.
        for (f, _) in &scan[..100] {
            n.remove(*f).unwrap();
        }
        assert_eq!(n.scan().unwrap(), scan[100..].to_vec());
        assert!(
            node().scan().unwrap().is_empty(),
            "an empty node scans empty"
        );
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
        let all: Vec<Fingerprint> = (0..200).map(fp).collect();
        assert!(n.query_many(&all).unwrap().0.iter().all(|&e| e));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One frame of [`check_batch_against_singles`], with what both
    /// nodes remove before it and whether both flush after it.
    struct Step {
        remove: Vec<Fingerprint>,
        frame: Vec<Fingerprint>,
        flush: bool,
    }

    /// Runs each step's frame through `lookup_insert_batch` on one node
    /// and through a `lookup_insert` loop on its twin, and checks that
    /// answers, live entries, inserts and operation counts agree after
    /// every frame.
    fn check_batch_against_singles(steps: &[Step]) {
        let (mut batched, mut single) = (node(), node());
        for step in steps {
            for f in &step.remove {
                batched.remove(*f).unwrap();
                single.remove(*f).unwrap();
            }
            let got = batched.lookup_insert_batch(&step.frame).unwrap();
            let (exists, values): (Vec<bool>, Vec<u64>) = step
                .frame
                .iter()
                .map(|f| {
                    let r = single.lookup_insert(*f).unwrap();
                    (r.existed, r.value)
                })
                .unzip();
            assert_eq!((&got.exists, &got.values), (&exists, &values));
            assert_eq!(batched.entries(), single.entries());
            let (b, s) = (batched.stats(), single.stats());
            assert_eq!((b.inserted, b.ops()), (s.inserted, s.ops()));
            if step.flush {
                batched.flush().unwrap();
                single.flush().unwrap();
            }
        }
    }

    proptest! {
        /// `lookup_insert_batch` answers as a per-fingerprint loop does,
        /// over frames that repeat keys, evict the 64-entry cache, find
        /// keys on flash, in the write buffer or removed (a buffered or
        /// flushed tombstone), and see fresh ones.
        #[test]
        fn prop_batch_matches_per_fingerprint_loop(
            frames in proptest::collection::vec(
                proptest::collection::vec(0u64..300, 1..120), 1..12),
            removes in proptest::collection::vec(
                proptest::collection::vec(0u64..300, 0..20), 12),
            flush in proptest::collection::vec(any::<bool>(), 12),
        ) {
            let keys = |ks: &Vec<u64>| ks.iter().map(|k| spread(*k)).collect();
            let steps: Vec<Step> = frames
                .iter()
                .zip(&removes)
                .zip(&flush)
                .map(|((frame, remove), &flush)| Step {
                    remove: keys(remove),
                    frame: keys(frame),
                    flush,
                })
                .collect();
            check_batch_against_singles(&steps);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Existence answers always agree with a reference HashSet,
        /// regardless of cache evictions, flushes and directory tag
        /// collisions.
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
