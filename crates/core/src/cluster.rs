//! The multi-threaded hash cluster.
//!
//! # Data plane
//!
//! Batch operations run as a two-phase **scatter-gather pipeline**:
//! phase 1 routes the batch into groups by replica set and intra-node
//! shard and *sends* every group's request to that shard's queue on
//! every replica up front; phase 2 gathers all replies under one shared
//! deadline and merges them. A request is a typed [`Request`] value with
//! its own reply channel, so nothing is encoded and no reply carries a
//! correlation id: the channel names the request it answers. A batch
//! spanning N nodes (or shards) therefore costs ≈ max of the per-queue
//! service times instead of their sum — the property the paper's
//! throughput-scaling claim (Figure 5) rests on.
//!
//! Every node runs one `node_loop` thread per shard, each behind its
//! own queue; the cluster's [`ShardRouter`] picks the shard, so a node
//! has no dispatcher. Sends that address one node outside a window's
//! scatter (dual-read, old-owner removes, read repair, migration) go
//! through [`ShhcCluster::node_exchange`], which splits them the same
//! way, and control requests go to every shard of a node and are merged.
//!
//! # Control plane: epoch-versioned membership
//!
//! Routing state is an immutable, epoch-stamped [`RingView`] behind an
//! `Arc` that membership changes *swap*, never mutate — the hot path
//! clones two `Arc`s and routes lock-free for the rest of the batch.
//! Join ([`ShhcCluster::add_node`]) and leave ([`ShhcCluster::drain_node`])
//! are staged online rebalances safe under live traffic:
//!
//! 1. **install** the next epoch's view first (new inserts immediately
//!    route to their final owner — nothing can strand on a node about to
//!    lose a range),
//! 2. **dual-read** while the epoch's [`MigrationPlan`] is in flight: a
//!    miss inside a moved range falls back to the range's previous owner,
//!    and a hit there re-records the authoritative value on the new owner,
//! 3. **re-home** in passes over the new view: scan each running node
//!    once (`Request::Scan`), ship every entry in chunked
//!    `Request::Migrate` pages to each owner in its replica set (the
//!    reply says which entries the owner already held), then
//!    `Request::Remove` what the node no longer owns once an owner
//!    acknowledged it — repeating until a pass installs and removes
//!    nothing,
//! 4. **retire** the old epoch: the plan is dropped and dual-read ends.
//!
//! Between 1 and 3 sits a barrier: every batch counts itself into the
//! epoch it routes under and out when it is done, and the change waits
//! on that count (a condvar, woken by the last batch out) until no batch
//! routes under the old view.
//!
//! Client deletes racing a migration leave tombstones in the plan's
//! in-flight state so a removed fingerprint cannot be resurrected by a
//! migration chunk scanned before the delete landed. Rebalance
//! ([`ShhcCluster::rebalance`]) runs the same passes under the current
//! epoch, and a warm restart's re-sync runs one pass that targets the
//! restarted node alone.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use shhc_node::{shard_slices, NodeConfig, ShardRouter};
use shhc_ring::{MigrationPlan, RingView};
use shhc_types::{Error, Fingerprint, FpHashSet, NodeId, Result, PENDING_VALUE};

use shhc_cache::CacheStats;
use shhc_flash::{DeviceStats, FtlStats};
use shhc_node::NodeStats;

use crate::server::{NodeSnapshot, Reply, ReplyRx, Request, ShardQueue};

/// Re-home passes a membership change runs at most. Each pass after the
/// first only has to catch entries written by batches that were already
/// in flight when the previous pass scanned, so two passes almost always
/// suffice; the cap bounds a pathological writer.
const MAX_REHOME_PASSES: usize = 8;

/// Where a re-home pass ships each scanned entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rehome {
    /// To every owner in the entry's replica set under the pass's view
    /// (join, drain, anti-entropy). An entry its node no longer owns is
    /// removed from that node once an owner acknowledged it.
    Owners,
    /// To this node alone, for the entries whose replica set includes it:
    /// a warm restart's re-sync. A copy the node holds with a value other
    /// than the peer's is removed from it, not overwritten: a crash
    /// between a window's lookup-insert and its record replays the
    /// insert-time placeholder, while the peer's scan may itself predate
    /// a record that has since reached both. An absent entry is the
    /// benign state — lookups answer from the peer and read-repair the
    /// node. The symmetric [`Rehome::Owners`] pass never applies this.
    Resync(NodeId),
}

/// How the cluster services a batch across its replica groups. There is
/// one way: scatter-gather. The type survives only because the benchmark
/// package (`ledger/src/sut.rs`) names it; drop it with
/// [`ClusterConfig::with_data_plane`] when that package is next revised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DataPlane {
    /// Scatter-gather: send every group's request to every replica up
    /// front, then gather all replies under a single deadline. Batch
    /// latency tracks the slowest node, not the sum over nodes.
    #[default]
    Pipelined,
}

/// A cache hint that nothing reads. It survives only because the
/// benchmark package (`ledger/src/bytes.rs`) passes `Admission::Bypass`
/// to [`ShhcCluster::query_batch_values_with`]; drop both with
/// [`DataPlane`] when that package is next revised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Ignored.
    Normal,
    /// Ignored.
    Bypass,
}

/// Configuration of a [`ShhcCluster`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Initial number of hash nodes.
    pub nodes: u32,
    /// Configuration applied to every node (and to nodes added later).
    pub node_config: NodeConfig,
    /// Virtual nodes per physical node on the consistent-hash ring.
    pub vnodes: u32,
    /// Number of replicas per fingerprint (1 = no replication).
    pub replication: usize,
    /// How long a client waits for a node's reply before declaring it
    /// unavailable. This bounds the *whole* gather phase of a batch.
    pub(crate) request_timeout: Duration,
    /// Entries per migration frame during online rebalancing: scanned
    /// entries are installed on their owners and removed from nodes that
    /// no longer own them `migration_chunk` entries at a time, bounding
    /// how long a membership change occupies any one node between client
    /// batches.
    pub migration_chunk: usize,
}

impl ClusterConfig {
    /// A production-shaped configuration with `nodes` nodes.
    pub fn new(nodes: u32, node_config: NodeConfig) -> Self {
        ClusterConfig {
            nodes,
            node_config,
            vnodes: 64,
            replication: 1,
            request_timeout: Duration::from_secs(30),
            migration_chunk: 512,
        }
    }

    /// A small configuration for tests and examples.
    pub fn small_test(nodes: u32) -> Self {
        Self::new(nodes, NodeConfig::small_test())
    }

    /// Sets the replication factor.
    pub fn with_replication(mut self, replication: usize) -> Self {
        self.replication = replication.max(1);
        self
    }

    /// No-op: [`DataPlane`] has one variant. Kept only for
    /// `ledger/src/sut.rs`, which calls it.
    pub fn with_data_plane(self, _data_plane: DataPlane) -> Self {
        self
    }

    /// Sets the migration chunk size (clamped to ≥ 1).
    pub fn with_migration_chunk(mut self, chunk: usize) -> Self {
        self.migration_chunk = chunk.max(1);
        self
    }
}

/// Cluster-wide aggregate statistics.
#[derive(Debug, Clone, Default)]
pub struct ClusterStats {
    /// Per-node snapshots (alive nodes only).
    pub nodes: Vec<NodeSnapshot>,
    /// The routing epoch the stats were taken under.
    pub epoch: u64,
    /// Nodes that crashed (killed; still ring members, data lost unless
    /// WAL-backed) and have not been restarted.
    pub crashed: Vec<NodeId>,
    /// Nodes decommissioned by [`ShhcCluster::drain_node`] (out of the
    /// ring, verified empty before shutdown).
    pub drained: Vec<NodeId>,
    /// Running nodes that came back via a **warm**
    /// [`ShhcCluster::restart_node`] — they replayed local WAL state
    /// and/or re-synced deltas from replica peers, as opposed to cold
    /// standbys ([`ShhcCluster::restart_cold`]) that rejoined empty.
    pub recovered: Vec<NodeId>,
    /// Cumulative entries shipped to warm-restarted nodes by delta
    /// re-sync, across the cluster's lifetime.
    pub resync_moved: u64,
    /// Cumulative re-sync install frames that installed at least one
    /// entry.
    pub resync_chunks: u64,
}

impl ClusterStats {
    /// Total fingerprints stored across alive nodes.
    pub fn total_entries(&self) -> u64 {
        self.nodes.iter().map(|n| n.entries).sum()
    }

    /// Per-node share of all stored fingerprints (the Figure 6 metric).
    pub fn entry_shares(&self) -> Vec<(NodeId, f64)> {
        let total = self.total_entries().max(1) as f64;
        self.nodes
            .iter()
            .map(|n| (n.id, n.entries as f64 / total))
            .collect()
    }

    /// Deepest inbound request queue any alive node has seen — the
    /// cluster-side overload gauge (near 1 when nodes keep up; grows
    /// with the worst burst a node absorbed).
    pub fn max_queue_peak(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.stats.queue_peak)
            .max()
            .unwrap_or(0)
    }
}

/// Result of an online rebalance (node addition, drain, or anti-entropy
/// pass).
#[derive(Debug, Clone, Default)]
pub struct RebalanceReport {
    /// Entries installed on an owner that did not hold them.
    pub moved: u64,
    /// Entries read by the node scans, summed over every pass.
    pub scanned: u64,
    /// Install frames that installed at least one entry.
    pub chunks: u64,
    /// Wall-clock duration of the whole staged rebalance.
    pub wall_clock: Duration,
    /// Epoch the rebalance migrated from (0 for anti-entropy passes,
    /// which stay within one epoch).
    pub from_epoch: u64,
    /// Epoch the rebalance migrated to (the current epoch afterwards).
    pub to_epoch: u64,
    /// Entries left on a drained node by the final verification scan
    /// (always 0 on a successful drain).
    pub post_scan_entries: u64,
}

/// Result of a **warm** [`ShhcCluster::restart_node`]: how much state
/// the node rebuilt locally from its write-ahead log, and how much it
/// had to pull back from replica peers (the delta it missed while down).
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Live entries the node rebuilt from its WAL before accepting
    /// traffic (zero for volatile nodes).
    pub recovered_entries: u64,
    /// WAL records (journal + segment pages + compactions) replayed.
    pub replayed: u64,
    /// Torn (partially written) WAL tail records detected and truncated
    /// at recovery — never replayed.
    pub torn: u64,
    /// Entries re-installed from replica peers: writes the node missed
    /// while down. Bounded by the missed delta — the node reports which
    /// shipped entries it already held, and those are not counted.
    pub resynced: u64,
    /// Re-sync install frames that installed at least one entry.
    pub chunks: u64,
    /// Wall-clock duration of the restart, replay and re-sync.
    pub wall_clock: Duration,
}

/// Lifecycle of a node slot. Slots are never reused: a node id maps to
/// the same slot for the cluster's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotStatus {
    /// Serving requests.
    Running,
    /// Killed (machine failure): data lost, still a ring member, can be
    /// restarted cold.
    Crashed,
    /// Decommissioned by a drain: data migrated off, out of the ring,
    /// cannot be restarted.
    Drained,
}

struct NodeSlot {
    /// One queue per shard, in shard order; empty while the node is down.
    queues: Vec<ShardQueue>,
    /// The shards' server threads, in shard order.
    handles: Vec<JoinHandle<()>>,
    status: SlotStatus,
    /// True for a running node that rejoined via a warm restart
    /// (replayed WAL state / re-synced from peers) rather than as a cold
    /// standby.
    recovered: bool,
}

/// The in-flight half of a membership change: the exact ownership diff
/// plus the delete tombstones that keep client removes and migration
/// chunks from resurrecting each other's work.
struct MigrationState {
    plan: MigrationPlan,
    /// Fingerprints removed by clients while the plan was in flight. A
    /// re-home pass filters against these before installing and
    /// re-checks after, so a scanned-then-deleted entry cannot come back.
    tombstones: Mutex<FpHashSet<Fingerprint>>,
}

impl MigrationState {
    fn new(plan: MigrationPlan) -> Self {
        MigrationState {
            plan,
            tombstones: Mutex::new(FpHashSet::default()),
        }
    }
}

/// One epoch's ring view plus the count of [`RoutingState`] values that
/// hold it: the installed state and every batch routing by it. A
/// membership change's barrier ([`ShhcCluster::quiesce_epoch`]) waits for
/// the epoch it replaced to empty.
struct EpochView {
    view: RingView,
    holders: AtomicUsize,
    /// Set while a barrier waits: only then does the last holder out
    /// take `lock` to wake it, so a batch takes no lock for its count.
    barrier: AtomicBool,
    lock: std::sync::Mutex<()>,
    emptied: Condvar,
}

impl std::ops::Deref for EpochView {
    type Target = RingView;

    fn deref(&self) -> &RingView {
        &self.view
    }
}

impl EpochView {
    /// One holder lets go; the last one wakes a waiting barrier.
    fn leave(&self) {
        if self.holders.fetch_sub(1, Ordering::SeqCst) == 1 && self.barrier.load(Ordering::SeqCst) {
            let _lock = self.lock.lock();
            self.emptied.notify_all();
        }
    }

    /// Waits until nothing holds the epoch, or until `deadline`; returns
    /// whether it emptied. The flag is raised before the count is read,
    /// and a holder lowers the count before it reads the flag, so either
    /// the barrier sees the count at zero or the last holder sees the
    /// flag and wakes it.
    fn wait_empty(&self, deadline: Instant) -> bool {
        self.barrier.store(true, Ordering::SeqCst);
        let mut lock = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        while self.holders.load(Ordering::SeqCst) > 0 {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            lock = match self.emptied.wait_timeout(lock, left) {
                Ok((lock, _)) => lock,
                Err(e) => e.into_inner().0,
            };
        }
        true
    }
}

/// The routing state a batch operates under: the current epoch's view
/// plus the in-flight migration, if any. A value holds its epoch from
/// creation or clone until it drops (two `Arc` bumps and one atomic
/// add); the cluster swaps the installed value on membership change.
struct RoutingState {
    view: Arc<EpochView>,
    migration: Option<Arc<MigrationState>>,
}

impl RoutingState {
    /// The installed state of a new epoch: its first holder.
    fn install(view: RingView, migration: Option<Arc<MigrationState>>) -> Self {
        let view = Arc::new(EpochView {
            view,
            holders: AtomicUsize::new(1),
            barrier: AtomicBool::new(false),
            lock: std::sync::Mutex::new(()),
            emptied: Condvar::new(),
        });
        RoutingState { view, migration }
    }
}

impl Clone for RoutingState {
    fn clone(&self) -> Self {
        self.view.holders.fetch_add(1, Ordering::SeqCst);
        RoutingState {
            view: Arc::clone(&self.view),
            migration: self.migration.clone(),
        }
    }
}

impl Drop for RoutingState {
    fn drop(&mut self) {
        self.view.leave();
    }
}

struct Inner {
    config: ClusterConfig,
    /// Routes a fingerprint to its shard on whichever node holds it:
    /// every node runs `config.node_config.shards` shards.
    router: ShardRouter,
    nodes: RwLock<Vec<NodeSlot>>,
    /// Handles are joined under a separate lock to keep the hot path
    /// read-only.
    join_guard: Mutex<()>,
    /// Write = swap on membership change; read = clone two `Arc`s. No
    /// lock is held while routing a batch.
    routing: RwLock<RoutingState>,
    /// Serializes membership changes (join/drain/rebalance) against each
    /// other — never against traffic.
    membership: Mutex<()>,
    /// Cumulative delta re-sync traffic to warm-restarted nodes
    /// (entries / chunks), reported through [`ClusterStats`].
    resync_moved: AtomicU64,
    resync_chunks: AtomicU64,
}

/// One slice of a batch bound for one shard of a single replica set: the
/// fingerprints (moved, not cloned, into the outgoing request) plus their
/// positions in the caller's batch.
struct RouteGroup {
    /// The replica set, primary first (ring order).
    replicas: Vec<NodeId>,
    /// The shard, on each replica, whose queue takes the group.
    shard: usize,
    /// Positions in the original batch, in arrival order.
    positions: Vec<usize>,
    /// The group's fingerprints, parallel to `positions`. Drained by the
    /// scatter phase.
    fingerprints: Vec<Fingerprint>,
}

/// A reply owed by one replica: the receiver if the send succeeded, or
/// the send-time failure (node down).
struct PendingReply {
    node: NodeId,
    reply: Result<ReplyRx>,
}

/// A lookup window whose requests are sent and whose replies are not yet
/// gathered ([`ShhcCluster::lookup_scatter`]). Dropping it drops the
/// reply channels; the nodes still apply the inserts.
pub(crate) struct SentLookup {
    /// The window's groups, their fingerprints moved into the requests.
    groups: Vec<RouteGroup>,
    /// The replies owed by each group's replicas, parallel to `groups`.
    pending: Vec<Vec<PendingReply>>,
    /// The epoch the window was routed under.
    epoch: u64,
    /// The migration in flight at the send, for the dual-read.
    migration: Option<Arc<MigrationState>>,
}

/// The scalable hybrid hash cluster: a set of node server threads behind
/// consistent-hash routing — the paper's SHHC tier.
///
/// Handles are cheaply cloneable; all operations take `&self`, so many
/// client threads can drive the cluster concurrently (each request gets
/// its own reply channel).
///
/// See the [crate docs](crate) for a quick-start example and the
/// [module docs](self) for the data-plane concurrency model.
#[derive(Clone)]
pub struct ShhcCluster {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for ShhcCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShhcCluster")
            .field("nodes", &self.inner.nodes.read().len())
            .field("replication", &self.inner.config.replication)
            .finish()
    }
}

impl ShhcCluster {
    /// Spawns the cluster: one server thread per node.
    ///
    /// # Errors
    ///
    /// Propagates node-configuration errors; no threads are left running
    /// on failure.
    pub fn spawn(config: ClusterConfig) -> Result<Self> {
        if config.nodes == 0 {
            return Err(Error::invalid("cluster needs at least one node"));
        }
        let mut slots = Vec::with_capacity(config.nodes as usize);
        for i in 0..config.nodes {
            let slot = spawn_node(NodeId::new(i), config.node_config.clone())?;
            slots.push(slot);
        }
        let view = RingView::initial(config.nodes, config.vnodes);
        Ok(ShhcCluster {
            inner: Arc::new(Inner {
                router: ShardRouter::new(config.node_config.shards),
                config,
                nodes: RwLock::new(slots),
                join_guard: Mutex::new(()),
                routing: RwLock::new(RoutingState::install(view, None)),
                membership: Mutex::new(()),
                resync_moved: AtomicU64::new(0),
                resync_chunks: AtomicU64::new(0),
            }),
        })
    }

    /// Number of node slots (including killed and drained nodes).
    pub fn node_count(&self) -> usize {
        self.inner.nodes.read().len()
    }

    /// Number of nodes currently accepting requests (drained and crashed
    /// slots excluded).
    pub fn alive_count(&self) -> usize {
        self.inner
            .nodes
            .read()
            .iter()
            .filter(|s| s.status == SlotStatus::Running)
            .count()
    }

    /// Number of nodes decommissioned by [`ShhcCluster::drain_node`].
    pub fn drained_count(&self) -> usize {
        self.inner
            .nodes
            .read()
            .iter()
            .filter(|s| s.status == SlotStatus::Drained)
            .count()
    }

    /// The current routing epoch (starts at 1, +1 per membership change).
    pub fn epoch(&self) -> u64 {
        self.inner.routing.read().view.epoch()
    }

    /// Whether a membership change's migration is still in flight
    /// (dual-read active).
    #[cfg(test)]
    pub(crate) fn migration_in_flight(&self) -> bool {
        self.inner.routing.read().migration.is_some()
    }

    /// Nodes currently accepting requests, in id order.
    fn running_nodes(&self) -> Vec<NodeId> {
        let nodes = self.inner.nodes.read();
        nodes
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.status == SlotStatus::Running)
            .map(|(i, _)| NodeId::new(i as u32))
            .collect()
    }

    /// Snapshot of the routing state for one batch: two `Arc` clones
    /// under a momentary read lock. The batch counts as a holder of the
    /// epoch until it drops the snapshot.
    fn routing(&self) -> RoutingState {
        self.inner.routing.read().clone()
    }

    /// Queues `request` on shard `shard` of `node` without waiting and
    /// hands back the reply channel. Every request to a node goes
    /// through here.
    fn send(&self, node: NodeId, shard: usize, request: Request) -> Result<ReplyRx> {
        let nodes = self.inner.nodes.read();
        let slot = nodes
            .get(node.index())
            .ok_or_else(|| Error::invalid(format!("unknown node {node}")))?;
        slot.queues
            .get(shard)
            .and_then(|queue| queue.send(request))
            .ok_or_else(|| Error::Unavailable(format!("{node} is down")))
    }

    /// [`Self::send`], keeping the node for the gather.
    fn pending(&self, node: NodeId, shard: usize, request: Request) -> PendingReply {
        PendingReply {
            node,
            reply: self.send(node, shard, request),
        }
    }

    /// The gather half of the pipeline: awaits one replica's reply under
    /// the shared deadline. A node-side failure arrives as the node's
    /// own [`Error::Io`].
    fn gather_one(&self, pending: PendingReply, deadline: Instant) -> Result<Reply> {
        let rx = pending.reply?;
        let remaining = deadline.saturating_duration_since(Instant::now());
        rx.recv_timeout(remaining)
            .map_err(|_| Error::Unavailable(format!("{} did not reply", pending.node)))?
    }

    /// [`Self::gather_one`] for a lookup or a query, which the node
    /// answers with [`Reply::Answer`].
    fn gather_answer(
        &self,
        pending: PendingReply,
        deadline: Instant,
    ) -> Result<(Vec<bool>, Vec<u64>)> {
        match self.gather_one(pending, deadline)? {
            Reply::Answer(exists, values) => Ok((exists, values)),
            other => unreachable!("a lookup answered with {other:?}"),
        }
    }

    /// Phase 1: sends each group's request (fingerprints moved, not
    /// cloned) to every replica of the group; each replica after the
    /// first gets a clone.
    fn scatter(
        &self,
        groups: &mut [RouteGroup],
        mut make: impl FnMut(&mut RouteGroup) -> Request,
    ) -> Vec<Vec<PendingReply>> {
        groups
            .iter_mut()
            .map(|group| {
                let request = make(group);
                let Some((&last, rest)) = group.replicas.split_last() else {
                    return Vec::new();
                };
                let mut replies: Vec<PendingReply> = rest
                    .iter()
                    .map(|&node| self.pending(node, group.shard, request.clone()))
                    .collect();
                replies.push(self.pending(last, group.shard, request));
                replies
            })
            .collect()
    }

    /// Runs one control step on every shard of `node` and merges the
    /// replies ([`merge_control`]). Every shard's request is sent before
    /// any reply is awaited, the replies are gathered under one
    /// deadline, and a shard's failure fails the step.
    pub(crate) fn control(&self, node: NodeId, request: Request) -> Result<Reply> {
        let pending: Vec<PendingReply> = (0..self.inner.router.count())
            .map(|shard| self.pending(node, shard, request.clone()))
            .collect();
        let deadline = Instant::now() + self.inner.config.request_timeout;
        let replies = pending
            .into_iter()
            .map(|p| self.gather_one(p, deadline))
            .collect::<Result<Vec<_>>>()?;
        Ok(merge_control(replies))
    }

    /// Sends `records` to `node`, split by shard: each shard they route
    /// to gets one request `make(its records)`, every request is sent
    /// before any reply is awaited, and the replies are gathered under
    /// one deadline. Answers are scattered back to the records'
    /// positions — existence plus a full-length value vector (zero where
    /// absent); acknowledged writes leave both at their defaults. Empty
    /// `records` send nothing.
    pub(crate) fn node_exchange<T>(
        &self,
        node: NodeId,
        records: &[T],
        fp: impl Fn(&T) -> Fingerprint,
        make: impl Fn(Vec<T>) -> Request,
    ) -> Result<(Vec<bool>, Vec<u64>)>
    where
        T: Clone,
    {
        let sent: Vec<(Vec<usize>, PendingReply)> = self
            .inner
            .router
            .split(records.to_vec(), fp)
            .into_iter()
            .enumerate()
            .filter(|(_, sub)| !sub.positions.is_empty())
            .map(|(shard, sub)| (sub.positions, self.pending(node, shard, make(sub.records))))
            .collect();
        let deadline = Instant::now() + self.inner.config.request_timeout;
        let mut exists = vec![false; records.len()];
        let mut values = vec![0u64; records.len()];
        for (positions, pending) in sent {
            if let Reply::Answer(e, v) = self.gather_one(pending, deadline)? {
                scatter_positions(&positions, &e, &v, &mut exists, &mut values);
            }
        }
        Ok((exists, values))
    }

    /// Groups fingerprints (with their positions) by replica set and
    /// shard, indexed through the primary node and the shard: with
    /// `replication = 1` (the common case) each (primary, shard) pair
    /// owns exactly one group, so routing costs one Vec index per
    /// fingerprint — no tree map keyed by heap-allocated replica vectors
    /// on the hot path.
    fn group_by_replicas(&self, view: &RingView, fps: &[Fingerprint]) -> Vec<RouteGroup> {
        let ring = view;
        let replication = self.inner.config.replication;
        let router = self.inner.router;
        let mut groups: Vec<RouteGroup> = Vec::new();
        // groups owned by primary p's shard s, at p · S + s (more than one
        // only when replication > 1 splits a primary's arcs across
        // different successor sets).
        let mut by_owner: Vec<Vec<usize>> = Vec::new();
        let mut replicas: Vec<NodeId> = Vec::with_capacity(replication);
        for (i, fp) in fps.iter().enumerate() {
            ring.replicas_into(fp.route_key(), replication, &mut replicas);
            let Some(primary) = replicas.first().map(|n| n.index()) else {
                // Unreachable: spawn() requires at least one node and the
                // ring never shrinks to zero.
                continue;
            };
            let shard = router.shard_of(fp);
            let owner = primary * router.count() + shard;
            if owner >= by_owner.len() {
                by_owner.resize_with(owner + 1, Vec::new);
            }
            let found = by_owner[owner]
                .iter()
                .copied()
                .find(|&g| groups[g].replicas == replicas);
            let gi = match found {
                Some(g) => g,
                None => {
                    groups.push(RouteGroup {
                        replicas: replicas.clone(),
                        shard,
                        positions: Vec::new(),
                        fingerprints: Vec::new(),
                    });
                    by_owner[owner].push(groups.len() - 1);
                    groups.len() - 1
                }
            };
            groups[gi].positions.push(i);
            groups[gi].fingerprints.push(*fp);
        }
        groups
    }

    /// The paper's operation over the whole cluster: batched
    /// lookup-with-insert. Returns per-fingerprint existence.
    ///
    /// # Errors
    ///
    /// [`Error::Unavailable`] when a fingerprint's entire replica set is
    /// down; node-side failures surface as [`Error::Io`].
    pub fn lookup_insert_batch(&self, fps: &[Fingerprint]) -> Result<Vec<bool>> {
        Ok(self.lookup_insert_batch_values(fps)?.0)
    }

    /// Like [`ShhcCluster::lookup_insert_batch`], also returning the
    /// stored value for each existing fingerprint (zero for new ones).
    ///
    /// Answers are merged with OR semantics across a group's replicas: a
    /// fingerprint exists if *any* replica knows it — so a cold-restarted
    /// primary does not cause spurious re-uploads while its replicas
    /// still remember the data. Values come from the first replica (ring
    /// order) that reported a *recorded* value, falling back to
    /// [`PENDING_VALUE`] when every replica that knew the fingerprint
    /// still holds it unrecorded. Replicas that answered "new" or
    /// [`PENDING_VALUE`] while a peer held a recorded value are
    /// **read-repaired**: that value is re-recorded on them, so a cold
    /// replica re-learns real values from traffic instead of keeping the
    /// placeholder its local insert stored. A pending value is never
    /// repaired onto a replica: it could overwrite a record that has
    /// just landed.
    ///
    /// # Errors
    ///
    /// Same as [`ShhcCluster::lookup_insert_batch`].
    pub fn lookup_insert_batch_values(&self, fps: &[Fingerprint]) -> Result<(Vec<bool>, Vec<u64>)> {
        let sent = self.lookup_scatter(fps);
        self.lookup_gather(sent, fps)
    }

    /// The scatter half of [`Self::lookup_insert_batch_values`]: routes
    /// `fps` under the current epoch and sends every group's request,
    /// without waiting for a reply.
    ///
    /// The window holds the epoch's view only while it sends. Once its
    /// requests are queued, a membership change's barrier
    /// ([`Self::quiesce_epoch`]) may pass: every scan the change sends
    /// afterwards reaches each shard's queue behind these inserts, so it
    /// sees them. A window whose gather comes much later (a front-end
    /// part waiting for its batch to close) therefore never holds an old
    /// epoch for longer than a send.
    pub(crate) fn lookup_scatter(&self, fps: &[Fingerprint]) -> SentLookup {
        let state = self.routing();
        let mut groups = self.group_by_replicas(&state.view, fps);
        let pending = self.scatter(&mut groups, |g| {
            Request::LookupInsert(std::mem::take(&mut g.fingerprints))
        });
        SentLookup {
            groups,
            pending,
            epoch: state.view.epoch(),
            migration: state.migration.clone(),
        }
    }

    /// The gather half of [`Self::lookup_insert_batch_values`]: awaits
    /// the replies of a window [`Self::lookup_scatter`] sent for `fps`
    /// (under one deadline, from now), merges them, then runs read
    /// repair and the migration dual-read.
    ///
    /// Read repair writes to the replicas the window was routed to, so it
    /// runs only while that epoch is still current, and holds its view
    /// for the duration, so a membership change's barrier waits for it.
    /// A window that outlived its epoch skips the repair: its replicas
    /// converge through later traffic or the next re-home pass.
    /// Dual-read uses the migration that was in flight at the send: it
    /// names the owners before those the window asked.
    pub(crate) fn lookup_gather(
        &self,
        sent: SentLookup,
        fps: &[Fingerprint],
    ) -> Result<(Vec<bool>, Vec<u64>)> {
        let SentLookup {
            groups,
            pending,
            epoch,
            migration,
        } = sent;
        let mut exists = vec![false; fps.len()];
        let mut values = vec![0u64; fps.len()];
        let mut repairs: Vec<(NodeId, Vec<(Fingerprint, u64)>)> = Vec::new();
        let deadline = Instant::now() + self.inner.config.request_timeout;
        for (group, owed) in groups.iter().zip(pending) {
            let mut replies = Vec::new();
            let mut last_err = None;
            for p in owed {
                let node = p.node;
                match self.gather_answer(p, deadline) {
                    Ok((e, v)) => replies.push((node, e, v)),
                    Err(e) => last_err = Some(e),
                }
            }
            merge_replies(
                group,
                fps,
                replies,
                last_err,
                &mut exists,
                &mut values,
                &mut repairs,
            )?;
        }
        // Read repair: replicas that answered "new" or pending for a
        // fingerprint a peer holds recorded get the recorded value, so
        // replica values converge under traffic. Only under the epoch
        // the window was routed by, whose view this holds meanwhile.
        let routed = (!repairs.is_empty()).then(|| self.routing());
        if routed.as_ref().is_some_and(|r| r.view.epoch() == epoch) {
            for (node, pairs) in repairs {
                match self.node_exchange(node, &pairs, |p| p.0, Request::Record) {
                    // A replica dying between its reply and the repair
                    // loses nothing it would have kept anyway.
                    Ok(_) | Err(Error::Unavailable(_)) => {}
                    Err(e) => return Err(e),
                }
            }
        }
        drop(routed);
        // Dual-read: misses inside in-flight migration ranges fall back
        // to the range's previous owner; hits there get their recorded
        // value re-recorded on the new owner (which just inserted a
        // placeholder).
        if let Some(migration) = &migration {
            let repairs = self.dual_read_fallback(migration, fps, &mut exists, &mut values)?;
            if !repairs.is_empty() {
                self.record_batch(&repairs)?;
                // Close the repair/delete race: a fingerprint tombstoned
                // while we re-recorded it was deleted concurrently — take
                // it back out (remove_batch is tombstone-aware itself).
                let doomed: Vec<Fingerprint> = {
                    let tombstones = migration.tombstones.lock();
                    repairs
                        .iter()
                        .map(|(fp, _)| *fp)
                        .filter(|fp| tombstones.contains(fp))
                        .collect()
                };
                if !doomed.is_empty() {
                    self.remove_batch(&doomed)?;
                }
            }
        }
        Ok((exists, values))
    }

    /// Queries the previous owner of every missed fingerprint inside an
    /// in-flight migration range, patching `exists`/`values` for hits.
    /// Returns the `(fingerprint, value)` pairs the caller should
    /// re-record on the new owners: the hits with a recorded value (a
    /// [`PENDING_VALUE`] is not re-recorded, lest it overwrite a record
    /// that has just landed). A dead previous owner means that
    /// range's unmigrated data is gone — the miss stands (the client
    /// re-uploads one chunk; benign for deduplication).
    fn dual_read_fallback(
        &self,
        migration: &MigrationState,
        fps: &[Fingerprint],
        exists: &mut [bool],
        values: &mut [u64],
    ) -> Result<Vec<(Fingerprint, u64)>> {
        // Group missed in-range fingerprints by previous owner. A
        // tombstoned fingerprint was deleted mid-migration — its copy on
        // the previous owner is a dead letter the fallback must not
        // resurrect.
        let mut by_old: Vec<(NodeId, Vec<usize>)> = Vec::new();
        {
            let tombstones = migration.tombstones.lock();
            for (i, fp) in fps.iter().enumerate() {
                if exists[i] || tombstones.contains(fp) {
                    continue;
                }
                let Some(mv) = migration.plan.change_for_fingerprint(*fp) else {
                    continue;
                };
                match by_old.iter_mut().find(|(node, _)| *node == mv.from) {
                    Some((_, positions)) => positions.push(i),
                    None => by_old.push((mv.from, vec![i])),
                }
            }
        }
        let mut repairs = Vec::new();
        for (old, positions) in by_old {
            let missed: Vec<Fingerprint> = positions.iter().map(|&i| fps[i]).collect();
            let (hits, held) = match self.node_exchange(old, &missed, |f| *f, Request::Query) {
                Ok(answer) => answer,
                Err(Error::Unavailable(_)) => continue,
                Err(e) => return Err(e),
            };
            for ((&pos, hit), value) in positions.iter().zip(hits).zip(held) {
                if !hit {
                    continue;
                }
                exists[pos] = true;
                values[pos] = value;
                if value != PENDING_VALUE {
                    repairs.push((fps[pos], value));
                }
            }
        }
        Ok(repairs)
    }

    /// Read-only batched existence query (no insertion on miss).
    ///
    /// The answer for a group comes from the first replica (ring order)
    /// that replies successfully. Queries scatter only to each group's
    /// *primary* — fanning a read to every replica would multiply
    /// node-side work by the replication factor just to drop the extra
    /// replies; the rare primary failure falls back to the remaining
    /// replicas one at a time.
    ///
    /// # Errors
    ///
    /// Same availability semantics as lookups.
    pub fn query_batch(&self, fps: &[Fingerprint]) -> Result<Vec<bool>> {
        self.query_batch_values(fps).map(|(exists, _)| exists)
    }

    /// Kept only for `ledger/src/bytes.rs`: [`Self::query_batch_values`],
    /// ignoring the hint.
    ///
    /// # Errors
    ///
    /// As [`Self::query_batch_values`].
    pub fn query_batch_values_with(
        &self,
        fps: &[Fingerprint],
        _hint: Admission,
    ) -> Result<(Vec<bool>, Vec<u64>)> {
        self.query_batch_values(fps)
    }

    /// [`ShhcCluster::query_batch`] returning stored values alongside
    /// existence.
    ///
    /// # Errors
    ///
    /// Same availability semantics as lookups.
    pub fn query_batch_values(&self, fps: &[Fingerprint]) -> Result<(Vec<bool>, Vec<u64>)> {
        let state = self.routing();
        let mut exists = vec![false; fps.len()];
        let mut values = vec![0u64; fps.len()];
        let mut groups = self.group_by_replicas(&state.view, fps);
        // Phase 1: one request per group, to the primary only.
        let pending: Vec<PendingReply> = groups
            .iter_mut()
            .map(|group| {
                let request = Request::Query(std::mem::take(&mut group.fingerprints));
                self.pending(group.replicas[0], group.shard, request)
            })
            .collect();
        // Phase 2: gather; a failed primary falls back to the remaining
        // replicas in ring order, each asked anew for the group's
        // fingerprints and given a full timeout.
        let deadline = Instant::now() + self.inner.config.request_timeout;
        for (group, primary) in groups.iter().zip(pending) {
            let mut answer = self.gather_answer(primary, deadline);
            for &node in &group.replicas[1..] {
                if answer.is_ok() {
                    break;
                }
                let request = Request::Query(group.positions.iter().map(|&i| fps[i]).collect());
                let retry = self.pending(node, group.shard, request);
                answer =
                    self.gather_answer(retry, Instant::now() + self.inner.config.request_timeout);
            }
            let (e, v) = answer?;
            scatter_positions(&group.positions, &e, &v, &mut exists, &mut values);
        }
        // Dual-read for misses inside in-flight migration ranges.
        // Queries are read-only: patch the answer, repair nothing.
        if let Some(migration) = &state.migration {
            self.dual_read_fallback(migration, fps, &mut exists, &mut values)?;
        }
        Ok((exists, values))
    }

    /// Associates storage-assigned values with fingerprints previously
    /// inserted as new (fan-out to all replicas).
    ///
    /// # Errors
    ///
    /// Same availability semantics as lookups.
    pub fn record_batch(&self, pairs: &[(Fingerprint, u64)]) -> Result<()> {
        let state = self.routing();
        let fps: Vec<Fingerprint> = pairs.iter().map(|(fp, _)| *fp).collect();
        let mut groups = self.group_by_replicas(&state.view, &fps);
        self.acked_fanout(&mut groups, |g| {
            Request::Record(g.positions.iter().map(|&i| pairs[i]).collect())
        })
    }

    /// Removes fingerprints from the cluster (fan-out to all replicas) —
    /// the garbage-collection path when chunks lose their last reference.
    ///
    /// A removed fingerprint leaves a tombstone on flash and its tag in
    /// the node's directory until compaction drops both; a later lookup
    /// of it may read that page once, and is answered "new".
    ///
    /// # Errors
    ///
    /// Same availability semantics as lookups.
    pub fn remove_batch(&self, fps: &[Fingerprint]) -> Result<()> {
        let state = self.routing();
        // During a migration, a removed fingerprint may still live on a
        // node that left its replica set (or sit in a scanned-but-
        // uninstalled frame). Tombstone it *first* — the re-home pass
        // filters installs against these and takes the node's copy out —
        // then remove from both the new owners and the previous primary
        // so no copy survives.
        let mut old_owner_removes: Vec<(NodeId, Vec<Fingerprint>)> = Vec::new();
        if let Some(migration) = &state.migration {
            let mut tombstones = migration.tombstones.lock();
            for fp in fps {
                tombstones.insert(*fp);
                if let Some(mv) = migration.plan.change_for_fingerprint(*fp) {
                    match old_owner_removes.iter_mut().find(|(n, _)| *n == mv.from) {
                        Some((_, list)) => list.push(*fp),
                        None => old_owner_removes.push((mv.from, vec![*fp])),
                    }
                }
            }
        }
        let mut groups = self.group_by_replicas(&state.view, fps);
        self.acked_fanout(&mut groups, |g| {
            Request::Remove(std::mem::take(&mut g.fingerprints))
        })?;
        for (old, fingerprints) in old_owner_removes {
            // A dead previous owner holds nothing to remove.
            self.remove_from(old, &fingerprints)?;
        }
        Ok(())
    }

    /// Shared driver for ack-answered fan-out operations (record,
    /// remove): every replica gets the request; a group succeeds if any
    /// replica acknowledges.
    fn acked_fanout(
        &self,
        groups: &mut [RouteGroup],
        make: impl FnMut(&mut RouteGroup) -> Request,
    ) -> Result<()> {
        let pending = self.scatter(groups, make);
        let deadline = Instant::now() + self.inner.config.request_timeout;
        for owed in pending {
            let mut any_ok = false;
            let mut last_err = None;
            for p in owed {
                match self.gather_one(p, deadline) {
                    Ok(_) => any_ok = true,
                    Err(e) => last_err = Some(e),
                }
            }
            if !any_ok {
                return Err(
                    last_err.unwrap_or_else(|| Error::Unavailable("no replica answered".into()))
                );
            }
        }
        Ok(())
    }

    /// Snapshots every alive node's counters.
    ///
    /// # Errors
    ///
    /// Propagates control-plane failures (a node dying mid-snapshot).
    pub fn stats(&self) -> Result<ClusterStats> {
        let (node_ids, crashed, drained, recovered) = {
            let nodes = self.inner.nodes.read();
            let mut alive = Vec::new();
            let mut crashed = Vec::new();
            let mut drained = Vec::new();
            let mut recovered = Vec::new();
            for (i, slot) in nodes.iter().enumerate() {
                let id = NodeId::new(i as u32);
                match slot.status {
                    SlotStatus::Running => {
                        alive.push(id);
                        if slot.recovered {
                            recovered.push(id);
                        }
                    }
                    SlotStatus::Crashed => crashed.push(id),
                    SlotStatus::Drained => drained.push(id),
                }
            }
            (alive, crashed, drained, recovered)
        };
        let mut out = Vec::with_capacity(node_ids.len());
        for id in node_ids {
            if let Reply::Stats(snap) = self.control(id, Request::Stats)? {
                out.push(*snap);
            }
        }
        Ok(ClusterStats {
            nodes: out,
            epoch: self.epoch(),
            crashed,
            drained,
            recovered,
            resync_moved: self.inner.resync_moved.load(Ordering::Relaxed),
            resync_chunks: self.inner.resync_chunks.load(Ordering::Relaxed),
        })
    }

    /// Flushes every node's SSD write buffer.
    ///
    /// # Errors
    ///
    /// Propagates the first node failure.
    pub fn flush_all(&self) -> Result<()> {
        let n = self.node_count();
        for i in 0..n {
            let id = NodeId::new(i as u32);
            match self.control(id, Request::Flush) {
                Ok(_) => {}
                Err(Error::Unavailable(_)) => {} // dead nodes have nothing to flush
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Simulates a node crash: the node stops accepting requests and its
    /// thread exits *without* closing its store — in-RAM state is lost
    /// (as with a machine failure) and, for WAL-backed nodes, any
    /// configured [`shhc_flash::FaultPlan`] dirties the log tails. With
    /// `replication > 1`, lookups keep working via the replicas; a
    /// durable node gets its state back via a warm
    /// [`ShhcCluster::restart_node`].
    ///
    /// # Errors
    ///
    /// [`Error::InvalidArgument`] for an unknown node.
    pub fn kill_node(&self, node: NodeId) -> Result<()> {
        let (queues, handles) = {
            let mut nodes = self.inner.nodes.write();
            let slot = nodes
                .get_mut(node.index())
                .ok_or_else(|| Error::invalid(format!("unknown node {node}")))?;
            if slot.status == SlotStatus::Running {
                slot.status = SlotStatus::Crashed;
            }
            (
                std::mem::take(&mut slot.queues),
                std::mem::take(&mut slot.handles),
            )
        };
        // Every shard's queue disconnects, so every shard thread exits
        // with its store unclosed.
        drop(queues);
        self.join_shards(node, handles)
    }

    /// Joins a stopped node's shard threads.
    fn join_shards(&self, node: NodeId, handles: Vec<JoinHandle<()>>) -> Result<()> {
        let _guard = self.inner.join_guard.lock();
        for handle in handles {
            handle
                .join()
                .map_err(|_| Error::Io(format!("{node} thread panicked")))?;
        }
        Ok(())
    }

    /// Restarts a killed node with an **empty** store (cold standby
    /// coming back): any write-ahead log the crashed node left on disk
    /// is wiped first, so the node rejoins with nothing and re-learns
    /// fingerprints as traffic arrives (or via an explicit
    /// [`ShhcCluster::rebalance`]). The ring is unchanged. This is the
    /// historical restart semantics; see [`ShhcCluster::restart_node`]
    /// for the warm path.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidArgument`] if the node is still alive, was drained
    /// (a drained node left the ring for good), or is unknown.
    pub fn restart_cold(&self, node: NodeId) -> Result<()> {
        let mut nodes = self.inner.nodes.write();
        let slot = nodes
            .get_mut(node.index())
            .ok_or_else(|| Error::invalid(format!("unknown node {node}")))?;
        match slot.status {
            SlotStatus::Running => Err(Error::invalid(format!("{node} is still running"))),
            SlotStatus::Drained => Err(Error::invalid(format!(
                "{node} was drained; decommissioned nodes cannot restart"
            ))),
            SlotStatus::Crashed => {
                // A cold standby must come back empty — discard the
                // crashed node's durable state before respawning (no-op
                // for volatile configs).
                self.inner
                    .config
                    .node_config
                    .durability
                    .scoped(format!("n{}", node.index()))
                    .wipe();
                *slot = spawn_node(node, self.inner.config.node_config.clone())?;
                Ok(())
            }
        }
    }

    /// Restarts a killed node **warm**: the node replays its write-ahead
    /// log (journal + segment metadata) to rebuild its bucket directory
    /// and warm its RAM cache before accepting traffic, then the
    /// cluster re-syncs the *delta* it missed while down from replica
    /// peers — each running peer is scanned once, entries whose replica
    /// set includes the restarted node are shipped to it in chunked
    /// install frames, and it answers which it already held; only the
    /// missing ones count (in [`ClusterStats::resync_moved`] /
    /// [`ClusterStats::resync_chunks`]). A copy it recovered with a value
    /// other than the peer's is removed from it.
    /// For a volatile node this degrades gracefully: nothing replays
    /// locally and re-sync ships the full replica set.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidArgument`] if the node is still alive, was
    /// drained, or is unknown; WAL corruption beyond a torn tail
    /// surfaces as [`Error::Corruption`] from the respawn.
    pub fn restart_node(&self, node: NodeId) -> Result<RecoveryReport> {
        // Membership lock: re-sync must see a stable ring (and not race
        // a concurrent drain/rebalance scanning the same peers).
        let _membership = self.inner.membership.lock();
        let start = Instant::now();
        {
            let mut nodes = self.inner.nodes.write();
            let slot = nodes
                .get_mut(node.index())
                .ok_or_else(|| Error::invalid(format!("unknown node {node}")))?;
            match slot.status {
                SlotStatus::Running => {
                    return Err(Error::invalid(format!("{node} is still running")))
                }
                SlotStatus::Drained => {
                    return Err(Error::invalid(format!(
                        "{node} was drained; decommissioned nodes cannot restart"
                    )))
                }
                SlotStatus::Crashed => {
                    // spawn_node replays the node's WAL (if any) before
                    // the server loop takes its first request.
                    *slot = spawn_node(node, self.inner.config.node_config.clone())?;
                    slot.recovered = true;
                }
            }
        }
        let mut report = RecoveryReport::default();
        if let Reply::Stats(snap) = self.control(node, Request::Stats)? {
            report.recovered_entries = snap.stats.recovered_entries;
            report.replayed = snap.stats.recovery_replayed;
            report.torn = snap.stats.recovery_torn;
        }
        self.resync_from_peers(node, &mut report)?;
        report.wall_clock = start.elapsed();
        Ok(report)
    }

    /// Ships a warm-restarted node the entries it missed while down: one
    /// re-sync pass ([`Rehome::Resync`]) scans every running peer and
    /// ships the entries whose replica set includes `node` to it alone.
    /// The node answers which entries it already held, so `resynced`
    /// counts only the missed delta, not the store size.
    fn resync_from_peers(&self, node: NodeId, report: &mut RecoveryReport) -> Result<()> {
        if self.inner.config.replication <= 1 {
            // Without replication no peer holds the node's entries;
            // there is nothing to pull.
            return Ok(());
        }
        let state = self.routing();
        let mut rb = RebalanceReport::default();
        self.rehome_pass(
            &state.view,
            Rehome::Resync(node),
            state.migration.as_deref(),
            &mut rb,
        )?;
        report.resynced = rb.moved;
        report.chunks = rb.chunks;
        self.inner
            .resync_moved
            .fetch_add(rb.moved, Ordering::Relaxed);
        self.inner
            .resync_chunks
            .fetch_add(rb.chunks, Ordering::Relaxed);
        Ok(())
    }

    /// Adds a fresh node via a **staged online rebalance** — safe under
    /// live traffic (the paper's "dynamic resource scaling" future-work
    /// item):
    ///
    /// 1. spawn the node and install the next epoch's ring *first*, so
    ///    every insert from this moment routes to its final owner —
    ///    fixing the pre-epoch race where inserts landing behind the
    ///    migration scan were stranded on the old owner,
    /// 2. dual-read while migrating: a miss inside a moved range falls
    ///    back to the range's previous owner (and a hit re-records its
    ///    value on the new owner),
    /// 3. re-home every entry to the replica set the new view assigns it
    ///    (scan each node, install in frames of
    ///    [`ClusterConfig::migration_chunk`] entries, remove what the
    ///    node no longer owns), passing again until nothing changes,
    /// 4. retire the old epoch.
    ///
    /// Every replica set is refilled, not just the new node's primary
    /// ranges, so a fingerprint keeps `replication` copies through the
    /// join. A fingerprint whose entire (new) replica set missed the
    /// migration reads as new — safe for deduplication (the client
    /// re-uploads one chunk and the entry is re-registered).
    ///
    /// # Errors
    ///
    /// Propagates spawn and migration failures. On a migration failure
    /// the new epoch stays installed **with dual-read still active**, so
    /// reads remain correct; re-run the migration by retrying the
    /// operation's effect via [`ShhcCluster::rebalance`].
    pub fn add_node(&self) -> Result<(NodeId, RebalanceReport)> {
        let _membership = self.inner.membership.lock();
        let start = Instant::now();
        let new_id = {
            let mut nodes = self.inner.nodes.write();
            let id = NodeId::new(nodes.len() as u32);
            nodes.push(spawn_node(id, self.inner.config.node_config.clone())?);
            id
        };
        let (migration, old_view) = self.install_next_epoch(|view| view.with_node_added(new_id));
        // Let batches that routed under the old epoch finish before
        // migrating: afterwards nothing can insert behind a scan.
        self.quiesce_epoch(old_view)?;
        let mut report = self.migrate(&migration)?;
        self.retire_migration();
        report.wall_clock = start.elapsed();
        Ok((new_id, report))
    }

    /// Decommissions a node gracefully: installs an epoch without it,
    /// re-homes every entry to its new replica set (chunked, under live
    /// traffic with dual-read; the node's primary and replica copies
    /// alike leave it once an owner holds them), verifies by scan that
    /// the node is empty, and only then shuts its thread down and marks
    /// the slot **drained** — distinct from crashed: no data was lost and
    /// the node left the ring for good.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidArgument`] when the node is not a running ring
    /// member or is the last one. Migration failures leave the new epoch
    /// installed with dual-read active (reads stay correct) and the node
    /// running.
    pub fn drain_node(&self, node: NodeId) -> Result<RebalanceReport> {
        let _membership = self.inner.membership.lock();
        let start = Instant::now();
        {
            let nodes = self.inner.nodes.read();
            let slot = nodes
                .get(node.index())
                .ok_or_else(|| Error::invalid(format!("unknown node {node}")))?;
            if slot.status != SlotStatus::Running {
                return Err(Error::invalid(format!("{node} is not running")));
            }
        }
        {
            let routing = self.inner.routing.read();
            if !routing.view.nodes().contains(&node) {
                return Err(Error::invalid(format!("{node} is not a ring member")));
            }
            if routing.view.nodes().len() == 1 {
                return Err(Error::invalid("cannot drain the last ring member"));
            }
        }
        let (migration, old_view) = self.install_next_epoch(|view| view.with_node_removed(node));
        // Barrier: once no batch holds the old epoch's view, nothing can
        // write to the drained node under stale routing — the
        // verification scan after the re-home passes is authoritative.
        self.quiesce_epoch(old_view)?;
        let mut report = self.migrate(&migration)?;
        report.post_scan_entries = match self.control(node, Request::Scan)? {
            Reply::Scan(entries) => entries.len() as u64,
            _ => 0,
        };
        self.retire_migration();
        if report.post_scan_entries == 0 {
            // Verified empty and out of the ring: close the shards'
            // stores, then decommission their threads.
            let _ = self.control(node, Request::Shutdown);
            let handles = {
                let mut nodes = self.inner.nodes.write();
                let slot = &mut nodes[node.index()];
                slot.status = SlotStatus::Drained;
                slot.queues.clear();
                std::mem::take(&mut slot.handles)
            };
            self.join_shards(node, handles)?;
        }
        report.wall_clock = start.elapsed();
        Ok(report)
    }

    /// Anti-entropy within the current epoch: the same re-home passes a
    /// join or drain runs. Every running node's entries are re-homed to
    /// the replica set the current ring assigns them — missing replica
    /// copies are filled (a cold-restarted node is repopulated), and
    /// strays (entries on nodes outside their replica set) are moved to
    /// their owners and removed, but only once at least one owner
    /// acknowledged the install (a dead owner must never cost the last
    /// live copy). Installs are insert-if-absent, so on a converged
    /// cluster a pass installs and removes nothing. A successful pass also retires any migration a failed
    /// membership change left in flight: the pass re-homed everything the
    /// dual-read window was covering.
    ///
    /// Run it as a maintenance operation: a client delete racing the pass
    /// can have a just-scanned copy re-installed (anti-entropy keeps no
    /// delete journal across its scan). The copy is benign — the backup
    /// service verifies values before trusting them — but the fingerprint
    /// may need a second delete.
    ///
    /// # Errors
    ///
    /// Propagates scan and install failures; dead nodes are skipped.
    pub fn rebalance(&self) -> Result<RebalanceReport> {
        let _membership = self.inner.membership.lock();
        let start = Instant::now();
        let state = self.routing();
        let mut report = RebalanceReport {
            from_epoch: state.view.epoch(),
            to_epoch: state.view.epoch(),
            ..RebalanceReport::default()
        };
        self.rehome(&state.view, state.migration.as_deref(), &mut report)?;
        // The pass re-homed every reachable entry under the current view;
        // any dual-read window a failed membership change left open is no
        // longer needed (and its tombstone set must stop growing).
        self.retire_migration();
        report.wall_clock = start.elapsed();
        Ok(report)
    }

    /// Swaps in the next epoch's view (derived by `next`) together with a
    /// fresh migration state for its plan. Returns the migration and the
    /// *previous* epoch's view, whose holder count is the count of
    /// in-flight batches still routing under the old epoch.
    fn install_next_epoch(
        &self,
        next: impl FnOnce(&RingView) -> RingView,
    ) -> (Arc<MigrationState>, Arc<EpochView>) {
        let mut routing = self.inner.routing.write();
        let old_view = Arc::clone(&routing.view);
        let new_view = next(&old_view);
        let migration = Arc::new(MigrationState::new(old_view.diff(&new_view)));
        *routing = RoutingState::install(new_view, Some(migration.clone()));
        (migration, old_view)
    }

    /// Waits until no batch still holds the previous epoch's view: every
    /// in-flight operation counts itself into the epoch it snapshots, so
    /// once the count is zero, no pre-epoch batch can write under stale
    /// routing — the barrier a drain's verified-empty scan and a join's
    /// last pass rely on. The last batch out wakes the wait. A lookup
    /// window holds the view until its requests are queued (see
    /// [`Self::lookup_scatter`]), not until its replies are gathered.
    ///
    /// # Errors
    ///
    /// [`Error::Unavailable`] when a batch still holds the old view after
    /// the request timeout; the caller leaves its migration in flight.
    fn quiesce_epoch(&self, old_view: Arc<EpochView>) -> Result<()> {
        let timeout = self.inner.config.request_timeout;
        if old_view.wait_empty(Instant::now() + timeout) {
            return Ok(());
        }
        Err(Error::Unavailable(format!(
            "batches still route under epoch {} after {timeout:?}",
            old_view.epoch()
        )))
    }

    /// Clears the in-flight migration: the old epoch is retired and
    /// dual-read ends.
    fn retire_migration(&self) {
        self.inner.routing.write().migration = None;
    }

    /// Re-homes every entry under the view `migration`'s epoch installed,
    /// honouring the plan's tombstones.
    fn migrate(&self, migration: &MigrationState) -> Result<RebalanceReport> {
        let mut report = RebalanceReport {
            from_epoch: migration.plan.from_epoch,
            to_epoch: migration.plan.to_epoch,
            ..RebalanceReport::default()
        };
        let state = self.routing();
        self.rehome(&state.view, Some(migration), &mut report)?;
        Ok(report)
    }

    /// Runs [`Rehome::Owners`] passes under `view` until one installs and
    /// removes nothing, or [`MAX_REHOME_PASSES`] have run. A later pass
    /// only catches entries that batches still in flight wrote behind the
    /// previous pass's scans.
    fn rehome(
        &self,
        view: &RingView,
        migration: Option<&MigrationState>,
        report: &mut RebalanceReport,
    ) -> Result<()> {
        for _ in 0..MAX_REHOME_PASSES {
            if !self.rehome_pass(view, Rehome::Owners, migration, report)? {
                break;
            }
        }
        Ok(())
    }

    /// One re-home pass under `view`: scans each running node once
    /// (`Request::Scan`, in fingerprint order) and ships each entry, in
    /// pages of [`ClusterConfig::migration_chunk`] entries, to the
    /// targets `mode` names. Entries tombstoned in `migration` are not
    /// shipped. In [`Rehome::Owners`] mode, an entry its node no longer
    /// owns is then removed from that node once it is tombstoned or an
    /// owner acknowledged it. Returns whether the pass installed or
    /// removed anything. Dead nodes are skipped: the next pass, or
    /// traffic, repairs them.
    fn rehome_pass(
        &self,
        view: &RingView,
        mode: Rehome,
        migration: Option<&MigrationState>,
        report: &mut RebalanceReport,
    ) -> Result<bool> {
        let replication = self.inner.config.replication;
        let chunk = self.inner.config.migration_chunk.max(1);
        let mut changed = false;
        // A re-sync ships each entry once, however many peers hold it.
        let mut resynced: FpHashSet<Fingerprint> = FpHashSet::default();
        for source in self.running_nodes() {
            if mode == Rehome::Resync(source) {
                continue;
            }
            let entries = match self.control(source, Request::Scan) {
                Ok(Reply::Scan(entries)) => entries,
                Ok(_) | Err(Error::Unavailable(_)) => continue,
                Err(e) => return Err(e),
            };
            report.scanned += entries.len() as u64;
            let mut queues: Vec<(NodeId, Vec<(Fingerprint, u64)>)> = Vec::new();
            let mut strays: FpHashSet<Fingerprint> = FpHashSet::default();
            {
                let tombstones = migration.map(|m| m.tombstones.lock());
                let mut owners = Vec::with_capacity(replication);
                for (fp, value) in entries {
                    view.replicas_into(fp.route_key(), replication, &mut owners);
                    let targets: &[NodeId] = match &mode {
                        Rehome::Owners => {
                            if !owners.contains(&source) {
                                strays.insert(fp);
                            }
                            &owners
                        }
                        Rehome::Resync(node) if owners.contains(node) && resynced.insert(fp) => {
                            std::slice::from_ref(node)
                        }
                        Rehome::Resync(_) => &[],
                    };
                    if tombstones.as_ref().is_some_and(|t| t.contains(&fp)) {
                        continue;
                    }
                    for &target in targets.iter().filter(|&&t| t != source) {
                        match queues.iter_mut().find(|(n, _)| *n == target) {
                            Some((_, queue)) => queue.push((fp, value)),
                            None => queues.push((target, vec![(fp, value)])),
                        }
                    }
                }
            }
            // Targets take pages in turn, and a page's strays leave the
            // source as soon as the page is acknowledged: installs and
            // removes alternate across nodes instead of queueing up
            // behind one node's client traffic.
            let mut pages: Vec<(NodeId, _)> = queues
                .iter()
                .map(|(target, queue)| (*target, queue.chunks(chunk)))
                .collect();
            let mut source_up = true;
            while !pages.is_empty() {
                let mut finished = Vec::new();
                for (target, pending) in &mut pages {
                    let Some(page) = pending.next() else {
                        finished.push(*target);
                        continue;
                    };
                    let Some(installed) =
                        self.install_page(*target, page, mode, migration, report)?
                    else {
                        finished.push(*target);
                        continue;
                    };
                    changed |= installed > 0;
                    let gone: Vec<Fingerprint> = page
                        .iter()
                        .map(|(fp, _)| *fp)
                        .filter(|fp| strays.remove(fp))
                        .collect();
                    if source_up && !gone.is_empty() {
                        source_up = self.remove_from(source, &gone)?;
                        changed = true;
                    }
                }
                pages.retain(|(target, _)| !finished.contains(target));
            }
            // Strays left behind were tombstoned before they could ship,
            // or every owner was down; only the former may go.
            let tombstoned: Vec<Fingerprint> = match migration {
                Some(m) => {
                    let tombstones = m.tombstones.lock();
                    strays
                        .into_iter()
                        .filter(|fp| tombstones.contains(fp))
                        .collect()
                }
                None => Vec::new(),
            };
            for page in tombstoned.chunks(chunk) {
                if !source_up || !self.remove_from(source, page)? {
                    break;
                }
                changed = true;
            }
        }
        Ok(changed)
    }

    /// Installs one page of `pairs` on `target` and returns how many
    /// entries it installed, or `None` when the target is down. The
    /// target answers which entries it already held, and with what value,
    /// so nothing is probed first. Entries tombstoned while the page was
    /// in flight are removed from the target again; in a re-sync, so is
    /// a copy the target holds with a value other than the peer's (see
    /// [`Rehome::Resync`]).
    fn install_page(
        &self,
        target: NodeId,
        pairs: &[(Fingerprint, u64)],
        mode: Rehome,
        migration: Option<&MigrationState>,
        report: &mut RebalanceReport,
    ) -> Result<Option<u64>> {
        let (exists, held) = match self.node_exchange(target, pairs, |p| p.0, Request::Migrate) {
            Ok(answer) => answer,
            Err(Error::Unavailable(_)) => return Ok(None),
            Err(e) => return Err(e),
        };
        let mut installed = 0u64;
        let mut undo: Vec<Fingerprint> = Vec::new();
        {
            let tombstones = migration.map(|m| m.tombstones.lock());
            for (i, &(fp, value)) in pairs.iter().enumerate() {
                if tombstones.as_ref().is_some_and(|t| t.contains(&fp)) {
                    undo.push(fp);
                } else if !exists[i] {
                    installed += 1;
                } else if matches!(mode, Rehome::Resync(_)) && held[i] != value {
                    undo.push(fp);
                }
            }
        }
        if !undo.is_empty() && !self.remove_from(target, &undo)? {
            return Ok(None);
        }
        if installed > 0 {
            report.chunks += 1;
            report.moved += installed;
        }
        Ok(Some(installed))
    }

    /// Removes `fps` from `node`; `false` when the node is down.
    fn remove_from(&self, node: NodeId, fps: &[Fingerprint]) -> Result<bool> {
        match self.node_exchange(node, fps, |f| *f, Request::Remove) {
            Ok(_) => Ok(true),
            Err(Error::Unavailable(_)) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Gracefully shuts down every node thread.
    ///
    /// # Errors
    ///
    /// Reports the first thread that fails to join.
    pub fn shutdown(self) -> Result<()> {
        let n = self.node_count();
        for i in 0..n {
            let _ = self.control(NodeId::new(i as u32), Request::Shutdown);
        }
        let mut nodes = self.inner.nodes.write();
        for (i, slot) in nodes.iter_mut().enumerate() {
            slot.queues.clear();
            for handle in slot.handles.drain(..) {
                handle
                    .join()
                    .map_err(|_| Error::Io(format!("node-{i} thread panicked")))?;
            }
        }
        Ok(())
    }
}

/// Starts node `id`: one `node_loop` thread per shard slice, each
/// behind its own queue. A WAL-backed shard replays its log before its
/// thread takes the first request.
fn spawn_node(id: NodeId, config: NodeConfig) -> Result<NodeSlot> {
    // Each node persists under its own subdirectory of the cluster's
    // data-dir root (no-op for volatile configs). Callers always pass the
    // cluster's *base* node config, so scoping happens exactly once.
    let mut config = config;
    config.durability = config.durability.scoped(format!("n{}", id.index()));
    let mut slot = NodeSlot {
        queues: Vec::new(),
        handles: Vec::new(),
        status: SlotStatus::Running,
        recovered: false,
    };
    for (s, shard) in shard_slices(id, &config)?.into_iter().enumerate() {
        match ShardQueue::spawn(format!("shhc-{id}-s{s}"), shard) {
            Ok((queue, handle)) => {
                slot.queues.push(queue);
                slot.handles.push(handle);
            }
            Err(e) => {
                // Stop the shards already running: their queues close.
                slot.queues.clear();
                for handle in slot.handles {
                    let _ = handle.join();
                }
                return Err(Error::Io(format!("failed to spawn node thread: {e}")));
            }
        }
    }
    Ok(slot)
}

/// Merges one control step's per-shard replies (shard order) into the
/// reply an unsharded node would give: snapshots as one node-level
/// snapshot, scans concatenated (shard order is fingerprint order, so the
/// result stays sorted). One shard's reply is the node's.
fn merge_control(mut replies: Vec<Reply>) -> Reply {
    if replies.len() == 1 {
        return replies.swap_remove(0);
    }
    match replies.first() {
        Some(Reply::Stats(_)) => {
            let parts = replies
                .into_iter()
                .filter_map(|r| match r {
                    Reply::Stats(snap) => Some(*snap),
                    _ => None,
                })
                .collect();
            Reply::Stats(Box::new(merge_snapshots(parts)))
        }
        Some(Reply::Scan(_)) => Reply::Scan(
            replies
                .into_iter()
                .flat_map(|r| match r {
                    Reply::Scan(entries) => entries,
                    _ => Vec::new(),
                })
                .collect(),
        ),
        _ => Reply::Done,
    }
}

/// Aggregates per-shard snapshots into one node-level snapshot.
fn merge_snapshots(parts: Vec<NodeSnapshot>) -> NodeSnapshot {
    let shards = parts.len() as u32;
    let stats: Vec<NodeStats> = parts.iter().map(|p| p.stats).collect();
    let cache: Vec<CacheStats> = parts.iter().map(|p| p.cache).collect();
    let device: Vec<DeviceStats> = parts.iter().map(|p| p.device).collect();
    let ftl: Vec<FtlStats> = parts.iter().map(|p| p.ftl).collect();
    NodeSnapshot {
        id: parts.first().map(|p| p.id).unwrap_or(NodeId::new(0)),
        entries: parts.iter().map(|p| p.entries).sum(),
        stats: NodeStats::merge(stats.iter()),
        cache: CacheStats::merge(cache.iter()),
        device: DeviceStats::merge(device.iter()),
        ftl: FtlStats::merge(ftl.iter()),
        shards,
    }
}

/// One replica's lookup answer: existence flags plus the full-length
/// value vector.
type ReplicaReply = (NodeId, Vec<bool>, Vec<u64>);

/// OR-merges a group's replica replies into the batch-wide result
/// vectors: the value is the first recorded one in ring order, or
/// [`PENDING_VALUE`] when no replica that knew the fingerprint holds a
/// recorded value. A recorded value is queued as a read repair for each
/// replica that answered "new" or pending. Errors when no replica
/// answered at all.
fn merge_replies(
    group: &RouteGroup,
    fps: &[Fingerprint],
    replies: Vec<ReplicaReply>,
    last_err: Option<Error>,
    exists: &mut [bool],
    values: &mut [u64],
    repairs: &mut Vec<(NodeId, Vec<(Fingerprint, u64)>)>,
) -> Result<()> {
    if replies.is_empty() {
        return Err(last_err.unwrap_or_else(|| Error::Unavailable("no replica answered".into())));
    }
    for (k, &pos) in group.positions.iter().enumerate() {
        if !replies.iter().any(|(_, e, _)| e[k]) {
            continue; // a genuinely new fingerprint: every replica inserted
        }
        let recorded = replies
            .iter()
            .map(|(_, e, v)| (e[k], v[k]))
            .find(|&(e, v)| e && v != PENDING_VALUE);
        exists[pos] = true;
        let Some((_, value)) = recorded else {
            values[pos] = PENDING_VALUE;
            continue;
        };
        values[pos] = value;
        for (node, e, v) in &replies {
            if e[k] && v[k] != PENDING_VALUE {
                continue;
            }
            let pair = (fps[pos], value);
            match repairs.iter_mut().find(|(n, _)| n == node) {
                Some((_, list)) => list.push(pair),
                None => repairs.push((*node, vec![pair])),
            }
        }
    }
    Ok(())
}

/// Distributes a group's answer back into the full-batch result vectors.
fn scatter_positions(
    positions: &[usize],
    exists: &[bool],
    values: &[u64],
    out_exists: &mut [bool],
    out_values: &mut [u64],
) {
    for ((&pos, &e), &v) in positions.iter().zip(exists).zip(values) {
        out_exists[pos] = e;
        out_values[pos] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shhc_flash::{FlashConfig, FlashGeometry};
    use shhc_node::Durability;

    fn fps(range: std::ops::Range<u64>) -> Vec<Fingerprint> {
        // Spread test keys uniformly over the ring, as real SHA-1
        // fingerprints are.
        range
            .map(|i| Fingerprint::from_u64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31)))
            .collect()
    }

    /// Tentpole: a WAL-backed node killed mid-traffic comes back warm —
    /// local WAL replay rebuilds its committed state, delta re-sync
    /// pulls only what it missed while down (bounded by that delta),
    /// and the cluster reports it as recovered.
    #[test]
    fn warm_restart_replays_wal_and_resyncs_missed_delta() {
        let dir = std::env::temp_dir().join(format!("shhc-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let node_config = NodeConfig::small_test().with_durability(Durability::wal(&dir));
        let cluster =
            ShhcCluster::spawn(ClusterConfig::new(2, node_config).with_replication(2)).unwrap();
        let batch = fps(0..300);
        cluster.lookup_insert_batch(&batch).unwrap();

        cluster.kill_node(NodeId::new(0)).unwrap();
        // Writes that land while the node is down: the missed delta.
        let extra = fps(1000..1100);
        cluster.lookup_insert_batch(&extra).unwrap();

        let report = cluster.restart_node(NodeId::new(0)).unwrap();
        assert!(
            report.recovered_entries >= 300,
            "WAL replay rebuilt only {} of the committed entries",
            report.recovered_entries
        );
        assert!(
            report.resynced <= extra.len() as u64,
            "re-sync shipped {} entries for a {}-entry delta",
            report.resynced,
            extra.len()
        );
        assert!(report.chunks <= report.resynced.max(1));

        let stats = cluster.stats().unwrap();
        assert_eq!(stats.recovered, vec![NodeId::new(0)]);
        assert!(stats.crashed.is_empty());
        assert_eq!(stats.resync_moved, report.resynced);
        assert_eq!(stats.resync_chunks, report.chunks);

        // Every pre-crash and while-down entry reads as a duplicate.
        let exists = cluster.lookup_insert_batch(&batch).unwrap();
        assert!(exists.iter().all(|e| *e), "pre-crash entries lost");
        let exists = cluster.lookup_insert_batch(&extra).unwrap();
        assert!(exists.iter().all(|e| *e), "while-down entries lost");
        cluster.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dedup_across_nodes() {
        let cluster = ShhcCluster::spawn(ClusterConfig::small_test(4)).unwrap();
        let batch = fps(0..200);
        let first = cluster.lookup_insert_batch(&batch).unwrap();
        assert!(first.iter().all(|e| !e));
        let second = cluster.lookup_insert_batch(&batch).unwrap();
        assert!(second.iter().all(|e| *e));
        let stats = cluster.stats().unwrap();
        assert_eq!(stats.total_entries(), 200);
        // Work spread over all 4 nodes.
        assert!(stats.nodes.iter().all(|n| n.entries > 0));
        // Every node served at least one request, so each saw a queue
        // depth of at least 1 (the frame being handled).
        assert!(stats.nodes.iter().all(|n| n.stats.queue_peak >= 1));
        assert!(stats.max_queue_peak() >= 1);
        cluster.shutdown().unwrap();
    }

    #[test]
    fn query_does_not_insert() {
        let cluster = ShhcCluster::spawn(ClusterConfig::small_test(2)).unwrap();
        let batch = fps(0..50);
        let q = cluster.query_batch(&batch).unwrap();
        assert!(q.iter().all(|e| !e));
        assert_eq!(cluster.stats().unwrap().total_entries(), 0);
        cluster.shutdown().unwrap();
    }

    #[test]
    fn record_then_values_round_trip() {
        let cluster = ShhcCluster::spawn(ClusterConfig::small_test(3)).unwrap();
        let batch = fps(0..20);
        cluster.lookup_insert_batch(&batch).unwrap();
        let pairs: Vec<(Fingerprint, u64)> = batch
            .iter()
            .enumerate()
            .map(|(i, fp)| (*fp, 1000 + i as u64))
            .collect();
        cluster.record_batch(&pairs).unwrap();
        let (exists, values) = cluster.lookup_insert_batch_values(&batch).unwrap();
        assert!(exists.iter().all(|e| *e));
        for (i, v) in values.iter().enumerate() {
            assert_eq!(*v, 1000 + i as u64);
        }
        cluster.shutdown().unwrap();
    }

    #[test]
    fn kill_without_replication_fails_some_lookups() {
        let cluster = ShhcCluster::spawn(ClusterConfig::small_test(3)).unwrap();
        let batch = fps(0..100);
        cluster.lookup_insert_batch(&batch).unwrap();
        cluster.kill_node(NodeId::new(1)).unwrap();
        assert_eq!(cluster.alive_count(), 2);
        let err = cluster.lookup_insert_batch(&batch).unwrap_err();
        assert!(matches!(err, Error::Unavailable(_)), "{err}");
        cluster.shutdown().unwrap();
    }

    #[test]
    fn replication_survives_a_crash() {
        let cluster = ShhcCluster::spawn(ClusterConfig::small_test(3).with_replication(2)).unwrap();
        let batch = fps(0..100);
        cluster.lookup_insert_batch(&batch).unwrap();
        cluster.kill_node(NodeId::new(0)).unwrap();
        let exists = cluster.lookup_insert_batch(&batch).unwrap();
        assert!(
            exists.iter().all(|e| *e),
            "replicas must remember every fingerprint"
        );
        cluster.shutdown().unwrap();
    }

    #[test]
    fn cold_restart_gives_empty_node() {
        let cluster = ShhcCluster::spawn(ClusterConfig::small_test(2)).unwrap();
        cluster.lookup_insert_batch(&fps(0..50)).unwrap();
        cluster.kill_node(NodeId::new(1)).unwrap();
        cluster.restart_cold(NodeId::new(1)).unwrap();
        assert_eq!(cluster.alive_count(), 2);
        // A cold restart discards the node's share (even under a WAL:
        // the directory is wiped); entries now undercount.
        let total = cluster.stats().unwrap().total_entries();
        assert!(total < 50, "restarted node should be empty, total {total}");
        cluster.shutdown().unwrap();
    }

    #[test]
    fn add_node_rebalances_and_preserves_answers() {
        let cluster =
            ShhcCluster::spawn(ClusterConfig::small_test(2).with_migration_chunk(64)).unwrap();
        assert_eq!(cluster.epoch(), 1);
        let batch = fps(0..300);
        cluster.lookup_insert_batch(&batch).unwrap();
        let (new_id, report) = cluster.add_node().unwrap();
        assert_eq!(new_id, NodeId::new(2));
        assert!(report.moved > 0, "some fingerprints must move");
        // Each pass scans every stored entry; a second pass confirms the
        // first left nothing to move.
        assert!(report.scanned >= 2 * 300);
        // Chunked migration: 64-entry pages mean ≥ moved/64 frames.
        assert!(report.chunks >= report.moved / 64);
        assert!(report.wall_clock > Duration::ZERO);
        assert_eq!((report.from_epoch, report.to_epoch), (1, 2));
        assert_eq!(cluster.epoch(), 2);
        assert!(!cluster.migration_in_flight(), "old epoch must retire");
        // Every fingerprint still deduplicates after the move.
        let exists = cluster.lookup_insert_batch(&batch).unwrap();
        assert!(exists.iter().all(|e| *e));
        // Totals preserved (no duplicates left behind).
        let stats = cluster.stats().unwrap();
        assert_eq!(stats.total_entries(), 300);
        let new_node = stats.nodes.iter().find(|n| n.id == new_id).unwrap();
        assert_eq!(new_node.entries, report.moved);
        cluster.shutdown().unwrap();
    }

    /// A join at replication 2 refills every replica set: the node that
    /// became a fingerprint's second owner keeps its copy, so killing the
    /// new node afterwards loses nothing.
    #[test]
    fn add_node_keeps_two_copies_at_replication_2() {
        let cluster = ShhcCluster::spawn(ClusterConfig::small_test(3).with_replication(2)).unwrap();
        let batch = fps(0..600);
        cluster.lookup_insert_batch(&batch).unwrap();
        let (new_id, report) = cluster.add_node().unwrap();
        assert!(report.moved > 0);
        assert_eq!(cluster.stats().unwrap().total_entries(), 1200);
        cluster.kill_node(new_id).unwrap();
        let exists = cluster.lookup_insert_batch(&batch).unwrap();
        let missing = exists.iter().filter(|e| !**e).count();
        assert_eq!(missing, 0, "{missing} of 600 lost with the new node");
        cluster.shutdown().unwrap();
    }

    /// A drain at replication 2 leaves every fingerprint with two copies
    /// on the remaining nodes, with no anti-entropy pass afterwards.
    #[test]
    fn drain_node_keeps_two_copies_at_replication_2() {
        let cluster = ShhcCluster::spawn(ClusterConfig::small_test(4).with_replication(2)).unwrap();
        let batch = fps(0..600);
        cluster.lookup_insert_batch(&batch).unwrap();
        let report = cluster.drain_node(NodeId::new(1)).unwrap();
        assert_eq!(report.post_scan_entries, 0);
        assert_eq!(cluster.stats().unwrap().total_entries(), 2 * 600);
        // Each survivor alone still answers for what it holds: kill any
        // one and every fingerprint keeps a copy.
        cluster.kill_node(NodeId::new(0)).unwrap();
        let exists = cluster.lookup_insert_batch(&batch).unwrap();
        assert!(exists.iter().all(|e| *e));
        cluster.shutdown().unwrap();
    }

    /// A delete that lands while a replicated drain is in flight stays
    /// deleted, including the copy on a node that was only the entry's
    /// second owner: the pass must not ship that copy back.
    #[test]
    fn removes_during_a_replicated_drain_do_not_resurrect() {
        let cluster = ShhcCluster::spawn(ClusterConfig::small_test(4).with_replication(2)).unwrap();
        let batch = fps(0..400);
        cluster.lookup_insert_batch(&batch).unwrap();
        let leaving = NodeId::new(2);
        let (migration, old_view) =
            cluster.install_next_epoch(|view| view.with_node_removed(leaving));
        // Deletes between the epoch swap and the pass: one in four.
        let doomed: Vec<Fingerprint> = batch.iter().copied().step_by(4).collect();
        cluster.remove_batch(&doomed).unwrap();
        let on_leaving_as_second = doomed
            .iter()
            .filter(|fp| old_view.replicas(fp.route_key(), 2)[1] == leaving)
            .count();
        assert!(
            on_leaving_as_second > 0,
            "some doomed copies sit on a second owner"
        );
        drop(old_view);
        cluster.migrate(&migration).unwrap();
        cluster.retire_migration();
        let exists = cluster.query_batch(&doomed).unwrap();
        assert_eq!(exists.iter().filter(|e| **e).count(), 0, "resurrected");
        let live = (batch.len() - doomed.len()) as u64;
        assert_eq!(cluster.stats().unwrap().total_entries(), 2 * live);
        cluster.shutdown().unwrap();
    }

    #[test]
    fn add_node_preserves_recorded_values() {
        let cluster = ShhcCluster::spawn(ClusterConfig::small_test(2)).unwrap();
        let batch = fps(0..200);
        cluster.lookup_insert_batch(&batch).unwrap();
        let pairs: Vec<(Fingerprint, u64)> = batch
            .iter()
            .enumerate()
            .map(|(i, fp)| (*fp, 9000 + i as u64))
            .collect();
        cluster.record_batch(&pairs).unwrap();
        cluster.add_node().unwrap();
        let (exists, values) = cluster.lookup_insert_batch_values(&batch).unwrap();
        assert!(exists.iter().all(|e| *e));
        for (i, v) in values.iter().enumerate() {
            assert_eq!(*v, 9000 + i as u64, "migrated value must survive");
        }
        cluster.shutdown().unwrap();
    }

    /// A batch that still routes under the old epoch holds the join's
    /// barrier: past the request timeout `add_node` fails instead of
    /// migrating behind it, and leaves dual-read on. Once the batch is
    /// gone, `rebalance` re-homes the entries and retires the migration.
    #[test]
    fn add_node_fails_while_an_old_epoch_batch_is_in_flight() {
        let mut config = ClusterConfig::small_test(2);
        config.request_timeout = Duration::from_millis(200);
        let cluster = ShhcCluster::spawn(config).unwrap();
        let batch = fps(0..300);
        cluster.lookup_insert_batch(&batch).unwrap();
        let in_flight = cluster.routing();
        let err = cluster.add_node().unwrap_err();
        assert!(matches!(err, Error::Unavailable(_)), "{err}");
        assert!(cluster.migration_in_flight(), "dual-read must stay on");
        assert_eq!(cluster.epoch(), 2, "the new epoch stays installed");
        let exists = cluster.query_batch(&batch).unwrap();
        assert!(exists.iter().all(|e| *e), "dual-read answers every entry");
        drop(in_flight);
        let report = cluster.rebalance().unwrap();
        assert!(report.moved > 0, "the new node's share must move");
        assert!(!cluster.migration_in_flight(), "rebalance retires it");
        let stats = cluster.stats().unwrap();
        assert_eq!(stats.total_entries(), 300);
        assert!(stats.nodes.iter().all(|n| n.entries > 0));
        cluster.shutdown().unwrap();
    }

    #[test]
    fn drain_node_empties_and_marks_drained() {
        let cluster =
            ShhcCluster::spawn(ClusterConfig::small_test(3).with_migration_chunk(32)).unwrap();
        let batch = fps(0..300);
        cluster.lookup_insert_batch(&batch).unwrap();
        let pairs: Vec<(Fingerprint, u64)> = batch
            .iter()
            .enumerate()
            .map(|(i, fp)| (*fp, 100 + i as u64))
            .collect();
        cluster.record_batch(&pairs).unwrap();

        let victim = NodeId::new(1);
        let report = cluster.drain_node(victim).unwrap();
        assert!(report.moved > 0, "the drained node's share must move");
        assert_eq!(
            report.post_scan_entries, 0,
            "drain must verify the node empty"
        );
        assert_eq!((report.from_epoch, report.to_epoch), (1, 2));
        assert_eq!(cluster.alive_count(), 2);
        assert_eq!(cluster.drained_count(), 1);
        assert!(!cluster.migration_in_flight());

        let stats = cluster.stats().unwrap();
        assert_eq!(stats.drained, vec![victim]);
        assert!(stats.crashed.is_empty());
        assert_eq!(stats.epoch, 2);
        assert_eq!(stats.total_entries(), 300, "no entry lost or duplicated");
        assert!(stats.nodes.iter().all(|n| n.id != victim));

        // Every fingerprint still answers with its recorded value.
        let (exists, values) = cluster.lookup_insert_batch_values(&batch).unwrap();
        assert!(exists.iter().all(|e| *e));
        for (i, v) in values.iter().enumerate() {
            assert_eq!(*v, 100 + i as u64);
        }

        // Drained slots are terminal.
        let err = cluster.restart_node(victim).unwrap_err();
        assert!(matches!(err, Error::InvalidArgument(ref m) if m.contains("drained")));
        let err = cluster.drain_node(victim).unwrap_err();
        assert!(matches!(err, Error::InvalidArgument(_)));
        cluster.shutdown().unwrap();
    }

    #[test]
    fn drain_rejects_last_member_and_unknown_nodes() {
        let cluster = ShhcCluster::spawn(ClusterConfig::small_test(1)).unwrap();
        assert!(matches!(
            cluster.drain_node(NodeId::new(0)).unwrap_err(),
            Error::InvalidArgument(ref m) if m.contains("last")
        ));
        assert!(matches!(
            cluster.drain_node(NodeId::new(7)).unwrap_err(),
            Error::InvalidArgument(_)
        ));
        cluster.shutdown().unwrap();
    }

    #[test]
    fn drain_then_add_round_trips_membership() {
        let cluster = ShhcCluster::spawn(ClusterConfig::small_test(3)).unwrap();
        let batch = fps(0..200);
        cluster.lookup_insert_batch(&batch).unwrap();
        cluster.drain_node(NodeId::new(0)).unwrap();
        let (new_id, _) = cluster.add_node().unwrap();
        assert_eq!(new_id, NodeId::new(3), "slots are never reused");
        assert_eq!(cluster.epoch(), 3);
        assert_eq!(cluster.alive_count(), 3);
        let exists = cluster.lookup_insert_batch(&batch).unwrap();
        assert!(exists.iter().all(|e| *e));
        assert_eq!(cluster.stats().unwrap().total_entries(), 200);
        cluster.shutdown().unwrap();
    }

    #[test]
    fn read_repair_converges_replica_values() {
        // Two nodes, replication 2: every fingerprint lives on both, so
        // the repaired replica can be isolated by killing the other.
        let cluster = ShhcCluster::spawn(ClusterConfig::small_test(2).with_replication(2)).unwrap();
        let batch = fps(0..200);
        cluster.lookup_insert_batch(&batch).unwrap();
        let pairs: Vec<(Fingerprint, u64)> = batch
            .iter()
            .enumerate()
            .map(|(i, fp)| (*fp, 7000 + i as u64))
            .collect();
        cluster.record_batch(&pairs).unwrap();

        // Cold-restart node 0, then drive the same traffic through: the
        // restarted node re-inserts with locally-invented values and
        // read repair must overwrite them with the peer's recorded ones.
        cluster.kill_node(NodeId::new(0)).unwrap();
        cluster.restart_cold(NodeId::new(0)).unwrap();
        let exists = cluster.lookup_insert_batch(&batch).unwrap();
        assert!(exists.iter().all(|e| *e), "peer must still answer");

        // Isolate the repaired replica: only node 0 is left answering.
        cluster.kill_node(NodeId::new(1)).unwrap();
        let (exists, values) = cluster.lookup_insert_batch_values(&batch).unwrap();
        assert!(exists.iter().all(|e| *e));
        for (i, v) in values.iter().enumerate() {
            assert_eq!(
                *v,
                7000 + i as u64,
                "cold replica must have been repaired to the recorded value"
            );
        }
        cluster.shutdown().unwrap();
    }

    /// A window scattered under one epoch and gathered under the next:
    /// the join between them does not wait for the gather (the window
    /// held the old view only while it sent; with a 300 ms request
    /// timeout a held view would fail the join), the answers are the
    /// old owners', and the read repair they call for is skipped, not
    /// written to replicas under stale routing.
    #[test]
    fn a_window_gathered_after_a_join_skips_its_read_repair() {
        let mut config = ClusterConfig::small_test(2).with_replication(2);
        config.request_timeout = Duration::from_millis(300);
        let cluster = ShhcCluster::spawn(config).unwrap();
        let batch = fps(0..200);
        cluster.lookup_insert_batch(&batch).unwrap();
        let pairs: Vec<(Fingerprint, u64)> = batch
            .iter()
            .enumerate()
            .map(|(i, fp)| (*fp, 7000 + i as u64))
            .collect();
        cluster.record_batch(&pairs).unwrap();
        // A cold replica: the window's answers call for repairs on it.
        cluster.kill_node(NodeId::new(0)).unwrap();
        cluster.restart_cold(NodeId::new(0)).unwrap();
        let sent = cluster.lookup_scatter(&batch);
        let (_, report) = cluster.add_node().unwrap();
        assert!(report.moved > 0);
        let (exists, values) = cluster.lookup_gather(sent, &batch).unwrap();
        assert!(exists.iter().all(|e| *e), "the warm replica answered");
        let want: Vec<u64> = pairs.iter().map(|p| p.1).collect();
        assert_eq!(values, want);
        cluster.shutdown().unwrap();
    }

    /// Merged values and the queued repairs.
    type Merged = (Vec<u64>, Vec<(NodeId, Vec<(Fingerprint, u64)>)>);

    /// `merge_replies` over one two-replica group of `fps`.
    fn merge_two(fps: &[Fingerprint], replies: Vec<ReplicaReply>) -> Merged {
        let group = RouteGroup {
            replicas: vec![NodeId::new(0), NodeId::new(1)],
            shard: 0,
            positions: (0..fps.len()).collect(),
            fingerprints: Vec::new(),
        };
        let mut exists = vec![false; fps.len()];
        let mut values = vec![0; fps.len()];
        let mut repairs = Vec::new();
        merge_replies(
            &group,
            fps,
            replies,
            None,
            &mut exists,
            &mut values,
            &mut repairs,
        )
        .unwrap();
        assert!(exists.iter().all(|e| *e));
        (values, repairs)
    }

    /// A replica still holding the insert-time `PENDING_VALUE` loses to
    /// a peer's recorded value, whichever comes first in ring order, and
    /// is repaired to it.
    #[test]
    fn merge_replies_prefers_a_recorded_value_over_pending() {
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let f = fps(0..1);
        let (values, repairs) = merge_two(
            &f,
            vec![
                (a, vec![true], vec![PENDING_VALUE]),
                (b, vec![true], vec![7]),
            ],
        );
        assert_eq!(values, vec![7]);
        assert_eq!(repairs, vec![(a, vec![(f[0], 7)])]);
    }

    /// `PENDING_VALUE` against "new": the fingerprint exists, nothing is
    /// recorded anywhere, and no repair is queued — a late repair of the
    /// placeholder could overwrite a record that has just landed.
    #[test]
    fn merge_replies_never_repairs_a_pending_value() {
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let f = fps(0..1);
        let (values, repairs) = merge_two(
            &f,
            vec![
                (a, vec![false], vec![0]),
                (b, vec![true], vec![PENDING_VALUE]),
            ],
        );
        assert_eq!(values, vec![PENDING_VALUE]);
        assert!(repairs.is_empty(), "queued {repairs:?}");
    }

    #[test]
    fn rebalance_refills_a_cold_restarted_replica() {
        let cluster = ShhcCluster::spawn(ClusterConfig::small_test(3).with_replication(2)).unwrap();
        let batch = fps(0..400);
        cluster.lookup_insert_batch(&batch).unwrap();
        let before = cluster.stats().unwrap().total_entries();
        assert_eq!(before, 800, "replication 2 stores every entry twice");

        cluster.kill_node(NodeId::new(0)).unwrap();
        cluster.restart_cold(NodeId::new(0)).unwrap();
        let after_restart = cluster.stats().unwrap();
        let empty = after_restart
            .nodes
            .iter()
            .find(|n| n.id == NodeId::new(0))
            .unwrap();
        assert_eq!(empty.entries, 0, "cold restart starts empty");
        assert!(
            after_restart.recovered.is_empty(),
            "a cold standby is not a recovered node"
        );

        let report = cluster.rebalance().unwrap();
        assert!(report.moved > 0);
        assert_eq!(
            report.from_epoch, report.to_epoch,
            "anti-entropy keeps the epoch"
        );
        let after = cluster.stats().unwrap();
        assert_eq!(after.total_entries(), 800, "replica copies fully refilled");
        // Idempotent: a second pass moves nothing.
        let again = cluster.rebalance().unwrap();
        assert_eq!(again.moved, 0);
        cluster.shutdown().unwrap();
    }

    #[test]
    fn concurrent_clients() {
        let cluster = ShhcCluster::spawn(ClusterConfig::small_test(2)).unwrap();
        let mut handles = Vec::new();
        for c in 0..4u64 {
            let cluster = cluster.clone();
            handles.push(std::thread::spawn(move || {
                let batch = fps(c * 1000..c * 1000 + 100);
                cluster.lookup_insert_batch(&batch).unwrap();
                let again = cluster.lookup_insert_batch(&batch).unwrap();
                assert!(again.iter().all(|e| *e));
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cluster.stats().unwrap().total_entries(), 400);
        cluster.shutdown().unwrap();
    }

    #[test]
    fn zero_nodes_rejected() {
        assert!(ShhcCluster::spawn(ClusterConfig::small_test(0)).is_err());
    }

    /// A one-node cluster whose one shard has a flash device of 16
    /// blocks of four 256-byte pages: a few hundred entries fill it.
    fn tiny_flash_cluster() -> ShhcCluster {
        let mut node_config = NodeConfig::small_test().with_shards(1);
        node_config.flash = FlashConfig {
            geometry: FlashGeometry::new(256, 4, 16),
            buckets: 4,
            write_buffer: 8,
            ..FlashConfig::small_test()
        };
        ShhcCluster::spawn(ClusterConfig::new(1, node_config)).unwrap()
    }

    fn names_node_0(err: &Error) -> bool {
        matches!(err, Error::Io(m) if m.contains(&NodeId::new(0).to_string()))
    }

    /// A data operation that fails on the node (its flash slice is full)
    /// reaches the caller as `Error::Io` naming the node, and so does a
    /// control step (a flush of the buffered entries the full device
    /// cannot take).
    #[test]
    fn a_node_side_failure_reaches_the_caller_naming_the_node() {
        let cluster = tiny_flash_cluster();
        let full = (0..100u64)
            .find_map(|window| {
                cluster
                    .lookup_insert_batch(&fps(window * 64..window * 64 + 64))
                    .err()
            })
            .expect("a 16 KiB device fills within 6 400 entries");
        assert!(names_node_0(&full), "{full}");
        let flush = (0..100u64)
            .find_map(|i| {
                let _ = cluster.lookup_insert_batch(&fps(100_000 + i..100_001 + i));
                cluster.flush_all().err()
            })
            .expect("a full device cannot take the buffered entries");
        assert!(names_node_0(&flush), "{flush}");
        cluster.shutdown().unwrap();
    }

    /// Runs a fixed op sequence against a 4-node cluster and checks every
    /// answer against an explicit model: batch A recorded with values
    /// `5000 + i`, batch B overlapping A's second half, the first 50 of A
    /// removed. A killed node leaves the answers unchanged when every
    /// fingerprint has a surviving replica and makes the batch
    /// `Unavailable` when some fingerprint has none.
    fn assert_matches_model(replication: usize, kill: Option<NodeId>) {
        let cluster =
            ShhcCluster::spawn(ClusterConfig::small_test(4).with_replication(replication)).unwrap();
        let batch_a = fps(0..300);
        let batch_b = fps(150..450); // overlaps A: half dups, half new
        let value = |i: usize| 5000 + i as u64;

        let first = cluster.lookup_insert_batch(&batch_a).unwrap();
        assert!(first.iter().all(|e| !e));
        let pairs: Vec<(Fingerprint, u64)> = batch_a
            .iter()
            .enumerate()
            .map(|(i, fp)| (*fp, value(i)))
            .collect();
        cluster.record_batch(&pairs).unwrap();

        // B's first half is A's recorded second half; its second half is
        // new and answers value 0.
        let (exists, values) = cluster.lookup_insert_batch_values(&batch_b).unwrap();
        let expected_exists: Vec<bool> = (0..300).map(|j| j < 150).collect();
        let expected_values: Vec<u64> = (0..300)
            .map(|j| if j < 150 { value(150 + j) } else { 0 })
            .collect();
        assert_eq!(exists, expected_exists, "lookup-insert existence");
        assert_eq!(values, expected_values, "lookup-insert values");

        cluster.remove_batch(&batch_a[..50]).unwrap();
        let (exists, values) = cluster.query_batch_values(&batch_a).unwrap();
        let expected_exists: Vec<bool> = (0..300).map(|i| i >= 50).collect();
        let expected_values: Vec<u64> = (0..300)
            .map(|i| if i >= 50 { value(i) } else { 0 })
            .collect();
        assert_eq!(exists, expected_exists, "removed keys must read absent");
        assert_eq!(values, expected_values, "query values after removal");

        if let Some(node) = kill {
            cluster.kill_node(node).unwrap();
            let after = cluster.lookup_insert_batch(&batch_a);
            if replication > 1 {
                assert_eq!(
                    after.unwrap(),
                    expected_exists,
                    "a surviving replica must answer unchanged"
                );
            } else {
                assert!(
                    matches!(after, Err(Error::Unavailable(_))),
                    "an unreplicated group on a dead node is unavailable: {after:?}"
                );
            }
        }
        cluster.shutdown().unwrap();
    }

    #[test]
    fn pipelined_matches_model() {
        assert_matches_model(1, None);
    }

    #[test]
    fn pipelined_matches_model_with_replication_and_crash() {
        assert_matches_model(2, Some(NodeId::new(1)));
        assert_matches_model(1, Some(NodeId::new(2)));
    }

    #[test]
    fn slow_replicas_batch_tracks_max_not_sum() {
        // Each fingerprint costs 1 ms of real service time on its node, so
        // a node answering n of the batch sleeps n ms. Spread over 4
        // nodes, the scatter-gather batch must finish in ≈ the largest
        // per-node share, far from the 100 ms sum over nodes.
        let delay = Duration::from_millis(1);
        let batch = fps(0..100);
        let mut node_config = NodeConfig::small_test();
        node_config.service_delay = delay;
        // Single-threaded nodes: a node's share is one serial sleep.
        // (Sharded nodes split it further; tested in sharded_equivalence.)
        node_config.shards = 1;
        let cluster = ShhcCluster::spawn(ClusterConfig::new(4, node_config)).unwrap();
        let start = Instant::now();
        cluster.lookup_insert_batch(&batch).unwrap();
        let elapsed = start.elapsed();
        let stats = cluster.stats().unwrap();
        cluster.shutdown().unwrap();

        let entries: Vec<u64> = stats.nodes.iter().map(|n| n.entries).collect();
        assert_eq!(entries.iter().sum::<u64>(), batch.len() as u64);
        assert!(
            entries.iter().all(|&n| n > 0),
            "batch must span all 4 nodes for the max-vs-sum claim ({entries:?})"
        );
        let sum = delay * batch.len() as u32;
        let max_share = delay * *entries.iter().max().unwrap() as u32;
        assert!(
            elapsed >= max_share,
            "the busiest node must really serve its share ({elapsed:?} < {max_share:?})"
        );
        // Closer to the max than to the sum: the halfway mark between
        // them leaves ample room for scheduling jitter on loaded hosts.
        let halfway = max_share + (sum - max_share) / 2;
        assert!(
            elapsed < halfway,
            "scatter-gather must track max, not sum, of per-node service \
             times (took {elapsed:?}; max share {max_share:?}, sum {sum:?})"
        );
    }
}
