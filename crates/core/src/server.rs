//! The per-node server: wire-format data plane plus a typed control
//! plane, in two execution flavours.
//!
//! - [`node_loop`] — the paper's node: one thread owns a
//!   [`HybridHashNode`] exclusively and serves one frame at a time (kept
//!   as the measured single-core baseline),
//! - [`sharded_node_loop`] — the multi-core node: a dispatcher thread
//!   splits every data frame across `S` prefix-routed shards, each owned
//!   by its own **worker thread**. Sub-frames from different clients
//!   interleave freely across the workers, so a small frame no longer
//!   waits head-of-line behind a deep frame that targets other shards.
//!
//! A sharded lookup-insert runs in two phases. Every involved worker
//! *classifies* its slice (read-only, with coalesced flash reads); the
//! **last worker to finish** merges the slices in frame order — this is
//! where insert values are allocated, so they match what a sequential
//! node would have assigned — encodes the reply, and fans the decided
//! inserts back out as *apply* tasks. The reply is released once every
//! apply lands, preserving the read-your-writes behaviour of the
//! sequential loop for clients that wait for their answer. Between one
//! frame's classify and apply, a concurrent frame for the same shard may
//! classify the same fingerprint as new — both clients are then told
//! "send the data", the standard benign dedup race the backup service
//! already resolves above the cluster (a redundant copy, never
//! corruption).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};
use shhc_cache::{CacheSizer, CacheStats, SizerConfig, SizerDecision};
use shhc_flash::{DeviceStats, FtlStats};
use shhc_index::{AnyIndex, Collection, CollectionHandle};
use shhc_net::{decode, encode_reusing, Frame};
use shhc_node::{
    load_imbalance, merge_classified, Classified, HybridHashNode, NodeConfig, NodeStats, ShardLoad,
    ShardRouter, SubBatch, SubClassified,
};
use shhc_types::{Fingerprint, KeyRange, Nanos, NodeId};

/// A point-in-time view of one node's state, fetched over the control
/// plane. For sharded nodes every counter is the across-shard aggregate.
#[derive(Debug, Clone)]
pub struct NodeSnapshot {
    /// The node's id.
    pub id: NodeId,
    /// Fingerprints stored (live records) — the Figure 6 measurement.
    pub entries: u64,
    /// Lookup-path counters.
    pub stats: NodeStats,
    /// RAM cache counters.
    pub cache: CacheStats,
    /// Flash device counters.
    pub device: DeviceStats,
    /// FTL counters.
    pub ftl: FtlStats,
    /// Intra-node shards executing on this node (1 = the single-threaded
    /// baseline loop).
    pub shards: u32,
    /// Reader-pool threads attached to this node (0 = no pool; queries
    /// are served by the owning server/worker threads).
    pub readers: u32,
    /// Per-shard load shares (empty for single-threaded nodes) — the
    /// hot-shard imbalance signal.
    pub shard_loads: Vec<ShardLoad>,
}

impl NodeSnapshot {
    /// Max/mean ratio of per-shard query loads; 1.0 when balanced or
    /// unsharded. See [`load_imbalance`].
    pub fn load_imbalance(&self) -> f64 {
        load_imbalance(&self.shard_loads)
    }
}

/// Knobs for one node-local self-tuning pass (see
/// [`ShhcCluster::autotune`](crate::ShhcCluster::autotune)).
#[derive(Debug, Clone, Copy)]
pub struct AutotuneOptions {
    /// Re-split the shard key ranges when the per-shard query imbalance
    /// (max/mean) reaches this threshold. Only volatile sharded nodes
    /// re-split; WAL-backed nodes skip it (restart replay rebuilds the
    /// uniform router, which would mis-route the moved entries).
    pub imbalance_threshold: f64,
    /// Whether hot-shard re-splitting is attempted at all.
    pub resplit: bool,
    /// Whether RAM-cache capacity is shifted between shards by marginal
    /// utility (recent misses per cache slot).
    pub autosize_caches: bool,
    /// Sizer knobs for the cache-capacity shift.
    pub sizer: SizerConfig,
}

impl Default for AutotuneOptions {
    fn default() -> Self {
        AutotuneOptions {
            imbalance_threshold: 1.5,
            resplit: true,
            autosize_caches: true,
            sizer: SizerConfig::default(),
        }
    }
}

/// What one autotune pass observed and changed on one node.
#[derive(Debug, Clone)]
pub struct AutotuneReport {
    /// The node.
    pub id: NodeId,
    /// Intra-node shards.
    pub shards: u32,
    /// Per-shard query imbalance (max/mean) *before* any mitigation.
    pub imbalance: f64,
    /// Whether the shard ranges were re-split this pass.
    pub resplit: bool,
    /// Entries re-homed by the re-split.
    pub moved_entries: u64,
    /// Cache capacity shifted between shards, if any.
    pub cache_shift: Option<SizerDecision>,
}

/// Control-plane commands (in-process only; not wire-encoded).
#[derive(Debug)]
pub(crate) enum ControlMsg {
    Stats,
    Flush,
    Scan,
    Autotune(AutotuneOptions),
    Shutdown,
}

/// Control-plane replies.
#[derive(Debug)]
pub(crate) enum ControlReply {
    Stats(Box<NodeSnapshot>),
    Done,
    Scan(Vec<(Fingerprint, u64)>),
    Autotune(Box<AutotuneReport>),
    Failed(String),
}

/// A request delivered to a node server thread.
#[derive(Debug)]
pub(crate) enum NodeRequest {
    /// Wire-encoded data-plane frame plus the reply channel.
    Data { frame: Bytes, reply: Sender<Bytes> },
    /// Typed control-plane command plus the reply channel.
    Control {
        msg: ControlMsg,
        reply: Sender<ControlReply>,
    },
}

pub(crate) fn snapshot_of(node: &HybridHashNode) -> NodeSnapshot {
    NodeSnapshot {
        id: node.id(),
        entries: node.entries(),
        stats: node.stats(),
        cache: node.cache_stats(),
        device: node.device_stats(),
        ftl: node.ftl_stats(),
        shards: 1,
        readers: 0,
        shard_loads: Vec::new(),
    }
}

/// Aggregates per-shard snapshots into one node-level snapshot.
fn merge_snapshots(parts: Vec<NodeSnapshot>) -> NodeSnapshot {
    let shards = parts.len() as u32;
    // Each part is one shard's snapshot; its query share is the
    // hot-shard signal the autotuner and callers read.
    let shard_loads: Vec<ShardLoad> = parts
        .iter()
        .map(|p| ShardLoad {
            queries: p.stats.ops() + p.stats.queries,
            busy: p.stats.busy,
        })
        .collect();
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
        // Per-shard snapshots know nothing of the pool; the dispatcher's
        // Stats job fills this in (and folds the pool counters) after
        // merging.
        readers: 0,
        shard_loads,
    }
}

/// The node server main loop: owns the node exclusively, serving requests
/// until `Shutdown` arrives or every sender is dropped.
pub(crate) fn node_loop(mut node: HybridHashNode, rx: Receiver<NodeRequest>) {
    // One reply-encode scratch buffer for the thread's lifetime: replies
    // reuse its allocation instead of growing a fresh buffer per frame.
    let mut scratch = BytesMut::new();
    // High-water mark of the inbound queue (requests still waiting plus
    // the one just received) — the node-side overload gauge surfaced
    // through `Stats`.
    let mut queue_peak: u64 = 0;
    while let Ok(request) = rx.recv() {
        queue_peak = queue_peak.max(rx.len() as u64 + 1);
        match request {
            NodeRequest::Data { frame, reply } => {
                let response = handle_frame(&mut node, &frame);
                // Group-commit the WAL before acking (no-op for volatile
                // nodes): once the client sees the reply, the frame's
                // mutations survive a crash.
                if let Err(e) = node.wal_commit() {
                    let _ = reply.send(encode_reusing(
                        &Frame::Error {
                            correlation: 0,
                            message: format!("wal commit failed: {e}"),
                        },
                        &mut scratch,
                    ));
                    continue;
                }
                // A dropped reply channel means the client gave up
                // (timeout or crash); nothing for the server to do.
                let _ = reply.send(encode_reusing(&response, &mut scratch));
            }
            NodeRequest::Control { msg, reply } => match msg {
                ControlMsg::Stats => {
                    let mut snap = snapshot_of(&node);
                    snap.stats.queue_peak = queue_peak;
                    let _ = reply.send(ControlReply::Stats(Box::new(snap)));
                }
                ControlMsg::Flush => {
                    let r = match node.flush() {
                        Ok(_) => ControlReply::Done,
                        Err(e) => ControlReply::Failed(e.to_string()),
                    };
                    let _ = reply.send(r);
                }
                ControlMsg::Scan => {
                    let r = match node.scan() {
                        Ok(entries) => ControlReply::Scan(entries),
                        Err(e) => ControlReply::Failed(e.to_string()),
                    };
                    let _ = reply.send(r);
                }
                ControlMsg::Autotune(_) => {
                    // The single-threaded node has one shard and one
                    // cache: nothing to re-split or shift.
                    let _ = reply.send(ControlReply::Autotune(Box::new(AutotuneReport {
                        id: node.id(),
                        shards: 1,
                        imbalance: 1.0,
                        resplit: false,
                        moved_entries: 0,
                        cache_shift: None,
                    })));
                }
                ControlMsg::Shutdown => {
                    // Clean shutdown: flush + close the WAL so restart
                    // replays only segment metadata. A *crashed* node
                    // never gets here — its channel just disconnects and
                    // the store drops unclosed, losing uncommitted state
                    // (and tearing log tails under a FaultPlan).
                    let r = match node.close() {
                        Ok(_) => ControlReply::Done,
                        Err(e) => ControlReply::Failed(e.to_string()),
                    };
                    let _ = reply.send(r);
                    break;
                }
            },
        }
    }
}

/// Number of per-record operations a data-plane frame asks for — the
/// unit the artificial wall-clock service delay is charged in.
fn ops_in(frame: &Frame) -> u32 {
    match frame {
        Frame::LookupInsertReq { fingerprints, .. }
        | Frame::QueryReq { fingerprints, .. }
        | Frame::RemoveReq { fingerprints, .. } => fingerprints.len() as u32,
        // Migration installs pay per-entry device time like any other
        // write, so rebalancing visibly competes with client traffic in
        // wall-clock benches. Range scans are modeled as one sequential
        // sweep (their real CPU cost), not per-entry device ops.
        Frame::RecordReq { pairs, .. } | Frame::MigrateReq { pairs, .. } => pairs.len() as u32,
        _ => 0,
    }
}

/// Decodes, executes and answers one data-plane frame.
fn handle_frame(node: &mut HybridHashNode, frame: &Bytes) -> Frame {
    let decoded = match decode(frame) {
        Ok(f) => f,
        Err(e) => {
            return Frame::Error {
                correlation: 0,
                message: format!("undecodable request: {e}"),
            }
        }
    };
    // Artificial wall-clock service time (zero in production configs):
    // blocks this node's server thread exactly as a slow device would,
    // so wall-clock benches and slow-replica tests see real per-node
    // service times. `batch_overhead` is charged once per data frame —
    // the per-message cost batching amortizes; `service_delay` once per
    // fingerprint in the frame.
    let per_op = node.config().service_delay;
    let per_frame = node.config().batch_overhead;
    if !per_op.is_zero() || !per_frame.is_zero() {
        let ops = ops_in(&decoded);
        if ops > 0 {
            let delay = per_frame + per_op * ops;
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
        }
    }
    let correlation = decoded.correlation();
    match decoded {
        Frame::LookupInsertReq { fingerprints, .. } => {
            match node.lookup_insert_batch(&fingerprints) {
                Ok(batch) => {
                    let values = compact_values(&batch.exists, &batch.values);
                    Frame::LookupResp {
                        correlation,
                        exists: batch.exists,
                        values,
                    }
                }
                Err(e) => Frame::Error {
                    correlation,
                    message: e.to_string(),
                },
            }
        }
        Frame::QueryReq { fingerprints, .. } => match node.query_many(&fingerprints) {
            Ok((exists, values)) => {
                let values = compact_values(&exists, &values);
                Frame::LookupResp {
                    correlation,
                    exists,
                    values,
                }
            }
            Err(e) => Frame::Error {
                correlation,
                message: e.to_string(),
            },
        },
        Frame::RecordReq { pairs, .. } => {
            for (fp, value) in pairs {
                if let Err(e) = node.record(fp, value) {
                    return Frame::Error {
                        correlation,
                        message: e.to_string(),
                    };
                }
            }
            Frame::Ack { correlation }
        }
        Frame::RemoveReq { fingerprints, .. } => {
            for fp in fingerprints {
                if let Err(e) = node.remove(fp) {
                    return Frame::Error {
                        correlation,
                        message: e.to_string(),
                    };
                }
            }
            Frame::Ack { correlation }
        }
        Frame::ScanRangeReq {
            range,
            after,
            limit,
            ..
        } => match node.scan_range(range, after, limit as usize) {
            Ok((pairs, done)) => Frame::ScanRangeResp {
                correlation,
                pairs,
                done,
            },
            Err(e) => Frame::Error {
                correlation,
                message: e.to_string(),
            },
        },
        Frame::MigrateReq { pairs, .. } => {
            for (fp, value) in pairs {
                if let Err(e) = node.install(fp, value) {
                    return Frame::Error {
                        correlation,
                        message: e.to_string(),
                    };
                }
            }
            Frame::Ack { correlation }
        }
        Frame::Ping { .. } => Frame::Pong { correlation },
        other => Frame::Error {
            correlation,
            message: format!("unexpected frame at node: {other:?}"),
        },
    }
}

// ─── Sharded execution ──────────────────────────────────────────────────

/// State shared by a sharded node's dispatcher and workers.
struct NodeShared {
    /// Per-shard task queues — the merge phase fans apply tasks back out
    /// through these.
    workers: Vec<Sender<ShardTask>>,
    /// Node-level insert-value allocator. Values are only drawn at merge
    /// time, in frame order, so sequentially driven traffic receives
    /// exactly the values a single-threaded node would assign.
    next_value: AtomicU64,
    /// The reader pool, present only when the node's backend is
    /// concurrent and [`NodeConfig::readers`] `> 0`.
    pool: Option<PoolShared>,
    /// The live shard router — read per frame by the dispatcher and the
    /// pool readers, swapped by an autotune re-split.
    router: RwLock<ShardRouter>,
    /// In-flight frames (jobs plus queued pool tasks). The autotuner
    /// drains this to zero before moving entries between shards: the
    /// apply phase of a lookup fans out from whichever worker classified
    /// last, so queue-FIFO alone cannot order a re-split after it.
    outstanding: Arc<AtomicUsize>,
    /// Cumulative per-shard loads as of the previous autotune pass.
    /// Each pass tunes on the *delta* since the last one, so the hot-
    /// shard signal tracks the current phase of a shifting workload
    /// instead of averaging over all history.
    tuned_loads: Mutex<Vec<ShardLoad>>,
    /// High-water mark of the dispatcher's inbound queue (requests still
    /// waiting plus the one being dispatched). Written by the dispatcher
    /// loop, folded into merged `Stats` snapshots by the Stats job.
    queue_peak: AtomicU64,
}

/// The dispatcher's handle on the reader pool.
struct PoolShared {
    /// The one MPMC queue every reader thread competes on. Read-only
    /// query frames go here instead of the per-shard worker queues.
    tx: Sender<PoolTask>,
    /// Pool size — surfaced as [`NodeSnapshot::readers`].
    readers: u32,
    /// Counters the readers bump, folded into `Stats` snapshots.
    stats: Arc<PoolStats>,
}

/// Counters shared by every reader thread of one node's pool.
#[derive(Default)]
struct PoolStats {
    /// Fingerprints answered from the mirror indexes.
    queries: AtomicU64,
    /// Virtual busy time charged by the pool, in raw nanoseconds
    /// (mirror answers are RAM-resident: CPU + one RAM probe per
    /// fingerprint, never device time).
    busy_nanos: AtomicU64,
}

/// A unit of work queued to the reader pool: one whole read-only frame.
/// Unlike [`ShardTask`], pool tasks are not split per shard — any one
/// reader answers the full frame, pinning a handle per shard mirror.
enum PoolTask {
    Query {
        correlation: u64,
        fps: Vec<Fingerprint>,
        reply: Sender<Bytes>,
        /// Artificial wall-clock service time for the frame; readers
        /// sleep concurrently with each other and with the writers.
        delay: Duration,
    },
    Shutdown,
}

/// One reader-pool thread: answers `QueryReq` frames from the shards'
/// mirror indexes, competing with its siblings on the shared queue.
/// Readers never touch the single-writer shard state, so a deep read
/// burst cannot head-of-line-block writes — and a slow write frame
/// cannot stall reads. Correctness leans on the write path updating the
/// mirror *before* a mutation's reply is released: a client that has
/// seen its ack will find the record here (read-your-writes), and the
/// mirror tracks live store records exactly, so answers are
/// byte-identical to the worker path's.
fn pool_reader(
    mirrors: Vec<AnyIndex<Fingerprint, u64>>,
    per_op_cost: Nanos,
    stats: Arc<PoolStats>,
    shared: Arc<NodeShared>,
    rx: Receiver<PoolTask>,
) {
    let mut handles: Vec<_> = mirrors.iter().map(Collection::pin).collect();
    let mut scratch = BytesMut::new();
    while let Ok(task) = rx.recv() {
        let PoolTask::Query {
            correlation,
            fps,
            reply,
            delay,
        } = task
        else {
            break;
        };
        sleep_service(delay);
        // Re-read the router per frame: an autotune re-split re-homes
        // entries between shard mirrors, and it only runs with zero
        // frames outstanding — so this read always matches the mirrors.
        let router = shared.router.read().clone();
        let mut exists = Vec::with_capacity(fps.len());
        let mut values = Vec::with_capacity(fps.len());
        for fp in &fps {
            let hit = handles[router.shard_of(fp)].get(fp);
            exists.push(hit.is_some());
            values.push(hit.unwrap_or(0));
        }
        stats.queries.fetch_add(fps.len() as u64, Ordering::Relaxed);
        stats.busy_nanos.fetch_add(
            (per_op_cost * fps.len() as u64).as_nanos(),
            Ordering::Relaxed,
        );
        let values = compact_values(&exists, &values);
        let _ = reply.send(encode_reusing(
            &Frame::LookupResp {
                correlation,
                exists,
                values,
            },
            &mut scratch,
        ));
        shared.outstanding.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A unit of work queued to one shard worker.
enum ShardTask {
    Work {
        job: Arc<FrameJob>,
        slot: usize,
        work: ShardWork,
    },
    /// Synchronous single-shard RPC, bypassing the job machinery — the
    /// autotuner's building block (the dispatcher blocks on the reply
    /// with the node quiesced, so ordering is trivial).
    Direct {
        work: ShardWork,
        reply: Sender<ShardOutcome>,
    },
    /// Stop the worker. `clean` distinguishes an orderly node shutdown
    /// (flush + close the shard's WAL, so restart replays nothing) from
    /// a simulated crash (drop the shard unclosed — uncommitted state is
    /// lost, exactly what recovery must tolerate).
    Shutdown { clean: bool },
}

/// What a worker does with its shard for one sub-frame. `delay` is the
/// artificial wall-clock service time for this slice (so shards of one
/// frame sleep **concurrently** — the multi-core effect the paper's
/// sequential node cannot show).
enum ShardWork {
    Classify {
        fps: Vec<Fingerprint>,
        delay: Duration,
    },
    Apply {
        pairs: Vec<(Fingerprint, u64)>,
    },
    Query {
        fps: Vec<Fingerprint>,
        delay: Duration,
    },
    Record {
        pairs: Vec<(Fingerprint, u64)>,
        delay: Duration,
    },
    Install {
        pairs: Vec<(Fingerprint, u64)>,
        delay: Duration,
    },
    Remove {
        fps: Vec<Fingerprint>,
        delay: Duration,
    },
    ScanRange {
        range: KeyRange,
        after: Option<Fingerprint>,
        limit: usize,
    },
    Scan,
    Flush,
    Stats,
    /// Report `(cache capacity, recent cache misses)` — the autotune
    /// sizer's marginal-utility input.
    CacheProfile,
    /// Retarget the shard's RAM cache capacity (clamped to the policy's
    /// minimum by the node).
    ResizeCache {
        capacity: usize,
    },
}

/// One shard's result for its slice of a frame.
enum ShardOutcome {
    Classified {
        fps: Vec<Fingerprint>,
        classes: Vec<Classified>,
    },
    Answered {
        exists: Vec<bool>,
        values: Vec<u64>,
    },
    Acked,
    Page {
        pairs: Vec<(Fingerprint, u64)>,
    },
    Entries {
        pairs: Vec<(Fingerprint, u64)>,
    },
    Snapshot(Box<NodeSnapshot>),
    Profile {
        capacity: usize,
        recent_misses: f64,
    },
    Done,
    Failed(String),
}

/// Where a finished job's answer goes.
enum ReplyTo {
    Data(Sender<Bytes>),
    Control(Sender<ControlReply>),
}

/// How the per-shard outcomes of a job merge into one answer.
enum JobKind {
    /// Two-phase lookup-insert (classify → merge/allocate → apply).
    Lookup,
    /// Read-only query: index-merge the slices.
    Query,
    /// Record/remove/install: every shard acks.
    Ack,
    /// Cursor-paged range scan: concatenate slot pages in shard order,
    /// over-fetched by one entry to decide `done` exactly.
    ScanRange { limit: usize },
    /// Full scan: concatenate in shard order.
    Scan,
    /// All shards flushed.
    Flush,
    /// Merge per-shard snapshots.
    Stats,
}

/// Phases of a [`JobKind::Lookup`] job.
#[derive(PartialEq, Eq)]
enum Phase {
    Classify,
    Apply,
}

/// One in-flight frame fanned out across shard workers. The **last
/// worker to finish decrements `remaining` to zero and merges** — the
/// dispatcher never blocks on a frame, which is what lets frames from
/// different clients interleave across shards.
struct FrameJob {
    kind: JobKind,
    correlation: u64,
    /// Batch length (lookup/query) for position merging.
    total: usize,
    reply: ReplyTo,
    shared: Arc<NodeShared>,
    /// Set once the job's reply has been released, when the job leaves
    /// the `outstanding` count (exactly-once guard: some finish paths
    /// reach more than one send site).
    released: AtomicBool,
    inner: Mutex<JobInner>,
}

struct JobInner {
    remaining: usize,
    /// Per-slot outcomes, slot order = shard order.
    slots: Vec<Option<ShardOutcome>>,
    /// Per-slot positions in the original batch (lookup/query).
    positions: Vec<Vec<usize>>,
    /// Worker index behind each slot.
    shard_of_slot: Vec<usize>,
    phase: Phase,
    /// Reply bytes prepared at classify-merge, released after apply.
    reply_bytes: Option<Bytes>,
    failure: Option<String>,
}

impl FrameJob {
    /// Records one slot's outcome; the worker that completes the job
    /// merges and replies (and, for lookups, fans out the apply phase).
    fn complete(self: &Arc<Self>, slot: usize, outcome: ShardOutcome, scratch: &mut BytesMut) {
        let mut inner = self.inner.lock();
        if let ShardOutcome::Failed(m) = &outcome {
            if inner.failure.is_none() {
                inner.failure = Some(m.clone());
            }
        }
        inner.slots[slot] = Some(outcome);
        inner.remaining -= 1;
        if inner.remaining > 0 {
            return;
        }
        self.finish(&mut inner, scratch);
    }

    fn finish(self: &Arc<Self>, inner: &mut JobInner, scratch: &mut BytesMut) {
        match &self.kind {
            JobKind::Lookup => self.finish_lookup(inner, scratch),
            JobKind::Query => {
                if let Some(m) = &inner.failure {
                    return self.send_data(&error_frame(self.correlation, m), scratch);
                }
                let mut exists = vec![false; self.total];
                let mut values = vec![0u64; self.total];
                for (slot, outcome) in inner.slots.iter().enumerate() {
                    if let Some(ShardOutcome::Answered {
                        exists: e,
                        values: v,
                    }) = outcome
                    {
                        for ((&pos, e), v) in inner.positions[slot].iter().zip(e).zip(v) {
                            exists[pos] = *e;
                            values[pos] = *v;
                        }
                    }
                }
                let values = compact_values(&exists, &values);
                self.send_data(
                    &Frame::LookupResp {
                        correlation: self.correlation,
                        exists,
                        values,
                    },
                    scratch,
                );
            }
            JobKind::Ack => {
                let frame = match &inner.failure {
                    Some(m) => error_frame(self.correlation, m),
                    None => Frame::Ack {
                        correlation: self.correlation,
                    },
                };
                self.send_data(&frame, scratch);
            }
            JobKind::ScanRange { limit } => {
                if let Some(m) = &inner.failure {
                    return self.send_data(&error_frame(self.correlation, m), scratch);
                }
                // Slot order = shard order = ascending fingerprint order;
                // collecting limit+1 entries decides `done` exactly as
                // the unsharded scan's over-count does.
                let mut pairs: Vec<(Fingerprint, u64)> = Vec::new();
                for outcome in inner.slots.iter().flatten() {
                    if let ShardOutcome::Page { pairs: page } = outcome {
                        for &entry in page {
                            if pairs.len() > *limit {
                                break;
                            }
                            pairs.push(entry);
                        }
                    }
                }
                let done = pairs.len() <= *limit;
                pairs.truncate(*limit);
                self.send_data(
                    &Frame::ScanRangeResp {
                        correlation: self.correlation,
                        pairs,
                        done,
                    },
                    scratch,
                );
            }
            JobKind::Scan => {
                if let Some(m) = &inner.failure {
                    return self.send_control(ControlReply::Failed(m.clone()));
                }
                let mut entries = Vec::new();
                for outcome in inner.slots.iter_mut().flatten() {
                    if let ShardOutcome::Entries { pairs } = outcome {
                        entries.append(pairs);
                    }
                }
                self.send_control(ControlReply::Scan(entries));
            }
            JobKind::Flush => {
                let reply = match &inner.failure {
                    Some(m) => ControlReply::Failed(m.clone()),
                    None => ControlReply::Done,
                };
                self.send_control(reply);
            }
            JobKind::Stats => {
                let parts: Vec<NodeSnapshot> = inner
                    .slots
                    .iter()
                    .flatten()
                    .filter_map(|o| match o {
                        ShardOutcome::Snapshot(snap) => Some((**snap).clone()),
                        _ => None,
                    })
                    .collect();
                let mut snap = merge_snapshots(parts);
                // Fold in the reader pool: queries it absorbed never
                // touched a shard, so the shard counters alone would
                // under-report the node's traffic and busy time.
                if let Some(pool) = &self.shared.pool {
                    let pool_q = pool.stats.queries.load(Ordering::Relaxed);
                    snap.stats.queries += pool_q;
                    snap.stats.pool_queries = pool_q;
                    snap.stats.busy += Nanos::new(pool.stats.busy_nanos.load(Ordering::Relaxed));
                    snap.readers = pool.readers;
                }
                // The shards never saw the inbound queue; the
                // dispatcher's high-water mark is the node's.
                snap.stats.queue_peak = self.shared.queue_peak.load(Ordering::Relaxed);
                self.send_control(ControlReply::Stats(Box::new(snap)));
            }
        }
    }

    fn finish_lookup(self: &Arc<Self>, inner: &mut JobInner, scratch: &mut BytesMut) {
        match inner.phase {
            Phase::Classify => {
                if let Some(m) = &inner.failure {
                    return self.send_data(&error_frame(self.correlation, m), scratch);
                }
                let mut subs: Vec<SubClassified> = Vec::with_capacity(inner.slots.len());
                for (slot, outcome) in inner.slots.iter_mut().enumerate() {
                    let Some(ShardOutcome::Classified { fps, classes }) = outcome.take() else {
                        return self.send_data(
                            &error_frame(self.correlation, "shard lost its classification"),
                            scratch,
                        );
                    };
                    subs.push(SubClassified {
                        positions: std::mem::take(&mut inner.positions[slot]),
                        fingerprints: fps,
                        classes,
                    });
                }
                // The frame-order merge: insert values are allocated
                // here, not in the (arbitrarily scheduled) workers.
                let merged = merge_classified(self.total, &subs, || {
                    self.shared.next_value.fetch_add(1, Ordering::Relaxed)
                });
                let values = compact_values(&merged.exists, &merged.values);
                let reply = Frame::LookupResp {
                    correlation: self.correlation,
                    exists: merged.exists,
                    values,
                };
                let applies: Vec<(usize, Vec<(Fingerprint, u64)>)> = merged
                    .inserts
                    .into_iter()
                    .enumerate()
                    .filter(|(_, pairs)| !pairs.is_empty())
                    .map(|(slot, pairs)| (inner.shard_of_slot[slot], pairs))
                    .collect();
                if applies.is_empty() {
                    return self.send_data(&reply, scratch);
                }
                inner.phase = Phase::Apply;
                inner.remaining = applies.len();
                inner.reply_bytes = Some(encode_reusing(&reply, scratch));
                inner.slots.iter_mut().for_each(|s| *s = None);
                for (slot, (shard, pairs)) in applies.into_iter().enumerate() {
                    // The queue outlives the job (workers only exit on
                    // shutdown), so the send cannot fail while a client
                    // still waits.
                    let _ = self.shared.workers[shard].send(ShardTask::Work {
                        job: Arc::clone(self),
                        slot,
                        work: ShardWork::Apply { pairs },
                    });
                }
            }
            Phase::Apply => {
                if let Some(m) = &inner.failure {
                    return self.send_data(&error_frame(self.correlation, m), scratch);
                }
                if let (ReplyTo::Data(tx), Some(bytes)) = (&self.reply, inner.reply_bytes.take()) {
                    let _ = tx.send(bytes);
                }
                self.release();
            }
        }
    }

    fn send_data(&self, frame: &Frame, scratch: &mut BytesMut) {
        if let ReplyTo::Data(tx) = &self.reply {
            let _ = tx.send(encode_reusing(frame, scratch));
        }
        self.release();
    }

    fn send_control(&self, reply: ControlReply) {
        if let ReplyTo::Control(tx) = &self.reply {
            let _ = tx.send(reply);
        }
        self.release();
    }

    /// Removes this job from the node's in-flight count, exactly once.
    fn release(&self) {
        if !self.released.swap(true, Ordering::AcqRel) {
            self.shared.outstanding.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

fn error_frame(correlation: u64, message: &str) -> Frame {
    Frame::Error {
        correlation,
        message: message.to_string(),
    }
}

/// Compacts a full-length value vector into the wire form: one value per
/// *existing* fingerprint, in order.
fn compact_values(exists: &[bool], values: &[u64]) -> Vec<u64> {
    exists
        .iter()
        .zip(values)
        .filter(|(e, _)| **e)
        .map(|(_, v)| *v)
        .collect()
}

/// One shard worker: owns its [`HybridHashNode`] slice exclusively and
/// executes sub-frames FIFO until shutdown.
fn shard_worker(mut shard: HybridHashNode, rx: Receiver<ShardTask>) {
    let mut scratch = BytesMut::new();
    while let Ok(task) = rx.recv() {
        match task {
            ShardTask::Shutdown { clean } => {
                if clean {
                    // Orderly exit: checkpoint + close the shard's WAL.
                    // On the crash path the shard drops unclosed instead.
                    let _ = shard.close();
                }
                break;
            }
            ShardTask::Work { job, slot, work } => {
                let mut outcome = run_shard_work(&mut shard, work);
                // Group-commit this shard's WAL before the outcome can
                // release the frame's reply: an acked sub-frame is a
                // durable sub-frame. (No-op for volatile shards.)
                if let Err(e) = shard.wal_commit() {
                    outcome = ShardOutcome::Failed(format!("wal commit failed: {e}"));
                }
                job.complete(slot, outcome, &mut scratch);
            }
            ShardTask::Direct { work, reply } => {
                let mut outcome = run_shard_work(&mut shard, work);
                if let Err(e) = shard.wal_commit() {
                    outcome = ShardOutcome::Failed(format!("wal commit failed: {e}"));
                }
                let _ = reply.send(outcome);
            }
        }
    }
}

fn run_shard_work(shard: &mut HybridHashNode, work: ShardWork) -> ShardOutcome {
    match work {
        ShardWork::Classify { fps, delay } => {
            sleep_service(delay);
            match shard.classify_batch(&fps) {
                Ok(classes) => ShardOutcome::Classified { fps, classes },
                Err(e) => ShardOutcome::Failed(e.to_string()),
            }
        }
        ShardWork::Apply { pairs } => match shard.apply_inserts(&pairs) {
            Ok(()) => ShardOutcome::Acked,
            Err(e) => ShardOutcome::Failed(e.to_string()),
        },
        ShardWork::Query { fps, delay } => {
            sleep_service(delay);
            match shard.query_many(&fps) {
                Ok((exists, values)) => ShardOutcome::Answered { exists, values },
                Err(e) => ShardOutcome::Failed(e.to_string()),
            }
        }
        ShardWork::Record { pairs, delay } => {
            sleep_service(delay);
            for (fp, value) in pairs {
                if let Err(e) = shard.record(fp, value) {
                    return ShardOutcome::Failed(e.to_string());
                }
            }
            ShardOutcome::Acked
        }
        ShardWork::Install { pairs, delay } => {
            sleep_service(delay);
            for (fp, value) in pairs {
                if let Err(e) = shard.install(fp, value) {
                    return ShardOutcome::Failed(e.to_string());
                }
            }
            ShardOutcome::Acked
        }
        ShardWork::Remove { fps, delay } => {
            sleep_service(delay);
            for fp in fps {
                if let Err(e) = shard.remove(fp) {
                    return ShardOutcome::Failed(e.to_string());
                }
            }
            ShardOutcome::Acked
        }
        ShardWork::ScanRange {
            range,
            after,
            limit,
        } => match shard.scan_range(range, after, limit) {
            Ok((pairs, _done)) => ShardOutcome::Page { pairs },
            Err(e) => ShardOutcome::Failed(e.to_string()),
        },
        ShardWork::Scan => match shard.scan() {
            Ok(pairs) => ShardOutcome::Entries { pairs },
            Err(e) => ShardOutcome::Failed(e.to_string()),
        },
        ShardWork::Flush => match shard.flush() {
            Ok(_) => ShardOutcome::Done,
            Err(e) => ShardOutcome::Failed(e.to_string()),
        },
        ShardWork::Stats => ShardOutcome::Snapshot(Box::new(snapshot_of(shard))),
        ShardWork::CacheProfile => ShardOutcome::Profile {
            capacity: shard.cache_capacity(),
            recent_misses: shard.recent_cache_misses(),
        },
        ShardWork::ResizeCache { capacity } => {
            shard.resize_cache(capacity);
            ShardOutcome::Done
        }
    }
}

fn sleep_service(delay: Duration) {
    if !delay.is_zero() {
        std::thread::sleep(delay);
    }
}

/// The sharded node server: the dispatcher half. Spawns one worker per
/// shard, splits every data frame across them, and never blocks on a
/// frame — merging and replying happen on whichever worker finishes a
/// frame last.
pub(crate) fn sharded_node_loop(
    config: NodeConfig,
    shards: Vec<HybridHashNode>,
    rx: Receiver<NodeRequest>,
) {
    let router = ShardRouter::new(shards.len() as u32);
    let node_id = shards.first().map(HybridHashNode::id).unwrap_or_default();
    let mut worker_txs = Vec::with_capacity(shards.len());
    let mut worker_rxs = Vec::with_capacity(shards.len());
    for _ in 0..shards.len() {
        let (tx, wrx) = unbounded();
        worker_txs.push(tx);
        worker_rxs.push(wrx);
    }
    // Reader pool: clone every shard's mirror index *before* the shards
    // move into their worker threads. All-or-nothing — a pool that could
    // only answer for some shards would have to bounce the rest back to
    // the workers mid-frame.
    let mirrors: Vec<AnyIndex<Fingerprint, u64>> = shards
        .iter()
        .filter_map(|s| s.mirror_index().cloned())
        .collect();
    let pool_on = config.wants_reader_pool() && mirrors.len() == shards.len();
    let (pool, pool_rx) = if pool_on {
        let (ptx, prx) = unbounded();
        (
            Some(PoolShared {
                tx: ptx,
                readers: config.readers,
                stats: Arc::new(PoolStats::default()),
            }),
            Some(prx),
        )
    } else {
        (None, None)
    };
    // Seed the value allocator past anything the shards recovered from
    // their WALs, so a warm-restarted node never reissues a value the
    // pre-crash node already handed out.
    let next_value = shards
        .iter()
        .map(HybridHashNode::next_value_hint)
        .max()
        .unwrap_or(0);
    let shared = Arc::new(NodeShared {
        workers: worker_txs,
        next_value: AtomicU64::new(next_value),
        pool,
        router: RwLock::new(router),
        outstanding: Arc::new(AtomicUsize::new(0)),
        tuned_loads: Mutex::new(Vec::new()),
        queue_peak: AtomicU64::new(0),
    });
    let handles: Vec<JoinHandle<()>> = shards
        .into_iter()
        .zip(worker_rxs)
        .enumerate()
        .map(|(s, (shard, wrx))| {
            std::thread::Builder::new()
                .name(format!("shhc-{}-s{s}", shard.id()))
                .spawn(move || shard_worker(shard, wrx))
                .expect("spawn shard worker")
        })
        .collect();
    let mut reader_handles: Vec<JoinHandle<()>> = Vec::new();
    if let Some(prx) = pool_rx {
        let pool = shared.pool.as_ref().expect("pool channel implies pool");
        let per_op_cost = config.cpu_per_op + config.ram_probe;
        for r in 0..pool.readers {
            let mirrors = mirrors.clone();
            let stats = Arc::clone(&pool.stats);
            let shared = Arc::clone(&shared);
            let prx = prx.clone();
            reader_handles.push(
                std::thread::Builder::new()
                    .name(format!("shhc-{node_id}-r{r}"))
                    .spawn(move || pool_reader(mirrors, per_op_cost, stats, shared, prx))
                    .expect("spawn pool reader"),
            );
        }
    }
    let mut scratch = BytesMut::new();
    // Clean only via ControlMsg::Shutdown; a channel disconnect (the
    // cluster killing the node) exits dirty, and the shards drop with
    // their WALs unclosed — a crash.
    let mut clean = false;
    while let Ok(request) = rx.recv() {
        // Only the dispatcher writes this; a load-relaxed read-max-store
        // is race-free here and keeps the hot loop cheap.
        let depth = rx.len() as u64 + 1;
        if depth > shared.queue_peak.load(Ordering::Relaxed) {
            shared.queue_peak.store(depth, Ordering::Relaxed);
        }
        match request {
            NodeRequest::Data { frame, reply } => {
                let router = shared.router.read().clone();
                dispatch_data(&config, &router, &shared, &frame, reply, &mut scratch);
            }
            NodeRequest::Control { msg, reply } => match msg {
                ControlMsg::Shutdown => {
                    clean = true;
                    let _ = reply.send(ControlReply::Done);
                    break;
                }
                ControlMsg::Stats => broadcast_control(&shared, JobKind::Stats, reply),
                ControlMsg::Flush => broadcast_control(&shared, JobKind::Flush, reply),
                ControlMsg::Scan => broadcast_control(&shared, JobKind::Scan, reply),
                ControlMsg::Autotune(opts) => {
                    let r = match run_autotune(&config, &shared, node_id, opts) {
                        Ok(report) => ControlReply::Autotune(Box::new(report)),
                        Err(m) => ControlReply::Failed(m),
                    };
                    let _ = reply.send(r);
                }
            },
        }
    }
    if let Some(pool) = &shared.pool {
        for _ in 0..pool.readers {
            let _ = pool.tx.send(PoolTask::Shutdown);
        }
    }
    for tx in &shared.workers {
        let _ = tx.send(ShardTask::Shutdown { clean });
    }
    for handle in handles {
        let _ = handle.join();
    }
    for handle in reader_handles {
        let _ = handle.join();
    }
}

/// Builds a job over `slots.len()` sub-frames and returns it; callers
/// send one task per slot.
#[allow(clippy::too_many_arguments)]
fn new_job(
    kind: JobKind,
    correlation: u64,
    total: usize,
    reply: ReplyTo,
    shared: &Arc<NodeShared>,
    positions: Vec<Vec<usize>>,
    shard_of_slot: Vec<usize>,
) -> Arc<FrameJob> {
    let slots = shard_of_slot.len();
    shared.outstanding.fetch_add(1, Ordering::AcqRel);
    Arc::new(FrameJob {
        kind,
        correlation,
        total,
        reply,
        shared: Arc::clone(shared),
        released: AtomicBool::new(false),
        inner: Mutex::new(JobInner {
            remaining: slots,
            slots: (0..slots).map(|_| None).collect(),
            positions,
            shard_of_slot,
            phase: Phase::Classify,
            reply_bytes: None,
            failure: None,
        }),
    })
}

/// Splits a decoded data frame across the shard workers.
fn dispatch_data(
    config: &NodeConfig,
    router: &ShardRouter,
    shared: &Arc<NodeShared>,
    frame: &Bytes,
    reply: Sender<Bytes>,
    scratch: &mut BytesMut,
) {
    let decoded = match decode(frame) {
        Ok(f) => f,
        Err(e) => {
            let _ = reply.send(encode_reusing(
                &error_frame(0, &format!("undecodable request: {e}")),
                scratch,
            ));
            return;
        }
    };
    let correlation = decoded.correlation();
    let per_op = config.service_delay;
    let per_frame = config.batch_overhead;
    // Per-slice service time: each shard sleeps for *its* share of the
    // frame concurrently; the per-message overhead is charged once, on
    // the first involved shard.
    let delay_for = |k: usize, ops: usize| -> Duration {
        let mut d = per_op * ops as u32;
        if k == 0 {
            d += per_frame;
        }
        d
    };
    match decoded {
        Frame::LookupInsertReq { fingerprints, .. } => {
            let involved = involved_subs(router, &fingerprints);
            if involved.is_empty() {
                let _ = reply.send(encode_reusing(
                    &Frame::LookupResp {
                        correlation,
                        exists: Vec::new(),
                        values: Vec::new(),
                    },
                    scratch,
                ));
                return;
            }
            let (positions, shard_of_slot, fps): (Vec<_>, Vec<_>, Vec<_>) = split_parts(involved);
            let job = new_job(
                JobKind::Lookup,
                correlation,
                fingerprints.len(),
                ReplyTo::Data(reply),
                shared,
                positions,
                shard_of_slot.clone(),
            );
            for (k, (shard, sub_fps)) in shard_of_slot.into_iter().zip(fps).enumerate() {
                let delay = delay_for(k, sub_fps.len());
                let _ = shared.workers[shard].send(ShardTask::Work {
                    job: Arc::clone(&job),
                    slot: k,
                    work: ShardWork::Classify {
                        fps: sub_fps,
                        delay,
                    },
                });
            }
        }
        Frame::QueryReq { fingerprints, .. } => {
            // With a reader pool attached the whole read-only frame goes
            // to the shared pool queue: whichever reader is idle answers
            // it from the mirror indexes, and the shard workers (the
            // write path) never see it. The frame is deliberately not
            // split per shard — a pool reader holds a handle on *every*
            // shard's mirror, so splitting would only add merge cost.
            if let Some(pool) = &shared.pool {
                let delay = delay_for(0, fingerprints.len());
                shared.outstanding.fetch_add(1, Ordering::AcqRel);
                let _ = pool.tx.send(PoolTask::Query {
                    correlation,
                    fps: fingerprints,
                    reply,
                    delay,
                });
                return;
            }
            let involved = involved_subs(router, &fingerprints);
            if involved.is_empty() {
                let _ = reply.send(encode_reusing(
                    &Frame::LookupResp {
                        correlation,
                        exists: Vec::new(),
                        values: Vec::new(),
                    },
                    scratch,
                ));
                return;
            }
            let (positions, shard_of_slot, fps): (Vec<_>, Vec<_>, Vec<_>) = split_parts(involved);
            let job = new_job(
                JobKind::Query,
                correlation,
                fingerprints.len(),
                ReplyTo::Data(reply),
                shared,
                positions,
                shard_of_slot.clone(),
            );
            for (k, (shard, sub_fps)) in shard_of_slot.into_iter().zip(fps).enumerate() {
                let delay = delay_for(k, sub_fps.len());
                let _ = shared.workers[shard].send(ShardTask::Work {
                    job: Arc::clone(&job),
                    slot: k,
                    work: ShardWork::Query {
                        fps: sub_fps,
                        delay,
                    },
                });
            }
        }
        Frame::RecordReq { pairs, .. } => {
            dispatch_pairs(
                router,
                shared,
                correlation,
                reply,
                scratch,
                pairs,
                |pairs, delay| ShardWork::Record { pairs, delay },
                &delay_for,
            );
        }
        Frame::MigrateReq { pairs, .. } => {
            dispatch_pairs(
                router,
                shared,
                correlation,
                reply,
                scratch,
                pairs,
                |pairs, delay| ShardWork::Install { pairs, delay },
                &delay_for,
            );
        }
        Frame::RemoveReq { fingerprints, .. } => {
            let involved = involved_subs(router, &fingerprints);
            if involved.is_empty() {
                let _ = reply.send(encode_reusing(&Frame::Ack { correlation }, scratch));
                return;
            }
            let shard_of_slot: Vec<usize> = involved.iter().map(|(s, _)| *s).collect();
            let job = new_job(
                JobKind::Ack,
                correlation,
                0,
                ReplyTo::Data(reply),
                shared,
                vec![Vec::new(); shard_of_slot.len()],
                shard_of_slot,
            );
            for (k, (shard, sub)) in involved.into_iter().enumerate() {
                let delay = delay_for(k, sub.fingerprints.len());
                let _ = shared.workers[shard].send(ShardTask::Work {
                    job: Arc::clone(&job),
                    slot: k,
                    work: ShardWork::Remove {
                        fps: sub.fingerprints,
                        delay,
                    },
                });
            }
        }
        Frame::ScanRangeReq {
            range,
            after,
            limit,
            ..
        } => {
            // Shards before the cursor's shard hold only smaller
            // fingerprints — skip them.
            let start = after.map(|fp| router.shard_of(&fp)).unwrap_or(0);
            let shard_of_slot: Vec<usize> = (start..router.count()).collect();
            let job = new_job(
                JobKind::ScanRange {
                    limit: limit as usize,
                },
                correlation,
                0,
                ReplyTo::Data(reply),
                shared,
                vec![Vec::new(); shard_of_slot.len()],
                shard_of_slot.clone(),
            );
            for (k, shard) in shard_of_slot.into_iter().enumerate() {
                let _ = shared.workers[shard].send(ShardTask::Work {
                    job: Arc::clone(&job),
                    slot: k,
                    work: ShardWork::ScanRange {
                        range,
                        after,
                        limit: limit as usize + 1,
                    },
                });
            }
        }
        Frame::Ping { .. } => {
            let _ = reply.send(encode_reusing(&Frame::Pong { correlation }, scratch));
        }
        other => {
            let _ = reply.send(encode_reusing(
                &error_frame(correlation, &format!("unexpected frame at node: {other:?}")),
                scratch,
            ));
        }
    }
}

/// Routes `(fingerprint, value)` pairs by shard and fans them out under
/// an ack-merged job.
#[allow(clippy::too_many_arguments)]
fn dispatch_pairs(
    router: &ShardRouter,
    shared: &Arc<NodeShared>,
    correlation: u64,
    reply: Sender<Bytes>,
    scratch: &mut BytesMut,
    pairs: Vec<(Fingerprint, u64)>,
    make_work: impl Fn(Vec<(Fingerprint, u64)>, Duration) -> ShardWork,
    delay_for: &dyn Fn(usize, usize) -> Duration,
) {
    let mut by_shard: Vec<Vec<(Fingerprint, u64)>> = vec![Vec::new(); router.count()];
    for (fp, value) in pairs {
        by_shard[router.shard_of(&fp)].push((fp, value));
    }
    let involved: Vec<(usize, Vec<(Fingerprint, u64)>)> = by_shard
        .into_iter()
        .enumerate()
        .filter(|(_, pairs)| !pairs.is_empty())
        .collect();
    if involved.is_empty() {
        let _ = reply.send(encode_reusing(&Frame::Ack { correlation }, scratch));
        return;
    }
    let shard_of_slot: Vec<usize> = involved.iter().map(|(s, _)| *s).collect();
    let job = new_job(
        JobKind::Ack,
        correlation,
        0,
        ReplyTo::Data(reply),
        shared,
        vec![Vec::new(); shard_of_slot.len()],
        shard_of_slot,
    );
    for (k, (shard, sub_pairs)) in involved.into_iter().enumerate() {
        let delay = delay_for(k, sub_pairs.len());
        let _ = shared.workers[shard].send(ShardTask::Work {
            job: Arc::clone(&job),
            slot: k,
            work: make_work(sub_pairs, delay),
        });
    }
}

/// The non-empty sub-batches of a frame, tagged with their shard index.
fn involved_subs(router: &ShardRouter, fps: &[Fingerprint]) -> Vec<(usize, SubBatch)> {
    router
        .split(fps)
        .into_iter()
        .enumerate()
        .filter(|(_, sub)| !sub.fingerprints.is_empty())
        .collect()
}

/// Decomposes involved sub-batches into the parallel vectors a job needs.
type SplitParts = (Vec<Vec<usize>>, Vec<usize>, Vec<Vec<Fingerprint>>);
fn split_parts(involved: Vec<(usize, SubBatch)>) -> SplitParts {
    let mut positions = Vec::with_capacity(involved.len());
    let mut shards = Vec::with_capacity(involved.len());
    let mut fps = Vec::with_capacity(involved.len());
    for (shard, sub) in involved {
        positions.push(sub.positions);
        shards.push(shard);
        fps.push(sub.fingerprints);
    }
    (positions, shards, fps)
}

/// Fans a control command out to every shard under a merged job.
fn broadcast_control(shared: &Arc<NodeShared>, kind: JobKind, reply: Sender<ControlReply>) {
    let work_of = |kind: &JobKind| match kind {
        JobKind::Stats => ShardWork::Stats,
        JobKind::Flush => ShardWork::Flush,
        JobKind::Scan => ShardWork::Scan,
        _ => unreachable!("only control kinds broadcast"),
    };
    let shard_of_slot: Vec<usize> = (0..shared.workers.len()).collect();
    let job = new_job(
        kind,
        0,
        0,
        ReplyTo::Control(reply),
        shared,
        vec![Vec::new(); shard_of_slot.len()],
        shard_of_slot.clone(),
    );
    for (k, shard) in shard_of_slot.into_iter().enumerate() {
        let work = work_of(&job.kind);
        let _ = shared.workers[shard].send(ShardTask::Work {
            job: Arc::clone(&job),
            slot: k,
            work,
        });
    }
}

/// Synchronously runs one unit of work on one shard and returns its
/// outcome, mapping `Failed` to `Err`.
fn shard_direct(
    shared: &NodeShared,
    shard: usize,
    work: ShardWork,
) -> Result<ShardOutcome, String> {
    let (tx, rx) = unbounded();
    shared.workers[shard]
        .send(ShardTask::Direct { work, reply: tx })
        .map_err(|_| format!("shard {shard} worker is gone"))?;
    match rx.recv() {
        Ok(ShardOutcome::Failed(m)) => Err(m),
        Ok(outcome) => Ok(outcome),
        Err(_) => Err(format!("shard {shard} dropped its reply")),
    }
}

/// One node-local self-tuning pass, run on the dispatcher thread with
/// the node quiesced:
///
/// 1. **drain** — wait for every in-flight frame (including queued pool
///    reads and lookup apply phases) to release its reply, so no worker
///    touches shard state concurrently;
/// 2. **hot-shard re-split** — read per-shard query loads; if the
///    max/mean imbalance reaches the threshold, re-split the shard key
///    ranges along the observed load CDF and re-home the entries whose
///    shard changed (install on the target, then remove from the
///    source), finally swapping the live router. Declined on WAL-backed
///    nodes: restart replay rebuilds the uniform router and would
///    mis-route the moved entries;
/// 3. **cache autosizing** — shift RAM-cache capacity from the shard
///    with the lowest recent misses-per-slot to the one with the
///    highest.
///
/// Every step preserves the node's observable answers: entries only
/// change *which worker owns them*, never their existence or value.
fn run_autotune(
    config: &NodeConfig,
    shared: &NodeShared,
    node_id: NodeId,
    opts: AutotuneOptions,
) -> Result<AutotuneReport, String> {
    while shared.outstanding.load(Ordering::Acquire) > 0 {
        std::thread::sleep(Duration::from_micros(50));
    }
    let shards = shared.workers.len();
    let mut loads = Vec::with_capacity(shards);
    for s in 0..shards {
        match shard_direct(shared, s, ShardWork::Stats)? {
            ShardOutcome::Snapshot(snap) => loads.push(ShardLoad {
                queries: snap.stats.ops() + snap.stats.queries,
                busy: snap.stats.busy,
            }),
            _ => return Err("shard stats returned an unexpected outcome".into()),
        }
    }
    // Tune on the window since the previous pass: against a workload
    // whose hot set moves, cumulative counters would drown the current
    // phase in stale history and re-split one phase behind.
    let window: Vec<ShardLoad> = {
        let mut last = shared.tuned_loads.lock();
        let w = loads
            .iter()
            .enumerate()
            .map(|(s, l)| {
                let prev = last.get(s).copied().unwrap_or_default();
                ShardLoad {
                    queries: l.queries.saturating_sub(prev.queries),
                    busy: Nanos::from(l.busy.as_nanos().saturating_sub(prev.busy.as_nanos())),
                }
            })
            .collect();
        *last = loads;
        w
    };
    let imbalance = load_imbalance(&window);
    let mut report = AutotuneReport {
        id: node_id,
        shards: shards as u32,
        imbalance,
        resplit: false,
        moved_entries: 0,
        cache_shift: None,
    };
    if opts.resplit
        && shards > 1
        && imbalance >= opts.imbalance_threshold
        && !config.durability.is_durable()
    {
        let current = shared.router.read().clone();
        let queries: Vec<u64> = window.iter().map(|l| l.queries).collect();
        // Scan first: the stored keys both weight the re-split (so a hot
        // set clustered inside one slice is cut *between* its keys in a
        // single pass) and supply the entries to re-home.
        let mut scans: Vec<Vec<(Fingerprint, u64)>> = Vec::with_capacity(shards);
        for s in 0..shards {
            let ShardOutcome::Entries { pairs } = shard_direct(shared, s, ShardWork::Scan)? else {
                return Err("shard scan returned an unexpected outcome".into());
            };
            scans.push(pairs);
        }
        let keys_by_shard: Vec<Vec<u64>> = scans
            .iter()
            .map(|pairs| pairs.iter().map(|(fp, _)| fp.route_key()).collect())
            .collect();
        let new_router = current.rebalanced_over_keys(&queries, &keys_by_shard);
        if new_router != current {
            let mut installs: Vec<Vec<(Fingerprint, u64)>> = vec![Vec::new(); shards];
            let mut removes: Vec<Vec<Fingerprint>> = vec![Vec::new(); shards];
            for (s, pairs) in scans.into_iter().enumerate() {
                for (fp, value) in pairs {
                    let t = new_router.shard_of(&fp);
                    if t != s {
                        installs[t].push((fp, value));
                        removes[s].push(fp);
                    }
                }
            }
            let moved: u64 = removes.iter().map(|r| r.len() as u64).sum();
            for (t, pairs) in installs.into_iter().enumerate() {
                if !pairs.is_empty() {
                    shard_direct(
                        shared,
                        t,
                        ShardWork::Install {
                            pairs,
                            delay: Duration::ZERO,
                        },
                    )?;
                }
            }
            for (s, fps) in removes.into_iter().enumerate() {
                if !fps.is_empty() {
                    shard_direct(
                        shared,
                        s,
                        ShardWork::Remove {
                            fps,
                            delay: Duration::ZERO,
                        },
                    )?;
                }
            }
            *shared.router.write() = new_router;
            report.resplit = true;
            report.moved_entries = moved;
        }
    }
    if opts.autosize_caches && shards > 1 {
        let mut profile = Vec::with_capacity(shards);
        for s in 0..shards {
            let ShardOutcome::Profile {
                capacity,
                recent_misses,
            } = shard_direct(shared, s, ShardWork::CacheProfile)?
            else {
                return Err("shard cache profile returned an unexpected outcome".into());
            };
            profile.push((capacity, recent_misses));
        }
        let sizer = CacheSizer::new(opts.sizer);
        if let Some(d) = sizer.plan(&profile) {
            shard_direct(
                shared,
                d.from,
                ShardWork::ResizeCache {
                    capacity: profile[d.from].0 - d.entries,
                },
            )?;
            shard_direct(
                shared,
                d.to,
                ShardWork::ResizeCache {
                    capacity: profile[d.to].0 + d.entries,
                },
            )?;
            report.cache_shift = Some(d);
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;
    use shhc_node::{NodeConfig, ShardedNode};
    use shhc_types::StreamId;

    fn spawn_test_node() -> (Sender<NodeRequest>, std::thread::JoinHandle<()>) {
        let node = HybridHashNode::new(NodeId::new(0), NodeConfig::small_test()).unwrap();
        let (tx, rx) = unbounded();
        let handle = std::thread::spawn(move || node_loop(node, rx));
        (tx, handle)
    }

    fn spawn_test_sharded(shards: u32) -> (Sender<NodeRequest>, std::thread::JoinHandle<()>) {
        let config = NodeConfig::small_test().with_shards(shards);
        let node = ShardedNode::new(NodeId::new(0), config.clone()).unwrap();
        let (tx, rx) = unbounded();
        let handle = std::thread::spawn(move || sharded_node_loop(config, node.into_shards(), rx));
        (tx, handle)
    }

    fn rpc(tx: &Sender<NodeRequest>, frame: Frame) -> Frame {
        let (reply_tx, reply_rx) = unbounded();
        tx.send(NodeRequest::Data {
            frame: shhc_net::encode(&frame),
            reply: reply_tx,
        })
        .unwrap();
        decode(&reply_rx.recv().unwrap()).unwrap()
    }

    #[test]
    fn lookup_insert_round_trip() {
        let (tx, handle) = spawn_test_node();
        let fps: Vec<Fingerprint> = (0..5).map(Fingerprint::from_u64).collect();
        let req = Frame::LookupInsertReq {
            correlation: 1,
            stream: StreamId::new(0),
            fingerprints: fps.clone(),
        };
        match rpc(&tx, req.clone()) {
            Frame::LookupResp {
                correlation,
                exists,
                values,
            } => {
                assert_eq!(correlation, 1);
                assert_eq!(exists, vec![false; 5]);
                assert!(values.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
        match rpc(&tx, req) {
            Frame::LookupResp { exists, values, .. } => {
                assert_eq!(exists, vec![true; 5]);
                assert_eq!(values.len(), 5);
            }
            other => panic!("unexpected {other:?}"),
        }
        drop(tx);
        handle.join().unwrap();
    }

    #[test]
    fn record_then_lookup_returns_value() {
        let (tx, handle) = spawn_test_node();
        let fp = Fingerprint::from_u64(9);
        rpc(
            &tx,
            Frame::LookupInsertReq {
                correlation: 1,
                stream: StreamId::new(0),
                fingerprints: vec![fp],
            },
        );
        let ack = rpc(
            &tx,
            Frame::RecordReq {
                correlation: 2,
                pairs: vec![(fp, 777)],
            },
        );
        assert_eq!(ack, Frame::Ack { correlation: 2 });
        match rpc(
            &tx,
            Frame::QueryReq {
                correlation: 3,
                fingerprints: vec![fp],
            },
        ) {
            Frame::LookupResp { exists, values, .. } => {
                assert_eq!(exists, vec![true]);
                assert_eq!(values, vec![777]);
            }
            other => panic!("unexpected {other:?}"),
        }
        drop(tx);
        handle.join().unwrap();
    }

    #[test]
    fn ping_pong_and_garbage() {
        let (tx, handle) = spawn_test_node();
        assert_eq!(
            rpc(&tx, Frame::Ping { correlation: 42 }),
            Frame::Pong { correlation: 42 }
        );
        // Garbage bytes get an error response, not a dead thread.
        let (reply_tx, reply_rx) = unbounded();
        tx.send(NodeRequest::Data {
            frame: Bytes::from_static(b"\xff\xff\xff"),
            reply: reply_tx,
        })
        .unwrap();
        match decode(&reply_rx.recv().unwrap()).unwrap() {
            Frame::Error { message, .. } => assert!(message.contains("undecodable")),
            other => panic!("unexpected {other:?}"),
        }
        drop(tx);
        handle.join().unwrap();
    }

    #[test]
    fn scan_range_and_migrate_round_trip() {
        let (tx, handle) = spawn_test_node();
        let fps: Vec<Fingerprint> = (0..20)
            .map(|i: u64| Fingerprint::from_u64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect();
        rpc(
            &tx,
            Frame::LookupInsertReq {
                correlation: 1,
                stream: StreamId::new(0),
                fingerprints: fps.clone(),
            },
        );
        // Page through the full key space.
        let mut collected = Vec::new();
        let mut after = None;
        loop {
            match rpc(
                &tx,
                Frame::ScanRangeReq {
                    correlation: 2,
                    range: shhc_types::KeyRange::full(),
                    after,
                    limit: 7,
                },
            ) {
                Frame::ScanRangeResp { pairs, done, .. } => {
                    after = pairs.last().map(|(fp, _)| *fp);
                    collected.extend(pairs);
                    if done {
                        break;
                    }
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(collected.len(), 20);
        // Install the scanned entries on a second node; values survive.
        let (tx2, handle2) = spawn_test_node();
        let ack = rpc(
            &tx2,
            Frame::MigrateReq {
                correlation: 3,
                pairs: collected.clone(),
            },
        );
        assert_eq!(ack, Frame::Ack { correlation: 3 });
        match rpc(
            &tx2,
            Frame::QueryReq {
                correlation: 4,
                fingerprints: fps.clone(),
            },
        ) {
            Frame::LookupResp { exists, .. } => assert!(exists.iter().all(|e| *e)),
            other => panic!("unexpected {other:?}"),
        }
        drop(tx);
        drop(tx2);
        handle.join().unwrap();
        handle2.join().unwrap();
    }

    #[test]
    fn control_plane_stats_and_shutdown() {
        let (tx, handle) = spawn_test_node();
        let fp = Fingerprint::from_u64(3);
        rpc(
            &tx,
            Frame::LookupInsertReq {
                correlation: 1,
                stream: StreamId::new(0),
                fingerprints: vec![fp, fp],
            },
        );
        let (ctl_tx, ctl_rx) = unbounded();
        tx.send(NodeRequest::Control {
            msg: ControlMsg::Stats,
            reply: ctl_tx,
        })
        .unwrap();
        match ctl_rx.recv().unwrap() {
            ControlReply::Stats(snap) => {
                assert_eq!(snap.entries, 1);
                assert_eq!(snap.stats.ram_hits, 1);
                assert_eq!(snap.shards, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        let (ctl_tx, ctl_rx) = unbounded();
        tx.send(NodeRequest::Control {
            msg: ControlMsg::Shutdown,
            reply: ctl_tx,
        })
        .unwrap();
        assert!(matches!(ctl_rx.recv().unwrap(), ControlReply::Done));
        handle.join().unwrap();
    }

    /// The sharded server answers the full frame vocabulary exactly like
    /// the single-threaded loop.
    #[test]
    fn sharded_server_round_trip_matches_baseline() {
        let (base_tx, base_handle) = spawn_test_node();
        let (shard_tx, shard_handle) = spawn_test_sharded(4);
        let fps: Vec<Fingerprint> = (0..40)
            .map(|i: u64| Fingerprint::from_u64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect();
        let mut correlation = 0u64;
        let mut both = |frame_of: &dyn Fn(u64) -> Frame| {
            correlation += 1;
            let a = rpc(&base_tx, frame_of(correlation));
            let b = rpc(&shard_tx, frame_of(correlation));
            assert_eq!(a, b, "replies diverge");
            a
        };
        let lookup = |fps: Vec<Fingerprint>| {
            move |correlation: u64| Frame::LookupInsertReq {
                correlation,
                stream: StreamId::new(0),
                fingerprints: fps.clone(),
            }
        };
        both(&lookup(fps.clone()));
        both(&lookup(fps[..10].to_vec()));
        both(&|correlation| Frame::QueryReq {
            correlation,
            fingerprints: fps.clone(),
        });
        both(&|correlation| Frame::RecordReq {
            correlation,
            pairs: fps.iter().map(|f| (*f, f.route_key() % 97)).collect(),
        });
        both(&|correlation| Frame::RemoveReq {
            correlation,
            fingerprints: fps[..7].to_vec(),
        });
        both(&|correlation| Frame::QueryReq {
            correlation,
            fingerprints: fps.clone(),
        });
        both(&|correlation| Frame::Ping { correlation });
        // Cursor-paged scans agree page by page.
        let mut after = None;
        loop {
            let scan = |correlation: u64| Frame::ScanRangeReq {
                correlation,
                range: shhc_types::KeyRange::full(),
                after,
                limit: 6,
            };
            match both(&scan) {
                Frame::ScanRangeResp { pairs, done, .. } => {
                    after = pairs.last().map(|(fp, _)| *fp);
                    if done {
                        break;
                    }
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        // Control plane: merged stats count the same entries.
        let (ctl_tx, ctl_rx) = unbounded();
        shard_tx
            .send(NodeRequest::Control {
                msg: ControlMsg::Stats,
                reply: ctl_tx,
            })
            .unwrap();
        match ctl_rx.recv().unwrap() {
            ControlReply::Stats(snap) => {
                assert_eq!(snap.entries, 33);
                assert_eq!(snap.shards, 4);
                assert_eq!(snap.stats.inserted, 40);
            }
            other => panic!("unexpected {other:?}"),
        }
        drop(base_tx);
        drop(shard_tx);
        base_handle.join().unwrap();
        shard_handle.join().unwrap();
    }

    fn spawn_test_pooled(
        shards: u32,
        backend: shhc_index::BackendKind,
        readers: u32,
    ) -> (Sender<NodeRequest>, std::thread::JoinHandle<()>) {
        let config = NodeConfig::small_test()
            .with_shards(shards)
            .with_backend(backend)
            .with_readers(readers);
        let node = ShardedNode::new(NodeId::new(0), config.clone()).unwrap();
        let (tx, rx) = unbounded();
        let handle = std::thread::spawn(move || sharded_node_loop(config, node.into_shards(), rx));
        (tx, handle)
    }

    fn node_stats(tx: &Sender<NodeRequest>) -> NodeSnapshot {
        let (ctl_tx, ctl_rx) = unbounded();
        tx.send(NodeRequest::Control {
            msg: ControlMsg::Stats,
            reply: ctl_tx,
        })
        .unwrap();
        match ctl_rx.recv().unwrap() {
            ControlReply::Stats(snap) => *snap,
            other => panic!("unexpected {other:?}"),
        }
    }

    /// A pooled node (readers answering queries from the mirror) replies
    /// byte-identically to the single-threaded baseline across a
    /// mutate-heavy sequence, for every concurrent backend and for both
    /// the single-shard and multi-shard dispatchers.
    #[test]
    fn reader_pool_matches_baseline_replies() {
        use shhc_index::BackendKind;
        for backend in [BackendKind::Striped, BackendKind::Snapshot] {
            for shards in [1u32, 4] {
                let (base_tx, base_handle) = spawn_test_node();
                let (pool_tx, pool_handle) = spawn_test_pooled(shards, backend, 3);
                let fps: Vec<Fingerprint> = (0..40)
                    .map(|i: u64| Fingerprint::from_u64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
                    .collect();
                let mut correlation = 0u64;
                let mut both = |frame_of: &dyn Fn(u64) -> Frame| {
                    correlation += 1;
                    let a = rpc(&base_tx, frame_of(correlation));
                    let b = rpc(&pool_tx, frame_of(correlation));
                    assert_eq!(a, b, "replies diverge ({backend}, {shards} shards)");
                    a
                };
                both(&|correlation| Frame::QueryReq {
                    correlation,
                    fingerprints: fps.clone(),
                });
                both(&|correlation| Frame::LookupInsertReq {
                    correlation,
                    stream: StreamId::new(0),
                    fingerprints: fps.clone(),
                });
                // A repeat after the inserts, now all hits, on every
                // dispatch path (single node, per-shard split, reader pool).
                both(&|correlation| Frame::QueryReq {
                    correlation,
                    fingerprints: fps.clone(),
                });
                both(&|correlation| Frame::RecordReq {
                    correlation,
                    pairs: fps.iter().map(|f| (*f, f.route_key() % 97)).collect(),
                });
                both(&|correlation| Frame::RemoveReq {
                    correlation,
                    fingerprints: fps[..13].to_vec(),
                });
                // Read-your-writes through the pool: the removes above
                // were acked, so the pool must already see them gone.
                both(&|correlation| Frame::QueryReq {
                    correlation,
                    fingerprints: fps.clone(),
                });
                both(&|correlation| Frame::QueryReq {
                    correlation,
                    fingerprints: Vec::new(),
                });
                let snap = node_stats(&pool_tx);
                assert_eq!(snap.shards, shards, "{backend}");
                assert_eq!(snap.readers, 3, "{backend}");
                // 4 query frames × 40 fps (the empty frame adds none),
                // all absorbed by the pool, all counted as queries.
                assert_eq!(snap.stats.pool_queries, 120, "{backend}");
                assert_eq!(snap.stats.queries, 120, "{backend}");
                let base = node_stats(&base_tx);
                assert_eq!(base.readers, 0);
                assert_eq!(base.stats.pool_queries, 0);
                drop(base_tx);
                drop(pool_tx);
                base_handle.join().unwrap();
                pool_handle.join().unwrap();
            }
        }
    }

    /// Dropping the request channel (a kill) stops the dispatcher and
    /// its workers without a shutdown message.
    #[test]
    fn sharded_server_stops_on_disconnect() {
        let (tx, handle) = spawn_test_sharded(3);
        rpc(
            &tx,
            Frame::LookupInsertReq {
                correlation: 1,
                stream: StreamId::new(0),
                fingerprints: vec![Fingerprint::from_u64(1)],
            },
        );
        drop(tx);
        handle.join().unwrap();
    }
}
