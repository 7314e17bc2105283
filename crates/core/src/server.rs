//! The per-node server: wire-format data plane plus a typed control
//! plane, in two execution flavours that share every node operation. A
//! decoded frame becomes one `ShardWork` item (its vectors move in),
//! `run_shard_work` runs it on one [`HybridHashNode`], and the outcome is
//! encoded as the reply.
//!
//! - [`node_loop`] — the paper's node: one thread owns a
//!   [`HybridHashNode`] exclusively and runs each frame's work item
//!   itself. It serves `shards == 1` because a one-shard node behind
//!   [`sharded_node_loop`] pays that loop's per-frame job machinery
//!   (split, shared job, worker hand-off, scatter) and is slower on
//!   paced lookups, even with its shard run inline on the dispatcher
//!   (numbers in `results/baselines/README.md`),
//! - [`sharded_node_loop`] — the multi-core node: a dispatcher thread
//!   splits every data frame's work across `S` prefix-routed shards, each
//!   owned by its own **worker thread**. Sub-frames from different
//!   clients interleave freely across the workers, so a small frame no
//!   longer waits head-of-line behind a deep frame that targets other
//!   shards.
//!
//! Each shard answers its slice of a frame in one pass — a lookup-insert
//! probes and inserts in the same `HybridHashNode::lookup_insert_batch`
//! call — and the **last worker to finish** scatters the slices' answers
//! back to their positions and replies. Every occurrence of a fingerprint
//! routes to the same shard, and a shard runs its queue in order, so a
//! frame queued behind another sees that frame's inserts: each
//! fingerprint is answered "new" once.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use shhc_cache::CacheStats;
use shhc_flash::{DeviceStats, FtlStats};
use shhc_net::{decode, encode_reusing, Frame};
use shhc_node::{HybridHashNode, NodeConfig, NodeStats, ShardRouter};
use shhc_types::{Fingerprint, NodeId};

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
    /// loop, which runs each frame itself, without the sharded
    /// dispatcher's per-frame job machinery).
    pub shards: u32,
}

/// Control-plane commands (in-process only; not wire-encoded).
#[derive(Debug)]
pub(crate) enum ControlMsg {
    Stats,
    Flush,
    Scan,
    Shutdown,
}

/// Control-plane replies.
#[derive(Debug)]
pub(crate) enum ControlReply {
    Stats(Box<NodeSnapshot>),
    Done,
    Scan(Vec<(Fingerprint, u64)>),
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

/// The node server main loop: owns the node exclusively, serving requests
/// until `Shutdown` arrives or every sender is dropped. A data frame runs
/// as one work item over the whole frame.
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
                let response = match frame_work(&frame) {
                    Ok((correlation, work)) => {
                        sleep_service(service_time(node.config(), true, work.records()));
                        reply_frame(correlation, run_shard_work(&mut node, work))
                    }
                    Err(now) => now,
                };
                // A dropped reply channel means the client gave up
                // (timeout or crash); nothing for the server to do.
                let _ = reply.send(encode_reusing(&response, &mut scratch));
            }
            NodeRequest::Control { msg, reply } => {
                let work = match msg {
                    ControlMsg::Stats => ShardWork::Stats { queue_peak },
                    ControlMsg::Flush => ShardWork::Flush,
                    ControlMsg::Scan => ShardWork::Scan,
                    ControlMsg::Shutdown => {
                        // Clean shutdown: flush + close the WAL so restart
                        // replays only segment metadata. A *crashed* node
                        // never gets here — its channel just disconnects
                        // and the store drops unclosed, losing uncommitted
                        // state (and tearing log tails under a FaultPlan).
                        let r = match node.close() {
                            Ok(_) => ControlReply::Done,
                            Err(e) => ControlReply::Failed(e.to_string()),
                        };
                        let _ = reply.send(r);
                        break;
                    }
                };
                let _ = reply.send(control_reply(run_shard_work(&mut node, work)));
            }
        }
    }
}

/// One unit of work on one shard — or on a one-shard node's only
/// [`HybridHashNode`]: a data frame's records (all of them, or the
/// shard's slice), or one control step.
enum ShardWork {
    Lookup(Vec<Fingerprint>),
    Query(Vec<Fingerprint>),
    Remove(Vec<Fingerprint>),
    Record(Vec<(Fingerprint, u64)>),
    /// Migration installs; answered like a query: which entries the
    /// shard already held.
    Install(Vec<(Fingerprint, u64)>),
    Scan,
    Flush,
    /// Snapshot the shard, reporting `queue_peak` as the inbound queue's
    /// high-water mark (a shard never sees the node's inbound queue).
    Stats {
        queue_peak: u64,
    },
}

impl ShardWork {
    /// Records the work covers — the unit the artificial service delay
    /// is charged in (migration installs pay per entry like any other
    /// write, so rebalancing visibly competes with client traffic).
    fn records(&self) -> usize {
        match self {
            ShardWork::Lookup(fps) | ShardWork::Query(fps) | ShardWork::Remove(fps) => fps.len(),
            ShardWork::Record(pairs) | ShardWork::Install(pairs) => pairs.len(),
            _ => 0,
        }
    }

    /// Splits a data frame's work by the shard each record routes to:
    /// `(shard, positions in the frame, work)` for every involved shard,
    /// in shard order. An empty frame goes whole to shard 0, so its reply
    /// still comes from a shard.
    fn split(self, router: ShardRouter) -> Vec<(usize, Vec<usize>, ShardWork)> {
        fn by_shard<T>(
            router: ShardRouter,
            records: Vec<T>,
            fp: impl Fn(&T) -> Fingerprint,
            work: impl Fn(Vec<T>) -> ShardWork,
        ) -> Vec<(usize, Vec<usize>, ShardWork)> {
            if records.is_empty() {
                return vec![(0, Vec::new(), work(records))];
            }
            router
                .split(records, fp)
                .into_iter()
                .enumerate()
                .filter(|(_, sub)| !sub.positions.is_empty())
                .map(|(shard, sub)| (shard, sub.positions, work(sub.records)))
                .collect()
        }
        match self {
            ShardWork::Lookup(fps) => by_shard(router, fps, |f| *f, ShardWork::Lookup),
            ShardWork::Query(fps) => by_shard(router, fps, |f| *f, ShardWork::Query),
            ShardWork::Remove(fps) => by_shard(router, fps, |f| *f, ShardWork::Remove),
            ShardWork::Record(pairs) => by_shard(router, pairs, |p| p.0, ShardWork::Record),
            ShardWork::Install(pairs) => by_shard(router, pairs, |p| p.0, ShardWork::Install),
            control => vec![(0, Vec::new(), control)],
        }
    }
}

/// One shard's (or one-shard node's) result for one unit of work.
enum ShardOutcome {
    /// Existence and value per record, parallel to the work's records.
    Answered {
        exists: Vec<bool>,
        values: Vec<u64>,
    },
    Done,
    Entries(Vec<(Fingerprint, u64)>),
    Snapshot(Box<NodeSnapshot>),
    Failed(String),
}

/// Decodes a data-plane frame into its correlation id and the work it
/// asks for over the whole frame (the decoded vectors move into the
/// work), or into the reply it gets at once: a pong, or an error for an
/// undecodable or unexpected frame.
fn frame_work(frame: &[u8]) -> Result<(u64, ShardWork), Frame> {
    let decoded =
        decode(frame).map_err(|e| error_frame(0, &format!("undecodable request: {e}")))?;
    let correlation = decoded.correlation();
    let work = match decoded {
        Frame::LookupInsertReq { fingerprints, .. } => ShardWork::Lookup(fingerprints),
        Frame::QueryReq { fingerprints, .. } => ShardWork::Query(fingerprints),
        Frame::RemoveReq { fingerprints, .. } => ShardWork::Remove(fingerprints),
        Frame::RecordReq { pairs, .. } => ShardWork::Record(pairs),
        Frame::MigrateReq { pairs, .. } => ShardWork::Install(pairs),
        Frame::Ping { .. } => return Err(Frame::Pong { correlation }),
        other => {
            let message = format!("unexpected frame at node: {other:?}");
            return Err(error_frame(correlation, &message));
        }
    };
    Ok((correlation, work))
}

/// The data-plane reply to a frame whose work ended in `outcome`:
/// answers go out as a `LookupResp` carrying one value per existing
/// fingerprint, finished writes as an `Ack`.
fn reply_frame(correlation: u64, outcome: ShardOutcome) -> Frame {
    match outcome {
        ShardOutcome::Answered { exists, values } => {
            let values = compact_values(&exists, &values);
            Frame::LookupResp {
                correlation,
                exists,
                values,
            }
        }
        ShardOutcome::Done => Frame::Ack { correlation },
        ShardOutcome::Failed(message) => Frame::Error {
            correlation,
            message,
        },
        _ => error_frame(correlation, "data work ended in a control outcome"),
    }
}

/// The control-plane reply to a control step that ended in `outcome`.
fn control_reply(outcome: ShardOutcome) -> ControlReply {
    match outcome {
        ShardOutcome::Snapshot(snap) => ControlReply::Stats(snap),
        ShardOutcome::Entries(entries) => ControlReply::Scan(entries),
        ShardOutcome::Done => ControlReply::Done,
        ShardOutcome::Failed(m) => ControlReply::Failed(m),
        _ => ControlReply::Failed("control step ended in a data outcome".into()),
    }
}

/// Runs one unit of work on `shard` — every node operation, for both
/// node loops — then group-commits the shard's WAL, so the outcome cannot
/// release a reply before the work's mutations survive a crash (no-op
/// for volatile shards).
fn run_shard_work(shard: &mut HybridHashNode, work: ShardWork) -> ShardOutcome {
    let answered = |(exists, values)| ShardOutcome::Answered { exists, values };
    let outcome = match work {
        ShardWork::Lookup(fps) => shard
            .lookup_insert_batch(&fps)
            .map(|batch| answered((batch.exists, batch.values))),
        ShardWork::Query(fps) => shard.query_many(&fps).map(answered),
        ShardWork::Install(pairs) => install_all(shard, &pairs).map(answered),
        ShardWork::Record(pairs) => pairs
            .into_iter()
            .try_for_each(|(fp, value)| shard.record(fp, value).map(drop))
            .map(|()| ShardOutcome::Done),
        ShardWork::Remove(fps) => fps
            .into_iter()
            .try_for_each(|fp| shard.remove(fp))
            .map(|()| ShardOutcome::Done),
        ShardWork::Scan => shard.scan().map(ShardOutcome::Entries),
        ShardWork::Flush => shard.flush().map(|_| ShardOutcome::Done),
        ShardWork::Stats { queue_peak } => {
            let mut snap = snapshot_of(shard);
            snap.stats.queue_peak = queue_peak;
            Ok(ShardOutcome::Snapshot(Box::new(snap)))
        }
    };
    match (outcome, shard.wal_commit()) {
        (Err(e), _) => ShardOutcome::Failed(e.to_string()),
        (Ok(_), Err(e)) => ShardOutcome::Failed(format!("wal commit failed: {e}")),
        (Ok(outcome), Ok(())) => outcome,
    }
}

/// Installs migrated pairs in order ([`HybridHashNode::install`]) and
/// reports, parallel to `pairs`, which entries the node already held and
/// the value it held (zero where it installed the carried value).
fn install_all(
    node: &mut HybridHashNode,
    pairs: &[(Fingerprint, u64)],
) -> shhc_types::Result<(Vec<bool>, Vec<u64>)> {
    let mut exists = Vec::with_capacity(pairs.len());
    let mut values = Vec::with_capacity(pairs.len());
    for &(fp, value) in pairs {
        let held = node.install(fp, value)?;
        exists.push(held.is_some());
        values.push(held.unwrap_or(0));
    }
    Ok((exists, values))
}

/// Artificial wall-clock service time (zero in production configs) for
/// `records` records of a data frame: `service_delay` per record, plus
/// `batch_overhead` — the per-message cost batching amortizes — on the
/// frame's `first` slice. Shards of one frame sleep **concurrently**,
/// the multi-core effect the paper's sequential node cannot show.
fn service_time(config: &NodeConfig, first: bool, records: usize) -> Duration {
    if records == 0 {
        return Duration::ZERO;
    }
    let overhead = if first {
        config.batch_overhead
    } else {
        Duration::ZERO
    };
    config.service_delay * records as u32 + overhead
}

fn sleep_service(delay: Duration) {
    if !delay.is_zero() {
        std::thread::sleep(delay);
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

// ─── Sharded execution ──────────────────────────────────────────────────

/// A unit of work queued to one shard worker.
enum ShardTask {
    /// One slot of a job: sleep `delay` (the slot's share of the
    /// artificial service time), run `work`, hand the outcome to the job.
    Work {
        job: Arc<FrameJob>,
        slot: usize,
        work: ShardWork,
        delay: Duration,
    },
    /// Stop the worker. `clean` distinguishes an orderly node shutdown
    /// (flush + close the shard's WAL, so restart replays nothing) from
    /// a simulated crash (drop the shard unclosed — uncommitted state is
    /// lost, exactly what recovery must tolerate).
    Shutdown { clean: bool },
}

/// Where a finished job's merged outcome goes.
enum ReplyTo {
    Data { correlation: u64, tx: Sender<Bytes> },
    Control(Sender<ControlReply>),
}

/// One in-flight frame (or broadcast control step) fanned out across
/// shard workers. The **last worker to finish merges the slots' outcomes
/// and replies** — the dispatcher never blocks on a frame, which is what
/// lets frames from different clients interleave across shards.
struct FrameJob {
    reply: ReplyTo,
    /// Each slot's positions in the frame (empty for control steps).
    positions: Vec<Vec<usize>>,
    inner: Mutex<JobInner>,
}

struct JobInner {
    /// Slots still running.
    remaining: usize,
    /// Per-slot outcomes, slot order = shard order.
    slots: Vec<Option<ShardOutcome>>,
}

impl FrameJob {
    fn new(reply: ReplyTo, positions: Vec<Vec<usize>>) -> Arc<Self> {
        let slots = positions.len();
        Arc::new(FrameJob {
            reply,
            positions,
            inner: Mutex::new(JobInner {
                remaining: slots,
                slots: (0..slots).map(|_| None).collect(),
            }),
        })
    }

    /// Records one slot's outcome; the worker that completes the job
    /// merges and replies.
    fn complete(&self, slot: usize, outcome: ShardOutcome, scratch: &mut BytesMut) {
        let slots = {
            let mut inner = self.inner.lock();
            inner.slots[slot] = Some(outcome);
            inner.remaining -= 1;
            if inner.remaining > 0 {
                return;
            }
            std::mem::take(&mut inner.slots)
        };
        let outcome = merge_outcomes(slots.into_iter().flatten().collect(), &self.positions);
        match &self.reply {
            ReplyTo::Data { correlation, tx } => {
                let _ = tx.send(encode_reusing(&reply_frame(*correlation, outcome), scratch));
            }
            ReplyTo::Control(tx) => {
                let _ = tx.send(control_reply(outcome));
            }
        }
    }
}

/// Merges a job's slot outcomes into the outcome one shard running the
/// whole job would have given: answers scattered back to their frame
/// positions, scans concatenated in shard (= fingerprint) order,
/// snapshots merged. Every slot ran the same kind of work; one failed
/// slot fails the job.
fn merge_outcomes(mut slots: Vec<ShardOutcome>, positions: &[Vec<usize>]) -> ShardOutcome {
    if let Some(i) = slots
        .iter()
        .position(|o| matches!(o, ShardOutcome::Failed(_)))
    {
        return slots.swap_remove(i);
    }
    match slots.first() {
        Some(ShardOutcome::Answered { .. }) => {
            let total = positions.iter().map(Vec::len).sum();
            let mut exists = vec![false; total];
            let mut values = vec![0u64; total];
            for (outcome, at) in slots.into_iter().zip(positions) {
                if let ShardOutcome::Answered {
                    exists: e,
                    values: v,
                } = outcome
                {
                    for ((&pos, e), v) in at.iter().zip(e).zip(v) {
                        exists[pos] = e;
                        values[pos] = v;
                    }
                }
            }
            ShardOutcome::Answered { exists, values }
        }
        Some(ShardOutcome::Entries(_)) => ShardOutcome::Entries(
            slots
                .into_iter()
                .flat_map(|o| match o {
                    ShardOutcome::Entries(entries) => entries,
                    _ => Vec::new(),
                })
                .collect(),
        ),
        Some(ShardOutcome::Snapshot(_)) => {
            let parts = slots
                .into_iter()
                .filter_map(|o| match o {
                    ShardOutcome::Snapshot(snap) => Some(*snap),
                    _ => None,
                })
                .collect();
            ShardOutcome::Snapshot(Box::new(merge_snapshots(parts)))
        }
        _ => ShardOutcome::Done,
    }
}

/// One shard worker: owns its [`HybridHashNode`] slice exclusively and
/// executes sub-frames FIFO until shutdown.
fn shard_worker(mut shard: HybridHashNode, rx: Receiver<ShardTask>) {
    let mut scratch = BytesMut::new();
    while let Ok(task) = rx.recv() {
        match task {
            ShardTask::Work {
                job,
                slot,
                work,
                delay,
            } => {
                sleep_service(delay);
                job.complete(slot, run_shard_work(&mut shard, work), &mut scratch);
            }
            ShardTask::Shutdown { clean } => {
                if clean {
                    // Orderly exit: checkpoint + close the shard's WAL.
                    // On the crash path the shard drops unclosed instead.
                    let _ = shard.close();
                }
                break;
            }
        }
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
    let (workers, handles): (Vec<Sender<ShardTask>>, Vec<JoinHandle<()>>) = shards
        .into_iter()
        .enumerate()
        .map(|(s, shard)| {
            let (tx, wrx) = unbounded();
            let handle = std::thread::Builder::new()
                .name(format!("shhc-{}-s{s}", shard.id()))
                .spawn(move || shard_worker(shard, wrx))
                .expect("spawn shard worker");
            (tx, handle)
        })
        .unzip();
    let mut scratch = BytesMut::new();
    // High-water mark of the inbound queue (requests still waiting plus
    // the one being dispatched); the shards never see that queue.
    let mut queue_peak: u64 = 0;
    // Clean only via ControlMsg::Shutdown; a channel disconnect (the
    // cluster killing the node) exits dirty, and the shards drop with
    // their WALs unclosed — a crash.
    let mut clean = false;
    while let Ok(request) = rx.recv() {
        queue_peak = queue_peak.max(rx.len() as u64 + 1);
        match request {
            NodeRequest::Data { frame, reply } => match frame_work(&frame) {
                Ok((correlation, work)) => {
                    dispatch_data(&config, router, &workers, correlation, work, reply);
                }
                Err(now) => {
                    let _ = reply.send(encode_reusing(&now, &mut scratch));
                }
            },
            NodeRequest::Control { msg, reply } => match msg {
                ControlMsg::Shutdown => {
                    clean = true;
                    let _ = reply.send(ControlReply::Done);
                    break;
                }
                ControlMsg::Stats => {
                    broadcast_control(&workers, || ShardWork::Stats { queue_peak }, reply);
                }
                ControlMsg::Flush => broadcast_control(&workers, || ShardWork::Flush, reply),
                ControlMsg::Scan => broadcast_control(&workers, || ShardWork::Scan, reply),
            },
        }
    }
    for tx in &workers {
        let _ = tx.send(ShardTask::Shutdown { clean });
    }
    for handle in handles {
        let _ = handle.join();
    }
}

/// Sends every shard a data frame involves its slice of `work`, under one
/// job that replies once every slice is answered.
fn dispatch_data(
    config: &NodeConfig,
    router: ShardRouter,
    workers: &[Sender<ShardTask>],
    correlation: u64,
    work: ShardWork,
    tx: Sender<Bytes>,
) {
    let mut positions = Vec::new();
    let mut tasks = Vec::new();
    for (shard, at, work) in work.split(router) {
        let delay = service_time(config, tasks.is_empty(), at.len());
        tasks.push((shard, work, delay));
        positions.push(at);
    }
    let job = FrameJob::new(ReplyTo::Data { correlation, tx }, positions);
    for (slot, (shard, work, delay)) in tasks.into_iter().enumerate() {
        // The queue outlives the job (workers only exit on shutdown), so
        // the send cannot fail while a client still waits.
        let _ = workers[shard].send(ShardTask::Work {
            job: Arc::clone(&job),
            slot,
            work,
            delay,
        });
    }
}

/// Runs one control step on every shard under one job that replies with
/// the merged outcome.
fn broadcast_control(
    workers: &[Sender<ShardTask>],
    work: impl Fn() -> ShardWork,
    reply: Sender<ControlReply>,
) {
    let job = FrameJob::new(ReplyTo::Control(reply), vec![Vec::new(); workers.len()]);
    for (slot, worker) in workers.iter().enumerate() {
        let _ = worker.send(ShardTask::Work {
            job: Arc::clone(&job),
            slot,
            work: work(),
            delay: Duration::ZERO,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;
    use proptest::prelude::*;
    use shhc_flash::FlashConfig;
    use shhc_node::{shard_slices, NodeConfig};
    use shhc_types::StreamId;

    fn spawn_test_node() -> (Sender<NodeRequest>, std::thread::JoinHandle<()>) {
        let node = HybridHashNode::new(NodeId::new(0), NodeConfig::small_test()).unwrap();
        let (tx, rx) = unbounded();
        let handle = std::thread::spawn(move || node_loop(node, rx));
        (tx, handle)
    }

    fn spawn_test_sharded(shards: u32) -> (Sender<NodeRequest>, std::thread::JoinHandle<()>) {
        let config = NodeConfig::small_test().with_shards(shards);
        let slices = shard_slices(NodeId::new(0), &config).unwrap();
        let (tx, rx) = unbounded();
        let handle = std::thread::spawn(move || sharded_node_loop(config, slices, rx));
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

    fn scan(tx: &Sender<NodeRequest>) -> Vec<(Fingerprint, u64)> {
        let (ctl_tx, ctl_rx) = unbounded();
        tx.send(NodeRequest::Control {
            msg: ControlMsg::Scan,
            reply: ctl_tx,
        })
        .unwrap();
        match ctl_rx.recv().unwrap() {
            ControlReply::Scan(entries) => entries,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn scan_and_migrate_round_trip() {
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
        let scanned = scan(&tx);
        assert_eq!(scanned.len(), 20);
        assert!(
            scanned.windows(2).all(|w| w[0].0 < w[1].0),
            "scan is sorted"
        );
        // Install the scanned entries on a second node, which already
        // holds the first five with its own values: those keep them and
        // the reply says so.
        let (tx2, handle2) = spawn_test_node();
        let held: Vec<(Fingerprint, u64)> = scanned[..5].iter().map(|(f, _)| (*f, 900)).collect();
        rpc(
            &tx2,
            Frame::MigrateReq {
                correlation: 2,
                pairs: held,
            },
        );
        match rpc(
            &tx2,
            Frame::MigrateReq {
                correlation: 3,
                pairs: scanned.clone(),
            },
        ) {
            Frame::LookupResp {
                correlation,
                exists,
                values,
            } => {
                assert_eq!(correlation, 3);
                let want: Vec<bool> = (0..20).map(|i| i < 5).collect();
                assert_eq!(exists, want);
                assert_eq!(values, vec![900; 5]);
            }
            other => panic!("unexpected {other:?}"),
        }
        let mut want = scanned.clone();
        want[..5].iter_mut().for_each(|(_, v)| *v = 900);
        assert_eq!(scan(&tx2), want);
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
        let fps: Vec<Fingerprint> = (0..300)
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
        // Installs answer which entries each node held: the seven
        // removed ones come back, the rest keep their recorded values.
        both(&|correlation| Frame::MigrateReq {
            correlation,
            pairs: fps[..40].iter().map(|f| (*f, 5)).collect(),
        });
        both(&|correlation| Frame::MigrateReq {
            correlation,
            pairs: Vec::new(),
        });
        assert_eq!(scan(&shard_tx), scan(&base_tx), "sorted scans agree");
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
                assert_eq!(snap.entries, 300);
                assert_eq!(snap.shards, 4);
                assert_eq!(snap.stats.inserted, 300);
                assert_eq!(snap.stats.migrated_in, 7);
            }
            other => panic!("unexpected {other:?}"),
        }
        drop(base_tx);
        drop(shard_tx);
        base_handle.join().unwrap();
        shard_handle.join().unwrap();
    }

    /// A fingerprint is answered "new" once, even when the frame that
    /// inserts it is still busy on another shard: frame A holds X plus
    /// 2 000 new fingerprints of one other shard, frame B only X, and B is
    /// queued behind A before either reply is read.
    #[test]
    fn sharded_server_answers_new_once_across_frames() {
        let config = NodeConfig {
            flash: FlashConfig::medium_test(),
            ..NodeConfig::small_test()
        }
        .with_shards(4);
        let router = ShardRouter::new(4);
        let spread =
            |i: u64| Fingerprint::from_u64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31));
        let send = |tx: &Sender<NodeRequest>, correlation: u64, fingerprints: Vec<Fingerprint>| {
            let (reply, rx) = unbounded();
            let frame = shhc_net::encode(&Frame::LookupInsertReq {
                correlation,
                stream: StreamId::new(0),
                fingerprints,
            });
            tx.send(NodeRequest::Data { frame, reply }).unwrap();
            rx
        };
        for run in 0..30u64 {
            let x = spread(run);
            let busy = (router.shard_of(&x) + 1) % 4;
            let mut a = vec![x];
            a.extend(
                (1_000..)
                    .map(spread)
                    .filter(|f| router.shard_of(f) == busy)
                    .take(2_000),
            );
            let slices = shard_slices(NodeId::new(0), &config).unwrap();
            let (tx, rx) = unbounded();
            let node_config = config.clone();
            let handle = std::thread::spawn(move || sharded_node_loop(node_config, slices, rx));
            let (reply_a, reply_b) = (send(&tx, 1, a), send(&tx, 2, vec![x]));
            let existed = |rx: Receiver<Bytes>| match decode(&rx.recv().unwrap()).unwrap() {
                Frame::LookupResp { exists, .. } => exists[0],
                other => panic!("unexpected {other:?}"),
            };
            let (in_a, in_b) = (existed(reply_a), existed(reply_b));
            assert_eq!(
                (in_a, in_b),
                (false, true),
                "run {run}: X must be new in frame A and a duplicate in frame B"
            );
            drop(tx);
            handle.join().unwrap();
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The sharded server (any S) answers a random stream of
        /// lookup/record/install/remove frames exactly like one
        /// `HybridHashNode`: same existence bits, same values (recorded
        /// ones, or `PENDING_VALUE`), same final scan. Lookup
        /// and install frames carry up to 8 fingerprints from a 120-key
        /// population, so they span shards and repeat fingerprints within
        /// a frame.
        #[test]
        fn prop_sharded_server_matches_reference(
            shards in 1u32..=8,
            keys in proptest::collection::vec(0u64..120, 1..150),
        ) {
            let fp = |k: u64| {
                Fingerprint::from_u64(k.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31))
            };
            let mut reference =
                HybridHashNode::new(NodeId::new(0), NodeConfig::small_test()).unwrap();
            let (tx, handle) = spawn_test_sharded(shards);
            for (i, &k) in keys.iter().enumerate() {
                let correlation = i as u64;
                let f = fp(k);
                let ack = Frame::Ack { correlation };
                let (frame, want) = match k % 7 {
                    0 => {
                        reference.remove(f).unwrap();
                        let fingerprints = vec![f];
                        (Frame::RemoveReq { correlation, fingerprints }, ack)
                    }
                    1 => {
                        reference.record(f, k * 10).unwrap();
                        (Frame::RecordReq { correlation, pairs: vec![(f, k * 10)] }, ack)
                    }
                    2 => {
                        let pairs: Vec<(Fingerprint, u64)> =
                            keys[i..keys.len().min(i + 8)].iter().map(|&k| (fp(k), k)).collect();
                        let mut exists = Vec::new();
                        let mut values = Vec::new();
                        for &(f, k) in &pairs {
                            let held = reference.install(f, k).unwrap();
                            exists.push(held.is_some());
                            values.extend(held);
                        }
                        (
                            Frame::MigrateReq { correlation, pairs },
                            Frame::LookupResp { correlation, exists, values },
                        )
                    }
                    _ => {
                        let fingerprints: Vec<Fingerprint> =
                            keys[i..keys.len().min(i + 8)].iter().map(|&k| fp(k)).collect();
                        let batch = reference.lookup_insert_batch(&fingerprints).unwrap();
                        let values = compact_values(&batch.exists, &batch.values);
                        let stream = StreamId::new(0);
                        (
                            Frame::LookupInsertReq { correlation, stream, fingerprints },
                            Frame::LookupResp { correlation, exists: batch.exists, values },
                        )
                    }
                };
                prop_assert_eq!(rpc(&tx, frame), want, "op {i}");
            }
            let (ctl_tx, ctl_rx) = unbounded();
            let scan = NodeRequest::Control { msg: ControlMsg::Scan, reply: ctl_tx };
            tx.send(scan).unwrap();
            match ctl_rx.recv().unwrap() {
                ControlReply::Scan(entries) => {
                    prop_assert_eq!(entries, reference.scan().unwrap());
                }
                other => panic!("unexpected {other:?}"),
            }
            drop(tx);
            handle.join().unwrap();
        }
    }
}
