//! The per-node server: one typed request enum for the data plane and
//! the control plane, served by [`node_loop`] — one thread that owns one
//! [`HybridHashNode`] exclusively and answers its queue in order, the
//! paper's sequential hash node.
//!
//! A request travels as a Rust value on a `std::sync::mpsc` queue with
//! its own reply channel, so nothing is encoded on the in-process path
//! and no reply needs a correlation id: the channel it arrives on names
//! the request it answers. The wire codec in `shhc-net` is for a
//! transport between processes.
//!
//! A node with `S` intra-node shards is `S` such threads, one per shard
//! slice ([`shhc_node::shard_slices`]), each behind its own queue. There
//! is no dispatcher: the cluster routes every fingerprint to its shard
//! ([`shhc_node::ShardRouter`]) and sends each shard its part of a window
//! as one request, so a small request never waits behind a deep one that
//! targets other shards. Every occurrence of a fingerprint reaches the
//! same single-consumer queue in send order, and a shard answers its
//! request in one `HybridHashNode::lookup_insert_batch` pass, so each
//! fingerprint is answered "new" once.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use shhc_cache::CacheStats;
use shhc_flash::{DeviceStats, FtlStats};
use shhc_node::{HybridHashNode, NodeConfig, NodeStats};
use shhc_types::{Error, Fingerprint, NodeId, Result};

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
    /// Intra-node shards executing on this node, one [`node_loop`]
    /// thread each.
    pub shards: u32,
}

/// One request to a node (shard) thread. The first five are the data
/// plane and carry their records; the rest are the control plane.
#[derive(Debug, Clone)]
pub(crate) enum Request {
    /// The paper's lookup-with-insert, answered by [`Reply::Answer`].
    LookupInsert(Vec<Fingerprint>),
    /// Read-only lookup, answered by [`Reply::Answer`].
    Query(Vec<Fingerprint>),
    /// Sets the value stored with each fingerprint.
    Record(Vec<(Fingerprint, u64)>),
    /// Removes each fingerprint.
    Remove(Vec<Fingerprint>),
    /// Installs migrated entries ([`HybridHashNode::install`]), answered
    /// by [`Reply::Answer`]: which entries the node already held, with
    /// the value it held.
    Migrate(Vec<(Fingerprint, u64)>),
    /// A snapshot of the node's counters.
    Stats,
    /// Flushes the SSD write buffer.
    Flush,
    /// Every stored entry, in fingerprint order.
    Scan,
    /// Closes the store and stops the thread.
    Shutdown,
}

impl Request {
    /// Records a data-plane request carries: what its service time
    /// scales with.
    fn records(&self) -> usize {
        match self {
            Request::LookupInsert(fps) | Request::Query(fps) | Request::Remove(fps) => fps.len(),
            Request::Record(pairs) | Request::Migrate(pairs) => pairs.len(),
            Request::Stats | Request::Flush | Request::Scan | Request::Shutdown => 0,
        }
    }
}

/// A node's answer to one [`Request`].
#[derive(Debug)]
pub(crate) enum Reply {
    /// Per record: whether the node held it, and the value it held (zero
    /// where it did not).
    Answer(Vec<bool>, Vec<u64>),
    /// A write or control step finished.
    Done,
    /// The node's counters.
    Stats(Box<NodeSnapshot>),
    /// The node's entries, in fingerprint order.
    Scan(Vec<(Fingerprint, u64)>),
}

/// The channel a reply comes back on.
pub(crate) type ReplyRx = Receiver<Result<Reply>>;

/// The sending end of one shard thread's queue. Its depth counter stands
/// in for the queue length the `queue_peak` gauge reads: a send counts a
/// request in, the thread counts it out when it takes it.
pub(crate) struct ShardQueue {
    tx: Sender<(Request, Sender<Result<Reply>>)>,
    depth: Arc<AtomicU64>,
}

impl ShardQueue {
    /// Starts a [`node_loop`] thread named `name` that owns `shard`,
    /// behind a fresh queue.
    pub(crate) fn spawn(
        name: String,
        shard: HybridHashNode,
    ) -> std::io::Result<(ShardQueue, JoinHandle<()>)> {
        let (tx, rx) = channel();
        let depth = Arc::new(AtomicU64::new(0));
        let counted = Arc::clone(&depth);
        let handle = std::thread::Builder::new()
            .name(name)
            .spawn(move || node_loop(shard, rx, &counted))?;
        Ok((ShardQueue { tx, depth }, handle))
    }

    /// Queues `request` with a fresh reply channel and returns that
    /// channel, or `None` when the thread has stopped.
    pub(crate) fn send(&self, request: Request) -> Option<ReplyRx> {
        let (reply, reply_rx) = channel();
        self.depth.fetch_add(1, Ordering::Relaxed);
        self.tx.send((request, reply)).ok()?;
        Some(reply_rx)
    }
}

fn snapshot_of(node: &HybridHashNode) -> NodeSnapshot {
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

/// The node server main loop: owns the node (or one shard of it)
/// exclusively, serving requests in arrival order until `Shutdown`
/// arrives or every sender is dropped.
fn node_loop(
    mut node: HybridHashNode,
    rx: Receiver<(Request, Sender<Result<Reply>>)>,
    depth: &AtomicU64,
) {
    // High-water mark of the inbound queue (requests still waiting plus
    // the one just taken) — the node-side overload gauge surfaced
    // through `Stats`.
    let mut queue_peak: u64 = 0;
    while let Ok((request, reply)) = rx.recv() {
        queue_peak = queue_peak.max(depth.fetch_sub(1, Ordering::Relaxed));
        let stop = matches!(request, Request::Shutdown);
        // A dropped reply channel means the client gave up (timeout or
        // crash); nothing for the server to do.
        let _ = reply.send(serve(&mut node, request, queue_peak));
        if stop {
            break;
        }
    }
}

/// Answers one request. A failed operation comes back as [`Error::Io`]
/// naming the node. `Shutdown` flushes and closes the WAL, so a restart
/// replays only segment metadata; a *crashed* node never gets here — its
/// queue just disconnects and the store drops unclosed, losing
/// uncommitted state (and tearing log tails under a `FaultPlan`).
fn serve(node: &mut HybridHashNode, request: Request, queue_peak: u64) -> Result<Reply> {
    sleep_service(service_time(node.config(), request.records()));
    let outcome = match request {
        Request::LookupInsert(fps) => node.lookup_insert_batch(&fps).map(|batch| {
            // A new fingerprint holds `PENDING_VALUE`; the answer says 0.
            let values = batch
                .exists
                .iter()
                .zip(batch.values)
                .map(|(&held, value)| if held { value } else { 0 })
                .collect();
            Reply::Answer(batch.exists, values)
        }),
        Request::Query(fps) => node
            .query_many(&fps)
            .map(|(exists, values)| Reply::Answer(exists, values)),
        Request::Migrate(pairs) => install_all(node, &pairs),
        Request::Record(pairs) => pairs
            .into_iter()
            .try_for_each(|(fp, value)| node.record(fp, value).map(drop))
            .map(|()| Reply::Done),
        Request::Remove(fps) => fps
            .into_iter()
            .try_for_each(|fp| node.remove(fp))
            .map(|()| Reply::Done),
        Request::Stats => {
            let mut snap = snapshot_of(node);
            snap.stats.queue_peak = queue_peak;
            Ok(Reply::Stats(Box::new(snap)))
        }
        Request::Flush => node.flush().map(|_| Reply::Done),
        Request::Scan => node.scan().map(Reply::Scan),
        Request::Shutdown => {
            let id = node.id();
            return node
                .close()
                .map(|_| Reply::Done)
                .map_err(|e| Error::Io(format!("{id} failed: {e}")));
        }
    };
    committed(node, outcome)
}

/// Group-commits the node's WAL behind `outcome`, so no reply leaves
/// before the work's mutations survive a crash (no-op for volatile
/// nodes). Either failure becomes an [`Error::Io`] naming the node.
fn committed(node: &mut HybridHashNode, outcome: Result<Reply>) -> Result<Reply> {
    let id = node.id();
    match (outcome, node.wal_commit()) {
        (Err(e), _) => Err(Error::Io(format!("{id} failed: {e}"))),
        (Ok(_), Err(e)) => Err(Error::Io(format!("{id} failed: wal commit failed: {e}"))),
        (Ok(reply), Ok(())) => Ok(reply),
    }
}

/// Installs migrated pairs in order ([`HybridHashNode::install`]) and
/// reports, parallel to `pairs`, which entries the node already held and
/// the value it held (zero where it installed the carried value).
fn install_all(node: &mut HybridHashNode, pairs: &[(Fingerprint, u64)]) -> Result<Reply> {
    let mut exists = Vec::with_capacity(pairs.len());
    let mut values = Vec::with_capacity(pairs.len());
    for &(fp, value) in pairs {
        let held = node.install(fp, value)?;
        exists.push(held.is_some());
        values.push(held.unwrap_or(0));
    }
    Ok(Reply::Answer(exists, values))
}

/// Artificial wall-clock service time (zero in production configs) for
/// a request of `records` records: `service_delay` per record plus
/// `batch_overhead`, the cost batching amortizes, charged per data
/// request a node thread receives. The shards of one node sleep
/// **concurrently**, the multi-core effect the paper's sequential node
/// cannot show.
fn service_time(config: &NodeConfig, records: usize) -> Duration {
    if records == 0 {
        return Duration::ZERO;
    }
    config.service_delay * records as u32 + config.batch_overhead
}

fn sleep_service(delay: Duration) {
    if !delay.is_zero() {
        std::thread::sleep(delay);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    use crate::cluster::{ClusterConfig, ShhcCluster};
    use proptest::prelude::*;
    use shhc_flash::FlashConfig;
    use shhc_node::{Durability, NodeConfig, ShardRouter};

    fn spawn_test_node() -> (ShardQueue, JoinHandle<()>) {
        let node = HybridHashNode::new(NodeId::new(0), NodeConfig::small_test()).unwrap();
        ShardQueue::spawn("shhc-test-node".into(), node).unwrap()
    }

    fn rpc(queue: &ShardQueue, request: Request) -> Reply {
        queue.send(request).unwrap().recv().unwrap().unwrap()
    }

    fn answer(reply: Reply) -> (Vec<bool>, Vec<u64>) {
        match reply {
            Reply::Answer(exists, values) => (exists, values),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lookup_insert_round_trip() {
        let (queue, handle) = spawn_test_node();
        let fps: Vec<Fingerprint> = (0..5).map(Fingerprint::from_u64).collect();
        let first = answer(rpc(&queue, Request::LookupInsert(fps.clone())));
        assert_eq!(first, (vec![false; 5], vec![0; 5]), "new ones answer 0");
        let (exists, values) = answer(rpc(&queue, Request::LookupInsert(fps)));
        assert_eq!(exists, vec![true; 5]);
        assert_eq!(values, vec![shhc_types::PENDING_VALUE; 5]);
        drop(queue);
        handle.join().unwrap();
    }

    #[test]
    fn record_then_lookup_returns_value() {
        let (queue, handle) = spawn_test_node();
        let fp = Fingerprint::from_u64(9);
        rpc(&queue, Request::LookupInsert(vec![fp]));
        assert!(matches!(
            rpc(&queue, Request::Record(vec![(fp, 777)])),
            Reply::Done
        ));
        let (exists, values) = answer(rpc(&queue, Request::Query(vec![fp])));
        assert_eq!(exists, vec![true]);
        assert_eq!(values, vec![777]);
        drop(queue);
        handle.join().unwrap();
    }

    fn scan(queue: &ShardQueue) -> Vec<(Fingerprint, u64)> {
        match rpc(queue, Request::Scan) {
            Reply::Scan(entries) => entries,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn scan_and_migrate_round_trip() {
        let (queue, handle) = spawn_test_node();
        let fps: Vec<Fingerprint> = (0..20)
            .map(|i: u64| Fingerprint::from_u64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect();
        rpc(&queue, Request::LookupInsert(fps));
        let scanned = scan(&queue);
        assert_eq!(scanned.len(), 20);
        assert!(
            scanned.windows(2).all(|w| w[0].0 < w[1].0),
            "scan is sorted"
        );
        // Install the scanned entries on a second node, which already
        // holds the first five with its own values: those keep them and
        // the reply says so.
        let (queue2, handle2) = spawn_test_node();
        let held: Vec<(Fingerprint, u64)> = scanned[..5].iter().map(|(f, _)| (*f, 900)).collect();
        rpc(&queue2, Request::Migrate(held));
        let (exists, values) = answer(rpc(&queue2, Request::Migrate(scanned.clone())));
        let want: Vec<bool> = (0..20).map(|i| i < 5).collect();
        assert_eq!(exists, want);
        let want: Vec<u64> = (0..20).map(|i| if i < 5 { 900 } else { 0 }).collect();
        assert_eq!(values, want);
        let mut want = scanned.clone();
        want[..5].iter_mut().for_each(|(_, v)| *v = 900);
        assert_eq!(scan(&queue2), want);
        drop(queue);
        drop(queue2);
        handle.join().unwrap();
        handle2.join().unwrap();
    }

    #[test]
    fn control_plane_stats_and_shutdown() {
        let (queue, handle) = spawn_test_node();
        let fp = Fingerprint::from_u64(3);
        rpc(&queue, Request::LookupInsert(vec![fp, fp]));
        match rpc(&queue, Request::Stats) {
            Reply::Stats(snap) => {
                assert_eq!(snap.entries, 1);
                assert_eq!(snap.stats.ram_hits, 1);
                assert_eq!(snap.shards, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(rpc(&queue, Request::Shutdown), Reply::Done));
        handle.join().unwrap();
        assert!(queue.send(Request::Stats).is_none(), "the thread stopped");
    }

    /// `queue_peak` is the deepest the queue got: `N` requests queued
    /// before the node thread takes its first read `N`, not the one
    /// request in hand.
    #[test]
    fn queue_peak_reads_the_real_queue_depth() {
        const N: u64 = 8;
        let (tx, rx) = channel();
        let depth = Arc::new(AtomicU64::new(0));
        let queue = ShardQueue {
            tx,
            depth: Arc::clone(&depth),
        };
        let queued: Vec<ReplyRx> = (0..N)
            .map(|_| queue.send(Request::Stats).unwrap())
            .collect();
        let node = HybridHashNode::new(NodeId::new(0), NodeConfig::small_test()).unwrap();
        let handle = std::thread::spawn(move || node_loop(node, rx, &depth));
        for reply in queued {
            reply.recv().unwrap().unwrap();
        }
        match rpc(&queue, Request::Stats) {
            Reply::Stats(snap) => assert_eq!(snap.stats.queue_peak, N),
            other => panic!("unexpected {other:?}"),
        }
        drop(queue);
        handle.join().unwrap();
    }

    // ─── Sharded nodes: one `node_loop` per shard, routed by the cluster ──

    const NODE: NodeId = NodeId::new(0);

    /// Fingerprints spread over the routing-key space.
    fn spread(i: u64) -> Fingerprint {
        Fingerprint::from_u64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31))
    }

    /// A one-node cluster whose node runs `config.shards` shards.
    fn one_node(config: NodeConfig) -> ShhcCluster {
        ShhcCluster::spawn(ClusterConfig::new(1, config)).unwrap()
    }

    fn scan_node(cluster: &ShhcCluster) -> Vec<(Fingerprint, u64)> {
        match cluster.control(NODE, Request::Scan).unwrap() {
            Reply::Scan(entries) => entries,
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Migration installs, split by shard like every per-node send.
    fn install(cluster: &ShhcCluster, pairs: &[(Fingerprint, u64)]) -> (Vec<bool>, Vec<u64>) {
        cluster
            .node_exchange(NODE, pairs, |p| p.0, Request::Migrate)
            .unwrap()
    }

    /// Runs `op` on both clusters and asserts the answers agree.
    fn both<T: PartialEq + std::fmt::Debug>(
        clusters: &[ShhcCluster; 2],
        op: impl Fn(&ShhcCluster) -> T,
    ) -> T {
        let answer = op(&clusters[0]);
        assert_eq!(answer, op(&clusters[1]), "answers diverge");
        answer
    }

    /// A node whose four shards run as four `node_loop` threads answers
    /// every operation exactly like a one-shard node.
    #[test]
    fn sharded_server_round_trip_matches_baseline() {
        let clusters = [
            one_node(NodeConfig::small_test().with_shards(1)),
            one_node(NodeConfig::small_test().with_shards(4)),
        ];
        let fps: Vec<Fingerprint> = (0..300)
            .map(|i: u64| Fingerprint::from_u64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect();
        let pairs: Vec<(Fingerprint, u64)> = fps.iter().map(|f| (*f, f.route_key() % 97)).collect();
        both(&clusters, |c| c.lookup_insert_batch_values(&fps).unwrap());
        both(&clusters, |c| {
            c.lookup_insert_batch_values(&fps[..10]).unwrap()
        });
        both(&clusters, |c| c.query_batch_values(&fps).unwrap());
        both(&clusters, |c| c.record_batch(&pairs).unwrap());
        both(&clusters, |c| c.remove_batch(&fps[..7]).unwrap());
        both(&clusters, |c| c.query_batch_values(&fps).unwrap());
        // Installs answer which entries each node held: the seven
        // removed ones come back, the rest keep their recorded values.
        let moved: Vec<(Fingerprint, u64)> = fps[..40].iter().map(|f| (*f, 5)).collect();
        let (held, _) = both(&clusters, |c| install(c, &moved));
        assert_eq!(held.iter().filter(|h| !**h).count(), 7);
        both(&clusters, |c| install(c, &[]));
        assert_eq!(both(&clusters, scan_node).len(), 300, "sorted scans agree");
        // Control plane: merged stats count the same entries.
        let stats = clusters[1].stats().unwrap();
        let snap = &stats.nodes[0];
        assert_eq!(snap.entries, 300);
        assert_eq!(snap.shards, 4);
        assert_eq!(snap.stats.inserted, 300);
        assert_eq!(snap.stats.migrated_in, 7);
        for cluster in clusters {
            cluster.shutdown().unwrap();
        }
    }

    /// A fingerprint is answered "new" once, even when the window that
    /// inserts it is still busy on another shard: window A holds X plus
    /// 2 000 new fingerprints of one other shard, window B only X. Sent
    /// once X is stored, B finds it (A still answers "new"); sent at the
    /// same time, the two windows reach X's shard queue in either order,
    /// and exactly one of them is told "new".
    #[test]
    fn sharded_server_answers_new_once_across_frames() {
        let config = NodeConfig {
            flash: FlashConfig::medium_test(),
            ..NodeConfig::small_test()
        }
        .with_shards(4);
        let router = ShardRouter::new(4);
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
            let cluster = one_node(config.clone());
            let sender = cluster.clone();
            let window_a = std::thread::spawn(move || sender.lookup_insert_batch(&a).unwrap()[0]);
            let ordered = run % 2 == 0;
            if ordered {
                // A query inserts nothing: X shows up once A stored it.
                let deadline = Instant::now() + Duration::from_secs(30);
                while !cluster.query_batch(&[x]).unwrap()[0] {
                    assert!(
                        Instant::now() < deadline,
                        "run {run}: window A never stored X"
                    );
                    std::thread::yield_now();
                }
            }
            let in_b = cluster.lookup_insert_batch(&[x]).unwrap()[0];
            let in_a = window_a.join().unwrap();
            if ordered {
                assert_eq!(
                    (in_a, in_b),
                    (false, true),
                    "run {run}: X must be new in window A and a duplicate in window B"
                );
            }
            assert_ne!(in_a, in_b, "run {run}: X must be answered new exactly once");
            cluster.shutdown().unwrap();
        }
    }

    /// A killed sharded node stops every shard: `kill_node` drops all of
    /// the node's queues and returns once every shard thread is joined,
    /// and a warm `restart_node` replays every shard's log.
    #[test]
    fn sharded_server_stops_on_disconnect() {
        let dir = std::env::temp_dir().join(format!("shhc-sharded-kill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = NodeConfig::small_test()
            .with_shards(4)
            .with_durability(Durability::wal(&dir));
        let cluster = one_node(config);
        let router = ShardRouter::new(4);
        let fps: Vec<Fingerprint> = (0..200).map(spread).collect();
        cluster.lookup_insert_batch(&fps).unwrap();
        cluster.kill_node(NODE).unwrap();
        for shard in 0..4 {
            let on_shard: Vec<Fingerprint> = fps
                .iter()
                .copied()
                .filter(|f| router.shard_of(f) == shard)
                .collect();
            assert!(!on_shard.is_empty(), "shard {shard} holds entries");
            let after = cluster.query_batch(&on_shard);
            assert!(
                matches!(after, Err(Error::Unavailable(_))),
                "shard {shard} still answers: {after:?}"
            );
        }
        let report = cluster.restart_node(NODE).unwrap();
        assert_eq!(report.recovered_entries, 200, "every shard's log replays");
        assert_eq!(cluster.stats().unwrap().nodes[0].shards, 4);
        let exists = cluster.lookup_insert_batch(&fps).unwrap();
        assert!(exists.iter().all(|e| *e), "committed entries lost");
        cluster.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    proptest! {
        /// A node of any S shards answers a random stream of
        /// lookup/record/install/remove windows exactly like one
        /// `HybridHashNode`: same existence bits, same values (recorded
        /// ones, or `PENDING_VALUE`), same final scan. Lookup and install
        /// windows carry up to 8 fingerprints from a 120-key population,
        /// so they span shards and repeat fingerprints within a window.
        #[test]
        fn prop_sharded_server_matches_reference(
            shards in 1u32..=8,
            keys in proptest::collection::vec(0u64..120, 1..150),
        ) {
            let mut reference =
                HybridHashNode::new(NODE, NodeConfig::small_test()).unwrap();
            let cluster = one_node(NodeConfig::small_test().with_shards(shards));
            for (i, &k) in keys.iter().enumerate() {
                let f = spread(k);
                let window = &keys[i..keys.len().min(i + 8)];
                match k % 7 {
                    0 => {
                        reference.remove(f).unwrap();
                        cluster.remove_batch(&[f]).unwrap();
                    }
                    1 => {
                        reference.record(f, k * 10).unwrap();
                        cluster.record_batch(&[(f, k * 10)]).unwrap();
                    }
                    2 => {
                        let pairs: Vec<(Fingerprint, u64)> =
                            window.iter().map(|&k| (spread(k), k)).collect();
                        let want: (Vec<bool>, Vec<u64>) = pairs
                            .iter()
                            .map(|&(f, k)| {
                                let held = reference.install(f, k).unwrap();
                                (held.is_some(), held.unwrap_or(0))
                            })
                            .unzip();
                        prop_assert_eq!(install(&cluster, &pairs), want, "op {}", i);
                    }
                    _ => {
                        let fingerprints: Vec<Fingerprint> =
                            window.iter().map(|&k| spread(k)).collect();
                        let batch = reference.lookup_insert_batch(&fingerprints).unwrap();
                        let values = batch
                            .exists
                            .iter()
                            .zip(&batch.values)
                            .map(|(&e, &v)| if e { v } else { 0 })
                            .collect();
                        let got = cluster.lookup_insert_batch_values(&fingerprints).unwrap();
                        prop_assert_eq!(got, (batch.exists, values), "op {}", i);
                    }
                }
            }
            prop_assert_eq!(scan_node(&cluster), reference.scan().unwrap());
            cluster.shutdown().unwrap();
        }
    }
}
