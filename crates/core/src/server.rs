//! The per-node server: the wire-format data plane plus a typed control
//! plane, served by [`node_loop`] — one thread that owns one
//! [`HybridHashNode`] exclusively and answers its queue in order, the
//! paper's sequential hash node.
//!
//! A node with `S` intra-node shards is `S` such threads, one per shard
//! slice ([`shhc_node::shard_slices`]), each behind its own queue. There
//! is no dispatcher: the cluster routes every fingerprint to its shard
//! ([`shhc_node::ShardRouter`]) and sends each shard its part of a window
//! as one frame, so a small frame never waits behind a deep frame that
//! targets other shards. Every occurrence of a fingerprint reaches the
//! same single-consumer queue in send order, and a shard answers its
//! frame in one `HybridHashNode::lookup_insert_batch` pass, so each
//! fingerprint is answered "new" once.

use std::time::Duration;

use bytes::{Bytes, BytesMut};
use crossbeam::channel::{Receiver, Sender};
use shhc_cache::CacheStats;
use shhc_flash::{DeviceStats, FtlStats};
use shhc_net::{decode, encode_reusing, Frame};
use shhc_node::{HybridHashNode, NodeConfig, NodeStats};
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
    /// Intra-node shards executing on this node, one [`node_loop`]
    /// thread each.
    pub shards: u32,
}

/// Control-plane commands (in-process only; not wire-encoded).
#[derive(Debug, Clone, Copy)]
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
                let response = serve_frame(&mut node, &frame);
                // A dropped reply channel means the client gave up
                // (timeout or crash); nothing for the server to do.
                let _ = reply.send(encode_reusing(&response, &mut scratch));
            }
            NodeRequest::Control { msg, reply } => {
                let _ = reply.send(serve_control(&mut node, msg, queue_peak));
                if matches!(msg, ControlMsg::Shutdown) {
                    break;
                }
            }
        }
    }
}

/// Answers one data-plane frame: answers go out as a `LookupResp`
/// carrying one value per existing fingerprint, finished writes as an
/// `Ack`, a ping as a `Pong`, and an undecodable or unexpected frame or
/// a failed operation as an `Error`.
fn serve_frame(node: &mut HybridHashNode, frame: &[u8]) -> Frame {
    let request = match decode(frame) {
        Ok(request) => request,
        Err(e) => return error_frame(0, &format!("undecodable request: {e}")),
    };
    let correlation = request.correlation();
    let records = match &request {
        Frame::LookupInsertReq { fingerprints, .. }
        | Frame::QueryReq { fingerprints, .. }
        | Frame::RemoveReq { fingerprints, .. } => fingerprints.len(),
        Frame::RecordReq { pairs, .. } | Frame::MigrateReq { pairs, .. } => pairs.len(),
        _ => 0,
    };
    sleep_service(service_time(node.config(), records));
    let answered = |(exists, values): (Vec<bool>, Vec<u64>)| Frame::LookupResp {
        correlation,
        values: compact_values(&exists, &values),
        exists,
    };
    let outcome = match request {
        Frame::LookupInsertReq { fingerprints, .. } => node
            .lookup_insert_batch(&fingerprints)
            .map(|batch| answered((batch.exists, batch.values))),
        Frame::QueryReq { fingerprints, .. } => node.query_many(&fingerprints).map(answered),
        // Migration installs are answered like a query: which entries
        // the node already held.
        Frame::MigrateReq { pairs, .. } => install_all(node, &pairs).map(answered),
        Frame::RecordReq { pairs, .. } => pairs
            .into_iter()
            .try_for_each(|(fp, value)| node.record(fp, value).map(drop))
            .map(|()| Frame::Ack { correlation }),
        Frame::RemoveReq { fingerprints, .. } => fingerprints
            .into_iter()
            .try_for_each(|fp| node.remove(fp))
            .map(|()| Frame::Ack { correlation }),
        Frame::Ping { .. } => return Frame::Pong { correlation },
        other => return error_frame(correlation, &format!("unexpected frame at node: {other:?}")),
    };
    committed(node, outcome).unwrap_or_else(|message| Frame::Error {
        correlation,
        message,
    })
}

/// Runs one control step. `Shutdown` flushes and closes the WAL, so a
/// restart replays only segment metadata; a *crashed* node never gets
/// here — its queue just disconnects and the store drops unclosed,
/// losing uncommitted state (and tearing log tails under a `FaultPlan`).
fn serve_control(node: &mut HybridHashNode, msg: ControlMsg, queue_peak: u64) -> ControlReply {
    let outcome = match msg {
        ControlMsg::Stats => {
            let mut snap = snapshot_of(node);
            snap.stats.queue_peak = queue_peak;
            Ok(ControlReply::Stats(Box::new(snap)))
        }
        ControlMsg::Flush => node.flush().map(|_| ControlReply::Done),
        ControlMsg::Scan => node.scan().map(ControlReply::Scan),
        ControlMsg::Shutdown => {
            return match node.close() {
                Ok(_) => ControlReply::Done,
                Err(e) => ControlReply::Failed(e.to_string()),
            }
        }
    };
    committed(node, outcome).unwrap_or_else(ControlReply::Failed)
}

/// Group-commits the node's WAL behind `outcome`, so no reply leaves
/// before the work's mutations survive a crash (no-op for volatile
/// nodes). Either failure becomes the reply's error message.
fn committed<T>(node: &mut HybridHashNode, outcome: shhc_types::Result<T>) -> Result<T, String> {
    match (outcome, node.wal_commit()) {
        (Err(e), _) => Err(e.to_string()),
        (Ok(_), Err(e)) => Err(format!("wal commit failed: {e}")),
        (Ok(outcome), Ok(())) => Ok(outcome),
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
/// a frame of `records` records: `service_delay` per record plus
/// `batch_overhead`, the cost batching amortizes, charged per frame a
/// node thread receives. The shards of one node sleep **concurrently**,
/// the multi-core effect the paper's sequential node cannot show.
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    use crate::cluster::{ClusterConfig, ShhcCluster};
    use crossbeam::channel::unbounded;
    use proptest::prelude::*;
    use shhc_flash::FlashConfig;
    use shhc_node::{Durability, NodeConfig, ShardRouter};
    use shhc_types::{Error, StreamId};

    fn spawn_test_node() -> (Sender<NodeRequest>, std::thread::JoinHandle<()>) {
        let node = HybridHashNode::new(NodeId::new(0), NodeConfig::small_test()).unwrap();
        let (tx, rx) = unbounded();
        let handle = std::thread::spawn(move || node_loop(node, rx));
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
        match cluster.control(NODE, ControlMsg::Scan).unwrap() {
            ControlReply::Scan(entries) => entries,
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Migration installs, split by shard like every per-node send.
    fn install(cluster: &ShhcCluster, pairs: &[(Fingerprint, u64)]) -> (Vec<bool>, Vec<u64>) {
        let frame = |correlation, pairs| Frame::MigrateReq { correlation, pairs };
        cluster.node_exchange(NODE, pairs, |p| p.0, frame).unwrap()
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
        #![proptest_config(ProptestConfig::with_cases(24))]

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
