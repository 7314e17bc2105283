//! Membership churn under live traffic: seeded chaos schedules of
//! join/drain/kill/restart against concurrent backup clients.
//!
//! The invariants, in descending strictness:
//!
//! 1. **Correctness is absolute**: every snapshot taken at any point
//!    restores byte-exactly, whatever the cluster was doing.
//! 2. **No ticket is lost**: every submitted operation completes (client
//!    threads unwrap every result; a hung or dropped ticket fails the
//!    test).
//! 3. **Graceful churn is lossless**: joins and drains alone (no
//!    machine failures) preserve perfect deduplication.
//! 4. **Failures degrade dedup boundedly**: kills may cost re-uploads
//!    (benign redundant copies), counted and asserted against a bound —
//!    never corruption.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use shhc::{
    AdmissionPolicy, BackupService, ClusterConfig, Durability, Error, FaultPlan, Fingerprint,
    FrontendConfig, NodeId, SharedFrontend, ShhcCluster, StreamId, WalConfig,
};
use shhc_chunking::FixedChunker;
use shhc_storage::MemChunkStore;

fn fps(range: std::ops::Range<u64>) -> Vec<Fingerprint> {
    range
        .map(|i| Fingerprint::from_u64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31)))
        .collect()
}

/// A test cluster config with enough flash headroom for churn workloads
/// (tens of thousands of entries per node).
fn roomy_config(nodes: u32) -> ClusterConfig {
    let mut node_config = shhc::NodeConfig::small_test();
    node_config.flash = shhc_flash::FlashConfig::medium_test();
    node_config.cache_capacity = 4_096;
    ClusterConfig::new(nodes, node_config)
}

/// The regression the epoch scheme exists for: before the staged
/// protocol, `add_node` scanned old owners under the *old* ring and only
/// swapped the ring at the end — an insert landing on a node after its
/// range was scanned was stranded there, permanently unreachable once
/// routing moved on. With install-first + dual-read + re-home passes,
/// every fingerprint registered before or during the join must keep
/// answering "exists".
#[test]
fn add_node_under_live_inserts_strands_nothing_pipelined() {
    let cluster = ShhcCluster::spawn(roomy_config(3).with_migration_chunk(48)).unwrap();
    // A meaty resident population makes the migration long enough for
    // writers to land inserts mid-flight.
    let base = fps(0..6_000);
    for window in base.chunks(500) {
        cluster.lookup_insert_batch(window).unwrap();
    }

    let stop = Arc::new(AtomicBool::new(false));
    let mut writers = Vec::new();
    for w in 0..3u64 {
        let cluster = cluster.clone();
        let stop = Arc::clone(&stop);
        writers.push(std::thread::spawn(move || {
            let mut inserted: Vec<Fingerprint> = Vec::new();
            let mut next = 1_000_000 * (w + 1);
            while !stop.load(Ordering::Relaxed) && inserted.len() < 15_000 {
                let batch = fps(next..next + 100);
                next += 100;
                let exists = cluster.lookup_insert_batch(&batch).unwrap();
                assert!(
                    exists.iter().all(|e| !e),
                    "fresh fingerprints must read as new"
                );
                inserted.extend(batch);
            }
            inserted
        }));
    }

    let (_, report) = cluster.add_node().unwrap();
    assert!(report.moved > 0);
    stop.store(true, Ordering::Relaxed);
    let mut all: Vec<Fingerprint> = base;
    for writer in writers {
        all.extend(writer.join().unwrap());
    }

    // Nothing stranded: every fingerprint registered before or during
    // the join still deduplicates, and the books balance exactly.
    for window in all.chunks(500) {
        let exists = cluster.lookup_insert_batch(window).unwrap();
        let missing = exists.iter().filter(|e| !**e).count();
        assert_eq!(missing, 0, "{missing} fingerprints stranded by the join");
    }
    assert_eq!(
        cluster.stats().unwrap().total_entries(),
        all.len() as u64,
        "every fingerprint lives on exactly one node"
    );
    cluster.shutdown().unwrap();
}

#[test]
fn drain_under_live_inserts_strands_nothing() {
    let cluster = ShhcCluster::spawn(roomy_config(4).with_migration_chunk(48)).unwrap();
    let base = fps(0..6_000);
    for window in base.chunks(500) {
        cluster.lookup_insert_batch(window).unwrap();
    }
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let cluster = cluster.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut inserted: Vec<Fingerprint> = Vec::new();
            let mut next = 10_000_000u64;
            while !stop.load(Ordering::Relaxed) && inserted.len() < 15_000 {
                let batch = fps(next..next + 100);
                next += 100;
                cluster.lookup_insert_batch(&batch).unwrap();
                inserted.extend(batch);
            }
            inserted
        })
    };
    let report = cluster.drain_node(NodeId::new(2)).unwrap();
    stop.store(true, Ordering::Relaxed);
    let mut all = base;
    all.extend(writer.join().unwrap());

    assert_eq!(report.post_scan_entries, 0, "drained node must scan empty");
    for window in all.chunks(500) {
        let exists = cluster.lookup_insert_batch(window).unwrap();
        assert!(
            exists.iter().all(|e| *e),
            "fingerprints stranded by the drain"
        );
    }
    assert_eq!(cluster.stats().unwrap().total_entries(), all.len() as u64);
    cluster.shutdown().unwrap();
}

/// A join and a drain while an open front-end batch holds sent parts. A
/// part holds its epoch's view only while it sends, so neither change's
/// barrier waits for the batch to close: both complete at once, though
/// nobody waits on the batch until the end and its age cap is ten
/// minutes off. The batch straddles three epochs, and every answer is
/// the oracle's: a stored fingerprint exists, a fresh one is new exactly
/// the first time, including repeats of the first part's fresh
/// fingerprints that the join migrated before the tail asked for them.
#[test]
fn membership_changes_pass_an_open_batch_holding_sent_parts() {
    const PART: u64 = shhc_net::PART as u64;
    let cluster = ShhcCluster::spawn(roomy_config(2)).unwrap();
    let stored = fps(0..2_000);
    cluster.lookup_insert_batch(&stored).unwrap();
    let fe = SharedFrontend::new(cluster.clone(), 8 * PART as usize, Duration::from_secs(600));
    let fresh = fps(1_000_000..1_000_000 + 2 * PART);
    // Part 1: stored and fresh fingerprints alternating.
    let part1: Vec<Fingerprint> = (0..PART as usize)
        .map(|i| if i % 2 == 0 { stored[i] } else { fresh[i] })
        .collect();
    // Part 2: repeats of part 1's fresh ones, more stored, more fresh.
    let part2: Vec<Fingerprint> = (0..PART as usize)
        .map(|i| match i % 3 {
            0 => part1[i | 1],
            1 => stored[1_000 + i],
            _ => fresh[PART as usize + i],
        })
        .collect();
    // The tail: repeats of both parts.
    let tail: Vec<Fingerprint> = part1.iter().chain(&part2).step_by(7).copied().collect();

    let mut tickets: Vec<_> = part1.iter().map(|&f| fe.submit(f)).collect();
    let started = std::time::Instant::now();
    let (joined, report) = cluster.add_node().unwrap();
    assert!(report.moved > 0);
    tickets.extend(part2.iter().map(|&f| fe.submit(f)));
    cluster.drain_node(NodeId::new(0)).unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the changes waited for the open batch"
    );
    assert_eq!(cluster.epoch(), 3);
    assert!(
        tickets.iter().all(|t| !t.is_ready()),
        "the batch is still open"
    );
    tickets.extend(tail.iter().map(|&f| fe.submit(f)));

    let stream: Vec<Fingerprint> = part1.iter().chain(&part2).chain(&tail).copied().collect();
    let mut known: std::collections::HashSet<Fingerprint> = stored.iter().copied().collect();
    for (i, (f, ticket)) in stream.iter().zip(tickets).enumerate() {
        let answer = ticket.wait().unwrap();
        assert_eq!(answer.existed, !known.insert(*f), "answer {i} ({f})");
    }
    assert_eq!(fe.stats().batches, 1, "one batch straddled both changes");
    assert!(cluster.query_batch(&stream).unwrap().iter().all(|e| *e));
    assert_eq!(cluster.stats().unwrap().total_entries(), known.len() as u64);
    assert!(cluster
        .stats()
        .unwrap()
        .nodes
        .iter()
        .any(|n| n.id == joined && n.entries > 0));
    cluster.shutdown().unwrap();
}

/// The admission gates every service-driven test runs behind: the
/// default blocking bound, then a fair-shedding gate with bounds generous
/// enough that the suite never actually sheds — that run checks the
/// gate's accounting under churn, not its refusals.
const ADMISSIONS: [AdmissionPolicy; 2] = [
    AdmissionPolicy::Block {
        max_pending: shhc_net::DEFAULT_MAX_PENDING,
    },
    AdmissionPolicy::FairShed {
        max_pending: 1 << 15,
        per_tenant_quota: 1 << 11,
    },
];

fn service_on(
    cluster: &ShhcCluster,
    admission: AdmissionPolicy,
) -> BackupService<FixedChunker, MemChunkStore> {
    let config = FrontendConfig::new(64, Duration::from_millis(20)).admission(admission);
    BackupService::with_frontend(
        SharedFrontend::with_config(cluster.clone(), config),
        FixedChunker::new(256),
        MemChunkStore::new(1 << 24),
    )
}

fn random_data(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

/// Graceful churn (join + drain, no machine failures) must be lossless:
/// after the dust settles, re-backing up the same data deduplicates
/// every single chunk.
#[test]
fn graceful_churn_preserves_perfect_dedup() {
    for admission in ADMISSIONS {
        let cluster = ShhcCluster::spawn(roomy_config(3).with_migration_chunk(64)).unwrap();
        let service = service_on(&cluster, admission);

        // Phase 1: three sessions back up concurrently while the cluster
        // gains a node and drains another.
        let mut sessions = Vec::new();
        for s in 0..3u32 {
            let service = service.clone();
            sessions.push(std::thread::spawn(move || {
                let data = random_data(120_000, 7_000 + u64::from(s));
                let report = service.backup(StreamId::new(s), &data).unwrap();
                assert_eq!(service.restore(&report.manifest).unwrap(), data);
                (data, report)
            }));
        }
        let (added, add_report) = cluster.add_node().unwrap();
        assert!(add_report.to_epoch > add_report.from_epoch);
        let drain_report = cluster.drain_node(NodeId::new(1)).unwrap();
        assert_eq!(drain_report.post_scan_entries, 0);

        let firsts: Vec<(Vec<u8>, shhc::BackupReport)> =
            sessions.into_iter().map(|s| s.join().unwrap()).collect();

        // Phase 2 (quiet): identical data deduplicates perfectly — graceful
        // membership changes lost nothing.
        for (s, (data, first)) in firsts.iter().enumerate() {
            let second = service.backup(StreamId::new(100 + s as u32), data).unwrap();
            assert_eq!(
                second.new_chunks, 0,
                "graceful churn must not degrade dedup (session {s})"
            );
            assert_eq!(second.duplicate_chunks, second.total_chunks);
            // Both generations restore byte-exactly.
            assert_eq!(&service.restore(&first.manifest).unwrap(), data);
            assert_eq!(&service.restore(&second.manifest).unwrap(), data);
        }

        let stats = cluster.stats().unwrap();
        assert_eq!(stats.epoch, 3);
        assert_eq!(stats.drained, vec![NodeId::new(1)]);
        assert!(stats.nodes.iter().any(|n| n.id == added));
        cluster.shutdown().unwrap();
    }
}

/// One step of a seeded chaos schedule.
#[derive(Debug, Clone, Copy)]
enum ChurnEvent {
    Add,
    Drain,
    /// Kill, then rejoin as an empty cold standby.
    KillRestart,
    /// Kill, then warm-restart: WAL replay (when durable) plus delta
    /// re-sync from replica peers.
    CrashRecover,
    Pause(u64),
}

/// Derives a deterministic event schedule from `seed`. Kills always
/// restart before the next event so at most one replica is cold at a
/// time (the replication-2 coverage the reads rely on).
fn schedule(seed: u64, len: usize) -> Vec<ChurnEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| match rng.gen_range(0..5u32) {
            0 => ChurnEvent::Add,
            1 => ChurnEvent::Drain,
            2 => ChurnEvent::KillRestart,
            3 => ChurnEvent::CrashRecover,
            _ => ChurnEvent::Pause(rng.gen_range(1..8)),
        })
        .collect()
}

/// The full chaos suite: K backup clients run snapshot generations while
/// a seeded schedule joins, drains, kills and restarts nodes. Sessions
/// must never observe an error, every manifest must restore byte-exactly,
/// and the post-churn dedup loss (re-uploads caused by kills) must stay
/// under a bound.
#[test]
fn seeded_churn_chaos_keeps_backups_restorable() {
    for (admission, seed) in ADMISSIONS
        .into_iter()
        .flat_map(|a| [11u64, 29, 47].map(|seed| (a, seed)))
    {
        let cluster =
            ShhcCluster::spawn(roomy_config(3).with_replication(2).with_migration_chunk(64))
                .unwrap();
        let service = service_on(&cluster, admission);

        // K clients, three backup generations each, all concurrent with
        // the chaos schedule.
        let mut clients = Vec::new();
        for c in 0..2u32 {
            let service = service.clone();
            clients.push(std::thread::spawn(move || {
                let mut generations = Vec::new();
                for generation in 0..3u32 {
                    let data =
                        random_data(90_000, u64::from(c) * 1_000 + u64::from(generation) + seed);
                    let stream = StreamId::new(c * 10 + generation);
                    let report = service.backup(stream, &data).unwrap();
                    // Correctness invariant 1: immediate byte-exact
                    // restore, mid-churn.
                    assert_eq!(service.restore(&report.manifest).unwrap(), data);
                    generations.push((data, report));
                }
                generations
            }));
        }

        // Drive the schedule. Membership ops serialize internally; the
        // driver tracks which ids are running ring members.
        let mut killable: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        for event in schedule(seed, 6) {
            match event {
                ChurnEvent::Add => {
                    let (id, _) = cluster.add_node().unwrap();
                    killable.push(id);
                }
                ChurnEvent::Drain => {
                    if killable.len() > 2 {
                        let victim = killable.remove(0);
                        let report = cluster.drain_node(victim).unwrap();
                        assert_eq!(
                            report.post_scan_entries, 0,
                            "drain (seed {seed}) left entries behind"
                        );
                    }
                }
                ChurnEvent::KillRestart => {
                    if let Some(&victim) = killable.last() {
                        cluster.kill_node(victim).unwrap();
                        std::thread::sleep(Duration::from_millis(5));
                        cluster.restart_cold(victim).unwrap();
                    }
                }
                ChurnEvent::CrashRecover => {
                    if let Some(&victim) = killable.last() {
                        cluster.kill_node(victim).unwrap();
                        std::thread::sleep(Duration::from_millis(5));
                        let report = cluster.restart_node(victim).unwrap();
                        assert!(
                            report.chunks <= report.resynced.max(1),
                            "seed {seed}: re-sync shipped {} chunks for {} entries",
                            report.chunks,
                            report.resynced
                        );
                    }
                }
                ChurnEvent::Pause(ms) => std::thread::sleep(Duration::from_millis(ms)),
            }
        }

        let all: Vec<Vec<(Vec<u8>, shhc::BackupReport)>> =
            clients.into_iter().map(|c| c.join().unwrap()).collect();

        // Invariant 1 again, post-churn: every generation of every client
        // still restores byte-exactly.
        for generations in &all {
            for (data, report) in generations {
                assert_eq!(&service.restore(&report.manifest).unwrap(), data);
            }
        }

        // Invariant 4: dedup degradation is bounded. Kills lose replica
        // copies, so some chunks legitimately re-upload — but the
        // surviving replica plus dual-read must keep the loss well under
        // total amnesia.
        let mut total = 0usize;
        let mut reuploaded = 0usize;
        for (c, generations) in all.iter().enumerate() {
            for (g, (data, _)) in generations.iter().enumerate() {
                let again = service
                    .backup(StreamId::new(200 + (c * 10 + g) as u32), data)
                    .unwrap();
                total += again.total_chunks;
                reuploaded += again.new_chunks;
            }
        }
        let fraction = reuploaded as f64 / total.max(1) as f64;
        println!(
            "seed {seed}, {admission:?}: {reuploaded}/{total} chunks re-uploaded \
             ({:.1}% dedup loss) after churn",
            fraction * 100.0
        );
        assert!(
            fraction <= 0.5,
            "seed {seed}: dedup degradation {fraction:.3} exceeds bound"
        );

        // An anti-entropy pass then repairs replica sets from survivors:
        // afterwards the same data deduplicates perfectly again.
        cluster.rebalance().unwrap();
        let probe = &all[0][0].0;
        let after = service.backup(StreamId::new(250), probe).unwrap();
        assert_eq!(
            after.new_chunks, 0,
            "seed {seed}: rebalance must restore full dedup for surviving data"
        );
        cluster.shutdown().unwrap();
    }
}

/// Satellite: cold-standby semantics of `restart_cold`. A restarted node
/// relearns entries as traffic arrives, and an explicit rebalance
/// repopulates its full share — `entry_shares` re-converges.
#[test]
fn restarted_node_relearns_and_rebalance_reconverges_shares() {
    let cluster = ShhcCluster::spawn(roomy_config(3).with_replication(2)).unwrap();
    let all = fps(0..3_000);
    for window in all.chunks(500) {
        cluster.lookup_insert_batch(window).unwrap();
    }
    let victim = NodeId::new(1);
    cluster.kill_node(victim).unwrap();
    // Reads survive the crash via the second replica.
    let exists = cluster.lookup_insert_batch(&all[..500]).unwrap();
    assert!(exists.iter().all(|e| *e));

    cluster.restart_cold(victim).unwrap();
    let cold = cluster.stats().unwrap();
    let empty = cold.nodes.iter().find(|n| n.id == victim).unwrap();
    assert_eq!(empty.entries, 0, "cold standby restarts empty");

    // Traffic re-learns: lookups fan to all replicas, so the restarted
    // node re-registers its share of whatever the stream touches.
    for window in all.chunks(500) {
        let exists = cluster.lookup_insert_batch(window).unwrap();
        assert!(exists.iter().all(|e| *e), "replicas must still answer");
    }
    let relearned = cluster.stats().unwrap();
    let node = relearned.nodes.iter().find(|n| n.id == victim).unwrap();
    assert!(
        node.entries > 0,
        "traffic must repopulate the restarted node"
    );

    // An explicit rebalance completes the repopulation: every entry is
    // back on both of its replicas and the share distribution
    // re-converges to ≈ 1/3 per node.
    let report = cluster.rebalance().unwrap();
    assert!(report.scanned > 0);
    let stats = cluster.stats().unwrap();
    assert_eq!(stats.total_entries(), 2 * all.len() as u64);
    for (node, share) in stats.entry_shares() {
        assert!(
            (0.2..0.47).contains(&share),
            "{node} share {share:.3} did not re-converge"
        );
    }
    cluster.shutdown().unwrap();
}

/// Client deletes racing a migration must not resurrect: a fingerprint
/// removed mid-join stays gone afterwards.
#[test]
fn removes_during_migration_do_not_resurrect() {
    let cluster = ShhcCluster::spawn(roomy_config(2).with_migration_chunk(16)).unwrap();
    let all = fps(0..3_000);
    for window in all.chunks(500) {
        cluster.lookup_insert_batch(window).unwrap();
    }
    // Remove a slice of the population concurrently with the join.
    let doomed: Vec<Fingerprint> = all.iter().copied().step_by(3).collect();
    let remover = {
        let cluster = cluster.clone();
        let doomed = doomed.clone();
        std::thread::spawn(move || {
            for window in doomed.chunks(100) {
                cluster.remove_batch(window).unwrap();
            }
        })
    };
    cluster.add_node().unwrap();
    remover.join().unwrap();

    let exists = cluster.query_batch(&doomed).unwrap();
    let resurrected = exists.iter().filter(|e| **e).count();
    assert_eq!(
        resurrected, 0,
        "{resurrected} removed fingerprints resurrected by migration"
    );
    // The survivors are all still there.
    let keep: Vec<Fingerprint> = all
        .iter()
        .copied()
        .filter(|fp| !doomed.contains(fp))
        .collect();
    let exists = cluster.query_batch(&keep).unwrap();
    assert!(exists.iter().all(|e| *e), "survivor lost during migration");
    cluster.shutdown().unwrap();
}

/// Satellite: crash recovery under live backup traffic. A WAL-backed
/// node is killed mid-backup with dirty-shutdown fault injection armed
/// (torn journal/segment tails), warm-restarted, and the suite asserts
/// the durability contract: zero client-recorded entries lost (every
/// acked chunk still deduplicates), byte-exact restores, and re-sync
/// traffic bounded by the entries actually moved.
#[test]
fn crash_recover_mid_backup_loses_nothing() {
    for admission in ADMISSIONS {
        let dir = std::env::temp_dir().join(format!("shhc-churn-crash-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = roomy_config(3).with_replication(2).with_migration_chunk(64);
        // Durable nodes whose every dirty shutdown also tears the final
        // journal + segment records — recovery must truncate, not replay.
        config.node_config.durability =
            Durability::Wal(WalConfig::new(&dir).with_fault(FaultPlan::torn_tails()));
        let cluster = ShhcCluster::spawn(config).unwrap();
        let service = service_on(&cluster, admission);

        // A client runs backup generations while the crash happens.
        let worker = {
            let service = service.clone();
            std::thread::spawn(move || {
                let mut generations = Vec::new();
                for generation in 0..3u32 {
                    let data = random_data(90_000, 40_000 + u64::from(generation));
                    let report = service.backup(StreamId::new(generation), &data).unwrap();
                    assert_eq!(service.restore(&report.manifest).unwrap(), data);
                    generations.push((data, report));
                }
                generations
            })
        };

        std::thread::sleep(Duration::from_millis(3));
        let victim = NodeId::new(2);
        cluster.kill_node(victim).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        let report = cluster.restart_node(victim).unwrap();
        assert!(
            report.recovered_entries > 0 || report.replayed == 0,
            "a node that replayed WAL records must recover entries"
        );
        assert!(
            report.chunks <= report.resynced.max(1),
            "re-sync shipped {} chunks for {} entries",
            report.chunks,
            report.resynced
        );

        let generations = worker.join().unwrap();

        // Zero lost client-recorded entries: every acked chunk still
        // deduplicates, and every snapshot restores byte-exactly.
        for (i, (data, first)) in generations.iter().enumerate() {
            assert_eq!(&service.restore(&first.manifest).unwrap(), data);
            let again = service.backup(StreamId::new(300 + i as u32), data).unwrap();
            assert_eq!(
                again.new_chunks, 0,
                "generation {i}: client-recorded entries lost in the crash"
            );
        }

        let stats = cluster.stats().unwrap();
        assert_eq!(stats.recovered, vec![victim]);
        assert!(stats.crashed.is_empty());
        assert_eq!(stats.resync_moved, report.resynced);
        assert_eq!(stats.resync_chunks, report.chunks);
        cluster.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Errors keep their shape under churn: killing a node without
/// replication makes its share unavailable (not silently new), and the
/// epoch counter tracks every membership change.
#[test]
fn epoch_and_error_bookkeeping_across_churn() {
    let cluster = ShhcCluster::spawn(ClusterConfig::small_test(2)).unwrap();
    assert_eq!(cluster.epoch(), 1);
    cluster.add_node().unwrap();
    assert_eq!(cluster.epoch(), 2);
    cluster.drain_node(NodeId::new(0)).unwrap();
    assert_eq!(cluster.epoch(), 3);

    cluster.lookup_insert_batch(&fps(0..500)).unwrap();
    cluster.kill_node(NodeId::new(1)).unwrap();
    let err = cluster.lookup_insert_batch(&fps(0..500)).unwrap_err();
    assert!(matches!(err, Error::Unavailable(_)), "{err}");
    assert_eq!(cluster.alive_count(), 1);
    assert_eq!(cluster.drained_count(), 1);
    let stats = cluster.stats().unwrap();
    assert_eq!(stats.crashed, vec![NodeId::new(1)]);
    assert_eq!(stats.drained, vec![NodeId::new(0)]);
    cluster.shutdown().unwrap();
}
