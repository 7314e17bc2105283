//! Integration tests for bounded admission on the shared front-end:
//! shed tickets resolve (never hang), blocking admission loses nothing,
//! fair shedding isolates tenants, and the backup service survives a
//! saturated front-end through its retry path. The front-end models no
//! capacity of its own; where a test needs a saturated one, the pressure
//! comes from a slow cluster behind it (`NodeConfig::service_delay`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use shhc::{
    AdmissionPolicy, BackupService, ClusterConfig, FrontendConfig, NodeConfig, SharedFrontend,
    ShhcCluster,
};
use shhc_chunking::FixedChunker;
use shhc_storage::MemChunkStore;
use shhc_types::{Fingerprint, StreamId};

fn fp(v: u64) -> Fingerprint {
    Fingerprint::from_u64(v)
}

/// Two test nodes that each sleep `per_record` for every fingerprint a
/// frame carries, so the cluster, not the front-end, is the bottleneck.
fn slow_cluster(per_record: Duration) -> ShhcCluster {
    let mut node = NodeConfig::small_test();
    node.service_delay = per_record;
    ShhcCluster::spawn(ClusterConfig::new(2, node)).unwrap()
}

/// Under deliberate overload of a shedding front-end, every ticket —
/// admitted or shed — must resolve; a shed submission fails fast as `Overloaded`
/// and an admitted one gets its answer. Nothing may hang.
#[test]
fn shed_tickets_always_resolve_under_concurrent_overload() {
    // 2 nodes × 1 / 200 µs: the cluster answers at most ≈ 10 k/s.
    let cluster = slow_cluster(Duration::from_micros(200));
    let config = FrontendConfig::new(16, Duration::from_millis(2))
        .admission(AdmissionPolicy::Shed { max_pending: 32 });
    let fe = SharedFrontend::with_config(cluster.clone(), config);

    let threads = 4u64;
    let per_thread = 200u64;
    let barrier = Arc::new(Barrier::new(threads as usize));
    let shed_total = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for t in 0..threads {
        let fe = fe.clone();
        let barrier = Arc::clone(&barrier);
        let shed_total = Arc::clone(&shed_total);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            // Open loop: submit the whole burst without waiting on any
            // ticket, so the offered rate is bounded by nothing but the
            // thread — the shape that actually overloads the gate.
            let mut admitted = Vec::new();
            for i in 0..per_thread {
                let (ticket, shed) = fe.submit_from(Some(t as u32), fp(t * per_thread + i));
                if shed {
                    shed_total.fetch_add(1, Ordering::Relaxed);
                    // A shed ticket is already resolved — wait() must
                    // return the overload error immediately.
                    assert!(ticket.wait().unwrap_err().is_overload());
                } else {
                    admitted.push(ticket);
                }
            }
            let mut answered = 0u64;
            for ticket in admitted {
                // Admitted: the age flusher bounds the wait.
                let answer = ticket
                    .wait_timeout(Duration::from_secs(30))
                    .expect("admitted ticket must be answered");
                assert!(!answer.existed, "disjoint fingerprints are all new");
                answered += 1;
            }
            answered
        }));
    }
    let answered: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let shed = shed_total.load(Ordering::Relaxed);
    assert_eq!(answered + shed, threads * per_thread, "no submission lost");
    assert!(
        shed > 0,
        "4 unpaced threads against a ≈ 10 k/s cluster must shed"
    );
    let stats = fe.stats();
    assert_eq!(stats.shed, shed);
    assert_eq!(stats.admitted, answered);
    cluster.shutdown().unwrap();
}

/// Blocking admission is lossless: K producers hammering a front-end
/// whose bound is far below the offered burst must have every submission
/// admitted (after waiting) and answered — the gate converts overload
/// into backpressure, never into loss.
#[test]
fn block_admission_loses_nothing_under_producer_threads() {
    let cluster = ShhcCluster::spawn(ClusterConfig::small_test(2)).unwrap();
    let config = FrontendConfig::new(4, Duration::from_millis(2))
        .admission(AdmissionPolicy::Block { max_pending: 8 });
    let fe = SharedFrontend::with_config(cluster.clone(), config);

    let threads = 4u64;
    let per_thread = 100u64;
    let barrier = Arc::new(Barrier::new(threads as usize));
    let mut handles = Vec::new();
    for t in 0..threads {
        let fe = fe.clone();
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            let mut tickets = Vec::new();
            for i in 0..per_thread {
                let (ticket, shed) = fe.submit_from(Some(t as u32), fp(t * per_thread + i));
                assert!(!shed, "Block policy never sheds");
                tickets.push(ticket);
            }
            for ticket in tickets {
                let answer = ticket
                    .wait_timeout(Duration::from_secs(30))
                    .expect("blocked-then-admitted ticket must be answered");
                assert!(!answer.existed);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let stats = fe.stats();
    assert_eq!(stats.admitted, threads * per_thread);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.outstanding, 0, "everything drained");
    // The bound really was hit: producers had to wait at least once.
    assert!(
        stats.blocked > 0,
        "400 submissions through an 8-deep gate must block sometimes"
    );
    cluster.shutdown().unwrap();
}

/// Fair shedding isolates tenants: a noisy tenant offering 10× its quota
/// in one burst is shed back to its quota, while a quiet tenant staying
/// inside its own quota is admitted at a ≥ 0.9 rate.
#[test]
fn fair_shed_protects_quiet_tenant_from_noisy_one() {
    let quota = 64u64;
    let cluster = ShhcCluster::spawn(ClusterConfig::small_test(2)).unwrap();
    // Batch size above everything submitted and a long age limit: the
    // queue holds the burst while both tenants race the gate.
    let config =
        FrontendConfig::new(4096, Duration::from_secs(60)).admission(AdmissionPolicy::FairShed {
            max_pending: 4 * quota as usize,
            per_tenant_quota: quota as usize,
        });
    let fe = SharedFrontend::with_config(cluster.clone(), config);

    let barrier = Arc::new(Barrier::new(2));
    let noisy = {
        let fe = fe.clone();
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            barrier.wait();
            let mut admitted = 0u64;
            for i in 0..10 * quota {
                let (_, shed) = fe.submit_from(Some(1), fp(10_000 + i));
                admitted += u64::from(!shed);
            }
            admitted
        })
    };
    let quiet = {
        let fe = fe.clone();
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            barrier.wait();
            let mut admitted = 0u64;
            // The quiet tenant offers only half its quota, paced.
            for i in 0..quota / 2 {
                let (_, shed) = fe.submit_from(Some(2), fp(20_000 + i));
                admitted += u64::from(!shed);
                std::thread::sleep(Duration::from_micros(200));
            }
            admitted
        })
    };
    let noisy_admitted = noisy.join().unwrap();
    let quiet_admitted = quiet.join().unwrap();

    let quiet_rate = quiet_admitted as f64 / (quota / 2) as f64;
    assert!(
        quiet_rate >= 0.9,
        "quiet tenant admitted {quiet_admitted}/{} ({quiet_rate:.2}); \
         the noisy tenant starved it",
        quota / 2
    );
    assert!(
        noisy_admitted <= quota,
        "noisy tenant admitted {noisy_admitted}, above its quota of {quota}"
    );
    let stats = fe.stats();
    assert!(stats.shed >= 9 * quota, "the noisy excess must be shed");
    assert!(
        stats.shed_by_tenant >= 9 * quota,
        "noisy tenant's sheds are quota sheds, not global-bound sheds"
    );
    fe.flush().unwrap();
    cluster.shutdown().unwrap();
}

/// End to end: concurrent backups through a deliberately saturated
/// FairShed front-end (tight quotas in front of a slow cluster) must all
/// complete via the service's retry-on-shed path and restore
/// byte-exactly.
#[test]
fn service_backups_survive_a_saturated_fair_shed_tier() {
    let cluster = slow_cluster(Duration::from_micros(200));
    let config =
        FrontendConfig::new(32, Duration::from_millis(20)).admission(AdmissionPolicy::FairShed {
            max_pending: 64,
            per_tenant_quota: 24,
        });
    let svc = BackupService::with_frontend(
        SharedFrontend::with_config(cluster, config),
        FixedChunker::new(128),
        MemChunkStore::new(1 << 20),
    );

    let mut handles = Vec::new();
    for s in 0..4u32 {
        let svc = svc.clone();
        handles.push(std::thread::spawn(move || {
            // Distinct constant-block data per stream: cheap to build,
            // dedups internally, disjoint across streams.
            let data: Vec<u8> = (0..6400)
                .map(|i| (i / 128 + 50 * s as usize) as u8)
                .collect();
            let report = svc.backup(StreamId::new(s), &data).unwrap();
            assert_eq!(report.total_chunks, 50);
            assert_eq!(svc.restore(&report.manifest).unwrap(), data);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let stats = svc.frontend().stats();
    assert_eq!(stats.outstanding, 0, "all lookups drained");
    svc.cluster().clone().shutdown().unwrap();
}
