//! Integration tests for the shared front-end: idle-batch starvation
//! regression, cross-client answer fidelity, answers that do not depend
//! on where batches close, and the end-to-end many-clients-one-service
//! shape.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use shhc::{BackupClient, BackupService, ClusterConfig, LookupAnswer, SharedFrontend, ShhcCluster};
use shhc_chunking::FixedChunker;
use shhc_storage::MemChunkStore;
use shhc_types::Fingerprint;
use shhc_workload::{Dataset, DatasetSpec, MultiClientSpec, SkewSpec};

/// Regression for the idle-batch starvation bug: a front-end that
/// evaluated `max_age` only on the next `submit` never answered a lone
/// fingerprint. The shared front-end's flusher thread must answer it
/// within ≈`max_age`, with no further submit or flush call — and with no
/// blocking wait either, which would ship the batch on demand at once:
/// the client here only polls, so the age cap is all it has.
#[test]
fn lone_fingerprint_is_answered_within_max_age() {
    let max_age = Duration::from_millis(25);
    let cluster = ShhcCluster::spawn(ClusterConfig::small_test(2)).unwrap();

    // The answer comes through the ticket, unprompted.
    let frontend = SharedFrontend::new(cluster.clone(), 1000, max_age);
    let start = Instant::now();
    let ticket = frontend.submit(Fingerprint::from_u64(2));
    while !ticket.is_ready() {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "flusher must answer a lone fingerprint"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let waited = start.elapsed();
    assert!(!ticket.wait().unwrap().existed);
    assert!(waited >= max_age, "must respect the age limit ({waited:?})");
    assert!(
        waited < max_age * 20,
        "answered {waited:?} after submit; expected ≈{max_age:?}"
    );
    let stats = frontend.stats();
    assert_eq!((stats.closed_by_age, stats.closed_by_demand), (1, 0));
    cluster.shutdown().unwrap();
}

/// K threads submitting disjoint trace shards through one shared
/// front-end must get byte-identical answers to the same fingerprints
/// run sequentially through `lookup_insert_batch`.
#[test]
fn concurrent_shards_match_sequential_answers() {
    let clients = 4usize;
    let spec = MultiClientSpec::open_loop(clients, 250);
    let shards = spec.shards();

    // Sequential reference: each shard replayed in order, one
    // fingerprint at a time, against a fresh cluster. Shards are
    // disjoint, so per-shard replay order is the only order that
    // matters.
    let reference_cluster = ShhcCluster::spawn(ClusterConfig::small_test(3)).unwrap();
    let mut reference: Vec<Vec<bool>> = Vec::new();
    for shard in &shards {
        let mut answers = Vec::with_capacity(shard.len());
        for fp in shard {
            answers.push(reference_cluster.lookup_insert_batch(&[*fp]).unwrap()[0]);
        }
        reference.push(answers);
    }
    reference_cluster.shutdown().unwrap();

    // Concurrent run: each client waits for every ticket before its next
    // submission, so its own duplicates stay ordered; cross-client
    // batching is what actually fills the batches.
    let cluster = ShhcCluster::spawn(ClusterConfig::small_test(3)).unwrap();
    let frontend = SharedFrontend::new(cluster.clone(), clients, Duration::from_millis(1));
    let barrier = Arc::new(Barrier::new(clients));
    let mut handles = Vec::new();
    for shard in shards {
        let frontend = frontend.clone();
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            shard
                .iter()
                .map(|fp| frontend.submit(*fp).wait().unwrap().existed)
                .collect::<Vec<bool>>()
        }));
    }
    let concurrent: Vec<Vec<bool>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(
        concurrent, reference,
        "shared front-end answers diverge from sequential replay"
    );
    let stats = frontend.stats();
    assert!(
        stats.mean_occupancy() > 1.5,
        "batches must actually aggregate across clients (occupancy {:.2})",
        stats.mean_occupancy()
    );
    cluster.shutdown().unwrap();
}

/// Sessions sharing one front-end, each holding its own
/// `(fingerprint, ticket)` pairs, get their own answers in their own
/// arrival order. Every session submits each of its fingerprints twice:
/// exactly one of the two tickets may say "new" (the two can land in
/// different batches, dispatched in either order), so a ticket answered
/// with another submission's result shows up as a wrong `existed` bit.
#[test]
fn session_facades_preserve_order_under_concurrency() {
    let clients = 4usize;
    let per_client = 300usize;
    let cluster = ShhcCluster::spawn(ClusterConfig::small_test(2)).unwrap();
    let shared = SharedFrontend::new(cluster.clone(), 8, Duration::from_millis(1));
    let barrier = Arc::new(Barrier::new(clients));
    let mut handles = Vec::new();
    for c in 0..clients as u64 {
        let shared = shared.clone();
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            let mut session = Vec::with_capacity(2 * per_client);
            for i in 0..per_client as u64 {
                let fp = Fingerprint::from_u64((c << 32) | i);
                session.push((fp, shared.submit(fp)));
                session.push((fp, shared.submit(fp)));
            }
            shared.flush().unwrap();
            session
                .into_iter()
                .map(|(fp, ticket)| (fp, ticket.wait().unwrap().existed))
                .collect::<Vec<(Fingerprint, bool)>>()
        }));
    }
    for (c, handle) in handles.into_iter().enumerate() {
        let answered = handle.join().unwrap();
        assert_eq!(answered.len(), 2 * per_client, "client {c}");
        for (i, pair) in answered.chunks(2).enumerate() {
            let fp = Fingerprint::from_u64(((c as u64) << 32) | i as u64);
            assert_eq!((pair[0].0, pair[1].0), (fp, fp), "client {c} out of order");
            assert_ne!(
                pair[0].1, pair[1].1,
                "client {c}: {fp} must be new exactly once"
            );
        }
    }
    cluster.shutdown().unwrap();
}

/// The end-to-end Figure-4 shape: N `BackupClient` sessions on N threads
/// snapshot concurrently through clones of one `BackupService`, and every
/// snapshot restores byte-exactly.
#[test]
fn concurrent_backup_clients_share_one_service() {
    let cluster = ShhcCluster::spawn(ClusterConfig::small_test(2)).unwrap();
    let service = BackupService::new(
        cluster.clone(),
        FixedChunker::new(256),
        MemChunkStore::new(1 << 24),
        16,
    );
    let mut handles = Vec::new();
    for c in 0..4u64 {
        let service = service.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = BackupClient::new(service);
            let dataset = Dataset::generate(&DatasetSpec {
                files: 6,
                mean_file_size: 4096,
                seed: 7000 + c,
            });
            let (snap, report) = client.snapshot(&dataset).unwrap();
            assert_eq!(report.files_changed, 6);
            let restored = client.restore_snapshot(&snap).unwrap();
            assert_eq!(restored, dataset, "client {c} restore diverged");
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let stats = service.frontend().stats();
    assert!(stats.batches > 0);
    drop(service);
    cluster.shutdown().unwrap();
}

/// Drives one front-end through the trace single-threaded in waves of
/// `wave` submissions, blocking on each wave's tickets, and collects
/// every answer in order.
///
/// The age limit is kept huge so every batch is dispatched on *this*
/// thread — inline on a size close, or on demand when the first wait
/// finds the wave's tail still open. Sequential dispatch means each node
/// sees its fingerprints in submission order no matter where the batch
/// boundaries fall, which is exactly why the close rules cannot change
/// answers.
fn drive(fe: &SharedFrontend, trace: &[Fingerprint], wave: usize) -> Vec<LookupAnswer> {
    let mut answers = Vec::with_capacity(trace.len());
    for chunk in trace.chunks(wave) {
        let tickets: Vec<_> = chunk.iter().map(|&fp| fe.submit(fp)).collect();
        answers.extend(tickets.into_iter().map(|t| t.wait().expect("answer")));
    }
    answers
}

const FOREVER: Duration = Duration::from_secs(600);

/// A batch leaves on size or on demand; where it closes is a performance
/// choice and must never change an answer. The Zipf trace repeats its hot
/// fingerprints, so repeats land in the same batch and across batches.
#[test]
fn answers_do_not_depend_on_where_batches_close() {
    let trace = SkewSpec::new(600, 4_000, 1.1, 11).fingerprints();
    let reference = ShhcCluster::spawn(ClusterConfig::small_test(2)).unwrap();
    let want = drive(
        &SharedFrontend::new(reference.clone(), 8, FOREVER),
        &trace,
        50,
    );

    // Size limits below, at and far above the wave: mostly size closes
    // with a demand-closed tail, one demand close per wave, and waves of
    // one (every batch a single demanded fingerprint). Batches past
    // `PART` (512) send parts before they close: demand-closed after
    // parts (2048 / 1500, 1000 / 700, 4096 / 4000) and size-closed with
    // a part and a tail (1024 / 4000).
    for (batch_size, wave) in [
        (2, 50),
        (64, 50),
        (1000, 50),
        (1000, 1),
        (2048, 1500),
        (1000, 700),
        (4096, 4000),
        (1024, 4000),
    ] {
        let cluster = ShhcCluster::spawn(ClusterConfig::small_test(2)).unwrap();
        let fe = SharedFrontend::new(cluster.clone(), batch_size, FOREVER);
        let got = drive(&fe, &trace, wave);
        assert_eq!(
            got, want,
            "answers diverged (size {batch_size}, wave {wave})"
        );
        assert_eq!(fe.stats().closed_by_age, 0);
        cluster.shutdown().unwrap();
    }
    reference.shutdown().unwrap();
}
