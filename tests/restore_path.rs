//! The restore read path: every restore entry point is the one pipelined
//! replay and must be byte-exact, restores must not starve concurrent
//! backup writers or flush their cache working set, and a failing
//! fingerprint index must only degrade the locate audit — never the
//! restored bytes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use shhc::prelude::*;
use shhc::{Admission, BackendKind, NodeId, RestoreConfig};
use shhc_storage::{ChunkStore, StoreStats};
use shhc_types::{ChunkId, Result as ShhcResult};
use shhc_workload::RestoreSpec;

fn service(nodes: u32) -> BackupService<FixedChunker, MemChunkStore> {
    let cluster = ShhcCluster::spawn(ClusterConfig::small_test(nodes)).unwrap();
    BackupService::new(
        cluster,
        FixedChunker::new(256),
        MemChunkStore::new(1 << 20),
        32,
    )
}

#[test]
fn restore_entry_points_are_byte_exact() {
    let spec = RestoreSpec::open_loop(1, 120).with_chunk_size(256);
    let data = spec.client_data(0);
    let svc = service(2);
    let report = svc.backup(StreamId::new(1), &data).unwrap();

    let replay = svc
        .restore_with(&report.manifest, RestoreConfig::new(7))
        .unwrap();
    assert_eq!(replay.data, data);
    assert_eq!(svc.restore(&report.manifest).unwrap(), data);
    assert_eq!(svc.restore_pipelined(&report.manifest).unwrap(), data);

    // Every fingerprint was recorded at backup time, so the advisory
    // locate audit finds the whole manifest.
    assert_eq!(replay.chunks, report.manifest.len());
    assert_eq!(replay.bytes, data.len() as u64);
    assert_eq!(replay.located, replay.chunks, "full locate coverage");
    assert_eq!(replay.mismatched, 0);
    assert_eq!(replay.skipped, 0);
    assert!(!replay.degraded);
    assert!((replay.locate_coverage() - 1.0).abs() < 1e-12);
    svc.cluster().clone().shutdown().unwrap();
}

#[test]
fn odd_batch_shapes_stay_byte_exact() {
    let svc = service(2);
    let spec = RestoreSpec::open_loop(1, 33).with_chunk_size(256);
    let data = spec.client_data(0);
    let report = svc.backup(StreamId::new(9), &data).unwrap();
    assert_eq!(report.manifest.len(), 33);
    // 33 is one batch for the whole manifest, 34 and 64 are larger than
    // it: one worker gets no batch at all.
    for batch in [1, 2, 5, 33, 34, 64] {
        let replay = svc
            .restore_with(&report.manifest, RestoreConfig::new(batch))
            .unwrap();
        assert_eq!(replay.data, data, "batch={batch}");
        assert_eq!(
            replay.located + replay.mismatched + replay.skipped,
            replay.chunks,
            "batch={batch}: the audit accounts for every entry"
        );
        assert_eq!(replay.located, replay.chunks, "batch={batch}");
    }
    // An empty manifest restores to nothing.
    let empty = BackupManifest::new(StreamId::new(10));
    assert!(svc.restore(&empty).unwrap().is_empty());
    svc.cluster().clone().shutdown().unwrap();
}

#[test]
fn concurrent_restores_and_churning_backups_stay_byte_exact() {
    // Two clients replay their manifests while two other sessions churn
    // fresh backups through the same service handle: the replays must
    // come back byte-exact every pass.
    let svc = service(2);
    let spec = RestoreSpec::open_loop(2, 60).with_chunk_size(256);
    let payloads = spec.client_payloads();
    let manifests: Vec<BackupManifest> = payloads
        .iter()
        .enumerate()
        .map(|(c, data)| svc.backup(StreamId::new(c as u32), data).unwrap().manifest)
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        for churner in 0..2u64 {
            let svc = svc.clone();
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let churn_spec = RestoreSpec::open_loop(2, 24)
                    .with_chunk_size(256)
                    .with_seed(0xC0FF_EE00 + churner);
                let mut round = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    let data = churn_spec.client_data(churner as usize);
                    let report = svc
                        .backup(StreamId::new(100 + churner as u32 * 50 + round), &data)
                        .unwrap();
                    svc.delete_backup(&report.manifest).unwrap();
                    round += 1;
                }
            });
        }
        let mut restorers = Vec::new();
        for (c, (manifest, data)) in manifests.iter().zip(&payloads).enumerate() {
            let svc = svc.clone();
            restorers.push(scope.spawn(move || {
                for pass in 0..6 {
                    let restored = svc
                        .restore_with(manifest, RestoreConfig::new(8))
                        .unwrap()
                        .data;
                    assert_eq!(&restored, data, "client {c} pass {pass}");
                }
            }));
        }
        for r in restorers {
            r.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });
    svc.cluster().clone().shutdown().unwrap();
}

/// A store whose reads take real time — long enough that a whole-replay
/// lock hold would visibly starve writers.
struct SlowStore {
    inner: MemChunkStore,
    read_delay: Duration,
}

impl ChunkStore for SlowStore {
    fn put(&mut self, fingerprint: Fingerprint, data: Vec<u8>) -> ShhcResult<ChunkId> {
        self.inner.put(fingerprint, data)
    }
    fn get(&self, id: ChunkId) -> ShhcResult<Vec<u8>> {
        std::thread::sleep(self.read_delay);
        self.inner.get(id)
    }
    fn get_many(&self, ids: &[ChunkId]) -> ShhcResult<Vec<Vec<u8>>> {
        std::thread::sleep(self.read_delay * ids.len() as u32);
        self.inner.get_many(ids)
    }
    fn fingerprint_of(&self, id: ChunkId) -> ShhcResult<Fingerprint> {
        self.inner.fingerprint_of(id)
    }
    fn add_ref(&mut self, id: ChunkId) -> ShhcResult<()> {
        self.inner.add_ref(id)
    }
    fn release(&mut self, id: ChunkId) -> ShhcResult<u32> {
        self.inner.release(id)
    }
    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}

#[test]
fn long_restore_does_not_starve_backup_writers() {
    // Regression for the whole-replay lock hold: with the store read
    // lock scoped per batch, a writer gets in *mid-restore* instead of
    // queueing behind the entire replay.
    let cluster = ShhcCluster::spawn(ClusterConfig::small_test(2)).unwrap();
    let store = SlowStore {
        inner: MemChunkStore::new(1 << 20),
        read_delay: Duration::from_millis(3),
    };
    let svc = BackupService::new(cluster, FixedChunker::new(256), store, 32);

    let spec = RestoreSpec::open_loop(1, 150).with_chunk_size(256);
    let data = spec.client_data(0);
    let manifest = svc.backup(StreamId::new(1), &data).unwrap().manifest;

    let restore_done = Arc::new(AtomicBool::new(false));
    let started = Arc::new(Barrier::new(2));
    std::thread::scope(|scope| {
        {
            let svc = svc.clone();
            let restore_done = Arc::clone(&restore_done);
            let started = Arc::clone(&started);
            scope.spawn(move || {
                started.wait();
                // ≈150 × 3 ms of gated reads, lock released every 4.
                let restored = svc.restore_with(&manifest, RestoreConfig::new(4)).unwrap();
                restore_done.store(true, Ordering::SeqCst);
                assert_eq!(restored.data, data);
            });
        }
        started.wait();
        // Give the replay a head start so the write genuinely contends.
        std::thread::sleep(Duration::from_millis(30));
        let small = RestoreSpec::open_loop(1, 4)
            .with_chunk_size(256)
            .with_seed(77)
            .client_data(0);
        svc.backup(StreamId::new(2), &small).unwrap();
        assert!(
            !restore_done.load(Ordering::SeqCst),
            "backup should complete while the restore is still replaying"
        );
    });
    svc.cluster().clone().shutdown().unwrap();
}

/// What runs over the cold archive before each hot re-ingest round.
enum Interference {
    None,
    /// A full restore (Bypass locates).
    Restore,
    /// The same locate sweep a restore makes, with Normal admission: the
    /// cache pollution the Bypass hint exists to avoid.
    NormalSweep,
}

/// Ingest hot-set RAM hit ratio after 3 rounds of re-backing-up the hot
/// payload, with `interference` over the cold manifest before each round.
fn hot_set_hit_ratio(interference: Interference) -> f64 {
    // Pin the node shape: the cache-pollution mechanics under test live
    // in the single-backend node cache (reader-pool nodes answer queries
    // from mirrors and never touch it).
    let mut node_config = NodeConfig::small_test();
    node_config.cache_capacity = 256;
    node_config.backend = BackendKind::Single;
    node_config.readers = 0;
    let cluster = ShhcCluster::spawn(ClusterConfig::new(2, node_config)).unwrap();
    let svc = BackupService::new(
        cluster,
        FixedChunker::new(256),
        MemChunkStore::new(1 << 20),
        32,
    );

    // A cold archive much larger than the cache, then a hot payload that
    // fits it comfortably.
    let cold = RestoreSpec::open_loop(1, 1024)
        .with_chunk_size(256)
        .with_redundancy(0.0)
        .client_data(0);
    let hot = RestoreSpec::open_loop(1, 64)
        .with_chunk_size(256)
        .with_redundancy(0.0)
        .with_seed(0x401)
        .client_data(0);
    let cold_manifest = svc.backup(StreamId::new(1), &cold).unwrap().manifest;
    svc.backup(StreamId::new(2), &hot).unwrap();

    for round in 0..3u32 {
        match interference {
            Interference::None => {}
            Interference::Restore => {
                let restored = svc.restore(&cold_manifest).unwrap();
                assert_eq!(restored, cold);
            }
            Interference::NormalSweep => {
                let fps: Vec<Fingerprint> = cold_manifest
                    .entries
                    .iter()
                    .map(|e| e.fingerprint)
                    .collect();
                for batch in fps.chunks(RestoreConfig::default().batch) {
                    let (exists, _) = svc
                        .cluster()
                        .query_batch_values_with(batch, Admission::Normal)
                        .unwrap();
                    assert!(exists.iter().all(|e| *e));
                }
            }
        }
        // Re-ingest the hot set: every chunk is a duplicate, counted as
        // a RAM or flash hit depending on where the restore left it.
        svc.backup(StreamId::new(10 + round), &hot).unwrap();
    }

    let stats = svc.cluster().stats().unwrap();
    let (ram, ssd) = stats.nodes.iter().fold((0u64, 0u64), |(r, s), n| {
        (r + n.stats.ram_hits, s + n.stats.ssd_hits)
    });
    svc.cluster().clone().shutdown().unwrap();
    assert!(ram + ssd > 0, "hot re-ingest must classify duplicates");
    ram as f64 / (ram + ssd) as f64
}

#[test]
fn bypass_restore_preserves_ingest_hit_rate() {
    let undisturbed = hot_set_hit_ratio(Interference::None);
    let with_restore = hot_set_hit_ratio(Interference::Restore);
    let with_normal = hot_set_hit_ratio(Interference::NormalSweep);

    // The scan-resistant (Bypass) restore leaves the ingest working set
    // resident: at least 90 % of the undisturbed hit rate.
    assert!(
        with_restore >= 0.9 * undisturbed,
        "restore flushed the hot set: {with_restore:.3} vs {undisturbed:.3}"
    );
    // The same sweep with Normal admission reads through the cache and
    // evicts the hot set — proof the contrast above measures the hint.
    assert!(
        with_normal < with_restore,
        "expected a normal-admission sweep to pollute the cache: \
         normal {with_normal:.3} vs restore {with_restore:.3}"
    );
}

#[test]
fn dead_index_node_degrades_audit_not_data() {
    let svc = service(3);
    let spec = RestoreSpec::open_loop(1, 80).with_chunk_size(256);
    let data = spec.client_data(0);
    let manifest = svc.backup(StreamId::new(1), &data).unwrap().manifest;

    svc.cluster().kill_node(NodeId::new(1)).unwrap();

    let report = svc.restore_with(&manifest, RestoreConfig::new(8)).unwrap();
    assert_eq!(report.data, data, "restore survives a dead node");
    assert!(report.degraded, "locate audit must flag the dead node");
    assert!(report.skipped > 0, "skips locates after failure");
    assert!(
        report.located + report.mismatched + report.skipped == report.chunks,
        "audit accounts for every entry"
    );
    svc.cluster().clone().shutdown().unwrap();
}

/// How long a failing restore may take before the test calls it a hang.
const HANG_LIMIT: Duration = Duration::from_secs(60);

/// Runs one restore on its own thread and fails the test if it has not
/// returned within [`HANG_LIMIT`]. `restore_with` joins its helper
/// worker before returning, so a return also proves that worker did not
/// leak.
fn restore_bounded<S>(
    svc: &BackupService<FixedChunker, S>,
    manifest: &BackupManifest,
    config: RestoreConfig,
) -> ShhcResult<RestoreReport>
where
    S: ChunkStore + Send + Sync + 'static,
{
    let (tx, rx) = std::sync::mpsc::channel();
    let (svc, manifest) = (svc.clone(), manifest.clone());
    std::thread::spawn(move || {
        let _ = tx.send(svc.restore_with(&manifest, config));
    });
    rx.recv_timeout(HANG_LIMIT)
        .expect("restore hung instead of returning")
}

/// Entries per restore batch in the damage tests: a 40-chunk manifest
/// is five batches.
const DAMAGE_BATCH: usize = 8;

/// Chunk payload size in the damage tests. Every container record is the
/// 24-byte header plus this, so a chunk's file offset follows from its
/// slot.
const DAMAGE_CHUNK: usize = 256;

/// An on-disk store that can hold one batch back: while `gate` is
/// `Some((held, opener))`, a `get_many` asking for chunk `held` waits
/// until one asking for `opener` has returned. One worker then sits on
/// the held batch while the other takes every later batch up to the
/// opener's, so the held batch finishes last, whichever worker took it.
struct LaggingStore {
    inner: FileChunkStore,
    gate: std::sync::Mutex<Option<(ChunkId, ChunkId)>>,
    open: std::sync::Mutex<bool>,
    opened: std::sync::Condvar,
}

impl ChunkStore for LaggingStore {
    fn put(&mut self, fingerprint: Fingerprint, data: Vec<u8>) -> ShhcResult<ChunkId> {
        self.inner.put(fingerprint, data)
    }
    fn get(&self, id: ChunkId) -> ShhcResult<Vec<u8>> {
        self.inner.get(id)
    }
    fn get_many(&self, ids: &[ChunkId]) -> ShhcResult<Vec<Vec<u8>>> {
        let gate = *self.gate.lock().unwrap();
        if gate.is_some_and(|(held, _)| ids.contains(&held)) {
            // Bounded, so a restore that never asks for the opener ends.
            let open = self.open.lock().unwrap();
            drop(
                self.opened
                    .wait_timeout_while(open, HANG_LIMIT / 4, |open| !*open)
                    .unwrap(),
            );
        }
        let blobs = self.inner.get_many(ids);
        if gate.is_some_and(|(_, opener)| ids.contains(&opener)) {
            *self.open.lock().unwrap() = true;
            self.opened.notify_all();
        }
        blobs
    }
    fn fingerprint_of(&self, id: ChunkId) -> ShhcResult<Fingerprint> {
        self.inner.fingerprint_of(id)
    }
    fn add_ref(&mut self, id: ChunkId) -> ShhcResult<()> {
        self.inner.add_ref(id)
    }
    fn release(&mut self, id: ChunkId) -> ShhcResult<u32> {
        self.inner.release(id)
    }
    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}

/// A service over a fresh on-disk store (seven records per container
/// file) holding one 40-chunk backup of distinct chunks.
struct DiskRig {
    dir: std::path::PathBuf,
    svc: BackupService<FixedChunker, LaggingStore>,
    data: Vec<u8>,
    manifest: BackupManifest,
}

impl DiskRig {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("shhc_restore_damage_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = LaggingStore {
            inner: FileChunkStore::open(&dir, 2048).unwrap(),
            gate: Default::default(),
            open: Default::default(),
            opened: Default::default(),
        };
        let cluster = ShhcCluster::spawn(ClusterConfig::small_test(2)).unwrap();
        let svc = BackupService::new(cluster, FixedChunker::new(DAMAGE_CHUNK), store, 32);
        let data = RestoreSpec::open_loop(1, 40)
            .with_chunk_size(DAMAGE_CHUNK)
            .with_redundancy(0.0)
            .client_data(0);
        let manifest = svc.backup(StreamId::new(1), &data).unwrap().manifest;
        assert_eq!(manifest.len(), 40);
        assert!(svc.store().stats().containers >= 4);
        DiskRig {
            dir,
            svc,
            data,
            manifest,
        }
    }

    fn container(&self, container: u32) -> std::path::PathBuf {
        self.dir.join(format!("c{container:05}.ctr"))
    }

    /// Flips one payload byte of manifest entry `index`'s chunk on disk;
    /// a second call undoes it.
    fn flip(&self, index: usize) {
        let id = self.manifest.entries[index].chunk;
        let path = self.container(id.container());
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[id.slot() as usize * (24 + DAMAGE_CHUNK) + 24 + 5] ^= 0x40;
        std::fs::write(&path, bytes).unwrap();
    }

    fn restore(&self) -> ShhcResult<RestoreReport> {
        restore_bounded(&self.svc, &self.manifest, RestoreConfig::new(DAMAGE_BATCH))
    }

    /// Holds the batch of manifest entry `held` back until the batch of
    /// entry `opener` has been fetched, for the next restore (`None`:
    /// no gate).
    fn hold_back(&self, pair: Option<(usize, usize)>) {
        let store = self.svc.store();
        let chunk = |i: usize| self.manifest.entries[i].chunk;
        *store.gate.lock().unwrap() = pair.map(|(held, opener)| (chunk(held), chunk(opener)));
        *store.open.lock().unwrap() = false;
    }

    /// The undamaged store restores byte-exact: no worker of an earlier
    /// failed restore is left holding a lock or a batch.
    fn assert_clean_restore(&self) {
        let replay = self.restore().expect("clean restore");
        assert_eq!(replay.data, self.data);
        assert_eq!(replay.located, replay.chunks);
    }
}

impl Drop for DiskRig {
    fn drop(&mut self) {
        self.svc.cluster().clone().shutdown().ok();
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

#[test]
fn flipped_payload_byte_is_never_restored() {
    let rig = DiskRig::new("flip");
    rig.assert_clean_restore();
    // Entry 10 lies in the second batch.
    rig.flip(10);
    match rig.restore() {
        Err(Error::Corruption(_)) => {}
        other => panic!("a flipped byte must fail the restore, got {other:?}"),
    }
    rig.flip(10);
    rig.assert_clean_restore();
}

#[test]
fn two_corrupt_batches_report_the_lower_index() {
    let rig = DiskRig::new("two");
    // On disk: payloads in batches 1 and 3. `get_many` finds both and
    // names the chunk; the lower batch's must win every time, also when
    // it is held back until the higher one has failed (odd runs).
    let (low, high) = (DAMAGE_BATCH + 3, 3 * DAMAGE_BATCH + 2);
    rig.flip(low);
    rig.flip(high);
    let low_chunk = format!("chunk {} ", rig.manifest.entries[low].chunk);
    for run in 0..50 {
        rig.hold_back((run % 2 == 1).then_some((low, high)));
        match rig.restore() {
            Err(Error::Corruption(msg)) => {
                assert!(msg.starts_with(&low_chunk), "run {run}: {msg}")
            }
            other => panic!("run {run}: expected corruption, got {other:?}"),
        }
    }
    rig.flip(low);
    rig.flip(high);
    rig.assert_clean_restore();

    // In the manifest: wrong lengths in batches 1 and 3. The entry check
    // names the manifest index, and it must be the lower one.
    let mut tampered = rig.manifest.clone();
    tampered.entries[low].len += 1;
    tampered.entries[high].len += 1;
    let expected = format!(
        "manifest entry {low}: length {} but stored chunk has {DAMAGE_CHUNK}",
        DAMAGE_CHUNK + 1
    );
    for run in 0..50 {
        rig.hold_back((run % 2 == 1).then_some((low, high)));
        match restore_bounded(&rig.svc, &tampered, RestoreConfig::new(DAMAGE_BATCH)) {
            Err(Error::Corruption(msg)) => assert_eq!(msg, expected, "run {run}"),
            other => panic!("run {run}: expected corruption, got {other:?}"),
        }
    }
    rig.hold_back(None);
    rig.assert_clean_restore();
}

#[test]
fn swapped_container_files_are_never_restored() {
    let rig = DiskRig::new("swap");
    let (a, b) = (rig.container(1), rig.container(2));
    let parked = rig.dir.join("parked");
    let swap = || {
        std::fs::rename(&a, &parked).unwrap();
        std::fs::rename(&b, &a).unwrap();
        std::fs::rename(&parked, &b).unwrap();
    };
    swap();
    let outcome = rig.restore();
    assert!(
        outcome.is_err(),
        "mis-addressed chunks must fail the restore"
    );
    swap();
    rig.assert_clean_restore();
}

/// A store whose `get_many` fails exactly once, on its `fail_on`-th
/// call, and takes a few milliseconds on every other call.
struct FailingReads {
    inner: MemChunkStore,
    calls: std::sync::atomic::AtomicUsize,
    fail_on: usize,
}

impl ChunkStore for FailingReads {
    fn put(&mut self, fingerprint: Fingerprint, data: Vec<u8>) -> ShhcResult<ChunkId> {
        self.inner.put(fingerprint, data)
    }
    fn get(&self, id: ChunkId) -> ShhcResult<Vec<u8>> {
        self.inner.get(id)
    }
    fn get_many(&self, ids: &[ChunkId]) -> ShhcResult<Vec<Vec<u8>>> {
        let call = self.calls.fetch_add(1, Ordering::SeqCst) + 1;
        if call == self.fail_on {
            return Err(Error::Io(format!("injected failure on get_many {call}")));
        }
        std::thread::sleep(Duration::from_millis(2));
        self.inner.get_many(ids)
    }
    fn fingerprint_of(&self, id: ChunkId) -> ShhcResult<Fingerprint> {
        self.inner.fingerprint_of(id)
    }
    fn add_ref(&mut self, id: ChunkId) -> ShhcResult<()> {
        self.inner.add_ref(id)
    }
    fn release(&mut self, id: ChunkId) -> ShhcResult<u32> {
        self.inner.release(id)
    }
    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}

#[test]
fn failing_read_stops_both_workers() {
    const FAIL_ON: usize = 5;
    let cluster = ShhcCluster::spawn(ClusterConfig::small_test(2)).unwrap();
    let store = FailingReads {
        inner: MemChunkStore::new(1 << 20),
        calls: Default::default(),
        fail_on: FAIL_ON,
    };
    let svc = BackupService::new(cluster, FixedChunker::new(256), store, 32);
    let data = RestoreSpec::open_loop(1, 40)
        .with_chunk_size(256)
        .client_data(0);
    let manifest = svc.backup(StreamId::new(1), &data).unwrap().manifest;

    // 20 batches of 2; the fifth fetch fails.
    let err = restore_bounded(&svc, &manifest, RestoreConfig::new(2))
        .expect_err("the injected read failure");
    assert_eq!(
        err,
        Error::Io(format!("injected failure on get_many {FAIL_ON}"))
    );
    let calls = svc.store().calls.load(Ordering::SeqCst);
    assert!(
        calls <= FAIL_ON + 1,
        "{calls} fetches: the other worker kept taking batches after the failure"
    );

    let replay = restore_bounded(&svc, &manifest, RestoreConfig::new(2)).unwrap();
    assert_eq!(replay.data, data);
    svc.cluster().clone().shutdown().unwrap();
}
