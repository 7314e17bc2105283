//! The two-thread `BackupService::backup` (a cutter thread streams cut
//! points and then fingerprints chunks from the back, the caller
//! fingerprints from the front until the two meet) against a model built
//! from `Chunker::chunk`, plus its failure paths: a failing store or a
//! dead cluster must surface as an error promptly, with the cutter thread
//! joined and the service still usable.
//!
//! CI runs this suite in `--release` as well, where the two threads
//! interleave differently from debug builds.

use std::collections::HashSet;
use std::sync::mpsc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use shhc::prelude::*;
use shhc_storage::StoreStats;
use shhc_types::ChunkId;

/// How long a failing backup may take before the test calls it a hang.
const HANG_LIMIT: Duration = Duration::from_secs(60);

fn roomy_cluster() -> ShhcCluster {
    let mut node_config = NodeConfig::small_test();
    node_config.flash = shhc_flash::FlashConfig::medium_test();
    node_config.cache_capacity = 4_096;
    ShhcCluster::spawn(ClusterConfig::new(2, node_config)).unwrap()
}

fn random_data(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

/// `len` bytes of one random 100 KiB block repeated: chunks recur
/// across lookup windows and cut blocks.
fn repetitive_data(len: usize, seed: u64) -> Vec<u8> {
    random_data(100 * 1024, seed)
        .into_iter()
        .cycle()
        .take(len)
        .collect()
}

/// What `backup` must report, derived from `Chunker::chunk` and the set
/// of fingerprints the service has already stored.
struct Model<'a, C> {
    chunker: &'a C,
    seen: HashSet<Fingerprint>,
}

impl<C: Chunker> Model<'_, C> {
    fn check(&mut self, report: &BackupReport, data: &[u8], what: &str) {
        let chunks: Vec<_> = self.chunker.chunk(data).collect();
        let expected: Vec<(Fingerprint, u32)> = chunks
            .iter()
            .map(|c| (c.fingerprint, c.len() as u32))
            .collect();
        let got: Vec<(Fingerprint, u32)> = report
            .manifest
            .entries
            .iter()
            .map(|e| (e.fingerprint, e.len))
            .collect();
        assert_eq!(got, expected, "{what}: manifest");
        let new = chunks
            .iter()
            .filter(|c| self.seen.insert(c.fingerprint))
            .count();
        assert_eq!(report.total_chunks, chunks.len(), "{what}: total");
        assert_eq!(report.new_chunks, new, "{what}: new");
        assert_eq!(
            report.duplicate_chunks,
            chunks.len() - new,
            "{what}: duplicate"
        );
        assert_eq!(report.logical_bytes, data.len() as u64, "{what}: logical");
    }
}

/// Input sizes around every edge of the byte path: empty, one byte,
/// either side of the minimum chunk, the maximum chunk, and a long
/// odd-sized input.
fn edge_sizes(min: usize, max: usize) -> Vec<usize> {
    vec![0, 1, min - 1, min, max, (4 << 20) + 17]
}

fn check_against_model<C: Chunker + Clone + Send>(chunker: C, min: usize, max: usize) {
    let svc = BackupService::new(
        roomy_cluster(),
        chunker.clone(),
        MemChunkStore::new(1 << 20),
        64,
    );
    let mut model = Model {
        chunker: &chunker,
        seen: HashSet::new(),
    };
    let mut inputs: Vec<Vec<u8>> = edge_sizes(min, max)
        .into_iter()
        .map(|len| random_data(len, len as u64))
        .collect();
    inputs.push(repetitive_data((4 << 20) + 17, 1));
    // Every chunk alike: the two threads' claims meet over duplicates.
    inputs.push(vec![0; (4 << 20) + 17]);
    // One chunk as long as the chunker makes it: the helper may hash it
    // before the caller gets there, so they meet at chunk 0.
    let mut one_chunk = random_data(max, 3);
    one_chunk.truncate(chunker.cut(&one_chunk));
    assert_eq!(chunker.boundaries(&one_chunk).len(), 1);
    inputs.push(one_chunk);
    for (i, data) in inputs.iter().enumerate() {
        for pass in ["first", "second"] {
            let what = format!("input {i} ({} B), {pass} backup", data.len());
            let report = svc.backup(StreamId::new(i as u32), data).unwrap();
            model.check(&report, data, &what);
            if pass == "second" {
                assert_eq!(report.new_chunks, 0, "{what}: fully deduplicated");
            }
            assert_eq!(
                svc.restore(&report.manifest).unwrap(),
                *data,
                "{what}: restore"
            );
        }
    }
    svc.cluster().clone().shutdown().unwrap();
}

#[test]
fn gear_backup_matches_chunk_model() {
    check_against_model(GearChunker::new(2048, 8192, 65536), 2048, 65536);
}

#[test]
fn rabin_backup_matches_chunk_model() {
    check_against_model(RabinChunker::new(2048, 8192, 65536), 2048, 65536);
}

#[test]
fn fixed_backup_matches_chunk_model() {
    check_against_model(FixedChunker::new(4096), 4096, 4096);
}

/// A store whose `put` fails exactly once, on its `fail_at`-th call.
struct FailingStore {
    inner: MemChunkStore,
    puts: usize,
    fail_at: usize,
}

impl ChunkStore for FailingStore {
    fn put(&mut self, fingerprint: Fingerprint, data: Vec<u8>) -> Result<ChunkId> {
        self.puts += 1;
        if self.puts == self.fail_at {
            return Err(Error::Io(format!("injected failure on put {}", self.puts)));
        }
        self.inner.put(fingerprint, data)
    }
    fn get(&self, id: ChunkId) -> Result<Vec<u8>> {
        self.inner.get(id)
    }
    fn get_many(&self, ids: &[ChunkId]) -> Result<Vec<Vec<u8>>> {
        self.inner.get_many(ids)
    }
    fn fingerprint_of(&self, id: ChunkId) -> Result<Fingerprint> {
        self.inner.fingerprint_of(id)
    }
    fn add_ref(&mut self, id: ChunkId) -> Result<()> {
        self.inner.add_ref(id)
    }
    fn release(&mut self, id: ChunkId) -> Result<u32> {
        self.inner.release(id)
    }
    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}

/// Runs one backup on its own thread and fails the test if it has not
/// returned within [`HANG_LIMIT`]. `backup` joins its cutter thread
/// before returning, so a return also proves that thread did not leak.
fn backup_bounded<C, S>(svc: &BackupService<C, S>, stream: u32, data: &[u8]) -> Result<BackupReport>
where
    C: Chunker + Send + 'static,
    S: ChunkStore + Send + Sync + 'static,
{
    let (tx, rx) = mpsc::channel();
    let (svc, data) = (svc.clone(), data.to_vec());
    std::thread::spawn(move || {
        let _ = tx.send(svc.backup(StreamId::new(stream), &data));
    });
    rx.recv_timeout(HANG_LIMIT)
        .expect("backup hung instead of returning its error")
}

/// Small chunks, so a 4 MiB input has ≈ 4 000 cuts: a backup that fails
/// early leaves the cutter thread cutting or hashing from the back, and
/// it must still stop.
fn small_gear() -> GearChunker {
    GearChunker::new(256, 1024, 8192)
}

#[test]
fn small_gear_backup_matches_chunk_model() {
    check_against_model(small_gear(), 256, 8192);
}

#[test]
fn failing_put_errors_promptly_and_leaves_service_usable() {
    let chunker = small_gear();
    let data = random_data(4 << 20, 7);
    let chunks = chunker.boundaries(&data).len();
    // Fail early (inside the first lookup window, with the cutter far
    // ahead) and late (in the last window, the cutter done).
    for fail_at in [3, chunks - 5] {
        let store = FailingStore {
            inner: MemChunkStore::new(1 << 20),
            puts: 0,
            fail_at,
        };
        let svc = BackupService::new(roomy_cluster(), chunker, store, 64);

        let err = backup_bounded(&svc, 1, &data).expect_err("the injected put failure");
        assert!(matches!(err, Error::Io(_)), "unexpected error {err:?}");

        let report = backup_bounded(&svc, 2, &data).expect("the service recovers");
        assert_eq!(
            report.new_chunks + report.duplicate_chunks,
            report.total_chunks
        );
        assert_eq!(svc.restore(&report.manifest).unwrap(), data);
        svc.cluster().clone().shutdown().unwrap();
    }
}

#[test]
fn shut_down_cluster_errors_promptly() {
    let chunker = small_gear();
    let cluster = roomy_cluster();
    let svc = BackupService::new(cluster.clone(), chunker, MemChunkStore::new(1 << 20), 64);
    cluster.shutdown().unwrap();
    let data = random_data(4 << 20, 9);
    backup_bounded(&svc, 1, &data).expect_err("lookups against a shut-down cluster");
}
