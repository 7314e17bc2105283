//! Self-tuning equivalence suite.
//!
//! Every knob the PR-8 controllers turn — shard key ranges, per-shard
//! cache capacities — is a *performance* dial. This suite pins down the
//! invariant that makes closed-loop tuning safe to enable by default: the
//! tuned system returns byte-identical answers to the untuned one for the
//! same submission sequence. (Batch close limits left this list when
//! demand close made them nothing to tune; where batch boundaries fall
//! still must not change an answer, and the first test keeps that.)

use std::time::Duration;

use shhc::{
    AutotuneOptions, ClusterConfig, Durability, LookupAnswer, NodeConfig, SharedFrontend,
    ShhcCluster,
};
use shhc_types::Fingerprint;
use shhc_workload::SkewSpec;

/// A Zipf-clustered trace: hot ranks map to adjacent routing keys, the
/// worst case for a uniform shard split.
fn zipf_trace(ops: usize, seed: u64) -> Vec<Fingerprint> {
    SkewSpec::zipf_clustered(ops, 4_000, 1.1, seed).fingerprints()
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

#[test]
fn answers_do_not_depend_on_where_batches_close() {
    let trace = zipf_trace(600, 11);
    let reference = ShhcCluster::spawn(ClusterConfig::small_test(2)).unwrap();
    let want = drive(
        &SharedFrontend::new(reference.clone(), 8, FOREVER),
        &trace,
        50,
    );

    // Size limits below, at and far above the wave: mostly size closes
    // with a demand-closed tail, one demand close per wave, and waves of
    // one (every batch a single demanded fingerprint).
    for (batch_size, wave) in [(2, 50), (64, 50), (1000, 50), (1000, 1)] {
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

#[test]
fn autotune_resplit_preserves_answers_and_rebalances() {
    // Volatile four-shard node: the clustered hot set lands entirely on
    // shard 0 under the uniform split.
    let config = NodeConfig::small_test()
        .with_shards(4)
        .with_durability(Durability::Volatile);
    let cluster = ShhcCluster::spawn(ClusterConfig::new(1, config)).unwrap();
    let hot: Vec<Fingerprint> = (0..300).map(|i| Fingerprint::from_u64(i * 1000)).collect();
    let (exists0, _) = cluster.lookup_insert_batch_values(&hot).unwrap();
    assert!(exists0.iter().all(|e| !e), "first sighting is new");
    // Distinct recorded values, so the re-split has real values to carry.
    let recorded: Vec<(Fingerprint, u64)> = hot.iter().zip(7_000..).map(|(f, v)| (*f, v)).collect();
    cluster.record_batch(&recorded).unwrap();
    // Second pass returns each entry's recorded value — the baseline
    // the re-split must preserve byte-for-byte.
    let (exists1, values1) = cluster.lookup_insert_batch_values(&hot).unwrap();
    assert!(exists1.iter().all(|e| *e));

    let opts = AutotuneOptions {
        imbalance_threshold: 1.2,
        ..AutotuneOptions::default()
    };
    let report = &cluster.autotune(opts).unwrap()[0];
    assert_eq!(report.shards, 4);
    assert!(
        report.imbalance > 2.0,
        "clustered keys must overload one shard, got {}",
        report.imbalance
    );
    assert!(report.resplit, "volatile node re-splits: {report:?}");
    assert!(report.moved_entries > 0, "hot prefix entries re-home");

    // Same answers after the re-split: every entry still exists with
    // the value recorded before.
    let (exists2, values2) = cluster.lookup_insert_batch_values(&hot).unwrap();
    assert!(exists2.iter().all(|e| *e), "entries survive the re-split");
    assert_eq!(values2, values1, "values survive the re-split");

    // The re-split spread the hot range: replaying the trace and tuning
    // again reports a milder imbalance.
    cluster.lookup_insert_batch(&hot).unwrap();
    let report2 = &cluster.autotune(opts).unwrap()[0];
    assert!(
        report2.imbalance < report.imbalance,
        "imbalance must fall after the re-split: {} -> {}",
        report.imbalance,
        report2.imbalance
    );

    // The hot-shard signal is visible through cluster stats.
    let stats = cluster.stats().unwrap();
    assert_eq!(stats.nodes[0].shard_loads.len(), 4);
    assert!(stats.nodes[0].load_imbalance() >= 1.0);
    cluster.shutdown().unwrap();
}

#[test]
fn autotune_declines_resplit_on_wal_nodes() {
    // WAL restart replays into the uniform router, so a durable node
    // must refuse to move entries between shards — while still serving
    // identical answers and still allowed to shift cache capacity.
    let dir = std::env::temp_dir().join(format!("shhc-autotune-wal-{}", std::process::id()));
    let config = NodeConfig::small_test()
        .with_shards(4)
        .with_durability(Durability::wal(&dir));
    let cluster = ShhcCluster::spawn(ClusterConfig::new(1, config)).unwrap();
    let hot: Vec<Fingerprint> = (0..200).map(|i| Fingerprint::from_u64(i * 500)).collect();
    cluster.lookup_insert_batch(&hot).unwrap();
    let (_, values1) = cluster.lookup_insert_batch_values(&hot).unwrap();

    let opts = AutotuneOptions {
        imbalance_threshold: 1.2,
        ..AutotuneOptions::default()
    };
    let report = &cluster.autotune(opts).unwrap()[0];
    assert!(!report.resplit, "durable nodes decline re-splitting");
    assert_eq!(report.moved_entries, 0);
    assert!(report.imbalance > 1.2, "the signal itself is still read");

    let (exists2, values2) = cluster.lookup_insert_batch_values(&hot).unwrap();
    assert!(exists2.iter().all(|e| *e));
    assert_eq!(values2, values1);
    cluster.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn autotune_is_a_noop_on_single_threaded_nodes() {
    let config = NodeConfig::small_test().with_shards(1);
    let cluster = ShhcCluster::spawn(ClusterConfig::new(2, config)).unwrap();
    let fps: Vec<Fingerprint> = (0..50).map(Fingerprint::from_u64).collect();
    cluster.lookup_insert_batch(&fps).unwrap();
    let reports = cluster.autotune(AutotuneOptions::default()).unwrap();
    assert_eq!(reports.len(), 2);
    for r in &reports {
        assert_eq!(r.shards, 1);
        assert!(!r.resplit);
        assert!(r.cache_shift.is_none());
    }
    let again = cluster.lookup_insert_batch(&fps).unwrap();
    assert!(again.iter().all(|e| *e));
    cluster.shutdown().unwrap();
}

#[test]
fn autotune_shifts_cache_capacity_toward_the_missing_shard() {
    let config = NodeConfig::small_test()
        .with_shards(4)
        .with_durability(Durability::Volatile);
    let cluster = ShhcCluster::spawn(ClusterConfig::new(1, config)).unwrap();
    // Populate everywhere, then hammer the low prefix (shard 0) with a
    // working set far beyond its cache share so its recent misses
    // dominate.
    let spread: Vec<Fingerprint> = (0..64)
        .map(|i: u64| Fingerprint::from_u64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .collect();
    cluster.lookup_insert_batch(&spread).unwrap();
    let hot: Vec<Fingerprint> = (0..600).map(Fingerprint::from_u64).collect();
    for _ in 0..4 {
        cluster.lookup_insert_batch(&hot).unwrap();
    }
    let opts = AutotuneOptions {
        // Leave the ranges alone so the cache shift is isolated, and
        // scale the sizer to the test nodes' small per-shard caches
        // (64 total / 4 shards = 16 each).
        resplit: false,
        sizer: shhc::SizerConfig {
            min_capacity: 4,
            step: 8,
            hysteresis: 2.0,
        },
        ..AutotuneOptions::default()
    };
    let report = &cluster.autotune(opts).unwrap()[0];
    let shift = report
        .cache_shift
        .expect("skewed misses move cache capacity");
    assert_eq!(shift.to, 0, "the missing shard receives: {shift:?}");
    assert!(shift.entries > 0);
    // Still byte-identical afterwards.
    let again = cluster.lookup_insert_batch(&hot).unwrap();
    assert!(again.iter().all(|e| *e));
    cluster.shutdown().unwrap();
}
