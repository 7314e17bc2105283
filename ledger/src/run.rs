//! One benchmark run: set up, warm, measure, verify, report.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use shhc::SharedFrontend;
use shhc_storage::ChunkStore;

use crate::bytes::{self, SLICE};
use crate::host;
use crate::json::{number, quote};
use crate::layers::{self, Capture, Kernels};
use crate::lookup::{self, WindowGen};
use crate::phase::Phase;
use crate::span::{totals_by_name, NameTotals, Recorder};
use crate::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{highest_supported_quantile, quantile_sorted};
use crate::sut::{frontend_since, Counts, FrontendCounts};

// lookup_* sizes: one bulk-loaded index for both workloads.
const POPULATION: u64 = 6_000_000;
/// RAM cache entries per node: 2 % of the index over the two nodes.
const CACHE_ENTRIES: usize = 64 * 1024;
/// The paper's Figure 5 batch size.
const COLD_WINDOW: usize = 2048;
/// New fingerprints per cold window: one in ten.
const COLD_FRESH: usize = 205;
/// Cold windows this commit completes per second on this host, between
/// the speeds it runs at (see README: 115 to 205 at different hours).
const COLD_WINDOWS_PER_S: f64 = 180.0;
const COLD_WARM_WINDOWS: usize = 64;

const PACED_RATE: f64 = 50_000.0;
const PACED_WINDOW: usize = 32;
/// New fingerprints per paced window: 15.6 %.
const PACED_FRESH: usize = 5;
/// Half the two RAM caches, so new fingerprints never push it out.
const PACED_HOT_SET: u64 = 32 * 1024;
const PACED_BATCH: usize = 512;
const PACED_MAX_AGE: Duration = Duration::from_millis(2);
const PACED_WARM_WINDOWS: usize = 1000;
/// Latency limit a paced window is held to.
const PACED_SLO: Duration = Duration::from_millis(5);

// *_bytes sizes.
const INGEST_SLICES: usize = 128;
/// 16 KiB extents overwritten per generation: 0.8 % of the image, which
/// re-stores about 1.7 % of it once chunk boundaries resettle.
const INGEST_EXTENTS: usize = 256;
/// Backup calls this commit completes per second on this host.
const INGEST_OPS_PER_S: f64 = 60.0;
/// Warm-up: this many slices backed up again, unmutated.
const INGEST_WARM_OPS: usize = 64;
/// After the run every this-many-th slice is restored and compared.
const INGEST_VERIFY_STEP: usize = 4;

const RESTORE_SLICES: usize = 64;
const RESTORE_EXTRA_GENERATIONS: usize = 2;
const RESTORE_EXTENTS: usize = 128;
/// Restore calls this commit completes per second on this host.
const RESTORE_OPS_PER_S: f64 = 65.0;
/// Slices of the image handed to the byte-side kernels of a traced run.
const KERNEL_SLICES: usize = 2;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u32,
    pub trace: bool,
    /// Where a traced run writes its spans.
    pub out_dir: std::path::PathBuf,
}

/// Everything one run measured.
struct Outcome {
    /// Spawn, input generation, load and warm-up: one set-up, wall clock.
    setup_s: f64,
    /// The untraced measured phase: every end-to-end metric comes from it.
    phase: Phase,
    /// The traced phase of a `--trace 1` run.
    traced: Option<Phase>,
    spans: Recorder,
    stored_per_logical: f64,
    inputs_digest: u64,
    /// Wrong answers outside the measured ops (set-up, warm-up, verify).
    failed_outside: u64,
    peak_rss_mib: f64,
    counts: Counts,
    frontend: FrontendCounts,
    batch_fill: f64,
    /// State growth over the measured phase (index entries or stored
    /// bytes), as a share of the state at its start.
    growth: f64,
    storage_containers: u64,
    /// The workload's own inputs, for the kernel pass of a traced run.
    capture: Option<Capture>,
    comments: Vec<String>,
}

pub fn run(args: &Args) -> Result<(), String> {
    if !WORKLOADS.iter().any(|w| w.name == args.workload) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    let outcome = match args.workload.as_str() {
        "ingest_bytes" => ingest_bytes(args),
        "lookup_cold" => lookup_cold(args),
        "lookup_paced" => lookup_paced(args),
        _ => restore_bytes(args),
    };
    report(args, outcome)
}

/// Splits a run's ops into the untraced phase and, on a traced run, an
/// equal traced phase; neither is ever empty.
fn split_ops(total: usize, trace: bool) -> (usize, usize) {
    if trace {
        let total = total.max(2);
        (total / 2, total - total / 2)
    } else {
        (total.max(1), 0)
    }
}

/// What the index held when a traced lookup phase began and what the
/// phase then offered, rebuilt from the generator's state at that point.
fn lookup_capture(
    args: &Args,
    mut gen_at_trace: WindowGen,
    windows: usize,
    window: usize,
) -> Capture {
    Capture {
        seed: args.seed,
        loaded: (0..gen_at_trace.known)
            .map(|i| crate::gen::fingerprint(args.seed, i))
            .collect(),
        offered: (0..windows)
            .flat_map(|_| gen_at_trace.next_window().fps)
            .collect(),
        window,
        cache_entries: CACHE_ENTRIES,
        data: Vec::new(),
    }
}

fn lookup_cold(args: &Args) -> Outcome {
    let t0 = Instant::now();
    let rig = lookup::Rig::setup(args.seed, POPULATION, CACHE_ENTRIES);
    let frontend = SharedFrontend::new(
        rig.cluster.clone(),
        COLD_WINDOW,
        Duration::from_secs(1), // never reached: every window closes on size
    );
    let mut gen = WindowGen::new(&rig, 1, COLD_WINDOW, COLD_FRESH, None);
    let mut off = Recorder::new(false);
    let warm = lookup::cold_phase(&rig, &frontend, &mut gen, COLD_WARM_WINDOWS, &mut off);
    let setup_s = t0.elapsed().as_secs_f64();

    let windows = (f64::from(args.seconds) * COLD_WINDOWS_PER_S).round() as usize;
    let (plain, traced_ops) = split_ops(windows, args.trace);
    let before = Counts::snapshot(&rig.cluster);
    let fe_before = frontend.stats();
    let (offered0, fresh0) = (gen.offered, gen.fresh);
    let phase = lookup::cold_phase(&rig, &frontend, &mut gen, plain, &mut off);
    let peak_rss_mib = host::peak_rss_mib();
    let gen_at_trace = gen.clone();
    let mut spans = Recorder::new(args.trace);
    let traced = args
        .trace
        .then(|| lookup::cold_phase(&rig, &frontend, &mut gen, traced_ops, &mut spans));
    let after = Counts::snapshot(&rig.cluster);
    let fe = frontend_since(&frontend.stats(), &fe_before);
    let batch_fill = fe.batch_fill(&frontend);

    // Every fingerprint the oracle calls known must be in the index, and
    // nothing else: the entry count is the second witness.
    let entries_ok = after.entries == gen.known;
    let setup_failed = rig.setup_failed;
    drop(frontend);
    rig.shutdown();
    Outcome {
        setup_s,
        stored_per_logical: (gen.fresh - fresh0) as f64 / (gen.offered - offered0) as f64,
        inputs_digest: gen.digest.value(),
        failed_outside: setup_failed + warm.failed + u64::from(!entries_ok),
        peak_rss_mib,
        counts: after.since(&before),
        frontend: fe,
        batch_fill,
        growth: (after.entries - before.entries) as f64 / before.entries as f64,
        storage_containers: 0,
        capture: args
            .trace
            .then(|| lookup_capture(args, gen_at_trace, traced_ops, COLD_WINDOW)),
        comments: vec![format!(
            "index entries {} -> {} (oracle {})",
            before.entries, after.entries, gen.known
        )],
        phase,
        traced,
        spans,
    }
}

fn lookup_paced(args: &Args) -> Outcome {
    let t0 = Instant::now();
    let rig = lookup::Rig::setup(args.seed, POPULATION, CACHE_ENTRIES);
    let frontend = SharedFrontend::new(rig.cluster.clone(), PACED_BATCH, PACED_MAX_AGE);
    let gap = Duration::from_secs_f64(PACED_WINDOW as f64 / PACED_RATE);
    let mut off = Recorder::new(false);
    // Warm-up: pull the hot set into the RAM caches, then run the paced
    // loop briefly so threads and allocators reach their steady state.
    let mut failed_outside = rig.setup_failed;
    let hot: Vec<_> = (0..PACED_HOT_SET)
        .map(|i| crate::gen::fingerprint(args.seed, i))
        .collect();
    for chunk in hot.chunks(COLD_WINDOW) {
        let existed = rig
            .cluster
            .lookup_insert_batch(chunk)
            .expect("hot-set warm-up");
        failed_outside += existed.iter().filter(|e| !**e).count() as u64;
    }
    let mut gen = WindowGen::new(&rig, 1, PACED_WINDOW, PACED_FRESH, Some(PACED_HOT_SET));
    let warm = lookup::paced_phase(&frontend, &mut gen, PACED_WARM_WINDOWS, gap, &mut off);
    failed_outside += warm.failed;
    let setup_s = t0.elapsed().as_secs_f64();

    let windows = (f64::from(args.seconds) * PACED_RATE / PACED_WINDOW as f64).round() as usize;
    let (plain, traced_ops) = split_ops(windows, args.trace);
    let before = Counts::snapshot(&rig.cluster);
    let fe_before = frontend.stats();
    let (offered0, fresh0) = (gen.offered, gen.fresh);
    let phase = lookup::paced_phase(&frontend, &mut gen, plain, gap, &mut off);
    let peak_rss_mib = host::peak_rss_mib();
    let gen_at_trace = gen.clone();
    let mut spans = Recorder::new(args.trace);
    let traced = args
        .trace
        .then(|| lookup::paced_phase(&frontend, &mut gen, traced_ops, gap, &mut spans));
    let after = Counts::snapshot(&rig.cluster);
    let fe = frontend_since(&frontend.stats(), &fe_before);
    let batch_fill = fe.batch_fill(&frontend);
    failed_outside += u64::from(after.entries != gen.known);
    // A request here is a batch the front-end closed on age.
    let mean_batch = (fe.fingerprints / fe.batches.max(1)).max(2) as usize;

    drop(frontend);
    rig.shutdown();
    Outcome {
        setup_s,
        stored_per_logical: (gen.fresh - fresh0) as f64 / (gen.offered - offered0) as f64,
        inputs_digest: gen.digest.value(),
        failed_outside,
        peak_rss_mib,
        counts: after.since(&before),
        frontend: fe,
        batch_fill,
        growth: (after.entries - before.entries) as f64 / before.entries as f64,
        storage_containers: 0,
        capture: args
            .trace
            .then(|| lookup_capture(args, gen_at_trace, traced_ops, mean_batch)),
        comments: vec![format!(
            "index entries {} -> {} (oracle {}); schedule {} fp/s in windows of {}",
            before.entries, after.entries, gen.known, PACED_RATE, PACED_WINDOW
        )],
        phase,
        traced,
        spans,
    }
}

/// The fingerprints of `manifests`, in manifest order.
fn manifest_fps<'a>(
    manifests: impl IntoIterator<Item = &'a shhc_storage::BackupManifest>,
) -> Vec<shhc_types::Fingerprint> {
    manifests
        .into_iter()
        .flat_map(|m| m.entries.iter().map(|e| e.fingerprint))
        .collect()
}

fn ingest_bytes(args: &Args) -> Outcome {
    let t0 = Instant::now();
    let mut rig = bytes::Rig::setup(args.seed, INGEST_SLICES * SLICE);
    let mut off = Recorder::new(false);
    // Warm-up: the same operation on the first slices. The image is not
    // mutated, so it stores nothing new.
    let mut warm_failed = 0;
    for slice in 0..INGEST_WARM_OPS.min(rig.slices()) {
        warm_failed += u64::from(!rig.rebackup(slice));
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let generations = ((f64::from(args.seconds) * INGEST_OPS_PER_S) / rig.slices() as f64)
        .round()
        .max(1.0) as usize;
    let (plain, traced_gens) = split_ops(generations, args.trace);
    let cluster = rig.service.cluster().clone();
    let frontend = rig.service.frontend().clone();
    let before = Counts::snapshot(&cluster);
    let fe_before = frontend.stats();
    let stored0 = rig.service.store().stats().bytes;
    let phase = bytes::ingest_phase(&mut rig, plain, INGEST_EXTENTS, &mut off);
    let peak_rss_mib = host::peak_rss_mib();
    let stored_per_logical = rig.stored_per_logical();
    let stored1 = rig.service.store().stats().bytes;
    let loaded = args.trace.then(|| manifest_fps(&rig.manifests));
    let mut spans = Recorder::new(args.trace);
    let traced = args
        .trace
        .then(|| bytes::ingest_phase(&mut rig, traced_gens, INGEST_EXTENTS, &mut spans));
    let after = Counts::snapshot(&cluster);
    let fe = frontend_since(&frontend.stats(), &fe_before);
    let batch_fill = fe.batch_fill(&frontend);
    // The newest manifests must restore to the image as it now is. On a
    // traced run the odd slices went through the staged replay, which
    // keeps no manifests; the step is even, so only even ones are read.
    let verify_bad = rig.verify_image(INGEST_VERIFY_STEP);
    let store_stats = rig.service.store().stats();
    // What the traced phase's real-path calls offered last: the even
    // slices' newest manifests.
    let capture = loaded.map(|loaded| Capture {
        seed: args.seed,
        loaded,
        offered: manifest_fps(rig.manifests.iter().step_by(2)),
        window: bytes::LOOKUP_WINDOW,
        cache_entries: bytes::CACHE_ENTRIES,
        data: rig.image.data[..KERNEL_SLICES * SLICE].to_vec(),
    });

    let outcome = Outcome {
        setup_s,
        stored_per_logical,
        inputs_digest: rig.digest.value(),
        failed_outside: rig.setup_failed + warm_failed + verify_bad,
        peak_rss_mib,
        counts: after.since(&before),
        frontend: fe,
        batch_fill,
        growth: (stored1 - stored0) as f64 / stored0 as f64,
        storage_containers: store_stats.containers,
        capture,
        comments: vec![format!(
            "chunk store {} -> {} bytes in {} chunks; {} generations of {} slices",
            stored0,
            stored1,
            store_stats.chunks,
            plain,
            rig.slices()
        )],
        phase,
        traced,
        spans,
    };
    drop(frontend);
    drop(cluster);
    rig.shutdown();
    outcome
}

fn restore_bytes(args: &Args) -> Outcome {
    let t0 = Instant::now();
    let mut rig = bytes::Rig::setup(args.seed, RESTORE_SLICES * SLICE);
    let generations =
        bytes::build_generations(&mut rig, RESTORE_EXTRA_GENERATIONS, RESTORE_EXTENTS);
    let mut off = Recorder::new(false);
    let n = generations.len();
    // Warm-up: one restore of every fourth manifest.
    let warm = {
        let few: bytes::Generations = generations.iter().step_by(4).cloned().collect();
        bytes::restore_phase(&rig, &few, 1, &mut off)
    };
    let setup_s = t0.elapsed().as_secs_f64();

    let passes = ((f64::from(args.seconds) * RESTORE_OPS_PER_S) / n as f64)
        .round()
        .max(1.0) as usize;
    let (plain, traced_passes) = split_ops(passes, args.trace);
    let cluster = rig.service.cluster().clone();
    let before = Counts::snapshot(&cluster);
    let phase = bytes::restore_phase(&rig, &generations, plain, &mut off);
    let peak_rss_mib = host::peak_rss_mib();
    let mut spans = Recorder::new(args.trace);
    let traced = args
        .trace
        .then(|| bytes::restore_phase(&rig, &generations, traced_passes, &mut spans));
    let after = Counts::snapshot(&cluster);
    let store_stats = rig.service.store().stats();
    let mut digest = rig.digest;
    digest.word(n as u64);
    // The index holds every generation's chunks; a pass locates them all.
    let capture = args.trace.then(|| {
        let fps = manifest_fps(generations.iter().map(|(m, _)| m));
        Capture {
            seed: args.seed,
            loaded: fps.clone(),
            offered: fps,
            window: bytes::RESTORE_BATCH,
            cache_entries: bytes::CACHE_ENTRIES,
            data: rig.image.data[..KERNEL_SLICES * SLICE].to_vec(),
        }
    });

    let outcome = Outcome {
        setup_s,
        stored_per_logical: rig.stored_per_logical(),
        inputs_digest: digest.value(),
        failed_outside: rig.setup_failed + warm.failed,
        peak_rss_mib,
        counts: after.since(&before),
        frontend: FrontendCounts::default(),
        batch_fill: 0.0,
        growth: 0.0,
        storage_containers: store_stats.containers,
        capture,
        comments: vec![format!(
            "{} manifests of {} MiB over {} generations, {} passes; chunk store {} bytes",
            n,
            SLICE >> 20,
            RESTORE_EXTRA_GENERATIONS + 1,
            plain,
            store_stats.bytes
        )],
        phase,
        traced,
        spans,
    };
    drop(cluster);
    rig.shutdown();
    outcome
}

/// Prints the run's comment lines and, last, its one JSON result line.
fn report(args: &Args, o: Outcome) -> Result<(), String> {
    let phase = &o.phase;
    let failed = phase.failed + o.failed_outside;
    let correct = failed == 0;
    let mut sorted = phase.op_ns.clone();
    sorted.sort_unstable();
    let top_q = highest_supported_quantile(sorted.len(), 10);
    let host_spread = host::speed_spread(&phase.calibration);

    println!(
        "# {} seed {} seconds {} trace {}: {} ops, {:.0} units, measured {:.2} s (busy {:.2} s), inputs_digest {:016x}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        phase.ops(),
        phase.units(),
        phase.wall_ns as f64 / 1e9,
        phase.busy_ns as f64 / 1e9,
        o.inputs_digest
    );
    for c in &o.comments {
        println!("# {c}");
    }
    println!(
        "# failed/attempted {}/{} = {:.6}; state growth over the measured phase {:.3}",
        failed,
        phase.ops(),
        failed as f64 / phase.ops().max(1) as f64,
        o.growth
    );
    let q = phase.quarter_p50_us();
    println!(
        "# op p50 us by quarter of the ops: {:.1} {:.1} {:.1} {:.1}",
        q[0], q[1], q[2], q[3]
    );
    if phase.late_ns.is_empty() {
        let q = phase.quarter_work_per_s();
        println!(
            "# work_per_s by quarter of the ops: {:.0} {:.0} {:.0} {:.0}",
            q[0], q[1], q[2], q[3]
        );
    }
    println!(
        "# op latency us: p99 {:.1} p{:.2} {:.1} max {:.1} over {} samples",
        quantile_sorted(&sorted, 0.99) as f64 / 1e3,
        top_q * 100.0,
        quantile_sorted(&sorted, top_q) as f64 / 1e3,
        sorted.last().copied().unwrap_or(0) as f64 / 1e3,
        sorted.len()
    );
    println!(
        "# generator share {:.4}; host speed spread {:.3} over {} samples of the calibration kernel (mean {:.0} ns); threads available {}",
        phase.gen_share(),
        host_spread,
        phase.calibration.len(),
        phase.calibration.iter().sum::<u64>() as f64 / phase.calibration.len().max(1) as f64,
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    if !phase.late_ns.is_empty() {
        let mut late = phase.late_ns.clone();
        let n = late.len();
        let tail_mean = late[n - n / 4..].iter().sum::<u64>() as f64 / (n / 4).max(1) as f64;
        let head_mean = late[..n / 4].iter().sum::<u64>() as f64 / (n / 4).max(1) as f64;
        late.sort_unstable();
        println!(
            "# generator lateness us: p50 {:.1} p99 {:.1} max {:.1}; mean first quarter {:.1}, last quarter {:.1} (a growing backlog shows as a rise)",
            quantile_sorted(&late, 0.5) as f64 / 1e3,
            quantile_sorted(&late, 0.99) as f64 / 1e3,
            late[n - 1] as f64 / 1e3,
            head_mean / 1e3,
            tail_mean / 1e3
        );
    }

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let kernels = layers::run(o.capture.as_ref().expect("a traced run captures"));
        let values = layer_values(args, &o, &kernels, host_spread);
        print_span_totals(&o.spans);
        let path = args.out_dir.join(format!("{}.trace.jsonl", args.workload));
        o.spans
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!(
            "# {} spans written to {}",
            o.spans.spans().len(),
            path.display()
        );
        PER_LAYER
            .iter()
            .map(|m| {
                let v = values
                    .get(m.name)
                    .copied()
                    .unwrap_or_else(|| panic!("per-layer metric {} has no value", m.name));
                (m.name, m.unit, v)
            })
            .collect()
    } else {
        let value = |name: &str| match name {
            "setup_s" => o.setup_s,
            "work_per_s" => phase.work_per_s(),
            "op_p50_us" => quantile_sorted(&sorted, 0.5) as f64 / 1e3,
            "op_p90_us" => quantile_sorted(&sorted, 0.9) as f64 / 1e3,
            "stored_per_logical" => o.stored_per_logical,
            "peak_rss_mb" => o.peak_rss_mib,
            other => panic!("end-to-end metric {other} has no value"),
        };
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, value(m.name)))
            .collect()
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                number(*v),
                quote(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        phase.ops(),
        body.join(", ")
    );
    Ok(())
}

fn per(total: &NameTotals, units: f64) -> f64 {
    total.total_ns as f64 / units.max(1.0)
}

/// Every per-layer metric of a traced run. Timings of single layers
/// come from the kernel pass; counts from the stats deltas of the
/// measured phases; `core.*_self_*` and the window round trips from the
/// spans; each reconciliation row only on the workload it reconciles.
fn layer_values(
    args: &Args,
    o: &Outcome,
    k: &Kernels,
    host_spread: f64,
) -> BTreeMap<&'static str, f64> {
    let mut v: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
    let traced = o.traced.as_ref().expect("traced phase");
    let spans = totals_by_name(o.spans.spans());
    let span = |name: &str| spans.get(name).copied().unwrap_or_default();
    let c = &o.counts;
    let lookups = (c.ram_hits + c.ssd_hits + c.inserted).max(1) as f64;
    let kops = c.node_ops().max(1) as f64 / 1e3;
    let workload = args.workload.as_str();

    v.insert("hash.sha1_ns_per_kib", k.sha1_ns_per_kib);
    v.insert("chunking.gear_ns_per_kib", k.gear_ns_per_kib());
    v.insert("chunking.mean_chunk_bytes", k.mean_chunk_bytes);
    v.insert("storage.put_ns_per_kib", k.put_ns_per_kib);
    v.insert("storage.get_many_ns_per_kib", k.get_many_ns_per_kib);
    v.insert("storage.containers", o.storage_containers as f64);
    v.insert("ring.replicas_into_ns", k.replicas_into_ns);
    v.insert("net.submit_ns_per_fp", k.submit_ns_per_fp);
    v.insert("net.ticket_wake_ns", k.ticket_wake_ns);
    v.insert("net.encode_ns_per_fp", k.encode_ns_per_fp);
    v.insert("net.decode_ns_per_fp", k.decode_ns_per_fp);
    v.insert("net.batch_fill", o.batch_fill);
    v.insert("net.closed_by_age_share", o.frontend.closed_by_age_share());
    v.insert("net.queue_delay_p50_us", o.frontend.delay_p50_us);
    v.insert("net.queue_delay_p99_us", o.frontend.delay_p99_us);
    v.insert("bloom.contains_ns", k.bloom_contains_ns);
    v.insert("bloom.insert_ns", k.bloom_insert_ns);
    v.insert("cache.get_hit_ns", k.cache_get_hit_ns);
    v.insert(
        "cache.hit_ratio",
        c.cache_hits as f64 / (c.cache_hits + c.cache_misses).max(1) as f64,
    );
    v.insert("cache.get_miss_ns", k.cache_get_miss_ns);
    v.insert("cache.insert_evict_ns", k.cache_insert_evict_ns);
    v.insert("cache.evictions_per_kop", c.cache_evictions as f64 / kops);
    v.insert("flash.get_ns", k.flash_get_ns);
    v.insert("flash.get_batch_ns_per_fp", k.flash_get_batch_ns_per_fp);
    v.insert("flash.put_ns", k.flash_put_ns);
    v.insert(
        "flash.pages_scanned_per_probe",
        k.flash_pages_scanned_per_probe,
    );
    v.insert("flash.coalesced_share", k.flash_coalesced_share);
    v.insert(
        "flash.write_amp",
        if c.user_programs == 0 {
            1.0
        } else {
            (c.user_programs + c.gc_programs) as f64 / c.user_programs as f64
        },
    );
    v.insert("flash.flushes", k.flash_flushes);
    v.insert("flash.compactions", k.flash_compactions);
    v.insert("flash.reads_per_kop", c.device_reads as f64 / kops);
    v.insert("index.single_get_ns", k.index_single_get_ns);
    v.insert("index.striped_get_ns", k.index_striped_get_ns);
    v.insert("index.striped_insert_ns", k.index_striped_insert_ns);
    v.insert(
        "node.lookup_insert_batch_ns_per_fp",
        k.node_lookup_insert_ns_per_fp,
    );
    v.insert("node.query_many_ns_per_fp", k.node_query_many_ns_per_fp);
    v.insert("node.bloom_skip_share", c.bloom_skips as f64 / lookups);
    v.insert(
        "node.bloom_fp_share",
        c.bloom_false_positives as f64 / lookups,
    );
    v.insert("node.ram_hit_share", c.ram_hits as f64 / lookups);
    v.insert("node.ssd_hit_share", c.ssd_hits as f64 / lookups);
    v.insert("node.load_imbalance", c.load_imbalance);
    v.insert("node.queue_peak", c.queue_peak as f64);
    v.insert("core.channel_hop_ns", k.channel_hop_ns);
    v.insert("core.record_batch_ns_per_fp", k.record_batch_ns_per_fp);

    // In the traced phase of a closed-loop workload even ops took the
    // real path and odd ops the staged (or direct-to-cluster) one; the
    // open loop has one path.
    let mean = |xs: &[u64]| xs.iter().sum::<u64>() as f64 / xs.len().max(1) as f64;
    let (real, other): (Vec<u64>, Vec<u64>) = if workload == "lookup_paced" {
        (traced.op_ns.clone(), Vec::new())
    } else {
        (
            traced.op_ns.iter().step_by(2).copied().collect(),
            traced.op_ns.iter().skip(1).step_by(2).copied().collect(),
        )
    };
    let kib_per_op = (SLICE / 1024) as f64;
    let staged_kib = other.len() as f64 * kib_per_op;
    let fps_per_kib = 1024.0 / k.mean_chunk_bytes;
    let e2e_per_unit = o.phase.busy_ns as f64 / o.phase.units();
    let unexplained = |sum: f64| 1.0 - sum / e2e_per_unit;
    match workload {
        "lookup_cold" => {
            let rtt = mean(&other) / COLD_WINDOW as f64;
            v.insert("core.cluster_rtt_ns_per_fp", rtt);
            v.insert(
                "core.frontend_ns_per_fp",
                mean(&real) / COLD_WINDOW as f64 - rtt,
            );
            let mut direct = other.clone();
            direct.sort_unstable();
            v.insert(
                "core.window_rtt_p50_us",
                quantile_sorted(&direct, 0.5) as f64 / 1e3,
            );
            v.insert(
                "core.window_rtt_p99_us",
                quantile_sorted(&direct, 0.99) as f64 / 1e3,
            );
            let sum = k.lookup_path_ns_per_fp(COLD_WINDOW);
            v.insert("recon.lookup_sum_ns_per_fp", sum);
            v.insert("recon.lookup_e2e_ns_per_fp", e2e_per_unit);
            v.insert("recon.lookup_unexplained_share", unexplained(sum));
        }
        "ingest_bytes" => {
            // `hash.sha1` is left out: `chunking.chunk` already hashes.
            let stages: f64 = [
                "chunking.chunk",
                "net.submit",
                "net.wait",
                "storage.put",
                "core.record_batch",
            ]
            .iter()
            .map(|n| per(&span(n), staged_kib))
            .sum();
            v.insert(
                "core.backup_self_ns_per_kib",
                mean(&real) / kib_per_op - stages,
            );
            let new_share = c.inserted as f64 / lookups;
            let sum = k.chunk_ns_per_kib
                + k.put_ns_per_kib * new_share
                + fps_per_kib
                    * (k.lookup_path_ns_per_fp(512) + new_share * k.record_batch_ns_per_fp);
            v.insert("recon.ingest_sum_ns_per_kib", sum);
            v.insert("recon.ingest_e2e_ns_per_kib", e2e_per_unit);
            v.insert("recon.ingest_unexplained_share", unexplained(sum));
        }
        "restore_bytes" => {
            let stages = per(&span("core.query_batch"), staged_kib)
                + per(&span("storage.get_many"), staged_kib);
            v.insert(
                "core.restore_self_ns_per_kib",
                mean(&real) / kib_per_op - stages,
            );
            let sum = k.get_many_ns_per_kib + fps_per_kib * k.query_path_ns_per_fp(64);
            v.insert("recon.restore_sum_ns_per_kib", sum);
            v.insert("recon.restore_e2e_ns_per_kib", e2e_per_unit);
            v.insert("recon.restore_unexplained_share", unexplained(sum));
        }
        _ => {}
    }

    let mut late = o.phase.late_ns.clone();
    late.sort_unstable();
    v.insert(
        "loadgen.late_p99_us",
        quantile_sorted(&late, 0.99) as f64 / 1e3,
    );
    if workload == "lookup_paced" {
        let slo = PACED_SLO.as_nanos() as u64;
        let missed = o.phase.op_ns.iter().filter(|ns| **ns > slo).count() as u64 + o.phase.failed;
        v.insert(
            "loadgen.slo_miss_share",
            missed as f64 / o.phase.ops().max(1) as f64,
        );
    }
    v.insert("loadgen.gen_share", o.phase.gen_share());
    v.insert("loadgen.op_p99_us", o.phase.op_quantile_us(0.99));
    // Real-path ops only: the traced phase's staged and direct ops do
    // different work, so they say nothing about what tracing costs.
    v.insert(
        "loadgen.trace_overhead_share",
        mean(&real) / mean(&o.phase.op_ns) - 1.0,
    );
    v.insert("loadgen.host_speed_spread", host_spread);

    v
}

/// Where the traced phase's staged ops spent their time, for the
/// ledger's layer split: printed, not gated.
fn print_span_totals(spans: &Recorder) {
    let totals = totals_by_name(spans.spans());
    let staged: Vec<(&str, NameTotals)> = totals
        .iter()
        .filter(|(name, _)| !name.ends_with(".op"))
        .map(|(name, t)| (*name, *t))
        .collect();
    let staged_total: u64 = staged.iter().map(|(_, t)| t.total_ns).sum();
    for (name, t) in &staged {
        println!(
            "# span {name}: {} spans, {:.1} ms total, {:.3} of staged time",
            t.count,
            t.total_ns as f64 / 1e6,
            t.total_ns as f64 / staged_total.max(1) as f64
        );
    }
}
