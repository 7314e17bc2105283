//! Extension — surviving 2× saturation: bounded admission on one shared
//! front-end under open-loop overload.
//!
//! A front-end with an unbounded queue degrades catastrophically past
//! saturation: the queue grows without bound, every admitted request
//! inherits the full backlog's delay, and goodput collapses exactly when
//! demand peaks. This harness drives one [`SharedFrontend`] — its
//! aggregation capacity modeled by a token-bucket [`IngestModel`] and its
//! queue bounded by a shedding [`AdmissionPolicy`] — with an
//! **open-loop** client population ([`OverloadSpec`]: thousands of
//! simulated clients on precomputed arrival schedules, so the offered
//! rate does not slow down when the system does) swept from 0.5× to 2×
//! the front-end's saturation rate.
//!
//! Expected shape: goodput climbs with offered load up to saturation and
//! then *stays flat* — the admission gate sheds the excess at the door
//! (`Error::Overloaded` in microseconds) instead of queueing it, so at
//! 2× offered load goodput holds ≥ 0.9× its peak and the p99 latency of
//! *admitted* requests stays within 2× of its 1×-load value. Emits
//! `results/ext_overload.csv` plus `BENCH_overload.json` at the
//! workspace root. Set `SHHC_OVERLOAD_QUICK=1` for a CI smoke run.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use shhc::{
    AdmissionPolicy, ClusterConfig, FrontendConfig, IngestModel, NodeConfig, SharedFrontend,
    ShhcCluster,
};
use shhc_bench::{banner, overload_quick, write_bench_json, write_csv};
use shhc_types::Nanos;
use shhc_workload::OverloadSpec;

struct Scenario {
    nodes: u32,
    /// Offered-load sweep, as multiples of the front-end's saturation
    /// rate.
    offered_mults: Vec<f64>,
    /// Modeled aggregation capacity of the front-end, submissions/s.
    per_fe_rate: f64,
    workers: usize,
    clients_per_worker: usize,
    duration: Nanos,
    batch_size: usize,
    max_age: Duration,
}

struct Measured {
    offered_per_sec: f64,
    submitted: u64,
    shed: u64,
    answered_ok: u64,
    errors: u64,
    elapsed: Duration,
    goodput_per_sec: f64,
    shed_rate: f64,
    admitted_p99: Option<Duration>,
    admitted_p999: Option<Duration>,
    node_queue_peak: u64,
}

fn spawn_cluster(scenario: &Scenario) -> ShhcCluster {
    let mut node_config = NodeConfig::small_test();
    node_config.flash = shhc_flash::FlashConfig::medium_test();
    node_config.cache_capacity = 16_384;
    node_config.batch_overhead = Duration::from_micros(100);
    ShhcCluster::spawn(ClusterConfig::new(scenario.nodes, node_config)).expect("spawn cluster")
}

/// One sweep point: a fresh cluster + front-end, driven open-loop at
/// `offered` submissions/s until the schedule and every admitted ticket
/// drain.
fn drive(scenario: &Scenario, offered: f64) -> Measured {
    let cluster = spawn_cluster(scenario);
    let config = FrontendConfig::new(scenario.batch_size, scenario.max_age)
        .admission(AdmissionPolicy::Shed { max_pending: 4096 })
        .ingest(IngestModel::per_sec(scenario.per_fe_rate));
    let frontend = SharedFrontend::with_config(cluster.clone(), config);
    let spec = OverloadSpec::new(
        scenario.workers,
        scenario.clients_per_worker,
        offered,
        scenario.duration,
    );

    let barrier = Arc::new(Barrier::new(scenario.workers + 1));
    let mut handles = Vec::new();
    for w in 0..scenario.workers {
        let schedule = spec.worker_schedule(w);
        let frontend = frontend.clone();
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            let start = Instant::now();
            let mut shed = 0u64;
            let mut tickets = Vec::with_capacity(schedule.len());
            for arrival in schedule {
                // Open loop: sleep only while ahead of schedule; a late
                // worker submits immediately and catches up in a burst.
                let due = arrival.at.to_duration();
                let now = start.elapsed();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let tenant = Some(u32::from(arrival.client));
                let (ticket, was_shed) = frontend.submit_from(tenant, arrival.fingerprint);
                if was_shed {
                    shed += 1;
                } else {
                    tickets.push(ticket);
                }
            }
            (shed, tickets)
        }));
    }
    barrier.wait();
    let start = Instant::now();
    let mut shed = 0u64;
    let mut tickets = Vec::new();
    for h in handles {
        let (s, t) = h.join().expect("worker");
        shed += s;
        tickets.extend(t);
    }
    // Tail: answer the last partial batches now, not at the age limit.
    let _ = frontend.flush();
    let mut answered_ok = 0u64;
    let mut errors = 0u64;
    for t in tickets {
        match t.wait_timeout(Duration::from_secs(30)) {
            Ok(_) => answered_ok += 1,
            Err(_) => errors += 1,
        }
    }
    let elapsed = start.elapsed();
    let stats = frontend.stats();
    let node_queue_peak = cluster
        .stats()
        .map(|s| s.max_queue_peak())
        .unwrap_or_default();
    cluster.shutdown().expect("shutdown");
    let submitted = answered_ok + errors + shed;
    Measured {
        offered_per_sec: offered,
        submitted,
        shed,
        answered_ok,
        errors,
        elapsed,
        goodput_per_sec: answered_ok as f64 / elapsed.as_secs_f64(),
        shed_rate: stats.shed_rate(),
        admitted_p99: stats.admitted_p99(),
        admitted_p999: stats.admitted_p999(),
        node_queue_peak,
    }
}

fn us(d: Option<Duration>) -> f64 {
    d.unwrap_or_default().as_secs_f64() * 1e6
}

fn main() {
    let quick = overload_quick();
    let scenario = if quick {
        Scenario {
            nodes: 2,
            offered_mults: vec![1.0, 2.0],
            per_fe_rate: 1_200.0,
            workers: 2,
            clients_per_worker: 64,
            duration: Nanos::from_millis(250),
            batch_size: 32,
            max_age: Duration::from_millis(2),
        }
    } else {
        Scenario {
            nodes: 2,
            offered_mults: vec![0.5, 1.0, 1.5, 2.0],
            per_fe_rate: 1_800.0,
            workers: 4,
            clients_per_worker: 512,
            duration: Nanos::from_millis(1_200),
            batch_size: 64,
            max_age: Duration::from_millis(2),
        }
    };
    banner(
        "Extension — overload: bounded admission on one shared front-end at 2× saturation",
        "a bounded, shedding front-end holds ≥0.9× peak goodput and ≤2× admitted p99 \
         at twice its saturation rate, instead of queue-collapsing (Figure-4 front-end)",
    );
    println!(
        "mode: {}, {} nodes, {} modeled fps/s front-end capacity, {} workers × {} simulated \
         clients, {} ms offered window, batch {} / {} ms age\n",
        if quick { "quick (CI smoke)" } else { "full" },
        scenario.nodes,
        scenario.per_fe_rate,
        scenario.workers,
        scenario.clients_per_worker,
        scenario.duration.as_nanos() / 1_000_000,
        scenario.batch_size,
        scenario.max_age.as_millis(),
    );

    println!(
        "{:>6} {:>9} {:>9} {:>8} {:>8} {:>9} {:>8} {:>10} {:>11} {:>7}",
        "mult", "offered", "submit", "shed", "ok", "goodput", "shed%", "p99_ms", "p999_ms", "nodeQ"
    );
    let mut rows = Vec::new();
    // (mult, measured) for the checks and the JSON record.
    let mut sweep: Vec<(f64, Measured)> = Vec::new();
    for &mult in &scenario.offered_mults {
        let m = drive(&scenario, scenario.per_fe_rate * mult);
        println!(
            "{mult:>5.1}x {:>9.0} {:>9} {:>8} {:>8} {:>9.0} {:>7.1}% {:>10.2} {:>11.2} {:>7}",
            m.offered_per_sec,
            m.submitted,
            m.shed,
            m.answered_ok,
            m.goodput_per_sec,
            m.shed_rate * 100.0,
            us(m.admitted_p99) / 1e3,
            us(m.admitted_p999) / 1e3,
            m.node_queue_peak,
        );
        rows.push(format!(
            "{mult},{:.0},{},{},{},{},{:.3},{:.0},{:.4},{:.1},{:.1},{}",
            m.offered_per_sec,
            m.submitted,
            m.shed,
            m.answered_ok,
            m.errors,
            m.elapsed.as_secs_f64() * 1e3,
            m.goodput_per_sec,
            m.shed_rate,
            us(m.admitted_p99),
            us(m.admitted_p999),
            m.node_queue_peak,
        ));
        sweep.push((mult, m));
    }

    println!("\nchecks:");
    let point = |mult: f64| {
        sweep
            .iter()
            .find(|(m, _)| (*m - mult).abs() < 1e-9)
            .map(|(_, m)| m)
    };
    let peak_goodput = sweep
        .iter()
        .map(|(_, m)| m.goodput_per_sec)
        .fold(0.0f64, f64::max);
    let (at_1x, at_2x) = (
        point(1.0).expect("the sweep includes 1×"),
        point(2.0).expect("the sweep includes 2×"),
    );
    let goodput_ratio = at_2x.goodput_per_sec / peak_goodput.max(1.0);
    let p99_ratio = us(at_2x.admitted_p99) / us(at_1x.admitted_p99).max(1.0);
    println!(
        "  goodput@2x / peak = {goodput_ratio:.2} (target ≥ 0.9); \
         admitted p99 @2x/@1x = {p99_ratio:.2} (target ≤ 2.0)"
    );

    // Quick (smoke) runs write under a distinct name so they can never
    // clobber the committed full-run artifacts.
    write_csv(
        if quick {
            "ext_overload_quick"
        } else {
            "ext_overload"
        },
        "offered_mult,offered_per_sec,submitted,shed,answered_ok,errors,elapsed_ms,\
         goodput_per_sec,shed_rate,admitted_p99_us,admitted_p999_us,node_queue_peak",
        &rows,
    );
    if quick {
        println!("quick mode: skipping BENCH_overload.json (full-run record)");
        return;
    }
    let entries: Vec<String> = sweep
        .iter()
        .map(|(mult, m)| {
            format!(
                "    {{\"offered_mult\": {mult}, \"offered_per_sec\": {:.0}, \
                 \"goodput_per_sec\": {:.0}, \"shed_rate\": {:.4}, \
                 \"admitted_p99_us\": {:.1}, \"admitted_p999_us\": {:.1}}}",
                m.offered_per_sec,
                m.goodput_per_sec,
                m.shed_rate,
                us(m.admitted_p99),
                us(m.admitted_p999),
            )
        })
        .collect();
    write_bench_json(
        "overload",
        &format!(
            "{{\n  \"bench\": \"ext_overload\",\n  \"quick\": {quick},\n  \
             \"nodes\": {},\n  \"per_fe_rate\": {},\n  \"workers\": {},\n  \
             \"clients\": {},\n  \"duration_ms\": {},\n  \"check\": {{\"peak_goodput_per_sec\": \
             {peak_goodput:.0}, \"goodput_2x_over_peak\": {goodput_ratio:.3}, \
             \"p99_2x_over_1x\": {p99_ratio:.3}}},\n  \"results\": [\n{}\n  ]\n}}\n",
            scenario.nodes,
            scenario.per_fe_rate,
            scenario.workers,
            scenario.workers * scenario.clients_per_worker,
            scenario.duration.as_nanos() / 1_000_000,
            entries.join(",\n")
        ),
    );
}
