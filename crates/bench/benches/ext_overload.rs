//! Extension — surviving 2× saturation: bounded admission on one shared
//! front-end under open-loop overload.
//!
//! A front-end with an unbounded queue degrades catastrophically past
//! saturation: the queue grows without bound, every admitted request
//! inherits the full backlog's delay, and goodput collapses exactly when
//! demand peaks. This harness puts one [`SharedFrontend`], its queue
//! bounded by a shedding [`AdmissionPolicy`], in front of a 2-node
//! cluster, finds where that system saturates, and then drives it past
//! that point:
//!
//! 1. **Probe (closed loop).** `max_pending / batch_size` clients each
//!    submit one window of `batch_size` fingerprints and wait for it,
//!    over and over; answered ÷ elapsed is the *measured peak goodput*.
//!    Together they hold exactly the admission bound, so nothing is
//!    shed.
//! 2. **Sweep (open loop).** An [`OverloadSpec`] client population
//!    (thousands of simulated clients on precomputed arrival schedules,
//!    so the offered rate does not slow down when the system does)
//!    offers 0.5×, 1×, 1.5× and 2× that measured peak to a fresh cluster
//!    behind the same front-end configuration. The admission bound is
//!    one value for the whole sweep.
//!
//! **Clock.** The bottleneck is a wall-clock sleep: each node thread
//! sleeps `NodeConfig::service_delay` per record of every frame it
//! answers (`server.rs`'s `sleep_service`). With the sleeps off the
//! code saturates above 1 M fingerprints/s (the ledger's `lookup_cold`),
//! which an open-loop generator on a 2-core host cannot offer twice over.
//! So the bench shows what admission does at a saturated cluster, not
//! what the code costs; `BENCH_overload.json` names the clock in its
//! `"clock"` field.
//!
//! Expected shape: goodput climbs with offered load up to the peak and
//! then *stays flat* — the admission gate sheds the excess at the door
//! (`Error::Overloaded` in microseconds) instead of queueing it, so at
//! 2× offered load goodput holds ≥ 0.9× the probe's peak and the p99
//! latency of *admitted* requests stays within 1.5× of its 1×-load
//! value. A miss is reported, not hidden. Emits
//! `results/ext_overload.csv` plus `BENCH_overload.json` at the
//! workspace root. Set `SHHC_OVERLOAD_QUICK=1` for a CI smoke run.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use shhc::{
    AdmissionPolicy, ClusterConfig, FrontendConfig, NodeConfig, SharedFrontend, ShhcCluster,
};
use shhc_bench::{banner, overload_quick, write_bench_json, write_csv};
use shhc_types::Nanos;
use shhc_workload::OverloadSpec;

/// Goodput at 2× offered load over the probe's peak must reach this.
const GOODPUT_TARGET: f64 = 0.9;
/// Admitted p99 at 2× over admitted p99 at 1× must stay below this.
const P99_TARGET: f64 = 1.5;

struct Scenario {
    nodes: u32,
    /// Wall-clock sleep per record a node answers: the cluster's cost.
    service_delay: Duration,
    /// Offered-load sweep, as multiples of the probe's measured peak.
    offered_mults: Vec<f64>,
    /// The one admission bound of the whole run (probe and sweep).
    max_pending: usize,
    /// Open-loop driver threads in the sweep.
    workers: usize,
    clients_per_worker: usize,
    /// Offered window of each sweep point; the probe starts windows for
    /// as long.
    duration: Nanos,
    batch_size: usize,
    max_age: Duration,
}

impl Scenario {
    fn frontend(&self, cluster: &ShhcCluster) -> SharedFrontend {
        let config =
            FrontendConfig::new(self.batch_size, self.max_age).admission(AdmissionPolicy::Shed {
                max_pending: self.max_pending,
            });
        SharedFrontend::with_config(cluster.clone(), config)
    }

    /// The most the nodes' sleeps allow: every node busy every moment.
    fn sleep_bound_per_sec(&self) -> f64 {
        f64::from(self.nodes) / self.service_delay.as_secs_f64()
    }
}

struct Probe {
    workers: usize,
    answered: u64,
    shed: u64,
    elapsed: Duration,
    peak_per_sec: f64,
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
    /// Furthest behind schedule any arrival was submitted: how nearly
    /// the open-loop generator offered what it was asked to.
    late_max: Duration,
    node_queue_peak: u64,
}

fn spawn_cluster(scenario: &Scenario) -> ShhcCluster {
    let mut node_config = NodeConfig::small_test();
    node_config.flash = shhc_flash::FlashConfig::medium_test();
    node_config.cache_capacity = 16_384;
    node_config.service_delay = scenario.service_delay;
    ShhcCluster::spawn(ClusterConfig::new(scenario.nodes, node_config)).expect("spawn cluster")
}

/// The closed-loop probe: `max_pending / batch_size` clients, each one
/// window in flight at a time, on a fresh cluster for `scenario.duration`.
fn probe(scenario: &Scenario) -> Probe {
    let cluster = spawn_cluster(scenario);
    let frontend = scenario.frontend(&cluster);
    let workers = (scenario.max_pending / scenario.batch_size).max(1);
    // Enough fingerprints for the sleep bound, which no probe can beat.
    let spec = OverloadSpec::new(
        workers,
        scenario.clients_per_worker,
        scenario.sleep_bound_per_sec(),
        scenario.duration,
    );
    let barrier = Arc::new(Barrier::new(workers + 1));
    let handles: Vec<_> = (0..workers)
        .map(|w| {
            let schedule = spec.worker_schedule(w);
            let frontend = frontend.clone();
            let barrier = Arc::clone(&barrier);
            let window = scenario.batch_size;
            let until = scenario.duration.to_duration();
            std::thread::spawn(move || {
                barrier.wait();
                let start = Instant::now();
                let (mut answered, mut shed) = (0u64, 0u64);
                for chunk in schedule.chunks(window) {
                    if start.elapsed() >= until {
                        break;
                    }
                    let tickets: Vec<_> = chunk
                        .iter()
                        .map(|a| frontend.submit_from(Some(u32::from(a.client)), a.fingerprint))
                        .collect();
                    for (ticket, was_shed) in tickets {
                        match ticket.wait() {
                            Ok(_) => answered += 1,
                            Err(_) if was_shed => shed += 1,
                            Err(e) => panic!("probe lookup failed: {e}"),
                        }
                    }
                }
                (answered, shed)
            })
        })
        .collect();
    barrier.wait();
    let start = Instant::now();
    let (mut answered, mut shed) = (0u64, 0u64);
    for h in handles {
        let (a, s) = h.join().expect("probe worker");
        answered += a;
        shed += s;
    }
    let elapsed = start.elapsed();
    cluster.shutdown().expect("shutdown");
    Probe {
        workers,
        answered,
        shed,
        elapsed,
        peak_per_sec: answered as f64 / elapsed.as_secs_f64(),
    }
}

/// One sweep point: a fresh cluster + front-end, driven open-loop at
/// `offered` submissions/s until the schedule and every admitted ticket
/// drain.
fn drive(scenario: &Scenario, offered: f64) -> Measured {
    let cluster = spawn_cluster(scenario);
    let frontend = scenario.frontend(&cluster);
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
            let mut late_max = Duration::ZERO;
            let mut tickets = Vec::with_capacity(schedule.len());
            for arrival in schedule {
                // Open loop: sleep only while ahead of schedule; a late
                // worker (one that shipped a size-closed batch inline)
                // submits immediately and catches up in a burst.
                let due = arrival.at.to_duration();
                let now = start.elapsed();
                if due > now {
                    std::thread::sleep(due - now);
                } else {
                    late_max = late_max.max(now - due);
                }
                let tenant = Some(u32::from(arrival.client));
                let (ticket, was_shed) = frontend.submit_from(tenant, arrival.fingerprint);
                if was_shed {
                    shed += 1;
                } else {
                    tickets.push(ticket);
                }
            }
            (shed, late_max, tickets)
        }));
    }
    barrier.wait();
    let start = Instant::now();
    let mut shed = 0u64;
    let mut late_max = Duration::ZERO;
    let mut tickets = Vec::new();
    for h in handles {
        let (s, late, t) = h.join().expect("worker");
        shed += s;
        late_max = late_max.max(late);
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
        late_max,
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
            service_delay: Duration::from_micros(200),
            offered_mults: vec![1.0, 2.0],
            max_pending: 64,
            workers: 4,
            clients_per_worker: 64,
            duration: Nanos::from_millis(250),
            batch_size: 32,
            max_age: Duration::from_millis(2),
        }
    } else {
        Scenario {
            nodes: 2,
            service_delay: Duration::from_micros(200),
            offered_mults: vec![0.5, 1.0, 1.5, 2.0],
            max_pending: 128,
            workers: 4,
            clients_per_worker: 512,
            duration: Nanos::from_millis(1_200),
            batch_size: 64,
            max_age: Duration::from_millis(2),
        }
    };
    banner(
        "Extension — overload: bounded admission on one shared front-end at 2× saturation",
        "a bounded, shedding front-end holds ≥0.9× peak goodput and ≤1.5× admitted p99 \
         at twice the load that saturates the cluster behind it, instead of \
         queue-collapsing (Figure-4 front-end)",
    );
    let clock = format!(
        "wall: each node thread sleeps NodeConfig::service_delay = {} us per record \
         (server.rs sleep_service); sleep bound {:.0}/s over {} nodes",
        scenario.service_delay.as_micros(),
        scenario.sleep_bound_per_sec(),
        scenario.nodes,
    );
    println!(
        "mode: {}, {} nodes, clock {clock}\nShed {{ max_pending: {} }}, batch {} / {} ms age, \
         {} open-loop workers × {} simulated clients, {} ms offered window\n",
        if quick { "quick (CI smoke)" } else { "full" },
        scenario.nodes,
        scenario.max_pending,
        scenario.batch_size,
        scenario.max_age.as_millis(),
        scenario.workers,
        scenario.clients_per_worker,
        scenario.duration.as_nanos() / 1_000_000,
    );

    let peak = probe(&scenario);
    println!(
        "probe: {} closed-loop clients × one {}-fingerprint window, {} answered ({} shed) \
         in {:.0} ms → peak {:.0}/s ({:.2}× the sleep bound)\n",
        peak.workers,
        scenario.batch_size,
        peak.answered,
        peak.shed,
        peak.elapsed.as_secs_f64() * 1e3,
        peak.peak_per_sec,
        peak.peak_per_sec / scenario.sleep_bound_per_sec(),
    );

    println!(
        "{:>6} {:>9} {:>9} {:>8} {:>8} {:>9} {:>8} {:>10} {:>11} {:>9} {:>7}",
        "mult",
        "offered",
        "submit",
        "shed",
        "ok",
        "goodput",
        "shed%",
        "p99_ms",
        "p999_ms",
        "late_ms",
        "nodeQ"
    );
    let mut rows = Vec::new();
    // (mult, measured) for the checks and the JSON record.
    let mut sweep: Vec<(f64, Measured)> = Vec::new();
    for &mult in &scenario.offered_mults {
        let m = drive(&scenario, peak.peak_per_sec * mult);
        println!(
            "{mult:>5.1}x {:>9.0} {:>9} {:>8} {:>8} {:>9.0} {:>7.1}% {:>10.2} {:>11.2} {:>9.2} {:>7}",
            m.offered_per_sec,
            m.submitted,
            m.shed,
            m.answered_ok,
            m.goodput_per_sec,
            m.shed_rate * 100.0,
            us(m.admitted_p99) / 1e3,
            us(m.admitted_p999) / 1e3,
            m.late_max.as_secs_f64() * 1e3,
            m.node_queue_peak,
        );
        rows.push(format!(
            "{mult},{:.0},{},{},{},{},{:.3},{:.0},{:.4},{:.1},{:.1},{:.3},{}",
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
            m.late_max.as_secs_f64() * 1e3,
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
    let (at_1x, at_2x) = (
        point(1.0).expect("the sweep includes 1×"),
        point(2.0).expect("the sweep includes 2×"),
    );
    let goodput_ratio = at_2x.goodput_per_sec / peak.peak_per_sec.max(1.0);
    let p99_ratio = us(at_2x.admitted_p99) / us(at_1x.admitted_p99).max(1.0);
    let met = goodput_ratio >= GOODPUT_TARGET && p99_ratio <= P99_TARGET;
    println!(
        "  goodput@2x / probe peak = {goodput_ratio:.2} (target ≥ {GOODPUT_TARGET}); \
         admitted p99 @2x/@1x = {p99_ratio:.2} (target ≤ {P99_TARGET}) → {}",
        if met {
            "met"
        } else {
            "MISSED: the cluster degrades past saturation"
        }
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
         goodput_per_sec,shed_rate,admitted_p99_us,admitted_p999_us,late_max_ms,node_queue_peak",
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
                 \"admitted_p99_us\": {:.1}, \"admitted_p999_us\": {:.1}, \
                 \"late_max_ms\": {:.3}}}",
                m.offered_per_sec,
                m.goodput_per_sec,
                m.shed_rate,
                us(m.admitted_p99),
                us(m.admitted_p999),
                m.late_max.as_secs_f64() * 1e3,
            )
        })
        .collect();
    write_bench_json(
        "overload",
        &format!(
            "{{\n  \"bench\": \"ext_overload\",\n  \"quick\": {quick},\n  \
             \"clock\": \"{clock}\",\n  \"nodes\": {},\n  \"service_delay_us\": {},\n  \
             \"admission\": {{\"policy\": \"Shed\", \"max_pending\": {}}},\n  \
             \"batch_size\": {},\n  \"max_age_ms\": {},\n  \
             \"probe\": {{\"clients\": {}, \"duration_ms\": {:.0}, \"answered\": {}, \
             \"shed\": {}, \"peak_goodput_per_sec\": {:.0}, \"over_sleep_bound\": {:.3}}},\n  \
             \"workers\": {},\n  \"clients\": {},\n  \"duration_ms\": {},\n  \
             \"check\": {{\"peak_goodput_per_sec\": {:.0}, \"goodput_2x_over_peak\": \
             {goodput_ratio:.3}, \"goodput_target\": {GOODPUT_TARGET}, \
             \"p99_2x_over_1x\": {p99_ratio:.3}, \"p99_target\": {P99_TARGET}, \
             \"met\": {met}}},\n  \"results\": [\n{}\n  ]\n}}\n",
            scenario.nodes,
            scenario.service_delay.as_micros(),
            scenario.max_pending,
            scenario.batch_size,
            scenario.max_age.as_millis(),
            peak.workers,
            peak.elapsed.as_secs_f64() * 1e3,
            peak.answered,
            peak.shed,
            peak.peak_per_sec,
            peak.peak_per_sec / scenario.sleep_bound_per_sec(),
            scenario.workers,
            scenario.workers * scenario.clients_per_worker,
            scenario.duration.as_nanos() / 1_000_000,
            peak.peak_per_sec,
            entries.join(",\n")
        ),
    );
}
