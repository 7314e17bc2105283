//! The two index-side workloads: `lookup_cold` (closed loop, throughput)
//! and `lookup_paced` (open loop, latency) over one bulk-loaded index.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use shhc::{LookupAnswer, SharedFrontend, ShhcCluster, Ticket};
use shhc_types::Fingerprint;

use crate::gen::{fingerprint, InputsDigest, Rng};
use crate::host;
use crate::phase::{closed_loop, Phase};
use crate::span::{Recorder, Span};
use crate::sut::{spawn_cluster, NODES};

/// Fingerprints per bulk-load call during set-up.
const LOAD_BATCH: u64 = 8192;

/// A spawned cluster with the seed's population `0..known` loaded.
pub struct Rig {
    pub cluster: ShhcCluster,
    pub seed: u64,
    /// Indices below this have been offered to the cluster; the oracle
    /// for `existed` is `index < known` at the time of the offer.
    pub known: u64,
    /// Set-up answers that disagreed with the oracle.
    pub setup_failed: u64,
}

impl Rig {
    /// Spawns the cluster and bulk-loads `population` ring-uniform
    /// fingerprints straight through `ShhcCluster::lookup_insert_batch`,
    /// then flushes the nodes' write buffers so the measured phase reads
    /// a settled index.
    pub fn setup(seed: u64, population: u64, cache_entries: usize) -> Rig {
        // Bloom sized for the set-up population plus the measured
        // phase's growth (≤ 20 %), with slack.
        let cluster = spawn_cluster(cache_entries, population * 3 / 2 / u64::from(NODES));
        let mut setup_failed = 0;
        let mut batch = Vec::with_capacity(LOAD_BATCH as usize);
        let mut at = 0;
        while at < population {
            let end = (at + LOAD_BATCH).min(population);
            batch.clear();
            batch.extend((at..end).map(|i| fingerprint(seed, i)));
            let existed = cluster.lookup_insert_batch(&batch).expect("bulk load");
            setup_failed += existed.iter().filter(|e| **e).count() as u64;
            at = end;
        }
        cluster.flush_all().expect("flush after bulk load");
        Rig {
            cluster,
            seed,
            known: population,
            setup_failed,
        }
    }

    pub fn shutdown(self) {
        self.cluster.shutdown().expect("cluster shutdown");
    }
}

/// One generated window: what is offered and what must come back.
pub struct Window {
    pub fps: Vec<Fingerprint>,
    pub expect_existed: Vec<bool>,
}

/// Seeded window generator. `fresh_per_window` of every window's
/// fingerprints have never been offered; the rest are drawn uniformly
/// from `0..dup_range` (the whole known population when `None`).
#[derive(Clone)]
pub struct WindowGen {
    rng: Rng,
    seed: u64,
    window: usize,
    fresh_per_window: usize,
    dup_range: Option<u64>,
    pub known: u64,
    pub offered: u64,
    pub fresh: u64,
    pub digest: InputsDigest,
}

impl WindowGen {
    pub fn new(
        rig: &Rig,
        stream: u64,
        window: usize,
        fresh_per_window: usize,
        dup_range: Option<u64>,
    ) -> Self {
        WindowGen {
            rng: Rng::new(rig.seed ^ stream.wrapping_mul(0x9e37_79b9)),
            seed: rig.seed,
            window,
            fresh_per_window,
            dup_range,
            known: rig.known,
            offered: 0,
            fresh: 0,
            digest: InputsDigest::new(rig.seed ^ stream),
        }
    }

    pub fn next_window(&mut self) -> Window {
        let mut fps = Vec::with_capacity(self.window);
        let mut expect_existed = Vec::with_capacity(self.window);
        // Duplicates are drawn from what was known when the window
        // started, so a window never depends on its own inserts.
        let dup_range = self.dup_range.unwrap_or(self.known);
        // Fresh fingerprints sit at seeded positions: slot i is fresh
        // when the remaining fresh quota wins a draw over the remaining
        // slots (selection sampling, exact count per window).
        let mut fresh_left = self.fresh_per_window;
        for slot in 0..self.window {
            let slots_left = (self.window - slot) as u64;
            let index = if self.rng.below(slots_left) < fresh_left as u64 {
                fresh_left -= 1;
                self.known += 1;
                expect_existed.push(false);
                self.known - 1
            } else {
                expect_existed.push(true);
                self.rng.below(dup_range)
            };
            let fp = fingerprint(self.seed, index);
            self.digest.bytes(fp.as_bytes());
            fps.push(fp);
        }
        self.offered += self.window as u64;
        self.fresh += self.fresh_per_window as u64;
        Window {
            fps,
            expect_existed,
        }
    }
}

fn answers_match(window: &Window, existed: impl Iterator<Item = Option<bool>>) -> bool {
    let mut n = 0;
    let ok = window
        .expect_existed
        .iter()
        .zip(existed)
        .inspect(|_| n += 1)
        .all(|(want, got)| got == Some(*want));
    ok && n == window.fps.len()
}

/// Submits a window through the front-end and waits for every ticket.
fn through_frontend(
    rec: &mut Recorder,
    op: u32,
    parent: Option<u32>,
    frontend: &SharedFrontend,
    fps: &[Fingerprint],
) -> Vec<Option<bool>> {
    let tickets: Vec<Ticket<LookupAnswer>> = rec.span("net.submit", op, parent, |_, _| {
        fps.iter().map(|fp| frontend.submit(*fp)).collect()
    });
    rec.span("net.wait", op, parent, |_, _| {
        tickets
            .into_iter()
            .map(|t| t.wait().ok().map(|a| a.existed))
            .collect()
    })
}

/// Closed loop over `windows` windows. On a traced run every other
/// window goes straight to `ShhcCluster::lookup_insert_batch_values`
/// instead, so the front-end's own cost is the difference between the
/// two op spans.
pub fn cold_phase(
    rig: &Rig,
    frontend: &SharedFrontend,
    gen: &mut WindowGen,
    windows: usize,
    rec: &mut Recorder,
) -> Phase {
    let direct_every_other = rec.is_on();
    closed_loop(
        windows,
        rec,
        "lookup.op",
        |_| {
            let w = gen.next_window();
            let units = w.fps.len() as f64;
            (w, units)
        },
        |rec, op, parent, w: &Window| {
            if direct_every_other && op % 2 == 1 {
                rec.span("core.cluster_rtt", op, parent, |_, _| {
                    match rig.cluster.lookup_insert_batch_values(&w.fps) {
                        Ok((existed, _)) => existed.into_iter().map(Some).collect(),
                        Err(_) => vec![None; w.fps.len()],
                    }
                })
            } else {
                through_frontend(rec, op, parent, frontend, &w.fps)
            }
        },
        |w, got| answers_match(w, got.into_iter()),
    )
}

/// What the collector thread learns about one paced window.
struct Completion {
    done_ns: u64,
    ok: bool,
}

/// Open loop: window `i` is due at `start + i·gap` whatever the system
/// is doing. This thread generates and submits; a collector thread only
/// blocks on tickets and timestamps completions. Latency runs from the
/// due time, so a stall is charged to every window it delays.
pub fn paced_phase(
    frontend: &SharedFrontend,
    gen: &mut WindowGen,
    windows: usize,
    gap: Duration,
    rec: &mut Recorder,
) -> Phase {
    struct Sent {
        tickets: Vec<Ticket<LookupAnswer>>,
        window: Window,
    }
    let epoch = rec.epoch();
    let since_epoch = |t: Instant| (t - epoch).as_nanos() as u64;
    let (tx, rx) = mpsc::channel::<Sent>();
    let mut phase = Phase::default();
    let mut due = Vec::with_capacity(windows);
    let mut sent_at = Vec::with_capacity(windows);
    let mut submitted_at = Vec::with_capacity(windows);
    let started = Instant::now();
    let first_due = started + Duration::from_millis(2);

    let completions: Vec<Completion> = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut out = Vec::with_capacity(windows);
            for sent in rx {
                let existed: Vec<Option<bool>> = sent
                    .tickets
                    .into_iter()
                    .map(|t| t.wait().ok().map(|a| a.existed))
                    .collect();
                let done_ns = since_epoch(Instant::now());
                out.push(Completion {
                    done_ns,
                    ok: answers_match(&sent.window, existed.into_iter()),
                });
            }
            out
        });

        for i in 0..windows {
            let g0 = Instant::now();
            let window = gen.next_window();
            let due_at = first_due + gap * i as u32;
            phase.gen_ns += g0.elapsed().as_nanos() as u64;
            // Idle until the due time: sleep while far, spin when near.
            // The calibration kernel runs only in slack it cannot overrun.
            let mut calibrated = i % 64 != 0;
            loop {
                let now = Instant::now();
                if now >= due_at {
                    break;
                }
                let slack = due_at - now;
                if !calibrated && slack > Duration::from_micros(200) {
                    phase.calibration.push(host::calibration_ns());
                    calibrated = true;
                } else if slack > Duration::from_micros(150) {
                    std::thread::sleep(slack - Duration::from_micros(100));
                } else {
                    std::hint::spin_loop();
                }
            }
            let t0 = Instant::now();
            let tickets = window.fps.iter().map(|fp| frontend.submit(*fp)).collect();
            let t1 = Instant::now();
            due.push(since_epoch(due_at));
            sent_at.push(since_epoch(t0));
            submitted_at.push(since_epoch(t1));
            phase.units_per_op.push(window.fps.len() as f64);
            tx.send(Sent { tickets, window }).expect("collector alive");
        }
        drop(tx);
        collector.join().expect("collector thread")
    });

    phase.wall_ns = started.elapsed().as_nanos() as u64;
    let mut last_done = 0;
    for (i, c) in completions.iter().enumerate() {
        phase.op_ns.push(c.done_ns.saturating_sub(due[i]));
        phase.late_ns.push(sent_at[i].saturating_sub(due[i]));
        phase.failed += u64::from(!c.ok);
        last_done = last_done.max(c.done_ns);
        if rec.is_on() {
            let op = i as u32;
            let parent = Some(rec.push(Span {
                name: "lookup.op",
                start_ns: due[i],
                end_ns: c.done_ns,
                parent: None,
                op,
            }));
            rec.push(Span {
                name: "net.submit",
                start_ns: sent_at[i],
                end_ns: submitted_at[i],
                parent,
                op,
            });
            rec.push(Span {
                name: "net.wait",
                start_ns: submitted_at[i],
                end_ns: c.done_ns,
                parent,
                op,
            });
        }
    }
    phase.failed += (windows - completions.len()) as u64;
    phase.busy_ns = last_done.saturating_sub(due.first().copied().unwrap_or(0));
    phase
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_rig() -> Rig {
        Rig::setup(11, 20_000, 256)
    }

    #[test]
    fn windows_repeat_for_a_seed_and_hold_exact_fresh_counts() {
        let rig = tiny_rig();
        let mut a = WindowGen::new(&rig, 1, 64, 7, None);
        let mut b = WindowGen::new(&rig, 1, 64, 7, None);
        for _ in 0..20 {
            let (wa, wb) = (a.next_window(), b.next_window());
            assert_eq!(wa.fps, wb.fps);
            assert_eq!(wa.expect_existed.iter().filter(|e| !**e).count(), 7);
        }
        assert_eq!(a.digest.value(), b.digest.value());
        assert_eq!((a.offered, a.fresh, a.known), (1280, 140, rig.known + 140));
        let mut c = WindowGen::new(&rig, 2, 64, 7, None);
        c.next_window();
        assert_ne!(c.digest.value(), {
            let mut d = WindowGen::new(&rig, 1, 64, 7, None);
            d.next_window();
            d.digest.value()
        });
        rig.shutdown();
    }

    #[test]
    fn cold_phase_agrees_with_the_oracle_traced_and_untraced() {
        let rig = tiny_rig();
        assert_eq!(rig.setup_failed, 0);
        let frontend = SharedFrontend::new(rig.cluster.clone(), 64, Duration::from_millis(50));
        let mut gen = WindowGen::new(&rig, 1, 64, 6, None);
        let phase = cold_phase(&rig, &frontend, &mut gen, 30, &mut Recorder::new(false));
        assert_eq!((phase.ops(), phase.failed), (30, 0));
        let mut rec = Recorder::new(true);
        let phase = cold_phase(&rig, &frontend, &mut gen, 30, &mut rec);
        assert_eq!((phase.ops(), phase.failed), (30, 0));
        let names = crate::span::totals_by_name(rec.spans());
        assert_eq!(names["lookup.op"].count, 30);
        assert_eq!(names["core.cluster_rtt"].count, 15);
        assert_eq!(names["net.wait"].count, 15);
        // A wrong oracle must be caught: claim the population is smaller.
        let mut lying = WindowGen::new(&rig, 3, 64, 6, None);
        lying.known = gen.known; // fine so far
        let mut w = lying.next_window();
        w.expect_existed[0] = !w.expect_existed[0];
        let got = through_frontend(&mut Recorder::new(false), 0, None, &frontend, &w.fps);
        frontend.flush().unwrap();
        assert!(!answers_match(&w, got.into_iter()));
        drop(frontend);
        rig.shutdown();
    }

    #[test]
    fn paced_latency_runs_from_due_time() {
        let rig = tiny_rig();
        let frontend = SharedFrontend::new(rig.cluster.clone(), 256, Duration::from_millis(1));
        let mut gen = WindowGen::new(&rig, 1, 16, 2, Some(1000));
        let mut rec = Recorder::new(true);
        let gap = Duration::from_micros(500);
        let phase = paced_phase(&frontend, &mut gen, 200, gap, &mut rec);
        assert_eq!((phase.ops(), phase.failed), (200, 0));
        assert_eq!(phase.late_ns.len(), 200);
        // Span of the run is at least the schedule's length.
        assert!(phase.busy_ns >= 199 * 500_000);
        // Each op span starts at its due time: consecutive starts are one gap apart.
        let ops: Vec<_> = rec
            .spans()
            .iter()
            .filter(|s| s.name == "lookup.op")
            .collect();
        assert!(ops
            .windows(2)
            .all(|p| p[1].start_ns - p[0].start_ns == 500_000));
        // Latency from due time is never below latency from send time.
        let subs: Vec<_> = rec
            .spans()
            .iter()
            .filter(|s| s.name == "net.submit")
            .collect();
        assert!(ops
            .iter()
            .zip(&subs)
            .all(|(o, s)| s.start_ns >= o.start_ns && o.end_ns >= s.end_ns));
        drop(frontend);
        rig.shutdown();
    }
}
