//! Open-loop overload workloads: thousands of paced clients offering a
//! fixed aggregate rate, past saturation if asked.
//!
//! The overload experiments need a load generator that does NOT slow down
//! when the system does — a closed-loop driver (submit, wait, repeat)
//! self-throttles at saturation and can never show queue collapse. An
//! [`OverloadSpec`] instead fixes the *offered* rate up front: every
//! arrival has a precomputed timestamp, and a driver that falls behind
//! submits late arrivals immediately (catching up in a burst) rather than
//! stretching the schedule. Offering 2× a tier's capacity then actually
//! delivers 2×, and what the admission policy sheds is measured, not
//! hidden.
//!
//! The client population is simulated, not threaded: each worker thread
//! carries `clients_per_worker` round-robin client identities, so a
//! handful of OS threads present thousands of distinct tenants to
//! admission control — the only shape that scales on small CI boxes.

use shhc_types::{ClientId, Fingerprint, Nanos};

use crate::TraceSpec;

/// Seed namespace for overload client shards ("SHHCOvld").
const SEED_BASE: u64 = 0x5348_4843_4f76_6c64;

/// One scheduled submission: *when* (offset from run start), *who* (the
/// simulated client, the admission tenant) and *what* (the fingerprint).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Offset from the run's start at which this submission is due.
    pub at: Nanos,
    /// The simulated client submitting it (globally unique across
    /// workers; its raw id is the admission tenant).
    pub client: ClientId,
    /// The fingerprint to submit.
    pub fingerprint: Fingerprint,
}

/// An open-loop overload workload: `workers` driver threads jointly
/// offering `offered_per_sec` submissions/s for `duration`, on behalf of
/// `workers × clients_per_worker` simulated clients.
///
/// Schedules are fully deterministic in the spec: worker `w` always gets
/// the same arrivals at the same offsets, so sweeps at different offered
/// rates stay comparable.
///
/// # Examples
///
/// ```
/// use shhc_types::Nanos;
/// use shhc_workload::OverloadSpec;
///
/// let spec = OverloadSpec::new(4, 256, 20_000.0, Nanos::from_millis(100));
/// assert_eq!(spec.total(), 2_000);
/// let schedule = spec.worker_schedule(0);
/// assert_eq!(schedule.len(), 500);
/// assert!(schedule.windows(2).all(|w| w[0].at <= w[1].at));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadSpec {
    /// Driver threads sharing the offered load.
    pub workers: usize,
    /// Simulated clients each worker cycles through round-robin.
    pub clients_per_worker: usize,
    /// Aggregate offered submission rate, submissions/second.
    pub offered_per_sec: f64,
    /// Run length; `total() ≈ offered_per_sec × duration`.
    pub duration: Nanos,
    /// Per-client redundant fraction (intra-client duplicates).
    pub redundancy: f64,
    /// Base RNG seed; every `(seed, client)` pair is a disjoint
    /// fingerprint population.
    pub seed: u64,
}

impl OverloadSpec {
    /// Creates a spec with moderate (0.3) redundancy and the default
    /// seed.
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `clients_per_worker` is zero, or
    /// `offered_per_sec` is not finite and positive.
    pub fn new(
        workers: usize,
        clients_per_worker: usize,
        offered_per_sec: f64,
        duration: Nanos,
    ) -> Self {
        assert!(workers > 0, "at least one worker");
        assert!(clients_per_worker > 0, "at least one client per worker");
        assert!(
            offered_per_sec.is_finite() && offered_per_sec > 0.0,
            "offered rate must be finite and positive"
        );
        OverloadSpec {
            workers,
            clients_per_worker,
            offered_per_sec,
            duration,
            redundancy: 0.3,
            seed: SEED_BASE,
        }
    }

    /// Returns a copy offering a different aggregate rate — the sweep
    /// knob. The client population and their fingerprint streams stay
    /// identical; only the pacing changes.
    #[cfg(test)]
    pub(crate) fn with_offered(mut self, offered_per_sec: f64) -> Self {
        assert!(
            offered_per_sec.is_finite() && offered_per_sec > 0.0,
            "offered rate must be finite and positive"
        );
        self.offered_per_sec = offered_per_sec;
        self
    }

    /// Returns a copy with a different base seed (a fresh fingerprint
    /// population for every client).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different intra-client redundancy.
    pub fn with_redundancy(mut self, redundancy: f64) -> Self {
        self.redundancy = redundancy.clamp(0.0, 1.0);
        self
    }

    /// Total simulated clients.
    pub fn clients(&self) -> usize {
        self.workers * self.clients_per_worker
    }

    /// Total submissions across all workers for the full duration.
    pub fn total(&self) -> usize {
        (self.offered_per_sec * self.duration.as_secs_f64()).floor() as usize
    }

    /// Submissions worker `w` is responsible for (the remainder of an
    /// uneven split lands on the lowest-numbered workers).
    fn worker_total(&self, w: usize) -> usize {
        let total = self.total();
        let base = total / self.workers;
        let extra = usize::from(w < total % self.workers);
        base + extra
    }

    /// Worker `w`'s full arrival schedule, sorted by time.
    ///
    /// Each worker paces uniformly at `offered_per_sec / workers`, phase-
    /// shifted by `w / workers` of its gap so the aggregate stream is
    /// close to uniformly spaced rather than `workers`-deep bursts.
    /// Clients take turns round-robin, each drawing the next fingerprint
    /// of its own disjoint, redundancy-shaped stream.
    ///
    /// # Panics
    ///
    /// Panics if `w >= workers`.
    pub fn worker_schedule(&self, w: usize) -> Vec<Arrival> {
        assert!(w < self.workers, "worker index out of range");
        let n = self.worker_total(w);
        if n == 0 {
            return Vec::new();
        }
        let gap_ns = 1e9 * self.workers as f64 / self.offered_per_sec;
        let phase_ns = gap_ns * w as f64 / self.workers as f64;
        // Each client's share of this worker's submissions.
        let per_client = n.div_ceil(self.clients_per_worker);
        let shards: Vec<Vec<Fingerprint>> = (0..self.clients_per_worker)
            .map(|c| self.client_stream(w, c, per_client))
            .collect();
        (0..n)
            .map(|k| {
                let c = k % self.clients_per_worker;
                Arrival {
                    at: Nanos::new((phase_ns + gap_ns * k as f64).round() as u64),
                    client: ClientId::new((w * self.clients_per_worker + c) as u32),
                    fingerprint: shards[c][k / self.clients_per_worker],
                }
            })
            .collect()
    }

    /// The first `len` fingerprints of one client's stream —
    /// deterministic in `(seed, worker, client)` and population-disjoint
    /// from every other client's.
    fn client_stream(&self, w: usize, c: usize, len: usize) -> Vec<Fingerprint> {
        let global = w * self.clients_per_worker + c;
        TraceSpec {
            name: format!("overload-w{w}-c{c}"),
            total: len.max(1),
            redundancy: self.redundancy,
            mean_distance: 64.0,
            distance_cv: 1.0,
            chunk_size: 4 * 1024,
            seed: self.seed + global as u64,
        }
        .generate()
        .fingerprints
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn schedule_is_deterministic_and_sorted() {
        let spec = OverloadSpec::new(4, 8, 10_000.0, Nanos::from_millis(50));
        let s0 = spec.worker_schedule(0);
        assert_eq!(s0, spec.worker_schedule(0));
        assert!(s0.windows(2).all(|w| w[0].at <= w[1].at));
        let counts: usize = (0..4).map(|w| spec.worker_schedule(w).len()).sum();
        assert_eq!(counts, spec.total());
    }

    #[test]
    fn offered_rate_sets_pacing_not_population() {
        let base = OverloadSpec::new(2, 4, 5_000.0, Nanos::from_millis(40));
        let double = base.clone().with_offered(10_000.0);
        assert_eq!(double.total(), 2 * base.total());
        // Same clients, same per-client fingerprint order — just denser.
        let b = base.worker_schedule(1);
        let d = double.worker_schedule(1);
        let b_client0: Vec<Fingerprint> = b
            .iter()
            .filter(|a| a.client == ClientId::new(4))
            .map(|a| a.fingerprint)
            .collect();
        let d_client0: Vec<Fingerprint> = d
            .iter()
            .filter(|a| a.client == ClientId::new(4))
            .map(|a| a.fingerprint)
            .collect();
        assert_eq!(b_client0[..], d_client0[..b_client0.len()]);
        assert!(d.last().unwrap().at < b.last().unwrap().at * 2);
    }

    #[test]
    fn clients_are_globally_unique_and_population_disjoint() {
        let spec = OverloadSpec::new(3, 5, 6_000.0, Nanos::from_millis(30)).with_redundancy(0.0);
        let mut fps_by_client: Vec<(ClientId, Fingerprint)> = Vec::new();
        let mut clients: HashSet<ClientId> = HashSet::new();
        for w in 0..3 {
            for a in spec.worker_schedule(w) {
                clients.insert(a.client);
                fps_by_client.push((a.client, a.fingerprint));
            }
        }
        assert_eq!(clients.len(), spec.clients());
        // Zero redundancy: every submission is a distinct fingerprint,
        // across clients too (disjoint populations).
        let unique: HashSet<Fingerprint> = fps_by_client.iter().map(|(_, fp)| *fp).collect();
        assert_eq!(unique.len(), fps_by_client.len());
    }

    #[test]
    fn workers_interleave_by_phase() {
        let spec = OverloadSpec::new(4, 2, 4_000.0, Nanos::from_millis(10));
        // Worker w's first arrival is phase-shifted by w/workers of the
        // per-worker gap: 4 workers at 4 k/s aggregate → 1 ms per-worker
        // gap, 250 µs phase steps.
        for w in 0..4 {
            let first = spec.worker_schedule(w)[0].at;
            assert_eq!(first, Nanos::from_micros(250 * w as u64));
        }
    }
}
