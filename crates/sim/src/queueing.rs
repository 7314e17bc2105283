//! First-come-first-served multi-server queue resource.

use shhc_types::Nanos;

/// An FCFS queueing resource with `c` identical servers.
///
/// Jobs are submitted with their arrival time and service demand; the
/// queue returns the completion time. This is the closed-form shortcut for
/// modelling a hash node (or NIC, or disk) inside the event simulator
/// without spawning per-job agents.
///
/// # Examples
///
/// ```
/// use shhc_sim::FcfsQueue;
/// use shhc_types::Nanos;
///
/// let mut q = FcfsQueue::new(1);
/// let us = Nanos::from_micros;
/// assert_eq!(q.submit(us(0), us(10)), us(10));
/// // Arrives while busy: waits for the first job.
/// assert_eq!(q.submit(us(5), us(10)), us(20));
/// // Arrives after idle: starts immediately.
/// assert_eq!(q.submit(us(100), us(10)), us(110));
/// ```
#[derive(Debug, Clone)]
pub struct FcfsQueue {
    /// Next-free time of each server.
    servers: Vec<Nanos>,
    jobs: u64,
    busy_total: Nanos,
    wait_total: Nanos,
}

impl FcfsQueue {
    /// Creates a queue with `servers` identical service units.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is zero.
    pub fn new(servers: usize) -> Self {
        assert!(servers > 0, "need at least one server");
        FcfsQueue {
            servers: vec![Nanos::ZERO; servers],
            jobs: 0,
            busy_total: Nanos::ZERO,
            wait_total: Nanos::ZERO,
        }
    }

    /// Submits a job arriving at `now` demanding `service` time; returns
    /// its completion time.
    ///
    /// FCFS discipline: the job takes the earliest-free server; its start
    /// time is `max(now, server_free)`.
    pub fn submit(&mut self, now: Nanos, service: Nanos) -> Nanos {
        let (idx, &free_at) = self
            .servers
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| **t)
            .expect("at least one server");
        let start = now.max(free_at);
        let done = start + service;
        self.servers[idx] = done;
        self.jobs += 1;
        self.busy_total += service;
        self.wait_total += start - now;
        done
    }

    /// Earliest time any server becomes free.
    #[cfg(test)]
    pub(crate) fn next_free(&self) -> Nanos {
        *self.servers.iter().min().expect("at least one server")
    }

    /// Number of jobs submitted.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Mean queueing delay (time between arrival and service start).
    #[cfg(test)]
    pub(crate) fn mean_wait(&self) -> Nanos {
        if self.jobs == 0 {
            Nanos::ZERO
        } else {
            self.wait_total / self.jobs
        }
    }

    /// Utilization relative to a time horizon: busy time / (servers ×
    /// horizon). Values near 1.0 mean saturation.
    #[cfg(test)]
    pub(crate) fn utilization(&self, horizon: Nanos) -> f64 {
        if horizon == Nanos::ZERO {
            return 0.0;
        }
        self.busy_total.as_nanos() as f64 / (self.servers.len() as u64 * horizon.as_nanos()) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const fn us(v: u64) -> Nanos {
        Nanos::from_micros(v)
    }

    #[test]
    fn single_server_serializes() {
        let mut q = FcfsQueue::new(1);
        assert_eq!(q.submit(us(0), us(10)), us(10));
        assert_eq!(q.submit(us(0), us(10)), us(20));
        assert_eq!(q.submit(us(0), us(10)), us(30));
        assert_eq!(q.mean_wait(), us(10)); // waits 0, 10, 20
    }

    #[test]
    fn two_servers_run_in_parallel() {
        let mut q = FcfsQueue::new(2);
        assert_eq!(q.submit(us(0), us(10)), us(10));
        assert_eq!(q.submit(us(0), us(10)), us(10));
        assert_eq!(q.submit(us(0), us(10)), us(20));
    }

    #[test]
    fn idle_gap_resets_start_time() {
        let mut q = FcfsQueue::new(1);
        q.submit(us(0), us(5));
        assert_eq!(q.submit(us(50), us(5)), us(55));
        assert_eq!(q.mean_wait(), Nanos::ZERO);
    }

    #[test]
    fn utilization_reflects_load() {
        let mut q = FcfsQueue::new(2);
        q.submit(us(0), us(50));
        q.submit(us(0), us(50));
        let u = q.utilization(us(100));
        assert!((u - 0.5).abs() < 1e-9, "utilization {u}");
    }

    #[test]
    fn next_free_tracks_earliest_server() {
        let mut q = FcfsQueue::new(2);
        q.submit(us(0), us(10));
        q.submit(us(0), us(30));
        assert_eq!(q.next_free(), us(10));
    }
}
