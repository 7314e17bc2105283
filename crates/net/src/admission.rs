//! Bounded admission for the shared front-end: bounded queues, fail-fast
//! shedding and per-tenant fairness.
//!
//! The paper's Figure 4 puts *multiple* web front-ends between millions
//! of backup clients and the hash cluster precisely because an ingest
//! point with an unbounded queue does not degrade — it collapses: past
//! saturation every queued request waits behind every other one, tail
//! latency grows without bound, and memory follows. This module is the
//! bound. Every submission to a [`SharedBatcher`](crate::SharedBatcher)
//! must first be admitted by the batcher's gate; its slot is held until
//! the batch it joined is answered (or dropped), so the policy limits
//! **outstanding admitted work** — queued *plus* in flight — which is the
//! quantity that actually grows without bound under overload:
//!
//! - [`AdmissionPolicy::Block`] — producers wait for a slot: classic
//!   backpressure, nothing is ever lost, arrival pacing degrades to the
//!   service rate,
//! - [`AdmissionPolicy::Shed`] — fail fast: a submission past the bound
//!   resolves immediately as [`Error::Overloaded`], keeping latency for
//!   *admitted* requests bounded,
//! - [`AdmissionPolicy::FairShed`] — shed, plus per-tenant slot
//!   accounting: one noisy tenant saturating its quota cannot push a
//!   quiet tenant's traffic out of the queue.
//!
//! A slot is taken per submission — under [`AdmissionPolicy::Block`] and
//! [`AdmissionPolicy::Shed`] with one compare-and-swap while a slot is
//! free, and under the gate's lock only when full or per tenant. Release
//! is **per batch** — one lock, one clock read and at most one wake-up
//! hand back every slot of an answered batch and record each entry's
//! **admitted latency** — admission to answer — into a bounded ring of
//! recent samples, so p99/p999 for the requests the system chose to
//! serve stay observable at any uptime.
//!
//! The gate models no capacity of its own: a front-end's throughput is
//! whatever the cluster behind it answers, and the bound only decides
//! what happens to the work that arrives faster than that.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use shhc_types::{Error, Result};

use crate::samples::{RingReader, SampleRing};

/// Retained admitted-latency samples (ring of the most recent).
pub(crate) const LATENCY_SAMPLE_CAP: usize = 1 << 18;

/// Default bound on outstanding admitted submissions for batchers that
/// do not configure a policy explicitly — generous enough that healthy
/// workloads never notice, finite so a stalled dispatcher can no longer
/// grow the pending queue without bound.
pub const DEFAULT_MAX_PENDING: usize = 1 << 16;

/// How a [`SharedBatcher`](crate::SharedBatcher) responds when admitting
/// one more submission would exceed its outstanding-work bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Block the submitting thread until outstanding work drops below
    /// `max_pending` — backpressure; no submission is ever lost, but
    /// producers slow to the service rate. Requires someone to keep
    /// draining (a size-closing peer or an age flusher), as the blocked
    /// thread itself cannot.
    Block {
        /// Bound on outstanding admitted submissions (queued + in
        /// flight).
        max_pending: usize,
    },
    /// Fail fast: a submission past `max_pending` resolves its ticket
    /// immediately with [`Error::Overloaded`]. Latency for admitted
    /// requests stays bounded by `max_pending / service_rate`.
    Shed {
        /// Bound on outstanding admitted submissions (queued + in
        /// flight).
        max_pending: usize,
    },
    /// [`Shed`](AdmissionPolicy::Shed) with per-tenant slot accounting:
    /// a submission is also shed when *its tenant* already holds
    /// `per_tenant_quota` outstanding slots, so one noisy tenant
    /// saturates its own quota instead of the whole queue.
    FairShed {
        /// Bound on outstanding admitted submissions across all tenants.
        max_pending: usize,
        /// Bound on one tenant's outstanding admitted submissions.
        per_tenant_quota: usize,
    },
}

impl Default for AdmissionPolicy {
    /// Blocking admission at [`DEFAULT_MAX_PENDING`] — the
    /// backwards-compatible bound: nothing is shed, nothing is lost, and
    /// the formerly unbounded pending queue is finally finite.
    fn default() -> Self {
        AdmissionPolicy::Block {
            max_pending: DEFAULT_MAX_PENDING,
        }
    }
}

impl AdmissionPolicy {
    /// The outstanding-work bound of this policy.
    pub fn max_pending(&self) -> usize {
        match *self {
            AdmissionPolicy::Block { max_pending }
            | AdmissionPolicy::Shed { max_pending }
            | AdmissionPolicy::FairShed { max_pending, .. } => max_pending,
        }
    }
}

/// Per-tenant and parked counts, under the gate mutex.
#[derive(Debug, Default)]
struct Counts {
    /// Per-tenant outstanding slots (only maintained under
    /// [`AdmissionPolicy::FairShed`]). Entries are removed at zero so the
    /// map stays proportional to *active* tenants.
    per_tenant: std::collections::HashMap<u32, usize>,
    /// [`AdmissionPolicy::Block`] submitters parked on `space` right now;
    /// a release that finds none skips the wake-up.
    parked: usize,
    /// Completed-request latency accounting (admission → answer).
    latency: SampleRing,
    latency_total_ns: u128,
}

/// Shared admission state: the gate every submission passes and every
/// answered batch releases into.
#[derive(Debug)]
pub(crate) struct AdmissionGate {
    policy: AdmissionPolicy,
    /// Slots currently held (admitted submissions not yet answered).
    /// Never above the policy's bound: a slot is taken only by a
    /// compare-and-swap from below it. A take (acquire) that reuses a
    /// slot happens after the release that freed it (release); the
    /// handshake with parked `Block` submitters goes through `counts`.
    outstanding: AtomicUsize,
    counts: Mutex<Counts>,
    space: Condvar,
    /// Submissions admitted (slots ever issued).
    admitted: AtomicU64,
    /// Submissions shed with [`Error::Overloaded`].
    shed: AtomicU64,
    /// Of the shed submissions, those denied by a tenant quota rather
    /// than the global bound.
    shed_by_tenant: AtomicU64,
    /// Times a submission had to wait for a slot (blocking policy).
    blocked: AtomicU64,
}

/// Snapshot of admission counters for
/// [`SharedBatcherStats`](crate::SharedBatcherStats). The latency samples
/// are a reader handle: the copy happens after the gate lock is gone.
#[derive(Debug, Clone)]
pub(crate) struct AdmissionSnapshot {
    pub admitted: u64,
    pub shed: u64,
    pub shed_by_tenant: u64,
    pub blocked: u64,
    pub outstanding: usize,
    pub latency_count: u64,
    pub latency_total_ns: u128,
    pub latency_samples: RingReader,
}

impl AdmissionGate {
    pub(crate) fn new(policy: AdmissionPolicy) -> Arc<Self> {
        Arc::new(AdmissionGate {
            policy,
            outstanding: AtomicUsize::new(0),
            counts: Mutex::new(Counts {
                latency: SampleRing::new(LATENCY_SAMPLE_CAP),
                ..Counts::default()
            }),
            space: Condvar::new(),
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            shed_by_tenant: AtomicU64::new(0),
            blocked: AtomicU64::new(0),
        })
    }

    /// Admits one submission for `tenant`, blocking or shedding per the
    /// policy. The slot is held until [`release`](Self::release) hands it
    /// back with the rest of its batch. Returns the tenant key the slot
    /// is charged to — `Some` only under a per-tenant policy — which the
    /// caller keeps for that release.
    ///
    /// # Errors
    ///
    /// [`Error::Overloaded`] when a shedding policy is past its bound.
    pub(crate) fn admit(&self, tenant: Option<u32>) -> Result<Option<u32>> {
        // A free slot needs no lock unless a tenant is charged for it.
        let per_tenant = matches!(self.policy, AdmissionPolicy::FairShed { .. });
        if !per_tenant && self.try_take() {
            self.admitted.fetch_add(1, Ordering::Relaxed);
            return Ok(None);
        }
        let max_pending = self.policy.max_pending();
        let mut counts = self.counts.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            // Under the lock, so a `Block` submitter cannot miss the
            // wake-up of a release that lands between this look and its
            // park: the release takes the lock to see `parked`.
            if self.try_take() {
                break;
            }
            match self.policy {
                AdmissionPolicy::Block { .. } => {
                    self.blocked.fetch_add(1, Ordering::Relaxed);
                    // Timed wait as a defensive measure: correctness only
                    // needs the notify on release, but a bounded re-check
                    // keeps a lost wakeup from becoming a hang.
                    counts.parked += 1;
                    let (guard, _) = self
                        .space
                        .wait_timeout(counts, Duration::from_millis(10))
                        .unwrap_or_else(|e| e.into_inner());
                    counts = guard;
                    counts.parked -= 1;
                }
                AdmissionPolicy::Shed { .. } | AdmissionPolicy::FairShed { .. } => {
                    drop(counts);
                    self.shed.fetch_add(1, Ordering::Relaxed);
                    return Err(Error::overloaded(format!(
                        "front-end past its admission bound of {max_pending} outstanding"
                    )));
                }
            }
        }
        let mut charged = None;
        if let AdmissionPolicy::FairShed {
            per_tenant_quota, ..
        } = self.policy
        {
            let key = tenant.unwrap_or(u32::MAX);
            let held = counts.per_tenant.entry(key).or_insert(0);
            if *held >= per_tenant_quota {
                drop(counts);
                self.outstanding.fetch_sub(1, Ordering::AcqRel);
                self.shed.fetch_add(1, Ordering::Relaxed);
                self.shed_by_tenant.fetch_add(1, Ordering::Relaxed);
                return Err(Error::overloaded(format!(
                    "tenant {key} past its admission quota of {per_tenant_quota} outstanding"
                )));
            }
            *held += 1;
            charged = Some(key);
        }
        drop(counts);
        self.admitted.fetch_add(1, Ordering::Relaxed);
        Ok(charged)
    }

    /// Takes a slot if one is free.
    fn try_take(&self) -> bool {
        let max_pending = self.policy.max_pending();
        self.outstanding
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |held| {
                (held < max_pending).then_some(held + 1)
            })
            .is_ok()
    }

    /// Admitted submissions not yet answered — cheap (no lock, no sample
    /// clone), for load-balancing reads.
    pub(crate) fn outstanding(&self) -> usize {
        self.outstanding.load(Ordering::Acquire)
    }

    /// Hands back the slots of one answered (or abandoned) batch:
    /// `admitted_at` holds each entry's admission time, `charged` the
    /// tenant keys [`admit`](Self::admit) returned for them. One lock and
    /// one clock read cover the whole batch; parked `Block` submitters
    /// are woken only if there are any.
    pub(crate) fn release(&self, charged: &[u32], admitted_at: &[Instant]) {
        let now = Instant::now();
        self.outstanding
            .fetch_sub(admitted_at.len(), Ordering::AcqRel);
        let mut counts = self.counts.lock().unwrap_or_else(|e| e.into_inner());
        for key in charged {
            if let Some(held) = counts.per_tenant.get_mut(key) {
                *held = held.saturating_sub(1);
                if *held == 0 {
                    counts.per_tenant.remove(key);
                }
            }
        }
        for at in admitted_at {
            let latency_ns = now.duration_since(*at).as_nanos().min(u128::from(u64::MAX)) as u64;
            counts.latency.push(latency_ns);
            counts.latency_total_ns += u128::from(latency_ns);
        }
        let wake = counts.parked > 0;
        drop(counts);
        if wake {
            self.space.notify_all();
        }
    }

    pub(crate) fn snapshot(&self) -> AdmissionSnapshot {
        let counts = self.counts.lock().unwrap_or_else(|e| e.into_inner());
        AdmissionSnapshot {
            admitted: self.admitted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            shed_by_tenant: self.shed_by_tenant.load(Ordering::Relaxed),
            blocked: self.blocked.load(Ordering::Relaxed),
            outstanding: self.outstanding(),
            latency_count: counts.latency.seen(),
            latency_total_ns: counts.latency_total_ns,
            latency_samples: counts.latency.reader(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_bounded_block() {
        let p = AdmissionPolicy::default();
        assert_eq!(p.max_pending(), DEFAULT_MAX_PENDING);
        assert!(matches!(p, AdmissionPolicy::Block { .. }));
    }

    #[test]
    fn shed_past_bound_fails_fast_and_release_reopens() {
        let gate = AdmissionGate::new(AdmissionPolicy::Shed { max_pending: 2 });
        let t1 = Instant::now();
        assert_eq!(gate.admit(None).unwrap(), None, "no tenant accounting");
        gate.admit(None).unwrap();
        let err = gate.admit(None).unwrap_err();
        assert!(err.is_overload(), "{err}");
        gate.release(&[], &[t1]);
        gate.admit(None).expect("release reopened a slot");
        let snap = gate.snapshot();
        assert_eq!(snap.admitted, 3);
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.outstanding, 2);
        assert_eq!(snap.latency_count, 1, "one release recorded a latency");
    }

    #[test]
    fn one_release_returns_a_whole_batch() {
        let gate = AdmissionGate::new(AdmissionPolicy::FairShed {
            max_pending: 8,
            per_tenant_quota: 3,
        });
        let mut charged = Vec::new();
        let mut admitted_at = Vec::new();
        for tenant in [1, 1, 1, 2, 2] {
            charged.push(gate.admit(Some(tenant)).unwrap().expect("tenant charged"));
            admitted_at.push(Instant::now());
        }
        assert!(gate.admit(Some(1)).is_err(), "tenant 1 at its quota");
        gate.release(&charged, &admitted_at);
        let snap = gate.snapshot();
        assert_eq!(snap.outstanding, 0);
        assert_eq!(snap.latency_count, 5, "one sample per entry");
        assert_eq!(snap.latency_samples.samples().len(), 5);
        for _ in 0..3 {
            gate.admit(Some(1)).expect("quota fully handed back");
        }
    }

    #[test]
    fn fair_shed_enforces_tenant_quota_before_global_bound() {
        let gate = AdmissionGate::new(AdmissionPolicy::FairShed {
            max_pending: 100,
            per_tenant_quota: 2,
        });
        gate.admit(Some(7)).unwrap();
        let a2 = gate.admit(Some(7)).unwrap().expect("tenant charged");
        let err = gate.admit(Some(7)).unwrap_err();
        assert!(err.is_overload(), "{err}");
        // A different tenant is unaffected by tenant 7's saturation.
        gate.admit(Some(8)).unwrap();
        let snap = gate.snapshot();
        assert_eq!(snap.shed_by_tenant, 1);
        // Releasing one of tenant 7's slots reopens its quota.
        gate.release(&[a2], &[Instant::now()]);
        gate.admit(Some(7)).unwrap();
    }

    /// Submitters racing for slots, mostly on the lock-free path: the
    /// count never passes the bound (an observer thread and every
    /// submitter check it), every offer is counted once as admitted or
    /// shed, and `Block` sheds nothing.
    #[test]
    fn racing_submitters_never_pass_the_bound() {
        const SUBMITTERS: usize = 4;
        const OFFERS: usize = 5_000;
        const BOUND: usize = 2;
        for policy in [
            AdmissionPolicy::Block { max_pending: BOUND },
            AdmissionPolicy::Shed { max_pending: BOUND },
        ] {
            let gate = AdmissionGate::new(policy);
            let done = std::sync::atomic::AtomicBool::new(false);
            let refused: usize = std::thread::scope(|scope| {
                scope.spawn(|| {
                    while !done.load(Ordering::Relaxed) {
                        assert!(gate.outstanding() <= BOUND, "{policy:?} past its bound");
                    }
                });
                let submitters: Vec<_> = (0..SUBMITTERS)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut refused = 0;
                            for _ in 0..OFFERS {
                                match gate.admit(None) {
                                    Ok(_) => {
                                        assert!(gate.outstanding() <= BOUND);
                                        gate.release(&[], &[Instant::now()]);
                                    }
                                    Err(err) => {
                                        assert!(err.is_overload(), "{err}");
                                        refused += 1;
                                    }
                                }
                            }
                            refused
                        })
                    })
                    .collect();
                let refused = submitters.into_iter().map(|h| h.join().unwrap()).sum();
                done.store(true, Ordering::Relaxed);
                refused
            });
            let snap = gate.snapshot();
            assert_eq!(snap.outstanding, 0);
            assert_eq!(snap.shed, refused as u64, "{policy:?}");
            assert_eq!(snap.admitted + snap.shed, (SUBMITTERS * OFFERS) as u64);
            assert_eq!(snap.latency_count, snap.admitted);
            if let AdmissionPolicy::Block { .. } = policy {
                assert_eq!(snap.shed, 0, "Block never sheds");
                // One submitter alone never finds the gate full.
                gate.admit(None).unwrap();
                gate.release(&[], &[Instant::now()]);
                assert_eq!(gate.snapshot().blocked, snap.blocked);
            }
        }
    }

    #[test]
    fn block_waits_for_a_release() {
        let gate = AdmissionGate::new(AdmissionPolicy::Block { max_pending: 1 });
        gate.admit(None).unwrap();
        let t1 = Instant::now();
        let gate2 = Arc::clone(&gate);
        let waiter = std::thread::spawn(move || {
            gate2.admit(None).unwrap();
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(!waiter.is_finished(), "blocked while the slot is held");
        gate.release(&[], &[t1]);
        waiter.join().unwrap();
        assert!(gate.snapshot().blocked >= 1);
    }
}
