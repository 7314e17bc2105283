//! Cross-client fingerprint aggregation with completion tickets.
//!
//! The paper's Figure-4 request flow has one web front-end accepting
//! backup streams from *many concurrent clients* and aggregating their
//! fingerprints into batches before shipping them to hash nodes. This
//! module is that aggregator:
//!
//! - [`SharedBatcher`] — a thread-safe pending queue any client thread can
//!   submit to,
//! - [`Ticket`] — the completion handle a submission receives: a blocking
//!   one-shot that later yields that fingerprint's answer,
//! - [`ClosedBatch`] — a released batch; one cluster round-trip answers
//!   every ticket in it through index-mapped demux
//!   ([`ClosedBatch::complete`]).
//!
//! # When a batch leaves the queue
//!
//! 1. **Size** — the submission that fills the batch receives it
//!    ([`Submitted::closed`]) and ships it inline.
//! 2. **Demand** — the first [`Ticket::wait`] to block on a batch that is
//!    still filling means its client has nothing more to add. The waiter
//!    asks the batcher's owner ([`SharedBatcher::on_demand`]); an idle
//!    owner ships the batch on the waiter's own thread
//!    ([`SharedBatcher::close_wanted`]), a busy one leaves it filling and
//!    hands the ask back when it frees up
//!    ([`SharedBatcher::pass_demand`]) — so under load the next batch is
//!    whatever arrived during the previous round trip, and batch size
//!    follows load with no limit to tune.
//! 3. **Age** — the cap ([`SharedBatcher::poll`], driven by the owner's
//!    timer thread) for clients that only poll [`Ticket::is_ready`] and so
//!    never give the demand signal. Without an owner callback it is also
//!    all a waiter has.
//!
//! [`SharedBatcher::flush`] releases whatever is pending regardless.
//!
//! Completion is **per batch, not per fingerprint**. A batch allocates
//! one shared completion cell when it opens; a ticket is a handle on that
//! cell plus its index in the batch. Completing the batch stores the
//! whole answer vector once, hands every admission slot back in one
//! release and issues at most one wake-up — none at all when no waiter is
//! parked, the common case on a size-closed batch, which is answered on
//! the closing submitter's own thread before anyone waits. So a window of
//! 2 048 fingerprints costs one cell and no system call between submit
//! and wait; per fingerprint it pays an admission count, a clock read and
//! a push.
//!
//! The aggregator is generic over the answer type `V` and knows nothing
//! about clusters or dispatch: whoever receives a [`ClosedBatch`] owns the
//! round-trip, and "idle" and "busy" above are the owner's to define.
//! Dropping a `ClosedBatch` without completing it fails every ticket in
//! it ([`Error::Unavailable`]) rather than leaving waiters blocked
//! forever.
//!
//! Occupancy is bounded: every submission first passes the batcher's
//! [`AdmissionPolicy`] (blocking backpressure by default; fail-fast
//! shedding with [`Error::Overloaded`] and per-tenant quotas via
//! [`SharedBatcher::with_admission`]), which limits *outstanding* work —
//! queued plus dispatched-but-unanswered — so a stalled or saturated
//! front-end can no longer grow its queue without bound. See
//! [`AdmissionPolicy`] for the policy menu and
//! [`SharedBatcher::submit_from`] for tenant-attributed submission.
//!
//! # Examples
//!
//! ```
//! use std::time::Duration;
//! use shhc_net::SharedBatcher;
//! use shhc_types::Fingerprint;
//!
//! let batcher: SharedBatcher<bool> = SharedBatcher::new(2, Duration::from_secs(1));
//! let first = batcher.submit(Fingerprint::from_u64(1));
//! assert!(first.closed.is_none(), "batch still filling");
//! let second = batcher.submit(Fingerprint::from_u64(2));
//! let batch = second.closed.expect("size limit reached");
//! assert_eq!(batch.len(), 2);
//! // The dispatcher answers every ticket in one index-mapped pass.
//! batch.complete(vec![false, true]).unwrap();
//! assert!(!first.ticket.wait().unwrap());
//! assert!(second.ticket.wait().unwrap());
//! ```

use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use shhc_types::{Error, Fingerprint, Result};

use crate::admission::{AdmissionGate, AdmissionPolicy, IngestBucket, IngestModel};
use crate::samples::SampleRing;

/// Largest up-front reservation for an opening batch's entry vectors; a
/// size limit beyond it grows them as entries arrive.
const RESERVE_LIMIT: usize = 4096;

/// How a batch ended: every ticket's answer in batch order, or the one
/// error they all share.
enum Outcome<V> {
    Answered(Vec<V>),
    Failed(Error),
}

impl<V: Clone> Outcome<V> {
    fn answer(&self, index: usize) -> Result<V> {
        match self {
            // `complete` checked the length against the batch.
            Outcome::Answered(answers) => Ok(answers[index].clone()),
            Outcome::Failed(err) => Err(err.clone()),
        }
    }
}

/// Where a batch stands with the demand trigger.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Demand {
    /// Filling in the queue; no blocked waiter has asked for it yet (or
    /// the last ask was handed back by [`SharedBatcher::pass_demand`]).
    Filling,
    /// Filling, and a blocked waiter has asked the owner to ship it.
    Wanted,
    /// Out of the queue — in flight or answered; waiting needs no ask.
    Closed,
}

/// The owner's demand callback (see [`SharedBatcher::on_demand`]).
type DemandHook = Arc<dyn Fn() + Send + Sync>;

struct CellState<V> {
    /// `None` until the batch is answered, then final.
    outcome: Option<Outcome<V>>,
    /// Tickets parked on `ready` right now; resolving a cell nobody waits
    /// on skips the wake-up.
    waiters: usize,
    demand: Demand,
}

/// The completion cell one batch's tickets share.
struct BatchCell<V> {
    state: StdMutex<CellState<V>>,
    ready: Condvar,
    /// Whom a blocked waiter asks to ship the batch; `None` when the
    /// batcher has no owner callback, and waiting is then only waiting.
    owner: Option<DemandHook>,
}

impl<V> BatchCell<V> {
    fn new(outcome: Option<Outcome<V>>, demand: Demand, owner: Option<DemandHook>) -> Arc<Self> {
        Arc::new(BatchCell {
            state: StdMutex::new(CellState {
                outcome,
                waiters: 0,
                demand,
            }),
            ready: Condvar::new(),
            owner,
        })
    }

    fn lock(&self) -> MutexGuard<'_, CellState<V>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Stores the batch's outcome and wakes its parked waiters, if any.
    /// Called once per cell ([`Unanswered::resolve`] guards that).
    fn resolve(&self, outcome: Outcome<V>) {
        let mut state = self.lock();
        state.outcome = Some(outcome);
        let parked = state.waiters > 0;
        drop(state);
        if parked {
            self.ready.notify_all();
        }
    }
}

/// A completion ticket: the blocking one-shot handle a fingerprint
/// submission receives, later yielding that fingerprint's answer.
///
/// Tickets are answered exactly once — by the dispatcher completing (or
/// failing) the batch, or by the batch being dropped (which surfaces as
/// [`Error::Unavailable`]). Waiting consumes the ticket, so an answer can
/// never be observed twice. A ticket may outlive the batcher that issued
/// it.
pub struct Ticket<V> {
    cell: Arc<BatchCell<V>>,
    /// This submission's position in its batch.
    index: usize,
}

impl<V> Ticket<V> {
    /// True once the answer has arrived (a subsequent
    /// [`wait`](Ticket::wait) will not block).
    pub fn is_ready(&self) -> bool {
        self.cell.lock().outcome.is_some()
    }
}

impl<V: Clone> Ticket<V> {
    /// Blocks until the fingerprint's answer arrives.
    ///
    /// Blocking on a ticket whose batch is still filling is the **demand**
    /// close trigger: the batcher's owner is asked, once per batch, to
    /// ship it (see [`SharedBatcher::on_demand`]), and may run the
    /// batch's round trip on this thread before the wait returns.
    ///
    /// # Errors
    ///
    /// The dispatch failure, when the batch's cluster round-trip failed;
    /// [`Error::Unavailable`] when the batch was dropped unanswered.
    pub fn wait(self) -> Result<V> {
        self.wait_until(None)
    }

    /// Like [`wait`](Ticket::wait), giving up after `timeout`. A zero
    /// timeout only looks; a round trip this wait runs itself (demand
    /// close) is not cut short.
    ///
    /// # Errors
    ///
    /// [`Error::Unavailable`] when the timeout elapses first; otherwise as
    /// [`wait`](Ticket::wait).
    pub fn wait_timeout(self, timeout: Duration) -> Result<V> {
        self.wait_until(Some(Instant::now() + timeout))
    }

    fn wait_until(self, deadline: Option<Instant>) -> Result<V> {
        let cell = &*self.cell;
        let mut state = cell.lock();
        loop {
            if let Some(outcome) = &state.outcome {
                return outcome.answer(self.index);
            }
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if left.is_some_and(|left| left.is_zero()) {
                return Err(Error::Unavailable("ticket wait timed out".into()));
            }
            if let (Demand::Filling, Some(owner)) = (state.demand, &cell.owner) {
                // First blocked waiter on an open batch: its client has
                // nothing more to add. The owner runs unlocked — it may
                // close and answer this very batch before returning.
                state.demand = Demand::Wanted;
                drop(state);
                owner();
                state = cell.lock();
                continue;
            }
            state.waiters += 1;
            state = match left {
                None => cell.ready.wait(state).unwrap_or_else(|e| e.into_inner()),
                Some(left) => {
                    cell.ready
                        .wait_timeout(state, left)
                        .unwrap_or_else(|e| e.into_inner())
                        .0
                }
            };
            state.waiters -= 1;
        }
    }
}

impl<V> std::fmt::Debug for Ticket<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("ready", &self.is_ready())
            .finish()
    }
}

/// An admitted batch nobody has answered yet — filling in the queue, or
/// closed and in flight. However it ends, it ends once: the admission
/// slots of all its entries go back in one release, then one outcome
/// resolves all its tickets. Dropping it unanswered fails the tickets
/// with [`Error::Unavailable`] so waiters never block forever.
struct Unanswered<V> {
    fingerprints: Vec<Fingerprint>,
    /// Each entry's own enqueue time, taken right after admission: the
    /// source of its queueing delay at close and its admitted latency at
    /// release.
    submitted_at: Vec<Instant>,
    /// The tenant key each entry's admission was charged to (empty unless
    /// the policy counts per tenant).
    charged: Vec<u32>,
    cell: Arc<BatchCell<V>>,
    gate: Arc<AdmissionGate>,
    resolved: bool,
}

impl<V> Unanswered<V> {
    fn open(gate: &Arc<AdmissionGate>, reserve: usize, owner: Option<DemandHook>) -> Self {
        Unanswered {
            fingerprints: Vec::with_capacity(reserve),
            submitted_at: Vec::with_capacity(reserve),
            charged: Vec::new(),
            cell: BatchCell::new(None, Demand::Filling, owner),
            gate: Arc::clone(gate),
            resolved: false,
        }
    }

    /// Slots first, answer second: a waiter that sees its answer
    /// also sees the batch's slots already returned.
    fn resolve(&mut self, outcome: Outcome<V>) {
        self.resolved = true;
        self.gate.release(&self.charged, &self.submitted_at);
        self.cell.resolve(outcome);
    }
}

impl<V> Drop for Unanswered<V> {
    fn drop(&mut self) {
        if !self.resolved {
            self.resolve(Outcome::Failed(Error::Unavailable(
                "front-end dropped the batch without answering its tickets".into(),
            )));
        }
    }
}

/// Why a batch was released.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// The size limit was reached.
    Size,
    /// A blocked waiter asked for it ([`SharedBatcher::close_wanted`]).
    Demand,
    /// The oldest entry exceeded the age limit.
    Age,
    /// An explicit flush released the batch.
    Flush,
}

/// A batch released by a [`SharedBatcher`]: the fingerprints in arrival
/// order plus the completion cell of the tickets issued for them.
///
/// Whoever receives the batch owns the cluster round-trip and must end it
/// with [`complete`](ClosedBatch::complete) or
/// [`fail`](ClosedBatch::fail); dropping the batch fails every ticket.
#[must_use = "every ticket in the batch blocks until the batch is completed or failed"]
pub struct ClosedBatch<V> {
    batch: Unanswered<V>,
    closed_at: Instant,
    reason: CloseReason,
}

impl<V> ClosedBatch<V> {
    /// The batch's fingerprints, in arrival order across all sessions.
    pub fn fingerprints(&self) -> &[Fingerprint] {
        &self.batch.fingerprints
    }

    /// Number of fingerprints (never zero — empty batches are not
    /// released).
    pub fn len(&self) -> usize {
        self.batch.fingerprints.len()
    }

    /// Always false; present for API completeness.
    pub fn is_empty(&self) -> bool {
        self.batch.fingerprints.is_empty()
    }

    /// Why the batch closed.
    pub fn reason(&self) -> CloseReason {
        self.reason
    }

    /// How long the batch's oldest entry waited before release (its own
    /// enqueue time to the close, never a shared `opened_at` that a
    /// concurrent flush could have reset).
    pub fn queueing_delay(&self) -> Duration {
        self.closed_at - self.batch.submitted_at[0]
    }

    /// Answers every ticket: `answers[i]` resolves the ticket of
    /// `fingerprints()[i]` — the index-mapped demux of one cluster
    /// round-trip. The vector is stored as it is; each ticket reads its
    /// own element.
    ///
    /// # Errors
    ///
    /// [`Error::Decode`] when `answers` does not cover the batch exactly;
    /// every ticket is then failed with the same error.
    pub fn complete(mut self, answers: Vec<V>) -> Result<()> {
        if answers.len() != self.len() {
            let err = Error::Decode(format!(
                "batch of {} fingerprints answered with {} values",
                self.len(),
                answers.len()
            ));
            self.batch.resolve(Outcome::Failed(err.clone()));
            return Err(err);
        }
        self.batch.resolve(Outcome::Answered(answers));
        Ok(())
    }

    /// Fails every ticket with (a clone of) `err` — the path taken when
    /// the batch's cluster round-trip fails as a whole.
    pub fn fail(mut self, err: &Error) {
        self.batch.resolve(Outcome::Failed(err.clone()));
    }
}

impl<V> std::fmt::Debug for ClosedBatch<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClosedBatch")
            .field("len", &self.len())
            .field("reason", &self.reason)
            .field("queueing_delay", &self.queueing_delay())
            .finish()
    }
}

/// Result of one [`SharedBatcher::submit`] call.
#[derive(Debug)]
pub struct Submitted<V> {
    /// The completion ticket for the submitted fingerprint.
    pub ticket: Ticket<V>,
    /// The batch this submission closed, when it tripped the size or age
    /// limit. The caller owns its dispatch.
    pub closed: Option<ClosedBatch<V>>,
    /// True when this submission opened a fresh batch (the pending queue
    /// was empty) — the cue for timer-driven owners to re-arm their age
    /// alarm.
    pub opened: bool,
    /// True when admission control shed this submission: the ticket is
    /// already resolved with [`Error::Overloaded`] and nothing was
    /// queued. Callers that can retry should back off first.
    pub shed: bool,
}

/// Accumulated front-end counters (under the queue lock).
#[derive(Default)]
struct StatsAccum {
    batches: u64,
    fingerprints: u64,
    closed_by_size: u64,
    closed_by_demand: u64,
    closed_by_age: u64,
    closed_by_flush: u64,
    max_occupancy: usize,
    delay_count: u64,
    delay_total_ns: u128,
    delay_max_ns: u64,
    /// Ring of the most recent per-fingerprint submit→close delays, so
    /// the windowed tail stays live at any uptime.
    delay_samples: SampleRing,
}

/// Point-in-time snapshot of a [`SharedBatcher`]'s counters.
#[derive(Debug, Clone, Default)]
pub struct SharedBatcherStats {
    /// Batches released so far.
    pub batches: u64,
    /// Fingerprints released in batches so far.
    pub fingerprints: u64,
    /// Batches closed by the size limit.
    pub closed_by_size: u64,
    /// Batches closed because a waiter blocked on them.
    pub closed_by_demand: u64,
    /// Batches closed by the age limit.
    pub closed_by_age: u64,
    /// Batches closed by an explicit flush.
    pub closed_by_flush: u64,
    /// Largest batch released.
    pub max_occupancy: usize,
    /// Fingerprints currently waiting.
    pub pending: usize,
    /// Per-fingerprint queueing delays recorded (may exceed the sample
    /// vector length once the retention cap is hit).
    pub delay_count: u64,
    /// Sum of all recorded delays, in nanoseconds.
    pub delay_total_ns: u128,
    /// Largest recorded delay, in nanoseconds.
    pub delay_max_ns: u64,
    /// The most recent delay samples in nanoseconds, oldest first
    /// (bounded ring — quantiles describe current behaviour, not the
    /// first hours of uptime).
    pub delay_samples_ns: Vec<u64>,
    /// Submissions admitted past the admission policy.
    pub admitted: u64,
    /// Submissions shed with [`Error::Overloaded`].
    pub shed: u64,
    /// Of the shed submissions, those denied by a per-tenant quota
    /// rather than the global bound.
    pub shed_by_tenant: u64,
    /// Times a submission waited for admission (blocking policy or
    /// ingest pacing).
    pub blocked: u64,
    /// Admitted submissions not yet answered (queued + in flight).
    pub outstanding: usize,
    /// Admitted-latency (admission → answer) observations recorded.
    pub admitted_latency_count: u64,
    /// Sum of recorded admitted latencies, in nanoseconds.
    pub admitted_latency_total_ns: u128,
    /// Largest recorded admitted latency, in nanoseconds.
    pub admitted_latency_max_ns: u64,
    /// The most recent admitted-latency samples in nanoseconds, oldest
    /// first (bounded ring).
    pub admitted_latency_samples_ns: Vec<u64>,
}

impl SharedBatcherStats {
    /// Mean fingerprints per released batch — the cross-client
    /// aggregation payoff.
    pub fn mean_occupancy(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.fingerprints as f64 / self.batches as f64
        }
    }

    /// Mean per-fingerprint queueing delay.
    pub fn mean_delay(&self) -> Duration {
        if self.delay_count == 0 {
            Duration::ZERO
        } else {
            Duration::from_nanos((self.delay_total_ns / u128::from(self.delay_count)) as u64)
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) of the recorded per-fingerprint
    /// queueing delays, or `None` with no samples.
    pub fn delay_quantile(&self, q: f64) -> Option<Duration> {
        if self.delay_samples_ns.is_empty() {
            return None;
        }
        let mut sorted = self.delay_samples_ns.clone();
        sorted.sort_unstable();
        let rank = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        Some(Duration::from_nanos(sorted[rank]))
    }

    /// The 99th-percentile queueing delay, or `None` with no samples.
    pub fn p99(&self) -> Option<Duration> {
        self.delay_quantile(0.99)
    }

    /// The 99.9th-percentile queueing delay, or `None` with no samples.
    pub fn p999(&self) -> Option<Duration> {
        self.delay_quantile(0.999)
    }

    /// Fraction of submissions shed by admission control, `0.0` when
    /// nothing was offered.
    pub fn shed_rate(&self) -> f64 {
        let offered = self.admitted + self.shed;
        if offered == 0 {
            0.0
        } else {
            self.shed as f64 / offered as f64
        }
    }

    /// Mean admitted latency (admission → answer).
    pub fn mean_admitted_latency(&self) -> Duration {
        if self.admitted_latency_count == 0 {
            Duration::ZERO
        } else {
            Duration::from_nanos(
                (self.admitted_latency_total_ns / u128::from(self.admitted_latency_count)) as u64,
            )
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) of recent admitted latencies, or
    /// `None` with no samples.
    pub fn admitted_latency_quantile(&self, q: f64) -> Option<Duration> {
        if self.admitted_latency_samples_ns.is_empty() {
            return None;
        }
        let mut sorted = self.admitted_latency_samples_ns.clone();
        sorted.sort_unstable();
        let rank = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        Some(Duration::from_nanos(sorted[rank]))
    }

    /// The 99th-percentile admitted latency — the SLO signal the
    /// overload bench reports for requests the system chose to serve.
    pub fn admitted_p99(&self) -> Option<Duration> {
        self.admitted_latency_quantile(0.99)
    }

    /// The 99.9th-percentile admitted latency.
    pub fn admitted_p999(&self) -> Option<Duration> {
        self.admitted_latency_quantile(0.999)
    }
}

/// Inner queue state, under one mutex. The batch's age derives from the
/// first pending entry's own enqueue time — there is deliberately no
/// shared `opened_at` a racing flush could reset.
struct State<V> {
    /// The batch being filled; `None` while nothing is pending.
    open: Option<Unanswered<V>>,
    stats: StatsAccum,
}

impl<V> State<V> {
    fn oldest(&self) -> Option<Instant> {
        self.open.as_ref().map(|batch| batch.submitted_at[0])
    }
}

/// Thread-safe cross-client fingerprint aggregator.
///
/// Submissions from any thread append to one shared pending queue and
/// receive a [`Ticket`]; the [module docs](self) give the three rules by
/// which a batch leaves the queue, plus [`flush`](SharedBatcher::flush).
/// Arrival order is preserved globally, hence also within each session.
/// The rules only decide *when* batches close, never what they contain
/// or how tickets resolve.
pub struct SharedBatcher<V> {
    max_size: usize,
    max_age: Duration,
    state: Mutex<State<V>>,
    gate: Arc<AdmissionGate>,
    /// Optional ingest-rate model (token bucket) standing in for the
    /// front-end's client-facing CPU; checked before admission.
    ingest: Option<StdMutex<IngestBucket>>,
    /// The owner's demand callback, handed to every batch this opens.
    owner: Option<DemandHook>,
}

impl<V> SharedBatcher<V> {
    /// Creates an aggregator with the given size and age limits and the
    /// default admission policy ([`AdmissionPolicy::default`]: blocking
    /// backpressure at a generous bound).
    ///
    /// # Panics
    ///
    /// Panics if `max_size` is zero.
    pub fn new(max_size: usize, max_age: Duration) -> Self {
        Self::with_admission(max_size, max_age, AdmissionPolicy::default(), None)
    }

    /// Creates an aggregator with an explicit [`AdmissionPolicy`] and an
    /// optional [`IngestModel`] bounding the sustained submission rate.
    ///
    /// # Panics
    ///
    /// Panics if `max_size` is zero.
    pub fn with_admission(
        max_size: usize,
        max_age: Duration,
        policy: AdmissionPolicy,
        ingest: Option<IngestModel>,
    ) -> Self {
        assert!(max_size > 0, "batch size must be nonzero");
        SharedBatcher {
            max_size,
            max_age,
            state: Mutex::new(State {
                open: None,
                stats: StatsAccum::default(),
            }),
            gate: AdmissionGate::new(policy),
            ingest: ingest.map(|model| StdMutex::new(IngestBucket::new(model))),
            owner: None,
        }
    }

    /// Names the owner's demand callback, switching the demand trigger
    /// on: the first [`Ticket::wait`] / [`wait_timeout`](Ticket::wait_timeout)
    /// to block on a batch that is still filling calls `hook` (on the
    /// waiter's thread, no batcher lock held), once per batch until the
    /// ask is handed back by [`pass_demand`](Self::pass_demand). The
    /// owner answers by shipping [`close_wanted`](Self::close_wanted)
    /// now, or — if it would rather not yet — by calling `pass_demand`
    /// once it would. Tickets may outlive the batcher and call `hook`
    /// after it is gone, so the hook must hold its owner weakly.
    pub fn on_demand(mut self, hook: impl Fn() + Send + Sync + 'static) -> Self {
        self.owner = Some(Arc::new(hook));
        self
    }

    /// Appends a fingerprint to the shared queue, returning its
    /// completion ticket plus the batch this submission closed (size or
    /// age limit), if any. Equivalent to
    /// [`submit_from`](SharedBatcher::submit_from) with no tenant.
    pub fn submit(&self, fingerprint: Fingerprint) -> Submitted<V> {
        self.submit_from(None, fingerprint)
    }

    /// Appends a fingerprint on behalf of `tenant`, passing the
    /// admission policy first. Under a shedding policy past its bound
    /// (or the tenant's quota), nothing is queued: the returned ticket
    /// is already resolved with [`Error::Overloaded`] and
    /// [`Submitted::shed`] is set.
    pub fn submit_from(&self, tenant: Option<u32>, fingerprint: Fingerprint) -> Submitted<V> {
        // 1. Ingest-rate pacing: the front-end's client-facing CPU.
        if let Some(bucket) = &self.ingest {
            loop {
                let taken = bucket
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .try_take(Instant::now());
                match taken {
                    Ok(()) => break,
                    Err(_) if self.gate.policy().sheds() => {
                        self.gate.note_shed();
                        return Self::shed_submission(Error::overloaded(
                            "front-end ingest rate exceeded",
                        ));
                    }
                    Err(wait) => {
                        self.gate.note_blocked();
                        std::thread::sleep(wait);
                    }
                }
            }
        }
        // 2. Occupancy admission: blocks or sheds per the policy.
        let charged = match self.gate.admit(tenant) {
            Ok(charged) => charged,
            Err(err) => return Self::shed_submission(err),
        };
        // 3. The queue proper. One clock read stamps the entry for its
        // queueing delay and its admitted latency alike.
        let now = Instant::now();
        let max_size = self.max_size;
        let mut state = self.state.lock();
        let opened = state.open.is_none();
        let batch = state.open.get_or_insert_with(|| {
            Unanswered::open(&self.gate, max_size.min(RESERVE_LIMIT), self.owner.clone())
        });
        let ticket = Ticket {
            cell: Arc::clone(&batch.cell),
            index: batch.fingerprints.len(),
        };
        batch.fingerprints.push(fingerprint);
        batch.submitted_at.push(now);
        batch.charged.extend(charged);
        let closed = if batch.fingerprints.len() >= max_size {
            Self::close(&mut state, now, CloseReason::Size)
        } else if now.duration_since(batch.submitted_at[0]) >= self.max_age {
            Self::close(&mut state, now, CloseReason::Age)
        } else {
            None
        };
        drop(state);
        Submitted {
            ticket,
            closed,
            opened,
            shed: false,
        }
    }

    /// Builds the fail-fast result of a shed submission: a ticket born
    /// resolved with `err`, nothing queued.
    fn shed_submission(err: Error) -> Submitted<V> {
        Submitted {
            ticket: Ticket {
                cell: BatchCell::new(Some(Outcome::Failed(err)), Demand::Closed, None),
                index: 0,
            },
            closed: None,
            opened: false,
            shed: true,
        }
    }

    /// Releases the pending batch if its oldest entry has exceeded the
    /// age limit — the hook a background flusher thread drives, so an
    /// idle front-end still answers a lone fingerprint within ≈`max_age`.
    pub fn poll(&self) -> Option<ClosedBatch<V>> {
        let now = Instant::now();
        let mut state = self.state.lock();
        let stale = state
            .oldest()
            .is_some_and(|oldest| now.duration_since(oldest) >= self.max_age);
        if stale {
            Self::close(&mut state, now, CloseReason::Age)
        } else {
            None
        }
    }

    /// Releases the pending batch if a blocked waiter has asked for it —
    /// the owner's half of the demand trigger.
    pub fn close_wanted(&self) -> Option<ClosedBatch<V>> {
        let mut state = self.state.lock();
        let wanted = state
            .open
            .as_ref()
            .is_some_and(|batch| batch.cell.lock().demand == Demand::Wanted);
        if wanted {
            // Read under the lock, so no entry's own stamp is later.
            Self::close(&mut state, Instant::now(), CloseReason::Demand)
        } else {
            None
        }
    }

    /// Hands an unserved ask back to the pending batch's waiters: its
    /// parked tickets wake, and the first to look asks the owner again.
    /// For an owner that turned the ask down when it came (a round trip
    /// was in flight) and would now take it. The batch stays pending, so
    /// if every asker has since given up it is still under the age cap.
    pub fn pass_demand(&self) {
        let state = self.state.lock();
        let Some(batch) = &state.open else { return };
        let mut cell = batch.cell.lock();
        if cell.demand == Demand::Wanted {
            cell.demand = Demand::Filling;
            let parked = cell.waiters > 0;
            drop(cell);
            if parked {
                batch.cell.ready.notify_all();
            }
        }
    }

    /// Unconditionally releases whatever is pending.
    pub fn flush(&self) -> Option<ClosedBatch<V>> {
        let now = Instant::now();
        Self::close(&mut self.state.lock(), now, CloseReason::Flush)
    }

    /// When the pending batch must be released at the latest (`None` when
    /// the queue is empty) — what a flusher thread sleeps toward.
    pub fn next_deadline(&self) -> Option<Instant> {
        let oldest = self.state.lock().oldest();
        oldest.map(|oldest| oldest + self.max_age)
    }

    /// Releases the open batch, if there is one, recording its close in
    /// the stats.
    fn close(state: &mut State<V>, now: Instant, reason: CloseReason) -> Option<ClosedBatch<V>> {
        let batch = state.open.take()?;
        batch.cell.lock().demand = Demand::Closed;
        let stats = &mut state.stats;
        stats.batches += 1;
        stats.fingerprints += batch.fingerprints.len() as u64;
        stats.max_occupancy = stats.max_occupancy.max(batch.fingerprints.len());
        match reason {
            CloseReason::Size => stats.closed_by_size += 1,
            CloseReason::Demand => stats.closed_by_demand += 1,
            CloseReason::Age => stats.closed_by_age += 1,
            CloseReason::Flush => stats.closed_by_flush += 1,
        }
        for submitted_at in &batch.submitted_at {
            // Each entry's delay is measured from its *own* enqueue time
            // with the one shared close instant, so no sample can be
            // negative or reach across a batch boundary.
            let delay_ns = now
                .duration_since(*submitted_at)
                .as_nanos()
                .min(u128::from(u64::MAX)) as u64;
            stats.delay_count += 1;
            stats.delay_total_ns += u128::from(delay_ns);
            stats.delay_max_ns = stats.delay_max_ns.max(delay_ns);
            stats.delay_samples.push(delay_ns);
        }
        Some(ClosedBatch {
            batch,
            closed_at: now,
            reason,
        })
    }

    /// Fingerprints currently waiting.
    pub fn pending_len(&self) -> usize {
        Self::pending(&self.state.lock())
    }

    fn pending(state: &State<V>) -> usize {
        state
            .open
            .as_ref()
            .map_or(0, |batch| batch.fingerprints.len())
    }

    /// The maximum batch size.
    pub fn max_size(&self) -> usize {
        self.max_size
    }

    /// The maximum batch age.
    pub fn max_age(&self) -> Duration {
        self.max_age
    }

    /// The batcher's admission policy.
    pub fn admission_policy(&self) -> AdmissionPolicy {
        self.gate.policy()
    }

    /// Admitted submissions not yet answered (queued + dispatched) — the
    /// windowed occupancy signal a load balancer compares, cheap enough
    /// to read per submission.
    pub fn outstanding(&self) -> usize {
        self.gate.outstanding()
    }

    /// Snapshots the aggregation counters, delay distribution, and
    /// admission counters. Only the counters are read under the queue and
    /// admission locks; the two sample rings (2 MiB each when full) are
    /// copied after both are released, so a stats reader — a tier merge,
    /// a monitor — never stalls submitters behind a memcpy.
    pub fn stats(&self) -> SharedBatcherStats {
        let admission = self.gate.snapshot();
        let state = self.state.lock();
        let s = &state.stats;
        let delay_samples = s.delay_samples.reader();
        let mut stats = SharedBatcherStats {
            batches: s.batches,
            fingerprints: s.fingerprints,
            closed_by_size: s.closed_by_size,
            closed_by_demand: s.closed_by_demand,
            closed_by_age: s.closed_by_age,
            closed_by_flush: s.closed_by_flush,
            max_occupancy: s.max_occupancy,
            pending: Self::pending(&state),
            delay_count: s.delay_count,
            delay_total_ns: s.delay_total_ns,
            delay_max_ns: s.delay_max_ns,
            delay_samples_ns: Vec::new(),
            admitted: admission.admitted,
            shed: admission.shed,
            shed_by_tenant: admission.shed_by_tenant,
            blocked: admission.blocked,
            outstanding: admission.outstanding,
            admitted_latency_count: admission.latency_count,
            admitted_latency_total_ns: admission.latency_total_ns,
            admitted_latency_max_ns: admission.latency_max_ns,
            admitted_latency_samples_ns: Vec::new(),
        };
        drop(state);
        stats.delay_samples_ns = delay_samples.samples();
        stats.admitted_latency_samples_ns = admission.latency_samples.samples();
        stats
    }

    /// Shrinks the delay-sample ring so saturation behaviour is testable
    /// without pushing 2^18 samples.
    #[cfg(test)]
    pub(crate) fn set_delay_sample_cap_for_test(&self, cap: usize) {
        self.state.lock().stats.delay_samples = SampleRing::new(cap);
    }
}

impl<V> std::fmt::Debug for SharedBatcher<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedBatcher")
            .field("max_size", &self.max_size())
            .field("max_age", &self.max_age())
            .field("pending", &self.pending_len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(v: u64) -> Fingerprint {
        Fingerprint::from_u64(v)
    }

    #[test]
    fn size_trigger_returns_batch_to_closer() {
        let b: SharedBatcher<u64> = SharedBatcher::new(3, Duration::from_secs(60));
        let s1 = b.submit(fp(1));
        assert!(s1.opened && s1.closed.is_none());
        let s2 = b.submit(fp(2));
        assert!(!s2.opened && s2.closed.is_none());
        let s3 = b.submit(fp(3));
        let batch = s3.closed.expect("size limit");
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.reason(), CloseReason::Size);
        assert_eq!(batch.fingerprints(), &[fp(1), fp(2), fp(3)]);
        batch.complete(vec![10, 20, 30]).unwrap();
        assert_eq!(s1.ticket.wait().unwrap(), 10);
        assert_eq!(s2.ticket.wait().unwrap(), 20);
        assert_eq!(s3.ticket.wait().unwrap(), 30);
        assert_eq!(b.pending_len(), 0);
    }

    #[test]
    fn poll_releases_stale_batch() {
        let b: SharedBatcher<u64> = SharedBatcher::new(100, Duration::from_millis(5));
        let s = b.submit(fp(1));
        assert!(b.poll().is_none(), "not stale yet");
        std::thread::sleep(Duration::from_millis(8));
        let batch = b.poll().expect("stale batch released");
        assert_eq!(batch.reason(), CloseReason::Age);
        assert!(batch.queueing_delay() >= Duration::from_millis(5));
        batch.complete(vec![1]).unwrap();
        assert_eq!(s.ticket.wait().unwrap(), 1);
        assert!(b.poll().is_none(), "nothing pending");
    }

    #[test]
    fn flush_and_deadline() {
        let b: SharedBatcher<u64> = SharedBatcher::new(100, Duration::from_secs(1));
        assert!(b.flush().is_none());
        assert!(b.next_deadline().is_none());
        let s1 = b.submit(fp(1));
        let deadline = b.next_deadline().expect("armed");
        assert!(deadline > Instant::now());
        let batch = b.flush().expect("flush releases");
        assert_eq!(batch.reason(), CloseReason::Flush);
        batch.complete(vec![7]).unwrap();
        assert_eq!(s1.ticket.wait().unwrap(), 7);
    }

    #[test]
    fn dropped_batch_fails_tickets() {
        let b: SharedBatcher<u64> = SharedBatcher::new(1, Duration::from_secs(1));
        let s = b.submit(fp(1));
        drop(s.closed.expect("size-1 batch"));
        let err = s.ticket.wait().unwrap_err();
        assert!(matches!(err, Error::Unavailable(_)), "{err}");
    }

    #[test]
    fn fail_propagates_error_to_every_ticket() {
        let b: SharedBatcher<u64> = SharedBatcher::new(2, Duration::from_secs(1));
        let s1 = b.submit(fp(1));
        let s2 = b.submit(fp(2));
        s2.closed
            .expect("size limit")
            .fail(&Error::Unavailable("node down".into()));
        for t in [s1.ticket, s2.ticket] {
            assert!(matches!(t.wait(), Err(Error::Unavailable(_))));
        }
    }

    #[test]
    fn mismatched_answer_count_fails_tickets() {
        let b: SharedBatcher<u64> = SharedBatcher::new(2, Duration::from_secs(1));
        let s1 = b.submit(fp(1));
        let s2 = b.submit(fp(2));
        let err = s2.closed.unwrap().complete(vec![1]).unwrap_err();
        assert!(matches!(err, Error::Decode(_)), "{err}");
        assert!(matches!(s1.ticket.wait(), Err(Error::Decode(_))));
        assert!(matches!(s2.ticket.wait(), Err(Error::Decode(_))));
    }

    #[test]
    fn wait_timeout_gives_up() {
        let b: SharedBatcher<u64> = SharedBatcher::new(100, Duration::from_secs(60));
        let s = b.submit(fp(1));
        assert!(!s.ticket.is_ready());
        let err = s.ticket.wait_timeout(Duration::from_millis(5)).unwrap_err();
        assert!(matches!(err, Error::Unavailable(_)), "{err}");
    }

    #[test]
    fn cross_thread_submissions_aggregate() {
        let b: Arc<SharedBatcher<u64>> = Arc::new(SharedBatcher::new(4, Duration::from_secs(60)));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                let s = b.submit(fp(t));
                if let Some(batch) = s.closed {
                    let answers = batch.fingerprints().iter().map(|f| f.route_key()).collect();
                    batch.complete(answers).unwrap();
                }
                s.ticket.wait().unwrap()
            }));
        }
        for (t, h) in handles.into_iter().enumerate() {
            assert_eq!(h.join().unwrap(), fp(t as u64).route_key());
        }
        let stats = b.stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.fingerprints, 4);
        assert!((stats.mean_occupancy() - 4.0).abs() < 1e-9);
    }

    /// The interleaving the per-batch wake-up exists for, forced: the
    /// waiter is parked on the cell (its count says so) before the batch
    /// completes, and the one notify reaches it.
    #[test]
    fn waiter_parked_before_complete_is_woken() {
        let b: SharedBatcher<u64> = SharedBatcher::new(2, Duration::from_secs(60));
        let s1 = b.submit(fp(1));
        let cell = Arc::clone(&s1.ticket.cell);
        let waiter = std::thread::spawn(move || s1.ticket.wait());
        while cell.lock().waiters == 0 {
            std::thread::yield_now();
        }
        let s2 = b.submit(fp(2));
        s2.closed
            .expect("size limit")
            .complete(vec![10, 20])
            .unwrap();
        assert_eq!(waiter.join().unwrap().unwrap(), 10);
        assert_eq!(cell.lock().waiters, 0);
        assert_eq!(
            s2.ticket.wait().unwrap(),
            20,
            "unparked ticket reads the stored answer"
        );
    }

    /// `stats()` copies the sample rings after releasing the locks the
    /// submitters need; whatever it races, each snapshot is one the
    /// counters agree on.
    #[test]
    fn stats_racing_submitters_stays_consistent() {
        const SUBMITTERS: u64 = 4;
        const PER_SUBMITTER: u64 = 20_000;
        const RING: usize = 4096;
        let b: Arc<SharedBatcher<u64>> = Arc::new(SharedBatcher::new(7, Duration::from_secs(60)));
        b.set_delay_sample_cap_for_test(RING);
        let handles: Vec<_> = (0..SUBMITTERS)
            .map(|t| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    let mut closed_sizes = 0u64;
                    for i in 0..PER_SUBMITTER {
                        if let Some(batch) = b.submit(fp((t << 32) | i)).closed {
                            closed_sizes += batch.len() as u64;
                            let n = batch.len();
                            batch.complete(vec![0; n]).unwrap();
                        }
                    }
                    closed_sizes
                })
            })
            .collect();
        let mut snapshots = 0;
        while handles.iter().any(|h| !h.is_finished()) || snapshots == 0 {
            let stats = b.stats();
            assert_eq!(
                stats.delay_count, stats.fingerprints,
                "one delay per released entry"
            );
            assert_eq!(
                stats.delay_samples_ns.len() as u64,
                stats.fingerprints.min(RING as u64),
                "retained samples = released entries, capped by the ring"
            );
            assert!(stats.batches * 7 >= stats.fingerprints);
            assert!(stats.admitted_latency_count <= stats.admitted);
            assert_eq!(
                stats.admitted_latency_samples_ns.len() as u64,
                stats
                    .admitted_latency_count
                    .min(crate::admission::LATENCY_SAMPLE_CAP as u64)
            );
            snapshots += 1;
        }
        let released: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let stats = b.stats();
        assert_eq!(stats.fingerprints, released, "fingerprints = Σ batch sizes");
        assert_eq!(
            stats.fingerprints + stats.pending as u64,
            SUBMITTERS * PER_SUBMITTER
        );
        assert_eq!(stats.outstanding, stats.pending);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashMap;

        /// Encodes (session, per-session sequence number) into a
        /// fingerprint so batches can be audited afterwards.
        fn session_fp(session: usize, seq: u64) -> Fingerprint {
            Fingerprint::from_u64(((session as u64) << 32) | seq)
        }

        proptest! {
            /// The cross-client batcher invariants of the Figure-4 flow:
            /// no released batch is empty, every ticket is answered
            /// exactly once with *its own* fingerprint's answer (the
            /// index-mapped demux never cross-wires), and arrival order
            /// is preserved within each session.
            #[test]
            fn batcher_never_loses_or_reorders_tickets(
                max_size in 1usize..9,
                script in proptest::collection::vec(0usize..4, 1..150),
            ) {
                let batcher: SharedBatcher<u64> =
                    SharedBatcher::new(max_size, Duration::from_secs(3600));
                let mut answer_of: HashMap<Fingerprint, u64> = HashMap::new();
                let mut tickets: Vec<Vec<(Fingerprint, Ticket<u64>)>> =
                    (0..4).map(|_| Vec::new()).collect();
                let mut seqs = [0u64; 4];
                let mut batches = Vec::new();

                for &session in &script {
                    let fp = session_fp(session, seqs[session]);
                    seqs[session] += 1;
                    answer_of.insert(fp, fp.route_key());
                    let submitted = batcher.submit(fp);
                    tickets[session].push((fp, submitted.ticket));
                    if let Some(batch) = submitted.closed {
                        prop_assert_eq!(batch.len(), max_size, "only size closes here");
                        batches.push(batch);
                    }
                }
                if let Some(batch) = batcher.flush() {
                    batches.push(batch);
                }
                prop_assert_eq!(batcher.pending_len(), 0);

                // Released batches are never empty, and together they
                // carry every submission in global arrival order.
                let mut released = Vec::new();
                for batch in batches {
                    prop_assert!(!batch.is_empty(), "empty batch released");
                    released.extend_from_slice(batch.fingerprints());
                    let answers = batch
                        .fingerprints()
                        .iter()
                        .map(|f| answer_of[f])
                        .collect::<Vec<_>>();
                    batch.complete(answers).map_err(|e| {
                        TestCaseError::fail(format!("complete failed: {e}"))
                    })?;
                }
                prop_assert_eq!(released.len(), script.len());
                for (session, expected_len) in seqs.iter().enumerate() {
                    let in_session: Vec<Fingerprint> = released
                        .iter()
                        .copied()
                        .filter(|f| f.route_key() >> 32 == session as u64)
                        .collect();
                    let submitted: Vec<Fingerprint> =
                        (0..*expected_len).map(|s| session_fp(session, s)).collect();
                    prop_assert_eq!(in_session, submitted, "session order broken");
                }

                // Every ticket resolves exactly once, to its own answer.
                for session_tickets in tickets {
                    for (fp, ticket) in session_tickets {
                        prop_assert!(ticket.is_ready(), "ticket dropped unanswered");
                        let got = ticket.wait().map_err(|e| {
                            TestCaseError::fail(format!("ticket failed: {e}"))
                        })?;
                        prop_assert_eq!(got, answer_of[&fp], "answer cross-wired");
                    }
                }
            }

            /// Queue-delay stats come solely from each entry's own
            /// enqueue time: whatever mix of submits, polls and flushes
            /// races over the queue, every recorded sample is bounded by
            /// real elapsed time (a "negative" delay would wrap to an
            /// astronomical u64), every batch's oldest-entry sample
            /// equals exactly its reported `queueing_delay`, and no
            /// sample reaches back across a batch boundary.
            #[test]
            fn delay_samples_are_per_entry_and_batch_local(
                max_size in 1usize..6,
                // 0..=2 submit, 3 flush, 4 poll past the (short) age
                // limit.
                script in proptest::collection::vec(0u8..5, 1..80),
            ) {
                const AGE: Duration = Duration::from_micros(200);
                let batcher: SharedBatcher<u64> = SharedBatcher::new(max_size, AGE);
                let started = Instant::now();
                let mut tickets: Vec<Ticket<u64>> = Vec::new();
                let mut seen_samples = 0usize;
                let mut seq = 0u64;
                let audit = |batch: ClosedBatch<u64>,
                                 seen: &mut usize|
                 -> std::result::Result<(), TestCaseError> {
                    let stats = batcher.stats();
                    let fresh = &stats.delay_samples_ns[*seen..];
                    prop_assert_eq!(
                        fresh.len(),
                        batch.len(),
                        "one sample per entry, recorded at close"
                    );
                    let bound = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                    let batch_delay_ns =
                        batch.queueing_delay().as_nanos().min(u128::from(u64::MAX)) as u64;
                    for window in fresh.windows(2) {
                        prop_assert!(
                            window[0] >= window[1],
                            "arrival order makes per-batch samples non-increasing"
                        );
                    }
                    for &sample in fresh {
                        prop_assert!(sample <= bound, "no negative/wrapped delay");
                        prop_assert!(
                            sample <= batch_delay_ns,
                            "no sample reaches across the batch boundary"
                        );
                    }
                    prop_assert_eq!(
                        fresh.first().copied(),
                        Some(batch_delay_ns),
                        "oldest entry's sample IS the batch's queueing delay"
                    );
                    *seen = stats.delay_samples_ns.len();
                    let n = batch.len();
                    batch.complete(vec![0; n]).map_err(|e| {
                        TestCaseError::fail(format!("complete failed: {e}"))
                    })?;
                    Ok(())
                };
                for &op in &script {
                    match op {
                        0..=2 => {
                            let s = batcher.submit(Fingerprint::from_u64(seq));
                            seq += 1;
                            tickets.push(s.ticket);
                            if let Some(batch) = s.closed {
                                audit(batch, &mut seen_samples)?;
                            }
                        }
                        3 => {
                            if let Some(batch) = batcher.flush() {
                                audit(batch, &mut seen_samples)?;
                            }
                        }
                        _ => {
                            // A poll once the age limit has passed
                            // releases whatever is pending as an age
                            // close — the racy path the per-entry fix
                            // covers. (A slow submit may age-close too;
                            // every close is audited alike.)
                            std::thread::sleep(AGE);
                            if let Some(batch) = batcher.poll() {
                                audit(batch, &mut seen_samples)?;
                            }
                        }
                    }
                }
                if let Some(batch) = batcher.flush() {
                    audit(batch, &mut seen_samples)?;
                }
                for ticket in tickets {
                    prop_assert!(ticket.is_ready(), "ticket left unanswered");
                    prop_assert_eq!(ticket.wait().map_err(|e| {
                        TestCaseError::fail(format!("ticket failed: {e}"))
                    })?, 0);
                }
            }
        }
    }

    #[test]
    fn delay_quantile_edge_cases() {
        // Empty window: every quantile (and the p99/p999 shorthands) is None.
        let empty = SharedBatcherStats::default();
        assert_eq!(empty.delay_quantile(0.0), None);
        assert_eq!(empty.delay_quantile(0.99), None);
        assert_eq!(empty.p99(), None);
        assert_eq!(empty.p999(), None);
        // Single sample: every quantile is that sample, including
        // out-of-range q (clamped).
        let one = SharedBatcherStats {
            delay_samples_ns: vec![1234],
            delay_count: 1,
            ..Default::default()
        };
        for q in [-1.0, 0.0, 0.5, 0.99, 0.999, 1.0, 7.0] {
            assert_eq!(one.delay_quantile(q), Some(Duration::from_nanos(1234)));
        }
        assert_eq!(one.p99(), Some(Duration::from_nanos(1234)));
        assert_eq!(one.p999(), Some(Duration::from_nanos(1234)));
        // Known distribution: p99/p999 pick the tail, not the median.
        let many = SharedBatcherStats {
            delay_samples_ns: (1..=1000).collect(),
            delay_count: 1000,
            ..Default::default()
        };
        assert_eq!(many.p99(), Some(Duration::from_nanos(990)));
        assert_eq!(many.p999(), Some(Duration::from_nanos(999)));
        assert_eq!(many.delay_quantile(0.0), Some(Duration::from_nanos(1)));
        assert_eq!(many.delay_quantile(1.0), Some(Duration::from_nanos(1000)));
    }

    #[test]
    fn shed_submission_resolves_overloaded_immediately() {
        let b: SharedBatcher<u64> = SharedBatcher::with_admission(
            100,
            Duration::from_secs(60),
            AdmissionPolicy::Shed { max_pending: 2 },
            None,
        );
        let s1 = b.submit(fp(1));
        let s2 = b.submit(fp(2));
        assert!(!s1.shed && !s2.shed);
        let s3 = b.submit(fp(3));
        assert!(s3.shed, "third submission past the bound is shed");
        assert!(s3.closed.is_none() && !s3.opened);
        assert!(
            s3.ticket.is_ready(),
            "a shed ticket is resolved at submit time — it can never hang"
        );
        let err = s3.ticket.wait().unwrap_err();
        assert!(err.is_overload(), "{err}");
        assert_eq!(b.pending_len(), 2, "nothing was queued for the shed");
        let stats = b.stats();
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.shed, 1);
        assert!((stats.shed_rate() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn outstanding_spans_dispatch_until_answered() {
        let b: SharedBatcher<u64> = SharedBatcher::with_admission(
            2,
            Duration::from_secs(60),
            AdmissionPolicy::Shed { max_pending: 2 },
            None,
        );
        let s1 = b.submit(fp(1));
        let s2 = b.submit(fp(2));
        let batch = s2.closed.expect("size close");
        // The batch left the queue but is unanswered: still outstanding,
        // so admission keeps shedding — the bound covers in-flight work.
        assert_eq!(b.pending_len(), 0);
        assert_eq!(b.outstanding(), 2);
        assert!(b.submit(fp(3)).shed, "in-flight work still holds tokens");
        batch.complete(vec![10, 20]).unwrap();
        assert_eq!(s1.ticket.wait().unwrap(), 10);
        assert_eq!(s2.ticket.wait().unwrap(), 20);
        assert_eq!(b.outstanding(), 0, "answers released the tokens");
        assert!(!b.submit(fp(4)).shed, "capacity reopened");
        let stats = b.stats();
        assert_eq!(stats.admitted_latency_count, 2);
        assert!(stats.admitted_p99().is_some());
        assert!(stats.mean_admitted_latency() > Duration::ZERO);
    }

    #[test]
    fn block_policy_loses_nothing_under_producer_threads() {
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: u64 = 50;
        // A tight bound (= the batch size) so producers really block on
        // admission; whoever's submission closes a batch answers it
        // inline, which releases the tokens that unblock the others.
        let b: Arc<SharedBatcher<u64>> = Arc::new(SharedBatcher::with_admission(
            2,
            Duration::from_secs(60),
            AdmissionPolicy::Block { max_pending: 2 },
            None,
        ));
        let mut handles = Vec::new();
        for p in 0..PRODUCERS as u64 {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                let mut tickets = Vec::new();
                for i in 0..PER_PRODUCER {
                    let s = b.submit(fp((p << 32) | i));
                    assert!(!s.shed, "Block never sheds");
                    if let Some(batch) = s.closed {
                        let answers = batch.fingerprints().iter().map(|f| f.route_key()).collect();
                        batch.complete(answers).unwrap();
                    }
                    tickets.push((fp((p << 32) | i), s.ticket));
                }
                tickets
            }));
        }
        let tickets: Vec<_> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        if let Some(batch) = b.flush() {
            let answers = batch.fingerprints().iter().map(|f| f.route_key()).collect();
            batch.complete(answers).unwrap();
        }
        assert_eq!(tickets.len(), PRODUCERS * PER_PRODUCER as usize);
        for (fingerprint, ticket) in tickets {
            assert_eq!(
                ticket.wait().unwrap(),
                fingerprint.route_key(),
                "every submission answered exactly once, with its own answer"
            );
        }
        let stats = b.stats();
        assert_eq!(stats.admitted, (PRODUCERS as u64) * PER_PRODUCER);
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.outstanding, 0);
    }

    #[test]
    fn fair_shed_isolates_tenants_in_the_queue() {
        let b: SharedBatcher<u64> = SharedBatcher::with_admission(
            100,
            Duration::from_secs(60),
            AdmissionPolicy::FairShed {
                max_pending: 100,
                per_tenant_quota: 2,
            },
            None,
        );
        let noisy: Vec<_> = (0..5).map(|i| b.submit_from(Some(1), fp(i))).collect();
        assert_eq!(noisy.iter().filter(|s| s.shed).count(), 3, "quota is 2");
        let quiet = b.submit_from(Some(2), fp(100));
        assert!(!quiet.shed, "the quiet tenant is unaffected");
        let stats = b.stats();
        assert_eq!(stats.shed_by_tenant, 3);
        let batch = b.flush().expect("three admitted entries");
        assert_eq!(batch.len(), 3);
        batch.complete(vec![0, 0, 0]).unwrap();
        for s in noisy {
            let answer = s.ticket.wait();
            if s.shed {
                assert!(answer.unwrap_err().is_overload());
            } else {
                assert_eq!(answer.unwrap(), 0);
            }
        }
        assert_eq!(quiet.ticket.wait().unwrap(), 0);
    }

    #[test]
    fn ingest_model_sheds_or_paces_by_policy() {
        // Shedding policy + exhausted bucket: fail fast.
        let b: SharedBatcher<u64> = SharedBatcher::with_admission(
            100,
            Duration::from_secs(60),
            AdmissionPolicy::Shed { max_pending: 1000 },
            Some(IngestModel {
                rate_per_sec: 0.001,
                burst: 2.0,
            }),
        );
        assert!(!b.submit(fp(1)).shed);
        assert!(!b.submit(fp(2)).shed);
        let s = b.submit(fp(3));
        assert!(s.shed, "bucket drained at ~zero refill rate");
        assert!(s.ticket.wait().unwrap_err().is_overload());
        // Blocking policy + fast bucket: pacing, not loss.
        let b: SharedBatcher<u64> = SharedBatcher::with_admission(
            100,
            Duration::from_secs(60),
            AdmissionPolicy::Block { max_pending: 1000 },
            Some(IngestModel {
                rate_per_sec: 2000.0,
                burst: 1.0,
            }),
        );
        let start = Instant::now();
        for i in 0..5 {
            assert!(!b.submit(fp(i)).shed);
        }
        assert!(
            start.elapsed() >= Duration::from_millis(2),
            "submissions were paced to the ingest rate"
        );
        let batch = b.flush().unwrap();
        let n = batch.len();
        batch.complete(vec![0; n]).unwrap();
    }

    #[test]
    fn stats_track_close_reasons_and_delays() {
        let b: SharedBatcher<u64> = SharedBatcher::new(2, Duration::from_millis(1));
        let s1 = b.submit(fp(1));
        let s2 = b.submit(fp(2));
        s2.closed.unwrap().complete(vec![0, 0]).unwrap();
        let s3 = b.submit(fp(3));
        std::thread::sleep(Duration::from_millis(3));
        b.poll().unwrap().complete(vec![0]).unwrap();
        let _ = (s1.ticket.wait(), s3.ticket.wait());
        let stats = b.stats();
        assert_eq!(stats.closed_by_size, 1);
        assert_eq!(stats.closed_by_age, 1);
        assert_eq!(stats.delay_count, 3);
        assert!(stats.delay_quantile(1.0).unwrap() >= Duration::from_millis(1));
        assert!(stats.mean_delay() > Duration::ZERO);
        assert_eq!(stats.max_occupancy, 2);
    }
}
