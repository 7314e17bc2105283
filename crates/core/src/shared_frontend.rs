//! The shared web-front-end role: cross-client batching with completion
//! tickets.
//!
//! The paper's Figure-4 request flow has one web front-end accepting
//! backup streams from many concurrent clients and aggregating their
//! fingerprints into batches before querying the hash cluster.
//! [`SharedFrontend`] is that component: a cheaply cloneable handle any
//! number of client threads submit fingerprints to. Each submission
//! receives a [`Ticket`] that later yields the fingerprint's answer.
//!
//! A batch leaves for the cluster by the three rules of
//! [`SharedBatcher`]'s module docs; here is who ships it:
//!
//! - **size** — the client whose submission filled it, inline;
//! - **demand** — a client blocked in [`Ticket::wait`] on it: at once, on
//!   its own thread, if this front-end has no round trip in flight; if it
//!   has one, as soon as that ends, again on the thread of one of the
//!   batch's own waiters. A sparse stream therefore pays one round trip
//!   per window and a dense one gets batches the size of whatever
//!   arrived during the previous round trip — with no limit to tune;
//! - **age** — the **background flusher thread**, and only for batches
//!   whose clients all poll [`Ticket::is_ready`] instead of blocking (or
//!   have gone away): it caps their wait at ≈`max_age`, so an idle
//!   front-end still answers a lone polled fingerprint — the idle-batch
//!   starvation a submit-driven front-end suffers;
//!
//! plus an explicit [`flush`](SharedFrontend::flush), on the caller.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use shhc_net::{
    AdmissionPolicy, ClosedBatch, IngestModel, SharedBatcher, SharedBatcherStats, Ticket,
};
use shhc_types::{Fingerprint, Result};

use crate::ShhcCluster;

/// One fingerprint's cluster answer, delivered through a completion
/// ticket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupAnswer {
    /// Whether the fingerprint already existed in the cluster (the
    /// "duplicate — skip the upload" answer).
    pub existed: bool,
    /// The value stored with it (chunk location once recorded; zero for
    /// new fingerprints and not-yet-recorded placeholders).
    pub value: u64,
}

/// Full configuration for a [`SharedFrontend`]: batch close limits plus
/// the admission policy and ingest-rate model.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use shhc::FrontendConfig;
/// use shhc_net::AdmissionPolicy;
///
/// let config = FrontendConfig::new(64, Duration::from_millis(5))
///     .admission(AdmissionPolicy::Shed { max_pending: 4096 });
/// assert_eq!(config.batch_size, 64);
/// ```
#[derive(Debug, Clone)]
pub struct FrontendConfig {
    /// Maximum fingerprints per batch (size close trigger).
    pub batch_size: usize,
    /// Maximum batch age before the flusher closes it (the cap for
    /// clients that never block on a ticket).
    pub max_age: Duration,
    /// Admission policy bounding the pending + in-flight queue.
    pub admission: AdmissionPolicy,
    /// Optional ingest-rate model: the front-end's own aggregation
    /// capacity, paced (`Block`) or enforced by shedding.
    pub ingest: Option<IngestModel>,
}

impl FrontendConfig {
    /// A config with the given close limits, default (blocking) admission
    /// and no ingest model.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn new(batch_size: usize, max_age: Duration) -> Self {
        assert!(batch_size > 0, "batch size must be nonzero");
        FrontendConfig {
            batch_size,
            max_age,
            admission: AdmissionPolicy::default(),
            ingest: None,
        }
    }

    /// Sets the admission policy.
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = policy;
        self
    }

    /// Sets the ingest-rate model.
    pub fn ingest(mut self, model: IngestModel) -> Self {
        self.ingest = Some(model);
        self
    }
}

struct FrontendInner {
    cluster: ShhcCluster,
    batcher: SharedBatcher<LookupAnswer>,
    /// Wakes the flusher when a submission opens a fresh batch (its age
    /// alarm must be re-armed). Dropping the last handle disconnects the
    /// channel, which is the flusher's exit signal.
    wake_tx: Sender<()>,
    /// Batches this front-end has in flight to the cluster: the lane a
    /// demand close waits for. A mutex, not an atomic, because "lane
    /// idle → close the wanted batch" and "lane freed → pass the demand
    /// on" must each be one step, or a waiter that marks its batch wanted
    /// while the last round trip is finishing could be missed by both.
    in_flight: Mutex<usize>,
    /// Passes of the flusher loop, so a test can see an idle one sleep.
    flusher_passes: AtomicU64,
}

impl FrontendInner {
    /// Sends one batch to the cluster and answers every ticket in it.
    /// Runs on whichever thread closed the batch — a client thread on a
    /// size or demand trigger or an explicit flush, the flusher on the
    /// age cap.
    fn dispatch(&self, batch: ClosedBatch<LookupAnswer>) -> Result<usize> {
        *self.in_flight.lock() += 1;
        self.round_trip(batch)
    }

    /// The batcher's demand callback: a waiter has blocked on the open
    /// batch. With the lane idle it ships the batch on its own thread;
    /// with a round trip in flight the batch stays open and wanted, and
    /// whoever frees the lane passes the demand back (see `round_trip`).
    fn demand(&self) {
        let batch = {
            let mut in_flight = self.in_flight.lock();
            if *in_flight > 0 {
                return;
            }
            let Some(batch) = self.batcher.close_wanted() else {
                return;
            };
            *in_flight = 1;
            batch
        };
        // A failure has already failed the batch's tickets, the asking
        // waiter's among them.
        let _ = self.round_trip(batch);
    }

    /// One cluster round trip for a batch already counted in flight.
    ///
    /// When it frees the lane and the open batch is wanted, the demand is
    /// passed to that batch's parked waiters, one of which ships it —
    /// leader–follower. Not this thread: it belongs to a client that
    /// already has its answers, and looping here would bill it for
    /// strangers' round trips for as long as load lasts. Not the flusher
    /// either: the waiter is parked on that very batch and must wake for
    /// the answer anyway, so leading costs no extra thread switch, where
    /// the flusher would add one and serialize every demand close behind
    /// a single thread.
    fn round_trip(&self, batch: ClosedBatch<LookupAnswer>) -> Result<usize> {
        let n = batch.len();
        let result = match self
            .cluster
            .lookup_insert_batch_values(batch.fingerprints())
        {
            Ok((exists, values)) => {
                let answers = exists
                    .into_iter()
                    .zip(values)
                    .map(|(existed, value)| LookupAnswer { existed, value })
                    .collect();
                batch.complete(answers).map(|()| n)
            }
            Err(e) => {
                batch.fail(&e);
                Err(e)
            }
        };
        let mut in_flight = self.in_flight.lock();
        *in_flight -= 1;
        if *in_flight == 0 {
            self.batcher.pass_demand();
        }
        result
    }
}

/// A shared web front-end: many client threads, one batch queue, one
/// cluster.
///
/// Handles are cheaply cloneable; all operations take `&self`. The
/// background flusher thread exits on its own once the last handle is
/// dropped.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use shhc::{ClusterConfig, SharedFrontend, ShhcCluster};
/// use shhc_types::Fingerprint;
///
/// # fn main() -> Result<(), shhc_types::Error> {
/// let cluster = ShhcCluster::spawn(ClusterConfig::small_test(2))?;
/// let frontend = SharedFrontend::new(cluster.clone(), 4, Duration::from_millis(5));
/// // A lone fingerprint needs no further submission or flush call:
/// // blocking on its ticket ships the batch it sits in.
/// let ticket = frontend.submit(Fingerprint::from_u64(7));
/// let answer = ticket.wait_timeout(Duration::from_secs(10))?;
/// assert!(!answer.existed, "fresh fingerprint");
/// assert_eq!(frontend.stats().closed_by_demand, 1);
/// cluster.shutdown()?;
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct SharedFrontend {
    inner: Arc<FrontendInner>,
}

impl std::fmt::Debug for SharedFrontend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedFrontend")
            .field("batch_size", &self.inner.batcher.max_size())
            .field("max_age", &self.inner.batcher.max_age())
            .field("pending", &self.inner.batcher.pending_len())
            .finish()
    }
}

impl SharedFrontend {
    /// Creates a shared front-end whose batches hold at most `batch_size`
    /// fingerprints and wait at most `max_age` for a client to block on
    /// them, and spawns its background flusher thread.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn new(cluster: ShhcCluster, batch_size: usize, max_age: Duration) -> Self {
        Self::with_config(cluster, FrontendConfig::new(batch_size, max_age))
    }

    /// Creates a shared front-end from a full [`FrontendConfig`]:
    /// admission policy and ingest model included.
    ///
    /// # Panics
    ///
    /// Panics if `config.batch_size` is zero.
    pub fn with_config(cluster: ShhcCluster, config: FrontendConfig) -> Self {
        let (wake_tx, wake_rx) = unbounded();
        let inner = Arc::new_cyclic(|weak: &Weak<FrontendInner>| {
            let owner = weak.clone();
            FrontendInner {
                cluster,
                batcher: SharedBatcher::with_admission(
                    config.batch_size,
                    config.max_age,
                    config.admission,
                    config.ingest,
                )
                .on_demand(move || {
                    // A ticket that outlived the front-end has nobody to
                    // ask; its batch was failed when the batcher dropped.
                    if let Some(inner) = owner.upgrade() {
                        inner.demand();
                    }
                }),
                wake_tx,
                in_flight: Mutex::new(0),
                flusher_passes: AtomicU64::new(0),
            }
        });
        let weak = Arc::downgrade(&inner);
        std::thread::Builder::new()
            .name("shhc-fe-flusher".into())
            .spawn(move || flusher_loop(weak, wake_rx))
            .expect("spawn front-end flusher thread");
        SharedFrontend { inner }
    }

    /// Submits one fingerprint, returning its completion ticket.
    ///
    /// If this submission closes the batch (size limit, or an age limit
    /// the flusher has not got to yet), the whole batch is dispatched
    /// synchronously on the calling thread before returning, so every
    /// ticket in it — this one included — is already answered. Otherwise
    /// the batch goes when a client blocks on one of its tickets, or at
    /// the age cap. Dispatch failures are delivered through the tickets.
    pub fn submit(&self, fp: Fingerprint) -> Ticket<LookupAnswer> {
        self.submit_from(None, fp).0
    }

    /// Submits one fingerprint on behalf of a tenant (a client stream),
    /// returning its completion ticket and whether admission control
    /// shed it.
    ///
    /// A shed submission's ticket is already resolved with
    /// [`Overloaded`](shhc_types::Error::Overloaded) and nothing was
    /// queued — callers that can retry should back off first. Admitted
    /// submissions behave exactly like [`submit`](Self::submit).
    pub fn submit_from(
        &self,
        tenant: Option<u32>,
        fp: Fingerprint,
    ) -> (Ticket<LookupAnswer>, bool) {
        let submitted = self.inner.batcher.submit_from(tenant, fp);
        if submitted.opened {
            // Re-arm the flusher's age alarm for the fresh batch. A full
            // wake channel is impossible to miss: the flusher drains it
            // before sleeping.
            let _ = self.inner.wake_tx.send(());
        }
        if let Some(batch) = submitted.closed {
            // The closing client pays the round-trip; everyone else in
            // the batch just sees their ticket become ready.
            let _ = self.inner.dispatch(batch);
        }
        (submitted.ticket, submitted.shed)
    }

    /// Dispatches whatever is pending, answering those tickets. Returns
    /// the number of fingerprints answered.
    ///
    /// # Errors
    ///
    /// Propagates the dispatch failure (the affected tickets carry the
    /// same error).
    pub fn flush(&self) -> Result<usize> {
        match self.inner.batcher.flush() {
            Some(batch) => self.inner.dispatch(batch),
            None => Ok(0),
        }
    }

    /// Snapshots the front-end's aggregation stats: batches released,
    /// occupancy, close reasons and the per-fingerprint queueing-delay
    /// distribution.
    pub fn stats(&self) -> SharedBatcherStats {
        self.inner.batcher.stats()
    }

    /// The underlying cluster handle.
    pub fn cluster(&self) -> &ShhcCluster {
        &self.inner.cluster
    }

    /// The configured maximum batch size.
    pub fn batch_size(&self) -> usize {
        self.inner.batcher.max_size()
    }

    /// The configured maximum batch age.
    pub fn max_age(&self) -> Duration {
        self.inner.batcher.max_age()
    }

    /// The admission policy bounding this front-end's queue.
    pub fn admission_policy(&self) -> AdmissionPolicy {
        self.inner.batcher.admission_policy()
    }

    /// Submissions admitted but not yet answered (pending in the queue
    /// plus dispatched to the cluster) — the load signal a balancer
    /// compares front-ends by.
    pub fn outstanding(&self) -> usize {
        self.inner.batcher.outstanding()
    }
}

/// The background flusher — the age cap. It sleeps toward the pending
/// batch's deadline and ships the batch if it is still there when the
/// deadline passes, which only happens to batches none of whose clients
/// block on a ticket (they poll [`Ticket::is_ready`], or went away).
/// With nothing pending it has no deadline and blocks on the wake
/// channel: every submission that opens a batch sends on it, so an idle
/// front-end's flusher does not run at all. Exits when every front-end
/// handle is gone (the wake channel disconnects).
fn flusher_loop(weak: Weak<FrontendInner>, wake_rx: Receiver<()>) {
    loop {
        let deadline = match weak.upgrade() {
            Some(inner) => {
                inner.flusher_passes.fetch_add(1, Ordering::Relaxed);
                inner.batcher.next_deadline()
            }
            // Every handle is gone; nothing can ever be submitted again.
            None => return,
        };
        let woken = match deadline {
            Some(deadline) => {
                wake_rx.recv_timeout(deadline.saturating_duration_since(Instant::now()))
            }
            None => wake_rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        match woken {
            Ok(()) => {
                // New batch opened: drain stale wakeups and re-arm.
                while wake_rx.try_recv().is_ok() {}
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => return,
            Err(RecvTimeoutError::Timeout) => {}
        }
        let Some(inner) = weak.upgrade() else { return };
        if let Some(batch) = inner.batcher.poll() {
            // An error here already failed the batch's tickets; the
            // flusher itself has nobody to report to.
            let _ = inner.dispatch(batch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterConfig;

    fn fp(v: u64) -> Fingerprint {
        Fingerprint::from_u64(v)
    }

    #[test]
    fn size_closed_batch_answers_all_tickets_synchronously() {
        let cluster = ShhcCluster::spawn(ClusterConfig::small_test(2)).unwrap();
        let fe = SharedFrontend::new(cluster.clone(), 3, Duration::from_secs(60));
        let t1 = fe.submit(fp(1));
        let t2 = fe.submit(fp(2));
        assert!(!t1.is_ready() && !t2.is_ready());
        let t3 = fe.submit(fp(3));
        // The third submission closed and dispatched the batch inline.
        for t in [t1, t2, t3] {
            assert!(t.is_ready());
            assert!(!t.wait().unwrap().existed);
        }
        let stats = fe.stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.closed_by_size, 1);
        cluster.shutdown().unwrap();
    }

    /// Polls `is_ready` — never blocks, so never demands.
    fn poll_until_ready(ticket: &Ticket<LookupAnswer>) {
        let patience = Instant::now() + Duration::from_secs(10);
        while !ticket.is_ready() {
            assert!(
                Instant::now() < patience,
                "the age cap must answer a poller"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn polled_batch_is_flushed_by_the_age_cap_without_further_calls() {
        // Regression: the submit-driven front-end only noticed an expired
        // age limit on the *next* submit, so a lone fingerprint starved
        // forever. A client that only polls gives no demand signal; the
        // flusher thread must still answer it within ≈max_age.
        let max_age = Duration::from_millis(20);
        let cluster = ShhcCluster::spawn(ClusterConfig::small_test(1)).unwrap();
        let fe = SharedFrontend::new(cluster.clone(), 1000, max_age);
        let start = Instant::now();
        let ticket = fe.submit(fp(42));
        poll_until_ready(&ticket);
        let waited = start.elapsed();
        assert!(!ticket.wait().unwrap().existed);
        assert!(waited >= max_age, "answered before the age limit");
        // Generous CI bound; the point is "≈max_age, not forever".
        assert!(
            waited < max_age * 20,
            "lone fingerprint waited {waited:?} (max_age {max_age:?})"
        );
        let stats = fe.stats();
        assert_eq!(stats.closed_by_age, 1);
        assert_eq!(stats.closed_by_demand, 0, "polling is not demand");
        cluster.shutdown().unwrap();
    }

    #[test]
    fn first_wait_on_an_open_batch_ships_it_with_the_lane_idle() {
        let cluster = ShhcCluster::spawn(ClusterConfig::small_test(2)).unwrap();
        let fe = SharedFrontend::new(cluster.clone(), 1000, Duration::from_secs(60));
        let tickets: Vec<_> = (0..3).map(|i| fe.submit(fp(i))).collect();
        assert!(tickets.iter().all(|t| !t.is_ready()));
        let mut tickets = tickets.into_iter();
        let first = tickets.next().unwrap();
        // Answered inside the watchdog: the wait itself shipped the
        // batch, not the 60 s age cap.
        assert!(!first.wait_timeout(Duration::from_secs(30)).unwrap().existed);
        // One round trip answered the waiter's whole batch.
        for t in tickets {
            assert!(t.is_ready());
            assert!(!t.wait().unwrap().existed);
        }
        let stats = fe.stats();
        assert_eq!((stats.batches, stats.closed_by_demand), (1, 1));
        assert_eq!(stats.closed_by_age, 0);
        cluster.shutdown().unwrap();
    }

    /// Group commit: whatever arrives while a round trip is in flight
    /// leaves as ONE batch when the lane frees, however many of its
    /// clients are blocked on it.
    #[test]
    fn waiters_behind_a_batch_in_flight_share_the_next_one() {
        const CLIENTS: u64 = 5;
        let mut config = ClusterConfig::small_test(1);
        // Every frame takes this long at the node: the held round trip.
        config.node_config.batch_overhead = Duration::from_millis(300);
        let cluster = ShhcCluster::spawn(config).unwrap();
        let fe = SharedFrontend::new(cluster.clone(), 1000, Duration::from_secs(60));
        let first = fe.submit(fp(1000));
        let (first_done_tx, first_done_rx) = std::sync::mpsc::channel();
        let holder = {
            let fe = fe.clone();
            std::thread::spawn(move || {
                assert_eq!(fe.flush().unwrap(), 1);
                first_done_tx.send(Instant::now()).unwrap();
            })
        };
        // The first batch is in flight once it has left the queue.
        while fe.stats().batches == 0 {
            std::thread::yield_now();
        }
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let fe = fe.clone();
                std::thread::spawn(move || {
                    let answer = fe.submit(fp(c)).wait().unwrap();
                    (answer, Instant::now())
                })
            })
            .collect();
        while fe.stats().pending < CLIENTS as usize {
            std::thread::yield_now();
        }
        let mid = fe.stats();
        assert_eq!(
            (mid.batches, mid.closed_by_demand),
            (1, 0),
            "nothing ships past a batch in flight"
        );
        holder.join().unwrap();
        let first_done = first_done_rx.recv().unwrap();
        assert!(!first.wait().unwrap().existed);
        for client in clients {
            let (answer, answered_at) = client.join().unwrap();
            assert!(!answer.existed);
            assert!(
                answered_at > first_done,
                "second batch left after the first"
            );
        }
        let stats = fe.stats();
        assert_eq!(stats.batches, 2, "all {CLIENTS} clients in one next batch");
        assert_eq!(stats.closed_by_demand, 1);
        assert_eq!(stats.max_occupancy, CLIENTS as usize);
        cluster.shutdown().unwrap();
    }

    /// The race the lane mutex exists for, run 10 000 times: one thread
    /// finishes a round trip (frees the lane, passes the demand) while
    /// the other blocks on a fresh batch (marks it wanted, finds the lane
    /// busy or idle). Whichever way each round falls, the waiter is
    /// answered; with the age cap a minute away, a lost hand-off would
    /// trip the one-second watchdog.
    #[test]
    fn no_demand_is_lost_between_a_waiter_and_a_finishing_dispatcher() {
        const ROUNDS: u64 = 10_000;
        let cluster = ShhcCluster::spawn(ClusterConfig::small_test(1)).unwrap();
        let fe = SharedFrontend::new(cluster.clone(), 1000, Duration::from_secs(60));
        let watchdog = Duration::from_secs(1);
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let (held_tx, held_rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for round in 0..ROUNDS {
                    // (The test node's flash holds few distinct keys.)
                    let held = fe.submit(fp(round % 100));
                    go_tx.send(()).expect("main alive");
                    // Whatever is open now ships on this thread; if the
                    // other thread got there first, this is a no-op.
                    let _ = fe.flush();
                    held_tx
                        .send(held.wait_timeout(watchdog))
                        .expect("main alive");
                }
            });
            for round in 0..ROUNDS {
                go_rx.recv().expect("dispatcher alive");
                // Slide the submit across the other thread's round trip.
                for _ in 0..round % 64 {
                    std::hint::spin_loop();
                }
                let mine = fe.submit(fp(100 + round % 100)).wait_timeout(watchdog);
                assert!(mine.is_ok(), "round {round}: waiter stranded: {mine:?}");
                let held = held_rx.recv().expect("dispatcher alive");
                assert!(held.is_ok(), "round {round}: waiter stranded: {held:?}");
            }
        });
        let stats = fe.stats();
        assert_eq!(stats.closed_by_age, 0);
        assert_eq!(stats.fingerprints, 2 * ROUNDS);
        cluster.shutdown().unwrap();
    }

    #[test]
    fn idle_flusher_sleeps_until_a_batch_opens() {
        let cluster = ShhcCluster::spawn(ClusterConfig::small_test(1)).unwrap();
        // An age this small used to mean a 20 kHz poll.
        let fe = SharedFrontend::new(cluster.clone(), 1000, Duration::from_micros(100));
        let passes = || fe.inner.flusher_passes.load(Ordering::Relaxed);
        while passes() == 0 {
            std::thread::yield_now();
        }
        let before = passes();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(passes(), before, "an idle flusher makes no passes");
        // It is asleep, not gone: a poller is still answered.
        let ticket = fe.submit(fp(1));
        poll_until_ready(&ticket);
        assert!(passes() > before);
        cluster.shutdown().unwrap();
    }

    #[test]
    fn flush_answers_pending_tickets() {
        let cluster = ShhcCluster::spawn(ClusterConfig::small_test(2)).unwrap();
        let fe = SharedFrontend::new(cluster.clone(), 100, Duration::from_secs(60));
        let t1 = fe.submit(fp(1));
        let t2 = fe.submit(fp(1));
        assert_eq!(fe.flush().unwrap(), 2);
        assert!(!t1.wait().unwrap().existed);
        assert!(t2.wait().unwrap().existed, "same-batch duplicate dedups");
        assert_eq!(fe.flush().unwrap(), 0);
        cluster.shutdown().unwrap();
    }

    #[test]
    fn dispatch_failure_is_delivered_through_tickets() {
        let cluster = ShhcCluster::spawn(ClusterConfig::small_test(1)).unwrap();
        let fe = SharedFrontend::new(cluster.clone(), 2, Duration::from_secs(60));
        cluster.kill_node(shhc_types::NodeId::new(0)).unwrap();
        let t1 = fe.submit(fp(1));
        let t2 = fe.submit(fp(2));
        assert!(t1.wait().is_err());
        assert!(t2.wait().is_err());
        cluster.shutdown().unwrap();
    }

    #[test]
    fn dispatch_failure_reaches_demand_closed_tickets() {
        let cluster = ShhcCluster::spawn(ClusterConfig::small_test(1)).unwrap();
        let fe = SharedFrontend::new(cluster.clone(), 100, Duration::from_secs(60));
        cluster.kill_node(shhc_types::NodeId::new(0)).unwrap();
        let t1 = fe.submit(fp(1));
        let t2 = fe.submit(fp(2));
        assert!(t1.wait().is_err(), "the asking waiter gets the failure");
        assert!(t2.is_ready());
        assert!(t2.wait().is_err());
        assert_eq!(fe.stats().closed_by_demand, 1);
        assert_eq!(fe.outstanding(), 0);
        cluster.shutdown().unwrap();
    }

    #[test]
    fn ticket_waited_on_after_the_frontend_is_gone_is_unavailable() {
        let cluster = ShhcCluster::spawn(ClusterConfig::small_test(1)).unwrap();
        let fe = SharedFrontend::new(cluster.clone(), 100, Duration::from_secs(60));
        let ticket = fe.submit(fp(1));
        drop(fe);
        // The demand callback finds no owner; the dropped batcher had
        // already failed the batch.
        assert!(matches!(
            ticket.wait(),
            Err(shhc_types::Error::Unavailable(_))
        ));
        cluster.shutdown().unwrap();
    }

    #[test]
    fn shed_submission_fails_fast_through_the_frontend() {
        let cluster = ShhcCluster::spawn(ClusterConfig::small_test(1)).unwrap();
        let config = FrontendConfig::new(100, Duration::from_secs(60))
            .admission(AdmissionPolicy::Shed { max_pending: 2 });
        let fe = SharedFrontend::with_config(cluster.clone(), config);
        let (t1, shed1) = fe.submit_from(Some(7), fp(1));
        let (t2, shed2) = fe.submit_from(Some(7), fp(2));
        assert!(!shed1 && !shed2);
        // Third submission exceeds the bound: resolved Overloaded now.
        let (t3, shed3) = fe.submit_from(Some(7), fp(3));
        assert!(shed3);
        assert!(t3.is_ready());
        assert!(t3.wait().unwrap_err().is_overload());
        assert_eq!(fe.outstanding(), 2);
        fe.flush().unwrap();
        assert!(!t1.wait().unwrap().existed);
        assert!(!t2.wait().unwrap().existed);
        assert_eq!(fe.outstanding(), 0, "answered slots release admission");
        let stats = fe.stats();
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.shed, 1);
        cluster.shutdown().unwrap();
    }

    #[test]
    fn clones_share_one_queue() {
        let cluster = ShhcCluster::spawn(ClusterConfig::small_test(2)).unwrap();
        let fe = SharedFrontend::new(cluster.clone(), 2, Duration::from_secs(60));
        let fe2 = fe.clone();
        let t1 = fe.submit(fp(10));
        let t2 = fe2.submit(fp(11));
        assert!(!t1.wait().unwrap().existed);
        assert!(!t2.wait().unwrap().existed);
        assert_eq!(fe.stats().batches, 1, "both handles fed one batch");
        cluster.shutdown().unwrap();
    }
}
