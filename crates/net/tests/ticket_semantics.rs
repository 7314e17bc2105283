//! What a completion ticket promises, whatever the batcher does inside:
//! every ticket gets its own fingerprint's answer, exactly once; a waiter
//! is never left parked; every way a batch can end (answered, failed,
//! mis-answered, dropped, abandoned by its batcher) resolves all of its
//! tickets and hands every admission slot back. And what the demand
//! trigger adds: a blocking wait on a batch that is still filling asks the
//! batcher's owner to ship it; polling never does.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Barrier, Weak};
use std::time::{Duration, Instant};

use shhc_net::{AdmissionPolicy, ClosedBatch, SharedBatcher, Ticket};
use shhc_types::{Error, Fingerprint};

const FAR: Duration = Duration::from_secs(3600);
/// Bound on every wait: a lost wake-up fails the test instead of hanging it.
const PATIENCE: Duration = Duration::from_secs(30);

fn fp(v: u64) -> Fingerprint {
    Fingerprint::from_u64(v)
}

/// The dispatcher's side of a round-trip: answer `i` is a function of
/// fingerprint `i`, so a cross-wired ticket shows.
fn answer(batch: ClosedBatch<u64>) {
    let answers = batch.fingerprints().iter().map(|f| f.route_key()).collect();
    batch.complete(answers).expect("complete");
}

/// After a batch has ended — any way — nothing it admitted is still
/// outstanding and each of its entries left one admitted-latency sample.
fn assert_settled(batcher: &SharedBatcher<u64>, ended: u64) {
    let stats = batcher.stats();
    assert_eq!(stats.outstanding, 0, "admission slots handed back");
    assert_eq!(batcher.outstanding(), 0);
    assert_eq!(stats.admitted_latency_count, ended, "one latency per entry");
    assert_eq!(
        stats.admitted_latency_samples_ns.len() as u64,
        ended,
        "one retained sample per entry"
    );
}

#[test]
fn tickets_resolve_in_index_order_across_submitting_threads() {
    const PER_THREAD: u64 = 500;
    for threads in [1u64, 2, 8] {
        let batcher: Arc<SharedBatcher<u64>> = Arc::new(SharedBatcher::new(16, FAR));
        let start = Arc::new(Barrier::new(threads as usize));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (batcher, start) = (Arc::clone(&batcher), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    (0..PER_THREAD)
                        .map(|i| {
                            let fingerprint = fp((t << 32) | i);
                            let s = batcher.submit(fingerprint);
                            if let Some(batch) = s.closed {
                                answer(batch);
                            }
                            (fingerprint, s.ticket)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let tickets: Vec<(Fingerprint, Ticket<u64>)> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("submitter"))
            .collect();
        if let Some(batch) = batcher.flush() {
            answer(batch);
        }
        for (fingerprint, ticket) in tickets {
            assert!(ticket.is_ready());
            assert_eq!(
                ticket.wait_timeout(PATIENCE).expect("answered"),
                fingerprint.route_key(),
                "{threads} threads: a ticket got another index's answer"
            );
        }
        let stats = batcher.stats();
        assert_eq!(stats.fingerprints, threads * PER_THREAD);
        assert_settled(&batcher, threads * PER_THREAD);
    }
}

/// Four waiter threads take the tickets of 2 000 batches of 1…64 entries
/// and announce themselves before they wait; the batch is completed as
/// soon as all four have, so some waiters are parked and some are still
/// on their way in. None may miss the wake-up.
#[test]
fn no_waiter_misses_the_wake_up() {
    const WAITERS: usize = 4;
    const ROUNDS: u64 = 2_000;
    let batcher: SharedBatcher<u64> = SharedBatcher::new(1 << 20, FAR);
    let (ack_tx, ack_rx) = mpsc::channel::<()>();
    let (done_tx, done_rx) = mpsc::channel::<bool>();
    let mut feeds = Vec::new();
    let mut waiters = Vec::new();
    for _ in 0..WAITERS {
        let (tx, rx) = mpsc::channel::<Vec<(Fingerprint, Ticket<u64>)>>();
        let (ack_tx, done_tx) = (ack_tx.clone(), done_tx.clone());
        feeds.push(tx);
        waiters.push(std::thread::spawn(move || {
            for share in rx {
                ack_tx.send(()).expect("main alive");
                let ok = share.into_iter().all(|(fingerprint, ticket)| {
                    ticket.wait_timeout(PATIENCE) == Ok(fingerprint.route_key())
                });
                done_tx.send(ok).expect("main alive");
            }
        }));
    }
    let mut next = 0u64;
    for round in 0..ROUNDS {
        let size = 1 + round % 64;
        let mut shares: Vec<Vec<(Fingerprint, Ticket<u64>)>> =
            (0..WAITERS).map(|_| Vec::new()).collect();
        for i in 0..size {
            let fingerprint = fp(next);
            next += 1;
            shares[i as usize % WAITERS].push((fingerprint, batcher.submit(fingerprint).ticket));
        }
        for (feed, share) in feeds.iter().zip(shares) {
            feed.send(share).expect("waiter alive");
        }
        for _ in 0..WAITERS {
            ack_rx
                .recv_timeout(PATIENCE)
                .expect("waiter reached its wait");
        }
        answer(batcher.flush().expect("round pending"));
        for _ in 0..WAITERS {
            assert!(
                done_rx.recv_timeout(PATIENCE).expect("waiter returned"),
                "round {round}: a waiter timed out or got a wrong answer"
            );
        }
    }
    drop(feeds);
    for w in waiters {
        w.join().expect("waiter thread");
    }
    assert_settled(&batcher, next);
}

#[test]
fn wait_timeout_expires_and_the_batch_still_settles() {
    let batcher: SharedBatcher<u64> = SharedBatcher::new(100, FAR);
    let early = batcher.submit(fp(1)).ticket;
    let late = batcher.submit(fp(2)).ticket;
    let err = early.wait_timeout(Duration::from_millis(5)).unwrap_err();
    assert!(matches!(err, Error::Unavailable(_)), "{err}");
    assert!(!late.is_ready());
    answer(batcher.flush().expect("two pending"));
    assert_eq!(late.wait_timeout(PATIENCE).unwrap(), fp(2).route_key());
    assert_settled(&batcher, 2);
}

#[test]
fn dropped_batch_fails_every_ticket_unavailable() {
    let batcher: SharedBatcher<u64> = SharedBatcher::new(3, FAR);
    let mut tickets = Vec::new();
    let mut closed = None;
    for i in 0..3 {
        let s = batcher.submit(fp(i));
        tickets.push(s.ticket);
        closed = s.closed.or(closed);
    }
    drop(closed.expect("size close"));
    for ticket in tickets {
        assert!(ticket.is_ready());
        assert!(matches!(ticket.wait(), Err(Error::Unavailable(_))));
    }
    assert_settled(&batcher, 3);
}

#[test]
fn wrong_length_complete_fails_every_ticket_decode() {
    for answers in [vec![], vec![1, 2], vec![1, 2, 3, 4]] {
        let batcher: SharedBatcher<u64> = SharedBatcher::new(100, FAR);
        let tickets: Vec<_> = (0..3).map(|i| batcher.submit(fp(i)).ticket).collect();
        let err = batcher.flush().expect("pending").complete(answers);
        assert!(matches!(err, Err(Error::Decode(_))));
        for ticket in tickets {
            assert!(matches!(ticket.wait(), Err(Error::Decode(_))));
        }
        assert_settled(&batcher, 3);
    }
}

#[test]
fn failed_batch_hands_its_error_to_every_ticket() {
    let batcher: SharedBatcher<u64> = SharedBatcher::new(100, FAR);
    let tickets: Vec<_> = (0..5).map(|i| batcher.submit(fp(i)).ticket).collect();
    batcher
        .flush()
        .expect("pending")
        .fail(&Error::Unavailable("node down".into()));
    for ticket in tickets {
        assert!(matches!(ticket.wait(), Err(Error::Unavailable(m)) if m == "node down"));
    }
    assert_settled(&batcher, 5);
}

#[test]
fn tickets_outlive_the_batcher() {
    let batcher: SharedBatcher<u64> = SharedBatcher::new(2, FAR);
    let a = batcher.submit(fp(1)).ticket;
    let s = batcher.submit(fp(2));
    let in_flight = s.closed.expect("size close");
    let queued = batcher.submit(fp(3)).ticket;
    drop(batcher);
    // Still queued when the batcher went: failed, not stranded.
    assert!(matches!(
        queued.wait_timeout(PATIENCE),
        Err(Error::Unavailable(_))
    ));
    // Already handed to a dispatcher: answered as usual.
    assert!(!a.is_ready());
    answer(in_flight);
    assert_eq!(a.wait().unwrap(), fp(1).route_key());
    assert_eq!(s.ticket.wait().unwrap(), fp(2).route_key());
}

#[test]
fn shed_ticket_is_ready_at_birth() {
    let batcher: SharedBatcher<u64> =
        SharedBatcher::with_admission(100, FAR, AdmissionPolicy::Shed { max_pending: 1 });
    let kept = batcher.submit(fp(1));
    let shed = batcher.submit(fp(2));
    assert!(shed.shed && shed.closed.is_none() && !shed.opened);
    assert!(shed.ticket.is_ready());
    assert!(shed.ticket.wait().unwrap_err().is_overload());
    assert_eq!(batcher.outstanding(), 1, "a shed holds no slot");
    answer(batcher.flush().expect("one pending"));
    assert_eq!(kept.ticket.wait().unwrap(), fp(1).route_key());
    assert_settled(&batcher, 1);
}

/// Under `Block { max_pending: n }` the `n + 1`-th submitter stays
/// blocked while a full batch is in flight and gets through when — not
/// before — that batch completes.
#[test]
fn block_unblocks_exactly_when_a_batch_completes() {
    const N: usize = 4;
    let batcher: Arc<SharedBatcher<u64>> = Arc::new(SharedBatcher::with_admission(
        N,
        FAR,
        AdmissionPolicy::Block { max_pending: N },
    ));
    let mut tickets = Vec::new();
    let mut closed = None;
    for i in 0..N as u64 {
        let s = batcher.submit(fp(i));
        tickets.push(s.ticket);
        closed = s.closed.or(closed);
    }
    let in_flight = closed.expect("size close");
    let (through_tx, through_rx) = mpsc::channel();
    let blocked = {
        let batcher = Arc::clone(&batcher);
        std::thread::spawn(move || {
            let s = batcher.submit(fp(99));
            through_tx.send(()).expect("main alive");
            s.ticket
        })
    };
    // The submitter is in the gate once it has counted itself blocked.
    while batcher.stats().blocked == 0 {
        std::thread::yield_now();
    }
    assert!(
        through_rx.recv_timeout(Duration::from_millis(50)).is_err(),
        "admitted while {N} slots were still held"
    );
    assert_eq!(batcher.outstanding(), N);
    answer(in_flight);
    through_rx
        .recv_timeout(PATIENCE)
        .expect("completing the batch frees its slots and wakes the gate");
    let late = blocked.join().expect("submitter");
    assert_eq!(batcher.outstanding(), 1);
    answer(batcher.flush().expect("late entry pending"));
    assert_eq!(late.wait().unwrap(), fp(99).route_key());
    for (i, ticket) in tickets.into_iter().enumerate() {
        assert_eq!(ticket.wait().unwrap(), fp(i as u64).route_key());
    }
    assert_settled(&batcher, N as u64 + 1);
}

/// A batch and its tickets cross threads for any `V: Send` — `Sync` is
/// not asked of the answer type.
#[test]
fn batches_and_tickets_are_send_for_send_answers() {
    fn assert_send<T: Send>() {}
    type SendNotSync = std::cell::Cell<u64>;
    assert_send::<ClosedBatch<SendNotSync>>();
    assert_send::<Ticket<SendNotSync>>();
    assert_send::<SharedBatcher<SendNotSync>>();
}

/// A batcher with the smallest possible owner: asked, it ships the wanted
/// batch on the asking thread unless it is `busy` (a round trip of its own
/// in flight), and counts the asks.
struct Owned {
    batcher: SharedBatcher<u64>,
    busy: AtomicBool,
    asks: AtomicUsize,
}

fn owned(max_age: Duration) -> Arc<Owned> {
    Arc::new_cyclic(|weak: &Weak<Owned>| {
        let weak = weak.clone();
        Owned {
            batcher: SharedBatcher::new(1000, max_age).on_demand(move || {
                let Some(owner) = weak.upgrade() else { return };
                owner.asks.fetch_add(1, Ordering::SeqCst);
                if !owner.busy.load(Ordering::SeqCst) {
                    if let Some(batch) = owner.batcher.close_wanted() {
                        answer(batch);
                    }
                }
            }),
            busy: AtomicBool::new(false),
            asks: AtomicUsize::new(0),
        }
    })
}

#[test]
fn first_wait_on_an_open_batch_ships_it_on_demand() {
    let owner = owned(Duration::from_secs(60));
    let tickets: Vec<_> = (0..3).map(|i| owner.batcher.submit(fp(i)).ticket).collect();
    assert!(
        owner.batcher.close_wanted().is_none(),
        "nobody has blocked yet"
    );
    for (i, ticket) in tickets.into_iter().enumerate() {
        assert_eq!(
            ticket
                .wait_timeout(PATIENCE)
                .expect("answered within PATIENCE, not at the 60 s age limit"),
            fp(i as u64).route_key()
        );
    }
    assert_eq!(
        owner.asks.load(Ordering::SeqCst),
        1,
        "one ask per batch; the other tickets found their answers"
    );
    let stats = owner.batcher.stats();
    assert_eq!((stats.batches, stats.closed_by_demand), (1, 1));
    assert_settled(&owner.batcher, 3);
}

#[test]
fn polling_is_ready_never_demands() {
    let owner = owned(Duration::from_millis(5));
    let ticket = owner.batcher.submit(fp(1)).ticket;
    for _ in 0..1000 {
        assert!(!ticket.is_ready());
    }
    assert_eq!(owner.asks.load(Ordering::SeqCst), 0);
    assert!(owner.batcher.close_wanted().is_none());
    // Such a client is what the age limit is still for.
    let deadline = owner.batcher.next_deadline().expect("one pending");
    std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
    answer(owner.batcher.poll().expect("past the age limit"));
    assert!(ticket.is_ready());
    assert_eq!(ticket.wait().unwrap(), fp(1).route_key());
    let stats = owner.batcher.stats();
    assert_eq!((stats.closed_by_age, stats.closed_by_demand), (1, 0));
}

/// While the owner is busy its answer to an ask is "not yet": the batch
/// keeps filling, wanted. `pass_demand` then wakes its waiters and one of
/// them asks again — every client that arrived meanwhile leaves in that
/// one batch.
#[test]
fn asks_behind_a_busy_owner_become_one_batch_when_demand_is_passed() {
    const CLIENTS: u64 = 6;
    let owner = owned(FAR);
    owner.busy.store(true, Ordering::SeqCst);
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let owner = Arc::clone(&owner);
            std::thread::spawn(move || owner.batcher.submit(fp(c)).ticket.wait_timeout(PATIENCE))
        })
        .collect();
    // Everyone has submitted and at least one has asked and been put off.
    while owner.batcher.pending_len() < CLIENTS as usize || owner.asks.load(Ordering::SeqCst) == 0 {
        std::thread::yield_now();
    }
    assert_eq!(
        owner.batcher.stats().batches,
        0,
        "a busy owner ships nothing"
    );
    owner.busy.store(false, Ordering::SeqCst);
    owner.batcher.pass_demand();
    for (c, client) in clients.into_iter().enumerate() {
        assert_eq!(
            client.join().expect("client"),
            Ok(fp(c as u64).route_key()),
            "client {c} was left parked"
        );
    }
    let stats = owner.batcher.stats();
    assert_eq!((stats.batches, stats.closed_by_demand), (1, 1));
    assert_eq!(stats.max_occupancy, CLIENTS as usize);
    assert_settled(&owner.batcher, CLIENTS);
}

#[test]
fn ticket_waited_on_after_its_owner_is_gone_is_unavailable() {
    let owner = owned(FAR);
    let queued = owner.batcher.submit(fp(1)).ticket;
    drop(owner);
    assert!(matches!(queued.wait(), Err(Error::Unavailable(_))));
}

#[test]
fn failure_reaches_every_ticket_of_a_demand_closed_batch() {
    let failing: Arc<SharedBatcher<u64>> = Arc::new_cyclic(|weak: &Weak<SharedBatcher<u64>>| {
        let weak = weak.clone();
        SharedBatcher::new(1000, FAR).on_demand(move || {
            if let Some(batch) = weak.upgrade().and_then(|b| b.close_wanted()) {
                batch.fail(&Error::Unavailable("node down".into()));
            }
        })
    });
    let tickets: Vec<_> = (0..4).map(|i| failing.submit(fp(i)).ticket).collect();
    for ticket in tickets {
        assert!(matches!(
            ticket.wait_timeout(PATIENCE),
            Err(Error::Unavailable(m)) if m == "node down"
        ));
    }
    assert_eq!(failing.stats().closed_by_demand, 1);
    assert_settled(&failing, 4);
}
