//! The per-session face of the web front-end.
//!
//! [`Frontend`] keeps the original one-client API (submit, harvest
//! answers in arrival order, flush) but is now a thin facade over a
//! [`SharedFrontend`] handle, so any number of sessions — each with its
//! own `Frontend` — can feed one cross-client batch queue.

use std::collections::VecDeque;

use shhc_net::Ticket;
use shhc_types::{Fingerprint, Nanos, Result};

use crate::{LookupAnswer, SharedFrontend, ShhcCluster};

/// A front-end session: one client's view of a (possibly shared) batch
/// queue.
///
/// "the web front-end aggregates fingerprints from clients and sends them
/// as a batch to hybrid nodes" — SHHC §III.A. Submissions join the
/// underlying [`SharedFrontend`]'s queue and are answered in this
/// session's arrival order; a session never sees another session's
/// answers.
///
/// # Examples
///
/// ```
/// use shhc::{ClusterConfig, Frontend, ShhcCluster};
/// use shhc_types::{Fingerprint, Nanos};
///
/// # fn main() -> Result<(), shhc_types::Error> {
/// let cluster = ShhcCluster::spawn(ClusterConfig::small_test(2))?;
/// let mut frontend = Frontend::new(cluster.clone(), 4, Nanos::from_millis(50));
/// let mut answered = 0;
/// for i in 0..10u64 {
///     if let Some(results) = frontend.submit(Fingerprint::from_u64(i))? {
///         answered += results.len();
///     }
/// }
/// answered += frontend.flush()?.len();
/// assert_eq!(answered, 10);
/// cluster.shutdown()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Frontend {
    shared: SharedFrontend,
    /// This session's outstanding tickets, in arrival order.
    outstanding: VecDeque<(Fingerprint, Ticket<LookupAnswer>)>,
}

impl Frontend {
    /// Creates a session over its own private [`SharedFrontend`] — the
    /// legacy single-client constructor, API-compatible with the
    /// pre-refactor `Frontend`.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn new(cluster: ShhcCluster, batch_size: usize, max_age: Nanos) -> Self {
        Self::attach(SharedFrontend::new(
            cluster,
            batch_size,
            max_age.to_duration(),
        ))
    }

    /// Creates a session over an existing shared front-end — the
    /// many-clients-per-front-end shape of the paper's Figure 4.
    pub fn attach(shared: SharedFrontend) -> Self {
        Frontend {
            shared,
            outstanding: VecDeque::new(),
        }
    }

    /// The shared front-end this session feeds.
    pub fn shared(&self) -> &SharedFrontend {
        &self.shared
    }

    /// Pops every already-answered ticket from the front of the session
    /// queue (never skipping ahead, so arrival order is preserved).
    fn harvest(&mut self) -> Result<Vec<(Fingerprint, bool)>> {
        let mut out = Vec::new();
        while self
            .outstanding
            .front()
            .is_some_and(|(_, ticket)| ticket.is_ready())
        {
            let (fp, ticket) = self.outstanding.pop_front().expect("checked front");
            out.push((fp, ticket.wait()?.existed));
        }
        Ok(out)
    }

    /// Adds a fingerprint. Returns whatever prefix of this session's
    /// submissions has been answered so far — in particular, when this
    /// submission closes a batch, its answers (and any earlier stragglers
    /// answered by the age flusher) come back immediately.
    ///
    /// # Errors
    ///
    /// Propagates cluster failures delivered through this session's
    /// tickets; the affected fingerprints are consumed either way.
    pub fn submit(&mut self, fp: Fingerprint) -> Result<Option<Vec<(Fingerprint, bool)>>> {
        let ticket = self.shared.submit(fp);
        self.outstanding.push_back((fp, ticket));
        let ready = self.harvest()?;
        Ok(if ready.is_empty() { None } else { Some(ready) })
    }

    /// Flushes the shared queue and waits for every outstanding ticket of
    /// this session, returning their answers (empty when nothing was
    /// outstanding).
    ///
    /// # Errors
    ///
    /// Propagates cluster failures.
    pub fn flush(&mut self) -> Result<Vec<(Fingerprint, bool)>> {
        // Dispatch whatever is pending (ours and, on a truly shared
        // front-end, anyone else's — harmless, they just get answered
        // early). Tickets in batches currently dispatched by other
        // threads resolve on their own; wait covers both.
        self.shared.flush()?;
        let mut out = Vec::with_capacity(self.outstanding.len());
        while let Some((fp, ticket)) = self.outstanding.pop_front() {
            out.push((fp, ticket.wait()?.existed));
        }
        Ok(out)
    }

    /// Batches released by the underlying shared front-end so far (equals
    /// this session's dispatch count when the front-end is private).
    pub fn batches_sent(&self) -> u64 {
        self.shared.stats().batches
    }

    /// Fingerprints dispatched by the underlying shared front-end so far.
    pub fn fingerprints_sent(&self) -> u64 {
        self.shared.stats().fingerprints
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterConfig;
    use std::time::Duration;

    #[test]
    fn batches_by_size() {
        let cluster = ShhcCluster::spawn(ClusterConfig::small_test(2)).unwrap();
        let mut fe = Frontend::new(cluster.clone(), 3, Nanos::from_secs(60));
        assert!(fe.submit(Fingerprint::from_u64(1)).unwrap().is_none());
        assert!(fe.submit(Fingerprint::from_u64(2)).unwrap().is_none());
        let results = fe.submit(Fingerprint::from_u64(3)).unwrap().unwrap();
        assert_eq!(results.len(), 3);
        assert!(results.iter().all(|(_, existed)| !existed));
        assert_eq!(fe.batches_sent(), 1);
        cluster.shutdown().unwrap();
    }

    #[test]
    fn flush_sends_partial_batch() {
        let cluster = ShhcCluster::spawn(ClusterConfig::small_test(1)).unwrap();
        let mut fe = Frontend::new(cluster.clone(), 100, Nanos::from_secs(60));
        fe.submit(Fingerprint::from_u64(1)).unwrap();
        fe.submit(Fingerprint::from_u64(1)).unwrap();
        let results = fe.flush().unwrap();
        assert_eq!(results.len(), 2);
        assert!(!results[0].1);
        assert!(results[1].1, "duplicate within one batch deduplicates");
        assert!(fe.flush().unwrap().is_empty());
        cluster.shutdown().unwrap();
    }

    #[test]
    fn sessions_share_a_frontend_but_answers_stay_per_session() {
        let cluster = ShhcCluster::spawn(ClusterConfig::small_test(2)).unwrap();
        let shared = SharedFrontend::new(cluster.clone(), 4, Duration::from_secs(60));
        let mut a = Frontend::attach(shared.clone());
        let mut b = Frontend::attach(shared);
        assert!(a.submit(Fingerprint::from_u64(1)).unwrap().is_none());
        assert!(b.submit(Fingerprint::from_u64(2)).unwrap().is_none());
        assert!(a.submit(Fingerprint::from_u64(3)).unwrap().is_none());
        // B's second submission fills the shared batch of 4; it harvests
        // only its own two answers, in its own arrival order.
        let b_results = b.submit(Fingerprint::from_u64(4)).unwrap().unwrap();
        assert_eq!(
            b_results
                .iter()
                .map(|(fp, _)| fp.route_key())
                .collect::<Vec<_>>(),
            vec![2, 4]
        );
        // A's answers are ready and come back on its next interaction.
        let a_results = a.flush().unwrap();
        assert_eq!(
            a_results
                .iter()
                .map(|(fp, _)| fp.route_key())
                .collect::<Vec<_>>(),
            vec![1, 3]
        );
        assert_eq!(a.batches_sent(), 1, "one cross-client batch");
        cluster.shutdown().unwrap();
    }
}
