//! A bounded ring of recent samples for long-running statistics.
//!
//! Front-ends run indefinitely; any stats buffer that only *appends* is
//! either unbounded or goes blind once full. [`SampleRing`] keeps the
//! most recent `cap` samples by overwriting the oldest, so quantiles
//! computed from a snapshot always describe *current* behaviour at any
//! uptime — the property the queueing-delay and admitted-latency tails
//! rely on.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default capacity for delay/latency rings: bounded memory (~2 MiB of
/// `u64` worst case) while far exceeding any control window.
pub(crate) const DELAY_SAMPLE_CAP: usize = 1 << 18;

/// Slots per allocation: a ring grows a chunk at a time up to its
/// capacity, so a short-lived batcher never pays for a 2 MiB ring and
/// growing never copies or doubles what is already held.
const CHUNK: usize = 4096;

/// A fixed-capacity ring of the most recent `u64` samples.
///
/// Pushing past capacity overwrites the oldest sample;
/// [`snapshot`](SampleRing::snapshot) returns the retained samples
/// oldest-first, and [`seen`](SampleRing::seen) counts every sample ever
/// pushed (so callers can window by count delta even across overwrites).
///
/// The slots are shared atomics so that a [`reader`](SampleRing::reader)
/// taken under the owner's lock can copy the samples out *after* the lock
/// is released: a stats snapshot never stalls the threads that push.
#[derive(Debug, Clone)]
pub struct SampleRing {
    /// Slot `i` is `chunks[i / CHUNK][i % CHUNK]`.
    chunks: Vec<Arc<[AtomicU64]>>,
    len: usize,
    cap: usize,
    next: usize,
    seen: u64,
}

impl Default for SampleRing {
    fn default() -> Self {
        SampleRing::new(DELAY_SAMPLE_CAP)
    }
}

impl SampleRing {
    /// Creates a ring retaining the most recent `cap` samples.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "sample ring capacity must be nonzero");
        SampleRing {
            chunks: Vec::new(),
            len: 0,
            cap,
            next: 0,
            seen: 0,
        }
    }

    /// Records one sample, evicting the oldest when full.
    pub fn push(&mut self, sample: u64) {
        if self.len < self.cap {
            let allocated = self.chunks.len() * CHUNK;
            if self.len == allocated {
                let slots = CHUNK.min(self.cap - allocated);
                self.chunks
                    .push((0..slots).map(|_| AtomicU64::new(0)).collect());
            }
            self.len += 1;
        }
        // Relaxed: a sample publishes nothing but itself.
        self.chunks[self.next / CHUNK][self.next % CHUNK].store(sample, Ordering::Relaxed);
        self.next += 1;
        if self.next == self.cap {
            self.next = 0;
        }
        self.seen += 1;
    }

    /// Samples currently retained (≤ capacity).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True before the first push.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The ring's capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total samples ever pushed, including overwritten ones.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// A handle on the samples retained right now. Cheap (a reference
    /// per chunk, no sample copied), so a stats reader takes it under the
    /// lock that guards the ring and calls [`RingReader::samples`] once
    /// the lock is released.
    pub fn reader(&self) -> RingReader {
        RingReader {
            chunks: self.chunks.clone(),
            len: self.len,
            // Before the ring wraps the oldest sample sits in slot 0.
            oldest: if self.len < self.cap { 0 } else { self.next },
        }
    }

    /// The retained samples, oldest first.
    pub fn snapshot(&self) -> Vec<u64> {
        self.reader().samples()
    }
}

/// The samples a [`SampleRing`] retained at the moment
/// [`SampleRing::reader`] was called, copied out on demand.
#[derive(Debug, Clone)]
pub struct RingReader {
    chunks: Vec<Arc<[AtomicU64]>>,
    len: usize,
    oldest: usize,
}

impl RingReader {
    /// Copies the samples out, oldest first. Pushes racing the copy may
    /// replace the *oldest* few entries with samples newer than the
    /// handle (every entry is still a recorded sample, and the recent
    /// tail — what quantile windows read — is exact).
    pub fn samples(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.chunks.len() * CHUNK);
        for chunk in &self.chunks {
            out.extend(chunk.iter().map(|slot| slot.load(Ordering::Relaxed)));
        }
        out.truncate(self.len);
        out.rotate_left(self.oldest);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_then_wraps_keeping_most_recent() {
        let mut ring = SampleRing::new(4);
        assert!(ring.is_empty());
        for v in 1..=3 {
            ring.push(v);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.seen(), 3);
        assert_eq!(ring.snapshot(), vec![1, 2, 3]);
        for v in 4..=10 {
            ring.push(v);
        }
        assert_eq!(ring.len(), 4, "bounded at capacity");
        assert_eq!(ring.seen(), 10, "seen counts overwrites");
        assert_eq!(ring.snapshot(), vec![7, 8, 9, 10], "oldest first");
    }

    #[test]
    fn capacity_one_always_holds_the_latest() {
        let mut ring = SampleRing::new(1);
        for v in 0..100 {
            ring.push(v);
            assert_eq!(ring.snapshot(), vec![v]);
        }
        assert_eq!(ring.seen(), 100);
    }

    #[test]
    fn reader_keeps_its_length_across_growth_and_wraps() {
        let mut ring = SampleRing::new(2 * CHUNK + 10);
        for v in 0..CHUNK as u64 + 5 {
            ring.push(v);
        }
        let early = ring.reader();
        // Two more chunks are allocated and the ring wraps once.
        for v in CHUNK as u64 + 5..3 * CHUNK as u64 {
            ring.push(v);
        }
        assert_eq!(early.samples().len(), CHUNK + 5, "length as of the handle");
        assert_eq!(ring.len(), 2 * CHUNK + 10);
        let newest = 3 * CHUNK as u64 - 1;
        let kept = ring.snapshot();
        assert_eq!(kept.len(), ring.capacity());
        assert_eq!(kept[0], newest + 1 - ring.capacity() as u64, "oldest first");
        assert!(kept.windows(2).all(|w| w[1] == w[0] + 1), "in push order");
        assert_eq!(*kept.last().unwrap(), newest);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_rejected() {
        let _ = SampleRing::new(0);
    }
}
