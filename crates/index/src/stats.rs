//! Contention counters shared by every backend.

use std::sync::atomic::{AtomicU64, Ordering};

/// A point-in-time snapshot of a backend's contention counters.
///
/// The counter is *events observed*, not time spent: how often a thread
/// found the structure busy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// A `try_lock`/`try_read`/`try_write` failed and the thread had to
    /// fall back to a blocking acquire.
    pub lock_waits: u64,
}

impl IndexStats {
    /// Sums two snapshots.
    pub fn merge(self, other: IndexStats) -> IndexStats {
        IndexStats {
            lock_waits: self.lock_waits + other.lock_waits,
        }
    }
}

/// Shared atomic counters the backends bump on their slow paths.
#[derive(Debug, Default)]
pub(crate) struct ContentionCounters {
    lock_waits: AtomicU64,
}

impl ContentionCounters {
    pub(crate) fn count_lock_wait(&self) {
        self.lock_waits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> IndexStats {
        IndexStats {
            lock_waits: self.lock_waits.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_merge() {
        let c = ContentionCounters::default();
        c.count_lock_wait();
        c.count_lock_wait();
        let snap = c.snapshot();
        assert_eq!(snap.lock_waits, 2);
        let merged = snap.merge(IndexStats { lock_waits: 3 });
        assert_eq!(merged.lock_waits, 5);
    }
}
