//! Marginal-utility cache sizer.
//!
//! A sharded node splits one RAM budget into per-shard caches. Under
//! uniform traffic an even split is optimal; under skew the hot shard's
//! cache thrashes while cold shards hold entries nobody asks for. The
//! sizer shifts capacity toward the shard where an extra entry buys the
//! most hits, using each cache's *decayed* miss count
//! ([`Cache::recent_misses`](crate::Cache::recent_misses)) as the demand
//! signal: `mu_i = recent_misses_i / capacity_i` approximates the miss
//! reduction per added entry, so moving capacity from the `mu`-minimal
//! cache to the `mu`-maximal one is a hill-climbing step on total hits.
//!
//! The sizer only *plans*; the owner of the caches applies the move with
//! [`Cache::resize`](crate::Cache::resize). Total capacity is conserved
//! by construction and a per-cache floor keeps every shard functional.

/// Tuning knobs for [`CacheSizer`].
#[derive(Debug, Clone, Copy)]
pub struct SizerConfig {
    /// No cache is shrunk below this many entries.
    pub min_capacity: usize,
    /// Entries moved per decision (one hill-climbing step).
    pub step: usize,
    /// The receiver's marginal utility must exceed the donor's by this
    /// factor before a move happens — suppresses oscillation when the
    /// shards are near-balanced.
    pub hysteresis: f64,
}

impl Default for SizerConfig {
    fn default() -> Self {
        SizerConfig {
            min_capacity: 16,
            step: 64,
            hysteresis: 2.0,
        }
    }
}

/// One planned capacity move: take `entries` from cache `from`, give
/// them to cache `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizerDecision {
    /// Donor cache index.
    pub from: usize,
    /// Receiver cache index.
    pub to: usize,
    /// Entries to move.
    pub entries: usize,
}

/// Plans capacity moves between sibling caches (see module docs).
#[derive(Debug, Clone, Default)]
pub struct CacheSizer {
    config: SizerConfig,
}

impl CacheSizer {
    /// Creates a sizer with the given knobs.
    pub fn new(config: SizerConfig) -> Self {
        CacheSizer { config }
    }

    /// Proposes at most one move given `(capacity, recent_misses)` per
    /// cache. Returns `None` when fewer than two caches exist, when the
    /// utilities are too close (hysteresis), or when the donor would
    /// fall below the floor.
    pub fn plan(&self, caches: &[(usize, f64)]) -> Option<SizerDecision> {
        if caches.len() < 2 {
            return None;
        }
        let mu = |&(cap, misses): &(usize, f64)| {
            if cap == 0 {
                0.0
            } else {
                misses.max(0.0) / cap as f64
            }
        };
        let (to, _) = caches
            .iter()
            .enumerate()
            .max_by(|a, b| mu(a.1).total_cmp(&mu(b.1)))?;
        // Donor: the lowest-utility cache that can still give a full or
        // partial step without crossing the floor.
        let (from, _) = caches
            .iter()
            .enumerate()
            .filter(|&(i, &(cap, _))| i != to && cap > self.config.min_capacity)
            .min_by(|a, b| mu(a.1).total_cmp(&mu(b.1)))?;
        let (donor_cap, _) = caches[from];
        if mu(&caches[to]) <= mu(&caches[from]) * self.config.hysteresis.max(1.0) {
            return None;
        }
        let entries = self
            .config
            .step
            .min(donor_cap - self.config.min_capacity)
            .max(1);
        Some(SizerDecision { from, to, entries })
    }

    /// Plans and applies one move to a capacity vector (the caller then
    /// resizes the actual caches to match). Returns the applied move.
    pub fn rebalance(&self, caps: &mut [usize], misses: &[f64]) -> Option<SizerDecision> {
        debug_assert_eq!(caps.len(), misses.len());
        let joined: Vec<(usize, f64)> = caps.iter().copied().zip(misses.iter().copied()).collect();
        let d = self.plan(&joined)?;
        caps[d.from] -= d.entries;
        caps[d.to] += d.entries;
        Some(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sizer(min: usize, step: usize, hyst: f64) -> CacheSizer {
        CacheSizer::new(SizerConfig {
            min_capacity: min,
            step,
            hysteresis: hyst,
        })
    }

    #[test]
    fn moves_capacity_toward_the_thrashing_cache() {
        let s = sizer(16, 64, 2.0);
        // Shard 1 misses hard; shard 3 is idle.
        let d = s
            .plan(&[(256, 10.0), (256, 500.0), (256, 12.0), (256, 0.5)])
            .expect("imbalance should trigger a move");
        assert_eq!(d.to, 1);
        assert_eq!(d.from, 3);
        assert_eq!(d.entries, 64);
    }

    #[test]
    fn hysteresis_suppresses_near_balanced_moves() {
        let s = sizer(16, 64, 2.0);
        assert_eq!(s.plan(&[(256, 100.0), (256, 150.0)]), None);
        // But a 3× imbalance moves.
        assert!(s.plan(&[(256, 100.0), (256, 301.0)]).is_some());
    }

    #[test]
    fn floor_is_respected() {
        let s = sizer(100, 64, 1.5);
        // Donor is already at the floor → no move.
        assert_eq!(s.plan(&[(100, 0.0), (100, 500.0)]), None);
        // Partial step when the donor is near the floor.
        let d = s.plan(&[(120, 0.0), (100, 500.0)]).unwrap();
        assert_eq!(d.entries, 20);
    }

    #[test]
    fn degenerate_inputs() {
        let s = sizer(16, 64, 2.0);
        assert_eq!(s.plan(&[]), None);
        assert_eq!(s.plan(&[(256, 900.0)]), None);
        // All idle: no move (max mu is 0 → hysteresis fails).
        assert_eq!(s.plan(&[(256, 0.0), (256, 0.0)]), None);
    }

    #[test]
    fn rebalance_conserves_total() {
        let s = sizer(16, 64, 2.0);
        let mut caps = vec![256, 256, 256, 256];
        let misses = vec![0.0, 800.0, 1.0, 1.0];
        let total: usize = caps.iter().sum();
        // Iterate to convergence; the loop must terminate via hysteresis
        // or the floor.
        for _ in 0..100 {
            if s.rebalance(&mut caps, &misses).is_none() {
                break;
            }
            assert_eq!(caps.iter().sum::<usize>(), total);
        }
        assert!(caps[1] > 256, "hot shard should have grown: {caps:?}");
        assert!(caps.iter().all(|&c| c >= 16));
    }
}
