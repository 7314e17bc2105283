//! Shared cache instrumentation.

/// Counters every cache policy maintains.
///
/// # Examples
///
/// ```
/// use shhc_cache::{Cache, CacheStats, LruCache};
///
/// let mut c = LruCache::new(1);
/// c.insert(1u32, ());
/// c.get(&1);
/// c.get(&2);
/// let s = c.stats();
/// assert_eq!(s.hits, 1);
/// assert_eq!(s.misses, 1);
/// assert!((s.hit_ratio() - 0.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// `get` calls that found the key.
    pub hits: u64,
    /// `get` calls that missed.
    pub misses: u64,
    /// Entries evicted by capacity pressure.
    pub evictions: u64,
    /// Entries inserted.
    pub insertions: u64,
}

impl CacheStats {
    /// Sums counters across caches — a sharded node's per-shard RAM
    /// caches report one aggregate. Idle (all-zero) parts contribute
    /// nothing, and the merged [`CacheStats::hit_ratio`] stays
    /// well-defined (zero lookups reports 0.0).
    pub fn merge<'a>(parts: impl IntoIterator<Item = &'a CacheStats>) -> CacheStats {
        parts.into_iter().fold(CacheStats::default(), |mut acc, p| {
            acc.hits += p.hits;
            acc.misses += p.misses;
            acc.evictions += p.evictions;
            acc.insertions += p.insertions;
            acc
        })
    }

    /// Fraction of lookups that hit; zero when no lookups happened.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Total lookups observed.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ratio_is_zero() {
        assert_eq!(CacheStats::default().hit_ratio(), 0.0);
    }

    #[test]
    fn merge_sums_parts_and_keeps_ratio_defined() {
        let a = CacheStats {
            hits: 3,
            misses: 1,
            evictions: 2,
            insertions: 6,
        };
        let idle = CacheStats::default();
        let merged = CacheStats::merge([&a, &idle, &a]);
        assert_eq!(merged.hits, 6);
        assert_eq!(merged.misses, 2);
        assert_eq!(merged.evictions, 4);
        assert_eq!(merged.insertions, 12);
        assert!((merged.hit_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::merge([&idle, &idle]).hit_ratio(), 0.0);
    }

    #[test]
    fn ratio_arithmetic() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            evictions: 0,
            insertions: 4,
        };
        assert!((s.hit_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(s.lookups(), 4);
    }
}
