//! The node's RAM cache against the exact LRU it approximates: at equal
//! entries, the set-associative CLOCK table's hit ratio stays within one
//! percentage point of `LruCache`'s on a skewed and on a cold trace, each
//! driven the way a node drives its cache (probe; on a miss, insert).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shhc_cache::{Cache, ClockCache, LruCache};
use shhc_types::Fingerprint;
use shhc_workload::SkewSpec;

const ENTRIES: usize = 4_096;

fn hit_ratio(cache: &mut impl Cache<Fingerprint, u64>, trace: &[Fingerprint]) -> f64 {
    for (i, fp) in trace.iter().enumerate() {
        if cache.get(fp).is_none() {
            cache.insert(*fp, i as u64);
        }
    }
    cache.stats().hit_ratio()
}

fn assert_parity(name: &str, trace: &[Fingerprint]) {
    let lru = hit_ratio(&mut LruCache::new(ENTRIES), trace);
    let clock = hit_ratio(&mut ClockCache::new(ENTRIES), trace);
    println!("{name}: LRU {lru:.4}, CLOCK {clock:.4}");
    assert!(
        (clock - lru).abs() <= 0.01,
        "{name}: CLOCK hit ratio {clock:.4} is more than 1 point from LRU's {lru:.4}"
    );
}

/// Zipf(1.1) over 25× the entries, as in `tests/sharded_equivalence.rs`.
#[test]
fn zipf_hit_ratio_matches_lru() {
    let trace = SkewSpec::new(400_000, 100_000, 1.1, 7).fingerprints();
    assert_parity("zipf 1.1", &trace);
}

/// Uniform over 50× the entries: the shape of the ledger's `lookup_cold`.
#[test]
fn uniform_cold_hit_ratio_matches_lru() {
    let mut rng = StdRng::seed_from_u64(11);
    let keyspace = 50 * ENTRIES as u64;
    let trace: Vec<Fingerprint> = (0..400_000)
        .map(|_| SkewSpec::fingerprint(rng.gen_range(0..keyspace)))
        .collect();
    assert_parity("uniform 50x", &trace);
}
