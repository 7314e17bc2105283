//! Longer-running cross-substrate stress tests: the kind of sustained,
//! churn-heavy workloads that shake out interaction bugs between the
//! cache, flash store and FTL.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shhc_cache::{Cache, LruCache};
use shhc_flash::{FlashConfig, FlashStore};
use shhc_node::{HybridHashNode, NodeConfig};
use shhc_ring::{load_distribution, ConsistentHashRing};
use shhc_types::{Fingerprint, NodeId};
use shhc_workload::presets;

#[test]
fn flash_store_sustains_heavy_churn() {
    let mut store = FlashStore::new(FlashConfig::medium_test()).unwrap();
    let mut model = std::collections::HashMap::new();
    let mut rng = StdRng::seed_from_u64(42);
    // 60k operations over a 5k-key space: plenty of overwrites, deletes
    // and GC pressure.
    for i in 0..60_000u64 {
        let key = rng.gen_range(0..5_000u64);
        let fp = Fingerprint::from_u64(key);
        match rng.gen_range(0..10) {
            0..=6 => {
                store.put(fp, i).unwrap();
                model.insert(key, i);
            }
            7 => {
                store.delete(fp).unwrap();
                model.remove(&key);
            }
            8 => {
                store.flush().unwrap();
            }
            _ => {
                assert_eq!(store.get(fp).unwrap(), model.get(&key).copied());
            }
        }
    }
    store.flush().unwrap();
    for (k, v) in &model {
        assert_eq!(store.get(Fingerprint::from_u64(*k)).unwrap(), Some(*v));
    }
    // The FTL must have collected garbage during all that churn.
    assert!(store.ftl_stats().gc_runs > 0);
    assert!(store.ftl_stats().write_amplification() >= 1.0);
}

#[test]
fn node_correct_under_every_cache_policy_on_real_traces() {
    let trace = presets::home_dir().scaled(256).generate();
    let config = NodeConfig {
        cache_capacity: 512,
        flash: FlashConfig::medium_test(),
        ..NodeConfig::small_test()
    };
    let mut node = HybridHashNode::new(NodeId::new(0), config).unwrap();
    let mut reference = std::collections::HashSet::new();
    for fp in &trace.fingerprints {
        let r = node.lookup_insert(*fp).unwrap();
        assert_eq!(r.existed, reference.contains(fp));
        reference.insert(*fp);
    }
    assert_eq!(node.entries(), reference.len() as u64);
}

#[test]
fn cache_hit_ratio_tracks_working_set_size() {
    // With a Zipf-like reuse pattern, a bigger cache must hit more.
    let trace = presets::mail_server().scaled(256).generate();
    let mut ratios = Vec::new();
    for capacity in [64usize, 1024, 16_384] {
        let config = NodeConfig {
            cache_capacity: capacity,
            flash: FlashConfig::medium_test(),
            ..NodeConfig::small_test()
        };
        let mut node = HybridHashNode::new(NodeId::new(0), config).unwrap();
        for fp in &trace.fingerprints {
            node.lookup_insert(*fp).unwrap();
        }
        let s = node.stats();
        ratios.push(s.ram_hit_ratio());
    }
    assert!(
        ratios[0] < ratios[1] && ratios[1] <= ratios[2],
        "hit ratio must grow with cache size: {ratios:?}"
    );
}

#[test]
fn lru_never_corrupts_under_interleaved_operations() {
    let mut cache: LruCache<u64, u64> = LruCache::new(257);
    let mut rng = StdRng::seed_from_u64(7);
    let mut model = std::collections::HashMap::new();
    for _ in 0..200_000 {
        let k = rng.gen_range(0..1_000u64);
        match rng.gen_range(0..4) {
            0 => {
                cache.insert(k, k * 2);
                model.insert(k, k * 2);
            }
            1 => {
                if let Some(v) = cache.get(&k) {
                    assert_eq!(*v, model[&k]);
                }
            }
            2 => {
                cache.remove(&k);
                model.remove(&k);
            }
            _ => {
                // A cached value must always agree with the model.
                if cache.peek(&k) {
                    assert_eq!(cache.peek_value(&k), model.get(&k));
                }
            }
        }
        assert!(cache.len() <= 257);
    }
}

#[test]
fn ring_balance_improves_with_vnodes_on_sha1_keys() {
    // Using real fingerprint route keys from a generated trace.
    let trace = presets::web_server().scaled(256).generate();
    let keys: Vec<u64> = trace.fingerprints.iter().map(|fp| fp.route_key()).collect();

    let mut spreads = Vec::new();
    for vnodes in [1u32, 16, 256] {
        let ring = ConsistentHashRing::with_nodes(4, vnodes);
        let counts = load_distribution(&ring, keys.iter().copied());
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        spreads.push(max / min.max(1.0));
    }
    assert!(
        spreads[2] < spreads[0],
        "more vnodes must tighten the spread: {spreads:?}"
    );
    assert!(spreads[2] < 1.5, "256 vnodes should be near-balanced");
}

#[test]
fn node_survives_write_buffer_boundary_patterns() {
    // Adversarial pattern: exactly fill the write buffer, then query the
    // just-flushed keys, then refill — exercising the buffer/flash
    // boundary repeatedly.
    let config = NodeConfig::small_test();
    let wb = config.flash.write_buffer;
    let mut node = HybridHashNode::new(NodeId::new(0), config).unwrap();
    for round in 0..20u64 {
        let base = round * wb as u64;
        for i in 0..wb as u64 {
            let r = node.lookup_insert(Fingerprint::from_u64(base + i)).unwrap();
            assert!(!r.existed);
        }
        // Everything from every earlier round must still be found.
        for probe in (0..=round).step_by(3) {
            let fp = Fingerprint::from_u64(probe * wb as u64);
            assert!(node.lookup_insert(fp).unwrap().existed, "round {round}");
        }
    }
}
