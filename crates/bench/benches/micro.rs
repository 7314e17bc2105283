//! Criterion micro-benchmarks for the substrate hot paths: hashing,
//! bloom filters, caches, the cuckoo table, chunking, the service's backup
//! and restore byte paths, the flash store, a node's cold lookup frame,
//! ring routing, wire encode/decode, and the shared batcher's tickets.

use std::sync::{Arc, Weak};

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use shhc::prelude::{BackupService, ClusterConfig, MemChunkStore, ShhcCluster};
use shhc_baseline::CuckooTable;
use shhc_bloom::BloomFilter;
use shhc_cache::{Cache, ClockCache, LruCache};
use shhc_chunking::{Chunker, GearChunker, RabinChunker};
use shhc_flash::{FlashConfig, FlashStore};
use shhc_hash::{fingerprint_of, xxh64, Sha1};
use shhc_net::{decode, encode, encode_into, Frame, SharedBatcher, Ticket};
use shhc_node::{HybridHashNode, NodeConfig};
use shhc_ring::{ConsistentHashRing, Partitioner};
use shhc_types::{Fingerprint, NodeId, StreamId};

fn bench_hashes(c: &mut Criterion) {
    let mut group = c.benchmark_group("hash");
    let data_8k = vec![0xA5u8; 8192];
    group.throughput(Throughput::Bytes(8192));
    group.bench_function("sha1_8k", |b| {
        b.iter(|| Sha1::digest(black_box(&data_8k)));
    });
    group.bench_function("xxh64_8k", |b| {
        b.iter(|| xxh64(black_box(&data_8k), 0));
    });
    // One buffered block plus a full padding block: what `finalize` costs.
    let data_64 = [0xA5u8; 64];
    group.throughput(Throughput::Bytes(64));
    group.bench_function("sha1_64b", |b| {
        b.iter(|| Sha1::digest(black_box(&data_64)));
    });
    // The ingest workload's mean chunk (ledger: 9 279 B) as the client
    // fingerprints it.
    let chunk_9k = vec![0xA5u8; 9 * 1024];
    group.throughput(Throughput::Bytes(9 * 1024));
    group.bench_function("fingerprint_chunk_9k", |b| {
        b.iter(|| fingerprint_of(black_box(&chunk_9k)));
    });
    group.finish();
}

fn bench_bloom(c: &mut Criterion) {
    let mut group = c.benchmark_group("bloom");
    let mut bloom = BloomFilter::with_rate(1_000_000, 0.01);
    for i in 0..500_000u64 {
        bloom.insert(&i.to_le_bytes());
    }
    let mut i = 0u64;
    group.bench_function("insert", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            bloom.insert(&i.to_le_bytes());
        });
    });
    group.bench_function("query_hit", |b| {
        b.iter(|| bloom.contains(black_box(&42u64.to_le_bytes())));
    });
    group.bench_function("query_miss", |b| {
        b.iter(|| bloom.contains(black_box(&0xdead_beef_0000u64.to_le_bytes())));
    });
    group.finish();
}

/// The node's RAM cache beside the exact LRU it replaced, map-bench
/// style: one harness over the `Cache` trait, and the same 64 Ki-entry
/// capacity, keys and op mixes for both. `get_hit` probes keys both hold,
/// `get_miss` keys neither holds, and `insert_evict` inserts fresh keys
/// into the full cache, so every insert replaces an entry.
fn bench_cache(c: &mut Criterion) {
    const ENTRIES: usize = 64 * 1024;
    let mut rng = StdRng::seed_from_u64(3);
    let mut draw = |n: usize| -> Vec<Fingerprint> {
        (0..n).map(|_| Fingerprint::from_u64(rng.gen())).collect()
    };
    let (keys, absent, fresh) = (draw(ENTRIES), draw(ENTRIES), draw(2 * ENTRIES));
    let mut lru = LruCache::new(ENTRIES);
    let mut clock = ClockCache::new(ENTRIES);
    for k in &keys {
        lru.insert(*k, 1);
        clock.insert(*k, 1);
    }
    // A set-associative table filled with as many keys as it has slots
    // keeps most of them, not all: the hit rows probe what both hold.
    let held: Vec<Fingerprint> = keys
        .iter()
        .filter(|k| lru.peek(k) && clock.peek(k))
        .copied()
        .collect();
    let mut group = c.benchmark_group("cache");
    cache_rows(&mut group, "lru", &mut lru, [&held, &absent, &fresh]);
    cache_rows(&mut group, "clock", &mut clock, [&held, &absent, &fresh]);
    group.finish();
}

fn cache_rows(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    cache: &mut impl Cache<Fingerprint, u64>,
    [held, absent, fresh]: [&[Fingerprint]; 3],
) {
    let mut i = 0usize;
    group.bench_function(&format!("{name}/get_hit"), |b| {
        b.iter(|| {
            i = (i + 1) % held.len();
            cache.get(black_box(&held[i])).copied()
        });
    });
    group.bench_function(&format!("{name}/get_miss"), |b| {
        b.iter(|| {
            i = (i + 1) % absent.len();
            cache.get(black_box(&absent[i])).copied()
        });
    });
    // Cycling through twice as many fresh keys as the cache holds: each
    // one is gone again before it comes round.
    group.bench_function(&format!("{name}/insert_evict"), |b| {
        b.iter(|| {
            i = (i + 1) % fresh.len();
            cache.insert(black_box(fresh[i]), 1)
        });
    });
}

fn bench_cuckoo(c: &mut Criterion) {
    let mut group = c.benchmark_group("cuckoo");
    let mut table = CuckooTable::with_capacity(1_000_000);
    for i in 0..800_000u64 {
        table.insert(Fingerprint::from_u64(i), i);
    }
    let mut i = 0u64;
    group.bench_function("get_hit", |b| {
        b.iter(|| {
            i = (i + 1) % 800_000;
            table.get(black_box(Fingerprint::from_u64(i)))
        });
    });
    group.finish();
}

fn bench_chunking(c: &mut Criterion) {
    let mut group = c.benchmark_group("chunking");
    let mut rng = StdRng::seed_from_u64(1);
    let mut data = vec![0u8; 1 << 20];
    rng.fill_bytes(&mut data);
    group.throughput(Throughput::Bytes(data.len() as u64));
    // Cut search only: `boundaries` neither copies nor hashes.
    let rabin = RabinChunker::new(2048, 8192, 65536);
    group.bench_function("rabin_1MiB", |b| {
        b.iter(|| rabin.boundaries(black_box(&data)).len());
    });
    let gear = GearChunker::new(2048, 8192, 65536);
    group.bench_function("gear_1MiB", |b| {
        b.iter(|| gear.boundaries(black_box(&data)).len());
    });

    // The whole client byte path: Gear cuts on the cutter thread, SHA-1
    // split between the caller (from the front) and the cutter (from the
    // back, once it has cut everything), lookups of an already stored
    // slice on the caller (all duplicates after the first iteration, as
    // in a re-backup).
    let mut slice = vec![0u8; 4 << 20];
    rng.fill_bytes(&mut slice);
    let cluster = ShhcCluster::spawn(ClusterConfig::small_test(2)).expect("cluster");
    let service = BackupService::new(cluster, gear, MemChunkStore::new(4 << 20), 512);
    group.throughput(Throughput::Bytes(slice.len() as u64));
    group.bench_function("backup_4MiB", |b| {
        b.iter(|| {
            service
                .backup(StreamId::new(1), black_box(&slice))
                .expect("backup")
                .total_chunks
        });
    });
    group.finish();

    // The read side on the same service: two workers fetch (SHA-1
    // verified) and place 64-entry batches of the slice's manifest.
    let manifest = service
        .backup(StreamId::new(2), &slice)
        .expect("backup")
        .manifest;
    let mut group = c.benchmark_group("restore");
    group.throughput(Throughput::Bytes(slice.len() as u64));
    group.bench_function("restore_4MiB", |b| {
        b.iter(|| {
            service
                .restore(black_box(&manifest))
                .expect("restore")
                .len()
        });
    });
    group.finish();
    let cluster = service.cluster().clone();
    drop(service);
    cluster.shutdown().expect("cluster shutdown");
}

fn bench_flash_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("flash_store");
    let mut store = FlashStore::new(FlashConfig::medium_test()).expect("config");
    for i in 0..50_000u64 {
        store.put(Fingerprint::from_u64(i), i).expect("put");
    }
    store.flush().expect("flush");
    let mut i = 0u64;
    group.bench_function("get_cold", |b| {
        b.iter(|| {
            i = (i + 1) % 50_000;
            store.get(black_box(Fingerprint::from_u64(i))).expect("get")
        });
    });
    let mut j = 0u64;
    group.bench_function("put_buffered", |b| {
        b.iter(|| {
            // Steady-state put path: overwrite within a bounded key space
            // so the simulated device never fills, however many samples
            // Criterion takes.
            j += 1;
            let key = 1_000_000 + (j % 20_000);
            store.put(Fingerprint::from_u64(key), j).expect("put")
        });
    });
    group.finish();
}

/// Cold batched probes at the size the perf ledger measures: a
/// `default_node` store holding 3 M records (≈ 100 MiB of pages, far
/// past any CPU cache) probed in 1 024-fingerprint batches — drawn
/// uniformly from what it holds (`get_batch_cold`: directory hit, one
/// page read, one record verified) or from keys it never held
/// (`get_batch_absent`: directory miss, no read). `get_cold` above runs
/// over 50 k records that stay cache-resident, which hides the per-probe
/// cost.
fn bench_flash_store_cold(c: &mut Criterion) {
    const RECORDS: u64 = 3_000_000;
    const BATCH: usize = 1024;
    const BATCHES: usize = 256;
    let mut group = c.benchmark_group("flash_store");
    group.throughput(Throughput::Elements(BATCH as u64));
    // Built on first use: the load takes seconds, and a filtered run
    // that skips both rows should not pay it.
    struct Loaded {
        store: FlashStore,
        held: Vec<Vec<Fingerprint>>,
        absent: Vec<Vec<Fingerprint>>,
    }
    let mut loaded: Option<Loaded> = None;
    let mut load = || {
        let mut rng = StdRng::seed_from_u64(3);
        let keys: Vec<Fingerprint> = (0..RECORDS)
            .map(|_| Fingerprint::from_u64(rng.gen()))
            .collect();
        let mut store = FlashStore::new(FlashConfig::default_node()).expect("config");
        for (i, fp) in keys.iter().enumerate() {
            store.put(*fp, i as u64).expect("put");
        }
        store.flush().expect("flush");
        let held = (0..BATCHES)
            .map(|_| {
                (0..BATCH)
                    .map(|_| keys[rng.gen_range(0..keys.len())])
                    .collect()
            })
            .collect();
        // Fresh 64-bit draws: none of them is among the 3 M held.
        let absent = (0..BATCHES)
            .map(|_| {
                (0..BATCH)
                    .map(|_| Fingerprint::from_u64(rng.gen()))
                    .collect()
            })
            .collect();
        Loaded {
            store,
            held,
            absent,
        }
    };
    let mut next = 0usize;
    group.bench_function("get_batch_cold", |b| {
        let l = loaded.get_or_insert_with(&mut load);
        b.iter(|| {
            next = (next + 1) % BATCHES;
            l.store
                .get_batch(black_box(&l.held[next]))
                .expect("get_batch")
        });
    });
    group.bench_function("get_batch_absent", |b| {
        let l = loaded.get_or_insert_with(&mut load);
        b.iter(|| {
            next = (next + 1) % BATCHES;
            l.store
                .get_batch(black_box(&l.absent[next]))
                .expect("get_batch")
        });
    });
    group.finish();
}

/// A one-shard node's cold lookup-insert frame, at the size the perf
/// ledger's `lookup_cold` ships to a node: a `default_node` node holding
/// 3 M fingerprints behind a 64 Ki-entry cache, sent 1 024-fingerprint
/// frames of which 90 % are held (drawn uniformly, so nearly all miss
/// the cache and are verified on flash) and 10 % are fresh (answered
/// "new" by the directory and inserted). Fresh fingerprints come from a
/// counter, so every frame inserts new ones however many samples run.
fn bench_node_cold(c: &mut Criterion) {
    const RECORDS: u64 = 3_000_000;
    const FRAME: usize = 1024;
    const FRAMES: usize = 256;
    let mut group = c.benchmark_group("node");
    group.throughput(Throughput::Elements(FRAME as u64));
    struct Loaded {
        node: HybridHashNode,
        /// Held fingerprints, with the fresh slots still to fill.
        frames: Vec<Vec<Fingerprint>>,
        fresh_slots: Vec<Vec<usize>>,
    }
    let mut loaded: Option<Loaded> = None;
    let load = || {
        let mut rng = StdRng::seed_from_u64(4);
        let keys: Vec<Fingerprint> = (0..RECORDS)
            .map(|_| Fingerprint::from_u64(rng.gen()))
            .collect();
        let config = NodeConfig {
            cache_capacity: 65_536,
            ..NodeConfig::default_node()
        };
        let mut node = HybridHashNode::new(NodeId::new(0), config).expect("config");
        for frame in keys.chunks(FRAME) {
            node.lookup_insert_batch(frame).expect("load");
        }
        let frames = (0..FRAMES)
            .map(|_| {
                (0..FRAME)
                    .map(|_| keys[rng.gen_range(0..keys.len())])
                    .collect()
            })
            .collect();
        let fresh_slots = (0..FRAMES)
            .map(|_| (0..FRAME).filter(|_| rng.gen_range(0..10) == 0).collect())
            .collect();
        Loaded {
            node,
            frames,
            fresh_slots,
        }
    };
    let (mut next, mut fresh) = (0usize, 0u64);
    group.bench_function("lookup_insert_batch_cold", |b| {
        let l = loaded.get_or_insert_with(load);
        b.iter(|| {
            next = (next + 1) % FRAMES;
            for &slot in &l.fresh_slots[next] {
                // Small counter values: no 64-bit draw of the load hits one.
                fresh += 1;
                l.frames[next][slot] = Fingerprint::from_u64(fresh);
            }
            l.node
                .lookup_insert_batch(black_box(&l.frames[next]))
                .expect("lookup_insert_batch")
        });
    });
    group.finish();
}

fn bench_shared_batcher(c: &mut Criterion) {
    const WINDOW: usize = 2048;
    let mut group = c.benchmark_group("shared_batcher");
    let far = std::time::Duration::from_secs(3600);
    let fps: Vec<Fingerprint> = (0..WINDOW as u64).map(Fingerprint::from_u64).collect();
    let answers: Vec<u64> = (0..WINDOW as u64).collect();

    // One front-end window, single-threaded: every fingerprint is
    // submitted, the closing submission's batch is answered, every
    // ticket is waited on.
    group.throughput(Throughput::Elements(WINDOW as u64));
    let batcher: SharedBatcher<u64> = SharedBatcher::new(WINDOW, far);
    let mut tickets: Vec<Ticket<u64>> = Vec::with_capacity(WINDOW);
    group.bench_function("ticket_lifecycle_2048", |b| {
        b.iter(|| {
            let mut closed = None;
            for fp in &fps {
                let s = batcher.submit(*fp);
                tickets.push(s.ticket);
                closed = s.closed.or(closed);
            }
            closed
                .expect("size limit closes the window")
                .complete(answers.clone())
                .expect("complete");
            tickets
                .drain(..)
                .map(|t| t.wait().expect("answered"))
                .sum::<u64>()
        });
    });

    // The paced window: 32 submissions into a batch far from full, then
    // a blocking wait on the first ticket, which asks the batch's owner;
    // the owner ships it on this thread, and the other 31 find answers.
    const PACED: usize = 32;
    group.throughput(Throughput::Elements(PACED as u64));
    let owned: Arc<SharedBatcher<u64>> = Arc::new_cyclic(|weak: &Weak<SharedBatcher<u64>>| {
        let weak = weak.clone();
        SharedBatcher::new(WINDOW, far).on_demand(move || {
            if let Some(batch) = weak.upgrade().and_then(|b| b.close_wanted()) {
                let n = batch.len() as u64;
                batch.complete((0..n).collect()).expect("complete");
            }
        })
    });
    group.bench_function("demand_close_32", |b| {
        b.iter(|| {
            tickets.extend(fps[..PACED].iter().map(|fp| owned.submit(*fp).ticket));
            tickets
                .drain(..)
                .map(|t| t.wait().expect("answered"))
                .sum::<u64>()
        });
    });

    // `stats()` once both sample rings (2^18 delays, 2^18 admitted
    // latencies) are full — what a monitor or the tier merge pays.
    group.throughput(Throughput::Elements(1));
    let mut filled = false;
    group.bench_function("stats_full_ring", |b| {
        if !filled {
            for _ in 0..(1 << 18) / WINDOW {
                for fp in &fps {
                    if let Some(batch) = batcher.submit(*fp).closed {
                        batch.complete(answers.clone()).expect("complete");
                    }
                }
            }
            filled = true;
        }
        b.iter(|| batcher.stats());
    });
    group.finish();
}

fn bench_ring(c: &mut Criterion) {
    let mut group = c.benchmark_group("ring");
    let ring = ConsistentHashRing::with_nodes(16, 64);
    let mut rng = StdRng::seed_from_u64(2);
    group.bench_function("route", |b| {
        b.iter(|| ring.route(black_box(rng.gen::<u64>())));
    });
    group.bench_function("replicas_3", |b| {
        b.iter(|| ring.replicas(black_box(rng.gen::<u64>()), 3));
    });
    group.finish();
}

fn bench_wire(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire");
    let frame = Frame::LookupInsertReq {
        correlation: 1,
        stream: StreamId::new(0),
        fingerprints: (0..128).map(Fingerprint::from_u64).collect(),
    };
    let bytes = encode(&frame);
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("encode_128", |b| {
        b.iter(|| encode(black_box(&frame)));
    });
    group.bench_function("encode_into_128", |b| {
        let mut buf = bytes::BytesMut::with_capacity(bytes.len());
        b.iter(|| encode_into(black_box(&frame), &mut buf));
    });
    group.bench_function("decode_128", |b| {
        b.iter(|| decode(black_box(&bytes)).expect("decode"));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_hashes, bench_bloom, bench_cache, bench_cuckoo, bench_chunking, bench_flash_store, bench_flash_store_cold, bench_node_cold, bench_shared_batcher, bench_ring, bench_wire
}
criterion_main!(benches);
