//! The layer table: each crate's hot public functions timed in a tight
//! loop, the same functions `crates/bench/benches/micro.rs` times, on
//! the inputs a traced run captured from its own workload. The
//! structures the kernels probe (bloom filter, cache, flash store, node)
//! are standalone copies loaded with node 0's share of what the
//! workload's index held, and probed with node 0's share of what the
//! workload offered, so a kernel sees the hit/miss mix and the working
//! set its workload gives that layer.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use shhc::HybridHashNode;
use shhc_bloom::BloomFilter;
use shhc_cache::{Cache, LruCache};
use shhc_chunking::{Chunk, Chunker, GearChunker};
use shhc_flash::{FlashConfig, FlashStore};
use shhc_hash::Sha1;
use shhc_index::{AnyIndex, BackendKind, Collection, CollectionHandle};
use shhc_net::{decode, encode_into, ClosedBatch, Frame, SharedBatcher};
use shhc_ring::RingView;
use shhc_storage::{ChunkStore, MemChunkStore};
use shhc_types::{ChunkId, Fingerprint, NodeId, StreamId};

use crate::gen::fingerprint;
use crate::stats::median;
use crate::sut::{node_config, spawn_cluster, NODES, VNODES};

/// Wall-clock budget of one kernel in one pass.
const PASS_BUDGET: Duration = Duration::from_millis(25);
/// Passes over the whole kernel list; a kernel reports its median pass.
const PASSES: usize = 3;
/// Entries loaded where size matters less: ring keys, the index
/// backends, the two-node cluster behind the hop and record kernels.
const SMALL: usize = 300_000;
/// Fingerprints per round of the single-probe kernels.
const ROUND: usize = 4096;

/// What a traced run captured from its workload for the kernel pass.
pub struct Capture {
    pub seed: u64,
    /// Every fingerprint the index held when the traced phase began.
    pub loaded: Vec<Fingerprint>,
    /// The fingerprints the traced phase offered, in order.
    pub offered: Vec<Fingerprint>,
    /// Fingerprints one request carries to the cluster (a lookup window
    /// or a locate batch); a node receives its share of them.
    pub window: usize,
    /// RAM cache entries per node.
    pub cache_entries: usize,
    /// Logical bytes the workload moved (a few slices of its image);
    /// empty on the lookup workloads, whose byte-side rows read 0.
    pub data: Vec<u8>,
}

/// Every kernel timing, in nanoseconds per the unit its name says, plus
/// the counts the standalone flash replay yields.
#[derive(Debug, Clone, Copy, Default)]
pub struct Kernels {
    pub sha1_ns_per_kib: f64,
    pub chunk_ns_per_kib: f64,
    pub mean_chunk_bytes: f64,
    pub put_ns_per_kib: f64,
    pub get_many_ns_per_kib: f64,
    pub replicas_into_ns: f64,
    pub submit_ns_per_fp: f64,
    pub ticket_wake_ns: f64,
    pub encode_ns_per_fp: f64,
    pub decode_ns_per_fp: f64,
    pub bloom_contains_ns: f64,
    pub bloom_insert_ns: f64,
    pub cache_get_hit_ns: f64,
    pub cache_get_miss_ns: f64,
    pub cache_insert_evict_ns: f64,
    pub flash_get_ns: f64,
    pub flash_get_batch_ns_per_fp: f64,
    pub flash_put_ns: f64,
    pub flash_pages_scanned_per_probe: f64,
    pub flash_coalesced_share: f64,
    pub flash_flushes: f64,
    pub flash_compactions: f64,
    pub index_single_get_ns: f64,
    pub index_striped_get_ns: f64,
    pub index_striped_insert_ns: f64,
    pub node_lookup_insert_ns_per_fp: f64,
    pub node_query_many_ns_per_fp: f64,
    pub channel_hop_ns: f64,
    pub record_batch_ns_per_fp: f64,
}

impl Kernels {
    /// Gear rolling and the chunk copy: `Chunker::chunk` minus the SHA-1
    /// it runs on every chunk.
    pub fn gear_ns_per_kib(&self) -> f64 {
        self.chunk_ns_per_kib - self.sha1_ns_per_kib
    }

    /// Per-fingerprint cost of one lookup window's trip, client side in
    /// series plus node side in parallel over the nodes: ticket life
    /// cycle, routing, request encode and reply decode on the client;
    /// request decode, the node's lookup-insert and reply encode on the
    /// nodes; one channel hop and one ticket wake-up per window.
    pub fn lookup_path_ns_per_fp(&self, window: usize) -> f64 {
        let client = self.submit_ns_per_fp
            + self.replicas_into_ns
            + self.encode_ns_per_fp
            + self.decode_ns_per_fp;
        let node =
            self.decode_ns_per_fp + self.node_lookup_insert_ns_per_fp + self.encode_ns_per_fp;
        let per_window = self.channel_hop_ns + self.ticket_wake_ns;
        client + node / f64::from(NODES) + per_window / window as f64
    }

    /// Per-fingerprint cost of one read-only locate batch (restore).
    pub fn query_path_ns_per_fp(&self, batch: usize) -> f64 {
        let client = self.replicas_into_ns + self.encode_ns_per_fp + self.decode_ns_per_fp;
        let node = self.decode_ns_per_fp + self.node_query_many_ns_per_fp + self.encode_ns_per_fp;
        client + node / f64::from(NODES) + self.channel_hop_ns / batch as f64
    }
}

/// Runs rounds until the pass budget is spent and returns the median
/// round's nanoseconds per item. `prepare` builds a round's input off
/// the clock; `round` is timed and reports how many items it processed.
fn time_prepared<I>(mut prepare: impl FnMut() -> I, mut round: impl FnMut(I) -> usize) -> f64 {
    let mut per_item = Vec::new();
    let started = Instant::now();
    while started.elapsed() < PASS_BUDGET || per_item.len() < 3 {
        let input = prepare();
        let t0 = Instant::now();
        let items = round(input);
        per_item.push(t0.elapsed().as_nanos() as f64 / items.max(1) as f64);
    }
    median(&per_item)
}

fn time_per_item(mut round: impl FnMut() -> usize) -> f64 {
    time_prepared(|| (), |()| round())
}

/// A kernel's read position in a captured fingerprint list. Every
/// kernel starts at its own offset and wraps at the end.
struct Stream<'a> {
    fps: &'a [Fingerprint],
    at: usize,
}

impl<'a> Stream<'a> {
    /// Kernel number `lane` of 16 starts a sixteenth further in.
    fn new(fps: &'a [Fingerprint], lane: usize) -> Self {
        Stream {
            fps,
            at: lane * fps.len() / 16,
        }
    }

    fn take(&mut self, n: usize) -> Vec<Fingerprint> {
        let out = (0..n)
            .map(|i| self.fps[(self.at + i) % self.fps.len()])
            .collect();
        self.at = (self.at + n) % self.fps.len();
        out
    }
}

/// Fingerprints of the workload's generator that nobody has seen, for
/// the insert kernels: they need more of them than a run offers. Each
/// kernel mints from a lane of its own.
struct Fresh {
    seed: u64,
    next: u64,
}

impl Fresh {
    fn take(&mut self, n: usize) -> Vec<Fingerprint> {
        self.next += n as u64;
        (self.next - n as u64..self.next)
            .map(|i| fingerprint(self.seed, i))
            .collect()
    }
}

/// One kernel: a name and a closure that times one pass of it.
type Bench<'a> = (&'static str, Box<dyn FnMut() -> f64 + 'a>);

pub fn run(cap: &Capture) -> Kernels {
    let mut lane = 0u64;
    let mut fresh = || {
        lane += 1;
        Fresh {
            seed: cap.seed,
            next: (1 << 40) + (lane << 32),
        }
    };

    // --- the structures the kernels probe, each loaded once ---
    let data = &cap.data;
    let kib = data.len() / 1024;
    let chunker = GearChunker::new(2 * 1024, 8 * 1024, 64 * 1024);
    let chunks: Vec<Chunk> = chunker.chunk(data).collect();
    let mut store = MemChunkStore::new(4 << 20);
    let ids: Vec<ChunkId> = chunks
        .iter()
        .map(|c| store.put(c.fingerprint, c.data.clone()).expect("put"))
        .collect();

    // Node 0's share of what the index held and of what was offered,
    // routed the way the cluster routes.
    let view = RingView::initial(NODES, VNODES);
    let mut owner = Vec::with_capacity(1);
    let mut on_node_0 = |fp: &Fingerprint| {
        view.replicas_into(fp.route_key(), 1, &mut owner);
        owner[0] == NodeId::new(0)
    };
    let share: Vec<Fingerprint> = cap.loaded.iter().copied().filter(&mut on_node_0).collect();
    let offered: Vec<Fingerprint> = cap.offered.iter().copied().filter(&mut on_node_0).collect();
    let per_node = (cap.window / NODES as usize).max(1);
    let expected = share.len() as u64 * 3 / 2;

    let window = Stream::new(&cap.offered, 0).take(cap.window);
    let batcher: SharedBatcher<u64> = SharedBatcher::new(window.len(), Duration::from_secs(60));
    let frame = Frame::LookupInsertReq {
        correlation: 1,
        stream: StreamId::new(0),
        fingerprints: window[..per_node].to_vec(),
    };
    let mut wire = BytesMut::with_capacity(per_node * 24);
    encode_into(&frame, &mut wire);

    let bloom = RefCell::new(BloomFilter::with_rate(expected, 0.01));
    for fp in &share {
        bloom.borrow_mut().insert(fp.as_bytes());
    }
    // The cache holds what the traced phase touched last, as the
    // workload's own cache does when the phase ends.
    let cache: RefCell<LruCache<Fingerprint, u64>> = RefCell::new(LruCache::new(cap.cache_entries));
    let refill = |cache: &RefCell<LruCache<Fingerprint, u64>>| {
        for fp in &offered {
            cache.borrow_mut().insert(*fp, 1);
        }
    };
    refill(&cache);
    let resident: Vec<Fingerprint> = offered
        .iter()
        .rev()
        .take(cap.cache_entries.min(ROUND))
        .copied()
        .collect();
    let absent = fresh().take(ROUND);

    let flash = RefCell::new(FlashStore::new(FlashConfig::default_node()).expect("flash config"));
    for (i, fp) in share.iter().enumerate() {
        flash.borrow_mut().put(*fp, i as u64).expect("flash load");
    }
    flash.borrow_mut().flush().expect("flash flush");
    let flash_after_load = flash.borrow().stats();
    let batch_probes = RefCell::new((0u64, 0u64, 0u64)); // probes, pages, coalesced

    let small = &cap.loaded[..SMALL.min(cap.loaded.len())];
    let single: AnyIndex<Fingerprint, u64> = AnyIndex::new(BackendKind::Single, small.len());
    let striped: AnyIndex<Fingerprint, u64> = AnyIndex::new(BackendKind::Striped, small.len());
    let mut single_handle = single.pin();
    let striped_handle = RefCell::new(striped.pin());
    for (i, fp) in small.iter().enumerate() {
        single_handle.insert(*fp, i as u64);
        striped_handle.borrow_mut().insert(*fp, i as u64);
    }

    let node = RefCell::new(
        HybridHashNode::new(NodeId::new(0), node_config(cap.cache_entries, expected))
            .expect("node config"),
    );
    for batch in share.chunks(8192) {
        node.borrow_mut()
            .lookup_insert_batch(batch)
            .expect("node load");
    }
    node.borrow_mut().flush().expect("node flush");

    let cluster = spawn_cluster(cap.cache_entries, small.len() as u64);
    for batch in small.chunks(8192) {
        cluster.lookup_insert_batch(batch).expect("cluster load");
    }
    cluster.flush_all().expect("cluster flush");

    // --- the kernels ---
    // What gets past the bloom filter is what the node's flash sees.
    let past_bloom: Vec<Fingerprint> = offered
        .iter()
        .copied()
        .filter(|fp| bloom.borrow().contains(fp.as_bytes()))
        .collect();
    let mut s_ring = Stream::new(&cap.offered, 1);
    let mut s_bloom_c = Stream::new(&offered, 2);
    let (mut s_get, mut s_batch) = (Stream::new(&past_bloom, 3), Stream::new(&past_bloom, 4));
    let (mut s_single, mut s_striped) = (Stream::new(small, 5), Stream::new(small, 6));
    let (mut s_node, mut s_query) = (Stream::new(&offered, 7), Stream::new(&offered, 8));
    let (mut s_hop, mut s_record) = (Stream::new(small, 9), Stream::new(small, 10));
    let (mut s_bloom_i, mut s_cache, mut s_put, mut s_striped_i) =
        (fresh(), fresh(), fresh(), fresh());
    let mut replicas = Vec::with_capacity(1);
    let mut scratch = BytesMut::with_capacity(per_node * 24);
    let mut benches: Vec<Bench> = vec![
        (
            "sha1_ns_per_kib",
            Box::new(|| {
                time_per_item(|| {
                    for c in &chunks {
                        black_box(Sha1::digest(black_box(&c.data)));
                    }
                    kib
                })
            }),
        ),
        (
            "chunk_ns_per_kib",
            Box::new(|| {
                // Collected and dropped on the clock, as the service holds
                // a call's chunks until its lookups are answered.
                time_per_item(|| {
                    black_box(chunker.chunk(black_box(data)).collect::<Vec<Chunk>>());
                    kib
                })
            }),
        ),
        (
            "put_ns_per_kib",
            Box::new(|| {
                // The service hands `put` an owned copy; making it is the
                // caller's cost, so the copies exist before the clock starts.
                time_prepared(
                    || {
                        let owned: Vec<(Fingerprint, Vec<u8>)> = chunks
                            .iter()
                            .map(|c| (c.fingerprint, c.data.clone()))
                            .collect();
                        (MemChunkStore::new(4 << 20), owned)
                    },
                    |(mut fresh_store, owned)| {
                        for (fp, bytes) in owned {
                            black_box(fresh_store.put(fp, bytes).expect("put"));
                        }
                        kib
                    },
                )
            }),
        ),
        (
            "get_many_ns_per_kib",
            Box::new(|| {
                time_per_item(|| {
                    for batch in ids.chunks(64) {
                        black_box(store.get_many(batch).expect("get_many"));
                    }
                    kib
                })
            }),
        ),
        (
            "replicas_into_ns",
            Box::new(|| {
                time_prepared(
                    || s_ring.take(ROUND),
                    |keys| {
                        for fp in &keys {
                            view.replicas_into(black_box(fp.route_key()), 1, &mut replicas);
                            black_box(&replicas);
                        }
                        keys.len()
                    },
                )
            }),
        ),
        (
            // One thread submits a whole window, closes it on size, answers
            // it and collects every (already ready) ticket: what tickets
            // cost per fingerprint with no waiting in it.
            "submit_ns_per_fp",
            Box::new(|| {
                time_per_item(|| {
                    let mut tickets = Vec::with_capacity(window.len());
                    let mut closed = None;
                    for fp in &window {
                        let s = batcher.submit(*fp);
                        tickets.push(s.ticket);
                        closed = closed.or(s.closed);
                    }
                    let batch = closed.expect("window closes on size");
                    batch.complete(vec![7; window.len()]).expect("complete");
                    black_box(
                        tickets
                            .into_iter()
                            .filter_map(|t| t.wait().ok())
                            .sum::<u64>(),
                    );
                    window.len()
                })
            }),
        ),
        ("ticket_wake_ns", Box::new(|| ticket_wake_ns(window[0]))),
        (
            "encode_ns_per_fp",
            Box::new(|| {
                time_per_item(|| {
                    encode_into(black_box(&frame), &mut scratch);
                    black_box(&scratch);
                    per_node
                })
            }),
        ),
        (
            "decode_ns_per_fp",
            Box::new(|| {
                time_per_item(|| {
                    black_box(decode(black_box(&wire)).expect("decode"));
                    per_node
                })
            }),
        ),
        (
            "bloom_contains_ns",
            Box::new(|| {
                time_prepared(
                    || s_bloom_c.take(ROUND),
                    |probes| {
                        let bloom = bloom.borrow();
                        black_box(
                            probes
                                .iter()
                                .filter(|fp| bloom.contains(fp.as_bytes()))
                                .count(),
                        );
                        probes.len()
                    },
                )
            }),
        ),
        (
            "bloom_insert_ns",
            Box::new(|| {
                time_prepared(
                    || s_bloom_i.take(ROUND),
                    |new| {
                        let mut bloom = bloom.borrow_mut();
                        for fp in &new {
                            bloom.insert(fp.as_bytes());
                        }
                        new.len()
                    },
                )
            }),
        ),
        (
            "cache_get_hit_ns",
            Box::new(|| {
                time_per_item(|| {
                    let mut cache = cache.borrow_mut();
                    black_box(resident.iter().filter(|fp| cache.get(fp).is_some()).count());
                    resident.len()
                })
            }),
        ),
        (
            "cache_get_miss_ns",
            Box::new(|| {
                time_per_item(|| {
                    let mut cache = cache.borrow_mut();
                    black_box(absent.iter().filter(|fp| cache.get(fp).is_some()).count());
                    absent.len()
                })
            }),
        ),
        (
            // Runs after the two `get` kernels of its pass; the residents
            // it evicts are re-inserted before the next pass.
            "cache_insert_evict_ns",
            Box::new(|| {
                let ns = time_prepared(
                    || s_cache.take(ROUND),
                    |new| {
                        let mut cache = cache.borrow_mut();
                        for fp in &new {
                            black_box(cache.insert(*fp, 1));
                        }
                        new.len()
                    },
                );
                refill(&cache);
                ns
            }),
        ),
        (
            "flash_get_ns",
            Box::new(|| {
                time_prepared(
                    || s_get.take(512),
                    |probes| {
                        let mut flash = flash.borrow_mut();
                        for fp in &probes {
                            black_box(flash.get(*fp).expect("flash get"));
                        }
                        probes.len()
                    },
                )
            }),
        ),
        (
            "flash_get_batch_ns_per_fp",
            Box::new(|| {
                let before = flash.borrow().stats();
                let ns = time_prepared(
                    || s_batch.take(per_node),
                    |probes| {
                        black_box(flash.borrow_mut().get_batch(&probes).expect("get_batch"));
                        probes.len()
                    },
                );
                let after = flash.borrow().stats();
                let mut seen = batch_probes.borrow_mut();
                seen.0 += after.flash_probes - before.flash_probes;
                seen.1 += after.pages_scanned - before.pages_scanned;
                seen.2 += after.coalesced_probes - before.coalesced_probes;
                ns
            }),
        ),
        (
            "flash_put_ns",
            Box::new(|| {
                time_prepared(
                    || s_put.take(ROUND),
                    |new| {
                        let mut flash = flash.borrow_mut();
                        for fp in &new {
                            flash.put(*fp, 1).expect("flash put");
                        }
                        new.len()
                    },
                )
            }),
        ),
        (
            "index_single_get_ns",
            Box::new(|| {
                time_prepared(
                    || s_single.take(ROUND),
                    |probes| {
                        black_box(
                            probes
                                .iter()
                                .filter(|fp| single_handle.get(fp).is_some())
                                .count(),
                        );
                        probes.len()
                    },
                )
            }),
        ),
        (
            "index_striped_get_ns",
            Box::new(|| {
                time_prepared(
                    || s_striped.take(ROUND),
                    |probes| {
                        let mut h = striped_handle.borrow_mut();
                        black_box(probes.iter().filter(|fp| h.get(fp).is_some()).count());
                        probes.len()
                    },
                )
            }),
        ),
        (
            "index_striped_insert_ns",
            Box::new(|| {
                time_prepared(
                    || s_striped_i.take(ROUND),
                    |new| {
                        let mut h = striped_handle.borrow_mut();
                        for fp in &new {
                            black_box(h.insert(*fp, 1));
                        }
                        new.len()
                    },
                )
            }),
        ),
        (
            "node_lookup_insert_ns_per_fp",
            Box::new(|| {
                time_prepared(
                    || s_node.take(per_node),
                    |frame| {
                        black_box(node.borrow_mut().lookup_insert_batch(&frame).expect("node"));
                        frame.len()
                    },
                )
            }),
        ),
        (
            "node_query_many_ns_per_fp",
            Box::new(|| {
                time_prepared(
                    || s_query.take(per_node),
                    |batch| {
                        black_box(node.borrow_mut().query_many(&batch).expect("node query"));
                        batch.len()
                    },
                )
            }),
        ),
        (
            "channel_hop_ns",
            Box::new(|| {
                time_prepared(
                    || s_hop.take(64),
                    |one| {
                        for fp in &one {
                            black_box(cluster.query_batch(std::slice::from_ref(fp)).expect("hop"));
                        }
                        one.len()
                    },
                )
            }),
        ),
        (
            "record_batch_ns_per_fp",
            Box::new(|| {
                time_prepared(
                    || {
                        s_record
                            .take(64)
                            .into_iter()
                            .map(|fp| (fp, 9))
                            .collect::<Vec<(Fingerprint, u64)>>()
                    },
                    |pairs| {
                        cluster.record_batch(&pairs).expect("record");
                        pairs.len()
                    },
                )
            }),
        ),
    ];

    if kib == 0 {
        // A lookup workload moves no bytes: its byte-side rows read 0.
        benches.retain(|(name, _)| !name.ends_with("_per_kib"));
    }
    // Every kernel once per pass, the passes seconds apart, so a kernel
    // is not at the mercy of the speed the host ran at for 25 ms.
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for _ in 0..PASSES {
        for (name, bench) in &mut benches {
            samples.entry(name).or_default().push(bench());
        }
    }
    drop(benches);
    cluster.shutdown().expect("kernel cluster shutdown");

    let ns = |name: &str| samples.get(name).map_or(0.0, |s| median(s));
    let (probes, pages, coalesced) = *batch_probes.borrow();
    let flash_end = flash.borrow().stats();
    Kernels {
        sha1_ns_per_kib: ns("sha1_ns_per_kib"),
        chunk_ns_per_kib: ns("chunk_ns_per_kib"),
        mean_chunk_bytes: data.len() as f64 / chunks.len().max(1) as f64,
        put_ns_per_kib: ns("put_ns_per_kib"),
        get_many_ns_per_kib: ns("get_many_ns_per_kib"),
        replicas_into_ns: ns("replicas_into_ns"),
        submit_ns_per_fp: ns("submit_ns_per_fp"),
        ticket_wake_ns: ns("ticket_wake_ns"),
        encode_ns_per_fp: ns("encode_ns_per_fp"),
        decode_ns_per_fp: ns("decode_ns_per_fp"),
        bloom_contains_ns: ns("bloom_contains_ns"),
        bloom_insert_ns: ns("bloom_insert_ns"),
        cache_get_hit_ns: ns("cache_get_hit_ns"),
        cache_get_miss_ns: ns("cache_get_miss_ns"),
        cache_insert_evict_ns: ns("cache_insert_evict_ns"),
        flash_get_ns: ns("flash_get_ns"),
        flash_get_batch_ns_per_fp: ns("flash_get_batch_ns_per_fp"),
        flash_put_ns: ns("flash_put_ns"),
        flash_pages_scanned_per_probe: pages as f64 / probes.max(1) as f64,
        flash_coalesced_share: coalesced as f64 / probes.max(1) as f64,
        flash_flushes: (flash_end.flushes - flash_after_load.flushes) as f64,
        flash_compactions: (flash_end.compactions - flash_after_load.compactions) as f64,
        index_single_get_ns: ns("index_single_get_ns"),
        index_striped_get_ns: ns("index_striped_get_ns"),
        index_striped_insert_ns: ns("index_striped_insert_ns"),
        node_lookup_insert_ns_per_fp: ns("node_lookup_insert_ns_per_fp"),
        node_query_many_ns_per_fp: ns("node_query_many_ns_per_fp"),
        channel_hop_ns: ns("channel_hop_ns"),
        record_batch_ns_per_fp: ns("record_batch_ns_per_fp"),
    }
}

/// A waiter blocked in `Ticket::wait` while another thread answers: the
/// answer carries the instant it was given, so the waiter can tell how
/// long the wake-up took.
fn ticket_wake_ns(fp: Fingerprint) -> f64 {
    let one: SharedBatcher<Instant> = SharedBatcher::new(1, Duration::from_secs(60));
    let (tx, rx) = std::sync::mpsc::channel::<ClosedBatch<Instant>>();
    std::thread::scope(|scope| {
        let answerer = scope.spawn(move || {
            for batch in rx {
                // Let the waiter reach the condvar first.
                std::thread::sleep(Duration::from_micros(30));
                batch.complete(vec![Instant::now()]).expect("complete");
            }
        });
        let mut wakes = Vec::new();
        let started = Instant::now();
        while started.elapsed() < PASS_BUDGET {
            let s = one.submit(fp);
            tx.send(s.closed.expect("size-one batch closes"))
                .expect("answerer alive");
            let answered = s.ticket.wait().expect("answered");
            wakes.push(answered.elapsed().as_nanos() as f64);
        }
        drop(tx);
        answerer.join().expect("answerer thread");
        median(&wakes)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_per_item_takes_the_median_round() {
        let mut n = 0;
        let ns = time_per_item(|| {
            n += 1;
            std::thread::sleep(Duration::from_millis(if n == 2 { 30 } else { 1 }));
            10
        });
        assert!(n >= 3);
        assert!(ns > 50_000.0 && ns < 1_500_000.0, "{ns}");
    }
}
