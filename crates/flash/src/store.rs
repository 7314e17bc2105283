//! The persistent on-SSD fingerprint table (Berkeley-DB substitute).

use shhc_types::{Error, Fingerprint, FpHashMap, Nanos, Result, FINGERPRINT_LEN};

use crate::wal::{DurableLog, JournalOp, SegmentOp};
use crate::{
    DeviceStats, Durability, FlashDevice, FlashGeometry, FlashLatency, Ftl, FtlStats, RecoveryStats,
};

/// On-flash record: fingerprint, value, liveness flag, padding to 32 B.
const RECORD_LEN: usize = 32;
const PAGE_HEADER_LEN: usize = 4;
const FLAG_LIVE: u8 = 1;
const FLAG_TOMBSTONE: u8 = 2;

/// Configuration of a [`FlashStore`].
///
/// # Examples
///
/// ```
/// use shhc_flash::FlashConfig;
///
/// let cfg = FlashConfig::default_node();
/// assert!(cfg.buckets.is_power_of_two());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FlashConfig {
    /// Device geometry.
    pub geometry: FlashGeometry,
    /// Device latency model.
    pub latency: FlashLatency,
    /// Fraction of the device reserved for FTL garbage collection.
    pub overprovision: f64,
    /// Number of hash buckets (must be a power of two).
    pub buckets: usize,
    /// RAM write-buffer capacity in records. When full, the buckets with
    /// the most pending records are flushed first (dedupv1-style delayed
    /// writes), so flash programs carry near-page-sized batches.
    pub write_buffer: usize,
}

impl FlashConfig {
    /// A realistic per-node configuration: 4 KiB pages, 64-page blocks,
    /// 2048 blocks (512 MiB device), 16 Ki buckets, 64 Ki-record (2 MiB)
    /// write buffer.
    pub fn default_node() -> Self {
        FlashConfig {
            geometry: FlashGeometry::new(4096, 64, 2048),
            latency: FlashLatency::default(),
            overprovision: 0.125,
            buckets: 16_384,
            write_buffer: 65_536,
        }
    }

    /// A tiny configuration for unit tests: 512 B pages, 8-page blocks,
    /// 64 blocks, 64 buckets, 32-record buffer.
    pub fn small_test() -> Self {
        FlashConfig {
            geometry: FlashGeometry::new(512, 8, 64),
            latency: FlashLatency::zero(),
            overprovision: 0.25,
            buckets: 64,
            write_buffer: 32,
        }
    }

    /// Same as [`FlashConfig::small_test`] but with the default (non-zero)
    /// latency model, for cost-accounting tests.
    pub fn small_test_with_latency() -> Self {
        FlashConfig {
            latency: FlashLatency::default(),
            ..Self::small_test()
        }
    }

    /// A mid-size test configuration holding ≈100 k records (4 MiB
    /// device, zero latency) — for cluster-level tests that stream tens
    /// of thousands of fingerprints.
    pub fn medium_test() -> Self {
        FlashConfig {
            geometry: FlashGeometry::new(4096, 16, 64),
            latency: FlashLatency::zero(),
            overprovision: 0.25,
            buckets: 256,
            write_buffer: 2048,
        }
    }
}

/// Store-level counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// `get` calls answered from the RAM write buffer.
    pub(crate) buffer_hits: u64,
    /// `get` calls the write buffer could not answer, sent to the
    /// bucket's signature directory (and to flash on a tag match).
    pub flash_probes: u64,
    /// Total flash pages read by `get` calls.
    pub pages_scanned: u64,
    /// Times a probe of a [`FlashStore::get_batch`] was verified against
    /// a page another probe of the same batch had already paid for —
    /// each one a device read the batch did *not* pay compared to
    /// issuing the lookups individually.
    pub coalesced_probes: u64,
    /// Records currently believed live (puts − deletes).
    pub(crate) live_records: u64,
    /// Bucket flushes performed.
    pub flushes: u64,
    /// Chain compactions performed.
    pub compactions: u64,
}

#[derive(Debug, Clone, Default)]
struct Bucket {
    /// Logical pages holding this bucket's records, oldest first.
    pages: Vec<u64>,
    /// Number of records in the newest page.
    tail_count: usize,
    /// Signature directory: one tag per on-flash record, in chain order,
    /// so position `p` is slot `p % records_per_page` of page
    /// `p / records_per_page` (every page but the tail is full). RAM
    /// only — recovery rebuilds it from the replayed page images.
    tags: Vec<u16>,
    /// Fingerprints buffered for this bucket, in arrival order.
    pending: Vec<Fingerprint>,
    /// Records appended to the chain since the last compaction
    /// (over-counts distinct records when fingerprints are overwritten,
    /// which only delays compaction — the safe direction).
    appended: u64,
}

impl Bucket {
    /// Forgets the on-flash chain (its pages are the caller's to free).
    /// The directory's allocation goes with it, so a chain that shrank
    /// does not keep paying RAM for the records it dropped.
    fn clear_chain(&mut self) {
        self.pages.clear();
        self.tail_count = 0;
        self.appended = 0;
        self.tags = Vec::new();
    }
}

/// A persistent fingerprint → `u64` table stored on simulated flash.
///
/// This plays the role of the paper's "hash table … stored on the SSD as a
/// Berkeley DB": a bucketed, page-chained table fronted by a RAM write
/// buffer. Writes are *delayed* (the dedupv1 trick): records accumulate
/// per bucket and are flushed fullest-bucket-first, so each flash program
/// carries a large batch. Bucket chains are compacted when underfull
/// appends make them longer than their record population needs.
///
/// Each bucket keeps a RAM **signature directory** — a 2-byte tag per
/// on-flash record, as ChunkStash keeps per key — so a lookup reads only
/// a page that holds a record with the fingerprint's tag and compares
/// only that record: one page read for a key the table holds, none for
/// one it does not (bar a 2⁻¹⁶-per-record tag collision), however long
/// the chain — the Berkeley-DB-on-SSD characteristic the paper relies
/// on, at 2 B of RAM a record ([`FlashStore::directory_bytes`]).
///
/// The directory is also the node's only absence test: where Figure 3 of
/// the paper puts a bloom filter in front of the table, the node asks
/// the store directly.
///
/// Opened with [`FlashStore::open`] and a [`Durability::Wal`] mode, the
/// store additionally maintains a write-ahead journal and a segment log
/// under a data directory (see the [`wal`](crate::wal) module docs), and
/// replays them on reopen — the crash-recovery path `restart_node`'s warm
/// variant builds on.
#[derive(Debug)]
pub struct FlashStore {
    ftl: Ftl,
    config: FlashConfig,
    buckets: Vec<Bucket>,
    /// Pending writes: `Some(v)` = put, `None` = tombstone. Keyed with
    /// the fingerprint-aware hasher — this map sits on every lookup and
    /// insert.
    write_buffer: FpHashMap<Fingerprint, Option<u64>>,
    next_lpa: u64,
    /// Logical pages freed by compaction, available for reuse.
    free_lpas: Vec<u64>,
    records_per_page: usize,
    stats: StoreStats,
    /// Write-ahead log pair when the store is durable.
    wal: Option<DurableLog>,
    /// True while recovery replays the journal: mutations must not be
    /// re-journaled (they are already in the file being replayed).
    replaying: bool,
}

impl Clone for FlashStore {
    /// Clones the in-memory state only: the clone is **volatile**, sharing
    /// no file handles with (and never writing to) the original's data
    /// directory. Durable stores are process-unique by design; cloning is
    /// for read-side experimentation on snapshots.
    fn clone(&self) -> Self {
        FlashStore {
            ftl: self.ftl.clone(),
            config: self.config,
            buckets: self.buckets.clone(),
            write_buffer: self.write_buffer.clone(),
            next_lpa: self.next_lpa,
            free_lpas: self.free_lpas.clone(),
            records_per_page: self.records_per_page,
            stats: self.stats,
            wal: None,
            replaying: false,
        }
    }
}

impl FlashStore {
    /// Creates an empty store on a fresh simulated device.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidArgument`] if `buckets` is not a power of two, the
    /// write buffer is zero-sized, pages are too small to hold a record,
    /// or the overprovisioning is infeasible for the geometry.
    pub fn new(config: FlashConfig) -> Result<Self> {
        if !config.buckets.is_power_of_two() || config.buckets == 0 {
            return Err(Error::invalid("bucket count must be a power of two"));
        }
        if config.write_buffer == 0 {
            return Err(Error::invalid("write buffer must hold at least 1 record"));
        }
        if config.geometry.page_size < PAGE_HEADER_LEN + RECORD_LEN {
            return Err(Error::invalid(format!(
                "page size {} too small for a {}-byte record",
                config.geometry.page_size,
                RECORD_LEN + PAGE_HEADER_LEN
            )));
        }
        let device = FlashDevice::new(config.geometry, config.latency);
        let ftl = Ftl::new(device, config.overprovision)?;
        let records_per_page = (config.geometry.page_size - PAGE_HEADER_LEN) / RECORD_LEN;
        Ok(FlashStore {
            ftl,
            buckets: vec![Bucket::default(); config.buckets],
            write_buffer: FpHashMap::default(),
            next_lpa: 0,
            free_lpas: Vec::new(),
            records_per_page,
            stats: StoreStats::default(),
            config,
            wal: None,
            replaying: false,
        })
    }

    /// Opens a store under the given [`Durability`] mode.
    ///
    /// `Volatile` is identical to [`FlashStore::new`]. `Wal` opens (or
    /// creates) the journal + segment logs under the configured data
    /// directory and **recovers**: segment records rebuild the bucket
    /// directory and page chains on a fresh simulated device, journal
    /// records re-apply every mutation since the last checkpoint, torn
    /// tails from a dirty shutdown are truncated (never replayed), the
    /// live-record count is recomputed from the recovered state, and a
    /// full flush + checkpoint leaves the store clean. The replay is
    /// charged to the simulated device clock like any other I/O.
    ///
    /// # Errors
    ///
    /// Configuration errors as in [`FlashStore::new`]; [`Error::Io`] on
    /// file-system failures; [`Error::InvalidArgument`] when the data
    /// directory was written under a different geometry;
    /// [`Error::Corruption`] for undecodable (non-torn) log records.
    pub fn open(config: FlashConfig, durability: &Durability) -> Result<(Self, RecoveryStats)> {
        let mut store = Self::new(config)?;
        let wal_cfg = match durability {
            Durability::Volatile => return Ok((store, RecoveryStats::default())),
            Durability::Wal(cfg) => cfg,
        };
        let (log, replay) = DurableLog::open(wal_cfg, &config)?;
        let busy_before = store.ftl.busy();

        let mut recovery = RecoveryStats {
            journal_records: replay.journal.len() as u64,
            torn_records: replay.torn_records,
            torn_bytes: replay.torn_bytes,
            replay_busy: replay.busy,
            ..RecoveryStats::default()
        };

        // Segment records first: they rebuild the on-flash state as of the
        // crash. The log is attached before the journal replay so pressure
        // flushes triggered by re-buffered records land in the segment log.
        store.wal = Some(log);
        store.replaying = true;
        for op in replay.segments {
            match op {
                SegmentOp::Page { bucket, lpa, data } => {
                    recovery.segment_pages += 1;
                    store.replay_page(bucket as usize, lpa, &data)?;
                }
                SegmentOp::Compact {
                    bucket,
                    freed,
                    pages,
                } => {
                    recovery.compactions += 1;
                    recovery.segment_pages += pages.len() as u64;
                    store.replay_compact(bucket as usize, &freed, &pages)?;
                }
            }
        }
        // A page freed by one replayed compaction may have been reused by
        // a later record (and freed again): keep each page once, and only
        // if the replay left it unmapped.
        store.free_lpas.sort_unstable();
        store.free_lpas.dedup();
        let ftl = &store.ftl;
        store.free_lpas.retain(|&lpa| !ftl.is_mapped(lpa));
        // Journal records re-apply every mutation since the last
        // checkpoint. The journal always holds the newest value per
        // fingerprint over that window, so replaying it in full into the
        // write buffer is correct even for records already flushed.
        for op in replay.journal {
            match op {
                JournalOp::Set(fp, v) => store.buffer_write(fp, Some(v), false)?,
                JournalOp::Del(fp) => store.buffer_write(fp, None, false)?,
            }
        }
        store.replaying = false;

        // Liveness is recomputed from the recovered state (replay cannot
        // distinguish put from update), then everything is flushed and
        // checkpointed so the next recovery starts from segments alone.
        let entries = store.scan()?.len() as u64;
        store.stats.live_records = entries;
        store.flush()?;

        recovery.entries = entries;
        recovery.replay_busy += store.ftl.busy() - busy_before;
        if let Some(w) = store.wal.as_ref() {
            recovery.replay_busy += w.stats().busy;
        }
        Ok((store, recovery))
    }

    /// Replays one logged page image: programs it at `lpa` and splices
    /// the page into its bucket chain (a repeated `lpa` is a tail
    /// rewrite and replaces in place).
    fn replay_page(&mut self, bucket_idx: usize, lpa: u64, data: &[u8]) -> Result<()> {
        if bucket_idx >= self.buckets.len() {
            return Err(Error::Corruption(format!(
                "segment log names bucket {bucket_idx} of {}",
                self.buckets.len()
            )));
        }
        if lpa >= self.ftl.logical_pages() {
            return Err(Error::Corruption(format!(
                "segment log names logical page {lpa} of {}",
                self.ftl.logical_pages()
            )));
        }
        let records = iter_records(data)?;
        let count = records.len();
        let rpp = self.records_per_page;
        let b = &mut self.buckets[bucket_idx];
        let rewrite = b.pages.last() == Some(&lpa);
        if !rewrite && !b.pages.is_empty() && b.tail_count != rpp {
            // The directory maps position to (page, slot) with a fixed
            // stride, so only a full tail may gain a successor.
            return Err(Error::Corruption(format!(
                "segment log appends page {lpa} to bucket {bucket_idx} behind a tail of {} of {rpp} records",
                b.tail_count
            )));
        }
        self.ftl.write(lpa, data)?;
        self.next_lpa = self.next_lpa.max(lpa + 1);
        if rewrite {
            // Tail rewrite: the record population replaces the old.
            b.appended += (count - b.tail_count) as u64;
            b.tags.truncate((b.pages.len() - 1) * rpp);
        } else {
            b.pages.push(lpa);
            b.appended += count as u64;
        }
        b.tail_count = count;
        b.tags.extend(records.iter().map(|(fp, _)| tag_of(*fp)));
        Ok(())
    }

    /// Replays one atomic compaction record: frees the old chain, then
    /// installs the replacement pages.
    fn replay_compact(
        &mut self,
        bucket_idx: usize,
        freed: &[u64],
        pages: &[(u64, Vec<u8>)],
    ) -> Result<()> {
        if bucket_idx >= self.buckets.len() {
            return Err(Error::Corruption(format!(
                "segment log names bucket {bucket_idx} of {}",
                self.buckets.len()
            )));
        }
        for &lpa in freed {
            if self.ftl.is_mapped(lpa) {
                self.ftl.trim(lpa)?;
            }
            self.free_lpas.push(lpa);
        }
        self.buckets[bucket_idx].clear_chain();
        for (lpa, data) in pages {
            self.replay_page(bucket_idx, *lpa, data)?;
        }
        // As in `maybe_compact`: growth is measured from here onward, so
        // the recovered chain compacts next exactly when the live one did.
        self.buckets[bucket_idx].appended = 0;
        Ok(())
    }

    /// The store's configuration.
    pub fn config(&self) -> &FlashConfig {
        &self.config
    }

    /// Store counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// FTL counters (GC activity, write amplification).
    pub fn ftl_stats(&self) -> FtlStats {
        self.ftl.stats()
    }

    /// Device counters (raw op counts and busy time).
    pub fn device_stats(&self) -> DeviceStats {
        self.ftl.device_stats()
    }

    /// Accumulated virtual device busy time, including write-ahead log
    /// traffic for durable stores (the logs live on the same flash).
    /// Callers measure per-op cost by differencing this around calls.
    pub fn busy(&self) -> Nanos {
        self.ftl.busy() + self.wal.as_ref().map_or(Nanos::ZERO, |w| w.stats().busy)
    }

    /// True when the store persists through a write-ahead log.
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// Group-commits the write-ahead log: every journaled mutation staged
    /// since the last commit reaches the file, journal before segments.
    /// The server calls this once per data frame, so an acknowledged
    /// frame is always recoverable. No-op for volatile stores.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on file-system failures.
    pub fn wal_commit(&mut self) -> Result<()> {
        match self.wal.as_mut() {
            Some(w) => w.commit(),
            None => Ok(()),
        }
    }

    /// Clean shutdown: commits the log and disarms crash fault injection.
    /// Dropping a durable store *without* closing models a crash (staged
    /// records are lost and the configured
    /// [`FaultPlan`](crate::FaultPlan) dirties the log tails).
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on file-system failures.
    pub fn close(&mut self) -> Result<()> {
        match self.wal.as_mut() {
            Some(w) => w.close(),
            None => Ok(()),
        }
    }

    /// Number of records currently buffered in RAM.
    pub fn buffered(&self) -> usize {
        self.write_buffer.len()
    }

    /// Records believed live (puts minus deletes since creation).
    pub fn len(&self) -> u64 {
        self.stats.live_records
    }

    /// True if no record was ever stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn bucket_of(&self, fp: Fingerprint) -> usize {
        (fp.bucket_key() & (self.config.buckets as u64 - 1)) as usize
    }

    /// Looks up a fingerprint.
    ///
    /// Checks the RAM write buffer first, then the bucket's signature
    /// directory newest-first: a flash page is read only when it holds a
    /// record with the fingerprint's tag, and only that record is
    /// compared. The most recent write for a fingerprint always wins; a
    /// fingerprint whose tag the bucket does not hold costs no read.
    ///
    /// # Errors
    ///
    /// Propagates device/FTL errors (corruption of the page chain).
    pub fn get(&mut self, fp: Fingerprint) -> Result<Option<u64>> {
        if let Some(pending) = self.write_buffer.get(&fp) {
            self.stats.buffer_hits += 1;
            return Ok(*pending);
        }
        self.stats.flash_probes += 1;
        let mut out = [None];
        self.probe_bucket(&[fp], &mut [(self.bucket_of(fp), 0)], &[], &mut out)?;
        Ok(out[0])
    }

    /// Batched [`FlashStore::get`] with **coalesced flash reads**. Answers
    /// are position-parallel to `fps` and identical to issuing the `get`s
    /// one at a time (the RAM write buffer is checked first and the newest
    /// on-flash record wins, tombstones included); a page that several
    /// probes need is read, and charged, once.
    ///
    /// See [`FlashStore::get_batch_with_repeats`] for how the probes are
    /// resolved.
    ///
    /// # Errors
    ///
    /// Propagates device/FTL errors (corruption of the page chain).
    pub fn get_batch(&mut self, fps: &[Fingerprint]) -> Result<Vec<Option<u64>>> {
        self.get_batch_with_repeats(fps, |_, _| {})
    }

    /// [`FlashStore::get_batch`] that also calls `repeat(i, first)` for
    /// every position `i` whose fingerprint already occurred in `fps`,
    /// first at position `first` — the in-batch repeats a caller that
    /// inserts what is absent must answer once, found where the batch
    /// groups its probes anyway rather than with a per-batch hash set.
    ///
    /// The probes are resolved in stages, each one short loop over the
    /// whole batch, so the cache misses within a stage do not wait on
    /// one another:
    ///
    /// 0. sort the probes by (bucket, tag, position), which groups a
    ///    bucket's probes and puts each repeat right behind its first
    ///    occurrence;
    /// 1. answer what the write buffer holds, locate each other probe's
    ///    bucket, and touch its directory tail (the newest tag, compared
    ///    on the spot) and its page list (the newest page);
    /// 2. scan the rest of the directory newest-first to the first tag
    ///    match, in fixed blocks of 16 compares with no exit inside a
    ///    block;
    /// 3. list each bucket's distinct candidate pages and borrow them all
    ///    through one batched device read, which checks, counts and
    ///    charges each page as a single read does;
    /// 4. verify each probe's candidate record.
    ///
    /// A probe whose candidate is not its fingerprint (a tag collision;
    /// its record, if any, is older) goes to the per-bucket chain walk
    /// that also serves [`FlashStore::get`], which re-uses the pages
    /// stage 3 already paid for.
    ///
    /// # Errors
    ///
    /// Propagates device/FTL errors (corruption of the page chain).
    pub fn get_batch_with_repeats(
        &mut self,
        fps: &[Fingerprint],
        mut repeat: impl FnMut(usize, usize),
    ) -> Result<Vec<Option<u64>>> {
        let mut out = vec![None; fps.len()];
        let scanned_before = self.stats.pages_scanned;
        let rpp = self.records_per_page;

        // Stage 0: bucket, tag and position packed into one sort key.
        assert!(fps.len() <= u32::MAX as usize, "batch too large");
        let mut keys: Vec<u128> = fps
            .iter()
            .enumerate()
            .map(|(i, fp)| {
                (self.bucket_of(*fp) as u128) << 48 | u128::from(tag_of(*fp)) << 32 | i as u128
            })
            .collect();
        keys.sort_unstable();
        let mut run = 0;
        for k in 1..keys.len() {
            if keys[k] >> 32 != keys[k - 1] >> 32 {
                run = k;
                continue;
            }
            // Same bucket and tag: a repeat, or (rarely) a tag collision.
            let i = keys[k] as u32 as usize;
            if let Some(&first) = keys[run..k]
                .iter()
                .find(|&&other| fps[other as u32 as usize] == fps[i])
            {
                repeat(i, first as u32 as usize);
            }
        }

        // Stage 1: write buffer, bucket, directory tail and page list.
        let mut probes: Vec<Probe> = Vec::with_capacity(keys.len());
        for key in keys {
            let index = key as u32 as usize;
            if let Some(pending) = self.write_buffer.get(&fps[index]) {
                self.stats.buffer_hits += 1;
                out[index] = *pending;
                continue;
            }
            self.stats.flash_probes += 1;
            let (bucket, tag) = ((key >> 48) as usize, (key >> 32) as u16);
            let b = &self.buckets[bucket];
            // An empty directory holds no candidate: `None` stands.
            let Some(&newest) = b.tags.last() else {
                continue;
            };
            probes.push(Probe {
                index,
                bucket,
                tag,
                cand: if newest == tag {
                    b.tags.len() - 1
                } else {
                    NO_CANDIDATE
                },
                newest_lpa: *b.pages.last().expect("a directory with tags has pages"),
                page: 0,
            });
        }

        // Stage 2: the rest of the directory, newest-first.
        for p in probes.iter_mut().filter(|p| p.cand == NO_CANDIDATE) {
            let tags = &self.buckets[p.bucket].tags;
            p.cand = newest_match(&tags[..tags.len() - 1], p.tag).unwrap_or(NO_CANDIDATE);
        }
        probes.retain(|p| p.cand != NO_CANDIDATE);

        // Stage 3: each bucket's distinct candidate pages, read at once.
        let mut lpas: Vec<u64> = Vec::with_capacity(probes.len());
        for group in probes.chunk_by_mut(|a, b| a.bucket == b.bucket) {
            let first = lpas.len();
            let chain = &self.buckets[group[0].bucket].pages;
            for p in group {
                let at = p.cand / rpp;
                let lpa = if at + 1 == chain.len() {
                    p.newest_lpa
                } else {
                    chain[at]
                };
                p.page = match lpas[first..].iter().position(|&l| l == lpa) {
                    Some(k) => first + k,
                    None => {
                        lpas.push(lpa);
                        lpas.len() - 1
                    }
                };
            }
        }
        let pages = self.ftl.read_pages(&lpas)?;
        self.stats.pages_scanned += lpas.len() as u64;

        // Stage 4: verify. `users` counts (probe, page) uses, so every use
        // past a page's one paid read is a coalesced probe.
        let mut users = 0u64;
        let mut collided: Vec<(usize, usize)> = Vec::new();
        let mut held: Vec<(u64, Vec<u8>)> = Vec::new();
        for group in probes.chunk_by(|a, b| a.bucket == b.bucket) {
            let before = collided.len();
            for p in group {
                let records = page_records(pages[p.page])?;
                match record_at(records, p.cand % rpp, fps[p.index])? {
                    Some(hit) => {
                        out[p.index] = hit.value();
                        users += 1;
                    }
                    None => collided.push((p.bucket, p.index)),
                }
            }
            if collided.len() > before {
                // The walk may need any page this bucket already paid for;
                // a group's pages sit together in `lpas`.
                let lo = group.iter().map(|p| p.page).min().expect("non-empty group");
                let hi = group.iter().map(|p| p.page).max().expect("non-empty group");
                held.extend((lo..=hi).map(|k| (lpas[k], pages[k].to_vec())));
            }
        }
        for group in collided.chunk_by_mut(|a, b| a.0 == b.0) {
            users += self.probe_bucket(fps, group, &held, &mut out)?;
        }
        self.stats.coalesced_probes += users - (self.stats.pages_scanned - scanned_before);
        Ok(out)
    }

    /// Resolves `group` — (bucket, index into `fps`) for probes that all
    /// hash to one bucket — against that bucket's chain, writing answers
    /// to `out`. Returns how many (probe, page) uses it made: a lone probe
    /// uses each page it reads once.
    ///
    /// Pages are visited newest-first. Within a page each unresolved
    /// probe's tag is matched against the page's stretch of the
    /// directory, newest slot first; the first match by any probe reads
    /// the page — or borrows it from `held`, pages the caller already
    /// paid for — and every candidate slot is verified against the full
    /// fingerprint, so a tag collision falls through to the next-older
    /// candidate. A probe with no candidate left answers `None`.
    fn probe_bucket(
        &mut self,
        fps: &[Fingerprint],
        group: &mut [(usize, usize)],
        held: &[(u64, Vec<u8>)],
        out: &mut [Option<u64>],
    ) -> Result<u64> {
        let b = &self.buckets[group[0].0];
        let mut users = 0u64;
        // The still-unresolved probes stay packed at the group's front,
        // in their original order.
        let mut unresolved = group.len();
        for (page, tags) in b.tags.chunks(self.records_per_page).enumerate().rev() {
            if unresolved == 0 {
                break;
            }
            // The page's record area, fetched at the first tag match.
            let mut records: Option<&[u8]> = None;
            let mut still = 0;
            for k in 0..unresolved {
                let i = group[k].1;
                let tag = tag_of(fps[i]);
                let mut hit = None;
                // The stretch of the page's tags still to search; its
                // newest candidate is verified next.
                let mut older = tags;
                while let Some(slot) = older.iter().rposition(|&t| t == tag) {
                    let records = match records {
                        Some(records) => records,
                        None => {
                            let lpa = b.pages[page];
                            let data = match held.iter().find(|(l, _)| *l == lpa) {
                                Some((_, data)) => data.as_slice(),
                                None => {
                                    self.stats.pages_scanned += 1;
                                    self.ftl.read(lpa)?.0
                                }
                            };
                            let area = page_records(data)?;
                            records = Some(area);
                            area
                        }
                    };
                    // Count the probe once, at its first candidate here.
                    users += u64::from(older.len() == tags.len());
                    hit = record_at(records, slot, fps[i])?;
                    if hit.is_some() {
                        break;
                    }
                    older = &older[..slot];
                }
                match hit {
                    Some(hit) => out[i] = hit.value(),
                    None => {
                        group[still] = group[k];
                        still += 1;
                    }
                }
            }
            unresolved = still;
        }
        Ok(users)
    }

    /// RAM held by the signature directories, in bytes: every bucket's
    /// tag vector at its allocated *capacity*, plus the vector headers.
    /// The node adds this to its cache when it states RAM per
    /// fingerprint.
    pub fn directory_bytes(&self) -> usize {
        self.buckets
            .iter()
            .map(|b| {
                std::mem::size_of::<Vec<u16>>() + b.tags.capacity() * std::mem::size_of::<u16>()
            })
            .sum()
    }

    /// Inserts or overwrites a fingerprint's value.
    ///
    /// The write lands in the RAM buffer; a full buffer flushes the
    /// fullest buckets until half the buffer drains.
    ///
    /// # Errors
    ///
    /// Propagates flush errors ([`Error::OutOfSpace`] when the device
    /// fills).
    pub fn put(&mut self, fp: Fingerprint, value: u64) -> Result<()> {
        self.buffer_write(fp, Some(value), true)
    }

    /// Marks a fingerprint deleted (tombstone).
    ///
    /// # Errors
    ///
    /// Propagates flush errors.
    pub fn delete(&mut self, fp: Fingerprint) -> Result<()> {
        self.buffer_write(fp, None, true)
    }

    /// Overwrites the value of a fingerprint *believed present* without
    /// changing the live-record count.
    ///
    /// Used when a value assigned at insert time (a placeholder) is later
    /// replaced by the real one (e.g. the chunk location chosen by the
    /// storage backend). Updating a fingerprint that was never stored
    /// leaves [`FlashStore::len`] under-counting — callers own that
    /// invariant.
    ///
    /// # Errors
    ///
    /// Propagates flush errors.
    pub fn update(&mut self, fp: Fingerprint, value: u64) -> Result<()> {
        self.buffer_write(fp, Some(value), false)
    }

    fn buffer_write(&mut self, fp: Fingerprint, value: Option<u64>, count: bool) -> Result<()> {
        // Write-ahead: journal the mutation before applying it. Recovery
        // replay skips this — the records come *from* the journal.
        if !self.replaying {
            if let Some(w) = self.wal.as_mut() {
                w.append_journal(&match value {
                    Some(v) => JournalOp::Set(fp, v),
                    None => JournalOp::Del(fp),
                });
            }
        }
        match self.write_buffer.insert(fp, value) {
            None => {
                let bucket = self.bucket_of(fp);
                self.buckets[bucket].pending.push(fp);
                if count {
                    match value {
                        Some(_) => self.stats.live_records += 1,
                        None => self.stats.live_records = self.stats.live_records.saturating_sub(1),
                    }
                }
            }
            Some(old) => {
                // Overwrite within the buffer: adjust live count if
                // liveness changed (updates never count).
                if count {
                    match (old.is_some(), value.is_some()) {
                        (false, true) => self.stats.live_records += 1,
                        (true, false) => {
                            self.stats.live_records = self.stats.live_records.saturating_sub(1)
                        }
                        _ => {}
                    }
                } else if old.is_none() && value.is_some() {
                    // update() reviving a buffered tombstone.
                    self.stats.live_records += 1;
                }
            }
        }
        if self.write_buffer.len() >= self.config.write_buffer {
            self.flush_some()?;
        }
        Ok(())
    }

    /// Flushes the fullest buckets until the buffer is half drained —
    /// keeping flash programs batched even under memory pressure.
    fn flush_some(&mut self) -> Result<()> {
        let target = self.config.write_buffer / 2;
        let mut order: Vec<usize> = (0..self.buckets.len())
            .filter(|&b| !self.buckets[b].pending.is_empty())
            .collect();
        order.sort_by_key(|&b| std::cmp::Reverse(self.buckets[b].pending.len()));
        for b in order {
            if self.write_buffer.len() <= target {
                break;
            }
            self.flush_bucket(b)?;
        }
        Ok(())
    }

    /// Persists the entire RAM write buffer to flash.
    ///
    /// For durable stores a full flush is a **checkpoint**: once every
    /// buffered record has a page in the segment log, the journal is
    /// committed and truncated, bounding the next recovery's replay.
    ///
    /// # Errors
    ///
    /// [`Error::OutOfSpace`] when the device cannot hold the new pages.
    pub fn flush(&mut self) -> Result<()> {
        for b in 0..self.buckets.len() {
            if !self.buckets[b].pending.is_empty() {
                self.flush_bucket(b)?;
            }
        }
        debug_assert!(self.write_buffer.is_empty());
        if let Some(w) = self.wal.as_mut() {
            w.checkpoint()?;
        }
        Ok(())
    }

    fn flush_bucket(&mut self, bucket_idx: usize) -> Result<()> {
        let pending = std::mem::take(&mut self.buckets[bucket_idx].pending);
        if pending.is_empty() {
            return Ok(());
        }
        self.stats.flushes += 1;
        let mut records: Vec<(Fingerprint, Option<u64>)> = Vec::with_capacity(pending.len());
        for fp in pending {
            if let Some(v) = self.write_buffer.remove(&fp) {
                records.push((fp, v));
            }
        }
        self.append_to_bucket(bucket_idx, &records, None)?;
        self.maybe_compact(bucket_idx)
    }

    fn alloc_lpa(&mut self) -> Result<u64> {
        if let Some(lpa) = self.free_lpas.pop() {
            return Ok(lpa);
        }
        if self.next_lpa >= self.ftl.logical_pages() {
            return Err(Error::OutOfSpace {
                what: "flash store (logical address space)".into(),
            });
        }
        let lpa = self.next_lpa;
        self.next_lpa += 1;
        Ok(lpa)
    }

    /// Appends records to a bucket's chain. Each page written is logged to
    /// the segment log — or pushed into `collect` instead when the caller
    /// (compaction) needs to bundle the pages into one atomic record.
    fn append_to_bucket(
        &mut self,
        bucket_idx: usize,
        records: &[(Fingerprint, Option<u64>)],
        mut collect: Option<&mut Vec<(u64, Vec<u8>)>>,
    ) -> Result<()> {
        let rpp = self.records_per_page;
        let mut remaining = records;
        self.buckets[bucket_idx].appended += records.len() as u64;

        // Top up the existing tail page first (read-modify-rewrite).
        let (tail_lpa, tail_count) = {
            let b = &self.buckets[bucket_idx];
            match b.pages.last() {
                Some(&lpa) if b.tail_count < rpp => (Some(lpa), b.tail_count),
                _ => (None, 0),
            }
        };
        if let Some(lpa) = tail_lpa {
            let space = rpp - tail_count;
            let take = space.min(remaining.len());
            let (now, later) = remaining.split_at(take);
            let mut data = self.ftl.read(lpa)?.0.to_vec();
            append_records(&mut data, now);
            self.ftl.write(lpa, &data)?;
            self.log_page(&mut collect, bucket_idx, lpa, &data);
            let b = &mut self.buckets[bucket_idx];
            b.tail_count = tail_count + take;
            b.tags.extend(now.iter().map(|(fp, _)| tag_of(*fp)));
            remaining = later;
        }

        // Fresh pages for the rest.
        while !remaining.is_empty() {
            let take = rpp.min(remaining.len());
            let (now, later) = remaining.split_at(take);
            let mut data = vec![0u8; PAGE_HEADER_LEN];
            append_records(&mut data, now);

            let lpa = self.alloc_lpa()?;
            self.ftl.write(lpa, &data)?;
            self.log_page(&mut collect, bucket_idx, lpa, &data);
            let b = &mut self.buckets[bucket_idx];
            b.pages.push(lpa);
            b.tail_count = take;
            b.tags.extend(now.iter().map(|(fp, _)| tag_of(*fp)));
            remaining = later;
        }
        Ok(())
    }

    fn log_page(
        &mut self,
        collect: &mut Option<&mut Vec<(u64, Vec<u8>)>>,
        bucket_idx: usize,
        lpa: u64,
        data: &[u8],
    ) {
        if let Some(c) = collect.as_mut() {
            c.push((lpa, data.to_vec()));
        } else if let Some(w) = self.wal.as_mut() {
            w.append_segment(&SegmentOp::Page {
                bucket: bucket_idx as u32,
                lpa,
                data: data.to_vec(),
            });
        }
    }

    /// Rewrites a bucket's chain, dropping stale records (overwritten
    /// values and tombstones) and repacking into minimal pages.
    ///
    /// Trigger is amortized, LSM-style: once a chain has grown by about
    /// half since its last compaction, it is rewritten. Dense chains pay
    /// a bounded extra read cost; stale-heavy chains shrink back to their
    /// live population.
    fn maybe_compact(&mut self, bucket_idx: usize) -> Result<()> {
        let rpp = self.records_per_page as u64;
        let (pages, appended) = {
            let b = &self.buckets[bucket_idx];
            (b.pages.len() as u64, b.appended)
        };
        if pages < 3 || appended < (pages / 2 + 1) * rpp {
            return Ok(());
        }
        self.stats.compactions += 1;

        // Read the whole chain, newest-wins per fingerprint, tombstones
        // drop (nothing older than the chain can resurrect them).
        let chain = self.buckets[bucket_idx].pages.clone();
        let mut newest: FpHashMap<Fingerprint, Option<u64>> = FpHashMap::default();
        let mut order: Vec<Fingerprint> = Vec::new();
        for &lpa in &chain {
            let (data, _) = self.ftl.read(lpa)?;
            for (fp, hit) in iter_records(data)? {
                if !newest.contains_key(&fp) {
                    order.push(fp);
                }
                newest.insert(fp, hit.value());
            }
        }
        let live: Vec<(Fingerprint, Option<u64>)> = order
            .into_iter()
            .filter_map(|fp| newest.get(&fp).and_then(|v| v.map(|v| (fp, Some(v)))))
            .collect();

        // Free the old chain.
        for &lpa in &chain {
            self.ftl.trim(lpa)?;
            self.free_lpas.push(lpa);
        }
        self.buckets[bucket_idx].clear_chain();

        // A compaction's inputs may predate the journal's last checkpoint,
        // so it must be atomic in the segment log: freed chain and
        // replacement pages travel in ONE checksummed record. A torn
        // compaction record then leaves the old chain intact on replay.
        let mut new_pages = Vec::new();
        let logging = self.wal.is_some();
        if !live.is_empty() {
            self.append_to_bucket(
                bucket_idx,
                &live,
                if logging { Some(&mut new_pages) } else { None },
            )?;
        }
        if let Some(w) = self.wal.as_mut() {
            w.append_segment(&SegmentOp::Compact {
                bucket: bucket_idx as u32,
                freed: chain,
                pages: new_pages,
            });
        }
        // Growth is measured from this compaction onward.
        self.buckets[bucket_idx].appended = 0;
        Ok(())
    }

    /// Scans the entire store, returning every live record (newest value
    /// per fingerprint, tombstones respected). Used by rebalancing and the
    /// load-balance experiment.
    ///
    /// # Errors
    ///
    /// Propagates device/FTL read errors.
    pub fn scan(&mut self) -> Result<Vec<(Fingerprint, u64)>> {
        let mut newest: FpHashMap<Fingerprint, Option<u64>> = FpHashMap::default();
        // Flash pages oldest-first; later writes overwrite earlier ones.
        let all_pages: Vec<u64> = self
            .buckets
            .iter()
            .flat_map(|b| b.pages.iter().copied())
            .collect();
        for lpa in all_pages {
            let (data, _) = self.ftl.read(lpa)?;
            for (fp, hit) in iter_records(data)? {
                newest.insert(fp, hit.value());
            }
        }
        // RAM buffer is newest of all.
        for (fp, v) in &self.write_buffer {
            newest.insert(*fp, *v);
        }
        let mut out: Vec<(Fingerprint, u64)> = newest
            .into_iter()
            .filter_map(|(fp, v)| v.map(|v| (fp, v)))
            .collect();
        out.sort_by_key(|(fp, _)| *fp);
        Ok(out)
    }

    /// Average number of flash pages per occupied bucket — the expected
    /// read cost of a cold lookup.
    #[cfg(test)]
    pub(crate) fn mean_chain_length(&self) -> f64 {
        let occupied = self.buckets.iter().filter(|b| !b.pages.is_empty()).count();
        if occupied == 0 {
            return 0.0;
        }
        let pages: usize = self.buckets.iter().map(|b| b.pages.len()).sum();
        pages as f64 / occupied as f64
    }
}

/// Directory scan block: [`newest_match`] compares this many tags at a
/// time, with no exit inside a block.
const TAG_BLOCK: usize = 16;

/// [`Probe::cand`] of a probe whose candidate is not known (yet).
const NO_CANDIDATE: usize = usize::MAX;

/// One flash probe's progress through the stages of
/// [`FlashStore::get_batch_with_repeats`].
#[derive(Debug, Clone, Copy)]
struct Probe {
    /// Position in the batch.
    index: usize,
    bucket: usize,
    tag: u16,
    /// Chain position of the newest record with the probe's tag.
    cand: usize,
    /// The bucket's newest page, touched while locating the bucket.
    newest_lpa: u64,
    /// The candidate's page, as an index into the batch's page list.
    page: usize,
}

enum RecordHit {
    Live(u64),
    Tombstone,
}

impl RecordHit {
    /// What a lookup resolving at this record answers.
    fn value(self) -> Option<u64> {
        match self {
            RecordHit::Live(v) => Some(v),
            RecordHit::Tombstone => None,
        }
    }
}

fn append_records(page: &mut Vec<u8>, records: &[(Fingerprint, Option<u64>)]) {
    for (fp, v) in records {
        page.extend_from_slice(fp.as_bytes());
        match v {
            Some(value) => {
                page.extend_from_slice(&value.to_le_bytes());
                page.push(FLAG_LIVE);
            }
            None => {
                page.extend_from_slice(&0u64.to_le_bytes());
                page.push(FLAG_TOMBSTONE);
            }
        }
        page.extend_from_slice(&[0u8; 3]);
    }
    let count = (page.len() - PAGE_HEADER_LEN) / RECORD_LEN;
    page[..PAGE_HEADER_LEN].copy_from_slice(&(count as u32).to_le_bytes());
}

/// The record area of a page — exactly the records its header claims —
/// or `Corruption` when the page is shorter than that.
fn page_records(data: &[u8]) -> Result<&[u8]> {
    if data.len() < PAGE_HEADER_LEN {
        return Err(Error::Corruption("page shorter than header".into()));
    }
    let count = u32::from_le_bytes(data[..PAGE_HEADER_LEN].try_into().expect("4 bytes")) as usize;
    let need = PAGE_HEADER_LEN + count * RECORD_LEN;
    data.get(PAGE_HEADER_LEN..need).ok_or_else(|| {
        Error::Corruption(format!(
            "page holds {} bytes but header claims {count} records ({need} bytes)",
            data.len()
        ))
    })
}

/// Decodes the value and liveness of one `RECORD_LEN`-byte record.
fn record_hit(record: &[u8], index: usize) -> Result<RecordHit> {
    match record[FINGERPRINT_LEN + 8] {
        FLAG_LIVE => Ok(RecordHit::Live(u64::from_le_bytes(
            record[FINGERPRINT_LEN..FINGERPRINT_LEN + 8]
                .try_into()
                .expect("8 bytes"),
        ))),
        FLAG_TOMBSTONE => Ok(RecordHit::Tombstone),
        other => Err(Error::Corruption(format!(
            "record {index} has invalid flag {other}"
        ))),
    }
}

/// A record's entry in its bucket's signature directory: the low half
/// of [`Fingerprint::tag32`], bits that neither ring placement nor
/// bucket selection has already spent.
fn tag_of(fp: Fingerprint) -> u16 {
    fp.tag32() as u16
}

/// The position of the newest tag equal to `tag`. Blocks of
/// [`TAG_BLOCK`] tags, aligned to the newest end, are compared whole —
/// into a mask, with no branch per tag — and the scan stops at the first
/// block that matches; the oldest, partial block comes last.
fn newest_match(tags: &[u16], tag: u16) -> Option<usize> {
    let blocks = tags.rchunks_exact(TAG_BLOCK);
    let oldest = blocks.remainder();
    for (n, block) in blocks.enumerate() {
        let mut mask = 0u32;
        for (k, &t) in block.iter().enumerate() {
            mask |= u32::from(t == tag) << k;
        }
        if let Some(k) = mask.checked_ilog2() {
            return Some(tags.len() - (n + 1) * TAG_BLOCK + k as usize);
        }
    }
    oldest.iter().rposition(|&t| t == tag)
}

/// Verifies one directory candidate: the record at `slot` of a page's
/// record area (see [`page_records`]), decoded and flag-checked if it is
/// `fp`'s, `None` on a tag collision. A slot the page's header does not
/// cover means directory and flash disagree — `Corruption`.
fn record_at(records: &[u8], slot: usize, fp: Fingerprint) -> Result<Option<RecordHit>> {
    let record = records
        .get(slot * RECORD_LEN..(slot + 1) * RECORD_LEN)
        .ok_or_else(|| {
            Error::Corruption(format!(
                "directory names record {slot} of a page whose header claims {}",
                records.len() / RECORD_LEN
            ))
        })?;
    if record[..FINGERPRINT_LEN] != fp.as_bytes()[..] {
        return Ok(None);
    }
    record_hit(record, slot).map(Some)
}

/// Every record of a page, oldest first — for whole-page consumers
/// (compaction, scans, log replay), which validate every flag.
fn iter_records(data: &[u8]) -> Result<Vec<(Fingerprint, RecordHit)>> {
    page_records(data)?
        .chunks_exact(RECORD_LEN)
        .enumerate()
        .map(|(index, record)| {
            let fp_bytes: [u8; FINGERPRINT_LEN] =
                record[..FINGERPRINT_LEN].try_into().expect("20 bytes");
            Ok((
                Fingerprint::from_bytes(fp_bytes),
                record_hit(record, index)?,
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    fn store() -> FlashStore {
        FlashStore::new(FlashConfig::small_test()).expect("valid config")
    }

    #[test]
    fn put_get_before_flush() {
        let mut s = store();
        let fp = Fingerprint::from_u64(1);
        s.put(fp, 99).unwrap();
        assert_eq!(s.get(fp).unwrap(), Some(99));
        assert_eq!(s.stats().buffer_hits, 1);
    }

    #[test]
    fn put_get_after_flush() {
        let mut s = store();
        let fp = Fingerprint::from_u64(2);
        s.put(fp, 7).unwrap();
        s.flush().unwrap();
        assert_eq!(s.buffered(), 0);
        assert_eq!(s.get(fp).unwrap(), Some(7));
        assert_eq!(s.stats().flash_probes, 1);
        assert!(s.stats().pages_scanned >= 1);
    }

    #[test]
    fn missing_fingerprint_is_none() {
        let mut s = store();
        assert_eq!(s.get(Fingerprint::from_u64(123)).unwrap(), None);
    }

    #[test]
    fn overwrite_takes_latest_value() {
        let mut s = store();
        let fp = Fingerprint::from_u64(3);
        s.put(fp, 1).unwrap();
        s.flush().unwrap();
        s.put(fp, 2).unwrap();
        s.flush().unwrap();
        assert_eq!(s.get(fp).unwrap(), Some(2));
    }

    #[test]
    fn delete_shadows_older_record() {
        let mut s = store();
        let fp = Fingerprint::from_u64(4);
        s.put(fp, 10).unwrap();
        s.flush().unwrap();
        s.delete(fp).unwrap();
        assert_eq!(s.get(fp).unwrap(), None);
        s.flush().unwrap();
        assert_eq!(s.get(fp).unwrap(), None, "tombstone must persist");
    }

    #[test]
    fn pressure_flush_drains_half_the_buffer() {
        let mut s = store();
        let cap = s.config().write_buffer;
        for i in 0..cap as u64 {
            s.put(Fingerprint::from_u64(i), i).unwrap();
        }
        assert!(
            s.buffered() <= cap / 2,
            "buffer must drain to half under pressure, has {}",
            s.buffered()
        );
        assert!(s.stats().flushes >= 1);
        for i in 0..cap as u64 {
            assert_eq!(s.get(Fingerprint::from_u64(i)).unwrap(), Some(i));
        }
    }

    #[test]
    fn thousands_of_records_survive() {
        let mut s = store();
        let n = 3000u64;
        for i in 0..n {
            s.put(Fingerprint::from_u64(i), i * 2).unwrap();
        }
        s.flush().unwrap();
        for i in (0..n).step_by(7) {
            assert_eq!(s.get(Fingerprint::from_u64(i)).unwrap(), Some(i * 2));
        }
        assert_eq!(s.len(), n);
        assert!(s.mean_chain_length() >= 1.0);
    }

    #[test]
    fn compaction_bounds_chain_length() {
        // Repeatedly flush tiny batches into one bucket (fingerprints
        // chosen to share bucket 0 would need crafted keys; instead use
        // a 1-bucket... smallest legal bucket count is a power of two ≥1).
        let cfg = FlashConfig {
            geometry: FlashGeometry::new(512, 8, 128),
            latency: FlashLatency::zero(),
            overprovision: 0.25,
            buckets: 1,
            write_buffer: 4,
        };
        let mut s = FlashStore::new(cfg).unwrap();
        for i in 0..600u64 {
            s.put(Fingerprint::from_u64(i), i).unwrap();
        }
        s.flush().unwrap();
        // 600 records at 15/page need 40 pages; without compaction the
        // 2-record flushes would have produced ~300.
        assert!(
            s.mean_chain_length() <= 45.0,
            "chain length {} not compacted",
            s.mean_chain_length()
        );
        assert!(s.stats().compactions > 0);
        for i in (0..600).step_by(13) {
            assert_eq!(s.get(Fingerprint::from_u64(i)).unwrap(), Some(i));
        }
    }

    #[test]
    fn compaction_preserves_tombstones_semantics() {
        let cfg = FlashConfig {
            geometry: FlashGeometry::new(512, 8, 128),
            latency: FlashLatency::zero(),
            overprovision: 0.25,
            buckets: 1,
            write_buffer: 4,
        };
        let mut s = FlashStore::new(cfg).unwrap();
        for i in 0..200u64 {
            s.put(Fingerprint::from_u64(i), i).unwrap();
        }
        for i in (0..200u64).step_by(2) {
            s.delete(Fingerprint::from_u64(i)).unwrap();
        }
        s.flush().unwrap();
        for i in 0..200u64 {
            let expected = if i % 2 == 0 { None } else { Some(i) };
            assert_eq!(s.get(Fingerprint::from_u64(i)).unwrap(), expected, "{i}");
        }
    }

    #[test]
    fn scan_returns_live_records_only() {
        let mut s = store();
        for i in 0..50u64 {
            s.put(Fingerprint::from_u64(i), i).unwrap();
        }
        s.flush().unwrap();
        for i in 0..10u64 {
            s.delete(Fingerprint::from_u64(i)).unwrap();
        }
        let scanned = s.scan().unwrap();
        assert_eq!(scanned.len(), 40);
        assert!(scanned
            .iter()
            .all(|(fp, v)| *fp == Fingerprint::from_u64(*v)));
    }

    #[test]
    fn cold_lookup_costs_flash_reads() {
        let mut s = FlashStore::new(FlashConfig::small_test_with_latency()).unwrap();
        let fp = Fingerprint::from_u64(9);
        s.put(fp, 1).unwrap();
        s.flush().unwrap();
        let before = s.busy();
        let _ = s.get(fp).unwrap();
        let after = s.busy();
        assert!(
            after - before >= Nanos::from_micros(25),
            "cold get must cost at least one page read"
        );
    }

    #[test]
    fn buffer_hit_costs_no_flash_time() {
        let mut s = FlashStore::new(FlashConfig::small_test_with_latency()).unwrap();
        let fp = Fingerprint::from_u64(10);
        s.put(fp, 1).unwrap();
        let before = s.busy();
        let _ = s.get(fp).unwrap();
        assert_eq!(s.busy(), before);
    }

    #[test]
    fn amortized_insert_cost_is_far_below_a_page_program() {
        // The whole point of delayed writes: per-record insert cost must
        // be a small fraction of the 200 µs program latency.
        let cfg = FlashConfig {
            geometry: FlashGeometry::new(4096, 16, 256),
            latency: FlashLatency::default(),
            overprovision: 0.25,
            buckets: 64,
            write_buffer: 8192,
        };
        let mut s = FlashStore::new(cfg).unwrap();
        let n = 40_000u64;
        for i in 0..n {
            s.put(Fingerprint::from_u64(i), i).unwrap();
        }
        let per_record = s.busy().as_nanos() / n;
        assert!(
            per_record < 30_000,
            "amortized insert cost {per_record} ns ≥ 30 µs"
        );
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = FlashConfig::small_test();
        cfg.buckets = 63;
        assert!(FlashStore::new(cfg).is_err());
        let mut cfg = FlashConfig::small_test();
        cfg.write_buffer = 0;
        assert!(FlashStore::new(cfg).is_err());
        let mut cfg = FlashConfig::small_test();
        cfg.geometry = FlashGeometry::new(16, 8, 64);
        assert!(FlashStore::new(cfg).is_err());
    }

    #[test]
    fn fills_to_out_of_space() {
        // Tiny device: keep inserting unique fingerprints until it fails —
        // the failure must be OutOfSpace, not a panic or corruption.
        let cfg = FlashConfig {
            geometry: FlashGeometry::new(128, 4, 16),
            latency: FlashLatency::zero(),
            overprovision: 0.4,
            buckets: 4,
            write_buffer: 8,
        };
        let mut s = FlashStore::new(cfg).unwrap();
        let mut filled = None;
        for i in 0..100_000u64 {
            match s.put(Fingerprint::from_u64(i), i) {
                Ok(()) => {}
                Err(Error::OutOfSpace { .. }) => {
                    filled = Some(i);
                    break;
                }
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        assert!(filled.is_some(), "tiny device must eventually fill");
    }

    #[test]
    fn get_batch_matches_individual_gets() {
        let mut s = store();
        for i in 0..400u64 {
            s.put(Fingerprint::from_u64(i), i * 3).unwrap();
        }
        for i in (0..400u64).step_by(5) {
            s.delete(Fingerprint::from_u64(i)).unwrap();
        }
        s.flush().unwrap();
        for i in 300..360u64 {
            s.put(Fingerprint::from_u64(i), i + 1_000).unwrap(); // buffered overwrites
        }
        let fps: Vec<Fingerprint> = (0..500u64).map(Fingerprint::from_u64).collect();
        let batch = s.get_batch(&fps).unwrap();
        for (fp, got) in fps.iter().zip(&batch) {
            assert_eq!(*got, s.get(*fp).unwrap(), "{fp}");
        }
    }

    #[test]
    fn get_batch_coalesces_same_bucket_reads() {
        // One bucket: every record shares a chain, so a batch reads each
        // of its pages once while individual gets read one page *per
        // fingerprint*.
        let cfg = FlashConfig {
            geometry: FlashGeometry::new(512, 8, 128),
            latency: FlashLatency::zero(),
            overprovision: 0.25,
            buckets: 1,
            write_buffer: 64,
        };
        let fps: Vec<Fingerprint> = (0..48u64).map(Fingerprint::from_u64).collect();
        let mut batch_store = FlashStore::new(cfg).unwrap();
        for (i, fp) in fps.iter().enumerate() {
            batch_store.put(*fp, i as u64).unwrap();
        }
        batch_store.flush().unwrap();
        let reads_before = batch_store.device_stats().reads;
        let answers = batch_store.get_batch(&fps).unwrap();
        assert!(answers
            .iter()
            .enumerate()
            .all(|(i, v)| *v == Some(i as u64)));
        let batch_reads = batch_store.device_stats().reads - reads_before;

        let mut single_store = FlashStore::new(cfg).unwrap();
        for (i, fp) in fps.iter().enumerate() {
            single_store.put(*fp, i as u64).unwrap();
        }
        single_store.flush().unwrap();
        let reads_before = single_store.device_stats().reads;
        for fp in &fps {
            single_store.get(*fp).unwrap();
        }
        let single_reads = single_store.device_stats().reads - reads_before;

        // 48 records at 15 a page: four pages, each paid for by the first
        // probe that needs it.
        assert_eq!((batch_reads, single_reads), (4, 48));
        assert_eq!(
            batch_store.stats().coalesced_probes,
            single_reads - batch_reads,
            "every read the batch did not pay is a coalesced probe"
        );
    }

    #[test]
    fn get_batch_of_absent_fingerprints_shares_the_chain_walk() {
        let mut s = store();
        for i in 0..100u64 {
            s.put(Fingerprint::from_u64(i), i).unwrap();
        }
        s.flush().unwrap();
        let absent: Vec<Fingerprint> = (1_000..1_040u64).map(Fingerprint::from_u64).collect();
        let answers = s.get_batch(&absent).unwrap();
        assert!(answers.iter().all(|v| v.is_none()));
    }

    // --- durability -------------------------------------------------------

    use crate::FaultPlan;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_wal(tag: &str) -> Durability {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir: PathBuf =
            std::env::temp_dir().join(format!("shhc-store-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Durability::wal(dir)
    }

    fn wipe(d: &Durability) {
        d.wipe();
    }

    #[test]
    fn volatile_open_matches_new() {
        let (mut s, rec) =
            FlashStore::open(FlashConfig::small_test(), &Durability::Volatile).unwrap();
        assert_eq!(rec, RecoveryStats::default());
        assert!(!s.is_durable());
        s.put(Fingerprint::from_u64(1), 1).unwrap();
        assert_eq!(s.get(Fingerprint::from_u64(1)).unwrap(), Some(1));
    }

    /// Every mutation pattern survives a clean close + reopen byte-exactly.
    #[test]
    fn clean_restart_recovers_everything() {
        let wal = temp_wal("clean");
        let n = 2000u64;
        {
            let (mut s, rec) = FlashStore::open(FlashConfig::small_test(), &wal).unwrap();
            assert_eq!(rec.entries, 0);
            for i in 0..n {
                s.put(Fingerprint::from_u64(i), i * 3).unwrap();
            }
            for i in (0..n).step_by(5) {
                s.delete(Fingerprint::from_u64(i)).unwrap();
            }
            for i in (1..n).step_by(7) {
                s.update(Fingerprint::from_u64(i), i + 9000).unwrap();
            }
            s.wal_commit().unwrap();
            s.close().unwrap();
        }
        let (mut s, rec) = FlashStore::open(FlashConfig::small_test(), &wal).unwrap();
        assert!(rec.entries > 0);
        assert_eq!(rec.torn_records, 0);
        for i in 0..n {
            // Updates ran last, so they revive deleted keys.
            let expected = if i % 7 == 1 {
                Some(i + 9000)
            } else if i % 5 == 0 {
                None
            } else {
                Some(i * 3)
            };
            assert_eq!(s.get(Fingerprint::from_u64(i)).unwrap(), expected, "{i}");
        }
        assert_eq!(s.len(), rec.entries);
        wipe(&wal);
    }

    /// A crash (drop without close) after a commit loses nothing that was
    /// committed — including records that never reached a flash page.
    #[test]
    fn dirty_crash_after_commit_loses_nothing() {
        let wal = temp_wal("dirty");
        let n = 500u64;
        {
            let (mut s, _) = FlashStore::open(FlashConfig::small_test(), &wal).unwrap();
            for i in 0..n {
                s.put(Fingerprint::from_u64(i), i).unwrap();
            }
            s.wal_commit().unwrap();
            // dropped without close(): crash
        }
        let (mut s, rec) = FlashStore::open(FlashConfig::small_test(), &wal).unwrap();
        assert_eq!(rec.entries, n);
        for i in 0..n {
            assert_eq!(s.get(Fingerprint::from_u64(i)).unwrap(), Some(i), "{i}");
        }
        wipe(&wal);
    }

    /// Staged-but-uncommitted mutations are lost by a crash (the client
    /// was never acknowledged), while every committed one survives.
    #[test]
    fn dirty_crash_loses_only_the_uncommitted_tail() {
        let wal = temp_wal("tail");
        {
            let (mut s, _) = FlashStore::open(FlashConfig::small_test(), &wal).unwrap();
            s.put(Fingerprint::from_u64(1), 10).unwrap();
            s.wal_commit().unwrap();
            s.put(Fingerprint::from_u64(1), 20).unwrap(); // never committed
            s.put(Fingerprint::from_u64(2), 30).unwrap(); // never committed
        }
        let (mut s, rec) = FlashStore::open(FlashConfig::small_test(), &wal).unwrap();
        assert_eq!(s.get(Fingerprint::from_u64(1)).unwrap(), Some(10));
        assert_eq!(s.get(Fingerprint::from_u64(2)).unwrap(), None);
        assert_eq!(rec.entries, 1);
        wipe(&wal);
    }

    /// Torn log tails from a dirty shutdown are detected by checksum,
    /// truncated, and never replayed.
    #[test]
    fn torn_tails_are_truncated_not_replayed() {
        let base = temp_wal("torn");
        let wal = match &base {
            Durability::Wal(cfg) => {
                Durability::Wal(cfg.clone().with_fault(FaultPlan::torn_tails()))
            }
            Durability::Volatile => unreachable!(),
        };
        let n = 300u64;
        {
            let (mut s, _) = FlashStore::open(FlashConfig::small_test(), &wal).unwrap();
            for i in 0..n {
                s.put(Fingerprint::from_u64(i), i).unwrap();
            }
            s.wal_commit().unwrap();
            // crash: the fault plan appends torn fragments to both logs
        }
        let (mut s, rec) = FlashStore::open(FlashConfig::small_test(), &wal).unwrap();
        assert_eq!(rec.torn_records, 2, "both torn tails detected");
        assert!(rec.torn_bytes > 0);
        assert_eq!(rec.entries, n, "torn fragments cost no committed data");
        for i in 0..n {
            assert_eq!(s.get(Fingerprint::from_u64(i)).unwrap(), Some(i));
        }
        wipe(&wal);
    }

    /// Compactions recover exactly: stale versions stay dead, live
    /// records stay live, even across multiple crash/recover cycles.
    #[test]
    fn compacted_store_recovers_exactly() {
        let wal = temp_wal("compact");
        let cfg = FlashConfig {
            geometry: FlashGeometry::new(512, 8, 128),
            latency: FlashLatency::zero(),
            overprovision: 0.25,
            buckets: 1,
            write_buffer: 4,
        };
        {
            let (mut s, _) = FlashStore::open(cfg, &wal).unwrap();
            for round in 0..3u64 {
                for i in 0..200u64 {
                    s.put(Fingerprint::from_u64(i), i + round * 1000).unwrap();
                }
            }
            s.flush().unwrap();
            assert!(s.stats().compactions > 0, "test must exercise compaction");
            s.wal_commit().unwrap();
        }
        let (mut s, rec) = FlashStore::open(cfg, &wal).unwrap();
        assert_eq!(rec.entries, 200);
        assert!(rec.compactions > 0, "compaction records replayed");
        for i in 0..200u64 {
            assert_eq!(s.get(Fingerprint::from_u64(i)).unwrap(), Some(i + 2000));
        }
        wipe(&wal);
    }

    /// The directory is never persisted: replay rebuilds it from the page
    /// images, `Clone` copies it. After a clean restart, after a crash
    /// that replays committed journal records (and drops uncommitted
    /// ones), each time through replayed compactions, a fixed probe set
    /// costs exactly the page reads it costs the store that never went
    /// down.
    #[test]
    fn recovered_and_cloned_directories_cost_the_same_reads() {
        let cfg = FlashConfig {
            geometry: FlashGeometry::new(512, 8, 128),
            latency: FlashLatency::zero(),
            overprovision: 0.25,
            buckets: 4,
            write_buffer: 8,
        };
        // Overwrites and deletes over multi-page chains, then a
        // checkpoint; the tail stays below the buffer's flush threshold.
        fn load(s: &mut FlashStore) {
            for round in 0..2u64 {
                for i in 0..400u64 {
                    s.put(Fingerprint::from_u64(i), i + round * 1_000).unwrap();
                }
                for i in (0..400u64).step_by(9) {
                    s.delete(Fingerprint::from_u64(i)).unwrap();
                }
            }
            s.flush().unwrap();
        }
        fn tail(s: &mut FlashStore) {
            for i in 400..405u64 {
                s.put(Fingerprint::from_u64(i), i).unwrap();
            }
        }
        // Every key stored, deleted or never seen, batched and single.
        // Returns (live answers, pages read, reads coalesced).
        fn probe(s: &mut FlashStore) -> (usize, u64, u64) {
            let before = s.stats();
            let fps: Vec<Fingerprint> = (0..500u64).map(Fingerprint::from_u64).collect();
            let mut live = 0;
            for batch in fps.chunks(50) {
                live += s.get_batch(batch).unwrap().iter().flatten().count();
            }
            for fp in &fps {
                live += s.get(*fp).unwrap().iter().count();
            }
            let after = s.stats();
            (
                live,
                after.pages_scanned - before.pages_scanned,
                after.coalesced_probes - before.coalesced_probes,
            )
        }

        let mut never_down = FlashStore::new(cfg).unwrap();
        load(&mut never_down);
        assert!(never_down.stats().compactions > 0 && never_down.mean_chain_length() > 2.0);
        let want_clean = probe(&mut never_down);
        assert!(want_clean.1 > 0 && want_clean.2 > 0);
        assert_eq!(probe(&mut never_down.clone()), want_clean, "clone");
        tail(&mut never_down);
        never_down.flush().unwrap();
        let want_crashed = probe(&mut never_down);

        let wal = temp_wal("directory");
        {
            let (mut s, _) = FlashStore::open(cfg, &wal).unwrap();
            load(&mut s);
            s.close().unwrap();
        }
        {
            let (mut s, rec) = FlashStore::open(cfg, &wal).unwrap();
            assert!(rec.compactions > 0 && rec.journal_records == 0);
            assert_eq!(probe(&mut s), want_clean, "clean restart");
            tail(&mut s);
            s.wal_commit().unwrap();
            s.put(Fingerprint::from_u64(499), 1).unwrap(); // never committed
                                                           // crash
        }
        let (mut s, rec) = FlashStore::open(cfg, &wal).unwrap();
        assert!(rec.compactions > 0 && rec.journal_records == 5);
        assert_eq!(probe(&mut s), want_crashed, "dirty crash");
        wipe(&wal);
    }

    /// A page may only follow a full one: the directory's fixed stride
    /// depends on it, so a segment log that says otherwise is refused.
    #[test]
    fn replayed_page_behind_a_short_tail_is_detected_as_corruption() {
        let mut s = store();
        let fp = Fingerprint::from_u64(1);
        let bucket = s.bucket_of(fp);
        let mut page = vec![0u8; PAGE_HEADER_LEN];
        append_records(&mut page, &[(fp, Some(1))]);
        s.replay_page(bucket, 0, &page).unwrap();
        s.replay_page(bucket, 0, &page).unwrap(); // tail rewrite
        assert!(matches!(
            s.replay_page(bucket, 1, &page),
            Err(Error::Corruption(_))
        ));
        assert_eq!(
            s.get(fp).unwrap(),
            Some(1),
            "the refused page left no trace"
        );
    }

    /// Recovery replay is charged to the simulated device clock.
    #[test]
    fn recovery_charges_simulated_time() {
        let wal = temp_wal("busy");
        let cfg = FlashConfig::small_test_with_latency();
        {
            let (mut s, _) = FlashStore::open(cfg, &wal).unwrap();
            for i in 0..200u64 {
                s.put(Fingerprint::from_u64(i), i).unwrap();
            }
            s.flush().unwrap();
            s.close().unwrap();
            assert!(s.busy() > s.ftl.busy(), "log writes charge device time");
        }
        let (_s, rec) = FlashStore::open(cfg, &wal).unwrap();
        assert!(rec.replay_busy >= Nanos::from_micros(25));
        wipe(&wal);
    }

    /// Crash → recover → crash → recover: state converges, nothing leaks.
    #[test]
    fn repeated_crash_recover_cycles_converge() {
        let wal = temp_wal("cycles");
        let mut expected: HashMap<u64, u64> = HashMap::new();
        for cycle in 0..4u64 {
            let (mut s, rec) = FlashStore::open(FlashConfig::small_test(), &wal).unwrap();
            assert_eq!(rec.entries as usize, expected.len(), "cycle {cycle}");
            for i in 0..150u64 {
                let key = cycle * 100 + i;
                s.put(Fingerprint::from_u64(key), key * 7).unwrap();
                expected.insert(key, key * 7);
            }
            s.wal_commit().unwrap();
            // crash (drop without close)
        }
        let (mut s, rec) = FlashStore::open(FlashConfig::small_test(), &wal).unwrap();
        assert_eq!(rec.entries as usize, expected.len());
        for (k, v) in &expected {
            assert_eq!(s.get(Fingerprint::from_u64(*k)).unwrap(), Some(*v));
        }
        wipe(&wal);
    }

    /// A short device read surfaces as `Corruption`, never a wrong answer.
    #[test]
    fn short_device_read_is_detected_as_corruption() {
        let mut s = store();
        let fp = Fingerprint::from_u64(77);
        s.put(fp, 1).unwrap();
        s.flush().unwrap();
        s.ftl.device_mut().arm_short_read(2);
        assert!(matches!(s.get(fp), Err(Error::Corruption(_))));
        assert_eq!(s.get(fp).unwrap(), Some(1), "fault was one-shot");
    }

    /// A torn page program surfaces as `Corruption` on read-back.
    #[test]
    fn torn_page_program_is_detected_as_corruption() {
        let mut s = store();
        let fp = Fingerprint::from_u64(88);
        s.put(fp, 1).unwrap();
        s.ftl.device_mut().arm_torn_program(PAGE_HEADER_LEN + 5);
        s.flush().unwrap();
        assert!(matches!(s.get(fp), Err(Error::Corruption(_))));
    }

    /// Rewrites the newest page of `fp`'s bucket through `edit`.
    fn corrupt_tail_page(s: &mut FlashStore, fp: Fingerprint, edit: impl FnOnce(&mut Vec<u8>)) {
        let bucket = s.bucket_of(fp);
        let lpa = *s.buckets[bucket].pages.last().expect("bucket flushed");
        let mut data = s.ftl.read(lpa).unwrap().0.to_vec();
        edit(&mut data);
        s.ftl.write(lpa, &data).unwrap();
    }

    /// A header claiming more records than the page holds is corruption
    /// for the in-place scanner, never an out-of-bounds scan.
    #[test]
    fn header_count_past_the_page_is_detected_as_corruption() {
        let mut s = store();
        let fp = Fingerprint::from_u64(66);
        s.put(fp, 1).unwrap();
        s.flush().unwrap();
        corrupt_tail_page(&mut s, fp, |page| {
            page[..PAGE_HEADER_LEN].copy_from_slice(&1_000u32.to_le_bytes());
        });
        assert!(matches!(s.get(fp), Err(Error::Corruption(_))));
        assert!(matches!(s.get_batch(&[fp]), Err(Error::Corruption(_))));
    }

    /// A read cut short *inside* the record area (header intact) is
    /// caught by the same length check.
    #[test]
    fn read_cut_inside_the_records_is_detected_as_corruption() {
        let mut s = store();
        let fp = Fingerprint::from_u64(67);
        s.put(fp, 1).unwrap();
        s.flush().unwrap();
        s.ftl
            .device_mut()
            .arm_short_read(PAGE_HEADER_LEN + RECORD_LEN - 1);
        assert!(matches!(s.get_batch(&[fp]), Err(Error::Corruption(_))));
        assert_eq!(s.get_batch(&[fp]).unwrap(), vec![Some(1)], "one-shot");
    }

    /// A short read inside a staged batch — several buckets, several
    /// pages, the first page read cut short — fails the whole batch with
    /// `Corruption`, never a wrong answer, and the next batch answers.
    #[test]
    fn short_read_in_a_staged_batch_is_detected_as_corruption() {
        let mut s = store();
        for i in 0..600u64 {
            s.put(Fingerprint::from_u64(i), i + 7).unwrap();
        }
        s.flush().unwrap();
        let batch: Vec<Fingerprint> = (0..600u64).step_by(3).map(Fingerprint::from_u64).collect();
        let buckets: std::collections::HashSet<usize> =
            batch.iter().map(|fp| s.bucket_of(*fp)).collect();
        let want: Vec<Option<u64>> = (0..600u64).step_by(3).map(|i| Some(i + 7)).collect();
        for keep in [2, PAGE_HEADER_LEN, PAGE_HEADER_LEN + RECORD_LEN - 1] {
            let reads = s.device_stats().reads;
            s.ftl.device_mut().arm_short_read(keep);
            assert!(
                matches!(s.get_batch(&batch), Err(Error::Corruption(_))),
                "cut at {keep} bytes"
            );
            assert!(
                s.device_stats().reads - reads >= 2 && buckets.len() >= 2,
                "the batch spans pages and buckets"
            );
            assert_eq!(s.get_batch(&batch).unwrap(), want, "one-shot");
        }
    }

    /// The record a probe resolves at is flag-checked; a bad flag on a
    /// record the probe only passes is left to the whole-page readers
    /// (scan, compaction, replay), which still validate every record.
    #[test]
    fn invalid_flag_on_the_matching_record_is_detected_as_corruption() {
        let mut s = store();
        // Same bucket, one page: `hit` is the newest record.
        let (other, hit) = {
            let mut same = (0..10_000u64)
                .map(Fingerprint::from_u64)
                .filter(|fp| s.bucket_of(*fp) == 0);
            (same.next().unwrap(), same.next().unwrap())
        };
        s.put(other, 1).unwrap();
        s.put(hit, 2).unwrap();
        s.flush().unwrap();
        corrupt_tail_page(&mut s, hit, |page| {
            let flag = page.len() - RECORD_LEN + FINGERPRINT_LEN + 8;
            page[flag] = 9;
        });
        assert!(matches!(s.get(hit), Err(Error::Corruption(_))));
        assert!(matches!(s.get_batch(&[hit]), Err(Error::Corruption(_))));
        assert_eq!(s.get(other).unwrap(), Some(1));
        assert!(matches!(s.scan(), Err(Error::Corruption(_))));
    }

    // --- the record-parsing lookup, kept as the oracle --------------------

    /// Newest record for `fp` in a page, the old way: parse every record
    /// of the page, last match wins.
    fn oracle_scan_page(data: &[u8], fp: Fingerprint) -> Result<Option<RecordHit>> {
        let mut found = None;
        for (rec_fp, hit) in iter_records(data)? {
            if rec_fp == fp {
                found = Some(hit);
            }
        }
        Ok(found)
    }

    /// What a flash probe for `fp` must answer, and the pages — as
    /// (bucket, position in chain) — it must read: walking the chain
    /// newest-first, every page holding a record with `fp`'s tag, down to
    /// the page of the newest record that is `fp`'s. Worked out from the
    /// page images alone, never from the directory under test.
    fn oracle_probe(s: &mut FlashStore, fp: Fingerprint) -> (Option<u64>, Vec<(usize, usize)>) {
        let bucket = s.bucket_of(fp);
        let mut reads = Vec::new();
        for (at, lpa) in s.buckets[bucket]
            .pages
            .clone()
            .into_iter()
            .enumerate()
            .rev()
        {
            let data = s.ftl.read(lpa).unwrap().0.to_vec();
            let records = iter_records(&data).unwrap();
            if records
                .iter()
                .any(|(other, _)| tag_of(*other) == tag_of(fp))
            {
                reads.push((bucket, at));
            }
            if let Some(hit) = oracle_scan_page(&data, fp).unwrap() {
                return (hit.value(), reads);
            }
        }
        (None, reads)
    }

    /// Probes `fps` as one batch and checks the answers and every counter
    /// the probe moves against [`oracle_probe`] run on `images`, a clone
    /// taken before any probing.
    fn check_batch_against_oracle(
        s: &mut FlashStore,
        images: &mut FlashStore,
        fps: &[Fingerprint],
    ) {
        let mut want_stats = s.stats();
        let mut want_device = s.device_stats();
        let want_ftl = s.ftl_stats();
        let mut want = Vec::new();
        let mut reads = Vec::new();
        for fp in fps {
            if let Some(pending) = images.write_buffer.get(fp) {
                want_stats.buffer_hits += 1;
                want.push(*pending);
            } else {
                want_stats.flash_probes += 1;
                let (answer, pages) = oracle_probe(images, *fp);
                want.push(answer);
                reads.extend(pages);
            }
        }
        // Probes that need the same page share one read of it.
        let individually = reads.len() as u64;
        reads.sort_unstable();
        reads.dedup();
        let paid = reads.len() as u64;
        want_stats.pages_scanned += paid;
        want_stats.coalesced_probes += individually - paid;
        want_device.reads += paid;
        want_device.busy += s.config().latency.read * paid;

        let got = if let [fp] = fps {
            vec![s.get(*fp).unwrap()]
        } else {
            s.get_batch(fps).unwrap()
        };
        assert_eq!(got, want);
        assert_eq!(s.stats(), want_stats);
        assert_eq!(s.device_stats(), want_device);
        assert_eq!(s.ftl_stats(), want_ftl);
    }

    /// One bucket, 15 records a page, a buffer that never flushes by
    /// itself: the layout of every page is the test's to choose.
    fn one_bucket_store() -> FlashStore {
        FlashStore::new(FlashConfig {
            geometry: FlashGeometry::new(512, 8, 128),
            latency: FlashLatency::default(),
            overprovision: 0.25,
            buckets: 1,
            write_buffer: 64,
        })
        .unwrap()
    }

    /// A fingerprint with a chosen directory tag; `id` keeps it distinct.
    fn fp_with_tag(id: u8, tag: u16) -> Fingerprint {
        let mut bytes = [id; FINGERPRINT_LEN];
        bytes[18..].copy_from_slice(&tag.to_be_bytes());
        let fp = Fingerprint::from_bytes(bytes);
        assert_eq!(tag_of(fp), tag);
        fp
    }

    /// Flushes one full page: `first`, then fillers whose tags are
    /// `filler_tags` onward.
    fn flush_page_led_by(s: &mut FlashStore, first: Fingerprint, value: u64, filler_tags: u16) {
        s.put(first, value).unwrap();
        for i in 1..s.records_per_page as u16 {
            s.put(fp_with_tag(100 + i as u8, filler_tags + i), 0)
                .unwrap();
        }
        s.flush().unwrap();
    }

    /// Two fingerprints share a tag in one bucket: the older one is still
    /// found, one verified slot (same page) or one page read (older page)
    /// later, and an absent fingerprint with that tag pays for every
    /// collision before it answers `None`.
    #[test]
    fn tag_collision_falls_through_to_the_older_candidate() {
        let (older, newer, absent) = (fp_with_tag(1, 7), fp_with_tag(2, 7), fp_with_tag(3, 7));

        // Same page.
        let mut s = one_bucket_store();
        s.put(older, 10).unwrap();
        s.put(newer, 20).unwrap();
        s.flush().unwrap();
        let mut images = s.clone();
        for fp in [older, newer, absent] {
            check_batch_against_oracle(&mut s, &mut images, &[fp]);
        }
        assert_eq!(
            s.stats().pages_scanned,
            3,
            "one read each, two slots verified"
        );
        check_batch_against_oracle(&mut s, &mut images, &[older, newer, absent]);
        assert_eq!(
            (s.stats().pages_scanned, s.stats().coalesced_probes),
            (4, 2)
        );

        // Older page.
        let mut s = one_bucket_store();
        flush_page_led_by(&mut s, older, 10, 1_000);
        s.put(newer, 20).unwrap();
        s.flush().unwrap();
        assert_eq!(s.buckets[0].pages.len(), 2);
        let mut images = s.clone();
        assert_eq!(s.get(newer).unwrap(), Some(20));
        assert_eq!(s.stats().pages_scanned, 1);
        assert_eq!(s.get(older).unwrap(), Some(10));
        assert_eq!(
            s.stats().pages_scanned,
            3,
            "the collision costs one extra page"
        );
        assert_eq!(s.get(absent).unwrap(), None);
        assert_eq!(s.stats().pages_scanned, 5);
        check_batch_against_oracle(&mut s, &mut images, &[absent, older, newer]);
        assert_eq!(
            (s.stats().pages_scanned, s.stats().coalesced_probes),
            (7, 3)
        );
    }

    /// A fingerprint with a chosen bucket and directory tag; `id` keeps
    /// it distinct.
    fn fp_in(bucket: u64, tag: u16, id: u8) -> Fingerprint {
        let mut bytes = [id; FINGERPRINT_LEN];
        bytes[8..16].copy_from_slice(&bucket.to_be_bytes());
        bytes[18..].copy_from_slice(&tag.to_be_bytes());
        Fingerprint::from_bytes(bytes)
    }

    /// Several buckets, and in one of them fingerprints that share a tag
    /// over two pages: the staged batch's first candidate fails for all
    /// but the newest, and the chain walk finds the older records — on a
    /// page stage 3 already read, or on one it reads itself — at exactly
    /// the reads and coalesced probes the page images call for.
    #[test]
    fn staged_batch_falls_back_to_the_chain_walk_on_a_tag_collision() {
        let mut s = FlashStore::new(FlashConfig {
            buckets: 4,
            write_buffer: 64,
            ..FlashConfig::small_test()
        })
        .unwrap();
        let rpp = s.records_per_page as u8;
        let tag = 7;
        let (oldest, older, newer, absent) = (
            fp_in(2, tag, 1),
            fp_in(2, tag, 2),
            fp_in(2, tag, 3),
            fp_in(2, tag, 4),
        );
        // Page 0 of bucket 2 leads with `oldest`; page 1 holds `older`
        // then `newer`, so `newer` is every tag-7 probe's first candidate.
        s.put(oldest, 10).unwrap();
        for id in 1..rpp {
            s.put(fp_in(2, 1_000 + u16::from(id), 100 + id), 0).unwrap();
        }
        s.flush().unwrap();
        s.put(older, 20).unwrap();
        s.put(newer, 30).unwrap();
        // Other buckets, one page each.
        let others: Vec<Fingerprint> = (0..8u8)
            .map(|id| fp_in(u64::from(id % 2) * 3, 2_000 + u16::from(id), 200 + id))
            .collect();
        for (k, fp) in others.iter().enumerate() {
            s.put(*fp, 40 + k as u64).unwrap();
        }
        s.flush().unwrap();
        assert_eq!(s.buckets[2].pages.len(), 2);

        let mut images = s.clone();
        let batch = [
            others[0], absent, oldest, newer, others[1], older, oldest, others[5], absent,
        ];
        let before = s.stats();
        check_batch_against_oracle(&mut s, &mut images, &batch);
        let after = s.stats();
        // Bucket 2: both pages, each read once; buckets 0 and 3: one each.
        assert_eq!(after.pages_scanned - before.pages_scanned, 4);
        assert_eq!(
            s.get_batch(&batch).unwrap(),
            vec![
                Some(40),
                None,
                Some(10),
                Some(30),
                Some(41),
                Some(20),
                Some(10),
                Some(45),
                None
            ]
        );
        for fp in [oldest, older, newer, absent] {
            check_batch_against_oracle(&mut s, &mut images, &[fp, others[2], fp]);
        }
    }

    /// An overwrite and then a tombstone land in newer pages than the
    /// record they replace: the newest wins at the cost of its own page,
    /// and the stale record below is never read back to life.
    #[test]
    fn newest_record_shadows_an_older_page() {
        let mut s = one_bucket_store();
        let key = fp_with_tag(1, 7);
        flush_page_led_by(&mut s, key, 1, 1_000);
        s.put(key, 2).unwrap();
        s.flush().unwrap();
        assert_eq!(
            s.buckets[0].pages.len(),
            2,
            "the overwrite opens a second page"
        );
        assert_eq!(s.get(key).unwrap(), Some(2));
        assert_eq!(s.stats().pages_scanned, 1);

        s.delete(key).unwrap();
        s.flush().unwrap();
        assert_eq!(s.stats().compactions, 0, "all three records are on flash");
        assert_eq!(s.get(key).unwrap(), None, "no resurrection");
        assert_eq!(s.get_batch(&[key, key]).unwrap(), vec![None, None]);
        assert_eq!(
            (s.stats().pages_scanned, s.stats().coalesced_probes),
            (3, 1)
        );
        let mut images = s.clone();
        check_batch_against_oracle(&mut s, &mut images, &[key]);
    }

    /// The directory names a slot the page's header no longer covers:
    /// `Corruption`, never a wrong answer — and a slot the header does
    /// cover still answers.
    #[test]
    fn directory_slot_past_the_header_count_is_detected_as_corruption() {
        let mut s = one_bucket_store();
        let (first, second) = (fp_with_tag(1, 7), fp_with_tag(2, 8));
        s.put(first, 1).unwrap();
        s.put(second, 2).unwrap();
        s.flush().unwrap();
        corrupt_tail_page(&mut s, second, |page| {
            page[..PAGE_HEADER_LEN].copy_from_slice(&1u32.to_le_bytes());
        });
        assert!(matches!(s.get(second), Err(Error::Corruption(_))));
        assert!(matches!(
            s.get_batch(&[first, second]),
            Err(Error::Corruption(_))
        ));
        assert_eq!(s.get(first).unwrap(), Some(1));
    }

    /// The gate on what the directory is for, as counts (deterministic:
    /// seeded keys, no clock): at the bucket density `lookup_cold` runs
    /// (≈ 1.5 pages a chain) a present key costs one page read bar tag
    /// collisions, an absent key almost never one, and the directory
    /// stays within its RAM budget.
    #[test]
    fn directory_bounds_reads_and_ram_per_record() {
        const RECORDS: u64 = 200_000;
        let mut s = FlashStore::new(FlashConfig {
            geometry: FlashGeometry::new(4096, 64, 64),
            latency: FlashLatency::zero(),
            overprovision: 0.125,
            buckets: 1024,
            write_buffer: 4096,
        })
        .unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let held: Vec<Fingerprint> = (0..RECORDS)
            .map(|_| Fingerprint::from_u64(rng.gen()))
            .collect();
        for (i, fp) in held.iter().enumerate() {
            s.put(*fp, i as u64).unwrap();
        }
        s.flush().unwrap();
        assert!(s.mean_chain_length() > 1.4, "chains must span pages");

        let on_flash: usize = s.buckets.iter().map(|b| b.tags.len()).sum();
        assert!(on_flash as u64 >= RECORDS);
        let per_record = s.directory_bytes() as f64 / on_flash as f64;
        assert!(
            per_record <= 4.0,
            "directory costs {per_record:.2} B a record"
        );

        let probes = 20_000u64;
        for batch in held[..probes as usize].chunks(1000) {
            assert!(s.get_batch(batch).unwrap().iter().all(Option::is_some));
        }
        let present = s.stats().pages_scanned;
        assert!(
            present >= probes - s.stats().coalesced_probes && present * 100 <= probes * 105,
            "{present} page reads for {probes} present keys"
        );
        for _ in 0..probes / 1000 {
            let absent: Vec<Fingerprint> = (0..1000)
                .map(|_| Fingerprint::from_u64(rng.gen()))
                .collect();
            assert!(s.get_batch(&absent).unwrap().iter().all(Option::is_none));
        }
        let absent = s.stats().pages_scanned - present;
        assert!(
            absent * 100 <= probes,
            "{absent} page reads for {probes} absent keys"
        );
    }

    /// Clones of a durable store are volatile and never write to the
    /// original's directory.
    #[test]
    fn clones_are_volatile() {
        let wal = temp_wal("clone");
        let (mut s, _) = FlashStore::open(FlashConfig::small_test(), &wal).unwrap();
        s.put(Fingerprint::from_u64(1), 1).unwrap();
        s.wal_commit().unwrap();
        let mut c = s.clone();
        assert!(!c.is_durable());
        c.put(Fingerprint::from_u64(2), 2).unwrap();
        c.flush().unwrap();
        drop(c);
        s.close().unwrap();
        drop(s);
        let (mut s, rec) = FlashStore::open(FlashConfig::small_test(), &wal).unwrap();
        assert_eq!(rec.entries, 1);
        assert_eq!(s.get(Fingerprint::from_u64(2)).unwrap(), None);
        wipe(&wal);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Random put/delete/update/flush traffic with a crash at a random
        /// point recovers exactly the committed prefix.
        #[test]
        fn prop_crash_recovery_matches_model(seed: u64, ops in 20usize..250) {
            let wal = temp_wal("prop");
            let mut model: HashMap<u64, u64> = HashMap::new();
            {
                let (mut s, _) = FlashStore::open(FlashConfig::small_test(), &wal).unwrap();
                let mut rng = StdRng::seed_from_u64(seed);
                for _ in 0..ops {
                    let key = rng.gen_range(0..80u64);
                    let fp = Fingerprint::from_u64(key);
                    match rng.gen_range(0..10) {
                        0..=5 => {
                            let v = rng.gen::<u64>();
                            s.put(fp, v).unwrap();
                            model.insert(key, v);
                        }
                        6..=7 => {
                            s.delete(fp).unwrap();
                            model.remove(&key);
                        }
                        _ => s.flush().unwrap(),
                    }
                }
                s.wal_commit().unwrap();
                // crash
            }
            let (mut s, rec) = FlashStore::open(FlashConfig::small_test(), &wal).unwrap();
            prop_assert_eq!(rec.entries as usize, model.len());
            for (k, v) in &model {
                prop_assert_eq!(s.get(Fingerprint::from_u64(*k)).unwrap(), Some(*v));
            }
            let scanned = s.scan().unwrap();
            prop_assert_eq!(scanned.len(), model.len());
            wipe(&wal);
        }

        /// The directory read path against the record-parsing oracle,
        /// over chains with overwrites, tombstones and several pages per
        /// bucket, probed with batches that repeat fingerprints and miss:
        /// same answers on every op, and `StoreStats`, `DeviceStats`
        /// (reads and virtual busy time) and `FtlStats` move by exactly
        /// what the page images say a directory-led probe must read.
        #[test]
        fn prop_in_place_reads_match_the_record_parsing_oracle(seed: u64, ops in 200usize..600) {
            let cfg = FlashConfig {
                geometry: FlashGeometry::new(512, 8, 128),
                latency: FlashLatency::default(),
                overprovision: 0.25,
                buckets: 4,
                write_buffer: 24,
            };
            let mut new = FlashStore::new(cfg).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..ops {
                let fp = Fingerprint::from_u64(rng.gen_range(0..240u64));
                match rng.gen_range(0..10) {
                    0..=6 => new.put(fp, rng.gen()).unwrap(),
                    7..=8 => new.delete(fp).unwrap(),
                    _ => new.flush().unwrap(),
                }
            }
            let mut images = new.clone();
            for _ in 0..4 {
                // Keys past 240 were never stored; a narrow range repeats.
                let batch: Vec<Fingerprint> = (0..rng.gen_range(2..48usize))
                    .map(|_| Fingerprint::from_u64(rng.gen_range(0..300u64)))
                    .collect();
                check_batch_against_oracle(&mut new, &mut images, &batch);
                check_batch_against_oracle(&mut new, &mut images, &batch[..1]);
            }
            let stats = new.stats();
            prop_assert!(
                new.mean_chain_length() > 1.0
                    && stats.coalesced_probes > 0
                    && new.device_stats().busy > Nanos::ZERO,
                "the comparison must probe multi-page chains and share reads: {stats:?}"
            );
        }

    }

    proptest! {
        /// Random put/update/delete/flush traffic on a few buckets, then
        /// batches mixing held, absent, deleted, buffered and repeated
        /// keys: the staged batch answers as per-key `get`s on a clone,
        /// reads no more pages than they do, and names every repeat with
        /// its first position.
        #[test]
        fn prop_get_batch_equals_per_key_gets(seed: u64, ops in 50usize..400) {
            let cfg = FlashConfig {
                buckets: 4,
                write_buffer: 16,
                ..FlashConfig::small_test_with_latency()
            };
            let mut s = FlashStore::new(cfg).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..ops {
                let fp = Fingerprint::from_u64(rng.gen_range(0..120u64));
                match rng.gen_range(0..12) {
                    0..=5 => s.put(fp, rng.gen()).unwrap(),
                    6..=7 => s.update(fp, rng.gen()).unwrap(),
                    8..=10 => s.delete(fp).unwrap(),
                    _ => s.flush().unwrap(),
                }
            }
            // Keys past 120 were never stored; a narrow range repeats.
            let batch: Vec<Fingerprint> = (0..rng.gen_range(1..80usize))
                .map(|_| Fingerprint::from_u64(rng.gen_range(0..160u64)))
                .collect();
            let mut singles = s.clone();
            let reads = s.device_stats().reads;
            let mut repeats = Vec::new();
            let got = s
                .get_batch_with_repeats(&batch, |i, first| repeats.push((i, first)))
                .unwrap();
            let batch_reads = s.device_stats().reads - reads;
            let want: Vec<Option<u64>> =
                batch.iter().map(|fp| singles.get(*fp).unwrap()).collect();
            prop_assert_eq!(got, want);
            prop_assert!(batch_reads <= singles.device_stats().reads - reads);
            repeats.sort_unstable();
            let firsts: Vec<(usize, usize)> = (0..batch.len())
                .filter_map(|i| {
                    let first = batch.iter().position(|fp| *fp == batch[i])?;
                    (first < i).then_some((i, first))
                })
                .collect();
            prop_assert_eq!(repeats, firsts);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The store behaves like a HashMap under random put/delete/get
        /// with random flush points.
        #[test]
        fn prop_matches_hashmap(seed: u64, ops in 20usize..300) {
            let mut s = store();
            let mut model: HashMap<u64, u64> = HashMap::new();
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..ops {
                let key = rng.gen_range(0..60u64);
                let fp = Fingerprint::from_u64(key);
                match rng.gen_range(0..10) {
                    0..=5 => {
                        let v = rng.gen::<u64>();
                        s.put(fp, v).unwrap();
                        model.insert(key, v);
                    }
                    6..=7 => {
                        s.delete(fp).unwrap();
                        model.remove(&key);
                    }
                    8 => {
                        s.flush().unwrap();
                    }
                    _ => {
                        prop_assert_eq!(s.get(fp).unwrap(), model.get(&key).copied());
                    }
                }
            }
            s.flush().unwrap();
            for (k, v) in &model {
                prop_assert_eq!(s.get(Fingerprint::from_u64(*k)).unwrap(), Some(*v));
            }
            let scanned = s.scan().unwrap();
            prop_assert_eq!(scanned.len(), model.len());
        }
    }
}
