//! Write-ahead durability: checksummed record logs and crash recovery.
//!
//! A durable [`FlashStore`](crate::FlashStore) keeps two append-only log
//! files under its data directory:
//!
//! ```text
//! journal.wal   one record per mutation (put / update / delete), staged
//!               in RAM and group-committed; truncated at each checkpoint
//! segments.wal  one record per flushed flash page image, plus one atomic
//!               record per chain compaction
//! meta.wal      geometry fingerprint, verified on reopen
//! ```
//!
//! Every record shares one framing:
//!
//! ```text
//! ┌────────────┬────────────┬──────────────────────┐
//! │ len: u32le │ crc: u32le │ payload (len bytes)  │
//! └────────────┴────────────┴──────────────────────┘
//! ```
//!
//! where `crc` is the CRC-32 (IEEE, reflected 0xEDB88320) of the payload.
//! Replay walks a file front to back and stops at the first frame whose
//! length overruns the file or whose checksum fails — a *torn tail* from a
//! dirty shutdown. The tail is truncated and counted, never applied.
//!
//! The write-ahead rule is enforced by [`DurableLog::commit`]: staged
//! journal bytes always reach the file before staged segment bytes, so a
//! page image can never be durable while the mutations that produced it
//! are not. Compactions are logged as one atomic record (freed chain +
//! replacement pages) because their inputs may predate the journal's last
//! checkpoint: a torn compaction record must leave the old chain intact.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::PathBuf;

use shhc_types::{Error, Fingerprint, Nanos, Result, FINGERPRINT_LEN};

use crate::FlashConfig;

const FRAME_HEADER_LEN: usize = 8;
const META_MAGIC: u32 = 0x5348_4843; // "SHHC"
const META_VERSION: u32 = 1;

const JOURNAL_FILE: &str = "journal.wal";
const SEGMENTS_FILE: &str = "segments.wal";
const META_FILE: &str = "meta.wal";

// ---------------------------------------------------------------------------
// CRC-32 (IEEE), table generated at compile time — the flash crate carries
// no external dependencies.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE 802.3) of `data`.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Crash-time fault injection applied when a durable log is dropped
/// without a clean [`close`](crate::FlashStore::close) — the moment a real
/// machine would lose power mid-write.
///
/// All knobs default to off; a dirty shutdown then simply loses whatever
/// was staged but not yet committed (honest WAL semantics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Append a half-written (checksum-failing) record to the journal.
    pub(crate) torn_journal_tail: bool,
    /// Append a half-written record to the segment log.
    pub(crate) torn_segment_tail: bool,
    /// Roll the journal back by its last committed group, modeling a
    /// commit the device acknowledged from volatile cache and then lost.
    pub(crate) drop_last_commit: bool,
}

impl FaultPlan {
    /// A plan tearing the tail of both logs on crash.
    pub fn torn_tails() -> Self {
        FaultPlan {
            torn_journal_tail: true,
            torn_segment_tail: true,
            drop_last_commit: false,
        }
    }
}

/// Where a durable store keeps its logs, and what faults a crash injects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalConfig {
    /// Data directory (created on open). One store per directory.
    pub dir: PathBuf,
    /// Fault injection applied on dirty shutdown.
    pub fault: FaultPlan,
}

impl WalConfig {
    /// Durability rooted at `dir` with no fault injection.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        WalConfig {
            dir: dir.into(),
            fault: FaultPlan::default(),
        }
    }

    /// Replaces the crash fault plan.
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }
}

/// Persistence mode of a [`FlashStore`](crate::FlashStore).
///
/// `Volatile` preserves the historical behavior: state dies with the
/// process. `Wal` adds the journal + segment logs described in the
/// [module docs](crate::wal) and enables crash recovery.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum Durability {
    /// No persistence (the pre-durability behavior).
    #[default]
    Volatile,
    /// Write-ahead journal + segment log under a data directory.
    Wal(WalConfig),
}

impl Durability {
    /// Durable mode rooted at `dir`, no fault injection.
    pub fn wal(dir: impl Into<PathBuf>) -> Self {
        Durability::Wal(WalConfig::new(dir))
    }

    /// True for [`Durability::Wal`].
    #[cfg(test)]
    pub(crate) fn is_durable(&self) -> bool {
        matches!(self, Durability::Wal(_))
    }

    /// Narrows the data directory by one path component — used to give
    /// each node, and each shard within a node, its own log set.
    pub fn scoped(&self, label: impl AsRef<str>) -> Durability {
        match self {
            Durability::Volatile => Durability::Volatile,
            Durability::Wal(cfg) => Durability::Wal(WalConfig {
                dir: cfg.dir.join(label.as_ref()),
                fault: cfg.fault,
            }),
        }
    }

    /// Removes the data directory (best effort) — the cold-restart path:
    /// a node that comes back as an empty standby must not replay old
    /// state.
    pub fn wipe(&self) {
        if let Durability::Wal(cfg) = self {
            let _ = std::fs::remove_dir_all(&cfg.dir);
        }
    }
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// Live counters of a durable log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Journal records staged since open.
    pub journal_records: u64,
    /// Group commits that wrote at least one byte.
    pub commits: u64,
    /// Checkpoints (journal truncations after a full flush).
    pub checkpoints: u64,
    /// Simulated device time charged for log writes (the logs live on
    /// the same flash the store does).
    pub busy: Nanos,
}

/// What a recovery replay found and rebuilt.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Journal mutation records re-applied.
    pub journal_records: u64,
    /// Flash page images replayed from the segment log.
    pub segment_pages: u64,
    /// Atomic compaction records replayed.
    pub compactions: u64,
    /// Torn (checksum-failing or truncated) records dropped from log tails.
    pub torn_records: u64,
    /// Bytes truncated from log tails.
    pub torn_bytes: u64,
    /// Live entries present after the replay.
    pub entries: u64,
    /// Simulated device time charged to the replay (log reads, page
    /// re-programs, and the post-replay checkpoint).
    pub replay_busy: Nanos,
}

impl RecoveryStats {
    /// Element-wise sum (shards of one node recover independently).
    pub fn merge<'a>(parts: impl IntoIterator<Item = &'a RecoveryStats>) -> RecoveryStats {
        let mut out = RecoveryStats::default();
        for p in parts {
            out.journal_records += p.journal_records;
            out.segment_pages += p.segment_pages;
            out.compactions += p.compactions;
            out.torn_records += p.torn_records;
            out.torn_bytes += p.torn_bytes;
            out.entries += p.entries;
            out.replay_busy += p.replay_busy;
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Log records
// ---------------------------------------------------------------------------

/// One journaled mutation. `put` and `update` both log `Set`: replay
/// recounts liveness from the final state, so the distinction is moot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JournalOp {
    Set(Fingerprint, u64),
    Del(Fingerprint),
}

impl JournalOp {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            JournalOp::Set(fp, v) => {
                out.push(1);
                out.extend_from_slice(fp.as_bytes());
                out.extend_from_slice(&v.to_le_bytes());
            }
            JournalOp::Del(fp) => {
                out.push(2);
                out.extend_from_slice(fp.as_bytes());
            }
        }
    }

    fn decode(payload: &[u8]) -> Result<JournalOp> {
        let (&kind, rest) = payload
            .split_first()
            .ok_or_else(|| Error::Corruption("empty journal record".into()))?;
        let fp = |bytes: &[u8]| -> Result<Fingerprint> {
            let arr: [u8; FINGERPRINT_LEN] = bytes
                .get(..FINGERPRINT_LEN)
                .and_then(|b| b.try_into().ok())
                .ok_or_else(|| Error::Corruption("journal record too short".into()))?;
            Ok(Fingerprint::from_bytes(arr))
        };
        match kind {
            1 => {
                if rest.len() != FINGERPRINT_LEN + 8 {
                    return Err(Error::Corruption("bad Set record length".into()));
                }
                let value =
                    u64::from_le_bytes(rest[FINGERPRINT_LEN..].try_into().expect("8 bytes"));
                Ok(JournalOp::Set(fp(rest)?, value))
            }
            2 => {
                if rest.len() != FINGERPRINT_LEN {
                    return Err(Error::Corruption("bad Del record length".into()));
                }
                Ok(JournalOp::Del(fp(rest)?))
            }
            other => Err(Error::Corruption(format!(
                "unknown journal record kind {other}"
            ))),
        }
    }
}

/// One segment-log record: a flushed page image, or an atomic compaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SegmentOp {
    /// A page programmed (or tail-rewritten) at `lpa` for `bucket`.
    Page {
        bucket: u32,
        lpa: u64,
        data: Vec<u8>,
    },
    /// A chain compaction: `freed` trimmed, `pages` written, atomically.
    Compact {
        bucket: u32,
        freed: Vec<u64>,
        pages: Vec<(u64, Vec<u8>)>,
    },
}

impl SegmentOp {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            SegmentOp::Page { bucket, lpa, data } => {
                out.push(1);
                out.extend_from_slice(&bucket.to_le_bytes());
                out.extend_from_slice(&lpa.to_le_bytes());
                out.extend_from_slice(data);
            }
            SegmentOp::Compact {
                bucket,
                freed,
                pages,
            } => {
                out.push(2);
                out.extend_from_slice(&bucket.to_le_bytes());
                out.extend_from_slice(&(freed.len() as u32).to_le_bytes());
                for lpa in freed {
                    out.extend_from_slice(&lpa.to_le_bytes());
                }
                out.extend_from_slice(&(pages.len() as u32).to_le_bytes());
                for (lpa, data) in pages {
                    out.extend_from_slice(&lpa.to_le_bytes());
                    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
                    out.extend_from_slice(data);
                }
            }
        }
    }

    fn decode(payload: &[u8]) -> Result<SegmentOp> {
        let mut r = Reader::new(payload);
        match r.u8()? {
            1 => {
                let bucket = r.u32()?;
                let lpa = r.u64()?;
                Ok(SegmentOp::Page {
                    bucket,
                    lpa,
                    data: r.rest().to_vec(),
                })
            }
            2 => {
                let bucket = r.u32()?;
                let freed_len = r.u32()? as usize;
                let mut freed = Vec::with_capacity(freed_len);
                for _ in 0..freed_len {
                    freed.push(r.u64()?);
                }
                let pages_len = r.u32()? as usize;
                let mut pages = Vec::with_capacity(pages_len);
                for _ in 0..pages_len {
                    let lpa = r.u64()?;
                    let len = r.u32()? as usize;
                    pages.push((lpa, r.bytes(len)?.to_vec()));
                }
                Ok(SegmentOp::Compact {
                    bucket,
                    freed,
                    pages,
                })
            }
            other => Err(Error::Corruption(format!(
                "unknown segment record kind {other}"
            ))),
        }
    }
}

/// Bounds-checked little-endian cursor over a record payload.
struct Reader<'a> {
    data: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Reader { data, at: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or_else(|| Error::Corruption("segment record too short".into()))?;
        let out = &self.data[self.at..end];
        self.at = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().expect("8")))
    }

    fn rest(&mut self) -> &'a [u8] {
        let out = &self.data[self.at..];
        self.at = self.data.len();
        out
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

fn push_frame(buf: &mut Vec<u8>, payload: &[u8]) {
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
}

/// Splits a log file into checksum-verified payloads. Returns the
/// payloads, the byte offset of the first torn frame (= the length the
/// file should be truncated to), and the number of torn frames dropped
/// (0 or 1 — replay stops at the first).
fn parse_frames(bytes: &[u8]) -> (Vec<&[u8]>, usize, u64) {
    let mut out = Vec::new();
    let mut at = 0usize;
    while bytes.len() - at >= FRAME_HEADER_LEN {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4")) as usize;
        let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4"));
        let start = at + FRAME_HEADER_LEN;
        let Some(end) = start.checked_add(len).filter(|&e| e <= bytes.len()) else {
            return (out, at, 1); // length overruns the file: torn
        };
        let payload = &bytes[start..end];
        if crc32(payload) != crc {
            return (out, at, 1); // checksum failure: torn
        }
        out.push(payload);
        at = end;
    }
    let torn = u64::from(at < bytes.len()); // trailing sub-header bytes
    (out, at, torn)
}

/// A deliberately half-written frame, appended by crash fault injection.
/// The header promises 48 payload bytes; only 19 follow.
fn torn_fragment() -> Vec<u8> {
    let payload = [0x5Au8; 48];
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + 19);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload[..19]);
    out
}

// ---------------------------------------------------------------------------
// The durable log pair
// ---------------------------------------------------------------------------

/// Everything a reopened log found on disk, ready to replay.
pub(crate) struct Replay {
    pub(crate) journal: Vec<JournalOp>,
    pub(crate) segments: Vec<SegmentOp>,
    pub(crate) torn_records: u64,
    pub(crate) torn_bytes: u64,
    /// Simulated device read time for scanning both files.
    pub(crate) busy: Nanos,
}

/// The open journal + segment file pair of one durable store.
#[derive(Debug)]
pub(crate) struct DurableLog {
    fault: FaultPlan,
    journal: File,
    segments: File,
    staged_journal: Vec<u8>,
    staged_segments: Vec<u8>,
    /// Committed journal length, and its length before the last commit
    /// (the rollback point for `FaultPlan::drop_last_commit`).
    journal_len: u64,
    prev_journal_len: u64,
    page_size: u64,
    program_cost: Nanos,
    closed: bool,
    stats: WalStats,
}

impl DurableLog {
    /// Opens (creating if absent) the log pair under `cfg.dir`, verifies
    /// the geometry fingerprint, truncates torn tails, and returns the
    /// surviving records for replay.
    pub(crate) fn open(cfg: &WalConfig, flash: &FlashConfig) -> Result<(DurableLog, Replay)> {
        std::fs::create_dir_all(&cfg.dir)?;
        check_meta(cfg, flash)?;

        let open_log = |name: &str| -> Result<(File, Vec<u8>)> {
            let path = cfg.dir.join(name);
            let mut file = OpenOptions::new()
                .read(true)
                .append(true)
                .create(true)
                .open(path)?;
            let mut bytes = Vec::new();
            file.read_to_end(&mut bytes)?;
            Ok((file, bytes))
        };
        let (journal, journal_bytes) = open_log(JOURNAL_FILE)?;
        let (segments, segment_bytes) = open_log(SEGMENTS_FILE)?;

        let (journal_payloads, journal_good, journal_torn) = parse_frames(&journal_bytes);
        let (segment_payloads, segment_good, segment_torn) = parse_frames(&segment_bytes);
        let torn_bytes = (journal_bytes.len() - journal_good) as u64
            + (segment_bytes.len() - segment_good) as u64;
        journal.set_len(journal_good as u64)?;
        segments.set_len(segment_good as u64)?;

        let journal_ops = journal_payloads
            .iter()
            .map(|p| JournalOp::decode(p))
            .collect::<Result<Vec<_>>>()?;
        let segment_ops = segment_payloads
            .iter()
            .map(|p| SegmentOp::decode(p))
            .collect::<Result<Vec<_>>>()?;

        let page_size = flash.geometry.page_size as u64;
        let read_cost = flash.latency.read;
        let scanned = (journal_bytes.len() + segment_bytes.len()) as u64;
        let busy = read_cost * scanned.div_ceil(page_size).max(u64::from(scanned > 0));

        let log = DurableLog {
            fault: cfg.fault,
            journal,
            segments,
            staged_journal: Vec::new(),
            staged_segments: Vec::new(),
            journal_len: journal_good as u64,
            prev_journal_len: journal_good as u64,
            page_size,
            program_cost: flash.latency.program,
            closed: false,
            stats: WalStats::default(),
        };
        let replay = Replay {
            journal: journal_ops,
            segments: segment_ops,
            torn_records: journal_torn + segment_torn,
            torn_bytes,
            busy,
        };
        Ok((log, replay))
    }

    pub(crate) fn stats(&self) -> WalStats {
        self.stats
    }

    /// Stages one mutation record (reaches the file at the next commit).
    pub(crate) fn append_journal(&mut self, op: &JournalOp) {
        let mut payload = Vec::with_capacity(1 + FINGERPRINT_LEN + 8);
        op.encode(&mut payload);
        push_frame(&mut self.staged_journal, &payload);
        self.stats.journal_records += 1;
    }

    /// Stages one segment record.
    pub(crate) fn append_segment(&mut self, op: &SegmentOp) {
        let mut payload = Vec::new();
        op.encode(&mut payload);
        push_frame(&mut self.staged_segments, &payload);
    }

    /// Group commit: writes staged journal bytes, then staged segment
    /// bytes (the write-ahead ordering). No-op when nothing is staged.
    pub(crate) fn commit(&mut self) -> Result<()> {
        if self.staged_journal.is_empty() && self.staged_segments.is_empty() {
            return Ok(());
        }
        if !self.staged_journal.is_empty() {
            self.journal.write_all(&self.staged_journal)?;
            self.prev_journal_len = self.journal_len;
            self.journal_len += self.staged_journal.len() as u64;
            self.charge(self.staged_journal.len());
            self.staged_journal.clear();
        }
        if !self.staged_segments.is_empty() {
            self.segments.write_all(&self.staged_segments)?;
            self.charge(self.staged_segments.len());
            self.staged_segments.clear();
        }
        self.stats.commits += 1;
        Ok(())
    }

    /// Commits, then truncates the journal — called after a full flush,
    /// when every journaled mutation is covered by the segment log.
    pub(crate) fn checkpoint(&mut self) -> Result<()> {
        self.commit()?;
        self.journal.set_len(0)?;
        self.journal_len = 0;
        self.prev_journal_len = 0;
        self.stats.checkpoints += 1;
        Ok(())
    }

    /// Clean shutdown: commit and disarm crash fault injection.
    pub(crate) fn close(&mut self) -> Result<()> {
        self.commit()?;
        self.closed = true;
        Ok(())
    }

    fn charge(&mut self, bytes: usize) {
        let pages = (bytes as u64).div_ceil(self.page_size).max(1);
        self.stats.busy += self.program_cost * pages;
    }
}

impl Drop for DurableLog {
    /// A drop without [`DurableLog::close`] is a crash: staged records
    /// are lost, and the configured [`FaultPlan`] dirties the log tails.
    fn drop(&mut self) {
        if self.closed {
            return;
        }
        if self.fault.drop_last_commit {
            let _ = self.journal.set_len(self.prev_journal_len);
        }
        if self.fault.torn_journal_tail {
            let _ = self.journal.write_all(&torn_fragment());
        }
        if self.fault.torn_segment_tail {
            let _ = self.segments.write_all(&torn_fragment());
        }
    }
}

/// Verifies (or writes, on first open) the geometry fingerprint, so a
/// store cannot replay logs written under a different layout.
fn check_meta(cfg: &WalConfig, flash: &FlashConfig) -> Result<()> {
    let path = cfg.dir.join(META_FILE);
    let mut payload = Vec::with_capacity(16);
    payload.extend_from_slice(&META_MAGIC.to_le_bytes());
    payload.extend_from_slice(&META_VERSION.to_le_bytes());
    payload.extend_from_slice(&(flash.geometry.page_size as u32).to_le_bytes());
    payload.extend_from_slice(&(flash.buckets as u32).to_le_bytes());

    match std::fs::read(&path) {
        Ok(bytes) if !bytes.is_empty() => {
            let (frames, _, torn) = parse_frames(&bytes);
            let found = frames.first().copied().unwrap_or_default();
            if torn > 0 || found != payload.as_slice() {
                return Err(Error::invalid(format!(
                    "durable store at {} was written under a different geometry",
                    cfg.dir.display()
                )));
            }
            Ok(())
        }
        _ => {
            let mut framed = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
            push_frame(&mut framed, &payload);
            std::fs::write(&path, framed)?;
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("shhc-wal-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small() -> FlashConfig {
        FlashConfig::small_test()
    }

    #[test]
    fn crc32_known_vector() {
        // The standard IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        push_frame(&mut buf, b"hello");
        push_frame(&mut buf, b"");
        push_frame(&mut buf, &[7u8; 100]);
        let (frames, good, torn) = parse_frames(&buf);
        assert_eq!(torn, 0);
        assert_eq!(good, buf.len());
        assert_eq!(frames, vec![b"hello".as_slice(), b"", &[7u8; 100]]);
    }

    #[test]
    fn torn_tail_is_detected_and_not_replayed() {
        let mut buf = Vec::new();
        push_frame(&mut buf, b"alpha");
        push_frame(&mut buf, b"beta");
        let good_len = buf.len();
        buf.extend_from_slice(&torn_fragment());
        let (frames, good, torn) = parse_frames(&buf);
        assert_eq!(frames.len(), 2, "the torn record must not be replayed");
        assert_eq!(good, good_len, "truncation point is the last good frame");
        assert_eq!(torn, 1);
    }

    #[test]
    fn corrupt_crc_mid_record_stops_replay() {
        let mut buf = Vec::new();
        push_frame(&mut buf, b"alpha");
        let good_len = buf.len();
        push_frame(&mut buf, b"beta");
        let flip = good_len + FRAME_HEADER_LEN; // first payload byte of "beta"
        buf[flip] ^= 0xFF;
        let (frames, good, torn) = parse_frames(&buf);
        assert_eq!(frames.len(), 1);
        assert_eq!(good, good_len);
        assert_eq!(torn, 1);
    }

    #[test]
    fn journal_ops_roundtrip() {
        let ops = [
            JournalOp::Set(Fingerprint::from_u64(7), u64::MAX),
            JournalOp::Del(Fingerprint::from_u64(9)),
        ];
        for op in &ops {
            let mut payload = Vec::new();
            op.encode(&mut payload);
            assert_eq!(JournalOp::decode(&payload).unwrap(), *op);
        }
    }

    #[test]
    fn segment_ops_roundtrip() {
        let ops = [
            SegmentOp::Page {
                bucket: 3,
                lpa: 99,
                data: vec![1, 2, 3, 4],
            },
            SegmentOp::Compact {
                bucket: 8,
                freed: vec![4, 5, 6],
                pages: vec![(10, vec![0xAA; 16]), (11, Vec::new())],
            },
        ];
        for op in &ops {
            let mut payload = Vec::new();
            op.encode(&mut payload);
            assert_eq!(SegmentOp::decode(&payload).unwrap(), *op);
        }
    }

    #[test]
    fn truncated_segment_payload_is_corruption() {
        let op = SegmentOp::Compact {
            bucket: 1,
            freed: vec![2],
            pages: vec![(3, vec![9; 8])],
        };
        let mut payload = Vec::new();
        op.encode(&mut payload);
        payload.truncate(payload.len() - 3);
        assert!(matches!(
            SegmentOp::decode(&payload),
            Err(Error::Corruption(_))
        ));
    }

    #[test]
    fn commit_then_reopen_replays_everything() {
        let dir = temp_dir("roundtrip");
        let cfg = WalConfig::new(&dir);
        let fp = Fingerprint::from_u64(1);
        {
            let (mut log, replay) = DurableLog::open(&cfg, &small()).unwrap();
            assert!(replay.journal.is_empty() && replay.segments.is_empty());
            log.append_journal(&JournalOp::Set(fp, 5));
            log.append_segment(&SegmentOp::Page {
                bucket: 0,
                lpa: 1,
                data: vec![1, 2],
            });
            log.commit().unwrap();
            log.append_journal(&JournalOp::Del(fp));
            log.close().unwrap();
        }
        let (_log, replay) = DurableLog::open(&cfg, &small()).unwrap();
        assert_eq!(
            replay.journal,
            vec![JournalOp::Set(fp, 5), JournalOp::Del(fp)],
            "close() must commit the staged tail"
        );
        assert_eq!(replay.segments.len(), 1);
        assert_eq!(replay.torn_records, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_loses_staged_but_not_committed_records() {
        let dir = temp_dir("staged");
        let cfg = WalConfig::new(&dir);
        let fp = Fingerprint::from_u64(2);
        {
            let (mut log, _) = DurableLog::open(&cfg, &small()).unwrap();
            log.append_journal(&JournalOp::Set(fp, 1));
            log.commit().unwrap();
            log.append_journal(&JournalOp::Set(fp, 2));
            // dropped without close(): crash
        }
        let (_log, replay) = DurableLog::open(&cfg, &small()).unwrap();
        assert_eq!(replay.journal, vec![JournalOp::Set(fp, 1)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_fault_tears_tails_and_recovery_truncates_them() {
        let dir = temp_dir("torn");
        let cfg = WalConfig::new(&dir).with_fault(FaultPlan::torn_tails());
        let fp = Fingerprint::from_u64(3);
        {
            let (mut log, _) = DurableLog::open(&cfg, &small()).unwrap();
            log.append_journal(&JournalOp::Set(fp, 7));
            log.append_segment(&SegmentOp::Page {
                bucket: 0,
                lpa: 0,
                data: vec![9],
            });
            log.commit().unwrap();
        }
        let journal_len = std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len();
        let (_log, replay) = DurableLog::open(&cfg, &small()).unwrap();
        assert_eq!(replay.torn_records, 2, "both tails torn");
        assert!(replay.torn_bytes > 0);
        assert_eq!(replay.journal, vec![JournalOp::Set(fp, 7)]);
        assert_eq!(replay.segments.len(), 1);
        // The reopen truncated the torn fragments back off the files.
        assert!(std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len() < journal_len);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drop_last_commit_rolls_back_one_group() {
        let dir = temp_dir("dropgroup");
        let cfg = WalConfig::new(&dir).with_fault(FaultPlan {
            drop_last_commit: true,
            ..FaultPlan::default()
        });
        let fp = Fingerprint::from_u64(4);
        {
            let (mut log, _) = DurableLog::open(&cfg, &small()).unwrap();
            log.append_journal(&JournalOp::Set(fp, 1));
            log.commit().unwrap();
            log.append_journal(&JournalOp::Set(fp, 2));
            log.append_journal(&JournalOp::Set(fp, 3));
            log.commit().unwrap(); // this whole group is lost on crash
        }
        let (_log, replay) = DurableLog::open(&cfg, &small()).unwrap();
        assert_eq!(replay.journal, vec![JournalOp::Set(fp, 1)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_truncates_the_journal_only() {
        let dir = temp_dir("checkpoint");
        let cfg = WalConfig::new(&dir);
        {
            let (mut log, _) = DurableLog::open(&cfg, &small()).unwrap();
            log.append_journal(&JournalOp::Set(Fingerprint::from_u64(5), 1));
            log.append_segment(&SegmentOp::Page {
                bucket: 1,
                lpa: 2,
                data: vec![1],
            });
            log.checkpoint().unwrap();
            log.close().unwrap();
            assert_eq!(log.stats().checkpoints, 1);
        }
        let (_log, replay) = DurableLog::open(&cfg, &small()).unwrap();
        assert!(replay.journal.is_empty(), "checkpoint clears the journal");
        assert_eq!(replay.segments.len(), 1, "segments survive checkpoints");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn geometry_mismatch_is_rejected() {
        let dir = temp_dir("meta");
        let cfg = WalConfig::new(&dir);
        {
            let (mut log, _) = DurableLog::open(&cfg, &small()).unwrap();
            log.close().unwrap();
        }
        let other = FlashConfig::medium_test();
        assert!(matches!(
            DurableLog::open(&cfg, &other),
            Err(Error::InvalidArgument(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn log_writes_charge_simulated_device_time() {
        let dir = temp_dir("busy");
        let cfg = WalConfig::new(&dir);
        let flash = FlashConfig::small_test_with_latency();
        let (mut log, _) = DurableLog::open(&cfg, &flash).unwrap();
        log.append_journal(&JournalOp::Set(Fingerprint::from_u64(6), 1));
        log.commit().unwrap();
        assert!(log.stats().busy >= flash.latency.program);
        log.close().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scoped_durability_nests_directories() {
        let base = Durability::wal("/tmp/shhc-x");
        let scoped = base.scoped("n3").scoped("s1");
        match &scoped {
            Durability::Wal(cfg) => {
                assert_eq!(cfg.dir, Path::new("/tmp/shhc-x/n3/s1"));
            }
            Durability::Volatile => panic!("scoped must stay durable"),
        }
        assert!(Durability::Volatile.scoped("n1") == Durability::Volatile);
        assert!(!Durability::Volatile.is_durable());
        assert!(base.is_durable());
    }
}
