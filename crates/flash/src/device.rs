//! The raw NAND flash device model.

use shhc_types::{Error, Nanos, Result};

/// Physical layout of the simulated flash device.
///
/// # Examples
///
/// ```
/// use shhc_flash::FlashGeometry;
///
/// let g = FlashGeometry::new(4096, 64, 256);
/// assert_eq!(g.total_pages(), 64 * 256);
/// assert_eq!(g.capacity_bytes(), 4096 * 64 * 256);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashGeometry {
    /// Bytes per page (the program/read unit).
    pub page_size: usize,
    /// Pages per erase block.
    pub pages_per_block: u32,
    /// Number of erase blocks.
    pub blocks: u32,
}

impl FlashGeometry {
    /// Creates a geometry description.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero (configuration bug).
    pub fn new(page_size: usize, pages_per_block: u32, blocks: u32) -> Self {
        assert!(page_size > 0, "page size must be nonzero");
        assert!(pages_per_block > 0, "pages per block must be nonzero");
        assert!(blocks > 0, "block count must be nonzero");
        FlashGeometry {
            page_size,
            pages_per_block,
            blocks,
        }
    }

    /// Total number of pages on the device.
    pub fn total_pages(&self) -> u64 {
        self.pages_per_block as u64 * self.blocks as u64
    }

    /// Raw capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.total_pages() * self.page_size as u64
    }
}

/// Latency model for the three flash operations.
///
/// Defaults reflect a SATA-II era MLC SSD like the evaluation machines'
/// 64 GB drives: 25 µs random read, 200 µs program, 1.5 ms block erase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashLatency {
    /// Latency of reading one page.
    pub read: Nanos,
    /// Latency of programming one page.
    pub program: Nanos,
    /// Latency of erasing one block.
    pub erase: Nanos,
}

impl Default for FlashLatency {
    fn default() -> Self {
        FlashLatency {
            read: Nanos::from_micros(25),
            program: Nanos::from_micros(200),
            erase: Nanos::from_micros(1500),
        }
    }
}

impl FlashLatency {
    /// A zero-latency model for pure-correctness tests.
    pub fn zero() -> Self {
        FlashLatency {
            read: Nanos::ZERO,
            program: Nanos::ZERO,
            erase: Nanos::ZERO,
        }
    }
}

/// Operation counters and accumulated virtual busy time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Page reads served.
    pub reads: u64,
    /// Page programs served.
    pub programs: u64,
    /// Block erases served.
    pub erases: u64,
    /// Total virtual time spent in device operations.
    pub busy: Nanos,
}

impl DeviceStats {
    /// Sums counters across devices — a sharded node reports one
    /// aggregate for its per-shard flash slices. `busy` adds up too: it
    /// is total device *work*, not wall-clock (shards run concurrently).
    pub fn merge<'a>(parts: impl IntoIterator<Item = &'a DeviceStats>) -> DeviceStats {
        parts
            .into_iter()
            .fold(DeviceStats::default(), |mut acc, p| {
                acc.reads += p.reads;
                acc.programs += p.programs;
                acc.erases += p.erases;
                acc.busy += p.busy;
                acc
            })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PageState {
    Erased,
    Programmed,
}

/// One-shot fault-injection state: each armed fault fires on the next
/// matching operation, then disarms.
#[derive(Debug, Clone, Copy, Default)]
struct DeviceFaults {
    /// Next program stores only this many bytes (a torn write).
    torn_program: Option<usize>,
    /// Next read returns only this many bytes (a short read).
    short_read: Option<usize>,
}

/// An in-memory NAND flash device that enforces flash programming rules.
///
/// - a page can be read any time (reading an erased page yields an error —
///   the FTL never does this),
/// - a page can only be programmed when erased,
/// - erasure happens per block and resets every page in it.
///
/// Violations return [`Error::DeviceViolation`] rather than silently
/// succeeding, so FTL bugs surface in tests immediately. All operations
/// return their [`Nanos`] cost; callers aggregate these on their own
/// virtual clocks.
#[derive(Debug, Clone)]
pub struct FlashDevice {
    geometry: FlashGeometry,
    latency: FlashLatency,
    pages: Vec<Vec<u8>>,
    states: Vec<PageState>,
    /// Erase count per block (wear).
    wear: Vec<u64>,
    stats: DeviceStats,
    faults: DeviceFaults,
}

impl FlashDevice {
    /// Creates a device with every page erased.
    pub fn new(geometry: FlashGeometry, latency: FlashLatency) -> Self {
        let n = geometry.total_pages() as usize;
        FlashDevice {
            geometry,
            latency,
            pages: vec![Vec::new(); n],
            states: vec![PageState::Erased; n],
            wear: vec![0; geometry.blocks as usize],
            stats: DeviceStats::default(),
            faults: DeviceFaults::default(),
        }
    }

    /// Arms a one-shot torn write: the next [`FlashDevice::program_page`]
    /// silently stores only the first `keep_bytes` bytes of its data, as
    /// if power failed mid-program. The page still counts as programmed
    /// and the full latency is charged — the caller cannot tell until it
    /// reads the page back and the checksum/length validation fails.
    pub fn arm_torn_program(&mut self, keep_bytes: usize) {
        self.faults.torn_program = Some(keep_bytes);
    }

    /// Arms a one-shot short read: the next page read (by
    /// [`FlashDevice::read_page`], or the first page of a batched read)
    /// returns only the first `keep_bytes` bytes of the page.
    pub fn arm_short_read(&mut self, keep_bytes: usize) {
        self.faults.short_read = Some(keep_bytes);
    }

    /// The device geometry.
    pub fn geometry(&self) -> FlashGeometry {
        self.geometry
    }

    /// The latency model.
    pub fn latency(&self) -> FlashLatency {
        self.latency
    }

    /// Operation counters so far.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    /// Erase count of each block (wear levelling diagnostics).
    pub fn wear(&self) -> &[u64] {
        &self.wear
    }

    fn check_ppa(&self, ppa: u64) -> Result<usize> {
        if ppa >= self.geometry.total_pages() {
            return Err(Error::invalid(format!(
                "physical page {ppa} out of range (device has {})",
                self.geometry.total_pages()
            )));
        }
        Ok(ppa as usize)
    }

    /// Reads a programmed page, returning its data and the read latency.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidArgument`] for an out-of-range address;
    /// [`Error::DeviceViolation`] when reading an erased page.
    pub fn read_page(&mut self, ppa: u64) -> Result<(&[u8], Nanos)> {
        let keep = self.charge_read(ppa)?;
        Ok((&self.pages[ppa as usize][..keep], self.latency.read))
    }

    /// Reads several programmed pages, in order: each is checked, counted
    /// and charged exactly as by [`FlashDevice::read_page`], all before any
    /// is borrowed, so the caller's accesses to the returned bytes do not
    /// wait on one another.
    ///
    /// # Errors
    ///
    /// As [`FlashDevice::read_page`], for the first page that fails; the
    /// pages before it stay charged.
    pub(crate) fn read_pages(&mut self, ppas: &[u64]) -> Result<Vec<&[u8]>> {
        let mut keep = Vec::with_capacity(ppas.len());
        for &ppa in ppas {
            keep.push(self.charge_read(ppa)?);
        }
        Ok(ppas
            .iter()
            .zip(keep)
            .map(|(&ppa, keep)| &self.pages[ppa as usize][..keep])
            .collect())
    }

    /// Checks, counts and charges one page read, and fires an armed short
    /// read: returns how many of the page's bytes the read delivers.
    fn charge_read(&mut self, ppa: u64) -> Result<usize> {
        let idx = self.check_ppa(ppa)?;
        if self.states[idx] != PageState::Programmed {
            return Err(Error::DeviceViolation(format!("read of erased page {ppa}")));
        }
        self.stats.reads += 1;
        self.stats.busy += self.latency.read;
        let len = self.pages[idx].len();
        Ok(match self.faults.short_read.take() {
            Some(keep) => keep.min(len),
            None => len,
        })
    }

    /// Programs an erased page with `data`, returning the program latency.
    ///
    /// # Errors
    ///
    /// [`Error::DeviceViolation`] when the page is already programmed
    /// (flash cannot overwrite in place) or `data` exceeds the page size.
    pub fn program_page(&mut self, ppa: u64, data: &[u8]) -> Result<Nanos> {
        let idx = self.check_ppa(ppa)?;
        if data.len() > self.geometry.page_size {
            return Err(Error::DeviceViolation(format!(
                "programming {} bytes into a {}-byte page",
                data.len(),
                self.geometry.page_size
            )));
        }
        if self.states[idx] == PageState::Programmed {
            return Err(Error::DeviceViolation(format!(
                "program of non-erased page {ppa} (erase the block first)"
            )));
        }
        self.states[idx] = PageState::Programmed;
        self.pages[idx] = match self.faults.torn_program.take() {
            Some(keep) => data[..keep.min(data.len())].to_vec(),
            None => data.to_vec(),
        };
        self.stats.programs += 1;
        self.stats.busy += self.latency.program;
        Ok(self.latency.program)
    }

    /// Erases an entire block, returning the erase latency.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidArgument`] for an out-of-range block.
    pub fn erase_block(&mut self, block: u32) -> Result<Nanos> {
        if block >= self.geometry.blocks {
            return Err(Error::invalid(format!(
                "block {block} out of range (device has {})",
                self.geometry.blocks
            )));
        }
        let ppb = self.geometry.pages_per_block as usize;
        let start = block as usize * ppb;
        for idx in start..start + ppb {
            self.states[idx] = PageState::Erased;
            self.pages[idx] = Vec::new();
        }
        self.wear[block as usize] += 1;
        self.stats.erases += 1;
        self.stats.busy += self.latency.erase;
        Ok(self.latency.erase)
    }

    /// True if the page is currently erased.
    #[cfg(test)]
    pub(crate) fn is_erased(&self, ppa: u64) -> bool {
        self.check_ppa(ppa)
            .map(|idx| self.states[idx] == PageState::Erased)
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FlashDevice {
        FlashDevice::new(FlashGeometry::new(64, 4, 8), FlashLatency::default())
    }

    #[test]
    fn program_read_round_trip() {
        let mut d = small();
        let data = vec![0xAB; 64];
        d.program_page(5, &data).expect("program");
        let (read, cost) = d.read_page(5).expect("read");
        assert_eq!(read, &data[..]);
        assert_eq!(cost, Nanos::from_micros(25));
    }

    #[test]
    fn cannot_overwrite_programmed_page() {
        let mut d = small();
        d.program_page(0, &[1]).expect("first program");
        let err = d.program_page(0, &[2]).unwrap_err();
        assert!(matches!(err, Error::DeviceViolation(_)), "{err}");
    }

    #[test]
    fn erase_enables_reprogram() {
        let mut d = small();
        d.program_page(0, &[1]).expect("program");
        d.erase_block(0).expect("erase");
        assert!(d.is_erased(0));
        d.program_page(0, &[2]).expect("reprogram after erase");
        assert_eq!(d.read_page(0).unwrap().0, &[2]);
    }

    #[test]
    fn erase_clears_whole_block_only() {
        let mut d = small();
        // Block 0 covers pages 0..4, block 1 pages 4..8.
        d.program_page(0, &[1]).unwrap();
        d.program_page(3, &[2]).unwrap();
        d.program_page(4, &[3]).unwrap();
        d.erase_block(0).unwrap();
        assert!(d.is_erased(0) && d.is_erased(3));
        assert!(!d.is_erased(4), "block 1 must be untouched");
    }

    #[test]
    fn read_erased_page_is_violation() {
        let mut d = small();
        let err = d.read_page(1).unwrap_err();
        assert!(matches!(err, Error::DeviceViolation(_)));
    }

    #[test]
    fn out_of_range_addresses() {
        let mut d = small();
        assert!(d.read_page(32).is_err());
        assert!(d.program_page(99, &[0]).is_err());
        assert!(d.erase_block(8).is_err());
    }

    #[test]
    fn oversized_program_rejected() {
        let mut d = small();
        let err = d.program_page(0, &[0; 65]).unwrap_err();
        assert!(matches!(err, Error::DeviceViolation(_)));
    }

    #[test]
    fn stats_and_wear_accumulate() {
        let mut d = small();
        d.program_page(0, &[1]).unwrap();
        d.read_page(0).unwrap();
        d.erase_block(0).unwrap();
        d.erase_block(0).unwrap();
        let s = d.stats();
        assert_eq!((s.reads, s.programs, s.erases), (1, 1, 2));
        assert_eq!(
            s.busy,
            Nanos::from_micros(25) + Nanos::from_micros(200) + Nanos::from_micros(1500) * 2
        );
        assert_eq!(d.wear()[0], 2);
        assert_eq!(d.wear()[1], 0);
    }

    #[test]
    fn torn_program_keeps_only_a_prefix_once() {
        let mut d = small();
        d.arm_torn_program(3);
        d.program_page(0, &[7; 10]).unwrap();
        assert_eq!(d.read_page(0).unwrap().0, &[7; 3], "torn write truncated");
        d.program_page(1, &[8; 10]).unwrap();
        assert_eq!(d.read_page(1).unwrap().0, &[8; 10], "fault was one-shot");
    }

    #[test]
    fn short_read_returns_only_a_prefix_once() {
        let mut d = small();
        d.program_page(0, &[9; 8]).unwrap();
        d.arm_short_read(2);
        assert_eq!(d.read_page(0).unwrap().0, &[9; 2]);
        assert_eq!(d.read_page(0).unwrap().0, &[9; 8], "fault was one-shot");
    }

    /// A batched read checks, counts and charges each page as a single
    /// read does, and an armed short read cuts its first page only.
    #[test]
    fn read_pages_charges_like_single_reads() {
        let mut d = small();
        d.program_page(0, &[1; 8]).unwrap();
        d.program_page(5, &[2; 6]).unwrap();
        let busy = d.stats().busy;
        d.arm_short_read(3);
        let pages = d.read_pages(&[5, 0, 5]).unwrap();
        assert_eq!(pages, vec![&[2u8; 3][..], &[1; 8][..], &[2; 6][..]]);
        let s = d.stats();
        assert_eq!((s.reads, s.busy - busy), (3, Nanos::from_micros(25) * 3));
        assert!(matches!(
            d.read_pages(&[0, 1]),
            Err(Error::DeviceViolation(_))
        ));
        assert_eq!(d.stats().reads, 4, "the page before the failure is charged");
    }

    #[test]
    fn zero_latency_model() {
        let mut d = FlashDevice::new(FlashGeometry::new(16, 2, 2), FlashLatency::zero());
        d.program_page(0, &[9]).unwrap();
        assert_eq!(d.stats().busy, Nanos::ZERO);
    }
}
