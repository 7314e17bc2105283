//! Log-structured flash translation layer.

use std::collections::VecDeque;

use shhc_types::{Error, Nanos, Result};

use crate::{DeviceStats, FlashDevice};

const NONE: u64 = u64::MAX;

/// FTL-level counters (device counters live in [`DeviceStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FtlStats {
    /// Page programs requested by the user.
    pub user_programs: u64,
    /// Page programs performed by garbage collection (relocations).
    pub gc_programs: u64,
    /// Garbage collection passes.
    pub gc_runs: u64,
}

impl FtlStats {
    /// Sums counters across FTL instances (the per-shard flash slices of
    /// a sharded node). The merged write amplification stays well-defined
    /// on all-idle shards: zero user programs reports 1.0.
    pub fn merge<'a>(parts: impl IntoIterator<Item = &'a FtlStats>) -> FtlStats {
        parts.into_iter().fold(FtlStats::default(), |mut acc, p| {
            acc.user_programs += p.user_programs;
            acc.gc_programs += p.gc_programs;
            acc.gc_runs += p.gc_runs;
            acc
        })
    }

    /// Write amplification: total programs / user programs (1.0 when GC
    /// has not had to relocate anything yet).
    pub fn write_amplification(&self) -> f64 {
        if self.user_programs == 0 {
            1.0
        } else {
            (self.user_programs + self.gc_programs) as f64 / self.user_programs as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockState {
    Free,
    Open,
    Closed,
}

/// A log-structured FTL exporting overwrite-in-place logical pages.
///
/// Logical writes append to the currently open block; overwriting a
/// logical page simply invalidates its previous physical location. When
/// free blocks run low, a greedy garbage collector picks the closed block
/// with the fewest valid pages, relocates them, and erases it.
///
/// The logical address space is intentionally smaller than the physical
/// one (overprovisioning) — without spare blocks, GC cannot make progress,
/// exactly as on a real SSD.
///
/// # Examples
///
/// ```
/// use shhc_flash::{FlashDevice, FlashGeometry, FlashLatency, Ftl};
///
/// # fn main() -> Result<(), shhc_types::Error> {
/// let device = FlashDevice::new(FlashGeometry::new(64, 4, 16), FlashLatency::zero());
/// let mut ftl = Ftl::new(device, 0.25)?;
/// ftl.write(3, b"hello")?;
/// ftl.write(3, b"world")?; // logical overwrite
/// assert_eq!(ftl.read(3)?.0, b"world");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Ftl {
    device: FlashDevice,
    l2p: Vec<u64>,
    p2l: Vec<u64>,
    valid_count: Vec<u32>,
    block_state: Vec<BlockState>,
    free_blocks: VecDeque<u32>,
    open_block: u32,
    /// Next page offset inside the open block.
    write_ptr: u32,
    logical_pages: u64,
    stats: FtlStats,
}

impl Ftl {
    /// Wraps a device, reserving `overprovision` (a fraction in `(0, 1)`)
    /// of its pages as GC headroom.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] if `overprovision` is outside
    /// `(0, 1)` or leaves fewer than two spare blocks.
    pub fn new(device: FlashDevice, overprovision: f64) -> Result<Self> {
        if !(0.0..1.0).contains(&overprovision) || overprovision <= 0.0 {
            return Err(Error::invalid("overprovision fraction must be in (0, 1)"));
        }
        let geo = device.geometry();
        let total = geo.total_pages();
        let logical = (total as f64 * (1.0 - overprovision)).floor() as u64;
        let spare_pages = total - logical;
        if spare_pages < 2 * geo.pages_per_block as u64 {
            return Err(Error::invalid(format!(
                "overprovision {overprovision} leaves {spare_pages} spare pages; need at least two blocks ({})",
                2 * geo.pages_per_block
            )));
        }

        let blocks = geo.blocks;
        let mut free_blocks: VecDeque<u32> = (1..blocks).collect();
        let mut block_state = vec![BlockState::Free; blocks as usize];
        block_state[0] = BlockState::Open;
        let _ = &mut free_blocks;

        Ok(Ftl {
            l2p: vec![NONE; logical as usize],
            p2l: vec![NONE; total as usize],
            valid_count: vec![0; blocks as usize],
            block_state,
            free_blocks,
            open_block: 0,
            write_ptr: 0,
            logical_pages: logical,
            stats: FtlStats::default(),
            device,
        })
    }

    /// Number of logical pages exported.
    pub fn logical_pages(&self) -> u64 {
        self.logical_pages
    }

    /// FTL counters.
    pub fn stats(&self) -> FtlStats {
        self.stats
    }

    /// Counters of the underlying device.
    pub fn device_stats(&self) -> DeviceStats {
        self.device.stats()
    }

    /// Accumulated virtual busy time of the underlying device.
    pub fn busy(&self) -> Nanos {
        self.device.stats().busy
    }

    /// Immutable access to the wrapped device (wear diagnostics etc.).
    pub fn device(&self) -> &FlashDevice {
        &self.device
    }

    /// Mutable access to the wrapped device — for arming fault injection
    /// ([`FlashDevice::arm_torn_program`], [`FlashDevice::arm_short_read`])
    /// in recovery tests.
    pub fn device_mut(&mut self) -> &mut FlashDevice {
        &mut self.device
    }

    fn check_lpa(&self, lpa: u64) -> Result<usize> {
        if lpa >= self.logical_pages {
            return Err(Error::invalid(format!(
                "logical page {lpa} out of range ({} exported)",
                self.logical_pages
            )));
        }
        Ok(lpa as usize)
    }

    /// Reads the current contents of a logical page, borrowed from the
    /// device: a probe scans the page where it lies. A caller that goes
    /// on to write (read-modify-write of a tail page) copies it first.
    ///
    /// # Errors
    ///
    /// [`Error::NotFound`] if the page was never written;
    /// [`Error::InvalidArgument`] for an out-of-range address.
    pub fn read(&mut self, lpa: u64) -> Result<(&[u8], Nanos)> {
        let idx = self.check_lpa(lpa)?;
        let ppa = self.l2p[idx];
        if ppa == NONE {
            return Err(Error::not_found(format!("logical page {lpa} unwritten")));
        }
        self.device.read_page(ppa)
    }

    /// Reads several logical pages at once, borrowed like [`Ftl::read`]:
    /// every address is translated first, then the device charges each
    /// page ([`FlashDevice::read_pages`]). The caller passes each page
    /// once; a page it lists twice is read, and charged, twice.
    ///
    /// # Errors
    ///
    /// As [`Ftl::read`], for the first address that fails.
    pub(crate) fn read_pages(&mut self, lpas: &[u64]) -> Result<Vec<&[u8]>> {
        let mut ppas = Vec::with_capacity(lpas.len());
        for &lpa in lpas {
            let ppa = self.l2p[self.check_lpa(lpa)?];
            if ppa == NONE {
                return Err(Error::not_found(format!("logical page {lpa} unwritten")));
            }
            ppas.push(ppa);
        }
        self.device.read_pages(&ppas)
    }

    /// True if the logical page has been written at least once.
    pub fn is_mapped(&self, lpa: u64) -> bool {
        self.check_lpa(lpa)
            .map(|idx| self.l2p[idx] != NONE)
            .unwrap_or(false)
    }

    /// Writes (or overwrites) a logical page.
    ///
    /// # Errors
    ///
    /// [`Error::OutOfSpace`] when garbage collection cannot reclaim any
    /// block (every closed block fully valid);
    /// [`Error::InvalidArgument`] / [`Error::DeviceViolation`] are
    /// propagated from the device layer.
    pub fn write(&mut self, lpa: u64, data: &[u8]) -> Result<Nanos> {
        let idx = self.check_lpa(lpa)?;
        let mut cost = Nanos::ZERO;

        let ppa = self.alloc_page(&mut cost)?;
        cost += self.device.program_page(ppa, data)?;
        self.stats.user_programs += 1;

        // Invalidate the previous location.
        let old = self.l2p[idx];
        if old != NONE {
            self.p2l[old as usize] = NONE;
            let old_block = (old / self.device.geometry().pages_per_block as u64) as usize;
            self.valid_count[old_block] -= 1;
        }
        self.l2p[idx] = ppa;
        self.p2l[ppa as usize] = lpa;
        let block = (ppa / self.device.geometry().pages_per_block as u64) as usize;
        self.valid_count[block] += 1;
        Ok(cost)
    }

    /// Unmaps a logical page (TRIM). Subsequent reads return `NotFound`.
    pub fn trim(&mut self, lpa: u64) -> Result<()> {
        let idx = self.check_lpa(lpa)?;
        let old = self.l2p[idx];
        if old != NONE {
            self.p2l[old as usize] = NONE;
            let old_block = (old / self.device.geometry().pages_per_block as u64) as usize;
            self.valid_count[old_block] -= 1;
            self.l2p[idx] = NONE;
        }
        Ok(())
    }

    /// Returns a physical page for the next append, running GC if needed.
    fn alloc_page(&mut self, cost: &mut Nanos) -> Result<u64> {
        let ppb = self.device.geometry().pages_per_block;
        if self.write_ptr == ppb {
            // Open block is full; close it and open a fresh one.
            self.block_state[self.open_block as usize] = BlockState::Closed;
            if self.free_blocks.len() <= 1 {
                // GC relocates into (and may replace) the open block; if it
                // leaves the new open block with space, keep appending there
                // instead of orphaning it.
                self.collect_garbage(cost)?;
            }
            if self.write_ptr == ppb {
                // GC may have moved the open block (and may have filled it
                // to the brim); close it if it is still marked open before
                // switching to a fresh one.
                if self.block_state[self.open_block as usize] == BlockState::Open {
                    self.block_state[self.open_block as usize] = BlockState::Closed;
                }
                let next = self
                    .free_blocks
                    .pop_front()
                    .ok_or_else(|| Error::OutOfSpace {
                        what: "flash device (no free blocks)".into(),
                    })?;
                self.block_state[next as usize] = BlockState::Open;
                self.open_block = next;
                self.write_ptr = 0;
            }
        }
        let ppa = self.open_block as u64 * ppb as u64 + self.write_ptr as u64;
        self.write_ptr += 1;
        Ok(ppa)
    }

    /// Greedy GC: reclaim closed blocks until at least two are free.
    fn collect_garbage(&mut self, cost: &mut Nanos) -> Result<()> {
        self.stats.gc_runs += 1;
        let ppb = self.device.geometry().pages_per_block;

        while self.free_blocks.len() < 2 {
            // Victim: closed block with fewest valid pages.
            let victim = self
                .block_state
                .iter()
                .enumerate()
                .filter(|(_, s)| **s == BlockState::Closed)
                .min_by_key(|(b, _)| self.valid_count[*b])
                .map(|(b, _)| b as u32);
            let victim = match victim {
                Some(v) => v,
                None => {
                    return Err(Error::OutOfSpace {
                        what: "flash device (nothing to collect)".into(),
                    })
                }
            };
            if self.valid_count[victim as usize] == ppb {
                return Err(Error::OutOfSpace {
                    what: "flash device (all closed blocks fully valid)".into(),
                });
            }

            // Relocate every valid page of the victim into the open block.
            let base = victim as u64 * ppb as u64;
            for off in 0..ppb as u64 {
                let ppa = base + off;
                let lpa = self.p2l[ppa as usize];
                if lpa == NONE {
                    continue;
                }
                let (data, rcost) = self.device.read_page(ppa)?;
                let data = data.to_vec();
                *cost += rcost;

                // Destination: next slot in the open block, which may
                // itself fill up mid-GC. The open block may also be
                // dangling (it was itself collected as a victim, leaving
                // its state Free and the slot on the free list) — in that
                // case just pop a fresh destination without touching its
                // state.
                if self.write_ptr == ppb {
                    if self.block_state[self.open_block as usize] == BlockState::Open {
                        self.block_state[self.open_block as usize] = BlockState::Closed;
                    }
                    let next = self
                        .free_blocks
                        .pop_front()
                        .ok_or_else(|| Error::OutOfSpace {
                            what: "flash device (GC starved of blocks)".into(),
                        })?;
                    self.block_state[next as usize] = BlockState::Open;
                    self.open_block = next;
                    self.write_ptr = 0;
                }
                let dst = self.open_block as u64 * ppb as u64 + self.write_ptr as u64;
                self.write_ptr += 1;
                *cost += self.device.program_page(dst, &data)?;
                self.stats.gc_programs += 1;

                // Remap.
                self.p2l[ppa as usize] = NONE;
                self.valid_count[victim as usize] -= 1;
                self.l2p[lpa as usize] = dst;
                self.p2l[dst as usize] = lpa;
                let dst_block = (dst / ppb as u64) as usize;
                self.valid_count[dst_block] += 1;
            }

            *cost += self.device.erase_block(victim)?;
            self.block_state[victim as usize] = BlockState::Free;
            self.free_blocks.push_back(victim);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlashGeometry, FlashLatency};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ftl(pages_per_block: u32, blocks: u32) -> Ftl {
        let device = FlashDevice::new(
            FlashGeometry::new(32, pages_per_block, blocks),
            FlashLatency::zero(),
        );
        Ftl::new(device, 0.3).expect("valid config")
    }

    #[test]
    fn overwrite_returns_latest() {
        let mut f = ftl(4, 8);
        f.write(0, b"v1").unwrap();
        f.write(0, b"v2").unwrap();
        f.write(0, b"v3").unwrap();
        assert_eq!(f.read(0).unwrap().0, b"v3");
    }

    #[test]
    fn unwritten_page_not_found() {
        let mut f = ftl(4, 8);
        assert!(matches!(f.read(5), Err(Error::NotFound(_))));
        assert!(!f.is_mapped(5));
    }

    #[test]
    fn out_of_range_lpa_rejected() {
        let mut f = ftl(4, 8);
        let lp = f.logical_pages();
        assert!(matches!(f.write(lp, b"x"), Err(Error::InvalidArgument(_))));
    }

    #[test]
    fn gc_reclaims_overwritten_space() {
        // 8 blocks × 4 pages = 32 physical, 22 logical. Overwrite one page
        // far more times than physical capacity — GC must keep up.
        let mut f = ftl(4, 8);
        for i in 0..500u32 {
            f.write(3, &i.to_le_bytes()).expect("write under GC");
        }
        assert_eq!(f.read(3).unwrap().0, 499u32.to_le_bytes());
        assert!(f.stats().gc_runs > 0, "GC must have run");
        assert!(f.device_stats().erases > 0);
    }

    #[test]
    fn gc_preserves_all_live_data() {
        let mut f = ftl(4, 16); // 44 logical pages
        let logical = f.logical_pages();
        // Fill every logical page, then rewrite half of them many times.
        for lpa in 0..logical {
            f.write(lpa, &lpa.to_le_bytes()).unwrap();
        }
        for round in 0..50u64 {
            for lpa in (0..logical).step_by(2) {
                f.write(lpa, &(round * 1000 + lpa).to_le_bytes()).unwrap();
            }
        }
        for lpa in 0..logical {
            let expected = if lpa % 2 == 0 {
                49u64 * 1000 + lpa
            } else {
                lpa
            };
            assert_eq!(f.read(lpa).unwrap().0, expected.to_le_bytes());
        }
    }

    #[test]
    fn filling_every_logical_page_without_overwrites_succeeds() {
        let mut f = ftl(4, 8);
        let logical = f.logical_pages();
        for lpa in 0..logical {
            f.write(lpa, &[lpa as u8]).expect("unique fill fits");
        }
        for lpa in 0..logical {
            assert_eq!(f.read(lpa).unwrap().0, vec![lpa as u8]);
        }
    }

    #[test]
    fn trim_frees_space() {
        let mut f = ftl(4, 8);
        f.write(1, b"data").unwrap();
        assert!(f.is_mapped(1));
        f.trim(1).unwrap();
        assert!(!f.is_mapped(1));
        assert!(matches!(f.read(1), Err(Error::NotFound(_))));
    }

    #[test]
    fn write_amplification_accounted() {
        let mut f = ftl(4, 8);
        for i in 0..200u32 {
            f.write(i as u64 % 8, &i.to_le_bytes()).unwrap();
        }
        let s = f.stats();
        assert_eq!(s.user_programs, 200);
        assert!(s.write_amplification() >= 1.0);
        // Device programs = user + gc.
        assert_eq!(f.device_stats().programs, s.user_programs + s.gc_programs);
    }

    #[test]
    fn insufficient_overprovision_rejected() {
        let device = FlashDevice::new(FlashGeometry::new(32, 4, 4), FlashLatency::zero());
        assert!(Ftl::new(device, 0.01).is_err());
        let device = FlashDevice::new(FlashGeometry::new(32, 4, 4), FlashLatency::zero());
        assert!(Ftl::new(device, 1.5).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random write workload: the FTL must behave exactly like a flat
        /// array of pages, regardless of GC activity.
        #[test]
        fn prop_acts_like_flat_array(seed: u64, ops in 50usize..400) {
            let mut f = ftl(4, 12);
            let logical = f.logical_pages();
            let mut model: Vec<Option<Vec<u8>>> = vec![None; logical as usize];
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..ops {
                let lpa = rng.gen_range(0..logical);
                if rng.gen_bool(0.85) {
                    let val: [u8; 8] = rng.gen();
                    f.write(lpa, &val).expect("write");
                    model[lpa as usize] = Some(val.to_vec());
                } else if model[lpa as usize].is_some() && rng.gen_bool(0.5) {
                    f.trim(lpa).expect("trim");
                    model[lpa as usize] = None;
                } else {
                    match &model[lpa as usize] {
                        Some(expected) => {
                            prop_assert_eq!(&f.read(lpa).expect("read").0, expected)
                        }
                        None => prop_assert!(f.read(lpa).is_err()),
                    }
                }
            }
            // Full final audit.
            for (lpa, entry) in model.iter().enumerate() {
                match entry {
                    Some(expected) => prop_assert_eq!(&f.read(lpa as u64).unwrap().0, expected),
                    None => prop_assert!(f.read(lpa as u64).is_err()),
                }
            }
        }
    }
}

#[cfg(test)]
mod audit_tests {
    use super::*;
    use crate::{FlashGeometry, FlashLatency};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    impl Ftl {
        fn audit(&self) {
            let ppb = self.device.geometry().pages_per_block as u64;
            let blocks = self.device.geometry().blocks as usize;
            let mut recount = vec![0u32; blocks];
            for (ppa, &lpa) in self.p2l.iter().enumerate() {
                if lpa != NONE {
                    recount[ppa / ppb as usize] += 1;
                    assert_eq!(self.l2p[lpa as usize], ppa as u64, "l2p/p2l mismatch");
                }
            }
            for (b, &count) in recount.iter().enumerate() {
                assert_eq!(
                    count, self.valid_count[b],
                    "valid_count drift block {b} state {:?}",
                    self.block_state[b]
                );
                if self.block_state[b] == BlockState::Free {
                    assert_eq!(count, 0, "free block {b} has valid pages");
                }
            }
            let frees: std::collections::HashSet<u32> = self.free_blocks.iter().copied().collect();
            for b in 0..blocks as u32 {
                let in_free = frees.contains(&b);
                let is_free_state = self.block_state[b as usize] == BlockState::Free;
                assert_eq!(in_free, is_free_state, "free list/state mismatch block {b}");
            }
            assert_eq!(
                self.block_state[self.open_block as usize],
                BlockState::Open,
                "open block state"
            );
            let open_count = self
                .block_state
                .iter()
                .filter(|s| **s == BlockState::Open)
                .count();
            assert_eq!(open_count, 1, "exactly one open block");
        }
    }

    #[test]
    fn audit_random_workload() {
        for seed in 0..40u64 {
            let device = FlashDevice::new(FlashGeometry::new(32, 4, 12), FlashLatency::zero());
            let mut f = Ftl::new(device, 0.3).expect("cfg");
            let logical = f.logical_pages();
            let mut rng = StdRng::seed_from_u64(seed);
            for op in 0..400 {
                let lpa = rng.gen_range(0..logical);
                if rng.gen_bool(0.85) {
                    let val: [u8; 8] = rng.gen();
                    if let Err(e) = f.write(lpa, &val) {
                        panic!("seed {seed} op {op}: {e}");
                    }
                } else if rng.gen_bool(0.5) {
                    f.trim(lpa).unwrap();
                }
                f.audit();
            }
        }
    }
}
