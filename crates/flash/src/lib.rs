//! Flash/SSD substrate: device model, log-structured FTL, and the
//! persistent on-SSD fingerprint table.
//!
//! The SHHC paper stores each node's hash table "on the SSD as a Berkeley
//! DB" and leans on the SSD's fast random reads. We cannot ship a SATA SSD
//! or Berkeley DB, so this crate builds the equivalent stack from scratch
//! (see DESIGN.md §2 for the substitution argument):
//!
//! 1. [`FlashDevice`] — a page/block NAND model that *enforces* flash
//!    semantics (program only after erase, erase whole blocks) and accounts
//!    read/program/erase latency on a virtual clock,
//! 2. [`Ftl`] — a log-structured flash translation layer providing
//!    overwrite-in-place logical pages on top, with greedy garbage
//!    collection and write-amplification accounting,
//! 3. [`FlashStore`] — a bucketed, persistent fingerprint → value table
//!    over the FTL with a RAM write buffer (delayed writes, as in
//!    dedupv1) and a 2-byte-per-record RAM signature directory, costing
//!    one flash page read per cold lookup of a stored key and none for
//!    an absent one — the characteristic the paper relies on from
//!    Berkeley DB on SSD,
//! 4. [`wal`] — an optional write-ahead durability layer
//!    ([`Durability::Wal`]): a group-committed, checksummed journal plus
//!    an append-only segment log, replayed on [`FlashStore::open`] so the
//!    table survives crashes (torn log tails are detected and truncated).
//!
//! # Examples
//!
//! ```
//! use shhc_flash::{FlashConfig, FlashStore};
//! use shhc_types::Fingerprint;
//!
//! # fn main() -> Result<(), shhc_types::Error> {
//! let mut store = FlashStore::new(FlashConfig::small_test())?;
//! let fp = Fingerprint::from_u64(42);
//! store.put(fp, 7)?;
//! assert_eq!(store.get(fp)?, Some(7));
//! store.flush()?; // persist the write buffer to flash
//! assert_eq!(store.get(fp)?, Some(7));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod device;
mod ftl;
mod store;
pub mod wal;

pub use device::{DeviceStats, FlashDevice, FlashGeometry, FlashLatency};
pub use ftl::{Ftl, FtlStats};
pub use store::{FlashConfig, FlashStore, StoreStats};
pub use wal::{Durability, FaultPlan, RecoveryStats, WalConfig, WalStats};
