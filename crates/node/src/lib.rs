//! The hybrid RAM+SSD hash node (paper Figures 3 and 4).
//!
//! Each SHHC node pairs a RAM tier with an SSD tier (the persistent
//! fingerprint table). The RAM tier is one LRU cache of hot fingerprints
//! over the flash store's in-RAM signature directory (2 B a record). The
//! lookup workflow is the paper's Figure 4, with the directory where the
//! paper puts a bloom filter:
//!
//! 1. probe the RAM cache — hit: answer "exists", refresh recency;
//! 2. miss: probe the SSD table — its directory answers an absent
//!    fingerprint without a device read, and reads one page only when a
//!    record's tag matches;
//! 3. found: promote into RAM and answer "exists"; absent: insert it (new
//!    chunk) and answer "does not exist, send the data".
//!
//! A frame ([`HybridHashNode::lookup_insert_batch`]) takes the same steps
//! in one pass, each over the whole frame: the cache pass, then one
//! [`shhc_flash::FlashStore::get_batch_with_repeats`] for every miss —
//! staged, so the misses' directory and page accesses overlap, and
//! coalesced, so a page several misses need is read once — then the
//! inserts, in frame order. A fingerprint repeated in the frame is
//! inserted once; its repeats answer "exists".
//!
//! All device time is accounted on a virtual clock so a node can be
//! driven either by real threads or by the discrete-event simulator.
//!
//! # Examples
//!
//! ```
//! use shhc_node::{HybridHashNode, NodeConfig};
//! use shhc_types::{Fingerprint, NodeId};
//!
//! # fn main() -> Result<(), shhc_types::Error> {
//! let mut node = HybridHashNode::new(NodeId::new(0), NodeConfig::small_test())?;
//! let fp = Fingerprint::from_u64(1);
//! let first = node.lookup_insert(fp)?;
//! assert!(!first.existed, "first sighting is a new chunk");
//! let second = node.lookup_insert(fp)?;
//! assert!(second.existed, "second sighting deduplicates");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hybrid;
mod sharded;

pub use hybrid::{
    BatchResult, CachePolicy, Classified, HybridHashNode, LookupOutcome, LookupResult, NodeConfig,
    NodeStats,
};
pub use sharded::{
    load_imbalance, merge_classified, shard_slices, MergedLookup, ShardLoad, ShardRouter, SubBatch,
    SubClassified,
};
// The durability mode is part of `NodeConfig`'s public surface.
pub use shhc_flash::{Durability, FaultPlan, WalConfig};
// `NodeConfig::backend` names it; only `BackendKind::Single` is accepted.
pub use shhc_index::BackendKind;
