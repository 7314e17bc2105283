//! The hybrid RAM+SSD hash node (paper Figures 3 and 4).
//!
//! Each SHHC node pairs a RAM tier (LRU cache of hot fingerprints plus a
//! bloom filter summarizing the SSD table) with an SSD tier (the
//! persistent fingerprint table). The lookup workflow is the paper's
//! Figure 4:
//!
//! 1. probe the RAM cache — hit: answer "exists", refresh recency;
//! 2. miss: consult the bloom filter — negative: the fingerprint is
//!    certainly not on SSD, so insert it (new chunk) and answer "does not
//!    exist, send the data";
//! 3. bloom positive: probe the SSD table — hit: promote into RAM and
//!    answer "exists"; miss (bloom false positive): insert as new.
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
