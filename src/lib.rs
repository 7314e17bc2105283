//! Workspace facade for the SHHC reproduction.
//!
//! This crate exists so a downstream consumer (or a quick experiment) can
//! depend on one name and reach every layer of the workspace. Each layer
//! is re-exported under its short name, mirroring the build graph:
//!
//! | module | layer |
//! |---|---|
//! | [`types`] | shared vocabulary |
//! | [`hash`], [`bloom`], [`cache`], [`chunking`], [`flash`] | substrates |
//! | [`net`], [`ring`], [`sim`], [`storage`], [`workload`] | substrates |
//! | [`node`], [`baseline`] | node layer |
//! | [`cluster`] (the `shhc` core crate) | the cluster itself |
//!
//! The common entry points are also re-exported at the root, so the
//! facade is usable exactly like the `shhc` core crate:
//!
//! ```
//! use shhc_repro::{ClusterConfig, ShhcCluster};
//!
//! # fn main() -> Result<(), shhc_repro::types::Error> {
//! let cluster = ShhcCluster::spawn(ClusterConfig::small_test(2))?;
//! let fp = shhc_repro::types::Fingerprint::from_u64(7);
//! assert_eq!(cluster.lookup_insert_batch(&[fp])?, vec![false]);
//! assert_eq!(cluster.lookup_insert_batch(&[fp])?, vec![true]);
//! cluster.shutdown()?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use shhc_baseline as baseline;
pub use shhc_bloom as bloom;
pub use shhc_cache as cache;
pub use shhc_chunking as chunking;
pub use shhc_flash as flash;
pub use shhc_hash as hash;
pub use shhc_net as net;
pub use shhc_node as node;
pub use shhc_ring as ring;
pub use shhc_sim as sim;
pub use shhc_storage as storage;
pub use shhc_types as types;
pub use shhc_workload as workload;

/// The cluster layer (the `shhc` core crate).
pub use shhc as cluster;

pub use shhc::{
    BackupReport, BackupService, ClusterConfig, ClusterStats, SharedFrontend, ShhcCluster,
    SimCluster, SimClusterConfig,
};
