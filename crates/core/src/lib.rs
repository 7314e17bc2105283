//! SHHC: a scalable hybrid hash cluster for cloud backup services.
//!
//! This crate is the system of the paper — a distributed fingerprint
//! store and lookup service for inline deduplication — assembled from the
//! workspace's substrates:
//!
//! - [`ShhcCluster`] — the real multi-threaded cluster: one OS thread per
//!   hybrid hash node, wire-format RPC, consistent-hash routing, optional
//!   replication with failover, and online rebalancing on membership
//!   change,
//! - [`SharedFrontend`] — the web-front-end role of the paper's Figure 4:
//!   one cross-client batch queue many client threads submit to, each
//!   submission receiving a completion [`Ticket`](shhc_net::Ticket);
//!   batches close on size, on demand, on age (background flusher
//!   thread) or on flush, and one cluster round-trip answers every
//!   ticket. It can sit behind a bounded [`AdmissionPolicy`] (blocking
//!   backpressure or fail-fast shedding). One process is one front-end;
//!   Figure 4's several front-ends are several processes,
//! - [`BackupService`] — the end-to-end backup path: chunking →
//!   fingerprint lookup → chunk storage → manifest, plus verified
//!   restore,
//! - [`SimCluster`] — the same node data structures driven in virtual
//!   time for deterministic capacity experiments (Figures 5 and 6),
//! - [`motivation`] — the paper's own Figure 1 simulator, rebuilt on the
//!   event kernel.
//!
//! # Quick start
//!
//! ```
//! use shhc::{ClusterConfig, ShhcCluster};
//! use shhc_types::Fingerprint;
//!
//! # fn main() -> Result<(), shhc_types::Error> {
//! let cluster = ShhcCluster::spawn(ClusterConfig::small_test(2))?;
//! let fps: Vec<Fingerprint> = (0..10).map(Fingerprint::from_u64).collect();
//! let first = cluster.lookup_insert_batch(&fps)?;
//! assert!(first.iter().all(|e| !e), "all chunks are new");
//! let second = cluster.lookup_insert_batch(&fps)?;
//! assert!(second.iter().all(|e| *e), "all chunks deduplicate");
//! cluster.shutdown()?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod cluster;
pub mod motivation;
mod server;
mod service;
mod shared_frontend;
mod simcluster;

pub use client::{BackupClient, FileEntry, Snapshot, SnapshotReport};
pub use cluster::{
    Admission, ClusterConfig, ClusterStats, DataPlane, RebalanceReport, RecoveryReport, ShhcCluster,
};
pub use server::NodeSnapshot;
pub use service::{BackupReport, BackupService, DeleteReport, RestoreConfig, RestoreReport};
pub use shared_frontend::{FrontendConfig, LookupAnswer, SharedFrontend};
pub use simcluster::{SimCluster, SimClusterConfig, SimReport};

// The ticket/stats types a SharedFrontend user needs, re-exported from
// the net layer so `shhc` stays a single-dependency facade.
pub use shhc_net::{AdmissionPolicy, SharedBatcherStats, Ticket};

// Re-export the substrate APIs a downstream user needs alongside the
// cluster, so `shhc` works as a single-dependency facade.
pub use shhc_flash::{Durability, FaultPlan, WalConfig};
pub use shhc_node::{BackendKind, CachePolicy, HybridHashNode, NodeConfig, NodeStats, ShardRouter};
pub use shhc_types::{
    ChunkId, ClientId, Error, Fingerprint, Nanos, NodeId, Result, StreamId, PENDING_VALUE,
};

/// Commonly used imports for applications built on SHHC.
pub mod prelude {
    pub use crate::{
        BackupReport, BackupService, ClusterConfig, FrontendConfig, RestoreConfig, RestoreReport,
        SharedFrontend, ShhcCluster, SimCluster, SimClusterConfig,
    };
    pub use shhc_chunking::{Chunker, FixedChunker, GearChunker, RabinChunker};
    pub use shhc_node::{HybridHashNode, NodeConfig};
    pub use shhc_storage::{restore, BackupManifest, ChunkStore, FileChunkStore, MemChunkStore};
    pub use shhc_types::{Error, Fingerprint, NodeId, Result, StreamId};
    pub use shhc_workload::{characterize, mix, presets, TraceSpec};
}
