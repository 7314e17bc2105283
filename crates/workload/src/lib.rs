//! Synthetic fingerprint workloads matching the paper's Table I.
//!
//! The SHHC evaluation drives the cluster with fingerprint traces from
//! four real-world datasets (FIU web/home/mail traces and a six-month OS X
//! Time Machine backup), characterized in Table I by three numbers:
//! fingerprint count, % redundant, and mean duplicate distance. Those
//! traces are not publicly distributable, so this crate generates
//! synthetic traces *targeting the same three characteristics* and
//! provides the characterizer that measures them back from any trace
//! (ours or anyone's) — see DESIGN.md §2 for the substitution argument.
//!
//! - [`TraceSpec`] — target parameters (count, redundancy, distance),
//! - [`TraceGenerator`] / [`Trace`] — seeded, reproducible generation,
//! - [`presets`] — the four Table I workloads, with scaling,
//! - [`characterize`] — measures Table I's columns from a trace,
//! - [`mix`] — the "4 mixed workloads" stream used for Figures 5 and 6,
//! - [`MultiClientSpec`] — K concurrent clients (disjoint shards, paced
//!   open-loop arrivals) for the shared-front-end experiments,
//! - [`OverloadSpec`] — open-loop overload populations: thousands of
//!   simulated clients offering a fixed aggregate rate (past saturation)
//!   on precomputed arrival schedules, for the admission-control benches,
//! - [`SkewSpec`] / [`ZipfSampler`] — seeded Zipf streams of SHA-1
//!   fingerprints,
//! - [`spread_fingerprint`] / [`spread_batches`] — ring-uniform unique
//!   fingerprint streams for the wall-clock benches.
//!
//! # Examples
//!
//! ```
//! use shhc_workload::{characterize, presets};
//!
//! // 1/64-scale web-server trace (fast enough for a doctest).
//! let trace = presets::web_server().scaled(64).generate();
//! let stats = characterize(&trace.fingerprints);
//! assert!((stats.redundant_fraction - 0.18).abs() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod charact;
mod dataset;
mod generate;
mod mixer;
mod multi;
mod overload;
pub mod presets;
mod restore;
mod skew;
mod spread;

pub use charact::{characterize, TraceCharacteristics};
pub use dataset::{Dataset, DatasetSpec, MutationSpec};
pub use generate::{Trace, TraceGenerator, TraceSpec};
pub use mixer::mix;
pub use multi::MultiClientSpec;
pub use overload::{Arrival, OverloadSpec};
pub use restore::RestoreSpec;
pub use skew::{SkewSpec, ZipfSampler};
pub use spread::{spread_batches, spread_fingerprint};
