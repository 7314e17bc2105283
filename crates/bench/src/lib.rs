//! Shared plumbing for the experiment harnesses.
//!
//! Each bench target under `benches/` regenerates one table or figure of
//! the paper (see DESIGN.md §4 for the index) and writes a CSV sidecar
//! under `results/` at the workspace root.
//!
//! Scale knobs (environment variables):
//! - `SHHC_SCALE` — divisor applied to the Table I workloads (default
//!   16; 1 = the paper's full trace sizes),
//! - `SHHC_FIG1_REQUESTS` — request count for the Figure 1 simulator
//!   (default 100 000, the paper's value).

use std::fs::File;
use std::io::Write as _;
use std::path::PathBuf;

/// Workload scale divisor (`SHHC_SCALE`, default 16).
pub fn scale() -> usize {
    std::env::var("SHHC_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s| s > 0)
        .unwrap_or(16)
}

/// Figure-1 request count (`SHHC_FIG1_REQUESTS`, default 100 000).
pub fn fig1_requests() -> u64 {
    std::env::var("SHHC_FIG1_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(100_000)
}

/// Quick mode for the front-end concurrency bench
/// (`SHHC_FRONTEND_QUICK`): tiny client populations for a CI smoke run.
pub fn frontend_quick() -> bool {
    env_flag("SHHC_FRONTEND_QUICK")
}

/// Quick mode for the elastic-scaling bench (`SHHC_ELASTIC_QUICK`):
/// short phases and a small preload for a CI smoke run.
pub fn elastic_quick() -> bool {
    env_flag("SHHC_ELASTIC_QUICK")
}

/// Quick mode for the intra-node parallelism bench
/// (`SHHC_NODE_PARALLELISM_QUICK`): tiny streams and shard sweep for a
/// CI smoke run.
pub fn node_parallelism_quick() -> bool {
    env_flag("SHHC_NODE_PARALLELISM_QUICK")
}

/// Quick mode for the crash-recovery bench (`SHHC_RECOVERY_QUICK`):
/// small store sizes and delta sweeps for a CI smoke run.
pub fn recovery_quick() -> bool {
    env_flag("SHHC_RECOVERY_QUICK")
}

/// Quick mode for the overload/admission bench (`SHHC_OVERLOAD_QUICK`):
/// a short run at a reduced offered-load grid for a CI smoke run.
pub fn overload_quick() -> bool {
    env_flag("SHHC_OVERLOAD_QUICK")
}

/// Quick mode for the restore-at-scale bench (`SHHC_RESTORE_QUICK`):
/// tiny payloads and client counts for a CI smoke run.
pub fn restore_quick() -> bool {
    env_flag("SHHC_RESTORE_QUICK")
}

fn env_flag(name: &str) -> bool {
    std::env::var(name)
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

/// The workspace root (where `BENCH_*.json` summaries land).
fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The `results/` directory at the workspace root (created on demand).
fn results_dir() -> PathBuf {
    let dir = workspace_root().join("results");
    std::fs::create_dir_all(&dir).expect("create results directory");
    dir
}

/// Writes a machine-readable summary as `BENCH_<name>.json` at the
/// workspace root (the cross-PR perf-trajectory record).
pub fn write_bench_json(name: &str, json: &str) {
    let path = workspace_root().join(format!("BENCH_{name}.json"));
    std::fs::write(&path, json).expect("write bench json");
    println!("→ wrote {}", path.display());
}

/// Writes `rows` (plus a header) as `results/<name>.csv`.
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let path = results_dir().join(format!("{name}.csv"));
    let mut file = File::create(&path).expect("create csv");
    writeln!(file, "{header}").expect("write csv header");
    for row in rows {
        writeln!(file, "{row}").expect("write csv row");
    }
    println!("\n→ wrote {}", path.display());
}

/// Prints the standard experiment banner.
pub fn banner(id: &str, claim: &str) {
    println!("════════════════════════════════════════════════════════════════");
    println!("{id}");
    println!("paper claim: {claim}");
    println!("════════════════════════════════════════════════════════════════");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        // Env-independent sanity: parsing falls back to defaults.
        assert!(scale() >= 1);
        assert!(fig1_requests() >= 1);
    }
}
