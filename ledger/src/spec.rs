//! The benchmark's contract in one place: workloads, end-to-end metrics
//! with their bounds, per-layer metrics with the end-to-end metric each
//! should move. `BENCHMARK.json`, `ledger metrics`, the README tables
//! and the result lines are all printed from these tables.

use crate::json::{number, quote};

/// Seconds one run measures at this commit on this host. The work list
/// is sized from `--seconds`, so a faster program finishes sooner
/// instead of doing more.
pub const RUN_SECONDS: u32 = 18;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ingest_bytes",
        why: "closed loop, 1 client backs up a mutating 512 MiB image: chunking, SHA-1 and chunk-store puts do the work, the index sees 98% duplicates",
    },
    Workload {
        name: "lookup_cold",
        why: "closed loop, 2048-fingerprint windows, 1 in 10 new, over a 6 M index 50x the RAM caches: tickets, codec, ring, bloom, cache misses and flash do the work",
    },
    Workload {
        name: "lookup_paced",
        why: "open loop, 50000 fingerprints/s in windows of 32 from a hot set that fits RAM: age-closed batches and ticket wake-ups set latency",
    },
    Workload {
        name: "restore_bytes",
        why: "closed loop, pipelined restore of three generations' manifests: the read side of ingest (get_many, SHA-1 verify, Bypass queries)",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
    pub definition: &'static str,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        definition: "spawn + input generation + bulk load + warm-up, wall clock, once per run",
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        definition: "closed loop: units / sum of op durations; open loop: units completed / span from first due time to last completion",
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
        definition: "median op latency over the whole run (from due time in the open loop)",
    },
    EndToEnd {
        name: "op_p90_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
        definition: "whole-run p90 of the same samples (at least 1000 ops a run, so at least 100 beyond it); p99 and the highest percentile with ten samples beyond it are in loadgen.op_p99_us and the comment lines",
    },
    EndToEnd {
        name: "stored_per_logical",
        unit: "ratio",
        better: "lower",
        bound: 0.01,
        definition: "chunk-store bytes / logical bytes on *_bytes; new index entries / fingerprints offered on lookup_*",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.10,
        definition: "VmHWM when the measured phase ends",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const ROWS_ONLY: &str = "ledger row only";

pub const PER_LAYER: [PerLayer; 65] = [
    layer(
        "hash.sha1_ns_per_kib",
        "ns/KiB",
        "lower",
        "work_per_s on ingest_bytes, restore_bytes",
    ),
    layer(
        "chunking.gear_ns_per_kib",
        "ns/KiB",
        "lower",
        "work_per_s on ingest_bytes",
    ),
    layer(
        "chunking.mean_chunk_bytes",
        "B",
        "higher",
        "work_per_s on ingest_bytes",
    ),
    layer(
        "storage.put_ns_per_kib",
        "ns/KiB",
        "lower",
        "work_per_s on ingest_bytes",
    ),
    layer(
        "storage.get_many_ns_per_kib",
        "ns/KiB",
        "lower",
        "work_per_s on restore_bytes",
    ),
    layer(
        "storage.containers",
        "count",
        "lower",
        "peak_rss_mb on *_bytes",
    ),
    layer(
        "ring.replicas_into_ns",
        "ns",
        "lower",
        "work_per_s on lookup_cold",
    ),
    layer(
        "net.submit_ns_per_fp",
        "ns/fp",
        "lower",
        "work_per_s on lookup_cold; op_p50_us on lookup_paced",
    ),
    layer(
        "net.ticket_wake_ns",
        "ns",
        "lower",
        "work_per_s on lookup_cold; op_p50_us on lookup_paced",
    ),
    layer(
        "net.encode_ns_per_fp",
        "ns/fp",
        "lower",
        "work_per_s on lookup_cold; op_p50_us on lookup_paced",
    ),
    layer(
        "net.decode_ns_per_fp",
        "ns/fp",
        "lower",
        "work_per_s on lookup_cold; op_p50_us on lookup_paced",
    ),
    layer(
        "net.batch_fill",
        "ratio",
        "higher",
        "op_p50_us, op_p90_us on lookup_paced",
    ),
    layer(
        "net.closed_by_age_share",
        "ratio",
        "lower",
        "op_p50_us, op_p90_us on lookup_paced",
    ),
    layer(
        "net.queue_delay_p50_us",
        "us",
        "lower",
        "op_p50_us on lookup_paced",
    ),
    layer(
        "net.queue_delay_p99_us",
        "us",
        "lower",
        "op_p90_us on lookup_paced",
    ),
    layer(
        "bloom.contains_ns",
        "ns",
        "lower",
        "work_per_s on lookup_cold; none on lookup_paced",
    ),
    layer(
        "bloom.insert_ns",
        "ns",
        "lower",
        "work_per_s on lookup_cold; none on lookup_paced",
    ),
    layer(
        "cache.get_hit_ns",
        "ns",
        "lower",
        "op_p50_us on lookup_paced",
    ),
    layer(
        "cache.hit_ratio",
        "ratio",
        "higher",
        "op_p50_us on lookup_paced",
    ),
    layer(
        "cache.get_miss_ns",
        "ns",
        "lower",
        "work_per_s on lookup_cold",
    ),
    layer(
        "cache.insert_evict_ns",
        "ns",
        "lower",
        "work_per_s on lookup_cold",
    ),
    layer(
        "cache.evictions_per_kop",
        "1/kop",
        "lower",
        "work_per_s on lookup_cold",
    ),
    layer(
        "flash.get_ns",
        "ns",
        "lower",
        "work_per_s, setup_s on lookup_cold",
    ),
    layer(
        "flash.get_batch_ns_per_fp",
        "ns/fp",
        "lower",
        "work_per_s on lookup_cold",
    ),
    layer(
        "flash.put_ns",
        "ns",
        "lower",
        "work_per_s, setup_s on lookup_cold",
    ),
    layer(
        "flash.pages_scanned_per_probe",
        "ratio",
        "lower",
        "work_per_s on lookup_cold",
    ),
    layer(
        "flash.coalesced_share",
        "ratio",
        "higher",
        "work_per_s on lookup_cold",
    ),
    layer(
        "flash.write_amp",
        "ratio",
        "lower",
        "work_per_s, setup_s on lookup_cold",
    ),
    layer(
        "flash.flushes",
        "count",
        "lower",
        "work_per_s, setup_s on lookup_cold",
    ),
    layer(
        "flash.compactions",
        "count",
        "lower",
        "work_per_s, setup_s on lookup_cold",
    ),
    layer(
        "flash.reads_per_kop",
        "1/kop",
        "lower",
        "work_per_s on lookup_cold; about 0 on lookup_paced",
    ),
    layer("index.single_get_ns", "ns", "lower", ROWS_ONLY),
    layer("index.striped_get_ns", "ns", "lower", ROWS_ONLY),
    layer("index.striped_insert_ns", "ns", "lower", ROWS_ONLY),
    layer(
        "node.lookup_insert_batch_ns_per_fp",
        "ns/fp",
        "lower",
        "work_per_s, setup_s on lookup_cold",
    ),
    layer(
        "node.query_many_ns_per_fp",
        "ns/fp",
        "lower",
        "work_per_s on restore_bytes",
    ),
    layer(
        "node.bloom_skip_share",
        "ratio",
        "higher",
        "work_per_s on lookup_cold",
    ),
    layer(
        "node.bloom_fp_share",
        "ratio",
        "lower",
        "work_per_s on lookup_cold",
    ),
    layer(
        "node.ram_hit_share",
        "ratio",
        "higher",
        "op_p50_us on lookup_paced",
    ),
    layer(
        "node.ssd_hit_share",
        "ratio",
        "lower",
        "work_per_s on lookup_cold",
    ),
    layer(
        "node.load_imbalance",
        "ratio",
        "lower",
        "work_per_s on lookup_cold",
    ),
    layer(
        "node.queue_peak",
        "count",
        "lower",
        "op_p90_us on lookup_paced",
    ),
    layer(
        "core.cluster_rtt_ns_per_fp",
        "ns/fp",
        "lower",
        "work_per_s on lookup_cold",
    ),
    layer(
        "core.channel_hop_ns",
        "ns",
        "lower",
        "op_p50_us on lookup_paced",
    ),
    layer(
        "core.frontend_ns_per_fp",
        "ns/fp",
        "lower",
        "work_per_s on lookup_cold",
    ),
    layer(
        "core.record_batch_ns_per_fp",
        "ns/fp",
        "lower",
        "work_per_s on ingest_bytes",
    ),
    layer(
        "core.window_rtt_p50_us",
        "us",
        "lower",
        "op_p50_us on lookup_cold",
    ),
    layer(
        "core.window_rtt_p99_us",
        "us",
        "lower",
        "op_p90_us on lookup_cold",
    ),
    layer(
        "core.backup_self_ns_per_kib",
        "ns/KiB",
        "lower",
        "work_per_s on ingest_bytes",
    ),
    layer(
        "core.restore_self_ns_per_kib",
        "ns/KiB",
        "lower",
        "work_per_s on restore_bytes",
    ),
    layer("recon.lookup_sum_ns_per_fp", "ns/fp", "lower", ROWS_ONLY),
    layer("recon.lookup_e2e_ns_per_fp", "ns/fp", "lower", ROWS_ONLY),
    layer(
        "recon.lookup_unexplained_share",
        "ratio",
        "lower",
        ROWS_ONLY,
    ),
    layer("recon.ingest_sum_ns_per_kib", "ns/KiB", "lower", ROWS_ONLY),
    layer("recon.ingest_e2e_ns_per_kib", "ns/KiB", "lower", ROWS_ONLY),
    layer(
        "recon.ingest_unexplained_share",
        "ratio",
        "lower",
        ROWS_ONLY,
    ),
    layer("recon.restore_sum_ns_per_kib", "ns/KiB", "lower", ROWS_ONLY),
    layer("recon.restore_e2e_ns_per_kib", "ns/KiB", "lower", ROWS_ONLY),
    layer(
        "recon.restore_unexplained_share",
        "ratio",
        "lower",
        ROWS_ONLY,
    ),
    layer(
        "loadgen.late_p99_us",
        "us",
        "lower",
        "op_p90_us on lookup_paced",
    ),
    layer(
        "loadgen.slo_miss_share",
        "ratio",
        "lower",
        "op_p90_us on lookup_paced",
    ),
    layer(
        "loadgen.gen_share",
        "ratio",
        "lower",
        "none: generator cost is outside every op",
    ),
    layer(
        "loadgen.op_p99_us",
        "us",
        "lower",
        "not gated: tail of the op samples",
    ),
    layer(
        "loadgen.trace_overhead_share",
        "ratio",
        "lower",
        "none: traced runs gate nothing",
    ),
    layer(
        "loadgen.host_speed_spread",
        "ratio",
        "lower",
        "none: says how evenly the host ran",
    ),
];

/// The committed `BENCHMARK.json`, byte for byte.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"ledger/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"ledger\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{comma}\n",
            quote(w.name),
            quote(w.why)
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{comma}\n",
            quote(m.name),
            quote(m.unit),
            quote(m.better),
            number(m.bound)
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{comma}\n",
            quote(m.name),
            quote(m.unit),
            quote(m.better)
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// The end-to-end table with its definitions, then the per-layer table
/// with its "should move" column.
pub fn metrics_table() -> String {
    let mut s = String::from(
        "| end-to-end metric | unit | better | bound | definition |\n|---|---|---|---|---|\n",
    );
    for m in &END_TO_END {
        s.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name, m.unit, m.better, m.bound, m.definition
        ));
    }
    s.push_str("\n| per-layer metric | unit | better | should move |\n|---|---|---|---|\n");
    for m in &PER_LAYER {
        s.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            m.name, m.unit, m.better, m.moves
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    fn name_ok(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn schema_is_the_committed_file() {
        let committed = include_str!("../../BENCHMARK.json");
        assert!(
            benchmark_json() == committed,
            "BENCHMARK.json is stale: run `ledger schema > BENCHMARK.json`"
        );
    }

    #[test]
    fn schema_obeys_the_contract_limits() {
        let v = parse(&benchmark_json()).unwrap();
        let keys: Vec<&str> = v.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used once");
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END
            .iter()
            .all(|m| unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        let better_ok = |b: &str| b == "lower" || b == "higher";
        assert!(END_TO_END.iter().all(|m| better_ok(m.better)));
        assert!(PER_LAYER.iter().all(|m| better_ok(m.better)));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(benchmark_json().len() < 64 * 1024);
        match v.get("command") {
            Some(Value::Arr(c)) => assert!(c.len() <= 32),
            _ => panic!("command is a list"),
        }
    }

    #[test]
    fn every_layer_row_says_what_it_should_move() {
        assert!(PER_LAYER.iter().all(|m| !m.moves.is_empty()));
        assert_eq!(
            metrics_table().lines().count(),
            PER_LAYER.len() + END_TO_END.len() + 5
        );
    }
}
