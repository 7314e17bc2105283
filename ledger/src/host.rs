//! What the host contributes to a measurement: peak memory, and a fixed
//! calibration kernel whose run-to-run spread says how evenly the
//! machine ran during a phase. Nothing here scales a result.

use std::hint::black_box;
use std::time::Instant;

use crate::gen::mix64;
use crate::stats::quantile_sorted;

/// Peak resident set (`VmHWM`) in MiB; 0 where /proc is unavailable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs the calibration kernel (a fixed chain of integer mixes, no
/// memory traffic) and returns its duration in nanoseconds.
pub fn calibration_ns() -> u64 {
    let t0 = Instant::now();
    let mut x = 1u64;
    for _ in 0..CALIBRATION_ITERS {
        x = mix64(black_box(x));
    }
    black_box(x);
    t0.elapsed().as_nanos() as u64
}

/// 75–95 µs per call on this host, so sampling it every few ops costs
/// well under 1 % of a run.
const CALIBRATION_ITERS: u32 = 16_000;

/// p90 ÷ p10 of the calibration samples: 1.0 on a perfectly even host.
pub fn speed_spread(samples: &[u64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let p10 = quantile_sorted(&sorted, 0.10);
    if p10 == 0 {
        return 1.0;
    }
    quantile_sorted(&sorted, 0.90) as f64 / p10 as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_spread_is_p90_over_p10() {
        assert_eq!(speed_spread(&[100; 10]), 1.0);
        let ramp: Vec<u64> = (1..=10).map(|i| i * 10).collect();
        assert_eq!(speed_spread(&ramp), 9.0);
    }
}
