//! What one measured phase yields, and the closed-loop driver three of
//! the four workloads share.

use std::time::Instant;

use crate::host;
use crate::span::Recorder;
use crate::stats::quantile_sorted;

/// Ops between two samples of the host calibration kernel.
const CALIBRATION_EVERY: usize = 8;

/// Raw samples of one phase. Everything a report prints derives from
/// these.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Latency of each operation, in issue order: the call's duration in
    /// a closed loop, completion minus due time in the open loop.
    pub op_ns: Vec<u64>,
    /// Work units each operation carries (fingerprints or KiB).
    pub units_per_op: Vec<f64>,
    /// Operations whose answers disagreed with the generator's oracle,
    /// or that failed outright.
    pub failed: u64,
    /// Time the denominator of `work_per_s` covers: Σ op durations in a
    /// closed loop, first due time to last completion in the open loop.
    pub busy_ns: u64,
    /// Wall clock of the whole phase, generator included.
    pub wall_ns: u64,
    /// Time spent generating and checking between operations.
    pub gen_ns: u64,
    /// Host calibration samples taken between operations.
    pub calibration: Vec<u64>,
    /// Open loop only: how late each send started after its due time.
    pub late_ns: Vec<u64>,
}

impl Phase {
    pub fn ops(&self) -> u64 {
        self.op_ns.len() as u64
    }

    pub fn units(&self) -> f64 {
        self.units_per_op.iter().sum()
    }

    /// Units per second over the whole phase.
    pub fn work_per_s(&self) -> f64 {
        self.units() / (self.busy_ns as f64 / 1e9)
    }

    pub fn op_quantile_us(&self, q: f64) -> f64 {
        self.quantile_us_of(0..self.op_ns.len(), q)
    }

    fn equal_parts(&self, parts: usize) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        let n = self.op_ns.len();
        (0..parts).map(move |k| k * n / parts..(k + 1) * n / parts)
    }

    fn quantile_us_of(&self, range: std::ops::Range<usize>, q: f64) -> f64 {
        let mut sorted = self.op_ns[range].to_vec();
        sorted.sort_unstable();
        quantile_sorted(&sorted, q) as f64 / 1e3
    }

    pub fn gen_share(&self) -> f64 {
        self.gen_ns as f64 / self.wall_ns.max(1) as f64
    }

    /// Median op latency in microseconds in each quarter of the ops, so
    /// a drifting input shows as a slope. Quarters are by op count,
    /// which repeats; by time they would not.
    pub fn quarter_p50_us(&self) -> Vec<f64> {
        self.equal_parts(4)
            .map(|r| self.quantile_us_of(r, 0.5))
            .collect()
    }

    /// Units per second of op time in each quarter of the ops (closed
    /// loop; in the open loop op times overlap and the schedule fixes
    /// the rate).
    pub fn quarter_work_per_s(&self) -> Vec<f64> {
        self.equal_parts(4)
            .map(|r| {
                let ns: u64 = self.op_ns[r.clone()].iter().sum();
                self.units_per_op[r].iter().sum::<f64>() / (ns.max(1) as f64 / 1e9)
            })
            .collect()
    }
}

/// One client, one operation in flight. `generate` builds the op's
/// input, `run` calls into the product, `check` compares the output
/// with what the generator knows; only `run` is timed as the op.
pub fn closed_loop<I, O>(
    ops: usize,
    rec: &mut Recorder,
    op_name: &'static str,
    mut generate: impl FnMut(usize) -> (I, f64),
    mut run: impl FnMut(&mut Recorder, u32, Option<u32>, &I) -> O,
    mut check: impl FnMut(&I, O) -> bool,
) -> Phase {
    let mut phase = Phase {
        op_ns: Vec::with_capacity(ops),
        units_per_op: Vec::with_capacity(ops),
        ..Phase::default()
    };
    let started = Instant::now();
    for i in 0..ops {
        let g0 = Instant::now();
        let (input, units) = generate(i);
        if i % CALIBRATION_EVERY == 0 {
            phase.calibration.push(host::calibration_ns());
        }
        let t0 = Instant::now();
        let output = rec.span(op_name, i as u32, None, |rec, id| {
            run(rec, i as u32, id, &input)
        });
        let t1 = Instant::now();
        if !check(&input, output) {
            phase.failed += 1;
        }
        let op = (t1 - t0).as_nanos() as u64;
        phase.op_ns.push(op);
        phase.units_per_op.push(units);
        phase.busy_ns += op;
        phase.gen_ns += ((t0 - g0) + t1.elapsed()).as_nanos() as u64; // generate + check
    }
    phase.wall_ns = started.elapsed().as_nanos() as u64;
    phase
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_spell_moves_the_whole_run_numbers() {
        // 160 ops of 1 ms, except a spell of 40 ops at 5 ms: the gated
        // rate halves and the p90 lands inside the spell.
        let mut op_ns = vec![1_000_000u64; 160];
        op_ns[60..100].fill(5_000_000);
        let phase = Phase {
            busy_ns: op_ns.iter().sum(),
            units_per_op: vec![10.0; 160],
            op_ns,
            ..Phase::default()
        };
        assert_eq!(phase.work_per_s(), 5_000.0);
        assert_eq!(phase.op_quantile_us(0.5), 1000.0);
        assert_eq!(phase.op_quantile_us(0.9), 5000.0);
        let q = phase.quarter_work_per_s();
        assert_eq!((q[0], q[3]), (10_000.0, 10_000.0));
        assert!(q[1] < 5_000.0 && q[2] < 5_000.0, "the quarters show where");
    }

    #[test]
    fn closed_loop_counts_and_checks() {
        let mut rec = Recorder::new(true);
        let phase = closed_loop(
            40,
            &mut rec,
            "op",
            |i| (i, 2.0),
            |_, _, _, &i| i * 2,
            |&i, out| out == i * 2 && i != 7,
        );
        assert_eq!(phase.ops(), 40);
        assert_eq!(phase.failed, 1);
        assert_eq!(phase.units(), 80.0);
        assert_eq!(phase.busy_ns, phase.op_ns.iter().sum::<u64>());
        assert!(phase.wall_ns >= phase.busy_ns);
        assert_eq!(phase.calibration.len(), 5);
        assert!(phase.work_per_s() > 0.0);
        assert!(phase.op_quantile_us(0.9) >= phase.op_quantile_us(0.5));
        assert_eq!(rec.spans().len(), 40);
        assert!(phase.quarter_p50_us().iter().all(|r| *r >= 0.0));
    }
}
