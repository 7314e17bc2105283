//! `ledger repeat`: the same binary run in interleaved sets, to show
//! that two sets of runs of one program agree within the benchmark's
//! own bounds before anyone trusts a difference between two programs.

use std::process::Command;

use crate::compare::{add_run, judge, parse_result, ResultLine, Rule, Runs, SPREAD_LIMIT};
use crate::spec::{PER_LAYER, WORKLOADS};

pub struct RepeatArgs {
    pub sets: usize,
    pub runs: usize,
    pub seconds: u32,
    pub seed: u64,
}

/// One workload run in a fresh process of this executable: its comment
/// lines and its parsed result line.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: u32,
    trace: bool,
) -> Result<(Vec<String>, ResultLine), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(&exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<String> = stdout.lines().map(str::to_string).collect();
    let last = lines.pop().unwrap_or_default();
    let line = parse_result(&last)?;
    if !line.correct {
        return Err(format!("{workload} seed {seed} reported correct: false"));
    }
    eprintln!("{workload} seed {seed} trace {}: {last}", u8::from(trace));
    Ok((lines, line))
}

/// `ledger layers`: one traced run of every workload, printed as the
/// layer table (a column per workload) followed by each run's comment
/// lines, which carry the span totals of its staged ops.
pub fn layers(seed: u64, seconds: u32) -> Result<(), String> {
    let mut columns = Vec::new();
    let mut comments = Vec::new();
    for w in &WORKLOADS {
        let (lines, result) = run_child(w.name, seed, seconds, true)?;
        columns.push(result.metrics);
        comments.push(lines);
    }
    print!("| per-layer metric | unit |");
    for w in &WORKLOADS {
        print!(" {} |", w.name);
    }
    println!(
        " should move |\n|---|---|{}---|",
        "---:|".repeat(WORKLOADS.len())
    );
    for m in &PER_LAYER {
        print!("| `{}` | {} |", m.name, m.unit);
        for column in &columns {
            let value = column
                .iter()
                .find(|(name, _)| name == m.name)
                .map(|(_, v)| *v);
            match value {
                Some(0.0) => print!(" 0 |"),
                Some(v) if v.abs() >= 100.0 => print!(" {v:.0} |"),
                Some(v) => print!(" {v:.4} |"),
                None => return Err(format!("a traced run printed no {}", m.name)),
            }
        }
        println!(" {} |", m.moves);
    }
    for lines in &comments {
        println!("\n```");
        for line in lines {
            println!("{line}");
        }
        println!("```");
    }
    Ok(())
}

/// Runs every workload `runs` times per set, the sets interleaved run
/// by run, each run a fresh process of this executable with a seed of
/// its own. Prints a markdown report; `Ok(false)` when the sets
/// disagree by more than a bound or a set is wider than the limit.
pub fn repeat(args: &RepeatArgs) -> Result<bool, String> {
    let mut sets: Vec<Runs> = vec![Runs::new(); args.sets];
    let mut seed = args.seed;
    for run in 0..args.runs {
        for (s, set) in sets.iter_mut().enumerate() {
            for w in &WORKLOADS {
                eprint!("run {run} set {s}: ");
                let (_, line) = run_child(w.name, seed, args.seconds, false)?;
                add_run(set, w.name, &line);
                seed += 1;
            }
        }
    }
    println!(
        "# Repeatability: {} interleaved sets x {} runs per workload, {} s each, seeds {}..{}\n",
        args.sets,
        args.runs,
        args.seconds,
        args.seed,
        seed - 1
    );
    println!(
        "Spread is the distance between the first and third quartile (Python's `statistics.quantiles(values, n=4)`) as a share of the median; range is (max - min) over all runs of both sets. A metric passes when the two medians are within its bound of each other, in either direction, and both spreads are within {SPREAD_LIMIT}; a range over {SPREAD_LIMIT} is flagged, not failed.\n"
    );
    let mut ok = true;
    for pair in sets.windows(2) {
        let (table, pair_ok) = judge(&pair[0], &pair[1], "set A", "set B", Rule::Agreement);
        println!("{table}");
        ok &= pair_ok;
    }
    println!("Verdict: {}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}
