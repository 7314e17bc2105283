//! `ledger`: the repo's benchmark. See README.md.

mod bytes;
mod compare;
mod gen;
mod host;
mod json;
mod layers;
mod lookup;
mod phase;
mod repeat;
mod run;
mod span;
mod spec;
mod stats;
mod sut;

use std::process::ExitCode;

const USAGE: &str = "usage:
  ledger --workload <ingest_bytes|lookup_cold|lookup_paced|restore_bytes> --seed N --seconds N --trace <0|1>
  ledger repeat [--sets 2] [--runs 5] [--seconds N] [--seed N]
  ledger compare A.jsonl B.jsonl
  ledger layers [--seed N] [--seconds N]
  ledger schema | metrics";

/// `--name value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(name) = it.next() {
            let key = name
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {name:?}"))?;
            let value = it.next().ok_or_else(|| format!("{name} needs a value"))?;
            out.push((key.to_string(), value.clone()));
        }
        Ok(Flags(out))
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.0.iter().find(|(k, _)| k == key) {
            Some((_, v)) => v.parse().map_err(|_| format!("--{key} {v:?} is not valid")),
            None => Ok(default),
        }
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(k, _)| !allowed.contains(&k.as_str())) {
            Some((k, _)) => Err(format!("unknown flag --{k}")),
            None => Ok(()),
        }
    }
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let default_seconds = spec::RUN_SECONDS;
    match args.first().map(String::as_str) {
        Some("schema") => print!("{}", spec::benchmark_json()),
        Some("metrics") => print!("{}", spec::metrics_table()),
        Some("layers") => {
            let flags = Flags::parse(&args[1..])?;
            flags.only(&["seed", "seconds"])?;
            repeat::layers(
                flags.get("seed", 1)?,
                flags.get("seconds", default_seconds)?,
            )?;
        }
        Some("repeat") => {
            let flags = Flags::parse(&args[1..])?;
            flags.only(&["sets", "runs", "seconds", "seed"])?;
            return repeat::repeat(&repeat::RepeatArgs {
                sets: flags.get("sets", 2)?,
                runs: flags.get("runs", 5)?,
                seconds: flags.get("seconds", default_seconds)?,
                seed: flags.get("seed", 1)?,
            });
        }
        Some("compare") => {
            let [_, a, b] = args else {
                return Err(USAGE.into());
            };
            let read = |p: &String| {
                std::fs::read_to_string(p)
                    .map_err(|e| format!("{p}: {e}"))
                    .and_then(|t| compare::read_runs(&t))
            };
            let (table, ok) =
                compare::judge(&read(a)?, &read(b)?, "A", "B", compare::Rule::NoRegression);
            println!("{table}");
            return Ok(ok);
        }
        Some(first) if first.starts_with("--") => {
            let flags = Flags::parse(args)?;
            flags.only(&["workload", "seed", "seconds", "trace"])?;
            let trace: u8 = flags.get("trace", 0)?;
            if trace > 1 {
                return Err("--trace is 0 or 1".into());
            }
            let seconds: u32 = flags.get("seconds", default_seconds)?;
            if seconds == 0 {
                return Err("--seconds is at least 1".into());
            }
            run::run(&run::Args {
                workload: flags.get("workload", String::new())?,
                seed: flags.get("seed", 1)?,
                seconds,
                trace: trace == 1,
                // Traces land beside this package, inside the checkout.
                out_dir: std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
            })?;
        }
        _ => return Err(USAGE.into()),
    }
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(1)
        }
    }
}
