//! Reading saved runs back: grouping result lines by workload and
//! metric, and judging two sets of runs against the bounds.

use std::collections::BTreeMap;

use crate::json::{parse, Value};
use crate::spec::{END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles, range_share, spread};

/// workload → metric → one value per run.
pub type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// One parsed result line.
pub struct ResultLine {
    pub correct: bool,
    pub attempted: f64,
    pub failed: f64,
    pub metrics: Vec<(String, f64)>,
}

pub fn parse_result(line: &str) -> Result<ResultLine, String> {
    let v = parse(line)?;
    let field = |k: &str| v.get(k).ok_or_else(|| format!("result line lacks {k:?}"));
    let metrics = field("metrics")?
        .fields()
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(Value::as_f64)
                .map(|x| (name.clone(), x))
                .ok_or_else(|| format!("metric {name:?} lacks a value"))
        })
        .collect::<Result<_, _>>()?;
    Ok(ResultLine {
        correct: field("correct")?.as_bool().ok_or("correct is not a bool")?,
        attempted: field("attempted")?
            .as_f64()
            .ok_or("attempted is not a number")?,
        failed: field("failed")?.as_f64().ok_or("failed is not a number")?,
        metrics,
    })
}

/// Adds one run's result line to `runs`. `attempted` and `failed` ride
/// along as metrics of their own so their repeatability shows too.
pub fn add_run(runs: &mut Runs, workload: &str, line: &ResultLine) {
    let per_metric = runs.entry(workload.to_string()).or_default();
    for (name, value) in &line.metrics {
        per_metric.entry(name.clone()).or_default().push(*value);
    }
    per_metric
        .entry("attempted".into())
        .or_default()
        .push(line.attempted);
    per_metric
        .entry("failed".into())
        .or_default()
        .push(line.failed);
}

/// Reads the saved standard output of any number of runs: each run's
/// `# <workload> seed …` comment names the workload its result line
/// belongs to.
pub fn read_runs(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    let mut workload: Option<&str> = None;
    for line in text.lines() {
        if let Some(comment) = line.strip_prefix("# ") {
            let first = comment.split_whitespace().next().unwrap_or("");
            if let Some(w) = WORKLOADS.iter().find(|w| w.name == first) {
                workload = Some(w.name);
            }
        } else if line.starts_with('{') {
            let w = workload.ok_or("a result line comes before any '# <workload> seed' line")?;
            add_run(&mut runs, w, &parse_result(line)?);
        }
    }
    Ok(runs)
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's
/// own direction: positive is worse.
pub fn worsening(better: &str, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        "higher" => (a - b) / a.abs(),
        _ => (b - a) / a.abs(),
    }
}

/// Quartile distance, as a share of the median, beyond which a set of
/// runs resolves nothing (UNRESOLVED), and (max − min) share beyond
/// which a row is flagged without failing.
pub const SPREAD_LIMIT: f64 = 0.10;

/// What two sets of runs are held to.
#[derive(Clone, Copy, PartialEq)]
pub enum Rule {
    /// `compare A B`, two programs: B's median may not be worse than
    /// A's by more than the bound; better is fine.
    NoRegression,
    /// `repeat`, one program twice: the medians may not differ by more
    /// than the bound in either direction.
    Agreement,
}

/// The table and verdict for two sets of runs. `ok` is false when a
/// metric's medians break `rule`, or a set's quartile distance exceeds
/// [`SPREAD_LIMIT`] (then the runs cannot resolve a change that size).
pub fn judge(a: &Runs, b: &Runs, label_a: &str, label_b: &str, rule: Rule) -> (String, bool) {
    let mut out = String::new();
    let mut ok = true;
    out.push_str(&format!(
        "| workload | metric | {label_a} median [q1, q3] | {label_b} median [q1, q3] | spread {label_a} | spread {label_b} | range / median | {label_b} worse by | bound | verdict |\n|---|---|---|---|---|---|---|---|---|---|\n"
    ));
    for w in &WORKLOADS {
        let (Some(ma), Some(mb)) = (a.get(w.name), b.get(w.name)) else {
            continue;
        };
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (ma.get(m.name), mb.get(m.name)) else {
                continue;
            };
            if va.len() < 2 || vb.len() < 2 {
                out.push_str(&format!(
                    "| {} | {} | too few runs | | | | | | | unresolved |\n",
                    w.name, m.name
                ));
                ok = false;
                continue;
            }
            let (sa, sb) = (spread(va), spread(vb));
            let worse = worsening(m.better, median(va), median(vb));
            let all: Vec<f64> = va.iter().chain(vb).copied().collect();
            let range = range_share(&all);
            let gap = match rule {
                Rule::NoRegression => worse,
                Rule::Agreement => worse.abs(),
            };
            let verdict = if gap > m.bound {
                ok = false;
                if worse > 0.0 {
                    "WORSE"
                } else {
                    "DIFFERS"
                }
            } else if sa > SPREAD_LIMIT || sb > SPREAD_LIMIT {
                ok = false;
                "UNRESOLVED"
            } else if range > SPREAD_LIMIT {
                "ok (range flagged)"
            } else {
                "ok"
            };
            let cell = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                format!("{:.6} [{:.6}, {:.6}]", median(v), q1, q3)
            };
            out.push_str(&format!(
                "| {} | {} | {} | {} | {:.4} | {:.4} | {:.4} | {:+.4} | {} | {} |\n",
                w.name,
                m.name,
                cell(va),
                cell(vb),
                sa,
                sb,
                range,
                worse,
                m.bound,
                verdict
            ));
        }
        for counted in ["attempted", "failed"] {
            if let (Some(va), Some(vb)) = (ma.get(counted), mb.get(counted)) {
                let all: Vec<f64> = va.iter().chain(vb).copied().collect();
                let same = all.iter().all(|x| *x == all[0]);
                out.push_str(&format!(
                    "| {} | {} | {} | {} | | | | | | {} |\n",
                    w.name,
                    counted,
                    median(va),
                    median(vb),
                    if same {
                        "identical in every run"
                    } else {
                        "VARIES"
                    }
                ));
                if counted == "failed" && all.iter().any(|x| *x != 0.0) {
                    ok = false;
                }
            }
        }
    }
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(work: f64) -> String {
        format!(
            r#"{{"correct": true, "attempted": 10, "failed": 0, "metrics": {{"work_per_s": {{"value": {work}, "unit": "1/s"}}, "setup_s": {{"value": 1.5, "unit": "s"}}}}}}"#
        )
    }

    fn runs(values: &[f64]) -> Runs {
        let text: String = values
            .iter()
            .map(|v| {
                format!(
                    "# lookup_cold seed 1 seconds 1 trace 0: x\n# noise\n{}\n",
                    line(*v)
                )
            })
            .collect();
        read_runs(&text).unwrap()
    }

    #[test]
    fn reads_saved_output_by_workload() {
        let r = runs(&[100.0, 101.0, 99.0]);
        assert_eq!(r["lookup_cold"]["work_per_s"], [100.0, 101.0, 99.0]);
        assert_eq!(r["lookup_cold"]["attempted"], [10.0; 3]);
        assert!(
            read_runs(&line(1.0)).is_err(),
            "a result needs its workload"
        );
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening("higher", 100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!((worsening("lower", 100.0, 80.0) + 0.2).abs() < 1e-12);
        assert_eq!(worsening("lower", 0.0, 5.0), 0.0);
    }

    #[test]
    fn judges_against_the_bound() {
        let base = runs(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        let cmp = |b: &[f64], rule| judge(&base, &runs(b), "A", "B", rule);
        let (_, ok) = cmp(&[98.0, 99.0, 97.0, 98.5, 97.5], Rule::NoRegression);
        assert!(ok, "2 % slower is inside the bound");
        let (table, ok) = cmp(&[70.0, 71.0, 69.0, 70.5, 69.5], Rule::NoRegression);
        assert!(!ok && table.contains("WORSE"));
        let (table, ok) = cmp(&[90.0, 110.0, 100.0, 92.0, 108.0], Rule::NoRegression);
        assert!(!ok && table.contains("UNRESOLVED"));
        let faster = [130.0, 131.0, 129.0, 130.5, 129.5];
        let (_, ok) = cmp(&faster, Rule::NoRegression);
        assert!(ok, "faster is never a regression");
        let (table, ok) = cmp(&faster, Rule::Agreement);
        assert!(
            !ok && table.contains("DIFFERS"),
            "but one program twice must agree both ways"
        );
    }
}
