//! `mseh-benchmark --compare <parent…> -- <change…>`: one row per
//! workload × end-to-end metric from saved runs of two commits.
//!
//! Each file holds the standard output of one or more untraced runs; a
//! run is its `# mseh-benchmark workload=…` header followed by its result
//! line. Run `i` of the change is paired with run `i` of the parent, so
//! alternate the sides when collecting them.

use crate::json;
use crate::report::END_TO_END;
use crate::stats::{paired_wins, verdict, Spread, Verdict};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Metric values per workload, in file order.
type Runs = BTreeMap<String, Vec<BTreeMap<String, f64>>>;

/// Reads every untraced run in `text` into `runs`.
fn collect(text: &str, runs: &mut Runs) -> Result<(), String> {
    let mut header: Option<(String, bool)> = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# mseh-benchmark ") {
            let field = |key: &str| {
                rest.split_whitespace()
                    .find_map(|f| f.strip_prefix(key)?.strip_prefix('='))
                    .map(str::to_string)
            };
            let workload = field("workload").ok_or("header without workload")?;
            header = Some((workload, field("trace").as_deref() == Some("1")));
        } else if line.starts_with('{') {
            let Some((workload, traced)) = header.take() else {
                continue;
            };
            if traced {
                continue;
            }
            let result = json::parse(line)?;
            if result.get("correct") != Some(&json::Value::Bool(true)) {
                return Err(format!("a {workload} run failed its correctness checks"));
            }
            let metrics = result
                .get("metrics")
                .and_then(json::Value::as_object)
                .ok_or("result without metrics")?
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                .collect();
            runs.entry(workload).or_default().push(metrics);
        }
    }
    Ok(())
}

fn load(paths: &[String]) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        collect(&text, &mut runs).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(runs)
}

fn describe(values: &[f64]) -> String {
    match Spread::of(values) {
        Some(s) => format!("{:>12.4} [{:.4}, {:.4}] n={}", s.median, s.q1, s.q3, s.n),
        None => format!("{:>12} n={}", "-", values.len()),
    }
}

/// Prints the comparison table; `true` when nothing regressed.
fn compare(parent: &Runs, change: &Runs) -> bool {
    let mut clean = true;
    for (workload, p_runs) in parent {
        let Some(c_runs) = change.get(workload) else {
            println!("{workload:<17} (no change runs)");
            continue;
        };
        for m in END_TO_END {
            let values = |runs: &[BTreeMap<String, f64>]| -> Vec<f64> {
                runs.iter().filter_map(|r| r.get(m.name).copied()).collect()
            };
            let (p, c) = (values(p_runs), values(c_runs));
            let (pairs, wins) = paired_wins(&p, &c, m.better);
            let v = verdict(&p, &c, m.better, m.bound);
            clean &= v != Verdict::Regressed;
            println!(
                "{workload:<17} {:<16} parent {}  change {}  wins {wins}/{pairs}  bound {:.0}%  {}",
                m.name,
                describe(&p),
                describe(&c),
                m.bound * 100.0,
                v.as_str()
            );
        }
    }
    clean
}

pub fn main(args: &[String]) -> ExitCode {
    let Some(split) = args.iter().position(|a| a == "--") else {
        eprintln!("usage: mseh-benchmark --compare <parent.txt…> -- <change.txt…>");
        return ExitCode::from(64);
    };
    let (parent_paths, change_paths) = (&args[..split], &args[split + 1..]);
    if parent_paths.is_empty() || change_paths.is_empty() {
        eprintln!("--compare needs at least one file on each side of --");
        return ExitCode::from(64);
    }
    match (load(parent_paths), load(change_paths)) {
        (Ok(parent), Ok(change)) => {
            if compare(&parent, &change) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_text(workload: &str, trace: u8, op_ms: f64) -> String {
        format!(
            "cli-oneshot  op_ms_p50 ...\n# mseh-benchmark workload={workload} seed=7 seconds=15 trace={trace}\n\
             {{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {{\"op_ms_p50\": {{\"value\": {op_ms}, \"unit\": \"ms\"}}}}}}\n"
        )
    }

    #[test]
    fn collects_untraced_runs_by_workload() {
        let mut runs = Runs::new();
        let text = run_text("cli-oneshot", 0, 15.0)
            + &run_text("cli-oneshot", 1, 99.0)
            + &run_text("serve-mixed", 0, 4.5);
        collect(&text, &mut runs).unwrap();
        assert_eq!(runs["cli-oneshot"].len(), 1);
        assert_eq!(runs["cli-oneshot"][0]["op_ms_p50"], 15.0);
        assert_eq!(runs["serve-mixed"][0]["op_ms_p50"], 4.5);
        let failed = run_text("cli-oneshot", 0, 1.0).replace("true", "false");
        assert!(collect(&failed, &mut runs).is_err());
    }

    #[test]
    fn a_regression_is_not_clean() {
        let mut parent = Runs::new();
        let mut slower = Runs::new();
        let mut same = Runs::new();
        for i in 0..10 {
            let jitter = f64::from(i) * 0.01;
            collect(&run_text("cli-oneshot", 0, 15.0 + jitter), &mut parent).unwrap();
            collect(&run_text("cli-oneshot", 0, 20.0 + jitter), &mut slower).unwrap();
            collect(&run_text("cli-oneshot", 0, 15.02 + jitter), &mut same).unwrap();
        }
        assert!(!compare(&parent, &slower));
        assert!(compare(&parent, &same));
    }
}
