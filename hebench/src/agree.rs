//! `hebench all`: every workload, untraced and traced, each run a fresh
//! child process so counters, peak RSS and CPU time are per run.
//! `hebench agree`: whether two result sets of the same code agree
//! within the benchmark's own bounds.

use crate::adapter::json::{self, Value};
use crate::report::{self, obj, text, RunResult, END_TO_END};
use crate::stats;
use crate::workloads::WORKLOADS;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode};

/// `workload → metric → one value per run`, plus failures per workload.
#[derive(Debug, Default, PartialEq)]
pub struct ResultSet {
    pub values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    pub failed: BTreeMap<String, u64>,
}

/// Lines of a child's output worth repeating: everything but the
/// environment (printed once by the parent) and the result line.
fn worth_echoing(line: &str) -> bool {
    !line.starts_with("env ") && !line.starts_with('{')
}

fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &Path,
    echo: bool,
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .arg("--out")
        .arg(out)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the run of {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "the run of {workload} ended with {}:\n{stdout}",
            output.status
        ));
    }
    if echo {
        stdout
            .lines()
            .filter(|l| worth_echoing(l))
            .for_each(|l| println!("{l}"));
    }
    RunResult::from_line(stdout.lines().last().unwrap_or_default())
}

/// Failed images of a run; a run that is incorrect for another reason
/// (op counts that did not repeat) counts as one.
fn failures(r: &RunResult) -> u64 {
    r.failed.max(u64::from(!r.correct))
}

fn one_set(seed: u64, seconds: f64, runs: usize, out: &Path) -> Result<ResultSet, String> {
    let mut set = ResultSet::default();
    for w in WORKLOADS {
        let per_metric = set.values.entry(w.name.to_string()).or_default();
        let mut failed = 0;
        for r in 0..runs {
            let t = std::time::Instant::now();
            let result = child(w.name, seed + r as u64, seconds, false, out, r == 0)?;
            failed += failures(&result);
            for (name, (value, _)) in result.metrics {
                per_metric.entry(name).or_default().push(value);
            }
            println!(
                "run {} seed {} took {:.1} s",
                w.name,
                seed + r as u64,
                t.elapsed().as_secs_f64()
            );
        }
        // per-layer numbers explain; one traced run per set is enough
        let traced = child(w.name, seed, seconds, true, out, true)?;
        failed += failures(&traced);
        for (name, (value, _)) in traced.metrics {
            per_metric.entry(name).or_default().push(value);
        }
        set.failed.insert(w.name.to_string(), failed);
    }
    Ok(set)
}

fn summary(set: &ResultSet) {
    println!("\nend-to-end medians (runs per cell in brackets)");
    for (workload, metrics) in &set.values {
        let cells: Vec<String> = END_TO_END
            .iter()
            .map(|d| {
                let v = metrics.get(d.name).map_or(&[][..], Vec::as_slice);
                format!(
                    "{} {:.6} {} [{}]",
                    d.name,
                    stats::median(v),
                    d.unit,
                    v.len()
                )
            })
            .collect();
        let failed = set.failed.get(workload).copied().unwrap_or(0);
        println!("{workload:<22} {}  failed {failed}", cells.join("  "));
    }
}

impl ResultSet {
    fn to_json(&self, seed: u64, seconds: f64) -> String {
        let env = report::environment()
            .into_iter()
            .map(|(k, v)| (k.to_string(), Value::Str(v)))
            .collect();
        let workloads = self
            .values
            .iter()
            .map(|(w, metrics)| {
                let metrics = metrics
                    .iter()
                    .map(|(name, values)| {
                        (
                            name.clone(),
                            Value::Arr(values.iter().map(|v| Value::Num(*v)).collect()),
                        )
                    })
                    .collect();
                let failed = self.failed.get(w).copied().unwrap_or(0);
                (
                    w.clone(),
                    obj(vec![
                        ("failed", Value::Num(failed as f64)),
                        ("metrics", Value::Obj(metrics)),
                    ]),
                )
            })
            .collect();
        report::to_json(&obj(vec![
            ("benchmark", text("hebench")),
            ("seed", Value::Num(seed as f64)),
            ("seconds", Value::Num(seconds)),
            ("env", Value::Obj(env)),
            ("workloads", Value::Obj(workloads)),
        ])) + "\n"
    }

    fn from_json(doc: &str) -> Result<Self, String> {
        let v = json::parse(doc)?;
        let Some(Value::Obj(workloads)) = v.get("workloads") else {
            return Err("no 'workloads' object".into());
        };
        let mut set = ResultSet::default();
        for (w, body) in workloads {
            let failed = body.get("failed").and_then(Value::as_num).unwrap_or(0.0);
            set.failed.insert(w.clone(), failed as u64);
            let Some(Value::Obj(metrics)) = body.get("metrics") else {
                return Err(format!("workload {w} has no 'metrics' object"));
            };
            let per_metric = set.values.entry(w.clone()).or_default();
            for (name, values) in metrics {
                let values = values
                    .as_arr()
                    .ok_or_else(|| format!("{w}/{name} is not a list"))?;
                per_metric.insert(
                    name.clone(),
                    values.iter().filter_map(Value::as_num).collect(),
                );
            }
        }
        Ok(set)
    }
}

pub fn run_all(
    seed: u64,
    seconds: f64,
    runs: usize,
    twice: bool,
    out: &Path,
) -> Result<ExitCode, String> {
    for (key, value) in report::environment() {
        println!("env {key} = {value}");
    }
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let names: &[&str] = if twice {
        &["result-a.json", "result-b.json"]
    } else {
        &["result.json"]
    };
    let mut sets = Vec::new();
    for name in names {
        let set = one_set(seed, seconds, runs, out)?;
        summary(&set);
        let path = out.join(name);
        std::fs::write(&path, set.to_json(seed, seconds))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("result set written to {}", path.display());
        sets.push(set);
    }
    match sets.as_slice() {
        [a, b] => Ok(compare(a, b)),
        _ => Ok(ExitCode::SUCCESS),
    }
}

pub fn compare_files(first: &Path, second: &Path) -> Result<ExitCode, String> {
    let load = |p: &Path| {
        let doc = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        ResultSet::from_json(&doc).map_err(|e| format!("{}: {e}", p.display()))
    };
    Ok(compare(&load(first)?, &load(second)?))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Agree,
    /// The run-to-run spread of either set is wider than the bound, so
    /// the medians cannot be told apart at that bound.
    Unresolved,
    Disagree,
}

/// How the second set's median of one metric stands against the first's.
pub fn verdict(better: &str, bound: f64, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse_by = match better {
        "higher" => (ma - mb) / ma.abs(),
        _ => (mb - ma) / ma.abs(),
    };
    let wide = |v: &[f64]| stats::spread(v).is_some_and(|s| s > bound);
    let verdict = if wide(a) || wide(b) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Disagree
    } else {
        Verdict::Agree
    };
    (verdict, worse_by)
}

fn compare(a: &ResultSet, b: &ResultSet) -> ExitCode {
    println!("\nworkload               metric         first        second       ratio   bound  spread a/b        verdict");
    let mut disagree = 0;
    let mut unresolved = 0;
    for (workload, metrics_a) in &a.values {
        let Some(metrics_b) = b.values.get(workload) else {
            println!("{workload:<22} missing from the second set: disagree");
            disagree += 1;
            continue;
        };
        for d in END_TO_END {
            let empty = Vec::new();
            let (va, vb) = (
                metrics_a.get(d.name).unwrap_or(&empty),
                metrics_b.get(d.name).unwrap_or(&empty),
            );
            let (v, _) = verdict(d.better, d.bound, va, vb);
            let spread =
                |v: &[f64]| stats::spread(v).map_or("-".to_string(), |s| format!("{s:.3}"));
            println!(
                "{workload:<22} {:<14} {:<12.6} {:<12.6} {:<7.3} {:<6.2} {:>7}/{:<7}   {}",
                d.name,
                stats::median(va),
                stats::median(vb),
                stats::median(vb) / stats::median(va),
                d.bound,
                spread(va),
                spread(vb),
                match v {
                    Verdict::Agree => "agree",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Disagree => "disagree",
                }
            );
            disagree += usize::from(v == Verdict::Disagree);
            unresolved += usize::from(v == Verdict::Unresolved);
        }
        // failed_share may not rise at all
        let (fa, fb) = (
            a.failed.get(workload).copied().unwrap_or(0),
            b.failed.get(workload).copied().unwrap_or(0),
        );
        if fb > fa {
            println!("{workload:<22} failed         {fa:<12} {fb:<12} any increase                      disagree");
            disagree += 1;
        }
    }
    println!("{disagree} disagree, {unresolved} unresolved");
    if disagree > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let steady = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00];
        let slower: Vec<f64> = steady.iter().map(|v| v * 1.2).collect();
        let noisy = [1.0, 1.4, 0.7, 1.3, 0.8, 1.0, 1.5, 0.6, 1.1, 0.9];
        assert_eq!(verdict("lower", 0.1, &steady, &steady).0, Verdict::Agree);
        assert_eq!(verdict("lower", 0.1, &steady, &slower).0, Verdict::Disagree);
        // getting better is never a disagreement
        assert_eq!(verdict("lower", 0.1, &slower, &steady).0, Verdict::Agree);
        assert_eq!(verdict("higher", 0.1, &steady, &slower).0, Verdict::Agree);
        assert_eq!(
            verdict("higher", 0.1, &slower, &steady).0,
            Verdict::Disagree
        );
        assert_eq!(
            verdict("lower", 0.1, &steady, &noisy).0,
            Verdict::Unresolved
        );
        // a single run has no spread: only the medians are compared
        assert_eq!(verdict("lower", 0.1, &[1.0], &[1.05]).0, Verdict::Agree);
        assert_eq!(verdict("lower", 0.1, &[1.0], &[1.2]).0, Verdict::Disagree);
    }

    #[test]
    fn result_set_round_trips() {
        let mut set = ResultSet::default();
        set.values
            .entry("serve-open".into())
            .or_default()
            .insert("request_s".into(), vec![0.123456789, 0.2]);
        set.failed.insert("serve-open".into(), 2);
        let doc = set.to_json(1, 10.0);
        assert_eq!(ResultSet::from_json(&doc), Ok(set));
        assert!(ResultSet::from_json("{}").is_err());
    }
}
