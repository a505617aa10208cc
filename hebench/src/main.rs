//! hebench — the repository's request-level benchmark. See README.md.
//!
//! ```text
//! hebench --workload W --seed N --seconds S --trace 0|1 [--out DIR]
//! hebench all [--seed N] [--seconds S] [--runs R] [--twice] [--out DIR]
//! hebench agree A.json B.json
//! hebench manifest
//! ```

mod adapter;
mod agree;
mod inputs;
mod report;
mod stats;
mod traced;
mod workloads;

use report::{RunResult, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// `run_seconds` of BENCHMARK.json, the default of `--seconds`.
const RUN_SECONDS: u32 = 12;

struct Args {
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    twice: bool,
    out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        positional: Vec::new(),
        workload: None,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        runs: 1,
        twice: false,
        out: PathBuf::from("target/hebench"),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => a.trace = value("0 or 1")? == "1",
            "--runs" => {
                a.runs = value("a count")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--out" => a.out = PathBuf::from(value("a directory")?),
            "--twice" => a.twice = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => a.positional.push(arg.clone()),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 60.0) || a.runs == 0 {
        return Err("--seconds must be in (0, 60] and --runs at least 1".into());
    }
    Ok(a)
}

fn print_metrics(workload: &str, defs: &[report::MetricDef], r: &RunResult, samples: usize) {
    for d in defs {
        let (value, unit) = &r.metrics[d.name];
        let layer = if d.layer.is_empty() {
            "end-to-end"
        } else {
            d.layer
        };
        println!(
            "metric {workload} {layer} {} = {value} {unit} (n={samples})",
            d.name
        );
    }
}

/// One workload, one run, in this process: what the driver calls.
fn run_one(a: &Args, name: &str) -> Result<ExitCode, String> {
    let w = workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}'; known: {}", names.join(", "))
    })?;
    for (key, value) in report::environment() {
        println!("env {key} = {value}");
    }
    if let Some(load) = report::load_average() {
        if load > report::nproc() as f64 / 2.0 {
            eprintln!(
                "warning: 1-minute load average {load} exceeds half of {} cores; timings will be noisy",
                report::nproc()
            );
        }
    }
    println!("workload {} — {}; {}", w.name, w.loop_kind(), w.why);

    let result = if a.trace {
        let t = traced::run(w, a.seed, a.seconds, &a.out)?;
        println!("inputs_hash {} {:016x}", w.name, t.inputs_hash);
        for line in &t.notes {
            println!("{line}");
        }
        let r = RunResult::new(
            t.correct,
            t.tally.attempted,
            t.tally.failed(),
            PER_LAYER,
            &t.metrics,
        );
        print_metrics(w.name, PER_LAYER, &r, t.traced_requests);
        r
    } else {
        let o = workloads::run(w, a.seed, a.seconds)?;
        println!("inputs_hash {} {:016x}", w.name, o.inputs_hash);
        let n = o.tally.latencies.len();
        let supported = stats::highest_supported(n, &[50.0, 90.0])
            .map_or("none".to_string(), |p| format!("p{p}"));
        println!(
            "samples {n} timed requests in a {:.3} s phase; {} lie beyond p90; highest percentile \
             with ten samples beyond it: {supported}",
            o.phase_wall_s,
            stats::samples_beyond(n, 90.0)
        );
        println!(
            "requests attempted {} succeeded {} failed {} failed_share {} worst_logit_error {:.3e}",
            o.tally.attempted,
            o.tally.succeeded(),
            o.tally.failed(),
            o.tally.failed_share(),
            o.tally.worst_error
        );
        for (kind, count) in &o.tally.failures {
            println!("failures {kind} {count}");
        }
        if let Some(t) = &o.totals {
            println!(
                "he-serve {}: sent {} succeeded {} refused {} (engine totals with warm-up: rejected {} \
                 overloaded {} timed_out {} batches {} degradations {}); generator_late_max_s {}",
                w.loop_kind(),
                o.obs.answered.len() as u64 + o.obs.refused,
                o.obs.answered.len(),
                o.obs.refused,
                t.rejected,
                t.overloaded,
                t.timed_out,
                t.batches,
                t.degradations,
                o.obs.late_max_s()
            );
        }
        let r = RunResult::new(
            o.tally.failed() == 0,
            o.tally.attempted,
            o.tally.failed(),
            END_TO_END,
            &o.metrics,
        );
        print_metrics(w.name, END_TO_END, &r, n);
        r
    };
    println!("{}", result.to_line());
    Ok(ExitCode::SUCCESS)
}

fn dispatch(a: &Args) -> Result<ExitCode, String> {
    match (a.positional.first().map(String::as_str), &a.workload) {
        (None, Some(name)) => run_one(a, name),
        (Some("all"), None) => agree::run_all(a.seed, a.seconds, a.runs, a.twice, &a.out),
        (Some("agree"), None) => match a.positional.as_slice() {
            [_, first, second] => agree::compare_files(Path::new(first), Path::new(second)),
            _ => Err("usage: hebench agree A.json B.json".into()),
        },
        (Some("manifest"), None) => {
            print!("{}", report::manifest());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(
            "usage: hebench --workload W --seed N --seconds S --trace 0|1 [--out DIR]\n       \
                  hebench all [--seed N] [--seconds S] [--runs R] [--twice] [--out DIR]\n       \
                  hebench agree A.json B.json\n       hebench manifest"
                .into(),
        ),
    }
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("hebench refuses to measure a debug build: run it with `cargo run --release`");
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv).and_then(|a| dispatch(&a)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("hebench: {e}");
            ExitCode::from(2)
        }
    }
}
