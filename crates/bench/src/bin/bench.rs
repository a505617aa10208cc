//! `bench` — the CI perf-regression gate around the smoke benchmark.
//!
//! ```text
//! bench                      # run the smoke suite, print its counts
//!                            # (the two JSON documents)
//! bench --json [--out DIR]   # also write BENCH_layers.json and
//!                            # BENCH_serve.json (default DIR: .)
//! bench --check BASELINE_DIR [--out DIR]
//!                            # re-run, write fresh JSON (default DIR:
//!                            # target/bench), gate against the
//!                            # committed baselines: every count must
//!                            # match exactly, and the packing and
//!                            # compiler payoff gates must hold.
//!                            # Non-zero exit on any violation.
//! ```
//!
//! Committed `BENCH_*.json` files at the repo root form the perf
//! trajectory: regenerate them with `bench --json` whenever a PR
//! legitimately changes the circuit (op counts) and let CI catch the
//! unintentional ones.

#![forbid(unsafe_code)]

use bench::smoke::{self, SmokeReport};
use he_trace::json::pretty;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    json: bool,
    check: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        json: false,
        check: None,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => args.json = true,
            "--check" => {
                let dir = it.next().ok_or("--check needs a baseline directory")?;
                args.check = Some(PathBuf::from(dir));
            }
            "--out" => {
                let dir = it.next().ok_or("--out needs a directory")?;
                args.out = Some(PathBuf::from(dir));
            }
            "--help" | "-h" => {
                return Err("usage: bench [--json] [--check BASELINE_DIR] [--out DIR]".into())
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn write_json(report: &SmokeReport, dir: &Path) -> std::io::Result<(PathBuf, PathBuf)> {
    std::fs::create_dir_all(dir)?;
    let layers = dir.join("BENCH_layers.json");
    let serve = dir.join("BENCH_serve.json");
    std::fs::write(&layers, pretty(&report.layers) + "\n")?;
    std::fs::write(&serve, pretty(&report.serve) + "\n")?;
    Ok((layers, serve))
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let report = smoke::run_smoke();
    if !args.json && args.check.is_none() {
        println!("{}\n{}", pretty(&report.layers), pretty(&report.serve));
    }

    if args.json {
        let dir = args.out.clone().unwrap_or_else(|| PathBuf::from("."));
        let (l, s) = write_json(&report, &dir).map_err(|e| format!("writing JSON: {e}"))?;
        println!("wrote {} and {}", l.display(), s.display());
    }

    if let Some(baseline_dir) = &args.check {
        let out = args
            .out
            .clone()
            .unwrap_or_else(|| PathBuf::from("target/bench"));
        let (l, s) = write_json(&report, &out).map_err(|e| format!("writing JSON: {e}"))?;
        println!("fresh results: {} and {}", l.display(), s.display());

        let read = |name: &str| -> Result<String, String> {
            let p = baseline_dir.join(name);
            std::fs::read_to_string(&p)
                .map_err(|e| format!("reading baseline {}: {e}", p.display()))
        };
        let layers_baseline = read("BENCH_layers.json")?;
        let serve_baseline = read("BENCH_serve.json")?;
        let problems = smoke::check_against_baseline(&report, &layers_baseline, &serve_baseline);
        if problems.is_empty() {
            println!("perf gate PASSED: every count matches the baselines exactly");
        } else {
            eprintln!("perf gate FAILED ({} violation(s)):", problems.len());
            for p in &problems {
                eprintln!("  - {p}");
            }
            eprintln!(
                "if the circuit change is intentional, regenerate the baselines with \
                 `cargo run --release -p bench --bin bench -- --json`"
            );
            return Ok(ExitCode::FAILURE);
        }
    }

    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
