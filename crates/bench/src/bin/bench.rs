//! `bench` — the CI perf-regression gate around the smoke benchmark.
//!
//! ```text
//! bench                      # run the smoke suite, print tables
//! bench --json [--out DIR]   # also write BENCH_layers.json and
//!                            # BENCH_serve.json (default DIR: .)
//! bench --check BASELINE_DIR [--out DIR]
//!                            # re-run, write fresh JSON (default DIR:
//!                            # target/bench), gate against the
//!                            # committed baselines: HE op counts must
//!                            # match exactly, wall times may exceed the
//!                            # baseline by at most x1.5. Non-zero exit
//!                            # on any violation.
//! ```
//!
//! Committed `BENCH_*.json` files at the repo root form the perf
//! trajectory: regenerate them with `bench --json` whenever a PR
//! legitimately changes the circuit (op counts) and let CI catch the
//! unintentional ones.

#![forbid(unsafe_code)]

use bench::smoke::{self, SmokeReport};
use he_trace::{Align, Table};
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

fn print_tables(report: &SmokeReport) {
    let mut t = Table::new(&[
        ("component", Align::Left),
        ("median wall (s)", Align::Right),
        ("ntt", Align::Right),
        ("ct mults", Align::Right),
        ("rotations", Align::Right),
        ("rescales", Align::Right),
    ]);
    for c in &report.layers {
        t.row(vec![
            c.name.to_string(),
            format!("{:.4}", c.wall_median_s),
            c.ops.ntt_total().to_string(),
            c.ops.ct_mults.to_string(),
            c.ops.rotations.to_string(),
            c.ops.rescales.to_string(),
        ]);
    }
    let s = &report.serve;
    t.row(vec![
        format!("serve batch x{}", s.batch_size),
        format!("{:.4}", s.wall_median_s),
        s.ops.ntt_total().to_string(),
        s.ops.ct_mults.to_string(),
        s.ops.rotations.to_string(),
        s.ops.rescales.to_string(),
    ]);
    println!("\nsmoke benchmark ({} runs each, median):", s.runs);
    println!("{}", t.render());
    println!(
        "serve: {} requests -> {} batch(es), amortized {:.4}s/image",
        s.serve.enqueued, s.serve.batches, s.amortized_median_s
    );
    if !report.packed.is_empty() {
        let mut t = Table::new(&[
            ("packed batch", Align::Right),
            ("shards", Align::Right),
            ("wall (s)", Align::Right),
            ("amortized (s/img)", Align::Right),
            ("ops/img", Align::Right),
        ]);
        for p in &report.packed {
            t.row(vec![
                p.batch.to_string(),
                p.shards.to_string(),
                format!("{:.4}", p.wall_median_s),
                format!("{:.5}", p.amortized_per_image_s),
                format!("{:.0}", p.total_ops() as f64 / p.batch as f64),
            ]);
        }
        println!("packed-batch sweep (slot-packed optimized circuit):");
        println!("{}", t.render());
    }
    if !report.compiler.is_empty() {
        use bench::smoke::CompilerPoint;
        let mut t = Table::new(&[
            ("network", Align::Left),
            ("dim", Align::Right),
            ("stride", Align::Right),
            ("rot eager", Align::Right),
            ("rot compiled", Align::Right),
            ("ops eager", Align::Right),
            ("ops compiled", Align::Right),
        ]);
        for p in &report.compiler {
            t.row(vec![
                p.name.to_string(),
                p.dim.to_string(),
                p.stride.to_string(),
                p.eager.rotations.to_string(),
                p.compiled.rotations.to_string(),
                CompilerPoint::total(&p.eager).to_string(),
                CompilerPoint::total(&p.compiled).to_string(),
            ]);
        }
        println!("compiled-vs-eager lowering (static op counts):");
        println!("{}", t.render());
    }
}

fn write_json(report: &SmokeReport, dir: &Path) -> std::io::Result<(PathBuf, PathBuf)> {
    std::fs::create_dir_all(dir)?;
    let layers = dir.join("BENCH_layers.json");
    let serve = dir.join("BENCH_serve.json");
    std::fs::write(&layers, report.layers_json())?;
    std::fs::write(&serve, report.serve_json())?;
    Ok((layers, serve))
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let report = smoke::run_smoke();
    print_tables(&report);

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
            println!(
                "perf gate PASSED: op counts exact, walls within x{} of baseline",
                smoke::WALL_TOLERANCE
            );
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
