//! `he-diff` — differential oracle runner.
//!
//! ```text
//! he-diff run [--seed S] [--ops N] [--preset NAME|all] [--safety F] [--minimize] [--ir]
//! he-diff presets
//! ```
//!
//! Exits 0 when every checked sequence agrees within the analytic
//! bound, 1 on a divergence (printing a replay line), 2 on bad usage.

#![forbid(unsafe_code)]

use he_diff::oracle::Harness;
use he_diff::{generate, minimize, presets, DiffConfig, Divergence};
use std::sync::Arc;

fn main() {
    std::process::exit(run(std::env::args().skip(1).collect()));
}

fn run(args: Vec<String>) -> i32 {
    let mut it = args.into_iter();
    let Some(cmd) = it.next() else {
        eprintln!("{USAGE}");
        return 2;
    };
    match cmd.as_str() {
        "presets" => {
            for p in presets() {
                println!(
                    "{:8} n={:5} chain={:?} scale=2^{}",
                    p.name, p.params.n, p.params.chain_bits, p.params.scale_bits
                );
            }
            0
        }
        "run" => run_cmd(it.collect()),
        "-h" | "--help" => {
            eprintln!("{USAGE}");
            0
        }
        other => {
            eprintln!("unknown command `{other}`\n{USAGE}");
            2
        }
    }
}

fn run_cmd(args: Vec<String>) -> i32 {
    let mut seed = 1u64;
    let mut ops_count = 100usize;
    let mut preset_name = "all".to_string();
    let mut cfg = DiffConfig::default();
    let mut shrink = false;
    let mut ir = false;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let num = |name: &str, it: &mut dyn Iterator<Item = String>| {
            it.next()
                .and_then(|s| s.parse::<f64>().ok())
                .ok_or_else(|| eprintln!("{name} needs a number"))
        };
        match arg.as_str() {
            "--seed" => match num("--seed", &mut it) {
                Ok(v) => seed = v as u64,
                Err(()) => return 2,
            },
            "--ops" => match num("--ops", &mut it) {
                Ok(v) => ops_count = v as usize,
                Err(()) => return 2,
            },
            "--safety" => match num("--safety", &mut it) {
                Ok(v) => cfg.safety = v,
                Err(()) => return 2,
            },
            "--preset" => {
                let Some(v) = it.next() else {
                    eprintln!("--preset needs a name (or `all`)");
                    return 2;
                };
                preset_name = v;
            }
            "--minimize" => shrink = true,
            "--ir" => ir = true,
            _ => {
                eprintln!("unknown flag `{arg}`\n{USAGE}");
                return 2;
            }
        }
    }

    let selected: Vec<_> = if preset_name == "all" {
        presets()
    } else {
        match he_diff::preset(&preset_name) {
            Some(p) => vec![p],
            None => {
                eprintln!(
                    "unknown preset `{preset_name}` (have: {})",
                    presets()
                        .iter()
                        .map(|p| p.name)
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                return 2;
            }
        }
    };

    let mut failed = false;
    for p in &selected {
        let ctx = p.params.clone().build();
        let ops = generate(&ctx, seed, ops_count);
        let mut harness = Harness::new(Arc::clone(&ctx), seed);
        match harness.run(&ops, &cfg) {
            Ok(report) => println!(
                "{:8} seed={seed} ops={} checks={} worst_ratio={:.3} ok",
                p.name, report.ops, report.checks, report.worst_ratio
            ),
            Err(div) => {
                failed = true;
                report_divergence(p.name, seed, ops_count, &div);
                if shrink {
                    let min = minimize(&ctx, &ops, div.op_index, |candidate| {
                        Harness::new(Arc::clone(&ctx), seed)
                            .run(candidate, &cfg)
                            .is_err()
                    });
                    println!("minimal reproducing sequence ({} op(s)):", min.len());
                    for op in &min {
                        println!("    {}", op.render());
                    }
                }
            }
        }
        if ir {
            match he_diff::run_ir_vs_eager(&ctx, seed, ops_count) {
                Ok(r) => println!(
                    "{:8} ir: {} register write(s) bit-identical across {} IR node(s) ok",
                    p.name, r.compares, r.nodes
                ),
                Err(e) => {
                    failed = true;
                    println!("{:8} IR DIVERGENCE: {e}", p.name);
                    println!(
                        "replay: he-diff run --seed {seed} --ops {ops_count} --preset {} --ir",
                        p.name
                    );
                }
            }
        }
    }
    i32::from(failed)
}

fn report_divergence(preset: &str, seed: u64, ops: usize, div: &Divergence) {
    println!("{preset:8} DIVERGENCE: {div}");
    println!("replay: he-diff run --seed {seed} --ops {ops} --preset {preset} --minimize");
}

const USAGE: &str = "usage: he-diff <command>

commands:
    run [--seed S] [--ops N] [--preset NAME|all] [--safety F] [--minimize] [--ir]
        Generate a seeded op sequence and execute it on the production
        RNS evaluator and the bignum CKKS reference simultaneously,
        checking both against the analytic noise bound after every op.
        With --minimize, a divergence is shrunk to a minimal
        reproducing op list before reporting. With --ir, the sequence
        is additionally lowered to the he-ir circuit IR and interpreted
        with the same keys, demanding bit-identical ciphertexts at
        every register write.
    presets
        List the oracle's parameter presets.

Exit status: 0 all sequences agree, 1 divergence, 2 bad input.";
