//! Traced encrypted inference: run the paper's CNN1 over an encrypted
//! image with full runtime telemetry, print the per-layer breakdown and
//! noise-drain tables, and export the recorded spans as a
//! chrome://tracing JSON file plus flamegraph folded stacks.
//!
//! The run cross-checks its observed level/scale trajectory and op
//! counters against the lowered he-ir circuit (`trace.divergence` must
//! be empty) and validates
//! the emitted chrome-trace JSON in-process, exiting non-zero on any
//! mismatch — CI runs this as the tracing smoke test.
//!
//! Uses a toy `2^10` ring so the whole demo finishes in seconds; the
//! telemetry machinery is identical at the paper's `2^14` parameters.
//!
//! Run: `cargo run --release -p examples --bin traced_inference`
//!
//! Inspect the trace: open chrome://tracing (or <https://ui.perfetto.dev>)
//! and load `target/trace-demo/trace.json`.

#![forbid(unsafe_code)]

use cnn_he::{CnnHePipeline, ExecMode, HeNetwork};
use neural::models::{cnn1, ActKind};
use std::path::Path;

fn main() {
    // The paper's CNN1 (conv, SLAF, dense, SLAF, dense) extracted for
    // 28×28 inputs. Untrained weights: telemetry, not accuracy, is the
    // point here.
    let net = HeNetwork::from_trained(&cnn1(ActKind::slaf3(), 7), 28);
    println!("{}", net.describe());

    let mut pipe = CnnHePipeline::new(net, 1 << 10, 7);
    pipe.set_exec_mode(ExecMode::auto());
    let img: Vec<f32> = (0..784).map(|i| ((i * 3) % 29) as f32 / 29.0).collect();

    println!("running traced encrypted inference ...\n");
    let (cls, trace) = pipe.traced_infer(&[&img]);
    println!("predicted class: {}\n", cls.predictions[0]);

    // ---- per-layer breakdown --------------------------------------
    println!("{}", trace.report().breakdown());

    // ---- noise drain ----------------------------------------------
    println!("{}", trace.noise_drain());
    println!(
        "total headroom spent: {:.1} bits (of {:.1} at encryption)\n",
        trace.noise_spent_bits(),
        trace.start_headroom_bits
    );

    // ---- runtime ↔ static cross-check -----------------------------
    assert!(
        trace.divergence.is_empty(),
        "runtime diverged from the lowered circuit:\n{}",
        trace.divergence.join("\n")
    );
    println!("runtime level/scale trajectory matches the lowered circuit ✓");

    // ---- export ----------------------------------------------------
    let dir = Path::new("target").join("trace-demo");
    std::fs::create_dir_all(&dir).expect("create target/trace-demo");

    let json = trace.chrome_json().expect("span timestamps must be finite");
    let n = he_trace::validate_chrome_json(&json)
        .unwrap_or_else(|e| panic!("emitted chrome trace is invalid: {e}"));
    assert_eq!(
        n,
        trace.events.len(),
        "validator saw {n} events, recorder captured {}",
        trace.events.len()
    );
    let json_path = dir.join("trace.json");
    std::fs::write(&json_path, &json).expect("write trace.json");

    let folded = trace.folded_stacks();
    let folded_path = dir.join("trace.folded");
    std::fs::write(&folded_path, &folded).expect("write trace.folded");

    println!(
        "exported {} span events ({} validated) → {}",
        trace.events.len(),
        n,
        json_path.display()
    );
    println!("folded stacks → {}", folded_path.display());
    if trace.events.is_empty() {
        // tracing compiled out: the pipeline still works, but this
        // binary exists to smoke-test the instrumentation
        eprintln!("warning: no span events recorded — built without the `trace` feature?");
        std::process::exit(2);
    }
    println!(
        "\nsummarize it:   cargo run --release -p he-trace -- {}",
        json_path.display()
    );
    println!(
        "or validate:    cargo run --release -p he-trace -- --validate {}",
        json_path.display()
    );
}
