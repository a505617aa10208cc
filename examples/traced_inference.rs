//! Traced encrypted inference: run the paper's CNN1 over an encrypted
//! image with full runtime telemetry, print the per-region table, and
//! export the recorded spans as a chrome://tracing JSON file plus
//! flamegraph folded stacks. Then trace one slot-packed request that
//! spills into two shards — the path batched production traffic takes —
//! print its table and export its chrome JSON beside the first.
//!
//! Each run cross-checks its observed level/scale trajectory and op
//! counters against the lowered he-ir circuit (`trace.divergence` must
//! be empty), every region must spend non-negative headroom within its
//! shard run, and the emitted chrome-trace JSON is validated in-process;
//! the binary exits non-zero on any failure — CI runs it as the tracing
//! smoke test.
//!
//! Uses small rings (`2^10` scalar, `2^12` packed, the smallest that
//! holds a packed 28×28 image) so the demo finishes in seconds; the
//! telemetry machinery is identical at the paper's `2^14` parameters.
//!
//! Run: `cargo run --release -p examples --bin traced_inference`
//!
//! Inspect the traces: open chrome://tracing (or <https://ui.perfetto.dev>)
//! and load `target/trace-demo/trace.json` or `trace-packed.json`.

#![forbid(unsafe_code)]

use cnn_he::{CnnHePipeline, ExecMode, HeNetwork, InferenceTrace};
use neural::models::{cnn1, ActKind};
use std::path::Path;

fn main() {
    // The paper's CNN1 (conv, SLAF, dense, SLAF, dense) extracted for
    // 28×28 inputs. Untrained weights: telemetry, not accuracy, is the
    // point here.
    let net = HeNetwork::from_trained(&cnn1(ActKind::slaf3(), 7), 28);
    println!("{}", net.describe());
    let image = |k: usize| -> Vec<f32> {
        (0..784)
            .map(|i| ((i * (3 + k)) % 29) as f32 / 29.0)
            .collect()
    };
    let dir = Path::new("target").join("trace-demo");
    std::fs::create_dir_all(&dir).expect("create target/trace-demo");

    let mut pipe = CnnHePipeline::new(net.clone(), 1 << 10, 7);
    pipe.set_exec_mode(ExecMode::auto());
    let img = image(0);
    println!("running traced encrypted inference ...\n");
    let (cls, trace) = pipe.traced_infer(&[&img]).expect("admitted request");
    println!("predicted class: {}\n", cls.predictions[0]);
    check("scalar", &trace);
    println!(
        "total headroom spent: {:.1} bits (of {:.1} at encryption)\n",
        trace.noise_spent_bits(),
        trace.start_headroom_bits
    );
    let json_path = dir.join("trace.json");
    export(&trace, &json_path);
    let folded_path = dir.join("trace.folded");
    std::fs::write(&folded_path, trace.folded_stacks()).expect("write trace.folded");
    println!("folded stacks → {}\n", folded_path.display());

    // one packed request, one image past a ciphertext's lanes: 2 shards
    let mut packed = CnnHePipeline::new(net, 1 << 12, 7);
    packed.enable_packed_batching().expect("CNN1 packs at 2^12");
    let images: Vec<Vec<f32>> = (0..=packed.max_batch()).map(image).collect();
    let refs: Vec<&[f32]> = images.iter().map(Vec::as_slice).collect();
    println!(
        "running a traced 2-shard packed request ({} images) ...\n",
        refs.len()
    );
    let (_, packed_trace) = packed.traced_infer(&refs).expect("admitted batch");
    check("packed", &packed_trace);
    export(&packed_trace, &dir.join("trace-packed.json"));

    println!(
        "\nsummarize it:   cargo run --release -p he-trace -- {}",
        json_path.display()
    );
    println!(
        "or validate:    cargo run --release -p he-trace -- --validate {}",
        json_path.display()
    );
}

/// Prints a trace's table; exits non-zero when the run diverged from its
/// lowered circuit or a region spent negative headroom.
fn check(what: &str, trace: &InferenceTrace) {
    let input = (
        trace.start_level,
        trace.start_scale,
        trace.start_headroom_bits,
    );
    println!("{}", cnn_he::breakdown(&trace.layers, Some(input)));
    if !trace.divergence.is_empty() {
        eprintln!(
            "{what}: runtime diverged from the lowered circuit:\n{}",
            trace.divergence.join("\n")
        );
        std::process::exit(1);
    }
    let spends = cnn_he::spends(&trace.layers, Some(trace.start_headroom_bits));
    for (l, spent) in trace.layers.iter().zip(spends) {
        if spent.is_some_and(|b| b < -1e-9) {
            eprintln!("{what}: {} spent {spent:?} bits of headroom", l.name);
            std::process::exit(1);
        }
    }
    println!("{what}: runtime level/scale trajectory matches the lowered circuit ✓\n");
}

/// Validates a trace's chrome JSON in-process and writes it to `path`;
/// exits non-zero when no span was recorded.
fn export(trace: &InferenceTrace, path: &Path) {
    let json = trace.chrome_json().expect("span timestamps must be finite");
    let n = he_trace::validate_chrome_json(&json)
        .unwrap_or_else(|e| panic!("emitted chrome trace is invalid: {e}"));
    assert_eq!(
        n,
        trace.events.len(),
        "validator saw {n} events, recorder captured {}",
        trace.events.len()
    );
    std::fs::write(path, &json).expect("write the chrome trace");
    println!("exported {n} validated span events → {}", path.display());
    if trace.events.is_empty() {
        // tracing compiled out: the pipeline still works, but this
        // binary exists to smoke-test the instrumentation
        eprintln!("warning: no span events recorded — built without the `trace` feature?");
        std::process::exit(2);
    }
}
