//! Ablation (DESIGN.md §13): scalar (CryptoNets-style) packing vs packed
//! Lo-La-style packing for CNN1.
//!
//! * scalar packing — one ciphertext per neuron, a batch of images in
//!   the slots: high per-request latency, extreme amortized throughput;
//! * packed — the whole layer vector in one ciphertext, BSGS diagonal
//!   matrix products: ~2√D rotations per layer and ONE activation per
//!   layer, giving Lo-La's low single-request latency.
//!
//! Run: `cargo run --release -p bench --bin packing_ablation`
//! (reduced-profile: `RNS_CNN_LOGN=12`)

#![forbid(unsafe_code)]

use bench::harness::{self, Arch};
use cnn_he::CnnHePipeline;
use std::time::Instant;

fn main() {
    let model = harness::trained_model(Arch::Cnn1);
    let test = harness::test_set();
    let img = test.image(0);
    let log_n = harness::env_usize("RNS_CNN_LOGN", 13);
    let n = 1usize << log_n;

    println!("PACKING ABLATION — CNN1, N = 2^{log_n}\n");

    // ---------------- scalar engine --------------------------------
    eprintln!("[ablation] scalar engine inference ...");
    let mut pipe = CnnHePipeline::new(model.network.clone(), n, 31337);
    let t0 = Instant::now();
    let res = pipe.classify(&[img]);
    let scalar_wall = t0.elapsed();
    let scalar_pred = res.predictions[0];
    let slots = pipe.ctx.slots();

    // ---------------- packed path ----------------------------------
    eprintln!("[ablation] packed path: circuit + keys + operand encoding ...");
    let mut pipe = CnnHePipeline::new(model.network.clone(), n, 31338);
    pipe.enable_packed_batching()
        .expect("CNN1 packs into the ring");

    eprintln!("[ablation] packed path inference ...");
    let t1 = Instant::now();
    let res = pipe.classify(&[img]);
    let packed_wall = t1.elapsed();
    let packed_pred = res.predictions[0];

    println!("engine              | 1-image request latency | prediction");
    println!(
        "scalar (CryptoNets) | {:>21.2}s  | {scalar_pred}",
        scalar_wall.as_secs_f64()
    );
    println!(
        "packed (Lo-La)      | {:>21.2}s  | {packed_pred}",
        packed_wall.as_secs_f64()
    );
    println!(
        "\nspeed-up of packed over scalar: {:.1}×",
        scalar_wall.as_secs_f64() / packed_wall.as_secs_f64()
    );
    if let Some(stats) = pipe.compiled_stats() {
        println!(
            "(packed circuit: {} rotations in the squat-fold form, {} in the textbook BSGS form; \
             scalar amortizes over {slots} slots instead)",
            stats.compiled.rotations, stats.eager.rotations
        );
    }
    println!("\npacked per-region walls:");
    for l in &res.timing.layers {
        println!("  {}: {:.3}s", l.name, l.wall.as_secs_f64());
    }
    assert_eq!(scalar_pred, packed_pred, "engines must agree");
}
