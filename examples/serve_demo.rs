//! Serving demo: concurrent encrypted classification requests coalesce
//! into one slot-packed batch, and the amortized per-image latency
//! drops strictly below what a lone request pays.
//!
//! ```text
//! cargo run --release -p examples --bin serve_demo
//! ```
//!
//! Phase 1 submits a single request and records its cost. Phase 2 fires
//! six concurrent clients at the engine; the micro-batcher coalesces
//! them (scalar-batch packing: extra images ride unused CKKS slots at
//! no additional HE cost), so the per-image cost divides by the batch
//! size. The demo asserts the coalescing actually happened (≥ 4 images
//! in one batch) and that amortization beat the lone request — CI runs
//! this binary as an acceptance check.

#![forbid(unsafe_code)]

use cnn_he::he_layers::{ConvSpec, DenseSpec};
use cnn_he::{CnnHePipeline, HeLayerSpec, HeNetwork};
use he_serve::{ServeConfig, ServeEngine};
use rand::{Rng, SeedableRng};
use std::time::Duration;

const CLIENTS: usize = 6;

/// A CNN1-shaped miniature (conv → SLAF act → dense → act → dense)
/// over 8×8 inputs, sized for the 2^10 demo ring so the whole demo
/// runs in seconds.
fn demo_network(seed: u64) -> HeNetwork {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut w = |n: usize| -> Vec<f32> { (0..n).map(|_| rng.gen_range(-0.3f32..0.3)).collect() };
    let conv = ConvSpec {
        weight: w(2 * 9),
        bias: vec![0.05, -0.05],
        in_ch: 1,
        out_ch: 2,
        k: 3,
        stride: 2,
        pad: 0,
    };
    let dense1 = DenseSpec {
        weight: w(18 * 6),
        bias: w(6),
        in_dim: 18,
        out_dim: 6,
    };
    let dense2 = DenseSpec {
        weight: w(6 * 3),
        bias: w(3),
        in_dim: 6,
        out_dim: 3,
    };
    HeNetwork {
        layers: vec![
            HeLayerSpec::Conv(conv),
            HeLayerSpec::Activation(vec![0.1, 0.6, 0.2, 0.05]),
            HeLayerSpec::Dense(dense1),
            HeLayerSpec::Activation(vec![0.0, 0.8, 0.15]),
            HeLayerSpec::Dense(dense2),
        ],
        input_side: 8,
    }
}

fn image(i: usize) -> Vec<f32> {
    (0..64)
        .map(|p| (((p * 7 + i * 13) % 31) as f32) / 31.0)
        .collect()
}

fn main() {
    let cfg = ServeConfig {
        max_batch: 8,
        max_linger: Duration::from_millis(150),
        queue_capacity: 32,
        workers: 1,
        ..Default::default()
    };
    println!(
        "starting he-serve: max_batch={}, linger={:?}, {} worker(s)",
        cfg.max_batch, cfg.max_linger, cfg.workers
    );
    let engine = ServeEngine::start(cfg, || CnnHePipeline::new(demo_network(31), 1 << 10, 31))
        .expect("the demo network must pass admission under the demo parameters");

    // ---- phase 1: a lone request pays the full batch cost itself
    let lone = engine
        .classify_blocking(image(0))
        .expect("lone request served");
    println!(
        "\nphase 1 — lone request: class {} | batch of {} | compute {:.4}s | latency {:.4}s",
        lone.prediction,
        lone.batch_size,
        lone.batch_wall.as_secs_f64(),
        lone.request_latency.as_secs_f64()
    );

    // ---- phase 2: concurrent clients share one slot-packed batch
    println!("\nphase 2 — {CLIENTS} concurrent clients ...");
    let mut results = Vec::with_capacity(CLIENTS);
    std::thread::scope(|s| {
        let engine = &engine;
        let joins: Vec<_> = (0..CLIENTS)
            .map(|i| {
                s.spawn(move || {
                    let r = engine
                        .submit(image(i))
                        .expect("queued")
                        .wait()
                        .expect("served");
                    (i, r)
                })
            })
            .collect();
        for j in joins {
            results.push(j.join().expect("client thread"));
        }
    });
    for (i, r) in &results {
        println!(
            "  client {i}: class {} | batch of {} | amortized {:.4}s",
            r.prediction,
            r.batch_size,
            r.amortized.as_secs_f64()
        );
    }

    // ---- the aha: coalescing happened and amortization beat the lone run
    let biggest = results.iter().map(|(_, r)| r.batch_size).max().unwrap();
    assert!(
        biggest >= 4,
        "expected >= 4 concurrent requests coalesced into one batch, got {biggest}"
    );
    let amortized = results
        .iter()
        .find(|(_, r)| r.batch_size == biggest)
        .map(|(_, r)| r.amortized)
        .unwrap();
    assert!(
        amortized < lone.batch_wall,
        "amortized per-image {:.4}s not below lone-request compute {:.4}s",
        amortized.as_secs_f64(),
        lone.batch_wall.as_secs_f64()
    );
    println!(
        "\ncoalesced {biggest} requests into one slot-packed batch: \
         amortized {:.4}s/image vs {:.4}s for the lone request ({:.1}x cheaper)",
        amortized.as_secs_f64(),
        lone.batch_wall.as_secs_f64(),
        lone.batch_wall.as_secs_f64() / amortized.as_secs_f64()
    );

    println!("\n{}", engine.shutdown());
}
