//! Extension experiment (beyond the paper): amortized throughput of the
//! batched packing. The paper reports per-request latency; the scalar
//! packing classifies up to N/2 images per request at the same cost
//! (E2DM's amortization), so the amortized per-image latency is up to
//! three orders of magnitude below Table III's figures.
//!
//! Run: `cargo run --release -p bench --bin throughput`

#![forbid(unsafe_code)]

use bench::harness::{self, Arch};
use cnn_he::throughput::throughput;
use cnn_he::{CnnHePipeline, ExecMode};
use std::time::Instant;

fn main() {
    let model = harness::trained_model(Arch::Cnn1);
    let n = harness::ring_degree();
    let mut pipe = CnnHePipeline::new(model.network.clone(), n, 4242);
    let test = harness::test_set();
    let cores = harness::cores();
    let t = harness::rns_threads(cores);

    println!("CNN1 amortized throughput (N = 2^{})", n.trailing_zeros());
    println!("slots available per ciphertext: {}", pipe.ctx.slots());
    println!("(measured wall of classify on c = {cores} cores, at t = 1 and t = {t} threads)\n");

    // one batched run per thread count; reuse its wall for every batch
    // size (the homomorphic work is independent of how many slots
    // carry data)
    let batch = test.len().min(pipe.ctx.slots());
    let images: Vec<&[f32]> = (0..batch).map(|i| test.image(i)).collect();
    let mut run = |threads: usize| {
        eprintln!("[throughput] one batched inference over {batch} images at t = {threads} ...");
        pipe.set_exec_mode(ExecMode::unit_parallel(threads));
        let start = Instant::now();
        let res = pipe.classify(&images);
        (start.elapsed(), res)
    };
    let (seq_wall, _) = run(1);
    let (par_wall, res) = run(t);

    println!("            |         t = 1 thread           |      t = {t} threads");
    for b in [1usize, 8, 64, batch] {
        let (Some(seq), Some(par)) = (throughput(seq_wall, b), throughput(par_wall, b)) else {
            continue;
        };
        println!(
            "  batch {b:>4} | {:>8.2}s/req {:>9.4}s/img | {:>8.2}s/req {:>9.4}s/img",
            seq.request_latency.as_secs_f64(),
            seq.per_image.as_secs_f64(),
            par.request_latency.as_secs_f64(),
            par.per_image.as_secs_f64(),
        );
    }
    let correct = res
        .predictions
        .iter()
        .enumerate()
        .filter(|(i, &p)| p == test.labels[*i])
        .count();
    println!(
        "\nencrypted accuracy over the batch: {}/{} ({:.2}%)",
        correct,
        batch,
        correct as f64 / batch as f64 * 100.0
    );
}
