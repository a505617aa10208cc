//! The parallel execution engine on a CNN1-shaped conv layer: a
//! unit-thread sweep 1/2/4/8 over a one-layer conv network run through
//! `HeNetwork::infer_encrypted_with` (same network, same ciphertexts —
//! only `ExecMode`'s width cap changes; outputs are bit-identical), and
//! the tracing overhead on the same run.
//!
//! Results land in `bench_results/layer_parallel.txt`. On a single-core
//! host the thread sweep is expected flat (threads timeshare one CPU).

use ckks::{CkksParams, Evaluator, KeyGenerator};
use ckks_math::sampler::Sampler;
use cnn_he::he_layers::ConvSpec;
use cnn_he::he_tensor::encrypt_image_batch;
use cnn_he::{ExecMode, HeLayerSpec, HeNetwork};
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;

fn bench_layer_parallel(c: &mut Criterion) {
    let n = 1usize << 12;
    let depth = 2usize;
    let ctx = CkksParams::paper(n, depth).build();
    let mut kg = KeyGenerator::new(Arc::clone(&ctx), 21);
    let sk = kg.gen_secret_key();
    let pk = kg.gen_public_key(&sk);
    let rk = kg.gen_relin_key(&sk);
    let ev = Evaluator::new(Arc::clone(&ctx));
    let mut s = Sampler::from_seed(22);
    let _ = sk;

    // CNN1's conv geometry (5 maps, 5×5 kernel, stride 2, pad 1) on a
    // reduced 14×14 input so one sweep point stays in bench budget:
    // 5 × 6×6 = 180 output units, 25 taps each.
    let side = 14;
    let net = HeNetwork {
        layers: vec![HeLayerSpec::Conv(ConvSpec {
            weight: (0..5 * 25)
                .map(|i| ((i % 25) as f32 - 12.0) * 0.03)
                .collect(),
            bias: vec![0.1, -0.1, 0.05, 0.0, 0.2],
            in_ch: 1,
            out_ch: 5,
            k: 5,
            stride: 2,
            pad: 1,
        })],
        input_side: side,
    };
    let img: Vec<f32> = (0..side * side).map(|i| (i % 11) as f32 / 11.0).collect();
    let x = encrypt_image_batch(&ev, &pk, &mut s, &[&img], side, net.required_levels());
    let run = |mode: ExecMode| net.infer_encrypted_with(&ev, &rk, x.clone(), mode);

    let mut g = c.benchmark_group("conv_unit_threads");
    g.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        let mode = ExecMode::unit_parallel(threads);
        g.bench_function(&format!("threads_{threads}"), |b| b.iter(|| run(mode)));
    }
    g.finish();

    // Tracing overhead on the same conv layer: counters-only (idle, no
    // session recording) vs a live TraceSession capturing spans. The
    // budget is <2% over idle; a `--no-default-features` build removes
    // even the idle cost (compile-time no-ops), which cannot be
    // measured from this binary since it is built with tracing on.
    let mut g = c.benchmark_group("trace_overhead");
    g.sample_size(10);
    g.bench_function("tracing_idle", |b| {
        b.iter(|| run(ExecMode::sequential()));
    });
    g.bench_function("tracing_recording", |b| {
        b.iter(|| {
            let session = he_trace::TraceSession::begin();
            let out = run(ExecMode::sequential());
            criterion::black_box(session.finish());
            out
        });
    });
    g.finish();
}

criterion_group!(benches, bench_layer_parallel);
criterion_main!(benches);
