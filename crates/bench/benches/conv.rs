//! Microbenchmark: a one-layer convolution network (Eq. 1's weighted
//! sums, 16 output units) and a one-ciphertext SLAF network — the
//! building blocks whose per-unit times the Table III–VI simulation
//! schedules — each lowered, prepared and run through
//! `HeNetwork::infer_encrypted_with`.

use ckks::{CkksParams, Evaluator, KeyGenerator, SecurityLevel};
use ckks_math::sampler::Sampler;
use cnn_he::he_layers::ConvSpec;
use cnn_he::he_tensor::encrypt_image_batch;
use cnn_he::{ExecMode, HeLayerSpec, HeNetwork};
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;

fn bench_conv(c: &mut Criterion) {
    let n = 1usize << 12;
    let depth = 2usize;
    let mut chain_bits = vec![40u32];
    chain_bits.extend(std::iter::repeat_n(26, depth));
    let ctx = CkksParams {
        n,
        chain_bits,
        special_bits: vec![40],
        scale_bits: 26,
        security: SecurityLevel::None,
    }
    .build();
    let mut kg = KeyGenerator::new(Arc::clone(&ctx), 11);
    let sk = kg.gen_secret_key();
    let pk = kg.gen_public_key(&sk);
    let rk = kg.gen_relin_key(&sk);
    let ev = Evaluator::new(Arc::clone(&ctx));
    let mut s = Sampler::from_seed(12);
    let _ = sk;

    // a 10×10 single-channel image: 4×4 conv outputs of 25 MACs each
    let conv = HeNetwork {
        layers: vec![HeLayerSpec::Conv(ConvSpec {
            weight: (0..25).map(|i| (i as f32 - 12.0) * 0.03).collect(),
            bias: vec![0.1],
            in_ch: 1,
            out_ch: 1,
            k: 5,
            stride: 2,
            pad: 1,
        })],
        input_side: 10,
    };
    let img: Vec<f32> = (0..100).map(|i| (i % 7) as f32 / 7.0).collect();
    let x = encrypt_image_batch(&ev, &pk, &mut s, &[&img], 10, conv.required_levels());
    let slaf = HeNetwork {
        layers: vec![HeLayerSpec::Activation(vec![0.1, 0.5, 0.2, 0.05])],
        input_side: 1,
    };
    let z = encrypt_image_batch(&ev, &pk, &mut s, &[&[0.3]], 1, slaf.required_levels());

    let mut g = c.benchmark_group("he_conv_units_n2pow12");
    g.sample_size(10);
    g.bench_function("conv_4x4_outputs_25taps", |b| {
        b.iter(|| conv.infer_encrypted_with(&ev, &rk, x.clone(), ExecMode::sequential()));
    });
    g.bench_function("slaf_deg3_single_unit", |b| {
        b.iter(|| slaf.infer_encrypted_with(&ev, &rk, z.clone(), ExecMode::sequential()));
    });
    g.finish();
}

criterion_group!(benches, bench_conv);
criterion_main!(benches);
