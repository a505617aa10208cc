//! Microbenchmark: CKKS-RNS scheme primitives (§II of the paper) at a
//! production-shaped parameter set (N = 2^13 keeps criterion's budget
//! reasonable on one core; scale to 2^14 with RNS_CNN_LOGN).

use ckks::{encode_real, CkksParams, Evaluator, KeyGenerator};
use ckks_math::sampler::Sampler;
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;

fn bench_ckks(c: &mut Criterion) {
    let log_n: u32 = std::env::var("RNS_CNN_LOGN")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(13);
    let n = 1usize << log_n;
    let depth = 7usize;
    let ctx = CkksParams::paper(n, depth).build();
    let mut kg = KeyGenerator::new(Arc::clone(&ctx), 9);
    let sk = kg.gen_secret_key();
    let pk = kg.gen_public_key(&sk);
    let rk = kg.gen_relin_key(&sk);
    let gk = kg.gen_galois_keys(&sk, &[1], false);
    let ev = Evaluator::new(Arc::clone(&ctx));
    let mut s = Sampler::from_seed(10);

    let vals: Vec<f64> = (0..ctx.slots()).map(|i| (i as f64 * 0.001).sin()).collect();
    let pt = encode_real(&ctx, &vals, ctx.params().scale(), ctx.max_level());
    let ct_a = ev.encrypt(&pt, &pk, &mut s);
    let ct_b = ev.encrypt(&pt, &pk, &mut s);

    let mut g = c.benchmark_group(format!("ckks_n2pow{log_n}_L{depth}"));
    g.sample_size(10);
    g.bench_function("encode", |b| {
        b.iter(|| encode_real(&ctx, &vals, ctx.params().scale(), ctx.max_level()));
    });
    g.bench_function("encrypt", |b| b.iter(|| ev.encrypt(&pt, &pk, &mut s)));
    g.bench_function("decrypt_decode", |b| {
        b.iter(|| ev.decrypt_to_real(&ct_a, &sk));
    });
    g.bench_function("add", |b| b.iter(|| ev.add(&ct_a, &ct_b)));
    g.bench_function("mul_plain", |b| b.iter(|| ev.mul_plain(&ct_a, &pt)));
    g.bench_function("mul_scalar_fastpath", |b| {
        b.iter(|| ev.mul_scalar(&ct_a, 1.2345, ctx.params().scale()));
    });
    g.bench_function("multiply_relin", |b| {
        b.iter(|| ev.multiply(&ct_a, &ct_b, &rk));
    });
    g.bench_function("rescale", |b| {
        let prod = ev.multiply(&ct_a, &ct_b, &rk);
        b.iter(|| ev.rescale(&prod));
    });
    g.bench_function("rotate_1", |b| b.iter(|| ev.rotate(&ct_a, 1, &gk)));
    g.finish();
}

criterion_group!(benches, bench_ckks);
criterion_main!(benches);
