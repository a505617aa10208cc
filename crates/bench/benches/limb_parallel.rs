//! Ablation (DESIGN.md §13): limb-level rayon parallelism of the
//! double-CRT representation — the scheme-internal face of "RNS enables
//! parallel processing". The same forward NTT runs on the default pool
//! and under `install(1)` (one thread); 8 limbs at N = 2^13 is past the
//! `kernel::limbs_fan_out` thresholds, so the default run splits limbs.
//! On a single-core host the two settings measure alike; on a
//! multi-core machine the default wins roughly ×min(limbs, cores).

use ckks_math::poly::PolyContext;
use ckks_math::poly::{Form, RnsPoly};
use ckks_math::prime::gen_moduli_chain;
use ckks_math::sampler::Sampler;
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;

fn bench_limb_parallel(c: &mut Criterion) {
    let n = 1usize << 13;
    let chain = gen_moduli_chain(&[40, 26, 26, 26, 26, 26, 26, 26], n);
    let ctx = PolyContext::new(n, chain, vec![]);
    let mut s = Sampler::from_seed(31);
    let indices: Vec<usize> = (0..8).collect();
    let poly = RnsPoly::uniform(Arc::clone(&ctx), indices, Form::Coeff, &mut s);
    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("building a width cap cannot fail");

    let mut g = c.benchmark_group("limb_parallelism_8x_n2pow13");
    g.sample_size(10);
    g.bench_function(
        &format!(
            "ntt_forward_parallel_on_{}_threads",
            rayon::current_num_threads()
        ),
        |b| {
            b.iter_batched(
                || poly.clone(),
                |mut p| p.ntt_forward(),
                criterion::BatchSize::LargeInput,
            );
        },
    );
    g.bench_function("ntt_forward_sequential", |b| {
        one_thread.install(|| {
            b.iter_batched(
                || poly.clone(),
                |mut p| p.ntt_forward(),
                criterion::BatchSize::LargeInput,
            );
        });
    });
    g.finish();
}

criterion_group!(benches, bench_limb_parallel);
criterion_main!(benches);
