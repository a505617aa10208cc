//! Microbenchmark: the paper's core motivation — multiprecision vs RNS
//! arithmetic. Compares schoolbook bignum negacyclic polynomial
//! multiplication (the "original CKKS relies on a multi-precision
//! library" baseline) against double-CRT multiplication at the same
//! total modulus width, plus the RNS basis primitives.

use ckks::bigckks::BigPoly;
use ckks::CkksParams;
use ckks_math::poly::{Form, RnsPoly};
use ckks_math::rns::{FastBaseConverter, RnsBasis};
use ckks_math::sampler::Sampler;
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;

fn bench_bignum_vs_rns(c: &mut Criterion) {
    let mut g = c.benchmark_group("mult_multiprecision_vs_rns");
    g.sample_size(10);

    // N = 512 keeps the O(N²) bignum path inside a criterion budget; the
    // asymptotic gap only grows with N (bignum is O(N²·w²) vs O(k·N log N)).
    let ctx = CkksParams::paper(512, 3).build();
    let mut s = Sampler::from_seed(5);
    let level = 3usize;
    let indices: Vec<usize> = (0..=level).collect();
    let a = RnsPoly::uniform(
        Arc::clone(ctx.poly_ctx()),
        indices.clone(),
        Form::Coeff,
        &mut s,
    );
    let b = RnsPoly::uniform(Arc::clone(ctx.poly_ctx()), indices, Form::Coeff, &mut s);
    let big_a = BigPoly::from_rns(&ctx, &a);
    let big_b = BigPoly::from_rns(&ctx, &b);
    let q = ctx.level_basis(level).big_q().clone();

    g.bench_function("bignum_schoolbook_n512_118bit", |bch| {
        bch.iter(|| big_a.mul(&big_b).reduce_centered(&q));
    });
    g.bench_function("rns_ntt_n512_4limbs", |bch| {
        bch.iter(|| {
            let mut x = a.clone();
            let mut y = b.clone();
            x.ntt_forward();
            y.ntt_forward();
            x.mul_assign(&y);
            x.ntt_inverse();
            x
        });
    });
    g.finish();

    // RNS basis primitives
    let mut g = c.benchmark_group("rns_basis");
    g.sample_size(20);
    let basis = RnsBasis::new(ckks_math::prime::gen_moduli_chain(
        &[40, 40, 40, 40, 40],
        1 << 10,
    ));
    let residues = basis.decompose_i64(123_456_789_012_345);
    g.bench_function("compose_centered_5x40bit", |bch| {
        bch.iter(|| basis.compose_centered(&residues));
    });
    let target = ckks_math::prime::gen_moduli_chain(&[50, 50], 1 << 10);
    g.bench_function("fast_base_conversion_5to2", |bch| {
        bch.iter(|| basis.convert_to(&residues, &target));
    });
    // the limb-wise conversion key switching runs, over whole N = 2^10
    // limbs of the same bases: divide by 1024 for the per-coefficient
    // cost beside `convert_to`'s
    let n = 1 << 10;
    let conv = FastBaseConverter::new(basis.moduli(), &target);
    let backend = ckks_math::kernel::active_backend();
    let mut s = Sampler::from_seed(6);
    let limbs: Vec<u64> = basis
        .moduli()
        .iter()
        .flat_map(|m| s.uniform_limb(n, m))
        .collect();
    g.bench_function("limbwise_base_conversion_5to2_n1024", |bch| {
        let mut dst = vec![0u64; n];
        bch.iter(|| {
            let mut scaled = limbs.clone();
            for (i, limb) in scaled.chunks_mut(n).enumerate() {
                conv.scale_input(backend, i, limb);
            }
            for t in 0..target.len() {
                conv.convert_into(backend, &scaled, t, &mut dst);
            }
            dst[0]
        });
    });
    g.finish();
}

criterion_group!(benches, bench_bignum_vs_rns);
criterion_main!(benches);
