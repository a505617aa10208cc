//! Integration: cryptographic cross-validation between the RNS fast path
//! and the bignum reference, plus failure-injection checks on the scheme
//! boundary.

#![forbid(unsafe_code)]

use ckks::bigckks::{BigCkks, BigPoly};
use ckks::{CkksParams, Evaluator, KeyGenerator};
use ckks_math::sampler::Sampler;
use std::sync::Arc;

fn micro_params(depth: usize) -> CkksParams {
    CkksParams::paper(256, depth)
}

#[test]
fn rns_tensor_product_equals_bignum_tensor_product() {
    // Encrypt under the RNS scheme, convert ciphertexts to the bignum
    // world, perform the degree-2 tensor product both ways, compare
    // exactly (mod Q arithmetic is identical).
    let ctx = micro_params(2).build();
    let mut kg = KeyGenerator::new(Arc::clone(&ctx), 500);
    let sk = kg.gen_secret_key();
    let pk = kg.gen_public_key(&sk);
    let ev = Evaluator::new(Arc::clone(&ctx));
    let mut s = Sampler::from_seed(501);

    let a = ev.encrypt_real(&[0.5, -0.25, 0.125], &pk, &mut s);
    let b = ev.encrypt_real(&[0.3, 0.6, -0.9], &pk, &mut s);
    let (d0, d1, d2) = ev.tensor(&a, &b);

    let q = ctx.level_basis(a.level).big_q().clone();
    let big = |p: &ckks_math::poly::RnsPoly| BigPoly::from_rns(&ctx, p);
    let ba0 = big(&a.c0);
    let ba1 = big(&a.c1);
    let bb0 = big(&b.c0);
    let bb1 = big(&b.c1);

    let e0 = ba0.mul(&bb0).reduce_centered(&q);
    let e1 = ba0.mul(&bb1).add(&ba1.mul(&bb0)).reduce_centered(&q);
    let e2 = ba1.mul(&bb1).reduce_centered(&q);

    for (got, want) in [(&d0, &e0), (&d1, &e1), (&d2, &e2)] {
        let got_big = big(got);
        for (x, y) in got_big.coeffs.iter().zip(&want.coeffs) {
            assert_eq!(x, y, "tensor product mismatch between RNS and bignum");
        }
    }
}

#[test]
fn both_schemes_decrypt_the_same_plaintext_semantics() {
    // Encrypt the same encoded message under both schemes with the same
    // key material semantics; decrypted/decoded values must agree to
    // noise precision.
    let ctx = micro_params(1).build();
    let ev = Evaluator::new(Arc::clone(&ctx));
    let mut kg = KeyGenerator::new(Arc::clone(&ctx), 502);
    let sk = kg.gen_secret_key();
    let pk = kg.gen_public_key(&sk);
    let mut s = Sampler::from_seed(503);

    let vals: Vec<f64> = (0..32).map(|i| 0.02 * i as f64 - 0.3).collect();
    let ct = ev.encrypt_real(&vals, &pk, &mut s);
    let rns_out = ev.decrypt_to_real(&ct, &sk);

    let scheme = BigCkks::new(Arc::clone(&ctx));
    let mut s2 = Sampler::from_seed(504);
    let keys = scheme.keygen(&mut s2);
    let scale = ctx.params().scale();
    let padded: Vec<ckks_math::fft::Complex> = (0..ctx.slots())
        .map(|i| ckks_math::fft::Complex::from(if i < 32 { vals[i] } else { 0.0 }))
        .collect();
    let coeffs = ctx.embedding().slots_to_coeffs(&padded);
    let m = BigPoly {
        coeffs: coeffs
            .iter()
            .map(|&c| ckks_math::bigint::BigInt::from_f64_rounded(c * scale))
            .collect(),
    };
    let bct = scheme.encrypt_coeffs(&m, scale, &keys, &mut s2);
    let dec = scheme.decrypt_coeffs(&bct, &keys);
    let dec_f: Vec<f64> = dec.coeffs.iter().map(|c| c.to_f64() / scale).collect();
    let big_out = ctx.embedding().coeffs_to_slots(&dec_f, ctx.slots());

    for i in 0..32 {
        assert!((rns_out[i] - vals[i]).abs() < 1e-3);
        assert!((big_out[i].re - vals[i]).abs() < 1e-3);
    }
}

#[test]
fn level_exhaustion_fails_loudly() {
    let ctx = micro_params(1).build();
    let mut kg = KeyGenerator::new(Arc::clone(&ctx), 507);
    let sk = kg.gen_secret_key();
    let pk = kg.gen_public_key(&sk);
    let rk = kg.gen_relin_key(&sk);
    let ev = Evaluator::new(Arc::clone(&ctx));
    let mut s = Sampler::from_seed(508);
    let ct = ev.encrypt_real(&[0.5], &pk, &mut s);
    let c1 = ev.rescale(&ev.multiply(&ct, &ct, &rk)); // level 0 now
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        ev.rescale(&ev.multiply(&c1, &c1, &rk))
    }));
    assert!(result.is_err(), "depth overrun must panic, not corrupt");
    let _ = sk;
}

#[test]
fn serialized_ciphertext_rejected_by_wrong_context() {
    // A ciphertext serialized under one parameter set must not
    // deserialize under a context with a different ring degree.
    let ctx_a = micro_params(1).build();
    let ctx_b = CkksParams::tiny(1).build(); // N = 1024 ≠ 256
    let mut kg = KeyGenerator::new(Arc::clone(&ctx_a), 509);
    let sk = kg.gen_secret_key();
    let pk = kg.gen_public_key(&sk);
    let ev = Evaluator::new(Arc::clone(&ctx_a));
    let mut s = Sampler::from_seed(510);
    let ct = ev.encrypt_real(&[1.0], &pk, &mut s);
    let blob = ckks::serialize::serialize_ciphertext(&ct);
    assert!(
        ckks::serialize::deserialize_ciphertext(&blob, &ctx_b).is_err(),
        "cross-context deserialization must fail"
    );
}

#[test]
fn encoding_precision_budget_documented_in_table2_params() {
    // Sanity on the production parameter shape at a reduced degree: a
    // depth-7 chain of 26-bit primes keeps ~2^-13 worst-case error after
    // a CNN1-shaped multiplication chain.
    let ctx = micro_params(7).build();
    let mut kg = KeyGenerator::new(Arc::clone(&ctx), 511);
    let sk = kg.gen_secret_key();
    let pk = kg.gen_public_key(&sk);
    let rk = kg.gen_relin_key(&sk);
    let ev = Evaluator::new(Arc::clone(&ctx));
    let mut s = Sampler::from_seed(512);
    let vals: Vec<f64> = (0..16).map(|i| 0.1 + 0.05 * i as f64).collect();
    let mut ct = ev.encrypt_real(&vals, &pk, &mut s);
    let mut expect = vals.clone();
    // three squarings: depth 3 of the 7 available
    for _ in 0..3 {
        ct = ev.rescale(&ev.square(&ct, &rk));
        for v in expect.iter_mut() {
            *v *= *v;
        }
    }
    let out = ev.decrypt_to_real(&ct, &sk);
    for (o, e) in out.iter().zip(&expect).take(16) {
        assert!((o - e).abs() < 1e-3, "{o} vs {e}");
    }
}
