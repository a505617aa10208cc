//! Differential decryption parity across the workspace `CkksParams`
//! presets.
//!
//! The he-diff oracle runs its full dual-world comparison on micro
//! rings where the schoolbook bignum evaluator is affordable. These
//! property tests extend the coverage to the *production* presets —
//! `tiny`, `toy`, and the paper's Table 2 parameters at N = 2¹⁴ — by
//! checking the cheap half of the claim: a ciphertext produced by a
//! random RNS op sequence must decrypt to the same values through two
//! independent arithmetic paths,
//!
//! * the production RNS pipeline (`Evaluator::decrypt_to_real`), and
//! * exact bignum arithmetic — CRT-compose `c₀`, `c₁`, and `s`, form
//!   `c₀ + c₁·s mod Q_ℓ` over [`BigInt`]s, decode once.
//!
//! The bignum path is affordable even at N = 2¹⁴ because the sparse
//! secret (Hamming weight 64) drives the schoolbook multiply.
//!
//! Also here: the CRT codec split→recompose round-trip pinned at the
//! dynamic-range boundary (±max_abs), where overflow bugs live.

#![forbid(unsafe_code)]

use ckks::bigckks::{BigCkks, BigPoly};
use ckks::params::CkksContext;
use ckks::{Ciphertext, CkksParams, Evaluator, KeyGenerator, SecretKey};
use ckks_math::sampler::Sampler;
use cnn_he::SignalDecomposition;
use he_diff::{generate, DiffOp, ROTATE_STEPS};
use proptest::prelude::*;
use rand::Rng;
use std::sync::Arc;

/// Decrypts through exact bignum arithmetic: CRT-compose the ciphertext
/// and the secret key, reduce `c₀ + c₁·s` centered mod `Q_ℓ`, decode.
fn bignum_decrypt(ctx: &Arc<CkksContext>, ct: &Ciphertext, sk: &SecretKey) -> Vec<f64> {
    let q = BigCkks::new(Arc::clone(ctx)).modulus_at(ct.level);
    let c0 = BigPoly::from_rns(ctx, &ct.c0);
    let c1 = BigPoly::from_rns(ctx, &ct.c1);
    let s = BigPoly::from_rns(ctx, &sk.s_at_level(ct.level));
    // sparse-aware: BigPoly::mul skips zero coefficients of `self`
    let m = s.mul(&c1).add(&c0).reduce_centered(&q);
    let coeffs_f: Vec<f64> = m.coeffs.iter().map(|c| c.to_f64() / ct.scale).collect();
    ctx.embedding()
        .coeffs_to_slots(&coeffs_f, ctx.slots())
        .iter()
        .map(|c| c.re)
        .collect()
}

/// Executes a generated sequence on the RNS evaluator only, returning
/// the final register file.
fn exec_rns(
    ctx: &Arc<CkksContext>,
    seed: u64,
    count: usize,
) -> (Evaluator, SecretKey, Vec<Option<Ciphertext>>) {
    let mut kg = KeyGenerator::new(Arc::clone(ctx), seed ^ 0xA11C_E5ED);
    let sk = kg.gen_secret_key();
    let pk = kg.gen_public_key(&sk);
    let rk = kg.gen_relin_key(&sk);
    let gk = kg.gen_galois_keys(&sk, &ROTATE_STEPS, false);
    let ev = Evaluator::new(Arc::clone(ctx));
    let mut enc = Sampler::from_seed_stream(seed, 1);

    let mut regs: Vec<Option<Ciphertext>> = vec![None; 5];
    for op in generate(ctx, seed, count) {
        let out = match op {
            DiffOp::Encrypt { dst, value_seed } => {
                let mut vs = Sampler::from_seed_stream(value_seed, 0);
                let vals: Vec<f64> = (0..ctx.slots())
                    .map(|_| vs.rng().gen_range(-1.0..1.0))
                    .collect();
                Some((dst, ev.encrypt_real(&vals, &pk, &mut enc)))
            }
            DiffOp::Add { dst, a, b } => Some((
                dst,
                ev.add(regs[a].as_ref().unwrap(), regs[b].as_ref().unwrap()),
            )),
            DiffOp::Sub { dst, a, b } => Some((
                dst,
                ev.sub(regs[a].as_ref().unwrap(), regs[b].as_ref().unwrap()),
            )),
            DiffOp::Negate { dst, src } => Some((dst, ev.negate(regs[src].as_ref().unwrap()))),
            DiffOp::MulRelin { dst, a, b } => Some((
                dst,
                ev.multiply(regs[a].as_ref().unwrap(), regs[b].as_ref().unwrap(), &rk),
            )),
            DiffOp::Rescale { dst, src } => Some((dst, ev.rescale(regs[src].as_ref().unwrap()))),
            DiffOp::Rotate { dst, src, steps } => {
                Some((dst, ev.rotate(regs[src].as_ref().unwrap(), steps, &gk)))
            }
            DiffOp::RotSum {
                dst,
                src,
                steps,
                value_seed,
            } => {
                let weights = he_diff::gen::rot_sum_weights(value_seed, steps.len(), ctx.slots());
                let ct = regs[src].as_ref().unwrap();
                Some((
                    dst,
                    he_diff::oracle::rot_sum(&ev, &gk, ct, &steps, &weights),
                ))
            }
            DiffOp::CrtRoundTrip { .. } => None,
        };
        if let Some((dst, ct)) = out {
            regs[dst] = Some(ct);
        }
    }
    (ev, sk, regs)
}

fn assert_parity(ctx: &Arc<CkksContext>, seed: u64, count: usize) {
    let (ev, sk, regs) = exec_rns(ctx, seed, count);
    let mut checked = 0usize;
    for (r, ct) in regs.iter().enumerate() {
        let Some(ct) = ct else { continue };
        let rns = ev.decrypt_to_real(ct, &sk);
        let big = bignum_decrypt(ctx, ct, &sk);
        for (i, (x, y)) in rns.iter().zip(&big).enumerate() {
            assert!(
                (x - y).abs() < 1e-6,
                "seed {seed} r{r} slot {i}: rns {x} vs bignum {y}"
            );
        }
        checked += 1;
    }
    assert!(checked >= 3, "sequence left too few live registers");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // tiny preset (N = 1024, depth 3): full-length random sequences.
    #[test]
    fn prop_decrypt_parity_tiny(seed in 1u64..10_000) {
        let ctx = CkksParams::tiny(3).build();
        assert_parity(&ctx, seed, 25);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // toy preset (N = 4096, depth 3).
    #[test]
    fn prop_decrypt_parity_toy(seed in 1u64..10_000) {
        let ctx = CkksParams::toy(3).build();
        assert_parity(&ctx, seed, 15);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    // The paper's Table 2 parameters (N = 2¹⁴, 13 levels): short
    // sequences, few cases — each bignum decrypt walks a 16384-coeff
    // ring.
    #[test]
    fn prop_decrypt_parity_paper_table2(seed in 1u64..10_000) {
        let ctx = CkksParams::paper_table2().build();
        assert_parity(&ctx, seed, 8);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // CRT codec round-trip pinned to the declared dynamic-range
    // boundary: every recomposition must be bit-exact at ±max_abs
    // (residue form) and at max_abs (digit form), where one-off
    // weight or centering errors show first.
    #[test]
    fn prop_crt_roundtrip_boundary_exact(
        k in 1usize..7,
        max_sel in 0usize..3,
        fill in proptest::collection::vec(-1.0f64..1.0, 16),
    ) {
        let max_abs = [255i64, 1 << 15, 1 << 30][max_sel];
        let codec = SignalDecomposition::try_new(k, max_abs).unwrap();

        // boundary-heavy signed vector: both extremes, zero, and
        // interior points scaled from the float fill
        let mut signed = vec![max_abs, -max_abs, max_abs - 1, 1 - max_abs, 0];
        signed.extend(fill.iter().map(|f| (f * max_abs as f64) as i64));
        let planes = codec.decompose_residues(&signed);
        prop_assert_eq!(codec.recompose_residues(&planes), signed.clone());

        // digit form is defined for non-negative inputs
        let unsigned: Vec<i64> = signed.iter().map(|v| v.abs()).collect();
        let digits = codec.decompose_digits(&unsigned);
        prop_assert_eq!(codec.try_recompose_digits(&digits).unwrap(), unsigned);
    }
}
