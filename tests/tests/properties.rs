//! Cross-crate property tests: homomorphism laws of the full stack and
//! invariants of the RNS signal decomposition, under randomized inputs.

#![forbid(unsafe_code)]

use ckks::{CkksParams, Evaluator, KeyGenerator};
use ckks_math::sampler::Sampler;
use cnn_he::SignalDecomposition;
use proptest::prelude::*;
use std::sync::Arc;

struct Fx {
    sk: ckks::SecretKey,
    pk: ckks::PublicKey,
    rk: ckks::RelinKey,
    ev: Evaluator,
}

fn fixture(seed: u64) -> Fx {
    let ctx = CkksParams::tiny(2).build();
    let mut kg = KeyGenerator::new(Arc::clone(&ctx), seed);
    let sk = kg.gen_secret_key();
    let pk = kg.gen_public_key(&sk);
    let rk = kg.gen_relin_key(&sk);
    Fx {
        sk,
        pk,
        rk,
        ev: Evaluator::new(ctx),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn prop_addition_homomorphism(
        xs in proptest::collection::vec(-2.0f64..2.0, 8),
        ys in proptest::collection::vec(-2.0f64..2.0, 8),
    ) {
        let f = fixture(600);
        let mut s = Sampler::from_seed(601);
        let ca = f.ev.encrypt_real(&xs, &f.pk, &mut s);
        let cb = f.ev.encrypt_real(&ys, &f.pk, &mut s);
        let sum = f.ev.add(&ca, &cb);
        let out = f.ev.decrypt_to_real(&sum, &f.sk);
        for i in 0..8 {
            prop_assert!((out[i] - (xs[i] + ys[i])).abs() < 1e-3);
        }
    }

    #[test]
    fn prop_multiplication_homomorphism(
        xs in proptest::collection::vec(-1.5f64..1.5, 8),
        ys in proptest::collection::vec(-1.5f64..1.5, 8),
    ) {
        let f = fixture(602);
        let mut s = Sampler::from_seed(603);
        let ca = f.ev.encrypt_real(&xs, &f.pk, &mut s);
        let cb = f.ev.encrypt_real(&ys, &f.pk, &mut s);
        let prod = f.ev.rescale(&f.ev.multiply(&ca, &cb, &f.rk));
        let out = f.ev.decrypt_to_real(&prod, &f.sk);
        for i in 0..8 {
            prop_assert!((out[i] - xs[i] * ys[i]).abs() < 5e-3,
                "slot {}: {} vs {}", i, out[i], xs[i] * ys[i]);
        }
    }

    #[test]
    fn prop_scalar_linearity(
        xs in proptest::collection::vec(-1.0f64..1.0, 8),
        a in -3.0f64..3.0,
        b in -3.0f64..3.0,
    ) {
        let f = fixture(604);
        let mut s = Sampler::from_seed(605);
        let ct = f.ev.encrypt_real(&xs, &f.pk, &mut s);
        let scale = f.ev.ctx().params().scale();
        // a·x + b via the engine's fast scalar path
        let r = f.ev.rescale(&f.ev.mul_scalar(&ct, a, scale));
        let out_ct = f.ev.add_scalar(&r, b);
        let out = f.ev.decrypt_to_real(&out_ct, &f.sk);
        for i in 0..8 {
            prop_assert!((out[i] - (a * xs[i] + b)).abs() < 5e-3);
        }
    }

    #[test]
    fn prop_signal_decomposition_exact(
        xs in proptest::collection::vec(0i64..1_000_000, 32),
        k in 1usize..8,
    ) {
        let d = SignalDecomposition::new(k, 1_100_000);
        // digit form
        let digits = d.decompose_digits(&xs);
        prop_assert_eq!(d.recompose_digits(&digits), xs.clone());
        // residue form
        let res = d.decompose_residues(&xs);
        prop_assert_eq!(d.recompose_residues(&res), xs);
    }

    #[test]
    fn prop_residue_conv_linear_commutes(
        xs in proptest::collection::vec(0i64..256, 20),
        ws in proptest::collection::vec(-512i64..512, 3),
        k in 2usize..6,
    ) {
        let conv = |v: &[i64]| -> Vec<i64> {
            (0..v.len() - 2)
                .map(|i| (0..3).map(|j| v[i + j] * ws[j]).sum())
                .collect()
        };
        let bound = 256 * 512 * 3 * 4;
        let d = SignalDecomposition::new(k, bound);
        let direct = conv(&xs);
        let via = d.conv_residues_parallel(&xs, conv);
        prop_assert_eq!(direct, via);
    }
}
