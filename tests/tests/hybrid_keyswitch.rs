//! Hybrid key switching end to end: a context with two special primes
//! rotates and relinearizes within the noise model's bound at every
//! level, and key generation is pinned byte for byte — with one special
//! prime to the one-limb-per-digit (GHS) keys, with two to the keys the
//! coefficient-domain Galois keygen produced.

use ckks::{parse_params, Evaluator, KeyGenerator, KeySwitchKey};
use ckks_math::fft::Complex;
use ckks_math::sampler::Sampler;
use he_ir::NoiseModel;
use std::ops::Range;
use std::sync::Arc;

/// A chain of four limbs over two 40-bit special primes: digits
/// `{q0,q1}, {q2,q3}`. Rotating or relinearizing here once tripped the
/// one-special-limb mod-down.
const TWO_SPECIAL: &str =
    "n = 4096\nchain_bits = 40 26 26 26\nspecial_bits = 40 40\nscale_bits = 26\n";

fn max_err(got: &[Complex], want: &[Complex]) -> f64 {
    got.iter()
        .zip(want)
        .map(|(a, b)| (*a - *b).abs())
        .fold(0.0, f64::max)
}

#[test]
fn two_special_primes_rotate_and_relinearize_within_the_noise_bound() {
    let params = parse_params(TWO_SPECIAL).expect("the file parses");
    let model = NoiseModel::new(&params);
    let ctx = params.build();
    assert_eq!(ctx.special_moduli().len(), 2);
    assert_eq!(ctx.digit_partition(), &[0..2, 2..4]);
    let mut kg = KeyGenerator::new(Arc::clone(&ctx), 3);
    let sk = kg.gen_secret_key();
    let pk = kg.gen_public_key(&sk);
    let rk = kg.gen_relin_key(&sk);
    let gk = kg.gen_galois_keys(&sk, &[1, 5], false);
    let ev = Evaluator::new(Arc::clone(&ctx));
    let mut sampler = Sampler::from_seed(4);

    let slots = ctx.slots();
    let vals: Vec<Complex> = (0..slots)
        .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos() * 0.5))
        .collect();
    let scale = ctx.params().scale();
    let pt = ckks::encode(&ctx, &vals, scale, ctx.max_level());
    let top = ev.encrypt(&pt, &pk, &mut sampler);
    let fresh = model.fresh_value(scale);
    for level in 1..=ctx.max_level() {
        let ct = ev.mod_switch_to_level(&top, level);
        for steps in [1usize, 5] {
            let want: Vec<Complex> = (0..slots).map(|i| vals[(i + steps) % slots]).collect();
            let got = ev.decrypt_to_complex(&ev.rotate(&ct, steps as i64, &gk), &sk);
            let (err, bound) = (max_err(&got, &want), model.rotate_value(fresh, scale));
            assert!(
                err < bound,
                "rotate {steps} at level {level}: {err} ≥ {bound}"
            );
        }
        let want: Vec<Complex> = vals.iter().map(|v| *v * *v).collect();
        let got = ev.decrypt_to_complex(&ev.multiply(&ct, &ct, &rk), &sk);
        let bound = model.mul_value(1.2, fresh, 1.2, fresh, scale * scale);
        let err = max_err(&got, &want);
        assert!(
            err < bound,
            "relinearized square at level {level}: {err} ≥ {bound}"
        );
    }
}

/// FNV-1a over every residue of a key's digits, in order.
fn fnv(h: &mut u64, ksk: &KeySwitchKey) {
    for (b, a) in ksk.digits() {
        for p in [b, a] {
            for &v in p.limbs_flat() {
                for byte in v.to_le_bytes() {
                    *h ^= u64::from(byte);
                    *h = h.wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
    }
}

/// The FNV-1a hashes of the relin key and of the Galois keys for steps
/// `1, 3, −2` and the element `2N − 1`, generated from seed 7 on the
/// 2^10 ring with chain `40 26 26 26` and the special primes of
/// `special`, whose key-switch digits must be `digits`.
fn key_hashes(special: &str, digits: &[Range<usize>]) -> (u64, u64) {
    let text =
        format!("n = 1024\nchain_bits = 40 26 26 26\nspecial_bits = {special}\nscale_bits = 26\n");
    let ctx = parse_params(&text).expect("parses").build();
    assert_eq!(ctx.digit_partition(), digits);
    let mut kg = KeyGenerator::new(Arc::clone(&ctx), 7);
    let sk = kg.gen_secret_key();
    let rk = kg.gen_relin_key(&sk);
    let gk = kg.gen_galois_keys(&sk, &[1, 3, -2], true);
    let mut relin = 0xcbf2_9ce4_8422_2325u64;
    fnv(&mut relin, &rk.0);
    let mut elements: Vec<usize> = gk.elements().collect();
    elements.sort_unstable();
    let mut galois = 0xcbf2_9ce4_8422_2325u64;
    for g in elements {
        fnv(&mut galois, gk.get(g).expect("listed"));
    }
    (relin, galois)
}

/// With one special prime every digit is one limb, and key generation
/// draws the same samples in the same order as the one-limb-per-digit
/// (GHS) generator did: the relin and Galois keys hash to the values
/// that generator produced from the same seed.
#[test]
fn one_special_prime_keys_are_ghs_keys_byte_for_byte() {
    let (relin, galois) = key_hashes("40", &[0..1, 1..2, 2..3, 3..4]);
    assert_eq!(relin, 0x5799_713f_bb3a_24c4, "relin key");
    assert_eq!(galois, 0xc1b1_0e16_7590_e183, "Galois keys");
}

/// With two special primes (digits `{q0,q1}, {q2,q3}`) the keys hash to
/// the values the coefficient-domain Galois keygen — `σ_g⁻¹(s)` formed
/// from the signed coefficients of `s` and forward-transformed —
/// produced from the same seed: scattering the NTT slots of `s` through
/// σ_g's permutation forms the same secret exactly.
#[test]
fn two_special_prime_keys_are_pinned_byte_for_byte() {
    let (relin, galois) = key_hashes("40 40", &[0..2, 2..4]);
    assert_eq!(relin, 0xf957_e116_1cbd_a504, "relin key");
    assert_eq!(galois, 0x18a0_52a3_3da8_d096, "Galois keys");
}
