//! Noise accounting utilities.
//!
//! CKKS is approximate: every operation adds noise that is
//! indistinguishable from encoding error. These helpers quantify it —
//! for parameter selection, for the §III.C error analysis, and for the
//! regression tests that pin the noise growth of each primitive.

use crate::ciphertext::Ciphertext;
use crate::eval::Evaluator;
use crate::keys::SecretKey;
use crate::params::CkksContext;
use ckks_math::fft::Complex;
use std::sync::Arc;

/// Measured error of a ciphertext against its intended plaintext:
/// returns `log₂(max |decrypted − reference|)` (−∞ → large negative for
/// exact results).
pub fn measured_error_bits(
    ev: &Evaluator,
    ct: &Ciphertext,
    sk: &SecretKey,
    reference: &[Complex],
) -> f64 {
    let got = ev.decrypt_to_complex(ct, sk);
    let max_err = got
        .iter()
        .zip(reference)
        .map(|(g, r)| (*g - *r).abs())
        .fold(0.0f64, f64::max);
    max_err.max(1e-300).log2()
}

/// Structural headroom of a ciphertext: `log₂(Q_ℓ / (2·scale))` — how
/// many bits of message magnitude the current level can still hold.
/// When this reaches 0, further operations wrap around the modulus and
/// destroy the payload.
pub fn headroom_bits(ctx: &Arc<CkksContext>, ct: &Ciphertext) -> f64 {
    headroom_bits_at(ctx, ct.level, ct.scale)
}

/// [`headroom_bits`] of a ciphertext at `level` and `scale`.
pub fn headroom_bits_at(ctx: &Arc<CkksContext>, level: usize, scale: f64) -> f64 {
    let mut log_q = 0.0f64;
    for m in &ctx.chain_moduli()[..=level] {
        log_q += (m.value() as f64).log2();
    }
    log_q - scale.log2() - 1.0
}

/// The §III.C observation, quantified: relative error of encoding a
/// value `v` at scale Δ is ~`1/(2·Δ·|v|)` — catastrophic for `|v| ≪ 1/Δ`.
/// Returns the smallest |v| that still retains `sig_bits` significant
/// bits at the given scale.
pub fn min_representable(scale: f64, sig_bits: u32) -> f64 {
    2f64.powi(sig_bits as i32) / scale
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyGenerator;
    use crate::params::CkksParams;
    use ckks_math::sampler::Sampler;

    #[test]
    fn fresh_ciphertext_noise_is_small() {
        let ctx = CkksParams::tiny(2).build();
        let mut kg = KeyGenerator::new(Arc::clone(&ctx), 800);
        let sk = kg.gen_secret_key();
        let pk = kg.gen_public_key(&sk);
        let ev = Evaluator::new(Arc::clone(&ctx));
        let mut s = Sampler::from_seed(801);
        let vals: Vec<Complex> = (0..32).map(|i| Complex::from(0.1 * i as f64)).collect();
        let pt = crate::encoding::encode(&ctx, &vals, ctx.params().scale(), ctx.max_level());
        let ct = ev.encrypt(&pt, &pk, &mut s);
        let bits = measured_error_bits(&ev, &ct, &sk, &vals);
        // fresh noise / Δ=2^26 → error well below 2^-10
        assert!(bits < -10.0, "fresh error 2^{bits}");
    }

    #[test]
    fn multiplication_grows_noise_monotonically() {
        let ctx = CkksParams::tiny(3).build();
        let mut kg = KeyGenerator::new(Arc::clone(&ctx), 802);
        let sk = kg.gen_secret_key();
        let pk = kg.gen_public_key(&sk);
        let rk = kg.gen_relin_key(&sk);
        let ev = Evaluator::new(Arc::clone(&ctx));
        let mut s = Sampler::from_seed(803);
        let vals: Vec<Complex> = (0..16)
            .map(|i| Complex::from(0.9 - 0.05 * i as f64))
            .collect();
        let pt = crate::encoding::encode(&ctx, &vals, ctx.params().scale(), ctx.max_level());
        let mut ct = ev.encrypt(&pt, &pk, &mut s);
        let mut reference = vals.clone();
        let mut prev_bits = measured_error_bits(&ev, &ct, &sk, &reference);
        for _ in 0..2 {
            ct = ev.rescale(&ev.square(&ct, &rk));
            for r in reference.iter_mut() {
                *r = *r * *r;
            }
            let bits = measured_error_bits(&ev, &ct, &sk, &reference);
            assert!(
                bits >= prev_bits - 1.0,
                "noise should not shrink: {prev_bits} → {bits}"
            );
            prev_bits = bits;
        }
        // still decodable to ~8 bits after depth 2
        assert!(prev_bits < -8.0, "error 2^{prev_bits} too large");
    }

    #[test]
    fn headroom_shrinks_with_levels() {
        let ctx = CkksParams::tiny(3).build();
        let mut kg = KeyGenerator::new(Arc::clone(&ctx), 804);
        let sk = kg.gen_secret_key();
        let pk = kg.gen_public_key(&sk);
        let rk = kg.gen_relin_key(&sk);
        let ev = Evaluator::new(Arc::clone(&ctx));
        let mut s = Sampler::from_seed(805);
        let ct = ev.encrypt_real(&[0.5; 8], &pk, &mut s);
        let h0 = headroom_bits(&ctx, &ct);
        let ct1 = ev.rescale(&ev.square(&ct, &rk));
        let h1 = headroom_bits(&ctx, &ct1);
        assert!(h0 > h1, "headroom must shrink: {h0} vs {h1}");
        // Δ=2^26, q_0=2^40 → at level 0 about 13 bits of headroom remain
        let _ = sk;
    }

    #[test]
    fn min_representable_matches_paper_example() {
        // §III.C: Δ = 64 cannot represent -0.01 (needs |v| ≥ 2^sig/Δ)
        let v_min = min_representable(64.0, 1);
        assert!(0.01 < v_min, "Δ=64 loses ±0.01 ({v_min})");
        // Δ = 2^26 easily holds it
        let v_min2 = min_representable(2f64.powi(26), 8);
        assert!(0.01 > v_min2);
    }
}
