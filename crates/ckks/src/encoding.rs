//! Encoding of complex/real slot vectors into RNS plaintext polynomials
//! via the canonical embedding, `m = ⌊Δ · τ^{-1}(z)⌉`, and decoding back.

use crate::params::CkksContext;
use ckks_math::bigint::BigInt;
use ckks_math::fft::Complex;
use ckks_math::poly::{Form, RnsPoly};
use std::sync::Arc;

/// An encoded plaintext: an RNS polynomial (kept in NTT form, ready for
/// multiplication) together with its scale and level metadata.
#[derive(Debug, Clone)]
pub struct Plaintext {
    pub poly: RnsPoly,
    pub scale: f64,
    pub level: usize,
    pub slots: usize,
}

/// Encodes a complex slot vector at the given `scale` and `level`.
///
/// `values.len()` is padded up to the next power of two (≤ `N/2` slots).
/// Coefficients larger than 2^62 fall back to an exact bignum path so
/// encoding stays correct at large composite scales (e.g. Δ²).
pub fn encode(ctx: &Arc<CkksContext>, values: &[Complex], scale: f64, level: usize) -> Plaintext {
    encode_over(ctx, values, scale, level, (0..=level).collect())
}

/// [`encode`] of a real vector over the key-switch basis at `level`
/// ([`CkksContext::ks_basis`]): the same integer polynomial, reduced
/// into the special limbs too — the operand of
/// [`Evaluator::mul_plain_ext`](crate::Evaluator::mul_plain_ext) and
/// [`Evaluator::mac_plain_ext`](crate::Evaluator::mac_plain_ext).
pub fn encode_real_ext(
    ctx: &Arc<CkksContext>,
    values: &[f64],
    scale: f64,
    level: usize,
) -> Plaintext {
    let cv: Vec<Complex> = values.iter().map(|&v| Complex::from(v)).collect();
    encode_over(ctx, &cv, scale, level, ctx.ks_basis(level))
}

/// [`encode`] over the context limbs `limb_indices`.
fn encode_over(
    ctx: &Arc<CkksContext>,
    values: &[Complex],
    scale: f64,
    level: usize,
    limb_indices: Vec<usize>,
) -> Plaintext {
    assert!(!values.is_empty(), "cannot encode an empty vector");
    assert!(level <= ctx.max_level(), "level out of range");
    assert!(scale > 0.0 && scale.is_finite());
    let slots = values.len().next_power_of_two();
    assert!(
        slots <= ctx.slots(),
        "too many values: {} > {} slots",
        values.len(),
        ctx.slots()
    );
    let mut padded = values.to_vec();
    padded.resize(slots, Complex::ZERO);

    let coeffs = ctx.embedding().slots_to_coeffs(&padded);
    let n = ctx.n();

    // Fast path: every scaled coefficient fits i64.
    let max_abs = coeffs.iter().fold(0.0f64, |m, c| m.max(c.abs())) * scale;
    let mut poly = if max_abs < 4.6e18 {
        let scaled: Vec<i64> = coeffs.iter().map(|&c| (c * scale).round() as i64).collect();
        RnsPoly::from_signed(Arc::clone(ctx.poly_ctx()), limb_indices, &scaled)
    } else {
        // Exact bignum rounding, then residue decomposition per limb.
        let mut poly = RnsPoly::zero(Arc::clone(ctx.poly_ctx()), limb_indices, Form::Coeff);
        for (i, &c) in coeffs.iter().enumerate() {
            let big = BigInt::from_f64_rounded(c * scale);
            for li in 0..poly.num_limbs() {
                let r = big.rem_u64(poly.limb_modulus(li).value());
                poly.limb_mut(li)[i] = r;
            }
        }
        poly
    };
    debug_assert_eq!(poly.limb(0).len(), n);
    poly.ntt_forward();
    Plaintext {
        poly,
        scale,
        level,
        slots,
    }
}

/// Encodes a real-valued slot vector.
pub fn encode_real(ctx: &Arc<CkksContext>, values: &[f64], scale: f64, level: usize) -> Plaintext {
    let cv: Vec<Complex> = values.iter().map(|&v| Complex::from(v)).collect();
    encode(ctx, &cv, scale, level)
}

/// Decodes a plaintext back to its complex slot vector.
pub fn decode(ctx: &Arc<CkksContext>, pt: &Plaintext) -> Vec<Complex> {
    let mut poly = pt.poly.clone();
    if poly.form() == Form::Ntt {
        poly.ntt_inverse();
    }
    let n = ctx.n();
    let mut coeffs = vec![0.0f64; n];
    if pt.level == 0 {
        let m = *poly.limb_modulus(0);
        for (i, &r) in poly.limb(0).iter().enumerate() {
            coeffs[i] = m.to_centered_i64(r) as f64;
        }
    } else {
        let basis = ctx.level_basis(pt.level);
        for i in 0..n {
            let residues = poly.coeff_residues(i);
            coeffs[i] = basis.compose_centered(&residues).to_f64();
        }
    }
    let inv_scale = 1.0 / pt.scale;
    for c in coeffs.iter_mut() {
        *c *= inv_scale;
    }
    ctx.embedding().coeffs_to_slots(&coeffs, pt.slots)
}

/// Decodes to real parts only (discarding numerically-noisy imaginary
/// parts — the convention for real-valued ML payloads).
pub fn decode_real(ctx: &Arc<CkksContext>, pt: &Plaintext) -> Vec<f64> {
    decode(ctx, pt).into_iter().map(|c| c.re).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;

    fn ctx() -> Arc<CkksContext> {
        CkksParams::tiny(3).build()
    }

    #[test]
    fn encode_decode_roundtrip_full() {
        let ctx = ctx();
        let vals: Vec<Complex> = (0..ctx.slots())
            .map(|i| Complex::new((i as f64 * 0.017).sin(), (i as f64 * 0.013).cos()))
            .collect();
        let pt = encode(&ctx, &vals, ctx.params().scale(), ctx.max_level());
        let back = decode(&ctx, &pt);
        for (a, b) in back.iter().zip(&vals) {
            assert!((*a - *b).abs() < 1e-5, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn encode_decode_sparse_and_padding() {
        let ctx = ctx();
        // 5 values → padded to 8 slots
        let vals = [0.5, -0.25, 1.0, 0.0, 3.125];
        let pt = encode_real(&ctx, &vals, ctx.params().scale(), 2);
        assert_eq!(pt.slots, 8);
        let back = decode_real(&ctx, &pt);
        assert_eq!(back.len(), 8);
        for (a, b) in back.iter().zip(vals.iter().chain([0.0, 0.0, 0.0].iter())) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn precision_improves_with_scale() {
        let ctx = ctx();
        let vals: Vec<f64> = (0..64).map(|i| (i as f64).sqrt() * 0.01).collect();
        let mut errs = Vec::new();
        for bits in [15u32, 26, 40] {
            let scale = 2f64.powi(bits as i32);
            let pt = encode_real(&ctx, &vals, scale, 1);
            let back = decode_real(&ctx, &pt);
            let err = back
                .iter()
                .zip(&vals)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            errs.push(err);
        }
        assert!(errs[0] > errs[1] && errs[1] > errs[2], "errors {errs:?}");
    }

    #[test]
    fn level_zero_decode_path() {
        let ctx = ctx();
        let vals = [0.1, -0.2, 0.3];
        let pt = encode_real(&ctx, &vals, ctx.params().scale(), 0);
        assert_eq!(pt.poly.num_limbs(), 1);
        let back = decode_real(&ctx, &pt);
        for (a, b) in back.iter().zip(&vals) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn bignum_fallback_at_huge_scale() {
        let ctx = ctx();
        // Δ^2.5 ≈ 2^65: coefficients exceed i64, exercising the BigInt path.
        let scale = 2f64.powi(65);
        let vals = [0.75, -0.5, 0.125];
        let pt = encode_real(&ctx, &vals, scale, 3);
        let back = decode_real(&ctx, &pt);
        for (a, b) in back.iter().zip(&vals) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn constant_fills_all_slots() {
        let ctx = ctx();
        let pt = encode_real(&ctx, &vec![2.5; ctx.slots()], ctx.params().scale(), 1);
        let back = decode_real(&ctx, &pt);
        assert_eq!(back.len(), ctx.slots());
        assert!(back.iter().all(|&v| (v - 2.5).abs() < 1e-6));
    }

    #[test]
    fn encoding_error_example_from_paper_section_iii_c() {
        // The paper's §III.C worked example: with M = 8 (N = 4) and Δ = 64,
        // encoding z = (0.1, -0.01) loses the second component entirely.
        // Our stack reproduces the phenomenon: a tiny scale yields large
        // relative error on near-zero inputs; a larger Δ fixes it.
        let table = ckks_math::fft::EmbeddingTable::new(4);
        let vals = [Complex::new(0.1, 0.0), Complex::new(-0.01, 0.0)];
        let coeffs = table.slots_to_coeffs(&vals);
        // quantize at Δ = 64 then decode
        let q: Vec<f64> = coeffs.iter().map(|c| (c * 64.0).round() / 64.0).collect();
        let back = table.coeffs_to_slots(&q, 2);
        let err1 = (back[1].re - (-0.01f64)).abs();
        assert!(
            err1 > 0.005,
            "expected catastrophic relative error at Δ=64, got {err1}"
        );
        // Δ = 2^20 keeps it
        let q2: Vec<f64> = coeffs
            .iter()
            .map(|c| (c * 1048576.0).round() / 1048576.0)
            .collect();
        let back2 = table.coeffs_to_slots(&q2, 2);
        assert!((back2[1].re - (-0.01f64)).abs() < 1e-4);
    }

    #[test]
    #[should_panic]
    fn too_many_values_rejected() {
        let ctx = ctx();
        let vals = vec![Complex::ONE; ctx.slots() + 1];
        let _ = encode(&ctx, &vals, ctx.params().scale(), 0);
    }
}
