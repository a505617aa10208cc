//! Homomorphic layers over [`CtTensor`]s (Eq. 1 of the paper: weighted
//! sums of ciphertexts plus polynomial activations).
//!
//! Scale discipline (exact, no approximate additions): plain multipliers
//! are encoded at carefully chosen scales so that every rescale lands on
//! a scale shared by all ciphertexts of the layer —
//!
//! * linear layers encode weights at scale `q_m` (the prime about to be
//!   rescaled away), so the output scale equals the input scale;
//! * the degree-3 SLAF uses plaintext scales `(q_m, s, s)` for
//!   `(c₃, c₂, c₁)` so that all terms meet at scale `s³/(q_m·q_{m-1})`
//!   two levels down.
//!
//! Every function returns per-output-unit timings consumed by the
//! execution simulator ([`crate::exec`]), takes an [`ExecMode`] choosing
//! between sequential and unit-parallel execution (outputs are
//! bit-identical either way — each unit is computed independently), and
//! hoists weight encoding into a per-layer [`WeightResidueTable`] so a
//! reused kernel tap is encoded once, not once per MAC.

use crate::exec::ExecMode;
use crate::he_tensor::CtTensor;
use crate::weights::WeightResidueTable;
use ckks::{Ciphertext, Evaluator, RelinKey};
use std::time::{Duration, Instant};

/// Plain (server-held) convolution parameters with BN already folded.
#[derive(Debug, Clone)]
pub struct ConvSpec {
    /// `[out_ch × in_ch × k × k]`, row-major.
    pub weight: Vec<f32>,
    /// `[out_ch]`.
    pub bias: Vec<f32>,
    pub in_ch: usize,
    pub out_ch: usize,
    pub k: usize,
    pub stride: usize,
    pub pad: usize,
}

impl ConvSpec {
    pub fn out_size(&self, h: usize) -> usize {
        (h + 2 * self.pad - self.k) / self.stride + 1
    }

    /// Flat weight lookup (the hot path goes through
    /// [`WeightResidueTable`] instead; tests use this for references).
    #[cfg(test)]
    #[inline]
    fn w(&self, o: usize, c: usize, ky: usize, kx: usize) -> f32 {
        self.weight[((o * self.in_ch + c) * self.k + ky) * self.k + kx]
    }
}

/// Plain dense parameters.
#[derive(Debug, Clone)]
pub struct DenseSpec {
    /// `[out_dim × in_dim]`.
    pub weight: Vec<f32>,
    pub bias: Vec<f32>,
    pub in_dim: usize,
    pub out_dim: usize,
}

/// Homomorphic convolution: each output scalar is a weighted sum of
/// input ciphertexts (`Σ w·c ⊞ β`, Eq. 1), accumulated at scale `s·q_m`
/// and rescaled once. Output scale equals input scale exactly.
///
/// Output positions whose receptive field is entirely padding (possible
/// when `pad ≥ k` relative to the stride grid, or when every in-bounds
/// tap has zero weight) short-circuit to a bias-only ciphertext at the
/// output scale/level instead of paying a full `zero + rescale`.
pub fn he_conv2d(
    ev: &Evaluator,
    x: &CtTensor,
    spec: &ConvSpec,
    mode: ExecMode,
) -> (CtTensor, Vec<Duration>) {
    assert_eq!(x.shape.len(), 3, "conv expects a CHW tensor");
    let (c_in, h, w) = (x.shape[0], x.shape[1], x.shape[2]);
    assert_eq!(c_in, spec.in_ch, "channel mismatch");
    let oh = spec.out_size(h);
    let ow = spec.out_size(w);
    let level = x.level();
    assert!(level >= 1, "conv needs one level to rescale");
    let s = x.scale();
    let q_m = ev.ctx().chain_moduli()[level].value() as f64;
    let slots = x.cts[0].slots;
    let table = WeightResidueTable::build(ev, &spec.weight, q_m, level);
    let per_o = spec.in_ch * spec.k * spec.k;

    let units = mode.run_units(spec.out_ch * oh * ow, |u| {
        let o = u / (oh * ow);
        let oy = (u / ow) % oh;
        let ox = u % ow;
        let _span = he_trace::span_fn(he_trace::cats::UNIT, || format!("conv_unit#{u}"));
        let t0 = Instant::now();
        let mut acc: Option<Ciphertext> = None;
        for ci in 0..c_in {
            for ky in 0..spec.k {
                let iy = oy * spec.stride + ky;
                if iy < spec.pad || iy - spec.pad >= h {
                    continue;
                }
                for kx in 0..spec.k {
                    let ix = ox * spec.stride + kx;
                    if ix < spec.pad || ix - spec.pad >= w {
                        continue;
                    }
                    let widx = o * per_o + (ci * spec.k + ky) * spec.k + kx;
                    let Some(wr) = table.get(widx) else {
                        continue; // zero weight
                    };
                    ev.mul_residues_acc(
                        acc.get_or_insert_with(|| ev.zero_ciphertext(s * q_m, level, slots)),
                        x.at3(ci, iy - spec.pad, ix - spec.pad),
                        wr,
                    );
                }
            }
        }
        let out = match acc {
            Some(mut acc) => {
                ev.add_scalar_assign(&mut acc, spec.bias[o] as f64);
                ev.rescale(&acc)
            }
            // all taps skipped: bias-only output, already at the
            // post-rescale scale/level (the scale expression matches
            // rescale's `s·q_m / q_m` bit for bit)
            None => {
                let mut out = ev.zero_ciphertext((s * q_m) / q_m, level - 1, slots);
                ev.add_scalar_assign(&mut out, spec.bias[o] as f64);
                out
            }
        };
        (out, t0.elapsed())
    });
    let (cts, times) = units.into_iter().unzip();
    (
        CtTensor {
            cts,
            shape: vec![spec.out_ch, oh, ow],
        },
        times,
    )
}

/// Homomorphic dense layer over a flat ciphertext vector.
pub fn he_dense(
    ev: &Evaluator,
    x: &CtTensor,
    spec: &DenseSpec,
    mode: ExecMode,
) -> (CtTensor, Vec<Duration>) {
    assert_eq!(x.shape.len(), 1, "dense expects a flat tensor");
    assert_eq!(x.numel(), spec.in_dim, "input dim mismatch");
    let level = x.level();
    assert!(level >= 1, "dense needs one level to rescale");
    let s = x.scale();
    let q_m = ev.ctx().chain_moduli()[level].value() as f64;
    let slots = x.cts[0].slots;
    let table = WeightResidueTable::build(ev, &spec.weight, q_m, level);

    let units = mode.run_units(spec.out_dim, |o| {
        let _span = he_trace::span_fn(he_trace::cats::UNIT, || format!("dense_unit#{o}"));
        let t0 = Instant::now();
        let mut acc = ev.zero_ciphertext(s * q_m, level, slots);
        for (i, ct) in x.cts.iter().enumerate() {
            let Some(wr) = table.get(o * spec.in_dim + i) else {
                continue;
            };
            ev.mul_residues_acc(&mut acc, ct, wr);
        }
        ev.add_scalar_assign(&mut acc, spec.bias[o] as f64);
        (ev.rescale(&acc), t0.elapsed())
    });
    let (cts, times) = units.into_iter().unzip();
    (
        CtTensor {
            cts,
            shape: vec![spec.out_dim],
        },
        times,
    )
}

/// Homomorphic SLAF evaluation `σ(x) = c₀ + c₁x + c₂x² + c₃x³` on every
/// ciphertext of the tensor. Consumes exactly two levels; degree-2
/// coefficients (`c₃ = 0`) skip one ciphertext multiplication.
pub fn he_activation(
    ev: &Evaluator,
    rk: &RelinKey,
    x: &CtTensor,
    coeffs: &[f64],
    mode: ExecMode,
) -> (CtTensor, Vec<Duration>) {
    assert!(
        (2..=4).contains(&coeffs.len()),
        "supported SLAF degrees: 1..=3 (got {} coefficients)",
        coeffs.len()
    );
    let mut c = [0.0f64; 4];
    c[..coeffs.len()].copy_from_slice(coeffs);
    let level = x.level();
    assert!(level >= 2, "degree-3 activation needs two levels");

    let units = mode.run_units(x.cts.len(), |i| {
        let _span = he_trace::span_fn(he_trace::cats::UNIT, || format!("slaf_unit#{i}"));
        let t0 = Instant::now();
        (he_poly_eval_deg3(ev, rk, &x.cts[i], &c), t0.elapsed())
    });
    let (cts, times) = units.into_iter().unzip();
    (
        CtTensor {
            cts,
            shape: x.shape.clone(),
        },
        times,
    )
}

/// Degree-≤3 polynomial on one ciphertext with exact scale alignment.
pub fn he_poly_eval_deg3(
    ev: &Evaluator,
    rk: &RelinKey,
    x: &Ciphertext,
    c: &[f64; 4],
) -> Ciphertext {
    let s = x.scale;
    let m = x.level;
    let q_m = ev.ctx().chain_moduli()[m].value() as f64;

    // x² at scale s²/q_m, level m-1.
    let x2r = ev.rescale(&ev.square(x, rk));

    // y₂ = c₂·x² → scale (s²/q_m)·s/q_{m-1} = S*, level m-2.
    let mut acc = ev.rescale(&ev.mul_scalar(&x2r, c[2], s));

    // y₃ = (c₃·x)·x² via one ct-ct product, same S* by construction.
    if c[3] != 0.0 {
        let t = ev.rescale(&ev.mul_scalar(x, c[3], q_m)); // scale s @ m-1
        let y3 = ev.rescale(&ev.multiply(&t, &x2r, rk)); // S* @ m-2
        acc = ev.add(&acc, &y3);
    }

    // y₁ = c₁·x dropped two levels through scales (s, s).
    let t = ev.rescale(&ev.mul_scalar(x, c[1], s)); // s²/q_m @ m-1
    let y1 = ev.rescale(&ev.mul_scalar(&t, 1.0, s)); // S* @ m-2
    acc = ev.add(&acc, &y1);

    // y₀: constant at the accumulated scale.
    ev.add_scalar(&acc, c[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::he_tensor::{decrypt_tensor, encrypt_image_batch};
    use ckks::{CkksParams, Evaluator, KeyGenerator};
    use ckks_math::sampler::Sampler;
    use std::sync::Arc;

    struct Fx {
        sk: ckks::SecretKey,
        pk: ckks::PublicKey,
        rk: RelinKey,
        ev: Evaluator,
        s: Sampler,
    }

    fn fixture(depth: usize) -> Fx {
        let ctx = CkksParams::tiny(depth).build();
        let mut kg = KeyGenerator::new(Arc::clone(&ctx), 80);
        let sk = kg.gen_secret_key();
        let pk = kg.gen_public_key(&sk);
        let rk = kg.gen_relin_key(&sk);
        Fx {
            sk,
            pk,
            rk,
            ev: Evaluator::new(ctx),
            s: Sampler::from_seed(81),
        }
    }

    /// Plain reference conv (f64) matching he_conv2d semantics.
    fn ref_conv(img: &[f32], side: usize, spec: &ConvSpec) -> Vec<f64> {
        let oh = spec.out_size(side);
        let ow = spec.out_size(side);
        let mut out = Vec::new();
        for o in 0..spec.out_ch {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = spec.bias[o] as f64;
                    for ky in 0..spec.k {
                        let iy = oy * spec.stride + ky;
                        if iy < spec.pad || iy - spec.pad >= side {
                            continue;
                        }
                        for kx in 0..spec.k {
                            let ix = ox * spec.stride + kx;
                            if ix < spec.pad || ix - spec.pad >= side {
                                continue;
                            }
                            acc += spec.w(o, 0, ky, kx) as f64
                                * img[(iy - spec.pad) * side + (ix - spec.pad)] as f64;
                        }
                    }
                    out.push(acc);
                }
            }
        }
        out
    }

    #[test]
    fn conv_matches_plain_reference() {
        let mut f = fixture(2);
        let side = 6;
        let img: Vec<f32> = (0..36).map(|i| ((i * 11) % 17) as f32 / 17.0).collect();
        let x = encrypt_image_batch(&f.ev, &f.pk, &mut f.s, &[&img], side, 2);
        let spec = ConvSpec {
            weight: (0..2 * 9).map(|i| (i as f32 - 9.0) * 0.07).collect(),
            bias: vec![0.05, -0.1],
            in_ch: 1,
            out_ch: 2,
            k: 3,
            stride: 2,
            pad: 1,
        };
        let (y, times) = he_conv2d(&f.ev, &x, &spec, ExecMode::sequential());
        assert_eq!(y.shape(), &[2, 3, 3]);
        assert_eq!(times.len(), 18);
        assert_eq!(y.level(), 1);
        assert!((y.scale() / x.scale() - 1.0).abs() < 1e-12, "scale drift");
        let got = decrypt_tensor(&f.ev, &f.sk, &y, 1);
        let want = ref_conv(&img, side, &spec);
        for (g, w) in got[0].iter().zip(&want) {
            assert!((g - w).abs() < 2e-3, "{g} vs {w}");
        }
    }

    #[test]
    fn dense_matches_plain_reference() {
        let mut f = fixture(1);
        let img: Vec<f32> = (0..16).map(|i| i as f32 / 16.0).collect();
        let x = encrypt_image_batch(&f.ev, &f.pk, &mut f.s, &[&img], 4, 1).flatten();
        let spec = DenseSpec {
            weight: (0..3 * 16).map(|i| ((i % 5) as f32 - 2.0) * 0.1).collect(),
            bias: vec![0.1, 0.0, -0.2],
            in_dim: 16,
            out_dim: 3,
        };
        let (y, _) = he_dense(&f.ev, &x, &spec, ExecMode::sequential());
        let got = decrypt_tensor(&f.ev, &f.sk, &y, 1);
        for o in 0..3 {
            let mut want = spec.bias[o] as f64;
            for i in 0..16 {
                want += spec.weight[o * 16 + i] as f64 * img[i] as f64;
            }
            assert!((got[0][o] - want).abs() < 2e-3, "{} vs {want}", got[0][o]);
        }
    }

    #[test]
    fn activation_degree3_matches_reference() {
        let mut f = fixture(3);
        let img: Vec<f32> = (0..9).map(|i| -0.8 + 0.2 * i as f32).collect();
        // encode "image" values outside [0,1] via a dense trick: just use
        // encrypt_image_batch (it accepts any f32 values)
        let x = encrypt_image_batch(&f.ev, &f.pk, &mut f.s, &[&img], 3, 3);
        let coeffs = [0.3f64, -0.4, 0.2, 0.1];
        let (y, _) = he_activation(&f.ev, &f.rk, &x, &coeffs, ExecMode::sequential());
        assert_eq!(y.level(), 1); // two levels consumed
        let got = decrypt_tensor(&f.ev, &f.sk, &y, 1);
        for (i, &v) in img.iter().enumerate() {
            let v = v as f64;
            let want = coeffs[0] + coeffs[1] * v + coeffs[2] * v * v + coeffs[3] * v * v * v;
            assert!((got[0][i] - want).abs() < 5e-3, "{} vs {want}", got[0][i]);
        }
    }

    #[test]
    fn activation_degree2_skips_ct_mult_but_matches() {
        let mut f = fixture(2);
        let img: Vec<f32> = (0..4).map(|i| 0.1 + 0.2 * i as f32).collect();
        let x = encrypt_image_batch(&f.ev, &f.pk, &mut f.s, &[&img], 2, 2);
        let coeffs = [0.0f64, 1.0, 0.5];
        let (y, _) = he_activation(&f.ev, &f.rk, &x, &coeffs, ExecMode::sequential());
        let got = decrypt_tensor(&f.ev, &f.sk, &y, 1);
        for (i, &v) in img.iter().enumerate() {
            let v = v as f64;
            let want = v + 0.5 * v * v;
            assert!((got[0][i] - want).abs() < 5e-3);
        }
    }

    #[test]
    fn conv_then_activation_then_dense_end_to_end() {
        // a miniature CNN1 over a 4×4 image on tiny params
        let mut f = fixture(4);
        let img: Vec<f32> = (0..16).map(|i| ((i * 7) % 10) as f32 / 10.0).collect();
        let x = encrypt_image_batch(&f.ev, &f.pk, &mut f.s, &[&img], 4, 4);
        let conv = ConvSpec {
            weight: (0..9).map(|i| (i as f32 - 4.0) * 0.1).collect(),
            bias: vec![0.1],
            in_ch: 1,
            out_ch: 1,
            k: 3,
            stride: 1,
            pad: 0,
        };
        let coeffs = [0.05f64, 0.5, 0.25, 0.0];
        let dense = DenseSpec {
            weight: (0..4).map(|i| 0.3 - 0.15 * i as f32).collect(),
            bias: vec![-0.05],
            in_dim: 4,
            out_dim: 1,
        };
        let (h1, _) = he_conv2d(&f.ev, &x, &conv, ExecMode::sequential());
        let (h2, _) = he_activation(&f.ev, &f.rk, &h1, &coeffs, ExecMode::sequential());
        let (h3, _) = he_dense(&f.ev, &h2.flatten(), &dense, ExecMode::sequential());
        let got = decrypt_tensor(&f.ev, &f.sk, &h3, 1)[0][0];

        // plain reference
        let c1 = ref_conv(&img, 4, &conv);
        let a1: Vec<f64> = c1
            .iter()
            .map(|&v| coeffs[0] + coeffs[1] * v + coeffs[2] * v * v)
            .collect();
        let mut want = dense.bias[0] as f64;
        for i in 0..4 {
            want += dense.weight[i] as f64 * a1[i];
        }
        assert!((got - want).abs() < 5e-3, "{got} vs {want}");
    }

    #[test]
    fn fully_padded_output_is_bias_only() {
        // k=1, stride=2, pad=1 on a 3×3 image: output grid is 3×3 and
        // the corner/edge positions sample only padding — every tap is
        // skipped, exercising the bias-only short-circuit.
        let mut f = fixture(2);
        let side = 3;
        let img: Vec<f32> = (0..9).map(|i| 0.1 + 0.08 * i as f32).collect();
        let x = encrypt_image_batch(&f.ev, &f.pk, &mut f.s, &[&img], side, 2);
        let spec = ConvSpec {
            weight: vec![0.7],
            bias: vec![0.25],
            in_ch: 1,
            out_ch: 1,
            k: 1,
            stride: 2,
            pad: 1,
        };
        let (y, times) = he_conv2d(&f.ev, &x, &spec, ExecMode::sequential());
        assert_eq!(y.shape(), &[1, 3, 3]);
        assert_eq!(times.len(), 9);
        // bias-only outputs must land on the same level/scale as the
        // MAC+rescale outputs so the tensor stays homogeneous
        assert_eq!(y.level(), 1);
        assert!((y.scale() / x.scale() - 1.0).abs() < 1e-12);
        let got = decrypt_tensor(&f.ev, &f.sk, &y, 1);
        let want = ref_conv(&img, side, &spec);
        // position (1,1) is the only one with a live tap
        assert!((want[4] - (0.25 + 0.7 * img[4]) as f64).abs() < 1e-6);
        for (i, (g, w)) in got[0].iter().zip(&want).enumerate() {
            assert!((g - w).abs() < 2e-3, "unit {i}: {g} vs {w}");
            if i != 4 {
                assert!((w - 0.25).abs() < 1e-9, "unit {i} should be bias-only");
            }
        }
    }

    #[test]
    fn parallel_mode_outputs_match_sequential_limb_for_limb() {
        let mut f = fixture(2);
        let side = 6;
        let img: Vec<f32> = (0..36).map(|i| ((i * 11) % 17) as f32 / 17.0).collect();
        let x = encrypt_image_batch(&f.ev, &f.pk, &mut f.s, &[&img], side, 2);
        let spec = ConvSpec {
            weight: (0..2 * 9).map(|i| (i as f32 - 9.0) * 0.07).collect(),
            bias: vec![0.05, -0.1],
            in_ch: 1,
            out_ch: 2,
            k: 3,
            stride: 2,
            pad: 1,
        };
        let (y_seq, _) = he_conv2d(&f.ev, &x, &spec, ExecMode::sequential());
        let (y_par, _) = he_conv2d(&f.ev, &x, &spec, ExecMode::unit_parallel(4));
        assert_eq!(y_seq.cts.len(), y_par.cts.len());
        for (a, b) in y_seq.cts.iter().zip(&y_par.cts) {
            assert_eq!(a.level, b.level);
            assert_eq!(a.scale.to_bits(), b.scale.to_bits());
            for li in 0..=a.level {
                assert_eq!(a.c0.limb(li), b.c0.limb(li));
                assert_eq!(a.c1.limb(li), b.c1.limb(li));
            }
        }
    }

    #[test]
    #[should_panic(expected = "needs two levels")]
    fn activation_requires_depth() {
        let mut f = fixture(1);
        let img = vec![0.5f32; 4];
        let x = encrypt_image_batch(&f.ev, &f.pk, &mut f.s, &[&img], 2, 1);
        let _ = he_activation(
            &f.ev,
            &f.rk,
            &x,
            &[0.0, 1.0, 0.5, 0.1],
            ExecMode::sequential(),
        );
    }
}
