//! Plain (server-held) parameters of the homomorphic linear layers.
//!
//! A convolution or dense layer computes Eq. 1 of the paper per output
//! unit: a weighted sum of input ciphertexts plus a bias. These specs
//! are the network's stored form (HENT files, extraction); every reader
//! sees a linear layer in one [`Row`] form instead, built by the one
//! shape walk [`crate::network::HeNetwork::forms`]: the plain reference,
//! the scalar lowering ([`crate::graph::lower_network`], one unit per
//! row, weights encoded at the prime about to be rescaled away so every
//! layer returns to the input scale exactly) and the packed engine's
//! diagonals ([`crate::packed::PackedNetwork::from_network`]).

/// Convolution parameters with BN already folded.
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
}

/// Dense parameters.
#[derive(Debug, Clone)]
pub struct DenseSpec {
    /// `[out_dim × in_dim]`.
    pub weight: Vec<f32>,
    pub bias: Vec<f32>,
    pub in_dim: usize,
    pub out_dim: usize,
}

/// One output unit of a linear layer: `bias + Σ w·x[i]` over its taps
/// `(i, w)`.
#[derive(Debug)]
pub struct Row {
    pub bias: f64,
    pub taps: Vec<(usize, f64)>,
}

impl Row {
    /// The unit's value on input `x`, taps summed in order.
    pub fn eval(&self, x: &[f64]) -> f64 {
        self.taps
            .iter()
            .fold(self.bias, |acc, &(i, w)| acc + w * x[i])
    }
}

/// A layer as its readers see it.
#[derive(Debug)]
pub enum LayerForm<'a> {
    /// A conv or dense layer: one row per output unit, in output order.
    Linear(Vec<Row>),
    /// SLAF coefficients `[c₀, c₁, …]`.
    Slaf(&'a [f64]),
}

/// A conv's rows over a `(c, h, w)` input: one per output unit in
/// `(o, oy, ox)` order, taps in `(ci, ky, kx)` order over the positions
/// inside the input (padding contributes nothing), zero weights kept.
pub(crate) fn conv_rows(spec: &ConvSpec, (c, h, w): (usize, usize, usize)) -> Vec<Row> {
    assert_eq!(c, spec.in_ch, "channel mismatch");
    let (oh, ow) = (spec.out_size(h), spec.out_size(w));
    let mut rows = Vec::with_capacity(spec.out_ch * oh * ow);
    let per_o = c * spec.k * spec.k;
    for o in 0..spec.out_ch {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut taps = Vec::with_capacity(per_o);
                let mut kernel = spec.weight[o * per_o..(o + 1) * per_o].iter();
                for ci in 0..c {
                    for iy in oy * spec.stride..oy * spec.stride + spec.k {
                        for ix in ox * spec.stride..ox * spec.stride + spec.k {
                            let wt = f64::from(*kernel.next().expect("in_ch·k·k weights"));
                            if iy < spec.pad
                                || iy - spec.pad >= h
                                || ix < spec.pad
                                || ix - spec.pad >= w
                            {
                                continue;
                            }
                            taps.push(((ci * h + iy - spec.pad) * w + ix - spec.pad, wt));
                        }
                    }
                }
                rows.push(Row {
                    bias: f64::from(spec.bias[o]),
                    taps,
                });
            }
        }
    }
    rows
}

/// A dense layer's rows over an `in_len` input: one per output, every
/// input a tap, zero weights kept.
pub(crate) fn dense_rows(spec: &DenseSpec, in_len: usize) -> Vec<Row> {
    assert_eq!(in_len, spec.in_dim, "dense input mismatch");
    let row = |o: usize| &spec.weight[o * in_len..(o + 1) * in_len];
    (0..spec.out_dim)
        .map(|o| Row {
            bias: f64::from(spec.bias[o]),
            taps: row(o).iter().map(|&w| f64::from(w)).enumerate().collect(),
        })
        .collect()
}

/// `c₀ + c₁x + c₂x² + …` by Horner's rule: the plain SLAF.
pub(crate) fn horner(coeffs: &[f64], x: f64) -> f64 {
    coeffs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ExecMode, InferenceTiming};
    use crate::graph::lower_network;
    use crate::he_tensor::{decrypt_tensor, encrypt_image_batch, CtTensor};
    use crate::network::{HeLayerSpec, HeNetwork};
    use ckks::{CkksParams, Evaluator, KeyGenerator, PublicKey, RelinKey, SecretKey};
    use ckks_math::sampler::Sampler;
    use std::sync::Arc;

    /// Keys on a chain exactly as deep as `net`, and `net` itself.
    struct Fx {
        net: HeNetwork,
        sk: SecretKey,
        pk: PublicKey,
        rk: RelinKey,
        ev: Evaluator,
        s: Sampler,
    }

    fn fixture(layers: Vec<HeLayerSpec>, input_side: usize) -> Fx {
        let net = HeNetwork { layers, input_side };
        let ctx = CkksParams::tiny(net.required_levels()).build();
        let mut kg = KeyGenerator::new(Arc::clone(&ctx), 80);
        let sk = kg.gen_secret_key();
        let pk = kg.gen_public_key(&sk);
        let rk = kg.gen_relin_key(&sk);
        Fx {
            net,
            sk,
            pk,
            rk,
            ev: Evaluator::new(ctx),
            s: Sampler::from_seed(81),
        }
    }

    impl Fx {
        /// `img` encrypted at the network's depth.
        fn encrypt(&mut self, img: &[f32]) -> CtTensor {
            let (side, level) = (self.net.input_side, self.net.required_levels());
            encrypt_image_batch(&self.ev, &self.pk, &mut self.s, &[img], side, level)
        }

        /// One image through the network: input scale, output, timing.
        fn infer(&mut self, img: &[f32], mode: ExecMode) -> (f64, CtTensor, InferenceTiming) {
            let x = self.encrypt(img);
            let scale = x.scale();
            let (y, timing) = self.net.infer_encrypted_with(&self.ev, &self.rk, x, mode);
            (scale, y, timing)
        }

        /// Decrypted outputs against the plain reference, within `tol`.
        fn assert_matches_plain(&self, y: &CtTensor, img: &[f32], tol: f64) -> Vec<f64> {
            let got = decrypt_tensor(&self.ev, &self.sk, y, 1).remove(0);
            let want = self.net.infer_plain(img);
            assert_eq!(got.len(), want.len());
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!((g - w).abs() < tol, "unit {i}: {g} vs {w}");
            }
            want
        }
    }

    fn strided_conv() -> HeLayerSpec {
        HeLayerSpec::Conv(ConvSpec {
            weight: (0..2 * 9).map(|i| (i as f32 - 9.0) * 0.07).collect(),
            bias: vec![0.05, -0.1],
            in_ch: 1,
            out_ch: 2,
            k: 3,
            stride: 2,
            pad: 1,
        })
    }

    fn image(side: usize) -> Vec<f32> {
        (0..side * side)
            .map(|i| ((i * 11) % 17) as f32 / 17.0)
            .collect()
    }

    #[test]
    fn conv_matches_plain_reference() {
        let mut f = fixture(vec![strided_conv()], 6);
        let img = image(6);
        let (scale, y, timing) = f.infer(&img, ExecMode::sequential());
        assert_eq!(y.shape(), &[2, 3, 3]);
        assert_eq!(timing.layers[0].unit_walls.len(), 18, "a unit per output");
        assert_eq!(y.level(), 0);
        assert!((y.scale() / scale - 1.0).abs() < 1e-12, "scale drift");
        f.assert_matches_plain(&y, &img, 2e-3);
    }

    #[test]
    fn dense_matches_plain_reference() {
        let dense = HeLayerSpec::Dense(DenseSpec {
            weight: (0..3 * 16).map(|i| ((i % 5) as f32 - 2.0) * 0.1).collect(),
            bias: vec![0.1, 0.0, -0.2],
            in_dim: 16,
            out_dim: 3,
        });
        let mut f = fixture(vec![dense], 4);
        let img: Vec<f32> = (0..16).map(|i| i as f32 / 16.0).collect();
        let (_, y, _) = f.infer(&img, ExecMode::sequential());
        assert_eq!(y.shape(), &[3]);
        f.assert_matches_plain(&y, &img, 2e-3);
    }

    #[test]
    fn activation_degree3_matches_reference() {
        let mut f = fixture(vec![HeLayerSpec::Activation(vec![0.3, -0.4, 0.2, 0.1])], 3);
        // values outside [0, 1]: `encrypt_image_batch` takes any f32
        let img: Vec<f32> = (0..9).map(|i| -0.8 + 0.2 * i as f32).collect();
        let (_, y, _) = f.infer(&img, ExecMode::sequential());
        assert_eq!(y.level(), 0, "two levels consumed");
        f.assert_matches_plain(&y, &img, 5e-3);
    }

    #[test]
    fn activation_degree2_skips_ct_mult_but_matches() {
        let mut f = fixture(vec![HeLayerSpec::Activation(vec![0.0, 1.0, 0.5])], 2);
        let img: Vec<f32> = (0..4).map(|i| 0.1 + 0.2 * i as f32).collect();
        let (_, y, _) = f.infer(&img, ExecMode::sequential());
        f.assert_matches_plain(&y, &img, 5e-3);
        // the square is each unit's only ct×ct product
        let c = lower_network(&f.net, he_ir::GraphBuilder::for_context(f.ev.ctx()));
        assert_eq!(c.op_counts().ct_mults, 4);
    }

    #[test]
    fn conv_then_activation_then_dense_end_to_end() {
        // a miniature CNN1 over a 4×4 image on tiny params
        let conv = HeLayerSpec::Conv(ConvSpec {
            weight: (0..9).map(|i| (i as f32 - 4.0) * 0.1).collect(),
            bias: vec![0.1],
            in_ch: 1,
            out_ch: 1,
            k: 3,
            stride: 1,
            pad: 0,
        });
        let dense = HeLayerSpec::Dense(DenseSpec {
            weight: (0..4).map(|i| 0.3 - 0.15 * i as f32).collect(),
            bias: vec![-0.05],
            in_dim: 4,
            out_dim: 1,
        });
        let slaf = HeLayerSpec::Activation(vec![0.05, 0.5, 0.25, 0.0]);
        let mut f = fixture(vec![conv, slaf, dense], 4);
        let img: Vec<f32> = (0..16).map(|i| ((i * 7) % 10) as f32 / 10.0).collect();
        let (_, y, timing) = f.infer(&img, ExecMode::sequential());
        assert_eq!(timing.layers.len(), 3);
        f.assert_matches_plain(&y, &img, 5e-3);
    }

    #[test]
    fn fully_padded_output_is_bias_only() {
        // k=1, stride=2, pad=1 on a 3×3 image: output grid is 3×3 and
        // the corner/edge positions sample only padding — every tap is
        // skipped, exercising the bias-only branch.
        let conv = HeLayerSpec::Conv(ConvSpec {
            weight: vec![0.7],
            bias: vec![0.25],
            in_ch: 1,
            out_ch: 1,
            k: 1,
            stride: 2,
            pad: 1,
        });
        let mut f = fixture(vec![conv], 3);
        let img: Vec<f32> = (0..9).map(|i| 0.1 + 0.08 * i as f32).collect();
        let (scale, y, timing) = f.infer(&img, ExecMode::sequential());
        assert_eq!(y.shape(), &[1, 3, 3]);
        assert_eq!(timing.layers[0].unit_walls.len(), 9);
        // bias-only outputs land on the same level/scale as the
        // MAC+rescale outputs, so the tensor stays homogeneous
        for ct in &y.cts {
            assert_eq!(ct.level, 0);
            assert!((ct.scale / scale - 1.0).abs() < 1e-12);
        }
        let want = f.assert_matches_plain(&y, &img, 2e-3);
        // position (1,1) is the only one with a live tap
        assert!((want[4] - f64::from(0.25 + 0.7 * img[4])).abs() < 1e-6);
        for (i, w) in want.iter().enumerate().filter(|&(i, _)| i != 4) {
            assert!((w - 0.25).abs() < 1e-9, "unit {i} should be bias-only");
        }
    }

    #[test]
    fn parallel_mode_outputs_match_sequential_limb_for_limb() {
        let mut f = fixture(vec![strided_conv()], 6);
        let x = f.encrypt(&image(6));
        let (y_seq, _) =
            f.net
                .infer_encrypted_with(&f.ev, &f.rk, x.clone(), ExecMode::sequential());
        let (y_par, timing) =
            f.net
                .infer_encrypted_with(&f.ev, &f.rk, x, ExecMode::unit_parallel(4));
        assert_eq!(timing.layers[0].unit_walls.len(), 18);
        assert_eq!(y_seq.cts.len(), y_par.cts.len());
        for (a, b) in y_seq.cts.iter().zip(&y_par.cts) {
            assert_eq!(a.level, b.level);
            assert_eq!(a.scale.to_bits(), b.scale.to_bits());
            assert_eq!(a.c0.limbs_flat(), b.c0.limbs_flat());
            assert_eq!(a.c1.limbs_flat(), b.c1.limbs_flat());
        }
    }

    #[test]
    #[should_panic(expected = "no levels left to rescale")]
    fn activation_requires_depth() {
        // one level, but a SLAF consumes two
        let mut f = fixture(vec![HeLayerSpec::Activation(vec![0.0, 1.0, 0.5, 0.1])], 2);
        let ctx = CkksParams::tiny(1).build();
        let mut kg = KeyGenerator::new(Arc::clone(&ctx), 82);
        let sk = kg.gen_secret_key();
        (f.pk, f.rk, f.ev) = (
            kg.gen_public_key(&sk),
            kg.gen_relin_key(&sk),
            Evaluator::new(ctx),
        );
        let x = encrypt_image_batch(&f.ev, &f.pk, &mut f.s, &[&[0.5f32; 4]], 2, 1);
        let _ = f.net.infer_encrypted(&f.ev, &f.rk, x);
    }
}
