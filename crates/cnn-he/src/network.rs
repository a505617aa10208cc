//! Bridging trained plaintext models into the homomorphic engine.
//!
//! [`HeNetwork::from_trained`] walks a `neural::Sequential`, extracts the
//! frozen weights, **folds every BatchNorm into its preceding
//! convolution** (BN at inference is an affine map per channel, so
//! `BN(conv(x)) = conv'(x)` with rescaled kernels/bias — this keeps the
//! HE multiplicative depth at one level per linear layer, exactly as the
//! paper's CNN2 intends), and records SLAF coefficients.
//!
//! The resulting network evaluates identically in two worlds:
//! * [`HeNetwork::infer_plain`] — f64 reference;
//! * [`HeNetwork::infer_encrypted_with`] — over CKKS ciphertexts: the
//!   network's lowering ([`crate::graph::lower_network`]) prepared and
//!   run by `he_ir::Prepared`, with per-unit timing capture for the
//!   execution simulator.

use crate::exec::{ExecMode, InferenceTiming};
use crate::graph::{input_name, lower_network, EncodeSharing};
use crate::he_layers::{ConvSpec, DenseSpec};
use crate::he_tensor::CtTensor;
use crate::trace::{region_reports, NamedRuns};
use ckks::{Evaluator, RelinKey};
use he_ir::{GraphBuilder, Interpreter, Prepared};
use neural::layers::{BatchNorm, Conv2d, Dense, PolyActivation};
use neural::Sequential;

/// One layer of the HE-compatible network.
#[derive(Debug, Clone)]
pub enum HeLayerSpec {
    Conv(ConvSpec),
    Dense(DenseSpec),
    /// Polynomial activation coefficients `[c₀, c₁, …]`.
    Activation(Vec<f64>),
}

impl HeLayerSpec {
    /// Multiplicative levels this layer consumes.
    pub fn levels(&self) -> usize {
        match self {
            HeLayerSpec::Conv(_) | HeLayerSpec::Dense(_) => 1,
            HeLayerSpec::Activation(_) => 2,
        }
    }

    pub fn name(&self) -> String {
        match self {
            HeLayerSpec::Conv(c) => format!(
                "Conv({}→{}, {}×{}, s{}, p{})",
                c.in_ch, c.out_ch, c.k, c.k, c.stride, c.pad
            ),
            HeLayerSpec::Dense(d) => format!("Dense({}→{})", d.in_dim, d.out_dim),
            HeLayerSpec::Activation(c) => format!("SLAF(deg {})", c.len() - 1),
        }
    }
}

/// An extracted HE-compatible network.
#[derive(Debug, Clone)]
pub struct HeNetwork {
    pub layers: Vec<HeLayerSpec>,
    /// Input image side length.
    pub input_side: usize,
}

impl HeNetwork {
    /// Extracts a trained model. Panics if the model contains layers
    /// without an HE realization (e.g. ReLU — run the SLAF protocol
    /// first).
    pub fn from_trained(model: &Sequential, input_side: usize) -> Self {
        let mut layers: Vec<HeLayerSpec> = Vec::new();
        for layer in &model.layers {
            let any = layer.as_any();
            if let Some(conv) = any.downcast_ref::<Conv2d>() {
                layers.push(HeLayerSpec::Conv(ConvSpec {
                    weight: conv.weight.value.data().to_vec(),
                    bias: conv.bias.value.data().to_vec(),
                    in_ch: conv.in_ch,
                    out_ch: conv.out_ch,
                    k: conv.k,
                    stride: conv.stride,
                    pad: conv.pad,
                }));
            } else if let Some(bn) = any.downcast_ref::<BatchNorm>() {
                // fold into the preceding conv
                let prev = layers
                    .last_mut()
                    .unwrap_or_else(|| panic!("BatchNorm with no preceding layer"));
                let HeLayerSpec::Conv(spec) = prev else {
                    panic!("BatchNorm folding is only supported after Conv2d");
                };
                assert_eq!(bn.features, spec.out_ch, "BN feature mismatch");
                let (a, b) = bn.affine_params();
                let per_o = spec.in_ch * spec.k * spec.k;
                for o in 0..spec.out_ch {
                    for wv in &mut spec.weight[o * per_o..(o + 1) * per_o] {
                        *wv *= a[o];
                    }
                    spec.bias[o] = a[o] * spec.bias[o] + b[o];
                }
            } else if let Some(dense) = any.downcast_ref::<Dense>() {
                layers.push(HeLayerSpec::Dense(DenseSpec {
                    weight: dense.weight.value.data().to_vec(),
                    bias: dense.bias.value.data().to_vec(),
                    in_dim: dense.in_dim,
                    out_dim: dense.out_dim,
                }));
            } else if let Some(poly) = any.downcast_ref::<PolyActivation>() {
                layers.push(HeLayerSpec::Activation(poly.coeffs_f64()));
            } else if layer.name() == "Flatten" {
                // implicit in the ciphertext-tensor representation
            } else {
                panic!(
                    "layer {} has no homomorphic realization (run the SLAF protocol first)",
                    layer.name()
                );
            }
        }
        Self { layers, input_side }
    }

    /// Total multiplicative levels required by the network (the input
    /// encryption level).
    pub fn required_levels(&self) -> usize {
        self.layers.iter().map(HeLayerSpec::levels).sum()
    }

    /// f64 reference inference on one image (flat pixels).
    pub fn infer_plain(&self, image: &[f32]) -> Vec<f64> {
        assert_eq!(image.len(), self.input_side * self.input_side);
        let mut cur: Vec<f64> = image.iter().map(|&v| v as f64).collect();
        let mut shape = (1usize, self.input_side, self.input_side);
        for layer in &self.layers {
            match layer {
                HeLayerSpec::Conv(spec) => {
                    let (c, h, w) = shape;
                    assert_eq!(c, spec.in_ch);
                    let oh = spec.out_size(h);
                    let ow = spec.out_size(w);
                    let mut out = vec![0.0f64; spec.out_ch * oh * ow];
                    for o in 0..spec.out_ch {
                        for oy in 0..oh {
                            for ox in 0..ow {
                                let mut acc = spec.bias[o] as f64;
                                for ci in 0..c {
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
                                            let widx =
                                                ((o * spec.in_ch + ci) * spec.k + ky) * spec.k + kx;
                                            acc += spec.weight[widx] as f64
                                                * cur[(ci * h + iy - spec.pad) * w + ix - spec.pad];
                                        }
                                    }
                                }
                                out[(o * oh + oy) * ow + ox] = acc;
                            }
                        }
                    }
                    cur = out;
                    shape = (spec.out_ch, oh, ow);
                }
                HeLayerSpec::Dense(spec) => {
                    assert_eq!(cur.len(), spec.in_dim);
                    let mut out = vec![0.0f64; spec.out_dim];
                    for (o, ov) in out.iter_mut().enumerate() {
                        let mut acc = spec.bias[o] as f64;
                        for i in 0..spec.in_dim {
                            acc += spec.weight[o * spec.in_dim + i] as f64 * cur[i];
                        }
                        *ov = acc;
                    }
                    cur = out;
                    shape = (1, 1, cur.len());
                }
                HeLayerSpec::Activation(coeffs) => {
                    for v in cur.iter_mut() {
                        let x = *v;
                        let mut acc = 0.0;
                        for &c in coeffs.iter().rev() {
                            acc = acc * x + c;
                        }
                        *v = acc;
                    }
                }
            }
        }
        cur
    }

    /// Shape of the encrypted output tensor: a conv's `[C, H, W]`, a
    /// dense layer's `[D]`; an activation keeps its input's shape.
    fn output_shape(&self) -> Vec<usize> {
        let mut shape = vec![1, self.input_side, self.input_side];
        for layer in &self.layers {
            match layer {
                HeLayerSpec::Conv(c) => {
                    shape = vec![c.out_ch, c.out_size(shape[1]), c.out_size(shape[2])];
                }
                HeLayerSpec::Dense(d) => shape = vec![d.out_dim],
                HeLayerSpec::Activation(_) => {}
            }
        }
        shape
    }

    /// Encrypted inference over a ciphertext tensor on one thread. See
    /// [`Self::infer_encrypted_with`].
    pub fn infer_encrypted(
        &self,
        ev: &Evaluator,
        rk: &RelinKey,
        x: CtTensor,
    ) -> (CtTensor, InferenceTiming) {
        self.infer_encrypted_with(ev, rk, x, ExecMode::sequential())
    }

    /// Encrypted inference under a width cap: lowers the network against
    /// `ev`'s context, prepares the circuit and runs it on `x` (moved in),
    /// returning the encrypted logits and the per-layer timing record.
    /// Outputs are bit-identical across modes. Panics with the typed
    /// error's text when the circuit cannot run on `x`.
    pub fn infer_encrypted_with(
        &self,
        ev: &Evaluator,
        rk: &RelinKey,
        x: CtTensor,
        mode: ExecMode,
    ) -> (CtTensor, InferenceTiming) {
        let circuit = lower_network(
            self,
            GraphBuilder::for_context(ev.ctx()),
            EncodeSharing::Shared,
        );
        let prepared = Prepared::new(ev, circuit).unwrap_or_else(|e| panic!("{e}"));
        let (y, regions) = self
            .run_prepared(&prepared, ev, rk, x, mode)
            .unwrap_or_else(|e| panic!("{e}"));
        (y, region_reports(ev.ctx(), prepared.circuit(), regions).0)
    }

    /// Runs this network's prepared lowering on `x` under `mode`'s width
    /// cap: the logits tensor and one record per layer, named after it.
    pub(crate) fn run_prepared(
        &self,
        prepared: &Prepared,
        ev: &Evaluator,
        rk: &RelinKey,
        x: CtTensor,
        mode: ExecMode,
    ) -> Result<(CtTensor, NamedRuns), String> {
        let interp = Interpreter::new(ev).with_relin(rk);
        let inputs = x.cts.into_iter().enumerate();
        let inputs = inputs.map(|(i, ct)| (input_name(i), ct)).collect();
        let run = mode.install(|| prepared.run(&interp, inputs))?;
        let y = CtTensor {
            cts: run.outputs,
            shape: self.output_shape(),
        };
        let names = prepared.circuit().regions.iter().map(|r| r.name.clone());
        Ok((y, names.zip(run.regions).collect()))
    }

    /// Text rendering of the architecture (regenerates Figs. 3/4).
    pub fn describe(&self) -> String {
        let mut out = format!(
            "input {0}×{0} (encrypted, {1} levels required)\n",
            self.input_side,
            self.required_levels()
        );
        for (i, l) in self.layers.iter().enumerate() {
            out.push_str(&format!("  [{i}] {}\n", l.name()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neural::models::{cnn1, cnn2, ActKind};
    use neural::Tensor;

    #[test]
    fn extraction_shapes_cnn1() {
        let model = cnn1(ActKind::slaf3(), 90);
        let net = HeNetwork::from_trained(&model, 28);
        assert_eq!(net.layers.len(), 5); // conv, act, dense, act, dense
        assert_eq!(net.required_levels(), 1 + 2 + 1 + 2 + 1);
        assert!(matches!(net.layers[0], HeLayerSpec::Conv(_)));
        assert!(matches!(net.layers[1], HeLayerSpec::Activation(_)));
    }

    #[test]
    fn extraction_folds_bn_cnn2() {
        let model = cnn2(ActKind::slaf3(), 91);
        let net = HeNetwork::from_trained(&model, 28);
        // conv(+BN), act, conv(+BN), act, dense, act, dense = 7 specs
        assert_eq!(net.layers.len(), 7);
        assert_eq!(net.required_levels(), 1 + 2 + 1 + 2 + 1 + 2 + 1);
    }

    #[test]
    fn plain_reference_matches_neural_forward() {
        // the extracted f64 path must agree with the float model in eval
        // mode (BN folded vs BN applied)
        let mut model = cnn2(ActKind::slaf3(), 92);
        // push some running stats through BN so folding is non-trivial
        let x = Tensor::from_vec(
            &[8, 1, 28, 28],
            (0..8 * 784)
                .map(|i| ((i * 31) % 97) as f32 / 97.0)
                .collect(),
        );
        for _ in 0..30 {
            let _ = model.forward(&x, true);
        }
        let net = HeNetwork::from_trained(&model, 28);
        let img: Vec<f32> = (0..784).map(|i| ((i * 13) % 51) as f32 / 51.0).collect();
        let xt = Tensor::from_vec(&[1, 1, 28, 28], img.clone());
        let want = model.forward(&xt, false);
        let got = net.infer_plain(&img);
        for (g, w) in got.iter().zip(want.data()) {
            assert!(
                (g - *w as f64).abs() < 1e-3,
                "plain path mismatch: {g} vs {w}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "no homomorphic realization")]
    fn relu_model_rejected() {
        let model = cnn1(ActKind::Relu, 93);
        let _ = HeNetwork::from_trained(&model, 28);
    }
}
