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
//!   run by `he_ir::Prepared`, with one timing record per layer.

use crate::exec::{ExecMode, InferenceTiming};
use crate::graph::{input_name, lower_network};
use crate::he_layers::{conv_rows, dense_rows, horner, ConvSpec, DenseSpec, LayerForm};
use crate::he_tensor::CtTensor;
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
            HeLayerSpec::Activation(c) => format!("SLAF(deg {})", c.len().saturating_sub(1)),
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

    /// The `(c, h, w)` input shape of each layer, in order: the one shape
    /// walk over the network. A dense layer's output is `(1, 1, out_dim)`.
    pub fn input_shapes(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let first = (1usize, self.input_side, self.input_side);
        self.layers.iter().scan(first, |shape, layer| {
            let input = *shape;
            match layer {
                HeLayerSpec::Conv(spec) => {
                    *shape = (spec.out_ch, spec.out_size(input.1), spec.out_size(input.2));
                }
                HeLayerSpec::Dense(spec) => *shape = (1, 1, spec.out_dim),
                HeLayerSpec::Activation(_) => {}
            }
            Some(input)
        })
    }

    /// Each layer in the form its readers take, in order. A linear
    /// layer's rows are built when the iterator reaches it.
    pub fn forms(&self) -> impl Iterator<Item = LayerForm<'_>> {
        let shapes = self.input_shapes();
        self.layers
            .iter()
            .zip(shapes)
            .map(|(layer, shape)| match layer {
                HeLayerSpec::Conv(spec) => LayerForm::Linear(conv_rows(spec, shape)),
                HeLayerSpec::Dense(spec) => {
                    LayerForm::Linear(dense_rows(spec, shape.0 * shape.1 * shape.2))
                }
                HeLayerSpec::Activation(coeffs) => LayerForm::Slaf(coeffs),
            })
    }

    /// f64 reference inference on one image (flat pixels).
    pub fn infer_plain(&self, image: &[f32]) -> Vec<f64> {
        assert_eq!(image.len(), self.input_side * self.input_side);
        let mut cur: Vec<f64> = image.iter().map(|&v| f64::from(v)).collect();
        for form in self.forms() {
            cur = match form {
                LayerForm::Linear(rows) => rows.iter().map(|r| r.eval(&cur)).collect(),
                LayerForm::Slaf(coeffs) => cur.iter().map(|&x| horner(coeffs, x)).collect(),
            };
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
        let circuit = lower_network(self, GraphBuilder::for_context(ev.ctx()));
        let prepared = Prepared::new(ev, circuit).unwrap_or_else(|e| panic!("{e}"));
        self.run_prepared(&prepared, ev, rk, x, mode)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs this network's prepared lowering on `x` under `mode`'s width
    /// cap: the logits tensor and one record per layer.
    pub(crate) fn run_prepared(
        &self,
        prepared: &Prepared,
        ev: &Evaluator,
        rk: &RelinKey,
        x: CtTensor,
        mode: ExecMode,
    ) -> Result<(CtTensor, InferenceTiming), String> {
        let interp = Interpreter::new(ev).with_relin(rk);
        let inputs = x.cts.into_iter().enumerate();
        let inputs = inputs.map(|(i, ct)| (input_name(i), ct)).collect();
        let run = mode.install(|| prepared.run(&interp, inputs))?;
        let y = CtTensor {
            cts: run.outputs,
            shape: self.output_shape(),
        };
        let layers = run.regions;
        Ok((y, InferenceTiming { layers }))
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
pub(crate) mod tests {
    use super::*;
    use neural::models::{cnn1, cnn2, ActKind};
    use neural::Tensor;
    use proptest::prelude::*;

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

    /// A trained-free conv of the given geometry behind a 1×1 conv that
    /// fans the `side`×`side` image out to its `in_ch` channels (all
    /// weights non-zero), about a quarter of its own weights zeroed: the
    /// `neural` model and the network extracted from it.
    pub(crate) fn random_conv(
        seed: u64,
        (in_ch, out_ch, k, stride, pad, side): (usize, usize, usize, usize, usize, usize),
    ) -> (Sequential, HeNetwork) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut fan_out = Conv2d::new(1, in_ch, 1, 1, 0, &mut rng);
        for w in fan_out.weight.value.data_mut() {
            *w = rng.gen_range(0.5f32..1.0);
        }
        let mut conv = Conv2d::new(in_ch, out_ch, k, stride, pad, &mut rng);
        for w in conv.weight.value.data_mut() {
            if rng.gen_bool(0.25) {
                *w = 0.0;
            }
        }
        for b in conv.bias.value.data_mut() {
            *b = rng.gen_range(-0.5f32..0.5);
        }
        let model = Sequential::new(vec![Box::new(fan_out), Box::new(conv)]);
        let net = HeNetwork::from_trained(&model, side);
        (model, net)
    }

    /// Conv geometries: 1–2 channels in and out, k 1–3, stride 1–2, pad
    /// 0..k, and an input side from the smallest the padded kernel fits
    /// (so whole output rows can see only padding) up to four more.
    pub(crate) fn conv_geometry(
    ) -> impl Strategy<Value = (usize, usize, usize, usize, usize, usize)> {
        let channels = (1usize..3, 1usize..3);
        (channels, 1usize..4, 1usize..3, (0usize..3, 0usize..5)).prop_map(
            |((in_ch, out_ch), k, stride, (pad, extra))| {
                let pad = pad % k;
                let side = k.saturating_sub(2 * pad).max(1) + extra;
                (in_ch, out_ch, k, stride, pad, side)
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        // Over random conv geometries: the row form's plain reference
        // is `neural`'s forward, and the scalar lowering emits exactly
        // one scalar MAC per in-bounds non-zero tap (counted here from
        // signed input coordinates, not from the rows).
        #[test]
        fn plain_reference_matches_neural_forward(seed in 0u64..1_000, geo in conv_geometry()) {
            let (mut model, net) = random_conv(seed, geo);
            let (in_ch, out_ch, k, stride, pad, side) = geo;
            let img: Vec<f32> = (0..side * side)
                .map(|i| ((i * 13 + seed as usize) % 51) as f32 / 25.5 - 1.0)
                .collect();
            let want = model.forward(&Tensor::from_vec(&[1, 1, side, side], img.clone()), false);
            let got = net.infer_plain(&img);
            prop_assert_eq!(got.len(), want.numel());
            for (g, w) in got.iter().zip(want.data()) {
                prop_assert!((g - f64::from(*w)).abs() < 1e-4, "{g} vs {w}");
            }

            let HeLayerSpec::Conv(spec) = &net.layers[1] else {
                unreachable!("the fan-out, then the conv under test")
            };
            // output coordinate `o`, kernel offset `t`: inside the input?
            let on_input = |o: usize, t: usize| {
                let c = (o * stride + t) as isize - pad as isize;
                (0..side as isize).contains(&c)
            };
            let oside = spec.out_size(side);
            let mut macs = (in_ch * side * side) as u64; // the fan-out's
            for (tap, &w) in spec.weight.iter().enumerate() {
                let (ky, kx) = (tap / k % k, tap % k);
                for oy in 0..oside {
                    for ox in 0..oside {
                        macs += u64::from(w != 0.0 && on_input(oy, ky) && on_input(ox, kx));
                    }
                }
            }
            prop_assert_eq!(spec.weight.len(), out_ch * in_ch * k * k);
            let params = ckks::CkksParams::tiny(net.required_levels());
            let circuit = lower_network(&net, GraphBuilder::new(params));
            prop_assert_eq!(circuit.op_counts().scalar_macs, macs);
        }
    }

    #[test]
    fn plain_reference_folds_batchnorm() {
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
