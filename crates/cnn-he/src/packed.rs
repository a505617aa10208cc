//! Packed (Lo-La-style) inference engine — the alternative to scalar
//! packing, provided as the packing ablation of DESIGN.md §13.
//!
//! The whole activation vector of a layer lives in ONE ciphertext
//! (tiled cyclically across the slots); linear layers become
//! plaintext-matrix × encrypted-vector products evaluated with the
//! baby-step/giant-step diagonal method (≈ 2√D rotations instead of D),
//! and each nonlinearity is a *single* SLAF evaluation per layer instead
//! of one per neuron. Latency is dominated by rotations rather than by
//! per-neuron accumulations — the trade Lo-La makes against CryptoNets.
//!
//! Convolutions are lowered to their (sparse) matrix form at extraction
//! time (`im2col` on the weight side), so the engine evaluates the exact
//! same function as the scalar engine and the plaintext reference.
//!
//! This module owns the packed *data* (diagonals, layout, shard
//! planning, encrypt/decrypt). It does not drive the `Evaluator`: a
//! packed network executes by lowering to an `he-ir` circuit
//! ([`crate::packed_graph::lower_packed`]) and interpreting its
//! [`he_ir::Prepared`] form.

use crate::he_layers::ConvSpec;
use crate::network::{HeLayerSpec, HeNetwork};
use crate::packed_graph::{lower_packed, PackedLowering, PACKED_INPUT};
use ckks::{
    encode_batched, Ciphertext, Evaluator, GaloisKeys, HeError, PackLayout, PublicKey, RelinKey,
    SecretKey, ShardPlan,
};
use ckks_math::sampler::Sampler;
use rayon::prelude::*;
use std::collections::HashMap;
use std::time::Duration;

/// A layer of the packed engine.
#[derive(Debug, Clone)]
pub enum PackedLayer {
    /// Square (padded) linear map `y = M·x + b` over the common dim.
    Matrix {
        /// `diags[d][i] = M[i][(i+d) mod dim]` — the generalized
        /// diagonals; all-zero diagonals stored as `None`.
        diags: Vec<Option<Vec<f64>>>,
        bias: Vec<f64>,
        dim: usize,
    },
    /// SLAF coefficients.
    Activation(Vec<f64>),
}

/// A network in packed form: every layer padded to one power-of-two
/// dimension `dim`.
#[derive(Debug, Clone)]
pub struct PackedNetwork {
    pub layers: Vec<PackedLayer>,
    /// Common padded vector dimension (power of two).
    pub dim: usize,
    /// True input length (≤ dim).
    pub input_dim: usize,
    /// True output length (≤ dim).
    pub output_dim: usize,
}

/// Dense row-major matrix → generalized diagonals.
fn matrix_to_diags(m: &[f64], dim: usize) -> Vec<Option<Vec<f64>>> {
    (0..dim)
        .map(|d| {
            let diag: Vec<f64> = (0..dim).map(|i| m[i * dim + (i + d) % dim]).collect();
            if diag.iter().all(|&v| v == 0.0) {
                None
            } else {
                Some(diag)
            }
        })
        .collect()
}

/// Lowers a conv spec to its `(out_flat × in_flat)` dense matrix.
fn conv_to_matrix(spec: &ConvSpec, in_hw: usize) -> (Vec<f64>, Vec<f64>, usize, usize) {
    let oh = spec.out_size(in_hw);
    let out_dim = spec.out_ch * oh * oh;
    let in_dim = spec.in_ch * in_hw * in_hw;
    let mut m = vec![0.0f64; out_dim * in_dim];
    let mut bias = vec![0.0f64; out_dim];
    for o in 0..spec.out_ch {
        for oy in 0..oh {
            for ox in 0..oh {
                let row = (o * oh + oy) * oh + ox;
                bias[row] = spec.bias[o] as f64;
                for ci in 0..spec.in_ch {
                    for ky in 0..spec.k {
                        let iy = oy * spec.stride + ky;
                        if iy < spec.pad || iy - spec.pad >= in_hw {
                            continue;
                        }
                        for kx in 0..spec.k {
                            let ix = ox * spec.stride + kx;
                            if ix < spec.pad || ix - spec.pad >= in_hw {
                                continue;
                            }
                            let col = (ci * in_hw + iy - spec.pad) * in_hw + ix - spec.pad;
                            let w =
                                spec.weight[((o * spec.in_ch + ci) * spec.k + ky) * spec.k + kx];
                            m[row * in_dim + col] = w as f64;
                        }
                    }
                }
            }
        }
    }
    (m, bias, out_dim, in_dim)
}

impl PackedNetwork {
    /// Converts an extracted network into packed form. All layer
    /// dimensions are padded to the next power of two of the largest.
    pub fn from_network(net: &HeNetwork) -> Self {
        // first pass: collect per-layer (matrix, bias, out, in) or activation
        enum Raw {
            Mat(Vec<f64>, Vec<f64>, usize, usize),
            Act(Vec<f64>),
        }
        let mut raw = Vec::new();
        let mut cur_hw = net.input_side;
        let mut cur_dim = net.input_side * net.input_side;
        let input_dim = cur_dim;
        for layer in &net.layers {
            match layer {
                HeLayerSpec::Conv(spec) => {
                    let (m, b, od, id) = conv_to_matrix(spec, cur_hw);
                    assert_eq!(id, cur_dim);
                    cur_hw = spec.out_size(cur_hw);
                    cur_dim = od;
                    raw.push(Raw::Mat(m, b, od, id));
                }
                HeLayerSpec::Dense(spec) => {
                    assert_eq!(spec.in_dim, cur_dim, "dense dim mismatch");
                    let m: Vec<f64> = spec.weight.iter().map(|&w| w as f64).collect();
                    let b: Vec<f64> = spec.bias.iter().map(|&v| v as f64).collect();
                    cur_dim = spec.out_dim;
                    raw.push(Raw::Mat(m, b, spec.out_dim, spec.in_dim));
                }
                HeLayerSpec::Activation(c) => raw.push(Raw::Act(c.clone())),
            }
        }
        let output_dim = cur_dim;
        // common padded dimension
        let max_dim = raw
            .iter()
            .filter_map(|r| match r {
                Raw::Mat(_, _, od, id) => Some((*od).max(*id)),
                _ => None,
            })
            .max()
            .unwrap_or(input_dim)
            .max(input_dim);
        let dim = max_dim.next_power_of_two();

        let layers = raw
            .into_iter()
            .map(|r| match r {
                Raw::Act(c) => PackedLayer::Activation(c),
                Raw::Mat(m, b, od, id) => {
                    // pad to dim × dim
                    let mut padded = vec![0.0f64; dim * dim];
                    for i in 0..od {
                        padded[i * dim..i * dim + id].copy_from_slice(&m[i * id..(i + 1) * id]);
                    }
                    let mut bias = vec![0.0f64; dim];
                    bias[..od].copy_from_slice(&b);
                    PackedLayer::Matrix {
                        diags: matrix_to_diags(&padded, dim),
                        bias,
                        dim,
                    }
                }
            })
            .collect();
        Self {
            layers,
            dim,
            input_dim,
            output_dim,
        }
    }

    /// Baby-step size `B ≈ √dim` (power of two, `B² ≥ dim`).
    pub fn baby(&self) -> usize {
        let mut b = 1usize;
        while b * b < self.dim {
            b <<= 1;
        }
        b
    }

    /// Galois rotation steps the encrypted path needs (baby steps
    /// `1..B` and giant steps `B, 2B, …`) in the stride-1 tiled layout.
    pub fn required_rotation_steps(&self) -> Vec<i64> {
        let b = self.baby();
        let mut steps: Vec<i64> = (1..b as i64).collect();
        let mut g = b;
        while g < self.dim {
            steps.push(g as i64);
            g += b;
        }
        steps
    }

    /// [`Self::required_rotation_steps`] for a batch-strided layout:
    /// every BSGS step scales by the lane stride (rotating by `d·stride`
    /// shifts every lane's elements by `d`).
    pub fn required_rotation_steps_for(&self, layout: &PackLayout) -> Vec<i64> {
        assert_eq!(layout.dim(), self.dim, "layout dim mismatch");
        self.required_rotation_steps()
            .iter()
            .map(|&s| layout.rotation_step(s))
            .collect()
    }

    /// Plans a logical batch of `batch` images onto ciphertext shards
    /// (lane count capped by `slots / dim`, remainder spilling into
    /// further shards). An empty batch is [`HeError::EmptyBatch`].
    pub fn plan_batch(&self, slots: usize, batch: usize) -> Result<ShardPlan, HeError> {
        ShardPlan::plan(slots, self.dim, batch)
    }

    /// Plaintext reference of the packed function (must equal the
    /// original network's `infer_plain` on the true dims).
    pub fn infer_plain(&self, input: &[f32]) -> Vec<f64> {
        assert_eq!(input.len(), self.input_dim);
        let mut x = vec![0.0f64; self.dim];
        for (i, &v) in input.iter().enumerate() {
            x[i] = v as f64;
        }
        for layer in &self.layers {
            match layer {
                PackedLayer::Matrix { diags, bias, dim } => {
                    let mut y = bias.clone();
                    for (d, diag) in diags.iter().enumerate() {
                        if let Some(diag) = diag {
                            for i in 0..*dim {
                                y[i] += diag[i] * x[(i + d) % dim];
                            }
                        }
                    }
                    x = y;
                }
                PackedLayer::Activation(c) => {
                    for v in x.iter_mut() {
                        let mut acc = 0.0;
                        for &ck in c.iter().rev() {
                            acc = acc * *v + ck;
                        }
                        *v = acc;
                    }
                }
            }
        }
        x[..self.output_dim].to_vec()
    }

    /// Multiplicative levels required.
    pub fn required_levels(&self) -> usize {
        self.layers
            .iter()
            .map(|l| match l {
                PackedLayer::Matrix { .. } => 1,
                PackedLayer::Activation(_) => 2,
            })
            .sum()
    }

    /// Encrypts a batch of images into the plan's shard ciphertexts:
    /// `plan.shards()` ciphertexts, each packing up to
    /// `plan.layout().batch()` images in the batch-strided layout.
    /// Typed failure when the images cannot be packed as planned.
    pub fn encrypt_batch(
        &self,
        ev: &Evaluator,
        pk: &PublicKey,
        sampler: &mut Sampler,
        images: &[&[f32]],
        plan: &ShardPlan,
    ) -> Result<Vec<Ciphertext>, HeError> {
        if images.len() != plan.total() {
            return Err(HeError::ShapeMismatch {
                what: "batch size",
                got: images.len(),
                expected: plan.total(),
            });
        }
        if let Some(img) = images.iter().find(|img| img.len() != self.input_dim) {
            return Err(HeError::ShapeMismatch {
                what: "image length",
                got: img.len(),
                expected: self.input_dim,
            });
        }
        let layout = plan.layout();
        let level = self.required_levels();
        let scale = ev.ctx().params().scale();
        let mut out = Vec::with_capacity(plan.shards());
        for s in 0..plan.shards() {
            let lo = s * layout.batch();
            let hi = (lo + layout.batch()).min(images.len());
            let lanes: Vec<Vec<f64>> = images[lo..hi]
                .iter()
                .map(|img| img.iter().map(|&v| v as f64).collect())
                .collect();
            let refs: Vec<&[f64]> = lanes.iter().map(Vec::as_slice).collect();
            let pt = encode_batched(ev.ctx(), &refs, &layout, scale, level)?;
            out.push(ev.encrypt(&pt, pk, sampler));
        }
        Ok(out)
    }

    /// Decrypts the shard ciphertexts of a batched inference back to
    /// one logits row per image (only the `output_dim` true logits, in
    /// the original batch order).
    pub fn decrypt_batch(
        &self,
        ev: &Evaluator,
        sk: &SecretKey,
        shards: &[Ciphertext],
        plan: &ShardPlan,
    ) -> Vec<Vec<f64>> {
        assert_eq!(shards.len(), plan.shards(), "plan/shard count mismatch");
        let layout = plan.layout();
        let mut out = Vec::with_capacity(plan.total());
        for (s, ct) in shards.iter().enumerate() {
            let dec = ev.decrypt_to_real(ct, sk);
            out.extend(layout.unpack(&dec, plan.lanes_in_shard(s), self.output_dim));
        }
        out
    }

    /// Prepares the un-optimized reference circuit
    /// ([`PackedLowering::Eager`]) for a layout: every diagonal and bias
    /// plaintext is broadcast to every lane and encoded once, hoisting
    /// the embedding+NTT cost out of inference. The production path
    /// ([`crate::CnnHePipeline`]) prepares the *optimized* circuit the
    /// same way; this one is the reference tests and benchmarks compare
    /// it against.
    pub fn precompute_layout(&self, ev: &Evaluator, layout: &PackLayout) -> PackedPrecomputed {
        assert_eq!(layout.dim(), self.dim, "layout dim mismatch");
        assert_eq!(layout.slots(), ev.ctx().slots(), "layout ring mismatch");
        let circuit = lower_packed(
            self,
            he_ir::GraphBuilder::for_context(ev.ctx()),
            layout.stride(),
            PackedLowering::Eager,
        );
        PackedPrecomputed {
            prepared: he_ir::Prepared::new(ev, circuit).expect("the eager lowering validates"),
        }
    }

    /// Interprets the reference circuit over every shard of a batched
    /// request. `gk` must cover [`Self::required_rotation_steps_for`]
    /// the precompute's layout.
    pub fn infer_batch(
        &self,
        ev: &Evaluator,
        rk: &RelinKey,
        gk: &GaloisKeys,
        pre: &PackedPrecomputed,
        shards: Vec<Ciphertext>,
    ) -> ShardRun {
        let interp = he_ir::Interpreter::new(ev).with_relin(rk).with_galois(gk);
        let (outs, runs) =
            run_shards(&pre.prepared, &interp, shards).expect("the reference circuit executes");
        (
            outs,
            runs.into_iter().map(|(name, r)| (name, r.wall)).collect(),
        )
    }
}

/// Output shards of a batched run plus one wall per shard and region,
/// named `shard s: <region>`.
pub type ShardRun = (Vec<Ciphertext>, Vec<(String, Duration)>);

/// Runs one prepared packed circuit over every shard of a batched
/// request. Shards are independent runs of the same circuit, so they
/// fan out across the rayon pool (limb loops inside a shard then run
/// inline); the order-preserving `collect` keeps shard `s`'s output and
/// its `shard s: <region>` records at index `s`, bit-identical to a
/// one-thread run. Each run consumes its shard's input.
pub(crate) fn run_shards(
    prepared: &he_ir::Prepared,
    interp: &he_ir::Interpreter,
    shards: Vec<Ciphertext>,
) -> Result<(Vec<Ciphertext>, crate::trace::NamedRuns), String> {
    let regions = &prepared.circuit().regions;
    let mut inputs: Vec<HashMap<String, Ciphertext>> = shards
        .into_iter()
        .map(|ct| HashMap::from([(PACKED_INPUT.to_string(), ct)]))
        .collect();
    let runs: Vec<Result<he_ir::RunOutput, String>> = inputs
        .par_iter_mut()
        .map(|inputs| prepared.run(interp, std::mem::take(inputs)))
        .collect();
    let mut outs = Vec::with_capacity(runs.len());
    let mut records = Vec::with_capacity(runs.len() * regions.len());
    for (s, run) in runs.into_iter().enumerate() {
        let mut run = run?;
        outs.push(run.outputs.remove(0));
        records.extend(
            regions
                .iter()
                .zip(run.regions)
                .map(|(r, record)| (format!("shard {s}: {}", r.name), record)),
        );
    }
    Ok((outs, records))
}

/// The prepared reference circuit of a packed network at one layout.
pub struct PackedPrecomputed {
    prepared: he_ir::Prepared,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::he_layers::DenseSpec;
    use crate::he_tensor::encrypt_image_batch;
    use ckks::{CkksParams, KeyGenerator};
    use std::sync::Arc;

    /// A small CNN1-shaped network over 8×8 inputs (dims ≤ 64).
    fn mini_net(seed: u64) -> HeNetwork {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut w =
            |n: usize| -> Vec<f32> { (0..n).map(|_| rng.gen_range(-0.25f32..0.25)).collect() };
        HeNetwork {
            layers: vec![
                HeLayerSpec::Conv(ConvSpec {
                    weight: w(2 * 9),
                    bias: vec![0.1, -0.1],
                    in_ch: 1,
                    out_ch: 2,
                    k: 3,
                    stride: 2,
                    pad: 0,
                }), // 8→3, out dim 18
                HeLayerSpec::Activation(vec![0.05, 0.7, 0.2]),
                HeLayerSpec::Dense(DenseSpec {
                    weight: w(18 * 5),
                    bias: w(5),
                    in_dim: 18,
                    out_dim: 5,
                }),
            ],
            input_side: 8,
        }
    }

    /// One tiled (stride-1) image through the reference circuit.
    fn infer_one(
        packed: &PackedNetwork,
        ev: &Evaluator,
        (pk, rk, gk): (&PublicKey, &RelinKey, &GaloisKeys),
        sampler: &mut Sampler,
        img: &[f32],
    ) -> (Ciphertext, Vec<(String, Duration)>) {
        let plan = packed
            .plan_batch(ev.ctx().slots(), 1)
            .expect("dim fits the ring");
        let cts = packed
            .encrypt_batch(ev, pk, sampler, &[img], &plan)
            .expect("one lane packs");
        let pre = packed.precompute_layout(ev, &plan.layout());
        let (mut outs, times) = packed.infer_batch(ev, rk, gk, &pre, cts);
        (outs.remove(0), times)
    }

    #[test]
    fn packed_plain_matches_original_plain() {
        let net = mini_net(40);
        let packed = PackedNetwork::from_network(&net);
        assert_eq!(packed.input_dim, 64);
        assert_eq!(packed.output_dim, 5);
        assert_eq!(packed.dim, 64); // max(64, 18, 5) → 64
        let img: Vec<f32> = (0..64).map(|i| ((i * 3) % 10) as f32 / 10.0).collect();
        let a = net.infer_plain(&img);
        let b = packed.infer_plain(&img);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn conv_matrix_lowering_is_exact() {
        let spec = ConvSpec {
            weight: (0..9).map(|i| i as f32 * 0.1).collect(),
            bias: vec![0.5],
            in_ch: 1,
            out_ch: 1,
            k: 3,
            stride: 1,
            pad: 1,
        };
        let (m, bias, od, id) = conv_to_matrix(&spec, 4);
        assert_eq!((od, id), (16, 16));
        // multiply a test vector through the matrix and compare with the
        // direct conv from the scalar engine's reference
        let x: Vec<f32> = (0..16).map(|i| (i as f32 - 8.0) * 0.25).collect();
        let net = HeNetwork {
            layers: vec![HeLayerSpec::Conv(spec)],
            input_side: 4,
        };
        let direct = net.infer_plain(&x);
        for i in 0..16 {
            let mut acc = bias[i];
            for j in 0..16 {
                acc += m[i * 16 + j] * x[j] as f64;
            }
            assert!((acc - direct[i]).abs() < 1e-9, "row {i}");
        }
    }

    #[test]
    fn packed_encrypted_matches_plain() {
        let net = mini_net(41);
        let packed = PackedNetwork::from_network(&net);
        let ctx = CkksParams::tiny(packed.required_levels()).build();
        let mut kg = KeyGenerator::new(Arc::clone(&ctx), 42);
        let sk = kg.gen_secret_key();
        let pk = kg.gen_public_key(&sk);
        let rk = kg.gen_relin_key(&sk);
        let gk = kg.gen_galois_keys(&sk, &packed.required_rotation_steps(), false);
        let ev = Evaluator::new(Arc::clone(&ctx));
        let mut s = Sampler::from_seed(43);

        let img: Vec<f32> = (0..64).map(|i| ((i * 7) % 13) as f32 / 13.0).collect();
        let (y, times) = infer_one(&packed, &ev, (&pk, &rk, &gk), &mut s, &img);
        assert_eq!(times.len(), 3);
        assert!(times[1].0.starts_with("shard 0: "), "{}", times[1].0);
        let out = ev.decrypt_to_real(&y, &sk);
        let want = packed.infer_plain(&img);
        for i in 0..packed.output_dim {
            assert!(
                (out[i] - want[i]).abs() < 0.02,
                "slot {i}: {} vs {}",
                out[i],
                want[i]
            );
        }
    }

    #[test]
    fn packed_uses_fewer_ciphertext_ops_than_scalar() {
        // structural claim behind the Lo-La trade: rotations ≈ 2√D per
        // linear layer instead of D·taps scalar MACs + per-neuron SLAFs
        let net = mini_net(44);
        let packed = PackedNetwork::from_network(&net);
        let rot_steps = packed.required_rotation_steps().len();
        assert!(
            rot_steps <= 2 * (packed.dim as f64).sqrt() as usize + 2,
            "rotation budget blew up: {rot_steps} for dim {}",
            packed.dim
        );
    }

    #[test]
    fn encrypt_batch_refuses_misshapen_requests_typed() {
        let packed = PackedNetwork::from_network(&mini_net(48));
        let ctx = CkksParams::tiny(packed.required_levels()).build();
        let mut kg = KeyGenerator::new(Arc::clone(&ctx), 49);
        let sk = kg.gen_secret_key();
        let pk = kg.gen_public_key(&sk);
        let ev = Evaluator::new(Arc::clone(&ctx));
        let mut s = Sampler::from_seed(50);
        let plan = packed.plan_batch(ctx.slots(), 2).unwrap();
        let (good, short) = (vec![0.5f32; 64], vec![0.5f32; 10]);
        let err = packed
            .encrypt_batch(&ev, &pk, &mut s, &[&good, &short], &plan)
            .unwrap_err();
        assert_eq!(
            err,
            HeError::ShapeMismatch {
                what: "image length",
                got: 10,
                expected: 64
            }
        );
        let err = packed
            .encrypt_batch(&ev, &pk, &mut s, &[&good], &plan)
            .unwrap_err();
        assert!(matches!(
            err,
            HeError::ShapeMismatch {
                what: "batch size",
                got: 1,
                expected: 2
            }
        ));
    }

    #[test]
    fn batched_inference_matches_plain_per_lane() {
        // 3 images (non-pow2 → padded to 4 lanes) in ONE ciphertext:
        // the packed BSGS circuit runs once, every lane gets its logits
        let net = mini_net(51);
        let packed = PackedNetwork::from_network(&net);
        let ctx = CkksParams::tiny(packed.required_levels()).build();
        let mut kg = KeyGenerator::new(Arc::clone(&ctx), 52);
        let sk = kg.gen_secret_key();
        let pk = kg.gen_public_key(&sk);
        let rk = kg.gen_relin_key(&sk);
        let ev = Evaluator::new(Arc::clone(&ctx));
        let mut s = Sampler::from_seed(53);

        let plan = packed.plan_batch(ctx.slots(), 3).unwrap();
        assert_eq!(plan.shards(), 1);
        assert_eq!(plan.layout().batch(), 4, "3 lanes pad to 4");
        let gk = kg.gen_galois_keys(
            &sk,
            &packed.required_rotation_steps_for(&plan.layout()),
            false,
        );

        let images: Vec<Vec<f32>> = (0..3)
            .map(|k| {
                (0..64)
                    .map(|i| ((i * (k + 3)) % 11) as f32 / 11.0)
                    .collect()
            })
            .collect();
        let refs: Vec<&[f32]> = images.iter().map(Vec::as_slice).collect();
        let cts = packed
            .encrypt_batch(&ev, &pk, &mut s, &refs, &plan)
            .unwrap();
        let pre = packed.precompute_layout(&ev, &plan.layout());
        let (outs, _) = packed.infer_batch(&ev, &rk, &gk, &pre, cts);
        let logits = packed.decrypt_batch(&ev, &sk, &outs, &plan);
        assert_eq!(logits.len(), 3);
        for (k, img) in images.iter().enumerate() {
            let want = packed.infer_plain(img);
            for i in 0..packed.output_dim {
                assert!(
                    (logits[k][i] - want[i]).abs() < 0.02,
                    "image {k} logit {i}: {} vs {}",
                    logits[k][i],
                    want[i]
                );
            }
        }
    }

    #[test]
    fn batch_overflow_spills_into_shards() {
        let net = mini_net(54);
        let packed = PackedNetwork::from_network(&net);
        // tiny ring: 512 slots / dim 64 = 8 lanes per ciphertext
        let plan = packed.plan_batch(512, 9).unwrap();
        assert_eq!(plan.shards(), 2, "9 images need a 2-shard split");
        assert_eq!(plan.lanes_in_shard(0), 8);
        assert_eq!(plan.lanes_in_shard(1), 1);
    }

    #[test]
    fn empty_batch_plan_is_a_typed_error() {
        let packed = PackedNetwork::from_network(&mini_net(54));
        assert_eq!(packed.plan_batch(512, 0), Err(HeError::EmptyBatch));
    }

    #[test]
    fn scalar_and_packed_engines_agree_encrypted() {
        // the two engines evaluate the same function — compare their
        // *encrypted* outputs on the same trained-free weights
        let net = mini_net(45);
        let packed = PackedNetwork::from_network(&net);
        let depth = packed.required_levels();
        let ctx = CkksParams::tiny(depth).build();
        let mut kg = KeyGenerator::new(Arc::clone(&ctx), 46);
        let sk = kg.gen_secret_key();
        let pk = kg.gen_public_key(&sk);
        let rk = kg.gen_relin_key(&sk);
        let gk = kg.gen_galois_keys(&sk, &packed.required_rotation_steps(), false);
        let ev = Evaluator::new(Arc::clone(&ctx));
        let mut s = Sampler::from_seed(47);

        let img: Vec<f32> = (0..64).map(|i| (i % 5) as f32 / 5.0).collect();

        // scalar engine
        let xt = encrypt_image_batch(&ev, &pk, &mut s, &[&img], 8, depth);
        let (scalar_out, _) = net.infer_encrypted(&ev, &rk, xt);
        let scalar_logits = crate::he_tensor::decrypt_tensor(&ev, &sk, &scalar_out, 1);

        // packed engine
        let (packed_out, _) = infer_one(&packed, &ev, (&pk, &rk, &gk), &mut s, &img);
        let packed_logits = ev.decrypt_to_real(&packed_out, &sk);

        for i in 0..packed.output_dim {
            assert!(
                (scalar_logits[0][i] - packed_logits[i]).abs() < 0.03,
                "logit {i}: scalar {} vs packed {}",
                scalar_logits[0][i],
                packed_logits[i]
            );
        }
    }
}
