//! Lowering of extracted networks into the `he-ir` circuit IR.
//!
//! [`lower_network`] replays, against a [`GraphBuilder`], the *exact*
//! evaluator call sequence the eager engine makes — the same tap
//! skipping ([`crate::weights::WeightResidueTable`] drops zero weights,
//! padding drops out-of-bounds taps), the same lazy accumulator
//! seeding, the same SLAF Horner shape ([`crate::he_layers`]) — so a
//! circuit lowered with [`GraphBuilder::for_context`] declares types
//! bit-identical to an eager run and interprets
//! ([`he_ir::Interpreter`]) to bit-identical ciphertexts.
//!
//! Eager execution is untouched: the engine keeps running layer
//! functions directly; this module is the recording front-end the
//! static passes and the IR↔eager differential consume. Scalar
//! admission ([`crate::analyze::admission`]), the `he-ir check` CLI and
//! (after a run) the trace cross-check all read this lowering.

use crate::he_layers::{ConvSpec, DenseSpec};
use crate::he_tensor::CtTensor;
use crate::network::{HeLayerSpec, HeNetwork};
use ckks::Ciphertext;
use he_ir::{Circuit, GraphBuilder, KeyInventory, Layout, NodeId};
use std::collections::HashMap;

/// How weight/coefficient encodes are materialized in the IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeSharing {
    /// One encode node per distinct `(value, pt_scale, level)` per layer
    /// — mirrors [`crate::weights::WeightResidueTable`]'s dedup, so the
    /// circuit's encode count equals the table's `distinct()`.
    Shared,
    /// A fresh encode node per tap — what a table-less engine would do;
    /// useful to make the CSE pass demonstrate the duplication.
    PerTap,
}

/// Name of the input node carrying flat pixel `i` (the ciphertext
/// `encrypt_image_batch` produces at the same index).
pub fn input_name(i: usize) -> String {
    format!("px{i}")
}

/// Binds an encrypted input tensor to the circuit's input names, for
/// [`he_ir::Interpreter::run`].
pub fn bind_inputs(t: &CtTensor) -> HashMap<String, Ciphertext> {
    t.cts
        .iter()
        .enumerate()
        .map(|(i, ct)| (input_name(i), ct.clone()))
        .collect()
}

/// Per-layer encode dedup (the IR mirror of `WeightResidueTable`).
struct EncodeCache {
    shared: bool,
    map: HashMap<(u64, u64, usize), NodeId>,
}

impl EncodeCache {
    fn new(sharing: EncodeSharing) -> Self {
        Self {
            shared: sharing == EncodeSharing::Shared,
            map: HashMap::new(),
        }
    }

    fn get(&mut self, b: &mut GraphBuilder, value: f64, pt_scale: f64, level: usize) -> NodeId {
        if !self.shared {
            return b.encode_scalar(value, pt_scale, level);
        }
        *self
            .map
            .entry((value.to_bits(), pt_scale.to_bits(), level))
            .or_insert_with(|| b.encode_scalar(value, pt_scale, level))
    }
}

/// Lowers a scalar-engine network to a circuit: one input node per
/// pixel, one region per layer, outputs in logit order. The builder
/// chooses the modulus basis: [`GraphBuilder::new`] for nominal
/// (plan-level) analysis, [`GraphBuilder::for_context`] for types
/// bit-identical to eager execution.
pub fn lower_network(net: &HeNetwork, mut b: GraphBuilder, sharing: EncodeSharing) -> Circuit {
    let side = net.input_side;
    let start = net.required_levels().min(b.params().depth());
    let mut cur: Vec<NodeId> = (0..side * side)
        .map(|i| b.input(&input_name(i), start, Layout::BatchSlots))
        .collect();
    let mut shape = (1usize, side, side);
    for layer in &net.layers {
        b.begin_region(layer.name());
        let mut enc = EncodeCache::new(sharing);
        match layer {
            HeLayerSpec::Conv(spec) => {
                (cur, shape) = lower_conv(&mut b, &cur, shape, spec, &mut enc);
            }
            HeLayerSpec::Dense(spec) => {
                // the eager path flattens first; node order is identical
                cur = lower_dense(&mut b, &cur, spec, &mut enc);
                shape = (1, 1, cur.len());
            }
            HeLayerSpec::Activation(coeffs) => {
                cur = lower_activation(&mut b, &cur, coeffs, &mut enc);
            }
        }
    }
    for &id in &cur {
        b.output(id);
    }
    // the scalar engine never rotates: relin is the only key it needs
    b.finish(KeyInventory::relin_only())
}

/// Mirror of `he_conv2d`: per output unit, a lazily seeded accumulator
/// MAC'd over the surviving taps (in-bounds, non-zero weight), bias
/// added, then one rescale; all-zero units take the bias-only branch at
/// the already-rescaled scale.
fn lower_conv(
    b: &mut GraphBuilder,
    cur: &[NodeId],
    (c_in, h, w): (usize, usize, usize),
    spec: &ConvSpec,
    enc: &mut EncodeCache,
) -> (Vec<NodeId>, (usize, usize, usize)) {
    assert_eq!(c_in, spec.in_ch, "channel mismatch");
    let oh = spec.out_size(h);
    let ow = spec.out_size(w);
    let ty = b.ct_ty(cur[0]);
    let (level, s) = (ty.level, ty.scale);
    let q_m = b.q_at(level);
    let per_o = spec.in_ch * spec.k * spec.k;
    let mut out = Vec::with_capacity(spec.out_ch * oh * ow);
    for o in 0..spec.out_ch {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc: Option<NodeId> = None;
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
                            let wv = spec.weight[widx];
                            if wv == 0.0 {
                                continue;
                            }
                            let wn = enc.get(b, wv as f64, q_m, level);
                            let a = match acc {
                                Some(a) => a,
                                None => b.zero(s * q_m, level),
                            };
                            let x = cur[(ci * h + iy - spec.pad) * w + ix - spec.pad];
                            acc = Some(b.mac_plain(a, x, wn));
                        }
                    }
                }
                let bias = spec.bias[o] as f64;
                out.push(match acc {
                    Some(a) => {
                        let biased = b.add_scalar(a, bias);
                        b.rescale(biased)
                    }
                    None => {
                        let z = b.zero((s * q_m) / q_m, level.saturating_sub(1));
                        b.add_scalar(z, bias)
                    }
                });
            }
        }
    }
    (out, (spec.out_ch, oh, ow))
}

/// Mirror of `he_dense`: the accumulator is always seeded (a dense row
/// is never assumed all-zero), non-zero weights MAC'd, bias added, one
/// rescale.
fn lower_dense(
    b: &mut GraphBuilder,
    cur: &[NodeId],
    spec: &DenseSpec,
    enc: &mut EncodeCache,
) -> Vec<NodeId> {
    assert_eq!(cur.len(), spec.in_dim, "dense input mismatch");
    let ty = b.ct_ty(cur[0]);
    let (level, s) = (ty.level, ty.scale);
    let q_m = b.q_at(level);
    let mut out = Vec::with_capacity(spec.out_dim);
    for o in 0..spec.out_dim {
        let mut acc = b.zero(s * q_m, level);
        for (i, &x) in cur.iter().enumerate() {
            let wv = spec.weight[o * spec.in_dim + i];
            if wv == 0.0 {
                continue;
            }
            let wn = enc.get(b, wv as f64, q_m, level);
            acc = b.mac_plain(acc, x, wn);
        }
        let biased = b.add_scalar(acc, spec.bias[o] as f64);
        out.push(b.rescale(biased));
    }
    out
}

/// Mirror of `he_poly_eval_deg3`, per ciphertext: square + rescale,
/// every product rescaled, the `c₃` branch skipped when the
/// coefficient is exactly zero, and the `c₁` term passed through the
/// scale-aligning `×1.0` multiply — landing two levels down at
/// `s³/(q_m·q_{m−1})`.
fn lower_activation(
    b: &mut GraphBuilder,
    cur: &[NodeId],
    coeffs: &[f64],
    enc: &mut EncodeCache,
) -> Vec<NodeId> {
    assert!((2..=4).contains(&coeffs.len()), "SLAF degree must be 1..=3");
    let mut c = [0.0f64; 4];
    c[..coeffs.len()].copy_from_slice(coeffs);
    let mut out = Vec::with_capacity(cur.len());
    for &x in cur {
        let ty = b.ct_ty(x);
        let (m, s) = (ty.level, ty.scale);
        let q_m = b.q_at(m);
        let x2 = b.square(x);
        let x2r = b.rescale(x2);
        let c2n = enc.get(b, c[2], s, m.saturating_sub(1));
        let a0 = b.mul_plain(x2r, c2n);
        let mut acc = b.rescale(a0);
        if c[3] != 0.0 {
            let c3n = enc.get(b, c[3], q_m, m);
            let t = b.mul_plain(x, c3n);
            let tr = b.rescale(t);
            let y3m = b.mul(tr, x2r);
            let y3 = b.rescale(y3m);
            acc = b.add(acc, y3);
        }
        let c1n = enc.get(b, c[1], s, m);
        let t1 = b.mul_plain(x, c1n);
        let t1r = b.rescale(t1);
        let onen = enc.get(b, 1.0, s, m.saturating_sub(1));
        let y1m = b.mul_plain(t1r, onen);
        let y1 = b.rescale(y1m);
        acc = b.add(acc, y1);
        out.push(b.add_scalar(acc, c[0]));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecMode;
    use crate::pipeline::CnnHePipeline;
    use he_ir::{Interpreter, PassManager};

    /// A tiny conv→SLAF→dense network over 4×4 inputs (depth 4).
    fn micro_net(seed: u64) -> HeNetwork {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut w =
            |n: usize| -> Vec<f32> { (0..n).map(|_| rng.gen_range(-0.4f32..0.4)).collect() };
        let mut conv_w = w(2 * 9);
        conv_w[3] = 0.0; // exercise the zero-weight tap skip
        HeNetwork {
            layers: vec![
                HeLayerSpec::Conv(ConvSpec {
                    weight: conv_w,
                    bias: vec![0.03, -0.02],
                    in_ch: 1,
                    out_ch: 2,
                    k: 3,
                    stride: 1,
                    pad: 0,
                }), // 4 → 2; flat = 2·4 = 8
                HeLayerSpec::Activation(vec![0.1, 0.5, 0.25, 0.1]),
                HeLayerSpec::Dense(DenseSpec {
                    weight: w(8 * 3),
                    bias: w(3),
                    in_dim: 8,
                    out_dim: 3,
                }),
            ],
            input_side: 4,
        }
    }

    #[test]
    fn lowered_network_is_clean_under_the_standard_passes() {
        let net = micro_net(7);
        let params = ckks::CkksParams::tiny(net.required_levels());
        let c = lower_network(&net, GraphBuilder::new(params), EncodeSharing::Shared);
        assert!(c.validate().is_ok(), "{:?}", c.validate());
        assert_eq!(c.regions.len(), net.layers.len());
        let report = PassManager::standard().run(&c);
        assert!(!report.has_errors(), "{}", report.render());
        // scalar engine: no rotations, everything else present
        let counts = c.op_counts();
        assert_eq!(counts.rotations, 0);
        // conv: ch0 units 8 taps (one zeroed), ch1 units 9; dense: 3×8
        assert_eq!(counts.scalar_macs, 4 * 8 + 4 * 9 + 3 * 8);
        // conv 8 + dense 3 rescales + 8 deg-3 SLAF units × 6 rescales
        assert_eq!(counts.rescales, 8 + 3 + 8 * 6);
        // one square + one ct×ct mul per deg-3 SLAF unit
        assert_eq!(counts.ct_mults, 2 * 8);
    }

    #[test]
    fn shared_encodes_match_weight_table_dedup() {
        let mut net = micro_net(8);
        // plant duplicate weights in the dense layer
        if let HeLayerSpec::Dense(d) = &mut net.layers[2] {
            d.weight[0] = 0.125;
            d.weight[1] = 0.125;
            d.weight[2] = 0.125;
        }
        let params = ckks::CkksParams::tiny(net.required_levels());
        let shared = lower_network(
            &net,
            GraphBuilder::new(params.clone()),
            EncodeSharing::Shared,
        );
        let per_tap = lower_network(&net, GraphBuilder::new(params), EncodeSharing::PerTap);
        let encodes = |c: &Circuit| {
            c.nodes
                .iter()
                .filter(|n| matches!(n.op, he_ir::Op::EncodeScalar { .. }))
                .count()
        };
        assert!(encodes(&shared) < encodes(&per_tap));
        // per-tap duplication is exactly what the CSE pass reports
        let report = PassManager::standard().run(&per_tap);
        assert!(report.has_code("duplicate-encode"), "{}", report.render());
        assert!(!report.has_errors(), "{}", report.render());
    }

    #[test]
    fn interpreted_circuit_matches_eager_engine_bit_for_bit() {
        let net = micro_net(9);
        let mut pipe = CnnHePipeline::new(net, 1 << 10, 900);
        let img: Vec<f32> = (0..16).map(|i| ((i * 7) % 11) as f32 / 11.0).collect();
        let x = pipe.encrypt(&[&img]);
        let inputs = bind_inputs(&x);

        // eager reference
        let (want, _) = pipe.network.infer_encrypted_with(
            pipe.evaluator(),
            pipe.relin_key(),
            x,
            ExecMode::sequential(),
        );

        // IR path: lower against the real context (with the batch's
        // actual slot count — `encode` pads batch 1 to a single slot,
        // and the eager engine threads that through), then interpret
        let mut b = GraphBuilder::for_context(&pipe.ctx);
        b.set_slots(inputs.values().next().unwrap().slots);
        let circuit = lower_network(&pipe.network, b, EncodeSharing::Shared);
        let got = Interpreter::new(pipe.evaluator())
            .with_relin(pipe.relin_key())
            .run(&circuit, &inputs)
            .expect("interpretation failed");

        assert_eq!(got.len(), want.cts.len());
        for (g, w) in got.iter().zip(&want.cts) {
            assert_eq!(g.level, w.level);
            assert_eq!(g.scale.to_bits(), w.scale.to_bits());
            assert_eq!(g.slots, w.slots);
            for li in 0..=g.level {
                assert_eq!(g.c0.limb(li), w.c0.limb(li), "c0 limb {li} differs");
                assert_eq!(g.c1.limb(li), w.c1.limb(li), "c1 limb {li} differs");
            }
        }
        // decryptions are bit-identical too
        let sk = pipe.secret_key();
        for (g, w) in got.iter().zip(&want.cts) {
            let dg = pipe.evaluator().decrypt_to_real(g, sk);
            let dw = pipe.evaluator().decrypt_to_real(w, sk);
            assert_eq!(dg.len(), dw.len());
            for (a, b) in dg.iter().zip(&dw) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        // and the declared exit types agree with the real ciphertexts
        for (&o, w) in circuit.outputs.iter().zip(&want.cts) {
            let ty = circuit.node(o).ty.as_ct().unwrap();
            assert_eq!(ty.level, w.level);
            assert_eq!(ty.scale.to_bits(), w.scale.to_bits());
        }
    }

    #[test]
    fn all_zero_conv_row_takes_the_bias_only_branch() {
        let mut net = micro_net(10);
        if let HeLayerSpec::Conv(c) = &mut net.layers[0] {
            // zero out output channel 1 entirely
            for wv in &mut c.weight[9..18] {
                *wv = 0.0;
            }
        }
        let mut pipe = CnnHePipeline::new(net, 1 << 10, 901);
        let img: Vec<f32> = (0..16).map(|i| (i % 5) as f32 / 5.0).collect();
        let x = pipe.encrypt(&[&img]);
        let inputs = bind_inputs(&x);
        let (want, _) = pipe.network.infer_encrypted_with(
            pipe.evaluator(),
            pipe.relin_key(),
            x,
            ExecMode::sequential(),
        );
        let mut b = GraphBuilder::for_context(&pipe.ctx);
        b.set_slots(inputs.values().next().unwrap().slots);
        let circuit = lower_network(&pipe.network, b, EncodeSharing::Shared);
        let got = Interpreter::new(pipe.evaluator())
            .with_relin(pipe.relin_key())
            .run(&circuit, &inputs)
            .expect("interpretation failed");
        for (g, w) in got.iter().zip(&want.cts) {
            assert_eq!(g.scale.to_bits(), w.scale.to_bits());
            for li in 0..=g.level {
                assert_eq!(g.c0.limb(li), w.c0.limb(li));
                assert_eq!(g.c1.limb(li), w.c1.limb(li));
            }
        }
    }
}
