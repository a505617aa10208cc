//! Lowering of extracted networks into the `he-ir` circuit IR — the
//! circuit the scalar engine runs.
//!
//! [`lower_network`] emits CryptoNets-style scalar inference (Eq. 1 per
//! output unit) against a [`GraphBuilder`]: one input node per pixel,
//! one region per layer, and inside a region one unit per conv/dense
//! output scalar or SLAF ciphertext (`he_ir::Circuit::units`). A linear
//! unit is a lazily seeded accumulator MAC'd over the taps that survive
//! padding and zero weights, its bias added, one rescale — or a
//! bias-only ciphertext when no tap survives; a SLAF unit is the
//! exact-scale degree-≤3 ladder. Scale discipline is exact: linear
//! layers encode weights at `q_m`, the prime about to be rescaled away,
//! so the output scale equals the input scale; the degree-3 SLAF uses
//! plaintext scales `(q_m, s, s)` for `(c₃, c₂, c₁)` so that all terms
//! meet at `s³/(q_m·q_{m−1})` two levels down.
//!
//! `he_ir::Prepared` runs this circuit for `HeNetwork::infer_encrypted_with`
//! and `CnnHePipeline`, preparing each shared weight encode once; scalar
//! admission, `he-ir check` and the trace cross-check read it too.

use crate::he_layers::{ConvSpec, DenseSpec};
use crate::network::{HeLayerSpec, HeNetwork};
use he_ir::{Circuit, GraphBuilder, KeyInventory, Layout, NodeId};
use std::collections::HashMap;

/// How weight/coefficient encodes are materialized in the IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeSharing {
    /// One encode node per distinct `(value, pt_scale, level)` per
    /// layer — what runs: each is prepared once per circuit.
    Shared,
    /// A fresh encode node per tap; useful to make the CSE pass
    /// demonstrate the duplication.
    PerTap,
}

/// Name of the input node carrying flat pixel `i` (the ciphertext
/// `encrypt_image_batch` produces at the same index).
pub fn input_name(i: usize) -> String {
    format!("px{i}")
}

/// Per-layer encode dedup.
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
/// (plan-level) analysis, [`GraphBuilder::for_context`] for the circuit
/// that runs.
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

/// Conv: per output unit, a lazily seeded accumulator MAC'd over the
/// surviving taps (in-bounds, non-zero weight), bias added, then one
/// rescale; a unit with no surviving tap is its bias alone, at the
/// scale a rescale would have produced (`s·q_m / q_m`, bit for bit).
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

/// Dense: the accumulator is always seeded (a dense row is never
/// assumed all-zero), non-zero weights MAC'd, bias added, one rescale.
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

/// SLAF `c₀ + c₁x + c₂x² + c₃x³`, per ciphertext: square + rescale,
/// every product rescaled, the `c₃` branch skipped when the coefficient
/// is exactly zero, and the `c₁` term passed through the scale-aligning
/// `×1.0` multiply — landing two levels down at `s³/(q_m·q_{m−1})`.
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
    use crate::he_tensor::encrypt_image_batch;
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

    /// One conv unit and one degree-3 SLAF unit of the lowering, run
    /// through `he_ir::Prepared` at the pool's full width, against the
    /// same evaluator calls written out by hand: same limbs, same scale
    /// bits.
    #[test]
    fn interpreted_circuit_matches_eager_engine_bit_for_bit() {
        let mut net = micro_net(9);
        net.layers.truncate(2); // conv (tap 3 zeroed) → SLAF(deg 3)
        let ctx = ckks::CkksParams::tiny(net.required_levels()).build();
        let mut kg = ckks::KeyGenerator::new(std::sync::Arc::clone(&ctx), 900);
        let sk = kg.gen_secret_key();
        let (pk, rk) = (kg.gen_public_key(&sk), kg.gen_relin_key(&sk));
        let ev = ckks::Evaluator::new(std::sync::Arc::clone(&ctx));
        let img: Vec<f32> = (0..16).map(|i| ((i * 7) % 11) as f32 / 11.0).collect();
        let mut sampler = ckks_math::sampler::Sampler::from_seed(901);
        let level = net.required_levels();
        let x = encrypt_image_batch(&ev, &pk, &mut sampler, &[&img], 4, level);
        let (ev, rk) = (&ev, &rk);
        let circuit = lower_network(&net, GraphBuilder::for_context(&ctx), EncodeSharing::Shared);
        let prepared = he_ir::Prepared::new(ev, circuit).expect("prepares");
        let c = prepared.circuit();
        assert_eq!(
            c.units(c.regions[0].nodes()).len(),
            8,
            "a unit per conv output"
        );
        assert_eq!(
            c.units(c.regions[1].nodes()).len(),
            8,
            "a unit per SLAF input"
        );
        let got = prepared
            .run(
                &Interpreter::new(ev).with_relin(rk),
                (0..16).map(|i| (input_name(i), x.cts[i].clone())).collect(),
            )
            .expect("runs")
            .outputs
            .remove(0);

        // conv unit 0: channel 0 at (0, 0), taps in row-major order
        let HeLayerSpec::Conv(conv) = &net.layers[0] else {
            unreachable!("layer 0 is the conv")
        };
        let (level, s) = (x.level(), x.scale());
        let q = |l: usize| ctx.chain_moduli()[l].value() as f64;
        let mut acc = ev.zero_ciphertext(s * q(level), level, ctx.slots());
        for (tap, &w) in conv.weight[..9].iter().enumerate() {
            if w != 0.0 {
                let w = ev.prepare_scalar(f64::from(w), q(level), level);
                ev.mul_residues_acc(&mut acc, &x.cts[(tap / 3) * 4 + tap % 3], &w);
            }
        }
        ev.add_scalar_assign(&mut acc, f64::from(conv.bias[0]));
        let u = ev.rescale(&acc);
        // SLAF unit 0 over it
        let HeLayerSpec::Activation(k) = &net.layers[1] else {
            unreachable!("layer 1 is the SLAF")
        };
        let (s, q_m) = (u.scale, q(u.level));
        let x2 = ev.rescale(&ev.square(&u, rk));
        let mut y = ev.rescale(&ev.mul_scalar(&x2, k[2], s));
        let t = ev.rescale(&ev.mul_scalar(&u, k[3], q_m));
        y = ev.add(&y, &ev.rescale(&ev.multiply(&t, &x2, rk)));
        let t = ev.rescale(&ev.mul_scalar(&u, k[1], s));
        y = ev.add(&y, &ev.rescale(&ev.mul_scalar(&t, 1.0, s)));
        let want = ev.add_scalar(&y, k[0]);

        assert_eq!(
            (got.level, got.scale.to_bits()),
            (want.level, want.scale.to_bits())
        );
        assert_eq!(got.c0.limbs_flat(), want.c0.limbs_flat());
        assert_eq!(got.c1.limbs_flat(), want.c1.limbs_flat());
    }
}
