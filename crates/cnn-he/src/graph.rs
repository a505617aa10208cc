//! Lowering of extracted networks into the `he-ir` circuit IR — the
//! circuit the scalar engine runs.
//!
//! [`lower_network`] emits CryptoNets-style scalar inference (Eq. 1 per
//! output unit) against a [`GraphBuilder`]: one input node per pixel,
//! one region per layer, and inside a region one unit per conv/dense
//! output scalar or SLAF ciphertext (`he_ir::Circuit::units`). Conv and
//! dense layers arrive in one row form ([`HeNetwork::forms`]): a linear
//! unit is a lazily seeded accumulator MAC'd over its row's non-zero
//! taps, its bias added, one rescale — or a bias-only ciphertext when no
//! tap survives; a SLAF unit is the exact-scale degree-≤3 ladder
//! (`lower_slaf`, which the packed lowerings share). Scale discipline
//! is exact: linear layers encode weights at `q_m`, the prime about to
//! be rescaled away, so the output scale equals the input scale; the
//! degree-3 SLAF uses plaintext scales `(q_m, s, s)` for `(c₃, c₂, c₁)`
//! so that all terms meet at `s³/q_m` one level down, where their sum
//! takes the ladder's one closing rescale.
//!
//! `he_ir::Prepared` runs this circuit for `HeNetwork::infer_encrypted_with`
//! and `CnnHePipeline`, preparing each shared weight encode once; scalar
//! admission, `he-ir check` and the trace cross-check read it too.

use crate::he_layers::{LayerForm, Row};
use crate::network::HeNetwork;
use he_ir::{Circuit, GraphBuilder, KeyInventory, Layout, NodeId};
use std::collections::HashMap;

/// Name of the input node carrying flat pixel `i` (the ciphertext
/// `encrypt_image_batch` produces at the same index).
pub fn input_name(i: usize) -> String {
    format!("px{i}")
}

/// Per-layer encode dedup: one encode node per distinct
/// `(value, pt_scale, level)`, each prepared once per circuit.
#[derive(Default)]
pub(crate) struct EncodeCache(HashMap<(u64, u64, usize), NodeId>);

impl EncodeCache {
    fn get(&mut self, b: &mut GraphBuilder, value: f64, pt_scale: f64, level: usize) -> NodeId {
        *self
            .0
            .entry((value.to_bits(), pt_scale.to_bits(), level))
            .or_insert_with(|| b.encode_scalar(value, pt_scale, level))
    }
}

/// Lowers a scalar-engine network to a circuit: one input node per
/// pixel, one region per layer, outputs in logit order. The builder
/// chooses the modulus basis: [`GraphBuilder::new`] for nominal
/// (plan-level) analysis, [`GraphBuilder::for_context`] for the circuit
/// that runs.
pub fn lower_network(net: &HeNetwork, mut b: GraphBuilder) -> Circuit {
    let side = net.input_side;
    let start = net.required_levels().min(b.params().depth());
    let mut cur: Vec<NodeId> = (0..side * side)
        .map(|i| b.input(&input_name(i), start, Layout::BatchSlots))
        .collect();
    for (layer, form) in net.layers.iter().zip(net.forms()) {
        b.begin_region(layer.name());
        let mut enc = EncodeCache::default();
        cur = match form {
            LayerForm::Linear(rows) => lower_linear(&mut b, &cur, &rows, &mut enc),
            LayerForm::Slaf(coeffs) => cur
                .iter()
                .map(|&x| lower_slaf(&mut b, x, coeffs, &mut enc))
                .collect(),
        };
    }
    for &id in &cur {
        b.output(id);
    }
    // the scalar engine never rotates: relin is the only key it needs
    b.finish(KeyInventory::relin_only())
}

/// A conv or dense layer, one unit per row: a lazily seeded accumulator
/// MAC'd over the row's non-zero taps, bias added, then one rescale; a
/// unit with no non-zero tap is its bias alone, at the scale a rescale
/// would have produced (`s·q_m / q_m`, bit for bit).
fn lower_linear(
    b: &mut GraphBuilder,
    cur: &[NodeId],
    rows: &[Row],
    enc: &mut EncodeCache,
) -> Vec<NodeId> {
    let ty = b.ct_ty(cur[0]);
    let (level, s) = (ty.level, ty.scale);
    let q_m = b.q_at(level);
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        let mut acc: Option<NodeId> = None;
        for &(i, w) in row.taps.iter().filter(|&&(_, w)| w != 0.0) {
            let wn = enc.get(b, w, q_m, level);
            let a = match acc {
                Some(a) => a,
                None => b.zero(s * q_m, level),
            };
            acc = Some(b.mac_plain(a, cur[i], wn));
        }
        out.push(match acc {
            Some(a) => {
                let biased = b.add_scalar(a, row.bias);
                b.rescale(biased)
            }
            None => {
                let z = b.zero((s * q_m) / q_m, level.saturating_sub(1));
                b.add_scalar(z, row.bias)
            }
        });
    }
    out
}

/// The SLAF `c₀ + c₁x + c₂x² + c₃x³` on one ciphertext — the one ladder
/// both the scalar lowering (per unit) and the packed lowerings (per
/// layer) emit. `x²` is squared and rescaled; the `c₃` branch is skipped
/// when the coefficient is exactly zero, and the `c₁` term passes
/// through the scale-aligning `×1.0` multiply. Plaintext scales
/// `(q_m, s, s)` for `(c₃, c₂, c₁)` make every term meet unrescaled at
/// `s³/q_m` on level m−1, so the terms are summed there and the sum is
/// rescaled once to `s³/(q_m·q_{m−1})` two levels down: four rescales
/// for degree 3, three for degree 2. On a chain shorter than the
/// circuit the declared levels saturate at 0 (as
/// `GraphBuilder::rescale` does) and the levels pass reports the
/// exhaustion. Panics outside 2..=4 coefficients, which
/// [`HeNetwork::check`] refuses typed.
pub(crate) fn lower_slaf(
    b: &mut GraphBuilder,
    x: NodeId,
    coeffs: &[f64],
    enc: &mut EncodeCache,
) -> NodeId {
    assert!((2..=4).contains(&coeffs.len()), "SLAF degree must be 1..=3");
    let mut c = [0.0f64; 4];
    c[..coeffs.len()].copy_from_slice(coeffs);
    let ty = b.ct_ty(x);
    let (m, s) = (ty.level, ty.scale);
    let q_m = b.q_at(m);
    let m1 = m.saturating_sub(1);

    // x² at scale s²/q_m, level m−1
    let x2 = b.square(x);
    let x2r = b.rescale(x2);

    // c₂·x² at s³/q_m, level m−1
    let c2n = enc.get(b, c[2], s, m1);
    let mut acc = b.mul_plain(x2r, c2n);

    // (c₃·x)·x² via one ct-ct product, same scale by construction
    if c[3] != 0.0 {
        let c3n = enc.get(b, c[3], q_m, m);
        let t = b.mul_plain(x, c3n);
        let tr = b.rescale(t); // scale s @ m−1
        let y3 = b.mul(tr, x2r);
        acc = b.add(acc, y3);
    }

    // c₁·x brought to the same scale through (s, s)
    let c1n = enc.get(b, c[1], s, m);
    let t1 = b.mul_plain(x, c1n);
    let t1r = b.rescale(t1); // s²/q_m @ m−1
    let onen = enc.get(b, 1.0, s, m1);
    let y1 = b.mul_plain(t1r, onen);
    acc = b.add(acc, y1);

    // one rescale of the sum, then y₀ at the accumulated scale
    let acc = b.rescale(acc); // s³/(q_m·q_{m−1}) @ m−2
    b.add_scalar(acc, c[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::he_layers::{ConvSpec, DenseSpec};
    use crate::he_tensor::encrypt_image_batch;
    use crate::network::HeLayerSpec;
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
        let deg3 = micro_net(7);
        let mut deg2 = micro_net(7);
        deg2.layers[1] = HeLayerSpec::Activation(vec![0.1, 0.5, 0.25]);
        // (net, rescales and ct×ct products per SLAF unit): a degree-3
        // unit rescales x², c₃x, c₁x and the sum; a degree-2 unit has no
        // c₃ branch
        for (net, slaf_rescales, slaf_mults) in [(deg3, 4, 2), (deg2, 3, 1)] {
            let params = ckks::CkksParams::tiny(net.required_levels());
            let c = lower_network(&net, GraphBuilder::new(params));
            assert!(c.validate().is_ok(), "{:?}", c.validate());
            assert_eq!(c.regions.len(), net.layers.len());
            let report = PassManager::standard().run(&c);
            assert!(!report.has_errors(), "{}", report.render());
            // scalar engine: no rotations, everything else present
            let counts = c.op_counts();
            assert_eq!(counts.rotations, 0);
            // conv: ch0 units 8 taps (one zeroed), ch1 units 9; dense: 3×8
            assert_eq!(counts.scalar_macs, 4 * 8 + 4 * 9 + 3 * 8);
            // conv 8 + dense 3 rescales + 8 SLAF units
            assert_eq!(counts.rescales, 8 + 3 + 8 * slaf_rescales);
            assert_eq!(counts.ct_mults, 8 * slaf_mults);
        }
    }

    #[test]
    fn shared_encodes_match_weight_table_dedup() {
        let mut net = micro_net(8);
        // plant duplicate weights in the dense layer
        let HeLayerSpec::Dense(d) = &mut net.layers[2] else {
            unreachable!("layer 2 is the dense")
        };
        d.weight[..3].fill(0.125);
        let distinct = |ws: &[f32]| {
            let mut bits: Vec<u32> = ws
                .iter()
                .filter(|&&w| w != 0.0)
                .map(|w| w.to_bits())
                .collect();
            bits.sort_unstable();
            bits.dedup();
            bits.len()
        };
        let params = ckks::CkksParams::tiny(net.required_levels());
        let c = lower_network(&net, GraphBuilder::new(params));
        // a linear region encodes each distinct non-zero weight once,
        // as a weight residue table would hold it
        for (region, layer) in c.regions.iter().zip(&net.layers) {
            let want = match layer {
                HeLayerSpec::Conv(s) => distinct(&s.weight),
                HeLayerSpec::Dense(s) => distinct(&s.weight),
                HeLayerSpec::Activation(_) => continue,
            };
            let encodes = region
                .nodes()
                .filter(|&n| matches!(c.nodes[n].op, he_ir::Op::EncodeScalar { .. }))
                .count();
            assert_eq!(encodes, want, "{}", region.name);
        }
        let report = PassManager::standard().run(&c);
        assert!(!report.has_code("duplicate-encode"), "{}", report.render());
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
        let circuit = lower_network(&net, GraphBuilder::for_context(&ctx));
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
        let mut y = ev.mul_scalar(&x2, k[2], s);
        let t = ev.rescale(&ev.mul_scalar(&u, k[3], q_m));
        y = ev.add(&y, &ev.multiply(&t, &x2, rk));
        let t = ev.rescale(&ev.mul_scalar(&u, k[1], s));
        y = ev.add(&y, &ev.mul_scalar(&t, 1.0, s));
        let want = ev.add_scalar(&ev.rescale(&y), k[0]);

        assert_eq!(
            (got.level, got.scale.to_bits()),
            (want.level, want.scale.to_bits())
        );
        assert_eq!(got.c0.limbs_flat(), want.c0.limbs_flat());
        assert_eq!(got.c1.limbs_flat(), want.c1.limbs_flat());
    }
}
