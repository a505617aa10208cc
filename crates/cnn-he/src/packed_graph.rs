//! Lowering of a packed network into the `he-ir` circuit IR — the
//! only way a [`PackedNetwork`] reaches the `Evaluator`: the circuit is
//! prepared once ([`he_ir::Prepared`]) and interpreted per request.
//!
//! A conv in tap form ([`PackedLayer::Conv`]) has one lowering, which
//! both modes call: its tap rotations of the layer input, each channel's
//! `mul_plain`/`mac_plain` chain over the per-slot tap weights at `q_m`
//! and its placement rotation, then the channel sum, the bias and one
//! rescale — one ciphertext at one level. The taps, the chains and the
//! sum stay in the key-switch basis (`rotate_ext`, values times `P`), so
//! the layer divides by `P` once per placed channel and once for the
//! sum instead of once per rotation: CNN1's first layer does 5
//! mod-downs for its 28 rotations. A matrix layer
//! ([`PackedLayer::Matrix`]) has two lowering modes:
//!
//! * [`PackedLowering::Eager`] is the textbook circuit — every baby
//!   rotation emitted once up front, giant-step skipping of all-`None`
//!   diagonals, diagonal plaintexts at `q_m`, bias at the accumulated
//!   scale, one rescale per linear layer, the scalar lowering's
//!   exact-scale SLAF ladder (`graph::lower_slaf`) per activation. It
//!   is the reference the compiled circuit is tested against, and its
//!   op counts are the baseline the squat fold is measured by. Its
//!   rotation set is a subset of
//!   [`PackedNetwork::required_rotation_steps_for`].
//! * [`PackedLowering::Compiled`] lowers each matrix layer in
//!   *squat-matrix fold* form when the used output rows `n_o` (rounded
//!   to a power of two) are fewer than the packed dimension: the
//!   matrix is re-diagonalized as `n_o` *wrapped* diagonals
//!   `w_d[i] = M[i mod n_o][(i+d) mod dim]`, BSGS runs over those
//!   `n_o` diagonals with baby step `√n_o` instead of `√dim`, and
//!   `log2(dim/n_o)` rotate-and-add folds collapse the partial sums so
//!   slot `i` holds row `i mod n_o` of the product. The replicas at
//!   `i ≥ n_o` carry duplicate values, which the *next* layer's padded
//!   matrix multiplies by its structurally-zero columns — the function
//!   computed on the true output slots is unchanged. Only the baby
//!   rotations some diagonal uses are emitted. This is the circuit
//!   [`crate::CnnHePipeline`] prepares and runs, exactly as lowered.
//!
//! The two modes share the conv and SLAF lowerings but are NOT
//! bit-identical: the squat fold sums a layer's products in a different
//! order and adds its bias after the fold, which changes rounding. They
//! agree within the composed noise-model bound.
//!
//! A linear layer with no non-zero weight lowers to its bias on the
//! zero product `x ⊙ 0`, with its one rescale, so the level schedule
//! does not depend on the weights.
//!
//! A conv is three regions, named `packed layer i: conv taps|channels|sum`;
//! a matrix layer three, named `packed layer i: matvec
//! babies|blocks|sum`, then `packed layer i: fold` for a squat layer;
//! an activation is `packed layer i: slaf`. Per-region walls attribute
//! time to each separately, and each region's units fan across the
//! pool ([`he_ir::Prepared`]):
//!
//! * `conv taps` / `babies`: one unit per rotation of the layer input
//!   (for the conv, also the lift of its unrotated tap). Two or more
//!   rotations of a value from before the region share one
//!   decomposition of it (`ckks::Evaluator::hoist`), so the input's
//!   key-switch digits are computed once per layer.
//! * `conv channels`: one unit per output channel off offset 0 — its MAC
//!   chain, mod-down and placement rotation. `blocks`: one unit per
//!   non-empty giant block — its `mul_plain` / `mac_plain` chain and its
//!   giant rotation.
//! * `sum`: the channel or block sum, then (the conv's after its one
//!   mod-down; unless a fold follows) bias and rescale. The conv's
//!   offset-0 channel needs no placement, so its MAC chain opens this
//!   region: a lone unit, whose products fan their limbs across the pool. The fold ladder and the SLAF are single units: each
//!   fold step rotates the previous step's output.

use crate::graph::{lower_slaf, EncodeCache};
use crate::packed::{ConvTaps, PackedLayer, PackedNetwork};
use he_ir::{Circuit, GraphBuilder, KeyInventory, Layout, NodeId};
use std::collections::BTreeSet;

/// Which circuit shape [`lower_packed`] emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackedLowering {
    /// The reference circuit.
    Eager,
    /// Squat-matrix fold form: the circuit packed inference runs.
    Compiled,
}

/// Name of the single packed input node (one batch-strided ciphertext).
pub const PACKED_INPUT: &str = "x";

/// Lowers a packed network to a circuit over one batch-strided input
/// ciphertext of lane stride `stride`. The builder chooses the modulus
/// basis: [`GraphBuilder::for_context`] for types bit-identical to
/// execution (required to run the circuit), [`GraphBuilder::new`] for
/// nominal (host-free) op-count analysis. The declared key inventory is
/// exactly the circuit's rotation set.
pub fn lower_packed(
    packed: &PackedNetwork,
    mut b: GraphBuilder,
    stride: usize,
    mode: PackedLowering,
) -> Circuit {
    assert!(stride >= 1, "lane stride must be positive");
    let start = packed.required_levels().min(b.params().depth());
    let mut steps_used: BTreeSet<i64> = BTreeSet::new();
    let mut x = b.input(PACKED_INPUT, start, Layout::BatchStrided { stride });

    for (li, layer) in packed.layers.iter().enumerate() {
        let mut m = Lowering {
            b: &mut b,
            dim: packed.dim,
            stride,
            steps_used: &mut steps_used,
            li,
        };
        x = match (layer, mode) {
            (PackedLayer::Matrix { diags, bias, .. }, PackedLowering::Eager) => {
                let acc = m.bsgs(x, diags, packed.baby(), true);
                m.finish(bias.clone(), acc)
            }
            (PackedLayer::Matrix { diags, bias, .. }, PackedLowering::Compiled) => {
                m.squat(x, diags, bias, packed.baby())
            }
            (PackedLayer::Conv(taps), _) => m.conv(x, taps),
            (PackedLayer::Activation(coeffs), _) => {
                m.b.begin_region(format!("packed layer {li}: slaf"));
                lower_slaf(m.b, x, coeffs, &mut EncodeCache::default())
            }
        };
    }
    b.output(x);
    let elements: Vec<usize> = steps_used
        .iter()
        .map(|&s| b.params().galois_element_for_rotation(s))
        .collect();
    b.finish(KeyInventory::with_galois(true, elements))
}

/// Builder state shared by the layer lowerings of layer `li`.
struct Lowering<'a> {
    b: &'a mut GraphBuilder,
    dim: usize,
    stride: usize,
    steps_used: &'a mut BTreeSet<i64>,
    li: usize,
}

impl Lowering<'_> {
    /// `rot(src, s·stride)`, recording the step; `s = 0` is `src`.
    fn rotate(&mut self, src: NodeId, s: usize) -> NodeId {
        if s == 0 {
            return src;
        }
        let step = (s * self.stride) as i64;
        self.steps_used.insert(step);
        self.b.rotate(src, step)
    }

    /// BSGS diagonal matvec over `diags` with baby step `babies`:
    ///   `y = Σ_g rot_g( Σ_b rot_{-g}(diag_{g+b}) ⊙ rot_b(x) )`
    /// so each plaintext is its diagonal rotated right by `g`, at `q_m`.
    /// Three regions: the baby rotations of `x` (`all` emits every one,
    /// the reference shape; otherwise only those some diagonal uses),
    /// each its own unit reading the one hoisted decomposition of `x`;
    /// the giant blocks, each one `mul_plain` then a chain of
    /// `mac_plain`s the interpreter accumulates in place, then its giant
    /// rotation — one unit per block, so the blocks fan across the pool;
    /// and the block sum, which the caller's bias and rescale join.
    /// All-`None` giant blocks are skipped.
    fn bsgs(&mut self, x: NodeId, diags: &[Option<Vec<f64>>], babies: usize, all: bool) -> NodeId {
        let (dim, li) = (self.dim, self.li);
        let lvl = self.b.ct_ty(x).level;
        let q_m = self.b.q_at(lvl);
        let blocks: Vec<&[Option<Vec<f64>>]> = diags.chunks(babies).collect();
        let used = |bb: usize| {
            all || blocks
                .iter()
                .any(|blk| blk.get(bb).is_some_and(Option::is_some))
        };
        self.b
            .begin_region(format!("packed layer {li}: matvec babies"));
        let baby: Vec<NodeId> = (0..babies)
            .map(|bb| if used(bb) { self.rotate(x, bb) } else { x })
            .collect();

        self.b
            .begin_region(format!("packed layer {li}: matvec blocks"));
        let mut sums = Vec::new();
        for (blk, g) in blocks.iter().zip((0..).step_by(babies)) {
            let mut inner: Option<NodeId> = None;
            for (bb, diag) in blk.iter().enumerate() {
                let Some(diag) = diag else { continue };
                let rot: Vec<f64> = (0..dim).map(|j| diag[(j + dim - g % dim) % dim]).collect();
                let pt = self.b.encode_vec(rot, q_m, lvl);
                inner = Some(match inner {
                    None => self.b.mul_plain(baby[bb], pt),
                    Some(a) => self.b.mac_plain(a, baby[bb], pt),
                });
            }
            if let Some(inner) = inner {
                sums.push(self.rotate(inner, g));
            }
        }

        self.b
            .begin_region(format!("packed layer {li}: matvec sum"));
        self.sum(x, sums)
    }

    /// `rotate_ext(src, s·stride)`, recording the step; `s = 0` is the
    /// exact lift `P·src`, which needs no key.
    fn rotate_ext(&mut self, src: NodeId, s: usize) -> NodeId {
        let step = (s * self.stride) as i64;
        if s != 0 {
            self.steps_used.insert(step);
        }
        self.b.rotate_ext(src, step)
    }

    /// Tap-form convolution ([`ConvTaps`]) over `x`, in the key-switch
    /// basis so that each channel divides by `P` once, not once per
    /// rotation: its tap rotations as `rotate_ext`, all reading `x` (one
    /// hoisted decomposition), the unrotated tap as the lift `P·x`; per
    /// channel with a weight, its `mul_plain`/`mac_plain` chain over the
    /// tap plaintexts at `q_m` (encoded over the key-switch basis). A
    /// channel off offset 0 is one unit of the channels region: its
    /// chain, one `mod_down` and its placement as an extended rotation.
    /// A channel at offset 0 needs no placement, so its chain runs in
    /// the sum region, where a lone unit's products fan their limbs
    /// across the pool instead of queueing behind the placed channels.
    /// Then the channel sum (in channel order), one `mod_down`, the bias
    /// and the layer's one rescale.
    fn conv(&mut self, x: NodeId, taps: &ConvTaps) -> NodeId {
        let li = self.li;
        let lvl = self.b.ct_ty(x).level;
        let q_m = self.b.q_at(lvl);
        self.b.begin_region(format!("packed layer {li}: conv taps"));
        let rotated: Vec<NodeId> = taps.steps.iter().map(|&s| self.rotate_ext(x, s)).collect();
        let chain = |b: &mut GraphBuilder, ch: &[Option<Vec<f64>>]| {
            let mut acc: Option<NodeId> = None;
            for (t, w) in ch.iter().enumerate() {
                let Some(w) = w else { continue };
                let pt = b.encode_vec(w.clone(), q_m, lvl);
                acc = Some(match acc {
                    None => b.mul_plain(rotated[t], pt),
                    Some(a) => b.mac_plain(a, rotated[t], pt),
                });
            }
            acc
        };

        self.b
            .begin_region(format!("packed layer {li}: conv channels"));
        let channels = taps.weights.iter().zip(&taps.place);
        let mut placed: Vec<Option<NodeId>> = Vec::with_capacity(taps.weights.len());
        for (ch, &place) in channels.clone() {
            placed.push(match place {
                0 => None,
                _ => chain(self.b, ch).map(|acc| {
                    let down = self.b.mod_down(acc);
                    self.rotate_ext(down, place)
                }),
            });
        }

        self.b.begin_region(format!("packed layer {li}: conv sum"));
        let mut terms = Vec::with_capacity(placed.len());
        for ((ch, &place), placed) in channels.zip(placed) {
            terms.extend(if place == 0 {
                chain(self.b, ch)
            } else {
                placed
            });
        }
        let acc = self.sum(x, terms);
        let acc = match self.b.ct_ty(acc).is_ext() {
            true => self.b.mod_down(acc),
            false => acc,
        };
        self.finish(taps.bias.clone(), acc)
    }

    /// Sum of a layer's `terms`; for a layer without a non-zero weight,
    /// the zero product `x ⊙ 0` at the scale and level the terms would
    /// have, so the bias and rescale that follow keep the schedule.
    fn sum(&mut self, x: NodeId, terms: Vec<NodeId>) -> NodeId {
        let mut terms = terms.into_iter();
        let first = match terms.next() {
            Some(t) => t,
            None => {
                let lvl = self.b.ct_ty(x).level;
                let zero = self
                    .b
                    .encode_vec(vec![0.0; self.dim], self.b.q_at(lvl), lvl);
                self.b.mul_plain(x, zero)
            }
        };
        terms.fold(first, |acc, t| self.b.add(acc, t))
    }

    /// Squat-matrix fold lowering: BSGS over the `n_o` wrapped
    /// diagonals (baby step `√n_o`), then `log2(dim/n_o)` rotate-and-add
    /// folds in their own region. Tall/square layers gain nothing from
    /// folding and get plain BSGS over only the used baby rotations,
    /// whose op count is never worse than the reference.
    fn squat(
        &mut self,
        x: NodeId,
        diags: &[Option<Vec<f64>>],
        bias: &[f64],
        full_babies: usize,
    ) -> NodeId {
        let dim = self.dim;
        // used output rows: any row with a nonzero weight or bias
        let used = |v: &[f64]| v.iter().rposition(|&w| w != 0.0).map_or(0, |i| i + 1);
        let n_rows = diags
            .iter()
            .flatten()
            .map(|d| used(d))
            .fold(used(bias), usize::max);
        let n_o = n_rows.max(1).next_power_of_two();
        if n_o >= dim {
            let acc = self.bsgs(x, diags, full_babies, false);
            return self.finish(bias.to_vec(), acc);
        }

        // M[r][c] recovered from the generalized diagonals
        // (diags[d][i] = M[i][(i+d) mod dim] ⇒ M[r][c] = diags[(c−r) mod dim][r])
        let m_at = |r: usize, c: usize| -> f64 {
            let d = (c + dim - r) % dim;
            diags[d].as_ref().map_or(0.0, |dg| dg[r])
        };
        // wrapped diagonals over the folded row space
        let wdiags: Vec<Option<Vec<f64>>> = (0..n_o)
            .map(|d| {
                let v: Vec<f64> = (0..dim).map(|i| m_at(i % n_o, (i + d) % dim)).collect();
                v.iter().any(|&w| w != 0.0).then_some(v)
            })
            .collect();
        let mut bprime = 1usize;
        while bprime * bprime < n_o {
            bprime <<= 1;
        }
        let mut acc = self.bsgs(x, &wdiags, bprime, false);

        // fold: slot i accumulates the partial sums of every congruent
        // position, so it ends holding row (i mod n_o) of the product
        self.b
            .begin_region(format!("packed layer {}: fold", self.li));
        let mut t = n_o;
        while t < dim {
            let r = self.rotate(acc, t);
            acc = self.b.add(acc, r);
            t <<= 1;
        }
        // bias replicated across the folded row space
        let bias_w: Vec<f64> = (0..dim).map(|i| bias[i % n_o]).collect();
        self.finish(bias_w, acc)
    }

    /// Bias at the accumulated scale, then the layer's single rescale.
    fn finish(&mut self, bias: Vec<f64>, acc: NodeId) -> NodeId {
        let acc_ty = self.b.ct_ty(acc);
        let bias_pt = self.b.encode_vec(bias, acc_ty.scale, acc_ty.level);
        let with_bias = self.b.add_plain(acc, bias_pt);
        self.b.rescale(with_bias)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::he_layers::{ConvSpec, DenseSpec};
    use crate::network::{HeLayerSpec, HeNetwork};
    use ckks::{CkksParams, Evaluator, KeyGenerator};
    use ckks_math::sampler::Sampler;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    /// A small conv → SLAF → dense (→ SLAF → dense …) network over 8×8
    /// inputs with seeded weights; packs to dim 64. The conv is 3×3
    /// unpadded, or with `wide` 5×5 with padding 1; both stride 2 onto a
    /// 3×3 output.
    fn random_net(
        seed: u64,
        (out_ch, wide): (usize, bool),
        act_len: usize,
        dense: &[usize],
    ) -> PackedNetwork {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut w =
            |n: usize| -> Vec<f32> { (0..n).map(|_| rng.gen_range(-0.25f32..0.25)).collect() };
        let act = [0.05, 0.7, 0.2, 0.04];
        let (k, pad) = if wide { (5, 1) } else { (3, 0) };
        let mut layers = vec![HeLayerSpec::Conv(ConvSpec {
            weight: w(out_ch * k * k),
            bias: vec![0.1, -0.1][..out_ch].to_vec(),
            in_ch: 1,
            out_ch,
            k,
            stride: 2,
            pad,
        })];
        let mut in_dim = out_ch * 9;
        for &out_dim in dense {
            layers.push(HeLayerSpec::Activation(act[..act_len].to_vec()));
            layers.push(HeLayerSpec::Dense(DenseSpec {
                weight: w(in_dim * out_dim),
                bias: w(out_dim),
                in_dim,
                out_dim,
            }));
            in_dim = out_dim;
        }
        PackedNetwork::from_network(&HeNetwork {
            layers,
            input_side: 8,
        })
    }

    /// Plaintext shadow of a packed circuit: every node's slot vector in
    /// `f64`, with the [`he_ir::NoiseModel`] per-op bounds composed along
    /// the way from the *actual* magnitudes (the he-diff oracle's
    /// discipline; the levels pass composes the same bounds from
    /// worst-case magnitudes, which on a matvec is too loose to test
    /// against). Returns the output slots and their error bound.
    fn shadow(circuit: &Circuit, input: &[f64]) -> (Vec<f64>, f64) {
        use he_ir::Op;
        let model = he_ir::NoiseModel::new(&circuit.params);
        let mag = |v: &[f64]| v.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        let zip = |a: &[f64], b: &[f64], f: fn(f64, f64) -> f64| -> Vec<f64> {
            a.iter().zip(b).map(|(x, y)| f(*x, *y)).collect()
        };
        let mut nodes: Vec<(Vec<f64>, f64)> = Vec::with_capacity(circuit.nodes.len());
        for node in &circuit.nodes {
            let scale = node.ty.as_ct().map_or(0.0, |t| t.scale);
            // a plain operand broadcast across the lanes of ciphertext `src`
            let plain = |src: usize, plain: usize| -> (Vec<f64>, f64) {
                let stride = circuit.nodes[src].ty.as_ct().unwrap().layout.lane_stride();
                let pt_scale = circuit.nodes[plain].ty.as_plain().unwrap().pt_scale;
                let w = &nodes[plain].0;
                let expanded = (0..input.len())
                    .map(|i| w[(i / stride) % w.len()])
                    .collect();
                (expanded, pt_scale)
            };
            let next = match &node.op {
                Op::Input { .. } => (input.to_vec(), model.fresh_value(scale)),
                Op::EncodeScalar { value, .. } => (vec![*value], 0.0),
                Op::EncodeVec { values, .. } => (values.to_vec(), 0.0),
                Op::Add { a, b } => {
                    let ((va, ea), (vb, eb)) = (&nodes[*a], &nodes[*b]);
                    (zip(va, vb, |x, y| x + y), model.add_value(*ea, *eb))
                }
                Op::AddScalar { src, value } => {
                    let (v, e) = &nodes[*src];
                    (v.iter().map(|x| x + value).collect(), e + 0.5 / scale)
                }
                Op::MulPlain { src, plain: p } => {
                    let ((v, e), (w, pt_scale)) = (&nodes[*src], plain(*src, *p));
                    let err = model.mul_plain_value(mag(v), *e, mag(&w), pt_scale);
                    (zip(v, &w, |x, y| x * y), err)
                }
                Op::MacPlain { acc, src, plain: p } => {
                    let ((va, ea), (v, e)) = (&nodes[*acc], &nodes[*src]);
                    let (w, pt_scale) = plain(*src, *p);
                    let err = model.mul_plain_value(mag(v), *e, mag(&w), pt_scale);
                    let term = zip(v, &w, |x, y| x * y);
                    (zip(va, &term, |x, y| x + y), model.add_value(*ea, err))
                }
                Op::AddPlain { src, plain: p } => {
                    let ((v, e), (w, _)) = (&nodes[*src], plain(*src, *p));
                    (zip(v, &w, |x, y| x + y), e + 0.5 / scale)
                }
                Op::Mul { a, b } => {
                    let ((va, ea), (vb, eb)) = (&nodes[*a], &nodes[*b]);
                    let err = model.mul_value(mag(va), *ea, mag(vb), *eb, scale);
                    (zip(va, vb, |x, y| x * y), err)
                }
                Op::Square { src } => {
                    let (v, e) = &nodes[*src];
                    let err = model.mul_value(mag(v), *e, mag(v), *e, scale);
                    (zip(v, v, |x, y| x * y), err)
                }
                Op::Rescale { src } => {
                    let (v, e) = &nodes[*src];
                    (v.clone(), model.rescale_value(*e, scale))
                }
                Op::Rotate { src, steps } | Op::RotateExt { src, steps } => {
                    let (v, e) = &nodes[*src];
                    let by = steps.rem_euclid(v.len() as i64) as usize;
                    let rotated = (0..v.len()).map(|j| v[(j + by) % v.len()]).collect();
                    let err = match node.op {
                        Op::RotateExt { .. } if by == 0 => *e,
                        Op::RotateExt { .. } => model.rotate_ext_value(*e, scale),
                        _ => model.rotate_value(*e, scale),
                    };
                    (rotated, err)
                }
                Op::ModDown { src } => {
                    let (v, e) = &nodes[*src];
                    (v.clone(), model.mod_down_value(*e, scale))
                }
                other => panic!("lower_packed does not emit {}", other.mnemonic()),
            };
            nodes.push(next);
        }
        nodes.swap_remove(circuit.outputs[0])
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4))]

        // Over random small nets × one, some and all lanes of the tiny
        // ring's 8-lane stride: each lowering computes the network's
        // function exactly in the clear, and both the compiled circuit
        // and the reference decrypt within the noise bound composed
        // along the *reference's* ops —
        // the compiled circuit gets no noise allowance of its own, and
        // nobody gets a tuned epsilon.
        #[test]
        fn optimized_reference_and_plain_agree_within_the_noise_bound(
            seed in 0u64..1_000,
            conv in (1usize..3, proptest::prelude::any::<bool>()),
            act_len in 3usize..5,
            mid in 2usize..9,
            two_dense in proptest::prelude::any::<bool>(),
        ) {
            let dense = if two_dense { vec![mid, 3] } else { vec![mid] };
            let packed = random_net(seed, conv, act_len, &dense);
            let ctx = CkksParams::tiny(packed.required_levels()).build();
            let mut kg = KeyGenerator::new(Arc::clone(&ctx), seed);
            let sk = kg.gen_secret_key();
            let pk = kg.gen_public_key(&sk);
            let rk = kg.gen_relin_key(&sk);
            let ev = Evaluator::new(Arc::clone(&ctx));
            let mut s = Sampler::from_seed(seed + 1);

            for lanes in [1usize, 3, 8] {
                let plan = packed.plan_batch(ctx.slots(), lanes).unwrap();
                let (layout, stride) = (plan.layout(), plan.layout().stride());
                let lower =
                    |mode| lower_packed(&packed, GraphBuilder::for_context(&ctx), stride, mode);
                let reference = lower(PackedLowering::Eager);
                let compiled = lower(PackedLowering::Compiled);
                let (r_ref, r_comp) =
                    (reference.op_counts().rotations, compiled.op_counts().rotations);
                proptest::prop_assert!(
                    r_comp as f64 <= 0.85 * r_ref as f64,
                    "rotations: compiled {r_comp} vs reference {r_ref}"
                );

                let images: Vec<Vec<f32>> = (0..lanes)
                    .map(|k| (0..64).map(|i| ((i * (k + 3)) % 11) as f32 / 11.0).collect())
                    .collect();
                let refs: Vec<&[f32]> = images.iter().map(Vec::as_slice).collect();
                let want: Vec<Vec<f64>> = refs.iter().map(|img| packed.infer_plain(img)).collect();
                let clear: Vec<Vec<f64>> = images
                    .iter()
                    .map(|img| img.iter().map(|&v| f64::from(v)).collect())
                    .collect();
                let clear: Vec<&[f64]> = clear.iter().map(Vec::as_slice).collect();
                let slots_in = layout.pack(&clear).unwrap();
                let cts = packed.encrypt_batch(&ev, &pk, &mut s, &refs, &plan).unwrap();
                let (_, bound) = shadow(&reference, &slots_in);

                for (name, circuit) in [("reference", reference), ("compiled", compiled)] {
                    // every rotation step is a multiple of the lane stride,
                    // and the declared inventory is exactly the rotation set
                    let required = he_ir::passes::rotations::required_elements(&circuit);
                    proptest::prop_assert!(required.steps.iter().all(|s| s % stride as i64 == 0));
                    proptest::prop_assert_eq!(
                        Some(&required.elements),
                        circuit.keys.galois_elements.as_ref()
                    );
                    let steps: Vec<i64> = required.steps.into_iter().collect();
                    let gk = kg.gen_galois_keys(&sk, &steps, false);

                    let (slots_out, _) = shadow(&circuit, &slots_in);
                    let exact = layout.unpack(&slots_out, lanes, packed.output_slots.len());
                    let prepared = he_ir::Prepared::new(&ev, circuit).unwrap();
                    let interp = he_ir::Interpreter::new(&ev).with_relin(&rk).with_galois(&gk);
                    let (outs, _) =
                        crate::packed::run_shards(&prepared, &interp, cts.clone()).unwrap();
                    let got = packed.decrypt_batch(&ev, &sk, &outs, &plan);
                    for k in 0..lanes {
                        for i in 0..packed.output_slots.len() {
                            let (e, g, w) = (exact[k][i], got[k][i], want[k][i]);
                            proptest::prop_assert!(
                                (e - w).abs() < 1e-9,
                                "{name} stride {stride} lane {k} logit {i}: circuit computes {e}, \
                                 network {w}"
                            );
                            proptest::prop_assert!(
                                (g - e).abs() <= bound,
                                "{name} stride {stride} lane {k} logit {i}: decrypted {g} vs {e} \
                                 (bound {bound:e})"
                            );
                        }
                    }
                }
            }
        }
    }

    /// CNN1's first compiled layer is its tap-form conv at dim 2048:
    /// 24 extended tap rotations of the input and the lift of its
    /// unrotated tap, one unit each, that share its one hoisted
    /// decomposition; one unit per placed output channel, each dividing
    /// by `P` and placing with an extended rotation; the offset-0
    /// channel's chain and one more division in the sum — 5 mod-downs
    /// for 28 rotations; 125 tap plaintexts and the bias; one rescale.
    #[test]
    fn cnn1_layer0_is_24_hoisted_taps_and_one_unit_per_channel() {
        use neural::models::{cnn1, ActKind};
        let net = HeNetwork::from_trained(&cnn1(ActKind::slaf3(), 7), 28);
        let packed = PackedNetwork::from_network(&net);
        assert_eq!(
            packed.dim, 2048,
            "five channels of 169 anchors need 2048 slots"
        );
        let PackedLayer::Conv(taps) = &packed.layers[0] else {
            panic!("CNN1 starts with its tap-form conv");
        };
        let offsets: Vec<usize> = taps.place.iter().map(|&p| (2048 - p) % 2048).collect();
        assert_eq!(offsets, [0, 1, 26, 27, 724]);
        let params = CkksParams::toy(packed.required_levels());
        let c = lower_packed(
            &packed,
            GraphBuilder::new(params),
            1,
            PackedLowering::Compiled,
        );
        let region = |name: &str| c.regions.iter().find(|r| r.name == name).unwrap();
        let taps_region = region("packed layer 0: conv taps");
        let channels = region("packed layer 0: conv channels");
        let sum = region("packed layer 0: conv sum");
        let units = |r: &he_ir::Region| c.units(r.nodes());
        assert_eq!(units(taps_region).len(), 25);
        assert_eq!(c.op_counts_in(taps_region).rotations, 24);
        assert_eq!(units(channels).len(), 4);
        assert_eq!(c.op_counts_in(channels).rotations, 4);
        assert_eq!(units(sum).len(), 1);
        let mod_downs = [taps_region, channels, sum].map(|r| c.op_counts_in(r).mod_downs);
        assert_eq!(mod_downs, [0, 4, 1]);
        let layer0 = taps_region.first..sum.nodes().end;
        let encoded = layer0
            .clone()
            .filter(|&id| matches!(c.nodes[id].op, he_ir::Op::EncodeVec { .. }))
            .count();
        assert!(encoded <= 126, "{encoded} plaintexts");
        let rescales = layer0
            .filter(|&id| matches!(c.nodes[id].op, he_ir::Op::Rescale { .. }))
            .count();
        assert_eq!(rescales, 1);
        // every other layer's counts are what they were at dim 1024, bar
        // one more fold per dense layer: 67 rotations in all
        let counts = c.op_counts();
        assert_eq!(
            (counts.rotations, counts.ct_mults, counts.rescales),
            (67, 4, 11)
        );
    }
}
