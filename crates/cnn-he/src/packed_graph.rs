//! Lowering of a packed (BSGS) network into the `he-ir` circuit IR —
//! the only way a [`PackedNetwork`] reaches the `Evaluator`: the
//! circuit is prepared once ([`he_ir::Prepared`]) and interpreted per
//! request.
//!
//! Two lowering modes:
//!
//! * [`PackedLowering::Eager`] is the textbook circuit — shared baby
//!   rotations hoisted up front, giant-step skipping of all-`None`
//!   diagonals, diagonal plaintexts at `q_m`, bias at the accumulated
//!   scale, one rescale per linear layer, the scalar lowering's
//!   exact-scale SLAF ladder per activation. It is never optimized:
//!   it is the reference the optimized circuit is tested against, and
//!   its op counts are the honest baseline the optimizer is measured
//!   by. Its rotation set is a subset of
//!   [`PackedNetwork::required_rotation_steps_for`].
//! * [`PackedLowering::Compiled`] lowers each linear layer in
//!   *squat-matrix fold* form when the used output rows `n_o` (rounded
//!   to a power of two) are fewer than the packed dimension: the
//!   matrix is re-diagonalized as `n_o` *wrapped* diagonals
//!   `w_d[i] = M[i mod n_o][(i+d) mod dim]`, BSGS runs over those
//!   `n_o` diagonals with baby step `√n_o` instead of `√dim`, and
//!   `log2(dim/n_o)` rotate-and-add folds collapse the partial sums so
//!   slot `i` holds row `i mod n_o` of the product. The replicas at
//!   `i ≥ n_o` carry duplicate values, which the *next* layer's padded
//!   matrix multiplies by its structurally-zero columns — the function
//!   computed on the true output slots is unchanged. Baby rotations
//!   are deliberately emitted per *use* (naively): the rotation-hoist
//!   and CSE passes of [`he_ir::PassManager::optimizer`] merge them,
//!   which is what makes this lowering an exercise of the optimizer
//!   rather than a hand-scheduled circuit. This is what
//!   [`crate::CnnHePipeline`] optimizes and runs.
//!
//! The two modes are NOT bit-identical (rescale sinking changes
//! rounding); they agree within the composed noise-model bound.
//!
//! Regions are named `packed layer i: matvec|fold|slaf`, so per-region
//! walls attribute time to the linear map, its replication fold and
//! the activation separately. One ciphertext flows through each region,
//! so each is a single unit that `Prepared::run` executes on its caller.

use crate::packed::{PackedLayer, PackedNetwork};
use he_ir::{Circuit, GraphBuilder, KeyInventory, Layout, NodeId};
use std::collections::BTreeSet;

/// Which circuit shape [`lower_packed`] emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackedLowering {
    /// The un-optimized reference circuit.
    Eager,
    /// Squat-matrix fold form, meant to be run through
    /// [`he_ir::PassManager::optimizer`] before execution.
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
    let layout = if stride == 1 {
        Layout::Tiled
    } else {
        Layout::BatchStrided { stride }
    };
    let start = packed.required_levels().min(b.params().depth());
    let mut steps_used: BTreeSet<i64> = BTreeSet::new();
    let mut x = b.input(PACKED_INPUT, start, layout);

    for (li, layer) in packed.layers.iter().enumerate() {
        match layer {
            PackedLayer::Matrix { diags, bias, dim } => {
                debug_assert_eq!(*dim, packed.dim);
                b.begin_region(format!("packed layer {li}: matvec"));
                let mut m = Matvec {
                    b: &mut b,
                    dim: packed.dim,
                    stride,
                    steps_used: &mut steps_used,
                };
                x = match mode {
                    PackedLowering::Eager => {
                        let acc = m.bsgs(x, diags, packed.baby(), true);
                        m.finish(bias.clone(), acc)
                    }
                    PackedLowering::Compiled => m.squat(x, diags, bias, packed.baby(), li),
                };
            }
            PackedLayer::Activation(coeffs) => {
                b.begin_region(format!("packed layer {li}: slaf"));
                x = lower_slaf(&mut b, coeffs, x);
            }
        }
    }
    b.output(x);
    let elements: Vec<usize> = steps_used
        .iter()
        .map(|&s| b.params().galois_element_for_rotation(s))
        .collect();
    b.finish(KeyInventory::with_galois(true, elements))
}

/// Builder state shared by the linear-layer lowerings.
struct Matvec<'a> {
    b: &'a mut GraphBuilder,
    dim: usize,
    stride: usize,
    steps_used: &'a mut BTreeSet<i64>,
}

impl Matvec<'_> {
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
    /// All-`None` giant blocks are skipped. `hoist` emits every baby
    /// rotation once up front (the reference shape); otherwise a baby
    /// is emitted at each use and left for the optimizer to share, so
    /// unused babies never exist.
    fn bsgs(
        &mut self,
        x: NodeId,
        diags: &[Option<Vec<f64>>],
        babies: usize,
        hoist: bool,
    ) -> NodeId {
        let dim = self.dim;
        let lvl = self.b.ct_ty(x).level;
        let q_m = self.b.q_at(lvl);
        let hoisted: Option<Vec<NodeId>> =
            hoist.then(|| (0..babies).map(|s| self.rotate(x, s)).collect());
        let mut acc: Option<NodeId> = None;
        for g in (0..diags.len()).step_by(babies) {
            let mut inner: Option<NodeId> = None;
            for (bb, diag) in diags[g..].iter().take(babies).enumerate() {
                let Some(diag) = diag else { continue };
                let baby = match &hoisted {
                    Some(h) => h[bb],
                    None => self.rotate(x, bb),
                };
                let rot: Vec<f64> = (0..dim).map(|j| diag[(j + dim - g % dim) % dim]).collect();
                let pt = self.b.encode_vec(rot, q_m, lvl);
                let term = self.b.mul_plain(baby, pt);
                inner = Some(match inner {
                    None => term,
                    Some(a) => self.b.add(a, term),
                });
            }
            if let Some(inner) = inner {
                let rotated = self.rotate(inner, g);
                acc = Some(match acc {
                    None => rotated,
                    Some(a) => self.b.add(a, rotated),
                });
            }
        }
        acc.expect("zero matrix layer")
    }

    /// Squat-matrix fold lowering: BSGS over the `n_o` wrapped
    /// diagonals (baby step `√n_o`), then `log2(dim/n_o)` rotate-and-add
    /// folds in their own region. Tall/square layers gain nothing from
    /// folding and get plain per-use BSGS, whose op count after
    /// hoist/CSE is never worse than the reference.
    fn squat(
        &mut self,
        x: NodeId,
        diags: &[Option<Vec<f64>>],
        bias: &[f64],
        full_babies: usize,
        li: usize,
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
        self.b.begin_region(format!("packed layer {li}: fold"));
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

/// The exact-scale deg-≤3 SLAF ladder of the scalar lowering
/// ([`crate::graph`]) on one packed ciphertext, two levels consumed.
fn lower_slaf(b: &mut GraphBuilder, coeffs: &[f64], x: NodeId) -> NodeId {
    let mut c = [0.0f64; 4];
    c[..coeffs.len()].copy_from_slice(coeffs);
    let ty = b.ct_ty(x);
    let s = ty.scale;
    let m = ty.level;
    let q_m = b.q_at(m);
    // on a chain shorter than the circuit the declared levels saturate
    // at 0 (as `GraphBuilder::rescale` does) and the levels pass
    // reports the exhaustion
    let m1 = m.saturating_sub(1);

    // x² at scale s²/q_m, level m−1
    let sq = b.square(x);
    let x2r = b.rescale(sq);

    // y₂ = c₂·x² → S* = s³/(q_m·q_{m−1}), level m−2
    let c2 = b.encode_scalar(c[2], s, m1);
    let a0 = b.mul_plain(x2r, c2);
    let mut acc = b.rescale(a0);

    // y₃ = (c₃·x)·x² via one ct-ct product, same S* by construction
    if c[3] != 0.0 {
        let c3 = b.encode_scalar(c[3], q_m, m);
        let t0 = b.mul_plain(x, c3);
        let t = b.rescale(t0); // scale s @ m−1
        let y3m = b.mul(t, x2r);
        let y3 = b.rescale(y3m); // S* @ m−2
        acc = b.add(acc, y3);
    }

    // y₁ = c₁·x dropped two levels through scales (s, s)
    let c1 = b.encode_scalar(c[1], s, m);
    let t0 = b.mul_plain(x, c1);
    let t1 = b.rescale(t0); // s²/q_m @ m−1
    let one = b.encode_scalar(1.0, s, m1);
    let y1m = b.mul_plain(t1, one);
    let y1 = b.rescale(y1m); // S* @ m−2
    acc = b.add(acc, y1);

    // y₀ at the accumulated scale
    b.add_scalar(acc, c[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::he_layers::{ConvSpec, DenseSpec};
    use crate::network::{HeLayerSpec, HeNetwork};
    use ckks::{CkksParams, Evaluator, KeyGenerator};
    use ckks_math::sampler::Sampler;
    use he_ir::PassManager;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    /// The packed test network of `packed.rs` (conv 18 rows, dense 5
    /// rows, dim 64).
    fn mini_net(seed: u64) -> PackedNetwork {
        random_net(seed, 2, 3, &[5])
    }

    /// A small conv → SLAF → dense (→ SLAF → dense …) network over 8×8
    /// inputs with seeded weights; packs to dim 64.
    fn random_net(seed: u64, out_ch: usize, act_len: usize, dense: &[usize]) -> PackedNetwork {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut w =
            |n: usize| -> Vec<f32> { (0..n).map(|_| rng.gen_range(-0.25f32..0.25)).collect() };
        let act = [0.05, 0.7, 0.2, 0.04];
        let mut layers = vec![HeLayerSpec::Conv(ConvSpec {
            weight: w(out_ch * 9),
            bias: vec![0.1, -0.1][..out_ch].to_vec(),
            in_ch: 1,
            out_ch,
            k: 3,
            stride: 2,
            pad: 0,
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
                Op::Rotate { src, steps } => {
                    let (v, e) = &nodes[*src];
                    let by = steps.rem_euclid(v.len() as i64) as usize;
                    let rotated = (0..v.len()).map(|j| v[(j + by) % v.len()]).collect();
                    (rotated, model.rotate_value(*e, scale))
                }
                other => panic!("lower_packed does not emit {}", other.mnemonic()),
            };
            nodes.push(next);
        }
        nodes.swap_remove(circuit.outputs[0])
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4))]

        // Over random small nets × every lane stride of the tiny ring:
        // each lowering computes the network's function exactly in the
        // clear, and both the optimized circuit and the un-optimized
        // reference decrypt within the noise bound composed along the
        // *reference's* ops — the optimizer gets no noise allowance of
        // its own, and nobody gets a tuned epsilon.
        #[test]
        fn optimized_reference_and_plain_agree_within_the_noise_bound(
            seed in 0u64..1_000,
            out_ch in 1usize..3,
            act_len in 3usize..5,
            mid in 2usize..9,
            two_dense in proptest::prelude::any::<bool>(),
        ) {
            let dense = if two_dense { vec![mid, 3] } else { vec![mid] };
            let packed = random_net(seed, out_ch, act_len, &dense);
            let ctx = CkksParams::tiny(packed.required_levels()).build();
            let mut kg = KeyGenerator::new(Arc::clone(&ctx), seed);
            let sk = kg.gen_secret_key();
            let pk = kg.gen_public_key(&sk);
            let rk = kg.gen_relin_key(&sk);
            let ev = Evaluator::new(Arc::clone(&ctx));
            let mut s = Sampler::from_seed(seed + 1);

            for lanes in [1usize, 2, 4, 8] {
                let plan = packed.plan_batch(ctx.slots(), lanes).unwrap();
                let (layout, stride) = (plan.layout(), plan.layout().stride());
                let lower =
                    |mode| lower_packed(&packed, GraphBuilder::for_context(&ctx), stride, mode);
                let reference = lower(PackedLowering::Eager);
                let mut optimized = lower(PackedLowering::Compiled);
                proptest::prop_assert!(
                    PassManager::optimizer().optimize(&mut optimized).unwrap().changed()
                );
                let (r_ref, r_opt) =
                    (reference.op_counts().rotations, optimized.op_counts().rotations);
                proptest::prop_assert!(
                    r_opt as f64 <= 0.85 * r_ref as f64,
                    "rotations: optimized {r_opt} vs reference {r_ref}"
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

                for (name, circuit) in [("reference", reference), ("optimized", optimized)] {
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
                    let exact = layout.unpack(&slots_out, lanes, packed.output_dim);
                    let prepared = he_ir::Prepared::new(&ev, circuit).unwrap();
                    let interp = he_ir::Interpreter::new(&ev).with_relin(&rk).with_galois(&gk);
                    let (outs, _) =
                        crate::packed::run_shards(&prepared, &interp, cts.clone()).unwrap();
                    let got = packed.decrypt_batch(&ev, &sk, &outs, &plan);
                    for k in 0..lanes {
                        for i in 0..packed.output_dim {
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

    /// Optimizing the compiled circuit twice is a fixpoint.
    #[test]
    fn compiled_lowering_optimization_is_idempotent() {
        let packed = mini_net(69);
        let params = CkksParams::tiny(packed.required_levels());
        let mut c = lower_packed(
            &packed,
            he_ir::GraphBuilder::new(params),
            1,
            PackedLowering::Compiled,
        );
        let r1 = PassManager::optimizer().optimize(&mut c).unwrap();
        assert!(r1.changed());
        let r2 = PassManager::optimizer().optimize(&mut c).unwrap();
        assert!(!r2.changed(), "{}", r2.render());
    }

    mod pass_props {
        use super::*;
        use he_ir::passes::{
            cse::CsePass, dce::DeadOpPass, hoist::RotationHoistPass, placement::PlacementPass,
        };
        use he_ir::Pass;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            // Every optimizing pass is individually idempotent: a second
            // `rewrite` on its own output reports `changed == false` and
            // the circuit stays valid after every application — over
            // randomized networks, both lowering modes, and tiled as
            // well as batch-strided layouts.
            #[test]
            fn each_optimizing_pass_is_idempotent(
                seed in 0u64..1_000,
                stride_log in 0u32..3,
                want_compiled in any::<bool>(),
            ) {
                let packed = mini_net(seed);
                let params = CkksParams::tiny(packed.required_levels());
                let mode = if want_compiled {
                    PackedLowering::Compiled
                } else {
                    PackedLowering::Eager
                };
                let mut c = lower_packed(
                    &packed,
                    he_ir::GraphBuilder::new(params),
                    1usize << stride_log,
                    mode,
                );
                let passes: [&dyn Pass; 4] =
                    [&RotationHoistPass, &CsePass, &PlacementPass, &DeadOpPass];
                for p in passes {
                    let s1 = p.rewrite(&mut c).expect("optimizing pass has rewrite mode");
                    prop_assert!(
                        c.validate().is_ok(),
                        "{} broke circuit validity: {:?}",
                        p.name(),
                        c.validate()
                    );
                    let s2 = p.rewrite(&mut c).expect("optimizing pass has rewrite mode");
                    prop_assert!(
                        !s2.changed,
                        "{} not idempotent: first {:?}, second {:?}",
                        p.name(),
                        s1,
                        s2
                    );
                    prop_assert!(c.validate().is_ok());
                }
            }
        }
    }
}
