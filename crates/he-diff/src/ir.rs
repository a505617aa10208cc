//! IR-vs-eager differential: the third world.
//!
//! The oracle already proves RNS ≡ bignum within the analytic bound.
//! This module adds a *bit-exact* leg: every generated op sequence is
//! lowered to the `he-ir` circuit IR and interpreted against the same
//! evaluator and keys, and each register write must match the eager
//! ciphertext **limb for limb** — same level, same slots, same scale
//! bits, identical RNS residues. There is no tolerance at all: the IR
//! interpreter claims to replay the exact evaluator call sequence, so
//! any difference, down to one u64, is a lowering or interpretation
//! bug.
//!
//! The lowered circuit also runs through the full standard pass suite
//! (with the harness's real Galois-key inventory declared), so every
//! fuzzed sequence doubles as a feasibility check on the static
//! analyses: a generator-accepted sequence must never produce an error
//! diagnostic.

use crate::gen::DiffOp;
use crate::sim::NUM_REGS;
use ckks::params::CkksContext;
use ckks::{Ciphertext, Evaluator, KeyGenerator};
use ckks_math::sampler::Sampler;
use he_ir::{GraphBuilder, Interpreter, KeyInventory, Layout, PassManager};
use rand::Rng;
use std::collections::HashMap;
use std::sync::Arc;

/// Name of the IR input node fed by the `Encrypt` at op index `i`.
pub fn input_name(i: usize) -> String {
    format!("enc{i}")
}

/// Lowers a generated op sequence to a circuit. Returns the circuit
/// plus, per op, the node id the op wrote (`None` for ops with no
/// ciphertext effect). Every register live at the end is an output.
pub fn lower_ops(ops: &[DiffOp], mut b: GraphBuilder) -> (he_ir::Circuit, Vec<Option<usize>>) {
    let top = b.params().depth();
    let mut regs: [Option<usize>; NUM_REGS] = [None; NUM_REGS];
    let mut writes = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let reg = |r: usize| regs[r].expect("generator guarantees operands are initialized");
        let node = match *op {
            DiffOp::Encrypt { .. } => Some(b.input(&input_name(i), top, Layout::BatchSlots)),
            DiffOp::Add { a, b: rb, .. } => Some(b.add(reg(a), reg(rb))),
            DiffOp::Sub { a, b: rb, .. } => Some(b.sub(reg(a), reg(rb))),
            DiffOp::Negate { src, .. } => Some(b.negate(reg(src))),
            DiffOp::MulRelin { a, b: rb, .. } => Some(b.mul(reg(a), reg(rb))),
            DiffOp::Rescale { src, .. } => Some(b.rescale(reg(src))),
            DiffOp::Rotate { src, steps, .. } => Some(b.rotate(reg(src), steps)),
            DiffOp::CrtRoundTrip { .. } => None,
        };
        if let (Some(n), Some(dst)) = (node, op.dst()) {
            regs[dst] = Some(n);
        }
        writes.push(node);
    }
    for id in regs.into_iter().flatten() {
        b.output(id);
    }
    let elements = crate::ROTATE_STEPS.map(|s| b.params().galois_element_for_rotation(s));
    (b.finish(KeyInventory::with_galois(true, elements)), writes)
}

/// Summary of a clean IR differential run.
#[derive(Debug, Clone, Copy)]
pub struct IrReport {
    /// Ops executed.
    pub ops: usize,
    /// Register writes compared limb for limb.
    pub compares: usize,
    /// Circuit size.
    pub nodes: usize,
}

/// Generates the `(seed, count)` sequence, executes it eagerly on the
/// production evaluator, lowers it to IR, interprets the circuit with
/// the same keys, and demands **bit-identical** ciphertexts at every
/// register write. Also runs the standard pass suite over the lowered
/// circuit and fails on any error diagnostic.
pub fn run_ir_vs_eager(
    ctx: &Arc<CkksContext>,
    seed: u64,
    count: usize,
) -> Result<IrReport, String> {
    let ops = crate::generate(ctx, seed, count);
    let slots = ctx.slots();

    // the RNS world of `oracle::Harness`, key for key
    let mut kg = KeyGenerator::new(Arc::clone(ctx), seed ^ 0xA11C_E5ED);
    let sk = kg.gen_secret_key();
    let pk = kg.gen_public_key(&sk);
    let rk = kg.gen_relin_key(&sk);
    let gk = kg.gen_galois_keys(&sk, &crate::ROTATE_STEPS, false);
    let ev = Evaluator::new(Arc::clone(ctx));
    let mut enc = Sampler::from_seed_stream(seed, 1);

    // eager leg: execute, capturing fresh encryptions as IR inputs
    // (re-encrypting would draw different randomness — the IR world
    // must start from the *same* ciphertexts)
    let mut regs: [Option<Ciphertext>; NUM_REGS] = Default::default();
    let mut inputs: HashMap<String, Ciphertext> = HashMap::new();
    let mut eager: Vec<Option<Ciphertext>> = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let reg = |r: usize| regs[r].as_ref().expect("operand initialized");
        let ct = match *op {
            DiffOp::Encrypt { value_seed, .. } => {
                let mut vs = Sampler::from_seed_stream(value_seed, 0);
                let vals: Vec<f64> = (0..slots).map(|_| vs.rng().gen_range(-1.0..1.0)).collect();
                let ct = ev.encrypt_real(&vals, &pk, &mut enc);
                inputs.insert(input_name(i), ct.clone());
                Some(ct)
            }
            DiffOp::Add { a, b, .. } => Some(ev.add(reg(a), reg(b))),
            DiffOp::Sub { a, b, .. } => Some(ev.sub(reg(a), reg(b))),
            DiffOp::Negate { src, .. } => Some(ev.negate(reg(src))),
            DiffOp::MulRelin { a, b, .. } => Some(ev.multiply(reg(a), reg(b), &rk)),
            DiffOp::Rescale { src, .. } => Some(ev.rescale(reg(src))),
            DiffOp::Rotate { src, steps, .. } => Some(ev.rotate(reg(src), steps, &gk)),
            DiffOp::CrtRoundTrip { .. } => None,
        };
        if let (Some(ct), Some(dst)) = (ct.clone(), op.dst()) {
            regs[dst] = Some(ct);
        }
        eager.push(ct);
    }

    // IR leg: lower over the real chain primes, check, interpret
    let (circuit, writes) = lower_ops(&ops, GraphBuilder::for_context(ctx));
    let report = PassManager::standard().run(&circuit);
    if report.has_errors() {
        return Err(format!(
            "generated sequence fails static analysis:\n{}",
            report.render()
        ));
    }
    let values = Interpreter::new(&ev)
        .with_relin(&rk)
        .with_galois(&gk)
        .run_all(&circuit, &inputs)?;

    let mut compares = 0usize;
    for (i, (node, want)) in writes.iter().zip(&eager).enumerate() {
        let (Some(node), Some(want)) = (node, want) else {
            continue;
        };
        let got = values[*node]
            .as_ct()
            .ok_or_else(|| format!("op #{i}: IR node {node} is not a ciphertext"))?;
        let diff = |what: &str| {
            format!(
                "op #{i} ({}): IR and eager worlds differ in {what}",
                ops[i].render()
            )
        };
        if got.level != want.level {
            return Err(diff("level"));
        }
        if got.slots != want.slots {
            return Err(diff("slots"));
        }
        if got.scale.to_bits() != want.scale.to_bits() {
            return Err(diff("scale bits"));
        }
        for li in 0..=got.level {
            if got.c0.limb(li) != want.c0.limb(li) || got.c1.limb(li) != want.c1.limb(li) {
                return Err(diff(&format!("limb {li}")));
            }
        }
        compares += 1;
    }
    Ok(IrReport {
        ops: ops.len(),
        compares,
        nodes: circuit.nodes.len(),
    })
}

/// Summary of a clean compiled differential run.
#[derive(Debug, Clone, Copy)]
pub struct CompiledReport {
    /// Ops executed eagerly.
    pub ops: usize,
    /// Live end-of-sequence registers compared.
    pub outputs: usize,
    /// Circuit size before / after optimization.
    pub nodes_before: usize,
    pub nodes_after: usize,
    /// Keyswitching rotations before / after optimization.
    pub rotations_before: u64,
    pub rotations_after: u64,
    /// Worst observed `measured / bound` over the compared outputs.
    pub worst_ratio: f64,
}

/// The compiled-vs-eager differential: the generated sequence runs
/// eagerly on the production evaluator, then its lowered circuit is put
/// through the full optimizing pipeline
/// ([`PassManager::optimizer`]) and interpreted. Optimization is
/// allowed to change rounding (rescale sinking reorders divisions), so
/// the contract is *not* bit-equality: every live output must stay
/// within `safety ×` the composed [`he_ir::NoiseModel`] bound of the
/// exact plaintext reference — the oracle's own admission criterion —
/// and within twice that bound of the eager ciphertext.
pub fn run_compiled_vs_eager(
    ctx: &Arc<CkksContext>,
    seed: u64,
    count: usize,
    safety: f64,
) -> Result<CompiledReport, String> {
    let ops = crate::generate(ctx, seed, count);
    let slots = ctx.slots();
    let scale = ctx.params().scale();
    let model = he_ir::NoiseModel::new(ctx.params());

    let mut kg = KeyGenerator::new(Arc::clone(ctx), seed ^ 0xA11C_E5ED);
    let sk = kg.gen_secret_key();
    let pk = kg.gen_public_key(&sk);
    let rk = kg.gen_relin_key(&sk);
    let gk = kg.gen_galois_keys(&sk, &crate::ROTATE_STEPS, false);
    let ev = Evaluator::new(Arc::clone(ctx));
    let mut enc = Sampler::from_seed_stream(seed, 1);

    // eager leg, tracking the plaintext reference and the composed
    // analytic error bound per register (the oracle's trajectory,
    // single-world)
    struct Reg {
        ct: Ciphertext,
        refv: Vec<f64>,
        err: f64,
    }
    let mag = |r: &Reg| r.refv.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let mut regs: [Option<Reg>; NUM_REGS] = Default::default();
    let mut inputs: HashMap<String, Ciphertext> = HashMap::new();
    for (i, op) in ops.iter().enumerate() {
        let reg = |r: usize| regs[r].as_ref().expect("operand initialized");
        let state = match *op {
            DiffOp::Encrypt { value_seed, .. } => {
                let mut vs = Sampler::from_seed_stream(value_seed, 0);
                let refv: Vec<f64> = (0..slots).map(|_| vs.rng().gen_range(-1.0..1.0)).collect();
                let ct = ev.encrypt_real(&refv, &pk, &mut enc);
                inputs.insert(input_name(i), ct.clone());
                Some(Reg {
                    ct,
                    refv,
                    err: model.fresh_value(scale),
                })
            }
            DiffOp::Add { a, b, .. } | DiffOp::Sub { a, b, .. } => {
                let sub = matches!(op, DiffOp::Sub { .. });
                let (ra, rb) = (reg(a), reg(b));
                Some(Reg {
                    ct: if sub {
                        ev.sub(&ra.ct, &rb.ct)
                    } else {
                        ev.add(&ra.ct, &rb.ct)
                    },
                    refv: ra
                        .refv
                        .iter()
                        .zip(&rb.refv)
                        .map(|(x, y)| if sub { x - y } else { x + y })
                        .collect(),
                    err: model.add_value(ra.err, rb.err),
                })
            }
            DiffOp::Negate { src, .. } => {
                let r = reg(src);
                Some(Reg {
                    ct: ev.negate(&r.ct),
                    refv: r.refv.iter().map(|v| -v).collect(),
                    err: r.err,
                })
            }
            DiffOp::MulRelin { a, b, .. } => {
                let (ra, rb) = (reg(a), reg(b));
                let err =
                    model.mul_value(mag(ra), ra.err, mag(rb), rb.err, ra.ct.scale * rb.ct.scale);
                Some(Reg {
                    ct: ev.multiply(&ra.ct, &rb.ct, &rk),
                    refv: ra.refv.iter().zip(&rb.refv).map(|(x, y)| x * y).collect(),
                    err,
                })
            }
            DiffOp::Rescale { src, .. } => {
                let r = reg(src);
                let ct = ev.rescale(&r.ct);
                let err = model.rescale_value(r.err, ct.scale);
                Some(Reg {
                    ct,
                    refv: r.refv.clone(),
                    err,
                })
            }
            DiffOp::Rotate { src, steps, .. } => {
                let r = reg(src);
                let shift = steps.rem_euclid(slots as i64) as usize;
                let err = model.rotate_value(r.err, r.ct.scale);
                Some(Reg {
                    ct: ev.rotate(&r.ct, steps, &gk),
                    refv: (0..slots).map(|j| r.refv[(j + shift) % slots]).collect(),
                    err,
                })
            }
            DiffOp::CrtRoundTrip { .. } => None,
        };
        if let (Some(state), Some(dst)) = (state, op.dst()) {
            regs[dst] = Some(state);
        }
    }

    // compiled leg: lower, optimize (re-validated at every pass
    // boundary), interpret
    let (mut circuit, _) = lower_ops(&ops, GraphBuilder::for_context(ctx));
    let nodes_before = circuit.nodes.len();
    let counts_before = circuit.op_counts();
    let report = PassManager::optimizer()
        .optimize(&mut circuit)
        .map_err(|e| format!("optimizer rejected the lowered sequence: {e}"))?;
    let outs = Interpreter::new(&ev)
        .with_relin(&rk)
        .with_galois(&gk)
        .run(&circuit, &inputs)?;

    // live registers in ascending index order — the order lower_ops
    // declared the outputs in (optimization preserves output order)
    let live: Vec<&Reg> = regs.iter().flatten().collect();
    if live.len() != outs.len() {
        return Err(format!(
            "output arity changed under optimization: {} live registers, {} circuit outputs",
            live.len(),
            outs.len()
        ));
    }
    let mut worst = 0.0f64;
    for (k, (want, got)) in live.iter().zip(&outs).enumerate() {
        let bound = safety * want.err;
        let dec_eager = ev.decrypt_to_real(&want.ct, &sk);
        let dec_comp = ev.decrypt_to_real(got, &sk);
        let d_ref = dec_comp[..slots]
            .iter()
            .zip(&want.refv)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f64, f64::max);
        let d_cross = dec_comp[..slots]
            .iter()
            .zip(&dec_eager[..slots])
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f64, f64::max);
        if d_ref > bound {
            return Err(format!(
                "output #{k}: compiled error {d_ref:.3e} exceeds noise bound {bound:.3e}"
            ));
        }
        // eager is itself within `bound` of the reference, so the two
        // worlds may drift at most twice the bound apart
        if d_cross > 2.0 * bound {
            return Err(format!(
                "output #{k}: compiled and eager worlds {d_cross:.3e} apart (bound {:.3e})",
                2.0 * bound
            ));
        }
        worst = worst.max(d_ref / bound);
    }
    Ok(CompiledReport {
        ops: ops.len(),
        outputs: outs.len(),
        nodes_before,
        nodes_after: report.nodes_after,
        rotations_before: counts_before.rotations,
        rotations_after: circuit.op_counts().rotations,
        worst_ratio: worst,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ir_matches_eager_bit_for_bit_on_every_preset() {
        for p in crate::presets() {
            let ctx = p.params.build();
            let report =
                run_ir_vs_eager(&ctx, 21, 50).unwrap_or_else(|e| panic!("preset {}: {e}", p.name));
            assert_eq!(report.ops, 50);
            assert!(report.compares >= 40, "most ops write a register");
            assert!(report.nodes >= report.compares);
        }
    }

    #[test]
    fn compiled_agrees_within_the_noise_bound_on_every_preset() {
        for p in crate::presets() {
            let ctx = p.params.build();
            for seed in [1u64, 7] {
                let r = run_compiled_vs_eager(&ctx, seed, 80, 64.0)
                    .unwrap_or_else(|e| panic!("preset {} seed {seed}: {e}", p.name));
                assert_eq!(r.ops, 80);
                assert!(r.outputs >= 1);
                assert!(r.worst_ratio <= 1.0);
                // dead register chains and duplicate work exist in any
                // long random sequence; the optimizer must shrink it
                assert!(r.nodes_after <= r.nodes_before);
                assert!(r.rotations_after <= r.rotations_before);
            }
        }
    }

    #[test]
    fn lowered_sequences_are_pass_clean_with_the_harness_keys() {
        let ctx = crate::preset("micro3").unwrap().params.build();
        let ops = crate::generate(&ctx, 4, 120);
        let (circuit, writes) = lower_ops(&ops, GraphBuilder::for_context(&ctx));
        assert_eq!(writes.len(), ops.len());
        circuit.validate().expect("well-formed");
        let report = PassManager::standard().run(&circuit);
        assert!(!report.has_errors(), "{}", report.render());
    }

    #[test]
    fn a_tampered_op_stream_is_caught() {
        // lower a *different* sequence than the one executed eagerly:
        // the limb comparison must fire (same seed ⇒ same inputs, but
        // sub where eager ran add diverges immediately)
        let ctx = crate::preset("micro2").unwrap().params.build();
        let ops = vec![
            DiffOp::Encrypt {
                dst: 0,
                value_seed: 3,
            },
            DiffOp::Encrypt {
                dst: 1,
                value_seed: 4,
            },
            DiffOp::Add { dst: 2, a: 0, b: 1 },
        ];
        let mut kg = KeyGenerator::new(Arc::clone(&ctx), 77);
        let sk = kg.gen_secret_key();
        let pk = kg.gen_public_key(&sk);
        let ev = Evaluator::new(Arc::clone(&ctx));
        let mut enc = Sampler::from_seed_stream(77, 1);
        let vals = vec![0.5; ctx.slots()];
        let c0 = ev.encrypt_real(&vals, &pk, &mut enc);
        let c1 = ev.encrypt_real(&vals, &pk, &mut enc);
        let want = ev.add(&c0, &c1);

        let mut tampered = ops;
        tampered[2] = DiffOp::Sub { dst: 2, a: 0, b: 1 };
        let (circuit, writes) = lower_ops(&tampered, GraphBuilder::for_context(&ctx));
        let mut inputs = HashMap::new();
        inputs.insert(input_name(0), c0);
        inputs.insert(input_name(1), c1);
        let values = Interpreter::new(&ev)
            .run_all(&circuit, &inputs)
            .expect("interpretable");
        let got = values[writes[2].unwrap()].as_ct().unwrap();
        let same = (0..=got.level)
            .all(|li| got.c0.limb(li) == want.c0.limb(li) && got.c1.limb(li) == want.c1.limb(li));
        assert!(!same, "sub vs add must differ in the limbs");
    }
}
