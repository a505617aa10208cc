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
//! bug. A [`DiffOp::RotSum`] lowers to `rotate_ext`, `mul_plain` /
//! `mac_plain` over the key-switch basis and one `mod_down`, so the
//! extended path is held to the same limb-for-limb standard.
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
    let (top, slots, scale) = (b.params().depth(), b.slots(), b.scale());
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
            DiffOp::RotSum {
                src,
                ref steps,
                value_seed,
                ..
            } => {
                let x = reg(src);
                let level = b.ct_ty(x).level;
                let weights = crate::gen::rot_sum_weights(value_seed, steps.len(), slots);
                let mut acc = None;
                for (&step, w) in steps.iter().zip(weights) {
                    let r = b.rotate_ext(x, step);
                    let pt = b.encode_vec(w, scale, level);
                    acc = Some(match acc {
                        None => b.mul_plain(r, pt),
                        Some(a) => b.mac_plain(a, r, pt),
                    });
                }
                Some(b.mod_down(acc.expect("a rotation sum has a term")))
            }
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
            DiffOp::RotSum {
                src,
                ref steps,
                value_seed,
                ..
            } => {
                let weights = crate::gen::rot_sum_weights(value_seed, steps.len(), slots);
                Some(crate::oracle::rot_sum(&ev, &gk, reg(src), steps, &weights))
            }
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

    /// The bit-exact leg covers the extended path: the sequences it runs
    /// carry rotation sums of one to four terms.
    #[test]
    fn generated_sequences_exercise_extended_rotation_sums() {
        let ctx = crate::preset("micro3").unwrap().params.build();
        let ops = crate::generate(&ctx, 21, 200);
        let terms: Vec<usize> = ops
            .iter()
            .filter_map(|op| match op {
                DiffOp::RotSum { steps, .. } => Some(steps.len()),
                _ => None,
            })
            .collect();
        assert!(terms.len() >= 3, "{terms:?}");
        assert!(terms.iter().all(|t| (1..=4).contains(t)));
        run_ir_vs_eager(&ctx, 21, 200).unwrap_or_else(|e| panic!("{e}"));
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
