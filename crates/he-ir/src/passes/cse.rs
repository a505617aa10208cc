//! Pass 4: value numbering / common-subexpression detection.
//!
//! Assigns every pure node a value number — structurally identical ops
//! over identical operands get the same number — and reports the
//! duplication that matters at HE cost scales:
//!
//! - `duplicate-encode`: the same weight encoded at the same scale and
//!   level more than once. `Prepared` prepares every encode node once,
//!   so a circuit that shares one node per distinct weight (the scalar
//!   lowering shares them per layer) prepares each weight once; one
//!   that re-encodes is leaving that saving on the table.
//! - `duplicate-rotation`: the same ciphertext rotated by the same
//!   steps twice — each repeat is a full keyswitch (the dominant packed
//!   engine cost per arXiv:2306.09189's profiling).
//! - other repeated pure subexpressions are summarized as info.
//!
//! `Input` nodes are unique by name and `Zero` nodes are deliberately
//! *not* value-numbered together: a fresh transparent zero costs almost
//! nothing, and accumulator seeds are semantically distinct.

use crate::circuit::{Circuit, NodeId, Op};
use crate::diag::{Diagnostic, LintReport};
use crate::pass::{Pass, PassOutput};
use std::collections::HashMap;

/// Value-numbering result.
#[derive(Debug, Clone)]
pub struct ValueNumbers {
    /// Value number per node (the id of the first node computing that
    /// value).
    pub vn: Vec<NodeId>,
}

#[derive(Hash, PartialEq, Eq)]
enum Key {
    Encode {
        value: u64,
        pt_scale: u64,
        level: usize,
    },
    EncodeVec {
        bits: Vec<u64>,
        pt_scale: u64,
        level: usize,
    },
    Unary {
        tag: u8,
        src: NodeId,
    },
    AddScalar {
        src: NodeId,
        value: u64,
    },
    Binary {
        tag: u8,
        a: NodeId,
        b: NodeId,
    },
    Mac {
        acc: NodeId,
        src: NodeId,
        plain: NodeId,
    },
    ModSwitch {
        src: NodeId,
        level: usize,
    },
    Rotate {
        src: NodeId,
        steps: i64,
    },
}

/// Computes value numbers for every node.
pub fn number(c: &Circuit) -> ValueNumbers {
    let mut vn: Vec<NodeId> = Vec::with_capacity(c.nodes.len());
    let mut table: HashMap<Key, NodeId> = HashMap::new();
    for (id, node) in c.nodes.iter().enumerate() {
        let key = match &node.op {
            // unique by construction (inputs by identity, zeros by intent)
            Op::Input { .. } | Op::Zero => None,
            Op::EncodeScalar { value, pt_scale } => node.ty.as_plain().map(|pt| Key::Encode {
                value: value.to_bits(),
                pt_scale: pt_scale.to_bits(),
                level: pt.level,
            }),
            Op::EncodeVec { values, pt_scale } => node.ty.as_plain().map(|pt| Key::EncodeVec {
                bits: values.iter().map(|v| v.to_bits()).collect(),
                pt_scale: pt_scale.to_bits(),
                level: pt.level,
            }),
            Op::Negate { src } => Some(Key::Unary {
                tag: 0,
                src: vn[*src],
            }),
            Op::Square { src } => Some(Key::Unary {
                tag: 1,
                src: vn[*src],
            }),
            Op::Rescale { src } => Some(Key::Unary {
                tag: 2,
                src: vn[*src],
            }),
            Op::Conjugate { src } => Some(Key::Unary {
                tag: 3,
                src: vn[*src],
            }),
            Op::AddScalar { src, value } => Some(Key::AddScalar {
                src: vn[*src],
                value: value.to_bits(),
            }),
            Op::Add { a, b } => {
                // commutative: canonicalize operand order
                let (x, y) = (vn[*a].min(vn[*b]), vn[*a].max(vn[*b]));
                Some(Key::Binary { tag: 0, a: x, b: y })
            }
            Op::Mul { a, b } => {
                let (x, y) = (vn[*a].min(vn[*b]), vn[*a].max(vn[*b]));
                Some(Key::Binary { tag: 1, a: x, b: y })
            }
            Op::Sub { a, b } => Some(Key::Binary {
                tag: 2,
                a: vn[*a],
                b: vn[*b],
            }),
            Op::MulPlain { src, plain } => Some(Key::Binary {
                tag: 3,
                a: vn[*src],
                b: vn[*plain],
            }),
            Op::AddPlain { src, plain } => Some(Key::Binary {
                tag: 4,
                a: vn[*src],
                b: vn[*plain],
            }),
            Op::MacPlain { acc, src, plain } => Some(Key::Mac {
                acc: vn[*acc],
                src: vn[*src],
                plain: vn[*plain],
            }),
            Op::ModSwitch { src, level } => Some(Key::ModSwitch {
                src: vn[*src],
                level: *level,
            }),
            Op::Rotate { src, steps } => Some(Key::Rotate {
                src: vn[*src],
                steps: *steps,
            }),
        };
        let number = match key {
            None => id,
            Some(k) => *table.entry(k).or_insert(id),
        };
        vn.push(number);
    }
    ValueNumbers { vn }
}

/// The [`Pass`] wrapper: duplicate encodes/rotations become warnings.
pub struct CsePass;

impl Pass for CsePass {
    fn name(&self) -> &'static str {
        "cse"
    }

    fn description(&self) -> &'static str {
        "value numbering: duplicated weight encodings, repeated rotations, common subexpressions"
    }

    fn run(&self, circuit: &Circuit) -> PassOutput {
        let numbers = number(circuit);
        let mut report = LintReport::default();

        let mut dup_encodes = 0usize;
        let mut dup_rotations = 0usize;
        let mut dup_other = 0usize;
        let mut first_dup_encode: Option<NodeId> = None;
        let mut first_dup_rotation: Option<NodeId> = None;
        for (id, &n) in numbers.vn.iter().enumerate() {
            if n == id {
                continue; // representative
            }
            match &circuit.nodes[id].op {
                Op::EncodeScalar { .. } | Op::EncodeVec { .. } => {
                    dup_encodes += 1;
                    first_dup_encode.get_or_insert(id);
                }
                Op::Rotate { .. } | Op::Conjugate { .. } => {
                    dup_rotations += 1;
                    first_dup_rotation.get_or_insert(id);
                }
                _ => dup_other += 1,
            }
        }

        if dup_encodes > 0 {
            report.push(
                Diagnostic::warn(
                    "duplicate-encode",
                    first_dup_encode,
                    format!(
                        "{dup_encodes} weight encoding(s) duplicate an earlier encode \
                         of the same value at the same scale and level"
                    ),
                )
                .with_suggestion(
                    "share one encode node across taps (the scalar lowering shares them \
                     per layer)",
                ),
            );
        }
        if dup_rotations > 0 {
            report.push(
                Diagnostic::warn(
                    "duplicate-rotation",
                    first_dup_rotation,
                    format!(
                        "{dup_rotations} rotation(s) repeat an identical rotation of the \
                         same ciphertext — each repeat is a full keyswitch"
                    ),
                )
                .with_suggestion("hoist the rotation and reuse its result"),
            );
        }
        if dup_other > 0 {
            report.push(Diagnostic::info(
                "common-subexpression",
                None,
                format!("{dup_other} other node(s) recompute an available value"),
            ));
        }

        let distinct = numbers
            .vn
            .iter()
            .enumerate()
            .filter(|&(i, &n)| i == n)
            .count();
        let summary = format!(
            "{distinct} distinct value(s) across {} node(s); {dup_encodes} duplicate \
             encode(s), {dup_rotations} duplicate rotation(s)",
            circuit.nodes.len()
        );
        PassOutput { report, summary }
    }

    /// Transform mode: redirect every use of a duplicate node to its
    /// value-number representative (the *first* node computing that
    /// value — always an earlier id, so SSA order is preserved). The
    /// orphaned duplicates are left for DCE. Merging duplicate ct×ct
    /// products also drops their fused relinearizations — the
    /// "provably redundant relin" case: the keyswitch of a product
    /// that is bit-identical to an already-relinearized one.
    fn rewrite(&self, circuit: &mut Circuit) -> Option<crate::pass::RewriteStats> {
        let numbers = number(circuit);
        let mut fwd: Vec<NodeId> = (0..circuit.nodes.len()).collect();
        for (id, &rep) in numbers.vn.iter().enumerate() {
            // guard: only merge when the declared types agree exactly
            if rep != id && circuit.nodes[rep].ty == circuit.nodes[id].ty {
                fwd[id] = rep;
            }
        }
        let rewritten = crate::passes::rewrite::redirect_uses(circuit, &fwd);
        Some(crate::pass::RewriteStats {
            changed: rewritten > 0,
            nodes_rewritten: rewritten,
            nodes_removed: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::GraphBuilder;
    use crate::circuit::KeyInventory;
    use crate::types::Layout;
    use ckks::CkksParams;

    #[test]
    fn shared_encodes_are_clean() {
        let params = CkksParams::tiny(2);
        let s = params.scale();
        let mut b = GraphBuilder::new(params);
        let x = b.input("x", 2, Layout::BatchSlots);
        let q = b.q_at(2);
        let w = b.encode_scalar(0.5, q, 2);
        let z1 = b.zero(s * q, 2);
        let a1 = b.mac_plain(z1, x, w);
        let z2 = b.zero(s * q, 2);
        let a2 = b.mac_plain(z2, x, w); // same weight node, distinct acc
        let y = b.add(a1, a2);
        b.output(y);
        let c = b.finish(KeyInventory::relin_only());
        let out = CsePass.run(&c);
        assert!(
            !out.report.has_code("duplicate-encode"),
            "{}",
            out.report.render()
        );
    }

    #[test]
    fn re_encoded_weight_is_flagged() {
        let params = CkksParams::tiny(2);
        let mut b = GraphBuilder::new(params);
        let x = b.input("x", 2, Layout::BatchSlots);
        let q = b.q_at(2);
        let w1 = b.encode_scalar(0.5, q, 2);
        let w2 = b.encode_scalar(0.5, q, 2); // identical encode
        let p1 = b.mul_plain(x, w1);
        let p2 = b.mul_plain(x, w2);
        let y = b.add(p1, p2);
        b.output(y);
        let c = b.finish(KeyInventory::relin_only());
        let out = CsePass.run(&c);
        assert!(out.report.has_code("duplicate-encode"));
        // and the two mul_plains collapse to one value number → info
        assert!(out.report.has_code("common-subexpression"));
    }

    #[test]
    fn repeated_rotation_is_flagged_and_distinct_steps_are_not() {
        let mut b = GraphBuilder::new(CkksParams::tiny(1));
        let x = b.input("x", 1, Layout::Tiled);
        let r1 = b.rotate(x, 1);
        let r2 = b.rotate(x, 1); // duplicate
        let r3 = b.rotate(x, 2); // distinct
        let s = b.add(r1, r2);
        let y = b.add(s, r3);
        b.output(y);
        let c = b.finish(KeyInventory::unknown());
        let out = CsePass.run(&c);
        assert!(out.report.has_code("duplicate-rotation"));

        let mut b = GraphBuilder::new(CkksParams::tiny(1));
        let x = b.input("x", 1, Layout::Tiled);
        let r1 = b.rotate(x, 1);
        let r2 = b.rotate(x, 2);
        let y = b.add(r1, r2);
        b.output(y);
        let out = CsePass.run(&b.finish(KeyInventory::unknown()));
        assert!(!out.report.has_code("duplicate-rotation"));
    }

    #[test]
    fn commutative_add_canonicalizes() {
        let mut b = GraphBuilder::new(CkksParams::tiny(2));
        let x = b.input("x", 2, Layout::BatchSlots);
        let y = b.input("y", 2, Layout::BatchSlots);
        let s1 = b.add(x, y);
        let s2 = b.add(y, x);
        let z = b.add(s1, s2);
        b.output(z);
        let c = b.finish(KeyInventory::relin_only());
        let numbers = number(&c);
        assert_eq!(numbers.vn[s1], numbers.vn[s2]);
    }
}
