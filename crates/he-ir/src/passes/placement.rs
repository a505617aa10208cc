//! Pass 5: rescale/relin placement checker.
//!
//! Enforces the waterline discipline of DESIGN.md: ciphertext scales
//! ride at Δ (weights encoded at `q_m` so linear layers return to Δ;
//! SLAF plaintext scales chosen so every product path meets at the same
//! scale), products are rescaled before they are multiplied again, and
//! operands of any binary op sit at the same level. Violations:
//!
//! - `redundant-rescale` (warn): a rescale whose result lands below
//!   Δ/4 — the message is being pushed under the waterline and
//!   precision is destroyed (the same `scale_bits − 2` floor he-diff's
//!   feasibility sim enforces).
//! - `missing-rescale` (warn): a ct×ct product operand still carries a
//!   near-Δ² scale (an unrescaled product), so the result would sit at
//!   ≈Δ³ and burn headroom.
//! - `level-misaligned` (error): binary-op operands at different
//!   levels, or a weight encoded in a different residue basis than the
//!   ciphertext it multiplies — the eager evaluator panics on both.
//! - `missing-relin-key` (error): ct×ct products with no relin key
//!   declared.

//!
//! In transform mode ([`Pass::rewrite`]) the pass applies three
//! placement rewrites, each preserving the declared output type:
//!
//! 1. **Rescale sinking**: `add(rescale(a), rescale(b))` becomes
//!    `rescale(add(a, b))` — one rescale instead of two. Legal when
//!    both rescales are used only by the add and `a`/`b` sit at the
//!    same level and scale (so the merged rescale divides by the same
//!    modulus). Applied to fixpoint, so an add-tree of rescaled
//!    products collapses to a single rescale at the root.
//! 2. **Square strengthening**: `mul(x, x)` becomes `square(x)` — the
//!    symmetric keyswitch path the eager evaluator optimizes.
//! 3. **No-op mod-switch elision**: a `mod_switch` to the operand's own
//!    level is forwarded to its operand.

use crate::circuit::{Circuit, NodeId, Op};
use crate::diag::{Diagnostic, LintReport};
use crate::pass::{Pass, PassOutput, RewriteStats};
use crate::passes::rewrite::{redirect_uses, use_counts};

/// The [`Pass`] implementing the placement checks.
pub struct PlacementPass;

struct Check<'c> {
    c: &'c Circuit,
    report: LintReport,
    redundant: usize,
    missing: usize,
    misaligned: usize,
    relin_reported: bool,
}

impl Check<'_> {
    fn ct_level(&self, id: NodeId) -> Option<usize> {
        self.c.nodes[id].ty.as_ct().map(|t| t.level)
    }

    fn ct_scale(&self, id: NodeId) -> Option<f64> {
        self.c.nodes[id].ty.as_ct().map(|t| t.scale)
    }

    fn check_aligned(&mut self, id: NodeId, a: NodeId, b: NodeId) {
        let (Some(la), Some(lb)) = (self.ct_level(a), self.ct_level(b)) else {
            return;
        };
        if la != lb {
            self.misaligned += 1;
            self.report.push(
                Diagnostic::error(
                    "level-misaligned",
                    Some(id),
                    format!(
                        "{} operands sit at levels {la} and {lb}; the evaluator \
                         requires equal limb counts",
                        self.c.nodes[id].op.mnemonic()
                    ),
                )
                .with_suggestion(format!(
                    "mod-switch the higher operand down to level {}",
                    la.min(lb)
                )),
            );
        }
    }

    fn check_relin(&mut self, id: NodeId) {
        if self.c.keys.relin || self.relin_reported {
            return;
        }
        self.relin_reported = true;
        self.report.push(
            Diagnostic::error(
                "missing-relin-key",
                Some(id),
                "ct×ct product but no relinearization key is declared",
            )
            .with_suggestion("generate the relinearization key alongside the secret key"),
        );
    }

    /// An operand of a ct×ct product that still carries an unrescaled
    /// product scale (≥ Δ^1.5 — halfway to Δ², far above any scale the
    /// exact-scale discipline produces on purpose).
    fn check_operand_rescaled(&mut self, id: NodeId, operand: NodeId) {
        let Some(scale) = self.ct_scale(operand) else {
            return;
        };
        let waterline = 1.5 * f64::from(self.c.params.scale_bits);
        if scale.log2() >= waterline {
            self.missing += 1;
            self.report.push(
                Diagnostic::warn(
                    "missing-rescale",
                    Some(id),
                    format!(
                        "multiplying an operand still at scale 2^{:.1} (an unrescaled \
                         product); the result sits near Δ³ and burns headroom",
                        scale.log2()
                    ),
                )
                .with_suggestion("rescale the product before multiplying it again"),
            );
        }
    }

    fn check_rescale(&mut self, id: NodeId, src: NodeId) {
        let (Some(in_scale), Some(level)) = (self.ct_scale(src), self.ct_level(src)) else {
            return;
        };
        if level == 0 {
            return; // chain exhaustion is the levels pass's finding
        }
        let out_scale = in_scale / self.c.moduli[level];
        let floor = f64::from(self.c.params.scale_bits) - 2.0;
        if out_scale.log2() < floor {
            self.redundant += 1;
            self.report.push(
                Diagnostic::warn(
                    "redundant-rescale",
                    Some(id),
                    format!(
                        "rescale lands at scale 2^{:.1}, below the Δ/4 waterline \
                         (Δ = 2^{}); the message loses precision",
                        out_scale.log2(),
                        self.c.params.scale_bits
                    ),
                )
                .with_suggestion(
                    "drop this rescale — the ciphertext is already at the working scale",
                ),
            );
        }
    }
}

impl Pass for PlacementPass {
    fn name(&self) -> &'static str {
        "placement"
    }

    fn description(&self) -> &'static str {
        "rescale/relin placement vs the waterline discipline (redundant/missing rescales, level alignment)"
    }

    fn run(&self, circuit: &Circuit) -> PassOutput {
        let mut chk = Check {
            c: circuit,
            report: LintReport::default(),
            redundant: 0,
            missing: 0,
            misaligned: 0,
            relin_reported: false,
        };
        for (id, node) in circuit.nodes.iter().enumerate() {
            match &node.op {
                Op::Add { a, b } | Op::Sub { a, b } => chk.check_aligned(id, *a, *b),
                Op::Mul { a, b } => {
                    chk.check_aligned(id, *a, *b);
                    chk.check_relin(id);
                    chk.check_operand_rescaled(id, *a);
                    chk.check_operand_rescaled(id, *b);
                }
                Op::Square { src } => {
                    chk.check_relin(id);
                    chk.check_operand_rescaled(id, *src);
                }
                Op::MacPlain { acc, src, plain } => {
                    chk.check_aligned(id, *acc, *src);
                    chk.check_encode_basis(id, *src, *plain);
                }
                Op::MulPlain { src, plain } | Op::AddPlain { src, plain } => {
                    chk.check_encode_basis(id, *src, *plain);
                }
                Op::Rescale { src } => chk.check_rescale(id, *src),
                _ => {}
            }
        }
        let summary = format!(
            "{} redundant rescale(s), {} missing rescale(s), {} level misalignment(s)",
            chk.redundant, chk.missing, chk.misaligned
        );
        PassOutput {
            report: chk.report,
            summary,
        }
    }

    fn rewrite(&self, circuit: &mut Circuit) -> Option<RewriteStats> {
        let mut rewritten = 0usize;

        // (1) Rescale sinking, to fixpoint. Each candidate rewrites two
        // nodes in place: the later rescale (`hi = max(a, b)`) becomes
        // the pre-rescale add — both its new operands sit strictly
        // before it, so SSA order holds — and the original add becomes
        // the single merged rescale. The earlier rescale (`lo`) is left
        // dead for DCE. Candidates within one sweep are disjoint (the
        // use-count-1 guard pins each rescale to exactly one add), so
        // the sweep applies them all before re-scanning.
        loop {
            let uses = use_counts(circuit);
            let mut candidates: Vec<(NodeId, NodeId, NodeId)> = Vec::new();
            for (id, node) in circuit.nodes.iter().enumerate() {
                let Op::Add { a, b } = node.op else {
                    continue;
                };
                if a == b || uses[a] != 1 || uses[b] != 1 {
                    continue;
                }
                let (Op::Rescale { src: sa }, Op::Rescale { src: sb }) =
                    (&circuit.nodes[a].op, &circuit.nodes[b].op)
                else {
                    continue;
                };
                let (sa, sb) = (*sa, *sb);
                let (Some(ta), Some(tb)) =
                    (circuit.nodes[sa].ty.as_ct(), circuit.nodes[sb].ty.as_ct())
                else {
                    continue;
                };
                // the merged rescale must divide both operands by the
                // same modulus at the same scale
                if ta.level != tb.level || ta.scale != tb.scale || ta.level == 0 {
                    continue;
                }
                candidates.push((id, a, b));
            }
            if candidates.is_empty() {
                break;
            }
            for (add, a, b) in candidates {
                let hi = a.max(b);
                let (sa, sb) = match (&circuit.nodes[a].op, &circuit.nodes[b].op) {
                    (Op::Rescale { src: sa }, Op::Rescale { src: sb }) => (*sa, *sb),
                    _ => unreachable!("candidate ops verified above"),
                };
                circuit.nodes[hi].ty = circuit.nodes[sa].ty;
                circuit.nodes[hi].op = Op::Add { a: sa, b: sb };
                circuit.nodes[add].op = Op::Rescale { src: hi };
                rewritten += 1;
            }
        }

        // (2) mul(x, x) → square(x): same declared type, cheaper
        // symmetric keyswitch at runtime.
        for node in &mut circuit.nodes {
            if let Op::Mul { a, b } = node.op {
                if a == b {
                    node.op = Op::Square { src: a };
                    rewritten += 1;
                }
            }
        }

        // (3) forward no-op mod-switches (target at or above the
        // operand's level — the builder saturates, so the declared
        // types already agree).
        let mut fwd: Vec<NodeId> = (0..circuit.nodes.len()).collect();
        for (id, node) in circuit.nodes.iter().enumerate() {
            if let Op::ModSwitch { src, level } = &node.op {
                let noop = circuit.nodes[*src]
                    .ty
                    .as_ct()
                    .is_some_and(|t| *level >= t.level);
                if noop && circuit.nodes[*src].ty == node.ty {
                    fwd[id] = *src;
                }
            }
        }
        rewritten += redirect_uses(circuit, &fwd);

        Some(RewriteStats {
            changed: rewritten > 0,
            nodes_rewritten: rewritten,
            nodes_removed: 0,
        })
    }
}

impl Check<'_> {
    /// A weight must be encoded in the residue basis (level) of the
    /// ciphertext it multiplies.
    fn check_encode_basis(&mut self, id: NodeId, src: NodeId, plain: NodeId) {
        let (Some(lc), Some(pt)) = (self.ct_level(src), self.c.nodes[plain].ty.as_plain()) else {
            return;
        };
        if pt.level != lc {
            self.misaligned += 1;
            self.report.push(
                Diagnostic::error(
                    "level-misaligned",
                    Some(id),
                    format!(
                        "weight encoded for level {} but the ciphertext is at level {lc}; \
                         the residue bases do not match",
                        pt.level
                    ),
                )
                .with_suggestion(format!("prepare the scalar at level {lc}")),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::GraphBuilder;
    use crate::circuit::KeyInventory;
    use crate::types::Layout;
    use ckks::CkksParams;

    /// The engine's deg-3 SLAF recipe at nominal scales — the canonical
    /// well-placed circuit.
    fn slaf_circuit(keys: KeyInventory) -> Circuit {
        let params = CkksParams::tiny(3);
        let s = params.scale();
        let mut b = GraphBuilder::new(params);
        let top = b.params().depth();
        let x = b.input("x", top, Layout::BatchSlots);
        let q_m = b.q_at(top);
        let x2 = b.square(x);
        let x2r = b.rescale(x2);
        let c2 = b.encode_scalar(0.25, s, top - 1);
        let a = b.mul_plain(x2r, c2);
        let mut acc = b.rescale(a);
        let c3 = b.encode_scalar(0.125, q_m, top);
        let t = b.mul_plain(x, c3);
        let tr = b.rescale(t);
        let y3m = b.mul(tr, x2r);
        let y3 = b.rescale(y3m);
        acc = b.add(acc, y3);
        let c1 = b.encode_scalar(0.5, s, top);
        let t1 = b.mul_plain(x, c1);
        let t1r = b.rescale(t1);
        let one = b.encode_scalar(1.0, s, top - 1);
        let y1m = b.mul_plain(t1r, one);
        let y1 = b.rescale(y1m);
        acc = b.add(acc, y1);
        let out = b.add_scalar(acc, 0.1);
        b.output(out);
        b.finish(keys)
    }

    #[test]
    fn exact_discipline_slaf_is_clean() {
        let out = PlacementPass.run(&slaf_circuit(KeyInventory::relin_only()));
        assert!(!out.report.has_errors(), "{}", out.report.render());
        assert!(!out.report.has_code("missing-rescale"));
        assert!(!out.report.has_code("redundant-rescale"));
    }

    #[test]
    fn missing_relin_key_is_an_error() {
        let out = PlacementPass.run(&slaf_circuit(KeyInventory::with_galois(false, [])));
        assert!(out.report.has_code("missing-relin-key"));
        assert!(out.report.has_errors());
    }

    #[test]
    fn unrescaled_product_fed_to_mul_warns() {
        let mut b = GraphBuilder::new(CkksParams::tiny(3));
        let x = b.input("x", 3, Layout::BatchSlots);
        let sq = b.square(x); // scale Δ², not rescaled
        let bad = b.mul(sq, x);
        b.output(bad);
        let c = b.finish(KeyInventory::relin_only());
        let out = PlacementPass.run(&c);
        assert!(
            out.report.has_code("missing-rescale"),
            "{}",
            out.report.render()
        );
    }

    #[test]
    fn rescaling_past_the_waterline_warns() {
        let mut b = GraphBuilder::new(CkksParams::tiny(3));
        let x = b.input("x", 3, Layout::BatchSlots);
        let r1 = b.rescale(x); // Δ/q ≈ 1: far below Δ/4
        b.output(r1);
        let c = b.finish(KeyInventory::relin_only());
        let out = PlacementPass.run(&c);
        assert!(
            out.report.has_code("redundant-rescale"),
            "{}",
            out.report.render()
        );
        assert!(!out.report.has_errors());
    }

    #[test]
    fn misaligned_levels_are_errors() {
        let mut b = GraphBuilder::new(CkksParams::tiny(3));
        let x = b.input("x", 3, Layout::BatchSlots);
        let y = b.input("y", 2, Layout::BatchSlots);
        let s = b.add(x, y);
        b.output(s);
        let c = b.finish(KeyInventory::relin_only());
        let out = PlacementPass.run(&c);
        assert!(out.report.has_code("level-misaligned"));
        assert!(out.report.has_errors());
    }

    #[test]
    fn rescale_sinks_past_add_and_is_idempotent() {
        let params = CkksParams::tiny(3);
        let mut b = GraphBuilder::new(params);
        let top = b.params().depth();
        let x = b.input("x", top, Layout::BatchSlots);
        let q = b.q_at(top);
        let w1 = b.encode_scalar(0.25, q, top);
        let w2 = b.encode_scalar(0.5, q, top);
        let p1 = b.mul_plain(x, w1);
        let p2 = b.mul_plain(x, w2);
        let r1 = b.rescale(p1);
        let r2 = b.rescale(p2);
        let sum = b.add(r1, r2);
        b.output(sum);
        let mut c = b.finish(KeyInventory::relin_only());
        let want_ty = c.nodes[sum].ty;

        let stats = PlacementPass.rewrite(&mut c).unwrap();
        assert!(stats.changed);
        // hi = r2 became the pre-rescale add; the old add is the single
        // merged rescale; r1 is dead
        assert!(matches!(c.nodes[r2].op, Op::Add { a, b } if a == p1 && b == p2));
        assert!(matches!(c.nodes[sum].op, Op::Rescale { src } if src == r2));
        assert_eq!(c.nodes[sum].ty, want_ty, "output type is preserved");
        assert!(c.validate().is_ok(), "{:?}", c.validate());
        assert_eq!(c.op_counts().rescales, 2, "one rescale merged, one dead");

        let stats2 = PlacementPass.rewrite(&mut c).unwrap();
        assert!(!stats2.changed, "{stats2:?}");
    }

    #[test]
    fn shared_rescale_is_not_sunk() {
        // r1 feeds both the add and an output: sinking would change the
        // observable value, so the pattern must not fire.
        let params = CkksParams::tiny(3);
        let mut b = GraphBuilder::new(params);
        let top = b.params().depth();
        let x = b.input("x", top, Layout::BatchSlots);
        let q = b.q_at(top);
        let w1 = b.encode_scalar(0.25, q, top);
        let w2 = b.encode_scalar(0.5, q, top);
        let p1 = b.mul_plain(x, w1);
        let p2 = b.mul_plain(x, w2);
        let r1 = b.rescale(p1);
        let r2 = b.rescale(p2);
        let sum = b.add(r1, r2);
        b.output(sum);
        b.output(r1);
        let mut c = b.finish(KeyInventory::relin_only());
        let stats = PlacementPass.rewrite(&mut c).unwrap();
        assert!(!stats.changed);
        assert!(matches!(c.nodes[sum].op, Op::Add { .. }));
    }

    #[test]
    fn add_tree_of_rescales_collapses_to_fixpoint() {
        // four rescaled products under a balanced add tree: every
        // rescale sinks to the root, 4 → 1 live rescales.
        let params = CkksParams::tiny(3);
        let mut b = GraphBuilder::new(params);
        let top = b.params().depth();
        let x = b.input("x", top, Layout::BatchSlots);
        let q = b.q_at(top);
        let mut rs = Vec::new();
        for i in 0..4 {
            let w = b.encode_scalar(0.1 * (i + 1) as f64, q, top);
            let p = b.mul_plain(x, w);
            rs.push(b.rescale(p));
        }
        let s1 = b.add(rs[0], rs[1]);
        let s2 = b.add(rs[2], rs[3]);
        let root = b.add(s1, s2);
        b.output(root);
        let mut c = b.finish(KeyInventory::relin_only());
        let stats = PlacementPass.rewrite(&mut c).unwrap();
        assert!(stats.changed);
        assert!(c.validate().is_ok(), "{:?}", c.validate());
        assert!(matches!(c.nodes[root].op, Op::Rescale { .. }));
        // live rescale count: walk from the output
        let live = {
            let mut seen = vec![false; c.nodes.len()];
            let mut stack = c.outputs.clone();
            let mut n = 0;
            while let Some(id) = stack.pop() {
                if seen[id] {
                    continue;
                }
                seen[id] = true;
                if matches!(c.nodes[id].op, Op::Rescale { .. }) {
                    n += 1;
                }
                stack.extend(c.nodes[id].op.args());
            }
            n
        };
        assert_eq!(live, 1, "all four rescales merged into the root");
    }

    #[test]
    fn self_mul_becomes_square_and_noop_modswitch_forwards() {
        let mut b = GraphBuilder::new(CkksParams::tiny(3));
        let x = b.input("x", 3, Layout::BatchSlots);
        let m = b.mul(x, x);
        let r = b.rescale(m);
        let ms = b.mod_switch(r, 3); // saturates: no-op
        let y = b.negate(ms);
        b.output(y);
        let mut c = b.finish(KeyInventory::relin_only());
        let stats = PlacementPass.rewrite(&mut c).unwrap();
        assert!(stats.changed);
        assert!(matches!(c.nodes[m].op, Op::Square { src } if src == x));
        assert_eq!(c.nodes[y].op.args(), vec![r], "no-op mod-switch elided");
        assert!(c.validate().is_ok());

        let stats2 = PlacementPass.rewrite(&mut c).unwrap();
        assert!(!stats2.changed);
    }

    #[test]
    fn real_modswitch_is_kept() {
        let mut b = GraphBuilder::new(CkksParams::tiny(3));
        let x = b.input("x", 3, Layout::BatchSlots);
        let ms = b.mod_switch(x, 1); // drops two levels: semantic
        let y = b.negate(ms);
        b.output(y);
        let mut c = b.finish(KeyInventory::relin_only());
        let stats = PlacementPass.rewrite(&mut c).unwrap();
        assert!(!stats.changed);
        assert_eq!(c.nodes[y].op.args(), vec![ms]);
    }

    #[test]
    fn weight_in_wrong_basis_is_an_error() {
        let params = CkksParams::tiny(3);
        let mut b = GraphBuilder::new(params);
        let x = b.input("x", 3, Layout::BatchSlots);
        let w = b.encode_scalar(0.5, b.scale(), 1); // wrong level
        let p = b.mul_plain(x, w);
        b.output(p);
        let c = b.finish(KeyInventory::relin_only());
        let out = PlacementPass.run(&c);
        assert!(
            out.report.has_code("level-misaligned"),
            "{}",
            out.report.render()
        );
    }
}
