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

use crate::circuit::{Circuit, NodeId, Op};
use crate::diag::{Diagnostic, LintReport};
use crate::pass::{Pass, PassOutput};

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
        let mut acc = b.mul_plain(x2r, c2);
        let c3 = b.encode_scalar(0.125, q_m, top);
        let t = b.mul_plain(x, c3);
        let tr = b.rescale(t);
        let y3 = b.mul(tr, x2r);
        acc = b.add(acc, y3);
        let c1 = b.encode_scalar(0.5, s, top);
        let t1 = b.mul_plain(x, c1);
        let t1r = b.rescale(t1);
        let one = b.encode_scalar(1.0, s, top - 1);
        let y1 = b.mul_plain(t1r, one);
        acc = b.add(acc, y1);
        let acc = b.rescale(acc);
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
