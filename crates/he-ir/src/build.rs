//! The graph-builder: a symbolic mirror of `ckks::Evaluator`.
//!
//! `GraphBuilder` exposes the evaluator's method surface (`add`,
//! `mul_scalar`-as-`mul_plain`, `mac_plain`, `square`, `rescale`,
//! `rotate`, …) but instead of touching polynomials it appends typed
//! nodes to a [`Circuit`]. This is the "graph-builder mode" front-ends
//! record through: the eager `Evaluator` stays pure and `Sync`
//! (recording state cannot live inside it), and a lowering replays the
//! exact same call sequence it would make eagerly against this builder.
//!
//! Scale bookkeeping mirrors the evaluator *expression for expression*
//! (`mul_plain` multiplies scales, `rescale` divides by the dropped
//! modulus value): a circuit lowered with [`GraphBuilder::for_context`]
//! declares scales bit-identical to the ones an eager run computes.
//! Type computation never panics — a structurally broken circuit (e.g.
//! a rescale at level 0) gets *saturating* types, and the analysis
//! passes produce the diagnostics.

use crate::circuit::{Circuit, KeyInventory, Node, NodeId, Op, Region};
use crate::types::{Basis, CtType, Layout, PlainType, ValueTy};
use ckks::{CkksContext, CkksParams};

/// Records evaluator calls as circuit nodes. See the module docs.
pub struct GraphBuilder {
    params: CkksParams,
    moduli: Vec<f64>,
    nodes: Vec<Node>,
    outputs: Vec<NodeId>,
    regions: Vec<Region>,
    open_region: Option<(String, NodeId)>,
}

impl GraphBuilder {
    /// Builder over nominal moduli (`q_i = 2^chain_bits[i]` exactly) —
    /// what plan-level analysis uses.
    pub fn new(params: CkksParams) -> Self {
        let moduli = Circuit::nominal_moduli(&params);
        Self {
            params,
            moduli,
            nodes: Vec::new(),
            outputs: Vec::new(),
            regions: Vec::new(),
            open_region: None,
        }
    }

    /// Builder over the real generated chain primes of a built context:
    /// declared scales become bit-identical to eager execution.
    pub fn for_context(ctx: &CkksContext) -> Self {
        let mut b = Self::new(ctx.params().clone());
        b.moduli = ctx
            .chain_moduli()
            .iter()
            .map(|m| m.value() as f64)
            .collect();
        b
    }

    /// Modulus value at `level` (clamped to the chain).
    pub fn q_at(&self, level: usize) -> f64 {
        self.moduli[level.min(self.moduli.len() - 1)]
    }

    /// Δ of the parameter set.
    pub fn scale(&self) -> f64 {
        self.params.scale()
    }

    pub fn slots(&self) -> usize {
        self.params.slots()
    }

    pub fn params(&self) -> &CkksParams {
        &self.params
    }

    /// Current ciphertext type of a node (panics on plain nodes —
    /// lowerings only thread ciphertext ids around).
    pub fn ct_ty(&self, id: NodeId) -> CtType {
        *self.nodes[id].ty.as_ct().expect("node is not a ciphertext")
    }

    fn push(&mut self, op: Op, ty: ValueTy) -> NodeId {
        self.nodes.push(Node { op, ty });
        self.nodes.len() - 1
    }

    // -----------------------------------------------------------------
    // Sources
    // -----------------------------------------------------------------

    /// A free ciphertext input at scale Δ, bound by `name` at
    /// interpretation time.
    pub fn input(&mut self, name: &str, level: usize, layout: Layout) -> NodeId {
        let ty = ValueTy::Ct(CtType {
            level: level.min(self.params.depth()),
            scale: self.params.scale(),
            slots: self.params.slots(),
            layout,
            basis: Basis::Chain,
        });
        self.push(
            Op::Input {
                name: name.to_string(),
            },
            ty,
        )
    }

    /// Mirror of `Evaluator::zero_ciphertext(scale, level, slots)`, in
    /// the scalar [`Layout::BatchSlots`] layout.
    pub fn zero(&mut self, scale: f64, level: usize) -> NodeId {
        let ty = ValueTy::Ct(CtType {
            level: level.min(self.params.depth()),
            scale,
            slots: self.params.slots(),
            layout: Layout::BatchSlots,
            basis: Basis::Chain,
        });
        self.push(Op::Zero, ty)
    }

    /// Mirror of `Evaluator::prepare_scalar(value, pt_scale, level)`.
    pub fn encode_scalar(&mut self, value: f64, pt_scale: f64, level: usize) -> NodeId {
        let ty = ValueTy::Plain(PlainType {
            level: level.min(self.params.depth()),
            pt_scale,
        });
        self.push(Op::EncodeScalar { value, pt_scale }, ty)
    }

    /// Mirror of `ckks::encode_real` over an element-domain vector
    /// broadcast to every lane of the consuming ciphertext's layout
    /// (see [`Op::EncodeVec`]).
    pub fn encode_vec(&mut self, values: Vec<f64>, pt_scale: f64, level: usize) -> NodeId {
        let ty = ValueTy::Plain(PlainType {
            level: level.min(self.params.depth()),
            pt_scale,
        });
        self.push(
            Op::EncodeVec {
                values: std::sync::Arc::new(values),
                pt_scale,
            },
            ty,
        )
    }

    // -----------------------------------------------------------------
    // Arithmetic (types saturate; passes diagnose mismatches)
    // -----------------------------------------------------------------

    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (ta, tb) = (self.ct_ty(a), self.ct_ty(b));
        let ty = ValueTy::Ct(CtType {
            level: ta.level.min(tb.level),
            ..ta
        });
        self.push(Op::Add { a, b }, ty)
    }

    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (ta, tb) = (self.ct_ty(a), self.ct_ty(b));
        let ty = ValueTy::Ct(CtType {
            level: ta.level.min(tb.level),
            ..ta
        });
        self.push(Op::Sub { a, b }, ty)
    }

    pub fn negate(&mut self, src: NodeId) -> NodeId {
        let ty = ValueTy::Ct(self.ct_ty(src));
        self.push(Op::Negate { src }, ty)
    }

    /// Mirror of `Evaluator::add_scalar` (scale preserved).
    pub fn add_scalar(&mut self, src: NodeId, value: f64) -> NodeId {
        let ty = ValueTy::Ct(self.ct_ty(src));
        self.push(Op::AddScalar { src, value }, ty)
    }

    /// Mirror of `Evaluator::mul_scalar`: result scale is the product
    /// `src.scale · pt_scale`.
    pub fn mul_plain(&mut self, src: NodeId, plain: NodeId) -> NodeId {
        let ts = self.ct_ty(src);
        let pt = *self.nodes[plain]
            .ty
            .as_plain()
            .expect("mul_plain weight must be an encode node");
        let ty = ValueTy::Ct(CtType {
            scale: ts.scale * pt.pt_scale,
            ..ts
        });
        self.push(Op::MulPlain { src, plain }, ty)
    }

    /// Mirror of `Evaluator::add_plain` (scale preserved — the
    /// plaintext must be encoded at the ciphertext's scale).
    pub fn add_plain(&mut self, src: NodeId, plain: NodeId) -> NodeId {
        let ty = ValueTy::Ct(self.ct_ty(src));
        self.push(Op::AddPlain { src, plain }, ty)
    }

    /// `acc + src·plain` over a scalar or vector weight
    /// (`Evaluator::mul_residues_acc` / `try_mul_plain_acc`), keeping the
    /// accumulator's type.
    pub fn mac_plain(&mut self, acc: NodeId, src: NodeId, plain: NodeId) -> NodeId {
        let ty = ValueTy::Ct(self.ct_ty(acc));
        self.push(Op::MacPlain { acc, src, plain }, ty)
    }

    /// Mirror of `Evaluator::multiply` (relinearized; scale is the
    /// product of the operand scales).
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (ta, tb) = (self.ct_ty(a), self.ct_ty(b));
        let ty = ValueTy::Ct(CtType {
            level: ta.level.min(tb.level),
            scale: ta.scale * tb.scale,
            ..ta
        });
        self.push(Op::Mul { a, b }, ty)
    }

    /// Mirror of `Evaluator::square` (relinearized).
    pub fn square(&mut self, src: NodeId) -> NodeId {
        let ts = self.ct_ty(src);
        let ty = ValueTy::Ct(CtType {
            scale: ts.scale * ts.scale,
            ..ts
        });
        self.push(Op::Square { src }, ty)
    }

    /// Mirror of `Evaluator::rescale`: divides the scale by the dropped
    /// modulus value and drops one level. At level 0 (where the eager
    /// evaluator panics) the declared type saturates unchanged and the
    /// level/scale pass reports the exhaustion.
    pub fn rescale(&mut self, src: NodeId) -> NodeId {
        let ts = self.ct_ty(src);
        let ty = if ts.level >= 1 {
            ValueTy::Ct(CtType {
                level: ts.level - 1,
                scale: ts.scale / self.moduli[ts.level],
                ..ts
            })
        } else {
            ValueTy::Ct(ts)
        };
        self.push(Op::Rescale { src }, ty)
    }

    /// Mirror of `Evaluator::mod_switch_to_level` (scale preserved;
    /// switching *up* saturates at the current level).
    pub fn mod_switch(&mut self, src: NodeId, level: usize) -> NodeId {
        let ts = self.ct_ty(src);
        let ty = ValueTy::Ct(CtType {
            level: level.min(ts.level),
            ..ts
        });
        self.push(Op::ModSwitch { src, level }, ty)
    }

    /// Mirror of `Evaluator::rotate` (type preserved).
    pub fn rotate(&mut self, src: NodeId, steps: i64) -> NodeId {
        let ty = ValueTy::Ct(self.ct_ty(src));
        self.push(Op::Rotate { src, steps }, ty)
    }

    /// Mirror of `Evaluator::rotate_ext`: the rotation before its
    /// mod-down, over the key-switch basis (`steps ≡ 0` is the exact
    /// lift `P·src`).
    pub fn rotate_ext(&mut self, src: NodeId, steps: i64) -> NodeId {
        let ty = ValueTy::Ct(CtType {
            basis: Basis::KeySwitch,
            ..self.ct_ty(src)
        });
        self.push(Op::RotateExt { src, steps }, ty)
    }

    /// Mirror of `Evaluator::mod_down`: back onto the chain, scale
    /// and level preserved.
    pub fn mod_down(&mut self, src: NodeId) -> NodeId {
        let ty = ValueTy::Ct(CtType {
            basis: Basis::Chain,
            ..self.ct_ty(src)
        });
        self.push(Op::ModDown { src }, ty)
    }

    // -----------------------------------------------------------------
    // Structure
    // -----------------------------------------------------------------

    /// Starts a new named region (closing the previous one). Nodes
    /// created from now on belong to it. Empty regions are legal — a
    /// plan op with no ciphertext effect still gets its trajectory row.
    pub fn begin_region(&mut self, name: impl Into<String>) {
        self.close_region();
        self.open_region = Some((name.into(), self.nodes.len()));
    }

    fn close_region(&mut self) {
        if let Some((name, first)) = self.open_region.take() {
            self.regions.push(Region {
                name,
                first,
                len: self.nodes.len() - first,
            });
        }
    }

    /// Marks a node as a circuit output.
    pub fn output(&mut self, id: NodeId) {
        self.outputs.push(id);
    }

    /// Finalizes the circuit with the declared key inventory.
    pub fn finish(mut self, keys: KeyInventory) -> Circuit {
        self.close_region();
        Circuit {
            params: self.params,
            moduli: self.moduli,
            nodes: self.nodes,
            outputs: self.outputs,
            keys,
            regions: self.regions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_arithmetic_mirrors_evaluator_rules() {
        let params = CkksParams::tiny(3);
        let s = params.scale();
        let mut b = GraphBuilder::new(params);
        let top = b.params().depth();
        let x = b.input("x", top, Layout::BatchSlots);
        assert_eq!(b.ct_ty(x).scale, s);

        // linear layer discipline: weights at q_m, one rescale → Δ back
        let q_m = b.q_at(top);
        let w = b.encode_scalar(0.5, q_m, top);
        let z = b.zero(s * q_m, top);
        let acc = b.mac_plain(z, x, w);
        assert_eq!(b.ct_ty(acc).scale, s * q_m);
        let y = b.rescale(acc);
        assert_eq!(b.ct_ty(y).level, top - 1);
        assert_eq!(b.ct_ty(y).scale, s * q_m / q_m);

        // square doubles the scale bits, rescale brings one q back
        let sq = b.square(y);
        assert_eq!(b.ct_ty(sq).scale, b.ct_ty(y).scale * b.ct_ty(y).scale);
        let sqr = b.rescale(sq);
        assert_eq!(b.ct_ty(sqr).level, top - 2);
    }

    #[test]
    fn rescale_at_level_zero_saturates() {
        let mut b = GraphBuilder::new(CkksParams::tiny(1));
        let x = b.input("x", 0, Layout::BatchSlots);
        let r = b.rescale(x);
        assert_eq!(b.ct_ty(r).level, 0);
        assert_eq!(b.ct_ty(r).scale, b.ct_ty(x).scale);
    }

    #[test]
    fn regions_cover_contiguous_spans_and_may_be_empty() {
        let mut b = GraphBuilder::new(CkksParams::tiny(2));
        b.begin_region("first");
        let x = b.input("x", 2, Layout::BatchSlots);
        let y = b.negate(x);
        b.begin_region("empty");
        b.begin_region("last");
        let z = b.add(x, y);
        b.output(z);
        let c = b.finish(KeyInventory::relin_only());
        assert_eq!(c.regions.len(), 3);
        assert_eq!(c.regions[0].len, 2);
        assert_eq!(c.regions[1].len, 0);
        assert_eq!(c.regions[2].len, 1);
        assert_eq!(c.regions[2].name, "last");
        assert!(c.regions[2].nodes().contains(&z));
    }

    #[test]
    fn mod_switch_saturates_upward() {
        let mut b = GraphBuilder::new(CkksParams::tiny(3));
        let x = b.input("x", 1, Layout::BatchSlots);
        let up = b.mod_switch(x, 3);
        assert_eq!(b.ct_ty(up).level, 1);
        let down = b.mod_switch(x, 0);
        assert_eq!(b.ct_ty(down).level, 0);
    }
}
