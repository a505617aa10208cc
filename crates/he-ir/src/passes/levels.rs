//! Pass 1: level/scale/noise abstract interpretation.
//!
//! A single forward sweep re-derives, independently of the types the
//! builder declared, the (level, scale, message-magnitude, noise)
//! state of every ciphertext node:
//!
//! - **level** is tracked as `i64` and goes *negative* past the bottom
//!   of the chain (the eager evaluator would panic there), so circuit
//!   depth overruns are reported as `chain-exhausted` instead of
//!   crashing the analysis;
//! - **scale** follows the evaluator's exact arithmetic (products on
//!   mults, division by the dropped modulus value on rescale) and is
//!   cross-checked against the declared node type under the
//!   evaluator's `SCALE_RTOL` discipline;
//! - **noise** composes the [`NoiseModel`] value-domain bounds, with
//!   message magnitudes tracked as absolute-value bounds from
//!   unit-magnitude inputs (`|input| ≤ 1`), the same worst-case
//!   convention he-diff's oracle uses.
//!
//! It is the one level/scale analysis in the workspace: scalar
//! admission (`cnn_he::analyze::admission`), packed admission and the
//! `he-ir check` CLI all run it over the circuit that executes.

use crate::circuit::{Circuit, NodeId, Op};
use crate::diag::{Diagnostic, LintReport};
use crate::noise::NoiseModel;
use crate::pass::{Pass, PassOutput};
use ckks::SCALE_RTOL;

/// Headroom (bits between `log q_ℓ` and `log scale`) below which we warn.
pub const HEADROOM_WARN_BITS: f64 = 6.0;
/// Relative noise bound (worst output) above which we warn.
pub const NOISE_WARN_RATIO: f64 = 1.0 / 16.0;

/// Abstract state of one ciphertext node.
#[derive(Debug, Clone, Copy)]
pub struct NodeState {
    /// Level; negative once the chain is exhausted.
    pub level: i64,
    /// Exact abstract scale.
    pub scale: f64,
    /// Worst-case message magnitude bound (inputs assumed ≤ 1).
    pub mag: f64,
    /// Composed per-slot noise bound at the current scale.
    pub err: f64,
}

impl NodeState {
    pub fn log_scale(&self) -> f64 {
        self.scale.log2()
    }
}

/// Result of the abstract interpretation: one state per ciphertext
/// node (`None` for encode nodes) plus the diagnostics.
#[derive(Debug, Clone)]
pub struct LevelAnalysis {
    pub states: Vec<Option<NodeState>>,
    pub report: LintReport,
}

impl LevelAnalysis {
    pub fn state(&self, id: NodeId) -> Option<&NodeState> {
        self.states.get(id).and_then(Option::as_ref)
    }
}

struct Interp<'c> {
    c: &'c Circuit,
    noise: NoiseModel,
    states: Vec<Option<NodeState>>,
    report: LintReport,
    /// Index of the `chain-exhausted` diagnostic once reported; its fix
    /// is filled in after the sweep, when the lowest level is known.
    exhaustion: Option<usize>,
}

impl Interp<'_> {
    fn st(&self, id: NodeId) -> NodeState {
        self.states[id].expect("operand kind was validated")
    }

    /// `(worst-case |value|, pt_scale)` of an encode node — the scalar's
    /// absolute value, or the max absolute entry of a vector encode.
    fn weight(&self, id: NodeId) -> (f64, f64) {
        match &self.c.nodes[id].op {
            Op::EncodeScalar { value, pt_scale } => (value.abs(), *pt_scale),
            Op::EncodeVec { values, pt_scale } => {
                (values.iter().fold(0.0f64, |m, v| m.max(v.abs())), *pt_scale)
            }
            other => unreachable!("plain operand is {}", other.mnemonic()),
        }
    }

    fn check_add_compat(&mut self, id: NodeId, sa: f64, sb: f64) {
        if (sa / sb - 1.0).abs() >= SCALE_RTOL {
            self.report.push(
                Diagnostic::error(
                    "scale-mismatch",
                    Some(id),
                    format!(
                        "operand scales 2^{:.4} and 2^{:.4} differ beyond SCALE_RTOL; \
                         the evaluator will panic here",
                        sa.log2(),
                        sb.log2()
                    ),
                )
                .with_suggestion("rescale or re-encode one operand so the scales agree"),
            );
        }
    }

    fn exhausted(&mut self, id: NodeId, what: &str) {
        if self.exhaustion.is_some() {
            return;
        }
        self.exhaustion = Some(self.report.diagnostics.len());
        self.report.push(Diagnostic::error(
            "chain-exhausted",
            Some(id),
            format!(
                "modulus chain exhausted: {what} but the ciphertext is already \
                 at the bottom of the chain (depth {})",
                self.c.params.depth()
            ),
        ));
    }

    fn eval(&mut self, id: NodeId) -> Option<NodeState> {
        let node = &self.c.nodes[id];
        let ty = node.ty;
        let state = match &node.op {
            Op::EncodeScalar { .. } | Op::EncodeVec { .. } => return None,
            Op::Input { .. } => {
                let t = ty.as_ct().expect("validated");
                NodeState {
                    level: t.level as i64,
                    scale: t.scale,
                    mag: 1.0,
                    err: self.noise.fresh_value(t.scale),
                }
            }
            Op::Zero => {
                let t = ty.as_ct().expect("validated");
                NodeState {
                    level: t.level as i64,
                    scale: t.scale,
                    mag: 0.0,
                    err: 0.0,
                }
            }
            Op::Add { a, b } | Op::Sub { a, b } => {
                let (sa, sb) = (self.st(*a), self.st(*b));
                self.check_add_compat(id, sa.scale, sb.scale);
                NodeState {
                    level: sa.level.min(sb.level),
                    scale: sa.scale,
                    mag: sa.mag + sb.mag,
                    err: self.noise.add_value(sa.err, sb.err),
                }
            }
            Op::Negate { src } => self.st(*src),
            Op::AddScalar { src, value } => {
                let s = self.st(*src);
                NodeState {
                    mag: s.mag + value.abs(),
                    // constant encoded at the ciphertext scale: ½ ulp rounding
                    err: s.err + 0.5 / s.scale,
                    ..s
                }
            }
            Op::MulPlain { src, plain } => {
                let s = self.st(*src);
                let (w, pt) = self.weight(*plain);
                NodeState {
                    scale: s.scale * pt,
                    mag: s.mag * w.abs(),
                    err: self.noise.mul_plain_value(s.mag, s.err, w, pt),
                    ..s
                }
            }
            Op::AddPlain { src, plain } => {
                let s = self.st(*src);
                let (w, pt) = self.weight(*plain);
                // the evaluator asserts ct.scale == pt_scale on add_plain
                self.check_add_compat(id, s.scale, pt);
                NodeState {
                    mag: s.mag + w,
                    // encoded constant at the ciphertext scale: ½ ulp rounding
                    err: s.err + 0.5 / s.scale,
                    ..s
                }
            }
            Op::MacPlain { acc, src, plain } => {
                let (sa, ss) = (self.st(*acc), self.st(*src));
                let (w, pt) = self.weight(*plain);
                // the evaluator asserts acc.scale == src.scale·pt_scale
                self.check_add_compat(id, sa.scale, ss.scale * pt);
                NodeState {
                    level: sa.level.min(ss.level),
                    scale: sa.scale,
                    mag: sa.mag + ss.mag * w.abs(),
                    err: sa.err + self.noise.mul_plain_value(ss.mag, ss.err, w, pt),
                }
            }
            Op::Mul { a, b } => {
                let (sa, sb) = (self.st(*a), self.st(*b));
                let scale = sa.scale * sb.scale;
                NodeState {
                    level: sa.level.min(sb.level),
                    scale,
                    mag: sa.mag * sb.mag,
                    err: self.noise.mul_value(sa.mag, sa.err, sb.mag, sb.err, scale),
                }
            }
            Op::Square { src } => {
                let s = self.st(*src);
                let scale = s.scale * s.scale;
                NodeState {
                    scale,
                    mag: s.mag * s.mag,
                    err: self.noise.mul_value(s.mag, s.err, s.mag, s.err, scale),
                    ..s
                }
            }
            Op::Rescale { src } => {
                let s = self.st(*src);
                let mut out = s;
                out.level = s.level - 1;
                if s.level >= 1 && (s.level as usize) < self.c.moduli.len() {
                    out.scale = s.scale / self.c.moduli[s.level as usize];
                    out.err = self.noise.rescale_value(s.err, out.scale);
                } else {
                    self.exhausted(id, "a rescale needs 1 level");
                }
                out
            }
            Op::ModSwitch { src, level } => {
                let s = self.st(*src);
                let target = *level as i64;
                if target > s.level {
                    self.report.push(Diagnostic::error(
                        "mod-switch-up",
                        Some(id),
                        format!(
                            "mod-switch to level {target} but the ciphertext is at \
                             level {}; limbs cannot be re-grown",
                            s.level
                        ),
                    ));
                }
                NodeState {
                    level: target.min(s.level),
                    ..s
                }
            }
            Op::Rotate { src, steps } => {
                let s = self.st(*src);
                let slots = self.c.params.slots() as i64;
                if steps.rem_euclid(slots) == 0 {
                    s // identity: no keyswitch
                } else {
                    NodeState {
                        err: self.noise.rotate_value(s.err, s.scale),
                        ..s
                    }
                }
            }
            Op::RotateExt { src, steps } => {
                let s = self.st(*src);
                let slots = self.c.params.slots() as i64;
                if steps.rem_euclid(slots) == 0 {
                    s // the exact lift P·src
                } else {
                    NodeState {
                        err: self.noise.rotate_ext_value(s.err, s.scale),
                        ..s
                    }
                }
            }
            Op::ModDown { src } => {
                let s = self.st(*src);
                NodeState {
                    err: self.noise.mod_down_value(s.err, s.scale),
                    ..s
                }
            }
        };

        // cross-check against the declared type (catches hand-built
        // circuits whose types drifted from the op semantics)
        if let Some(decl) = ty.as_ct() {
            if state.level >= 0 && state.level == decl.level as i64 {
                let rel = (state.scale / decl.scale - 1.0).abs();
                if rel >= SCALE_RTOL {
                    self.report.push(Diagnostic::error(
                        "type-mismatch",
                        Some(id),
                        format!(
                            "declared scale 2^{:.4} but the op semantics give 2^{:.4}",
                            decl.scale.log2(),
                            state.scale.log2()
                        ),
                    ));
                }
            }
        }
        Some(state)
    }
}

/// Runs the abstract interpretation over the whole circuit.
pub fn infer(c: &Circuit) -> LevelAnalysis {
    let mut interp = Interp {
        c,
        noise: NoiseModel::new(&c.params),
        states: Vec::with_capacity(c.nodes.len()),
        report: LintReport::default(),
        exhaustion: None,
    };
    for id in 0..c.nodes.len() {
        let st = interp.eval(id);
        interp.states.push(st);
    }

    // levels keep falling below 0 past the exhaustion, so the lowest
    // one reached is the shortfall
    if let Some(i) = interp.exhaustion {
        let lowest = interp.states.iter().flatten().map(|s| s.level).min();
        interp.report.diagnostics[i].suggestion = Some(format!(
            "extend chain_bits with {} more ≈{}-bit prime(s)",
            -lowest.unwrap_or(-1),
            c.params.scale_bits
        ));
    }

    // headroom: worst point of the whole circuit
    let mut worst: Option<(NodeId, f64)> = None;
    for (id, st) in interp.states.iter().enumerate() {
        let Some(st) = st else { continue };
        if st.level < 0 {
            continue;
        }
        let headroom = c.params.log_q_at_level(st.level as usize) - st.log_scale() - 1.0;
        if worst.is_none_or(|(_, h)| headroom < h) {
            worst = Some((id, headroom));
        }
    }
    if let Some((id, headroom)) = worst {
        if headroom <= 0.0 {
            interp.report.push(
                Diagnostic::error(
                    "low-headroom",
                    Some(id),
                    format!(
                        "no noise headroom at node {id}: log q = {:.0} bits but the \
                         scale is 2^{:.2}",
                        interp.states[id].map_or(0.0, |s| {
                            c.params.log_q_at_level(s.level.max(0) as usize)
                        }),
                        interp.states[id].map_or(0.0, |s| s.log_scale())
                    ),
                )
                .with_suggestion("widen q_0 or reduce the scale"),
            );
        } else if headroom < HEADROOM_WARN_BITS {
            interp.report.push(Diagnostic::warn(
                "low-headroom",
                Some(id),
                format!("only {headroom:.1} bits of headroom at node {id}"),
            ));
        }
    }

    // noise: worst relative error bound among the outputs
    let mut worst_rel = 0.0f64;
    for &o in &c.outputs {
        if let Some(st) = interp.states[o] {
            let rel = st.err / st.mag.max(1e-9);
            worst_rel = worst_rel.max(rel);
        }
    }
    if worst_rel >= 1.0 {
        interp.report.push(
            Diagnostic::error(
                "noise-budget",
                None,
                format!(
                    "composed noise bound reaches the message magnitude \
                     (relative bound {worst_rel:.2}); decryption is garbage"
                ),
            )
            .with_suggestion("raise the scale or shorten the circuit"),
        );
    } else if worst_rel > NOISE_WARN_RATIO {
        interp.report.push(Diagnostic::warn(
            "noise-budget",
            None,
            format!(
                "worst output relative noise bound is 2^{:.1}",
                worst_rel.log2()
            ),
        ));
    }

    let summary = summarize(c, &interp.states, worst, worst_rel);
    if !interp.report.has_errors() {
        interp
            .report
            .push(Diagnostic::info("summary", None, summary));
    }

    LevelAnalysis {
        states: interp.states,
        report: interp.report,
    }
}

fn summarize(
    c: &Circuit,
    states: &[Option<NodeState>],
    worst: Option<(NodeId, f64)>,
    worst_rel: f64,
) -> String {
    let exit = c.outputs.first().and_then(|&o| states[o]).map_or_else(
        || "no outputs".to_string(),
        |s| format!("outputs at L{}, scale 2^{:.2}", s.level, s.log_scale()),
    );
    let headroom = worst.map_or_else(String::new, |(_, h)| format!(", min headroom {h:.1} bits"));
    let noise = if worst_rel > 0.0 {
        format!(", worst rel noise 2^{:.1}", worst_rel.log2())
    } else {
        String::new()
    };
    format!("{exit}{headroom}{noise}")
}

/// The [`Pass`] wrapper over [`infer`].
pub struct LevelsPass;

impl Pass for LevelsPass {
    fn name(&self) -> &'static str {
        "levels"
    }

    fn description(&self) -> &'static str {
        "level/scale/noise abstract interpretation (type check, chain exhaustion, headroom, noise budget)"
    }

    fn run(&self, circuit: &Circuit) -> PassOutput {
        let analysis = infer(circuit);
        let summary = summarize_from(&analysis, circuit);
        PassOutput {
            report: analysis.report,
            summary,
        }
    }
}

fn summarize_from(analysis: &LevelAnalysis, c: &Circuit) -> String {
    c.outputs
        .first()
        .and_then(|&o| analysis.states[o])
        .map_or_else(
            || "no outputs".to_string(),
            |s| {
                format!(
                    "outputs at L{}, scale 2^{:.2}, noise bound 2^{:.1}",
                    s.level,
                    s.log_scale(),
                    s.err.max(f64::MIN_POSITIVE).log2()
                )
            },
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::GraphBuilder;
    use crate::circuit::KeyInventory;
    use crate::types::Layout;
    use ckks::CkksParams;

    /// conv→slaf→dense-like chain at nominal scales.
    fn linear_then_square(depth: usize) -> Circuit {
        let params = CkksParams::tiny(depth);
        let s = params.scale();
        let mut b = GraphBuilder::new(params);
        let top = b.params().depth();
        let x = b.input("x", top, Layout::BatchSlots);
        // linear: weights at q_m, one rescale
        let q = b.q_at(top);
        let w = b.encode_scalar(0.5, q, top);
        let z = b.zero(s * q, top);
        let acc = b.mac_plain(z, x, w);
        let lin = b.rescale(acc);
        // square + rescale
        let sq = b.square(lin);
        let y = b.rescale(sq);
        b.output(y);
        b.finish(KeyInventory::relin_only())
    }

    #[test]
    fn clean_chain_tracks_levels_and_scales() {
        let c = linear_then_square(3);
        let a = infer(&c);
        assert!(!a.report.has_errors(), "{}", a.report.render());
        let out = a.state(*c.outputs.first().unwrap()).unwrap();
        assert_eq!(out.level, 1);
        // Δ²/q back to ≈Δ at nominal powers of two
        assert_eq!(out.log_scale(), 26.0);
        assert!(out.err > 0.0 && out.err < 1.0);
        assert!(a.report.has_code("summary"));
    }

    #[test]
    fn exhausted_chain_is_flagged_once_and_level_goes_negative() {
        let c = linear_then_square(1); // needs 2 levels, has 1
        let a = infer(&c);
        assert!(a.report.has_errors());
        assert!(a.report.has_code("chain-exhausted"));
        assert_eq!(
            a.report
                .diagnostics
                .iter()
                .filter(|d| d.code == "chain-exhausted")
                .count(),
            1
        );
        let out = a.state(*c.outputs.first().unwrap()).unwrap();
        assert_eq!(out.level, -1);
        // the fix names the shortfall: −(lowest level reached)
        let text = a.report.render();
        assert!(text.contains("extend chain_bits with 1 more"), "{text}");
    }

    #[test]
    fn mismatched_add_scales_error() {
        let params = CkksParams::tiny(2);
        let s = params.scale();
        let mut b = GraphBuilder::new(params);
        let x = b.input("x", 2, Layout::BatchSlots);
        let z = b.zero(s * 4.0, 2); // 2 bits off
        let bad = b.add(x, z);
        b.output(bad);
        let c = b.finish(KeyInventory::relin_only());
        let a = infer(&c);
        assert!(a.report.has_code("scale-mismatch"), "{}", a.report.render());
        assert!(a.report.has_errors());
    }

    #[test]
    fn declared_type_drift_is_reported() {
        let mut c = linear_then_square(3);
        let out = *c.outputs.first().unwrap();
        if let crate::types::ValueTy::Ct(t) = &mut c.nodes[out].ty {
            t.scale *= 3.0;
        }
        let a = infer(&c);
        assert!(a.report.has_code("type-mismatch"), "{}", a.report.render());
    }

    #[test]
    fn shallow_bottom_prime_collapses_headroom() {
        // q_0 of 26 bits with Δ=2^26: zero headroom at level 0
        let params = CkksParams {
            chain_bits: vec![26, 26, 26, 26],
            ..CkksParams::tiny(3)
        };
        let s = params.scale();
        let mut b = GraphBuilder::new(params);
        let top = b.params().depth();
        let x = b.input("x", top, Layout::BatchSlots);
        let q = b.q_at(top);
        let w = b.encode_scalar(0.5, q, top);
        let z = b.zero(s * q, top);
        let acc = b.mac_plain(z, x, w);
        let mut y = b.rescale(acc);
        for _ in 0..2 {
            let q = b.q_at(b.ct_ty(y).level);
            let w = b.encode_scalar(0.5, q, b.ct_ty(y).level);
            let z = b.zero(s * q, b.ct_ty(y).level);
            let acc = b.mac_plain(z, y, w);
            y = b.rescale(acc);
        }
        b.output(y);
        let c = b.finish(KeyInventory::relin_only());
        let a = infer(&c);
        assert!(a.report.has_code("low-headroom"), "{}", a.report.render());
        assert!(a.report.has_errors());
    }

    #[test]
    fn mod_switch_up_is_an_error() {
        let mut b = GraphBuilder::new(CkksParams::tiny(3));
        let x = b.input("x", 1, Layout::BatchSlots);
        let up = b.mod_switch(x, 3);
        b.output(up);
        let c = b.finish(KeyInventory::relin_only());
        let a = infer(&c);
        assert!(a.report.has_code("mod-switch-up"));
    }
}
