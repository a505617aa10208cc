//! Metadata simulation of an op sequence — the feasibility rules shared
//! by the generator (to only emit valid sequences) and the minimizer
//! (to only propose candidates the evaluator will accept).
//!
//! Tracks per-register `(level, scale, magnitude)` exactly as the two
//! execution worlds compute them; nothing here touches polynomial data.

use crate::gen::DiffOp;
use ckks::params::CkksContext;
use ckks::SCALE_RTOL;
use std::sync::Arc;

/// Number of ciphertext registers an op sequence addresses.
pub const NUM_REGS: usize = 5;

/// Message-magnitude ceiling: with the paper chain (`q_0 = 2^40`,
/// Δ = 2^26) a level-0 ciphertext holds ~13 bits of message headroom,
/// so the generator keeps |m| ≤ 8 and stays far from wraparound.
pub const MAG_CAP: f64 = 8.0;

/// Simulated register metadata.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimReg {
    pub level: usize,
    pub scale: f64,
    pub mag: f64,
}

/// Sequence-level metadata simulator.
pub struct SimState {
    ctx: Arc<CkksContext>,
    pub regs: [Option<SimReg>; NUM_REGS],
}

impl SimState {
    pub fn new(ctx: Arc<CkksContext>) -> Self {
        Self {
            ctx,
            regs: [None; NUM_REGS],
        }
    }

    fn compatible(a: &SimReg, b: &SimReg) -> bool {
        a.level == b.level && (a.scale / b.scale - 1.0).abs() < SCALE_RTOL
    }

    /// log₂(Q_ℓ) for headroom checks.
    fn log_q(&self, level: usize) -> f64 {
        self.ctx.chain_moduli()[..=level]
            .iter()
            .map(|m| (m.value() as f64).log2())
            .sum()
    }

    /// Result register of a feasible op, or `None` when the op violates
    /// a precondition (dead operand, level/scale mismatch, level
    /// exhaustion, magnitude or headroom overflow).
    pub fn result_of(&self, op: &DiffOp) -> Option<Option<SimReg>> {
        let live = |r: usize| self.regs.get(r).copied().flatten();
        match *op {
            DiffOp::Encrypt { .. } => Some(Some(SimReg {
                level: self.ctx.max_level(),
                scale: self.ctx.params().scale(),
                mag: 1.0,
            })),
            DiffOp::Add { a, b, .. } | DiffOp::Sub { a, b, .. } => {
                let (ra, rb) = (live(a)?, live(b)?);
                if !Self::compatible(&ra, &rb) {
                    return None;
                }
                let mag = ra.mag + rb.mag;
                if mag > MAG_CAP {
                    return None;
                }
                Some(Some(SimReg { mag, ..ra }))
            }
            DiffOp::Negate { src, .. } => Some(Some(live(src)?)),
            DiffOp::MulRelin { a, b, .. } => {
                let (ra, rb) = (live(a)?, live(b)?);
                if !Self::compatible(&ra, &rb) || ra.level < 1 {
                    return None;
                }
                let scale = ra.scale * rb.scale;
                let mag = (ra.mag * rb.mag).max(1e-3);
                if ra.mag * rb.mag > MAG_CAP {
                    return None;
                }
                // product must stay ≥2 bits under Q_ℓ
                if scale.log2() + mag.log2().max(0.0) + 2.0 > self.log_q(ra.level) {
                    return None;
                }
                Some(Some(SimReg {
                    level: ra.level,
                    scale,
                    mag: ra.mag * rb.mag,
                }))
            }
            DiffOp::Rescale { src, .. } => {
                let r = live(src)?;
                if r.level < 1 {
                    return None;
                }
                let q_top = self.ctx.chain_moduli()[r.level].value() as f64;
                let new_scale = r.scale / q_top;
                // don't rescale precision away: keep ≥ Δ/4
                if new_scale.log2() < f64::from(self.ctx.params().scale_bits) - 2.0 {
                    return None;
                }
                Some(Some(SimReg {
                    level: r.level - 1,
                    scale: new_scale,
                    mag: r.mag,
                }))
            }
            DiffOp::Rotate { src, steps, .. } => {
                if !crate::ROTATE_STEPS.contains(&steps) {
                    return None;
                }
                Some(Some(live(src)?))
            }
            DiffOp::RotSum { src, ref steps, .. } => {
                let r = live(src)?;
                if steps.is_empty() || !steps.iter().all(|s| crate::ROTATE_STEPS.contains(s)) {
                    return None;
                }
                // weights |w| ≤ 1 encoded at Δ: the product scale, and
                // the magnitude bound of the sum
                let scale = r.scale * self.ctx.params().scale();
                let mag = r.mag * steps.len() as f64;
                if mag > MAG_CAP {
                    return None;
                }
                // P·(sum) must stay ≥2 bits under Q_ℓ·P
                if scale.log2() + mag.log2().max(0.0) + 2.0 > self.log_q(r.level) {
                    return None;
                }
                Some(Some(SimReg { scale, mag, ..r }))
            }
            // plain-integer codec ops don't touch ciphertext registers
            DiffOp::CrtRoundTrip { .. } => Some(None),
        }
    }

    /// Applies a feasible op; returns false (state unchanged) when the
    /// op is infeasible.
    pub fn apply(&mut self, op: &DiffOp) -> bool {
        match self.result_of(op) {
            Some(Some(reg)) => {
                self.regs[op.dst().expect("register op has a dst")] = Some(reg);
                true
            }
            Some(None) => true,
            None => false,
        }
    }
}

/// True when every op in the sequence is feasible in order — the
/// evaluator will accept it without panicking.
pub fn validate_sequence(ctx: &Arc<CkksContext>, ops: &[DiffOp]) -> bool {
    let mut sim = SimState::new(Arc::clone(ctx));
    ops.iter().all(|op| sim.apply(op))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn micro_ctx() -> Arc<CkksContext> {
        crate::preset("micro2").unwrap().params.build()
    }

    #[test]
    fn encrypt_then_ops_validate() {
        let ctx = micro_ctx();
        let ops = vec![
            DiffOp::Encrypt {
                dst: 0,
                value_seed: 1,
            },
            DiffOp::Encrypt {
                dst: 1,
                value_seed: 2,
            },
            DiffOp::Add { dst: 2, a: 0, b: 1 },
            DiffOp::MulRelin { dst: 3, a: 2, b: 0 },
            DiffOp::Rescale { dst: 3, src: 3 },
            DiffOp::Rotate {
                dst: 4,
                src: 3,
                steps: 1,
            },
        ];
        assert!(validate_sequence(&ctx, &ops));
    }

    #[test]
    fn dead_register_and_mismatch_rejected() {
        let ctx = micro_ctx();
        // read of a never-written register
        assert!(!validate_sequence(
            &ctx,
            &[DiffOp::Add { dst: 0, a: 1, b: 2 }]
        ));
        // add across a scale mismatch (fresh Δ vs rescaled Δ²/q)
        let ops = vec![
            DiffOp::Encrypt {
                dst: 0,
                value_seed: 1,
            },
            DiffOp::MulRelin { dst: 1, a: 0, b: 0 },
            DiffOp::Rescale { dst: 1, src: 1 },
            DiffOp::Add { dst: 2, a: 0, b: 1 },
        ];
        assert!(!validate_sequence(&ctx, &ops));
    }

    #[test]
    fn rescale_at_level_zero_rejected() {
        let ctx = micro_ctx();
        let mut ops = vec![DiffOp::Encrypt {
            dst: 0,
            value_seed: 1,
        }];
        // micro2 has 2 levels of depth; a fresh ct at scale Δ cannot
        // rescale even once without destroying precision
        ops.push(DiffOp::Rescale { dst: 0, src: 0 });
        assert!(!validate_sequence(&ctx, &ops));
    }
}
