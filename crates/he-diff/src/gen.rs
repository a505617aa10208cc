//! Seeded op-sequence generator.
//!
//! Sequences are fully determined by `(params, seed, count)`: the op
//! stream, operand choices, and every encrypted value derive from
//! independent substreams of the seed
//! ([`Sampler::from_seed_stream`]), so a failure report's seed replays
//! the exact sequence anywhere. Encrypt/codec ops carry their own
//! `value_seed`, which keeps an op's payload stable when the minimizer
//! deletes ops around it.

use crate::sim::{SimState, NUM_REGS};
use ckks::params::CkksContext;
use ckks_math::sampler::Sampler;
use rand::Rng;
use std::sync::Arc;

/// One differential-oracle operation over the register file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffOp {
    /// Encrypt a fresh register; slot values derive from `value_seed`.
    Encrypt {
        dst: usize,
        value_seed: u64,
    },
    Add {
        dst: usize,
        a: usize,
        b: usize,
    },
    Sub {
        dst: usize,
        a: usize,
        b: usize,
    },
    Negate {
        dst: usize,
        src: usize,
    },
    /// Tensor product + relinearization (no rescale).
    MulRelin {
        dst: usize,
        a: usize,
        b: usize,
    },
    Rescale {
        dst: usize,
        src: usize,
    },
    Rotate {
        dst: usize,
        src: usize,
        steps: i64,
    },
    /// `Σ_t rot(src, steps[t]) ⊙ w_t` over the key-switch basis, divided
    /// by `P` once: each keyed step an extended rotation of one hoisted
    /// `src`, each times a plaintext of slot values from `value_seed`
    /// ([`rot_sum_weights`]) at scale Δ, summed, then one `mod_down`.
    RotSum {
        dst: usize,
        src: usize,
        steps: Vec<i64>,
        value_seed: u64,
    },
    /// Plain-integer CRT codec split→recompose over `streams` moduli,
    /// checked bit-exact (residue and digit forms).
    CrtRoundTrip {
        streams: usize,
        max_abs: i64,
        value_seed: u64,
    },
}

impl DiffOp {
    /// Destination register, if the op writes one.
    pub fn dst(&self) -> Option<usize> {
        match *self {
            DiffOp::Encrypt { dst, .. }
            | DiffOp::Add { dst, .. }
            | DiffOp::Sub { dst, .. }
            | DiffOp::Negate { dst, .. }
            | DiffOp::MulRelin { dst, .. }
            | DiffOp::Rescale { dst, .. }
            | DiffOp::Rotate { dst, .. }
            | DiffOp::RotSum { dst, .. } => Some(dst),
            DiffOp::CrtRoundTrip { .. } => None,
        }
    }

    /// Registers the op reads.
    pub fn srcs(&self) -> Vec<usize> {
        match *self {
            DiffOp::Encrypt { .. } | DiffOp::CrtRoundTrip { .. } => vec![],
            DiffOp::Add { a, b, .. } | DiffOp::Sub { a, b, .. } | DiffOp::MulRelin { a, b, .. } => {
                vec![a, b]
            }
            DiffOp::Negate { src, .. }
            | DiffOp::Rescale { src, .. }
            | DiffOp::Rotate { src, .. }
            | DiffOp::RotSum { src, .. } => {
                vec![src]
            }
        }
    }

    /// Compact single-line rendering (`add r2 <- r0, r1`).
    pub fn render(&self) -> String {
        match *self {
            DiffOp::RotSum {
                dst,
                src,
                ref steps,
                value_seed,
            } => format!("rotsum({steps:?}) r{dst} <- r{src}, seed {value_seed:#x}"),
            DiffOp::Encrypt { dst, value_seed } => format!("enc r{dst} <- seed {value_seed:#x}"),
            DiffOp::Add { dst, a, b } => format!("add r{dst} <- r{a}, r{b}"),
            DiffOp::Sub { dst, a, b } => format!("sub r{dst} <- r{a}, r{b}"),
            DiffOp::Negate { dst, src } => format!("neg r{dst} <- r{src}"),
            DiffOp::MulRelin { dst, a, b } => format!("mul r{dst} <- r{a}, r{b}"),
            DiffOp::Rescale { dst, src } => format!("rescale r{dst} <- r{src}"),
            DiffOp::Rotate { dst, src, steps } => format!("rot({steps}) r{dst} <- r{src}"),
            DiffOp::CrtRoundTrip {
                streams,
                max_abs,
                value_seed,
            } => format!("crt k={streams} max={max_abs} seed {value_seed:#x}"),
        }
    }
}

/// The plaintext weights of a [`DiffOp::RotSum`]: one vector of `slots`
/// values in `[-1, 1)` per term, from the op's `value_seed`.
pub fn rot_sum_weights(value_seed: u64, terms: usize, slots: usize) -> Vec<Vec<f64>> {
    let mut vs = Sampler::from_seed_stream(value_seed, 2);
    (0..terms)
        .map(|_| (0..slots).map(|_| vs.rng().gen_range(-1.0..1.0)).collect())
        .collect()
}

/// Generates a feasible `count`-op sequence for the context, seeded.
///
/// The first ops always encrypt three registers so every kind has
/// operands; thereafter kinds are drawn by weight and infeasible draws
/// are retried (the sim guarantees the evaluator accepts the result).
pub fn generate(ctx: &Arc<CkksContext>, seed: u64, count: usize) -> Vec<DiffOp> {
    let mut chooser = Sampler::from_seed_stream(seed, 0xD1FF);
    // payload seeds are drawn once at generation time and stored inline
    // in the op, so deleting neighbours during minimization never shifts
    // a surviving op's values
    let next_value_seed = |chooser: &mut Sampler| chooser.rng().gen::<u64>();

    let mut sim = SimState::new(Arc::clone(ctx));
    let mut ops = Vec::with_capacity(count);
    for dst in 0..3.min(count) {
        let op = DiffOp::Encrypt {
            dst,
            value_seed: next_value_seed(&mut chooser),
        };
        sim.apply(&op);
        ops.push(op);
    }

    while ops.len() < count {
        let r = chooser.rng().gen_range(0..14u32);
        let dst = chooser.rng().gen_range(0..NUM_REGS);
        let pick = |c: &mut Sampler| c.rng().gen_range(0..NUM_REGS);
        let candidate = match r {
            0 => DiffOp::Encrypt {
                dst,
                value_seed: next_value_seed(&mut chooser),
            },
            1 | 2 => DiffOp::Add {
                dst,
                a: pick(&mut chooser),
                b: pick(&mut chooser),
            },
            3 | 4 => DiffOp::Sub {
                dst,
                a: pick(&mut chooser),
                b: pick(&mut chooser),
            },
            5 => DiffOp::Negate {
                dst,
                src: pick(&mut chooser),
            },
            6 | 7 => DiffOp::MulRelin {
                dst,
                a: pick(&mut chooser),
                b: pick(&mut chooser),
            },
            8 | 9 => DiffOp::Rescale {
                dst,
                src: pick(&mut chooser),
            },
            10 | 11 => DiffOp::Rotate {
                dst,
                src: pick(&mut chooser),
                steps: crate::ROTATE_STEPS[chooser.rng().gen_range(0..crate::ROTATE_STEPS.len())],
            },
            12 => {
                let keyed = &crate::ROTATE_STEPS;
                let terms = chooser.rng().gen_range(1..=4usize);
                DiffOp::RotSum {
                    dst,
                    src: pick(&mut chooser),
                    steps: (0..terms)
                        .map(|_| keyed[chooser.rng().gen_range(0..keyed.len())])
                        .collect(),
                    value_seed: next_value_seed(&mut chooser),
                }
            }
            _ => DiffOp::CrtRoundTrip {
                streams: chooser.rng().gen_range(1..=6usize),
                max_abs: [255i64, 1 << 15, 1 << 30][chooser.rng().gen_range(0..3usize)],
                value_seed: next_value_seed(&mut chooser),
            },
        };
        if sim.apply(&candidate) {
            ops.push(candidate);
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::validate_sequence;

    #[test]
    fn generated_sequences_are_deterministic_and_valid() {
        let ctx = crate::preset("micro2").unwrap().params.build();
        let a = generate(&ctx, 7, 60);
        let b = generate(&ctx, 7, 60);
        assert_eq!(a, b, "same seed must reproduce the sequence");
        assert_eq!(a.len(), 60);
        assert!(validate_sequence(&ctx, &a));
        let c = generate(&ctx, 8, 60);
        assert_ne!(a, c, "different seed should differ");
    }

    #[test]
    fn generator_covers_every_op_kind() {
        let ctx = crate::preset("micro3").unwrap().params.build();
        let ops = generate(&ctx, 1, 300);
        let kind = |op: &DiffOp| match op {
            DiffOp::Encrypt { .. } => 0usize,
            DiffOp::Add { .. } => 1,
            DiffOp::Sub { .. } => 2,
            DiffOp::Negate { .. } => 3,
            DiffOp::MulRelin { .. } => 4,
            DiffOp::Rescale { .. } => 5,
            DiffOp::Rotate { .. } => 6,
            DiffOp::CrtRoundTrip { .. } => 7,
            DiffOp::RotSum { .. } => 8,
        };
        let mut seen = [false; 9];
        for op in &ops {
            seen[kind(op)] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "300 ops should exercise all kinds: {seen:?}"
        );
    }
}
