//! The differential oracle: dual-world execution with an analytic
//! error budget.
//!
//! Every op executes in two independent worlds sharing only the
//! parameter set and the plaintext reference:
//!
//! * **RNS world** — the production [`Evaluator`] over double-CRT
//!   polynomials with GHS hybrid key switching (keys from
//!   [`KeyGenerator`]).
//! * **Bignum world** — [`BigCkks`], textbook CKKS over multiprecision
//!   coefficients with schoolbook multiplication and `P = Q_L` relin
//!   (keys from [`BigCkks::keygen`]).
//!
//! After each register write, both worlds decrypt and are compared
//! against the exact plaintext reference. The admissible error is the
//! [`NoiseModel`] bound composed along the executed sequence ("the
//! lint noise trajectory"), times one fixed safety factor
//! ([`DiffConfig::safety`], default 64 ≈ 6 bits: the model is an
//! average-case heuristic, while genuine divergences — a wrong limb, a
//! dropped digit, a scale slip — miss by orders of magnitude). No
//! per-op epsilon is ever tuned to observations.

use crate::gen::DiffOp;
use crate::sim::NUM_REGS;
use ckks::bigckks::{BigCiphertext, BigCkks, BigGaloisKeys, BigKeys};
use ckks::params::CkksContext;
use ckks::{
    Ciphertext, Evaluator, ExtCiphertext, GaloisKeys, KeyGenerator, PublicKey, RelinKey, SecretKey,
};
use ckks_math::sampler::Sampler;
use cnn_he::rns_input::SignalDecomposition;
use he_ir::NoiseModel;
use rand::Rng;
use std::sync::Arc;

/// Oracle configuration.
#[derive(Debug, Clone, Copy)]
pub struct DiffConfig {
    /// Multiplier on the composed analytic bound. Fixed and documented,
    /// never fitted: 64 (≈6 bits) of slack over the average-case
    /// heuristic model.
    pub safety: f64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        Self { safety: 64.0 }
    }
}

/// A detected disagreement between the worlds (or with the reference).
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Index of the op whose check failed.
    pub op_index: usize,
    /// The op itself.
    pub op: DiffOp,
    /// Which comparison failed: `"rns"`, `"bigckks"`, `"cross"`, `"crt"`.
    pub world: &'static str,
    /// Measured max-abs error.
    pub measured: f64,
    /// The bound it had to stay under.
    pub bound: f64,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "op #{} ({}): {} error {:.3e} exceeds bound {:.3e}",
            self.op_index,
            self.op.render(),
            self.world,
            self.measured,
            self.bound
        )
    }
}

/// Summary of a clean run.
#[derive(Debug, Clone, Copy)]
pub struct RunReport {
    /// Ops executed.
    pub ops: usize,
    /// Decrypt-and-compare checks performed.
    pub checks: usize,
    /// Worst observed `measured / bound` over all checks (≤ 1 when the
    /// run passes; how close the model came to firing).
    pub worst_ratio: f64,
}

struct RegState {
    rns: Ciphertext,
    big: BigCiphertext,
    refv: Vec<f64>,
    /// Composed analytic per-slot error bound (value domain).
    err: f64,
}

impl RegState {
    fn mag(&self) -> f64 {
        self.refv.iter().fold(0.0f64, |m, v| m.max(v.abs()))
    }
}

/// The two key worlds plus the shared model, reusable across sequences
/// (key generation dominates short runs).
pub struct Harness {
    ctx: Arc<CkksContext>,
    model: NoiseModel,
    // RNS world
    ev: Evaluator,
    sk: SecretKey,
    pk: PublicKey,
    rk: RelinKey,
    gk: GaloisKeys,
    rns_enc: Sampler,
    // bignum world
    scheme: BigCkks,
    big_keys: BigKeys,
    big_gk: BigGaloisKeys,
    big_enc: Sampler,
}

impl Harness {
    /// Builds both worlds from independent substreams of `seed`.
    pub fn new(ctx: Arc<CkksContext>, seed: u64) -> Self {
        let model = NoiseModel::new(ctx.params());
        let mut kg = KeyGenerator::new(Arc::clone(&ctx), seed ^ 0xA11C_E5ED);
        let sk = kg.gen_secret_key();
        let pk = kg.gen_public_key(&sk);
        let rk = kg.gen_relin_key(&sk);
        let gk = kg.gen_galois_keys(&sk, &crate::ROTATE_STEPS, false);
        let ev = Evaluator::new(Arc::clone(&ctx));

        let scheme = BigCkks::new(Arc::clone(&ctx));
        let mut big_sampler = Sampler::from_seed_stream(seed, 2);
        let big_keys = scheme.keygen(&mut big_sampler);
        let big_gk = scheme.gen_galois_keys(&big_keys, &crate::ROTATE_STEPS, &mut big_sampler);

        Self {
            ctx,
            model,
            ev,
            sk,
            pk,
            rk,
            gk,
            rns_enc: Sampler::from_seed_stream(seed, 1),
            scheme,
            big_keys,
            big_gk,
            big_enc: big_sampler,
        }
    }

    /// Executes a sequence, checking both worlds after every register
    /// write. Returns the divergence of the first failed check.
    pub fn run(&mut self, ops: &[DiffOp], cfg: &DiffConfig) -> Result<RunReport, Box<Divergence>> {
        let slots = self.ctx.slots();
        let scale = self.ctx.params().scale();
        let mut regs: [Option<RegState>; NUM_REGS] = Default::default();
        let mut checks = 0usize;
        let mut worst = 0.0f64;

        for (i, op) in ops.iter().enumerate() {
            let fail = |world, measured, bound| {
                Box::new(Divergence {
                    op_index: i,
                    op: op.clone(),
                    world,
                    measured,
                    bound,
                })
            };
            let new_state: Option<RegState> = match *op {
                DiffOp::Encrypt { value_seed, .. } => {
                    let mut vs = Sampler::from_seed_stream(value_seed, 0);
                    let refv: Vec<f64> =
                        (0..slots).map(|_| vs.rng().gen_range(-1.0..1.0)).collect();
                    let rns = self.ev.encrypt_real(&refv, &self.pk, &mut self.rns_enc);
                    let big = self.scheme.encrypt_coeffs(
                        &self.scheme.encode_slots(&refv, scale),
                        scale,
                        &self.big_keys,
                        &mut self.big_enc,
                    );
                    Some(RegState {
                        rns,
                        big,
                        refv,
                        err: self.model.fresh_value(scale),
                    })
                }
                DiffOp::Add { a, b, .. } | DiffOp::Sub { a, b, .. } => {
                    let sub = matches!(op, DiffOp::Sub { .. });
                    let (ra, rb) = (regs[a].as_ref().unwrap(), regs[b].as_ref().unwrap());
                    let rns = if sub {
                        self.ev.sub(&ra.rns, &rb.rns)
                    } else {
                        self.ev.add(&ra.rns, &rb.rns)
                    };
                    let big = if sub {
                        self.scheme.sub(&ra.big, &rb.big)
                    } else {
                        self.scheme.add(&ra.big, &rb.big)
                    };
                    let refv: Vec<f64> = ra
                        .refv
                        .iter()
                        .zip(&rb.refv)
                        .map(|(x, y)| if sub { x - y } else { x + y })
                        .collect();
                    Some(RegState {
                        rns,
                        big,
                        refv,
                        err: self.model.add_value(ra.err, rb.err),
                    })
                }
                DiffOp::Negate { src, .. } => {
                    let r = regs[src].as_ref().unwrap();
                    Some(RegState {
                        rns: self.ev.negate(&r.rns),
                        big: self.scheme.negate(&r.big),
                        refv: r.refv.iter().map(|v| -v).collect(),
                        err: r.err,
                    })
                }
                DiffOp::MulRelin { a, b, .. } => {
                    let (ra, rb) = (regs[a].as_ref().unwrap(), regs[b].as_ref().unwrap());
                    let rns = self.ev.multiply(&ra.rns, &rb.rns, &self.rk);
                    let big = self.scheme.multiply(&ra.big, &rb.big, &self.big_keys);
                    let refv: Vec<f64> = ra.refv.iter().zip(&rb.refv).map(|(x, y)| x * y).collect();
                    let err = self.model.mul_value(
                        ra.mag(),
                        ra.err,
                        rb.mag(),
                        rb.err,
                        ra.rns.scale * rb.rns.scale,
                    );
                    Some(RegState {
                        rns,
                        big,
                        refv,
                        err,
                    })
                }
                DiffOp::Rescale { src, .. } => {
                    let r = regs[src].as_ref().unwrap();
                    let rns = self.ev.rescale(&r.rns);
                    let big = self.scheme.rescale(&r.big);
                    let err = self.model.rescale_value(r.err, rns.scale);
                    Some(RegState {
                        rns,
                        big,
                        refv: r.refv.clone(),
                        err,
                    })
                }
                DiffOp::Rotate { src, steps, .. } => {
                    let r = regs[src].as_ref().unwrap();
                    let rns = self.ev.rotate(&r.rns, steps, &self.gk);
                    let big = self.scheme.rotate(&r.big, steps, &self.big_gk);
                    let shift = steps.rem_euclid(slots as i64) as usize;
                    let refv: Vec<f64> = (0..slots).map(|j| r.refv[(j + shift) % slots]).collect();
                    let err = self.model.rotate_value(r.err, r.rns.scale);
                    Some(RegState {
                        rns,
                        big,
                        refv,
                        err,
                    })
                }
                DiffOp::RotSum {
                    src,
                    ref steps,
                    value_seed,
                    ..
                } => {
                    // the RNS world divides the sum by P once; the bignum
                    // world rotates (and divides) per term
                    let r = regs[src].as_ref().unwrap();
                    let weights = crate::gen::rot_sum_weights(value_seed, steps.len(), slots);
                    let rns = rot_sum(&self.ev, &self.gk, &r.rns, steps, &weights);
                    let (m, e, s) = (self.model, r.err, r.rns.scale);
                    let mut refv = vec![0.0; slots];
                    let (mut big, mut e_ext, mut e_rot) = (None, 0.0, 0.0);
                    for (&step, w) in steps.iter().zip(&weights) {
                        let rotated = self.scheme.rotate(&r.big, step, &self.big_gk);
                        let pt = self.scheme.encode_slots(w, scale);
                        let term = self.scheme.mul_plain(&rotated, &pt, scale);
                        big = Some(match big {
                            None => term,
                            Some(acc) => self.scheme.add(&acc, &term),
                        });
                        let shift = step.rem_euclid(slots as i64) as usize;
                        for (j, y) in refv.iter_mut().enumerate() {
                            *y += w[j] * r.refv[(j + shift) % slots];
                        }
                        let w_mag = w.iter().fold(0.0f64, |a, v| a.max(v.abs()));
                        let product = |e| m.mul_plain_value(r.mag(), e, w_mag, scale);
                        e_ext = m.add_value(e_ext, product(m.rotate_ext_value(e, s)));
                        e_rot = m.add_value(e_rot, product(m.rotate_value(e, s)));
                    }
                    // each world is bounded by the composition of its
                    // own ops; the register carries the larger
                    let e_ext = m.mod_down_value(e_ext, rns.scale);
                    Some(RegState {
                        rns,
                        big: big.expect("a rotation sum has a term"),
                        refv,
                        err: e_ext.max(e_rot),
                    })
                }
                DiffOp::CrtRoundTrip {
                    streams,
                    max_abs,
                    value_seed,
                } => {
                    if let Err(measured) = crt_round_trip(streams, max_abs, value_seed) {
                        return Err(fail("crt", measured, 0.0));
                    }
                    checks += 1;
                    None
                }
            };

            if let Some(state) = new_state {
                let bound = cfg.safety * state.err;
                let dec_rns = self.ev.decrypt_to_real(&state.rns, &self.sk);
                let dec_big = self.scheme.decrypt_to_real(&state.big, &self.big_keys);
                let d_rns = max_abs_diff(&dec_rns[..slots], &state.refv);
                let d_big = max_abs_diff(&dec_big[..slots], &state.refv);
                let d_cross = max_abs_diff(&dec_rns[..slots], &dec_big[..slots]);
                checks += 1;
                if d_rns > bound {
                    return Err(fail("rns", d_rns, bound));
                }
                if d_big > bound {
                    return Err(fail("bigckks", d_big, bound));
                }
                // each world is within `bound` of the reference, so
                // their mutual distance must stay under twice that
                if d_cross > 2.0 * bound {
                    return Err(fail("cross", d_cross, 2.0 * bound));
                }
                worst = worst.max(d_rns / bound).max(d_big / bound);
                regs[op.dst().expect("register op")] = Some(state);
            }
        }

        Ok(RunReport {
            ops: ops.len(),
            checks,
            worst_ratio: worst,
        })
    }
}

/// The RNS world's [`DiffOp::RotSum`]: `ct` hoisted once, each step an
/// extended rotation of it times its weights encoded over the key-switch
/// basis at Δ, accumulated in place, then one `mod_down`. Panics on an
/// op the generator's feasibility rules would not have emitted.
pub fn rot_sum(
    ev: &Evaluator,
    gk: &GaloisKeys,
    ct: &Ciphertext,
    steps: &[i64],
    weights: &[Vec<f64>],
) -> Ciphertext {
    let scale = ev.ctx().params().scale();
    let h = ev.hoist(ct).expect("a register is well-formed");
    let mut acc: Option<ExtCiphertext> = None;
    for (&step, w) in steps.iter().zip(weights) {
        let x = ev.rotate_ext_hoisted(&h, step, gk).expect("a keyed step");
        let pt = ckks::encode_real_ext(ev.ctx(), w, scale, ct.level);
        acc = Some(match acc {
            None => ev.mul_plain_ext(&x, &pt).expect("matching operands"),
            Some(mut a) => {
                ev.mac_plain_ext(&mut a, &x, &pt)
                    .expect("matching operands");
                a
            }
        });
    }
    ev.mod_down(acc.expect("a rotation sum has a term"))
        .expect("a well-formed sum")
}

/// Plain-integer CRT codec split→recompose, both forms, bit-exact.
/// Returns `Err(count_of_mismatches)` on any round-trip defect.
fn crt_round_trip(streams: usize, max_abs: i64, value_seed: u64) -> Result<(), f64> {
    let Ok(codec) = SignalDecomposition::try_new(streams, max_abs) else {
        return Err(f64::INFINITY);
    };
    let mut vs = Sampler::from_seed_stream(value_seed, 1);
    let signed: Vec<i64> = (0..64)
        .map(|_| vs.rng().gen_range(-max_abs..=max_abs))
        .collect();
    let unsigned: Vec<i64> = signed.iter().map(|v| v.abs()).collect();

    let residues = codec.decompose_residues(&signed);
    let back = codec.recompose_residues(&residues);
    let residue_bad = back.iter().zip(&signed).filter(|(a, b)| a != b).count();

    let digits = codec.decompose_digits(&unsigned);
    let digit_bad = match codec.try_recompose_digits(&digits) {
        Ok(v) => v.iter().zip(&unsigned).filter(|(a, b)| a != b).count(),
        Err(_) => unsigned.len(),
    };

    if residue_bad + digit_bad > 0 {
        return Err((residue_bad + digit_bad) as f64);
    }
    Ok(())
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Generates and runs one seeded sequence against a fresh harness.
pub fn run_sequence(
    ctx: &Arc<CkksContext>,
    seed: u64,
    count: usize,
    cfg: &DiffConfig,
) -> Result<RunReport, Box<Divergence>> {
    let ops = crate::generate(ctx, seed, count);
    Harness::new(Arc::clone(ctx), seed).run(&ops, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_sequences_pass_on_micro2() {
        let ctx = crate::preset("micro2").unwrap().params.build();
        for seed in [1u64, 2, 3] {
            let report = run_sequence(&ctx, seed, 40, &DiffConfig::default())
                .unwrap_or_else(|d| panic!("seed {seed}: {d}"));
            assert_eq!(report.ops, 40);
            assert!(report.checks >= 40);
            assert!(report.worst_ratio <= 1.0);
        }
    }

    #[test]
    fn depth3_sequences_pass_on_micro3() {
        let ctx = crate::preset("micro3").unwrap().params.build();
        let report =
            run_sequence(&ctx, 5, 60, &DiffConfig::default()).unwrap_or_else(|d| panic!("{d}"));
        assert!(report.worst_ratio > 0.0, "checks actually measured error");
    }

    /// A four-term extended rotation sum, divided by `P` once, lands
    /// within the composed bound of the per-rotation sum the bignum world
    /// computes — and an absurd safety factor makes the same check fire.
    #[test]
    fn an_extended_rotation_sum_agrees_with_the_per_rotation_sum() {
        let ctx = crate::preset("micro2").unwrap().params.build();
        let ops = vec![
            DiffOp::Encrypt {
                dst: 0,
                value_seed: 5,
            },
            DiffOp::RotSum {
                dst: 1,
                src: 0,
                steps: vec![1, 2, 4, 1],
                value_seed: 6,
            },
        ];
        let report = Harness::new(Arc::clone(&ctx), 3)
            .run(&ops, &DiffConfig::default())
            .unwrap_or_else(|d| panic!("{d}"));
        assert_eq!(report.checks, 2);
        assert!(report.worst_ratio > 0.0 && report.worst_ratio <= 1.0);
        let tiny = DiffConfig { safety: 1e-9 };
        let err = Harness::new(ctx, 3).run(&ops, &tiny).unwrap_err();
        assert_eq!(err.op_index, 0);
    }

    #[test]
    fn tampered_world_is_caught() {
        // sanity that the comparison has teeth: corrupt the reference
        // world mid-run by executing mismatched sequences
        let ctx = crate::preset("micro2").unwrap().params.build();
        let mut h = Harness::new(Arc::clone(&ctx), 9);
        let ops = vec![
            DiffOp::Encrypt {
                dst: 0,
                value_seed: 11,
            },
            // claim the register holds its double (add) while checking
            // against a reference computed for a different op shape is
            // impossible through the public API — instead check that a
            // deliberately wrong op stream (sub vs add) diverges.
            DiffOp::Sub { dst: 1, a: 0, b: 0 },
        ];
        // r0 − r0 = 0 exactly; both worlds agree, reference agrees: pass
        assert!(h.run(&ops, &DiffConfig::default()).is_ok());
        // an absurd safety factor makes any fresh noise a "divergence",
        // proving the bound comparison is live
        let tiny = DiffConfig { safety: 1e-12 };
        let err = Harness::new(ctx, 9).run(&ops, &tiny).unwrap_err();
        assert_eq!(err.op_index, 0);
        assert!(err.measured > err.bound);
    }
}
