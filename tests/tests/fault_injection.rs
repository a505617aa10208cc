//! Fault injection: prove that each corruption class he-diff can
//! introduce is caught by the guard that claims to cover it.
//!
//! | fault                      | detecting guard                         |
//! |----------------------------|-----------------------------------------|
//! | residue-limb flip          | noise telemetry (`measured_error_bits`) |
//! | modulus drop (consistent)  | he-ir level admission (`levels::infer`) |
//! | modulus drop (mismatched)  | `Ciphertext::validate`                  |
//! | scale metadata skew        | headroom sampler (`headroom_bits`)      |
//! | relin-key digit truncation | noise telemetry after multiply          |
//!
//! Every test also asserts the negative: the guard stays silent on the
//! healthy twin of the corrupted object, so detection is specific, not
//! a tripwire that fires on everything.

#![forbid(unsafe_code)]

use ckks::{CkksParams, Evaluator, KeyGenerator};
use ckks_math::fft::Complex;
use ckks_math::sampler::Sampler;
use he_diff::fault;
use he_ir::NoiseModel;
use he_trace::FaultSnapshot;
use std::sync::Arc;

struct Fx {
    ctx: Arc<ckks::params::CkksContext>,
    sk: ckks::SecretKey,
    pk: ckks::PublicKey,
    rk: ckks::RelinKey,
    ev: Evaluator,
    sampler: Sampler,
}

fn fixture(depth: usize, seed: u64) -> Fx {
    let ctx = CkksParams::tiny(depth).build();
    let mut kg = KeyGenerator::new(Arc::clone(&ctx), seed);
    let sk = kg.gen_secret_key();
    let pk = kg.gen_public_key(&sk);
    let rk = kg.gen_relin_key(&sk);
    let ev = Evaluator::new(Arc::clone(&ctx));
    Fx {
        ctx,
        sk,
        pk,
        rk,
        ev,
        sampler: Sampler::from_seed_stream(seed, 77),
    }
}

fn vals(n: usize) -> (Vec<f64>, Vec<Complex>) {
    let v: Vec<f64> = (0..n).map(|i| 0.4 - 0.02 * i as f64).collect();
    let c = v.iter().map(|&x| Complex::from(x)).collect();
    (v, c)
}

/// The oracle's bound: analytic model value times the documented safety
/// factor (64) — identical to what `he-diff run` enforces.
fn fresh_bound(f: &Fx) -> f64 {
    64.0 * NoiseModel::new(f.ctx.params()).fresh_value(f.ctx.params().scale())
}

#[test]
fn residue_flip_detected_by_noise_telemetry() {
    let mut f = fixture(2, 9001);
    let (v, r) = vals(16);
    let before = FaultSnapshot::now();
    let mut ct = f.ev.encrypt_real(&v, &f.pk, &mut f.sampler);
    let bound = fresh_bound(&f);

    // healthy ciphertext: guard must stay silent
    assert!(!fault::noise_guard(&f.ev, &ct, &f.sk, &r, bound));

    fault::flip_residue_coeff(&mut ct, 0, 3);
    assert!(
        fault::noise_guard(&f.ev, &ct, &f.sk, &r, bound),
        "single-residue corruption must blow the analytic noise bound"
    );
    let d = FaultSnapshot::now().delta(&before);
    assert!(d.injected >= 1 && d.detected >= 1, "counters: {d:?}");
}

#[test]
fn consistent_modulus_drop_detected_by_lint_admission() {
    let mut f = fixture(3, 9002);
    let (v, _) = vals(16);
    let mut ct = f.ev.encrypt_real(&v, &f.pk, &mut f.sampler);
    let needed = f.ctx.max_level(); // a circuit consuming every level

    // healthy: the planned circuit is admissible from the fresh level
    assert!(!fault::admission_guard(f.ctx.params(), needed, ct.level));

    let before = FaultSnapshot::now();
    fault::drop_modulus(&mut ct);
    ct.validate(); // still structurally sound — that's the point
    assert!(
        fault::admission_guard(f.ctx.params(), needed, ct.level),
        "lint must reject running a {needed}-level circuit from level {}",
        ct.level
    );
    let d = FaultSnapshot::now().delta(&before);
    assert!(d.injected >= 1 && d.detected >= 1, "counters: {d:?}");
}

#[test]
fn inconsistent_modulus_drop_detected_by_validate() {
    let mut f = fixture(2, 9003);
    let (v, _) = vals(16);
    let mut ct = f.ev.encrypt_real(&v, &f.pk, &mut f.sampler);
    assert!(!fault::validate_guard(&ct), "healthy ct validates");

    let before = FaultSnapshot::now();
    fault::drop_modulus_inconsistent(&mut ct);
    assert!(
        fault::validate_guard(&ct),
        "limb/level mismatch must fail Ciphertext::validate"
    );
    let d = FaultSnapshot::now().delta(&before);
    assert!(d.injected >= 1 && d.detected >= 1, "counters: {d:?}");
}

#[test]
fn scale_skew_detected_by_headroom_sampler() {
    let mut f = fixture(2, 9004);
    let (v, _) = vals(16);
    let mut ct = f.ev.encrypt_real(&v, &f.pk, &mut f.sampler);

    // tiny(2): log₂Q = 40+26+26 = 92, Δ = 2²⁶ → ~65 bits of headroom;
    // a healthy pipeline never sinks below ~10
    let min_bits = 10.0;
    assert!(!fault::headroom_guard(&f.ctx, &ct, min_bits));

    let before = FaultSnapshot::now();
    fault::skew_scale(&mut ct, 2f64.powi(60));
    assert!(
        fault::headroom_guard(&f.ctx, &ct, min_bits),
        "a 2^60 scale skew must collapse the sampled headroom"
    );
    let d = FaultSnapshot::now().delta(&before);
    assert!(d.injected >= 1 && d.detected >= 1, "counters: {d:?}");
}

#[test]
fn relin_digit_truncation_detected_by_noise_telemetry() {
    let mut f = fixture(2, 9005);
    let (v, _) = vals(16);
    let refsq: Vec<Complex> = v.iter().map(|&x| Complex::from(x * x)).collect();
    let ct = f.ev.encrypt_real(&v, &f.pk, &mut f.sampler);

    let model = NoiseModel::new(f.ctx.params());
    let scale = f.ctx.params().scale();
    let e0 = model.fresh_value(scale);
    let mag = 0.4;
    let bound = 64.0 * model.mul_value(mag, e0, mag, e0, scale * scale);

    // healthy relin key: product stays within the analytic budget
    let good = f.ev.multiply(&ct, &ct, &f.rk);
    assert!(!fault::noise_guard(&f.ev, &good, &f.sk, &refsq, bound));

    let before = FaultSnapshot::now();
    let bad_rk = fault::truncate_relin_digit(&f.rk);
    let bad = f.ev.multiply(&ct, &ct, &bad_rk);
    assert!(
        fault::noise_guard(&f.ev, &bad, &f.sk, &refsq, bound),
        "a zeroed key-switch digit must blow the multiply noise budget"
    );
    let d = FaultSnapshot::now().delta(&before);
    assert!(d.injected >= 1 && d.detected >= 1, "counters: {d:?}");
}
