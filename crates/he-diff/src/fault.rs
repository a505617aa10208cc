//! Deterministic fault injection (feature `fault-inject`).
//!
//! Each injector corrupts exactly one thing, deterministically, and
//! bumps the he-trace fault counter. The guards below are thin wrappers
//! over *existing* defenses — nothing here detects anything on its own;
//! the point of the fault tests is to prove that the guards the
//! workspace already ships catch the corruption class they claim to:
//!
//! | fault                      | guard                                   |
//! |----------------------------|-----------------------------------------|
//! | residue-limb flip          | noise telemetry (`measured_error_bits`) |
//! | modulus drop (consistent)  | he-ir level admission (`levels::infer`) |
//! | modulus drop (mismatched)  | [`Ciphertext::validate`]                |
//! | scale metadata skew        | headroom sampler (`headroom_bits`)      |
//! | relin-key digit truncation | noise telemetry after multiply          |

use ckks::noise::{headroom_bits, measured_error_bits};
use ckks::params::CkksContext;
use ckks::{Ciphertext, CkksParams, Evaluator, KeySwitchKey, RelinKey, SecretKey};
use ckks_math::fft::Complex;
use ckks_math::poly::RnsPoly;
use he_ir::passes::levels;
use he_ir::{GraphBuilder, KeyInventory, Layout};
use std::sync::Arc;

// ---------------------------------------------------------------------
// injectors
// ---------------------------------------------------------------------

/// Flips one residue: adds ⌊q_i/2⌋ to a single coefficient of `c0` in
/// limb `limb` — a large error in one CRT component, invisible to all
/// metadata (level, scale, limb counts all stay consistent).
pub fn flip_residue_coeff(ct: &mut Ciphertext, limb: usize, coeff: usize) {
    let q = ct.c0.limb_modulus(limb).value();
    let data = ct.c0.limb_mut(limb);
    data[coeff] = (data[coeff] + q / 2) % q;
    he_trace::record_fault_injected(1);
}

/// Drops the top chain modulus *consistently*: limbs and level both
/// shrink, scale untouched. Structurally this is a silent modulus
/// switch — the ciphertext still validates and decrypts, but it has
/// lost a level the downstream circuit was counting on.
pub fn drop_modulus(ct: &mut Ciphertext) {
    assert!(ct.level >= 1, "cannot drop below level 0");
    ct.c0.drop_last_limb();
    ct.c1.drop_last_limb();
    ct.level -= 1;
    he_trace::record_fault_injected(1);
}

/// Drops the top limb of both polynomials but *leaves the level
/// metadata alone* — the kind of inconsistency a buggy serializer or a
/// truncated network read would produce.
pub fn drop_modulus_inconsistent(ct: &mut Ciphertext) {
    assert!(ct.level >= 1, "cannot drop below level 0");
    ct.c0.drop_last_limb();
    ct.c1.drop_last_limb();
    he_trace::record_fault_injected(1);
}

/// Skews the scale metadata by `factor` without touching polynomial
/// data: the payload silently decodes `factor`× off.
pub fn skew_scale(ct: &mut Ciphertext, factor: f64) {
    ct.scale *= factor;
    he_trace::record_fault_injected(1);
}

/// Returns a relin key whose *top* digit is zeroed — as if the last
/// key-switch digit was truncated in storage. Key-switching silently
/// ignores the contribution of the top decomposition digit, which
/// injects an error proportional to that digit's share of `d₂·s²`.
pub fn truncate_relin_digit(rk: &RelinKey) -> RelinKey {
    let mut digits: Vec<(RnsPoly, RnsPoly)> = rk.0.digits().to_vec();
    let last = digits.len() - 1;
    let zero_like =
        |p: &RnsPoly| RnsPoly::zero(Arc::clone(p.ctx()), p.limb_indices().to_vec(), p.form());
    digits[last] = (zero_like(&digits[last].0), zero_like(&digits[last].1));
    he_trace::record_fault_injected(1);
    RelinKey(KeySwitchKey::from_parts(digits))
}

// ---------------------------------------------------------------------
// guard wrappers (existing defenses, instrumented)
// ---------------------------------------------------------------------

/// Noise-telemetry guard: fires when the measured error exceeds the
/// analytic value-domain bound `bound` (same budget the differential
/// oracle enforces). Wraps [`measured_error_bits`].
pub fn noise_guard(
    ev: &Evaluator,
    ct: &Ciphertext,
    sk: &SecretKey,
    reference: &[Complex],
    bound: f64,
) -> bool {
    let detected = measured_error_bits(ev, ct, sk, reference) > bound.log2();
    if detected {
        he_trace::record_fault_detected(1);
    }
    detected
}

/// Headroom guard: fires when the structural headroom sampled from
/// ciphertext metadata drops below `min_bits`. Wraps [`headroom_bits`].
pub fn headroom_guard(ctx: &Arc<CkksContext>, ct: &Ciphertext, min_bits: f64) -> bool {
    let detected = headroom_bits(ctx, ct) < min_bits;
    if detected {
        he_trace::record_fault_detected(1);
    }
    detected
}

/// Structural guard: fires when [`Ciphertext::validate`] panics on a
/// metadata/limb inconsistency.
pub fn validate_guard(ct: &Ciphertext) -> bool {
    let detected =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ct.validate())).is_err();
    if detected {
        he_trace::record_fault_detected(1);
    }
    detected
}

/// Admission guard: fires when the level analysis rejects a chain of
/// `needed_levels` linear layers (weights at `q_m`, one rescale each)
/// run from a ciphertext at `start_level` — the check that catches a
/// consistent modulus drop before any polynomial math runs.
pub fn admission_guard(params: &CkksParams, needed_levels: usize, start_level: usize) -> bool {
    let s = params.scale();
    let mut b = GraphBuilder::new(params.clone());
    let mut x = b.input("x", start_level, Layout::BatchSlots);
    for _ in 0..needed_levels {
        let m = b.ct_ty(x).level;
        let q_m = b.q_at(m);
        let w = b.encode_scalar(1.0, q_m, m);
        let z = b.zero(s * q_m, m);
        let acc = b.mac_plain(z, x, w);
        x = b.rescale(acc);
    }
    b.output(x);
    let detected = levels::infer(&b.finish(KeyInventory::relin_only()))
        .report
        .has_errors();
    if detected {
        he_trace::record_fault_detected(1);
    }
    detected
}
