//! Analytic CKKS noise model — the bound side of static analysis.
//!
//! The level/scale abstract interpretation ([`crate::passes::levels`])
//! tracks levels and scales; this module supplies the matching *error
//! magnitudes*: per-primitive heuristic
//! noise bounds in the standard CKKS average-case model
//! (canonical-embedding heuristics as in the CKKS and SEAL noise
//! analyses), parameterized only by `(N, σ, h)` from the
//! [`CkksParams`]. Nothing here is hand-tuned to an observed run: the
//! differential harness (`he-diff`) composes these per-op bounds along
//! an executed sequence and asserts the *measured* decryption error
//! stays under the composed bound times a fixed, documented safety
//! factor.
//!
//! All `*_coeff` quantities are coefficient-domain absolute bounds; the
//! value-domain (per-slot) error of a ciphertext at scale Δ is the
//! coefficient bound divided by Δ, which is what the composition
//! helpers track.

use ckks::CkksParams;

/// Heuristic noise bounds for one parameter set.
#[derive(Debug, Clone, Copy)]
pub struct NoiseModel {
    /// Ring degree `N`.
    pub n: f64,
    /// Error std-dev (CBD-21 ≈ 3.24, the HE-standard σ=3.2 stand-in).
    pub sigma: f64,
    /// Secret-key Hamming weight `h`.
    pub hamming: f64,
    /// Largest chain-prime value (bounds the keyswitch digit magnitude).
    pub q_max: f64,
    /// Product of the special primes `P` (GHS hybrid divisor).
    pub p: f64,
    /// Chain length (number of keyswitch digits at the deepest level).
    pub chain_len: f64,
}

impl NoiseModel {
    /// Builds the model from parameters, mirroring the key generator's
    /// choices (`h = min(64, N/2)`, CBD-21 error).
    pub fn new(params: &CkksParams) -> Self {
        let n = params.n as f64;
        let q_max = params
            .chain_bits
            .iter()
            .map(|&b| 2f64.powi(b as i32))
            .fold(0.0, f64::max);
        let p: f64 = params
            .special_bits
            .iter()
            .map(|&b| 2f64.powi(b as i32))
            .product();
        Self {
            n,
            sigma: (21.0f64 / 2.0).sqrt(),
            hamming: 64f64.min(n / 2.0),
            q_max,
            p,
            chain_len: params.chain_bits.len() as f64,
        }
    }

    /// Fresh-encryption bound `B_clean ≈ 8√2·σN + 6σ√N + 16σ√(hN)`
    /// (public-key encryption: `v·e_pk + e_0 + e_1·s` plus encoding
    /// rounding, which the first term dominates).
    pub fn fresh_coeff(&self) -> f64 {
        let (n, s, h) = (self.n, self.sigma, self.hamming);
        8.0 * 2f64.sqrt() * s * n + 6.0 * s * n.sqrt() + 16.0 * s * (h * n).sqrt()
    }

    /// Rescale rounding bound `B_scale ≈ √(N/3)·(3 + 8√h)` — the
    /// `(x − [x]_q)/q` rounding folded through the secret key.
    pub fn rescale_round_coeff(&self) -> f64 {
        (self.n / 3.0).sqrt() * (3.0 + 8.0 * self.hamming.sqrt())
    }

    /// GHS hybrid keyswitch additive bound: the digit-error inner
    /// product shrunk by `P`, plus the mod-down rounding (≈ `B_scale`).
    pub fn keyswitch_coeff(&self) -> f64 {
        let digit_term = self.n * self.sigma * self.q_max * self.chain_len.sqrt() / self.p;
        digit_term + self.rescale_round_coeff()
    }

    // -----------------------------------------------------------------
    // Value-domain composition (per-slot error at the current scale)
    // -----------------------------------------------------------------

    /// Per-slot error of a fresh encryption at scale Δ.
    pub fn fresh_value(&self, scale: f64) -> f64 {
        self.fresh_coeff() / scale
    }

    /// Add/sub/negate: errors add (negation preserves magnitude).
    pub fn add_value(&self, ea: f64, eb: f64) -> f64 {
        ea + eb
    }

    /// Relinearized multiplication of messages bounded by `ma`, `mb`
    /// with per-slot errors `ea`, `eb`; `product_scale` is the scale of
    /// the result (Δ_a·Δ_b). Slot-wise: `(m_a+e_a)(m_b+e_b) − m_a·m_b`,
    /// plus the relinearization additive at the product scale.
    pub fn mul_value(&self, ma: f64, ea: f64, mb: f64, eb: f64, product_scale: f64) -> f64 {
        ma * eb + mb * ea + ea * eb + self.keyswitch_coeff() / product_scale
    }

    /// Plaintext multiplication by a scalar of magnitude `w`: the slot
    /// error scales with the weight, plus the encoding rounding of the
    /// weight itself acting on the message (½ ulp at the plaintext
    /// scale times the message bound).
    pub fn mul_plain_value(&self, m: f64, e: f64, w: f64, pt_scale: f64) -> f64 {
        w.abs() * e + 0.5 * m / pt_scale
    }

    /// Rescale: the slot error is preserved (both message and error are
    /// divided together with the scale) plus the rounding term at the
    /// *new* scale.
    pub fn rescale_value(&self, e: f64, new_scale: f64) -> f64 {
        e + self.rescale_round_coeff() / new_scale
    }

    /// Rotation/conjugation: a permutation (error magnitude preserved)
    /// plus one keyswitch additive at the current scale.
    pub fn rotate_value(&self, e: f64, scale: f64) -> f64 {
        e + self.keyswitch_coeff() / scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn micro() -> CkksParams {
        CkksParams {
            n: 256,
            chain_bits: vec![40, 26, 26],
            special_bits: vec![40],
            scale_bits: 26,
            security: ckks::SecurityLevel::None,
        }
    }

    #[test]
    fn bounds_are_positive_and_ordered() {
        let m = NoiseModel::new(&micro());
        assert!(m.fresh_coeff() > 0.0);
        assert!(m.rescale_round_coeff() > 0.0);
        assert!(m.keyswitch_coeff() >= m.rescale_round_coeff());
        // fresh noise dominates a single rescale rounding
        assert!(m.fresh_coeff() > m.rescale_round_coeff());
    }

    #[test]
    fn fresh_value_error_is_small_at_paper_scale() {
        let m = NoiseModel::new(&micro());
        let e = m.fresh_value(2f64.powi(26));
        // Δ=2^26 pushes fresh noise below 2^-10 per slot
        assert!(e < 2f64.powi(-10), "fresh value error {e}");
        assert!(e > 0.0);
    }

    #[test]
    fn composition_grows_monotonically() {
        let m = NoiseModel::new(&micro());
        let scale = 2f64.powi(26);
        let e0 = m.fresh_value(scale);
        let e_add = m.add_value(e0, e0);
        assert!(e_add > e0);
        let e_mul = m.mul_value(1.0, e_add, 1.0, e0, scale * scale);
        assert!(e_mul > e_add);
        let e_rs = m.rescale_value(e_mul, scale);
        assert!(e_rs >= e_mul);
        let e_rot = m.rotate_value(e_rs, scale);
        assert!(e_rot > e_rs);
    }

    #[test]
    fn plain_mult_scales_error_with_weight() {
        let m = NoiseModel::new(&micro());
        let scale = 2f64.powi(26);
        let e = m.fresh_value(scale);
        let half = m.mul_plain_value(1.0, e, 0.5, scale);
        let double = m.mul_plain_value(1.0, e, 2.0, scale);
        assert!(half < double);
        assert!(double > 2.0 * e);
    }

    #[test]
    fn model_scales_with_ring_degree() {
        let small = NoiseModel::new(&micro());
        let big = NoiseModel::new(&CkksParams::tiny(2));
        assert!(big.fresh_coeff() > small.fresh_coeff());
    }
}
