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
    /// Bound on one key-switch digit: the largest `α_j·Q_j/2` over the
    /// digit partition ([`CkksParams::digit_partition`]), `Q_j` the
    /// product of digit `j`'s `α_j` limbs — a fast-base-converted digit
    /// is a sum of `α_j` centred terms each at most `Q_j/2`.
    pub digit_bound: f64,
    /// Product of the special primes `P` (the hybrid divisor).
    pub p: f64,
    /// Number of key-switch digits at the deepest level (`dnum`).
    pub dnum: f64,
}

impl NoiseModel {
    /// Builds the model from parameters, mirroring the key generator's
    /// choices (`h = min(64, N/2)`, CBD-21 error).
    pub fn new(params: &CkksParams) -> Self {
        let n = params.n as f64;
        let digits = params.digit_partition();
        let digit_bound = digits
            .iter()
            .map(|d| {
                let bits: u32 = params.chain_bits[d.clone()].iter().sum();
                d.len() as f64 * 2f64.powi(bits as i32) / 2.0
            })
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
            digit_bound,
            p,
            dnum: digits.len() as f64,
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

    /// Hybrid keyswitch additive bound: the digit-error inner product
    /// over `dnum` digits, each bounded by `digit_bound`, shrunk by `P`,
    /// plus the mod-down rounding (≈ `B_scale`). With one limb per digit
    /// (one special prime) the digit bound is half the largest chain
    /// prime and `dnum` the chain length, the GHS bound.
    pub fn keyswitch_coeff(&self) -> f64 {
        self.keyswitch_digit_coeff() + self.rescale_round_coeff()
    }

    /// The digit-error part of [`Self::keyswitch_coeff`], in units of
    /// the divided result: what a key switch that stops before its
    /// mod-down carries (times `P`), without the rounding.
    pub fn keyswitch_digit_coeff(&self) -> f64 {
        self.n * self.sigma * self.digit_bound * self.dnum.sqrt() / self.p
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

    /// Rotation: a permutation (error magnitude preserved)
    /// plus one keyswitch additive at the current scale.
    pub fn rotate_value(&self, e: f64, scale: f64) -> f64 {
        e + self.keyswitch_coeff() / scale
    }

    /// A rotation that stops before its mod-down: the key switch's
    /// digit error, with the rounding deferred to [`Self::mod_down_value`].
    /// A key-switch-basis value's error is tracked in units of the
    /// value it divides down to, so products and sums compose as on the
    /// chain.
    pub fn rotate_ext_value(&self, e: f64, scale: f64) -> f64 {
        e + self.keyswitch_digit_coeff() / scale
    }

    /// The division by `P`: its rounding at the current scale, once per
    /// sum. `mod_down_value(rotate_ext_value(e))` is [`Self::rotate_value`].
    pub fn mod_down_value(&self, e: f64, scale: f64) -> f64 {
        e + self.rescale_round_coeff() / scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn micro() -> CkksParams {
        CkksParams::paper(256, 2)
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
        // a rotation split at its mod-down composes to the rotation
        let e_ext = m.rotate_ext_value(e_rs, scale);
        assert!(e_rs < e_ext && e_ext < e_rot);
        let split = m.mod_down_value(e_ext, scale);
        assert!((split - e_rot).abs() <= 1e-12 * e_rot);
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

    /// The key-switch term follows the digit partition: one special
    /// prime is the GHS bound (half the largest prime, √(chain length)),
    /// two make three wider digits over a larger `P` — a smaller term.
    #[test]
    fn keyswitch_bound_follows_the_digit_partition() {
        let hybrid = CkksParams::paper(1 << 12, 7);
        let mut ghs = hybrid.clone();
        ghs.special_bits = vec![40];
        let (h, g) = (NoiseModel::new(&hybrid), NoiseModel::new(&ghs));
        assert_eq!(
            (g.digit_bound, g.dnum, g.p),
            (2f64.powi(39), 8.0, 2f64.powi(40))
        );
        // {q0,q1}, {q2,q3,q4}, {q5,q6,q7}: the widest is 3 limbs of 78 bits
        assert_eq!((h.digit_bound, h.dnum), (3.0 * 2f64.powi(77), 3.0));
        assert!(h.keyswitch_coeff() < g.keyswitch_coeff());
        assert!(h.keyswitch_coeff() > h.rescale_round_coeff());
    }

    #[test]
    fn model_scales_with_ring_degree() {
        let small = NoiseModel::new(&micro());
        let big = NoiseModel::new(&CkksParams::tiny(2));
        assert!(big.fresh_coeff() > small.fresh_coeff());
    }
}
