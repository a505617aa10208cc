//! Ciphertexts: degree-1 RLWE pairs `(c₀, c₁)` with scale/level metadata.

use ckks_math::poly::{Form, RnsPoly};

/// A CKKS ciphertext at some level ℓ: decrypts as `c₀ + c₁·s ≈ Δ·m`
/// over `R_{Q_ℓ}`. Polynomials are kept in NTT form.
#[derive(Debug, Clone)]
pub struct Ciphertext {
    pub c0: RnsPoly,
    pub c1: RnsPoly,
    /// Current encoding scale (tracked exactly as an f64; rescaling divides
    /// by the dropped prime, so the scale drifts slightly from Δ — additions
    /// check compatibility within a relative tolerance).
    pub scale: f64,
    /// Level = index of the last active chain prime.
    pub level: usize,
    /// Number of encoded slots.
    pub slots: usize,
}

impl Ciphertext {
    /// Number of active RNS limbs (`level + 1`).
    pub fn num_limbs(&self) -> usize {
        self.level + 1
    }

    /// What key switching would misread in this ciphertext, if
    /// anything: it needs at least one slot, a level inside a chain of
    /// `chain_len` primes, and both halves in NTT form over exactly the
    /// limbs `0..=level`.
    pub fn check_shape(&self, chain_len: usize) -> Result<(), &'static str> {
        if self.slots == 0 {
            return Err("no slots");
        }
        if self.level >= chain_len {
            return Err("level beyond the modulus chain");
        }
        for half in [&self.c0, &self.c1] {
            if half.form() != Form::Ntt {
                return Err("a half in coefficient form");
            }
            if !half.limb_indices().iter().copied().eq(0..=self.level) {
                return Err("limbs other than 0..=level");
            }
        }
        Ok(())
    }

    /// Asserts internal consistency (used by debug paths and tests).
    pub fn validate(&self) {
        assert_eq!(self.c0.num_limbs(), self.level + 1);
        assert_eq!(self.c1.num_limbs(), self.level + 1);
        assert_eq!(self.c0.form(), self.c1.form());
        assert!(self.scale > 0.0 && self.scale.is_finite());
    }
}
