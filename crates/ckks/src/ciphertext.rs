//! Ciphertexts: degree-1 RLWE pairs `(c₀, c₁)` with scale/level metadata,
//! over the modulus chain ([`Ciphertext`]) or over the key-switch basis
//! ([`ExtCiphertext`]).

use ckks_math::poly::{Form, PolyContext, RnsPoly};

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

/// A ciphertext over the key-switch basis at level ℓ: limbs `0..=ℓ` of
/// the chain plus the special limbs, decrypting as `c₀ + c₁·s ≈ P·Δ·m`
/// over `R_{Q_ℓ·P}` (`P` the special primes' product) — `Δ·m` times `P`
/// at the same scale. A hoisted rotation that stops before its mod-down
/// produces one ([`Evaluator::rotate_ext`](crate::Evaluator::rotate_ext)); products with plaintexts
/// encoded over the same basis and sums stay in it, and one
/// [`Evaluator::mod_down`](crate::Evaluator::mod_down) divides a whole sum by `P`.
#[derive(Debug, Clone)]
pub struct ExtCiphertext {
    pub c0: RnsPoly,
    pub c1: RnsPoly,
    /// Encoding scale of `m` (the factor `P` is not part of it).
    pub scale: f64,
    /// Level = index of the last active chain prime.
    pub level: usize,
    /// Number of encoded slots.
    pub slots: usize,
}

impl ExtCiphertext {
    /// What the extended-basis operations would misread in this
    /// ciphertext, if anything: at least one slot, a level inside the
    /// chain, and both halves in NTT form over exactly the chain limbs
    /// `0..=level` followed by every special limb of `pctx`.
    pub fn check_shape(&self, pctx: &PolyContext) -> Result<(), &'static str> {
        if self.slots == 0 {
            return Err("no slots");
        }
        if self.level >= pctx.chain_len() {
            return Err("level beyond the modulus chain");
        }
        let basis = (0..=self.level).chain(pctx.chain_len()..pctx.moduli().len());
        for half in [&self.c0, &self.c1] {
            if half.form() != Form::Ntt {
                return Err("a half in coefficient form");
            }
            if !half.limb_indices().iter().copied().eq(basis.clone()) {
                return Err("limbs other than the key-switch basis at its level");
            }
        }
        Ok(())
    }
}
