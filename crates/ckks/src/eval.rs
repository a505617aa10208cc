//! The homomorphic evaluator: encryption, decryption and all ciphertext
//! operations of the paper's §II — `Add`, `Mult` (+ relinearization),
//! `Resc`, `Rot`, conjugation — plus plaintext-operand variants and level
//! management.

use crate::ciphertext::Ciphertext;
use crate::encoding::{self, Plaintext};
use crate::error::HeError;
use crate::keys::{GaloisKeys, KeySwitchKey, KsVariant, PublicKey, RelinKey, SecretKey};
use crate::params::CkksContext;
use ckks_math::fft::Complex;
use ckks_math::kernel;
use ckks_math::poly::{Form, RnsPoly};
use ckks_math::sampler::Sampler;
use std::sync::Arc;

/// Relative tolerance for scale compatibility in additions.
pub const SCALE_RTOL: f64 = 1e-9;

/// Stateless evaluator bound to a context.
pub struct Evaluator {
    ctx: Arc<CkksContext>,
}

// The evaluator is shared by reference across unit-parallel layer loops;
// it must stay free of interior mutability.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<Evaluator>();
};

/// A scalar encoded once for repeated multiply-accumulates at a fixed
/// `(pt_scale, level)`: reduced per-limb residues and Shoup precomps.
/// Produced by [`Evaluator::prepare_scalar`], consumed by
/// [`Evaluator::mul_residues_acc`].
#[derive(Debug, Clone)]
pub struct PreparedScalar {
    /// Reduced residue per limb `0..=level`.
    pub r: Vec<u64>,
    /// Shoup precomputation of `r` per limb.
    pub r_shoup: Vec<u64>,
    /// Level the residues were prepared for.
    pub level: usize,
    /// Encoding scale of the scalar.
    pub pt_scale: f64,
}

impl Evaluator {
    pub fn new(ctx: Arc<CkksContext>) -> Self {
        Self { ctx }
    }

    #[inline]
    pub fn ctx(&self) -> &Arc<CkksContext> {
        &self.ctx
    }

    // ---------------------------------------------------------------
    // Encryption / decryption
    // ---------------------------------------------------------------

    /// Public-key encryption: `c = v·pk + (m + e₀, e₁)`.
    pub fn encrypt(&self, pt: &Plaintext, pk: &PublicKey, sampler: &mut Sampler) -> Ciphertext {
        let indices: Vec<usize> = (0..=pt.level).collect();
        let v_coeffs: Vec<i64> = sampler
            .zo_ternary(self.ctx.n())
            .into_iter()
            .map(|x| x as i64)
            .collect();
        let mut v =
            RnsPoly::from_signed(Arc::clone(self.ctx.poly_ctx()), indices.clone(), &v_coeffs);
        v.ntt_forward();

        let mut c0 = pk.b.restrict(&indices);
        c0.mul_assign(&v);
        let mut c1 = pk.a.restrict(&indices);
        c1.mul_assign(&v);

        let e0 = self.error_ntt(&indices, sampler);
        let e1 = self.error_ntt(&indices, sampler);
        c0.add_assign(&e0);
        c0.add_assign(&pt.poly);
        c1.add_assign(&e1);

        Ciphertext {
            c0,
            c1,
            scale: pt.scale,
            level: pt.level,
            slots: pt.slots,
        }
    }

    /// Convenience: encode + encrypt a real vector at scale Δ, level L.
    pub fn encrypt_real(
        &self,
        values: &[f64],
        pk: &PublicKey,
        sampler: &mut Sampler,
    ) -> Ciphertext {
        let pt = encoding::encode_real(
            &self.ctx,
            values,
            self.ctx.params().scale(),
            self.ctx.max_level(),
        );
        self.encrypt(&pt, pk, sampler)
    }

    /// Decryption: `m = c₀ + c₁·s (mod Q_ℓ)`.
    pub fn decrypt(&self, ct: &Ciphertext, sk: &SecretKey) -> Plaintext {
        ct.validate();
        let s = sk.s_at_level(ct.level);
        let mut m = ct.c1.clone();
        m.mul_assign(&s);
        m.add_assign(&ct.c0);
        Plaintext {
            poly: m,
            scale: ct.scale,
            level: ct.level,
            slots: ct.slots,
        }
    }

    /// Decrypt + decode to complex slots.
    pub fn decrypt_to_complex(&self, ct: &Ciphertext, sk: &SecretKey) -> Vec<Complex> {
        let pt = self.decrypt(ct, sk);
        encoding::decode(&self.ctx, &pt)
    }

    /// Decrypt + decode to real slots.
    pub fn decrypt_to_real(&self, ct: &Ciphertext, sk: &SecretKey) -> Vec<f64> {
        let pt = self.decrypt(ct, sk);
        encoding::decode_real(&self.ctx, &pt)
    }

    fn error_ntt(&self, indices: &[usize], sampler: &mut Sampler) -> RnsPoly {
        let e: Vec<i64> = sampler
            .cbd_error(self.ctx.n())
            .into_iter()
            .map(|x| x as i64)
            .collect();
        let mut p = RnsPoly::from_signed(Arc::clone(self.ctx.poly_ctx()), indices.to_vec(), &e);
        p.ntt_forward();
        p
    }

    // ---------------------------------------------------------------
    // Linear operations
    // ---------------------------------------------------------------

    fn assert_addable(&self, a: &Ciphertext, b: &Ciphertext) {
        assert_eq!(a.level, b.level, "level mismatch (mod-switch first)");
        assert!(
            (a.scale / b.scale - 1.0).abs() < SCALE_RTOL,
            "scale mismatch: {} vs {}",
            a.scale,
            b.scale
        );
    }

    /// `Add(c₁, c₂)`.
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        self.assert_addable(a, b);
        let mut out = a.clone();
        out.c0.add_assign(&b.c0);
        out.c1.add_assign(&b.c1);
        out
    }

    /// `a - b`.
    pub fn sub(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        self.assert_addable(a, b);
        let mut out = a.clone();
        out.c0.sub_assign(&b.c0);
        out.c1.sub_assign(&b.c1);
        out
    }

    /// `-a`.
    pub fn negate(&self, a: &Ciphertext) -> Ciphertext {
        let mut out = a.clone();
        out.c0.neg_assign();
        out.c1.neg_assign();
        out
    }

    /// Ciphertext + plaintext.
    pub fn add_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Ciphertext {
        assert_eq!(a.level, pt.level, "plaintext level mismatch");
        assert!(
            (a.scale / pt.scale - 1.0).abs() < SCALE_RTOL,
            "plaintext scale mismatch"
        );
        let mut out = a.clone();
        out.c0.add_assign(&pt.poly);
        out
    }

    /// Ciphertext × plaintext (no relinearization needed). The result
    /// scale is the product of the scales; rescale afterwards.
    pub fn mul_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Ciphertext {
        assert_eq!(a.level, pt.level, "plaintext level mismatch");
        let mut out = a.clone();
        out.c0.mul_assign(&pt.poly);
        out.c1.mul_assign(&pt.poly);
        out.scale = a.scale * pt.scale;
        out
    }

    // ---------------------------------------------------------------
    // Fast scalar (constant) operations
    // ---------------------------------------------------------------
    //
    // A constant filling every slot encodes to the constant polynomial
    // `⌊c·Δ⌉`, whose NTT is the constant vector — so scalar plaintext
    // operations need no embedding and no NTT. These are the workhorses
    // of the CNN engine: every convolution/dense tap is one `mul_scalar`.

    /// Per-limb residues of `⌊c·scale⌉`.
    fn scalar_residues(&self, c: f64, scale: f64, level: usize) -> Vec<u64> {
        let v = c * scale;
        assert!(
            v.abs() < 9.2e18,
            "scalar {c} at scale {scale} overflows the fast path"
        );
        let vi = v.round() as i64;
        self.ctx.chain_moduli()[..=level]
            .iter()
            .map(|m| m.from_i64(vi))
            .collect()
    }

    /// Multiplies by the constant `c` encoded at `pt_scale` (result scale
    /// is the product; rescale afterwards). Exact-scale bookkeeping.
    pub fn mul_scalar(&self, ct: &Ciphertext, c: f64, pt_scale: f64) -> Ciphertext {
        let mut out = ct.clone();
        self.mul_scalar_assign(&mut out, c, pt_scale);
        out
    }

    /// In-place variant of [`Evaluator::mul_scalar`].
    pub fn mul_scalar_assign(&self, ct: &mut Ciphertext, c: f64, pt_scale: f64) {
        let residues = self.scalar_residues(c, pt_scale, ct.level);
        ct.c0.mul_scalar_per_limb(&residues);
        ct.c1.mul_scalar_per_limb(&residues);
        ct.scale *= pt_scale;
    }

    /// Fused multiply-accumulate with a scalar: `acc += c·x`, where `c` is
    /// encoded at `pt_scale` and `acc.scale` must equal `x.scale·pt_scale`.
    pub fn mul_scalar_acc(&self, acc: &mut Ciphertext, x: &Ciphertext, c: f64, pt_scale: f64) {
        let prep = self.prepare_scalar(c, pt_scale, x.level);
        self.mul_residues_acc(acc, x, &prep);
    }

    /// Encodes the scalar `c` at `pt_scale` for use at `level`: reduced
    /// per-limb residues plus their Shoup precomputations. Preparing once
    /// and replaying via [`Evaluator::mul_residues_acc`] hoists the
    /// encode + `shoup` cost (one 128-bit division per limb) out of MAC
    /// loops where the same weight multiplies many ciphertexts — e.g. a
    /// conv kernel tap reused at every output position.
    pub fn prepare_scalar(&self, c: f64, pt_scale: f64, level: usize) -> PreparedScalar {
        let residues = self.scalar_residues(c, pt_scale, level);
        let moduli = self.ctx.chain_moduli();
        let mut r = Vec::with_capacity(level + 1);
        let mut r_shoup = Vec::with_capacity(level + 1);
        for (li, &res) in residues.iter().enumerate() {
            let m = moduli[li];
            let red = m.reduce(res);
            r.push(red);
            r_shoup.push(m.shoup(red));
        }
        PreparedScalar {
            r,
            r_shoup,
            level,
            pt_scale,
        }
    }

    /// `acc += w·x` where `w` was encoded by [`Evaluator::prepare_scalar`]
    /// at `x.level`. Bit-identical to [`Evaluator::mul_scalar_acc`] with
    /// the same scalar — only the per-call encode work is skipped.
    pub fn mul_residues_acc(&self, acc: &mut Ciphertext, x: &Ciphertext, w: &PreparedScalar) {
        he_trace::record_scalar_mac(1);
        he_trace::record_modmul_limbs(2 * (x.level as u64 + 1));
        assert_eq!(acc.level, x.level, "level mismatch");
        assert_eq!(w.level, x.level, "prepared scalar level mismatch");
        assert!(
            (acc.scale / (x.scale * w.pt_scale) - 1.0).abs() < SCALE_RTOL,
            "accumulator scale mismatch"
        );
        let moduli = self.ctx.chain_moduli();
        let backend = kernel::active_backend();
        for li in 0..=x.level {
            let m = moduli[li];
            let r = w.r[li];
            let rs = w.r_shoup[li];
            for (poly_acc, poly_x) in [
                (acc.c0.limb_mut(li), x.c0.limb(li)),
                (acc.c1.limb_mut(li), x.c1.limb(li)),
            ] {
                kernel::fused_mac_shoup_with(backend, &m, poly_acc, poly_x, r, rs);
            }
        }
    }

    /// Adds the constant `c` (encoded exactly at the ciphertext's own
    /// scale) to every slot.
    pub fn add_scalar(&self, ct: &Ciphertext, c: f64) -> Ciphertext {
        let mut out = ct.clone();
        self.add_scalar_assign(&mut out, c);
        out
    }

    /// In-place variant of [`Evaluator::add_scalar`].
    pub fn add_scalar_assign(&self, ct: &mut Ciphertext, c: f64) {
        let residues = self.scalar_residues(c, ct.scale, ct.level);
        let moduli = self.ctx.chain_moduli();
        for li in 0..=ct.level {
            let m = moduli[li];
            let r = residues[li];
            for v in ct.c0.limb_mut(li).iter_mut() {
                *v = m.add(*v, r);
            }
        }
    }

    /// An all-zero ciphertext at the given scale/level/slots — the seed of
    /// homomorphic accumulations. (Decrypts to zero exactly; it carries no
    /// randomness, which is fine for an accumulator that immediately
    /// absorbs real ciphertexts.)
    pub fn zero_ciphertext(&self, scale: f64, level: usize, slots: usize) -> Ciphertext {
        use ckks_math::poly::{Form, RnsPoly};
        let indices: Vec<usize> = (0..=level).collect();
        Ciphertext {
            c0: RnsPoly::zero(Arc::clone(self.ctx.poly_ctx()), indices.clone(), Form::Ntt),
            c1: RnsPoly::zero(Arc::clone(self.ctx.poly_ctx()), indices, Form::Ntt),
            scale,
            level,
            slots,
        }
    }

    // ---------------------------------------------------------------
    // Multiplication + relinearization
    // ---------------------------------------------------------------

    /// Full `Mult(c₁, c₂, ek)`: tensor product then relinearization.
    pub fn multiply(&self, a: &Ciphertext, b: &Ciphertext, rk: &RelinKey) -> Ciphertext {
        let (d0, d1, d2) = self.tensor(a, b);
        self.relinearize(d0, d1, d2, a, b, rk)
    }

    /// `Mult` followed by `Resc` — the usual composition.
    pub fn multiply_rescale(&self, a: &Ciphertext, b: &Ciphertext, rk: &RelinKey) -> Ciphertext {
        let prod = self.multiply(a, b, rk);
        self.rescale(&prod)
    }

    /// Homomorphic square (saves one of the three tensor products).
    pub fn square(&self, a: &Ciphertext, rk: &RelinKey) -> Ciphertext {
        he_trace::record_ct_mult(1);
        let mut d0 = a.c0.clone();
        d0.mul_assign(&a.c0);
        let mut d1 = a.c0.clone();
        d1.mul_assign(&a.c1);
        let d1c = d1.clone();
        d1.add_assign(&d1c); // 2·c0·c1
        let mut d2 = a.c1.clone();
        d2.mul_assign(&a.c1);
        self.relinearize(d0, d1, d2, a, a, rk)
    }

    /// Degree-2 tensor product `(d₀, d₁, d₂)`; exposed for tests and the
    /// bignum cross-validation.
    pub fn tensor(&self, a: &Ciphertext, b: &Ciphertext) -> (RnsPoly, RnsPoly, RnsPoly) {
        he_trace::record_ct_mult(1);
        assert_eq!(a.level, b.level, "level mismatch (mod-switch first)");
        let mut d0 = a.c0.clone();
        d0.mul_assign(&b.c0);
        let mut d1 = a.c0.clone();
        d1.mul_assign(&b.c1);
        let mut t = a.c1.clone();
        t.mul_assign(&b.c0);
        d1.add_assign(&t);
        let mut d2 = a.c1.clone();
        d2.mul_assign(&b.c1);
        (d0, d1, d2)
    }

    fn relinearize(
        &self,
        d0: RnsPoly,
        d1: RnsPoly,
        d2: RnsPoly,
        a: &Ciphertext,
        b: &Ciphertext,
        rk: &RelinKey,
    ) -> Ciphertext {
        he_trace::record_relin(1);
        let _span = he_trace::span("relin", he_trace::cats::HE);
        let (u0, u1) = self.key_switch(&d2, &rk.0);
        let mut c0 = d0;
        c0.add_assign(&u0);
        let mut c1 = d1;
        c1.add_assign(&u1);
        Ciphertext {
            c0,
            c1,
            scale: a.scale * b.scale,
            level: a.level,
            slots: a.slots.max(b.slots),
        }
    }

    // ---------------------------------------------------------------
    // Key switching
    // ---------------------------------------------------------------

    /// Switches the poly `d` (NTT form, limbs `0..=ℓ`), interpreted as a
    /// coefficient multiplying the key-switching key's source key, into a
    /// pair `(u₀, u₁)` with `u₀ + u₁·s ≈ d·w`.
    ///
    /// Digit `j` is the residue polynomial `[d]_{q_j}`: one inverse NTT of
    /// `d` yields every digit's coefficients, and digit `j`'s own limb is
    /// limb `j` of `d` as given, so only the other limbs are transformed.
    pub fn key_switch(&self, d: &RnsPoly, ksk: &KeySwitchKey) -> (RnsPoly, RnsPoly) {
        he_trace::record_keyswitch(1);
        let _span = he_trace::span("keyswitch", he_trace::cats::HE);
        let level = d.num_limbs() - 1;
        let chain_len = self.ctx.poly_ctx().chain_len();
        assert!(level < chain_len);

        let mut d_coeff = d.clone();
        d_coeff.ntt_inverse();

        let ext_indices: Vec<usize> = match ksk.variant {
            KsVariant::Ghs => (0..=level)
                .chain(self.ctx.poly_ctx().special_indices())
                .collect(),
            KsVariant::Bv => (0..=level).collect(),
        };

        let mut acc0 = RnsPoly::zero(Arc::clone(self.ctx.poly_ctx()), ext_indices, Form::Ntt);
        let mut acc1 = acc0.clone();
        let mut digit = acc0.clone();
        for j in 0..=level {
            digit.set_digit_ntt(d_coeff.limb(j), j, d.limb(j));
            acc0.mul_acc_subset(&digit, &ksk.digits[j].0);
            acc1.mul_acc_subset(&digit, &ksk.digits[j].1);
        }

        match ksk.variant {
            KsVariant::Ghs => (self.mod_down(acc0), self.mod_down(acc1)),
            KsVariant::Bv => (acc0, acc1),
        }
    }

    /// Divides by the special modulus `P` and drops its limb:
    /// `c ← (c − [c]_P) · P⁻¹ mod q_i`.
    fn mod_down(&self, mut acc: RnsPoly) -> RnsPoly {
        debug_assert_eq!(
            acc.limb_indices().last(),
            Some(&self.ctx.poly_ctx().chain_len()),
            "expected exactly one special limb at the end"
        );
        let chain_limbs = acc.num_limbs() - 1;
        acc.divide_by_last_limb(&self.ctx.p_inv_mod_qi()[..chain_limbs]);
        acc
    }

    // ---------------------------------------------------------------
    // Rescaling and level management
    // ---------------------------------------------------------------

    /// `Resc(c)`: divides by the top prime `q_ℓ`, dropping one level and
    /// dividing the scale by `q_ℓ`. Panics at level 0; use
    /// [`Evaluator::try_rescale`] for a typed error.
    pub fn rescale(&self, ct: &Ciphertext) -> Ciphertext {
        self.try_rescale(ct).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Evaluator::rescale`].
    pub fn try_rescale(&self, ct: &Ciphertext) -> Result<Ciphertext, HeError> {
        if ct.level < 1 {
            return Err(HeError::LevelExhausted {
                op: "rescale",
                level: ct.level,
                needed: 1,
            });
        }
        he_trace::record_rescale(1);
        let _span = he_trace::span("rescale", he_trace::cats::HE);
        let k = ct.level;
        let inv = self.ctx.rescale_inv(k);
        let rescale_poly = |poly: &RnsPoly| -> RnsPoly {
            let mut p = poly.clone();
            p.divide_by_last_limb(inv);
            p
        };

        Ok(Ciphertext {
            c0: rescale_poly(&ct.c0),
            c1: rescale_poly(&ct.c1),
            scale: ct.scale / self.ctx.chain_moduli()[k].value() as f64,
            level: ct.level - 1,
            slots: ct.slots,
        })
    }

    /// Drops limbs down to `level` without changing the scale (modulus
    /// switching used for level alignment before additions). Panics on an
    /// upward switch; use [`Evaluator::try_mod_switch_to_level`] for a
    /// typed error.
    pub fn mod_switch_to_level(&self, ct: &Ciphertext, level: usize) -> Ciphertext {
        self.try_mod_switch_to_level(ct, level)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Evaluator::mod_switch_to_level`].
    pub fn try_mod_switch_to_level(
        &self,
        ct: &Ciphertext,
        level: usize,
    ) -> Result<Ciphertext, HeError> {
        if level > ct.level {
            return Err(HeError::ModSwitchUpward {
                from: ct.level,
                to: level,
            });
        }
        if level == ct.level {
            return Ok(ct.clone());
        }
        let mut out = ct.clone();
        out.c0.truncate_limbs(level + 1);
        out.c1.truncate_limbs(level + 1);
        out.level = level;
        Ok(out)
    }

    // ---------------------------------------------------------------
    // Rotations and conjugation
    // ---------------------------------------------------------------

    /// `Rot(c, r)`: rotates slots left by `r` (negative = right) using the
    /// appropriate Galois key. Panics when the key is absent; use
    /// [`Evaluator::try_rotate`] for a typed error naming the keys that
    /// do exist.
    pub fn rotate(&self, ct: &Ciphertext, steps: i64, gk: &GaloisKeys) -> Ciphertext {
        self.try_rotate(ct, steps, gk)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Evaluator::rotate`].
    pub fn try_rotate(
        &self,
        ct: &Ciphertext,
        steps: i64,
        gk: &GaloisKeys,
    ) -> Result<Ciphertext, HeError> {
        if steps.rem_euclid(ct.slots as i64) == 0 {
            return Ok(ct.clone());
        }
        let g = self.ctx.galois_element_for_rotation(steps);
        self.try_apply_galois(ct, g, gk)
    }

    /// Complex conjugation of every slot.
    pub fn conjugate(&self, ct: &Ciphertext, gk: &GaloisKeys) -> Ciphertext {
        self.try_conjugate(ct, gk).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Evaluator::conjugate`].
    pub fn try_conjugate(&self, ct: &Ciphertext, gk: &GaloisKeys) -> Result<Ciphertext, HeError> {
        let g = self.ctx.galois_element_conjugate();
        self.try_apply_galois(ct, g, gk)
    }

    fn try_apply_galois(
        &self,
        ct: &Ciphertext,
        g: usize,
        gk: &GaloisKeys,
    ) -> Result<Ciphertext, HeError> {
        let ksk = gk.get(g).ok_or_else(|| {
            let mut available: Vec<usize> = gk.elements().collect();
            available.sort_unstable();
            HeError::MissingGaloisKey { elem: g, available }
        })?;
        he_trace::record_rotation(1);
        let _span = he_trace::span("galois", he_trace::cats::HE);
        // σ_g permutes NTT slots: no transform until key switching.
        let mut c0g = ct.c0.automorphism_ntt(g);
        let c1g = ct.c1.automorphism_ntt(g);
        let (u0, u1) = self.key_switch(&c1g, ksk);
        c0g.add_assign(&u0);
        Ok(Ciphertext {
            c0: c0g,
            c1: u1,
            scale: ct.scale,
            level: ct.level,
            slots: ct.slots,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyGenerator;
    use crate::params::CkksParams;

    struct Fixture {
        ctx: Arc<CkksContext>,
        sk: SecretKey,
        pk: PublicKey,
        rk: RelinKey,
        ev: Evaluator,
        sampler: Sampler,
    }

    fn fixture(depth: usize, seed: u64) -> Fixture {
        let ctx = CkksParams::tiny(depth).build();
        let mut kg = KeyGenerator::new(Arc::clone(&ctx), seed);
        let sk = kg.gen_secret_key();
        let pk = kg.gen_public_key(&sk);
        let rk = kg.gen_relin_key(&sk);
        let ev = Evaluator::new(Arc::clone(&ctx));
        Fixture {
            ctx,
            sk,
            pk,
            rk,
            ev,
            sampler: Sampler::from_seed(seed + 1000),
        }
    }

    fn max_err(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let mut f = fixture(2, 11);
        let vals: Vec<f64> = (0..f.ctx.slots())
            .map(|i| (i as f64 * 0.01).sin())
            .collect();
        let ct = f.ev.encrypt_real(&vals, &f.pk, &mut f.sampler);
        let back = f.ev.decrypt_to_real(&ct, &f.sk);
        assert!(
            max_err(&back, &vals) < 5e-4,
            "err {}",
            max_err(&back, &vals)
        );
    }

    #[test]
    fn homomorphic_addition() {
        let mut f = fixture(1, 12);
        let a: Vec<f64> = (0..256).map(|i| i as f64 * 0.001).collect();
        let b: Vec<f64> = (0..256).map(|i| 0.5 - i as f64 * 0.002).collect();
        let ca = f.ev.encrypt_real(&a, &f.pk, &mut f.sampler);
        let cb = f.ev.encrypt_real(&b, &f.pk, &mut f.sampler);
        let sum = f.ev.add(&ca, &cb);
        let back = f.ev.decrypt_to_real(&sum, &f.sk);
        let expect: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        assert!(max_err(&back[..256], &expect) < 5e-4);
        // subtraction recovers a
        let diff = f.ev.sub(&sum, &cb);
        let back = f.ev.decrypt_to_real(&diff, &f.sk);
        assert!(max_err(&back[..256], &a) < 5e-4);
    }

    #[test]
    fn homomorphic_multiplication_with_rescale() {
        let mut f = fixture(2, 13);
        let a: Vec<f64> = (0..128).map(|i| (i as f64 * 0.05).cos()).collect();
        let b: Vec<f64> = (0..128).map(|i| (i as f64 * 0.03).sin()).collect();
        let ca = f.ev.encrypt_real(&a, &f.pk, &mut f.sampler);
        let cb = f.ev.encrypt_real(&b, &f.pk, &mut f.sampler);
        let prod = f.ev.multiply_rescale(&ca, &cb, &f.rk);
        assert_eq!(prod.level, f.ctx.max_level() - 1);
        let back = f.ev.decrypt_to_real(&prod, &f.sk);
        let expect: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x * y).collect();
        let err = max_err(&back[..128], &expect);
        assert!(err < 1e-3, "mult error {err}");
    }

    #[test]
    fn square_matches_multiply() {
        let mut f = fixture(2, 14);
        let a: Vec<f64> = (0..64).map(|i| 0.02 * i as f64 - 0.5).collect();
        let ca = f.ev.encrypt_real(&a, &f.pk, &mut f.sampler);
        let sq = f.ev.rescale(&f.ev.square(&ca, &f.rk));
        let mu = f.ev.multiply_rescale(&ca, &ca, &f.rk);
        let b1 = f.ev.decrypt_to_real(&sq, &f.sk);
        let b2 = f.ev.decrypt_to_real(&mu, &f.sk);
        assert!(max_err(&b1[..64], &b2[..64]) < 1e-4);
        let expect: Vec<f64> = a.iter().map(|x| x * x).collect();
        assert!(max_err(&b1[..64], &expect) < 1e-3);
    }

    #[test]
    fn multiplication_depth_chain() {
        // (((x * x) * x) * x) across 3 levels
        let mut f = fixture(3, 15);
        let a: Vec<f64> = (0..32).map(|i| 0.3 + 0.01 * i as f64).collect();
        let ca = f.ev.encrypt_real(&a, &f.pk, &mut f.sampler);
        let x2 = f.ev.multiply_rescale(&ca, &ca, &f.rk);
        let ca_l = f.ev.mod_switch_to_level(&ca, x2.level);
        let x3 = f.ev.multiply_rescale(&x2, &ca_l, &f.rk);
        let ca_l2 = f.ev.mod_switch_to_level(&ca, x3.level);
        let x4 = f.ev.multiply_rescale(&x3, &ca_l2, &f.rk);
        assert_eq!(x4.level, 0);
        let back = f.ev.decrypt_to_real(&x4, &f.sk);
        let expect: Vec<f64> = a.iter().map(|x| x.powi(4)).collect();
        let err = max_err(&back[..32], &expect);
        assert!(err < 5e-2, "depth-3 error {err}");
    }

    #[test]
    fn plaintext_operations() {
        let mut f = fixture(2, 16);
        let a: Vec<f64> = (0..64).map(|i| 0.1 * i as f64).collect();
        let w: Vec<f64> = (0..64).map(|i| ((i % 7) as f64 - 3.0) * 0.1).collect();
        let ca = f.ev.encrypt_real(&a, &f.pk, &mut f.sampler);
        // add_plain
        let pw = encoding::encode_real(&f.ctx, &w, ca.scale, ca.level);
        let sum = f.ev.add_plain(&ca, &pw);
        let back = f.ev.decrypt_to_real(&sum, &f.sk);
        let expect: Vec<f64> = a.iter().zip(&w).map(|(x, y)| x + y).collect();
        assert!(max_err(&back[..64], &expect) < 1e-4);
        // mul_plain + rescale
        let pw2 = encoding::encode_real(&f.ctx, &w, f.ctx.params().scale(), ca.level);
        let prod = f.ev.rescale(&f.ev.mul_plain(&ca, &pw2));
        let back = f.ev.decrypt_to_real(&prod, &f.sk);
        let expect: Vec<f64> = a.iter().zip(&w).map(|(x, y)| x * y).collect();
        assert!(max_err(&back[..64], &expect) < 1e-3);
    }

    #[test]
    fn mul_const_rescale_works() {
        let mut f = fixture(1, 17);
        let a: Vec<f64> = (0..16).map(|i| i as f64 * 0.1).collect();
        let ca = f.ev.encrypt_real(&a, &f.pk, &mut f.sampler);
        let c = encoding::encode_constant(&f.ctx, -2.5, f.ctx.params().scale(), ca.level);
        let out = f.ev.rescale(&f.ev.mul_plain(&ca, &c));
        let back = f.ev.decrypt_to_real(&out, &f.sk);
        let expect: Vec<f64> = a.iter().map(|x| x * -2.5).collect();
        assert!(max_err(&back[..16], &expect) < 1e-3);
    }

    #[test]
    fn rotation() {
        let mut f = fixture(1, 18);
        let mut kg = KeyGenerator::new(Arc::clone(&f.ctx), 18);
        let _ = kg.gen_secret_key(); // re-derive same sk deterministically
        let slots = f.ctx.slots();
        let vals: Vec<f64> = (0..slots).map(|i| i as f64 / slots as f64).collect();
        let gk = {
            // need keys for the SAME secret as the fixture — regenerate with
            // a fresh generator bound to sk
            let mut kg2 = KeyGenerator::new(Arc::clone(&f.ctx), 9999);
            let _ = kg2.sampler(); // silence unused
            kg2.gen_galois_keys(&f.sk, &[1, 3, -2], true)
        };
        let ct = f.ev.encrypt_real(&vals, &f.pk, &mut f.sampler);
        for &r in &[1i64, 3, -2] {
            let rot = f.ev.rotate(&ct, r, &gk);
            let back = f.ev.decrypt_to_real(&rot, &f.sk);
            let expect: Vec<f64> = (0..slots)
                .map(|i| vals[(i as i64 + r).rem_euclid(slots as i64) as usize])
                .collect();
            let err = max_err(&back, &expect);
            assert!(err < 1e-3, "rotation {r} error {err}");
        }
        // rotation by 0 is identity
        let rot0 = f.ev.rotate(&ct, 0, &gk);
        let back = f.ev.decrypt_to_real(&rot0, &f.sk);
        assert!(max_err(&back, &vals) < 5e-4);
    }

    #[test]
    fn conjugation() {
        let mut f = fixture(1, 19);
        let gk = {
            let mut kg2 = KeyGenerator::new(Arc::clone(&f.ctx), 777);
            kg2.gen_galois_keys(&f.sk, &[], true)
        };
        let vals: Vec<Complex> = (0..64)
            .map(|i| Complex::new(0.1 * i as f64, -0.05 * i as f64))
            .collect();
        let pt = encoding::encode(&f.ctx, &vals, f.ctx.params().scale(), f.ctx.max_level());
        let ct = f.ev.encrypt(&pt, &f.pk, &mut f.sampler);
        let conj = f.ev.conjugate(&ct, &gk);
        let back = f.ev.decrypt_to_complex(&conj, &f.sk);
        for (b, v) in back.iter().zip(&vals) {
            assert!((*b - v.conj()).abs() < 1e-3, "{b:?} vs {:?}", v.conj());
        }
    }

    #[test]
    fn bv_relinearization_works_but_noisier() {
        let a: Vec<f64> = (0..32).map(|i| 0.5 + 0.01 * i as f64).collect();
        let expect: Vec<f64> = a.iter().map(|x| x * x).collect();
        // BV noise scales with q_j·N·σ and is dominated by the key
        // draw, so average over independent (key, encryption) streams
        // rather than pinning a single draw.
        const STREAMS: u64 = 12;
        let (mut sum_ghs, mut sum_bv) = (0.0f64, 0.0f64);
        for stream in 0..STREAMS {
            let f = fixture(2, 20 + stream);
            let mut kg = KeyGenerator::new(Arc::clone(&f.ctx), 555 + stream);
            let rk_bv = kg.gen_relin_key_variant(&f.sk, KsVariant::Bv);
            let mut s = Sampler::from_seed_stream(1020, stream);
            let ca = f.ev.encrypt_real(&a, &f.pk, &mut s);
            let ghs = f.ev.multiply_rescale(&ca, &ca, &f.rk);
            let bv = f.ev.multiply_rescale(&ca, &ca, &rk_bv);
            sum_ghs += max_err(&f.ev.decrypt_to_real(&ghs, &f.sk)[..32], &expect);
            sum_bv += max_err(&f.ev.decrypt_to_real(&bv, &f.sk)[..32], &expect);
        }
        let avg_ghs = sum_ghs / STREAMS as f64;
        let avg_bv = sum_bv / STREAMS as f64;
        // both correct to coarse precision, GHS strictly tighter
        assert!(avg_ghs < 1e-3, "GHS error {avg_ghs}");
        assert!(avg_bv < 0.3, "BV error {avg_bv}");
        assert!(avg_ghs < avg_bv, "GHS {avg_ghs} should beat BV {avg_bv}");
    }

    #[test]
    fn mod_switch_alignment() {
        let mut f = fixture(2, 21);
        let a: Vec<f64> = (0..16).map(|i| i as f64 * 0.01).collect();
        let ca = f.ev.encrypt_real(&a, &f.pk, &mut f.sampler);
        let cb = f.ev.encrypt_real(&a, &f.pk, &mut f.sampler);
        let prod = f.ev.multiply_rescale(&ca, &cb, &f.rk); // level L-1
        let y = f.ev.mod_switch_to_level(&ca, prod.level);
        assert_eq!(y.level, prod.level);
        // decryption of the mod-switched fresh ct is unchanged
        let back = f.ev.decrypt_to_real(&y, &f.sk);
        assert!(max_err(&back[..16], &a) < 1e-4);
    }

    #[test]
    fn scalar_fast_paths_match_slow_paths() {
        let mut f = fixture(2, 30);
        let vals: Vec<f64> = (0..32).map(|i| 0.05 * i as f64 - 0.8).collect();
        let ct = f.ev.encrypt_real(&vals, &f.pk, &mut f.sampler);
        let scale = f.ctx.params().scale();

        // mul_scalar ≈ mul_plain with a constant vector
        let fast = f.ev.rescale(&f.ev.mul_scalar(&ct, -1.75, scale));
        let pt = encoding::encode_constant(&f.ctx, -1.75, scale, ct.level);
        let slow = f.ev.rescale(&f.ev.mul_plain(&ct, &pt));
        let bf = f.ev.decrypt_to_real(&fast, &f.sk);
        let bs = f.ev.decrypt_to_real(&slow, &f.sk);
        assert!(max_err(&bf[..32], &bs[..32]) < 1e-4);

        // add_scalar
        let added = f.ev.add_scalar(&ct, 0.33);
        let back = f.ev.decrypt_to_real(&added, &f.sk);
        let expect: Vec<f64> = vals.iter().map(|v| v + 0.33).collect();
        assert!(max_err(&back[..32], &expect) < 5e-4);
    }

    #[test]
    fn scalar_accumulate_weighted_sum() {
        // the conv inner loop: acc = Σ wᵢ·ctᵢ at scale s·Δ, then rescale
        let mut f = fixture(2, 31);
        let scale = f.ctx.params().scale();
        let xs = [vec![0.5f64; 8], vec![-0.25f64; 8], vec![0.125f64; 8]];
        let ws = [1.5f64, -2.0, 4.0];
        let cts: Vec<_> = xs
            .iter()
            .map(|v| f.ev.encrypt_real(v, &f.pk, &mut f.sampler))
            .collect();
        let mut acc =
            f.ev.zero_ciphertext(cts[0].scale * scale, cts[0].level, cts[0].slots);
        for (ct, &w) in cts.iter().zip(&ws) {
            f.ev.mul_scalar_acc(&mut acc, ct, w, scale);
        }
        f.ev.add_scalar_assign(&mut acc, 0.1);
        let out = f.ev.rescale(&acc);
        let back = f.ev.decrypt_to_real(&out, &f.sk);
        let expect = 0.5 * 1.5 + 0.25 * 2.0 + 0.125 * 4.0 + 0.1;
        assert!((back[0] - expect).abs() < 1e-3, "{} vs {expect}", back[0]);
    }

    #[test]
    fn exact_scale_degree3_polynomial() {
        // σ(x) = c0 + c1·x + c2·x² + c3·x³ with the exact-scale recipe the
        // CNN engine uses; verifies scales line up with strict adds.
        let mut f = fixture(3, 32);
        let c = [0.25f64, -0.5, 0.75, 0.125];
        let vals: Vec<f64> = (0..16).map(|i| -1.2 + 0.15 * i as f64).collect();
        let x = f.ev.encrypt_real(&vals, &f.pk, &mut f.sampler);
        let s = x.scale;
        let m = x.level;
        let q = |lvl: usize| f.ctx.chain_moduli()[lvl].value() as f64;

        let x2r = f.ev.rescale(&f.ev.square(&x, &f.rk)); // s²/q_m @ m-1
        let y3 = {
            let t = f.ev.rescale(&f.ev.mul_scalar(&x, c[3], q(m))); // s @ m-1
            f.ev.rescale(&f.ev.multiply(&t, &x2r, &f.rk)) // s³/(q_m q_{m-1}) @ m-2
        };
        let y2 = f.ev.rescale(&f.ev.mul_scalar(&x2r, c[2], s)); // s³/(q_m q_{m-1})... wait: (s²/q_m)·s/q_{m-1}
        let y1 = {
            let t = f.ev.rescale(&f.ev.mul_scalar(&x, c[1], s)); // s²/q_m @ m-1
            f.ev.rescale(&f.ev.mul_scalar(&t, 1.0, s)) // s³/(q_m q_{m-1}) @ m-2
        };
        let mut acc = f.ev.add(&y3, &y2);
        acc = f.ev.add(&acc, &y1);
        f.ev.add_scalar_assign(&mut acc, c[0]);
        let back = f.ev.decrypt_to_real(&acc, &f.sk);
        for (i, &v) in vals.iter().enumerate() {
            let want = c[0] + c[1] * v + c[2] * v * v + c[3] * v * v * v;
            assert!(
                (back[i] - want).abs() < 5e-3,
                "slot {i}: {} vs {want}",
                back[i]
            );
        }
    }

    #[test]
    #[should_panic(expected = "scale mismatch")]
    fn mismatched_scales_rejected() {
        let mut f = fixture(2, 22);
        let a = vec![0.1; 8];
        let ca = f.ev.encrypt_real(&a, &f.pk, &mut f.sampler);
        let cb = f.ev.encrypt_real(&a, &f.pk, &mut f.sampler);
        let prod = f.ev.multiply(&ca, &cb, &f.rk); // scale Δ², same level
        let _ = f.ev.add(&prod, &f.ev.mod_switch_to_level(&ca, prod.level));
    }

    #[test]
    #[should_panic(expected = "no levels left")]
    fn rescale_at_level_zero_panics() {
        let mut f = fixture(1, 23);
        let ca = f.ev.encrypt_real(&[0.5], &f.pk, &mut f.sampler);
        let r1 = f.ev.rescale(&ca);
        let _ = f.ev.rescale(&r1);
    }

    #[test]
    fn try_variants_return_typed_errors() {
        let mut f = fixture(1, 25);
        let ca = f.ev.encrypt_real(&[0.5; 8], &f.pk, &mut f.sampler);

        // rotation without any Galois keys
        let gk = GaloisKeys::default();
        match f.ev.try_rotate(&ca, 1, &gk) {
            Err(crate::error::HeError::MissingGaloisKey { elem, available }) => {
                assert_eq!(elem, f.ctx.galois_element_for_rotation(1));
                assert!(available.is_empty());
            }
            other => panic!("expected MissingGaloisKey, got {other:?}"),
        }

        // the error names the keys that DO exist
        let mut kg = KeyGenerator::new(Arc::clone(&f.ctx), 7);
        let gk = kg.gen_galois_keys(&f.sk, &[1], false);
        match f.ev.try_rotate(&ca, 3, &gk) {
            Err(crate::error::HeError::MissingGaloisKey { available, .. }) => {
                assert_eq!(available, vec![f.ctx.galois_element_for_rotation(1)]);
            }
            other => panic!("expected MissingGaloisKey, got {other:?}"),
        }

        // rescale past level 0
        let r0 = f.ev.rescale(&ca);
        assert!(matches!(
            f.ev.try_rescale(&r0),
            Err(crate::error::HeError::LevelExhausted { level: 0, .. })
        ));

        // upward mod-switch
        assert!(matches!(
            f.ev.try_mod_switch_to_level(&r0, 1),
            Err(crate::error::HeError::ModSwitchUpward { from: 0, to: 1 })
        ));

        // happy paths still work through the fallible API
        assert!(f.ev.try_rescale(&ca).is_ok());
        assert!(f.ev.try_mod_switch_to_level(&ca, 0).is_ok());
        assert!(f.ev.try_rotate(&ca, 0, &GaloisKeys::default()).is_ok());
    }

    #[test]
    fn wrong_key_decrypts_garbage() {
        let mut f = fixture(1, 24);
        let mut kg = KeyGenerator::new(Arc::clone(&f.ctx), 31337);
        let wrong_sk = kg.gen_secret_key();
        let vals = vec![0.25; 32];
        let ct = f.ev.encrypt_real(&vals, &f.pk, &mut f.sampler);
        let back = f.ev.decrypt_to_real(&ct, &wrong_sk);
        let err = max_err(&back[..32], &vals);
        assert!(err > 1.0, "wrong key should not decrypt (err {err})");
    }
}
