//! The homomorphic evaluator: encryption, decryption and all ciphertext
//! operations of the paper's §II — `Add`, `Mult` (+ relinearization),
//! `Resc`, `Rot` — plus plaintext-operand variants and level management.
//!
//! Every division that drops limbs — `Resc` by the top prime, a key
//! switch's mod-down by `P` — is [`RnsPoly::divide_by_last_limbs`]
//! through a fast base conversion, and every rotation is
//! [`Evaluator::mod_down`] of its extended form
//! ([`Evaluator::rotate_ext`]): an [`ExtCiphertext`] over the key-switch
//! basis, which [`Evaluator::mul_plain_ext`], [`Evaluator::mac_plain_ext`]
//! and [`Evaluator::add_ext`] can also keep there, so that one `mod_down`
//! divides a whole sum by `P` — the hoisted mod-down of Bossuat et al.
//! (EUROCRYPT 2021). Each is one call, refusing malformed operands with a
//! typed [`HeError`], so the he-ir interpreter still maps every circuit
//! node to exactly one evaluator call.

use crate::ciphertext::{Ciphertext, ExtCiphertext};
use crate::encoding::{self, Plaintext};
use crate::error::HeError;
use crate::keys::{GaloisKeys, KeySwitchKey, PublicKey, RelinKey, SecretKey};
use crate::params::CkksContext;
use ckks_math::fft::Complex;
use ckks_math::kernel;
use ckks_math::ntt::galois_permutation;
use ckks_math::poly::{Form, RnsPoly};
use ckks_math::sampler::Sampler;
use rayon::prelude::*;
use std::ops::Range;
use std::sync::Arc;

/// Relative tolerance for scale compatibility in additions.
pub const SCALE_RTOL: f64 = 1e-9;

/// Whether two scales agree within [`SCALE_RTOL`] (never for a NaN).
pub fn scales_match(a: f64, b: f64) -> bool {
    (a / b - 1.0).abs() < SCALE_RTOL
}

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
            scales_match(a.scale, b.scale),
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
        assert!(scales_match(a.scale, pt.scale), "plaintext scale mismatch");
        let mut out = a.clone();
        out.c0.add_assign(&pt.poly);
        out
    }

    /// Ciphertext × plaintext (no relinearization needed). The result
    /// scale is the product of the scales; rescale afterwards.
    pub fn mul_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Ciphertext {
        assert_eq!(a.level, pt.level, "plaintext level mismatch");
        let mut out = a.clone();
        self.mul_plain_limbs((&mut out.c0, &mut out.c1), &pt.poly);
        out.scale = a.scale * pt.scale;
        out
    }

    /// `acc += x·pt` in place — the diagonal term of a packed matvec
    /// without a fresh product ciphertext, as one fused multiply-add
    /// pass over the limbs (fanned out like `RnsPoly::mul_acc`, same
    /// `modmul_limbs`). Bit-identical to
    /// `add(acc, mul_plain(x, pt))`; `acc` must sit at the level of `x`
    /// and `pt` and at the scale `x.scale·pt.scale`, else a typed error
    /// leaves it untouched.
    pub fn try_mul_plain_acc(
        &self,
        acc: &mut Ciphertext,
        x: &Ciphertext,
        pt: &Plaintext,
    ) -> Result<(), HeError> {
        for level in [x.level, pt.level] {
            if level != acc.level {
                return Err(HeError::LevelMismatch {
                    a: acc.level,
                    b: level,
                });
            }
        }
        let product = x.scale * pt.scale;
        if !scales_match(acc.scale, product) {
            return Err(HeError::ScaleMismatch {
                a: acc.scale,
                b: product,
            });
        }
        self.mac_plain_limbs((&mut acc.c0, &mut acc.c1), (&x.c0, &x.c1), &pt.poly);
        Ok(())
    }

    /// `(c₀, c₁) ← (c₀·w, c₁·w)` in one pass over the limbs, each limb of
    /// `w` read once for both products and its modulus read by context
    /// index: the product of [`Self::mul_plain`] over the chain and of
    /// [`Self::mul_plain_ext`] over the key-switch basis. Panics unless
    /// `w` is in NTT form over the limbs of `c₀`.
    fn mul_plain_limbs(&self, (c0, c1): (&mut RnsPoly, &mut RnsPoly), w: &RnsPoly) {
        assert!(
            w.form() == Form::Ntt && w.limb_indices() == c0.limb_indices(),
            "plaintext not in NTT form over the ciphertext's limbs"
        );
        he_trace::record_modmul_limbs(2 * c0.num_limbs() as u64);
        let (backend, moduli) = (kernel::active_backend(), self.ctx.poly_ctx().moduli());
        let basis = w.limb_indices();
        RnsPoly::for_each_limb_pair(c0, c1, |i, c0, c1| {
            let (m, w) = (&moduli[basis[i]], w.limb(i));
            kernel::dyadic_mul_assign_with(backend, m, c0, w);
            kernel::dyadic_mul_assign_with(backend, m, c1, w);
        });
    }

    /// `(a₀, a₁) += (x₀·w, x₁·w)` in one fused pass over the limbs, like
    /// [`Self::mul_plain_limbs`]: the MAC of [`Self::try_mul_plain_acc`]
    /// and [`Self::mac_plain_ext`], operands already checked.
    fn mac_plain_limbs(
        &self,
        (a0, a1): (&mut RnsPoly, &mut RnsPoly),
        (x0, x1): (&RnsPoly, &RnsPoly),
        w: &RnsPoly,
    ) {
        he_trace::record_modmul_limbs(2 * a0.num_limbs() as u64);
        let (backend, moduli) = (kernel::active_backend(), self.ctx.poly_ctx().moduli());
        let basis = x0.limb_indices();
        RnsPoly::for_each_limb_pair(a0, a1, |i, a0, a1| {
            let (m, w) = (&moduli[basis[i]], w.limb(i));
            kernel::dyadic_mul_acc_with(backend, m, a0, x0.limb(i), w);
            kernel::dyadic_mul_acc_with(backend, m, a1, x1.limb(i), w);
        });
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
    /// at `x.level`, and `acc.scale` must equal `x.scale·w.pt_scale`.
    pub fn mul_residues_acc(&self, acc: &mut Ciphertext, x: &Ciphertext, w: &PreparedScalar) {
        he_trace::record_scalar_mac(1);
        he_trace::record_modmul_limbs(2 * (x.level as u64 + 1));
        assert_eq!(acc.level, x.level, "level mismatch");
        assert_eq!(w.level, x.level, "prepared scalar level mismatch");
        assert!(
            scales_match(acc.scale, x.scale * w.pt_scale),
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
    /// coefficient multiplying the key-switching key's payload, into a
    /// pair `(u₀, u₁)` with `u₀ + u₁·s ≈ d·w` (`s` the key's secret, `w`
    /// its payload): the same decomposition, inner product and mod-down
    /// as a rotation — `decompose`, `inner_product`, then both mod-downs
    /// by `P` in one pass over the chain limbs (`divide_by_p`). Panics on
    /// a `d` that is not an NTT-form
    /// poly over `0..=ℓ` of the chain.
    pub fn key_switch(&self, d: &RnsPoly, ksk: &KeySwitchKey) -> (RnsPoly, RnsPoly) {
        let level = d.num_limbs() - 1;
        let shape_ok = d.form() == Form::Ntt
            && level < self.ctx.poly_ctx().chain_len()
            && d.limb_indices().iter().copied().eq(0..=level);
        assert!(shape_ok, "key_switch input: not NTT over limbs 0..=level");
        let digits = self.decompose(d, false);
        let zero = RnsPoly::zero(
            Arc::clone(self.ctx.poly_ctx()),
            digits.ext.clone(),
            Form::Ntt,
        );
        let (mut u0, mut u1) = (zero.clone(), zero);
        self.inner_product(d, &digits, ksk, (&mut u0, &mut u1), None);
        self.divide_by_p(&mut u0, &mut u1);
        (u0, u1)
    }

    /// The key-switch digits of `d` at its level ℓ
    /// ([`CkksContext::digits_at`]) over the key-switch basis `ext` (the
    /// chain limbs `0..=ℓ` and the special limbs): one inverse NTT, then
    /// per digit its limbs scaled for the fast base conversion
    /// ([`Digits::lift`] converts a digit into each other limb of `ext`
    /// and forward-transforms it; on its own limbs a digit is `d`
    /// itself). A fan of rotations shares one decomposition because
    /// each rotation applies σ_g only after its switch
    /// ([`Self::apply_galois_ext`]), so every key switch of the fan
    /// decomposes the same `c₁`. With `store` every lift is computed
    /// here, once for a fan; otherwise the one switch reading them lifts
    /// each into its task's scratch as it goes.
    fn decompose(&self, d: &RnsPoly, store: bool) -> Digits {
        let pctx = self.ctx.poly_ctx();
        let (n, level) = (pctx.n(), d.num_limbs() - 1);
        let ext = self.ctx.ks_basis(level);
        let parts: Vec<Range<usize>> = self.ctx.digits_at(level).collect();
        let mut scaled = d.clone();
        scaled.ntt_inverse();
        let backend = kernel::active_backend();
        for (j, part) in parts.iter().enumerate() {
            let conv = self.ctx.digit_converter(j, part.len());
            for (s, i) in part.clone().enumerate() {
                conv.scale_input(backend, s, scaled.limb_mut(i));
            }
        }
        he_trace::record_ntt_fwd(parts.iter().map(|p| ext.len() - p.len()).sum::<usize>() as u64);
        let mut out = Digits {
            ext,
            parts,
            scaled,
            lifted: None,
        };
        if store {
            let dnum = out.parts.len();
            let lift = |(i, limb): (usize, &mut [u64])| {
                for (j, dst) in limb.chunks_mut(n).enumerate() {
                    out.lift(&self.ctx, i, j, dst);
                }
            };
            let mut lifted = vec![0u64; out.ext.len() * dnum * n];
            if kernel::limbs_fan_out(n, out.ext.len()) {
                lifted.par_chunks_mut(dnum * n).enumerate().for_each(lift);
            } else {
                lifted.chunks_mut(dnum * n).enumerate().for_each(lift);
            }
            out.lifted = Some(lifted);
        }
        out
    }

    /// `(c₀, c₁) ← (c₀, c₁)/P`, rounded, over the chain limbs of the
    /// key-switch basis: the mod-down of a key switch, `c ← (c −
    /// conv([c]_P))·P⁻¹ mod q_i` with the special limbs converted back
    /// into the chain ([`RnsPoly::divide_by_last_limbs`]).
    fn divide_by_p(&self, c0: &mut RnsPoly, c1: &mut RnsPoly) {
        let level = c0.num_limbs() - self.ctx.special_moduli().len() - 1;
        let p_inv = &self.ctx.p_inv_mod_qi()[..=level];
        RnsPoly::divide_by_last_limbs(c0, c1, self.ctx.mod_down_converter(), p_inv);
    }

    /// The inner product of `d`'s digits with the key's digit pairs over
    /// the key-switch basis `ext`, limb-major (each task multiplies every
    /// digit's limb into both accumulators): `(u₀·P, u₁·P)` accumulated
    /// onto `out`, before any mod-down. With `galois = (σ_g, P·c₀)` each
    /// task accumulates its limb onto `P·c₀` in a scratch pair instead
    /// and writes the pair through σ_g (the NTT-slot permutation `perm`)
    /// into `out` while it is hot: `(σ_g(P·c₀ + u₀·P), σ_g(u₁·P))`.
    fn inner_product(
        &self,
        d: &RnsPoly,
        digits: &Digits,
        ksk: &KeySwitchKey,
        (out0, out1): (&mut RnsPoly, &mut RnsPoly),
        galois: Option<(&[u32], &RnsPoly)>,
    ) {
        he_trace::record_keyswitch(1);
        let _span = he_trace::span("keyswitch", he_trace::cats::HE);
        let pctx = self.ctx.poly_ctx();
        let n = pctx.n();
        let (ext, dnum) = (&digits.ext, digits.parts.len());
        assert!(
            ksk.digits.len() >= dnum,
            "key has fewer digits than the switch"
        );
        he_trace::record_modmul_limbs(2 * (dnum * ext.len()) as u64);

        let backend = kernel::active_backend();
        let mac = |i: usize, acc0: &mut [u64], acc1: &mut [u64]| {
            let idx = ext[i];
            let m = &pctx.moduli()[idx];
            let mut scratch = Vec::new();
            for (j, ((b, a), part)) in ksk.digits.iter().zip(&digits.parts).enumerate() {
                let digit = match &digits.lifted {
                    _ if part.contains(&idx) => d.limb(idx),
                    Some(lifted) => &lifted[(i * dnum + j) * n..][..n],
                    None => {
                        scratch.resize(n, 0);
                        digits.lift(&self.ctx, i, j, &mut scratch);
                        &scratch
                    }
                };
                kernel::dyadic_mul_acc_with(backend, m, acc0, digit, b.limb_for(idx));
                kernel::dyadic_mul_acc_with(backend, m, acc1, digit, a.limb_for(idx));
            }
        };
        RnsPoly::for_each_limb_pair(out0, out1, |i, out0, out1| match galois {
            None => mac(i, out0, out1),
            Some((perm, p_c0)) => {
                let (mut acc0, mut acc1) = (p_c0.limb(i).to_vec(), vec![0u64; n]);
                mac(i, &mut acc0, &mut acc1);
                for ((o0, o1), &k) in out0.iter_mut().zip(out1.iter_mut()).zip(perm) {
                    (*o0, *o1) = (acc0[k as usize], acc1[k as usize]);
                }
            }
        });
    }

    /// Decomposes `ct.c1` once, storing every digit's lift, and lifts
    /// `c₀` to `P·c₀`, for any number of rotations of `ct`
    /// ([`Self::try_rotate_hoisted`], and before its mod-down
    /// [`Self::rotate_ext_hoisted`]).
    /// Refuses, typed, a ciphertext key switching would misread
    /// ([`Ciphertext::check_shape`]).
    pub fn hoist<'a>(&self, ct: &'a Ciphertext) -> Result<Hoisted<'a>, HeError> {
        self.hoist_stored(ct, true)
    }

    /// [`Self::hoist`]; a lone rotation passes `store = false`.
    fn hoist_stored<'a>(&self, ct: &'a Ciphertext, store: bool) -> Result<Hoisted<'a>, HeError> {
        self.check_ct(ct)?;
        let _span = he_trace::span("hoist", he_trace::cats::HE);
        Ok(Hoisted {
            ct,
            digits: self.decompose(&ct.c1, store),
            p_c0: self.times_p(&ct.c0),
        })
    }

    // ---------------------------------------------------------------
    // Rescaling and level management
    // ---------------------------------------------------------------

    /// `Resc(c)`: divides by the top prime `q_ℓ`, dropping one level and
    /// dividing the scale by `q_ℓ` — [`RnsPoly::divide_by_last_limbs`]
    /// through the one-prime conversion from `{q_ℓ}`
    /// ([`CkksContext::rescale_converter`]), the same division a key
    /// switch's mod-down by `P` runs. Panics at level 0 and on a
    /// malformed ciphertext; use [`Evaluator::try_rescale`] for a typed
    /// error.
    pub fn rescale(&self, ct: &Ciphertext) -> Ciphertext {
        self.try_rescale(ct).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Evaluator::rescale`]: refuses a ciphertext whose level
    /// disagrees with its limbs ([`Ciphertext::check_shape`]) before it
    /// reads any limb.
    pub fn try_rescale(&self, ct: &Ciphertext) -> Result<Ciphertext, HeError> {
        self.check_ct(ct)?;
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
        let (mut c0, mut c1) = (ct.c0.clone(), ct.c1.clone());
        let (conv, q_inv) = (self.ctx.rescale_converter(k), self.ctx.rescale_inv(k));
        RnsPoly::divide_by_last_limbs(&mut c0, &mut c1, conv, q_inv);

        Ok(Ciphertext {
            c0,
            c1,
            scale: ct.scale / self.ctx.chain_moduli()[k].value() as f64,
            level: ct.level - 1,
            slots: ct.slots,
        })
    }

    /// Drops limbs down to `level` without changing the scale (modulus
    /// switching used for level alignment before additions). Panics on an
    /// upward switch and on a malformed ciphertext; use
    /// [`Evaluator::try_mod_switch_to_level`] for a typed error.
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
        self.check_ct(ct)?;
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
    // Rotations
    // ---------------------------------------------------------------

    /// `Rot(c, r)`: rotates slots left by `r` (negative = right) using the
    /// appropriate Galois key. Panics when the key is absent; use
    /// [`Evaluator::try_rotate`] for a typed error naming the keys that
    /// do exist.
    pub fn rotate(&self, ct: &Ciphertext, steps: i64, gk: &GaloisKeys) -> Ciphertext {
        self.try_rotate(ct, steps, gk)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Evaluator::rotate`]: [`Self::hoist`], then
    /// [`Self::try_rotate_hoisted`]. An identity rotation decomposes
    /// nothing.
    pub fn try_rotate(
        &self,
        ct: &Ciphertext,
        steps: i64,
        gk: &GaloisKeys,
    ) -> Result<Ciphertext, HeError> {
        self.check_ct(ct)?;
        if steps.rem_euclid(ct.slots as i64) == 0 {
            return Ok(ct.clone());
        }
        self.try_rotate_hoisted(&self.hoist_stored(ct, false)?, steps, gk)
    }

    /// [`Self::try_rotate`] of the hoisted ciphertext, reusing its
    /// digits and its `P·c₀`: [`Self::mod_down`] of
    /// [`Self::rotate_ext_hoisted`], limb-identical to rotating it
    /// directly. The identity rotation is a clone.
    pub fn try_rotate_hoisted(
        &self,
        h: &Hoisted<'_>,
        steps: i64,
        gk: &GaloisKeys,
    ) -> Result<Ciphertext, HeError> {
        if steps.rem_euclid(h.ct.slots as i64) == 0 {
            return Ok(h.ct.clone());
        }
        self.mod_down(self.rotate_ext_hoisted(h, steps, gk)?)
    }

    /// `ct` refused typed unless key switching and the level operations
    /// can read it ([`Ciphertext::check_shape`]).
    fn check_ct(&self, ct: &Ciphertext) -> Result<(), HeError> {
        ct.check_shape(self.ctx.poly_ctx().chain_len())
            .map_err(HeError::MalformedCiphertext)
    }

    // ---------------------------------------------------------------
    // The key-switch basis
    // ---------------------------------------------------------------
    //
    // Every rotation is `mod_down(rotate_ext(..))`: a key switch and σ_g
    // over the key-switch basis, then a mod-down by `P` — the special
    // limbs of both halves inverse-transformed, and their conversions
    // into the `ℓ + 1` chain limbs forward-transformed. A sum of rotated
    // ciphertexts times plaintexts can divide by `P` once instead:
    // products and sums stay over the key-switch basis, and one
    // `mod_down` divides the sum. Folding `P·c₀` in before the division
    // changes no limb against the textbook `σ_g(c₀ + u₀)`: `P·c₀` is zero
    // modulo every special prime, so it passes the division exactly, and
    // σ_g commutes with the centred fast base conversion.

    /// `x·P` over the key-switch basis at `x`'s level: `x·[P]_{q_i}` on
    /// each chain limb, zero on the special limbs.
    fn times_p(&self, x: &RnsPoly) -> RnsPoly {
        let level = x.num_limbs() - 1;
        he_trace::record_modmul_limbs(level as u64 + 1);
        let pctx = self.ctx.poly_ctx();
        let mut out = RnsPoly::zero(Arc::clone(pctx), self.ctx.ks_basis(level), Form::Ntt);
        let backend = kernel::active_backend();
        for (i, (m, &p)) in self.ctx.chain_moduli()[..=level]
            .iter()
            .zip(self.ctx.p_mod_qi())
            .enumerate()
        {
            let dst = out.limb_mut(i);
            dst.copy_from_slice(x.limb(i));
            kernel::mul_scalar_shoup_with(backend, m, dst, p, m.shoup(p));
        }
        out
    }

    /// The exact lift `P·ct` over the key-switch basis, given `P·c₀`,
    /// which [`Self::mod_down`] returns to `ct` limb for limb.
    fn lift(&self, ct: &Ciphertext, p_c0: RnsPoly) -> ExtCiphertext {
        ExtCiphertext {
            c0: p_c0,
            c1: self.times_p(&ct.c1),
            scale: ct.scale,
            level: ct.level,
            slots: ct.slots,
        }
    }

    /// [`Self::try_rotate`] stopped before its mod-down: the rotation
    /// times `P` over the key-switch basis, which [`Self::mod_down`]
    /// turns into `try_rotate(ct, steps)`. An identity rotation is the
    /// exact lift `P·ct` and decomposes nothing.
    pub fn rotate_ext(
        &self,
        ct: &Ciphertext,
        steps: i64,
        gk: &GaloisKeys,
    ) -> Result<ExtCiphertext, HeError> {
        self.check_ct(ct)?;
        if steps.rem_euclid(ct.slots as i64) == 0 {
            return Ok(self.lift(ct, self.times_p(&ct.c0)));
        }
        self.rotate_ext_hoisted(&self.hoist_stored(ct, false)?, steps, gk)
    }

    /// [`Self::rotate_ext`] of the hoisted ciphertext, reusing its
    /// digits and its `P·c₀` — also for the identity, whose lift then
    /// multiplies only `c₁` by `P`.
    pub fn rotate_ext_hoisted(
        &self,
        h: &Hoisted<'_>,
        steps: i64,
        gk: &GaloisKeys,
    ) -> Result<ExtCiphertext, HeError> {
        if steps.rem_euclid(h.ct.slots as i64) == 0 {
            return Ok(self.lift(h.ct, h.p_c0.clone()));
        }
        let g = self.ctx.galois_element_for_rotation(steps);
        self.apply_galois_ext(h, g, gk)
    }

    /// `(σ_g(P·c₀ + u₀·P), σ_g(u₁·P))` over the key-switch basis, with
    /// `(u₀, u₁)` the switch of `c₁` under the key for `g`, which carries
    /// payload `s` under the secret `σ_g⁻¹(s)`: `u₀ + u₁·σ_g⁻¹(s) ≈ c₁·s`,
    /// so the result decrypts under `s` to `P·σ_g(c₀ + c₁·s)`. `P·c₀` is
    /// folded into the inner product's accumulators and σ_g, a
    /// permutation of NTT slots, is applied over every limb as each is
    /// finished, so nothing is transformed outside the key switch.
    fn apply_galois_ext(
        &self,
        h: &Hoisted<'_>,
        g: usize,
        gk: &GaloisKeys,
    ) -> Result<ExtCiphertext, HeError> {
        let ksk = galois_key(gk, g)?;
        he_trace::record_rotation(1);
        let _span = he_trace::span("galois", he_trace::cats::HE);
        let pctx = self.ctx.poly_ctx();
        let perm = galois_permutation(pctx.n(), g);
        let mut c0 = RnsPoly::zero(Arc::clone(pctx), h.digits.ext.clone(), Form::Ntt);
        let mut c1 = c0.clone();
        let galois = Some((&perm[..], &h.p_c0));
        self.inner_product(&h.ct.c1, &h.digits, ksk, (&mut c0, &mut c1), galois);
        Ok(ExtCiphertext {
            c0,
            c1,
            scale: h.ct.scale,
            level: h.ct.level,
            slots: h.ct.slots,
        })
    }

    /// `x` refused typed unless it is a well-formed extended-basis
    /// ciphertext ([`ExtCiphertext::check_shape`]).
    fn check_ext(&self, x: &ExtCiphertext) -> Result<(), HeError> {
        x.check_shape(self.ctx.poly_ctx())
            .map_err(HeError::MalformedCiphertext)
    }

    /// `pt` refused typed unless it sits at `x`'s level, over `x`'s
    /// limbs.
    fn check_ext_plain(&self, x: &ExtCiphertext, pt: &Plaintext) -> Result<(), HeError> {
        if pt.level != x.level {
            return Err(HeError::LevelMismatch {
                a: x.level,
                b: pt.level,
            });
        }
        if pt.poly.form() != Form::Ntt || pt.poly.limb_indices() != x.c0.limb_indices() {
            return Err(HeError::PlaintextBasisMismatch);
        }
        Ok(())
    }

    /// [`Self::mul_plain`] over the key-switch basis: `pt` must be
    /// encoded over it at `x`'s level ([`crate::encode_real_ext`]). The
    /// result scale is the product of the scales.
    pub fn mul_plain_ext(
        &self,
        x: &ExtCiphertext,
        pt: &Plaintext,
    ) -> Result<ExtCiphertext, HeError> {
        self.check_ext(x)?;
        self.check_ext_plain(x, pt)?;
        let mut out = x.clone();
        self.mul_plain_limbs((&mut out.c0, &mut out.c1), &pt.poly);
        out.scale = x.scale * pt.scale;
        Ok(out)
    }

    /// [`Self::try_mul_plain_acc`] over the key-switch basis: `acc +=
    /// x·pt` in one fused pass, limb-identical to
    /// `add_ext(acc, mul_plain_ext(x, pt))`. A typed error leaves `acc`
    /// untouched.
    pub fn mac_plain_ext(
        &self,
        acc: &mut ExtCiphertext,
        x: &ExtCiphertext,
        pt: &Plaintext,
    ) -> Result<(), HeError> {
        self.check_ext(acc)?;
        self.check_ext(x)?;
        self.check_ext_plain(x, pt)?;
        if acc.level != x.level {
            return Err(HeError::LevelMismatch {
                a: acc.level,
                b: x.level,
            });
        }
        let product = x.scale * pt.scale;
        if !scales_match(acc.scale, product) {
            return Err(HeError::ScaleMismatch {
                a: acc.scale,
                b: product,
            });
        }
        self.mac_plain_limbs((&mut acc.c0, &mut acc.c1), (&x.c0, &x.c1), &pt.poly);
        Ok(())
    }

    /// [`Self::add`] over the key-switch basis, summing into `a`.
    pub fn add_ext(
        &self,
        mut a: ExtCiphertext,
        b: &ExtCiphertext,
    ) -> Result<ExtCiphertext, HeError> {
        self.check_ext(&a)?;
        self.check_ext(b)?;
        if a.level != b.level {
            return Err(HeError::LevelMismatch {
                a: a.level,
                b: b.level,
            });
        }
        if !scales_match(a.scale, b.scale) {
            return Err(HeError::ScaleMismatch {
                a: a.scale,
                b: b.scale,
            });
        }
        a.c0.add_assign(&b.c0);
        a.c1.add_assign(&b.c1);
        Ok(a)
    }

    /// Divides an extended-basis ciphertext by `P`, rounding, back onto
    /// the chain limbs `0..=ℓ` at the same scale: the mod-down a key
    /// switch ends with, once for a whole sum. It inverse-transforms the
    /// `k` special limbs of each half and forward-transforms their
    /// conversion into each of the `ℓ + 1` chain limbs.
    pub fn mod_down(&self, x: ExtCiphertext) -> Result<Ciphertext, HeError> {
        self.check_ext(&x)?;
        let _span = he_trace::span("mod_down", he_trace::cats::HE);
        let (mut c0, mut c1) = (x.c0, x.c1);
        self.divide_by_p(&mut c0, &mut c1);
        Ok(Ciphertext {
            c0,
            c1,
            scale: x.scale,
            level: x.level,
            slots: x.slots,
        })
    }
}

/// The key for Galois element `g`, or a typed error naming the keys
/// that do exist.
fn galois_key(gk: &GaloisKeys, g: usize) -> Result<&KeySwitchKey, HeError> {
    gk.get(g).ok_or_else(|| {
        let mut available: Vec<usize> = gk.elements().collect();
        available.sort_unstable();
        HeError::MissingGaloisKey { elem: g, available }
    })
}

/// The key-switch digits of one polynomial (see `Evaluator::decompose`):
/// the key-switch basis `ext`, the digit ranges of the chain, the
/// polynomial in coefficient form with each digit's limbs scaled for its
/// base conversion, plus, for a fan, every digit's lift in NTT form,
/// limb-major (`lifted[(i·dnum + j)·N..]` is digit `j` over limb
/// `ext[i]`; a digit's own limbs are left unwritten).
struct Digits {
    ext: Vec<usize>,
    parts: Vec<Range<usize>>,
    scaled: RnsPoly,
    lifted: Option<Vec<u64>>,
}

impl Digits {
    /// Writes digit `j` over limb `ext[i]` into `dst`: the digit's
    /// residues fast-base-converted into that limb's modulus
    /// ([`FastBaseConverter`](ckks_math::rns::FastBaseConverter); for a
    /// one-limb digit, its centred lift), then forward-transformed.
    /// Leaves `dst` alone on the digit's own limbs (`d` as given).
    fn lift(&self, ctx: &CkksContext, i: usize, j: usize, dst: &mut [u64]) {
        let (idx, part) = (self.ext[i], &self.parts[j]);
        if part.contains(&idx) {
            return;
        }
        let (pctx, backend) = (ctx.poly_ctx(), kernel::active_backend());
        let n = pctx.n();
        let src = &self.scaled.limbs_flat()[part.start * n..part.end * n];
        ctx.digit_converter(j, part.len())
            .convert_into(backend, src, idx, dst);
        kernel::ntt_forward_with(backend, pctx.ntt_table(idx), dst);
    }
}

/// A ciphertext whose `c₁` has been decomposed once ([`Evaluator::hoist`])
/// for a fan of rotations of it. It borrows the
/// ciphertext, so its digits are only ever paired with the `c₁` they
/// came from.
pub struct Hoisted<'a> {
    ct: &'a Ciphertext,
    digits: Digits,
    /// `P·c₀` over the key-switch basis, shared by every rotation of
    /// the fan.
    p_c0: RnsPoly,
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
        let prod = f.ev.rescale(&f.ev.multiply(&ca, &cb, &f.rk));
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
        let mu = f.ev.rescale(&f.ev.multiply(&ca, &ca, &f.rk));
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
        let x2 = f.ev.rescale(&f.ev.multiply(&ca, &ca, &f.rk));
        let ca_l = f.ev.mod_switch_to_level(&ca, x2.level);
        let x3 = f.ev.rescale(&f.ev.multiply(&x2, &ca_l, &f.rk));
        let ca_l2 = f.ev.mod_switch_to_level(&ca, x3.level);
        let x4 = f.ev.rescale(&f.ev.multiply(&x3, &ca_l2, &f.rk));
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
        let c = encoding::encode_real(&f.ctx, &[-2.5; 16], f.ctx.params().scale(), ca.level);
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
    fn mod_switch_alignment() {
        let mut f = fixture(2, 21);
        let a: Vec<f64> = (0..16).map(|i| i as f64 * 0.01).collect();
        let ca = f.ev.encrypt_real(&a, &f.pk, &mut f.sampler);
        let cb = f.ev.encrypt_real(&a, &f.pk, &mut f.sampler);
        let prod = f.ev.rescale(&f.ev.multiply(&ca, &cb, &f.rk)); // level L-1
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
        let pt = encoding::encode_real(&f.ctx, &[-1.75; 32], scale, ct.level);
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
            let w = f.ev.prepare_scalar(w, scale, ct.level);
            f.ev.mul_residues_acc(&mut acc, ct, &w);
        }
        f.ev.add_scalar_assign(&mut acc, 0.1);
        let out = f.ev.rescale(&acc);
        let back = f.ev.decrypt_to_real(&out, &f.sk);
        let expect = 0.5 * 1.5 + 0.25 * 2.0 + 0.125 * 4.0 + 0.1;
        assert!((back[0] - expect).abs() < 1e-3, "{} vs {expect}", back[0]);
    }

    /// The in-place plaintext MAC is the product-then-add it replaces,
    /// limb for limb, and refuses a drifted accumulator without
    /// touching it.
    #[test]
    fn mul_plain_acc_is_add_of_mul_plain_and_refuses_drift() {
        let mut f = fixture(2, 33);
        let (ctx, ev) = (&f.ctx, &f.ev);
        let vals: Vec<f64> = (0..ctx.slots()).map(|i| (i % 5) as f64 / 8.0).collect();
        let x = ev.encrypt_real(&vals, &f.pk, &mut f.sampler);
        let y = ev.encrypt_real(
            &vals.iter().map(|v| 0.5 - v).collect::<Vec<_>>(),
            &f.pk,
            &mut f.sampler,
        );
        let q = ctx.chain_moduli()[x.level].value() as f64;
        let w: Vec<f64> = (0..ctx.slots()).map(|i| (i % 3) as f64 - 1.0).collect();
        let (p, r) = (
            encoding::encode_real(ctx, &w, q, x.level),
            encoding::encode_real(ctx, &vals, q, x.level),
        );
        let want = ev.add(&ev.mul_plain(&x, &p), &ev.mul_plain(&y, &r));
        let mut got = ev.mul_plain(&x, &p);
        ev.try_mul_plain_acc(&mut got, &y, &r)
            .expect("matching operands");
        assert_eq!(got.scale.to_bits(), want.scale.to_bits());
        assert_eq!(got.c0.limbs_flat(), want.c0.limbs_flat());
        assert_eq!(got.c1.limbs_flat(), want.c1.limbs_flat());

        let before = got.clone();
        let low = ev.mod_switch_to_level(&y, 1);
        let err = ev.try_mul_plain_acc(&mut got, &low, &r).unwrap_err();
        assert_eq!(err, HeError::LevelMismatch { a: 2, b: 1 });
        let mut drifted = y.clone();
        drifted.scale *= 2.0;
        let err = ev.try_mul_plain_acc(&mut got, &drifted, &r).unwrap_err();
        assert!(matches!(err, HeError::ScaleMismatch { .. }), "{err}");
        assert_eq!(got.c0.limbs_flat(), before.c0.limbs_flat());
        assert_eq!(got.c1.limbs_flat(), before.c1.limbs_flat());
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

        // a level above the limbs: rescale and a mod-switch to a target
        // the limbs do not reach both refuse before reading a limb
        let mut short = r0.clone();
        short.level = 1;
        let malformed = Err(HeError::MalformedCiphertext("limbs other than 0..=level"));
        assert_eq!(f.ev.try_rescale(&short).map(|_| ()), malformed);
        assert_eq!(
            f.ev.try_mod_switch_to_level(&short, 1).map(|_| ()),
            malformed
        );

        // happy paths still work through the fallible API
        assert!(f.ev.try_rescale(&ca).is_ok());
        assert!(f.ev.try_mod_switch_to_level(&ca, 0).is_ok());
        assert!(f.ev.try_rotate(&ca, 0, &GaloisKeys::default()).is_ok());
    }

    /// Every rotation of a fan through one `Hoisted` is limb-identical to
    /// rotating the ciphertext directly, at every level.
    #[test]
    fn hoisted_fan_is_limb_identical_to_direct_rotation() {
        let mut f = fixture(3, 27);
        let steps = [1i64, 2, 5, -3, 0];
        let gk = KeyGenerator::new(Arc::clone(&f.ctx), 28).gen_galois_keys(&f.sk, &steps, false);
        let vals: Vec<f64> = (0..f.ctx.slots()).map(|i| (i as f64 * 0.1).cos()).collect();
        let top = f.ev.encrypt_real(&vals, &f.pk, &mut f.sampler);
        let same = |a: &Ciphertext, b: &Ciphertext| {
            a.c0.limbs_flat() == b.c0.limbs_flat() && a.c1.limbs_flat() == b.c1.limbs_flat()
        };
        for level in 1..=top.level {
            let ct = f.ev.mod_switch_to_level(&top, level);
            let h = f.ev.hoist(&ct).unwrap();
            for r in steps {
                let got = f.ev.try_rotate_hoisted(&h, r, &gk).unwrap();
                assert!(
                    same(&got, &f.ev.rotate(&ct, r, &gk)),
                    "step {r} at level {level}"
                );
            }
        }
    }

    /// A ciphertext key switching would misread is refused typed by
    /// every rotation entry point, never asserted on.
    #[test]
    fn rotations_refuse_malformed_ciphertexts_typed() {
        let mut f = fixture(2, 29);
        let gk = KeyGenerator::new(Arc::clone(&f.ctx), 30).gen_galois_keys(&f.sk, &[1], false);
        let ct = f.ev.encrypt_real(&[0.5; 8], &f.pk, &mut f.sampler);
        let mut no_slots = ct.clone();
        no_slots.slots = 0;
        let mut coeff = ct.clone();
        coeff.c1.ntt_inverse();
        let mut beyond = ct.clone();
        beyond.level = f.ctx.poly_ctx().chain_len();
        let mut special = f.ev.mod_switch_to_level(&ct, 1);
        let limbs = vec![0, f.ctx.poly_ctx().chain_len()];
        special.c0 = RnsPoly::zero(Arc::clone(f.ctx.poly_ctx()), limbs, Form::Ntt);
        for (what, bad) in [
            ("no slots", no_slots),
            ("a half in coefficient form", coeff),
            ("level beyond the modulus chain", beyond),
            ("limbs other than 0..=level", special),
        ] {
            let want = Err(HeError::MalformedCiphertext(what));
            assert_eq!(f.ev.try_rotate(&bad, 1, &gk).map(|_| ()), want);
            assert_eq!(f.ev.try_rotate(&bad, 0, &gk).map(|_| ()), want);
            assert_eq!(f.ev.hoist(&bad).map(|_| ()), want);
        }
    }

    /// A chain of four limbs on the 2^10 ring over `special` special
    /// primes, with Galois keys for `steps`.
    fn ext_fixture(special: usize, steps: &[i64]) -> (Fixture, GaloisKeys) {
        let mut params = CkksParams::tiny(3);
        params.special_bits.truncate(special);
        let ctx = params.build();
        assert_eq!(ctx.special_moduli().len(), special);
        let mut kg = KeyGenerator::new(Arc::clone(&ctx), 41);
        let sk = kg.gen_secret_key();
        let pk = kg.gen_public_key(&sk);
        let rk = kg.gen_relin_key(&sk);
        let gk = kg.gen_galois_keys(&sk, steps, false);
        let ev = Evaluator::new(Arc::clone(&ctx));
        let f = Fixture {
            ctx,
            sk,
            pk,
            rk,
            ev,
            sampler: Sampler::from_seed(42),
        };
        (f, gk)
    }

    fn same(a: &Ciphertext, b: &Ciphertext) -> bool {
        (a.level, a.scale.to_bits(), a.slots) == (b.level, b.scale.to_bits(), b.slots)
            && a.c0.limbs_flat() == b.c0.limbs_flat()
            && a.c1.limbs_flat() == b.c1.limbs_flat()
    }

    /// The textbook Galois op for element `g`: switch `c₁` under the key
    /// for `g` and divide by `P` ([`Evaluator::key_switch`]), add `c₀`,
    /// then permute the NTT slots of every limb by σ_g.
    fn textbook_galois(ev: &Evaluator, ct: &Ciphertext, g: usize, gk: &GaloisKeys) -> Ciphertext {
        let (mut u0, u1) = ev.key_switch(&ct.c1, galois_key(gk, g).unwrap());
        u0.add_assign(&ct.c0);
        let perm = galois_permutation(ev.ctx.poly_ctx().n(), g);
        let permuted = |x: &RnsPoly| {
            let mut out = x.clone();
            for i in 0..x.num_limbs() {
                for (o, &k) in out.limb_mut(i).iter_mut().zip(perm.iter()) {
                    *o = x.limb(i)[k as usize];
                }
            }
            out
        };
        Ciphertext {
            c0: permuted(&u0),
            c1: permuted(&u1),
            scale: ct.scale,
            level: ct.level,
            slots: ct.slots,
        }
    }

    /// Stopping a rotation before its mod-down and dividing by `P`
    /// afterwards is the textbook rotation, limb for limb, though it
    /// folds `P·c₀` in and applies σ_g before the division: every keyed
    /// step and the identity, hoisted and direct, at every level, over
    /// one and over two special primes.
    #[test]
    fn mod_down_of_an_extended_rotation_is_the_rotation() {
        let steps = [1i64, 3, -2];
        for special in [1, 2] {
            let (mut f, gk) = ext_fixture(special, &steps);
            let vals: Vec<f64> = (0..f.ctx.slots())
                .map(|i| (i as f64 * 0.07).sin())
                .collect();
            let top = f.ev.encrypt_real(&vals, &f.pk, &mut f.sampler);
            for level in 0..=top.level {
                let ct = f.ev.mod_switch_to_level(&top, level);
                let h = f.ev.hoist(&ct).unwrap();
                for r in steps.into_iter().chain([0]) {
                    let want = match r {
                        0 => ct.clone(),
                        _ => {
                            let g = f.ctx.galois_element_for_rotation(r);
                            textbook_galois(&f.ev, &ct, g, &gk)
                        }
                    };
                    let hoisted = f.ev.rotate_ext_hoisted(&h, r, &gk).unwrap();
                    let direct = f.ev.rotate_ext(&ct, r, &gk).unwrap();
                    for ext in [hoisted, direct] {
                        let got = f.ev.mod_down(ext).unwrap();
                        assert!(same(&got, &want), "step {r}, level {level}, k = {special}");
                    }
                }
            }
        }
    }

    /// A weighted sum of extended rotations, divided by `P` once,
    /// decrypts to the weighted sum of the rotated slots; the fused MAC
    /// is the product-then-add it replaces, limb for limb.
    #[test]
    fn an_extended_weighted_rotation_sum_decrypts_to_its_slots() {
        let steps = [1i64, 3, -2];
        let (mut f, gk) = ext_fixture(2, &steps);
        let slots = f.ctx.slots();
        let vals: Vec<f64> = (0..slots).map(|i| (i % 9) as f64 / 9.0 - 0.4).collect();
        let ct = f.ev.encrypt_real(&vals, &f.pk, &mut f.sampler);
        let (ev, level) = (&f.ev, ct.level);
        let q = f.ctx.chain_moduli()[level].value() as f64;
        let h = ev.hoist(&ct).unwrap();
        let mut acc: Option<ExtCiphertext> = None;
        let mut want = vec![0.0; slots];
        for (t, r) in [0i64].into_iter().chain(steps).enumerate() {
            let w: Vec<f64> = (0..slots)
                .map(|i| ((i + t) % 5) as f64 / 4.0 - 0.5)
                .collect();
            let pt = encoding::encode_real_ext(&f.ctx, &w, q, level);
            let x = ev.rotate_ext_hoisted(&h, r, &gk).unwrap();
            for (i, y) in want.iter_mut().enumerate() {
                *y += w[i] * vals[(i as i64 + r).rem_euclid(slots as i64) as usize];
            }
            acc = Some(match acc {
                None => ev.mul_plain_ext(&x, &pt).unwrap(),
                Some(mut a) => {
                    let sum = ev
                        .add_ext(a.clone(), &ev.mul_plain_ext(&x, &pt).unwrap())
                        .unwrap();
                    ev.mac_plain_ext(&mut a, &x, &pt).unwrap();
                    assert_eq!(a.c0.limbs_flat(), sum.c0.limbs_flat());
                    assert_eq!(a.c1.limbs_flat(), sum.c1.limbs_flat());
                    a
                }
            });
        }
        let out = ev.rescale(&ev.mod_down(acc.unwrap()).unwrap());
        let got = ev.decrypt_to_real(&out, &f.sk);
        assert!(max_err(&got, &want) < 1e-3, "{}", max_err(&got, &want));
    }

    /// Every extended-basis operation refuses, typed, a plaintext that is
    /// not over the key-switch basis, a level or scale mismatch, and a
    /// malformed extended ciphertext — and a refused MAC leaves its
    /// accumulator untouched.
    #[test]
    fn extended_basis_operations_refuse_typed() {
        let (mut f, gk) = ext_fixture(2, &[1]);
        let ct = f.ev.encrypt_real(&[0.25; 8], &f.pk, &mut f.sampler);
        let (ev, ctx, level) = (&f.ev, &f.ctx, ct.level);
        let x = ev.rotate_ext(&ct, 1, &gk).unwrap();
        let w = vec![0.5; 8];
        let pt = encoding::encode_real_ext(ctx, &w, 1.0, level);

        // a plaintext over the chain limbs only
        let chain_pt = encoding::encode_real(ctx, &w, 1.0, level);
        assert_eq!(
            ev.mul_plain_ext(&x, &chain_pt).map(|_| ()),
            Err(HeError::PlaintextBasisMismatch)
        );
        let mut acc = ev.mul_plain_ext(&x, &pt).unwrap();
        let before = acc.c0.limbs_flat().to_vec();
        assert_eq!(
            ev.mac_plain_ext(&mut acc, &x, &chain_pt),
            Err(HeError::PlaintextBasisMismatch)
        );

        // a level mismatch: a plaintext, an operand or an addend below
        let low_pt = encoding::encode_real_ext(ctx, &w, 1.0, level - 1);
        let low = ev
            .rotate_ext(&ev.mod_switch_to_level(&ct, level - 1), 1, &gk)
            .unwrap();
        let mismatch = Err(HeError::LevelMismatch {
            a: level,
            b: level - 1,
        });
        assert_eq!(ev.mul_plain_ext(&x, &low_pt).map(|_| ()), mismatch);
        assert_eq!(ev.mac_plain_ext(&mut acc, &x, &low_pt), mismatch);
        assert_eq!(ev.add_ext(x.clone(), &low).map(|_| ()), mismatch);

        // a scale mismatch: the accumulator or an addend drifted
        let mut drifted = x.clone();
        drifted.scale *= 2.0;
        let err = ev.mac_plain_ext(&mut acc, &drifted, &pt).unwrap_err();
        assert!(matches!(err, HeError::ScaleMismatch { .. }), "{err}");
        let err = ev.add_ext(x.clone(), &drifted).unwrap_err();
        assert!(matches!(err, HeError::ScaleMismatch { .. }), "{err}");
        assert_eq!(acc.c0.limbs_flat(), &before[..]);

        // malformed extended ciphertexts: a chain-only half, no slots
        let mut chain_only = x.clone();
        chain_only.c0 = ct.c0.clone();
        let mut no_slots = x.clone();
        no_slots.slots = 0;
        for (what, bad) in [
            (
                "limbs other than the key-switch basis at its level",
                chain_only,
            ),
            ("no slots", no_slots),
        ] {
            let want = Err(HeError::MalformedCiphertext(what));
            assert_eq!(ev.mod_down(bad.clone()).map(|_| ()), want);
            assert_eq!(ev.add_ext(x.clone(), &bad).map(|_| ()), want);
            assert_eq!(ev.mul_plain_ext(&bad, &pt).map(|_| ()), want);
        }
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
