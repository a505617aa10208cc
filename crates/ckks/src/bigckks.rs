//! Reference (non-RNS) CKKS over multiprecision integers.
//!
//! The original CKKS implementation "relies on a multi-precision library,
//! which leads to higher computational complexity" (paper §II) — this
//! module *is* that baseline: plain `BigInt` coefficient polynomials with
//! schoolbook negacyclic multiplication, sharing the exact same prime
//! chain as the RNS context so that every RNS operation can be
//! cross-validated against its bignum counterpart bit-for-bit (modulo
//! CRT composition).
//!
//! It exists for two purposes:
//! 1. correctness oracle for the double-CRT fast path (tests), and
//! 2. the "multiprecision vs RNS" microbenchmark that motivates RNS-CKKS.

use crate::params::CkksContext;
use ckks_math::bigint::BigInt;
use ckks_math::poly::{Form, RnsPoly};
use ckks_math::sampler::Sampler;
use std::sync::Arc;

/// A polynomial with multiprecision coefficients, reduced centered
/// modulo some `q`.
#[derive(Debug, Clone)]
pub struct BigPoly {
    pub coeffs: Vec<BigInt>,
}

impl BigPoly {
    pub fn zero(n: usize) -> Self {
        Self {
            coeffs: vec![BigInt::zero(); n],
        }
    }

    pub fn from_signed(coeffs: &[i64]) -> Self {
        Self {
            coeffs: coeffs.iter().map(|&c| BigInt::from_i64(c)).collect(),
        }
    }

    /// Converts an [`RnsPoly`] (any form) into a bignum polynomial with
    /// centered coefficients, via CRT composition over the poly's limbs.
    pub fn from_rns(ctx: &Arc<CkksContext>, poly: &RnsPoly) -> Self {
        let mut p = poly.clone();
        if p.form() == Form::Ntt {
            p.ntt_inverse();
        }
        let level = p.num_limbs() - 1;
        // only valid for chain-prefix polys
        assert!(
            p.limb_indices().iter().copied().eq(0..=level),
            "from_rns expects a chain-prefix limb set"
        );
        let basis = ctx.level_basis(level);
        let n = ctx.n();
        let coeffs = (0..n)
            .map(|i| basis.compose_centered(&p.coeff_residues(i)))
            .collect();
        Self { coeffs }
    }

    pub fn add(&self, other: &Self) -> Self {
        Self {
            coeffs: self
                .coeffs
                .iter()
                .zip(&other.coeffs)
                .map(|(a, b)| a.add(b))
                .collect(),
        }
    }

    pub fn sub(&self, other: &Self) -> Self {
        Self {
            coeffs: self
                .coeffs
                .iter()
                .zip(&other.coeffs)
                .map(|(a, b)| a.sub(b))
                .collect(),
        }
    }

    pub fn neg(&self) -> Self {
        Self {
            coeffs: self.coeffs.iter().map(ckks_math::BigInt::neg).collect(),
        }
    }

    /// Schoolbook negacyclic multiplication — `O(N²)` bignum products.
    /// This is deliberately the "slow multiprecision" path.
    pub fn mul(&self, other: &Self) -> Self {
        let n = self.coeffs.len();
        assert_eq!(other.coeffs.len(), n);
        let mut out = vec![BigInt::zero(); n];
        for i in 0..n {
            if self.coeffs[i].is_zero() {
                continue;
            }
            for j in 0..n {
                if other.coeffs[j].is_zero() {
                    continue;
                }
                let prod = self.coeffs[i].mul(&other.coeffs[j]);
                let k = i + j;
                if k < n {
                    out[k] = out[k].add(&prod);
                } else {
                    out[k - n] = out[k - n].sub(&prod);
                }
            }
        }
        Self { coeffs: out }
    }

    pub fn mul_scalar(&self, s: &BigInt) -> Self {
        Self {
            coeffs: self.coeffs.iter().map(|c| c.mul(s)).collect(),
        }
    }

    /// Centered reduction of every coefficient mod `q`.
    pub fn reduce_centered(&self, q: &BigInt) -> Self {
        Self {
            coeffs: self.coeffs.iter().map(|c| c.rem_centered(q)).collect(),
        }
    }

    /// Division by a scalar with rounding to nearest (for rescale and
    /// key-switch mod-down in the bignum world).
    pub fn div_round(&self, d: &BigInt) -> Self {
        let half = d.shr(1);
        Self {
            coeffs: self
                .coeffs
                .iter()
                .map(|c| {
                    // round(c/d): floor((c + d/2)/d) via truncated div_rem,
                    // correcting toward -inf when the shifted value is
                    // negative with a nonzero remainder.
                    let shifted = c.add(&half);
                    let (q, r) = shifted.div_rem(d);
                    if r.is_negative() {
                        q.sub(&BigInt::one())
                    } else {
                        q
                    }
                })
                .collect(),
        }
    }

    /// Galois automorphism `X ↦ X^k` (k odd, < 2N) — the bignum mirror of
    /// [`RnsPoly::automorphism`]: coefficient `i` lands at `i·k mod 2N`,
    /// negated when it wraps past `N` (negacyclic ring).
    pub fn automorphism(&self, k: usize) -> Self {
        let n = self.coeffs.len();
        assert!(k % 2 == 1 && k < 2 * n, "galois element must be odd, < 2N");
        let mut out = vec![BigInt::zero(); n];
        for (i, c) in self.coeffs.iter().enumerate() {
            let j = (i * k) % (2 * n);
            if j < n {
                out[j] = out[j].add(c);
            } else {
                out[j - n] = out[j - n].sub(c);
            }
        }
        Self { coeffs: out }
    }
}

/// The bignum CKKS baseline scheme (textbook, §II of the paper).
pub struct BigCkks {
    ctx: Arc<CkksContext>,
    n: usize,
}

/// Ciphertext of the bignum scheme.
#[derive(Debug, Clone)]
pub struct BigCiphertext {
    pub c0: BigPoly,
    pub c1: BigPoly,
    pub scale: f64,
    pub level: usize,
}

/// Bignum key material (secret, public, relinearization).
pub struct BigKeys {
    pub s: BigPoly,
    pub pk: (BigPoly, BigPoly),
    /// `ek = (-a·s + e + P·s², a) mod P·Q_L`.
    pub ek: (BigPoly, BigPoly),
}

/// Bignum rotation keys: for each Galois element
/// `g`, a switching key from `σ_g(s)` back to `s`, over `P·Q_L`.
pub struct BigGaloisKeys {
    keys: std::collections::BTreeMap<usize, (BigPoly, BigPoly)>,
}

impl BigGaloisKeys {
    pub fn get(&self, elem: usize) -> Option<&(BigPoly, BigPoly)> {
        self.keys.get(&elem)
    }

    pub fn elements(&self) -> impl Iterator<Item = usize> + '_ {
        self.keys.keys().copied()
    }
}

impl BigCkks {
    pub fn new(ctx: Arc<CkksContext>) -> Self {
        let n = ctx.n();
        Self { ctx, n }
    }

    /// Modulus `Q_ℓ = Π_{i≤ℓ} q_i` — same primes as the RNS context.
    pub fn modulus_at(&self, level: usize) -> BigInt {
        self.ctx.level_basis(level).big_q().clone()
    }

    pub fn keygen(&self, sampler: &mut Sampler) -> BigKeys {
        let q_l = self.modulus_at(self.ctx.max_level());
        // Textbook CKKS (paper §II, Mult): ek lives over q_L² — the
        // auxiliary modulus equals the full ciphertext modulus, which is
        // what makes single-digit key switching low-noise (and what RNS
        // hybrid switching avoids paying for).
        let p = q_l.clone();
        let pq = q_l.mul(&p);

        let s_coeffs: Vec<i64> = sampler
            .hamming_ternary(self.n, 64.min(self.n / 2))
            .into_iter()
            .map(|x| x as i64)
            .collect();
        let s = BigPoly::from_signed(&s_coeffs);

        let a = self.uniform_poly(&q_l, sampler);
        let e = self.error_poly(sampler);
        let b = a.mul(&s).neg().add(&e).reduce_centered(&q_l);

        // relin key over P·Q_L encrypting P·s²
        let a2 = self.uniform_poly(&pq, sampler);
        let e2 = self.error_poly(sampler);
        let ps2 = s.mul(&s).mul_scalar(&p);
        let ek0 = a2.mul(&s).neg().add(&e2).add(&ps2).reduce_centered(&pq);

        BigKeys {
            s,
            pk: (b, a),
            ek: (ek0, a2),
        }
    }

    fn uniform_poly(&self, q: &BigInt, sampler: &mut Sampler) -> BigPoly {
        // Sample extra limbs then reduce: statistically close to uniform,
        // adequate for a reference implementation.
        let bits = q.bits() + 64;
        let limbs = (bits as usize).div_ceil(64);
        BigPoly {
            coeffs: (0..self.n)
                .map(|_| {
                    let raw: Vec<u64> = (0..limbs).map(|_| rand::Rng::gen(sampler.rng())).collect();
                    BigInt::from_limbs(&raw).rem_centered(q)
                })
                .collect(),
        }
    }

    fn error_poly(&self, sampler: &mut Sampler) -> BigPoly {
        let e: Vec<i64> = sampler
            .cbd_error(self.n)
            .into_iter()
            .map(|x| x as i64)
            .collect();
        BigPoly::from_signed(&e)
    }

    /// Encrypts pre-scaled integer coefficients (`m = ⌊Δ·τ⁻¹(z)⌉`).
    pub fn encrypt_coeffs(
        &self,
        m: &BigPoly,
        scale: f64,
        keys: &BigKeys,
        sampler: &mut Sampler,
    ) -> BigCiphertext {
        let level = self.ctx.max_level();
        let q = self.modulus_at(level);
        let v_coeffs: Vec<i64> = sampler
            .zo_ternary(self.n)
            .into_iter()
            .map(|x| x as i64)
            .collect();
        let v = BigPoly::from_signed(&v_coeffs);
        let e0 = self.error_poly(sampler);
        let e1 = self.error_poly(sampler);
        let c0 = v.mul(&keys.pk.0).add(&e0).add(m).reduce_centered(&q);
        let c1 = v.mul(&keys.pk.1).add(&e1).reduce_centered(&q);
        BigCiphertext {
            c0,
            c1,
            scale,
            level,
        }
    }

    /// Decrypts to raw scaled coefficients.
    pub fn decrypt_coeffs(&self, ct: &BigCiphertext, keys: &BigKeys) -> BigPoly {
        let q = self.modulus_at(ct.level);
        ct.c0.add(&ct.c1.mul(&keys.s)).reduce_centered(&q)
    }

    pub fn add(&self, a: &BigCiphertext, b: &BigCiphertext) -> BigCiphertext {
        assert_eq!(a.level, b.level);
        let q = self.modulus_at(a.level);
        BigCiphertext {
            c0: a.c0.add(&b.c0).reduce_centered(&q),
            c1: a.c1.add(&b.c1).reduce_centered(&q),
            scale: a.scale,
            level: a.level,
        }
    }

    pub fn sub(&self, a: &BigCiphertext, b: &BigCiphertext) -> BigCiphertext {
        assert_eq!(a.level, b.level);
        let q = self.modulus_at(a.level);
        BigCiphertext {
            c0: a.c0.sub(&b.c0).reduce_centered(&q),
            c1: a.c1.sub(&b.c1).reduce_centered(&q),
            scale: a.scale,
            level: a.level,
        }
    }

    pub fn negate(&self, a: &BigCiphertext) -> BigCiphertext {
        BigCiphertext {
            c0: a.c0.neg(),
            c1: a.c1.neg(),
            scale: a.scale,
            level: a.level,
        }
    }

    /// Plaintext product: both halves times the integer polynomial `w`
    /// (an [`Self::encode_slots`] at `pt_scale`); the scales multiply.
    pub fn mul_plain(&self, ct: &BigCiphertext, w: &BigPoly, pt_scale: f64) -> BigCiphertext {
        let q = self.modulus_at(ct.level);
        BigCiphertext {
            c0: ct.c0.mul(w).reduce_centered(&q),
            c1: ct.c1.mul(w).reduce_centered(&q),
            scale: ct.scale * pt_scale,
            level: ct.level,
        }
    }

    /// Switches the key under `d` using a switching key over `P·Q_L`:
    /// returns `round(d · kk / P) mod Q_ℓ`.
    fn key_switch(&self, d: &BigPoly, kk: &(BigPoly, BigPoly), q: &BigInt) -> (BigPoly, BigPoly) {
        let p = self.modulus_at(self.ctx.max_level());
        let u0 = d
            .mul(&kk.0)
            .reduce_centered(&q.mul(&p))
            .div_round(&p)
            .reduce_centered(q);
        let u1 = d
            .mul(&kk.1)
            .reduce_centered(&q.mul(&p))
            .div_round(&p)
            .reduce_centered(q);
        (u0, u1)
    }

    /// Full multiplication with GHS relinearization.
    pub fn multiply(&self, a: &BigCiphertext, b: &BigCiphertext, keys: &BigKeys) -> BigCiphertext {
        assert_eq!(a.level, b.level);
        let q = self.modulus_at(a.level);

        let d0 = a.c0.mul(&b.c0).reduce_centered(&q);
        let d1 = a.c0.mul(&b.c1).add(&a.c1.mul(&b.c0)).reduce_centered(&q);
        let d2 = a.c1.mul(&b.c1).reduce_centered(&q);

        // relin: round(d2 · ek / P) mod Q
        let (u0, u1) = self.key_switch(&d2, &keys.ek, &q);

        BigCiphertext {
            c0: d0.add(&u0).reduce_centered(&q),
            c1: d1.add(&u1).reduce_centered(&q),
            scale: a.scale * b.scale,
            level: a.level,
        }
    }

    /// Galois keys for the given rotation steps — mirrors
    /// [`crate::keys::KeyGenerator::gen_galois_keys`].
    pub fn gen_galois_keys(
        &self,
        keys: &BigKeys,
        steps: &[i64],
        sampler: &mut Sampler,
    ) -> BigGaloisKeys {
        let q_l = self.modulus_at(self.ctx.max_level());
        let p = q_l.clone();
        let pq = q_l.mul(&p);
        let elems = steps
            .iter()
            .map(|&st| self.ctx.params().galois_element_for_rotation(st));
        let mut out = std::collections::BTreeMap::new();
        for g in elems {
            // gk_g = (-a·s + e + P·σ_g(s), a) over P·Q_L
            let a = self.uniform_poly(&pq, sampler);
            let e = self.error_poly(sampler);
            let sg = keys.s.automorphism(g).mul_scalar(&p);
            let b = a.mul(&keys.s).neg().add(&e).add(&sg).reduce_centered(&pq);
            out.insert(g, (b, a));
        }
        BigGaloisKeys { keys: out }
    }

    /// Rotation by `steps` slots (the textbook Rot of paper §II): apply
    /// the Galois automorphism to both components, then switch the `c1`
    /// part from `σ_g(s)` back to `s`.
    pub fn rotate(&self, ct: &BigCiphertext, steps: i64, gk: &BigGaloisKeys) -> BigCiphertext {
        let g = self.ctx.params().galois_element_for_rotation(steps);
        let q = self.modulus_at(ct.level);
        let kk = gk
            .get(g)
            .unwrap_or_else(|| panic!("missing bignum galois key for element {g}"));
        let c0g = ct.c0.automorphism(g).reduce_centered(&q);
        let c1g = ct.c1.automorphism(g).reduce_centered(&q);
        let (u0, u1) = self.key_switch(&c1g, kk, &q);
        BigCiphertext {
            c0: c0g.add(&u0).reduce_centered(&q),
            c1: u1,
            scale: ct.scale,
            level: ct.level,
        }
    }

    /// Encodes real slot values into a scaled coefficient polynomial
    /// (`m = ⌊Δ·τ⁻¹(z)⌉`), ready for [`Self::encrypt_coeffs`].
    pub fn encode_slots(&self, values: &[f64], scale: f64) -> BigPoly {
        let slots = self.ctx.slots();
        assert!(values.len() <= slots, "too many slots");
        let mut padded = vec![ckks_math::fft::Complex::from(0.0); slots];
        for (p, &v) in padded.iter_mut().zip(values) {
            *p = ckks_math::fft::Complex::from(v);
        }
        let coeffs = self.ctx.embedding().slots_to_coeffs(&padded);
        BigPoly {
            coeffs: coeffs
                .iter()
                .map(|&c| BigInt::from_f64_rounded(c * scale))
                .collect(),
        }
    }

    /// Decrypts and decodes back to real slot values.
    pub fn decrypt_to_real(&self, ct: &BigCiphertext, keys: &BigKeys) -> Vec<f64> {
        let m = self.decrypt_coeffs(ct, keys);
        let coeffs_f: Vec<f64> = m.coeffs.iter().map(|c| c.to_f64() / ct.scale).collect();
        self.ctx
            .embedding()
            .coeffs_to_slots(&coeffs_f, self.ctx.slots())
            .iter()
            .map(|c| c.re)
            .collect()
    }

    /// Rescale: divide by the top prime `q_ℓ`.
    pub fn rescale(&self, ct: &BigCiphertext) -> BigCiphertext {
        assert!(ct.level >= 1);
        let q_top = BigInt::from_u64(self.ctx.chain_moduli()[ct.level].value());
        let q_next = self.modulus_at(ct.level - 1);
        BigCiphertext {
            c0: ct.c0.div_round(&q_top).reduce_centered(&q_next),
            c1: ct.c1.div_round(&q_top).reduce_centered(&q_next),
            scale: ct.scale / q_top.to_f64(),
            level: ct.level - 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;

    fn tiny_ctx() -> Arc<CkksContext> {
        CkksParams::tiny(2).build()
    }

    /// N = 256 params keep the O(N²) schoolbook paths affordable.
    fn micro_ctx() -> Arc<CkksContext> {
        CkksParams::paper(256, 2).build()
    }

    #[test]
    fn bigpoly_ring_axioms() {
        let a = BigPoly::from_signed(&[1, 2, 3, 4]);
        let b = BigPoly::from_signed(&[-2, 0, 1, 5]);
        let c = BigPoly::from_signed(&[7, -1, 0, 2]);
        let ab = a.mul(&b);
        let ba = b.mul(&a);
        for (x, y) in ab.coeffs.iter().zip(&ba.coeffs) {
            assert_eq!(x, y);
        }
        let lhs = a.mul(&b.add(&c));
        let rhs = a.mul(&b).add(&a.mul(&c));
        for (x, y) in lhs.coeffs.iter().zip(&rhs.coeffs) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn negacyclic_identity() {
        // X^{n/2} · X^{n/2} = X^n = -1
        let n = 8;
        let mut a = vec![0i64; n];
        a[4] = 1;
        let p = BigPoly::from_signed(&a);
        let sq = p.mul(&p);
        assert_eq!(sq.coeffs[0], BigInt::from_i64(-1));
        assert!(sq.coeffs[1..].iter().all(ckks_math::BigInt::is_zero));
    }

    #[test]
    fn rns_mul_matches_bignum_mul() {
        // The core cross-validation: double-CRT product == schoolbook
        // bignum product mod Q.
        let ctx = micro_ctx();
        let mut s = Sampler::from_seed(42);
        let level = 2usize;
        let indices: Vec<usize> = (0..=level).collect();
        let mut a = RnsPoly::uniform(
            Arc::clone(ctx.poly_ctx()),
            indices.clone(),
            Form::Coeff,
            &mut s,
        );
        let mut b = RnsPoly::uniform(Arc::clone(ctx.poly_ctx()), indices, Form::Coeff, &mut s);
        let big_a = BigPoly::from_rns(&ctx, &a);
        let big_b = BigPoly::from_rns(&ctx, &b);
        let q = ctx.level_basis(level).big_q().clone();
        let expect = big_a.mul(&big_b).reduce_centered(&q);

        a.ntt_forward();
        b.ntt_forward();
        a.mul_assign(&b);
        let got = BigPoly::from_rns(&ctx, &a);
        for (x, y) in got.coeffs.iter().zip(&expect.coeffs) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn bignum_scheme_encrypt_decrypt() {
        let ctx = micro_ctx();
        let scheme = BigCkks::new(Arc::clone(&ctx));
        let mut s = Sampler::from_seed(7);
        let keys = scheme.keygen(&mut s);
        let scale = ctx.params().scale();
        let m_coeffs: Vec<i64> = (0..ctx.n() as i64).map(|i| i * 1000 - 128_000).collect();
        let m = BigPoly::from_signed(&m_coeffs);
        let ct = scheme.encrypt_coeffs(&m, scale, &keys, &mut s);
        let back = scheme.decrypt_coeffs(&ct, &keys);
        for (got, want) in back.coeffs.iter().zip(&m.coeffs) {
            let diff = got.sub(want).to_f64().abs();
            assert!(diff <= 200.0, "noise too large: {diff}");
        }
    }

    #[test]
    fn bignum_scheme_add() {
        let ctx = micro_ctx();
        let scheme = BigCkks::new(Arc::clone(&ctx));
        let mut s = Sampler::from_seed(8);
        let keys = scheme.keygen(&mut s);
        let scale = ctx.params().scale();
        let a_coeffs: Vec<i64> = (0..ctx.n() as i64).map(|i| i * 500).collect();
        let b_coeffs: Vec<i64> = (0..ctx.n() as i64).map(|i| -i * 300 + 7).collect();
        let ca = scheme.encrypt_coeffs(&BigPoly::from_signed(&a_coeffs), scale, &keys, &mut s);
        let cb = scheme.encrypt_coeffs(&BigPoly::from_signed(&b_coeffs), scale, &keys, &mut s);
        let sum = scheme.add(&ca, &cb);
        let back = scheme.decrypt_coeffs(&sum, &keys);
        for (i, got) in back.coeffs.iter().enumerate() {
            let want = a_coeffs[i] + b_coeffs[i];
            let diff = got.sub(&BigInt::from_i64(want)).to_f64().abs();
            assert!(diff <= 400.0, "coeff {i}: {diff}");
        }
    }

    #[test]
    fn bignum_multiply_and_rescale_end_to_end() {
        // Encrypt x and y as slot-encoded vectors through the embedding,
        // multiply in the bignum scheme, decode, compare to x·y.
        let ctx = micro_ctx();
        let scheme = BigCkks::new(Arc::clone(&ctx));
        let mut s = Sampler::from_seed(9);
        let keys = scheme.keygen(&mut s);
        let scale = ctx.params().scale();

        let x: Vec<f64> = (0..ctx.slots()).map(|i| 0.4 + 0.001 * i as f64).collect();
        let y: Vec<f64> = (0..ctx.slots()).map(|i| -0.3 + 0.002 * i as f64).collect();
        let enc = |v: &[f64]| -> BigPoly {
            let padded: Vec<ckks_math::fft::Complex> = v
                .iter()
                .map(|&r| ckks_math::fft::Complex::from(r))
                .collect();
            let coeffs = ctx.embedding().slots_to_coeffs(&padded);
            BigPoly {
                coeffs: coeffs
                    .iter()
                    .map(|&c| BigInt::from_f64_rounded(c * scale))
                    .collect(),
            }
        };
        let cx = scheme.encrypt_coeffs(&enc(&x), scale, &keys, &mut s);
        let cy = scheme.encrypt_coeffs(&enc(&y), scale, &keys, &mut s);
        let prod = scheme.rescale(&scheme.multiply(&cx, &cy, &keys));
        let m = scheme.decrypt_coeffs(&prod, &keys);
        let coeffs_f: Vec<f64> = m.coeffs.iter().map(|c| c.to_f64() / prod.scale).collect();
        let slots = ctx.embedding().coeffs_to_slots(&coeffs_f, ctx.slots());
        for i in 0..8 {
            let want = x[i] * y[i];
            assert!(
                (slots[i].re - want).abs() < 1e-3,
                "slot {i}: {} vs {want}",
                slots[i].re
            );
        }
    }

    #[test]
    fn bignum_rotate_acts_on_slots() {
        let ctx = micro_ctx();
        let scheme = BigCkks::new(Arc::clone(&ctx));
        let mut s = Sampler::from_seed(11);
        let keys = scheme.keygen(&mut s);
        let gk = scheme.gen_galois_keys(&keys, &[1, 3], &mut s);
        let scale = ctx.params().scale();
        let x: Vec<f64> = (0..ctx.slots()).map(|i| 0.1 + 0.01 * i as f64).collect();
        let ct = scheme.encrypt_coeffs(&scheme.encode_slots(&x, scale), scale, &keys, &mut s);
        for steps in [1usize, 3] {
            let rot = scheme.rotate(&ct, steps as i64, &gk);
            let back = scheme.decrypt_to_real(&rot, &keys);
            for i in 0..8 {
                let want = x[(i + steps) % ctx.slots()];
                assert!(
                    (back[i] - want).abs() < 1e-3,
                    "steps {steps} slot {i}: {} vs {want}",
                    back[i]
                );
            }
        }
    }

    #[test]
    fn bignum_rotate_matches_rns_rotate() {
        // The parity that completes the differential oracle: the RNS
        // evaluator's hybrid-keyswitched rotation and the bignum
        // textbook rotation decrypt to the same slots.
        let ctx = micro_ctx();
        let scheme = BigCkks::new(Arc::clone(&ctx));
        let mut s = Sampler::from_seed(12);
        let keys = scheme.keygen(&mut s);
        let gk_big = scheme.gen_galois_keys(&keys, &[2], &mut s);

        let mut kg = crate::keys::KeyGenerator::new(Arc::clone(&ctx), 12);
        let sk = kg.gen_secret_key();
        let pk = kg.gen_public_key(&sk);
        let gk_rns = kg.gen_galois_keys(&sk, &[2], false);
        let ev = crate::eval::Evaluator::new(Arc::clone(&ctx));
        let mut s2 = Sampler::from_seed(13);

        let scale = ctx.params().scale();
        let x: Vec<f64> = (0..ctx.slots()).map(|i| 0.2 - 0.003 * i as f64).collect();
        let ct_big = scheme.encrypt_coeffs(&scheme.encode_slots(&x, scale), scale, &keys, &mut s);
        let ct_rns = ev.encrypt_real(&x, &pk, &mut s2);

        let big = scheme.decrypt_to_real(&scheme.rotate(&ct_big, 2, &gk_big), &keys);
        let rns = ev.decrypt_to_real(&ev.rotate(&ct_rns, 2, &gk_rns), &sk);
        for i in 0..8 {
            let want = x[(i + 2) % ctx.slots()];
            assert!((big[i] - want).abs() < 1e-3, "bignum slot {i}");
            assert!((rns[i] - want).abs() < 1e-3, "rns slot {i}");
            assert!((big[i] - rns[i]).abs() < 2e-3, "worlds diverge at {i}");
        }
    }

    #[test]
    fn bignum_sub_negate_roundtrip() {
        let ctx = micro_ctx();
        let scheme = BigCkks::new(Arc::clone(&ctx));
        let mut s = Sampler::from_seed(14);
        let keys = scheme.keygen(&mut s);
        let scale = ctx.params().scale();
        let x: Vec<f64> = (0..ctx.slots()).map(|i| 0.3 + 0.002 * i as f64).collect();
        let y: Vec<f64> = (0..ctx.slots()).map(|i| -0.1 + 0.004 * i as f64).collect();
        let cx = scheme.encrypt_coeffs(&scheme.encode_slots(&x, scale), scale, &keys, &mut s);
        let cy = scheme.encrypt_coeffs(&scheme.encode_slots(&y, scale), scale, &keys, &mut s);
        let diff = scheme.decrypt_to_real(&scheme.sub(&cx, &cy), &keys);
        let ndiff = scheme.decrypt_to_real(&scheme.negate(&scheme.sub(&cy, &cx)), &keys);
        for i in 0..8 {
            let want = x[i] - y[i];
            assert!((diff[i] - want).abs() < 1e-3, "sub slot {i}");
            assert!((ndiff[i] - want).abs() < 1e-3, "neg(sub) slot {i}");
        }
    }

    #[test]
    fn rns_rescale_matches_bignum_rescale() {
        let ctx = tiny_ctx();
        let mut s = Sampler::from_seed(10);
        let level = 2usize;
        let indices: Vec<usize> = (0..=level).collect();
        let poly = RnsPoly::uniform(Arc::clone(ctx.poly_ctx()), indices, Form::Coeff, &mut s);
        // bignum: round(x / q_top) centered mod Q_{ℓ-1}
        let big = BigPoly::from_rns(&ctx, &poly);
        let q_top = BigInt::from_u64(ctx.chain_moduli()[level].value());
        let q_next = ctx.level_basis(level - 1).big_q().clone();
        let expect = big.div_round(&q_top).reduce_centered(&q_next);

        // RNS: the evaluator's rescale arithmetic, replicated on a bare poly
        let mut p = poly.clone();
        let qk = ctx.chain_moduli()[level];
        let half = qk.value() / 2;
        let last = p.limb(level).to_vec();
        for li in 0..level {
            let m = *p.limb_modulus(li);
            let qinv = ctx.rescale_inv(level)[li];
            let dst = p.limb_mut(li);
            for (dv, &r) in dst.iter_mut().zip(&last) {
                let lifted = if r > half {
                    m.neg(m.reduce(qk.value() - r))
                } else {
                    m.reduce(r)
                };
                *dv = m.mul(m.sub(*dv, lifted), qinv);
            }
        }
        p.drop_last_limb();
        let got = BigPoly::from_rns(&ctx, &p);
        // RNS rescale computes (x - [x]_{q_top})/q_top exactly; it differs
        // from round(x/q_top) by at most 1.
        for (x, y) in got.coeffs.iter().zip(&expect.coeffs) {
            let d = x.sub(y).to_f64().abs();
            assert!(d <= 1.0, "rescale mismatch {d}");
        }
    }
}
