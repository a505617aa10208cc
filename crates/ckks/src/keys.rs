//! Key material: secret, public, relinearization and Galois keys, plus the
//! generator implementing the paper's `KeyGen(N, q, L) → sk, pk, ek`.
//!
//! Key switching follows the GHS/hybrid approach with limb-digit
//! decomposition: for each chain prime `q_j`, digit `j` of a key-switching
//! key encrypts `P · δ_j · w` where `w` is the source key (`s²` for
//! relinearization, `σ(s)` for rotations), `P` is the product of the
//! special primes, and `δ_j` is the CRT indicator (`≡ 1 mod q_j`, `≡ 0`
//! mod every other prime including the special ones). This makes one key
//! set valid at *every* level — at level ℓ only digits `0..=ℓ` are used.
//!
//! A BV-style variant without the special modulus is included for the
//! noise/latency ablation benchmarks.

use crate::params::CkksContext;
use ckks_math::poly::{Form, RnsPoly};
use ckks_math::sampler::Sampler;
use std::collections::HashMap;
use std::sync::Arc;

/// Secret key: `s ← χ_key = HW(h)`, stored both as signed coefficients
/// (needed to form `σ(s)` for Galois keys) and in NTT form over every
/// modulus.
///
/// **Note:** a production deployment would zeroize `coeffs` on drop and
/// avoid retaining them at all; this research implementation keeps them
/// for key-derivation convenience.
pub struct SecretKey {
    /// Signed ternary coefficients.
    pub(crate) coeffs: Vec<i64>,
    /// `s` in NTT form over all (chain + special) moduli.
    pub(crate) s_ntt: RnsPoly,
    /// Hamming weight used at sampling time.
    pub hamming_weight: usize,
}

impl SecretKey {
    /// `s` restricted to limbs `0..=level`, NTT form.
    pub fn s_at_level(&self, level: usize) -> RnsPoly {
        let indices: Vec<usize> = (0..=level).collect();
        self.s_ntt.restrict(&indices)
    }
}

/// Public encryption key `(b, a) = (-a·s + e, a)` over the chain moduli.
#[derive(Debug, Clone)]
pub struct PublicKey {
    pub(crate) b: RnsPoly,
    pub(crate) a: RnsPoly,
}

impl PublicKey {
    /// The `b = -a·s + e` component.
    pub fn b(&self) -> &RnsPoly {
        &self.b
    }

    /// The uniform `a` component.
    pub fn a(&self) -> &RnsPoly {
        &self.a
    }

    /// Reassembles a public key (deserialization).
    pub fn from_parts(b: RnsPoly, a: RnsPoly) -> Self {
        Self { b, a }
    }
}

/// Key-switching algorithm variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KsVariant {
    /// Hybrid/GHS with special modulus `P`: digits carry a `P` factor and
    /// the switched result is scaled down by `P`, making the added noise
    /// negligible. The default.
    Ghs,
    /// BV-style digit decomposition without a special modulus. Cheaper per
    /// digit but adds noise proportional to `q_j · N · σ`; kept for the
    /// ablation study.
    Bv,
}

/// A key-switching key from some source key `w` to the secret `s`:
/// one RLWE pair per chain-prime digit.
#[derive(Debug, Clone)]
pub struct KeySwitchKey {
    /// `digits[j] = (b_j, a_j)`.
    pub(crate) digits: Vec<(RnsPoly, RnsPoly)>,
    pub variant: KsVariant,
}

impl KeySwitchKey {
    /// Per-digit RLWE pairs.
    pub fn digits(&self) -> &[(RnsPoly, RnsPoly)] {
        &self.digits
    }

    /// Reassembles a key-switching key (deserialization).
    pub fn from_parts(digits: Vec<(RnsPoly, RnsPoly)>, variant: KsVariant) -> Self {
        Self { digits, variant }
    }
}

/// Relinearization key: a key switch from `s²` to `s` (the paper's `ek`).
#[derive(Debug, Clone)]
pub struct RelinKey(pub KeySwitchKey);

/// Galois keys: one key switch per Galois element `g`, from `σ_g(s)` to `s`.
#[derive(Debug, Clone, Default)]
pub struct GaloisKeys {
    pub(crate) keys: HashMap<usize, KeySwitchKey>,
}

impl GaloisKeys {
    pub fn get(&self, galois_element: usize) -> Option<&KeySwitchKey> {
        self.keys.get(&galois_element)
    }

    pub fn contains(&self, galois_element: usize) -> bool {
        self.keys.contains_key(&galois_element)
    }

    pub fn elements(&self) -> impl Iterator<Item = usize> + '_ {
        self.keys.keys().copied()
    }

    /// Inserts a key for a Galois element (deserialization / merging).
    pub fn insert(&mut self, galois_element: usize, key: KeySwitchKey) {
        self.keys.insert(galois_element, key);
    }

    /// Moves every key of `other` into this set.
    pub fn extend(&mut self, other: GaloisKeys) {
        self.keys.extend(other.keys);
    }
}

/// Generates all key material for a context.
pub struct KeyGenerator {
    ctx: Arc<CkksContext>,
    sampler: Sampler,
}

impl KeyGenerator {
    pub fn new(ctx: Arc<CkksContext>, seed: u64) -> Self {
        Self {
            ctx,
            sampler: Sampler::from_seed(seed),
        }
    }

    pub fn from_entropy(ctx: Arc<CkksContext>) -> Self {
        Self {
            ctx,
            sampler: Sampler::from_entropy(),
        }
    }

    fn all_indices(&self) -> Vec<usize> {
        (0..self.ctx.poly_ctx().moduli().len()).collect()
    }

    fn chain_indices(&self) -> Vec<usize> {
        (0..self.ctx.poly_ctx().chain_len()).collect()
    }

    /// Samples an error polynomial (CBD, σ ≈ 3.2) over the given limbs,
    /// returned in NTT form.
    fn error_ntt(&mut self, indices: &[usize]) -> RnsPoly {
        let e: Vec<i64> = self
            .sampler
            .cbd_error(self.ctx.n())
            .into_iter()
            .map(|x| x as i64)
            .collect();
        let mut p = RnsPoly::from_signed(Arc::clone(self.ctx.poly_ctx()), indices.to_vec(), &e);
        p.ntt_forward();
        p
    }

    /// `sk ← χ_key = HW(h)` with `h = min(N/2, 64)` by default (HEAAN's
    /// choice, compatible with the HE-standard ternary assumption).
    pub fn gen_secret_key(&mut self) -> SecretKey {
        let h = 64.min(self.ctx.n() / 2);
        self.gen_secret_key_with_weight(h)
    }

    pub fn gen_secret_key_with_weight(&mut self, h: usize) -> SecretKey {
        let coeffs: Vec<i64> = self
            .sampler
            .hamming_ternary(self.ctx.n(), h)
            .into_iter()
            .map(|x| x as i64)
            .collect();
        let mut s_ntt =
            RnsPoly::from_signed(Arc::clone(self.ctx.poly_ctx()), self.all_indices(), &coeffs);
        s_ntt.ntt_forward();
        SecretKey {
            coeffs,
            s_ntt,
            hamming_weight: h,
        }
    }

    /// `pk = (b, a) ∈ R_{q_L}²` with `b = -a·s + e`.
    pub fn gen_public_key(&mut self, sk: &SecretKey) -> PublicKey {
        let indices = self.chain_indices();
        let a = RnsPoly::uniform(
            Arc::clone(self.ctx.poly_ctx()),
            indices.clone(),
            Form::Ntt,
            &mut self.sampler,
        );
        let e = self.error_ntt(&indices);
        let s = sk.s_ntt.restrict(&indices);
        let mut b = a.clone();
        b.mul_assign(&s);
        b.neg_assign();
        b.add_assign(&e);
        PublicKey { b, a }
    }

    /// Generic key-switching key from source key `w` (NTT form over all
    /// moduli) to `s`.
    fn gen_ksk(&mut self, w: &RnsPoly, sk: &SecretKey, variant: KsVariant) -> KeySwitchKey {
        let chain_len = self.ctx.poly_ctx().chain_len();
        let indices = match variant {
            KsVariant::Ghs => self.all_indices(),
            KsVariant::Bv => self.chain_indices(),
        };
        let s = sk.s_ntt.restrict(&indices);
        let w_r = w.restrict(&indices);
        let mut digits = Vec::with_capacity(chain_len);
        for j in 0..chain_len {
            let a_j = RnsPoly::uniform(
                Arc::clone(self.ctx.poly_ctx()),
                indices.clone(),
                Form::Ntt,
                &mut self.sampler,
            );
            let e_j = self.error_ntt(&indices);
            let mut b_j = a_j.clone();
            b_j.mul_assign(&s);
            b_j.neg_assign();
            b_j.add_assign(&e_j);
            // add the digit payload on limb j only:
            //   GHS: [P]_{q_j} · w_j     BV: w_j
            let m = self.ctx.chain_moduli()[j];
            let factor = match variant {
                KsVariant::Ghs => self.ctx.p_mod_qi()[j],
                KsVariant::Bv => 1,
            };
            let fs = m.shoup(m.reduce(factor));
            let w_limb = w_r.limb(j);
            // limb j of b_j has the same position j (indices are 0..)
            let dst = b_j.limb_mut(j);
            for (d, &wv) in dst.iter_mut().zip(w_limb) {
                let t = m.mul_shoup(wv, m.reduce(factor), fs);
                *d = m.add(*d, t);
            }
            digits.push((b_j, a_j));
        }
        KeySwitchKey { digits, variant }
    }

    /// Relinearization key (`ek`): switches `s²` to `s`.
    pub fn gen_relin_key(&mut self, sk: &SecretKey) -> RelinKey {
        self.gen_relin_key_variant(sk, KsVariant::Ghs)
    }

    pub fn gen_relin_key_variant(&mut self, sk: &SecretKey, variant: KsVariant) -> RelinKey {
        let mut s2 = sk.s_ntt.clone();
        let s2_clone = sk.s_ntt.clone();
        s2.mul_assign(&s2_clone);
        RelinKey(self.gen_ksk(&s2, sk, variant))
    }

    /// Galois keys for the given rotation steps (and optionally
    /// conjugation), switching `σ_g(s)` to `s`.
    pub fn gen_galois_keys(
        &mut self,
        sk: &SecretKey,
        steps: &[i64],
        with_conjugate: bool,
    ) -> GaloisKeys {
        let mut elements: Vec<usize> = steps
            .iter()
            .map(|&r| self.ctx.galois_element_for_rotation(r))
            .collect();
        if with_conjugate {
            elements.push(self.ctx.galois_element_conjugate());
        }
        elements.sort_unstable();
        elements.dedup();

        let mut keys = HashMap::new();
        for g in elements {
            // σ_g(s) from signed coefficients, over all moduli, NTT form.
            let s_poly = RnsPoly::from_signed(
                Arc::clone(self.ctx.poly_ctx()),
                self.all_indices(),
                &sk.coeffs,
            );
            let mut sg = s_poly.automorphism(g);
            sg.ntt_forward();
            keys.insert(g, self.gen_ksk(&sg, sk, KsVariant::Ghs));
        }
        GaloisKeys { keys }
    }

    /// Access to the underlying sampler (for encryptors sharing the RNG).
    pub fn sampler(&mut self) -> &mut Sampler {
        &mut self.sampler
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;

    #[test]
    fn secret_key_shape() {
        let ctx = CkksParams::tiny(2).build();
        let mut kg = KeyGenerator::new(Arc::clone(&ctx), 1);
        let sk = kg.gen_secret_key();
        assert_eq!(sk.coeffs.len(), ctx.n());
        let nz = sk.coeffs.iter().filter(|&&c| c != 0).count();
        assert_eq!(nz, sk.hamming_weight);
        // all moduli present
        assert_eq!(sk.s_ntt.num_limbs(), ctx.poly_ctx().moduli().len());
        // restriction works
        assert_eq!(sk.s_at_level(1).num_limbs(), 2);
    }

    #[test]
    fn public_key_is_rlwe_sample() {
        // b + a·s must equal a small error.
        let ctx = CkksParams::tiny(1).build();
        let mut kg = KeyGenerator::new(Arc::clone(&ctx), 2);
        let sk = kg.gen_secret_key();
        let pk = kg.gen_public_key(&sk);
        let s = sk.s_at_level(ctx.max_level());
        let mut check = pk.a.clone();
        check.mul_assign(&s);
        check.add_assign(&pk.b);
        check.ntt_inverse();
        // every coefficient must be a small centered value (CBD ≤ 21)
        for li in 0..check.num_limbs() {
            let m = *check.limb_modulus(li);
            for &c in check.limb(li) {
                let v = m.to_centered_i64(c);
                assert!(v.abs() <= 21, "residual {v} too large for an RLWE error");
            }
        }
    }

    #[test]
    fn relin_key_digit_structure() {
        let ctx = CkksParams::tiny(1).build();
        let mut kg = KeyGenerator::new(Arc::clone(&ctx), 3);
        let sk = kg.gen_secret_key();
        let rk = kg.gen_relin_key(&sk);
        assert_eq!(rk.0.digits.len(), ctx.poly_ctx().chain_len());
        assert_eq!(rk.0.variant, KsVariant::Ghs);
        // GHS digits live over chain + special moduli
        assert_eq!(rk.0.digits[0].0.num_limbs(), ctx.poly_ctx().moduli().len());
        let bv = kg.gen_relin_key_variant(&sk, KsVariant::Bv);
        assert_eq!(bv.0.digits[0].0.num_limbs(), ctx.poly_ctx().chain_len());
    }

    #[test]
    fn ksk_digit_decrypts_to_payload() {
        // b_j + a_j·s = e + P·δ_j·s²: checking limb j carries [P]_{q_j}·s²
        // plus small error, other limbs only the error.
        let ctx = CkksParams::tiny(1).build();
        let mut kg = KeyGenerator::new(Arc::clone(&ctx), 4);
        let sk = kg.gen_secret_key();
        let rk = kg.gen_relin_key(&sk);
        let all: Vec<usize> = (0..ctx.poly_ctx().moduli().len()).collect();
        let s = sk.s_ntt.restrict(&all);
        let mut s2 = s.clone();
        let sc = s.clone();
        s2.mul_assign(&sc);

        for (j, (b_j, a_j)) in rk.0.digits.iter().enumerate() {
            let mut lhs = a_j.clone();
            lhs.mul_assign(&s);
            lhs.add_assign(b_j);
            // subtract the expected payload on limb j
            let m = ctx.chain_moduli()[j];
            let p_mod = ctx.p_mod_qi()[j];
            {
                let s2_limb = s2.limb(j).to_vec();
                let dst = lhs.limb_mut(j);
                for (d, &sv) in dst.iter_mut().zip(&s2_limb) {
                    *d = m.sub(*d, m.mul(p_mod, sv));
                }
            }
            let mut lhs_c = lhs.clone();
            lhs_c.ntt_inverse();
            for li in 0..lhs_c.num_limbs() {
                let mm = *lhs_c.limb_modulus(li);
                for &c in lhs_c.limb(li) {
                    let v = mm.to_centered_i64(c);
                    assert!(v.abs() <= 21, "digit {j} limb {li}: residual {v}");
                }
            }
        }
    }

    #[test]
    fn galois_keys_cover_requested_rotations() {
        let ctx = CkksParams::tiny(1).build();
        let mut kg = KeyGenerator::new(Arc::clone(&ctx), 5);
        let sk = kg.gen_secret_key();
        let gk = kg.gen_galois_keys(&sk, &[1, 2, -1], true);
        assert!(gk.contains(ctx.galois_element_for_rotation(1)));
        assert!(gk.contains(ctx.galois_element_for_rotation(2)));
        assert!(gk.contains(ctx.galois_element_for_rotation(-1)));
        assert!(gk.contains(ctx.galois_element_conjugate()));
        assert!(!gk.contains(ctx.galois_element_for_rotation(7)));
    }

    #[test]
    fn deterministic_under_seed() {
        let ctx = CkksParams::tiny(1).build();
        let sk1 = KeyGenerator::new(Arc::clone(&ctx), 9).gen_secret_key();
        let sk2 = KeyGenerator::new(Arc::clone(&ctx), 9).gen_secret_key();
        assert_eq!(sk1.coeffs, sk2.coeffs);
        let sk3 = KeyGenerator::new(Arc::clone(&ctx), 10).gen_secret_key();
        assert_ne!(sk1.coeffs, sk3.coeffs);
    }
}
