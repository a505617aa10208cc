//! Key material: secret, public, relinearization and Galois keys, plus the
//! generator implementing the paper's `KeyGen(N, q, L) → sk, pk, ek`.
//!
//! Key switching is hybrid (Han–Ki): the chain is cut into digits of
//! consecutive limbs ([`crate::CkksParams::digit_partition`]), and digit
//! `j` of a key-switching key encrypts `P · ι_j · w` under a secret `t`,
//! where `w` is the payload (`s²` under `s` for relinearization; `s`
//! under `σ_g⁻¹(s)` for the Galois element `g`, so a rotation switches
//! before it permutes), `P` is the product of the special primes, and
//! `ι_j` is the digit indicator (`≡ 1` mod every prime of digit `j`,
//! `≡ 0` mod every other prime including the special ones). This makes
//! one key set valid at *every* level — at level ℓ only the digits that
//! start at or below ℓ are used, the last one truncated. With one
//! special prime every digit is one limb and this is GHS key switching.
//! This is the only key switch: every relinearization and rotation key
//! is drawn over the chain and the special primes.

use crate::params::CkksContext;
use ckks_math::ntt::galois_permutation;
use ckks_math::poly::{Form, RnsPoly};
use ckks_math::sampler::Sampler;
use std::collections::HashMap;
use std::sync::Arc;

/// Secret key: `s ← χ_key = HW(h)`, kept only in NTT form over every
/// modulus; a Galois key's `σ_g⁻¹(s)` is a permutation of its NTT slots.
pub struct SecretKey {
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

/// A key-switching key: one RLWE pair per key-switch digit, each
/// encrypting `P` times its payload `w` on the digit's own limbs
/// (`[P]_{q_i}·w` on limb `i`) under its secret `t`, over every chain
/// and special modulus.
#[derive(Debug, Clone)]
pub struct KeySwitchKey {
    /// `digits[j] = (b_j, a_j)`.
    pub(crate) digits: Vec<(RnsPoly, RnsPoly)>,
}

impl KeySwitchKey {
    /// Per-digit RLWE pairs.
    pub fn digits(&self) -> &[(RnsPoly, RnsPoly)] {
        &self.digits
    }

    /// Reassembles a key-switching key (deserialization).
    pub fn from_parts(digits: Vec<(RnsPoly, RnsPoly)>) -> Self {
        Self { digits }
    }
}

/// Relinearization key: a key switch from `s²` to `s` (the paper's `ek`).
#[derive(Debug, Clone)]
pub struct RelinKey(pub KeySwitchKey);

/// Galois keys: one key switch per Galois element `g`, carrying payload `s`
/// under the secret `σ_g⁻¹(s)` (the form a hoisted rotation switches in
/// before it applies `σ_g`).
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

    /// Bytes of residues the keys hold: 8 per coefficient of every
    /// limb of every digit pair.
    pub fn residue_bytes(&self) -> usize {
        let per_key = |k: &KeySwitchKey| -> usize {
            k.digits
                .iter()
                .map(|(b, a)| b.limbs_flat().len() + a.limbs_flat().len())
                .sum()
        };
        8 * self.keys.values().map(per_key).sum::<usize>()
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

    /// Generic key-switching key with payload `w` under the secret `t`
    /// (both NTT form over all moduli): one pair per digit.
    fn gen_ksk(&mut self, w: &RnsPoly, t: &RnsPoly) -> KeySwitchKey {
        let indices = self.all_indices();
        let ctx = Arc::clone(&self.ctx);
        let mut digits = Vec::with_capacity(ctx.digit_partition().len());
        for digit in ctx.digit_partition() {
            let a_j = RnsPoly::uniform(
                Arc::clone(ctx.poly_ctx()),
                indices.clone(),
                Form::Ntt,
                &mut self.sampler,
            );
            let e_j = self.error_ntt(&indices);
            let mut b_j = a_j.clone();
            b_j.mul_assign(t);
            b_j.neg_assign();
            b_j.add_assign(&e_j);
            // the digit indicator's payload: [P]_{q_i} · w_i on each of
            // the digit's limbs, nothing elsewhere
            for i in digit.clone() {
                let m = ctx.chain_moduli()[i];
                let factor = ctx.p_mod_qi()[i];
                let fs = m.shoup(factor);
                for (d, &wv) in b_j.limb_mut(i).iter_mut().zip(w.limb(i)) {
                    *d = m.add(*d, m.mul_shoup(wv, factor, fs));
                }
            }
            digits.push((b_j, a_j));
        }
        KeySwitchKey { digits }
    }

    /// Relinearization key (`ek`): switches `s²` to `s`.
    pub fn gen_relin_key(&mut self, sk: &SecretKey) -> RelinKey {
        let mut s2 = sk.s_ntt.clone();
        s2.mul_assign(&sk.s_ntt);
        RelinKey(self.gen_ksk(&s2, &sk.s_ntt))
    }

    /// Galois keys for the given rotation steps (and, with
    /// `with_conjugate`, the conjugation element `2N − 1`, which no
    /// evaluator op applies; the request-level benchmark still passes
    /// the flag): payload `s` under the secret `σ_g⁻¹(s)`.
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
            elements.push(2 * self.ctx.n() - 1);
        }
        elements.sort_unstable();
        elements.dedup();

        let mut keys = HashMap::new();
        for g in elements {
            // σ_g reads slot perm[k] into slot k, so scattering s through
            // the same permutation, t[perm[k]] = s[k], gives σ_g(t) = s
            let perm = galois_permutation(self.ctx.n(), g);
            let mut t = sk.s_ntt.clone();
            for i in 0..t.num_limbs() {
                let (src, dst) = (sk.s_ntt.limb(i), t.limb_mut(i));
                for (&v, &k) in src.iter().zip(perm.iter()) {
                    dst[k as usize] = v;
                }
            }
            keys.insert(g, self.gen_ksk(&sk.s_ntt, &t));
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
        let mut s = sk.s_at_level(0);
        s.ntt_inverse();
        let m = *s.limb_modulus(0);
        assert_eq!(s.limb(0).len(), ctx.n());
        let nz = s.limb(0).iter().filter(|&&c| c != 0).count();
        assert_eq!(nz, sk.hamming_weight);
        assert!(s.limb(0).iter().all(|&c| m.to_centered_i64(c).abs() <= 1));
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
        let gk = kg.gen_galois_keys(&sk, &[1], false);
        let rot = gk.get(ctx.galois_element_for_rotation(1)).unwrap();
        // one digit per key-switch digit, each over chain + special moduli
        for ksk in [&rk.0, rot] {
            assert_eq!(ksk.digits.len(), ctx.digit_partition().len());
            for (b, a) in &ksk.digits {
                assert_eq!(b.num_limbs(), ctx.poly_ctx().moduli().len());
                assert_eq!(a.num_limbs(), ctx.poly_ctx().moduli().len());
            }
        }
    }

    #[test]
    fn ksk_digit_decrypts_to_payload() {
        // b_j + a_j·s = e + P·ι_j·s²: checking every limb of digit j
        // carries [P]_{q_i}·s² plus small error, other limbs only the
        // error — at two special primes, where digits span several limbs.
        let ctx = CkksParams::tiny(3).build();
        assert!(ctx.digit_partition().iter().any(|d| d.len() > 1));
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
            // subtract the expected payload on the digit's limbs
            for i in ctx.digit_partition()[j].clone() {
                let m = ctx.chain_moduli()[i];
                let p_mod = ctx.p_mod_qi()[i];
                let s2_limb = s2.limb(i).to_vec();
                for (d, &sv) in lhs.limb_mut(i).iter_mut().zip(&s2_limb) {
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
        assert!(gk.contains(2 * ctx.n() - 1));
        assert!(!gk.contains(ctx.galois_element_for_rotation(7)));
    }

    #[test]
    fn deterministic_under_seed() {
        let ctx = CkksParams::tiny(1).build();
        let sk1 = KeyGenerator::new(Arc::clone(&ctx), 9).gen_secret_key();
        let sk2 = KeyGenerator::new(Arc::clone(&ctx), 9).gen_secret_key();
        assert_eq!(sk1.s_ntt.limbs_flat(), sk2.s_ntt.limbs_flat());
        let sk3 = KeyGenerator::new(Arc::clone(&ctx), 10).gen_secret_key();
        assert_ne!(sk1.s_ntt.limbs_flat(), sk3.s_ntt.limbs_flat());
    }
}
