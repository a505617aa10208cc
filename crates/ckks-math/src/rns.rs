//! Residue number system over a basis of word-sized co-prime moduli.
//!
//! Implements exactly the machinery RNS-CKKS needs:
//!
//! * CRT **composition** (`residues → BigInt`) and **decomposition**
//!   (`BigInt → residues`), including centered variants;
//! * **fast base conversion** between bases: [`RnsBasis::convert_to`]
//!   per coefficient with bignum tables and a floating-point estimate of
//!   the overflow multiple (Halevi–Polyakov–Shoup, exact for centred
//!   inputs bounded away from `Q/2`) — the reference — and
//!   [`FastBaseConverter`], limb-wise over whole polynomials with word
//!   tables and no overflow correction, which key switching runs;
//! * the scalar precomputations (punctured products and their inverses)
//!   shared by rescaling and key switching.

use crate::bigint::BigInt;
use crate::kernel::{self, KernelBackend};
use crate::modring::Modulus;

/// An RNS basis `{q_0, …, q_{k-1}}` of pairwise co-prime word-sized
/// moduli, with CRT precomputations.
#[derive(Debug, Clone)]
pub struct RnsBasis {
    moduli: Vec<Modulus>,
    /// `Q = Π q_i`.
    big_q: BigInt,
    /// `Q_i = Q / q_i`.
    punctured: Vec<BigInt>,
    /// `[Q_i^{-1}]_{q_i}`.
    punctured_inv: Vec<u64>,
}

impl RnsBasis {
    pub fn new(moduli: Vec<Modulus>) -> Self {
        assert!(!moduli.is_empty(), "empty RNS basis");
        // pairwise co-primality (we use primes, so inequality suffices;
        // verify defensively with gcd)
        for i in 0..moduli.len() {
            for j in i + 1..moduli.len() {
                assert!(
                    gcd(moduli[i].value(), moduli[j].value()) == 1,
                    "moduli must be pairwise co-prime"
                );
            }
        }
        let big_q = moduli
            .iter()
            .fold(BigInt::one(), |acc, m| acc.mul_u64(m.value()));
        let punctured: Vec<BigInt> = moduli
            .iter()
            .map(|m| big_q.div_rem(&BigInt::from_u64(m.value())).0)
            .collect();
        let punctured_inv: Vec<u64> = moduli
            .iter()
            .zip(&punctured)
            .map(|(m, qi)| m.inv(qi.rem_u64(m.value())))
            .collect();
        Self {
            moduli,
            big_q,
            punctured,
            punctured_inv,
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.moduli.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.moduli.is_empty()
    }

    #[inline]
    pub fn moduli(&self) -> &[Modulus] {
        &self.moduli
    }

    #[inline]
    pub fn big_q(&self) -> &BigInt {
        &self.big_q
    }

    /// `[（Q/q_i)^{-1}]_{q_i}` scalars.
    #[inline]
    pub fn punctured_inv(&self) -> &[u64] {
        &self.punctured_inv
    }

    /// Decomposes an integer into residues `[x mod q_i]`.
    pub fn decompose(&self, x: &BigInt) -> Vec<u64> {
        self.moduli.iter().map(|m| x.rem_u64(m.value())).collect()
    }

    /// Decomposes a signed 64-bit integer (fast path).
    pub fn decompose_i64(&self, x: i64) -> Vec<u64> {
        self.moduli.iter().map(|m| m.from_i64(x)).collect()
    }

    /// CRT composition to the canonical representative in `[0, Q)`.
    pub fn compose(&self, residues: &[u64]) -> BigInt {
        assert_eq!(residues.len(), self.len());
        let mut acc = BigInt::zero();
        for i in 0..self.len() {
            let t = self.moduli[i].mul(residues[i], self.punctured_inv[i]);
            acc = acc.add(&self.punctured[i].mul_u64(t));
        }
        acc.rem_euclid(&self.big_q)
    }

    /// CRT composition to the centered representative in `(-Q/2, Q/2]`.
    pub fn compose_centered(&self, residues: &[u64]) -> BigInt {
        let r = self.compose(residues);
        let half = self.big_q.shr(1);
        if r.cmp_big(&half) == std::cmp::Ordering::Greater {
            r.sub(&self.big_q)
        } else {
            r
        }
    }

    /// Fast base conversion of a *centered* value `x` (given by residues in
    /// this basis) into residues modulo each modulus of `target`.
    ///
    /// Uses the HPS float estimate: `x = Σ y_i·Q_i − v·Q` with
    /// `y_i = [x·Q_i^{-1}]_{q_i}` and `v = round(Σ y_i / q_i)`; the estimate
    /// is exact whenever `|x| ≲ Q/4` (always true for ciphertext limbs
    /// after centered reduction plus noise margins).
    pub fn convert_to(&self, residues: &[u64], target: &[Modulus]) -> Vec<u64> {
        assert_eq!(residues.len(), self.len());
        let k = self.len();
        // y_i = [x * Q_i^{-1}]_{q_i}, and the rational Σ y_i/q_i whose
        // nearest integer is the overflow count v.
        let mut ys = Vec::with_capacity(k);
        let mut frac = 0.0f64;
        for i in 0..k {
            let y = self.moduli[i].mul(residues[i], self.punctured_inv[i]);
            frac += y as f64 / self.moduli[i].value() as f64;
            ys.push(y);
        }
        let v = frac.round() as u64;
        target
            .iter()
            .map(|p| {
                let mut acc = 0u64;
                for i in 0..k {
                    // Q_i mod p
                    let qi_mod_p = self.punctured[i].rem_u64(p.value());
                    acc = p.add(acc, p.mul(ys[i], qi_mod_p));
                }
                let q_mod_p = self.big_q.rem_u64(p.value());
                p.sub(acc, p.mul(p.reduce(v), q_mod_p))
            })
            .collect()
    }

    /// Returns the sub-basis of the first `k` moduli.
    pub fn prefix(&self, k: usize) -> RnsBasis {
        assert!(k >= 1 && k <= self.len());
        RnsBasis::new(self.moduli[..k].to_vec())
    }
}

/// Limb-wise fast base conversion from a source basis `{q_i}` (product
/// `Q`) into target moduli, with no overflow correction: a value `x`
/// given by its residues becomes
///
/// `x̃ = Σ_i [x·(Q/q_i)⁻¹]_{q_i} · (Q/q_i)`, each bracket centred,
///
/// which is `≡ x (mod q_i)` on every source modulus and equals the
/// centred `x` plus `e·Q` for an integer `|e| ≤ k/2` (`k` source
/// moduli), so `|x̃| ≤ k·Q/2`. Hybrid key switching needs exactly this:
/// any representative of the digit works, and the small overflow only
/// scales the switching noise. Every table is a word with its Shoup
/// companion — `[(Q/q_i)⁻¹]_{q_i}` per source modulus and `[Q/q_i]_t`
/// per (target, source) pair — so no bignum is touched per coefficient
/// ([`RnsBasis::convert_to`] is the exact per-coefficient reference).
/// A one-modulus source has both tables at 1 and converts by the
/// centred lift alone.
#[derive(Debug, Clone)]
pub struct FastBaseConverter {
    source: Vec<Modulus>,
    /// `[(Q/q_i)⁻¹]_{q_i}` and its Shoup companion.
    inv: Vec<(u64, u64)>,
    /// `hat[t][i] = [Q/q_i]_t` and its Shoup companion.
    hat: Vec<Vec<(u64, u64)>>,
    targets: Vec<Modulus>,
}

impl FastBaseConverter {
    /// Tables from `source` into every modulus of `targets` (a target
    /// that is also a source modulus is allowed; converting into it is
    /// the caller's choice).
    pub fn new(source: &[Modulus], targets: &[Modulus]) -> Self {
        assert!(!source.is_empty(), "empty source basis");
        // Q/q_i mod m, by word products (no bignum)
        let hat_mod = |m: &Modulus, i: usize| {
            source
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .fold(1 % m.value(), |acc, (_, q)| m.mul(acc, m.reduce(q.value())))
        };
        let with_shoup = |m: &Modulus, v: u64| (v, m.shoup(v));
        let inv = source
            .iter()
            .enumerate()
            .map(|(i, q)| with_shoup(q, q.inv(hat_mod(q, i))))
            .collect();
        let hat = targets
            .iter()
            .map(|t| {
                (0..source.len())
                    .map(|i| with_shoup(t, hat_mod(t, i)))
                    .collect()
            })
            .collect();
        Self {
            source: source.to_vec(),
            inv,
            hat,
            targets: targets.to_vec(),
        }
    }

    /// The source moduli.
    pub fn source(&self) -> &[Modulus] {
        &self.source
    }

    /// First half, in place on source limb `i`:
    /// `x_i ← [x_i·(Q/q_i)⁻¹]_{q_i}`. A no-op for a one-modulus source.
    pub fn scale_input(&self, backend: KernelBackend, i: usize, limb: &mut [u64]) {
        let (inv, inv_shoup) = self.inv[i];
        if self.source.len() > 1 {
            kernel::mul_scalar_shoup_with(backend, &self.source[i], limb, inv, inv_shoup);
        }
    }

    /// Second half: writes `x̃ mod targets[t]` into `dst` from `scaled`,
    /// the source limbs (limb-major, coefficient form) after
    /// [`Self::scale_input`] — one [`kernel::centered_mac_shoup_with`] per
    /// source limb.
    pub fn convert_into(&self, backend: KernelBackend, scaled: &[u64], t: usize, dst: &mut [u64]) {
        let n = dst.len();
        assert_eq!(
            scaled.len(),
            n * self.source.len(),
            "one limb per source modulus"
        );
        dst.fill(0);
        for ((q, &(c, c_shoup)), limb) in self.source.iter().zip(&self.hat[t]).zip(scaled.chunks(n))
        {
            kernel::centered_mac_shoup_with(
                backend,
                &self.targets[t],
                dst,
                limb,
                q.value(),
                c,
                c_shoup,
            );
        }
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// RNS arithmetic on plain integer vectors (the paper's *image-domain*
/// decomposition, Fig. 2): quantized tensors are decomposed residue-wise,
/// processed independently per modulus, and recomposed with CRT.
#[derive(Debug, Clone)]
pub struct IntegerRns {
    basis: RnsBasis,
}

impl IntegerRns {
    /// Builds an integer RNS over `k` primes starting near `start`,
    /// checking the dynamic range covers values up to `max_abs`.
    pub fn with_range(k: usize, start: u64, max_abs: &BigInt) -> Self {
        let primes = crate::prime::gen_coprime_moduli(k, start);
        let basis = RnsBasis::new(primes.into_iter().map(Modulus::new).collect());
        let needed = max_abs.mul_u64(2);
        assert!(
            basis.big_q().cmp_big(&needed) == std::cmp::Ordering::Greater,
            "RNS dynamic range too small: Q = {} but need > {}",
            basis.big_q(),
            needed
        );
        Self { basis }
    }

    pub fn from_basis(basis: RnsBasis) -> Self {
        Self { basis }
    }

    #[inline]
    pub fn basis(&self) -> &RnsBasis {
        &self.basis
    }

    /// Decomposes each element of a signed integer vector into `k` residue
    /// vectors (`out[j][i] = x_i mod q_j`).
    pub fn decompose_vec(&self, xs: &[i64]) -> Vec<Vec<u64>> {
        let k = self.basis.len();
        let mut out = vec![Vec::with_capacity(xs.len()); k];
        for &x in xs {
            for (j, m) in self.basis.moduli().iter().enumerate() {
                out[j].push(m.from_i64(x));
            }
        }
        out
    }

    /// Recomposes residue vectors back into centered signed integers.
    /// Panics if any recomposed value does not fit `i64`.
    pub fn compose_vec(&self, residues: &[Vec<u64>]) -> Vec<i64> {
        assert_eq!(residues.len(), self.basis.len());
        let len = residues[0].len();
        assert!(residues.iter().all(|r| r.len() == len));
        (0..len)
            .map(|i| {
                let slice: Vec<u64> = residues.iter().map(|r| r[i]).collect();
                self.basis.compose_centered(&slice).to_i64()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::gen_moduli_chain;
    use proptest::prelude::*;

    fn basis3() -> RnsBasis {
        RnsBasis::new(gen_moduli_chain(&[30, 31, 32], 1 << 10))
    }

    #[test]
    fn compose_decompose_roundtrip() {
        let b = basis3();
        for x in [0i64, 1, -1, 123456789, -987654321, i32::MAX as i64] {
            let residues = b.decompose_i64(x);
            let back = b.compose_centered(&residues);
            assert_eq!(back, BigInt::from_i64(x), "x={x}");
        }
    }

    #[test]
    fn compose_is_crt_solution() {
        let b = basis3();
        let residues: Vec<u64> = vec![17, 23, 99];
        let x = b.compose(&residues);
        for (i, m) in b.moduli().iter().enumerate() {
            assert_eq!(x.rem_u64(m.value()), residues[i]);
        }
        assert!(x.cmp_big(b.big_q()) == std::cmp::Ordering::Less);
    }

    #[test]
    fn additive_homomorphism() {
        let b = basis3();
        let x = 1_000_003i64;
        let y = -2_000_005i64;
        let rx = b.decompose_i64(x);
        let ry = b.decompose_i64(y);
        let sum: Vec<u64> = rx
            .iter()
            .zip(&ry)
            .zip(b.moduli())
            .map(|((&a, &bb), m)| m.add(a, bb))
            .collect();
        assert_eq!(b.compose_centered(&sum), BigInt::from_i64(x + y));
    }

    #[test]
    fn multiplicative_homomorphism() {
        let b = basis3();
        let x = 94_321i64;
        let y = -88_777i64;
        let rx = b.decompose_i64(x);
        let ry = b.decompose_i64(y);
        let prod: Vec<u64> = rx
            .iter()
            .zip(&ry)
            .zip(b.moduli())
            .map(|((&a, &bb), m)| m.mul(a, bb))
            .collect();
        assert_eq!(b.compose_centered(&prod), BigInt::from_i64(x * y));
    }

    #[test]
    fn base_conversion_exact_for_small_values() {
        let b = basis3();
        let target = gen_moduli_chain(&[40, 41], 1 << 10);
        for x in [0i64, 5, -5, 1 << 40, -(1 << 40), 777_777_777] {
            let residues = b.decompose_i64(x);
            let converted = b.convert_to(&residues, &target);
            for (c, m) in converted.iter().zip(&target) {
                assert_eq!(*c, m.from_i64(x), "x={x} target={}", m.value());
            }
        }
    }

    /// The limb-wise conversion is `convert_to`'s exact value plus a
    /// multiple `e·Q` with `|e| ≤ k/2`, the same `e` in every target.
    #[test]
    fn fast_conversion_is_exact_up_to_a_small_multiple_of_q() {
        let source = gen_moduli_chain(&[40, 26, 26], 1 << 4);
        let b = RnsBasis::new(source.clone());
        let target = gen_moduli_chain(&[41, 27, 50], 1 << 4);
        let conv = FastBaseConverter::new(&source, &target);
        let xs = [
            0i64,
            1,
            -1,
            123_456_789_012,
            -987_654_321_098,
            1 << 55,
            -(1 << 60),
        ];
        for &x in &xs {
            let mut limbs = b.decompose_i64(x);
            for (i, limb) in limbs.chunks_mut(1).enumerate() {
                conv.scale_input(KernelBackend::Scalar, i, limb);
            }
            let overflow: Vec<i64> = (-1..=1).collect();
            let mut shared = overflow.clone();
            for (t, m) in target.iter().enumerate() {
                let mut out = [0u64];
                conv.convert_into(KernelBackend::Scalar, &limbs, t, &mut out);
                let exact = b.convert_to(&b.decompose_i64(x), std::slice::from_ref(m))[0];
                let q_mod = b.big_q().rem_u64(m.value());
                shared.retain(|&e| m.add(exact, m.mul(m.from_i64(e), q_mod)) == out[0]);
            }
            assert_eq!(
                shared.len(),
                1,
                "x = {x}: no single overflow in {overflow:?}"
            );
        }
    }

    #[test]
    fn prefix_basis_consistent() {
        let b = basis3();
        let p = b.prefix(2);
        assert_eq!(p.len(), 2);
        assert_eq!(p.moduli()[0], b.moduli()[0]);
        let x = 424_242i64;
        assert_eq!(p.compose_centered(&p.decompose_i64(x)), BigInt::from_i64(x));
    }

    #[test]
    fn integer_rns_vector_roundtrip() {
        let max = BigInt::from_u64(1 << 40);
        let r = IntegerRns::with_range(4, 1 << 20, &max);
        let xs: Vec<i64> = vec![0, 255, -255, 123_456, -654_321, (1 << 39)];
        let planes = r.decompose_vec(&xs);
        assert_eq!(planes.len(), 4);
        let back = r.compose_vec(&planes);
        assert_eq!(back, xs);
    }

    #[test]
    #[should_panic]
    fn integer_rns_range_check() {
        // 2 tiny primes cannot cover 2^40
        let max = BigInt::from_u64(1 << 40);
        let _ = IntegerRns::with_range(2, 3, &max);
    }

    #[test]
    #[should_panic]
    fn rejects_non_coprime() {
        let _ = RnsBasis::new(vec![Modulus::new(6), Modulus::new(9)]);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(x in any::<i32>()) {
            let b = basis3();
            let back = b.compose_centered(&b.decompose_i64(x as i64));
            prop_assert_eq!(back, BigInt::from_i64(x as i64));
        }

        #[test]
        fn prop_ring_homomorphism(x in -1_000_000i64..1_000_000, y in -1_000_000i64..1_000_000) {
            let b = basis3();
            let rx = b.decompose_i64(x);
            let ry = b.decompose_i64(y);
            let prod: Vec<u64> = rx.iter().zip(&ry).zip(b.moduli())
                .map(|((&a, &bb), m)| m.mul(a, bb)).collect();
            prop_assert_eq!(b.compose_centered(&prod), BigInt::from_i64(x * y));
        }

        #[test]
        fn prop_base_conversion(x in -1_000_000_000i64..1_000_000_000) {
            let b = basis3();
            let target = gen_moduli_chain(&[45], 1 << 10);
            let conv = b.convert_to(&b.decompose_i64(x), &target);
            prop_assert_eq!(conv[0], target[0].from_i64(x));
        }
    }
}
