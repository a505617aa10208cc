//! Modular arithmetic over word-sized prime moduli.
//!
//! All moduli used by the RNS-CKKS stack are primes `p < 2^61` so that the
//! lazy-reduction tricks below (values kept in `[0, 4p)` inside NTT
//! butterflies) never overflow a `u64`. Two reduction strategies are
//! provided:
//!
//! * **Barrett reduction** against a per-modulus precomputed `⌊2^128 / p⌋`
//!   ratio, used for general products where neither operand is known in
//!   advance.
//! * **Shoup multiplication**, used when one operand is a precomputed
//!   constant (NTT twiddles, plaintext scalars): `mul_shoup` costs one
//!   widening multiply plus one wrapping multiply.

/// Largest admissible modulus bit size. Keeping `p < 2^61` guarantees
/// `4p < 2^63` so lazy NTT accumulators never overflow.
pub const MAX_MODULUS_BITS: u32 = 61;

/// A word-sized prime modulus with Barrett precomputation.
///
/// The struct is cheap to copy and is the unit the whole RNS stack is
/// parameterised over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Modulus {
    value: u64,
    /// `⌊2^128 / value⌋` as (low, high) words — SEAL-style Barrett ratio.
    const_ratio: [u64; 2],
}

impl Modulus {
    /// Creates a modulus. Panics if `value < 2` or `value >= 2^61`.
    pub fn new(value: u64) -> Self {
        assert!(value >= 2, "modulus must be >= 2");
        assert!(
            value >> MAX_MODULUS_BITS == 0,
            "modulus must be < 2^{MAX_MODULUS_BITS}"
        );
        // floor(2^128 / v) == floor((2^128 - 1) / v) whenever v does not
        // divide 2^128; true for every v that is not a power of two, and we
        // handle powers of two exactly below.
        let value_128 = value as u128;
        let mut ratio = u128::MAX / value_128;
        if value.is_power_of_two() {
            ratio += 1;
        }
        Self {
            value,
            const_ratio: [ratio as u64, (ratio >> 64) as u64],
        }
    }

    /// The raw modulus value.
    #[inline(always)]
    pub fn value(&self) -> u64 {
        self.value
    }

    /// The Barrett ratio `⌊2^128 / p⌋` as `(low, high)` words, for the
    /// vector kernels that re-implement [`Self::reduce`] /
    /// [`Self::reduce_u128`] lane-wise.
    #[inline(always)]
    pub(crate) fn const_ratio(&self) -> [u64; 2] {
        self.const_ratio
    }

    /// Bit length of the modulus.
    #[inline]
    pub fn bits(&self) -> u32 {
        64 - self.value.leading_zeros()
    }

    /// Reduces an arbitrary `u64` modulo `p` (Barrett).
    #[inline(always)]
    pub fn reduce(&self, x: u64) -> u64 {
        if x < self.value {
            return x;
        }
        // Single-word Barrett: q = floor(x * ratio_hi / 2^64) approximates
        // floor(x / p); one conditional correction suffices.
        let q = ((x as u128 * self.const_ratio[1] as u128) >> 64) as u64;
        let r = x.wrapping_sub(q.wrapping_mul(self.value));
        if r >= self.value {
            r - self.value
        } else {
            r
        }
    }

    /// Reduces a 128-bit value modulo `p` (full Barrett reduction).
    #[inline(always)]
    pub fn reduce_u128(&self, x: u128) -> u64 {
        // SEAL-style barrett_reduce_128: compute word 2 (bits 128..192) of
        // the 256-bit product x * const_ratio, which is floor(x*ratio/2^128)
        // mod 2^64 — an estimate of floor(x/p) off by at most 2.
        let x_lo = x as u64;
        let x_hi = (x >> 64) as u64;
        let cr0 = self.const_ratio[0];
        let cr1 = self.const_ratio[1];

        let carry = ((x_lo as u128 * cr0 as u128) >> 64) as u64;
        let p1 = x_lo as u128 * cr1 as u128; // words 1,2
        let p2 = x_hi as u128 * cr0 as u128; // words 1,2
        let word1 = (p1 as u64 as u128) + (p2 as u64 as u128) + carry as u128;
        let q = ((p1 >> 64) as u64)
            .wrapping_add((p2 >> 64) as u64)
            .wrapping_add((word1 >> 64) as u64)
            .wrapping_add(x_hi.wrapping_mul(cr1));

        // r = x - q*p fits u64 (r < 3p); up to two corrections.
        let mut r = x_lo.wrapping_sub(q.wrapping_mul(self.value));
        if r >= self.value {
            r = r.wrapping_sub(self.value);
        }
        if r >= self.value {
            r -= self.value;
        }
        r
    }

    /// `(a + b) mod p` for `a, b < p`.
    #[inline(always)]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.value && b < self.value);
        let s = a + b;
        if s >= self.value {
            s - self.value
        } else {
            s
        }
    }

    /// `(a - b) mod p` for `a, b < p`.
    #[inline(always)]
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.value && b < self.value);
        let (d, borrow) = a.overflowing_sub(b);
        if borrow {
            d.wrapping_add(self.value)
        } else {
            d
        }
    }

    /// `(-a) mod p` for `a < p`.
    #[inline(always)]
    pub fn neg(&self, a: u64) -> u64 {
        debug_assert!(a < self.value);
        if a == 0 {
            0
        } else {
            self.value - a
        }
    }

    /// `(a * b) mod p` for arbitrary `a, b < p`.
    #[inline(always)]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        self.reduce_u128(a as u128 * b as u128)
    }

    /// Shoup precomputation for a constant multiplicand:
    /// `⌊b · 2^64 / p⌋`.
    #[inline]
    pub fn shoup(&self, b: u64) -> u64 {
        debug_assert!(b < self.value);
        (((b as u128) << 64) / self.value as u128) as u64
    }

    /// Shoup multiplication `a * b mod p` where `b_shoup = shoup(b)`.
    /// Result `< p` for any 64-bit `a`: the quotient estimate is short
    /// by less than `a/2^64 + 1 < 2`, so the lazy remainder stays in
    /// `[0, 2p)`.
    #[inline(always)]
    pub fn mul_shoup(&self, a: u64, b: u64, b_shoup: u64) -> u64 {
        let r = self.mul_shoup_lazy(a, b, b_shoup);
        if r >= self.value {
            r - self.value
        } else {
            r
        }
    }

    /// Lazy Shoup multiplication: result in `[0, 2p)` for any 64-bit `a`.
    #[inline(always)]
    pub fn mul_shoup_lazy(&self, a: u64, b: u64, b_shoup: u64) -> u64 {
        let q = ((a as u128 * b_shoup as u128) >> 64) as u64;
        a.wrapping_mul(b).wrapping_sub(q.wrapping_mul(self.value))
    }

    /// `a^e mod p` by square-and-multiply.
    pub fn pow(&self, a: u64, mut e: u64) -> u64 {
        let mut base = self.reduce(a);
        let mut acc = 1u64;
        while e > 0 {
            if e & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            e >>= 1;
        }
        acc
    }

    /// Multiplicative inverse `a^{-1} mod p` (p prime, a != 0 mod p).
    pub fn inv(&self, a: u64) -> u64 {
        let a = self.reduce(a);
        assert!(a != 0, "cannot invert 0 mod {}", self.value);
        self.pow(a, self.value - 2)
    }

    /// Maps a signed integer into `[0, p)`.
    #[inline]
    pub fn from_i64(&self, x: i64) -> u64 {
        if x >= 0 {
            self.reduce(x as u64)
        } else {
            self.neg(self.reduce(x.unsigned_abs()))
        }
    }

    /// Centered representative of `a < p` in `(-p/2, p/2]`, as i64 when it
    /// fits (used by small-modulus paths and tests).
    #[inline]
    pub fn to_centered_i64(&self, a: u64) -> i64 {
        debug_assert!(a < self.value);
        if a > self.value / 2 {
            -((self.value - a) as i64)
        } else {
            a as i64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const P: u64 = (1 << 60) - 93; // a 60-bit prime-ish test value
                                   // Use a known prime for inversion-sensitive tests.
    const PRIME: u64 = 1_152_921_504_606_846_577; // 2^60 - 2^14 + 1... verified in prime.rs tests

    #[test]
    fn add_sub_neg_roundtrip() {
        let m = Modulus::new(97);
        for a in 0..97u64 {
            for b in 0..97u64 {
                let s = m.add(a, b);
                assert_eq!(m.sub(s, b), a);
                assert_eq!(m.add(a, m.neg(a)), 0);
                assert_eq!(s, (a + b) % 97);
            }
        }
    }

    #[test]
    fn mul_matches_naive() {
        let m = Modulus::new(P);
        let cases = [
            (0u64, 0u64),
            (1, P - 1),
            (P - 1, P - 1),
            (123456789, 987654321),
            (P / 2, P / 2 + 1),
        ];
        for (a, b) in cases {
            let expect = ((a as u128 * b as u128) % P as u128) as u64;
            assert_eq!(m.mul(a, b), expect);
        }
    }

    #[test]
    fn reduce_u128_extremes() {
        let m = Modulus::new(P);
        assert_eq!(m.reduce_u128(0), 0);
        assert_eq!(m.reduce_u128(u128::MAX), (u128::MAX % P as u128) as u64);
        assert_eq!(m.reduce_u128(P as u128), 0);
        assert_eq!(m.reduce_u128((P as u128) * (P as u128)), 0);
    }

    #[test]
    fn shoup_matches_mul() {
        let m = Modulus::new(P);
        let b = 0xDEAD_BEEF_1234u64 % P;
        let bs = m.shoup(b);
        for a in [0u64, 1, 42, P - 1, P / 3] {
            assert_eq!(m.mul_shoup(a, b, bs), m.mul(a, b));
        }
        // lazy variant allows a < 2p
        let a = P + 5;
        let lazy = m.mul_shoup_lazy(a, b, bs);
        assert_eq!(lazy % P, m.mul(a % P, b));
        assert!(lazy < 2 * P);
    }

    #[test]
    fn pow_and_inv() {
        let m = Modulus::new(PRIME);
        // Fermat: a^(p-1) = 1
        for a in [2u64, 3, 65537, PRIME - 2] {
            assert_eq!(m.pow(a, PRIME - 1), 1, "a={a}");
            let inv = m.inv(a);
            assert_eq!(m.mul(a, inv), 1);
        }
    }

    #[test]
    fn signed_conversions() {
        let m = Modulus::new(1009);
        assert_eq!(m.from_i64(-1), 1008);
        assert_eq!(m.from_i64(-1009), 0);
        assert_eq!(m.to_centered_i64(1008), -1);
        assert_eq!(m.to_centered_i64(504), 504);
        assert_eq!(m.to_centered_i64(505), -504);
    }

    #[test]
    #[should_panic]
    fn rejects_huge_modulus() {
        let _ = Modulus::new(1 << 62);
    }

    #[test]
    #[should_panic]
    fn rejects_invert_zero() {
        let m = Modulus::new(97);
        let _ = m.inv(0);
    }

    proptest! {
        #[test]
        fn prop_add_commutes(a in 0u64..P, b in 0u64..P) {
            let m = Modulus::new(P);
            prop_assert_eq!(m.add(a, b), m.add(b, a));
            prop_assert_eq!(m.add(a, b), ((a as u128 + b as u128) % P as u128) as u64);
        }

        #[test]
        fn prop_mul_matches_u128(a in 0u64..P, b in 0u64..P) {
            let m = Modulus::new(P);
            prop_assert_eq!(m.mul(a, b), ((a as u128 * b as u128) % P as u128) as u64);
        }

        #[test]
        fn prop_sub_is_add_neg(a in 0u64..P, b in 0u64..P) {
            let m = Modulus::new(P);
            prop_assert_eq!(m.sub(a, b), m.add(a, m.neg(b)));
        }

        #[test]
        fn prop_reduce_idempotent(x in any::<u64>()) {
            let m = Modulus::new(P);
            let r = m.reduce(x);
            prop_assert!(r < P);
            prop_assert_eq!(m.reduce(r), r);
            prop_assert_eq!(r, x % P);
        }

        #[test]
        fn prop_shoup_any(a in 0u64..P, b in 0u64..P) {
            let m = Modulus::new(P);
            let bs = m.shoup(b);
            prop_assert_eq!(m.mul_shoup(a, b, bs), m.mul(a, b));
        }
    }
}
