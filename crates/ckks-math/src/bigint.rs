//! A small signed arbitrary-precision integer.
//!
//! The RNS stack needs big integers only off the hot path: CRT composition
//! when decoding, centered reduction modulo the full `q = Π qᵢ`, the
//! bignum reference CKKS used for cross-validation, and tests. Schoolbook
//! algorithms are therefore perfectly adequate — operands are a few
//! hundred bits.
//!
//! Representation: sign + little-endian `u64` magnitude with no trailing
//! zero limbs (zero is the empty magnitude with `neg = false`).

use std::cmp::Ordering;
use std::fmt;

/// Signed arbitrary-precision integer.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct BigInt {
    neg: bool,
    mag: Vec<u64>, // little-endian, normalized (no trailing zeros)
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigInt({})", self.to_decimal_string())
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_decimal_string())
    }
}

fn normalize(mag: &mut Vec<u64>) {
    while mag.last() == Some(&0) {
        mag.pop();
    }
}

fn mag_cmp(a: &[u64], b: &[u64]) -> Ordering {
    if a.len() != b.len() {
        return a.len().cmp(&b.len());
    }
    for i in (0..a.len()).rev() {
        match a[i].cmp(&b[i]) {
            Ordering::Equal => continue,
            o => return o,
        }
    }
    Ordering::Equal
}

fn mag_add(a: &[u64], b: &[u64]) -> Vec<u64> {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(long.len() + 1);
    let mut carry = 0u64;
    for i in 0..long.len() {
        let s = long[i] as u128 + *short.get(i).unwrap_or(&0) as u128 + carry as u128;
        out.push(s as u64);
        carry = (s >> 64) as u64;
    }
    if carry != 0 {
        out.push(carry);
    }
    out
}

/// a - b, requires a >= b (magnitudes).
fn mag_sub(a: &[u64], b: &[u64]) -> Vec<u64> {
    debug_assert!(mag_cmp(a, b) != Ordering::Less);
    let mut out = Vec::with_capacity(a.len());
    let mut borrow = 0u64;
    for i in 0..a.len() {
        let bi = *b.get(i).unwrap_or(&0);
        let (d1, o1) = a[i].overflowing_sub(bi);
        let (d2, o2) = d1.overflowing_sub(borrow);
        out.push(d2);
        borrow = (o1 as u64) + (o2 as u64);
    }
    debug_assert_eq!(borrow, 0);
    normalize(&mut out);
    out
}

fn mag_mul(a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0u64; a.len() + b.len()];
    for (i, &x) in a.iter().enumerate() {
        if x == 0 {
            continue;
        }
        let mut carry = 0u128;
        for (j, &y) in b.iter().enumerate() {
            let t = out[i + j] as u128 + x as u128 * y as u128 + carry;
            out[i + j] = t as u64;
            carry = t >> 64;
        }
        let mut k = i + b.len();
        while carry != 0 {
            let t = out[k] as u128 + carry;
            out[k] = t as u64;
            carry = t >> 64;
            k += 1;
        }
    }
    normalize(&mut out);
    out
}

impl BigInt {
    /// Zero.
    pub fn zero() -> Self {
        Self::default()
    }

    /// One.
    pub fn one() -> Self {
        Self::from_u64(1)
    }

    pub fn from_u64(v: u64) -> Self {
        let mut mag = vec![v];
        normalize(&mut mag);
        Self { neg: false, mag }
    }

    pub fn from_i64(v: i64) -> Self {
        let mut b = Self::from_u64(v.unsigned_abs());
        b.neg = v < 0 && !b.is_zero();
        b
    }

    /// Builds from little-endian u64 limbs (unsigned).
    pub fn from_limbs(limbs: &[u64]) -> Self {
        let mut mag = limbs.to_vec();
        normalize(&mut mag);
        Self { neg: false, mag }
    }

    #[inline]
    pub fn is_zero(&self) -> bool {
        self.mag.is_empty()
    }

    #[inline]
    pub fn is_negative(&self) -> bool {
        self.neg
    }

    /// Number of significant bits of the magnitude (0 for zero).
    pub fn bits(&self) -> u32 {
        match self.mag.last() {
            None => 0,
            Some(&top) => (self.mag.len() as u32 - 1) * 64 + (64 - top.leading_zeros()),
        }
    }

    pub fn neg(&self) -> Self {
        if self.is_zero() {
            self.clone()
        } else {
            Self {
                neg: !self.neg,
                mag: self.mag.clone(),
            }
        }
    }

    pub fn abs(&self) -> Self {
        Self {
            neg: false,
            mag: self.mag.clone(),
        }
    }

    pub fn add(&self, other: &Self) -> Self {
        if self.neg == other.neg {
            Self {
                neg: self.neg,
                mag: mag_add(&self.mag, &other.mag),
            }
        } else {
            match mag_cmp(&self.mag, &other.mag) {
                Ordering::Equal => Self::zero(),
                Ordering::Greater => Self {
                    neg: self.neg,
                    mag: mag_sub(&self.mag, &other.mag),
                },
                Ordering::Less => Self {
                    neg: other.neg,
                    mag: mag_sub(&other.mag, &self.mag),
                },
            }
        }
    }

    pub fn sub(&self, other: &Self) -> Self {
        self.add(&other.neg())
    }

    pub fn mul(&self, other: &Self) -> Self {
        let mag = mag_mul(&self.mag, &other.mag);
        let neg = self.neg != other.neg && !mag.is_empty();
        Self { neg, mag }
    }

    pub fn mul_u64(&self, v: u64) -> Self {
        self.mul(&Self::from_u64(v))
    }

    pub fn shl(&self, bits: u32) -> Self {
        if self.is_zero() {
            return Self::zero();
        }
        let limb_shift = (bits / 64) as usize;
        let bit_shift = bits % 64;
        let mut mag = vec![0u64; limb_shift];
        if bit_shift == 0 {
            mag.extend_from_slice(&self.mag);
        } else {
            let mut carry = 0u64;
            for &w in &self.mag {
                mag.push((w << bit_shift) | carry);
                carry = w >> (64 - bit_shift);
            }
            if carry != 0 {
                mag.push(carry);
            }
        }
        Self { neg: self.neg, mag }
    }

    /// Arithmetic right shift of the magnitude (floor for positive,
    /// truncation toward zero in magnitude for negative — callers that need
    /// floor semantics for negatives should use `div_rem_floor`).
    pub fn shr(&self, bits: u32) -> Self {
        let limb_shift = (bits / 64) as usize;
        let bit_shift = bits % 64;
        if limb_shift >= self.mag.len() {
            return Self::zero();
        }
        let mut mag: Vec<u64> = self.mag[limb_shift..].to_vec();
        if bit_shift != 0 {
            for i in 0..mag.len() {
                let hi = if i + 1 < mag.len() { mag[i + 1] } else { 0 };
                mag[i] = (mag[i] >> bit_shift) | (hi << (64 - bit_shift));
            }
        }
        normalize(&mut mag);
        let neg = self.neg && !mag.is_empty();
        Self { neg, mag }
    }

    pub fn cmp_big(&self, other: &Self) -> Ordering {
        match (self.neg, other.neg) {
            (false, true) => Ordering::Greater,
            (true, false) => Ordering::Less,
            (false, false) => mag_cmp(&self.mag, &other.mag),
            (true, true) => mag_cmp(&other.mag, &self.mag),
        }
    }

    /// Unsigned magnitude division: returns `(quotient, remainder)` with
    /// both signs handled so that `self = q*d + r` and `0 <= |r| < |d|`,
    /// `r` carrying the sign of `self` (truncated division).
    pub fn div_rem(&self, divisor: &Self) -> (Self, Self) {
        assert!(!divisor.is_zero(), "division by zero");
        if mag_cmp(&self.mag, &divisor.mag) == Ordering::Less {
            return (Self::zero(), self.clone());
        }
        // Binary long division over magnitudes.
        let shift = self.bits() - divisor.bits();
        let mut rem = Self {
            neg: false,
            mag: self.mag.clone(),
        };
        let mut quot = Self::zero();
        let dabs = divisor.abs();
        for s in (0..=shift).rev() {
            let shifted = dabs.shl(s);
            if mag_cmp(&rem.mag, &shifted.mag) != Ordering::Less {
                rem.mag = mag_sub(&rem.mag, &shifted.mag);
                quot = quot.add(&Self::one().shl(s));
            }
        }
        quot.neg = (self.neg != divisor.neg) && !quot.is_zero();
        rem.neg = self.neg && !rem.is_zero();
        (quot, rem)
    }

    /// Euclidean remainder in `[0, |d|)`.
    pub fn rem_euclid(&self, divisor: &Self) -> Self {
        let (_, r) = self.div_rem(divisor);
        if r.neg {
            r.add(&divisor.abs())
        } else {
            r
        }
    }

    /// Centered remainder in `(-|d|/2, |d|/2]`.
    pub fn rem_centered(&self, divisor: &Self) -> Self {
        let r = self.rem_euclid(divisor);
        let half = divisor.abs().shr(1);
        if r.cmp_big(&half) == Ordering::Greater {
            r.sub(&divisor.abs())
        } else {
            r
        }
    }

    /// Fast remainder by a word-size modulus, result in `[0, m)`.
    pub fn rem_u64(&self, m: u64) -> u64 {
        let mut r: u128 = 0;
        for &w in self.mag.iter().rev() {
            r = ((r << 64) | w as u128) % m as u128;
        }
        let r = r as u64;
        if self.neg && r != 0 {
            m - r
        } else {
            r
        }
    }

    /// Exact conversion to `i64`; panics if the value does not fit.
    pub fn to_i64(&self) -> i64 {
        if self.is_zero() {
            return 0;
        }
        assert!(self.bits() <= 63, "BigInt does not fit in i64");
        let v = self.mag[0] as i64;
        if self.neg {
            -v
        } else {
            v
        }
    }

    /// Lossy conversion to `f64` (correct to ~53 bits, handles any size via
    /// exponent scaling).
    pub fn to_f64(&self) -> f64 {
        if self.is_zero() {
            return 0.0;
        }
        let v = if self.mag.len() == 1 {
            self.mag[0] as f64
        } else {
            // Combine the top two limbs (>= 65 significant bits), truncate to
            // a 64-bit mantissa, and scale by the dropped exponent.
            let top = self.mag.len() - 1;
            let x = ((self.mag[top] as u128) << 64) | self.mag[top - 1] as u128;
            let xbits = 128 - x.leading_zeros();
            let shift = xbits - 53;
            let mantissa = (x >> shift) as u64 as f64;
            mantissa * 2f64.powi(64 * (top as i32 - 1) + shift as i32)
        };
        if self.neg {
            -v
        } else {
            v
        }
    }

    /// Exact conversion from `f64` of integral value (rounds to nearest).
    pub fn from_f64_rounded(x: f64) -> Self {
        assert!(x.is_finite(), "cannot convert non-finite float");
        let neg = x < 0.0;
        let mut v = x.abs().round();
        let mut limbs = Vec::new();
        let base = 2f64.powi(64);
        while v >= 1.0 {
            let rem = v % base;
            limbs.push(rem as u64);
            v = (v - rem) / base;
        }
        let mut b = Self::from_limbs(&limbs);
        b.neg = neg && !b.is_zero();
        b
    }

    fn to_decimal_string(&self) -> String {
        if self.is_zero() {
            return "0".into();
        }
        let mut digits = Vec::new();
        let mut mag = self.mag.clone();
        while !mag.is_empty() {
            // divide mag by 10^19 (fits u64), collect remainder
            const CHUNK: u64 = 10_000_000_000_000_000_000;
            let mut rem: u128 = 0;
            for w in mag.iter_mut().rev() {
                let cur = (rem << 64) | *w as u128;
                *w = (cur / CHUNK as u128) as u64;
                rem = cur % CHUNK as u128;
            }
            normalize(&mut mag);
            digits.push(rem as u64);
        }
        let mut s = String::new();
        if self.neg {
            s.push('-');
        }
        s.push_str(&digits.pop().unwrap().to_string());
        while let Some(d) = digits.pop() {
            s.push_str(&format!("{d:019}"));
        }
        s
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_big(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn small_arithmetic() {
        let a = BigInt::from_i64(1234);
        let b = BigInt::from_i64(-5678);
        assert_eq!(a.add(&b), BigInt::from_i64(1234 - 5678));
        assert_eq!(a.sub(&b), BigInt::from_i64(1234 + 5678));
        assert_eq!(a.mul(&b), BigInt::from_i64(1234 * -5678));
        assert_eq!(b.neg(), BigInt::from_i64(5678));
        assert!(BigInt::zero().is_zero());
        assert_eq!(BigInt::from_i64(-1).to_f64(), -1.0);
    }

    #[test]
    fn carries_across_limbs() {
        let max = BigInt::from_u64(u64::MAX);
        let one = BigInt::one();
        let sum = max.add(&one);
        assert_eq!(sum.bits(), 65);
        assert_eq!(sum.sub(&one), max);
        let sq = max.mul(&max);
        // (2^64-1)^2 = 2^128 - 2^65 + 1
        let expect = BigInt::one()
            .shl(128)
            .sub(&BigInt::one().shl(65))
            .add(&BigInt::one());
        assert_eq!(sq, expect);
    }

    #[test]
    fn shifts() {
        let a = BigInt::from_u64(0b1011);
        assert_eq!(a.shl(70).shr(70), a);
        assert_eq!(a.shl(3), BigInt::from_u64(0b1011000));
        assert_eq!(a.shr(2), BigInt::from_u64(0b10));
        assert_eq!(a.shr(10), BigInt::zero());
    }

    #[test]
    fn division_basics() {
        let a = BigInt::from_u64(1000);
        let b = BigInt::from_u64(7);
        let (q, r) = a.div_rem(&b);
        assert_eq!(q, BigInt::from_u64(142));
        assert_eq!(r, BigInt::from_u64(6));

        let big = BigInt::one().shl(200).add(&BigInt::from_u64(12345));
        let d = BigInt::one().shl(100);
        let (q, r) = big.div_rem(&d);
        assert_eq!(q, BigInt::one().shl(100));
        assert_eq!(r, BigInt::from_u64(12345));
    }

    #[test]
    fn signed_division_and_remainders() {
        let a = BigInt::from_i64(-1000);
        let b = BigInt::from_u64(7);
        let (q, r) = a.div_rem(&b);
        // truncated: -1000 = -142*7 - 6
        assert_eq!(q, BigInt::from_i64(-142));
        assert_eq!(r, BigInt::from_i64(-6));
        assert_eq!(a.rem_euclid(&b), BigInt::from_u64(1));
        // centered of 6 mod 7 is -1
        assert_eq!(BigInt::from_u64(6).rem_centered(&b), BigInt::from_i64(-1));
        assert_eq!(BigInt::from_u64(3).rem_centered(&b), BigInt::from_u64(3));
    }

    #[test]
    fn rem_u64_matches_div_rem() {
        let a = BigInt::one().shl(130).add(&BigInt::from_u64(999));
        let m = 1_000_003u64;
        assert_eq!(
            a.rem_u64(m),
            a.rem_euclid(&BigInt::from_u64(m)).to_f64() as u64
        );
        let an = a.neg();
        assert_eq!(
            an.rem_u64(m),
            an.rem_euclid(&BigInt::from_u64(m)).to_f64() as u64
        );
    }

    #[test]
    fn f64_conversions() {
        let a = BigInt::from_f64_rounded(1.5e18);
        assert!((a.to_f64() - 1.5e18).abs() < 1e4);
        let big = BigInt::one().shl(300);
        let f = big.to_f64();
        assert!((f.log2() - 300.0).abs() < 1e-9);
        assert_eq!(BigInt::from_f64_rounded(-42.4), BigInt::from_i64(-42));
        assert_eq!(BigInt::from_f64_rounded(0.2), BigInt::zero());
    }

    #[test]
    fn decimal_printing() {
        assert_eq!(BigInt::zero().to_string(), "0");
        assert_eq!(BigInt::from_i64(-12345).to_string(), "-12345");
        // 2^64 = 18446744073709551616
        assert_eq!(BigInt::one().shl(64).to_string(), "18446744073709551616");
    }

    #[test]
    #[should_panic]
    fn div_by_zero_panics() {
        let _ = BigInt::one().div_rem(&BigInt::zero());
    }

    fn arb_bigint() -> impl Strategy<Value = BigInt> {
        (proptest::collection::vec(any::<u64>(), 0..5), any::<bool>()).prop_map(|(limbs, neg)| {
            let mut b = BigInt::from_limbs(&limbs);
            if neg && !b.is_zero() {
                b = b.neg();
            }
            b
        })
    }

    proptest! {
        #[test]
        fn prop_add_sub_roundtrip(a in arb_bigint(), b in arb_bigint()) {
            prop_assert_eq!(a.add(&b).sub(&b), a);
        }

        #[test]
        fn prop_mul_commutes(a in arb_bigint(), b in arb_bigint()) {
            prop_assert_eq!(a.mul(&b), b.mul(&a));
        }

        #[test]
        fn prop_distributive(a in arb_bigint(), b in arb_bigint(), c in arb_bigint()) {
            prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
        }

        #[test]
        fn prop_div_rem_identity(a in arb_bigint(), b in arb_bigint()) {
            prop_assume!(!b.is_zero());
            let (q, r) = a.div_rem(&b);
            prop_assert_eq!(q.mul(&b).add(&r), a.clone());
            prop_assert!(r.abs().cmp_big(&b.abs()) == std::cmp::Ordering::Less);
        }

        #[test]
        fn prop_rem_u64(a in arb_bigint(), m in 2u64..u64::MAX/4) {
            let r = a.rem_u64(m);
            prop_assert!(r < m);
            let via_big = a.rem_euclid(&BigInt::from_u64(m));
            prop_assert_eq!(BigInt::from_u64(r), via_big);
        }

        #[test]
        fn prop_shift_roundtrip(a in arb_bigint(), s in 0u32..200) {
            prop_assert_eq!(a.shl(s).shr(s), a);
        }

        #[test]
        fn prop_ordering_consistent(a in arb_bigint(), b in arb_bigint()) {
            let diff = a.sub(&b);
            match a.cmp_big(&b) {
                Ordering::Less => prop_assert!(diff.is_negative()),
                Ordering::Equal => prop_assert!(diff.is_zero()),
                Ordering::Greater => prop_assert!(!diff.is_negative() && !diff.is_zero()),
            }
        }
    }
}
