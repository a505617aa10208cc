//! Prime generation for NTT-friendly RNS moduli.
//!
//! CKKS-RNS needs chains of distinct primes `p ≡ 1 (mod 2N)` of prescribed
//! bit lengths (the paper's Table II asks for `[40, 26, …, 26, 40]` at
//! `N = 2^14`). This module is the analog of SEAL's
//! `CoeffModulus::Create`: deterministic Miller–Rabin over the arithmetic
//! progression `k·2N + 1` scanning downward from `2^bits`.

use crate::modring::Modulus;

/// Deterministic Miller–Rabin for `n < 2^64`.
///
/// The witness set `{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}` is proven
/// sufficient for all 64-bit integers.
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for &p in &[2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    let mut d = n - 1;
    let mut r = 0u32;
    while d & 1 == 0 {
        d >>= 1;
        r += 1;
    }
    'witness: for &a in &[2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = pow_mod_u64(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..r - 1 {
            x = mul_mod_u64(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

#[inline]
fn mul_mod_u64(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

fn pow_mod_u64(mut a: u64, mut e: u64, m: u64) -> u64 {
    a %= m;
    let mut acc = 1u64;
    while e > 0 {
        if e & 1 == 1 {
            acc = mul_mod_u64(acc, a, m);
        }
        a = mul_mod_u64(a, a, m);
        e >>= 1;
    }
    acc
}

/// A prime request the progression `k·2N + 1` cannot serve: fewer
/// `bits`-bit primes `≡ 1 (mod 2N)` exist than were asked for. Sizes
/// outside `(log2(2N), 61]` have none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrimeShortage {
    /// Index, into the requested sizes, of the entry that ran out (0
    /// for a single-size request).
    pub position: usize,
    pub bits: u32,
    pub two_n: u64,
    /// Distinct primes of this size requested …
    pub wanted: usize,
    /// … and how many the progression holds.
    pub found: usize,
}

impl std::fmt::Display for PrimeShortage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} distinct {}-bit primes ≡ 1 mod 2N = {} requested, only {} exist",
            self.wanted, self.bits, self.two_n, self.found
        )
    }
}

impl std::error::Error for PrimeShortage {}

/// Generates `count` distinct primes of exactly `bits` bits with
/// `p ≡ 1 (mod 2n)`, scanning downward from `2^bits - 1`, skipping any
/// prime already present in `exclude`. Refuses, with how many it found,
/// when the progression runs out first — always the case for `bits`
/// outside `(log2(2n), 61]`.
pub fn try_gen_ntt_primes_excluding(
    bits: u32,
    n: usize,
    count: usize,
    exclude: &[u64],
) -> Result<Vec<u64>, PrimeShortage> {
    assert!(n.is_power_of_two(), "ring degree must be a power of two");
    let two_n = (2 * n) as u64;
    let shortage = |found| PrimeShortage {
        position: 0,
        bits,
        two_n,
        wanted: count,
        found,
    };
    if !(2..=crate::modring::MAX_MODULUS_BITS).contains(&bits) || (1u64 << bits) <= two_n {
        return Err(shortage(0));
    }
    let mut out = Vec::with_capacity(count);
    // Largest candidate of the right residue class strictly below 2^bits.
    let hi = (1u64 << bits) - 1;
    let mut candidate = hi - ((hi - 1) % two_n); // ≡ 1 (mod 2N)
    let lo = 1u64 << (bits - 1);
    while out.len() < count && candidate > lo {
        if is_prime(candidate) && !exclude.contains(&candidate) && !out.contains(&candidate) {
            out.push(candidate);
        }
        candidate -= two_n;
    }
    if out.len() < count {
        return Err(shortage(out.len()));
    }
    Ok(out)
}

/// [`try_gen_ntt_primes_excluding`] for sizes known to be served;
/// panics on a [`PrimeShortage`].
pub fn gen_ntt_primes_excluding(bits: u32, n: usize, count: usize, exclude: &[u64]) -> Vec<u64> {
    try_gen_ntt_primes_excluding(bits, n, count, exclude).unwrap_or_else(|e| panic!("{e}"))
}

/// Generates one prime per entry of `bit_sizes`, all distinct, all
/// `≡ 1 (mod 2n)` — the SEAL `CoeffModulus::Create` interface the paper's
/// §VI.A refers to ("the co-prime generation tool provided by SEAL").
/// Refuses with the first entry whose size has no unused prime left.
pub fn try_gen_moduli_chain(bit_sizes: &[u32], n: usize) -> Result<Vec<Modulus>, PrimeShortage> {
    let mut found: Vec<u64> = Vec::with_capacity(bit_sizes.len());
    // Excluding earlier picks makes repeated sizes yield distinct primes.
    for (position, &bits) in bit_sizes.iter().enumerate() {
        match try_gen_ntt_primes_excluding(bits, n, 1, &found) {
            Ok(p) => found.push(p[0]),
            Err(e) => {
                let same_size = |b: &&u32| **b == bits;
                return Err(PrimeShortage {
                    position,
                    wanted: bit_sizes.iter().filter(same_size).count(),
                    found: bit_sizes[..position].iter().filter(same_size).count(),
                    ..e
                });
            }
        }
    }
    Ok(found.into_iter().map(Modulus::new).collect())
}

/// [`try_gen_moduli_chain`] for chains known to be served; panics on a
/// [`PrimeShortage`].
pub fn gen_moduli_chain(bit_sizes: &[u32], n: usize) -> Vec<Modulus> {
    try_gen_moduli_chain(bit_sizes, n).unwrap_or_else(|e| panic!("{e}"))
}

/// Generates `count` small pairwise-coprime moduli starting near `start`,
/// used for the paper's *image-domain* RNS decomposition (Fig. 2 / Fig. 5).
/// These do not need to be NTT-friendly — they act on quantized pixel
/// tensors, not on ring elements — but primality gives pairwise
/// coprimality for free.
pub fn gen_coprime_moduli(count: usize, start: u64) -> Vec<u64> {
    let mut out = Vec::with_capacity(count);
    let mut c = start.max(2);
    while out.len() < count {
        if is_prime(c) {
            out.push(c);
        }
        c += 1;
    }
    out
}

/// Finds a generator of the cyclic group `(Z/p)^*` for prime `p`.
pub fn find_generator(modulus: &Modulus) -> u64 {
    let p = modulus.value();
    let group_order = p - 1;
    let factors = factorize(group_order);
    'cand: for g in 2..p {
        for &f in &factors {
            if modulus.pow(g, group_order / f) == 1 {
                continue 'cand;
            }
        }
        return g;
    }
    unreachable!("prime {p} has a generator");
}

/// Returns a primitive `order`-th root of unity mod `p`
/// (requires `order | p - 1`).
pub fn primitive_root_of_unity(modulus: &Modulus, order: u64) -> u64 {
    let p = modulus.value();
    assert_eq!(
        (p - 1) % order,
        0,
        "order {order} does not divide p-1 for p={p}"
    );
    let g = find_generator(modulus);
    let root = modulus.pow(g, (p - 1) / order);
    debug_assert_eq!(modulus.pow(root, order), 1);
    debug_assert_ne!(modulus.pow(root, order / 2), 1);
    root
}

/// Trial-division factorization of a 64-bit integer into distinct prime
/// factors. Adequate for `p - 1` of NTT primes, which are
/// `2^k`-smooth-dominated by construction.
fn factorize(mut n: u64) -> Vec<u64> {
    let mut factors = Vec::new();
    let mut d = 2u64;
    while d as u128 * d as u128 <= n as u128 {
        if n.is_multiple_of(d) {
            factors.push(d);
            while n.is_multiple_of(d) {
                n /= d;
            }
        }
        d += if d == 2 { 1 } else { 2 };
    }
    if n > 1 {
        factors.push(n);
    }
    factors
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_primes_classified() {
        let primes = [2u64, 3, 5, 7, 11, 13, 97, 65537, 1_000_000_007];
        let composites = [0u64, 1, 4, 9, 91, 65536, 1_000_000_006, 6_700_417 * 3];
        for p in primes {
            assert!(is_prime(p), "{p} should be prime");
        }
        for c in composites {
            assert!(!is_prime(c), "{c} should be composite");
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 825_265] {
            assert!(!is_prime(c), "Carmichael {c} must be composite");
        }
    }

    #[test]
    fn ntt_primes_have_right_form() {
        let n = 1 << 12;
        let primes = gen_ntt_primes_excluding(40, n, 3, &[]);
        assert_eq!(primes.len(), 3);
        for p in &primes {
            assert!(is_prime(*p));
            assert_eq!(p % (2 * n as u64), 1);
            assert_eq!(64 - p.leading_zeros(), 40);
        }
        // distinct
        assert!(primes[0] != primes[1] && primes[1] != primes[2]);
    }

    #[test]
    fn paper_table2_chain_generates() {
        // Table II: N = 2^14, q = [40, 26, ..., 26, 40] with L = 13
        // => 13 inner 26-bit primes plus two 40-bit end primes.
        let n = 1 << 14;
        let mut sizes = vec![40u32];
        sizes.extend(std::iter::repeat_n(26, 13));
        sizes.push(40);
        let chain = gen_moduli_chain(&sizes, n);
        assert_eq!(chain.len(), 15);
        let mut seen = std::collections::HashSet::new();
        for (m, &bits) in chain.iter().zip(&sizes) {
            assert_eq!(m.bits(), bits);
            assert_eq!(m.value() % (2 * n as u64), 1);
            assert!(seen.insert(m.value()), "duplicate prime in chain");
        }
    }

    #[test]
    fn coprime_moduli_pairwise_coprime() {
        let ms = gen_coprime_moduli(10, 257);
        for i in 0..ms.len() {
            for j in i + 1..ms.len() {
                assert_eq!(gcd(ms[i], ms[j]), 1);
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

    #[test]
    fn roots_of_unity() {
        let n = 1 << 10;
        let p = gen_ntt_primes_excluding(30, n, 1, &[])[0];
        let m = Modulus::new(p);
        let w = primitive_root_of_unity(&m, 2 * n as u64);
        assert_eq!(m.pow(w, 2 * n as u64), 1);
        assert_ne!(m.pow(w, n as u64), 1);
        // the n-th power is -1 in the negacyclic setting
        assert_eq!(m.pow(w, n as u64), p - 1);
    }

    #[test]
    #[should_panic]
    fn too_small_bits_panics() {
        let _ = gen_ntt_primes_excluding(10, 1 << 12, 1, &[]);
    }

    #[test]
    fn exhausted_progressions_are_typed_shortages() {
        // 2N = 8192: 14 bits is above log2(2N), yet no 14-bit prime
        // ≡ 1 mod 8192 exists
        let n = 1 << 12;
        let e = try_gen_ntt_primes_excluding(14, n, 1, &[]).unwrap_err();
        assert_eq!((e.bits, e.two_n, e.wanted, e.found), (14, 8192, 1, 0));
        for bits in [10, 62, 64] {
            assert!(try_gen_ntt_primes_excluding(bits, n, 1, &[]).is_err());
        }
        // exactly two 17-bit primes ≡ 1 mod 8192 exist: a third repeat
        // of the size is the entry that runs out
        assert_eq!(try_gen_moduli_chain(&[40, 17, 17], n).unwrap().len(), 3);
        let e = try_gen_moduli_chain(&[40, 17, 17, 26, 17], n).unwrap_err();
        assert_eq!((e.position, e.bits, e.wanted, e.found), (4, 17, 3, 2));
        assert!(e.to_string().contains("3 distinct 17-bit primes"), "{e}");
    }
}
