//! Negacyclic number-theoretic transform over `Z_p[X]/(X^N + 1)`.
//!
//! Harvey-style butterflies with Shoup-precomputed twiddles and lazy
//! reduction: intermediate values live in `[0, 4p)` during the forward
//! pass, which is safe for `p < 2^61`. Twiddle factors absorb the
//! `psi`-powers needed for the negacyclic (a.k.a. "negative wrapped")
//! convolution, so no separate pre/post scaling pass is needed.
//!
//! The forward transform is decimation-in-time Cooley–Tukey producing
//! bit-reversed output; the inverse is decimation-in-frequency
//! Gentleman–Sande consuming bit-reversed input. Pointwise products can
//! therefore be formed directly between two forward transforms.

use crate::kernel;
use crate::modring::Modulus;
use crate::prime::primitive_root_of_unity;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Precomputed tables for one `(N, p)` pair.
#[derive(Debug, Clone)]
pub struct NttTable {
    n: usize,
    log_n: u32,
    modulus: Modulus,
    /// psi^i in bit-reversed order, psi a primitive 2N-th root of unity.
    root_powers: Vec<u64>,
    root_powers_shoup: Vec<u64>,
    /// psi^{-i} in bit-reversed order (scrambled for the GS inverse pass).
    inv_root_powers: Vec<u64>,
    inv_root_powers_shoup: Vec<u64>,
    /// N^{-1} mod p and its Shoup companion, folded into the last inverse stage.
    inv_n: u64,
    inv_n_shoup: u64,
    /// 52-bit-scaled Shoup companions `⌊w·2^52/p⌋`, used by the AVX-512
    /// IFMA butterfly. Only populated when `4p < 2^52` (the IFMA lazy
    /// bound); empty for larger moduli.
    root_powers_shoup52: Vec<u64>,
    inv_root_powers_shoup52: Vec<u64>,
    inv_n_shoup52: u64,
}

/// `⌊w·2^52/p⌋` — the Shoup constant rescaled to the 52-bit multiplier
/// width of `vpmadd52{lo,hi}`. Fits in 52 bits whenever `w < p`.
#[inline]
fn shoup52(w: u64, p: u64) -> u64 {
    (((w as u128) << 52) / p as u128) as u64
}

/// Largest modulus the 52-bit IFMA kernels accept: lazy butterfly
/// values live in `[0, 4p)` and must fit a 52-bit multiplier operand.
pub const IFMA_MAX_MODULUS: u64 = 1 << 50;

#[inline]
fn bit_reverse(x: usize, bits: u32) -> usize {
    x.reverse_bits() >> (usize::BITS - bits)
}

impl NttTable {
    /// Builds tables for ring degree `n` (power of two) and modulus `p`
    /// with `p ≡ 1 (mod 2n)`.
    pub fn new(n: usize, modulus: Modulus) -> Self {
        assert!(
            n.is_power_of_two() && n >= 2,
            "n must be a power of two >= 2"
        );
        let p = modulus.value();
        assert_eq!(p % (2 * n as u64), 1, "p must be ≡ 1 mod 2N");
        let log_n = n.trailing_zeros();

        let psi = primitive_root_of_unity(&modulus, 2 * n as u64);
        let psi_inv = modulus.inv(psi);

        // Forward: root_powers[j] = psi^{bitrev(j)}.
        let mut root_powers = vec![0u64; n];
        let mut inv_root_powers = vec![0u64; n];
        let mut pow = 1u64;
        let mut ipow = 1u64;
        let mut fwd_seq = vec![0u64; n];
        let mut inv_seq = vec![0u64; n];
        for i in 0..n {
            fwd_seq[i] = pow;
            inv_seq[i] = ipow;
            pow = modulus.mul(pow, psi);
            ipow = modulus.mul(ipow, psi_inv);
        }
        for i in 0..n {
            root_powers[i] = fwd_seq[bit_reverse(i, log_n)];
        }
        // Inverse (Gentleman–Sande) wants psi^{-i} laid out so that stage m
        // reads contiguous entries; the standard trick (SEAL) stores
        // "scrambled" powers: inv_root_powers[m + i] = psi^{-(bitrev(i, log m) ... )}.
        // Using the same bit-reversed layout over psi^{-1} but shifted by one
        // works with the loop structure below.
        inv_root_powers[0] = 1;
        for (i, slot) in inv_root_powers.iter_mut().enumerate().skip(1) {
            // index within the GS stage table: mirror of the CT layout.
            *slot = inv_seq[bit_reverse(i - 1, log_n) + 1];
        }

        let mut root_powers_shoup: Vec<u64> =
            root_powers.iter().map(|&w| modulus.shoup(w)).collect();
        let mut inv_root_powers_shoup: Vec<u64> =
            inv_root_powers.iter().map(|&w| modulus.shoup(w)).collect();
        let ifma_ok = p < IFMA_MAX_MODULUS;
        let mut root_powers_shoup52: Vec<u64> = if ifma_ok {
            root_powers.iter().map(|&w| shoup52(w, p)).collect()
        } else {
            Vec::new()
        };
        let mut inv_root_powers_shoup52: Vec<u64> = if ifma_ok {
            inv_root_powers.iter().map(|&w| shoup52(w, p)).collect()
        } else {
            Vec::new()
        };

        // Pad every twiddle table with zeroed tail slots so vector
        // kernels can issue full-width unaligned loads from any valid
        // twiddle index without reading past the allocation. The padding
        // is never consumed arithmetically (lanes beyond the stage width
        // are masked or permuted away).
        for v in [
            &mut root_powers,
            &mut root_powers_shoup,
            &mut inv_root_powers,
            &mut inv_root_powers_shoup,
        ] {
            v.extend(std::iter::repeat_n(0, kernel::TABLE_PAD));
        }
        for v in [&mut root_powers_shoup52, &mut inv_root_powers_shoup52] {
            if !v.is_empty() {
                v.extend(std::iter::repeat_n(0, kernel::TABLE_PAD));
            }
        }

        let inv_n = modulus.inv(n as u64);
        let inv_n_shoup = modulus.shoup(inv_n);
        let inv_n_shoup52 = if ifma_ok { shoup52(inv_n, p) } else { 0 };

        Self {
            n,
            log_n,
            modulus,
            root_powers,
            root_powers_shoup,
            inv_root_powers,
            inv_root_powers_shoup,
            inv_n,
            inv_n_shoup,
            root_powers_shoup52,
            inv_root_powers_shoup52,
            inv_n_shoup52,
        }
    }

    /// Returns the cached shared table for `(n, modulus)`, building it
    /// on first request. Twiddle derivation costs `O(n)` modular
    /// exponentiations per prime, which adds up when tests and he-diff
    /// presets rebuild the same contexts repeatedly; the cache makes
    /// repeat context builds table-free.
    pub fn cached(n: usize, modulus: Modulus) -> Arc<Self> {
        type TableCache = Mutex<HashMap<(usize, u64), Arc<NttTable>>>;
        static CACHE: OnceLock<TableCache> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        let key = (n, modulus.value());
        if let Some(t) = cache.lock().unwrap().get(&key) {
            return Arc::clone(t);
        }
        // Build outside the lock: table construction is slow and two
        // racing builders produce identical tables anyway.
        let t = Arc::new(Self::new(n, modulus));
        Arc::clone(cache.lock().unwrap().entry(key).or_insert(t))
    }

    /// Ring degree.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Forward twiddles `psi^bitrev(i)` (padded by [`kernel::TABLE_PAD`]).
    #[inline]
    pub(crate) fn root_powers(&self) -> &[u64] {
        &self.root_powers
    }

    /// Shoup companions of [`Self::root_powers`].
    #[inline]
    pub(crate) fn root_powers_shoup(&self) -> &[u64] {
        &self.root_powers_shoup
    }

    /// Inverse twiddles in GS order (padded by [`kernel::TABLE_PAD`]).
    #[inline]
    pub(crate) fn inv_root_powers(&self) -> &[u64] {
        &self.inv_root_powers
    }

    /// Shoup companions of [`Self::inv_root_powers`].
    #[inline]
    pub(crate) fn inv_root_powers_shoup(&self) -> &[u64] {
        &self.inv_root_powers_shoup
    }

    /// `(N^{-1} mod p, shoup(N^{-1}))` for the inverse transform's final
    /// scaling pass.
    #[inline]
    pub(crate) fn inv_n_pair(&self) -> (u64, u64) {
        (self.inv_n, self.inv_n_shoup)
    }

    /// 52-bit-scaled Shoup companions of [`Self::root_powers`] for the
    /// AVX-512 IFMA butterfly, or `None` when `4p >= 2^52`.
    #[inline]
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    pub(crate) fn root_powers_shoup52(&self) -> Option<&[u64]> {
        (!self.root_powers_shoup52.is_empty()).then_some(&self.root_powers_shoup52[..])
    }

    /// 52-bit-scaled Shoup companions of [`Self::inv_root_powers`], or
    /// `None` when `4p >= 2^52`.
    #[inline]
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    pub(crate) fn inv_root_powers_shoup52(&self) -> Option<&[u64]> {
        (!self.inv_root_powers_shoup52.is_empty()).then_some(&self.inv_root_powers_shoup52[..])
    }

    /// `⌊N^{-1}·2^52/p⌋` for the IFMA inverse transform's final scaling
    /// pass (0 when the modulus is outside the IFMA range).
    #[inline]
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    pub(crate) fn inv_n_shoup52(&self) -> u64 {
        self.inv_n_shoup52
    }

    /// The modulus these tables were built for.
    #[inline]
    pub fn modulus(&self) -> &Modulus {
        &self.modulus
    }

    /// In-place forward negacyclic NTT. Input: coefficients `< p` in natural
    /// order. Output: evaluations `< p` in bit-reversed order.
    ///
    /// Dispatches to the active [`kernel`] backend; every backend is
    /// bit-identical to [`kernel::scalar::ntt_forward`].
    pub fn forward(&self, a: &mut [u64]) {
        he_trace::record_ntt_fwd(1);
        kernel::ntt_forward_with(kernel::active_backend(), self, a);
    }

    /// In-place inverse negacyclic NTT. Input: evaluations `< p` in
    /// bit-reversed order. Output: coefficients `< p` in natural order.
    pub fn inverse(&self, a: &mut [u64]) {
        he_trace::record_ntt_inv(1);
        kernel::ntt_inverse_with(kernel::active_backend(), self, a);
    }

    /// Pointwise multiply-accumulate in the evaluation domain:
    /// `acc[i] = (acc[i] + a[i] * b[i]) mod p`.
    pub fn dyadic_mul_acc(&self, acc: &mut [u64], a: &[u64], b: &[u64]) {
        kernel::dyadic_mul_acc(&self.modulus, acc, a, b);
    }

    /// Pointwise product in the evaluation domain.
    pub fn dyadic_mul(&self, out: &mut [u64], a: &[u64], b: &[u64]) {
        kernel::dyadic_mul(&self.modulus, out, a, b);
    }

    /// log2 of the ring degree.
    #[inline]
    pub fn log_n(&self) -> u32 {
        self.log_n
    }
}

/// The Galois automorphism `σ_g: X ↦ X^g` (g odd, `< 2N`) as a
/// permutation of NTT evaluation slots: `perm[k]` is the slot of `a`
/// that slot `k` of `σ_g(a)` reads. Slot `k` of the forward transform
/// evaluates at `ψ^(2·bitrev(k)+1)`, and `σ_g(a)(ψ^e) = a(ψ^(g·e))`, so
/// `perm[k] = bitrev((g·(2·bitrev(k)+1) mod 2N − 1) / 2)`. The table
/// depends on `(n, g)` only — no modulus — and is cached process-wide
/// like [`NttTable::cached`].
pub fn galois_permutation(n: usize, g: usize) -> Arc<[u32]> {
    assert!(n.is_power_of_two() && (2..=1 << 31).contains(&n));
    assert!(g % 2 == 1 && g < 2 * n, "galois element must be odd, < 2N");
    type PermCache = Mutex<HashMap<(usize, usize), Arc<[u32]>>>;
    static CACHE: OnceLock<PermCache> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    const POISONED: &str = "galois permutation cache poisoned";
    if let Some(p) = cache.lock().expect(POISONED).get(&(n, g)) {
        return Arc::clone(p);
    }
    let log_n = n.trailing_zeros();
    let two_n = 2 * n as u64;
    let perm: Arc<[u32]> = (0..n)
        .map(|k| {
            let e = 2 * bit_reverse(k, log_n) as u64 + 1;
            let ge = g as u64 * e % two_n;
            bit_reverse(((ge - 1) / 2) as usize, log_n) as u32
        })
        .collect();
    Arc::clone(cache.lock().expect(POISONED).entry((n, g)).or_insert(perm))
}

/// Reference negacyclic convolution, `O(N^2)`, for testing.
pub fn negacyclic_convolution_naive(a: &[u64], b: &[u64], modulus: &Modulus) -> Vec<u64> {
    let n = a.len();
    assert_eq!(b.len(), n);
    let mut out = vec![0u64; n];
    for i in 0..n {
        if a[i] == 0 {
            continue;
        }
        for j in 0..n {
            let prod = modulus.mul(a[i], b[j]);
            let k = i + j;
            if k < n {
                out[k] = modulus.add(out[k], prod);
            } else {
                out[k - n] = modulus.sub(out[k - n], prod);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::gen_ntt_primes_excluding;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn table(n: usize, bits: u32) -> NttTable {
        let p = gen_ntt_primes_excluding(bits, n, 1, &[])[0];
        NttTable::new(n, Modulus::new(p))
    }

    #[test]
    fn forward_inverse_roundtrip() {
        for log_n in [3u32, 6, 10] {
            let n = 1usize << log_n;
            let t = table(n, 50);
            let mut rng = rand::rngs::StdRng::seed_from_u64(7);
            let orig: Vec<u64> = (0..n)
                .map(|_| rng.gen_range(0..t.modulus().value()))
                .collect();
            let mut a = orig.clone();
            t.forward(&mut a);
            assert_ne!(a, orig, "transform should not be identity");
            t.inverse(&mut a);
            assert_eq!(a, orig, "N={n}");
        }
    }

    #[test]
    fn ntt_of_constant_poly() {
        // NTT of the constant c evaluates to c at every root.
        let n = 64;
        let t = table(n, 40);
        let mut a = vec![0u64; n];
        a[0] = 12345;
        t.forward(&mut a);
        assert!(a.iter().all(|&x| x == 12345));
    }

    #[test]
    fn convolution_matches_naive() {
        let n = 128;
        let t = table(n, 45);
        let m = *t.modulus();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..m.value())).collect();
        let b: Vec<u64> = (0..n).map(|_| rng.gen_range(0..m.value())).collect();
        let expect = negacyclic_convolution_naive(&a, &b, &m);

        let mut fa = a.clone();
        let mut fb = b.clone();
        t.forward(&mut fa);
        t.forward(&mut fb);
        let mut prod = vec![0u64; n];
        t.dyadic_mul(&mut prod, &fa, &fb);
        t.inverse(&mut prod);
        assert_eq!(prod, expect);
    }

    #[test]
    fn negacyclic_wraparound_sign() {
        // (X^{N-1}) * X = X^N = -1 mod X^N + 1.
        let n = 32;
        let t = table(n, 40);
        let m = *t.modulus();
        let mut a = vec![0u64; n];
        let mut b = vec![0u64; n];
        a[n - 1] = 1;
        b[1] = 1;
        t.forward(&mut a);
        t.forward(&mut b);
        let mut prod = vec![0u64; n];
        t.dyadic_mul(&mut prod, &a, &b);
        t.inverse(&mut prod);
        let mut expect = vec![0u64; n];
        expect[0] = m.value() - 1; // -1
        assert_eq!(prod, expect);
    }

    #[test]
    fn linearity_of_transform() {
        let n = 64;
        let t = table(n, 40);
        let m = *t.modulus();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..m.value())).collect();
        let b: Vec<u64> = (0..n).map(|_| rng.gen_range(0..m.value())).collect();
        let sum: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| m.add(x, y)).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fs = sum.clone();
        t.forward(&mut fa);
        t.forward(&mut fb);
        t.forward(&mut fs);
        for i in 0..n {
            assert_eq!(fs[i], m.add(fa[i], fb[i]));
        }
    }

    #[test]
    fn dyadic_mul_acc_accumulates() {
        let n = 8;
        let t = table(n, 30);
        let m = *t.modulus();
        let a = vec![2u64; n];
        let b = vec![3u64; n];
        let mut acc = vec![1u64; n];
        t.dyadic_mul_acc(&mut acc, &a, &b);
        assert!(acc.iter().all(|&x| x == 7));
        t.dyadic_mul_acc(&mut acc, &a, &b);
        assert!(acc.iter().all(|&x| x == 13));
        let _ = m;
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_roundtrip(seed in any::<u64>()) {
            let n = 256;
            let t = table(n, 40);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let orig: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t.modulus().value())).collect();
            let mut a = orig.clone();
            t.forward(&mut a);
            t.inverse(&mut a);
            prop_assert_eq!(a, orig);
        }

        #[test]
        fn prop_convolution_commutes(seed in any::<u64>()) {
            let n = 64;
            let t = table(n, 35);
            let m = *t.modulus();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..m.value())).collect();
            let b: Vec<u64> = (0..n).map(|_| rng.gen_range(0..m.value())).collect();
            let ab = negacyclic_convolution_naive(&a, &b, &m);
            let ba = negacyclic_convolution_naive(&b, &a, &m);
            prop_assert_eq!(ab, ba);
        }
    }
}
