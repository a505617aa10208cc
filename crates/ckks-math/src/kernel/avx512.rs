//! AVX-512 (F + DQ) kernels: 8×u64 lanes per `__m512i`.
//!
//! Bit-identical to [`super::scalar`] — same wrapping u64 formulas,
//! with conditional corrections as mask-subtracts. Compared to the AVX2
//! path this backend gets three things natively: unsigned 64-bit
//! compares producing `__mmask8` predicates, a true 64×64→low64
//! multiply (`vpmullq`, the DQ half of the feature requirement), and
//! two-source lane permutes (`vpermt2q`) that let the small-`t` NTT
//! stages gather butterfly operands across two registers in one
//! instruction. Only `mulhi64` still needs the 32-bit partial-product
//! decomposition (carry-safe: the mid-sum of three `< 2^32` terms never
//! overflows a u64).
//!
//! Safety contract for every `pub unsafe fn` here: the caller must have
//! verified `avx512f` **and** `avx512dq` (the dispatcher in `kernel`
//! does). Raw loads/stores only touch `chunks_exact`-derived sub-slices
//! or twiddle indices in-bounds by construction; full-width twiddle
//! loads at small-`t` stages may read into the zeroed `TABLE_PAD` tail,
//! never past the allocation.

use super::scalar;
use crate::modring::Modulus;
use crate::ntt::NttTable;
use core::arch::x86_64::{
    __m512i, __mmask8, _mm512_add_epi64, _mm512_and_si512, _mm512_cmpge_epu64_mask,
    _mm512_cmpgt_epu64_mask, _mm512_cmplt_epu64_mask, _mm512_loadu_epi64, _mm512_madd52hi_epu64,
    _mm512_madd52lo_epu64, _mm512_mask_blend_epi64, _mm512_mask_sub_epi64, _mm512_maskz_mov_epi64,
    _mm512_mul_epu32, _mm512_mullo_epi64, _mm512_permutex2var_epi64, _mm512_permutexvar_epi64,
    _mm512_set1_epi64, _mm512_setzero_si512, _mm512_srli_epi64, _mm512_storeu_epi64,
    _mm512_sub_epi64,
};

const LANES: usize = 8;

// --- IFMA (52-bit) fast path ------------------------------------------
//
// `vpmadd52{lo,hi}` multiply the low 52 bits of two operands and add the
// low/high half of the 104-bit product to a 64-bit accumulator. For
// moduli with `4p < 2^52` (`ntt::IFMA_MAX_MODULUS`) every lazy Harvey
// value fits a 52-bit multiplier operand, and with Shoup constants
// rescaled to `⌊w·2^52/p⌋` the lazy product costs three multiplies
// instead of the ten 32×32 partial products of the generic path.
//
// Bit-identity: the IFMA quotient estimate can differ from the 64-bit
// one, so *intermediate* lazy representatives may differ by a multiple
// of `p` — but every kernel entry point below either ends in a full
// canonical reduction (NTTs, dyadic, fused MAC) or reproduces the
// scalar formula exactly, so entry-point outputs are identical across
// paths. The parity suites compare at that boundary.

const MASK52: u64 = (1 << 52) - 1;

/// Cached `avx512ifma` detection, on top of the F+DQ contract the
/// dispatcher already established for this module.
fn ifma_available() -> bool {
    static IFMA: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *IFMA.get_or_init(|| std::arch::is_x86_feature_detected!("avx512ifma"))
}

/// `⌊w·2^52/p⌋` for a runtime scalar operand (twiddles come
/// precomputed from `NttTable`; per-slice constants are derived here).
#[inline]
fn shoup52(w: u64, p: u64) -> u64 {
    (((w as u128) << 52) / p as u128) as u64
}

/// Lazy 52-bit Shoup multiply `y * w mod p` in `[0, 2p)`. Requires
/// `y < 2^52`, `w < p` and `4p < 2^52`; `ws52 = ⌊w·2^52/p⌋`.
#[inline(always)]
unsafe fn mul_shoup_lazy52_v(y: __m512i, w: __m512i, ws52: __m512i, p: __m512i) -> __m512i {
    unsafe {
        let zero = _mm512_setzero_si512();
        let q = _mm512_madd52hi_epu64(zero, y, ws52);
        let t = _mm512_sub_epi64(
            _mm512_madd52lo_epu64(zero, y, w),
            _mm512_madd52lo_epu64(zero, q, p),
        );
        // the true remainder is in [0, 2p) ⊂ [0, 2^52); the u64 wrap of
        // the subtraction vanishes under the 52-bit mask
        _mm512_and_si512(t, splat(MASK52))
    }
}

// --- lane helpers (inlined into the #[target_feature] entry points) ---

#[inline(always)]
unsafe fn splat(x: u64) -> __m512i {
    unsafe { _mm512_set1_epi64(x as i64) }
}

#[inline(always)]
unsafe fn load(src: &[u64]) -> __m512i {
    debug_assert!(src.len() >= LANES);
    unsafe { _mm512_loadu_epi64(src.as_ptr().cast()) }
}

#[inline(always)]
unsafe fn store(dst: &mut [u64], v: __m512i) {
    debug_assert!(dst.len() >= LANES);
    unsafe { _mm512_storeu_epi64(dst.as_mut_ptr().cast(), v) }
}

/// Index vector for the two-source permutes (values `>= 8` select from
/// the second source operand).
#[inline(always)]
unsafe fn idx(v: [u64; 8]) -> __m512i {
    unsafe { _mm512_loadu_epi64(v.as_ptr().cast()) }
}

/// `x - (bound if x >= bound else 0)` via a mask-subtract.
#[inline(always)]
unsafe fn sub_if_ge(x: __m512i, bound: __m512i) -> __m512i {
    unsafe {
        let ge = _mm512_cmpge_epu64_mask(x, bound);
        _mm512_mask_sub_epi64(x, ge, x, bound)
    }
}

/// High 64 bits of the 64×64 product (32-bit partial products).
#[inline(always)]
unsafe fn mul_hi64(a: __m512i, b: __m512i) -> __m512i {
    unsafe {
        let mask32 = splat(0xFFFF_FFFF);
        let a_hi = _mm512_srli_epi64::<32>(a);
        let b_hi = _mm512_srli_epi64::<32>(b);
        let ll = _mm512_mul_epu32(a, b);
        let hl = _mm512_mul_epu32(a_hi, b);
        let lh = _mm512_mul_epu32(a, b_hi);
        let hh = _mm512_mul_epu32(a_hi, b_hi);
        let mid = _mm512_add_epi64(
            _mm512_add_epi64(_mm512_srli_epi64::<32>(ll), _mm512_and_si512(hl, mask32)),
            _mm512_and_si512(lh, mask32),
        );
        _mm512_add_epi64(
            _mm512_add_epi64(hh, _mm512_srli_epi64::<32>(hl)),
            _mm512_add_epi64(_mm512_srli_epi64::<32>(lh), _mm512_srli_epi64::<32>(mid)),
        )
    }
}

/// Lazy Shoup multiply in `[0, 2p)` for any 64-bit `a`, identical
/// wrapping formula to `Modulus::mul_shoup_lazy`.
#[inline(always)]
unsafe fn mul_shoup_lazy_v(a: __m512i, b: __m512i, b_shoup: __m512i, p: __m512i) -> __m512i {
    unsafe {
        let q = mul_hi64(a, b_shoup);
        _mm512_sub_epi64(_mm512_mullo_epi64(a, b), _mm512_mullo_epi64(q, p))
    }
}

/// Full Shoup multiply: lazy + one canonical correction.
#[inline(always)]
unsafe fn mul_shoup_v(a: __m512i, b: __m512i, b_shoup: __m512i, p: __m512i) -> __m512i {
    unsafe { sub_if_ge(mul_shoup_lazy_v(a, b, b_shoup, p), p) }
}

/// Canonical `a * b mod p`, lane-wise twin of
/// `Modulus::reduce_u128(a·b)`; the carries of the three-way `word1`
/// sum come from wrap-compare masks and feed masked `+1`s.
#[inline(always)]
unsafe fn barrett_mul_v(a: __m512i, b: __m512i, p: __m512i, cr0: __m512i, cr1: __m512i) -> __m512i {
    unsafe {
        let x_lo = _mm512_mullo_epi64(a, b);
        let x_hi = mul_hi64(a, b);
        let carry = mul_hi64(x_lo, cr0);
        let p1_lo = _mm512_mullo_epi64(x_lo, cr1);
        let p1_hi = mul_hi64(x_lo, cr1);
        let p2_lo = _mm512_mullo_epi64(x_hi, cr0);
        let p2_hi = mul_hi64(x_hi, cr0);
        let one = splat(1);
        let s1 = _mm512_add_epi64(p1_lo, p2_lo);
        let c1: __mmask8 = _mm512_cmplt_epu64_mask(s1, p1_lo); // wrapped
        let s2 = _mm512_add_epi64(s1, carry);
        let c2: __mmask8 = _mm512_cmplt_epu64_mask(s2, carry); // wrapped
        let mut q = _mm512_add_epi64(
            _mm512_add_epi64(p1_hi, p2_hi),
            _mm512_mullo_epi64(x_hi, cr1),
        );
        q = _mm512_add_epi64(q, _mm512_maskz_mov_epi64(c1, one));
        q = _mm512_add_epi64(q, _mm512_maskz_mov_epi64(c2, one));
        let r = _mm512_sub_epi64(x_lo, _mm512_mullo_epi64(q, p));
        sub_if_ge(sub_if_ge(r, p), p)
    }
}

/// The gather/scatter index vectors for the three sub-vector-width NTT
/// stage layouts, plus the twiddle-expansion permutes. One struct so
/// forward and inverse share the derivations:
///
/// * `half_*` — `t = 4`, blocks of 8 `[x0..x3 y0..y3]`, 2 blocks/iter;
/// * `pair_*` — `t = 2`, blocks of 4 `[x0 x1 y0 y1]`, 4 blocks/iter;
/// * `lace_*` — `t = 1`, blocks of 2 `[x y]`, 8 blocks/iter (gathered
///   lane order == block order, so twiddles load straight);
/// * `w_quad`/`w_pair` — repeat each twiddle 4×/2× to match lane order.
struct StageIdx {
    half_lo: __m512i,
    half_hi: __m512i,
    pair_x: __m512i,
    pair_y: __m512i,
    pair_a: __m512i,
    pair_b: __m512i,
    lace_x: __m512i,
    lace_y: __m512i,
    lace_a: __m512i,
    lace_b: __m512i,
    w_quad: __m512i,
    w_pair: __m512i,
}

#[inline(always)]
unsafe fn stage_idx() -> StageIdx {
    unsafe {
        StageIdx {
            half_lo: idx([0, 1, 2, 3, 8, 9, 10, 11]),
            half_hi: idx([4, 5, 6, 7, 12, 13, 14, 15]),
            pair_x: idx([0, 1, 4, 5, 8, 9, 12, 13]),
            pair_y: idx([2, 3, 6, 7, 10, 11, 14, 15]),
            pair_a: idx([0, 1, 8, 9, 2, 3, 10, 11]),
            pair_b: idx([4, 5, 12, 13, 6, 7, 14, 15]),
            lace_x: idx([0, 2, 4, 6, 8, 10, 12, 14]),
            lace_y: idx([1, 3, 5, 7, 9, 11, 13, 15]),
            lace_a: idx([0, 8, 1, 9, 2, 10, 3, 11]),
            lace_b: idx([4, 12, 5, 13, 6, 14, 7, 15]),
            w_quad: idx([0, 0, 0, 0, 1, 1, 1, 1]),
            w_pair: idx([0, 0, 1, 1, 2, 2, 3, 3]),
        }
    }
}

// --- NTT --------------------------------------------------------------

/// In-place forward negacyclic NTT, AVX-512.
///
/// # Safety
/// Caller must guarantee the CPU supports AVX-512F and AVX-512DQ.
#[target_feature(enable = "avx512f,avx512dq")]
pub unsafe fn ntt_forward(table: &NttTable, a: &mut [u64]) {
    let n = table.n();
    if n < 2 * LANES {
        return scalar::ntt_forward(table, a);
    }
    if ifma_available() {
        if let Some(tws52) = table.root_powers_shoup52() {
            return unsafe { ntt_forward_ifma(table, a, tws52) };
        }
    }
    let modulus = table.modulus();
    let p_val = modulus.value();
    let p = unsafe { splat(p_val) };
    let two_p = unsafe { splat(p_val << 1) };
    let tw = table.root_powers();
    let tws = table.root_powers_shoup();
    let ix = unsafe { stage_idx() };

    let mut t = n;
    let mut m = 1usize;
    while m < n {
        t >>= 1;
        match t {
            _ if t >= LANES => {
                for i in 0..m {
                    let w = unsafe { splat(tw[m + i]) };
                    let ws = unsafe { splat(tws[m + i]) };
                    let j1 = 2 * i * t;
                    let (lo, hi) = a[j1..j1 + 2 * t].split_at_mut(t);
                    for (cx, cy) in lo.chunks_exact_mut(LANES).zip(hi.chunks_exact_mut(LANES)) {
                        unsafe {
                            let x = load(cx);
                            let y = load(cy);
                            let u = sub_if_ge(x, two_p);
                            let v = mul_shoup_lazy_v(y, w, ws, p);
                            store(cx, _mm512_add_epi64(u, v));
                            store(cy, _mm512_add_epi64(u, _mm512_sub_epi64(two_p, v)));
                        }
                    }
                }
            }
            4 => {
                for i in (0..m).step_by(2) {
                    let base = 8 * i;
                    unsafe {
                        // full-width twiddle loads may touch TABLE_PAD
                        let w = _mm512_permutexvar_epi64(ix.w_quad, load(&tw[m + i..]));
                        let ws = _mm512_permutexvar_epi64(ix.w_quad, load(&tws[m + i..]));
                        let blk_a = load(&a[base..]);
                        let blk_b = load(&a[base + 8..]);
                        let x = _mm512_permutex2var_epi64(blk_a, ix.half_lo, blk_b);
                        let y = _mm512_permutex2var_epi64(blk_a, ix.half_hi, blk_b);
                        let u = sub_if_ge(x, two_p);
                        let v = mul_shoup_lazy_v(y, w, ws, p);
                        let nx = _mm512_add_epi64(u, v);
                        let ny = _mm512_add_epi64(u, _mm512_sub_epi64(two_p, v));
                        store(
                            &mut a[base..],
                            _mm512_permutex2var_epi64(nx, ix.half_lo, ny),
                        );
                        store(
                            &mut a[base + 8..],
                            _mm512_permutex2var_epi64(nx, ix.half_hi, ny),
                        );
                    }
                }
            }
            2 => {
                for i in (0..m).step_by(4) {
                    let base = 4 * i;
                    unsafe {
                        let w = _mm512_permutexvar_epi64(ix.w_pair, load(&tw[m + i..]));
                        let ws = _mm512_permutexvar_epi64(ix.w_pair, load(&tws[m + i..]));
                        let blk_a = load(&a[base..]);
                        let blk_b = load(&a[base + 8..]);
                        let x = _mm512_permutex2var_epi64(blk_a, ix.pair_x, blk_b);
                        let y = _mm512_permutex2var_epi64(blk_a, ix.pair_y, blk_b);
                        let u = sub_if_ge(x, two_p);
                        let v = mul_shoup_lazy_v(y, w, ws, p);
                        let nx = _mm512_add_epi64(u, v);
                        let ny = _mm512_add_epi64(u, _mm512_sub_epi64(two_p, v));
                        store(&mut a[base..], _mm512_permutex2var_epi64(nx, ix.pair_a, ny));
                        store(
                            &mut a[base + 8..],
                            _mm512_permutex2var_epi64(nx, ix.pair_b, ny),
                        );
                    }
                }
            }
            _ => {
                // t == 1
                for i in (0..m).step_by(8) {
                    let base = 2 * i;
                    unsafe {
                        let w = load(&tw[m + i..]);
                        let ws = load(&tws[m + i..]);
                        let blk_a = load(&a[base..]);
                        let blk_b = load(&a[base + 8..]);
                        let x = _mm512_permutex2var_epi64(blk_a, ix.lace_x, blk_b);
                        let y = _mm512_permutex2var_epi64(blk_a, ix.lace_y, blk_b);
                        let u = sub_if_ge(x, two_p);
                        let v = mul_shoup_lazy_v(y, w, ws, p);
                        let nx = _mm512_add_epi64(u, v);
                        let ny = _mm512_add_epi64(u, _mm512_sub_epi64(two_p, v));
                        store(&mut a[base..], _mm512_permutex2var_epi64(nx, ix.lace_a, ny));
                        store(
                            &mut a[base + 8..],
                            _mm512_permutex2var_epi64(nx, ix.lace_b, ny),
                        );
                    }
                }
            }
        }
        m <<= 1;
    }
    for c in a.chunks_exact_mut(LANES) {
        unsafe {
            let x = load(c);
            store(c, sub_if_ge(sub_if_ge(x, two_p), p));
        }
    }
}

/// In-place inverse negacyclic NTT, AVX-512.
///
/// # Safety
/// Caller must guarantee the CPU supports AVX-512F and AVX-512DQ.
#[target_feature(enable = "avx512f,avx512dq")]
pub unsafe fn ntt_inverse(table: &NttTable, a: &mut [u64]) {
    let n = table.n();
    if n < 2 * LANES {
        return scalar::ntt_inverse(table, a);
    }
    if ifma_available() {
        if let Some(tws52) = table.inv_root_powers_shoup52() {
            return unsafe { ntt_inverse_ifma(table, a, tws52) };
        }
    }
    let modulus = table.modulus();
    let p_val = modulus.value();
    let p = unsafe { splat(p_val) };
    let two_p = unsafe { splat(p_val << 1) };
    let tw = table.inv_root_powers();
    let tws = table.inv_root_powers_shoup();
    let ix = unsafe { stage_idx() };

    let mut t = 1usize;
    let mut m = n;
    let mut ri = 1usize; // GS twiddles are consumed contiguously
    while m > 1 {
        let h = m >> 1;
        match t {
            1 => {
                for g in (0..h).step_by(8) {
                    let base = 2 * g;
                    unsafe {
                        let w = load(&tw[ri + g..]);
                        let ws = load(&tws[ri + g..]);
                        let blk_a = load(&a[base..]);
                        let blk_b = load(&a[base + 8..]);
                        let u = _mm512_permutex2var_epi64(blk_a, ix.lace_x, blk_b);
                        let v = _mm512_permutex2var_epi64(blk_a, ix.lace_y, blk_b);
                        let s = sub_if_ge(_mm512_add_epi64(u, v), two_p);
                        let d = _mm512_add_epi64(u, _mm512_sub_epi64(two_p, v));
                        let ny = mul_shoup_lazy_v(d, w, ws, p);
                        store(&mut a[base..], _mm512_permutex2var_epi64(s, ix.lace_a, ny));
                        store(
                            &mut a[base + 8..],
                            _mm512_permutex2var_epi64(s, ix.lace_b, ny),
                        );
                    }
                }
            }
            2 => {
                for g in (0..h).step_by(4) {
                    let base = 4 * g;
                    unsafe {
                        // full-width twiddle loads may touch TABLE_PAD
                        let w = _mm512_permutexvar_epi64(ix.w_pair, load(&tw[ri + g..]));
                        let ws = _mm512_permutexvar_epi64(ix.w_pair, load(&tws[ri + g..]));
                        let blk_a = load(&a[base..]);
                        let blk_b = load(&a[base + 8..]);
                        let u = _mm512_permutex2var_epi64(blk_a, ix.pair_x, blk_b);
                        let v = _mm512_permutex2var_epi64(blk_a, ix.pair_y, blk_b);
                        let s = sub_if_ge(_mm512_add_epi64(u, v), two_p);
                        let d = _mm512_add_epi64(u, _mm512_sub_epi64(two_p, v));
                        let ny = mul_shoup_lazy_v(d, w, ws, p);
                        store(&mut a[base..], _mm512_permutex2var_epi64(s, ix.pair_a, ny));
                        store(
                            &mut a[base + 8..],
                            _mm512_permutex2var_epi64(s, ix.pair_b, ny),
                        );
                    }
                }
            }
            4 => {
                for g in (0..h).step_by(2) {
                    let base = 8 * g;
                    unsafe {
                        let w = _mm512_permutexvar_epi64(ix.w_quad, load(&tw[ri + g..]));
                        let ws = _mm512_permutexvar_epi64(ix.w_quad, load(&tws[ri + g..]));
                        let blk_a = load(&a[base..]);
                        let blk_b = load(&a[base + 8..]);
                        let u = _mm512_permutex2var_epi64(blk_a, ix.half_lo, blk_b);
                        let v = _mm512_permutex2var_epi64(blk_a, ix.half_hi, blk_b);
                        let s = sub_if_ge(_mm512_add_epi64(u, v), two_p);
                        let d = _mm512_add_epi64(u, _mm512_sub_epi64(two_p, v));
                        let ny = mul_shoup_lazy_v(d, w, ws, p);
                        store(&mut a[base..], _mm512_permutex2var_epi64(s, ix.half_lo, ny));
                        store(
                            &mut a[base + 8..],
                            _mm512_permutex2var_epi64(s, ix.half_hi, ny),
                        );
                    }
                }
            }
            _ => {
                for g in 0..h {
                    let w = unsafe { splat(tw[ri + g]) };
                    let ws = unsafe { splat(tws[ri + g]) };
                    let j1 = 2 * t * g;
                    let (lo, hi) = a[j1..j1 + 2 * t].split_at_mut(t);
                    for (cx, cy) in lo.chunks_exact_mut(LANES).zip(hi.chunks_exact_mut(LANES)) {
                        unsafe {
                            let u = load(cx);
                            let v = load(cy);
                            let s = sub_if_ge(_mm512_add_epi64(u, v), two_p);
                            let d = _mm512_add_epi64(u, _mm512_sub_epi64(two_p, v));
                            store(cx, s);
                            store(cy, mul_shoup_lazy_v(d, w, ws, p));
                        }
                    }
                }
            }
        }
        ri += h;
        t <<= 1;
        m = h;
    }
    let (inv_n, inv_n_shoup) = table.inv_n_pair();
    let (wn, wns) = unsafe { (splat(inv_n), splat(inv_n_shoup)) };
    for c in a.chunks_exact_mut(LANES) {
        unsafe {
            let x = load(c);
            store(c, mul_shoup_v(x, wn, wns, p));
        }
    }
}

/// Forward NTT over the IFMA butterfly. Same stage/permute structure as
/// [`ntt_forward`]; only the Shoup product changes. `tws52` are the
/// table's `⌊w·2^52/p⌋` twiddle companions (TABLE_PAD-padded).
///
/// # Safety
/// Caller must guarantee AVX-512 F+DQ+IFMA and `4p < 2^52`.
#[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
unsafe fn ntt_forward_ifma(table: &NttTable, a: &mut [u64], tws52: &[u64]) {
    let n = table.n();
    let p_val = table.modulus().value();
    let p = unsafe { splat(p_val) };
    let two_p = unsafe { splat(p_val << 1) };
    let tw = table.root_powers();
    let ix = unsafe { stage_idx() };

    let mut t = n;
    let mut m = 1usize;
    while m < n {
        t >>= 1;
        match t {
            _ if t >= LANES => {
                for i in 0..m {
                    let w = unsafe { splat(tw[m + i]) };
                    let ws = unsafe { splat(tws52[m + i]) };
                    let j1 = 2 * i * t;
                    let (lo, hi) = a[j1..j1 + 2 * t].split_at_mut(t);
                    for (cx, cy) in lo.chunks_exact_mut(LANES).zip(hi.chunks_exact_mut(LANES)) {
                        unsafe {
                            let x = load(cx);
                            let y = load(cy);
                            let u = sub_if_ge(x, two_p);
                            let v = mul_shoup_lazy52_v(y, w, ws, p);
                            store(cx, _mm512_add_epi64(u, v));
                            store(cy, _mm512_add_epi64(u, _mm512_sub_epi64(two_p, v)));
                        }
                    }
                }
            }
            4 => {
                for i in (0..m).step_by(2) {
                    let base = 8 * i;
                    unsafe {
                        // full-width twiddle loads may touch TABLE_PAD
                        let w = _mm512_permutexvar_epi64(ix.w_quad, load(&tw[m + i..]));
                        let ws = _mm512_permutexvar_epi64(ix.w_quad, load(&tws52[m + i..]));
                        let blk_a = load(&a[base..]);
                        let blk_b = load(&a[base + 8..]);
                        let x = _mm512_permutex2var_epi64(blk_a, ix.half_lo, blk_b);
                        let y = _mm512_permutex2var_epi64(blk_a, ix.half_hi, blk_b);
                        let u = sub_if_ge(x, two_p);
                        let v = mul_shoup_lazy52_v(y, w, ws, p);
                        let nx = _mm512_add_epi64(u, v);
                        let ny = _mm512_add_epi64(u, _mm512_sub_epi64(two_p, v));
                        store(
                            &mut a[base..],
                            _mm512_permutex2var_epi64(nx, ix.half_lo, ny),
                        );
                        store(
                            &mut a[base + 8..],
                            _mm512_permutex2var_epi64(nx, ix.half_hi, ny),
                        );
                    }
                }
            }
            2 => {
                for i in (0..m).step_by(4) {
                    let base = 4 * i;
                    unsafe {
                        let w = _mm512_permutexvar_epi64(ix.w_pair, load(&tw[m + i..]));
                        let ws = _mm512_permutexvar_epi64(ix.w_pair, load(&tws52[m + i..]));
                        let blk_a = load(&a[base..]);
                        let blk_b = load(&a[base + 8..]);
                        let x = _mm512_permutex2var_epi64(blk_a, ix.pair_x, blk_b);
                        let y = _mm512_permutex2var_epi64(blk_a, ix.pair_y, blk_b);
                        let u = sub_if_ge(x, two_p);
                        let v = mul_shoup_lazy52_v(y, w, ws, p);
                        let nx = _mm512_add_epi64(u, v);
                        let ny = _mm512_add_epi64(u, _mm512_sub_epi64(two_p, v));
                        store(&mut a[base..], _mm512_permutex2var_epi64(nx, ix.pair_a, ny));
                        store(
                            &mut a[base + 8..],
                            _mm512_permutex2var_epi64(nx, ix.pair_b, ny),
                        );
                    }
                }
            }
            _ => {
                // t == 1
                for i in (0..m).step_by(8) {
                    let base = 2 * i;
                    unsafe {
                        let w = load(&tw[m + i..]);
                        let ws = load(&tws52[m + i..]);
                        let blk_a = load(&a[base..]);
                        let blk_b = load(&a[base + 8..]);
                        let x = _mm512_permutex2var_epi64(blk_a, ix.lace_x, blk_b);
                        let y = _mm512_permutex2var_epi64(blk_a, ix.lace_y, blk_b);
                        let u = sub_if_ge(x, two_p);
                        let v = mul_shoup_lazy52_v(y, w, ws, p);
                        let nx = _mm512_add_epi64(u, v);
                        let ny = _mm512_add_epi64(u, _mm512_sub_epi64(two_p, v));
                        store(&mut a[base..], _mm512_permutex2var_epi64(nx, ix.lace_a, ny));
                        store(
                            &mut a[base + 8..],
                            _mm512_permutex2var_epi64(nx, ix.lace_b, ny),
                        );
                    }
                }
            }
        }
        m <<= 1;
    }
    for c in a.chunks_exact_mut(LANES) {
        unsafe {
            let x = load(c);
            store(c, sub_if_ge(sub_if_ge(x, two_p), p));
        }
    }
}

/// Inverse NTT over the IFMA butterfly; see [`ntt_forward_ifma`].
///
/// # Safety
/// Caller must guarantee AVX-512 F+DQ+IFMA and `4p < 2^52`.
#[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
unsafe fn ntt_inverse_ifma(table: &NttTable, a: &mut [u64], tws52: &[u64]) {
    let n = table.n();
    let p_val = table.modulus().value();
    let p = unsafe { splat(p_val) };
    let two_p = unsafe { splat(p_val << 1) };
    let tw = table.inv_root_powers();
    let ix = unsafe { stage_idx() };

    let mut t = 1usize;
    let mut m = n;
    let mut ri = 1usize; // GS twiddles are consumed contiguously
    while m > 1 {
        let h = m >> 1;
        match t {
            1 => {
                for g in (0..h).step_by(8) {
                    let base = 2 * g;
                    unsafe {
                        let w = load(&tw[ri + g..]);
                        let ws = load(&tws52[ri + g..]);
                        let blk_a = load(&a[base..]);
                        let blk_b = load(&a[base + 8..]);
                        let u = _mm512_permutex2var_epi64(blk_a, ix.lace_x, blk_b);
                        let v = _mm512_permutex2var_epi64(blk_a, ix.lace_y, blk_b);
                        let s = sub_if_ge(_mm512_add_epi64(u, v), two_p);
                        let d = _mm512_add_epi64(u, _mm512_sub_epi64(two_p, v));
                        let ny = mul_shoup_lazy52_v(d, w, ws, p);
                        store(&mut a[base..], _mm512_permutex2var_epi64(s, ix.lace_a, ny));
                        store(
                            &mut a[base + 8..],
                            _mm512_permutex2var_epi64(s, ix.lace_b, ny),
                        );
                    }
                }
            }
            2 => {
                for g in (0..h).step_by(4) {
                    let base = 4 * g;
                    unsafe {
                        // full-width twiddle loads may touch TABLE_PAD
                        let w = _mm512_permutexvar_epi64(ix.w_pair, load(&tw[ri + g..]));
                        let ws = _mm512_permutexvar_epi64(ix.w_pair, load(&tws52[ri + g..]));
                        let blk_a = load(&a[base..]);
                        let blk_b = load(&a[base + 8..]);
                        let u = _mm512_permutex2var_epi64(blk_a, ix.pair_x, blk_b);
                        let v = _mm512_permutex2var_epi64(blk_a, ix.pair_y, blk_b);
                        let s = sub_if_ge(_mm512_add_epi64(u, v), two_p);
                        let d = _mm512_add_epi64(u, _mm512_sub_epi64(two_p, v));
                        let ny = mul_shoup_lazy52_v(d, w, ws, p);
                        store(&mut a[base..], _mm512_permutex2var_epi64(s, ix.pair_a, ny));
                        store(
                            &mut a[base + 8..],
                            _mm512_permutex2var_epi64(s, ix.pair_b, ny),
                        );
                    }
                }
            }
            4 => {
                for g in (0..h).step_by(2) {
                    let base = 8 * g;
                    unsafe {
                        let w = _mm512_permutexvar_epi64(ix.w_quad, load(&tw[ri + g..]));
                        let ws = _mm512_permutexvar_epi64(ix.w_quad, load(&tws52[ri + g..]));
                        let blk_a = load(&a[base..]);
                        let blk_b = load(&a[base + 8..]);
                        let u = _mm512_permutex2var_epi64(blk_a, ix.half_lo, blk_b);
                        let v = _mm512_permutex2var_epi64(blk_a, ix.half_hi, blk_b);
                        let s = sub_if_ge(_mm512_add_epi64(u, v), two_p);
                        let d = _mm512_add_epi64(u, _mm512_sub_epi64(two_p, v));
                        let ny = mul_shoup_lazy52_v(d, w, ws, p);
                        store(&mut a[base..], _mm512_permutex2var_epi64(s, ix.half_lo, ny));
                        store(
                            &mut a[base + 8..],
                            _mm512_permutex2var_epi64(s, ix.half_hi, ny),
                        );
                    }
                }
            }
            _ => {
                for g in 0..h {
                    let w = unsafe { splat(tw[ri + g]) };
                    let ws = unsafe { splat(tws52[ri + g]) };
                    let j1 = 2 * t * g;
                    let (lo, hi) = a[j1..j1 + 2 * t].split_at_mut(t);
                    for (cx, cy) in lo.chunks_exact_mut(LANES).zip(hi.chunks_exact_mut(LANES)) {
                        unsafe {
                            let u = load(cx);
                            let v = load(cy);
                            let s = sub_if_ge(_mm512_add_epi64(u, v), two_p);
                            let d = _mm512_add_epi64(u, _mm512_sub_epi64(two_p, v));
                            store(cx, s);
                            store(cy, mul_shoup_lazy52_v(d, w, ws, p));
                        }
                    }
                }
            }
        }
        ri += h;
        t <<= 1;
        m = h;
    }
    // Final scale by N^{-1}, fully reduced: lazy 52-bit product (< 2p)
    // plus one canonical correction — same value as scalar `mul_shoup`.
    let (inv_n, _) = table.inv_n_pair();
    let (wn, wns) = unsafe { (splat(inv_n), splat(table.inv_n_shoup52())) };
    for c in a.chunks_exact_mut(LANES) {
        unsafe {
            let x = load(c);
            store(c, sub_if_ge(mul_shoup_lazy52_v(x, wn, wns, p), p));
        }
    }
}

// --- pointwise kernels ------------------------------------------------

/// IFMA eligibility for the dyadic (full-width) products: the NTT's own
/// `4p < 2^52` gate, so every prime the IFMA butterfly takes also gets
/// the IFMA product.
#[inline]
fn dyadic_ifma_ok(p: u64) -> bool {
    ifma_available() && p < crate::ntt::IFMA_MAX_MODULUS
}

/// Splatted constants for [`mul_mod52_v`]: `p`, `2p`, and the two
/// reduction multipliers `2^52 mod p` and `1` with their 52-bit Shoup
/// companions.
struct Dyadic52 {
    p: __m512i,
    p2: __m512i,
    c52: __m512i,
    c52s: __m512i,
    one: __m512i,
    ones: __m512i,
}

impl Dyadic52 {
    #[inline(always)]
    unsafe fn new(p_val: u64) -> Self {
        let c52_val = ((1u128 << 52) % p_val as u128) as u64;
        unsafe {
            Self {
                p: splat(p_val),
                p2: splat(p_val << 1),
                c52: splat(c52_val),
                c52s: splat(shoup52(c52_val, p_val)),
                one: splat(1),
                ones: splat(shoup52(1, p_val)),
            }
        }
    }
}

/// Canonical `a * b mod p` via 52-bit limbs: split the product as
/// `d1·2^52 + d0` and reduce each half with a lazy Shoup multiply —
/// `d1` by `2^52 mod p`, `d0` by 1 — so each lands in `[0, 2p)`; two
/// conditional subtracts bring the `< 4p` sum to canonical. Requires
/// `a, b < p < 2^50` (both halves are `< 2^52`, the lazy bound).
#[inline(always)]
unsafe fn mul_mod52_v(a: __m512i, b: __m512i, k: &Dyadic52) -> __m512i {
    unsafe {
        let zero = _mm512_setzero_si512();
        let d0 = _mm512_madd52lo_epu64(zero, a, b);
        let d1 = _mm512_madd52hi_epu64(zero, a, b);
        let hi = mul_shoup_lazy52_v(d1, k.c52, k.c52s, k.p);
        let lo = mul_shoup_lazy52_v(d0, k.one, k.ones, k.p);
        sub_if_ge(sub_if_ge(_mm512_add_epi64(hi, lo), k.p2), k.p)
    }
}

/// `a[i] = a[i] * b[i] mod p`, AVX-512 IFMA (see [`dyadic_ifma_ok`]).
///
/// # Safety
/// Caller must guarantee AVX-512 F+DQ+IFMA and `p < 2^50`.
#[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
unsafe fn dyadic_mul_assign_ifma(m: &Modulus, a: &mut [u64], b: &[u64]) {
    let k = unsafe { Dyadic52::new(m.value()) };
    let split = a.len() - a.len() % LANES;
    for (ca, cb) in a[..split]
        .chunks_exact_mut(LANES)
        .zip(b[..split].chunks_exact(LANES))
    {
        unsafe {
            let x = load(ca);
            let y = load(cb);
            store(ca, mul_mod52_v(x, y, &k));
        }
    }
    scalar::dyadic_mul_assign(m, &mut a[split..], &b[split..]);
}

/// `acc[i] = (acc[i] + a[i] * b[i]) mod p`, AVX-512 IFMA.
///
/// # Safety
/// Caller must guarantee AVX-512 F+DQ+IFMA and `p < 2^50`.
#[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
unsafe fn dyadic_mul_acc_ifma(m: &Modulus, acc: &mut [u64], a: &[u64], b: &[u64]) {
    let k = unsafe { Dyadic52::new(m.value()) };
    let split = acc.len() - acc.len() % LANES;
    for ((cr, ca), cb) in acc[..split]
        .chunks_exact_mut(LANES)
        .zip(a[..split].chunks_exact(LANES))
        .zip(b[..split].chunks_exact(LANES))
    {
        unsafe {
            let r = load(cr);
            let x = load(ca);
            let y = load(cb);
            let prod = mul_mod52_v(x, y, &k);
            store(cr, sub_if_ge(_mm512_add_epi64(r, prod), k.p));
        }
    }
    scalar::dyadic_mul_acc(m, &mut acc[split..], &a[split..], &b[split..]);
}

/// `acc[i] = (acc[i] + x[i] * r) mod p`, AVX-512 IFMA: the canonical
/// Shoup product is a lazy 52-bit multiply plus one correction.
///
/// # Safety
/// Caller must guarantee AVX-512 F+DQ+IFMA and `4p < 2^52`.
#[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
unsafe fn fused_mac_shoup_ifma(m: &Modulus, acc: &mut [u64], x: &[u64], r: u64, r_shoup: u64) {
    let p_val = m.value();
    let p = unsafe { splat(p_val) };
    let (w, ws) = unsafe { (splat(r), splat(shoup52(r, p_val))) };
    let split = acc.len() - acc.len() % LANES;
    for (ca, cx) in acc[..split]
        .chunks_exact_mut(LANES)
        .zip(x[..split].chunks_exact(LANES))
    {
        unsafe {
            let a = load(ca);
            let b = load(cx);
            let t = sub_if_ge(mul_shoup_lazy52_v(b, w, ws, p), p);
            store(ca, sub_if_ge(_mm512_add_epi64(a, t), p));
        }
    }
    scalar::fused_mac_shoup(m, &mut acc[split..], &x[split..], r, r_shoup);
}

/// `data[i] = data[i] * s mod p`, AVX-512 IFMA.
///
/// # Safety
/// Caller must guarantee AVX-512 F+DQ+IFMA and `4p < 2^52`.
#[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
unsafe fn mul_scalar_shoup_ifma(m: &Modulus, data: &mut [u64], s: u64, s_shoup: u64) {
    let p_val = m.value();
    let p = unsafe { splat(p_val) };
    let (w, ws) = unsafe { (splat(s), splat(shoup52(s, p_val))) };
    let split = data.len() - data.len() % LANES;
    for c in data[..split].chunks_exact_mut(LANES) {
        unsafe {
            let x = load(c);
            store(c, sub_if_ge(mul_shoup_lazy52_v(x, w, ws, p), p));
        }
    }
    scalar::mul_scalar_shoup(m, &mut data[split..], s, s_shoup);
}

/// `a[i] = a[i] * b[i] mod p`, AVX-512.
///
/// # Safety
/// Caller must guarantee the CPU supports AVX-512F and AVX-512DQ.
#[target_feature(enable = "avx512f,avx512dq")]
pub unsafe fn dyadic_mul_assign(m: &Modulus, a: &mut [u64], b: &[u64]) {
    if dyadic_ifma_ok(m.value()) {
        return unsafe { dyadic_mul_assign_ifma(m, a, b) };
    }
    let (p, cr0, cr1) = unsafe { barrett_consts(m) };
    let split = a.len() - a.len() % LANES;
    for (ca, cb) in a[..split]
        .chunks_exact_mut(LANES)
        .zip(b[..split].chunks_exact(LANES))
    {
        unsafe {
            let x = load(ca);
            let y = load(cb);
            store(ca, barrett_mul_v(x, y, p, cr0, cr1));
        }
    }
    scalar::dyadic_mul_assign(m, &mut a[split..], &b[split..]);
}

/// `acc[i] = (acc[i] + a[i] * b[i]) mod p`, AVX-512.
///
/// # Safety
/// Caller must guarantee the CPU supports AVX-512F and AVX-512DQ.
#[target_feature(enable = "avx512f,avx512dq")]
pub unsafe fn dyadic_mul_acc(m: &Modulus, acc: &mut [u64], a: &[u64], b: &[u64]) {
    if dyadic_ifma_ok(m.value()) {
        return unsafe { dyadic_mul_acc_ifma(m, acc, a, b) };
    }
    let (p, cr0, cr1) = unsafe { barrett_consts(m) };
    let split = acc.len() - acc.len() % LANES;
    for ((cr, ca), cb) in acc[..split]
        .chunks_exact_mut(LANES)
        .zip(a[..split].chunks_exact(LANES))
        .zip(b[..split].chunks_exact(LANES))
    {
        unsafe {
            let r = load(cr);
            let x = load(ca);
            let y = load(cb);
            let prod = barrett_mul_v(x, y, p, cr0, cr1);
            store(cr, sub_if_ge(_mm512_add_epi64(r, prod), p));
        }
    }
    scalar::dyadic_mul_acc(m, &mut acc[split..], &a[split..], &b[split..]);
}

/// `acc[i] = (acc[i] + x[i] * r) mod p` (Shoup-premultiplied), AVX-512.
///
/// # Safety
/// Caller must guarantee the CPU supports AVX-512F and AVX-512DQ.
#[target_feature(enable = "avx512f,avx512dq")]
pub unsafe fn fused_mac_shoup(m: &Modulus, acc: &mut [u64], x: &[u64], r: u64, r_shoup: u64) {
    if ifma_available() && m.value() < crate::ntt::IFMA_MAX_MODULUS {
        return unsafe { fused_mac_shoup_ifma(m, acc, x, r, r_shoup) };
    }
    let p = unsafe { splat(m.value()) };
    let (w, ws) = unsafe { (splat(r), splat(r_shoup)) };
    let split = acc.len() - acc.len() % LANES;
    for (ca, cx) in acc[..split]
        .chunks_exact_mut(LANES)
        .zip(x[..split].chunks_exact(LANES))
    {
        unsafe {
            let a = load(ca);
            let b = load(cx);
            let t = mul_shoup_v(b, w, ws, p);
            store(ca, sub_if_ge(_mm512_add_epi64(a, t), p));
        }
    }
    scalar::fused_mac_shoup(m, &mut acc[split..], &x[split..], r, r_shoup);
}

/// `data[i] = data[i] * s mod p` (Shoup-premultiplied), AVX-512.
///
/// # Safety
/// Caller must guarantee the CPU supports AVX-512F and AVX-512DQ.
#[target_feature(enable = "avx512f,avx512dq")]
pub unsafe fn mul_scalar_shoup(m: &Modulus, data: &mut [u64], s: u64, s_shoup: u64) {
    if ifma_available() && m.value() < crate::ntt::IFMA_MAX_MODULUS {
        return unsafe { mul_scalar_shoup_ifma(m, data, s, s_shoup) };
    }
    let p = unsafe { splat(m.value()) };
    let (w, ws) = unsafe { (splat(s), splat(s_shoup)) };
    let split = data.len() - data.len() % LANES;
    for c in data[..split].chunks_exact_mut(LANES) {
        unsafe {
            let x = load(c);
            store(c, mul_shoup_v(x, w, ws, p));
        }
    }
    scalar::mul_scalar_shoup(m, &mut data[split..], s, s_shoup);
}

/// `acc[i] += c·lift(src[i]) mod p`, AVX-512 IFMA: the lazy 52-bit
/// Shoup product of the raw residue, one correction, then `[src_q·c]_p`
/// taken back off the lanes that stand for `r − src_q`.
///
/// # Safety
/// Caller must guarantee AVX-512 F+DQ+IFMA, `4p < 2^52` and
/// `src_q <= 2^52` (every residue fits a 52-bit multiplier operand).
#[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
unsafe fn centered_mac_shoup_ifma(
    m: &Modulus,
    acc: &mut [u64],
    src: &[u64],
    src_q: u64,
    c: u64,
    c_shoup: u64,
) {
    let p_val = m.value();
    let qc = m.mul(m.reduce(src_q), c);
    let (p, w, ws) = unsafe { (splat(p_val), splat(c), splat(shoup52(c, p_val))) };
    let (half, p_minus_qc) = unsafe { (splat(src_q / 2), splat(p_val - qc)) };
    let split = acc.len() - acc.len() % LANES;
    for (ca, cs) in acc[..split]
        .chunks_exact_mut(LANES)
        .zip(src[..split].chunks_exact(LANES))
    {
        unsafe {
            let r = load(cs);
            let t = sub_if_ge(mul_shoup_lazy52_v(r, w, ws, p), p);
            // t − qc mod p, as (t + p − qc) less p when that stays ≥ 0
            let lowered = sub_if_ge(_mm512_add_epi64(t, p_minus_qc), p);
            let t = _mm512_mask_blend_epi64(_mm512_cmpgt_epu64_mask(r, half), t, lowered);
            store(ca, sub_if_ge(_mm512_add_epi64(load(ca), t), p));
        }
    }
    scalar::centered_mac_shoup(m, &mut acc[split..], &src[split..], src_q, c, c_shoup);
}

/// `acc[i] += c·lift(src[i]) mod p`, AVX-512 (see
/// [`scalar::centered_mac_shoup`]).
///
/// # Safety
/// Caller must guarantee the CPU supports AVX-512F and AVX-512DQ.
#[target_feature(enable = "avx512f,avx512dq")]
pub unsafe fn centered_mac_shoup(
    m: &Modulus,
    acc: &mut [u64],
    src: &[u64],
    src_q: u64,
    c: u64,
    c_shoup: u64,
) {
    if ifma_available() && m.value() < crate::ntt::IFMA_MAX_MODULUS && src_q <= 1 << 52 {
        return unsafe { centered_mac_shoup_ifma(m, acc, src, src_q, c, c_shoup) };
    }
    let p_val = m.value();
    let qc = m.mul(m.reduce(src_q), c);
    let (p, w, ws) = unsafe { (splat(p_val), splat(c), splat(c_shoup)) };
    let (half, p_minus_qc) = unsafe { (splat(src_q / 2), splat(p_val - qc)) };
    let split = acc.len() - acc.len() % LANES;
    for (ca, cs) in acc[..split]
        .chunks_exact_mut(LANES)
        .zip(src[..split].chunks_exact(LANES))
    {
        unsafe {
            let r = load(cs);
            let t = mul_shoup_v(r, w, ws, p);
            let lowered = sub_if_ge(_mm512_add_epi64(t, p_minus_qc), p);
            let t = _mm512_mask_blend_epi64(_mm512_cmpgt_epu64_mask(r, half), t, lowered);
            store(ca, sub_if_ge(_mm512_add_epi64(load(ca), t), p));
        }
    }
    scalar::centered_mac_shoup(m, &mut acc[split..], &src[split..], src_q, c, c_shoup);
}

/// `dst[i] = (dst[i] - src[i]) * s mod p`, AVX-512: modular subtract
/// with borrow correction, then a Shoup multiply.
///
/// # Safety
/// Caller must guarantee the CPU supports AVX-512F and AVX-512DQ.
#[target_feature(enable = "avx512f,avx512dq")]
pub unsafe fn sub_mul_shoup(m: &Modulus, dst: &mut [u64], src: &[u64], s: u64, s_shoup: u64) {
    let p = unsafe { splat(m.value()) };
    let (w, ws) = unsafe { (splat(s), splat(s_shoup)) };
    let split = dst.len() - dst.len() % LANES;
    for (cd, cs) in dst[..split]
        .chunks_exact_mut(LANES)
        .zip(src[..split].chunks_exact(LANES))
    {
        unsafe {
            let x = load(cs);
            let dv = load(cd);
            let borrow = _mm512_cmplt_epu64_mask(dv, x);
            let diff = _mm512_sub_epi64(dv, x);
            let diff = _mm512_mask_blend_epi64(borrow, diff, _mm512_add_epi64(diff, p));
            store(cd, mul_shoup_v(diff, w, ws, p));
        }
    }
    scalar::sub_mul_shoup(m, &mut dst[split..], &src[split..], s, s_shoup);
}

/// Splat the Barrett constants of `m` into vectors.
#[inline(always)]
unsafe fn barrett_consts(m: &Modulus) -> (__m512i, __m512i, __m512i) {
    let [cr0, cr1] = m.const_ratio();
    unsafe { (splat(m.value()), splat(cr0), splat(cr1)) }
}
