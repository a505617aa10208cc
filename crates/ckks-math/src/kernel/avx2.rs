//! AVX2 kernels: 4×u64 lanes per `__m256i`.
//!
//! Bit-identical to [`super::scalar`]: every lane performs exactly the
//! same wrapping u64 arithmetic as the scalar reference, with
//! conditional corrections expressed as compare-masked subtracts.
//! AVX2 has no 64-bit unsigned compare and no 64×64 multiply, so both
//! are emulated:
//!
//! * unsigned compare — flip sign bits and use the signed
//!   `_mm256_cmpgt_epi64`;
//! * `mulhi`/`mullo` — four/three `_mm256_mul_epu32` (32×32→64)
//!   partial products recombined with carry-safe shifts (every
//!   intermediate sum is `< 3·2^32`, so no u64 overflow).
//!
//! NTT stages whose butterfly span `t` is below the 4-lane width are
//! still fully vectorized by gathering x/y operands in-register
//! (`permute2x128` for `t = 2`, `unpacklo/hi_epi64` for `t = 1`) with
//! twiddle vectors permuted to match the gathered lane order.
//!
//! Safety contract for every `pub unsafe fn` here: the caller must have
//! verified `is_x86_feature_detected!("avx2")` (the dispatcher in
//! `kernel` does). No other preconditions: slice bounds are checked by
//! the safe slice ops; raw loads/stores only ever touch
//! `chunks_exact`-derived sub-slices or twiddle indices that stay
//! in-bounds thanks to the `TABLE_PAD` tail padding.

use super::scalar;
use crate::modring::Modulus;
use crate::ntt::NttTable;
use core::arch::x86_64::{
    __m256i, _mm256_add_epi64, _mm256_and_si256, _mm256_andnot_si256, _mm256_blendv_epi8,
    _mm256_castsi128_si256, _mm256_cmpeq_epi64, _mm256_cmpgt_epi64, _mm256_loadu_si256,
    _mm256_mul_epu32, _mm256_permute2x128_si256, _mm256_permute4x64_epi64, _mm256_set1_epi64x,
    _mm256_setzero_si256, _mm256_slli_epi64, _mm256_srli_epi64, _mm256_storeu_si256,
    _mm256_sub_epi64, _mm256_unpackhi_epi64, _mm256_unpacklo_epi64, _mm256_xor_si256,
    _mm_loadu_si128,
};

const LANES: usize = 4;

// --- lane helpers (inlined into the #[target_feature] entry points, so
// --- they compile with AVX2 codegen) ---------------------------------

#[inline(always)]
unsafe fn splat(x: u64) -> __m256i {
    _mm256_set1_epi64x(x as i64)
}

#[inline(always)]
unsafe fn load(src: &[u64]) -> __m256i {
    debug_assert!(src.len() >= LANES);
    unsafe { _mm256_loadu_si256(src.as_ptr().cast()) }
}

#[inline(always)]
unsafe fn store(dst: &mut [u64], v: __m256i) {
    debug_assert!(dst.len() >= LANES);
    unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), v) }
}

/// Signed-compare trick: `a > b` unsigned == `(a ^ 2^63) > (b ^ 2^63)`
/// signed. Returns an all-ones/all-zeros lane mask.
#[inline(always)]
unsafe fn cmpgt_u64(a: __m256i, b: __m256i) -> __m256i {
    unsafe {
        let sign = splat(1u64 << 63);
        _mm256_cmpgt_epi64(_mm256_xor_si256(a, sign), _mm256_xor_si256(b, sign))
    }
}

/// `x - (bound if x >= bound else 0)` — the lazy-reduction conditional
/// subtract. `x >= bound` == NOT `bound > x`, folded into `andnot`.
#[inline(always)]
unsafe fn sub_if_ge(x: __m256i, bound: __m256i) -> __m256i {
    unsafe {
        let lt = cmpgt_u64(bound, x);
        _mm256_sub_epi64(x, _mm256_andnot_si256(lt, bound))
    }
}

/// Low 64 bits of the 64×64 product, lane-wise (wrapping — matches
/// `u64::wrapping_mul`).
#[inline(always)]
unsafe fn mul_lo64(a: __m256i, b: __m256i) -> __m256i {
    unsafe {
        let a_hi = _mm256_srli_epi64::<32>(a);
        let b_hi = _mm256_srli_epi64::<32>(b);
        let ll = _mm256_mul_epu32(a, b);
        let hl = _mm256_mul_epu32(a_hi, b);
        let lh = _mm256_mul_epu32(a, b_hi);
        // low64 = ll + ((hl + lh) << 32); bits above 64 vanish.
        _mm256_add_epi64(ll, _mm256_slli_epi64::<32>(_mm256_add_epi64(hl, lh)))
    }
}

/// High 64 bits of the 64×64 product, lane-wise. Carry-safe: the `mid`
/// sum of three `< 2^32` terms stays well below `2^64`.
#[inline(always)]
unsafe fn mul_hi64(a: __m256i, b: __m256i) -> __m256i {
    unsafe {
        let mask32 = splat(0xFFFF_FFFF);
        let a_hi = _mm256_srli_epi64::<32>(a);
        let b_hi = _mm256_srli_epi64::<32>(b);
        let ll = _mm256_mul_epu32(a, b);
        let hl = _mm256_mul_epu32(a_hi, b);
        let lh = _mm256_mul_epu32(a, b_hi);
        let hh = _mm256_mul_epu32(a_hi, b_hi);
        let mid = _mm256_add_epi64(
            _mm256_add_epi64(_mm256_srli_epi64::<32>(ll), _mm256_and_si256(hl, mask32)),
            _mm256_and_si256(lh, mask32),
        );
        _mm256_add_epi64(
            _mm256_add_epi64(hh, _mm256_srli_epi64::<32>(hl)),
            _mm256_add_epi64(_mm256_srli_epi64::<32>(lh), _mm256_srli_epi64::<32>(mid)),
        )
    }
}

/// Lazy Shoup multiply `a * b mod p` in `[0, 2p)`; requires `a < 2p`.
/// Identical wrapping formula to `Modulus::mul_shoup_lazy`.
#[inline(always)]
unsafe fn mul_shoup_lazy_v(a: __m256i, b: __m256i, b_shoup: __m256i, p: __m256i) -> __m256i {
    unsafe {
        let q = mul_hi64(a, b_shoup);
        _mm256_sub_epi64(mul_lo64(a, b), mul_lo64(q, p))
    }
}

/// Full Shoup multiply: lazy + one canonical correction.
#[inline(always)]
unsafe fn mul_shoup_v(a: __m256i, b: __m256i, b_shoup: __m256i, p: __m256i) -> __m256i {
    unsafe { sub_if_ge(mul_shoup_lazy_v(a, b, b_shoup, p), p) }
}

/// Single-word Barrett reduce, lane-wise twin of `Modulus::reduce`. For
/// `x < p` the estimate `q` is exactly 0 and `r = x`, so computing
/// unconditionally reproduces the scalar early-exit branch bit-for-bit.
#[inline(always)]
unsafe fn barrett_reduce1_v(x: __m256i, p: __m256i, cr1: __m256i) -> __m256i {
    unsafe {
        let q = mul_hi64(x, cr1);
        sub_if_ge(_mm256_sub_epi64(x, mul_lo64(q, p)), p)
    }
}

/// Canonical `a * b mod p`, lane-wise twin of `Modulus::reduce_u128
/// (a·b)`. The two carries of the three-way `word1` sum are recovered
/// from unsigned wrap-compare masks; subtracting an all-ones mask adds 1.
#[inline(always)]
unsafe fn barrett_mul_v(a: __m256i, b: __m256i, p: __m256i, cr0: __m256i, cr1: __m256i) -> __m256i {
    unsafe {
        let x_lo = mul_lo64(a, b);
        let x_hi = mul_hi64(a, b);
        let carry = mul_hi64(x_lo, cr0);
        let p1_lo = mul_lo64(x_lo, cr1);
        let p1_hi = mul_hi64(x_lo, cr1);
        let p2_lo = mul_lo64(x_hi, cr0);
        let p2_hi = mul_hi64(x_hi, cr0);
        let s1 = _mm256_add_epi64(p1_lo, p2_lo);
        let c1 = cmpgt_u64(p1_lo, s1); // s1 wrapped below p1_lo
        let s2 = _mm256_add_epi64(s1, carry);
        let c2 = cmpgt_u64(carry, s2); // s2 wrapped below carry
        let q = _mm256_add_epi64(_mm256_add_epi64(p1_hi, p2_hi), mul_lo64(x_hi, cr1));
        let q = _mm256_sub_epi64(q, _mm256_add_epi64(c1, c2)); // -(-1) per carry
        let r = _mm256_sub_epi64(x_lo, mul_lo64(q, p));
        sub_if_ge(sub_if_ge(r, p), p)
    }
}

// --- NTT --------------------------------------------------------------

/// In-place forward negacyclic NTT, AVX2.
///
/// # Safety
/// Caller must guarantee the CPU supports AVX2.
#[target_feature(enable = "avx2")]
pub unsafe fn ntt_forward(table: &NttTable, a: &mut [u64]) {
    let n = table.n();
    if n < 2 * LANES {
        return scalar::ntt_forward(table, a);
    }
    let modulus = table.modulus();
    let p_val = modulus.value();
    let p = unsafe { splat(p_val) };
    let two_p = unsafe { splat(p_val << 1) };
    let tw = table.root_powers();
    let tws = table.root_powers_shoup();

    let mut t = n;
    let mut m = 1usize;
    while m < n {
        t >>= 1;
        if t >= LANES {
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
                        store(cx, _mm256_add_epi64(u, v));
                        store(cy, _mm256_add_epi64(u, _mm256_sub_epi64(two_p, v)));
                    }
                }
            }
        } else if t == 2 {
            // Blocks are [x0 x1 y0 y1]; gather two blocks per iteration
            // into an x-vector and a y-vector via 128-bit-lane permutes.
            for i in (0..m).step_by(2) {
                let base = 4 * i;
                unsafe {
                    // twiddles [w_i, w_i, w_{i+1}, w_{i+1}]
                    let w2 = _mm256_castsi128_si256(_mm_loadu_si128(tw[m + i..].as_ptr().cast()));
                    let ws2 = _mm256_castsi128_si256(_mm_loadu_si128(tws[m + i..].as_ptr().cast()));
                    let w = _mm256_permute4x64_epi64::<0x50>(w2);
                    let ws = _mm256_permute4x64_epi64::<0x50>(ws2);
                    let blk_a = load(&a[base..]);
                    let blk_b = load(&a[base + 4..]);
                    let x = _mm256_permute2x128_si256::<0x20>(blk_a, blk_b);
                    let y = _mm256_permute2x128_si256::<0x31>(blk_a, blk_b);
                    let u = sub_if_ge(x, two_p);
                    let v = mul_shoup_lazy_v(y, w, ws, p);
                    let nx = _mm256_add_epi64(u, v);
                    let ny = _mm256_add_epi64(u, _mm256_sub_epi64(two_p, v));
                    store(&mut a[base..], _mm256_permute2x128_si256::<0x20>(nx, ny));
                    store(
                        &mut a[base + 4..],
                        _mm256_permute2x128_si256::<0x31>(nx, ny),
                    );
                }
            }
        } else {
            // t == 1: blocks are [x y] pairs; interleave four blocks per
            // iteration with 64-bit unpacks. Gathered lane order is
            // [g, g+2, g+1, g+3], so twiddles get the matching
            // [0,2,1,3] permute.
            for i in (0..m).step_by(4) {
                let base = 2 * i;
                unsafe {
                    let w = _mm256_permute4x64_epi64::<0xD8>(load(&tw[m + i..]));
                    let ws = _mm256_permute4x64_epi64::<0xD8>(load(&tws[m + i..]));
                    let blk_a = load(&a[base..]);
                    let blk_b = load(&a[base + 4..]);
                    let x = _mm256_unpacklo_epi64(blk_a, blk_b);
                    let y = _mm256_unpackhi_epi64(blk_a, blk_b);
                    let u = sub_if_ge(x, two_p);
                    let v = mul_shoup_lazy_v(y, w, ws, p);
                    let nx = _mm256_add_epi64(u, v);
                    let ny = _mm256_add_epi64(u, _mm256_sub_epi64(two_p, v));
                    store(&mut a[base..], _mm256_unpacklo_epi64(nx, ny));
                    store(&mut a[base + 4..], _mm256_unpackhi_epi64(nx, ny));
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

/// In-place inverse negacyclic NTT, AVX2.
///
/// # Safety
/// Caller must guarantee the CPU supports AVX2.
#[target_feature(enable = "avx2")]
pub unsafe fn ntt_inverse(table: &NttTable, a: &mut [u64]) {
    let n = table.n();
    if n < 2 * LANES {
        return scalar::ntt_inverse(table, a);
    }
    let modulus = table.modulus();
    let p_val = modulus.value();
    let p = unsafe { splat(p_val) };
    let two_p = unsafe { splat(p_val << 1) };
    let tw = table.inv_root_powers();
    let tws = table.inv_root_powers_shoup();

    let mut t = 1usize;
    let mut m = n;
    let mut ri = 1usize; // twiddles are consumed contiguously per stage
    while m > 1 {
        let h = m >> 1;
        if t == 1 {
            for g in (0..h).step_by(4) {
                let base = 2 * g;
                unsafe {
                    let w = _mm256_permute4x64_epi64::<0xD8>(load(&tw[ri + g..]));
                    let ws = _mm256_permute4x64_epi64::<0xD8>(load(&tws[ri + g..]));
                    let blk_a = load(&a[base..]);
                    let blk_b = load(&a[base + 4..]);
                    let u = _mm256_unpacklo_epi64(blk_a, blk_b);
                    let v = _mm256_unpackhi_epi64(blk_a, blk_b);
                    let s = sub_if_ge(_mm256_add_epi64(u, v), two_p);
                    let d = _mm256_add_epi64(u, _mm256_sub_epi64(two_p, v));
                    let ny = mul_shoup_lazy_v(d, w, ws, p);
                    store(&mut a[base..], _mm256_unpacklo_epi64(s, ny));
                    store(&mut a[base + 4..], _mm256_unpackhi_epi64(s, ny));
                }
            }
        } else if t == 2 {
            for g in (0..h).step_by(2) {
                let base = 4 * g;
                unsafe {
                    let w2 = _mm256_castsi128_si256(_mm_loadu_si128(tw[ri + g..].as_ptr().cast()));
                    let ws2 =
                        _mm256_castsi128_si256(_mm_loadu_si128(tws[ri + g..].as_ptr().cast()));
                    let w = _mm256_permute4x64_epi64::<0x50>(w2);
                    let ws = _mm256_permute4x64_epi64::<0x50>(ws2);
                    let blk_a = load(&a[base..]);
                    let blk_b = load(&a[base + 4..]);
                    let u = _mm256_permute2x128_si256::<0x20>(blk_a, blk_b);
                    let v = _mm256_permute2x128_si256::<0x31>(blk_a, blk_b);
                    let s = sub_if_ge(_mm256_add_epi64(u, v), two_p);
                    let d = _mm256_add_epi64(u, _mm256_sub_epi64(two_p, v));
                    let ny = mul_shoup_lazy_v(d, w, ws, p);
                    store(&mut a[base..], _mm256_permute2x128_si256::<0x20>(s, ny));
                    store(&mut a[base + 4..], _mm256_permute2x128_si256::<0x31>(s, ny));
                }
            }
        } else {
            for g in 0..h {
                let w = unsafe { splat(tw[ri + g]) };
                let ws = unsafe { splat(tws[ri + g]) };
                let j1 = 2 * t * g;
                let (lo, hi) = a[j1..j1 + 2 * t].split_at_mut(t);
                for (cx, cy) in lo.chunks_exact_mut(LANES).zip(hi.chunks_exact_mut(LANES)) {
                    unsafe {
                        let u = load(cx);
                        let v = load(cy);
                        let s = sub_if_ge(_mm256_add_epi64(u, v), two_p);
                        let d = _mm256_add_epi64(u, _mm256_sub_epi64(two_p, v));
                        store(cx, s);
                        store(cy, mul_shoup_lazy_v(d, w, ws, p));
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

// --- pointwise kernels ------------------------------------------------

/// `a[i] = a[i] * b[i] mod p`, AVX2.
///
/// # Safety
/// Caller must guarantee the CPU supports AVX2.
#[target_feature(enable = "avx2")]
pub unsafe fn dyadic_mul_assign(m: &Modulus, a: &mut [u64], b: &[u64]) {
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

/// `out[i] = a[i] * b[i] mod p`, AVX2.
///
/// # Safety
/// Caller must guarantee the CPU supports AVX2.
#[target_feature(enable = "avx2")]
pub unsafe fn dyadic_mul(m: &Modulus, out: &mut [u64], a: &[u64], b: &[u64]) {
    let (p, cr0, cr1) = unsafe { barrett_consts(m) };
    let split = out.len() - out.len() % LANES;
    for ((co, ca), cb) in out[..split]
        .chunks_exact_mut(LANES)
        .zip(a[..split].chunks_exact(LANES))
        .zip(b[..split].chunks_exact(LANES))
    {
        unsafe {
            let x = load(ca);
            let y = load(cb);
            store(co, barrett_mul_v(x, y, p, cr0, cr1));
        }
    }
    scalar::dyadic_mul(m, &mut out[split..], &a[split..], &b[split..]);
}

/// `acc[i] = (acc[i] + a[i] * b[i]) mod p`, AVX2.
///
/// # Safety
/// Caller must guarantee the CPU supports AVX2.
#[target_feature(enable = "avx2")]
pub unsafe fn dyadic_mul_acc(m: &Modulus, acc: &mut [u64], a: &[u64], b: &[u64]) {
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
            store(cr, sub_if_ge(_mm256_add_epi64(r, prod), p));
        }
    }
    scalar::dyadic_mul_acc(m, &mut acc[split..], &a[split..], &b[split..]);
}

/// `acc[i] = (acc[i] + x[i] * r) mod p` (Shoup-premultiplied), AVX2.
///
/// # Safety
/// Caller must guarantee the CPU supports AVX2.
#[target_feature(enable = "avx2")]
pub unsafe fn fused_mac_shoup(m: &Modulus, acc: &mut [u64], x: &[u64], r: u64, r_shoup: u64) {
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
            store(ca, sub_if_ge(_mm256_add_epi64(a, t), p));
        }
    }
    scalar::fused_mac_shoup(m, &mut acc[split..], &x[split..], r, r_shoup);
}

/// `data[i] = data[i] * s mod p` (Shoup-premultiplied), AVX2.
///
/// # Safety
/// Caller must guarantee the CPU supports AVX2.
#[target_feature(enable = "avx2")]
pub unsafe fn mul_scalar_shoup(m: &Modulus, data: &mut [u64], s: u64, s_shoup: u64) {
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

/// `dst[i] = src[i] mod p`, AVX2.
///
/// # Safety
/// Caller must guarantee the CPU supports AVX2.
#[target_feature(enable = "avx2")]
pub unsafe fn barrett_reduce_slice(m: &Modulus, dst: &mut [u64], src: &[u64]) {
    let (p, _, cr1) = unsafe { barrett_consts(m) };
    let split = dst.len() - dst.len() % LANES;
    for (cd, cs) in dst[..split]
        .chunks_exact_mut(LANES)
        .zip(src[..split].chunks_exact(LANES))
    {
        unsafe {
            let x = load(cs);
            store(cd, barrett_reduce1_v(x, p, cr1));
        }
    }
    scalar::barrett_reduce_slice(m, &mut dst[split..], &src[split..]);
}

/// Centred lift of `src_q`-residues into `p`, AVX2. The branch
/// (`r > src_q/2` → negate the reduced complement) becomes a blend
/// between both arms, each computed with the exact scalar formula.
///
/// # Safety
/// Caller must guarantee the CPU supports AVX2.
#[target_feature(enable = "avx2")]
pub unsafe fn centered_lift(m: &Modulus, dst: &mut [u64], src: &[u64], src_q: u64) {
    let (p, _, cr1) = unsafe { barrett_consts(m) };
    let half = unsafe { splat(src_q / 2) };
    let qv = unsafe { splat(src_q) };
    let zero = _mm256_setzero_si256();
    let split = dst.len() - dst.len() % LANES;
    for (cd, cs) in dst[..split]
        .chunks_exact_mut(LANES)
        .zip(src[..split].chunks_exact(LANES))
    {
        unsafe {
            let r = load(cs);
            let hi_mask = cmpgt_u64(r, half);
            // reduce either r or src_q - r, then negate the latter arm
            let arg = _mm256_blendv_epi8(r, _mm256_sub_epi64(qv, r), hi_mask);
            let red = barrett_reduce1_v(arg, p, cr1);
            let nonzero =
                _mm256_andnot_si256(_mm256_cmpeq_epi64(red, zero), _mm256_sub_epi64(p, red));
            store(cd, _mm256_blendv_epi8(red, nonzero, hi_mask));
        }
    }
    scalar::centered_lift(m, &mut dst[split..], &src[split..], src_q);
}

/// `dst[i] = (dst[i] - src[i]) * s mod p`, AVX2: modular subtract with
/// borrow correction, then a Shoup multiply.
///
/// # Safety
/// Caller must guarantee the CPU supports AVX2.
#[target_feature(enable = "avx2")]
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
            let borrow = cmpgt_u64(x, dv);
            let diff = _mm256_add_epi64(_mm256_sub_epi64(dv, x), _mm256_and_si256(borrow, p));
            store(cd, mul_shoup_v(diff, w, ws, p));
        }
    }
    scalar::sub_mul_shoup(m, &mut dst[split..], &src[split..], s, s_shoup);
}

/// Splat the Barrett constants of `m` into vectors.
#[inline(always)]
unsafe fn barrett_consts(m: &Modulus) -> (__m256i, __m256i, __m256i) {
    let [cr0, cr1] = m.const_ratio();
    unsafe { (splat(m.value()), splat(cr0), splat(cr1)) }
}
