//! AArch64 NEON kernels: 2×u64 lanes per `uint64x2_t`.
//!
//! Bit-identical to [`super::scalar`] by construction: identical
//! wrapping u64 formulas, conditional corrections as compare-masked
//! subtracts. NEON has native unsigned 64-bit compares (`vcgeq_u64`)
//! but no 64×64 multiply, so `mullo`/`mulhi` use the same carry-safe
//! 32-bit partial-product recombination as the x86 backends, built from
//! `vmull_u32` (the narrowing helpers `vmovn_u64`/`vshrn_n_u64` split
//! each lane into 32-bit halves for free).
//!
//! The sub-width NTT stage (`t = 1`, two lanes per block pair) is kept
//! in-register with `vtrn1q/vtrn2q_u64`; `t >= 2` stages vectorize
//! directly.
//!
//! This module is compiled only on `target_arch = "aarch64"`, which the
//! x86-only CI cannot execute; the shared parity suites in
//! `kernel::tests` and `tests/tests/kernel_parity.rs` run over
//! [`super::available_backends`] and therefore cover NEON automatically
//! on ARM hosts.
//!
//! Safety contract for every `pub unsafe fn` here: the caller must have
//! verified NEON support (the dispatcher in `kernel` does; NEON is
//! mandatory on AArch64, so this is effectively always true). Raw
//! loads/stores only touch `chunks_exact`-derived sub-slices or twiddle
//! indices that are in-bounds by construction.

use super::scalar;
use crate::modring::Modulus;
use crate::ntt::NttTable;
use core::arch::aarch64::{
    uint64x2_t, vaddq_u64, vandq_u64, vcgeq_u64, vcgtq_u64, vdupq_n_u64, vld1q_u64, vmovn_u64,
    vmull_u32, vshlq_n_u64, vshrn_n_u64, vshrq_n_u64, vst1q_u64, vsubq_u64, vtrn1q_u64, vtrn2q_u64,
};

const LANES: usize = 2;

// --- lane helpers -----------------------------------------------------

#[inline(always)]
unsafe fn splat(x: u64) -> uint64x2_t {
    unsafe { vdupq_n_u64(x) }
}

#[inline(always)]
unsafe fn load(src: &[u64]) -> uint64x2_t {
    debug_assert!(src.len() >= LANES);
    unsafe { vld1q_u64(src.as_ptr()) }
}

#[inline(always)]
unsafe fn store(dst: &mut [u64], v: uint64x2_t) {
    debug_assert!(dst.len() >= LANES);
    unsafe { vst1q_u64(dst.as_mut_ptr(), v) }
}

/// `x - (bound if x >= bound else 0)` — masked lazy-reduction subtract.
#[inline(always)]
unsafe fn sub_if_ge(x: uint64x2_t, bound: uint64x2_t) -> uint64x2_t {
    unsafe {
        let ge = vcgeq_u64(x, bound);
        vsubq_u64(x, vandq_u64(ge, bound))
    }
}

/// Low 64 bits of the 64×64 product, lane-wise (wrapping).
#[inline(always)]
unsafe fn mul_lo64(a: uint64x2_t, b: uint64x2_t) -> uint64x2_t {
    unsafe {
        let a_lo = vmovn_u64(a);
        let a_hi = vshrn_n_u64::<32>(a);
        let b_lo = vmovn_u64(b);
        let b_hi = vshrn_n_u64::<32>(b);
        let ll = vmull_u32(a_lo, b_lo);
        let hl = vmull_u32(a_hi, b_lo);
        let lh = vmull_u32(a_lo, b_hi);
        vaddq_u64(ll, vshlq_n_u64::<32>(vaddq_u64(hl, lh)))
    }
}

/// High 64 bits of the 64×64 product, lane-wise (carry-safe mid-sum).
#[inline(always)]
unsafe fn mul_hi64(a: uint64x2_t, b: uint64x2_t) -> uint64x2_t {
    unsafe {
        let mask32 = splat(0xFFFF_FFFF);
        let a_lo = vmovn_u64(a);
        let a_hi = vshrn_n_u64::<32>(a);
        let b_lo = vmovn_u64(b);
        let b_hi = vshrn_n_u64::<32>(b);
        let ll = vmull_u32(a_lo, b_lo);
        let hl = vmull_u32(a_hi, b_lo);
        let lh = vmull_u32(a_lo, b_hi);
        let hh = vmull_u32(a_hi, b_hi);
        let mid = vaddq_u64(
            vaddq_u64(vshrq_n_u64::<32>(ll), vandq_u64(hl, mask32)),
            vandq_u64(lh, mask32),
        );
        vaddq_u64(
            vaddq_u64(hh, vshrq_n_u64::<32>(hl)),
            vaddq_u64(vshrq_n_u64::<32>(lh), vshrq_n_u64::<32>(mid)),
        )
    }
}

/// Lazy Shoup multiply in `[0, 2p)` (requires `a < 2p`).
#[inline(always)]
unsafe fn mul_shoup_lazy_v(
    a: uint64x2_t,
    b: uint64x2_t,
    b_shoup: uint64x2_t,
    p: uint64x2_t,
) -> uint64x2_t {
    unsafe {
        let q = mul_hi64(a, b_shoup);
        vsubq_u64(mul_lo64(a, b), mul_lo64(q, p))
    }
}

/// Full Shoup multiply: lazy + one canonical correction.
#[inline(always)]
unsafe fn mul_shoup_v(
    a: uint64x2_t,
    b: uint64x2_t,
    b_shoup: uint64x2_t,
    p: uint64x2_t,
) -> uint64x2_t {
    unsafe { sub_if_ge(mul_shoup_lazy_v(a, b, b_shoup, p), p) }
}

/// Canonical `a * b mod p`, lane-wise twin of `Modulus::reduce_u128
/// (a·b)`; carries recovered from wrap-compare masks (all-ones lanes,
/// so subtracting a mask adds 1).
#[inline(always)]
unsafe fn barrett_mul_v(
    a: uint64x2_t,
    b: uint64x2_t,
    p: uint64x2_t,
    cr0: uint64x2_t,
    cr1: uint64x2_t,
) -> uint64x2_t {
    unsafe {
        let x_lo = mul_lo64(a, b);
        let x_hi = mul_hi64(a, b);
        let carry = mul_hi64(x_lo, cr0);
        let p1_lo = mul_lo64(x_lo, cr1);
        let p1_hi = mul_hi64(x_lo, cr1);
        let p2_lo = mul_lo64(x_hi, cr0);
        let p2_hi = mul_hi64(x_hi, cr0);
        let s1 = vaddq_u64(p1_lo, p2_lo);
        let c1 = vcgtq_u64(p1_lo, s1); // wrapped
        let s2 = vaddq_u64(s1, carry);
        let c2 = vcgtq_u64(carry, s2); // wrapped
        let q = vaddq_u64(vaddq_u64(p1_hi, p2_hi), mul_lo64(x_hi, cr1));
        let q = vsubq_u64(q, vaddq_u64(c1, c2)); // -(-1) per carry
        let r = vsubq_u64(x_lo, mul_lo64(q, p));
        sub_if_ge(sub_if_ge(r, p), p)
    }
}

// --- NTT --------------------------------------------------------------

/// In-place forward negacyclic NTT, NEON.
///
/// # Safety
/// Caller must guarantee the CPU supports NEON.
#[target_feature(enable = "neon")]
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
                        store(cx, vaddq_u64(u, v));
                        store(cy, vaddq_u64(u, vsubq_u64(two_p, v)));
                    }
                }
            }
        } else {
            // t == 1: blocks are [x y] pairs; transpose two adjacent
            // blocks in-register. Gathered lane order == block order, so
            // twiddles load straight from the table.
            for i in (0..m).step_by(2) {
                let base = 2 * i;
                unsafe {
                    let w = load(&tw[m + i..]);
                    let ws = load(&tws[m + i..]);
                    let blk_a = load(&a[base..]);
                    let blk_b = load(&a[base + 2..]);
                    let x = vtrn1q_u64(blk_a, blk_b);
                    let y = vtrn2q_u64(blk_a, blk_b);
                    let u = sub_if_ge(x, two_p);
                    let v = mul_shoup_lazy_v(y, w, ws, p);
                    let nx = vaddq_u64(u, v);
                    let ny = vaddq_u64(u, vsubq_u64(two_p, v));
                    store(&mut a[base..], vtrn1q_u64(nx, ny));
                    store(&mut a[base + 2..], vtrn2q_u64(nx, ny));
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

/// In-place inverse negacyclic NTT, NEON.
///
/// # Safety
/// Caller must guarantee the CPU supports NEON.
#[target_feature(enable = "neon")]
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
    let mut ri = 1usize;
    while m > 1 {
        let h = m >> 1;
        if t == 1 {
            for g in (0..h).step_by(2) {
                let base = 2 * g;
                unsafe {
                    let w = load(&tw[ri + g..]);
                    let ws = load(&tws[ri + g..]);
                    let blk_a = load(&a[base..]);
                    let blk_b = load(&a[base + 2..]);
                    let u = vtrn1q_u64(blk_a, blk_b);
                    let v = vtrn2q_u64(blk_a, blk_b);
                    let s = sub_if_ge(vaddq_u64(u, v), two_p);
                    let d = vaddq_u64(u, vsubq_u64(two_p, v));
                    let ny = mul_shoup_lazy_v(d, w, ws, p);
                    store(&mut a[base..], vtrn1q_u64(s, ny));
                    store(&mut a[base + 2..], vtrn2q_u64(s, ny));
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
                        let s = sub_if_ge(vaddq_u64(u, v), two_p);
                        let d = vaddq_u64(u, vsubq_u64(two_p, v));
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

/// `a[i] = a[i] * b[i] mod p`, NEON.
///
/// # Safety
/// Caller must guarantee the CPU supports NEON.
#[target_feature(enable = "neon")]
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

/// `acc[i] = (acc[i] + a[i] * b[i]) mod p`, NEON.
///
/// # Safety
/// Caller must guarantee the CPU supports NEON.
#[target_feature(enable = "neon")]
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
            store(cr, sub_if_ge(vaddq_u64(r, prod), p));
        }
    }
    scalar::dyadic_mul_acc(m, &mut acc[split..], &a[split..], &b[split..]);
}

/// `acc[i] = (acc[i] + x[i] * r) mod p` (Shoup-premultiplied), NEON.
///
/// # Safety
/// Caller must guarantee the CPU supports NEON.
#[target_feature(enable = "neon")]
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
            store(ca, sub_if_ge(vaddq_u64(a, t), p));
        }
    }
    scalar::fused_mac_shoup(m, &mut acc[split..], &x[split..], r, r_shoup);
}

/// `data[i] = data[i] * s mod p` (Shoup-premultiplied), NEON.
///
/// # Safety
/// Caller must guarantee the CPU supports NEON.
#[target_feature(enable = "neon")]
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

/// `dst[i] = (dst[i] - src[i]) * s mod p`, NEON: modular subtract with
/// borrow correction, then a Shoup multiply.
///
/// # Safety
/// Caller must guarantee the CPU supports NEON.
#[target_feature(enable = "neon")]
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
            let borrow = vcgtq_u64(x, dv);
            let diff = vaddq_u64(vsubq_u64(dv, x), vandq_u64(borrow, p));
            store(cd, mul_shoup_v(diff, w, ws, p));
        }
    }
    scalar::sub_mul_shoup(m, &mut dst[split..], &src[split..], s, s_shoup);
}

/// Splat the Barrett constants of `m` into vectors.
#[inline(always)]
unsafe fn barrett_consts(m: &Modulus) -> (uint64x2_t, uint64x2_t, uint64x2_t) {
    let [cr0, cr1] = m.const_ratio();
    unsafe { (splat(m.value()), splat(cr0), splat(cr1)) }
}
