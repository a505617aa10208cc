//! Portable scalar reference kernels.
//!
//! These are the loop bodies the vector backends must reproduce
//! **bit-identically**; they are also the `he-diff` parity baseline and
//! the only path on hosts without SIMD. Keep them boring: any change
//! here changes the definition of "correct" for every other backend.

use crate::modring::Modulus;
use crate::ntt::NttTable;

/// In-place forward negacyclic NTT (Cooley–Tukey, bit-reversed output).
/// Harvey butterflies with lazy `[0, 4p)` intermediates; final pass
/// reduces to `[0, p)`.
pub fn ntt_forward(table: &NttTable, a: &mut [u64]) {
    let modulus = table.modulus();
    let p = modulus.value();
    let two_p = p << 1;
    let n = table.n();
    let root_powers = table.root_powers();
    let root_powers_shoup = table.root_powers_shoup();

    let mut t = n;
    let mut m = 1usize;
    while m < n {
        t >>= 1;
        for i in 0..m {
            let w = root_powers[m + i];
            let ws = root_powers_shoup[m + i];
            let j1 = 2 * i * t;
            let (lo, hi) = a[j1..j1 + 2 * t].split_at_mut(t);
            for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                // Harvey butterfly: x, y < 4p on input of later stages;
                // normalize x into [0, 2p) first.
                let mut u = *x;
                if u >= two_p {
                    u -= two_p;
                }
                let v = modulus.mul_shoup_lazy(*y, w, ws); // < 2p
                *x = u + v; // < 4p
                *y = u + two_p - v; // < 4p
            }
        }
        m <<= 1;
    }
    for v in a.iter_mut() {
        let mut x = *v;
        if x >= two_p {
            x -= two_p;
        }
        if x >= p {
            x -= p;
        }
        *v = x;
    }
}

/// In-place inverse negacyclic NTT (Gentleman–Sande, bit-reversed
/// input), with `N^{-1}` folded into a final Shoup pass.
pub fn ntt_inverse(table: &NttTable, a: &mut [u64]) {
    let modulus = table.modulus();
    let p = modulus.value();
    let two_p = p << 1;
    let n = table.n();
    let inv_root_powers = table.inv_root_powers();
    let inv_root_powers_shoup = table.inv_root_powers_shoup();

    let mut t = 1usize;
    let mut m = n;
    let mut root_index = 1usize;
    while m > 1 {
        let h = m >> 1;
        let mut j1 = 0usize;
        for _ in 0..h {
            let w = inv_root_powers[root_index];
            let ws = inv_root_powers_shoup[root_index];
            root_index += 1;
            let (lo, hi) = a[j1..j1 + 2 * t].split_at_mut(t);
            for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                let u = *x;
                let v = *y;
                let mut s = u + v; // < 4p
                if s >= two_p {
                    s -= two_p;
                }
                *x = s;
                // (u - v) * w
                let d = u + two_p - v;
                *y = modulus.mul_shoup_lazy(d, w, ws);
            }
            j1 += 2 * t;
        }
        t <<= 1;
        m = h;
    }
    // Final scale by N^{-1} with full reduction.
    let (inv_n, inv_n_shoup) = table.inv_n_pair();
    for v in a.iter_mut() {
        *v = modulus.mul_shoup(*v, inv_n, inv_n_shoup);
    }
}

/// `a[i] = a[i] * b[i] mod p` (full Barrett).
pub fn dyadic_mul_assign(m: &Modulus, a: &mut [u64], b: &[u64]) {
    for (x, &y) in a.iter_mut().zip(b) {
        *x = m.mul(*x, y);
    }
}

/// `acc[i] = (acc[i] + a[i] * b[i]) mod p`.
pub fn dyadic_mul_acc(m: &Modulus, acc: &mut [u64], a: &[u64], b: &[u64]) {
    for ((r, &x), &y) in acc.iter_mut().zip(a).zip(b) {
        let prod = m.mul(x, y);
        *r = m.add(*r, prod);
    }
}

/// `acc[i] = (acc[i] + x[i] * r) mod p`, `r_shoup = m.shoup(r)`.
pub fn fused_mac_shoup(m: &Modulus, acc: &mut [u64], x: &[u64], r: u64, r_shoup: u64) {
    for (a, &b) in acc.iter_mut().zip(x) {
        let t = m.mul_shoup(b, r, r_shoup);
        *a = m.add(*a, t);
    }
}

/// `data[i] = data[i] * s mod p`, `s_shoup = m.shoup(s)`.
pub fn mul_scalar_shoup(m: &Modulus, data: &mut [u64], s: u64, s_shoup: u64) {
    for v in data.iter_mut() {
        *v = m.mul_shoup(*v, s, s_shoup);
    }
}

/// `acc[i] = (acc[i] + c·lift(src[i])) mod p`, `c_shoup = m.shoup(c)`,
/// where `lift` is the centred lift: `r` stands for `r − src_q`
/// above `src_q/2`, so those lanes subtract `[src_q·c]_p`. The Shoup
/// product is exact for any 64-bit `r`, so `r` need not be below `p`.
pub fn centered_mac_shoup(
    m: &Modulus,
    acc: &mut [u64],
    src: &[u64],
    src_q: u64,
    c: u64,
    c_shoup: u64,
) {
    let half = src_q / 2;
    let qc = m.mul(m.reduce(src_q), c);
    for (a, &r) in acc.iter_mut().zip(src) {
        let t = m.mul_shoup(r, c, c_shoup);
        let t = if r > half { m.sub(t, qc) } else { t };
        *a = m.add(*a, t);
    }
}

/// `dst[i] = (dst[i] - src[i]) * s mod p`, `s_shoup = m.shoup(s)`.
pub fn sub_mul_shoup(m: &Modulus, dst: &mut [u64], src: &[u64], s: u64, s_shoup: u64) {
    for (dv, &x) in dst.iter_mut().zip(src) {
        *dv = m.mul_shoup(m.sub(*dv, x), s, s_shoup);
    }
}
