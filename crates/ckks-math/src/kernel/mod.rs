//! Runtime-dispatched modular-arithmetic kernels (scalar / AVX2 /
//! AVX-512 / NEON).
//!
//! Every hot inner loop of the RNS-CKKS stack — NTT butterflies, dyadic
//! (pointwise) Barrett products, fused Shoup multiply-accumulates, the
//! base-conversion terms that drop limbs (rescale and mod-down alike) —
//! funnels through the free functions in this module. Each op has one
//! **scalar reference implementation** ([`scalar`]) and, per architecture, vectorized twins that are
//! **bit-identical** to it at every kernel entry-point boundary: each
//! public kernel ends in a full canonical reduction to `[0, p)`, and
//! that output matches scalar exactly. Intermediate lazy `[0, 4p)`
//! representatives may differ by multiples of p on the AVX-512 IFMA
//! path (its 52-bit Shoup quotient estimate is not the 64-bit one),
//! which is invisible at the reduction boundary — so ciphertexts
//! produced under any backend are limb-for-limb equal (enforced by the
//! parity suites in this module's tests and
//! `tests/tests/kernel_parity.rs`, and by running the he-diff
//! differential oracle under forced backends).
//!
//! ## Dispatch
//!
//! The active backend is resolved once, lazily, from the
//! `HE_KERNEL_BACKEND` environment variable
//! (`scalar|avx2|avx512|neon|auto`; default `auto`) combined with
//! runtime CPU feature detection, and cached in a relaxed atomic. Tests
//! and benchmarks may re-pin it via [`set_backend`] /
//! [`set_backend_auto`] (process-global — serialize tests that do
//! this). Every op takes its [`KernelBackend`] as an argument (the
//! `*_with` entry points): a caller reads the global once per loop, and
//! the parity suites pass each backend without touching the global.
//!
//! ## Unsafe audit policy
//!
//! The workspace denies `unsafe_code`; the *only* first-party carve-out
//! is the per-architecture submodules below (`avx2`, `avx512`, `neon`),
//! mirroring the vendored-rayon precedent. Rules, checked in review and
//! by the CI Miri job:
//!
//! * intrinsics only — no raw-pointer arithmetic beyond slice-derived
//!   bases with explicitly computed in-bounds offsets;
//! * every `unsafe fn` carries a `# Safety` comment naming its CPU
//!   feature contract; dispatch guarantees it via
//!   [`KernelBackend::is_supported`];
//! * twiddle tables are over-allocated by [`TABLE_PAD`] tail slots so
//!   fixed-width vector loads of twiddles never read past the
//!   allocation (see `NttTable`).

use crate::modring::Modulus;
use crate::ntt::NttTable;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU8, Ordering};

pub mod scalar;

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)] // audited SIMD kernel module (see policy above)
mod avx2;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)] // audited SIMD kernel module (see policy above)
mod avx512;
#[cfg(target_arch = "aarch64")]
#[allow(unsafe_code)] // audited SIMD kernel module (see policy above)
mod neon;

/// Extra zeroed slots appended to every twiddle table so that vector
/// kernels may always issue a full-width (8-lane) unaligned load
/// starting at any valid twiddle index.
pub const TABLE_PAD: usize = 8;

/// A modular-arithmetic kernel implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum KernelBackend {
    /// Portable u64 reference path (also the he-diff parity baseline).
    Scalar = 0,
    /// x86-64 AVX2: 4×u64 lanes, 32×32-bit multiply decomposition.
    Avx2 = 1,
    /// x86-64 AVX-512 F+DQ: 8×u64 lanes, native 64-bit low multiply;
    /// when IFMA is present, 52-bit `vpmadd52` Shoup kernels take over
    /// for every modulus with `4p < 2^52` (all workspace chain primes).
    Avx512 = 2,
    /// AArch64 NEON: 2×u64 lanes.
    Neon = 3,
}

const UNSET: u8 = u8::MAX;

static ACTIVE: AtomicU8 = AtomicU8::new(UNSET);

impl KernelBackend {
    /// Stable lowercase name (matches the `HE_KERNEL_BACKEND` values).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Avx2 => "avx2",
            Self::Avx512 => "avx512",
            Self::Neon => "neon",
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            0 => Self::Scalar,
            1 => Self::Avx2,
            2 => Self::Avx512,
            3 => Self::Neon,
            _ => unreachable!("corrupt kernel backend tag {v}"),
        }
    }

    /// Whether the running CPU can execute this backend.
    #[must_use]
    pub fn is_supported(self) -> bool {
        match self {
            Self::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Self::Avx512 => {
                is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq")
            }
            #[cfg(target_arch = "aarch64")]
            Self::Neon => std::arch::is_aarch64_feature_detected!("neon"),
            #[allow(unreachable_patterns)] // arms above are cfg-gated
            _ => false,
        }
    }
}

/// Best supported backend on this host.
fn detect_auto() -> KernelBackend {
    for b in [
        KernelBackend::Avx512,
        KernelBackend::Avx2,
        KernelBackend::Neon,
    ] {
        if b.is_supported() {
            return b;
        }
    }
    KernelBackend::Scalar
}

/// Resolves `HE_KERNEL_BACKEND` (or auto-detects when unset/`auto`).
/// Panics on an unknown name or a backend the CPU cannot run, so a
/// forced CI leg fails loudly instead of silently falling back.
fn resolve() -> KernelBackend {
    let Ok(requested) = std::env::var("HE_KERNEL_BACKEND") else {
        return detect_auto();
    };
    let b = match requested.to_ascii_lowercase().as_str() {
        "" | "auto" => return detect_auto(),
        "scalar" => KernelBackend::Scalar,
        "avx2" => KernelBackend::Avx2,
        "avx512" => KernelBackend::Avx512,
        "neon" => KernelBackend::Neon,
        other => panic!("HE_KERNEL_BACKEND={other:?}: expected scalar|avx2|avx512|neon|auto"),
    };
    assert!(
        b.is_supported(),
        "HE_KERNEL_BACKEND={} requested but this CPU does not support it",
        b.name()
    );
    b
}

/// The backend all kernel entry points dispatch to. Resolved lazily on
/// first use; one relaxed load afterwards.
#[inline]
pub fn active_backend() -> KernelBackend {
    let v = ACTIVE.load(Ordering::Relaxed);
    if v != UNSET {
        return KernelBackend::from_u8(v);
    }
    let b = resolve();
    ACTIVE.store(b as u8, Ordering::Relaxed);
    b
}

/// Pins the process-global backend (panics if the CPU lacks it).
/// Intended for tests and benchmarks comparing backends in-process;
/// serialize callers — the setting is global.
pub fn set_backend(b: KernelBackend) {
    assert!(
        b.is_supported(),
        "kernel backend {} not supported on this CPU",
        b.name()
    );
    ACTIVE.store(b as u8, Ordering::Relaxed);
}

/// Re-resolves the backend from `HE_KERNEL_BACKEND` / CPU detection
/// (undoes [`set_backend`]).
pub fn set_backend_auto() {
    ACTIVE.store(resolve() as u8, Ordering::Relaxed);
}

/// Every backend the current host can execute ([`KernelBackend::Scalar`]
/// first).
#[must_use]
pub fn available_backends() -> Vec<KernelBackend> {
    [
        KernelBackend::Scalar,
        KernelBackend::Avx2,
        KernelBackend::Avx512,
        KernelBackend::Neon,
    ]
    .into_iter()
    .filter(|b| b.is_supported())
    .collect()
}

// ---------------------------------------------------------------------
// Dispatch entry points
//
// Each op has one entry point, `op_with(backend, ...)`: callers resolve
// `active_backend()` once per loop and pass it down, and the parity
// suites pass each backend in turn. The `_with` forms assert hardware
// support before entering the unsafe vector path. `dyadic_mul_assign`
// alone also keeps an active-backend form, for the request-level
// benchmark.
// ---------------------------------------------------------------------

macro_rules! dispatch {
    ($backend:expr, $scalar:expr, $avx2:expr, $avx512:expr, $neon:expr) => {{
        let b = $backend;
        match b {
            KernelBackend::Scalar => $scalar,
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx2 => {
                assert!(b.is_supported(), "avx2 kernels need an AVX2-capable CPU");
                // SAFETY: AVX2 support just asserted.
                #[allow(unsafe_code)]
                unsafe {
                    $avx2
                }
            }
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx512 => {
                assert!(
                    b.is_supported(),
                    "avx512 kernels need an AVX-512F+DQ-capable CPU"
                );
                // SAFETY: AVX-512F+DQ support just asserted.
                #[allow(unsafe_code)]
                unsafe {
                    $avx512
                }
            }
            #[cfg(target_arch = "aarch64")]
            KernelBackend::Neon => {
                assert!(b.is_supported(), "neon kernels need NEON support");
                // SAFETY: NEON support just asserted. An op without a
                // NEON body passes its (safe) scalar call here.
                #[allow(unsafe_code, unused_unsafe)]
                unsafe {
                    $neon
                }
            }
            #[allow(unreachable_patterns)] // non-native backends fall back
            _ => {
                let _ = &b;
                $scalar
            }
        }
    }};
}

/// In-place forward negacyclic NTT of one limb (no op counting — see
/// [`NttTable::forward`] for the counted public entry).
#[inline]
pub fn ntt_forward_with(backend: KernelBackend, table: &NttTable, a: &mut [u64]) {
    assert_eq!(a.len(), table.n(), "limb length != ring degree");
    dispatch!(
        backend,
        scalar::ntt_forward(table, a),
        avx2::ntt_forward(table, a),
        avx512::ntt_forward(table, a),
        neon::ntt_forward(table, a)
    );
}

/// In-place inverse negacyclic NTT of one limb.
#[inline]
pub fn ntt_inverse_with(backend: KernelBackend, table: &NttTable, a: &mut [u64]) {
    assert_eq!(a.len(), table.n(), "limb length != ring degree");
    dispatch!(
        backend,
        scalar::ntt_inverse(table, a),
        avx2::ntt_inverse(table, a),
        avx512::ntt_inverse(table, a),
        neon::ntt_inverse(table, a)
    );
}

/// Smallest ring degree whose per-limb loops — the batched NTT and the
/// dyadic product / multiply-accumulate — fan limbs out across the rayon
/// pool; [`LIMB_FAN_OUT_MIN_WORK`] bounds the total. Both are judged per
/// call from values the call already has (ring degree `n`, limb count
/// `k`), so small rings never pay for a fan-out.
///
/// Measured on the 2-vCPU dev host (avx512 backend, 36-bit primes): a
/// 2-way limb split against the sequential loop, with the worker still
/// polling ("hot") and after a 200 µs gap that lets it park ("cold").
/// * NTT, cold: `N = 2^10` loses up to `k = 4` (k = 2: 5.3 → 8.3 µs,
///   k = 4: 12.0 → 16.2 µs) and `N = 2^11, k = 2` loses (11.1 → 13.9
///   µs); `N = 2^12, k = 2` gains a little (28.1 → 25.7 µs) and the gain
///   grows with `k·N` (`N = 2^12, k = 8`: 95.3 → 60.8 µs).
/// * Dyadic product, cold: `N = 2^12, k = 2` already gains (49.6 → 32.8
///   µs). A separate, higher bound for this class (`k·N ≥ 2^16`, so no
///   split at `N = 2^12`) was measured end to end against this one: on
///   `cnn1-single.compiled` (N = 2^12, one shard, key-switch-bound),
///   four interleaved rounds gave a median `request_s` of 1.06 s with it
///   and 0.80 s with the shared bound.
///
/// `N = 2^10` rings stay sequential although a hot split can win there:
/// their workloads always have an outer fan-out (layer units, shards)
/// that owns the cores instead.
pub(crate) const LIMB_FAN_OUT_MIN_N: usize = 1 << 12;
/// Smallest `k·N` (limbs × ring degree) a per-limb loop fans out at; see
/// [`LIMB_FAN_OUT_MIN_N`].
pub(crate) const LIMB_FAN_OUT_MIN_WORK: usize = 1 << 13;

/// Whether a per-limb loop over `k` limbs of degree `n` fans out.
pub fn limbs_fan_out(n: usize, k: usize) -> bool {
    n >= LIMB_FAN_OUT_MIN_N && k * n >= LIMB_FAN_OUT_MIN_WORK
}

/// Batched forward NTT: transforms every limb of a limb-major buffer in
/// one call. `data` holds `tables.len()` limbs of length `tables[i].n()`
/// contiguously (limb `i` at `data[i*n..(i+1)*n]`). The backend is
/// resolved once for the whole batch, limbs are tiled across the rayon
/// pool when the batch is big enough (`limbs_fan_out`), and one
/// `ntt_fwd` op is recorded per limb so trace op counts match the
/// per-limb [`NttTable::forward`] entry exactly.
pub fn ntt_forward_batch(tables: &[&NttTable], data: &mut [u64]) {
    ntt_batch_impl(tables, data, true);
}

/// Batched inverse NTT over a limb-major buffer (see
/// [`ntt_forward_batch`]).
pub fn ntt_inverse_batch(tables: &[&NttTable], data: &mut [u64]) {
    ntt_batch_impl(tables, data, false);
}

fn ntt_batch_impl(tables: &[&NttTable], data: &mut [u64], forward: bool) {
    let k = tables.len();
    if k == 0 {
        assert!(data.is_empty());
        return;
    }
    let n = tables[0].n();
    assert!(tables.iter().all(|t| t.n() == n), "mixed ring degrees");
    assert_eq!(data.len(), k * n, "limb-major buffer shape mismatch");
    if forward {
        he_trace::record_ntt_fwd(k as u64);
    } else {
        he_trace::record_ntt_inv(k as u64);
    }
    let backend = active_backend();
    let transform = |(i, limb): (usize, &mut [u64])| {
        if forward {
            ntt_forward_with(backend, tables[i], limb);
        } else {
            ntt_inverse_with(backend, tables[i], limb);
        }
    };
    if limbs_fan_out(n, k) {
        data.par_chunks_mut(n).enumerate().for_each(transform);
    } else {
        data.chunks_mut(n).enumerate().for_each(transform);
    }
}

/// [`dyadic_mul_assign_with`] on the active backend: the one
/// active-backend entry point, kept for the request-level benchmark
/// (`hebench`), which times it.
#[inline]
pub fn dyadic_mul_assign(m: &Modulus, a: &mut [u64], b: &[u64]) {
    dyadic_mul_assign_with(active_backend(), m, a, b);
}

/// `a[i] = a[i] * b[i] mod p` (full Barrett reduction, canonical output).
#[inline]
pub fn dyadic_mul_assign_with(backend: KernelBackend, m: &Modulus, a: &mut [u64], b: &[u64]) {
    assert_eq!(a.len(), b.len());
    dispatch!(
        backend,
        scalar::dyadic_mul_assign(m, a, b),
        avx2::dyadic_mul_assign(m, a, b),
        avx512::dyadic_mul_assign(m, a, b),
        neon::dyadic_mul_assign(m, a, b)
    );
}

/// `acc[i] = (acc[i] + a[i] * b[i]) mod p` — the fused MAC under every
/// key-switch digit accumulation.
#[inline]
pub fn dyadic_mul_acc_with(
    backend: KernelBackend,
    m: &Modulus,
    acc: &mut [u64],
    a: &[u64],
    b: &[u64],
) {
    assert_eq!(acc.len(), a.len());
    assert_eq!(a.len(), b.len());
    dispatch!(
        backend,
        scalar::dyadic_mul_acc(m, acc, a, b),
        avx2::dyadic_mul_acc(m, acc, a, b),
        avx512::dyadic_mul_acc(m, acc, a, b),
        neon::dyadic_mul_acc(m, acc, a, b)
    );
}

/// `acc[i] = (acc[i] + x[i] * r) mod p` with `r_shoup = m.shoup(r)` —
/// the Shoup-premultiplied MAC under `Evaluator::mul_residues_acc`.
#[inline]
pub fn fused_mac_shoup_with(
    backend: KernelBackend,
    m: &Modulus,
    acc: &mut [u64],
    x: &[u64],
    r: u64,
    r_shoup: u64,
) {
    assert_eq!(acc.len(), x.len());
    dispatch!(
        backend,
        scalar::fused_mac_shoup(m, acc, x, r, r_shoup),
        avx2::fused_mac_shoup(m, acc, x, r, r_shoup),
        avx512::fused_mac_shoup(m, acc, x, r, r_shoup),
        neon::fused_mac_shoup(m, acc, x, r, r_shoup)
    );
}

/// `data[i] = data[i] * s mod p` with `s_shoup = m.shoup(s)`.
#[inline]
pub fn mul_scalar_shoup_with(
    backend: KernelBackend,
    m: &Modulus,
    data: &mut [u64],
    s: u64,
    s_shoup: u64,
) {
    dispatch!(
        backend,
        scalar::mul_scalar_shoup(m, data, s, s_shoup),
        avx2::mul_scalar_shoup(m, data, s, s_shoup),
        avx512::mul_scalar_shoup(m, data, s, s_shoup),
        neon::mul_scalar_shoup(m, data, s, s_shoup)
    );
}

/// `acc[i] = (acc[i] + c·lift(src[i])) mod p` with `c_shoup =
/// m.shoup(c)`, where `lift` is the centred lift of a residue mod
/// `src_q` (`src_q < 2^61`): `r` stands for itself up to `src_q/2` and
/// for `r − src_q` above it. One source limb's term of a fast base
/// conversion ([`crate::rns::FastBaseConverter`]); from a zero
/// accumulator with `c = 1` it writes the centred lift itself, the
/// one-prime conversion that drops a limb in a rescale. NEON runs the
/// scalar loop.
#[inline]
pub fn centered_mac_shoup_with(
    backend: KernelBackend,
    m: &Modulus,
    acc: &mut [u64],
    src: &[u64],
    src_q: u64,
    c: u64,
    c_shoup: u64,
) {
    assert_eq!(acc.len(), src.len());
    dispatch!(
        backend,
        scalar::centered_mac_shoup(m, acc, src, src_q, c, c_shoup),
        avx2::centered_mac_shoup(m, acc, src, src_q, c, c_shoup),
        avx512::centered_mac_shoup(m, acc, src, src_q, c, c_shoup),
        scalar::centered_mac_shoup(m, acc, src, src_q, c, c_shoup)
    );
}

/// `dst[i] = (dst[i] - src[i]) * s mod p` with `s_shoup = m.shoup(s)` —
/// the second half of dropping a limb: subtract the lifted residue and
/// divide by its modulus. Both operands canonical mod `p`.
#[inline]
pub fn sub_mul_shoup_with(
    backend: KernelBackend,
    m: &Modulus,
    dst: &mut [u64],
    src: &[u64],
    s: u64,
    s_shoup: u64,
) {
    assert_eq!(dst.len(), src.len());
    dispatch!(
        backend,
        scalar::sub_mul_shoup(m, dst, src, s, s_shoup),
        avx2::sub_mul_shoup(m, dst, src, s, s_shoup),
        avx512::sub_mul_shoup(m, dst, src, s, s_shoup),
        neon::sub_mul_shoup(m, dst, src, s, s_shoup)
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::gen_ntt_primes_excluding;
    use rand::{Rng, SeedableRng};

    fn moduli_for(n: usize) -> Vec<Modulus> {
        // Span the admissible range: primes inside the AVX-512 IFMA
        // window (30/45-bit, and 50-bit just under its 2^50 edge), and
        // primes above it up to the 2^61 lazy-reduction bound (generic
        // vector path only).
        let bits: &[u32] = if cfg!(miri) {
            &[30, 50, 61] // keep the interpreted matrix small
        } else {
            &[30, 45, 50, 55, 61]
        };
        bits.iter()
            .map(|&bits| Modulus::new(gen_ntt_primes_excluding(bits, n, 1, &[])[0]))
            .collect()
    }

    fn rand_limb(rng: &mut rand::rngs::StdRng, n: usize, p: u64) -> Vec<u64> {
        (0..n).map(|_| rng.gen_range(0..p)).collect()
    }

    #[test]
    fn backend_names_round_trip() {
        for b in [
            KernelBackend::Scalar,
            KernelBackend::Avx2,
            KernelBackend::Avx512,
            KernelBackend::Neon,
        ] {
            assert_eq!(KernelBackend::from_u8(b as u8), b);
            assert!(!b.name().is_empty());
        }
        assert!(KernelBackend::Scalar.is_supported());
        assert_eq!(available_backends()[0], KernelBackend::Scalar);
    }

    #[test]
    fn ntt_parity_across_backends_and_degrees() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        // Miri interprets every lane op; small rings keep it tractable.
        let degrees: &[u32] = if cfg!(miri) {
            &[4, 5, 6]
        } else {
            &[4, 5, 6, 8, 10]
        };
        for &log_n in degrees {
            let n = 1usize << log_n;
            for m in moduli_for(n) {
                let table = NttTable::new(n, m);
                let base = rand_limb(&mut rng, n, m.value());
                let mut reference = base.clone();
                scalar::ntt_forward(&table, &mut reference);
                for b in available_backends() {
                    let mut got = base.clone();
                    ntt_forward_with(b, &table, &mut got);
                    assert_eq!(got, reference, "forward {} n={n} p={}", b.name(), m.value());
                    ntt_inverse_with(b, &table, &mut got);
                    assert_eq!(got, base, "roundtrip {} n={n} p={}", b.name(), m.value());
                }
            }
        }
    }

    #[test]
    fn pointwise_parity_across_backends() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let n = if cfg!(miri) { 1 << 6 } else { 1 << 9 };
        for m in moduli_for(n) {
            let p = m.value();
            let a = rand_limb(&mut rng, n, p);
            let b = rand_limb(&mut rng, n, p);
            let acc0 = rand_limb(&mut rng, n, p);
            let s = rng.gen_range(0..p);
            let ss = m.shoup(s);

            let mut mul_ref = a.clone();
            scalar::dyadic_mul_assign(&m, &mut mul_ref, &b);
            let mut acc_ref = acc0.clone();
            scalar::dyadic_mul_acc(&m, &mut acc_ref, &a, &b);
            let mut mac_ref = acc0.clone();
            scalar::fused_mac_shoup(&m, &mut mac_ref, &a, s, ss);
            let mut scl_ref = a.clone();
            scalar::mul_scalar_shoup(&m, &mut scl_ref, s, ss);

            for be in available_backends() {
                let mut got = a.clone();
                dyadic_mul_assign_with(be, &m, &mut got, &b);
                assert_eq!(got, mul_ref, "dyadic_mul_assign {} p={p}", be.name());

                let mut got = acc0.clone();
                dyadic_mul_acc_with(be, &m, &mut got, &a, &b);
                assert_eq!(got, acc_ref, "dyadic_mul_acc {} p={p}", be.name());

                let mut got = acc0.clone();
                fused_mac_shoup_with(be, &m, &mut got, &a, s, ss);
                assert_eq!(got, mac_ref, "fused_mac_shoup {} p={p}", be.name());

                let mut got = a.clone();
                mul_scalar_shoup_with(be, &m, &mut got, s, ss);
                assert_eq!(got, scl_ref, "mul_scalar_shoup {} p={p}", be.name());
            }
        }
    }

    /// The centred lift of `src` (residues mod `src_q`) into `m`: `r`
    /// for `r ≤ src_q/2`, `r − src_q` above it.
    fn centered_lift_reference(m: &Modulus, src: &[u64], src_q: u64) -> Vec<u64> {
        src.iter()
            .map(|&r| {
                if r > src_q / 2 {
                    m.neg(m.reduce(src_q - r))
                } else {
                    m.reduce(r)
                }
            })
            .collect()
    }

    /// Source moduli for the base-conversion term: larger and smaller
    /// than every target, so the raw residue is both below and far above
    /// `p`. 52 bits is the IFMA path's widest source, 61 the generic one's.
    fn lift_source_bits() -> &'static [u32] {
        if cfg!(miri) {
            &[61, 20]
        } else {
            &[61, 52, 40, 20]
        }
    }

    /// `src` mod a fresh `src_bits`-bit prime other than `p`, with the
    /// centring boundary forced: exactly half, half + 1, 0 and q − 1.
    fn lift_source(
        rng: &mut rand::rngs::StdRng,
        n: usize,
        src_bits: u32,
        p: u64,
    ) -> (Vec<u64>, u64) {
        let src_q = gen_ntt_primes_excluding(src_bits, n, 2, &[p])[1];
        let half = src_q / 2;
        let mut src = rand_limb(rng, n, src_q);
        (src[0], src[1], src[2], src[3]) = (half, half + 1, 0, src_q - 1);
        (src, src_q)
    }

    /// The one-prime conversion that drops a limb in a rescale — the
    /// base-conversion term from a zero accumulator with `c = 1` — is
    /// the centred lift on every backend, at the centring boundary, from
    /// a larger and a smaller modulus (rescale lifts a 26-bit top prime
    /// into a 40-bit q_0, mod-down 40-bit special primes into 26-bit
    /// limbs).
    #[test]
    fn centered_lift_parity_hits_boundaries() {
        let n = if cfg!(miri) { 1 << 5 } else { 1 << 8 };
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for m in moduli_for(n) {
            let p = m.value();
            for &src_bits in lift_source_bits() {
                let (src, src_q) = lift_source(&mut rng, n, src_bits, p);
                let lift = centered_lift_reference(&m, &src, src_q);
                // the lift of q-1 is -1, of 0 is 0
                assert_eq!((lift[2], lift[3]), (0, p - 1));
                for be in available_backends() {
                    let mut got = vec![0u64; n];
                    centered_mac_shoup_with(be, &m, &mut got, &src, src_q, 1, m.shoup(1));
                    assert_eq!(got, lift, "centred lift {} q={src_q}", be.name());
                }
            }
        }
    }

    /// The base-conversion term: every backend matches scalar, and
    /// scalar matches the centred lift followed by a fused MAC, for
    /// residues from a larger and a smaller modulus, at the centring
    /// boundary.
    #[test]
    fn centered_mac_shoup_parity_hits_boundaries() {
        let n = if cfg!(miri) { 1 << 5 } else { 1 << 8 };
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        for m in moduli_for(n) {
            let p = m.value();
            for &src_bits in lift_source_bits() {
                let (src, src_q) = lift_source(&mut rng, n, src_bits, p);
                let acc0 = rand_limb(&mut rng, n, p);
                let lift = centered_lift_reference(&m, &src, src_q);
                for c in [1, p - 1, rng.gen_range(1..p)] {
                    let cs = m.shoup(c);
                    let mut reference = acc0.clone();
                    scalar::centered_mac_shoup(&m, &mut reference, &src, src_q, c, cs);
                    let mut want = acc0.clone();
                    scalar::fused_mac_shoup(&m, &mut want, &lift, c, cs);
                    assert_eq!(reference, want, "scalar vs lift-then-MAC p={p} q={src_q}");
                    for be in available_backends() {
                        let mut got = acc0.clone();
                        centered_mac_shoup_with(be, &m, &mut got, &src, src_q, c, cs);
                        assert_eq!(got, reference, "centered_mac_shoup {} q={src_q}", be.name());
                    }
                }
            }
        }
    }

    #[test]
    fn sub_mul_shoup_parity_hits_borrow_and_edges() {
        let n = if cfg!(miri) { 1 << 5 } else { 1 << 8 };
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        for m in moduli_for(n) {
            let p = m.value();
            let mut dst0 = rand_limb(&mut rng, n, p);
            let mut src = rand_limb(&mut rng, n, p);
            // equal operands, a borrow at both extremes, and no borrow
            (dst0[0], src[0]) = (5, 5);
            (dst0[1], src[1]) = (0, p - 1);
            (dst0[2], src[2]) = (p - 1, 0);
            (dst0[3], src[3]) = (0, 1);
            for s in [1, p - 1, m.reduce(rng.gen_range(1..p))] {
                let ss = m.shoup(s);
                let mut reference = dst0.clone();
                scalar::sub_mul_shoup(&m, &mut reference, &src, s, ss);
                assert_eq!(reference[0], 0);
                assert_eq!(reference[3], m.mul(p - 1, s));
                for be in available_backends() {
                    let mut got = dst0.clone();
                    sub_mul_shoup_with(be, &m, &mut got, &src, s, ss);
                    assert_eq!(got, reference, "sub_mul_shoup {} p={p} s={s}", be.name());
                }
            }
        }
    }

    /// Rough per-backend throughput probe (not a correctness test):
    /// `cargo test -p ckks-math --release timing_probe -- --ignored --nocapture`
    #[test]
    #[ignore = "timing probe, run manually in release"]
    fn timing_probe() {
        let n = 1 << 12;
        // CNN1's chain and special primes are 26/40-bit
        for bits in [26, 40, 50] {
            let m = Modulus::new(gen_ntt_primes_excluding(bits, n, 1, &[])[0]);
            eprintln!("{bits}-bit p = {}", m.value());
            timing_probe_modulus(n, m);
        }
    }

    fn timing_probe_modulus(n: usize, m: Modulus) {
        use std::time::Instant;
        let table = NttTable::new(n, m);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let data = rand_limb(&mut rng, n, m.value());
        let b_op = rand_limb(&mut rng, n, m.value());
        const ITERS: usize = 2000;
        for be in available_backends() {
            let mut d = data.clone();
            let t0 = Instant::now();
            for _ in 0..ITERS {
                ntt_forward_with(be, &table, &mut d);
                ntt_inverse_with(be, &table, &mut d);
            }
            let ntt_us = t0.elapsed().as_secs_f64() * 1e6 / (2 * ITERS) as f64;
            let mut a = data.clone();
            let t0 = Instant::now();
            for _ in 0..ITERS {
                dyadic_mul_assign_with(be, &m, &mut a, &b_op);
            }
            let mul_us = t0.elapsed().as_secs_f64() * 1e6 / ITERS as f64;
            let mut acc = data.clone();
            let t0 = Instant::now();
            for _ in 0..ITERS {
                dyadic_mul_acc_with(be, &m, &mut acc, &a, &b_op);
            }
            let dmac_us = t0.elapsed().as_secs_f64() * 1e6 / ITERS as f64;
            let r = m.reduce(12345);
            let rs = m.shoup(r);
            let t0 = Instant::now();
            for _ in 0..ITERS {
                fused_mac_shoup_with(be, &m, &mut acc, &b_op, r, rs);
            }
            let mac_us = t0.elapsed().as_secs_f64() * 1e6 / ITERS as f64;
            eprintln!(
                "{:>6}: ntt {ntt_us:7.2} us  dyadic_mul {mul_us:7.2} us  dyadic_mac {dmac_us:7.2} us  \
                 fused_mac {mac_us:7.2} us  (n=2^12)",
                be.name()
            );
        }
    }

    #[test]
    fn odd_lengths_hit_vector_tails() {
        // Slice lengths that are not lane multiples exercise the scalar
        // tail of every vector kernel.
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let m = Modulus::new(gen_ntt_primes_excluding(50, 64, 1, &[])[0]);
        let p = m.value();
        for len in [1usize, 3, 7, 9, 15, 17, 31, 33] {
            let a: Vec<u64> = (0..len).map(|_| rng.gen_range(0..p)).collect();
            let b: Vec<u64> = (0..len).map(|_| rng.gen_range(0..p)).collect();
            let mut reference = a.clone();
            scalar::dyadic_mul_assign(&m, &mut reference, &b);
            for be in available_backends() {
                let mut got = a.clone();
                dyadic_mul_assign_with(be, &m, &mut got, &b);
                assert_eq!(got, reference, "len={len} {}", be.name());
            }
        }
    }
}
