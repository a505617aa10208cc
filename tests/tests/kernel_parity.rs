//! Cross-backend bit-parity for the SIMD kernel layer, and exactness of
//! the NTT-domain key switching built on it.
//!
//! Every vectorized kernel backend must produce **bit-identical**
//! outputs to the scalar reference for every workspace modulus size
//! (26..61-bit NTT primes, including primes near the 2^61 modulus cap
//! that fall outside the AVX-512 IFMA fast path) and every ring degree
//! the paper's parameter sets use. The kernel suites drive the pure
//! `*_with` dispatch variants, so they never touch the process-global
//! backend. The evaluator suites at the bottom — the he-diff smoke, the
//! coefficient-domain reference and the exact transform counts — pin the
//! global backend or read the global op counters, so they are
//! serialized through a mutex.

use ckks::{
    Ciphertext, CkksContext, CkksParams, Evaluator, GaloisKeys, KeyGenerator, KeySwitchKey,
    PublicKey, RelinKey,
};
use ckks_math::kernel::{self, KernelBackend};
use ckks_math::modring::Modulus;
use ckks_math::ntt::{galois_permutation, NttTable};
use ckks_math::poly::{Form, PolyContext, RnsPoly};
use ckks_math::prime::{
    gen_moduli_chain, gen_ntt_primes_excluding, is_prime, try_gen_ntt_primes_excluding,
};
use ckks_math::sampler::Sampler;
use he_trace::OpSnapshot;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Bit widths covering every modulus class the workspace generates:
/// small chain primes, the 40/45/50-bit mid-range, and primes near the
/// 2^61 `MAX_MODULUS_BITS` cap (generic vector path only).
const BITS: [u32; 6] = [26, 30, 40, 45, 50, 61];

fn vector_backends() -> Vec<KernelBackend> {
    kernel::available_backends()
        .into_iter()
        .filter(|&b| b != KernelBackend::Scalar)
        .collect()
}

fn prime_for(bits: u32, n: usize) -> u64 {
    gen_ntt_primes_excluding(bits, n.max(16), 1, &[])[0]
}

fn rand_residues(rng: &mut impl Rng, len: usize, bound: u64) -> Vec<u64> {
    (0..len).map(|_| rng.gen_range(0..bound)).collect()
}

fn assert_ntt_parity(bits: u32, log_n: u32, seed: u64) {
    let n = 1usize << log_n;
    let p = prime_for(bits, n);
    let table = NttTable::new(n, Modulus::new(p));
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let coeffs = rand_residues(&mut rng, n, p);

    let mut reference = coeffs.clone();
    kernel::ntt_forward_with(KernelBackend::Scalar, &table, &mut reference);
    for be in vector_backends() {
        let mut got = coeffs.clone();
        kernel::ntt_forward_with(be, &table, &mut got);
        assert_eq!(
            got, reference,
            "forward {be:?} vs scalar, {bits}-bit n=2^{log_n}"
        );
    }

    // Inverse parity from the (bit-reversed) forward output, plus the
    // roundtrip identity as an absolute anchor.
    let mut inv_ref = reference.clone();
    kernel::ntt_inverse_with(KernelBackend::Scalar, &table, &mut inv_ref);
    assert_eq!(inv_ref, coeffs, "scalar roundtrip, {bits}-bit n=2^{log_n}");
    for be in vector_backends() {
        let mut got = reference.clone();
        kernel::ntt_inverse_with(be, &table, &mut got);
        assert_eq!(
            got, inv_ref,
            "inverse {be:?} vs scalar, {bits}-bit n=2^{log_n}"
        );
    }
}

#[test]
fn ntt_parity_across_moduli_and_degrees() {
    for &bits in &BITS {
        for log_n in [4u32, 6, 8, 12] {
            assert_ntt_parity(bits, log_n, u64::from(bits * 100 + log_n));
        }
    }
}

#[test]
fn ntt_parity_large_ring() {
    // The paper's production degree tier; one pass per modulus class.
    for &bits in &[26u32, 50, 61] {
        assert_ntt_parity(bits, 14, u64::from(bits));
    }
}

/// Pointwise kernels: dyadic (Barrett) products, fused Shoup MAC,
/// scalar Shoup multiply, and the subtract-and-multiply that ends
/// dropping a limb. Odd lengths exercise the vector tail handling.
#[test]
fn pointwise_parity_across_moduli() {
    for &bits in &BITS {
        for len in [8usize, 37, 256, 1000, 4096] {
            let p = prime_for(bits, 16);
            let m = Modulus::new(p);
            let mut rng = rand::rngs::StdRng::seed_from_u64(u64::from(bits) * 7 + len as u64);
            let a = rand_residues(&mut rng, len, p);
            let b = rand_residues(&mut rng, len, p);
            let acc = rand_residues(&mut rng, len, p);
            let r = rng.gen_range(1..p);
            let rs = m.shoup(r);

            let scalar = KernelBackend::Scalar;
            let mut d_assign = a.clone();
            kernel::dyadic_mul_assign_with(scalar, &m, &mut d_assign, &b);
            let mut d_acc = acc.clone();
            kernel::dyadic_mul_acc_with(scalar, &m, &mut d_acc, &a, &b);
            let mut mac = acc.clone();
            kernel::fused_mac_shoup_with(scalar, &m, &mut mac, &a, r, rs);
            let mut scl = a.clone();
            kernel::mul_scalar_shoup_with(scalar, &m, &mut scl, r, rs);
            let mut sub_mul = acc.clone();
            kernel::sub_mul_shoup_with(scalar, &m, &mut sub_mul, &a, r, rs);

            for be in vector_backends() {
                let ctx = format!("{be:?}, {bits}-bit, len {len}");
                let mut got = a.clone();
                kernel::dyadic_mul_assign_with(be, &m, &mut got, &b);
                assert_eq!(got, d_assign, "dyadic_mul_assign {ctx}");
                let mut got = acc.clone();
                kernel::dyadic_mul_acc_with(be, &m, &mut got, &a, &b);
                assert_eq!(got, d_acc, "dyadic_mul_acc {ctx}");
                let mut got = acc.clone();
                kernel::fused_mac_shoup_with(be, &m, &mut got, &a, r, rs);
                assert_eq!(got, mac, "fused_mac_shoup {ctx}");
                let mut got = a.clone();
                kernel::mul_scalar_shoup_with(be, &m, &mut got, r, rs);
                assert_eq!(got, scl, "mul_scalar_shoup {ctx}");
                let mut got = acc.clone();
                kernel::sub_mul_shoup_with(be, &m, &mut got, &a, r, rs);
                assert_eq!(got, sub_mul, "sub_mul_shoup {ctx}");
            }
        }
    }
}

/// Dyadic products across the AVX-512 IFMA window `p < 2^50`: the
/// smallest prime size the NTT accepts at N = 16, the workspace's 26-
/// and 40-bit sizes, 49 bits, the largest prime below 2^50 (last inside
/// the window) and the smallest above it (first on the 64-bit path).
/// Each backend must match scalar, and scalar must match `u128`
/// arithmetic, on random operands and on the extremes 0, 1, p − 1.
#[test]
fn dyadic_parity_at_ifma_boundary_primes() {
    let smallest = (2..)
        .find_map(|bits| try_gen_ntt_primes_excluding(bits, 16, 1, &[]).ok())
        .expect("some size fits")[0];
    let below = (1..)
        .map(|i| (1u64 << 50) - i)
        .find(|&p| is_prime(p))
        .unwrap();
    let above = ((1u64 << 50) + 1..).find(|&p| is_prime(p)).unwrap();
    let primes = [
        smallest,
        prime_for(26, 16),
        prime_for(40, 16),
        prime_for(49, 16),
        below,
        above,
    ];
    assert_eq!((smallest, below.ilog2(), above.ilog2()), (97, 49, 50));
    for p in primes {
        let m = Modulus::new(p);
        let mut rng = rand::rngs::StdRng::seed_from_u64(p);
        let len = 4096 + 5; // a full CNN1 limb plus a vector tail
        let mut a = rand_residues(&mut rng, len, p);
        let mut b = rand_residues(&mut rng, len, p);
        for (i, (x, y)) in [(p - 1, p - 1), (p - 1, 1), (0, p - 1), (1, 1)]
            .into_iter()
            .enumerate()
        {
            (a[i], b[i]) = (x, y);
            (a[len - 1 - i], b[len - 1 - i]) = (x, y);
        }
        let acc = rand_residues(&mut rng, len, p);
        let exact = |x: u64, y: u64| (u128::from(x) * u128::from(y) % u128::from(p)) as u64;

        let mut prod = a.clone();
        kernel::dyadic_mul_assign_with(KernelBackend::Scalar, &m, &mut prod, &b);
        assert!(prod
            .iter()
            .zip(a.iter().zip(&b))
            .all(|(&r, (&x, &y))| r == exact(x, y)));
        let mut mac = acc.clone();
        kernel::dyadic_mul_acc_with(KernelBackend::Scalar, &m, &mut mac, &a, &b);
        for be in kernel::available_backends() {
            let mut got = a.clone();
            kernel::dyadic_mul_assign_with(be, &m, &mut got, &b);
            assert_eq!(got, prod, "dyadic_mul_assign {be:?} p={p}");
            let mut got = acc.clone();
            kernel::dyadic_mul_acc_with(be, &m, &mut got, &a, &b);
            assert_eq!(got, mac, "dyadic_mul_acc {be:?} p={p}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Randomized NTT parity over the full degree range 2^4..2^14 and
    // every modulus class, seeds chosen by proptest.
    #[test]
    fn prop_ntt_parity(seed in any::<u64>(), bits_ix in 0usize..BITS.len(), log_n in 4u32..15) {
        assert_ntt_parity(BITS[bits_ix], log_n, seed);
    }

    // Randomized fused-MAC / dyadic parity with arbitrary lengths
    // (covering every tail-length class mod the widest lane count).
    #[test]
    fn prop_pointwise_parity(
        seed in any::<u64>(),
        bits_ix in 0usize..BITS.len(),
        len in 1usize..600,
    ) {
        let p = prime_for(BITS[bits_ix], 16);
        let m = Modulus::new(p);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = rand_residues(&mut rng, len, p);
        let b = rand_residues(&mut rng, len, p);
        let acc = rand_residues(&mut rng, len, p);
        let r = rng.gen_range(1..p);
        let rs = m.shoup(r);

        let mut d_ref = a.clone();
        kernel::dyadic_mul_assign_with(KernelBackend::Scalar, &m, &mut d_ref, &b);
        let mut mac_ref = acc.clone();
        kernel::fused_mac_shoup_with(KernelBackend::Scalar, &m, &mut mac_ref, &a, r, rs);
        for be in vector_backends() {
            let mut got = a.clone();
            kernel::dyadic_mul_assign_with(be, &m, &mut got, &b);
            prop_assert_eq!(&got, &d_ref, "dyadic {:?} len {}", be, len);
            let mut got = acc.clone();
            kernel::fused_mac_shoup_with(be, &m, &mut got, &a, r, rs);
            prop_assert_eq!(&got, &mac_ref, "mac {:?} len {}", be, len);
        }
    }
}

// --- he-diff smoke under pinned global backends -----------------------
//
// The differential oracle re-executes full ciphertext op sequences
// against the bignum reference world; running it under a forced-scalar
// and an auto-detected backend proves the dispatch layer cannot change
// observable ciphertext semantics. Pinning the backend is
// process-global, so these tests share a mutex (same pattern as
// trace_runtime.rs).

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn diff_smoke() {
    let ctx = he_diff::preset("micro2").expect("preset").params.build();
    let report = he_diff::run_sequence(&ctx, 42, 30, &he_diff::DiffConfig::default())
        .unwrap_or_else(|d| panic!("divergence under {:?}: {d}", kernel::active_backend()));
    assert_eq!(report.ops, 30);
}

#[test]
fn he_diff_smoke_forced_scalar() {
    let _guard = serial();
    kernel::set_backend(KernelBackend::Scalar);
    diff_smoke();
    kernel::set_backend_auto();
}

#[test]
fn he_diff_smoke_auto_backend() {
    let _guard = serial();
    kernel::set_backend_auto();
    diff_smoke();
}

// --- σ_g in the NTT domain ----------------------------------------------

/// Gathering every limb of the transform of `a` through
/// `galois_permutation(n, g)` (as a rotation's inner product does)
/// equals the transform of the coefficient-domain `automorphism(g)`, for
/// every given element.
fn assert_galois_parity(n: usize, elements: impl IntoIterator<Item = usize>) {
    let ctx = PolyContext::new(n, gen_moduli_chain(&[26, 40], n), vec![]);
    let mut sampler = Sampler::from_seed(n as u64);
    let a = RnsPoly::uniform(ctx, vec![0, 1], Form::Coeff, &mut sampler);
    let mut a_ntt = a.clone();
    a_ntt.ntt_forward();
    for g in elements {
        let mut want = a.automorphism(g);
        want.ntt_forward();
        let perm = galois_permutation(n, g);
        let got: Vec<u64> = a_ntt
            .limbs_flat()
            .chunks(n)
            .flat_map(|limb| perm.iter().map(|&k| limb[k as usize]))
            .collect();
        assert_eq!(got, want.limbs_flat(), "n={n} g={g}");
    }
}

#[test]
fn ntt_domain_galois_matches_coefficient_automorphism_for_every_element() {
    let _guard = serial();
    for log_n in 4..=6 {
        let n = 1usize << log_n;
        assert_galois_parity(n, (1..2 * n).step_by(2));
    }
}

#[test]
fn ntt_domain_galois_matches_on_the_cnn1_rotation_set() {
    use cnn_he::packed::PackedNetwork;
    use cnn_he::{lower_packed, HeNetwork, PackedLowering};
    use neural::models::{cnn1, ActKind};

    let _guard = serial();
    // CNN1's compiled circuit at N = 2^12, as the pipeline lowers it
    let net = HeNetwork::from_trained(&cnn1(ActKind::slaf3(), 1), 28);
    let packed = PackedNetwork::from_network(&net);
    let params = CkksParams::toy(packed.required_levels());
    let n = params.n;
    let circuit = lower_packed(
        &packed,
        he_ir::GraphBuilder::new(params),
        1,
        PackedLowering::Compiled,
    );
    let elements = he_ir::passes::rotations::required_elements(&circuit).elements;
    assert!(elements.len() > 4, "CNN1 rotates by several steps");
    assert_galois_parity(n, elements.into_iter().chain([2 * n - 1]));
}

// --- limb-wise fast base conversion vs the bignum reference -------------

/// `FastBaseConverter` over whole limbs, on every backend, is the exact
/// centred conversion `RnsBasis::convert_to` computes per coefficient
/// with bignum tables, plus `e·Q` for one integer `|e| ≤ k/2` shared by
/// every target — the overflow hybrid key switching tolerates — and for
/// a one-modulus source exactly `convert_to`. Sources are the digit
/// shapes of the paper's chain over two special primes.
#[test]
fn fast_base_conversion_matches_convert_to_up_to_its_overflow() {
    use ckks_math::rns::{FastBaseConverter, RnsBasis};
    let n = 256;
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    let targets = gen_moduli_chain(&[40, 26, 26, 40, 40], 1 << 12);
    for source_bits in [&[26][..], &[40, 26], &[26, 26, 26]] {
        let mut taken: Vec<u64> = targets.iter().map(Modulus::value).collect();
        let source: Vec<Modulus> = source_bits
            .iter()
            .map(|&b| {
                let q = gen_ntt_primes_excluding(b, 1 << 12, 1, &taken)[0];
                taken.push(q);
                Modulus::new(q)
            })
            .collect();
        let (k, basis) = (source.len(), RnsBasis::new(source.clone()));
        let conv = FastBaseConverter::new(&source, &targets);
        let limbs: Vec<Vec<u64>> = source
            .iter()
            .map(|q| rand_residues(&mut rng, n, q.value()))
            .collect();
        let exact: Vec<Vec<u64>> = (0..n)
            .map(|c| {
                let residues: Vec<u64> = limbs.iter().map(|l| l[c]).collect();
                basis.convert_to(&residues, &targets)
            })
            .collect();
        for be in kernel::available_backends() {
            let mut scaled: Vec<u64> = limbs.concat();
            for (i, limb) in scaled.chunks_mut(n).enumerate() {
                conv.scale_input(be, i, limb);
            }
            let fast: Vec<Vec<u64>> = (0..targets.len())
                .map(|t| {
                    let mut dst = vec![0u64; n];
                    conv.convert_into(be, &scaled, t, &mut dst);
                    dst
                })
                .collect();
            let half = k as i64 / 2;
            for c in 0..n {
                let overflow = (-half..=half).find(|&e| {
                    targets.iter().enumerate().all(|(t, m)| {
                        let q_mod = basis.big_q().rem_u64(m.value());
                        m.add(exact[c][t], m.mul(m.from_i64(e), q_mod)) == fast[t][c]
                    })
                });
                assert!(overflow.is_some(), "{} k={k} coefficient {c}", be.name());
                if k == 1 {
                    assert_eq!(overflow, Some(0));
                }
            }
        }
    }
}

// --- NTT-domain key switching vs the coefficient-domain reference -------

/// The coefficient-domain evaluator the NTT-domain one replaced: σ_g
/// between an inverse and a forward NTT, every digit converted one
/// coefficient at a time with plain modular arithmetic then
/// forward-transformed, and rescale / mod-down that round-trip the
/// whole polynomial. Digits are the hybrid partition's, converted by
/// the uncorrected fast base conversion with centred terms, and a
/// rotation switches `c₁` before it applies σ_g (the Galois keys carry
/// `s` under `σ_g⁻¹(s)`). Kept as the reference the fast path must
/// match limb for limb.
mod coeff_reference {
    use super::*;

    /// The centred lift of `r`, a residue mod `q`, into `m`.
    fn centred(m: &Modulus, r: u64, q: u64) -> u64 {
        if r > q / 2 {
            m.neg(m.reduce(q - r))
        } else {
            m.reduce(r)
        }
    }

    /// `[Π_{j≠i} q_j]_m`.
    fn hat(m: &Modulus, source: &[Modulus], i: usize) -> u64 {
        (0..source.len())
            .filter(|&j| j != i)
            .fold(1, |acc, j| m.mul(acc, m.reduce(source[j].value())))
    }

    /// Per coefficient `c` of the limb-major `src` (one limb per
    /// `source` modulus): `Σ_i centred([x_i·(Q/q_i)⁻¹]_{q_i})·[Q/q_i]_m`.
    fn convert(m: &Modulus, src: &[Vec<u64>], source: &[Modulus]) -> Vec<u64> {
        let n = src[0].len();
        let terms: Vec<(u64, u64)> = (0..source.len())
            .map(|i| (source[i].inv(hat(&source[i], source, i)), hat(m, source, i)))
            .collect();
        (0..n)
            .map(|c| {
                source
                    .iter()
                    .zip(&terms)
                    .zip(src)
                    .fold(0, |acc, ((q, &(inv, h)), limb)| {
                        let y = q.mul(limb[c], inv);
                        m.add(acc, m.mul(centred(m, y, q.value()), h))
                    })
            })
            .collect()
    }

    /// `(a − conv([a]_P))·P⁻¹` per remaining limb, `P` the product of
    /// the last `k` limbs' moduli.
    fn divide_by_last_limbs(mut p: RnsPoly, k: usize, p_inv: &[u64]) -> RnsPoly {
        p.ntt_inverse();
        let rest = p.num_limbs() - k;
        let source: Vec<Modulus> = (rest..p.num_limbs())
            .map(|li| *p.limb_modulus(li))
            .collect();
        let tails: Vec<Vec<u64>> = (rest..p.num_limbs())
            .map(|li| p.limb(li).to_vec())
            .collect();
        for li in 0..rest {
            let m = *p.limb_modulus(li);
            let lift = convert(&m, &tails, &source);
            for (dv, &v) in p.limb_mut(li).iter_mut().zip(&lift) {
                *dv = m.mul(m.sub(*dv, v), p_inv[li]);
            }
        }
        p.truncate_limbs(rest);
        p.ntt_forward();
        p
    }

    pub fn key_switch(ctx: &CkksContext, d: &RnsPoly, ksk: &KeySwitchKey) -> (RnsPoly, RnsPoly) {
        let level = d.num_limbs() - 1;
        let moduli = ctx.poly_ctx().moduli();
        let mut d_coeff = d.clone();
        d_coeff.ntt_inverse();
        let pctx = ctx.poly_ctx();
        let ext: Vec<usize> = (0..=level)
            .chain(pctx.chain_len()..pctx.moduli().len())
            .collect();
        let mut acc0 = RnsPoly::zero(Arc::clone(ctx.poly_ctx()), ext.clone(), Form::Ntt);
        let mut acc1 = acc0.clone();
        for (j, part) in ctx.digits_at(level).enumerate() {
            let source = &moduli[part.clone()];
            let src: Vec<Vec<u64>> = part.clone().map(|i| d_coeff.limb(i).to_vec()).collect();
            let mut t = RnsPoly::zero(Arc::clone(ctx.poly_ctx()), ext.clone(), Form::Coeff);
            for (li, &idx) in ext.iter().enumerate() {
                t.limb_mut(li)
                    .copy_from_slice(&convert(&moduli[idx], &src, source));
            }
            t.ntt_forward();
            acc0.mul_acc(&t, &ksk.digits()[j].0.restrict(&ext));
            acc1.mul_acc(&t, &ksk.digits()[j].1.restrict(&ext));
        }
        let (k, p_inv) = (ctx.special_moduli().len(), &ctx.p_inv_mod_qi()[..=level]);
        (
            divide_by_last_limbs(acc0, k, p_inv),
            divide_by_last_limbs(acc1, k, p_inv),
        )
    }

    pub fn rescale(ctx: &CkksContext, ct: &Ciphertext) -> Ciphertext {
        let inv = ctx.rescale_inv(ct.level);
        Ciphertext {
            c0: divide_by_last_limbs(ct.c0.clone(), 1, inv),
            c1: divide_by_last_limbs(ct.c1.clone(), 1, inv),
            scale: ct.scale / ctx.chain_moduli()[ct.level].value() as f64,
            level: ct.level - 1,
            slots: ct.slots,
        }
    }

    pub fn apply_galois(
        ctx: &CkksContext,
        ct: &Ciphertext,
        g: usize,
        gk: &GaloisKeys,
    ) -> Ciphertext {
        let sigma = |p: &RnsPoly| {
            let mut c = p.clone();
            c.ntt_inverse();
            let mut s = c.automorphism(g);
            s.ntt_forward();
            s
        };
        let (mut u0, u1) = key_switch(ctx, &ct.c1, gk.get(g).expect("key for g"));
        u0.add_assign(&ct.c0);
        Ciphertext {
            c0: sigma(&u0),
            c1: sigma(&u1),
            ..ct.clone()
        }
    }

    pub fn multiply(ev: &Evaluator, a: &Ciphertext, b: &Ciphertext, rk: &RelinKey) -> Ciphertext {
        let (mut c0, mut c1, d2) = ev.tensor(a, b);
        let (u0, u1) = key_switch(ev.ctx(), &d2, &rk.0);
        c0.add_assign(&u0);
        c1.add_assign(&u1);
        Ciphertext {
            c0,
            c1,
            scale: a.scale * b.scale,
            level: a.level,
            slots: a.slots.max(b.slots),
        }
    }
}

/// CNN1's ring — N = 2^12, chain 40 + 7×26, two 40-bit special primes,
/// so the digits are `{q0,q1}, {q2,q3,q4}, {q5,q6,q7}` — with every key
/// the evaluator suites use and two level-7 ciphertexts. (Over one
/// special prime, [`ks_fixture_with`]`(1)`, every limb is its own
/// digit.)
struct KsFixture {
    ctx: Arc<CkksContext>,
    ev: Evaluator,
    rk: RelinKey,
    gk: GaloisKeys,
    a: Ciphertext,
    b: Ciphertext,
}

/// Rotation steps the suites key: a baby step, a giant-ish one and a
/// right rotation.
const STEPS: [i64; 3] = [1, 7, -3];

fn ks_fixture() -> KsFixture {
    ks_fixture_with(2)
}

fn ks_fixture_with(special: usize) -> KsFixture {
    let mut params = CkksParams::toy(7);
    params.special_bits.truncate(special);
    let ctx = params.build();
    assert_eq!(ctx.special_moduli().len(), special);
    let mut kg = KeyGenerator::new(Arc::clone(&ctx), 26);
    let sk = kg.gen_secret_key();
    let pk: PublicKey = kg.gen_public_key(&sk);
    let rk = kg.gen_relin_key(&sk);
    let gk = kg.gen_galois_keys(&sk, &STEPS, false);
    let ev = Evaluator::new(Arc::clone(&ctx));
    let mut sampler = Sampler::from_seed(27);
    let vals: Vec<f64> = (0..ctx.slots()).map(|i| (i as f64 * 0.01).sin()).collect();
    let a = ev.encrypt_real(&vals, &pk, &mut sampler);
    let b = ev.encrypt_real(&vals[1..], &pk, &mut sampler);
    KsFixture {
        ctx,
        ev,
        rk,
        gk,
        a,
        b,
    }
}

fn assert_same_ct(what: &str, got: &Ciphertext, want: &Ciphertext) {
    assert_eq!(
        (got.level, got.scale, got.slots),
        (want.level, want.scale, want.slots),
        "{what}: metadata"
    );
    assert_eq!(got.c0.limbs_flat(), want.c0.limbs_flat(), "{what}: c0");
    assert_eq!(got.c1.limbs_flat(), want.c1.limbs_flat(), "{what}: c1");
}

/// Every key-switching op of the evaluator against the reference above,
/// limb for limb: each rotation step and the identity — direct,
/// hoisted, and as the mod-down of the extended rotation —
/// relinearized multiplication, rescale and `key_switch`, at every level
/// of CNN1's ring (rescale from level 1), over one and two special
/// primes, on every kernel backend.
#[test]
fn ntt_domain_key_switching_is_limb_identical_to_the_coefficient_reference() {
    let _guard = serial();
    for special in [1, 2] {
        let f = ks_fixture_with(special);
        for level in 0..=7 {
            let a = f.ev.mod_switch_to_level(&f.a, level);
            let b = f.ev.mod_switch_to_level(&f.b, level);
            let galois = |g| coeff_reference::apply_galois(&f.ctx, &a, g, &f.gk);
            let mut rotations: Vec<(i64, Ciphertext)> = STEPS
                .iter()
                .map(|&s| (s, galois(f.ctx.galois_element_for_rotation(s))))
                .collect();
            rotations.push((0, a.clone()));
            let product = coeff_reference::multiply(&f.ev, &a, &b, &f.rk);
            let rescaled = (level > 0).then(|| coeff_reference::rescale(&f.ctx, &a));
            let switched = coeff_reference::key_switch(&f.ctx, &a.c1, &f.rk.0);
            for be in kernel::available_backends() {
                kernel::set_backend(be);
                let at = |what: &str| format!("{what} at level {level}, k = {special}, {be:?}");
                let (ev, gk) = (&f.ev, &f.gk);
                let h = ev.hoist(&a).expect("well-formed");
                for (steps, want) in &rotations {
                    let ext = ev.rotate_ext(&a, *steps, gk).expect("keyed");
                    for (how, got) in [
                        ("direct", ev.rotate(&a, *steps, gk)),
                        (
                            "hoisted",
                            ev.try_rotate_hoisted(&h, *steps, gk).expect("keyed"),
                        ),
                        ("mod_down", ev.mod_down(ext).expect("well-formed")),
                    ] {
                        assert_same_ct(&at(&format!("rotate {steps}, {how}")), &got, want);
                    }
                }
                assert_same_ct(&at("multiply"), &ev.multiply(&a, &b, &f.rk), &product);
                if let Some(want) = &rescaled {
                    assert_same_ct(&at("rescale"), &ev.rescale(&a), want);
                }
                let what = at("key_switch");
                let got = ev.key_switch(&a.c1, &f.rk.0);
                assert_eq!(got.0.limbs_flat(), switched.0.limbs_flat(), "{what}: u0");
                assert_eq!(got.1.limbs_flat(), switched.1.limbs_flat(), "{what}: u1");
            }
        }
    }
    kernel::set_backend_auto();
}

/// The textbook Galois op for element `g`: switch `c₁` under the key for
/// `g` and divide by `P` (`Evaluator::key_switch`), add `c₀`, then gather
/// every limb's NTT slots through `galois_permutation(n, g)`.
fn textbook_galois(ev: &Evaluator, ct: &Ciphertext, g: usize, gk: &GaloisKeys) -> Ciphertext {
    let (mut u0, u1) = ev.key_switch(&ct.c1, gk.get(g).expect("keyed"));
    u0.add_assign(&ct.c0);
    let n = ev.ctx().poly_ctx().n();
    let perm = galois_permutation(n, g);
    let permuted = |x: &RnsPoly| {
        let mut out = x.clone();
        for i in 0..x.num_limbs() {
            for (o, &k) in out.limb_mut(i).iter_mut().zip(perm.iter()) {
                *o = x.limb(i)[k as usize];
            }
        }
        out
    };
    Ciphertext {
        c0: permuted(&u0),
        c1: permuted(&u1),
        scale: ct.scale,
        level: ct.level,
        slots: ct.slots,
    }
}

/// Stopping a rotation before its mod-down and dividing by `P`
/// afterwards is the textbook rotation, limb for limb: the extended
/// rotation folds `P·c₀` into its key switch and applies σ_g before the
/// division, which changes nothing because `P·c₀` is zero modulo every
/// special prime and σ_g commutes with the centred conversion. Every
/// keyed step and the identity, at every level of CNN1's ring, over one and over two special primes, on every kernel backend
/// against the reference computed on the scalar one.
#[test]
fn an_extended_rotation_mod_down_is_limb_identical_to_the_rotation() {
    let _guard = serial();
    for special in [1, 2] {
        let f = ks_fixture_with(special);
        let (ev, gk) = (&f.ev, &f.gk);
        for level in 0..=7 {
            let ct = ev.mod_switch_to_level(&f.a, level);
            kernel::set_backend(KernelBackend::Scalar);
            let mut want: Vec<(i64, Ciphertext)> = STEPS
                .iter()
                .map(|&s| {
                    let g = f.ctx.galois_element_for_rotation(s);
                    (s, textbook_galois(ev, &ct, g, gk))
                })
                .collect();
            want.push((0, ct.clone()));
            for be in kernel::available_backends() {
                kernel::set_backend(be);
                let at = |what: &str| format!("{what} at level {level}, k = {special}, {be:?}");
                let h = ev.hoist(&ct).expect("well-formed");
                for (steps, want) in &want {
                    let ext = ev.rotate_ext_hoisted(&h, *steps, gk).expect("keyed");
                    let got = ev.mod_down(ext).expect("well-formed");
                    assert_same_ct(&at(&format!("rotate {steps}")), &got, want);
                }
            }
        }
    }
    kernel::set_backend_auto();
}

/// Forward NTTs of one decomposition at `level`: every digit over every
/// limb of the key-switch basis but its own.
fn decomposition_ntts(ctx: &CkksContext, level: usize) -> u64 {
    let ext = level + 1 + ctx.special_moduli().len();
    ctx.digits_at(level).map(|d| (ext - d.len()) as u64).sum()
}

/// A rotation at level ℓ (`dnum` digits, `k` special primes) transforms
/// `ℓ + 1` limbs back once (the key switch's digits), forward-transforms
/// each digit into every other limb of the `ℓ + 1 + k`-limb key-switch
/// basis plus the `ℓ + 1` mod-down conversions of each half, and
/// inverse-transforms only the `k` special limbs of each half; the inner
/// product is `dnum·(ℓ + 1 + k)` limb products per half, and lifting
/// `c₀` to `P·c₀` (folded in before the mod-down) `ℓ + 1` more. At ℓ = 7
/// that is 22 + 16 = 38 forward and 12 inverse NTTs and 68 limb
/// products, where one limb per digit over one special prime took 80,
/// 10 and 144.
/// A rescale inverse-transforms only the dropped limb of each half.
#[test]
fn one_rotation_and_one_rescale_record_exact_transform_counts() {
    let _guard = serial();
    kernel::set_backend_auto();
    let f = ks_fixture();
    let k = f.ctx.special_moduli().len() as u64;
    assert_eq!(k, 2);
    for level in 1..=7 {
        let a = f.ev.mod_switch_to_level(&f.a, level);
        let l = level as u64;
        let (dnum, ext) = (f.ctx.digits_at(level).count() as u64, l + 1 + k);
        let fwd = decomposition_ntts(&f.ctx, level) + 2 * (l + 1);
        let counted = |op: &dyn Fn()| {
            let before = OpSnapshot::now();
            op();
            OpSnapshot::now().delta(&before)
        };

        let d = counted(&|| drop(f.ev.rotate(&a, 1, &f.gk)));
        assert_eq!(
            (d.ntt_fwd, d.ntt_inv),
            (fwd, l + 1 + 2 * k),
            "rotation at level {level}"
        );
        assert_eq!(d.modmul_limbs, 2 * dnum * ext + l + 1, "level {level}");
        assert_eq!((d.rotations, d.keyswitches), (1, 1));
        if level == 7 {
            assert_eq!((d.ntt_fwd, d.ntt_inv, d.modmul_limbs), (38, 12, 68));
        }

        let d = counted(&|| drop(f.ev.key_switch(&a.c1, &f.rk.0)));
        assert_eq!(d.ntt_inv, l + 1 + 2 * k, "key switch at level {level}");
        assert_eq!(d.modmul_limbs, 2 * dnum * ext, "level {level}");

        let d = counted(&|| drop(f.ev.rescale(&a)));
        assert_eq!(
            (d.ntt_fwd, d.ntt_inv, d.rescales),
            (2 * l, 2, 1),
            "rescale at level {level}"
        );
        assert_eq!(d.modmul_limbs, 0);
    }
}

/// An extended rotation at level ℓ is a rotation without its mod-down:
/// the decomposition's forward NTTs and its `ℓ + 1` inverse NTTs, no
/// transform of the special limbs, the inner product's `2·dnum·(ℓ+1+k)`
/// limb products plus `ℓ + 1` for `P·c₀`. A `mod_down` is the rest:
/// `2(ℓ+1)` forward and `2k` inverse NTTs and no limb product. At ℓ = 7
/// that is 22 forward and 8 inverse NTTs for the rotation and 16 and 4
/// for the division.
#[test]
fn one_extended_rotation_and_one_mod_down_record_exact_transform_counts() {
    let _guard = serial();
    kernel::set_backend_auto();
    let f = ks_fixture();
    let k = f.ctx.special_moduli().len() as u64;
    for level in 0..=7 {
        let a = f.ev.mod_switch_to_level(&f.a, level);
        let l = level as u64;
        let (dnum, ext) = (f.ctx.digits_at(level).count() as u64, l + 1 + k);
        let before = OpSnapshot::now();
        let x = f.ev.rotate_ext(&a, 1, &f.gk).expect("keyed");
        let d = OpSnapshot::now().delta(&before);
        assert_eq!(
            (d.ntt_fwd, d.ntt_inv),
            (decomposition_ntts(&f.ctx, level), l + 1),
            "extended rotation at level {level}"
        );
        assert_eq!(d.modmul_limbs, 2 * dnum * ext + l + 1, "level {level}");
        assert_eq!((d.rotations, d.keyswitches), (1, 1));

        let before = OpSnapshot::now();
        let down = f.ev.mod_down(x).expect("well-formed");
        let d = OpSnapshot::now().delta(&before);
        assert_eq!(
            (d.ntt_fwd, d.ntt_inv),
            (2 * (l + 1), 2 * k),
            "mod_down at level {level}"
        );
        assert_eq!((d.modmul_limbs, d.rotations, d.keyswitches), (0, 0, 0));
        assert_same_ct("the pair", &down, &f.ev.rotate(&a, 1, &f.gk));
        if level == 7 {
            let rotate = (decomposition_ntts(&f.ctx, 7), l + 1);
            assert_eq!((rotate, (d.ntt_fwd, d.ntt_inv)), ((22, 8), (16, 4)));
        }
    }
}

/// The identity tap of a hoisted fan is the exact lift `P·x` built from
/// the hoist's `P·c₀`: limb-identical to lifting `x` directly, with no
/// transform, and `ℓ + 1` limb products (`P·c₁` only) where the direct
/// lift records `2(ℓ + 1)`.
#[test]
fn a_hoisted_identity_extended_rotation_reuses_the_hoisted_p_c0() {
    let _guard = serial();
    kernel::set_backend_auto();
    let f = ks_fixture();
    for level in 0..=7 {
        let a = f.ev.mod_switch_to_level(&f.a, level);
        let l = level as u64 + 1;
        let h = f.ev.hoist(&a).expect("well-formed");
        let before = OpSnapshot::now();
        let hoisted = f.ev.rotate_ext_hoisted(&h, 0, &f.gk).expect("identity");
        let d = OpSnapshot::now().delta(&before);
        assert_eq!(
            (d.modmul_limbs, d.ntt_fwd, d.ntt_inv),
            (l, 0, 0),
            "level {level}"
        );
        let before = OpSnapshot::now();
        let direct = f.ev.rotate_ext(&a, 0, &f.gk).expect("identity");
        let d = OpSnapshot::now().delta(&before);
        assert_eq!(
            (d.modmul_limbs, d.ntt_fwd, d.ntt_inv),
            (2 * l, 0, 0),
            "level {level}"
        );
        assert_eq!(
            hoisted.c0.limbs_flat(),
            direct.c0.limbs_flat(),
            "level {level}: c0"
        );
        assert_eq!(
            hoisted.c1.limbs_flat(),
            direct.c1.limbs_flat(),
            "level {level}: c1"
        );
        assert_eq!(hoisted.c0.limb_indices(), direct.c0.limb_indices());
        assert_eq!(
            (hoisted.level, hoisted.scale, hoisted.slots),
            (direct.level, direct.scale, direct.slots)
        );
    }
}

/// A circuit region that rotates one value from outside it `r` times
/// decomposes that value once: at level ℓ it records one decomposition's
/// forward NTTs plus `2r(ℓ+1)`, and `(ℓ+1) + 2rk` inverse NTTs (`k`
/// special primes) — the digits once, a mod-down per key switch — where
/// `r` separate rotations decompose `r` times. Each rotation is its own unit, so the units read the shared
/// digits from across the pool; the outputs are limb-identical to eager
/// rotations at pool width 1 and at the default width.
#[test]
fn a_region_fanning_out_rotations_of_one_value_decomposes_it_once() {
    use he_ir::{GraphBuilder, Interpreter, KeyInventory, Layout, Prepared};
    use std::collections::HashMap;

    let _guard = serial();
    kernel::set_backend_auto();
    let f = ks_fixture();
    for level in [7, 3] {
        let x_ct = f.ev.mod_switch_to_level(&f.a, level);
        let mut b = GraphBuilder::for_context(&f.ctx);
        let x = b.input("x", level, Layout::BatchStrided { stride: 1 });
        b.begin_region("fan");
        let outs = STEPS.map(|r| b.rotate(x, r));
        for o in outs {
            b.output(o);
        }
        let elements = STEPS.map(|r| f.ctx.galois_element_for_rotation(r));
        let circuit = b.finish(KeyInventory::with_galois(true, elements));
        let prepared = Prepared::new(&f.ev, circuit).expect("prepares");
        let interp = Interpreter::new(&f.ev).with_galois(&f.gk);
        let inputs = HashMap::from([("x".to_string(), x_ct.clone())]);
        let one = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("a width cap");
        let narrow = one
            .install(|| prepared.run(&interp, inputs.clone()))
            .expect("runs");
        let wide = prepared.run(&interp, inputs).expect("runs");

        let want = STEPS.map(|r| f.ev.rotate(&x_ct, r, &f.gk));
        let (l, r) = (level as u64 + 1, want.len() as u64);
        let k = f.ctx.special_moduli().len() as u64;
        for run in [&narrow, &wide] {
            for (got, want) in run.outputs.iter().zip(&want) {
                assert_same_ct(&format!("fan at level {level}"), got, want);
            }
            assert_eq!(run.regions[0].unit_walls.len(), 3);
            let ops = &run.regions[0].ops;
            assert_eq!(
                (ops.ntt_fwd, ops.ntt_inv),
                (decomposition_ntts(&f.ctx, level) + 2 * r * l, l + 2 * r * k),
                "level {level}"
            );
            assert_eq!((ops.rotations, ops.keyswitches), (r, r));
        }
    }
}
