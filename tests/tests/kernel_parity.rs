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
    KsVariant, PublicKey, RelinKey,
};
use ckks_math::kernel::{self, KernelBackend};
use ckks_math::modring::Modulus;
use ckks_math::ntt::NttTable;
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
/// scalar Shoup multiply, Barrett slice reduce, and the two halves of
/// dropping a limb (centred lift, subtract-and-multiply). Odd lengths
/// exercise the vector tail handling.
#[test]
fn pointwise_parity_across_moduli() {
    for &bits in &BITS {
        for len in [8usize, 37, 256, 1000, 4096] {
            let p = prime_for(bits, 16);
            let m = Modulus::new(p);
            let q = prime_for(bits, 32); // lift source modulus
            let mut rng = rand::rngs::StdRng::seed_from_u64(u64::from(bits) * 7 + len as u64);
            let a = rand_residues(&mut rng, len, p);
            let b = rand_residues(&mut rng, len, p);
            let acc = rand_residues(&mut rng, len, p);
            let wide = rand_residues(&mut rng, len, u64::MAX); // reduce input
            let lift_src = rand_residues(&mut rng, len, q);
            let r = rng.gen_range(1..p);
            let rs = m.shoup(r);

            let scalar = KernelBackend::Scalar;
            let mut d_assign = a.clone();
            kernel::dyadic_mul_assign_with(scalar, &m, &mut d_assign, &b);
            let mut d_out = vec![0u64; len];
            kernel::dyadic_mul_with(scalar, &m, &mut d_out, &a, &b);
            let mut d_acc = acc.clone();
            kernel::dyadic_mul_acc_with(scalar, &m, &mut d_acc, &a, &b);
            let mut mac = acc.clone();
            kernel::fused_mac_shoup_with(scalar, &m, &mut mac, &a, r, rs);
            let mut scl = a.clone();
            kernel::mul_scalar_shoup_with(scalar, &m, &mut scl, r, rs);
            let mut red = vec![0u64; len];
            kernel::barrett_reduce_slice_with(scalar, &m, &mut red, &wide);
            let mut lift = vec![0u64; len];
            kernel::centered_lift_with(scalar, &m, &mut lift, &lift_src, q);
            let mut sub_mul = acc.clone();
            kernel::sub_mul_shoup_with(scalar, &m, &mut sub_mul, &a, r, rs);

            for be in vector_backends() {
                let ctx = format!("{be:?}, {bits}-bit, len {len}");
                let mut got = a.clone();
                kernel::dyadic_mul_assign_with(be, &m, &mut got, &b);
                assert_eq!(got, d_assign, "dyadic_mul_assign {ctx}");
                let mut got = vec![0u64; len];
                kernel::dyadic_mul_with(be, &m, &mut got, &a, &b);
                assert_eq!(got, d_out, "dyadic_mul {ctx}");
                let mut got = acc.clone();
                kernel::dyadic_mul_acc_with(be, &m, &mut got, &a, &b);
                assert_eq!(got, d_acc, "dyadic_mul_acc {ctx}");
                let mut got = acc.clone();
                kernel::fused_mac_shoup_with(be, &m, &mut got, &a, r, rs);
                assert_eq!(got, mac, "fused_mac_shoup {ctx}");
                let mut got = a.clone();
                kernel::mul_scalar_shoup_with(be, &m, &mut got, r, rs);
                assert_eq!(got, scl, "mul_scalar_shoup {ctx}");
                let mut got = vec![0u64; len];
                kernel::barrett_reduce_slice_with(be, &m, &mut got, &wide);
                assert_eq!(got, red, "barrett_reduce_slice {ctx}");
                let mut got = vec![0u64; len];
                kernel::centered_lift_with(be, &m, &mut got, &lift_src, q);
                assert_eq!(got, lift, "centered_lift {ctx}");
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

        let mut prod = vec![0u64; len];
        kernel::dyadic_mul_with(KernelBackend::Scalar, &m, &mut prod, &a, &b);
        assert!(prod
            .iter()
            .zip(a.iter().zip(&b))
            .all(|(&r, (&x, &y))| r == exact(x, y)));
        let mut mac = acc.clone();
        kernel::dyadic_mul_acc_with(KernelBackend::Scalar, &m, &mut mac, &a, &b);
        for be in kernel::available_backends() {
            let mut got = vec![0u64; len];
            kernel::dyadic_mul_with(be, &m, &mut got, &a, &b);
            assert_eq!(got, prod, "dyadic_mul {be:?} p={p}");
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

/// `automorphism_ntt(g)` on the transform of `a` equals the transform of
/// the coefficient-domain `automorphism(g)`, for every given element.
fn assert_galois_parity(n: usize, elements: impl IntoIterator<Item = usize>) {
    let ctx = PolyContext::new(n, gen_moduli_chain(&[26, 40], n), vec![]);
    let mut sampler = Sampler::from_seed(n as u64);
    let a = RnsPoly::uniform(ctx, vec![0, 1], Form::Coeff, &mut sampler);
    let mut a_ntt = a.clone();
    a_ntt.ntt_forward();
    for g in elements {
        let mut want = a.automorphism(g);
        want.ntt_forward();
        let got = a_ntt.automorphism_ntt(g);
        assert_eq!(got.limbs_flat(), want.limbs_flat(), "n={n} g={g}");
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
    let mut circuit = lower_packed(
        &packed,
        he_ir::GraphBuilder::new(params),
        1,
        PackedLowering::Compiled,
    );
    he_ir::PassManager::optimizer()
        .optimize(&mut circuit)
        .expect("optimizes");
    let elements = he_ir::passes::rotations::required_elements(&circuit).elements;
    assert!(elements.len() > 4, "CNN1 rotates by several steps");
    assert_galois_parity(n, elements.into_iter().chain([2 * n - 1]));
}

// --- NTT-domain key switching vs the coefficient-domain reference -------

/// The coefficient-domain evaluator the NTT-domain one replaced: σ_g
/// between an inverse and a forward NTT, a forward NTT of every digit
/// limb, and rescale / mod-down that round-trip the whole polynomial.
/// Kept as the reference the fast path must match limb for limb.
mod coeff_reference {
    use super::*;

    /// `(a − [a]_q)·q⁻¹` per remaining limb, `q` the last limb's modulus.
    fn divide_by_last_limb(mut p: RnsPoly, q_inv: &[u64]) -> RnsPoly {
        p.ntt_inverse();
        let k = p.num_limbs() - 1;
        let q = p.limb_modulus(k).value();
        let last = p.limb(k).to_vec();
        for li in 0..k {
            let m = *p.limb_modulus(li);
            for (dv, &r) in p.limb_mut(li).iter_mut().zip(&last) {
                let lifted = if r > q / 2 {
                    m.neg(m.reduce(q - r))
                } else {
                    m.reduce(r)
                };
                *dv = m.mul(m.sub(*dv, lifted), q_inv[li]);
            }
        }
        p.drop_last_limb();
        p.ntt_forward();
        p
    }

    pub fn key_switch(ctx: &CkksContext, d: &RnsPoly, ksk: &KeySwitchKey) -> (RnsPoly, RnsPoly) {
        let level = d.num_limbs() - 1;
        let mut d_coeff = d.clone();
        d_coeff.ntt_inverse();
        let ext: Vec<usize> = match ksk.variant {
            KsVariant::Ghs => (0..=level)
                .chain(ctx.poly_ctx().special_indices())
                .collect(),
            KsVariant::Bv => (0..=level).collect(),
        };
        let mut acc0 = RnsPoly::zero(Arc::clone(ctx.poly_ctx()), ext.clone(), Form::Ntt);
        let mut acc1 = acc0.clone();
        for j in 0..=level {
            let mut t = RnsPoly::zero(Arc::clone(ctx.poly_ctx()), ext.clone(), Form::Coeff);
            for (li, &idx) in ext.iter().enumerate() {
                let m = ctx.poly_ctx().moduli()[idx];
                if idx == j {
                    t.limb_mut(li).copy_from_slice(d_coeff.limb(j));
                } else {
                    kernel::barrett_reduce_slice(&m, t.limb_mut(li), d_coeff.limb(j));
                }
            }
            t.ntt_forward();
            acc0.mul_acc_subset(&t, &ksk.digits()[j].0);
            acc1.mul_acc_subset(&t, &ksk.digits()[j].1);
        }
        match ksk.variant {
            KsVariant::Ghs => {
                let p_inv = &ctx.p_inv_mod_qi()[..=level];
                (
                    divide_by_last_limb(acc0, p_inv),
                    divide_by_last_limb(acc1, p_inv),
                )
            }
            KsVariant::Bv => (acc0, acc1),
        }
    }

    pub fn rescale(ctx: &CkksContext, ct: &Ciphertext) -> Ciphertext {
        let inv = ctx.rescale_inv(ct.level);
        Ciphertext {
            c0: divide_by_last_limb(ct.c0.clone(), inv),
            c1: divide_by_last_limb(ct.c1.clone(), inv),
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
        let mut c0 = sigma(&ct.c0);
        let (u0, u1) = key_switch(ctx, &sigma(&ct.c1), gk.get(g).expect("key for g"));
        c0.add_assign(&u0);
        Ciphertext {
            c0,
            c1: u1,
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

/// CNN1's ring — N = 2^12, chain 40 + 7×26, one 40-bit special prime —
/// with every key the evaluator suites use and two level-7 ciphertexts.
struct KsFixture {
    ctx: Arc<CkksContext>,
    ev: Evaluator,
    rk: RelinKey,
    rk_bv: RelinKey,
    gk: GaloisKeys,
    a: Ciphertext,
    b: Ciphertext,
}

/// Rotation steps the suites key: a baby step and a giant-ish one.
const STEPS: [i64; 2] = [1, 7];

fn ks_fixture() -> KsFixture {
    let ctx = CkksParams::toy(7).build();
    let mut kg = KeyGenerator::new(Arc::clone(&ctx), 26);
    let sk = kg.gen_secret_key();
    let pk: PublicKey = kg.gen_public_key(&sk);
    let rk = kg.gen_relin_key(&sk);
    let rk_bv = kg.gen_relin_key_variant(&sk, KsVariant::Bv);
    let gk = kg.gen_galois_keys(&sk, &STEPS, true);
    let ev = Evaluator::new(Arc::clone(&ctx));
    let mut sampler = Sampler::from_seed(27);
    let vals: Vec<f64> = (0..ctx.slots()).map(|i| (i as f64 * 0.01).sin()).collect();
    let a = ev.encrypt_real(&vals, &pk, &mut sampler);
    let b = ev.encrypt_real(&vals[1..], &pk, &mut sampler);
    KsFixture {
        ctx,
        ev,
        rk,
        rk_bv,
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

#[test]
fn ntt_domain_key_switching_is_limb_identical_to_the_coefficient_reference() {
    let _guard = serial();
    let f = ks_fixture();
    for (name, pin) in [("scalar", Some(KernelBackend::Scalar)), ("auto", None)] {
        match pin {
            Some(b) => kernel::set_backend(b),
            None => kernel::set_backend_auto(),
        }
        for level in 1..=7 {
            let at = |what: &str| format!("{what} at level {level}, {name} backend");
            let a = f.ev.mod_switch_to_level(&f.a, level);
            let b = f.ev.mod_switch_to_level(&f.b, level);
            for steps in STEPS {
                let g = f.ctx.galois_element_for_rotation(steps);
                assert_same_ct(
                    &at(&format!("rotate {steps}")),
                    &f.ev.rotate(&a, steps, &f.gk),
                    &coeff_reference::apply_galois(&f.ctx, &a, g, &f.gk),
                );
            }
            let g = f.ctx.galois_element_conjugate();
            assert_same_ct(
                &at("conjugate"),
                &f.ev.conjugate(&a, &f.gk),
                &coeff_reference::apply_galois(&f.ctx, &a, g, &f.gk),
            );
            assert_same_ct(
                &at("multiply"),
                &f.ev.multiply(&a, &b, &f.rk),
                &coeff_reference::multiply(&f.ev, &a, &b, &f.rk),
            );
            assert_same_ct(
                &at("rescale"),
                &f.ev.rescale(&a),
                &coeff_reference::rescale(&f.ctx, &a),
            );
            for rk in [&f.rk, &f.rk_bv] {
                let what = at(&format!("key_switch {:?}", rk.0.variant));
                let got = f.ev.key_switch(&a.c1, &rk.0);
                let want = coeff_reference::key_switch(&f.ctx, &a.c1, &rk.0);
                assert_eq!(got.0.limbs_flat(), want.0.limbs_flat(), "{what}: u0");
                assert_eq!(got.1.limbs_flat(), want.1.limbs_flat(), "{what}: u1");
            }
        }
    }
    kernel::set_backend_auto();
}

/// A rotation at level ℓ transforms `ℓ + 1` limbs back once (the key
/// switch's digits), forward-transforms `ℓ + 1` limbs of each of the
/// `ℓ + 1` digits (its own limb is reused) plus the `ℓ + 1` lifted
/// special residues of each half, and inverse-transforms only the
/// special limb of each half: `(ℓ+1)(ℓ+3)` forward and `ℓ + 3` inverse
/// NTTs — 80 / 10 at ℓ = 7, where the coefficient-domain path took
/// 104 / 42. A rescale inverse-transforms only the dropped limb of each
/// half. The key switch's multiply-accumulates are unchanged.
#[test]
fn one_rotation_and_one_rescale_record_exact_transform_counts() {
    let _guard = serial();
    kernel::set_backend_auto();
    let f = ks_fixture();
    for level in 1..=7 {
        let a = f.ev.mod_switch_to_level(&f.a, level);
        let l = level as u64;
        let counted = |op: &dyn Fn()| {
            let before = OpSnapshot::now();
            op();
            OpSnapshot::now().delta(&before)
        };

        let d = counted(&|| drop(f.ev.rotate(&a, 1, &f.gk)));
        assert_eq!(
            (d.ntt_fwd, d.ntt_inv),
            ((l + 1) * (l + 3), l + 3),
            "rotation at level {level}"
        );
        assert_eq!(d.modmul_limbs, 2 * (l + 1) * (l + 2), "level {level}");
        assert_eq!((d.rotations, d.keyswitches), (1, 1));

        let d = counted(&|| drop(f.ev.key_switch(&a.c1, &f.rk.0)));
        assert_eq!(d.ntt_inv, l + 3, "key switch at level {level}");
        assert_eq!(d.modmul_limbs, 2 * (l + 1) * (l + 2), "level {level}");

        let d = counted(&|| drop(f.ev.rescale(&a)));
        assert_eq!(
            (d.ntt_fwd, d.ntt_inv, d.rescales),
            (2 * l, 2, 1),
            "rescale at level {level}"
        );
        assert_eq!(d.modmul_limbs, 0);
    }
}
