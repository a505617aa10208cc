//! Polynomials of `R_q = Z_q[X]/(X^N+1)` in double-CRT (RNS × NTT) form.
//!
//! An [`RnsPoly`] stores one residue vector per active modulus ("limb").
//! Limbs are identified by their index into the shared [`PolyContext`]
//! modulus list, so a polynomial can live over any subset — a level-ℓ
//! ciphertext uses limbs `0..=ℓ`, and key-switching intermediates
//! additionally carry the special modulus at index `L+1`.
//!
//! Residues live in one flat limb-major buffer (limb `i` occupies
//! `data[i*n..(i+1)*n]`), so a whole-polynomial transform is a single
//! contiguous sweep: the batched NTT entry ([`kernel::ntt_forward_batch`])
//! resolves the SIMD backend once and tiles limbs across rayon workers,
//! and pointwise kernels stream limb-sized chunks without pointer
//! chasing through per-limb `Vec`s.
//!
//! All per-limb operations are embarrassingly parallel. The NTT and the
//! dyadic product / MAC fan limbs out across the rayon pool when the
//! polynomial is big enough (`kernel::limbs_fan_out`),
//! which is the substrate for the paper's "RNS enables parallel
//! processing" claim at the scheme level; under an outer fan-out (layer
//! units, shards) they run inline, so the two levels never nest.

use crate::kernel;
use crate::modring::Modulus;
use crate::ntt::NttTable;
use crate::rns::FastBaseConverter;
use crate::sampler::Sampler;
use rayon::prelude::*;
use std::sync::Arc;

/// Representation domain of a polynomial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Form {
    /// Coefficient domain, natural order.
    Coeff,
    /// Evaluation (NTT) domain, bit-reversed order.
    Ntt,
}

/// Shared immutable tables for one ring: degree, full modulus list
/// (ciphertext chain followed by special moduli), and NTT tables.
///
/// NTT tables come from the process-wide [`NttTable::cached`] pool keyed
/// on `(n, p)`, so building several contexts over overlapping prime sets
/// (common in tests, serving, and the differential oracle) re-derives no
/// twiddle tables.
#[derive(Debug)]
pub struct PolyContext {
    n: usize,
    moduli: Vec<Modulus>,
    ntt_tables: Vec<Arc<NttTable>>,
    /// Number of trailing special (key-switching) moduli in `moduli`.
    num_special: usize,
}

impl PolyContext {
    /// Builds a context for ring degree `n` over `chain_moduli` (the
    /// ciphertext modulus chain `q_0..q_L`) plus `special_moduli`
    /// (key-switching primes, usually one).
    pub fn new(n: usize, chain_moduli: Vec<Modulus>, special_moduli: Vec<Modulus>) -> Arc<Self> {
        assert!(n.is_power_of_two() && n >= 4);
        let num_special = special_moduli.len();
        let mut moduli = chain_moduli;
        moduli.extend(special_moduli);
        assert!(!moduli.is_empty());
        let mut seen = std::collections::HashSet::new();
        for m in &moduli {
            assert!(seen.insert(m.value()), "duplicate modulus {}", m.value());
        }
        let ntt_tables = moduli.iter().map(|&m| NttTable::cached(n, m)).collect();
        Arc::new(Self {
            n,
            moduli,
            ntt_tables,
            num_special,
        })
    }

    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// All moduli (chain then special).
    #[inline]
    pub fn moduli(&self) -> &[Modulus] {
        &self.moduli
    }

    /// Number of ciphertext-chain moduli (`L + 1`).
    #[inline]
    pub fn chain_len(&self) -> usize {
        self.moduli.len() - self.num_special
    }

    #[inline]
    pub fn num_special(&self) -> usize {
        self.num_special
    }

    #[inline]
    pub fn ntt_table(&self, idx: usize) -> &NttTable {
        self.ntt_tables[idx].as_ref()
    }
}

/// A polynomial in RNS representation over a subset of the context moduli.
#[derive(Clone)]
pub struct RnsPoly {
    ctx: Arc<PolyContext>,
    /// Context-modulus index of each limb.
    limb_indices: Vec<usize>,
    /// Flat limb-major residues: limb `i` occupies `data[i*n..(i+1)*n]`.
    data: Vec<u64>,
    form: Form,
}

impl std::fmt::Debug for RnsPoly {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RnsPoly")
            .field("n", &self.ctx.n)
            .field("limbs", &self.limb_indices)
            .field("form", &self.form)
            .finish()
    }
}

impl RnsPoly {
    /// The zero polynomial over the given limb set.
    pub fn zero(ctx: Arc<PolyContext>, limb_indices: Vec<usize>, form: Form) -> Self {
        let n = ctx.n();
        assert!(!limb_indices.is_empty());
        assert!(limb_indices.iter().all(|&i| i < ctx.moduli().len()));
        Self {
            data: vec![0u64; n * limb_indices.len()],
            limb_indices,
            ctx,
            form,
        }
    }

    /// Reassembles a polynomial from raw parts (deserialization). Panics
    /// on shape mismatches or out-of-range residues.
    pub fn from_parts(
        ctx: Arc<PolyContext>,
        limb_indices: Vec<usize>,
        limbs: Vec<Vec<u64>>,
        form: Form,
    ) -> Self {
        assert_eq!(limb_indices.len(), limbs.len());
        assert!(!limb_indices.is_empty());
        let n = ctx.n();
        let mut data = Vec::with_capacity(n * limbs.len());
        for (i, (&idx, limb)) in limb_indices.iter().zip(&limbs).enumerate() {
            assert!(idx < ctx.moduli().len(), "limb {i}: bad modulus index");
            assert_eq!(limb.len(), n, "limb {i}: wrong length");
            let p = ctx.moduli()[idx].value();
            assert!(
                limb.iter().all(|&v| v < p),
                "limb {i}: residue out of range"
            );
            data.extend_from_slice(limb);
        }
        Self {
            ctx,
            limb_indices,
            data,
            form,
        }
    }

    /// Builds from small signed coefficients (secret keys, errors),
    /// reducing into every requested limb. Result is in `Coeff` form.
    pub fn from_signed(ctx: Arc<PolyContext>, limb_indices: Vec<usize>, coeffs: &[i64]) -> Self {
        assert_eq!(coeffs.len(), ctx.n());
        let mut data = Vec::with_capacity(ctx.n() * limb_indices.len());
        for &idx in &limb_indices {
            let m = ctx.moduli()[idx];
            data.extend(coeffs.iter().map(|&c| m.from_i64(c)));
        }
        Self {
            data,
            limb_indices,
            ctx,
            form: Form::Coeff,
        }
    }

    /// Uniformly random polynomial (already valid in either form; we tag it
    /// `Ntt` when used as the `a` part of RLWE samples generated directly
    /// in the evaluation domain).
    pub fn uniform(
        ctx: Arc<PolyContext>,
        limb_indices: Vec<usize>,
        form: Form,
        sampler: &mut Sampler,
    ) -> Self {
        let mut data = Vec::with_capacity(ctx.n() * limb_indices.len());
        for &idx in &limb_indices {
            data.extend(sampler.uniform_limb(ctx.n(), &ctx.moduli()[idx]));
        }
        Self {
            data,
            limb_indices,
            ctx,
            form,
        }
    }

    #[inline]
    pub fn ctx(&self) -> &Arc<PolyContext> {
        &self.ctx
    }

    #[inline]
    pub fn form(&self) -> Form {
        self.form
    }

    #[inline]
    pub fn num_limbs(&self) -> usize {
        self.limb_indices.len()
    }

    #[inline]
    pub fn limb_indices(&self) -> &[usize] {
        &self.limb_indices
    }

    #[inline]
    pub fn limb(&self, i: usize) -> &[u64] {
        let n = self.ctx.n;
        &self.data[i * n..(i + 1) * n]
    }

    #[inline]
    pub fn limb_mut(&mut self, i: usize) -> &mut [u64] {
        let n = self.ctx.n;
        &mut self.data[i * n..(i + 1) * n]
    }

    /// The whole limb-major residue buffer (limb `i` at `[i*n, (i+1)*n)`),
    /// for batched kernels and layout-aware tests.
    #[inline]
    pub fn limbs_flat(&self) -> &[u64] {
        &self.data
    }

    #[inline]
    pub fn limb_modulus(&self, i: usize) -> &Modulus {
        &self.ctx.moduli()[self.limb_indices[i]]
    }

    /// The limb over context modulus `idx`. Panics when it is absent.
    pub fn limb_for(&self, idx: usize) -> &[u64] {
        let pos = self
            .limb_indices
            .iter()
            .position(|&i| i == idx)
            .unwrap_or_else(|| panic!("limb {idx} not present"));
        self.limb(pos)
    }

    /// Runs `f(i, limb i of a, limb i of b)` over two polynomials on the
    /// same limbs, fanning limbs out across the pool by the same size
    /// rule as every other per-limb loop (`kernel::limbs_fan_out`).
    pub fn for_each_limb_pair(
        a: &mut Self,
        b: &mut Self,
        f: impl Fn(usize, &mut [u64], &mut [u64]) + Sync,
    ) {
        a.assert_compatible(b);
        let n = a.ctx.n();
        let step = |(i, (x, y)): (usize, (&mut [u64], &mut [u64]))| f(i, x, y);
        if kernel::limbs_fan_out(n, a.num_limbs()) {
            a.data
                .par_chunks_mut(n)
                .zip(b.data.par_chunks_mut(n))
                .enumerate()
                .for_each(step);
        } else {
            a.data
                .chunks_mut(n)
                .zip(b.data.chunks_mut(n))
                .enumerate()
                .for_each(step);
        }
    }

    fn assert_compatible(&self, other: &Self) {
        assert!(
            Arc::ptr_eq(&self.ctx, &other.ctx),
            "polynomials from different contexts"
        );
        assert_eq!(self.form, other.form, "form mismatch");
        assert_eq!(self.limb_indices, other.limb_indices, "limb set mismatch");
    }

    /// In-place forward NTT of every limb — one batched call; the kernel
    /// backend is resolved once for the whole polynomial.
    pub fn ntt_forward(&mut self) {
        assert_eq!(self.form, Form::Coeff, "already in NTT form");
        let ctx = Arc::clone(&self.ctx);
        let tables: Vec<&NttTable> = self
            .limb_indices
            .iter()
            .map(|&idx| ctx.ntt_table(idx))
            .collect();
        kernel::ntt_forward_batch(&tables, &mut self.data);
        self.form = Form::Ntt;
    }

    /// In-place inverse NTT of every limb (batched, like
    /// [`Self::ntt_forward`]).
    pub fn ntt_inverse(&mut self) {
        assert_eq!(self.form, Form::Ntt, "already in coefficient form");
        let ctx = Arc::clone(&self.ctx);
        let tables: Vec<&NttTable> = self
            .limb_indices
            .iter()
            .map(|&idx| ctx.ntt_table(idx))
            .collect();
        kernel::ntt_inverse_batch(&tables, &mut self.data);
        self.form = Form::Coeff;
    }

    /// `self += other`.
    pub fn add_assign(&mut self, other: &Self) {
        self.assert_compatible(other);
        let ctx = Arc::clone(&self.ctx);
        let indices = self.limb_indices.clone();
        let n = ctx.n();
        for (i, (data, rhs)) in self
            .data
            .chunks_mut(n)
            .zip(other.data.chunks(n))
            .enumerate()
        {
            let m = ctx.moduli()[indices[i]];
            for (a, &b) in data.iter_mut().zip(rhs) {
                *a = m.add(*a, b);
            }
        }
    }

    /// `self -= other`.
    pub fn sub_assign(&mut self, other: &Self) {
        self.assert_compatible(other);
        let ctx = Arc::clone(&self.ctx);
        let indices = self.limb_indices.clone();
        let n = ctx.n();
        for (i, (data, rhs)) in self
            .data
            .chunks_mut(n)
            .zip(other.data.chunks(n))
            .enumerate()
        {
            let m = ctx.moduli()[indices[i]];
            for (a, &b) in data.iter_mut().zip(rhs) {
                *a = m.sub(*a, b);
            }
        }
    }

    /// `self = -self`.
    pub fn neg_assign(&mut self) {
        let ctx = Arc::clone(&self.ctx);
        let indices = self.limb_indices.clone();
        let n = ctx.n();
        for (i, data) in self.data.chunks_mut(n).enumerate() {
            let m = ctx.moduli()[indices[i]];
            for a in data.iter_mut() {
                *a = m.neg(*a);
            }
        }
    }

    /// Pointwise product (NTT form): `self *= other`.
    pub fn mul_assign(&mut self, other: &Self) {
        self.assert_compatible(other);
        assert_eq!(self.form, Form::Ntt, "multiplication requires NTT form");
        he_trace::record_modmul_limbs(self.num_limbs() as u64);
        let backend = kernel::active_backend();
        let ctx = Arc::clone(&self.ctx);
        let indices = self.limb_indices.clone();
        let n = ctx.n();
        let mul = |(i, data): (usize, &mut [u64])| {
            let m = ctx.moduli()[indices[i]];
            kernel::dyadic_mul_assign_with(backend, &m, data, &other.data[i * n..(i + 1) * n]);
        };
        if kernel::limbs_fan_out(n, indices.len()) {
            self.data.par_chunks_mut(n).enumerate().for_each(mul);
        } else {
            self.data.chunks_mut(n).enumerate().for_each(mul);
        }
    }

    /// `self += a * b` (all NTT form). The fused form of the homomorphic
    /// weighted sums in Eq. (1) of the paper.
    pub fn mul_acc(&mut self, a: &Self, b: &Self) {
        self.assert_compatible(a);
        self.assert_compatible(b);
        assert_eq!(self.form, Form::Ntt);
        he_trace::record_modmul_limbs(self.num_limbs() as u64);
        let backend = kernel::active_backend();
        let ctx = Arc::clone(&self.ctx);
        let indices = self.limb_indices.clone();
        let n = ctx.n();
        let mac = |(i, acc): (usize, &mut [u64])| {
            let m = ctx.moduli()[indices[i]];
            let limb = i * n..(i + 1) * n;
            kernel::dyadic_mul_acc_with(backend, &m, acc, &a.data[limb.clone()], &b.data[limb]);
        };
        if kernel::limbs_fan_out(n, indices.len()) {
            self.data.par_chunks_mut(n).enumerate().for_each(mac);
        } else {
            self.data.chunks_mut(n).enumerate().for_each(mac);
        }
    }

    /// Multiplies limb `i` by scalar `s_i` (scalars given per limb,
    /// already reduced).
    pub fn mul_scalar_per_limb(&mut self, scalars: &[u64]) {
        assert_eq!(scalars.len(), self.num_limbs());
        he_trace::record_modmul_limbs(self.num_limbs() as u64);
        let backend = kernel::active_backend();
        let ctx = Arc::clone(&self.ctx);
        let indices = self.limb_indices.clone();
        let n = ctx.n();
        for (i, data) in self.data.chunks_mut(n).enumerate() {
            let m = ctx.moduli()[indices[i]];
            let s = m.reduce(scalars[i]);
            let ss = m.shoup(s);
            kernel::mul_scalar_shoup_with(backend, &m, data, s, ss);
        }
    }

    /// Applies the Galois automorphism `X ↦ X^k` (k odd, coefficient form).
    pub fn automorphism(&self, k: usize) -> Self {
        assert_eq!(self.form, Form::Coeff, "automorphism requires Coeff form");
        let n = self.ctx.n();
        assert!(k % 2 == 1 && k < 2 * n, "galois element must be odd, < 2N");
        let mut out = Self::zero(
            Arc::clone(&self.ctx),
            self.limb_indices.clone(),
            Form::Coeff,
        );
        for li in 0..self.num_limbs() {
            let m = self.ctx.moduli()[self.limb_indices[li]];
            let src = &self.data[li * n..(li + 1) * n];
            let dst = &mut out.data[li * n..(li + 1) * n];
            for (i, &c) in src.iter().enumerate() {
                let j = (i * k) % (2 * n);
                if j < n {
                    dst[j] = m.add(dst[j], c);
                } else {
                    dst[j - n] = m.sub(dst[j - n], c);
                }
            }
        }
        out
    }

    /// Divides both polynomials, rounding, by the product `P` of their
    /// last `k` limbs — `conv`'s source moduli, in order — and drops
    /// those limbs: the one limb-dropping division, for a rescale (one
    /// chain prime, `k = 1`) and a key-switch mod-down (the special
    /// primes) alike. Each remaining limb becomes `(a − conv([a]_P))·P⁻¹`
    /// with `p_inv[i]` = `P⁻¹` mod limb `i`'s modulus and `conv`'s
    /// targets indexed by context modulus. With one dropped limb `conv`
    /// is its centred lift, exact; with more, the fast conversion's `e·P`
    /// overflow (`|e| ≤ k/2`) shifts the result by at most `k/2`.
    ///
    /// Stays in NTT form: only the dropped limbs are inverse-transformed,
    /// and each remaining limb task converts, forward-transforms and
    /// subtracts for both halves, with one lift buffer per task. The NTT
    /// is exact and linear, so the result is limb-identical to applying
    /// the formula to coefficients.
    pub fn divide_by_last_limbs(
        a: &mut Self,
        b: &mut Self,
        conv: &FastBaseConverter,
        p_inv: &[u64],
    ) {
        a.assert_compatible(b);
        assert_eq!(a.form, Form::Ntt, "divide_by_last_limbs requires NTT form");
        let k = conv.source().len();
        assert!(a.num_limbs() > k, "cannot drop every limb");
        let rest = a.num_limbs() - k;
        assert_eq!(p_inv.len(), rest, "one P⁻¹ per remaining limb");
        let (n, ctx) = (a.ctx.n(), Arc::clone(&a.ctx));
        let dropped = a.limb_indices.split_off(rest);
        b.limb_indices.truncate(rest);
        assert!(
            dropped
                .iter()
                .zip(conv.source())
                .all(|(&idx, q)| ctx.moduli()[idx] == *q),
            "dropped limbs are not the converter's source"
        );
        let backend = kernel::active_backend();
        let mut tails = [a.data.split_off(rest * n), b.data.split_off(rest * n)];
        for tail in &mut tails {
            for (s, limb) in tail.chunks_mut(n).enumerate() {
                ctx.ntt_table(dropped[s]).inverse(limb);
                conv.scale_input(backend, s, limb);
            }
        }

        he_trace::record_ntt_fwd(2 * rest as u64);
        let indices = a.limb_indices.clone();
        Self::for_each_limb_pair(a, b, |i, x, y| {
            let (m, table) = (ctx.moduli()[indices[i]], ctx.ntt_table(indices[i]));
            let mut lift = vec![0u64; n];
            for (dst, tail) in [(x, &tails[0]), (y, &tails[1])] {
                conv.convert_into(backend, tail, indices[i], &mut lift);
                kernel::ntt_forward_with(backend, table, &mut lift);
                kernel::sub_mul_shoup_with(backend, &m, dst, &lift, p_inv[i], m.shoup(p_inv[i]));
            }
        });
    }

    /// Drops the last limb without folding it into the others (see
    /// [`Self::divide_by_last_limbs`] for the rescaling form).
    pub fn drop_last_limb(&mut self) {
        assert!(self.num_limbs() > 1, "cannot drop the only limb");
        self.limb_indices.pop();
        self.data.truncate(self.limb_indices.len() * self.ctx.n());
    }

    /// Keeps only the first `k` limbs.
    pub fn truncate_limbs(&mut self, k: usize) {
        assert!(k >= 1 && k <= self.num_limbs());
        self.limb_indices.truncate(k);
        self.data.truncate(k * self.ctx.n());
    }

    /// Returns a copy restricted to the given context-modulus indices
    /// (each must be present in this polynomial). Works in either form
    /// since limbs are independent.
    pub fn restrict(&self, indices: &[usize]) -> Self {
        let mut data = Vec::with_capacity(self.ctx.n() * indices.len());
        for &idx in indices {
            data.extend_from_slice(self.limb_for(idx));
        }
        Self {
            ctx: Arc::clone(&self.ctx),
            limb_indices: indices.to_vec(),
            data,
            form: self.form,
        }
    }

    /// Extracts the residues of coefficient `i` across limbs.
    pub fn coeff_residues(&self, i: usize) -> Vec<u64> {
        let n = self.ctx.n();
        (0..self.num_limbs())
            .map(|li| self.data[li * n + i])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::gen_moduli_chain;

    fn ctx(n: usize) -> Arc<PolyContext> {
        let chain = gen_moduli_chain(&[40, 40, 40], n);
        let special = gen_moduli_chain(&[50], n)
            .into_iter()
            .filter(|m| !chain.contains(m))
            .collect();
        PolyContext::new(n, chain, special)
    }

    #[test]
    fn context_shape() {
        let c = ctx(64);
        assert_eq!(c.chain_len(), 3);
        assert_eq!(c.num_special(), 1);
        assert_eq!(c.moduli().len(), 4);
    }

    #[test]
    fn ntt_roundtrip_poly() {
        let c = ctx(64);
        let mut s = Sampler::from_seed(1);
        let mut p = RnsPoly::uniform(Arc::clone(&c), vec![0, 1, 2], Form::Coeff, &mut s);
        let orig = p.clone();
        p.ntt_forward();
        assert_eq!(p.form(), Form::Ntt);
        p.ntt_inverse();
        for i in 0..p.num_limbs() {
            assert_eq!(p.limb(i), orig.limb(i));
        }
    }

    /// Sizes past the fan-out thresholds give the same limbs whether the
    /// pool splits them or `install(1)` keeps them on one thread.
    #[test]
    fn parallel_matches_sequential() {
        let n = crate::kernel::LIMB_FAN_OUT_MIN_N;
        let k = 4;
        assert!(crate::kernel::limbs_fan_out(n, k));
        let c = PolyContext::new(n, gen_moduli_chain(&[30; 4], n), vec![]);
        let mut s = Sampler::from_seed(2);
        let limbs: Vec<usize> = (0..k).collect();
        let p0 = RnsPoly::uniform(Arc::clone(&c), limbs.clone(), Form::Coeff, &mut s);
        let q0 = RnsPoly::uniform(Arc::clone(&c), limbs, Form::Coeff, &mut s);
        let run = || {
            let (mut p, mut q) = (p0.clone(), q0.clone());
            p.ntt_forward();
            q.ntt_forward();
            let mut acc = p.clone();
            acc.mul_acc(&p, &q);
            p.mul_assign(&q);
            acc.ntt_inverse();
            (p, acc)
        };
        let (par_p, par_acc) = run();
        let one = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let (seq_p, seq_acc) = one.install(run);
        assert_eq!(par_p.limbs_flat(), seq_p.limbs_flat());
        assert_eq!(par_acc.limbs_flat(), seq_acc.limbs_flat());
    }

    /// A superset-limb operand's limb of a modulus is the one its
    /// `restrict`ed copy holds (the key-switch digit path reads key
    /// digits this way at any level).
    #[test]
    fn limb_for_matches_restrict() {
        let c = ctx(64);
        let mut s = Sampler::from_seed(5);
        let key = RnsPoly::uniform(Arc::clone(&c), vec![0, 1, 2, 3], Form::Ntt, &mut s);
        let sub = key.restrict(&[0, 3]);
        assert_eq!(key.limb_for(0), sub.limb(0));
        assert_eq!(key.limb_for(3), sub.limb(1));
        assert_eq!(sub.limb_for(3), sub.limb(1));
    }

    #[test]
    fn add_sub_neg() {
        let c = ctx(64);
        let mut s = Sampler::from_seed(3);
        let a = RnsPoly::uniform(Arc::clone(&c), vec![0, 1], Form::Coeff, &mut s);
        let b = RnsPoly::uniform(Arc::clone(&c), vec![0, 1], Form::Coeff, &mut s);
        let mut sum = a.clone();
        sum.add_assign(&b);
        sum.sub_assign(&b);
        for i in 0..2 {
            assert_eq!(sum.limb(i), a.limb(i));
        }
        let mut neg = a.clone();
        neg.neg_assign();
        neg.add_assign(&a);
        assert!(neg.limbs_flat().iter().all(|&x| x == 0));
    }

    #[test]
    fn mul_matches_convolution_per_limb() {
        let c = ctx(64);
        let mut s = Sampler::from_seed(4);
        let a = RnsPoly::uniform(Arc::clone(&c), vec![0], Form::Coeff, &mut s);
        let b = RnsPoly::uniform(Arc::clone(&c), vec![0], Form::Coeff, &mut s);
        let m = *a.limb_modulus(0);
        let expect = crate::ntt::negacyclic_convolution_naive(a.limb(0), b.limb(0), &m);
        let mut fa = a.clone();
        let mut fb = b.clone();
        fa.ntt_forward();
        fb.ntt_forward();
        fa.mul_assign(&fb);
        fa.ntt_inverse();
        assert_eq!(fa.limb(0), expect.as_slice());
    }

    #[test]
    fn mul_acc_is_fused_multiply_add() {
        let c = ctx(64);
        let mut s = Sampler::from_seed(5);
        let mut a = RnsPoly::uniform(Arc::clone(&c), vec![0, 1], Form::Coeff, &mut s);
        let mut b = RnsPoly::uniform(Arc::clone(&c), vec![0, 1], Form::Coeff, &mut s);
        a.ntt_forward();
        b.ntt_forward();
        let mut acc = RnsPoly::zero(Arc::clone(&c), vec![0, 1], Form::Ntt);
        acc.mul_acc(&a, &b);
        let mut prod = a.clone();
        prod.mul_assign(&b);
        for i in 0..2 {
            assert_eq!(acc.limb(i), prod.limb(i));
        }
    }

    #[test]
    fn automorphism_composition() {
        // σ_k ∘ σ_j = σ_{kj mod 2N}
        let c = ctx(32);
        let mut s = Sampler::from_seed(6);
        let p = RnsPoly::uniform(Arc::clone(&c), vec![0, 1], Form::Coeff, &mut s);
        let k = 5usize;
        let j = 9usize;
        let lhs = p.automorphism(k).automorphism(j);
        let rhs = p.automorphism((k * j) % 64);
        for i in 0..2 {
            assert_eq!(lhs.limb(i), rhs.limb(i));
        }
    }

    #[test]
    fn automorphism_identity_and_sign() {
        let c = ctx(32);
        let mut s = Sampler::from_seed(7);
        let p = RnsPoly::uniform(Arc::clone(&c), vec![0], Form::Coeff, &mut s);
        let id = p.automorphism(1);
        assert_eq!(id.limb(0), p.limb(0));
        // σ_{2N-1} is "conjugation": X -> X^{2N-1} = X^{-1}; applying twice = id
        let conj2 = p.automorphism(63).automorphism(63);
        assert_eq!(conj2.limb(0), p.limb(0));
    }

    #[test]
    fn scalar_multiplication() {
        let c = ctx(32);
        let mut s = Sampler::from_seed(8);
        let p = RnsPoly::uniform(Arc::clone(&c), vec![0, 1], Form::Coeff, &mut s);
        let mut doubled = p.clone();
        doubled.mul_scalar_per_limb(&[2, 2]);
        let mut summed = p.clone();
        summed.add_assign(&p);
        for i in 0..2 {
            assert_eq!(doubled.limb(i), summed.limb(i));
        }
    }

    #[test]
    fn limb_management() {
        let c = ctx(32);
        let mut p = RnsPoly::zero(Arc::clone(&c), vec![0, 1, 2], Form::Coeff);
        p.drop_last_limb();
        assert_eq!(p.limb_indices(), &[0, 1]);
        assert_eq!(p.limbs_flat().len(), 2 * 32);
        p.truncate_limbs(1);
        assert_eq!(p.limb_indices(), &[0]);
    }

    #[test]
    fn flat_layout_is_limb_major() {
        let c = ctx(32);
        let mut s = Sampler::from_seed(10);
        let p = RnsPoly::uniform(Arc::clone(&c), vec![0, 1, 2], Form::Coeff, &mut s);
        let flat = p.limbs_flat();
        assert_eq!(flat.len(), 3 * 32);
        for i in 0..p.num_limbs() {
            assert_eq!(&flat[i * 32..(i + 1) * 32], p.limb(i));
        }
    }

    #[test]
    #[should_panic]
    fn mul_requires_ntt_form() {
        let c = ctx(32);
        let mut s = Sampler::from_seed(9);
        let mut a = RnsPoly::uniform(Arc::clone(&c), vec![0], Form::Coeff, &mut s);
        let b = a.clone();
        a.mul_assign(&b);
    }

    #[test]
    #[should_panic]
    fn mismatched_limbs_rejected() {
        let c = ctx(32);
        let mut a = RnsPoly::zero(Arc::clone(&c), vec![0, 1], Form::Coeff);
        let b = RnsPoly::zero(Arc::clone(&c), vec![0], Form::Coeff);
        a.add_assign(&b);
    }
}
