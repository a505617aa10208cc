//! CKKS-RNS parameter sets and the shared scheme context.
//!
//! A [`CkksParams`] describes the ring degree, the ciphertext modulus
//! chain (bit sizes), the key-switching ("special") primes, the encoding
//! scale Δ and the target security level. [`CkksContext`] materializes the
//! parameters: concrete NTT-friendly primes, NTT tables, the canonical
//! embedding, per-level RNS bases and the rescaling / key-switching
//! scalar precomputations.

use crate::security::SecurityLevel;
use ckks_math::bigint::BigInt;
use ckks_math::fft::EmbeddingTable;
use ckks_math::modring::Modulus;
use ckks_math::poly::PolyContext;
use ckks_math::prime::{try_gen_moduli_chain, PrimeShortage};
use ckks_math::rns::RnsBasis;
use std::sync::Arc;

/// Declarative CKKS-RNS parameter set.
#[derive(Debug, Clone)]
pub struct CkksParams {
    /// Ring degree `N` (power of two). Slots = `N/2`.
    pub n: usize,
    /// Bit sizes of the ciphertext chain `q_0, …, q_L` (first entry is the
    /// decryption modulus, the rest are rescaling primes ≈ Δ).
    pub chain_bits: Vec<u32>,
    /// Bit sizes of the key-switching special primes (usually one ~60-bit
    /// or ~40-bit prime).
    pub special_bits: Vec<u32>,
    /// log₂ of the encoding scale Δ.
    pub scale_bits: u32,
    /// Security level to validate against the HE standard.
    pub security: SecurityLevel,
}

impl CkksParams {
    /// The paper's Table II setting: `N = 2^14`, `Δ = 2^26`, λ = 128,
    /// chain `[40, 26 × L]` plus one 40-bit special prime, `L = 13`.
    pub fn paper_table2() -> Self {
        let mut chain_bits = vec![40u32];
        chain_bits.extend(std::iter::repeat_n(26, 13));
        Self {
            n: 1 << 14,
            chain_bits,
            special_bits: vec![40],
            scale_bits: 26,
            security: SecurityLevel::Bits128,
        }
    }

    /// A reduced setting with the same shape (`Δ = 2^26`, 40-bit ends)
    /// but ring degree 2^12 and `depth` rescaling levels — used by tests
    /// and fast examples. Security checking is disabled: the modulus is
    /// deliberately too big for 2^12 to keep the arithmetic identical to
    /// the full-size setting.
    pub fn toy(depth: usize) -> Self {
        let mut chain_bits = vec![40u32];
        chain_bits.extend(std::iter::repeat_n(26, depth));
        Self {
            n: 1 << 12,
            chain_bits,
            special_bits: vec![40],
            scale_bits: 26,
            security: SecurityLevel::None,
        }
    }

    /// Smallest usable setting for unit tests (`N = 2^10`).
    pub fn tiny(depth: usize) -> Self {
        let mut chain_bits = vec![40u32];
        chain_bits.extend(std::iter::repeat_n(26, depth));
        Self {
            n: 1 << 10,
            chain_bits,
            special_bits: vec![40],
            scale_bits: 26,
            security: SecurityLevel::None,
        }
    }

    /// Maximum multiplicative depth `L` (number of rescaling primes).
    pub fn depth(&self) -> usize {
        self.chain_bits.len() - 1
    }

    /// Δ as a float.
    pub fn scale(&self) -> f64 {
        2f64.powi(self.scale_bits as i32)
    }

    /// Total `log₂(PQ)` (chain + special), the quantity the HE standard
    /// bounds.
    pub fn total_log_q(&self) -> u32 {
        self.chain_bits.iter().chain(&self.special_bits).sum()
    }

    /// Number of usable slots (`N/2`).
    pub fn slots(&self) -> usize {
        self.n / 2
    }

    /// `log₂(Q_ℓ)` of the chain prefix `q_0..q_level` — the modulus a
    /// ciphertext at `level` lives under. Bit sizes are nominal (each
    /// generated prime is within one part in ~2¹¹ of its power of two),
    /// which is what static analysis tracks.
    pub fn log_q_at_level(&self, level: usize) -> f64 {
        assert!(level < self.chain_bits.len(), "level beyond the chain");
        self.chain_bits[..=level].iter().map(|&b| b as f64).sum()
    }

    /// Galois element realizing a left rotation by `steps` slots —
    /// `5^(steps mod N/2) mod 2N`, the same element a built
    /// [`CkksContext`] resolves, computable without NTT tables.
    pub fn galois_element_for_rotation(&self, steps: i64) -> usize {
        let slots = self.slots() as i64;
        let r = steps.rem_euclid(slots) as usize;
        let two_n = 2 * self.n;
        let mut g = 1usize;
        for _ in 0..r {
            g = (g * 5) % two_n;
        }
        g
    }

    /// Galois element of complex conjugation (`X ↦ X^{2N−1}`).
    pub fn galois_element_conjugate(&self) -> usize {
        2 * self.n - 1
    }

    /// The concrete primes, chain then special, all distinct — one pass
    /// over both lists. Refuses when a size has no unused prime
    /// `≡ 1 (mod 2N)` left.
    pub fn gen_moduli(&self) -> Result<Vec<Modulus>, PrimeShortage> {
        let all_bits: Vec<u32> = self
            .chain_bits
            .iter()
            .chain(&self.special_bits)
            .copied()
            .collect();
        try_gen_moduli_chain(&all_bits, self.n)
    }

    /// Builds the full context; panics on invalid or insecure parameters.
    pub fn build(self) -> Arc<CkksContext> {
        CkksContext::new(self)
    }
}

/// Materialized CKKS-RNS context shared by keys, ciphertexts and the
/// evaluator.
pub struct CkksContext {
    params: CkksParams,
    poly_ctx: Arc<PolyContext>,
    embedding: EmbeddingTable,
    /// RNS basis over chain prefix `q_0..q_k` for every `k = 1..=L+1`
    /// (index `k-1`), used by decoding and cross-validation.
    level_bases: Vec<RnsBasis>,
    /// For rescaling by `q_k` (dropping limb `k`): `q_k^{-1} mod q_i` for
    /// `i < k`; indexed `[k][i]`.
    rescale_inv: Vec<Vec<u64>>,
    /// Product of the special primes `P` …
    big_p: BigInt,
    /// … reduced mod each chain prime: `[P]_{q_i}`.
    p_mod_qi: Vec<u64>,
    /// `P^{-1} mod q_i`.
    p_inv_mod_qi: Vec<u64>,
    /// `5^j mod 2N` for slot rotations.
    five_pows: Vec<usize>,
}

impl CkksContext {
    fn new(params: CkksParams) -> Arc<Self> {
        assert!(params.n.is_power_of_two() && params.n >= 8);
        assert!(!params.chain_bits.is_empty());
        params
            .security
            .validate(params.n, params.total_log_q())
            .unwrap_or_else(|e| panic!("insecure parameters: {e}"));

        let all_moduli = params
            .gen_moduli()
            .unwrap_or_else(|e| panic!("unservable prime sizes: {e}"));
        let chain_len = params.chain_bits.len();
        let chain: Vec<Modulus> = all_moduli[..chain_len].to_vec();
        let special: Vec<Modulus> = all_moduli[chain_len..].to_vec();

        let poly_ctx = PolyContext::new(params.n, chain.clone(), special.clone());
        let embedding = EmbeddingTable::new(params.n);

        let level_bases: Vec<RnsBasis> = (1..=chain_len)
            .map(|k| RnsBasis::new(chain[..k].to_vec()))
            .collect();

        let rescale_inv: Vec<Vec<u64>> = (0..chain_len)
            .map(|k| {
                (0..k)
                    .map(|i| chain[i].inv(chain[i].reduce(chain[k].value())))
                    .collect()
            })
            .collect();

        let big_p = special
            .iter()
            .fold(BigInt::one(), |acc, m| acc.mul_u64(m.value()));
        let p_mod_qi: Vec<u64> = chain.iter().map(|m| big_p.rem_u64(m.value())).collect();
        let p_inv_mod_qi: Vec<u64> = chain
            .iter()
            .zip(&p_mod_qi)
            .map(|(m, &p)| m.inv(p))
            .collect();

        let two_n = 2 * params.n;
        let mut five_pows = Vec::with_capacity(params.n / 2);
        let mut f = 1usize;
        for _ in 0..params.n / 2 {
            five_pows.push(f);
            f = (f * 5) % two_n;
        }

        Arc::new(Self {
            params,
            poly_ctx,
            embedding,
            level_bases,
            rescale_inv,
            big_p,
            p_mod_qi,
            p_inv_mod_qi,
            five_pows,
        })
    }

    #[inline]
    pub fn params(&self) -> &CkksParams {
        &self.params
    }

    #[inline]
    pub fn n(&self) -> usize {
        self.params.n
    }

    /// Number of usable slots (`N/2`).
    #[inline]
    pub fn slots(&self) -> usize {
        self.params.n / 2
    }

    #[inline]
    pub fn poly_ctx(&self) -> &Arc<PolyContext> {
        &self.poly_ctx
    }

    #[inline]
    pub fn embedding(&self) -> &EmbeddingTable {
        &self.embedding
    }

    /// Chain moduli `q_0..q_L`.
    pub fn chain_moduli(&self) -> &[Modulus] {
        &self.poly_ctx.moduli()[..self.poly_ctx.chain_len()]
    }

    /// Special (key-switching) moduli.
    pub fn special_moduli(&self) -> &[Modulus] {
        &self.poly_ctx.moduli()[self.poly_ctx.chain_len()..]
    }

    /// Highest level of a fresh ciphertext (`L`).
    #[inline]
    pub fn max_level(&self) -> usize {
        self.poly_ctx.chain_len() - 1
    }

    /// RNS basis of the chain prefix `q_0..q_level`.
    pub fn level_basis(&self, level: usize) -> &RnsBasis {
        &self.level_bases[level]
    }

    /// `q_k^{-1} mod q_i` scalars for rescaling from level `k` (dropping
    /// limb `k`); slice indexed by `i < k`.
    pub fn rescale_inv(&self, k: usize) -> &[u64] {
        &self.rescale_inv[k]
    }

    #[inline]
    pub fn big_p(&self) -> &BigInt {
        &self.big_p
    }

    #[inline]
    pub fn p_mod_qi(&self) -> &[u64] {
        &self.p_mod_qi
    }

    #[inline]
    pub fn p_inv_mod_qi(&self) -> &[u64] {
        &self.p_inv_mod_qi
    }

    /// Galois element realizing a left rotation by `steps` slots
    /// (`steps` may wrap; negative steps = right rotation).
    pub fn galois_element_for_rotation(&self, steps: i64) -> usize {
        let slots = self.slots() as i64;
        let r = steps.rem_euclid(slots) as usize;
        self.five_pows[r]
    }

    /// Galois element of complex conjugation (`X ↦ X^{2N-1}`).
    pub fn galois_element_conjugate(&self) -> usize {
        2 * self.params.n - 1
    }

    /// Human-readable one-line summary (used by the Table II harness).
    pub fn describe(&self) -> String {
        format!(
            "N=2^{} λ={} Δ=2^{} chain_bits={:?} special_bits={:?} log(PQ)={} L={}",
            self.params.n.trailing_zeros(),
            self.params.security.lambda(),
            self.params.scale_bits,
            self.params.chain_bits,
            self.params.special_bits,
            self.params.total_log_q(),
            self.params.depth(),
        )
    }
}

impl std::fmt::Debug for CkksContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CkksContext({})", self.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_context_builds() {
        let ctx = CkksParams::tiny(3).build();
        assert_eq!(ctx.n(), 1 << 10);
        assert_eq!(ctx.max_level(), 3);
        assert_eq!(ctx.chain_moduli().len(), 4);
        assert_eq!(ctx.special_moduli().len(), 1);
        assert_eq!(ctx.slots(), 512);
    }

    #[test]
    fn paper_params_build_and_are_secure() {
        let p = CkksParams::paper_table2();
        assert_eq!(p.n, 1 << 14);
        assert_eq!(p.depth(), 13);
        assert_eq!(p.scale_bits, 26);
        assert!(p.security.validate(p.n, p.total_log_q()).is_ok());
        // building materializes ~16k-degree NTT tables for 15 primes — keep
        // it in one test only
        let ctx = p.build();
        assert_eq!(ctx.max_level(), 13);
    }

    #[test]
    #[should_panic(expected = "insecure parameters")]
    fn insecure_params_rejected() {
        let mut p = CkksParams::paper_table2();
        p.chain_bits.extend([60, 60, 60]); // blow past 438 bits
        let _ = p.build();
    }

    #[test]
    fn rescale_scalars_are_inverses() {
        let ctx = CkksParams::tiny(3).build();
        let chain = ctx.chain_moduli();
        for k in 1..chain.len() {
            for i in 0..k {
                let qk = chain[i].reduce(chain[k].value());
                let inv = ctx.rescale_inv(k)[i];
                assert_eq!(chain[i].mul(qk, inv), 1);
            }
        }
    }

    #[test]
    fn p_scalars_consistent() {
        let ctx = CkksParams::tiny(2).build();
        for (i, m) in ctx.chain_moduli().iter().enumerate() {
            assert_eq!(m.mul(ctx.p_mod_qi()[i], ctx.p_inv_mod_qi()[i]), 1);
            assert_eq!(ctx.big_p().rem_u64(m.value()), ctx.p_mod_qi()[i]);
        }
    }

    #[test]
    fn params_galois_elements_match_context() {
        let params = CkksParams::tiny(1);
        let ctx = params.clone().build();
        for steps in [0i64, 1, 2, 7, -1, -3, 511, 513] {
            assert_eq!(
                params.galois_element_for_rotation(steps),
                ctx.galois_element_for_rotation(steps),
                "steps {steps}"
            );
        }
        assert_eq!(
            params.galois_element_conjugate(),
            ctx.galois_element_conjugate()
        );
        assert_eq!(params.slots(), ctx.slots());
    }

    #[test]
    fn log_q_accumulates_chain_bits() {
        let p = CkksParams::tiny(3); // chain [40, 26, 26, 26]
        assert_eq!(p.log_q_at_level(0), 40.0);
        assert_eq!(p.log_q_at_level(3), 40.0 + 3.0 * 26.0);
    }

    #[test]
    fn galois_elements() {
        let ctx = CkksParams::tiny(1).build();
        assert_eq!(ctx.galois_element_for_rotation(0), 1);
        assert_eq!(ctx.galois_element_for_rotation(1), 5);
        assert_eq!(ctx.galois_element_for_rotation(2), 25);
        let slots = ctx.slots() as i64;
        assert_eq!(
            ctx.galois_element_for_rotation(-1),
            ctx.galois_element_for_rotation(slots - 1)
        );
        assert_eq!(ctx.galois_element_conjugate(), 2 * ctx.n() - 1);
    }
}
