//! # he-diff
//!
//! Differential correctness and fault-injection harness for the
//! RNS-CKKS stack.
//!
//! The paper's central soundness claim is that the RNS decomposition is
//! *exactly* equivalent to the monolithic pipeline — the speed-up is
//! pure parallelism, never approximation. This crate checks that claim
//! mechanically:
//!
//! * [`oracle`] — a seeded op-sequence generator ([`gen`]) whose every
//!   sequence is executed twice: once on the production RNS
//!   [`ckks::Evaluator`] and once on the arbitrary-precision
//!   [`ckks::bigckks::BigCkks`] reference. Decrypted outputs of both
//!   worlds must agree with the exact plaintext reference within an
//!   *analytically derived* bound composed from
//!   [`he_ir::NoiseModel`] — never a hand-tuned epsilon.
//! * [`ir`] — the third world: every sequence is also lowered to the
//!   `he-ir` circuit IR and interpreted with the same keys, and each
//!   register write must match the eager ciphertext **bit for bit**
//!   (limb for limb, zero tolerance), with the lowered circuit passing
//!   the full static-analysis suite. The fourth world
//!   ([`ir::run_compiled_vs_eager`], CLI `--compiled`) sends the same
//!   circuit through the optimizing pass pipeline first; optimization
//!   may legally change rounding (rescale sinking reorders divisions),
//!   so its contract is the analytic noise bound, not bit-equality.
//! * [`mod@minimize`] — failing sequences shrink to a minimal
//!   reproducing op list, reported with the replayable seed.
//! * `fault` (feature `fault-inject`) — deterministic corruption
//!   hooks plus guard wrappers proving that level admission,
//!   ciphertext validation, and the noise/headroom telemetry each
//!   detect the fault class they claim to guard against.
//!
//! Full two-world execution needs schoolbook-affordable rings, so the
//! harness ships its own `micro*` presets (N = 256 / 512 sharing the
//! paper's chain shape `[40, 26×L]`, Δ = 2²⁶); the workspace-level
//! `CkksParams` presets (including N = 2¹⁴) are covered by the
//! decryption-parity property tests in `tests/`, which cross-check the
//! RNS decryption path against bignum CRT arithmetic without paying for
//! schoolbook ciphertext ops.

#![forbid(unsafe_code)]

pub mod gen;
pub mod ir;
pub mod minimize;
pub mod oracle;
pub mod sim;

#[cfg(feature = "fault-inject")]
pub mod fault;

pub use gen::{generate, DiffOp};
pub use ir::{lower_ops, run_compiled_vs_eager, run_ir_vs_eager, CompiledReport, IrReport};
pub use minimize::{minimize, minimize_with};
pub use oracle::{run_sequence, DiffConfig, Divergence, RunReport};

use ckks::{CkksParams, SecurityLevel};

/// A named parameter preset the differential oracle runs against.
#[derive(Debug, Clone)]
pub struct Preset {
    pub name: &'static str,
    pub params: CkksParams,
}

/// Every oracle preset: micro rings where the O(N²) bignum reference is
/// affordable, covering depths 2 and 3 and two ring degrees.
pub fn presets() -> Vec<Preset> {
    vec![
        Preset {
            name: "micro2",
            params: CkksParams {
                n: 256,
                chain_bits: vec![40, 26, 26],
                special_bits: vec![40],
                scale_bits: 26,
                security: SecurityLevel::None,
            },
        },
        Preset {
            name: "micro3",
            params: CkksParams {
                n: 256,
                chain_bits: vec![40, 26, 26, 26],
                special_bits: vec![40],
                scale_bits: 26,
                security: SecurityLevel::None,
            },
        },
        Preset {
            name: "small3",
            params: CkksParams {
                n: 512,
                chain_bits: vec![40, 26, 26, 26],
                special_bits: vec![40],
                scale_bits: 26,
                security: SecurityLevel::None,
            },
        },
    ]
}

/// Looks up a preset by name.
pub fn preset(name: &str) -> Option<Preset> {
    presets().into_iter().find(|p| p.name == name)
}

/// Rotation steps the harness generates Galois keys for (both worlds).
pub const ROTATE_STEPS: [i64; 3] = [1, 2, 4];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_distinct_and_resolvable() {
        let all = presets();
        assert!(all.len() >= 3);
        for p in &all {
            assert!(preset(p.name).is_some());
            assert_eq!(p.params.scale_bits, 26, "paper scale");
            assert_eq!(p.params.chain_bits[0], 40, "paper chain head");
        }
        assert!(preset("nope").is_none());
    }
}
