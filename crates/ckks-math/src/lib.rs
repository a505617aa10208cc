//! # ckks-math
//!
//! Number-theoretic substrates for the RNS-CKKS homomorphic encryption
//! stack: word-sized modular arithmetic with Barrett/Shoup reductions,
//! negacyclic NTTs with Harvey lazy butterflies, the complex special FFT
//! realizing the CKKS canonical embedding, NTT-friendly prime generation,
//! a small signed bignum, RNS basis machinery with fast base conversion,
//! and the RLWE samplers.
//!
//! Everything here is implemented from scratch; the only external
//! dependencies are `rand` (randomness) and `rayon` (limb parallelism).

// Unsafe code is denied workspace-wide; the sole first-party carve-out
// is `kernel`'s per-architecture SIMD submodules, which opt back in with
// narrowly scoped `#[allow(unsafe_code)]` + per-function safety
// comments (a `forbid` here would override that carve-out, so this
// crate relies on the workspace-level `deny`).

pub mod bigint;
pub mod fft;
pub mod kernel;
pub mod modring;
pub mod ntt;
pub mod poly;
pub mod prime;
pub mod rns;
pub mod sampler;

pub use bigint::BigInt;
pub use fft::{Complex, EmbeddingTable};
pub use kernel::KernelBackend;
pub use modring::Modulus;
pub use ntt::NttTable;
pub use poly::{Form, PolyContext, RnsPoly};
pub use rns::{FastBaseConverter, IntegerRns, RnsBasis};
pub use sampler::Sampler;
