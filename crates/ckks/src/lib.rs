//! # ckks
//!
//! A from-scratch implementation of the RNS variant of the CKKS
//! approximate homomorphic encryption scheme (Cheon–Kim–Kim–Song 2017;
//! full-RNS variant Cheon–Han–Kim–Kim–Song 2019), as used by the paper
//! *"Efficient Privacy-Preserving Convolutional Neural Networks with
//! CKKS-RNS for Encrypted Image Classification"*.
//!
//! Provides the scheme primitives of the paper's §II — `KeyGen`,
//! `Encrypt`, `Decrypt`, `Add`, `Mult` (+ relinearization), `Resc`,
//! `Rot` — over a double-CRT (RNS × NTT) polynomial representation, with
//! GHS (special-modulus) and BV key switching, HE-standard security
//! validation, a bignum reference implementation for cross-validation,
//! and binary serialization.

#![forbid(unsafe_code)]

pub mod bigckks;
pub mod ciphertext;
pub mod encoding;
pub mod error;
pub mod eval;
pub mod keys;
pub mod layout;
pub mod noise;
pub mod paramfile;
pub mod params;
pub mod security;
pub mod serialize;

pub use ciphertext::Ciphertext;
// re-exported so evaluator callers can pin or inspect the SIMD kernel
// backend without a direct ckks-math dependency
pub use ckks_math::kernel;
pub use encoding::{decode, decode_real, encode, encode_constant, encode_real, Plaintext};
pub use error::HeError;
pub use eval::{Evaluator, PreparedScalar, SCALE_RTOL};
pub use keys::{GaloisKeys, KeyGenerator, KeySwitchKey, KsVariant, PublicKey, RelinKey, SecretKey};
pub use layout::{encode_batched, PackLayout, ShardPlan};
pub use paramfile::parse_params;
pub use params::{CkksContext, CkksParams};
pub use security::SecurityLevel;
