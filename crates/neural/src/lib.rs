//! # neural
//!
//! A compact CNN training framework supporting the paper's experimental
//! pipeline: tensors, convolution / dense / batch-norm layers, ReLU and
//! polynomial (SLAF) activations with full backpropagation, SGD
//! with momentum under a 1-cycle learning-rate policy, Kaiming
//! initialization, and an MNIST substrate (real IDX loader + procedural
//! synthetic generator).
//!
//! The HE engine in `cnn-he` consumes models trained here: it extracts
//! the frozen weights and SLAF coefficients and re-evaluates the same
//! network over CKKS ciphertexts.

#![forbid(unsafe_code)]

pub mod init;
pub mod layers;
pub mod loss;
pub mod metrics;
pub mod mnist;
pub mod models;
pub mod optim;
pub mod slaf;
pub mod tensor;
pub mod train;

pub use layers::{Layer, Param, Sequential};
pub use models::ActKind;
pub use tensor::Tensor;
