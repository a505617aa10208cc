//! # cnn-he
//!
//! Privacy-preserving CNN inference over RNS-CKKS — the paper's primary
//! contribution. Provides:
//!
//! * homomorphic convolution / dense / SLAF-activation layers over
//!   ciphertext tensors with exact scale management ([`he_layers`]);
//! * extraction of trained `neural` models (with BatchNorm folding) into
//!   HE-evaluable networks ([`network`]);
//! * the RNS input-signal decomposition of Figs. 2/5 — residue (CRT) and
//!   mixed-radix digit forms ([`rns_input`]);
//! * execution: a real multi-threaded unit executor ([`exec::ExecMode`])
//!   with hoisted weight-residue tables ([`weights`]), plus `k`-stream
//!   CNN-HE-RNS scheduling simulation validated against measured
//!   wall-clock ([`exec`]);
//! * the end-to-end encrypt → evaluate → decrypt pipeline ([`pipeline`]);
//! * static admission: the network lowered to an `he-ir` circuit and
//!   checked by the standard passes ([`analyze`]), from a pipeline or
//!   from a HENT model file ([`model`], `he-ir check`);
//! * runtime telemetry: per-layer spans, HE op counters, and noise-drain
//!   sampling, cross-checked against the lowered circuit ([`trace`],
//!   [`pipeline::CnnHePipeline::traced_infer`]).

#![forbid(unsafe_code)]

pub mod analyze;
pub mod encrypted_weights;
pub mod exec;
pub mod graph;
pub mod he_layers;
pub mod he_tensor;
pub mod metrics;
pub mod model;
pub mod network;
pub mod packed;
pub mod packed_graph;
pub mod pipeline;
pub mod quantize;
pub mod rns_input;
pub mod throughput;
pub mod trace;
pub mod weights;

// downstream crates (he-serve, bench) report the active kernel backend
// without depending on ckks-math directly
pub use analyze::admission;
pub use ckks_math::kernel;
pub use exec::{ExecMode, ExecPlan, InferenceTiming, SimulationCheck, WallEwma};
pub use graph::{lower_network, EncodeSharing};
pub use he_tensor::CtTensor;
pub use metrics::LatencyStats;
pub use network::{HeLayerSpec, HeNetwork};
pub use packed_graph::{lower_packed, PackedLowering, PACKED_INPUT};
pub use pipeline::{Classification, CnnHePipeline, CompiledStats};
pub use rns_input::{RnsInputCodec, SignalDecomposition};
pub use trace::{InferenceTrace, LayerTrace};
pub use weights::WeightResidueTable;
