//! # cnn-he
//!
//! Privacy-preserving CNN inference over RNS-CKKS — the paper's primary
//! contribution. Provides:
//!
//! * extraction of trained `neural` models (with BatchNorm folding) into
//!   HE-evaluable networks of conv / dense / SLAF layers ([`network`],
//!   [`he_layers`]);
//! * one lowering of such a network to an `he-ir` circuit — one region
//!   per layer, one unit per output scalar or SLAF ciphertext
//!   ([`graph`]) — which admission lints and `he_ir::Prepared` runs;
//! * the RNS input-signal decomposition of Figs. 2/5 — residue (CRT) and
//!   mixed-radix digit forms ([`rns_input`]);
//! * execution accounting: [`exec::ExecMode`] caps how many threads a
//!   region's units use, and the `k`-stream CNN-HE-RNS scheduling
//!   simulation is validated against measured wall-clock ([`exec`]);
//! * the end-to-end encrypt → evaluate → decrypt pipeline ([`pipeline`]);
//! * static admission: the standard passes over the lowered circuit
//!   ([`analyze`]), from a pipeline or from a HENT model file ([`model`],
//!   `he-ir check`);
//! * runtime telemetry: per-region spans, HE op counters, and noise-drain
//!   sampling, cross-checked against the circuit that ran ([`trace`],
//!   [`pipeline::CnnHePipeline::traced_infer`]).

#![forbid(unsafe_code)]

pub mod analyze;
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
