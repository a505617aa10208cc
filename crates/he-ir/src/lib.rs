//! # he-ir
//!
//! A typed dataflow circuit IR for CKKS-RNS computations plus a static
//! analysis pass framework — phase 1 of the he-compile plan in
//! ROADMAP item 2.
//!
//! The `ckks` evaluator executes homomorphic ops as they are
//! issued; every whole-circuit property (level/scale
//! trajectory, rotation-key coverage, rescale placement, dead work) is
//! a property of the graph of those ops. This crate lifts a circuit
//! into an SSA-style graph first:
//!
//! - [`circuit::Circuit`]: nodes are HE ops ([`circuit::Op`]) with a
//!   per-node type ([`types::ValueTy`]) carrying `{level, scale, slots,
//!   layout, basis}` — computed once by the [`build::GraphBuilder`], which
//!   mirrors the eager `ckks::Evaluator` method-for-method.
//! - [`pass`]: a [`pass::Pass`] trait and [`pass::PassManager`]
//!   producing typed diagnostics ([`diag::Diagnostic`]).
//! - [`passes`]: the standard analyses — level/scale/noise abstract
//!   interpretation, rotation-set/key coverage, liveness + dead ops,
//!   value-numbering/CSE, and rescale/relin placement. Passes only
//!   read a circuit: a lowering (`cnn-he`'s scalar and packed ones)
//!   emits exactly the circuit that runs.
//! - [`interp::Interpreter`]: replays a circuit through the real
//!   `Evaluator`, bit-identical to eager execution — the anchor for
//!   he-diff's IR-vs-eager differential mode. [`interp::Prepared`] is
//!   its prepare-once / execute-many form (validated, liveness schedule,
//!   encodes evaluated, region units fanned out, one record per region)
//!   — the only executor in `cnn-he`, scalar and slot-packed alike.
//! - [`dot`]: Graphviz export (full graph or region-collapsed summary).
//!
//! These passes are the workspace's only static analysis: `cnn-he`
//! admits both the scalar and the packed network by running
//! [`pass::PassManager::standard`] over the circuit it lowers, and its
//! `he-ir check` binary does the same for a model name or a HENT file.

#![forbid(unsafe_code)]

pub mod build;
pub mod circuit;
pub mod diag;
pub mod dot;
pub mod interp;
pub mod noise;
pub mod pass;
pub mod passes;
pub mod types;

pub use build::GraphBuilder;
pub use circuit::{Circuit, KeyInventory, Node, NodeId, Op, OpCounts, Region};
pub use diag::{Diagnostic, LintReport, Severity};
pub use interp::{Interpreter, Prepared, RegionRun, RunOutput, Value};
pub use noise::NoiseModel;
pub use pass::{AnalysisReport, Pass, PassManager, PassOutput};
pub use types::{Basis, CtType, Layout, PlainType, ValueTy};
