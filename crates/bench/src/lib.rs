//! Benchmark harness reproducing every table and figure of the paper.
//!
//! * Criterion micro-benches (`benches/`): NTT, RNS machinery, CKKS
//!   primitives, homomorphic conv, limb-parallel ablation.
//! * Table binaries (`src/bin/table1.rs` … `table6.rs`, `figures.rs`):
//!   regenerate the paper's evaluation artifacts; see DESIGN.md's
//!   experiment index.

#![forbid(unsafe_code)]

pub mod harness;
pub mod modelio;
pub mod smoke;
