//! Table VI — CNN2-HE-RNS latency across moduli-chain lengths
//! k = 1, 3…10. Note the paper's own k=1 row equals its CNN2-HE
//! baseline (39.91 s): chain length 1 *is* the sequential baseline.
//! Row k is measured on t = k threads of the unit-parallel engine where
//! the host has k cores.
//!
//! Run: `cargo run --release -p bench --bin table6`

#![forbid(unsafe_code)]

use bench::harness::{self, Arch};

fn main() {
    let model = harness::trained_model(Arch::Cnn2);
    harness::sweep_table(
        "TABLE VI — PERFORMANCE OF CNN2-HE-RNS WITH MODULO CONFIGURATIONS",
        &model,
        &[1, 3, 4, 5, 6, 7, 8, 9, 10],
    );
    println!("\npaper reference: 39.91, 23.67, 23.39, 23.12, 22.76, 22.54, 22.49, 22.46, 22.51 s");
}
