//! Table IV — CNN1-HE-RNS latency across moduli-chain lengths k = 3…10.
//!
//! Row k is the measured wall of encrypted single-image classification
//! on t = k threads of the unit-parallel engine; a row with more streams
//! than the host has cores reads "not measurable on c cores".
//!
//! Run: `cargo run --release -p bench --bin table4`

#![forbid(unsafe_code)]

use bench::harness::{self, Arch};

fn main() {
    let model = harness::trained_model(Arch::Cnn1);
    harness::sweep_table(
        "TABLE IV — PERFORMANCE OF CNN1-HE-RNS WITH MODULO CONFIGURATIONS",
        &model,
        &[3, 4, 5, 6, 7, 8, 9, 10],
    );
    println!("\npaper reference: 2.27, 2.02, 1.98, 1.89, 1.85, 1.74, 1.67, 1.74 s");
    println!("(the paper runs 16 hardware threads; see EXPERIMENTS.md)");
}
