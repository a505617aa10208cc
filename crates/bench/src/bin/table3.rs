//! Table III — performance of CNN1-HE vs CNN1-HE-RNS.
//!
//! Trains CNN1 with the SLAF protocol (degree-3 polynomial activations,
//! per §V.D), then measures the wall of encrypted single-image
//! classification on one thread (HE) and on `min(3, c)` threads of the
//! unit-parallel engine (HE-RNS, `c` = host cores), plus batched
//! encrypted accuracy.
//!
//! Knobs: `RNS_CNN_LOGN` (default 14), `RNS_CNN_RUNS` (default 3),
//! `RNS_CNN_TEST` (default 200). Reduced profile for quick checks:
//! `RNS_CNN_LOGN=11 RNS_CNN_RUNS=1 RNS_CNN_TEST=40`.
//!
//! Run: `cargo run --release -p bench --bin table3`

#![forbid(unsafe_code)]

use bench::harness::{self, Arch};

fn main() {
    let model = harness::trained_model(Arch::Cnn1);
    println!("CNN1 architecture (Fig. 3):\n{}", model.network.describe());
    harness::he_vs_rns_table("TABLE III — PERFORMANCE OF CNN1-HE AND CNN1-HE-RNS", &model);
    println!("\npaper reference: CNN1-HE avg 3.56s / CNN1-HE-RNS avg 2.27s, acc 98.22%");
    println!("(absolute values differ: different hardware and a from-scratch stack;");
    println!(" the comparison shape — RNS faster at equal accuracy — is the claim)");
}
