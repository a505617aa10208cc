//! Table V — performance of CNN2-HE vs CNN2-HE-RNS (the CryptoNets-based
//! two-conv architecture with folded batch normalization), measured as
//! in Table III: one thread against `min(3, c)` threads.
//!
//! Run: `cargo run --release -p bench --bin table5`

#![forbid(unsafe_code)]

use bench::harness::{self, Arch};

fn main() {
    let model = harness::trained_model(Arch::Cnn2);
    println!(
        "CNN2 architecture (Fig. 4, BN folded):\n{}",
        model.network.describe()
    );
    harness::he_vs_rns_table("TABLE V — PERFORMANCE OF CNN2-HE AND CNN2-HE-RNS", &model);
    println!("\npaper reference: CNN2-HE avg 39.91s / CNN2-HE-RNS avg 23.67s, acc 99.21%");
}
