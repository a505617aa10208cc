//! Figures 1–5 — textual regeneration of the paper's diagrams, backed by
//! the actual implementation (every box in the diagrams is a module that
//! exists and runs).
//!
//! Run: `cargo run --release -p bench --bin figures`

#![forbid(unsafe_code)]

use cnn_he::quantize::QuantSpec;
use cnn_he::{CnnHePipeline, HeNetwork, SignalDecomposition};
use neural::models::{cnn1, cnn2, ActKind};

fn main() {
    // ------------------------------------------------------------ Fig 1
    println!("FIG. 1 — PRIVACY-PRESERVING PROCESSING IN A CLOUD ENVIRONMENT\n");
    println!("  client                          untrusted cloud");
    println!("  ──────                          ───────────────");
    println!("  image ─ encode(Δ·τ⁻¹) ─ Encrypt(pk) ──► CNN-HE evaluation");
    println!("                                           (conv ⊞⊠, SLAF, dense)");
    println!("  label ◄─ argmax ─ decode ─ Decrypt(sk) ◄─ encrypted logits");
    println!("  [implemented end-to-end in cnn_he::pipeline::CnnHePipeline]\n");

    // ------------------------------------------------------------ Fig 2
    println!("FIG. 2 — RESIDUE NUMBER SYSTEM DECOMPOSITION\n");
    let q = QuantSpec::default();
    let x = 4_563_821i64; // a conv-accumulator-scale value
    let d = SignalDecomposition::new(3, q.output_bound(25, 1.0));
    let moduli = d.moduli();
    let residues = d.decompose_residues(&[x]);
    println!("  X = {x}");
    for j in 0..3 {
        println!(
            "    ├─ x_{} = X mod m_{} = {} mod {} = {}",
            j + 1,
            j + 1,
            x,
            moduli[j],
            residues[j][0]
        );
    }
    let back = d.recompose_residues(&residues);
    println!(
        "    └─ CRT({}, {}, {}) = {}  ✓",
        residues[0][0], residues[1][0], residues[2][0], back[0]
    );
    println!("  [cnn_he::rns_input::SignalDecomposition; exactness proven in tests]\n");

    // ------------------------------------------------------------ Fig 3
    println!("FIG. 3 — CNN1 (single convolutional layer)\n");
    let m1 = cnn1(ActKind::slaf3(), 1);
    println!("{}\n", m1.describe());
    let n1 = HeNetwork::from_trained(&m1, 28);
    println!(
        "  HE form ({} multiplicative levels):\n{}",
        n1.required_levels(),
        n1.describe()
    );

    // ------------------------------------------------------------ Fig 4
    println!("FIG. 4 — CNN2 (CryptoNets-based, BN before each activation)\n");
    let m2 = cnn2(ActKind::slaf3(), 2);
    println!("{}\n", m2.describe());
    let n2 = HeNetwork::from_trained(&m2, 28);
    println!(
        "  HE form (BN folded into convolutions, {} levels):\n{}",
        n2.required_levels(),
        n2.describe()
    );

    // ------------------------------------------------------------ Fig 5
    println!("FIG. 5 — CNN-RNS EXECUTION DATAFLOW\n");
    println!("a) CNN1-RNS:");
    let p1 = CnnHePipeline::new(n1, 1 << 10, 3);
    println!("{}", p1.execution_plan_description(3));
    println!("b) CNN2-RNS:");
    let p2 = CnnHePipeline::new(n2, 1 << 10, 4);
    println!("{}", p2.execution_plan_description(3));
    println!("(baseline for comparison:)");
    println!("{}", p2.execution_plan_description(1));
}
