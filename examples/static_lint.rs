//! Static admission: catch a mis-planned encrypted CNN *before*
//! encrypting a single pixel.
//!
//! Admission checks the network's depth against the modulus chain, then
//! runs the he-ir analysis passes over the circuit the scalar engine
//! executes, so a chain that is four primes too short — which would
//! otherwise panic minutes into an encrypted inference — is refused
//! before any ciphertext exists.
//!
//! This example extracts the paper's CNN2, writes it as a HENT model
//! file plus two CKKS parameter files under `target/lint-demo/`, and
//! validates a pipeline built on each parameter set. The same files feed
//! the CLI:
//!
//! ```text
//! cargo run --release -p cnn-he --bin he-ir -- check target/lint-demo/cnn2.hent \
//!     --params target/lint-demo/params-shallow.txt
//! ```
//!
//! Run: `cargo run --release -p examples --bin static_lint`

#![forbid(unsafe_code)]

use ckks::{CkksParams, SecurityLevel};
use cnn_he::{CnnHePipeline, HeNetwork};
use neural::models::{cnn2, ActKind};
use std::path::Path;

fn params_with_depth(depth: usize) -> CkksParams {
    CkksParams {
        n: 1 << 13,
        chain_bits: {
            let mut v = vec![40u32];
            v.extend(std::iter::repeat_n(26, depth));
            v
        },
        special_bits: vec![40],
        scale_bits: 26,
        security: SecurityLevel::None,
    }
}

fn write_params_file(path: &Path, p: &CkksParams) {
    let chain: Vec<String> = p.chain_bits.iter().map(ToString::to_string).collect();
    let text = format!(
        "# CKKS-RNS parameters for he-ir check\nn = {}\nchain_bits = {}\nspecial_bits = 40\nscale_bits = {}\nsecurity = none\n",
        p.n,
        chain.join(" "),
        p.scale_bits,
    );
    std::fs::write(path, text).expect("write params file");
}

fn main() {
    // The paper's CNN2 (two conv+BN blocks, three SLAF activations,
    // two dense layers) extracted for 28×28 inputs. Untrained weights
    // are fine: admission depends on the architecture.
    let net = HeNetwork::from_trained(&cnn2(ActKind::slaf3(), 42), 28);
    println!(
        "CNN2 extracted: {} HE layers, {} multiplicative levels required\n",
        net.layers.len(),
        net.required_levels()
    );

    let dir = Path::new("target").join("lint-demo");
    std::fs::create_dir_all(&dir).expect("create target/lint-demo");
    let model_path = dir.join("cnn2.hent");
    std::fs::write(&model_path, cnn_he::model::network_to_bytes(&net)).expect("write model");

    let good = params_with_depth(net.required_levels());
    let shallow = params_with_depth(6); // four rescaling primes short
    write_params_file(&dir.join("params-ok.txt"), &good);
    write_params_file(&dir.join("params-shallow.txt"), &shallow);
    println!(
        "wrote {}, params-ok.txt, params-shallow.txt\n",
        model_path.display()
    );

    // ---- the correctly sized chain --------------------------------
    let report = CnnHePipeline::with_params(net.clone(), good, 42).validate();
    println!("admission with a {}-level chain:", net.required_levels());
    print!("{}", report.render());
    assert!(!report.has_errors());

    // ---- the over-deep plan ---------------------------------------
    let report = CnnHePipeline::with_params(net, shallow, 42).validate();
    println!("\nadmission with a 6-level chain:");
    print!("{}", report.render());
    assert!(report.has_errors(), "the shallow chain must be rejected");

    println!(
        "\nthe same check runs standalone:\n  cargo run --release -p cnn-he --bin he-ir -- check {} --params {}",
        model_path.display(),
        dir.join("params-shallow.txt").display()
    );
}
