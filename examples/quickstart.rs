//! Quickstart: the paper's Fig. 1 flow in ~60 lines.
//!
//! A client encrypts data under CKKS-RNS, an untrusted server computes on
//! the ciphertexts (here: a weighted sum and a polynomial activation —
//! one homomorphic neuron, Eq. 1 of the paper), and the client decrypts
//! the result. The server never sees plaintext.
//!
//! Run: `cargo run --release -p examples --bin quickstart`

#![forbid(unsafe_code)]

use ckks::{CkksParams, Evaluator, KeyGenerator};
use ckks_math::sampler::Sampler;
use cnn_he::{CtTensor, HeLayerSpec, HeNetwork};
use std::sync::Arc;

fn main() {
    // ---- client: parameters + keys -------------------------------
    // A reduced ring (2^12) keeps this instant; Table II's production
    // setting is CkksParams::paper_table2() (N = 2^14, λ = 128). Depth 3:
    // one level for the weighted sum, two for the activation.
    let ctx = CkksParams::toy(3).build();
    println!("context: {}", ctx.describe());

    let mut kg = KeyGenerator::new(Arc::clone(&ctx), 42);
    let sk = kg.gen_secret_key();
    let pk = kg.gen_public_key(&sk);
    let rk = kg.gen_relin_key(&sk);
    let ev = Evaluator::new(Arc::clone(&ctx));
    let mut sampler = Sampler::from_seed(7);

    // ---- client: encrypt three feature vectors -------------------
    let x1 = vec![0.52, -0.11, 0.87, 0.03];
    let x2 = vec![-0.34, 0.65, 0.12, -0.78];
    let x3 = vec![0.15, 0.25, -0.42, 0.61];
    let c1 = ev.encrypt_real(&x1, &pk, &mut sampler);
    let c2 = ev.encrypt_real(&x2, &pk, &mut sampler);
    let c3 = ev.encrypt_real(&x3, &pk, &mut sampler);
    println!("client: encrypted 3 feature vectors (server sees only ciphertexts)");

    // ---- server: one homomorphic neuron (Eq. 1) ------------------
    // y = σ(w1·x1 + w2·x2 + w3·x3 + β) with a degree-3 polynomial σ.
    // The weights are encoded at the prime the rescale drops, so z
    // lands back on the input scale exactly.
    let (w1, w2, w3, beta) = (0.9, -0.5, 1.3, 0.05);
    let q = ctx.chain_moduli()[c1.level].value() as f64;
    let mut acc = ev.zero_ciphertext(c1.scale * q, c1.level, c1.slots);
    ev.mul_scalar_acc(&mut acc, &c1, w1, q);
    ev.mul_scalar_acc(&mut acc, &c2, w2, q);
    ev.mul_scalar_acc(&mut acc, &c3, w3, q);
    ev.add_scalar_assign(&mut acc, beta);
    let z = ev.rescale(&acc);

    // σ(z) = 0.1 + 0.55·z + 0.24·z² + 0.02·z³ (a SLAF-style polynomial),
    // as a one-ciphertext network
    let coeffs = [0.1, 0.55, 0.24, 0.02];
    let sigma = HeNetwork {
        layers: vec![HeLayerSpec::Activation(coeffs.to_vec())],
        input_side: 1,
    };
    let z = CtTensor {
        cts: vec![z],
        shape: vec![1, 1, 1],
    };
    let y = sigma.infer_encrypted(&ev, &rk, z).0.cts.remove(0);
    println!(
        "server: evaluated a homomorphic neuron at level {}",
        y.level
    );

    // ---- client: decrypt ------------------------------------------
    let got = ev.decrypt_to_real(&y, &sk);
    println!("\n  i   plaintext result   decrypted result   |error|");
    for i in 0..4 {
        let zi = w1 * x1[i] + w2 * x2[i] + w3 * x3[i] + beta;
        let want = coeffs[0] + coeffs[1] * zi + coeffs[2] * zi * zi + coeffs[3] * zi * zi * zi;
        println!(
            "  {i}   {want:>16.8}   {:>16.8}   {:.2e}",
            got[i],
            (got[i] - want).abs()
        );
        assert!((got[i] - want).abs() < 1e-3);
    }
    println!("\nblind two-party non-interactive processing: OK");
}
