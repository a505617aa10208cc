//! Client/server wire format — what actually crosses the network in the
//! paper's Fig. 1 deployment.
//!
//! Serializes the public key, relinearization key and a batch of
//! encrypted pixels to bytes, "ships" them to a simulated server that
//! deserializes, evaluates a homomorphic neuron, serializes the result
//! back, and the client decrypts. Also reports the ciphertext expansion
//! factor.
//!
//! Run: `cargo run --release -p examples --bin serialization_roundtrip`

#![forbid(unsafe_code)]

use ckks::serialize::*;
use ckks::{CkksParams, Evaluator, KeyGenerator};
use ckks_math::sampler::Sampler;
use cnn_he::{CtTensor, HeLayerSpec, HeNetwork};
use std::sync::Arc;

fn main() {
    // depth 2: exactly what the server's activation consumes
    let ctx = CkksParams::toy(2).build();
    println!("context: {}", ctx.describe());
    let mut kg = KeyGenerator::new(Arc::clone(&ctx), 1234);
    let sk = kg.gen_secret_key();
    let pk = kg.gen_public_key(&sk);
    let rk = kg.gen_relin_key(&sk);
    let ev = Evaluator::new(Arc::clone(&ctx));
    let mut sampler = Sampler::from_seed(5678);

    // ---- client side ----------------------------------------------
    let pixels: Vec<f64> = (0..64).map(|i| (i as f64 / 63.0) * 0.9).collect();
    let ct = ev.encrypt_real(&pixels, &pk, &mut sampler);

    let pk_bytes = serialize_public_key(&pk);
    let rk_bytes = serialize_relin_key(&rk);
    let ct_bytes = serialize_ciphertext(&ct);
    let plain_bytes = pixels.len() * 8;
    println!("\nwire sizes:");
    println!("  public key     {:>10} bytes", pk_bytes.len());
    println!("  relin key      {:>10} bytes", rk_bytes.len());
    println!(
        "  ciphertext     {:>10} bytes  ({}× expansion over {} plaintext bytes)",
        ct_bytes.len(),
        ct_bytes.len() / plain_bytes,
        plain_bytes
    );

    // ---- server side (only bytes cross the boundary) --------------
    let server_result: Vec<u8> = {
        let ctx = Arc::clone(&ctx); // server has the public parameters
        let ev = Evaluator::new(Arc::clone(&ctx));
        let ct = deserialize_ciphertext(&ct_bytes, &ctx).expect("bad ciphertext blob");
        let rk = deserialize_relin_key(&rk_bytes, &ctx).expect("bad relin key blob");
        // y = 0.2 + x + 0.5·x²  (a CryptoNets-style square neuron)
        let neuron = HeNetwork {
            layers: vec![HeLayerSpec::Activation(vec![0.2, 1.0, 0.5])],
            input_side: 1,
        };
        let x = CtTensor {
            cts: vec![ct],
            shape: vec![1, 1, 1],
        };
        let (y, _) = neuron.infer_encrypted(&ev, &rk, x);
        serialize_ciphertext(&y.cts[0]).to_vec()
    };
    println!("\nserver returned {} bytes", server_result.len());

    // ---- client decrypts ------------------------------------------
    let y = deserialize_ciphertext(&server_result, &ctx).expect("bad result blob");
    let got = ev.decrypt_to_real(&y, &sk);
    let mut worst = 0.0f64;
    for (g, &x) in got.iter().zip(&pixels) {
        let want = 0.2 + x + 0.5 * x * x;
        worst = worst.max((g - want).abs());
    }
    println!("max decryption error vs expected: {worst:.2e}");
    assert!(worst < 1e-3);

    // ---- tamper detection ------------------------------------------
    let mut corrupted = ct_bytes.to_vec();
    let mid = corrupted.len() / 2;
    corrupted[mid] ^= 0x55;
    match deserialize_ciphertext(&corrupted, &ctx) {
        Err(e) => println!("tampered ciphertext rejected: {e}"),
        Ok(_) => {
            // corruption may land inside a residue and still parse; the
            // point of validation is structural integrity, not MAC-level
            // authenticity (CKKS is not IND-CCA — see README security notes)
            println!("tampered ciphertext parsed (corruption hit a value, not the structure)");
        }
    }
    println!("\nroundtrip complete.");
}
