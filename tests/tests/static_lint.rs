//! Integration: static admission rejects mis-planned pipelines before a
//! single polynomial is touched.
//!
//! A deliberately over-deep CNN2 (modulus chain too short) and a packed
//! circuit with a missing rotation key must both be flagged as errors
//! with zero encryption work, and `Pipeline::validate()` must catch them
//! before `classify()` would panic inside a layer.

#![forbid(unsafe_code)]

use ckks::{CkksParams, SecurityLevel};
use cnn_he::packed::PackedNetwork;
use cnn_he::{admission, lower_packed, CnnHePipeline, HeNetwork, PackedLowering};
use he_ir::passes::rotations::{required_elements, RotationSetPass};
use he_ir::{GraphBuilder, KeyInventory, Pass};
use neural::models::{cnn2, ActKind};

/// Chain with `depth` rescaling primes on a toy ring — deliberately NOT
/// sized to any network.
fn params_with_depth(depth: usize) -> CkksParams {
    params_with_depth_on_ring(depth, 1 << 10)
}

fn params_with_depth_on_ring(depth: usize, n: usize) -> CkksParams {
    CkksParams {
        n,
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

/// The paper's CNN2 (conv+BN ×2, three SLAFs, two dense) extracted at
/// 28×28 — requires 10 levels.
fn cnn2_network(seed: u64) -> HeNetwork {
    let model = cnn2(ActKind::slaf3(), seed);
    HeNetwork::from_trained(&model, 28)
}

#[test]
fn over_deep_cnn2_plan_is_rejected_statically() {
    let net = cnn2_network(700);
    assert_eq!(net.required_levels(), 10);
    // chain supports only 6 of the 10 required levels
    let (report, _) = admission(&net, GraphBuilder::new(params_with_depth(6)));
    assert!(report.has_errors(), "{}", report.render());
    assert!(
        report.has_code("chain-exhausted") || report.has_code("slaf-degree-vs-depth"),
        "{}",
        report.render()
    );
    // the fix suggestion quantifies the missing primes
    assert!(report.render().contains("4 more"), "{}", report.render());
}

#[test]
fn missing_rotation_key_plan_is_rejected_statically() {
    let net = cnn2_network(701);
    let packed = PackedNetwork::from_network(&net);
    // CNN2's padded packed dimension is 2048 (max layer dim 1250 → next
    // power of two), so the vector needs the 2048 slots of N = 2^12
    let params = params_with_depth_on_ring(packed.required_levels(), 1 << 12);
    assert!(packed.dim <= params.slots());
    // the circuit the packed path optimizes and runs, provisioned with
    // every element it rotates by except the largest
    let mut circuit = lower_packed(
        &packed,
        GraphBuilder::new(params),
        1,
        PackedLowering::Compiled,
    );
    he_ir::PassManager::optimizer()
        .optimize(&mut circuit)
        .expect("optimizes");
    let mut elements = required_elements(&circuit).elements;
    let full = RotationSetPass.run(&circuit).report;
    assert!(!full.has_errors(), "{}", full.render());
    let dropped = elements.pop_last().unwrap();
    circuit.keys = KeyInventory::with_galois(true, elements);
    let report = RotationSetPass.run(&circuit).report;
    assert!(report.has_code("missing-galois-key"), "{}", report.render());
    assert!(
        report.render().contains(&format!("element {dropped}")),
        "diagnostic should name the missing Galois element {dropped}:\n{}",
        report.render()
    );
}

#[test]
fn pipeline_validate_catches_over_deep_plan_before_classify() {
    let net = cnn2_network(702);
    let mut pipe = CnnHePipeline::with_params(net, params_with_depth(6), 702);
    let report = pipe.validate();
    assert!(report.has_errors(), "{}", report.render());
}

#[test]
#[should_panic(expected = "admission rejected the inference plan")]
fn classify_refuses_over_deep_plan_at_admission() {
    let net = cnn2_network(703);
    let mut pipe = CnnHePipeline::with_params(net, params_with_depth(6), 703);
    let img = vec![0.5f32; 784];
    // panics in the admission check, not minutes later inside a layer
    let _ = pipe.classify(&[&img]);
}

#[test]
fn pipeline_validate_catches_oversized_batch() {
    let net = cnn2_network(704);
    let mut pipe = CnnHePipeline::with_params(net, params_with_depth(10), 704);
    // N = 2^10 → 512 slots; a 600-image batch cannot pack
    let report = pipe.validate_batch(600);
    assert!(
        report.has_code("batch-exceeds-slots"),
        "{}",
        report.render()
    );
    // a sane batch on the correctly sized chain is clean
    assert!(!pipe.validate_batch(8).has_errors());
}

#[test]
fn auto_sized_pipeline_always_validates_clean() {
    let net = cnn2_network(705);
    let mut pipe = CnnHePipeline::new(net, 1 << 10, 705);
    let report = pipe.validate();
    assert!(!report.has_errors(), "{}", report.render());
}

/// Packed CNN2 runs (and decrypts accurately) although the levels
/// pass's worst-case magnitude bound calls its output noise-drowned:
/// admission reports that estimate as a warning and lets the circuit in.
#[test]
fn packed_cnn2_is_admitted_with_its_noise_estimate_as_a_warning() {
    let mut pipe = CnnHePipeline::new(cnn2_network(706), 1 << 12, 706);
    pipe.enable_packed_batching()
        .expect("dim 2048 fits 2048 slots");
    let report = pipe.validate();
    assert!(!report.has_errors(), "{}", report.render());
    assert!(report.has_code("noise-budget"), "{}", report.render());
    pipe.prepare_batch(1).expect("admitted");
}
