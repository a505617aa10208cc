//! Integration: the he-ir static analyses against the real engines.
//!
//! Acceptance criteria of the circuit-IR subsystem, end to end: the
//! paper's CNN1/CNN2 lower to circuits that are clean under the full
//! standard pass suite, and the rotation-set analysis computes *exactly*
//! the Galois-key set generated for a packed circuit — element for
//! element, against real `KeyGenerator` output.

#![forbid(unsafe_code)]

use ckks::{CkksParams, KeyGenerator, SecurityLevel};
use cnn_he::graph::{lower_network, EncodeSharing};
use cnn_he::packed::PackedNetwork;
use cnn_he::{lower_packed, HeNetwork, PackedLowering};
use he_ir::passes::rotations::required_elements;
use he_ir::{GraphBuilder, PassManager};
use neural::models::{cnn1, cnn2, ActKind};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The paper's chain shape (`[40, 26×levels]`, Δ = 2²⁶) on ring `n`.
fn paper_params(levels: usize, n: usize) -> CkksParams {
    let mut chain_bits = vec![40u32];
    chain_bits.extend(std::iter::repeat_n(26, levels));
    CkksParams {
        n,
        chain_bits,
        special_bits: vec![40],
        scale_bits: 26,
        security: SecurityLevel::None,
    }
}

#[test]
fn cnn1_and_cnn2_lower_clean_under_the_standard_passes() {
    for (name, net) in [
        (
            "cnn1",
            HeNetwork::from_trained(&cnn1(ActKind::slaf3(), 1), 28),
        ),
        (
            "cnn2",
            HeNetwork::from_trained(&cnn2(ActKind::slaf3(), 1), 28),
        ),
    ] {
        let params = paper_params(net.required_levels(), 1 << 14);
        let circuit = lower_network(&net, GraphBuilder::new(params), EncodeSharing::Shared);
        circuit.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = PassManager::standard().run(&circuit);
        assert!(!report.has_errors(), "{name}:\n{}", report.render());
        // one region per layer, and the scalar engine never rotates
        assert_eq!(circuit.regions.len(), net.layers.len(), "{name}");
        assert_eq!(circuit.op_counts().rotations, 0, "{name}");
        // the declared exit level is exactly the budget the network asks for
        let exit = circuit
            .nodes
            .iter()
            .rev()
            .find_map(|n| n.ty.as_ct())
            .unwrap();
        assert_eq!(exit.level, 0, "{name}: full depth consumed");
    }
}

/// Packed CNN1 at stride 1 on a 2^11 ring: the un-optimized reference
/// lowering and the optimized circuit the pipeline runs.
fn packed_cnn1_circuits(seed: u64) -> (PackedNetwork, CkksParams, [he_ir::Circuit; 2]) {
    let net = HeNetwork::from_trained(&cnn1(ActKind::slaf3(), seed), 28);
    let packed = PackedNetwork::from_network(&net);
    let params = paper_params(packed.required_levels(), 1 << 11);
    assert!(packed.dim <= params.slots());
    let lower = |mode| lower_packed(&packed, GraphBuilder::new(params.clone()), 1, mode);
    let reference = lower(PackedLowering::Eager);
    let mut optimized = lower(PackedLowering::Compiled);
    PassManager::optimizer()
        .optimize(&mut optimized)
        .expect("optimizes");
    (packed, params, [reference, optimized])
}

#[test]
fn rotation_set_pass_matches_generated_galois_keys_exactly() {
    // diff the pass result against the keys the runtime generates for
    // the steps it reports — the way `CnnHePipeline` provisions a stride
    let (packed, params, circuits) = packed_cnn1_circuits(41);
    let ctx = params.build();
    let mut kg = KeyGenerator::new(Arc::clone(&ctx), 41);
    let sk = kg.gen_secret_key();
    let bsgs: BTreeSet<i64> = packed.required_rotation_steps().into_iter().collect();
    for (circuit, name) in circuits.iter().zip(["reference", "optimized"]) {
        let required = required_elements(circuit);
        assert!(
            !required.elements.is_empty(),
            "{name}: packed circuits rotate"
        );
        let steps: Vec<i64> = required.steps.iter().copied().collect();
        let gk = kg.gen_galois_keys(&sk, &steps, false);
        let generated: BTreeSet<usize> = gk.elements().collect();
        assert_eq!(
            required.elements, generated,
            "{name}: static rotation set must equal the runtime Galois-key set"
        );
        // lowering declares that same inventory, so coverage is exact:
        // no missing key, and no key generated that the circuit never uses
        let out = PassManager::standard().run(circuit);
        assert!(!out.has_errors(), "{name}:\n{}", out.render());
        assert!(!out.has_code("missing-galois-key"), "{}", out.render());
        assert!(!out.has_code("unused-galois-key"), "{}", out.render());
    }
    // keys for the textbook BSGS step set cover the reference circuit
    assert!(required_elements(&circuits[0]).steps.is_subset(&bsgs));
}

#[test]
fn every_packed_cnn1_region_is_one_unit_and_scalar_units_are_output_scalars() {
    // one ciphertext flows through a packed region, so `Prepared::run`
    // executes each on its caller, as before units existed
    let (_, _, circuits) = packed_cnn1_circuits(43);
    for (circuit, name) in circuits.iter().zip(["reference", "optimized"]) {
        for region in &circuit.regions {
            assert_eq!(
                circuit.units(region.nodes()).len(),
                1,
                "{name}: {}",
                region.name
            );
        }
    }
    // the scalar lowering: one unit per conv/dense output scalar and per
    // SLAF ciphertext
    let net = HeNetwork::from_trained(&cnn1(ActKind::slaf3(), 43), 28);
    let params = paper_params(net.required_levels(), 1 << 11);
    let scalar = lower_network(&net, GraphBuilder::new(params), EncodeSharing::Shared);
    let mut width = 28 * 28;
    for (region, layer) in scalar.regions.iter().zip(&net.layers) {
        let units = scalar.units(region.nodes()).len();
        match layer {
            cnn_he::HeLayerSpec::Conv(c) => width = c.out_ch * c.out_size(28) * c.out_size(28),
            cnn_he::HeLayerSpec::Dense(d) => width = d.out_dim,
            cnn_he::HeLayerSpec::Activation(_) => {}
        }
        assert_eq!(units, width, "{}", region.name);
    }
}

#[test]
fn underprovisioned_keys_fail_the_rotation_set_pass() {
    let (_, _, [_, mut circuit]) = packed_cnn1_circuits(42);
    let mut elements = required_elements(&circuit).elements;
    elements.pop_last();
    circuit.keys = he_ir::KeyInventory::with_galois(true, elements);
    let out = PassManager::standard().run(&circuit);
    assert!(out.has_errors(), "{}", out.render());
    assert!(out.has_code("missing-galois-key"), "{}", out.render());
}
