//! Integration: the he-ir static analyses against the real engines.
//!
//! Acceptance criteria of the circuit-IR subsystem, end to end: the
//! paper's CNN1/CNN2 lower to circuits that are clean under the full
//! standard pass suite, and the rotation-set analysis computes *exactly*
//! the Galois-key set generated for a packed circuit — element for
//! element, against real `KeyGenerator` output.

#![forbid(unsafe_code)]

use ckks::{CkksParams, KeyGenerator};
use cnn_he::graph::lower_network;
use cnn_he::packed::PackedNetwork;
use cnn_he::{lower_packed, HeNetwork, PackedLowering};
use he_ir::passes::rotations::required_elements;
use he_ir::{GraphBuilder, PassManager};
use neural::models::{cnn1, cnn2, ActKind};
use std::collections::BTreeSet;
use std::sync::Arc;

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
        let params = CkksParams::paper(1 << 14, net.required_levels());
        let circuit = lower_network(&net, GraphBuilder::new(params));
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

/// Packed CNN1 on a 2^12 ring at the lane stride every request runs at
/// (2048 slots over dim 2048: one lane): the reference lowering and the
/// compiled circuit the pipeline runs.
fn packed_cnn1_circuits(seed: u64) -> (PackedNetwork, CkksParams, [he_ir::Circuit; 2]) {
    let net = HeNetwork::from_trained(&cnn1(ActKind::slaf3(), seed), 28);
    let packed = PackedNetwork::from_network(&net);
    let params = CkksParams::paper(1 << 12, packed.required_levels());
    assert!(packed.dim <= params.slots());
    let stride = packed
        .plan_batch(params.slots(), 1)
        .unwrap()
        .layout()
        .stride();
    let lower = |mode| lower_packed(&packed, GraphBuilder::new(params.clone()), stride, mode);
    let circuits = [
        lower(PackedLowering::Eager),
        lower(PackedLowering::Compiled),
    ];
    (packed, params, circuits)
}

#[test]
fn rotation_set_pass_matches_generated_galois_keys_exactly() {
    // diff the pass result against the keys the runtime generates for
    // the steps it reports — the way `CnnHePipeline` provisions its keys
    let (packed, params, circuits) = packed_cnn1_circuits(41);
    let ctx = params.build();
    let mut kg = KeyGenerator::new(Arc::clone(&ctx), 41);
    let sk = kg.gen_secret_key();
    let layout = packed.plan_batch(ctx.slots(), 1).unwrap().layout();
    let keyed: BTreeSet<i64> = packed
        .required_rotation_steps_for(&layout)
        .into_iter()
        .collect();
    for (circuit, name) in circuits.iter().zip(["reference", "compiled"]) {
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
    // keys for the reference step set (the conv's taps and placements,
    // the textbook BSGS shifts of each matrix) cover the reference
    // circuit
    assert!(required_elements(&circuits[0]).steps.is_subset(&keyed));
}

#[test]
fn packed_cnn1_fans_babies_and_blocks_and_scalar_units_are_output_scalars() {
    // a packed matvec's baby rotations and a conv's tap rotations (over
    // the key-switch basis, the unrotated tap as the lift `rotate_ext` by
    // 0) are one unit each, and so is each giant block (its MAC chain and
    // at most one giant rotation) and each conv channel (its MAC chain and
    // at most one placement rotation); the sums, the fold and the SLAF
    // carry one ciphertext, so they are one unit that `Prepared::run`
    // executes on its caller
    use he_ir::Op;
    let (_, _, circuits) = packed_cnn1_circuits(43);
    for (circuit, name) in circuits.iter().zip(["reference", "compiled"]) {
        for region in &circuit.regions {
            let units = circuit.units(region.nodes());
            let rotations = |u: &Vec<usize>| {
                let rotates = |&&id: &&usize| {
                    matches!(
                        circuit.nodes[id].op,
                        Op::Rotate { .. } | Op::RotateExt { .. }
                    )
                };
                u.iter().filter(rotates).count()
            };
            let what = format!("{name}: {}", region.name);
            if region.name.ends_with("matvec babies") || region.name.ends_with("conv taps") {
                assert!(
                    units.iter().all(|u| u.len() == 1 && rotations(u) == 1),
                    "{what}"
                );
            } else if region.name.ends_with("matvec blocks")
                || region.name.ends_with("conv channels")
            {
                assert!(units.len() > 1, "{what}");
                assert!(units.iter().all(|u| rotations(u) <= 1), "{what}");
            } else {
                assert_eq!(units.len(), 1, "{what}");
            }
        }
    }
    // the scalar lowering: one unit per conv/dense output scalar and per
    // SLAF ciphertext
    let net = HeNetwork::from_trained(&cnn1(ActKind::slaf3(), 43), 28);
    let params = CkksParams::paper(1 << 11, net.required_levels());
    let scalar = lower_network(&net, GraphBuilder::new(params));
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
