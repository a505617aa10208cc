//! Lowering of the scalar engine's network into an `he-lint` circuit
//! plan.
//!
//! The static analyzer sees exactly the op sequence the scalar engine
//! ([`crate::network::HeNetwork`]) runs: rotation-free, one scalar MAC
//! per tap, two levels per SLAF. The packed path has no plan-level
//! lowering: its admission lints the `he-ir` circuit that executes
//! ([`crate::packed_graph::lower_packed`]).

use crate::network::{HeLayerSpec, HeNetwork};
use crate::rns_input::SignalDecomposition;
use ckks::CkksParams;
use he_lint::{CircuitOp, CircuitPlan, KeyInventory};

/// Lowers a scalar-engine network to a circuit plan. `batch` is the
/// number of images packed across the slots by `encrypt_image_batch`.
pub fn plan_for_network(net: &HeNetwork, params: CkksParams, batch: usize) -> CircuitPlan {
    let mut ops = Vec::with_capacity(net.layers.len());
    let mut side = net.input_side;
    for layer in &net.layers {
        match layer {
            HeLayerSpec::Conv(spec) => {
                side = spec.out_size(side);
                ops.push(CircuitOp::Linear {
                    name: layer.name(),
                    output_units: spec.out_ch * side * side,
                });
            }
            HeLayerSpec::Dense(spec) => {
                ops.push(CircuitOp::Linear {
                    name: layer.name(),
                    output_units: spec.out_dim,
                });
            }
            HeLayerSpec::Activation(coeffs) => {
                ops.push(CircuitOp::SlafActivation {
                    name: layer.name(),
                    degree: coeffs.len().saturating_sub(1),
                });
            }
        }
    }
    // the scalar engine never rotates, so relin is the only key it needs
    CircuitPlan::new(params, ops)
        .with_keys(KeyInventory::relin_only())
        .with_slots_used(batch)
}

/// Appends the RNS input-codec soundness op for a stream decomposition
/// (the Fig. 2/5 pre-processing stage of the parallel execution plan).
pub fn with_rns_codec(
    mut plan: CircuitPlan,
    decomp: &SignalDecomposition,
    max_abs: i64,
) -> CircuitPlan {
    plan.ops.insert(
        0,
        CircuitOp::RnsDecompose {
            moduli: decomp.moduli(),
            max_abs,
        },
    );
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::he_layers::{ConvSpec, DenseSpec};

    fn toy_net() -> HeNetwork {
        HeNetwork {
            layers: vec![
                HeLayerSpec::Conv(ConvSpec {
                    weight: vec![0.1; 2 * 9],
                    bias: vec![0.0; 2],
                    in_ch: 1,
                    out_ch: 2,
                    k: 3,
                    stride: 2,
                    pad: 0,
                }),
                HeLayerSpec::Activation(vec![0.0, 1.0, 0.5, 0.1]),
                HeLayerSpec::Dense(DenseSpec {
                    weight: vec![0.1; 18 * 4],
                    bias: vec![0.0; 4],
                    in_dim: 18,
                    out_dim: 4,
                }),
            ],
            input_side: 8,
        }
    }

    #[test]
    fn scalar_lowering_matches_level_accounting() {
        let net = toy_net();
        let plan = plan_for_network(&net, CkksParams::tiny(net.required_levels()), 1);
        assert_eq!(plan.required_levels(), net.required_levels());
        assert_eq!(plan.ops.len(), 3);
        assert!(
            he_lint::is_clean(&plan),
            "{}",
            he_lint::analyze(&plan).render()
        );
    }

    #[test]
    fn rns_codec_op_is_prepended_and_checked() {
        let net = toy_net();
        let decomp = SignalDecomposition::new(3, 255);
        let plan = with_rns_codec(
            plan_for_network(&net, CkksParams::tiny(net.required_levels()), 1),
            &decomp,
            255,
        );
        assert!(matches!(plan.ops[0], CircuitOp::RnsDecompose { .. }));
        assert!(
            he_lint::is_clean(&plan),
            "{}",
            he_lint::analyze(&plan).render()
        );
    }
}
