//! Static admission: what every execution path checks before it spends
//! a ciphertext. The analysis is he-ir's standard pass suite over the
//! circuit that executes; this module decides which circuit, and
//! against which key material.
//!
//! * [`admission`] — the scalar network: its shape
//!   ([`HeNetwork::check`]), the chain's depth, then the standard passes
//!   over the circuit [`lower_network`] produces.
//!   `CnnHePipeline` caches the report beside that circuit, prepared,
//!   which is what its scalar requests run; `he-ir check` prints it.
//! * [`circuit_admission`] — an already-lowered circuit (the packed
//!   path's one compiled circuit) against the keys that exist.
//! * [`batch_exceeds_slots`] — the request-size error `validate_batch`
//!   adds on the scalar path.
//!
//! Input codecs are checked where they are built:
//! [`crate::RnsInputCodec::from_moduli`] refuses non-co-prime moduli and
//! a dynamic range that does not cover the inputs with typed errors.

use crate::graph::lower_network;
use crate::network::HeNetwork;
use ckks::CkksParams;
use he_ir::{
    AnalysisReport, Circuit, Diagnostic, GraphBuilder, KeyInventory, LintReport, PassManager,
    PassOutput, Severity,
};

/// Admission of the scalar network under the builder's parameters, and
/// the circuit it analyzed. The network's shape comes first: one that
/// [`HeNetwork::check`] refuses is one `malformed-network` error naming
/// the layer, and no circuit. Then the chain's depth — the same
/// pre-lowering check the packed path makes — because a lowering past
/// level 0 saturates its types and every later node cascades into a
/// diagnostic: a short chain is one `chain-exhausted` error naming the
/// first layer that overruns it and the shortfall, and no circuit.
/// Otherwise the standard passes run over the circuit [`lower_network`]
/// produces.
pub fn admission(net: &HeNetwork, b: GraphBuilder) -> (AnalysisReport, Option<Circuit>) {
    if let Err(e) = net.check() {
        let error = Diagnostic::error("malformed-network", None, e.to_string());
        return (
            refusal("network", error, "the lowering cannot take it"),
            None,
        );
    }
    let p = b.params();
    let (needed, depth) = (net.required_levels(), p.depth());
    if needed <= depth {
        let circuit = lower_network(net, b);
        return (PassManager::standard().run(&circuit), Some(circuit));
    }
    let mut left = depth;
    let (at, layer) = net
        .layers
        .iter()
        .enumerate()
        .find(|(_, l)| match left.checked_sub(l.levels()) {
            Some(rest) => {
                left = rest;
                false
            }
            None => true,
        })
        .expect("a network deeper than the chain has a layer that overruns it");
    let error = Diagnostic::error(
        "chain-exhausted",
        None,
        format!(
            "modulus chain exhausted at layer {at}, {} ({} level(s) needed, {left} left): \
             the network consumes {needed} levels but the chain has {depth}",
            layer.name(),
            layer.levels()
        ),
    )
    .with_suggestion(format!(
        "extend chain_bits with {} more ≈{}-bit prime(s)",
        needed - depth,
        p.scale_bits
    ));
    let summary = format!("network needs {needed} levels, chain has {depth}");
    (refusal("depth", error, &summary), None)
}

/// A pre-lowering refusal: one error, reported by pseudo-pass `pass`.
fn refusal(pass: &'static str, error: Diagnostic, summary: &str) -> AnalysisReport {
    let mut report = LintReport::default();
    report.push(error);
    AnalysisReport {
        per_pass: vec![(
            pass,
            PassOutput {
                report,
                summary: summary.to_string(),
            },
        )],
    }
}

/// Admission of an already-lowered circuit against the key material
/// that exists: the standard passes, merged.
///
/// The levels pass bounds noise against worst-case magnitudes (each
/// diagonal's largest weight, summed over all diagonals and compounded
/// through every SLAF). On a real packed network that bound overshoots
/// by tens of orders of magnitude: packed CNN2 decrypts within 1e-3 of
/// plaintext yet is "garbage" by it. It is an accuracy estimate, not a
/// fact about whether the circuit can run, so `noise-budget` is
/// reported as a warning and does not refuse the request.
pub fn circuit_admission(circuit: &Circuit, keys: KeyInventory) -> LintReport {
    let mut circuit = circuit.clone();
    circuit.keys = keys;
    let mut report = PassManager::standard().run(&circuit).merged();
    for d in &mut report.diagnostics {
        if d.code == "noise-budget" {
            d.severity = Severity::Warn;
        }
    }
    report
}

/// The `batch-exceeds-slots` error of a `batch`-image scalar request
/// (one slot per image) the parameters cannot hold, if it is one.
pub fn batch_exceeds_slots(batch: usize, params: &CkksParams) -> Option<Diagnostic> {
    let (log_n, slots) = (params.n.trailing_zeros(), params.slots());
    (batch > slots).then(|| {
        Diagnostic::error(
            "batch-exceeds-slots",
            None,
            format!("the request packs {batch} images but N=2^{log_n} gives only {slots} slots"),
        )
        .with_suggestion(format!(
            "reduce the batch to ≤ {slots} or raise the ring degree"
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::he_layers::{ConvSpec, DenseSpec};
    use crate::network::HeLayerSpec;
    use crate::packed::PackedNetwork;
    use crate::packed_graph::{lower_packed, PackedLowering};
    use crate::RnsInputCodec;
    use he_ir::passes::levels::{self, NodeState};
    use he_ir::passes::rotations::required_elements;
    use he_ir::Layout;

    fn conv(k: usize) -> HeLayerSpec {
        HeLayerSpec::Conv(ConvSpec {
            weight: vec![0.25; k * k],
            bias: vec![0.1],
            in_ch: 1,
            out_ch: 1,
            k,
            stride: 1,
            pad: 0,
        })
    }

    fn slaf(degree: usize) -> HeLayerSpec {
        HeLayerSpec::Activation([0.1, 0.5, 0.25, 0.05][..=degree].to_vec())
    }

    fn dense(in_dim: usize, out_dim: usize) -> HeLayerSpec {
        HeLayerSpec::Dense(DenseSpec {
            weight: vec![0.2; in_dim * out_dim],
            bias: vec![0.0; out_dim],
            in_dim,
            out_dim,
        })
    }

    fn net(layers: Vec<HeLayerSpec>) -> HeNetwork {
        HeNetwork {
            layers,
            input_side: 3,
        }
    }

    /// conv → SLAF → conv → SLAF → … → dense over a 3×3 input, the
    /// paper's CNN shape: `pairs` conv/cubic-SLAF pairs, 3·pairs + 1
    /// levels.
    fn cnn(pairs: usize) -> HeNetwork {
        let mut layers = Vec::new();
        for p in 0..pairs {
            layers.push(conv(if p == 0 { 2 } else { 1 }));
            layers.push(slaf(3));
        }
        layers.push(dense(4, 2));
        net(layers)
    }

    /// The levels pass's own state at each layer's last ciphertext node.
    fn layer_exits(c: &Circuit) -> Vec<NodeState> {
        let analysis = levels::infer(c);
        c.regions
            .iter()
            .map(|r| {
                *r.nodes()
                    .rev()
                    .find_map(|id| analysis.state(id))
                    .expect("every layer computes a ciphertext")
            })
            .collect()
    }

    /// `x` rotated by each step, the rotations summed.
    fn rotations(params: CkksParams, steps: &[i64]) -> Circuit {
        let mut b = GraphBuilder::new(params);
        let x = b.input("x", 1, Layout::BatchSlots);
        let mut acc = x;
        for &s in steps {
            let r = b.rotate(x, s);
            acc = b.add(acc, r);
        }
        b.output(acc);
        b.finish(KeyInventory::unknown())
    }

    #[test]
    fn adequate_depth_is_clean() {
        // 2 conv(1) + 2 act(2) + dense(1) = 7 levels
        let (report, _) = admission(&cnn(2), GraphBuilder::new(CkksParams::tiny(7)));
        assert!(!report.has_errors(), "{}", report.render());
        assert!(report.has_code("summary"), "{}", report.render());
    }

    #[test]
    fn trajectory_replays_exact_scale_discipline() {
        let c = lower_network(&cnn(2), GraphBuilder::new(CkksParams::tiny(7)));
        let exits = layer_exits(&c);
        // conv(−1) slaf(−2) conv(−1) slaf(−2) dense(−1) from level 7
        let levels: Vec<i64> = exits.iter().map(|s| s.level).collect();
        assert_eq!(levels, vec![6, 4, 3, 1, 0]);
        // Δ-sized rescaling primes: every layer returns the scale to Δ
        for (r, s) in c.regions.iter().zip(&exits) {
            assert!(
                (s.log_scale() - 26.0).abs() < 1e-9,
                "{}: scale 2^{}",
                r.name,
                s.log_scale()
            );
        }
    }

    #[test]
    fn trajectory_honors_start_level() {
        // inputs enter at the level the pipeline encrypts at — the
        // network's depth — not at the top of a deeper chain
        let c = lower_network(
            &net(vec![dense(9, 2)]),
            GraphBuilder::new(CkksParams::tiny(5)),
        );
        assert_eq!(c.node(0).ty.as_ct().expect("input").level, 1);
        assert_eq!(layer_exits(&c)[0].level, 0);
    }

    #[test]
    fn over_deep_plan_flags_chain_exhaustion() {
        // needs 7 levels, chain has 4
        let net = cnn(2);
        let (report, _) = admission(&net, GraphBuilder::new(CkksParams::tiny(4)));
        assert!(report.has_errors());
        assert_eq!(report.merged().diagnostics.len(), 1, "{}", report.render());
        assert!(report.has_code("chain-exhausted"), "{}", report.render());
        // the suggestion quantifies the shortfall
        let text = report.render();
        assert!(text.contains("extend chain_bits with 3 more"), "{text}");
        // the lowering alone runs past level 0 and cascades, but the
        // levels pass names the same shortfall
        let lowered = lower_network(&net, GraphBuilder::new(CkksParams::tiny(4)));
        let cascade = PassManager::standard().run(&lowered);
        assert!(cascade.render().contains("3 more"), "{}", cascade.render());
    }

    #[test]
    fn activation_exhaustion_uses_slaf_code() {
        // one level left but the cubic needs two: the one
        // chain-exhausted error names the SLAF and its shortfall
        let (report, _) = admission(
            &net(vec![conv(2), slaf(3)]),
            GraphBuilder::new(CkksParams::tiny(2)),
        );
        assert!(report.has_code("chain-exhausted"), "{}", report.render());
        let text = report.render();
        assert!(
            text.contains("layer 1, SLAF(deg 3) (2 level(s) needed, 1 left)"),
            "{text}"
        );
        assert!(text.contains("1 more"), "{text}");
    }

    #[test]
    fn rotation_without_key_is_error_and_names_inventory() {
        let params = CkksParams::tiny(2);
        let have = [params.galois_element_for_rotation(1)];
        let missing = params.galois_element_for_rotation(3);
        let c = rotations(params, &[1, 3]);
        let report = circuit_admission(&c, KeyInventory::with_galois(true, have));
        assert!(report.has_errors());
        assert!(report.has_code("missing-galois-key"));
        let text = report.render();
        assert!(
            text.contains(&format!(
                "element {missing} but it is not in the declared inventory"
            )),
            "{text}"
        );
    }

    #[test]
    fn rotation_with_key_and_identity_rotation_are_clean() {
        let params = CkksParams::tiny(2);
        let slots = params.slots() as i64;
        let elems = [
            params.galois_element_for_rotation(1),
            params.galois_element_for_rotation(-2),
        ];
        // identity: no key needed
        let c = rotations(params, &[1, -2, slots]);
        let report = circuit_admission(&c, KeyInventory::with_galois(true, elems));
        assert!(!report.has_errors(), "{}", report.render());
        assert!(!report.has_code("unused-galois-key"), "{}", report.render());
    }

    #[test]
    fn unknown_inventory_skips_key_checks() {
        let mut b = GraphBuilder::new(CkksParams::tiny(1));
        let x = b.input("x", 1, Layout::BatchSlots);
        let r = b.rotate(x, 7);
        let y = b.rotate(r, 3);
        b.output(y);
        let c = b.finish(KeyInventory::relin_only());
        let report = circuit_admission(&c, KeyInventory::unknown());
        assert!(!report.has_errors(), "{}", report.render());
        assert!(report.has_code("rotation-set"), "{}", report.render());
        // the same circuit against an empty declared set is refused
        let refused = circuit_admission(&c, KeyInventory::relin_only());
        assert!(refused.has_code("missing-galois-key"));
    }

    #[test]
    fn missing_relin_key_flagged_for_squaring_activation() {
        let packed = PackedNetwork::from_network(&net(vec![conv(2), slaf(2), dense(4, 2)]));
        let params = CkksParams::tiny(packed.required_levels());
        let c = lower_packed(
            &packed,
            GraphBuilder::new(params),
            1,
            PackedLowering::Compiled,
        );
        // every Galois key the circuit rotates by, but no relin key
        let keys = KeyInventory::with_galois(false, required_elements(&c).elements);
        let report = circuit_admission(&c, keys.clone());
        assert!(report.has_code("missing-relin-key"), "{}", report.render());
        assert!(
            !report.has_code("missing-galois-key"),
            "{}",
            report.render()
        );
        let with_relin = KeyInventory {
            relin: true,
            ..keys
        };
        assert!(!circuit_admission(&c, with_relin).has_errors());
    }

    #[test]
    fn oversized_rescaling_primes_cause_scale_drift_error() {
        // 30-bit primes with Δ=2^26: a cubic lands at 3·26 − 30 − 30 = 18
        let params = |depth: usize| CkksParams {
            chain_bits: std::iter::once(40)
                .chain(std::iter::repeat_n(30, depth))
                .collect(),
            ..CkksParams::tiny(depth)
        };
        let c = lower_network(&net(vec![slaf(3)]), GraphBuilder::new(params(2)));
        assert!((layer_exits(&c)[0].log_scale() - 18.0).abs() < 1e-9);
        // a second cubic drifts to 3·18 − 60 = −6 bits: the message is
        // gone and admission refuses the network
        let deeper = net(vec![slaf(3), slaf(3)]);
        let (report, _) = admission(&deeper, GraphBuilder::new(params(4)));
        assert!(report.has_errors(), "{}", report.render());
        assert!(report.has_code("noise-budget"), "{}", report.render());
        let c = lower_network(&deeper, GraphBuilder::new(params(4)));
        assert!((layer_exits(&c)[1].log_scale() + 6.0).abs() < 1e-9);
    }

    #[test]
    fn noncoprime_codec_moduli_rejected() {
        for (moduli, factor) in [([6u64, 10], 2), ([15, 35], 5)] {
            let e = RnsInputCodec::from_moduli(&moduli, 10).unwrap_err();
            assert!(e.contains(&format!("shared factor {factor}")), "{e}");
        }
    }

    #[test]
    fn codec_range_must_cover_dynamic_range() {
        // Π m = 15 must exceed 2·max_abs: 7 fits exactly, 8 does not
        assert!(RnsInputCodec::from_moduli(&[3, 5], 7).is_ok());
        let e = RnsInputCodec::from_moduli(&[3, 5], 8).unwrap_err();
        assert!(e.contains("dynamic range"), "{e}");
    }

    #[test]
    fn sound_codec_passes() {
        let codec = RnsInputCodec::from_moduli(&[97, 101, 103], 127).unwrap();
        let xs = vec![127i64, -127, 0, 5];
        assert_eq!(codec.recompose_residues(&codec.decompose_residues(&xs)), xs);
    }

    #[test]
    fn batch_exceeding_slots_is_error() {
        let params = CkksParams::tiny(1); // 512 slots
        let d = batch_exceeds_slots(1024, &params).expect("1024 images exceed 512 slots");
        assert_eq!(d.code, "batch-exceeds-slots");
        assert_eq!(d.severity, Severity::Error);
        assert!(d.message.contains("only 512 slots"), "{}", d.message);
        assert!(batch_exceeds_slots(512, &params).is_none());
    }

    #[test]
    fn shallow_q0_is_error() {
        // q_0 narrower than Δ: the logits cannot sit at level 0
        let params = CkksParams {
            chain_bits: vec![24, 26],
            ..CkksParams::tiny(1)
        };
        let (report, _) = admission(&net(vec![dense(9, 2)]), GraphBuilder::new(params));
        assert!(report.has_code("low-headroom"), "{}", report.render());
        assert!(report.has_errors());
        assert!(report.render().contains("widen q_0"), "{}", report.render());
    }
}
