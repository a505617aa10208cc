//! Pass 2: rotation-set analysis — the exact Galois-key set a circuit
//! needs versus what the key registry declares.
//!
//! Walks every `Rotate`/`Conjugate` node, maps steps to Galois elements
//! (`5^(steps mod N/2) mod 2N`; identity rotations need no key, exactly
//! like `Evaluator::try_rotate`), and diffs the required set against
//! [`crate::KeyInventory::galois_elements`]: missing keys are errors
//! (the eager run would fail the key lookup), declared-but-unneeded
//! keys are warnings (wasted keygen and memory). The raw
//! [`required_elements`] result is what CI asserts equal to the keys
//! `cnn-he` actually generates.

use crate::circuit::{Circuit, Op};
use crate::diag::{Diagnostic, LintReport};
use crate::pass::{Pass, PassOutput};
use std::collections::{BTreeMap, BTreeSet};

/// The rotation requirements of a circuit.
#[derive(Debug, Clone, Default)]
pub struct RotationSet {
    /// Non-identity rotation steps used, normalized to `0..slots`.
    pub steps: BTreeSet<i64>,
    /// Galois elements required for the steps (identity excluded).
    pub elements: BTreeSet<usize>,
    /// True when a `Conjugate` node needs the conjugation key.
    pub conjugate: bool,
    /// First node id needing each element (for diagnostics).
    first_use: BTreeMap<usize, usize>,
}

/// Computes the exact Galois-element set the circuit needs.
pub fn required_elements(c: &Circuit) -> RotationSet {
    let slots = c.params.slots() as i64;
    let mut set = RotationSet::default();
    for (id, node) in c.nodes.iter().enumerate() {
        match &node.op {
            Op::Rotate { steps, .. } => {
                let r = steps.rem_euclid(slots);
                if r == 0 {
                    continue; // identity, no key touched
                }
                let elem = c.params.galois_element_for_rotation(*steps);
                set.steps.insert(r);
                set.elements.insert(elem);
                set.first_use.entry(elem).or_insert(id);
            }
            Op::Conjugate { .. } => {
                let elem = c.params.galois_element_conjugate();
                set.conjugate = true;
                set.elements.insert(elem);
                set.first_use.entry(elem).or_insert(id);
            }
            _ => {}
        }
    }
    set
}

/// The [`Pass`] wrapper: required-vs-declared key coverage.
pub struct RotationSetPass;

impl Pass for RotationSetPass {
    fn name(&self) -> &'static str {
        "rotation-set"
    }

    fn description(&self) -> &'static str {
        "exact galois-key set the circuit needs vs the declared key inventory"
    }

    fn run(&self, circuit: &Circuit) -> PassOutput {
        let required = required_elements(circuit);
        let mut report = LintReport::default();

        let declared = circuit.keys.galois_elements.as_ref();
        match declared {
            None => {
                report.push(Diagnostic::info(
                    "rotation-set",
                    None,
                    format!(
                        "circuit needs {} galois element(s); key inventory unknown, \
                         coverage not checked",
                        required.elements.len()
                    ),
                ));
            }
            Some(have) => {
                for (&elem, &node) in &required.first_use {
                    if !have.contains(&elem) {
                        let what = if elem == circuit.params.galois_element_conjugate() {
                            "conjugation".to_string()
                        } else {
                            format!("rotation (element {elem})")
                        };
                        report.push(
                            Diagnostic::error(
                                "missing-galois-key",
                                Some(node),
                                format!(
                                    "{what} needs the Galois key for element {elem} \
                                     but it is not in the declared inventory"
                                ),
                            )
                            .with_suggestion(format!(
                                "include element {elem} in the steps passed to gen_galois_keys"
                            )),
                        );
                    }
                }
                for &elem in have {
                    if !required.elements.contains(&elem) {
                        report.push(Diagnostic::warn(
                            "unused-galois-key",
                            None,
                            format!(
                                "Galois key for element {elem} is declared but no node \
                                 in the circuit uses it"
                            ),
                        ));
                    }
                }
            }
        }

        let summary = format!(
            "{} rotation step(s), {} galois element(s) required{}, {} declared",
            required.steps.len(),
            required.elements.len(),
            if required.conjugate {
                " (incl. conjugation)"
            } else {
                ""
            },
            declared.map_or_else(|| "?".to_string(), |h| h.len().to_string()),
        );
        PassOutput { report, summary }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::GraphBuilder;
    use crate::circuit::KeyInventory;
    use crate::types::Layout;
    use ckks::CkksParams;

    fn rotating_circuit(steps: &[i64], keys: KeyInventory) -> Circuit {
        let mut b = GraphBuilder::new(CkksParams::tiny(1));
        let mut x = b.input("x", 1, Layout::Tiled);
        for &s in steps {
            x = b.rotate(x, s);
        }
        b.output(x);
        b.finish(keys)
    }

    #[test]
    fn required_set_matches_param_elements_and_skips_identity() {
        let params = CkksParams::tiny(1);
        let slots = params.slots() as i64;
        let c = rotating_circuit(&[1, 2, 2, slots, -1], KeyInventory::unknown());
        let req = required_elements(&c);
        // -1 ≡ slots-1; identity dropped; duplicate 2 deduped
        assert_eq!(req.steps.len(), 3);
        let expect: BTreeSet<usize> = [1i64, 2, -1]
            .iter()
            .map(|&s| params.galois_element_for_rotation(s))
            .collect();
        assert_eq!(req.elements, expect);
        assert!(!req.conjugate);
        // unknown key material: coverage is reported, never an error
        let out = RotationSetPass.run(&c);
        assert!(!out.report.has_errors(), "{}", out.report.render());
    }

    #[test]
    fn exact_coverage_is_clean_and_extra_key_warns() {
        let params = CkksParams::tiny(1);
        let exact = KeyInventory::with_galois(
            true,
            [1i64, 2].map(|s| params.galois_element_for_rotation(s)),
        );
        let out = RotationSetPass.run(&rotating_circuit(&[1, 2], exact));
        assert!(!out.report.has_errors(), "{}", out.report.render());
        assert!(!out.report.has_code("unused-galois-key"));

        let extra = KeyInventory::with_galois(
            true,
            [1i64, 2, 4].map(|s| params.galois_element_for_rotation(s)),
        );
        let out = RotationSetPass.run(&rotating_circuit(&[1, 2], extra));
        assert!(!out.report.has_errors());
        assert!(out.report.has_code("unused-galois-key"));
    }

    #[test]
    fn missing_key_is_an_error_with_node_attribution() {
        let params = CkksParams::tiny(1);
        let have = KeyInventory::with_galois(true, [params.galois_element_for_rotation(1)]);
        let out = RotationSetPass.run(&rotating_circuit(&[1, 3], have));
        assert!(out.report.has_errors());
        let d = out
            .report
            .errors()
            .find(|d| d.code == "missing-galois-key")
            .unwrap();
        assert!(d.op_index.is_some());
    }

    #[test]
    fn conjugation_requires_its_element() {
        let params = CkksParams::tiny(1);
        let mut b = GraphBuilder::new(params.clone());
        let x = b.input("x", 1, Layout::Tiled);
        let y = b.conjugate(x);
        b.output(y);
        let c = b.finish(KeyInventory::relin_only());
        let req = required_elements(&c);
        assert!(req.conjugate);
        assert!(req.elements.contains(&params.galois_element_conjugate()));
        let out = RotationSetPass.run(&c);
        assert!(out.report.has_code("missing-galois-key"));
    }
}
