//! The pass framework: a [`Pass`] trait, the standard analysis
//! pipeline, and merged reporting.
//!
//! A pass is a pure analysis `&Circuit → PassOutput` returning a
//! [`LintReport`] in the shared severity model plus a one-line summary
//! for CLI display. Passes never rewrite a circuit: the lowering emits
//! the circuit that runs.

use crate::circuit::Circuit;
use crate::diag::{Diagnostic, LintReport};
use crate::passes;

/// Result of one pass over one circuit.
#[derive(Debug, Clone, Default)]
pub struct PassOutput {
    pub report: LintReport,
    /// One-line human digest ("needs 12 galois elements, 12 declared").
    pub summary: String,
}

/// A static analysis over a circuit.
pub trait Pass {
    /// Stable kebab-case identifier (`levels`, `rotation-set`, …).
    fn name(&self) -> &'static str;
    /// One-line description for `he-ir passes`.
    fn description(&self) -> &'static str;
    fn run(&self, circuit: &Circuit) -> PassOutput;
}

/// Ordered collection of passes.
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

impl PassManager {
    pub fn empty() -> Self {
        Self { passes: Vec::new() }
    }

    /// The standard pipeline: the five shipped analyses, in dependency
    /// order (levels first — later passes assume types were checked).
    pub fn standard() -> Self {
        let mut pm = Self::empty();
        pm.add(passes::levels::LevelsPass);
        pm.add(passes::rotations::RotationSetPass);
        pm.add(passes::liveness::LivenessPass);
        pm.add(passes::cse::CsePass);
        pm.add(passes::placement::PlacementPass);
        pm
    }

    /// The empty manager: a shim kept only because hebench
    /// (`hebench/src/adapter.rs`) still calls it and [`Self::optimize`],
    /// and its sources change only with the benchmark definition.
    /// Delete both with that call.
    pub fn optimizer() -> Self {
        Self::empty()
    }

    pub fn add(&mut self, pass: impl Pass + 'static) {
        self.passes.push(Box::new(pass));
    }

    /// `(name, description)` of every registered pass, in run order.
    pub fn catalog(&self) -> Vec<(&'static str, &'static str)> {
        self.passes
            .iter()
            .map(|p| (p.name(), p.description()))
            .collect()
    }

    /// Runs every pass. Structural validation gates the pipeline: a
    /// malformed graph yields a single error report instead of passes
    /// tripping over it.
    pub fn run(&self, circuit: &Circuit) -> AnalysisReport {
        if let Err(e) = circuit.validate() {
            let mut report = LintReport::default();
            report.push(Diagnostic::error("malformed-circuit", None, e));
            return AnalysisReport {
                per_pass: vec![(
                    "structure",
                    PassOutput {
                        report,
                        summary: "circuit failed structural validation".to_string(),
                    },
                )],
            };
        }
        AnalysisReport {
            per_pass: self
                .passes
                .iter()
                .map(|p| (p.name(), p.run(circuit)))
                .collect(),
        }
    }

    /// Structural validation ([`Circuit::validate`]) and nothing else:
    /// the hebench-only shim that pairs with [`Self::optimizer`].
    pub fn optimize(&self, circuit: &Circuit) -> Result<(), String> {
        circuit.validate()
    }
}

/// All pass outputs of one [`PassManager::run`].
#[derive(Debug, Clone, Default)]
pub struct AnalysisReport {
    pub per_pass: Vec<(&'static str, PassOutput)>,
}

impl AnalysisReport {
    /// Every diagnostic from every pass, merged in run order.
    pub fn merged(&self) -> LintReport {
        let mut all = LintReport::default();
        for (_, out) in &self.per_pass {
            all.extend(out.report.clone());
        }
        all
    }

    pub fn has_errors(&self) -> bool {
        self.per_pass.iter().any(|(_, o)| o.report.has_errors())
    }

    /// True when a diagnostic with the given code was produced by any pass.
    pub fn has_code(&self, code: &str) -> bool {
        self.per_pass.iter().any(|(_, o)| o.report.has_code(code))
    }

    /// Full multi-line rendering: per-pass summaries, then the merged
    /// diagnostics (errors first).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, po) in &self.per_pass {
            out.push_str(&format!("pass {name}: {}\n", po.summary));
        }
        out.push_str(&self.merged().render());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::GraphBuilder;
    use crate::circuit::KeyInventory;
    use crate::types::Layout;
    use ckks::CkksParams;

    fn clean_circuit() -> Circuit {
        let params = CkksParams::tiny(3);
        let s = params.scale();
        let mut b = GraphBuilder::new(params);
        let top = b.params().depth();
        b.begin_region("dense");
        let x = b.input("x", top, Layout::BatchSlots);
        let q = b.q_at(top);
        let w = b.encode_scalar(0.25, q, top);
        let z = b.zero(s * q, top);
        let acc = b.mac_plain(z, x, w);
        let acc = b.add_scalar(acc, 0.5);
        let y = b.rescale(acc);
        b.output(y);
        b.finish(KeyInventory::relin_only())
    }

    #[test]
    fn standard_pipeline_is_clean_on_well_formed_circuit() {
        let report = PassManager::standard().run(&clean_circuit());
        assert!(!report.has_errors(), "{}", report.render());
        assert_eq!(report.per_pass.len(), 5);
        // every pass produced a one-line summary
        for (name, po) in &report.per_pass {
            assert!(!po.summary.is_empty(), "pass {name} has no summary");
            assert!(!po.summary.contains('\n'));
        }
    }

    #[test]
    fn malformed_circuit_short_circuits() {
        let mut c = clean_circuit();
        c.outputs = vec![c.nodes.len() + 7];
        let report = PassManager::standard().run(&c);
        assert!(report.has_errors());
        assert!(report.has_code("malformed-circuit"));
        assert_eq!(report.per_pass.len(), 1);
    }

    #[test]
    fn catalog_lists_passes_in_order() {
        let pm = PassManager::standard();
        let names: Vec<&str> = pm.catalog().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            vec!["levels", "rotation-set", "liveness", "cse", "placement"]
        );
    }
}
