//! Runtime inference telemetry — the bridge between the measured run
//! and the circuit admission linted.
//!
//! Every run of a prepared circuit yields one `he_ir::RegionRun` per
//! region (name, wall, per-unit walls, HE op-counter deltas, exit
//! level/scale and structural noise headroom): the [`InferenceTiming`]
//! every request returns, and what a trace holds. [`InferenceTrace`]
//! bundles them with the input's level, scale and headroom and the
//! recorded spans, and **cross-checks them against the circuit that
//! ran** ([`ir_cross_check`]) — any divergence between what the circuit
//! declares and what the ciphertexts actually did is reported as a
//! string per mismatch. [`crate::exec::breakdown`] renders it.
//!
//! Levels must agree exactly. Scales are compared in `log₂` with a
//! [`SCALE_TOL_BITS`] tolerance: a circuit lowered over nominal primes
//! (`2^bits` exactly) sits within a few millibits of a run on real NTT
//! primes, which deviate by up to one part in `2^11` — far inside the
//! tolerance — while a mis-planned rescale (≥ one prime ≈ 26 bits) is
//! far outside it.

use crate::exec::InferenceTiming;
use ckks::CkksContext;
use he_ir::{Circuit, RegionRun};
use he_trace::{OpSnapshot, SpanEvent};
use std::sync::Arc;

/// Scale-agreement tolerance (bits) for the runtime↔static cross-check.
pub const SCALE_TOL_BITS: f64 = 0.1;

/// Full telemetry of one traced encrypted inference.
#[derive(Debug, Clone)]
pub struct InferenceTrace {
    /// Level of the freshly encrypted input.
    pub start_level: usize,
    /// Scale of the freshly encrypted input.
    pub start_scale: f64,
    /// Structural headroom (bits) of the input.
    pub start_headroom_bits: f64,
    /// One record per executed region — the request's
    /// [`InferenceTiming`] records.
    pub layers: Vec<RegionRun>,
    /// Recorded spans (empty when the `trace` feature is off).
    pub events: Vec<SpanEvent>,
    /// Runtime↔static mismatches; empty means the run followed the
    /// lowered circuit exactly.
    pub divergence: Vec<String>,
    /// Counter deltas over the whole inference.
    pub total_ops: OpSnapshot,
}

impl InferenceTrace {
    /// The trace of one run of `circuit`, spans aside: its per-region
    /// records, cross-checked against it ([`ir_cross_check`]). `start`
    /// is the first input's level and scale, `total_ops` the run's op
    /// delta.
    pub fn of_run(
        ctx: &Arc<CkksContext>,
        circuit: &Circuit,
        timing: InferenceTiming,
        (start_level, start_scale): (usize, f64),
        total_ops: OpSnapshot,
    ) -> Self {
        let layers = timing.layers;
        Self {
            start_level,
            start_scale,
            start_headroom_bits: ckks::noise::headroom_bits_at(ctx, start_level, start_scale),
            divergence: ir_cross_check(&layers, circuit),
            layers,
            events: Vec::new(),
            total_ops,
        }
    }

    /// Headroom bits consumed across the whole inference.
    pub fn noise_spent_bits(&self) -> f64 {
        self.layers
            .last()
            .map_or(0.0, |l| self.start_headroom_bits - l.headroom_bits)
    }

    /// chrome://tracing JSON of the recorded spans. Errors only if a
    /// span carries a non-finite or negative timestamp, which would
    /// indicate a clock bug in the tracer itself.
    pub fn chrome_json(&self) -> Result<String, String> {
        he_trace::to_chrome_json(&self.events)
    }

    /// Flamegraph folded stacks of the recorded spans.
    pub fn folded_stacks(&self) -> String {
        he_trace::to_folded_stacks(&self.events)
    }

    /// Publish the measured trajectory as gauges on the process-global
    /// [`he_trace::global`] registry: per-layer ciphertext level, `log₂`
    /// scale, and structural noise headroom, plus whole-inference
    /// headroom figures. A scrape can then cross-check the live values
    /// against the lowered circuit the same way [`ir_cross_check`] does
    /// post-hoc. Compiles to nothing unless cnn-he's `trace` feature
    /// (→ `he-trace/enabled`) is on.
    pub fn export_gauges(&self) {
        he_trace::gauge_set(
            "he_infer_start_headroom_bits",
            "Structural noise headroom (bits) of the freshly encrypted input.",
            &[],
            self.start_headroom_bits,
        );
        he_trace::gauge_set(
            "he_infer_noise_spent_bits",
            "Headroom bits consumed across the most recent traced inference.",
            &[],
            self.noise_spent_bits(),
        );
        he_trace::gauge_set(
            "he_infer_start_level",
            "Ciphertext level of the freshly encrypted input.",
            &[],
            self.start_level as f64,
        );
        for l in &self.layers {
            let labels = [("layer", l.name.as_str())];
            he_trace::gauge_set(
                "he_layer_level",
                "Ciphertext level after the layer (most recent traced inference).",
                &labels,
                l.level as f64,
            );
            he_trace::gauge_set(
                "he_layer_log2_scale",
                "log2 of the ciphertext scale after the layer.",
                &labels,
                l.scale.log2(),
            );
            he_trace::gauge_set(
                "he_layer_noise_headroom_bits",
                "Structural noise headroom (bits) after the layer.",
                &labels,
                l.headroom_bits,
            );
        }
    }
}

/// Diffs observed per-region telemetry against the circuit that ran
/// (one trace per region, or per shard × region): exit level must match
/// exactly, exit scale within [`SCALE_TOL_BITS`] (a `for_context`
/// lowering is bit-identical, so any drift is real), and the observed HE
/// op counters must not *undershoot* the static per-region counts.
/// Overshoot is not flagged — the runtime counters are process-global,
/// so concurrent HE work in other threads can only inflate them — and
/// regions whose counters are all zero (the `trace` feature compiled
/// out) skip the op comparison entirely.
pub fn ir_cross_check(layers: &[RegionRun], circuit: &Circuit) -> Vec<String> {
    let mut out = Vec::new();
    let regions = circuit.regions.len();
    let shards = layers.len() / regions.max(1);
    if shards * regions != layers.len() || (shards == 0 && regions > 0) {
        out.push(format!(
            "region count mismatch: runtime executed {} layers, the IR circuit has {} regions",
            layers.len(),
            regions
        ));
        return out;
    }
    for (i, (l, region)) in layers
        .iter()
        .zip(circuit.regions.iter().cycle())
        .enumerate()
    {
        let exit = region
            .nodes()
            .rev()
            .find_map(|id| circuit.node(id).ty.as_ct());
        if let Some(ty) = exit {
            if ty.level != l.level {
                out.push(format!(
                    "layer {i} ({}): exit level {} observed, IR region declares {}",
                    l.name, l.level, ty.level
                ));
            }
            let drift = (l.scale.log2() - ty.log2_scale()).abs();
            if drift > SCALE_TOL_BITS {
                out.push(format!(
                    "layer {i} ({}): exit log2(scale) {:.4} drifts {drift:.4} bits \
                     from the IR-declared {:.4}",
                    l.name,
                    l.scale.log2(),
                    ty.log2_scale()
                ));
            }
        }
        if l.ops == OpSnapshot::default() {
            continue;
        }
        let want = circuit.op_counts_in(region);
        for (what, observed, statically) in [
            ("ct_mults", l.ops.ct_mults, want.ct_mults),
            ("scalar_macs", l.ops.scalar_macs, want.scalar_macs),
            ("rescales", l.ops.rescales, want.rescales),
            ("rotations", l.ops.rotations, want.rotations),
        ] {
            if observed < statically {
                out.push(format!(
                    "layer {i} ({}): observed only {observed} {what} but the IR \
                     region contains {statically}",
                    l.name
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckks::CkksParams;
    use he_ir::{Circuit, GraphBuilder, KeyInventory, Layout};
    use std::time::Duration;

    fn layer(name: &str, level: usize, scale: f64) -> RegionRun {
        RegionRun {
            name: name.to_string(),
            wall: Duration::from_millis(10),
            unit_walls: vec![Duration::from_millis(3); 4],
            level,
            scale,
            headroom_bits: 40.0,
            ..RegionRun::default()
        }
    }

    /// Depth 2: "lin" (MAC + rescale, 2 → 1), "act" (square + rescale,
    /// 1 → 0), over nominal primes.
    fn circuit() -> Circuit {
        let params = CkksParams::tiny(2);
        let s = params.scale();
        let mut b = GraphBuilder::new(params);
        let x = b.input("x", 2, Layout::BatchSlots);
        b.begin_region("lin");
        let q = b.q_at(2);
        let w = b.encode_scalar(0.5, q, 2);
        let z = b.zero(s * q, 2);
        let acc = b.mac_plain(z, x, w);
        let y = b.rescale(acc);
        b.begin_region("act");
        let sq = b.square(y);
        let out = b.rescale(sq);
        b.output(out);
        b.finish(KeyInventory::relin_only())
    }

    /// Telemetry landing exactly on every region's exit type.
    fn matching_layers(c: &Circuit) -> Vec<RegionRun> {
        c.regions
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let ty = r
                    .nodes()
                    .rev()
                    .find_map(|id| c.node(id).ty.as_ct())
                    .unwrap();
                RegionRun {
                    region: i,
                    ..layer(&r.name, ty.level, ty.scale)
                }
            })
            .collect()
    }

    #[test]
    fn matching_trajectory_has_no_divergence() {
        let c = circuit();
        let layers = matching_layers(&c);
        assert_eq!((layers[0].level, layers[1].level), (1, 0));
        assert_eq!(ir_cross_check(&layers, &c), Vec::<String>::new());
    }

    #[test]
    fn near_nominal_scale_is_within_tolerance() {
        // real NTT primes deviate from 2^bits by ≤ 1 part in 2^11; a
        // cross-check against a nominal lowering must absorb that
        let c = circuit();
        let mut layers = matching_layers(&c);
        layers[0].scale *= 1.0 + 1.0 / 2048.0;
        assert_eq!(ir_cross_check(&layers, &c), Vec::<String>::new());
    }

    #[test]
    fn level_and_scale_mismatches_are_reported() {
        let c = circuit();
        let mut layers = matching_layers(&c);
        // wrong level (forgot a rescale)
        layers[0].level += 1;
        // scale off by a whole prime (~13 bits on the tiny chain)
        layers[1].scale *= 8192.0;
        let div = ir_cross_check(&layers, &c);
        assert_eq!(div.len(), 2, "{div:?}");
        assert!(div[0].contains("level"), "{}", div[0]);
        assert!(div[1].contains("drifts"), "{}", div[1]);
    }

    #[test]
    fn op_count_mismatch_short_circuits() {
        let c = circuit();
        let layers = matching_layers(&c);
        let div = ir_cross_check(&layers[..1], &c);
        assert_eq!(div.len(), 1);
        assert!(div[0].contains("region count mismatch"));
    }

    #[test]
    fn ir_cross_check_flags_level_scale_and_undercount() {
        let params = CkksParams::tiny(2);
        let s = params.scale();
        let mut b = GraphBuilder::new(params);
        let x = b.input("x", 2, Layout::BatchSlots);
        b.begin_region("lin");
        let q = b.q_at(2);
        let w = b.encode_scalar(0.5, q, 2);
        let z = b.zero(s * q, 2);
        let acc = b.mac_plain(z, x, w);
        let y = b.rescale(acc);
        b.output(y);
        let c = b.finish(KeyInventory::relin_only());

        // matching telemetry (counters at or above the static counts)
        let mut ok = layer("lin", 1, s);
        ok.ops.scalar_macs = 1;
        ok.ops.rescales = 2; // another thread's rescale: not flagged
        assert_eq!(ir_cross_check(&[ok], &c), Vec::<String>::new());

        // counters all zero (trace feature off): op comparison skipped
        let quiet = layer("lin", 1, s);
        assert_eq!(ir_cross_check(&[quiet], &c), Vec::<String>::new());

        // wrong level, drifted scale, and an undershot rescale counter
        let mut bad = layer("lin", 2, s * 8.0);
        bad.ops.scalar_macs = 1;
        let div = ir_cross_check(&[bad], &c);
        assert_eq!(div.len(), 3, "{div:?}");
        assert!(div[0].contains("exit level"), "{}", div[0]);
        assert!(div[1].contains("drifts"), "{}", div[1]);
        assert!(div[2].contains("rescales"), "{}", div[2]);

        // layer-count mismatch short-circuits
        let div = ir_cross_check(&[], &c);
        assert_eq!(div.len(), 1);
        assert!(div[0].contains("region count mismatch"));
    }

    #[test]
    fn trace_breakdown_renders_the_input_row_and_spends() {
        let c = circuit();
        let layers = matching_layers(&c);
        let trace = InferenceTrace {
            start_level: 2,
            start_scale: 26.0f64.exp2(),
            start_headroom_bits: 60.0,
            divergence: ir_cross_check(&layers, &c),
            layers,
            events: Vec::new(),
            total_ops: OpSnapshot::default(),
        };
        assert!(trace.divergence.is_empty(), "{:?}", trace.divergence);
        let input = (
            trace.start_level,
            trace.start_scale,
            trace.start_headroom_bits,
        );
        let table = crate::exec::breakdown(&trace.layers, Some(input));
        let rows: Vec<Vec<&str>> = table
            .lines()
            .map(|l| l.split_whitespace().collect())
            .collect();
        // backend, header, rule, input, two regions, rule, total
        assert_eq!(rows.len(), 8, "{table}");
        assert_eq!(rows[3], ["(input)", "2", "26.00", "60.0"]);
        // the first layer spent 60 − 40 = 20 bits, the second none; unit
        // p50/p95 of four 3 ms units
        assert_eq!(rows[4][9..], ["40.0", "20.0", "3.0/3.0ms"]);
        assert_eq!(rows[5][9..], ["40.0", "0.0", "3.0/3.0ms"]);
        assert_eq!(rows[7].last(), Some(&"20.0"), "{table}");
        assert!((trace.noise_spent_bits() - 20.0).abs() < 1e-9);
    }
}
