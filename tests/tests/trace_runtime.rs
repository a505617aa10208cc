//! Integration: runtime tracing against the static plan.
//!
//! These tests exercise the acceptance criteria of the he-trace
//! subsystem end to end: `Pipeline::traced_infer` on the paper's CNN1
//! must produce a trace whose per-layer levels/scales match the lowered
//! circuit, whose op counters are identical across thread counts, and
//! whose chrome-trace JSON round-trips the validity checker.
//!
//! The he-trace op counters are process-global, so every test here
//! takes a file-wide lock: exact-equality counter assertions live in
//! this dedicated binary (a separate OS process under `cargo test`)
//! precisely so no unrelated HE work can bleed into the deltas.

#![forbid(unsafe_code)]

use cnn_he::{CnnHePipeline, ExecMode, HeNetwork};
use neural::models::{cnn1, ActKind};
use std::sync::{Mutex, MutexGuard, PoisonError};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn cnn1_pipeline(seed: u64) -> CnnHePipeline {
    let net = HeNetwork::from_trained(&cnn1(ActKind::slaf3(), seed), 28);
    CnnHePipeline::new(net, 1 << 10, seed)
}

fn test_image() -> Vec<f32> {
    (0..784).map(|i| ((i * 3) % 29) as f32 / 29.0).collect()
}

#[test]
fn cnn1_trace_matches_static_plan_and_round_trips_chrome_json() {
    let _g = serial();
    let mut pipe = cnn1_pipeline(600);
    let img = test_image();
    let (cls, trace) = pipe.traced_infer(&[&img]);
    assert_eq!(cls.predictions.len(), 1);

    // ---- runtime ↔ static: the built-in cross-check against the
    // lowered circuit (levels, scales, op counts per region) is clean
    assert!(
        trace.divergence.is_empty(),
        "runtime diverged from the static plan:\n{}",
        trace.divergence.join("\n")
    );

    // ---- chrome export round-trips the validator
    let json = trace.chrome_json().expect("span timestamps must be finite");
    let n = he_trace::validate_chrome_json(&json).expect("emitted chrome trace is invalid");
    assert_eq!(n, trace.events.len());

    // ---- folded stacks cover every recorded thread
    if !trace.events.is_empty() {
        let folded = trace.folded_stacks();
        assert!(folded.lines().all(|l| l.starts_with("thread-")), "{folded}");
    }
}

#[test]
fn per_layer_op_attribution_partitions_the_total() {
    // The per-layer counter deltas must sum exactly to the whole-run
    // delta: attribution may not lose or double-count a single op.
    // (With the `trace` feature off everything is zero and the equality
    // is trivial.)
    let _g = serial();
    let mut pipe = cnn1_pipeline(601);
    let img = test_image();
    let (_, trace) = pipe.traced_infer(&[&img]);
    let mut sum = he_trace::OpSnapshot::default();
    for l in &trace.layers {
        sum.ntt_fwd += l.ops.ntt_fwd;
        sum.ntt_inv += l.ops.ntt_inv;
        sum.modmul_limbs += l.ops.modmul_limbs;
        sum.ct_mults += l.ops.ct_mults;
        sum.rotations += l.ops.rotations;
        sum.relins += l.ops.relins;
        sum.rescales += l.ops.rescales;
        sum.keyswitches += l.ops.keyswitches;
        sum.scalar_macs += l.ops.scalar_macs;
        sum.crt_decompose += l.ops.crt_decompose;
        sum.crt_recompose += l.ops.crt_recompose;
    }
    assert_eq!(sum, trace.total_ops);
    // the scalar engine never rotates
    assert_eq!(trace.total_ops.rotations, 0);
}

#[test]
fn traced_op_counts_identical_sequential_vs_parallel() {
    // the same acceptance criterion as parallel_engine's raw-counter
    // test, but through the traced pipeline: per-layer attribution must
    // also be thread-count-invariant
    let _g = serial();
    let mut pipe = cnn1_pipeline(602);
    let img = test_image();

    pipe.set_exec_mode(ExecMode::sequential());
    let (_, seq) = pipe.traced_infer(&[&img]);

    pipe.set_exec_mode(ExecMode::unit_parallel(4));
    let (_, par) = pipe.traced_infer(&[&img]);

    assert_eq!(seq.layers.len(), par.layers.len());
    for (a, b) in seq.layers.iter().zip(&par.layers) {
        assert_eq!(
            a.ops, b.ops,
            "{}: op counters diverged across modes",
            a.name
        );
        assert_eq!(a.level, b.level);
        assert_eq!(a.scale.to_bits(), b.scale.to_bits());
    }
    assert_eq!(seq.total_ops, par.total_ops);
}

#[test]
fn static_ir_op_counts_match_observed_layer_counters_exactly() {
    // The circuit IR's per-region op counts are a *static* prediction of
    // the runtime counters; under the file lock (no concurrent HE work)
    // the observed per-layer deltas must match them exactly, op kind by
    // op kind. This is the strong form of the `ir_cross_check` the
    // pipeline itself runs (which only flags undercounts, because other
    // threads can inflate the process-global counters).
    let _g = serial();
    let mut pipe = cnn1_pipeline(604);
    let img = test_image();
    pipe.set_exec_mode(ExecMode::sequential());
    let (_, trace) = pipe.traced_infer(&[&img]);
    assert!(
        trace.divergence.is_empty(),
        "{}",
        trace.divergence.join("\n")
    );

    let circuit = pipe.lower_to_ir();
    assert_eq!(circuit.regions.len(), trace.layers.len());
    if trace.total_ops == he_trace::OpSnapshot::default() {
        return; // trace feature compiled out: nothing observed
    }
    for (r, l) in circuit.regions.iter().zip(&trace.layers) {
        let c = circuit.op_counts_in(r);
        assert_eq!(c.ct_mults, l.ops.ct_mults, "{}: ct_mults", r.name);
        assert_eq!(c.scalar_macs, l.ops.scalar_macs, "{}: scalar_macs", r.name);
        assert_eq!(c.rescales, l.ops.rescales, "{}: rescales", r.name);
        assert_eq!(c.rotations, l.ops.rotations, "{}: rotations", r.name);
    }
}

#[test]
fn trace_session_isolation_between_runs() {
    // two traced runs must not leak events into each other
    let _g = serial();
    let mut pipe = cnn1_pipeline(603);
    let img = test_image();
    let (_, t1) = pipe.traced_infer(&[&img]);
    let (_, t2) = pipe.traced_infer(&[&img]);
    // identical workloads record the same number of spans (zero with
    // tracing compiled out)
    assert_eq!(t1.events.len(), t2.events.len());
    // and spans never carry negative or non-finite times
    for e in t1.events.iter().chain(&t2.events) {
        assert!(e.start_us.is_finite() && e.dur_us >= 0.0, "{e:?}");
    }
}
