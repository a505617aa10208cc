//! Deterministic CI smoke benchmark behind the `BENCH_*.json` op-count
//! trajectory: CNN1's first convolution, one coalesced he-serve batch,
//! the slot-packed batch sweep, and the static eager-vs-compiled
//! lowering counts, all counted with the he-trace op counters.
//!
//! Every number the JSON carries is a count — a function of the circuit
//! alone, identical on every machine — so `--check` diffs the files
//! exactly. Each run-time component runs [`RUNS`] times and asserts its
//! counts identical across runs. Nothing here times anything: hebench's
//! per-layer `ntt_fwd_us` / `ntt_inv_us` / `dyadic_mul_us` / `mac_us`
//! metrics and the criterion benches time the kernels.

use crate::harness::mini_cnn1;
use cnn_he::{CnnHePipeline, HeNetwork};
use he_serve::{ServeConfig, ServeEngine};
use he_trace::json::Value;
use he_trace::OpSnapshot;
use neural::models::{cnn1, ActKind};
use std::time::Duration;

/// Schema tag stamped into (and demanded from) every `BENCH_*.json`.
pub const SCHEMA: &str = "bench-smoke-v1";

/// How often each run-time component runs: twice, so a component whose
/// op counts drift between identical runs fails loudly.
pub const RUNS: usize = 2;

/// How many requests the serve component coalesces into one batch.
pub const SERVE_BATCH: usize = 4;

/// Batch sizes the packed-batch sweep measures (1 = the per-image
/// reference the amortization gate divides against).
pub const PACKED_SWEEP: [usize; 4] = [1, 8, 64, 512];

/// `--check` fails unless amortized per-image HE ops at batch 64 are at
/// least this factor below batch 1. On the smoke network (8 lanes per
/// ciphertext) the sharded circuit gives exactly 8×, so the gate sits
/// on the theoretical line — any packing regression trips it.
pub const AMORTIZATION_FLOOR: f64 = 8.0;

/// `--check` fails unless the compiled lowering of packed CNN1 spends
/// at most these fractions of the eager engine's rotations (≥ 15%
/// fewer) and of its total HE ops (≥ 10% fewer).
pub const COMPILED_ROTATION_CEILING: f64 = 0.85;
pub const COMPILED_TOTAL_OPS_CEILING: f64 = 0.90;

/// Everything the smoke benchmark counts, as the two JSON trees it
/// writes and gates.
pub struct SmokeReport {
    /// `BENCH_layers.json`: the conv component and the compiler points.
    pub layers: Value,
    /// `BENCH_serve.json`: the serve component and the packed sweep.
    pub serve: Value,
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// A count; every count stays far below 2^53, so the `f64` is exact.
fn num(v: impl TryInto<u64>) -> Value {
    Value::Num(v.try_into().unwrap_or(u64::MAX) as f64)
}

fn counts(pairs: &[(&str, u64)]) -> Value {
    obj(pairs.iter().map(|&(k, v)| (k, num(v))).collect())
}

/// The HE ops of one `body()` run, after asserting all [`RUNS`] runs
/// agree.
fn steady(label: &str, mut body: impl FnMut()) -> Value {
    let runs: Vec<OpSnapshot> = (0..RUNS)
        .map(|_| {
            let before = OpSnapshot::now();
            body();
            OpSnapshot::now().delta(&before)
        })
        .collect();
    assert!(
        runs.iter().all(|r| *r == runs[0]),
        "{label}: op counts varied between runs — component is not deterministic: {runs:?}"
    );
    counts(&runs[0].named())
}

/// CNN1's first convolution as a single-layer network on the test ring:
/// full encrypt → homomorphic conv → decrypt per run.
fn conv_component() -> Value {
    let full = HeNetwork::from_trained(&cnn1(ActKind::slaf3(), 11), 28);
    let conv1 = HeNetwork {
        layers: vec![full.layers[0].clone()],
        input_side: 28,
    };
    let mut pipe = CnnHePipeline::new(conv1, 1 << 10, 11);
    let img: Vec<f32> = (0..784).map(|i| ((i * 3) % 29) as f32 / 29.0).collect();
    let name = "cnn1_conv1_2e10";
    let ops = steady(name, || {
        std::hint::black_box(pipe.classify(&[&img]).logits);
    });
    obj(vec![("name", text(name)), ("ops", ops)])
}

/// Serve component: [`SERVE_BATCH`] requests submitted back-to-back and
/// coalesced into exactly one slot-packed batch — the linger window is
/// far longer than the submissions take, so the batch closes on
/// reaching its ceiling. Returns the per-run HE ops and the engine's
/// report counters at shutdown (a warm-up batch plus [`RUNS`] runs).
fn serve_component() -> (Value, Value) {
    let cfg = ServeConfig {
        max_batch: SERVE_BATCH,
        max_linger: Duration::from_secs(30),
        queue_capacity: 16,
        workers: 1,
        ..Default::default()
    };
    let engine =
        ServeEngine::start(cfg, || CnnHePipeline::new(mini_cnn1(12), 1 << 10, 12)).expect("start");
    let img: Vec<f32> = (0..64).map(|i| ((i * 5) % 17) as f32 / 17.0).collect();
    let batch = || {
        let handles: Vec<_> = (0..SERVE_BATCH)
            .map(|_| {
                // generous budget: never sheds on a loaded CI box
                engine
                    .submit_with_deadline(img.clone(), Some(Duration::from_secs(60)))
                    .expect("queued")
            })
            .collect();
        for h in handles {
            let size = h.wait().expect("served").batch_size;
            assert_eq!(size, SERVE_BATCH, "serve smoke did not coalesce one batch");
        }
    };
    // warm-up batch: lets keys/tables settle and seeds the engine EWMA
    batch();
    let ops = steady("serve", batch);
    let r = engine.shutdown();
    let counters = counts(&[
        ("submitted", r.submitted),
        ("completed", r.completed),
        ("rejected", r.rejected),
        ("overloaded", r.overloaded),
        ("timed_out", r.timed_out),
        ("batches", r.batches),
        ("batched_images", r.batched_images),
        ("degradations", r.degradations),
    ]);
    (ops, counters)
}

/// Packed-batch sweep: the mini network through the slot-packed path
/// (the optimized `he-ir` circuit) at each [`PACKED_SWEEP`] batch size,
/// one `classify` call per run (encrypt → per-shard circuit → decrypt).
/// Each stride is prepared before its runs, so they count steady-state
/// work.
fn packed_batch_component() -> Vec<Value> {
    let mut pipe = CnnHePipeline::new(mini_cnn1(12), 1 << 10, 12);
    pipe.enable_packed_batching()
        .expect("mini network fits the smoke ring");
    let lanes_cap = pipe.max_batch();
    let mut points = Vec::with_capacity(PACKED_SWEEP.len());
    for batch in PACKED_SWEEP {
        let images: Vec<Vec<f32>> = (0..batch)
            .map(|b| {
                (0..64)
                    .map(|i| (((i * 5 + b * 7) % 17) as f32) / 17.0)
                    .collect()
            })
            .collect();
        let refs: Vec<&[f32]> = images.iter().map(Vec::as_slice).collect();
        // circuit, keys and encoded operands of this batch's stride are
        // built here, so the counted runs have identical op counts
        pipe.prepare_batch(batch).expect("admitted");
        let lanes = batch.next_power_of_two().min(lanes_cap).max(1);
        let ops = steady(&format!("packed batch x{batch}"), || {
            assert_eq!(pipe.classify(&refs).predictions.len(), batch);
        });
        points.push(obj(vec![
            ("batch", num(batch)),
            ("shards", num(batch.div_ceil(lanes))),
            ("ops", ops),
        ]));
    }
    points
}

/// Static compiled-vs-eager comparison: lowers each reference network
/// with both [`cnn_he::PackedLowering`] modes at nominal parameters —
/// the eager mirror of the runtime BSGS engine, and the compiled
/// (squat-fold) form run through the optimizing pass pipeline — and
/// records both circuits' exact op counts. Pure circuit construction
/// (no keys, no polynomial arithmetic). `cnn1_full` is the paper's CNN1
/// (packed dim 1024, on a `N = 2^12` plan ring); the mini points cover
/// the tiled and batch-strided layouts the serving engine executes.
fn compiler_component() -> Vec<Value> {
    use cnn_he::packed::PackedNetwork;
    use cnn_he::{lower_packed, PackedLowering};
    use he_ir::{GraphBuilder, PassManager};

    let point = |name: &str, net: &HeNetwork, n: usize, stride: usize| {
        let packed = PackedNetwork::from_network(net);
        let mut params = ckks::CkksParams::tiny(packed.required_levels());
        params.n = n;
        let lower = |mode| lower_packed(&packed, GraphBuilder::new(params.clone()), stride, mode);
        let (eager, mut compiled) = (
            lower(PackedLowering::Eager),
            lower(PackedLowering::Compiled),
        );
        PassManager::optimizer()
            .optimize(&mut compiled)
            .expect("optimizer accepts its own lowering");
        let ir_counts = |c: he_ir::OpCounts| {
            counts(&[
                ("ct_mults", c.ct_mults),
                ("scalar_macs", c.scalar_macs),
                ("rescales", c.rescales),
                ("rotations", c.rotations),
            ])
        };
        obj(vec![
            ("name", text(name)),
            ("dim", num(packed.dim)),
            ("stride", num(stride)),
            ("nodes_eager", num(eager.nodes.len())),
            ("nodes_compiled", num(compiled.nodes.len())),
            ("eager", ir_counts(eager.op_counts())),
            ("compiled", ir_counts(compiled.op_counts())),
        ])
    };

    let cnn1_net = HeNetwork::from_trained(&cnn1(ActKind::slaf3(), 11), 28);
    vec![
        point("cnn1_full", &cnn1_net, 1 << 12, 1),
        point("mini_cnn1", &mini_cnn1(12), 1 << 10, 1),
        point("mini_cnn1_x8", &mini_cnn1(12), 1 << 10, 8),
    ]
}

/// Runs the full smoke suite (a few seconds).
pub fn run_smoke() -> SmokeReport {
    let backend = text(ckks_math::kernel::active_backend().name());
    let conv = conv_component();
    let (serve_ops, serve_counters) = serve_component();
    let packed = packed_batch_component();
    let compiler = compiler_component();
    SmokeReport {
        layers: obj(vec![
            ("schema", text(SCHEMA)),
            ("kind", text("layers")),
            ("backend", backend.clone()),
            ("components", Value::Arr(vec![conv])),
            ("compiler", Value::Arr(compiler)),
        ]),
        serve: obj(vec![
            ("schema", text(SCHEMA)),
            ("kind", text("serve")),
            ("backend", backend),
            ("batch_size", num(SERVE_BATCH)),
            ("ops", serve_ops),
            ("serve", serve_counters),
            ("packed_batch", Value::Arr(packed)),
        ]),
    }
}

/// How an array entry is matched across the two files: by its `name`,
/// else by its `batch`.
fn entry_label(v: &Value) -> String {
    match (v.get("name"), v.get("batch")) {
        (Some(Value::Str(name)), _) => name.clone(),
        (_, Some(Value::Num(batch))) => batch.to_string(),
        _ => String::new(),
    }
}

/// Walks a baseline and a fresh tree together. Numbers must be equal
/// exactly (they are counts: any drift is a real change, not noise);
/// array entries pair up by [`entry_label`], and a fresh entry with no
/// baseline partner is a violation. A key or entry present on only one
/// side is a note, never a failure, so baselines and binaries can
/// evolve independently by one PR. Other strings are informational.
fn diff(path: &str, base: &Value, fresh: &Value, problems: &mut Vec<String>) {
    let note = |what: String| eprintln!("[bench] note: {what}; skipping");
    let join = |k: &str| match path {
        "" => k.to_string(),
        _ => format!("{path}.{k}"),
    };
    match (base, fresh) {
        (Value::Num(b), Value::Num(f)) if b != f => {
            problems.push(format!(
                "{path}: count changed {b} -> {f} (exact match required)"
            ));
        }
        (Value::Obj(b), Value::Obj(f)) => {
            for (k, fv) in f {
                match base.get(k) {
                    Some(bv) => diff(&join(k), bv, fv, problems),
                    None => note(format!("{} not in baseline", join(k))),
                }
            }
            for (k, _) in b.iter().filter(|(k, _)| fresh.get(k).is_none()) {
                note(format!("{} only in baseline", join(k)));
            }
        }
        (Value::Arr(b), Value::Arr(f)) => {
            for fe in f {
                let (key, label) = (entry_label(fe), format!("{path}[{}]", entry_label(fe)));
                match b.iter().find(|be| entry_label(be) == key) {
                    Some(be) => diff(&label, be, fe, problems),
                    None => problems.push(format!("{label}: missing from baseline")),
                }
            }
            for be in b
                .iter()
                .filter(|be| f.iter().all(|fe| entry_label(fe) != entry_label(be)))
            {
                note(format!("{path}[{}] only in baseline", entry_label(be)));
            }
        }
        (Value::Num(_), Value::Num(_)) | (Value::Str(_), Value::Str(_)) => {}
        _ => problems.push(format!("{path}: value type changed")),
    }
}

/// Gates a fresh [`SmokeReport`] against committed baseline JSON: an
/// exact count diff of both files (schema and kind must match) plus the
/// two payoff gates. Returns every violation found (empty = gate
/// passes).
pub fn check_against_baseline(
    report: &SmokeReport,
    layers_baseline: &str,
    serve_baseline: &str,
) -> Vec<String> {
    let mut problems = Vec::new();
    for (file, baseline, fresh) in [
        ("BENCH_layers.json", layers_baseline, &report.layers),
        ("BENCH_serve.json", serve_baseline, &report.serve),
    ] {
        let mut found = Vec::new();
        match he_trace::json::parse(baseline) {
            Err(e) => found.push(format!("unparseable baseline: {e}")),
            Ok(base) => match ["schema", "kind"]
                .into_iter()
                .find(|k| base.get(k) != fresh.get(k))
            {
                Some(k) => found.push(format!(
                    "{k} mismatch: {:?}, want {:?}",
                    base.get(k),
                    fresh.get(k)
                )),
                None => diff("", &base, fresh, &mut found),
            },
        }
        problems.extend(found.into_iter().map(|p| format!("{file}: {p}")));
    }
    problems.extend(amortization_gate(report));
    problems.extend(compiled_gate(report));
    problems
}

/// The entries of a top-level array of `tree`.
fn entries<'a>(tree: &'a Value, key: &str) -> &'a [Value] {
    tree.get(key).and_then(Value::as_arr).unwrap_or_default()
}

/// A count at `path` below `v` (0 when absent).
fn count(v: &Value, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(v, |v, k| v.get(k))
        .and_then(Value::as_num)
        .unwrap_or(0.0)
}

/// The sum of a count object's values: total HE ops of an `ops`,
/// `eager` or `compiled` object.
fn total(counts: Option<&Value>) -> f64 {
    match counts {
        Some(Value::Obj(pairs)) => pairs.iter().filter_map(|(_, v)| v.as_num()).sum(),
        _ => 0.0,
    }
}

/// The compiler payoff gate. Every lowering point must spend no more
/// HE ops compiled than eager (the optimizer must never pessimize),
/// and the `cnn1_full` point must clear the paper-level targets:
/// rotations ≤ [`COMPILED_ROTATION_CEILING`] × eager and total HE ops
/// ≤ [`COMPILED_TOTAL_OPS_CEILING`] × eager.
pub fn compiled_gate(report: &SmokeReport) -> Vec<String> {
    let mut problems = Vec::new();
    for p in entries(&report.layers, "compiler") {
        let name = entry_label(p);
        let rotations = |side| count(p, &[side, "rotations"]);
        let (re, rc) = (rotations("eager"), rotations("compiled"));
        let (te, tc) = (total(p.get("eager")), total(p.get("compiled")));
        if rc > re || tc > te {
            problems.push(format!(
                "compiler[{name}]: compiled lowering costs more than eager \
                 (rotations {rc} vs {re}, total {tc} vs {te})"
            ));
        }
        let targets = [
            ("rotations", re, rc, COMPILED_ROTATION_CEILING),
            ("total HE ops", te, tc, COMPILED_TOTAL_OPS_CEILING),
        ];
        for (what, e, c, ceiling) in targets.into_iter().filter(|_| name == "cnn1_full") {
            let ratio = c / e.max(1.0);
            if ratio > ceiling {
                problems.push(format!(
                    "compiler[{name}]: {what} only dropped to {ratio:.3}x of eager \
                     ({e} -> {c}), need <= {ceiling}x"
                ));
            }
        }
    }
    problems
}

/// The packing payoff gate: amortized per-image HE ops at batch 64 must
/// sit at least [`AMORTIZATION_FLOOR`]× below batch 1. `None` when the
/// sweep lacks the two anchor points (unit-test reports) — `run_smoke`
/// always produces them.
pub fn amortization_gate(report: &SmokeReport) -> Option<String> {
    let per_image = |b: f64| {
        entries(&report.serve, "packed_batch")
            .iter()
            .find(|p| count(p, &["batch"]) == b)
            .map(|p| total(p.get("ops")) / b)
    };
    let (per_image_1, per_image_64) = (per_image(1.0)?, per_image(64.0)?);
    if per_image_64 <= 0.0 {
        return Some("packed_batch[64]: zero HE ops recorded (tracing off?)".into());
    }
    let ratio = per_image_1 / per_image_64;
    // 1e-9 slack: the ratio is a quotient of exact integers
    (ratio + 1e-9 < AMORTIZATION_FLOOR).then(|| {
        format!(
            "packed amortization: per-image ops dropped only {ratio:.2}x from batch 1 \
             to batch 64 ({per_image_1:.0} -> {per_image_64:.0}), need >= {AMORTIZATION_FLOOR}x"
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use he_trace::json::pretty;

    const LAYERS: &str = r#"{"schema": "bench-smoke-v1", "kind": "layers", "backend": "scalar",
      "components": [{"name": "cnn1_conv1_2e10", "ops": {"ntt_fwd": 64, "ntt_inv": 64}}],
      "compiler": [{"name": "cnn1_full", "dim": 1024, "stride": 1,
        "nodes_eager": 4000, "nodes_compiled": 2500,
        "eager": {"ct_mults": 4, "scalar_macs": 0, "rescales": 11, "rotations": 200},
        "compiled": {"ct_mults": 4, "scalar_macs": 0, "rescales": 11, "rotations": 100}}]}"#;

    // per-shard circuit: identical ops per shard, so batch 64 (8
    // shards) costs 8x batch 1 in total = 8x less per image
    const SERVE: &str = r#"{"schema": "bench-smoke-v1", "kind": "serve", "backend": "scalar",
      "batch_size": 4, "ops": {"ct_mults": 7}, "serve": {"batches": 1, "batched_images": 4},
      "packed_batch": [
        {"batch": 1, "shards": 1, "ops": {"rotations": 48, "ct_mults": 2}},
        {"batch": 8, "shards": 1, "ops": {"rotations": 48, "ct_mults": 2}},
        {"batch": 64, "shards": 8, "ops": {"rotations": 384, "ct_mults": 16}},
        {"batch": 512, "shards": 64, "ops": {"rotations": 3072, "ct_mults": 128}}]}"#;

    /// A fresh report of the fixture, edited by `(from, to)` swaps.
    fn fresh(layers: &[(&str, &str)], serve: &[(&str, &str)]) -> SmokeReport {
        let edit = |doc: &str, swaps: &[(&str, &str)]| {
            let doc = swaps
                .iter()
                .fold(doc.to_string(), |d, (a, b)| d.replace(a, b));
            he_trace::json::parse(&doc).expect("fixture parses")
        };
        SmokeReport {
            layers: edit(LAYERS, layers),
            serve: edit(SERVE, serve),
        }
    }

    fn check(report: &SmokeReport) -> Vec<String> {
        check_against_baseline(report, LAYERS, SERVE)
    }

    /// Asserts some violation mentions `needle`.
    fn flagged(problems: &[String], needle: &str) {
        let hit = problems.iter().any(|p| p.contains(needle));
        assert!(hit, "no {needle:?} in {problems:?}");
    }

    #[test]
    fn json_round_trips_and_self_check_passes() {
        let r = fresh(&[], &[]);
        let (layers, serve) = (pretty(&r.layers), pretty(&r.serve));
        // emitted JSON parses back to the very trees it was written from
        assert_eq!(he_trace::json::parse(&layers), Ok(r.layers.clone()));
        assert_eq!(he_trace::json::parse(&serve), Ok(r.serve.clone()));
        assert!(check_against_baseline(&r, &layers, &serve).is_empty());
    }

    #[test]
    fn gate_flags_op_drift() {
        let r = fresh(
            &[("\"ntt_fwd\": 64", "\"ntt_fwd\": 65")],
            &[("\"batches\": 1", "\"batches\": 2")],
        );
        let problems = check(&r);
        assert_eq!(problems.len(), 2, "{problems:?}");
        flagged(
            &problems,
            "[cnn1_conv1_2e10].ops.ntt_fwd: count changed 64 -> 65",
        );
        flagged(&problems, "serve.batches: count changed 1 -> 2");
    }

    #[test]
    fn gate_ignores_unknown_fields_in_either_direction() {
        // fresh keys and entries an older baseline lacks ...
        let r = fresh(
            &[("\"dim\"", "\"runs\": 3, \"dim\"")],
            &[("\"batch_size\"", "\"wall_s\": 1.25, \"batch_size\"")],
        );
        assert!(check(&r).is_empty(), "{:?}", check(&r));
        // ... and baseline keys and entries the binary no longer emits
        // (the retired micro components, say) are notes, not failures
        let retired = LAYERS.replace(
            "[{\"name\": \"cnn1_conv1",
            "[{\"name\": \"ntt\", \"ops\": {}}, {\"name\": \"cnn1_conv1",
        );
        let problems = check_against_baseline(
            &fresh(&[("\"ntt_inv\": 64", "\"crt_decompose\": 0")], &[]),
            &retired,
            SERVE,
        );
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn amortization_gate_enforces_the_packing_payoff() {
        // the healthy fixture sits exactly on the 8x line
        assert!(amortization_gate(&fresh(&[], &[])).is_none());
        // inflate batch-64 per-shard cost: payoff collapses below 8x
        let bad = fresh(&[], &[("\"rotations\": 384", "\"rotations\": 1152")]);
        let msg = amortization_gate(&bad).expect("gate must fire");
        assert!(msg.contains("need >= 8"), "{msg}");
        // ... and the full check carries the violation
        flagged(&check(&bad), "amortization");
        // sweeps without the anchor points (unit fixtures) are skipped
        let partial = fresh(&[], &[("\"batch\": 64", "\"batch\": 63")]);
        assert!(amortization_gate(&partial).is_none());
    }

    #[test]
    fn compiled_gate_enforces_the_optimizer_payoff() {
        // the healthy fixture halves rotations: well clear of both lines
        assert!(compiled_gate(&fresh(&[], &[])).is_empty());
        // compiled worse than eager on any point: always a violation
        let worse = fresh(&[("\"rotations\": 100", "\"rotations\": 201")], &[]);
        flagged(&compiled_gate(&worse), "costs more than eager");
        // compiled better than eager but short of the CNN1 targets
        let shy = fresh(&[("\"rotations\": 100", "\"rotations\": 180")], &[]); // 0.9x > 0.85x
        flagged(&compiled_gate(&shy), "rotations only dropped");
        // ... and the full check carries the violation
        flagged(&check(&shy), "only dropped");
    }

    #[test]
    fn gate_flags_compiler_op_drift_and_missing_point() {
        let drifted = fresh(&[("\"rotations\": 200", "\"rotations\": 201")], &[]);
        flagged(&check(&drifted), "compiler[cnn1_full].eager.rotations");
        let renamed = fresh(&[("cnn1_full", "cnn1_wide")], &[]);
        flagged(&check(&renamed), "compiler[cnn1_wide]: missing from");
    }

    #[test]
    fn gate_flags_packed_point_missing_from_baseline() {
        let r = fresh(&[], &[("\"batch\": 512", "\"batch\": 1024")]);
        flagged(&check(&r), "packed_batch[1024]: missing from baseline");
    }

    #[test]
    fn gate_rejects_schema_mismatch() {
        let r = fresh(&[], &[]);
        let problems = check_against_baseline(&r, "{\"schema\": \"other\"}", "{}");
        assert_eq!(problems.len(), 2, "{problems:?}");
        flagged(&problems, "BENCH_layers.json: schema mismatch");
        flagged(&problems, "BENCH_serve.json: schema mismatch");
        // the kind must match too: a serve file is no layers baseline
        flagged(&check_against_baseline(&r, SERVE, SERVE), "kind mismatch");
    }
}
