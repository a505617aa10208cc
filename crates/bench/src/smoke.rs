//! Deterministic CI smoke benchmark behind the `BENCH_*.json`
//! perf-regression trajectory.
//!
//! Five fixed CNN1-derived components, each instrumented with the
//! process-global he-trace counters:
//!
//! * **ntt** — forward+inverse negacyclic NTT at `N = 2^12`, the
//!   primitive under every homomorphic op;
//! * **modmul** — pointwise limb products of a 4-limb `RnsPoly` at
//!   `N = 2^12`, the dyadic-multiply micro-kernel;
//! * **mac** — Shoup-premultiplied scalar MACs via
//!   `Evaluator::mul_residues_acc`, the inner loop of every conv/dense
//!   weighted sum;
//! * **conv** — CNN1's first convolution layer (5×5, stride 2) run
//!   end-to-end (encrypt → eval → decrypt) on the tiny test ring;
//! * **serve** — one coalesced he-serve batch: four concurrently
//!   submitted requests slot-packed into a single encrypted run.
//!
//! Reports also carry the active kernel backend name so a committed
//! baseline states which machine code produced its wall numbers.
//!
//! Each component reports the **median wall** over a few runs plus the
//! **exact HE op counts of one run**. Op counts are a function of the
//! circuit alone — identical on every machine — so the CI gate compares
//! them exactly; wall times are machine-dependent and gate only an
//! upper bound (fresh ≤ baseline × [`WALL_TOLERANCE`]).

use cnn_he::{CnnHePipeline, HeNetwork};
use he_serve::{ServeConfig, ServeEngine};
use he_trace::json::Value;
use he_trace::{OpSnapshot, ServeSnapshot};
use neural::models::{cnn1, ActKind};
use std::time::Instant;

/// Fresh wall times may exceed the committed baseline by at most this
/// factor before the gate fails.
pub const WALL_TOLERANCE: f64 = 1.5;

/// Schema tag stamped into (and demanded from) every `BENCH_*.json`.
pub const SCHEMA: &str = "bench-smoke-v1";

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
/// at most this fraction of the eager engine's rotations (≥ 15% fewer).
pub const COMPILED_ROTATION_CEILING: f64 = 0.85;

/// `--check` fails unless the compiled lowering of packed CNN1 spends
/// at most this fraction of the eager engine's total HE ops (≥ 10%
/// fewer).
pub const COMPILED_TOTAL_OPS_CEILING: f64 = 0.90;

fn smoke_runs() -> usize {
    crate::harness::env_usize("RNS_CNN_SMOKE_RUNS", 3).max(1)
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// One layer-level component: median wall + exact per-run op counts.
pub struct ComponentResult {
    pub name: &'static str,
    pub runs: usize,
    pub wall_median_s: f64,
    /// HE ops of a single run (asserted identical across runs).
    pub ops: OpSnapshot,
}

/// The serve component: one coalesced batch per run.
pub struct ServeSmoke {
    pub runs: usize,
    pub batch_size: usize,
    /// Median wall from first submit to last response.
    pub wall_median_s: f64,
    /// Median `batch_wall / batch_size` reported by the engine.
    pub amortized_median_s: f64,
    /// Queue-residency quantiles over every batched request of the
    /// whole component (from the engine's bounded histograms; 0 when
    /// nothing was recorded). Informational — not gated, walls here
    /// are scheduling noise, not circuit cost.
    pub queue_wait_p50_s: f64,
    pub queue_wait_p95_s: f64,
    /// Deadline-slack quantiles over completed deadline-carrying
    /// requests (the smoke requests run under a generous budget).
    pub deadline_slack_p50_s: f64,
    pub deadline_slack_p95_s: f64,
    pub ops: OpSnapshot,
    pub serve: ServeSnapshot,
}

/// One point of the packed-batch sweep: `batch` images classified in a
/// single slot-packed call (spilling into `shards` ciphertexts).
pub struct PackedBatchPoint {
    pub batch: usize,
    /// Ciphertext shards the batch occupied (`ceil(batch / lanes)`).
    pub shards: usize,
    pub runs: usize,
    pub wall_median_s: f64,
    /// Median `wall / batch` — the amortized per-image cost.
    pub amortized_per_image_s: f64,
    /// HE ops of a single whole-batch run (asserted identical across
    /// runs). Per-image op counts are `ops / batch`.
    pub ops: OpSnapshot,
}

impl PackedBatchPoint {
    /// Total HE ops of one run — the host-independent cost metric the
    /// amortization gate divides.
    pub fn total_ops(&self) -> u64 {
        self.ops.named().iter().map(|(_, v)| v).sum()
    }
}

/// One compiled-vs-eager static lowering comparison: the same packed
/// network lowered to the he-ir circuit twice — the eager mirror of the
/// runtime BSGS engine, and the compiled (squat-fold) form run through
/// the optimizing pass pipeline — with both circuits' exact op counts.
/// Pure circuit construction (no keys, no polynomial arithmetic), so
/// every number is host-independent and the gate compares exactly.
pub struct CompilerPoint {
    pub name: &'static str,
    /// Padded packed dimension of the network.
    pub dim: usize,
    /// Lane stride the circuits were lowered at (1 = tiled).
    pub stride: usize,
    pub nodes_eager: usize,
    pub nodes_compiled: usize,
    pub eager: he_ir::OpCounts,
    pub compiled: he_ir::OpCounts,
}

impl CompilerPoint {
    /// Total HE ops (ct mults + scalar MACs + rescales + rotations) of
    /// one lowering — the metric the `≥ 10% fewer` gate divides.
    pub fn total(c: &he_ir::OpCounts) -> u64 {
        c.ct_mults + c.scalar_macs + c.rescales + c.rotations
    }
}

/// Everything the smoke benchmark measures.
pub struct SmokeReport {
    pub layers: Vec<ComponentResult>,
    pub serve: ServeSmoke,
    /// The packed-batch sweep ([`PACKED_SWEEP`]), batch ascending.
    pub packed: Vec<PackedBatchPoint>,
    /// Compiled-vs-eager static op counts ([`compiler_component`]).
    pub compiler: Vec<CompilerPoint>,
    /// Active modular-arithmetic kernel backend
    /// (`scalar`/`avx2`/`avx512`/`neon`) the walls were measured under.
    pub backend: String,
}

fn run_component<F: FnMut()>(name: &'static str, runs: usize, mut body: F) -> ComponentResult {
    let mut walls = Vec::with_capacity(runs);
    let mut per_run: Option<OpSnapshot> = None;
    for _ in 0..runs {
        let before = OpSnapshot::now();
        let t0 = Instant::now();
        body();
        walls.push(t0.elapsed().as_secs_f64());
        let delta = OpSnapshot::now().delta(&before);
        if let Some(first) = &per_run {
            assert_eq!(
                *first, delta,
                "{name}: op counts varied between runs — component is not deterministic"
            );
        } else {
            per_run = Some(delta);
        }
    }
    ComponentResult {
        name,
        runs,
        wall_median_s: median(&mut walls),
        ops: per_run.unwrap_or_default(),
    }
}

/// NTT component: `ITERS` forward+inverse transform pairs at `N = 2^12`.
fn ntt_component(runs: usize) -> ComponentResult {
    use ckks_math::modring::Modulus;
    use ckks_math::ntt::NttTable;
    use ckks_math::prime::gen_ntt_primes_excluding;
    use rand::{Rng, SeedableRng};

    const N: usize = 1 << 12;
    const ITERS: usize = 32;
    let p = gen_ntt_primes_excluding(50, N, 1, &[])[0];
    let table = NttTable::new(N, Modulus::new(p));
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let data: Vec<u64> = (0..N).map(|_| rng.gen_range(0..p)).collect();

    run_component("ntt_fwd_inv_2e12", runs, || {
        for _ in 0..ITERS {
            let mut d = data.clone();
            table.forward(&mut d);
            table.inverse(&mut d);
            std::hint::black_box(&d);
        }
    })
}

/// Pointwise-product component: `ITERS` dyadic multiplies of a 4-limb
/// polynomial at `N = 2^12` through the production `RnsPoly::mul_assign`
/// path (and therefore the dispatched modmul kernel).
fn modmul_component(runs: usize) -> ComponentResult {
    use ckks_math::poly::{Form, PolyContext, RnsPoly};
    use ckks_math::prime::gen_moduli_chain;
    use ckks_math::sampler::Sampler;
    use std::sync::Arc;

    const N: usize = 1 << 12;
    const ITERS: usize = 32;
    let chain = gen_moduli_chain(&[50, 50, 50, 50], N);
    let ctx = PolyContext::new(N, chain, Vec::new());
    let mut s = Sampler::from_seed(21);
    let a = RnsPoly::uniform(Arc::clone(&ctx), vec![0, 1, 2, 3], Form::Ntt, &mut s);
    let b = RnsPoly::uniform(Arc::clone(&ctx), vec![0, 1, 2, 3], Form::Ntt, &mut s);

    run_component("modmul_limbs_2e12", runs, || {
        for _ in 0..ITERS {
            let mut x = a.clone();
            x.mul_assign(&b);
            std::hint::black_box(x.limbs_flat());
        }
    })
}

/// Fused-MAC component: `ITERS` Shoup-premultiplied scalar MACs on a
/// depth-4 ciphertext at `N = 2^10` via `Evaluator::mul_residues_acc` —
/// the replayed-weight accumulation under every conv tap.
fn mac_component(runs: usize) -> ComponentResult {
    use ckks::{CkksParams, Evaluator, KeyGenerator};
    use std::sync::Arc;

    const ITERS: usize = 256;
    let ctx = CkksParams::tiny(4).build();
    let mut kg = KeyGenerator::new(Arc::clone(&ctx), 31);
    let sk = kg.gen_secret_key();
    let pk = kg.gen_public_key(&sk);
    let ev = Evaluator::new(Arc::clone(&ctx));
    let slots = ctx.slots();
    let vals: Vec<f64> = (0..slots).map(|i| (i % 13) as f64 / 13.0).collect();
    let mut s = ckks_math::sampler::Sampler::from_seed(32);
    let x = ev.encrypt_real(&vals, &pk, &mut s);
    let q_m = ctx.chain_moduli()[x.level].value() as f64;
    let w = ev.prepare_scalar(0.37, q_m, x.level);
    let mut acc = ev.zero_ciphertext(x.scale * q_m, x.level, x.slots);

    run_component("fused_mac_2e10", runs, || {
        for _ in 0..ITERS {
            ev.mul_residues_acc(&mut acc, &x, &w);
        }
        std::hint::black_box(&acc);
    })
}

/// CNN1's first convolution as a single-layer network on the test ring:
/// full encrypt → homomorphic conv → decrypt per run.
fn conv_component(runs: usize) -> ComponentResult {
    let full = HeNetwork::from_trained(&cnn1(ActKind::slaf3(), 11), 28);
    let conv1 = HeNetwork {
        layers: vec![full.layers[0].clone()],
        input_side: 28,
    };
    let mut pipe = CnnHePipeline::new(conv1, 1 << 10, 11);
    let img: Vec<f32> = (0..784).map(|i| ((i * 3) % 29) as f32 / 29.0).collect();

    run_component("cnn1_conv1_2e10", runs, || {
        let cls = pipe.classify(&[&img]);
        std::hint::black_box(&cls.logits);
    })
}

/// A miniature CNN1-shaped network (conv → act → dense → act → dense)
/// over 8×8 inputs — fast enough that the serve component measures the
/// engine, not 20 s of full-size HE arithmetic.
pub fn mini_cnn1(seed: u64) -> HeNetwork {
    use cnn_he::he_layers::{ConvSpec, DenseSpec};
    use cnn_he::HeLayerSpec;
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut w = |n: usize| -> Vec<f32> { (0..n).map(|_| rng.gen_range(-0.3f32..0.3)).collect() };
    let conv = ConvSpec {
        weight: w(2 * 9),
        bias: vec![0.05, -0.05],
        in_ch: 1,
        out_ch: 2,
        k: 3,
        stride: 2,
        pad: 0,
    };
    let dense1 = DenseSpec {
        weight: w(18 * 6),
        bias: w(6),
        in_dim: 18,
        out_dim: 6,
    };
    let dense2 = DenseSpec {
        weight: w(6 * 3),
        bias: w(3),
        in_dim: 6,
        out_dim: 3,
    };
    HeNetwork {
        layers: vec![
            HeLayerSpec::Conv(conv),
            HeLayerSpec::Activation(vec![0.1, 0.6, 0.2, 0.05]),
            HeLayerSpec::Dense(dense1),
            HeLayerSpec::Activation(vec![0.0, 0.8, 0.15]),
            HeLayerSpec::Dense(dense2),
        ],
        input_side: 8,
    }
}

/// Serve component: [`SERVE_BATCH`] requests submitted back-to-back,
/// coalesced by a generous linger into exactly one slot-packed batch.
/// Retries once per run if scheduling jitter split the batch (the op
/// counts would otherwise not be comparable).
fn serve_component(runs: usize) -> ServeSmoke {
    let cfg = ServeConfig {
        max_batch: SERVE_BATCH,
        max_linger: std::time::Duration::from_secs(2),
        queue_capacity: 16,
        workers: 1,
        ..Default::default()
    };
    let engine =
        ServeEngine::start(cfg, || CnnHePipeline::new(mini_cnn1(12), 1 << 10, 12)).expect("start");
    let img: Vec<f32> = (0..64).map(|i| ((i * 5) % 17) as f32 / 17.0).collect();
    // generous budget: never sheds on a loaded CI box, but populates
    // the deadline-slack histogram the JSON reports
    let budget = Some(std::time::Duration::from_secs(60));

    // warm-up batch: lets keys/tables settle and seeds the engine EWMA
    let handles: Vec<_> = (0..SERVE_BATCH)
        .map(|_| {
            engine
                .submit_with_deadline(img.clone(), budget)
                .expect("queued")
        })
        .collect();
    for h in handles {
        h.wait().expect("served");
    }

    let mut walls = Vec::with_capacity(runs);
    let mut amortized = Vec::with_capacity(runs);
    let mut per_run_ops: Option<OpSnapshot> = None;
    let mut per_run_serve: Option<ServeSnapshot> = None;
    for _ in 0..runs {
        let mut attempt = 0;
        loop {
            attempt += 1;
            let ops0 = OpSnapshot::now();
            let srv0 = ServeSnapshot::now();
            let t0 = Instant::now();
            let handles: Vec<_> = (0..SERVE_BATCH)
                .map(|_| {
                    engine
                        .submit_with_deadline(img.clone(), budget)
                        .expect("queued")
                })
                .collect();
            let results: Vec<_> = handles
                .into_iter()
                .map(|h| h.wait().expect("served"))
                .collect();
            let wall = t0.elapsed().as_secs_f64();
            let ops = OpSnapshot::now().delta(&ops0);
            let srv = ServeSnapshot::now().delta(&srv0);
            if srv.batches != 1 && attempt == 1 {
                eprintln!(
                    "[smoke] serve batch split ({} batches); retrying run",
                    srv.batches
                );
                continue;
            }
            assert_eq!(
                srv.batches, 1,
                "serve smoke could not coalesce {SERVE_BATCH} requests into one batch"
            );
            assert!(results.iter().all(|r| r.batch_size == SERVE_BATCH));
            walls.push(wall);
            amortized.push(results[0].amortized.as_secs_f64());
            if let Some(first) = &per_run_ops {
                assert_eq!(*first, ops, "serve: op counts varied between runs");
            } else {
                per_run_ops = Some(ops);
            }
            if per_run_serve.is_none() {
                per_run_serve = Some(srv);
            }
            break;
        }
    }
    let report = engine.shutdown();
    let q = |ls: &Option<cnn_he::LatencyStats>, pick: fn(&cnn_he::LatencyStats) -> f64| {
        ls.as_ref().map_or(0.0, pick)
    };
    ServeSmoke {
        runs,
        batch_size: SERVE_BATCH,
        wall_median_s: median(&mut walls),
        amortized_median_s: median(&mut amortized),
        queue_wait_p50_s: q(&report.queue_wait, |l| l.p50),
        queue_wait_p95_s: q(&report.queue_wait, |l| l.p95),
        deadline_slack_p50_s: q(&report.deadline_slack, |l| l.p50),
        deadline_slack_p95_s: q(&report.deadline_slack, |l| l.p95),
        ops: per_run_ops.unwrap_or_default(),
        serve: per_run_serve.unwrap_or_default(),
    }
}

/// Packed-batch sweep: the mini network through the slot-packed path
/// (the optimized `he-ir` circuit) at each [`PACKED_SWEEP`] batch size,
/// one `classify` call per run (encrypt → per-shard circuit → decrypt).
/// Each stride is prepared before its runs, so they measure
/// steady-state cost.
fn packed_batch_component(runs: usize) -> Vec<PackedBatchPoint> {
    let mut pipe = CnnHePipeline::new(mini_cnn1(12), 1 << 10, 12);
    pipe.enable_packed_batching()
        .expect("mini network fits the smoke ring");
    let lanes_cap = pipe.max_batch();
    let mut points = Vec::with_capacity(PACKED_SWEEP.len());
    for batch in PACKED_SWEEP {
        eprintln!("[smoke] packed batch x{batch} ({runs} runs) ...");
        let images: Vec<Vec<f32>> = (0..batch)
            .map(|b| {
                (0..64)
                    .map(|i| (((i * 5 + b * 7) % 17) as f32) / 17.0)
                    .collect()
            })
            .collect();
        let refs: Vec<&[f32]> = images.iter().map(Vec::as_slice).collect();
        // circuit, keys and encoded operands of this batch's stride are
        // built here, so the measured runs have identical op counts
        pipe.prepare_batch(batch).expect("admitted");
        let lanes = batch.next_power_of_two().min(lanes_cap).max(1);
        let shards = batch.div_ceil(lanes);
        let mut walls = Vec::with_capacity(runs);
        let mut per_run: Option<OpSnapshot> = None;
        for _ in 0..runs {
            let before = OpSnapshot::now();
            let t0 = Instant::now();
            let cls = pipe.classify(&refs);
            walls.push(t0.elapsed().as_secs_f64());
            std::hint::black_box(&cls.logits);
            assert_eq!(cls.predictions.len(), batch);
            let delta = OpSnapshot::now().delta(&before);
            if let Some(first) = &per_run {
                assert_eq!(
                    *first, delta,
                    "packed batch x{batch}: op counts varied between runs"
                );
            } else {
                per_run = Some(delta);
            }
        }
        let wall = median(&mut walls);
        points.push(PackedBatchPoint {
            batch,
            shards,
            runs,
            wall_median_s: wall,
            amortized_per_image_s: wall / batch as f64,
            ops: per_run.unwrap_or_default(),
        });
    }
    points
}

/// Static compiled-vs-eager comparison: lowers each reference network
/// with both [`cnn_he::PackedLowering`] modes at nominal parameters and
/// runs the compiled circuit through the optimizing pass pipeline.
/// `cnn1_full` is the paper's CNN1 (packed dim 1024, on a `N = 2^12`
/// plan ring); the mini points cover the tiled and batch-strided
/// layouts the serving engine actually executes.
pub fn compiler_component() -> Vec<CompilerPoint> {
    use cnn_he::packed::PackedNetwork;
    use cnn_he::{lower_packed, PackedLowering};
    use he_ir::{GraphBuilder, PassManager};

    let point = |name: &'static str, net: &HeNetwork, n: usize, stride: usize| {
        let packed = PackedNetwork::from_network(net);
        let mut params = ckks::CkksParams::tiny(packed.required_levels());
        params.n = n;
        let eager = lower_packed(
            &packed,
            GraphBuilder::new(params.clone()),
            stride,
            PackedLowering::Eager,
        );
        let mut compiled = lower_packed(
            &packed,
            GraphBuilder::new(params),
            stride,
            PackedLowering::Compiled,
        );
        PassManager::optimizer()
            .optimize(&mut compiled)
            .expect("optimizer accepts its own lowering");
        CompilerPoint {
            name,
            dim: packed.dim,
            stride,
            nodes_eager: eager.nodes.len(),
            nodes_compiled: compiled.nodes.len(),
            eager: eager.op_counts(),
            compiled: compiled.op_counts(),
        }
    };

    let cnn1_net = HeNetwork::from_trained(&cnn1(ActKind::slaf3(), 11), 28);
    vec![
        point("cnn1_full", &cnn1_net, 1 << 12, 1),
        point("mini_cnn1", &mini_cnn1(12), 1 << 10, 1),
        point("mini_cnn1_x8", &mini_cnn1(12), 1 << 10, 8),
    ]
}

/// Runs the full smoke suite (a couple of seconds).
pub fn run_smoke() -> SmokeReport {
    let runs = smoke_runs();
    let backend = ckks_math::kernel::active_backend().name().to_string();
    eprintln!("[smoke] kernel backend: {backend}");
    eprintln!("[smoke] ntt component ({runs} runs) ...");
    let ntt = ntt_component(runs);
    eprintln!("[smoke] modmul component ({runs} runs) ...");
    let modmul = modmul_component(runs);
    eprintln!("[smoke] fused-mac component ({runs} runs) ...");
    let mac = mac_component(runs);
    eprintln!("[smoke] conv component ({runs} runs) ...");
    let conv = conv_component(runs);
    eprintln!("[smoke] serve component ({runs} runs) ...");
    let serve = serve_component(runs);
    eprintln!("[smoke] packed-batch sweep ({runs} runs each) ...");
    let packed = packed_batch_component(runs);
    eprintln!("[smoke] compiled-vs-eager lowering ...");
    let compiler = compiler_component();
    SmokeReport {
        layers: vec![ntt, modmul, mac, conv],
        serve,
        packed,
        compiler,
        backend,
    }
}

// ---------------------------------------------------------------------
// JSON trajectory files
// ---------------------------------------------------------------------

fn json_ops(ops: &OpSnapshot, indent: &str) -> String {
    let rows: Vec<String> = ops
        .named()
        .iter()
        .map(|(k, v)| format!("{indent}  \"{k}\": {v}"))
        .collect();
    format!("{{\n{}\n{indent}}}", rows.join(",\n"))
}

fn json_serve_counters(srv: &ServeSnapshot, indent: &str) -> String {
    let rows: Vec<String> = srv
        .named()
        .iter()
        .map(|(k, v)| format!("{indent}  \"{k}\": {v}"))
        .collect();
    format!("{{\n{}\n{indent}}}", rows.join(",\n"))
}

fn json_ir_counts(c: &he_ir::OpCounts, indent: &str) -> String {
    format!(
        "{{\n{indent}  \"ct_mults\": {},\n{indent}  \"scalar_macs\": {},\n{indent}  \"rescales\": {},\n{indent}  \"rotations\": {}\n{indent}}}",
        c.ct_mults, c.scalar_macs, c.rescales, c.rotations
    )
}

impl SmokeReport {
    /// `BENCH_layers.json`: the layer-level components plus the static
    /// compiled-vs-eager lowering comparison.
    pub fn layers_json(&self) -> String {
        let comps: Vec<String> = self
            .layers
            .iter()
            .map(|c| {
                format!(
                    "    {{\n      \"name\": \"{}\",\n      \"runs\": {},\n      \"wall_median_s\": {:.6},\n      \"ops\": {}\n    }}",
                    c.name,
                    c.runs,
                    c.wall_median_s,
                    json_ops(&c.ops, "      ")
                )
            })
            .collect();
        let compiler: Vec<String> = self
            .compiler
            .iter()
            .map(|p| {
                format!(
                    "    {{\n      \"name\": \"{}\",\n      \"dim\": {},\n      \"stride\": {},\n      \"nodes_eager\": {},\n      \"nodes_compiled\": {},\n      \"eager\": {},\n      \"compiled\": {}\n    }}",
                    p.name,
                    p.dim,
                    p.stride,
                    p.nodes_eager,
                    p.nodes_compiled,
                    json_ir_counts(&p.eager, "      "),
                    json_ir_counts(&p.compiled, "      ")
                )
            })
            .collect();
        format!(
            "{{\n  \"schema\": \"{SCHEMA}\",\n  \"kind\": \"layers\",\n  \"backend\": \"{}\",\n  \"components\": [\n{}\n  ],\n  \"compiler\": [\n{}\n  ]\n}}\n",
            self.backend,
            comps.join(",\n"),
            if compiler.is_empty() {
                "  ".to_string()
            } else {
                compiler.join(",\n")
            }
        )
    }

    /// `BENCH_serve.json`: the coalesced-batch serving component plus
    /// the packed-batch sweep.
    pub fn serve_json(&self) -> String {
        let s = &self.serve;
        let packed: Vec<String> = self
            .packed
            .iter()
            .map(|p| {
                format!(
                    "    {{\n      \"batch\": {},\n      \"shards\": {},\n      \"runs\": {},\n      \"wall_median_s\": {:.6},\n      \"amortized_per_image_s\": {:.6},\n      \"ops\": {}\n    }}",
                    p.batch,
                    p.shards,
                    p.runs,
                    p.wall_median_s,
                    p.amortized_per_image_s,
                    json_ops(&p.ops, "      ")
                )
            })
            .collect();
        format!(
            "{{\n  \"schema\": \"{SCHEMA}\",\n  \"kind\": \"serve\",\n  \"backend\": \"{}\",\n  \"runs\": {},\n  \"batch_size\": {},\n  \"wall_median_s\": {:.6},\n  \"amortized_median_s\": {:.6},\n  \"queue_wait_p50_s\": {:.6},\n  \"queue_wait_p95_s\": {:.6},\n  \"deadline_slack_p50_s\": {:.6},\n  \"deadline_slack_p95_s\": {:.6},\n  \"ops\": {},\n  \"serve\": {},\n  \"packed_batch\": [\n{}\n  ]\n}}\n",
            self.backend,
            s.runs,
            s.batch_size,
            s.wall_median_s,
            s.amortized_median_s,
            s.queue_wait_p50_s,
            s.queue_wait_p95_s,
            s.deadline_slack_p50_s,
            s.deadline_slack_p95_s,
            json_ops(&s.ops, "  "),
            json_serve_counters(&s.serve, "  "),
            if packed.is_empty() {
                "  ".to_string()
            } else {
                packed.join(",\n")
            }
        )
    }
}

// ---------------------------------------------------------------------
// Baseline comparison (the CI gate)
// ---------------------------------------------------------------------

fn num(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_num)
        .ok_or_else(|| format!("missing numeric field `{key}`"))
}

fn check_schema(v: &Value, kind: &str) -> Result<(), String> {
    match v.get("schema").and_then(Value::as_str) {
        Some(SCHEMA) => {}
        other => return Err(format!("schema mismatch: {other:?}, want {SCHEMA}")),
    }
    match v.get("kind").and_then(Value::as_str) {
        Some(k) if k == kind => Ok(()),
        other => Err(format!("kind mismatch: {other:?}, want {kind}")),
    }
}

/// Compares an op-count object exactly (host-independent circuit
/// structure: any drift is a real change, not noise). Keys the
/// baseline does not know — a fresh counter added after the baseline
/// was committed, or vice versa — are noted but never fail the gate,
/// so baselines and binaries can evolve independently by one PR.
fn diff_counter_object(
    label: &str,
    baseline: &Value,
    fresh_keys: &[(&str, u64)],
    problems: &mut Vec<String>,
) {
    for (key, fresh_val) in fresh_keys {
        match baseline.get(key).and_then(Value::as_num) {
            Some(base) if (base - *fresh_val as f64).abs() < 0.5 => {}
            Some(base) => problems.push(format!(
                "{label}.{key}: op count changed {base} -> {fresh_val} (exact match required)"
            )),
            None => {
                eprintln!("[bench] note: {label}.{key} not in baseline (new counter?); skipping");
            }
        }
    }
}

fn diff_wall(label: &str, baseline_s: f64, fresh_s: f64, problems: &mut Vec<String>) {
    if fresh_s > baseline_s * WALL_TOLERANCE {
        problems.push(format!(
            "{label}: wall regressed {fresh_s:.4}s > {baseline_s:.4}s x{WALL_TOLERANCE} tolerance"
        ));
    }
}

/// Gates a fresh [`SmokeReport`] against committed baseline JSON.
/// Returns every violation found (empty = gate passes).
pub fn check_against_baseline(
    report: &SmokeReport,
    layers_baseline: &str,
    serve_baseline: &str,
) -> Vec<String> {
    let mut problems = Vec::new();

    match he_trace::json::parse(layers_baseline) {
        Err(e) => problems.push(format!("BENCH_layers.json: unparseable baseline: {e}")),
        Ok(base) => {
            if let Err(e) = check_schema(&base, "layers") {
                problems.push(format!("BENCH_layers.json: {e}"));
            }
            let empty = vec![];
            let comps = base
                .get("components")
                .and_then(Value::as_arr)
                .unwrap_or(&empty);
            for c in &report.layers {
                let Some(bc) = comps
                    .iter()
                    .find(|v| v.get("name").and_then(Value::as_str) == Some(c.name))
                else {
                    problems.push(format!("{}: component missing from baseline", c.name));
                    continue;
                };
                let bops = bc.get("ops").cloned().unwrap_or(Value::Null);
                diff_counter_object(c.name, &bops, &c.ops.named(), &mut problems);
                match num(bc, "wall_median_s") {
                    Ok(w) => diff_wall(c.name, w, c.wall_median_s, &mut problems),
                    Err(e) => problems.push(format!("{}: {e}", c.name)),
                }
            }
            let empty = vec![];
            let bcompiler = base
                .get("compiler")
                .and_then(Value::as_arr)
                .unwrap_or(&empty);
            for p in &report.compiler {
                let label = format!("compiler[{}]", p.name);
                let Some(bp) = bcompiler
                    .iter()
                    .find(|v| v.get("name").and_then(Value::as_str) == Some(p.name))
                else {
                    problems.push(format!("{label}: point missing from baseline"));
                    continue;
                };
                let ir_pairs = |c: &he_ir::OpCounts| {
                    [
                        ("ct_mults", c.ct_mults),
                        ("scalar_macs", c.scalar_macs),
                        ("rescales", c.rescales),
                        ("rotations", c.rotations),
                    ]
                };
                for (key, fresh) in [
                    ("dim", p.dim as u64),
                    ("stride", p.stride as u64),
                    ("nodes_eager", p.nodes_eager as u64),
                    ("nodes_compiled", p.nodes_compiled as u64),
                ] {
                    if let Some(base) = bp.get(key).and_then(Value::as_num) {
                        if (base - fresh as f64).abs() > 0.5 {
                            problems.push(format!(
                                "{label}.{key}: changed {base} -> {fresh} (exact match required)"
                            ));
                        }
                    }
                }
                for (side, counts) in [("eager", &p.eager), ("compiled", &p.compiled)] {
                    let bcounts = bp.get(side).cloned().unwrap_or(Value::Null);
                    diff_counter_object(
                        &format!("{label}.{side}"),
                        &bcounts,
                        &ir_pairs(counts),
                        &mut problems,
                    );
                }
            }
        }
    }

    match he_trace::json::parse(serve_baseline) {
        Err(e) => problems.push(format!("BENCH_serve.json: unparseable baseline: {e}")),
        Ok(base) => {
            if let Err(e) = check_schema(&base, "serve") {
                problems.push(format!("BENCH_serve.json: {e}"));
            }
            let s = &report.serve;
            if let Ok(b) = num(&base, "batch_size") {
                if (b - s.batch_size as f64).abs() > 0.5 {
                    problems.push(format!(
                        "serve.batch_size: changed {b} -> {} (exact match required)",
                        s.batch_size
                    ));
                }
            }
            let bops = base.get("ops").cloned().unwrap_or(Value::Null);
            diff_counter_object("serve.ops", &bops, &s.ops.named(), &mut problems);
            let bserve = base.get("serve").cloned().unwrap_or(Value::Null);
            diff_counter_object("serve.counters", &bserve, &s.serve.named(), &mut problems);
            match num(&base, "wall_median_s") {
                Ok(w) => diff_wall("serve.wall_median_s", w, s.wall_median_s, &mut problems),
                Err(e) => problems.push(format!("serve: {e}")),
            }
            match num(&base, "amortized_median_s") {
                Ok(w) => diff_wall(
                    "serve.amortized_median_s",
                    w,
                    s.amortized_median_s,
                    &mut problems,
                ),
                Err(e) => problems.push(format!("serve: {e}")),
            }
            let empty = vec![];
            let bpoints = base
                .get("packed_batch")
                .and_then(Value::as_arr)
                .unwrap_or(&empty);
            for p in &report.packed {
                let label = format!("packed_batch[{}]", p.batch);
                let Some(bp) = bpoints
                    .iter()
                    .find(|v| num(v, "batch").is_ok_and(|b| (b - p.batch as f64).abs() < 0.5))
                else {
                    problems.push(format!("{label}: point missing from baseline"));
                    continue;
                };
                if let Ok(b) = num(bp, "shards") {
                    if (b - p.shards as f64).abs() > 0.5 {
                        problems.push(format!(
                            "{label}.shards: changed {b} -> {} (exact match required)",
                            p.shards
                        ));
                    }
                }
                let bops = bp.get("ops").cloned().unwrap_or(Value::Null);
                diff_counter_object(&label, &bops, &p.ops.named(), &mut problems);
                match num(bp, "amortized_per_image_s") {
                    Ok(w) => diff_wall(
                        &format!("{label}.amortized_per_image_s"),
                        w,
                        p.amortized_per_image_s,
                        &mut problems,
                    ),
                    Err(e) => problems.push(format!("{label}: {e}")),
                }
            }
        }
    }

    if let Some(p) = amortization_gate(report) {
        problems.push(p);
    }
    problems.extend(compiled_gate(report));

    problems
}

/// The compiler payoff gate. Every lowering point must spend no more
/// HE ops compiled than eager (the optimizer must never pessimize),
/// and the `cnn1_full` point must clear the paper-level targets:
/// rotations ≤ [`COMPILED_ROTATION_CEILING`] × eager and total HE ops
/// ≤ [`COMPILED_TOTAL_OPS_CEILING`] × eager. Static op counts, so the
/// gate is exact on every host.
pub fn compiled_gate(report: &SmokeReport) -> Vec<String> {
    let mut problems = Vec::new();
    for p in &report.compiler {
        let (te, tc) = (
            CompilerPoint::total(&p.eager) as f64,
            CompilerPoint::total(&p.compiled) as f64,
        );
        if p.compiled.rotations > p.eager.rotations || tc > te {
            problems.push(format!(
                "compiler[{}]: compiled lowering costs more than eager \
                 (rotations {} vs {}, total {tc:.0} vs {te:.0})",
                p.name, p.compiled.rotations, p.eager.rotations
            ));
        }
        if p.name == "cnn1_full" {
            let rot_ratio = p.compiled.rotations as f64 / p.eager.rotations.max(1) as f64;
            if rot_ratio > COMPILED_ROTATION_CEILING {
                problems.push(format!(
                    "compiler[{}]: rotations only dropped to {rot_ratio:.3}x of eager \
                     ({} -> {}), need <= {COMPILED_ROTATION_CEILING}x",
                    p.name, p.eager.rotations, p.compiled.rotations
                ));
            }
            let total_ratio = tc / te.max(1.0);
            if total_ratio > COMPILED_TOTAL_OPS_CEILING {
                problems.push(format!(
                    "compiler[{}]: total HE ops only dropped to {total_ratio:.3}x of eager \
                     ({te:.0} -> {tc:.0}), need <= {COMPILED_TOTAL_OPS_CEILING}x",
                    p.name
                ));
            }
        }
    }
    problems
}

/// The packing payoff gate: amortized per-image HE ops at batch 64 must
/// sit at least [`AMORTIZATION_FLOOR`]× below batch 1. Op counts (not
/// walls) so the gate is exact on every host. `None` when the sweep
/// lacks the two anchor points (unit-test reports) — `run_smoke`
/// always produces them.
pub fn amortization_gate(report: &SmokeReport) -> Option<String> {
    let point = |b: usize| report.packed.iter().find(|p| p.batch == b);
    let (one, big) = (point(1)?, point(64)?);
    let per_image_1 = one.total_ops() as f64 / one.batch as f64;
    let per_image_64 = big.total_ops() as f64 / big.batch as f64;
    if per_image_64 <= 0.0 {
        return Some("packed_batch[64]: zero HE ops recorded (tracing off?)".into());
    }
    let ratio = per_image_1 / per_image_64;
    // 1e-9 slack: the ratio is a quotient of exact integers
    if ratio + 1e-9 < AMORTIZATION_FLOOR {
        return Some(format!(
            "packed amortization: per-image ops dropped only {ratio:.2}x from batch 1 \
             to batch 64 ({per_image_1:.0} -> {per_image_64:.0}), need >= {AMORTIZATION_FLOOR}x"
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_report() -> SmokeReport {
        let ops = OpSnapshot {
            ntt_fwd: 64,
            ntt_inv: 64,
            ..Default::default()
        };
        let serve_ops = OpSnapshot {
            ct_mults: 7,
            ..Default::default()
        };
        let srv = ServeSnapshot {
            enqueued: 4,
            batches: 1,
            batched_images: 4,
            ..Default::default()
        };
        // per-shard circuit: identical ops per shard, so batch 64
        // (8 shards) costs 8x batch 1 in total = 8x less per image
        let shard_ops = |shards: u64| OpSnapshot {
            rotations: 48 * shards,
            ct_mults: 2 * shards,
            rescales: 5 * shards,
            ..Default::default()
        };
        let packed = [(1usize, 1u64), (8, 1), (64, 8), (512, 64)]
            .into_iter()
            .map(|(batch, shards)| PackedBatchPoint {
                batch,
                shards: shards as usize,
                runs: 3,
                wall_median_s: 0.020 * shards as f64,
                amortized_per_image_s: 0.020 * shards as f64 / batch as f64,
                ops: shard_ops(shards),
            })
            .collect();
        SmokeReport {
            layers: vec![ComponentResult {
                name: "ntt_fwd_inv_2e12",
                runs: 3,
                wall_median_s: 0.010,
                ops,
            }],
            serve: ServeSmoke {
                runs: 3,
                batch_size: 4,
                wall_median_s: 0.200,
                amortized_median_s: 0.050,
                queue_wait_p50_s: 0.001,
                queue_wait_p95_s: 0.002,
                deadline_slack_p50_s: 59.0,
                deadline_slack_p95_s: 59.5,
                ops: serve_ops,
                serve: srv,
            },
            packed,
            compiler: vec![CompilerPoint {
                name: "cnn1_full",
                dim: 1024,
                stride: 1,
                nodes_eager: 4000,
                nodes_compiled: 2500,
                eager: he_ir::OpCounts {
                    ct_mults: 4,
                    scalar_macs: 0,
                    rescales: 11,
                    rotations: 200,
                },
                compiled: he_ir::OpCounts {
                    ct_mults: 4,
                    scalar_macs: 0,
                    rescales: 11,
                    rotations: 100,
                },
            }],
            backend: "scalar".to_string(),
        }
    }

    #[test]
    fn json_round_trips_and_self_check_passes() {
        let r = fake_report();
        let layers = r.layers_json();
        let serve = r.serve_json();
        // emitted JSON parses with the vendored parser
        he_trace::json::parse(&layers).expect("layers json parses");
        he_trace::json::parse(&serve).expect("serve json parses");
        // a report checked against its own emission is clean
        let problems = check_against_baseline(&r, &layers, &serve);
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn gate_flags_op_drift_and_wall_regression() {
        let r = fake_report();
        let layers = r.layers_json();
        let serve = r.serve_json();
        let mut drifted = fake_report();
        drifted.layers[0].ops.ntt_fwd += 1; // op drift: exact fail
        drifted.serve.wall_median_s = 0.200 * 1.6; // wall: beyond x1.5
        let problems = check_against_baseline(&drifted, &layers, &serve);
        assert!(
            problems.iter().any(|p| p.contains("ntt_fwd")),
            "{problems:?}"
        );
        assert!(
            problems.iter().any(|p| p.contains("wall regressed")),
            "{problems:?}"
        );
    }

    #[test]
    fn gate_tolerates_faster_walls_and_jitter_within_budget() {
        let r = fake_report();
        let layers = r.layers_json();
        let serve = r.serve_json();
        let mut ok = fake_report();
        ok.layers[0].wall_median_s = 0.002; // faster is always fine
        ok.serve.wall_median_s = 0.200 * 1.4; // within x1.5
        assert!(check_against_baseline(&ok, &layers, &serve).is_empty());
    }

    #[test]
    fn gate_ignores_unknown_fields_in_either_direction() {
        let r = fake_report();
        // baseline with extra top-level and nested fields the current
        // binary doesn't know about: must be ignored, not fatal
        let serve = r
            .serve_json()
            .replace("\"runs\": 3,", "\"runs\": 3,\n  \"future_field\": 1.25,");
        let layers = r
            .layers_json()
            .replace("\"runs\": 3,", "\"runs\": 3,\n      \"future_field\": 7,");
        let problems = check_against_baseline(&r, &layers, &serve);
        assert!(problems.is_empty(), "{problems:?}");
        // fresh counters missing from an older baseline: noted on
        // stderr, never a gate failure
        let old_serve = r.serve_json().replace("\"ct_mults\": 7,\n", "");
        let problems = check_against_baseline(&r, &r.layers_json(), &old_serve);
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn amortization_gate_enforces_the_packing_payoff() {
        // the healthy fake report sits exactly on the 8x line
        let r = fake_report();
        assert!(amortization_gate(&r).is_none());
        // inflate batch-64 per-shard cost: payoff collapses below 8x
        let mut bad = fake_report();
        let p64 = bad.packed.iter_mut().find(|p| p.batch == 64).unwrap();
        p64.ops.rotations *= 3;
        let msg = amortization_gate(&bad).expect("gate must fire");
        assert!(msg.contains("need >= 8"), "{msg}");
        // ... and the full baseline check carries the violation
        let r = fake_report();
        let problems = check_against_baseline(&bad, &r.layers_json(), &r.serve_json());
        assert!(
            problems.iter().any(|p| p.contains("amortization")),
            "{problems:?}"
        );
        // sweeps without the anchor points (unit fixtures) are skipped
        let mut partial = fake_report();
        partial.packed.retain(|p| p.batch != 64);
        assert!(amortization_gate(&partial).is_none());
    }

    #[test]
    fn compiled_gate_enforces_the_optimizer_payoff() {
        // the healthy fake report halves rotations: well clear of both lines
        let r = fake_report();
        assert!(compiled_gate(&r).is_empty());
        // compiled worse than eager on any point: always a violation
        let mut worse = fake_report();
        worse.compiler[0].compiled.rotations = 201;
        let problems = compiled_gate(&worse);
        assert!(
            problems.iter().any(|p| p.contains("costs more than eager")),
            "{problems:?}"
        );
        // compiled better than eager but short of the CNN1 targets
        let mut shy = fake_report();
        shy.compiler[0].compiled.rotations = 180; // 0.9x > 0.85x ceiling
        let problems = compiled_gate(&shy);
        assert!(
            problems
                .iter()
                .any(|p| p.contains("rotations only dropped")),
            "{problems:?}"
        );
        // ... and the full baseline check carries the violation
        let base = fake_report();
        let problems = check_against_baseline(&shy, &base.layers_json(), &base.serve_json());
        assert!(
            problems.iter().any(|p| p.contains("only dropped")),
            "{problems:?}"
        );
    }

    #[test]
    fn gate_flags_compiler_op_drift_and_missing_point() {
        let r = fake_report();
        let mut drifted = fake_report();
        drifted.compiler[0].eager.rotations += 1;
        let problems = check_against_baseline(&drifted, &r.layers_json(), &r.serve_json());
        assert!(
            problems
                .iter()
                .any(|p| p.contains("compiler[cnn1_full].eager.rotations")),
            "{problems:?}"
        );
        let mut old = fake_report();
        old.compiler.clear();
        let problems = check_against_baseline(&r, &old.layers_json(), &old.serve_json());
        assert!(
            problems
                .iter()
                .any(|p| p.contains("compiler[cnn1_full]") && p.contains("missing")),
            "{problems:?}"
        );
    }

    #[test]
    fn gate_flags_packed_point_missing_from_baseline() {
        let r = fake_report();
        let mut old = fake_report();
        old.packed.retain(|p| p.batch != 512);
        let problems = check_against_baseline(&r, &old.layers_json(), &old.serve_json());
        assert!(
            problems
                .iter()
                .any(|p| p.contains("packed_batch[512]") && p.contains("missing")),
            "{problems:?}"
        );
    }

    #[test]
    fn gate_rejects_schema_mismatch() {
        let r = fake_report();
        let problems = check_against_baseline(&r, "{\"schema\": \"other\"}", "{}");
        assert!(!problems.is_empty());
    }
}
