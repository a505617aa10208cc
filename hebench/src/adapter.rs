//! The only file that calls into the program. Everything the benchmark
//! needs from the crates — building a pipeline, classifying, serving,
//! re-driving the public pieces for the traced run, reading counters —
//! is wrapped here, so an API change there is a change to this file
//! alone.

use crate::inputs::Mini8Weights;
use ckks::{
    Ciphertext, CkksContext, Evaluator, GaloisKeys, KeyGenerator, PublicKey, RelinKey, SecretKey,
    ShardPlan,
};
use ckks_math::sampler::Sampler;
use cnn_he::he_layers::{ConvSpec, DenseSpec};
use cnn_he::he_tensor::{decrypt_tensor, encrypt_image_batch};
use cnn_he::packed::{PackedNetwork, PackedPrecomputed};
use cnn_he::{
    lower_packed, CnnHePipeline, CtTensor, ExecMode, HeLayerSpec, HeNetwork, PackedLowering,
    PACKED_INPUT,
};
use he_serve::{Packing, ResponseHandle, ServeConfig, ServeEngine, ServeError};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

pub type Network = HeNetwork;

/// The program's JSON reader, for result sets and trace files.
pub mod json {
    pub use he_trace::json::{parse, Value};
}

/// Which of the program's three inference engines a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The paper's per-unit scalar engine with the RNS stream fan-out.
    ScalarStream,
    /// The eager slot-packed BSGS engine (`enable_packed_batching`).
    PackedEager,
    /// The he-ir optimizer + interpreter (`compile`).
    PackedCompiled,
}

pub fn mini8_network(w: &Mini8Weights) -> Network {
    HeNetwork {
        layers: vec![
            HeLayerSpec::Conv(ConvSpec {
                weight: w.conv_weight.clone(),
                bias: w.conv_bias.clone(),
                in_ch: 1,
                out_ch: 2,
                k: 3,
                stride: 2,
                pad: 0,
            }),
            HeLayerSpec::Activation(vec![0.1, 0.6, 0.2, 0.05]),
            HeLayerSpec::Dense(DenseSpec {
                weight: w.dense1_weight.clone(),
                bias: w.dense1_bias.clone(),
                in_dim: 18,
                out_dim: 6,
            }),
            HeLayerSpec::Activation(vec![0.0, 0.8, 0.15]),
            HeLayerSpec::Dense(DenseSpec {
                weight: w.dense2_weight.clone(),
                bias: w.dense2_bias.clone(),
                in_dim: 6,
                out_dim: 3,
            }),
        ],
        input_side: 8,
    }
}

/// The paper's CNN1 (28×28, SLAF-3 activations) with seeded, untrained
/// weights: the circuit, not the accuracy, is what the benchmark times.
pub fn cnn1_network(seed: u64) -> Network {
    let model = neural::models::cnn1(neural::models::ActKind::slaf3(), seed);
    HeNetwork::from_trained(&model, 28)
}

/// Plaintext logits every encrypted response is checked against.
pub fn oracle(net: &Network, image: &[f32]) -> Vec<f64> {
    net.infer_plain(image)
}

pub fn kernel_backend() -> &'static str {
    cnn_he::kernel::active_backend().name()
}

fn stream_mode() -> ExecMode {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    ExecMode::unit_parallel(threads.min(4))
}

/// The process-global HE op counters; `since` gives the work done after
/// an earlier reading.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops(he_trace::OpSnapshot);

impl Ops {
    pub fn now() -> Self {
        Self(he_trace::OpSnapshot::now())
    }

    pub fn since(earlier: &Self) -> Self {
        Self(he_trace::OpSnapshot::now().delta(&earlier.0))
    }

    /// `(counter name, value)` in a stable order.
    pub fn named(&self) -> Vec<(&'static str, u64)> {
        self.0.named().to_vec()
    }

    pub fn get(&self, name: &str) -> u64 {
        self.named()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| v)
    }
}

/// One answered `classify` call.
pub struct Classified {
    pub logits: Vec<Vec<f64>>,
    /// Wall per region as the program reports it
    /// (`Classification.timing.layers`).
    pub regions: Vec<(String, f64)>,
}

/// A pipeline driven the way a caller of the library drives it.
pub struct Direct {
    pipe: CnnHePipeline,
}

impl Direct {
    pub fn build(net: Network, n: usize, key_seed: u64, engine: Engine) -> Result<Self, String> {
        let mut pipe = CnnHePipeline::new(net, n, key_seed);
        match engine {
            Engine::ScalarStream => pipe.set_exec_mode(stream_mode()),
            Engine::PackedEager => pipe.enable_packed_batching().map_err(|e| e.to_string())?,
            Engine::PackedCompiled => pipe.compile().map_err(|e| e.to_string())?,
        }
        Ok(Self { pipe })
    }

    /// One request: encode → encrypt → circuit → decrypt. `classify`
    /// cannot fail today; the `Result` is where its typed errors will land.
    pub fn classify(&mut self, images: &[&[f32]]) -> Result<Classified, String> {
        let cls = self.pipe.classify(images);
        Ok(Classified {
            logits: cls.logits,
            regions: cls
                .timing
                .layers
                .into_iter()
                .map(|l| (l.name, l.wall.as_secs_f64()))
                .collect(),
        })
    }
}

/// Why he-serve did not answer a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    Rejected,
    Overloaded,
    TimedOut,
    ShuttingDown,
    Other,
}

impl Refusal {
    pub fn kind(self) -> &'static str {
        match self {
            Refusal::Rejected => "rejected",
            Refusal::Overloaded => "overloaded",
            Refusal::TimedOut => "timed_out",
            Refusal::ShuttingDown => "shutting_down",
            Refusal::Other => "other",
        }
    }
}

impl From<ServeError> for Refusal {
    fn from(e: ServeError) -> Self {
        match e {
            ServeError::Rejected { .. } => Refusal::Rejected,
            ServeError::Overloaded { .. } => Refusal::Overloaded,
            ServeError::DeadlineExceeded { .. } => Refusal::TimedOut,
            ServeError::ShuttingDown => Refusal::ShuttingDown,
            ServeError::MetricsUnavailable { .. } => Refusal::Other,
        }
    }
}

/// One answered he-serve request.
pub struct Served {
    pub logits: Vec<f64>,
    pub batch_size: usize,
    /// Submit → response, as the engine measured it.
    pub latency_s: f64,
    /// Execution wall of the coalesced batch that carried the request.
    pub batch_wall_s: f64,
}

pub struct Ticket(ResponseHandle);

impl Ticket {
    pub fn is_ready(&self) -> bool {
        self.0.is_ready()
    }

    pub fn wait(self) -> Result<Served, Refusal> {
        let r = self.0.wait()?;
        Ok(Served {
            logits: r.logits,
            batch_size: r.batch_size,
            latency_s: r.request_latency.as_secs_f64(),
            batch_wall_s: r.batch_wall.as_secs_f64(),
        })
    }
}

/// The engine's own totals at shutdown.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeTotals {
    pub rejected: u64,
    pub overloaded: u64,
    pub timed_out: u64,
    pub batches: u64,
    pub degradations: u64,
}

/// he-serve over the packed engine: one worker, batches of up to eight,
/// the default 25 ms linger and a queue of 64.
pub struct Serve {
    engine: ServeEngine,
}

impl Serve {
    pub fn start(net: Network, n: usize, key_seed: u64) -> Result<Self, String> {
        let cfg = ServeConfig {
            max_batch: 8,
            queue_capacity: 64,
            workers: 1,
            packing: Packing::PackedBatch,
            ..ServeConfig::default()
        };
        let engine = ServeEngine::start(cfg, move || CnnHePipeline::new(net.clone(), n, key_seed))
            .map_err(|e| e.to_string())?;
        Ok(Self { engine })
    }

    pub fn submit(&self, image: Vec<f32>) -> Result<Ticket, Refusal> {
        Ok(Ticket(self.engine.submit(image)?))
    }

    pub fn shutdown(self) -> ServeTotals {
        let r = self.engine.shutdown();
        ServeTotals {
            rejected: r.rejected,
            overloaded: r.overloaded,
            timed_out: r.timed_out,
            batches: r.batches,
            degradations: r.degradations,
        }
    }
}

/// Where the traced run's set-up time went.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupSplit {
    pub keygen_s: f64,
    pub galois_keygen_s: f64,
    pub precompute_s: f64,
    pub lower_s: f64,
    pub optimize_s: f64,
}

/// Static facts about the compiled circuit, eager lowering beside it.
#[derive(Debug, Clone, Copy, Default)]
pub struct IrFacts {
    pub nodes_eager: usize,
    pub nodes_compiled: usize,
    pub rotations_eager: u64,
    pub rotations_compiled: u64,
    pub he_ops_eager: u64,
    pub he_ops_compiled: u64,
    /// Plaintext-vector operands the interpreter encodes on every run
    /// (`MulPlain`/`AddPlain` over an `EncodeVec`).
    pub plain_encodes_per_run: usize,
}

fn he_ops(c: &he_ir::OpCounts) -> u64 {
    c.ct_mults + c.scalar_macs + c.rescales + c.rotations
}

pub enum Encrypted {
    Tensor(CtTensor),
    Shards(Vec<Ciphertext>),
}

enum Circuitry {
    Scalar {
        mode: ExecMode,
    },
    Eager {
        packed: PackedNetwork,
        gk: GaloisKeys,
        pre: PackedPrecomputed,
        plan: ShardPlan,
    },
    Compiled {
        packed: PackedNetwork,
        gk: GaloisKeys,
        circuit: he_ir::Circuit,
        plan: ShardPlan,
    },
}

/// The public pieces behind `classify`, re-driven one by one with the
/// benchmark's own keys so each can be timed and counted from outside.
pub struct Pieces {
    net: Network,
    ctx: Arc<CkksContext>,
    ev: Evaluator,
    sk: SecretKey,
    pk: PublicKey,
    rk: RelinKey,
    sampler: Sampler,
    circuitry: Circuitry,
    pub setup: SetupSplit,
    pub ir: IrFacts,
    pub shards: usize,
    pub stride: usize,
}

impl Pieces {
    /// Builds over the parameters `CnnHePipeline::new` picks for
    /// `(net, n)`, for requests of `batch` images.
    pub fn build(
        net: Network,
        n: usize,
        key_seed: u64,
        engine: Engine,
        batch: usize,
    ) -> Result<Self, String> {
        // borrow the parameter choice; the pipeline's keys are dropped
        let ctx = Arc::clone(&CnnHePipeline::new(net.clone(), n, key_seed).ctx);
        let mut setup = SetupSplit::default();
        let t0 = Instant::now();
        let mut kg = KeyGenerator::new(Arc::clone(&ctx), key_seed ^ 0x6865_6265);
        let sk = kg.gen_secret_key();
        let pk = kg.gen_public_key(&sk);
        let rk = kg.gen_relin_key(&sk);
        setup.keygen_s = t0.elapsed().as_secs_f64();
        let ev = Evaluator::new(Arc::clone(&ctx));
        let mut ir = IrFacts::default();

        let packed_plan = |packed: &PackedNetwork| {
            packed
                .plan_batch(ctx.slots(), batch)
                .map_err(|e| e.to_string())
        };
        let (circuitry, shards, stride) = match engine {
            Engine::ScalarStream => (
                Circuitry::Scalar {
                    mode: stream_mode(),
                },
                1,
                1,
            ),
            Engine::PackedEager => {
                let packed = PackedNetwork::from_network(&net);
                let plan = packed_plan(&packed)?;
                let layout = plan.layout();
                let t = Instant::now();
                let steps = packed.required_rotation_steps_for(&layout);
                let gk = kg.gen_galois_keys(&sk, &steps, false);
                setup.galois_keygen_s = t.elapsed().as_secs_f64();
                let t = Instant::now();
                let pre = packed.precompute_layout(&ev, &layout);
                setup.precompute_s = t.elapsed().as_secs_f64();
                let (shards, stride) = (plan.shards(), layout.stride());
                (
                    Circuitry::Eager {
                        packed,
                        gk,
                        pre,
                        plan,
                    },
                    shards,
                    stride,
                )
            }
            Engine::PackedCompiled => {
                let packed = PackedNetwork::from_network(&net);
                let plan = packed_plan(&packed)?;
                let stride = plan.layout().stride();
                let t = Instant::now();
                let eager = lower_packed(
                    &packed,
                    he_ir::GraphBuilder::for_context(&ctx),
                    stride,
                    PackedLowering::Eager,
                );
                let mut circuit = lower_packed(
                    &packed,
                    he_ir::GraphBuilder::for_context(&ctx),
                    stride,
                    PackedLowering::Compiled,
                );
                setup.lower_s = t.elapsed().as_secs_f64();
                let t = Instant::now();
                he_ir::PassManager::optimizer().optimize(&mut circuit)?;
                setup.optimize_s = t.elapsed().as_secs_f64();
                let t = Instant::now();
                let steps: Vec<i64> = he_ir::passes::rotations::required_elements(&circuit)
                    .steps
                    .into_iter()
                    .collect();
                let gk = kg.gen_galois_keys(&sk, &steps, false);
                setup.galois_keygen_s = t.elapsed().as_secs_f64();
                let (ce, cc) = (eager.op_counts(), circuit.op_counts());
                ir = IrFacts {
                    nodes_eager: eager.nodes.len(),
                    nodes_compiled: circuit.nodes.len(),
                    rotations_eager: ce.rotations,
                    rotations_compiled: cc.rotations,
                    he_ops_eager: he_ops(&ce),
                    he_ops_compiled: he_ops(&cc),
                    plain_encodes_per_run: circuit
                        .nodes
                        .iter()
                        .filter(|node| match &node.op {
                            he_ir::Op::MulPlain { plain, .. }
                            | he_ir::Op::AddPlain { plain, .. } => {
                                matches!(circuit.nodes[*plain].op, he_ir::Op::EncodeVec { .. })
                            }
                            _ => false,
                        })
                        .count(),
                };
                let shards = plan.shards();
                (
                    Circuitry::Compiled {
                        packed,
                        gk,
                        circuit,
                        plan,
                    },
                    shards,
                    stride,
                )
            }
        };
        Ok(Self {
            net,
            ctx,
            ev,
            sk,
            pk,
            rk,
            sampler: Sampler::from_seed(key_seed ^ 0x7069_6563_6573),
            circuitry,
            setup,
            ir,
            shards,
            stride,
        })
    }

    /// The crate whose time the child steps of `infer` are: the
    /// interpreter's runs belong to he-ir, regions to cnn-he.
    pub fn step_layer(&self) -> &'static str {
        match self.circuitry {
            Circuitry::Compiled { .. } => "he-ir",
            Circuitry::Scalar { .. } | Circuitry::Eager { .. } => "cnn-he",
        }
    }

    pub fn ring_degree(&self) -> usize {
        self.ctx.n()
    }

    /// Level fresh inputs are encrypted at.
    pub fn top_level(&self) -> usize {
        self.net.required_levels()
    }

    pub fn encrypt(&mut self, images: &[&[f32]]) -> Result<Encrypted, String> {
        match &self.circuitry {
            Circuitry::Scalar { .. } => Ok(Encrypted::Tensor(encrypt_image_batch(
                &self.ev,
                &self.pk,
                &mut self.sampler,
                images,
                self.net.input_side,
                self.net.required_levels(),
            ))),
            Circuitry::Eager { packed, plan, .. } | Circuitry::Compiled { packed, plan, .. } => {
                packed
                    .encrypt_batch(&self.ev, &self.pk, &mut self.sampler, images, plan)
                    .map(Encrypted::Shards)
                    .map_err(|e| e.to_string())
            }
        }
    }

    /// Runs the circuit. The second value lists the sequential child
    /// steps with their walls: regions (scalar), `shard s: region`
    /// (eager, as `infer_batch` reports them) or one interpreter run per
    /// shard (compiled, timed here).
    pub fn infer(&self, x: Encrypted) -> Result<(Encrypted, Vec<(String, f64)>), String> {
        match (&self.circuitry, x) {
            (Circuitry::Scalar { mode }, Encrypted::Tensor(t)) => {
                let (y, timing) = self.net.infer_encrypted_with(&self.ev, &self.rk, t, *mode);
                let steps = timing
                    .layers
                    .into_iter()
                    .map(|l| (l.name, l.wall.as_secs_f64()))
                    .collect();
                Ok((Encrypted::Tensor(y), steps))
            }
            (
                Circuitry::Eager {
                    packed, gk, pre, ..
                },
                Encrypted::Shards(cts),
            ) => {
                let (outs, times) = packed.infer_batch(&self.ev, &self.rk, gk, pre, cts);
                let steps = times
                    .into_iter()
                    .map(|(name, d)| (name, d.as_secs_f64()))
                    .collect();
                Ok((Encrypted::Shards(outs), steps))
            }
            (Circuitry::Compiled { gk, circuit, .. }, Encrypted::Shards(cts)) => {
                let interp = he_ir::Interpreter::new(&self.ev)
                    .with_relin(&self.rk)
                    .with_galois(gk);
                let mut outs = Vec::with_capacity(cts.len());
                let mut steps = Vec::with_capacity(cts.len());
                for (s, ct) in cts.into_iter().enumerate() {
                    let t = Instant::now();
                    let inputs = HashMap::from([(PACKED_INPUT.to_string(), ct)]);
                    outs.push(interp.run(circuit, &inputs)?.remove(0));
                    steps.push((format!("interp shard {s}"), t.elapsed().as_secs_f64()));
                }
                Ok((Encrypted::Shards(outs), steps))
            }
            _ => Err("encrypted input does not match the engine".into()),
        }
    }

    pub fn decrypt(&self, y: &Encrypted, batch: usize) -> Result<Vec<Vec<f64>>, String> {
        match (&self.circuitry, y) {
            (Circuitry::Scalar { .. }, Encrypted::Tensor(t)) => {
                Ok(decrypt_tensor(&self.ev, &self.sk, t, batch))
            }
            (
                Circuitry::Eager { packed, plan, .. } | Circuitry::Compiled { packed, plan, .. },
                Encrypted::Shards(cts),
            ) => Ok(packed.decrypt_batch(&self.ev, &self.sk, cts, plan)),
            _ => Err("encrypted output does not match the engine".into()),
        }
    }
}

/// Cost of one isolated primitive call at the workload's ring degree.
#[derive(Debug, Clone, Copy, Default)]
pub struct CkksCosts {
    pub rotate_ms: f64,
    pub keyswitch_ms: f64,
    pub rescale_ms: f64,
    pub ct_mult_ms: f64,
    pub encode_ms: f64,
    pub encrypt_ms: f64,
    pub decrypt_ms: f64,
}

impl CkksCosts {
    /// In the order rotate, keyswitch, rescale, ct_mult, encode,
    /// encrypt, decrypt.
    pub fn values(&self) -> [f64; 7] {
        [
            self.rotate_ms,
            self.keyswitch_ms,
            self.rescale_ms,
            self.ct_mult_ms,
            self.encode_ms,
            self.encrypt_ms,
            self.decrypt_ms,
        ]
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct UnitCosts {
    /// One limb, forward / inverse NTT and pointwise product.
    pub ntt_fwd_us: f64,
    pub ntt_inv_us: f64,
    pub dyadic_mul_us: f64,
    /// One prepared-scalar MAC on a top-level ciphertext.
    pub mac_us: f64,
    pub top: CkksCosts,
    pub level1: CkksCosts,
}

/// Median wall of `iters` calls, in seconds.
fn timed<R>(iters: usize, mut f: impl FnMut() -> R) -> f64 {
    let walls: Vec<f64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::median(&walls)
}

impl Pieces {
    fn ckks_costs(&mut self, level: usize, gk: &GaloisKeys, iters: usize) -> CkksCosts {
        let ctx = Arc::clone(&self.ctx);
        let scale = ctx.params().scale();
        let vals: Vec<f64> = (0..ctx.slots()).map(|i| (i % 17) as f64 / 17.0).collect();
        let pt = ckks::encode_real(&ctx, &vals, scale, level);
        let ct = self.ev.encrypt(&pt, &self.pk, &mut self.sampler);
        let prod = self.ev.multiply(&ct, &ct, &self.rk);
        let (ev, sk, pk, rk) = (&self.ev, &self.sk, &self.pk, &self.rk);
        let sampler = &mut self.sampler;
        CkksCosts {
            rotate_ms: 1e3 * timed(iters, || ev.rotate(&ct, 1, gk)),
            keyswitch_ms: 1e3 * timed(iters, || ev.key_switch(&ct.c1, &rk.0)),
            rescale_ms: 1e3 * timed(iters, || ev.rescale(&prod)),
            ct_mult_ms: 1e3 * timed(iters, || ev.multiply(&ct, &ct, rk)),
            encode_ms: 1e3 * timed(iters, || ckks::encode_real(&ctx, &vals, scale, level)),
            encrypt_ms: 1e3 * timed(iters, || ev.encrypt(&pt, pk, sampler)),
            decrypt_ms: 1e3 * timed(iters, || ev.decrypt_to_real(&ct, sk)),
        }
    }

    /// Times each primitive in isolation, `iters` calls apiece, at the
    /// input level and at level 1.
    pub fn unit_costs(&mut self, key_seed: u64, iters: usize) -> UnitCosts {
        let ctx = Arc::clone(&self.ctx);
        let n = ctx.n();
        let table = ctx.poly_ctx().ntt_table(0);
        let modulus = ctx.chain_moduli()[0];
        let q = modulus.value();
        let a: Vec<u64> = (0..n as u64).map(|i| (i * 2_654_435_761) % q).collect();
        let b: Vec<u64> = (0..n as u64).map(|i| (i * 40_503 + 7) % q).collect();
        // each call transforms the previous output: values stay reduced
        let mut d = a.clone();
        let kernel_iters = iters * 20;
        let ntt_fwd_us = 1e6 * timed(kernel_iters, || table.forward(&mut d));
        let ntt_inv_us = 1e6 * timed(kernel_iters, || table.inverse(&mut d));
        let dyadic_mul_us = 1e6
            * timed(kernel_iters, || {
                ckks_math::kernel::dyadic_mul_assign(&modulus, &mut d, &b);
            });

        let top = self.top_level();
        let x = self
            .ev
            .encrypt_real(&[0.25, 0.5], &self.pk, &mut self.sampler);
        let x = self.ev.mod_switch_to_level(&x, top);
        let q_top = ctx.chain_moduli()[top].value() as f64;
        let w = self.ev.prepare_scalar(0.37, q_top, top);
        let mut acc = self.ev.zero_ciphertext(x.scale * q_top, top, x.slots);
        let mac_us = 1e6 * timed(kernel_iters, || self.ev.mul_residues_acc(&mut acc, &x, &w));

        let mut kg = KeyGenerator::new(Arc::clone(&ctx), key_seed ^ 0x756e_6974);
        let gk = kg.gen_galois_keys(&self.sk, &[1], false);
        UnitCosts {
            ntt_fwd_us,
            ntt_inv_us,
            dyadic_mul_us,
            mac_us,
            top: self.ckks_costs(top, &gk, iters),
            level1: self.ckks_costs(1, &gk, iters),
        }
    }
}
