//! End-to-end privacy-preserving classification (the paper's Fig. 1
//! deployment): client encodes + encrypts, server evaluates the CNN over
//! ciphertexts, client decrypts the logits.

use crate::analyze::{admission, batch_exceeds_slots, circuit_admission};
use crate::exec::{ExecMode, ExecPlan, InferenceTiming};
use crate::he_tensor::{decrypt_tensor, encrypt_image_batch, CtTensor};
use crate::network::HeNetwork;
use crate::packed::PackedNetwork;
use crate::packed_graph::{lower_packed, PackedLowering};
use crate::trace::InferenceTrace;
use ckks::{
    CkksContext, CkksParams, Evaluator, GaloisKeys, HeError, KeyGenerator, PublicKey, RelinKey,
    SecretKey, ShardPlan,
};
use ckks_math::sampler::Sampler;
use he_trace::OpSnapshot;
use std::collections::HashMap;
use std::sync::Arc;

/// What the scalar path runs, built once per pipeline: the network
/// lowered against the pipeline's context, the admission report of that
/// circuit, and the circuit in prepared form — or why it cannot run.
struct ScalarState {
    report: he_ir::LintReport,
    prepared: Result<he_ir::Prepared, HeError>,
}

impl ScalarState {
    /// Admission over the one lowering, which is prepared only when
    /// admitted.
    fn build(net: &HeNetwork, ctx: &CkksContext, ev: &Evaluator) -> Self {
        let (report, circuit) = admission(net, he_ir::GraphBuilder::for_context(ctx));
        let report = report.merged();
        let prepared = match circuit {
            Some(c) if !report.has_errors() => {
                he_ir::Prepared::new(ev, c).map_err(|reason| HeError::Execution { reason })
            }
            _ => Err(HeError::PlanRejected {
                report: report.render(),
            }),
        };
        Self { report, prepared }
    }
}

/// What one lane stride of the packed path runs: the optimized circuit
/// in prepared form (validated, plaintext operands encoded) and the
/// admission verdict of the standard lint passes over it.
struct PackedStride {
    prepared: he_ir::Prepared,
    report: he_ir::OptimizeReport,
    /// Rendered lint report when admission refused the circuit.
    rejected: Option<String>,
}

/// State of the slot-packed path once
/// [`CnnHePipeline::enable_packed_batching`] has run: the network in
/// packed form, one [`PackedStride`] per lane stride, built on first
/// use (or ahead of time by [`CnnHePipeline::prepare_batch`]), and the
/// Galois keys those circuits rotate by. The strides' rotation sets
/// overlap (every stride-8 step is also a stride-1 step), so the keys
/// are one pool holding exactly the union, each element generated once.
struct PackedState {
    packed: PackedNetwork,
    strides: HashMap<usize, PackedStride>,
    kg: KeyGenerator,
    gk: GaloisKeys,
}

impl PackedState {
    /// Admission of a stride's circuit against the keys that actually
    /// exist.
    fn lint(&self, circuit: &he_ir::Circuit) -> he_ir::LintReport {
        circuit_admission(
            circuit,
            he_ir::KeyInventory::with_galois(true, self.gk.elements()),
        )
    }
}

/// Reference-vs-optimized op accounting for one lane stride, for
/// benches and regression gates.
#[derive(Debug, Clone)]
pub struct CompiledStats {
    /// Counts of the un-optimized reference lowering
    /// ([`PackedLowering::Eager`]).
    pub eager: he_ir::OpCounts,
    /// Counts of the optimized circuit `classify` runs.
    pub compiled: he_ir::OpCounts,
    /// What the optimizer pipeline did.
    pub report: he_ir::OptimizeReport,
}

/// The classification of decrypted logits.
fn classification(logits: Vec<Vec<f64>>, timing: InferenceTiming) -> Classification {
    Classification {
        predictions: logits.iter().map(|row| argmax(row)).collect(),
        logits,
        timing,
    }
}

/// Index of the largest logit; NaN orders above every number
/// (`f64::total_cmp`), so a poisoned row still yields an index.
fn argmax(row: &[f64]) -> usize {
    row.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(i, _)| i)
}

/// A ready-to-serve encrypted-inference pipeline: context, keys and the
/// extracted network.
pub struct CnnHePipeline {
    pub ctx: Arc<CkksContext>,
    sk: SecretKey,
    pk: PublicKey,
    rk: RelinKey,
    ev: Evaluator,
    pub network: HeNetwork,
    sampler: Sampler,
    seed: u64,
    /// Width cap of the scalar path's runs (one thread by default); see
    /// [`Self::set_exec_mode`].
    exec_mode: ExecMode,
    /// `Some` once slot-packed batching is enabled; [`Self::classify`]
    /// then runs the packed circuit instead of the scalar engine.
    packed: Option<PackedState>,
    /// Built on the first scalar validate or request (see
    /// [`Self::scalar`]).
    scalar: Option<ScalarState>,
}

/// Result of one encrypted classification request.
#[derive(Debug, Clone)]
pub struct Classification {
    /// Decrypted logits per image in the batch.
    pub logits: Vec<Vec<f64>>,
    /// Predicted class per image.
    pub predictions: Vec<usize>,
    /// Measured per-layer timing (feed to [`ExecPlan`] simulation).
    pub timing: InferenceTiming,
}

impl CnnHePipeline {
    /// Builds a pipeline with parameters sized to the network's depth:
    /// chain `[40, 26 × required_levels]`, one 40-bit special prime,
    /// Δ = 2^26, ring degree `n` (Table II uses `2^14`).
    pub fn new(network: HeNetwork, n: usize, seed: u64) -> Self {
        let depth = network.required_levels();
        let mut chain_bits = vec![40u32];
        chain_bits.extend(std::iter::repeat_n(26, depth));
        let security = if n >= 1 << 14 {
            ckks::SecurityLevel::Bits128
        } else {
            // toy/test rings cannot reach 128-bit security with this
            // depth; callers use them for correctness work only
            ckks::SecurityLevel::None
        };
        let params = CkksParams {
            n,
            chain_bits,
            special_bits: vec![40],
            scale_bits: 26,
            security,
        };
        Self::with_params(network, params, seed)
    }

    /// Builds a pipeline over explicit parameters. Unlike [`Self::new`],
    /// the chain is NOT auto-sized to the network — run
    /// [`Self::validate`] (or let `encrypt`/`classify` do it) to learn
    /// whether the plan fits.
    pub fn with_params(network: HeNetwork, params: CkksParams, seed: u64) -> Self {
        let ctx = params.build();
        let mut kg = KeyGenerator::new(Arc::clone(&ctx), seed);
        let sk = kg.gen_secret_key();
        let pk = kg.gen_public_key(&sk);
        let rk = kg.gen_relin_key(&sk);
        let ev = Evaluator::new(Arc::clone(&ctx));
        Self {
            ctx,
            sk,
            pk,
            rk,
            ev,
            network,
            sampler: Sampler::from_seed(seed ^ 0x00C0_FFEE),
            seed,
            exec_mode: ExecMode::sequential(),
            packed: None,
            scalar: None,
        }
    }

    /// Switches [`Self::classify`] to the slot-packed path: B images
    /// coalesce into `ceil(B / capacity)` batch-strided ciphertexts, and
    /// each runs the network as one optimized `he-ir` circuit
    /// (squat-fold lowering → [`he_ir::PassManager::optimizer`] →
    /// [`he_ir::Prepared`]) under Galois keys generated for exactly the
    /// rotations those circuits use. Circuit, keys and pre-encoded
    /// operands are built per lane stride on first use; [`Self::prepare_batch`]
    /// builds them ahead of time. Fails typed when a single image's
    /// packed vector does not fit the ring
    /// ([`HeError::BatchExceedsSlots`]) or the chain is shorter than the
    /// packed circuit ([`HeError::LevelExhausted`]). Idempotent.
    pub fn enable_packed_batching(&mut self) -> Result<(), HeError> {
        if self.packed.is_some() {
            return Ok(());
        }
        let packed = PackedNetwork::from_network(&self.network);
        // typed capacity and depth checks before any lowering or keygen
        packed.plan_batch(self.ctx.slots(), 1)?;
        let (needed, depth) = (packed.required_levels(), self.ctx.params().depth());
        if needed > depth {
            return Err(HeError::LevelExhausted {
                op: "run the packed circuit",
                level: depth,
                needed: needed - depth,
            });
        }
        self.packed = Some(PackedState {
            packed,
            strides: HashMap::new(),
            kg: KeyGenerator::new(Arc::clone(&self.ctx), self.seed ^ 0x9A71),
            gk: GaloisKeys::default(),
        });
        Ok(())
    }

    /// Whether [`Self::enable_packed_batching`] has run.
    pub fn packed_batching_enabled(&self) -> bool {
        self.packed.is_some()
    }

    /// Alias of [`Self::enable_packed_batching`]: the optimized circuit
    /// is the only packed path, so "compiling" and "enabling packed
    /// batching" are the same switch.
    pub fn compile(&mut self) -> Result<(), HeError> {
        self.enable_packed_batching()
    }

    /// Builds (once) everything a `batch`-image packed request runs
    /// with, so the request itself does no lowering, optimization,
    /// keygen, linting or plaintext encoding. Fails typed when packed
    /// batching is not enabled or admission refuses the circuit.
    pub fn prepare_batch(&mut self, batch: usize) -> Result<(), HeError> {
        self.admitted_plan(batch).map(|_| ())
    }

    /// The shard plan of a `batch`-image request, with the
    /// [`PackedStride`] of its lane stride built on first use.
    fn built_plan(&mut self, batch: usize) -> Result<ShardPlan, HeError> {
        if batch == 0 {
            return Err(HeError::EmptyBatch);
        }
        let state = self.packed.as_mut().ok_or(HeError::Execution {
            reason: "packed batching is not enabled".into(),
        })?;
        let plan = state.packed.plan_batch(self.ctx.slots(), batch)?;
        let stride = plan.layout().stride();
        if state.strides.contains_key(&stride) {
            return Ok(plan);
        }
        let mut circuit = lower_packed(
            &state.packed,
            he_ir::GraphBuilder::for_context(&self.ctx),
            stride,
            PackedLowering::Compiled,
        );
        let report = he_ir::PassManager::optimizer()
            .optimize(&mut circuit)
            .map_err(|reason| HeError::Execution { reason })?;
        // keys for the rotation steps no earlier stride already needed
        let params = self.ctx.params();
        let missing: Vec<i64> = he_ir::passes::rotations::required_elements(&circuit)
            .steps
            .into_iter()
            .filter(|&s| !state.gk.contains(params.galois_element_for_rotation(s)))
            .collect();
        let fresh = state.kg.gen_galois_keys(&self.sk, &missing, false);
        state.gk.extend(fresh);
        let lint = state.lint(&circuit);
        let prepared = he_ir::Prepared::new(&self.ev, circuit)
            .map_err(|reason| HeError::Execution { reason })?;
        state.strides.insert(
            stride,
            PackedStride {
                prepared,
                report,
                rejected: lint.has_errors().then(|| lint.render()),
            },
        );
        Ok(plan)
    }

    /// [`Self::built_plan`], refused typed when admission rejected the
    /// stride's circuit.
    fn admitted_plan(&mut self, batch: usize) -> Result<ShardPlan, HeError> {
        let plan = self.built_plan(batch)?;
        match &self.packed_stride(&plan).rejected {
            Some(report) => Err(HeError::PlanRejected {
                report: report.clone(),
            }),
            None => Ok(plan),
        }
    }

    fn packed_stride(&self, plan: &ShardPlan) -> &PackedStride {
        &self.packed_state().strides[&plan.layout().stride()]
    }

    fn packed_state(&self) -> &PackedState {
        self.packed
            .as_ref()
            .expect("a built stride implies packed state")
    }

    /// Reference-vs-optimized op accounting for the stride a
    /// `batch`-image request runs at (preparing that stride if needed).
    /// `None` until packed batching is enabled.
    pub fn compiled_stats(&mut self, batch: usize) -> Option<CompiledStats> {
        let plan = self.built_plan(batch.max(1)).ok()?;
        let reference = lower_packed(
            &self.packed_state().packed,
            he_ir::GraphBuilder::for_context(&self.ctx),
            plan.layout().stride(),
            PackedLowering::Eager,
        );
        let built = self.packed_stride(&plan);
        Some(CompiledStats {
            eager: reference.op_counts(),
            compiled: built.prepared.circuit().op_counts(),
            report: built.report.clone(),
        })
    }

    /// Selects how many threads the scalar path's circuit runs may use.
    /// [`ExecMode::sequential`] is one thread and measures clean
    /// per-unit times for the simulator; [`ExecMode::unit_parallel`]
    /// runs each region's units on real threads (bit-identical results,
    /// lower wall-clock). The packed path fans its shards out across
    /// the pool either way.
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.exec_mode = mode;
    }

    pub fn exec_mode(&self) -> ExecMode {
        self.exec_mode
    }

    /// Static admission check *without touching a ciphertext*. `batch`
    /// is the number of images of the intended request. Scalar engine:
    /// the cached [`admission`] report of the circuit that runs, plus a
    /// `batch-exceeds-slots` error when the batch outgrows the slots. Packed path:
    /// [`circuit_admission`] of the optimized circuit that batch size
    /// executes, against the Galois keys generated for it (preparing
    /// that stride if needed).
    pub fn validate_batch(&mut self, batch: usize) -> he_ir::LintReport {
        if self.packed.is_none() {
            let mut report = self.scalar().report.clone();
            if let Some(d) = batch_exceeds_slots(batch, self.ctx.params()) {
                report.push(d);
            }
            return report;
        }
        match self.built_plan(batch.max(1)) {
            Ok(plan) => self
                .packed_state()
                .lint(self.packed_stride(&plan).prepared.circuit()),
            Err(e) => {
                let mut report = he_ir::LintReport::default();
                report.push(he_ir::Diagnostic::error(
                    "packed-prepare-failed",
                    None,
                    e.to_string(),
                ));
                report
            }
        }
    }

    /// [`Self::validate_batch`] for a single image.
    pub fn validate(&mut self) -> he_ir::LintReport {
        self.validate_batch(1)
    }

    /// The scalar path's lowering, admission report and prepared
    /// circuit, built on first use and cached: they depend only on the
    /// network and the parameters, so no request lowers or encodes a
    /// weight, and packed pipelines never lower the scalar network at
    /// all.
    fn scalar(&mut self) -> &ScalarState {
        let (net, ctx, ev) = (&self.network, &self.ctx, &self.ev);
        self.scalar
            .get_or_insert_with(|| ScalarState::build(net, ctx, ev))
    }

    /// The circuit the scalar path runs: the network lowered once
    /// against this pipeline's built context, the one admission linted.
    /// Panics with the refusal when admission refused it.
    pub fn lower_to_ir(&mut self) -> &he_ir::Circuit {
        match &self.scalar().prepared {
            Ok(prepared) => prepared.circuit(),
            Err(e) => panic!("{e}"),
        }
    }

    /// Largest image batch one slot-packed request can carry — the
    /// ceiling a serving engine may coalesce up to. Scalar engine: the
    /// CKKS slot count (one slot per image). Packed engine: the lane
    /// capacity of one ciphertext (`slots / dim`), so a coalesced batch
    /// stays a single packed ciphertext.
    pub fn max_batch(&self) -> usize {
        match &self.packed {
            Some(eng) => (self.ctx.slots() / eng.packed.dim).max(1),
            None => self.ctx.slots(),
        }
    }

    /// Unclamped lane capacity of one packed ciphertext
    /// (`slots / dim`), `None` until packed batching is enabled. Unlike
    /// [`Self::max_batch`] this reports `Some(0)` when the packed
    /// dimension does not fit the ring, so admission layers can refuse
    /// instead of silently serving a clamped 1-lane ceiling.
    pub fn packed_lane_capacity(&self) -> Option<usize> {
        self.packed
            .as_ref()
            .map(|eng| self.ctx.slots() / eng.packed.dim)
    }

    /// Flat pixel count one request image must have.
    pub fn input_len(&self) -> usize {
        self.network.input_side * self.network.input_side
    }

    /// Client-side: encrypts a batch of images for the scalar engine,
    /// refusing typed — the cached admission report's errors, a batch
    /// past the slots, a wrong-length image — before any encrypted
    /// compute is spent.
    fn try_encrypt(&mut self, images: &[&[f32]]) -> Result<CtTensor, HeError> {
        let (slots, pixels) = (self.ctx.slots(), self.input_len());
        if let Err(e) = &self.scalar().prepared {
            return Err(e.clone());
        }
        if images.len() > slots {
            return Err(HeError::BatchExceedsSlots {
                batch: images.len(),
                capacity: slots,
            });
        }
        if let Some(img) = images.iter().find(|img| img.len() != pixels) {
            return Err(HeError::ShapeMismatch {
                what: "image length",
                got: img.len(),
                expected: pixels,
            });
        }
        Ok(encrypt_image_batch(
            &self.ev,
            &self.pk,
            &mut self.sampler,
            images,
            self.network.input_side,
            self.network.required_levels(),
        ))
    }

    /// One classification request: encrypt (client side), evaluate the
    /// network over ciphertexts (server side), decrypt the logits and
    /// take argmax (client side). Panics with the typed error's message
    /// where [`Self::try_classify`] returns it.
    pub fn classify(&mut self, images: &[&[f32]]) -> Classification {
        self.try_classify(images).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::classify`] with every failure typed: an empty batch, a
    /// wrong-length image, an admission refusal, a batch past the slots
    /// or an executor failure is an `Err`, never a panic — what a
    /// serving worker must call. The scalar and packed paths differ only
    /// in which prepared circuit runs.
    pub fn try_classify(&mut self, images: &[&[f32]]) -> Result<Classification, HeError> {
        let (logits, trace) = self.run(images)?;
        Ok(classification(logits, trace.timing))
    }

    /// Encrypts, runs the circuit, decrypts, and reports the run (spans
    /// aside): on the packed path [`Self::run_packed`]; on the scalar
    /// path the cached prepared lowering, under [`Self::exec_mode`]'s
    /// width cap.
    fn run(&mut self, images: &[&[f32]]) -> Result<(Vec<Vec<f64>>, InferenceTrace), HeError> {
        if images.is_empty() {
            return Err(HeError::EmptyBatch);
        }
        if self.packed.is_some() {
            return self.run_packed(images);
        }
        let x = self.try_encrypt(images)?;
        let start = (x.level(), x.scale());
        let prepared = self
            .scalar
            .as_ref()
            .and_then(|s| s.prepared.as_ref().ok())
            .expect("try_encrypt admitted the circuit");
        let ops = OpSnapshot::now();
        let (y, regions) = self
            .network
            .run_prepared(prepared, &self.ev, &self.rk, x, self.exec_mode)
            .map_err(|reason| HeError::Execution { reason })?;
        let ops = OpSnapshot::now().delta(&ops);
        let trace = InferenceTrace::of_run(&self.ctx, prepared.circuit(), regions, start, ops);
        Ok((decrypt_tensor(&self.ev, &self.sk, &y, images.len()), trace))
    }

    /// The packed circuit run: plan shards, encrypt B images into
    /// `ceil(B / capacity)` batch-strided ciphertexts, interpret the
    /// stride's prepared circuit once per shard, decrypt one logits row
    /// per image. Records come one per shard × IR region.
    fn run_packed(
        &mut self,
        images: &[&[f32]],
    ) -> Result<(Vec<Vec<f64>>, InferenceTrace), HeError> {
        let plan = self.admitted_plan(images.len())?;
        // a field borrow, so the sampler stays mutably borrowable
        let state = self.packed.as_ref().expect("admitted_plan checked");
        let prepared = &state.strides[&plan.layout().stride()].prepared;
        let cts =
            state
                .packed
                .encrypt_batch(&self.ev, &self.pk, &mut self.sampler, images, &plan)?;
        let start = (cts[0].level, cts[0].scale);
        let interp = he_ir::Interpreter::new(&self.ev)
            .with_relin(&self.rk)
            .with_galois(&state.gk);
        let ops = OpSnapshot::now();
        let (outs, regions) = crate::packed::run_shards(prepared, &interp, cts)
            .map_err(|reason| HeError::Execution { reason })?;
        let ops = OpSnapshot::now().delta(&ops);
        let trace = InferenceTrace::of_run(&self.ctx, prepared.circuit(), regions, start, ops);
        let logits = state.packed.decrypt_batch(&self.ev, &self.sk, &outs, &plan);
        Ok((logits, trace))
    }

    /// [`Self::classify`] with full runtime telemetry, on whichever path
    /// `classify` takes: the whole request is wrapped in an
    /// [`he_trace::TraceSession`] (spans + exact op-counter attribution —
    /// the session's global lock serializes concurrent traced runs), and
    /// the same region records `classify` reports become one
    /// [`crate::trace::LayerTrace`] per region (per shard × region on
    /// the packed path), cross-checked against the prepared circuit that
    /// ran. `trace.divergence` is empty iff the run followed the circuit.
    /// Panics with the typed error's message where [`Self::try_classify`]
    /// returns it.
    pub fn traced_infer(&mut self, images: &[&[f32]]) -> (Classification, InferenceTrace) {
        let session = he_trace::TraceSession::begin();
        let (logits, mut trace) = self.run(images).unwrap_or_else(|e| panic!("{e}"));
        trace.events = session.finish();
        // publish the measured level/headroom trajectory as live gauges
        // (no-op unless the `trace` feature is on)
        trace.export_gauges();
        (classification(logits, trace.timing.clone()), trace)
    }

    /// Direct access for benches/tests.
    pub fn evaluator(&self) -> &Evaluator {
        &self.ev
    }

    /// Renders the execution dataflow of an [`ExecPlan`] — the textual
    /// regeneration of the paper's Fig. 5.
    pub fn execution_plan_description(&self, plan: ExecPlan) -> String {
        let mut out = String::new();
        let k = plan.streams;
        if k <= 1 {
            out.push_str("CNN-HE (sequential baseline)\n");
            out.push_str("  encrypted input ──► ");
            for l in &self.network.layers {
                out.push_str(&format!("{} ──► ", l.name()));
            }
            out.push_str("encrypted logits\n");
        } else {
            out.push_str(&format!(
                "CNN-HE-RNS (k = {k} parallel streams, {} virtual cores)\n",
                plan.virtual_cores
            ));
            out.push_str("  encrypted input ──► RNS decompose ─┬─►\n");
            for j in 0..k.min(4) {
                out.push_str(&format!(
                    "      stream {j}: {}\n",
                    self.network
                        .layers
                        .iter()
                        .map(super::network::HeLayerSpec::name)
                        .collect::<Vec<_>>()
                        .join(" ─► ")
                ));
            }
            if k > 4 {
                out.push_str(&format!("      … ({} more streams)\n", k - 4));
            }
            out.push_str("  ─┴─► CRT reassemble ──► encrypted logits\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neural::models::{cnn1, ActKind};

    /// A miniature CNN1-shaped network over 8×8 inputs, small enough to
    /// run under tiny ring parameters in unit tests.
    fn mini_network(seed: u64) -> HeNetwork {
        use crate::he_layers::{ConvSpec, DenseSpec};
        use crate::network::HeLayerSpec;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut w =
            |n: usize| -> Vec<f32> { (0..n).map(|_| rng.gen_range(-0.3f32..0.3)).collect() };
        let conv = ConvSpec {
            weight: w(2 * 9),
            bias: vec![0.05, -0.05],
            in_ch: 1,
            out_ch: 2,
            k: 3,
            stride: 2,
            pad: 0,
        }; // 8 → 3; flat = 2·9 = 18
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

    #[test]
    fn encrypted_inference_matches_plain_reference() {
        let net = mini_network(100);
        let mut pipe = CnnHePipeline::new(net, 1 << 10, 100);
        let img: Vec<f32> = (0..64).map(|i| ((i * 7) % 13) as f32 / 13.0).collect();
        let want = pipe.network.infer_plain(&img);
        let got = pipe.classify(&[&img]);
        assert_eq!(got.logits.len(), 1);
        for (g, w) in got.logits[0].iter().zip(&want) {
            assert!((g - w).abs() < 2e-2, "logit mismatch: {g} vs {w}");
        }
        // prediction consistency
        assert_eq!(got.predictions[0], argmax(&want));
    }

    #[test]
    fn batch_of_images_classified_together() {
        let net = mini_network(101);
        let mut pipe = CnnHePipeline::new(net, 1 << 10, 101);
        let a: Vec<f32> = (0..64).map(|i| (i % 9) as f32 / 9.0).collect();
        let b: Vec<f32> = (0..64).map(|i| 1.0 - (i % 5) as f32 / 5.0).collect();
        let got = pipe.classify(&[&a, &b]);
        let wa = pipe.network.infer_plain(&a);
        let wb = pipe.network.infer_plain(&b);
        for (g, w) in got.logits[0].iter().zip(&wa) {
            assert!((g - w).abs() < 2e-2);
        }
        for (g, w) in got.logits[1].iter().zip(&wb) {
            assert!((g - w).abs() < 2e-2);
        }
    }

    fn mini_images(n: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|k| {
                (0..64)
                    .map(|i| ((i * (k + 2)) % 13) as f32 / 13.0)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn packed_path_classifies_a_sharded_batch_with_fewer_ops_than_the_reference() {
        let net = mini_network(107);
        let mut pipe = CnnHePipeline::new(net, 1 << 10, 107);
        assert_eq!(pipe.packed_lane_capacity(), None, "not yet enabled");
        pipe.enable_packed_batching().unwrap();
        assert!(pipe.packed_batching_enabled());
        // `compile` is the same switch: already on, nothing to redo
        pipe.compile().unwrap();
        // 512 slots / dim 64 → one packed ciphertext carries 8 lanes
        assert_eq!(pipe.max_batch(), 8);
        assert_eq!(pipe.packed_lane_capacity(), Some(8));
        assert!(!pipe.validate_batch(10).has_errors());
        let images = mini_images(10);
        let refs: Vec<&[f32]> = images.iter().map(Vec::as_slice).collect();
        // 10 images spill into 2 shards at the full 8-lane stride;
        // every lane must match plain
        let got = pipe.classify(&refs);
        assert_eq!(got.logits.len(), 10);
        for (k, img) in images.iter().enumerate() {
            let want = pipe.network.infer_plain(img);
            for (g, w) in got.logits[k].iter().zip(&want) {
                assert!((g - w).abs() < 3e-2, "image {k}: {g} vs {w}");
            }
            assert_eq!(got.predictions[k], argmax(&want), "image {k}");
        }
        // timing: one entry per shard × IR region, named by both
        let regions = pipe.packed_state().strides[&8]
            .prepared
            .circuit()
            .regions
            .len();
        assert_eq!(got.timing.layers.len(), 2 * regions);
        assert!(got.timing.layers[0]
            .name
            .starts_with("shard 0: packed layer 0: matvec"));
        let folds = got
            .timing
            .layers
            .iter()
            .filter(|l| l.name.ends_with(": fold"));
        assert!(folds.count() >= 2, "squat layers report their fold");
        // a singleton batch exercises the stride-1 circuit
        let one = pipe.classify(&refs[..1]);
        for (a, b) in one.logits[0].iter().zip(&got.logits[0]) {
            assert!((a - b).abs() < 2e-2, "{a} vs {b}");
        }
        // the optimizer must beat the reference lowering by the gated
        // thresholds on both strides seen above
        for batch in [1usize, 10] {
            let stats = pipe.compiled_stats(batch).unwrap();
            assert!(stats.report.changed());
            let (e, c) = (stats.eager, stats.compiled);
            assert!(
                (c.rotations as f64) <= 0.85 * e.rotations as f64,
                "batch {batch} rotations: {} vs {}",
                c.rotations,
                e.rotations
            );
            let total = |o: he_ir::OpCounts| o.ct_mults + o.scalar_macs + o.rescales + o.rotations;
            assert!(
                (total(c) as f64) <= 0.90 * total(e) as f64,
                "batch {batch} total ops: {} vs {}",
                total(c),
                total(e)
            );
        }
    }

    #[test]
    fn validate_batch_reports_on_the_circuit_and_keys_that_run() {
        let mut pipe = CnnHePipeline::new(mini_network(109), 1 << 10, 109);
        pipe.enable_packed_batching().unwrap();
        assert!(!pipe.validate_batch(3).has_errors());
        // drop one Galois element the stride-4 circuit rotates by
        let stride = pipe.built_plan(3).unwrap().layout().stride();
        let state = pipe.packed.as_mut().unwrap();
        let circuit = state.strides[&stride].prepared.circuit();
        let dropped = he_ir::passes::rotations::required_elements(circuit).elements;
        let dropped = *dropped.first().unwrap();
        let mut fewer = GaloisKeys::default();
        for elem in state.gk.elements().filter(|&e| e != dropped) {
            fewer.insert(elem, state.gk.get(elem).unwrap().clone());
        }
        state.gk = fewer;
        let report = pipe.validate_batch(3);
        assert!(report.has_code("missing-galois-key"), "{}", report.render());
        // and running on the short key set is a typed error, not a panic
        let images = mini_images(3);
        let refs: Vec<&[f32]> = images.iter().map(Vec::as_slice).collect();
        match pipe.try_classify(&refs) {
            Err(HeError::Execution { reason }) => {
                assert!(reason.contains("missing Galois key"), "{reason}");
            }
            other => panic!("expected an execution error, got {other:?}"),
        }
    }

    #[test]
    fn misshapen_packed_requests_are_typed_errors_and_leave_the_pipeline_usable() {
        let mut pipe = CnnHePipeline::new(mini_network(110), 1 << 10, 110);
        assert!(matches!(
            pipe.prepare_batch(1),
            Err(HeError::Execution { .. })
        ));
        pipe.enable_packed_batching().unwrap();
        assert_eq!(pipe.try_classify(&[]).unwrap_err(), HeError::EmptyBatch);
        let images = mini_images(2);
        let short = vec![0.5f32; 10];
        let err = pipe.try_classify(&[&images[0], &short]).unwrap_err();
        assert_eq!(
            err,
            HeError::ShapeMismatch {
                what: "image length",
                got: 10,
                expected: 64
            }
        );
        let ok = pipe.try_classify(&[&images[0], &images[1]]).unwrap();
        assert_eq!(ok.logits.len(), 2);
    }

    #[test]
    fn scalar_try_classify_refuses_typed_instead_of_panicking() {
        // a chain 4 levels short of the network's 7
        let params = CkksParams {
            n: 1 << 10,
            chain_bits: vec![40, 26, 26, 26],
            special_bits: vec![40],
            scale_bits: 26,
            security: ckks::SecurityLevel::None,
        };
        let mut pipe = CnnHePipeline::with_params(mini_network(112), params, 112);
        let img = vec![0.5f32; 64];
        match pipe.try_classify(&[&img]) {
            Err(HeError::PlanRejected { report }) => {
                assert!(report.contains("chain-exhausted"), "{report}");
                assert!(report.contains("4 more"), "{report}");
            }
            other => panic!("expected PlanRejected, got {other:?}"),
        }

        // 513 images on a ring with 512 slots
        let mut pipe = CnnHePipeline::new(mini_network(113), 1 << 10, 113);
        let refs = vec![img.as_slice(); 513];
        assert_eq!(
            pipe.try_classify(&refs).unwrap_err(),
            HeError::BatchExceedsSlots {
                batch: 513,
                capacity: 512
            }
        );
        let short = vec![0.5f32; 10];
        assert!(matches!(
            pipe.try_classify(&[&short]),
            Err(HeError::ShapeMismatch { got: 10, .. })
        ));
        // refusals leave the pipeline serving
        assert_eq!(pipe.try_classify(&[&img]).unwrap().logits.len(), 1);
    }

    #[test]
    fn packed_batching_refuses_a_chain_shorter_than_the_circuit() {
        let params = CkksParams {
            n: 1 << 10,
            chain_bits: vec![40, 26, 26],
            special_bits: vec![40],
            scale_bits: 26,
            security: ckks::SecurityLevel::None,
        };
        let mut pipe = CnnHePipeline::with_params(mini_network(111), params, 111);
        assert!(matches!(
            pipe.enable_packed_batching(),
            Err(HeError::LevelExhausted { needed: 5, .. })
        ));
        assert!(!pipe.packed_batching_enabled());
    }

    #[test]
    fn argmax_orders_nan_instead_of_panicking() {
        assert_eq!(argmax(&[0.1, 0.9, 0.3]), 1);
        assert_eq!(argmax(&[-2.0, -1.0, -3.0]), 1);
        // a NaN logit must not take a serving worker down
        assert_eq!(argmax(&[0.1, f64::NAN, 0.3]), 1);
        assert_eq!(argmax(&[f64::NAN, f64::NAN]), 1);
        assert_eq!(argmax(&[]), 0);
    }

    #[test]
    fn timing_supports_all_plans_from_one_run() {
        let net = mini_network(102);
        let mut pipe = CnnHePipeline::new(net, 1 << 10, 102);
        let img = vec![0.3f32; 64];
        let got = pipe.classify(&[&img]);
        let base = got.timing.simulated_wall(ExecPlan::baseline());
        let mut prev = base;
        for k in [3usize, 6, 9] {
            let w = got.timing.simulated_wall(ExecPlan::rns(k));
            assert!(w <= prev, "k={k} should not be slower");
            prev = w;
        }
        assert!(prev < base, "parallel plan should beat baseline");
    }

    #[test]
    fn plan_descriptions_render() {
        let net = mini_network(103);
        let pipe_net = net.clone();
        let pipe = CnnHePipeline::new(pipe_net, 1 << 10, 103);
        let d1 = pipe.execution_plan_description(ExecPlan::baseline());
        assert!(d1.contains("sequential baseline"));
        let d2 = pipe.execution_plan_description(ExecPlan::rns(5));
        assert!(d2.contains("k = 5"));
        assert!(d2.contains("CRT reassemble"));
    }

    #[test]
    fn traced_infer_matches_static_plan() {
        let net = mini_network(105);
        let mut pipe = CnnHePipeline::new(net, 1 << 10, 105);
        let img: Vec<f32> = (0..64).map(|i| ((i * 5) % 11) as f32 / 11.0).collect();
        let (cls, trace) = pipe.traced_infer(&[&img]);
        // classification unaffected by tracing
        let want = pipe.network.infer_plain(&img);
        for (g, w) in cls.logits[0].iter().zip(&want) {
            assert!((g - w).abs() < 2e-2);
        }
        // the observed level/scale trajectory must agree with the circuit
        assert!(
            trace.divergence.is_empty(),
            "runtime diverged from the static plan:\n{}",
            trace.divergence.join("\n")
        );
        assert_eq!(trace.layers.len(), 5);
        assert_eq!(trace.start_level, pipe.network.required_levels());
        // logits land at level 0 with the input scale (exact-scale
        // discipline end to end)
        let last = trace.layers.last().unwrap();
        assert_eq!(last.level, 0);
        assert!((last.scale.log2() - trace.start_scale.log2()).abs() < 0.1);
        // headroom drains monotonically
        let mut prev = trace.start_headroom_bits;
        for l in &trace.layers {
            assert!(
                l.headroom_bits <= prev + 1e-9,
                "headroom grew at {}: {} > {prev}",
                l.name,
                l.headroom_bits
            );
            prev = l.headroom_bits;
        }
        // report renders with one row per layer
        let report = trace.report();
        assert_eq!(report.rows.len(), 5);
        assert!(report.breakdown().contains("total"));
    }

    #[test]
    fn traced_infer_on_a_packed_pipeline_traces_the_packed_circuit() {
        let mut pipe = CnnHePipeline::new(mini_network(108), 1 << 10, 108);
        pipe.enable_packed_batching().unwrap();
        let img = mini_images(1).remove(0);
        let (cls, trace) = pipe.traced_infer(&[&img]);
        assert!(
            trace.divergence.is_empty(),
            "{}",
            trace.divergence.join("\n")
        );
        let stride = pipe.built_plan(1).unwrap().layout().stride();
        let circuit = pipe.packed_state().strides[&stride].prepared.circuit();
        assert_eq!(trace.layers.len(), circuit.regions.len());
        assert_eq!(cls.timing.layers.len(), circuit.regions.len());
        if cfg!(feature = "trace") {
            assert!(trace.total_ops.rotations > 0, "{:?}", trace.total_ops);
        }
        for (g, w) in cls.logits[0].iter().zip(&pipe.network.infer_plain(&img)) {
            assert!((g - w).abs() < 2e-2, "{g} vs {w}");
        }
    }

    #[cfg(feature = "trace")]
    #[test]
    fn traced_infer_records_spans_and_ops() {
        let net = mini_network(106);
        let mut pipe = CnnHePipeline::new(net, 1 << 10, 106);
        let img = vec![0.2f32; 64];
        let (_, trace) = pipe.traced_infer(&[&img]);
        // with tracing compiled in, the session captures layer spans …
        assert!(
            trace.events.iter().any(|e| e.cat == he_trace::cats::LAYER),
            "no layer spans recorded"
        );
        // … per-layer op deltas are non-trivial (≥: other test threads
        // may add to the globals, never subtract) …
        assert!(!trace.total_ops.is_zero());
        for l in &trace.layers {
            assert!(l.ops.rescales >= 1, "{} recorded no rescale", l.name);
        }
        // … and the chrome export round-trips the validator
        let json = trace.chrome_json().expect("span timestamps must be finite");
        let n = he_trace::validate_chrome_json(&json).expect("invalid chrome trace");
        assert_eq!(n, trace.events.len());
        assert!(!trace.folded_stacks().is_empty());
    }

    #[test]
    fn full_cnn1_extraction_runs_on_toy_ring() {
        // CNN1 at real 28×28 scale, untrained weights, tiny ring: checks
        // wiring end-to-end without the cost of full-size parameters.
        let model = cnn1(ActKind::slaf3(), 104);
        let net = HeNetwork::from_trained(&model, 28);
        let mut pipe = CnnHePipeline::new(net, 1 << 10, 104);
        let img: Vec<f32> = (0..784).map(|i| ((i * 3) % 29) as f32 / 29.0).collect();
        let want = pipe.network.infer_plain(&img);
        let got = pipe.classify(&[&img]);
        for (g, w) in got.logits[0].iter().zip(&want) {
            assert!((g - w).abs() < 5e-2, "{g} vs {w}");
        }
    }
}
