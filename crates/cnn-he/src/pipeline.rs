//! End-to-end privacy-preserving classification (the paper's Fig. 1
//! deployment): client encodes + encrypts, server evaluates the CNN over
//! ciphertexts, client decrypts the logits.

use crate::analyze::{admission, batch_exceeds_slots, circuit_admission};
use crate::exec::{ExecMode, InferenceTiming};
use crate::he_tensor::{decrypt_tensor, encrypt_image_batch, CtTensor};
use crate::network::HeNetwork;
use crate::packed::{PackedIo, PackedNetwork};
use crate::packed_graph::{lower_packed, PackedLowering};
use crate::trace::InferenceTrace;
use ckks::{
    CkksContext, CkksParams, Evaluator, GaloisKeys, HeError, KeyGenerator, PublicKey, RelinKey,
    SecretKey,
};
use ckks_math::sampler::Sampler;
use he_trace::OpSnapshot;
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

/// State of the slot-packed path, built once by
/// [`CnnHePipeline::enable_packed_batching`]: what requests read of the
/// packed network (not its layers — the prepared circuit holds every
/// encoded weight), the Galois keys of exactly the rotations its circuit
/// uses, that circuit (lowered at the ring's full lane capacity) in
/// prepared form, and the admission verdict of the standard lint passes
/// over it.
struct PackedState {
    io: PackedIo,
    gk: GaloisKeys,
    prepared: he_ir::Prepared,
    /// Rendered lint report when admission refused the circuit.
    rejected: Option<String>,
}

impl PackedState {
    /// Admission of the prepared circuit against the keys that actually
    /// exist.
    fn lint(&self) -> he_ir::LintReport {
        circuit_admission(
            self.prepared.circuit(),
            he_ir::KeyInventory::with_galois(true, self.gk.elements()),
        )
    }
}

/// Reference-vs-compiled op accounting of the packed circuit, for
/// benches and regression gates.
#[derive(Debug, Clone)]
pub struct CompiledStats {
    /// Counts of the reference lowering ([`PackedLowering::Eager`]).
    pub eager: he_ir::OpCounts,
    /// Counts of the compiled circuit `classify` runs.
    pub compiled: he_ir::OpCounts,
}

/// One request's run as the client sees it — decrypted logits and the
/// timing record — plus what a trace adds: the input's level and scale,
/// the run's op delta and the circuit that ran.
struct Run<'a> {
    logits: Vec<Vec<f64>>,
    timing: InferenceTiming,
    start: (usize, f64),
    ops: OpSnapshot,
    circuit: &'a he_ir::Circuit,
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
    /// One record per executed circuit region: wall, unit walls, exit
    /// level and scale, headroom and op delta.
    pub timing: InferenceTiming,
}

impl CnnHePipeline {
    /// Builds a pipeline with [`CkksParams::paper`] sized to the
    /// network's depth on ring degree `n` (Table II uses `2^14`).
    pub fn new(network: HeNetwork, n: usize, seed: u64) -> Self {
        let params = CkksParams::paper(n, network.required_levels());
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
    /// coalesce into `ceil(B / capacity)` batch-strided ciphertexts, all
    /// at the ring's full lane capacity `slots / dim`, and each runs the
    /// network as one `he-ir` circuit. That circuit (the squat-fold
    /// lowering [`PackedLowering::Compiled`]) is lowered, keyed with
    /// Galois keys for exactly the rotations it uses, linted and
    /// prepared ([`he_ir::Prepared`]) here, once, so no request lowers,
    /// generates a key or encodes an operand. Fails typed when the
    /// network is malformed ([`HeError::PlanRejected`] naming the layer
    /// [`HeNetwork::check`] refuses), a single image's packed vector does
    /// not fit the ring ([`HeError::BatchExceedsSlots`]) or the chain is
    /// shorter than the packed circuit ([`HeError::LevelExhausted`]); an
    /// admission refusal of the circuit surfaces on the first request as
    /// [`HeError::PlanRejected`] and in [`Self::validate_batch`].
    /// Idempotent.
    pub fn enable_packed_batching(&mut self) -> Result<(), HeError> {
        if self.packed.is_some() {
            return Ok(());
        }
        self.network.check().map_err(|e| HeError::PlanRejected {
            report: e.to_string(),
        })?;
        let packed = PackedNetwork::from_network(&self.network);
        // typed capacity and depth checks before any lowering or keygen
        let stride = packed.plan_batch(self.ctx.slots(), 1)?.layout().stride();
        let (needed, depth) = (packed.required_levels(), self.ctx.params().depth());
        if needed > depth {
            return Err(HeError::LevelExhausted {
                op: "run the packed circuit",
                level: depth,
                needed: needed - depth,
            });
        }
        let circuit = lower_packed(
            &packed,
            he_ir::GraphBuilder::for_context(&self.ctx),
            stride,
            PackedLowering::Compiled,
        );
        let steps: Vec<i64> = he_ir::passes::rotations::required_elements(&circuit)
            .steps
            .into_iter()
            .collect();
        let gk = KeyGenerator::new(Arc::clone(&self.ctx), self.seed ^ 0x9A71)
            .gen_galois_keys(&self.sk, &steps, false);
        let prepared = he_ir::Prepared::new(&self.ev, circuit)
            .map_err(|reason| HeError::Execution { reason })?;
        let mut state = PackedState {
            io: packed.io(),
            gk,
            prepared,
            rejected: None,
        };
        let lint = state.lint();
        state.rejected = lint.has_errors().then(|| lint.render());
        self.packed = Some(state);
        Ok(())
    }

    /// Whether [`Self::enable_packed_batching`] has run.
    pub fn packed_batching_enabled(&self) -> bool {
        self.packed.is_some()
    }

    /// Alias of [`Self::enable_packed_batching`]: the compiled circuit
    /// is the only packed path, so "compiling" and "enabling packed
    /// batching" are the same switch.
    pub fn compile(&mut self) -> Result<(), HeError> {
        self.enable_packed_batching()
    }

    /// The Galois keys the packed circuit rotates under — exactly its
    /// rotation set, element for element. `None` until packed batching
    /// is enabled.
    pub fn packed_galois_keys(&self) -> Option<&GaloisKeys> {
        self.packed.as_ref().map(|state| &state.gk)
    }

    /// Reference-vs-compiled op accounting of the packed circuit. `None`
    /// until packed batching is enabled.
    pub fn compiled_stats(&self) -> Option<CompiledStats> {
        let state = self.packed.as_ref()?;
        let plan = state.io.plan_batch(self.ctx.slots(), 1).ok()?;
        let reference = lower_packed(
            &PackedNetwork::from_network(&self.network),
            he_ir::GraphBuilder::for_context(&self.ctx),
            plan.layout().stride(),
            PackedLowering::Eager,
        );
        Some(CompiledStats {
            eager: reference.op_counts(),
            compiled: state.prepared.circuit().op_counts(),
        })
    }

    /// Selects how many threads the scalar path's circuit runs may use.
    /// [`ExecMode::sequential`] (the default) is one thread;
    /// [`ExecMode::unit_parallel`] runs each region's units on real
    /// threads (bit-identical results, lower wall-clock). The packed
    /// path fans its shards out across the pool either way.
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
    /// [`circuit_admission`] of the one compiled circuit every batch
    /// size executes (a batch past the lane capacity is more shards of
    /// it), against the Galois keys that exist.
    pub fn validate_batch(&mut self, batch: usize) -> he_ir::LintReport {
        if let Some(state) = &self.packed {
            return state.lint();
        }
        let mut report = self.scalar().report.clone();
        if let Some(d) = batch_exceeds_slots(batch, self.ctx.params()) {
            report.push(d);
        }
        report
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
            Some(eng) => (self.ctx.slots() / eng.io.dim).max(1),
            None => self.ctx.slots(),
        }
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
        let run = self.run(images)?;
        Ok(classification(run.logits, run.timing))
    }

    /// Encrypts, runs the circuit, decrypts, and reports the run: on the
    /// packed path [`Self::run_packed`]; on the scalar path the cached
    /// prepared lowering, under [`Self::exec_mode`]'s width cap.
    fn run(&mut self, images: &[&[f32]]) -> Result<Run<'_>, HeError> {
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
        let (y, timing) = self
            .network
            .run_prepared(prepared, &self.ev, &self.rk, x, self.exec_mode)
            .map_err(|reason| HeError::Execution { reason })?;
        let ops = OpSnapshot::now().delta(&ops);
        Ok(Run {
            logits: decrypt_tensor(&self.ev, &self.sk, &y, images.len()),
            timing,
            start,
            ops,
            circuit: prepared.circuit(),
        })
    }

    /// The packed circuit run: plan shards, encrypt B images into
    /// `ceil(B / capacity)` batch-strided ciphertexts, interpret the
    /// prepared circuit once per shard, decrypt one logits row per
    /// image. Records come one per shard × IR region.
    fn run_packed(&mut self, images: &[&[f32]]) -> Result<Run<'_>, HeError> {
        // a field borrow, so the sampler stays mutably borrowable
        let state = self.packed.as_ref().expect("run checked packed state");
        if let Some(report) = &state.rejected {
            return Err(HeError::PlanRejected {
                report: report.clone(),
            });
        }
        let plan = state.io.plan_batch(self.ctx.slots(), images.len())?;
        let prepared = &state.prepared;
        let cts = state
            .io
            .encrypt_batch(&self.ev, &self.pk, &mut self.sampler, images, &plan)?;
        let start = (cts[0].level, cts[0].scale);
        let interp = he_ir::Interpreter::new(&self.ev)
            .with_relin(&self.rk)
            .with_galois(&state.gk);
        let ops = OpSnapshot::now();
        let (outs, timing) = crate::packed::run_shards(prepared, &interp, cts)
            .map_err(|reason| HeError::Execution { reason })?;
        let ops = OpSnapshot::now().delta(&ops);
        Ok(Run {
            logits: state.io.decrypt_batch(&self.ev, &self.sk, &outs, &plan),
            timing,
            start,
            ops,
            circuit: prepared.circuit(),
        })
    }

    /// [`Self::classify`] with full runtime telemetry, on whichever path
    /// `classify` takes: the whole request is wrapped in an
    /// [`he_trace::TraceSession`] (spans + exact op-counter attribution —
    /// the session's global lock serializes concurrent traced runs), and
    /// the same region records `classify` reports — one
    /// [`he_ir::RegionRun`] per region, per shard × region on the packed
    /// path — are cross-checked against the prepared circuit that ran.
    /// `trace.divergence` is empty iff the run followed the circuit.
    /// Refuses typed exactly where [`Self::try_classify`] does.
    pub fn traced_infer(
        &mut self,
        images: &[&[f32]],
    ) -> Result<(Classification, InferenceTrace), HeError> {
        let ctx = Arc::clone(&self.ctx);
        let session = he_trace::TraceSession::begin();
        let run = self.run(images)?;
        let events = session.finish();
        let mut trace =
            InferenceTrace::of_run(&ctx, run.circuit, run.timing.clone(), run.start, run.ops);
        trace.events = events;
        // publish the measured level/headroom trajectory as live gauges
        // (no-op unless the `trace` feature is on)
        trace.export_gauges();
        Ok((classification(run.logits, run.timing), trace))
    }

    /// Direct access for benches/tests.
    pub fn evaluator(&self) -> &Evaluator {
        &self.ev
    }

    /// Renders the dataflow of the paper's `k`-stream CNN-HE-RNS
    /// (`k = 1`: the sequential baseline) — the textual regeneration of
    /// Fig. 5.
    pub fn execution_plan_description(&self, k: usize) -> String {
        let mut out = String::new();
        if k <= 1 {
            out.push_str("CNN-HE (sequential baseline)\n");
            out.push_str("  encrypted input ──► ");
            for l in &self.network.layers {
                out.push_str(&format!("{} ──► ", l.name()));
            }
            out.push_str("encrypted logits\n");
        } else {
            out.push_str(&format!("CNN-HE-RNS (k = {k} parallel streams)\n"));
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
    use crate::network::HeLayerSpec;
    use neural::models::{cnn1, ActKind};

    /// A miniature CNN1-shaped network over 8×8 inputs, small enough to
    /// run under tiny ring parameters in unit tests.
    fn mini_network(seed: u64) -> HeNetwork {
        use crate::he_layers::{ConvSpec, DenseSpec};
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

    /// The one circuit a packed pipeline runs.
    fn packed_circuit(pipe: &CnnHePipeline) -> &he_ir::Circuit {
        let state = pipe.packed.as_ref().expect("packed batching is enabled");
        state.prepared.circuit()
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
        pipe.enable_packed_batching().unwrap();
        assert!(pipe.packed_batching_enabled());
        // `compile` is the same switch: already on, nothing to redo
        pipe.compile().unwrap();
        // 512 slots / dim 64 → one packed ciphertext carries 8 lanes
        assert_eq!(pipe.max_batch(), 8);
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
        let regions = packed_circuit(&pipe).regions.len();
        assert_eq!(got.timing.layers.len(), 2 * regions);
        assert!(got.timing.layers[0]
            .name
            .starts_with("shard 0: packed layer 0: conv taps"));
        let folds = got
            .timing
            .layers
            .iter()
            .filter(|l| l.name.ends_with(": fold"));
        assert!(folds.count() >= 2, "squat layers report their fold");
        // a singleton batch runs the same circuit in one of its 8 lanes
        let one = pipe.classify(&refs[..1]);
        assert_eq!(one.timing.layers.len(), regions);
        for (a, b) in one.logits[0].iter().zip(&got.logits[0]) {
            assert!((a - b).abs() < 2e-2, "{a} vs {b}");
        }
        // the compiled lowering must beat the reference lowering by the
        // gated thresholds
        let stats = pipe.compiled_stats().unwrap();
        let (e, c) = (stats.eager, stats.compiled);
        assert!(
            (c.rotations as f64) <= 0.85 * e.rotations as f64,
            "rotations: {} vs {}",
            c.rotations,
            e.rotations
        );
        let total = |o: he_ir::OpCounts| o.ct_mults + o.scalar_macs + o.rescales + o.rotations;
        assert!(
            (total(c) as f64) <= 0.90 * total(e) as f64,
            "total ops: {} vs {}",
            total(c),
            total(e)
        );
    }

    #[test]
    fn zero_weight_layers_run_packed_as_their_bias() {
        // an all-zero conv or dense layer passes `check` and is a layer
        // a HENT file can carry: the packed circuit lowers it to its
        // bias, keeps its one rescale and answers like the network
        let rescales = |pipe: &CnnHePipeline| packed_circuit(pipe).op_counts().rescales;
        let mut reference = CnnHePipeline::new(mini_network(117), 1 << 10, 117);
        reference.enable_packed_batching().unwrap();
        for zeroed in [0usize, 2] {
            let mut net = mini_network(117);
            match &mut net.layers[zeroed] {
                HeLayerSpec::Conv(c) => c.weight.fill(0.0),
                HeLayerSpec::Dense(d) => d.weight.fill(0.0),
                HeLayerSpec::Activation(_) => unreachable!("a linear layer"),
            }
            net.check().unwrap();
            let mut pipe = CnnHePipeline::new(net, 1 << 10, 117);
            pipe.enable_packed_batching().unwrap();
            assert_eq!(rescales(&pipe), rescales(&reference), "layer {zeroed}");
            let images = mini_images(3);
            let refs: Vec<&[f32]> = images.iter().map(Vec::as_slice).collect();
            let got = pipe.classify(&refs);
            for (img, logits) in images.iter().zip(&got.logits) {
                let want = pipe.network.infer_plain(img);
                for (g, w) in logits.iter().zip(&want) {
                    assert!((g - w).abs() < 1e-3, "layer {zeroed} zeroed: {g} vs {w}");
                }
            }
        }
    }

    #[test]
    fn a_conv_output_decrypts_through_its_slot_map() {
        // a net whose last linear layer is a tap-form conv: its outputs
        // sit at the anchors plus the channel offsets, not at 0..len
        let mut net = mini_network(118);
        net.layers.truncate(1);
        let mut pipe = CnnHePipeline::new(net, 1 << 10, 118);
        pipe.enable_packed_batching().unwrap();
        let slots = &pipe.packed.as_ref().unwrap().io.output_slots;
        assert_eq!(slots.len(), 18);
        assert!(slots.iter().enumerate().any(|(i, &s)| i != s));
        let images = mini_images(3);
        let refs: Vec<&[f32]> = images.iter().map(Vec::as_slice).collect();
        let got = pipe.classify(&refs);
        for (img, logits) in images.iter().zip(&got.logits) {
            let want = pipe.network.infer_plain(img);
            assert_eq!(logits.len(), want.len());
            for (g, w) in logits.iter().zip(&want) {
                assert!((g - w).abs() < 1e-3, "{g} vs {w}");
            }
        }
    }

    #[test]
    fn validate_batch_reports_on_the_circuit_and_keys_that_run() {
        let mut pipe = CnnHePipeline::new(mini_network(109), 1 << 10, 109);
        pipe.enable_packed_batching().unwrap();
        assert!(!pipe.validate_batch(3).has_errors());
        // drop one Galois element the packed circuit rotates by
        let state = pipe.packed.as_mut().unwrap();
        let circuit = state.prepared.circuit();
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
        assert!(pipe.compiled_stats().is_none());
        assert!(pipe.packed_galois_keys().is_none());
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
        let params = CkksParams::paper(1 << 10, 3);
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

    /// Dense(4→2) over a 2×2 image, then a SLAF with `coeffs`.
    fn dense_then_slaf(in_dim: usize, coeffs: Vec<f64>) -> HeNetwork {
        use crate::he_layers::DenseSpec;
        HeNetwork {
            layers: vec![
                HeLayerSpec::Dense(DenseSpec {
                    weight: vec![0.25; 2 * in_dim],
                    bias: vec![0.1, -0.1],
                    in_dim,
                    out_dim: 2,
                }),
                HeLayerSpec::Activation(coeffs),
            ],
            input_side: 2,
        }
    }

    #[test]
    fn malformed_networks_are_refused_typed_on_both_engines() {
        let slaf = |n: usize| dense_then_slaf(4, [0.1, 0.6, 0.2, 0.05, 0.01][..n].to_vec());
        let bad = [
            (slaf(0), "activation layer 1: 0 coefficient(s)"),
            (slaf(1), "activation layer 1: 1 coefficient(s)"),
            (slaf(5), "activation layer 1: 5 coefficient(s)"),
            (
                dense_then_slaf(5, vec![0.0, 1.0]),
                "dense layer 0: declares input 5 but the previous layer produces 4",
            ),
        ];
        for (net, want) in bad {
            let names: Vec<String> = net.layers.iter().map(HeLayerSpec::name).collect();
            assert!(!names[1].is_empty());
            let img = vec![0.5f32; 4];
            let mut scalar = CnnHePipeline::new(net.clone(), 1 << 11, 114);
            match scalar.try_classify(&[&img]) {
                Err(HeError::PlanRejected { report }) => {
                    assert!(report.contains("malformed-network"), "{report}");
                    assert!(report.contains(want), "{report}");
                }
                other => panic!("scalar: expected PlanRejected, got {other:?}"),
            }
            assert!(scalar.validate().has_code("malformed-network"));
            let mut packed = CnnHePipeline::new(net, 1 << 11, 115);
            match packed.enable_packed_batching() {
                Err(HeError::PlanRejected { report }) => assert!(report.contains(want), "{report}"),
                other => panic!("packed: expected PlanRejected, got {other:?}"),
            }
            assert!(!packed.packed_batching_enabled());
        }
        // the boundaries of 2..=4 coefficients run
        for n in [2, 4] {
            let mut pipe = CnnHePipeline::new(slaf(n), 1 << 11, 116);
            assert!(pipe.try_classify(&[&[0.5f32; 4]]).is_ok());
            pipe.enable_packed_batching().unwrap();
            assert!(pipe.try_classify(&[&[0.5f32; 4]]).is_ok());
        }
    }

    #[test]
    fn packed_batching_refuses_a_chain_shorter_than_the_circuit() {
        let params = CkksParams::paper(1 << 10, 2);
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

    /// One pipeline per engine over the same network: scalar, and
    /// slot-packed.
    fn both_engines(seed: u64) -> [CnnHePipeline; 2] {
        let scalar = CnnHePipeline::new(mini_network(seed), 1 << 10, seed);
        let mut packed = CnnHePipeline::new(mini_network(seed), 1 << 10, seed);
        packed.enable_packed_batching().unwrap();
        [scalar, packed]
    }

    #[test]
    fn untraced_requests_report_one_record_per_region_on_the_circuit() {
        let img = mini_images(1).remove(0);
        for mut pipe in both_engines(102) {
            let got = pipe.try_classify(&[&img]).unwrap();
            let circuit = if pipe.packed_batching_enabled() {
                packed_circuit(&pipe)
            } else {
                pipe.lower_to_ir()
            };
            assert_eq!(got.timing.layers.len(), circuit.regions.len());
            // exit level and scale of every record land on the circuit
            let divergence = crate::trace::ir_cross_check(&got.timing.layers, circuit);
            assert!(divergence.is_empty(), "{}", divergence.join("\n"));
            for l in &got.timing.layers {
                assert!(!l.unit_walls.is_empty(), "{} has no units", l.name);
                assert!(l.headroom_bits > 0.0, "{} spent all headroom", l.name);
            }
        }
    }

    #[test]
    fn traced_infer_refuses_typed_on_both_engines() {
        let short = vec![0.5f32; 10];
        let img = mini_images(1).remove(0);
        for mut pipe in both_engines(104) {
            assert!(matches!(pipe.traced_infer(&[]), Err(HeError::EmptyBatch)));
            assert!(matches!(
                pipe.traced_infer(&[&short]),
                Err(HeError::ShapeMismatch { got: 10, .. })
            ));
            // refusals leave the pipeline tracing
            let (cls, trace) = pipe.traced_infer(&[&img]).unwrap();
            assert_eq!(cls.logits.len(), 1);
            assert!(trace.divergence.is_empty(), "{:?}", trace.divergence);
        }
    }

    #[test]
    fn plan_descriptions_render() {
        let net = mini_network(103);
        let pipe_net = net.clone();
        let pipe = CnnHePipeline::new(pipe_net, 1 << 10, 103);
        let d1 = pipe.execution_plan_description(1);
        assert!(d1.contains("sequential baseline"));
        let d2 = pipe.execution_plan_description(5);
        assert!(d2.contains("k = 5"));
        assert!(d2.contains("CRT reassemble"));
    }

    /// A traced request on `pipe` over `images`, checked against the
    /// circuit that ran: `shards` × its regions records, no divergence,
    /// headroom that never rises within a shard run, each run's spends
    /// summing to its input minus exit headroom, no negative number in
    /// the rendered table, and one table row per record plus the total.
    fn check_trace(
        pipe: &mut CnnHePipeline,
        images: &[&[f32]],
        shards: usize,
    ) -> (Classification, InferenceTrace) {
        let (cls, trace) = pipe.traced_infer(images).unwrap();
        let regions = if pipe.packed_batching_enabled() {
            packed_circuit(pipe).regions.len()
        } else {
            pipe.lower_to_ir().regions.len()
        };
        assert_eq!(trace.layers.len(), shards * regions);
        assert!(
            trace.divergence.is_empty(),
            "runtime diverged from the static plan:\n{}",
            trace.divergence.join("\n")
        );
        let start = trace.start_headroom_bits;
        let spends = crate::exec::spends(&trace.layers, Some(start));
        for (run, spent) in trace.layers.chunks(regions).zip(spends.chunks(regions)) {
            assert!(run.iter().map(|l| l.region).eq(0..regions));
            let mut prev = start;
            for l in run {
                assert!(
                    l.headroom_bits <= prev + 1e-9,
                    "headroom grew at {}: {} > {prev}",
                    l.name,
                    l.headroom_bits
                );
                prev = l.headroom_bits;
            }
            let total: f64 = spent.iter().map(|b| b.unwrap()).sum();
            assert!(
                (total - (start - prev)).abs() < 1e-9,
                "{total} vs {}",
                start - prev
            );
        }
        let input = (trace.start_level, trace.start_scale, start);
        let table = crate::exec::breakdown(&trace.layers, Some(input));
        // no number is negative, not even a spend printed as -0.0
        let negative = table.split_whitespace().find(|t| {
            t.strip_prefix('-')
                .is_some_and(|v| v.parse::<f64>().is_ok())
        });
        assert_eq!(negative, None, "{table}");
        // backend line, header, rule, input, records, rule, total
        assert_eq!(table.lines().count(), 4 + trace.layers.len() + 2, "{table}");
        (cls, trace)
    }

    #[test]
    fn traced_infer_matches_static_plan() {
        let [mut scalar, mut packed] = both_engines(105);
        let img: Vec<f32> = (0..64).map(|i| ((i * 5) % 11) as f32 / 11.0).collect();
        let (cls, trace) = check_trace(&mut scalar, &[&img], 1);
        // classification unaffected by tracing
        let want = scalar.network.infer_plain(&img);
        for (g, w) in cls.logits[0].iter().zip(&want) {
            assert!((g - w).abs() < 2e-2);
        }
        assert_eq!(trace.layers.len(), 5);
        assert_eq!(trace.start_level, scalar.network.required_levels());
        // logits land at level 0 with the input scale (exact-scale
        // discipline end to end)
        let last = trace.layers.last().unwrap();
        assert_eq!(last.level, 0);
        assert!((last.scale.log2() - trace.start_scale.log2()).abs() < 0.1);
        // the packed engine, one image and a batch spilling into 2 shards
        check_trace(&mut packed, &[&img], 1);
        let batch = mini_images(10);
        let refs: Vec<&[f32]> = batch.iter().map(Vec::as_slice).collect();
        check_trace(&mut packed, &refs, 2);
    }

    #[test]
    fn traced_infer_on_a_packed_pipeline_traces_the_packed_circuit() {
        let mut pipe = CnnHePipeline::new(mini_network(108), 1 << 10, 108);
        pipe.enable_packed_batching().unwrap();
        let img = mini_images(1).remove(0);
        let (cls, trace) = pipe.traced_infer(&[&img]).unwrap();
        assert!(
            trace.divergence.is_empty(),
            "{}",
            trace.divergence.join("\n")
        );
        let circuit = packed_circuit(&pipe);
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
        let (_, trace) = pipe.traced_infer(&[&img]).unwrap();
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
