//! The serving engine: admission → bounded queue → micro-batcher →
//! worker pool → response fan-out.
//!
//! ```text
//!  clients          ┌────────────┐   ┌───────────┐    ┌──────────┐
//!  submit() ──lint──► request    │──►│ batcher   │───►│ worker 0 │─┐
//!  submit() ──lint──► queue      │   │ (coalesce │    ├──────────┤ │ fan results
//!  submit() ─X full  │ (bounded) │   │  ≤ max or │───►│ worker 1 │─┼─► back through
//!            Overloaded──────────┘   │  linger)  │    ├──────────┤ │  per-request
//!                                    └───────────┘    │    …     │─┘  responders
//!                                                     └──────────┘
//! ```
//!
//! Robustness invariants:
//! * **Admission** — `start` lints the network against the engine's
//!   parameters at the maximum coalescible batch; `submit` rejects
//!   wrong-shaped images before they enter the queue; a request the
//!   pipeline still refuses inside a worker is answered
//!   [`ServeError::Rejected`] and the worker carries on.
//! * **Backpressure** — the request queue is bounded; a full queue
//!   refuses with [`ServeError::Overloaded`] instead of growing.
//! * **Deadlines** — a request whose deadline expires before or during
//!   its batch gets [`ServeError::DeadlineExceeded`]; it never receives
//!   another request's (or a stale) answer.
//! * **Degradation ladder** — coalesce up to the ceiling; after a batch
//!   overruns a member's deadline, retry batching at half the ceiling
//!   (halving applies once per overrun event, floor 1) and recover
//!   multiplicatively on clean batches; per-request timeout errors are
//!   the floor of the ladder.
//! * **Clean shutdown** — `shutdown` drains: queued requests are still
//!   batched and executed, then workers join; any request dropped on
//!   the floor mid-teardown resolves to [`ServeError::ShuttingDown`]
//!   rather than hanging its client.

use crate::config::{Packing, ServeConfig, EWMA_ALPHA, EXEC_MODE};
use crate::error::ServeError;
use crate::metrics::EngineMetrics;
use crate::queue::{BoundedQueue, Pop, TryPush};
use crate::response::{response_pair, ResponseHandle, ServeResult};
use crate::stats::ServeReport;
use cnn_he::CnnHePipeline;
use he_trace::{cats, OpSnapshot};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poll granularity of the batcher/worker idle loops (shutdown checks).
const TICK: Duration = Duration::from_millis(10);

struct Request {
    /// Engine-assigned id threading this request through the metrics
    /// event log.
    id: u64,
    image: Vec<f32>,
    submitted: Instant,
    deadline: Option<Instant>,
    budget: Option<Duration>,
    responder: crate::response::Responder,
}

/// A coalesced unit of work handed from the batcher to a worker.
struct Batch {
    /// Engine-assigned id tying exec/complete/shed events to their
    /// batch event.
    id: u64,
    requests: Vec<Request>,
}

/// Exponentially-weighted moving average of observed batch walls: the
/// engine's batch cost model. Slot-packed inference costs the same
/// however many slots carry data, so past batch walls predict the next
/// one. `alpha` is the weight of the newest observation (1.0 = only the
/// last batch matters, small values smooth over host jitter).
#[derive(Debug, Clone, Copy)]
struct WallEwma {
    alpha: f64,
    current: Option<f64>,
}

impl WallEwma {
    /// `alpha` must lie in `(0, 1]`.
    fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha out of (0, 1]");
        Self {
            alpha,
            current: None,
        }
    }

    /// Feeds one measured wall-clock into the average.
    fn observe(&mut self, wall: Duration) {
        let w = wall.as_secs_f64();
        self.current = Some(match self.current {
            None => w,
            Some(prev) => self.alpha * w + (1.0 - self.alpha) * prev,
        });
    }

    /// Current estimate; `None` until the first observation.
    fn estimate(&self) -> Option<Duration> {
        self.current.map(Duration::from_secs_f64)
    }
}

struct Shared {
    queue: BoundedQueue<Request>,
    batches: BoundedQueue<Batch>,
    metrics: EngineMetrics,
    /// Current coalescing ceiling (degradation ladder state).
    effective_max_batch: AtomicUsize,
    /// Configured ceiling the ladder recovers toward.
    max_batch_cap: usize,
    ewma: Mutex<WallEwma>,
    max_linger: Duration,
}

impl Shared {
    fn ewma_estimate(&self) -> Option<Duration> {
        self.ewma
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .estimate()
    }

    fn observe_wall(&self, wall: Duration) {
        self.ewma
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .observe(wall);
    }
}

/// A running deadline-aware batched serving engine over
/// [`cnn_he::CnnHePipeline`].
pub struct ServeEngine {
    shared: Arc<Shared>,
    input_len: usize,
    default_deadline: Option<Duration>,
    batcher: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    metrics_server: Option<he_trace::MetricsServer>,
}

impl ServeEngine {
    /// Builds the pipelines (one per worker, via `factory`), runs the
    /// static admission check at the maximum coalescible batch, and
    /// spawns the batcher and worker threads. With
    /// [`Packing::PackedBatch`] each pipeline enables packing here,
    /// which builds its one packed circuit, Galois keys and encoded
    /// operands, so the request path never generates a key. Fails with
    /// [`ServeError::Rejected`] — before any pipeline is built — on a
    /// nonsensical `cfg`, and — carrying the lint summary — when the
    /// network cannot run under the factory's parameters.
    pub fn start<F>(cfg: ServeConfig, factory: F) -> Result<Self, ServeError>
    where
        F: Fn() -> CnnHePipeline + Send + Sync + 'static,
    {
        cfg.validate()?;
        let factory = Arc::new(factory);
        let mut first = factory();
        first.set_exec_mode(EXEC_MODE);
        if cfg.packing == Packing::PackedBatch {
            // typed refusal (BatchExceedsSlots → Rejected) when the
            // packed dimension does not fit the ring; after this,
            // max_batch() is one shard's lane capacity, so the
            // coalescing ceiling is exactly one packed ciphertext
            first.enable_packed_batching()?;
        }
        let max_batch_cap = cfg.max_batch.min(first.max_batch()).max(1);
        let admission = first.validate_batch(max_batch_cap);
        if admission.has_errors() {
            return Err(ServeError::Rejected {
                reason: admission.summary(),
            });
        }
        let input_len = first.input_len();

        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(cfg.queue_capacity),
            // small batch buffer: pressure propagates back to the
            // request queue instead of piling up unexecuted batches
            batches: BoundedQueue::new(cfg.workers * 2),
            metrics: EngineMetrics::new(&cfg, max_batch_cap),
            effective_max_batch: AtomicUsize::new(max_batch_cap),
            max_batch_cap,
            ewma: Mutex::new(WallEwma::new(EWMA_ALPHA)),
            max_linger: cfg.max_linger,
        });

        // bind the /metrics endpoint before any thread spawns, so a
        // failed bind aborts start-up cleanly instead of leaking
        // workers behind an error return
        let metrics_server = match cfg.metrics_addr {
            Some(addr) => Some(shared.metrics.start_server(addr).map_err(|e| {
                ServeError::MetricsUnavailable {
                    reason: format!("bind {addr}: {e}"),
                }
            })?),
            None => None,
        };

        let batcher = {
            let sh = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("he-serve-batcher".into())
                .spawn(move || batcher_loop(&sh))
                .expect("spawn batcher")
        };

        let mut workers = Vec::with_capacity(cfg.workers);
        let mut first = Some(first);
        for w in 0..cfg.workers {
            let sh = Arc::clone(&shared);
            let factory = Arc::clone(&factory);
            let packing = cfg.packing;
            let seeded = first.take();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("he-serve-worker-{w}"))
                    .spawn(move || {
                        let mut pipe = seeded.unwrap_or_else(|| {
                            let mut p = factory();
                            p.set_exec_mode(EXEC_MODE);
                            if packing == Packing::PackedBatch {
                                // the identically-parameterized first
                                // pipeline already passed this at start
                                p.enable_packed_batching()
                                    .expect("packed batching passed admission");
                            }
                            p
                        });
                        worker_loop(&sh, &mut pipe);
                    })
                    .expect("spawn worker"),
            );
        }

        Ok(Self {
            shared,
            input_len,
            default_deadline: cfg.default_deadline,
            batcher: Some(batcher),
            workers,
            metrics_server,
        })
    }

    /// Submits one image under the configured default deadline.
    pub fn submit(&self, image: Vec<f32>) -> Result<ResponseHandle, ServeError> {
        self.submit_with_deadline(image, self.default_deadline)
    }

    /// Submits one image with an explicit deadline budget (measured
    /// from now). Fails fast — without entering the queue — on shape
    /// mismatch ([`ServeError::Rejected`]), a full queue
    /// ([`ServeError::Overloaded`]) or a closed engine
    /// ([`ServeError::ShuttingDown`]).
    pub fn submit_with_deadline(
        &self,
        image: Vec<f32>,
        budget: Option<Duration>,
    ) -> Result<ResponseHandle, ServeError> {
        let _span = he_trace::span("enqueue", cats::SERVE);
        let id = self.shared.metrics.on_submit();
        if image.len() != self.input_len {
            self.shared.metrics.on_rejected(1);
            return Err(ServeError::Rejected {
                reason: format!(
                    "image has {} pixels, network expects {}",
                    image.len(),
                    self.input_len
                ),
            });
        }
        let now = Instant::now();
        let (handle, responder) = response_pair();
        let request = Request {
            id,
            image,
            submitted: now,
            deadline: budget.map(|b| now + b),
            budget,
            responder,
        };
        match self.shared.queue.try_push(request) {
            TryPush::Ok => {
                self.shared
                    .metrics
                    .on_enqueue(id, budget, self.shared.queue.len());
                Ok(handle)
            }
            TryPush::Full(_refused) => {
                self.shared.metrics.on_overloaded();
                Err(ServeError::Overloaded {
                    capacity: self.shared.queue.capacity(),
                })
            }
            TryPush::Closed(_refused) => Err(ServeError::ShuttingDown),
        }
    }

    /// Convenience: submit and block for the result.
    pub fn classify_blocking(&self, image: Vec<f32>) -> Result<ServeResult, ServeError> {
        self.submit(image)?.wait()
    }

    /// Requests currently waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// Current coalescing ceiling (the degradation ladder's state).
    pub fn effective_max_batch(&self) -> usize {
        self.shared.effective_max_batch.load(Ordering::Relaxed)
    }

    /// Socket address the live `/metrics` endpoint is bound to, when
    /// [`ServeConfig::metrics_addr`] asked for one (lets callers
    /// recover the port after binding `127.0.0.1:0`).
    #[must_use]
    pub fn metrics_addr(&self) -> Option<std::net::SocketAddr> {
        self.metrics_server
            .as_ref()
            .map(he_trace::MetricsServer::local_addr)
    }

    /// The per-request event log as JSONL, one event per line in
    /// arrival order (empty with [`ServeConfig::event_log_capacity`] =
    /// 0).
    #[must_use]
    pub fn events_jsonl(&self) -> String {
        self.shared.metrics.events_jsonl()
    }

    /// Events evicted from the bounded event-log ring so far.
    #[must_use]
    pub fn events_dropped(&self) -> u64 {
        self.shared.metrics.events_dropped()
    }

    /// Point-in-time serving metrics: a snapshot of this engine's
    /// registry, so it counts this engine's traffic and nothing else.
    pub fn report(&self) -> ServeReport {
        self.shared
            .metrics
            .report(self.queue_depth(), self.effective_max_batch())
    }

    /// Stops accepting requests, drains everything already queued
    /// through the batcher and workers, joins all threads, and returns
    /// the final report.
    pub fn shutdown(mut self) -> ServeReport {
        self.shutdown_inner();
        self.report()
    }

    fn shutdown_inner(&mut self) {
        let _span = he_trace::span("drain", cats::SERVE);
        self.shared.queue.close();
        if let Some(b) = self.batcher.take() {
            let _ = b.join();
        }
        self.shared.batches.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn batcher_loop(shared: &Shared) {
    loop {
        match shared.queue.pop_timeout(TICK) {
            Pop::TimedOut => continue,
            // closed AND drained — every queued request has been batched
            Pop::Closed => return,
            Pop::Item(first) => {
                let opened = Instant::now();
                let batch = coalesce(shared, first);
                dispatch(shared, batch, opened.elapsed());
            }
        }
    }
}

/// Collects co-passengers for `first` until the coalescing ceiling is
/// reached, the linger window closes, or — deadline-aware — the
/// tightest member's budget leaves no slack for further waiting (its
/// latest viable start time is `deadline − estimated batch wall`).
fn coalesce(shared: &Shared, first: Request) -> Vec<Request> {
    let _span = he_trace::span("coalesce", cats::SERVE);
    let mut batch = vec![first];
    let linger_end = Instant::now() + shared.max_linger;
    loop {
        let ceiling = shared.effective_max_batch.load(Ordering::Relaxed);
        if batch.len() >= ceiling {
            break;
        }
        let est = shared.ewma_estimate().unwrap_or(Duration::ZERO);
        let mut cutoff = linger_end;
        if let Some(tightest) = batch.iter().filter_map(|r| r.deadline).min() {
            let latest_start = tightest.checked_sub(est).unwrap_or_else(Instant::now);
            cutoff = cutoff.min(latest_start);
        }
        let now = Instant::now();
        if cutoff <= now {
            break;
        }
        match shared.queue.pop_timeout(cutoff - now) {
            Pop::Item(r) => batch.push(r),
            Pop::TimedOut | Pop::Closed => break,
        }
    }
    batch
}

fn dispatch(shared: &Shared, requests: Vec<Request>, linger: Duration) {
    let now = Instant::now();
    let waits: Vec<Duration> = requests
        .iter()
        .map(|r| now.duration_since(r.submitted))
        .collect();
    let id = shared
        .metrics
        .on_batch(requests.len(), linger, &waits, shared.queue.len());
    // a refused push (engine tearing down without drain) drops the
    // batch; each responder resolves its client with ShuttingDown
    let _ = shared.batches.push_wait(Batch { id, requests });
}

fn worker_loop(shared: &Shared, pipe: &mut CnnHePipeline) {
    loop {
        match shared.batches.pop_timeout(TICK) {
            Pop::TimedOut => continue,
            Pop::Closed => return,
            Pop::Item(batch) => execute_batch(shared, pipe, batch),
        }
    }
}

fn respond_timeout(shared: &Shared, request: Request, at: Instant, batch: Option<u64>) {
    let waited = at.duration_since(request.submitted);
    let late_by = request.deadline.map(|d| at.saturating_duration_since(d));
    shared.metrics.on_shed(request.id, batch, waited, late_by);
    request.responder.send(Err(ServeError::DeadlineExceeded {
        deadline: request.budget.unwrap_or_default(),
        waited,
    }));
}

fn execute_batch(shared: &Shared, pipe: &mut CnnHePipeline, batch: Batch) {
    let _span = he_trace::span("batch_execute", cats::SERVE);
    let Batch { id, requests } = batch;
    // 1. shed already-expired requests without spending HE work
    let now = Instant::now();
    let mut live = Vec::with_capacity(requests.len());
    for r in requests {
        match r.deadline {
            Some(d) if d <= now => respond_timeout(shared, r, now, Some(id)),
            _ => live.push(r),
        }
    }
    if live.is_empty() {
        return;
    }

    // 2. one slot-packed encrypted run for the whole batch
    let images: Vec<&[f32]> = live.iter().map(|r| r.image.as_slice()).collect();
    let ops_before = OpSnapshot::now();
    let t0 = Instant::now();
    let cls = match pipe.try_classify(&images) {
        Ok(cls) => cls,
        // the whole batch shares one circuit run: refuse every member
        // typed and keep the worker alive for the next batch
        Err(e) => {
            shared.metrics.on_rejected(live.len() as u64);
            for r in live {
                r.responder.send(Err(e.clone().into()));
            }
            return;
        }
    };
    let wall = t0.elapsed();
    shared.observe_wall(wall);
    let n = live.len();
    let amortized = wall / u32::try_from(n).unwrap_or(u32::MAX);
    let ops = OpSnapshot::now().delta(&ops_before);
    shared.metrics.on_exec(id, n, wall, amortized, &ops);

    // 3. fan results back through each request's own responder
    let end = Instant::now();
    let mut overran = false;
    for (i, r) in live.into_iter().enumerate() {
        if let Some(d) = r.deadline {
            if d < end {
                // completed too late: typed timeout, never a stale answer
                overran = true;
                respond_timeout(shared, r, end, Some(id));
                continue;
            }
        }
        let latency = end.duration_since(r.submitted);
        let slack = r.deadline.map(|d| d.duration_since(end));
        shared.metrics.on_complete(r.id, id, slack, latency);
        r.responder.send(Ok(ServeResult {
            logits: cls.logits[i].clone(),
            prediction: cls.predictions[i],
            batch_size: n,
            request_latency: latency,
            batch_wall: wall,
            amortized,
        }));
    }

    // 4. degradation ladder
    adjust_ceiling(shared, overran);
}

/// After an overrun, retry batching at half the ceiling (once per
/// overrun event, floor 1); clean batches recover multiplicatively
/// toward the configured cap.
fn adjust_ceiling(shared: &Shared, overran: bool) {
    if overran {
        let cur = shared.effective_max_batch.load(Ordering::Relaxed);
        if cur > 1 {
            let next = (cur / 2).max(1);
            shared.effective_max_batch.store(next, Ordering::Relaxed);
            shared.metrics.on_ladder(next, true);
        }
    } else {
        let cur = shared.effective_max_batch.load(Ordering::Relaxed);
        if cur < shared.max_batch_cap {
            let next = (cur * 2).min(shared.max_batch_cap);
            shared.effective_max_batch.store(next, Ordering::Relaxed);
            shared.metrics.on_ladder(next, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnn_he::he_layers::{ConvSpec, DenseSpec};
    use cnn_he::network::HeLayerSpec;
    use cnn_he::HeNetwork;
    use rand::{Rng, SeedableRng};

    /// The miniature CNN1-shaped network used across cnn-he's tests:
    /// small enough for a 2^10 toy ring.
    fn mini_network(seed: u64) -> HeNetwork {
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
        };
        let dense = DenseSpec {
            weight: w(18 * 4),
            bias: w(4),
            in_dim: 18,
            out_dim: 4,
        };
        HeNetwork {
            layers: vec![
                HeLayerSpec::Conv(conv),
                HeLayerSpec::Activation(vec![0.1, 0.6, 0.2, 0.05]),
                HeLayerSpec::Dense(dense),
            ],
            input_side: 8,
        }
    }

    fn engine(cfg: ServeConfig, seed: u64) -> ServeEngine {
        ServeEngine::start(cfg, move || {
            CnnHePipeline::new(mini_network(seed), 1 << 10, seed)
        })
        .expect("engine starts")
    }

    fn image(bias: f32) -> Vec<f32> {
        (0..64)
            .map(|i| ((i % 9) as f32 / 9.0 + bias) % 1.0)
            .collect()
    }

    #[test]
    fn round_trip_smoke() {
        let eng = engine(ServeConfig::default(), 41);
        let res = eng.classify_blocking(image(0.0)).expect("served");
        assert_eq!(res.logits.len(), 4);
        assert!(res.batch_size >= 1);
        assert!(res.amortized <= res.batch_wall);
        let report = eng.shutdown();
        assert_eq!(report.completed, 1);
        assert_eq!(report.batches, 1);
        // bounded summaries keep exact counts: one latency sample per
        // completed request, no sampling or truncation
        let latency = report.request_latency.expect("latency recorded");
        assert!(latency.min <= latency.max, "{latency:?}");
        let qw = report.queue_wait.expect("queue wait recorded");
        assert!(qw.p95 >= 0.0 && qw.p95 < 60.0, "{qw:?}");
    }

    #[test]
    fn reports_are_per_engine_and_add_up() {
        // two engines serving concurrently in one process: each report
        // counts its own traffic only, and at quiescence every
        // submission has exactly one outcome
        let a = engine(ServeConfig::default(), 48);
        let b = engine(ServeConfig::default(), 49);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..3 {
                    a.classify_blocking(image(i as f32 * 0.1)).expect("served");
                }
            });
            s.spawn(|| {
                let doomed = b.submit_with_deadline(image(0.4), Some(Duration::from_nanos(1)));
                let shed = doomed.expect("queued").wait();
                assert!(matches!(shed, Err(ServeError::DeadlineExceeded { .. })));
                assert!(b.submit(vec![0.5; 10]).is_err());
                b.classify_blocking(image(0.5)).expect("served");
            });
        });
        // (submitted, completed, rejected, timed out, batches)
        for (eng, want) in [(&a, (3, 3, 0, 0, 3)), (&b, (3, 1, 1, 1, 2))] {
            let r = eng.report();
            let got = (r.submitted, r.completed, r.rejected, r.timed_out, r.batches);
            assert_eq!(got, want, "{r}");
            assert_eq!(r.overloaded, 0);
            assert_eq!(
                r.submitted,
                r.completed + r.rejected + r.overloaded + r.timed_out
            );
            assert_eq!(r.batched_images, r.batches, "one image per batch");
            let expo = he_trace::expo::parse(&eng.shared.metrics.render()).unwrap();
            assert_eq!(
                expo.value("he_serve_request_latency_seconds_count", &[]),
                Some(r.completed as f64),
                "one latency sample per completed request"
            );
        }
    }

    #[test]
    fn packed_batching_round_trip_matches_scalar_engine() {
        let cfg = ServeConfig {
            packing: Packing::PackedBatch,
            max_linger: Duration::from_millis(120),
            ..Default::default()
        };
        let eng = engine(cfg, 45);
        // the mini net packs to dim 64 on a 2^10 ring (512 slots):
        // the coalescing ceiling must clamp to the 8-lane capacity
        assert_eq!(eng.effective_max_batch(), 8);
        let handles: Vec<_> = (0..3)
            .map(|i| eng.submit(image(i as f32 * 0.1)).expect("queued"))
            .collect();
        let packed: Vec<ServeResult> = handles
            .into_iter()
            .map(|h| h.wait().expect("served"))
            .collect();
        // the same requests through a scalar-engine reference
        let reference = engine(ServeConfig::default(), 45);
        for (i, r) in packed.iter().enumerate() {
            assert_eq!(r.logits.len(), 4);
            let scalar = reference
                .classify_blocking(image(i as f32 * 0.1))
                .expect("served");
            assert_eq!(r.prediction, scalar.prediction);
            for (a, b) in r.logits.iter().zip(&scalar.logits) {
                assert!((a - b).abs() < 0.02, "lane {i}: {a} vs {b}");
            }
        }
        let report = eng.shutdown();
        assert_eq!(report.completed, 3);
        reference.shutdown();
    }

    #[test]
    fn packed_batching_rejected_when_dim_exceeds_slots() {
        // a 2^6 ring has 32 slots; the mini net packs to dim 64, so
        // enabling packed batching must refuse with the typed reason
        let cfg = ServeConfig {
            packing: Packing::PackedBatch,
            ..Default::default()
        };
        let err = ServeEngine::start(cfg, || {
            let params = ckks::CkksParams::paper(1 << 6, 3);
            CnnHePipeline::with_params(mini_network(46), params, 46)
        })
        .err()
        .expect("start must fail admission");
        match err {
            ServeError::Rejected { reason } => {
                assert!(reason.contains("slot capacity"), "{reason}");
            }
            other => panic!("expected Rejected, got {other}"),
        }
    }

    #[test]
    fn malformed_network_is_refused_at_start_on_both_packings() {
        // a five-coefficient SLAF: no lowering takes it
        for packing in [Packing::Scalar, Packing::PackedBatch] {
            let cfg = ServeConfig {
                packing,
                ..Default::default()
            };
            let err = ServeEngine::start(cfg, || {
                let mut net = mini_network(50);
                net.layers[1] = HeLayerSpec::Activation(vec![0.1, 0.6, 0.2, 0.05, 0.01]);
                CnnHePipeline::new(net, 1 << 10, 50)
            })
            .err()
            .expect("start must refuse the network");
            match err {
                ServeError::Rejected { reason } => {
                    assert!(reason.contains("activation layer 1"), "{reason}");
                }
                other => panic!("{packing:?}: expected Rejected, got {other}"),
            }
        }
    }

    #[test]
    fn misshapen_image_inside_a_batch_is_rejected_and_the_worker_survives() {
        let cfg = ServeConfig {
            packing: Packing::PackedBatch,
            max_linger: Duration::from_millis(120),
            ..Default::default()
        };
        let eng = engine(cfg, 47);
        // slip a wrong-length image past `submit`'s shape check, as a
        // caller racing a model swap would, next to a well-formed one
        let push = |image: Vec<f32>| {
            let (handle, responder) = response_pair();
            let request = Request {
                id: 0,
                image,
                submitted: Instant::now(),
                deadline: None,
                budget: None,
                responder,
            };
            assert!(matches!(eng.shared.queue.try_push(request), TryPush::Ok));
            handle
        };
        let (bad, good) = (push(vec![0.5f32; 10]), push(image(0.2)));
        for handle in [bad, good] {
            match handle.wait() {
                Err(ServeError::Rejected { reason }) => {
                    assert!(reason.contains("image length"), "{reason}");
                }
                other => panic!("expected Rejected, got {other:?}"),
            }
        }
        // the worker is still there for the next request
        let res = eng.classify_blocking(image(0.2)).expect("served");
        assert_eq!(res.logits.len(), 4);
        let report = eng.shutdown();
        assert_eq!((report.rejected, report.completed), (2, 1));
    }

    #[test]
    fn wrong_image_shape_rejected_at_admission() {
        let eng = engine(ServeConfig::default(), 42);
        let err = eng.submit(vec![0.5f32; 10]).unwrap_err();
        match err {
            ServeError::Rejected { reason } => {
                assert!(reason.contains("10 pixels"), "{reason}");
                assert!(reason.contains("64"), "{reason}");
            }
            other => panic!("expected Rejected, got {other}"),
        }
        let report = eng.shutdown();
        assert_eq!(report.rejected, 1);
        assert_eq!(report.completed, 0);
    }

    #[test]
    fn start_fails_admission_on_too_shallow_chain() {
        // a 1-level chain cannot run the 3-level mini network: start()
        // must refuse with the lint summary, not panic mid-request
        let err = ServeEngine::start(ServeConfig::default(), || {
            let params = ckks_params_too_shallow();
            CnnHePipeline::with_params(mini_network(43), params, 43)
        })
        .err()
        .expect("start must fail admission");
        match err {
            ServeError::Rejected { reason } => {
                assert!(reason.contains("error"), "{reason}");
            }
            other => panic!("expected Rejected, got {other}"),
        }
    }

    fn ckks_params_too_shallow() -> ckks::CkksParams {
        ckks::CkksParams::paper(1 << 10, 1)
    }

    #[test]
    fn submit_after_shutdown_reports_shutting_down() {
        let eng = engine(ServeConfig::default(), 44);
        // close the intake while keeping the engine value alive
        eng.shared.queue.close();
        let err = eng.submit(image(0.1)).unwrap_err();
        assert_eq!(err, ServeError::ShuttingDown);
    }

    #[test]
    fn ceiling_adjustment_halves_and_recovers() {
        let shared = Shared {
            queue: BoundedQueue::new(1),
            batches: BoundedQueue::new(1),
            metrics: EngineMetrics::new(&ServeConfig::default(), 8),
            effective_max_batch: AtomicUsize::new(8),
            max_batch_cap: 8,
            ewma: Mutex::new(WallEwma::new(0.5)),
            max_linger: Duration::ZERO,
        };
        adjust_ceiling(&shared, true);
        assert_eq!(shared.effective_max_batch.load(Ordering::Relaxed), 4);
        adjust_ceiling(&shared, true);
        assert_eq!(shared.effective_max_batch.load(Ordering::Relaxed), 2);
        adjust_ceiling(&shared, false);
        assert_eq!(shared.effective_max_batch.load(Ordering::Relaxed), 4);
        adjust_ceiling(&shared, false);
        assert_eq!(shared.effective_max_batch.load(Ordering::Relaxed), 8);
        adjust_ceiling(&shared, false);
        assert_eq!(shared.effective_max_batch.load(Ordering::Relaxed), 8);
        // floor at 1
        for _ in 0..5 {
            adjust_ceiling(&shared, true);
        }
        assert_eq!(shared.effective_max_batch.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn ewma_tracks_observations() {
        let ms = Duration::from_millis;
        let mut e = WallEwma::new(0.5);
        assert_eq!(e.estimate(), None);
        e.observe(ms(100));
        assert_eq!(e.estimate(), Some(ms(100)));
        e.observe(ms(200));
        // 0.5·200 + 0.5·100 = 150
        let est = e.estimate().unwrap();
        assert!((est.as_secs_f64() - 0.150).abs() < 1e-9);
        // alpha = 1 tracks the last observation exactly
        let mut last_only = WallEwma::new(1.0);
        last_only.observe(ms(70));
        last_only.observe(ms(30));
        assert_eq!(last_only.estimate(), Some(ms(30)));
    }

    #[test]
    #[should_panic(expected = "alpha out of")]
    fn ewma_rejects_zero_alpha() {
        let _ = WallEwma::new(0.0);
    }
}
