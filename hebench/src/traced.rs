//! The traced run: the same workload re-driven piece by piece, with a
//! span and an op-counter reading at every layer boundary. It yields
//! the per-layer metrics and `trace-<workload>.json`; end-to-end metrics
//! never come from here.
//!
//! Spans are recorded by the benchmark, around its calls into each
//! layer; the program's own spans stay off.

use crate::adapter::json::Value;
use crate::adapter::{Direct, Ops, Pieces};
use crate::report::{self, obj, text, Metrics, PER_LAYER};
use crate::stats;
use crate::workloads::{self, Kind, Pool, Ready, ServeObs, Tally, Workload};
use std::path::Path;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Shared by every span of one request.
    pub request: u64,
    /// The crate the time belongs to (`request` for the root).
    pub layer: &'static str,
    pub name: String,
    pub start_us: f64,
    pub dur_us: f64,
    /// Op counters that moved inside the span, where they were read.
    pub ops: Vec<(&'static str, u64)>,
}

/// Spans kept in memory until the run ends.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    pub fn open(
        &mut self,
        parent: Option<SpanId>,
        request: u64,
        layer: &'static str,
        name: &str,
    ) -> SpanId {
        let start_us = self.now_us();
        self.add(parent, request, layer, name, start_us, 0.0)
    }

    /// Ends a span now; returns its duration in seconds.
    pub fn close(&mut self, id: SpanId, ops: Option<Ops>) -> f64 {
        let now = self.now_us();
        let span = &mut self.spans[id];
        span.dur_us = now - span.start_us;
        span.ops = ops.map_or_else(Vec::new, |o| {
            o.named().into_iter().filter(|(_, v)| *v > 0).collect()
        });
        span.dur_us / 1e6
    }

    /// A span whose interval was measured elsewhere (by the program, or
    /// by he-serve's own clocks) and is placed on this tracer's axis.
    pub fn add(
        &mut self,
        parent: Option<SpanId>,
        request: u64,
        layer: &'static str,
        name: &str,
        start_us: f64,
        dur_us: f64,
    ) -> SpanId {
        self.spans.push(Span {
            parent,
            request,
            layer,
            name: name.to_string(),
            start_us,
            dur_us,
            ops: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// A span's duration minus the part its child spans cover.
    pub fn self_us(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.dur_us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur_us;
            }
        }
        own
    }

    fn to_json(&self, workload: &str, seed: u64) -> String {
        let own = self.self_us();
        let spans: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let ops = s
                    .ops
                    .iter()
                    .map(|(k, v)| ((*k).to_string(), Value::Num(*v as f64)))
                    .collect();
                report::to_json(&obj(vec![
                    ("id", Value::Num(id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                    ("request", Value::Num(s.request as f64)),
                    ("layer", text(s.layer)),
                    ("name", text(&s.name)),
                    ("start_us", Value::Num(s.start_us)),
                    ("dur_us", Value::Num(s.dur_us)),
                    ("self_us", Value::Num(own[id])),
                    ("ops", Value::Obj(ops)),
                ]))
            })
            .collect();
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [\n{}\n]}}\n",
            spans.join(",\n")
        )
    }
}

/// What one re-driven request cost, layer by layer.
struct Rec {
    total_s: f64,
    encrypt_s: f64,
    infer_s: f64,
    decrypt_s: f64,
    ops: Ops,
    infer_ops: Ops,
    /// Sequential child steps of `infer`: regions or interpreter runs.
    steps: Vec<(String, f64)>,
}

/// request → encrypt / infer / decrypt → region or shard.
fn traced_request(
    pieces: &mut Pieces,
    pool: &Pool,
    first: usize,
    batch: usize,
    request: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<Rec, String> {
    let refs: Vec<&[f32]> = (first..first + batch).map(|i| pool.image(i)).collect();
    let root = tracer.open(None, request, "request", "request");
    let ops0 = Ops::now();

    let span = tracer.open(Some(root), request, "cnn-he", "encrypt");
    let x = pieces.encrypt(&refs)?;
    let encrypt_s = tracer.close(span, Some(Ops::since(&ops0)));

    let infer_ops0 = Ops::now();
    let span = tracer.open(Some(root), request, "cnn-he", "infer");
    let (y, steps) = pieces.infer(x)?;
    let infer_ops = Ops::since(&infer_ops0);
    let infer_s = tracer.close(span, Some(infer_ops));
    // the steps ran back to back inside `infer`; their walls were taken
    // there, so their starts are laid out from the span's own start
    let mut at = tracer.spans[span].start_us;
    for (name, wall_s) in &steps {
        tracer.add(
            Some(span),
            request,
            pieces.step_layer(),
            name,
            at,
            wall_s * 1e6,
        );
        at += wall_s * 1e6;
    }

    let decrypt_ops0 = Ops::now();
    let span = tracer.open(Some(root), request, "cnn-he", "decrypt");
    let logits = pieces.decrypt(&y, batch)?;
    let decrypt_s = tracer.close(span, Some(Ops::since(&decrypt_ops0)));

    let ops = Ops::since(&ops0);
    let total_s = tracer.close(root, Some(ops));
    if logits.len() == batch {
        for (k, row) in logits.iter().enumerate() {
            tally.answered(pool.error(first + k, row), None);
        }
    } else {
        tally.unanswered("short_answer", batch as u64);
    }
    Ok(Rec {
        total_s,
        encrypt_s,
        infer_s,
        decrypt_s,
        ops,
        infer_ops,
        steps,
    })
}

/// he-serve seen from outside: one request span per answer, split into
/// the wait (queue + linger) and the batch that carried it.
fn serve_spans(obs: &ServeObs, phase_start_us: f64, tracer: &mut Tracer) {
    for a in &obs.answered {
        let request = a.request as u64;
        let us = |s: f64| phase_start_us + s * 1e6;
        let root = tracer.add(
            None,
            request,
            "request",
            "request",
            us(a.start_s),
            a.latency_s() * 1e6,
        );
        if a.submitted_s > a.start_s {
            let late = (a.submitted_s - a.start_s) * 1e6;
            tracer.add(
                Some(root),
                request,
                "generator",
                "late submit",
                us(a.start_s),
                late,
            );
        }
        let wait = a.queue_wait_s() * 1e6;
        tracer.add(
            Some(root),
            request,
            "he-serve",
            "queue + linger",
            us(a.submitted_s),
            wait,
        );
        let name = format!("batch of {}", a.batch_size);
        tracer.add(
            Some(root),
            request,
            "he-serve",
            &name,
            us(a.end_s() - a.batch_wall_s),
            a.batch_wall_s * 1e6,
        );
    }
}

pub struct Traced {
    pub tally: Tally,
    pub metrics: Metrics,
    /// Every answer matched the oracle and the op counts repeated.
    pub correct: bool,
    pub notes: Vec<String>,
    pub inputs_hash: u64,
    pub traced_requests: usize,
}

pub fn run(w: &Workload, seed: u64, seconds: f64, out: &Path) -> Result<Traced, String> {
    let wall0 = Instant::now();
    let net = w.net.network();
    let n = w.net.ring_degree();
    let pool = Pool::new(w, &net, seed);
    let serving = !matches!(w.kind, Kind::Direct { .. });
    // a he-serve workload spends half the run on the engine and half on
    // re-driving one full batch
    let serve_seconds = if serving { seconds / 2.0 } else { 0.0 };
    let due = workloads::schedule(w, seed, serve_seconds);
    let inputs_hash = crate::inputs::load_hash(&pool.images, &due);

    let mut tally = Tally::default();
    let mut tracer = Tracer::new();
    let mut notes = Vec::new();
    let mut m: Metrics = PER_LAYER.iter().map(|d| (d.name, 0.0)).collect();

    if serving {
        let Ready::Serve(s) = workloads::set_up(w, &net, &pool, &mut tally)? else {
            return Err("set-up built the wrong kind of system".into());
        };
        let mut obs = ServeObs::default();
        let phase_start_us = tracer.now_us();
        let t0 = Instant::now();
        workloads::serve_phase(w, &s, &pool, &due, serve_seconds, &mut tally, &mut obs);
        let phase_wall_s = t0.elapsed().as_secs_f64();
        let totals = s.shutdown();
        serve_spans(&obs, phase_start_us, &mut tracer);

        let waits: Vec<f64> = obs.answered.iter().map(|a| a.queue_wait_s()).collect();
        let latency_sum: f64 = obs.answered.iter().map(|a| a.engine_latency_s).sum();
        let walls = obs.batch_walls();
        m.insert("queue_wait_p50_s", stats::median(&waits));
        m.insert("queue_wait_p95_s", stats::percentile(&waits, 95.0));
        m.insert(
            "queue_wait_share",
            waits.iter().sum::<f64>() / latency_sum.max(f64::MIN_POSITIVE),
        );
        m.insert("batch_wall_s", stats::median(&walls));
        m.insert(
            "mean_batch",
            obs.answered.len() as f64 / walls.len().max(1) as f64,
        );
        m.insert("busy_share", walls.iter().sum::<f64>() / phase_wall_s);
        m.insert("refused", obs.refused as f64);
        m.insert("generator_late_max_s", obs.late_max_s());
        notes.push(format!(
            "he-serve {}: sent {} succeeded {} refused {} (rejected {} overloaded {} timed_out {}) in {:.3} s",
            w.loop_kind(),
            obs.answered.len() as u64 + obs.refused,
            obs.answered.len(),
            obs.refused,
            totals.rejected,
            totals.overloaded,
            totals.timed_out,
            phase_wall_s
        ));
        let histogram: Vec<String> = obs
            .batch_histogram()
            .iter()
            .map(|(size, batches)| format!("{size}:{batches}"))
            .collect();
        notes.push(format!(
            "he-serve batch sizes (size:batches) {}",
            histogram.join(" ")
        ));
    }

    // the workload's classify call, whole (untraced) and piece by piece
    let (engine, batch) = w.shape();
    let mut direct = Direct::build(net.clone(), n, 7, engine)?;
    let mut pieces = Pieces::build(net, n, 7, engine, batch)?;
    let regions = workloads::direct_request(&mut direct, &pool, 0, batch, false, &mut tally);
    traced_request(
        &mut pieces,
        &pool,
        0,
        batch,
        0,
        &mut Tracer::new(),
        &mut tally,
    )?;
    // from here the tally's latencies are the untraced classify calls'
    tally.latencies.clear();
    let mut recs: Vec<Rec> = Vec::new();
    let t0 = Instant::now();
    // the engine's request ids are pool indices; keep these apart
    let mut request = 1_000_000;
    while t0.elapsed().as_secs_f64() < seconds - serve_seconds || recs.len() < 2 {
        let first = recs.len() * batch;
        workloads::direct_request(&mut direct, &pool, first, batch, true, &mut tally);
        recs.push(traced_request(
            &mut pieces,
            &pool,
            first,
            batch,
            request,
            &mut tracer,
            &mut tally,
        )?);
        request += 1;
    }

    let median_of = |f: fn(&Rec) -> f64| stats::median(&recs.iter().map(f).collect::<Vec<f64>>());
    let ops = recs[0].ops;
    let counts_repeat = recs.iter().all(|r| r.ops == ops);
    if !counts_repeat {
        notes.push(
            "op counts differed between re-driven requests: counts below are the first request's"
                .into(),
        );
    }
    for name in [
        "ntt_fwd",
        "ntt_inv",
        "modmul_limbs",
        "scalar_macs",
        "rotations",
        "keyswitches",
        "relins",
        "rescales",
        "ct_mults",
    ] {
        m.insert(name, ops.get(name) as f64);
    }
    let infer_s = median_of(|r| r.infer_s);
    m.insert("encrypt_s", median_of(|r| r.encrypt_s));
    m.insert("infer_s", infer_s);
    m.insert("decrypt_s", median_of(|r| r.decrypt_s));
    m.insert(
        "region_max_s",
        median_of(|r| r.steps.iter().map(|s| s.1).fold(0.0, f64::max)),
    );
    m.insert("shards", pieces.shards as f64);
    m.insert("stride", pieces.stride as f64);
    m.insert("keygen_s", pieces.setup.keygen_s);
    m.insert("galois_keygen_s", pieces.setup.galois_keygen_s);
    m.insert("precompute_s", pieces.setup.precompute_s);
    m.insert("lower_s", pieces.setup.lower_s);
    m.insert("optimize_s", pieces.setup.optimize_s);
    let ir = pieces.ir;
    m.insert("nodes_eager", ir.nodes_eager as f64);
    m.insert("nodes_compiled", ir.nodes_compiled as f64);
    m.insert("ir_rotations_eager", ir.rotations_eager as f64);
    m.insert("ir_rotations_compiled", ir.rotations_compiled as f64);
    m.insert("ir_he_ops_eager", ir.he_ops_eager as f64);
    m.insert("ir_he_ops_compiled", ir.he_ops_compiled as f64);
    m.insert("plain_encodes_per_run", ir.plain_encodes_per_run as f64);
    if pieces.step_layer() == "he-ir" {
        let runs: Vec<f64> = recs
            .iter()
            .flat_map(|r| r.steps.iter().map(|s| s.1))
            .collect();
        m.insert("interp_run_s", stats::median(&runs));
    }
    let whole_s = stats::median(&tally.latencies);
    m.insert(
        "trace_overhead_share",
        median_of(|r| r.total_s) / whole_s - 1.0,
    );
    for (name, wall_s) in &regions {
        notes.push(format!("region (Classification.timing) {name} {wall_s} s"));
    }

    let unit = pieces.unit_costs(7, 15);
    m.insert("ntt_fwd_us", unit.ntt_fwd_us);
    m.insert("ntt_inv_us", unit.ntt_inv_us);
    m.insert("dyadic_mul_us", unit.dyadic_mul_us);
    m.insert("mac_us", unit.mac_us);
    const AT_INPUT_LEVEL: [&str; 7] = [
        "rotate_ms",
        "keyswitch_ms",
        "rescale_ms",
        "ct_mult_ms",
        "encode_ms",
        "encrypt_ms",
        "decrypt_ms",
    ];
    const AT_LEVEL_1: [&str; 7] = [
        "rotate_l1_ms",
        "keyswitch_l1_ms",
        "rescale_l1_ms",
        "ct_mult_l1_ms",
        "encode_l1_ms",
        "encrypt_l1_ms",
        "decrypt_l1_ms",
    ];
    for (names, costs) in [(AT_INPUT_LEVEL, unit.top), (AT_LEVEL_1, unit.level1)] {
        for (name, value) in names.into_iter().zip(costs.values()) {
            m.insert(name, value);
        }
    }
    // an upper estimate: every primitive priced at its input-level cost
    let io = recs[0].infer_ops;
    let priced_s = (io.get("rotations") as f64 * unit.top.rotate_ms
        + io.get("ct_mults") as f64 * unit.top.ct_mult_ms
        + io.get("rescales") as f64 * unit.top.rescale_ms
        + (ir.plain_encodes_per_run * pieces.shards) as f64 * unit.top.encode_ms)
        / 1e3
        + io.get("scalar_macs") as f64 * unit.mac_us / 1e6;
    m.insert("priced_share", priced_s / infer_s);

    let (user, sys) = report::cpu_seconds();
    m.insert("cpu_user_s", user);
    m.insert("cpu_sys_s", sys);
    m.insert("cpu_sys_share", sys / (user + sys).max(f64::MIN_POSITIVE));
    m.insert("cpu_per_wall", (user + sys) / wall0.elapsed().as_secs_f64());
    m.insert("available_parallelism", report::nproc() as f64);
    let rayon = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<f64>().ok());
    m.insert("rayon_num_threads", rayon.unwrap_or(0.0));

    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let path = out.join(format!("trace-{}.json", w.name));
    std::fs::write(&path, tracer.to_json(w.name, seed))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    notes.push(format!(
        "trace {} spans over {} re-driven requests (N = {}, input level {}) written to {}",
        tracer.spans.len(),
        recs.len(),
        pieces.ring_degree(),
        pieces.top_level(),
        path.display()
    ));
    notes.push(format!(
        "requests attempted {} failed {} failed_share {}; op counts repeat exactly: {counts_repeat}",
        tally.attempted,
        tally.failed(),
        tally.failed_share()
    ));

    Ok(Traced {
        correct: tally.failed() == 0 && counts_repeat,
        tally,
        metrics: m,
        notes,
        inputs_hash,
        traced_requests: recs.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_of_a_request_share_its_id_and_nest() {
        let mut t = Tracer::new();
        let root = t.open(None, 42, "request", "request");
        let infer = t.open(Some(root), 42, "cnn-he", "infer");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(infer, None);
        let start = t.spans[infer].start_us;
        let shard = t.add(Some(infer), 42, "he-ir", "interp shard 0", start, 1500.0);
        t.close(root, None);

        assert!(t.spans.iter().all(|s| s.request == 42));
        assert_eq!(t.spans[shard].parent, Some(infer));
        assert_eq!(t.spans[infer].parent, Some(root));
        for s in &t.spans {
            if let Some(p) = s.parent {
                let parent = &t.spans[p];
                assert!(s.start_us >= parent.start_us);
                assert!(s.start_us + s.dur_us <= parent.start_us + parent.dur_us + 1e-6);
            }
        }
        // self time: the duration less what the children cover
        let own = t.self_us();
        assert!((own[infer] - (t.spans[infer].dur_us - 1500.0)).abs() < 1e-9);
        assert!((own[root] - (t.spans[root].dur_us - t.spans[infer].dur_us)).abs() < 1e-9);

        let doc = crate::adapter::json::parse(&t.to_json("w", 1)).expect("trace file parses");
        let spans = doc.get("spans").and_then(Value::as_arr).unwrap();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            spans[2].get("parent").and_then(Value::as_num),
            Some(infer as f64)
        );
    }
}
