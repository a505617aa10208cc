//! The six workloads, their load generators and the untraced run that
//! yields the end-to-end metrics.

use crate::adapter::{self, Direct, Engine, Network, Refusal, Serve, ServeTotals, Ticket};
use crate::inputs;
use crate::report::{self, Metrics};
use crate::stats;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// A response is wrong when any logit is further than this from the
/// plaintext network's.
pub const LOGIT_TOLERANCE: f64 = 1e-2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Net {
    /// 8×8 inputs at `N = 2^10`: eight lanes per ciphertext.
    Mini8,
    /// The paper's CNN1, 28×28 inputs at `N = 2^12`: packed dimension
    /// 1024, two lanes per ciphertext.
    Cnn1,
}

impl Net {
    pub fn network(self) -> Network {
        match self {
            Net::Mini8 => adapter::mini8_network(&inputs::mini8()),
            Net::Cnn1 => adapter::cnn1_network(inputs::CNN1_SEED),
        }
    }

    pub fn ring_degree(self) -> usize {
        match self {
            Net::Mini8 => 1 << 10,
            Net::Cnn1 => 1 << 12,
        }
    }

    fn pixels(self) -> usize {
        match self {
            Net::Mini8 => 64,
            Net::Cnn1 => 784,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Closed loop, one client calling `classify` with `batch` images.
    Direct { engine: Engine, batch: usize },
    /// Open loop through he-serve: seeded exponential inter-arrivals.
    ServeOpen { rate_per_s: f64 },
    /// Closed loop through he-serve: `clients` requests kept in flight.
    ServeClosed { clients: usize },
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub net: Net,
    pub kind: Kind,
    /// Fresh set-ups `setup_s` is the median of: one before the measured
    /// phase, the rest after it.
    pub setups: usize,
    /// Requests answered after set-up and before the measured phase.
    pub warm: usize,
}

impl Workload {
    /// The `classify` call the traced run re-drives piece by piece: the
    /// workload's own for a direct one, a full coalesced batch for he-serve.
    pub fn shape(&self) -> (Engine, usize) {
        match self.kind {
            Kind::Direct { engine, batch } => (engine, batch),
            Kind::ServeOpen { .. } | Kind::ServeClosed { .. } => (Engine::PackedEager, 8),
        }
    }

    pub fn loop_kind(&self) -> String {
        match self.kind {
            Kind::Direct { batch, .. } => {
                format!("closed loop, 1 client, {batch} image(s) per request")
            }
            Kind::ServeOpen { rate_per_s } => {
                format!("open loop, exponential arrivals at {rate_per_s} req/s")
            }
            Kind::ServeClosed { clients } => format!("closed loop, {clients} clients"),
        }
    }
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "scalar-stream",
        why: "paper's per-unit scalar engine with RNS stream fan-out, B=1: MAC/NTT/rescale-bound, zero \
              rotations; moves with ckks-math kernels, flat under key-switch, he-ir and he-serve work",
        net: Net::Mini8,
        kind: Kind::Direct {
            engine: Engine::ScalarStream,
            batch: 1,
        },
        setups: 3,
        warm: 5,
    },
    Workload {
        name: "cnn1-single.eager",
        why: "full-size CNN1 at N=2^12 on the eager packed engine, B=1: rotation/key-switch-bound, one \
              shard; rotation work shows here, shard fan-out cannot",
        net: Net::Cnn1,
        kind: Kind::Direct {
            engine: Engine::PackedEager,
            batch: 1,
        },
        setups: 1,
        warm: 0,
    },
    Workload {
        name: "cnn1-single.compiled",
        why: "same traffic through the he-ir optimizer and interpreter: the eager-vs-compiled wall \
              comparison; per-request plaintext encoding shows here and not in .eager",
        net: Net::Cnn1,
        kind: Kind::Direct {
            engine: Engine::PackedCompiled,
            batch: 1,
        },
        setups: 1,
        warm: 0,
    },
    Workload {
        name: "mini-batch64.compiled",
        why: "64 images per request as 8 lanes x 8 sequential shards, compiled path: throughput regime \
              where shard fan-out and per-shard fixed costs show, at a stride cnn1-single never uses",
        net: Net::Mini8,
        kind: Kind::Direct {
            engine: Engine::PackedCompiled,
            batch: 64,
        },
        setups: 3,
        warm: 1,
    },
    Workload {
        name: "serve-open",
        why: "he-serve open loop at 20 req/s, independent users: batches of 1-8 rotate through four \
              stride caches; queue wait and linger dominate latency, so batching policy shows here",
        net: Net::Mini8,
        kind: Kind::ServeOpen { rate_per_s: 20.0 },
        setups: 3,
        warm: 0,
    },
    Workload {
        name: "serve-closed",
        why: "he-serve closed loop, 16 clients: saturated capacity with full stride-8 batches; a policy \
              that ships smaller batches to cut low-load latency shows its throughput cost here",
        net: Net::Mini8,
        kind: Kind::ServeClosed { clients: 16 },
        setups: 3,
        warm: 0,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The image pool of one run and the plaintext logits of each image.
pub struct Pool {
    pub images: Vec<Vec<f32>>,
    oracle: Vec<Vec<f64>>,
}

impl Pool {
    pub fn new(w: &Workload, net: &Network, seed: u64) -> Self {
        let count = match w.kind {
            Kind::Direct { batch, .. } => batch.max(16),
            Kind::ServeOpen { .. } | Kind::ServeClosed { .. } => 64,
        };
        let images = inputs::images(seed, count, w.net.pixels());
        let oracle = images.iter().map(|img| adapter::oracle(net, img)).collect();
        Self { images, oracle }
    }

    /// Largest absolute logit error of a response for pool image `idx`.
    pub fn error(&self, idx: usize, logits: &[f64]) -> f64 {
        let want = &self.oracle[idx % self.oracle.len()];
        if want.len() != logits.len() {
            return f64::INFINITY;
        }
        want.iter()
            .zip(logits)
            .map(|(w, g)| (w - g).abs())
            .fold(0.0, f64::max)
    }

    pub fn image(&self, idx: usize) -> &[f32] {
        &self.images[idx % self.images.len()]
    }
}

/// Attempts, failures by kind, and the latency of every correct answer.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failures: BTreeMap<&'static str, u64>,
    pub latencies: Vec<f64>,
    pub worst_error: f64,
}

impl Tally {
    /// One image answered with `error` against the oracle; `latency_s`
    /// is kept when the answer is correct.
    pub fn answered(&mut self, error: f64, latency_s: Option<f64>) {
        self.attempted += 1;
        // NaN compares false, so a NaN logit fails too
        if error <= LOGIT_TOLERANCE {
            self.worst_error = self.worst_error.max(error);
            self.latencies.extend(latency_s);
        } else {
            *self.failures.entry("wrong_logits").or_default() += 1;
        }
    }

    /// `images` images that got no answer: a typed error, a refusal or
    /// a timeout.
    pub fn unanswered(&mut self, kind: &'static str, images: u64) {
        self.attempted += images;
        *self.failures.entry(kind).or_default() += images;
    }

    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    pub fn succeeded(&self) -> u64 {
        self.attempted - self.failed()
    }

    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed() as f64 / self.attempted as f64
    }
}

/// One request he-serve answered, as the load generator saw it. Times
/// are seconds from the start of the phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Answer {
    pub request: usize,
    /// When the request counts from: its due time in an open loop, its
    /// submit in a closed one.
    pub start_s: f64,
    pub submitted_s: f64,
    /// Submit → response, as the engine measured it.
    pub engine_latency_s: f64,
    pub batch_size: usize,
    pub batch_wall_s: f64,
}

impl Answer {
    /// Time not spent executing: queueing plus the batcher's linger.
    pub fn queue_wait_s(&self) -> f64 {
        (self.engine_latency_s - self.batch_wall_s).max(0.0)
    }

    pub fn end_s(&self) -> f64 {
        self.submitted_s + self.engine_latency_s
    }

    /// What the user waited: from `start_s`, so in an open loop the
    /// generator's lateness counts on top of the engine's own latency.
    pub fn latency_s(&self) -> f64 {
        (self.submitted_s - self.start_s).max(0.0) + self.engine_latency_s
    }
}

/// What the load generator saw of he-serve from outside.
#[derive(Debug, Default)]
pub struct ServeObs {
    pub answered: Vec<Answer>,
    /// How late each open-loop submit was against its due time.
    pub late_s: Vec<f64>,
    pub refused: u64,
}

impl ServeObs {
    /// Wall of each distinct batch: requests of one batch carry the
    /// same wall, to the nanosecond.
    pub fn batch_walls(&self) -> Vec<f64> {
        let mut walls: Vec<f64> = self.answered.iter().map(|a| a.batch_wall_s).collect();
        walls.sort_by(f64::total_cmp);
        walls.dedup();
        walls
    }

    /// `batch size → batches of that size`.
    pub fn batch_histogram(&self) -> BTreeMap<usize, usize> {
        let mut requests: BTreeMap<usize, usize> = BTreeMap::new();
        for a in &self.answered {
            *requests.entry(a.batch_size).or_default() += 1;
        }
        requests
            .into_iter()
            .map(|(size, n)| (size, n.div_ceil(size.max(1))))
            .collect()
    }

    pub fn late_max_s(&self) -> f64 {
        self.late_s.iter().copied().fold(0.0, f64::max)
    }
}

/// A system that has answered its first request correctly.
pub enum Ready {
    Direct(Box<Direct>),
    Serve(Serve),
}

/// Builds the workload's system and takes it to its first correct
/// response; for he-serve that includes warming all four lane strides.
pub fn set_up(
    w: &Workload,
    net: &Network,
    pool: &Pool,
    tally: &mut Tally,
) -> Result<Ready, String> {
    let n = w.net.ring_degree();
    match w.kind {
        Kind::Direct { engine, batch } => {
            let mut d = Direct::build(net.clone(), n, 7, engine)?;
            direct_request(&mut d, pool, 0, batch, false, tally);
            Ok(Ready::Direct(Box::new(d)))
        }
        Kind::ServeOpen { .. } | Kind::ServeClosed { .. } => {
            let s = Serve::start(net.clone(), n, 7)?;
            let mut next = 0;
            for lanes in [1usize, 2, 4, 8] {
                let tickets: Vec<(usize, Result<Ticket, Refusal>)> = (0..lanes)
                    .map(|_| {
                        next += 1;
                        (next - 1, s.submit(pool.image(next - 1).to_vec()))
                    })
                    .collect();
                for (idx, ticket) in tickets {
                    match ticket.and_then(Ticket::wait) {
                        Ok(served) => tally.answered(pool.error(idx, &served.logits), None),
                        Err(r) => tally.unanswered(r.kind(), 1),
                    }
                }
            }
            Ok(Ready::Serve(s))
        }
    }
}

/// One closed-loop `classify` of `batch` pool images starting at
/// `first`; its latency is kept when `timed`. Returns the region walls
/// the program reported.
pub fn direct_request(
    d: &mut Direct,
    pool: &Pool,
    first: usize,
    batch: usize,
    timed: bool,
    tally: &mut Tally,
) -> Vec<(String, f64)> {
    let refs: Vec<&[f32]> = (first..first + batch).map(|i| pool.image(i)).collect();
    let t = Instant::now();
    let answer = d.classify(&refs);
    let latency = t.elapsed().as_secs_f64();
    match answer {
        Ok(c) if c.logits.len() == batch => {
            for (k, row) in c.logits.iter().enumerate() {
                // one latency sample per request, carried by its first image
                tally.answered(
                    pool.error(first + k, row),
                    (timed && k == 0).then_some(latency),
                );
            }
            return c.regions;
        }
        Ok(_) => tally.unanswered("short_answer", batch as u64),
        Err(_) => tally.unanswered("error", batch as u64),
    }
    Vec::new()
}

fn sleep_until(t0: Instant, due_s: f64) {
    let due = Duration::from_secs_f64(due_s);
    // sleep most of the wait, spin the last millisecond: thread::sleep
    // alone overshoots by more than the lateness the open loop allows
    if let Some(coarse) = due.checked_sub(t0.elapsed() + Duration::from_millis(1)) {
        std::thread::sleep(coarse);
    }
    while t0.elapsed() < due {
        std::hint::spin_loop();
    }
}

/// Waits for one submitted request and books its outcome.
fn collect(
    (request, start_s, submitted_s, ticket): (usize, f64, f64, Ticket),
    pool: &Pool,
    tally: &mut Tally,
    obs: &mut ServeObs,
) {
    match ticket.wait() {
        Ok(s) => {
            let answer = Answer {
                request,
                start_s,
                submitted_s,
                engine_latency_s: s.latency_s,
                batch_size: s.batch_size,
                batch_wall_s: s.batch_wall_s,
            };
            tally.answered(pool.error(request, &s.logits), Some(answer.latency_s()));
            obs.answered.push(answer);
        }
        Err(r) => refused(r, tally, obs),
    }
}

fn refused(r: Refusal, tally: &mut Tally, obs: &mut ServeObs) {
    tally.unanswered(r.kind(), 1);
    obs.refused += 1;
}

/// The he-serve workload's measured phase: its open or closed loop.
pub fn serve_phase(
    w: &Workload,
    s: &Serve,
    pool: &Pool,
    due: &[f64],
    seconds: f64,
    tally: &mut Tally,
    obs: &mut ServeObs,
) {
    match w.kind {
        Kind::ServeOpen { .. } => serve_open(s, pool, due, tally, obs),
        Kind::ServeClosed { clients } => serve_closed(s, pool, clients, seconds, tally, obs),
        Kind::Direct { .. } => {}
    }
}

/// Open loop: every request is submitted at its due time whatever the
/// engine is doing, and timed from that due time.
fn serve_open(s: &Serve, pool: &Pool, due: &[f64], tally: &mut Tally, obs: &mut ServeObs) {
    let t0 = Instant::now();
    let mut pending = Vec::with_capacity(due.len());
    for (request, &due_s) in due.iter().enumerate() {
        let image = pool.image(request).to_vec();
        sleep_until(t0, due_s);
        let submitted_s = t0.elapsed().as_secs_f64();
        obs.late_s.push(submitted_s - due_s);
        match s.submit(image) {
            Ok(ticket) => pending.push((request, due_s, submitted_s, ticket)),
            Err(r) => refused(r, tally, obs),
        }
    }
    for p in pending {
        collect(p, pool, tally, obs);
    }
}

/// Closed loop: `clients` requests in flight, each replaced when it is
/// answered, for `seconds`; then the last ones drain.
fn serve_closed(
    s: &Serve,
    pool: &Pool,
    clients: usize,
    seconds: f64,
    tally: &mut Tally,
    obs: &mut ServeObs,
) {
    let t0 = Instant::now();
    let mut next = 0usize;
    let mut inflight: Vec<(usize, f64, f64, Ticket)> = Vec::with_capacity(clients);
    loop {
        let open = t0.elapsed().as_secs_f64() < seconds;
        while open && inflight.len() < clients {
            let now_s = t0.elapsed().as_secs_f64();
            match s.submit(pool.image(next).to_vec()) {
                Ok(ticket) => inflight.push((next, now_s, now_s, ticket)),
                Err(r) => {
                    refused(r, tally, obs);
                    // a refusing engine must not turn this loop into a spin
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            next += 1;
        }
        if inflight.is_empty() {
            return;
        }
        let before = inflight.len();
        let mut i = 0;
        while i < inflight.len() {
            if inflight[i].3.is_ready() {
                collect(inflight.swap_remove(i), pool, tally, obs);
            } else {
                i += 1;
            }
        }
        if inflight.len() == before {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

/// Everything the untraced run of one workload measured.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Metrics,
    pub obs: ServeObs,
    pub totals: Option<ServeTotals>,
    pub phase_wall_s: f64,
    pub inputs_hash: u64,
}

/// The open-loop schedule of a run (`--seed` and `--seconds` fix it).
pub fn schedule(w: &Workload, seed: u64, seconds: f64) -> Vec<f64> {
    match w.kind {
        Kind::ServeOpen { rate_per_s } => inputs::arrivals(seed, rate_per_s, seconds),
        _ => Vec::new(),
    }
}

/// One timed set-up: network construction → first correct response.
fn timed_set_up(w: &Workload, pool: &Pool, tally: &mut Tally) -> Result<(Ready, f64), String> {
    let t = Instant::now();
    let ready = set_up(w, &w.net.network(), pool, tally)?;
    Ok((ready, t.elapsed().as_secs_f64()))
}

/// Set-up, warm-up, a measured phase of `seconds` with tracing off, then
/// the further set-ups `setup_s` is the median of.
pub fn run(w: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let pool = Pool::new(w, &w.net.network(), seed);
    let due = schedule(w, seed, seconds);
    let inputs_hash = inputs::load_hash(&pool.images, &due);
    let mut tally = Tally::default();
    let mut obs = ServeObs::default();

    let (mut ready, first_setup_s) = timed_set_up(w, &pool, &mut tally)?;
    let mut setup_s = vec![first_setup_s];
    // set-up and warm-up answers are checked and counted, never timed
    if let (Ready::Direct(d), Kind::Direct { batch, .. }) = (&mut ready, w.kind) {
        for r in 0..w.warm {
            direct_request(d, &pool, (r + 1) * batch, batch, false, &mut tally);
        }
    }
    let ok_before = tally.succeeded();
    let t0 = Instant::now();
    match (&mut ready, w.kind) {
        (Ready::Direct(d), Kind::Direct { batch, .. }) => {
            let mut first = 0;
            while t0.elapsed().as_secs_f64() < seconds {
                direct_request(d, &pool, first, batch, true, &mut tally);
                first += batch;
            }
        }
        (Ready::Serve(s), _) => serve_phase(w, s, &pool, &due, seconds, &mut tally, &mut obs),
        (Ready::Direct(_), _) => return Err("set-up built the wrong kind of system".into()),
    }
    let phase_wall_s = t0.elapsed().as_secs_f64();
    let answered_ok = tally.succeeded() - ok_before;
    // read while the process has built exactly one system: what later
    // set-ups leave in the allocator is not the workload's footprint
    let peak_rss_mb = report::peak_rss_mb();
    let totals = match ready {
        Ready::Serve(s) => Some(s.shutdown()),
        Ready::Direct(_) => None,
    };
    for _ in 1..w.setups {
        let (again, s) = timed_set_up(w, &pool, &mut tally)?;
        setup_s.push(s);
        if let Ready::Serve(engine) = again {
            engine.shutdown();
        }
    }

    let mut metrics = Metrics::new();
    metrics.insert("setup_s", stats::median(&setup_s));
    metrics.insert("request_s", stats::median(&tally.latencies));
    metrics.insert("request_p90_s", stats::percentile(&tally.latencies, 90.0));
    metrics.insert("images_per_s", answered_ok as f64 / phase_wall_s);
    metrics.insert("peak_rss_mb", peak_rss_mb);
    Ok(Outcome {
        tally,
        metrics,
        obs,
        totals,
        phase_wall_s,
        inputs_hash,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(
        start_s: f64,
        submitted_s: f64,
        engine_latency_s: f64,
        wall: f64,
        size: usize,
    ) -> Answer {
        Answer {
            request: 0,
            start_s,
            submitted_s,
            engine_latency_s,
            batch_size: size,
            batch_wall_s: wall,
        }
    }

    #[test]
    fn a_late_generator_counts_against_latency() {
        // due at 1.000 s, submitted 30 ms late, engine took 80 ms
        let late = answer(1.000, 1.030, 0.080, 0.050, 1);
        assert!((late.latency_s() - 0.110).abs() < 1e-12);
        assert!((late.end_s() - 1.110).abs() < 1e-12);
        assert!((late.queue_wait_s() - 0.030).abs() < 1e-12);
        // an early submit (clock jitter) never shortens the latency
        assert_eq!(answer(1.0, 0.999, 0.080, 0.05, 1).latency_s(), 0.080);
        let obs = ServeObs {
            late_s: vec![0.0002, 0.030, 0.001],
            ..ServeObs::default()
        };
        assert_eq!(obs.late_max_s(), 0.030);
    }

    #[test]
    fn failed_share_counts_a_wrong_logit_and_a_refusal() {
        let mut t = Tally::default();
        t.answered(0.001, Some(0.5));
        t.answered(0.5, Some(0.4)); // wrong logits
        t.answered(f64::NAN, Some(0.4)); // unusable logits
        t.unanswered(Refusal::Overloaded.kind(), 1);
        assert_eq!(t.attempted, 4);
        assert_eq!(t.failed(), 3);
        assert_eq!(t.succeeded(), 1);
        assert_eq!(t.failed_share(), 0.75);
        assert_eq!(t.failures["wrong_logits"], 2);
        assert_eq!(t.failures["overloaded"], 1);
        // only the correct answer contributes a latency sample
        assert_eq!(t.latencies, vec![0.5]);
    }

    #[test]
    fn batches_are_told_apart_by_their_wall() {
        let mut obs = ServeObs::default();
        for (size, wall) in [(2, 0.10), (2, 0.10), (1, 0.07), (2, 0.11), (2, 0.11)] {
            obs.answered.push(answer(0.0, 0.0, wall + 0.02, wall, size));
        }
        assert_eq!(obs.batch_walls(), vec![0.07, 0.10, 0.11]);
        assert_eq!(obs.batch_histogram(), BTreeMap::from([(1, 1), (2, 2)]));
    }

    #[test]
    fn workloads_are_six_and_named_once() {
        assert_eq!(WORKLOADS.len(), 6);
        assert!(find("serve-open").is_some() && find("nope").is_none());
        assert_eq!(
            find("serve-closed").unwrap().shape(),
            (Engine::PackedEager, 8)
        );
    }
}
