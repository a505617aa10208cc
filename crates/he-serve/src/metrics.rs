//! The engine's one record of what it did: typed instruments on a
//! per-engine [`Registry`], the he-trace op-counter bridge, the
//! per-request event log, and the `/metrics` endpoint glue.
//!
//! [`EngineMetrics`] is the engine's single instrumentation seam: the
//! hot paths call its hooks (`on_enqueue`, `on_batch`, `on_exec`, …),
//! each event lands once on this engine's registry, and
//! [`ServeReport`] is a snapshot of those same instruments — so a
//! report counts only its own engine's traffic, and a scrape agrees
//! with it exactly at quiescence.
//!
//! Metric vocabulary (all per-engine except the bridge and globals):
//! - `he_serve_submitted_total`, `he_serve_requests_total{outcome=…}`
//!   (completed / rejected / overloaded / timed_out): request flow.
//! - `he_serve_queue_depth` (gauge), `he_serve_queue_wait_seconds`
//!   (histogram): queue pressure.
//! - `he_serve_batch_size` / `he_serve_batch_linger_seconds`
//!   (histograms), `he_serve_batches_total`: coalescing behaviour.
//! - `he_serve_request_latency_seconds`,
//!   `he_serve_amortized_per_image_seconds`,
//!   `he_serve_deadline_slack_seconds` (histograms): latency, per-image
//!   cost of each batch, and how close completed deadline-carrying
//!   requests ran to their budget.
//! - `he_serve_effective_max_batch` (gauge),
//!   `he_serve_degradations_total`: degradation-ladder state.
//! - `he_ops_total{op=…}`: process-global he-trace HE op counters,
//!   bridged by snapshot delta on every scrape.
//! - `he_kernel_backend_info{backend=…}`, `he_serve_workers`: run
//!   configuration.

use crate::config::ServeConfig;
use crate::stats::{summarize, ServeReport};
use he_trace::events::{Event, EventKind, EventLog};
use he_trace::{cats, Counter, Gauge, Histogram, MetricsServer, OpSnapshot, Registry};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

pub(crate) struct EngineMetrics {
    registry: Arc<Registry>,
    t0: Instant,
    request_ids: AtomicU64,
    batch_ids: AtomicU64,
    queue_depth: Gauge,
    ladder: Gauge,
    queue_wait: Histogram,
    linger: Histogram,
    batch_size: Histogram,
    latency: Histogram,
    amortized: Histogram,
    deadline_slack: Histogram,
    submitted: Counter,
    completed: Counter,
    rejected: Counter,
    overloaded: Counter,
    timed_out: Counter,
    batches: Counter,
    degradations: Counter,
    events: Option<Arc<EventLog>>,
}

impl EngineMetrics {
    pub fn new(cfg: &ServeConfig, max_batch_cap: usize) -> Self {
        let registry = Arc::new(Registry::new());
        let outcome = |o: &str| {
            registry.counter_with(
                "he_serve_requests_total",
                "Requests by final outcome.",
                &[("outcome", o)],
            )
        };
        let seconds = |name: &str, help: &str| registry.duration_histogram_with(name, help, &[]);
        let m = Self {
            t0: Instant::now(),
            request_ids: AtomicU64::new(0),
            batch_ids: AtomicU64::new(0),
            queue_depth: registry.gauge(
                "he_serve_queue_depth",
                "Requests waiting in the bounded queue.",
            ),
            ladder: registry.gauge(
                "he_serve_effective_max_batch",
                "Current coalescing ceiling (degradation-ladder state).",
            ),
            queue_wait: seconds(
                "he_serve_queue_wait_seconds",
                "Queue residency of batched requests (submit to batch dispatch).",
            ),
            linger: seconds(
                "he_serve_batch_linger_seconds",
                "How long the batcher lingered collecting each batch.",
            ),
            batch_size: registry.histogram_with(
                "he_serve_batch_size",
                "Images per dispatched batch.",
                &[],
            ),
            latency: seconds(
                "he_serve_request_latency_seconds",
                "Submit-to-response latency of completed requests.",
            ),
            amortized: seconds(
                "he_serve_amortized_per_image_seconds",
                "Execution wall of each batch divided by its size.",
            ),
            deadline_slack: seconds(
                "he_serve_deadline_slack_seconds",
                "Budget left at completion for deadline-carrying requests.",
            ),
            submitted: registry.counter(
                "he_serve_submitted_total",
                "Requests submitted, refused ones included.",
            ),
            completed: outcome("completed"),
            rejected: outcome("rejected"),
            overloaded: outcome("overloaded"),
            timed_out: outcome("timed_out"),
            batches: registry.counter(
                "he_serve_batches_total",
                "Batches dispatched to the worker pool.",
            ),
            degradations: registry.counter(
                "he_serve_degradations_total",
                "Times the coalescing ceiling was halved after a deadline overrun.",
            ),
            events: (cfg.event_log_capacity > 0)
                .then(|| Arc::new(EventLog::new(cfg.event_log_capacity))),
            registry,
        };
        m.ladder.set(max_batch_cap as f64);
        // run-configuration info gauges (value pinned to 1, the
        // interesting part is the label)
        m.registry
            .gauge_with(
                "he_kernel_backend_info",
                "Active modular-arithmetic kernel backend (value is always 1).",
                &[("backend", cnn_he::kernel::active_backend().name())],
            )
            .set(1.0);
        m.registry
            .gauge("he_serve_workers", "Worker threads executing batches.")
            .set(cfg.workers as f64);
        m.registry
            .gauge("he_serve_queue_capacity", "Bound of the request queue.")
            .set(cfg.queue_capacity as f64);
        // he-trace op-counter bridge: per-scrape snapshot deltas into
        // monotonic counters, so `he_ops_total` tracks the
        // process-global OpSnapshot exactly at every scrape.
        let ops: Vec<Counter> = OpSnapshot::default()
            .named()
            .iter()
            .map(|(op, _)| {
                m.registry.counter_with(
                    "he_ops_total",
                    "Process-global HE primitive ops (bridged from he-trace).",
                    &[("op", op)],
                )
            })
            .collect();
        let last = Mutex::new(OpSnapshot::default());
        m.registry.register_collector(move || {
            let _span = he_trace::span("op_bridge", cats::METRICS);
            let now = OpSnapshot::now();
            let mut prev = last.lock().unwrap_or_else(PoisonError::into_inner);
            let delta = now.delta(&prev);
            *prev = now;
            for (counter, (_, v)) in ops.iter().zip(delta.named()) {
                counter.inc(v);
            }
        });
        m
    }

    fn push_event(
        &self,
        kind: EventKind,
        request: Option<u64>,
        batch: Option<u64>,
        fields: impl FnOnce() -> Vec<(&'static str, f64)>,
    ) {
        if let Some(log) = &self.events {
            log.push(Event {
                ts_us: u64::try_from(self.t0.elapsed().as_micros()).unwrap_or(u64::MAX),
                kind,
                request,
                batch,
                fields: fields(),
            });
        }
    }

    /// Counts one submission and hands out its request id.
    pub fn on_submit(&self) -> u64 {
        self.submitted.inc(1);
        self.request_ids.fetch_add(1, Ordering::Relaxed) + 1
    }

    pub fn on_enqueue(&self, request: u64, budget: Option<Duration>, depth: usize) {
        self.queue_depth.set(depth as f64);
        self.push_event(EventKind::Enqueue, Some(request), None, || {
            budget
                .map(|b| ("budget_us", b.as_micros() as f64))
                .into_iter()
                .collect()
        });
    }

    pub fn on_rejected(&self, requests: u64) {
        self.rejected.inc(requests);
    }

    pub fn on_overloaded(&self) {
        self.overloaded.inc(1);
    }

    /// Record a dispatched batch; returns its id for the event log.
    pub fn on_batch(&self, size: usize, linger: Duration, waits: &[Duration], depth: usize) -> u64 {
        let id = self.batch_ids.fetch_add(1, Ordering::Relaxed) + 1;
        self.batches.inc(1);
        self.batch_size.observe_ticks(size as u64);
        self.linger.observe_duration(linger);
        for w in waits {
            self.queue_wait.observe_duration(*w);
        }
        self.queue_depth.set(depth as f64);
        self.push_event(EventKind::Batch, None, Some(id), || {
            vec![
                ("size", size as f64),
                ("linger_us", linger.as_micros() as f64),
            ]
        });
        id
    }

    pub fn on_exec(
        &self,
        batch: u64,
        size: usize,
        wall: Duration,
        amortized: Duration,
        ops: &OpSnapshot,
    ) {
        self.amortized.observe_duration(amortized);
        self.push_event(EventKind::Exec, None, Some(batch), || {
            vec![
                ("size", size as f64),
                ("wall_us", wall.as_micros() as f64),
                ("ntt", ops.ntt_total() as f64),
                ("ct_mults", ops.ct_mults as f64),
                ("rotations", ops.rotations as f64),
                ("rescales", ops.rescales as f64),
                ("scalar_macs", ops.scalar_macs as f64),
            ]
        });
    }

    pub fn on_complete(
        &self,
        request: u64,
        batch: u64,
        slack: Option<Duration>,
        latency: Duration,
    ) {
        self.completed.inc(1);
        self.latency.observe_duration(latency);
        if let Some(s) = slack {
            self.deadline_slack.observe_duration(s);
        }
        self.push_event(EventKind::Complete, Some(request), Some(batch), || {
            let mut fields = vec![("latency_us", latency.as_micros() as f64)];
            fields.extend(slack.map(|s| ("slack_us", s.as_micros() as f64)));
            fields
        });
    }

    pub fn on_shed(
        &self,
        request: u64,
        batch: Option<u64>,
        waited: Duration,
        late_by: Option<Duration>,
    ) {
        self.timed_out.inc(1);
        self.push_event(EventKind::Shed, Some(request), batch, || {
            let mut fields = vec![("waited_us", waited.as_micros() as f64)];
            fields.extend(late_by.map(|l| ("late_us", l.as_micros() as f64)));
            fields
        });
    }

    pub fn on_ladder(&self, ceiling: usize, degraded: bool) {
        self.ladder.set(ceiling as f64);
        if degraded {
            self.degradations.inc(1);
        }
    }

    /// A [`ServeReport`] read off this engine's instruments.
    pub fn report(&self, queue_depth: usize, effective_max_batch: usize) -> ServeReport {
        ServeReport {
            submitted: self.submitted.value(),
            completed: self.completed.value(),
            rejected: self.rejected.value(),
            overloaded: self.overloaded.value(),
            timed_out: self.timed_out.value(),
            batches: self.batches.value(),
            // exact: a histogram's tick sum is not bucketed
            batched_images: self.batch_size.snapshot().sum,
            degradations: self.degradations.value(),
            queue_depth,
            effective_max_batch,
            request_latency: summarize(&self.latency),
            amortized_per_image: summarize(&self.amortized),
            queue_wait: summarize(&self.queue_wait),
            deadline_slack: summarize(&self.deadline_slack),
            backend: cnn_he::kernel::active_backend().name().to_string(),
        }
    }

    pub fn events_jsonl(&self) -> String {
        self.events
            .as_ref()
            .map_or_else(String::new, |l| l.to_jsonl())
    }

    pub fn events_dropped(&self) -> u64 {
        self.events.as_ref().map_or(0, |l| l.dropped())
    }

    /// Start the `/metrics` endpoint serving this engine's registry
    /// followed by the process-global one (layer gauges).
    pub fn start_server(&self, addr: SocketAddr) -> std::io::Result<MetricsServer> {
        MetricsServer::start(addr, vec![Arc::clone(&self.registry), he_trace::global()])
    }

    /// Render this engine's registry (tests; scrapes go through
    /// [`start_server`](Self::start_server)).
    #[cfg(test)]
    pub fn render(&self) -> String {
        self.registry.render()
    }
}

#[cfg(test)]
mod tests {
    use super::EngineMetrics;
    use crate::config::ServeConfig;
    use he_trace::OpSnapshot;
    use std::time::Duration;

    #[test]
    fn engine_registry_renders_and_parses_with_zero_traffic() {
        let m = EngineMetrics::new(&ServeConfig::default(), 8);
        let text = m.render();
        let expo = he_trace::expo::parse(&text).expect("fresh registry must parse");
        // all instrument families are present before any traffic
        for family in [
            "he_serve_submitted_total",
            "he_serve_queue_depth",
            "he_serve_queue_wait_seconds",
            "he_serve_batch_linger_seconds",
            "he_serve_batch_size",
            "he_serve_request_latency_seconds",
            "he_serve_amortized_per_image_seconds",
            "he_serve_deadline_slack_seconds",
            "he_serve_requests_total",
            "he_serve_batches_total",
            "he_serve_effective_max_batch",
            "he_serve_degradations_total",
            "he_ops_total",
            "he_kernel_backend_info",
            "he_serve_workers",
        ] {
            assert!(expo.has_series(family), "missing {family}:\n{text}");
        }
        assert_eq!(expo.value("he_serve_effective_max_batch", &[]), Some(8.0));
    }

    #[test]
    fn lifecycle_hooks_feed_counters_and_event_log() {
        let cfg = ServeConfig {
            event_log_capacity: 16,
            ..Default::default()
        };
        let m = EngineMetrics::new(&cfg, 4);
        let r1 = m.on_submit();
        m.on_enqueue(r1, Some(Duration::from_millis(250)), 1);
        let waits = [Duration::from_millis(2)];
        let b = m.on_batch(1, Duration::from_millis(3), &waits, 0);
        let wall = Duration::from_millis(40);
        m.on_exec(b, 1, wall, wall, &OpSnapshot::default());
        m.on_complete(
            r1,
            b,
            Some(Duration::from_millis(200)),
            Duration::from_millis(45),
        );
        let jsonl = m.events_jsonl();
        assert_eq!(jsonl.lines().count(), 4);
        for line in jsonl.lines() {
            let parsed = he_trace::events::parse_line(line).expect("event line parses");
            assert_eq!(parsed.to_json(), line);
        }
        let expo = he_trace::expo::parse(&m.render()).unwrap();
        assert_eq!(
            expo.value("he_serve_requests_total", &[("outcome", "completed")]),
            Some(1.0)
        );
        assert_eq!(expo.value("he_serve_submitted_total", &[]), Some(1.0));
        assert_eq!(expo.value("he_serve_batches_total", &[]), Some(1.0));
        assert_eq!(
            expo.value("he_serve_queue_wait_seconds_count", &[]),
            Some(1.0)
        );
        assert_eq!(
            expo.value("he_serve_deadline_slack_seconds_count", &[]),
            Some(1.0)
        );
        // the report is the same instruments, read directly
        let r = m.report(0, 4);
        assert_eq!((r.submitted, r.completed, r.batches), (1, 1, 1));
        assert_eq!(r.batched_images, 1);
        assert!((r.request_latency.unwrap().max - 0.045).abs() < 1e-9);
    }
}
