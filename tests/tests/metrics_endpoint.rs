//! Integration: the live `/metrics` endpoint and per-request event log
//! under concurrent load.
//!
//! The observability acceptance criteria: every scrape taken during a
//! batch storm parses under the strict exposition parser; counters
//! observed by any single scraper are monotonic; the endpoint answers
//! while workers are mid-batch (it shares no locks with the hot path);
//! the event-log ring stays bounded and every surviving line
//! round-trips; and the exposition agrees exactly with the engine's
//! own [`he_serve::ServeReport`] at quiescence.

#![forbid(unsafe_code)]

use cnn_he::he_layers::{ConvSpec, DenseSpec};
use cnn_he::{CnnHePipeline, HeLayerSpec, HeNetwork};
use he_serve::{ServeConfig, ServeEngine, ServeError};
use he_trace::expo::{self, Exposition};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// A miniature CNN1-shaped network over 8×8 inputs, small enough for
/// the 2^10 test ring (same shape as serve_engine.rs).
fn mini_network(seed: u64) -> HeNetwork {
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

fn metrics_cfg() -> ServeConfig {
    ServeConfig {
        max_batch: 8,
        max_linger: Duration::from_millis(50),
        queue_capacity: 64,
        metrics_addr: Some("127.0.0.1:0".parse().unwrap()),
        event_log_capacity: 1024,
        ..Default::default()
    }
}

fn image(i: usize) -> Vec<f32> {
    (0..64)
        .map(|p| (((p * 7 + i * 13) % 31) as f32) / 31.0)
        .collect()
}

fn scrape(addr: SocketAddr) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(s, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).expect("read");
    let (head, body) = out.split_once("\r\n\r\n").expect("framing");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    body.to_string()
}

fn completed(e: &Exposition) -> f64 {
    e.value("he_serve_requests_total", &[("outcome", "completed")])
        .expect("completed series")
}

#[test]
fn concurrent_scrapes_always_parse_and_stay_monotonic() {
    const SCRAPERS: usize = 4;
    let eng = engine(metrics_cfg(), 811);
    let addr = eng.metrics_addr().expect("endpoint up");

    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        // scrapers hammer the endpoint for the whole storm
        let scrapers: Vec<_> = (0..SCRAPERS)
            .map(|t| {
                let done = &done;
                s.spawn(move || {
                    let mut last_completed = 0.0f64;
                    let mut last_ops = 0.0f64;
                    let mut n = 0usize;
                    loop {
                        let body = scrape(addr);
                        let e = expo::parse(&body)
                            .unwrap_or_else(|err| panic!("scraper {t}: unparseable: {err}"));
                        let c = completed(&e);
                        assert!(
                            c >= last_completed,
                            "scraper {t}: completed went backwards {last_completed} -> {c}"
                        );
                        last_completed = c;
                        let ops = e
                            .value("he_ops_total", &[("op", "ct_mults")])
                            .expect("bridged op counter");
                        assert!(
                            ops >= last_ops,
                            "scraper {t}: he_ops_total went backwards {last_ops} -> {ops}"
                        );
                        last_ops = ops;
                        n += 1;
                        if done.load(Ordering::Relaxed) {
                            return n;
                        }
                        std::thread::sleep(Duration::from_millis(5));
                    }
                })
            })
            .collect();

        // the batch storm: three waves of concurrent clients
        for wave in 0..3 {
            let joins: Vec<_> = (0..6)
                .map(|i| {
                    let eng = &eng;
                    s.spawn(move || {
                        eng.submit(image(wave * 6 + i))
                            .expect("queued")
                            .wait()
                            .expect("served")
                    })
                })
                .collect();
            for j in joins {
                j.join().expect("client");
            }
        }
        done.store(true, Ordering::Relaxed);
        for sc in scrapers {
            let n = sc.join().expect("scraper");
            assert!(n >= 2, "scraper produced only {n} scrapes");
        }
    });
    let report = eng.shutdown();
    assert_eq!(report.completed, 18);
}

#[test]
fn endpoint_answers_while_workers_are_mid_batch() {
    let eng = engine(metrics_cfg(), 823);
    let addr = eng.metrics_addr().expect("endpoint up");
    // keep a worker busy: the batch takes hundreds of milliseconds of
    // HE work, during which every scrape must still answer promptly
    // (the endpoint shares no locks with the execution hot path)
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let eng = &eng;
                s.spawn(move || {
                    eng.submit(image(i))
                        .expect("queued")
                        .wait()
                        .expect("served")
                })
            })
            .collect();
        let mut slowest = Duration::ZERO;
        for _ in 0..10 {
            let t0 = Instant::now();
            let body = scrape(addr);
            slowest = slowest.max(t0.elapsed());
            expo::parse(&body).expect("scrape parses mid-batch");
        }
        // generous bound: scrapes render two registries, they never
        // wait out a 100ms+ HE batch
        assert!(
            slowest < Duration::from_secs(1),
            "scrape stalled {slowest:?}"
        );
        for h in handles {
            h.join().expect("client");
        }
    });
    eng.shutdown();
}

#[test]
fn event_log_ring_stays_bounded_and_lines_round_trip() {
    let cfg = ServeConfig {
        event_log_capacity: 8,
        metrics_addr: None,
        ..metrics_cfg()
    };
    let eng = engine(cfg, 829);
    for i in 0..6 {
        eng.classify_blocking(image(i)).expect("served");
    }
    // 6 requests × (enqueue+batch+exec+complete) ≫ 8 ring slots
    assert!(eng.events_dropped() > 0, "ring never evicted");
    let jsonl = eng.events_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert!(lines.len() <= 8, "ring grew past capacity: {}", lines.len());
    assert!(!lines.is_empty());
    for line in lines {
        let parsed = he_trace::events::parse_line(line).expect("line parses");
        assert_eq!(parsed.to_json(), line, "round-trip drift");
    }
    eng.shutdown();
}

#[test]
fn exposition_agrees_with_report_at_quiescence() {
    let eng = engine(metrics_cfg(), 837);
    let addr = eng.metrics_addr().expect("endpoint up");
    for i in 0..5 {
        eng.classify_blocking(image(i)).expect("served");
    }
    let report = eng.report();
    let e = expo::parse(&scrape(addr)).expect("scrape parses");
    assert_eq!(completed(&e), report.completed as f64);
    assert_eq!(
        e.value("he_serve_batches_total", &[]),
        Some(report.batches as f64)
    );
    assert_eq!(
        e.value("he_serve_queue_wait_seconds_count", &[]),
        Some(report.batched_images as f64),
        "one queue-wait sample per batched request"
    );
    assert_eq!(e.value("he_serve_workers", &[]), Some(1.0));
    assert!(e.has_series("he_kernel_backend_info"));
    eng.shutdown();
}

#[test]
fn metrics_bind_failure_is_a_typed_start_error() {
    // squat on a port so the engine's bind must fail
    let squatter = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let cfg = ServeConfig {
        metrics_addr: Some(squatter.local_addr().unwrap()),
        ..metrics_cfg()
    };
    let err = ServeEngine::start(cfg, || CnnHePipeline::new(mini_network(841), 1 << 10, 841))
        .err()
        .expect("start must fail on an unbindable metrics address");
    match err {
        ServeError::MetricsUnavailable { reason } => {
            assert!(reason.contains("bind"), "{reason}");
        }
        other => panic!("expected MetricsUnavailable, got {other}"),
    }
}
