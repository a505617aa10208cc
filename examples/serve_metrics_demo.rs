//! Live-metrics demo: scrape a running serving engine mid-flight and
//! prove the numbers agree with the engine's own final report.
//!
//! ```text
//! cargo run --release -p examples --bin serve_metrics_demo
//! ```
//!
//! The demo runs one traced inference (populating the process-global
//! per-layer noise-headroom gauges), starts an engine with the
//! `/metrics` endpoint and the JSONL event log enabled, fires waves of
//! concurrent clients while a scraper thread hammers the endpoint, and
//! then — at quiescence — cross-checks the last scrape against three
//! independent sources of truth:
//!
//! 1. the engine's [`he_serve::ServeReport`] (request/batch counters,
//!    queue-wait sample counts),
//! 2. the process-global he-trace [`he_trace::OpSnapshot`] (the
//!    `he_ops_total` bridge must agree exactly at quiescence),
//! 3. the [`cnn_he::InferenceTrace`] (per-layer headroom gauges carry
//!    the traced values bit-for-bit).
//!
//! Every mid-run scrape must parse under the strict exposition parser,
//! and every event-log line must survive a parse → re-serialize
//! round-trip. CI runs this binary as the metrics acceptance check and
//! uploads the final scrape + event log as artifacts.

#![forbid(unsafe_code)]

use bench::harness::mini_cnn1;
use cnn_he::CnnHePipeline;
use he_serve::{ServeConfig, ServeEngine};
use he_trace::OpSnapshot;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const WAVES: usize = 3;
const CLIENTS_PER_WAVE: usize = 6;

fn image(i: usize) -> Vec<f32> {
    (0..64)
        .map(|p| (((p * 7 + i * 13) % 31) as f32) / 31.0)
        .collect()
}

/// One blocking HTTP GET; returns the response body.
fn get(addr: SocketAddr, path: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect to metrics endpoint");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(s, "GET {path} HTTP/1.1\r\nHost: demo\r\n\r\n").expect("send request");
    let mut out = String::new();
    s.read_to_string(&mut out).expect("read response");
    let (head, body) = out.split_once("\r\n\r\n").expect("http response framing");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    body.to_string()
}

fn main() {
    // ---- one traced inference exports the per-layer noise gauges
    let mut traced_pipe = CnnHePipeline::new(mini_cnn1(31), 1 << 10, 31);
    let img0 = image(0);
    let (_, trace) = traced_pipe.traced_infer(&[&img0]);
    let last_layer = trace.layers.last().expect("traced layers");
    println!(
        "traced inference: {} layers, final headroom {:.2} bits",
        trace.layers.len(),
        last_layer.headroom_bits
    );

    // ---- engine with live endpoint + event log
    let cfg = ServeConfig {
        max_batch: 8,
        max_linger: Duration::from_millis(100),
        queue_capacity: 64,
        workers: 1,
        default_deadline: Some(Duration::from_secs(30)),
        metrics_addr: Some("127.0.0.1:0".parse().unwrap()),
        event_log_capacity: 4096,
        ..Default::default()
    };
    let engine = ServeEngine::start(cfg, || CnnHePipeline::new(mini_cnn1(31), 1 << 10, 31))
        .expect("demo network passes admission");
    let addr = engine.metrics_addr().expect("metrics endpoint running");
    assert_eq!(get(addr, "/health"), "ok\n");
    println!("metrics endpoint live at http://{addr}/metrics");

    // ---- waves of concurrent clients, scraped while they run
    let done = AtomicBool::new(false);
    let mut mid_run_scrapes = Vec::new();
    std::thread::scope(|s| {
        let scraper = s.spawn(|| {
            let mut bodies = Vec::new();
            while !done.load(Ordering::Relaxed) {
                bodies.push(get(addr, "/metrics"));
                std::thread::sleep(Duration::from_millis(25));
            }
            bodies
        });
        for wave in 0..WAVES {
            let joins: Vec<_> = (0..CLIENTS_PER_WAVE)
                .map(|i| {
                    let engine = &engine;
                    s.spawn(move || {
                        engine
                            .submit(image(wave * CLIENTS_PER_WAVE + i))
                            .expect("queued")
                            .wait()
                            .expect("served")
                    })
                })
                .collect();
            for j in joins {
                let r = j.join().expect("client thread");
                assert!(r.batch_size >= 1);
            }
        }
        done.store(true, Ordering::Relaxed);
        mid_run_scrapes = scraper.join().expect("scraper thread");
    });
    println!("{} mid-run scrapes captured", mid_run_scrapes.len());
    assert!(!mid_run_scrapes.is_empty(), "scraper never ran");
    for (i, body) in mid_run_scrapes.iter().enumerate() {
        let expo = he_trace::expo::parse(body)
            .unwrap_or_else(|e| panic!("mid-run scrape {i} does not parse: {e}"));
        for family in [
            "he_serve_queue_depth",
            "he_serve_batch_size",
            "he_serve_deadline_slack_seconds",
            "he_layer_noise_headroom_bits",
            "he_kernel_backend_info",
        ] {
            assert!(expo.has_series(family), "scrape {i} missing {family}");
        }
    }

    // ---- quiescent cross-check: scrape vs report vs trace snapshots
    let report = engine.report();
    let final_scrape = get(addr, "/metrics");
    let expo = he_trace::expo::parse(&final_scrape).expect("final scrape parses");
    let count = |name: &str, labels: &[(&str, &str)]| {
        expo.value(name, labels)
            .unwrap_or_else(|| panic!("missing series {name}{labels:?}"))
    };
    assert_eq!(
        count("he_serve_requests_total", &[("outcome", "completed")]),
        report.completed as f64,
        "completed counter disagrees with ServeReport"
    );
    assert_eq!(
        count("he_serve_batches_total", &[]),
        report.batches as f64,
        "batch counter disagrees with ServeReport"
    );
    assert_eq!(
        count("he_serve_queue_wait_seconds_count", &[]),
        report.batched_images as f64,
        "one queue-wait sample per batched request"
    );
    let ops_now = OpSnapshot::now();
    assert_eq!(
        count("he_ops_total", &[("op", "ct_mults")]),
        ops_now.ct_mults as f64,
        "he_ops_total bridge disagrees with OpSnapshot at quiescence"
    );
    assert_eq!(
        count("he_ops_total", &[("op", "rescales")]),
        ops_now.rescales as f64,
    );
    let headroom = count(
        "he_layer_noise_headroom_bits",
        &[("layer", &last_layer.name)],
    );
    assert!(
        (headroom - last_layer.headroom_bits).abs() < 1e-9,
        "layer gauge {headroom} != traced {}",
        last_layer.headroom_bits
    );
    println!(
        "quiescent scrape agrees: {} completed, {} batches, ct_mults={}, \
         last-layer headroom {headroom:.2} bits",
        report.completed, report.batches, ops_now.ct_mults
    );

    // ---- event log: strict per-line round-trip + completion parity
    let events = engine.events_jsonl();
    assert_eq!(engine.events_dropped(), 0, "4096-slot ring never filled");
    let mut completes = 0u64;
    for (i, line) in events.lines().enumerate() {
        let parsed = he_trace::events::parse_line(line)
            .unwrap_or_else(|e| panic!("event line {i} does not parse: {e}"));
        assert_eq!(parsed.to_json(), line, "event line {i} round-trip drifted");
        if parsed.kind == "complete" {
            completes += 1;
        }
    }
    assert_eq!(
        completes, report.completed,
        "one complete event per completed request"
    );
    println!(
        "event log: {} events, {} complete, all lines round-trip",
        events.lines().count(),
        completes
    );

    // ---- artifacts for CI
    let dir = std::path::Path::new("target/metrics-demo");
    std::fs::create_dir_all(dir).expect("create artifact dir");
    std::fs::write(dir.join("metrics.prom"), &final_scrape).expect("write scrape");
    std::fs::write(dir.join("events.jsonl"), &events).expect("write events");
    println!("artifacts written to {}", dir.display());

    println!("\n{}", engine.shutdown());
}
