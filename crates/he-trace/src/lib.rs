//! # he-trace
//!
//! Zero-external-dependency telemetry for the encrypted-inference
//! stack: what happened in a run (counters, spans, exported traces)
//! and what is happening while a server is up (live instruments
//! scraped over HTTP).
//!
//! * **Counters** ([`counters`]) — process-global atomic counters for HE
//!   primitives (NTTs, limb modmuls, rotations, relinearizations,
//!   rescales, key switches, CRT codec calls). Instrumented crates call
//!   `record_*` once per primitive; consumers diff [`OpSnapshot`]s
//!   around a region to attribute work.
//! * **Spans** ([`mod@span`]) — RAII wall-clock spans with thread identity,
//!   recorded only while a [`TraceSession`] has recording switched on.
//!   Works under the vendored rayon pool: each OS thread gets a stable
//!   small integer id, so parallel unit execution shows up as parallel
//!   tracks in the exported trace.
//! * **Export** ([`chrome`], [`folded`]) — hand-rolled serializers (no
//!   serde) for chrome://tracing JSON and flamegraph folded stacks,
//!   plus a minimal JSON parser ([`json`]) — the one JSON reader of the
//!   workspace: traces, bench baselines and event-log lines all parse
//!   through it.
//! * **Reporting** ([`report`], [`table`]) — a `TraceReport` per-layer
//!   breakdown table and the shared column-aligned text-table
//!   formatter.
//! * **Live metrics** — a [`Registry`] of typed instruments (monotonic
//!   [`Counter`]s, [`Gauge`]s, log-bucketed [`Histogram`]s from
//!   [`hist`] with lock-free recording) rendered to the Prometheus text
//!   format; [`expo`], a strict parser for that format; a minimal
//!   `/metrics` + `/health` endpoint ([`MetricsServer`], [`http`]); and
//!   [`events`], a bounded JSONL per-request event log.
//!
//! ## Zero-cost when disabled
//!
//! All instrumentation entry points (`record_*`, [`span::span`],
//! recording control, and the [`gauge_set`] / [`counter_add`] helpers
//! on the process-global registry) are `#[inline]` empty bodies unless
//! the crate is built with the `enabled` feature; instrumented hot
//! paths compile to the uninstrumented machine code. Consumer crates
//! forward their own default-on `trace` feature to `he-trace/enabled`,
//! so `--no-default-features` builds prove the no-op path compiles.
//! The registry types themselves are always available: an engine that
//! owns a [`Registry`] records into it unconditionally.

#![forbid(unsafe_code)]

pub mod cats;
pub mod chrome;
pub mod counters;
pub mod events;
pub mod expo;
pub mod folded;
pub mod hist;
pub mod http;
pub mod json;
pub mod registry;
pub mod report;
pub mod span;
pub mod table;

pub use chrome::{to_chrome_json, validate_chrome_json};
pub use counters::{
    record_crt_decompose, record_crt_recompose, record_ct_mult, record_fault_detected,
    record_fault_injected, record_keyswitch, record_modmul_limbs, record_ntt_fwd, record_ntt_inv,
    record_relin, record_rescale, record_rotation, record_scalar_mac, FaultSnapshot, OpSnapshot,
};
pub use folded::to_folded_stacks;
pub use http::MetricsServer;
pub use registry::{Counter, Gauge, Histogram, Kind, Registry};
pub use report::{TraceReport, TraceRow, UnitStats};
pub use span::{is_recording, span, span_fn, span_owned, SpanEvent, SpanGuard, TraceSession};
pub use table::{Align, Table};

use std::sync::{Arc, OnceLock};

/// The process-global registry, for metrics exported outside any
/// engine (e.g. per-layer noise headroom after a traced inference).
#[must_use]
pub fn global() -> Arc<Registry> {
    static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
    Arc::clone(GLOBAL.get_or_init(|| Arc::new(Registry::new())))
}

/// Set a gauge on the global registry. No-op (and no global registry
/// is ever created) unless the `enabled` feature is on.
#[inline]
pub fn gauge_set(name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
    #[cfg(feature = "enabled")]
    global().gauge_with(name, help, labels).set(value);
    #[cfg(not(feature = "enabled"))]
    let _ = (name, help, labels, value);
}

/// Add to a counter on the global registry. No-op unless the
/// `enabled` feature is on.
#[inline]
pub fn counter_add(name: &str, help: &str, labels: &[(&str, &str)], by: u64) {
    #[cfg(feature = "enabled")]
    global().counter_with(name, help, labels).inc(by);
    #[cfg(not(feature = "enabled"))]
    let _ = (name, help, labels, by);
}

#[cfg(test)]
mod global_tests {
    #[test]
    fn global_facade_registers_and_renders() {
        super::gauge_set("lib_test_gauge", "Test gauge.", &[("k", "v")], 2.5);
        super::counter_add("lib_test_total", "Test counter.", &[], 3);
        let text = super::global().render();
        // the helpers record only with `enabled`; the registry always works
        let on = cfg!(feature = "enabled");
        assert_eq!(text.contains("lib_test_gauge{k=\"v\"} 2.5"), on, "{text}");
        assert_eq!(text.contains("lib_test_total 3"), on, "{text}");
        super::global().gauge("lib_test_direct", "Direct.").set(1.0);
        assert!(super::global().render().contains("lib_test_direct 1"));
    }
}
