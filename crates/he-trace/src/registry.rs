//! Metric families, instrument handles, and Prometheus rendering.
//!
//! A [`Registry`] owns named families of series (one series per label
//! set). Registration is idempotent — asking for the same
//! `(name, labels)` twice returns a handle to the same underlying
//! instrument — so call sites don't need set-up ceremony. Handles are
//! cheap `Arc` clones; the hot path (`inc`/`set`/`observe_*`) never
//! touches the registry lock, only the instrument's own atomics.
//!
//! Rendering ([`Registry::render`]) emits the Prometheus text
//! exposition format (`text/plain; version=0.0.4`): `# HELP` /
//! `# TYPE` headers, one sample line per series, and for histograms
//! the cumulative `_bucket{le=...}` / `_sum` / `_count` triplet with
//! empty buckets elided (cumulative counts stay correct — sparse
//! bounds are standard practice).

use crate::expo::escape_label_value;
use crate::hist::{bucket_upper, HistogramCore, HistogramSnapshot};
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Instrument kind, mirrored in `# TYPE` lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// Monotonic counter handle.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn inc(&self, by: u64) {
        self.0.fetch_add(by, Relaxed);
    }

    #[must_use]
    pub fn value(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// Gauge handle (an `f64` that can move both ways).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Relaxed);
    }

    pub fn add(&self, delta: f64) {
        let mut cur = self.0.load(Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self.0.compare_exchange_weak(cur, next, Relaxed, Relaxed) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    #[must_use]
    pub fn value(&self) -> f64 {
        f64::from_bits(self.0.load(Relaxed))
    }
}

/// Histogram handle. Records integer ticks; the family's
/// ticks-per-unit divisor only affects exposition, so a duration
/// histogram records microseconds and exposes seconds.
#[derive(Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Histogram {
    pub fn observe_ticks(&self, v: u64) {
        self.core.record(v);
    }

    /// Record a duration in microsecond ticks. Only meaningful on
    /// histograms created via [`Registry::duration_histogram_with`].
    pub fn observe_duration(&self, d: Duration) {
        self.core
            .record(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.core.snapshot()
    }
}

enum Instrument {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCore>),
}

struct Series {
    labels: Vec<(String, String)>,
    instrument: Instrument,
}

struct Family {
    name: String,
    help: String,
    kind: Kind,
    /// Ticks per exposed unit: histogram bounds and sums are divided
    /// by this when rendered (1e6 for microsecond ticks -> seconds).
    ticks_per_unit: f64,
    series: Vec<Series>,
}

type Collector = Box<dyn Fn() + Send + Sync>;

/// A set of metric families. One per engine, plus the process-global
/// [`crate::global`] one for gauges exported outside any engine (e.g.
/// per-layer noise headroom).
#[derive(Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
    collectors: Mutex<Vec<Collector>>,
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with(|c: char| c.is_ascii_digit())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with(|c: char| c.is_ascii_digit())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

impl Registry {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or look up) a counter with no labels.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Register (or look up) a labelled counter series.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.instrument(name, help, Kind::Counter, 1.0, labels) {
            Instrument::Counter(c) => Counter(c),
            _ => unreachable!(),
        }
    }

    /// Register (or look up) a gauge with no labels.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Register (or look up) a labelled gauge series.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.instrument(name, help, Kind::Gauge, 1.0, labels) {
            Instrument::Gauge(g) => Gauge(g),
            _ => unreachable!(),
        }
    }

    /// Register (or look up) a histogram over raw ticks (sizes,
    /// counts — exposed unscaled).
    pub fn histogram_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        self.histogram(name, help, 1.0, labels)
    }

    /// Register (or look up) a duration histogram: records microsecond
    /// ticks, exposes seconds (Prometheus base-unit convention).
    pub fn duration_histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Histogram {
        self.histogram(name, help, 1e6, labels)
    }

    fn histogram(&self, name: &str, help: &str, ticks: f64, labels: &[(&str, &str)]) -> Histogram {
        match self.instrument(name, help, Kind::Histogram, ticks, labels) {
            Instrument::Histogram(core) => Histogram { core },
            _ => unreachable!(),
        }
    }

    /// Register a callback run at the start of every [`render`]
    /// (scrape-time refresh — e.g. the he-trace op-counter bridge).
    /// Collectors may update instruments through held handles but must
    /// not call back into this registry (the collector lock is held).
    ///
    /// [`render`]: Registry::render
    pub fn register_collector(&self, f: impl Fn() + Send + Sync + 'static) {
        self.collectors
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Box::new(f));
    }

    fn instrument(
        &self,
        name: &str,
        help: &str,
        kind: Kind,
        ticks_per_unit: f64,
        labels: &[(&str, &str)],
    ) -> Instrument {
        assert!(valid_name(name), "invalid metric name {name:?}");
        for (k, _) in labels {
            assert!(valid_label(k), "invalid label name {k:?} on {name}");
        }
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect();
        labels.sort();
        let mut families = self.families.lock().unwrap_or_else(PoisonError::into_inner);
        let family = match families.iter_mut().find(|f| f.name == name) {
            Some(f) => {
                assert!(
                    f.kind == kind,
                    "metric {name} re-registered as {} (was {})",
                    kind.as_str(),
                    f.kind.as_str()
                );
                f
            }
            None => {
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    ticks_per_unit,
                    series: Vec::new(),
                });
                families.last_mut().expect("just pushed")
            }
        };
        if let Some(s) = family.series.iter().find(|s| s.labels == labels) {
            return clone_instrument(&s.instrument);
        }
        let instrument = match kind {
            Kind::Counter => Instrument::Counter(Arc::new(AtomicU64::new(0))),
            Kind::Gauge => Instrument::Gauge(Arc::new(AtomicU64::new(0.0f64.to_bits()))),
            Kind::Histogram => Instrument::Histogram(Arc::new(HistogramCore::new())),
        };
        let handle = clone_instrument(&instrument);
        family.series.push(Series { labels, instrument });
        handle
    }

    /// Render the full registry in Prometheus text exposition format.
    /// Runs registered collectors first so bridged values are fresh.
    #[must_use]
    pub fn render(&self) -> String {
        for collect in self
            .collectors
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
        {
            collect();
        }
        let families = self.families.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = String::new();
        for f in families.iter() {
            // writing into a String cannot fail
            let _ = writeln!(out, "# HELP {} {}", f.name, escape_help(&f.help));
            let _ = writeln!(out, "# TYPE {} {}", f.name, f.kind.as_str());
            for s in &f.series {
                render_series(&mut out, f, s);
            }
        }
        out
    }
}

fn clone_instrument(i: &Instrument) -> Instrument {
    match i {
        Instrument::Counter(c) => Instrument::Counter(Arc::clone(c)),
        Instrument::Gauge(g) => Instrument::Gauge(Arc::clone(g)),
        Instrument::Histogram(h) => Instrument::Histogram(Arc::clone(h)),
    }
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label_value(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// One series' sample lines. Floats print with `Display`, Rust's
/// shortest exact round-trip form, never in exponent notation.
fn render_series(out: &mut String, family: &Family, series: &Series) {
    let (name, labels) = (&family.name, &series.labels);
    let plain = label_block(labels, None);
    let _ = match &series.instrument {
        Instrument::Counter(c) => writeln!(out, "{name}{plain} {}", c.load(Relaxed)),
        Instrument::Gauge(g) => writeln!(out, "{name}{plain} {}", f64::from_bits(g.load(Relaxed))),
        Instrument::Histogram(h) => {
            let snap = h.snapshot();
            let mut cum = 0u64;
            for (idx, &n) in snap.buckets.iter().enumerate().filter(|(_, &n)| n > 0) {
                cum += n;
                let le = (bucket_upper(idx) as f64 / family.ticks_per_unit).to_string();
                let le = label_block(labels, Some(("le", &le)));
                let _ = writeln!(out, "{name}_bucket{le} {cum}");
            }
            let inf = label_block(labels, Some(("le", "+Inf")));
            let sum = snap.sum as f64 / family.ticks_per_unit;
            let _ = writeln!(out, "{name}_bucket{inf} {}", snap.count);
            let _ = writeln!(out, "{name}_sum{plain} {sum}");
            writeln!(out, "{name}_count{plain} {}", snap.count)
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let r = Registry::new();
        let a = r.counter("requests_total", "Requests.");
        let b = r.counter("requests_total", "Requests.");
        a.inc(2);
        b.inc(3);
        assert_eq!(a.value(), 5);
    }

    #[test]
    fn labelled_series_are_distinct() {
        let r = Registry::new();
        let ok = r.counter_with("req_total", "Requests.", &[("outcome", "ok")]);
        let err = r.counter_with("req_total", "Requests.", &[("outcome", "err")]);
        ok.inc(7);
        err.inc(1);
        assert_eq!(ok.value(), 7);
        assert_eq!(err.value(), 1);
        let text = r.render();
        assert!(text.contains("req_total{outcome=\"ok\"} 7"));
        assert!(text.contains("req_total{outcome=\"err\"} 1"));
    }

    #[test]
    fn label_order_does_not_split_series() {
        let r = Registry::new();
        let a = r.counter_with("x_total", "X.", &[("a", "1"), ("b", "2")]);
        let b = r.counter_with("x_total", "X.", &[("b", "2"), ("a", "1")]);
        a.inc(1);
        assert_eq!(b.value(), 1);
    }

    #[test]
    #[should_panic(expected = "re-registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("m", "M.");
        let _ = r.gauge("m", "M.");
    }

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let r = Registry::new();
        let h = r.duration_histogram_with("lat_seconds", "Latency.", &[]);
        h.observe_duration(Duration::from_micros(5));
        h.observe_duration(Duration::from_micros(5));
        h.observe_duration(Duration::from_millis(2));
        let text = r.render();
        assert!(text.contains("# TYPE lat_seconds histogram"));
        assert!(text.contains("lat_seconds_bucket{le=\"0.000005\"} 2"));
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("lat_seconds_count 3"));
        // sum = 5 + 5 + 2000 µs = 0.00201 s
        assert!(text.contains("lat_seconds_sum 0.00201"));
    }

    #[test]
    fn collectors_run_on_render() {
        let r = Registry::new();
        let c = r.counter("bridged_total", "Bridged.");
        r.register_collector(move || c.inc(1));
        let t1 = r.render();
        assert!(t1.contains("bridged_total 1"));
        let t2 = r.render();
        assert!(t2.contains("bridged_total 2"));
    }

    #[test]
    fn gauge_set_and_add() {
        let r = Registry::new();
        let g = r.gauge("depth", "Depth.");
        g.set(4.0);
        g.add(-1.5);
        assert!((g.value() - 2.5).abs() < 1e-12);
        assert!(r.render().contains("depth 2.5"));
    }
}
