//! [`ServeReport`]: a point-in-time snapshot of one engine's
//! [`he_trace::Registry`] instruments (see `metrics.rs`), rendered as
//! the shared text table.
//!
//! Latency-style summaries come from bounded log-bucketed histograms
//! ([`he_trace::hist`]): a server that runs for weeks holds the same
//! few KiB per summary, at the cost of ≤ 12.5% quantile error (count,
//! min, max and mean stay exact).

use cnn_he::LatencyStats;
use he_trace::Histogram;

/// [`LatencyStats`] (seconds) of a microsecond-tick duration histogram:
/// min/max/avg are exact, p50/p95 carry the bucket's ≤ 12.5% relative
/// error, std-dev comes from the exact sum of squares. `None` when
/// nothing was recorded.
pub(crate) fn summarize(h: &Histogram) -> Option<LatencyStats> {
    let s = h.snapshot();
    const TO_S: f64 = 1e-6;
    Some(LatencyStats {
        min: s.min as f64 * TO_S,
        max: s.max as f64 * TO_S,
        avg: s.mean()? * TO_S,
        p50: s.quantile_ticks(0.50)? as f64 * TO_S,
        p95: s.quantile_ticks(0.95)? as f64 * TO_S,
        std_dev: s.std_dev()? * TO_S,
    })
}

/// Point-in-time serving metrics, renderable as the shared text table.
#[derive(Debug, Clone)]
pub struct ServeReport {
    pub submitted: u64,
    pub completed: u64,
    /// Refused at admission (shape/lint).
    pub rejected: u64,
    /// Refused with queue-full backpressure.
    pub overloaded: u64,
    /// Answered with a deadline-exceeded error.
    pub timed_out: u64,
    /// Batches dispatched to the worker pool.
    pub batches: u64,
    /// Images those batches carried.
    pub batched_images: u64,
    /// Times the coalescing ceiling was halved after an overrun.
    pub degradations: u64,
    /// Requests waiting in the queue right now.
    pub queue_depth: usize,
    /// Current coalescing ceiling (== configured max batch unless the
    /// degradation ladder stepped down).
    pub effective_max_batch: usize,
    /// Submit → response latency of completed requests.
    pub request_latency: Option<LatencyStats>,
    /// Per-batch `wall / batch_size` — amortized per-image latency.
    pub amortized_per_image: Option<LatencyStats>,
    /// Queue residency (submit → batch dispatch) of batched requests.
    pub queue_wait: Option<LatencyStats>,
    /// Slack left at completion for deadline-carrying requests.
    pub deadline_slack: Option<LatencyStats>,
    /// Modular-arithmetic kernel backend the engine ran on
    /// (`scalar`/`avx2`/`avx512`/`neon`).
    pub backend: String,
}

impl ServeReport {
    /// Mean images per dispatched batch.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.batched_images as f64 / self.batches as f64
    }

    /// Column-aligned table via the shared he-trace formatter.
    pub fn render(&self) -> String {
        use he_trace::{Align, Table};
        let mut t = Table::new(&[("metric", Align::Left), ("value", Align::Right)]);
        let counts = [
            ("requests submitted", self.submitted),
            ("requests completed", self.completed),
            ("rejected (admission)", self.rejected),
            ("overloaded (queue full)", self.overloaded),
            ("timed out (deadline)", self.timed_out),
            ("batches executed", self.batches),
        ];
        t.row(vec!["kernel backend".into(), self.backend.clone()]);
        for (metric, v) in counts {
            t.row(vec![metric.into(), v.to_string()]);
        }
        t.row(vec![
            "mean batch size".into(),
            format!("{:.2}", self.mean_batch()),
        ]);
        for (metric, v) in [
            ("degradations", self.degradations),
            ("queue depth", self.queue_depth as u64),
            ("effective max batch", self.effective_max_batch as u64),
        ] {
            t.row(vec![metric.into(), v.to_string()]);
        }
        let summaries = [
            ("request latency", &self.request_latency, 3),
            ("amortized per image", &self.amortized_per_image, 4),
            ("queue wait", &self.queue_wait, 4),
            ("deadline slack", &self.deadline_slack, 4),
        ];
        for (metric, stats, digits) in summaries {
            if let Some(l) = stats {
                let (p50, p95) = (l.p50, l.p95);
                t.row(vec![
                    format!("{metric} p50/p95 (s)"),
                    format!("{p50:.digits$} / {p95:.digits$}"),
                ]);
            }
        }
        t.render()
    }
}

impl std::fmt::Display for ServeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServeConfig;
    use crate::metrics::EngineMetrics;
    use he_trace::{OpSnapshot, Registry};
    use std::time::Duration;

    fn seconds() -> Histogram {
        Registry::new().duration_histogram_with("t_seconds", "T.", &[])
    }

    #[test]
    fn snapshot_aggregates_counters_and_samples() {
        let m = EngineMetrics::new(&ServeConfig::default(), 8);
        for _ in 0..5 {
            m.on_submit();
        }
        m.on_rejected(1);
        m.on_batch(1, Duration::ZERO, &[Duration::ZERO], 0);
        m.on_batch(3, Duration::ZERO, &[Duration::ZERO; 3], 0);
        let wall = Duration::from_millis(150);
        m.on_exec(2, 3, wall, wall / 3, &OpSnapshot::default());
        m.on_complete(1, 1, None, Duration::from_millis(100));
        m.on_complete(2, 2, None, Duration::from_millis(300));
        let r = m.report(3, 8);
        assert_eq!(r.submitted, 5);
        assert_eq!((r.completed, r.rejected), (2, 1));
        assert_eq!((r.batches, r.batched_images), (2, 4));
        assert_eq!(r.queue_depth, 3);
        assert_eq!(r.effective_max_batch, 8);
        assert!((r.mean_batch() - 2.0).abs() < 1e-12);
        let lat = r.request_latency.unwrap();
        // count/min/max/avg are exact on the histogram summary
        assert!((lat.avg - 0.2).abs() < 1e-9);
        assert!((lat.min - 0.1).abs() < 1e-9);
        assert!((lat.max - 0.3).abs() < 1e-9);
        assert!((r.amortized_per_image.unwrap().avg - 0.05).abs() < 1e-9);
    }

    #[test]
    fn bounded_summary_count_parity_is_exact() {
        // The registry histogram behind every summary must never
        // miscount: record N samples, read back exactly N — and keep
        // memory constant however many samples arrive.
        let h = seconds();
        let n = 10_000u64;
        for i in 0..n {
            h.observe_duration(Duration::from_micros(17 * i % 3_000_000));
        }
        assert_eq!(h.snapshot().count, n);
        let stats = summarize(&h).unwrap();
        assert!(stats.min >= 0.0 && stats.max < 3.0);
    }

    #[test]
    fn bounded_summary_quantiles_track_exact_values() {
        let h = seconds();
        let mut exact: Vec<f64> = Vec::new();
        let mut x = 88_172_645_463_325_252u64;
        for _ in 0..2_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let us = 100 + (x % 500_000); // 100µs .. 0.5s
            exact.push(us as f64 * 1e-6);
            h.observe_duration(Duration::from_micros(us));
        }
        exact.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let got = summarize(&h).unwrap();
        for (q, g) in [(0.50, got.p50), (0.95, got.p95)] {
            let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
            let truth = exact[rank - 1];
            let rel = (g - truth).abs() / truth;
            assert!(rel <= 0.13, "q{q}: histogram {g} vs exact {truth}");
        }
        // mean and std-dev reconstruct within float tolerance
        let mean = exact.iter().sum::<f64>() / exact.len() as f64;
        assert!((got.avg - mean).abs() / mean < 1e-9);
    }

    #[test]
    fn report_renders_every_headline_metric() {
        let m = EngineMetrics::new(&ServeConfig::default(), 4);
        m.on_batch(1, Duration::ZERO, &[Duration::from_millis(2)], 0);
        m.on_complete(
            1,
            1,
            Some(Duration::from_millis(90)),
            Duration::from_millis(10),
        );
        let s = m.report(0, 4).render();
        for needle in [
            "requests submitted",
            "timed out",
            "overloaded",
            "mean batch size",
            "effective max batch",
            "request latency p50/p95",
            "queue wait p50/p95",
            "deadline slack p50/p95",
        ] {
            assert!(s.contains(needle), "missing {needle} in:\n{s}");
        }
    }

    #[test]
    fn empty_report_has_no_latency_rows() {
        let r = EngineMetrics::new(&ServeConfig::default(), 1).report(0, 1);
        assert_eq!(r.mean_batch(), 0.0);
        assert!(r.request_latency.is_none());
        assert!(r.queue_wait.is_none());
        assert!(r.deadline_slack.is_none());
        assert!(!r.render().contains("request latency"));
        assert!(!r.render().contains("queue wait"));
    }
}
