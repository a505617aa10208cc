//! Throughput analysis — the Lo-La/E2DM-style amortized view.
//!
//! The scalar packing carries a *batch* of images through the CKKS
//! slots at no extra homomorphic cost, so latency per classification
//! request and amortized latency per image diverge by up to the slot
//! count. E2DM's Table I row ("ten likelihoods of 64 MNIST images in
//! 1.69 s") is exactly this effect; this module quantifies it for our
//! engine.

use std::time::Duration;

/// Throughput summary for a batched encrypted classification.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputReport {
    /// Number of images in the batch.
    pub batch: usize,
    /// Measured wall-clock of the request.
    pub request_latency: Duration,
    /// Amortized latency per image.
    pub per_image: Duration,
    /// Images per second.
    pub images_per_sec: f64,
}

/// Throughput of a request that took `wall` for `batch` images. `None`
/// for an empty batch — there is no per-image latency of zero images
/// (consistent with the zero-duration guards in
/// [`crate::metrics::LatencyStats`]).
pub fn throughput(wall: Duration, batch: usize) -> Option<ThroughputReport> {
    if batch == 0 {
        return None;
    }
    // zero wall (sub-resolution clocks) must not become a division
    // blow-up: report zero throughput rather than an absurd 10^12
    // images/s from an epsilon clamp
    let images_per_sec = if wall.is_zero() {
        0.0
    } else {
        batch as f64 / wall.as_secs_f64()
    };
    Some(ThroughputReport {
        batch,
        request_latency: wall,
        per_image: wall / u32::try_from(batch).unwrap_or(u32::MAX),
        images_per_sec,
    })
}

impl std::fmt::Display for ThroughputReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "batch {:>5}: request {:.2}s, {:.4}s/image, {:.1} images/s",
            self.batch,
            self.request_latency.as_secs_f64(),
            self.per_image.as_secs_f64(),
            self.images_per_sec
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WALL: Duration = Duration::from_millis(250);

    #[test]
    fn amortization_scales_linearly_in_batch() {
        let r1 = throughput(WALL, 1).unwrap();
        let r64 = throughput(WALL, 64).unwrap();
        // same request latency, 64× better per-image
        assert_eq!(r1.request_latency, r64.request_latency);
        assert!((r64.per_image.as_secs_f64() * 64.0 - r1.per_image.as_secs_f64()).abs() < 1e-9);
        assert!(r64.images_per_sec > r1.images_per_sec * 60.0);
    }

    #[test]
    fn measured_throughput_uses_wall_field() {
        let r = throughput(WALL, 10).unwrap();
        assert_eq!(r.request_latency, Duration::from_millis(250));
        assert_eq!(r.per_image, Duration::from_millis(25));
    }

    #[test]
    fn zero_batch_yields_none_not_panic() {
        // a drained serving batch or an empty accuracy pass must not
        // abort the process on the old `assert!(batch >= 1)`
        assert!(throughput(WALL, 0).is_none());
    }

    #[test]
    fn zero_wall_reports_zero_throughput() {
        // a zero wall (clocks below resolution) must not divide by zero
        // or report astronomically large throughput
        let r = throughput(Duration::ZERO, 4).unwrap();
        assert_eq!(r.request_latency, Duration::ZERO);
        assert_eq!(r.per_image, Duration::ZERO);
        assert_eq!(r.images_per_sec, 0.0);
    }

    #[test]
    fn display_formats() {
        let s = throughput(WALL, 2).unwrap().to_string();
        assert!(s.contains("batch"));
        assert!(s.contains("images/s"));
    }
}
