//! Engine tuning knobs.

use crate::ServeError;
use cnn_he::ExecMode;
use std::net::SocketAddr;
use std::time::Duration;

/// How worker pipelines pack coalesced requests into ciphertexts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Packing {
    /// Scalar CryptoNets engine: one ciphertext per activation scalar,
    /// requests batched across the slot dimension.
    #[default]
    Scalar,
    /// Slot-packed BSGS engine with the batch-strided layout
    /// ([`ckks::PackLayout`]): coalesced requests share one ciphertext
    /// (lane per request), spilling into shards past the lane capacity.
    /// The coalescing ceiling clamps to one shard's lane capacity so a
    /// batch is exactly one packed ciphertext.
    PackedBatch,
}

/// How every worker executes a pipeline's unit loops: one thread, so
/// concurrent workers never oversubscribe each other.
pub(crate) const EXEC_MODE: ExecMode = ExecMode::sequential();

/// Weight of the newest batch wall-clock in the engine's cost-model
/// EWMA ([`cnn_he::WallEwma`]).
pub(crate) const EWMA_ALPHA: f64 = 0.3;

/// Configuration of a [`crate::ServeEngine`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Most requests one slot-packed batch may coalesce. Clamped at
    /// start-up to the pipeline's slot count ([`cnn_he::CnnHePipeline::max_batch`]).
    pub max_batch: usize,
    /// How long the batcher lingers after the first request of a batch,
    /// waiting for more to coalesce. The window closes early when the
    /// batch fills or when a member's deadline leaves no slack for
    /// further waiting.
    pub max_linger: Duration,
    /// Bound of the request queue; a full queue refuses with
    /// [`crate::ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// Worker threads executing batches. Each worker owns its own
    /// pipeline (keys and all), built by the factory passed to
    /// [`crate::ServeEngine::start`], and runs it one thread wide
    /// ([`cnn_he::ExecMode::sequential`]).
    pub workers: usize,
    /// Deadline budget applied to requests submitted without an
    /// explicit one. `None` = no deadline. After a batch overruns a
    /// member's deadline the engine retries batching at half the
    /// coalescing ceiling (floor 1), recovering multiplicatively on
    /// clean batches.
    pub default_deadline: Option<Duration>,
    /// Bind address for the live `/metrics` + `/health` HTTP endpoint
    /// (`127.0.0.1:0` picks a free port; read it back via
    /// [`crate::ServeEngine::metrics_addr`]). `None` = no endpoint.
    /// A failed bind makes `start` fail with
    /// [`crate::ServeError::MetricsUnavailable`].
    pub metrics_addr: Option<SocketAddr>,
    /// Capacity of the per-request JSONL event log ring (`0` = no
    /// event log). Oldest events are evicted when full, so memory
    /// stays constant however long the engine runs.
    pub event_log_capacity: usize,
    /// Ciphertext packing strategy of the worker pipelines. With
    /// [`Packing::PackedBatch`], `start` calls
    /// [`cnn_he::CnnHePipeline::enable_packed_batching`] on every
    /// worker pipeline and fails with [`crate::ServeError::Rejected`]
    /// when the network's packed dimension does not fit the ring.
    pub packing: Packing,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 8,
            max_linger: Duration::from_millis(25),
            queue_capacity: 64,
            workers: 1,
            default_deadline: None,
            metrics_addr: None,
            event_log_capacity: 0,
            packing: Packing::default(),
        }
    }
}

impl ServeConfig {
    /// Refuses nonsensical settings with [`ServeError::Rejected`]
    /// naming the field; run before any pipeline is built.
    pub(crate) fn validate(&self) -> Result<(), ServeError> {
        let refusal = [
            (self.max_batch == 0, "max_batch must be >= 1"),
            (self.queue_capacity == 0, "queue_capacity must be >= 1"),
            (self.workers == 0, "workers must be >= 1"),
        ]
        .into_iter()
        .find_map(|(bad, reason)| bad.then(|| reason.to_string()));
        refusal.map_or(Ok(()), |reason| Err(ServeError::Rejected { reason }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeEngine;
    use cnn_he::CnnHePipeline;

    /// `start` on `cfg` must refuse typed, naming `field`, before it
    /// builds a single pipeline.
    fn refused(cfg: ServeConfig, field: &str) {
        let no_pipeline = || -> CnnHePipeline { unreachable!("a bad config builds no pipeline") };
        match ServeEngine::start(cfg, no_pipeline).err() {
            Some(ServeError::Rejected { reason }) => assert!(reason.contains(field), "{reason}"),
            other => panic!("expected Rejected naming {field}, got {other:?}"),
        }
    }

    #[test]
    fn default_config_is_valid() {
        assert_eq!(ServeConfig::default().validate(), Ok(()));
    }

    #[test]
    fn zero_max_batch_rejected() {
        let cfg = ServeConfig {
            max_batch: 0,
            ..Default::default()
        };
        refused(cfg, "max_batch");
    }

    #[test]
    fn zero_queue_capacity_rejected() {
        let cfg = ServeConfig {
            queue_capacity: 0,
            ..Default::default()
        };
        refused(cfg, "queue_capacity");
    }

    #[test]
    fn zero_workers_rejected() {
        let cfg = ServeConfig {
            workers: 0,
            ..Default::default()
        };
        refused(cfg, "workers");
    }
}
