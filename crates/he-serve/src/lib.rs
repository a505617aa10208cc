//! # he-serve — deadline-aware batched serving for encrypted inference
//!
//! A zero-external-dependency serving engine over
//! [`cnn_he::CnnHePipeline`]. Individually submitted images are
//! coalesced into slot-packed CKKS batches — the scalar-batch packing
//! means a batch of `k` images costs the *same* HE work as one, so
//! every co-passenger the batcher finds divides the per-image cost —
//! executed on a worker pool, and fanned back to per-request handles.
//!
//! ```text
//!  submit() ──admission──► bounded queue ──► micro-batcher ──► workers
//!     ▲                        │ full?            │ coalesce      │
//!     └── ResponseHandle ◄─────┴─ Overloaded      │ ≤ ceiling     │
//!              ▲                                  │ or linger     │
//!              └──────────── result fan-out ◄─────┴───────────────┘
//! ```
//!
//! Robustness guarantees (see [`engine`] for the full list):
//! static admission (the he-ir passes over the network's circuit)
//! before anything is enqueued,
//! bounded-queue backpressure ([`ServeError::Overloaded`]), typed
//! per-request deadlines ([`ServeError::DeadlineExceeded`] — never a
//! stale answer), a degradation ladder that halves the coalescing
//! ceiling after deadline overruns, and drain-on-shutdown.
//!
//! ```no_run
//! use he_serve::{ServeConfig, ServeEngine};
//!
//! let engine = ServeEngine::start(ServeConfig::default(), || {
//!     cnn_he::CnnHePipeline::new(my_network(), 1 << 12, 7)
//! })
//! .expect("network passes admission");
//! let handle = engine.submit(vec![0.5; 28 * 28]).expect("queued");
//! let result = handle.wait().expect("served");
//! println!("class {} (batch of {})", result.prediction, result.batch_size);
//! println!("{}", engine.shutdown());
//! # fn my_network() -> cnn_he::HeNetwork { unimplemented!() }
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
pub mod error;
pub(crate) mod metrics;
pub mod queue;
pub mod response;
pub mod stats;

pub use config::{Packing, ServeConfig};
pub use engine::ServeEngine;
pub use error::ServeError;
pub use response::{ResponseHandle, ServeResult};
pub use stats::ServeReport;
