//! Canonical span category names.
//!
//! The `cat` field of a [`crate::SpanEvent`] groups spans into tracks
//! of related work in the chrome-trace export. Instrumented crates
//! share these constants instead of repeating string literals, so a
//! typo cannot silently split a category — and consumers filtering
//! events (`e.cat == cats::LAYER`) stay in sync with producers.

/// One network layer of an encrypted inference (conv, dense, SLAF).
pub const LAYER: &str = "layer";

/// One independent work unit inside a layer (an output scalar).
pub const UNIT: &str = "unit";

/// One HE primitive inside the evaluator (relin, keyswitch, rescale,
/// galois).
pub const HE: &str = "he";

/// Serving-engine events (he-serve): request enqueue, batch coalesce,
/// batch execution, shutdown drain.
pub const SERVE: &str = "serve";

/// Live-metrics machinery ([`crate::Registry`]): scrape handling, op-counter
/// bridge refreshes.
pub const METRICS: &str = "metrics";
