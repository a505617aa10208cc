//! Bounded per-request event log with JSONL serialization.
//!
//! One [`Event`] per lifecycle step (`enqueue` → `batch` → `exec` →
//! `complete`/`shed`), each carrying the request/batch ids that stitch
//! a request's story together and a flat list of numeric fields
//! (deadline slack, queue wait, HE op deltas, …). The log is a fixed-
//! capacity ring: when full, the oldest event is dropped and a counter
//! bumped, so a long-running server holds memory constant and the
//! tail of recent traffic stays explainable.
//!
//! Serialization is line-oriented JSON (`to_jsonl`); [`parse_line`]
//! is the strict inverse used by round-trip tests and CI validation.

use crate::json::{self, Value};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Lifecycle step an event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Request admitted into the queue.
    Enqueue,
    /// Batch coalesced and dispatched to the worker pool.
    Batch,
    /// Batch executed (wall time + HE op deltas).
    Exec,
    /// Request answered successfully.
    Complete,
    /// Request shed (deadline passed before or during execution).
    Shed,
}

impl EventKind {
    const ALL: [Self; 5] = [
        Self::Enqueue,
        Self::Batch,
        Self::Exec,
        Self::Complete,
        Self::Shed,
    ];

    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Enqueue => "enqueue",
            EventKind::Batch => "batch",
            EventKind::Exec => "exec",
            EventKind::Complete => "complete",
            EventKind::Shed => "shed",
        }
    }
}

/// One structured event. Field names are static (the writer owns the
/// vocabulary); values are numeric — integers survive the `f64`
/// round-trip exactly below 2^53.
#[derive(Debug, Clone)]
pub struct Event {
    /// Microseconds since the log's owner started.
    pub ts_us: u64,
    pub kind: EventKind,
    pub request: Option<u64>,
    pub batch: Option<u64>,
    pub fields: Vec<(&'static str, f64)>,
}

impl Event {
    /// Canonical single-line JSON: `ts_us`, `kind`, then `request` /
    /// `batch` when present, then fields in insertion order.
    #[must_use]
    pub fn to_json(&self) -> String {
        write_json(
            self.ts_us,
            self.kind.as_str(),
            self.request,
            self.batch,
            self.fields.iter().map(|(k, v)| (*k, *v)),
        )
    }
}

/// The one serializer behind [`Event::to_json`] and
/// [`ParsedEvent::to_json`]. Numbers use shortest-round-trip
/// formatting, so integral values print without a fractional part.
fn write_json<'a>(
    ts_us: u64,
    kind: &str,
    request: Option<u64>,
    batch: Option<u64>,
    fields: impl Iterator<Item = (&'a str, f64)>,
) -> String {
    let mut out = format!("{{\"ts_us\":{ts_us},\"kind\":\"{kind}\"");
    if let Some(r) = request {
        out.push_str(&format!(",\"request\":{r}"));
    }
    if let Some(b) = batch {
        out.push_str(&format!(",\"batch\":{b}"));
    }
    for (k, v) in fields {
        out.push_str(&format!(",\"{k}\":{v}"));
    }
    out.push('}');
    out
}

/// Fixed-capacity ring of events.
pub struct EventLog {
    capacity: usize,
    ring: Mutex<VecDeque<Event>>,
    dropped: AtomicU64,
}

impl EventLog {
    /// `capacity` must be at least 1.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "event log capacity must be >= 1");
        Self {
            capacity,
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            dropped: AtomicU64::new(0),
        }
    }

    /// Append, evicting the oldest event when full.
    pub fn push(&self, event: Event) {
        let mut ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }

    /// Events evicted so far (ring overflow).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Owned copy of the current ring contents, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Event> {
        self.ring
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .cloned()
            .collect()
    }

    /// The whole ring as JSON Lines (one event per line, oldest first).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.snapshot() {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }
}

/// An event read back from JSONL. Mirrors [`Event`] with owned keys.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedEvent {
    pub ts_us: u64,
    pub kind: String,
    pub request: Option<u64>,
    pub batch: Option<u64>,
    pub fields: Vec<(String, f64)>,
}

impl ParsedEvent {
    /// Re-serialize in the writer's canonical form; equal to the
    /// original line for any line [`Event::to_json`] produced.
    #[must_use]
    pub fn to_json(&self) -> String {
        write_json(
            self.ts_us,
            &self.kind,
            self.request,
            self.batch,
            self.fields.iter().map(|(k, v)| (k.as_str(), *v)),
        )
    }
}

/// Strictly parse one JSONL event line: a flat object whose values
/// are numbers, except the `kind` string. Reads through
/// [`crate::json::parse`].
pub fn parse_line(line: &str) -> Result<ParsedEvent, String> {
    let Value::Obj(pairs) = json::parse(line)? else {
        return Err(format!("not a JSON object: {line:?}"));
    };
    let (mut ts_us, mut kind, mut request, mut batch) = (None, None, None, None);
    let mut fields = Vec::new();
    for (key, value) in &pairs {
        match (key.as_str(), value) {
            ("kind", Value::Str(s)) => {
                if !EventKind::ALL.iter().any(|k| k.as_str() == s) {
                    return Err(format!("unknown kind {s:?}"));
                }
                kind = Some(s.clone());
            }
            (k, Value::Num(v)) if !v.is_finite() => {
                return Err(format!("non-finite value for {k:?}"))
            }
            ("ts_us", Value::Num(v)) => ts_us = Some(integer(*v, "ts_us")?),
            ("request", Value::Num(v)) => request = Some(integer(*v, "request")?),
            ("batch", Value::Num(v)) => batch = Some(integer(*v, "batch")?),
            (_, Value::Num(v)) => fields.push((key.clone(), *v)),
            (k, other) => return Err(format!("unexpected value {other:?} for key {k:?}")),
        }
    }
    Ok(ParsedEvent {
        ts_us: ts_us.ok_or("missing ts_us")?,
        kind: kind.ok_or("missing kind")?,
        request,
        batch,
        fields,
    })
}

fn integer(v: f64, key: &str) -> Result<u64, String> {
    if v >= 0.0 && v.fract() == 0.0 && v < u64::MAX as f64 {
        Ok(v as u64)
    } else {
        Err(format!("bad integer for {key:?}: {v}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                ts_us: 12,
                kind: EventKind::Enqueue,
                request: Some(1),
                batch: None,
                fields: vec![("budget_us", 250_000.0)],
            },
            Event {
                ts_us: 900,
                kind: EventKind::Batch,
                request: None,
                batch: Some(1),
                fields: vec![("size", 3.0), ("linger_us", 888.0)],
            },
            Event {
                ts_us: 5_000,
                kind: EventKind::Complete,
                request: Some(1),
                batch: Some(1),
                fields: vec![("latency_us", 4_988.0), ("slack_us", 245_012.0)],
            },
        ]
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let log = EventLog::new(16);
        for e in sample_events() {
            log.push(e);
        }
        let jsonl = log.to_jsonl();
        for line in jsonl.lines() {
            let parsed = parse_line(line).expect("line must parse");
            assert_eq!(parsed.to_json(), line, "round-trip mismatch");
        }
        assert_eq!(jsonl.lines().count(), 3);
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let log = EventLog::new(2);
        for i in 0..5 {
            log.push(Event {
                ts_us: i,
                kind: EventKind::Enqueue,
                request: Some(i),
                batch: None,
                fields: vec![],
            });
        }
        let snap = log.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(log.dropped(), 3);
        // Oldest evicted first: the survivors are the newest two.
        assert_eq!(snap[0].ts_us, 3);
        assert_eq!(snap[1].ts_us, 4);
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_line("not json").is_err());
        assert!(parse_line("{\"kind\":\"enqueue\"}").is_err()); // missing ts_us
        assert!(parse_line("{\"ts_us\":1}").is_err()); // missing kind
        assert!(parse_line("{\"ts_us\":1,\"kind\":\"warp\"}").is_err()); // unknown kind
        assert!(parse_line("{\"ts_us\":1,\"kind\":\"exec\",\"x\":\"y\"}").is_err());
    }

    #[test]
    fn integral_fields_survive_f64_round_trip() {
        let e = Event {
            ts_us: 1,
            kind: EventKind::Exec,
            request: None,
            batch: Some(9),
            fields: vec![("ntt", 123_456_789.0), ("wall_us", 0.5)],
        };
        let parsed = parse_line(&e.to_json()).unwrap();
        assert_eq!(parsed.to_json(), e.to_json());
        assert_eq!(parsed.fields[0], ("ntt".to_string(), 123_456_789.0));
        assert_eq!(parsed.fields[1], ("wall_us".to_string(), 0.5));
    }
}
