//! chrome://tracing export — the Trace Event Format's complete-event
//! (`"ph": "X"`) flavor, serialized by hand (no serde). Load the output
//! in `chrome://tracing` or <https://ui.perfetto.dev>.

use crate::json::{self, escape_into};
use crate::span::SpanEvent;

/// Serialize spans to a chrome trace JSON document:
/// `{"traceEvents": [{"name":…,"cat":…,"ph":"X","ts":…,"dur":…,"pid":1,"tid":…}, …]}`.
///
/// Rejects events with non-finite or negative timestamps/durations —
/// silently clamping them (as earlier versions did) hides clock bugs
/// in the producer and a `NaN` would emit invalid JSON.
pub fn to_chrome_json(events: &[SpanEvent]) -> Result<String, String> {
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\"traceEvents\": [");
    for (i, ev) in events.iter().enumerate() {
        for (key, v) in [("ts", ev.start_us), ("dur", ev.dur_us)] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!(
                    "span {:?} (event {i}): {key} = {v} is not a finite non-negative \
                     microsecond count",
                    ev.name
                ));
            }
        }
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("{\"name\": \"");
        escape_into(&ev.name, &mut out);
        out.push_str("\", \"cat\": \"");
        escape_into(ev.cat, &mut out);
        out.push_str("\", \"ph\": \"X\", \"ts\": ");
        push_f64(ev.start_us, &mut out);
        out.push_str(", \"dur\": ");
        push_f64(ev.dur_us, &mut out);
        out.push_str(", \"pid\": 1, \"tid\": ");
        out.push_str(&ev.tid.to_string());
        out.push('}');
    }
    out.push_str("], \"displayTimeUnit\": \"ms\"}");
    Ok(out)
}

/// Validate a chrome-trace document: parses as JSON, has a
/// `traceEvents` array, and every event carries `name`/`ph`/`ts`/`dur`
/// /`tid` with the right types. Returns the event count.
pub fn validate_chrome_json(text: &str) -> Result<usize, String> {
    let doc = json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing \"traceEvents\" key")?
        .as_arr()
        .ok_or("\"traceEvents\" is not an array")?;
    for (i, ev) in events.iter().enumerate() {
        ev.get("name")
            .and_then(json::Value::as_str)
            .ok_or(format!("event {i}: missing string \"name\""))?;
        let ph = ev
            .get("ph")
            .and_then(json::Value::as_str)
            .ok_or(format!("event {i}: missing string \"ph\""))?;
        if ph != "X" {
            return Err(format!("event {i}: expected ph \"X\", got \"{ph}\""));
        }
        for key in ["ts", "dur", "tid"] {
            let n = ev
                .get(key)
                .and_then(json::Value::as_num)
                .ok_or(format!("event {i}: missing numeric \"{key}\""))?;
            if !n.is_finite() || n < 0.0 {
                return Err(format!(
                    "event {i}: \"{key}\" = {n} is not a finite non-negative number"
                ));
            }
        }
    }
    Ok(events.len())
}

/// Format a non-negative microsecond quantity with fixed sub-µs
/// precision (chrome accepts fractional `ts`). Finiteness is checked
/// by [`to_chrome_json`] before this runs.
fn push_f64(v: f64, out: &mut String) {
    out.push_str(&format!("{v:.3}"));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, start: f64, dur: f64, tid: u64) -> SpanEvent {
        SpanEvent {
            name: name.to_string(),
            cat: "test",
            start_us: start,
            dur_us: dur,
            tid,
        }
    }

    #[test]
    fn round_trips_through_validator() {
        let events = vec![
            ev("conv1", 0.0, 1500.25, 0),
            ev("unit \"7\"\\x", 12.5, 3.0, 1),
            ev("slaf·act", 20.0, 7.125, 2),
        ];
        let text = to_chrome_json(&events).unwrap();
        assert_eq!(validate_chrome_json(&text), Ok(3));
        // and the escaped name survives a parse
        let doc = json::parse(&text).unwrap();
        let arr = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(arr[1].get("name").unwrap().as_str(), Some("unit \"7\"\\x"));
    }

    #[test]
    fn empty_trace_is_valid() {
        let text = to_chrome_json(&[]).unwrap();
        assert_eq!(validate_chrome_json(&text), Ok(0));
    }

    #[test]
    fn hostile_span_name_with_control_characters_round_trips() {
        // Regression: raw control characters (BEL, ESC, NUL, VT) in a
        // span name must be \u-escaped, not emitted verbatim — a
        // terminal-escape payload in a layer name would otherwise
        // produce invalid JSON and a shell-injection-flavored trace.
        let hostile = "evil\u{0007}\u{001b}[31m\u{0000}name\u{000b}";
        let text = to_chrome_json(&[ev(hostile, 1.0, 2.0, 0)]).unwrap();
        assert!(!text.chars().any(|c| (c as u32) < 0x20 && c != '\n'));
        assert!(text.contains("\\u0007"));
        assert!(text.contains("\\u001b"));
        assert!(text.contains("\\u0000"));
        assert_eq!(validate_chrome_json(&text), Ok(1));
        let doc = json::parse(&text).unwrap();
        let arr = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].get("name").unwrap().as_str(), Some(hostile));
    }

    #[test]
    fn non_finite_and_negative_timestamps_are_rejected() {
        for (start, dur) in [
            (f64::NAN, 1.0),
            (1.0, f64::NAN),
            (f64::INFINITY, 1.0),
            (1.0, f64::NEG_INFINITY),
            (-5.0, 1.0),
            (1.0, -0.5),
        ] {
            let err = to_chrome_json(&[ev("bad", start, dur, 0)]).unwrap_err();
            assert!(err.contains("finite non-negative"), "got: {err}");
        }
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_json("{}").is_err());
        assert!(validate_chrome_json("{\"traceEvents\": 3}").is_err());
        assert!(
            validate_chrome_json("{\"traceEvents\": [{\"name\": \"a\", \"ph\": \"B\"}]}").is_err()
        );
        assert!(validate_chrome_json("not json").is_err());
    }
}
