//! Strict parser for the Prometheus text exposition format.
//!
//! Accepts exactly the subset [`crate::Registry::render`] emits
//! (which is valid Prometheus 0.0.4 text): `# HELP` / `# TYPE`
//! headers followed by that family's contiguous sample lines. Used by
//! round-trip tests and by CI to validate live scrapes — a scrape
//! that fails this parser is a bug, so the parser errs on the side of
//! rejecting.
//!
//! Structural checks beyond the line grammar:
//! - `# TYPE` precedes a family's samples; duplicate families are
//!   rejected; samples must belong to the most recent family.
//! - histogram series must carry ascending `le` bounds with
//!   nondecreasing cumulative counts, a `+Inf` bucket, and `_count`
//!   equal to the `+Inf` cumulative count.
//! - counter sample values must be finite and non-negative.

use crate::registry::Kind;

/// Escape a label value for exposition (`\\`, `\"`, `\n`).
#[must_use]
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// One parsed sample line.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Full sample name (`family`, `family_bucket`, `family_sum`, …).
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

/// One parsed family (a `# TYPE` block and its samples).
#[derive(Debug, Clone)]
pub struct ParsedFamily {
    pub name: String,
    pub help: Option<String>,
    pub kind: Kind,
    pub samples: Vec<Sample>,
}

/// A fully parsed scrape.
#[derive(Debug, Clone, Default)]
pub struct Exposition {
    pub families: Vec<ParsedFamily>,
}

impl Exposition {
    #[must_use]
    pub fn family(&self, name: &str) -> Option<&ParsedFamily> {
        self.families.iter().find(|f| f.name == name)
    }

    /// Value of the sample with this exact name and label set (label
    /// order-insensitive). For histograms pass the suffixed name
    /// (`..._count`, `..._sum`, `..._bucket` with its `le`).
    #[must_use]
    pub fn value(&self, sample_name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let mut want: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect();
        want.sort();
        for f in &self.families {
            for s in &f.samples {
                if s.name != sample_name {
                    continue;
                }
                let mut got = s.labels.clone();
                got.sort();
                if got == want {
                    return Some(s.value);
                }
            }
        }
        None
    }

    /// Does any sample of this family exist (any label set)?
    #[must_use]
    pub fn has_series(&self, family: &str) -> bool {
        self.family(family).is_some_and(|f| !f.samples.is_empty())
    }
}

fn unescape(s: &str, in_label: bool) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('"') if in_label => out.push('"'),
            other => return Err(format!("bad escape \\{other:?} in {s:?}")),
        }
    }
    Ok(out)
}

fn parse_labels(block: &str) -> Result<Vec<(String, String)>, String> {
    // block is the text between `{` and `}`.
    let mut labels = Vec::new();
    let mut rest = block;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=' in {{{block}}}"))?;
        let key = &rest[..eq];
        if key.is_empty() {
            return Err(format!("empty label name in {{{block}}}"));
        }
        rest = &rest[eq + 1..];
        if !rest.starts_with('"') {
            return Err(format!("label value not quoted in {{{block}}}"));
        }
        rest = &rest[1..];
        // find closing quote, skipping escapes
        let mut end = None;
        let mut escaped = false;
        for (i, c) in rest.char_indices() {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                end = Some(i);
                break;
            }
        }
        let end = end.ok_or_else(|| format!("unterminated label value in {{{block}}}"))?;
        labels.push((key.to_string(), unescape(&rest[..end], true)?));
        rest = &rest[end + 1..];
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped;
        } else if !rest.is_empty() {
            return Err(format!("junk after label value in {{{block}}}"));
        }
    }
    Ok(labels)
}

fn parse_value(s: &str) -> Result<f64, String> {
    match s {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        _ => s
            .parse::<f64>()
            .map_err(|e| format!("bad value {s:?}: {e}")),
    }
}

fn sample_belongs(kind: Kind, family: &str, sample: &str) -> bool {
    match kind {
        Kind::Counter | Kind::Gauge => sample == family,
        Kind::Histogram => {
            sample == format!("{family}_bucket")
                || sample == format!("{family}_sum")
                || sample == format!("{family}_count")
        }
    }
}

/// Parse a scrape. Returns the first structural error found.
pub fn parse(text: &str) -> Result<Exposition, String> {
    let mut expo = Exposition::default();
    let mut pending_help: Option<(String, String)> = None;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.strip_suffix('\r').unwrap_or(raw);
        let err = |msg: String| format!("line {}: {msg}", lineno + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').map_or((rest, ""), |(n, h)| (n, h));
            pending_help = Some((name.to_string(), unescape(help, false).map_err(err)?));
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest
                .split_once(' ')
                .ok_or_else(|| err("TYPE line missing kind".into()))?;
            let kind = [Kind::Counter, Kind::Gauge, Kind::Histogram]
                .into_iter()
                .find(|k| k.as_str() == kind)
                .ok_or_else(|| err(format!("unsupported TYPE {kind:?}")))?;
            if expo.families.iter().any(|f| f.name == name) {
                return Err(err(format!("duplicate family {name:?}")));
            }
            let help = match pending_help.take() {
                Some((h_name, h)) if h_name == name => Some(h),
                Some((h_name, _)) => {
                    return Err(err(format!("HELP for {h_name:?} not followed by its TYPE")))
                }
                None => None,
            };
            expo.families.push(ParsedFamily {
                name: name.to_string(),
                help,
                kind,
                samples: Vec::new(),
            });
            continue;
        }
        if line.starts_with('#') {
            return Err(err(format!("unrecognized comment line {line:?}")));
        }
        // Sample line: name[{labels}] value
        let (name_labels, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| err("sample line missing value".into()))?;
        let (name, labels) = match name_labels.split_once('{') {
            Some((n, rest)) => {
                let block = rest
                    .strip_suffix('}')
                    .ok_or_else(|| err("unterminated label block".into()))?;
                (n, parse_labels(block).map_err(err)?)
            }
            None => (name_labels, Vec::new()),
        };
        let value = parse_value(value).map_err(err)?;
        let family = expo
            .families
            .last_mut()
            .ok_or_else(|| err(format!("sample {name:?} before any TYPE line")))?;
        if !sample_belongs(family.kind, &family.name, name) {
            return Err(err(format!(
                "sample {name:?} does not belong to family {:?}",
                family.name
            )));
        }
        if !value.is_finite() {
            return Err(err(format!("non-finite sample value on {name:?}")));
        }
        if family.kind == Kind::Counter && value < 0.0 {
            return Err(err(format!("negative counter value on {name:?}")));
        }
        family.samples.push(Sample {
            name: name.to_string(),
            labels,
            value,
        });
    }
    for f in &expo.families {
        if f.kind == Kind::Histogram {
            validate_histogram(f)?;
        }
    }
    Ok(expo)
}

/// Cross-check each histogram series: ascending `le`, nondecreasing
/// cumulative counts, `+Inf` bucket present and equal to `_count`.
fn validate_histogram(f: &ParsedFamily) -> Result<(), String> {
    // group samples by their non-le label set
    let series_key = |s: &Sample| {
        let mut key: Vec<_> = s
            .labels
            .iter()
            .filter(|(k, _)| k != "le")
            .cloned()
            .collect();
        key.sort();
        key
    };
    let mut keys: Vec<Vec<(String, String)>> = Vec::new();
    for key in f.samples.iter().map(series_key) {
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    for key in keys {
        let series: Vec<&Sample> = f.samples.iter().filter(|s| series_key(s) == key).collect();
        let mut prev_le = f64::NEG_INFINITY;
        let mut prev_cum = 0.0f64;
        let mut inf_cum = None;
        let mut count = None;
        for s in &series {
            match s.name.strip_prefix(&f.name) {
                Some("_bucket") => {
                    let le = s
                        .labels
                        .iter()
                        .find(|(k, _)| k == "le")
                        .map(|(_, v)| v.as_str())
                        .ok_or_else(|| format!("{}_bucket without le label", f.name))?;
                    let le = parse_value(le)?;
                    if le <= prev_le {
                        return Err(format!("{}: le bounds not ascending", f.name));
                    }
                    if s.value < prev_cum {
                        return Err(format!("{}: cumulative counts decreased", f.name));
                    }
                    prev_le = le;
                    prev_cum = s.value;
                    if le.is_infinite() {
                        inf_cum = Some(s.value);
                    }
                }
                Some("_count") => count = Some(s.value),
                Some("_sum") => {}
                _ => return Err(format!("{}: unexpected sample {}", f.name, s.name)),
            }
        }
        let inf = inf_cum.ok_or_else(|| format!("{}: missing +Inf bucket", f.name))?;
        let count = count.ok_or_else(|| format!("{}: missing _count", f.name))?;
        if (inf - count).abs() > 0.0 {
            return Err(format!(
                "{}: +Inf bucket ({inf}) != _count ({count})",
                f.name
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use std::time::Duration;

    fn demo_registry() -> Registry {
        let r = Registry::new();
        r.counter_with("req_total", "Requests.", &[("outcome", "ok")])
            .inc(5);
        r.gauge("queue_depth", "Queue depth.").set(3.0);
        let h = r.duration_histogram_with("wait_seconds", "Waits.", &[]);
        for us in [10u64, 200, 200, 9_000] {
            h.observe_duration(Duration::from_micros(us));
        }
        r
    }

    #[test]
    fn round_trip_render_parse() {
        let r = demo_registry();
        let text = r.render();
        let expo = parse(&text).expect("render must parse");
        assert_eq!(expo.value("req_total", &[("outcome", "ok")]), Some(5.0));
        assert_eq!(expo.value("queue_depth", &[]), Some(3.0));
        assert_eq!(expo.value("wait_seconds_count", &[]), Some(4.0));
        let sum = expo.value("wait_seconds_sum", &[]).unwrap();
        assert!((sum - 0.00941).abs() < 1e-9, "sum {sum}");
        assert!(expo.has_series("wait_seconds"));
    }

    #[test]
    fn hostile_label_values_round_trip() {
        let r = Registry::new();
        r.gauge_with("info", "Info.", &[("v", "a\"b\\c\nd")])
            .set(1.0);
        let text = r.render();
        let expo = parse(&text).expect("escaped labels must parse");
        assert_eq!(expo.value("info", &[("v", "a\"b\\c\nd")]), Some(1.0));
    }

    #[test]
    fn rejects_sample_before_type() {
        assert!(parse("foo 1\n").is_err());
    }

    #[test]
    fn rejects_duplicate_family() {
        let text = "# TYPE a counter\na 1\n# TYPE a counter\na 2\n";
        assert!(parse(text).unwrap_err().contains("duplicate"));
    }

    #[test]
    fn rejects_decreasing_histogram_buckets() {
        let text = "# TYPE h histogram\n\
                    h_bucket{le=\"1\"} 5\n\
                    h_bucket{le=\"2\"} 3\n\
                    h_bucket{le=\"+Inf\"} 5\n\
                    h_sum 1\n\
                    h_count 5\n";
        assert!(parse(text).unwrap_err().contains("decreased"));
    }

    #[test]
    fn rejects_count_mismatch() {
        let text = "# TYPE h histogram\n\
                    h_bucket{le=\"+Inf\"} 5\n\
                    h_sum 1\n\
                    h_count 4\n";
        assert!(parse(text).unwrap_err().contains("_count"));
    }

    #[test]
    fn rejects_foreign_sample_in_family() {
        let text = "# TYPE a counter\nb 1\n";
        assert!(parse(text).unwrap_err().contains("does not belong"));
    }

    #[test]
    fn rejects_negative_counter() {
        let text = "# TYPE a counter\na -1\n";
        assert!(parse(text).unwrap_err().contains("negative"));
    }

    #[test]
    fn empty_input_is_empty_exposition() {
        let expo = parse("").unwrap();
        assert!(expo.families.is_empty());
    }
}
