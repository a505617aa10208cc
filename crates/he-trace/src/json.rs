//! A minimal recursive-descent JSON parser (no external crates) — the
//! workspace's one JSON reader: it validates that the chrome-trace
//! serializer's output actually parses, reads traces back for the
//! `he-trace` summary binary, reads event-log lines
//! ([`crate::events::parse_line`]) and the `BENCH_*.json` baselines,
//! which [`pretty`] writes.
//!
//! Supports the full JSON grammar (objects, arrays, strings with
//! escapes incl. `\uXXXX`, numbers, booleans, null). Not meant to be
//! fast or to preserve number precision beyond `f64`.

/// A parsed JSON value. Object keys keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Look up a key in an object value.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number if this is a number.
    #[must_use]
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Two-space-indented JSON text of `v` (no trailing newline); empty
/// objects and arrays print as `{}` / `[]`. [`parse`] reads it back to
/// an equal value.
#[must_use]
pub fn pretty(v: &Value) -> String {
    write_pretty(v, 0)
}

fn write_pretty(v: &Value, depth: usize) -> String {
    let items: Vec<String> = match v {
        Value::Obj(pairs) => pairs
            .iter()
            .map(|(k, v)| format!("{}: {}", quote(k), write_pretty(v, depth + 1)))
            .collect(),
        Value::Arr(vals) => vals.iter().map(|v| write_pretty(v, depth + 1)).collect(),
        Value::Str(s) => return quote(s),
        Value::Num(n) => return n.to_string(),
        Value::Bool(b) => return b.to_string(),
        Value::Null => return "null".into(),
    };
    let (open, close) = if matches!(v, Value::Obj(_)) {
        ("{", "}")
    } else {
        ("[", "]")
    };
    if items.is_empty() {
        return format!("{open}{close}");
    }
    let (pad, outer) = ("  ".repeat(depth + 1), "  ".repeat(depth));
    let body = items.join(&format!(",\n{pad}"));
    format!("{open}\n{pad}{body}\n{outer}{close}")
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(s, &mut out);
    out.push('"');
    out
}

/// JSON string escaping (quotes, backslashes, control characters).
pub(crate) fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Parse a complete JSON document. Trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, String> {
    let bytes = input.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Result<u8, String> {
        let b = self.peek().ok_or("unexpected end of input")?;
        self.pos += 1;
        Ok(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        let got = self.bump()?;
        if got != b {
            return Err(format!(
                "expected '{}' at byte {}, got '{}'",
                b as char,
                self.pos - 1,
                got as char
            ));
        }
        Ok(())
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek().ok_or("unexpected end of input")? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Value::Str(self.string()?)),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.bump()? {
                b',' => {}
                b'}' => return Ok(Value::Obj(pairs)),
                c => return Err(format!("expected ',' or '}}', got '{}'", c as char)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump()? {
                b',' => {}
                b']' => return Ok(Value::Arr(items)),
                c => return Err(format!("expected ',' or ']', got '{}'", c as char)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump()? {
                b'"' => return Ok(out),
                b'\\' => match self.bump()? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let mut code: u32 = 0;
                        for _ in 0..4 {
                            let h = self.bump()?;
                            let d = (h as char)
                                .to_digit(16)
                                .ok_or(format!("bad \\u escape at byte {}", self.pos))?;
                            code = code * 16 + d;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    c => return Err(format!("bad escape '\\{}'", c as char)),
                },
                // raw byte of a UTF-8 sequence or plain ASCII
                b => {
                    if b < 0x80 {
                        out.push(b as char);
                    } else {
                        // collect the remaining continuation bytes
                        let start = self.pos - 1;
                        while matches!(self.peek(), Some(nb) if nb & 0xC0 == 0x80) {
                            self.pos += 1;
                        }
                        let s = std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|e| format!("invalid UTF-8 in string: {e}"))?;
                        out.push_str(s);
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| format!("bad number '{text}': {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v =
            parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\nyA"}, "d": true, "e": null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_num(),
            Some(-300.0)
        );
        assert_eq!(
            v.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\nyA")
        );
        assert_eq!(v.get("d"), Some(&Value::Bool(true)));
        assert_eq!(v.get("e"), Some(&Value::Null));
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_escapes() {
        assert!(parse("{} x").is_err());
        assert!(parse(r#"{"a": "\q"}"#).is_err());
        assert!(parse("[1,").is_err());
    }

    #[test]
    fn pretty_output_parses_back_to_the_same_value() {
        let v =
            parse(r#"{"a": [1, 2.5, {"q\"\n": "x\\y"}], "b": {}, "c": [], "d": null}"#).unwrap();
        let text = pretty(&v);
        assert_eq!(parse(&text), Ok(v));
        assert!(
            text.starts_with("{\n  \"a\": [\n    1,\n    2.5,"),
            "{text}"
        );
        assert!(text.contains("\"b\": {},\n  \"c\": [],"), "{text}");
    }

    #[test]
    fn parses_unicode_passthrough() {
        let v = parse(r#"{"name": "conv1·unité"}"#).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("conv1·unité"));
    }
}
