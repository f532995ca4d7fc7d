//! Parsing `bikron-obs` JSON reports back into [`Report`] — the read
//! half that turns `BENCH_kron.json` from a file we write into a
//! contract we can enforce (`bikron perfdiff`).
//!
//! The parser is a minimal recursive-descent JSON reader — objects,
//! arrays, strings with full escape handling, unsigned integers, `null`,
//! and booleans — exposed as [`parse_json`]/[`JsonValue`] so every CLI
//! tool that reads our own JSON (`bikron trace`, `bikron profile`)
//! shares one reader, then a schema mapper that accepts `bikron-obs/1`
//! through `/4` reports. A v1 report simply has no `histograms` section,
//! a v2 report no `windows` section, and a v3 report no `profile`
//! section; see DESIGN.md §"Schema versioning".

use std::collections::BTreeMap;
use std::fmt;

use crate::histogram::HistogramSnapshot;
use crate::profile::ProfileSnapshot;
use crate::report::{Report, TimerSnapshot};
use crate::window::{WindowKind, WindowSnapshot, WindowStats};

/// Error from [`Report::from_json`]: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input where parsing failed.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "report parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl ParseError {
    /// A report-shape error: the JSON parsed, its content is wrong.
    fn shape(message: impl Into<String>) -> ParseError {
        ParseError {
            offset: 0,
            message: message.into(),
        }
    }
}

/// A parsed JSON value restricted to what bikron's own writers emit:
/// no floats, no negative numbers. The shared reader behind
/// [`Report::from_json`] and the CLI's trace/profile dump decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (the only number kind our schemas emit).
    Num(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object (key order is not preserved).
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Member `key` of an object, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// String member `key` of an object.
    pub fn str_of(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(JsonValue::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// Integer member `key` of an object.
    pub fn num_of(&self, key: &str) -> Option<u64> {
        match self.get(key) {
            Some(JsonValue::Num(n)) => Some(*n),
            _ => None,
        }
    }

    /// Boolean member `key` of an object.
    pub fn bool_of(&self, key: &str) -> Option<bool> {
        match self.get(key) {
            Some(JsonValue::Bool(b)) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The entries, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// Parse one JSON document (rejecting trailing data) with the shared
/// minimal reader. See [`JsonValue`] for the supported value kinds.
pub fn parse_json(input: &str) -> Result<JsonValue, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let root = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing data after document");
    }
    Ok(root)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            offset: self.pos,
            message: msg.into(),
        })
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", b as char))
        }
    }

    fn value(&mut self) -> Result<JsonValue, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'0'..=b'9') => Ok(JsonValue::Num(self.number()?)),
            Some(b'n') => self.keyword("null", JsonValue::Null),
            Some(b't') => self.keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.keyword("false", JsonValue::Bool(false)),
            Some(c) => self.err(format!("unexpected character '{}'", c as char)),
            None => self.err("unexpected end of input"),
        }
    }

    fn keyword(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.err(format!("expected {word:?}"))
        }
    }

    fn object(&mut self) -> Result<JsonValue, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(map));
                }
                _ => return self.err("expected ',' or '}' in object"),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return self.err("expected ',' or ']' in array"),
            }
        }
    }

    fn number(&mut self) -> Result<u64, ParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.') | Some(b'e') | Some(b'E')) {
            return self.err("schema numbers are unsigned integers, found a float");
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        text.parse::<u64>().map_err(|e| ParseError {
            offset: start,
            message: format!("bad integer {text:?}: {e}"),
        })
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| ParseError {
                                    offset: self.pos,
                                    message: "truncated \\u escape".into(),
                                })?;
                            let code = u32::from_str_radix(hex, 16).map_err(|_| ParseError {
                                offset: self.pos,
                                message: format!("bad \\u escape {hex:?}"),
                            })?;
                            // The writer never emits surrogate pairs (it
                            // only \u-escapes control characters), so a
                            // lone code point is the whole story here.
                            out.push(char::from_u32(code).ok_or_else(|| ParseError {
                                offset: self.pos,
                                message: format!("\\u{hex} is not a scalar value"),
                            })?);
                            self.pos += 4;
                        }
                        _ => return self.err("bad escape sequence"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte safe).
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|_| ParseError {
                            offset: self.pos,
                            message: "invalid UTF-8 in string".into(),
                        })?;
                    let c = rest.chars().next().expect("non-empty by peek");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }
}

fn as_obj(v: &JsonValue, what: &str) -> Result<BTreeMap<String, JsonValue>, ParseError> {
    match v {
        JsonValue::Obj(m) => Ok(m.clone()),
        _ => Err(ParseError::shape(format!("{what} must be a JSON object"))),
    }
}

fn num_field(obj: &BTreeMap<String, JsonValue>, key: &str, what: &str) -> Result<u64, ParseError> {
    match obj.get(key) {
        Some(JsonValue::Num(n)) => Ok(*n),
        _ => Err(ParseError::shape(format!(
            "{what} is missing integer field {key:?}"
        ))),
    }
}

impl Report {
    /// Parse a JSON report produced by [`Report::to_json`]
    /// (`bikron-obs/1` through `/4`). The parsed report remembers its
    /// source schema version ([`Report::schema_version`]).
    pub fn from_json(input: &str) -> Result<Report, ParseError> {
        let root = parse_json(input)?;
        let root = as_obj(&root, "report")?;

        let version = match root.get("schema") {
            Some(JsonValue::Str(s)) if s == "bikron-obs/1" => 1,
            Some(JsonValue::Str(s)) if s == "bikron-obs/2" => 2,
            Some(JsonValue::Str(s)) if s == "bikron-obs/3" => 3,
            Some(JsonValue::Str(s)) if s == "bikron-obs/4" => 4,
            Some(JsonValue::Str(s)) => {
                return Err(ParseError::shape(format!(
                    "unknown schema {s:?} (expected bikron-obs/1 through /4)"
                )))
            }
            _ => return Err(ParseError::shape("report has no \"schema\" string field")),
        };

        let mut report = Report::default();
        report.set_schema_version(version);

        if let Some(v) = root.get("meta") {
            for (k, v) in as_obj(v, "meta")? {
                match v {
                    JsonValue::Str(s) => report.set_meta(&k, s),
                    _ => return Err(ParseError::shape(format!("meta.{k} must be a string"))),
                }
            }
        }
        if let Some(v) = root.get("counters") {
            for (k, v) in as_obj(v, "counters")? {
                match v {
                    JsonValue::Num(n) => report.insert_counter(k, n),
                    _ => {
                        return Err(ParseError::shape(format!(
                            "counters.{k} must be an integer"
                        )))
                    }
                }
            }
        }
        if let Some(v) = root.get("gauges") {
            for (k, v) in as_obj(v, "gauges")? {
                let g = as_obj(&v, &format!("gauges.{k}"))?;
                report.insert_gauge(
                    k.clone(),
                    num_field(&g, "value", &format!("gauges.{k}"))?,
                    num_field(&g, "peak", &format!("gauges.{k}"))?,
                );
            }
        }
        if let Some(v) = root.get("timers") {
            for (k, v) in as_obj(v, "timers")? {
                let t = as_obj(&v, &format!("timers.{k}"))?;
                let what = format!("timers.{k}");
                report.insert_timer(
                    k.clone(),
                    TimerSnapshot {
                        count: num_field(&t, "count", &what)?,
                        total_ns: num_field(&t, "total_ns", &what)?,
                        min_ns: num_field(&t, "min_ns", &what)?,
                        max_ns: num_field(&t, "max_ns", &what)?,
                        mean_ns: num_field(&t, "mean_ns", &what)?,
                    },
                );
            }
        }
        if let Some(v) = root.get("histograms") {
            for (k, v) in as_obj(v, "histograms")? {
                let h = as_obj(&v, &format!("histograms.{k}"))?;
                let what = format!("histograms.{k}");
                let mut buckets = Vec::new();
                if let Some(JsonValue::Arr(items)) = h.get("buckets") {
                    for item in items {
                        let b = as_obj(item, &format!("{what}.buckets[]"))?;
                        buckets.push((num_field(&b, "le", &what)?, num_field(&b, "count", &what)?));
                    }
                }
                report.insert_histogram(
                    k.clone(),
                    HistogramSnapshot {
                        count: num_field(&h, "count", &what)?,
                        sum: num_field(&h, "sum", &what)?,
                        min: num_field(&h, "min", &what)?,
                        max: num_field(&h, "max", &what)?,
                        buckets,
                    },
                );
            }
        }
        if let Some(v) = root.get("windows") {
            for (k, v) in as_obj(v, "windows")? {
                let win = as_obj(&v, &format!("windows.{k}"))?;
                let what = format!("windows.{k}");
                let kind = match win.get("kind") {
                    Some(JsonValue::Str(s)) => WindowKind::parse_str(s).ok_or_else(|| {
                        ParseError::shape(format!("{what}.kind {s:?} is not counter|histogram"))
                    })?,
                    _ => {
                        return Err(ParseError::shape(format!(
                            "{what} is missing string field \"kind\""
                        )))
                    }
                };
                let stats = |label: &str| -> Result<WindowStats, ParseError> {
                    let s = as_obj(
                        win.get(label).ok_or_else(|| {
                            ParseError::shape(format!("{what} is missing window {label:?}"))
                        })?,
                        &format!("{what}.{label}"),
                    )?;
                    let w = format!("{what}.{label}");
                    Ok(WindowStats {
                        count: num_field(&s, "count", &w)?,
                        rate_per_sec: num_field(&s, "rate_per_sec", &w)?,
                        sum: num_field(&s, "sum", &w)?,
                        p50: num_field(&s, "p50", &w)?,
                        p90: num_field(&s, "p90", &w)?,
                        p99: num_field(&s, "p99", &w)?,
                    })
                };
                report.insert_window(
                    k.clone(),
                    WindowSnapshot {
                        kind,
                        w1m: stats("1m")?,
                        w5m: stats("5m")?,
                    },
                );
            }
        }
        if let Some(v) = root.get("profile") {
            let p = as_obj(v, "profile")?;
            let mut stacks = BTreeMap::new();
            if let Some(s) = p.get("stacks") {
                for (stack, count) in as_obj(s, "profile.stacks")? {
                    match count {
                        JsonValue::Num(n) => {
                            stacks.insert(stack, n);
                        }
                        _ => {
                            return Err(ParseError::shape(format!(
                                "profile.stacks.{stack:?} must be an integer"
                            )))
                        }
                    }
                }
            }
            report.set_profile(ProfileSnapshot {
                hz: num_field(&p, "hz", "profile")?,
                samples: num_field(&p, "samples", "profile")?,
                dropped: num_field(&p, "dropped_samples", "profile")?,
                idle: num_field(&p, "idle_samples", "profile")?,
                stacks,
            });
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_garbage() {
        assert!(Report::from_json("not json").is_err());
        assert!(Report::from_json("{}").is_err()); // no schema
        assert!(Report::from_json("{\"schema\": \"bikron-obs/99\"}").is_err());
        assert!(Report::from_json("{\"schema\": \"bikron-obs/2\"} trailing").is_err());
    }

    #[test]
    fn parses_v1_without_histograms() {
        let json = concat!(
            "{\n",
            "  \"schema\": \"bikron-obs/1\",\n",
            "  \"meta\": {\"workload\": \"t \\\"q\\\" \\u0001\"},\n",
            "  \"counters\": {\"edges\": 12},\n",
            "  \"gauges\": {\"w\": {\"value\": 1, \"peak\": 3}},\n",
            "  \"timers\": {\"p\": {\"count\": 1, \"total_ns\": 5, ",
            "\"min_ns\": 5, \"max_ns\": 5, \"mean_ns\": 5}}\n",
            "}\n",
        );
        let r = Report::from_json(json).unwrap();
        assert_eq!(r.schema_version(), 1);
        assert_eq!(r.counter("edges"), Some(12));
        assert_eq!(r.gauge("w"), Some((1, 3)));
        assert_eq!(r.timer("p").unwrap().total_ns, 5);
        assert_eq!(r.meta("workload"), Some("t \"q\" \u{1}"));
        assert_eq!(r.histograms().count(), 0);
    }

    #[test]
    fn float_numbers_are_rejected() {
        let json = "{\"schema\": \"bikron-obs/2\", \"counters\": {\"x\": 1.5}}";
        assert!(Report::from_json(json).is_err());
    }

    #[test]
    fn parses_v2_without_windows() {
        let json = concat!(
            "{\"schema\": \"bikron-obs/2\", \"counters\": {\"edges\": 7},\n",
            " \"histograms\": {\"h\": {\"count\": 1, \"sum\": 2, \"min\": 2,",
            " \"max\": 2, \"buckets\": [{\"le\": 3, \"count\": 1}]}}}",
        );
        let r = Report::from_json(json).unwrap();
        assert_eq!(r.schema_version(), 2);
        assert_eq!(r.counter("edges"), Some(7));
        assert_eq!(r.windows().count(), 0);
    }

    #[test]
    fn parses_v3_windows_section() {
        let json = concat!(
            "{\"schema\": \"bikron-obs/3\", \"windows\": {\"lat\": {\n",
            "  \"kind\": \"histogram\",\n",
            "  \"1m\": {\"count\": 6, \"rate_per_sec\": 0, \"sum\": 60,",
            " \"p50\": 10, \"p90\": 11, \"p99\": 12},\n",
            "  \"5m\": {\"count\": 9, \"rate_per_sec\": 0, \"sum\": 90,",
            " \"p50\": 10, \"p90\": 11, \"p99\": 12}}}}",
        );
        let r = Report::from_json(json).unwrap();
        assert_eq!(r.schema_version(), 3);
        let w = r.window("lat").unwrap();
        assert_eq!(w.kind, WindowKind::Histogram);
        assert_eq!(w.w1m.count, 6);
        assert_eq!(w.w5m.sum, 90);
        // Bad kinds are rejected.
        let bad = json.replace("histogram", "gauge");
        assert!(Report::from_json(&bad).is_err());
    }

    #[test]
    fn shared_reader_handles_null_bool_and_escapes() {
        let v = parse_json(
            "{\"enabled\": true, \"cache\": null, \"off\": false,\n \
             \"name\": \"a\\tb\", \"spans\": [1, 2]}",
        )
        .unwrap();
        assert_eq!(v.bool_of("enabled"), Some(true));
        assert_eq!(v.bool_of("off"), Some(false));
        assert_eq!(v.get("cache"), Some(&JsonValue::Null));
        assert_eq!(v.str_of("name"), Some("a\tb"));
        assert_eq!(
            v.get("spans").and_then(|s| s.as_array()).map(<[_]>::len),
            Some(2)
        );
        assert_eq!(v.num_of("missing"), None);
        assert!(parse_json("nul").is_err());
        assert!(parse_json("truex").is_err());
        assert!(parse_json("{\"a\": 1} junk").is_err());
    }

    #[test]
    fn parses_v4_profile_section() {
        let json = concat!(
            "{\"schema\": \"bikron-obs/4\", \"profile\": {\n",
            "  \"hz\": 99, \"samples\": 412, \"dropped_samples\": 0,",
            " \"idle_samples\": 7,\n",
            "  \"stacks\": {\"accept;evaluate\": 400, \"write\": 12}}}",
        );
        let r = Report::from_json(json).unwrap();
        assert_eq!(r.schema_version(), 4);
        let p = r.profile().unwrap();
        assert_eq!(p.hz, 99);
        assert_eq!(p.samples, 412);
        assert_eq!(p.dropped, 0);
        assert_eq!(p.idle, 7);
        assert_eq!(p.stacks.get("accept;evaluate"), Some(&400));
        // A v3 report (no profile section) still parses.
        let v3 = "{\"schema\": \"bikron-obs/3\", \"counters\": {}}";
        assert!(Report::from_json(v3).unwrap().profile().is_none());
        // Malformed profile sections are rejected loudly.
        let bad = json.replace("\"samples\": 412, ", "");
        assert!(Report::from_json(&bad).is_err());
    }
}
