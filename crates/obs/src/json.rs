//! A hand-rolled JSON emitter — the whole reason `bikron-obs` needs no
//! `serde`: the schema only ever nests objects/arrays of string, integer
//! and boolean fields, so a comma-and-indent tracker suffices. String
//! escaping lives in [`escape_into`], shared with the Chrome-trace
//! exporter so both writers emit identical, spec-valid JSON strings.
//!
//! The writer is public so sibling crates that speak the same stable,
//! sorted, pretty-printed dialect (notably `bikron-serve`'s HTTP
//! responses) reuse one escaping implementation instead of growing their
//! own. [`field_u64`], [`field_u64_last`] and [`field_str`] read single
//! fields back out of that dialect (health probes, stats handshakes,
//! access-log lines, loadgen verification) without a full parse.

/// Append `s` to `out` with JSON string escaping: `"` and `\` are
/// backslash-escaped, the common control characters get their two-byte
/// forms (`\n`, `\r`, `\t`, `\u{8}` → `\b`, `\u{c}` → `\f`), every other
/// control character below U+0020 becomes `\u00XX`, and all other
/// characters (including non-ASCII) pass through verbatim as UTF-8.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Streaming writer for pretty-printed JSON objects and arrays.
///
/// Output is deterministic: two-space indent, members in insertion
/// order, a trailing newline from [`JsonWriter::finish`]. The caller is
/// responsible for balanced `open_*`/`close_*` calls.
#[derive(Default)]
pub struct JsonWriter {
    out: String,
    depth: usize,
    /// Whether the current container already has a member (comma needed).
    has_member: Vec<bool>,
}

impl JsonWriter {
    /// New writer with an empty buffer.
    pub fn new() -> Self {
        JsonWriter {
            out: String::new(),
            depth: 0,
            has_member: Vec::new(),
        }
    }

    fn newline_indent(&mut self) {
        self.out.push('\n');
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }

    fn begin_member(&mut self) {
        if let Some(last) = self.has_member.last_mut() {
            if *last {
                self.out.push(',');
            }
            *last = true;
        }
        if self.depth > 0 {
            self.newline_indent();
        }
    }

    /// Open a `{` container; the next member call writes inside it.
    pub fn open_object(&mut self) {
        self.out.push('{');
        self.depth += 1;
        self.has_member.push(false);
    }

    /// Close the innermost object.
    pub fn close_object(&mut self) {
        let had = self.has_member.pop().unwrap_or(false);
        self.depth -= 1;
        if had {
            self.newline_indent();
        }
        self.out.push('}');
    }

    /// Open a `[` container.
    pub fn open_array(&mut self) {
        self.out.push('[');
        self.depth += 1;
        self.has_member.push(false);
    }

    /// Close the innermost array.
    pub fn close_array(&mut self) {
        let had = self.has_member.pop().unwrap_or(false);
        self.depth -= 1;
        if had {
            self.newline_indent();
        }
        self.out.push(']');
    }

    /// Begin an array element (objects call `open_object` right after).
    pub fn array_element(&mut self) {
        self.begin_member();
    }

    /// Bare `u64` array element.
    pub fn u64_element(&mut self, value: u64) {
        self.begin_member();
        self.out.push_str(&value.to_string());
    }

    /// Bare string array element, escaped.
    pub fn string_element(&mut self, value: &str) {
        self.begin_member();
        self.push_string(value);
    }

    /// Write `"key": ` and leave the cursor ready for a value or
    /// container.
    pub fn key(&mut self, key: &str) {
        self.begin_member();
        self.push_string(key);
        self.out.push_str(": ");
    }

    /// `"key": "value"` with both sides escaped.
    pub fn string_field(&mut self, key: &str, value: &str) {
        self.key(key);
        self.push_string(value);
    }

    /// `"key": value` for an unsigned integer.
    pub fn u64_field(&mut self, key: &str, value: u64) {
        self.key(key);
        self.out.push_str(&value.to_string());
    }

    /// `"key": value` for a float, in Rust's shortest round-trip `{}`
    /// form (so `1.0` prints as `1`, still valid JSON). Non-finite
    /// values have no JSON spelling and become `null`.
    pub fn f64_field(&mut self, key: &str, value: f64) {
        self.key(key);
        if value.is_finite() {
            self.out.push_str(&format!("{value}"));
        } else {
            self.out.push_str("null");
        }
    }

    /// `"key": true|false`.
    pub fn bool_field(&mut self, key: &str, value: bool) {
        self.key(key);
        self.out.push_str(if value { "true" } else { "false" });
    }

    /// `"key": null`.
    pub fn null_field(&mut self, key: &str) {
        self.key(key);
        self.out.push_str("null");
    }

    /// [`JsonWriter::u64_field`], or `"key": null` for `None`.
    pub fn opt_u64_field(&mut self, key: &str, value: Option<u64>) {
        match value {
            Some(v) => self.u64_field(key, v),
            None => self.null_field(key),
        }
    }

    /// [`JsonWriter::f64_field`], or `"key": null` for `None`.
    pub fn opt_f64_field(&mut self, key: &str, value: Option<f64>) {
        match value {
            Some(v) => self.f64_field(key, v),
            None => self.null_field(key),
        }
    }

    fn push_string(&mut self, s: &str) {
        self.out.push('"');
        escape_into(&mut self.out, s);
        self.out.push('"');
    }

    /// Consume the writer, returning the buffer with a trailing newline.
    pub fn finish(mut self) -> String {
        self.out.push('\n');
        self.out
    }
}

/// The first `"key": N` unsigned-integer field of a flat JSON body, as
/// [`JsonWriter`] spaces it. `None` when the key is missing or its value
/// (up to the next `,`, newline or `}`) is not an unsigned integer.
pub fn field_u64(body: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\": ");
    value(&body[body.find(&needle)? + needle.len()..])
}

/// Like [`field_u64`] but reads the *last* occurrence — for `/v1/stats`,
/// where `vertices`/`edges` also appear inside the nested factor objects
/// and the product-level fields come after them.
pub fn field_u64_last(body: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\": ");
    value(&body[body.rfind(&needle)? + needle.len()..])
}

/// The first `"key": X` float field of a flat JSON body; `None` when the
/// key is missing, its value is JSON `null`, or it is not a number.
pub fn field_f64(body: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\": ");
    value(&body[body.find(&needle)? + needle.len()..])
}

/// Parse a field value: everything up to the next `,`, newline or `}`.
fn value<T: std::str::FromStr>(rest: &str) -> Option<T> {
    let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// The first `"key": "value"` string field of a flat JSON body. Stops at
/// the first quote, so values containing `\"` are out of scope (none of
/// the service's flat string fields contain one).
pub fn field_str<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\": \"");
    let start = body.find(&needle)? + needle.len();
    let end = body[start..].find('"')? + start;
    Some(&body[start..end])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_extractors_read_first_or_last_occurrence() {
        let body = "{\n  \"vertices\": 5,\n  \"inner\": {\n    \"vertices\": 2\n  },\n  \"vertices\": 9\n}\n";
        assert_eq!(field_u64(body, "vertices"), Some(5));
        assert_eq!(field_u64_last(body, "vertices"), Some(9));
        // A single-line body ends its last value at the closing brace.
        let flat = "{\"a\": {\"vertices\": 5}, \"vertices\": 125}";
        assert_eq!(field_u64(flat, "vertices"), Some(5));
        assert_eq!(field_u64_last(flat, "vertices"), Some(125));
    }

    #[test]
    fn field_extractors_reject_missing_keys_and_non_digit_values() {
        let body = "{\n  \"role\": \"router\",\n  \"n\": 3,\n  \"x\": null,\n  \"y\": 12ab,\n  \"z\": -4\n}\n";
        assert_eq!(field_u64(body, "absent"), None);
        assert_eq!(field_u64_last(body, "absent"), None);
        assert_eq!(field_str(body, "absent"), None);
        assert_eq!(field_u64(body, "n"), Some(3));
        for key in ["role", "x", "y", "z"] {
            assert_eq!(field_u64(body, key), None, "{key}");
            assert_eq!(field_u64_last(body, key), None, "{key}");
        }
        assert_eq!(field_str(body, "role"), Some("router"));
        assert_eq!(field_str(body, "n"), None); // numeric, not a string
        assert_eq!(field_str("", "role"), None);
        assert_eq!(field_f64(body, "n"), Some(3.0));
        assert_eq!(field_f64(body, "z"), Some(-4.0));
        for key in ["absent", "role", "x", "y"] {
            assert_eq!(field_f64(body, key), None, "{key}");
        }
        assert_eq!(field_f64("{\"gamma\": 0.25}", "gamma"), Some(0.25));
    }

    fn escape(s: &str) -> String {
        let mut out = String::new();
        escape_into(&mut out, s);
        out
    }

    /// Golden escaping table: every class the writer must handle —
    /// quotes, backslashes, named control escapes, arbitrary control
    /// characters, and pass-through non-ASCII.
    #[test]
    fn escape_golden() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape(r#"say "hi""#), r#"say \"hi\""#);
        assert_eq!(escape(r"C:\dir\file"), r"C:\\dir\\file");
        assert_eq!(escape("a\nb\rc\td"), r"a\nb\rc\td");
        assert_eq!(escape("\u{8}\u{c}"), r"\b\f");
        assert_eq!(escape("\u{0}\u{1}\u{1f}"), r"\u0000\u0001\u001f");
        assert_eq!(escape("naïve ✓ 🦋"), "naïve ✓ 🦋");
        // The classic trap: a backslash before a quote must yield four
        // characters (`\\\"`), not an escaped-quote-eating `\\"`.
        assert_eq!(escape(r#"\""#), r#"\\\""#);
        // U+007F (DEL) is not a JSON control character; pass through.
        assert_eq!(escape("\u{7f}"), "\u{7f}");
    }

    #[test]
    fn writer_escapes_keys_and_values() {
        let mut w = JsonWriter::new();
        w.open_object();
        w.string_field("path\\key", "line1\nline2 \"q\"");
        w.close_object();
        let json = w.finish();
        assert_eq!(
            json,
            "{\n  \"path\\\\key\": \"line1\\nline2 \\\"q\\\"\"\n}\n"
        );
    }

    #[test]
    fn arrays_nest_in_objects() {
        let mut w = JsonWriter::new();
        w.open_object();
        w.key("buckets");
        w.open_array();
        for (le, n) in [(1u64, 2u64), (3, 4)] {
            w.array_element();
            w.open_object();
            w.u64_field("le", le);
            w.u64_field("count", n);
            w.close_object();
        }
        w.close_array();
        w.close_object();
        let json = w.finish();
        let expect = concat!(
            "{\n",
            "  \"buckets\": [\n",
            "    {\n",
            "      \"le\": 1,\n",
            "      \"count\": 2\n",
            "    },\n",
            "    {\n",
            "      \"le\": 3,\n",
            "      \"count\": 4\n",
            "    }\n",
            "  ]\n",
            "}\n",
        );
        assert_eq!(json, expect);
    }

    /// Float fields use the shortest round-trip form and `null` out the
    /// spellings JSON lacks.
    #[test]
    fn f64_fields_golden() {
        let mut w = JsonWriter::new();
        w.open_object();
        w.f64_field("whole", 1.0);
        w.f64_field("frac", 0.25);
        w.f64_field("third", 1.0 / 3.0);
        w.f64_field("nan", f64::NAN);
        w.f64_field("inf", f64::INFINITY);
        w.close_object();
        let expect = concat!(
            "{\n",
            "  \"whole\": 1,\n",
            "  \"frac\": 0.25,\n",
            "  \"third\": 0.3333333333333333,\n",
            "  \"nan\": null,\n",
            "  \"inf\": null\n",
            "}\n",
        );
        assert_eq!(w.finish(), expect);
    }

    #[test]
    fn empty_containers() {
        let mut w = JsonWriter::new();
        w.open_object();
        w.key("empty_obj");
        w.open_object();
        w.close_object();
        w.key("empty_arr");
        w.open_array();
        w.close_array();
        w.close_object();
        assert_eq!(
            w.finish(),
            "{\n  \"empty_obj\": {},\n  \"empty_arr\": []\n}\n"
        );
    }
}
