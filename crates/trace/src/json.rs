//! A hand-rolled JSON writer and minimal parser.
//!
//! The offline `serde` shim is derive-decoration only — nothing in the
//! workspace can serialize through it — so the machine-readable Chrome
//! trace exports are written by hand. This module holds that writer and
//! the small parser the trace schema check needs.
//!
//! Block containers indent their children by two spaces per level, while
//! leaf rows use *inline* containers (`{"ts": 0.5, "dur": 0.125}`)
//! so the files stay diffable line-per-measurement.

use std::fmt::Write as _;

/// Incremental JSON writer with block (indented) and inline containers.
///
/// # Example
///
/// ```
/// use roborun_trace::JsonWriter;
/// let mut w = JsonWriter::new();
/// w.begin_object();
/// w.key("bench");
/// w.string("example");
/// w.key("rows");
/// w.begin_array();
/// w.begin_inline_object();
/// w.key("k");
/// w.int(1);
/// w.end();
/// w.end();
/// w.end();
/// assert_eq!(w.finish(), "{\n  \"bench\": \"example\",\n  \"rows\": [\n    {\"k\": 1}\n  ]\n}\n");
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    buf: String,
    stack: Vec<Frame>,
    /// A key was just written; the next value belongs to it.
    pending_key: bool,
}

/// One open container.
#[derive(Debug)]
struct Frame {
    inline: bool,
    has_entries: bool,
    object: bool,
}

impl JsonWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        JsonWriter::default()
    }

    fn depth(&self) -> usize {
        self.stack.len()
    }

    /// `true` while any container inside the current nesting is inline
    /// (inline-ness is inherited: everything inside an inline container
    /// stays on its line).
    fn inline(&self) -> bool {
        self.stack.iter().any(|frame| frame.inline)
    }

    /// Prepares the buffer for the next entry of the current container:
    /// separator, newline and indentation as the container style needs.
    fn next_entry(&mut self) {
        if self.pending_key {
            self.pending_key = false;
            return;
        }
        let inline = self.inline();
        let depth = self.depth();
        if let Some(frame) = self.stack.last_mut() {
            if frame.has_entries {
                self.buf.push(',');
                self.buf.push_str(if inline { " " } else { "\n" });
            } else if !inline {
                self.buf.push('\n');
            }
            frame.has_entries = true;
            if !inline {
                for _ in 0..depth {
                    self.buf.push_str("  ");
                }
            }
        }
    }

    /// Closes the current container (object or array).
    ///
    /// # Panics
    ///
    /// Panics when no container is open or a key is dangling.
    pub fn end(&mut self) {
        assert!(!self.pending_key, "dangling key before end()");
        let frame = self.stack.pop().expect("end() without an open container");
        if frame.has_entries && !frame.inline && !self.inline() {
            self.buf.push('\n');
            for _ in 0..self.depth() {
                self.buf.push_str("  ");
            }
        }
        self.buf.push(if frame.object { '}' } else { ']' });
    }

    fn begin(&mut self, inline: bool, object: bool) {
        self.next_entry();
        self.stack.push(Frame {
            inline,
            has_entries: false,
            object,
        });
        self.buf.push(if object { '{' } else { '[' });
    }

    /// Opens a block-style object (children indented, one per line).
    pub fn begin_object(&mut self) {
        self.begin(false, true);
    }

    /// Opens an inline object (children `", "`-separated on one line).
    pub fn begin_inline_object(&mut self) {
        self.begin(true, true);
    }

    /// Opens a block-style array.
    pub fn begin_array(&mut self) {
        self.begin(false, false);
    }

    /// Opens an inline array.
    pub fn begin_inline_array(&mut self) {
        self.begin(true, false);
    }

    /// Writes an object key; the next value call provides its value.
    pub fn key(&mut self, key: &str) {
        self.next_entry();
        self.buf.push('"');
        escape_into(&mut self.buf, key);
        self.buf.push_str("\": ");
        self.pending_key = true;
    }

    /// Writes an integer value.
    pub fn int(&mut self, value: i64) {
        self.next_entry();
        let _ = write!(self.buf, "{value}");
    }

    /// Writes an unsigned integer value.
    pub fn uint(&mut self, value: u64) {
        self.next_entry();
        let _ = write!(self.buf, "{value}");
    }

    /// Writes a float rounded to `decimals` fractional digits (the
    /// BENCH-file convention).
    pub fn float(&mut self, value: f64, decimals: usize) {
        self.next_entry();
        let _ = write!(self.buf, "{value:.decimals$}");
    }

    /// Writes a float with the shortest round-trip representation (used
    /// by the trace exporter, where timestamps must not lose bits).
    pub fn float_full(&mut self, value: f64) {
        self.next_entry();
        if value.is_finite() {
            let _ = write!(self.buf, "{value}");
            // `{}` renders integral floats without a fractional part;
            // keep them as JSON numbers either way (both parse fine).
        } else {
            // JSON has no infinities; clamp to null.
            self.buf.push_str("null");
        }
    }

    /// Writes a string value (escaped).
    pub fn string(&mut self, value: &str) {
        self.next_entry();
        self.buf.push('"');
        escape_into(&mut self.buf, value);
        self.buf.push('"');
    }

    /// Writes a boolean value.
    pub fn bool(&mut self, value: bool) {
        self.next_entry();
        self.buf.push_str(if value { "true" } else { "false" });
    }

    /// Writes a `null`.
    pub fn null(&mut self) {
        self.next_entry();
        self.buf.push_str("null");
    }

    /// Finishes writing: closes nothing (the caller balances containers)
    /// and returns the buffer with a trailing newline.
    ///
    /// # Panics
    ///
    /// Panics when containers are still open.
    pub fn finish(mut self) -> String {
        assert!(
            self.stack.is_empty(),
            "finish() with {} unclosed container(s)",
            self.stack.len()
        );
        self.buf.push('\n');
        self.buf
    }
}

fn escape_into(buf: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(buf, "\\u{:04x}", c as u32);
            }
            c => buf.push(c),
        }
    }
}

/// A parsed JSON value (the minimal tree the schema checks and the
/// BENCH trajectory diff need).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always held as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message with the byte offset on
    /// malformed input or trailing garbage.
    pub fn parse(input: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_whitespace();
        let value = p.value()?;
        p.skip_whitespace();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Object member lookup (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find_map(|(k, v)| (k == key).then_some(v)),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte sequences pass
                    // through unchanged).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf-8 in string")?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.value()?;
            members.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reproduces_the_bench_house_style() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("bench");
        w.string("fleet_missions");
        w.key("host_cores");
        w.uint(1);
        w.key("service_throughput");
        w.begin_array();
        for (shards, seconds) in [(1u64, 12.448f64), (2, 12.561)] {
            w.begin_inline_object();
            w.key("shards");
            w.uint(shards);
            w.key("seconds");
            w.float(seconds, 3);
            w.end();
        }
        w.end();
        w.key("shared_broad_phase");
        w.begin_inline_object();
        w.key("clones");
        w.uint(16);
        w.key("speedup");
        w.float(10.25, 2);
        w.end();
        w.end();
        let rendered = w.finish();
        let expected = "{\n  \"bench\": \"fleet_missions\",\n  \"host_cores\": 1,\n  \
                        \"service_throughput\": [\n    {\"shards\": 1, \"seconds\": 12.448},\n    \
                        {\"shards\": 2, \"seconds\": 12.561}\n  ],\n  \
                        \"shared_broad_phase\": {\"clones\": 16, \"speedup\": 10.25}\n}\n";
        assert_eq!(rendered, expected);
    }

    #[test]
    fn writer_output_round_trips_through_the_parser() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("label");
        w.string("quote \" backslash \\ newline \n done");
        w.key("values");
        w.begin_inline_array();
        w.float_full(0.125);
        w.int(-3);
        w.null();
        w.bool(true);
        w.end();
        w.key("nested");
        w.begin_object();
        w.key("empty_array");
        w.begin_array();
        w.end();
        w.key("empty_object");
        w.begin_inline_object();
        w.end();
        w.end();
        w.end();
        let text = w.finish();
        let value = JsonValue::parse(&text).expect("writer output parses");
        assert_eq!(
            value.get("label").and_then(JsonValue::as_str),
            Some("quote \" backslash \\ newline \n done")
        );
        let values = value.get("values").and_then(JsonValue::as_array).unwrap();
        assert_eq!(values[0].as_number(), Some(0.125));
        assert_eq!(values[1].as_number(), Some(-3.0));
        assert_eq!(values[2], JsonValue::Null);
        assert_eq!(values[3], JsonValue::Bool(true));
        assert_eq!(
            value.get("nested").and_then(|n| n.get("empty_array")),
            Some(&JsonValue::Array(Vec::new()))
        );
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in ["{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"unterminated"] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parser_reads_numbers_and_nesting() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": {"c": null}}"#;
        let v = JsonValue::parse(doc).unwrap();
        let a = v.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(a[2].as_number(), Some(-300.0));
        assert_eq!(v.get("b").and_then(|b| b.get("c")), Some(&JsonValue::Null));
    }
}
