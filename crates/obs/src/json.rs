//! The one line codec of the workspace's exports.
//!
//! The workspace is intentionally dependency-free, so sbx-obs carries its
//! own JSON support for the *flat* object lines it emits (string and number
//! values only — exporters encode nested data, such as histogram buckets, as
//! compact strings): an [`ObjWriter`] that writes one `{"type":...}` object
//! field by field, and a typed reader ([`lines`] / [`array_lines`]) that
//! hands each non-empty line back as a [`Line`] with `u64` / `f64` / text
//! accessors and a `line N:` error prefix. Every exporter and parser in the
//! workspace goes through this pair.
//!
//! Floats are formatted with `f64`'s `Display`, which is the shortest
//! representation that round-trips, so `str::parse::<f64>` recovers the
//! exported value bit-exactly. Integers are read as integers: a number
//! token made of digits alone that fits a `u64` never passes through `f64`,
//! so ids, nanosecond clocks and counters above 2^53 survive exactly.

use std::fmt::{Display, Write as _};

/// Appends `s` to `out` as a JSON string literal (with surrounding quotes).
pub fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u00");
                let b = c as u32;
                for shift in [4u32, 0] {
                    let nib = (b >> shift) & 0xf;
                    out.push(char::from_digit(nib, 16).unwrap_or('0'));
                }
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Formats an `f64` as a JSON number.
///
/// Uses `Display` (shortest round-tripping form). Non-finite values are not
/// representable in JSON and are emitted as `0`.
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Writes one flat object: [`ObjWriter::open`] starts it with its `type`
/// tag, each field method appends `,"key":value`, and [`ObjWriter::end`]
/// closes the line. Field order is the call order, so an exporter's bytes
/// are fixed by its sequence of calls.
#[derive(Debug)]
pub struct ObjWriter<'a> {
    out: &'a mut String,
}

impl<'a> ObjWriter<'a> {
    /// Starts `{"type":<kind>` at the end of `out`.
    pub fn open(out: &'a mut String, kind: &str) -> ObjWriter<'a> {
        out.push_str("{\"type\":");
        write_str(kind, out);
        ObjWriter { out }
    }

    fn key(&mut self, key: &str) {
        self.out.push(',');
        write_str(key, self.out);
        self.out.push(':');
    }

    /// Appends an integer field.
    pub fn u64(mut self, key: &str, v: u64) -> Self {
        self.key(key);
        let _ = write!(self.out, "{v}");
        self
    }

    /// Appends an integer field when `v` is present; an absent value writes
    /// no key at all (the reader's [`Line::opt_u64`] is its mirror).
    pub fn opt_u64(self, key: &str, v: Option<u64>) -> Self {
        match v {
            Some(v) => self.u64(key, v),
            None => self,
        }
    }

    /// Appends a float field in [`fmt_f64`] form.
    pub fn f64(mut self, key: &str, v: f64) -> Self {
        self.key(key);
        self.out.push_str(&fmt_f64(v));
        self
    }

    /// Appends a string field.
    pub fn text(mut self, key: &str, v: &str) -> Self {
        self.key(key);
        write_str(v, self.out);
        self
    }

    /// Closes the object and its line (`}` and a newline): one JSONL record.
    pub fn end(self) {
        self.out.push_str("}\n");
    }

    /// Closes the object only, for callers that frame lines themselves (the
    /// line-wise JSON array [`array_lines`] reads back).
    pub fn end_bare(self) {
        self.out.push('}');
    }
}

/// A scalar value inside a flat JSON object line.
#[derive(Debug, Clone, PartialEq)]
enum JsonValue {
    /// A JSON string.
    Str(String),
    /// A number token of digits alone that fits a `u64`, kept exact.
    Int(u64),
    /// Any other JSON number (also `true`/`false`/`null` → 1/0/0).
    Num(f64),
}

/// One parsed line of an export: its 1-based line number and its fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Line {
    no: usize,
    pairs: Vec<(String, JsonValue)>,
}

impl Line {
    fn get(&self, key: &str) -> Option<&JsonValue> {
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The line's `type` tag (empty when absent).
    pub fn kind(&self) -> &str {
        self.text("type")
    }

    /// `msg` prefixed with this line's number, the error form of every
    /// parser built on the reader.
    pub fn err(&self, msg: impl Display) -> String {
        format!("line {}: {msg}", self.no)
    }

    /// An integer field, if present and numeric. Integer tokens are exact;
    /// a fractional, negative or exponent-form number saturates like an
    /// `f64 as u64` cast.
    pub fn opt_u64(&self, key: &str) -> Option<u64> {
        match self.get(key)? {
            JsonValue::Int(v) => Some(*v),
            JsonValue::Num(v) => Some(*v as u64),
            JsonValue::Str(_) => None,
        }
    }

    /// An integer field; 0 when absent.
    pub fn u64(&self, key: &str) -> u64 {
        self.opt_u64(key).unwrap_or(0)
    }

    /// A small integer field (a shard or era id); 0 when absent, saturating
    /// beyond `u32` so the `u32::MAX` fabric sentinel is the ceiling.
    pub fn u32(&self, key: &str) -> u32 {
        u32::try_from(self.u64(key)).unwrap_or(u32::MAX)
    }

    /// A float field, if present and numeric.
    pub fn opt_f64(&self, key: &str) -> Option<f64> {
        match self.get(key)? {
            JsonValue::Int(v) => Some(*v as f64),
            JsonValue::Num(v) => Some(*v),
            JsonValue::Str(_) => None,
        }
    }

    /// A float field; 0 when absent.
    pub fn f64(&self, key: &str) -> f64 {
        self.opt_f64(key).unwrap_or(0.0)
    }

    /// A string field, if present and a string.
    pub fn opt_text(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A string field; empty when absent.
    pub fn text(&self, key: &str) -> &str {
        self.opt_text(key).unwrap_or("")
    }

    /// Every numeric field in line order, for lines whose keys are data
    /// (a metrics series row).
    pub fn numbers(&self) -> impl Iterator<Item = (&str, f64)> {
        self.pairs.iter().filter_map(|(k, v)| match v {
            JsonValue::Int(i) => Some((k.as_str(), *i as f64)),
            JsonValue::Num(f) => Some((k.as_str(), *f)),
            JsonValue::Str(_) => None,
        })
    }
}

fn read(text: &str, array: bool) -> impl Iterator<Item = Result<Line, String>> + '_ {
    text.lines().enumerate().filter_map(move |(i, raw)| {
        let mut line = raw.trim();
        if array {
            line = line.trim_start_matches(',');
            line = line.strip_suffix(',').unwrap_or(line).trim();
            if line == "[" || line == "]" {
                return None;
            }
        }
        if line.is_empty() {
            return None;
        }
        let no = i + 1;
        Some(match parse_flat_object(line) {
            Ok(pairs) => Ok(Line { no, pairs }),
            Err(e) => Err(format!("line {no}: {e}")),
        })
    })
}

/// Reads a JSONL export: one [`Line`] per non-empty line, or the first
/// malformed line's error (`line N: ...`).
pub fn lines(text: &str) -> impl Iterator<Item = Result<Line, String>> + '_ {
    read(text, false)
}

/// Reads a line-wise JSON array — `[`, one flat object per line with the
/// separating commas at either end of a line, `]` — as [`lines`] does.
pub fn array_lines(text: &str) -> impl Iterator<Item = Result<Line, String>> + '_ {
    read(text, true)
}

/// Parses one flat JSON object line (`{"k":"v","n":1.5,...}`) into ordered
/// key/value pairs. Nested objects and arrays are rejected.
fn parse_flat_object(line: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect_byte(b'{')?;
    let mut pairs = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        return Ok(pairs);
    }
    loop {
        p.skip_ws();
        let key = p.parse_string()?;
        p.skip_ws();
        p.expect_byte(b':')?;
        p.skip_ws();
        let value = p.parse_value()?;
        pairs.push((key, value));
        p.skip_ws();
        match p.next() {
            Some(b',') => {}
            Some(b'}') => break,
            other => return Err(format!("expected ',' or '}}', got {other:?}")),
        }
    }
    Ok(pairs)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        match self.next() {
            Some(got) if got == b => Ok(()),
            other => Err(format!("expected {:?}, got {other:?}", b as char)),
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'"') => self.parse_string().map(JsonValue::Str),
            Some(b't') => self.parse_lit("true", 1.0),
            Some(b'f') => self.parse_lit("false", 0.0),
            Some(b'n') => self.parse_lit("null", 0.0),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            other => Err(format!("unsupported value start {other:?}")),
        }
    }

    fn parse_lit(&mut self, lit: &str, value: f64) -> Result<JsonValue, String> {
        let end = self.pos + lit.len();
        if self.bytes.get(self.pos..end) == Some(lit.as_bytes()) {
            self.pos = end;
            Ok(JsonValue::Num(value))
        } else {
            Err(format!("expected literal {lit}"))
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| format!("bad utf8 in number: {e}"))?;
        // Digits alone that fit a `u64` stay an integer; everything else
        // (sign, fraction, exponent, or too many digits) is a float.
        if text.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(JsonValue::Int(v));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            // Consume the raw run up to the next escape or closing quote so
            // multi-byte UTF-8 passes through untouched.
            let start = self.pos;
            while !matches!(self.peek(), Some(b'"' | b'\\') | None) {
                self.pos += 1;
            }
            let run = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|e| format!("bad utf8 in string: {e}"))?;
            out.push_str(run);
            match self.next() {
                // The scan loop above stops only at '"', '\\' or EOF.
                None => return Err("unterminated string".to_owned()),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let end = self.pos + 4;
                        let hex = self
                            .bytes
                            .get(self.pos..end)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| "truncated \\u escape".to_owned())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|e| format!("bad \\u escape {hex:?}: {e}"))?;
                        self.pos = end;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(_) => return Ok(out),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(line: &str) -> Line {
        lines(line).next().unwrap().unwrap()
    }

    #[test]
    fn string_escaping_round_trips() {
        let mut out = String::new();
        ObjWriter::open(&mut out, "t")
            .text("k", "a\"b\\c\nd\u{1}e→")
            .end();
        assert_eq!(out, "{\"type\":\"t\",\"k\":\"a\\\"b\\\\c\\nd\\u0001e→\"}\n");
        assert_eq!(one(&out).text("k"), "a\"b\\c\nd\u{1}e→");
    }

    #[test]
    fn f64_display_round_trips_exactly() {
        for v in [
            0.0,
            1.0,
            -1.5,
            0.1,
            1.0 / 3.0,
            6.02e23,
            5e-324,
            f64::MAX,
            123_456_789.123_456_79,
        ] {
            let mut out = String::new();
            ObjWriter::open(&mut out, "t").f64("v", v).end();
            assert_eq!(one(&out).f64("v").to_bits(), v.to_bits(), "{v} via {out}");
        }
        assert_eq!(fmt_f64(f64::NAN), "0");
        assert_eq!(fmt_f64(f64::INFINITY), "0");
    }

    #[test]
    fn integers_are_read_as_integers() {
        let mut out = String::new();
        ObjWriter::open(&mut out, "t")
            .u64("max", u64::MAX)
            .u64("odd", (1 << 53) + 1)
            .opt_u64("absent", None)
            .end();
        let line = one(&out);
        assert_eq!(line.u64("max"), u64::MAX);
        assert_eq!(line.u64("odd"), (1 << 53) + 1);
        assert_eq!(line.opt_u64("absent"), None);
        // Numbers that are not integer tokens saturate like a float cast.
        let line = one(r#"{"a":1.9,"b":-3,"c":1e3,"d":99999999999999999999,"e":"7"}"#);
        assert_eq!(
            ["a", "b", "c", "d", "e"].map(|k| line.u64(k)),
            [1, 0, 1000, u64::MAX, 0]
        );
    }

    #[test]
    fn reads_flat_objects_and_names_the_bad_line() {
        let line = one(r#"{"type":"counter","name":"x","value":12,"f":-1.5e-3}"#);
        assert_eq!(line.kind(), "counter");
        assert_eq!(line.opt_text("name"), Some("x"));
        assert_eq!(line.opt_text("value"), None);
        assert_eq!(line.f64("value"), 12.0);
        assert_eq!(line.f64("f"), -1.5e-3);
        let numeric: Vec<_> = line.numbers().collect();
        assert_eq!(numeric, [("value", 12.0), ("f", -1.5e-3)]);
        assert_eq!(one("{}").kind(), "");
        for bad in [r#"{"k":[1]}"#, r#"{"k":1"#, "nope"] {
            let text = format!("\n{{}}\n{bad}\n");
            let err = lines(&text).find_map(Result::err).unwrap();
            assert!(err.starts_with("line 3: "), "{err}");
        }
        assert_eq!(one("{}").err("boom"), "line 1: boom");
    }

    #[test]
    fn array_framing_is_skipped() {
        let text = "[\n{\"type\":\"a\"},\n,{\"type\":\"b\"}\n]\n";
        let kinds: Vec<String> = array_lines(text)
            .map(|l| l.unwrap().kind().to_owned())
            .collect();
        assert_eq!(kinds, ["a", "b"]);
        assert!(lines(text).any(|l| l.is_err()), "JSONL has no framing");
    }
}
