//! The workspace's one JSON writer, and the validity checker its tests
//! use as an oracle (the tree carries no serde).
//!
//! Values are appended in document order; the writer tracks nesting and
//! inserts commas. Strings are escaped, non-finite numbers become `null`.
//! `pretty` output puts each object member and array element on its own
//! line, except inside a container opened with [`Json::begin_row`] or
//! [`Json::begin_row_arr`], which stays on one line (telemetry sections,
//! one recorded `BENCH_*.json` row per line); compact output is one line.
//!
//! `perf/src/json.rs` is a second copy of the writer: the benchmark is
//! its own package, and the workspace cannot depend on it.

// `write!` into the `String` buffer cannot fail; its results are dropped.
use std::fmt::Write as _;

/// The writer. Build with [`Json::compact`] or [`Json::pretty`], finish
/// with [`Json::finish`].
#[derive(Debug)]
pub struct Json {
    buf: String,
    /// One entry per open container: whether it already holds a value.
    open: Vec<bool>,
    pretty: bool,
    after_key: bool,
    /// Nesting depth of the outermost open one-line container.
    row_depth: Option<usize>,
}

impl Json {
    /// A single-line writer.
    pub fn compact() -> Json {
        Json {
            buf: String::new(),
            open: Vec::new(),
            pretty: false,
            after_key: false,
            row_depth: None,
        }
    }

    /// A two-space-indented multi-line writer.
    pub fn pretty() -> Json {
        Json { pretty: true, ..Json::compact() }
    }

    fn multiline(&self) -> bool {
        self.pretty && self.row_depth.is_none()
    }

    fn newline(&mut self) {
        if self.multiline() {
            self.buf.push('\n');
            for _ in 0..self.open.len() {
                self.buf.push_str("  ");
            }
        }
    }

    /// Separator and indentation before a value or key.
    fn before_value(&mut self) {
        if self.after_key {
            self.after_key = false;
            return;
        }
        if let Some(has_value) = self.open.last_mut() {
            if std::mem::replace(has_value, true) {
                self.buf.push(',');
                if !self.multiline() {
                    self.buf.push(' ');
                }
            }
            self.newline();
        }
    }

    fn begin(&mut self, bracket: char, row: bool) -> &mut Json {
        self.before_value();
        self.buf.push(bracket);
        self.open.push(false);
        if row && self.row_depth.is_none() {
            self.row_depth = Some(self.open.len());
        }
        self
    }

    fn end(&mut self, bracket: char) -> &mut Json {
        let had_values = self.open.pop().expect("end without begin");
        if had_values {
            self.newline();
        }
        self.buf.push(bracket);
        if self.row_depth.is_some_and(|depth| self.open.len() < depth) {
            self.row_depth = None;
        }
        self
    }

    /// Open an object.
    pub fn begin_obj(&mut self) -> &mut Json {
        self.begin('{', false)
    }

    /// Open an object that stays on one line, whatever it nests, even in
    /// a pretty document. Close it with [`Json::end_obj`].
    pub fn begin_row(&mut self) -> &mut Json {
        self.begin('{', true)
    }

    /// Close the innermost object.
    pub fn end_obj(&mut self) -> &mut Json {
        self.end('}')
    }

    /// Open an array.
    pub fn begin_arr(&mut self) -> &mut Json {
        self.begin('[', false)
    }

    /// Open an array that stays on one line (see [`Json::begin_row`]).
    /// Close it with [`Json::end_arr`].
    pub fn begin_row_arr(&mut self) -> &mut Json {
        self.begin('[', true)
    }

    /// Close the innermost array.
    pub fn end_arr(&mut self) -> &mut Json {
        self.end(']')
    }

    /// Write an object key; the next call writes its value.
    pub fn key(&mut self, k: &str) -> &mut Json {
        self.before_value();
        escape_into(&mut self.buf, k);
        self.buf.push_str(": ");
        self.after_key = true;
        self
    }

    /// Write a string value.
    pub fn str(&mut self, s: &str) -> &mut Json {
        self.before_value();
        escape_into(&mut self.buf, s);
        self
    }

    /// Write a number with every digit `f64` carries (`null` when not
    /// finite: JSON has no NaN).
    pub fn num(&mut self, v: f64) -> &mut Json {
        if !v.is_finite() {
            return self.null();
        }
        self.before_value();
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Write a number with exactly `decimals` fraction digits (`null`
    /// when not finite).
    pub fn fixed(&mut self, v: f64, decimals: usize) -> &mut Json {
        if !v.is_finite() {
            return self.null();
        }
        self.before_value();
        let _ = write!(self.buf, "{v:.decimals$}");
        self
    }

    /// Write a whole number.
    pub fn uint(&mut self, v: u64) -> &mut Json {
        self.before_value();
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Write `null`.
    pub fn null(&mut self) -> &mut Json {
        self.before_value();
        self.buf.push_str("null");
        self
    }

    /// Write a boolean.
    pub fn bool(&mut self, v: bool) -> &mut Json {
        self.before_value();
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// The finished document.
    ///
    /// # Panics
    ///
    /// Panics if a container is still open.
    pub fn finish(&mut self) -> String {
        assert!(self.open.is_empty() && !self.after_key, "unbalanced JSON document");
        std::mem::take(&mut self.buf)
    }
}

/// Append `s` as a quoted JSON string.
fn escape_into(buf: &mut String, s: &str) {
    buf.push('"');
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => buf.push_str(&format!("\\u{:04x}", c as u32)),
            c => buf.push(c),
        }
    }
    buf.push('"');
}

/// Minimal JSON validity checker: parses one complete JSON value (RFC
/// 8259 grammar, no semantic interpretation) and rejects trailing
/// garbage. It shares no code with [`Json`], so it is the oracle the
/// writer's tests (and the telemetry tests built on the writer) check
/// every emitted document against.
///
/// # Errors
///
/// A human-readable description with the byte offset of the first
/// violation.
pub fn validate(text: &str) -> Result<(), String> {
    let b = text.as_bytes();
    let mut pos = 0usize;
    skip_ws(b, &mut pos);
    parse_value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => parse_string(b, pos),
        Some(b't') => parse_lit(b, pos, "true"),
        Some(b'f') => parse_lit(b, pos, "false"),
        Some(b'n') => parse_lit(b, pos, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte {:?} at {}", *c as char, *pos)),
        None => Err(format!("unexpected end of input at {pos}", pos = *pos)),
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {}", *pos));
        }
        parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {}", *pos));
        }
        *pos += 1;
        skip_ws(b, pos);
        parse_value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        parse_value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '"'
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => match b.get(*pos + 1) {
                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 2,
                Some(b'u') => {
                    let hex = b
                        .get(*pos + 2..*pos + 6)
                        .ok_or_else(|| format!("truncated \\u escape at byte {}", *pos))?;
                    if !hex.iter().all(u8::is_ascii_hexdigit) {
                        return Err(format!("bad \\u escape at byte {}", *pos));
                    }
                    *pos += 6;
                }
                _ => return Err(format!("bad escape at byte {}", *pos)),
            },
            0x00..=0x1f => {
                return Err(format!("unescaped control character at byte {}", *pos));
            }
            _ => *pos += 1,
        }
    }
    Err("unterminated string".into())
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b.get(*pos..*pos + lit.len()) == Some(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |b: &[u8], pos: &mut usize| -> bool {
        let s = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > s
    };
    if !digits(b, pos) {
        return Err(format!("expected digits at byte {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(b, pos) {
            return Err(format!("expected fraction digits at byte {}", *pos));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(b, pos) {
            return Err(format!("expected exponent digits at byte {}", *pos));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_object_with_nesting() {
        let mut j = Json::compact();
        j.begin_obj().key("a").uint(1).key("b").begin_arr().num(1.5).bool(true).end_arr();
        j.key("c").begin_obj().end_obj().end_obj();
        assert_eq!(j.finish(), r#"{"a": 1, "b": [1.5, true], "c": {}}"#);
    }

    #[test]
    fn strings_are_escaped() {
        let mut j = Json::compact();
        j.begin_arr().str("q\"b\\n\nt\tc\u{1}é").end_arr();
        assert_eq!(j.finish(), "[\"q\\\"b\\\\n\\nt\\tc\\u0001é\"]");
    }

    #[test]
    fn numbers_keep_their_digits_and_nan_is_null() {
        let mut j = Json::compact();
        j.begin_arr().num(0.1 + 0.2).num(1e21).num(f64::NAN).num(-0.0).end_arr();
        assert_eq!(j.finish(), "[0.30000000000000004, 1000000000000000000000, null, -0]");
    }

    #[test]
    fn pretty_indents_members() {
        let mut j = Json::pretty();
        j.begin_obj().key("k").begin_arr().uint(1).uint(2).end_arr().key("e").begin_arr().end_arr();
        j.end_obj();
        assert_eq!(j.finish(), "{\n  \"k\": [\n    1,\n    2\n  ],\n  \"e\": []\n}");
    }

    #[test]
    fn rows_stay_on_one_line_of_a_pretty_document() {
        let mut j = Json::pretty();
        j.begin_obj().key("rows").begin_arr();
        j.begin_row().key("a").fixed(0.126, 2).key("n").begin_obj().key("b").uint(1).end_obj();
        j.end_obj().begin_row().end_obj().end_arr();
        j.key("s").begin_row_arr().fixed(2.0, 0).fixed(f64::INFINITY, 1).end_arr().end_obj();
        let doc = j.finish();
        assert_eq!(
            doc,
            "{\n  \"rows\": [\n    {\"a\": 0.13, \"n\": {\"b\": 1}},\n    {}\n  ],\n  \"s\": [2, null]\n}"
        );
        validate(&doc).expect("the writer emits valid JSON");
    }

    #[test]
    fn validator_accepts_and_rejects_correctly() {
        for good in [
            "{}",
            "[]",
            "  {\"a\": [1, -2.5, 1e9, true, false, null], \"b\": {\"c\": \"d\\\"e\\u00ff\"}} ",
            "3.25",
            "\"\"",
        ] {
            validate(good).unwrap_or_else(|e| panic!("{good}: {e}"));
        }
        for bad in [
            "",
            "{",
            "{\"a\": }",
            "{\"a\": 1,}",
            "{'a': 1}",
            "{\"a\": \"unterminated}",
            "{\"a\": \"bad\\x\"}",
            "{\"a\": 01e}",
            "[1, 2",
            "{} trailing",
            "{\"a\": \"raw\ncontrol\"}",
        ] {
            assert!(validate(bad).is_err(), "accepted invalid JSON: {bad:?}");
        }
    }

    #[test]
    #[should_panic(expected = "unbalanced")]
    fn unbalanced_document_is_a_bug() {
        let mut j = Json::compact();
        j.begin_obj();
        j.finish();
    }
}
