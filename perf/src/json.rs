//! A minimal streaming JSON writer, local to the benchmark.
//!
//! Values are appended in document order; the writer tracks nesting and
//! inserts commas. Strings are escaped, non-finite numbers become `null`.
//! `pretty` output puts each object member and array element on its own
//! line (used for `BENCHMARK.json` and `result.json`); compact output is
//! one line (the driver's result line).

/// The writer. Build with [`Json::compact`] or [`Json::pretty`], finish
/// with [`Json::finish`].
#[derive(Debug)]
pub struct Json {
    buf: String,
    /// One entry per open container: whether it already holds a value.
    open: Vec<bool>,
    pretty: bool,
    after_key: bool,
}

impl Json {
    /// A single-line writer.
    pub fn compact() -> Json {
        Json { buf: String::new(), open: Vec::new(), pretty: false, after_key: false }
    }

    /// A two-space-indented multi-line writer.
    pub fn pretty() -> Json {
        Json { pretty: true, ..Json::compact() }
    }

    fn newline(&mut self) {
        if self.pretty {
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
                if !self.pretty {
                    self.buf.push(' ');
                }
            }
            self.newline();
        }
    }

    fn begin(&mut self, bracket: char) -> &mut Json {
        self.before_value();
        self.buf.push(bracket);
        self.open.push(false);
        self
    }

    fn end(&mut self, bracket: char) -> &mut Json {
        let had_values = self.open.pop().expect("end without begin");
        if had_values {
            self.newline();
        }
        self.buf.push(bracket);
        self
    }

    /// Open an object.
    pub fn begin_obj(&mut self) -> &mut Json {
        self.begin('{')
    }

    /// Close the innermost object.
    pub fn end_obj(&mut self) -> &mut Json {
        self.end('}')
    }

    /// Open an array.
    pub fn begin_arr(&mut self) -> &mut Json {
        self.begin('[')
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
        self.buf.push_str(&format!("{v}"));
        self
    }

    /// Write a whole number.
    pub fn uint(&mut self, v: u64) -> &mut Json {
        self.before_value();
        self.buf.push_str(&v.to_string());
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
    #[should_panic(expected = "unbalanced")]
    fn unbalanced_document_is_a_bug() {
        let mut j = Json::compact();
        j.begin_obj();
        j.finish();
    }
}
