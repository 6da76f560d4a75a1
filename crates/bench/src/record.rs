//! The one writer behind every `BENCH_*.json` artifact. It owns the JSON
//! format — separators, nesting, fixed float precision and string quoting —
//! so the bench binaries only name fields and values. The workspace has no
//! JSON dependency, and the records are simple enough not to need one.

use std::fmt::{self, Write};
use std::path::Path;

/// Unsigned integer types a [`Record`] renders verbatim.
pub trait Uint: fmt::Display {}
impl Uint for usize {}
impl Uint for u64 {}
impl Uint for u128 {}

/// A JSON object under construction. Fields render in the order they are
/// added, with no whitespace: `{"bench":"fig8","rules":505}`.
#[derive(Debug, Default)]
pub struct Record {
    /// The fields rendered so far, without the closing brace.
    body: String,
}

impl Record {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// An unsigned integer field.
    pub fn uint(self, key: &str, value: impl Uint) -> Self {
        self.raw(key, format_args!("{value}"))
    }

    /// A float field with exactly `decimals` digits after the point;
    /// `null` when the value is not finite (JSON has no NaN or infinity).
    pub fn float(self, key: &str, value: f64, decimals: usize) -> Self {
        if value.is_finite() {
            self.raw(key, format_args!("{value:.decimals$}"))
        } else {
            self.raw(key, format_args!("null"))
        }
    }

    /// A boolean field.
    pub fn bool(self, key: &str, value: bool) -> Self {
        self.raw(key, format_args!("{value}"))
    }

    /// A string field, quoted and escaped.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        quote(&mut self.body, value);
        self
    }

    /// A 64-bit fingerprint as a quoted, zero-padded 16-digit hex string.
    pub fn hex(self, key: &str, value: u64) -> Self {
        self.raw(key, format_args!("\"{value:016x}\""))
    }

    /// A nested object field.
    pub fn object(self, key: &str, value: Record) -> Self {
        self.raw(key, format_args!("{value}"))
    }

    fn raw(mut self, key: &str, value: fmt::Arguments) -> Self {
        self.key(key);
        // Writing into a `String` cannot fail.
        let _ = self.body.write_fmt(value);
        self
    }

    fn key(&mut self, key: &str) {
        self.body.push(if self.body.is_empty() { '{' } else { ',' });
        quote(&mut self.body, key);
        self.body.push(':');
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.body.is_empty() {
            f.write_str("{}")
        } else {
            write!(f, "{}}}", self.body)
        }
    }
}

fn quote(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Write `records` to `path` as a JSON array, one record per line.
pub fn write_bench_json(path: &Path, records: &[Record]) -> std::io::Result<()> {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let sep = if i + 1 == records.len() { "" } else { "," };
        let _ = writeln!(out, "  {r}{sep}");
    }
    out.push_str("]\n");
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_keep_insertion_order() {
        let r = Record::new()
            .str("bench", "fig8")
            .uint("b", 2usize)
            .uint("a", 1u64)
            .uint("big", u128::from(u64::MAX) + 1);
        assert_eq!(
            r.to_string(),
            r#"{"bench":"fig8","b":2,"a":1,"big":18446744073709551616}"#
        );
        assert_eq!(Record::new().to_string(), "{}");
    }

    #[test]
    fn objects_nest() {
        let inner = Record::new()
            .uint("warnings", 0usize)
            .uint("errors", 3usize);
        let r = Record::new()
            .object("verify", inner)
            .object("empty", Record::new())
            .uint("after", 1usize);
        assert_eq!(
            r.to_string(),
            r#"{"verify":{"warnings":0,"errors":3},"empty":{},"after":1}"#
        );
    }

    #[test]
    fn floats_have_fixed_precision() {
        let r = Record::new()
            .float("zero", 0.0, 1)
            .float("round", 2.345_6, 2)
            .float("whole", 1_234_567.4, 0)
            .float("pad", 1.5, 3)
            .float("nan", f64::NAN, 1)
            .float("inf", f64::INFINITY, 1);
        assert_eq!(
            r.to_string(),
            r#"{"zero":0.0,"round":2.35,"whole":1234567,"pad":1.500,"nan":null,"inf":null}"#
        );
    }

    #[test]
    fn booleans_render_bare() {
        let r = Record::new().bool("yes", true).bool("no", false);
        assert_eq!(r.to_string(), r#"{"yes":true,"no":false}"#);
    }

    #[test]
    fn fingerprints_are_quoted_zero_padded_hex() {
        let r = Record::new().hex("fingerprint", 0xab).hex("max", u64::MAX);
        assert_eq!(
            r.to_string(),
            r#"{"fingerprint":"00000000000000ab","max":"ffffffffffffffff"}"#
        );
    }

    #[test]
    fn strings_are_escaped() {
        let r = Record::new().str("k\"ey", "a\\b\n\"c\"");
        assert_eq!(r.to_string(), r#"{"k\"ey":"a\\b\u000a\"c\""}"#);
    }
}
