//! A minimal JSON value: a recursive-descent reader, a compact writer, and
//! required-field accessors.
//!
//! The package registry is unreachable from the build environment, so the
//! repository hand-rolls what serde would give it. The reader validates
//! emitted Chrome-trace files in tests and reads history lines back; the
//! writer is the one way a Chrome trace, a history record or an event
//! becomes text, and [`json_string`] / [`json_number`] are its primitives.
//! The accessors ([`Value::f64`], [`Value::str`], …) are how a record reads
//! itself: a missing or mistyped field is an error that names it, never a
//! default.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    /// Key/value pairs in document order (duplicates kept).
    Object(Vec<(String, Value)>),
}

impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Number(n)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Number(n as f64)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::String(s.to_string())
    }
}

/// An object with its members in the given order.
pub fn object<'k>(members: impl IntoIterator<Item = (&'k str, Value)>) -> Value {
    Value::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    pub(crate) fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// A number that is a whole, non-negative count.
    pub(crate) fn as_u64(&self) -> Option<u64> {
        self.as_f64()
            .filter(|n| *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64)
            .map(|n| n as u64)
    }

    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Member `key` read with `read`; an error names the member when it is
    /// missing or not `kind`.
    fn field<'a, T>(
        &'a self,
        key: &str,
        kind: &str,
        read: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<T, String> {
        let v = self
            .get(key)
            .ok_or_else(|| format!("missing {kind} {key:?}"))?;
        read(v).ok_or_else(|| format!("{key:?} is not {kind}"))
    }

    pub fn f64(&self, key: &str) -> Result<f64, String> {
        self.field(key, "a number", Value::as_f64)
    }

    pub fn u64(&self, key: &str) -> Result<u64, String> {
        self.field(key, "a count", Value::as_u64)
    }

    pub(crate) fn str(&self, key: &str) -> Result<&str, String> {
        self.field(key, "a string", Value::as_str)
    }

    pub(crate) fn bool(&self, key: &str) -> Result<bool, String> {
        self.field(key, "a boolean", Value::as_bool)
    }

    pub(crate) fn array(&self, key: &str) -> Result<&[Value], String> {
        self.field(key, "an array", Value::as_array)
    }

    /// Member `key`, which must be an object (a nested record).
    pub(crate) fn object(&self, key: &str) -> Result<&Value, String> {
        self.field(key, "an object", |v| v.as_object().map(|_| v))
    }

    /// Every element of array `key` read with `read`; an error names the
    /// element (`edges[2]: missing a count "bytes"`).
    pub(crate) fn each<T>(
        &self,
        key: &str,
        read: impl Fn(&Value) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.array(key)?
            .iter()
            .enumerate()
            .map(|(i, v)| read(v).map_err(|e| format!("{key}[{i}]: {e}")))
            .collect()
    }

    /// Every member of object `key` as `(name, value)`, each value read
    /// with `read`; an error names the member.
    pub fn members<'a, T>(
        &'a self,
        key: &str,
        kind: &str,
        read: impl Fn(&'a Value) -> Option<T>,
    ) -> Result<Vec<(String, T)>, String> {
        self.field(key, "an object", Value::as_object)?
            .iter()
            .map(|(k, v)| {
                read(v)
                    .map(|t| (k.clone(), t))
                    .ok_or_else(|| format!("{key:?} member {k:?} is not {kind}"))
            })
            .collect()
    }

    /// Compact JSON text: no whitespace, members in insertion order
    /// (duplicates kept), numbers by [`json_number`], strings by
    /// [`json_string`].
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => out.push_str(&json_number(*n)),
            Value::String(s) => out.push_str(&json_string(s)),
            Value::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    out.push_str(if i > 0 { "," } else { "" });
                    v.write(out);
                }
                out.push(']');
            }
            Value::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push_str(if i > 0 { "," } else { "" });
                    out.push_str(&json_string(k));
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Escape a string as a JSON literal (quotes included).
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Format an f64 as a JSON number (Rust's shortest-round-trip `Display`,
/// which never produces the `inf`/`NaN` tokens JSON forbids — simulated
/// times are always finite).
pub(crate) fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
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
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {:?}", other.map(|c| c as char))),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 code point.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let ch = s.chars().next().ok_or("unterminated string")?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v =
            parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny", "d": true, "e": null}, "f": ""}"#)
                .unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Value::Bool(true)));
        assert_eq!(v.get("f").unwrap().as_str(), Some(""));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} x").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn writer_is_compact_ordered_and_read_back_strictly() {
        let v = object([
            ("b", 2u64.into()),
            ("a", 0.25.into()),
            ("a", "x\"y".into()),
            ("t", true.into()),
            ("l", Value::Array(vec![Value::Null, 1e15.into()])),
        ]);
        let text = v.to_json();
        assert_eq!(
            text,
            r#"{"b":2,"a":0.25,"a":"x\"y","t":true,"l":[null,1000000000000000]}"#
        );
        assert_eq!(parse(&text).unwrap(), v);
        assert_eq!(v.u64("b"), Ok(2));
        assert_eq!(v.f64("a"), Ok(0.25));
        assert_eq!(v.bool("t"), Ok(true));
        assert_eq!(v.u64("a"), Err("\"a\" is not a count".to_string()));
        assert_eq!(v.str("z"), Err("missing a string \"z\"".to_string()));
        let err = v.each("l", |x| x.as_f64().ok_or("not a number".to_string()));
        assert_eq!(err, Err("l[0]: not a number".to_string()));
    }

    #[test]
    fn unicode_escapes() {
        let v = parse(r#""éA""#).unwrap();
        assert_eq!(v.as_str(), Some("éA"));
    }
}
