//! Minimal JSON document model for the serve protocol.
//!
//! The build environment is offline (no serde), and the protocol needs
//! only integers, strings, booleans, arrays, and objects — so this is
//! a small recursive-descent parser plus a *deterministic* serializer:
//! object keys render in insertion order and integers render without a
//! fractional part, which is what makes completed query responses
//! byte-identical across server thread counts (asserted by
//! `tests/serve_resilience.rs`). Floats are intentionally rejected:
//! nothing in the protocol needs them, and their formatting is the
//! classic source of cross-platform byte drift.

use std::fmt::Write as _;

/// Nesting depth cap: a hostile request cannot recurse the parser off
/// the stack.
const MAX_DEPTH: usize = 32;

/// A JSON value. Objects preserve insertion order (they are association
/// lists, not maps) so serialization is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// Signed integer (covers every number the protocol uses; the
    /// parser rejects fractions and exponents).
    Int(i64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
    /// JSON text rendered ahead of time and emitted verbatim. The
    /// parser never produces it; replies use it (via [`int_rows`]) for
    /// their large row arrays, which as a tree of `Value`s would take
    /// several times the memory of their text.
    Raw(String),
}

impl Value {
    /// Looks up a key in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serializes deterministically (insertion-order keys, no
    /// whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Str(s) => render_str(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_str(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
            Value::Raw(text) => out.push_str(text),
        }
    }
}

/// An array of integer rows, `[[a,b,..],..]`, rendered straight to
/// text: the same bytes as the `Arr` of `Arr`s of `Int`s, without
/// building that tree.
pub fn int_rows<const N: usize>(rows: impl IntoIterator<Item = [i64; N]>) -> Value {
    let mut out = String::from("[");
    for (i, row) in rows.into_iter().enumerate() {
        out.push_str(if i > 0 { ",[" } else { "[" });
        for (j, n) in row.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{n}");
        }
        out.push(']');
    }
    out.push(']');
    Value::Raw(out)
}

/// Convenience constructor for an object literal.
pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn render_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
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
}

/// Parses a JSON document. Rejects trailing garbage, floats, exponents,
/// and nesting deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Value, String> {
    let b = input.as_bytes();
    let mut p = Parser { b, i: 0, items: Vec::new() };
    let v = p.value(0)?;
    p.skip_ws();
    if p.i != b.len() {
        return Err(format!("trailing bytes at offset {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    /// Items of the arrays being parsed, innermost last: each array is
    /// moved out at its `]` into a `Vec` of exactly its length, so a
    /// reply of many short rows holds no spare capacity.
    items: Vec<Value>,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&c) = self.b.get(self.i) {
            if c == b' ' || c == b'\t' || c == b'\n' || c == b'\r' {
                self.i += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", c as char, self.i))
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.lit("null", Value::Null),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => {
                self.i += 1;
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.i += 1;
                    return Ok(Value::Arr(Vec::new()));
                }
                let start = self.items.len();
                loop {
                    let item = self.value(depth + 1)?;
                    self.items.push(item);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Value::Arr(self.items.drain(start..).collect()));
                        }
                        _ => return Err(format!("expected `,` or `]` at offset {}", self.i)),
                    }
                }
            }
            Some(b'{') => {
                self.i += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.i += 1;
                    return Ok(Value::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let k = self.string()?;
                    self.skip_ws();
                    self.eat(b':')?;
                    let v = self.value(depth + 1)?;
                    pairs.push((k, v));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Value::Obj(pairs));
                        }
                        _ => return Err(format!("expected `,` or `}}` at offset {}", self.i)),
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.i)),
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.i += 1;
        }
        if matches!(self.peek(), Some(b'.') | Some(b'e') | Some(b'E')) {
            return Err(format!("non-integer number at offset {start} (the protocol is integer-only)"));
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).expect("digits are ascii");
        text.parse::<i64>().map(Value::Int).map_err(|_| format!("number out of range at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.i)),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // boundaries are valid).
                    let rest = &self.b[self.i..];
                    let ch_len = std::str::from_utf8(rest)
                        .map_err(|_| "invalid utf-8")?
                        .chars()
                        .next()
                        .map(|c| c.len_utf8())
                        .unwrap_or(1);
                    s.push_str(std::str::from_utf8(&rest[..ch_len]).expect("valid utf-8"));
                    self.i += ch_len;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_protocol_shapes() {
        let doc = r#"{"id":7,"op":"value_trace","stmt":3,"deadline_ms":100,"strict":true,"tags":["a","b"],"n":-12}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("id").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("op").unwrap().as_str(), Some("value_trace"));
        assert_eq!(v.get("strict").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("n").unwrap().as_i64(), Some(-12));
        assert_eq!(parse(&v.render()).unwrap(), v);
        // Rendering is deterministic and compact.
        assert_eq!(v.render(), parse(&v.render()).unwrap().render());
    }

    #[test]
    fn int_rows_render_as_the_tree_would() {
        let rows = [[0, -1, i64::MAX], [7, 42, i64::MIN]];
        let tree = Value::Arr(rows.iter().map(|r| Value::Arr(r.iter().map(|&n| Value::Int(n)).collect())).collect());
        assert_eq!(int_rows(rows).render(), tree.render());
        assert_eq!(int_rows::<2>([]).render(), "[]");
        assert_eq!(parse(&int_rows(rows).render()).unwrap(), tree);
        let reply = obj(vec![("count", Value::Int(1)), ("pairs", int_rows([[3, 4]]))]);
        assert_eq!(parse(&reply.render()).unwrap().render(), reply.render());
    }

    #[test]
    fn parsed_arrays_hold_no_spare_capacity() {
        fn check(v: &Value) {
            if let Value::Arr(items) = v {
                assert_eq!(items.capacity(), items.len());
                items.iter().for_each(check);
            }
        }
        let v = parse("[[1,2],[],[3,[4,5,6]],7,[8,[9,[10]]]]").unwrap();
        check(&v);
        assert_eq!(v.render(), "[[1,2],[],[3,[4,5,6]],7,[8,[9,[10]]]]");
    }

    #[test]
    fn escapes_survive() {
        let v = Value::Str("a\"b\\c\nd\tττ".into());
        let back = parse(&v.render()).unwrap();
        assert_eq!(back, v);
        let u = parse(r#""\u0041\u00e9""#).unwrap();
        assert_eq!(u.as_str(), Some("Aé"));
    }

    #[test]
    fn hostile_inputs_error_cleanly() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("1.5").is_err());
        assert!(parse("1e9").is_err());
        assert!(parse("[1,2,]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("99999999999999999999999999").is_err());
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err(), "depth cap holds");
        assert!(parse("\"\\q\"").is_err());
    }
}
