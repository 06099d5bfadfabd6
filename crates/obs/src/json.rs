//! A minimal JSON value, writer, and parser.
//!
//! The workspace vendors no serialization backend (serde is a no-op
//! shim), so snapshots carry their own canonical JSON: object keys keep
//! insertion order, integers are emitted without a decimal point, and
//! non-integral numbers are emitted with six fractional digits. The
//! parser accepts the full JSON grammar this writer produces (plus
//! arbitrary whitespace), which is all the `compare` tool and the
//! round-trip tests need. It takes time linear in its input and never
//! panics: malformed, truncated or too deeply nested input (beyond
//! [`MAX_DEPTH`]) is an `Err`.

use std::fmt::Write as _;

/// How deeply arrays and objects may nest before [`Json::parse`] gives
/// up with an `Err`. The parser recurses once per level, so the bound
/// keeps hostile input from overflowing the stack; snapshots nest 3
/// deep.
pub const MAX_DEPTH: usize = 128;

/// A JSON value. Objects preserve insertion order so emission is
/// canonical: build them from sorted maps and two equal snapshots
/// serialize byte-identically.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number. Integral values emit without a decimal point.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds a number from a `u64` (exact for values below 2^53).
    pub fn u64(v: u64) -> Json {
        Json::Num(v as f64)
    }

    /// The value as `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object's fields, if it is an object.
    pub fn fields(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Renders with two-space indentation and a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    pad(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    pad(out, indent + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// A human-readable message with a byte offset on malformed input,
    /// trailing garbage, or nesting deeper than [`MAX_DEPTH`].
    pub fn parse(input: &str) -> Result<Json, String> {
        let bytes = input.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(input, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_num(out: &mut String, n: f64) {
    if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n:.6}");
    }
}

fn write_str(out: &mut String, s: &str) {
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

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", b as char, *pos))
    }
}

/// Parses the value at `pos`, inside `depth` enclosing arrays and
/// objects.
fn parse_value(src: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = src.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos))
        }
        Some(b'{') => parse_obj(src, pos, depth + 1),
        Some(b'[') => parse_arr(src, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_str(src, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_num(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if matches!(bytes.get(*pos), Some(b'-')) {
        *pos += 1;
    }
    while matches!(
        bytes.get(*pos),
        Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    ) {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))
}

fn parse_str(src: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = src.as_bytes();
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        // Everything up to the next quote or backslash is copied as one
        // slice: both are ASCII, so the run ends on a char boundary.
        let run = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or("unterminated string")?;
        out.push_str(&src[*pos..*pos + run]);
        *pos += run;
        if bytes[*pos] == b'"' {
            *pos += 1;
            return Ok(out);
        }
        *pos += 1;
        match bytes.get(*pos) {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'u') => {
                let hex = bytes
                    .get(*pos + 1..*pos + 5)
                    .ok_or("truncated \\u escape")?;
                let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                let code = u32::from_str_radix(hex, 16).map_err(|e| format!("\\u{hex}: {e}"))?;
                out.push(char::from_u32(code).ok_or(format!("bad codepoint \\u{hex}"))?);
                *pos += 4;
            }
            other => return Err(format!("bad escape {other:?}")),
        }
        *pos += 1;
    }
}

fn parse_arr(src: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = src.as_bytes();
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b']')) {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(src, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_obj(src: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = src.as_bytes();
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'}')) {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_str(src, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(src, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::u64(0),
            Json::u64(12345),
            Json::Num(-2.5),
            Json::Str("hello \"world\"\n".into()),
        ] {
            let text = v.to_pretty();
            assert_eq!(Json::parse(&text).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Json::Obj(vec![
            ("name".into(), Json::Str("e1".into())),
            (
                "values".into(),
                Json::Arr(vec![Json::u64(1), Json::u64(2), Json::u64(3)]),
            ),
            ("empty_obj".into(), Json::Obj(vec![])),
            ("empty_arr".into(), Json::Arr(vec![])),
            ("nested".into(), Json::Obj(vec![("x".into(), Json::Null)])),
        ]);
        let text = v.to_pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, v);
        // Canonical: re-emitting the parse is byte-identical.
        assert_eq!(back.to_pretty(), text);
    }

    #[test]
    fn integers_emit_without_decimal_point() {
        assert_eq!(Json::u64(42).to_pretty(), "42\n");
        assert_eq!(Json::Num(1.5).to_pretty(), "1.500000\n");
    }

    #[test]
    fn accessors() {
        let v = Json::Obj(vec![
            ("n".into(), Json::u64(7)),
            ("s".into(), Json::Str("x".into())),
        ]);
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(7.0));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert!(v.get("missing").is_none());
        assert_eq!(v.fields().map(<[_]>::len), Some(2));
        assert!(Json::Num(-1.0).as_u64().is_none());
        assert!(Json::Num(0.5).as_u64().is_none());
    }

    #[test]
    fn malformed_inputs_error() {
        for bad in ["", "{", "[1,", "\"abc", "{\"a\" 1}", "12 34", "tru"] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = Json::parse("  { \"a\" :\n [ 1 , 2 ] }  ").unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![Json::u64(1), Json::u64(2)]))
        );
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(
            Json::parse("\"\\u0041\\u00e9\"").unwrap(),
            Json::Str("Aé".into())
        );
        let control = Json::Str("\u{1}".into());
        assert_eq!(Json::parse(&control.to_pretty()).unwrap(), control);
    }
}
