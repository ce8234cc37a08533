//! Minimal hand-rolled JSON: a recursive-descent parser and the few
//! serialization helpers the gateway needs. Std-only like the rest of the
//! workspace — the vendored `serde_json` stub stays a stub.
//!
//! # Float round-trip
//!
//! Forecast sample values are `f32`. Rust's `Display` for floats prints
//! the shortest decimal that parses back to the same bits (Ryū), so
//! [`write_f32`] + [`Json::as_f64`]` as f32` is a bit-exact round trip for
//! every finite value; the wire equivalence tests pin exactly that. Non-
//! finite values serialize as `null` (JSON has no NaN/Inf) — the engine
//! never emits them.

/// A parsed JSON value. Object keys keep their document order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric member as a non-negative integer (rejects fractions).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

/// Parse error with the byte offset where parsing failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JsonError {
    pub at: usize,
    pub msg: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

/// Maximum nesting depth, bounding parser recursion on hostile input.
const MAX_DEPTH: usize = 64;

/// Parse a complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(JsonError {
            at: pos,
            msg: "trailing bytes after document",
        });
    }
    Ok(value)
}

fn err(at: usize, msg: &'static str) -> JsonError {
    JsonError { at, msg }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    if depth > MAX_DEPTH {
        return Err(err(*pos, "nesting too deep"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{') => parse_obj(bytes, pos, depth),
        Some(b'[') => parse_arr(bytes, pos, depth),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(
    bytes: &[u8],
    pos: &mut usize,
    lit: &'static str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(err(*pos, "bad literal"))
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    *pos += 1; // '{'
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(err(*pos, "expected object key"));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(err(*pos, "expected ':'"));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth + 1)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(err(*pos, "expected ',' or '}'")),
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err(*pos, "expected ',' or ']'")),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    *pos += 1; // opening quote
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        // Exactly four hex digits: `from_str_radix` alone
                        // would also take a sign such as `+041`.
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or(err(*pos, "bad \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "bad \\u escape"))?;
                        // Surrogates are rejected rather than paired; the
                        // gateway never emits them.
                        let c = char::from_u32(code).ok_or(err(*pos, "bad \\u escape"))?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => return Err(err(*pos, "control byte in string")),
            Some(_) => {
                // Multi-byte UTF-8 is passed through; the document came in
                // as &str so the bytes are valid.
                let start = *pos;
                let mut end = *pos + 1;
                while end < bytes.len() && bytes[end] & 0xc0 == 0x80 {
                    end += 1;
                }
                out.push_str(
                    std::str::from_utf8(&bytes[start..end]).map_err(|_| err(start, "bad utf8"))?,
                );
                *pos = end;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits_start = *pos;
    while matches!(bytes.get(*pos), Some(b) if b.is_ascii_digit()) {
        *pos += 1;
    }
    if *pos == digits_start {
        return Err(err(start, "expected number"));
    }
    // RFC 8259 §6: no leading zeros (`0` and `0.5` are fine, `01` is not).
    if bytes[digits_start] == b'0' && *pos - digits_start > 1 {
        return Err(err(start, "leading zero"));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        let frac_start = *pos;
        while matches!(bytes.get(*pos), Some(b) if b.is_ascii_digit()) {
            *pos += 1;
        }
        if *pos == frac_start {
            return Err(err(start, "bad fraction"));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e') | Some(b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+') | Some(b'-')) {
            *pos += 1;
        }
        let exp_start = *pos;
        while matches!(bytes.get(*pos), Some(b) if b.is_ascii_digit()) {
            *pos += 1;
        }
        if *pos == exp_start {
            return Err(err(start, "bad exponent"));
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| err(start, "bad number"))?;
    let n: f64 = text.parse().map_err(|_| err(start, "bad number"))?;
    Ok(Json::Num(n))
}

/// Append `v` as the shortest decimal that round-trips to the same `f32`
/// bits. Non-finite values become `null`.
pub fn write_f32(out: &mut String, v: f32) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

/// Append `s` as a quoted, escaped JSON string.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = r#"{"race": 0, "xs": [1, 2.5, -3e2], "s": "a\"b", "t": true, "n": null}"#;
        let v = parse(doc).expect("valid");
        assert_eq!(v.get("race").and_then(Json::as_u64), Some(0));
        let xs = v.get("xs").and_then(Json::as_arr).expect("arr");
        assert_eq!(xs[1].as_f64(), Some(2.5));
        assert_eq!(xs[2].as_f64(), Some(-300.0));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("a\"b"));
        assert_eq!(v.get("t").and_then(Json::as_bool), Some(true));
        assert!(v.get("n").map(Json::is_null).unwrap_or(false));
    }

    #[test]
    fn rejects_malformed_documents() {
        for doc in [
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "01e",
            "\"\\x\"",
            "1 2",
            "nul",
            "[1]]",
            "\"\\u+041\"",
            "01",
            "-01",
        ] {
            assert!(parse(doc).is_err(), "accepted {doc:?}");
        }
        for doc in ["0", "-0", "0.5", "\"\\u0041\""] {
            assert!(parse(doc).is_ok(), "rejected {doc:?}");
        }
        assert_eq!(
            parse("\"\\u0041\"").ok().as_ref().and_then(Json::as_str),
            Some("A")
        );
    }

    #[test]
    fn depth_bound_rejects_deep_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(32) + &"]".repeat(32);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn f32_round_trips_bit_exactly() {
        for v in [
            0.0f32,
            -0.0,
            1.5,
            3.3333333,
            f32::MIN_POSITIVE,
            f32::MAX,
            -1.0e-7,
            0.1,
        ] {
            let mut s = String::new();
            write_f32(&mut s, v);
            let parsed = parse(&s).expect("valid").as_f64().expect("num") as f32;
            assert_eq!(parsed.to_bits(), v.to_bits(), "{v} via {s}");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "tab\there \"quoted\" back\\slash\nnewline ünïcode";
        let mut s = String::new();
        write_str(&mut s, original);
        assert_eq!(parse(&s).expect("valid").as_str(), Some(original));
    }
}
