//! The stack's one JSON codec: a [`Value`] tree, a depth-bounded
//! [`parse`], and the writers every JSON document here is built from
//! ([`escape`]/[`fmt_str`] for strings, [`fmt_num`] for floats).
//!
//! The workspace's `serde` is an offline vendored stand-in with no real
//! serialization machinery, so daemon requests and responses, engine
//! results and stats, metrics dumps, lint findings and trace lines are
//! all written and read through this module.
//!
//! The parser accepts exactly RFC 8259 JSON and returns a typed
//! [`ParseError`] instead of panicking on hostile input:
//! - nesting is bounded by [`MAX_DEPTH`], so a hostile line cannot
//!   overflow the stack of the thread reading it;
//! - integer literals stay exact up to `u64::MAX` (trace span ids,
//!   request seeds);
//! - object members keep their source order, which lets a parsed trace
//!   line re-serialize byte for byte.

use std::fmt::{self, Write as _};

/// Deepest level a value may sit at. The top-level value is level 0 and
/// every array or object puts its members one level deeper, so 65 nested
/// arrays parse and 66 are [`ParseError::TooDeep`].
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written as a plain integer (no sign, fraction or
    /// exponent) that fits a `u64`, kept exact.
    UInt(u64),
    /// Any other number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object's members in source order, duplicates included.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object member lookup (the last one, for a duplicated key); `None`
    /// on non-objects and missing keys.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as an `f64`, if this is a number (integers above 2^53
    /// round).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::UInt(n) => Some(*n as f64),
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a `u64`, if it was written as an integer in range.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a `usize`, via [`Value::as_u64`].
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Why [`parse`] refused its input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// The input is not JSON; the reason names the byte offset.
    Syntax(String),
    /// The input nests deeper than [`MAX_DEPTH`].
    TooDeep,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Syntax(reason) => f.write_str(reason),
            ParseError::TooDeep => write!(f, "nesting deeper than {MAX_DEPTH} levels"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<ParseError> for String {
    fn from(e: ParseError) -> String {
        e.to_string()
    }
}

/// Parses one JSON document (surrounding whitespace allowed, anything
/// else after the value is an error).
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser { text: input, at: 0 };
    let value = p.parse_value(0)?;
    p.skip_ws();
    if p.at != input.len() {
        return Err(p.syntax("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    at: usize,
}

impl Parser<'_> {
    fn syntax(&self, what: &str) -> ParseError {
        ParseError::Syntax(format!("{what} at byte {}", self.at))
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    /// Consumes `byte` if it is next.
    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.at += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    /// Consumes a run of ASCII digits and returns its length.
    fn digits(&mut self) -> usize {
        let start = self.at;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        self.at - start
    }

    fn parse_value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(ParseError::TooDeep);
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                let mut members = Vec::new();
                self.members(b'}', |p| {
                    p.skip_ws();
                    if p.peek() != Some(b'"') {
                        return Err(p.syntax("expected an object key"));
                    }
                    let key = p.parse_string()?;
                    p.skip_ws();
                    if !p.eat(b':') {
                        return Err(p.syntax("expected `:`"));
                    }
                    members.push((key, p.parse_value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Value::Obj(members))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.members(b']', |p| {
                    items.push(p.parse_value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Arr(items))
            }
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(_) => Err(self.syntax("unexpected character")),
            None => Err(self.syntax("unexpected end of input")),
        }
    }

    /// Parses the comma-separated members of the container whose opening
    /// bracket is next, up to and including `close`.
    fn members(
        &mut self,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.at += 1;
        self.skip_ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            member(self)?;
            self.skip_ws();
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                let close = char::from(close);
                return Err(self.syntax(&format!("expected `,` or `{close}`")));
            }
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.text[self.at..].starts_with(word) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(self.syntax("invalid literal"))
        }
    }

    /// An RFC 8259 number: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    fn parse_number(&mut self) -> Result<Value, ParseError> {
        let start = self.at;
        let negative = self.eat(b'-');
        if self.eat(b'0') {
            if self.digits() > 0 {
                return Err(self.syntax("leading zero in number"));
            }
        } else if self.digits() == 0 {
            return Err(self.syntax("expected a digit"));
        }
        let integer = !negative && !matches!(self.peek(), Some(b'.' | b'e' | b'E'));
        if self.eat(b'.') && self.digits() == 0 {
            return Err(self.syntax("expected a digit after `.`"));
        }
        if self.eat(b'e') || self.eat(b'E') {
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            if self.digits() == 0 {
                return Err(self.syntax("expected an exponent digit"));
            }
        }
        let text = &self.text[start..self.at];
        if integer {
            if let Ok(n) = text.parse() {
                return Ok(Value::UInt(n));
            }
        }
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Num(n)),
            _ => Err(self.syntax(&format!("number `{text}` out of range"))),
        }
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
        self.at += 1; // the opening quote
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte in one go; all three are ASCII, so the run ends on a
            // char boundary.
            let run = self.at;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.at += 1;
            }
            out.push_str(&self.text[run..self.at]);
            match self.peek() {
                None => return Err(self.syntax("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    out.push(self.parse_escape()?);
                }
                Some(_) => return Err(self.syntax("raw control character in string")),
            }
        }
    }

    /// The character a backslash escape stands for (the backslash is
    /// already consumed).
    fn parse_escape(&mut self) -> Result<char, ParseError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.at += 1;
                let hi = self.hex4()?;
                let cp = if (0xD800..0xDC00).contains(&hi) {
                    // A high surrogate: its low half must follow.
                    if !self.text[self.at..].starts_with("\\u") {
                        return Err(self.syntax("unpaired surrogate"));
                    }
                    self.at += 2;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.syntax("unpaired surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                return char::from_u32(cp).ok_or_else(|| self.syntax("unpaired surrogate"));
            }
            _ => return Err(self.syntax("invalid escape")),
        };
        self.at += 1;
        Ok(c)
    }

    /// Exactly four hex digits (no sign, unlike `from_str_radix`).
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut cp = 0;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|b| char::from(b).to_digit(16))
                .ok_or_else(|| self.syntax("invalid \\u escape"))?;
            cp = cp * 16 + digit;
            self.at += 1;
        }
        Ok(cp)
    }
}

/// Escapes `s` for embedding inside a JSON string literal (quotes not
/// included): `"`, `\`, `\n`, `\r` and `\t` get their short forms, other
/// control characters `\u00XX`. The round trip is exact: [`parse`] on
/// `"<escaped>"` yields `s` again, which lets the daemon ship the
/// engine's results document as a string field without disturbing a
/// byte.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut run = 0;
    // Every byte that needs escaping is ASCII, so `i` is a char boundary.
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if short.is_empty() {
            let _ = write!(out, "\\u{:04x}", b);
        } else {
            out.push_str(short);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out
}

/// A quoted, escaped JSON string literal.
#[must_use]
pub fn fmt_str(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// A JSON number at four decimals; non-finite values become `0.0000`,
/// so the output is always valid JSON.
#[must_use]
pub fn fmt_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.4}")
    } else {
        "0.0000".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_protocol_shapes() {
        let v = parse(r#"{"verb":"batch","seed":42,"per_class":2,"classes":["alloc","panic"]}"#)
            .unwrap();
        assert_eq!(v.get("verb").and_then(Value::as_str), Some("batch"));
        assert_eq!(v.get("seed").and_then(Value::as_u64), Some(42));
        assert_eq!(
            v.get("classes").and_then(Value::as_arr).map(<[Value]>::len),
            Some(2)
        );
        assert_eq!(v.get("missing"), None);
        // Members keep source order; a duplicated key reads its last value.
        let v = parse(r#"{"b":1,"a":2,"b":3}"#).unwrap();
        let Value::Obj(members) = &v else {
            panic!("not an object: {v:?}");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["b", "a", "b"]);
        assert_eq!(v.get("b").and_then(Value::as_u64), Some(3));
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line1\nline2\t\"quoted\" \\slash 🦀 \u{0007}";
        let line = format!("{{\"s\":{}}}", fmt_str(original));
        let v = parse(&line).unwrap();
        assert_eq!(v.get("s").and_then(Value::as_str), Some(original));
        // And a surrogate-pair escape decodes to the astral character.
        let v = parse(r#""🦀""#).unwrap();
        assert_eq!(v.as_str(), Some("🦀"));
    }

    #[test]
    fn escape_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(fmt_str("\r\t\u{1f}é"), "\"\\r\\t\\u001fé\"");
    }

    #[test]
    fn hostile_input_is_an_error_not_a_panic() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "\"unterminated",
            "troo",
            "1e999",
            "{\"a\":1}trailing",
            r#""\ud800""#,
            r#""\udc00""#,
            "\u{0001}",
            // A sign is not a hex digit.
            r#""\u+041""#,
            r#""\u-041""#,
            // RFC 8259 numbers: no leading zeros, no bare fraction
            // point, no leading `+`.
            "01",
            "-01",
            "1.",
            ".5",
            "-.5",
            "+1",
            "1e",
            "1e+",
            "-",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        // Depth is bounded: 100 nested arrays must not blow the stack.
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert_eq!(parse(&deep), Err(ParseError::TooDeep));
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&nested(MAX_DEPTH + 1)).is_ok());
        assert_eq!(parse(&nested(MAX_DEPTH + 2)), Err(ParseError::TooDeep));
    }

    #[test]
    fn numbers_convert_conservatively() {
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("42.5").unwrap().as_u64(), None);
        assert_eq!(parse("42.0").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("42").unwrap().as_usize(), Some(42));
        // Integers stay exact past 2^53, up to u64::MAX.
        assert_eq!(
            parse("9007199254740993").unwrap().as_u64(),
            Some(9_007_199_254_740_993)
        );
        assert_eq!(
            parse("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX)
        );
        let over = parse("18446744073709551616").unwrap();
        assert_eq!(over.as_u64(), None);
        assert_eq!(over.as_f64(), Some(18_446_744_073_709_551_616.0));
        assert_eq!(parse("-0.5e1").unwrap().as_f64(), Some(-5.0));
        assert_eq!(parse("7").unwrap().as_f64(), Some(7.0));
        assert_eq!(fmt_num(1.0 / 3.0), "0.3333");
        assert_eq!(fmt_num(f64::NAN), "0.0000");
    }
}
