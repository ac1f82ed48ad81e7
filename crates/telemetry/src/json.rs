//! A minimal JSON reader, used to validate telemetry artifacts (run
//! manifests, Chrome trace exports) without external dependencies.
//!
//! Numbers are kept as their source lexeme rather than parsed into
//! floats: counter totals are u64s, and validation must echo them
//! byte-exactly (CI diffs counter dumps across thread counts), which
//! an f64 round-trip could silently distort past 2^53.

/// A parsed JSON value. Object fields keep source order.
#[derive(Clone, PartialEq, Debug)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, as its untouched source lexeme.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, fields in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The fields of an object, or `None`.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The elements of an array, or `None`.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The contents of a string, or `None`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The lexeme of a number, or `None`.
    pub fn as_num(&self) -> Option<&str> {
        match self {
            Value::Num(lexeme) => Some(lexeme),
            _ => None,
        }
    }

    /// Looks up a field by key (first match wins), if this is an object.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.as_obj()?.iter().find(|(name, _)| name == key).map(|(_, value)| value)
    }
}

/// Appends `s` to `out` as a JSON string literal (RFC 8259): quotes and
/// backslashes escaped, control characters as `\n`/`\r`/`\t` or
/// `\u00XX`. Run manifests, Chrome traces and `BENCH_*.json` artifacts
/// all quote through this, so [`parse`] reads their strings back
/// unchanged.
pub fn push_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

/// Nesting deeper than this is rejected; telemetry artifacts are a
/// handful of levels deep and a runaway input must not blow the stack.
const MAX_DEPTH: u32 = 64;

/// Parses one JSON document. Trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut parser = Parser { bytes: text.as_bytes(), pos: 0 };
    let value = parser.value(0)?;
    parser.skip_ws();
    match parser.peek() {
        None => Ok(value),
        Some(_) => Err(parser.fail("trailing characters after document")),
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let byte = self.peek();
        if byte.is_some() {
            self.pos += 1;
        }
        byte
    }

    fn fail(&self, what: &str) -> String {
        format!("json: {what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, want: u8) -> Result<(), String> {
        match self.bump() {
            Some(got) if got == want => Ok(()),
            _ => Err(self.fail(&format!("expected {:?}", char::from(want)))),
        }
    }

    fn value(&mut self, depth: u32) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(self.fail("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-') | Some(b'0'..=b'9') => Ok(Value::Num(self.number()?)),
            _ => Err(self.fail("expected a value")),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        let end = self.pos.saturating_add(word.len());
        if self.bytes.get(self.pos..end) == Some(word.as_bytes()) {
            self.pos = end;
            Ok(value)
        } else {
            Err(self.fail(&format!("expected {word:?}")))
        }
    }

    fn number(&mut self) -> Result<String, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.fail("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.fail("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.fail("expected exponent digits"));
            }
        }
        let lexeme = self.bytes.get(start..self.pos).unwrap_or(&[]);
        String::from_utf8(lexeme.to_vec()).map_err(|_| self.fail("non-utf8 number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.fail("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => out.push(self.unicode_escape()?),
                    _ => return Err(self.fail("bad escape")),
                },
                Some(byte) if byte < 0x20 => return Err(self.fail("raw control in string")),
                Some(byte) if byte < 0x80 => out.push(char::from(byte)),
                Some(first) => {
                    // Re-assemble a multi-byte UTF-8 sequence; the input
                    // came from a &str so it is valid by construction.
                    let mut buf = vec![first];
                    while matches!(self.peek(), Some(b) if (0x80..0xc0).contains(&b)) {
                        if let Some(b) = self.bump() {
                            buf.push(b);
                        }
                    }
                    match String::from_utf8(buf) {
                        Ok(chunk) => out.push_str(&chunk),
                        Err(_) => return Err(self.fail("invalid utf-8 in string")),
                    }
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, String> {
        let high = self.hex4()?;
        if (0xd800..0xdc00).contains(&high) {
            // High surrogate: require the paired \uXXXX low surrogate.
            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                return Err(self.fail("lone high surrogate"));
            }
            let low = self.hex4()?;
            if !(0xdc00..0xe000).contains(&low) {
                return Err(self.fail("invalid low surrogate"));
            }
            let code = 0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00);
            return char::from_u32(code).ok_or_else(|| self.fail("invalid surrogate pair"));
        }
        if (0xdc00..0xe000).contains(&high) {
            return Err(self.fail("lone low surrogate"));
        }
        char::from_u32(high).ok_or_else(|| self.fail("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = match self.bump() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.fail("expected 4 hex digits")),
            };
            code = (code << 4) | digit;
        }
        Ok(code)
    }

    fn array(&mut self, depth: u32) -> Result<Value, String> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Arr(items)),
                _ => return Err(self.fail("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: u32) -> Result<Value, String> {
        self.expect_byte(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Obj(fields)),
                _ => return Err(self.fail("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_shapes_the_manifest_uses() {
        let doc = r#"{"schema":"i2p-telemetry/1","n":18446744073709551615,
                      "null":null,"ok":true,"arr":[1,2.5,-3e2],"s":"a\"b\u00e9"}"#;
        let value = parse(doc).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(value.field("schema").and_then(Value::as_str), Some("i2p-telemetry/1"));
        // u64::MAX survives byte-exactly because numbers stay lexemes.
        assert_eq!(value.field("n").and_then(Value::as_num), Some("18446744073709551615"));
        assert_eq!(value.field("s").and_then(Value::as_str), Some("a\"b\u{e9}"));
        assert_eq!(value.field("arr").and_then(Value::as_arr).map(<[Value]>::len), Some(3));
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "01x", "\"\\q\"", "1 2", "nul"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn surrogate_pairs_round_trip() {
        let parsed = parse(r#""\ud83d\ude00""#);
        assert_eq!(parsed, Ok(Value::Str("\u{1f600}".to_string())));
        assert!(parse(r#""\ud83d""#).is_err(), "lone surrogate must fail");
    }
}
