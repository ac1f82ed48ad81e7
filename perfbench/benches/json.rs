//! A small JSON value and writer for the result and span files.
//!
//! Strings are escaped per RFC 8259 (control characters as `\u00XX`),
//! and every document is parsed back through
//! `i2p_telemetry::json::parse` before it is written or printed.

/// A JSON value. Object fields keep insertion order.
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An unsigned integer, written exactly.
    Int(u64),
    /// A finite float, written with all its digits (non-finite values
    /// are written as `null`, which the metric checks reject).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// The compact one-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => out.push_str(&n.to_string()),
            // `Display` for f64 prints the shortest digits that round-trip
            // and never an exponent, so the lexeme is valid JSON.
            Json::Num(x) if x.is_finite() => out.push_str(&x.to_string()),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(out, key);
                    out.push_str(": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
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
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders `doc` and parses the text back through the workspace's JSON
/// reader, so a document that does not parse is never written.
pub fn render_checked(doc: &Json) -> Result<String, String> {
    let text = doc.render();
    i2pscope::telemetry::json::parse(&text).map_err(|e| format!("emitted invalid JSON: {e}"))?;
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use i2pscope::telemetry::json::{parse, Value};

    #[test]
    fn control_characters_round_trip() {
        let raw = "a\u{1}b\"c\\d\ne";
        let text = render_checked(&Json::obj([("k", Json::str(raw))])).expect("valid");
        assert!(text.contains("\\u0001"), "{text}");
        let back = parse(&text).expect("parses");
        assert_eq!(back.field("k"), Some(&Value::Str(raw.to_string())));
    }

    #[test]
    fn floats_keep_their_digits_and_never_use_exponents() {
        let text = Json::Arr(vec![Json::Num(1e-7), Json::Num(0.1 + 0.2), Json::Num(3.0)]).render();
        assert_eq!(text, "[0.0000001, 0.30000000000000004, 3]");
        assert!(parse(&text).is_ok());
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Arr(vec![Json::Num(f64::NAN)]).render(), "[null]");
    }
}
