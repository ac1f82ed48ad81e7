//! A minimal, self-contained Rust lexer for the analyzer.
//!
//! The scanner does not parse Rust; it only needs to know which bytes
//! of a source file are *code* and which are comments or literals, so
//! that banned names can never fire inside a string, a raw string, a
//! char literal, or a doc comment. [`mask`] produces a byte-for-byte
//! shadow of the input in which every comment and literal byte is
//! replaced by a space (newlines are preserved, so offsets, lines and
//! columns in the shadow match the original exactly), while
//! suppression directives are lifted out of the comments it blanks and
//! `#[cfg(test)]` / `#[test]` item spans are recorded so test-only
//! code can be exempted from library-grade rules.

/// A suppression directive lifted from a comment, still unvalidated:
/// rule-name resolution against the rule table happens in `scan`.
#[derive(Debug, Clone)]
pub struct RawDirective {
    /// Byte offset of the start of the comment that carried it.
    pub offset: usize,
    /// The rule name inside `allow(...)`, if the directive parsed.
    pub rule: Option<String>,
    /// The mandatory `-- reason` text, if present and non-empty.
    pub reason: Option<String>,
    /// Why the directive failed to parse, when it did.
    pub malformed: Option<&'static str>,
}

/// The result of masking one source file.
pub struct Masked {
    /// Same length as the input; comments and literals blanked.
    pub text: String,
    /// Every `i2plint:` directive found in a comment.
    pub directives: Vec<RawDirective>,
    /// Byte spans (open brace ..= close brace) of test-only items.
    pub test_regions: Vec<(usize, usize)>,
}

impl Masked {
    /// True when `offset` falls inside a `#[cfg(test)]`/`#[test]` item.
    pub fn in_test_region(&self, offset: usize) -> bool {
        self.test_regions.iter().any(|&(lo, hi)| offset >= lo && offset <= hi)
    }
}

/// The marker that introduces a suppression directive inside a comment.
const DIRECTIVE_MARKER: &str = "i2plint:";

pub(crate) fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Byte length of the UTF-8 sequence starting with `b` (1 for ASCII
/// and for malformed leads, which keeps the scanner total).
fn utf8_len(b: u8) -> usize {
    match b {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        0xF0..=0xF7 => 4,
        _ => 1,
    }
}

/// Blanks `src[lo..hi]` into `out`, preserving newlines so that line
/// and column arithmetic on the masked text matches the original.
fn blank(out: &mut Vec<u8>, src: &[u8], lo: usize, hi: usize) {
    for &b in src.iter().take(hi).skip(lo) {
        out.push(if b == b'\n' { b'\n' } else { b' ' });
    }
}

/// Parses an `i2plint: allow(<rule>) -- <reason>` directive out of one
/// comment's text. Returns `None` when the comment has no marker.
fn parse_directive(comment: &str, offset: usize) -> Option<RawDirective> {
    let at = comment.find(DIRECTIVE_MARKER)?;
    let rest = comment[at + DIRECTIVE_MARKER.len()..].trim_start();
    let mut d = RawDirective { offset, rule: None, reason: None, malformed: None };
    let Some(args) = rest.strip_prefix("allow(") else {
        d.malformed = Some("expected `allow(<rule>)` after `i2plint:`");
        return Some(d);
    };
    let Some(close) = args.find(')') else {
        d.malformed = Some("unterminated `allow(` — missing `)`");
        return Some(d);
    };
    let rule = args[..close].trim();
    if rule.is_empty() {
        d.malformed = Some("empty rule name in `allow()`");
        return Some(d);
    }
    d.rule = Some(rule.to_string());
    // The reason is not optional: suppressions must say why, and the
    // reason is surfaced in the report so reviewers see the ledger.
    let tail = args[close + 1..].trim_start();
    let reason = tail.strip_prefix("--").map(str::trim).unwrap_or("");
    // Block comments may close on the same line; the trailing `*/` is
    // part of the comment slice handed to us, so strip one if present.
    let reason = reason.strip_suffix("*/").map(str::trim).unwrap_or(reason);
    if reason.is_empty() {
        d.malformed = Some("missing `-- <reason>` (the reason is mandatory)");
        return Some(d);
    }
    d.reason = Some(reason.to_string());
    Some(d)
}

/// Tries to lex a raw (or raw byte) string starting at `i`; returns
/// the end offset (exclusive) when `src[i..]` begins one.
fn raw_string_end(b: &[u8], i: usize) -> Option<usize> {
    let mut j = i;
    if b.get(j) == Some(&b'b') {
        j += 1;
    }
    if b.get(j) != Some(&b'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0usize;
    while b.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if b.get(j) != Some(&b'"') {
        return None;
    }
    j += 1;
    while j < b.len() {
        if b.get(j) == Some(&b'"') {
            let tail = &b[j + 1..];
            if tail.len() >= hashes && tail.iter().take(hashes).all(|&h| h == b'#') {
                return Some(j + 1 + hashes);
            }
        }
        j += 1;
    }
    Some(b.len())
}

/// Masks one source file. See the module docs for the contract.
pub fn mask(src: &str) -> Masked {
    let b = src.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(b.len());
    let mut directives = Vec::new();
    let mut i = 0usize;
    while i < b.len() {
        let c = b[i];
        let prev_ident = i > 0 && is_ident(b[i - 1]);
        if c == b'/' && b.get(i + 1) == Some(&b'/') {
            let start = i;
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
            // Doc comments (`///`, `//!`) are documentation: directive
            // syntax there is an *example*, never a live suppression.
            let doc = matches!(b.get(start + 2), Some(&b'/') | Some(&b'!'));
            if !doc {
                if let Some(d) = parse_directive(&src[start..i], start) {
                    directives.push(d);
                }
            }
            blank(&mut out, b, start, i);
        } else if c == b'/' && b.get(i + 1) == Some(&b'*') {
            let start = i;
            let mut depth = 1usize;
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    i += 2;
                } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            let doc = matches!(b.get(start + 2), Some(&b'*') | Some(&b'!'));
            if !doc {
                if let Some(d) = parse_directive(&src[start..i], start) {
                    directives.push(d);
                }
            }
            blank(&mut out, b, start, i);
        } else if c == b'"' {
            let start = i;
            i += 1;
            while i < b.len() {
                match b[i] {
                    b'\\' => i += 2,
                    b'"' => {
                        i += 1;
                        break;
                    }
                    _ => i += 1,
                }
            }
            blank(&mut out, b, start, i.min(b.len()));
            i = i.min(b.len());
        } else if (c == b'r' || c == b'b') && !prev_ident {
            if let Some(end) = raw_string_end(b, i) {
                blank(&mut out, b, i, end);
                i = end;
            } else if c == b'b' && b.get(i + 1) == Some(&b'"') {
                // Plain byte string: keep the `b`, let the string arm
                // mask the quoted part on the next iteration.
                out.push(c);
                i += 1;
            } else {
                out.push(c);
                i += 1;
            }
        } else if c == b'\'' {
            if b.get(i + 1) == Some(&b'\\') {
                // Escaped char (or byte) literal: '\n', '\'', '\u{..}'.
                let start = i;
                i += 2;
                while i < b.len() && b[i] != b'\'' {
                    i += 1;
                }
                i = (i + 1).min(b.len());
                blank(&mut out, b, start, i);
            } else {
                // 'x' is a char literal iff one UTF-8 char later there
                // is a closing quote; otherwise it is a lifetime (or a
                // loop label) and only the quote itself is consumed.
                let j = i + 1;
                let k = j + b.get(j).map(|&lead| utf8_len(lead)).unwrap_or(1);
                if b.get(j) != Some(&b'\'') && b.get(k) == Some(&b'\'') {
                    blank(&mut out, b, i, k + 1);
                    i = k + 1;
                } else {
                    out.push(c);
                    i += 1;
                }
            }
        } else {
            out.push(c);
            i += 1;
        }
    }
    let text = String::from_utf8_lossy(&out).into_owned();
    let test_regions = find_test_regions(&text);
    Masked { text, directives, test_regions }
}

/// Finds the byte spans of items annotated `#[cfg(test)]` or
/// `#[test]` in masked text (no strings or comments remain, so a
/// plain substring search cannot be fooled). The span runs from the
/// item's opening `{` to its matching `}`; an attribute followed by a
/// braceless item (`#[cfg(test)] use …;`) covers up to the `;`.
fn find_test_regions(masked: &str) -> Vec<(usize, usize)> {
    let b = masked.as_bytes();
    let mut regions = Vec::new();
    for marker in ["#[cfg(test)]", "#[test]"] {
        let mut from = 0usize;
        while let Some(found) = masked[from..].find(marker) {
            let at = from + found;
            from = at + marker.len();
            if let Some(span) = item_span(b, at + marker.len()) {
                regions.push(span);
            }
        }
    }
    regions.sort_unstable();
    regions
}

/// From just past an attribute, finds the span of the item it guards:
/// scan forward (skipping nested `(..)`/`[..]` attribute and signature
/// groups) to the item's `{`, then to the matching `}`. A `;` at group
/// depth zero before any `{` ends a braceless item.
fn item_span(b: &[u8], mut j: usize) -> Option<(usize, usize)> {
    let mut depth = 0isize;
    while j < b.len() {
        match b[j] {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            b';' if depth == 0 => return None,
            b'{' if depth == 0 => {
                let open = j;
                let mut braces = 1isize;
                j += 1;
                while j < b.len() && braces > 0 {
                    match b[j] {
                        b'{' => braces += 1,
                        b'}' => braces -= 1,
                        _ => {}
                    }
                    j += 1;
                }
                return Some((open, j.saturating_sub(1)));
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Maps byte offsets to 1-based (line, column) pairs.
pub struct LineIndex {
    starts: Vec<usize>,
}

impl LineIndex {
    pub fn new(src: &str) -> Self {
        let mut starts = vec![0usize];
        for (i, byte) in src.bytes().enumerate() {
            if byte == b'\n' {
                starts.push(i + 1);
            }
        }
        LineIndex { starts }
    }

    /// 1-based line number containing `offset`.
    pub fn line_of(&self, offset: usize) -> usize {
        match self.starts.binary_search(&offset) {
            Ok(n) => n + 1,
            Err(n) => n,
        }
    }

    /// 1-based (line, byte column) of `offset`.
    pub fn line_col(&self, offset: usize) -> (usize, usize) {
        let line = self.line_of(offset);
        let start = self.starts.get(line - 1).copied().unwrap_or(0);
        (line, offset - start + 1)
    }

    /// Byte span of a 1-based line (exclusive of the newline), or an
    /// empty span past the end of the file.
    pub fn line_span(&self, line: usize, len: usize) -> (usize, usize) {
        let lo = self.starts.get(line - 1).copied().unwrap_or(len);
        let hi = self.starts.get(line).map(|&s| s.saturating_sub(1)).unwrap_or(len);
        (lo, hi.max(lo))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_line_and_doc_comments() {
        let m = mask("let x = 1; // HashMap here\n/// docs: Instant::now\nfn f() {}\n");
        assert!(!m.text.contains("HashMap"));
        assert!(!m.text.contains("Instant"));
        assert!(m.text.contains("let x = 1;"));
        assert!(m.text.contains("fn f() {}"));
    }

    #[test]
    fn masks_strings_and_raw_strings() {
        let src = "let a = \"std::fs::read\"; let b = r#\"SystemTime::now \"inner\" \"#; let c = 1;";
        let m = mask(src);
        assert!(!m.text.contains("std::fs"));
        assert!(!m.text.contains("SystemTime"));
        assert!(m.text.contains("let c = 1;"));
        assert_eq!(m.text.len(), src.len());
    }

    #[test]
    fn masks_escapes_and_char_literals_but_not_lifetimes() {
        let src = "let q = '\\''; let s = \"a\\\"HashMap\\\"b\"; fn f<'a>(x: &'a str) { let c = '\"'; let d = \"ok\"; }";
        let m = mask(src);
        assert!(!m.text.contains("HashMap"));
        // The '"' char literal must not open a string: `ok`'s quotes
        // are still recognized and its contents blanked.
        assert!(!m.text.contains("ok"));
        assert!(m.text.contains("fn f<'a>(x: &'a str)"));
    }

    #[test]
    fn masks_nested_block_comments() {
        let m = mask("/* outer /* HashSet */ still comment */ let y = 2;");
        assert!(!m.text.contains("HashSet"));
        assert!(m.text.contains("let y = 2;"));
    }

    #[test]
    fn byte_strings_are_masked() {
        let m = mask("let a = b\"panic!\"; let b = br#\"unwrap()\"#;");
        assert!(!m.text.contains("panic!"));
        assert!(!m.text.contains("unwrap"));
    }

    #[test]
    fn parses_directives_and_reasons() {
        let m = mask("let x = 1; // i2plint: allow(clock-ban) -- bench timing only\n");
        assert_eq!(m.directives.len(), 1);
        let d = &m.directives[0];
        assert_eq!(d.rule.as_deref(), Some("clock-ban"));
        assert_eq!(d.reason.as_deref(), Some("bench timing only"));
        assert!(d.malformed.is_none());
    }

    #[test]
    fn directive_without_reason_is_malformed() {
        let m = mask("// i2plint: allow(panic-audit)\n");
        assert_eq!(m.directives.len(), 1);
        assert!(m.directives[0].malformed.is_some());
        let m = mask("// i2plint: allow(panic-audit) --   \n");
        assert!(m.directives[0].malformed.is_some());
        let m = mask("// i2plint: deny(panic-audit) -- nope\n");
        assert!(m.directives[0].malformed.is_some());
    }

    #[test]
    fn doc_comments_never_carry_live_directives() {
        let m = mask("/// example: i2plint: allow(clock-ban) -- docs\nfn f() {}\n");
        assert!(m.directives.is_empty());
        let m = mask("//! i2plint: allow(bogus)\nfn f() {}\n");
        assert!(m.directives.is_empty());
        let m = mask("/** i2plint: allow(clock-ban) -- docs */ fn f() {}\n");
        assert!(m.directives.is_empty());
    }

    #[test]
    fn block_comment_directive_strips_trailing_close() {
        let m = mask("/* i2plint: allow(nondet-hash) -- set is membership-only */ let x = 1;\n");
        assert_eq!(m.directives[0].reason.as_deref(), Some("set is membership-only"));
    }

    #[test]
    fn cfg_test_region_covers_mod_body() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn tail() {}\n";
        let m = mask(src);
        assert_eq!(m.test_regions.len(), 1);
        let unwrap_at = src.find(".unwrap").unwrap_or(0);
        assert!(m.in_test_region(unwrap_at));
        let tail_at = src.find("fn tail").unwrap_or(0);
        assert!(!m.in_test_region(tail_at));
    }

    #[test]
    fn cfg_test_on_braceless_item_is_ignored() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn f() {}\n";
        let m = mask(src);
        assert!(m.test_regions.is_empty());
    }

    #[test]
    fn line_index_round_trips() {
        let src = "a\nbb\nccc\n";
        let idx = LineIndex::new(src);
        assert_eq!(idx.line_col(0), (1, 1));
        assert_eq!(idx.line_col(2), (2, 1));
        assert_eq!(idx.line_col(3), (2, 2));
        assert_eq!(idx.line_col(5), (3, 1));
        assert_eq!(idx.line_span(2, src.len()), (2, 4));
    }
}
