//! The workspace pass behind `pub-reach`: a plain-`pub` item that no
//! other scanned file names is API that nothing calls, and `pub` hides
//! it from rustc's `dead_code`.
//!
//! It runs after the per-file scan, over the masked texts that scan
//! made (DESIGN.md §11). Each file's identifier set is built once, and a
//! count of the files naming each identifier answers "does another file
//! name it" with one lookup per item.
//!
//! A mention is an identifier in another file's code: tests, benches,
//! examples and a private `use` (clippy rejects an unused import) count.
//! A `pub use` does not, since it forwards a name without using it, and
//! masked comments and strings hold no identifiers. One exception: a
//! type named by a `pub` signature, field or type alias in its own file,
//! which rustc would refuse to narrow (`private_interfaces`).

use crate::lexer::{is_ident, LineIndex, Masked};
use crate::report::{Finding, Report};
use crate::rules::{Detector, RULES};
use crate::scan::{snippet_of, Kind};
use std::collections::{BTreeMap, BTreeSet};

/// One scanned file, kept for the workspace pass.
pub struct Scanned {
    pub rel: String,
    pub src: String,
    pub masked: Masked,
    pub kind: Kind,
}

/// A plain-`pub` declaration: its keyword (`""` for a field), the item
/// it names (a field names none), and the byte span of its public
/// signature.
struct PubDecl<'a> {
    keyword: &'a str,
    item: Option<(usize, &'a str)>,
    sig: (usize, usize),
}

/// The identifiers (not the numbers) of masked text, with offsets.
fn idents(text: &str) -> Vec<(usize, &str)> {
    let b = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < b.len() {
        let start = i;
        while i < b.len() && is_ident(b[i]) {
            i += 1;
        }
        if i == start {
            i += 1;
        } else if !b[start].is_ascii_digit() {
            out.push((start, &text[start..i]));
        }
    }
    out
}

/// True when only whitespace lies between `lo` and `hi`.
fn adjacent(text: &str, lo: usize, hi: usize) -> bool {
    text.get(lo..hi)
        .is_some_and(|gap| gap.bytes().all(|b| b.is_ascii_whitespace()))
}

/// Where the signature from `from` ends: the first of the keyword's
/// stop bytes outside `()`, `[]` and `<>` (`->` and `=>` close
/// nothing). An enum's variants are public, so it runs to its `}`.
fn sig_end(b: &[u8], from: usize, keyword: &str) -> usize {
    let stops: &[u8] = match keyword {
        "type" => b";",
        "const" | "static" => b"=;",
        "" => b",;{})",
        _ => b"{;",
    };
    let (mut depth, mut braces) = (0usize, 0usize);
    for (j, &c) in b.iter().enumerate().skip(from) {
        match c {
            b'(' | b'[' | b'<' => depth += 1,
            b')' | b']' if depth > 0 => depth -= 1,
            b'>' if depth > 0 && !matches!(b.get(j.wrapping_sub(1)), Some(b'-' | b'=')) => {
                depth -= 1
            }
            b'{' if braces > 0 || (depth == 0 && keyword == "enum") => braces += 1,
            b'}' if braces == 1 => return j,
            b'}' if braces > 1 => braces -= 1,
            _ if braces > 0 => {}
            _ if depth == 0 && stops.contains(&c) => return j,
            _ => {}
        }
    }
    b.len()
}

/// Every plain `pub` outside test regions; `pub(crate)` and the other
/// restricted forms are rustc's to police already.
fn pub_decls<'a>(masked: &Masked, toks: &[(usize, &'a str)]) -> Vec<PubDecl<'a>> {
    let text = masked.text.as_str();
    let mut out = Vec::new();
    for (k, &(at, tok)) in toks.iter().enumerate() {
        let after = at + tok.len();
        let restricted = text[after..].trim_start().starts_with('(');
        if tok != "pub" || restricted || masked.in_test_region(at) {
            continue;
        }
        // Walk the qualifiers (`const fn`, `unsafe extern "C" fn`,
        // `static mut`) to the last keyword; the next word is the name.
        let (mut keyword, mut cursor) = ("", after);
        for &(t_at, t) in &toks[k + 1..] {
            if !adjacent(text, cursor, t_at) {
                break;
            }
            cursor = t_at + t.len();
            match t {
                "fn" | "const" | "static" | "struct" | "union" | "trait" | "enum" | "type" => {
                    keyword = t
                }
                "async" | "unsafe" | "extern" | "mut" => {}
                _ => {
                    let (item, from) = if keyword.is_empty() {
                        (None, t_at)
                    } else {
                        (Some((t_at, t)), cursor)
                    };
                    let sig = (from, sig_end(text.as_bytes(), from, keyword));
                    out.push(PubDecl { keyword, item, sig });
                    break;
                }
            }
        }
    }
    out
}

/// The identifiers a file lends to the others: all of its code but its
/// `pub use` re-exports.
fn mentions<'a>(text: &str, toks: &[(usize, &'a str)]) -> BTreeSet<&'a str> {
    let mut out = BTreeSet::new();
    let mut skip_to = 0usize;
    for (k, &(at, tok)) in toks.iter().enumerate() {
        if at < skip_to {
            continue;
        }
        let reexport = tok == "pub"
            && toks
                .get(k + 1)
                .is_some_and(|&(u_at, u)| u == "use" && adjacent(text, at + tok.len(), u_at));
        if reexport {
            skip_to = text[at..].find(';').map_or(text.len(), |semi| at + semi);
        } else {
            out.insert(tok);
        }
    }
    out
}

/// Runs `pub-reach` over every scanned file, into `report`.
pub fn check(files: &[Scanned], report: &mut Report) {
    let Some(rule) = RULES.iter().find(|r| r.detector == Detector::PubReach) else {
        return;
    };
    let toks: Vec<Vec<(usize, &str)>> = files.iter().map(|f| idents(&f.masked.text)).collect();
    let sets: Vec<BTreeSet<&str>> = files
        .iter()
        .zip(&toks)
        .map(|(f, t)| mentions(&f.masked.text, t))
        .collect();
    let mut files_naming: BTreeMap<&str, usize> = BTreeMap::new();
    for name in sets.iter().flatten() {
        *files_naming.entry(name).or_insert(0) += 1;
    }
    for ((file, toks), own) in files.iter().zip(&toks).zip(&sets) {
        if file.kind != Kind::Code {
            continue;
        }
        let decls = pub_decls(&file.masked, toks);
        let mut in_signatures = BTreeSet::new();
        for d in &decls {
            let lo = toks.partition_point(|&(at, _)| at < d.sig.0);
            let hi = toks.partition_point(|&(at, _)| at < d.sig.1);
            in_signatures.extend(toks[lo..hi].iter().map(|&(_, t)| t));
        }
        let idx = LineIndex::new(&file.src);
        for d in &decls {
            let Some((at, name)) = d.item else { continue };
            let elsewhere =
                files_naming.get(name).copied().unwrap_or(0) > usize::from(own.contains(name));
            let is_type = matches!(d.keyword, "struct" | "union" | "trait" | "enum" | "type");
            if elsewhere || name == "_" || (is_type && in_signatures.contains(name)) {
                continue;
            }
            let (line, col) = idx.line_col(at);
            report.findings.push(Finding {
                path: file.rel.clone(),
                line,
                col,
                rule: rule.name.to_string(),
                message: format!("`{name}` — {}", rule.rationale),
                snippet: snippet_of(&file.src, &idx, line),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::mask;

    /// Each declaration's item name (or `-` for a field) and its
    /// signature text.
    fn decls_of(src: &str) -> Vec<(String, String)> {
        let m = mask(src);
        let toks = idents(&m.text);
        pub_decls(&m, &toks)
            .iter()
            .map(|d| {
                let name = d.item.map_or("-", |(_, n)| n).to_string();
                (name, src[d.sig.0..d.sig.1].trim().to_string())
            })
            .collect()
    }

    #[test]
    fn items_behind_qualifiers_are_found_and_restricted_ones_skipped() {
        let src = "pub const fn a() {}\npub static mut B: u8 = 0;\npub(crate) fn c() {}\n\
                   pub unsafe extern \"C\" fn d() {}\npub(super) struct E;\n";
        let names: Vec<String> = decls_of(src).into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["a", "B", "d"]);
    }

    #[test]
    fn signatures_stop_at_the_body_and_skip_nested_commas() {
        let src = "pub struct S { pub m: Map<K, V>, n: N }\n\
                   pub fn f(x: A) -> Box<dyn Fn(B) -> C> { let d = D; }\n\
                   pub enum E { One(F), Two { g: G } }\npub type H = I<J>;\n";
        let sigs = decls_of(src);
        let want = [
            ("S", ""),
            ("-", "m: Map<K, V>"),
            ("f", "(x: A) -> Box<dyn Fn(B) -> C>"),
            ("E", "{ One(F), Two { g: G }"),
            ("H", "= I<J>"),
        ];
        let got: Vec<(&str, &str)> = sigs.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn pub_use_lends_no_names() {
        let text = "pub use a::{B, C};\nuse d::E;\nfn f() { g() }\n";
        let set = mentions(text, &idents(text));
        assert!(!set.contains("B") && !set.contains("C"));
        assert!(set.contains("E") && set.contains("g"));
    }
}
