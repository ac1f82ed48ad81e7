//! Applies the rule table to files: classification, token matching,
//! directive resolution, and the workspace walk.

use crate::lexer::{self, is_ident, LineIndex, Masked};
use crate::reach::{self, Scanned};
use crate::report::{Allow, Finding, Report};
use crate::rules::{suppressible, Detector, Rule, DIRECTIVE_RULE, FORBID_UNSAFE, RULES};
use std::path::{Path, PathBuf};

/// What a path is, for scoping purposes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Not scanned at all (vendored, generated, non-Rust, fixtures on
    /// a default workspace walk).
    Skip,
    /// Test/bench/example code: counted, but the library-grade rules
    /// do not apply (the dynamic suites police their own behavior).
    TestLike,
    /// Library or binary code: the full catalog applies.
    Code,
}

/// Classifies a workspace-relative, `/`-separated path.
fn classify(rel: &str, include_fixtures: bool) -> Kind {
    if !rel.ends_with(".rs") {
        return Kind::Skip;
    }
    let in_fixtures = rel.starts_with("fixtures/") || rel.contains("/fixtures/");
    if in_fixtures && !include_fixtures {
        return Kind::Skip;
    }
    if rel.starts_with("vendor/") || rel.starts_with("target/") || rel.starts_with('.') {
        return Kind::Skip;
    }
    if in_fixtures {
        // Fixture corpus under explicit scan: full catalog applies.
        return Kind::Code;
    }
    let test_like = rel.starts_with("crates/bench/")
        || rel.starts_with("tests/")
        || rel.contains("/tests/")
        || rel.starts_with("benches/")
        || rel.contains("/benches/")
        || rel.starts_with("examples/")
        || rel.contains("/examples/");
    if test_like {
        Kind::TestLike
    } else {
        Kind::Code
    }
}

/// Boundary-aware occurrences of `token` in masked text: when the
/// token starts (ends) with an identifier character, the byte before
/// (after) must not be one, so `HashMap` never fires inside
/// `FxHashMap` and `panic!` never fires inside `should_panic`.
fn token_matches(masked: &str, token: &str) -> Vec<usize> {
    let b = masked.as_bytes();
    let t = token.as_bytes();
    let check_front = t.first().copied().is_some_and(is_ident);
    let check_back = t.last().copied().is_some_and(is_ident);
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(found) = masked[from..].find(token) {
        let at = from + found;
        from = at + 1;
        if check_front && at > 0 && is_ident(b[at - 1]) {
            continue;
        }
        if check_back && b.get(at + t.len()).copied().is_some_and(is_ident) {
            continue;
        }
        out.push(at);
    }
    out
}

/// Occurrences of literal indexing: an index expression (identifier,
/// `)` or `]`) immediately followed by `[<digits>]`.
fn index_literal_matches(masked: &str) -> Vec<usize> {
    let b = masked.as_bytes();
    let mut out = Vec::new();
    for at in 1..b.len() {
        if b[at] != b'[' {
            continue;
        }
        let prev = b[at - 1];
        if !(is_ident(prev) || prev == b')' || prev == b']') {
            continue;
        }
        let mut j = at + 1;
        while b.get(j).copied().is_some_and(|d| d.is_ascii_digit()) {
            j += 1;
        }
        if j > at + 1 && b.get(j) == Some(&b']') {
            out.push(at);
        }
    }
    out
}

/// A directive resolved to the line it guards.
struct Resolved {
    rule: String,
    reason: String,
    /// The line whose findings it suppresses.
    target_line: usize,
    /// Where the directive itself sits (for the ledger and for
    /// unused-directive findings).
    line: usize,
    used: bool,
}

/// One raw (rule, offset, matched-token) hit before dedup/suppression.
struct Hit {
    rule: &'static Rule,
    offset: usize,
    what: String,
}

/// Applies the per-file rules to one file's source (and its masked
/// shadow) into `report`.
fn scan_file(rel: &str, src: &str, masked: &Masked, kind: Kind, report: &mut Report) {
    report.files_scanned += 1;
    if kind != Kind::Code {
        return;
    }
    let idx = LineIndex::new(src);

    let mut directives = resolve_directives(rel, masked, &idx, report);

    let mut hits: Vec<Hit> = Vec::new();
    for rule in RULES {
        if rule.approved.iter().any(|scope| rel.starts_with(scope)) {
            continue;
        }
        match rule.detector {
            Detector::Tokens => {
                for token in rule.tokens {
                    for at in token_matches(&masked.text, token) {
                        hits.push(Hit { rule, offset: at, what: format!("`{token}`") });
                    }
                }
            }
            Detector::IndexLiteral => {
                for at in index_literal_matches(&masked.text) {
                    hits.push(Hit { rule, offset: at, what: "literal index".to_string() });
                }
            }
            Detector::UnsafeAudit => {
                let name = rel.rsplit('/').next().unwrap_or(rel);
                if name == "lib.rs" && !masked.text.contains(FORBID_UNSAFE) {
                    hits.push(Hit {
                        rule,
                        offset: 0,
                        what: format!("missing `{FORBID_UNSAFE}`"),
                    });
                }
            }
            // Needs every file: `run` applies it after this scan.
            Detector::PubReach => {}
        }
    }

    // One finding per (rule, line): dedup before suppression so a
    // single allow covers e.g. both names in `use …::{HashMap, HashSet}`.
    hits.sort_by_key(|h| (h.rule.name, idx.line_of(h.offset), h.offset));
    hits.dedup_by_key(|h| (h.rule.name, idx.line_of(h.offset)));
    hits.sort_by_key(|h| (h.offset, h.rule.name));

    for hit in hits {
        if masked.in_test_region(hit.offset) {
            continue;
        }
        let (line, col) = idx.line_col(hit.offset);
        if let Some(d) = directives
            .iter_mut()
            .find(|d| d.target_line == line && d.rule == hit.rule.name)
        {
            d.used = true;
            report.allows.push(Allow {
                path: rel.to_string(),
                line,
                rule: hit.rule.name.to_string(),
                reason: d.reason.clone(),
            });
            continue;
        }
        report.findings.push(Finding {
            path: rel.to_string(),
            line,
            col,
            rule: hit.rule.name.to_string(),
            message: format!("{} — {}", hit.what, hit.rule.rationale),
            snippet: snippet_of(src, &idx, line),
        });
    }

    for d in directives.iter().filter(|d| !d.used) {
        report.findings.push(Finding {
            path: rel.to_string(),
            line: d.line,
            col: 1,
            rule: DIRECTIVE_RULE.to_string(),
            message: format!(
                "allow({}) suppressed nothing — stale directives must be removed",
                d.rule
            ),
            snippet: snippet_of(src, &idx, d.line),
        });
    }
}

/// Validates raw directives (known rule, mandatory reason) and binds
/// each to its target line: the directive's own line when it carries
/// code, otherwise the next line.
fn resolve_directives(
    rel: &str,
    masked: &Masked,
    idx: &LineIndex,
    report: &mut Report,
) -> Vec<Resolved> {
    let mut out = Vec::new();
    for raw in &masked.directives {
        if masked.in_test_region(raw.offset) {
            continue;
        }
        let line = idx.line_of(raw.offset);
        let mut bad = |message: String| {
            report.findings.push(Finding {
                path: rel.to_string(),
                line,
                col: 1,
                rule: DIRECTIVE_RULE.to_string(),
                message,
                snippet: String::new(),
            });
        };
        if let Some(why) = raw.malformed {
            bad(format!("malformed i2plint directive: {why}"));
            continue;
        }
        let (Some(rule), Some(reason)) = (raw.rule.clone(), raw.reason.clone()) else {
            bad("malformed i2plint directive".to_string());
            continue;
        };
        if !suppressible().any(|r| r.name == rule) {
            bad(if RULES.iter().any(|r| r.name == rule) {
                format!("`{rule}` takes no allow() — delete the item or narrow it instead")
            } else {
                let known: Vec<&str> = suppressible().map(|r| r.name).collect();
                format!("unknown rule `{rule}` in allow() — known rules: {}", known.join(", "))
            });
            continue;
        }
        // A trailing directive guards its own line; a directive on a
        // line of its own guards the next line that carries code, so
        // several directives can stack above one statement.
        let mut target_line = line;
        while !line_has_code(masked, idx, target_line) {
            target_line += 1;
            if target_line > line + 16 {
                break;
            }
        }
        out.push(Resolved { rule, reason, target_line, line, used: false });
    }
    out
}

/// True when the masked text of 1-based `line` has any non-whitespace
/// (i.e. real code, not just a comment or a blank line).
fn line_has_code(masked: &Masked, idx: &LineIndex, line: usize) -> bool {
    let (lo, hi) = idx.line_span(line, masked.text.len());
    if lo >= masked.text.len() {
        // Past the end: treat as code so the search terminates and the
        // directive reports as unused rather than looping.
        return true;
    }
    masked.text.get(lo..hi).is_some_and(|s| s.bytes().any(|b| !b.is_ascii_whitespace()))
}

pub(crate) fn snippet_of(src: &str, idx: &LineIndex, line: usize) -> String {
    let (lo, hi) = idx.line_span(line, src.len());
    let text = src.get(lo..hi).unwrap_or("").trim();
    let mut out: String = text.chars().take(120).collect();
    if out.len() < text.len() {
        out.push('…');
    }
    out
}

/// A configured run: where the workspace root is and what to scan.
pub struct Config {
    /// Workspace root; paths in the report are relative to it.
    pub root: PathBuf,
    /// Explicit files/directories to scan. Empty means the whole
    /// workspace (with `fixtures/` directories skipped).
    pub paths: Vec<PathBuf>,
}

impl Config {
    /// Scan the whole workspace rooted at `root`.
    pub fn workspace(root: impl Into<PathBuf>) -> Self {
        Config { root: root.into(), paths: Vec::new() }
    }

    /// Scan explicit paths (fixtures included), reporting relative
    /// to `root`.
    pub fn paths(root: impl Into<PathBuf>, paths: Vec<PathBuf>) -> Self {
        Config { root: root.into(), paths }
    }
}

/// Runs the analyzer: the per-file rules file by file, then the
/// workspace pass (`pub-reach`) over every file scanned. The only IO
/// in this crate: directory walks and file reads, both sorted so the
/// scan order (and therefore the report) is deterministic.
pub fn run(config: &Config) -> Result<Report, String> {
    let include_fixtures = !config.paths.is_empty();
    let mut files: Vec<PathBuf> = Vec::new();
    if config.paths.is_empty() {
        walk(&config.root, &mut files)?;
    } else {
        for p in &config.paths {
            let p = if p.is_absolute() { p.clone() } else { config.root.join(p) };
            if p.is_dir() {
                walk(&p, &mut files)?;
            } else {
                files.push(p);
            }
        }
    }
    files.sort();
    files.dedup();

    let mut report = Report { rules_checked: RULES.len(), ..Report::default() };
    let mut scanned = Vec::new();
    for file in &files {
        let rel = relpath(&config.root, file);
        let kind = classify(&rel, include_fixtures);
        if kind == Kind::Skip {
            continue;
        }
        let src = std::fs::read_to_string(file)
            .map_err(|e| format!("i2p-lint: cannot read {}: {e}", file.display()))?;
        let masked = lexer::mask(&src);
        scan_file(&rel, &src, &masked, kind, &mut report);
        scanned.push(Scanned { rel, src, masked, kind });
    }
    reach::check(&scanned, &mut report);
    report.sort();
    Ok(report)
}

/// Directories never descended into, by name, at any depth.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git"];

fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| format!("i2p-lint: cannot read dir {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("i2p-lint: walk error under {}: {e}", dir.display()))?;
        paths.push(entry.path());
    }
    paths.sort();
    for path in paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if SKIP_DIRS.contains(&name) || name.starts_with('.') {
                continue;
            }
            walk(&path, files)?;
        } else if name.ends_with(".rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative, `/`-separated path for reports.
fn relpath(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    let parts: Vec<String> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    parts.join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_str(rel: &str, src: &str) -> Report {
        let mut r = Report { rules_checked: RULES.len(), ..Report::default() };
        scan_file(rel, src, &lexer::mask(src), classify(rel, true), &mut r);
        r.sort();
        r
    }

    #[test]
    fn classification_table() {
        assert_eq!(classify("crates/sim/src/world.rs", false), Kind::Code);
        assert_eq!(classify("src/cli.rs", false), Kind::Code);
        assert_eq!(classify("tests/chaos.rs", false), Kind::TestLike);
        assert_eq!(classify("crates/netdb/tests/prop_netdb.rs", false), Kind::TestLike);
        assert_eq!(classify("crates/bench/src/lib.rs", false), Kind::TestLike);
        assert_eq!(classify("examples/network_census.rs", false), Kind::TestLike);
        assert_eq!(classify("vendor/criterion/src/lib.rs", false), Kind::Skip);
        assert_eq!(classify("crates/lint/fixtures/clock_ban.rs", false), Kind::Skip);
        assert_eq!(classify("crates/lint/fixtures/clock_ban.rs", true), Kind::Code);
        assert_eq!(classify("README.md", false), Kind::Skip);
    }

    #[test]
    fn token_boundaries_respect_identifiers() {
        let hits = token_matches("let m: FxHashMap<u8, u8> = FxHashMap::default();", "HashMap");
        assert!(hits.is_empty());
        let hits = token_matches("use std::collections::HashMap;", "HashMap");
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn index_literal_shapes() {
        assert_eq!(index_literal_matches("let x = v[0];").len(), 1);
        assert_eq!(index_literal_matches("let x = f()[12];").len(), 1);
        assert!(index_literal_matches("let x = [0u8; 32];").is_empty());
        assert!(index_literal_matches("let x = v[i];").is_empty());
        assert!(index_literal_matches("let t: [u8; 6] = y;").is_empty());
    }

    #[test]
    fn finding_in_code_but_not_in_string_or_test_mod() {
        let src = "fn f() { let t = std::time::Duration::ZERO; }\n\
                   fn g() { let s = \"std::time inside a string\"; }\n\
                   #[cfg(test)]\nmod tests {\n  fn t() { let x = std::time::Duration::ZERO; }\n}\n";
        let r = scan_str("crates/sim/src/x.rs", src);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, "clock-ban");
        assert_eq!(r.findings[0].line, 1);
    }

    #[test]
    fn allow_with_reason_moves_finding_to_ledger() {
        let src = "fn f() { x.unwrap(); } // i2plint: allow(panic-audit) -- cannot fail: len checked\n";
        let r = scan_str("crates/sim/src/x.rs", src);
        assert!(r.findings.is_empty());
        assert_eq!(r.allows.len(), 1);
        assert_eq!(r.allows[0].reason, "cannot fail: len checked");
    }

    #[test]
    fn own_line_allow_guards_next_line() {
        let src = "// i2plint: allow(panic-audit) -- provably in range\nfn f() { x.unwrap(); }\n";
        let r = scan_str("crates/sim/src/x.rs", src);
        assert!(r.findings.is_empty());
        assert_eq!(r.allows.len(), 1);
    }

    #[test]
    fn unused_allow_is_a_finding() {
        let src = "// i2plint: allow(panic-audit) -- nothing here\nfn f() {}\n";
        let r = scan_str("crates/sim/src/x.rs", src);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, DIRECTIVE_RULE);
    }

    #[test]
    fn pub_reach_takes_no_allow() {
        let src = "// i2plint: allow(pub-reach) -- kept for later\npub fn f() {}\n";
        let r = scan_str("crates/sim/src/x.rs", src);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, DIRECTIVE_RULE);
        assert!(r.findings[0].message.contains("takes no allow()"));
        assert!(r.allows.is_empty());
    }

    #[test]
    fn approved_scope_exempts_rule() {
        let src = "fn f() { let r = DetRng::new(7); r }\n";
        let r = scan_str("crates/measure/src/fleet.rs", src);
        assert!(r.findings.iter().all(|f| f.rule != "rng-containment"));
        let r = scan_str("crates/measure/src/attack.rs", src);
        assert!(r.findings.iter().any(|f| f.rule == "rng-containment"));
    }

    #[test]
    fn unsafe_audit_fires_only_on_lib_roots() {
        let r = scan_str("crates/sim/src/lib.rs", "pub fn f() {}\n");
        assert!(r.findings.iter().any(|f| f.rule == "unsafe-audit"));
        let with_attr = "#![forbid(unsafe_code)]\npub fn f() {}\n";
        let r = scan_str("crates/sim/src/lib.rs", with_attr);
        assert!(r.findings.is_empty());
        let r = scan_str("crates/sim/src/world.rs", "pub fn f() {}\n");
        assert!(r.findings.iter().all(|f| f.rule != "unsafe-audit"));
    }
}
