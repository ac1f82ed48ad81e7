//! The lint gate's own regression net.
//!
//! Three claims are pinned here: (1) the fixture corpus under
//! `crates/lint/fixtures/` produces exactly the findings catalogued in
//! `tests/golden/lint_report.json`, byte-for-byte; (2) the report is
//! deterministic — two runs render identically; (3) the workspace
//! itself scans clean, which is what lets CI run `i2p-lint --deny` as
//! a hard gate.
//!
//! When the analyzer or the fixtures change intentionally, regenerate
//! the golden and commit it alongside:
//!
//! ```text
//! I2PSCOPE_BLESS=1 cargo test --test lint_gate
//! ```

use i2p_lint::{run, Config, Report};
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Scans the fixture corpus rooted at the lint crate, so report paths
/// read `fixtures/…` and no workspace `approved` scope matches.
fn fixture_report() -> Report {
    let lint_root = workspace_root().join("crates/lint");
    run(&Config::paths(lint_root, vec![PathBuf::from("fixtures")])).expect("fixture scan")
}

fn rules_hit(report: &Report, path_stem: &str) -> Vec<String> {
    let mut rules: Vec<String> = report
        .findings
        .iter()
        .filter(|f| f.path.contains(path_stem))
        .map(|f| f.rule.clone())
        .collect();
    rules.sort();
    rules.dedup();
    rules
}

#[test]
fn fixture_corpus_matches_golden() {
    let actual = fixture_report().render_json();
    let path = workspace_root().join("tests/golden/lint_report.json");
    if std::env::var("I2PSCOPE_BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &actual).expect("bless lint golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing tests/golden/lint_report.json; generate it with \
             `I2PSCOPE_BLESS=1 cargo test --test lint_gate` and commit it"
        )
    });
    if actual != expected {
        for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
            assert_eq!(a, e, "lint_report.json diverges at line {}", i + 1);
        }
        assert_eq!(actual.len(), expected.len(), "lint_report.json length drifted");
    }
}

#[test]
fn report_is_byte_stable_across_runs() {
    let first = fixture_report();
    let second = fixture_report();
    assert_eq!(first.render_json(), second.render_json());
    assert_eq!(first.render_text(), second.render_text());
    assert_eq!(first.summary(), second.summary());
}

#[test]
fn every_rule_class_fires_in_its_fixture() {
    let report = fixture_report();
    assert_eq!(rules_hit(&report, "clock_ban"), ["clock-ban"]);
    assert_eq!(rules_hit(&report, "wall_clock"), ["wall-clock-outside-telemetry"]);
    assert_eq!(rules_hit(&report, "nondet_hash"), ["nondet-hash"]);
    assert_eq!(rules_hit(&report, "rng_containment"), ["rng-containment"]);
    assert_eq!(rules_hit(&report, "io_containment"), ["io-containment"]);
    assert_eq!(rules_hit(&report, "thread_identity"), ["thread-identity"]);
    assert_eq!(rules_hit(&report, "panic_audit"), ["panic-audit"]);
    assert_eq!(rules_hit(&report, "index_literal"), ["index-literal"]);
    assert_eq!(rules_hit(&report, "unsafe_audit"), ["unsafe-audit"]);
    assert_eq!(rules_hit(&report, "pub_reach"), ["pub-reach"]);
}

#[test]
fn tricky_non_findings_stay_silent() {
    let report = fixture_report();
    // Banned names in strings, raw strings, doc comments, and test
    // modules never fire; the two valid allows land in the ledger.
    assert_eq!(rules_hit(&report, "non_findings"), Vec::<String>::new());
    let allows: Vec<_> =
        report.allows.iter().filter(|a| a.path.contains("non_findings")).collect();
    assert_eq!(allows.len(), 2);
    assert!(allows.iter().all(|a| !a.reason.is_empty()));
}

#[test]
fn directive_misuse_is_a_finding_and_suppresses_nothing() {
    let report = fixture_report();
    let rules = rules_hit(&report, "bad_directive");
    assert_eq!(rules, ["directive", "index-literal"]);
    let directive_findings = report
        .findings
        .iter()
        .filter(|f| f.path.contains("bad_directive") && f.rule == "directive")
        .count();
    // Missing reason, unknown rule, and a stale own-line directive.
    assert_eq!(directive_findings, 3);
    let surviving = report
        .findings
        .iter()
        .filter(|f| f.path.contains("bad_directive") && f.rule == "index-literal")
        .count();
    assert_eq!(surviving, 2, "invalid directives must not suppress violations");
}

#[test]
fn workspace_scans_clean() {
    let report = run(&Config::workspace(workspace_root())).expect("workspace scan");
    assert!(
        report.findings.is_empty(),
        "the workspace must lint clean; run `cargo run -p i2p-lint` for details:\n{}",
        report.render_text()
    );
    // Every suppression in the tree carries a reason.
    assert!(report.allows.iter().all(|a| !a.reason.is_empty()));
    assert!(report.files_scanned > 100, "walk shrank: {} files", report.files_scanned);
}

#[test]
fn summary_line_is_machine_readable() {
    let report = fixture_report();
    let line = report.summary();
    assert!(line.starts_with("i2p-lint: rules_checked="));
    for key in ["rules_checked=", "files_scanned=", "findings=", "allows="] {
        assert!(line.contains(key), "summary missing {key}: {line}");
    }
}
