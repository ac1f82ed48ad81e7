//! `i2p-lint` — the workspace-native determinism & purity analyzer.
//!
//! Every result this reproduction reports (golden figures, `.i2ps`
//! replay byte-identity, chaos parity, thread-count independence)
//! rests on a source-level discipline: keyed draws, FxHash maps
//! everywhere, no wall clocks or ambient IO in the core. The dynamic
//! suites catch a violation only after it has already perturbed a
//! result; this crate makes the invariant catalog of DESIGN.md §5–§10
//! machine-checked *before* a single test runs (§11 documents the
//! catalog itself).
//!
//! The analyzer is deliberately small and self-contained: a masking
//! lexer (comment/string/raw-string/char-literal aware, so bans never
//! fire inside literals or docs — see [`lexer`]), a declarative rule
//! table ([`rules`]), and a scanner ([`scan`]) that applies the table
//! per workspace-relative path, then runs the one workspace rule,
//! `pub-reach`, over every scanned file. No `syn`, no dependencies: the
//! gate must stay trustworthy even when the crates it polices are
//! broken.
//!
//! Violations are suppressible only via an inline directive whose
//! reason is mandatory and surfaced in the report's ledger:
//!
//! ```text
//! let v = caps[0]; // i2plint: allow(index-literal) -- parse() rejects empty caps
//! ```
//!
//! Run it as `cargo run -p i2p-lint -- [--deny] [--format text|json]
//! [PATHS…]`; CI runs it with `--deny` as a hard gate before the test
//! suites, and every run ends with a grep-stable one-line summary
//! (`rules_checked=… files_scanned=… findings=… allows=…`).

#![forbid(unsafe_code)]

pub mod lexer;
mod reach;
pub mod report;
pub mod rules;
pub mod scan;

pub use report::{Allow, Finding, Report};
pub use scan::{run, Config};
