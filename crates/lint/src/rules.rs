//! The invariant catalog, as data (DESIGN.md §11).
//!
//! Each [`Rule`] is a named determinism/purity invariant with the
//! token set that betrays a violation and the path scope where the
//! construct is *legal* (the approved modules). Scoping is by
//! workspace-relative path prefix, so the catalog reads as a table:
//! rule → rationale → approved modules. Adding a rule is adding a row
//! here plus a fixture under `fixtures/` and a line in DESIGN.md §11.
//!
//! Matching happens on masked text (see `lexer`), so none of the
//! tokens below can fire inside a string, raw string, char literal,
//! or (doc) comment.

/// How a rule finds violations.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Detector {
    /// Identifier-boundary-aware token search over masked code.
    Tokens,
    /// Literal slice/array index (`expr[<digits>]`): a structural scan
    /// rather than a token list.
    IndexLiteral,
    /// Crate roots (`lib.rs`) must carry `#![forbid(unsafe_code)]`.
    UnsafeAudit,
    /// A workspace pass over every scanned file (`reach`), run after
    /// the per-file scan. It takes no allow.
    PubReach,
}

/// One row of the invariant catalog.
pub struct Rule {
    /// Stable name, used in reports and `i2plint: allow(<name>)`.
    pub name: &'static str,
    /// One-line rationale surfaced beside every finding.
    pub rationale: &'static str,
    /// Tokens whose presence (outside the approved scope) is a
    /// violation. Empty for structural detectors.
    pub tokens: &'static [&'static str],
    /// Workspace-relative path prefixes where the construct is legal.
    pub approved: &'static [&'static str],
    pub detector: Detector,
}

/// The pseudo-rule name under which malformed or unknown suppression
/// directives are reported (not suppressible itself).
pub const DIRECTIVE_RULE: &str = "directive";

/// The exact crate-root attribute the `unsafe-audit` rule requires.
pub const FORBID_UNSAFE: &str = "#![forbid(unsafe_code)]";

/// The invariant catalog. Order is the report's rule order.
pub const RULES: &[Rule] = &[
    Rule {
        name: "clock-ban",
        rationale: "wall-clock reads break replay byte-identity; simulated time comes from \
                    i2p_data::time, bench timing lives in crates/bench, and the telemetry \
                    timing plane is confined to crates/telemetry/src/timing.rs",
        tokens: &["std::time"],
        approved: &["crates/bench/", "crates/telemetry/src/timing.rs"],
        detector: Detector::Tokens,
    },
    Rule {
        name: "wall-clock-outside-telemetry",
        rationale: "Instant/SystemTime reads outside the segregated timing plane leak machine \
                    speed into results; record durations through i2p_telemetry::span/tally \
                    (excluded from golden and replay comparisons) instead",
        tokens: &["Instant::now", "SystemTime"],
        approved: &["crates/telemetry/src/timing.rs", "crates/bench/"],
        detector: Detector::Tokens,
    },
    Rule {
        name: "nondet-hash",
        rationale: "SipHash iteration order is randomized per process; replayed paths must use \
                    the FxHash types from i2p-data (or BTree collections)",
        tokens: &[
            "std::collections::HashMap",
            "std::collections::HashSet",
            "HashMap",
            "HashSet",
            "RandomState",
            "DefaultHasher",
            "SipHasher",
        ],
        approved: &["crates/data/src/fxhash.rs"],
        detector: Detector::Tokens,
    },
    Rule {
        name: "rng-containment",
        rationale: "root RNG construction outside the approved seed/fork/keyed-draw modules \
                    breaks the (seed, lane, key) derivation audit; fork() from an existing \
                    DetRng instead",
        tokens: &["DetRng::new", "from_entropy", "thread_rng", "OsRng", "getrandom"],
        approved: &[
            "crates/crypto/src/rng.rs",
            "crates/faults/src/lib.rs",
            "crates/sim/src/world.rs",
            "crates/sim/src/peer.rs",
            "crates/router/src/net.rs",
            "crates/router/src/reseed.rs",
            "crates/measure/src/fleet.rs",
        ],
        detector: Detector::Tokens,
    },
    Rule {
        name: "io-containment",
        rationale: "ambient filesystem/network/env/process access makes results depend on the \
                    machine, not the seed; IO belongs to i2p-store, the CLI entrypoints, and \
                    the env-knob readers",
        tokens: &["std::fs", "std::net", "std::env", "std::process", "std::io::stdin"],
        approved: &[
            "crates/store/src/",
            "src/cli.rs",
            "src/bin/",
            "crates/lint/src/",
            "crates/telemetry/src/rss.rs",
        ],
        detector: Detector::Tokens,
    },
    Rule {
        name: "thread-identity",
        rationale: "thread ids and host parallelism leak scheduling into results; only the \
                    scenario lab may inspect parallelism, and results must stay thread-count \
                    independent",
        tokens: &["thread::current", "ThreadId", "available_parallelism"],
        approved: &["crates/measure/src/lab.rs"],
        detector: Detector::Tokens,
    },
    Rule {
        name: "panic-audit",
        rationale: "unwrap/expect/panic in library crates turns recoverable corruption into an \
                    abort; return the crate's error type or allow-with-reason why it cannot fire",
        tokens: &[".unwrap()", ".expect(", "panic!", "unreachable!", "todo!", "unimplemented!"],
        approved: &[],
        detector: Detector::Tokens,
    },
    Rule {
        name: "index-literal",
        rationale: "slice-index-by-literal panics on short input; use get()/split_first or \
                    allow-with-reason why the shape is static (exempt: crates/crypto's \
                    fixed-width block math on const-sized arrays)",
        tokens: &[],
        approved: &["crates/crypto/src/"],
        detector: Detector::IndexLiteral,
    },
    Rule {
        name: "unsafe-audit",
        rationale: "every crate root must pin #![forbid(unsafe_code)] so unsafe cannot creep \
                    into a crate that shipped without it",
        tokens: &[],
        approved: &[],
        detector: Detector::UnsafeAudit,
    },
    Rule {
        name: "pub-reach",
        rationale: "no other file names this public item, and `pub` hides it from rustc's \
                    dead_code; delete it, or narrow it to pub(crate) or private so rustc \
                    guards it",
        tokens: &[],
        approved: &[],
        detector: Detector::PubReach,
    },
];

/// The rules an `i2plint: allow` may name: every rule but the
/// workspace pass, since an unreached public item is deleted or
/// narrowed, never excused.
pub fn suppressible() -> impl Iterator<Item = &'static Rule> {
    RULES.iter().filter(|r| r.detector != Detector::PubReach)
}
