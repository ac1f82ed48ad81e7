//! # i2p-bench — shared helpers for the figure/table benches
//!
//! Every bench target regenerates one table or figure from Hoang et al.
//! (IMC 2018) and prints it in the paper's layout. The world scale and
//! seed can be overridden without recompiling:
//!
//! * `I2PSCOPE_SCALE` — population scale (default **1.0** = the paper's
//!   ≈32 K daily peers; use e.g. `0.1` for quick runs).
//! * `I2PSCOPE_SEED` — master seed (default 20180201).
//! * `I2PSCOPE_DAYS` — study days for the long-window figures
//!   (default 89, the paper's three months).
//! * `I2PSCOPE_THREADS` — scenario-lab sweep threads (default 0 = one
//!   per core; results are identical for every thread count).
//! * `I2PSCOPE_REPLICATES` — replicates per sweep point (default 1).
//!
//! Malformed values panic with the variable name and the bad value
//! rather than silently falling back to the default.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use i2p_sim::world::{World, WorldConfig};
// One definition of the knob semantics (malformed values **panic**
// instead of silently falling back to a full-scale run): the CLI's.
use i2pscope::cli::env_parse;
use std::fmt::Write as _;
use std::time::Instant;

fn env_f64(name: &str, default: f64) -> f64 {
    env_parse(name, default)
}

fn env_u64(name: &str, default: u64) -> u64 {
    env_parse(name, default)
}

/// The configured scale.
pub fn scale() -> f64 {
    env_f64("I2PSCOPE_SCALE", 1.0)
}

/// The configured seed.
pub fn seed() -> u64 {
    env_u64("I2PSCOPE_SEED", 20_180_201)
}

/// The configured study length.
pub fn days() -> u64 {
    env_u64("I2PSCOPE_DAYS", 89)
}

/// Scenario-sweep threads (`I2PSCOPE_THREADS`; 0 = one per core).
pub fn threads() -> usize {
    env_parse("I2PSCOPE_THREADS", 0usize)
}

/// Replicates per sweep point (`I2PSCOPE_REPLICATES`, default 1 —
/// replicate 0 is always the bit-identical rebuild-equivalent run).
pub fn replicates() -> usize {
    env_parse("I2PSCOPE_REPLICATES", 1usize)
}

/// Generates a world covering `days_needed` study days at the configured
/// scale/seed.
pub fn world(days_needed: u64) -> World {
    let cfg = WorldConfig { days: days_needed, scale: scale(), seed: seed() };
    let t = Instant::now();
    let w = World::generate(cfg);
    eprintln!(
        "[i2p-bench] world: {} peers total, {} online on day 0, scale {}, generated in {:.2?}",
        w.total_peers(),
        w.online_count(0),
        cfg.scale,
        t.elapsed()
    );
    w
}

/// Prints a figure with a standard banner and wall-clock footer.
pub fn emit(name: &str, body: impl FnOnce() -> String) {
    let t = Instant::now();
    let text = body();
    println!("{text}");
    println!("[i2p-bench] {name} regenerated in {:.2?}\n", t.elapsed());
}

/// Schema tag carried by every `BENCH_<name>.json` artifact.
pub const BENCH_SCHEMA: &str = "i2p-bench/1";

/// The unified bench artifact: every bench target builds one of these
/// (via [`report`]), times its sections through [`BenchReport::emit`] /
/// [`BenchReport::record_wall_s`] / [`BenchReport::record_ns_per_iter`],
/// and ends with [`BenchReport::write`], which lands a schema-versioned
/// `BENCH_<name>.json` at the workspace root. Besides the wall clocks
/// (machine-dependent, for trend lines) the artifact archives the knob
/// echo and the run's deterministic telemetry-counter deltas
/// (machine-independent, for cross-run sanity diffs).
pub struct BenchReport {
    name: String,
    started: Instant,
    knobs: Vec<(String, String)>,
    sections: Vec<(String, f64)>,
    ns_per_iter: Vec<(String, f64)>,
    baseline: i2p_telemetry::counters::Snapshot,
}

/// Starts the report for the bench target `name` (the artifact becomes
/// `BENCH_<name>.json`), capturing the standard knob echo and the
/// telemetry-counter baseline.
pub fn report(name: &str) -> BenchReport {
    BenchReport {
        name: name.to_string(),
        started: Instant::now(),
        knobs: vec![
            ("scale".to_string(), scale().to_string()),
            ("seed".to_string(), seed().to_string()),
            ("days".to_string(), days().to_string()),
            ("threads".to_string(), threads().to_string()),
            ("replicates".to_string(), replicates().to_string()),
        ],
        sections: Vec::new(),
        ns_per_iter: Vec::new(),
        baseline: i2p_telemetry::counters::snapshot(),
    }
}

impl BenchReport {
    /// Adds a bench-specific knob to the archived echo.
    pub fn knob(&mut self, key: &str, value: impl std::fmt::Display) {
        self.knobs.push((key.to_string(), value.to_string()));
    }

    /// Like the free [`emit`] — same banner, same footer — but also
    /// records the section's wall time in the artifact.
    pub fn emit(&mut self, label: &str, body: impl FnOnce() -> String) {
        let t = Instant::now();
        let text = body();
        let elapsed = t.elapsed();
        println!("{text}");
        println!("[i2p-bench] {label} regenerated in {elapsed:.2?}\n");
        self.sections.push((label.to_string(), elapsed.as_secs_f64()));
    }

    /// Records a section wall time the caller measured itself.
    pub fn record_wall_s(&mut self, label: &str, secs: f64) {
        self.sections.push((label.to_string(), secs));
    }

    /// Records a criterion-style per-iteration timing (see the shim's
    /// `take_results`, which drains every measured `bench_function`).
    pub fn record_ns_per_iter(&mut self, label: &str, ns: f64) {
        self.ns_per_iter.push((label.to_string(), ns));
    }

    /// Writes `BENCH_<name>.json` at the workspace root.
    pub fn write(self) {
        let json = self.to_json();
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("../../BENCH_{}.json", self.name));
        std::fs::write(&path, json).expect("write BENCH json");
        eprintln!("[i2p-bench] wrote {}", path.display());
    }

    /// The artifact's JSON text as of now: knobs, section wall clocks,
    /// per-iteration timings and the counter deltas since [`report`].
    /// Keys and string values are quoted by `i2p_telemetry::json`, so
    /// the text parses back with `i2p_telemetry::json::parse`.
    pub fn to_json(&self) -> String {
        let total = self.started.elapsed().as_secs_f64();
        let deltas = i2p_telemetry::counters::snapshot().delta_since(&self.baseline);
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"schema\": {},", quoted(BENCH_SCHEMA));
        let _ = writeln!(json, "  \"bench\": {},", quoted(&self.name));
        json.push_str("  \"knobs\": {\n");
        render_pairs(&mut json, self.knobs.iter().map(|(k, v)| (k.as_str(), quoted(v))));
        json.push_str("  },\n");
        let _ = writeln!(json, "  \"total_wall_s\": {total:.3},");
        json.push_str("  \"sections_wall_s\": {\n");
        render_pairs(&mut json, self.sections.iter().map(|(k, s)| (k.as_str(), format!("{s:.3}"))));
        json.push_str("  },\n");
        json.push_str("  \"ns_per_iter\": {\n");
        render_pairs(&mut json, self.ns_per_iter.iter().map(|(k, ns)| (k.as_str(), format!("{ns:.1}"))));
        json.push_str("  },\n");
        json.push_str("  \"counters\": {\n");
        render_pairs(&mut json, deltas.entries().filter(|(_, v)| *v > 0).map(|(k, v)| (k, v.to_string())));
        json.push_str("  }\n}\n");
        json
    }
}

/// `s` as a JSON string literal.
fn quoted(s: &str) -> String {
    let mut out = String::new();
    i2p_telemetry::json::push_string(&mut out, s);
    out
}

fn render_pairs<'k>(json: &mut String, pairs: impl Iterator<Item = (&'k str, String)>) {
    let pairs: Vec<_> = pairs.collect();
    for (i, (key, value)) in pairs.iter().enumerate() {
        let comma = if i + 1 == pairs.len() { "" } else { "," };
        let _ = writeln!(json, "    {}: {value}{comma}", quoted(key));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use i2p_telemetry::json::{parse, Value};

    #[test]
    fn knob_strings_survive_a_json_round_trip() {
        let tricky = "quote \" backslash \\ control \u{1} tab \t";
        let mut report = report("escape");
        report.knob("tricky \"key\"", tricky);
        let doc = parse(&report.to_json()).expect("BENCH json parses");
        let knob = doc.field("knobs").and_then(|k| k.field("tricky \"key\""));
        assert_eq!(knob, Some(&Value::Str(tricky.to_string())));
    }
}
