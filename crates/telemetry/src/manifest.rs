//! Run-manifest and Chrome-trace emission, plus their validators.
//!
//! A run manifest is the machine-readable record of one instrumented
//! invocation: schema tag, the command and config knobs it ran with,
//! the deterministic counter totals (thread-count invariant, diffable
//! across runs), and the timing plane (span tree, tally table, peak
//! RSS — wall-clock data, never diffed). The Chrome trace export is
//! the same span data re-shaped into trace-event form so
//! `chrome://tracing` / Perfetto render it as a flame chart.
//!
//! The validators re-read both artifacts with the in-crate JSON
//! reader ([`crate::json`]): CI validates every manifest it produces
//! against [`SCHEMA`] and diffs [`ManifestSummary::counter_dump`]
//! across thread counts.

use crate::counters::Snapshot;
use crate::json::{self, Value};
use crate::timing::{SpanRecord, TimingReport};
use std::collections::BTreeMap;

/// Manifest schema tag; bump the suffix on breaking shape changes.
const SCHEMA: &str = "i2p-telemetry/1";

/// What ran: the subcommand name and the resolved config knobs.
#[derive(Clone, Debug, Default)]
pub struct RunInfo {
    /// Subcommand (e.g. `figures`, `harvest`, `sweep`).
    pub command: String,
    /// Resolved knob values as `(name, value)` pairs, render order.
    pub knobs: Vec<(String, String)>,
}

fn render_span(
    out: &mut String,
    spans: &[SpanRecord],
    kids: &BTreeMap<u32, Vec<usize>>,
    idx: usize,
    indent: usize,
) {
    let Some(span) = spans.get(idx) else { return };
    let pad = " ".repeat(indent);
    out.push_str(&pad);
    out.push_str("{\"name\": ");
    json::push_string(out, span.name);
    out.push_str(&format!(
        ", \"tid\": {}, \"start_us\": {}, \"dur_us\": {}, \"children\": [",
        span.tid, span.start_us, span.dur_us
    ));
    let children = kids.get(&span.id).map(Vec::as_slice).unwrap_or(&[]);
    if children.is_empty() {
        out.push_str("]}");
        return;
    }
    out.push('\n');
    for (i, child) in children.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        render_span(out, spans, kids, *child, indent + 2);
    }
    out.push('\n');
    out.push_str(&pad);
    out.push_str("]}");
}

/// Renders the span forest as nested JSON. Roots are spans with no
/// recorded parent (parent id 0 or a parent that fell to the cap).
fn render_span_tree(out: &mut String, timing: &TimingReport, indent: usize) {
    let mut kids: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    let ids: BTreeMap<u32, ()> = timing.spans.iter().map(|s| (s.id, ())).collect();
    let mut roots = Vec::new();
    for (idx, span) in timing.spans.iter().enumerate() {
        if span.parent != 0 && ids.contains_key(&span.parent) {
            kids.entry(span.parent).or_default().push(idx);
        } else {
            roots.push(idx);
        }
    }
    for (i, root) in roots.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        render_span(out, &timing.spans, &kids, *root, indent);
    }
}

/// Serializes one run manifest (see module docs for the shape).
pub fn manifest_json(
    run: &RunInfo,
    counters: &Snapshot,
    timing: &TimingReport,
    peak_rss_kb: Option<u64>,
) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": ");
    json::push_string(&mut out, SCHEMA);
    out.push_str(",\n  \"command\": ");
    json::push_string(&mut out, &run.command);
    out.push_str(",\n  \"knobs\": {");
    for (i, (key, value)) in run.knobs.iter().enumerate() {
        out.push_str(if i > 0 { ",\n    " } else { "\n    " });
        json::push_string(&mut out, key);
        out.push_str(": ");
        json::push_string(&mut out, value);
    }
    if !run.knobs.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n  \"counters\": {");
    for (i, (name, value)) in counters.entries().enumerate() {
        out.push_str(if i > 0 { ",\n    " } else { "\n    " });
        json::push_string(&mut out, name);
        out.push_str(&format!(": {value}"));
    }
    out.push_str("\n  },\n  \"timing\": {\n");
    out.push_str(&format!("    \"elapsed_us\": {},\n", timing.elapsed_us));
    match peak_rss_kb {
        Some(kb) => out.push_str(&format!("    \"peak_rss_kb\": {kb},\n")),
        None => out.push_str("    \"peak_rss_kb\": null,\n"),
    }
    out.push_str(&format!("    \"dropped_spans\": {},\n", timing.dropped_spans));
    out.push_str("    \"tallies\": [");
    for (i, (name, agg)) in timing.tallies.iter().enumerate() {
        out.push_str(if i > 0 { ",\n      " } else { "\n      " });
        out.push_str("{\"name\": ");
        json::push_string(&mut out, name);
        out.push_str(&format!(", \"calls\": {}, \"total_us\": {}}}", agg.calls, agg.total_us));
    }
    if !timing.tallies.is_empty() {
        out.push_str("\n    ");
    }
    out.push_str("],\n    \"gauges\": [");
    for (i, (name, value)) in timing.gauges.iter().enumerate() {
        out.push_str(if i > 0 { ",\n      " } else { "\n      " });
        out.push_str("{\"name\": ");
        json::push_string(&mut out, name);
        out.push_str(&format!(", \"value\": {value}}}"));
    }
    if !timing.gauges.is_empty() {
        out.push_str("\n    ");
    }
    out.push_str("],\n    \"spans\": [");
    if timing.spans.is_empty() {
        out.push_str("]\n  }\n}\n");
        return out;
    }
    out.push('\n');
    render_span_tree(&mut out, timing, 6);
    out.push_str("\n    ]\n  }\n}\n");
    out
}

/// Serializes the timing plane as a Chrome trace-event array
/// (complete events, `ph: "X"`), loadable by `chrome://tracing`.
pub fn chrome_trace_json(timing: &TimingReport) -> String {
    let mut out = String::new();
    out.push('[');
    for (i, span) in timing.spans.iter().enumerate() {
        out.push_str(if i > 0 { ",\n " } else { "\n " });
        out.push_str("{\"name\": ");
        json::push_string(&mut out, span.name);
        out.push_str(&format!(
            ", \"cat\": \"i2pscope\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"dur\": {}}}",
            span.tid, span.start_us, span.dur_us
        ));
    }
    if !timing.spans.is_empty() {
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// What a validated manifest said, in convenient form.
#[derive(Clone, Debug, Default)]
pub struct ManifestSummary {
    /// Schema tag (always [`SCHEMA`] after successful validation).
    pub schema: String,
    /// The recorded subcommand.
    pub command: String,
    /// Knob pairs, source order.
    pub knobs: Vec<(String, String)>,
    /// Counter `(name, value-lexeme)` pairs, source order. Lexemes
    /// are echoed byte-exactly so dumps diff cleanly.
    pub counters: Vec<(String, String)>,
    /// Each span name with the number of tree nodes that carry it,
    /// sorted by name. Spans opened on a helper thread root trees of
    /// their own, so this counts them wherever they sit.
    pub spans: BTreeMap<String, usize>,
    /// Each tally label with its call count, sorted by label.
    pub tallies: BTreeMap<String, u64>,
    /// Gauge `(label, value-lexeme)` pairs, source order (environment
    /// observations like the engine's resolved worker count — timing-
    /// plane data, never diffed across runs).
    pub gauges: Vec<(String, String)>,
}

impl ManifestSummary {
    /// Total span nodes in the tree.
    pub fn span_count(&self) -> usize {
        self.spans.values().sum()
    }

    /// Crate prefixes (`measure` from `measure.engine_fill`) covered
    /// by spans or tallies, unique and sorted.
    pub fn crates_covered(&self) -> Vec<String> {
        let mut crates: Vec<String> = self
            .spans
            .keys()
            .chain(self.tallies.keys())
            .filter_map(|name| name.split('.').next())
            .map(str::to_string)
            .collect();
        crates.sort();
        crates.dedup();
        crates
    }

    /// `name=value` lines for the deterministic counters, one per
    /// line in manifest order — the thing CI `cmp`s across thread
    /// counts.
    pub fn counter_dump(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(name);
            out.push('=');
            out.push_str(value);
            out.push('\n');
        }
        out
    }
}

fn require_str(value: &Value, key: &str, what: &str) -> Result<String, String> {
    value
        .field(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("{what}: missing string field {key:?}"))
}

fn require_u64_lexeme(value: &Value, key: &str, what: &str) -> Result<String, String> {
    let lexeme = value
        .field(key)
        .and_then(Value::as_num)
        .ok_or_else(|| format!("{what}: missing numeric field {key:?}"))?;
    if lexeme.is_empty() || !lexeme.chars().all(|c| c.is_ascii_digit()) {
        return Err(format!("{what}: field {key:?} must be a non-negative integer, got {lexeme:?}"));
    }
    Ok(lexeme.to_string())
}

fn walk_spans(nodes: &[Value], spans: &mut BTreeMap<String, usize>) -> Result<(), String> {
    for node in nodes {
        *spans.entry(require_str(node, "name", "manifest span")?).or_default() += 1;
        require_u64_lexeme(node, "tid", "manifest span")?;
        require_u64_lexeme(node, "start_us", "manifest span")?;
        require_u64_lexeme(node, "dur_us", "manifest span")?;
        let children = node
            .field("children")
            .and_then(Value::as_arr)
            .ok_or_else(|| "manifest span: missing children array".to_string())?;
        walk_spans(children, spans)?;
    }
    Ok(())
}

/// Parses and validates a run manifest against [`SCHEMA`].
pub fn validate_manifest(text: &str) -> Result<ManifestSummary, String> {
    let doc = json::parse(text)?;
    let schema = require_str(&doc, "schema", "manifest")?;
    if schema != SCHEMA {
        return Err(format!("manifest: schema {schema:?}, expected {SCHEMA:?}"));
    }
    let command = require_str(&doc, "command", "manifest")?;

    let mut knobs = Vec::new();
    let knob_fields = doc
        .field("knobs")
        .and_then(Value::as_obj)
        .ok_or_else(|| "manifest: missing knobs object".to_string())?;
    for (key, value) in knob_fields {
        let value = value
            .as_str()
            .ok_or_else(|| format!("manifest: knob {key:?} must be a string"))?;
        knobs.push((key.clone(), value.to_string()));
    }

    let mut counters = Vec::new();
    let counter_fields = doc
        .field("counters")
        .and_then(Value::as_obj)
        .ok_or_else(|| "manifest: missing counters object".to_string())?;
    for (key, value) in counter_fields {
        let lexeme = value
            .as_num()
            .ok_or_else(|| format!("manifest: counter {key:?} must be a number"))?;
        if lexeme.is_empty() || !lexeme.chars().all(|c| c.is_ascii_digit()) {
            return Err(format!(
                "manifest: counter {key:?} must be a non-negative integer, got {lexeme:?}"
            ));
        }
        counters.push((key.clone(), lexeme.to_string()));
    }

    let timing = doc
        .field("timing")
        .ok_or_else(|| "manifest: missing timing object".to_string())?;
    require_u64_lexeme(timing, "elapsed_us", "manifest timing")?;
    require_u64_lexeme(timing, "dropped_spans", "manifest timing")?;
    match timing.field("peak_rss_kb") {
        Some(Value::Null) => {}
        Some(_) => {
            require_u64_lexeme(timing, "peak_rss_kb", "manifest timing")?;
        }
        None => return Err("manifest timing: missing peak_rss_kb".to_string()),
    }

    let mut tallies = BTreeMap::new();
    let tally_rows = timing
        .field("tallies")
        .and_then(Value::as_arr)
        .ok_or_else(|| "manifest timing: missing tallies array".to_string())?;
    for row in tally_rows {
        let name = require_str(row, "name", "manifest tally")?;
        let calls = require_u64_lexeme(row, "calls", "manifest tally")?;
        let calls: u64 = calls
            .parse()
            .map_err(|_| format!("manifest tally {name:?}: calls {calls} exceeds u64"))?;
        require_u64_lexeme(row, "total_us", "manifest tally")?;
        let total: &mut u64 = tallies.entry(name).or_default();
        *total = total.saturating_add(calls);
    }

    // Gauges arrived with the scale work (sharded engine fill); the
    // emitter always writes the array, so its absence means a manifest
    // this validator should not claim to understand.
    let mut gauges = Vec::new();
    let gauge_rows = timing
        .field("gauges")
        .and_then(Value::as_arr)
        .ok_or_else(|| "manifest timing: missing gauges array".to_string())?;
    for row in gauge_rows {
        let name = require_str(row, "name", "manifest gauge")?;
        let value = require_u64_lexeme(row, "value", "manifest gauge")?;
        gauges.push((name, value));
    }

    let spans = timing
        .field("spans")
        .and_then(Value::as_arr)
        .ok_or_else(|| "manifest timing: missing spans array".to_string())?;
    let mut span_nodes = BTreeMap::new();
    walk_spans(spans, &mut span_nodes)?;

    Ok(ManifestSummary {
        schema,
        command,
        knobs,
        counters,
        spans: span_nodes,
        tallies,
        gauges,
    })
}

/// Parses and validates a Chrome trace export; returns the event
/// count.
pub fn validate_trace(text: &str) -> Result<usize, String> {
    let doc = json::parse(text)?;
    let events = doc.as_arr().ok_or_else(|| "trace: root must be an array".to_string())?;
    for event in events {
        require_str(event, "name", "trace event")?;
        let ph = require_str(event, "ph", "trace event")?;
        if ph != "X" {
            return Err(format!("trace event: phase {ph:?}, expected \"X\""));
        }
        for key in ["pid", "tid", "ts", "dur"] {
            require_u64_lexeme(event, key, "trace event")?;
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters;
    use crate::timing::TallyAgg;

    fn sample_timing() -> TimingReport {
        TimingReport {
            spans: vec![
                SpanRecord {
                    id: 1,
                    parent: 0,
                    name: "measure.engine_fill",
                    tid: 0,
                    start_us: 0,
                    dur_us: 120,
                },
                SpanRecord {
                    id: 2,
                    parent: 1,
                    name: "store.capture",
                    tid: 0,
                    start_us: 10,
                    dur_us: 30,
                },
            ],
            tallies: vec![
                ("netdb.lookup_step", TallyAgg { calls: 7, total_us: 3 }),
                ("transport.send", TallyAgg { calls: 42, total_us: 9 }),
            ],
            gauges: vec![("measure.engine_workers", 4)],
            dropped_spans: 0,
            elapsed_us: 150,
        }
    }

    fn sample_run() -> RunInfo {
        RunInfo {
            command: "figures".to_string(),
            knobs: vec![
                ("seed".to_string(), "20180201".to_string()),
                ("scale".to_string(), "0.02".to_string()),
            ],
        }
    }

    #[test]
    fn manifest_round_trips_through_its_validator() {
        let text =
            manifest_json(&sample_run(), &counters::snapshot(), &sample_timing(), Some(4096));
        let summary = validate_manifest(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(summary.schema, SCHEMA);
        assert_eq!(summary.command, "figures");
        assert_eq!(summary.span_count(), 2);
        assert_eq!(summary.spans.get("store.capture"), Some(&1));
        assert_eq!(summary.tallies.get("transport.send"), Some(&42));
        assert_eq!(
            summary.gauges,
            vec![("measure.engine_workers".to_string(), "4".to_string())]
        );
        assert_eq!(summary.counters.len(), counters::ALL.len());
        assert_eq!(
            summary.crates_covered(),
            ["measure", "netdb", "store", "transport"],
            "span + tally prefixes"
        );
        let dump = summary.counter_dump();
        assert!(dump.lines().count() == counters::ALL.len());
        assert!(dump.contains("sweep_cells="));
    }

    #[test]
    fn manifest_with_no_rss_is_null_not_missing() {
        let text = manifest_json(&sample_run(), &counters::snapshot(), &sample_timing(), None);
        assert!(text.contains("\"peak_rss_kb\": null"));
        assert!(validate_manifest(&text).is_ok());
    }

    #[test]
    fn trace_round_trips_through_its_validator() {
        let text = chrome_trace_json(&sample_timing());
        assert_eq!(validate_trace(&text), Ok(2));
        assert_eq!(validate_trace("[]\n"), Ok(0));
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let text =
            manifest_json(&sample_run(), &counters::snapshot(), &sample_timing(), Some(1))
                .replace(SCHEMA, "i2p-telemetry/999");
        assert!(validate_manifest(&text).is_err());
    }
}
