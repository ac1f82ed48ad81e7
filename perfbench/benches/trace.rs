//! Benchmark-side spans: recorded around each call into a layer, kept
//! in memory, and written out when the run ends.
//!
//! A span holds its name, start, end, parent, the id of the pass (or
//! set-up repetition) it belongs to, and the delta of every
//! `i2p_telemetry` counter over its interval. When tracing is off,
//! [`Tracer::span`] only calls the closure.

use crate::json::Json;
use i2pscope::telemetry::counters::{self, Snapshot};
use std::time::Instant;

/// One recorded span.
pub struct Span {
    /// Layer call, e.g. `engine.fill`.
    pub name: &'static str,
    /// Pass or set-up repetition the span belongs to.
    pub run: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Seconds since the tracer was created.
    pub start: f64,
    /// Seconds since the tracer was created.
    pub end: f64,
    /// Counter deltas over the span.
    pub counters: Option<Snapshot>,
}

/// The span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    run: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            run: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a new pass: spans opened from now on carry a fresh id.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let before = counters::snapshot();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            run: self.run,
            parent: self.open.last().copied(),
            start,
            end: start,
            counters: None,
        });
        self.open.push(index);
        let out = f(self);
        self.close(index, &before);
        out
    }

    fn close(&mut self, index: usize, before: &Snapshot) {
        self.open.pop();
        let end = self.origin.elapsed().as_secs_f64();
        if let Some(span) = self.spans.get_mut(index) {
            span.end = end;
            span.counters = Some(counters::snapshot().delta_since(before));
        }
    }

    /// Forgets spans left open by a panic that unwound through them;
    /// they keep `end == start` and no counters.
    pub fn abandon_open(&mut self) {
        self.open.clear();
    }

    /// A span's duration minus the time its direct children cover.
    pub fn self_time(&self, index: usize) -> f64 {
        let Some(span) = self.spans.get(index) else {
            return 0.0;
        };
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(|s| s.end - s.start)
            .sum();
        (span.end - span.start - children).max(0.0)
    }

    /// Self times of every closed span named `name`.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name && self.spans[i].counters.is_some())
            .map(|i| self.self_time(i))
            .collect()
    }

    /// Counter deltas of every closed span named `name`.
    pub fn counter_values(&self, name: &str, counter: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| s.counters.as_ref())
            .map(|c| {
                c.entries()
                    .find(|(n, _)| *n == counter)
                    .map_or(0, |(_, v)| v)
            })
            .collect()
    }

    /// The span file: every span with its self time and the counters
    /// it moved.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let moved = s.counters.as_ref().map_or_else(Vec::new, |c| {
                    c.entries()
                        .filter(|(_, v)| *v != 0)
                        .map(|(n, v)| (n, Json::Int(v)))
                        .collect()
                });
                Json::obj([
                    ("id", Json::Int(i as u64)),
                    ("name", Json::str(s.name)),
                    ("run", Json::Int(u64::from(s.run))),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                    ),
                    ("start_s", Json::Num(s.start)),
                    ("end_s", Json::Num(s.end)),
                    ("self_s", Json::Num(self.self_time(i))),
                    ("closed", Json::Bool(s.counters.is_some())),
                    ("counters", Json::obj(moved)),
                ])
            })
            .collect();
        Json::Arr(spans)
    }
}
