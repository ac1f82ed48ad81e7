//! End-to-end and per-layer benchmark of the i2pscope pipelines.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload census|replay|censorship [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! A run builds its workload's inputs several times (`setup_s` is the
//! median), then repeats the timed pass until `--seconds` have passed
//! (`wall_s` is the median pass). Each time is scaled to a reference
//! host speed measured by a calibration kernel (see `calib.rs`); the
//! result file keeps the raw times too. Every pass is checked against the
//! expected output and counter deltas; the last line of standard output
//! is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! alternates untraced passes with traced ones and reports the
//! per-layer metrics from benchmark-side spans. See `perfbench/README.md`.

mod calib;
mod json;
mod sys;
mod trace;
mod workloads;

use calib::{Kernel, Timing};
use i2pscope::telemetry::counters::{self, Snapshot};
use i2pscope::telemetry::Counter;
use json::Json;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::{Output, Workload, WORKERS};

const USAGE: &str = "usage: perfbench --workload census|replay|censorship \
                     [--seed N] [--seconds S] [--trace 0|1]";
const DEFAULT_SEED: u64 = 20_180_201;
const DEFAULT_SECONDS: u64 = 30;
/// Fewest timed passes per run, whatever `--seconds` says (per kind of
/// pass in a traced run).
const MIN_PASSES: usize = 3;

/// Counters a figure family moves: live on `census`, lazy on `replay`.
const FIGURE_COUNTERS: &[&str] = &[
    "bitset_words_or",
    "engine_shard_blocks",
    "figure_renders",
    "segments_lazy_loaded",
    "segments_decoded",
];

/// The per-layer spans and the counters each reports as
/// `<span>.<counter>`: every counter slot the span moves on some
/// workload. A span that does not run on a workload reports 0. The
/// TestNet's lookups do not pass through the counted netDB lookup, so
/// `lab.*.lookup_*` (and `netdb.retry_ratio`) read 0 until they do.
const LAYERS: &[(&str, &[&str])] = &[
    ("sim.world", &[]),
    (
        "engine.fill",
        &["harvest_draws", "routers_harvested", "engine_shard_units"],
    ),
    ("population.fig4", FIGURE_COUNTERS),
    ("population.fig5_6", FIGURE_COUNTERS),
    ("churn.fig7", FIGURE_COUNTERS),
    ("ipchurn.fig8_12", FIGURE_COUNTERS),
    ("capacity.fig9", FIGURE_COUNTERS),
    ("geo.fig10", FIGURE_COUNTERS),
    ("geo.fig11", FIGURE_COUNTERS),
    ("capacity.table1", FIGURE_COUNTERS),
    ("store.capture", &["bitset_words_or", "engine_shard_blocks"]),
    ("store.write", &["segments_encoded", "store_bytes_written"]),
    ("store.open", &["store_bytes_read"]),
    (
        "censor.matrix",
        &[
            "sweep_cells",
            "harvest_draws",
            "routers_harvested",
            "engine_shard_units",
            "bitset_words_or",
            "engine_shard_blocks",
        ],
    ),
    ("lab.warm", &["messages_sent", "lookup_queries"]),
    (
        "lab.sweep",
        &[
            "sweep_cells",
            "messages_sent",
            "lookup_queries",
            "lookup_retries",
        ],
    ),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("a u64"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| bad("a whole number of seconds"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    sys::pin_mmap_threshold();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Median of `values` (0 for none).
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Interquartile range over the median, with quartiles computed like
/// Python's `statistics.quantiles(values, n=4)` (exclusive method).
fn spread(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let med = median(&v);
    (med > 0.0).then(|| (quartile(3) - quartile(1)) / med)
}

/// What every pass must reproduce: the output bytes (known from set-up,
/// or taken from the first untraced pass) and the counter deltas of the
/// first pass of each kind.
struct Expected {
    output: Option<String>,
    untraced: Option<Snapshot>,
    traced: Option<Snapshot>,
}

impl Expected {
    fn check(&mut self, traced: bool, out: Output, delta: Snapshot) -> Result<(), String> {
        match (&self.output, out) {
            (Some(expected), out) => {
                if !workloads::reproduces(expected, &out) {
                    return Err("output differs from the expected bytes".into());
                }
            }
            (None, Output::Whole(text)) if !traced => self.output = Some(text),
            (None, _) => return Err("no untraced output to compare with".into()),
        }
        let first = if traced {
            &mut self.traced
        } else {
            &mut self.untraced
        };
        match first {
            Some(expected) if *expected != delta => {
                Err("counter deltas differ from the first pass".into())
            }
            Some(_) => Ok(()),
            None => {
                *first = Some(delta);
                Ok(())
            }
        }
    }
}

/// Everything a run measured.
struct Measured {
    setups: Vec<Timing>,
    setup_peak_mb: f64,
    /// Passes that reproduced the expected output, by kind.
    passes: Vec<Timing>,
    traced_passes: Vec<Timing>,
    peak_mb: f64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    untraced_counters: Option<Snapshot>,
}

fn measure(args: &Args, wl: &mut dyn Workload, tr: &mut Tracer) -> Result<Measured, String> {
    let mut quiet = Tracer::new(false);
    let mut kernel = Kernel::new();
    sys::reset_peak_rss()?;
    kernel.start();
    let mut setups = Vec::new();
    for _ in 0..wl.setup_reps() {
        tr.next_run();
        let secs = tr.span("setup", |tr| wl.setup(tr))?;
        setups.push(kernel.close(secs));
    }
    let setup_peak_mb = sys::peak_rss_mb()?;

    let mut expected = Expected {
        output: wl.expected().map(str::to_owned),
        untraced: None,
        traced: None,
    };
    let mut m = Measured {
        setups,
        setup_peak_mb,
        passes: Vec::new(),
        traced_passes: Vec::new(),
        peak_mb: 0.0,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        untraced_counters: None,
    };
    sys::reset_peak_rss()?;
    let start = Instant::now();
    kernel.start();
    let min_passes = if args.trace {
        2 * MIN_PASSES
    } else {
        MIN_PASSES
    };
    while (m.attempted as usize) < min_passes || start.elapsed().as_secs() < args.seconds {
        let traced_pass = args.trace && m.attempted % 2 == 1;
        m.attempted += 1;
        let before = counters::snapshot();
        let t = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            if traced_pass {
                tr.next_run();
                tr.span("pass", |tr| wl.pass(tr))
            } else {
                wl.pass(&mut quiet)
            }
        }));
        let timing = kernel.close(t.elapsed().as_secs_f64());
        let delta = counters::snapshot().delta_since(&before);
        let checked = match result {
            Ok(Ok(out)) => expected.check(traced_pass, out, delta),
            Ok(Err(e)) => Err(e),
            Err(_) => {
                tr.abandon_open();
                Err("pass panicked".into())
            }
        };
        match checked {
            Ok(()) if traced_pass => m.traced_passes.push(timing),
            Ok(()) => m.passes.push(timing),
            Err(e) => {
                m.failed += 1;
                m.errors.push(format!("pass {}: {e}", m.attempted));
            }
        }
    }
    m.peak_mb = sys::peak_rss_mb()?;
    m.untraced_counters = expected.untraced;
    Ok(m)
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    spread: Option<f64>,
}

fn scaled(timings: &[Timing]) -> Vec<f64> {
    timings.iter().map(|t| t.scaled).collect()
}

fn end_to_end(m: &Measured) -> Vec<Metric> {
    let metric = |name: &str, value, unit, spread| Metric {
        name: name.into(),
        value,
        unit,
        spread,
    };
    let (passes, setups) = (scaled(&m.passes), scaled(&m.setups));
    vec![
        metric("wall_s", median(&passes), "s", spread(&passes)),
        metric("setup_s", median(&setups), "s", spread(&setups)),
        metric("peak_rss_mb", m.peak_mb, "MB", None),
        metric("setup_peak_rss_mb", m.setup_peak_mb, "MB", None),
    ]
}

/// The per-layer metrics of a traced run, plus any inconsistency among
/// the counter deltas of one span.
fn per_layer(wl: &dyn Workload, m: &Measured, tr: &Tracer) -> (Vec<Metric>, Vec<String>) {
    let mut out = Vec::new();
    let mut errors = Vec::new();
    let mut push = |name: String, value: f64, unit: &'static str, spread: Option<f64>| {
        out.push(Metric {
            name,
            value,
            unit,
            spread,
        });
    };
    for (span, slots) in LAYERS {
        let times = tr.self_times(span);
        push(format!("{span}_s"), median(&times), "s", spread(&times));
        for slot in *slots {
            let values = tr.counter_values(span, slot);
            if values.windows(2).any(|w| w[0] != w[1]) {
                errors.push(format!("{span}.{slot} differs between calls: {values:?}"));
            }
            push(
                format!("{span}.{slot}"),
                values.first().copied().unwrap_or(0) as f64,
                "count",
                None,
            );
        }
    }
    let facts = wl.facts();
    for name in ["sim.world.peers", "store.archive_mb"] {
        let value = facts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v);
        push(
            name.into(),
            value,
            if name.ends_with("_mb") { "MB" } else { "count" },
            None,
        );
    }
    let loads = m
        .untraced_counters
        .as_ref()
        .map_or(0, |c| c.get(Counter::SegmentsLazyLoaded));
    push(
        "store.loads_per_day".into(),
        loads as f64 / wl.days() as f64,
        "1/day",
        None,
    );
    let sweep = |slot| {
        tr.counter_values("lab.sweep", slot)
            .first()
            .copied()
            .unwrap_or(0)
    };
    let (retries, queries) = (sweep("lookup_retries"), sweep("lookup_queries"));
    push(
        "netdb.retry_ratio".into(),
        if queries == 0 {
            0.0
        } else {
            retries as f64 / queries as f64
        },
        "ratio",
        None,
    );
    let overhead = 100.0 * (median(&scaled(&m.traced_passes)) / median(&scaled(&m.passes)) - 1.0);
    push("trace.overhead_pct".into(), overhead, "%", None);
    (out, errors)
}

fn timings_json(timings: &[Timing]) -> Json {
    Json::Arr(
        timings
            .iter()
            .map(|t| {
                Json::obj([
                    ("secs", Json::Num(t.secs)),
                    ("scaled", Json::Num(t.scaled)),
                    ("kernel_before", Json::Num(t.kernel_before)),
                    ("kernel_after", Json::Num(t.kernel_after)),
                ])
            })
            .collect(),
    )
}

fn metrics_json(metrics: &[Metric], with_spread: bool) -> Json {
    Json::obj(metrics.iter().map(|mt| {
        let mut fields = vec![("value", Json::Num(mt.value)), ("unit", Json::str(mt.unit))];
        if with_spread {
            fields.push(("spread", mt.spread.map_or(Json::Null, Json::Num)));
        }
        (mt.name.clone(), Json::obj(fields))
    }))
}

fn run(args: &Args) -> Result<String, String> {
    // The engine reads its fill workers from the environment on every
    // build; set it before the first one.
    std::env::set_var("I2PSCOPE_THREADS", WORKERS.to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scratch = sys::ScratchDir::create()?;
    let mut wl = workloads::build(&args.workload, args.seed, scratch.path())?;
    let mut knobs = vec![
        ("workers", WORKERS.to_string()),
        ("nproc", nproc.to_string()),
        ("I2PSCOPE_THREADS", WORKERS.to_string()),
    ];
    knobs.extend(wl.knobs());
    println!(
        "perfbench: workload={} seconds={} trace={} {}",
        args.workload,
        args.seconds,
        u8::from(args.trace),
        knobs
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );

    let mut tr = Tracer::new(args.trace);
    let m = measure(args, wl.as_mut(), &mut tr)?;
    let mut errors = m.errors.clone();
    let metrics = if args.trace {
        let (metrics, counter_errors) = per_layer(wl.as_ref(), &m, &tr);
        errors.extend(counter_errors);
        metrics
    } else {
        end_to_end(&m)
    };
    if let Some(bad) = metrics.iter().find(|mt| !mt.value.is_finite()) {
        errors.push(format!("{} is not a finite number", bad.name));
    }
    let correct = errors.is_empty() && m.failed == 0;

    for mt in &metrics {
        let spread = mt
            .spread
            .map_or(String::new(), |s| format!(" (in-run spread {s:.3})"));
        println!("perfbench: {} = {} {}{spread}", mt.name, mt.value, mt.unit);
    }
    for (name, value) in wl.facts() {
        println!("perfbench: {name} = {value}");
    }
    for e in &errors {
        println!("perfbench: FAILED {e}");
    }

    let stem = format!(
        "{}-{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if args.trace {
        let doc = Json::obj([
            ("workload", Json::str(args.workload.as_str())),
            ("seed", Json::Int(args.seed)),
            ("spans", tr.to_json()),
        ]);
        let path = sys::write_out(&format!("spans-{stem}.json"), &json::render_checked(&doc)?)?;
        println!("perfbench: spans written to {}", path.display());
    }
    let record = Json::obj([
        ("workload", Json::str(args.workload.as_str())),
        ("seconds", Json::Int(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        (
            "knobs",
            Json::obj(knobs.iter().map(|(k, v)| (*k, Json::str(v.as_str())))),
        ),
        ("kernel_reference_s", Json::Num(calib::REFERENCE_S)),
        ("setups", timings_json(&m.setups)),
        ("passes", timings_json(&m.passes)),
        ("traced_passes", timings_json(&m.traced_passes)),
        ("attempted", Json::Int(m.attempted)),
        ("failed", Json::Int(m.failed)),
        (
            "errors",
            Json::Arr(errors.iter().map(|e| Json::str(e.as_str())).collect()),
        ),
        ("metrics", metrics_json(&metrics, true)),
    ]);
    let path = sys::write_out(
        &format!("result-{stem}.json"),
        &json::render_checked(&record)?,
    )?;
    println!("perfbench: result written to {}", path.display());

    json::render_checked(&Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(m.attempted)),
        ("failed", Json::Int(m.failed)),
        ("metrics", metrics_json(&metrics, false)),
    ]))
}
