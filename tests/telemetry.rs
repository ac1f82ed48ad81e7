//! Telemetry neutrality and manifest-contract tests.
//!
//! The telemetry plane's whole value rests on two claims, pinned here:
//!
//! 1. **Neutrality** — enabling telemetry changes *no byte* of any
//!    deterministic output: figures (text and CSV), audit lines, and
//!    `.i2ps` snapshot encodings are identical with the timing plane
//!    on or off. (The timing plane is the only part that reads clocks;
//!    counters are always on and never feed back into results.)
//! 2. **Thread invariance** — the deterministic counters are sums of
//!    per-work-item contributions, so a run at 1 thread and a run at
//!    N threads produce byte-equal counter totals.
//!
//! Plus the span tree's shape — the censor's Fig. 13 matrix runs under
//! its own `measure.censor_matrix` span, with its engine fill beneath
//! it; the fill holds its draws (`measure.engine_draws`) and, under the
//! keyspace model, its gate sweep (`measure.keyspace_gates`); a census
//! generates its world under `sim.world` beside the fill and the figure
//! pass; a sweep warms its TestNet under `measure.lab_warm` beside
//! `measure.sweep` — and the manifest contract: after the calibration
//! probe, a run manifest validates against the `i2p-telemetry/1` schema
//! and its span tree covers the four core crates (measure, store, netdb,
//! transport), and the Chrome trace export parses.
//!
//! Note on globals: `timing::enable()` is process-wide and sticky, so
//! every on-vs-off comparison renders its "off" output *first* within
//! one test, and every test that moves counters runs under
//! `counters::exclusive` (the suite runs multi-threaded, and an exact
//! delta taken beside unlocked work would count that work too).

use i2p_faults::FaultSpec;
use i2pscope::cli::{self, FigId, Format, Knobs, Model};
use i2pscope::telemetry::{counters, manifest, timing};
use i2pscope::{probe, store::Snapshot};

fn knobs(threads: usize) -> Knobs {
    Knobs {
        scale: 0.01,
        seed: 77,
        days: 3,
        fleet: 4,
        replicates: 1,
        threads,
        model: Model::Uniform,
        faults: FaultSpec::default(),
    }
}

#[test]
fn figures_and_audit_are_byte_identical_with_telemetry_on() {
    // Moves the process-wide counters: hold the counter lock so the
    // exact-delta tests beside it never see this work.
    counters::exclusive(|| {
        let k = knobs(0);
        // "Off" renders first: enable() is sticky, so order matters.
        let text_off = cli::figures_live_audited(&k, Format::Text, &FigId::ALL);
        let csv_off = cli::figures_live_audited(&k, Format::Csv, &FigId::ALL);
        timing::enable();
        let text_on = cli::figures_live_audited(&k, Format::Text, &FigId::ALL);
        let csv_on = cli::figures_live_audited(&k, Format::Csv, &FigId::ALL);
        assert_eq!(text_off, text_on, "text figures drift when telemetry is enabled");
        assert_eq!(csv_off, csv_on, "CSV figures drift when telemetry is enabled");
    });
}

#[test]
fn snapshot_encoding_is_byte_identical_with_telemetry_on() {
    // Moves the process-wide counters: hold the counter lock so the
    // exact-delta tests beside it never see this work.
    counters::exclusive(|| {
        let k = knobs(0);
        let world = k.world();
        let fleet = k.fleet();
        let engine = i2pscope::measure::engine::HarvestEngine::build(&world, &fleet, 0..k.days);
        let bytes_off = Snapshot::capture(&engine).to_bytes().expect("encode");
        timing::enable();
        let engine = i2pscope::measure::engine::HarvestEngine::build(&world, &fleet, 0..k.days);
        let bytes_on = Snapshot::capture(&engine).to_bytes().expect("encode");
        assert_eq!(bytes_off, bytes_on, ".i2ps encoding drifts when telemetry is enabled");
        // And the archive round-trips regardless of the plane's state.
        let decoded = Snapshot::from_bytes(&bytes_on).expect("decode");
        assert!(decoded.verify_router_infos().expect("verify") > 0);
    });
}

#[test]
fn counters_are_byte_equal_across_thread_counts() {
    let k1 = knobs(1);
    let k7 = knobs(7);
    let (delta_one, out_one) =
        counters::exclusive(|| cli::adversary(&k1, "censor", Format::Text, None));
    let (delta_many, out_many) =
        counters::exclusive(|| cli::adversary(&k7, "censor", Format::Text, None));
    assert_eq!(out_one.expect("run"), out_many.expect("run"));
    for ((name, one), (_, many)) in delta_one.entries().zip(delta_many.entries()) {
        assert_eq!(one, many, "counter {name} varies with thread count");
    }
    assert!(delta_one.total() > 0, "the adversary run moved no counters");
}

#[test]
fn censor_matrix_span_holds_its_engine_fill() {
    // Moves the process-wide counters: hold the counter lock so the
    // exact-delta tests beside it never see this work.
    counters::exclusive(|| {
        timing::enable();
        cli::adversary(&knobs(1), "censor", Format::Text, None).expect("run");
        let report = timing::report();
        let matrix: Vec<u32> = report
            .spans
            .iter()
            .filter(|s| s.name == "measure.censor_matrix")
            .map(|s| s.id)
            .collect();
        assert!(!matrix.is_empty(), "the censor run recorded no measure.censor_matrix span");
        assert!(
            report
                .spans
                .iter()
                .any(|s| s.name == "measure.engine_fill" && matrix.contains(&s.parent)),
            "no measure.engine_fill span under measure.censor_matrix"
        );
    });
}

#[test]
fn engine_fill_span_holds_its_draws_and_keyspace_gates() {
    // Moves the process-wide counters: hold the counter lock so the
    // exact-delta tests beside it never see this work.
    counters::exclusive(|| {
        timing::enable();
        let k = Knobs { model: Model::Keyspace, ..knobs(2) };
        cli::census(&k, Format::Text, &FigId::ALL);
        let report = timing::report();
        let fills: Vec<_> =
            report.spans.iter().filter(|s| s.name == "measure.engine_fill").collect();
        assert!(!fills.is_empty(), "the census recorded no measure.engine_fill span");
        for child in ["measure.engine_draws", "measure.keyspace_gates"] {
            assert!(
                report.spans.iter().any(|s| {
                    s.name == child && fills.iter().any(|f| f.id == s.parent && f.tid == s.tid)
                }),
                "no {child} span under measure.engine_fill on the calling thread"
            );
        }
    });
}

/// Whether the timing plane holds a `first` span followed, on the same
/// thread and under the same parent, by a span of each of `siblings`.
fn spans_beside(report: &timing::TimingReport, first: &str, siblings: &[&str]) -> bool {
    report.spans.iter().filter(|s| s.name == first).any(|head| {
        siblings.iter().all(|name| {
            report.spans.iter().any(|s| {
                s.name == *name
                    && s.tid == head.tid
                    && s.parent == head.parent
                    && s.start_us >= head.start_us
            })
        })
    })
}

#[test]
fn world_generation_and_the_lab_warm_up_have_program_spans() {
    // Moves the process-wide counters: hold the counter lock so the
    // exact-delta tests beside it never see this work.
    counters::exclusive(|| {
        timing::enable();
        let k = knobs(1);
        cli::census(&k, Format::Text, &FigId::ALL);
        let census_layers = ["measure.engine_fill", "measure.figure_pass"];
        assert!(
            spans_beside(&timing::report(), "sim.world", &census_layers),
            "a census run records sim.world beside its fill and figure pass"
        );
        cli::sweep(&k, Format::Text);
        assert!(
            spans_beside(&timing::report(), "measure.lab_warm", &["measure.sweep"]),
            "a sweep run records measure.lab_warm beside measure.sweep"
        );
    });
}

#[test]
fn sweep_counters_are_thread_invariant_and_count_cells() {
    let (delta_one, _) = counters::exclusive(|| cli::sweep(&knobs(1), Format::Text));
    let (delta_two, _) = counters::exclusive(|| cli::sweep(&knobs(2), Format::Text));
    let cells = delta_one.get(counters::Counter::SweepCells);
    assert!(cells > 0, "the usability sweep recorded no cells");
    assert_eq!(cells, delta_two.get(counters::Counter::SweepCells));
}

#[test]
fn sweep_tallies_count_every_scenario_phase() {
    // A `sweep --telemetry` manifest times each scenario's phases under
    // tallies: every cell forks the substrate once and drops it once,
    // maintains the server before its fetches and once per fetch, and
    // enters the tunnel-build phase once per fetch (no fault plane, so
    // no fetch is flaked away). Call counts, like the counters, are the
    // same at `--threads 1` and `2`.
    let dir = std::env::temp_dir().join(format!("i2pscope-sweep-tallies-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let sweep = |threads: usize| {
        let manifest_path = dir.join(format!("t{threads}.json"));
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_i2pscope"));
        for (name, _) in std::env::vars().filter(|(name, _)| name.starts_with("I2PSCOPE_")) {
            cmd.env_remove(name);
        }
        let out = cmd
            .args(["sweep", "--scale", "0.02", "--replicates", "2"])
            .args(["--threads", &threads.to_string(), "--telemetry"])
            .arg(&manifest_path)
            .output()
            .expect("run i2pscope");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let text = std::fs::read_to_string(&manifest_path).expect("manifest written");
        manifest::validate_manifest(&text).expect("manifest validates")
    };
    let one = sweep(1);
    let two = sweep(2);
    let _ = std::fs::remove_dir_all(&dir);
    let counter = |name: &str| {
        one.counters.iter().find(|(n, _)| n == name).and_then(|(_, v)| v.parse::<u64>().ok())
    };
    // Scale 0.02: the default 18 blocking rates × 2 replicates, 2
    // fetches per cell.
    let (cells, fetches) = (18 * 2, 2);
    assert_eq!(counter("sweep_cells"), Some(cells), "the manifest counts probe cells");
    assert!(counter("tunnel_builds").is_some_and(|n| n > 0), "no tunnel build was counted");
    let calls = |label: &str| one.tallies.get(label).copied().unwrap_or(0);
    assert_eq!(calls("measure.scenario_fork"), cells);
    assert_eq!(calls("measure.scenario_drop"), cells);
    assert_eq!(calls("measure.maintain_server"), cells * (fetches + 1));
    assert_eq!(calls("measure.fetch_build"), cells * fetches);
    assert_eq!(calls("measure.think"), cells * fetches);
    assert_eq!(one.counter_dump(), two.counter_dump(), "counters vary with --threads");
    let sweep_tallies = |summary: &manifest::ManifestSummary| {
        summary
            .tallies
            .iter()
            .filter(|(label, _)| label.starts_with("measure."))
            .map(|(label, calls)| (label.clone(), *calls))
            .collect::<Vec<_>>()
    };
    assert_eq!(sweep_tallies(&one), sweep_tallies(&two), "tally calls vary with --threads");
}

#[test]
fn threads_flag_governs_the_fill_and_the_capture() {
    // `--threads N` must reach the engine fill exactly as
    // I2PSCOPE_THREADS=N does. With every I2PSCOPE_* variable removed,
    // a harvest's manifest records the flag's fill worker count, and the
    // counters and the archive are the same at both counts.
    let dir = std::env::temp_dir().join(format!("i2pscope-threads-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let harvest = |threads: usize| {
        let archive = dir.join(format!("t{threads}.i2ps"));
        let manifest_path = dir.join(format!("t{threads}.json"));
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_i2pscope"));
        for (name, _) in std::env::vars().filter(|(name, _)| name.starts_with("I2PSCOPE_")) {
            cmd.env_remove(name);
        }
        let out = cmd
            .args(["harvest", "--scale", "0.02", "--days", "6", "--fleet", "6"])
            .args(["--threads", &threads.to_string(), "--out"])
            .arg(&archive)
            .arg("--telemetry")
            .arg(&manifest_path)
            .output()
            .expect("run i2pscope");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let text = std::fs::read_to_string(&manifest_path).expect("manifest written");
        let summary = manifest::validate_manifest(&text).expect("manifest validates");
        let workers = summary
            .gauges
            .iter()
            .find(|(name, _)| name == "measure.engine_workers")
            .map(|(_, value)| value.clone());
        (workers, summary.counter_dump(), std::fs::read(&archive).expect("archive written"))
    };
    let (workers_1, counters_1, archive_1) = harvest(1);
    let (workers_3, counters_3, archive_3) = harvest(3);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(workers_1.as_deref(), Some("1"));
    assert_eq!(workers_3.as_deref(), Some("3"));
    assert_eq!(counters_1, counters_3, "counters vary with --threads");
    assert!(archive_1 == archive_3, "the archive varies with --threads");
}

#[test]
fn threads_flag_governs_the_figure_pass() {
    // The figure pass splits each day over the fill's worker count. With
    // every I2PSCOPE_* variable removed, `figures --live` and `figures
    // --from` print the same bytes and move the same counters at
    // `--threads 1` and `3`, and each manifest's `measure.figure_workers`
    // gauge holds the flag's value. A replay loads each of its 6 days
    // once, in one `store.segment_load` span on whichever worker loads
    // it; the live pass loads none.
    let dir = std::env::temp_dir().join(format!("i2pscope-pass-threads-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let archive = dir.join("figures.i2ps");
    let i2pscope = |args: &[&str], threads: usize, manifest: Option<&std::path::Path>| {
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_i2pscope"));
        for (name, _) in std::env::vars().filter(|(name, _)| name.starts_with("I2PSCOPE_")) {
            cmd.env_remove(name);
        }
        cmd.args(args).args(["--scale", "0.02", "--days", "6", "--fleet", "6"]);
        cmd.args(["--threads", &threads.to_string()]);
        if let Some(path) = manifest {
            cmd.arg("--telemetry").arg(path);
        }
        let out = cmd.output().expect("run i2pscope");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        out.stdout
    };
    i2pscope(&["harvest", "--out", archive.to_str().expect("utf-8 temp path")], 1, None);
    let figures = |source: &[&str], threads: usize| {
        let manifest_path = dir.join(format!("{}-t{threads}.json", source.len()));
        let args = [&["figures"], source].concat();
        let stdout = i2pscope(&args, threads, Some(&manifest_path));
        let text = std::fs::read_to_string(&manifest_path).expect("manifest written");
        let summary = manifest::validate_manifest(&text).expect("manifest validates");
        let workers = summary
            .gauges
            .iter()
            .find(|(name, _)| name == "measure.figure_workers")
            .map(|(_, value)| value.clone());
        let loads = summary.spans.get("store.segment_load").copied().unwrap_or(0);
        (stdout, workers, summary.counter_dump(), loads)
    };
    let from = archive.to_str().expect("utf-8 temp path");
    for (source, days_loaded) in [(&["--live"][..], 0), (&["--from", from], 6)] {
        let (out_1, workers_1, counters_1, loads_1) = figures(source, 1);
        let (out_3, workers_3, counters_3, loads_3) = figures(source, 3);
        assert_eq!(workers_1.as_deref(), Some("1"), "{source:?}");
        assert_eq!(workers_3.as_deref(), Some("3"), "{source:?}");
        assert_eq!(loads_1, days_loaded, "{source:?} store.segment_load spans at --threads 1");
        assert_eq!(loads_3, days_loaded, "{source:?} store.segment_load spans at --threads 3");
        assert!(out_1 == out_3, "{source:?} prints different bytes at --threads 1 and 3");
        assert_eq!(counters_1, counters_3, "{source:?} counters vary with --threads");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn manifest_validates_and_covers_the_four_core_crates() {
    // Moves the process-wide counters: hold the counter lock so the
    // exact-delta tests beside it never see this work.
    counters::exclusive(|| {
        timing::enable();
        let k = knobs(0);
        // A figures run, its counters, then the calibration probe —
        // exactly what the binary does for `i2pscope figures --telemetry`.
        let _ = cli::figures_live(&k, Format::Text, &[FigId::Fig4]);
        let figures_counters = counters::snapshot();
        probe::calibrate();
        let text = cli::telemetry_manifest("figures", &k, &figures_counters);
        let summary = manifest::validate_manifest(&text).expect("manifest validates");
        assert_eq!(summary.schema, "i2p-telemetry/1");
        assert_eq!(summary.command, "figures");
        let covered = summary.crates_covered();
        for needed in ["measure", "store", "netdb", "transport"] {
            assert!(covered.iter().any(|c| c == needed), "span tree misses {needed}: {covered:?}");
        }
        assert!(summary.span_count() >= 4, "span tree too small: {}", summary.span_count());
        // Every counter the manifest archives must echo u64 lexemes; the
        // knob echo must include the fault spec (degraded runs carry their
        // fault totals and their spec side by side).
        assert!(summary.knobs.iter().any(|(k, _)| k == "faults"));
        let trace = cli::telemetry_trace();
        let events = manifest::validate_trace(&trace).expect("trace parses");
        assert!(events >= 4, "trace too small: {events}");
    });
}

#[test]
fn counter_dump_diffs_cleanly() {
    timing::enable();
    let k = knobs(0);
    let text = cli::telemetry_manifest("census", &k, &counters::snapshot());
    let summary = manifest::validate_manifest(&text).expect("manifest validates");
    let dump = summary.counter_dump();
    assert_eq!(dump.lines().count(), summary.counters.len());
    for line in dump.lines() {
        let (name, value) = line.split_once('=').expect("name=value");
        assert!(!name.is_empty());
        assert!(value.bytes().all(|b| b.is_ascii_digit()), "non-integer counter {line}");
    }
}
