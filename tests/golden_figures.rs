//! Golden-figure regression net.
//!
//! Every figure table in `i2p_measure::report` — text layout and
//! CSV — is pinned at a fixed seed/scale against checked-in golden
//! files under `tests/golden/`, so a refactor of the engine, the
//! analyses, or the renderers cannot silently drift the numbers: any
//! byte change fails here with the first diverging line.
//!
//! When a change is *intentional*, regenerate the goldens and commit
//! them alongside it:
//!
//! ```text
//! I2PSCOPE_BLESS=1 cargo test --test golden_figures
//! ```
//!
//! Everything below is deterministic by construction (seeded worlds,
//! thread-count-independent engine fills and lab sweeps), which is what
//! makes byte-level pinning possible at all.

use i2pscope::cli::{self, FigId, Format, Knobs, Model};
use i2pscope::faults::FaultSpec;
use i2pscope::measure::adversary::{parse_spec, AdversaryLab};
use i2pscope::measure::censor::blocking_matrix;
use i2pscope::measure::fleet::Fleet;
use i2pscope::measure::sybil::{self, SybilConfig};
use i2pscope::measure::usability::{evaluate, UsabilityConfig};
use i2pscope::measure::{population, report};
use i2pscope::sim::world::{World, WorldConfig};
use std::fmt::Write as _;
use std::path::PathBuf;

/// The pinned scale/seed: small enough to run in seconds, large enough
/// that every renderer produces non-trivial rows.
const SCALE: f64 = 0.02;
const SEED: u64 = 20_180_201;
const DAYS: u64 = 12;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

/// Compares `actual` against the checked-in golden, or regenerates it
/// under `I2PSCOPE_BLESS=1`.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("I2PSCOPE_BLESS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, actual).expect("bless golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden file {name}; generate it with \
             `I2PSCOPE_BLESS=1 cargo test --test golden_figures` and commit it"
        )
    });
    if actual == expected {
        return;
    }
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(
            a,
            e,
            "golden {name} drifted at line {} — if intentional, re-bless with \
             I2PSCOPE_BLESS=1 and commit the new golden",
            i + 1
        );
    }
    panic!(
        "golden {name} drifted in length ({} actual vs {} golden lines) — if intentional, \
         re-bless with I2PSCOPE_BLESS=1 and commit the new golden",
        actual.lines().count(),
        expected.lines().count()
    );
}

fn knobs(model: Model) -> Knobs {
    Knobs {
        scale: SCALE,
        seed: SEED,
        days: DAYS,
        fleet: 6,
        replicates: 1,
        threads: 1,
        model,
        faults: FaultSpec::default(),
    }
}

fn world() -> World {
    World::generate(WorldConfig { days: DAYS, scale: SCALE, seed: SEED })
}

/// The pinned Fig. 14 lab: one replicate per rate on one thread, so
/// every scenario continues the warm substrate's own RNG stream.
fn fig14_config() -> UsabilityConfig {
    UsabilityConfig {
        relays: 24,
        floodfills: 6,
        fetches_per_rate: 3,
        blocking_rates: vec![0.0, 0.65, 0.97],
        replicates: 1,
        threads: 1,
        seed: SEED,
        ..Default::default()
    }
}

#[test]
fn golden_main_figure_suite_uniform() {
    // Figures 4–12 + Table 1 through the CLI pipeline (what `i2pscope
    // figures --live` prints), under the uniform oracle.
    let k = knobs(Model::Uniform);
    check_golden("figures_uniform.txt", &cli::figures_live(&k, Format::Text, &FigId::ALL));
    check_golden("figures_uniform.csv", &cli::figures_live(&k, Format::Csv, &FigId::ALL));
}

#[test]
fn golden_main_figure_suite_keyspace() {
    // The same pipeline under keyspace-routed placement: pinning both
    // models keeps the oracle-mode switch itself under regression.
    let k = knobs(Model::Keyspace);
    check_golden("figures_keyspace.txt", &cli::figures_live(&k, Format::Text, &FigId::ALL));
    check_golden("figures_keyspace.csv", &cli::figures_live(&k, Format::Csv, &FigId::ALL));
}

#[test]
fn golden_extended_renderers() {
    // Every renderer outside the FigId pipeline: Fig. 2, Fig. 3,
    // Fig. 13, Fig. 14 and the Sybil sweep, text + CSV.
    let world = world();
    let fleet = Fleet::alternating(6);

    let fig2 = population::single_router_experiment(&world, 0x601);
    let fig3 = population::bandwidth_sweep(&world, 2..5);
    let fig13 = blocking_matrix(&world, &fleet, 8, &[1, 3, 6], &[1, 3]);
    let fig14 = evaluate(&fig14_config());
    let sybil = sybil::run(
        &world,
        &fleet,
        &SybilConfig { counts: vec![0, 2, 8], threads: 1, ..SybilConfig::paper(2..6) },
    );

    let mut text = String::new();
    let mut csv = String::new();
    let _ = write!(text, "{}", report::fig2(&fig2).text());
    let _ = write!(text, "{}", report::fig3(&fig3).text());
    let _ = write!(text, "{}", report::render_fig13(&fig13));
    let _ = write!(text, "{}", report::render_fig14(&fig14));
    let _ = write!(text, "{}", report::sybil_sweep(&sybil).text());
    let _ = write!(csv, "{}", report::fig2(&fig2).csv());
    let _ = write!(csv, "{}", report::fig3(&fig3).csv());
    let _ = write!(csv, "{}", report::csv_fig13(&fig13));
    let _ = write!(csv, "{}", report::fig14(&fig14).csv());
    let _ = write!(csv, "{}", report::sybil_sweep(&sybil).csv());
    check_golden("extended.txt", &text);
    check_golden("extended.csv", &csv);
}

#[test]
fn golden_fig14_forked_replicates() {
    // Replicates 1 and 2 of every rate run on `TestNet::fork(label)`
    // rather than a plain clone, spread over two sweep workers: pins the
    // forked path's bytes, which the single-replicate golden above never
    // reaches.
    let fig14 = evaluate(&UsabilityConfig { replicates: 3, threads: 2, ..fig14_config() });
    check_golden("fig14_replicates.txt", &report::render_fig14(&fig14));
    check_golden("fig14_replicates.csv", &report::fig14(&fig14).csv());
}

#[test]
fn golden_faulted_scenario() {
    // One pinned chaos scenario: vantage outages plus message loss at a
    // fixed seed. Pins both the degraded-figure annotation (coverage
    // header) and the audit line, text + CSV, so fault-plane or
    // renderer drift under injected faults is caught at the byte level.
    let mut k = knobs(Model::Uniform);
    k.faults = "outage=0.3,loss=0.02".parse().expect("valid fault spec");
    check_golden("figures_faulted.txt", &cli::figures_live_audited(&k, Format::Text, &FigId::ALL));
    check_golden("figures_faulted.csv", &cli::figures_live_audited(&k, Format::Csv, &FigId::ALL));
}

#[test]
fn golden_adversary_composed() {
    // The three composed scenarios the paper never ran, pinned through
    // the unified adversary engine: escalation tables plus the audit
    // trail every registered run emits.
    let world = world();
    let fleet = Fleet::alternating(6);
    let lab = AdversaryLab::new(&world, &fleet, 0..DAYS, 1);
    let mut text = String::new();
    let mut csv = String::new();
    for spec in ["sybil+censor", "adaptive", "geo"] {
        let outcome = parse_spec(spec).expect("registered composed scenario").run(&lab);
        let _ = write!(text, "{}{}\n\n", outcome.figure, outcome.audit_line());
        let _ = write!(csv, "{}", outcome.csv);
    }
    check_golden("adversary_composed.txt", &text);
    check_golden("adversary_composed.csv", &csv);
}

#[test]
fn golden_adversary_paper() {
    // The five registered paper attacks, standalone: each figure with
    // its audit line, and each CSV, so the censor, deanonymization,
    // closed-loop, Sybil and bridge sweeps are pinned at the byte level.
    let world = world();
    let fleet = Fleet::alternating(6);
    let lab = AdversaryLab::new(&world, &fleet, 0..DAYS, 1);
    let mut text = String::new();
    let mut csv = String::new();
    for name in ["censor", "deanon", "closedloop", "sybil", "bridges"] {
        let outcome = parse_spec(name).expect("registered paper attack").run(&lab);
        let _ = write!(text, "{}{}\n\n", outcome.figure, outcome.audit_line());
        let _ = write!(csv, "{}", outcome.csv);
    }
    check_golden("adversary_paper.txt", &text);
    check_golden("adversary_paper.csv", &csv);
}
