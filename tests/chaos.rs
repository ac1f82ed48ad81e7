//! Chaos suite: the deterministic fault plane end to end.
//!
//! Pins the contracts that make chaos runs CI-able (DESIGN.md §10):
//!
//! * **Zero-fault parity** — the fault plane compiled in with an empty
//!   spec is byte-identical to the unfaulted pipeline.
//! * **Determinism** — same seed + same fault spec ⇒ byte-identical
//!   figures and audit lines across reruns and thread counts.
//! * **Monotone degradation** — raising a fault rate never *adds*
//!   coverage (keyed threshold draws nest in the rate).
//! * **Crash-safety** — an injected writer kill at any crash-point
//!   never tears an existing `.i2ps`; a truncated archive recovers via
//!   quarantine and `harvest --resume` completes it to the exact bytes
//!   a one-shot harvest would have produced.
//! * **Spec UX** — malformed specs fail with the token and the full
//!   supported-key list, never a panic.

use i2pscope::cli::{self, FigId, Format, Knobs, Model};
use i2pscope::faults::{FaultPlane, FaultSpec};
use i2pscope::measure::fleet::Fleet;
use i2pscope::measure::keyspace::{self, VisibilityModel};
use i2pscope::measure::{lab, HarvestEngine, SnapshotSource};
use i2pscope::sim::world::{World, WorldConfig};
use i2pscope::store::{Snapshot, StoreError};
use std::path::PathBuf;

const SCALE: f64 = 0.02;
const SEED: u64 = 20_180_201;
const DAYS: u64 = 8;

fn knobs(spec: &str) -> Knobs {
    Knobs {
        scale: SCALE,
        seed: SEED,
        days: DAYS,
        fleet: 6,
        replicates: 1,
        threads: 1,
        model: Model::Uniform,
        faults: spec.parse().expect("valid fault spec"),
    }
}

fn world() -> World {
    World::generate(WorldConfig { days: DAYS, scale: SCALE, seed: SEED })
}

/// The naive reference for one day: per vantage, the ids
/// `Fleet::harvest_one` sees, ascending, ANDed with the day's keyspace
/// gates under the keyspace model, and none on the plane's outage
/// days.
fn naive_day(
    world: &World,
    fleet: &Fleet,
    day: u64,
    model: &VisibilityModel,
    plane: &FaultPlane,
) -> Vec<Vec<u32>> {
    let online: Vec<u32> = world.online_peers(day).map(|p| p.id).collect();
    let gates = match model {
        VisibilityModel::Uniform => None,
        VisibilityModel::Keyspace(cfg) => {
            Some(keyspace::day_gates(world, &fleet.vantages, &online, day, cfg))
        }
    };
    let mut lanes = Vec::new();
    for (v, vantage) in fleet.vantages.iter().enumerate() {
        if plane.vantage_outage(vantage.salt, day) {
            lanes.push(Vec::new());
            continue;
        }
        let harvest = fleet.harvest_one(world, vantage, day);
        let mut ids: Vec<u32> = harvest.records.into_keys().collect();
        ids.sort_unstable();
        if let Some(gates) = &gates {
            ids.retain(|id| {
                let i = online.binary_search(id).expect("a sighted peer is online");
                gates[v][i / 64] >> (i % 64) & 1 == 1
            });
        }
        lanes.push(ids);
    }
    lanes
}

/// A self-cleaning scratch file under the system temp dir.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("i2pscope-chaos-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir scratch");
        Scratch(dir.join(name))
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

#[test]
fn zero_fault_plane_is_byte_identical_to_the_unfaulted_pipeline() {
    // The parity contract: threading an all-zero plane through the
    // engine changes nothing, and an explicit all-zero spec is the
    // same plane as no spec at all.
    let zeroed = "loss=0, delay=0, dup=0, ff_crash=0, stall=0, outage=0, flake=0, io_crash=0"
        .parse::<FaultSpec>()
        .expect("zero spec parses");
    assert!(zeroed.is_zero());
    assert_eq!(zeroed, FaultSpec::default());

    let world = world();
    let fleet = Fleet::alternating(6);
    let plain = HarvestEngine::build(&world, &fleet, 0..DAYS);
    let faulted = HarvestEngine::build_faulted(
        &world,
        &fleet,
        0..DAYS,
        &VisibilityModel::Uniform,
        &FaultPlane::zero(),
    );
    for format in [Format::Text, Format::Csv] {
        assert_eq!(
            cli::render_figures(&plain, format, &FigId::ALL),
            cli::render_figures(&faulted, format, &FigId::ALL),
            "zero-fault {format:?} figures diverged from the unfaulted build"
        );
    }
    // The audit line renders the zero spec as `-` and full coverage.
    let audit = cli::audit_line(&knobs(""), &plain);
    assert!(audit.contains("faults=-"), "zero spec audit: {audit}");
    assert!(audit.contains(&format!("days_observed={DAYS}/{DAYS}")), "audit: {audit}");
}

#[test]
fn faulted_figures_and_audit_lines_are_deterministic() {
    let k = knobs("outage=0.25,loss=0.05,stall=4");
    for format in [Format::Text, Format::Csv] {
        let first = cli::figures_live_audited(&k, format, &FigId::ALL);
        let second = cli::figures_live_audited(&k, format, &FigId::ALL);
        assert_eq!(first, second, "faulted {format:?} rerun diverged");
    }
    // This spec darkens cells at this seed, so the degraded-harvest
    // annotation must lead the render (deterministic, hence stable).
    let text = cli::figures_live_audited(&k, Format::Text, &FigId::ALL);
    assert!(
        text.starts_with("degraded harvest:"),
        "faulted figures carry the coverage annotation: {}",
        text.lines().next().unwrap_or("")
    );
}

#[test]
fn faulted_usability_sweep_is_thread_count_independent() {
    // The Fig. 14 sweep threads the plane into the TestNet fabric and
    // the fetch-retry loop; results must not depend on the lab's
    // thread count.
    let mut k = knobs("flake=0.3,loss=0.03");
    k.threads = 1;
    let one = cli::sweep(&k, Format::Csv);
    k.threads = 4;
    let four = cli::sweep(&k, Format::Csv);
    assert_eq!(one, four, "faulted usability sweep depends on thread count");
}

#[test]
fn outage_grid_coverage_is_monotone_and_sweep_parallelism_free() {
    // A fault grid through the scenario lab: coverage can only shrink
    // as the outage rate rises (threshold draws nest), and the sweep
    // itself is thread-count independent.
    let world = world();
    let fleet = Fleet::alternating(6);
    let grid = ["0", "0.1", "0.25", "0.5", "0.75", "1"];
    let run = |wf: &(&World, &Fleet), rate: &&str, _i: usize| {
        let k = knobs(&format!("outage={rate}"));
        let engine = HarvestEngine::build_faulted(
            wf.0,
            wf.1,
            0..DAYS,
            &VisibilityModel::Uniform,
            &k.plane(),
        );
        (engine.coverage().cells_observed, cli::audit_line(&k, &engine))
    };
    let substrate = (&world, &fleet);
    let swept = lab::sweep(&substrate, &grid, 1, run);
    assert_eq!(swept, lab::sweep(&substrate, &grid, 3, run), "fault grid depends on threads");

    let cells: Vec<usize> = swept.iter().map(|(c, _)| *c).collect();
    let full = DAYS as usize * fleet.vantages.len();
    assert_eq!(cells[0], full, "outage=0 keeps every cell");
    assert_eq!(*cells.last().unwrap(), 0, "outage=1 darkens every cell");
    assert!(cells.windows(2).all(|w| w[1] <= w[0]), "coverage not monotone: {cells:?}");
}

#[test]
fn faulted_sharded_fill_matches_oracle_at_every_worker_count() {
    // Outage blanking happens after the sharded fill, so the faulted
    // engine must stay bit-identical to the naive path with the same
    // plane applied — at any worker count, in both models — and render
    // the same figures at every worker count. The world spans several
    // id shards, so the fill also merges the lane words that
    // neighbouring shards share.
    let world = World::generate(WorldConfig { days: DAYS, scale: 0.05, seed: SEED });
    assert!(world.index.shard_count() > 1, "the world spans several id shards");
    let fleet = Fleet::alternating(6);
    let plane = knobs("outage=0.25,loss=0.05").plane();
    for model in [
        VisibilityModel::Uniform,
        VisibilityModel::Keyspace(i2pscope::measure::KeyspaceConfig::paper()),
    ] {
        let naive: Vec<_> =
            (0..DAYS).map(|day| naive_day(&world, &fleet, day, &model, &plane)).collect();
        let mut first: Option<[String; 2]> = None;
        for threads in [1usize, 3, 9] {
            let sharded = HarvestEngine::build_on(&world, &fleet, 0..DAYS, &model, &plane, threads);
            for (day, lanes) in (0..DAYS).zip(&naive) {
                for (v, want) in lanes.iter().enumerate() {
                    assert_eq!(
                        &sharded.vantage_ids(v, day),
                        want,
                        "threads {threads} day {day} vantage {v}"
                    );
                }
            }
            let renders = [Format::Text, Format::Csv]
                .map(|format| cli::render_figures(&sharded, format, &FigId::ALL));
            match &first {
                None => first = Some(renders),
                Some(want) => assert!(
                    renders == *want,
                    "faulted figures depend on fill worker count ({threads} workers)"
                ),
            }
        }
    }
}

#[test]
fn injected_writer_kills_never_tear_an_existing_archive() {
    // Satellite (a) at the CLI layer: seed the destination with a
    // (recognizably different) degraded archive, then kill the writer
    // at each pre-publish crash-point — the old archive must survive
    // byte-for-byte. Point 5 fires after the rename, so the new bytes
    // are already live.
    let reference = Scratch::new("io_reference.i2ps");
    cli::harvest(&knobs(""), reference.path(), false).expect("reference harvest");
    let clean = std::fs::read(reference.path()).expect("read reference");

    let dest = Scratch::new("io_crash.i2ps");
    cli::harvest(&knobs("outage=0.5"), dest.path(), false).expect("seed harvest");
    let old = std::fs::read(dest.path()).expect("read seeded archive");
    assert_ne!(old, clean, "the seeded archive must differ from the clean one");

    for point in 1..=4u32 {
        let err = cli::harvest(&knobs(&format!("io_crash={point}")), dest.path(), false)
            .expect_err("writer killed");
        assert!(
            matches!(err, StoreError::InjectedCrash { point: p } if p == point),
            "unexpected error at point {point}: {err}"
        );
        assert_eq!(
            std::fs::read(dest.path()).expect("read after crash"),
            old,
            "destination torn at crash-point {point}"
        );
    }

    let err =
        cli::harvest(&knobs("io_crash=5"), dest.path(), false).expect_err("killed post-rename");
    assert!(matches!(err, StoreError::InjectedCrash { point: 5 }), "point 5: {err}");
    assert_eq!(
        std::fs::read(dest.path()).expect("read after rename"),
        clean,
        "crash-point 5 fires after publication, so the clean bytes are live"
    );
    Snapshot::read_from(dest.path()).expect("published archive loads");
}

#[test]
fn a_truncated_archive_recovers_and_resumes_to_the_one_shot_bytes() {
    // The headline recovery roundtrip, under a *faulted* spec so resume
    // exercises the plane too: one-shot harvest → truncate mid-file →
    // quarantine-and-recover → `--resume` harvests the missing days →
    // byte-identical to the one-shot archive.
    let k = knobs("outage=0.3");
    let one_shot = Scratch::new("resume_oneshot.i2ps");
    cli::harvest(&k, one_shot.path(), false).expect("one-shot harvest");
    let want = std::fs::read(one_shot.path()).expect("read one-shot");

    let damaged = Scratch::new("resume_damaged.i2ps");
    std::fs::write(damaged.path(), &want[..want.len() * 2 / 3]).expect("plant truncated");
    assert!(
        Snapshot::read_from(damaged.path()).is_err(),
        "strict load must reject the truncated archive"
    );

    let summary = cli::harvest(&k, damaged.path(), true).expect("resume");
    assert!(summary.contains("resume: existing snapshot recovered"), "summary: {summary}");
    assert_eq!(
        std::fs::read(damaged.path()).expect("read resumed"),
        want,
        "resumed archive is not byte-identical to the one-shot harvest"
    );
    let loaded = Snapshot::read_from(damaged.path()).expect("resumed archive loads strictly");
    assert_eq!(loaded.verify_router_infos().expect("verify"), loaded.total_rows());

    // Resuming an intact archive is a no-op.
    let summary = cli::harvest(&k, damaged.path(), true).expect("idempotent resume");
    assert!(summary.contains("nothing to do"), "summary: {summary}");
    assert_eq!(std::fs::read(damaged.path()).expect("read again"), want);

    // Resume refuses an archive from different knobs.
    let mut alien = k;
    alien.seed ^= 1;
    let err = cli::harvest(&alien, damaged.path(), true).expect_err("knob mismatch");
    assert!(err.to_string().contains("does not match"), "mismatch error: {err}");
}

#[test]
fn malformed_specs_name_the_token_and_list_the_supported_keys() {
    let err = FaultSpec::parse("bogus=1").expect_err("unknown key");
    assert!(err.contains("bogus"), "error names the token: {err}");
    assert!(err.contains("supported keys"), "error lists support: {err}");
    for key in ["loss", "delay", "dup", "ff_crash", "stall", "outage", "flake", "io_crash"] {
        assert!(err.contains(key), "error lists {key}: {err}");
    }
    assert!(FaultSpec::parse("loss").is_err(), "bare key rejected");
    assert!(FaultSpec::parse("loss=1.5").is_err(), "probability above 1 rejected");
    assert!(FaultSpec::parse("loss=-0.1").is_err(), "negative probability rejected");
    assert!(FaultSpec::parse("loss=NaN").is_err(), "NaN rejected");
    assert!(FaultSpec::parse("io_crash=9").is_err(), "crash-point above the map rejected");
    assert!("".parse::<FaultSpec>().expect("empty spec").is_zero());
    assert!(" , , ".parse::<FaultSpec>().expect("blank spec").is_zero());
}
