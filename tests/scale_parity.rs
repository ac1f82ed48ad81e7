//! Scale suite: the sharded engine and the lazy archive reader are
//! pure optimisations — they must never change a rendered byte.
//!
//! Pins the contracts behind the million-router scale work:
//!
//! * **Sharded ≡ naive at scale 1** — the work-stealing shard fill,
//!   at every worker count, holds the naive path's sighting sets and
//!   renders the full figure suite byte-identical to the 1-worker
//!   fill, under both visibility models, and so does the figure pass
//!   at 1, 2, 3, 5 and 7 workers.
//! * **One-walk Fig. 13 ≡ per-cell definition at scale 1** — all 100
//!   cells of the benchmark's blocking matrix, bit for bit.
//! * **Lazy ≡ eager replay** — `figures --from` through the
//!   segment-on-demand [`LazySnapshot`] renders byte-identical to the
//!   eager whole-file loader.
//! * **Million-router stress** (`#[ignore]`, run explicitly) — a
//!   ~1.08M-router world fills, streams every figure family, and
//!   archives round-trip, with the shard ledger accounting for the
//!   work.

use i2pscope::cli::{self, FigId, Format, Knobs, Model};
use i2pscope::faults::FaultPlane;
use i2pscope::measure::fleet::Fleet;
use i2pscope::measure::keyspace::{self, VisibilityModel};
use i2pscope::measure::{censor, HarvestEngine, KeyspaceConfig};
use i2pscope::sim::world::{World, WorldConfig};
use i2pscope::store::Snapshot;
use i2pscope::telemetry::counters::{self, Counter};
use std::path::PathBuf;

const SEED: u64 = 20_180_201;

fn knobs(scale: f64, days: u64, fleet: usize) -> Knobs {
    Knobs {
        scale,
        seed: SEED,
        days,
        fleet,
        replicates: 1,
        threads: 1,
        model: Model::Uniform,
        faults: "".parse().expect("empty fault spec"),
    }
}

/// A self-cleaning scratch file under the system temp dir.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("i2pscope-scale-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir scratch");
        Scratch(dir.join(name))
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// The naive reference for one day: per vantage, the ids
/// `Fleet::harvest_one` sees, ascending, ANDed with the day's keyspace
/// gates under the keyspace model.
fn naive_day(world: &World, fleet: &Fleet, day: u64, model: &VisibilityModel) -> Vec<Vec<u32>> {
    let online: Vec<u32> = world.online_peers(day).map(|p| p.id).collect();
    let gates = match model {
        VisibilityModel::Uniform => None,
        VisibilityModel::Keyspace(cfg) => {
            Some(keyspace::day_gates(world, &fleet.vantages, &online, day, cfg))
        }
    };
    let mut lanes = Vec::new();
    for (v, vantage) in fleet.vantages.iter().enumerate() {
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

/// The tentpole parity pin: at scale 1 (the paper-scale default,
/// ~180k routers spanning many id-range shards), the sharded
/// work-stealing fill holds the naive path's sighting sets at every
/// worker count, under both visibility models; every fill renders the
/// complete figure suite byte-identical to the 1-worker fill in both
/// output formats, and so does the figure pass, which splits each day
/// by id shard, at 1, 2, 3, 5 and 7 workers.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "scale-1 naive sets and renders are minutes unoptimised; CI runs this via `cargo test --release --test scale_parity`"
)]
fn sharded_figures_match_oracle_at_scale_one() {
    let days = 3u64;
    let world = World::generate(WorldConfig { days, scale: 1.0, seed: SEED });
    let fleet = Fleet::alternating(4);
    for model in [
        VisibilityModel::Uniform,
        VisibilityModel::Keyspace(KeyspaceConfig::paper()),
    ] {
        let naive: Vec<_> = (0..days).map(|day| naive_day(&world, &fleet, day, &model)).collect();
        let mut one_worker: Option<[String; 2]> = None;
        for threads in [1usize, 2, 8] {
            let sharded = HarvestEngine::build_on(
                &world,
                &fleet,
                0..days,
                &model,
                &FaultPlane::zero(),
                threads,
            );
            for (day, lanes) in (0..days).zip(&naive) {
                for (v, want) in lanes.iter().enumerate() {
                    assert!(
                        sharded.vantage_ids(v, day) == *want,
                        "the sharded fill diverged from the naive path \
                         (model {model:?}, {threads} workers, day {day}, vantage {v})"
                    );
                }
            }
            let formats = [Format::Text, Format::Csv];
            let renders = formats.map(|format| cli::render_figures(&sharded, format, &FigId::ALL));
            let wants = one_worker.get_or_insert_with(|| renders.clone());
            for ((format, render), want) in formats.into_iter().zip(&renders).zip(wants.iter()) {
                assert!(
                    render == want,
                    "the {threads}-worker fill's figures diverged from the 1-worker fill's \
                     (model {model:?}, {format:?})"
                );
                // The figure pass splits each day by id shard: its
                // worker count must not move a byte either.
                for pass_workers in [1, 2, 3, 5, 7] {
                    let got = cli::render_figures_on(&sharded, format, &FigId::ALL, pass_workers);
                    assert!(
                        got == *want,
                        "the figure pass diverged at {pass_workers} workers \
                         (model {model:?}, {threads} fill workers, {format:?})"
                    );
                }
            }
        }
    }
}

/// Fig. 13 at the benchmark's size (scale 1, 40 days, routers 1..=20 ×
/// windows of 1/5/10/20/30 days, eval day 35): the one-walk matrix
/// equals the per-cell blacklist definition bit for bit in all 100
/// cells.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "100 scale-1 per-cell blacklists are minutes unoptimised; CI runs this via `cargo test --release --test scale_parity`"
)]
fn fig13_walk_matches_per_cell_definition_at_scale_one() {
    let eval = 35u64;
    let world = World::generate(WorldConfig { days: 40, scale: 1.0, seed: SEED });
    let fleet = Fleet::alternating(20);
    let routers: Vec<usize> = (1..=20).collect();
    let windows = [1u64, 5, 10, 20, 30];
    let series = censor::blocking_matrix(&world, &fleet, eval, &routers, &windows);
    let victim = censor::victim_view(&world, eval);
    let engine = HarvestEngine::build(&world, &fleet, eval + 1 - 30..eval + 1);
    let mut cells = 0;
    for (s, &w) in series.iter().zip(&windows) {
        assert_eq!(s.window_days, w);
        for (&(n, rate), &want_n) in s.points.iter().zip(&routers) {
            assert_eq!(n, want_n);
            let bl = censor::censor_blacklist_from_engine(&engine, n, w, eval);
            let want = censor::blocking_rate(&victim, &bl);
            assert_eq!(rate.to_bits(), want.to_bits(), "{n} routers, {w}-day window");
            cells += 1;
        }
    }
    assert_eq!(cells, 100);
}

/// `figures --from` replays through the lazy segment-on-demand reader;
/// its bytes must match both the eager loader and the live engine the
/// archive was captured from — and the lazy ledger must show segments
/// were actually faulted in on demand, not preloaded.
#[test]
fn lazy_replay_matches_eager_replay_and_live_render() {
    let scratch = Scratch::new("lazy-parity.i2ps");
    let k = knobs(0.02, 6, 5);
    cli::harvest(&k, scratch.path(), false).expect("harvest");

    let eager = Snapshot::read_recover(scratch.path()).expect("eager read").0;
    let live = cli::figures_live(&k, Format::Text, &FigId::ALL);
    for format in [Format::Text, Format::Csv] {
        let base = counters::snapshot();
        let lazy = cli::figures_from(scratch.path(), format, &FigId::ALL, true)
            .expect("lazy replay");
        let delta = counters::snapshot().delta_since(&base);
        assert!(
            delta.get(Counter::SegmentsLazyLoaded) > 0,
            "lazy replay never faulted a segment in"
        );
        assert_eq!(
            lazy,
            cli::render_figures(&eager, format, &FigId::ALL),
            "lazy replay diverged from the eager loader ({format:?})"
        );
        if format == Format::Text {
            assert_eq!(lazy, live, "replayed figures diverged from the live render");
        }
    }
}

/// The perf contract behind the fast default: the complete figure
/// suite at scale 1 — sharded fill plus every streaming query — stays
/// under a wall-clock budget. The budget (5s) is deliberately several
/// times the measured time (see `BENCH_scale.json`) so CI machine
/// jitter cannot flake it while a complexity regression (e.g. a query
/// falling back to O(population × vantages) peak memory churn) still
/// trips it.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "wall-clock budget is calibrated for release codegen; CI runs this via `cargo test --release --test scale_parity`"
)]
fn scale_one_figure_suite_meets_wall_clock_budget() {
    let days = 3u64;
    let world = World::generate(WorldConfig { days, scale: 1.0, seed: SEED });
    let fleet = Fleet::alternating(4);
    let start = std::time::Instant::now();
    let engine = HarvestEngine::build(&world, &fleet, 0..days);
    let _text = cli::render_figures(&engine, Format::Text, &FigId::ALL);
    let elapsed = start.elapsed();
    assert!(
        elapsed.as_secs_f64() < 5.0,
        "scale-1 fill + full figure suite took {elapsed:?} (budget 5s)"
    );
}

/// Million-router stress smoke (scale 6.0 ≈ 1.08M routers). Ignored by
/// default — run with `cargo test --release -- --ignored` — because it
/// allocates a seven-figure world on purpose. Exercises the sharded
/// fill, every streaming figure family, and the archive round trip,
/// then checks the shard ledger accounted for the work.
#[test]
#[ignore = "allocates a ~1.08M-router world; run explicitly with --ignored"]
fn million_router_stress_smoke() {
    let days = 2u64;
    let world = World::generate(WorldConfig { days, scale: 6.0, seed: SEED });
    assert!(
        world.peers.len() > 1_000_000,
        "stress tier must exceed one million routers (got {})",
        world.peers.len()
    );

    let fleet = Fleet::alternating(4);
    let base = counters::snapshot();
    let engine = HarvestEngine::build(&world, &fleet, 0..days);
    let fill = counters::snapshot().delta_since(&base);
    let shards = world.index.shard_count() as u64;
    assert_eq!(
        fill.get(Counter::EngineShardUnits),
        shards,
        "every id-shard unit must be filled exactly once"
    );

    // Every query family streams in O(block) peak memory.
    let curve = engine.coverage_curve(0);
    assert_eq!(curve.len(), fleet.vantages.len());
    assert!(engine.count_union(0) > 100_000, "day-0 union implausibly small");
    let mut records = 0usize;
    for day in 0..days {
        engine.for_each_observation(day, fleet.vantages.len(), |_| records += 1);
    }
    assert!(records > 0, "the window materializes records");

    // The archive round trip survives the scale tier too.
    let scratch = Scratch::new("million.i2ps");
    let snapshot = Snapshot::capture(&engine);
    snapshot
        .write_to_with(scratch.path(), &i2pscope::faults::FaultPlane::zero())
        .expect("write snapshot");
    let replay = cli::figures_from(scratch.path(), Format::Csv, &[FigId::Fig4], false)
        .expect("lazy replay at scale 6");
    assert!(!replay.is_empty());
}
