//! Adversary registry + composition determinism suite (DESIGN.md §9).
//!
//! The trait refactor's contract: the five registered paper attacks are
//! *plumbing* over their modules' sweeps, not reimplementations — so
//! each trait-path figure must be byte-identical to its module's sweep
//! run directly over the same grid at one thread (for the censor, to
//! the per-cell blacklist definition of Fig. 13; each module's unit
//! tests hold its sweep to a per-cell reference). On top of that, the
//! composed scenarios pin the lab-wide determinism guarantees: rebuild
//! ≡ rerun bit for bit, 1 ≡ N sweep threads, and capture → store →
//! replay roundtrips with identical figures.

use i2pscope::cli::{self, FigId, Format};
use i2pscope::measure::adversary::{
    parse_spec, Adversary, AdversaryLab, Bridges, Censor, ClosedLoop, Deanon, SybilEclipse,
};
use i2pscope::measure::{attack, bridges, censor, closedloop, report, sybil, Fleet, HarvestEngine};
use i2pscope::sim::world::{World, WorldConfig};
use i2pscope::store::Snapshot;

fn fixture() -> (World, Fleet) {
    (World::generate(WorldConfig { days: 8, scale: 0.03, seed: 67 }), Fleet::alternating(6))
}

fn lab_over<'w>(world: &'w World, fleet: &'w Fleet, threads: usize) -> AdversaryLab<'w> {
    AdversaryLab::new(world, fleet, 0..world.config.days, threads)
}

// ---- module sweep ↔ trait byte-identical figures -----------------------

#[test]
fn censor_trait_path_matches_legacy_oracle() {
    let (world, fleet) = fixture();
    let lab = lab_over(&world, &fleet, 1);
    let run = Censor.run(&lab);
    // The per-cell definition: one blacklist per (window, routers) cell
    // over a shared fill, scored against the victim's known addresses —
    // not the one-walk matrix the registered run goes through.
    let eval = lab.eval_day;
    let victim = censor::victim_view(&world, eval);
    let engine = HarvestEngine::build(&world, &fleet, 0..eval + 1);
    let series: Vec<censor::BlockingSeries> = Censor::window_grid(&lab)
        .into_iter()
        .map(|w| censor::BlockingSeries {
            window_days: w,
            points: Censor::router_grid(&lab)
                .into_iter()
                .map(|n| {
                    let bl = censor::censor_blacklist_from_engine(&engine, n, w, eval);
                    (n, censor::blocking_rate(&victim, &bl))
                })
                .collect(),
        })
        .collect();
    assert_eq!(run.figure, report::render_fig13(&series));
    assert_eq!(run.csv, report::csv_fig13(&series));
}

#[test]
fn deanon_trait_path_matches_legacy_oracle() {
    let (world, fleet) = fixture();
    let lab = lab_over(&world, &fleet, 1);
    let run = Deanon.run(&lab);
    let outcomes = attack::sweep_attacks(
        &world,
        &fleet,
        lab.eval_day,
        &Deanon::grid(&lab),
        Deanon::TUNNELS,
        lab.seed,
        1,
    );
    assert_eq!(run.figure, attack::render_attack_sweep(&outcomes));
    assert_eq!(run.csv, attack::csv_attack_sweep(&outcomes));
}

#[test]
fn closedloop_trait_path_matches_legacy_oracle() {
    let (world, fleet) = fixture();
    let lab = lab_over(&world, &fleet, 1);
    let run = ClosedLoop.run(&lab);
    let outcomes = closedloop::closed_loop_sweep(
        &world,
        &fleet,
        &lab.usability,
        &ClosedLoop::grid(&lab),
        lab.eval_day,
    );
    assert_eq!(run.figure, closedloop::render_closed_loop(&outcomes));
    assert_eq!(run.csv, closedloop::csv_closed_loop(&outcomes));
}

#[test]
fn sybil_trait_path_matches_legacy_oracle() {
    let (world, fleet) = fixture();
    let lab = lab_over(&world, &fleet, 1);
    let run = SybilEclipse.run(&lab);
    let sweep = sybil::run(&world, &fleet, &SybilEclipse::config(&lab));
    assert_eq!(run.figure, report::render_sybil(&sweep));
    assert_eq!(run.csv, report::csv_sybil(&sweep));
}

#[test]
fn bridges_trait_path_matches_legacy_oracle() {
    let (world, fleet) = fixture();
    let lab = lab_over(&world, &fleet, 1);
    let run = Bridges.run(&lab);
    let outcomes = bridges::sweep_bridges(
        &world,
        &fleet,
        &Bridges::grid(&lab),
        lab.eval_day - Bridges::horizon(&lab),
        Bridges::N_BRIDGES,
        fleet.vantages.len(),
        lab.seed,
        1,
    );
    assert_eq!(run.figure, bridges::render_bridge_comparison(&outcomes));
    assert_eq!(run.csv, bridges::csv_bridge_comparison(&outcomes));
}

// ---- composition determinism ------------------------------------------

#[test]
fn composed_scenarios_rebuild_bit_identical() {
    let (world, fleet) = fixture();
    let lab = lab_over(&world, &fleet, 2);
    for spec in ["sybil+censor", "adaptive", "geo", "sybil+adaptive"] {
        let a = parse_spec(spec).expect("spec parses").run(&lab);
        let b = parse_spec(spec).expect("spec parses").run(&lab);
        // A freshly parsed chain must replay the first run bit for bit
        // — figure, csv, audit line, every metric.
        assert_eq!(a, b, "rebuild of {spec:?} diverged");
        assert_eq!(a.audit_line(), b.audit_line(), "audit of {spec:?} diverged");
    }
}

#[test]
fn every_registered_adversary_is_thread_count_independent() {
    let (world, fleet) = fixture();
    let serial = lab_over(&world, &fleet, 1);
    let threaded = lab_over(&world, &fleet, 4);
    for name in i2pscope::measure::adversary::registry::NAMES {
        let a = parse_spec(name).expect("registered").run(&serial);
        let b = parse_spec(name).expect("registered").run(&threaded);
        // Outcomes deliberately never echo the thread count, so the
        // whole outcome — audit line included — must be equal.
        assert_eq!(a, b, "adversary {name:?} drifted across thread counts");
    }
}

#[test]
fn composed_capture_roundtrips_through_the_store() {
    let (world, fleet) = fixture();
    let lab = lab_over(&world, &fleet, 1);
    let adv = parse_spec("sybil+censor").expect("preset");
    let engine = adv.capture(&lab);
    let snapshot = Snapshot::capture(&engine);
    let replayed = Snapshot::from_bytes(&snapshot.to_bytes().expect("encode")).expect("roundtrip decodes");
    assert_eq!(snapshot.total_rows(), replayed.total_rows());
    // The replayed snapshot must drive the figure pipeline to the same
    // bytes as the live eclipsed engine.
    let live = cli::render_figures(&engine, Format::Text, &FigId::ALL);
    let replay = cli::render_figures(&replayed, Format::Text, &FigId::ALL);
    assert!(!live.is_empty());
    assert_eq!(live, replay, "capture → store → replay drifted from the live engine");
}
