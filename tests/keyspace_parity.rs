//! Differential parity of the keyspace-routed harvest.
//!
//! The keyspace visibility model (DESIGN.md §8) must be a *refinement*
//! of the uniform oracle, not a divergence from it:
//!
//! * with **full-overlap** placement (replication ≥ the floodfill
//!   population) every floodfill receives every store, so the
//!   keyspace-routed engine must reproduce the uniform-visibility
//!   engine **bit-identically** — same counts, same sighting sets, same
//!   rendered figures;
//! * with the paper's **non-degenerate** placement (replication = 3)
//!   floodfill vantages keep only their keyspace slice, so coverage
//!   must land inside a pinned envelope: strictly below uniform for the
//!   floodfill lanes, untouched for the non-floodfill lanes.

use i2pscope::cli::{self, FigId, Format};
use i2pscope::faults::FaultPlane;
use i2pscope::measure::fleet::{Fleet, VantageMode};
use i2pscope::measure::keyspace::{KeyspaceConfig, VisibilityModel};
use i2pscope::measure::HarvestEngine;
use i2pscope::sim::world::{World, WorldConfig};

fn setup() -> (World, Fleet) {
    (
        World::generate(WorldConfig { days: 6, scale: 0.03, seed: 20_180_201 }),
        Fleet::alternating(8),
    )
}

#[test]
fn full_overlap_is_bit_identical_to_the_uniform_oracle() {
    let (world, fleet) = setup();
    let uniform = HarvestEngine::build(&world, &fleet, 0..6);
    let keyed = HarvestEngine::build_faulted(
        &world,
        &fleet,
        0..6,
        &VisibilityModel::Keyspace(KeyspaceConfig::full_overlap()),
        &FaultPlane::zero(),
    );
    for day in 0..6 {
        for v in 0..8 {
            assert_eq!(keyed.count_one(v, day), uniform.count_one(v, day), "day {day} v {v}");
            assert_eq!(keyed.vantage_ids(v, day), uniform.vantage_ids(v, day), "day {day} v {v}");
        }
        for k in 1..=8 {
            assert_eq!(
                keyed.count_union_prefix(day, k),
                uniform.count_union_prefix(day, k),
                "day {day} k {k}"
            );
        }
        assert_eq!(keyed.coverage_curve(day), uniform.coverage_curve(day), "day {day}");
    }
    // And through the figure pipelines: byte-identical renders.
    for format in [Format::Text, Format::Csv] {
        assert_eq!(
            cli::render_figures(&keyed, format, &FigId::ALL),
            cli::render_figures(&uniform, format, &FigId::ALL),
            "{format:?} figures diverged under full overlap"
        );
    }
}

#[test]
fn replication_above_population_is_the_same_degenerate_case() {
    // A finite replication factor at or above the placement population
    // behaves exactly like the usize::MAX sentinel.
    let (world, fleet) = setup();
    let uniform = HarvestEngine::build(&world, &fleet, 2..4);
    let big = KeyspaceConfig { replication: 100_000, ..KeyspaceConfig::full_overlap() };
    let model = VisibilityModel::Keyspace(big);
    let keyed = HarvestEngine::build_faulted(&world, &fleet, 2..4, &model, &FaultPlane::zero());
    for day in 2..4 {
        for v in 0..8 {
            assert_eq!(keyed.vantage_ids(v, day), uniform.vantage_ids(v, day));
        }
    }
}

#[test]
fn paper_placement_stays_inside_the_coverage_envelope() {
    let (world, fleet) = setup();
    let uniform = HarvestEngine::build(&world, &fleet, 0..6);
    let keyed = HarvestEngine::build_faulted(
        &world,
        &fleet,
        0..6,
        &VisibilityModel::Keyspace(KeyspaceConfig::paper()),
        &FaultPlane::zero(),
    );
    for day in 0..6 {
        let online = world.online_count(day) as f64;
        let floodfills = world.online_floodfill_count(day);
        for (v, vantage) in fleet.vantages.iter().enumerate() {
            let uni = uniform.count_one(v, day);
            let key = keyed.count_one(v, day);
            match vantage.mode {
                // Non-floodfill sightings are keyspace-independent:
                // exactly the oracle's, bit for bit.
                VantageMode::NonFloodfill => {
                    assert_eq!(key, uni, "day {day} v {v}");
                    assert_eq!(keyed.vantage_ids(v, day), uniform.vantage_ids(v, day));
                }
                // A floodfill vantage keeps at most its keyspace slice:
                // ~replication/F of the records, never more than the
                // uniform draw it is ANDed into. Envelope pinned to
                // [slice/8, 4·slice + 16] sightings — loose enough for
                // draw noise, tight enough to catch a broken gate (an
                // all-ones gate would land at ~uniform ≈ F/3 × slice).
                VantageMode::Floodfill => {
                    assert!(key <= uni, "day {day} v {v}: {key} > uniform {uni}");
                    let slice = 3.0 / (floodfills + 4) as f64 * online;
                    assert!(
                        (key as f64) <= slice * 4.0 + 16.0,
                        "day {day} v {v}: {key} above envelope (slice ≈ {slice:.0})"
                    );
                    assert!(
                        (key as f64) >= slice / 8.0,
                        "day {day} v {v}: {key} below envelope (slice ≈ {slice:.0})"
                    );
                }
            }
        }
        // The union still carries the census: non-floodfill lanes are
        // untouched, so fleet coverage cannot collapse — it is pinned
        // to at least 70% of the uniform union (measured ≈79% at this
        // seed/scale; a broken gate that zeroed whole lanes would land
        // far below, an open gate exactly at 100%).
        let uni_union = uniform.count_union(day) as f64;
        let key_union = keyed.count_union(day) as f64;
        assert!(key_union <= uni_union);
        assert!(
            key_union >= 0.70 * uni_union,
            "day {day}: keyspace union {key_union} fell below 70% of uniform {uni_union}"
        );
        assert!(
            key_union < uni_union,
            "day {day}: non-degenerate placement cannot reproduce the full union"
        );
    }
}

#[test]
fn keyspace_fill_is_thread_count_independent() {
    // The gate pass runs through lab::sweep; like the base fill it must
    // be bit-identical no matter how the days are scheduled. Pin by
    // comparing two independently built engines (each internally
    // parallel) and the single-day incremental build.
    let (world, fleet) = setup();
    let model = VisibilityModel::Keyspace(KeyspaceConfig::paper());
    let a = HarvestEngine::build_faulted(&world, &fleet, 0..6, &model, &FaultPlane::zero());
    let b = HarvestEngine::build_faulted(&world, &fleet, 0..6, &model, &FaultPlane::zero());
    for day in 0..6 {
        let single =
            HarvestEngine::build_faulted(&world, &fleet, day..day + 1, &model, &FaultPlane::zero());
        for v in 0..8 {
            assert_eq!(a.vantage_ids(v, day), b.vantage_ids(v, day));
            assert_eq!(a.vantage_ids(v, day), single.vantage_ids(v, day), "day {day} v {v}");
        }
    }
}
