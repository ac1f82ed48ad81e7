//! Engine ↔ oracle parity suite.
//!
//! The indexed/bitset/parallel `HarvestEngine` must be *bit-identical*
//! to the seed's naive per-peer path (`Fleet::harvest_*`, retained as
//! the engine's one oracle): same peer-id sets, same counts, same
//! materialized records, for every (day, vantage, prefix) — across
//! several (seed, scale, fleet) combinations. Any divergence means the
//! engine changed the measurement, not just its cost.

use i2p_faults::{FaultPlane, FaultSpec};
use i2p_measure::censor::censor_blacklist_from_engine;
use i2p_measure::engine::HarvestEngine;
use i2p_measure::fleet::{DailyHarvest, Fleet, Vantage, VantageMode};
use i2p_measure::keyspace::{self, KeyspaceConfig};
use i2p_measure::{ObservedRouterInfo, VisibilityModel};
use i2p_sim::world::{World, WorldConfig};
use std::collections::BTreeSet;

/// (seed, scale, fleet size) grid: small/medium worlds, small fleets,
/// the paper's 20-router fleet, and an odd-sized one.
fn combos() -> Vec<(u64, f64, Fleet)> {
    vec![
        (3, 0.02, Fleet::alternating(4)),
        (11, 0.035, Fleet::paper_main()),
        (61, 0.015, Fleet::alternating(7)),
    ]
}

fn ids(h: &DailyHarvest) -> BTreeSet<u32> {
    h.records.keys().copied().collect()
}

/// A harvest's records, ascending by peer id.
fn sorted_records(h: DailyHarvest) -> Vec<ObservedRouterInfo> {
    let mut records: Vec<ObservedRouterInfo> = h.records.into_values().collect();
    records.sort_by_key(|rec| rec.peer_id);
    records
}

/// The engine's union records of the first `k` vantages on `day`, in
/// the ascending id order it visits them.
fn engine_records(engine: &HarvestEngine<'_>, day: u64, k: usize) -> Vec<ObservedRouterInfo> {
    let mut records = Vec::new();
    engine.for_each_observation(day, k, |rec| records.push(rec));
    records
}

/// The naive reference for one day: per vantage, the ids
/// `Fleet::harvest_one` sees, ascending, ANDed with the day's keyspace
/// gates under the keyspace model. The gates are laid over the world's
/// own online ids, which past the index horizon come from its scan, as
/// the fill's do.
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
        let mut seen: Vec<u32> = ids(&fleet.harvest_one(world, vantage, day)).into_iter().collect();
        if let Some(gates) = &gates {
            seen.retain(|id| {
                let i = online.binary_search(id).expect("a sighted peer is online");
                gates[v][i / 64] >> (i % 64) & 1 == 1
            });
        }
        lanes.push(seen);
    }
    lanes
}

#[test]
fn union_and_prefix_sets_match_oracle() {
    for (seed, scale, fleet) in combos() {
        let world = World::generate(WorldConfig { days: 8, scale, seed });
        let engine = HarvestEngine::build(&world, &fleet, 0..8);
        let n = fleet.vantages.len();
        for day in 0..8 {
            let naive = fleet.harvest_union(&world, day);
            assert_eq!(engine.count_union(day), naive.peer_count(), "seed {seed} day {day}");
            assert_eq!(
                engine.union_prefix_ids(day, n).into_iter().collect::<BTreeSet<_>>(),
                ids(&naive),
                "seed {seed} day {day}"
            );
            for k in [1, n / 2, n] {
                let naive_k = fleet.harvest_union_prefix(&world, day, k);
                assert_eq!(
                    engine.count_union_prefix(day, k),
                    naive_k.peer_count(),
                    "seed {seed} day {day} k {k}"
                );
                assert_eq!(
                    engine.union_prefix_ids(day, k).into_iter().collect::<BTreeSet<_>>(),
                    ids(&naive_k),
                    "seed {seed} day {day} k {k}"
                );
            }
        }
    }
}

#[test]
fn per_vantage_lanes_match_oracle() {
    for (seed, scale, fleet) in combos() {
        let world = World::generate(WorldConfig { days: 5, scale, seed });
        let engine = HarvestEngine::build(&world, &fleet, 0..5);
        for day in [0u64, 2, 4] {
            for (v, vantage) in fleet.vantages.iter().enumerate() {
                let naive = fleet.harvest_one(&world, vantage, day);
                assert_eq!(
                    engine.count_one(v, day),
                    naive.peer_count(),
                    "seed {seed} vantage {v} day {day}"
                );
                let want: Vec<u32> = ids(&naive).into_iter().collect();
                assert_eq!(engine.vantage_ids(v, day), want, "seed {seed} vantage {v} day {day}");
            }
        }
    }
}

#[test]
fn materialized_union_records_match_oracle() {
    let world = World::generate(WorldConfig { days: 6, scale: 0.03, seed: 29 });
    let fleet = Fleet::paper_main();
    let engine = HarvestEngine::build(&world, &fleet, 0..6);
    let n = fleet.vantages.len();
    // Materialized records are equal field-for-field, not just as id
    // sets (caps, addresses, introducers).
    for day in 0..6 {
        let want = sorted_records(fleet.harvest_union(&world, day));
        assert_eq!(engine_records(&engine, day, n), want, "day {day}");
    }
    // And the naive window agrees day by day.
    let naive_windows = fleet.harvest_window(&world, 1..4);
    assert_eq!(naive_windows.len(), 3);
    for (day, naive) in (1..4).zip(naive_windows) {
        assert_eq!(engine_records(&engine, day, n), sorted_records(naive), "day {day}");
    }
}

#[test]
fn coverage_curve_matches_naive_prefix_sweep() {
    let world = World::generate(WorldConfig { days: 4, scale: 0.02, seed: 101 });
    let fleet = Fleet::alternating(12);
    let engine = HarvestEngine::build(&world, &fleet, 0..4);
    for day in 0..4 {
        let curve = engine.coverage_curve(day);
        for k in 1..=12 {
            assert_eq!(
                curve[k - 1],
                fleet.harvest_union_prefix(&world, day, k).peer_count(),
                "day {day} k {k}"
            );
        }
    }
}

#[test]
fn censor_blacklist_engine_path_matches_record_path() {
    // The engine blacklist skips record materialization and reads
    // addresses straight off the peer; it must equal the oracle's
    // record-driven set.
    let world = World::generate(WorldConfig { days: 20, scale: 0.02, seed: 7 });
    let fleet = Fleet::alternating(10);
    let engine = HarvestEngine::build(&world, &fleet, 0..20);
    for (n, window, eval) in [(3usize, 5u64, 15u64), (10, 1, 8), (10, 10, 19)] {
        let from = eval.saturating_sub(window - 1);
        let mut oracle: BTreeSet<i2p_data::PeerIp> = BTreeSet::new();
        for day in from..=eval {
            for rec in fleet.harvest_union_prefix(&world, day, n).records.values() {
                oracle.extend(rec.ips());
            }
        }
        let engine_bl: BTreeSet<i2p_data::PeerIp> =
            censor_blacklist_from_engine(&engine, n, window, eval).into_iter().collect();
        assert_eq!(engine_bl, oracle, "n {n} window {window} eval {eval}");
    }
}

#[test]
fn sharded_fill_matches_oracle_at_every_worker_count() {
    // The work-stealing id-shard fill must agree with the
    // naive path per lane and per bit — at any worker count, under both
    // visibility models, including days past the DayIndex horizon
    // (owned-scan cut path).
    for (seed, scale, fleet) in combos() {
        let world = World::generate(WorldConfig { days: 6, scale, seed });
        for model in
            [VisibilityModel::Uniform, VisibilityModel::Keyspace(KeyspaceConfig::paper())]
        {
            let naive: Vec<_> = (0..8).map(|day| naive_day(&world, &fleet, day, &model)).collect();
            for threads in [1usize, 2, 5, 13] {
                let sharded = HarvestEngine::build_on(
                    &world,
                    &fleet,
                    0..8,
                    &model,
                    &FaultPlane::zero(),
                    threads,
                );
                for (day, lanes) in (0..8).zip(&naive) {
                    let mut union: BTreeSet<u32> = BTreeSet::new();
                    let mut curve = Vec::new();
                    for (v, want) in lanes.iter().enumerate() {
                        assert_eq!(
                            &sharded.vantage_ids(v, day),
                            want,
                            "seed {seed} threads {threads} day {day} vantage {v}"
                        );
                        union.extend(want.iter().copied());
                        curve.push(union.len());
                    }
                    assert_eq!(sharded.coverage_curve(day), curve);
                }
            }
        }
    }
}

/// A fleet no constructor builds. Modes and bandwidths interleave, so
/// its six (mode, bandwidth) classes are not contiguous; vantage 1
/// shares vantage 0's salt in the other mode and vantage 66 copies
/// vantage 0 outright; and its 67 vantages take a persistence mask of
/// two words per peer.
fn mixed_fleet() -> Fleet {
    let kbps = [128, 2048, 8192];
    let mut vantages: Vec<Vantage> = (0..66u64)
        .map(|i| Vantage {
            mode: if i % 2 == 0 { VantageMode::Floodfill } else { VantageMode::NonFloodfill },
            shared_kbps: kbps[(i / 2 % 3) as usize],
            salt: if i == 1 { 0x3000 } else { 0x3000 + i },
        })
        .collect();
    vantages.push(vantages[0]);
    Fleet { vantages }
}

#[test]
fn mixed_class_fleet_fill_matches_oracle() {
    // Every other fill suite runs `paper_main` or `alternating`: at most
    // two classes, contiguous or strictly alternating, and at most 20
    // vantages. This fleet breaks each of those, on a world of several
    // id shards, with and without vantage outages, days past the
    // `DayIndex` horizon included.
    let world = World::generate(WorldConfig { days: 3, scale: 0.05, seed: 23 });
    assert!(world.index.shard_count() > 2, "the world spans several id shards");
    let fleet = mixed_fleet();
    let outage = FaultPlane::new(FaultSpec::parse("outage=0.3").expect("outage spec"), 23);
    for model in [VisibilityModel::Uniform, VisibilityModel::Keyspace(KeyspaceConfig::paper())] {
        let naive: Vec<_> = (0..5).map(|day| naive_day(&world, &fleet, day, &model)).collect();
        for plane in [FaultPlane::zero(), outage] {
            for threads in [1usize, 2, 3, 7] {
                let engine = HarvestEngine::build_on(&world, &fleet, 0..5, &model, &plane, threads);
                for (day, lanes) in (0..5).zip(&naive) {
                    for (v, want) in lanes.iter().enumerate() {
                        let dark = plane.vantage_outage(fleet.vantages[v].salt, day);
                        let want: &[u32] = if dark { &[] } else { want };
                        assert_eq!(
                            engine.vantage_ids(v, day),
                            want,
                            "{model:?} outage {dark} threads {threads} day {day} vantage {v}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn engine_is_deterministic_across_builds() {
    // Two fills (each parallel across id shards) must agree word-for-word —
    // the determinism-under-threads contract.
    let world = World::generate(WorldConfig { days: 10, scale: 0.02, seed: 42 });
    let fleet = Fleet::paper_main();
    let a = HarvestEngine::build(&world, &fleet, 0..10);
    let b = HarvestEngine::build(&world, &fleet, 0..10);
    for day in 0..10 {
        assert_eq!(a.union_prefix_ids(day, 20), b.union_prefix_ids(day, 20));
        assert_eq!(a.coverage_curve(day), b.coverage_curve(day));
    }
}
