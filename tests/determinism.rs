//! Determinism smoke test: `World::generate` must be a pure function of
//! its `WorldConfig`. Every figure in the reproduction depends on this —
//! a nondeterministic world would make paper-vs-measured comparisons
//! unrepeatable.

use i2pscope::measure::fleet::Fleet;
use i2pscope::measure::population::daily_census_from;
use i2pscope::measure::HarvestEngine;
use i2pscope::sim::world::{World, WorldConfig};

#[test]
fn world_generation_is_deterministic_across_runs() {
    let cfg = WorldConfig { days: 12, scale: 0.02, seed: 0xD5EED };
    let fleet = Fleet::paper_main();

    let censuses = |w: &World| -> Vec<(usize, usize, usize, usize, usize)> {
        let engine = HarvestEngine::build(w, &fleet, 0..12);
        (0..12)
            .map(|day| {
                let c = daily_census_from(&engine, day);
                (c.peers, c.ipv4, c.all_ips, c.firewalled, c.hidden)
            })
            .collect()
    };

    let a = World::generate(cfg);
    let b = World::generate(cfg);

    assert_eq!(a.total_peers(), b.total_peers());
    assert_eq!(
        censuses(&a),
        censuses(&b),
        "identical WorldConfig must reproduce identical daily censuses"
    );
}

#[test]
fn world_generation_depends_on_every_config_field() {
    let base = WorldConfig { days: 12, scale: 0.02, seed: 0xD5EED };
    let fleet = Fleet::paper_main();
    let probe = |cfg: WorldConfig| {
        let w = World::generate(cfg);
        let c = daily_census_from(&HarvestEngine::build(&w, &fleet, 3..4), 3);
        (c.peers, c.ipv4)
    };

    let reference = probe(base);
    assert_ne!(reference, probe(WorldConfig { seed: 0xD5EED + 1, ..base }));
    assert_ne!(reference, probe(WorldConfig { scale: 0.04, ..base }));

    // A longer study window admits more arrivals, so the total population
    // must grow with `days` (early-day censuses may legitimately agree).
    let longer = World::generate(WorldConfig { days: 24, ..base });
    assert!(longer.total_peers() > World::generate(base).total_peers());
}
