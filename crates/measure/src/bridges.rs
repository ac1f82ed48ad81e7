//! Bridge distribution — the paper's proposed counter-censorship
//! mechanism (§7.1, and the stated future work in §8).
//!
//! "A potential solution is to use these [newly joined] peers as bridges
//! for restricted users. … utilizing newly joined peers in combination
//! with the firewalled peers … can be a potentially sustainable solution
//! for restricted users who need longer access to the network."
//!
//! This module implements and evaluates three bridge-selection
//! strategies against a censor that keeps monitoring and re-blocking:
//!
//! * [`BridgeStrategy::RandomKnown`] — hand out arbitrary known peers
//!   (the naive baseline; mostly already blocked).
//! * [`BridgeStrategy::NewlyJoined`] — hand out peers that joined within
//!   the last day (not yet observed by the censor, but they *will* be).
//! * [`BridgeStrategy::NewAndFirewalled`] — the paper's combination:
//!   fresh peers for immediate access plus firewalled peers (which have
//!   no blockable address at all) for longevity.

use crate::censor::censor_blacklist_from_engine;
use crate::engine::HarvestEngine;
use crate::fleet::Fleet;
use crate::lab;
use i2p_crypto::DetRng;
use i2p_data::{FxHashSet, PeerIp};
use i2p_geoip::GeoDb;
use i2p_sim::peer::{PeerRecord, Reach};
use i2p_sim::world::World;

/// A bridge-selection strategy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BridgeStrategy {
    /// Any known peer.
    RandomKnown,
    /// Peers that joined within the last day (§7.1's fresh peers).
    NewlyJoined,
    /// Fresh peers + firewalled peers (§7.1's sustainable combination).
    NewAndFirewalled,
}

impl BridgeStrategy {
    /// All strategies, for sweeps.
    pub const ALL: [BridgeStrategy; 3] = [
        BridgeStrategy::RandomKnown,
        BridgeStrategy::NewlyJoined,
        BridgeStrategy::NewAndFirewalled,
    ];

    /// Human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            BridgeStrategy::RandomKnown => "random known peers",
            BridgeStrategy::NewlyJoined => "newly joined peers",
            BridgeStrategy::NewAndFirewalled => "new + firewalled",
        }
    }

    /// The peers a distributor following this strategy would consider
    /// handing out on `day` (shared with the adversary chains, which
    /// re-score the same candidate pool against a chain-built blacklist).
    pub(crate) fn candidates<'w>(&self, world: &'w World, day: u64) -> Vec<&'w PeerRecord> {
        let d = day as i64;
        match self {
            BridgeStrategy::RandomKnown => world.online_peers(day).collect(),
            BridgeStrategy::NewlyJoined => world
                .online_peers(day)
                .filter(|p| p.join_day >= d && p.publishes_ip(d))
                .collect(),
            BridgeStrategy::NewAndFirewalled => world
                .online_peers(day)
                .filter(|p| {
                    (p.join_day >= d && p.publishes_ip(d))
                        || p.reach_on(d) == Reach::Firewalled
                })
                .collect(),
        }
    }
}

/// Outcome of distributing bridges under one strategy.
#[derive(Clone, Debug)]
pub struct BridgeOutcome {
    /// The strategy evaluated.
    pub strategy: BridgeStrategy,
    /// Bridges handed out on day 0 of the evaluation.
    pub distributed: usize,
    /// Share of bridges usable on the day they were handed out
    /// (not already on the censor's blacklist).
    pub usable_day0_pct: f64,
    /// Share still usable after `horizon` more days of censor
    /// monitoring (the sustainability metric).
    pub usable_after_pct: f64,
    /// Horizon used (days).
    pub horizon: u64,
}

/// Whether `peer` can serve as a bridge on `day` against rules that
/// block the addresses `blocked` accepts: an online firewalled peer is
/// reached through introducers, a hidden one never, and a published one
/// only while its IPv4 address is not blocked.
pub(crate) fn usable(
    peer: &PeerRecord,
    day: u64,
    geo: &GeoDb,
    blocked: impl Fn(PeerIp) -> bool,
) -> bool {
    let d = day as i64;
    if !peer.online(d) {
        return false;
    }
    match peer.reach_on(d) {
        Reach::Firewalled => true,
        Reach::Hidden => false,
        _ => !blocked(peer.ipv4_on(d, geo)),
    }
}

/// One cell of a bridge-strategy sweep grid.
#[derive(Clone, Copy, Debug)]
pub struct BridgeScenario {
    /// The distribution strategy.
    pub strategy: BridgeStrategy,
    /// Days of continued censor monitoring after distribution.
    pub horizon: u64,
}

/// Runs a (strategy × horizon) grid against one shared engine fill.
/// Each cell hands out `n_bridges` on `start_day`, lets the censor keep
/// monitoring with `censor_routers` routers and an unbounded blacklist,
/// and measures how many bridges survive. A *firewalled* bridge counts
/// as usable as long as the peer is alive: it has no public address for
/// the censor to block (§7.1). A published bridge survives until its
/// current IP lands on the blacklist.
///
/// The censor's deployed blacklist lags observation by one day: the
/// rules active on day D were compiled from harvests through D − 1.
/// This lag is precisely why "newly joined [peers] are less likely
/// discovered and blocked immediately" (§7.1). Scenarios run across the
/// [`lab`] sweep threads; results are identical for every thread count.
#[allow(clippy::too_many_arguments)]
pub fn sweep_bridges(
    world: &World,
    fleet: &Fleet,
    scenarios: &[BridgeScenario],
    start_day: u64,
    n_bridges: usize,
    censor_routers: usize,
    seed: u64,
    threads: usize,
) -> Vec<BridgeOutcome> {
    let max_h = scenarios.iter().map(|s| s.horizon).max().unwrap_or(1);
    let from = start_day.saturating_sub(30);
    let engine = HarvestEngine::build(world, fleet, from..start_day + max_h);
    // The day-0 blacklist is scenario-independent and the horizon one
    // depends only on `horizon`, not on the strategy — derive each
    // distinct blacklist exactly once instead of per grid cell.
    let bl_day0 = censor_blacklist_from_engine(&engine, censor_routers, 30, start_day - 1);
    let mut horizons: Vec<u64> = scenarios.iter().map(|s| s.horizon).collect();
    horizons.sort_unstable();
    horizons.dedup();
    let bl_ends = lab::sweep(&engine, &horizons, threads, |engine, &h, _| {
        censor_blacklist_from_engine(engine, censor_routers, 30 + h, start_day + h - 1)
    });
    lab::sweep(&bl_day0, scenarios, threads, |bl_day0, s, _| {
        let h = horizons.partition_point(|&h| h < s.horizon);
        evaluate_strategy_with(
            world, s.strategy, start_day, s.horizon, n_bridges, seed, bl_day0, &bl_ends[h],
        )
    })
}

/// One sweep cell: hand out bridges on `start_day`, check usability
/// against the day-0 and horizon blacklists.
#[allow(clippy::too_many_arguments)]
fn evaluate_strategy_with(
    world: &World,
    strategy: BridgeStrategy,
    start_day: u64,
    horizon: u64,
    n_bridges: usize,
    seed: u64,
    bl_day0: &FxHashSet<PeerIp>,
    bl_end: &FxHashSet<PeerIp>,
) -> BridgeOutcome {
    let mut rng = DetRng::new(seed ^ 0xB121D6E); // i2plint: allow(rng-containment) -- keyed draw: seed xor lane fully determines the bridge stream
    let mut candidates = strategy.candidates(world, start_day);
    rng.shuffle(&mut candidates);
    candidates.truncate(n_bridges);
    let distributed = candidates.len();
    let survivors = |day: u64, bl: &FxHashSet<PeerIp>| {
        candidates.iter().filter(|p| usable(p, day, &world.geo, |ip| bl.contains(&ip))).count()
    };
    let day0 = survivors(start_day, bl_day0);
    let after = survivors(start_day + horizon, bl_end);
    BridgeOutcome {
        strategy,
        distributed,
        usable_day0_pct: 100.0 * day0 as f64 / distributed.max(1) as f64,
        usable_after_pct: 100.0 * after as f64 / distributed.max(1) as f64,
        horizon,
    }
}

/// Renders the comparison table.
pub fn render_bridge_comparison(outcomes: &[BridgeOutcome]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "Bridge-distribution strategies under a persistent censor (§7.1)\n\
         ----------------------------------------------------------------\n\
         strategy               bridges   usable day 0   usable at horizon\n",
    );
    for o in outcomes {
        let _ = writeln!(
            out,
            "{:<22} {:>7}   {:>10.1}%   {:>14.1}%  (+{} d)",
            o.strategy.label(),
            o.distributed,
            o.usable_day0_pct,
            o.usable_after_pct,
            o.horizon
        );
    }
    out
}

/// CSV twin of [`render_bridge_comparison`].
pub fn csv_bridge_comparison(outcomes: &[BridgeOutcome]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("strategy,bridges,usable_day0_pct,usable_after_pct,horizon_days\n");
    for o in outcomes {
        let _ = writeln!(
            out,
            "{},{},{},{},{}",
            o.strategy.label(),
            o.distributed,
            o.usable_day0_pct,
            o.usable_after_pct,
            o.horizon
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::censor::fresh_blacklist;
    use i2p_sim::world::WorldConfig;

    fn setup() -> (World, Fleet) {
        (
            World::generate(WorldConfig { days: 50, scale: 0.04, seed: 71 }),
            Fleet::alternating(20),
        )
    }

    /// Every strategy at one horizon.
    fn all_at(horizon: u64) -> Vec<BridgeScenario> {
        BridgeStrategy::ALL.iter().map(|&strategy| BridgeScenario { strategy, horizon }).collect()
    }

    /// The per-cell reference: both blacklists from fills of only the
    /// censor's routers over only their own windows.
    fn per_cell(
        w: &World,
        fleet: &Fleet,
        s: &BridgeScenario,
        start_day: u64,
        n_bridges: usize,
        censor_routers: usize,
        seed: u64,
    ) -> BridgeOutcome {
        let bl_day0 = fresh_blacklist(w, fleet, censor_routers, 30, start_day - 1);
        let end = start_day + s.horizon;
        let bl_end = fresh_blacklist(w, fleet, censor_routers, 30 + s.horizon, end - 1);
        evaluate_strategy_with(
            w, s.strategy, start_day, s.horizon, n_bridges, seed, &bl_day0, &bl_end,
        )
    }

    #[test]
    fn fresh_peers_beat_random_on_day0() {
        let (w, fleet) = setup();
        let outcomes = sweep_bridges(&w, &fleet, &all_at(10), 35, 60, 10, 1, 1);
        let random = &outcomes[0];
        let fresh = &outcomes[1];
        assert!(
            fresh.usable_day0_pct > random.usable_day0_pct + 10.0,
            "fresh {:.1}% vs random {:.1}%",
            fresh.usable_day0_pct,
            random.usable_day0_pct
        );
    }

    #[test]
    fn combination_is_most_sustainable() {
        let (w, fleet) = setup();
        let outcomes = sweep_bridges(&w, &fleet, &all_at(10), 35, 60, 10, 2, 1);
        let fresh = &outcomes[1];
        let combo = &outcomes[2];
        assert!(
            combo.usable_after_pct >= fresh.usable_after_pct,
            "combo {:.1}% vs fresh-only {:.1}% at horizon",
            combo.usable_after_pct,
            fresh.usable_after_pct
        );
    }

    #[test]
    fn fresh_bridges_decay_over_time() {
        let (w, fleet) = setup();
        let cell = BridgeScenario { strategy: BridgeStrategy::NewlyJoined, horizon: 10 };
        let o = &sweep_bridges(&w, &fleet, &[cell], 35, 60, 10, 3, 1)[0];
        assert!(
            o.usable_after_pct < o.usable_day0_pct,
            "censor catches up with fresh bridges: {:.1}% -> {:.1}%",
            o.usable_day0_pct,
            o.usable_after_pct
        );
    }

    #[test]
    fn hidden_peers_never_distributed_as_usable() {
        let (w, fleet) = setup();
        // The usable() rule excludes hidden peers; RandomKnown includes
        // them as candidates, so its day-0 usability must be well below
        // 100 even before blacklisting.
        let cell = BridgeScenario { strategy: BridgeStrategy::RandomKnown, horizon: 5 };
        let o = &sweep_bridges(&w, &fleet, &[cell], 35, 200, 20, 4, 1)[0];
        assert!(o.usable_day0_pct < 70.0, "random strategy usability {:.1}%", o.usable_day0_pct);
    }

    #[test]
    fn sweep_matches_per_cell_oracle() {
        let (w, fleet) = setup();
        let scenarios: Vec<BridgeScenario> =
            [1u64, 5, 10].iter().flat_map(|&h| all_at(h)).collect();
        for threads in [1, 3] {
            let swept = sweep_bridges(&w, &fleet, &scenarios, 35, 60, 10, 2, threads);
            for (s, got) in scenarios.iter().zip(&swept) {
                let oracle = per_cell(&w, &fleet, s, 35, 60, 10, 2);
                assert_eq!(got.strategy, oracle.strategy);
                assert_eq!(got.distributed, oracle.distributed);
                assert_eq!(got.usable_day0_pct, oracle.usable_day0_pct);
                assert_eq!(got.usable_after_pct, oracle.usable_after_pct);
                assert_eq!(got.horizon, oracle.horizon);
            }
        }
    }

    #[test]
    fn renderer_contains_all_rows() {
        let (w, fleet) = setup();
        let outcomes = sweep_bridges(&w, &fleet, &all_at(5), 35, 30, 5, 5, 1);
        let text = render_bridge_comparison(&outcomes);
        for s in BridgeStrategy::ALL {
            assert!(text.contains(s.label()));
        }
    }
}
