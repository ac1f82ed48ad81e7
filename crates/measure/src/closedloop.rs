//! The Fig. 13 → Fig. 14 closed loop.
//!
//! Figures 13 and 14 of Hoang et al. are two halves of one attack: the
//! censor *harvests* peer addresses with monitoring routers (Fig. 13
//! quantifies the blacklist), then *enforces* the blacklist at the
//! victim's upstream (Fig. 14 measures what that does to page loads).
//! The seed evaluated them separately — Fig. 14's censor drew a
//! synthetic random blocking rate. This module closes the loop: the
//! windowed blacklist produced by the harvest engine drives the
//! protocol-level censor directly, so the achieved usability degradation
//! is an *output* of the monitoring effort (routers × window), not an
//! input.
//!
//! The world model and the `TestNet` live in different address spaces,
//! so each TestNet relay is identified with one of the evaluation day's
//! online world peers (a deterministic stride mapping). A relay is
//! blocked iff its world twin's published addresses appear on the
//! harvested blacklist — relays twinned with firewalled or hidden peers
//! are unblockable, exactly like their world-side counterparts (§7.1).

use crate::censor::{censor_blacklist_from_engine, published_ips, window_start};
use crate::engine::HarvestEngine;
use crate::fleet::Fleet;
use crate::lab;
use crate::usability::{run_with_blocklist, warm_substrate, UsabilityConfig, UsabilityPoint, WarmSubstrate};
use i2p_data::{FxHashSet, PeerIp};
use i2p_sim::world::World;
use i2p_transport::BlockList;
use std::fmt::Write as _;

/// One censor configuration to close the loop over.
#[derive(Clone, Copy, Debug)]
pub struct ClosedLoopScenario {
    /// Monitoring routers the censor harvests with.
    pub censor_routers: usize,
    /// Blacklist window in days (§6.2.2).
    pub window_days: u64,
}

/// Outcome of one closed-loop run.
#[derive(Clone, Debug)]
pub struct ClosedLoopOutcome {
    /// The censor configuration.
    pub scenario: ClosedLoopScenario,
    /// Harvested blacklist size (world-side IPs, the Fig. 13 quantity).
    pub blacklist_ips: usize,
    /// TestNet relays the blacklist actually blocks.
    pub blocked_relays: usize,
    /// Relays in the substrate.
    pub relays: usize,
    /// The measured usability point (its `blocking_rate_pct` is the
    /// *achieved* rate, an output of the harvest).
    pub point: UsabilityPoint,
}

/// Runs the closed loop for every scenario against one shared warmed
/// substrate and one shared engine fill (covering the longest window).
/// The windows are checked before the substrate is warmed.
pub fn closed_loop_sweep(
    world: &World,
    fleet: &Fleet,
    cfg: &UsabilityConfig,
    scenarios: &[ClosedLoopScenario],
    eval_day: u64,
) -> Vec<ClosedLoopOutcome> {
    let from =
        scenarios.iter().map(|s| window_start(eval_day, s.window_days)).min().unwrap_or(eval_day);
    let sub = warm_substrate(cfg);
    let engine = HarvestEngine::build(world, fleet, from..eval_day + 1);
    let shared = (sub, engine);
    lab::sweep(&shared, scenarios, cfg.threads, |(sub, engine), s, _| {
        let blacklist =
            censor_blacklist_from_engine(engine, s.censor_routers, s.window_days, eval_day);
        run_closed_loop_on(sub, world, cfg, &blacklist, *s, eval_day)
    })
}

/// One closed-loop run against an existing substrate and a harvested
/// world-side blacklist.
pub fn run_closed_loop_on(
    sub: &WarmSubstrate,
    world: &World,
    cfg: &UsabilityConfig,
    blacklist: &FxHashSet<PeerIp>,
    scenario: ClosedLoopScenario,
    eval_day: u64,
) -> ClosedLoopOutcome {
    let d = eval_day as i64;
    let online: Vec<&i2p_sim::peer::PeerRecord> = world.online_peers(eval_day).collect();
    assert!(!online.is_empty(), "closed loop: no online peers on day {eval_day}");
    let mut bl = BlockList::new(3650);
    let mut blocked = 0usize;
    for relay in 0..sub.relays {
        // Deterministic stride mapping relay → world twin.
        let twin = online[(relay * online.len()) / sub.relays.max(1) % online.len()];
        // A firewalled or hidden twin publishes nothing to blacklist.
        if published_ips(twin, d, &world.geo).any(|ip| blacklist.contains(&ip)) {
            bl.observe(sub.net.source_ip(relay), 0);
            blocked += 1;
        }
    }
    let rate_pct = 100.0 * blocked as f64 / sub.relays.max(1) as f64;
    let point = run_with_blocklist(sub, cfg, bl, rate_pct, 0);
    ClosedLoopOutcome {
        scenario,
        blacklist_ips: blacklist.len(),
        blocked_relays: blocked,
        relays: sub.relays,
        point,
    }
}

/// Renders the closed-loop table.
pub fn render_closed_loop(outcomes: &[ClosedLoopOutcome]) -> String {
    let mut out = String::from(
        "Closed loop: harvested blacklist (Fig. 13) driving the protocol censor (Fig. 14)\n\
         --------------------------------------------------------------------------------\n\
         routers   window   blacklist   blocked relays   achieved rate   timeouts   load time\n",
    );
    for o in outcomes {
        let _ = writeln!(
            out,
            "{:>7}   {:>4} d   {:>9}   {:>8}/{:<5}   {:>12.1}%   {:>7.0}%   {:>7.1} s",
            o.scenario.censor_routers,
            o.scenario.window_days,
            o.blacklist_ips,
            o.blocked_relays,
            o.relays,
            o.point.blocking_rate_pct,
            o.point.timeout_pct,
            o.point.avg_load_time_s
        );
    }
    out
}

/// CSV twin of [`render_closed_loop`].
pub fn csv_closed_loop(outcomes: &[ClosedLoopOutcome]) -> String {
    let mut out = String::from(
        "routers,window_days,blacklist_ips,blocked_relays,relays,achieved_pct,timeout_pct,load_s\n",
    );
    for o in outcomes {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{}",
            o.scenario.censor_routers,
            o.scenario.window_days,
            o.blacklist_ips,
            o.blocked_relays,
            o.relays,
            o.point.blocking_rate_pct,
            o.point.timeout_pct,
            o.point.avg_load_time_s
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use i2p_sim::world::WorldConfig;

    fn quick_cfg() -> UsabilityConfig {
        UsabilityConfig {
            relays: 32,
            floodfills: 6,
            fetches_per_rate: 2,
            blocking_rates: vec![0.0],
            ..Default::default()
        }
    }

    #[test]
    fn more_monitoring_blocks_more_relays() {
        let world = World::generate(WorldConfig { days: 40, scale: 0.04, seed: 91 });
        let fleet = Fleet::alternating(20);
        let cfg = quick_cfg();
        let outcomes = closed_loop_sweep(
            &world,
            &fleet,
            &cfg,
            &[
                ClosedLoopScenario { censor_routers: 1, window_days: 1 },
                ClosedLoopScenario { censor_routers: 20, window_days: 30 },
            ],
            35,
        );
        assert_eq!(outcomes.len(), 2);
        let (weak, strong) = (&outcomes[0], &outcomes[1]);
        assert!(
            strong.blocked_relays > weak.blocked_relays,
            "20 routers × 30 d ({}) must out-block 1 router × 1 d ({})",
            strong.blocked_relays,
            weak.blocked_relays
        );
        assert!(strong.blacklist_ips > weak.blacklist_ips);
        assert!(strong.point.blocking_rate_pct <= 100.0);
        let text = render_closed_loop(&outcomes);
        assert!(text.contains("achieved rate"));
        assert!(text.lines().count() >= 5);
    }

    #[test]
    #[should_panic(expected = "at least 1 day")]
    fn zero_day_window_is_rejected_before_the_warm_up() {
        // The warm-up would reject this config with its own message, so
        // the window panic proves no TestNet was built first.
        let cfg = UsabilityConfig { fetches_per_rate: 0, ..quick_cfg() };
        let world = World::generate(WorldConfig { days: 4, scale: 0.01, seed: 91 });
        let scenarios = [
            ClosedLoopScenario { censor_routers: 1, window_days: 1 },
            ClosedLoopScenario { censor_routers: 1, window_days: 0 },
        ];
        closed_loop_sweep(&world, &Fleet::alternating(2), &cfg, &scenarios, 3);
    }
}
