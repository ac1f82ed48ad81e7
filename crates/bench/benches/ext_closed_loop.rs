//! Extension: the Fig. 13 → Fig. 14 closed loop.
//!
//! Figures 13 and 14 are two halves of one censorship apparatus:
//! monitoring routers harvest peer addresses (Fig. 13), the firewall
//! enforces the harvested blacklist (Fig. 14). Here the loop is closed:
//! the windowed blacklist produced by the harvest engine for several
//! (routers × window) censor budgets drives the protocol-level censor
//! directly, so the achieved blocking rate — and the page-load damage —
//! is an *output* of the monitoring effort.

use i2p_measure::closedloop::{closed_loop_sweep, closed_loop_table, ClosedLoopScenario};
use i2p_measure::fleet::Fleet;
use i2p_measure::usability::UsabilityConfig;

fn main() {
    let mut report = i2p_bench::report("ext_closed_loop");
    let world = i2p_bench::world(40);
    let fleet = Fleet::alternating(20);
    let cfg = UsabilityConfig {
        relays: 48,
        floodfills: 10,
        fetches_per_rate: 6,
        blocking_rates: Vec::new(), // the harvest decides the rate
        threads: i2p_bench::threads(),
        seed: i2p_bench::seed(),
        ..Default::default()
    };
    let scenarios = [
        ClosedLoopScenario { censor_routers: 1, window_days: 1 },
        ClosedLoopScenario { censor_routers: 6, window_days: 1 },
        ClosedLoopScenario { censor_routers: 10, window_days: 5 },
        ClosedLoopScenario { censor_routers: 20, window_days: 30 },
    ];
    report.emit("Extension: Fig. 13 → Fig. 14 closed loop", || {
        let outcomes = closed_loop_sweep(&world, &fleet, &cfg, &scenarios, 35);
        closed_loop_table(&outcomes).text()
    });
    report.write();
}
