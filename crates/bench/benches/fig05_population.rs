//! Figure 5: number of unique peers and IP addresses per day over the
//! three-month study (§5.1).
//!
//! Paper anchors: ≈30.5 K daily peers, total unique IPs *below* the peer
//! count (because ~15 K peers publish no address), IPv6 well below IPv4.

use i2p_measure::engine::HarvestEngine;
use i2p_measure::fleet::Fleet;
use i2p_measure::population::daily_census_from;
use i2p_measure::report::render_fig5;

fn main() {
    let mut report = i2p_bench::report("fig05_population");
    let days = i2p_bench::days();
    let world = i2p_bench::world(days);
    let fleet = Fleet::paper_main();
    report.emit("Figure 5", || {
        // Sample every 4th day (the plot's visual density) to keep the
        // bench brisk; every day participates in the other analyses.
        let engine = HarvestEngine::build(&world, &fleet, 0..days);
        let series: Vec<_> =
            (0..days).step_by(4).map(|d| (d, daily_census_from(&engine, d))).collect();
        render_fig5(&series)
    });
    report.write();
}
