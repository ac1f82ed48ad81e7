//! Figure 6: peers with unknown IP addresses, split into firewalled and
//! hidden, plus the group that flips between the two (§5.1).
//!
//! Paper anchors: ≈15.4 K unknown-IP peers per day = ≈14 K firewalled +
//! ≈4 K hidden, with ≈2.6 K appearing in both groups over time.

use i2p_measure::engine::HarvestEngine;
use i2p_measure::fleet::Fleet;
use i2p_measure::population::{daily_census_from, firewalled_hidden_overlap_from};
use i2p_measure::report::render_fig6;

fn main() {
    let mut report = i2p_bench::report("fig06_unknown_ip");
    let days = i2p_bench::days().min(30);
    let world = i2p_bench::world(days);
    let fleet = Fleet::paper_main();
    report.emit("Figure 6", || {
        let engine = HarvestEngine::build(&world, &fleet, 0..days);
        let series: Vec<_> =
            (0..days).step_by(2).map(|d| (d, daily_census_from(&engine, d))).collect();
        let overlap = firewalled_hidden_overlap_from(&engine, 0..days);
        render_fig6(&series, overlap)
    });
    report.write();
}
