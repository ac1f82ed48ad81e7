//! Figure 12: number of autonomous systems in which multi-IP peers
//! reside (§5.3.2).
//!
//! Paper anchors: >80 % of peers associate with a single AS; 8.4 % span
//! more than ten; extremes reach 39 ASes and 25 countries (VPN/Tor
//! roamers).

use i2p_measure::engine::HarvestEngine;
use i2p_measure::fleet::Fleet;
use i2p_measure::ipchurn::{ip_table_from, IpChurnReport};
use i2p_measure::report::render_fig12;

fn main() {
    let mut report = i2p_bench::report("fig12_as_spread");
    let days = i2p_bench::days();
    let world = i2p_bench::world(days);
    let fleet = Fleet::paper_main();
    report.emit("Figure 12", || {
        let engine = HarvestEngine::build(&world, &fleet, 0..days);
        let rep = IpChurnReport::from_table(&ip_table_from(&engine, 0..days));
        render_fig12(&rep)
    });
    report.write();
}
