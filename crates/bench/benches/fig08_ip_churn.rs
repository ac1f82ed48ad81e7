//! Figure 8: how many IP addresses peers are associated with over three
//! months (§5.2.2).
//!
//! Paper anchors: 45 % of known-IP peers keep one address, 55 % have at
//! least two, and ≈460 peers (0.65 %) exceed one hundred.

use i2p_measure::engine::HarvestEngine;
use i2p_measure::fleet::Fleet;
use i2p_measure::ipchurn::{ip_table_from, IpChurnReport};
use i2p_measure::report::render_fig8;

fn main() {
    let mut report = i2p_bench::report("fig08_ip_churn");
    let days = i2p_bench::days();
    let world = i2p_bench::world(days);
    let fleet = Fleet::paper_main();
    report.emit("Figure 8", || {
        let engine = HarvestEngine::build(&world, &fleet, 0..days);
        let rep = IpChurnReport::from_table(&ip_table_from(&engine, 0..days));
        render_fig8(&rep)
    });
    report.write();
}
