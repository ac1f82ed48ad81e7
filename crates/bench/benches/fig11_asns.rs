//! Figure 11: top-20 autonomous systems where I2P peers reside (§5.3.2).
//!
//! Paper anchors: AS7922 (Comcast) leads with >8 K peers; the top 20
//! ASes hold >30 % of all peers.

use i2p_measure::engine::HarvestEngine;
use i2p_measure::fleet::Fleet;
use i2p_measure::geo::AsReport;
use i2p_measure::ipchurn::ip_table_from;
use i2p_measure::report::render_fig11;

fn main() {
    let mut report = i2p_bench::report("fig11_asns");
    let days = i2p_bench::days();
    let world = i2p_bench::world(days);
    let fleet = Fleet::paper_main();
    report.emit("Figure 11", || {
        let engine = HarvestEngine::build(&world, &fleet, 0..days);
        let rep = AsReport::from_table(&ip_table_from(&engine, 0..days));
        render_fig11(&rep, 20)
    });
    report.write();
}
