//! Figure 10: top-20 countries where I2P peers reside (§5.3.2).
//!
//! Paper anchors: the United States leads (≈28 K over three months);
//! US+RU+GB+FR+CA+AU exceed 40 %; the top 20 exceed 60 %; 30 countries
//! with poor press-freedom scores contribute ≈6 K peers, led by China.

use i2p_measure::engine::HarvestEngine;
use i2p_measure::fleet::Fleet;
use i2p_measure::geo::GeoReport;
use i2p_measure::ipchurn::ip_table_from;
use i2p_measure::report::render_fig10;

fn main() {
    let mut report = i2p_bench::report("fig10_countries");
    let days = i2p_bench::days();
    let world = i2p_bench::world(days);
    let fleet = Fleet::paper_main();
    report.emit("Figure 10", || {
        let engine = HarvestEngine::build(&world, &fleet, 0..days);
        let rep = GeoReport::from_table(&ip_table_from(&engine, 0..days), &world.geo);
        render_fig10(&rep, 20)
    });
    report.write();
}
