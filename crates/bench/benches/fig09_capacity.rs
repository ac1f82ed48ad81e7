//! Figure 9: capacity distribution of I2P peers (§5.3.1).
//!
//! Paper anchors (daily averages): L ≈ 21 K, N ≈ 9 K, P ≈ 2.1 K,
//! X ≈ 1.8 K, O ≈ 875, M ≈ 400, K ≈ 360.

use i2p_measure::capacity::capacity_histogram_from;
use i2p_measure::engine::HarvestEngine;
use i2p_measure::fleet::Fleet;
use i2p_measure::report::render_fig9;

fn main() {
    let mut report = i2p_bench::report("fig09_capacity");
    let world = i2p_bench::world(12);
    let fleet = Fleet::paper_main();
    report.emit("Figure 9", || {
        let hist = capacity_histogram_from(&HarvestEngine::build(&world, &fleet, 2..10), 2..10);
        render_fig9(&hist)
    });
    report.write();
}
