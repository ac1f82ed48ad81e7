//! Figure 2: peers observed by one high-end (8 MB/s) router over ten
//! days — five in floodfill mode, five in non-floodfill mode (§4.1).
//!
//! Paper anchor: both modes hover around 15–16 K of ≈32 K daily peers,
//! non-floodfill slightly higher.

use i2p_measure::population::single_router_experiment;
use i2p_measure::report::fig2;

fn main() {
    let mut report = i2p_bench::report("fig02_single_router");
    let world = i2p_bench::world(10);
    report.emit("Figure 2", || {
        let series = single_router_experiment(&world, 0xF1602);
        fig2(&series).text()
    });
    report.write();
}
