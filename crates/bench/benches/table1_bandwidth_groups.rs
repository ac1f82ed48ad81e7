//! Table 1: percentage of routers in each bandwidth class within the
//! floodfill / reachable / unreachable groups, plus the §5.3.1
//! qualified-floodfill population estimate.
//!
//! Paper anchors: the floodfill column is N-dominant (62 %) with L
//! second; column sums exceed 100 % (P/X → O compatibility); 71 % of
//! floodfills are qualified → 1 917 qualified floodfills → ÷ 6 % ≈ 32 K
//! population.

use i2p_measure::capacity::{bandwidth_table_from, floodfill_estimate_from};
use i2p_measure::engine::HarvestEngine;
use i2p_measure::fleet::Fleet;
use i2p_measure::report::table1;

fn main() {
    let mut report = i2p_bench::report("table1_bandwidth_groups");
    let world = i2p_bench::world(8);
    let fleet = Fleet::paper_main();
    report.emit("Table 1", || {
        let engine = HarvestEngine::build(&world, &fleet, 5..6);
        let t = bandwidth_table_from(&engine, 5);
        let est = floodfill_estimate_from(&engine, 5);
        let mut text = table1(&t, &est).text();
        text.push_str(&format!(
            "actual online population on day 5: {} (estimate error {:+.1}%)\n",
            world.online_count(5),
            100.0 * (est.estimated_population - world.online_count(5) as f64)
                / world.online_count(5) as f64
        ));
        text
    });
    report.write();
}
