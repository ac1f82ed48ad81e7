//! Figure 4: cumulative peers observed when operating 1–40 monitoring
//! routers (§4.3).
//!
//! Paper anchors: logarithmic growth; 20 routers already reach 95.5 % of
//! the 40-router total (~32 K); beyond 35 routers each extra router adds
//! only 10–30 peers.

use i2p_measure::engine::HarvestEngine;
use i2p_measure::fleet::Fleet;
use i2p_measure::population::cumulative_by_router_count_from;
use i2p_measure::report::render_fig4;

fn main() {
    let mut report = i2p_bench::report("fig04_router_count");
    let world = i2p_bench::world(6);
    report.emit("Figure 4", || {
        let engine = HarvestEngine::build(&world, &Fleet::alternating(40), 0..5);
        let curve = cumulative_by_router_count_from(&engine, 0..5);
        let text = render_fig4(&curve);
        let at20 = curve[19].1 as f64;
        let at40 = curve[39].1 as f64;
        format!(
            "{text}20-router share of 40-router total: {:.1}% (paper: 95.5%)\n\
             marginal peers per router beyond 35: {:.0} (paper: 10-30)",
            100.0 * at20 / at40,
            (at40 - curve[34].1 as f64) / 5.0
        )
    });
    report.write();
}
