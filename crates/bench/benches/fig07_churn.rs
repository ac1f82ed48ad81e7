//! Figure 7: percentage of peers seen continuously / intermittently for
//! n days (§5.2.1).
//!
//! Paper anchors: >7 days — 56.36 % continuous, 73.93 % intermittent;
//! >30 days — 20.03 % continuous, 31.15 % intermittent.

use i2p_measure::churn::churn_curves_from;
use i2p_measure::engine::HarvestEngine;
use i2p_measure::fleet::Fleet;
use i2p_measure::report::render_fig7;

fn main() {
    let mut report = i2p_bench::report("fig07_churn");
    let days = i2p_bench::days();
    let world = i2p_bench::world(days);
    let fleet = Fleet::paper_main();
    report.emit("Figure 7", || {
        let engine = HarvestEngine::build(&world, &fleet, 0..days);
        let curves = churn_curves_from(&engine, 80.min(days as usize - 5));
        let mut text = render_fig7(&curves, &[7, 10, 20, 30, 40, 50, 60, 70, 80]);
        text.push_str(&format!(
            "paper anchors: cont>7d 56.36% (ours {:.2}%), int>7d 73.93% (ours {:.2}%), \
             cont>30d 20.03% (ours {:.2}%), int>30d 31.15% (ours {:.2}%)\n",
            curves.continuous_at(7),
            curves.intermittent_at(7),
            curves.continuous_at(30),
            curves.intermittent_at(30),
        ));
        text
    });
    report.write();
}
