//! Ablation: marginal value of longer blacklist windows (§6.2.2).
//!
//! The paper finds five days already "sufficient to achieve a high
//! blocking rate". This ablation sweeps windows 1..30 at a fixed fleet
//! size (10 routers) and reports the diminishing returns, plus the
//! price: the number of firewall rules the censor must hold.

use i2p_measure::censor::{blocking_rate, censor_blacklist_from_engine, victim_view};
use i2p_measure::engine::HarvestEngine;
use i2p_measure::fleet::Fleet;

fn main() {
    let mut report = i2p_bench::report("ablation_blacklist_window");
    let world = i2p_bench::world(40);
    let fleet = Fleet::alternating(20);
    report.emit("Ablation: blacklist window", || {
        let victim = victim_view(&world, 35);
        // One engine fill over the widest window serves all nine sweeps.
        let engine = HarvestEngine::build(&world, &fleet, 6..36);
        let mut out = String::from(
            "Ablation: blacklist window sweep (10 censor routers, eval day 35)\n\
             ------------------------------------------------------------------\n\
             window   blocking rate   firewall rules (IPs)\n",
        );
        let mut prev = 0.0;
        for w in [1u64, 2, 3, 5, 7, 10, 15, 20, 30] {
            let bl = censor_blacklist_from_engine(&engine, 10, w, 35);
            let rate = blocking_rate(&victim, &bl);
            out.push_str(&format!(
                "{w:>4} d   {rate:>10.1}%   {:>12}{}\n",
                bl.len(),
                if rate - prev < 0.5 && w > 1 { "   (marginal)" } else { "" }
            ));
            prev = rate;
        }
        out.push_str("\n(§6.2.2: five days suffice; longer windows mostly add stale rules)\n");
        out
    });
    report.write();
}
