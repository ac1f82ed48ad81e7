//! Extension: the §7.1 bridge-distribution proposal, evaluated.
//!
//! The paper proposes (and leaves as future work in §8) using newly
//! joined peers — optionally combined with firewalled peers — as bridges
//! for censored users. This bench runs the comparison against a
//! persistent 10-router censor through the scenario lab: one
//! harvest-engine fill serves every (strategy × horizon) cell.

use i2p_measure::bridges::{bridge_table, sweep_bridges, BridgeScenario, BridgeStrategy};
use i2p_measure::fleet::Fleet;

fn main() {
    let mut report = i2p_bench::report("ext_bridges");
    let world = i2p_bench::world(55);
    let fleet = Fleet::alternating(20);
    report.emit("Extension: bridge distribution", || {
        let horizons = [1u64, 5, 10];
        let scenarios: Vec<BridgeScenario> = horizons
            .iter()
            .flat_map(|&horizon| {
                BridgeStrategy::ALL.iter().map(move |&strategy| BridgeScenario { strategy, horizon })
            })
            .collect();
        let outcomes = sweep_bridges(
            &world,
            &fleet,
            &scenarios,
            40,
            200,
            10,
            i2p_bench::seed(),
            i2p_bench::threads(),
        );
        let mut out = String::new();
        for chunk in outcomes.chunks(BridgeStrategy::ALL.len()) {
            out.push_str(&bridge_table(chunk).text());
            out.push('\n');
        }
        out
    });
    report.write();
}
