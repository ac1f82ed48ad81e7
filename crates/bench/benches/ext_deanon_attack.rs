//! Extension: quantifying the §7.2 escalation from blocking to
//! deanonymization.
//!
//! After blocking >95 % of the victim's peers and whitelisting its own
//! routers, the censor waits for the victim's tunnels to collapse onto
//! attacker-controlled hops. This bench sweeps the number of injected
//! routers at several blocking intensities through the scenario lab:
//! the victim's accumulated view and one harvest-engine fill are shared
//! by every grid cell instead of being re-derived per call.

use i2p_measure::attack::{attack_table, sweep_attacks, AttackScenario};
use i2p_measure::fleet::Fleet;

fn main() {
    let mut report = i2p_bench::report("ext_deanon_attack");
    let world = i2p_bench::world(40);
    let fleet = Fleet::alternating(20);
    report.emit("Extension: deanonymization setup", || {
        let configs = [(0usize, 1u64), (6, 1), (20, 5)];
        let malicious = [2usize, 5, 10, 20, 40];
        let scenarios: Vec<AttackScenario> = configs
            .iter()
            .flat_map(|&(censor_routers, window_days)| {
                malicious.iter().map(move |&n_malicious| AttackScenario {
                    censor_routers,
                    window_days,
                    n_malicious,
                })
            })
            .collect();
        let outcomes = sweep_attacks(
            &world,
            &fleet,
            35,
            &scenarios,
            5_000,
            i2p_bench::seed(),
            i2p_bench::threads(),
        );
        let mut out = String::new();
        for (i, &(censor_routers, window)) in configs.iter().enumerate() {
            out.push_str(&format!("censor: {censor_routers} routers, {window}-day window\n"));
            let cells = &outcomes[i * malicious.len()..(i + 1) * malicious.len()];
            out.push_str(&attack_table(cells).text());
            out.push('\n');
        }
        out
    });
    report.write();
}
