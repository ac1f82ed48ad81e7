//! Extension: the §4/§7 eclipse/Sybil sweep.
//!
//! The paper's attack discussion hinges on the daily routing-key
//! rotation: controlling the floodfills closest to a target means
//! re-grinding identities every UTC midnight. This extension runs that
//! attack against the keyspace-routed harvest model: the adversary
//! grinds Sybil fleets of increasing size into the target's daily
//! neighbourhood, and the sweep reports placement eclipse, lookup
//! failure (walked on the real `i2p-netdb` kbucket/iterative-lookup
//! machinery), and the census damage the monitoring fleet suffers.
//!
//! The grinding budget scales with the honest floodfill population (one
//! winning candidate needs ~F attempts against F floodfills), so the
//! per-Sybil budget here is derived from the day-0 floodfill count
//! rather than hard-coded — at scale 0.1 the top of the grid reliably
//! eclipses the target.

use i2p_measure::fleet::Fleet;
use i2p_measure::report::sybil_sweep;
use i2p_measure::sybil::{run, SybilConfig};

fn main() {
    let mut report = i2p_bench::report("ext_sybil");
    let days = i2p_bench::days().min(8);
    let world = i2p_bench::world(days);
    let fleet = Fleet::alternating(8);
    let floodfills = world.online_floodfill_count(0).max(1);
    let cfg = SybilConfig {
        counts: vec![0, 1, 2, 4, 8, 16],
        grind_per_sybil: (floodfills as u64).max(16),
        threads: i2p_bench::threads(),
        ..SybilConfig::paper(0..days)
    };
    report.emit("Extension: eclipse/Sybil sweep", || {
        let sweep = run(&world, &fleet, &cfg);
        let mut out = sybil_sweep(&sweep).text();
        out.push_str(&format!(
            "(grinding budget {} candidates per Sybil per day, derived from {} day-0 floodfills)\n",
            cfg.grind_per_sybil, floodfills
        ));
        out
    });
    report.write();
}
