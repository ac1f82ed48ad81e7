//! From blocking to deanonymization — the §7.2 attack.
//!
//! "After blocking more than 95 % of active peers in the network, the
//! attacker can inject malicious routers. He then configures the local
//! network firewall in a fashion that forces the victim to use the
//! attacker's routers … the victim is bootstrapped into the attacker's
//! network." (Hoang et al. §7.2.)
//!
//! This module quantifies how far the blocking step takes the attacker:
//! given a blocking rate and a number of whitelisted malicious routers,
//! what fraction of the victim's tunnels end up built *entirely* from
//! attacker-controlled hops — the precondition for the deanonymization
//! attacks the paper cites.

use crate::censor::{
    censor_blacklist_from_engine, rate_pct, victim_view, window_start, VictimView,
};
use crate::engine::HarvestEngine;
use crate::fleet::Fleet;
use crate::lab;
use i2p_crypto::DetRng;
use i2p_data::FxHashSet;
use i2p_sim::world::World;
use i2p_tunnel::select::{select_hops, HopCandidate};

/// The victim's effective hop-candidate pool under the attack.
#[derive(Clone, Debug)]
pub struct AttackSetup {
    /// Honest peers that remain reachable (not blocked).
    pub honest_reachable: usize,
    /// Malicious routers injected and whitelisted by the censor.
    pub malicious: usize,
    /// The blocking rate achieved against honest peers (%).
    pub blocking_rate_pct: f64,
}

/// Result of simulating the victim's tunnel building under the attack.
#[derive(Clone, Debug)]
pub struct AttackOutcome {
    /// Setup parameters.
    pub setup: AttackSetup,
    /// Fraction of built tunnels whose hops are all malicious (%).
    pub fully_compromised_pct: f64,
    /// Fraction with at least one malicious hop (%).
    pub partially_compromised_pct: f64,
    /// Tunnels simulated.
    pub tunnels: usize,
}

/// One cell of the §7.2 sweep grid.
#[derive(Clone, Copy, Debug)]
pub struct AttackScenario {
    /// Monitoring routers the censor harvests with.
    pub censor_routers: usize,
    /// Blacklist window in days.
    pub window_days: u64,
    /// Malicious routers injected and whitelisted.
    pub n_malicious: usize,
}

/// Runs a whole §7.2 scenario grid against one shared substrate: the
/// victim's view is accumulated once and one engine fill (covering the
/// longest window) serves every blacklist. In each cell the censor
/// blocks everything its first `censor_routers` vantages saw over the
/// window and whitelists `n_malicious` of its own routers, and the
/// victim builds `n_tunnels` tunnels (`run_attack`). Scenarios run
/// across the [`lab`] sweep threads; results are identical for every
/// thread count.
pub fn sweep_attacks(
    world: &World,
    fleet: &Fleet,
    eval_day: u64,
    scenarios: &[AttackScenario],
    n_tunnels: usize,
    seed: u64,
    threads: usize,
) -> Vec<AttackOutcome> {
    let from =
        scenarios.iter().map(|s| window_start(eval_day, s.window_days)).min().unwrap_or(eval_day);
    let victim = victim_view(world, eval_day);
    let engine = HarvestEngine::build(world, fleet, from..eval_day + 1);
    // The blacklist depends on (censor_routers, window_days) only, not
    // on n_malicious — derive each distinct one exactly once.
    let mut keys: Vec<(usize, u64)> =
        scenarios.iter().map(|s| (s.censor_routers, s.window_days)).collect();
    keys.sort_unstable();
    keys.dedup();
    let blacklists = lab::sweep(&engine, &keys, threads, |engine, &(routers, window), _| {
        censor_blacklist_from_engine(engine, routers, window, eval_day)
    });
    lab::sweep(&victim, scenarios, threads, |victim, s, _| {
        let k = keys.partition_point(|&key| key < (s.censor_routers, s.window_days));
        run_attack(victim, &blacklists[k], s.n_malicious, n_tunnels, seed)
    })
}

/// Simulates the victim building `n_tunnels` two-hop tunnels from its
/// post-blocking candidate pool: the honest peers the blacklist leaves
/// plus the attacker's whitelisted routers, which advertise high
/// bandwidth and therefore high selection weight (they are
/// "high-profile" routers by §4.1's ranking logic). Shared by the sweep
/// and the adversary chains, which hand it an effective blacklist
/// assembled from whatever capabilities the chain deployed.
pub(crate) fn run_attack(
    victim: &VictimView,
    blacklist: &FxHashSet<i2p_data::PeerIp>,
    n_malicious: usize,
    n_tunnels: usize,
    seed: u64,
) -> AttackOutcome {
    let known = victim.known_ips.len();
    let blocked = victim.known_ips.iter().filter(|ip| blacklist.contains(ip)).count();
    let setup = AttackSetup {
        honest_reachable: known - blocked,
        malicious: n_malicious,
        blocking_rate_pct: rate_pct(blocked, known),
    };
    let mut rng = DetRng::new(seed ^ 0xA77AC4); // i2plint: allow(rng-containment) -- keyed draw: seed xor lane fully determines the attack stream

    // Honest survivors get the typical L/N-class selection weight; the
    // attacker's routers advertise X-class capacity.
    let mut candidates: Vec<(HopCandidate, bool)> = Vec::new();
    for (i, ip) in victim.known_ips.iter().enumerate() {
        if !blacklist.contains(ip) {
            candidates.push((
                HopCandidate {
                    hash: i2p_data::Hash256::digest(&(i as u64).to_be_bytes()),
                    weight: 100,
                },
                false,
            ));
        }
    }
    for m in 0..n_malicious {
        candidates.push((
            HopCandidate {
                hash: i2p_data::Hash256::digest(&(0xFFFF_0000 + m as u64).to_be_bytes()),
                weight: 4000, // X-class advertisement
            },
            true,
        ));
    }
    let malicious_set: FxHashSet<_> = candidates
        .iter()
        .filter(|(_, bad)| *bad)
        .map(|(c, _)| c.hash)
        .collect();
    let pool: Vec<HopCandidate> = candidates.iter().map(|(c, _)| *c).collect();

    let mut fully = 0usize;
    let mut partially = 0usize;
    let mut built = 0usize;
    for _ in 0..n_tunnels {
        if let Some(hops) = select_hops(&pool, 2, &mut rng) {
            built += 1;
            let bad = hops.iter().filter(|h| malicious_set.contains(h)).count();
            if bad == hops.len() {
                fully += 1;
            }
            if bad > 0 {
                partially += 1;
            }
        }
    }
    AttackOutcome {
        setup,
        fully_compromised_pct: 100.0 * fully as f64 / built.max(1) as f64,
        partially_compromised_pct: 100.0 * partially as f64 / built.max(1) as f64,
        tunnels: built,
    }
}

/// Renders an attack sweep over malicious-router counts.
pub fn render_attack_sweep(outcomes: &[AttackOutcome]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "From blocking to deanonymization (§7.2): victim tunnel compromise\n\
         ------------------------------------------------------------------\n\
         malicious   blocking   fully compromised   ≥1 malicious hop\n",
    );
    for o in outcomes {
        let _ = writeln!(
            out,
            "{:>9}   {:>7.1}%   {:>16.1}%   {:>15.1}%",
            o.setup.malicious,
            o.setup.blocking_rate_pct,
            o.fully_compromised_pct,
            o.partially_compromised_pct
        );
    }
    out
}

/// CSV twin of [`render_attack_sweep`].
pub fn csv_attack_sweep(outcomes: &[AttackOutcome]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("malicious,blocking_pct,fully_pct,partial_pct,tunnels\n");
    for o in outcomes {
        let _ = writeln!(
            out,
            "{},{},{},{},{}",
            o.setup.malicious,
            o.setup.blocking_rate_pct,
            o.fully_compromised_pct,
            o.partially_compromised_pct,
            o.tunnels
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::censor::fresh_blacklist;
    use i2p_sim::world::WorldConfig;

    fn setup() -> (World, Fleet) {
        (
            World::generate(WorldConfig { days: 40, scale: 0.04, seed: 81 }),
            Fleet::alternating(20),
        )
    }

    fn cell(censor_routers: usize, window_days: u64, n_malicious: usize) -> AttackScenario {
        AttackScenario { censor_routers, window_days, n_malicious }
    }

    /// The per-cell reference: a fresh victim view and a blacklist from a
    /// fill of only the cell's routers over only its window.
    fn per_cell(
        w: &World,
        fleet: &Fleet,
        eval_day: u64,
        s: &AttackScenario,
        n_tunnels: usize,
        seed: u64,
    ) -> AttackOutcome {
        let victim = victim_view(w, eval_day);
        let blacklist = fresh_blacklist(w, fleet, s.censor_routers, s.window_days, eval_day);
        run_attack(&victim, &blacklist, s.n_malicious, n_tunnels, seed)
    }

    #[test]
    fn more_malicious_routers_more_compromise() {
        let (w, fleet) = setup();
        let swept = sweep_attacks(&w, &fleet, 35, &[cell(6, 1, 2), cell(6, 1, 20)], 2000, 1, 1);
        let (low, high) = (&swept[0], &swept[1]);
        assert!(
            high.fully_compromised_pct > low.fully_compromised_pct,
            "low {:.1}% vs high {:.1}%",
            low.fully_compromised_pct,
            high.fully_compromised_pct
        );
        assert!(high.partially_compromised_pct >= high.fully_compromised_pct);
    }

    #[test]
    fn high_blocking_makes_compromise_cheap() {
        let (w, fleet) = setup();
        let o = &sweep_attacks(&w, &fleet, 35, &[cell(20, 5, 10)], 2000, 2, 1)[0];
        assert!(
            o.setup.blocking_rate_pct > 90.0,
            "precondition: blocking {:.1}%",
            o.setup.blocking_rate_pct
        );
        // With >90% blocked and 10 high-capacity malicious routers, a
        // majority of tunnels should contain a malicious hop.
        assert!(
            o.partially_compromised_pct > 50.0,
            "partial compromise {:.1}%",
            o.partially_compromised_pct
        );
        assert!(o.fully_compromised_pct > 10.0);
    }

    #[test]
    fn without_blocking_attack_is_weak() {
        let (w, fleet) = setup();
        // Censor with 0 routers blocks nothing.
        let swept = sweep_attacks(&w, &fleet, 35, &[cell(0, 1, 10), cell(20, 5, 10)], 2000, 3, 1);
        let (unblocked, blocked) = (&swept[0], &swept[1]);
        assert_eq!(unblocked.setup.blocking_rate_pct, 0.0);
        assert!(
            unblocked.fully_compromised_pct + 20.0 < blocked.fully_compromised_pct,
            "blocking is the attack's force multiplier: {:.1}% vs {:.1}%",
            unblocked.fully_compromised_pct,
            blocked.fully_compromised_pct
        );
    }

    #[test]
    fn sweep_matches_per_cell_oracle() {
        let (w, fleet) = setup();
        let scenarios = [cell(6, 1, 2), cell(20, 5, 10), cell(0, 1, 5)];
        for threads in [1, 4] {
            let swept = sweep_attacks(&w, &fleet, 35, &scenarios, 800, 9, threads);
            for (s, got) in scenarios.iter().zip(&swept) {
                let oracle = per_cell(&w, &fleet, 35, s, 800, 9);
                assert_eq!(got.setup.honest_reachable, oracle.setup.honest_reachable);
                assert_eq!(got.setup.blocking_rate_pct, oracle.setup.blocking_rate_pct);
                assert_eq!(got.fully_compromised_pct, oracle.fully_compromised_pct);
                assert_eq!(got.partially_compromised_pct, oracle.partially_compromised_pct);
                assert_eq!(got.tunnels, oracle.tunnels);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least 1 day")]
    fn sweep_rejects_zero_day_window() {
        let w = World::generate(WorldConfig { days: 4, scale: 0.01, seed: 81 });
        sweep_attacks(&w, &Fleet::alternating(2), 3, &[cell(1, 1, 1), cell(1, 0, 1)], 10, 1, 1);
    }

    #[test]
    fn renderer_has_rows() {
        let (w, fleet) = setup();
        let sweep = sweep_attacks(&w, &fleet, 35, &[cell(20, 5, 2), cell(20, 5, 10)], 500, 4, 1);
        let text = render_attack_sweep(&sweep);
        assert!(text.contains("deanonymization"));
        assert!(text.lines().count() >= 5);
    }
}
