//! Censorship study: how cheaply can a censor block I2P? Reproduces the
//! paper's §6.2 analysis — the blocking-rate matrix over censor fleet
//! sizes and blacklist windows — and then demonstrates the two
//! counter-measures §6.1/§7.1 discuss: manual reseed files and
//! fresh/firewalled peers as bridges.
//!
//! ```sh
//! cargo run --release --example censorship_blocking
//! ```

use i2pscope::measure::censor::{blocking_matrix, censor_blacklist_from_engine, victim_view};
use i2pscope::measure::engine::HarvestEngine;
use i2pscope::measure::fleet::Fleet;
use i2pscope::measure::report::render_fig13;
use i2pscope::sim::peer::Reach;
use i2pscope::sim::world::{World, WorldConfig};

fn main() {
    let world = World::generate(WorldConfig { days: 40, scale: 0.1, seed: 618 });
    let fleet = Fleet::alternating(20);
    let eval_day = 35u64;

    // Fig. 13.
    let series = blocking_matrix(&world, &fleet, eval_day, &[1, 2, 4, 6, 8, 10, 14, 20], &[1, 5, 10, 20, 30]);
    println!("{}", render_fig13(&series));

    // The escape hatch the paper highlights (§7.1): which of the
    // victim's peers survive the best censor?
    let victim = victim_view(&world, eval_day);
    let engine = HarvestEngine::build(&world, &fleet, eval_day - 29..eval_day + 1);
    let blacklist = censor_blacklist_from_engine(&engine, 20, 30, eval_day);
    let unblocked: Vec<_> = victim
        .known_ips
        .iter()
        .filter(|ip| !blacklist.contains(ip))
        .collect();
    println!(
        "with 20 censor routers and a 30-day blacklist, {} of the victim's {} known peer IPs remain reachable ({:.1}%)",
        unblocked.len(),
        victim.known_ips.len(),
        100.0 * unblocked.len() as f64 / victim.known_ips.len().max(1) as f64
    );

    // Who are the unblockable peers? Count firewalled peers (no public
    // IP to blacklist) and fresh arrivals (§7.1's bridge candidates).
    let fresh = world
        .online_peers(eval_day)
        .filter(|p| p.join_day >= eval_day as i64 - 1)
        .count();
    let firewalled = world
        .online_peers(eval_day)
        .filter(|p| matches!(p.reach_on(eval_day as i64), Reach::Firewalled))
        .count();
    println!(
        "bridge candidates on day {eval_day}: {fresh} newly-joined peers (not yet observed) and {firewalled} firewalled peers (no address to block)",
    );
    println!("(§7.1: combine newly joined peers with firewalled peers for sustainable circumvention)");
}
