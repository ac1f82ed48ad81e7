//! Probabilistic address-based blocking: Fig. 13 (§6.2).
//!
//! The censor operates `n` monitoring routers and blacklists every peer
//! IP they observe, optionally remembering entries for a multi-day
//! window (1/5/10/20/30 days, §6.2.2). The victim is "a long-term I2P
//! node who has been participating in the network and has many
//! RouterInfos in its netDb" (§6.2.2): its known-peer set accumulates
//! over several days of ordinary client operation. The blocking rate is
//! the share of the victim's known peer IPs that appear on the censor's
//! blacklist.

use crate::engine::HarvestEngine;
use crate::fleet::{self, Fleet};
use i2p_data::{FxHashMap, FxHashSet, PeerIp};
use i2p_geoip::GeoDb;
use i2p_sim::params;
use i2p_sim::peer::PeerRecord;
use i2p_sim::world::World;

/// The salt the Fig. 13 victim is derived from, so the censorship,
/// deanonymization, and adversary-chain paths all attack the *same*
/// long-term client.
const VICTIM_SALT: u64 = 0x51C;

/// The victim's accumulated netDb view.
#[derive(Clone, Debug)]
pub struct VictimView {
    /// Peer IPs present in the victim's RouterInfos (the blockable set).
    pub known_ips: FxHashSet<PeerIp>,
}

/// Whether the victim client sighted `peer` on `day` — ordinary client
/// capture strength, far below a monitoring router's. The daily draw
/// itself is [`fleet::daily_draw`], the same persistent/fresh mix the
/// monitoring vantages use; only the seed and strength derivations are
/// victim-specific.
fn victim_sees(peer: &PeerRecord, day: u64) -> bool {
    if !peer.online(day as i64) {
        return false;
    }
    let exposure = params::VICTIM_CAPTURE * (0.85 * peer.w + 0.15 * peer.u);
    let bound = fleet::draw_bound(1.0 - (-exposure).exp());
    let pair_seed = peer.seed ^ VICTIM_SALT.wrapping_mul(0xA076_1D64_78BD_642F);
    fleet::daily_draw(pair_seed, day, bound, fleet::persistent_hit(pair_seed ^ 0xF00D, bound))
}

/// Builds the victim's view as of `eval_day`: RouterInfos gathered over
/// the preceding [`params::VICTIM_ACCUMULATION_DAYS`] (they persist on
/// disk, §4.3). Each known peer contributes the address from the most
/// recent sighting.
pub fn victim_view(world: &World, eval_day: u64) -> VictimView {
    let from = eval_day.saturating_sub(params::VICTIM_ACCUMULATION_DAYS - 1);
    let mut last_seen: FxHashMap<u32, u64> = FxHashMap::default();
    for day in from..=eval_day {
        for peer in world.online_peers(day) {
            if victim_sees(peer, day) {
                last_seen.insert(peer.id, day);
            }
        }
    }
    let mut known_ips = FxHashSet::default();
    for (&peer_id, &day) in &last_seen {
        // netDb records age out (floodfills expire RouterInfos after an
        // hour, clients within a day or two, §4.3): entries whose peer
        // has not been re-seen recently have been dropped or replaced by
        // the time the censor strikes.
        if eval_day - day > 1 {
            continue;
        }
        let peer = &world.peers[peer_id as usize];
        // An active client keeps RouterInfos fresh: peers still online on
        // the evaluation day republish, so the stored address is current;
        // peers gone since the last sighting leave their final address.
        let d = if peer.online(eval_day as i64) { eval_day as i64 } else { day as i64 };
        // One insert at a time, in this order: `run_attack` keys each
        // honest candidate by its position in the set's iteration order.
        for ip in published_ips(peer, d, &world.geo) {
            known_ips.insert(ip);
        }
    }
    VictimView { known_ips }
}

/// The addresses a censor could block for `peer` on day `d`: its IPv4
/// address, then its IPv6 address if it has one, and nothing for a
/// firewalled or hidden peer, which publishes none.
pub(crate) fn published_ips(
    peer: &PeerRecord,
    d: i64,
    geo: &GeoDb,
) -> impl Iterator<Item = PeerIp> {
    let (v4, v6) = if peer.publishes_ip(d) {
        (Some(peer.ipv4_on(d, geo)), peer.ipv6_on(d, geo))
    } else {
        (None, None)
    };
    v4.into_iter().chain(v6)
}

/// First day of the blacklist window of `window_days` days ending on
/// `eval_day`, clamped at day 0. Every blacklist window goes through
/// it, so a 0-day window panics wherever it is given.
pub(crate) fn window_start(eval_day: u64, window_days: u64) -> u64 {
    assert!(
        window_days >= 1,
        "censor blacklist: window_days must be at least 1 day, got {window_days}"
    );
    eval_day.saturating_sub(window_days - 1)
}

/// The censor's blacklist: all peer IPs observed by the first
/// `n_routers` vantages of `engine` within the window of `window_days`
/// days ending at `eval_day`. The engine must cover that window; one
/// fill serves every blacklist of a sweep (attack, bridge and
/// closed-loop grids), so the sighting draws are paid for once.
pub fn censor_blacklist_from_engine(
    engine: &HarvestEngine<'_>,
    n_routers: usize,
    window_days: u64,
    eval_day: u64,
) -> FxHashSet<PeerIp> {
    let from = window_start(eval_day, window_days);
    let mut ips = FxHashSet::default();
    for day in from..=eval_day {
        union_published_ips(engine, day, n_routers, &mut ips);
    }
    ips
}

/// The per-cell blacklist reference the sweeps are tested against: a
/// fill of only the first `n_routers` vantages of `fleet` over only the
/// window, shared with nothing else.
#[cfg(test)]
pub(crate) fn fresh_blacklist(
    world: &World,
    fleet: &Fleet,
    n_routers: usize,
    window_days: u64,
    eval_day: u64,
) -> FxHashSet<PeerIp> {
    let prefix = Fleet { vantages: fleet.vantages[..n_routers.min(fleet.vantages.len())].to_vec() };
    let days = window_start(eval_day, window_days)..eval_day + 1;
    let engine = HarvestEngine::build(world, &prefix, days);
    censor_blacklist_from_engine(&engine, n_routers, window_days, eval_day)
}

/// Projects one harvested day onto the blockable address space: the
/// published addresses (IPv4 plus optional IPv6) of every peer the
/// first `k` vantages saw on `day`, accumulated into `into`. This is
/// the single harvest→blacklist projection shared by the windowed
/// blacklist above and the adversary chains' per-day views
/// (`adversary::DayView`).
pub fn union_published_ips(
    engine: &HarvestEngine<'_>,
    day: u64,
    k: usize,
    into: &mut FxHashSet<PeerIp>,
) {
    let geo = &engine.world().geo;
    let d = day as i64;
    // Membership plus the day's published addresses; no records.
    engine.for_each_union_peer(day, k, |peer| {
        for ip in published_ips(peer, d, geo) {
            into.insert(ip);
        }
    });
}

/// Blocking rate: share of the victim's known IPs on the blacklist
/// (§6.2.1).
pub fn blocking_rate(victim: &VictimView, blacklist: &FxHashSet<PeerIp>) -> f64 {
    let blocked = victim.known_ips.iter().filter(|ip| blacklist.contains(ip)).count();
    rate_pct(blocked, victim.known_ips.len())
}

/// The blocking-rate formula: `blocked` of the victim's `known`
/// addresses, in percent (0 for a victim that knows none). Every
/// blocking rate goes through it (the matrix, the attack set-up and the
/// adversary chains), so all give the same `f64` for the same counts.
pub(crate) fn rate_pct(blocked: usize, known: usize) -> f64 {
    if known == 0 {
        return 0.0;
    }
    100.0 * blocked as f64 / known as f64
}

/// One Fig. 13 series: blocking rate vs number of censor routers for a
/// fixed blacklist window.
#[derive(Clone, Debug)]
pub struct BlockingSeries {
    /// Blacklist window in days.
    pub window_days: u64,
    /// (routers, blocking rate %) points.
    pub points: Vec<(usize, f64)>,
}

/// Computes the full Fig. 13 matrix: one series per entry of `windows`
/// and one point per entry of `router_counts`, both in the order given.
/// Every cell equals `blocking_rate` of the victim against
/// `censor_blacklist_from_engine` for that (routers, window) pair, but
/// all cells come from one fill and one backward walk over it
/// (DESIGN.md §15).
///
/// # Panics
///
/// If a window is shorter than 1 day.
pub fn blocking_matrix(
    world: &World,
    fleet: &Fleet,
    eval_day: u64,
    router_counts: &[usize],
    windows: &[u64],
) -> Vec<BlockingSeries> {
    let _span = i2p_telemetry::span("measure.censor_matrix");
    let starts: Vec<u64> = windows.iter().map(|&w| window_start(eval_day, w)).collect();
    let victim = victim_view(world, eval_day);
    // One fill covering the longest window serves every matrix cell.
    let from = starts.iter().copied().min().unwrap_or(eval_day);
    let engine = HarvestEngine::build(world, fleet, from..eval_day + 1);
    let blocked = blocked_per_prefix(&engine, &victim, &starts);
    let nv = fleet.vantages.len();
    let known = victim.known_ips.len();
    windows
        .iter()
        .zip(&blocked)
        .map(|(&w, blocked)| BlockingSeries {
            window_days: w,
            points: router_counts
                .iter()
                .map(|&n| (n, rate_pct(blocked[n.min(nv)], known)))
                .collect(),
        })
        .collect()
}

/// [`blocking_matrix`] with a thread count that is ignored, since the
/// walk runs on one thread. Kept only because the repository benchmark
/// (`perfbench/`) calls this name.
pub fn blocking_matrix_swept(
    world: &World,
    fleet: &Fleet,
    eval_day: u64,
    router_counts: &[usize],
    windows: &[u64],
    _threads: usize,
) -> Vec<BlockingSeries> {
    blocking_matrix(world, fleet, eval_day, router_counts, windows)
}

/// The Fig. 13 walk over the engine's days, which must reach back to
/// every window start in `starts`. For each start (aligned with
/// `starts`), `blocked[k]` is the number of victim addresses on the
/// blacklist of the engine's first `k` vantages over the window from
/// that start to the engine's last day, for `k` in `0..=vantages`.
///
/// Walking from the last day backwards, each victim address keeps the
/// lowest first-sighting vantage index seen so far: the address is on
/// the `k`-router blacklist of the days walked iff that index is below
/// `k`. On reaching a window's first day, a histogram of the indices
/// gives every router count at once through its prefix sums.
fn blocked_per_prefix(
    engine: &HarvestEngine<'_>,
    victim: &VictimView,
    starts: &[u64],
) -> Vec<Vec<usize>> {
    let geo = &engine.world().geo;
    let nv = engine.vantages().len();
    let slot: FxHashMap<PeerIp, usize> =
        victim.known_ips.iter().enumerate().map(|(i, &ip)| (ip, i)).collect();
    // `nv` marks an address no vantage has seen yet.
    let mut first = vec![nv; slot.len()];
    let mut blocked = vec![Vec::new(); starts.len()];
    for day in engine.days().rev() {
        let d = day as i64;
        engine.for_each_first_sighting(day, |peer, v| {
            for ip in published_ips(peer, d, geo) {
                if let Some(&i) = slot.get(&ip) {
                    first[i] = first[i].min(v);
                }
            }
        });
        if !starts.contains(&day) {
            continue;
        }
        // The histogram shifted by one, summed in place.
        let mut prefix = vec![0usize; nv + 1];
        for &v in first.iter().filter(|&&v| v < nv) {
            prefix[v + 1] += 1;
        }
        for k in 1..=nv {
            prefix[k] += prefix[k - 1];
        }
        for (b, _) in blocked.iter_mut().zip(starts).filter(|&(_, &s)| s == day) {
            b.clone_from(&prefix);
        }
    }
    blocked
}

#[cfg(test)]
mod tests {
    use super::*;
    use i2p_sim::world::WorldConfig;

    fn setup() -> (World, Fleet) {
        (
            World::generate(WorldConfig { days: 40, scale: 0.04, seed: 61 }),
            Fleet::alternating(20),
        )
    }

    #[test]
    fn victim_knows_a_substantial_set() {
        let (w, _) = setup();
        let v = victim_view(&w, 35);
        assert!(v.known_ips.len() > 100, "victim knows {} IPs", v.known_ips.len());
    }

    #[test]
    fn blocking_rate_monotone_in_routers_and_window() {
        let (w, fleet) = setup();
        let series = blocking_matrix(&w, &fleet, 35, &[1, 5, 10, 20], &[1, 5, 30]);
        // More routers never hurt.
        for s in &series {
            for win in s.points.windows(2) {
                assert!(win[1].1 >= win[0].1 - 1e-9, "window {}: {:?}", s.window_days, s.points);
            }
        }
        // Longer windows never hurt (same router count).
        for i in 0..series[0].points.len() {
            assert!(series[2].points[i].1 >= series[0].points[i].1 - 1e-9);
        }
    }

    #[test]
    fn paper_anchor_shape_high_blocking_with_few_routers() {
        let (w, fleet) = setup();
        let series = blocking_matrix(&w, &fleet, 35, &[2, 6, 10, 20], &[1, 5]);
        let one_day = &series[0].points;
        // §6.2.2: ~90 % with six routers, >95 % with twenty (1-day).
        let at6 = one_day[1].1;
        let at20 = one_day[3].1;
        assert!(at6 > 75.0, "6 routers: {at6}%");
        assert!(at20 > 90.0, "20 routers: {at20}%");
        // 5-day window with 10 routers ≈ 95 %.
        let five_day_at10 = series[1].points[2].1;
        assert!(five_day_at10 > at6, "windows help");
        assert!(five_day_at10 > 85.0, "10 routers, 5-day window: {five_day_at10}%");
    }

    #[test]
    fn walk_matches_per_cell_definition() {
        let (w, fleet) = setup();
        let eval = 35;
        // Unsorted and duplicate entries, no routers, more routers than
        // the fleet has, and a window reaching back past day 0.
        let routers = [3, 0, 1, 20, 7, 25, 1];
        let windows = [5, 1, 40, 5, 30, 2];
        let series = blocking_matrix(&w, &fleet, eval, &routers, &windows);
        let victim = victim_view(&w, eval);
        let engine = HarvestEngine::build(&w, &fleet, 0..eval + 1);
        assert_eq!(series.len(), windows.len());
        for (s, &win) in series.iter().zip(&windows) {
            assert_eq!(s.window_days, win);
            let ns: Vec<usize> = s.points.iter().map(|&(n, _)| n).collect();
            assert_eq!(ns, routers);
            for &(n, rate) in &s.points {
                let bl = censor_blacklist_from_engine(&engine, n, win, eval);
                let want = blocking_rate(&victim, &bl);
                assert_eq!(rate.to_bits(), want.to_bits(), "{n} routers, {win}-day window");
            }
        }
        assert_eq!(series[0].points[1].1, 0.0, "no routers block nothing");
        assert!(series[2].points[3].1 > 90.0, "the whole fleet over the whole history");
    }

    fn tiny_world() -> World {
        World::generate(WorldConfig { days: 4, scale: 0.01, seed: 61 })
    }

    #[test]
    #[should_panic(expected = "at least 1 day")]
    fn matrix_rejects_zero_day_window() {
        blocking_matrix(&tiny_world(), &Fleet::alternating(2), 3, &[1, 2], &[1, 0]);
    }

    #[test]
    #[should_panic(expected = "at least 1 day")]
    fn engine_blacklist_rejects_zero_day_window() {
        let w = tiny_world();
        let engine = HarvestEngine::build(&w, &Fleet::alternating(2), 0..4);
        censor_blacklist_from_engine(&engine, 2, 0, 3);
    }

    #[test]
    fn blocking_rate_arithmetic() {
        let mut victim = VictimView { known_ips: FxHashSet::default() };
        let mut bl = FxHashSet::default();
        for i in 0..10u32 {
            victim.known_ips.insert(PeerIp::V4(i));
            if i < 7 {
                bl.insert(PeerIp::V4(i));
            }
        }
        assert!((blocking_rate(&victim, &bl) - 70.0).abs() < 1e-9);
        assert_eq!(blocking_rate(&VictimView { known_ips: FxHashSet::default() }, &bl), 0.0);
    }
}
