//! The monitoring fleet.
//!
//! Implements the paper's methodology (§4): operate vantage routers in
//! floodfill and/or non-floodfill mode at chosen shared bandwidths,
//! snapshot their netDb hourly, and clean it every 24 h so inactive
//! peers never carry over ("every 24 hours we clean up the netDb
//! directory", §4.3).
//!
//! A vantage sees a peer on a given day through the four discovery
//! mechanisms of §4.2, folded into the calibrated exposure model
//! (DESIGN.md §3, constants in `i2p_sim::params`): the sighting
//! probability is `1 − exp(−E)` with a netDb-store term for floodfills
//! and a tunnel-participation term scaled by shared bandwidth. Draws are
//! deterministic per (vantage, peer, day).

use crate::observed::ObservedRouterInfo;
use i2p_crypto::DetRng;
use i2p_data::{FxHashMap, Hash256};
use i2p_sim::params;
use i2p_sim::peer::PeerRecord;
use i2p_sim::world::World;

/// Vantage operating mode (§4.2's two groups).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VantageMode {
    /// Floodfill: dominated by netDb stores/flooding.
    Floodfill,
    /// Non-floodfill: dominated by tunnel participation.
    NonFloodfill,
}

/// One monitoring router.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Vantage {
    /// Operating mode.
    pub mode: VantageMode,
    /// Shared bandwidth in KB/s (the paper sweeps 128 KB/s – 8 MB/s).
    pub shared_kbps: u32,
    /// Distinct salt so vantages make independent observations.
    pub salt: u64,
}

impl Vantage {
    /// The paper's high-profile monitoring spec: 8 MB/s (§4.1).
    pub fn monitoring(mode: VantageMode, salt: u64) -> Self {
        Vantage { mode, shared_kbps: 8_192, salt }
    }

    /// Daily sighting probability for `peer`. Of the vantage it reads
    /// only `mode` and `shared_kbps`, the vantage's class, so vantages
    /// that differ only in salt share it (the engine computes it once
    /// per class and peer).
    pub fn sight_probability(&self, peer: &PeerRecord) -> f64 {
        let exposure = match self.mode {
            VantageMode::NonFloodfill => params::a_nonff(self.shared_kbps) * peer.w,
            VantageMode::Floodfill => {
                params::F_STORE * peer.u + params::a_ff_tunnel(self.shared_kbps) * peer.w
            }
        };
        1.0 - (-exposure).exp()
    }

    /// Whether this vantage sees `peer` on `day` (deterministic).
    ///
    /// Day-to-day sightings of the same (vantage, peer) pair are
    /// *correlated*: a relay whose tunnels happen to route through the
    /// vantage today mostly still does tomorrow. The draw mixes a
    /// persistent per-pair component with a fresh daily one
    /// ([`params::FRESH_DRAW_PROB`]); this is what keeps multi-day
    /// blacklist windows from trivially uniting to 100 % (Fig. 13).
    fn sees(&self, peer: &PeerRecord, day: u64) -> bool {
        if !peer.online(day as i64) {
            return false;
        }
        let pair_seed = peer.seed ^ self.seed_key();
        let bound = draw_bound(self.sight_probability(peer));
        daily_draw(pair_seed, day, bound, persistent_hit(pair_seed, bound))
    }

    /// The per-vantage key of every pair seed: the (vantage, peer)
    /// draws key off `peer.seed ^ seed_key()`.
    pub(crate) fn seed_key(&self) -> u64 {
        self.salt.wrapping_mul(0xD6E8_FEB8_6659_FD93)
    }

    /// The vantage router's cryptographic identity hash — its anchor in
    /// the netDb keyspace. A floodfill vantage participates in the DHT
    /// at this identity's *daily routing key* position (the rotation
    /// itself lives in `i2p_netdb::RoutingKey::for_day`), which is what
    /// the keyspace-routed visibility model gates sightings on. Derived
    /// deterministically from the full vantage spec so equal vantages
    /// sit at equal positions and distinct salts scatter uniformly.
    pub fn identity_hash(&self) -> Hash256 {
        let mut material = [0u8; 14];
        material[..8].copy_from_slice(&self.salt.to_be_bytes());
        material[8..12].copy_from_slice(&self.shared_kbps.to_be_bytes());
        material[12] = b'v'; // i2plint: allow(index-literal) -- material is a fixed [u8; 14]
        material[13] = match self.mode { // i2plint: allow(index-literal) -- material is a fixed [u8; 14]
            VantageMode::Floodfill => b'f',
            VantageMode::NonFloodfill => b'n',
        };
        Hash256::digest(&material)
    }
}

/// `2⁵³`, the range of the 53-bit uniforms the draws compare.
const UNIT_53: f64 = (1u64 << 53) as f64;

/// The integer form of a draw probability: for every 53-bit `x`,
/// `x < draw_bound(p)` exactly when `x as f64 · 2⁻⁵³ < p`, the
/// comparison `DetRng::next_f64() < p` makes. Both sides are exact:
/// `x · 2⁻⁵³` and `p · 2⁵³` only scale by a power of two, and an
/// integer is below a real exactly when it is below its ceiling. A
/// `p` of at most 0 (or NaN) gives 0, one of at least 1 gives `2⁵³`
/// or more: never and always.
pub fn draw_bound(p: f64) -> u64 {
    (p * UNIT_53).ceil() as u64
}

/// The persistent component of a pair's daily draws: the first uniform
/// of `DetRng::new(seed)` against the pair's [`draw_bound`]. It does
/// not depend on the day, so the engine draws it once per pair.
#[inline]
pub fn persistent_hit(seed: u64, bound: u64) -> bool {
    DetRng::first_two_outputs(seed).0 >> 11 < bound
}

/// The one daily-draw definition every observer in the system shares:
/// mix a fresh per-day component with a persistent per-pair one
/// ([`params::FRESH_DRAW_PROB`]). `bound` is the pair's
/// [`draw_bound`] and `persistent` its [`persistent_hit`]. The engine
/// fill, the naive [`Vantage::sees`] reference and the Fig. 13 victim
/// client (`censor::victim_view`, with its own seed and strength) all
/// call it, which keeps the observer populations on one sighting
/// process.
///
/// The draw is `DetRng::new(pair_seed ^ day key)`: a first uniform
/// below `FRESH_DRAW_PROB` makes the day fresh, decided by a second
/// uniform below `p`; otherwise the persistent outcome stands. Both
/// uniforms are compared as 53-bit integers, both are always drawn,
/// and the outcome is selected without a branch (a fresh day is a coin
/// flip the processor cannot predict).
#[inline]
pub fn daily_draw(pair_seed: u64, day: u64, bound: u64, persistent: bool) -> bool {
    let (first, second) =
        DetRng::first_two_outputs(pair_seed ^ (day + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let fresh = first >> 11 < draw_bound(params::FRESH_DRAW_PROB);
    (fresh & (second >> 11 < bound)) | (!fresh & persistent)
}

/// What one vantage harvested on one day.
#[derive(Clone, Debug, Default)]
pub struct DailyHarvest {
    /// Observed RouterInfos, keyed by peer id.
    pub records: FxHashMap<u32, ObservedRouterInfo>,
}

impl DailyHarvest {
    /// Number of distinct peers observed ("a peer is defined by a unique
    /// hash value", §4.1).
    pub fn peer_count(&self) -> usize {
        self.records.len()
    }
}

/// A fleet of monitoring vantages.
#[derive(Clone, Debug)]
pub struct Fleet {
    /// The vantages.
    pub vantages: Vec<Vantage>,
}

impl Fleet {
    /// The paper's main fleet: 10 floodfill + 10 non-floodfill
    /// high-profile routers (§5).
    pub fn paper_main() -> Self {
        Fleet {
            vantages: (0..20)
                .map(|i| {
                    Vantage::monitoring(
                        if i < 10 { VantageMode::Floodfill } else { VantageMode::NonFloodfill },
                        0x1000 + i,
                    )
                })
                .collect(),
        }
    }

    /// The §4.3 experiment fleet: `n` routers, alternating modes.
    pub fn alternating(n: usize) -> Self {
        Fleet {
            vantages: (0..n)
                .map(|i| {
                    Vantage::monitoring(
                        if i % 2 == 0 { VantageMode::Floodfill } else { VantageMode::NonFloodfill },
                        0x2000 + i as u64,
                    )
                })
                .collect(),
        }
    }

    /// Harvest of a single vantage on `day`.
    pub fn harvest_one(&self, world: &World, vantage: &Vantage, day: u64) -> DailyHarvest {
        harvest_union_of(world, std::slice::from_ref(vantage), day)
    }

    /// Union harvest of the whole fleet on `day` (aggregating the
    /// viewpoints, §4.2).
    pub fn harvest_union(&self, world: &World, day: u64) -> DailyHarvest {
        harvest_union_of(world, &self.vantages, day)
    }

    /// Cumulative union when operating only the first `k` vantages
    /// (Fig. 4's x-axis) on `day`.
    pub fn harvest_union_prefix(&self, world: &World, day: u64, k: usize) -> DailyHarvest {
        harvest_union_of(world, &self.vantages[..k.min(self.vantages.len())], day)
    }

    /// Harvests a full window, returning per-day union harvests.
    pub fn harvest_window(&self, world: &World, days: std::ops::Range<u64>) -> Vec<DailyHarvest> {
        days.map(|d| self.harvest_union(world, d)).collect()
    }
}

/// Union harvest of an arbitrary vantage slice on `day` — the naive
/// per-peer path every [`Fleet`] method routes through. It stays the
/// reference implementation (and test oracle) for the bitset
/// [`crate::engine::HarvestEngine`].
fn harvest_union_of(world: &World, vantages: &[Vantage], day: u64) -> DailyHarvest {
    let mut records = FxHashMap::default();
    for peer in world.online_peers(day) {
        if vantages.iter().any(|v| v.sees(peer, day)) {
            records.insert(peer.id, ObservedRouterInfo::capture(peer, day, &world.geo));
        }
    }
    DailyHarvest { records }
}

#[cfg(test)]
mod tests {
    use super::*;
    use i2p_sim::world::WorldConfig;
    use proptest::prelude::*;

    /// The floating-point draw [`daily_draw`] replaced: `f64` uniforms
    /// of a `DetRng` stream per (pair, day), the persistent component
    /// the first uniform of `DetRng::new(persistent_seed)`.
    fn f64_daily_draw(pair_seed: u64, day: u64, p: f64, persistent_seed: u64) -> bool {
        let mut daily = DetRng::new(pair_seed ^ (day + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if daily.next_f64() < params::FRESH_DRAW_PROB {
            daily.next_f64() < p
        } else {
            DetRng::new(persistent_seed).next_f64() < p
        }
    }

    /// `p` one ulp down (`step` 1), unchanged (0) or one ulp up (2), for
    /// a positive finite `p` (`f64::next_down`/`next_up` postdate the
    /// workspace's MSRV).
    fn ulp_step(p: f64, step: u64) -> f64 {
        f64::from_bits(p.to_bits() + step - 1)
    }

    /// The probabilities the integer draw must get exactly right: both
    /// ends, the smallest step, the fresh-draw share, every multiple of
    /// `2⁻⁵³` with its neighbours, and arbitrary values.
    fn probabilities() -> impl Strategy<Value = f64> {
        let grid =
            (1u64..1 << 53, 0u64..3).prop_map(|(k, step)| ulp_step(k as f64 / UNIT_53, step));
        prop_oneof![
            Just(0.0),
            Just(1.0 / UNIT_53),
            Just(params::FRESH_DRAW_PROB),
            Just(0.5),
            Just(1.0 - 1.0 / UNIT_53),
            Just(1.0),
            grid,
            0.0f64..1.0,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn integer_draw_matches_the_f64_definition(
            pair_seed in any::<u64>(),
            persistent_key in prop_oneof![Just(0u64), any::<u64>()],
            day in 0u64..400,
            p in probabilities(),
        ) {
            let bound = draw_bound(p);
            let persistent_seed = pair_seed ^ persistent_key;
            prop_assert_eq!(
                persistent_hit(persistent_seed, bound),
                DetRng::new(persistent_seed).next_f64() < p,
                "persistent draw, p {}", p
            );
            prop_assert_eq!(
                daily_draw(pair_seed, day, bound, persistent_hit(persistent_seed, bound)),
                f64_daily_draw(pair_seed, day, p, persistent_seed),
                "seed {:#x} day {} p {}", pair_seed, day, p
            );
            // The bound is tight: the uniforms just below and at it fall
            // on the two sides of `p`.
            for x in [bound.wrapping_sub(1), bound].into_iter().filter(|&x| x < 1 << 53) {
                prop_assert_eq!(x < bound, (x as f64) * (1.0 / UNIT_53) < p, "x {} p {}", x, p);
            }
        }
    }

    fn small_world() -> World {
        World::generate(WorldConfig { days: 12, scale: 0.04, seed: 3 })
    }

    #[test]
    fn sighting_is_deterministic_and_vantage_specific() {
        let w = small_world();
        let v1 = Vantage::monitoring(VantageMode::NonFloodfill, 1);
        let v2 = Vantage::monitoring(VantageMode::NonFloodfill, 2);
        let h1 = Fleet { vantages: vec![v1] }.harvest_union(&w, 3);
        let h1b = Fleet { vantages: vec![v1] }.harvest_union(&w, 3);
        let h2 = Fleet { vantages: vec![v2] }.harvest_union(&w, 3);
        assert_eq!(h1.peer_count(), h1b.peer_count());
        assert_ne!(
            h1.records.keys().collect::<std::collections::BTreeSet<_>>(),
            h2.records.keys().collect::<std::collections::BTreeSet<_>>(),
            "different vantages see different subsets"
        );
    }

    #[test]
    fn single_high_end_vantage_sees_roughly_half() {
        // Fig. 2 anchor: ~15-16 K of ~32 K daily peers.
        let w = small_world();
        let online = w.online_count(5) as f64;
        let v = Vantage::monitoring(VantageMode::NonFloodfill, 7);
        let seen = Fleet { vantages: vec![v] }.harvest_union(&w, 5).peer_count() as f64;
        let frac = seen / online;
        assert!((0.38..0.60).contains(&frac), "single-vantage coverage {frac}");
    }

    #[test]
    fn more_vantages_see_more() {
        let w = small_world();
        let fleet = Fleet::alternating(20);
        let one = fleet.harvest_union_prefix(&w, 4, 1).peer_count();
        let five = fleet.harvest_union_prefix(&w, 4, 5).peer_count();
        let twenty = fleet.harvest_union_prefix(&w, 4, 20).peer_count();
        assert!(one < five && five < twenty);
        let online = w.online_count(4);
        assert!(
            twenty as f64 > 0.90 * online as f64,
            "20 vantages must see >90% ({twenty} of {online})"
        );
    }

    #[test]
    fn bandwidth_increases_nonff_coverage() {
        let w = small_world();
        let lo = Vantage { mode: VantageMode::NonFloodfill, shared_kbps: 128, salt: 9 };
        let hi = Vantage { mode: VantageMode::NonFloodfill, shared_kbps: 5120, salt: 9 };
        let n_lo = Fleet { vantages: vec![lo] }.harvest_union(&w, 6).peer_count();
        let n_hi = Fleet { vantages: vec![hi] }.harvest_union(&w, 6).peer_count();
        assert!(n_hi > n_lo, "coverage must grow with bandwidth ({n_lo} -> {n_hi})");
    }

    #[test]
    fn floodfill_beats_nonff_at_low_bandwidth() {
        // Fig. 3: the crossover — at 128 KB/s the floodfill vantage sees
        // more; at 5 MB/s the non-floodfill one does.
        let w = small_world();
        let mut ff_lo = 0usize;
        let mut nf_lo = 0usize;
        let mut ff_hi = 0usize;
        let mut nf_hi = 0usize;
        // Average over several salts and days to damp sampling noise.
        for (i, day) in (0..8u64).enumerate() {
            let s = 100 + i as u64;
            ff_lo += Fleet { vantages: vec![Vantage { mode: VantageMode::Floodfill, shared_kbps: 128, salt: s }] }
                .harvest_union(&w, day)
                .peer_count();
            nf_lo += Fleet { vantages: vec![Vantage { mode: VantageMode::NonFloodfill, shared_kbps: 128, salt: s }] }
                .harvest_union(&w, day)
                .peer_count();
            ff_hi += Fleet { vantages: vec![Vantage { mode: VantageMode::Floodfill, shared_kbps: 5120, salt: s }] }
                .harvest_union(&w, day)
                .peer_count();
            nf_hi += Fleet { vantages: vec![Vantage { mode: VantageMode::NonFloodfill, shared_kbps: 5120, salt: s }] }
                .harvest_union(&w, day)
                .peer_count();
        }
        assert!(ff_lo > nf_lo, "at 128 KB/s floodfill wins ({ff_lo} vs {nf_lo})");
        assert!(nf_hi > ff_hi, "at 5 MB/s non-floodfill wins ({nf_hi} vs {ff_hi})");
    }

    #[test]
    fn offline_peers_never_sighted() {
        let w = small_world();
        let v = Vantage::monitoring(VantageMode::Floodfill, 3);
        for p in &w.peers {
            if !p.online(2) {
                assert!(!v.sees(p, 2));
            }
        }
    }
}
