//! Peer profiling and selection weights.
//!
//! I2P routers continuously score the peers they interact with; the
//! profile drives tunnel-hop selection. "These are all situations under
//! which a router would be penalized by the I2P ranking algorithm and
//! therefore have less chances of being chosen to participate in peers'
//! tunnels" (Hoang et al. §4.1). We model two of the classic profile
//! dimensions (speed and capacity) plus a failure count, and derive the
//! selection weight used by `i2p_tunnel::select`.

use i2p_data::{BandwidthClass, FxHashMap, Hash256, SimTime};

/// Profile tier, recomputed from scores.
#[derive(Clone, Copy, PartialEq, Eq, Debug, PartialOrd, Ord)]
enum Tier {
    /// Recently failing peers — excluded from selection.
    Failing,
    /// Everyone else.
    Standard,
    /// High capacity: accepts tunnels reliably.
    HighCapacity,
    /// Fast *and* high capacity — preferred for client tunnels.
    Fast,
}

/// One peer's profile.
#[derive(Clone, Debug)]
pub struct PeerProfile {
    /// Advertised bandwidth class (from its RouterInfo).
    pub bandwidth: BandwidthClass,
    /// Observed throughput score (EWMA, arbitrary units).
    pub speed: f64,
    /// Tunnel-acceptance capacity score.
    pub capacity: f64,
    /// Consecutive recent failures.
    pub recent_failures: u32,
    /// When the last failure happened (failure streaks decay: a peer is
    /// not condemned forever for a bad stretch).
    pub last_failure: SimTime,
    /// Last time we interacted.
    pub last_seen: SimTime,
}

/// Failure streaks older than this are forgiven (the I2P profiler uses
/// decaying failure statistics).
const FAILURE_DECAY: i2p_data::Duration = i2p_data::Duration::from_mins(10);

impl PeerProfile {
    /// Fresh profile seeded from the advertised bandwidth class.
    pub fn new(bandwidth: BandwidthClass, now: SimTime) -> Self {
        let base = bandwidth.nominal_kbps() as f64;
        PeerProfile {
            bandwidth,
            speed: base,
            capacity: base / 4.0,
            recent_failures: 0,
            last_failure: SimTime(0),
            last_seen: now,
        }
    }

    /// Records a successful interaction (tunnel joined, message relayed).
    pub fn record_success(&mut self, throughput_kbps: f64, now: SimTime) {
        self.speed = 0.9 * self.speed + 0.1 * throughput_kbps;
        self.capacity = (self.capacity + 1.0).min(1e6);
        self.recent_failures = 0;
        self.last_seen = now;
    }

    /// Records a failure (rejection, timeout). Streaks decay: a failure
    /// long after the previous one starts a fresh streak instead of
    /// extending a stale one.
    pub fn record_failure(&mut self, now: SimTime) {
        self.capacity = (self.capacity * 0.8).max(0.0);
        if now.since(self.last_failure) > FAILURE_DECAY {
            self.recent_failures = 1;
        } else {
            self.recent_failures += 1;
        }
        self.last_failure = now;
        self.last_seen = now;
    }

    /// The peer's tier.
    fn tier(&self) -> Tier {
        if self.recent_failures >= 3 {
            return Tier::Failing;
        }
        let fast_speed = self.speed >= 256.0;
        let high_cap = self.capacity >= 32.0;
        match (fast_speed, high_cap) {
            (true, true) => Tier::Fast,
            (_, true) => Tier::HighCapacity,
            _ => Tier::Standard,
        }
    }

    /// The peer's tier at `now`: failure streaks older than
    /// [`FAILURE_DECAY`] no longer condemn the peer.
    fn tier_at(&self, now: SimTime) -> Tier {
        if self.recent_failures >= 3 && now.since(self.last_failure) > FAILURE_DECAY {
            // Stale streak: judge on capacity/speed alone.
            let fast_speed = self.speed >= 256.0;
            let high_cap = self.capacity >= 32.0;
            return match (fast_speed, high_cap) {
                (true, true) => Tier::Fast,
                (_, true) => Tier::HighCapacity,
                _ => Tier::Standard,
            };
        }
        self.tier()
    }

    /// Tunnel-selection weight: bandwidth-class base scaled by tier.
    /// Failing peers get 0 ("less chances of being chosen", §4.1).
    fn selection_weight(&self) -> u32 {
        self.weight_for_tier(self.tier())
    }

    /// Selection weight at `now` (failure streaks decay).
    fn selection_weight_at(&self, now: SimTime) -> u32 {
        self.weight_for_tier(self.tier_at(now))
    }

    fn weight_for_tier(&self, tier: Tier) -> u32 {
        let base = self.bandwidth.nominal_kbps();
        match tier {
            Tier::Failing => 0,
            Tier::Standard => base / 4 + 1,
            Tier::HighCapacity => base / 2 + 1,
            Tier::Fast => base + 1,
        }
    }
}

/// All profiles a router keeps.
///
/// Backed by the deterministic [`FxHashMap`]: the book is consulted
/// once per hop candidate on every tunnel build, and a deterministic
/// hasher keeps cloned routers (scenario-lab forks) replaying
/// identically.
#[derive(Clone, Debug, Default)]
pub struct ProfileBook {
    profiles: FxHashMap<Hash256, PeerProfile>,
}

impl ProfileBook {
    /// Empty book.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gets-or-creates the profile for `peer`.
    pub fn entry(&mut self, peer: Hash256, bandwidth: BandwidthClass, now: SimTime) -> &mut PeerProfile {
        self.profiles
            .entry(peer)
            .or_insert_with(|| PeerProfile::new(bandwidth, now))
    }

    /// Read-only lookup.
    pub fn get(&self, peer: &Hash256) -> Option<&PeerProfile> {
        self.profiles.get(peer)
    }

    /// Number of profiled peers.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether no peers are profiled.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Selection weight for `peer` (0 when unknown — never select blind).
    pub fn weight(&self, peer: &Hash256) -> u32 {
        self.get(peer).map_or(0, |p| p.selection_weight())
    }

    /// Selection weight at `now` (failure streaks decay).
    pub fn weight_at(&self, peer: &Hash256, now: SimTime) -> u32 {
        self.get(peer).map_or(0, |p| p.selection_weight_at(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_profile_tier_follows_bandwidth() {
        let now = SimTime(0);
        assert_eq!(PeerProfile::new(BandwidthClass::K, now).tier(), Tier::Standard);
        // X class starts fast+high-capacity.
        assert_eq!(PeerProfile::new(BandwidthClass::X, now).tier(), Tier::Fast);
    }

    #[test]
    fn failures_demote_to_failing_and_zero_weight() {
        let mut p = PeerProfile::new(BandwidthClass::O, SimTime(0));
        for _ in 0..3 {
            p.record_failure(SimTime(1));
        }
        assert_eq!(p.tier(), Tier::Failing);
        assert_eq!(p.selection_weight(), 0);
        // One success rehabilitates.
        p.record_success(100.0, SimTime(2));
        assert_ne!(p.tier(), Tier::Failing);
        assert!(p.selection_weight() > 0);
    }

    #[test]
    fn higher_bandwidth_weighs_more() {
        let now = SimTime(0);
        let k = PeerProfile::new(BandwidthClass::K, now).selection_weight();
        let l = PeerProfile::new(BandwidthClass::L, now).selection_weight();
        let x = PeerProfile::new(BandwidthClass::X, now).selection_weight();
        assert!(k < l && l < x, "k={k} l={l} x={x}");
    }

    #[test]
    fn success_improves_speed_score() {
        let mut p = PeerProfile::new(BandwidthClass::L, SimTime(0));
        let before = p.speed;
        for _ in 0..30 {
            p.record_success(4000.0, SimTime(1));
        }
        assert!(p.speed > before * 2.0);
        assert_eq!(p.tier(), Tier::Fast);
    }

    #[test]
    fn book_weight_unknown_is_zero() {
        let book = ProfileBook::new();
        assert_eq!(book.weight(&Hash256::digest(b"x")), 0);
    }

    #[test]
    fn book_entry_creates_once() {
        let mut book = ProfileBook::new();
        let h = Hash256::digest(b"p");
        book.entry(h, BandwidthClass::L, SimTime(0));
        book.entry(h, BandwidthClass::X, SimTime(1)); // class ignored on reuse
        assert_eq!(book.len(), 1);
        assert_eq!(book.get(&h).unwrap().bandwidth, BandwidthClass::L);
    }
}
