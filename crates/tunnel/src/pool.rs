//! Tunnel pools and rotation.
//!
//! "New tunnels are formed every ten minutes" and "depending on the
//! desired level of anonymity, tunnels can be configured to comprise up
//! to seven hops" (Hoang et al. §2.1.1). A router keeps a pool of
//! inbound and outbound tunnels per purpose, replaces them as they
//! expire, and exposes live ones for use. The usability experiment
//! (Fig. 14) stresses exactly this machinery: under address blocking,
//! tunnel builds fail and pools run dry.

use i2p_data::{Duration, Hash256, SimTime};

/// Tunnel lifetime (§2.1.1).
pub const TUNNEL_LIFETIME: Duration = Duration::from_mins(10);

/// Maximum hops per tunnel (§2.1.1).
const MAX_HOPS: usize = 7;

/// Tunnel direction.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum TunnelDirection {
    /// Messages flow toward this router.
    Inbound,
    /// Messages flow away from this router.
    Outbound,
}

/// Pool configuration.
#[derive(Clone, Copy, Debug)]
pub struct TunnelConfig {
    /// Hops per tunnel (0–7).
    pub length: usize,
    /// Desired live tunnels per direction.
    pub pool_size: usize,
}

impl TunnelConfig {
    /// The I2P default: 2-hop tunnels (the paper's Fig. 1 depiction),
    /// two per direction.
    pub const DEFAULT: TunnelConfig = TunnelConfig { length: 2, pool_size: 2 };
}

/// A built tunnel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tunnel {
    /// Tunnel id (unique per gateway).
    pub id: u32,
    /// Direction relative to the owner.
    pub direction: TunnelDirection,
    /// Hop hashes, gateway-to-endpoint order. For inbound tunnels the
    /// *gateway* (`hops[0]`) is the published entry point.
    pub hops: Vec<Hash256>,
    /// When the tunnel was built.
    pub built: SimTime,
}

impl Tunnel {
    /// Whether the tunnel is still usable at `now`.
    fn is_live(&self, now: SimTime) -> bool {
        now.since(self.built) < TUNNEL_LIFETIME
    }

    /// The published gateway of an inbound tunnel (what goes into a
    /// LeaseSet), or the first hop of an outbound tunnel.
    pub fn gateway(&self) -> Option<Hash256> {
        self.hops.first().copied()
    }
}

/// A pool of tunnels in one direction.
#[derive(Clone, Debug, Default)]
pub struct TunnelPool {
    tunnels: Vec<Tunnel>,
    next_id: u32,
    /// Builds attempted / succeeded (for the Fig. 14 failure accounting).
    pub builds_attempted: u64,
    /// Successful builds.
    pub builds_succeeded: u64,
    /// Failed builds (refused or timed out).
    pub builds_failed: u64,
}

impl TunnelPool {
    /// An empty pool.
    pub fn new() -> Self {
        TunnelPool::default()
    }

    /// Allocates the next local tunnel id (used by tests and by callers
    /// that do not carry a network-wide build id).
    fn next_id(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id
    }

    /// Records a successful build under a locally-allocated id.
    pub fn add(&mut self, direction: TunnelDirection, hops: Vec<Hash256>, now: SimTime) -> &Tunnel {
        let id = self.next_id();
        self.add_with_id(id, direction, hops, now)
    }

    /// Records a successful build under the network-wide tunnel id from
    /// the build request — relay hops key their participant state by
    /// this id, so gateways must be addressed with it.
    pub fn add_with_id(
        &mut self,
        id: u32,
        direction: TunnelDirection,
        hops: Vec<Hash256>,
        now: SimTime,
    ) -> &Tunnel {
        assert!(hops.len() <= MAX_HOPS);
        self.tunnels.push(Tunnel { id, direction, hops, built: now });
        self.builds_succeeded += 1;
        self.tunnels.last().unwrap() // i2plint: allow(panic-audit) -- last() follows the push on the line above
    }

    /// Records that an attempted build failed (refusal or timeout). Does
    /// not bump `builds_attempted` — [`TunnelPool::record_attempt`] did
    /// that when the build started.
    pub fn record_failure(&mut self) {
        self.builds_failed += 1;
    }

    /// Records an attempted build (called when the build request goes
    /// out; resolution later lands in `add_with_id` or
    /// `record_failure`).
    pub fn record_attempt(&mut self) {
        self.builds_attempted += 1;
    }

    /// Drops expired tunnels; returns how many were dropped.
    pub fn expire(&mut self, now: SimTime) -> usize {
        let before = self.tunnels.len();
        self.tunnels.retain(|t| t.is_live(now));
        before - self.tunnels.len()
    }

    /// Live tunnels at `now`.
    pub fn live(&self, now: SimTime) -> impl Iterator<Item = &Tunnel> {
        self.tunnels.iter().filter(move |t| t.is_live(now))
    }

    /// Number of live tunnels.
    pub fn live_count(&self, now: SimTime) -> usize {
        self.live(now).count()
    }

    /// Picks the freshest live tunnel (most recently built).
    pub fn freshest(&self, now: SimTime) -> Option<&Tunnel> {
        self.live(now).max_by_key(|t| t.built)
    }

    /// Drops every tunnel immediately — forced rotation / client session
    /// teardown. Build counters are preserved. Returns how many tunnels
    /// were dropped.
    pub fn drop_all(&mut self) -> usize {
        let n = self.tunnels.len();
        self.tunnels.clear();
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(i: u8) -> Hash256 {
        Hash256::digest(&[i])
    }

    #[test]
    fn tunnels_expire_after_ten_minutes() {
        let mut pool = TunnelPool::new();
        pool.add(TunnelDirection::Outbound, vec![h(1), h(2)], SimTime(0));
        assert_eq!(pool.live_count(SimTime(Duration::from_mins(9).as_millis())), 1);
        assert_eq!(pool.live_count(SimTime(Duration::from_mins(10).as_millis())), 0);
        assert_eq!(pool.expire(SimTime(Duration::from_mins(10).as_millis())), 1);
    }

    #[test]
    fn freshest_prefers_recent() {
        let mut pool = TunnelPool::new();
        pool.add(TunnelDirection::Outbound, vec![h(1)], SimTime(0));
        pool.add(TunnelDirection::Outbound, vec![h(2)], SimTime(1000));
        assert_eq!(pool.freshest(SimTime(2000)).unwrap().hops, vec![h(2)]);
    }

    #[test]
    fn gateway_is_first_hop() {
        let mut pool = TunnelPool::new();
        let t = pool.add(TunnelDirection::Inbound, vec![h(9), h(8)], SimTime(0));
        assert_eq!(t.gateway(), Some(h(9)));
    }

    #[test]
    #[should_panic]
    fn more_than_seven_hops_rejected() {
        let mut pool = TunnelPool::new();
        pool.add(TunnelDirection::Inbound, (0..8).map(h).collect(), SimTime(0));
    }

    #[test]
    fn ids_unique() {
        let mut pool = TunnelPool::new();
        let a = pool.add(TunnelDirection::Inbound, vec![h(1)], SimTime(0)).id;
        let b = pool.add(TunnelDirection::Inbound, vec![h(2)], SimTime(0)).id;
        assert_ne!(a, b);
    }

    #[test]
    fn build_accounting() {
        let mut pool = TunnelPool::new();
        pool.record_attempt();
        pool.record_attempt();
        pool.record_failure();
        pool.add(TunnelDirection::Outbound, vec![h(1)], SimTime(0));
        assert_eq!(pool.builds_attempted, 2);
        assert_eq!(pool.builds_succeeded, 1);
        assert_eq!(pool.builds_failed, 1);
    }
}
