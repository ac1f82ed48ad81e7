//! The simulated internet fabric.
//!
//! A passive (event-free) model of the IP substrate between routers:
//! endpoint registration, deterministic per-pair latency, and the
//! censor's null-routing chokepoint. The discrete-event engine in
//! `i2p-sim` (and the usability evaluator in `i2p-measure`) call
//! [`Fabric::send`] and schedule the returned delivery times themselves.
//!
//! Null-routing follows Hoang et al. §6.2.3: "we configure our upstream
//! router to silently drop all packets that contain peer IP addresses
//! that we observed from the I2P network" — a blocked send produces no
//! error, only silence, so the initiator burns its connect timeout.
//!
//! The fabric also models an *active-reset* censor ([`CensorMode`]):
//! instead of silently dropping, the chokepoint injects a TCP-RST-style
//! refusal, so the initiator learns about the block after one chokepoint
//! round trip instead of burning its attempt timeout — the
//! fail-fast/fail-silent distinction that reshapes Fig. 14's latency
//! curve.

use crate::blocklist::BlockList;
use i2p_data::{Duration, FxHashMap, Hash256, PeerIp, SimTime};
use i2p_faults::FaultPlane;

/// Extra one-way latency added to a fault-delayed message.
const FAULT_EXTRA_DELAY: Duration = Duration::from_millis(750);
/// Gap between the two copies of a fault-duplicated message.
const FAULT_DUP_GAP: Duration = Duration::from_millis(250);

/// A network endpoint: IP and port.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Endpoint {
    /// The IP address.
    pub ip: PeerIp,
    /// The port (I2P's arbitrary 9000–31000 range).
    pub port: u16,
}

/// Latency characteristics of a path.
#[derive(Clone, Copy, Debug)]
pub struct LinkProfile {
    /// One-way base latency.
    pub base: Duration,
    /// Maximum additional deterministic jitter.
    pub jitter: Duration,
}

impl LinkProfile {
    /// Default internet-like profile: 10–160 ms one way.
    pub const DEFAULT: LinkProfile =
        LinkProfile { base: Duration::from_millis(10), jitter: Duration::from_millis(150) };
}

/// How the censor's chokepoint disposes of blocked traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CensorMode {
    /// Silent null route (§6.2.3): the sender gets no signal and burns
    /// its attempt timeout.
    #[default]
    NullRoute,
    /// Active TCP-RST-style reset: the sender is refused after one
    /// chokepoint round trip and can fail over immediately.
    ActiveReset,
}

/// Outcome of a send attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliveryOutcome {
    /// Will arrive at the destination router at the given instant.
    Delivered {
        /// Arrival time.
        at: SimTime,
        /// The router listening on the destination endpoint.
        to: Hash256,
    },
    /// Silently dropped by the censor's null route (no error signal!).
    NullRouted,
    /// Actively refused by the censor ([`CensorMode::ActiveReset`]): the
    /// sender learns the peer is unreachable at the given instant.
    Reset {
        /// When the RST reaches the sender (one chokepoint round trip).
        at: SimTime,
    },
    /// Nothing listens on the destination endpoint (peer gone/behind NAT).
    NoListener,
    /// Dropped by the fault plane (random loss, not censorship) — like
    /// [`DeliveryOutcome::NullRouted`], the sender gets no signal.
    Lost,
    /// Duplicated by the fault plane: the destination router receives
    /// the message twice (retransmission-style duplication).
    Duplicated {
        /// Arrival time of the first copy.
        at: SimTime,
        /// Arrival time of the second copy.
        again: SimTime,
        /// The router listening on the destination endpoint.
        to: Hash256,
    },
}

/// Traffic counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Messages delivered.
    pub delivered: u64,
    /// Bytes delivered.
    pub delivered_bytes: u64,
    /// Messages null-routed by the blocklist.
    pub null_routed: u64,
    /// Messages actively reset by the blocklist.
    pub reset: u64,
    /// Messages to unregistered endpoints.
    pub no_listener: u64,
    /// Messages dropped by the fault plane.
    pub lost: u64,
    /// Messages delayed by the fault plane.
    pub delayed: u64,
    /// Messages duplicated by the fault plane.
    pub duplicated: u64,
}

/// The simulated IP substrate.
///
/// `Clone` so a warmed scenario-lab substrate can be forked per
/// scenario; the fabric holds only plain data, so a clone is an
/// independent network.
#[derive(Clone, Debug, Default)]
pub struct Fabric {
    listeners: FxHashMap<Endpoint, Hash256>,
    blocklist: Option<BlockList>,
    /// When set, the blocklist only affects traffic to/from this IP —
    /// the censor sits at the *victim's* upstream (§6.2.3), not in the
    /// middle of the whole internet.
    victim: Option<PeerIp>,
    censor_mode: CensorMode,
    profile: Option<LinkProfile>,
    stats: FabricStats,
    faults: FaultPlane,
    /// Monotone send counter: the per-message key for fault draws, so
    /// the same message sequence sees the same faults regardless of
    /// wall-clock or thread interleaving.
    sends: u64,
}

impl Fabric {
    /// An empty fabric with the default latency profile.
    pub fn new() -> Self {
        Fabric { profile: Some(LinkProfile::DEFAULT), ..Default::default() }
    }

    /// Installs the censor's blocklist at the victim's upstream.
    pub fn set_blocklist(&mut self, bl: BlockList) {
        self.blocklist = Some(bl);
    }

    /// Scopes the blocklist to one victim IP: only packets to or from
    /// this address pass the censor's chokepoint. Without a victim scope
    /// the blocklist applies to every destination (nation-wide view).
    pub fn set_victim(&mut self, victim: PeerIp) {
        self.victim = Some(victim);
    }

    /// Installs a fault plane. Messages traversing the fabric are then
    /// subject to deterministic probabilistic loss/delay/duplication,
    /// keyed on the fabric's monotone send counter.
    pub fn set_faults(&mut self, plane: FaultPlane) {
        self.faults = plane;
    }

    /// The installed fault plane (zero unless [`Fabric::set_faults`] ran).
    pub fn faults(&self) -> FaultPlane {
        self.faults
    }

    /// Selects how the chokepoint disposes of blocked traffic.
    pub fn set_censor_mode(&mut self, mode: CensorMode) {
        self.censor_mode = mode;
    }

    /// The active censor mode.
    pub fn censor_mode(&self) -> CensorMode {
        self.censor_mode
    }

    /// Registers `router` as listening on `ep`. Returns the previous
    /// listener, if any (IP churn means endpoints get reused).
    pub fn register(&mut self, ep: Endpoint, router: Hash256) -> Option<Hash256> {
        self.listeners.insert(ep, router)
    }

    /// Deterministic one-way latency between two IPs.
    pub fn latency(&self, from: PeerIp, to: PeerIp) -> Duration {
        let p = self.profile.unwrap_or(LinkProfile::DEFAULT);
        // Symmetric deterministic jitter from the unordered pair digest.
        let (a, b) = (from.digest64(), to.digest64());
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let mix = lo
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(hi)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let jitter_ms = if p.jitter.as_millis() == 0 { 0 } else { mix % p.jitter.as_millis() };
        p.base + Duration::from_millis(jitter_ms)
    }

    /// Attempts to send `size` bytes from `from_ip` to `to` at `now`.
    ///
    /// Blocking applies to the *remote* peer's address, as a censor at
    /// the sender's upstream sees it: sends toward a blocked IP are
    /// dropped.
    pub fn send(&mut self, from_ip: PeerIp, to: Endpoint, size: usize, now: SimTime) -> DeliveryOutcome {
        let _tally = i2p_telemetry::tally("transport.send");
        i2p_telemetry::count_one(i2p_telemetry::Counter::MessagesSent);
        let day = now.day();
        let msg_key = self.sends;
        self.sends += 1;
        if let Some(bl) = &self.blocklist {
            let at_chokepoint = match self.victim {
                // Censor at the victim's upstream: only the victim's own
                // traffic traverses the filter.
                Some(v) => from_ip == v || to.ip == v,
                None => true,
            };
            let hits = bl.is_blocked(&to.ip, day) || bl.is_blocked(&from_ip, day);
            if at_chokepoint && hits {
                return match self.censor_mode {
                    CensorMode::NullRoute => {
                        self.stats.null_routed += 1;
                        DeliveryOutcome::NullRouted
                    }
                    CensorMode::ActiveReset => {
                        self.stats.reset += 1;
                        // The RST originates at the chokepoint (the
                        // victim's upstream), one base-latency round
                        // trip away — far sooner than any timeout.
                        let p = self.profile.unwrap_or(LinkProfile::DEFAULT);
                        DeliveryOutcome::Reset { at: now + p.base + p.base }
                    }
                };
            }
        }
        // Ambient network pathology: loss strikes the open path after
        // the censor's chokepoint (a censored message is already gone).
        if self.faults.drop_message(msg_key) {
            self.stats.lost += 1;
            return DeliveryOutcome::Lost;
        }
        match self.listeners.get(&to) {
            Some(router) => {
                self.stats.delivered += 1;
                self.stats.delivered_bytes += size as u64;
                let mut at = now + self.latency(from_ip, to.ip);
                if self.faults.delay_message(msg_key) {
                    self.stats.delayed += 1;
                    at = at + FAULT_EXTRA_DELAY;
                }
                if self.faults.duplicate_message(msg_key) {
                    self.stats.duplicated += 1;
                    return DeliveryOutcome::Duplicated {
                        at,
                        again: at + FAULT_DUP_GAP,
                        to: *router,
                    };
                }
                DeliveryOutcome::Delivered { at, to: *router }
            }
            None => {
                self.stats.no_listener += 1;
                DeliveryOutcome::NoListener
            }
        }
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> FabricStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(n: u32) -> Endpoint {
        Endpoint { ip: PeerIp::V4(n), port: 9000 }
    }

    #[test]
    fn delivery_to_registered_listener() {
        let mut f = Fabric::new();
        let bob = Hash256::digest(b"bob");
        f.register(ep(2), bob);
        match f.send(PeerIp::V4(1), ep(2), 100, SimTime(0)) {
            DeliveryOutcome::Delivered { at, to } => {
                assert_eq!(to, bob);
                assert!(at > SimTime(0));
                assert!(at.as_millis() <= 160);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(f.stats().delivered, 1);
        assert_eq!(f.stats().delivered_bytes, 100);
    }

    #[test]
    fn no_listener_reported() {
        let mut f = Fabric::new();
        assert_eq!(f.send(PeerIp::V4(1), ep(9), 10, SimTime(0)), DeliveryOutcome::NoListener);
        assert_eq!(f.stats().no_listener, 1);
    }

    #[test]
    fn null_routing_silently_drops() {
        let mut f = Fabric::new();
        f.register(ep(2), Hash256::digest(b"bob"));
        let mut bl = BlockList::new(30);
        bl.observe(PeerIp::V4(2), 0);
        f.set_blocklist(bl);
        assert_eq!(f.send(PeerIp::V4(1), ep(2), 10, SimTime(0)), DeliveryOutcome::NullRouted);
        assert_eq!(f.stats().null_routed, 1);
    }

    #[test]
    fn active_reset_fails_fast_with_signal() {
        let mut f = Fabric::new();
        f.register(ep(2), Hash256::digest(b"bob"));
        let mut bl = BlockList::new(30);
        bl.observe(PeerIp::V4(2), 0);
        f.set_blocklist(bl);
        f.set_censor_mode(CensorMode::ActiveReset);
        match f.send(PeerIp::V4(1), ep(2), 10, SimTime(0)) {
            DeliveryOutcome::Reset { at } => {
                assert!(at.as_millis() <= 20, "RST lands within one chokepoint RTT, got {at:?}");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(f.stats().reset, 1);
        assert_eq!(f.stats().null_routed, 0);
        // Traffic outside the window is untouched.
        assert!(matches!(
            f.send(PeerIp::V4(1), ep(2), 10, SimTime::from_day_ms(40, 0)),
            DeliveryOutcome::Delivered { .. }
        ));
    }

    #[test]
    fn blocklist_window_expires_in_fabric() {
        let mut f = Fabric::new();
        let bob = Hash256::digest(b"bob");
        f.register(ep(2), bob);
        let mut bl = BlockList::new(1);
        bl.observe(PeerIp::V4(2), 0);
        f.set_blocklist(bl);
        assert_eq!(f.send(PeerIp::V4(1), ep(2), 10, SimTime(0)), DeliveryOutcome::NullRouted);
        // Two days later the 1-day window has lapsed.
        let later = SimTime::from_day_ms(2, 0);
        assert!(matches!(
            f.send(PeerIp::V4(1), ep(2), 10, later),
            DeliveryOutcome::Delivered { .. }
        ));
    }

    #[test]
    fn latency_is_deterministic_and_symmetric() {
        let f = Fabric::new();
        let a = PeerIp::V4(10);
        let b = PeerIp::V4(20);
        assert_eq!(f.latency(a, b), f.latency(a, b));
        assert_eq!(f.latency(a, b), f.latency(b, a));
        // Different pairs usually differ.
        assert_ne!(f.latency(a, b), f.latency(a, PeerIp::V4(21)));
    }

    #[test]
    fn zero_fault_plane_changes_nothing() {
        let mk = || {
            let mut f = Fabric::new();
            f.register(ep(2), Hash256::digest(b"bob"));
            f
        };
        let mut plain = mk();
        let mut faulted = mk();
        faulted.set_faults(FaultPlane::zero());
        for i in 0..50u32 {
            let t = SimTime(i as u64 * 1000);
            assert_eq!(
                plain.send(PeerIp::V4(1), ep(2), 64, t),
                faulted.send(PeerIp::V4(1), ep(2), 64, t),
            );
        }
        assert_eq!(plain.stats(), faulted.stats());
    }

    #[test]
    fn fault_loss_is_deterministic_and_silent() {
        use i2p_faults::FaultSpec;
        let spec = FaultSpec::parse("loss=0.3").unwrap();
        let run = || {
            let mut f = Fabric::new();
            f.register(ep(2), Hash256::digest(b"bob"));
            f.set_faults(FaultPlane::new(spec, 7));
            (0..200u64)
                .map(|i| f.send(PeerIp::V4(1), ep(2), 64, SimTime(i * 100)))
                .collect::<Vec<_>>()
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "same seed + spec must replay identically");
        let lost = a.iter().filter(|o| matches!(o, DeliveryOutcome::Lost)).count();
        assert!(lost > 20 && lost < 120, "loss=0.3 over 200 sends, got {lost}");
    }

    #[test]
    fn fault_delay_and_duplication_shape_delivery() {
        use i2p_faults::FaultSpec;
        let mut base = Fabric::new();
        let mut f = Fabric::new();
        let bob = Hash256::digest(b"bob");
        base.register(ep(2), bob);
        f.register(ep(2), bob);
        f.set_faults(FaultPlane::new(FaultSpec::parse("delay=1,dup=1").unwrap(), 7));
        let now = SimTime(0);
        let plain_at = match base.send(PeerIp::V4(1), ep(2), 64, now) {
            DeliveryOutcome::Delivered { at, .. } => at,
            other => panic!("unexpected {other:?}"),
        };
        match f.send(PeerIp::V4(1), ep(2), 64, now) {
            DeliveryOutcome::Duplicated { at, again, to } => {
                assert_eq!(to, bob);
                assert_eq!(at, plain_at + FAULT_EXTRA_DELAY);
                assert_eq!(again, at + FAULT_DUP_GAP);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(f.stats().delayed, 1);
        assert_eq!(f.stats().duplicated, 1);
    }

    #[test]
    fn endpoint_reuse_returns_previous() {
        let mut f = Fabric::new();
        let old = Hash256::digest(b"old");
        let new = Hash256::digest(b"new");
        assert_eq!(f.register(ep(5), old), None);
        assert_eq!(f.register(ep(5), new), Some(old));
    }
}
