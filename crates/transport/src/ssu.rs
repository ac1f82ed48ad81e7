//! SSU-style introduction (hole punching) state machine.
//!
//! Hoang et al. §5.1: "An I2P peer (e.g., Bob) who resides behind a
//! firewall …, can choose some peers in the network to become his
//! introducers. … another peer (e.g., Alice) sends a request packet to
//! one of the introducers, asking it to introduce her to Bob. The
//! introducer then forwards the request to Bob by including Alice's
//! public IP and port number, and sends a response back to Alice,
//! containing Bob's public IP and port number. Once Bob receives
//! Alice's information, he sends out a small random packet to Alice's
//! IP and port, thus punching a hole in his firewall."
//!
//! This module implements that three-party exchange as explicit typed
//! messages and state machines, so the firewalled-peer experiments have
//! a protocol-level footing (the `TestNet` harness models the same
//! semantics at message granularity).

use i2p_data::addr::Introducer;
use i2p_data::{Hash256, PeerIp};

/// Messages of the introduction protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
enum IntroMessage {
    /// Alice → introducer: please introduce me to `target` (tag
    /// authenticates that the introducer really serves that peer).
    RelayRequest {
        /// The firewalled peer to reach.
        target: Hash256,
        /// The introduction tag from the target's RouterInfo.
        tag: u32,
        /// Alice's public endpoint.
        from_ip: PeerIp,
        /// Alice's port.
        from_port: u16,
    },
    /// Introducer → Bob: someone wants to talk to you.
    RelayIntro {
        /// Alice's public IP.
        alice_ip: PeerIp,
        /// Alice's port.
        alice_port: u16,
    },
    /// Introducer → Alice: here is Bob's real endpoint.
    RelayResponse {
        /// Bob's (hole-punched) IP.
        target_ip: PeerIp,
        /// Bob's port.
        target_port: u16,
    },
    /// Bob → Alice: the hole punch (small random packet; contents
    /// irrelevant, the stateful firewall entry is the point).
    HolePunch,
}

/// The introducer's registration table: tag → (peer, private endpoint).
#[derive(Clone, Debug, Default)]
pub struct IntroducerTable {
    entries: Vec<(u32, Hash256, PeerIp, u16)>,
}

impl IntroducerTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bob registers with this introducer, receiving a tag.
    pub fn register(&mut self, peer: Hash256, private_ip: PeerIp, port: u16, tag: u32) -> Introducer {
        self.entries.retain(|(_, p, _, _)| *p != peer);
        self.entries.push((tag, peer, private_ip, port));
        Introducer { router: peer, ip: private_ip, tag }
    }

    /// Number of registered peers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no peers are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Handles a RelayRequest: validates the tag and produces the
    /// RelayIntro (to Bob) and RelayResponse (to Alice), or `None` if
    /// the tag does not match (stale RouterInfo or forgery).
    fn handle_request(
        &self,
        msg: &IntroMessage,
    ) -> Option<(Hash256, IntroMessage, IntroMessage)> {
        let IntroMessage::RelayRequest { target, tag, from_ip, from_port } = msg else {
            return None;
        };
        let (_, peer, ip, port) = self
            .entries
            .iter()
            .find(|(t, p, _, _)| t == tag && p == target)?;
        Some((
            *peer,
            IntroMessage::RelayIntro { alice_ip: *from_ip, alice_port: *from_port },
            IntroMessage::RelayResponse { target_ip: *ip, target_port: *port },
        ))
    }
}

/// Bob's (firewalled peer's) side: reacting to a RelayIntro.
fn firewalled_on_intro(msg: &IntroMessage) -> Option<(PeerIp, u16, IntroMessage)> {
    let IntroMessage::RelayIntro { alice_ip, alice_port } = msg else {
        return None;
    };
    Some((*alice_ip, *alice_port, IntroMessage::HolePunch))
}

/// A minimal stateful-firewall model: outbound packets open return
/// paths for a while.
#[derive(Clone, Debug, Default)]
pub struct StatefulFirewall {
    open: Vec<(PeerIp, u16)>,
}

impl StatefulFirewall {
    /// New firewall with no pinholes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an outbound packet (opens the return path).
    pub fn outbound(&mut self, to_ip: PeerIp, to_port: u16) {
        if !self.open.contains(&(to_ip, to_port)) {
            self.open.push((to_ip, to_port));
        }
    }

    /// Whether an inbound packet from this source passes.
    pub fn inbound_allowed(&self, from_ip: PeerIp, from_port: u16) -> bool {
        self.open.contains(&(from_ip, from_port))
    }
}

/// Drives the complete introduction dance, returning whether Alice can
/// reach Bob afterwards.
pub fn run_introduction(
    table: &IntroducerTable,
    bob_firewall: &mut StatefulFirewall,
    target: Hash256,
    tag: u32,
    alice_ip: PeerIp,
    alice_port: u16,
) -> bool {
    let request = IntroMessage::RelayRequest { target, tag, from_ip: alice_ip, from_port: alice_port };
    let Some((_bob, intro, _response)) = table.handle_request(&request) else {
        return false;
    };
    let Some((a_ip, a_port, IntroMessage::HolePunch)) = firewalled_on_intro(&intro) else {
        return false;
    };
    // Bob's hole punch opens the return path through his firewall.
    bob_firewall.outbound(a_ip, a_port);
    bob_firewall.inbound_allowed(alice_ip, alice_port)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bob() -> Hash256 {
        Hash256::digest(b"bob")
    }

    #[test]
    fn full_introduction_opens_the_path() {
        let mut table = IntroducerTable::new();
        table.register(bob(), PeerIp::V4(0x0A00_0002), 10001, 42);
        let mut fw = StatefulFirewall::new();
        let alice = PeerIp::V4(0x0A00_0001);
        assert!(!fw.inbound_allowed(alice, 9001), "closed before the dance");
        assert!(run_introduction(&table, &mut fw, bob(), 42, alice, 9001));
        assert!(fw.inbound_allowed(alice, 9001), "pinhole open after the dance");
    }

    #[test]
    fn wrong_tag_rejected() {
        let mut table = IntroducerTable::new();
        table.register(bob(), PeerIp::V4(2), 10001, 42);
        let mut fw = StatefulFirewall::new();
        assert!(!run_introduction(&table, &mut fw, bob(), 41, PeerIp::V4(1), 9001));
        assert!(!fw.inbound_allowed(PeerIp::V4(1), 9001));
    }

    #[test]
    fn unknown_target_rejected() {
        let table = IntroducerTable::new();
        let mut fw = StatefulFirewall::new();
        assert!(!run_introduction(
            &table,
            &mut fw,
            Hash256::digest(b"stranger"),
            1,
            PeerIp::V4(1),
            9001
        ));
    }

    #[test]
    fn reregistration_replaces_old_tag() {
        let mut table = IntroducerTable::new();
        table.register(bob(), PeerIp::V4(2), 10001, 42);
        table.register(bob(), PeerIp::V4(3), 10002, 43);
        assert_eq!(table.len(), 1, "one entry per peer");
        let mut fw = StatefulFirewall::new();
        assert!(!run_introduction(&table, &mut fw, bob(), 42, PeerIp::V4(1), 9001), "old tag dead");
        assert!(run_introduction(&table, &mut fw, bob(), 43, PeerIp::V4(1), 9001), "new tag works");
    }

    #[test]
    fn firewall_is_per_source() {
        let mut table = IntroducerTable::new();
        table.register(bob(), PeerIp::V4(2), 10001, 7);
        let mut fw = StatefulFirewall::new();
        assert!(run_introduction(&table, &mut fw, bob(), 7, PeerIp::V4(1), 9001));
        // A different source (the censor probing) is still blocked.
        assert!(!fw.inbound_allowed(PeerIp::V4(99), 9001));
        assert!(!fw.inbound_allowed(PeerIp::V4(1), 9002));
    }
}
