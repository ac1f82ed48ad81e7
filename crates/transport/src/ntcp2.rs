//! NTCP2-style obfuscated session establishment.
//!
//! Hoang et al. §2.2.2: the classic NTCP handshake is fingerprintable by
//! its fixed 288/304/448/48-byte message sizes, and "to solve this
//! problem, the I2P team is working on the development of an
//! authenticated key agreement protocol that resists various forms of
//! automated identification" (proposal 111, NTCP2). This module models
//! the property of NTCP2 that matters for the censorship analysis:
//! **randomised frame padding** drawn per-connection from a negotiated
//! distribution, destroying the length signature while keeping the same
//! DH + confirmation structure as [`crate::handshake`].

use crate::handshake::{Handshake, HandshakeError, HandshakeMsg};
use i2p_crypto::DetRng;
use i2p_data::Hash256;

/// Padding bounds per message (min, max extra bytes). NTCP2 pads with
/// 0–31 bytes per frame plus variable-length options blocks; we use a
/// wider envelope so the four messages' sizes overlap with common TLS
/// record sizes.
const PAD_RANGE: (usize, usize) = (0, 64);

/// The base (unpadded) sizes — deliberately *not* the NTCP constants, so
/// even the minimum-padding case differs from the legacy signature.
const BASE_SIZES: [usize; 4] = [64, 96, 120, 40];

/// An NTCP2-style handshake driver: wraps the legacy state machine but
/// re-frames every message with randomised padding.
pub struct Ntcp2Handshake {
    inner: Handshake,
}

fn reframe(msg: HandshakeMsg, rng: &mut DetRng) -> HandshakeMsg {
    // Keep the first 72 bytes (key material + MAC + hash live in the
    // prefix), then pad to base + random.
    let step = msg.step as usize;
    let keep = msg.bytes.len().min(72);
    let mut bytes = msg.bytes[..keep].to_vec();
    let target = BASE_SIZES[step] + PAD_RANGE.0
        + rng.below((PAD_RANGE.1 - PAD_RANGE.0) as u64 + 1) as usize;
    let target = target.max(keep);
    while bytes.len() < target {
        bytes.push(rng.next_u32() as u8);
    }
    HandshakeMsg { step: msg.step, bytes }
}

fn unframe(msg: &HandshakeMsg) -> HandshakeMsg {
    // Restore the legacy fixed frame so the inner state machine's size
    // checks pass: truncate-or-pad deterministically (padding bytes are
    // ignored by the inner logic, which reads only the prefix).
    let step = msg.step as usize;
    let want = crate::handshake::HANDSHAKE_SIZES[step];
    let mut bytes = msg.bytes.clone();
    bytes.resize(want, 0);
    HandshakeMsg { step: msg.step, bytes }
}

impl Ntcp2Handshake {
    /// Initiator side.
    pub fn initiator(local_hash: Hash256, rng: &mut DetRng) -> Self {
        Ntcp2Handshake { inner: Handshake::initiator(local_hash, rng) }
    }

    /// Responder side.
    pub fn responder(local_hash: Hash256, rng: &mut DetRng) -> Self {
        Ntcp2Handshake { inner: Handshake::responder(local_hash, rng) }
    }

    /// Initiator step 1 with randomised framing.
    pub fn start(&mut self, rng: &mut DetRng) -> Result<HandshakeMsg, HandshakeError> {
        let msg = self.inner.start(rng)?;
        Ok(reframe(msg, rng))
    }

    /// Processes an incoming (padded) message, producing a padded reply.
    pub fn on_message(
        &mut self,
        msg: &HandshakeMsg,
        rng: &mut DetRng,
    ) -> Result<Option<HandshakeMsg>, HandshakeError> {
        let inner_msg = unframe(msg);
        let reply = self.inner.on_message(&inner_msg, rng)?;
        Ok(reply.map(|m| reframe(m, rng)))
    }

    /// The established session key, if complete.
    pub fn session_key(&self) -> Option<i2p_crypto::dh::SharedSecret> {
        self.inner.session_key()
    }
}

/// Drives a complete NTCP2-style handshake, returning both sides plus
/// the on-wire message sizes a middlebox would observe.
pub fn run_ntcp2_handshake(
    a_hash: Hash256,
    b_hash: Hash256,
    rng: &mut DetRng,
) -> Result<(Ntcp2Handshake, Ntcp2Handshake, Vec<usize>), HandshakeError> {
    let mut a = Ntcp2Handshake::initiator(a_hash, rng);
    let mut b = Ntcp2Handshake::responder(b_hash, rng);
    let mut sizes = Vec::with_capacity(4);
    let m1 = a.start(rng)?;
    sizes.push(m1.len());
    let m2 = b.on_message(&m1, rng)?.ok_or(HandshakeError::Protocol)?;
    sizes.push(m2.len());
    let m3 = a.on_message(&m2, rng)?.ok_or(HandshakeError::Protocol)?;
    sizes.push(m3.len());
    let m4 = b.on_message(&m3, rng)?.ok_or(HandshakeError::Protocol)?;
    sizes.push(m4.len());
    if a.on_message(&m4, rng)?.is_some() {
        return Err(HandshakeError::Protocol);
    }
    Ok((a, b, sizes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpi::{classify_flow, FlowVerdict};

    #[test]
    fn ntcp2_establishes_matching_keys() {
        let mut rng = DetRng::new(1);
        let (a, b, _) =
            run_ntcp2_handshake(Hash256::digest(b"a"), Hash256::digest(b"b"), &mut rng).unwrap();
        assert!(a.session_key().is_some());
        assert_eq!(a.session_key(), b.session_key());
    }

    #[test]
    fn ntcp2_defeats_the_dpi_classifier() {
        let mut rng = DetRng::new(2);
        for _ in 0..50 {
            let (_, _, sizes) =
                run_ntcp2_handshake(Hash256::digest(b"a"), Hash256::digest(b"b"), &mut rng)
                    .unwrap();
            assert_eq!(
                classify_flow(&sizes),
                FlowVerdict::Unknown,
                "padded sizes {sizes:?} must not match the NTCP signature"
            );
        }
    }

    #[test]
    fn ntcp2_sizes_vary_between_connections() {
        let mut rng = DetRng::new(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..20 {
            let (_, _, sizes) =
                run_ntcp2_handshake(Hash256::digest(b"a"), Hash256::digest(b"b"), &mut rng)
                    .unwrap();
            seen.insert(sizes);
        }
        assert!(seen.len() > 10, "randomised padding: {} distinct size tuples", seen.len());
    }

    #[test]
    fn legacy_handshake_still_detected_for_contrast() {
        let mut rng = DetRng::new(4);
        let (_, _, sizes) = crate::handshake::run_handshake(
            Hash256::digest(b"a"),
            Hash256::digest(b"b"),
            &mut rng,
        )
        .unwrap();
        assert_eq!(classify_flow(&sizes), FlowVerdict::I2pNtcp);
    }

    #[test]
    fn tampered_ntcp2_confirm_fails() {
        let mut rng = DetRng::new(5);
        let mut a = Ntcp2Handshake::initiator(Hash256::digest(b"a"), &mut rng);
        let mut b = Ntcp2Handshake::responder(Hash256::digest(b"b"), &mut rng);
        let m1 = a.start(&mut rng).unwrap();
        let m2 = b.on_message(&m1, &mut rng).unwrap().unwrap();
        let mut m3 = a.on_message(&m2, &mut rng).unwrap().unwrap();
        m3.bytes[0] ^= 0xFF;
        assert_eq!(b.on_message(&m3, &mut rng), Err(HandshakeError::BadAuth));
    }
}
