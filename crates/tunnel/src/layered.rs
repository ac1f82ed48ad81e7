//! Per-hop layer encryption.
//!
//! "When an I2P message is sent over a tunnel …, it is encrypted several
//! times by the originator using the selected hops' public keys. Each hop
//! peels off one encryption layer" (Hoang et al. §2.1.1). The originator
//! derives one symmetric *layer key* per hop (agreed during the tunnel
//! build) and pre-applies all layers; each hop applies its own layer
//! keystream in transit, so the plaintext emerges only at the end of the
//! hop sequence. No intermediate hop ever sees the payload or the full
//! route.

use i2p_crypto::ChaCha20;

/// The symmetric layer keys of one tunnel, gateway-to-endpoint order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TunnelKeys {
    keys: Vec<[u8; 32]>,
}

/// A message in transit through a tunnel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LayeredMessage {
    /// Tunnel message id (for correlating across hops in tests).
    pub msg_id: u64,
    /// Current ciphertext.
    pub body: Vec<u8>,
    /// How many hops have processed the message so far.
    pub hops_done: usize,
}

fn layer_nonce(msg_id: u64) -> [u8; 12] {
    let mut n = [0u8; 12];
    n[..8].copy_from_slice(&msg_id.to_le_bytes());
    n[8..].copy_from_slice(b"layr");
    n
}

impl TunnelKeys {
    /// Wraps per-hop keys (gateway first).
    pub fn new(keys: Vec<[u8; 32]>) -> Self {
        TunnelKeys { keys }
    }

    /// Number of hops.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the tunnel has no hops (0-hop tunnels are legal in I2P).
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Originator side: pre-applies every hop's layer over `payload`.
    pub fn wrap(&self, msg_id: u64, payload: &[u8]) -> LayeredMessage {
        let mut body = payload.to_vec();
        for key in &self.keys {
            ChaCha20::xor(key, &layer_nonce(msg_id), &mut body);
        }
        LayeredMessage { msg_id, body, hops_done: 0 }
    }

    /// Hop side: hop `index` (0 = gateway) peels its layer.
    fn peel(&self, index: usize, msg: &mut LayeredMessage) {
        assert_eq!(msg.hops_done, index, "hops must process in order");
        ChaCha20::xor(&self.keys[index], &layer_nonce(msg.msg_id), &mut msg.body);
        msg.hops_done += 1;
    }

    /// Runs the message through all hops, returning the final plaintext.
    pub fn transit(&self, mut msg: LayeredMessage) -> Vec<u8> {
        for i in 0..self.keys.len() {
            self.peel(i, &mut msg);
        }
        msg.body
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use i2p_crypto::DetRng;

    fn keys(n: usize, seed: u64) -> TunnelKeys {
        let mut rng = DetRng::new(seed);
        TunnelKeys::new(
            (0..n)
                .map(|_| {
                    let mut k = [0u8; 32];
                    rng.fill_bytes(&mut k);
                    k
                })
                .collect(),
        )
    }

    #[test]
    fn plaintext_emerges_after_all_hops() {
        for hops in 1..=7 {
            let tk = keys(hops, 42);
            let payload = b"garlic message".to_vec();
            let wrapped = tk.wrap(1, &payload);
            assert_ne!(wrapped.body, payload);
            assert_eq!(tk.transit(wrapped), payload, "{hops} hops");
        }
    }

    #[test]
    fn intermediate_hops_see_ciphertext() {
        let tk = keys(3, 7);
        let payload = b"secret-secret-secret".to_vec();
        let mut msg = tk.wrap(9, &payload);
        tk.peel(0, &mut msg);
        assert_ne!(msg.body, payload, "after gateway");
        tk.peel(1, &mut msg);
        assert_ne!(msg.body, payload, "after middle hop");
        tk.peel(2, &mut msg);
        assert_eq!(msg.body, payload, "after endpoint");
    }

    #[test]
    #[should_panic(expected = "hops must process in order")]
    fn out_of_order_peel_panics() {
        let tk = keys(2, 8);
        let mut msg = tk.wrap(1, b"x");
        tk.peel(1, &mut msg);
    }

    #[test]
    fn zero_hop_tunnel_is_identity() {
        let tk = keys(0, 9);
        let msg = tk.wrap(1, b"direct");
        assert_eq!(tk.transit(msg), b"direct".to_vec());
    }

    #[test]
    fn distinct_messages_use_distinct_keystreams() {
        let tk = keys(2, 10);
        let a = tk.wrap(1, b"same payload");
        let b = tk.wrap(2, b"same payload");
        assert_ne!(a.body, b.body);
    }
}
