//! HMAC-SHA256 (RFC 2104 / FIPS 198-1).
//!
//! Used by the NTCP-style transport to authenticate session frames, and by
//! the reseed server to derive its deterministic per-source-IP answer set
//! (the anti-harvesting property described in Hoang et al. §4).
//!
//! [`HmacKey`] absorbs a key's ipad/opad blocks once, so a key that signs
//! many messages (an archive identity signing one RouterInfo per day)
//! pays two compressions fewer per MAC; [`hmac_sha256`] is the one-shot
//! form of the same computation.

use crate::sha256::{sha256, Sha256};

const BLOCK: usize = 64;

/// An HMAC-SHA256 key with its inner (ipad) and outer (opad) blocks
/// already absorbed: each [`HmacKey::mac`] resumes from those states.
#[derive(Clone)]
pub struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl HmacKey {
    /// Prepares `key` (hashed first if it exceeds the 64-byte block).
    pub fn new(key: &[u8]) -> HmacKey {
        let mut k = [0u8; BLOCK];
        if key.len() > BLOCK {
            let d = sha256(key);
            k[..32].copy_from_slice(&d);
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0x36u8; BLOCK];
        let mut opad = [0x5cu8; BLOCK];
        for i in 0..BLOCK {
            ipad[i] ^= k[i];
            opad[i] ^= k[i];
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        HmacKey { inner, outer }
    }

    /// Computes `HMAC-SHA256(key, msg)`.
    pub fn mac(&self, msg: &[u8]) -> [u8; 32] {
        let mut inner = self.inner.clone();
        inner.update(msg);
        let inner_digest = inner.finalize();
        let mut outer = self.outer.clone();
        outer.update(&inner_digest);
        outer.finalize()
    }
}

/// Computes `HMAC-SHA256(key, msg)`.
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> [u8; 32] {
    HmacKey::new(key).mac(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    // RFC 4231 test vectors.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        assert_eq!(
            hex(&hmac_sha256(&key, b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        assert_eq!(
            hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3() {
        let key = [0xaau8; 20];
        let msg = [0xddu8; 50];
        assert_eq!(
            hex(&hmac_sha256(&key, &msg)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaau8; 131];
        assert_eq!(
            hex(&hmac_sha256(
                &key,
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn prepared_keys_match_rfc4231_when_reused() {
        // Cases 4–7 through prepared keys: the 131-byte key (hashed
        // first) signs both of its messages from one `HmacKey`, and each
        // key MACs again after its first use — `mac` must leave the
        // absorbed pad states untouched.
        let key4 = HmacKey::new(&(1..=25u8).collect::<Vec<u8>>());
        let key5 = HmacKey::new(&[0x0cu8; 20]);
        let key67 = HmacKey::new(&[0xaau8; 131]);
        for _ in 0..2 {
            assert_eq!(
                hex(&key4.mac(&[0xcdu8; 50])),
                "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
            );
            // Case 5 specifies only the first 128 bits.
            assert_eq!(
                hex(&key5.mac(b"Test With Truncation")[..16]),
                "a3b6167473100ee06e0c796c2955552b"
            );
            assert_eq!(
                hex(&key67.mac(b"Test Using Larger Than Block-Size Key - Hash Key First")),
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
            );
            assert_eq!(
                hex(&key67.mac(
                    b"This is a test using a larger than block-size key and a larger than \
                      block-size data. The key needs to be hashed before being used by the \
                      HMAC algorithm."
                )),
                "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
            );
        }
    }

    #[test]
    fn distinct_keys_distinct_macs() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
        assert_ne!(hmac_sha256(b"k", b"m1"), hmac_sha256(b"k", b"m2"));
    }
}
