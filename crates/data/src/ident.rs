//! Router identities.
//!
//! A router identity bundles the router's public keys; its SHA-256 hash is
//! the permanent peer identifier — "generated the first time the I2P
//! router software is installed, and never changes throughout its
//! lifetime" (Hoang et al. §5.1).

use crate::codec::{DecodeError, Reader, Writer};
use crate::hash::Hash256;
use i2p_crypto::elgamal::ElGamalPublic;
use i2p_crypto::DetRng;

/// A router's public identity.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RouterIdentity {
    /// Garlic-encryption public key.
    pub enc_key: ElGamalPublic,
    /// Signing public key material (simulation-grade: used as an HMAC
    /// verification key identifier).
    pub sign_key: [u8; 32],
    /// Certificate type byte (0 = null cert, as in classic I2P).
    pub cert: u8,
}

impl RouterIdentity {
    /// Generates a fresh identity from an RNG stream.
    pub fn generate(rng: &mut DetRng) -> (RouterIdentity, IdentitySecrets) {
        let enc_keypair = i2p_crypto::ElGamalKeyPair::from_secret_material(rng.next_u64());
        let mut sign_key = [0u8; 32];
        rng.fill_bytes(&mut sign_key);
        let ident = RouterIdentity { enc_key: enc_keypair.public, sign_key, cert: 0 };
        (ident, IdentitySecrets { enc_keypair, sign_key })
    }

    /// Encodes the identity.
    pub fn encode(&self, w: &mut Writer) {
        w.u64(self.enc_key.0);
        w.bytes(&self.sign_key);
        w.u8(self.cert);
    }

    /// Decodes an identity.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let enc_key = ElGamalPublic(r.u64("identity.enc_key")?);
        let sign_key = r.array32("identity.sign_key")?;
        let cert = r.u8("identity.cert")?;
        Ok(RouterIdentity { enc_key, sign_key, cert })
    }

    /// The permanent router hash: SHA-256 over the encoded identity.
    pub fn hash(&self) -> Hash256 {
        let mut w = Writer::new();
        self.encode(&mut w);
        Hash256::digest(&w.into_bytes())
    }
}

/// The secret half of an identity (held by the router only).
#[derive(Clone, Debug)]
pub struct IdentitySecrets {
    /// The ElGamal decryption key pair, derived once at generation.
    enc_keypair: i2p_crypto::ElGamalKeyPair,
    /// HMAC signing key (simulation-grade signatures).
    pub sign_key: [u8; 32],
}

impl IdentitySecrets {
    /// Signs `data` (HMAC-SHA256 under the signing key).
    pub fn sign(&self, data: &[u8]) -> [u8; 32] {
        i2p_crypto::hmac_sha256(&self.sign_key, data)
    }

    /// The signing key prepared once for many signatures:
    /// `signing_key().mac(data) == sign(data)`.
    pub fn signing_key(&self) -> i2p_crypto::HmacKey {
        i2p_crypto::HmacKey::new(&self.sign_key)
    }

    /// The decryption key pair.
    pub fn enc_keypair(&self) -> &i2p_crypto::ElGamalKeyPair {
        &self.enc_keypair
    }
}

/// Verifies a signature made by [`IdentitySecrets::sign`].
///
/// Simulation-grade signatures: the RouterIdentity exposes the HMAC key,
/// so "verification" recomputes the MAC. This preserves the *structural*
/// property the measurements need (RouterInfos are integrity-protected
/// and attributable) without an asymmetric signature scheme.
pub fn verify(ident: &RouterIdentity, data: &[u8], sig: &[u8; 32]) -> bool {
    &i2p_crypto::hmac_sha256(&ident.sign_key, data) == sig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_stable_and_unique() {
        let mut rng = DetRng::new(1);
        let (a, _) = RouterIdentity::generate(&mut rng);
        let (b, _) = RouterIdentity::generate(&mut rng);
        assert_eq!(a.hash(), a.hash());
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    fn codec_roundtrip() {
        let mut rng = DetRng::new(2);
        let (ident, _) = RouterIdentity::generate(&mut rng);
        let mut w = Writer::new();
        ident.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(RouterIdentity::decode(&mut r).unwrap(), ident);
    }

    #[test]
    fn sign_verify() {
        let mut rng = DetRng::new(3);
        let (ident, secrets) = RouterIdentity::generate(&mut rng);
        let sig = secrets.sign(b"router info body");
        assert!(verify(&ident, b"router info body", &sig));
        assert!(!verify(&ident, b"tampered body", &sig));
        let (other, _) = RouterIdentity::generate(&mut rng);
        assert!(!verify(&other, b"router info body", &sig));
    }

    #[test]
    fn enc_keypair_matches_public() {
        let mut rng = DetRng::new(4);
        let (ident, secrets) = RouterIdentity::generate(&mut rng);
        assert_eq!(secrets.enc_keypair().public, ident.enc_key);
    }
}
