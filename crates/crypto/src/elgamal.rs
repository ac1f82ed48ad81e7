//! ElGamal encryption and the hybrid "ElGamal/AES" construction I2P calls
//! *garlic encryption* (Hoang et al. §2.1.1).
//!
//! A garlic message is end-to-end encrypted by the originator to the
//! destination's public key: a random session key encrypts the payload with
//! a symmetric cipher, and the session key itself is ElGamal-encrypted to
//! the recipient. We mirror that construction with ChaCha20 as the
//! symmetric layer ([`ElGamalPublic::seal`] / [`ElGamalKeyPair::open`]).

use crate::chacha20::ChaCha20;
use crate::dh::{mul_mod, pow_g, pow_mod, MODULUS};
use crate::rng::DetRng;
use crate::sha256::sha256;

/// An ElGamal public key (`y = g^x`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ElGamalPublic(pub u64);

/// An ElGamal key pair.
#[derive(Clone, Debug)]
pub struct ElGamalKeyPair {
    secret: u64,
    /// Public element.
    pub public: ElGamalPublic,
}

/// A raw ElGamal ciphertext pair `(c1, c2)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ElGamalCiphertext {
    /// `g^k`.
    pub c1: u64,
    /// `m · y^k`.
    pub c2: u64,
}

/// A sealed (hybrid-encrypted) garlic payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SealedBox {
    /// ElGamal encryption of the symmetric session scalar.
    pub header: ElGamalCiphertext,
    /// ChaCha20-encrypted payload.
    pub body: Vec<u8>,
}

impl ElGamalKeyPair {
    /// Derives a key pair from secret material (reduced into the group).
    pub fn from_secret_material(material: u64) -> Self {
        let secret = 2 + material % (MODULUS - 3);
        ElGamalKeyPair { secret, public: ElGamalPublic(pow_g(secret)) }
    }

    /// Decrypts a raw group-element message: `c2 · c1^(−x)`. By
    /// Fermat, `c1^(−x) = c1^(p−1−x)`, one exponentiation where
    /// `(c1^x)^(p−2)` takes two; and since `x ≤ p−2`, the exponent is
    /// at least 1, so `c1 ≡ 0` still decrypts to 0.
    fn decrypt(&self, ct: ElGamalCiphertext) -> u64 {
        mul_mod(ct.c2, pow_mod(ct.c1, MODULUS - 1 - self.secret))
    }

    /// Opens a [`SealedBox`], returning the plaintext, or `None` if the
    /// integrity tag embedded in the body does not verify.
    pub fn open(&self, sealed: &SealedBox) -> Option<Vec<u8>> {
        let scalar = self.decrypt(sealed.header);
        let key = session_key(scalar);
        let mut body = sealed.body.clone();
        ChaCha20::xor(&key, &NONCE, &mut body);
        if body.len() < 8 {
            return None;
        }
        let (payload, tag) = body.split_at(body.len() - 8);
        let expect = sha256(payload);
        if tag != &expect[..8] {
            return None;
        }
        Some(payload.to_vec())
    }
}

const NONCE: [u8; 12] = *b"i2p-garlic!!";

fn session_key(scalar: u64) -> [u8; 32] {
    let mut material = [0u8; 16];
    material[..8].copy_from_slice(&scalar.to_le_bytes());
    material[8..].copy_from_slice(b"sess-key");
    sha256(&material)
}

impl ElGamalPublic {
    /// Encrypts a raw group element `m ∈ [1, p−1]`.
    fn encrypt(&self, m: u64, rng: &mut DetRng) -> ElGamalCiphertext {
        debug_assert!((1..MODULUS).contains(&m));
        let k = 2 + rng.next_u64() % (MODULUS - 3);
        ElGamalCiphertext {
            c1: pow_g(k),
            c2: mul_mod(m, pow_mod(self.0, k)),
        }
    }

    /// Seals `payload` to this key: hybrid ElGamal + ChaCha20 with an
    /// 8-byte truncated-SHA256 integrity tag (garlic-style).
    pub fn seal(&self, payload: &[u8], rng: &mut DetRng) -> SealedBox {
        let scalar = 1 + rng.next_u64() % (MODULUS - 2);
        let header = self.encrypt(scalar, rng);
        let key = session_key(scalar);
        let mut body = Vec::with_capacity(payload.len() + 8);
        body.extend_from_slice(payload);
        let tag = sha256(payload);
        body.extend_from_slice(&tag[..8]);
        ChaCha20::xor(&key, &NONCE, &mut body);
        SealedBox { header, body }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        #[test]
        fn decrypt_matches_the_inverse_formula(
            material in any::<u64>(),
            c1 in prop_oneof![
                any::<u64>(),
                (0u64..=u64::MAX / MODULUS).prop_map(|k| k * MODULUS),
                Just(1u64),
                Just(MODULUS - 1),
                MODULUS..=u64::MAX,
            ],
            c2 in any::<u64>(),
        ) {
            // The textbook formula `c2 · (c1^x)^(−1)`, the inverse taken
            // by Fermat as `s^(p−2)` (which maps 0 to 0).
            let kp = ElGamalKeyPair::from_secret_material(material);
            let s = pow_mod(c1, kp.secret);
            let textbook = mul_mod(c2, pow_mod(s, MODULUS - 2));
            prop_assert_eq!(kp.decrypt(ElGamalCiphertext { c1, c2 }), textbook);
        }
    }

    #[test]
    fn raw_roundtrip() {
        let kp = ElGamalKeyPair::from_secret_material(0x1234_5678);
        let mut rng = DetRng::new(1);
        for m in [1u64, 42, MODULUS - 1, 999_999_937] {
            let ct = kp.public.encrypt(m, &mut rng);
            assert_eq!(kp.decrypt(ct), m);
        }
    }

    #[test]
    fn encryption_is_randomized() {
        let kp = ElGamalKeyPair::from_secret_material(9);
        let mut rng = DetRng::new(2);
        let a = kp.public.encrypt(77, &mut rng);
        let b = kp.public.encrypt(77, &mut rng);
        assert_ne!(a, b);
        assert_eq!(kp.decrypt(a), kp.decrypt(b));
    }

    #[test]
    fn seal_open_roundtrip() {
        let kp = ElGamalKeyPair::from_secret_material(0xABCDEF);
        let mut rng = DetRng::new(3);
        let payload = b"garlic clove: delivery instructions + message".to_vec();
        let sealed = kp.public.seal(&payload, &mut rng);
        assert_ne!(sealed.body, payload);
        assert_eq!(kp.open(&sealed).as_deref(), Some(payload.as_slice()));
    }

    #[test]
    fn open_with_wrong_key_fails() {
        let kp = ElGamalKeyPair::from_secret_material(111);
        let other = ElGamalKeyPair::from_secret_material(222);
        let mut rng = DetRng::new(4);
        let sealed = kp.public.seal(b"secret", &mut rng);
        assert_eq!(other.open(&sealed), None);
    }

    #[test]
    fn tampering_detected() {
        let kp = ElGamalKeyPair::from_secret_material(333);
        let mut rng = DetRng::new(5);
        let mut sealed = kp.public.seal(b"authentic", &mut rng);
        sealed.body[0] ^= 1;
        assert_eq!(kp.open(&sealed), None);
    }

    #[test]
    fn empty_payload() {
        let kp = ElGamalKeyPair::from_secret_material(444);
        let mut rng = DetRng::new(6);
        let sealed = kp.public.seal(b"", &mut rng);
        assert_eq!(kp.open(&sealed).as_deref(), Some(&b""[..]));
    }
}
