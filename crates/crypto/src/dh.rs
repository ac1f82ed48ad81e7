//! Diffie–Hellman over a simulation-grade prime-field group.
//!
//! The group is `Z_p^*` with the Mersenne prime `p = 2^61 − 1` and
//! generator `g = 37` (verified to be a primitive root by the unit tests,
//! which check `g^((p−1)/f) ≠ 1` for every prime factor `f` of `p − 1`).
//!
//! The NTCP-style transport (see `i2p-transport`) performs a DH exchange in
//! its fixed-size handshake, mirroring the real NTCP handshake whose four
//! messages have the fingerprintable lengths 288/304/448/48 bytes
//! (Hoang et al. §2.2.2).

use crate::sha256::sha256;

/// The group modulus: the Mersenne prime `2^61 − 1`.
pub const MODULUS: u64 = (1u64 << 61) - 1;
/// The group generator (a primitive root modulo [`MODULUS`]).
const GENERATOR: u64 = 37;

/// `MODULUS` widened: the mask of one 61-bit limb of a product.
const LIMB: u128 = MODULUS as u128;

/// Modular multiplication in `Z_p`, for any `u64` operands (decryption
/// takes ciphertext halves off the wire unreduced); the result lies in
/// `[0, p)`. Since `2^61 ≡ 1 (mod p)`, the 128-bit product folds as
/// `(x & p) + (x >> 61)`: the first fold leaves less than `2^68`, the
/// second less than `p + 2^7`, and one conditional subtraction finishes
/// the reduction without a 128-bit division.
#[inline]
pub const fn mul_mod(a: u64, b: u64) -> u64 {
    let x = a as u128 * b as u128;
    let x = (x & LIMB) + (x >> 61);
    let x = ((x & LIMB) + (x >> 61)) as u64;
    if x >= MODULUS {
        x - MODULUS
    } else {
        x
    }
}

/// Modular exponentiation `base^exp mod p` (square-and-multiply), for
/// any `u64` base and exponent.
pub fn pow_mod(mut base: u64, mut exp: u64) -> u64 {
    let mut acc: u64 = 1;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base);
        }
        base = mul_mod(base, base);
        exp >>= 1;
    }
    acc
}

/// `G_POWERS[i][j] = g^(j · 16^i) mod p`: one row per hex digit of a
/// `u64` exponent, computed at compile time.
static G_POWERS: [[u64; 16]; 16] = nibble_powers(GENERATOR);

const fn nibble_powers(g: u64) -> [[u64; 16]; 16] {
    let mut table = [[1u64; 16]; 16];
    // `g^(16^i)` for the row being filled.
    let mut base = g;
    let mut i = 0;
    while i < 16 {
        let mut j = 1;
        while j < 16 {
            table[i][j] = mul_mod(table[i][j - 1], base);
            j += 1;
        }
        base = mul_mod(table[i][15], base);
        i += 1;
    }
    table
}

/// Fixed-base exponentiation `g^exp mod p` for the group generator:
/// one table multiply per hex digit of `exp`, 16 in all, where
/// [`pow_mod`] squares and multiplies up to 128 times.
pub fn pow_g(exp: u64) -> u64 {
    G_POWERS.iter().enumerate().fold(1, |acc, (i, row)| {
        mul_mod(acc, row[(exp >> (4 * i)) as usize & 15])
    })
}

/// A DH public key (`g^x mod p`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DhPublic(pub u64);

/// A DH key pair.
#[derive(Clone, Debug)]
pub struct DhKeyPair {
    secret: u64,
    /// The public element `g^secret`.
    pub public: DhPublic,
}

/// A derived shared secret, hashed to 32 bytes for use as a symmetric key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SharedSecret(pub [u8; 32]);

impl DhKeyPair {
    /// Derives a key pair from 8 bytes of secret material.
    ///
    /// The secret is reduced into `[2, p−2]`; callers supply randomness
    /// from their [`crate::DetRng`] stream.
    pub fn from_secret_material(material: u64) -> Self {
        let secret = 2 + material % (MODULUS - 3);
        let public = DhPublic(pow_g(secret));
        DhKeyPair { secret, public }
    }

    /// Computes the shared secret with the peer's public element.
    pub fn shared(&self, other: DhPublic) -> SharedSecret {
        let point = pow_mod(other.0, self.secret);
        let mut material = [0u8; 16];
        material[..8].copy_from_slice(&point.to_le_bytes());
        material[8..].copy_from_slice(b"i2p-ntcp");
        SharedSecret(sha256(&material))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Prime factors of `p − 1 = 2^61 − 2`.
    const FACTORS: [u64; 12] = [2, 3, 5, 7, 11, 13, 31, 41, 61, 151, 331, 1321];

    /// The textbook product: a 128-bit `%`.
    fn mul_reference(a: u64, b: u64) -> u64 {
        ((a as u128 * b as u128) % MODULUS as u128) as u64
    }

    /// Square-and-multiply on [`mul_reference`].
    fn pow_reference(mut base: u64, mut exp: u64) -> u64 {
        let mut acc = 1;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = mul_reference(acc, base);
            }
            base = mul_reference(base, base);
            exp >>= 1;
        }
        acc
    }

    /// Any `u64`, with the edges of the fold drawn often: zero, one,
    /// the modulus and its neighbours, values at or above it, and the
    /// largest `u64`.
    fn operand() -> impl Strategy<Value = u64> {
        prop_oneof![
            any::<u64>(),
            Just(0u64),
            Just(1u64),
            Just(MODULUS - 1),
            Just(MODULUS),
            Just(MODULUS + 1),
            Just(u64::MAX),
            MODULUS..=u64::MAX,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        #[test]
        fn folded_mul_mod_matches_the_128_bit_remainder(a in operand(), b in operand()) {
            prop_assert_eq!(mul_mod(a, b), mul_reference(a, b));
        }

        #[test]
        fn pow_g_and_pow_mod_match_square_and_multiply(e in operand(), base in operand()) {
            prop_assert_eq!(pow_g(e), pow_reference(GENERATOR, e));
            prop_assert_eq!(pow_mod(base, e), pow_reference(base, e));
        }
    }

    #[test]
    fn factorization_of_group_order_is_complete() {
        let mut n: u128 = (MODULUS - 1) as u128;
        for f in FACTORS {
            while n % f as u128 == 0 {
                n /= f as u128;
            }
        }
        assert_eq!(n, 1, "FACTORS must cover p-1 completely");
    }

    #[test]
    fn generator_is_primitive_root() {
        for f in FACTORS {
            let e = (MODULUS - 1) / f;
            assert_ne!(pow_g(e), 1, "generator has order dividing (p-1)/{f}");
        }
    }

    #[test]
    fn pow_mod_basics() {
        assert_eq!(pow_mod(2, 10), 1024);
        assert_eq!(pow_mod(5, 0), 1);
        assert_eq!(pow_mod(0, 5), 0);
        // An unreduced base reduces first.
        assert_eq!(pow_mod(MODULUS + 2, 3), 8);
        // Fermat: a^(p-1) = 1 mod p.
        assert_eq!(pow_mod(123456789, MODULUS - 1), 1);
    }

    #[test]
    fn dh_agreement() {
        let alice = DhKeyPair::from_secret_material(0xDEADBEEF);
        let bob = DhKeyPair::from_secret_material(0xC0FFEE);
        assert_eq!(alice.shared(bob.public), bob.shared(alice.public));
        let eve = DhKeyPair::from_secret_material(0xBAD);
        assert_ne!(alice.shared(bob.public), alice.shared(eve.public));
    }
}
