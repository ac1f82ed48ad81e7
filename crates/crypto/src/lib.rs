//! # i2p-crypto — cryptographic primitives for the i2pscope emulator
//!
//! From-scratch implementations of every primitive the emulated I2P stack
//! needs:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256 (used for router hashes and the daily
//!   netDb *routing keys*, see Hoang et al. §2.1.2).
//! * [`hmac`] — HMAC-SHA256 (session MACs in the NTCP-style transport,
//!   RouterInfo signatures), one-shot or through a prepared [`HmacKey`].
//! * [`chacha20`] — the ChaCha20 stream cipher, standing in for the
//!   AES-256/CBC layer I2P uses inside garlic ("ElGamal/AES") encryption.
//! * [`elgamal`] — ElGamal over a simulation-grade group (a 61-bit safe
//!   prime); it exercises the real encrypt-to-router-key code path at
//!   simulation cost.
//! * [`dh`] — Diffie-Hellman over the same group (NTCP session
//!   establishment).
//! * [`rng`] — a small, fast, splittable deterministic RNG
//!   (SplitMix64 + xoshiro256++) so that every subsystem gets an
//!   independent, reproducible randomness stream.
//!
//! ## Security disclaimer
//!
//! The asymmetric primitives use a deliberately tiny group so that a
//! 32 000-router, 90-day simulation stays cheap. They are **not** secure
//! and must never be used outside this testbed. The symmetric primitives
//! (SHA-256, HMAC, ChaCha20) are real, test-vector-checked
//! implementations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chacha20;
pub mod dh;
pub mod elgamal;
pub mod hmac;
pub mod rng;
pub mod sha256;

pub use chacha20::ChaCha20;
pub use dh::{DhKeyPair, DhPublic, SharedSecret};
pub use elgamal::{ElGamalCiphertext, ElGamalKeyPair, ElGamalPublic};
pub use hmac::{hmac_sha256, HmacKey};
pub use rng::DetRng;
pub use sha256::{sha256, Sha256};
