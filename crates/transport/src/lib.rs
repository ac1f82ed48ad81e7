//! # i2p-transport — simulated transports and the censor's chokepoint
//!
//! The transport layer is where address-based censorship physically acts,
//! so this crate models exactly the pieces Hoang et al. §6 exercises:
//!
//! * [`fabric`] — a simulated internet: endpoints keyed by `(IP, port)`,
//!   deterministic per-pair latency, and **null-routing** of blocked
//!   destinations ("the address-based blocking implemented in the GFW of
//!   China uses the null routing technique", §6.2.3) — a SYN to a blocked
//!   IP is silently dropped and the initiator hits its connect timeout.
//! * [`blocklist`] — the censor's blacklist with time-windowed entries
//!   (§6.2.2's 1/5/10/20/30-day windows).
//! * [`handshake`] — the NTCP-style session establishment whose first
//!   four messages have the fingerprintable fixed lengths
//!   **288, 304, 448, 48 bytes** (§2.2.2).
//! * [`dpi`] — a flow classifier that detects those lengths, reproducing
//!   the paper's observation that I2P is DPI-fingerprintable today.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocklist;
pub mod dpi;
pub mod fabric;
pub mod handshake;
pub mod ntcp2;
pub mod ssu;

pub use blocklist::BlockList;
pub use dpi::{classify_flow, FlowVerdict};
pub use fabric::{CensorMode, DeliveryOutcome, Endpoint, Fabric, LinkProfile};
pub use handshake::{Handshake, HandshakeMsg, HANDSHAKE_SIZES};
pub use ntcp2::Ntcp2Handshake;
