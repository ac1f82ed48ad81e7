//! # i2p-sim — the world model
//!
//! Generates a deterministic, calibrated population of I2P peers over the
//! paper's three-month study window and exposes the per-day views the
//! measurement suite consumes:
//!
//! * [`params`] — every calibration constant, each annotated with the
//!   Hoang et al. anchor that pins it. The measurement code never reads
//!   these; only the world generator does.
//! * [`peer`] — per-peer attributes: bandwidth class, floodfill status,
//!   reachability (public / firewalled / hidden / switching), country and
//!   AS, longevity (Weibull churn), IP-rotation behaviour (static /
//!   dynamic / roamer), and the observation-model visibility weights.
//! * [`world`] — the population process: steady-state warm-up plus
//!   Poisson arrivals, deterministic per-day presence, and per-day IP
//!   assignment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod params;
pub mod peer;
pub mod world;

pub use peer::{IpBehavior, PeerRecord, PresencePhase, Reach};
pub use world::{World, WorldConfig};
