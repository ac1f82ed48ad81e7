//! # i2p-geoip — offline IP → (country, AS) resolution
//!
//! A synthetic stand-in for the locally-installed MaxMind database the
//! paper used (Hoang et al. §3, §5.3.2): 225 countries (the paper's
//! top-20 + 205 others), real RSF 2018 press-freedom scores for the
//! explicitly-modelled countries, ~350 autonomous systems with plausible
//! weights (AS7922/Comcast leading, per Fig. 11), and a deliberately
//! unallocated slice of address space to model MaxMind lookup misses.
//!
//! See `DESIGN.md` §1 for why this substitution preserves the paper's
//! behaviour: the measurement code only ever performs offline lookups
//! and counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod data;
pub mod db;

pub use data::PRESS_FREEDOM_THRESHOLD;
pub use db::{AsId, CountryId, GeoDb, Location};
