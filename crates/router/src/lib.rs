//! # i2p-router — the full I2P router node
//!
//! Integrates the substrate crates into a working router, plus an
//! in-memory network harness for protocol-level experiments:
//!
//! * [`profile`] — peer profiling and tiering in the spirit of zzz &
//!   Schimmer, *Peer Profiling and Selection in the I2P Anonymous
//!   Network* (the paper's ranking-algorithm reference in §4.1): speed,
//!   capacity and integration scores feed tunnel-hop selection weights.
//! * [`config`] — router configuration: bandwidth class, floodfill mode
//!   (manual/auto), firewalled/hidden status, country.
//! * [`reseed`] — reseed servers with the per-source-IP deterministic
//!   answer set (§4's anti-harvesting) and the `i2pseeds.su3` manual
//!   reseed file (§6.1).
//! * [`router`] — the router proper: netDb handling (store, lookup,
//!   flood), RouterInfo publication, automatic floodfill opt-in health
//!   checks (§5.3.1), introducer selection for firewalled peers (§5.1),
//!   tunnel building and garlic processing.
//! * [`net`] — `TestNet`: a deterministic, event-queued in-memory network
//!   of routers over the simulated [`i2p_transport::Fabric`]; this is
//!   what the usability experiment (Fig. 14) and the integration tests
//!   run on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod net;
pub mod profile;
pub mod reseed;
pub mod router;

pub use config::RouterConfig;
pub use net::{NetMsg, TestNet};
pub use profile::{PeerProfile, ProfileBook};
pub use reseed::{ReseedFile, ReseedServer};
pub use router::Router;
