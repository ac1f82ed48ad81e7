//! # i2p-measure — the paper's measurement & censorship-analysis suite
//!
//! This crate is the primary contribution of the reproduction: the
//! monitoring methodology and every analysis of Hoang et al., *"An
//! Empirical Study of the I2P Anonymity Network and its Censorship
//! Resistance"* (IMC 2018), implemented against the world model in
//! `i2p-sim` and the protocol stack in `i2p-router`.
//!
//! * [`fleet`] — monitoring vantages (floodfill / non-floodfill × shared
//!   bandwidth) and daily netDb harvesting (hourly snapshots, daily
//!   cleanup — §4.3). Produces [`observed::ObservedRouterInfo`] records;
//!   every analysis below consumes only those observations.
//! * [`engine`] — the indexed harvest engine: each (vantage, peer, day)
//!   sighting drawn once into per-vantage bitsets (filled in parallel,
//!   one unit per id-range shard), unions answered by OR +
//!   popcount, records materialized lazily. The naive [`fleet`] path is
//!   its one reference.
//! * [`keyspace`] — the keyspace-routed visibility model: publication
//!   lands on the k closest floodfills under the day's rotated routing
//!   key, so a floodfill vantage's sightings derive from its keyspace
//!   position; the uniform model stays available as the oracle mode.
//! * [`sybil`] — the eclipse/Sybil scenario suite: an adversary grinds
//!   identities into a target's keyspace neighbourhood at day-rotation
//!   boundaries; measures census-coverage loss, target eclipse
//!   probability and lookup failure vs Sybil count (§4, §7).
//! * [`population`] — Figs. 2, 3, 4, 5, 6: observed-peer counts by
//!   vantage configuration, unique-IP census, unknown-IP decomposition.
//! * [`churn`] — Fig. 7: continuous/intermittent survival curves.
//! * [`ipchurn`] — Figs. 8, 12: per-peer distinct-IP and distinct-AS
//!   histograms.
//! * [`capacity`] — Fig. 9 and Table 1: capacity-flag census, bandwidth ×
//!   {floodfill, reachable, unreachable} cross-tab, and the
//!   qualified-floodfill population estimate (§5.3.1).
//! * [`geo`] — Figs. 10, 11: country and AS distributions with the
//!   multi-IP counting rule (§5.3.2).
//! * [`censor`] — Fig. 13: probabilistic address-based blocking with
//!   blacklist windows (§6.2).
//! * [`usability`] — Fig. 14: eepsite page-load latency and timeout rate
//!   under null-routing (§6.2.3), on the protocol-level `TestNet`.
//! * [`lab`] — the scenario lab's sweep driver: warm a substrate once,
//!   fork it per scenario, run scenario grids across threads with
//!   thread-count-independent results (DESIGN.md §6).
//! * [`closedloop`] — the Fig. 13 → Fig. 14 closed loop: the harvested
//!   windowed blacklist drives the protocol-level censor.
//! * [`source`] — the replay abstraction: [`source::SnapshotSource`] is
//!   the query surface the figure pipelines consume, implemented by the
//!   live [`engine::HarvestEngine`] and by `i2p-store`'s loaded
//!   snapshots, with bit-identical figure output either way. Each
//!   figure analysis also exposes its accumulator (a `*Fold` with a
//!   `finish`), so one day-major walk can feed them all (DESIGN.md §14).
//! * [`slots`] — the per-peer slot index those folds share: dense slots
//!   in first-sighting order, never a table sized by a peer id.
//! * [`pass`] — the figure suite's one walk over a source's days, each
//!   day's records split by id shard across workers, the shard states
//!   merged into the folds' accumulators.
//! * [`report`] — one typed table per figure/table, printed in the
//!   paper's layout or as machine-readable CSV from the same rows.
//! * [`adversary`] — the unified adversary catalog: a common trait +
//!   string-keyed registry over the five attack paths above, day-level
//!   `observe`/`act` composition ([`adversary::Composed`]), and the
//!   composed scenarios the paper never ran (DESIGN.md §9).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod attack;
pub mod bridges;
pub mod capacity;
pub mod censor;
pub mod churn;
pub mod closedloop;
pub mod engine;
pub mod fleet;
pub mod geo;
pub mod ipchurn;
pub mod keyspace;
pub mod lab;
pub mod observed;
pub mod pass;
pub mod population;
pub mod report;
pub mod slots;
pub mod source;
pub mod statsite;
pub mod strategies;
pub mod sybil;
pub mod usability;

pub use engine::HarvestEngine;
pub use fleet::{Fleet, Vantage, VantageMode};
pub use keyspace::{KeyspaceConfig, VisibilityModel};
pub use observed::ObservedRouterInfo;
pub use source::{Coverage, SnapshotSource};
pub use usability::WarmSubstrate;
