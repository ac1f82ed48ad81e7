//! # i2p-store — persistent harvest snapshots
//!
//! The source study was *dataset-driven*: the fleet harvested the netDb
//! for weeks, archived millions of RouterInfo sightings, and every
//! analysis (census, churn, geo, blocking) ran offline against that
//! archive. This crate is the reproduction's archive layer: it
//! serializes a filled [`i2p_measure::HarvestEngine`] — world metadata
//! plus per-(vantage, day) sighting sets — into a compact, versioned,
//! checksummed binary snapshot, and loads it back as a
//! [`Snapshot`] that implements [`i2p_measure::SnapshotSource`], so the
//! figure pipelines replay off the file with **bit-identical** output.
//!
//! Format highlights (full layout in `DESIGN.md` §7):
//!
//! * built on the `i2p_data::codec` Writer/Reader primitives;
//! * per-day segments, each independently covered by a fast 64-bit
//!   integrity checksum, plus a whole-file trailer checksum — any
//!   single-byte corruption fails the load;
//! * sighting sets as delta/varint-encoded sorted runs (≈1 byte per
//!   sighting at harvest densities);
//! * an observed-router table holding, per sighting row, the exact
//!   [`i2p_measure::ObservedRouterInfo`] fields **and** a full signed
//!   [`i2p_data::RouterInfo`] wire record (`RouterInfo::encode`), the
//!   paper-shaped netDb artifact — [`Snapshot::verify_router_infos`]
//!   re-decodes and signature-verifies every record;
//! * one reader under the strict ([`Snapshot::from_bytes`]), recovering
//!   ([`Snapshot::from_bytes_recover`]) and lazy ([`LazySnapshot::open`])
//!   loads, so the three agree on every archive.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod format;
pub mod lazy;
pub mod snapshot;
mod wire;

use i2p_data::codec::DecodeError;

pub use lazy::LazySnapshot;
pub use snapshot::{Snapshot, SnapshotMeta};
pub use wire::RecoveryReport;

/// Errors produced while saving, loading or verifying a snapshot.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A codec-level decode failure.
    Decode(DecodeError),
    /// The file is structurally valid codec but semantically corrupt
    /// (bad magic, checksum mismatch, inconsistent tables, …).
    Corrupt {
        /// What failed.
        what: &'static str,
    },
    /// The snapshot was written by an incompatible format version.
    UnsupportedVersion {
        /// The version found in the header.
        found: u16,
    },
    /// A region outgrew its wire-format width (e.g. a vantage fleet
    /// beyond `u16`, a header or day segment beyond `u32` bytes). The
    /// encoder refuses rather than silently truncating the length and
    /// producing a corrupt-but-checksummed archive.
    TooLarge {
        /// Which wire region overflowed.
        region: &'static str,
        /// The length that did not fit.
        len: usize,
    },
    /// The fault plane fired an injected IO crash-point mid-write
    /// (`io_crash=N`): the writer "died" here, leaving whatever a real
    /// crash at this point would leave on disk.
    InjectedCrash {
        /// Which crash-point fired (see `Snapshot::write_to_with`).
        point: u32,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            StoreError::Decode(e) => write!(f, "snapshot decode error: {e}"),
            StoreError::Corrupt { what } => write!(f, "corrupt snapshot: {what}"),
            StoreError::UnsupportedVersion { found } => {
                write!(f, "unsupported snapshot version {found} (this build reads v{})",
                    format::VERSION)
            }
            StoreError::TooLarge { region, len } => {
                write!(f, "snapshot region {region} too large for the wire format ({len} items/bytes)")
            }
            StoreError::InjectedCrash { point } => {
                write!(f, "injected IO crash at write point {point}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<DecodeError> for StoreError {
    fn from(e: DecodeError) -> Self {
        StoreError::Decode(e)
    }
}
