//! The deterministic plane: process-wide event counters.
//!
//! Every counter here is a plain `AtomicU64` bumped with relaxed
//! additions. Because addition is commutative and associative, the
//! totals are independent of scheduling: a workload that adds the
//! same multiset of increments on 1 thread or N threads lands on the
//! same value, bit for bit. That is the contract that makes these
//! counters safe to embed in run manifests that are diffed across
//! thread counts — and, unlike the timing plane (`crate::timing`),
//! safe to surface anywhere a replay byte-identity check might look.
//!
//! Instrumented code must uphold one discipline for the contract to
//! hold: count *work items*, not *scheduling events*. "routers
//! harvested" and "bitset words OR'd" are invariant under chunking;
//! "chunks processed per worker" is not and has no slot here.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

macro_rules! counters {
    ( $( $(#[$meta:meta])* $variant:ident => $name:literal, )+ ) => {
        /// One deterministic counter slot. The discriminant indexes a
        /// static array of atomics; the name is the stable manifest key.
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        pub enum Counter {
            $( $(#[$meta])* $variant, )+
        }

        /// Every counter in canonical (manifest) order.
        pub const ALL: &[Counter] = &[ $( Counter::$variant, )+ ];

        impl Counter {
            /// Stable `snake_case` key used in manifests and reports.
            pub fn name(self) -> &'static str {
                match self { $( Counter::$variant => $name, )+ }
            }
        }

        static SLOTS: [AtomicU64; ALL.len()] = [ $( counters!(@zero $variant), )+ ];
    };
    (@zero $variant:ident) => { AtomicU64::new(0) };
}

counters! {
    /// Sighting draws evaluated by the harvest engine's lane fill.
    HarvestDraws => "harvest_draws",
    /// Router sightings recorded after placement/keyspace gates.
    RoutersHarvested => "routers_harvested",
    /// Bitset words OR'd while answering union/coverage queries.
    BitsetWordsOr => "bitset_words_or",
    /// Id-shard fill units in the engine's shard queue, each drawing
    /// every vantage. Counted once per fill as the shard count — the
    /// shard grid is a pure function of world size, never of worker
    /// count.
    EngineShardUnits => "engine_shard_units",
    /// Fixed-width word blocks streamed by the engine's union/coverage
    /// queries (each block is visited O(shard) at a time, so this is
    /// also the query path's peak-memory ledger).
    EngineShardBlocks => "engine_shard_blocks",
    /// Peers actually examined by the out-of-study-window presence
    /// scan after dead id-shards were skipped.
    FallbackPeersScanned => "fallback_peers_scanned",
    /// Scenario-lab grid cells evaluated by `lab::sweep`.
    SweepCells => "sweep_cells",
    /// Figure/table blocks rendered by the figure pipeline.
    FigureRenders => "figure_renders",
    /// Iterative-lookup queries issued against the netDB.
    LookupQueries => "lookup_queries",
    /// Iterative-lookup retries consumed after timeouts.
    LookupRetries => "lookup_retries",
    /// Messages pushed through the transport fabric.
    MessagesSent => "messages_sent",
    /// Day segments encoded into the `.i2ps` wire format.
    SegmentsEncoded => "segments_encoded",
    /// Day segments decoded back out of the `.i2ps` wire format.
    SegmentsDecoded => "segments_decoded",
    /// Day segments decoded on demand by the lazy snapshot reader
    /// (cache misses; a replay that never re-visits a day decodes each
    /// segment exactly once).
    SegmentsLazyLoaded => "segments_lazy_loaded",
    /// Bytes of snapshot wire format produced by the encoder.
    StoreBytesWritten => "store_bytes_written",
    /// Bytes of snapshot wire format consumed by the decoder.
    StoreBytesRead => "store_bytes_read",
    /// Archived RouterInfo records decoded and signature-checked.
    RecordsVerified => "records_verified",
    /// Snapshots salvaged through the crash-recovery path.
    SnapshotsRecovered => "snapshots_recovered",
    /// Fault plane: messages dropped by the loss lane.
    FaultLossHits => "fault_loss_hits",
    /// Fault plane: messages delayed by the delay lane.
    FaultDelayHits => "fault_delay_hits",
    /// Fault plane: messages duplicated by the duplication lane.
    FaultDupHits => "fault_dup_hits",
    /// Fault plane: peer-crash draws that fired.
    FaultCrashHits => "fault_crash_hits",
    /// Fault plane: responder stalls injected into lookups.
    FaultStallHits => "fault_stall_hits",
    /// Fault plane: vantage-day harvest cells blanked by outages.
    FaultOutageCells => "fault_outage_cells",
    /// Fault plane: flaky-vantage draws that fired.
    FaultFlakeHits => "fault_flake_hits",
    /// Fault plane: injected writer kills (io_crash budget spent).
    FaultIoCrashes => "fault_io_crashes",
}

/// Adds `n` to a counter. Relaxed ordering is sufficient: only the
/// final sums are observed, and sums are order-free.
pub fn add(counter: Counter, n: u64) {
    if let Some(slot) = SLOTS.get(counter as usize) {
        slot.fetch_add(n, Ordering::Relaxed);
    }
}

/// Adds one to a counter.
pub fn inc(counter: Counter) {
    add(counter, 1);
}

/// Reads one counter's current total.
pub fn get(counter: Counter) -> u64 {
    SLOTS.get(counter as usize).map(|slot| slot.load(Ordering::Relaxed)).unwrap_or(0)
}

/// Zeroes every slot. Meant for test isolation, not for production
/// paths: manifests report process-lifetime totals.
pub fn reset() {
    for slot in &SLOTS {
        slot.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of every counter, index-aligned with [`ALL`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Snapshot {
    values: Vec<u64>,
}

impl Snapshot {
    /// `(name, value)` pairs in canonical order.
    pub fn entries(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        ALL.iter().zip(self.values.iter()).map(|(counter, value)| (counter.name(), *value))
    }

    /// The value recorded for one counter.
    pub fn get(&self, counter: Counter) -> u64 {
        self.values.get(counter as usize).copied().unwrap_or(0)
    }

    /// Per-slot difference `self - base`, saturating at zero (a reset
    /// between snapshots reads as no progress, never as underflow).
    pub fn delta_since(&self, base: &Snapshot) -> Snapshot {
        Snapshot {
            values: self
                .values
                .iter()
                .zip(base.values.iter())
                .map(|(now, then)| now.saturating_sub(*then))
                .collect(),
        }
    }

    /// Sum over all slots; zero means "nothing instrumented ran".
    pub fn total(&self) -> u64 {
        self.values.iter().sum()
    }
}

/// Captures every counter at once (each slot read is atomic; the set
/// is not — callers needing an exact delta use [`exclusive`]).
pub fn snapshot() -> Snapshot {
    Snapshot { values: ALL.iter().map(|counter| get(*counter)).collect() }
}

static EXCLUSIVE: Mutex<()> = Mutex::new(());

/// Runs `f` under a process-wide lock and returns the counter delta
/// it produced plus its result. This is the test harness's view of
/// the counters: parallel test binaries share the static slots, so a
/// bare before/after subtraction would race with sibling tests.
pub fn exclusive<R>(f: impl FnOnce() -> R) -> (Snapshot, R) {
    let guard = EXCLUSIVE.lock().unwrap_or_else(PoisonError::into_inner);
    let before = snapshot();
    let out = f();
    let after = snapshot();
    drop(guard);
    (after.delta_since(&before), out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_snake_case() {
        let mut names: Vec<&str> = ALL.iter().map(|c| c.name()).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate counter name");
        for name in names {
            assert!(
                name.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                "counter name {name:?} is not snake_case"
            );
        }
    }

    #[test]
    fn add_is_visible_and_delta_isolates() {
        let (delta, ()) = exclusive(|| {
            add(Counter::SweepCells, 3);
            inc(Counter::SweepCells);
        });
        assert_eq!(delta.get(Counter::SweepCells), 4);
        assert_eq!(
            delta.entries().filter(|(_, v)| *v != 0).count(),
            1,
            "only the touched slot moves"
        );
    }

    #[test]
    fn delta_saturates_instead_of_wrapping() {
        let newer = Snapshot { values: vec![1; ALL.len()] };
        let older = Snapshot { values: vec![5; ALL.len()] };
        assert_eq!(newer.delta_since(&older).total(), 0);
    }
}
