//! The figure suite's day-major pass, split over the id-shard plane
//! (DESIGN.md §14).
//!
//! Every §5 result (Figs. 4–12, Table 1) is a fold over the same
//! per-day observation stream, so [`figure_pass`] walks a source's days
//! once, ascending, and feeds the accumulator of every selected figure.
//! Every [`READ_AHEAD_DAYS`] days it lets the source read the next
//! batch ahead on the workers ([`SnapshotSource::read_ahead`]: a lazy
//! snapshot decodes its day segments there).
//! Per day the calling thread folds the coverage ledger, computes the
//! Fig. 4 curve and lists the day's union once
//! ([`SnapshotSource::with_day_union`]). Workers then claim the
//! listing's id-shard runs ([`DayUnion::shard_runs`]) through
//! [`crate::lab::claim`]; each run feeds its shard's own slot index and
//! folds. A peer's id puts it in one shard, so no two workers ever touch
//! the same peer's state.
//!
//! After the walk the shard states merge into one set of accumulators:
//! histogram totals add, per-peer vectors append, IP tables concatenate,
//! and a census day's address sets are unioned. Finished figures never
//! merge — Fig. 9 divides its totals by the day count and Fig. 7
//! returns percentages — so every figure is the same at any worker
//! count.

use crate::capacity::{BandwidthFold, CapacityFold, FloodfillFold};
use crate::churn::ChurnFold;
use crate::ipchurn::{IpFold, IpTable};
use crate::population::{CensusFold, CoverageFold, DailyCensus, OverlapFold};
use crate::slots::PeerSlots;
use crate::source::{Coverage, DayUnion, SnapshotSource};
use std::ops::Range;
use std::sync::{Mutex, PoisonError};

/// Days the pass asks its source to read ahead at once
/// ([`SnapshotSource::read_ahead`]). A lazy snapshot holds two decoded
/// days (`i2p-store`'s `CACHE_SEGMENTS`), so it decodes a batch of two
/// on two workers and still decodes each day once.
const READ_AHEAD_DAYS: u64 = 2;

/// The accumulators a pass feeds. A fold that is not wanted is never
/// fed, so no figure's bytes depend on which others share the pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Wants {
    /// Fig. 4's coverage curve.
    pub curve: bool,
    /// Figs. 5/6: the census of every sampled day.
    pub census: bool,
    /// Fig. 6's firewalled/hidden overlap.
    pub overlap: bool,
    /// Fig. 7's survival.
    pub churn: bool,
    /// The IP table of Figs. 8, 10, 11 and 12.
    pub ips: bool,
    /// Fig. 9's letter census.
    pub capacity: bool,
    /// Table 1 and the floodfill estimate, on the middle day.
    pub table1: bool,
}

impl Wants {
    /// Every accumulator.
    pub const ALL: Wants = Wants {
        curve: true,
        census: true,
        overlap: true,
        churn: true,
        ips: true,
        capacity: true,
        table1: true,
    };
}

/// The accumulators after one pass over a source's days, ready for the
/// figures' `finish` and render steps.
pub struct Folds {
    /// The (vantage, day) coverage ledger.
    pub coverage: Coverage,
    /// Fig. 4.
    pub curve: CoverageFold,
    /// Figs. 5/6: the census of every `step`-th day, `step` being a
    /// tenth of the window (at least 1).
    pub census: Vec<(u64, DailyCensus)>,
    /// Fig. 6.
    pub overlap: OverlapFold,
    /// Fig. 7, following peers for `horizon` days.
    pub survival: ChurnFold,
    /// Fig. 7's horizon: the window less one day, at most 30.
    pub horizon: usize,
    /// Figs. 8, 10, 11 and 12.
    pub ips: IpTable,
    /// Fig. 9.
    pub letters: CapacityFold,
    /// Table 1, over the window's middle day.
    pub bandwidth: BandwidthFold,
    /// The §5.3.1 estimate, over the window's middle day.
    pub floodfill: FloodfillFold,
}

/// Walks `src`'s days once, ascending, feeding the `wants` folds, with
/// each day's records split by id shard across `workers` workers (one
/// runs inline). Before each batch of [`READ_AHEAD_DAYS`] days the
/// source may prepare the batch on the same workers
/// ([`SnapshotSource::read_ahead`]). Per day the pass then makes the
/// coverage ledger's `count_one` calls, at most one `coverage_curve`
/// and at most one union listing, so a lazy snapshot decodes each day
/// once and the engine's query counters do not depend on `workers`;
/// neither does any fold. The count is recorded as the
/// `measure.figure_workers` timing gauge.
pub fn figure_pass(src: &dyn SnapshotSource, wants: Wants, workers: usize) -> Folds {
    let _span = i2p_telemetry::span("measure.figure_pass");
    // Observation only, like the fill's `measure.engine_workers`: the
    // counter plane must read the same at every worker count.
    i2p_telemetry::gauge("measure.figure_workers", workers as u64);
    let span = src.days();
    let n_days = span.clone().count();
    // Fig. 5/6 sample every `step` days (≤ ~10 rows); Table 1 and the
    // floodfill estimate use the window's middle day. All derived from
    // the source's own range, so live and replay agree by construction.
    let step = (n_days as u64 / 10).max(1);
    let mid_day = span.start + n_days as u64 / 2;
    let horizon = n_days.saturating_sub(1).min(30);
    let k = src.vantage_count();
    let geo = src.geo();
    let new_shard = |shard: u32| Shard {
        shard,
        slots: PeerSlots::new(),
        overlap: OverlapFold::default(),
        survival: ChurnFold::new(span.clone(), horizon),
        ips: IpFold::new(geo),
        letters: CapacityFold::new(n_days),
        bandwidth: BandwidthFold::default(),
        floodfill: FloodfillFold::default(),
        census: CensusFold::default(),
    };

    let mut coverage = Coverage::default();
    let mut curve = CoverageFold::new(k);
    let mut census = Vec::new();
    // Keyed by the shards that occur, ascending: never a table indexed
    // by a shard number, which a forged id near `u32::MAX` would size.
    let mut shards: Vec<Shard<'_>> = Vec::new();
    for day in span.clone() {
        if (day - span.start) % READ_AHEAD_DAYS == 0 {
            src.read_ahead(day..span.end.min(day + READ_AHEAD_DAYS), workers);
        }
        coverage.add_day(src, day);
        if wants.curve {
            curve.add_day(&src.coverage_curve(day));
        }
        let census_day = wants.census && (day - span.start) % step == 0;
        let table1_day = wants.table1 && day == mid_day;
        let today = Today {
            day,
            census: census_day,
            table1: table1_day,
            records: census_day || wants.overlap || wants.ips || wants.capacity || table1_day,
        };
        if !today.records && !wants.churn {
            continue;
        }
        src.with_day_union(day, k, &mut |union| {
            let runs = union.shard_runs();
            for &(shard, _) in &runs {
                if let Err(at) = shards.binary_search_by_key(&shard, |s| s.shard) {
                    shards.insert(at, new_shard(shard));
                }
            }
            // Both lists ascend by shard, and every run's shard has a
            // state now.
            let mut runs = runs.into_iter().peekable();
            let units: Vec<Mutex<(&mut Shard<'_>, Range<usize>)>> = shards
                .iter_mut()
                .filter_map(|state| {
                    let (_, run) = runs.next_if(|&(shard, _)| shard == state.shard)?;
                    Some(Mutex::new((state, run)))
                })
                .collect();
            crate::lab::claim(units.len(), workers, || (), |_, i| {
                // Each unit is claimed once, so its lock never meets
                // another worker's poison.
                let mut unit = units[i].lock().unwrap_or_else(PoisonError::into_inner);
                let (state, run) = &mut *unit;
                state.feed(union, run.clone(), &wants, &today);
            });
        });
        if census_day {
            let mut fold = CensusFold::default();
            for state in &mut shards {
                fold.merge(std::mem::take(&mut state.census));
            }
            census.push((day, fold.finish()));
        }
    }

    let mut folds = Folds {
        coverage,
        curve,
        census,
        overlap: OverlapFold::default(),
        survival: ChurnFold::new(span, horizon),
        horizon,
        ips: IpTable::default(),
        letters: CapacityFold::new(n_days),
        bandwidth: BandwidthFold::default(),
        floodfill: FloodfillFold::default(),
    };
    for state in shards {
        folds.overlap.merge(state.overlap);
        folds.survival.merge(state.survival);
        folds.ips.merge(state.ips.finish());
        folds.letters.merge(state.letters);
        folds.bandwidth.merge(state.bandwidth);
        folds.floodfill.merge(state.floodfill);
    }
    folds
}

/// What one day asks of the shards.
struct Today {
    day: u64,
    /// Figs. 5/6 sample the day.
    census: bool,
    /// Table 1's middle day.
    table1: bool,
    /// Some fold reads records, not only ids.
    records: bool,
}

/// One id shard's share of the pass: a slot index of its own, the
/// per-peer folds over its slots, and its part of the window's totals.
struct Shard<'g> {
    shard: u32,
    slots: PeerSlots,
    overlap: OverlapFold,
    survival: ChurnFold,
    ips: IpFold<'g>,
    letters: CapacityFold,
    bandwidth: BandwidthFold,
    floodfill: FloodfillFold,
    /// The current census day's part, taken when the day ends.
    census: CensusFold,
}

impl Shard<'_> {
    /// Feeds the shard's peers at positions `run` of `union`.
    fn feed(&mut self, union: &DayUnion<'_>, run: Range<usize>, wants: &Wants, today: &Today) {
        let day = today.day;
        let mut peers = self.slots.day(day);
        if !today.records {
            // Only Fig. 7 needs the day: ids, and no record is read.
            for &id in &union.ids()[run] {
                self.survival.observe(peers.slot(id), day);
            }
            return;
        }
        union.for_each_record(run, |rec| {
            if today.census {
                self.census.observe(rec);
            }
            // A record takes a slot only when a selected per-peer fold
            // reads it: Fig. 6 reads unknown-IP records and Figs. 8/10–12
            // IPv4 ones. Slot numbers never reach a figure, so the
            // selection cannot change its bytes.
            let reads = wants.churn
                || (wants.overlap && rec.is_unknown_ip())
                || (wants.ips && rec.ipv4.is_some());
            if reads {
                let slot = peers.slot(rec.peer_id);
                if wants.overlap {
                    self.overlap.observe(slot, rec);
                }
                if wants.churn {
                    self.survival.observe(slot, day);
                }
                if wants.ips {
                    self.ips.observe(slot, rec);
                }
            }
            if wants.capacity {
                self.letters.observe(rec);
            }
            if today.table1 {
                self.bandwidth.observe(rec);
                self.floodfill.observe(rec);
            }
        });
    }
}
