//! The replay abstraction: one query surface for live harvests and
//! archived snapshots.
//!
//! The paper's analyses all ran *offline*, against an archive of netDb
//! harvests collected over weeks — the fleet ran once, the figures ran
//! forever. [`SnapshotSource`] is that separation line in this
//! reproduction: every figure pipeline that used to reach into a
//! [`HarvestEngine`] now consumes this trait, so the same pipeline runs
//! off either a freshly filled engine (live) or a loaded `i2p-store`
//! snapshot (replay) with **bit-identical** output. The contract the
//! two implementations share:
//!
//! * per-day peer sets are iterated in ascending peer-id order;
//! * union/prefix counts are cardinalities of the same sets the engine
//!   computes (the snapshot stores the engine's own sighting sets);
//! * observation records are exactly the [`ObservedRouterInfo`]s the
//!   engine materializes (the snapshot archives them verbatim).
//!
//! `tests/store_replay.rs` in the umbrella crate pins the byte-identity
//! end to end (text and CSV figure renders, live vs replayed).

use crate::engine::HarvestEngine;
use crate::observed::ObservedRouterInfo;
use i2p_geoip::GeoDb;
use i2p_sim::peer::PeerRecord;
use i2p_sim::world::DayIndex;
use std::ops::Range;

/// How completely a dataset covers its (vantage, day) grid — the
/// degraded-mode ledger the figure renderers annotate from.
///
/// Derived purely from the data (a cell is *dark* when its vantage saw
/// nothing that day), so a live engine and its replayed snapshot agree
/// by construction, and archives need no format change to carry it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Coverage {
    /// Days the dataset spans.
    pub days_expected: usize,
    /// Days where every vantage reported sightings.
    pub days_full: usize,
    /// Days where some, but not all, vantages reported.
    pub days_partial: usize,
    /// Days where no vantage reported anything.
    pub days_dark: usize,
    /// (vantage, day) cells in the grid.
    pub cells_expected: usize,
    /// Cells with at least one sighting.
    pub cells_observed: usize,
}

impl Coverage {
    /// Whether any cell is dark — i.e. the figures run on a partial
    /// harvest and should say so.
    pub fn is_degraded(&self) -> bool {
        self.cells_observed < self.cells_expected
    }

    /// The one-line annotation degraded figure renders carry.
    pub fn annotation(&self) -> String {
        format!(
            "degraded harvest: days observed {}/{} (full {}, partial {}, dark {}); \
             vantage-day cells {}/{}",
            self.days_full + self.days_partial,
            self.days_expected,
            self.days_full,
            self.days_partial,
            self.days_dark,
            self.cells_observed,
            self.cells_expected,
        )
    }

    /// Folds one day of `src` into the ledger: one `count_one` per
    /// vantage. [`SnapshotSource::coverage`] is this fold over every
    /// day; the figure pass (`i2pscope::cli::render_figures`) calls it
    /// from its own day walk instead of sweeping the days twice.
    pub fn add_day<S: SnapshotSource + ?Sized>(&mut self, src: &S, day: u64) {
        let n_v = src.vantage_count();
        let observed = (0..n_v).filter(|&v| src.count_one(v, day) > 0).count();
        self.days_expected += 1;
        self.cells_expected += n_v;
        self.cells_observed += observed;
        if observed == n_v {
            self.days_full += 1;
        } else if observed > 0 {
            self.days_partial += 1;
        } else {
            self.days_dark += 1;
        }
    }
}

/// A queryable harvested dataset: either a live [`HarvestEngine`] or a
/// loaded snapshot.
pub trait SnapshotSource {
    /// The day range the dataset covers.
    fn days(&self) -> Range<u64>;

    /// Number of vantages harvested (prefix order is fixed).
    fn vantage_count(&self) -> usize;

    /// The geo database observations resolve against. Live sources
    /// return the world's; snapshots rebuild the (deterministic,
    /// parameter-free) synthetic database.
    fn geo(&self) -> &GeoDb;

    /// Peers a single vantage saw on `day`.
    fn count_one(&self, vantage: usize, day: u64) -> usize;

    /// Peers the first `k` vantages saw on `day`.
    fn count_union_prefix(&self, day: u64, k: usize) -> usize;

    /// Fig. 4's cumulative coverage: `curve[k-1]` = peers seen by the
    /// first `k` vantages on `day`.
    fn coverage_curve(&self, day: u64) -> Vec<usize>;

    /// Lists the union of the first `k` vantages on `day` once and hands
    /// it to `f`: the peers' ids ascending, and each peer's observation
    /// record on demand. Every day walk of a source is a call into this
    /// one: [`SnapshotSource::for_each_union_id`] and
    /// [`SnapshotSource::for_each_observation_ref`] walk the whole
    /// listing, and the figure pass (`crate::pass`) splits it by id
    /// shard across its workers.
    fn with_day_union(&self, day: u64, k: usize, f: &mut dyn FnMut(&DayUnion<'_>));

    /// Tells the source that the queries for `days` come next, and that
    /// `workers` workers may prepare them (the calling thread is one).
    /// A hint: it changes no answer and reports nothing. The default
    /// does nothing, which is right for the live engine and the eager
    /// snapshot; a lazy snapshot decodes the days it does not hold. The
    /// figure pass calls it before each batch of
    /// `pass::READ_AHEAD_DAYS` days.
    fn read_ahead(&self, _days: Range<u64>, _workers: usize) {}

    /// Visits the id of every peer the first `k` vantages saw on `day`,
    /// ascending.
    fn for_each_union_id(&self, day: u64, k: usize, f: &mut dyn FnMut(u32)) {
        self.with_day_union(day, k, &mut |union| union.ids().iter().for_each(|&id| f(id)));
    }

    /// Visits the observation record of every peer the first `k`
    /// vantages saw on `day`, ascending by peer id.
    fn for_each_observation_ref(
        &self,
        day: u64,
        k: usize,
        f: &mut dyn FnMut(&ObservedRouterInfo),
    ) {
        self.with_day_union(day, k, &mut |union| union.for_each_record(0..union.len(), &mut *f));
    }

    /// The dataset's (vantage, day) coverage ledger; see [`Coverage`].
    fn coverage(&self) -> Coverage {
        let mut cov = Coverage::default();
        for day in self.days() {
            cov.add_day(self, day);
        }
        cov
    }
}

impl SnapshotSource for HarvestEngine<'_> {
    fn days(&self) -> Range<u64> {
        HarvestEngine::days(self)
    }

    fn vantage_count(&self) -> usize {
        self.vantages().len()
    }

    fn geo(&self) -> &GeoDb {
        &self.world().geo
    }

    fn count_one(&self, vantage: usize, day: u64) -> usize {
        HarvestEngine::count_one(self, vantage, day)
    }

    fn count_union_prefix(&self, day: u64, k: usize) -> usize {
        HarvestEngine::count_union_prefix(self, day, k)
    }

    fn coverage_curve(&self, day: u64) -> Vec<usize> {
        HarvestEngine::coverage_curve(self, day)
    }

    fn with_day_union(&self, day: u64, k: usize, f: &mut dyn FnMut(&DayUnion<'_>)) {
        let world = self.world();
        f(&DayUnion::live(day, self.union_prefix_ids(day, k), &world.peers, &world.geo));
    }
}

/// One day's union of a source's first `k` vantages, listed once
/// ([`SnapshotSource::with_day_union`]): the peers' ids ascending, and
/// each peer's observation record, read by position in that listing.
/// A live engine captures a record when it is read; an archive lends
/// the record it decoded. The listing is `Sync`, so workers can read
/// disjoint runs of it at once — the figure pass gives each worker the
/// run of one id shard at a time ([`DayUnion::shard_runs`]).
pub struct DayUnion<'a> {
    day: u64,
    ids: Vec<u32>,
    records: Records<'a>,
}

/// Where a [`DayUnion`]'s records come from.
enum Records<'a> {
    /// The world's peers, captured on the day when read.
    Live { peers: &'a [PeerRecord], geo: &'a GeoDb },
    /// A decoded day's records: `rows[i]` holds the `i`-th peer's.
    Archived { records: &'a [ObservedRouterInfo], rows: Vec<usize> },
}

impl<'a> DayUnion<'a> {
    /// A live engine's union on `day`: `ids` ascending, each one an
    /// index into `peers`.
    pub fn live(day: u64, ids: Vec<u32>, peers: &'a [PeerRecord], geo: &'a GeoDb) -> Self {
        DayUnion { day, ids, records: Records::Live { peers, geo } }
    }

    /// An archived day's union: the records at `rows` of the day's
    /// `records`, whose peer ids ascend along `rows`.
    pub fn archived(day: u64, records: &'a [ObservedRouterInfo], rows: Vec<usize>) -> Self {
        let ids = rows.iter().map(|&row| records[row].peer_id).collect();
        DayUnion { day, ids, records: Records::Archived { records, rows } }
    }

    /// The peers' ids, ascending.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Number of peers in the union.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no vantage of the prefix saw anyone.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Visits the records of the peers at positions `run`, in order.
    pub fn for_each_record(&self, run: Range<usize>, mut f: impl FnMut(&ObservedRouterInfo)) {
        match &self.records {
            Records::Live { peers, geo } => {
                for &id in &self.ids[run] {
                    f(&ObservedRouterInfo::capture(&peers[id as usize], self.day, geo));
                }
            }
            Records::Archived { records, rows } => {
                for &row in &rows[run] {
                    f(&records[row]);
                }
            }
        }
    }

    /// The listing cut at id-shard boundaries ([`DayIndex::SHARD_WIDTH`]
    /// ids a shard): each shard that holds a peer of the day, ascending,
    /// with the run of positions its peers occupy. Only shards that
    /// occur appear, so a forged id near `u32::MAX` adds one run, not a
    /// table up to its shard.
    pub fn shard_runs(&self) -> Vec<(u32, Range<usize>)> {
        let mut runs: Vec<(u32, Range<usize>)> = Vec::new();
        for (i, &id) in self.ids.iter().enumerate() {
            let shard = id / DayIndex::SHARD_WIDTH;
            match runs.last_mut() {
                Some((last, run)) if *last == shard => run.end = i + 1,
                _ => runs.push((shard, i..i + 1)),
            }
        }
        runs
    }
}
