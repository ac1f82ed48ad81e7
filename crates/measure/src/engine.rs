//! The indexed harvest engine.
//!
//! The naive path ([`Fleet::harvest_union`] and friends) re-draws every
//! (vantage, peer, day) sighting each time an analysis asks a question,
//! so a figure that sweeps fleet prefixes or blacklist windows pays the
//! full harvest cost once per query. The engine inverts that: it draws
//! each (vantage, peer, day) sighting **exactly once** into per-vantage
//! bitsets over the day's online population (positions come from
//! `i2p_sim::world::DayIndex`, so offline and long-dead peers cost
//! nothing), then answers membership questions by word-wise OR +
//! popcount. Fig. 4's 40-prefix coverage curve becomes one cumulative-OR
//! pass; Fig. 13's (routers × windows) blacklist matrix is one walk of
//! [`HarvestEngine::for_each_first_sighting`] over one fill.
//!
//! Three further cost levers:
//!
//! * **Day-invariant caching.** A pair's sighting probability (one
//!   `exp`) and the persistent component of its daily draw are constant
//!   across days; the fill computes both once per (vantage, peer) and
//!   replays only the cheap daily part ([`Vantage::draw_against`]).
//! * **Sharded, work-stealing fill.** The fill is cut along the
//!   [`DayIndex`](i2p_sim::world::DayIndex) shard plane into
//!   (vantage, id-range shard) units covering every day, pulled from a
//!   shared atomic queue by `std::thread::scope` workers (the same
//!   pattern as [`crate::lab::sweep`]). Each draw is a pure function of
//!   (vantage salt, peer seed, day), each unit sets a disjoint *bit*
//!   set, and words shared by neighboring shards merge through
//!   commutative atomic ORs — so the lanes are bit-identical at any
//!   worker count or claim order, and the per-unit caches shrink from
//!   O(population) to O(shard). The parity suite in `tests/parity.rs`
//!   holds the engine to the naive oracle and to
//!   [`HarvestEngine::build_oracle`], the retained unsharded reference
//!   fill.
//! * **Streaming queries.** Union/coverage queries walk the lanes in
//!   fixed-width word blocks ([`STREAM_WORDS`]) with an O(block)
//!   accumulator, so figure computation never materializes a full-day
//!   (let alone full-world) bitset.
//!
//! The fill worker count honors the `I2PSCOPE_THREADS` knob (0 or
//! unset = one per core; malformed values panic, like every knob) and
//! is logged through the telemetry *timing* plane's gauge table —
//! deliberately not the counter plane, whose totals CI byte-diffs
//! across thread counts.
//!
//! Full [`ObservedRouterInfo`] records are materialized lazily — only
//! when an analysis needs fields beyond set membership (caps, addresses,
//! introducers), via [`HarvestEngine::harvest_union_prefix`] or
//! [`HarvestEngine::for_each_observation`].

use crate::fleet::{DailyHarvest, Fleet, Vantage, VantageMode};
use crate::keyspace::{self, VisibilityModel};
use crate::observed::ObservedRouterInfo;
use i2p_data::FxHashMap;
use i2p_sim::peer::PeerRecord;
use i2p_sim::world::{DayIndex, World};
use std::borrow::Cow;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Id-range width of one fill shard, shared with the world's
/// [`DayIndex`] shard plane.
const SHARD_IDS: usize = DayIndex::SHARD_WIDTH as usize;

/// Words per streaming query block: 512 words = 32 K bit positions =
/// 4 KiB of accumulator, the query path's whole peak allocation.
const STREAM_WORDS: usize = 1 << 9;

/// The precomputed sighting matrix for one fleet over a day range.
pub struct HarvestEngine<'w> {
    world: &'w World,
    vantages: Vec<Vantage>,
    days: Range<u64>,
    /// Per-day online peer ids: borrowed from the world's `DayIndex`
    /// for study days, owned scan results past its horizon (peers can
    /// outlive the study window), so the engine is total over any day.
    day_ids: Vec<Cow<'w, [u32]>>,
    /// Bitset words per day (`online / 64`, rounded up).
    day_words: Vec<usize>,
    /// Word offset of each day within a lane (length `n_days + 1`).
    day_off: Vec<usize>,
    /// One lane per vantage: the per-day bitsets, concatenated in day
    /// order. Bit `i` of a day's slice is set iff the vantage saw the
    /// `i`-th online peer of the day (positions per `day_ids`).
    lanes: Vec<Vec<u64>>,
}

impl<'w> HarvestEngine<'w> {
    /// Fills the engine for `fleet` over `days` under the uniform
    /// visibility model (the oracle mode).
    pub fn build(world: &'w World, fleet: &Fleet, days: Range<u64>) -> Self {
        Self::with_vantages(world, fleet.vantages.clone(), days)
    }

    /// Fills the engine for `fleet` over `days` under an explicit
    /// [`VisibilityModel`]: [`VisibilityModel::Uniform`] reproduces
    /// [`HarvestEngine::build`] exactly; [`VisibilityModel::Keyspace`]
    /// additionally ANDs each lane with the day's keyspace placement
    /// gates (see [`crate::keyspace`]), so a floodfill vantage's bitset
    /// is derived from its position in the rotating keyspace.
    pub fn build_with(
        world: &'w World,
        fleet: &Fleet,
        days: Range<u64>,
        model: &VisibilityModel,
    ) -> Self {
        Self::with_vantages_model(world, fleet.vantages.clone(), days, model)
    }

    /// [`HarvestEngine::build`] for an explicit vantage list; the list
    /// order defines prefix semantics.
    pub fn with_vantages(world: &'w World, vantages: Vec<Vantage>, days: Range<u64>) -> Self {
        Self::with_vantages_model(world, vantages, days, &VisibilityModel::Uniform)
    }

    /// [`HarvestEngine::build_with`] under a fault plane: after the
    /// normal fill, every (vantage, day) the plane marks as a vantage
    /// outage is blanked — that vantage contributes nothing that day,
    /// yielding a partial harvest. A zero plane is exactly
    /// [`HarvestEngine::build_with`].
    pub fn build_faulted(
        world: &'w World,
        fleet: &Fleet,
        days: Range<u64>,
        model: &VisibilityModel,
        plane: &i2p_faults::FaultPlane,
    ) -> Self {
        let mut engine = Self::build_with(world, fleet, days, model);
        engine.apply_outages(plane);
        engine
    }

    /// Blanks every (vantage, day) cell the plane's outage lane hits.
    /// Keyed on the vantage salt + absolute day, so the outage schedule
    /// is a pure function of (seed, spec, fleet) — identical across
    /// runs and thread counts.
    pub fn apply_outages(&mut self, plane: &i2p_faults::FaultPlane) {
        if plane.is_zero() {
            return;
        }
        let start = self.days.start;
        for (v, vantage) in self.vantages.iter().enumerate() {
            for di in 0..self.day_ids.len() {
                if plane.vantage_outage(vantage.salt, start + di as u64) {
                    self.lanes[v][self.day_off[di]..self.day_off[di + 1]].fill(0);
                }
            }
        }
    }

    /// The unsharded reference fill: one sequential pass per vantage
    /// with population-sized caches, exactly the pre-shard engine. Kept
    /// as the parity oracle — `tests/scale_parity.rs` renders the full
    /// figure suite through both paths and diffs the bytes.
    pub fn build_oracle(
        world: &'w World,
        fleet: &Fleet,
        days: Range<u64>,
        model: &VisibilityModel,
    ) -> Self {
        Self::assemble(world, fleet.vantages.clone(), days, model, None)
    }

    /// [`HarvestEngine::build_with`] for an explicit vantage list.
    pub fn with_vantages_model(
        world: &'w World,
        vantages: Vec<Vantage>,
        days: Range<u64>,
        model: &VisibilityModel,
    ) -> Self {
        Self::assemble(world, vantages, days, model, Some(fill_threads()))
    }

    /// [`HarvestEngine::with_vantages_model`] with an explicit fill
    /// worker count, bypassing the `I2PSCOPE_THREADS` lookup — the
    /// parity tests use this to pin bit-identity across worker counts
    /// without racing on process-global environment mutation.
    pub fn with_vantages_model_threads(
        world: &'w World,
        vantages: Vec<Vantage>,
        days: Range<u64>,
        model: &VisibilityModel,
        threads: usize,
    ) -> Self {
        Self::assemble(world, vantages, days, model, Some(threads.max(1)))
    }

    /// Shared fill driver: lays out the day geometry, fills the lanes
    /// (sharded queue when `fill_workers` is set, sequential oracle
    /// otherwise), then applies the visibility model's keyspace gates.
    fn assemble(
        world: &'w World,
        vantages: Vec<Vantage>,
        days: Range<u64>,
        model: &VisibilityModel,
        fill_workers: Option<usize>,
    ) -> Self {
        let _span = i2p_telemetry::span("measure.engine_fill");
        let day_ids: Vec<Cow<'w, [u32]>> = days
            .clone()
            .map(|d| match world.online_ids(d) {
                Some(ids) => Cow::Borrowed(ids),
                None => Cow::Owned(world.online_peers(d).map(|p| p.id).collect()),
            })
            .collect();
        let n_days = day_ids.len();
        let day_words: Vec<usize> = day_ids.iter().map(|ids| ids.len().div_ceil(64)).collect();
        let mut day_off = Vec::with_capacity(n_days + 1);
        let mut total_words = 0usize;
        day_off.push(0usize);
        for &w in &day_words {
            total_words += w;
            day_off.push(total_words);
        }

        let mut lanes: Vec<Vec<u64>> = match fill_workers {
            Some(threads) => fill_sharded(
                world, &vantages, days.start, &day_ids, &day_off, total_words, threads,
            ),
            None => {
                let mut lanes = vec![vec![0u64; total_words]; vantages.len().max(1)];
                lanes.truncate(vantages.len());
                for (v, lane) in lanes.iter_mut().enumerate() {
                    fill_lane_chunk(
                        world, vantages[v], days.start, 0..n_days, &day_ids, &day_words, lane,
                    );
                }
                lanes
            }
        };

        // Keyspace mode: AND each floodfill vantage's lane with the
        // day's placement gates. The gate masks are a pure function of
        // (world, vantages, day, config) and shared across vantages, so
        // each day's placement is computed once — through the scenario
        // lab's sweep driver, giving a parallel, thread-count-
        // independent fill. Fleets without floodfill vantages skip the
        // pass outright: tunnel visibility is keyspace-independent, so
        // every gate would be all-ones anyway.
        if let VisibilityModel::Keyspace(cfg) = model {
            cfg.validate();
            if vantages.iter().any(|v| v.mode == VantageMode::Floodfill) {
                let day_list: Vec<usize> = (0..n_days).collect();
                let gates = crate::lab::sweep(
                    &(world, &vantages, &day_ids),
                    &day_list,
                    0,
                    |(world, vantages, day_ids), &di, _| {
                        keyspace::day_gates(
                            world,
                            vantages,
                            &day_ids[di],
                            days.start + di as u64,
                            cfg,
                        )
                    },
                );
                for (di, day_gate) in gates.iter().enumerate() {
                    for (lane, gate) in lanes.iter_mut().zip(day_gate) {
                        for (w, g) in lane[day_off[di]..day_off[di + 1]].iter_mut().zip(gate) {
                            *w &= g;
                        }
                    }
                }
            }
        }
        // Post-gate sighting total: a popcount pass over the filled
        // lanes is cheap next to the draws and, like every counter in
        // the deterministic plane, independent of chunking and thread
        // count (the lanes themselves are bit-identical).
        let sightings: u64 =
            lanes.iter().flat_map(|lane| lane.iter()).map(|w| u64::from(w.count_ones())).sum();
        i2p_telemetry::count(i2p_telemetry::Counter::RoutersHarvested, sightings);
        HarvestEngine { world, vantages, days, day_ids, day_words, day_off, lanes }
    }

    /// The world the engine draws from.
    pub fn world(&self) -> &'w World {
        self.world
    }

    /// The vantages, in prefix order.
    pub fn vantages(&self) -> &[Vantage] {
        &self.vantages
    }

    /// The filled day range.
    pub fn days(&self) -> Range<u64> {
        self.days.clone()
    }

    /// Day index within the filled range.
    fn di(&self, day: u64) -> usize {
        assert!(
            self.days.contains(&day),
            "day {day} outside the engine's filled range {:?}",
            self.days
        );
        (day - self.days.start) as usize
    }

    /// One vantage's bitset for one day.
    fn lane(&self, vantage: usize, di: usize) -> &[u64] {
        &self.lanes[vantage][self.day_off[di]..self.day_off[di + 1]]
    }

    fn ids(&self, day: u64) -> &[u32] {
        &self.day_ids[self.di(day)]
    }

    /// Peers a single vantage saw on `day` — O(online/64) popcounts.
    pub fn count_one(&self, vantage: usize, day: u64) -> usize {
        self.lane(vantage, self.di(day)).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Peers the first `k` vantages saw on `day`, word-wise OR +
    /// popcount, no allocation.
    pub fn count_union_prefix(&self, day: u64, k: usize) -> usize {
        let di = self.di(day);
        let base = self.day_off[di];
        let k = k.min(self.vantages.len());
        i2p_telemetry::count(
            i2p_telemetry::Counter::BitsetWordsOr,
            (self.day_words[di] * k) as u64,
        );
        let mut count = 0usize;
        for j in base..base + self.day_words[di] {
            let mut acc = 0u64;
            for v in 0..k {
                acc |= self.lanes[v][j];
            }
            count += acc.count_ones() as usize;
        }
        count
    }

    /// Peers the whole fleet saw on `day`.
    pub fn count_union(&self, day: u64) -> usize {
        self.count_union_prefix(day, self.vantages.len())
    }

    /// Peers an arbitrary vantage subset saw on `day`.
    pub fn count_union_subset(&self, day: u64, vantages: &[usize]) -> usize {
        let di = self.di(day);
        let base = self.day_off[di];
        i2p_telemetry::count(
            i2p_telemetry::Counter::BitsetWordsOr,
            (self.day_words[di] * vantages.len()) as u64,
        );
        let mut count = 0usize;
        for j in base..base + self.day_words[di] {
            let mut acc = 0u64;
            for &v in vantages {
                acc |= self.lanes[v][j];
            }
            count += acc.count_ones() as usize;
        }
        count
    }

    /// Fig. 4 in one streaming pass: `curve[k-1]` = peers seen by the
    /// first `k` vantages on `day`. The cumulative OR runs block-outer
    /// — a [`STREAM_WORDS`]-word accumulator is unioned across all
    /// vantages per block — so peak memory is O(block) regardless of
    /// how many routers are online, and the popcounts telescope to the
    /// same totals as a whole-day accumulator would give.
    pub fn coverage_curve(&self, day: u64) -> Vec<usize> {
        let di = self.di(day);
        let base = self.day_off[di];
        let words = self.day_words[di];
        let nv = self.vantages.len();
        i2p_telemetry::count(i2p_telemetry::Counter::BitsetWordsOr, (words * nv) as u64);
        i2p_telemetry::count(
            i2p_telemetry::Counter::EngineShardBlocks,
            words.div_ceil(STREAM_WORDS) as u64,
        );
        let mut curve = vec![0usize; nv];
        let mut acc = [0u64; STREAM_WORDS];
        let mut start = 0usize;
        while start < words {
            let len = STREAM_WORDS.min(words - start);
            acc[..len].fill(0);
            for (v, c) in curve.iter_mut().enumerate() {
                let lane = &self.lanes[v][base + start..base + start + len];
                for (a, w) in acc[..len].iter_mut().zip(lane) {
                    *a |= w;
                    *c += a.count_ones() as usize;
                }
            }
            start += len;
        }
        curve
    }

    /// Visits every nonzero word of the union bitset of the first `k`
    /// vantages on `day` as `(word_index, word)`, streaming the lanes
    /// in [`STREAM_WORDS`] blocks — the O(block)-memory backbone of
    /// every set-materializing query below.
    fn for_each_union_word(&self, day: u64, k: usize, mut f: impl FnMut(usize, u64)) {
        let di = self.di(day);
        let base = self.day_off[di];
        let words = self.day_words[di];
        let k = k.min(self.vantages.len());
        i2p_telemetry::count(i2p_telemetry::Counter::BitsetWordsOr, (words * k) as u64);
        i2p_telemetry::count(
            i2p_telemetry::Counter::EngineShardBlocks,
            words.div_ceil(STREAM_WORDS) as u64,
        );
        let mut acc = [0u64; STREAM_WORDS];
        let mut start = 0usize;
        while start < words {
            let len = STREAM_WORDS.min(words - start);
            acc[..len].fill(0);
            for v in 0..k {
                let lane = &self.lanes[v][base + start..base + start + len];
                for (a, w) in acc[..len].iter_mut().zip(lane) {
                    *a |= w;
                }
            }
            for (j, &w) in acc[..len].iter().enumerate() {
                if w != 0 {
                    f(start + j, w);
                }
            }
            start += len;
        }
    }

    /// Visits every peer the whole fleet saw on `day` exactly once, with
    /// the lowest vantage index whose lane holds it. A peer is in the
    /// union of the first `k` vantages iff that index is below `k`, so
    /// one walk answers every fleet prefix at once (the Fig. 13 matrix,
    /// `censor::blocking_matrix`). Streams the lanes in
    /// [`STREAM_WORDS`] blocks like `for_each_union_word`; within a
    /// block, peers come vantage by vantage, ascending by position.
    pub fn for_each_first_sighting(&self, day: u64, mut f: impl FnMut(&'w PeerRecord, usize)) {
        let di = self.di(day);
        let base = self.day_off[di];
        let words = self.day_words[di];
        let ids = &self.day_ids[di];
        let peers = &self.world.peers;
        i2p_telemetry::count(
            i2p_telemetry::Counter::BitsetWordsOr,
            (words * self.vantages.len()) as u64,
        );
        i2p_telemetry::count(
            i2p_telemetry::Counter::EngineShardBlocks,
            words.div_ceil(STREAM_WORDS) as u64,
        );
        let mut acc = [0u64; STREAM_WORDS];
        let mut start = 0usize;
        while start < words {
            let len = STREAM_WORDS.min(words - start);
            acc[..len].fill(0);
            for (v, lane) in self.lanes.iter().enumerate() {
                let lane = &lane[base + start..base + start + len];
                for (j, (a, &w)) in acc[..len].iter_mut().zip(lane).enumerate() {
                    for_each_set_bit_in(start + j, w & !*a, |i| f(&peers[ids[i] as usize], v));
                    *a |= w;
                }
            }
            start += len;
        }
    }

    /// Ids of the peers a single vantage saw on `day`, ascending — the
    /// per-lane sighting set the snapshot store archives.
    pub fn vantage_ids(&self, vantage: usize, day: u64) -> Vec<u32> {
        let ids = self.ids(day);
        let mut out = Vec::new();
        for_each_set_bit(self.lane(vantage, self.di(day)), |i| out.push(ids[i]));
        out
    }

    /// Ids of the peers the first `k` vantages saw on `day`, ascending.
    pub fn union_prefix_ids(&self, day: u64, k: usize) -> Vec<u32> {
        let ids = self.ids(day);
        let mut out = Vec::new();
        self.for_each_union_word(day, k, |j, word| {
            for_each_set_bit_in(j, word, |i| out.push(ids[i]));
        });
        out
    }

    /// Visits every peer the first `k` vantages saw on `day`, in
    /// ascending id order, without materializing records.
    pub fn for_each_union_peer(&self, day: u64, k: usize, mut f: impl FnMut(&'w PeerRecord)) {
        let ids = self.ids(day);
        let peers = &self.world.peers;
        self.for_each_union_word(day, k, |j, word| {
            for_each_set_bit_in(j, word, |i| f(&peers[ids[i] as usize]));
        });
    }

    /// Visits the lazily-materialized observation record of every peer
    /// the first `k` vantages saw on `day` — for analyses that need
    /// fields beyond membership (caps, addresses, introducers).
    pub fn for_each_observation(
        &self,
        day: u64,
        k: usize,
        mut f: impl FnMut(ObservedRouterInfo),
    ) {
        let geo = &self.world.geo;
        self.for_each_union_peer(day, k, |peer| f(ObservedRouterInfo::capture(peer, day, geo)));
    }

    /// Materialized harvest of a single vantage on `day` (engine
    /// counterpart of [`Fleet::harvest_one`]).
    pub fn harvest_one(&self, vantage: usize, day: u64) -> DailyHarvest {
        let ids = self.ids(day);
        let peers = &self.world.peers;
        let mut records = FxHashMap::default();
        for_each_set_bit(self.lane(vantage, self.di(day)), |i| {
            let peer = &peers[ids[i] as usize];
            records.insert(peer.id, ObservedRouterInfo::capture(peer, day, &self.world.geo));
        });
        DailyHarvest { records }
    }

    /// Materialized union harvest of the first `k` vantages on `day`
    /// (engine counterpart of [`Fleet::harvest_union_prefix`]).
    pub fn harvest_union_prefix(&self, day: u64, k: usize) -> DailyHarvest {
        let mut records = FxHashMap::default();
        self.for_each_observation(day, k, |rec| {
            records.insert(rec.peer_id, rec);
        });
        DailyHarvest { records }
    }

    /// Materialized union harvest of the whole fleet on `day`.
    pub fn harvest_union(&self, day: u64) -> DailyHarvest {
        self.harvest_union_prefix(day, self.vantages.len())
    }

    /// Per-day union harvests over `days` (engine counterpart of
    /// [`Fleet::harvest_window`]).
    pub fn harvest_window(&self, days: Range<u64>) -> Vec<DailyHarvest> {
        days.map(|d| self.harvest_union(d)).collect()
    }
}

/// Resolves the engine's fill worker count from the documented
/// `I2PSCOPE_THREADS` knob. The lanes are bit-identical at any worker
/// count, so this is pure mechanism; the chosen value is surfaced as
/// the `measure.engine_workers` timing-plane gauge by the fill driver.
fn fill_threads() -> usize {
    let raw = std::env::var("I2PSCOPE_THREADS").ok(); // i2plint: allow(io-containment) -- reads the documented I2PSCOPE_THREADS knob only; the fill output is identical for every value
    resolve_threads(raw.as_deref())
}

/// Knob-string → worker count: `None`/`"0"` mean one worker per core,
/// anything that is not a `usize` aborts loudly (the knob contract,
/// matching `cli::env_parse`).
fn resolve_threads(raw: Option<&str>) -> usize {
    match raw {
        Some(v) => {
            let n: usize = v.parse().unwrap_or_else(|_| {
                panic!("I2PSCOPE_THREADS={v:?} is not a thread count (expected a usize; 0 = one per core)") // i2plint: allow(panic-audit) -- malformed env knobs abort loudly rather than silently falling back, same contract as cli::env_parse
            });
            if n == 0 {
                crate::lab::default_threads()
            } else {
                n
            }
        }
        None => crate::lab::default_threads(),
    }
}

/// The work-stealing sharded fill: one unit per (vantage, id-range
/// shard), covering every day of the range, claimed from a shared
/// atomic counter exactly like [`crate::lab::sweep`]'s grid. Lanes are
/// `AtomicU64` during the fill because a shard's position range within
/// a day is not word-aligned — the boundary words are shared with the
/// neighboring shard's unit and merge through `fetch_or`, which is
/// commutative, so the result is bit-identical at any worker count or
/// claim order. `into_inner` then recovers plain `Vec<u64>` lanes with
/// no copy of the words themselves.
fn fill_sharded(
    world: &World,
    vantages: &[Vantage],
    first_day: u64,
    day_ids: &[Cow<'_, [u32]>],
    day_off: &[usize],
    total_words: usize,
    threads: usize,
) -> Vec<Vec<u64>> {
    let n_shards = world.index.shard_count();
    let n_days = day_ids.len();
    // Per-(day, shard) position bounds, shared by every vantage: row
    // `di` holds the cumulative cut positions [0, …, online(day)]. In
    // the study window these come straight from the `DayIndex` shard
    // plane; past its horizon (owned scan days) the same cuts fall out
    // of a binary search, since scan results stay id-ascending.
    let mut cuts: Vec<u32> = Vec::with_capacity(n_days * (n_shards + 1));
    for (di, ids) in day_ids.iter().enumerate() {
        let day = first_day + di as u64;
        cuts.push(0);
        for s in 0..n_shards {
            let end = match world.index.shard_bounds(day, s) {
                Some(r) => r.end as u32,
                None => {
                    ids.partition_point(|&id| (id as usize) < (s + 1) * SHARD_IDS) as u32
                }
            };
            cuts.push(end);
        }
    }

    let units = vantages.len() * n_shards;
    // The shard grid is a pure function of (fleet, world) — never of
    // the worker count — so the unit total lives in the deterministic
    // counter plane, while the machine-dependent worker choice goes to
    // the timing plane's gauge table.
    i2p_telemetry::count(i2p_telemetry::Counter::EngineShardUnits, units as u64);
    let workers = threads.max(1).min(units.max(1));
    i2p_telemetry::gauge("measure.engine_workers", workers as u64);

    let lanes_a: Vec<Vec<AtomicU64>> = (0..vantages.len())
        .map(|_| (0..total_words).map(|_| AtomicU64::new(0)).collect())
        .collect();
    let next = AtomicUsize::new(0);
    let run_worker = || loop {
        let u = next.fetch_add(1, Ordering::Relaxed);
        if u >= units {
            break;
        }
        let (v, s) = (u / n_shards, u % n_shards);
        fill_shard_unit(
            world, vantages[v], first_day, s, n_shards, day_ids, day_off, &cuts, &lanes_a[v],
        );
    };
    if workers <= 1 || units <= 1 {
        run_worker();
    } else {
        std::thread::scope(|sc| {
            for _ in 0..workers {
                sc.spawn(run_worker);
            }
        });
    }
    lanes_a
        .into_iter()
        .map(|lane| lane.into_iter().map(AtomicU64::into_inner).collect())
        .collect()
}

/// Fills one (vantage, id-range shard) unit across every day. The
/// day-invariant caches are shard-local — indexed by `id - shard_base`
/// and [`SHARD_IDS`] wide — so the fill's per-worker footprint is
/// O(shard), not O(population): the lever that lets million-router
/// worlds fill without million-entry scratch per task.
#[allow(clippy::too_many_arguments)]
fn fill_shard_unit(
    world: &World,
    vantage: Vantage,
    first_day: u64,
    shard: usize,
    n_shards: usize,
    day_ids: &[Cow<'_, [u32]>],
    day_off: &[usize],
    cuts: &[u32],
    lane: &[AtomicU64],
) {
    let shard_base = shard * SHARD_IDS;
    // Same sentinel scheme as the oracle fill (`p == 0.0` = not yet
    // cached), shrunk to the shard's id range.
    let mut seeds = vec![0u64; SHARD_IDS];
    let mut ps = vec![0.0f64; SHARD_IDS];
    let mut pers = vec![0u64; SHARD_IDS / 64];
    for (di, ids) in day_ids.iter().enumerate() {
        let row = di * (n_shards + 1) + shard;
        let (a, b) = (cuts[row] as usize, cuts[row + 1] as usize);
        if a == b {
            continue;
        }
        let day = first_day + di as u64;
        // Counted per (vantage, day, shard) as the positions drawn; the
        // per-day totals telescope to `online(day)` per vantage, so the
        // counter stays invariant under worker count and claim order.
        i2p_telemetry::count(i2p_telemetry::Counter::HarvestDraws, (b - a) as u64);
        let day_base = day_off[di];
        let mut word = a / 64;
        let mut acc = 0u64;
        for (pos, &id) in (a..b).zip(&ids[a..b]) {
            if pos / 64 != word {
                if acc != 0 {
                    lane[day_base + word].fetch_or(acc, Ordering::Relaxed);
                }
                word = pos / 64;
                acc = 0;
            }
            let iu = id as usize;
            let ci = iu - shard_base;
            let mut p = ps[ci];
            let (seed, pers_hit);
            if p == 0.0 {
                let peer = &world.peers[iu];
                seed = vantage.pair_seed(peer);
                p = vantage.sight_probability(peer);
                pers_hit = vantage.persistent_draw(peer) < p;
                seeds[ci] = seed;
                ps[ci] = p;
                pers[ci / 64] |= (pers_hit as u64) << (ci % 64);
            } else {
                seed = seeds[ci];
                pers_hit = (pers[ci / 64] >> (ci % 64)) & 1 == 1;
            }
            if vantage.draw_against(seed, day, p, || pers_hit) {
                acc |= 1u64 << (pos % 64);
            }
        }
        if acc != 0 {
            lane[day_base + word].fetch_or(acc, Ordering::Relaxed);
        }
    }
}

/// Fills one vantage's bitsets for a contiguous chunk of days.
fn fill_lane_chunk(
    world: &World,
    vantage: Vantage,
    first_day: u64,
    chunk: Range<usize>,
    day_ids: &[Cow<'_, [u32]>],
    day_words: &[usize],
    out: &mut [u64],
) {
    // Day-invariant pair cache, dense by peer id: the pair's draw seed,
    // its sighting probability, and the persistent-draw outcome (a bit).
    // Each is computed at most once per peer the vantage meets in this
    // chunk; the daily hot loop then touches only these flat arrays —
    // never a full `PeerRecord`. All three are zero-initialized (cheap
    // `alloc_zeroed` pages); `p == 0.0` marks "not yet cached", which is
    // sound because a missed sentinel merely recomputes the same values.
    let n = world.total_peers();
    let mut seeds = vec![0u64; n];
    let mut ps = vec![0.0f64; n];
    let mut pers = vec![0u64; n.div_ceil(64)];
    let mut base = 0usize;
    for di in chunk {
        let day = first_day + di as u64;
        let ids: &[u32] = &day_ids[di];
        // Counted per (vantage, day), never per worker chunk, so the
        // total is invariant under the chunking chosen above.
        i2p_telemetry::count(i2p_telemetry::Counter::HarvestDraws, ids.len() as u64);
        let lane = &mut out[base..base + day_words[di]];
        for (i, &id) in ids.iter().enumerate() {
            // Ids come from the day index, so the peer is online by
            // construction; only the sighting draw remains.
            let iu = id as usize;
            let mut p = ps[iu];
            let (seed, pers_hit);
            if p == 0.0 {
                let peer = &world.peers[iu];
                seed = vantage.pair_seed(peer);
                p = vantage.sight_probability(peer);
                pers_hit = vantage.persistent_draw(peer) < p;
                seeds[iu] = seed;
                ps[iu] = p;
                pers[iu / 64] |= (pers_hit as u64) << (iu % 64);
            } else {
                seed = seeds[iu];
                pers_hit = (pers[iu / 64] >> (iu % 64)) & 1 == 1;
            }
            if vantage.draw_against(seed, day, p, || pers_hit) {
                lane[i / 64] |= 1u64 << (i % 64);
            }
        }
        base += day_words[di];
    }
}

/// Calls `f` with the index of every set bit, ascending.
fn for_each_set_bit(words: &[u64], mut f: impl FnMut(usize)) {
    for (j, &word) in words.iter().enumerate() {
        for_each_set_bit_in(j, word, &mut f);
    }
}

/// Calls `f` with the bit-position index of every set bit of one word
/// at word index `j`, ascending.
fn for_each_set_bit_in(j: usize, word: u64, mut f: impl FnMut(usize)) {
    let mut w = word;
    while w != 0 {
        let bit = w.trailing_zeros() as usize;
        f(j * 64 + bit);
        w &= w - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::VantageMode;
    use i2p_sim::world::WorldConfig;
    use std::collections::BTreeSet;

    fn small_world() -> World {
        World::generate(WorldConfig { days: 8, scale: 0.03, seed: 17 })
    }

    #[test]
    fn engine_matches_naive_counts_and_sets() {
        let w = small_world();
        let fleet = Fleet::alternating(6);
        let engine = HarvestEngine::build(&w, &fleet, 0..8);
        for day in 0..8 {
            for k in 1..=6 {
                let naive = fleet.harvest_union_prefix(&w, day, k);
                assert_eq!(engine.count_union_prefix(day, k), naive.peer_count());
                let naive_ids: BTreeSet<u32> = naive.records.keys().copied().collect();
                let engine_ids: BTreeSet<u32> =
                    engine.union_prefix_ids(day, k).into_iter().collect();
                assert_eq!(engine_ids, naive_ids, "day {day} k {k}");
            }
        }
    }

    #[test]
    fn coverage_curve_equals_prefix_counts() {
        let w = small_world();
        let fleet = Fleet::alternating(5);
        let engine = HarvestEngine::build(&w, &fleet, 2..4);
        for day in 2..4 {
            let curve = engine.coverage_curve(day);
            assert_eq!(curve.len(), 5);
            for k in 1..=5 {
                assert_eq!(curve[k - 1], engine.count_union_prefix(day, k));
            }
            // Monotone by construction.
            assert!(curve.windows(2).all(|w| w[1] >= w[0]));
        }
    }

    #[test]
    fn single_vantage_lane_matches_harvest_one() {
        let w = small_world();
        let v = Vantage::monitoring(VantageMode::Floodfill, 0xAB);
        let fleet = Fleet { vantages: vec![v] };
        let engine = HarvestEngine::build(&w, &fleet, 3..5);
        for day in 3..5 {
            let naive = fleet.harvest_one(&w, &v, day);
            assert_eq!(engine.count_one(0, day), naive.peer_count());
            assert_eq!(engine.harvest_one(0, day).records, naive.records);
        }
    }

    #[test]
    fn subset_union_is_order_independent() {
        let w = small_world();
        let fleet = Fleet::alternating(4);
        let engine = HarvestEngine::build(&w, &fleet, 0..2);
        assert_eq!(
            engine.count_union_subset(1, &[0, 3]),
            engine.count_union_subset(1, &[3, 0])
        );
        assert_eq!(engine.count_union_subset(1, &[0, 1, 2, 3]), engine.count_union(1));
    }

    #[test]
    fn engine_is_total_past_the_study_window() {
        // Peers outlive the 8-day study window; past the DayIndex
        // horizon the engine must keep matching the naive path via the
        // world's scan fallback.
        let w = small_world();
        let fleet = Fleet::alternating(3);
        let engine = HarvestEngine::build(&w, &fleet, 6..11);
        for day in 6..11 {
            let naive = fleet.harvest_union(&w, day);
            assert_eq!(engine.count_union(day), naive.peer_count(), "day {day}");
            assert_eq!(engine.harvest_union(day).records, naive.records);
        }
        assert!(engine.count_union(9) > 0, "life continues past the window");
    }

    #[test]
    #[should_panic(expected = "outside the engine's filled range")]
    fn out_of_range_day_panics() {
        let w = small_world();
        let engine = HarvestEngine::build(&w, &Fleet::alternating(2), 0..3);
        engine.count_union(5);
    }

    #[test]
    fn sharded_fill_is_bit_identical_to_oracle_at_any_worker_count() {
        // Past-horizon days included so the owned-scan cut path runs too.
        let w = small_world();
        let fleet = Fleet::alternating(5);
        for model in [
            VisibilityModel::Uniform,
            VisibilityModel::Keyspace(crate::keyspace::KeyspaceConfig::paper()),
        ] {
            let oracle = HarvestEngine::build_oracle(&w, &fleet, 0..10, &model);
            for threads in [1usize, 2, 3, 7] {
                let sharded = HarvestEngine::with_vantages_model_threads(
                    &w,
                    fleet.vantages.clone(),
                    0..10,
                    &model,
                    threads,
                );
                assert_eq!(sharded.lanes, oracle.lanes, "threads {threads}");
            }
        }
    }

    #[test]
    fn streaming_queries_span_multiple_blocks() {
        // A world big enough that one day exceeds STREAM_WORDS * 64
        // positions, so coverage_curve and the union walks genuinely
        // cross block boundaries.
        let w = World::generate(WorldConfig { days: 2, scale: 2.0, seed: 5 });
        assert!(w.online_ids(0).unwrap().len() > STREAM_WORDS * 64);
        let fleet = Fleet::alternating(3);
        let engine = HarvestEngine::build(&w, &fleet, 0..1);
        let curve = engine.coverage_curve(0);
        for k in 1..=3 {
            assert_eq!(curve[k - 1], engine.count_union_prefix(0, k));
        }
        let ids = engine.union_prefix_ids(0, 3);
        assert_eq!(ids.len(), engine.count_union(0));
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ascending, duplicate-free");
        // Each union id once, with the smallest vantage that holds it.
        let lanes: Vec<BTreeSet<u32>> =
            (0..3).map(|v| engine.vantage_ids(v, 0).into_iter().collect()).collect();
        let mut first = Vec::new();
        engine.for_each_first_sighting(0, |peer, v| first.push((peer.id, v)));
        first.sort_unstable();
        let visited: Vec<u32> = first.iter().map(|&(id, _)| id).collect();
        assert_eq!(visited, ids, "every union id exactly once");
        for &(id, v) in &first {
            let lowest = lanes.iter().position(|lane| lane.contains(&id));
            assert_eq!(lowest, Some(v), "peer {id}");
        }
    }

    #[test]
    fn thread_knob_resolves_zero_and_explicit_counts() {
        assert_eq!(resolve_threads(Some("3")), 3);
        assert!(resolve_threads(Some("0")) >= 1, "0 means one per core");
        assert!(resolve_threads(None) >= 1);
    }

    #[test]
    #[should_panic(expected = "not a thread count")]
    fn malformed_thread_knob_panics() {
        resolve_threads(Some("lots"));
    }
}
