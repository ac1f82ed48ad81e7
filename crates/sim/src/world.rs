//! The world: a steady-state population of peers over the study window.

use crate::params;
use crate::peer::PeerRecord;
use i2p_crypto::DetRng;
use i2p_geoip::GeoDb;

/// World generation parameters.
#[derive(Clone, Copy, Debug)]
pub struct WorldConfig {
    /// Study length in days (day 0 .. days).
    pub days: u64,
    /// Population scale factor: 1.0 reproduces the paper's ≈32 K daily
    /// peers; tests use small scales for speed.
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
}

impl WorldConfig {
    /// The paper's configuration: 89 days at full scale.
    pub fn paper(seed: u64) -> Self {
        WorldConfig { days: params::STUDY_DAYS, scale: 1.0, seed }
    }

    /// A reduced configuration for fast tests.
    pub fn small(seed: u64) -> Self {
        WorldConfig { days: 30, scale: 0.03, seed }
    }
}

/// CSR-style per-day index of the online population, built once at
/// generation time — sharded into fixed-width id ranges.
///
/// `offsets[d]..offsets[d+1]` bounds study day `d`'s slice of `ids`, a
/// flat list of online peer ids (ascending within each day, because
/// peers are visited in id order during the build). The presence draws
/// (`PeerRecord::online`) are evaluated exactly once per (peer, day of
/// its clamped presence span), so day queries never rescan the long-dead
/// warm-up population again.
///
/// On top of the CSR layout the index carries a **shard plane**: the id
/// space is cut into [`DayIndex::SHARD_WIDTH`]-wide ranges (a pure
/// function of world size — never of thread count), and every day's
/// slice stores its per-shard cut positions. Shards give the harvest
/// engine word-disjoint fill units and give out-of-window presence
/// queries a liveness bound: a shard whose every peer has expired (or
/// not yet joined) by the queried day is skipped without touching a
/// single `PeerRecord`.
pub struct DayIndex {
    /// Study days covered: `[0, days)`.
    days: u64,
    /// Per-day bounds into `ids` (length `days + 1`).
    offsets: Vec<u32>,
    /// Flat per-day lists of online peer ids.
    ids: Vec<u32>,
    /// Ids of peers online on at least one study day, ascending.
    ever: Vec<u32>,
    /// Id-range shards covering the whole population.
    n_shards: usize,
    /// Per-(day, shard) cut positions into each day's slice, relative
    /// to the day's start (length `days * (n_shards + 1)`): shard `s`
    /// of day `d` holds the day's online ids in `[s*W, (s+1)*W)`.
    cuts: Vec<u32>,
    /// Per-shard latest `end_day` (exclusive) over every peer in the
    /// shard's id range — after this day the whole shard is dead.
    shard_max_end: Vec<i64>,
    /// Per-shard earliest `join_day` — before this day the whole shard
    /// does not exist yet (ids are assigned in arrival order).
    shard_min_join: Vec<i64>,
}

impl DayIndex {
    /// Fixed id-range shard width, in peer ids. Constant by design:
    /// shard geometry depends only on the population size, so work
    /// units, counters, and figures derived from shards are identical
    /// at any thread count. 4096 ids keeps a shard's fill caches in
    /// L1/L2 while still giving a scale-1 world dozens of shards.
    pub const SHARD_WIDTH: u32 = 1 << 12;

    /// Builds the index for study days `[0, days)`.
    pub fn build(peers: &[PeerRecord], days: u64) -> Self {
        let nd = days as usize;
        let mut per_day: Vec<Vec<u32>> = vec![Vec::new(); nd];
        let mut ever = Vec::new();
        for p in peers {
            // The peer's presence span clamped to the study window: the
            // only days it could possibly be online.
            let lo = p.join_day.max(0);
            let hi = p.end_day().min(days as i64);
            let mut any = false;
            for d in lo..hi {
                if p.online(d) {
                    per_day[d as usize].push(p.id);
                    any = true;
                }
            }
            if any {
                ever.push(p.id);
            }
        }
        let mut offsets = Vec::with_capacity(nd + 1);
        let mut ids = Vec::with_capacity(per_day.iter().map(Vec::len).sum());
        offsets.push(0u32);
        for day in &per_day {
            ids.extend_from_slice(day);
            offsets.push(ids.len() as u32);
        }

        // The shard plane: per-day cut positions plus per-shard
        // liveness spans over the whole population.
        let width = Self::SHARD_WIDTH as usize;
        let n_shards = peers.len().div_ceil(width).max(1);
        let mut cuts = Vec::with_capacity(nd * (n_shards + 1));
        for d in 0..nd {
            let slice = &ids[offsets[d] as usize..offsets[d + 1] as usize];
            cuts.push(0u32);
            for s in 1..=n_shards {
                let bound = (s * width) as u32;
                cuts.push(slice.partition_point(|&id| id < bound) as u32);
            }
        }
        let mut shard_max_end = vec![i64::MIN; n_shards];
        let mut shard_min_join = vec![i64::MAX; n_shards];
        for p in peers {
            let s = p.id as usize / width;
            shard_max_end[s] = shard_max_end[s].max(p.end_day());
            shard_min_join[s] = shard_min_join[s].min(p.join_day);
        }
        DayIndex { days, offsets, ids, ever, n_shards, cuts, shard_max_end, shard_min_join }
    }

    /// The ids online on `day`, or `None` beyond the indexed window.
    pub fn online_ids(&self, day: u64) -> Option<&[u32]> {
        if day >= self.days {
            return None;
        }
        let d = day as usize;
        Some(&self.ids[self.offsets[d] as usize..self.offsets[d + 1] as usize])
    }

    /// Ids online on at least one indexed day.
    fn ever_ids(&self) -> &[u32] {
        &self.ever
    }

    /// Number of fixed-width id-range shards covering the population.
    pub fn shard_count(&self) -> usize {
        self.n_shards
    }

    /// The position range (relative to the day's [`DayIndex::online_ids`]
    /// slice) holding shard `shard`'s online ids on `day`, or `None`
    /// beyond the indexed window or the shard grid.
    pub fn shard_bounds(&self, day: u64, shard: usize) -> Option<std::ops::Range<usize>> {
        if day >= self.days || shard >= self.n_shards {
            return None;
        }
        let row = day as usize * (self.n_shards + 1) + shard;
        Some(self.cuts[row] as usize..self.cuts[row + 1] as usize)
    }

    /// Whether any peer in shard `shard` can possibly be online on
    /// `day`: the shard's join/end envelope covers it. Days outside the
    /// envelope are provably empty without touching a `PeerRecord`.
    fn shard_live_on(&self, shard: usize, day: i64) -> bool {
        self.shard_min_join.get(shard).is_some_and(|&join| join <= day)
            && self.shard_max_end.get(shard).is_some_and(|&end| day < end)
    }
}

/// Iterator over the peers online on one day: an indexed slice walk for
/// study days, a shard-bounded presence scan beyond the index's horizon.
pub struct OnlinePeers<'a>(OnlineIter<'a>);

enum OnlineIter<'a> {
    Indexed { ids: std::slice::Iter<'a, u32>, peers: &'a [PeerRecord] },
    /// The out-of-window fallback. Instead of the old O(n) full-vector
    /// walk, the scan consults the index's shard liveness envelopes and
    /// skips every id-range shard that is provably empty on `day` —
    /// far past the window that is almost all of them, so the per-call
    /// work is O(live shards), not O(population). Peers actually
    /// examined are ledgered in the `fallback_peers_scanned` counter.
    Scan { peers: &'a [PeerRecord], index: &'a DayIndex, day: i64, next: usize },
}

impl<'a> Iterator for OnlinePeers<'a> {
    type Item = &'a PeerRecord;

    fn next(&mut self) -> Option<&'a PeerRecord> {
        match &mut self.0 {
            OnlineIter::Indexed { ids, peers } => ids.next().map(|&id| &peers[id as usize]),
            OnlineIter::Scan { peers, index, day, next } => {
                let width = DayIndex::SHARD_WIDTH as usize;
                while *next < peers.len() {
                    if *next % width == 0 && !index.shard_live_on(*next / width, *day) {
                        *next = (*next / width + 1) * width;
                        continue;
                    }
                    let p = &peers[*next];
                    *next += 1;
                    i2p_telemetry::count_one(i2p_telemetry::Counter::FallbackPeersScanned);
                    if p.online(*day) {
                        return Some(p);
                    }
                }
                None
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            OnlineIter::Indexed { ids, .. } => ids.size_hint(),
            OnlineIter::Scan { peers, next, .. } => (0, Some(peers.len().saturating_sub(*next))),
        }
    }
}

/// The generated world.
pub struct World {
    /// All peers that ever existed in the simulated span (including
    /// warm-up joiners).
    pub peers: Vec<PeerRecord>,
    /// The geo database used for attribute assignment and lookups.
    pub geo: GeoDb,
    /// Generation parameters.
    pub config: WorldConfig,
    /// Per-day online index over the study window.
    pub index: DayIndex,
}

impl World {
    /// Generates the world: warm-up arrivals from day −120 so that day 0
    /// is in steady state, then arrivals through the study window.
    pub fn generate(config: WorldConfig) -> Self {
        let _span = i2p_telemetry::span("sim.world");
        let geo = GeoDb::new();
        let mut rng = DetRng::new(config.seed).fork(0x0f0f);
        let mut peers = Vec::new();
        let rate = params::arrivals_per_day() * config.scale;
        let first_day = -(params::WARMUP_DAYS as i64);
        let last_day = config.days as i64;
        let mut id = 0u32;
        for day in first_day..last_day {
            let n = rng.poisson(rate);
            for _ in 0..n {
                peers.push(PeerRecord::sample(id, day, &geo, &mut rng));
                id += 1;
            }
        }
        let index = DayIndex::build(&peers, config.days);
        World { peers, geo, config, index }
    }

    /// Total peers ever generated.
    pub fn total_peers(&self) -> usize {
        self.peers.len()
    }

    /// The ids of the peers online on `day`, ascending — the indexed
    /// fast path underneath [`World::online_peers`]. `None` beyond the
    /// study window.
    pub fn online_ids(&self, day: u64) -> Option<&[u32]> {
        self.index.online_ids(day)
    }

    /// Peers online on `day` (0-based study day).
    pub fn online_peers(&self, day: u64) -> OnlinePeers<'_> {
        OnlinePeers(match self.index.online_ids(day) {
            Some(ids) => OnlineIter::Indexed { ids: ids.iter(), peers: &self.peers },
            None => OnlineIter::Scan {
                peers: &self.peers,
                index: &self.index,
                day: day as i64,
                next: 0,
            },
        })
    }

    /// Count of peers online on `day` — O(1) within the study window.
    pub fn online_count(&self, day: u64) -> usize {
        match self.index.online_ids(day) {
            Some(ids) => ids.len(),
            None => self.online_peers(day).count(),
        }
    }

    /// Peers that are online on at least one day in `[0, days)` — the
    /// population any measurement could ever observe.
    pub fn ever_online(&self) -> impl Iterator<Item = &PeerRecord> {
        self.index.ever_ids().iter().map(|&id| &self.peers[id as usize])
    }

    /// Count of floodfill routers online on `day` — the honest DHT
    /// placement population the keyspace-routed visibility model and
    /// the Sybil scenarios measure attacker leverage against.
    pub fn online_floodfill_count(&self, day: u64) -> usize {
        self.online_peers(day).filter(|p| p.floodfill).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peer::Reach;

    fn small_world() -> World {
        World::generate(WorldConfig { days: 30, scale: 0.05, seed: 1 })
    }

    #[test]
    fn daily_population_is_steady_at_scaled_target() {
        let w = small_world();
        let target = params::TARGET_DAILY_PEERS * 0.05;
        for day in [0u64, 10, 20, 29] {
            let n = w.online_count(day) as f64;
            assert!(
                (n - target).abs() / target < 0.15,
                "day {day}: population {n} vs target {target}"
            );
        }
    }

    #[test]
    fn unknown_ip_share_matches_paper() {
        // ≈15.4 K of 32 K daily peers have no published IP (Fig. 6).
        let w = small_world();
        let day = 15i64;
        let online: Vec<_> = w.online_peers(15).collect();
        let unknown = online.iter().filter(|p| !p.publishes_ip(day)).count() as f64;
        let share = unknown / online.len() as f64;
        assert!((share - 0.48).abs() < 0.06, "unknown-IP share {share}");
    }

    #[test]
    fn firewalled_exceed_hidden() {
        let w = small_world();
        let day = 10i64;
        let fw = w
            .online_peers(10)
            .filter(|p| p.reach_on(day) == Reach::Firewalled)
            .count();
        let hidden = w
            .online_peers(10)
            .filter(|p| p.reach_on(day) == Reach::Hidden)
            .count();
        assert!(fw > hidden * 2, "firewalled {fw} vs hidden {hidden} (paper: 14K vs 4K)");
    }

    #[test]
    fn determinism_across_generations() {
        let a = World::generate(WorldConfig { days: 10, scale: 0.02, seed: 9 });
        let b = World::generate(WorldConfig { days: 10, scale: 0.02, seed: 9 });
        assert_eq!(a.total_peers(), b.total_peers());
        assert_eq!(a.online_count(5), b.online_count(5));
        assert_eq!(a.peers[0].hash, b.peers[0].hash);
        let c = World::generate(WorldConfig { days: 10, scale: 0.02, seed: 10 });
        assert_ne!(a.peers[0].hash, c.peers[0].hash);
    }

    #[test]
    fn day_index_matches_presence_oracle() {
        let w = small_world();
        for day in 0..w.config.days {
            let naive: Vec<u32> =
                w.peers.iter().filter(|p| p.online(day as i64)).map(|p| p.id).collect();
            let indexed: Vec<u32> = w.online_peers(day).map(|p| p.id).collect();
            assert_eq!(naive, indexed, "day {day}");
            assert_eq!(w.online_count(day), naive.len());
        }
        let naive_ever: Vec<u32> = {
            let days = w.config.days as i64;
            w.peers
                .iter()
                .filter(|p| {
                    let lo = p.join_day.max(0);
                    let hi = p.end_day().min(days);
                    (lo..hi).any(|d| p.online(d))
                })
                .map(|p| p.id)
                .collect()
        };
        let ever: Vec<u32> = w.ever_online().map(|p| p.id).collect();
        assert_eq!(naive_ever, ever);
    }

    #[test]
    fn shard_cuts_tile_every_day() {
        let w = small_world();
        let width = DayIndex::SHARD_WIDTH as usize;
        assert_eq!(w.index.shard_count(), w.total_peers().div_ceil(width).max(1));
        for day in 0..w.config.days {
            let ids = w.online_ids(day).expect("study day");
            let mut walked = 0usize;
            for s in 0..w.index.shard_count() {
                let bounds = w.index.shard_bounds(day, s).expect("in-window shard");
                assert_eq!(bounds.start, walked, "day {day} shard {s} must tile");
                for &id in &ids[bounds.clone()] {
                    assert_eq!(id as usize / width, s, "id {id} outside shard {s}");
                }
                walked = bounds.end;
            }
            assert_eq!(walked, ids.len(), "day {day}: cuts must cover the whole slice");
        }
        assert!(w.index.shard_bounds(w.config.days, 0).is_none());
        assert!(w.index.shard_bounds(0, w.index.shard_count()).is_none());
    }

    #[test]
    fn out_of_window_scan_work_is_shard_bounded() {
        let w = small_world();
        // The contract: an out-of-window query examines at most the
        // peers of the shards whose liveness envelope covers the day —
        // never the whole population vector.
        let day = w.config.days + 3;
        let live: usize = (0..w.index.shard_count())
            .filter(|&s| w.index.shard_live_on(s, day as i64))
            .count();
        let (delta, n) = i2p_telemetry::counters::exclusive(|| w.online_count(day));
        assert!(n > 0, "some peers outlive the window");
        let scanned = delta.get(i2p_telemetry::Counter::FallbackPeersScanned);
        assert!(
            scanned <= (live * DayIndex::SHARD_WIDTH as usize) as u64,
            "scanned {scanned} peers but only {live} shards are live"
        );
        // Far past every peer's lifetime every shard is dead: the
        // fallback answers without examining a single PeerRecord.
        let horizon = w.peers.iter().map(|p| p.end_day()).fold(0i64, i64::max) as u64;
        let (delta, n) = i2p_telemetry::counters::exclusive(|| w.online_count(horizon + 7));
        assert_eq!(n, 0);
        assert_eq!(
            delta.get(i2p_telemetry::Counter::FallbackPeersScanned),
            0,
            "dead shards must be skipped outright"
        );
    }

    #[test]
    fn beyond_index_horizon_falls_back_to_scan() {
        let w = small_world();
        let day = w.config.days + 3; // peers can outlive the study window
        let naive = w.peers.iter().filter(|p| p.online(day as i64)).count();
        assert!(naive > 0, "some peers outlive the window");
        assert_eq!(w.online_count(day), naive);
        assert_eq!(w.online_peers(day).count(), naive);
    }

    #[test]
    fn ever_online_exceeds_daily() {
        let w = small_world();
        let daily = w.online_count(15);
        let ever = w.ever_online().count();
        // Churn means the cumulative population dwarfs the daily one
        // (§5.2: 139 K known-IP uniques vs ~17 K daily known-IP).
        assert!(ever as f64 > daily as f64 * 2.0, "ever {ever} vs daily {daily}");
    }
}
