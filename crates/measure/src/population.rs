//! Population analyses: Figs. 2–6, on the indexed harvest engine.
//!
//! Figs. 2 and 3 fill engines over vantages of their own. Figs. 4–6
//! run off any [`SnapshotSource`] — a live engine or a loaded
//! `i2p-store` snapshot — with bit-identical results, and expose their
//! accumulators ([`CoverageFold`], [`CensusFold`], [`OverlapFold`]):
//! each `*_from` is a loop over one, and the CLI's day-major figure pass
//! feeds the same folds (DESIGN.md §14).

use crate::engine::HarvestEngine;
use crate::fleet::{Fleet, Vantage, VantageMode};
use crate::observed::ObservedRouterInfo;
use crate::slots::PeerSlots;
use crate::source::SnapshotSource;
use i2p_data::{FxHashSet, PeerIp};
use i2p_sim::world::World;

/// Fig. 2: a single high-end router, five days per mode.
#[derive(Clone, Debug)]
pub struct SingleRouterSeries {
    /// (day, peers observed) for the floodfill half.
    pub floodfill: Vec<(u64, usize)>,
    /// (day, peers observed) for the non-floodfill half.
    pub non_floodfill: Vec<(u64, usize)>,
}

/// Runs the Fig. 2 experiment: one 8 MB/s router, 5 days in floodfill
/// mode then 5 days in non-floodfill mode.
pub fn single_router_experiment(world: &World, salt: u64) -> SingleRouterSeries {
    let ff = Vantage::monitoring(VantageMode::Floodfill, salt);
    let nf = Vantage::monitoring(VantageMode::NonFloodfill, salt);
    // One single-lane engine per phase: the floodfill half runs days
    // 0..5, the non-floodfill half days 5..10.
    let eng_ff = HarvestEngine::build(world, &Fleet { vantages: vec![ff] }, 0..5);
    let eng_nf = HarvestEngine::build(world, &Fleet { vantages: vec![nf] }, 5..10);
    SingleRouterSeries {
        floodfill: (0..5).map(|d| (d + 1, eng_ff.count_one(0, d))).collect(),
        non_floodfill: (5..10).map(|d| (d + 1, eng_nf.count_one(0, d))).collect(),
    }
}

/// One row of the Fig. 3 bandwidth sweep.
#[derive(Clone, Debug)]
pub struct BandwidthSweepRow {
    /// Shared bandwidth in KB/s.
    pub shared_kbps: u32,
    /// Peers seen by the floodfill vantage.
    pub floodfill: usize,
    /// Peers seen by the non-floodfill vantage.
    pub non_floodfill: usize,
    /// Union of the pair.
    pub both: usize,
}

/// Fig. 3: 7 floodfill + 7 non-floodfill routers at increasing shared
/// bandwidths (§4.2). Results are averaged over `days` to damp noise.
pub fn bandwidth_sweep(world: &World, days: std::ops::Range<u64>) -> Vec<BandwidthSweepRow> {
    const BANDWIDTHS: [u32; 7] = [128, 256, 1024, 2048, 3072, 4096, 5120];
    let day_count = days.clone().count().max(1);
    // All 14 vantages fill one engine; lanes 2i / 2i+1 are the
    // floodfill / non-floodfill pair at BANDWIDTHS[i], and the pair
    // union is two lanes OR-ed — no per-day re-harvest, no id sets.
    let vantages: Vec<Vantage> = BANDWIDTHS
        .iter()
        .enumerate()
        .flat_map(|(i, &b)| {
            [
                Vantage { mode: VantageMode::Floodfill, shared_kbps: b, salt: 0x3_000 + i as u64 },
                Vantage {
                    mode: VantageMode::NonFloodfill,
                    shared_kbps: b,
                    salt: 0x4_000 + i as u64,
                },
            ]
        })
        .collect();
    let engine = HarvestEngine::build(world, &Fleet { vantages }, days.clone());
    BANDWIDTHS
        .iter()
        .enumerate()
        .map(|(i, &b)| {
            let (mut sf, mut sn, mut sb) = (0usize, 0usize, 0usize);
            for d in days.clone() {
                sf += engine.count_one(2 * i, d);
                sn += engine.count_one(2 * i + 1, d);
                sb += engine.count_union_subset(d, &[2 * i, 2 * i + 1]);
            }
            BandwidthSweepRow {
                shared_kbps: b,
                floodfill: sf / day_count,
                non_floodfill: sn / day_count,
                both: sb / day_count,
            }
        })
        .collect()
}

/// Fig. 4: cumulative peers observed when operating 1..=n routers,
/// averaged over `days`, off any source; the curve spans the source's
/// own vantage list (n routers, in prefix order).
pub fn cumulative_by_router_count_from<S: SnapshotSource + ?Sized>(
    src: &S,
    days: std::ops::Range<u64>,
) -> Vec<(usize, usize)> {
    let mut fold = CoverageFold::new(src.vantage_count());
    for d in days {
        fold.add_day(&src.coverage_curve(d));
    }
    fold.finish()
}

/// Fig. 4's accumulator: the per-day cumulative coverage curves
/// ([`SnapshotSource::coverage_curve`] — one cumulative-OR pass yields
/// the whole 1..=n curve of a day), summed over the window's days.
#[derive(Clone, Debug)]
pub struct CoverageFold {
    totals: Vec<usize>,
    days: usize,
}

impl CoverageFold {
    /// An empty fold over a fleet of `vantages` routers.
    pub fn new(vantages: usize) -> Self {
        CoverageFold { totals: vec![0; vantages], days: 0 }
    }

    /// Adds one day's curve.
    pub fn add_day(&mut self, curve: &[usize]) {
        for (t, c) in self.totals.iter_mut().zip(curve) {
            *t += c;
        }
        self.days += 1;
    }

    /// `(routers, peers)` averaged over the days added.
    pub fn finish(&self) -> Vec<(usize, usize)> {
        let days = self.days.max(1);
        self.totals.iter().enumerate().map(|(i, t)| (i + 1, t / days)).collect()
    }
}

/// One day of the Fig. 5 census.
#[derive(Clone, Debug, Default)]
pub struct DailyCensus {
    /// Distinct peers (by hash).
    pub peers: usize,
    /// Distinct addresses of any family.
    pub all_ips: usize,
    /// Distinct IPv4 addresses.
    pub ipv4: usize,
    /// Distinct IPv6 addresses.
    pub ipv6: usize,
    /// Unknown-IP peers (Fig. 6).
    pub unknown_ip: usize,
    /// Firewalled peers (introducers listed).
    pub firewalled: usize,
    /// Hidden peers (no introducers).
    pub hidden: usize,
}

/// Fig. 5 + Fig. 6 (single day): the census of peers and IPs in the
/// full-fleet union on `day`, off any source.
pub fn daily_census_from<S: SnapshotSource + ?Sized>(src: &S, day: u64) -> DailyCensus {
    let mut fold = CensusFold::default();
    src.for_each_observation_ref(day, src.vantage_count(), &mut |rec| fold.observe(rec));
    fold.finish()
}

/// Fig. 5/6's accumulator for one day: peer, address and unknown-IP
/// counts over that day's observations. Each address counts in its
/// family's column, each kept at its own width.
#[derive(Clone, Debug, Default)]
pub struct CensusFold {
    v4: FxHashSet<u32>,
    v6: FxHashSet<u128>,
    census: DailyCensus,
}

impl CensusFold {
    /// Counts one observation of the day.
    pub fn observe(&mut self, rec: &ObservedRouterInfo) {
        let census = &mut self.census;
        census.peers += 1;
        // Capture puts an IPv4 address in `ipv4` and an IPv6 one in
        // `ipv6`; only a forged archive crosses them, and its address
        // still counts in its own family.
        for ip in rec.ips() {
            match ip {
                PeerIp::V4(v4) => self.v4.insert(v4),
                PeerIp::V6(v6) => self.v6.insert(v6),
            };
        }
        if rec.is_unknown_ip() {
            census.unknown_ip += 1;
            if rec.is_firewalled() {
                census.firewalled += 1;
            } else {
                census.hidden += 1;
            }
        }
    }

    /// Adds a fold over other observations of the same day, such as
    /// another id shard's: the counts add, and an address both folds
    /// saw counts once, because two peers may publish the same one.
    pub fn merge(&mut self, part: CensusFold) {
        self.v4.extend(part.v4);
        self.v6.extend(part.v6);
        let (census, part) = (&mut self.census, part.census);
        census.peers += part.peers;
        census.unknown_ip += part.unknown_ip;
        census.firewalled += part.firewalled;
        census.hidden += part.hidden;
    }

    /// The day's census.
    pub fn finish(self) -> DailyCensus {
        DailyCensus {
            ipv4: self.v4.len(),
            ipv6: self.v6.len(),
            all_ips: self.v4.len() + self.v6.len(),
            ..self.census
        }
    }
}

/// Fig. 6's overlap group: peers seen as firewalled on one day and
/// hidden on another within the window, off any source. The observation
/// predicates mirror the world's reachability postures exactly
/// (`Reach::Firewalled` ⇔ `is_firewalled`, `Reach::Hidden` ⇔
/// `is_hidden` for observed online peers), so this needs only archived
/// records — no `PeerRecord` access.
pub fn firewalled_hidden_overlap_from<S: SnapshotSource + ?Sized>(
    src: &S,
    days: std::ops::Range<u64>,
) -> usize {
    let mut slots = PeerSlots::new();
    let mut fold = OverlapFold::default();
    let k = src.vantage_count();
    for d in days {
        let mut today = slots.day(d);
        src.for_each_observation_ref(d, k, &mut |rec| fold.observe(today.slot(rec.peer_id), rec));
    }
    fold.finish()
}

/// Fig. 6's overlap accumulator: per peer slot ([`PeerSlots`]), whether
/// the peer was ever seen firewalled and whether it was ever seen
/// hidden, over every day observed.
#[derive(Clone, Debug, Default)]
pub struct OverlapFold {
    seen: Vec<u8>,
}

impl OverlapFold {
    const FIREWALLED: u8 = 1;
    const HIDDEN: u8 = 2;

    /// Counts one observation of the peer in `slot`.
    pub fn observe(&mut self, slot: u32, rec: &ObservedRouterInfo) {
        let group = if rec.is_firewalled() {
            Self::FIREWALLED
        } else if rec.is_hidden() {
            Self::HIDDEN
        } else {
            return;
        };
        let slot = slot as usize;
        if slot >= self.seen.len() {
            self.seen.resize(slot + 1, 0);
        }
        self.seen[slot] |= group;
    }

    /// Appends a fold over other peers, whose slots come from an index
    /// of their own (another id shard's). The merged fold is for
    /// finishing: its positions no longer match either index's slots.
    pub fn merge(&mut self, part: OverlapFold) {
        self.seen.extend(part.seen);
    }

    /// Peers seen in both groups.
    pub fn finish(&self) -> usize {
        let both = Self::FIREWALLED | Self::HIDDEN;
        self.seen.iter().filter(|&&g| g == both).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use i2p_sim::world::WorldConfig;

    fn world() -> World {
        World::generate(WorldConfig { days: 12, scale: 0.04, seed: 11 })
    }

    #[test]
    fn fig2_modes_comparable_and_stable() {
        let w = world();
        let s = single_router_experiment(&w, 0xF162);
        assert_eq!(s.floodfill.len(), 5);
        assert_eq!(s.non_floodfill.len(), 5);
        // Both modes observe a large, similar population (Fig. 2 shows
        // 15–16 K of ~32 K; tolerances generous at test scale).
        for (_, n) in s.floodfill.iter().chain(&s.non_floodfill) {
            let frac = *n as f64 / w.online_count(5) as f64;
            assert!((0.30..0.65).contains(&frac), "coverage {frac}");
        }
    }

    #[test]
    fn fig3_union_flatter_than_parts() {
        let w = world();
        let rows = bandwidth_sweep(&w, 2..6);
        // Non-floodfill coverage grows with bandwidth.
        assert!(rows.last().unwrap().non_floodfill > rows[0].non_floodfill);
        // The pair union varies less (relatively) than the non-floodfill
        // curve — the paper's "constant 17–18 K" plateau.
        let nf_rel = rows.last().unwrap().non_floodfill as f64 / rows[0].non_floodfill as f64;
        let both_rel = rows.last().unwrap().both as f64 / rows[0].both as f64;
        assert!(both_rel < nf_rel, "union must be flatter: {both_rel} vs {nf_rel}");
        // Union exceeds each part.
        for r in &rows {
            assert!(r.both >= r.floodfill.max(r.non_floodfill));
        }
    }

    #[test]
    fn fig4_concave_and_saturating() {
        let w = world();
        let engine = HarvestEngine::build(&w, &Fleet::alternating(12), 3..5);
        let curve = cumulative_by_router_count_from(&engine, 3..5);
        // Monotone non-decreasing.
        for win in curve.windows(2) {
            assert!(win[1].1 >= win[0].1);
        }
        // Concave-ish: the first half of the routers contribute more
        // than the second half (logarithmic growth, §4.3).
        let first_half = curve[5].1 - curve[0].1;
        let second_half = curve[11].1 - curve[5].1;
        assert!(first_half > second_half, "{first_half} vs {second_half}");
    }

    #[test]
    fn fig5_ips_below_peers() {
        let w = world();
        let c = daily_census_from(&HarvestEngine::build(&w, &Fleet::paper_main(), 6..7), 6);
        assert!(c.all_ips < c.peers, "unique IPs ({}) below peers ({})", c.all_ips, c.peers);
        assert!(c.ipv6 < c.ipv4, "IPv6 well below IPv4");
        assert!(c.peers > 0 && c.ipv4 > 0 && c.ipv6 > 0);
    }

    #[test]
    fn fig6_firewalled_dominate_unknown_ip() {
        let w = world();
        let c = daily_census_from(&HarvestEngine::build(&w, &Fleet::paper_main(), 6..7), 6);
        assert_eq!(c.unknown_ip, c.firewalled + c.hidden);
        assert!(c.firewalled > c.hidden * 2, "fw {} vs hidden {}", c.firewalled, c.hidden);
        // Roughly half the network has no published IP.
        let share = c.unknown_ip as f64 / c.peers as f64;
        assert!((0.35..0.60).contains(&share), "unknown-IP share {share}");
    }

    /// Folds `records` into a fresh census part.
    fn census_of<'a>(records: impl IntoIterator<Item = &'a ObservedRouterInfo>) -> CensusFold {
        let mut fold = CensusFold::default();
        records.into_iter().for_each(|rec| fold.observe(rec));
        fold
    }

    #[test]
    fn census_parts_that_share_an_address_count_it_once() {
        // Two peers of different id shards can publish one address on
        // the same day; adding the parts' set sizes would count it twice.
        let w = world();
        let fleet = Fleet::paper_main();
        let engine = HarvestEngine::build(&w, &fleet, 6..7);
        let mut records = Vec::new();
        engine.for_each_observation(6, fleet.vantages.len(), |rec| records.push(rec));
        let first = records.iter().position(|r| r.ipv4.is_some()).expect("a published address");
        let last = records.iter().rposition(|r| r.ipv4.is_some()).expect("a published address");
        records[last].ipv4 = records[first].ipv4;
        let (low, high) = records.split_at(records.len() / 2);
        assert!(first < low.len() && last >= low.len(), "the two peers fall in different parts");
        let mut merged = census_of(low);
        merged.merge(census_of(high));
        let merged = merged.finish();
        let whole = census_of(&records).finish();
        assert_eq!(format!("{merged:?}"), format!("{whole:?}"));
        let sizes_added = census_of(low).finish().ipv4 + census_of(high).finish().ipv4;
        assert_eq!(sizes_added, whole.ipv4 + 1, "both parts hold the shared address");
    }

    #[test]
    fn overlap_parts_append_their_peers() {
        // Each part slots its own peers, as an id shard of the figure
        // pass does; appended, the parts find the unsplit fold's overlap.
        let w = world();
        let fleet = Fleet::paper_main();
        let engine = HarvestEngine::build(&w, &fleet, 0..10);
        let (mut slots, mut whole) = (PeerSlots::new(), OverlapFold::default());
        let mut part_slots = [PeerSlots::new(), PeerSlots::new()];
        let mut parts = [OverlapFold::default(), OverlapFold::default()];
        for day in 0..10 {
            let mut today = slots.day(day);
            let mut part_days = part_slots.each_mut().map(|slots| slots.day(day));
            engine.for_each_observation(day, fleet.vantages.len(), |rec| {
                whole.observe(today.slot(rec.peer_id), &rec);
                let part = (rec.peer_id % 2) as usize;
                parts[part].observe(part_days[part].slot(rec.peer_id), &rec);
            });
        }
        let [mut merged, high] = parts;
        merged.merge(high);
        assert!(whole.finish() > 0, "the window has peers in both groups");
        assert_eq!(merged.finish(), whole.finish());
    }

    #[test]
    fn fig6_overlap_nonempty() {
        let w = world();
        let engine = HarvestEngine::build(&w, &Fleet::paper_main(), 0..10);
        let overlap = firewalled_hidden_overlap_from(&engine, 0..10);
        assert!(overlap > 0, "switching peers must appear in both groups");
    }
}
