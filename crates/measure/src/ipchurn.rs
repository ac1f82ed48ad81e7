//! IP-churn analyses: Fig. 8 (distinct IPs per peer) and Fig. 12
//! (distinct ASes for multi-IP peers).
//!
//! §5.2.2: over three months, 45 % of known-IP peers kept a single
//! address, 55 % had at least two, and a small group of ~460 peers
//! (0.65 %) exceeded one hundred addresses; §5.3.2 traces the multi-AS
//! tail to VPN/Tor-routed routers.

use crate::observed::ObservedRouterInfo;
use crate::slots::PeerSlots;
use crate::source::SnapshotSource;
use i2p_data::PeerIp;
use i2p_geoip::GeoDb;

/// One known-IP peer's window: its distinct addresses, and the distinct
/// ASes and countries they resolve to (unresolvable addresses are
/// skipped, as with MaxMind misses).
///
/// A peer with one address, one AS and one country — about half of
/// them — is stored inline, in 32 bytes; the rest of a peer with more
/// sits in one boxed side record.
#[derive(Clone, Debug)]
pub struct PeerIps {
    id: u32,
    /// The first address. A row opens on a record that publishes IPv4,
    /// so only a forged archive's `ipv4` field can hold an IPv6 address;
    /// that address then goes with the peer's other IPv6 addresses.
    first: Option<u32>,
    /// AS number and country of the first address that resolved.
    loc: Option<(u32, u32)>,
    more: Option<Box<MoreIps>>,
}

/// The addresses, ASes and countries of a peer after its first ones,
/// each kept at its own width.
#[derive(Clone, Debug, Default)]
struct MoreIps {
    v4: Vec<u32>,
    v6: Vec<u128>,
    ases: Vec<u32>,
    countries: Vec<u32>,
}

/// An address's AS number and country, if the database allocated it.
/// The database holds 225 countries, so a country id fits a `u32`.
fn resolve(geo: &GeoDb, ip: PeerIp) -> Option<(u32, u32)> {
    geo.lookup(ip).map(|loc| (geo.asn(loc.asn_id), loc.country as u32))
}

/// Appends `value` unless `seen` holds it; true if it was new. A peer
/// that moves usually repeats its latest address, so the search runs
/// from the back.
fn push_new<T: Copy + PartialEq>(seen: &mut Vec<T>, value: T) -> bool {
    if seen.iter().rev().any(|&v| v == value) {
        return false;
    }
    seen.push(value);
    true
}

impl PeerIps {
    fn new(id: u32, first: PeerIp, geo: &GeoDb) -> PeerIps {
        let (v4, more) = match first {
            PeerIp::V4(v4) => (Some(v4), None),
            PeerIp::V6(v6) => {
                let more = MoreIps { v6: vec![v6], ..MoreIps::default() };
                (None, Some(Box::new(more)))
            }
        };
        PeerIps { id, first: v4, loc: resolve(geo, first), more }
    }

    /// Folds in one published address; a repeat changes nothing.
    fn add(&mut self, ip: PeerIp, geo: &GeoDb) {
        if self.first.is_some_and(|v4| ip == PeerIp::V4(v4)) {
            return;
        }
        // A second distinct address is where the side record starts.
        let more = self.more.get_or_insert_with(Box::default);
        let new = match ip {
            PeerIp::V4(v4) => push_new(&mut more.v4, v4),
            PeerIp::V6(v6) => push_new(&mut more.v6, v6),
        };
        if !new {
            return;
        }
        let Some((asn, country)) = resolve(geo, ip) else { return };
        let Some((first_asn, first_country)) = self.loc else {
            self.loc = Some((asn, country));
            return;
        };
        if asn != first_asn && !more.ases.contains(&asn) {
            more.ases.push(asn);
        }
        if country != first_country && !more.countries.contains(&country) {
            more.countries.push(country);
        }
    }

    /// The peer id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Distinct addresses: the IPv4 ones, then the IPv6 ones, each in
    /// first-seen order.
    pub fn ips(&self) -> impl Iterator<Item = PeerIp> + '_ {
        let (v4, v6) = self.more.as_deref().map_or((&[][..], &[][..]), |m| (&m.v4[..], &m.v6[..]));
        let v4 = self.first.into_iter().chain(v4.iter().copied()).map(PeerIp::V4);
        v4.chain(v6.iter().copied().map(PeerIp::V6))
    }

    /// Number of distinct addresses.
    pub fn ip_count(&self) -> usize {
        let more = self.more.as_ref().map_or(0, |m| m.v4.len() + m.v6.len());
        usize::from(self.first.is_some()) + more
    }

    /// Distinct AS numbers, first-seen order.
    pub fn ases(&self) -> impl Iterator<Item = u32> + '_ {
        let more = self.more.as_deref().map_or(&[][..], |m| &m.ases);
        self.loc.map(|(asn, _)| asn).into_iter().chain(more.iter().copied())
    }

    /// Number of distinct ASes.
    pub fn as_count(&self) -> usize {
        usize::from(self.loc.is_some()) + self.more.as_ref().map_or(0, |m| m.ases.len())
    }

    /// Distinct countries, first-seen order.
    pub fn countries(&self) -> impl Iterator<Item = usize> + '_ {
        let more = self.more.as_deref().map_or(&[][..], |m| &m.countries);
        let first = self.loc.map(|(_, country)| country);
        first.into_iter().chain(more.iter().copied()).map(|c| c as usize)
    }

    /// Number of distinct countries.
    pub fn country_count(&self) -> usize {
        usize::from(self.loc.is_some()) + self.more.as_ref().map_or(0, |m| m.countries.len())
    }
}

/// The per-peer table Figs. 8, 10, 11 and 12 are all computed from:
/// one [`PeerIps`] per known-IP peer. A fold's table lists its peers in
/// first-IPv4-sighting order; a merged one lists each part's rows in
/// turn. No figure depends on the row order.
#[derive(Clone, Debug, Default)]
pub struct IpTable {
    /// The rows, in the buffers of the tables merged into this one.
    parts: Vec<Vec<PeerIps>>,
}

impl IpTable {
    /// The known-IP peers, one row each.
    pub fn peers(&self) -> impl DoubleEndedIterator<Item = &PeerIps> + '_ {
        self.parts.iter().flatten()
    }

    /// Appends the rows of a table over other peers (another id
    /// shard's). Its buffers move over rather than being copied, so
    /// merging allocates no second copy of the rows. A peer's id puts it
    /// in one shard, so no peer gets two rows, and since no figure reads
    /// the row order, tables merge in any order.
    pub fn merge(&mut self, part: IpTable) {
        self.parts.extend(part.parts);
    }
}

/// The Fig. 8 / Fig. 12 aggregate.
#[derive(Clone, Debug)]
pub struct IpChurnReport {
    /// Histogram: `ip_hist[k]` = peers with exactly `k` distinct IPs
    /// (index 0 unused; last bucket aggregates overflow).
    pub ip_hist: Vec<usize>,
    /// Histogram over distinct AS counts for multi-IP peers.
    pub as_hist: Vec<usize>,
    /// Known-IP peers in the window.
    pub known_ip_peers: usize,
    /// Peers with ≥ 2 addresses.
    pub multi_ip_peers: usize,
    /// Peers with > 100 addresses (the paper's 460-peer group).
    pub over_100_ips: usize,
    /// Maximum distinct ASes for one peer (paper: 39).
    pub max_ases: usize,
    /// Maximum distinct countries for one peer (paper: 25).
    pub max_countries: usize,
}

/// The per-peer IP table of a window, off any source.
pub fn ip_table_from<S: SnapshotSource + ?Sized>(src: &S, days: std::ops::Range<u64>) -> IpTable {
    let k = src.vantage_count();
    let mut slots = PeerSlots::new();
    let mut fold = IpFold::new(src.geo());
    for day in days {
        let mut today = slots.day(day);
        src.for_each_observation_ref(day, k, &mut |rec| fold.observe(today.slot(rec.peer_id), rec));
    }
    fold.finish()
}

/// The accumulator behind [`IpTable`], fed by peer slot
/// ([`PeerSlots`]). A record publishes an address iff its `ipv4` field
/// is set (capture fills it exactly when the peer publishes that day),
/// so the observation stream carries everything the table needs. Days
/// must arrive ascending and, within a day, peers ascending by id — the
/// order every [`SnapshotSource`] walk yields.
#[derive(Clone, Debug)]
pub struct IpFold<'g> {
    geo: &'g GeoDb,
    /// Each slot's row in `peers`, or [`IpFold::NO_ROW`].
    rows: Vec<u32>,
    peers: Vec<PeerIps>,
}

impl<'g> IpFold<'g> {
    const NO_ROW: u32 = u32::MAX;

    /// An empty table resolving addresses against `geo`.
    pub fn new(geo: &'g GeoDb) -> Self {
        IpFold { geo, rows: Vec::new(), peers: Vec::new() }
    }

    /// Folds in one observation of the peer in `slot`; unknown-IP
    /// records are skipped.
    pub fn observe(&mut self, slot: u32, rec: &ObservedRouterInfo) {
        let Some(v4) = rec.ipv4 else { return };
        let slot = slot as usize;
        if slot >= self.rows.len() {
            self.rows.resize(slot + 1, Self::NO_ROW);
        }
        if self.rows[slot] == Self::NO_ROW {
            // Rows never outnumber slots.
            self.rows[slot] = self.peers.len() as u32;
            self.peers.push(PeerIps::new(rec.peer_id, v4, self.geo));
        }
        let peer = &mut self.peers[self.rows[slot] as usize];
        for ip in rec.ips() {
            peer.add(ip, self.geo);
        }
    }

    /// The finished table.
    pub fn finish(self) -> IpTable {
        IpTable { parts: vec![self.peers] }
    }
}

impl IpChurnReport {
    /// The Fig. 8 / Fig. 12 report of a finished [`IpTable`].
    pub fn from_table(table: &IpTable) -> IpChurnReport {
        Self::from_counts(
            table.peers().map(|p| (p.ip_count(), p.as_count(), p.country_count())),
        )
    }

    /// The report of each known-IP peer's (addresses, ASes, countries)
    /// counts.
    fn from_counts(peers: impl Iterator<Item = (usize, usize, usize)>) -> IpChurnReport {
        const IP_BUCKETS: usize = 16;
        const AS_BUCKETS: usize = 10;
        let mut ip_hist = vec![0usize; IP_BUCKETS + 1];
        let mut as_hist = vec![0usize; AS_BUCKETS + 1];
        let mut multi = 0;
        let mut over100 = 0;
        let mut max_ases = 0;
        let mut max_countries = 0;
        let mut known_ip_peers = 0;
        for (n_ips, n_ases, n_countries) in peers {
            known_ip_peers += 1;
            ip_hist[n_ips.min(IP_BUCKETS)] += 1;
            if n_ips >= 2 {
                multi += 1;
                as_hist[n_ases.min(AS_BUCKETS)] += 1;
            }
            if n_ips > 100 {
                over100 += 1;
            }
            max_ases = max_ases.max(n_ases);
            max_countries = max_countries.max(n_countries);
        }
        IpChurnReport {
            ip_hist,
            as_hist,
            known_ip_peers,
            multi_ip_peers: multi,
            over_100_ips: over100,
            max_ases,
            max_countries,
        }
    }
}

/// The hash-map fold Figs. 8 and 10–12 were computed from before the
/// slot-indexed [`IpTable`], kept as the oracle its tests compare with:
/// one `FxHashMap` entry per known-IP peer, holding three `FxHashSet`s.
/// It pins each peer's sets and counts and every rendered row; no order.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use crate::geo::{AsReport, GeoReport};
    use i2p_data::{FxHashMap, FxHashSet};

    /// Per-peer address/AS accumulation over the window.
    #[derive(Clone, Debug, Default)]
    pub struct PeerIpStats {
        pub ips: FxHashSet<PeerIp>,
        pub ases: FxHashSet<u32>,
        pub countries: FxHashSet<usize>,
    }

    /// The per-peer map.
    pub type IpMap = FxHashMap<u32, PeerIpStats>;

    /// The map of `src`'s `days`, folded record by record.
    pub fn ip_map_from(src: &dyn SnapshotSource, days: std::ops::Range<u64>) -> IpMap {
        let geo = src.geo();
        let mut peers = IpMap::default();
        for day in days {
            src.for_each_observation_ref(day, src.vantage_count(), &mut |rec| {
                if rec.ipv4.is_none() {
                    return;
                }
                let entry = peers.entry(rec.peer_id).or_default();
                for ip in rec.ips() {
                    if entry.ips.insert(ip) {
                        if let Some(loc) = geo.lookup(ip) {
                            entry.ases.insert(geo.asn(loc.asn_id));
                            entry.countries.insert(loc.country);
                        }
                    }
                }
            });
        }
        peers
    }

    /// Figs. 8/12 off the map.
    pub fn churn_report(map: &IpMap) -> IpChurnReport {
        IpChurnReport::from_counts(
            map.values().map(|s| (s.ips.len(), s.ases.len(), s.countries.len())),
        )
    }

    /// Fig. 10 off the map.
    pub fn geo_report(map: &IpMap, geo: &GeoDb) -> GeoReport {
        let mut per_country: FxHashMap<usize, usize> = FxHashMap::default();
        let mut unresolved = 0usize;
        for s in map.values() {
            for &c in &s.countries {
                *per_country.entry(c).or_default() += 1;
            }
            if s.countries.is_empty() && !s.ips.is_empty() {
                unresolved += s.ips.len();
            }
        }
        GeoReport::rank(per_country, unresolved, geo)
    }

    /// Fig. 11 off the map.
    pub fn as_report(map: &IpMap) -> AsReport {
        let mut per_as: FxHashMap<u32, usize> = FxHashMap::default();
        for s in map.values() {
            for &a in &s.ases {
                *per_as.entry(a).or_default() += 1;
            }
        }
        AsReport::rank(per_as)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::HarvestEngine;
    use crate::fleet::Fleet;
    use crate::geo::{AsReport, GeoReport, RankedRow};
    use crate::keyspace::{KeyspaceConfig, VisibilityModel};
    use crate::report;
    use i2p_data::FxHashSet;
    use i2p_faults::{FaultPlane, FaultSpec};
    use i2p_sim::world::{World, WorldConfig};

    /// Holds the table to the hash-map reference on `src`: the same
    /// peers, each with the same addresses, ASes and countries, none
    /// repeated, and every row of Figs. 8 and 10–12 in text and CSV.
    fn assert_matches_reference(src: &dyn SnapshotSource) {
        let geo = src.geo();
        let table = ip_table_from(src, src.days());
        let map = reference::ip_map_from(src, src.days());
        assert_eq!(table.peers().count(), map.len(), "known-IP peers");
        for peer in table.peers() {
            let id = peer.id();
            let stats = map.get(&id).unwrap_or_else(|| panic!("peer {id} is not in the reference"));
            assert_eq!(peer.ips().collect::<FxHashSet<_>>(), stats.ips, "peer {id} addresses");
            assert_eq!(peer.ip_count(), stats.ips.len(), "peer {id} repeats an address");
            assert_eq!(peer.ases().collect::<FxHashSet<_>>(), stats.ases, "peer {id} ASes");
            assert_eq!(peer.as_count(), stats.ases.len(), "peer {id} repeats an AS");
            let countries = peer.countries().collect::<FxHashSet<_>>();
            assert_eq!(countries, stats.countries, "peer {id} countries");
            assert_eq!(peer.country_count(), stats.countries.len(), "peer {id} repeats a country");
        }
        let ours = IpChurnReport::from_table(&table);
        let theirs = reference::churn_report(&map);
        assert_eq!(report::fig8(&ours).text(), report::fig8(&theirs).text());
        assert_eq!(report::fig8(&ours).csv(), report::fig8(&theirs).csv());
        assert_eq!(report::fig12(&ours).text(), report::fig12(&theirs).text());
        assert_eq!(report::fig12(&ours).csv(), report::fig12(&theirs).csv());
        let ours = GeoReport::from_table(&table, geo);
        let theirs = reference::geo_report(&map, geo);
        let all = theirs.rows.len();
        assert_eq!(report::fig10(&ours, all).text(), report::fig10(&theirs, all).text());
        assert_eq!(report::fig10(&ours, all).csv(), report::fig10(&theirs, all).csv());
        let ours = AsReport::from_table(&table);
        let theirs = reference::as_report(&map);
        let all = theirs.rows.len();
        assert_eq!(report::fig11(&ours, all).text(), report::fig11(&theirs, all).text());
        assert_eq!(report::fig11(&ours, all).csv(), report::fig11(&theirs, all).csv());
    }

    #[test]
    fn a_forged_ipv6_first_address_is_kept_and_counted() {
        // Capture fills `ipv4` with IPv4 only, but an archive row may
        // carry any address there; the table keeps and counts it all the
        // same, after the IPv4 addresses like any other IPv6 one.
        let geo = GeoDb::new();
        let (a, b, c) = (PeerIp::V6(7 << 64), PeerIp::V4(0x0A00_0001), PeerIp::V4(0x0A00_0002));
        let rec = |ipv4, ipv6, day| ObservedRouterInfo {
            hash: i2p_data::Hash256([0; 32]),
            peer_id: 9,
            caps: i2p_data::CapsString::new(),
            ipv4: Some(ipv4),
            ipv6,
            has_introducers: false,
            day,
        };
        let mut fold = IpFold::new(&geo);
        fold.observe(0, &rec(a, Some(b), 0));
        fold.observe(0, &rec(b, Some(a), 1));
        fold.observe(0, &rec(c, None, 2));
        let table = fold.finish();
        let peer = table.peers().next().expect("one known-IP peer");
        assert_eq!(peer.ips().collect::<Vec<_>>(), [b, c, a]);
        assert_eq!(peer.ip_count(), 3);
    }

    #[test]
    fn table_matches_the_hash_map_reference_on_a_grid_of_worlds() {
        let days = 40;
        let world = World::generate(WorldConfig { days, scale: 0.03, seed: 20_180_201 });
        let keyspace = VisibilityModel::Keyspace(KeyspaceConfig::paper());
        let outage = FaultPlane::new(FaultSpec::parse("outage=0.3").expect("spec"), 0x07A6E);
        let grid = [
            (Fleet::paper_main(), VisibilityModel::Uniform, FaultPlane::zero()),
            (Fleet::alternating(8), VisibilityModel::Uniform, FaultPlane::zero()),
            (Fleet::paper_main(), keyspace.clone(), FaultPlane::zero()),
            (Fleet::alternating(8), keyspace, FaultPlane::zero()),
            (Fleet::paper_main(), VisibilityModel::Uniform, outage),
        ];
        for (fleet, model, plane) in &grid {
            let engine = HarvestEngine::build_faulted(&world, fleet, 0..days, model, plane);
            assert_matches_reference(&engine);
        }
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "a scale-1, 89-day world is minutes unoptimised; CI runs this in release"
    )]
    fn table_matches_the_hash_map_reference_at_census_size() {
        let world = World::generate(WorldConfig { days: 89, scale: 1.0, seed: 20_180_201 });
        let engine = HarvestEngine::build(&world, &Fleet::paper_main(), 0..89);
        assert_matches_reference(&engine);
    }

    #[test]
    fn fig10_and_fig11_rows_do_not_depend_on_the_table_order() {
        // A parallel pass would merge per-shard tables in any order.
        let world = World::generate(WorldConfig { days: 30, scale: 0.03, seed: 51 });
        let engine = HarvestEngine::build(&world, &Fleet::paper_main(), 0..30);
        let table = ip_table_from(&engine, 0..30);
        let reversed = IpTable { parts: vec![table.peers().rev().cloned().collect()] };
        let ties = |rows: &[RankedRow]| rows.windows(2).any(|w| w[0].peers == w[1].peers);
        let geo = engine.geo();
        let ours = GeoReport::from_table(&table, geo);
        let theirs = GeoReport::from_table(&reversed, geo);
        assert!(ties(&ours.rows), "no two countries tie");
        let all = ours.rows.len();
        assert_eq!(report::fig10(&ours, all).text(), report::fig10(&theirs, all).text());
        assert_eq!(report::fig10(&ours, all).csv(), report::fig10(&theirs, all).csv());
        let ours = AsReport::from_table(&table);
        let theirs = AsReport::from_table(&reversed);
        assert!(ties(&ours.rows), "no two ASes tie");
        let all = ours.rows.len();
        assert_eq!(report::fig11(&ours, all).text(), report::fig11(&theirs, all).text());
        assert_eq!(report::fig11(&ours, all).csv(), report::fig11(&theirs, all).csv());
    }

    fn report() -> IpChurnReport {
        let w = World::generate(WorldConfig { days: 89, scale: 0.01, seed: 31 });
        let engine = HarvestEngine::build(&w, &Fleet::paper_main(), 0..89);
        IpChurnReport::from_table(&ip_table_from(&engine, 0..89))
    }

    #[test]
    fn single_ip_share_near_45_percent() {
        let r = report();
        assert!(r.known_ip_peers > 200, "known-IP peers {}", r.known_ip_peers);
        let single = r.ip_hist[1] as f64 / r.known_ip_peers as f64;
        assert!((0.30..0.62).contains(&single), "single-IP share {single}");
        let multi = r.multi_ip_peers as f64 / r.known_ip_peers as f64;
        assert!(((single + multi) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn heavy_rotators_exist_but_are_rare() {
        let r = report();
        let share = r.over_100_ips as f64 / r.known_ip_peers.max(1) as f64;
        assert!(share < 0.03, "over-100-IP share {share}");
        // With roamers rotating roughly daily over 89 days, at least one
        // peer should pass 60 addresses even at test scale.
        let heavy = r.ip_hist[16];
        assert!(heavy > 0, "bucket 16+ must be populated");
    }

    #[test]
    fn most_multi_ip_peers_stay_in_one_as() {
        let r = report();
        let one_as = r.as_hist[1] as f64 / r.multi_ip_peers.max(1) as f64;
        assert!(one_as > 0.65, "one-AS share among multi-IP peers {one_as}");
        assert!(r.max_ases >= 3, "roamers must span ASes (max {})", r.max_ases);
        assert!(r.max_countries >= 2);
    }

    #[test]
    fn histogram_accounts_everyone() {
        let r = report();
        let total: usize = r.ip_hist.iter().sum();
        assert_eq!(total, r.known_ip_peers);
    }
}
