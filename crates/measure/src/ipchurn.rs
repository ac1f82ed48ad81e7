//! IP-churn analyses: Fig. 8 (distinct IPs per peer) and Fig. 12
//! (distinct ASes for multi-IP peers).
//!
//! §5.2.2: over three months, 45 % of known-IP peers kept a single
//! address, 55 % had at least two, and a small group of ~460 peers
//! (0.65 %) exceeded one hundred addresses; §5.3.2 traces the multi-AS
//! tail to VPN/Tor-routed routers.

use crate::engine::HarvestEngine;
use crate::fleet::Fleet;
use crate::observed::ObservedRouterInfo;
use crate::source::SnapshotSource;
use i2p_data::{FxHashMap, FxHashSet, PeerIp};
use i2p_geoip::GeoDb;
use i2p_sim::world::World;

/// Per-peer address/AS accumulation over the window.
#[derive(Clone, Debug, Default)]
pub struct PeerIpStats {
    /// Distinct addresses observed.
    pub ips: FxHashSet<PeerIp>,
    /// Distinct ASes those addresses resolve to (unresolvable addresses
    /// are skipped, as with MaxMind misses).
    pub ases: FxHashSet<u32>,
    /// Distinct countries.
    pub countries: FxHashSet<usize>,
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

/// The per-peer IP map Figs. 8, 10, 11 and 12 are all computed from.
pub type IpMap = FxHashMap<u32, PeerIpStats>;

/// Accumulates per-peer IP/AS observations over a window.
pub fn collect_ip_stats(world: &World, fleet: &Fleet, days: std::ops::Range<u64>) -> IpMap {
    let engine = HarvestEngine::build(world, fleet, days.clone());
    collect_ip_stats_from(&engine, days)
}

/// [`collect_ip_stats`] off any source.
pub fn collect_ip_stats_from<S: SnapshotSource + ?Sized>(
    src: &S,
    days: std::ops::Range<u64>,
) -> IpMap {
    let k = src.vantage_count();
    let mut fold = IpFold::new(src.geo());
    for day in days {
        src.for_each_observation_ref(day, k, &mut |rec| fold.observe(rec));
    }
    fold.finish()
}

/// The accumulator behind [`IpMap`]. A record publishes an address iff
/// its `ipv4` field is set (capture fills it exactly when the peer
/// publishes that day), so the observation stream carries everything
/// the accumulation needs.
///
/// Fig. 10/11 rank their rows with a stable sort over hash-map
/// iteration order, and that order depends on the order keys were
/// inserted. Every caller therefore feeds the fold in one order — days
/// ascending, peer ids ascending within a day, IPv4 before IPv6 — which
/// is what keeps a shared map byte-identical to a per-figure one.
#[derive(Clone, Debug)]
pub struct IpFold<'g> {
    geo: &'g GeoDb,
    peers: IpMap,
}

impl<'g> IpFold<'g> {
    /// An empty map resolving addresses against `geo`.
    pub fn new(geo: &'g GeoDb) -> Self {
        IpFold { geo, peers: IpMap::default() }
    }

    /// Folds one observation in; unknown-IP records are skipped.
    pub fn observe(&mut self, rec: &ObservedRouterInfo) {
        if rec.ipv4.is_none() {
            return;
        }
        let entry = self.peers.entry(rec.peer_id).or_default();
        for ip in rec.ips() {
            // A repeat address resolves to an AS and a country the
            // sets already hold: re-inserting them would change nothing.
            if entry.ips.insert(ip) {
                if let Some(loc) = self.geo.lookup(ip) {
                    entry.ases.insert(self.geo.asn(loc.asn_id));
                    entry.countries.insert(loc.country);
                }
            }
        }
    }

    /// The finished map.
    pub fn finish(self) -> IpMap {
        self.peers
    }
}

/// Builds the Fig. 8 / Fig. 12 report.
pub fn ip_churn_report(world: &World, fleet: &Fleet, days: std::ops::Range<u64>) -> IpChurnReport {
    let engine = HarvestEngine::build(world, fleet, days.clone());
    ip_churn_report_from(&engine, days)
}

/// [`ip_churn_report`] off any source.
pub fn ip_churn_report_from<S: SnapshotSource + ?Sized>(
    src: &S,
    days: std::ops::Range<u64>,
) -> IpChurnReport {
    IpChurnReport::from_stats(&collect_ip_stats_from(src, days))
}

impl IpChurnReport {
    /// The Fig. 8 / Fig. 12 report of a finished [`IpMap`].
    pub fn from_stats(stats: &IpMap) -> IpChurnReport {
        const IP_BUCKETS: usize = 16;
        const AS_BUCKETS: usize = 10;
        let mut ip_hist = vec![0usize; IP_BUCKETS + 1];
        let mut as_hist = vec![0usize; AS_BUCKETS + 1];
        let mut multi = 0;
        let mut over100 = 0;
        let mut max_ases = 0;
        let mut max_countries = 0;
        for s in stats.values() {
            let n_ips = s.ips.len();
            ip_hist[n_ips.min(IP_BUCKETS)] += 1;
            if n_ips >= 2 {
                multi += 1;
                as_hist[s.ases.len().min(AS_BUCKETS)] += 1;
            }
            if n_ips > 100 {
                over100 += 1;
            }
            max_ases = max_ases.max(s.ases.len());
            max_countries = max_countries.max(s.countries.len());
        }
        IpChurnReport {
            ip_hist,
            as_hist,
            known_ip_peers: stats.len(),
            multi_ip_peers: multi,
            over_100_ips: over100,
            max_ases,
            max_countries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use i2p_sim::world::WorldConfig;

    fn report() -> IpChurnReport {
        let w = World::generate(WorldConfig { days: 89, scale: 0.01, seed: 31 });
        let fleet = Fleet::paper_main();
        ip_churn_report(&w, &fleet, 0..89)
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
