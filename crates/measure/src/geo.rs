//! Geographic analyses: Fig. 10 (countries) and Fig. 11 (ASes).
//!
//! §5.3.2's counting rule for multi-IP peers: "for each peer associated
//! with many IP addresses, we resolve these IP addresses into ASNs and
//! countries before counting them … If two IP addresses of the same
//! peer reside in the same ASN/country, we count the peer only once.
//! Otherwise, each different IP is counted."
//!
//! Both figures finish from the per-peer table of [`crate::ipchurn`]
//! ([`GeoReport::from_table`], [`AsReport::from_table`]), the one
//! accumulator they share with Figs. 8 and 12.

use crate::ipchurn::IpTable;
use i2p_data::FxHashMap;
use i2p_geoip::{CountryId, GeoDb};

/// A ranked distribution row.
#[derive(Clone, Debug)]
pub struct RankedRow {
    /// Display label (country name or AS number).
    pub label: String,
    /// Peers counted under the §5.3.2 rule.
    pub peers: usize,
    /// Cumulative percentage through this rank.
    pub cumulative_pct: f64,
}

/// Country-level result (Fig. 10).
#[derive(Clone, Debug)]
pub struct GeoReport {
    /// All countries, descending.
    pub rows: Vec<RankedRow>,
    /// Total peer-country count (denominator).
    pub total: usize,
    /// Peers in censored (press-freedom > 50) countries.
    pub censored_peers: usize,
    /// Number of censored countries observed.
    pub censored_countries: usize,
    /// Number of distinct countries observed.
    pub countries_observed: usize,
    /// Addresses the geo database could not resolve (§5.3.2's ~2 K).
    pub unresolved_addresses: usize,
}

impl GeoReport {
    /// Fig. 10 off a finished per-peer [`IpTable`] (the accumulator is
    /// [`crate::ipchurn::IpFold`], shared with Figs. 8, 11 and 12).
    pub fn from_table(table: &IpTable, geo: &GeoDb) -> GeoReport {
        let mut per_country = vec![0usize; geo.country_count()];
        let mut unresolved = 0usize;
        for peer in table.peers() {
            // The §5.3.2 rule: one count per (peer, country).
            for c in peer.countries() {
                per_country[c] += 1;
            }
            // Addresses without any resolution.
            if peer.country_count() == 0 {
                unresolved += peer.ip_count();
            }
        }
        let observed = per_country.into_iter().enumerate().filter(|&(_, n)| n > 0);
        GeoReport::rank(observed, unresolved, geo)
    }

    /// Ranks the per-country counts as [`ranked_rows`] does; equal
    /// counts go by country name.
    pub(crate) fn rank(
        per_country: impl IntoIterator<Item = (CountryId, usize)>,
        unresolved: usize,
        geo: &GeoDb,
    ) -> GeoReport {
        let mut censored_peers = 0;
        let mut censored_countries = 0;
        let mut named = Vec::new();
        for (c, n) in per_country {
            if geo.is_censored(c) {
                censored_peers += n;
                censored_countries += 1;
            }
            named.push((geo.country_name(c), n));
        }
        let rows = ranked_rows(named);
        GeoReport {
            total: rows.iter().map(|r| r.peers).sum(),
            countries_observed: rows.len(),
            rows,
            censored_peers,
            censored_countries,
            unresolved_addresses: unresolved,
        }
    }
}

/// AS-level result (Fig. 11).
#[derive(Clone, Debug)]
pub struct AsReport {
    /// All ASes, descending.
    pub rows: Vec<RankedRow>,
    /// Total peer-AS count.
    pub total: usize,
}

impl AsReport {
    /// Fig. 11 off a finished per-peer [`IpTable`].
    pub fn from_table(table: &IpTable) -> AsReport {
        let mut per_as: FxHashMap<u32, usize> = FxHashMap::default();
        for peer in table.peers() {
            for a in peer.ases() {
                *per_as.entry(a).or_default() += 1;
            }
        }
        AsReport::rank(per_as)
    }

    /// Ranks the per-AS counts as [`ranked_rows`] does; equal counts go
    /// by AS number, compared as a number.
    pub(crate) fn rank(per_as: impl IntoIterator<Item = (u32, usize)>) -> AsReport {
        let rows = ranked_rows(per_as.into_iter().collect());
        AsReport { total: rows.iter().map(|r| r.peers).sum(), rows }
    }
}

/// The rows of Figs. 10/11: `(label, peers)` pairs by peer count,
/// descending, with equal counts in ascending label order, each row
/// carrying its cumulative share of the total. The paper ranks by count
/// alone, so the tie rule only has to be total: the rows come out the
/// same whatever order the pairs arrive in.
fn ranked_rows<L: Ord + ToString>(mut items: Vec<(L, usize)>) -> Vec<RankedRow> {
    items.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let total = items.iter().map(|&(_, n)| n).sum::<usize>().max(1);
    let mut cum = 0usize;
    items
        .into_iter()
        .map(|(label, n)| {
            cum += n;
            RankedRow {
                label: label.to_string(),
                peers: n,
                cumulative_pct: 100.0 * cum as f64 / total as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::HarvestEngine;
    use crate::fleet::Fleet;
    use crate::ipchurn::ip_table_from;
    use i2p_sim::world::{World, WorldConfig};

    /// The world and its 30-day per-peer table under the paper's fleet.
    fn setup() -> (World, IpTable) {
        let w = World::generate(WorldConfig { days: 30, scale: 0.03, seed: 51 });
        let table = ip_table_from(&HarvestEngine::build(&w, &Fleet::paper_main(), 0..30), 0..30);
        (w, table)
    }

    #[test]
    fn fig10_us_leads_top20_majority() {
        let (w, table) = setup();
        let rep = GeoReport::from_table(&table, &w.geo);
        assert_eq!(rep.rows[0].label, "United States", "US tops Fig. 10");
        // Top-20 carry the majority (paper: >60 %).
        let top20 = rep.rows.get(19).map(|r| r.cumulative_pct).unwrap_or(100.0);
        assert!((45.0..80.0).contains(&top20), "top-20 cumulative {top20}");
        assert!(rep.countries_observed > 50, "long tail observed ({})", rep.countries_observed);
    }

    #[test]
    fn fig10_censored_countries_present() {
        let (w, table) = setup();
        let rep = GeoReport::from_table(&table, &w.geo);
        assert!(rep.censored_countries >= 10, "censored countries {}", rep.censored_countries);
        let share = rep.censored_peers as f64 / rep.total as f64;
        // Paper: ~6 K of ~170 K cumulative ≈ 3.5 %.
        assert!((0.01..0.09).contains(&share), "censored share {share}");
        // China leads the censored group (§5.3.2).
        let cn_rank = rep.rows.iter().position(|r| r.label == "China");
        let top_censored = rep
            .rows
            .iter()
            .find(|r| {
                w.geo
                    .country_by_code("CN")
                    .map(|c| w.geo.country_name(c) == r.label)
                    .unwrap_or(false)
            })
            .map(|r| r.peers)
            .unwrap_or(0);
        assert!(cn_rank.is_some());
        assert!(top_censored > 0);
    }

    #[test]
    fn fig11_comcast_leads() {
        let (_, table) = setup();
        let rep = AsReport::from_table(&table);
        assert_eq!(rep.rows[0].label, "7922", "AS7922 tops Fig. 11");
        // Top-20 ASes: paper says >30 % of peers.
        let top20 = rep.rows.get(19).map(|r| r.cumulative_pct).unwrap_or(100.0);
        assert!((20.0..60.0).contains(&top20), "top-20 AS cumulative {top20}");
    }

    /// Each row's (label, peers, cumulative %).
    fn cells(rows: &[RankedRow]) -> Vec<(String, usize, f64)> {
        rows.iter().map(|r| (r.label.clone(), r.peers, r.cumulative_pct)).collect()
    }

    /// `items` in every rotation, each forwards and backwards.
    fn arrival_orders<T: Copy>(items: &[T]) -> Vec<Vec<T>> {
        let mut orders = Vec::new();
        for turn in 0..items.len() {
            let mut order = items.to_vec();
            order.rotate_left(turn);
            orders.push(order.clone());
            order.reverse();
            orders.push(order);
        }
        orders
    }

    #[test]
    fn equal_counts_rank_by_label_whatever_order_they_arrive_in() {
        let geo = GeoDb::new();
        let code = |c: &str| geo.country_by_code(c).expect("a listed country");
        let countries = [(code("SE"), 7), (code("US"), 30), (code("NO"), 7), (code("ES"), 7)];
        let expected = cells(&GeoReport::rank(countries, 0, &geo).rows);
        for order in arrival_orders(&countries) {
            let rep = GeoReport::rank(order, 0, &geo);
            let labels: Vec<&str> = rep.rows.iter().map(|r| r.label.as_str()).collect();
            assert_eq!(labels, ["United States", "Norway", "Spain", "Sweden"]);
            assert_eq!(cells(&rep.rows), expected);
        }
        // As strings "64000" sorts before "7018"; as numbers, after.
        let ases = [(64_000, 13), (7018, 13), (209, 2), (7922, 40), (3320, 13)];
        let expected = cells(&AsReport::rank(ases).rows);
        for order in arrival_orders(&ases) {
            let rep = AsReport::rank(order);
            let labels: Vec<&str> = rep.rows.iter().map(|r| r.label.as_str()).collect();
            assert_eq!(labels, ["7922", "3320", "7018", "64000", "209"]);
            assert_eq!(cells(&rep.rows), expected);
        }
    }

    #[test]
    fn multi_country_peers_counted_once_per_country() {
        let (w, table) = setup();
        let rep = GeoReport::from_table(&table, &w.geo);
        let naive: usize = table.peers().map(|p| p.country_count()).sum();
        assert_eq!(rep.total, naive, "counting rule: once per (peer, country)");
        // And the total exceeds the number of peers (roamers add
        // multiple country entries).
        assert!(rep.total >= table.peers().count());
    }
}
