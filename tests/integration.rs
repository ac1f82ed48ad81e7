//! Cross-crate integration tests: the full measurement pipeline from
//! world generation through every analysis, plus determinism and
//! consistency checks that span crate boundaries.

use i2pscope::measure::capacity::{
    bandwidth_table_from, capacity_histogram_from, floodfill_estimate_from,
};
use i2pscope::measure::censor::{blocking_matrix, censor_blacklist_from_engine, victim_view};
use i2pscope::measure::churn::churn_curves_from;
use i2pscope::measure::fleet::Fleet;
use i2pscope::measure::geo::{AsReport, GeoReport};
use i2pscope::measure::ipchurn::{ip_table_from, IpChurnReport};
use i2pscope::measure::population::{
    bandwidth_sweep, cumulative_by_router_count_from, daily_census_from,
};
use i2pscope::measure::{report, HarvestEngine};
use i2pscope::sim::world::{World, WorldConfig};

fn world() -> World {
    World::generate(WorldConfig { days: 40, scale: 0.03, seed: 7_777 })
}

#[test]
fn full_pipeline_produces_all_figures() {
    let w = world();
    let fleet = Fleet::paper_main();
    let engine = HarvestEngine::build(&w, &fleet, 0..40);

    // Every figure renders non-trivially from one world.
    let sweep = bandwidth_sweep(&w, 2..5);
    assert_eq!(sweep.len(), 7);
    assert!(!report::render_fig3(&sweep).is_empty());

    let alternating = HarvestEngine::build(&w, &Fleet::alternating(20), 2..4);
    let curve = cumulative_by_router_count_from(&alternating, 2..4);
    assert_eq!(curve.len(), 20);

    let census: Vec<_> = (0..10).map(|d| (d, daily_census_from(&engine, d))).collect();
    assert!(census.iter().all(|(_, c)| c.peers > 0));
    assert!(!report::render_fig5(&census).is_empty());

    let churn = churn_curves_from(&engine, 30);
    assert!(churn.cohort > 0);

    let ip = IpChurnReport::from_table(&ip_table_from(&engine, 0..40));
    assert!(ip.known_ip_peers > 0);

    let cap = capacity_histogram_from(&engine, 2..6);
    assert!(cap.counts.iter().sum::<usize>() > 0);

    let t1 = bandwidth_table_from(&engine, 5);
    assert!(t1.group_sizes[3] > 0);

    let est = floodfill_estimate_from(&engine, 5);
    assert!(est.observed_floodfills > 0);

    let table = ip_table_from(&engine, 0..20);
    let geo = GeoReport::from_table(&table, &w.geo);
    assert!(geo.total > 0);
    let ases = AsReport::from_table(&table);
    assert!(ases.total > 0);

    let blocking = blocking_matrix(&w, &fleet, 35, &[1, 10], &[1, 5]);
    assert_eq!(blocking.len(), 2);
    assert!(!report::render_fig13(&blocking).is_empty());
}

#[test]
fn whole_pipeline_is_deterministic() {
    let run = || {
        let w = world();
        let fleet = Fleet::paper_main();
        let engine = HarvestEngine::build(&w, &fleet, 5..6);
        let census = daily_census_from(&engine, 5);
        let est = floodfill_estimate_from(&engine, 5);
        let blocking = blocking_matrix(&w, &fleet, 35, &[5], &[1]);
        (census.peers, census.ipv4, est.observed_floodfills, blocking[0].points[0].1.to_bits())
    };
    assert_eq!(run(), run());
}

#[test]
fn blocking_rate_consistent_with_raw_sets() {
    let w = world();
    let fleet = Fleet::alternating(20);
    let victim = victim_view(&w, 35);
    let bl = censor_blacklist_from_engine(&HarvestEngine::build(&w, &fleet, 31..36), 10, 5, 35);
    let manual = victim.known_ips.iter().filter(|ip| bl.contains(ip)).count() as f64
        / victim.known_ips.len().max(1) as f64
        * 100.0;
    let series = blocking_matrix(&w, &fleet, 35, &[10], &[5]);
    assert!((series[0].points[0].1 - manual).abs() < 1e-9);
}

#[test]
fn censuses_relate_sanely_across_analyses() {
    let w = world();
    let fleet = Fleet::paper_main();
    let day = 5u64;
    let engine = HarvestEngine::build(&w, &fleet, day..day + 1);
    let census = daily_census_from(&engine, day);
    let t1 = bandwidth_table_from(&engine, day);
    // Table 1's total group equals the census peer count.
    assert_eq!(t1.group_sizes[3], census.peers);
    // Reachable + unreachable = total.
    assert_eq!(t1.group_sizes[1] + t1.group_sizes[2], census.peers);
    // Unknown-IP peers are a subset of unreachable peers.
    assert!(census.unknown_ip <= t1.group_sizes[2]);
    // Floodfill estimate's observed floodfills never exceed the total.
    let est = floodfill_estimate_from(&engine, day);
    assert!(est.observed_floodfills <= census.peers);
    assert!(est.qualified_floodfills <= est.observed_floodfills);
}

#[test]
fn geo_totals_dominated_by_peers_but_bounded() {
    let w = world();
    let table = ip_table_from(&HarvestEngine::build(&w, &Fleet::paper_main(), 0..15), 0..15);
    let geo = GeoReport::from_table(&table, &w.geo);
    let ip = IpChurnReport::from_table(&table);
    // Every known-IP peer contributes at least one (peer, country) and
    // at most its distinct-country count.
    assert!(geo.total >= ip.known_ip_peers - geo.unresolved_addresses.min(ip.known_ip_peers));
    // Cumulative percentages are monotone and end at 100.
    let last = geo.rows.last().unwrap();
    assert!((last.cumulative_pct - 100.0).abs() < 1e-6);
    for w2 in geo.rows.windows(2) {
        assert!(w2[1].cumulative_pct >= w2[0].cumulative_pct);
        assert!(w2[0].peers >= w2[1].peers, "rows sorted descending");
    }
}

#[test]
fn usability_single_rate_end_to_end() {
    use i2pscope::measure::usability::{evaluate, UsabilityConfig};
    let points = evaluate(&UsabilityConfig {
        relays: 32,
        floodfills: 6,
        fetches_per_rate: 3,
        blocking_rates: vec![0.0, 0.9],
        seed: 99,
        ..Default::default()
    });
    let (clean, censored) = (&points[0], &points[1]);
    assert_eq!(clean.timeout_pct, 0.0);
    assert!(clean.avg_load_time_s > 0.0 && clean.avg_load_time_s < 15.0);
    assert!(
        censored.timeout_pct >= 33.0 || censored.avg_load_time_s > clean.avg_load_time_s * 3.0,
        "90% blocking must degrade service: {censored:?}"
    );
}

#[test]
fn seeds_change_everything_but_structure() {
    let a = World::generate(WorldConfig { days: 10, scale: 0.02, seed: 1 });
    let b = World::generate(WorldConfig { days: 10, scale: 0.02, seed: 2 });
    let fleet = Fleet::paper_main();
    let ca = daily_census_from(&HarvestEngine::build(&a, &fleet, 3..4), 3);
    let cb = daily_census_from(&HarvestEngine::build(&b, &fleet, 3..4), 3);
    // Different seeds: different exact numbers…
    assert_ne!((ca.peers, ca.ipv4), (cb.peers, cb.ipv4));
    // …same structural facts.
    assert!(ca.all_ips < ca.peers && cb.all_ips < cb.peers);
    assert!(ca.firewalled > ca.hidden && cb.firewalled > cb.hidden);
}
