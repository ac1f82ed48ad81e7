//! A `stats.i2p`-style estimator — and why it is not ground truth.
//!
//! Liu et al. claimed discovering 94.9 % of all routers by comparing
//! against stats.i2p; Hoang et al. §4.3 push back: "the provided
//! statistics cannot be considered as ground truth. This is because the
//! statistics are collected only from an average non-floodfill router
//! (i.e., not high bandwidth). Furthermore, reported results are plotted
//! using data collected over the last thirty days, but not on a daily
//! basis."
//!
//! This module implements exactly that estimator — one average (L-class)
//! non-floodfill router, 30-day rolling unique-peer count — so the
//! paper's critique can be demonstrated quantitatively against the
//! world's actual population and the high-profile fleet's view.

use crate::engine::HarvestEngine;
use crate::fleet::{Fleet, Vantage, VantageMode};
use i2p_data::FxHashSet;
use i2p_sim::world::World;

/// The stats.i2p-style estimate.
#[derive(Clone, Debug)]
pub struct StatsSiteEstimate {
    /// 30-day rolling unique peers seen by the average router.
    pub rolling_30d_uniques: usize,
    /// The same router's *daily* view (what Fig. 2-class numbers look
    /// like at L-class capture strength).
    pub daily_view: usize,
    /// Actual online peers on the evaluation day.
    pub actual_daily: usize,
    /// The high-profile 20-router fleet's daily view, for contrast.
    pub fleet_daily: usize,
}

/// Runs the estimator as of `eval_day` (needs ≥30 days of history).
pub fn stats_site_estimate(world: &World, eval_day: u64) -> StatsSiteEstimate {
    // "An average non-floodfill router": default L-class bandwidth.
    let avg = Vantage { mode: VantageMode::NonFloodfill, shared_kbps: 30, salt: 0x57A7 };
    let from = eval_day.saturating_sub(29);
    let engine = HarvestEngine::build(world, &Fleet { vantages: vec![avg] }, from..eval_day + 1);
    let mut uniques: FxHashSet<u32> = FxHashSet::default();
    for day in from..=eval_day {
        for id in engine.union_prefix_ids(day, 1) {
            uniques.insert(id);
        }
    }
    let daily_view = engine.count_one(0, eval_day);
    let fleet_engine = HarvestEngine::build(world, &Fleet::paper_main(), eval_day..eval_day + 1);
    let fleet_daily = fleet_engine.count_union(eval_day);
    StatsSiteEstimate {
        rolling_30d_uniques: uniques.len(),
        daily_view,
        actual_daily: world.online_count(eval_day),
        fleet_daily,
    }
}

/// Renders the §4.3 comparison.
pub fn render_stats_site(est: &StatsSiteEstimate) -> String {
    format!(
        "stats.i2p-style estimator vs reality (§4.3's ground-truth critique)\n\
         --------------------------------------------------------------------\n\
         average router, 30-day rolling uniques : {:>7}  (what stats.i2p plots)\n\
         average router, single-day view        : {:>7}\n\
         high-profile 20-router fleet, daily    : {:>7}\n\
         actual online population (daily)       : {:>7}\n\
         \n\
         The rolling window counts churned-out peers, while the weak\n\
         vantage undercounts the live network — two opposite biases that\n\
         make the site unusable as daily ground truth.\n",
        est.rolling_30d_uniques, est.daily_view, est.fleet_daily, est.actual_daily
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use i2p_sim::world::WorldConfig;

    #[test]
    fn rolling_window_overcounts_daily_population_view() {
        let w = World::generate(WorldConfig { days: 40, scale: 0.04, seed: 91 });
        let est = stats_site_estimate(&w, 35);
        // The 30-day rolling union far exceeds the router's daily view…
        assert!(
            est.rolling_30d_uniques > est.daily_view * 2,
            "rolling {} vs daily {}",
            est.rolling_30d_uniques,
            est.daily_view
        );
        // …while the daily view of an average router badly undercounts
        // the actual population.
        assert!(
            (est.daily_view as f64) < 0.6 * est.actual_daily as f64,
            "daily view {} vs actual {}",
            est.daily_view,
            est.actual_daily
        );
        // The high-profile fleet is the accurate instrument.
        assert!(est.fleet_daily > est.daily_view);
        let fleet_err = (est.fleet_daily as f64 - est.actual_daily as f64).abs()
            / est.actual_daily as f64;
        assert!(fleet_err < 0.12, "fleet error {fleet_err}");
    }

    #[test]
    fn renderer_mentions_all_numbers() {
        let w = World::generate(WorldConfig { days: 35, scale: 0.02, seed: 92 });
        let est = stats_site_estimate(&w, 32);
        let text = render_stats_site(&est);
        assert!(text.contains(&est.rolling_30d_uniques.to_string()));
        assert!(text.contains(&est.actual_daily.to_string()));
    }
}
