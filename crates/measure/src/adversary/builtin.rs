//! The registered adversaries: the paper's five attack paths refactored
//! behind the [`Adversary`] trait, plus the two extension members
//! ([`AdaptiveCensor`], [`GeoCensor`]) the composed scenarios are built
//! from.
//!
//! Each of the five wraps its module's *existing* entrypoint —
//! `censor::blocking_matrix`, `attack::sweep_attacks`,
//! `closedloop::closed_loop_sweep`, `sybil::run`,
//! `bridges::sweep_bridges` — so the trait adds composition, not a
//! second implementation. The registry tests hold each run to its
//! module's entrypoint over the same grid (for the censor, to the
//! per-cell blacklist definition of its one-walk matrix); each module's
//! unit tests hold its sweep to a per-cell reference. Scenario grids are
//! derived from the lab's geometry (fleet size, window length) by `pub`
//! helpers, so tests can reproduce the exact grid a registered run used.

use super::{
    Adversary, AdversaryLab, AdversaryOutcome, Capability, ChainKnobs, DayView, SharedState,
};
use crate::attack::{self, AttackScenario};
use crate::bridges::{self, BridgeScenario, BridgeStrategy};
use crate::censor;
use crate::closedloop::{self, ClosedLoopScenario};
use crate::engine::HarvestEngine;
use crate::keyspace::{day_population, eclipsed};
use crate::report;
use crate::sybil::{self, SybilConfig};
use i2p_data::{FxHashMap, FxHashSet};
use i2p_geoip::CountryId;
use i2p_netdb::RoutingKey;

/// Records a day's observed addresses into the shared state — the
/// observe half every censor-flavored member shares.
fn record_sightings(day: u64, view: &DayView, state: &mut SharedState) {
    state.sighted.entry(day).or_default().extend(view.seen_ips.iter().copied());
}

// ---- censor (§6.2, Fig. 13) -------------------------------------------

/// The windowed address censor: Fig. 13's blocking matrix standalone,
/// a record-and-blacklist member in chains.
pub struct Censor;

impl Censor {
    /// The monitoring-router grid the standalone run sweeps: 1, half
    /// the fleet, the whole fleet.
    pub fn router_grid(lab: &AdversaryLab<'_>) -> Vec<usize> {
        let n = lab.fleet.vantages.len();
        let mut grid = vec![1, (n / 2).max(1), n];
        grid.dedup();
        grid
    }

    /// The window grid: 1 day, ≤5 days, ≤30 days (clamped to the study
    /// window).
    pub fn window_grid(lab: &AdversaryLab<'_>) -> Vec<u64> {
        let nd = lab.n_days();
        let mut grid = vec![1, 5.min(nd), 30.min(nd)];
        grid.dedup();
        grid
    }
}

impl Adversary for Censor {
    fn name(&self) -> &str {
        "censor"
    }

    fn describe(&self) -> &str {
        "windowed address blacklist vs a long-term victim"
    }

    fn paper_ref(&self) -> &str {
        "§6.2"
    }

    fn figure_ref(&self) -> &str {
        "Fig. 13"
    }

    fn capabilities(&self) -> Vec<Capability> {
        vec![Capability::Harvest, Capability::Blacklist]
    }

    fn observes(&self) -> bool {
        true
    }

    fn observe(
        &self,
        _lab: &AdversaryLab<'_>,
        _knobs: &ChainKnobs,
        day: u64,
        view: &DayView,
        state: &mut SharedState,
    ) {
        record_sightings(day, view, state);
    }

    fn act(&self, _lab: &AdversaryLab<'_>, knobs: &ChainKnobs, day: u64, state: &mut SharedState) {
        state.blacklist = state.window_union(day, knobs.window_days);
    }

    fn conclude_chain(
        &self,
        _lab: &AdversaryLab<'_>,
        knobs: &ChainKnobs,
        state: &SharedState,
        row: &mut Vec<(String, f64)>,
    ) {
        row.push(("window_d".into(), knobs.window_days as f64));
        row.push(("blacklist".into(), state.blacklist.len() as f64));
        row.push(("coverage%".into(), state.mean_coverage()));
    }

    fn run(&self, lab: &AdversaryLab<'_>) -> AdversaryOutcome {
        let routers = Self::router_grid(lab);
        let windows = Self::window_grid(lab);
        let series =
            censor::blocking_matrix(lab.world, lab.fleet, lab.eval_day, &routers, &windows);
        let max_rate = series
            .iter()
            .flat_map(|s| s.points.iter().map(|&(_, r)| r))
            .fold(0.0f64, f64::max);
        AdversaryOutcome {
            name: self.name().into(),
            config: self.config(lab),
            metrics: vec![
                ("cells".into(), (routers.len() * windows.len()) as f64),
                ("max_blocking%".into(), max_rate),
            ],
            figure: report::render_fig13(&series),
            csv: report::csv_fig13(&series),
        }
    }
}

// ---- deanon (§7.2) ----------------------------------------------------

/// The blocking-to-deanonymization escalation: whitelisted malicious
/// routers against the post-blocking candidate pool.
pub struct Deanon;

impl Deanon {
    /// Tunnels simulated per grid cell.
    pub const TUNNELS: usize = 600;

    /// Malicious routers the chain-hook evaluation injects.
    pub const CHAIN_MALICIOUS: usize = 8;

    /// The malicious-router grid at full monitoring strength.
    pub fn grid(lab: &AdversaryLab<'_>) -> Vec<AttackScenario> {
        let censor_routers = lab.fleet.vantages.len();
        let window_days = 5.min(lab.n_days());
        [2usize, 8, 24]
            .iter()
            .map(|&n_malicious| AttackScenario { censor_routers, window_days, n_malicious })
            .collect()
    }
}

impl Adversary for Deanon {
    fn name(&self) -> &str {
        "deanon"
    }

    fn describe(&self) -> &str {
        "malicious-router injection after blocking (tunnel compromise)"
    }

    fn paper_ref(&self) -> &str {
        "§7.2"
    }

    fn figure_ref(&self) -> &str {
        "§7.2 table"
    }

    fn capabilities(&self) -> Vec<Capability> {
        vec![Capability::Harvest, Capability::Blacklist, Capability::Inject]
    }

    fn conclude_chain(
        &self,
        lab: &AdversaryLab<'_>,
        _knobs: &ChainKnobs,
        state: &SharedState,
        row: &mut Vec<(String, f64)>,
    ) {
        // Evaluate tunnel compromise against whatever rules the chain
        // deployed: the effective blacklist is the subset of the
        // victim's view the state blocks (per-IP or geo).
        let victim = lab.victim();
        let effective: FxHashSet<_> = victim
            .known_ips
            .iter()
            .copied()
            .filter(|&ip| state.blocks(ip, &lab.world.geo))
            .collect();
        let outcome = attack::run_attack(
            &victim,
            &effective,
            Self::CHAIN_MALICIOUS,
            Self::TUNNELS,
            lab.seed,
        );
        row.push(("fully%".into(), outcome.fully_compromised_pct));
    }

    fn run(&self, lab: &AdversaryLab<'_>) -> AdversaryOutcome {
        let grid = Self::grid(lab);
        let outcomes = attack::sweep_attacks(
            lab.world,
            lab.fleet,
            lab.eval_day,
            &grid,
            Self::TUNNELS,
            lab.seed,
            lab.threads,
        );
        let last = outcomes.last().expect("non-empty grid"); // i2plint: allow(panic-audit) -- grid() always contains at least one scenario
        let table = attack::attack_table(&outcomes);
        AdversaryOutcome {
            name: self.name().into(),
            config: self.config(lab),
            metrics: vec![
                ("blocking%".into(), last.setup.blocking_rate_pct),
                ("max_fully%".into(), last.fully_compromised_pct),
            ],
            figure: table.text(),
            csv: table.csv(),
        }
    }
}

// ---- closed loop (Fig. 13 → Fig. 14) ----------------------------------

/// The closed loop: the harvested blacklist driving the protocol-level
/// TestNet censor.
pub struct ClosedLoop;

impl ClosedLoop {
    /// The (routers × window) escalation the standalone run sweeps.
    pub fn grid(lab: &AdversaryLab<'_>) -> Vec<ClosedLoopScenario> {
        let n = lab.fleet.vantages.len();
        let nd = lab.n_days();
        vec![
            ClosedLoopScenario { censor_routers: 1, window_days: 1 },
            ClosedLoopScenario { censor_routers: (n / 2).max(1), window_days: 5.min(nd) },
            ClosedLoopScenario { censor_routers: n, window_days: 30.min(nd) },
        ]
    }
}

impl Adversary for ClosedLoop {
    fn name(&self) -> &str {
        "closedloop"
    }

    fn describe(&self) -> &str {
        "harvested blacklist enforced at the TestNet chokepoint"
    }

    fn paper_ref(&self) -> &str {
        "§6.2 + §6.2.3"
    }

    fn figure_ref(&self) -> &str {
        "Fig. 13 → Fig. 14"
    }

    fn capabilities(&self) -> Vec<Capability> {
        vec![Capability::Harvest, Capability::Blacklist, Capability::Disrupt]
    }

    fn conclude_chain(
        &self,
        lab: &AdversaryLab<'_>,
        knobs: &ChainKnobs,
        state: &SharedState,
        row: &mut Vec<(String, f64)>,
    ) {
        // Enforce the chain's deployed rules at the protocol level: the
        // effective blacklist for relay twinning is every published
        // address the state blocks on the evaluation day.
        let (d, geo) = (lab.eval_day as i64, &lab.world.geo);
        let effective: FxHashSet<_> = lab
            .world
            .online_peers(lab.eval_day)
            .flat_map(|peer| censor::published_ips(peer, d, geo))
            .filter(|&ip| state.blocks(ip, geo))
            .collect();
        let scenario = ClosedLoopScenario {
            censor_routers: lab.fleet.vantages.len(),
            window_days: knobs.window_days,
        };
        let outcome = closedloop::run_closed_loop_on(
            lab.substrate(),
            lab.world,
            &lab.usability,
            &effective,
            scenario,
            lab.eval_day,
        );
        row.push(("achieved%".into(), outcome.point.blocking_rate_pct));
        row.push(("timeout%".into(), outcome.point.timeout_pct));
    }

    fn run(&self, lab: &AdversaryLab<'_>) -> AdversaryOutcome {
        let outcomes = closedloop::closed_loop_sweep(
            lab.world,
            lab.fleet,
            &lab.usability,
            &Self::grid(lab),
            lab.eval_day,
        );
        let last = outcomes.last().expect("non-empty grid"); // i2plint: allow(panic-audit) -- grid() always contains at least one scenario
        let table = closedloop::closed_loop_table(&outcomes);
        AdversaryOutcome {
            name: self.name().into(),
            config: self.config(lab),
            metrics: vec![
                ("blacklist".into(), last.blacklist_ips as f64),
                ("achieved%".into(), last.point.blocking_rate_pct),
            ],
            figure: table.text(),
            csv: table.csv(),
        }
    }
}

// ---- sybil (§4 / §7 eclipse) ------------------------------------------

/// The Sybil/eclipse attacker: grinds floodfill identities onto the
/// target's daily routing key.
pub struct SybilEclipse;

impl SybilEclipse {
    /// The Sybil sweep configuration the standalone run uses (a
    /// three-point cut of the paper grid, threaded like the lab).
    pub fn config(lab: &AdversaryLab<'_>) -> SybilConfig {
        SybilConfig {
            counts: vec![0, 4, 16],
            threads: lab.threads,
            ..SybilConfig::paper(lab.days.clone())
        }
    }
}

impl Adversary for SybilEclipse {
    fn name(&self) -> &str {
        "sybil"
    }

    fn describe(&self) -> &str {
        "ground Sybil floodfills eclipsing a target's keyspace position"
    }

    fn paper_ref(&self) -> &str {
        "§4 + §7"
    }

    fn figure_ref(&self) -> &str {
        "Sybil sweep table"
    }

    fn capabilities(&self) -> Vec<Capability> {
        vec![Capability::Sybil]
    }

    fn act(&self, lab: &AdversaryLab<'_>, knobs: &ChainKnobs, day: u64, state: &mut SharedState) {
        if knobs.sybil_count == 0 {
            return;
        }
        let cfg = Self::config(lab);
        let target_id = sybil::pick_target(lab.world, lab.days.clone());
        let target = lab.world.peers[target_id as usize].hash;
        state.sybils.insert(
            day,
            sybil::grind_sybils(
                &target,
                day,
                knobs.sybil_count,
                cfg.grind_per_sybil,
                cfg.attacker_seed,
            ),
        );
    }

    fn conclude_chain(
        &self,
        lab: &AdversaryLab<'_>,
        knobs: &ChainKnobs,
        state: &SharedState,
        row: &mut Vec<(String, f64)>,
    ) {
        // Replay the placement to count eclipsed days, exactly like the
        // standalone sweep does.
        let cfg = Self::config(lab);
        let target_id = sybil::pick_target(lab.world, lab.days.clone());
        let target = lab.world.peers[target_id as usize].hash;
        let ks = crate::keyspace::KeyspaceConfig {
            replication: cfg.replication,
            sybils: state.sybils.clone(),
        };
        let mut eclipsed_days = 0usize;
        for day in lab.days.clone() {
            let Some(online) = lab.world.online_ids(day) else { continue };
            let pop = day_population(lab.world, &lab.fleet.vantages, online, day, &ks);
            if eclipsed(&pop, &RoutingKey::for_day(&target, day), ks.replication) {
                eclipsed_days += 1;
            }
        }
        row.push(("sybils/day".into(), knobs.sybil_count as f64));
        row.push(("eclipsed_d".into(), eclipsed_days as f64));
    }

    fn run(&self, lab: &AdversaryLab<'_>) -> AdversaryOutcome {
        let cfg = Self::config(lab);
        let sweep = sybil::run(lab.world, lab.fleet, &cfg);
        let last = sweep.points.last().expect("non-empty grid"); // i2plint: allow(panic-audit) -- SybilConfig validation rejects an empty counts grid
        let table = report::sybil_sweep(&sweep);
        AdversaryOutcome {
            name: self.name().into(),
            config: self.config(lab),
            metrics: vec![
                ("target".into(), sweep.target_id as f64),
                ("max_eclipsed_d".into(), last.eclipsed_days as f64),
                ("baseline_coverage%".into(), 100.0 * sweep.baseline_coverage),
            ],
            figure: table.text(),
            csv: table.csv(),
        }
    }

    /// The capture archives the attacked engine at the largest count,
    /// matching `i2pscope sybil --capture`.
    fn capture<'w>(&self, lab: &AdversaryLab<'w>) -> HarvestEngine<'w> {
        let cfg = Self::config(lab);
        let target_id = sybil::pick_target(lab.world, lab.days.clone());
        let count = cfg.counts.iter().copied().max().unwrap_or(0);
        sybil::attacked_engine(lab.world, lab.fleet, &cfg, target_id, count)
    }
}

// ---- bridges (§7.1) ---------------------------------------------------

/// The bridge interdictor: evaluates distribution strategies against a
/// censor that keeps monitoring.
pub struct Bridges;

impl Bridges {
    /// Bridges handed out per evaluation.
    pub const N_BRIDGES: usize = 60;

    /// The survival horizon the standalone run evaluates, clamped so
    /// `start_day = eval_day − horizon` stays inside the study window.
    pub fn horizon(lab: &AdversaryLab<'_>) -> u64 {
        5.min(lab.n_days().saturating_sub(2)).max(1)
    }

    /// The (strategy × horizon) grid the standalone run sweeps.
    pub fn grid(lab: &AdversaryLab<'_>) -> Vec<BridgeScenario> {
        let horizon = Self::horizon(lab);
        BridgeStrategy::ALL
            .iter()
            .map(|&strategy| BridgeScenario { strategy, horizon })
            .collect()
    }
}

impl Adversary for Bridges {
    fn name(&self) -> &str {
        "bridges"
    }

    fn describe(&self) -> &str {
        "bridge-distribution strategies under a persistent censor"
    }

    fn paper_ref(&self) -> &str {
        "§7.1"
    }

    fn figure_ref(&self) -> &str {
        "bridge comparison table"
    }

    fn capabilities(&self) -> Vec<Capability> {
        vec![Capability::Harvest, Capability::Blacklist, Capability::Bridges]
    }

    fn conclude_chain(
        &self,
        lab: &AdversaryLab<'_>,
        _knobs: &ChainKnobs,
        state: &SharedState,
        row: &mut Vec<(String, f64)>,
    ) {
        // Score the paper's sustainable strategy (new + firewalled)
        // against the chain's deployed rules on the evaluation day.
        let geo = &lab.world.geo;
        let candidates = BridgeStrategy::NewAndFirewalled.candidates(lab.world, lab.eval_day);
        let usable = candidates
            .iter()
            .filter(|p| bridges::usable(p, lab.eval_day, geo, |ip| state.blocks(ip, geo)))
            .count();
        row.push((
            "bridges_ok%".into(),
            100.0 * usable as f64 / candidates.len().max(1) as f64,
        ));
    }

    fn run(&self, lab: &AdversaryLab<'_>) -> AdversaryOutcome {
        let horizon = Self::horizon(lab);
        let start_day = lab.eval_day - horizon;
        let outcomes = bridges::sweep_bridges(
            lab.world,
            lab.fleet,
            &Self::grid(lab),
            start_day,
            Self::N_BRIDGES,
            lab.fleet.vantages.len(),
            lab.seed,
            lab.threads,
        );
        let combo = outcomes.last().expect("non-empty grid"); // i2plint: allow(panic-audit) -- the escalation grid always contains at least one variant
        let table = bridges::bridge_table(&outcomes);
        AdversaryOutcome {
            name: self.name().into(),
            config: self.config(lab),
            metrics: vec![
                ("horizon_d".into(), horizon as f64),
                ("combo_day0%".into(), combo.usable_day0_pct),
                ("combo_after%".into(), combo.usable_after_pct),
            ],
            figure: table.text(),
            csv: table.csv(),
        }
    }
}

// ---- adaptive censor (extension) --------------------------------------

/// A censor that recompiles its blacklist from its own vantage every
/// `relearn_every` days instead of fixing it up front — the
/// mid-experiment adaptation §6.2.2 holds constant.
pub struct AdaptiveCensor;

impl Adversary for AdaptiveCensor {
    fn name(&self) -> &str {
        "adaptive"
    }

    fn describe(&self) -> &str {
        "censor re-learning its blacklist mid-experiment"
    }

    fn paper_ref(&self) -> &str {
        "§6.2.2 extended"
    }

    fn figure_ref(&self) -> &str {
        "escalation table"
    }

    fn capabilities(&self) -> Vec<Capability> {
        vec![Capability::Harvest, Capability::Blacklist]
    }

    fn observes(&self) -> bool {
        true
    }

    fn observe(
        &self,
        _lab: &AdversaryLab<'_>,
        _knobs: &ChainKnobs,
        day: u64,
        view: &DayView,
        state: &mut SharedState,
    ) {
        record_sightings(day, view, state);
    }

    fn act(&self, lab: &AdversaryLab<'_>, knobs: &ChainKnobs, day: u64, state: &mut SharedState) {
        let elapsed = day - lab.days.start;
        let due = if knobs.relearn_every == 0 {
            elapsed == 0 // compile once on the first day, never adapt
        } else {
            elapsed % knobs.relearn_every == 0
        };
        if due {
            state.blacklist = state.window_union(day, knobs.window_days);
            state.relearns += 1;
        }
    }

    fn conclude_chain(
        &self,
        _lab: &AdversaryLab<'_>,
        knobs: &ChainKnobs,
        state: &SharedState,
        row: &mut Vec<(String, f64)>,
    ) {
        row.push(("relearn_d".into(), knobs.relearn_every as f64));
        row.push(("relearns".into(), state.relearns as f64));
        row.push(("blacklist".into(), state.blacklist.len() as f64));
    }

    fn run(&self, lab: &AdversaryLab<'_>) -> AdversaryOutcome {
        // The standalone run *is* the registered composed preset.
        super::Composed::adaptive().run(lab)
    }
}

// ---- geo censor (extension) -------------------------------------------

/// A censor that blocks at country granularity: rank the countries its
/// harvest observes by address count, cut the top N at the border, and
/// report the per-IP list's rate alongside for comparison.
pub struct GeoCensor;

impl Adversary for GeoCensor {
    fn name(&self) -> &str {
        "geo"
    }

    fn describe(&self) -> &str {
        "country-level cuts from the harvest (vs per-IP lists)"
    }

    fn paper_ref(&self) -> &str {
        "§5.1 + §6.2 composed"
    }

    fn figure_ref(&self) -> &str {
        "escalation table"
    }

    fn capabilities(&self) -> Vec<Capability> {
        vec![Capability::Harvest, Capability::GeoBlock]
    }

    fn observes(&self) -> bool {
        true
    }

    fn observe(
        &self,
        _lab: &AdversaryLab<'_>,
        _knobs: &ChainKnobs,
        day: u64,
        view: &DayView,
        state: &mut SharedState,
    ) {
        record_sightings(day, view, state);
    }

    fn act(&self, lab: &AdversaryLab<'_>, knobs: &ChainKnobs, day: u64, state: &mut SharedState) {
        // Rank observed countries by address count (ties broken by
        // country id for determinism) and cut the top N.
        let window = state.window_union(day, knobs.window_days);
        let mut counts: FxHashMap<CountryId, usize> = FxHashMap::default();
        for &ip in &window {
            if let Some(country) = lab.world.geo.country_of(ip) {
                *counts.entry(country).or_default() += 1;
            }
        }
        let mut ranked: Vec<(CountryId, usize)> = counts.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        state.blocked_countries =
            ranked.iter().take(knobs.country_cuts).map(|&(c, _)| c).collect();
    }

    fn conclude_chain(
        &self,
        lab: &AdversaryLab<'_>,
        knobs: &ChainKnobs,
        state: &SharedState,
        row: &mut Vec<(String, f64)>,
    ) {
        // The per-IP comparison: what a conventional blacklist compiled
        // from the same window would have blocked.
        let victim = lab.victim();
        let per_ip = censor::blocking_rate(&victim, &state.window_union(lab.eval_day, knobs.window_days));
        row.push(("countries".into(), state.blocked_countries.len() as f64));
        row.push(("perip%".into(), per_ip));
    }

    fn run(&self, lab: &AdversaryLab<'_>) -> AdversaryOutcome {
        // The standalone run *is* the registered composed preset.
        super::Composed::geo().run(lab)
    }
}
