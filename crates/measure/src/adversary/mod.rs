//! Unified adversary catalog (DESIGN.md §9).
//!
//! The paper studies one adversary with several capabilities —
//! harvesting, address blacklisting, router injection, Sybil placement,
//! bridge interdiction — but the repro grew those capabilities as five
//! disjoint analysis modules. This module puts a common [`Adversary`]
//! trait over all of them plus a string-keyed [`registry`], so attacks
//! the paper only speculates about (Sybil-*assisted* censorship, an
//! adaptive censor, country-granular blocking) become one-line
//! compositions instead of new modules.
//!
//! Three layers:
//!
//! * **Standalone runs** — every registered adversary has a
//!   [`Adversary::run`] that executes its sweep through [`lab::sweep`]
//!   and returns a structured [`AdversaryOutcome`] (figure as text and
//!   as CSV + headline metrics + a deterministic audit line). The five paper
//!   attacks run their module's one sweep entrypoint here, so the trait
//!   adds no second implementation of any of them.
//! * **Chain hooks** — a day-granular `observe`/`act` protocol
//!   ([`Adversary::observe`], [`Adversary::act`]) against a
//!   [`SharedState`] all chain members read and write. A member that
//!   declares [`Adversary::observes`] gets a [`DayView`] — what the
//!   monitoring fleet saw *that day under the state's own visibility
//!   model*, so a Sybil member upstream genuinely degrades a censor
//!   member downstream.
//! * **Composition** — [`Composed`] chains members in declared order
//!   over an escalation grid of [`ChainKnobs`] variants, each variant an
//!   independent [`lab::sweep`] work item (bit-identical at any thread
//!   count).
//!
//! Everything is deterministic: outcomes, audit lines and `.i2ps`
//! captures are byte-identical across thread counts and across
//! rebuilds, which is what lets the golden suite pin the composed
//! scenarios and CI `cmp` captured archives.

mod builtin;
mod composed;
pub mod registry;

pub use builtin::{
    AdaptiveCensor, Bridges, Censor, ClosedLoop, Deanon, GeoCensor, SybilEclipse,
};
pub use composed::{run_chain, Composed};
pub use registry::{catalog, names, parse_spec, resolve_or_panic};

use crate::censor::{self, VictimView};
use crate::engine::HarvestEngine;
use crate::fleet::Fleet;
use crate::keyspace::{KeyspaceConfig, VisibilityModel, REPLICATION};
use crate::usability::{warm_substrate, UsabilityConfig, WarmSubstrate};
use i2p_data::{FxHashMap, FxHashSet, Hash256, PeerIp};
use i2p_faults::FaultPlane;
use i2p_geoip::{CountryId, GeoDb};
use i2p_sim::world::World;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Range;
use std::sync::OnceLock;

/// A capability an adversary declares. Purely descriptive — the
/// catalog listing and audit trail surface them — except that
/// [`Capability::Sybil`] switches a chain onto keyspace-routed
/// visibility (see [`SharedState::visibility`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Capability {
    /// Runs monitoring routers and collects RouterInfos.
    Harvest,
    /// Compiles and deploys an IP blacklist.
    Blacklist,
    /// Blocks whole countries instead of per-IP rules.
    GeoBlock,
    /// Grinds and fields Sybil floodfill identities.
    Sybil,
    /// Injects whitelisted malicious routers into the victim's pool.
    Inject,
    /// Enforces blocking at the protocol level (TestNet chokepoint).
    Disrupt,
    /// Attacks the bridge-distribution side channel.
    Bridges,
}

impl Capability {
    /// Short lowercase label used in the catalog listing.
    pub fn label(self) -> &'static str {
        match self {
            Capability::Harvest => "harvest",
            Capability::Blacklist => "blacklist",
            Capability::GeoBlock => "geoblock",
            Capability::Sybil => "sybil",
            Capability::Inject => "inject",
            Capability::Disrupt => "disrupt",
            Capability::Bridges => "bridges",
        }
    }
}

/// The substrate every adversary runs against: one world, one
/// monitoring fleet, one study window. Derived quantities (evaluation
/// day, TestNet sizing) are computed once here so every registered
/// adversary agrees on them.
#[derive(Clone)]
pub struct AdversaryLab<'w> {
    /// The simulated network.
    pub world: &'w World,
    /// The monitoring fleet (also the censor's harvest apparatus).
    pub fleet: &'w Fleet,
    /// Study window (day range the adversary operates over).
    pub days: Range<u64>,
    /// The day outcomes are evaluated on (last day of the window).
    pub eval_day: u64,
    /// Sweep threads (0 = one per core; results are identical for every
    /// thread count).
    pub threads: usize,
    /// Master seed, inherited from the world so an `AdversaryLab` never
    /// mixes worlds and seeds.
    pub seed: u64,
    /// TestNet sizing for protocol-level members, derived from the
    /// world's scale exactly like `i2pscope sweep` derives it.
    pub usability: UsabilityConfig,
    /// The TestNet warmed from `usability`, built on first use.
    substrate: OnceLock<WarmSubstrate>,
    /// The victim's view on `eval_day`, built on first use.
    victim: OnceLock<VictimView>,
}

impl<'w> AdversaryLab<'w> {
    /// Builds a lab over `days`. Panics on a window shorter than three
    /// days (too short for accumulation/window semantics to mean
    /// anything) or one extending past the world's simulated days.
    pub fn new(world: &'w World, fleet: &'w Fleet, days: Range<u64>, threads: usize) -> Self {
        assert!(
            days.end.saturating_sub(days.start) >= 3,
            "AdversaryLab: study window must span at least 3 days, got {days:?}"
        );
        assert!(
            days.end <= world.config.days,
            "AdversaryLab: window {days:?} extends past the world's {} simulated days",
            world.config.days
        );
        assert!(!fleet.vantages.is_empty(), "AdversaryLab: empty monitoring fleet");
        let usability = UsabilityConfig {
            blocking_rates: vec![0.0],
            replicates: 1,
            threads,
            seed: world.config.seed,
            ..UsabilityConfig::scaled(world.config.scale)
        };
        AdversaryLab {
            world,
            fleet,
            eval_day: days.end - 1,
            days,
            threads,
            seed: world.config.seed,
            usability,
            substrate: OnceLock::new(),
            victim: OnceLock::new(),
        }
    }

    /// The warm TestNet substrate of [`Self::usability`]. It depends on
    /// the lab alone, so it is warmed once, on first use, and every
    /// chain variant borrows it (set `usability` before the first call).
    pub fn substrate(&self) -> &WarmSubstrate {
        self.substrate.get_or_init(|| warm_substrate(&self.usability))
    }

    /// Window length in days.
    pub fn n_days(&self) -> u64 {
        self.days.end - self.days.start
    }

    /// The victim every blocking metric is evaluated against — the same
    /// long-term client Fig. 13 uses ([`censor::victim_view`]). It
    /// depends on `world` and `eval_day` alone, so it is built once, on
    /// first use, and every chain variant and member reads that one
    /// view: `attack::run_attack` keys its candidates by the iteration
    /// order of `known_ips`, which a re-collected set need not keep.
    pub fn victim(&self) -> &VictimView {
        self.victim.get_or_init(|| censor::victim_view(self.world, self.eval_day))
    }

    /// The config echo every outcome leads with. Deliberately excludes
    /// the thread count: audit lines and captures must be byte-identical
    /// across thread counts.
    pub fn config_echo(&self) -> Vec<(String, String)> {
        vec![
            ("days".into(), format!("{}..{}", self.days.start, self.days.end)),
            ("fleet".into(), self.fleet.vantages.len().to_string()),
            ("scale".into(), self.world.config.scale.to_string()),
            ("seed".into(), self.seed.to_string()),
        ]
    }
}

/// The state chain members share: everything one member deploys that
/// another can observe or exploit. A chain run owns exactly one.
#[derive(Clone, Debug, Default)]
pub struct SharedState {
    /// Per-day harvested addresses (what observing members recorded).
    pub sighted: FxHashMap<u64, FxHashSet<PeerIp>>,
    /// The currently deployed per-IP blacklist.
    pub blacklist: FxHashSet<PeerIp>,
    /// Countries cut at the border (geo-granular blocking).
    pub blocked_countries: FxHashSet<CountryId>,
    /// Sybil floodfill identities fielded per day.
    pub sybils: FxHashMap<u64, Vec<Hash256>>,
    /// Per-day census coverage (%) recorded when day views were built,
    /// in day order, the order [`SharedState::mean_coverage`] sums them in.
    pub coverage: BTreeMap<u64, f64>,
    /// How many times an adaptive member recompiled its blacklist.
    pub relearns: usize,
}

impl SharedState {
    /// The visibility model the chain's harvests run under. Chains with
    /// a Sybil-capable member use keyspace-routed placement throughout
    /// (so their zero-Sybil baseline variant is comparable to the
    /// escalated ones); purely address-level chains keep the uniform
    /// oracle, matching the legacy censor path.
    pub fn visibility(&self, keyspace: bool) -> VisibilityModel {
        if keyspace {
            VisibilityModel::Keyspace(KeyspaceConfig {
                replication: REPLICATION,
                sybils: self.sybils.clone(),
            })
        } else {
            VisibilityModel::Uniform
        }
    }

    /// Whether the deployed rules block `ip` — on the per-IP blacklist
    /// or inside a cut country.
    pub fn blocks(&self, ip: PeerIp, geo: &GeoDb) -> bool {
        self.blacklist.contains(&ip)
            || (!self.blocked_countries.is_empty()
                && geo.country_of(ip).is_some_and(|c| self.blocked_countries.contains(&c)))
    }

    /// Blocking rate (%) of the deployed rules against a victim's known
    /// peers — the chain-level analogue of [`censor::blocking_rate`].
    pub fn blocking_rate_against(&self, victim: &VictimView, geo: &GeoDb) -> f64 {
        let blocked = victim.known_ips.iter().filter(|&&ip| self.blocks(ip, geo)).count();
        censor::rate_pct(blocked, victim.known_ips.len())
    }

    /// Union of the recorded sightings over the window of `window_days`
    /// days ending at `day` — the raw material a censor member compiles
    /// its blacklist from. Panics on a 0-day window.
    pub fn window_union(&self, day: u64, window_days: u64) -> FxHashSet<PeerIp> {
        let from = censor::window_start(day, window_days);
        let mut union = FxHashSet::default();
        for d in from..=day {
            if let Some(ips) = self.sighted.get(&d) {
                union.extend(ips.iter().copied());
            }
        }
        union
    }

    /// Number of Sybil identities fielded on `day` (0 if none).
    pub fn sybils_on(&self, day: u64) -> usize {
        self.sybils.get(&day).map_or(0, Vec::len)
    }

    /// Mean recorded census coverage (%) over the days that built views.
    pub fn mean_coverage(&self) -> f64 {
        if self.coverage.is_empty() {
            return 0.0;
        }
        self.coverage.values().sum::<f64>() / self.coverage.len() as f64
    }
}

/// One day of the monitoring fleet's harvest as the chain's observing
/// members see it — built under the chain's *current* visibility model,
/// so upstream Sybil placement genuinely shrinks it.
#[derive(Clone, Debug)]
pub struct DayView {
    /// The day this view covers.
    pub day: u64,
    /// Published addresses of every peer the fleet saw.
    pub seen_ips: FxHashSet<PeerIp>,
    /// Distinct peers the fleet saw.
    pub seen_peers: usize,
    /// Peers online that day (the census denominator).
    pub online: usize,
}

impl DayView {
    /// Harvests one day under the state's visibility model.
    pub fn build(lab: &AdversaryLab<'_>, day: u64, state: &SharedState, keyspace: bool) -> Self {
        let engine = HarvestEngine::build_faulted(
            lab.world,
            lab.fleet,
            day..day + 1,
            &state.visibility(keyspace),
            &FaultPlane::zero(),
        );
        let mut seen_ips = FxHashSet::default();
        censor::union_published_ips(&engine, day, lab.fleet.vantages.len(), &mut seen_ips);
        DayView {
            day,
            seen_ips,
            seen_peers: engine.count_union(day),
            online: lab.world.online_count(day),
        }
    }

    /// Census coverage this day: seen / online (%).
    pub fn coverage_pct(&self) -> f64 {
        100.0 * self.seen_peers as f64 / self.online.max(1) as f64
    }
}

/// The per-variant knobs a composed chain escalates over. Every member
/// reads the knobs it cares about and ignores the rest, so one grid
/// serves arbitrary chains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChainKnobs {
    /// Sybil identities fielded per day by a Sybil member (0 = none).
    pub sybil_count: usize,
    /// Blacklist window for censor members (days).
    pub window_days: u64,
    /// How often an adaptive censor recompiles its blacklist (days
    /// between relearns; 0 = compile once on the first day and never
    /// adapt).
    pub relearn_every: u64,
    /// Countries a geo member cuts (top-N by observed address count).
    pub country_cuts: usize,
}

impl Default for ChainKnobs {
    fn default() -> Self {
        ChainKnobs { sybil_count: 0, window_days: 5, relearn_every: 1, country_cuts: 5 }
    }
}

impl ChainKnobs {
    /// The generic three-level escalation grid arbitrary chains sweep:
    /// hands-off, moderate, aggressive.
    pub fn escalation() -> Vec<ChainKnobs> {
        vec![
            ChainKnobs { sybil_count: 0, relearn_every: 0, country_cuts: 1, ..Default::default() },
            ChainKnobs { sybil_count: 16, relearn_every: 4, country_cuts: 5, ..Default::default() },
            ChainKnobs { sybil_count: 64, relearn_every: 1, country_cuts: 15, ..Default::default() },
        ]
    }

    /// Panics on knob values that cannot parameterize a chain.
    pub fn validate(&self) {
        assert!(
            self.window_days >= 1,
            "ChainKnobs: window_days must be at least 1 day, got {}",
            self.window_days
        );
        assert!(
            self.country_cuts >= 1,
            "ChainKnobs: country_cuts must be at least 1, got {}",
            self.country_cuts
        );
    }
}

/// The structured result of one adversary run: what was configured,
/// what came out, and the rendered artifacts.
#[derive(Clone, Debug, PartialEq)]
pub struct AdversaryOutcome {
    /// Registered name (or chain spec) that produced this outcome.
    pub name: String,
    /// Configuration echo (ordered key → value pairs).
    pub config: Vec<(String, String)>,
    /// Headline metrics (ordered label → value pairs; labels ending in
    /// `%` render with one decimal, the rest as integers).
    pub metrics: Vec<(String, f64)>,
    /// The figure in the paper's layout.
    pub figure: String,
    /// The same figure as CSV.
    pub csv: String,
}

impl AdversaryOutcome {
    /// One deterministic, grep-friendly audit line per run:
    ///
    /// ```text
    /// audit adversary=<name> <k>=<v> ... | <metric>=<value> ...
    /// ```
    ///
    /// No timestamps and no thread counts, so two runs of the same
    /// configuration emit byte-identical lines (CI diffs them).
    pub fn audit_line(&self) -> String {
        let mut line = format!("audit adversary={}", self.name);
        for (k, v) in &self.config {
            let _ = write!(line, " {k}={v}");
        }
        line.push_str(" |");
        for (k, v) in &self.metrics {
            let _ = write!(line, " {k}={}", format_metric(k, *v));
        }
        line
    }
}

/// The decimals a metric prints with, by its label's convention:
/// percentage labels (ending `%`) get one, everything else renders as
/// an integer count.
pub(crate) fn metric_decimals(label: &str) -> usize {
    if label.ends_with('%') {
        1
    } else {
        0
    }
}

/// Formats a metric value at its [`metric_decimals`].
pub(crate) fn format_metric(label: &str, value: f64) -> String {
    let decimals = metric_decimals(label);
    format!("{value:.decimals$}")
}

/// A registered adversary: declared capabilities, a standalone sweep,
/// and the day-granular chain hooks composition is built from.
///
/// The two halves have different contracts. [`Adversary::run`] is the
/// standalone entrypoint — the five paper attacks run their module's
/// own sweep there, and every run is byte-identical at any thread
/// count. The chain hooks ([`Adversary::observe`] /
/// [`Adversary::act`] / [`Adversary::conclude_chain`]) are called by
/// [`run_chain`] once per member per day, in declared chain order,
/// against the shared [`SharedState`]; a member that never reads the
/// day's harvest leaves [`Adversary::observes`] false so the driver can
/// skip building a [`DayView`] for it.
pub trait Adversary: Send + Sync {
    /// Registered name (what `i2pscope adversary <name>` resolves).
    fn name(&self) -> &str;

    /// One-line description for the catalog listing.
    fn describe(&self) -> &str;

    /// The paper section this adversary reproduces (or extends).
    fn paper_ref(&self) -> &str;

    /// The figure its standalone run renders.
    fn figure_ref(&self) -> &str;

    /// Declared capabilities (see [`Capability`]).
    fn capabilities(&self) -> Vec<Capability>;

    /// Configuration echo for the audit line. The default echoes the
    /// lab; adversaries with extra parameters append to it.
    fn config(&self, lab: &AdversaryLab<'_>) -> Vec<(String, String)> {
        lab.config_echo()
    }

    /// Whether this member reads the day's harvest when chained (drives
    /// [`DayView`] construction in [`run_chain`]).
    fn observes(&self) -> bool {
        false
    }

    /// Chain hook: record what the monitoring fleet saw on `day`. Only
    /// called when [`Adversary::observes`] is true.
    fn observe(
        &self,
        lab: &AdversaryLab<'_>,
        knobs: &ChainKnobs,
        day: u64,
        view: &DayView,
        state: &mut SharedState,
    ) {
        let _ = (lab, knobs, day, view, state);
    }

    /// Chain hook: deploy this member's capability for `day` (grind
    /// Sybils, recompile the blacklist, cut countries, …).
    fn act(&self, lab: &AdversaryLab<'_>, knobs: &ChainKnobs, day: u64, state: &mut SharedState) {
        let _ = (lab, knobs, day, state);
    }

    /// Chain hook: append this member's end-of-chain metrics to the
    /// variant's result row (called after the day loop, in chain order).
    fn conclude_chain(
        &self,
        lab: &AdversaryLab<'_>,
        knobs: &ChainKnobs,
        state: &SharedState,
        row: &mut Vec<(String, f64)>,
    ) {
        let _ = (lab, knobs, state, row);
    }

    /// Runs the standalone sweep and returns the structured outcome.
    fn run(&self, lab: &AdversaryLab<'_>) -> AdversaryOutcome;

    /// The harvest this adversary's run would archive as an `.i2ps`
    /// capture. The default is the plain fleet harvest over the study
    /// window; adversaries that warp visibility (Sybil placement,
    /// composed chains) override it with their attacked engine.
    fn capture<'w>(&self, lab: &AdversaryLab<'w>) -> HarvestEngine<'w> {
        HarvestEngine::build(lab.world, lab.fleet, lab.days.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use i2p_sim::world::WorldConfig;

    #[test]
    fn metric_formatting_follows_label_convention() {
        assert_eq!(format_metric("blocking%", 93.14159), "93.1");
        assert_eq!(format_metric("blacklist", 1234.0), "1234");
    }

    #[test]
    fn audit_line_shape() {
        let o = AdversaryOutcome {
            name: "censor".into(),
            config: vec![("days".into(), "0..8".into())],
            metrics: vec![("blocking%".into(), 91.25), ("cells".into(), 9.0)],
            figure: String::new(),
            csv: String::new(),
        };
        assert_eq!(o.audit_line(), "audit adversary=censor days=0..8 | blocking%=91.2 cells=9");
    }

    #[test]
    #[should_panic(expected = "at least 3 days")]
    fn short_window_rejected() {
        let world = World::generate(WorldConfig { days: 8, scale: 0.02, seed: 1 });
        let fleet = Fleet::alternating(2);
        AdversaryLab::new(&world, &fleet, 0..2, 1);
    }

    #[test]
    #[should_panic(expected = "extends past")]
    fn window_past_world_rejected() {
        let world = World::generate(WorldConfig { days: 8, scale: 0.02, seed: 1 });
        let fleet = Fleet::alternating(2);
        AdversaryLab::new(&world, &fleet, 0..20, 1);
    }

    #[test]
    fn shared_state_window_union_and_blocks() {
        let world = World::generate(WorldConfig { days: 8, scale: 0.02, seed: 1 });
        let mut state = SharedState::default();
        state.sighted.entry(1).or_default().insert(PeerIp::V4(10));
        state.sighted.entry(3).or_default().insert(PeerIp::V4(30));
        let w = state.window_union(3, 2);
        assert!(w.contains(&PeerIp::V4(30)) && !w.contains(&PeerIp::V4(10)));
        assert!(state.window_union(3, 30).contains(&PeerIp::V4(10)));
        state.blacklist.insert(PeerIp::V4(30));
        assert!(state.blocks(PeerIp::V4(30), &world.geo));
        assert!(!state.blocks(PeerIp::V4(10), &world.geo));
    }

    #[test]
    #[should_panic(expected = "at least 1 day")]
    fn window_union_rejects_zero_day_window() {
        SharedState::default().window_union(3, 0);
    }
}
