//! Chaining adversaries: the `Composed` adversary and its day-loop
//! driver.
//!
//! A chain runs its members in declared order, once per day of the
//! study window, against one [`SharedState`]: members that observe get
//! a [`DayView`] harvested under the state's *current* visibility
//! model, then every member acts. The chain is swept over an
//! escalation grid of [`ChainKnobs`] variants via
//! [`lab::sweep`](crate::lab::sweep), one variant per work item —
//! variants are independent, so results are bit-identical at any
//! thread count.

use super::{
    metric_decimals, Adversary, AdversaryLab, AdversaryOutcome, Capability, ChainKnobs, DayView,
    SharedState,
};
use crate::engine::HarvestEngine;
use crate::report::{Cell, Column, Table};
use i2p_faults::FaultPlane;
use std::fmt::Write as _;

/// An adversary assembled from other adversaries, run day-by-day over
/// an escalation grid.
pub struct Composed {
    name: String,
    description: String,
    paper: String,
    figure: String,
    members: Vec<Box<dyn Adversary>>,
    variants: Vec<ChainKnobs>,
}

impl Composed {
    /// Builds a chain. Panics on an empty member list, an empty variant
    /// grid, or invalid knobs — the registry's spec parser reports
    /// malformed *specs* as errors before this is reached, so a panic
    /// here is a programming error, matching the other config
    /// validators.
    pub fn new(
        name: &str,
        description: &str,
        paper: &str,
        figure: &str,
        members: Vec<Box<dyn Adversary>>,
        variants: Vec<ChainKnobs>,
    ) -> Self {
        assert!(!members.is_empty(), "Composed {name:?}: empty member chain");
        assert!(!variants.is_empty(), "Composed {name:?}: empty variant grid");
        for v in &variants {
            v.validate();
        }
        Composed {
            name: name.to_string(),
            description: description.to_string(),
            paper: paper.to_string(),
            figure: figure.to_string(),
            members,
            variants,
        }
    }

    /// A user-spelled chain (`a+b+c`) over the generic escalation grid.
    pub fn chain(spec: &str, members: Vec<Box<dyn Adversary>>) -> Self {
        Composed::new(
            spec,
            "user-composed chain over the escalation grid",
            "composition (beyond the paper)",
            "escalation table",
            members,
            ChainKnobs::escalation(),
        )
    }

    /// Sybil-assisted censorship: eclipse the harvester's floodfill
    /// placement, then blacklist what the censor still sees. The paper
    /// treats harvesting (§4) and blocking (§6.2) as one adversary but
    /// never runs them *against each other* — this scenario does.
    pub fn sybil_censor() -> Self {
        Composed::new(
            "sybil+censor",
            "Sybil-eclipsed harvest feeding a windowed address censor",
            "§4 + §6.2 composed",
            "escalation table",
            vec![Box::new(super::SybilEclipse), Box::new(super::Censor)],
            vec![
                ChainKnobs { sybil_count: 0, ..Default::default() },
                ChainKnobs { sybil_count: 16, ..Default::default() },
                ChainKnobs { sybil_count: 64, ..Default::default() },
            ],
        )
    }

    /// The adaptive censor: re-learns its blacklist from its own
    /// vantage mid-experiment instead of compiling it once. §6.2.2
    /// fixes the window *before* the experiment; this sweeps how often
    /// the censor refreshes.
    pub fn adaptive() -> Self {
        Composed::new(
            "adaptive",
            "censor that re-learns its blacklist mid-experiment",
            "§6.2.2 extended",
            "escalation table",
            vec![Box::new(super::AdaptiveCensor)],
            vec![
                ChainKnobs { relearn_every: 0, ..Default::default() },
                ChainKnobs { relearn_every: 4, ..Default::default() },
                ChainKnobs { relearn_every: 1, ..Default::default() },
            ],
        )
    }

    /// Geo-aware blocking: cut the top-N countries by observed address
    /// count instead of maintaining per-IP rules, and report the per-IP
    /// list's rate alongside for the comparison the paper's §6.2 only
    /// gestures at.
    pub fn geo() -> Self {
        Composed::new(
            "geo",
            "country-level cuts from the harvest vs per-IP lists",
            "§5.1 + §6.2 composed",
            "escalation table",
            vec![Box::new(super::GeoCensor)],
            vec![
                ChainKnobs { country_cuts: 1, ..Default::default() },
                ChainKnobs { country_cuts: 5, ..Default::default() },
                ChainKnobs { country_cuts: 15, ..Default::default() },
            ],
        )
    }

    /// The chain's members, in execution order.
    pub fn members(&self) -> &[Box<dyn Adversary>] {
        &self.members
    }

    fn uses_keyspace(&self) -> bool {
        chain_uses_keyspace(&self.members)
    }
}

/// Whether a chain harvests under keyspace-routed placement: true iff
/// any member declares [`Capability::Sybil`]. Decided per *chain*, not
/// per variant, so a `sybil+censor` zero-Sybil baseline row stays
/// comparable to its escalated rows.
fn chain_uses_keyspace(members: &[Box<dyn Adversary>]) -> bool {
    members.iter().any(|m| m.capabilities().contains(&Capability::Sybil))
}

/// Drives one chain variant: the day loop, then the members'
/// end-of-chain metrics, then the shared blocking metric. Returns the
/// variant's result row (ordered label → value pairs).
pub fn run_chain(
    lab: &AdversaryLab<'_>,
    members: &[Box<dyn Adversary>],
    knobs: &ChainKnobs,
) -> Vec<(String, f64)> {
    let state = chain_state(lab, members, knobs);
    let mut row = Vec::new();
    for m in members {
        m.conclude_chain(lab, knobs, &state, &mut row);
    }
    row.push(("blocking%".to_string(), state.blocking_rate_against(lab.victim(), &lab.world.geo)));
    row
}

/// The day loop alone: returns the final [`SharedState`] (what
/// [`run_chain`] concludes from, and what a chain capture replays to
/// recover its visibility model).
pub(super) fn chain_state(
    lab: &AdversaryLab<'_>,
    members: &[Box<dyn Adversary>],
    knobs: &ChainKnobs,
) -> SharedState {
    assert!(!members.is_empty(), "run_chain: empty member chain");
    knobs.validate();
    let keyspace = chain_uses_keyspace(members);
    let mut state = SharedState::default();
    for day in lab.days.clone() {
        // The day's view is built lazily (only if a member observes)
        // and rebuilt if an earlier member changed the day's Sybil
        // placement since it was harvested.
        let mut view: Option<DayView> = None;
        let mut placement_at_build = 0usize;
        for m in members.iter() {
            if m.observes() {
                let placement = state.sybils_on(day);
                if view.is_none() || placement != placement_at_build {
                    let v = DayView::build(lab, day, &state, keyspace);
                    state.coverage.insert(day, v.coverage_pct());
                    placement_at_build = placement;
                    view = Some(v);
                }
                m.observe(lab, knobs, day, view.as_ref().expect("view built above"), &mut state); // i2plint: allow(panic-audit) -- the view is built on the first iteration, before any observe
            }
            m.act(lab, knobs, day, &mut state);
        }
    }
    state
}

impl Adversary for Composed {
    fn name(&self) -> &str {
        &self.name
    }

    fn describe(&self) -> &str {
        &self.description
    }

    fn paper_ref(&self) -> &str {
        &self.paper
    }

    fn figure_ref(&self) -> &str {
        &self.figure
    }

    fn capabilities(&self) -> Vec<Capability> {
        let mut caps = Vec::new();
        for m in &self.members {
            for c in m.capabilities() {
                if !caps.contains(&c) {
                    caps.push(c);
                }
            }
        }
        caps
    }

    fn config(&self, lab: &AdversaryLab<'_>) -> Vec<(String, String)> {
        let mut cfg = lab.config_echo();
        let chain: Vec<&str> = self.members.iter().map(|m| m.name()).collect();
        cfg.push(("chain".into(), chain.join("+")));
        cfg.push(("variants".into(), self.variants.len().to_string()));
        cfg
    }

    fn run(&self, lab: &AdversaryLab<'_>) -> AdversaryOutcome {
        let rows = crate::lab::sweep(
            &self.members,
            &self.variants,
            lab.threads,
            |members, knobs, _| run_chain(lab, members, knobs),
        );
        let metrics = rows.last().cloned().unwrap_or_default();
        let table = escalation_table(self, &rows);
        AdversaryOutcome {
            name: self.name.clone(),
            config: self.config(lab),
            metrics,
            figure: table.text(),
            csv: table.csv(),
        }
    }

    /// The capture replays the *top* escalation variant's chain and
    /// archives the whole study window under its final visibility
    /// model — so a Sybil-assisted chain's `.i2ps` shows the eclipsed
    /// harvest, not the oracle one.
    fn capture<'w>(&self, lab: &AdversaryLab<'w>) -> HarvestEngine<'w> {
        let knobs = self.variants.last().expect("validated non-empty"); // i2plint: allow(panic-audit) -- ChainKnobs validation rejects an empty escalation grid
        let state = chain_state(lab, &self.members, knobs);
        HarvestEngine::build_faulted(
            lab.world,
            lab.fleet,
            lab.days.clone(),
            &state.visibility(self.uses_keyspace()),
            &FaultPlane::zero(),
        )
    }
}

/// The escalation table: one row per variant, one column per label of
/// the first row. Text prints each metric at its label's
/// [`metric_decimals`]; CSV keeps the raw values in full.
fn escalation_table(chain: &Composed, rows: &[Vec<(String, f64)>]) -> Table {
    let chain_names: Vec<&str> = chain.members.iter().map(|m| m.name()).collect();
    let title = format!(
        "Composed adversary {:?} — {} ({})",
        chain.name,
        chain.description,
        chain_names.join(" → ")
    );
    let labels: Vec<&str> = rows.first().map_or(Vec::new(), |r| {
        r.iter().map(|(label, _)| label.as_str()).collect()
    });
    let mut header = String::from("level");
    let mut columns = vec![Column::new("level", "", 5)];
    for label in labels {
        let w = label.chars().count().max(9);
        let _ = write!(header, "   {label:>w$}");
        columns.push(Column::new(label, "   ", w).decimals(metric_decimals(label), None));
    }
    let mut t = Table::new(&title, &header, columns).underline_chars();
    for (i, row) in rows.iter().enumerate() {
        t.row([Cell::from(i)].into_iter().chain(row.iter().map(|&(_, v)| Cell::from(v))).collect());
    }
    t
}
