//! Churn analysis: Fig. 7.
//!
//! "Percentage of peers that we see in the network continuously or
//! intermittently for n days" (Hoang et al. §5.2.1). The analysis is a
//! cohort survival over the fleet's sighting matrix: for every peer
//! first seen on some day `d0`, the *continuous* streak is the run of
//! consecutive sighted days starting at `d0`; the *intermittent* span
//! runs to the last day the peer is ever sighted.

use crate::slots::PeerSlots;
use crate::source::SnapshotSource;

/// The survival curves.
#[derive(Clone, Debug)]
pub struct ChurnCurves {
    /// `continuous[n]` = % of peers seen continuously for > n days.
    pub continuous: Vec<f64>,
    /// `intermittent[n]` = % of peers whose sighting span exceeds n days.
    pub intermittent: Vec<f64>,
    /// Cohort size.
    pub cohort: usize,
}

impl ChurnCurves {
    /// Survival at `n` days (continuous).
    pub fn continuous_at(&self, n: usize) -> f64 {
        self.continuous.get(n).copied().unwrap_or(0.0)
    }

    /// Survival at `n` days (intermittent).
    pub fn intermittent_at(&self, n: usize) -> f64 {
        self.intermittent.get(n).copied().unwrap_or(0.0)
    }
}

/// Computes Fig. 7 off any source, over the source's own day range.
///
/// Only peers first seen early enough to have `horizon` days of
/// follow-up are included, so late joiners do not truncate the curves.
pub fn churn_curves_from<S: SnapshotSource + ?Sized>(src: &S, horizon: usize) -> ChurnCurves {
    // Survival needs only membership, so no observation records are
    // materialized at all.
    let span = src.days();
    let k = src.vantage_count();
    let mut slots = PeerSlots::new();
    let mut fold = ChurnFold::new(span.clone(), horizon);
    for d in span {
        let mut today = slots.day(d);
        src.for_each_union_id(d, k, &mut |id| fold.observe(today.slot(id), d));
    }
    fold.finish()
}

/// One peer's sightings, in days since the window start: the first and
/// last sighted day and the run of consecutive days from the first.
/// The run stops growing at the first gap, which is exactly when it
/// falls short of `last - first + 1` — so that comparison is the
/// broken flag, and the state packs into 12 bytes however long the
/// window is. A slot no sighting reached yet has a zero run.
#[derive(Clone, Copy, Debug)]
struct Sightings {
    first: u32,
    last: u32,
    streak: u32,
}

impl Sightings {
    const UNSEEN: Sightings = Sightings { first: 0, last: 0, streak: 0 };

    fn see(&mut self, day: u32) {
        if self.streak == 0 {
            *self = Sightings { first: day, last: day, streak: 1 };
            return;
        }
        let unbroken = self.streak == self.last - self.first + 1;
        if unbroken && day == self.last + 1 {
            self.streak += 1;
        }
        self.last = day;
    }
}

/// Fig. 7's accumulator: one packed sighting state per peer slot
/// ([`PeerSlots`]). Days must arrive ascending, each peer at most once
/// per day — the order every [`SnapshotSource`] day walk yields.
#[derive(Clone, Debug)]
pub struct ChurnFold {
    days: std::ops::Range<u64>,
    horizon: usize,
    /// One state per slot of the index the fold is fed by.
    peers: Vec<Sightings>,
    /// The states of the folds merged into this one, in their buffers.
    merged: Vec<Vec<Sightings>>,
}

impl ChurnFold {
    /// An empty fold over the window `days`, following each peer for
    /// `horizon` days.
    pub fn new(days: std::ops::Range<u64>, horizon: usize) -> Self {
        ChurnFold { days, horizon, peers: Vec::new(), merged: Vec::new() }
    }

    /// Records that the peer in `slot` was sighted on `day`.
    pub fn observe(&mut self, slot: u32, day: u64) {
        // Offsets within one study window fit a u32 by a wide margin.
        let day = (day - self.days.start) as u32;
        let slot = slot as usize;
        if slot >= self.peers.len() {
            self.peers.resize(slot + 1, Sightings::UNSEEN);
        }
        self.peers[slot].see(day);
    }

    /// Appends a fold over other peers of the same window, whose slots
    /// come from an index of their own (another id shard's). The part's
    /// buffer moves over rather than being copied, so merging allocates
    /// no second copy of the per-peer state. The merged fold is for
    /// finishing; feeding it more sightings would mix the indexes' slots.
    ///
    /// # Panics
    ///
    /// If the two folds follow different windows or horizons.
    pub fn merge(&mut self, part: ChurnFold) {
        assert!(
            self.days == part.days && self.horizon == part.horizon,
            "merged churn folds must share their window and horizon"
        );
        self.merged.push(part.peers);
        self.merged.extend(part.merged);
    }

    /// The survival curves. Only peers first seen early enough to have
    /// `horizon` days of follow-up join the cohort, so late joiners do
    /// not truncate the curves.
    pub fn finish(&self) -> ChurnCurves {
        let horizon = self.horizon;
        let max_first = self.days.end.saturating_sub(horizon as u64);
        let mut cont_hist = vec![0usize; horizon + 1];
        let mut int_hist = vec![0usize; horizon + 1];
        let mut cohort = 0usize;
        let peers = self.peers.iter().chain(self.merged.iter().flatten());
        for s in peers.filter(|s| s.streak > 0) {
            if self.days.start + u64::from(s.first) > max_first {
                continue;
            }
            cohort += 1;
            // Intermittent span: first to last sighting, inclusive.
            let span = (s.last - s.first) as usize + 1;
            cont_hist[(s.streak as usize).min(horizon)] += 1;
            int_hist[span.min(horizon)] += 1;
        }
        // Convert histograms to survival percentages: S(n) = %{duration > n}.
        let to_survival = |hist: &[usize]| -> Vec<f64> {
            let total = cohort.max(1) as f64;
            let mut remaining = cohort;
            let mut out = Vec::with_capacity(horizon + 1);
            for n in 0..=horizon {
                out.push(100.0 * remaining as f64 / total);
                remaining -= hist[n.min(hist.len() - 1)];
            }
            out
        };
        ChurnCurves {
            continuous: to_survival(&cont_hist),
            intermittent: to_survival(&int_hist),
            cohort,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::HarvestEngine;
    use crate::fleet::Fleet;
    use i2p_sim::world::{World, WorldConfig};

    fn curves() -> ChurnCurves {
        let w = World::generate(WorldConfig { days: 60, scale: 0.015, seed: 21 });
        churn_curves_from(&HarvestEngine::build(&w, &Fleet::paper_main(), 0..60), 40)
    }

    #[test]
    fn survival_monotone_and_bounded() {
        let c = curves();
        assert!(c.cohort > 100, "cohort {}", c.cohort);
        for curve in [&c.continuous, &c.intermittent] {
            assert!((curve[0] - 100.0).abs() < 1e-9);
            for w in curve.windows(2) {
                assert!(w[1] <= w[0] + 1e-9, "survival must decline");
            }
        }
    }

    #[test]
    fn intermittent_dominates_continuous() {
        let c = curves();
        for n in 1..=40 {
            assert!(
                c.intermittent_at(n) >= c.continuous_at(n) - 1e-9,
                "at {n}: int {} < cont {}",
                c.intermittent_at(n),
                c.continuous_at(n)
            );
        }
    }

    #[test]
    fn churn_parts_append_their_peers() {
        // Each part slots its own peers, as an id shard of the figure
        // pass does; appended, the parts give the unsplit fold's cohort
        // and curves.
        let w = World::generate(WorldConfig { days: 60, scale: 0.015, seed: 21 });
        let fleet = Fleet::paper_main();
        let engine = HarvestEngine::build(&w, &fleet, 0..60);
        let (mut slots, mut whole) = (PeerSlots::new(), ChurnFold::new(0..60, 40));
        let mut part_slots = [PeerSlots::new(), PeerSlots::new()];
        let mut parts = [ChurnFold::new(0..60, 40), ChurnFold::new(0..60, 40)];
        for day in 0..60 {
            let mut today = slots.day(day);
            let mut part_days = part_slots.each_mut().map(|slots| slots.day(day));
            for id in engine.union_prefix_ids(day, fleet.vantages.len()) {
                whole.observe(today.slot(id), day);
                let part = (id % 2) as usize;
                parts[part].observe(part_days[part].slot(id), day);
            }
        }
        let [mut merged, high] = parts;
        merged.merge(high);
        let (merged, whole) = (merged.finish(), whole.finish());
        assert!(whole.cohort > 100, "cohort {}", whole.cohort);
        assert_eq!(merged.cohort, whole.cohort);
        assert_eq!(format!("{merged:?}"), format!("{whole:?}"));
    }

    #[test]
    fn anchors_have_paper_shape() {
        // Paper: cont >7d ≈ 56 %, int >7d ≈ 74 %; cont >30d ≈ 20 %,
        // int >30d ≈ 31 %. Generous tolerances at test scale; the
        // full-scale numbers come from the `fig07_churn` bench.
        let c = curves();
        let c7 = c.continuous_at(7);
        let i7 = c.intermittent_at(7);
        let c30 = c.continuous_at(30);
        let i30 = c.intermittent_at(30);
        assert!((35.0..75.0).contains(&c7), "cont@7 {c7}");
        assert!((55.0..90.0).contains(&i7), "int@7 {i7}");
        assert!((8.0..35.0).contains(&c30), "cont@30 {c30}");
        assert!((15.0..50.0).contains(&i30), "int@30 {i30}");
        assert!(i7 > c7 && i30 > c30);
    }
}
