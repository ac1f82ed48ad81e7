//! Capacity-flag analyses: Fig. 9 and Table 1, plus the §5.3.1
//! qualified-floodfill population estimate.

use crate::observed::ObservedRouterInfo;
use crate::source::SnapshotSource;
use i2p_data::{BandwidthClass, Caps};

/// Index of a class in K..X order.
fn idx(c: BandwidthClass) -> usize {
    c.index()
}

/// Fig. 9: average daily count of peers per *published* bandwidth
/// letter. A P/X peer that also publishes the compat `O` counts under
/// both letters — this is why Table 1 columns sum past 100 % (§5.3.1).
#[derive(Clone, Debug, Default)]
pub struct CapacityHistogram {
    /// Counts per letter K..X.
    pub counts: [usize; 7],
    /// Days averaged.
    pub days: usize,
}

/// Computes Fig. 9 averaged over the window, off any source.
pub fn capacity_histogram_from<S: SnapshotSource + ?Sized>(
    src: &S,
    days: std::ops::Range<u64>,
) -> CapacityHistogram {
    let mut fold = CapacityFold::new(days.clone().count());
    let k = src.vantage_count();
    for d in days {
        src.for_each_observation_ref(d, k, &mut |rec| fold.observe(rec));
    }
    fold.finish()
}

/// Fig. 9's accumulator: published-letter counts summed over a window.
#[derive(Clone, Debug)]
pub struct CapacityFold {
    totals: [usize; 7],
    days: usize,
}

impl CapacityFold {
    /// An empty fold over a window of `days` days.
    pub fn new(days: usize) -> Self {
        CapacityFold { totals: [0; 7], days: days.max(1) }
    }

    /// Counts one observation's published bandwidth letters.
    pub fn observe(&mut self, rec: &ObservedRouterInfo) {
        for ch in rec.caps.chars() {
            if let Some(b) = BandwidthClass::from_letter(ch) {
                self.totals[idx(b)] += 1;
            }
        }
    }

    /// Adds a fold over other observations of the same window: the
    /// letter totals add, and [`CapacityFold::finish`] divides the sum,
    /// so the merged averages round as the unsplit fold's do.
    ///
    /// # Panics
    ///
    /// If the two folds average over different day counts.
    pub fn merge(&mut self, part: CapacityFold) {
        assert_eq!(self.days, part.days, "merged capacity folds must share their window");
        for (total, more) in self.totals.iter_mut().zip(part.totals) {
            *total += more;
        }
    }

    /// The daily averages.
    pub fn finish(&self) -> CapacityHistogram {
        CapacityHistogram { counts: self.totals.map(|t| t / self.days), days: self.days }
    }
}

/// Table 1: percentage of routers per bandwidth letter within the
/// floodfill / reachable / unreachable groups.
#[derive(Clone, Debug, Default)]
pub struct BandwidthTable {
    /// Per-letter percentages in the floodfill group.
    pub floodfill: [f64; 7],
    /// Per-letter percentages in the reachable group.
    pub reachable: [f64; 7],
    /// Per-letter percentages in the unreachable group.
    pub unreachable: [f64; 7],
    /// Per-letter percentages over everyone.
    pub total: [f64; 7],
    /// Raw group sizes (floodfill, reachable, unreachable, total).
    pub group_sizes: [usize; 4],
}

/// Computes Table 1 for one day, off any source.
pub fn bandwidth_table_from<S: SnapshotSource + ?Sized>(src: &S, day: u64) -> BandwidthTable {
    let mut fold = BandwidthFold::default();
    src.for_each_observation_ref(day, src.vantage_count(), &mut |rec| fold.observe(rec));
    fold.finish()
}

/// Table 1's accumulator for one day: per-letter counts and sizes of
/// the floodfill, reachable, unreachable and total groups.
#[derive(Clone, Debug, Default)]
pub struct BandwidthFold {
    counts: [[usize; 7]; 4], // ff, reach, unreach, total
    sizes: [usize; 4],
}

impl BandwidthFold {
    /// Counts one observation into every group it belongs to.
    pub fn observe(&mut self, rec: &ObservedRouterInfo) {
        let caps: Caps = rec.parsed_caps();
        let mut groups = [3usize, 0, 0];
        let mut n_groups = 1;
        if caps.floodfill {
            groups[n_groups] = 0;
            n_groups += 1;
        }
        groups[n_groups] = if caps.reachable { 1 } else { 2 };
        n_groups += 1;
        let groups = &groups[..n_groups];
        for &g in groups {
            self.sizes[g] += 1;
        }
        for ch in rec.caps.chars() {
            if let Some(b) = BandwidthClass::from_letter(ch) {
                for &g in groups {
                    self.counts[g][idx(b)] += 1;
                }
            }
        }
    }

    /// Adds a fold over other observations of the same day.
    pub fn merge(&mut self, part: BandwidthFold) {
        for (counts, more) in self.counts.iter_mut().zip(part.counts) {
            for (count, more) in counts.iter_mut().zip(more) {
                *count += more;
            }
        }
        for (size, more) in self.sizes.iter_mut().zip(part.sizes) {
            *size += more;
        }
    }

    /// The per-group percentages.
    pub fn finish(&self) -> BandwidthTable {
        let pct = |g: usize| -> [f64; 7] {
            let size = self.sizes[g].max(1) as f64;
            self.counts[g].map(|c| 100.0 * c as f64 / size)
        };
        BandwidthTable {
            floodfill: pct(0),
            reachable: pct(1),
            unreachable: pct(2),
            total: pct(3),
            group_sizes: self.sizes,
        }
    }
}

/// The §5.3.1 back-of-envelope population estimate.
#[derive(Clone, Debug)]
pub struct FloodfillEstimate {
    /// Observed floodfills on the day.
    pub observed_floodfills: usize,
    /// Share of floodfills that are qualified (pure N/O/P/X) — the
    /// paper's 71 %.
    pub qualified_share: f64,
    /// Qualified floodfills (paper: ≈1 917).
    pub qualified_floodfills: usize,
    /// Estimated network population: qualified ÷ 6 % (paper: ≈31 950).
    pub estimated_population: f64,
}

/// Reproduces the §5.3.1 arithmetic: count observed floodfills, take the
/// qualified (N/O/P/X) share, and divide by the 6 % automatic-floodfill
/// fraction reported on the I2P site. Runs off any source.
pub fn floodfill_estimate_from<S: SnapshotSource + ?Sized>(src: &S, day: u64) -> FloodfillEstimate {
    let mut fold = FloodfillFold::default();
    src.for_each_observation_ref(day, src.vantage_count(), &mut |rec| fold.observe(rec));
    fold.finish()
}

/// The §5.3.1 estimate's accumulator for one day: observed and
/// qualified floodfills.
#[derive(Clone, Debug, Default)]
pub struct FloodfillFold {
    floodfills: usize,
    qualified: usize,
}

impl FloodfillFold {
    /// Counts one observation.
    pub fn observe(&mut self, rec: &ObservedRouterInfo) {
        let caps = rec.parsed_caps();
        if caps.floodfill {
            self.floodfills += 1;
            if caps.qualified_floodfill() {
                self.qualified += 1;
            }
        }
    }

    /// Adds a fold over other observations of the same day.
    pub fn merge(&mut self, part: FloodfillFold) {
        self.floodfills += part.floodfills;
        self.qualified += part.qualified;
    }

    /// The estimate.
    pub fn finish(&self) -> FloodfillEstimate {
        FloodfillEstimate {
            observed_floodfills: self.floodfills,
            qualified_share: self.qualified as f64 / self.floodfills.max(1) as f64,
            qualified_floodfills: self.qualified,
            estimated_population: self.qualified as f64 / 0.06,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::HarvestEngine;
    use crate::fleet::Fleet;
    use i2p_sim::world::{World, WorldConfig};

    fn setup() -> (World, Fleet) {
        (
            World::generate(WorldConfig { days: 10, scale: 0.05, seed: 41 }),
            Fleet::paper_main(),
        )
    }

    #[test]
    fn fig9_order_matches_paper() {
        let (w, fleet) = setup();
        let h = capacity_histogram_from(&HarvestEngine::build(&w, &fleet, 2..6), 2..6);
        let [k, l, m, n, o, p, x] = h.counts;
        assert!(l > n, "L dominates ({l} vs {n})");
        assert!(n > p && p > x, "N > P > X ({n}, {p}, {x})");
        assert!(x > m && x > k, "X above M and K");
        // O sits between X and M once compat-O letters are included.
        assert!(o > m, "O ({o}) above M ({m})");
    }

    #[test]
    fn capacity_parts_add_their_totals_before_dividing() {
        // Finished histograms are daily averages, rounded down: adding
        // two parts' averages drops the remainders the sum would keep.
        let (w, fleet) = setup();
        let engine = HarvestEngine::build(&w, &fleet, 2..5);
        let days = 3;
        let mut whole = CapacityFold::new(days);
        let mut parts = [CapacityFold::new(days), CapacityFold::new(days)];
        for day in 2..5 {
            engine.for_each_observation(day, fleet.vantages.len(), |rec| {
                whole.observe(&rec);
                parts[(rec.peer_id % 2) as usize].observe(&rec);
            });
        }
        let [mut merged, high] = parts;
        let finished_added: Vec<usize> =
            merged.finish().counts.iter().zip(high.finish().counts).map(|(a, b)| a + b).collect();
        merged.merge(high);
        assert_eq!(merged.finish().counts, whole.finish().counts);
        assert_ne!(finished_added, whole.finish().counts, "no letter's remainders add up");
    }

    #[test]
    fn table1_floodfill_group_n_dominant() {
        let (w, fleet) = setup();
        let t = bandwidth_table_from(&HarvestEngine::build(&w, &fleet, 5..6), 5);
        let n_i = idx(BandwidthClass::N);
        let l_i = idx(BandwidthClass::L);
        assert!(
            t.floodfill[n_i] > t.floodfill[l_i],
            "floodfill group: N {} must beat L {}",
            t.floodfill[n_i],
            t.floodfill[l_i]
        );
        // Overall and per reachability group, L dominates.
        assert!(t.total[l_i] > t.total[n_i]);
        assert!(t.reachable[l_i] > t.reachable[n_i]);
        assert!(t.unreachable[l_i] > t.unreachable[n_i]);
    }

    #[test]
    fn table1_totals_exceed_100_percent() {
        // The compat-O rule makes the column sums exceed 100 %.
        let (w, fleet) = setup();
        let t = bandwidth_table_from(&HarvestEngine::build(&w, &fleet, 5..6), 5);
        let sum: f64 = t.total.iter().sum();
        assert!(sum > 100.0, "total column sums to {sum}");
        assert!(sum < 130.0, "but not absurdly ({sum})");
    }

    #[test]
    fn floodfill_estimate_recovers_population() {
        let (w, fleet) = setup();
        let est = floodfill_estimate_from(&HarvestEngine::build(&w, &fleet, 5..6), 5);
        assert!(est.observed_floodfills > 20);
        assert!(
            (0.55..0.85).contains(&est.qualified_share),
            "qualified share {} (paper: 0.71)",
            est.qualified_share
        );
        // The estimate should land near the actual online population.
        let actual = w.online_count(5) as f64;
        let ratio = est.estimated_population / actual;
        assert!((0.6..1.5).contains(&ratio), "estimate/actual = {ratio}");
    }
}
