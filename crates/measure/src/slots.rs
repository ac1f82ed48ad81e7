//! Dense per-peer slots for the figure folds (DESIGN.md §14).
//!
//! Figs. 6, 7, 8 and 10–12 keep state per peer. Peer ids are opaque
//! labels: an `.i2ps` row may carry any id up to `u32::MAX`, so no
//! table may be sized by one. [`PeerSlots`] gives every distinct peer a
//! dense slot instead — 0, 1, 2, … in first-sighting order (day first,
//! then id) — and the folds keep plain vectors indexed by slot, so their
//! memory is O(distinct peers seen).
//!
//! The index needs no hash map. A [`SnapshotSource`] day walk yields
//! ids ascending, so a forward cursor over the sorted ids of the earlier
//! days finds each id, or the place a new one would go, in one sweep per
//! day. A day's new ids queue up (ascending as well) and are merged into
//! the sorted ids when the next day starts.
//!
//! [`SnapshotSource`]: crate::source::SnapshotSource

/// Maps peer ids to dense slots in first-sighting order.
///
/// Walk each day through [`PeerSlots::day`], days ascending, and ask
/// the returned [`DaySlots`] for the slot of every id the day's walk
/// yields, in walk order.
#[derive(Clone, Debug, Default)]
pub struct PeerSlots {
    /// Every id of the days already walked, ascending, with its slot.
    known: Vec<(u32, u32)>,
    /// The current day's new ids, ascending, with their slots.
    fresh: Vec<(u32, u32)>,
}

impl PeerSlots {
    /// An empty index.
    pub fn new() -> Self {
        PeerSlots::default()
    }

    /// Slots handed out so far: the number of distinct peers seen.
    fn len(&self) -> usize {
        self.known.len() + self.fresh.len()
    }

    /// Starts the walk of `day`: the previous day's new ids join the
    /// sorted ids, and the cursor goes back to the lowest one.
    pub fn day(&mut self, day: u64) -> DaySlots<'_> {
        self.merge_fresh();
        DaySlots { index: self, day, cursor: 0, last: None }
    }

    /// Merges `fresh` into `known` in place, from the highest new id
    /// down: the known ids above each new one move up in one block. A
    /// day brings few new peers, so this is a few searches and copies,
    /// not a step per known id.
    fn merge_fresh(&mut self) {
        let (known, fresh) = (&mut self.known, &mut self.fresh);
        let mut end = known.len();
        known.resize(end + fresh.len(), (0, 0));
        for (below, &entry) in fresh.iter().enumerate().rev() {
            // `below` new ids are still to come, all under this one.
            let at = known[..end].partition_point(|&(id, _)| id < entry.0);
            known.copy_within(at..end, at + below + 1);
            known[at + below] = entry;
            end = at;
        }
        fresh.clear();
    }
}

/// One day's walk over a [`PeerSlots`] index.
#[derive(Debug)]
pub struct DaySlots<'a> {
    index: &'a mut PeerSlots,
    day: u64,
    /// Position in `index.known` of the first id not below the last one.
    cursor: usize,
    last: Option<u32>,
}

impl DaySlots<'_> {
    /// The slot of `id`, the next peer of the day's walk; a peer never
    /// seen before gets the next free slot.
    ///
    /// # Panics
    ///
    /// If `id` does not ascend past the day's previous id. Every
    /// `SnapshotSource` day walk yields each peer once, ids ascending;
    /// a walk that broke that contract would otherwise hand a peer a
    /// second slot.
    pub fn slot(&mut self, id: u32) -> u32 {
        if let Some(last) = self.last {
            assert!(
                id > last,
                "peer id {id} follows id {last} on day {}: a SnapshotSource day walk yields \
                 each peer once, ids ascending",
                self.day
            );
        }
        self.last = Some(id);
        let known = &self.index.known;
        let mut i = self.cursor;
        while known.get(i).is_some_and(|&(k, _)| k < id) {
            i += 1;
        }
        self.cursor = i;
        match known.get(i) {
            Some(&(k, slot)) if k == id => slot,
            _ => {
                // Slots count distinct peers, which an in-memory index
                // of 8 bytes a peer keeps far below `u32::MAX`.
                let slot = self.index.len() as u32;
                self.index.fresh.push((id, slot));
                slot
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Slots of each day's ids, walking the days in order.
    fn walk(days: &[&[u32]]) -> Vec<Vec<u32>> {
        let mut index = PeerSlots::new();
        days.iter()
            .enumerate()
            .map(|(d, ids)| {
                let mut today = index.day(d as u64);
                ids.iter().map(|&id| today.slot(id)).collect()
            })
            .collect()
    }

    #[test]
    fn a_peer_seen_on_several_days_keeps_one_slot() {
        let slots = walk(&[&[5, 9, 40], &[9, 40], &[1, 5, 40, 77], &[40]]);
        assert_eq!(slots[0], [0, 1, 2]);
        assert_eq!(slots[1], [1, 2]);
        assert_eq!(slots[2], [3, 0, 2, 4]);
        assert_eq!(slots[3], [2]);
        // Ids at the ends of the range are labels like any other.
        let edges = walk(&[&[0, u32::MAX], &[u32::MAX - 1, u32::MAX], &[0, u32::MAX - 1]]);
        assert_eq!(edges, [vec![0, 1], vec![2, 1], vec![0, 2]]);
    }

    #[test]
    fn slots_follow_first_sighting_order_day_first_then_id() {
        // Ids arrive in every relation to the ones already known: below,
        // between and above them, several new ones in one gap.
        let days: &[&[u32]] = &[
            &[100, 300],
            &[50, 100, 200, 250, 400],
            &[10, 50, 60, 70, 300, 500],
            &[],
            &[5, 60, 1000],
        ];
        let slots = walk(days);
        let mut first_seen: Vec<u32> = Vec::new();
        for (day, ids) in days.iter().enumerate() {
            for (&id, &slot) in ids.iter().zip(&slots[day]) {
                match first_seen.iter().position(|&seen| seen == id) {
                    Some(s) => assert_eq!(slot as usize, s, "id {id} moved slot on day {day}"),
                    None => {
                        assert_eq!(slot as usize, first_seen.len(), "id {id} on day {day}");
                        first_seen.push(id);
                    }
                }
            }
        }
        assert_eq!(first_seen, [100, 300, 50, 200, 250, 400, 10, 60, 70, 500, 5, 1000]);
    }

    #[test]
    fn merging_keeps_the_known_ids_sorted() {
        let mut index = PeerSlots::new();
        for day in 0..40u64 {
            let ids: Vec<u32> = (0..60).map(|i| i * 7 + (day as u32 * 13) % 11).collect();
            let mut today = index.day(day);
            for id in ids {
                today.slot(id);
            }
        }
        index.merge_fresh();
        assert!(index.known.windows(2).all(|w| w[0].0 < w[1].0));
        let mut slots: Vec<u32> = index.known.iter().map(|&(_, s)| s).collect();
        slots.sort_unstable();
        assert!(slots.iter().enumerate().all(|(i, &s)| s as usize == i));
        assert_eq!(index.len(), index.known.len());
    }

    #[test]
    #[should_panic(expected = "a SnapshotSource day walk yields each peer once, ids ascending")]
    fn a_descending_id_panics_naming_the_walk_contract() {
        walk(&[&[3, 8], &[8, 3]]);
    }

    #[test]
    #[should_panic(expected = "peer id 8 follows id 8 on day 1")]
    fn a_repeated_id_within_a_day_panics_rather_than_taking_a_second_slot() {
        // The repeat is a peer the day has not met before, which a
        // cursor that silently moved on would slot twice.
        walk(&[&[3], &[8, 8]]);
    }
}
