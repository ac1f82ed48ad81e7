//! The censor's address blacklist.
//!
//! Models §6.2 of Hoang et al.: the censor harvests peer IPs with its
//! monitoring routers and blocks them at the national firewall. Entries
//! carry the day they were last *seen*, so the list can be evaluated
//! under different blacklist time windows (1, 5, 10, 20, 30 days —
//! Fig. 13): an entry blocks traffic on day `d` iff it was seen within
//! the window ending at `d`.

use i2p_data::{FxHashMap, FxHashSet, PeerIp};

/// A time-windowed IP blacklist.
#[derive(Clone, Debug, Default)]
pub struct BlockList {
    /// IP → last day it was observed by the censor.
    last_seen: FxHashMap<PeerIp, u64>,
    /// Window length in days (entries older than this stop blocking).
    window_days: u64,
    /// Whitelisted IPs are never blocked (the §7.2 attack whitelists the
    /// censor's own malicious routers). A hash set, not a `Vec`: the
    /// fabric consults the blocklist on every delivery decision, so a
    /// linear whitelist scan would sit on the hot path.
    whitelist: FxHashSet<PeerIp>,
}

impl BlockList {
    /// Creates an empty blacklist with the given window.
    pub fn new(window_days: u64) -> Self {
        assert!(window_days >= 1, "window must be at least one day");
        BlockList {
            last_seen: FxHashMap::default(),
            window_days,
            whitelist: FxHashSet::default(),
        }
    }

    /// The configured window length.
    pub fn window_days(&self) -> u64 {
        self.window_days
    }

    /// Records that the censor observed `ip` on `day` (keeps the latest).
    pub fn observe(&mut self, ip: PeerIp, day: u64) {
        self.last_seen
            .entry(ip)
            .and_modify(|d| *d = (*d).max(day))
            .or_insert(day);
    }

    /// Whitelists `ip` (never blocked).
    pub fn whitelist(&mut self, ip: PeerIp) {
        self.whitelist.insert(ip);
    }

    /// Number of whitelisted IPs.
    pub fn whitelist_len(&self) -> usize {
        self.whitelist.len()
    }

    /// Whether traffic to `ip` is blocked on `day`.
    pub fn is_blocked(&self, ip: &PeerIp, day: u64) -> bool {
        if self.whitelist.contains(ip) {
            return false;
        }
        match self.last_seen.get(ip) {
            Some(&seen) => seen <= day && day - seen < self.window_days,
            None => false,
        }
    }

    /// Number of entries that are *active* (blocking) on `day`.
    pub fn active_len(&self, day: u64) -> usize {
        self.last_seen
            .values()
            .filter(|&&seen| seen <= day && day - seen < self.window_days)
            .count()
    }

    /// Total entries ever recorded.
    pub fn total_len(&self) -> usize {
        self.last_seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(n: u32) -> PeerIp {
        PeerIp::V4(n)
    }

    #[test]
    fn blocks_within_window_only() {
        let mut bl = BlockList::new(5);
        bl.observe(ip(1), 10);
        assert!(bl.is_blocked(&ip(1), 10));
        assert!(bl.is_blocked(&ip(1), 14));
        assert!(!bl.is_blocked(&ip(1), 15), "entry ages out after 5 days");
        assert!(!bl.is_blocked(&ip(1), 9), "no retroactive blocking");
        assert!(!bl.is_blocked(&ip(2), 10));
    }

    #[test]
    fn reobservation_refreshes() {
        let mut bl = BlockList::new(2);
        bl.observe(ip(1), 0);
        bl.observe(ip(1), 3);
        assert!(bl.is_blocked(&ip(1), 4));
        assert_eq!(bl.total_len(), 1);
    }

    #[test]
    fn observe_keeps_latest_even_out_of_order() {
        let mut bl = BlockList::new(2);
        bl.observe(ip(1), 7);
        bl.observe(ip(1), 3);
        assert!(bl.is_blocked(&ip(1), 8));
    }

    #[test]
    fn whitelist_wins() {
        let mut bl = BlockList::new(30);
        bl.observe(ip(9), 0);
        bl.whitelist(ip(9));
        assert!(!bl.is_blocked(&ip(9), 0));
    }

    #[test]
    fn active_len_counts_window() {
        let mut bl = BlockList::new(1);
        bl.observe(ip(1), 0);
        bl.observe(ip(2), 1);
        assert_eq!(bl.active_len(0), 1);
        assert_eq!(bl.active_len(1), 1);
        assert_eq!(bl.active_len(2), 0);
        assert_eq!(bl.total_len(), 2);
    }
}
