//! Iterative Kademlia lookups.
//!
//! A requester that misses a record walks the keyspace: it queries the
//! closest floodfills it knows; a miss returns *closer* floodfills
//! (`DatabaseSearchReply`), which are queried next, until the record is
//! found or the candidate set is exhausted (Hoang et al. §2.1.2's netDb
//! query mechanics; the manipulation-resistance discussion in §4 is
//! about abusing exactly this interface).
//!
//! The driver is transport-agnostic: callers feed in replies and pump
//! [`IterativeLookup::next_queries`].
//!
//! Real floodfills crash and stall; an unbounded walk would hang on the
//! first silent responder. The timed API ([`IterativeLookup::next_queries_at`],
//! [`IterativeLookup::on_reply`], [`IterativeLookup::expire_timeouts`])
//! adds a per-query deadline with bounded retry and exponential backoff
//! ([`LookupConfig`]), so walks terminate even when every responder is
//! dead — and the per-peer query count stays ≤ 1 + `max_retries`.

use crate::routing_key::RoutingKey;
use i2p_data::{Duration, FxHashSet, Hash256, SimTime};

/// Parallelism of the iterative walk (Kademlia's α).
pub const ALPHA: usize = 3;

/// Timeout/retry policy for the timed walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LookupConfig {
    /// Deadline for the first attempt at a peer; attempt `n` waits
    /// `query_timeout << n` (exponential backoff).
    pub query_timeout: Duration,
    /// Re-queries allowed per peer after the first attempt times out.
    pub max_retries: u32,
}

impl Default for LookupConfig {
    fn default() -> Self {
        LookupConfig { query_timeout: Duration::from_secs(4), max_retries: 2 }
    }
}

/// An in-flight query awaiting a reply.
#[derive(Clone, Copy, Debug)]
struct PendingQuery {
    peer: Hash256,
    deadline: SimTime,
    attempt: u32,
}

/// State of one iterative lookup.
#[derive(Clone, Debug)]
pub struct IterativeLookup {
    /// The search key.
    pub key: Hash256,
    /// Known-but-unqueried candidates.
    candidates: Vec<Hash256>,
    /// Already queried.
    queried: FxHashSet<Hash256>,
    /// Whether the record was found.
    found: bool,
    /// Time the lookup started (for timeout accounting by the caller).
    pub started: SimTime,
    day: u64,
    config: LookupConfig,
    /// Queries awaiting replies (timed walk only).
    pending: Vec<PendingQuery>,
    /// Timed-out peers eligible for another attempt.
    retry_queue: Vec<(Hash256, u32)>,
    /// Re-queries issued after timeouts.
    retries: u64,
    /// Total queries sent, counting retries.
    total_queries: u64,
}

impl IterativeLookup {
    /// Starts a lookup for `key` from an initial floodfill set.
    pub fn new(key: Hash256, initial: Vec<Hash256>, now: SimTime) -> Self {
        Self::with_config(key, initial, now, LookupConfig::default())
    }

    /// Starts a lookup with an explicit timeout/retry policy.
    pub fn with_config(
        key: Hash256,
        initial: Vec<Hash256>,
        now: SimTime,
        config: LookupConfig,
    ) -> Self {
        let mut l = IterativeLookup {
            key,
            candidates: initial,
            queried: FxHashSet::default(),
            found: false,
            started: now,
            day: now.day(),
            config,
            pending: Vec::new(),
            retry_queue: Vec::new(),
            retries: 0,
            total_queries: 0,
        };
        l.sort_candidates();
        l
    }

    fn sort_candidates(&mut self) {
        let target = RoutingKey::for_day(&self.key, self.day);
        // One digest per candidate, not one per comparison.
        self.candidates
            .sort_by_cached_key(|c| RoutingKey::for_day(c, self.day).distance(&target));
        self.candidates.dedup();
    }

    /// The next up-to-α floodfills to query; marks them queried.
    pub fn next_queries(&mut self) -> Vec<Hash256> {
        if self.found {
            return Vec::new();
        }
        let mut out = Vec::new();
        while out.len() < ALPHA {
            let Some(pos) = self
                .candidates
                .iter()
                .position(|c| !self.queried.contains(c))
            else {
                break;
            };
            let c = self.candidates.remove(pos);
            self.queried.insert(c);
            out.push(c);
        }
        self.total_queries += out.len() as u64;
        i2p_telemetry::count(i2p_telemetry::Counter::LookupQueries, out.len() as u64);
        out
    }

    /// The timed variant of [`IterativeLookup::next_queries`]: issues
    /// up to α queries (retries of timed-out peers first, then fresh
    /// candidates) and registers a reply deadline for each. Attempt `n`
    /// of a peer waits `query_timeout << n` — exponential backoff.
    ///
    /// Callers pump this together with [`IterativeLookup::on_reply`]
    /// and [`IterativeLookup::expire_timeouts`].
    pub fn next_queries_at(&mut self, now: SimTime) -> Vec<Hash256> {
        if self.found {
            return Vec::new();
        }
        let _tally = i2p_telemetry::tally("netdb.lookup_step");
        let mut out = Vec::new();
        while out.len() < ALPHA && !self.retry_queue.is_empty() {
            let (peer, attempt) = self.retry_queue.remove(0);
            self.retries += 1;
            self.total_queries += 1;
            i2p_telemetry::count_one(i2p_telemetry::Counter::LookupRetries);
            self.register_pending(peer, attempt, now);
            out.push(peer);
        }
        while out.len() < ALPHA {
            let Some(pos) = self
                .candidates
                .iter()
                .position(|c| !self.queried.contains(c))
            else {
                break;
            };
            let c = self.candidates.remove(pos);
            self.queried.insert(c);
            self.total_queries += 1;
            self.register_pending(c, 0, now);
            out.push(c);
        }
        i2p_telemetry::count(i2p_telemetry::Counter::LookupQueries, out.len() as u64);
        out
    }

    fn register_pending(&mut self, peer: Hash256, attempt: u32, now: SimTime) {
        // Backoff doubles per attempt; `<<` on the millisecond count.
        let wait = Duration::from_millis(self.config.query_timeout.as_millis() << attempt);
        self.pending.push(PendingQuery { peer, deadline: now + wait, attempt });
    }

    /// Records a reply (hit or miss) from `peer`, clearing its deadline.
    pub fn on_reply(&mut self, peer: &Hash256) {
        self.pending.retain(|p| p.peer != *peer);
    }

    /// Expires queries whose deadline passed. Peers with retry budget
    /// left go to the retry queue (re-issued by the next
    /// [`IterativeLookup::next_queries_at`] call); exhausted peers are
    /// dropped from the walk. Returns how many queries expired.
    pub fn expire_timeouts(&mut self, now: SimTime) -> usize {
        let mut expired = 0;
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].deadline <= now {
                let p = self.pending.remove(i);
                expired += 1;
                if p.attempt < self.config.max_retries {
                    self.retry_queue.push((p.peer, p.attempt + 1));
                }
            } else {
                i += 1;
            }
        }
        expired
    }

    /// The earliest pending deadline, if any — the next instant at which
    /// [`IterativeLookup::expire_timeouts`] could make progress.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.pending.iter().map(|p| p.deadline).min()
    }

    /// Whether any query is still awaiting a reply.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Re-queries issued after timeouts.
    pub fn retry_count(&self) -> u64 {
        self.retries
    }

    /// Total queries sent, counting retries.
    pub fn query_count(&self) -> u64 {
        self.total_queries
    }

    /// Feeds a miss reply carrying closer floodfills.
    pub fn on_closer(&mut self, closer: &[Hash256]) {
        for c in closer {
            if !self.queried.contains(c) && !self.candidates.contains(c) {
                self.candidates.push(*c);
            }
        }
        self.sort_candidates();
    }

    /// Marks the record found.
    pub fn on_found(&mut self) {
        self.found = true;
    }

    /// Whether the record was found.
    pub fn is_found(&self) -> bool {
        self.found
    }

    /// Whether the walk is exhausted: not found, nothing left to query,
    /// nothing in flight, and no retries owed.
    pub fn is_exhausted(&self) -> bool {
        !self.found
            && self.candidates.iter().all(|c| self.queried.contains(c))
            && self.pending.is_empty()
            && self.retry_queue.is_empty()
    }

    /// Floodfills queried so far.
    pub fn queried_count(&self) -> usize {
        self.queried.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(i: u32) -> Hash256 {
        Hash256::digest(&i.to_be_bytes())
    }

    #[test]
    fn walks_alpha_at_a_time_without_repeats() {
        let mut l = IterativeLookup::new(h(0), (1..10).map(h).collect(), SimTime(0));
        let q1 = l.next_queries();
        assert_eq!(q1.len(), ALPHA);
        let q2 = l.next_queries();
        assert_eq!(q2.len(), ALPHA);
        let all: FxHashSet<_> = q1.iter().chain(&q2).collect();
        assert_eq!(all.len(), 6, "no repeated queries");
        assert_eq!(l.queried_count(), 6);
    }

    #[test]
    fn closer_hints_jump_the_queue() {
        let mut l = IterativeLookup::new(h(0), (1..5).map(h).collect(), SimTime(0));
        let _ = l.next_queries();
        // Learn a floodfill that is by construction the closest possible:
        // the key itself (distance zero after same-day rotation).
        l.on_closer(&[h(0)]);
        let next = l.next_queries();
        assert_eq!(next[0], h(0), "closest hint queried first");
    }

    #[test]
    fn found_stops_the_walk() {
        let mut l = IterativeLookup::new(h(0), (1..20).map(h).collect(), SimTime(0));
        let _ = l.next_queries();
        l.on_found();
        assert!(l.is_found());
        assert!(l.next_queries().is_empty());
        assert!(!l.is_exhausted(), "found ≠ exhausted");
    }

    #[test]
    fn exhaustion_detected() {
        let mut l = IterativeLookup::new(h(0), vec![h(1), h(2)], SimTime(0));
        assert!(!l.is_exhausted());
        let q = l.next_queries();
        assert_eq!(q.len(), 2);
        assert!(l.is_exhausted());
        // New hints revive the walk.
        l.on_closer(&[h(3)]);
        assert!(!l.is_exhausted());
    }

    #[test]
    fn duplicate_hints_ignored() {
        let mut l = IterativeLookup::new(h(0), vec![h(1)], SimTime(0));
        let _ = l.next_queries();
        l.on_closer(&[h(1), h(1), h(2), h(2)]);
        let q = l.next_queries();
        assert_eq!(q, vec![h(2)]);
    }

    #[test]
    fn reply_clears_the_deadline() {
        let mut l = IterativeLookup::new(h(0), vec![h(1), h(2)], SimTime(0));
        let q = l.next_queries_at(SimTime(0));
        assert_eq!(q.len(), 2);
        assert!(l.has_pending());
        l.on_reply(&q[0]);
        l.on_reply(&q[1]);
        assert!(!l.has_pending());
        // Nothing expires once replies landed.
        assert_eq!(l.expire_timeouts(SimTime::from_day_ms(1, 0)), 0);
        assert_eq!(l.retry_count(), 0);
        assert!(l.is_exhausted());
    }

    #[test]
    fn timeout_retries_with_exponential_backoff_then_gives_up() {
        let cfg = LookupConfig { query_timeout: Duration::from_secs(4), max_retries: 2 };
        let mut l = IterativeLookup::with_config(h(0), vec![h(1)], SimTime(0), cfg);
        let mut now = SimTime(0);
        assert_eq!(l.next_queries_at(now), vec![h(1)]);
        // Attempt 0 times out after 4 s.
        assert_eq!(l.expire_timeouts(now + Duration::from_millis(3999)), 0);
        now = now + Duration::from_secs(4);
        assert_eq!(l.expire_timeouts(now), 1);
        assert!(!l.is_exhausted(), "retry still owed");
        // Retry 1: 8 s deadline.
        assert_eq!(l.next_queries_at(now), vec![h(1)]);
        assert_eq!(l.expire_timeouts(now + Duration::from_millis(7999)), 0);
        now = now + Duration::from_secs(8);
        assert_eq!(l.expire_timeouts(now), 1);
        // Retry 2: 16 s deadline, and the retry budget is spent.
        assert_eq!(l.next_queries_at(now), vec![h(1)]);
        now = now + Duration::from_secs(16);
        assert_eq!(l.expire_timeouts(now), 1);
        assert_eq!(l.next_queries_at(now), Vec::<Hash256>::new());
        assert!(l.is_exhausted(), "budget spent ⇒ walk terminates");
        assert_eq!(l.retry_count(), 2);
        assert_eq!(l.query_count(), 3, "1 + max_retries attempts at the peer");
    }

    #[test]
    fn exhaustion_waits_for_in_flight_queries() {
        let mut l = IterativeLookup::new(h(0), vec![h(1)], SimTime(0));
        let _ = l.next_queries_at(SimTime(0));
        assert!(!l.is_exhausted(), "a pending query is not exhaustion");
        l.on_reply(&h(1));
        assert!(l.is_exhausted());
    }
}
