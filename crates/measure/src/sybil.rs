//! The eclipse/Sybil scenario suite.
//!
//! The paper's attack discussion (§4, §7) hinges on the daily routing
//! key rotation: because a record's netDb position is
//! `SHA256(hash ∥ UTC-date)`, an adversary who wants to control the
//! `REPLICATION` floodfills closest to a target destination must
//! *re-grind* identities every day — but nothing stops them from doing
//! exactly that. This module measures the attack end to end against the
//! keyspace-routed harvest model ([`crate::keyspace`]):
//!
//! * **Grinding** ([`grind_sybils`]): at every day-rotation boundary the
//!   attacker draws `count × grind_per_sybil` candidate identities from
//!   a deterministic stream and keeps the `count` whose daily routing
//!   keys land closest to the target's. The candidate stream is shared
//!   across Sybil counts (a larger fleet is a longer prefix of the same
//!   stream), which makes the headline metric provably monotone: for
//!   `count ≥ replication`, the `replication`-th closest candidate of a
//!   longer prefix is never farther than that of a shorter one, so
//!   **eclipse probability is non-decreasing in Sybil count** — the
//!   invariant `tests/keyspace_parity.rs` and the CLI assert.
//! * **Eclipse** ([`keyspace::eclipsed`]): a day counts as eclipsed when
//!   every one of the `replication` floodfills the target's LeaseSet
//!   lands on is a Sybil — honest lookups are then answered (or
//!   dropped) entirely by the adversary.
//! * **Lookups** ([`lookup_target`]): each day a client walks the real
//!   `i2p-netdb` machinery — its partial view of the DHT is a
//!   [`KBucketTable`] (bucket caps and all), the walk is an
//!   [`IterativeLookup`] — against responders the attacker partially
//!   controls: Sybils answer every query with more Sybils and never the
//!   record; honest floodfills answer with the genuinely closest
//!   positions (Sybils included — they *are* in the DHT).
//! * **Census damage**: the same Sybil placement is fed to the
//!   [`HarvestEngine`] as a [`VisibilityModel::Keyspace`] config, so the
//!   fleet's census coverage and its sightings of the target reflect
//!   the stores the adversary absorbed.
//!
//! [`run`] sweeps all of this over a Sybil-count grid through
//! [`crate::lab::sweep`], one scenario per count, thread-count
//! independent like every other lab experiment.

use crate::engine::HarvestEngine;
use crate::fleet::Fleet;
use crate::keyspace::{self, KeyspaceConfig, Owner, VisibilityModel};
use i2p_data::hash::Distance;
use i2p_data::{FxHashMap, FxHashSet, Hash256, SimTime};
use i2p_faults::FaultPlane;
use i2p_netdb::kbucket::KBucketTable;
use i2p_netdb::lookup::IterativeLookup;
use i2p_netdb::store::REPLICATION;
use i2p_netdb::RoutingKey;
use i2p_sim::world::World;
use std::borrow::Cow;
use std::ops::Range;

/// Parameters of one Sybil sweep.
#[derive(Clone, Debug)]
pub struct SybilConfig {
    /// Attacked days (usually the harvest window).
    pub days: Range<u64>,
    /// The Sybil-count grid (the sweep's x-axis).
    pub counts: Vec<usize>,
    /// Placement replication factor (the paper's rule is
    /// [`REPLICATION`] = 3).
    pub replication: usize,
    /// Grinding budget per Sybil slot: `count` Sybils are selected from
    /// `count × grind_per_sybil` candidate identities per day.
    pub grind_per_sybil: u64,
    /// Attacker RNG seed (candidate identity stream).
    pub attacker_seed: u64,
    /// Lookup query budget per walk — walks that exceed it count as
    /// timed out (failed).
    pub max_queries: usize,
    /// Sweep threads (0 = one per core; results are identical for every
    /// thread count).
    pub threads: usize,
}

impl SybilConfig {
    /// The paper-shaped default grid over `days`.
    pub fn paper(days: Range<u64>) -> Self {
        SybilConfig {
            days,
            counts: vec![0, 1, 2, 4, 8, 16, 32],
            replication: REPLICATION,
            grind_per_sybil: 48,
            attacker_seed: 0x5B11_5EED,
            max_queries: 48,
            threads: 0,
        }
    }

    /// Panics on grids that could not produce a meaningful sweep.
    pub fn validate(&self) {
        assert!(!self.counts.is_empty(), "SybilConfig: empty Sybil-count grid");
        assert!(self.replication >= 1, "SybilConfig: replication must be at least 1");
        assert!(self.grind_per_sybil >= 1, "SybilConfig: grind_per_sybil must be at least 1");
        assert!(self.max_queries >= 1, "SybilConfig: max_queries must be at least 1");
        assert!(!self.days.is_empty(), "SybilConfig: empty day range");
    }
}

/// One point of the sweep: everything measured at one Sybil count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SybilPoint {
    /// Sybil identities fielded per day.
    pub sybils: usize,
    /// Candidate identities the attacker ground per day to field them.
    pub ground_per_day: u64,
    /// Days on which the target's LeaseSet was fully eclipsed.
    pub eclipsed_days: usize,
    /// Days on which the client's lookup for the target failed
    /// (exhausted or timed out).
    pub failed_lookups: usize,
    /// Mean floodfills queried per lookup walk.
    pub mean_queries: f64,
    /// Mean fleet-union census coverage (seen / online) over the days.
    pub coverage: f64,
    /// Days on which the fleet's census contained the target at all.
    pub target_seen_days: usize,
    /// Days measured.
    pub days: usize,
}

impl SybilPoint {
    /// Fraction of days the target was eclipsed.
    pub fn eclipse_prob(&self) -> f64 {
        self.eclipsed_days as f64 / self.days.max(1) as f64
    }

    /// Fraction of lookup walks that failed.
    pub fn lookup_failure_rate(&self) -> f64 {
        self.failed_lookups as f64 / self.days.max(1) as f64
    }
}

/// A full sweep result.
#[derive(Clone, Debug)]
pub struct SybilSweep {
    /// World-peer id of the attacked target.
    pub target_id: u32,
    /// Mean online floodfill population over the attacked days (the
    /// honest competition the attacker grinds against).
    pub mean_floodfills: f64,
    /// Census coverage of the keyspace-routed harvest with no adversary
    /// (the loss baseline).
    pub baseline_coverage: f64,
    /// One point per configured Sybil count, in grid order.
    pub points: Vec<SybilPoint>,
}

/// Picks the attack target: the lowest-id peer online on every day of
/// the window (deterministic), falling back to the peer online the most
/// days. A target that churns away mid-study would conflate absence
/// with eclipse.
pub fn pick_target(world: &World, days: Range<u64>) -> u32 {
    let mut best = (0usize, u32::MAX);
    for p in world.ever_online() {
        let online = days.clone().filter(|&d| p.online(d as i64)).count();
        if online == days.clone().count() {
            return p.id;
        }
        if online > best.0 {
            best = (online, p.id);
        }
    }
    assert!(best.1 != u32::MAX, "pick_target: nobody is ever online in {days:?}");
    best.1
}

/// The attacker's `nonce`-th candidate identity for `day`. Keyed by day
/// so the stream models re-grinding at every rotation boundary.
fn sybil_identity(attacker_seed: u64, day: u64, nonce: u64) -> Hash256 {
    let mut material = [0u8; 26];
    material[..2].copy_from_slice(b"sy");
    material[2..10].copy_from_slice(&attacker_seed.to_be_bytes());
    material[10..18].copy_from_slice(&day.to_be_bytes());
    material[18..26].copy_from_slice(&nonce.to_be_bytes());
    Hash256::digest(&material)
}

/// Grinds the day's Sybil fleet: from `count × grind_per_sybil`
/// deterministic candidates, the `count` whose daily routing keys land
/// closest to `target`'s. Ascending by distance.
pub fn grind_sybils(
    target: &Hash256,
    day: u64,
    count: usize,
    grind_per_sybil: u64,
    attacker_seed: u64,
) -> Vec<Hash256> {
    if count == 0 {
        return Vec::new();
    }
    let tkey = RoutingKey::for_day(target, day);
    let budget = count as u64 * grind_per_sybil;
    // Same top-k selection as `keyspace::closest_k`, over the candidate
    // stream instead of a materialized population.
    let mut best: Vec<(Distance, Hash256)> = Vec::with_capacity(count + 1);
    for nonce in 0..budget {
        let cand = sybil_identity(attacker_seed, day, nonce);
        let d = RoutingKey::for_day(&cand, day).distance(&tkey);
        if best.len() < count || d < best.last().expect("non-empty at capacity").0 { // i2plint: allow(panic-audit) -- last() runs only when best is at capacity count >= 1
            let at = best.partition_point(|(b, _)| *b < d);
            best.insert(at, (d, cand));
            if best.len() > count {
                best.pop();
            }
        }
    }
    best.into_iter().map(|(_, h)| h).collect()
}

/// Outcome of one simulated lookup walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct LookupOutcome {
    /// Whether the record was retrieved from an honest holder.
    pub found: bool,
    /// Floodfills queried before the walk ended.
    pub queries: usize,
}

/// Walks one iterative lookup for the record at `key` against the day's
/// placement population.
///
/// The client's partial DHT view is a [`KBucketTable`] centred on its
/// own identity and offered every population member — bucket caps drop
/// the surplus, exactly like a real router's netDb view. Its initial
/// candidate set is the table's closest entries to the day's routing
/// key. Responders:
///
/// * an honest floodfill among the `replication` closest to the key
///   holds the record → found;
/// * any other honest floodfill answers with the `2 × replication`
///   genuinely closest positions (Sybils included — they are in the
///   DHT);
/// * a Sybil answers with nothing but other Sybils and never the
///   record (lookup poisoning).
///
/// The walk ends on found, exhaustion, or the `max_queries` budget.
fn lookup_target(
    pop: &[keyspace::FloodfillPos],
    key: &Hash256,
    day: u64,
    client_identity: &Hash256,
    replication: usize,
    max_queries: usize,
) -> LookupOutcome {
    let rkey = RoutingKey::for_day(key, day);
    let top = keyspace::closest_k(pop, &rkey, replication);
    let holders: FxHashSet<Hash256> = top
        .iter()
        .filter(|&&(_, i)| pop[i].owner != Owner::Sybil)
        .map(|&(_, i)| pop[i].hash)
        .collect();
    let sybils: FxHashSet<Hash256> =
        pop.iter().filter(|f| f.owner == Owner::Sybil).map(|f| f.hash).collect();
    // Honest responders all hand back the same closest set; compute it
    // once. Sybil responders hand back (a capped slice of) the Sybil
    // fleet.
    let honest_reply: Vec<Hash256> = keyspace::closest_k(pop, &rkey, replication * 2)
        .into_iter()
        .map(|(_, i)| pop[i].hash)
        .collect();
    let sybil_reply: Vec<Hash256> =
        sybils.iter().copied().take(replication * 2).collect();

    let mut view = KBucketTable::new(*client_identity);
    for f in pop {
        view.insert(f.hash);
    }
    let initial = view.closest(&rkey.0, replication * 2);
    let mut walk = IterativeLookup::new(*key, initial, SimTime::from_day_ms(day, 0));
    'walk: while walk.queried_count() < max_queries {
        let queries = walk.next_queries();
        if queries.is_empty() {
            break;
        }
        for q in queries {
            if holders.contains(&q) {
                walk.on_found();
                break 'walk;
            }
            if sybils.contains(&q) {
                walk.on_closer(&sybil_reply);
            } else {
                walk.on_closer(&honest_reply);
            }
        }
    }
    LookupOutcome { found: walk.is_found(), queries: walk.queried_count() }
}

/// The day's online peer ids: the world index inside the study window,
/// an owned scan past it (mirrors the engine's own fallback).
fn day_ids(world: &World, day: u64) -> Cow<'_, [u32]> {
    match world.online_ids(day) {
        Some(ids) => Cow::Borrowed(ids),
        None => Cow::Owned(world.online_peers(day).map(|p| p.id).collect()),
    }
}

/// Mean fleet-union coverage (seen / online) of `engine` over its days.
fn mean_coverage(engine: &HarvestEngine<'_>, world: &World) -> f64 {
    let days = engine.days();
    let n = days.clone().count().max(1) as f64;
    days.map(|d| engine.count_union(d) as f64 / world.online_count(d).max(1) as f64)
        .sum::<f64>()
        / n
}

/// The attacked placement: the paper's rule plus the fully ground
/// Sybil fleet for every day — the one definition both the sweep and
/// the `--capture` engine build from.
fn attack_config(world: &World, cfg: &SybilConfig, target_id: u32, count: usize) -> KeyspaceConfig {
    let target = world.peers[target_id as usize].hash;
    let mut sybils: FxHashMap<u64, Vec<Hash256>> = FxHashMap::default();
    for day in cfg.days.clone() {
        sybils.insert(
            day,
            grind_sybils(&target, day, count, cfg.grind_per_sybil, cfg.attacker_seed),
        );
    }
    KeyspaceConfig { replication: cfg.replication, sybils }
}

/// Runs one point of the sweep: grind per day, rebuild the
/// keyspace-routed harvest under attack, measure placement eclipse,
/// lookup failure, and census damage.
fn run_point(world: &World, fleet: &Fleet, cfg: &SybilConfig, target_id: u32, count: usize) -> SybilPoint {
    let target = world.peers[target_id as usize].hash;
    let ks = attack_config(world, cfg, target_id, count);
    let engine = HarvestEngine::build_faulted(
        world,
        fleet,
        cfg.days.clone(),
        &VisibilityModel::Keyspace(ks.clone()),
        &FaultPlane::zero(),
    );
    let coverage = mean_coverage(&engine, world);

    let mut eclipsed_days = 0usize;
    let mut failed_lookups = 0usize;
    let mut total_queries = 0usize;
    let mut target_seen_days = 0usize;
    let n_days = cfg.days.clone().count();
    for day in cfg.days.clone() {
        let ids = day_ids(world, day);
        let pop = keyspace::day_population(world, &fleet.vantages, &ids, day, &ks);
        let rkey = RoutingKey::for_day(&target, day);
        if keyspace::eclipsed(&pop, &rkey, cfg.replication) {
            eclipsed_days += 1;
        }
        let client = Hash256::digest(&day.to_le_bytes());
        let outcome =
            lookup_target(&pop, &target, day, &client, cfg.replication, cfg.max_queries);
        if !outcome.found {
            failed_lookups += 1;
        }
        total_queries += outcome.queries;
        if engine
            .union_prefix_ids(day, fleet.vantages.len())
            .binary_search(&target_id)
            .is_ok()
        {
            target_seen_days += 1;
        }
    }
    SybilPoint {
        sybils: count,
        ground_per_day: count as u64 * cfg.grind_per_sybil,
        eclipsed_days,
        failed_lookups,
        mean_queries: total_queries as f64 / n_days.max(1) as f64,
        coverage,
        target_seen_days,
        days: n_days,
    }
}

/// Runs the full sweep over the configured Sybil-count grid through the
/// scenario lab (one scenario per count, thread-count independent).
pub fn run(world: &World, fleet: &Fleet, cfg: &SybilConfig) -> SybilSweep {
    cfg.validate();
    let target_id = pick_target(world, cfg.days.clone());
    let n_days = cfg.days.clone().count().max(1) as f64;
    let mean_floodfills = cfg
        .days
        .clone()
        .map(|d| world.online_floodfill_count(d) as f64)
        .sum::<f64>()
        / n_days;
    let points = crate::lab::sweep(
        &(world, fleet),
        &cfg.counts,
        cfg.threads,
        |&(world, fleet), &count, _| run_point(world, fleet, cfg, target_id, count),
    );
    // A count-0 point *is* the no-adversary baseline (its engine is
    // bit-identical to one built with an empty Sybil map); only build a
    // dedicated baseline engine for grids that skip zero.
    let baseline_coverage = match points.iter().find(|p| p.sybils == 0) {
        Some(p) => p.coverage,
        None => mean_coverage(
            &HarvestEngine::build_faulted(
                world,
                fleet,
                cfg.days.clone(),
                &VisibilityModel::Keyspace(KeyspaceConfig {
                    replication: cfg.replication,
                    sybils: FxHashMap::default(),
                }),
                &FaultPlane::zero(),
            ),
            world,
        ),
    };
    SybilSweep { target_id, mean_floodfills, baseline_coverage, points }
}

/// The attacked harvest engine at one Sybil count — what `i2pscope
/// sybil --capture` archives into an `.i2ps` snapshot, so an attacked
/// census can be replayed and diffed against a clean one.
pub fn attacked_engine<'w>(
    world: &'w World,
    fleet: &Fleet,
    cfg: &SybilConfig,
    target_id: u32,
    count: usize,
) -> HarvestEngine<'w> {
    let ks = attack_config(world, cfg, target_id, count);
    HarvestEngine::build_faulted(
        world,
        fleet,
        cfg.days.clone(),
        &VisibilityModel::Keyspace(ks),
        &FaultPlane::zero(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::Fleet;
    use i2p_sim::world::WorldConfig;

    fn small_world() -> World {
        World::generate(WorldConfig { days: 5, scale: 0.02, seed: 41 })
    }

    fn small_cfg() -> SybilConfig {
        SybilConfig { threads: 1, counts: vec![0, 2, 8, 24], ..SybilConfig::paper(1..4) }
    }

    #[test]
    fn grinding_is_deterministic_and_sorted() {
        let t = Hash256::digest(b"target");
        let a = grind_sybils(&t, 3, 5, 16, 99);
        let b = grind_sybils(&t, 3, 5, 16, 99);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        let tkey = RoutingKey::for_day(&t, 3);
        let dist = |h: &Hash256| RoutingKey::for_day(h, 3).distance(&tkey);
        assert!(a.windows(2).all(|w| dist(&w[0]) < dist(&w[1])), "ascending by distance");
        // Re-grinding on another day produces different identities.
        assert_ne!(a, grind_sybils(&t, 4, 5, 16, 99));
    }

    #[test]
    fn longer_grind_prefix_only_improves_the_top() {
        // The monotonicity backbone: the replication-th best candidate
        // of a longer prefix of the same stream is never farther.
        let t = Hash256::digest(b"t2");
        let tkey = RoutingKey::for_day(&t, 2);
        let dist = |h: &Hash256| RoutingKey::for_day(h, 2).distance(&tkey);
        let mut prev = None;
        for count in [3usize, 6, 12, 24] {
            let set = grind_sybils(&t, 2, count, 8, 7);
            let third = dist(&set[2]);
            if let Some(p) = prev {
                assert!(third <= p, "count {count} must not regress the top-3");
            }
            prev = Some(third);
        }
    }

    #[test]
    fn sweep_eclipse_is_monotone_and_reaches_high_counts() {
        let w = small_world();
        let fleet = Fleet::alternating(4);
        let sweep = run(&w, &fleet, &small_cfg());
        assert_eq!(sweep.points.len(), 4);
        // No adversary, no eclipse.
        assert_eq!(sweep.points[0].eclipsed_days, 0);
        assert_eq!(sweep.points[0].sybils, 0);
        // Eclipse probability is monotone in Sybil count.
        for pair in sweep.points.windows(2) {
            assert!(
                pair[1].eclipsed_days >= pair[0].eclipsed_days,
                "eclipse must be monotone: {pair:?}"
            );
        }
        // At 24 Sybils ground 48-deep against ~20 floodfills, the
        // target must actually be eclipsed.
        let last = sweep.points.last().unwrap();
        assert!(last.eclipsed_days > 0, "max count must eclipse at this scale: {last:?}");
        // Census coverage under attack never exceeds the no-adversary
        // baseline.
        for p in &sweep.points {
            assert!(p.coverage <= sweep.baseline_coverage + 1e-12, "{p:?}");
        }
    }

    #[test]
    fn eclipsed_days_imply_failed_lookups() {
        let w = small_world();
        let fleet = Fleet::alternating(4);
        let sweep = run(&w, &fleet, &small_cfg());
        for p in &sweep.points {
            // An eclipsed day has no honest holder, so its lookup can
            // never succeed.
            assert!(
                p.failed_lookups >= p.eclipsed_days,
                "eclipse without lookup failure: {p:?}"
            );
            assert!(p.days == 3);
        }
        // With no Sybils the client's walk should essentially always
        // retrieve the record.
        assert_eq!(sweep.points[0].failed_lookups, 0, "{:?}", sweep.points[0]);
    }

    #[test]
    fn sweep_is_thread_count_independent() {
        let w = small_world();
        let fleet = Fleet::alternating(2);
        let mut cfg = small_cfg();
        cfg.counts = vec![0, 8];
        let one = run(&w, &fleet, &cfg);
        cfg.threads = 4;
        let four = run(&w, &fleet, &cfg);
        assert_eq!(one.points, four.points);
        assert_eq!(one.target_id, four.target_id);
    }

    #[test]
    fn target_is_online_all_days() {
        let w = small_world();
        let t = pick_target(&w, 0..5);
        let p = &w.peers[t as usize];
        assert!((0..5).all(|d| p.online(d)));
    }

    #[test]
    #[should_panic(expected = "empty Sybil-count grid")]
    fn empty_grid_rejected() {
        let w = small_world();
        let mut cfg = small_cfg();
        cfg.counts.clear();
        run(&w, &Fleet::alternating(2), &cfg);
    }
}
