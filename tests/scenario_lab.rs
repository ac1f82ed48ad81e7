//! Scenario-lab determinism suite (DESIGN.md §6).
//!
//! The lab's whole value proposition is that forking a warmed substrate
//! is *free of measurement drift*: (a) a single-threaded forked sweep is
//! bit-identical to rebuilding the experiment for each rate (a fresh
//! `warm_substrate` per rate, which bootstraps, reseeds and settles a
//! whole network, then that rate's replicate 0 on it), and (b) sweep
//! results are identical at 1 vs N threads. Any
//! divergence means the lab changed the experiment, not just its cost —
//! the same contract `crates/measure/tests/parity.rs` pins for the
//! harvest engine. (The fetch loop itself gained two intentional
//! semantic changes in the same PR — per-fetch tunnel rotation and
//! fail-fast build resolution — shared by the oracle and the forked
//! path alike, so this suite pins fork ≡ rebuild, not equivalence to
//! earlier releases' raw numbers.)

use i2pscope::measure::adversary::{registry, run_chain, AdversaryLab, ChainKnobs};
use i2pscope::measure::usability::{evaluate, run_scenario, warm_substrate, UsabilityConfig};
use i2pscope::measure::Fleet;
use i2pscope::sim::world::{World, WorldConfig};
use i2pscope::transport::CensorMode;
use std::sync::Arc;

fn small_cfg() -> UsabilityConfig {
    UsabilityConfig {
        relays: 28,
        floodfills: 6,
        fetches_per_rate: 3,
        blocking_rates: vec![0.0, 0.75],
        threads: 1,
        ..Default::default()
    }
}

#[test]
fn forked_sweep_is_bit_identical_to_rebuild_path() {
    let cfg = small_cfg();
    let forked = evaluate(&cfg);
    assert_eq!(forked.len(), cfg.blocking_rates.len());
    for (point, &rate) in forked.iter().zip(&cfg.blocking_rates) {
        let oracle = run_scenario(&warm_substrate(&cfg), &cfg, rate, 0);
        // Exact f64 equality: the fork must replay the rebuild path
        // bit for bit, not merely approximate it.
        assert_eq!(point.fetches, oracle.fetches, "rate {rate}");
        assert_eq!(point.avg_load_time_s, oracle.avg_load_time_s, "rate {rate}");
        assert_eq!(point.timeout_pct, oracle.timeout_pct, "rate {rate}");
        assert_eq!(point.load_ci95_s, oracle.load_ci95_s, "rate {rate}");
    }
}

#[test]
fn sweep_results_identical_across_thread_counts() {
    let mut cfg = small_cfg();
    cfg.replicates = 2;
    cfg.threads = 1;
    let serial = evaluate(&cfg);
    for threads in [2, 5] {
        cfg.threads = threads;
        let parallel = evaluate(&cfg);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.fetches, b.fetches, "threads {threads}");
            assert_eq!(a.avg_load_time_s, b.avg_load_time_s, "threads {threads}");
            assert_eq!(a.timeout_pct, b.timeout_pct, "threads {threads}");
        }
    }
}

#[test]
fn replicates_are_independent_but_reproducible() {
    let cfg = small_cfg();
    let sub = warm_substrate(&cfg);
    let rep0 = run_scenario(&sub, &cfg, 0.75, 0);
    let rep1 = run_scenario(&sub, &cfg, 0.75, 1);
    let rep1_again = run_scenario(&sub, &cfg, 0.75, 1);
    // Same fork label ⇒ same run, bit for bit.
    assert_eq!(rep1.fetches, rep1_again.fetches);
    // Different labels ⇒ an independent censor sample / fetch stream.
    assert_ne!(
        rep0.fetches, rep1.fetches,
        "replicate 1 must diverge from replicate 0 at a partial blocking rate"
    );
}

#[test]
fn forks_share_signed_records_and_leave_the_parent_untouched() {
    let cfg = small_cfg();
    let sub = warm_substrate(&cfg);
    let parent = &sub.net;
    // A fork points at the parent's signed records instead of copying
    // them.
    let fork = parent.fork(1);
    let relay = parent.router(0).hash();
    let ours = parent.router(sub.victim).store.router_info(&relay);
    let theirs = fork.router(sub.victim).store.router_info(&relay);
    match (ours, theirs) {
        (Some(ours), Some(theirs)) => assert!(Arc::ptr_eq(ours, theirs)),
        other => panic!("the warm victim knows relay 0 in parent and fork: {other:?}"),
    }
    drop(fork);
    // Running a scenario on a fork changes nothing the parent stores.
    let stored = |net: &i2pscope::router::TestNet| -> Vec<(usize, usize)> {
        (0..net.len())
            .map(|i| (net.router(i).store.router_count(), net.router(i).store.leaseset_count()))
            .collect()
    };
    let counts = stored(parent);
    let lease_set = parent.router(sub.victim).store.lease_set(&sub.dest).cloned();
    run_scenario(&sub, &cfg, 0.97, 1);
    assert_eq!(stored(parent), counts);
    assert_eq!(parent.router(sub.victim).store.lease_set(&sub.dest), lease_set.as_ref());
}

#[test]
fn active_reset_censor_changes_the_latency_curve() {
    let mut cfg = small_cfg();
    cfg.blocking_rates = vec![0.75];
    let sub = warm_substrate(&cfg);
    let silent = run_scenario(&sub, &cfg, 0.75, 0);
    cfg.censor_mode = CensorMode::ActiveReset;
    let reset = run_scenario(&sub, &cfg, 0.75, 0);
    // A null-routed build burns the 10 s attempt timeout in silence; an
    // RST fails it in one chokepoint round trip, so under the same
    // blocked set the victim recovers sooner: no worse timeout share and
    // strictly faster successful page loads.
    assert!(
        reset.timeout_pct <= silent.timeout_pct,
        "fail-fast cannot time out more: reset {}% vs silent {}%",
        reset.timeout_pct,
        silent.timeout_pct
    );
    assert!(
        reset.avg_load_time_s < silent.avg_load_time_s,
        "RST must beat silent drops on load time: reset {:.2}s vs silent {:.2}s",
        reset.avg_load_time_s,
        silent.avg_load_time_s
    );
}

#[test]
fn zero_blocking_is_identical_under_both_censor_modes() {
    let mut cfg = small_cfg();
    cfg.blocking_rates = vec![0.0];
    let sub = warm_substrate(&cfg);
    let silent = run_scenario(&sub, &cfg, 0.0, 0);
    cfg.censor_mode = CensorMode::ActiveReset;
    let reset = run_scenario(&sub, &cfg, 0.0, 0);
    // With an empty blocked set the chokepoint never acts; the censor
    // mode must be unobservable.
    assert_eq!(silent.fetches, reset.fetches);
}

#[test]
fn composed_chain_day_loop_is_deterministic() {
    // The adversary chains run through the same lab::sweep machinery;
    // their day-loop core must replay bit for bit on a rerun.
    let world = World::generate(WorldConfig { days: 6, scale: 0.02, seed: 23 });
    let fleet = Fleet::alternating(4);
    let lab = AdversaryLab::new(&world, &fleet, 0..6, 1);
    let members = vec![
        registry::leaf("sybil").expect("leaf"),
        registry::leaf("censor").expect("leaf"),
    ];
    let knobs = ChainKnobs { sybil_count: 4, ..Default::default() };
    let first = run_chain(&lab, &members, &knobs);
    let second = run_chain(&lab, &members, &knobs);
    assert_eq!(first, second, "chain rerun diverged");
    assert!(
        first.iter().any(|(label, _)| label == "blocking%"),
        "chain rows end with the shared blocking metric: {first:?}"
    );
}

#[test]
#[should_panic(expected = "window_days must be at least 1 day")]
fn zero_day_chain_window_is_rejected() {
    let world = World::generate(WorldConfig { days: 6, scale: 0.02, seed: 23 });
    let fleet = Fleet::alternating(4);
    let lab = AdversaryLab::new(&world, &fleet, 0..6, 1);
    let members = vec![registry::leaf("censor").expect("leaf")];
    run_chain(&lab, &members, &ChainKnobs { window_days: 0, ..Default::default() });
}

#[test]
#[should_panic(expected = "fetches_per_rate")]
fn zero_fetches_config_is_rejected() {
    let cfg = UsabilityConfig { fetches_per_rate: 0, ..Default::default() };
    evaluate(&cfg);
}

#[test]
#[should_panic(expected = "outside [0, 1]")]
fn percentage_style_rates_are_rejected() {
    let cfg = UsabilityConfig { blocking_rates: vec![65.0], ..Default::default() };
    evaluate(&cfg);
}

#[test]
#[should_panic(expected = "floodfills")]
fn more_floodfills_than_relays_is_rejected() {
    let cfg = UsabilityConfig { relays: 4, floodfills: 12, ..Default::default() };
    evaluate(&cfg);
}
