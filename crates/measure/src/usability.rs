//! Network usability under blocking: Fig. 14 (§6.2.3).
//!
//! Reproduces the paper's eepsite experiment on the protocol-level
//! `TestNet`: a victim client fetches a small eepsite repeatedly while
//! its upstream null-routes a growing share of peer IPs. Page-load time
//! and HTTP-504 timeout rates emerge from real tunnel-build retries,
//! LeaseSet lookups and garlic round trips — nothing here is a formula.
//!
//! ## The scenario lab (DESIGN.md §6)
//!
//! The warm-up — bootstrap, publication, a 30 s settle — is identical
//! for every blocking rate, so [`evaluate`] builds it **once** as a
//! [`WarmSubstrate`] and forks the network per `(rate, replicate)`
//! scenario via the [`crate::lab`] sweep driver. Replicate 0 of each
//! rate continues the parent RNG stream unchanged, so it is
//! bit-identical to warming a fresh substrate for that rate alone
//! (`tests/scenario_lab.rs` pins this); replicates ≥ 1 re-split the RNG
//! per [`i2p_router::TestNet::fork`] and feed the confidence intervals
//! on each point.

use crate::lab;
use i2p_data::{Duration, Hash256, PeerIp};
use i2p_faults::FaultPlane;
use i2p_router::config::{FloodfillMode, Reachability, RouterConfig};
use i2p_router::net::AppEvent;
use i2p_router::router::Eepsite;
use i2p_router::{NetMsg, TestNet};
use i2p_transport::{BlockList, CensorMode};
use i2p_tunnel::pool::TunnelDirection;
use std::sync::Arc;

/// Experiment configuration.
#[derive(Clone, Debug)]
pub struct UsabilityConfig {
    /// Relay routers in the reachable network.
    pub relays: usize,
    /// How many of them run floodfill.
    pub floodfills: usize,
    /// Fetches per blocking rate ("we then crawl these eepsites 10
    /// times for each blocking rate", §6.2.3).
    pub fetches_per_rate: usize,
    /// Blocking rates to evaluate (fraction, e.g. 0.65).
    pub blocking_rates: Vec<f64>,
    /// Independent replicates per rate (each on a re-split RNG fork of
    /// the same warmed substrate); replicate 0 reproduces the rebuild
    /// path exactly, further replicates widen the sample behind the
    /// confidence intervals.
    pub replicates: usize,
    /// Sweep threads (0 = one per core). Results are identical for
    /// every thread count.
    pub threads: usize,
    /// How the censor disposes of blocked traffic (silent null route
    /// vs. fail-fast active reset).
    pub censor_mode: CensorMode,
    /// HTTP timeout after which a fetch counts as a 504 (§6.2.3).
    pub request_timeout: Duration,
    /// Tunnel-build / lookup attempt timeout.
    pub attempt_timeout: Duration,
    /// Master seed.
    pub seed: u64,
    /// Fault plane: message loss/delay/duplication on the fabric, plus
    /// per-fetch vantage flakes (retried with backoff). Zero by default.
    pub faults: FaultPlane,
}

impl Default for UsabilityConfig {
    fn default() -> Self {
        UsabilityConfig {
            relays: 64,
            floodfills: 12,
            fetches_per_rate: 10,
            blocking_rates: vec![
                0.0, 0.65, 0.67, 0.69, 0.71, 0.73, 0.75, 0.77, 0.79, 0.81, 0.83, 0.85, 0.87,
                0.89, 0.91, 0.93, 0.95, 0.97,
            ],
            replicates: 1,
            threads: 0,
            censor_mode: CensorMode::NullRoute,
            request_timeout: Duration::from_secs(60),
            attempt_timeout: Duration::from_secs(10),
            seed: 0xF1614,
            faults: FaultPlane::zero(),
        }
    }
}

impl UsabilityConfig {
    /// Validates the configuration, panicking with a pointed message on
    /// nonsense that would otherwise surface as silent `NaN`s (zero
    /// fetches) or a stuck experiment (no floodfills to publish to,
    /// blocking rates outside `[0, 1]`).
    pub fn validate(&self) {
        assert!(
            self.fetches_per_rate > 0,
            "UsabilityConfig::fetches_per_rate must be > 0 \
             (0 fetches would make every timeout percentage 0/0 = NaN)"
        );
        assert!(
            self.relays >= self.floodfills,
            "UsabilityConfig: floodfills ({}) exceed relays ({}) — floodfills \
             are carved out of the relay population",
            self.floodfills,
            self.relays
        );
        assert!(self.floodfills > 0, "UsabilityConfig: at least one floodfill is required");
        assert!(self.replicates > 0, "UsabilityConfig::replicates must be > 0");
        for &r in &self.blocking_rates {
            assert!(
                (0.0..=1.0).contains(&r) && r.is_finite(),
                "UsabilityConfig: blocking rate {r} is outside [0, 1] \
                 (rates are fractions, not percentages)"
            );
        }
    }
}

/// One measured point of Fig. 14.
#[derive(Clone, Debug)]
pub struct UsabilityPoint {
    /// Blocking rate in percent.
    pub blocking_rate_pct: f64,
    /// Mean page-load time (seconds) over *completed* fetches; equals
    /// the timeout when nothing completed.
    pub avg_load_time_s: f64,
    /// Share of fetches that returned HTTP 504 (timed out).
    pub timeout_pct: f64,
    /// Half-width of the 95 % confidence interval on the mean load
    /// time (1.96·SE over completed fetches; 0 with < 2 completions).
    pub load_ci95_s: f64,
    /// Half-width of the 95 % normal-approximation confidence interval
    /// on the timeout share, in percentage points.
    pub timeout_ci95_pct: f64,
    /// Replicates pooled into this point.
    pub replicates: usize,
    /// Raw per-fetch outcomes (seconds, None = 504), replicate-major.
    pub fetches: Vec<Option<f64>>,
}

/// A bootstrapped, published, settled `TestNet` plus the experiment's
/// cast — everything of the experiment that does not depend on the
/// blocking rate, built once and forked per scenario.
#[derive(Clone)]
pub struct WarmSubstrate {
    /// The warmed network.
    pub net: TestNet,
    /// Router index hosting the eepsite.
    pub server: usize,
    /// Router index of the censored victim client.
    pub victim: usize,
    /// The eepsite destination hash.
    pub dest: Hash256,
    /// Relay count (the blockable population).
    pub relays: usize,
}

/// Runs the full Fig. 14 sweep on one shared substrate: warm-up happens
/// once, then every `(rate, replicate)` scenario runs on a fork. Every
/// fork starts from the identical warmed state, so the blocked IP sets
/// are *nested* as the rate grows — the x-axis varies only the blocking
/// rate, exactly like the paper's progressive null-route configuration
/// (§6.2.3).
pub fn evaluate(cfg: &UsabilityConfig) -> Vec<UsabilityPoint> {
    cfg.validate();
    let sub = warm_substrate(cfg);
    evaluate_on(&sub, cfg)
}

/// [`evaluate`] against an existing warm substrate.
pub fn evaluate_on(sub: &WarmSubstrate, cfg: &UsabilityConfig) -> Vec<UsabilityPoint> {
    cfg.validate();
    let grid: Vec<(f64, usize)> = cfg
        .blocking_rates
        .iter()
        .flat_map(|&rate| (0..cfg.replicates).map(move |rep| (rate, rep)))
        .collect();
    let runs = lab::sweep(sub, &grid, cfg.threads, |sub, &(rate, rep), _| {
        run_scenario(sub, cfg, rate, rep)
    });
    runs.chunks(cfg.replicates)
        .map(|reps| {
            let rate_pct = reps[0].blocking_rate_pct; // i2plint: allow(index-literal) -- chunks() never yields an empty chunk
            let pooled: Vec<Option<f64>> =
                reps.iter().flat_map(|p| p.fetches.iter().copied()).collect();
            point_from_fetches(rate_pct, cfg, pooled, cfg.replicates)
        })
        .collect()
}

/// Builds the rate-independent substrate: relays + server + victim,
/// bootstrapped, published, settled for 30 s, with the victim primed as
/// a long-term client.
pub fn warm_substrate(cfg: &UsabilityConfig) -> WarmSubstrate {
    let _span = i2p_telemetry::span("measure.lab_warm");
    cfg.validate();
    let mut net = TestNet::new(cfg.seed);
    // The fault plane sits on the fabric from the start: ambient loss,
    // delay and duplication affect warm-up and fetches alike, and the
    // per-message keys come from the fabric's own send counter, so the
    // whole run replays identically.
    net.fabric.set_faults(cfg.faults);
    // Relay substrate.
    for i in 0..cfg.relays {
        net.add_router(RouterConfig {
            shared_kbps: if i % 3 == 0 { 2048 } else { 512 },
            floodfill: if i < cfg.floodfills { FloodfillMode::Manual } else { FloodfillMode::Disabled },
            reachability: Reachability::Public,
            country: 0,
            max_participating_tunnels: 5_000,
            version: "0.9.34",
        });
    }
    let server = net.add_router(RouterConfig::default_client(0));
    let victim = net.add_router(RouterConfig::default_client(0));
    net.router_mut(server).eepsite =
        Some(Eepsite { body: b"<html><body>test eepsite</body></html>".to_vec() });

    // Bootstrap + publish everyone.
    net.refresh_reseeds();
    for i in 0..net.len() {
        net.bootstrap(i);
    }
    for i in 0..net.len() {
        let now = net.now();
        let out = net.router_mut(i).publish_self(now);
        net.dispatch(i, out);
    }
    net.run_for(Duration::from_secs(30));

    // The victim is a long-term client: it already knows the whole
    // relay population (§6.2.2's "many RouterInfos in its netDb").
    for i in 0..cfg.relays {
        let ri = net.router(i).make_router_info(net.now());
        let now = net.now();
        net.router_mut(victim).learn_router(Arc::new(ri), now);
    }

    let dest = net.router(server).hash();
    WarmSubstrate { net, server, victim, dest, relays: cfg.relays }
}

/// One `(rate, replicate)` scenario on a fork of the warm substrate.
/// Replicate 0 continues the substrate's own RNG stream (bit-identical
/// to rebuilding from scratch); higher replicates re-split it.
pub fn run_scenario(
    sub: &WarmSubstrate,
    cfg: &UsabilityConfig,
    rate: f64,
    replicate: usize,
) -> UsabilityPoint {
    run_rate_on_net(fork_net(sub, replicate), sub, cfg, rate)
}

/// The scenario's copy of the warm network: replicate 0 is a plain
/// clone (the substrate's own RNG stream), higher replicates re-split
/// the RNG. Timed under the `measure.scenario_fork` tally.
fn fork_net(sub: &WarmSubstrate, replicate: usize) -> TestNet {
    let _tally = i2p_telemetry::tally("measure.scenario_fork");
    if replicate == 0 {
        sub.net.clone()
    } else {
        sub.net.fork(replicate as u64)
    }
}

/// Drops a finished scenario's network under the
/// `measure.scenario_drop` tally.
fn drop_net(net: TestNet) {
    let _tally = i2p_telemetry::tally("measure.scenario_drop");
    drop(net);
}

/// The rate-dependent tail of the experiment: censor installation,
/// server maintenance, and the fetch loop.
fn run_rate_on_net(
    mut net: TestNet,
    sub: &WarmSubstrate,
    cfg: &UsabilityConfig,
    rate: f64,
) -> UsabilityPoint {
    // Install the censor: a random `rate` share of relay IPs, scoped to
    // the victim's uplink (null routing or active reset, §6.2.3).
    let mut rng = net.fork_rng(0xB10C ^ cfg.seed);
    let victim_ip = net.source_ip(sub.victim);
    let mut bl = BlockList::new(3650);
    let mut relay_ips: Vec<PeerIp> = (0..sub.relays).map(|i| net.source_ip(i)).collect();
    rng.shuffle(&mut relay_ips);
    let n_block = (rate * sub.relays as f64).round() as usize;
    for ip in relay_ips.into_iter().take(n_block) {
        bl.observe(ip, 0);
    }
    net.fabric.set_blocklist(bl);
    net.fabric.set_victim(victim_ip);
    net.fabric.set_censor_mode(cfg.censor_mode);
    let fetches = censored_fetches(
        &mut net, sub.server, sub.victim, &sub.dest, cfg, &mut rng, rate.to_bits(),
    );
    drop_net(net);
    point_from_fetches(rate * 100.0, cfg, fetches, 1)
}

/// Runs the fetch phase on a fork of the substrate under an arbitrary
/// pre-built blocklist — the closed-loop path, where Fig. 13's
/// harvested, windowed blacklist replaces the synthetic random rate.
/// `blocking_rate_pct` labels the point with the share of relays the
/// list actually blocks.
pub fn run_with_blocklist(
    sub: &WarmSubstrate,
    cfg: &UsabilityConfig,
    bl: BlockList,
    blocking_rate_pct: f64,
    replicate: usize,
) -> UsabilityPoint {
    cfg.validate();
    let mut net = fork_net(sub, replicate);
    let mut rng = net.fork_rng(0xC105_ED00 ^ cfg.seed);
    let victim_ip = net.source_ip(sub.victim);
    net.fabric.set_blocklist(bl);
    net.fabric.set_victim(victim_ip);
    net.fabric.set_censor_mode(cfg.censor_mode);
    let fetches = censored_fetches(
        &mut net,
        sub.server,
        sub.victim,
        &sub.dest,
        cfg,
        &mut rng,
        blocking_rate_pct.to_bits() ^ replicate as u64,
    );
    drop_net(net);
    point_from_fetches(blocking_rate_pct, cfg, fetches, 1)
}

/// Retries per flaked fetch before it is recorded as failed.
const FETCH_RETRIES: u32 = 2;

/// Runs the fetch loop against an already-censored network and returns
/// the raw per-fetch outcomes. `flake_key` identifies the scenario in
/// the fault plane's fetch-flake lane: flaked attempts retry with
/// exponential (simulated-time) backoff, keyed purely on
/// (scenario, fetch, attempt) so replicas and thread counts cannot
/// perturb the draw.
fn censored_fetches(
    net: &mut TestNet,
    server: usize,
    victim: usize,
    dest: &Hash256,
    cfg: &UsabilityConfig,
    rng: &mut i2p_crypto::DetRng,
    flake_key: u64,
) -> Vec<Option<f64>> {
    // Server keeps healthy tunnels + a published LeaseSet (the server
    // sits outside the censored uplink).
    maintain_server(net, server, rng);

    let mut fetches = Vec::with_capacity(cfg.fetches_per_rate);
    for fetch_i in 0..cfg.fetches_per_rate {
        maintain_server(net, server, rng);
        // Each crawl is an independent page load: the paper's crawls are
        // spaced beyond I2P's 10-minute tunnel rotation, so no client
        // tunnel — and no hop choice — survives from one crawl to the
        // next, and every crawl re-samples the censored relay space.
        // Without the rotation, one lucky unblocked tunnel pair from the
        // first crawl would serve the entire run and make moderate
        // blocking rates measure exactly like the unblocked baseline.
        net.router_mut(victim).inbound.drop_all();
        net.router_mut(victim).outbound.drop_all();
        let mut attempt = 0u32;
        let t = loop {
            if cfg.faults.fetch_flake(flake_key, fetch_i as u64, attempt) {
                if attempt >= FETCH_RETRIES {
                    break None; // retry budget spent: the crawl failed
                }
                // Backoff before the retry, in simulated time only.
                net.run_for(Duration::from_secs(1 << attempt));
                attempt += 1;
                continue;
            }
            break fetch_once(net, victim, dest, cfg, rng);
        };
        fetches.push(t);
        // Think time between page loads.
        let _think = i2p_telemetry::tally("measure.think");
        let gap = net.now() + Duration::from_secs(5);
        net.run_until(gap);
    }
    fetches
}

/// Aggregates raw fetch outcomes into a [`UsabilityPoint`] with 95 %
/// confidence intervals (mean load time: 1.96·SE over completed
/// fetches; timeout share: normal-approximation binomial).
fn point_from_fetches(
    rate_pct: f64,
    cfg: &UsabilityConfig,
    fetches: Vec<Option<f64>>,
    replicates: usize,
) -> UsabilityPoint {
    let completed: Vec<f64> = fetches.iter().flatten().copied().collect();
    let n = fetches.len();
    let timeout_share = (n - completed.len()) as f64 / n as f64;
    let avg = if completed.is_empty() {
        cfg.request_timeout.as_secs_f64()
    } else {
        completed.iter().sum::<f64>() / completed.len() as f64
    };
    let load_ci95_s = if completed.len() >= 2 {
        let m = completed.len() as f64;
        let var = completed.iter().map(|x| (x - avg) * (x - avg)).sum::<f64>() / (m - 1.0);
        1.96 * (var / m).sqrt()
    } else {
        0.0
    };
    let timeout_ci95_pct =
        100.0 * 1.96 * (timeout_share * (1.0 - timeout_share) / n as f64).sqrt();
    UsabilityPoint {
        blocking_rate_pct: rate_pct,
        avg_load_time_s: avg,
        timeout_pct: 100.0 * timeout_share,
        load_ci95_s,
        timeout_ci95_pct,
        replicates,
        fetches,
    }
}

/// Keeps the server's tunnels alive and its LeaseSet published.
fn maintain_server(net: &mut TestNet, server: usize, rng: &mut i2p_crypto::DetRng) {
    let _tally = i2p_telemetry::tally("measure.maintain_server");
    let now = net.now();
    net.router_mut(server).tick(now);
    for dir in [TunnelDirection::Inbound, TunnelDirection::Outbound] {
        let pool_dry = match dir {
            TunnelDirection::Inbound => net.router(server).inbound.live_count(now) == 0,
            TunnelDirection::Outbound => net.router(server).outbound.live_count(now) == 0,
        };
        if pool_dry {
            if let Some((msgs, _)) = net.router_mut(server).start_tunnel_build(dir, 2, now, rng) {
                net.dispatch(server, msgs);
            }
        }
    }
    net.run_for(Duration::from_secs(5));
    let now = net.now();
    let out = net.router_mut(server).publish_leaseset(now);
    net.dispatch(server, out);
    net.run_for(Duration::from_secs(5));
}

/// Drives a single page fetch with tunnel repair, LeaseSet lookup and
/// the HTTP timeout. Returns the load time in seconds, or `None` on 504.
fn fetch_once(
    net: &mut TestNet,
    victim: usize,
    dest: &Hash256,
    cfg: &UsabilityConfig,
    rng: &mut i2p_crypto::DetRng,
) -> Option<f64> {
    let t0 = net.now();
    let deadline = t0 + cfg.request_timeout;

    // Phase 1: ensure live tunnels. I2P launches several build attempts
    // in parallel; each blocked hop silently eats the attempt timeout
    // (the null route gives no error signal), so parallelism is what
    // keeps the latency finite at moderate blocking rates.
    const PARALLEL_BUILDS: usize = 2;
    let build_phase = i2p_telemetry::tally("measure.fetch_build");
    loop {
        let now = net.now();
        if now >= deadline {
            return None;
        }
        net.router_mut(victim).tick(now);
        let need_out = net.router(victim).outbound.live_count(now) == 0;
        let need_in = net.router(victim).inbound.live_count(now) == 0;
        if !need_out && !need_in {
            break;
        }
        let dir = if need_out { TunnelDirection::Outbound } else { TunnelDirection::Inbound };
        let started = net.now();
        let mut launched = Vec::new();
        for _ in 0..PARALLEL_BUILDS {
            if let Some((msgs, id)) = net.router_mut(victim).start_tunnel_build(dir, 2, started, rng)
            {
                net.dispatch(victim, msgs);
                launched.push(id);
            }
        }
        // Wait in short slices, breaking as soon as one build lands (a
        // successful build resolves in one RTT) or every launched build
        // has already failed — a refusal reply or an active-reset RST
        // resolves a build long before the attempt timeout; only
        // *silent* failures (null routing) burn the whole attempt.
        let attempt_deadline = (started + cfg.attempt_timeout).min(deadline);
        loop {
            let now = net.now();
            if now >= attempt_deadline {
                break;
            }
            net.run_until((now + Duration::from_millis(250)).min(attempt_deadline));
            let done = match dir {
                TunnelDirection::Outbound => net.router(victim).outbound.live_count(net.now()) > 0,
                TunnelDirection::Inbound => net.router(victim).inbound.live_count(net.now()) > 0,
            };
            let all_resolved = !launched.is_empty()
                && launched.iter().all(|id| !net.router(victim).build_pending(*id));
            if done || all_resolved {
                break;
            }
        }
        for id in launched {
            if net.router(victim).build_pending(id) {
                let now = net.now();
                net.router_mut(victim).fail_pending_build(id, now);
            }
        }
    }
    drop(build_phase);

    // Phase 2: ensure a live LeaseSet for the destination. Failed
    // lookups retry against *further* floodfills with an exclude list,
    // as real DLM retries do (§2.1.2) — under blocking, the closest
    // floodfills may all be null-routed.
    let lookup_phase = i2p_telemetry::tally("measure.fetch_lookup");
    let mut tried: Vec<Hash256> = Vec::new();
    loop {
        let now = net.now();
        if now >= deadline {
            return None;
        }
        let have_live_ls = net
            .router(victim)
            .store
            .lease_set(dest)
            .map(|ls| !ls.is_expired(now))
            .unwrap_or(false);
        if have_live_ls {
            break;
        }
        let ranked = {
            let r = net.router(victim);
            let ffs: Vec<Hash256> = r.floodfills.iter().copied().collect();
            i2p_netdb::store::NetDbStore::closest_floodfills(dest, &ffs, now, ffs.len())
        };
        let batch: Vec<Hash256> = ranked
            .into_iter()
            .filter(|f| !tried.contains(f))
            .take(2)
            .collect();
        if batch.is_empty() {
            // Exhausted every known floodfill: start over (records may
            // have landed elsewhere meanwhile).
            tried.clear();
            net.run_until((now + cfg.attempt_timeout).min(deadline));
            continue;
        }
        // Route the DLM through the outbound tunnel's gateway and ask
        // for the reply via the inbound gateway — tunnel-routed lookups
        // mean only victim-adjacent links cross the censor (§2.1.2).
        let from = net.router(victim).hash();
        let now2 = net.now();
        let out_gw = net.router(victim).outbound.freshest(now2).and_then(|t| t.gateway());
        let in_gw = net.router(victim).inbound.freshest(now2).and_then(|t| t.gateway());
        for t in batch {
            tried.push(t);
            let dlm = NetMsg::Lookup(i2p_netdb::messages::DatabaseLookup {
                key: *dest,
                from,
                kind: i2p_netdb::messages::LookupKind::LeaseSet,
                exclude: tried.clone(),
                reply_via: in_gw,
            });
            match out_gw {
                Some(gw) => {
                    net.send(
                        victim,
                        gw,
                        NetMsg::RelayIntro { target: t, inner: Box::new(dlm) },
                    );
                }
                None => {
                    net.send(victim, t, dlm);
                }
            }
        }
        // Short-slice wait with early exit once the LeaseSet arrives.
        let attempt_deadline = (now + cfg.attempt_timeout).min(deadline);
        loop {
            let now = net.now();
            if now >= attempt_deadline {
                break;
            }
            net.run_until((now + Duration::from_millis(250)).min(attempt_deadline));
            let got = net
                .router(victim)
                .store
                .lease_set(dest)
                .map(|ls| !ls.is_expired(net.now()))
                .unwrap_or(false);
            if got {
                break;
            }
        }
    }
    drop(lookup_phase);

    // Phase 3: the request/response round trip.
    let _request_phase = i2p_telemetry::tally("measure.fetch_request");
    let now = net.now();
    let (msgs, request_id) = net.router_mut(victim).start_fetch(dest, now, rng)?;
    net.dispatch(victim, msgs);
    // Step in slices until the response lands or the timeout expires.
    loop {
        let now = net.now();
        if now >= deadline {
            return None;
        }
        let slice = (now + Duration::from_millis(500)).min(deadline);
        net.run_until(slice);
        let done = net.router(victim).app_events.iter().find_map(|e| match e {
            AppEvent::FetchCompleted { request_id: r, at, .. } if *r == request_id => Some(*at),
            _ => None,
        });
        if let Some(at) = done {
            return Some(at.since(t0).as_secs_f64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(rates: Vec<f64>) -> UsabilityConfig {
        UsabilityConfig {
            relays: 40,
            floodfills: 8,
            fetches_per_rate: 4,
            blocking_rates: rates,
            ..Default::default()
        }
    }

    #[test]
    fn unblocked_fetches_fast_and_reliable() {
        let cfg = quick_cfg(vec![0.0]);
        let pts = evaluate(&cfg);
        let p = &pts[0];
        assert_eq!(p.timeout_pct, 0.0, "no timeouts without blocking: {:?}", p.fetches);
        assert!(p.avg_load_time_s < 10.0, "baseline load time {}", p.avg_load_time_s);
    }

    #[test]
    fn heavy_blocking_times_out() {
        let cfg = quick_cfg(vec![0.97]);
        let pts = evaluate(&cfg);
        assert!(
            pts[0].timeout_pct >= 75.0,
            ">90% blocking must make the network unusable: {:?}",
            pts[0].fetches
        );
    }

    #[test]
    fn latency_grows_with_blocking() {
        let cfg = quick_cfg(vec![0.0, 0.75]);
        let pts = evaluate(&cfg);
        let base = &pts[0];
        let blocked = &pts[1];
        // §6.2.3: 70–90 % blocking ⇒ much higher latency and many
        // timeouts.
        let blocked_cost = if blocked.timeout_pct > 0.0 {
            f64::INFINITY
        } else {
            blocked.avg_load_time_s
        };
        assert!(
            blocked_cost > base.avg_load_time_s * 2.0,
            "blocking must hurt: base {} vs blocked {} ({}% timeouts)",
            base.avg_load_time_s,
            blocked.avg_load_time_s,
            blocked.timeout_pct
        );
    }
}
