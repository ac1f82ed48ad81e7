//! End-to-end protocol tests on the in-memory network: bootstrap,
//! netDb publication + flooding, tunnel building, eepsite fetches, and
//! censorship behaviour.

use i2p_data::{Duration, Hash256, PeerIp, SimTime};
use i2p_router::config::{FloodfillMode, Reachability};
use i2p_router::{RouterConfig, TestNet};
use i2p_transport::BlockList;
use i2p_tunnel::pool::TunnelDirection;
use std::sync::Arc;

fn public_cfg(kbps: u32, floodfill: bool) -> RouterConfig {
    RouterConfig {
        shared_kbps: kbps,
        floodfill: if floodfill { FloodfillMode::Manual } else { FloodfillMode::Disabled },
        reachability: Reachability::Public,
        country: 0,
        max_participating_tunnels: 1000,
        version: "0.9.34",
    }
}

/// Builds a small network: `n_ff` floodfills + `n_std` standard routers,
/// all bootstrapped and published.
fn build_net(seed: u64, n_ff: usize, n_std: usize) -> TestNet {
    let mut net = TestNet::new(seed);
    for _ in 0..n_ff {
        net.add_router(public_cfg(512, true));
    }
    for _ in 0..n_std {
        net.add_router(public_cfg(256, false));
    }
    net.refresh_reseeds();
    for i in 0..net.len() {
        net.bootstrap(i);
    }
    // Everyone publishes; floods propagate.
    for i in 0..net.len() {
        let now = net.now();
        let out = net.router_mut(i).publish_self(now);
        net.dispatch(i, out);
    }
    net.run_for(Duration::from_secs(30));
    net
}

#[test]
fn bootstrap_learns_about_150_routers() {
    let mut net = TestNet::new(1);
    for _ in 0..40 {
        net.add_router(public_cfg(128, false));
    }
    net.refresh_reseeds();
    let newcomer = net.add_router(public_cfg(30, false));
    let learned = net.bootstrap(newcomer);
    // 2 servers × min(75, 41 known) = 82 records offered.
    assert!(learned >= 80, "learned {learned}");
    assert!(net.router(newcomer).store.router_count() >= 40);
}

#[test]
fn reseed_blocking_stops_bootstrap_but_manual_file_works() {
    let mut net = build_net(2, 4, 10);
    // Censor blocks both reseed servers (§6.1).
    for s in &mut net.reseeds {
        s.blocked = true;
    }
    let newcomer = net.add_router(public_cfg(30, false));
    assert_eq!(net.bootstrap(newcomer), 0, "blocked reseeds give nothing");
    assert_eq!(net.router(newcomer).store.router_count(), 0);

    // A friendly established peer exports i2pseeds.su3 out of band.
    let file = net.router(0).export_reseed(net.now());
    let bytes = file.to_bytes();
    let parsed = i2p_router::ReseedFile::from_bytes(&bytes).unwrap();
    let n = net.bootstrap_from_file(newcomer, &parsed);
    assert!(n > 0);
    assert!(net.router(newcomer).store.router_count() > 0, "manual reseed restores access");
}

#[test]
fn publish_floods_to_other_floodfills() {
    let net = build_net(3, 6, 6);
    // Every floodfill should have learned a decent share of RouterInfos
    // via direct stores + flooding.
    for i in 0..6 {
        let count = net.router(i).store.router_count();
        assert!(count >= 6, "floodfill {i} knows only {count}");
    }
}

#[test]
fn tunnel_build_succeeds_and_pools_fill() {
    let mut net = build_net(4, 4, 12);
    let builder = 10usize;
    let mut rng = net.fork_rng(99);
    let now = net.now();
    let (msgs, id) = net
        .router_mut(builder)
        .start_tunnel_build(TunnelDirection::Outbound, 2, now, &mut rng)
        .expect("enough candidates");
    net.dispatch(builder, msgs);
    net.run_for(Duration::from_secs(10));
    assert!(!net.router(builder).build_pending(id), "reply must resolve the build");
    assert_eq!(net.router(builder).outbound.live_count(net.now()), 1);
    assert_eq!(net.router(builder).outbound.builds_succeeded, 1);
}

#[test]
fn inbound_tunnel_build_confirms_via_terminal_record() {
    let mut net = build_net(5, 4, 12);
    let builder = 8usize;
    let mut rng = net.fork_rng(7);
    let now = net.now();
    let (msgs, _id) = net
        .router_mut(builder)
        .start_tunnel_build(TunnelDirection::Inbound, 2, now, &mut rng)
        .unwrap();
    net.dispatch(builder, msgs);
    net.run_for(Duration::from_secs(10));
    assert_eq!(net.router(builder).inbound.live_count(net.now()), 1);
}

/// Full eepsite fetch through four tunnels (client out + server in for
/// the request; server out + client in for the response) — the Fig. 1
/// message flow.
#[test]
fn eepsite_fetch_end_to_end() {
    let mut net = build_net(6, 4, 16);
    let server = 12usize;
    let client = 13usize;
    net.router_mut(server).eepsite = Some(i2p_router::router::Eepsite {
        body: b"<html>eepsite</html>".to_vec(),
    });

    let mut rng = net.fork_rng(1);
    // Server tunnels + leaseset.
    for dir in [TunnelDirection::Inbound, TunnelDirection::Outbound] {
        let now = net.now();
        let (msgs, _) = net
            .router_mut(server)
            .start_tunnel_build(dir, 2, now, &mut rng)
            .unwrap();
        net.dispatch(server, msgs);
    }
    net.run_for(Duration::from_secs(10));
    let now = net.now();
    let out = net.router_mut(server).publish_leaseset(now);
    net.dispatch(server, out);
    net.run_for(Duration::from_secs(10));

    // Client tunnels.
    for dir in [TunnelDirection::Inbound, TunnelDirection::Outbound] {
        let now = net.now();
        let (msgs, _) = net
            .router_mut(client)
            .start_tunnel_build(dir, 2, now, &mut rng)
            .unwrap();
        net.dispatch(client, msgs);
    }
    net.run_for(Duration::from_secs(10));

    // Client needs the server's LeaseSet: direct DLM to a floodfill that
    // should hold it (closest to the key).
    let dest = net.router(server).hash();
    let targets = net.router(client).publish_targets(&dest, net.now());
    assert!(!targets.is_empty());
    let dlm = i2p_netdb::messages::DatabaseLookup {
        key: dest,
        from: net.router(client).hash(),
        kind: i2p_netdb::messages::LookupKind::LeaseSet,
        exclude: vec![],
        reply_via: None,
    };
    for t in targets {
        net.send(client, t, i2p_router::NetMsg::Lookup(dlm.clone()));
    }
    net.run_for(Duration::from_secs(10));
    assert!(
        net.router(client).store.lease_set(&dest).is_some(),
        "LeaseSet lookup must succeed"
    );

    // Fetch.
    let now = net.now();
    let (msgs, request_id) = net
        .router_mut(client)
        .start_fetch(&dest, now, &mut rng)
        .expect("fetch prerequisites met");
    let t0 = net.now();
    net.dispatch(client, msgs);
    net.run_for(Duration::from_secs(30));

    let events = &net.router(client).app_events;
    let done = events.iter().find_map(|e| match e {
        i2p_router::net::AppEvent::FetchCompleted { request_id: r, at, body_len }
            if *r == request_id =>
        {
            Some((*at, *body_len))
        }
        _ => None,
    });
    let (at, body_len) = done.expect("fetch must complete");
    assert_eq!(body_len, 20);
    let elapsed = at.since(t0);
    assert!(elapsed > Duration::ZERO && elapsed < Duration::from_secs(10), "load time {elapsed:?}");
}

#[test]
fn firewalled_peer_reachable_via_introducer() {
    let mut net = TestNet::new(8);
    for _ in 0..6 {
        net.add_router(public_cfg(512, true));
    }
    let fw = net.add_router(RouterConfig {
        reachability: Reachability::Firewalled,
        ..public_cfg(128, false)
    });
    net.refresh_reseeds();
    for i in 0..net.len() {
        net.bootstrap(i);
    }
    assert!(!net.router(fw).my_introducers.is_empty(), "firewalled peer got introducers");
    // The firewalled peer's RouterInfo has no IP but lists introducers.
    let ri = net.router(fw).make_router_info(net.now());
    assert!(ri.is_firewalled());
    assert!(!ri.is_hidden());
    // A floodfill can still deliver to it (via RelayIntro).
    let fw_hash = net.router(fw).hash();
    let ok = net.send(
        0,
        fw_hash,
        i2p_router::NetMsg::Lookup(i2p_netdb::messages::DatabaseLookup {
            key: Hash256::digest(b"whatever"),
            from: net.router(0).hash(),
            kind: i2p_netdb::messages::LookupKind::Exploratory,
            exclude: vec![],
            reply_via: None,
        }),
    );
    assert!(ok, "introducer relay path works");
    let processed = net.run_for(Duration::from_secs(5));
    assert!(processed >= 2, "relay + delivery events, got {processed}");
}

#[test]
fn hidden_peer_publishes_no_address() {
    let mut net = TestNet::new(9);
    net.add_router(public_cfg(512, true));
    let hidden = net.add_router(RouterConfig {
        reachability: Reachability::Hidden,
        ..public_cfg(128, false)
    });
    let ri = net.router(hidden).make_router_info(net.now());
    assert!(ri.is_hidden());
    assert!(ri.addresses.is_empty());
    assert!(!ri.caps.reachable);
}

#[test]
fn blocked_destination_times_out_silently() {
    let mut net = build_net(10, 4, 8);
    let victim = net.add_router(public_cfg(128, false));
    net.refresh_reseeds();
    net.bootstrap(victim);
    let victim_ip = net.source_ip(victim);

    // Censor blocks router 0's IP, scoped to the victim's uplink.
    let target_ip = net.source_ip(0);
    let mut bl = BlockList::new(30);
    bl.observe(target_ip, 0);
    net.fabric.set_blocklist(bl);
    net.fabric.set_victim(victim_ip);

    let target_hash = net.router(0).hash();
    let ok = net.send(
        victim,
        target_hash,
        i2p_router::NetMsg::Lookup(i2p_netdb::messages::DatabaseLookup {
            key: Hash256::digest(b"x"),
            from: net.router(victim).hash(),
            kind: i2p_netdb::messages::LookupKind::Exploratory,
            exclude: vec![],
            reply_via: None,
        }),
    );
    assert!(!ok, "null-routed");
    // Other routers still talk to router 0 (the censor sits only at the
    // victim's upstream).
    let ok2 = net.send(
        3,
        target_hash,
        i2p_router::NetMsg::Lookup(i2p_netdb::messages::DatabaseLookup {
            key: Hash256::digest(b"y"),
            from: net.router(3).hash(),
            kind: i2p_netdb::messages::LookupKind::Exploratory,
            exclude: vec![],
            reply_via: None,
        }),
    );
    assert!(ok2, "non-victim traffic unaffected");
}

#[test]
fn auto_floodfill_opt_in_requires_uptime_and_bandwidth() {
    let mut net = TestNet::new(11);
    let auto = net.add_router(RouterConfig {
        floodfill: FloodfillMode::Auto,
        ..public_cfg(512, false)
    });
    let weak = net.add_router(RouterConfig {
        floodfill: FloodfillMode::Auto,
        ..public_cfg(64, false)
    });
    let t0 = net.now();
    assert!(!net.router(auto).is_floodfill(t0), "no uptime yet");
    let later = t0 + Duration::from_hours(3);
    assert!(net.router(auto).is_floodfill(later), "health checks passed");
    assert!(!net.router(weak).is_floodfill(later), "64 KB/s below the 128 KB/s minimum");
    // Manual mode ignores health checks — the §5.3.1 unqualified
    // floodfills.
    let manual_weak = net.add_router(RouterConfig {
        floodfill: FloodfillMode::Manual,
        ..public_cfg(30, false)
    });
    assert!(net.router(manual_weak).is_floodfill(t0));
    let caps = net.router(manual_weak).current_caps(t0);
    assert!(caps.floodfill && !caps.qualified_floodfill());
}

#[test]
fn deterministic_across_runs() {
    let a = build_net(42, 4, 8);
    let b = build_net(42, 4, 8);
    for i in 0..a.len() {
        assert_eq!(a.router(i).hash(), b.router(i).hash());
        assert_eq!(a.router(i).store.router_count(), b.router(i).store.router_count());
    }
    assert_eq!(a.now(), b.now());
}

/// Whether router `i` of `a` and `b` shares its store, k-buckets and
/// profile book.
fn tables_shared(a: &TestNet, b: &TestNet, i: usize) -> [bool; 3] {
    let (x, y) = (a.router(i), b.router(i));
    [
        Arc::ptr_eq(&x.store, &y.store),
        Arc::ptr_eq(&x.floodfills, &y.floodfills),
        Arc::ptr_eq(&x.profiles, &y.profiles),
    ]
}

#[test]
fn forks_share_router_tables_until_one_is_written() {
    let parent = build_net(17, 4, 8);
    let mut fork = parent.fork(1);
    for i in 0..parent.len() {
        assert_eq!(tables_shared(&parent, &fork, i), [true; 3], "router {i}: an idle fork copied");
    }
    // A floodfill none of them knows yet, from another network.
    let mut elsewhere = TestNet::new(99);
    let stranger = elsewhere.add_router(public_cfg(512, true));
    let ri = Arc::new(elsewhere.router(stranger).make_router_info(fork.now()));
    let hash = ri.hash();
    let learner = 5;
    let counts = |net: &TestNet| {
        let r = net.router(learner);
        (r.store.router_count(), r.floodfills.len(), r.profiles.len())
    };
    let parent_counts = counts(&parent);
    let now = fork.now();
    fork.router_mut(learner).learn_router(ri, now);
    for i in 0..parent.len() {
        let expect = if i == learner { [false; 3] } else { [true; 3] };
        assert_eq!(tables_shared(&parent, &fork, i), expect, "router {i} after one learn_router");
    }
    let (ours, theirs) = (fork.router(learner), parent.router(learner));
    assert!(ours.store.router_info(&hash).is_some());
    assert!(ours.floodfills.contains(&hash));
    assert!(ours.profiles.get(&hash).is_some());
    assert!(theirs.store.router_info(&hash).is_none(), "the parent's store was written");
    assert!(!theirs.floodfills.contains(&hash), "the parent's k-buckets were written");
    assert!(theirs.profiles.get(&hash).is_none(), "the parent's profiles were written");
    assert_eq!(counts(&parent), parent_counts);
    assert_eq!(counts(&fork), (parent_counts.0 + 1, parent_counts.1 + 1, parent_counts.2 + 1));
}

#[test]
fn victim_source_ip_consistency() {
    let mut net = TestNet::new(13);
    let r = net.add_router(public_cfg(128, false));
    let ip = net.source_ip(r);
    assert!(matches!(ip, PeerIp::V4(_)));
    assert_eq!(net.router(r).public_ip, Some(ip));
    assert_eq!(net.now(), SimTime::EPOCH);
}
