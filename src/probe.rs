//! The telemetry calibration probe.
//!
//! A run manifest is most useful when it can be compared across
//! machines and commits, but a `figures` run only exercises the
//! harvest/figure path — it never walks the netDB or pushes bytes
//! through the transport fabric. The probe closes that gap: when (and
//! only when) the timing plane is enabled, [`calibrate`] runs one
//! tiny, fixed-seed workload through each subsystem — engine fill
//! (measure), snapshot capture/encode/decode/verify (store), a
//! bounded iterative lookup walk (netdb), and a burst of fabric sends
//! (transport) — so every manifest carries a same-machine baseline
//! span for all four core crates, whatever the command was.
//!
//! The probe is deterministic end to end (fixed seed, fixed shapes,
//! pure draws) and **observation-only**: its results are discarded,
//! it writes nothing, and it runs after the command's own output is
//! complete, so enabling telemetry cannot change any byte a command
//! prints or archives. It adds spans, not counts: the manifest reads
//! its counters before the probe runs
//! ([`TelemetryConfig::finish`](crate::cli::TelemetryConfig::finish)),
//! so they hold only the command's own work.

use i2p_data::{Duration, Hash256, PeerIp, SimTime};
use i2p_measure::engine::HarvestEngine;
use i2p_measure::fleet::Fleet;
use i2p_netdb::IterativeLookup;
use i2p_sim::world::{World, WorldConfig};
use i2p_store::Snapshot;
use i2p_transport::fabric::{DeliveryOutcome, Endpoint, Fabric};

/// Fixed probe seed — never the run's own seed, so probe draws can
/// not be mistaken for workload draws in any analysis.
const PROBE_SEED: u64 = 0x7E1E_0001;

/// Runs the calibration workload if the timing plane is enabled; a
/// no-op otherwise. Safe to call after any command.
pub fn calibrate() {
    if !i2p_telemetry::enabled() {
        return;
    }
    let _span = i2p_telemetry::span("probe.calibrate");
    probe_measure_and_store();
    probe_netdb();
    probe_transport();
}

/// Engine fill + archive round trip: covers `measure.engine_fill` and
/// the `store.*` span family.
fn probe_measure_and_store() {
    let world = World::generate(WorldConfig { days: 2, scale: 0.005, seed: PROBE_SEED });
    let fleet = Fleet::alternating(2);
    let engine = HarvestEngine::build(&world, &fleet, 0..2);
    let snapshot = Snapshot::capture(&engine);
    let Ok(bytes) = snapshot.to_bytes() else { return };
    if let Ok(decoded) = Snapshot::from_bytes(&bytes) {
        let _ = decoded.verify_router_infos();
    }
}

/// A bounded iterative lookup against synthetic floodfills; half the
/// responders reply, the rest time out and consume retries, so both
/// lookup counters and the `netdb.lookup_step` tally move.
fn probe_netdb() {
    let _span = i2p_telemetry::span("netdb.lookup_walk");
    let key = Hash256::digest(b"i2pscope-telemetry-probe");
    let initial: Vec<Hash256> =
        (0u32..24).map(|i| Hash256::digest(&i.to_be_bytes())).collect();
    let mut lookup = IterativeLookup::new(key, initial, SimTime(0));
    let mut now = SimTime(0);
    for _ in 0..64 {
        let queries = lookup.next_queries_at(now);
        if queries.is_empty() && !lookup.has_pending() {
            break;
        }
        for (i, peer) in queries.iter().enumerate() {
            if i % 2 == 0 {
                lookup.on_reply(peer);
            }
        }
        now = lookup.next_deadline().unwrap_or(now + Duration::from_secs(64));
        lookup.expire_timeouts(now);
    }
}

/// A burst of sends across a small registered fabric: covers
/// `transport.fabric` plus the `transport.send` tally and the
/// `messages_sent` counter.
fn probe_transport() {
    let _span = i2p_telemetry::span("transport.fabric");
    let mut fabric = Fabric::new();
    for i in 0u32..16 {
        let ep = Endpoint { ip: PeerIp::V4(0x0A00_0100 + i), port: 9000 };
        fabric.register(ep, Hash256::digest(&i.to_le_bytes()));
    }
    let mut now = SimTime(0);
    for i in 0u32..64 {
        let from = PeerIp::V4(0xC0A8_0000 + i);
        let to = Endpoint { ip: PeerIp::V4(0x0A00_0100 + (i % 16)), port: 9000 };
        if let DeliveryOutcome::Delivered { at, .. } = fabric.send(from, to, 512, now) {
            now = at;
        }
    }
}
