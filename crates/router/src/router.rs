//! The router node.
//!
//! One emulated I2P router: netDb participation (store / lookup / flood),
//! RouterInfo publication with capacity flags, automatic floodfill
//! opt-in, introducer handling for firewalled operation, tunnel building
//! and garlic processing. Routers are *pure state machines*: every
//! handler consumes a message and returns the messages to transmit; the
//! [`crate::net::TestNet`] harness owns delivery and time.

use crate::config::{FloodfillMode, Reachability, RouterConfig};
use crate::net::{AppEvent, EepRequest, EepResponse, NetMsg, Outbound};
use crate::profile::ProfileBook;
use i2p_crypto::DetRng;
use i2p_data::addr::{Introducer, RouterAddress, TransportStyle};
use i2p_data::caps::Caps;
use i2p_data::ident::{IdentitySecrets, RouterIdentity};
use i2p_data::{Duration, Hash256, Lease, LeaseSet, PeerIp, RouterInfo, SimTime};
use i2p_netdb::kbucket::KBucketTable;
use i2p_netdb::messages::{DatabaseLookup, DatabaseStore, LookupKind, NetDbPayload, SearchReply};
use i2p_netdb::store::{NetDbStore, StoreConfig, StoreOutcome, REPLICATION};
use i2p_tunnel::build::TunnelBuildRequest;
use i2p_tunnel::garlic::{Clove, DeliveryInstructions, GarlicMessage};
use i2p_data::FxHashMap;
use i2p_tunnel::pool::{TunnelDirection, TunnelPool};
use i2p_tunnel::select::{select_hops, HopCandidate};
use std::sync::Arc;

/// Minimum uptime before the automatic floodfill health check passes
/// (stability/uptime tests, Hoang et al. §2.1.2).
const AUTO_FLOODFILL_MIN_UPTIME: Duration = Duration::from_hours(2);

/// Tunnel participant state at a relay hop.
#[derive(Clone, Debug)]
pub struct Participant {
    /// The layer key this hop applies.
    pub layer_key: [u8; 32],
    /// Next hop, `None` when this hop is the tunnel's last relay.
    pub next: Option<Hash256>,
    /// When the participation expires.
    pub expires: SimTime,
}

/// An eepsite hosted on this router.
#[derive(Clone, Debug)]
pub struct Eepsite {
    /// The page body served for any path ("a simple and small html
    /// file", §6.2.3).
    pub body: Vec<u8>,
}

/// One emulated router.
///
/// `Clone` supports the scenario lab's substrate forking. The three
/// large tables — netDb store, floodfill k-buckets, profile book — sit
/// behind `Arc` and are copied on write: a clone shares them with the
/// original until either side first writes one (`Arc::make_mut`), which
/// then copies that table, hash layout and all. Everything else mutable
/// — tunnel pools, participations, pending builds — is copied at once.
/// Either way a clone evolves independently of the original, and since
/// all internal maps hash deterministically and a copied table keeps
/// its layout, a clone replays exactly like the original.
#[derive(Clone)]
pub struct Router {
    /// Public identity.
    pub identity: RouterIdentity,
    /// Secret keys.
    pub secrets: IdentitySecrets,
    /// Static configuration.
    pub config: RouterConfig,
    /// When the router started (health checks need uptime).
    pub started: SimTime,
    /// Local netDb (copied on write, see [`Router`]).
    pub store: Arc<NetDbStore>,
    /// Known floodfills: k-bucket table around our hash (copied on
    /// write).
    pub floodfills: Arc<KBucketTable>,
    /// Peer profiles (copied on write).
    pub profiles: Arc<ProfileBook>,
    /// Inbound tunnel pool.
    pub inbound: TunnelPool,
    /// Outbound tunnel pool.
    pub outbound: TunnelPool,
    /// Tunnels this router relays for others (id → state).
    pub participating: FxHashMap<u32, Participant>,
    /// Our public IP (None when firewalled/hidden).
    pub public_ip: Option<PeerIp>,
    /// Our port.
    pub port: u16,
    /// Introducers serving us (firewalled mode).
    pub my_introducers: Vec<Introducer>,
    /// Hosted eepsite, if any.
    pub eepsite: Option<Eepsite>,
    /// Application events (completed fetches etc.) for the harness.
    pub app_events: Vec<AppEvent>,
    /// Pending requests we originated: request id → when sent.
    pub pending_requests: FxHashMap<u64, SimTime>,
    pending_builds: FxHashMap<u32, PendingBuild>,
    hash_cache: Hash256,
}

impl Router {
    /// Creates a router from config; addresses are assigned by the
    /// harness via [`Router::set_network`].
    pub fn new(config: RouterConfig, started: SimTime, rng: &mut DetRng) -> Self {
        let (identity, secrets) = RouterIdentity::generate(rng);
        let hash = identity.hash();
        let floodfill_now = matches!(config.floodfill, FloodfillMode::Manual);
        Router {
            identity,
            secrets,
            config,
            started,
            store: Arc::new(NetDbStore::new(StoreConfig {
                floodfill: floodfill_now,
            })),
            floodfills: Arc::new(KBucketTable::new(hash)),
            profiles: Arc::new(ProfileBook::new()),
            inbound: TunnelPool::new(),
            outbound: TunnelPool::new(),
            participating: FxHashMap::default(),
            public_ip: None,
            port: 0,
            my_introducers: Vec::new(),
            eepsite: None,
            app_events: Vec::new(),
            pending_requests: FxHashMap::default(),
            pending_builds: FxHashMap::default(),
            hash_cache: hash,
        }
    }

    /// The router hash.
    pub fn hash(&self) -> Hash256 {
        self.hash_cache
    }

    /// Assigns network presence (called by the harness).
    pub fn set_network(&mut self, ip: Option<PeerIp>, port: u16, introducers: Vec<Introducer>) {
        self.public_ip = ip;
        self.port = port;
        self.my_introducers = introducers;
    }

    /// Whether this router is acting as a floodfill *now* (manual flag,
    /// or automatic opt-in with passed health checks).
    pub fn is_floodfill(&self, now: SimTime) -> bool {
        match self.config.floodfill {
            FloodfillMode::Disabled => false,
            FloodfillMode::Manual => true,
            FloodfillMode::Auto => {
                self.config.meets_auto_floodfill_bandwidth()
                    && now.since(self.started) >= AUTO_FLOODFILL_MIN_UPTIME
            }
        }
    }

    /// The capacity flags this router publishes at `now`.
    pub fn current_caps(&self, now: SimTime) -> Caps {
        Caps {
            bandwidth: self.config.bandwidth_class(),
            floodfill: self.is_floodfill(now),
            reachable: matches!(self.config.reachability, Reachability::Public),
            hidden: matches!(self.config.reachability, Reachability::Hidden),
        }
    }

    /// Builds and signs this router's current RouterInfo.
    pub fn make_router_info(&self, now: SimTime) -> RouterInfo {
        let addresses = match self.config.reachability {
            Reachability::Public => {
                let ip = self.public_ip.expect("public router needs an IP"); // i2plint: allow(panic-audit) -- Public reachability implies a published IP
                vec![
                    RouterAddress::published(TransportStyle::Ntcp, ip, self.port),
                    RouterAddress::published(TransportStyle::Ssu, ip, self.port),
                ]
            }
            Reachability::Firewalled => {
                vec![RouterAddress::firewalled(self.my_introducers.clone())]
            }
            Reachability::Hidden => Vec::new(),
        };
        RouterInfo::new_signed(
            self.identity,
            &self.secrets,
            now,
            addresses,
            self.current_caps(now),
            self.config.version,
        )
    }

    /// Ingests a RouterInfo (from reseed, lookup reply, store, …),
    /// updating the floodfill table and profiles.
    pub fn learn_router(&mut self, ri: Arc<RouterInfo>, now: SimTime) {
        let hash = ri.hash();
        if hash == self.hash() {
            return;
        }
        let caps = ri.caps;
        let stored = Arc::make_mut(&mut self.store).offer(NetDbPayload::RouterInfo(ri), now);
        if stored == StoreOutcome::BadSignature {
            return;
        }
        let floodfills = Arc::make_mut(&mut self.floodfills);
        if caps.floodfill {
            floodfills.insert(hash);
        } else {
            floodfills.remove(&hash);
        }
        Arc::make_mut(&mut self.profiles).entry(hash, caps.bandwidth, now);
    }

    /// The floodfills to publish a record to: [`REPLICATION`] closest to
    /// the record's daily routing key.
    pub fn publish_targets(&self, key: &Hash256, now: SimTime) -> Vec<Hash256> {
        let ffs: Vec<Hash256> = self.floodfills.iter().copied().collect();
        NetDbStore::closest_floodfills(key, &ffs, now, REPLICATION)
    }

    /// Publishes our RouterInfo to the netDb (direct DSM to the closest
    /// floodfills).
    pub fn publish_self(&mut self, now: SimTime) -> Vec<Outbound> {
        let ri = Arc::new(self.make_router_info(now));
        let key = ri.hash();
        // Keep our own record locally too.
        Arc::make_mut(&mut self.store).offer(NetDbPayload::RouterInfo(ri.clone()), now);
        self.publish_targets(&key, now)
            .into_iter()
            .map(|ff| Outbound {
                to: ff,
                msg: NetMsg::Store(DatabaseStore {
                    payload: NetDbPayload::RouterInfo(ri.clone()),
                    reply_token: 1,
                    flooded: false,
                }),
            })
            .collect()
    }

    /// Publishes a LeaseSet for our hosted destination.
    pub fn publish_leaseset(&mut self, now: SimTime) -> Vec<Outbound> {
        let leases: Vec<Lease> = self
            .inbound
            .live(now)
            .filter_map(|t| {
                Some(Lease {
                    gateway: t.gateway()?,
                    tunnel_id: t.id,
                    end_date: t.built + i2p_tunnel::pool::TUNNEL_LIFETIME,
                })
            })
            .take(16)
            .collect();
        let ls = Arc::new(LeaseSet::new_signed(self.identity, &self.secrets, leases));
        let key = ls.dest_hash();
        Arc::make_mut(&mut self.store).offer(NetDbPayload::LeaseSet(ls.clone()), now);
        self.publish_targets(&key, now)
            .into_iter()
            .map(|ff| Outbound {
                to: ff,
                msg: NetMsg::Store(DatabaseStore {
                    payload: NetDbPayload::LeaseSet(ls.clone()),
                    reply_token: 1,
                    flooded: false,
                }),
            })
            .collect()
    }

    /// Candidate hops for tunnels: reachable, non-hidden peers we have
    /// RouterInfos for, weighted by profile (failure streaks decay with
    /// time).
    pub fn hop_candidates(&self) -> Vec<HopCandidate> {
        self.hop_candidates_at(SimTime(u64::MAX / 2))
    }

    /// Candidate hops at `now` (time-aware failure decay). Hashes come
    /// from the store's keys — this runs once per build attempt, and
    /// re-deriving a digest per stored record dominated build launches.
    pub fn hop_candidates_at(&self, now: SimTime) -> Vec<HopCandidate> {
        let me = self.hash();
        self.store
            .router_infos_keyed()
            .filter(|(hash, ri)| ri.caps.reachable && !ri.caps.hidden && **hash != me)
            .map(|(hash, _)| HopCandidate {
                hash: *hash,
                weight: self.profiles.weight_at(hash, now),
            })
            .collect()
    }

    /// Starts building a tunnel of `length` hops. For inbound tunnels the
    /// hop list ends with ourselves (we are the final receiver); for
    /// outbound tunnels it is pure relays. Returns the messages to send
    /// (build request to the first hop) and the tunnel id, or `None` if
    /// there aren't enough usable candidates.
    pub fn start_tunnel_build(
        &mut self,
        direction: TunnelDirection,
        length: usize,
        now: SimTime,
        rng: &mut DetRng,
    ) -> Option<(Vec<Outbound>, u32)> {
        let candidates = self.hop_candidates_at(now);
        let hops = select_hops(&candidates, length, rng)?;
        // Random id: participants across the network key tunnels by id,
        // so ids must not collide between originators.
        let tunnel_id = rng.next_u32();
        // Resolve each hop's garlic key from its RouterInfo.
        let mut keyed: Vec<(Hash256, i2p_crypto::elgamal::ElGamalPublic)> = Vec::new();
        for h in &hops {
            keyed.push((*h, self.store.router_info(h)?.identity.enc_key));
        }
        if direction == TunnelDirection::Inbound {
            // We are the endpoint of our own inbound tunnel.
            keyed.push((self.hash(), self.identity.enc_key));
        }
        let (req, _) = TunnelBuildRequest::create(tunnel_id, &keyed, rng);
        self.pending_builds.insert(tunnel_id, PendingBuild { direction, hops: hops.clone() });
        let first = hops.first().copied().unwrap_or(self.hash());
        self.record_attempt(direction);
        i2p_telemetry::count_one(i2p_telemetry::Counter::TunnelBuilds);
        Some((
            vec![Outbound {
                to: first,
                msg: NetMsg::TunnelBuild { request: req, originator: self.hash() },
            }],
            tunnel_id,
        ))
    }

    fn record_attempt(&mut self, direction: TunnelDirection) {
        match direction {
            TunnelDirection::Inbound => self.inbound.record_attempt(),
            TunnelDirection::Outbound => self.outbound.record_attempt(),
        }
    }

    /// Gives up on a pending build (timeout); penalises the hops.
    pub fn fail_pending_build(&mut self, tunnel_id: u32, now: SimTime) {
        if let Some(p) = self.pending_builds.remove(&tunnel_id) {
            let profiles = Arc::make_mut(&mut self.profiles);
            for h in &p.hops {
                profiles
                    .entry(*h, i2p_data::BandwidthClass::L, now)
                    .record_failure(now);
            }
            match p.direction {
                TunnelDirection::Inbound => self.inbound.record_failure(),
                TunnelDirection::Outbound => self.outbound.record_failure(),
            }
        }
    }

    /// Whether a build is still pending.
    pub fn build_pending(&self, tunnel_id: u32) -> bool {
        self.pending_builds.contains_key(&tunnel_id)
    }

    /// Handles one incoming message, returning outbound messages.
    pub fn handle(&mut self, msg: NetMsg, now: SimTime, rng: &mut DetRng) -> Vec<Outbound> {
        match msg {
            NetMsg::Store(dsm) => self.on_store(dsm, now),
            NetMsg::Lookup(dlm) => self.on_lookup(dlm, now, rng),
            NetMsg::SearchReplyMsg(reply) => {
                for ri in reply.routers {
                    self.learn_router(ri, now);
                }
                Vec::new()
            }
            NetMsg::TunnelBuild { request, originator } => {
                self.on_tunnel_build(request, originator, now)
            }
            NetMsg::TunnelBuildReply { tunnel_id, ok } => {
                self.on_build_reply(tunnel_id, ok, now);
                Vec::new()
            }
            NetMsg::TunnelData { tunnel_id, deliver_to, garlic } => {
                self.on_tunnel_data(tunnel_id, deliver_to, garlic, now, rng)
            }
            NetMsg::Garlic(g) => self.on_garlic(g, now, rng),
            NetMsg::RelayIntro { target, inner } => {
                // We are an introducer for `target`: forward.
                vec![Outbound { to: target, msg: *inner }]
            }
            NetMsg::PeerUnreachable { peer } => {
                self.on_peer_unreachable(peer, now);
                Vec::new()
            }
        }
    }

    /// Reacts to an active-reset signal: every in-flight tunnel build
    /// whose first hop is the refused peer has provably failed, so it is
    /// abandoned (and the hops penalised) immediately instead of waiting
    /// out the attempt timeout — the fail-fast behaviour that separates
    /// an RST-injecting censor from a null-routing one.
    fn on_peer_unreachable(&mut self, peer: Hash256, now: SimTime) {
        let mut failed: Vec<u32> = self
            .pending_builds
            .iter()
            .filter(|(_, p)| p.hops.first() == Some(&peer))
            .map(|(id, _)| *id)
            .collect();
        // Sorted so the profile penalties apply in a map-order-free way.
        failed.sort_unstable();
        for id in failed {
            self.fail_pending_build(id, now);
        }
    }

    fn on_store(&mut self, dsm: DatabaseStore, now: SimTime) -> Vec<Outbound> {
        let key = dsm.payload.search_key();
        // Track floodfill-ness and profiles for RouterInfos.
        if let NetDbPayload::RouterInfo(ri) = &dsm.payload {
            let caps = ri.caps;
            let hash = ri.hash();
            if hash != self.hash() {
                if caps.floodfill {
                    Arc::make_mut(&mut self.floodfills).insert(hash);
                }
                Arc::make_mut(&mut self.profiles).entry(hash, caps.bandwidth, now);
            }
        }
        let outcome = Arc::make_mut(&mut self.store).offer(dsm.payload.clone(), now);
        // Flooding: a floodfill that accepted a *newer* record via a
        // direct (non-flooded) DSM floods it to its 3 closest floodfills
        // (§4.2).
        if self.store.is_floodfill()
            && outcome == StoreOutcome::StoredNewer
            && !dsm.flooded
        {
            let ffs: Vec<Hash256> = self
                .floodfills
                .iter()
                .copied()
                .filter(|f| *f != self.hash())
                .collect();
            return NetDbStore::closest_floodfills(&key, &ffs, now, REPLICATION)
                .into_iter()
                .map(|ff| Outbound {
                    to: ff,
                    msg: NetMsg::Store(DatabaseStore {
                        payload: dsm.payload.clone(),
                        reply_token: 0,
                        flooded: true,
                    }),
                })
                .collect();
        }
        Vec::new()
    }

    fn on_lookup(&mut self, dlm: DatabaseLookup, now: SimTime, rng: &mut DetRng) -> Vec<Outbound> {
        let found: Option<NetDbPayload> = match dlm.kind {
            LookupKind::RouterInfo => self
                .store
                .router_info(&dlm.key)
                .cloned()
                .map(NetDbPayload::RouterInfo),
            LookupKind::LeaseSet => self
                .store
                .lease_set(&dlm.key)
                .cloned()
                .map(NetDbPayload::LeaseSet),
            LookupKind::Exploratory => None,
        };
        let wrap_reply = |msg: NetMsg| -> Outbound {
            match dlm.reply_via {
                Some(via) if via != dlm.from => Outbound {
                    to: via,
                    msg: NetMsg::RelayIntro { target: dlm.from, inner: Box::new(msg) },
                },
                _ => Outbound { to: dlm.from, msg },
            }
        };
        if let Some(payload) = found {
            return vec![wrap_reply(NetMsg::Store(DatabaseStore {
                payload,
                reply_token: 0,
                flooded: true,
            }))];
        }
        // Not found (or exploratory): reply with closer floodfills and a
        // harvest sample of RouterInfos.
        let ffs: Vec<Hash256> = self
            .floodfills
            .iter()
            .copied()
            .filter(|f| !dlm.exclude.contains(f))
            .collect();
        let closer = NetDbStore::closest_floodfills(&dlm.key, &ffs, now, REPLICATION);
        // Sample by reference, clone only the picked records — this runs
        // on every lookup, and cloning the whole store to keep 8 records
        // dominated the reply path.
        let all: Vec<&Arc<RouterInfo>> = self.store.router_infos().collect();
        let sample_n = 8.min(all.len());
        let routers = rng
            .sample_indices(all.len(), sample_n)
            .into_iter()
            .map(|i| all[i].clone())
            .collect();
        vec![wrap_reply(NetMsg::SearchReplyMsg(SearchReply { key: dlm.key, closer, routers }))]
    }

    fn on_tunnel_build(
        &mut self,
        request: TunnelBuildRequest,
        originator: Hash256,
        now: SimTime,
    ) -> Vec<Outbound> {
        let me = self.hash();
        let Some(record) = request.process_as(&me, self.secrets.enc_keypair()) else {
            return Vec::new(); // not for us; drop
        };
        // Capacity check: refuse when over the participating-tunnel cap
        // (the §4.1 penalty scenario).
        if self.participating.len() as u32 >= self.config.max_participating_tunnels {
            return vec![Outbound {
                to: originator,
                msg: NetMsg::TunnelBuildReply { tunnel_id: record.tunnel_id, ok: false },
            }];
        }
        if record.next_hop.is_none() && originator == me {
            // Our own inbound tunnel's terminal record arrived back at
            // us: the whole hop chain worked, so the build succeeded.
            self.on_build_reply(record.tunnel_id, true, now);
            return Vec::new();
        }
        self.participating.insert(
            record.tunnel_id,
            Participant {
                layer_key: record.layer_key,
                next: record.next_hop,
                expires: now + i2p_tunnel::pool::TUNNEL_LIFETIME,
            },
        );
        let mut out = Vec::new();
        match record.next_hop {
            Some(next) if next != originator => {
                out.push(Outbound {
                    to: next,
                    msg: NetMsg::TunnelBuild { request, originator },
                });
            }
            _ => {
                // Last relay (or next is the originator itself): confirm.
                out.push(Outbound {
                    to: originator,
                    msg: NetMsg::TunnelBuildReply { tunnel_id: record.tunnel_id, ok: true },
                });
            }
        }
        out
    }

    fn on_build_reply(&mut self, tunnel_id: u32, ok: bool, now: SimTime) {
        let Some(pending) = self.pending_builds.remove(&tunnel_id) else {
            return;
        };
        let profiles = Arc::make_mut(&mut self.profiles);
        if !ok {
            for h in &pending.hops {
                profiles
                    .entry(*h, i2p_data::BandwidthClass::L, now)
                    .record_failure(now);
            }
            match pending.direction {
                TunnelDirection::Inbound => self.inbound.record_failure(),
                TunnelDirection::Outbound => self.outbound.record_failure(),
            }
            return;
        }
        for h in &pending.hops {
            profiles
                .entry(*h, i2p_data::BandwidthClass::L, now)
                .record_success(64.0, now);
        }
        match pending.direction {
            TunnelDirection::Inbound => {
                self.inbound.add_with_id(tunnel_id, TunnelDirection::Inbound, pending.hops, now);
            }
            TunnelDirection::Outbound => {
                self.outbound.add_with_id(tunnel_id, TunnelDirection::Outbound, pending.hops, now);
            }
        }
    }

    fn on_tunnel_data(
        &mut self,
        tunnel_id: u32,
        deliver_to: Option<(Hash256, u32)>,
        garlic: GarlicMessage,
        now: SimTime,
        rng: &mut DetRng,
    ) -> Vec<Outbound> {
        if let Some(part) = self.participating.get(&tunnel_id) {
            if part.expires <= now {
                self.participating.remove(&tunnel_id);
                return Vec::new();
            }
            return match part.next {
                Some(next) => vec![Outbound {
                    to: next,
                    msg: NetMsg::TunnelData { tunnel_id, deliver_to, garlic },
                }],
                None => {
                    // We are the outbound endpoint: apply the inter-tunnel
                    // delivery instruction.
                    match deliver_to {
                        Some((gateway, gw_tunnel)) if gateway == self.hash() => {
                            // We are also the gateway of the target
                            // inbound tunnel: inject directly.
                            vec![Outbound {
                                to: gateway,
                                msg: NetMsg::TunnelData {
                                    tunnel_id: gw_tunnel,
                                    deliver_to: None,
                                    garlic,
                                },
                            }]
                        }
                        Some((gateway, gw_tunnel)) => vec![Outbound {
                            to: gateway,
                            msg: NetMsg::TunnelData {
                                tunnel_id: gw_tunnel,
                                deliver_to: None,
                                garlic,
                            },
                        }],
                        None => Vec::new(), // nowhere to go; drop
                    }
                }
            };
        }
        // Unknown participation: perhaps it is a tunnel we own (we are
        // the inbound endpoint) — try to open the garlic.
        self.on_garlic(garlic, now, rng)
    }

    fn on_garlic(&mut self, garlic: GarlicMessage, now: SimTime, rng: &mut DetRng) -> Vec<Outbound> {
        let Some(cloves) = garlic.open(self.secrets.enc_keypair()) else {
            return Vec::new(); // not for us
        };
        let mut out = Vec::new();
        for clove in cloves {
            match clove.instructions {
                DeliveryInstructions::Local => {
                    out.extend(self.on_app_payload(&clove.payload, now, rng));
                }
                DeliveryInstructions::Router(h) => {
                    // Re-seal towards the next router is out of scope;
                    // forward raw app payload via direct garlic if we
                    // know the router.
                    if let Some(ri) = self.store.router_info(&h) {
                        let g = GarlicMessage::seal(
                            &[Clove { instructions: DeliveryInstructions::Local, payload: clove.payload.clone() }],
                            ri.identity.enc_key,
                            rng,
                        );
                        out.push(Outbound { to: h, msg: NetMsg::Garlic(g) });
                    }
                }
                DeliveryInstructions::Tunnel { gateway, tunnel_id } => {
                    // Forward the (still-sealed) garlic into the named
                    // tunnel; the gateway treats it as opaque bytes.
                    out.push(Outbound {
                        to: gateway,
                        msg: NetMsg::TunnelData { tunnel_id, deliver_to: None, garlic: garlic.clone() },
                    });
                }
            }
        }
        out
    }

    /// Handles an application-layer payload revealed from a Local clove.
    fn on_app_payload(&mut self, payload: &[u8], now: SimTime, rng: &mut DetRng) -> Vec<Outbound> {
        if let Some(req) = EepRequest::from_bytes(payload) {
            // We are the eepsite: serve the page back through our
            // outbound tunnel toward the requester's inbound gateway.
            let Some(site) = &self.eepsite else {
                return Vec::new();
            };
            let resp = EepResponse { request_id: req.request_id, body: site.body.clone() };
            let garlic = GarlicMessage::seal(
                &[Clove {
                    instructions: DeliveryInstructions::Local,
                    payload: resp.to_bytes(),
                }],
                req.reply_key,
                rng,
            );
            let Some(out_tunnel) = self.outbound.freshest(now).cloned() else {
                self.app_events.push(AppEvent::ServeFailedNoTunnel { request_id: req.request_id });
                return Vec::new();
            };
            let first = out_tunnel.hops.first().copied();
            self.app_events.push(AppEvent::Served { request_id: req.request_id, at: now });
            return match first {
                Some(first_hop) => vec![Outbound {
                    to: first_hop,
                    msg: NetMsg::TunnelData {
                        tunnel_id: out_tunnel.id,
                        deliver_to: Some((req.reply_gateway, req.reply_tunnel)),
                        garlic,
                    },
                }],
                None => vec![Outbound {
                    to: req.reply_gateway,
                    msg: NetMsg::TunnelData { tunnel_id: req.reply_tunnel, deliver_to: None, garlic },
                }],
            };
        }
        if let Some(resp) = EepResponse::from_bytes(payload) {
            if self.pending_requests.remove(&resp.request_id).is_some() {
                self.app_events.push(AppEvent::FetchCompleted {
                    request_id: resp.request_id,
                    at: now,
                    body_len: resp.body.len(),
                });
            }
            return Vec::new();
        }
        Vec::new()
    }

    /// Originates an eepsite fetch through our tunnels. Requires a live
    /// outbound tunnel, a live inbound tunnel, and the destination's
    /// LeaseSet in our store. Returns the messages plus the request id.
    pub fn start_fetch(
        &mut self,
        dest: &Hash256,
        now: SimTime,
        rng: &mut DetRng,
    ) -> Option<(Vec<Outbound>, u64)> {
        let ls = self.store.lease_set(dest)?.clone();
        let lease = ls.live_leases(now).next()?;
        let dest_key = ls.destination.enc_key;
        let in_tunnel = self.inbound.freshest(now)?.clone();
        let out_tunnel = self.outbound.freshest(now)?.clone();
        let request_id = rng.next_u64();
        let req = EepRequest {
            request_id,
            path: "/index.html".to_string(),
            reply_gateway: in_tunnel.gateway()?,
            reply_tunnel: in_tunnel.id,
            reply_key: self.identity.enc_key,
        };
        let garlic = GarlicMessage::seal(
            &[Clove { instructions: DeliveryInstructions::Local, payload: req.to_bytes() }],
            dest_key,
            rng,
        );
        self.pending_requests.insert(request_id, now);
        let msgs = match out_tunnel.hops.first().copied() {
            Some(first_hop) => vec![Outbound {
                to: first_hop,
                msg: NetMsg::TunnelData {
                    tunnel_id: out_tunnel.id,
                    deliver_to: Some((lease.gateway, lease.tunnel_id)),
                    garlic,
                },
            }],
            None => vec![Outbound {
                to: lease.gateway,
                msg: NetMsg::TunnelData { tunnel_id: lease.tunnel_id, deliver_to: None, garlic },
            }],
        };
        Some((msgs, request_id))
    }

    /// Housekeeping: expire tunnels, participations, netDb entries.
    pub fn tick(&mut self, now: SimTime) {
        self.inbound.expire(now);
        self.outbound.expire(now);
        self.participating.retain(|_, p| p.expires > now);
        Arc::make_mut(&mut self.store).expire(now);
    }

    /// Exports a manual-reseed view of our netDb (§6.1).
    pub fn export_reseed(&self, now: SimTime) -> crate::reseed::ReseedFile {
        let routers = self.store.router_infos().map(|ri| RouterInfo::clone(ri)).collect();
        crate::reseed::ReseedFile::export(routers, now)
    }
}

/// A build in flight.
#[derive(Clone, Debug)]
struct PendingBuild {
    direction: TunnelDirection,
    hops: Vec<Hash256>,
}
