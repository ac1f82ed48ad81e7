//! `TestNet`: a deterministic in-memory network of routers.
//!
//! Routers exchange [`NetMsg`]s over the simulated
//! [`i2p_transport::Fabric`]; delivery latency comes from the fabric's
//! deterministic link model, and the censor's blocklist (if installed)
//! null-routes traffic exactly as in Hoang et al. §6.2.3. A binary-heap
//! event queue keeps everything ordered and reproducible.
//!
//! Fidelity notes (documented simplifications, see DESIGN.md):
//!
//! * Garlic messages stay end-to-end sealed across tunnels (relays can
//!   never read them); the per-hop *layer* encryption is implemented and
//!   tested in `i2p_tunnel::layered` but the harness routes the sealed
//!   garlic directly, since the experiments only consume reachability
//!   and timing.
//! * Relay hops resolve next-hop endpoints through the harness registry
//!   (in real I2P the build message carries the next hop's contact
//!   info).

use crate::config::{Reachability, RouterConfig};
use crate::reseed::ReseedServer;
use crate::router::Router;
use i2p_crypto::elgamal::ElGamalPublic;
use i2p_crypto::DetRng;
use i2p_data::addr::{Introducer, PORT_MAX, PORT_MIN};
use i2p_data::{Duration, Hash256, PeerIp, SimTime};
use i2p_netdb::messages::{DatabaseLookup, DatabaseStore, SearchReply};
use i2p_transport::fabric::{DeliveryOutcome, Endpoint, Fabric};
use i2p_tunnel::build::TunnelBuildRequest;
use i2p_tunnel::garlic::GarlicMessage;
use i2p_data::FxHashMap;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// A message between routers.
#[derive(Clone, Debug)]
pub enum NetMsg {
    /// DatabaseStoreMessage.
    Store(DatabaseStore),
    /// DatabaseLookupMessage.
    Lookup(DatabaseLookup),
    /// DatabaseSearchReply.
    SearchReplyMsg(SearchReply),
    /// Tunnel build request travelling hop to hop.
    TunnelBuild {
        /// The per-hop encrypted records.
        request: TunnelBuildRequest,
        /// Who is building (reply address).
        originator: Hash256,
    },
    /// Build confirmation back to the originator.
    TunnelBuildReply {
        /// Which tunnel.
        tunnel_id: u32,
        /// Accepted or refused.
        ok: bool,
    },
    /// Data moving through a tunnel.
    TunnelData {
        /// Tunnel being traversed.
        tunnel_id: u32,
        /// Inter-tunnel delivery instruction for the outbound endpoint:
        /// `(inbound gateway, inbound tunnel id)`.
        deliver_to: Option<(Hash256, u32)>,
        /// The end-to-end sealed payload.
        garlic: GarlicMessage,
    },
    /// A garlic message delivered directly (no tunnel).
    Garlic(GarlicMessage),
    /// Introducer relay for firewalled peers (§5.1).
    RelayIntro {
        /// The firewalled peer to reach.
        target: Hash256,
        /// The message to forward.
        inner: Box<NetMsg>,
    },
    /// Transport-level failure signal delivered back to a sender whose
    /// connection was actively refused (the censor's
    /// [`i2p_transport::fabric::CensorMode::ActiveReset`] chokepoint).
    /// Null-routing never produces this — silence is the point.
    PeerUnreachable {
        /// The peer the connection attempt was refused towards.
        peer: Hash256,
    },
}

impl NetMsg {
    /// Approximate wire size for bandwidth accounting.
    fn wire_size(&self) -> usize {
        match self {
            NetMsg::Store(_) => 900,
            NetMsg::Lookup(_) => 200,
            NetMsg::SearchReplyMsg(r) => 200 + 900 * r.routers.len(),
            NetMsg::TunnelBuild { request, .. } => 300 * request.records.len(),
            NetMsg::TunnelBuildReply { .. } => 64,
            NetMsg::TunnelData { garlic, .. } => garlic.wire_len() + 64,
            NetMsg::Garlic(g) => g.wire_len(),
            NetMsg::RelayIntro { inner, .. } => inner.wire_size() + 64,
            // A local kernel signal (RST observed), not wire traffic.
            NetMsg::PeerUnreachable { .. } => 0,
        }
    }
}

/// One outbound message (target router by hash).
#[derive(Clone, Debug)]
pub struct Outbound {
    /// Destination router.
    pub to: Hash256,
    /// The message.
    pub msg: NetMsg,
}

/// Application-level events surfaced to the experiment driver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AppEvent {
    /// An eepsite fetch completed.
    FetchCompleted {
        /// The request id.
        request_id: u64,
        /// Completion time.
        at: SimTime,
        /// Response body size.
        body_len: usize,
    },
    /// The eepsite served a request.
    Served {
        /// The request id.
        request_id: u64,
        /// Serve time.
        at: SimTime,
    },
    /// The eepsite had no outbound tunnel to answer through.
    ServeFailedNoTunnel {
        /// The request id.
        request_id: u64,
    },
}

/// An eepsite fetch request (clove payload).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EepRequest {
    /// Request id.
    pub request_id: u64,
    /// Path requested.
    pub path: String,
    /// Requester's inbound gateway.
    pub reply_gateway: Hash256,
    /// Requester's inbound tunnel id.
    pub reply_tunnel: u32,
    /// Key to seal the response to.
    pub reply_key: ElGamalPublic,
}

impl EepRequest {
    /// Serializes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut v = vec![1u8];
        v.extend_from_slice(&self.request_id.to_be_bytes());
        v.extend_from_slice(&self.reply_gateway.0);
        v.extend_from_slice(&self.reply_tunnel.to_be_bytes());
        v.extend_from_slice(&self.reply_key.0.to_be_bytes());
        v.extend_from_slice(self.path.as_bytes());
        v
    }

    /// Parses; `None` if this is not an EepRequest.
    pub fn from_bytes(b: &[u8]) -> Option<Self> {
        if b.len() < 1 + 8 + 32 + 4 + 8 || b.first() != Some(&1) {
            return None;
        }
        Some(EepRequest {
            request_id: u64::from_be_bytes(b[1..9].try_into().ok()?),
            reply_gateway: Hash256(b[9..41].try_into().ok()?),
            reply_tunnel: u32::from_be_bytes(b[41..45].try_into().ok()?),
            reply_key: ElGamalPublic(u64::from_be_bytes(b[45..53].try_into().ok()?)),
            path: String::from_utf8(b[53..].to_vec()).ok()?,
        })
    }
}

/// An eepsite fetch response (clove payload).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EepResponse {
    /// Request id echoed back.
    pub request_id: u64,
    /// Page body.
    pub body: Vec<u8>,
}

impl EepResponse {
    /// Serializes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut v = vec![2u8];
        v.extend_from_slice(&self.request_id.to_be_bytes());
        v.extend_from_slice(&self.body);
        v
    }

    /// Parses; `None` if this is not an EepResponse.
    pub fn from_bytes(b: &[u8]) -> Option<Self> {
        if b.len() < 9 || b.first() != Some(&2) {
            return None;
        }
        Some(EepResponse {
            request_id: u64::from_be_bytes(b[1..9].try_into().ok()?),
            body: b[9..].to_vec(),
        })
    }
}

#[derive(Clone, Debug)]
struct QueuedEvent {
    at: SimTime,
    seq: u64,
    to: usize,
    msg: NetMsg,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The in-memory network.
///
/// `Clone` gives the scenario lab its substrate forks: a clone shares
/// the signed netDb records (immutable, behind `Arc`) with the original,
/// shares each router's store, k-buckets and profile book until either
/// side writes one (copy on write, see [`Router`]), and copies the rest
/// — tunnel pools, the event queue, the fabric — so the two evolve
/// independently. Because every map in the stack hashes
/// deterministically and a copied table keeps its layout, continuing a
/// clone is bit-identical to continuing the original. Use
/// [`TestNet::fork`] to also re-split the RNG so forks diverge
/// reproducibly.
#[derive(Clone)]
pub struct TestNet {
    /// The IP substrate (install a blocklist here to censor).
    pub fabric: Fabric,
    routers: Vec<Router>,
    index: FxHashMap<Hash256, usize>,
    /// Private endpoints for firewalled routers (reachable only via
    /// introducer relay in the model).
    private_endpoints: FxHashMap<usize, Endpoint>,
    queue: BinaryHeap<Reverse<QueuedEvent>>,
    now: SimTime,
    seq: u64,
    next_ip: u32,
    rng: DetRng,
    /// Hardcoded reseed servers.
    pub reseeds: Vec<ReseedServer>,
}

impl TestNet {
    /// Creates an empty network.
    pub fn new(seed: u64) -> Self {
        TestNet {
            fabric: Fabric::new(),
            routers: Vec::new(),
            index: FxHashMap::default(),
            private_endpoints: FxHashMap::default(),
            queue: BinaryHeap::new(),
            now: SimTime::EPOCH,
            seq: 0,
            next_ip: 0x0100_0000,
            rng: DetRng::new(seed ^ 0x07e5_7ae7),
            reseeds: vec![ReseedServer::new(1), ReseedServer::new(2)],
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of routers.
    pub fn len(&self) -> usize {
        self.routers.len()
    }

    /// Whether the net is empty.
    pub fn is_empty(&self) -> bool {
        self.routers.is_empty()
    }

    /// Immutable router access.
    pub fn router(&self, idx: usize) -> &Router {
        &self.routers[idx]
    }

    /// Mutable router access.
    pub fn router_mut(&mut self, idx: usize) -> &mut Router {
        &mut self.routers[idx]
    }

    /// A fresh RNG stream for experiment drivers.
    pub fn fork_rng(&self, label: u64) -> DetRng {
        self.rng.fork(label)
    }

    /// Forks the network into an independent scenario: a clone (see
    /// [`TestNet`]) whose root RNG is re-split by `label`, so every downstream
    /// stream (event handling, experiment drivers via [`TestNet::fork_rng`])
    /// diverges from the parent and from forks with other labels, while
    /// the same `label` always reproduces the same fork. Time, routers,
    /// queued events and the fabric are carried over unchanged — the
    /// scenario lab warms a substrate once and forks it per scenario
    /// instead of rebuilding and re-settling it.
    ///
    /// A plain `.clone()` keeps the parent's RNG stream: continuing a
    /// clone is bit-identical to continuing the original (the
    /// rebuild-equivalence the determinism suite pins down).
    pub fn fork(&self, label: u64) -> Self {
        let mut forked = self.clone();
        forked.rng = self.rng.fork(0xF02C ^ label);
        forked
    }

    /// Adds a router, assigning it an IP/port. Firewalled routers get a
    /// private endpoint plus introducers drawn from already-added public
    /// routers.
    pub fn add_router(&mut self, config: RouterConfig) -> usize {
        let mut rng = self.rng.fork(0x0add ^ self.routers.len() as u64);
        let mut router = Router::new(config, self.now, &mut rng);
        let idx = self.routers.len();
        let ip = PeerIp::V4(self.next_ip);
        self.next_ip += 1;
        let port = PORT_MIN + (rng.below((PORT_MAX - PORT_MIN) as u64 + 1) as u16);
        let ep = Endpoint { ip, port };
        match router.config.reachability {
            Reachability::Public => {
                router.set_network(Some(ip), port, Vec::new());
                self.fabric.register(ep, router.hash());
            }
            Reachability::Firewalled => {
                // Pick up to 3 public introducers.
                let intros: Vec<Introducer> = self
                    .routers
                    .iter()
                    .filter(|r| matches!(r.config.reachability, Reachability::Public))
                    .take(3)
                    .map(|r| Introducer {
                        router: r.hash(),
                        ip: r.public_ip.expect("public router has ip"), // i2plint: allow(panic-audit) -- Public reachability implies a published IP
                        tag: rng.next_u32(),
                    })
                    .collect();
                router.set_network(None, 0, intros);
                // Private endpoint: reachable by the harness only via
                // RelayIntro (hole punch established by the introducer).
                self.private_endpoints.insert(idx, ep);
                self.fabric.register(ep, router.hash());
            }
            Reachability::Hidden => {
                // No address at all; hidden peers only originate.
                self.private_endpoints.insert(idx, ep);
                self.fabric.register(ep, router.hash());
            }
        }
        self.index.insert(router.hash(), idx);
        self.routers.push(router);
        idx
    }

    /// The IP a router sources traffic from.
    pub fn source_ip(&self, idx: usize) -> PeerIp {
        match self.routers[idx].public_ip {
            Some(ip) => ip,
            None => self.private_endpoints[&idx].ip,
        }
    }

    /// The endpoint a router can be *delivered* to (public or private).
    fn delivery_endpoint(&self, idx: usize) -> Endpoint {
        match self.routers[idx].public_ip {
            Some(ip) => Endpoint { ip, port: self.routers[idx].port },
            None => self.private_endpoints[&idx],
        }
    }

    /// Loads every router's RouterInfo into the reseed servers.
    pub fn refresh_reseeds(&mut self) {
        let infos: Vec<_> = self
            .routers
            .iter()
            .map(|r| Arc::new(r.make_router_info(self.now)))
            .collect();
        for s in &mut self.reseeds {
            s.set_known(infos.clone());
        }
    }

    /// Bootstraps `idx` from the reseed servers (≈150 RouterInfos, §4.2).
    /// Returns how many records were learned; 0 when all servers are
    /// blocked (the §6.1 scenario).
    pub fn bootstrap(&mut self, idx: usize) -> usize {
        let src = self.source_ip(idx);
        let mut learned = 0;
        let now = self.now;
        let answers: Vec<_> = self.reseeds.iter().filter_map(|s| s.answer(src)).collect();
        for answer in answers {
            for ri in answer {
                self.routers[idx].learn_router(ri, now);
                learned += 1;
            }
        }
        learned
    }

    /// Bootstraps from a manual reseed file instead (§6.1).
    pub fn bootstrap_from_file(&mut self, idx: usize, file: &crate::reseed::ReseedFile) -> usize {
        let now = self.now;
        for ri in &file.routers {
            self.routers[idx].learn_router(Arc::new(ri.clone()), now);
        }
        file.routers.len()
    }

    /// Sends `msg` from router `from_idx` toward the router with hash
    /// `to`; resolves the endpoint, passes the fabric (latency +
    /// censorship), and queues delivery. Returns whether the fabric
    /// accepted it.
    pub fn send(&mut self, from_idx: usize, to: Hash256, msg: NetMsg) -> bool {
        let Some(&to_idx) = self.index.get(&to) else {
            return false;
        };
        // Firewalled target and sender is not its introducer: relay via
        // an introducer (§5.1 hole punching), costing an extra hop.
        let target_fw = self.routers[to_idx].public_ip.is_none()
            && matches!(self.routers[to_idx].config.reachability, Reachability::Firewalled);
        let sender_hash = self.routers[from_idx].hash();
        if target_fw {
            let is_my_introducer = self.routers[to_idx]
                .my_introducers
                .iter()
                .any(|i| i.router == sender_hash);
            if !is_my_introducer {
                if let Some(intro) = self.routers[to_idx].my_introducers.first().copied() {
                    return self.send(
                        from_idx,
                        intro.router,
                        NetMsg::RelayIntro { target: to, inner: Box::new(msg) },
                    );
                }
                return false;
            }
        }
        let ep = self.delivery_endpoint(to_idx);
        let size = msg.wire_size();
        let src = self.source_ip(from_idx);
        match self.fabric.send(src, ep, size, self.now) {
            DeliveryOutcome::Delivered { at, .. } => {
                self.seq += 1;
                self.queue.push(Reverse(QueuedEvent { at, seq: self.seq, to: to_idx, msg }));
                true
            }
            DeliveryOutcome::Reset { at } => {
                // The censor refused the connection: the *sender* learns
                // about it after one chokepoint round trip and can fail
                // over immediately (vs. silently burning its timeout
                // under null routing).
                self.seq += 1;
                self.queue.push(Reverse(QueuedEvent {
                    at,
                    seq: self.seq,
                    to: from_idx,
                    msg: NetMsg::PeerUnreachable { peer: to },
                }));
                false
            }
            DeliveryOutcome::Duplicated { at, again, .. } => {
                // Fault-plane duplication: the destination handles the
                // message twice, exercising idempotence of the handlers.
                self.seq += 1;
                self.queue
                    .push(Reverse(QueuedEvent { at, seq: self.seq, to: to_idx, msg: msg.clone() }));
                self.seq += 1;
                self.queue.push(Reverse(QueuedEvent { at: again, seq: self.seq, to: to_idx, msg }));
                true
            }
            // Lost is the fault plane's silent drop; like null routing,
            // the sender gets no signal.
            DeliveryOutcome::NullRouted | DeliveryOutcome::NoListener | DeliveryOutcome::Lost => {
                false
            }
        }
    }

    /// Queues messages produced by a router.
    pub fn dispatch(&mut self, from_idx: usize, outbound: Vec<Outbound>) {
        for o in outbound {
            self.send(from_idx, o.to, o.msg);
        }
    }

    /// Runs the event loop until `deadline` (inclusive) or until the
    /// queue drains. Returns the number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> usize {
        let mut processed = 0;
        while let Some(Reverse(head)) = self.queue.peek() {
            if head.at > deadline {
                break;
            }
            let Reverse(event) = self.queue.pop().unwrap(); // i2plint: allow(panic-audit) -- peek() above proved the queue non-empty
            self.now = event.at;
            let mut rng = self.rng.fork(0x11a9d ^ event.seq);
            let out = self.routers[event.to].handle(event.msg, self.now, &mut rng);
            self.dispatch(event.to, out);
            processed += 1;
        }
        if self.now < deadline {
            self.now = deadline;
        }
        processed
    }

    /// Advances time without processing (when the queue is known empty).
    pub fn advance_to(&mut self, t: SimTime) {
        if t > self.now {
            self.now = t;
        }
    }

    /// Steps all routers' housekeeping at the current time.
    pub fn tick_all(&mut self) {
        let now = self.now;
        for r in &mut self.routers {
            r.tick(now);
        }
    }

    /// Convenience: run for a duration.
    pub fn run_for(&mut self, d: Duration) -> usize {
        let deadline = self.now + d;
        self.run_until(deadline)
    }
}
