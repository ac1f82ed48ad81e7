//! Property-based tests (proptest) over the core data structures and
//! invariants of the whole stack.

use i2pscope::crypto::{sha256, ChaCha20, DetRng};
use i2pscope::data::addr::{Introducer, RouterAddress, TransportStyle};
use i2pscope::data::caps::{BandwidthClass, Caps};
use i2pscope::data::ident::RouterIdentity;
use i2pscope::data::leaseset::{Lease, LeaseSet};
use i2pscope::data::{Hash256, PeerIp, RouterInfo, SimTime};
use i2pscope::measure::engine::HarvestEngine;
use i2pscope::measure::fleet::Fleet;
use i2pscope::measure::source::SnapshotSource;
use i2pscope::netdb::kbucket::KBucketTable;
use i2pscope::netdb::routing_key::RoutingKey;
use i2pscope::router::net::{EepRequest, EepResponse};
use i2pscope::sim::world::{World, WorldConfig};
use i2pscope::store::format::{CHECKSUM_LEN, MAGIC};
use i2pscope::store::{LazySnapshot, Snapshot};
use i2pscope::transport::blocklist::BlockList;
use i2pscope::tunnel::garlic::{Clove, DeliveryInstructions, GarlicMessage};
use i2pscope::tunnel::layered::TunnelKeys;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

fn arb_ip() -> impl Strategy<Value = PeerIp> {
    prop_oneof![any::<u32>().prop_map(PeerIp::V4), any::<u128>().prop_map(PeerIp::V6)]
}

fn arb_class() -> impl Strategy<Value = BandwidthClass> {
    prop_oneof![
        Just(BandwidthClass::K),
        Just(BandwidthClass::L),
        Just(BandwidthClass::M),
        Just(BandwidthClass::N),
        Just(BandwidthClass::O),
        Just(BandwidthClass::P),
        Just(BandwidthClass::X),
    ]
}

fn arb_caps() -> impl Strategy<Value = Caps> {
    (arb_class(), any::<bool>(), any::<bool>(), any::<bool>()).prop_map(
        |(bandwidth, floodfill, reachable, hidden)| Caps { bandwidth, floodfill, reachable, hidden },
    )
}

fn arb_address() -> impl Strategy<Value = RouterAddress> {
    let style = prop_oneof![Just(TransportStyle::Ntcp), Just(TransportStyle::Ssu)];
    let intro = (any::<u64>(), arb_ip(), any::<u32>()).prop_map(|(s, ip, tag)| Introducer {
        router: Hash256::digest(&s.to_be_bytes()),
        ip,
        tag,
    });
    (style, proptest::option::of(arb_ip()), 9000u16..=31000, proptest::collection::vec(intro, 0..3), any::<u8>())
        .prop_map(|(style, ip, port, introducers, cost)| RouterAddress {
            style,
            ip,
            port,
            introducers,
            cost,
        })
}

/// The archive the decoder suite damages, built like the lazy reader's
/// tests build theirs (scale 0.01, 4 days, 4 vantages), with each day
/// segment's extent (tag to checksum) and, per day, the coverage curve
/// and 4-vantage union ids a reader of it must answer.
struct Pristine {
    bytes: Vec<u8>,
    segments: Vec<(usize, usize)>,
    answers: Vec<(Vec<usize>, Vec<u32>)>,
}

fn pristine() -> &'static Pristine {
    static PRISTINE: OnceLock<Pristine> = OnceLock::new();
    PRISTINE.get_or_init(|| {
        let world = World::generate(WorldConfig { days: 4, scale: 0.01, seed: 99 });
        let snap = Snapshot::capture(&HarvestEngine::build(&world, &Fleet::alternating(4), 0..4));
        let bytes = snap.to_bytes().expect("encode");
        let be32 = |at: usize| u32::from_be_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let mut pos = MAGIC.len() + 6 + be32(MAGIC.len() + 2) + CHECKSUM_LEN;
        let mut segments = Vec::new();
        for _ in 0..4 {
            let end = pos + 5 + be32(pos + 1) + CHECKSUM_LEN;
            segments.push((pos, end));
            pos = end;
        }
        let answers = (0..4).map(|day| day_answers(&snap, day)).collect();
        Pristine { bytes, segments, answers }
    })
}

/// What `src` answers for `day`: its coverage curve and the ids the
/// whole fleet saw.
fn day_answers(src: &dyn SnapshotSource, day: u64) -> (Vec<usize>, Vec<u32>) {
    let mut ids = Vec::new();
    src.for_each_union_id(day, 4, &mut |id| ids.push(id));
    (src.coverage_curve(day), ids)
}

/// One damage to an archive. Offsets and segment numbers are drawn
/// wide and reduced modulo the archive; no mutation recomputes a
/// checksum.
#[derive(Clone, Debug)]
enum Mutation {
    /// Keep only the first `n` bytes.
    Truncate(u64),
    /// Flip one bit of one byte.
    Flip(u64, u8),
    /// Raise the header's length field (`0`) or a segment's by `by`.
    Inflate(u64, u32),
    /// Repeat a segment right after itself.
    Duplicate(u64),
    /// Exchange two different segments.
    Swap(u64, u64),
}

impl Mutation {
    fn apply(&self, p: &Pristine) -> Vec<u8> {
        let (bytes, segs, n) = (&p.bytes, &p.segments, p.segments.len() as u64);
        let seg = |i: u64| segs[(i % n) as usize];
        match *self {
            Mutation::Truncate(len) => bytes[..(len % bytes.len() as u64) as usize].to_vec(),
            Mutation::Flip(at, bit) => {
                let mut out = bytes.clone();
                out[(at % bytes.len() as u64) as usize] ^= 1 << bit;
                out
            }
            Mutation::Inflate(field, by) => {
                let at = match field % (n + 1) {
                    0 => MAGIC.len() + 2,
                    i => seg(i - 1).0 + 1,
                };
                let mut out = bytes.clone();
                let len = u32::from_be_bytes(out[at..at + 4].try_into().unwrap());
                out[at..at + 4].copy_from_slice(&len.saturating_add(by).to_be_bytes());
                out
            }
            Mutation::Duplicate(i) => {
                let (start, end) = seg(i);
                [&bytes[..end], &bytes[start..end], &bytes[end..]].concat()
            }
            Mutation::Swap(i, j) => {
                let (a, b) = (i % n, if j % n == i % n { (i + 1) % n } else { j % n });
                let ((a0, a1), (b0, b1)) = (seg(a.min(b)), seg(a.max(b)));
                [&bytes[..a0], &bytes[b0..b1], &bytes[a1..b0], &bytes[a0..a1], &bytes[b1..]].concat()
            }
        }
    }
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        any::<u64>().prop_map(Mutation::Truncate),
        (any::<u64>(), 0u8..8).prop_map(|(at, bit)| Mutation::Flip(at, bit)),
        (any::<u64>(), 1u32..=u32::MAX).prop_map(|(field, by)| Mutation::Inflate(field, by)),
        any::<u64>().prop_map(Mutation::Duplicate),
        (any::<u64>(), any::<u64>()).prop_map(|(i, j)| Mutation::Swap(i, j)),
    ]
}

/// Runs one reader, turning a panic into a failed case.
fn no_panic<T>(reader: &str, m: &Mutation, run: impl FnOnce() -> T) -> Result<T, TestCaseError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
        .map_err(|_| TestCaseError::fail(format!("{reader} panicked on {m:?}")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- crypto ------------------------------------------------------

    #[test]
    fn sha256_is_deterministic_and_sensitive(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let a = sha256(&data);
        prop_assert_eq!(a, sha256(&data));
        if !data.is_empty() {
            let mut flipped = data.clone();
            flipped[0] ^= 1;
            prop_assert_ne!(a, sha256(&flipped));
        }
    }

    #[test]
    fn chacha_roundtrips(key in any::<[u8; 32]>(), nonce in any::<[u8; 12]>(),
                         data in proptest::collection::vec(any::<u8>(), 0..300)) {
        let mut buf = data.clone();
        ChaCha20::xor(&key, &nonce, &mut buf);
        ChaCha20::xor(&key, &nonce, &mut buf);
        prop_assert_eq!(buf, data);
    }

    #[test]
    fn detrng_below_in_range(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut r = DetRng::new(seed);
        for _ in 0..50 {
            prop_assert!(r.below(bound) < bound);
        }
    }

    // ---- XOR metric ----------------------------------------------------

    #[test]
    fn xor_metric_laws(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let (ha, hb, hc) = (
            Hash256::digest(&a.to_be_bytes()),
            Hash256::digest(&b.to_be_bytes()),
            Hash256::digest(&c.to_be_bytes()),
        );
        // Symmetry and identity.
        prop_assert_eq!(ha.distance(&hb), hb.distance(&ha));
        prop_assert_eq!(ha.distance(&ha), i2pscope::data::hash::Distance::ZERO);
        // XOR relation: d(a,c) = d(a,b) ⊕ d(b,c).
        let ab = ha.distance(&hb).0;
        let bc = hb.distance(&hc).0;
        let mut x = [0u8; 32];
        for i in 0..32 { x[i] = ab[i] ^ bc[i]; }
        prop_assert_eq!(x, ha.distance(&hc).0);
    }

    #[test]
    fn routing_keys_rotate_but_are_stable_within_day(seed in any::<u64>(), day in 0u64..500) {
        let h = Hash256::digest(&seed.to_be_bytes());
        prop_assert_eq!(RoutingKey::for_day(&h, day), RoutingKey::for_day(&h, day));
        prop_assert_ne!(RoutingKey::for_day(&h, day).0, h, "routing key differs from raw hash");
    }

    // ---- codecs --------------------------------------------------------

    #[test]
    fn caps_roundtrip(caps in arb_caps()) {
        let s = caps.to_caps_string();
        prop_assert_eq!(Caps::parse(&s).unwrap(), caps);
    }

    #[test]
    fn router_address_roundtrip(addr in arb_address()) {
        let mut w = i2pscope::data::codec::Writer::new();
        addr.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = i2pscope::data::codec::Reader::new(&bytes);
        prop_assert_eq!(RouterAddress::decode(&mut r).unwrap(), addr);
        prop_assert!(r.is_empty());
    }

    #[test]
    fn routerinfo_roundtrip_and_verify(seed in any::<u64>(), published in any::<u32>(),
                                       caps in arb_caps(),
                                       addrs in proptest::collection::vec(arb_address(), 0..3)) {
        let mut rng = DetRng::new(seed);
        let (ident, secrets) = RouterIdentity::generate(&mut rng);
        let ri = RouterInfo::new_signed(ident, &secrets, SimTime(published as u64), addrs, caps, "0.9.34");
        prop_assert!(ri.verify());
        let back = RouterInfo::decode(&ri.encode()).unwrap();
        prop_assert!(back.verify());
        prop_assert_eq!(back, ri);
    }

    #[test]
    fn routerinfo_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let _ = RouterInfo::decode(&bytes);
    }

    #[test]
    fn leaseset_roundtrip(seed in any::<u64>(), n in 0usize..16, end in any::<u32>()) {
        let mut rng = DetRng::new(seed);
        let (dest, secrets) = RouterIdentity::generate(&mut rng);
        let leases: Vec<Lease> = (0..n).map(|i| Lease {
            gateway: Hash256::digest(&[i as u8]),
            tunnel_id: i as u32,
            end_date: SimTime(end as u64),
        }).collect();
        let ls = LeaseSet::new_signed(dest, &secrets, leases);
        prop_assert!(ls.verify());
        prop_assert_eq!(LeaseSet::decode(&ls.encode()).unwrap(), ls);
    }

    #[test]
    fn eep_request_response_roundtrip(id in any::<u64>(), tid in any::<u32>(), key in any::<u64>(),
                                      body in proptest::collection::vec(any::<u8>(), 0..200)) {
        let req = EepRequest {
            request_id: id,
            path: "/index.html".to_string(),
            reply_gateway: Hash256::digest(&id.to_be_bytes()),
            reply_tunnel: tid,
            reply_key: i2pscope::crypto::elgamal::ElGamalPublic(key),
        };
        prop_assert_eq!(EepRequest::from_bytes(&req.to_bytes()).unwrap(), req);
        let resp = EepResponse { request_id: id, body };
        prop_assert_eq!(EepResponse::from_bytes(&resp.to_bytes()).unwrap(), resp);
    }

    // ---- tunnels -------------------------------------------------------

    #[test]
    fn layered_encryption_roundtrips(seed in any::<u64>(), hops in 0usize..=7,
                                     payload in proptest::collection::vec(any::<u8>(), 0..200)) {
        let mut rng = DetRng::new(seed);
        let keys: Vec<[u8; 32]> = (0..hops).map(|_| {
            let mut k = [0u8; 32];
            rng.fill_bytes(&mut k);
            k
        }).collect();
        let tk = TunnelKeys::new(keys);
        let wrapped = tk.wrap(seed, &payload);
        prop_assert_eq!(tk.transit(wrapped), payload);
    }

    #[test]
    fn garlic_bundles_roundtrip(seed in any::<u64>(),
                                payloads in proptest::collection::vec(
                                    proptest::collection::vec(any::<u8>(), 0..64), 0..6)) {
        let kp = i2pscope::crypto::ElGamalKeyPair::from_secret_material(seed | 1);
        let mut rng = DetRng::new(seed);
        let cloves: Vec<Clove> = payloads.into_iter().enumerate().map(|(i, p)| Clove {
            instructions: match i % 3 {
                0 => DeliveryInstructions::Local,
                1 => DeliveryInstructions::Router(Hash256::digest(&[i as u8])),
                _ => DeliveryInstructions::Tunnel {
                    gateway: Hash256::digest(&[i as u8, 1]),
                    tunnel_id: i as u32,
                },
            },
            payload: p,
        }).collect();
        let msg = GarlicMessage::seal(&cloves, kp.public, &mut rng);
        prop_assert_eq!(msg.open(&kp).unwrap(), cloves);
    }

    // ---- k-buckets -----------------------------------------------------

    #[test]
    fn kbucket_closest_is_truly_closest(seeds in proptest::collection::hash_set(any::<u32>(), 5..80),
                                        target in any::<u32>()) {
        let local = Hash256::digest(b"local");
        let mut table = KBucketTable::new(local);
        let mut inserted = Vec::new();
        for s in &seeds {
            let h = Hash256::digest(&s.to_be_bytes());
            if table.insert(h) {
                inserted.push(h);
            }
        }
        let t = Hash256::digest(&target.to_be_bytes());
        let closest = table.closest(&t, 3);
        // Brute-force check.
        inserted.sort_by_key(|h| h.distance(&t));
        let expect: Vec<_> = inserted.iter().take(3).copied().collect();
        prop_assert_eq!(closest, expect);
    }

    // ---- blocklist -----------------------------------------------------

    #[test]
    fn blocklist_window_semantics(window in 1u64..40, seen in 0u64..50, query in 0u64..100) {
        let mut bl = BlockList::new(window);
        bl.observe(PeerIp::V4(1), seen);
        let blocked = bl.is_blocked(&PeerIp::V4(1), query);
        let expect = query >= seen && query - seen < window;
        prop_assert_eq!(blocked, expect);
    }

    // ---- reseed determinism ---------------------------------------------

    #[test]
    fn reseed_same_source_same_answer(seed in any::<u64>(), src in any::<u32>()) {
        let mut rng = DetRng::new(seed);
        let routers: Vec<RouterInfo> = (0..120).map(|_| {
            let (ident, secrets) = RouterIdentity::generate(&mut rng);
            RouterInfo::new_signed(ident, &secrets, SimTime(1), vec![],
                                   Caps::standard(BandwidthClass::L), "0.9.34")
        }).collect();
        let mut srv = i2pscope::router::ReseedServer::new(seed);
        srv.set_known(routers.into_iter().map(std::sync::Arc::new).collect());
        let a = srv.answer(PeerIp::V4(src));
        let b = srv.answer(PeerIp::V4(src));
        prop_assert_eq!(a, b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // ---- .i2ps readers ---------------------------------------------------

    #[test]
    fn the_three_archive_readers_agree_on_damage(m in arb_mutation()) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let p = pristine();
        let bytes = m.apply(p);
        let path = std::env::temp_dir().join(format!(
            "i2ps-prop-{}-{}.i2ps",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, &bytes).expect("write the damaged archive");
        let lazy = no_panic("LazySnapshot::open", &m, || LazySnapshot::open(&path).is_ok());
        let _ = std::fs::remove_file(&path);
        let strict = no_panic("Snapshot::from_bytes", &m, || Snapshot::from_bytes(&bytes).is_ok())?;
        let recovered = no_panic("Snapshot::from_bytes_recover", &m, || Snapshot::from_bytes_recover(&bytes))?;
        prop_assert_eq!(strict, lazy?, "strict and lazy verdicts differ on {:?}", m);
        let Ok((part, report)) = recovered else {
            // Only prelude damage refuses a recovery, and it refuses a
            // strict load too.
            prop_assert!(!strict, "recovery refused an archive the strict reader took: {:?}", m);
            return Ok(());
        };
        prop_assert_eq!(report.is_intact(), strict, "{:?}: {}", m, report);
        prop_assert_eq!(part.meta().n_days, report.recovered_days);
        for day in 0..report.recovered_days as u64 {
            let got = no_panic("a recovered day", &m, || day_answers(&part, day))?;
            prop_assert!(got == p.answers[day as usize], "{:?}: day {} answers differently", m, day);
        }
    }
}
