//! The local netDb store.
//!
//! Semantics the paper's methodology depends on (Hoang et al. §4.2–4.3):
//!
//! * **Flood gate** — a floodfill that receives a DSM with a record
//!   *newer* than its stored copy floods it to its 3 closest floodfills.
//! * **Replication** — direct publishes go to the 3 floodfills closest to
//!   the record's *daily routing key*.
//! * **Expiry** — floodfills expire stored RouterInfos after one hour;
//!   this is why the monitoring fleet snapshots hourly.
//! * **Persistence** — RouterInfos are written to disk and survive a
//!   restart (modelled as the store simply retaining non-floodfill
//!   entries until the daily cleanup).

use crate::messages::NetDbPayload;
use crate::routing_key::RoutingKey;
use i2p_data::{Duration, FxHashMap, Hash256, LeaseSet, RouterInfo, SimTime};
use std::cell::RefCell;
use std::sync::Arc;

/// How many floodfills a record is published/flooded to (§4.2).
pub const REPLICATION: usize = 3;
/// Floodfill RouterInfo expiry (§4.3).
const FLOODFILL_RI_EXPIRY: Duration = Duration::from_hours(1);
/// Non-floodfill routers keep RouterInfos much longer (on disk).
const ROUTER_RI_EXPIRY: Duration = Duration::from_hours(24);

/// Store behaviour configuration.
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Whether this store belongs to a floodfill (shorter RI expiry,
    /// participates in flooding).
    pub floodfill: bool,
}

/// A stored record plus bookkeeping.
#[derive(Clone, Debug)]
struct StoredEntry {
    /// The record.
    payload: NetDbPayload,
    /// When we received it.
    received: SimTime,
}

/// The local netDb store of one router.
///
/// Both maps use the deterministic [`FxHashMap`]: iteration order feeds
/// tunnel hop selection via `router_infos()`, so a randomly seeded
/// hasher (std's `RandomState`) would make two identically-seeded
/// experiment runs pick different tunnels — the scenario lab's
/// fork-vs-rebuild bit-identity depends on this being a pure function
/// of the insertion sequence.
#[derive(Clone, Debug, Default)]
pub struct NetDbStore {
    router_infos: FxHashMap<Hash256, StoredEntry>,
    lease_sets: FxHashMap<Hash256, StoredEntry>,
    floodfill: bool,
}

/// Routing keys a thread's memo holds before it starts over.
const DAY_KEY_MEMO_CAP: usize = 4_096;

thread_local! {
    /// This thread's routing keys for one day: `(day, hash → key)`.
    /// [`NetDbStore::closest_floodfills`] ranks the same few floodfills
    /// against the same few records on every publish, flood and lookup,
    /// and each key is a SHA-256 digest. The memo is emptied when the
    /// day changes or it reaches [`DAY_KEY_MEMO_CAP`]; it only caches a
    /// pure function, so no result depends on it.
    static DAY_KEYS: RefCell<(u64, FxHashMap<Hash256, RoutingKey>)> =
        RefCell::new((0, FxHashMap::default()));
}

/// Result of offering a record to the store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreOutcome {
    /// Stored; record was new or newer than the stored copy. Floodfills
    /// should flood in this case (if the DSM wasn't itself a flood).
    StoredNewer,
    /// Ignored; we already hold an equal-or-newer copy.
    Stale,
    /// Rejected; the signature did not verify.
    BadSignature,
}

impl NetDbStore {
    /// Creates a store.
    pub fn new(config: StoreConfig) -> Self {
        NetDbStore {
            router_infos: FxHashMap::default(),
            lease_sets: FxHashMap::default(),
            floodfill: config.floodfill,
        }
    }

    /// Whether this store uses floodfill expiry rules.
    pub fn is_floodfill(&self) -> bool {
        self.floodfill
    }

    /// Offers a record (from a DSM, a reseed answer, a tunnel build, …).
    pub fn offer(&mut self, payload: NetDbPayload, now: SimTime) -> StoreOutcome {
        if !payload.verify() {
            return StoreOutcome::BadSignature;
        }
        let key = payload.search_key();
        let map = match payload {
            NetDbPayload::RouterInfo(_) => &mut self.router_infos,
            NetDbPayload::LeaseSet(_) => &mut self.lease_sets,
        };
        match map.get(&key) {
            Some(existing) if existing.payload.freshness() >= payload.freshness() => {
                StoreOutcome::Stale
            }
            _ => {
                map.insert(key, StoredEntry { payload, received: now });
                StoreOutcome::StoredNewer
            }
        }
    }

    /// Looks up a RouterInfo.
    pub fn router_info(&self, key: &Hash256) -> Option<&Arc<RouterInfo>> {
        match &self.router_infos.get(key)?.payload {
            NetDbPayload::RouterInfo(ri) => Some(ri),
            _ => None,
        }
    }

    /// Looks up a LeaseSet.
    pub fn lease_set(&self, key: &Hash256) -> Option<&Arc<LeaseSet>> {
        match &self.lease_sets.get(key)?.payload {
            NetDbPayload::LeaseSet(ls) => Some(ls),
            _ => None,
        }
    }

    /// Number of stored RouterInfos.
    pub fn router_count(&self) -> usize {
        self.router_infos.len()
    }

    /// Number of stored LeaseSets.
    pub fn leaseset_count(&self) -> usize {
        self.lease_sets.len()
    }

    /// Iterates over stored RouterInfos.
    pub fn router_infos(&self) -> impl Iterator<Item = &Arc<RouterInfo>> {
        self.router_infos.values().filter_map(|e| match &e.payload {
            NetDbPayload::RouterInfo(ri) => Some(ri),
            _ => None,
        })
    }

    /// Iterates over stored RouterInfos with their router hashes. The
    /// hash is the map key, so callers on hot paths (tunnel hop
    /// candidate collection runs per build attempt) get it for free
    /// instead of re-deriving a SHA-256 per record per visit.
    pub fn router_infos_keyed(&self) -> impl Iterator<Item = (&Hash256, &Arc<RouterInfo>)> {
        self.router_infos.iter().filter_map(|(k, e)| match &e.payload {
            NetDbPayload::RouterInfo(ri) => Some((k, ri)),
            _ => None,
        })
    }

    /// Expires old entries. Floodfills expire RouterInfos after 1 h,
    /// others after 24 h; LeaseSets expire when their last lease ends.
    /// Returns how many entries were dropped.
    pub fn expire(&mut self, now: SimTime) -> usize {
        let ri_ttl = if self.floodfill { FLOODFILL_RI_EXPIRY } else { ROUTER_RI_EXPIRY };
        let before = self.router_infos.len() + self.lease_sets.len();
        self.router_infos
            .retain(|_, e| now.since(e.received) < ri_ttl);
        self.lease_sets.retain(|_, e| match &e.payload {
            NetDbPayload::LeaseSet(ls) => !ls.is_expired(now),
            _ => false,
        });
        before - (self.router_infos.len() + self.lease_sets.len())
    }

    /// Drops everything (the fleet's daily cleanup, §4.3).
    pub fn clear(&mut self) {
        self.router_infos.clear();
        self.lease_sets.clear();
    }

    /// Among `floodfills`, the [`REPLICATION`] closest to `key`'s routing
    /// key at `now` — the publish/flood target set (§4.2).
    ///
    /// Routing keys are SHA-256 digests, so each is read from this
    /// thread's per-day memo (`DAY_KEYS`), computed at most once per
    /// day, and the sort runs over the distances. Equal distances keep
    /// the input order.
    pub fn closest_floodfills(
        key: &Hash256,
        floodfills: &[Hash256],
        now: SimTime,
        n: usize,
    ) -> Vec<Hash256> {
        let day = now.day();
        DAY_KEYS.with_borrow_mut(|(memo_day, keys)| {
            if *memo_day != day {
                keys.clear();
                *memo_day = day;
            }
            let mut key_of = |h: &Hash256| {
                if keys.len() >= DAY_KEY_MEMO_CAP {
                    keys.clear();
                }
                *keys
                    .entry(*h)
                    .or_insert_with(|| RoutingKey::for_day(h, day))
            };
            let target = key_of(key);
            let mut ranked: Vec<(i2p_data::hash::Distance, usize)> = floodfills
                .iter()
                .enumerate()
                .map(|(i, f)| (key_of(f).distance(&target), i))
                .collect();
            // (distance, original index) keys make the tie-breaking
            // explicit: equal distances keep input order.
            ranked.sort_unstable();
            ranked
                .into_iter()
                .take(n)
                .map(|(_, i)| floodfills[i])
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use i2p_crypto::DetRng;
    use i2p_data::caps::{BandwidthClass, Caps};
    use i2p_data::ident::RouterIdentity;

    fn ri_at(rng: &mut DetRng, published: SimTime) -> (RouterInfo, i2p_data::ident::IdentitySecrets) {
        let (ident, secrets) = RouterIdentity::generate(rng);
        let ri = RouterInfo::new_signed(
            ident,
            &secrets,
            published,
            vec![],
            Caps::standard(BandwidthClass::L),
            "0.9.34",
        );
        (ri, secrets)
    }

    #[test]
    fn offer_store_lookup() {
        let mut store = NetDbStore::new(StoreConfig { floodfill: true });
        let mut rng = DetRng::new(1);
        let (ri, _) = ri_at(&mut rng, SimTime(5));
        let h = ri.hash();
        assert_eq!(
            store.offer(NetDbPayload::RouterInfo(Arc::new(ri)), SimTime(10)),
            StoreOutcome::StoredNewer
        );
        assert!(store.router_info(&h).is_some());
        assert_eq!(store.router_count(), 1);
    }

    #[test]
    fn stale_offers_ignored_newer_accepted() {
        let mut store = NetDbStore::new(StoreConfig { floodfill: true });
        let mut rng = DetRng::new(2);
        let (ident, secrets) = RouterIdentity::generate(&mut rng);
        let old = RouterInfo::new_signed(
            ident,
            &secrets,
            SimTime(100),
            vec![],
            Caps::standard(BandwidthClass::L),
            "0.9.34",
        );
        let new = RouterInfo::new_signed(
            ident,
            &secrets,
            SimTime(200),
            vec![],
            Caps::standard(BandwidthClass::L),
            "0.9.34",
        );
        assert_eq!(
            store.offer(NetDbPayload::RouterInfo(Arc::new(new.clone())), SimTime(0)),
            StoreOutcome::StoredNewer
        );
        assert_eq!(
            store.offer(NetDbPayload::RouterInfo(Arc::new(old)), SimTime(0)),
            StoreOutcome::Stale
        );
        assert_eq!(
            store.offer(NetDbPayload::RouterInfo(Arc::new(new.clone())), SimTime(0)),
            StoreOutcome::Stale,
            "equal freshness is stale (>= rule)"
        );
        assert_eq!(store.router_info(&new.hash()).unwrap().published, SimTime(200));
    }

    #[test]
    fn bad_signature_rejected() {
        let mut store = NetDbStore::new(StoreConfig { floodfill: false });
        let mut rng = DetRng::new(3);
        let (mut ri, _) = ri_at(&mut rng, SimTime(5));
        ri.signature[0] ^= 1;
        assert_eq!(
            store.offer(NetDbPayload::RouterInfo(Arc::new(ri)), SimTime(0)),
            StoreOutcome::BadSignature
        );
        assert_eq!(store.router_count(), 0);
    }

    #[test]
    fn floodfill_expires_after_one_hour() {
        let mut store = NetDbStore::new(StoreConfig { floodfill: true });
        let mut rng = DetRng::new(4);
        let (ri, _) = ri_at(&mut rng, SimTime(0));
        let h = ri.hash();
        store.offer(NetDbPayload::RouterInfo(Arc::new(ri)), SimTime(0));
        assert_eq!(store.expire(SimTime(Duration::from_mins(59).as_millis())), 0);
        assert!(store.router_info(&h).is_some());
        assert_eq!(store.expire(SimTime(Duration::from_mins(61).as_millis())), 1);
        assert!(store.router_info(&h).is_none());
    }

    #[test]
    fn non_floodfill_keeps_longer() {
        let mut store = NetDbStore::new(StoreConfig { floodfill: false });
        let mut rng = DetRng::new(5);
        let (ri, _) = ri_at(&mut rng, SimTime(0));
        store.offer(NetDbPayload::RouterInfo(Arc::new(ri)), SimTime(0));
        assert_eq!(store.expire(SimTime(Duration::from_hours(2).as_millis())), 0);
        assert_eq!(store.expire(SimTime(Duration::from_hours(25).as_millis())), 1);
    }

    #[test]
    fn clear_is_daily_cleanup() {
        let mut store = NetDbStore::new(StoreConfig { floodfill: true });
        let mut rng = DetRng::new(6);
        for _ in 0..5 {
            let (ri, _) = ri_at(&mut rng, SimTime(0));
            store.offer(NetDbPayload::RouterInfo(Arc::new(ri)), SimTime(0));
        }
        assert_eq!(store.router_count(), 5);
        store.clear();
        assert_eq!(store.router_count(), 0);
    }

    /// `closest_floodfills` without the memo: rank by fresh keys.
    fn closest_reference(key: &Hash256, ffs: &[Hash256], day: u64, n: usize) -> Vec<Hash256> {
        let target = RoutingKey::for_day(key, day);
        let mut v = ffs.to_vec();
        v.sort_by_cached_key(|f| RoutingKey::for_day(f, day).distance(&target));
        v.truncate(n);
        v
    }

    #[test]
    fn closest_floodfills_match_fresh_keys_across_days_and_the_memo_cap() {
        // More distinct hashes than the memo holds, revisited over
        // several days and out of day order. Each day starts and ends
        // with a small set, so its keys are memoized when the day
        // changes. Every answer must equal the ranking by fresh keys.
        let ffs: Vec<Hash256> = (0u32..DAY_KEY_MEMO_CAP as u32 + 300)
            .map(|i| Hash256::digest(&i.to_be_bytes()))
            .collect();
        let few = &ffs[..30];
        let record = Hash256::digest(b"record");
        for day in [3u64, 4, 3, 9] {
            let now = SimTime::from_day_ms(day, 7);
            let check = |key: &Hash256, set: &[Hash256], n: usize| {
                let got = NetDbStore::closest_floodfills(key, set, now, n);
                assert_eq!(got, closest_reference(key, set, day, n), "day {day}");
            };
            check(&record, few, 3);
            for (k, chunk) in ffs.chunks(1_000).enumerate() {
                check(&Hash256::digest(&[k as u8, day as u8]), chunk, 5);
            }
            check(&Hash256::digest(b"whole set"), &ffs, 3);
            check(&record, few, 3);
        }
    }

    #[test]
    fn closest_floodfills_uses_daily_keys() {
        let ffs: Vec<Hash256> = (0u8..30).map(|i| Hash256::digest(&[i])).collect();
        let key = Hash256::digest(b"record");
        let day0 = NetDbStore::closest_floodfills(&key, &ffs, SimTime::from_day_ms(0, 0), 3);
        let day1 = NetDbStore::closest_floodfills(&key, &ffs, SimTime::from_day_ms(1, 0), 3);
        assert_eq!(day0.len(), 3);
        assert_ne!(day0, day1, "rotation must re-shuffle the replica set");
    }
}
