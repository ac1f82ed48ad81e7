//! netDb protocol payloads.
//!
//! "To publish his LeaseSets, Bob sends a DatabaseStoreMessage (DSM) …
//! To query Bob's LeaseSet information, Alice sends a
//! DatabaseLookupMessage (DLM) to those floodfill routers."
//! (Hoang et al. §2.1.2.)

use i2p_data::{Hash256, LeaseSet, RouterInfo};
use std::sync::Arc;

/// The record carried by a [`DatabaseStore`].
///
/// A signed record never changes, so it travels behind an [`Arc`]:
/// every store, flood, lookup reply and forked network holds a pointer
/// to the one copy instead of a deep clone. Nothing mutates a shared
/// record; a changed record is a new, re-signed one.
#[derive(Clone, Debug, PartialEq)]
pub enum NetDbPayload {
    /// A router's contact record.
    RouterInfo(Arc<RouterInfo>),
    /// A destination's lease record.
    LeaseSet(Arc<LeaseSet>),
}

impl NetDbPayload {
    /// The search key the record is indexed under: the router hash or the
    /// destination hash.
    pub fn search_key(&self) -> Hash256 {
        match self {
            NetDbPayload::RouterInfo(ri) => ri.hash(),
            NetDbPayload::LeaseSet(ls) => ls.dest_hash(),
        }
    }

    /// Publication/creation timestamp used for the newer-than check that
    /// gates flooding (§4.2).
    pub fn freshness(&self) -> u64 {
        match self {
            NetDbPayload::RouterInfo(ri) => ri.published.as_millis(),
            NetDbPayload::LeaseSet(ls) => ls
                .leases
                .iter()
                .map(|l| l.end_date.as_millis())
                .max()
                .unwrap_or(0),
        }
    }

    /// Signature validity.
    pub fn verify(&self) -> bool {
        match self {
            NetDbPayload::RouterInfo(ri) => ri.verify(),
            NetDbPayload::LeaseSet(ls) => ls.verify(),
        }
    }
}

/// DatabaseStoreMessage: publish (or flood) a record.
#[derive(Clone, Debug, PartialEq)]
pub struct DatabaseStore {
    /// The record.
    pub payload: NetDbPayload,
    /// Non-zero when the receiver should ack (direct publishes); zero for
    /// floods.
    pub reply_token: u32,
    /// Whether this DSM arrived via the flooding mechanism (floods are
    /// not re-flooded).
    pub flooded: bool,
}

/// What a lookup asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LookupKind {
    /// A RouterInfo by router hash.
    RouterInfo,
    /// A LeaseSet by destination hash.
    LeaseSet,
    /// Anything under the key — used for exploratory lookups that harvest
    /// RouterInfos ("peers that do not have a sufficient amount of
    /// RouterInfos … send a DLM to floodfill routers", §4.2).
    Exploratory,
}

/// DatabaseLookupMessage: query a floodfill.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DatabaseLookup {
    /// The search key.
    pub key: Hash256,
    /// Who to send the reply to.
    pub from: Hash256,
    /// What kind of record is wanted.
    pub kind: LookupKind,
    /// Peers the requester already tried (excluded from closer-peer
    /// suggestions).
    pub exclude: Vec<Hash256>,
    /// Tunnel-routed replies: when set, the responder hands its reply to
    /// this relay for forwarding instead of contacting `from` directly.
    /// Real I2P routes lookups and replies through exploratory tunnels,
    /// so a censor at the requester's uplink only ever sees the
    /// requester's adjacent hops (§2.1.2).
    pub reply_via: Option<Hash256>,
}

/// DatabaseSearchReply: returned when a floodfill does not have the
/// record; suggests closer floodfills, plus a sample of RouterInfos for
/// exploratory lookups.
#[derive(Clone, Debug, PartialEq)]
pub struct SearchReply {
    /// The key that was looked up.
    pub key: Hash256,
    /// Hashes of floodfills closer to the key.
    pub closer: Vec<Hash256>,
    /// RouterInfos bundled in the reply (exploration harvest).
    pub routers: Vec<Arc<RouterInfo>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use i2p_crypto::DetRng;
    use i2p_data::caps::{BandwidthClass, Caps};
    use i2p_data::ident::RouterIdentity;
    use i2p_data::leaseset::Lease;
    use i2p_data::SimTime;

    fn ri(rng: &mut DetRng) -> RouterInfo {
        let (ident, secrets) = RouterIdentity::generate(rng);
        RouterInfo::new_signed(
            ident,
            &secrets,
            SimTime(42),
            vec![],
            Caps::standard(BandwidthClass::L),
            "0.9.34",
        )
    }

    #[test]
    fn search_key_matches_hash() {
        let mut rng = DetRng::new(1);
        let r = ri(&mut rng);
        let p = NetDbPayload::RouterInfo(Arc::new(r.clone()));
        assert_eq!(p.search_key(), r.hash());
        assert!(p.verify());
        assert_eq!(p.freshness(), 42);
    }

    #[test]
    fn leaseset_freshness_is_latest_lease() {
        let mut rng = DetRng::new(2);
        let (dest, secrets) = RouterIdentity::generate(&mut rng);
        let ls = LeaseSet::new_signed(
            dest,
            &secrets,
            vec![
                Lease { gateway: Hash256::digest(b"g1"), tunnel_id: 1, end_date: SimTime(100) },
                Lease { gateway: Hash256::digest(b"g2"), tunnel_id: 2, end_date: SimTime(900) },
            ],
        );
        let p = NetDbPayload::LeaseSet(Arc::new(ls));
        assert_eq!(p.freshness(), 900);
    }
}
