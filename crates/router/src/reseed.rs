//! Reseed servers and manual reseeding.
//!
//! Bootstrapping: "a newly joining peer initially learns a small portion
//! of the netDb … by fetching information about other peers in the
//! network from a set of hardcoded reseed servers" — about 150
//! RouterInfos, roughly 75 from each of two servers (Hoang et al. §4.2).
//! Anti-harvesting: "reseed servers are designed so that they only
//! provide the same set of RouterInfos if the requesting source is the
//! same" (§4). Manual reseeding: any peer can export an `i2pseeds.su3`
//! file and share it out of band when the censor blocks all reseed
//! servers (§6.1).

use i2p_crypto::{hmac_sha256, DetRng};
use i2p_data::{PeerIp, RouterInfo, SimTime};
use std::sync::Arc;

/// RouterInfos per reseed answer (≈75 each from two servers, §4.2).
pub const RESEED_ANSWER_SIZE: usize = 75;

/// A reseed server: holds a rolling window of RouterInfos it knows.
#[derive(Clone, Debug)]
pub struct ReseedServer {
    /// Server identity salt (distinguishes the hardcoded servers).
    salt: u64,
    /// Known RouterInfos (the server is "equivalent to any other peer …
    /// with the extra ability to announce a small portion of known
    /// routers", §2.1.2).
    known: Vec<Arc<RouterInfo>>,
    /// Whether the censor blocks this server (reseed blocking, §6.1).
    pub blocked: bool,
}

impl ReseedServer {
    /// Creates a server.
    pub fn new(salt: u64) -> Self {
        ReseedServer { salt, known: Vec::new(), blocked: false }
    }

    /// Refreshes the server's known set.
    pub fn set_known(&mut self, known: Vec<Arc<RouterInfo>>) {
        self.known = known;
    }

    /// Answers a reseed request from `source`. Deterministic per source
    /// IP: repeated requests from the same address yield the same subset,
    /// defeating cheap crawling (§4). Returns `None` when blocked.
    pub fn answer(&self, source: PeerIp) -> Option<Vec<Arc<RouterInfo>>> {
        if self.blocked {
            return None;
        }
        if self.known.is_empty() {
            return Some(Vec::new());
        }
        // Derive a per-source permutation seed from HMAC(salt, source).
        let key = self.salt.to_be_bytes();
        let digest = hmac_sha256(&key, &source.digest64().to_be_bytes());
        let seed = u64::from_be_bytes(digest[..8].try_into().unwrap()); // i2plint: allow(panic-audit) -- digest is [u8; 32]; 8 bytes always exist
        let mut rng = DetRng::new(seed);
        let take = RESEED_ANSWER_SIZE.min(self.known.len());
        let idx = rng.sample_indices(self.known.len(), take);
        Some(idx.into_iter().map(|i| self.known[i].clone()).collect())
    }
}

/// A manual reseed file (`i2pseeds.su3`, §6.1): a bundle of RouterInfos
/// exported by a running peer and shared out of band.
#[derive(Clone, Debug, PartialEq)]
pub struct ReseedFile {
    /// Bundled records.
    pub routers: Vec<RouterInfo>,
    /// When the file was created (records age out of usefulness).
    pub created: SimTime,
}

impl ReseedFile {
    /// Exports a reseed file from a peer's netDb view.
    pub fn export(routers: Vec<RouterInfo>, created: SimTime) -> Self {
        ReseedFile { routers, created }
    }

    /// Serialized form (concatenated RouterInfo encodings with a count
    /// header) — so the file can be "shared via a secondary channel".
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut v = Vec::new();
        v.extend_from_slice(b"su3\x00");
        v.extend_from_slice(&self.created.as_millis().to_be_bytes());
        v.extend_from_slice(&(self.routers.len() as u32).to_be_bytes());
        for r in &self.routers {
            let enc = r.encode();
            v.extend_from_slice(&(enc.len() as u32).to_be_bytes());
            v.extend_from_slice(&enc);
        }
        v
    }

    /// Parses a reseed file.
    pub fn from_bytes(b: &[u8]) -> Option<Self> {
        if b.len() < 16 || &b[..4] != b"su3\x00" {
            return None;
        }
        let created = SimTime(u64::from_be_bytes(b[4..12].try_into().ok()?));
        let n = u32::from_be_bytes(b[12..16].try_into().ok()?) as usize;
        // Every record carries at least its 4-byte length prefix, so a
        // count the remaining bytes cannot hold is refused before it
        // sizes an allocation.
        if n > (b.len() - 16) / 4 {
            return None;
        }
        let mut pos = 16;
        let mut routers = Vec::with_capacity(n);
        for _ in 0..n {
            let len = u32::from_be_bytes(b.get(pos..pos + 4)?.try_into().ok()?) as usize;
            pos += 4;
            let ri = RouterInfo::decode(b.get(pos..pos + len)?).ok()?;
            pos += len;
            routers.push(ri);
        }
        if pos != b.len() {
            return None;
        }
        Some(ReseedFile { routers, created })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use i2p_data::caps::{BandwidthClass, Caps};
    use i2p_data::ident::RouterIdentity;

    fn make_routers(n: usize, seed: u64) -> Vec<Arc<RouterInfo>> {
        let mut rng = DetRng::new(seed);
        (0..n)
            .map(|_| {
                let (ident, secrets) = RouterIdentity::generate(&mut rng);
                Arc::new(RouterInfo::new_signed(
                    ident,
                    &secrets,
                    SimTime(1),
                    vec![],
                    Caps::standard(BandwidthClass::L),
                    "0.9.34",
                ))
            })
            .collect()
    }

    fn reseed_file(n: usize, seed: u64, created: SimTime) -> ReseedFile {
        let routers = make_routers(n, seed).iter().map(|ri| RouterInfo::clone(ri)).collect();
        ReseedFile::export(routers, created)
    }

    #[test]
    fn same_source_same_answer() {
        let mut srv = ReseedServer::new(1);
        srv.set_known(make_routers(300, 9));
        let a1 = srv.answer(PeerIp::V4(100)).unwrap();
        let a2 = srv.answer(PeerIp::V4(100)).unwrap();
        assert_eq!(a1, a2, "anti-harvesting: per-source determinism");
        assert_eq!(a1.len(), RESEED_ANSWER_SIZE);
    }

    #[test]
    fn different_sources_differ() {
        let mut srv = ReseedServer::new(1);
        srv.set_known(make_routers(300, 10));
        let a = srv.answer(PeerIp::V4(1)).unwrap();
        let b = srv.answer(PeerIp::V4(2)).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn different_servers_differ_for_same_source() {
        let known = make_routers(300, 11);
        let mut s1 = ReseedServer::new(1);
        let mut s2 = ReseedServer::new(2);
        s1.set_known(known.clone());
        s2.set_known(known);
        assert_ne!(s1.answer(PeerIp::V4(5)), s2.answer(PeerIp::V4(5)));
    }

    #[test]
    fn blocked_server_unreachable() {
        let mut srv = ReseedServer::new(1);
        srv.set_known(make_routers(100, 12));
        srv.blocked = true;
        assert_eq!(srv.answer(PeerIp::V4(1)), None);
    }

    #[test]
    fn small_known_set_served_whole() {
        let mut srv = ReseedServer::new(1);
        srv.set_known(make_routers(10, 13));
        assert_eq!(srv.answer(PeerIp::V4(1)).unwrap().len(), 10);
    }

    #[test]
    fn reseed_file_roundtrip() {
        let file = reseed_file(5, 14, SimTime(777));
        let bytes = file.to_bytes();
        let back = ReseedFile::from_bytes(&bytes).unwrap();
        assert_eq!(back, file);
    }

    #[test]
    fn reseed_file_rejects_garbage() {
        assert!(ReseedFile::from_bytes(b"nope").is_none());
        let file = reseed_file(2, 15, SimTime(1));
        let mut bytes = file.to_bytes();
        bytes.push(0);
        assert!(ReseedFile::from_bytes(&bytes).is_none());
    }

    #[test]
    fn reseed_file_rejects_inflated_count() {
        // A bare header claiming u32::MAX records: sizing the record
        // vector from the claim alone would ask for hundreds of GB.
        let mut bare = b"su3\x00".to_vec();
        bare.extend_from_slice(&1u64.to_be_bytes());
        bare.extend_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(bare.len(), 16);
        assert!(ReseedFile::from_bytes(&bare).is_none());
        // A real file whose count claims more records than it holds.
        let mut bytes = reseed_file(2, 16, SimTime(1)).to_bytes();
        bytes[12..16].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(ReseedFile::from_bytes(&bytes).is_none());
        bytes[12..16].copy_from_slice(&3u32.to_be_bytes());
        assert!(ReseedFile::from_bytes(&bytes).is_none());
    }
}
