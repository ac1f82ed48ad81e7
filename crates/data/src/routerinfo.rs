//! RouterInfo: the netDb record describing one router.
//!
//! "A RouterInfo provides contact information about a particular I2P peer,
//! including its key, capacity, address, and port" (Hoang et al. §2.1.2).
//! Notably, the `expiration` field exists in the structure **but is not
//! used** by the real software (§4.3) — the paper leans on this: a stored
//! RouterInfo proves presence, not liveness, which is why the monitoring
//! fleet wipes its netDb daily. We keep the unused field for fidelity.

use crate::addr::RouterAddress;
use crate::caps::Caps;
use crate::codec::{DecodeError, Reader, Writer};
use crate::hash::Hash256;
use crate::ident::{verify, IdentitySecrets, RouterIdentity};
use crate::time::SimTime;
use i2p_crypto::HmacKey;

/// A signed RouterInfo record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RouterInfo {
    /// The router's public identity.
    pub identity: RouterIdentity,
    /// Publication timestamp.
    pub published: SimTime,
    /// Transport addresses (empty for hidden routers).
    pub addresses: Vec<RouterAddress>,
    /// Capacity flags.
    pub caps: Caps,
    /// Always-zero expiration, mirroring the unused field (§4.3).
    pub expiration: u64,
    /// Router software version string (e.g. "0.9.34").
    pub version: String,
    /// HMAC signature over the body.
    pub signature: [u8; 32],
}

impl RouterInfo {
    /// Builds and signs a RouterInfo.
    pub fn new_signed(
        identity: RouterIdentity,
        secrets: &IdentitySecrets,
        published: SimTime,
        addresses: Vec<RouterAddress>,
        caps: Caps,
        version: &str,
    ) -> Self {
        let mut ri = RouterInfo {
            identity,
            published,
            addresses,
            caps,
            expiration: 0,
            version: version.to_string(),
            signature: [0; 32],
        };
        ri.signature = secrets.sign(&ri.body_bytes());
        ri
    }

    /// The router hash (permanent peer identifier).
    pub fn hash(&self) -> Hash256 {
        self.identity.hash()
    }

    /// The signed body (everything except the signature).
    fn body_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        write_body(
            &mut w,
            &self.identity,
            self.published,
            &self.addresses,
            self.caps,
            &self.version,
            self.expiration,
        );
        w.into_bytes()
    }

    /// Appends the encoding of a freshly signed RouterInfo to `out`:
    /// the bytes `new_signed(identity, secrets, published, addresses,
    /// caps, version).encode()` gives when `key` is
    /// `secrets.signing_key()`, but with the body encoded once, straight
    /// into `out`, and signed where it lies — for signers that emit
    /// many records, like the store's capture.
    pub fn encode_signed(
        identity: &RouterIdentity,
        key: &HmacKey,
        published: SimTime,
        addresses: &[RouterAddress],
        caps: Caps,
        version: &str,
        out: &mut Vec<u8>,
    ) {
        let start = out.len();
        let mut w = Writer::append_to(std::mem::take(out));
        write_body(&mut w, identity, published, addresses, caps, version, 0);
        *out = w.into_bytes();
        let signature = key.mac(&out[start..]);
        out.extend_from_slice(&signature);
    }

    /// Verifies the signature.
    pub fn verify(&self) -> bool {
        verify(&self.identity, &self.body_bytes(), &self.signature)
    }

    /// Full binary encoding (body + signature).
    pub fn encode(&self) -> Vec<u8> {
        let mut body = self.body_bytes();
        body.extend_from_slice(&self.signature);
        body
    }

    /// Decodes and structurally validates (does **not** verify the
    /// signature; call [`RouterInfo::verify`]).
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let identity = RouterIdentity::decode(&mut r)?;
        let published = SimTime(r.u64("routerinfo.published")?);
        let n = r.u8("routerinfo.address-count")? as usize;
        let mut addresses = Vec::with_capacity(n);
        for _ in 0..n {
            addresses.push(RouterAddress::decode(&mut r)?);
        }
        let mapping = r.mapping("routerinfo.options")?;
        let mut caps = None;
        let mut version = String::new();
        for (k, v) in mapping {
            match k.as_str() {
                "caps" => caps = Some(Caps::parse(&v)?),
                "router.version" => version = v,
                _ => {}
            }
        }
        let caps = caps.ok_or(DecodeError::Invalid { what: "routerinfo.caps" })?;
        let expiration = r.u64("routerinfo.expiration")?;
        let signature = r.array32("routerinfo.signature")?;
        if !r.is_empty() {
            return Err(DecodeError::Invalid { what: "routerinfo.trailing" });
        }
        Ok(RouterInfo { identity, published, addresses, caps, expiration, version, signature })
    }

    /// All IPs this RouterInfo exposes to an address-based censor: its own
    /// published addresses (the introducer IPs belong to *other* peers'
    /// RouterInfos and are counted there).
    pub fn published_ips(&self) -> Vec<crate::addr::PeerIp> {
        self.addresses.iter().filter_map(|a| a.ip).collect()
    }

    /// Whether the record publishes **no** valid IP (the paper's
    /// "unknown-IP" peers, Fig. 6).
    pub fn is_unknown_ip(&self) -> bool {
        self.published_ips().is_empty()
    }

    /// Firewalled = no IP but introducers present (§5.1).
    pub fn is_firewalled(&self) -> bool {
        self.is_unknown_ip() && self.addresses.iter().any(|a| !a.introducers.is_empty())
    }

    /// Hidden = no IP and no introducers (§5.1).
    pub fn is_hidden(&self) -> bool {
        self.is_unknown_ip() && !self.is_firewalled()
    }
}

/// Writes a RouterInfo's signed body: the one body writer behind
/// [`RouterInfo::verify`], [`RouterInfo::encode`] and
/// [`RouterInfo::encode_signed`].
fn write_body(
    w: &mut Writer,
    identity: &RouterIdentity,
    published: SimTime,
    addresses: &[RouterAddress],
    caps: Caps,
    version: &str,
    expiration: u64,
) {
    identity.encode(w);
    w.u64(published.as_millis());
    w.u8(addresses.len() as u8);
    for a in addresses {
        a.encode(w);
    }
    let caps = caps.to_inline_caps();
    w.mapping([("caps", caps.as_str()), ("router.version", version)]);
    w.u64(expiration);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Introducer, PeerIp, TransportStyle};
    use crate::caps::BandwidthClass;
    use i2p_crypto::DetRng;

    fn sample(rng: &mut DetRng, addresses: Vec<RouterAddress>) -> RouterInfo {
        let (ident, secrets) = RouterIdentity::generate(rng);
        RouterInfo::new_signed(
            ident,
            &secrets,
            SimTime::from_day_ms(2, 777),
            addresses,
            Caps::standard(BandwidthClass::O),
            "0.9.34",
        )
    }

    #[test]
    fn encode_decode_verify_roundtrip() {
        let mut rng = DetRng::new(10);
        let ri = sample(
            &mut rng,
            vec![RouterAddress::published(TransportStyle::Ntcp, PeerIp::V4(0x01020304), 10001)],
        );
        assert!(ri.verify());
        let bytes = ri.encode();
        let back = RouterInfo::decode(&bytes).unwrap();
        assert_eq!(back, ri);
        assert!(back.verify());
    }

    #[test]
    fn tampered_record_fails_verification() {
        let mut rng = DetRng::new(11);
        let ri = sample(
            &mut rng,
            vec![RouterAddress::published(TransportStyle::Ntcp, PeerIp::V4(5), 9000)],
        );
        let mut bytes = ri.encode();
        // Flip a byte in the published timestamp region (after the 41-byte
        // identity).
        bytes[45] ^= 0xFF;
        let back = RouterInfo::decode(&bytes).unwrap();
        assert!(!back.verify());
    }

    #[test]
    fn classification_published_firewalled_hidden() {
        let mut rng = DetRng::new(12);
        let published = sample(
            &mut rng,
            vec![RouterAddress::published(TransportStyle::Ssu, PeerIp::V4(9), 9999)],
        );
        assert!(!published.is_unknown_ip());
        assert!(!published.is_firewalled());
        assert!(!published.is_hidden());

        let firewalled = sample(
            &mut rng,
            vec![RouterAddress::firewalled(vec![Introducer {
                router: Hash256::digest(b"intro"),
                ip: PeerIp::V4(77),
                tag: 1,
            }])],
        );
        assert!(firewalled.is_unknown_ip());
        assert!(firewalled.is_firewalled());
        assert!(!firewalled.is_hidden());

        let hidden = sample(&mut rng, vec![]);
        assert!(hidden.is_unknown_ip());
        assert!(hidden.is_hidden());
    }

    #[test]
    fn encode_signed_matches_new_signed_encode() {
        // Published, dual-stack, firewalled and hidden address shapes,
        // each appended behind the previous record: `encode_signed` must
        // write exactly `new_signed(..).encode()`.
        let mut rng = DetRng::new(15);
        let (ident, secrets) = RouterIdentity::generate(&mut rng);
        let key = secrets.signing_key();
        let shapes = [
            vec![RouterAddress::published(TransportStyle::Ntcp, PeerIp::V4(0x0A00_0001), 9000)],
            vec![
                RouterAddress::published(TransportStyle::Ntcp, PeerIp::V4(0x0A00_0002), 31000),
                RouterAddress::published(TransportStyle::Ssu, PeerIp::V6(7 << 100), 31000),
            ],
            vec![RouterAddress::firewalled(vec![Introducer {
                router: Hash256::digest(b"intro"),
                ip: PeerIp::V4(77),
                tag: 9,
            }])],
            vec![],
        ];
        let mut out = b"earlier records".to_vec();
        for (i, addresses) in shapes.into_iter().enumerate() {
            let caps = Caps { floodfill: i % 2 == 0, ..Caps::standard(BandwidthClass::X) };
            let published = SimTime::from_day_ms(i as u64, 0);
            let start = out.len();
            RouterInfo::encode_signed(&ident, &key, published, &addresses, caps, "0.9.34", &mut out);
            let reference =
                RouterInfo::new_signed(ident, &secrets, published, addresses, caps, "0.9.34");
            assert_eq!(&out[start..], reference.encode(), "shape {i}");
            assert!(RouterInfo::decode(&out[start..]).unwrap().verify(), "shape {i}");
        }
        assert!(out.starts_with(b"earlier records"));
    }

    #[test]
    fn expiration_field_kept_zero() {
        let mut rng = DetRng::new(13);
        let ri = sample(&mut rng, vec![]);
        assert_eq!(ri.expiration, 0, "the unused field stays zero, mirroring §4.3");
    }

    #[test]
    fn truncated_input_rejected() {
        let mut rng = DetRng::new(14);
        let ri = sample(&mut rng, vec![]);
        let bytes = ri.encode();
        for cut in [0usize, 10, bytes.len() - 1] {
            assert!(RouterInfo::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }
}
