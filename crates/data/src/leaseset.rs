//! LeaseSets: netDb records for hidden-service destinations.
//!
//! "Bob's LeaseSet tells Alice the contact information of the tunnel
//! gateway of Bob's inbound tunnel" (Hoang et al. §2.1.2). The usability
//! experiment (Fig. 14) needs LeaseSets end to end: fetching an eepsite
//! requires looking up its LeaseSet at floodfills, then sending garlic
//! messages to one of its inbound gateways.

use crate::codec::{DecodeError, Reader, Writer};
use crate::hash::Hash256;
use crate::ident::{verify, IdentitySecrets, RouterIdentity};
use crate::time::SimTime;

/// One lease: an inbound-tunnel gateway that can reach the destination.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Lease {
    /// The gateway router of the destination's inbound tunnel. Published,
    /// per §2.1.1 ("gateways of inbound tunnels are published").
    pub gateway: Hash256,
    /// Tunnel identifier on that gateway.
    pub tunnel_id: u32,
    /// When the lease (tunnel) expires.
    pub end_date: SimTime,
}

/// A signed LeaseSet for a destination.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LeaseSet {
    /// Destination identity (same structure as a router identity).
    pub destination: RouterIdentity,
    /// Current leases (I2P allows up to 16; tunnels rotate every 10 min).
    pub leases: Vec<Lease>,
    /// HMAC signature over the body.
    pub signature: [u8; 32],
}

impl LeaseSet {
    /// Builds and signs a LeaseSet.
    pub fn new_signed(
        destination: RouterIdentity,
        secrets: &IdentitySecrets,
        leases: Vec<Lease>,
    ) -> Self {
        assert!(leases.len() <= 16, "at most 16 leases per LeaseSet");
        let mut ls = LeaseSet { destination, leases, signature: [0; 32] };
        ls.signature = secrets.sign(&ls.body_bytes());
        ls
    }

    /// The destination hash (the netDb search key material).
    pub fn dest_hash(&self) -> Hash256 {
        self.destination.hash()
    }

    fn body_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.destination.encode(&mut w);
        w.u8(self.leases.len() as u8);
        for l in &self.leases {
            w.bytes(&l.gateway.0);
            w.u32(l.tunnel_id);
            w.u64(l.end_date.as_millis());
        }
        w.into_bytes()
    }

    /// Verifies the signature.
    pub fn verify(&self) -> bool {
        verify(&self.destination, &self.body_bytes(), &self.signature)
    }

    /// Full binary encoding.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = self.body_bytes();
        body.extend_from_slice(&self.signature);
        body
    }

    /// Decodes (signature not verified here).
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let destination = RouterIdentity::decode(&mut r)?;
        let n = r.u8("leaseset.count")? as usize;
        if n > 16 {
            return Err(DecodeError::Invalid { what: "leaseset.count" });
        }
        let mut leases = Vec::with_capacity(n);
        for _ in 0..n {
            let gateway = Hash256(r.array32("lease.gateway")?);
            let tunnel_id = r.u32("lease.tunnel_id")?;
            let end_date = SimTime(r.u64("lease.end_date")?);
            leases.push(Lease { gateway, tunnel_id, end_date });
        }
        let signature = r.array32("leaseset.signature")?;
        if !r.is_empty() {
            return Err(DecodeError::Invalid { what: "leaseset.trailing" });
        }
        Ok(LeaseSet { destination, leases, signature })
    }

    /// Leases that are still valid at `now`.
    pub fn live_leases(&self, now: SimTime) -> impl Iterator<Item = &Lease> {
        self.leases.iter().filter(move |l| l.end_date > now)
    }

    /// Whether the whole LeaseSet is expired at `now`.
    pub fn is_expired(&self, now: SimTime) -> bool {
        self.live_leases(now).next().is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use i2p_crypto::DetRng;

    fn sample(rng: &mut DetRng, n_leases: usize, end: SimTime) -> LeaseSet {
        let (dest, secrets) = RouterIdentity::generate(rng);
        let leases = (0..n_leases)
            .map(|i| Lease {
                gateway: Hash256::digest(&[i as u8]),
                tunnel_id: i as u32 + 1,
                end_date: end,
            })
            .collect();
        LeaseSet::new_signed(dest, &secrets, leases)
    }

    #[test]
    fn roundtrip_and_verify() {
        let mut rng = DetRng::new(20);
        let ls = sample(&mut rng, 3, SimTime(60_000));
        assert!(ls.verify());
        let back = LeaseSet::decode(&ls.encode()).unwrap();
        assert_eq!(back, ls);
        assert!(back.verify());
    }

    #[test]
    fn expiry_semantics() {
        let mut rng = DetRng::new(21);
        let ls = sample(&mut rng, 2, SimTime(600_000));
        assert!(!ls.is_expired(SimTime(0)));
        assert_eq!(ls.live_leases(SimTime(0)).count(), 2);
        assert!(ls.is_expired(SimTime(600_000)));
    }

    #[test]
    fn empty_leaseset_is_expired() {
        let mut rng = DetRng::new(22);
        let ls = sample(&mut rng, 0, SimTime(1));
        assert!(ls.is_expired(SimTime(0)));
    }

    #[test]
    fn too_many_leases_rejected_on_decode() {
        let mut rng = DetRng::new(23);
        let ls = sample(&mut rng, 1, SimTime(1));
        let mut bytes = ls.encode();
        // The lease count byte sits right after the 41-byte identity.
        bytes[41] = 17;
        assert!(LeaseSet::decode(&bytes).is_err());
    }

    #[test]
    fn tamper_detection() {
        let mut rng = DetRng::new(24);
        let ls = sample(&mut rng, 1, SimTime(1));
        let mut bytes = ls.encode();
        let n = bytes.len();
        bytes[n - 40] ^= 1; // flip a bit inside the lease data
        let back = LeaseSet::decode(&bytes).unwrap();
        assert!(!back.verify());
    }
}
