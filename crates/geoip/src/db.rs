//! The offline geo/AS database and location sampler.
//!
//! Replaces the paper's locally-installed MaxMind database (Hoang et al.
//! §3: "we do not query any public APIs … we use a locally installed
//! version of the MaxMind Database to map them in an offline fashion").
//!
//! ## Address plan
//!
//! Every AS (explicit or synthetic-tail) owns 64 consecutive /16 IPv4
//! blocks: AS index `i` owns prefixes `[i·64, i·64 + 64)`. Lookup is thus
//! `prefix16 / 64 → AS index`, mirroring a longest-prefix-match table at
//! simulation scale. A small top slice of the prefix space is left
//! unallocated to model the ≈2 K addresses MaxMind could not resolve
//! (§5.3.2). IPv6 addresses embed the same AS index in bits 112..96 of a
//! `2001:db8::/32`-style layout.

use crate::data::{CountryRec, ASES, COUNTRIES, PRESS_FREEDOM_THRESHOLD, TAIL_COUNTRIES, TAIL_TOTAL_WEIGHT};
use i2p_crypto::DetRng;
use i2p_data::PeerIp;

/// Blocks of /16 per AS.
const BLOCKS_PER_AS: u32 = 64;

/// Index of a country in the database.
pub type CountryId = usize;
/// Index of an AS in the database.
pub type AsId = usize;

/// A resolved location.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Location {
    /// Country index.
    pub country: CountryId,
    /// AS index.
    pub asn_id: AsId,
}

#[derive(Clone, Debug)]
struct Country {
    code: String,
    name: String,
    press_freedom: f64,
    weight: f64,
}

#[derive(Clone, Debug)]
struct AsEntry {
    asn: u32,
    country: CountryId,
    global_weight: f64,
}

/// The offline database.
#[derive(Clone, Debug)]
pub struct GeoDb {
    countries: Vec<Country>,
    ases: Vec<AsEntry>,
    /// Cumulative global AS weights for sampling.
    cum_weights: Vec<f64>,
}

impl Default for GeoDb {
    fn default() -> Self {
        Self::new()
    }
}

impl GeoDb {
    /// Builds the database from the static tables plus the synthetic
    /// tail.
    pub fn new() -> Self {
        let mut countries: Vec<Country> = COUNTRIES
            .iter()
            .map(|c: &CountryRec| Country {
                code: c.code.to_string(),
                name: c.name.to_string(),
                press_freedom: c.press_freedom,
                weight: c.weight,
            })
            .collect();
        // Synthetic tail countries with a shifted-Zipf weight profile;
        // the shift keeps the largest tail country below the smallest
        // explicit top-20 entry (ZA), preserving Fig. 10's ordering.
        let tail_norm: f64 = (1..=TAIL_COUNTRIES).map(|k| 1.0 / (k + 20) as f64).sum();
        for k in 1..=TAIL_COUNTRIES {
            countries.push(Country {
                code: format!("T{k:03}"),
                name: format!("Tail Country {k}"),
                press_freedom: 35.0,
                weight: TAIL_TOTAL_WEIGHT * (1.0 / (k + 20) as f64) / tail_norm,
            });
        }
        let code_index = |code: &str| countries.iter().position(|c| c.code == code).unwrap(); // i2plint: allow(panic-audit) -- the explicit-AS table below only names codes inserted above

        // Explicit ASes: global weight = country weight × within-country
        // share.
        let mut ases: Vec<AsEntry> = Vec::new();
        for a in ASES {
            let country = code_index(a.country);
            ases.push(AsEntry {
                asn: a.asn,
                country,
                global_weight: 0.0, // filled below
            });
        }
        // Within-country AS weight shares.
        for (i, a) in ASES.iter().enumerate() {
            let country = ases[i].country;
            let total: f64 = ASES
                .iter()
                .filter(|b| b.country == a.country)
                .map(|b| b.weight)
                .sum();
            // Explicit ASes carry 85 % of their country's weight; an
            // implicit "other ISPs" AS (below) carries the rest. The
            // split keeps AS7922 the global maximum (Fig. 11).
            ases[i].global_weight = countries[country].weight * 0.85 * a.weight / total;
        }
        // One synthetic "other ISPs" AS per explicit country (30 % of its
        // weight), and one AS per tail country (100 %).
        let explicit_codes: Vec<String> =
            COUNTRIES.iter().map(|c| c.code.to_string()).collect();
        for (ci, c) in countries.iter().enumerate() {
            let has_explicit = explicit_codes.contains(&c.code)
                && ASES.iter().any(|a| a.country == c.code);
            let share = if has_explicit { 0.15 } else { 1.0 };
            ases.push(AsEntry {
                asn: 64000 + ci as u32,
                country: ci,
                global_weight: c.weight * share,
            });
        }
        assert!(
            ases.len() as u32 * BLOCKS_PER_AS <= 60_000,
            "address plan overflow: {} ASes",
            ases.len()
        );
        let mut cum = 0.0;
        let cum_weights = ases
            .iter()
            .map(|a| {
                cum += a.global_weight;
                cum
            })
            .collect();
        GeoDb { countries, ases, cum_weights }
    }

    /// Number of countries (225, matching the paper's 20 + 205).
    pub fn country_count(&self) -> usize {
        self.countries.len()
    }

    /// Number of ASes.
    pub fn as_count(&self) -> usize {
        self.ases.len()
    }

    /// Country display name.
    pub fn country_name(&self, id: CountryId) -> &str {
        &self.countries[id].name
    }

    /// RSF press-freedom score.
    pub fn press_freedom(&self, id: CountryId) -> f64 {
        self.countries[id].press_freedom
    }

    /// Whether the country is in the hidden-by-default set (score > 50,
    /// §5.1).
    pub fn is_censored(&self, id: CountryId) -> bool {
        self.countries[id].press_freedom > PRESS_FREEDOM_THRESHOLD
    }

    /// The AS number of an AS id.
    pub fn asn(&self, id: AsId) -> u32 {
        self.ases[id].asn
    }

    /// The country an AS belongs to.
    pub fn as_country(&self, id: AsId) -> CountryId {
        self.ases[id].country
    }

    /// Finds a country id by code.
    pub fn country_by_code(&self, code: &str) -> Option<CountryId> {
        self.countries.iter().position(|c| c.code == code)
    }

    // ---- sampling -----------------------------------------------------

    /// Samples an AS (global weight-proportional); the country follows.
    pub fn sample_as(&self, rng: &mut DetRng) -> AsId {
        let total = *self.cum_weights.last().unwrap(); // i2plint: allow(panic-audit) -- one cumulative weight per AS; the built-in table is never empty
        let x = rng.next_f64() * total;
        match self
            .cum_weights
            .binary_search_by(|w| w.partial_cmp(&x).unwrap()) // i2plint: allow(panic-audit) -- weights are finite positive constants, so the comparison is total
        {
            Ok(i) => (i + 1).min(self.ases.len() - 1),
            Err(i) => i.min(self.ases.len() - 1),
        }
    }

    /// Samples a fresh IPv4 address inside `asn_id`'s allocation.
    pub fn sample_ipv4(&self, asn_id: AsId, rng: &mut DetRng) -> PeerIp {
        let block = rng.below(BLOCKS_PER_AS as u64) as u32;
        let host = rng.below(65_536) as u32;
        let prefix16 = asn_id as u32 * BLOCKS_PER_AS + block;
        PeerIp::V4(prefix16 << 16 | host)
    }

    /// Samples an IPv6 address inside `asn_id`'s allocation.
    pub fn sample_ipv6(&self, asn_id: AsId, rng: &mut DetRng) -> PeerIp {
        let iface = rng.next_u64();
        let prefix = 0x2001_0db8u128 << 96 | (asn_id as u128) << 64;
        PeerIp::V6(prefix | iface as u128)
    }

    // ---- lookup --------------------------------------------------------

    /// Resolves an address to its location, `None` when unallocated
    /// (the MaxMind-miss case).
    pub fn lookup(&self, ip: PeerIp) -> Option<Location> {
        let asn_id = match ip {
            PeerIp::V4(v) => {
                let prefix16 = v >> 16;
                let id = (prefix16 / BLOCKS_PER_AS) as usize;
                if id >= self.ases.len() {
                    return None;
                }
                id
            }
            PeerIp::V6(v) => {
                let id = ((v >> 64) & 0xFFFF_FFFF) as usize;
                if id >= self.ases.len() {
                    return None;
                }
                id
            }
        };
        Some(Location { country: self.ases[asn_id].country, asn_id })
    }

    /// The country an address resolves to, if the database allocated it
    /// — a convenience over [`GeoDb::lookup`] for consumers that block
    /// at country granularity (the geo-aware censor in `i2p-measure`)
    /// and never touch the AS dimension.
    pub fn country_of(&self, ip: PeerIp) -> Option<CountryId> {
        self.lookup(ip).map(|loc| loc.country)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_ips_resolve_back() {
        let db = GeoDb::new();
        let mut rng = DetRng::new(1);
        for _ in 0..500 {
            let asn = db.sample_as(&mut rng);
            let v4 = db.sample_ipv4(asn, &mut rng);
            let loc = db.lookup(v4).expect("allocated v4 resolves");
            assert_eq!(loc.asn_id, asn);
            assert_eq!(loc.country, db.as_country(asn));
            let v6 = db.sample_ipv6(asn, &mut rng);
            assert_eq!(db.lookup(v6).unwrap().asn_id, asn);
        }
    }

    #[test]
    fn unresolvable_ips_miss() {
        let db = GeoDb::new();
        // The top of the /16 space (60 000 and up) belongs to no AS.
        for prefix16 in [60_000u32, 62_345, 64_999] {
            assert_eq!(db.lookup(PeerIp::V4(prefix16 << 16 | 7)), None);
        }
    }

    #[test]
    fn country_count_is_225() {
        let db = GeoDb::new();
        assert_eq!(db.country_count(), 225);
    }

    #[test]
    fn us_is_heaviest_sampled_country() {
        let db = GeoDb::new();
        let mut rng = DetRng::new(3);
        let us = db.country_by_code("US").unwrap();
        let mut counts = vec![0u32; db.country_count()];
        for _ in 0..20_000 {
            let asn = db.sample_as(&mut rng);
            counts[db.as_country(asn)] += 1;
        }
        let max_c = (0..counts.len()).max_by_key(|&i| counts[i]).unwrap();
        assert_eq!(max_c, us, "US must dominate (Fig. 10)");
        let share = counts[us] as f64 / 20_000.0;
        assert!((0.10..0.25).contains(&share), "US share {share}");
    }

    #[test]
    fn comcast_is_heaviest_as() {
        let db = GeoDb::new();
        let mut rng = DetRng::new(4);
        let mut counts = vec![0u32; db.as_count()];
        for _ in 0..30_000 {
            counts[db.sample_as(&mut rng)] += 1;
        }
        let max_as = (0..counts.len()).max_by_key(|&i| counts[i]).unwrap();
        assert_eq!(db.asn(max_as), 7922, "AS7922 must lead (Fig. 11)");
    }

    #[test]
    fn censored_flag_follows_threshold() {
        let db = GeoDb::new();
        let cn = db.country_by_code("CN").unwrap();
        let us = db.country_by_code("US").unwrap();
        let ru = db.country_by_code("RU").unwrap();
        assert!(db.is_censored(cn));
        assert!(!db.is_censored(us));
        assert!(!db.is_censored(ru), "RU scores exactly 50, not above");
    }

    #[test]
    fn every_country_has_an_as() {
        let db = GeoDb::new();
        let mut covered = vec![false; db.country_count()];
        for a in 0..db.as_count() {
            covered[db.as_country(a)] = true;
        }
        assert!(covered.iter().all(|&c| c), "every country needs at least one AS");
    }
}
