//! Static geography data: countries, press-freedom scores, autonomous
//! systems.
//!
//! The country list and weights are calibrated to Hoang et al. Fig. 10
//! (top-20 countries make up >60 % of observed peers; the US leads;
//! 205 other countries form the tail) and §5.3.2 (≈6 K peers across 30 of
//! the 32 countries whose RSF 2018 World Press Freedom score exceeds 50 —
//! the threshold above which I2P defaults to hidden mode, §5.1).
//!
//! Press-freedom scores are the RSF 2018 index values (rounded); AS
//! numbers are real allocations with plausible-but-synthetic weights
//! (see DESIGN.md §1 on the MaxMind substitution).

/// One country record.
pub struct CountryRec {
    /// ISO-3166-ish code.
    pub code: &'static str,
    /// Human-readable name.
    pub name: &'static str,
    /// RSF 2018 World Press Freedom score (higher = less free).
    pub press_freedom: f64,
    /// Peer-population weight (arbitrary units, normalised at load).
    pub weight: f64,
}

/// One autonomous-system record.
pub struct AsRec {
    /// AS number.
    pub asn: u32,
    /// Country code (must appear in [`COUNTRIES`]).
    pub country: &'static str,
    /// Weight *within* its country.
    pub weight: f64,
}

/// Hidden-mode threshold: peers in countries scoring above this default
/// to hidden (Hoang et al. §5.1).
pub const PRESS_FREEDOM_THRESHOLD: f64 = 50.0;

/// Explicitly-modelled countries. The paper's Fig. 10 top-20 come first
/// (weights tuned so the top-20 cumulative share lands just above 60 %),
/// followed by the censored set (score > 50) and a few mid-tail states.
pub const COUNTRIES: &[CountryRec] = &[
    // ---- Fig. 10 top 20 (descending) -------------------------------
    CountryRec { code: "US", name: "United States", press_freedom: 23.7, weight: 1580.0 },
    CountryRec { code: "RU", name: "Russia", press_freedom: 50.0, weight: 810.0 },
    CountryRec { code: "GB", name: "England", press_freedom: 23.3, weight: 610.0 },
    CountryRec { code: "FR", name: "France", press_freedom: 21.9, weight: 520.0 },
    CountryRec { code: "CA", name: "Canada", press_freedom: 15.3, weight: 450.0 },
    CountryRec { code: "AU", name: "Australia", press_freedom: 14.5, weight: 410.0 },
    CountryRec { code: "DE", name: "Germany", press_freedom: 14.4, weight: 360.0 },
    CountryRec { code: "NL", name: "Netherlands", press_freedom: 10.0, weight: 300.0 },
    CountryRec { code: "BR", name: "Brazil", press_freedom: 31.3, weight: 250.0 },
    CountryRec { code: "IT", name: "Italy", press_freedom: 24.1, weight: 220.0 },
    CountryRec { code: "ES", name: "Spain", press_freedom: 20.6, weight: 200.0 },
    CountryRec { code: "IN", name: "India", press_freedom: 43.2, weight: 180.0 },
    CountryRec { code: "CN", name: "China", press_freedom: 78.3, weight: 330.0 },
    CountryRec { code: "JP", name: "Japan", press_freedom: 28.6, weight: 120.0 },
    CountryRec { code: "UA", name: "Ukraine", press_freedom: 32.9, weight: 110.0 },
    CountryRec { code: "SE", name: "Sweden", press_freedom: 8.3, weight: 100.0 },
    CountryRec { code: "BE", name: "Belgium", press_freedom: 13.2, weight: 95.0 },
    CountryRec { code: "CH", name: "Switzerland", press_freedom: 11.3, weight: 90.0 },
    CountryRec { code: "PL", name: "Poland", press_freedom: 26.2, weight: 85.0 },
    CountryRec { code: "ZA", name: "South Africa", press_freedom: 20.4, weight: 80.0 },
    // ---- Censored set (press freedom > 50; §5.3.2's ~6 K peers) -----
    CountryRec { code: "SG", name: "Singapore", press_freedom: 51.0, weight: 110.0 },
    CountryRec { code: "TR", name: "Turkey", press_freedom: 52.8, weight: 95.0 },
    CountryRec { code: "VN", name: "Vietnam", press_freedom: 75.1, weight: 55.0 },
    CountryRec { code: "IR", name: "Iran", press_freedom: 64.4, weight: 50.0 },
    CountryRec { code: "SA", name: "Saudi Arabia", press_freedom: 61.2, weight: 40.0 },
    CountryRec { code: "EG", name: "Egypt", press_freedom: 56.5, weight: 35.0 },
    CountryRec { code: "BY", name: "Belarus", press_freedom: 51.7, weight: 32.0 },
    CountryRec { code: "KZ", name: "Kazakhstan", press_freedom: 53.8, weight: 30.0 },
    CountryRec { code: "AZ", name: "Azerbaijan", press_freedom: 57.9, weight: 25.0 },
    CountryRec { code: "TH", name: "Thailand", press_freedom: 44.7, weight: 30.0 },
    CountryRec { code: "PK", name: "Pakistan", press_freedom: 43.2, weight: 18.0 },
    CountryRec { code: "IQ", name: "Iraq", press_freedom: 54.0, weight: 20.0 },
    CountryRec { code: "LY", name: "Libya", press_freedom: 56.8, weight: 5.0 },
    CountryRec { code: "YE", name: "Yemen", press_freedom: 62.2, weight: 4.0 },
    CountryRec { code: "CU", name: "Cuba", press_freedom: 68.9, weight: 15.0 },
    CountryRec { code: "SD", name: "Sudan", press_freedom: 70.1, weight: 4.0 },
    CountryRec { code: "DJ", name: "Djibouti", press_freedom: 70.9, weight: 2.0 },
    CountryRec { code: "LA", name: "Laos", press_freedom: 66.4, weight: 3.0 },
    CountryRec { code: "SO", name: "Somalia", press_freedom: 55.9, weight: 2.0 },
    CountryRec { code: "ET", name: "Ethiopia", press_freedom: 50.3, weight: 3.0 },
    CountryRec { code: "BD", name: "Bangladesh", press_freedom: 50.7, weight: 20.0 },
    CountryRec { code: "RW", name: "Rwanda", press_freedom: 55.1, weight: 2.0 },
    CountryRec { code: "BH", name: "Bahrain", press_freedom: 58.9, weight: 3.0 },
    CountryRec { code: "KW", name: "Kuwait", press_freedom: 51.0, weight: 4.0 },
    CountryRec { code: "AE", name: "UAE", press_freedom: 58.8, weight: 22.0 },
    CountryRec { code: "QA", name: "Qatar", press_freedom: 58.0, weight: 3.0 },
    CountryRec { code: "OM", name: "Oman", press_freedom: 57.9, weight: 2.0 },
    CountryRec { code: "TJ", name: "Tajikistan", press_freedom: 55.1, weight: 1.5 },
    CountryRec { code: "UZ", name: "Uzbekistan", press_freedom: 66.1, weight: 2.5 },
    CountryRec { code: "TM", name: "Turkmenistan", press_freedom: 84.2, weight: 1.0 },
    CountryRec { code: "KP", name: "North Korea", press_freedom: 88.9, weight: 0.5 },
    CountryRec { code: "ER", name: "Eritrea", press_freedom: 84.2, weight: 0.5 },
    CountryRec { code: "SY", name: "Syria", press_freedom: 77.3, weight: 2.0 },
    // ---- Mid-tail named countries ------------------------------------
    CountryRec { code: "FI", name: "Finland", press_freedom: 10.3, weight: 70.0 },
    CountryRec { code: "NO", name: "Norway", press_freedom: 7.6, weight: 65.0 },
    CountryRec { code: "CZ", name: "Czechia", press_freedom: 17.0, weight: 62.0 },
    CountryRec { code: "AT", name: "Austria", press_freedom: 13.5, weight: 55.0 },
    CountryRec { code: "RO", name: "Romania", press_freedom: 24.6, weight: 50.0 },
    CountryRec { code: "HU", name: "Hungary", press_freedom: 29.1, weight: 45.0 },
    CountryRec { code: "PT", name: "Portugal", press_freedom: 14.2, weight: 42.0 },
    CountryRec { code: "GR", name: "Greece", press_freedom: 30.3, weight: 40.0 },
    CountryRec { code: "DK", name: "Denmark", press_freedom: 9.9, weight: 38.0 },
    CountryRec { code: "AR", name: "Argentina", press_freedom: 26.0, weight: 36.0 },
    CountryRec { code: "MX", name: "Mexico", press_freedom: 48.9, weight: 34.0 },
    CountryRec { code: "KR", name: "South Korea", press_freedom: 23.5, weight: 32.0 },
    CountryRec { code: "TW", name: "Taiwan", press_freedom: 23.4, weight: 30.0 },
    CountryRec { code: "ID", name: "Indonesia", press_freedom: 39.7, weight: 28.0 },
    CountryRec { code: "CL", name: "Chile", press_freedom: 25.0, weight: 26.0 },
    CountryRec { code: "NZ", name: "New Zealand", press_freedom: 13.0, weight: 25.0 },
    CountryRec { code: "IE", name: "Ireland", press_freedom: 12.9, weight: 24.0 },
    CountryRec { code: "IL", name: "Israel", press_freedom: 30.8, weight: 22.0 },
    CountryRec { code: "BG", name: "Bulgaria", press_freedom: 35.0, weight: 20.0 },
    CountryRec { code: "SK", name: "Slovakia", press_freedom: 16.9, weight: 18.0 },
];

/// Number of additional synthetic tail countries, bringing the total to
/// the paper's "205 other countries and regions" beyond the top 20.
pub const TAIL_COUNTRIES: usize = 225 - 20 - 53;
// 53 = explicitly modelled non-top-20 countries above (codes beyond the
// first 20 entries). Tail countries get codes "T01".."T152", tiny Zipf
// weights and a benign press-freedom score of 35.

/// Summed weight given to the synthetic tail (≈ the long tail's share).
pub const TAIL_TOTAL_WEIGHT: f64 = 2900.0;

/// Explicitly-modelled autonomous systems.
pub const ASES: &[AsRec] = &[
    // United States — AS7922 leads Fig. 11 with >8 K peers.
    AsRec { asn: 7922, country: "US", weight: 30.0 },
    AsRec { asn: 7018, country: "US", weight: 14.0 },
    AsRec { asn: 701, country: "US", weight: 12.0 },
    AsRec { asn: 20115, country: "US", weight: 11.0 },
    AsRec { asn: 22773, country: "US", weight: 8.0 },
    AsRec { asn: 209, country: "US", weight: 7.0 },
    AsRec { asn: 14061, country: "US", weight: 5.0 },
    AsRec { asn: 16509, country: "US", weight: 4.0 },
    AsRec { asn: 11427, country: "US", weight: 9.0 },
    // Russia.
    AsRec { asn: 12389, country: "RU", weight: 28.0 },
    AsRec { asn: 8402, country: "RU", weight: 16.0 },
    AsRec { asn: 31208, country: "RU", weight: 14.0 },
    AsRec { asn: 25513, country: "RU", weight: 10.0 },
    AsRec { asn: 42610, country: "RU", weight: 9.0 },
    // England / UK.
    AsRec { asn: 2856, country: "GB", weight: 26.0 },
    AsRec { asn: 5089, country: "GB", weight: 22.0 },
    AsRec { asn: 13285, country: "GB", weight: 14.0 },
    AsRec { asn: 5607, country: "GB", weight: 16.0 },
    // France.
    AsRec { asn: 12322, country: "FR", weight: 28.0 },
    AsRec { asn: 3215, country: "FR", weight: 24.0 },
    AsRec { asn: 16276, country: "FR", weight: 8.0 },
    AsRec { asn: 15557, country: "FR", weight: 14.0 },
    // Canada.
    AsRec { asn: 577, country: "CA", weight: 22.0 },
    AsRec { asn: 812, country: "CA", weight: 18.0 },
    AsRec { asn: 6327, country: "CA", weight: 14.0 },
    AsRec { asn: 852, country: "CA", weight: 12.0 },
    // Australia.
    AsRec { asn: 1221, country: "AU", weight: 24.0 },
    AsRec { asn: 4804, country: "AU", weight: 14.0 },
    AsRec { asn: 7545, country: "AU", weight: 12.0 },
    // Germany.
    AsRec { asn: 3320, country: "DE", weight: 26.0 },
    AsRec { asn: 6830, country: "DE", weight: 16.0 },
    AsRec { asn: 24940, country: "DE", weight: 7.0 },
    AsRec { asn: 8881, country: "DE", weight: 10.0 },
    // Netherlands.
    AsRec { asn: 1136, country: "NL", weight: 20.0 },
    AsRec { asn: 33915, country: "NL", weight: 14.0 },
    AsRec { asn: 60781, country: "NL", weight: 6.0 },
    // Brazil.
    AsRec { asn: 28573, country: "BR", weight: 18.0 },
    AsRec { asn: 27699, country: "BR", weight: 16.0 },
    // Italy.
    AsRec { asn: 3269, country: "IT", weight: 20.0 },
    AsRec { asn: 30722, country: "IT", weight: 12.0 },
    // Spain.
    AsRec { asn: 3352, country: "ES", weight: 20.0 },
    AsRec { asn: 12479, country: "ES", weight: 12.0 },
    // India.
    AsRec { asn: 9829, country: "IN", weight: 16.0 },
    AsRec { asn: 45609, country: "IN", weight: 14.0 },
    // China.
    AsRec { asn: 4134, country: "CN", weight: 22.0 },
    AsRec { asn: 4837, country: "CN", weight: 16.0 },
    AsRec { asn: 9808, country: "CN", weight: 8.0 },
    // Japan.
    AsRec { asn: 4713, country: "JP", weight: 18.0 },
    AsRec { asn: 17676, country: "JP", weight: 12.0 },
    // Ukraine.
    AsRec { asn: 13188, country: "UA", weight: 12.0 },
    AsRec { asn: 15895, country: "UA", weight: 14.0 },
    // Sweden.
    AsRec { asn: 3301, country: "SE", weight: 18.0 },
    AsRec { asn: 39651, country: "SE", weight: 12.0 },
    // Belgium / Switzerland / Poland / South Africa.
    AsRec { asn: 5432, country: "BE", weight: 16.0 },
    AsRec { asn: 6848, country: "BE", weight: 12.0 },
    AsRec { asn: 3303, country: "CH", weight: 16.0 },
    AsRec { asn: 6730, country: "CH", weight: 10.0 },
    AsRec { asn: 5617, country: "PL", weight: 14.0 },
    AsRec { asn: 12912, country: "PL", weight: 10.0 },
    AsRec { asn: 3741, country: "ZA", weight: 10.0 },
    AsRec { asn: 37457, country: "ZA", weight: 8.0 },
    // VPN-heavy hosting ASes elsewhere (§5.3.2).
    AsRec { asn: 9009, country: "RO", weight: 10.0 },
    AsRec { asn: 20473, country: "US", weight: 3.0 },
    AsRec { asn: 51167, country: "DE", weight: 3.0 },
    AsRec { asn: 197540, country: "DE", weight: 2.0 },
    AsRec { asn: 49981, country: "NL", weight: 3.0 },
    // Censored-set ISPs.
    AsRec { asn: 45143, country: "SG", weight: 14.0 },
    AsRec { asn: 9506, country: "SG", weight: 10.0 },
    AsRec { asn: 9121, country: "TR", weight: 16.0 },
    AsRec { asn: 34984, country: "TR", weight: 10.0 },
    AsRec { asn: 45899, country: "VN", weight: 12.0 },
    AsRec { asn: 12880, country: "IR", weight: 10.0 },
    AsRec { asn: 25019, country: "SA", weight: 10.0 },
    AsRec { asn: 8452, country: "EG", weight: 10.0 },
    AsRec { asn: 6697, country: "BY", weight: 10.0 },
    AsRec { asn: 9198, country: "KZ", weight: 10.0 },
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn country_codes_unique() {
        let mut seen = HashSet::new();
        for c in COUNTRIES {
            assert!(seen.insert(c.code), "duplicate country {}", c.code);
        }
    }

    #[test]
    fn asns_unique_and_countries_resolve() {
        let codes: HashSet<&str> = COUNTRIES.iter().map(|c| c.code).collect();
        let mut seen = HashSet::new();
        for a in ASES {
            assert!(seen.insert(a.asn), "duplicate ASN {}", a.asn);
            assert!(codes.contains(a.country), "unknown country {}", a.country);
        }
    }

    #[test]
    fn censored_set_has_paper_scale() {
        // The paper (§5.3.2) reports 32 countries with press-freedom
        // score > 50. Our explicit table models the bulk of them.
        let censored = COUNTRIES
            .iter()
            .filter(|c| c.press_freedom > PRESS_FREEDOM_THRESHOLD)
            .count();
        assert!((28..=36).contains(&censored), "censored countries: {censored}");
    }

    #[test]
    fn us_leads_and_top20_descends() {
        assert_eq!(COUNTRIES[0].code, "US");
        // Raw weights descend through the top 20 — except China, whose
        // raw weight is inflated to compensate for hidden-by-default
        // suppressing its *observed* count down to its Fig. 10 rank.
        for w in COUNTRIES[..20].windows(2) {
            if w[0].code == "CN" || w[1].code == "CN" {
                continue;
            }
            assert!(w[0].weight >= w[1].weight, "top-20 must descend ({}/{})", w[0].code, w[1].code);
        }
    }

    #[test]
    fn tail_count_matches_paper_205_others() {
        // top 20 + explicit others + synthetic tail = 225 countries,
        // i.e. 205 beyond the top 20 (§5.3.2).
        assert_eq!(20 + (COUNTRIES.len() - 20) + TAIL_COUNTRIES, 225);
    }
}
