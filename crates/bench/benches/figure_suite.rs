//! The census figures: Figs. 4–12 and Table 1 from one live harvest,
//! exactly as `i2pscope census` prints them (one engine fill, one
//! figure pass; `I2PSCOPE_*` knobs as for the binary).
//!
//! Paper anchors:
//!
//! * Fig. 5 (§5.1): ≈30.5 K daily peers, total unique IPs *below* the
//!   peer count (because ~15 K peers publish no address), IPv6 well
//!   below IPv4.
//! * Fig. 6 (§5.1): ≈15.4 K unknown-IP peers per day = ≈14 K
//!   firewalled + ≈4 K hidden, with ≈2.6 K appearing in both groups
//!   over time.
//! * Fig. 8 (§5.2.2): 45 % of known-IP peers keep one address, 55 %
//!   have at least two, and ≈460 peers (0.65 %) exceed one hundred.
//! * Fig. 9 (§5.3.1, daily averages): L ≈ 21 K, N ≈ 9 K, P ≈ 2.1 K,
//!   X ≈ 1.8 K, O ≈ 875, M ≈ 400, K ≈ 360.
//! * Fig. 10 (§5.3.2): the United States leads (≈28 K over three
//!   months); US+RU+GB+FR+CA+AU exceed 40 %; the top 20 exceed 60 %;
//!   30 countries with poor press-freedom scores contribute ≈6 K peers,
//!   led by China.
//! * Fig. 11 (§5.3.2): AS7922 (Comcast) leads with >8 K peers; the top
//!   20 ASes hold >30 % of all peers.
//! * Fig. 12 (§5.3.2): >80 % of peers associate with a single AS; 8.4 %
//!   span more than ten; extremes reach 39 ASes and 25 countries
//!   (VPN/Tor roamers).
//!
//! Figs. 4 and 7 and Table 1 print their paper comparisons in their own
//! benches (`fig04_router_count`, `fig07_churn`,
//! `table1_bandwidth_groups`).

use i2pscope::cli::{self, FigId, Format, Knobs};

fn main() {
    let mut report = i2p_bench::report("figure_suite");
    report.emit("Figures 4–12 and Table 1", || {
        cli::census(&Knobs::from_env(), Format::Text, &FigId::ALL)
    });
    report.write();
}
