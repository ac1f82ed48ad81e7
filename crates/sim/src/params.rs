//! Calibration constants for the world model.
//!
//! Every constant is pinned by an anchor from Hoang et al. (IMC '18);
//! the section reference is given next to each. The *measurement* code
//! in `i2p-measure` never reads these — only the world generator does —
//! so the analyses genuinely recompute the paper's results from
//! generated observations.

/// Study length in days (February–April 2018, §5).
pub const STUDY_DAYS: u64 = 89;

/// Warm-up days simulated before the study epoch so the population is in
/// steady state on day 0.
pub const WARMUP_DAYS: u64 = 120;

/// Target daily active peers: "roughly 32K daily active peers" (§1, §5.1).
pub const TARGET_DAILY_PEERS: f64 = 32_000.0;

// ---------------------------------------------------------------------
// Churn (Fig. 7): Weibull fits to the survival anchors.
// Continuous: 56.36 % last > 7 days, 20.03 % > 30 days.
// Intermittent: 73.93 % > 7 days, 31.15 % > 30 days.
// Solving S(n) = exp(-(n/λ)^k) for the two anchors gives:
// ---------------------------------------------------------------------

/// Continuous-presence Weibull shape.
pub const CHURN_CONT_SHAPE: f64 = 0.7086;
/// Continuous-presence Weibull scale (days).
pub const CHURN_CONT_SCALE: f64 = 15.34;
/// Intermittent-span Weibull shape.
pub const CHURN_INT_SHAPE: f64 = 0.9285;
/// Intermittent-span Weibull scale (days).
pub const CHURN_INT_SCALE: f64 = 25.40;
/// Online probability during the intermittent tail of a peer's life.
pub const TAIL_PRESENCE_PROB: f64 = 0.35;

/// Expected online days per peer under the model above (continuous
/// span plus tail presence). Used to size the arrival rate:
/// `E[L_c] + TAIL_PRESENCE_PROB · (E[L_i] − E[L_c])` =
/// 19.1 + 0.35·(26.2 − 19.1) ≈ 21.6.
const EXPECTED_ONLINE_DAYS: f64 = 21.6;

/// Daily Poisson arrival rate: TARGET_DAILY_PEERS / EXPECTED_ONLINE_DAYS.
pub fn arrivals_per_day() -> f64 {
    TARGET_DAILY_PEERS / EXPECTED_ONLINE_DAYS
}

// ---------------------------------------------------------------------
// Bandwidth classes (Fig. 9): daily flag census L≈21 K, N≈9.2 K,
// P≈2.1 K, X≈1.8 K, O≈875, M≈400, K≈360 — normalised to true-class
// shares below. (The >100 % column sums in Table 1 come from the
// P/X → O compatibility publication rule, modelled in `i2p-data`.)
// ---------------------------------------------------------------------

/// True-class shares in K, L, M, N, O, P, X order.
pub const CLASS_SHARES: [f64; 7] = [0.0101, 0.5881, 0.0112, 0.2571, 0.0245, 0.0587, 0.0503];

/// Probability that a P/X-class peer *also* publishes the compat `O`
/// letter in a daily census sample (older software, §5.3.1).
pub const COMPAT_O_PROB: f64 = 0.45;

// ---------------------------------------------------------------------
// Floodfill population (§5.3.1): ≈8.8 % of observed peers carry `f`
// (≈2.7 K daily); 71 % of them are qualified (N/O/P/X); the rest are
// manually-enabled K/L/M routers. ≈6 % of the network is "automatic"
// floodfill per the I2P site.
// Per-class floodfill probability = ff_share_of_class × ff_total /
// class_share; the two vectors below encode the Table 1 floodfill
// column shape (N-dominant, L second).
// ---------------------------------------------------------------------

/// Fraction of all peers that are floodfills on a given day (§5.3.1).
pub const FLOODFILL_TOTAL_SHARE: f64 = 0.088;

/// Of all floodfills, the share in each class K..X (Table 1 floodfill
/// column, normalised: N dominates, L second, P+X ≈ 30 %).
pub const FLOODFILL_CLASS_MIX: [f64; 7] = [0.001, 0.215, 0.017, 0.492, 0.041, 0.127, 0.107];

// ---------------------------------------------------------------------
// Reachability (Fig. 5/6): ≈15.4 K unknown-IP peers daily =
// 14 K firewalled + 4 K hidden − 2.6 K overlap; reachable versus
// unreachable split roughly half and half (§5.3.1).
// ---------------------------------------------------------------------

/// Share of peers that are publicly reachable.
pub const PUBLIC_SHARE: f64 = 0.480;
/// Firewalled-only share (≈11.4 K / 32 K).
pub const FIREWALLED_ONLY_SHARE: f64 = 0.356;
/// Hidden-only share (≈1.4 K / 32 K).
pub const HIDDEN_ONLY_SHARE: f64 = 0.044;
/// Peers that flip between firewalled and hidden day to day (the 2.6 K
/// overlap group in Fig. 6).
pub const SWITCHING_SHARE: f64 = 0.081;
// Published-IP but U-flagged peers take the rest (3.9 %).

/// Probability a switching peer is in *hidden* posture on a given day.
pub const SWITCH_HIDDEN_PROB: f64 = 0.5;

/// Hidden-by-default boost for censored countries (§5.1): peers in
/// press-freedom-score > 50 countries are biased toward hidden/firewalled
/// assignments with this probability of keeping the default.
pub const CENSORED_DEFAULT_HIDDEN_PROB: f64 = 0.35;

/// Share of known-IP peers that also publish an IPv6 address (Fig. 5's
/// IPv6 line is well below IPv4).
pub const IPV6_SHARE: f64 = 0.15;

// ---------------------------------------------------------------------
// IP churn (Fig. 8, Fig. 12): 45 % of known-IP peers keep one IP over
// three months; 55 % associate with ≥ 2; 460 peers (0.65 %) exceed 100
// IPs; > 80 % stay within one AS, 8.4 % span > 10 ASes (VPN/Tor
// roamers; §5.2.2, §5.3.2).
// ---------------------------------------------------------------------

/// Share of known-IP peers on truly static ISP allocations.
pub const IP_STATIC_SHARE: f64 = 0.26;
/// Dynamic-ISP share (rotates within its home AS).
pub const IP_DYNAMIC_SHARE: f64 = 0.575;
/// Fast-dynamic share (daily-ish re-allocation, still same AS).
pub const IP_FAST_DYNAMIC_SHARE: f64 = 0.13;
// Roamers (VPN/Tor-routed: new AS nearly every rotation) take the
// rest (3.5 %).

/// Dynamic rotation interval: lognormal μ (ln days).
pub const IP_DYNAMIC_MU: f64 = 2.5; // median ≈ 12 days
/// Dynamic rotation interval: lognormal σ.
pub const IP_DYNAMIC_SIGMA: f64 = 0.9;
/// Fast-dynamic rotation interval: lognormal μ (median ≈ 2.2 days).
pub const IP_FAST_MU: f64 = 0.8;
/// Fast-dynamic rotation interval: lognormal σ.
pub const IP_FAST_SIGMA: f64 = 0.6;
/// Roamer rotation interval: lognormal μ (median ≈ 0.9 days).
pub const IP_ROAMER_MU: f64 = -0.55;
/// Roamer rotation interval: lognormal σ.
pub const IP_ROAMER_SIGMA: f64 = 0.9;

// ---------------------------------------------------------------------
// Observation model (Figs. 2–4; DESIGN.md §3).
//
// A vantage sees peer p on a given day with probability
//   P = 1 − exp(−E) ,
// where the exposure E sums a tunnel-participation term (dominant for
// non-floodfill vantages) and a netDb-store term (dominant for
// floodfill vantages):
//   E_nonff = a_n(b) · w_p
//   E_ff    = f · u_p + a_t(b) · w_p
// with w_p ~ Gamma(W_SHAPE, 1/W_SHAPE) the peer's tunnel-visibility
// weight (heterogeneous: high-bandwidth relays are seen by everyone,
// hidden L-class clients barely at all) and u_p ~ Gamma(U_SHAPE,
// 1/U_SHAPE) its publish visibility. Per-vantage draws are independent
// Bernoulli trials. Constants fitted numerically to:
//   • single 8 MB/s vantage ≈ 15.5 K of 32.3 K (Fig. 2)
//   • Fig. 3 bandwidth sweep incl. the floodfill/non-floodfill
//     crossover at 2 MB/s and the ≈17–18 K pair-union plateau
//   • Fig. 4 cumulative curve: 20 routers ≈ 95.5 %, 40 ≈ 32 K.
// ---------------------------------------------------------------------

/// Share of a vantage's daily sighting randomness that is *fresh* each
/// day; the rest is a persistent per-(vantage, peer) draw. Day-to-day
/// correlation is what keeps multi-day blacklist windows from uniting
/// to 100 % instantly (Fig. 13's window spacing).
pub const FRESH_DRAW_PROB: f64 = 0.25;

/// Normalisation of the tunnel-visibility weight so that the
/// reachability and class scaling applied in `peer.rs` keeps E[w] = 1
/// (the capture strengths were fitted under a unit mean).
pub const W_NORM: f64 = 1.27;

/// Gamma shape of the tunnel-visibility weight w (heavy heterogeneity).
pub const W_SHAPE: f64 = 0.45;
/// Gamma shape of the publish-visibility weight u (milder).
pub const U_SHAPE: f64 = 0.8;
/// Non-floodfill capture strength at the 8 MB/s cap.
const A_NONFF_8M: f64 = 1.95;
/// Low-bandwidth floor of the capture scaling (fraction of A_NONFF_8M
/// retained at 128 KB/s).
const A_SCALE_FLOOR: f64 = 0.46;
/// Floodfill store-capture strength (bandwidth-independent above the
/// 128 KB/s floodfill minimum).
pub const F_STORE: f64 = 0.42;
/// Floodfill tunnel-capture share (floodfills spend bandwidth on netDb
/// service, capturing fewer tunnels than a pure relay).
const FF_TUNNEL_SHARE: f64 = 0.20;

/// Bandwidth scaling `s(b) ∈ [0, 1]`: log-linear from 128 KB/s to the
/// 8 MB/s bloom-filter cap (§4.1).
fn bandwidth_scale(shared_kbps: u32) -> f64 {
    let b = (shared_kbps.max(16)) as f64;
    let s = (b / 128.0).ln() / (8192.0_f64 / 128.0).ln();
    s.clamp(-0.4, 1.0)
}

/// Non-floodfill tunnel-capture strength at `shared_kbps`.
pub fn a_nonff(shared_kbps: u32) -> f64 {
    A_NONFF_8M * (A_SCALE_FLOOR + (1.0 - A_SCALE_FLOOR) * bandwidth_scale(shared_kbps))
}

/// Floodfill tunnel-capture strength at `shared_kbps`.
pub fn a_ff_tunnel(shared_kbps: u32) -> f64 {
    FF_TUNNEL_SHARE * a_nonff(shared_kbps)
}

/// Exposure multiplier by reachability: firewalled peers relay less
/// (hole-punched links only), hidden peers never relay — they are seen
/// mostly through their own publishes and tunnel builds.
pub const REACH_TUNNEL_FACTOR_PUBLIC: f64 = 1.0;
/// Firewalled tunnel-visibility factor.
pub const REACH_TUNNEL_FACTOR_FIREWALLED: f64 = 0.55;
/// Hidden tunnel-visibility factor.
pub const REACH_TUNNEL_FACTOR_HIDDEN: f64 = 0.30;

// ---------------------------------------------------------------------
// Victim model (Fig. 13): the victim is "a long-term I2P node who has
// been participating in the network and has many RouterInfos in its
// netDb" (§6.2.2). Its netDb accumulates over this many days of
// observation at client capture strength.
// ---------------------------------------------------------------------

/// Days of netDb accumulation for the victim client.
pub const VICTIM_ACCUMULATION_DAYS: u64 = 7;
/// The victim's capture strength (a stable, default-bandwidth client:
/// weaker than a monitoring router but far from zero).
pub const VICTIM_CAPTURE: f64 = 0.35;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_one() {
        let s: f64 = CLASS_SHARES.iter().sum();
        assert!((s - 1.0).abs() < 1e-9, "class shares sum {s}");
        let r = PUBLIC_SHARE + FIREWALLED_ONLY_SHARE + HIDDEN_ONLY_SHARE + SWITCHING_SHARE;
        assert!((1.0 - r - 0.039).abs() < 1e-9, "U-flagged rest {}", 1.0 - r);
        let ip = IP_STATIC_SHARE + IP_DYNAMIC_SHARE + IP_FAST_DYNAMIC_SHARE;
        assert!((1.0 - ip - 0.035).abs() < 1e-9, "roamer rest {}", 1.0 - ip);
        let ff: f64 = FLOODFILL_CLASS_MIX.iter().sum();
        assert!((ff - 1.0).abs() < 1e-9, "floodfill mix sum {ff}");
    }

    #[test]
    fn churn_fit_reproduces_anchors() {
        let s = |n: f64, k: f64, l: f64| (-(n / l).powf(k)).exp();
        assert!((s(7.0, CHURN_CONT_SHAPE, CHURN_CONT_SCALE) - 0.5636).abs() < 0.01);
        assert!((s(30.0, CHURN_CONT_SHAPE, CHURN_CONT_SCALE) - 0.2003).abs() < 0.01);
        assert!((s(7.0, CHURN_INT_SHAPE, CHURN_INT_SCALE) - 0.7393).abs() < 0.01);
        assert!((s(30.0, CHURN_INT_SHAPE, CHURN_INT_SCALE) - 0.3115).abs() < 0.01);
    }

    #[test]
    fn bandwidth_scale_monotone() {
        assert!((bandwidth_scale(128) - 0.0).abs() < 1e-9);
        assert!((bandwidth_scale(8192) - 1.0).abs() < 1e-9);
        assert!(bandwidth_scale(30) < 0.0);
        let mut prev = -1.0;
        for b in [16u32, 64, 128, 512, 2048, 8192, 20_000] {
            let s = bandwidth_scale(b);
            assert!(s >= prev);
            prev = s;
        }
    }

    #[test]
    fn capture_strengths_ordered() {
        // Floodfill tunnel capture is always below non-floodfill.
        for b in [128u32, 1024, 5120, 8192] {
            assert!(a_ff_tunnel(b) < a_nonff(b));
        }
    }

    #[test]
    fn arrival_rate_scale() {
        let a = arrivals_per_day();
        assert!((1300.0..1700.0).contains(&a), "arrivals {a}");
    }
}
