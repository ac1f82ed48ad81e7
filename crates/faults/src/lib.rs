//! # i2p-faults — the deterministic fault-injection plane
//!
//! The source study ran for months against a live network where
//! floodfills crash mid-lookup, queries stall, harvest machines lose
//! whole days, and writers die with half-flushed files. This crate is
//! the reproduction's chaos engine: a seeded, spec-driven [`FaultPlane`]
//! that the transport fabric, the netDb lookup driver, the harvest
//! engine, the usability evaluator and the snapshot store all consult
//! before doing their happy-path work.
//!
//! Two properties make chaos runs CI-able (DESIGN.md §10):
//!
//! * **Pure keyed draws.** Every fault decision is a pure function of
//!   `(plane seed, fault lane, caller-supplied context key)` — there is
//!   no shared mutable RNG, so draws are independent of thread count,
//!   scheduling order and each other. Same seed + same spec ⇒ the same
//!   faults fire at the same places, byte-identical figures and audit
//!   lines.
//! * **Zero is free.** A lane set to zero short-circuits before any
//!   hashing; an all-zero spec ([`FaultPlane::is_zero`]) changes no
//!   behavior anywhere it is threaded, so the fault plane compiled in
//!   with an empty spec is bit-identical to a build without it (the
//!   parity contract `tests/chaos.rs` pins).
//!
//! Specs are parsed from the same string-keyed grammar as the adversary
//! registry (`key=value` pairs, unknown keys rejected with the full
//! supported list): `loss=0.02,ff_crash=0.01,stall=5,io_crash=3`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use i2p_crypto::DetRng;
use i2p_data::Hash256;
use std::fmt;

/// The supported spec keys, in canonical order, with the one-line
/// description the parse errors and `--help` surface.
const KEYS: [(&str, &str); 8] = [
    ("loss", "fabric: probability a message is silently dropped in flight"),
    ("delay", "fabric: probability a message takes an extra-latency detour"),
    ("dup", "fabric: probability a message is delivered twice"),
    ("ff_crash", "netdb: probability a queried floodfill crashes mid-walk (never replies)"),
    ("stall", "netdb: one in N responders stalls past the query timeout (0 = off)"),
    ("outage", "harvest: probability a (vantage, day) cell is an outage (no data)"),
    ("flake", "usability: probability an eepsite fetch attempt transiently fails"),
    ("io_crash", "store: kill the snapshot writer at crash-point N (1-5, 0 = off)"),
];

/// Highest store crash-point index (see `DESIGN.md` §10's crash map).
const MAX_IO_CRASH_POINT: u32 = 5;

fn supported_keys() -> String {
    KEYS.iter().map(|(k, _)| *k).collect::<Vec<_>>().join(", ")
}

/// A parsed fault specification: which faults fire, and how often.
///
/// The all-zero spec (also [`FaultSpec::default`]) injects nothing and
/// is behaviorally inert everywhere the plane is threaded.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct FaultSpec {
    /// Fabric message-loss probability.
    pub loss: f64,
    /// Fabric extra-delay probability.
    pub delay: f64,
    /// Fabric duplication probability.
    pub dup: f64,
    /// Probability a queried floodfill crashes mid-walk.
    pub ff_crash: f64,
    /// One in `stall` responders stalls past the query timeout (0 = off).
    pub stall: u64,
    /// Probability a (vantage, day) harvest cell is an outage.
    pub outage: f64,
    /// Probability an eepsite fetch attempt transiently fails.
    pub flake: f64,
    /// Store writer crash-point index (1–5, 0 = off).
    pub io_crash: u32,
}

impl FaultSpec {
    /// Parses a `key=value,key=value` spec. The empty (or all-blank)
    /// spec is the zero spec. Malformed tokens and unknown keys are
    /// rejected with the full supported list — the same UX as the
    /// adversary registry's `parse_spec` — and parsing never panics on
    /// any input (pinned by proptest in `tests/parse.rs`).
    pub fn parse(spec: &str) -> Result<FaultSpec, String> {
        let mut out = FaultSpec::default();
        for token in spec.split(',') {
            let token = token.trim();
            if token.is_empty() {
                continue;
            }
            let Some((key, value)) = token.split_once('=') else {
                return Err(format!(
                    "malformed fault token {token:?}: expected key=value \
                     (supported keys: {})",
                    supported_keys()
                ));
            };
            let (key, value) = (key.trim(), value.trim());
            match key {
                "loss" => out.loss = parse_prob(key, value)?,
                "delay" => out.delay = parse_prob(key, value)?,
                "dup" => out.dup = parse_prob(key, value)?,
                "ff_crash" => out.ff_crash = parse_prob(key, value)?,
                "stall" => {
                    out.stall = value.parse().map_err(|_| {
                        format!("fault key stall={value:?} is not a whole number")
                    })?;
                }
                "outage" => out.outage = parse_prob(key, value)?,
                "flake" => out.flake = parse_prob(key, value)?,
                "io_crash" => {
                    let point: u32 = value.parse().map_err(|_| {
                        format!("fault key io_crash={value:?} is not a whole number")
                    })?;
                    if point > MAX_IO_CRASH_POINT {
                        return Err(format!(
                            "fault key io_crash={point} is out of range \
                             (crash-points are 1-{MAX_IO_CRASH_POINT}, 0 = off)"
                        ));
                    }
                    out.io_crash = point;
                }
                other => {
                    return Err(format!(
                        "unknown fault key {other:?} (supported keys: {})",
                        supported_keys()
                    ));
                }
            }
        }
        Ok(out)
    }

    /// [`FaultSpec::parse`] for the `I2PSCOPE_FAULTS` env-knob path:
    /// panics with the parse error, like every other malformed
    /// `I2PSCOPE_*` value.
    pub fn resolve_or_panic(spec: &str) -> FaultSpec {
        FaultSpec::parse(spec).unwrap_or_else(|e| panic!("I2PSCOPE_FAULTS: {e}")) // i2plint: allow(panic-audit) -- malformed env knobs abort loudly by contract (DESIGN.md para 10)
    }

    /// Whether this spec injects nothing at all.
    pub fn is_zero(&self) -> bool {
        *self == FaultSpec::default()
    }
}

fn parse_prob(key: &str, value: &str) -> Result<f64, String> {
    let p: f64 = value
        .parse()
        .map_err(|_| format!("fault key {key}={value:?} is not a number"))?;
    if !p.is_finite() || !(0.0..=1.0).contains(&p) {
        return Err(format!(
            "fault key {key}={value} is outside [0, 1] (fault rates are probabilities)"
        ));
    }
    Ok(p)
}

impl std::str::FromStr for FaultSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        FaultSpec::parse(s)
    }
}

/// Renders the canonical spec string: non-zero keys in [`KEYS`] order,
/// `-` for the zero spec — what audit lines echo, so two runs with
/// equivalent specs (`"loss=0.1, dup=0"` vs `"loss=0.1"`) print the
/// same line.
impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if self.loss > 0.0 {
            parts.push(format!("loss={}", self.loss));
        }
        if self.delay > 0.0 {
            parts.push(format!("delay={}", self.delay));
        }
        if self.dup > 0.0 {
            parts.push(format!("dup={}", self.dup));
        }
        if self.ff_crash > 0.0 {
            parts.push(format!("ff_crash={}", self.ff_crash));
        }
        if self.stall > 0 {
            parts.push(format!("stall={}", self.stall));
        }
        if self.outage > 0.0 {
            parts.push(format!("outage={}", self.outage));
        }
        if self.flake > 0.0 {
            parts.push(format!("flake={}", self.flake));
        }
        if self.io_crash > 0 {
            parts.push(format!("io_crash={}", self.io_crash));
        }
        if parts.is_empty() {
            f.write_str("-")
        } else {
            f.write_str(&parts.join(","))
        }
    }
}

// Lane salts: each fault kind draws from its own keyed stream, so e.g.
// a message's loss draw never correlates with its duplication draw.
const LANE_LOSS: u64 = 0xFA17_0001;
const LANE_DELAY: u64 = 0xFA17_0002;
const LANE_DUP: u64 = 0xFA17_0003;
const LANE_FF_CRASH: u64 = 0xFA17_0004;
const LANE_STALL: u64 = 0xFA17_0005;
const LANE_OUTAGE: u64 = 0xFA17_0006;
const LANE_FLAKE: u64 = 0xFA17_0007;

/// A seeded fault plane: the spec plus the seed its keyed draws mix in.
///
/// Cheap to clone and `Sync`-friendly (no interior mutability): every
/// decision method takes `&self` and a caller-supplied context key, so
/// one plane can be threaded through parallel fills and sweeps without
/// perturbing determinism.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultPlane {
    spec: FaultSpec,
    seed: u64,
}

impl FaultPlane {
    /// A plane injecting `spec` under `seed`.
    pub fn new(spec: FaultSpec, seed: u64) -> FaultPlane {
        FaultPlane { spec, seed }
    }

    /// The inert plane (zero spec): injects nothing, draws nothing.
    pub fn zero() -> FaultPlane {
        FaultPlane::default()
    }

    /// The plane's spec.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Whether this plane injects nothing at all (the parity fast path).
    pub fn is_zero(&self) -> bool {
        self.spec.is_zero()
    }

    /// The pure keyed draw: uniform in [0, 1), a function of (seed,
    /// lane, key) only.
    fn draw(&self, lane: u64, key: u64) -> f64 {
        DetRng::new(self.seed ^ lane ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_f64()
    }

    fn hit(&self, lane: u64, key: u64, p: f64) -> bool {
        let fired = p > 0.0 && self.draw(lane, key) < p;
        if fired {
            // Every lane's injections land in the deterministic
            // telemetry plane at the draw itself — the one choke point
            // all probabilistic lanes pass through — so chaos runs are
            // auditable from the run manifest alone. The draw is a
            // pure function of (seed, lane, key); so are the totals.
            if let Some(counter) = lane_counter(lane) {
                i2p_telemetry::count_one(counter);
            }
        }
        fired
    }

    /// Fabric: is the `n`-th send on this fabric lost in flight?
    pub fn drop_message(&self, n: u64) -> bool {
        self.hit(LANE_LOSS, n, self.spec.loss)
    }

    /// Fabric: does the `n`-th send take an extra-latency detour?
    pub fn delay_message(&self, n: u64) -> bool {
        self.hit(LANE_DELAY, n, self.spec.delay)
    }

    /// Fabric: is the `n`-th send delivered twice?
    pub fn duplicate_message(&self, n: u64) -> bool {
        self.hit(LANE_DUP, n, self.spec.dup)
    }

    /// NetDb: does responder `peer` crash (never reply) when queried on
    /// `day`? Crash sets are *nested* in the fault rate — a responder
    /// crashed at rate p also crashes at every rate > p — which is what
    /// makes retry counts provably monotone in the rate.
    pub fn responder_crashes(&self, peer: &Hash256, day: u64) -> bool {
        self.hit(LANE_FF_CRASH, peer.prefix_u64() ^ day, self.spec.ff_crash)
    }

    /// NetDb: does responder `peer` stall past the query timeout on
    /// `day`? Fires for one in `stall` responders.
    pub fn responder_stalls(&self, peer: &Hash256, day: u64) -> bool {
        let n = self.spec.stall;
        n > 0 && self.hit(LANE_STALL, peer.prefix_u64() ^ day, 1.0 / n as f64)
    }

    /// Harvest: is the (vantage, day) cell an outage (vantage down, no
    /// data for the day)? Keyed on the vantage's salt, so the same
    /// vantage is down on the same days in every build of the engine.
    pub fn vantage_outage(&self, vantage_salt: u64, day: u64) -> bool {
        self.hit(LANE_OUTAGE, vantage_salt.rotate_left(17) ^ day, self.spec.outage)
    }

    /// Usability: does attempt `attempt` of fetch `fetch` (within the
    /// scenario identified by `scenario_key`) transiently fail before
    /// it even reaches the network?
    pub fn fetch_flake(&self, scenario_key: u64, fetch: u64, attempt: u32) -> bool {
        let key = scenario_key
            .rotate_left(23)
            .wrapping_add(fetch.wrapping_mul(1009))
            .wrapping_add(attempt as u64);
        self.hit(LANE_FLAKE, key, self.spec.flake)
    }

    /// Store: should the atomic snapshot writer die at crash-point
    /// `point`? (Deterministic, not probabilistic: the spec names the
    /// exact crash-point to exercise.)
    pub fn io_crash_at(&self, point: u32) -> bool {
        let fired = self.spec.io_crash == point;
        if fired {
            i2p_telemetry::count_one(i2p_telemetry::Counter::FaultIoCrashes);
        }
        fired
    }
}

/// Maps a lane salt to its slot in the deterministic telemetry plane.
fn lane_counter(lane: u64) -> Option<i2p_telemetry::Counter> {
    use i2p_telemetry::Counter;
    match lane {
        LANE_LOSS => Some(Counter::FaultLossHits),
        LANE_DELAY => Some(Counter::FaultDelayHits),
        LANE_DUP => Some(Counter::FaultDupHits),
        LANE_FF_CRASH => Some(Counter::FaultCrashHits),
        LANE_STALL => Some(Counter::FaultStallHits),
        LANE_OUTAGE => Some(Counter::FaultOutageCells),
        LANE_FLAKE => Some(Counter::FaultFlakeHits),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_spec_parses() {
        let s = FaultSpec::parse("loss=0.02,ff_crash=0.01,stall=5,io_crash=3").expect("parses");
        assert_eq!(s.loss, 0.02);
        assert_eq!(s.ff_crash, 0.01);
        assert_eq!(s.stall, 5);
        assert_eq!(s.io_crash, 3);
        assert_eq!(s.delay, 0.0);
        assert!(!s.is_zero());
    }

    #[test]
    fn empty_spec_is_zero() {
        assert!(FaultSpec::parse("").expect("empty parses").is_zero());
        assert!(FaultSpec::parse("  , ,").expect("blanks parse").is_zero());
        assert_eq!(FaultSpec::default().to_string(), "-");
    }

    #[test]
    fn errors_list_the_supported_keys() {
        let e = FaultSpec::parse("nosuch=1").unwrap_err();
        assert!(e.contains("unknown fault key \"nosuch\""), "{e}");
        assert!(e.contains("supported keys"), "{e}");
        for (key, _) in KEYS {
            assert!(e.contains(key), "error must list {key}: {e}");
        }
        let e = FaultSpec::parse("loss").unwrap_err();
        assert!(e.contains("malformed fault token"), "{e}");
        let e = FaultSpec::parse("loss=2.0").unwrap_err();
        assert!(e.contains("outside [0, 1]"), "{e}");
        let e = FaultSpec::parse("loss=NaN").unwrap_err();
        assert!(e.contains("outside [0, 1]"), "{e}");
        let e = FaultSpec::parse("stall=x").unwrap_err();
        assert!(e.contains("whole number"), "{e}");
        let e = FaultSpec::parse("io_crash=9").unwrap_err();
        assert!(e.contains("out of range"), "{e}");
    }

    #[test]
    #[should_panic(expected = "supported keys")]
    fn env_path_panics_on_unknown_keys() {
        FaultSpec::resolve_or_panic("definitely-not-a-key=1");
    }

    #[test]
    fn display_is_canonical_and_roundtrips() {
        let s = FaultSpec::parse("dup=0,  stall=5,loss=0.1").expect("parses");
        assert_eq!(s.to_string(), "loss=0.1,stall=5");
        let back = FaultSpec::parse(&s.to_string()).expect("canonical form reparses");
        assert_eq!(back, s);
    }

    #[test]
    fn draws_are_deterministic_and_lane_independent() {
        let spec = FaultSpec::parse("loss=0.5,dup=0.5").expect("parses");
        let plane = FaultPlane::new(spec, 42);
        let hits: Vec<bool> = (0..256).map(|n| plane.drop_message(n)).collect();
        assert_eq!(hits, (0..256).map(|n| plane.drop_message(n)).collect::<Vec<_>>());
        assert!(hits.iter().any(|&h| h) && hits.iter().any(|&h| !h));
        // Loss and duplication draws differ on at least some keys.
        assert!((0..256).any(|n| plane.drop_message(n) != plane.duplicate_message(n)));
        // A different seed reshuffles the faults.
        let other = FaultPlane::new(spec, 43);
        assert!((0..256).any(|n| plane.drop_message(n) != other.drop_message(n)));
    }

    #[test]
    fn zero_plane_draws_nothing() {
        let plane = FaultPlane::zero();
        assert!(plane.is_zero());
        for n in 0..64 {
            assert!(!plane.drop_message(n));
            assert!(!plane.delay_message(n));
            assert!(!plane.duplicate_message(n));
            assert!(!plane.vantage_outage(n, n));
            assert!(!plane.fetch_flake(n, n, 0));
            assert!(!plane.responder_crashes(&Hash256::digest(&n.to_be_bytes()), 0));
            assert!(!plane.responder_stalls(&Hash256::digest(&n.to_be_bytes()), 0));
        }
        assert!(!plane.io_crash_at(1));
    }

    #[test]
    fn crash_sets_nest_in_the_fault_rate() {
        // The monotonicity backbone: a responder that crashes at rate p
        // crashes at every rate above p.
        let peers: Vec<Hash256> = (0u64..200).map(|i| Hash256::digest(&i.to_be_bytes())).collect();
        let rates = [0.0, 0.05, 0.2, 0.5, 0.9, 1.0];
        let mut prev: Vec<&Hash256> = Vec::new();
        for rate in rates {
            let plane =
                FaultPlane::new(FaultSpec { ff_crash: rate, ..Default::default() }, 7);
            let crashed: Vec<&Hash256> =
                peers.iter().filter(|p| plane.responder_crashes(p, 3)).collect();
            for p in &prev {
                assert!(crashed.contains(p), "crash sets must nest as the rate grows");
            }
            prev = crashed;
        }
        assert_eq!(prev.len(), peers.len(), "rate 1.0 crashes everyone");
    }
}
