//! Capacity flags.
//!
//! Each RouterInfo carries a `caps` option that encodes (1) the estimated
//! shared-bandwidth class as one of seven letters `K L M N O P X`, (2) the
//! floodfill flag `f`, and (3) reachability `R`/`U` (Hoang et al. §5.3).
//!
//! Two subtleties the paper's Table 1 hinges on are modelled exactly:
//!
//! * **The `P/X → O` compatibility rule** (§5.3.1): since I2P 0.9.20, a
//!   peer in class `P` or `X` *also* publishes `O` so that older software
//!   keeps working. This is why Table 1's columns sum to more than 100 %.
//! * **Unqualified floodfills**: operators can force the `f` flag on
//!   routers below the 128 KB/s (class `N`) automatic-opt-in threshold;
//!   §5.3.1 uses the share of qualified (N/O/P/X) floodfills (71 %) to
//!   re-estimate the network population.

use crate::codec::DecodeError;

/// The seven shared-bandwidth classes (§5.3.1).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum BandwidthClass {
    /// < 12 KB/s.
    K,
    /// 12–48 KB/s (the I2P default — dominant in the network, Fig. 9).
    L,
    /// 48–64 KB/s.
    M,
    /// 64–128 KB/s.
    N,
    /// 128–256 KB/s.
    O,
    /// 256–2000 KB/s.
    P,
    /// > 2000 KB/s.
    X,
}

impl BandwidthClass {
    /// All classes in ascending bandwidth order.
    pub const ALL: [BandwidthClass; 7] = [
        BandwidthClass::K,
        BandwidthClass::L,
        BandwidthClass::M,
        BandwidthClass::N,
        BandwidthClass::O,
        BandwidthClass::P,
        BandwidthClass::X,
    ];

    /// Position in [`BandwidthClass::ALL`] (ascending bandwidth
    /// order), as a total function — histogram code indexes by this.
    pub const fn index(self) -> usize {
        match self {
            BandwidthClass::K => 0,
            BandwidthClass::L => 1,
            BandwidthClass::M => 2,
            BandwidthClass::N => 3,
            BandwidthClass::O => 4,
            BandwidthClass::P => 5,
            BandwidthClass::X => 6,
        }
    }

    /// The capability letter.
    pub const fn letter(self) -> char {
        match self {
            BandwidthClass::K => 'K',
            BandwidthClass::L => 'L',
            BandwidthClass::M => 'M',
            BandwidthClass::N => 'N',
            BandwidthClass::O => 'O',
            BandwidthClass::P => 'P',
            BandwidthClass::X => 'X',
        }
    }

    /// Parses a capability letter.
    pub const fn from_letter(c: char) -> Option<Self> {
        Some(match c {
            'K' => BandwidthClass::K,
            'L' => BandwidthClass::L,
            'M' => BandwidthClass::M,
            'N' => BandwidthClass::N,
            'O' => BandwidthClass::O,
            'P' => BandwidthClass::P,
            'X' => BandwidthClass::X,
            _ => return None,
        })
    }

    /// The class for a given shared bandwidth in KB/s.
    pub fn for_shared_kbps(kbps: u32) -> Self {
        match kbps {
            0..=11 => BandwidthClass::K,
            12..=47 => BandwidthClass::L,
            48..=63 => BandwidthClass::M,
            64..=127 => BandwidthClass::N,
            128..=255 => BandwidthClass::O,
            256..=1999 => BandwidthClass::P,
            _ => BandwidthClass::X,
        }
    }

    /// Representative shared bandwidth (KB/s) for a class — the midpoint
    /// of its range (cap for `X`). Used by the tunnel peer-selection
    /// weighting.
    pub const fn nominal_kbps(self) -> u32 {
        match self {
            BandwidthClass::K => 8,
            BandwidthClass::L => 30,
            BandwidthClass::M => 56,
            BandwidthClass::N => 96,
            BandwidthClass::O => 192,
            BandwidthClass::P => 1128,
            BandwidthClass::X => 4000,
        }
    }

    /// Whether this class meets the automatic floodfill opt-in minimum
    /// (≥ class `N`, i.e. ≥ 64 KB/s with ≥128 KB/s share requirement met
    /// by N-and-above in practice; §5.3.1).
    pub const fn floodfill_qualified(self) -> bool {
        matches!(
            self,
            BandwidthClass::N | BandwidthClass::O | BandwidthClass::P | BandwidthClass::X
        )
    }
}

/// A parsed capacity-flag set.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Caps {
    /// The peer's *true* bandwidth class.
    pub bandwidth: BandwidthClass,
    /// Floodfill flag `f`.
    pub floodfill: bool,
    /// Reachable (`R`) vs unreachable (`U`).
    pub reachable: bool,
    /// Hidden mode (`H`): does not publish an address at all.
    pub hidden: bool,
}

impl Caps {
    /// Builds caps for a plain reachable non-floodfill router.
    pub fn standard(bandwidth: BandwidthClass) -> Self {
        Caps { bandwidth, floodfill: false, reachable: true, hidden: false }
    }

    /// The capability letters this peer *publishes*, applying the
    /// `P/X → O` compatibility rule.
    fn published_letters(&self) -> Vec<char> {
        let mut out = Vec::with_capacity(4);
        if matches!(self.bandwidth, BandwidthClass::P | BandwidthClass::X) {
            out.push(BandwidthClass::O.letter());
        }
        out.push(self.bandwidth.letter());
        if self.floodfill {
            out.push('f');
        }
        out.push(if self.reachable { 'R' } else { 'U' });
        if self.hidden {
            out.push('H');
        }
        out
    }

    /// Formats the caps string as it appears in a RouterInfo (e.g. `OfR`
    /// for a reachable 128–256 KB/s floodfill — the paper's §5.3.1
    /// example).
    pub fn to_caps_string(&self) -> String {
        self.published_letters().into_iter().collect()
    }

    /// Parses a caps string. The *highest* bandwidth letter present is the
    /// true class (inverting the `P/X → O` rule).
    ///
    /// Reachability is a single flag: a second `R` or `U` — duplicate or
    /// contradictory (`"LRU"`) — is rejected rather than letting the
    /// later letter silently win.
    pub fn parse(s: &str) -> Result<Self, DecodeError> {
        let mut bandwidth: Option<BandwidthClass> = None;
        let mut floodfill = false;
        let mut reachable = None;
        let mut hidden = false;
        for c in s.chars() {
            if let Some(b) = BandwidthClass::from_letter(c) {
                bandwidth = Some(match bandwidth {
                    Some(prev) if prev >= b => prev,
                    _ => b,
                });
            } else {
                match c {
                    'f' => floodfill = true,
                    'R' | 'U' => {
                        if reachable.is_some() {
                            return Err(DecodeError::Invalid { what: "caps reachability" });
                        }
                        reachable = Some(c == 'R');
                    }
                    'H' => hidden = true,
                    _ => return Err(DecodeError::Invalid { what: "caps" }),
                }
            }
        }
        Ok(Caps {
            bandwidth: bandwidth.ok_or(DecodeError::Invalid { what: "caps" })?,
            floodfill,
            reachable: reachable.unwrap_or(false),
            hidden,
        })
    }

    /// Whether this is a *qualified* floodfill (floodfill flag AND
    /// automatic-opt-in bandwidth; §5.3.1's 71 %).
    pub fn qualified_floodfill(&self) -> bool {
        self.floodfill && self.bandwidth.floodfill_qualified()
    }
}

impl std::fmt::Display for Caps {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_caps_string())
    }
}

/// An inline caps string.
///
/// A published caps string never exceeds five letters (compat `O` +
/// bandwidth letter + `f` + `R`/`U` + `H`), so observation records store
/// it in a fixed six-byte buffer instead of a heap `String` — at harvest
/// scale (peers × days × vantages) the per-record allocation dominates
/// record capture.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct CapsString {
    buf: [u8; 6],
    len: u8,
}

impl CapsString {
    /// Maximum letters an inline caps string holds.
    pub const CAPACITY: usize = 6;

    /// The empty caps string.
    pub const fn new() -> Self {
        CapsString { buf: [0; 6], len: 0 }
    }

    /// Appends a capability letter.
    ///
    /// # Panics
    /// If the buffer is full or `c` is not ASCII — caps letters are
    /// drawn from `K..X f R U H`.
    pub fn push(&mut self, c: char) {
        assert!(c.is_ascii(), "caps letters are ASCII");
        assert!((self.len as usize) < Self::CAPACITY, "caps string overflow");
        self.buf[self.len as usize] = c as u8;
        self.len += 1;
    }

    /// The string view.
    pub fn as_str(&self) -> &str {
        // i2plint: allow(panic-audit) -- push() only ever appends ASCII capability letters
        std::str::from_utf8(&self.buf[..self.len as usize]).expect("caps are ASCII")
    }
}

impl Default for CapsString {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for CapsString {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for CapsString {
    fn from(s: &str) -> Self {
        let mut out = CapsString::new();
        for c in s.chars() {
            out.push(c);
        }
        out
    }
}

impl PartialEq<&str> for CapsString {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl std::fmt::Display for CapsString {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::fmt::Debug for CapsString {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl Caps {
    /// The published caps string as an inline [`CapsString`].
    pub fn to_inline_caps(&self) -> CapsString {
        let mut out = CapsString::new();
        for c in self.published_letters() {
            out.push(c);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_ranges_match_paper_table() {
        assert_eq!(BandwidthClass::for_shared_kbps(5), BandwidthClass::K);
        assert_eq!(BandwidthClass::for_shared_kbps(12), BandwidthClass::L);
        assert_eq!(BandwidthClass::for_shared_kbps(47), BandwidthClass::L);
        assert_eq!(BandwidthClass::for_shared_kbps(48), BandwidthClass::M);
        assert_eq!(BandwidthClass::for_shared_kbps(64), BandwidthClass::N);
        assert_eq!(BandwidthClass::for_shared_kbps(128), BandwidthClass::O);
        assert_eq!(BandwidthClass::for_shared_kbps(256), BandwidthClass::P);
        assert_eq!(BandwidthClass::for_shared_kbps(2000), BandwidthClass::X);
    }

    #[test]
    fn paper_example_ofr() {
        let caps = Caps {
            bandwidth: BandwidthClass::O,
            floodfill: true,
            reachable: true,
            hidden: false,
        };
        assert_eq!(caps.to_caps_string(), "OfR");
        assert_eq!(Caps::parse("OfR").unwrap(), caps);
    }

    #[test]
    fn px_publish_o_for_compat() {
        let p = Caps::standard(BandwidthClass::P);
        assert_eq!(p.to_caps_string(), "OPR");
        let x = Caps::standard(BandwidthClass::X);
        assert_eq!(x.to_caps_string(), "OXR");
        // Parsing recovers the true class.
        assert_eq!(Caps::parse("OPR").unwrap().bandwidth, BandwidthClass::P);
        assert_eq!(Caps::parse("OXR").unwrap().bandwidth, BandwidthClass::X);
    }

    #[test]
    fn roundtrip_all_combinations() {
        for b in BandwidthClass::ALL {
            for ff in [false, true] {
                for r in [false, true] {
                    for h in [false, true] {
                        let caps = Caps { bandwidth: b, floodfill: ff, reachable: r, hidden: h };
                        let parsed = Caps::parse(&caps.to_caps_string()).unwrap();
                        assert_eq!(parsed, caps);
                    }
                }
            }
        }
    }

    #[test]
    fn qualified_floodfill_threshold() {
        for b in BandwidthClass::ALL {
            let caps = Caps { bandwidth: b, floodfill: true, reachable: true, hidden: false };
            assert_eq!(caps.qualified_floodfill(), b >= BandwidthClass::N, "{b:?}");
        }
        // Non-floodfill is never qualified.
        assert!(!Caps::standard(BandwidthClass::X).qualified_floodfill());
    }

    #[test]
    fn invalid_caps_rejected() {
        assert!(Caps::parse("Z").is_err());
        assert!(Caps::parse("").is_err());
        assert!(Caps::parse("fR").is_err()); // no bandwidth letter
    }

    #[test]
    fn contradictory_reachability_rejected() {
        // Regression: "LRU" used to parse as unreachable (the later `U`
        // silently overrode the earlier `R`).
        assert!(Caps::parse("LRU").is_err());
        assert!(Caps::parse("LUR").is_err());
        // Duplicates are just as malformed.
        assert!(Caps::parse("LRR").is_err());
        assert!(Caps::parse("LUU").is_err());
        // A single flag still parses either way round.
        assert!(Caps::parse("LR").unwrap().reachable);
        assert!(!Caps::parse("LU").unwrap().reachable);
    }

    #[test]
    fn inline_caps_matches_heap_string() {
        for b in BandwidthClass::ALL {
            for ff in [false, true] {
                for r in [false, true] {
                    for h in [false, true] {
                        let caps = Caps { bandwidth: b, floodfill: ff, reachable: r, hidden: h };
                        let inline = caps.to_inline_caps();
                        assert_eq!(inline.as_str(), caps.to_caps_string());
                        assert_eq!(Caps::parse(&inline).unwrap(), caps);
                        assert_eq!(CapsString::from(inline.as_str()), inline);
                    }
                }
            }
        }
    }

    #[test]
    fn inline_caps_longest_legal_string_fits() {
        // `OXfUH` is the longest publishable combination (5 letters).
        let caps =
            Caps { bandwidth: BandwidthClass::X, floodfill: true, reachable: false, hidden: true };
        let inline = caps.to_inline_caps();
        assert_eq!(inline, "OXfUH");
        assert_eq!(inline.len(), 5);
        assert!(inline.len() <= CapsString::CAPACITY);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn inline_caps_overflow_panics() {
        let mut s = CapsString::new();
        for _ in 0..7 {
            s.push('L');
        }
    }
}
