//! Simulation time.
//!
//! The emulator runs on a millisecond-resolution virtual clock starting at
//! the (virtual) study epoch — 2018-02-01 00:00 UTC, the first day of the
//! paper's three-month measurement (Hoang et al. §5). Day boundaries are
//! significant: netDb routing keys rotate at UTC midnight (§2.1.2) and the
//! monitoring fleet clears its netDb directory every 24 h (§4.3).

/// A span of simulated time, in milliseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Duration(pub u64);

impl Duration {
    /// Zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// From milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms)
    }

    /// From whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000)
    }

    /// From whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        Duration(m * 60_000)
    }

    /// From whole hours.
    pub const fn from_hours(h: u64) -> Self {
        Duration(h * 3_600_000)
    }

    /// Milliseconds in this span.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Seconds, as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }
}

impl std::ops::Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl std::ops::Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

/// An instant on the simulation clock (ms since the study epoch).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SimTime(pub u64);

/// Calendar labels for the simulated study period: `(month, first day
/// index)`. Day 0 = 2018-02-01.
const MONTH_STARTS: [(&str, u64); 3] = [("02", 0), ("03", 28), ("04", 59)];

impl SimTime {
    /// The study epoch (2018-02-01 00:00 UTC).
    pub const EPOCH: SimTime = SimTime(0);

    /// Builds an instant `d` days plus `ms` milliseconds after the epoch.
    pub const fn from_day_ms(day: u64, ms: u64) -> Self {
        SimTime(day * 86_400_000 + ms)
    }

    /// The UTC day index since the epoch.
    pub const fn day(self) -> u64 {
        self.0 / 86_400_000
    }

    /// Milliseconds since the epoch.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// The `yyyyMMdd`-style date string concatenated into routing keys.
    /// (The exact calendar only matters for display; rotation happens per
    /// simulated UTC day.)
    pub fn date_string(self) -> String {
        let day = self.day();
        let (month, start) = MONTH_STARTS
            .iter()
            .rev()
            .find(|(_, s)| *s <= day % 89)
            .copied()
            .unwrap_or(("02", 0));
        // Beyond the 89-day study window, wrap months but keep strings
        // unique per absolute day by including the day index.
        if day < 89 {
            format!("2018{month}{:02}", day - start + 1)
        } else {
            format!("2018x{day:05}")
        }
    }

    /// Start of this instant's UTC day (routing-key rotation boundary).
    pub const fn day_start(self) -> SimTime {
        SimTime(self.day() * 86_400_000)
    }

    /// Instant `d` later.
    const fn plus(self, d: Duration) -> SimTime {
        SimTime(self.0 + d.0)
    }

    /// Span since `earlier` (saturating).
    pub const fn since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl std::ops::Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        self.plus(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn day_arithmetic() {
        let t = SimTime::from_day_ms(3, 5_000);
        assert_eq!(t.day(), 3);
        assert_eq!(t.day_start(), SimTime::from_day_ms(3, 0));
        let u = t + Duration::from_hours(25);
        assert_eq!(u.day(), 4);
    }

    #[test]
    fn date_strings_unique_per_day() {
        let mut seen = std::collections::HashSet::new();
        for d in 0..120u64 {
            let s = SimTime::from_day_ms(d, 10).date_string();
            assert!(seen.insert(s.clone()), "duplicate date string {s} on day {d}");
        }
    }

    #[test]
    fn date_string_calendar_labels() {
        assert_eq!(SimTime::from_day_ms(0, 0).date_string(), "20180201");
        assert_eq!(SimTime::from_day_ms(27, 0).date_string(), "20180228");
        assert_eq!(SimTime::from_day_ms(28, 0).date_string(), "20180301");
        assert_eq!(SimTime::from_day_ms(59, 0).date_string(), "20180401");
    }

    #[test]
    fn since_saturates() {
        let a = SimTime(100);
        let b = SimTime(300);
        assert_eq!(b.since(a), Duration(200));
        assert_eq!(a.since(b), Duration(0));
    }

    #[test]
    fn duration_constructors() {
        assert_eq!(Duration::from_hours(1), Duration::from_mins(60));
        assert_eq!(Duration::from_mins(1), Duration::from_secs(60));
        assert_eq!((Duration::from_secs(3) * 2).as_secs_f64(), 6.0);
    }
}
