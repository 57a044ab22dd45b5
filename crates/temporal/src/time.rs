//! Time points and durations.
//!
//! The paper mixes a discrete-slot model (§3.1.1) with second-granularity
//! trace timestamps (§5) and needs the two sentinel values `+∞` (a delivery
//! that never happens) and `-∞` (the earliest-arrival of the empty contact
//! sequence, "the message is already at the source"). `Time` is therefore a
//! totally ordered `f64` newtype that admits both infinities but rejects NaN
//! at every constructor.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in time, in seconds. Totally ordered; admits `±∞`, rejects NaN.
/// Underlies the path-time arithmetic of §4.2–§4.3.
#[derive(Clone, Copy)]
pub struct Time(f64);

/// A span of time, in seconds. Totally ordered; admits `+∞`, rejects NaN.
/// The delay unit of the §4.1 diameter metrics.
#[derive(Clone, Copy)]
pub struct Dur(f64);

/// Maps `-0.0` to `+0.0` so that `total_cmp`-based equality, ordering and
/// hashing all agree.
fn normalize(x: f64) -> f64 {
    if x == 0.0 {
        0.0
    } else {
        x
    }
}

impl Time {
    /// The origin of the trace clock.
    pub const ZERO: Time = Time(0.0);
    /// "Never": the arrival time of an unreachable destination.
    pub const INF: Time = Time(f64::INFINITY);
    /// "Always already": the earliest arrival of the empty sequence.
    pub const NEG_INF: Time = Time(f64::NEG_INFINITY);

    /// A time point `s` seconds after the origin. Panics on NaN.
    pub fn secs(s: f64) -> Time {
        assert!(!s.is_nan(), "Time must not be NaN");
        Time(normalize(s))
    }

    /// Seconds since the origin.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// True when finite (neither infinity).
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// The later of two time points.
    pub fn max(self, other: Time) -> Time {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The earlier of two time points.
    pub fn min(self, other: Time) -> Time {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Elapsed time from `earlier` to `self`; may be negative.
    ///
    /// Subtraction of equal infinities would be NaN, so it panics instead:
    /// callers compare against `Time::INF` before taking differences.
    pub fn since(self, earlier: Time) -> Dur {
        let d = self.0 - earlier.0;
        assert!(!d.is_nan(), "difference of like infinities is undefined");
        Dur(normalize(d))
    }
}

impl Dur {
    /// Zero-length duration.
    pub const ZERO: Dur = Dur(0.0);
    /// Unbounded duration (the delay of a never-delivered message).
    pub const INF: Dur = Dur(f64::INFINITY);

    /// `s` seconds. Panics on NaN.
    pub fn secs(s: f64) -> Dur {
        assert!(!s.is_nan(), "Dur must not be NaN");
        Dur(normalize(s))
    }

    /// `m` minutes.
    pub fn mins(m: f64) -> Dur {
        Dur::secs(m * 60.0)
    }

    /// `h` hours.
    pub fn hours(h: f64) -> Dur {
        Dur::secs(h * 3600.0)
    }

    /// `d` days.
    pub fn days(d: f64) -> Dur {
        Dur::secs(d * 86_400.0)
    }

    /// `w` weeks.
    pub fn weeks(w: f64) -> Dur {
        Dur::secs(w * 604_800.0)
    }

    /// Seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Minutes.
    pub fn as_mins(self) -> f64 {
        self.0 / 60.0
    }

    /// Hours.
    pub fn as_hours(self) -> f64 {
        self.0 / 3600.0
    }

    /// Days.
    pub fn as_days(self) -> f64 {
        self.0 / 86_400.0
    }

    /// True when finite.
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// The larger of two durations.
    pub fn max(self, other: Dur) -> Dur {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of two durations.
    pub fn min(self, other: Dur) -> Dur {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl PartialEq for Time {
    fn eq(&self, other: &Self) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}
impl Eq for Time {}
// Every constructor rejects NaN and maps −0 to +0, so the IEEE order is
// total on `Time` values and agrees with `f64::total_cmp`; the plain
// comparisons are cheaper on the induction's hot path.
impl Ord for Time {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 < other.0 {
            std::cmp::Ordering::Less
        } else if self.0 > other.0 {
            std::cmp::Ordering::Greater
        } else {
            std::cmp::Ordering::Equal
        }
    }
}
impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
    fn lt(&self, other: &Self) -> bool {
        self.0 < other.0
    }
    fn le(&self, other: &Self) -> bool {
        self.0 <= other.0
    }
    fn gt(&self, other: &Self) -> bool {
        self.0 > other.0
    }
    fn ge(&self, other: &Self) -> bool {
        self.0 >= other.0
    }
}
impl std::hash::Hash for Time {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

impl PartialEq for Dur {
    fn eq(&self, other: &Self) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}
impl Eq for Dur {}
impl Ord for Dur {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}
impl PartialOrd for Dur {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl std::hash::Hash for Dur {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    fn add(self, rhs: Dur) -> Time {
        let t = self.0 + rhs.0;
        assert!(!t.is_nan(), "Time + Dur produced NaN (∞ + -∞?)");
        Time(normalize(t))
    }
}

impl AddAssign<Dur> for Time {
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub<Dur> for Time {
    type Output = Time;
    fn sub(self, rhs: Dur) -> Time {
        let t = self.0 - rhs.0;
        assert!(!t.is_nan(), "Time - Dur produced NaN");
        Time(normalize(t))
    }
}

impl Add for Dur {
    type Output = Dur;
    fn add(self, rhs: Dur) -> Dur {
        Dur(normalize(self.0 + rhs.0))
    }
}

impl Sub for Dur {
    type Output = Dur;
    fn sub(self, rhs: Dur) -> Dur {
        let d = self.0 - rhs.0;
        assert!(!d.is_nan(), "Dur - Dur produced NaN");
        Dur(normalize(d))
    }
}

impl std::iter::Sum for Dur {
    fn sum<I: Iterator<Item = Dur>>(iter: I) -> Dur {
        iter.fold(Dur::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Time({})", self.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == f64::INFINITY {
            write!(f, "∞")
        } else if self.0 == f64::NEG_INFINITY {
            write!(f, "-∞")
        } else {
            write!(f, "{}", Dur(self.0))
        }
    }
}

impl fmt::Debug for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Dur({})", self.0)
    }
}

impl fmt::Display for Dur {
    /// Human scale: `90s` → `1m30s`, `7200s` → `2h`, etc.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        if s == f64::INFINITY {
            return write!(f, "∞");
        }
        if s < 0.0 {
            return write!(f, "-{}", Dur(-s));
        }
        let total = s.round() as u64;
        if s < 60.0 && (s.fract() != 0.0 || total == 0) {
            return write!(f, "{:.3}s", s);
        }
        let (d, rem) = (total / 86_400, total % 86_400);
        let (h, rem) = (rem / 3600, rem % 3600);
        let (m, sec) = (rem / 60, rem % 60);
        let mut wrote = false;
        for (v, unit) in [(d, "d"), (h, "h"), (m, "m"), (sec, "s")] {
            if v > 0 {
                write!(f, "{}{}", v, unit)?;
                wrote = true;
            }
        }
        if !wrote {
            write!(f, "0s")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_includes_infinities() {
        assert!(Time::NEG_INF < Time::ZERO);
        assert!(Time::ZERO < Time::secs(1.0));
        assert!(Time::secs(1e12) < Time::INF);
        assert_eq!(Time::INF.max(Time::ZERO), Time::INF);
        assert_eq!(Time::NEG_INF.min(Time::ZERO), Time::NEG_INF);
    }

    #[test]
    fn arithmetic() {
        let t = Time::secs(100.0) + Dur::mins(2.0);
        assert_eq!(t, Time::secs(220.0));
        assert_eq!(t.since(Time::secs(20.0)), Dur::secs(200.0));
        assert_eq!(Time::secs(10.0) - Dur::secs(4.0), Time::secs(6.0));
        assert_eq!(Dur::hours(1.0) + Dur::mins(30.0), Dur::mins(90.0));
    }

    #[test]
    fn infinite_delay() {
        assert_eq!(Time::INF.since(Time::ZERO), Dur::INF);
        assert!(!Time::INF.is_finite());
        assert!(Dur::INF > Dur::days(1e9));
    }

    #[test]
    #[should_panic(expected = "undefined")]
    fn inf_minus_inf_panics() {
        let _ = Time::INF.since(Time::INF);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_time_rejected() {
        let _ = Time::secs(f64::NAN);
    }

    #[test]
    fn unit_conversions() {
        assert_eq!(Dur::days(1.0).as_hours(), 24.0);
        assert_eq!(Dur::weeks(1.0).as_days(), 7.0);
        assert_eq!(Dur::mins(2.0).as_secs(), 120.0);
        assert_eq!(Dur::hours(0.5).as_mins(), 30.0);
    }

    #[test]
    fn display_humane() {
        assert_eq!(Dur::secs(90.0).to_string(), "1m30s");
        assert_eq!(Dur::hours(2.0).to_string(), "2h");
        assert_eq!(Dur::days(1.0).to_string(), "1d");
        assert_eq!(Dur::secs(0.5).to_string(), "0.500s");
        assert_eq!(Dur::INF.to_string(), "∞");
        assert_eq!((Dur::days(2.0) + Dur::hours(3.0)).to_string(), "2d3h");
        assert_eq!(Time::INF.to_string(), "∞");
        assert_eq!(Time::NEG_INF.to_string(), "-∞");
    }

    #[test]
    fn negative_zero_normalized() {
        assert_eq!(Time::secs(-0.0), Time::ZERO);
        assert_eq!(Time::secs(0.0) - Dur::secs(0.0), Time::ZERO);
        assert_eq!(Dur::secs(-0.0), Dur::ZERO);
        assert!((Time::secs(-0.0) >= Time::ZERO));
    }

    /// A value as the constructors produce it: the special values, small
    /// integers (so equal pairs are common), raw bit patterns, and sums.
    fn constructible(kind: u8, small: i64, bits: u64, other: f64) -> Option<Time> {
        let x = match kind {
            0 => f64::INFINITY,
            1 => f64::NEG_INFINITY,
            2 => -0.0,
            3 => small as f64,
            4 => f64::from_bits(bits),
            _ => {
                let sum = small as f64 + other;
                return (!sum.is_nan()).then(|| Time::secs(small as f64) + Dur::secs(other));
            }
        };
        (!x.is_nan()).then(|| Time::secs(x))
    }

    fn time_strategy() -> impl proptest::strategy::Strategy<Value = Time> {
        use proptest::prelude::*;
        (0u8..6, -3i64..3, 0u64..u64::MAX, -3.0f64..3.0)
            .prop_filter_map("NaN is not constructible", |(kind, small, bits, other)| {
                constructible(kind, small, bits, other)
            })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        /// The IEEE comparisons `Ord` uses agree with `f64::total_cmp` on
        /// every value a constructor can produce, `±∞` included.
        #[test]
        fn ieee_order_matches_total_cmp(a in time_strategy(), b in time_strategy()) {
            let want = a.as_secs().total_cmp(&b.as_secs());
            proptest::prop_assert_eq!(a.cmp(&b), want);
            proptest::prop_assert_eq!(a.partial_cmp(&b), Some(want));
            proptest::prop_assert_eq!(a < b, want.is_lt());
            proptest::prop_assert_eq!(a <= b, want.is_le());
            proptest::prop_assert_eq!(a > b, want.is_gt());
            proptest::prop_assert_eq!(a >= b, want.is_ge());
            proptest::prop_assert_eq!(a == b, want.is_eq());
        }
    }

    #[test]
    fn constructible_values_include_the_infinities() {
        assert_eq!(constructible(0, 0, 0, 0.0), Some(Time::INF));
        assert_eq!(constructible(1, 0, 0, 0.0), Some(Time::NEG_INF));
        assert_eq!(constructible(2, 0, 0, 0.0), Some(Time::ZERO));
        assert_eq!(constructible(4, 0, f64::NAN.to_bits(), 0.0), None);
    }

    #[test]
    fn sum_of_durations() {
        let total: Dur = [Dur::secs(1.0), Dur::secs(2.0), Dur::secs(3.0)]
            .into_iter()
            .sum();
        assert_eq!(total, Dur::secs(6.0));
    }
}
