//! Virtual time, durations and hardware unit helpers.
//!
//! All simulation time is kept in integer nanoseconds. Sub-nanosecond
//! quantities (e.g. per-byte serialization times at 100 Gbps) are handled by
//! the [`Bandwidth`] and [`Frequency`] helpers, which compute durations for a
//! whole transfer/cycle-count at once so rounding error does not accumulate.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulation clock, in nanoseconds since start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant (used as "never").
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Constructs an instant from raw nanoseconds since simulation start.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`, saturating to zero.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", SimDuration(self.0))
    }
}

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable duration (used as "infinite timeout").
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Constructs a duration from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Constructs a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Constructs a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Constructs a duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Constructs a duration from fractional seconds, rounding to nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration seconds: {s}");
        SimDuration((s * 1e9).round() as u64)
    }

    /// Total nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Total seconds, as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The larger of two durations.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// The smaller of two durations.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies by a float factor (for congestion-window style math),
    /// rounding to nanoseconds and saturating at zero.
    pub fn mul_f64(self, k: f64) -> SimDuration {
        SimDuration(((self.0 as f64) * k).max(0.0).round() as u64)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

/// A clock frequency, used to convert hardware cycle counts into time.
///
/// ```
/// use clio_sim::{Frequency, Cycles};
/// let fpga = Frequency::from_mhz(250);
/// assert_eq!(fpga.cycles(Cycles(3)).as_nanos(), 12); // 4 ns per cycle
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Frequency {
    hz: u64,
}

impl Frequency {
    /// Constructs a frequency from hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is zero.
    pub fn from_hz(hz: u64) -> Self {
        assert!(hz > 0, "frequency must be non-zero");
        Frequency { hz }
    }

    /// Constructs a frequency from megahertz.
    pub fn from_mhz(mhz: u64) -> Self {
        Self::from_hz(mhz * 1_000_000)
    }

    /// Constructs a frequency from gigahertz.
    pub fn from_ghz(ghz: u64) -> Self {
        Self::from_hz(ghz * 1_000_000_000)
    }

    /// The duration of `n` cycles at this frequency (rounded to ns, at least
    /// 1 ns for a non-zero cycle count so events always make progress).
    #[inline]
    pub fn cycles(self, n: Cycles) -> SimDuration {
        if n.0 == 0 {
            return SimDuration::ZERO;
        }
        let ns = (n.0 as u128 * 1_000_000_000u128).div_ceil(self.hz as u128);
        SimDuration::from_nanos((ns as u64).max(1))
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.hz.is_multiple_of(1_000_000_000) {
            write!(f, "{}GHz", self.hz / 1_000_000_000)
        } else if self.hz.is_multiple_of(1_000_000) {
            write!(f, "{}MHz", self.hz / 1_000_000)
        } else {
            write!(f, "{}Hz", self.hz)
        }
    }
}

/// A count of hardware clock cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(pub u64);

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cyc", self.0)
    }
}

/// A data rate, used to compute serialization/transfer times.
///
/// ```
/// use clio_sim::Bandwidth;
/// let port = Bandwidth::from_gbps(10);
/// // 1250 bytes at 10 Gbps = 1 us
/// assert_eq!(port.transfer_time(1250).as_nanos(), 1000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bandwidth {
    bits_per_sec: u64,
}

impl Bandwidth {
    /// Constructs a bandwidth from bits per second.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is zero.
    pub const fn from_bps(bps: u64) -> Self {
        assert!(bps > 0, "bandwidth must be non-zero");
        Bandwidth { bits_per_sec: bps }
    }

    /// Constructs a bandwidth from gigabits per second.
    pub const fn from_gbps(gbps: u64) -> Self {
        Self::from_bps(gbps * 1_000_000_000)
    }

    /// Constructs a bandwidth from gigabytes per second.
    pub const fn from_gigabytes_per_sec(gbs: u64) -> Self {
        Self::from_bps(gbs * 8_000_000_000)
    }

    /// The rate in bits per second.
    pub fn as_bps(self) -> u64 {
        self.bits_per_sec
    }

    /// The rate in gigabits per second, as a float (for reporting).
    pub fn as_gbps_f64(self) -> f64 {
        self.bits_per_sec as f64 / 1e9
    }

    /// Time to transfer `bytes` at this rate, rounded up to whole nanoseconds.
    #[inline]
    pub fn transfer_time(self, bytes: u64) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        let ns = (bytes as u128 * 8 * 1_000_000_000).div_ceil(self.bits_per_sec as u128);
        SimDuration::from_nanos(ns as u64)
    }

    /// The goodput implied by transferring `bytes` over `elapsed` time.
    pub fn from_transfer(bytes: u64, elapsed: SimDuration) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        (bytes as f64 * 8.0) / elapsed.as_secs_f64()
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}Gbps", self.as_gbps_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_nanos(1000);
        let d = SimDuration::from_micros(2);
        assert_eq!((t + d).as_nanos(), 3000);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d).since(t), d);
        assert_eq!(t.since(t + d), SimDuration::ZERO);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1000));
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1000));
        assert_eq!(SimDuration::from_secs_f64(1.5), SimDuration::from_millis(1500));
    }

    #[test]
    fn duration_saturates() {
        let a = SimDuration::from_nanos(5);
        let b = SimDuration::from_nanos(7);
        assert_eq!(a - b, SimDuration::ZERO);
        assert_eq!(a.saturating_sub(b), SimDuration::ZERO);
        assert_eq!(SimDuration::MAX + b, SimDuration::MAX);
    }

    #[test]
    fn frequency_cycle_times() {
        let f = Frequency::from_mhz(250);
        assert_eq!(f.cycles(Cycles(1)).as_nanos(), 4);
        assert_eq!(f.cycles(Cycles(0)), SimDuration::ZERO);
        let ghz = Frequency::from_ghz(2);
        assert_eq!(ghz.cycles(Cycles(2)).as_nanos(), 1);
        // Rounds up, never zero for non-zero cycles.
        assert_eq!(ghz.cycles(Cycles(1)).as_nanos(), 1);
    }

    #[test]
    fn bandwidth_transfer_times() {
        let bw = Bandwidth::from_gbps(100);
        assert_eq!(bw.transfer_time(0), SimDuration::ZERO);
        // 64 B at 100 Gbps = 5.12 ns -> rounds up to 6.
        assert_eq!(bw.transfer_time(64).as_nanos(), 6);
        let slow = Bandwidth::from_bps(1_000_000);
        assert_eq!(slow.transfer_time(125_000), SimDuration::from_secs(1));
    }

    #[test]
    fn goodput_from_transfer() {
        let g = Bandwidth::from_transfer(1_250_000_000, SimDuration::from_secs(1));
        assert!((g - 1e10).abs() < 1.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_nanos(17).to_string(), "17ns");
        assert_eq!(SimDuration::from_micros(2).to_string(), "2.000us");
        assert_eq!(SimDuration::from_millis(3).to_string(), "3.000ms");
        assert_eq!(SimDuration::from_secs(4).to_string(), "4.000s");
        assert_eq!(Frequency::from_mhz(250).to_string(), "250MHz");
        assert_eq!(Bandwidth::from_gbps(10).to_string(), "10.00Gbps");
    }

    #[test]
    fn mul_f64_rounds() {
        let d = SimDuration::from_nanos(100);
        assert_eq!(d.mul_f64(1.5).as_nanos(), 150);
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
    }
}
