//! Simulated wall-clock time.
//!
//! All of `pifo` runs on a deterministic simulated clock. Time is measured
//! in integer nanoseconds since simulation start, which is precise enough to
//! express per-byte transmission times on a 100 Gbit/s link (0.08 ns/bit)
//! while keeping every computation exact (no floating point in the data
//! path, mirroring a hardware implementation).

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(pub u64);

impl Nanos {
    /// Time zero: the start of the simulation.
    pub const ZERO: Nanos = Nanos(0);
    /// The largest representable time; used as "never".
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Nanos {
        Nanos(s * 1_000_000_000)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Nanos {
        Nanos(ms * 1_000_000)
    }

    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Nanos {
        Nanos(us * 1_000)
    }

    /// The raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This time expressed in (fractional) seconds; for reporting only.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction: `self - other`, clamped at zero.
    pub fn saturating_sub(self, other: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(other.0))
    }

    /// Checked addition, `None` on overflow.
    pub fn checked_add(self, other: Nanos) -> Option<Nanos> {
        self.0.checked_add(other.0).map(Nanos)
    }

    /// The later of two times.
    pub fn max(self, other: Nanos) -> Nanos {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two times.
    pub fn min(self, other: Nanos) -> Nanos {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// Transmission time of `bytes` on a link of `rate_bps` bits/second,
/// rounded up to the next nanosecond (a packet is not done until its last
/// bit has left).
///
/// # Panics
///
/// Panics if `rate_bps` is zero.
pub fn tx_time(bytes: u64, rate_bps: u64) -> Nanos {
    assert!(rate_bps > 0, "link rate must be positive");
    // Every transmit calls this: stay off 128-bit division unless the
    // bit-nanosecond product overflows `u64` (over ~2.3 GB).
    match bytes.checked_mul(BIT_NANOS_PER_BYTE) {
        Some(bits) => Nanos(bits.div_ceil(rate_bps)),
        None => Nanos(tx_time_wide(bytes, rate_bps)),
    }
}

/// Bits per byte × nanoseconds per second.
const BIT_NANOS_PER_BYTE: u64 = 8 * 1_000_000_000;

/// [`tx_time`] in 128-bit arithmetic, for byte counts whose product with
/// [`BIT_NANOS_PER_BYTE`] overflows `u64`.
fn tx_time_wide(bytes: u64, rate_bps: u64) -> u64 {
    ((bytes as u128) * BIT_NANOS_PER_BYTE as u128).div_ceil(rate_bps as u128) as u64
}

/// Number of whole bytes a link of `rate_bps` bits/second can serve in the
/// interval `dt` (rounded down).
pub fn bytes_in(dt: Nanos, rate_bps: u64) -> u64 {
    ((dt.0 as u128) * (rate_bps as u128) / 8 / 1_000_000_000) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale() {
        assert_eq!(Nanos::from_secs(2).0, 2_000_000_000);
        assert_eq!(Nanos::from_millis(3).0, 3_000_000);
        assert_eq!(Nanos::from_micros(5).0, 5_000);
    }

    #[test]
    fn ordering_and_arith() {
        let a = Nanos(100);
        let b = Nanos(250);
        assert!(a < b);
        assert_eq!(b - a, Nanos(150));
        assert_eq!(a + b, Nanos(350));
        assert_eq!(a.saturating_sub(b), Nanos::ZERO);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn tx_time_10g() {
        // 1500 B at 10 Gbit/s = 1200 ns exactly.
        assert_eq!(tx_time(1500, 10_000_000_000), Nanos(1200));
        // 64 B at 10 Gbit/s = 51.2 ns, rounds up to 52.
        assert_eq!(tx_time(64, 10_000_000_000), Nanos(52));
    }

    #[test]
    fn tx_time_rounds_up() {
        // 1 byte at 3 bits/ns-equivalent rates must round up, never down.
        let t = tx_time(1, 3_000_000_000);
        assert_eq!(t, Nanos(3)); // 8 bits / 3 bits-per-ns = 2.67 -> 3
    }

    #[test]
    fn tx_time_matches_the_wide_formula() {
        // Both sides of the u64 overflow boundary, and the extremes.
        let edge = u64::MAX / BIT_NANOS_PER_BYTE;
        assert!(edge.checked_mul(BIT_NANOS_PER_BYTE).is_some());
        assert!((edge + 1).checked_mul(BIT_NANOS_PER_BYTE).is_none());
        for bytes in [0, 1, u32::MAX as u64, edge - 1, edge, edge + 1, u64::MAX] {
            for rate in [1, 3, 10_000_000_000, u64::MAX] {
                assert_eq!(
                    tx_time(bytes, rate).as_nanos(),
                    tx_time_wide(bytes, rate),
                    "{bytes} B at {rate} b/s"
                );
            }
        }
    }

    #[test]
    fn bytes_in_inverse_of_tx_time() {
        let rate = 10_000_000_000;
        assert_eq!(bytes_in(Nanos(1200), rate), 1500);
        assert_eq!(bytes_in(Nanos(0), rate), 0);
    }

    #[test]
    fn display_picks_units() {
        assert_eq!(format!("{}", Nanos(17)), "17ns");
        assert_eq!(format!("{}", Nanos(1500)), "1.500us");
        assert_eq!(format!("{}", Nanos(2_500_000)), "2.500ms");
        assert_eq!(format!("{}", Nanos(1_200_000_000)), "1.200s");
    }

    #[test]
    #[should_panic(expected = "link rate must be positive")]
    fn tx_time_zero_rate_panics() {
        let _ = tx_time(100, 0);
    }
}
