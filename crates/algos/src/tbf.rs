//! Token Bucket Filter shaping transaction (§2.3, Fig 4c).
//!
//! ```text
//! tokens = min(tokens + r * (now - last_time), B)
//! if p.length <= tokens:
//!     p.send_time = now
//! else:
//!     p.send_time = now + (p.length - tokens) / r
//! tokens = tokens - p.length
//! last_time = now
//! p.rank = p.send_time
//! ```
//!
//! Note `tokens` may go negative after the unconditional subtraction —
//! that "borrowing" is what spaces out a run of over-rate packets at
//! exactly the token rate. All arithmetic is integer, in units of
//! *nanobits* (1e-9 bit): at a rate of `r` bits/second, one nanosecond
//! replenishes exactly `r` nanobits, so no division is needed on the
//! refill path.

use pifo_core::prelude::*;

const NANOBITS_PER_BYTE: i128 = 8 * 1_000_000_000;

/// Token bucket filter: rate-limit to `rate_bps` with burst `burst_bytes`.
#[derive(Debug, Clone)]
pub struct TokenBucketFilter {
    rate_bps: u64,
    burst_nanobits: i128,
    tokens: i128,
    last_time: Nanos,
}

impl TokenBucketFilter {
    /// A filter limiting to `rate_bps` bits/second with a burst allowance
    /// of `burst_bytes` bytes. The bucket starts full (a fresh class may
    /// send a full burst immediately), as in standard TBF practice.
    ///
    /// # Panics
    ///
    /// Panics if `rate_bps` is zero.
    pub fn new(rate_bps: u64, burst_bytes: u64) -> Self {
        assert!(rate_bps > 0, "token rate must be positive");
        let burst = burst_bytes as i128 * NANOBITS_PER_BYTE;
        TokenBucketFilter {
            rate_bps,
            burst_nanobits: burst,
            tokens: burst,
            last_time: Nanos::ZERO,
        }
    }

    /// The configured rate in bits/second.
    pub fn rate_bps(&self) -> u64 {
        self.rate_bps
    }
}

impl ShapingTransaction for TokenBucketFilter {
    fn send_time(&mut self, ctx: &EnqCtx<'_>) -> Nanos {
        let now = ctx.now;
        let dt = now.saturating_sub(self.last_time).as_nanos() as i128;
        self.tokens = (self.tokens + dt * self.rate_bps as i128).min(self.burst_nanobits);

        let need = ctx.packet.length as i128 * NANOBITS_PER_BYTE;
        let send = if need <= self.tokens {
            now
        } else {
            let deficit = need - self.tokens;
            // Ceiling division: the packet may not leave until the last
            // missing token has arrived.
            let wait_ns = (deficit + self.rate_bps as i128 - 1) / self.rate_bps as i128;
            Nanos(now.as_nanos() + wait_ns as u64)
        };
        self.tokens -= need;
        // A call earlier than the last (the lossless fabric admits a
        // skid-buffer packet at its own arrival instant) refills nothing,
        // and must not move the clock back: the next call would credit
        // the same interval a second time.
        self.last_time = self.last_time.max(now);
        send
    }

    fn name(&self) -> &str {
        "TokenBucketFilter"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(p: &'a Packet, now: u64) -> EnqCtx<'a> {
        EnqCtx {
            packet: p,
            now: Nanos(now),
            flow: p.flow,
        }
    }

    #[test]
    fn within_burst_sends_immediately() {
        let mut tbf = TokenBucketFilter::new(10_000_000, 15_000); // 10 Mb/s, 15 KB
        let p = Packet::new(0, FlowId(0), 1_500, Nanos(0));
        assert_eq!(tbf.send_time(&ctx(&p, 0)), Nanos(0));
    }

    #[test]
    fn burst_exhaustion_delays_at_token_rate() {
        // Burst = exactly one packet; the second packet must wait for its
        // tokens: 1500 B at 10 Mb/s = 1.2 ms.
        let mut tbf = TokenBucketFilter::new(10_000_000, 1_500);
        let p = Packet::new(0, FlowId(0), 1_500, Nanos(0));
        assert_eq!(tbf.send_time(&ctx(&p, 0)), Nanos(0));
        let send2 = tbf.send_time(&ctx(&p, 0));
        assert_eq!(send2, Nanos(1_200_000), "1500B/10Mbps = 1.2ms");
        // Third packet: another 1.2 ms later (borrowed bucket).
        let send3 = tbf.send_time(&ctx(&p, 0));
        assert_eq!(send3, Nanos(2_400_000));
    }

    #[test]
    fn tokens_replenish_over_time() {
        let mut tbf = TokenBucketFilter::new(8_000_000_000, 1_000); // 1 byte/ns
        let p = Packet::new(0, FlowId(0), 1_000, Nanos(0));
        assert_eq!(tbf.send_time(&ctx(&p, 0)), Nanos(0)); // bucket empty now
                                                          // After 500 ns, 500 bytes of tokens exist; a 1000 B packet waits
                                                          // 500 more ns.
        let send = tbf.send_time(&ctx(&p, 500));
        assert_eq!(send, Nanos(1_000));
    }

    #[test]
    fn bucket_caps_at_burst() {
        let mut tbf = TokenBucketFilter::new(8_000_000_000, 2_000); // 1 byte/ns, 2 KB burst
        let p = Packet::new(0, FlowId(0), 1_000, Nanos(0));
        // A long idle period must not accumulate more than the burst:
        // at t=1e6 the bucket holds 2000 B, not 1e6 B.
        let _ = tbf.send_time(&ctx(&p, 1_000_000)); // consumes 1000 B
        let _ = tbf.send_time(&ctx(&p, 1_000_000)); // consumes the rest
        let send3 = tbf.send_time(&ctx(&p, 1_000_000));
        assert_eq!(
            send3,
            Nanos(1_001_000),
            "third packet exceeds the 2 KB burst and waits 1000 ns"
        );
    }

    #[test]
    fn sustained_rate_converges_to_r() {
        // Send 100 x 1500 B packets back-to-back at t=0 through a 10 Mb/s
        // filter with a 15 KB burst: the last send time should be close to
        // (total_bytes - burst) * 8 / rate.
        let mut tbf = TokenBucketFilter::new(10_000_000, 15_000);
        let p = Packet::new(0, FlowId(0), 1_500, Nanos(0));
        let mut last = Nanos::ZERO;
        for _ in 0..100 {
            last = tbf.send_time(&ctx(&p, 0));
        }
        let expected_ns = ((100 * 1_500 - 15_000) as u64) * 8 * 1_000_000_000 / 10_000_000;
        assert_eq!(last.as_nanos(), expected_ns);
    }

    #[test]
    fn an_earlier_call_does_not_move_the_clock_back() {
        let mut tbf = TokenBucketFilter::new(8_000_000_000, 1_000); // 1 byte/ns
        let p = Packet::new(0, FlowId(0), 1_000, Nanos(0));
        // The full bucket pays for the first packet; the second, called
        // earlier, borrows 1000 B.
        assert_eq!(tbf.send_time(&ctx(&p, 1_000)), Nanos(1_000));
        assert_eq!(tbf.send_time(&ctx(&p, 500)), Nanos(1_500));
        // No time has passed since 1000 ns: 2000 B owed, none refilled.
        assert_eq!(tbf.send_time(&ctx(&p, 1_000)), Nanos(3_000));
    }

    #[test]
    #[should_panic(expected = "token rate must be positive")]
    fn zero_rate_rejected() {
        let _ = TokenBucketFilter::new(0, 1000);
    }
}
