//! Service-Curve Earliest Deadline First (§3.4, item 2).
//!
//! SC-EDF \[32\] schedules packets in increasing order of a deadline derived
//! from each flow's *service curve* — a specification of the cumulative
//! service the flow must receive over any interval. For the standard
//! piecewise-linear concave curves (minimum of `burst_i + rate_i·Δt`
//! segments), the deadline of a packet is the earliest time the curve,
//! started at the flow's busy-period begin, reaches the flow's cumulative
//! backlog including this packet.
//!
//! The scheduling transaction sets `p.rank = deadline`.

use pifo_core::prelude::*;

/// One segment of a piecewise-linear service curve: the flow is promised
/// at least `burst_bytes + rate_bps·Δt/8e9` bytes by offset `Δt` into its
/// busy period (the effective curve is the *minimum* over segments).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CurveSegment {
    /// Instantaneous allowance in bytes.
    pub burst_bytes: u64,
    /// Long-term slope in bits/second.
    pub rate_bps: u64,
}

/// A concave piecewise-linear service curve.
#[derive(Debug, Clone)]
pub struct ServiceCurve {
    segments: Vec<CurveSegment>,
}

impl ServiceCurve {
    /// Build from segments; the effective guarantee at offset Δ is
    /// `min_i(burst_i + rate_i·Δ)`.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty or any segment's rate is zero.
    pub fn new(segments: Vec<CurveSegment>) -> Self {
        assert!(!segments.is_empty(), "service curve needs >= 1 segment");
        assert!(
            segments.iter().all(|s| s.rate_bps > 0),
            "segment rates must be positive"
        );
        ServiceCurve { segments }
    }

    /// The simplest curve: a pure rate guarantee.
    pub fn rate(rate_bps: u64) -> Self {
        ServiceCurve::new(vec![CurveSegment {
            burst_bytes: 0,
            rate_bps,
        }])
    }

    /// Earliest offset Δ (ns) at which the curve reaches `bytes`:
    /// `max_i((bytes - burst_i) * 8e9 / rate_i)` — the max because the
    /// curve is the min of the segments.
    pub fn deadline_offset(&self, bytes: u64) -> u64 {
        self.segments
            .iter()
            .map(|s| {
                let deficit = bytes.saturating_sub(s.burst_bytes) as u128;
                let num = deficit * 8 * 1_000_000_000;
                let r = s.rate_bps as u128;
                num.div_ceil(r) as u64
            })
            .max()
            .expect("non-empty")
    }
}

#[derive(Debug, Clone)]
struct FlowState {
    busy_start: Nanos,
    cum_bytes: u64,
    backlog: u64,
}

/// The SC-EDF scheduling transaction.
///
/// Tracks each flow's busy period: when a packet arrives to an idle flow,
/// the busy period (and cumulative byte count) restarts at `now`. The
/// caller must report departures via [`ScEdf::on_depart`] so backlog
/// tracking stays accurate (the simulator adapter does this).
#[derive(Debug, Clone)]
pub struct ScEdf {
    curves: FlowMap<ServiceCurve>,
    default_curve: ServiceCurve,
    flows: FlowMap<FlowState>,
}

impl ScEdf {
    /// SC-EDF where unspecified flows get `default_curve`.
    pub fn new(default_curve: ServiceCurve) -> Self {
        ScEdf {
            curves: FlowMap::default(),
            default_curve,
            flows: FlowMap::default(),
        }
    }

    /// Assign a service curve to one flow.
    pub fn set_curve(&mut self, flow: FlowId, curve: ServiceCurve) {
        self.curves.insert(flow, curve);
    }

    /// Report that one packet of `flow` with `length` bytes departed.
    pub fn on_depart(&mut self, flow: FlowId, length: u32) {
        if let Some(st) = self.flows.get_mut(&flow) {
            st.backlog = st.backlog.saturating_sub(length as u64);
        }
    }

    fn curve_of(&self, flow: FlowId) -> &ServiceCurve {
        self.curves.get(&flow).unwrap_or(&self.default_curve)
    }
}

impl SchedulingTransaction for ScEdf {
    fn rank(&mut self, ctx: &EnqCtx<'_>) -> Rank {
        let flow = ctx.flow;
        let len = ctx.packet.length as u64;
        let (busy_start, cum) = {
            let st = self.flows.entry(flow).or_insert(FlowState {
                busy_start: ctx.now,
                cum_bytes: 0,
                backlog: 0,
            });
            if st.backlog == 0 {
                // Idle flow: restart the busy period.
                st.busy_start = ctx.now;
                st.cum_bytes = 0;
            }
            st.cum_bytes += len;
            st.backlog += len;
            (st.busy_start, st.cum_bytes)
        };
        let offset = self.curve_of(flow).deadline_offset(cum);
        Rank(busy_start.as_nanos().saturating_add(offset))
    }

    fn on_dequeue(&mut self, _rank: Rank, _ctx: &DeqCtx) {}

    fn name(&self) -> &str {
        "SC-EDF"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(p: &'a Packet, now: u64, flow: u32) -> EnqCtx<'a> {
        EnqCtx {
            packet: p,
            now: Nanos(now),
            flow: FlowId(flow),
        }
    }

    #[test]
    fn pure_rate_curve_deadlines_are_cumulative() {
        // 8 Mb/s = 1 byte/us: k-th 1000B packet's deadline = k ms.
        let mut s = ScEdf::new(ServiceCurve::rate(8_000_000));
        let p = Packet::new(0, FlowId(1), 1_000, Nanos(0));
        assert_eq!(s.rank(&ctx(&p, 0, 1)), Rank(1_000_000));
        assert_eq!(s.rank(&ctx(&p, 0, 1)), Rank(2_000_000));
        assert_eq!(s.rank(&ctx(&p, 0, 1)), Rank(3_000_000));
    }

    #[test]
    fn burst_segment_gives_immediate_deadline() {
        let curve = ServiceCurve::new(vec![CurveSegment {
            burst_bytes: 3_000,
            rate_bps: 8_000_000,
        }]);
        let mut s = ScEdf::new(curve);
        let p = Packet::new(0, FlowId(1), 1_000, Nanos(100));
        // First three packets fit the burst: deadline = busy start.
        assert_eq!(s.rank(&ctx(&p, 100, 1)), Rank(100));
        assert_eq!(s.rank(&ctx(&p, 100, 1)), Rank(100));
        assert_eq!(s.rank(&ctx(&p, 100, 1)), Rank(100));
        // Fourth must wait for the rate segment.
        assert_eq!(s.rank(&ctx(&p, 100, 1)), Rank(100 + 1_000_000));
    }

    #[test]
    fn two_segment_concave_curve_takes_max_offset() {
        // min(5000 + 1B/us·Δ, 0 + 10B/us·Δ): for 2000 bytes the binding
        // segment is the second: Δ = 200us... check: seg1 offset = 0 (2000
        // <= 5000), seg2 offset = 2000 bytes / 10B-per-us = 200_000ns.
        let curve = ServiceCurve::new(vec![
            CurveSegment {
                burst_bytes: 5_000,
                rate_bps: 8_000_000,
            },
            CurveSegment {
                burst_bytes: 0,
                rate_bps: 80_000_000,
            },
        ]);
        assert_eq!(curve.deadline_offset(2_000), 200_000);
        // For 10_000 bytes, seg1 binds: (10000-5000) bytes at 1 B/us = 5ms.
        assert_eq!(curve.deadline_offset(10_000), 5_000_000);
    }

    #[test]
    fn busy_period_resets_when_flow_drains() {
        let mut s = ScEdf::new(ServiceCurve::rate(8_000_000));
        let p = Packet::new(0, FlowId(1), 1_000, Nanos(0));
        assert_eq!(s.rank(&ctx(&p, 0, 1)), Rank(1_000_000));
        s.on_depart(FlowId(1), 1_000);
        // Flow idle; new busy period starts at t=5e6.
        assert_eq!(s.rank(&ctx(&p, 5_000_000, 1)), Rank(6_000_000));
    }

    #[test]
    fn flows_have_independent_curves() {
        let mut s = ScEdf::new(ServiceCurve::rate(8_000_000));
        s.set_curve(FlowId(2), ServiceCurve::rate(80_000_000));
        let p = Packet::new(0, FlowId(0), 1_000, Nanos(0));
        let slow = s.rank(&ctx(&p, 0, 1));
        let fast = s.rank(&ctx(&p, 0, 2));
        assert!(fast < slow, "higher-rate curve yields earlier deadline");
    }
}
