//! Rate-Controlled Service Disciplines (§3.4, item 4).
//!
//! RCSD \[40\] is a *framework*: a non-work-conserving discipline is built
//! from a **rate regulator** (when does a packet become eligible) plus a
//! **packet scheduler** (in what order are eligible packets sent). In the
//! PIFO programming model the regulator is a shaping transaction and the
//! scheduler a scheduling transaction, attached to the same node (§3.4).
//!
//! Two classic members are provided:
//!
//! * [`JitterEdd`] — Jitter Earliest-Due-Date \[39\]: each packet is held
//!   for the time it arrived *ahead of schedule* at the previous hop
//!   (carried in the packet's `slack` field as the "earliness" tag),
//!   reconstructing a fully jittered-free stream; scheduling is then EDF.
//! * [`HierarchicalRoundRobin`] — HRR \[27\]: each flow owns a slot once per
//!   frame; a packet becomes eligible at its flow's next unclaimed slot,
//!   giving every flow at most `slot/frame` of the link.

use pifo_core::prelude::*;

/// Jitter-EDD rate regulator: hold each packet for `packet.slack`
/// nanoseconds (its earliness tag from the previous hop), so all packets
/// experience the same end-to-end delay.
///
/// Combine with [`crate::prio::Edf`] as the scheduling transaction to form
/// the full Jitter-EDD discipline.
#[derive(Debug, Clone, Copy, Default)]
pub struct JitterEdd;

impl ShapingTransaction for JitterEdd {
    fn send_time(&mut self, ctx: &EnqCtx<'_>) -> Nanos {
        let hold = ctx.packet.slack.max(0) as u64;
        Nanos(ctx.now.as_nanos() + hold)
    }

    fn name(&self) -> &str {
        "JitterEDD"
    }
}

/// Hierarchical Round Robin rate regulator: flows are assigned one slot of
/// `slot_len` per frame of `frame_len`; a flow's packets become eligible
/// at its slot, one packet per frame.
#[derive(Debug, Clone)]
pub struct HierarchicalRoundRobin {
    frame_len: Nanos,
    slot_len: Nanos,
    slot_of: FlowMap<u64>,
    next_frame: FlowMap<u64>,
}

impl HierarchicalRoundRobin {
    /// A regulator with frames of `frame_len`, slots of `slot_len`.
    ///
    /// # Panics
    ///
    /// Panics if `slot_len` is zero or exceeds `frame_len`.
    pub fn new(frame_len: Nanos, slot_len: Nanos) -> Self {
        assert!(slot_len > Nanos::ZERO, "slot length must be positive");
        assert!(slot_len <= frame_len, "slot cannot exceed frame");
        HierarchicalRoundRobin {
            frame_len,
            slot_len,
            slot_of: FlowMap::default(),
            next_frame: FlowMap::default(),
        }
    }

    /// Assign `flow` the `index`-th slot of every frame.
    ///
    /// # Panics
    ///
    /// Panics if the slot would not fit inside the frame.
    pub fn assign_slot(&mut self, flow: FlowId, index: u64) {
        assert!(
            (index + 1) * self.slot_len.as_nanos() <= self.frame_len.as_nanos(),
            "slot {index} does not fit in the frame"
        );
        self.slot_of.insert(flow, index);
    }
}

impl ShapingTransaction for HierarchicalRoundRobin {
    fn send_time(&mut self, ctx: &EnqCtx<'_>) -> Nanos {
        let flow = ctx.flow;
        let slot = self.slot_of.get(&flow).copied().unwrap_or(0);
        let frame_len = self.frame_len.as_nanos();
        let slot_start_offset = slot * self.slot_len.as_nanos();

        // The earliest frame whose slot is still in the future and not
        // already claimed by an earlier packet of this flow.
        let cur_frame = ctx.now.as_nanos() / frame_len;
        let earliest = if ctx.now.as_nanos() <= cur_frame * frame_len + slot_start_offset {
            cur_frame
        } else {
            cur_frame + 1
        };
        let reserved = self.next_frame.entry(flow).or_insert(0);
        let frame = earliest.max(*reserved);
        *reserved = frame + 1;
        Nanos(frame * frame_len + slot_start_offset)
    }

    fn name(&self) -> &str {
        "HRR"
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
    fn jitter_edd_holds_for_earliness() {
        let mut j = JitterEdd;
        let early = Packet::new(0, FlowId(0), 64, Nanos(100)).with_slack(400);
        assert_eq!(j.send_time(&ctx(&early, 100, 0)), Nanos(500));
        let on_time = Packet::new(1, FlowId(0), 64, Nanos(100)).with_slack(0);
        assert_eq!(j.send_time(&ctx(&on_time, 100, 0)), Nanos(100));
    }

    #[test]
    fn jitter_edd_ignores_negative_earliness() {
        let mut j = JitterEdd;
        let late = Packet::new(0, FlowId(0), 64, Nanos(100)).with_slack(-50);
        assert_eq!(j.send_time(&ctx(&late, 100, 0)), Nanos(100));
    }

    #[test]
    fn hrr_one_packet_per_frame() {
        let mut h = HierarchicalRoundRobin::new(Nanos(1_000), Nanos(100));
        h.assign_slot(FlowId(1), 0);
        let p = Packet::new(0, FlowId(1), 64, Nanos(0));
        // Three packets arriving together spread over three frames.
        assert_eq!(h.send_time(&ctx(&p, 0, 1)), Nanos(0));
        assert_eq!(h.send_time(&ctx(&p, 0, 1)), Nanos(1_000));
        assert_eq!(h.send_time(&ctx(&p, 0, 1)), Nanos(2_000));
    }

    #[test]
    fn hrr_slots_offset_flows() {
        let mut h = HierarchicalRoundRobin::new(Nanos(1_000), Nanos(100));
        h.assign_slot(FlowId(1), 0);
        h.assign_slot(FlowId(2), 3);
        let p = Packet::new(0, FlowId(0), 64, Nanos(0));
        assert_eq!(h.send_time(&ctx(&p, 0, 1)), Nanos(0));
        assert_eq!(h.send_time(&ctx(&p, 0, 2)), Nanos(300));
    }

    #[test]
    fn hrr_missed_slot_waits_next_frame() {
        let mut h = HierarchicalRoundRobin::new(Nanos(1_000), Nanos(100));
        h.assign_slot(FlowId(1), 0);
        let p = Packet::new(0, FlowId(1), 64, Nanos(0));
        // Arrive just after slot 0 of frame 0 has begun.
        assert_eq!(h.send_time(&ctx(&p, 1, 1)), Nanos(1_000));
    }

    #[test]
    #[should_panic(expected = "slot 9 does not fit")]
    fn hrr_slot_overflow_rejected() {
        let mut h = HierarchicalRoundRobin::new(Nanos(1_000), Nanos(200));
        h.assign_slot(FlowId(1), 9);
    }
}
