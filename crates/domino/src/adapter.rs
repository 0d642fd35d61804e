//! Adapters exposing interpreted domino-lite programs as `pifo-core`
//! scheduling/shaping transactions — so an algorithm *written in the
//! paper's language* can drive a PIFO tree, a simulated port, or the
//! hardware mesh interchangeably with its native Rust twin.

use crate::interp::{Interp, PacketView};
use pifo_core::prelude::*;
use std::collections::HashMap;

/// A scheduling transaction backed by a domino-lite program.
///
/// The program must assign `p.rank`. Negative ranks clamp to 0 (LSTF's
/// late packets are maximally urgent; u64 ranks have no sign).
///
/// # Panics
///
/// Runtime errors (overflow, undefined reads) panic: a mis-programmed
/// transaction in real hardware would silently corrupt scheduling, so the
/// model fails loudly instead. Validate programs with
/// [`crate::pipeline::compile`] first.
pub struct DominoScheduling {
    interp: Interp,
    label: String,
    weights: HashMap<FlowId, u64>,
}

impl DominoScheduling {
    /// Wrap `interp` under a display `label`.
    pub fn new(label: &str, interp: Interp) -> Self {
        DominoScheduling {
            interp,
            label: label.to_string(),
            weights: HashMap::new(),
        }
    }

    /// Set the `weight` builtin for one flow (unlisted flows weigh 1).
    pub fn with_weight(mut self, flow: FlowId, weight: u64) -> Self {
        assert!(weight > 0, "weight must be positive");
        self.weights.insert(flow, weight);
        self
    }

    /// Access the interpreter (state inspection in tests).
    pub fn interp(&self) -> &Interp {
        &self.interp
    }

    fn view(&self, ctx: &EnqCtx<'_>) -> PacketView {
        let w = self.weights.get(&ctx.flow).copied().unwrap_or(1);
        PacketView::from_packet(ctx.packet, ctx.now, ctx.flow, w)
    }
}

impl SchedulingTransaction for DominoScheduling {
    fn rank(&mut self, ctx: &EnqCtx<'_>) -> Rank {
        let mut view = self.view(ctx);
        self.interp
            .run(&mut view)
            .unwrap_or_else(|e| panic!("domino program '{}' failed: {e}", self.label));
        let r = view
            .get("rank")
            .unwrap_or_else(|| panic!("domino program '{}' never set p.rank", self.label));
        Rank(r.max(0) as u64)
    }

    fn on_dequeue(&mut self, rank: Rank, _ctx: &DeqCtx) {
        let r = i64::try_from(rank.value()).unwrap_or(i64::MAX);
        self.interp
            .run_dequeue(r)
            .unwrap_or_else(|e| panic!("domino @dequeue of '{}' failed: {e}", self.label));
    }

    fn name(&self) -> &str {
        &self.label
    }
}

/// A shaping transaction backed by a domino-lite program.
///
/// The program must assign `p.send_time` (or `p.rank`, which Fig 4c sets
/// to the send time). Values before `now` are legal (release immediately).
pub struct DominoShaping {
    interp: Interp,
    label: String,
}

impl DominoShaping {
    /// Wrap `interp` under a display `label`.
    pub fn new(label: &str, interp: Interp) -> Self {
        DominoShaping {
            interp,
            label: label.to_string(),
        }
    }

    /// Access the interpreter.
    pub fn interp(&self) -> &Interp {
        &self.interp
    }
}

impl ShapingTransaction for DominoShaping {
    fn send_time(&mut self, ctx: &EnqCtx<'_>) -> Nanos {
        let mut view = PacketView::from_packet(ctx.packet, ctx.now, ctx.flow, 1);
        self.interp
            .run(&mut view)
            .unwrap_or_else(|e| panic!("domino program '{}' failed: {e}", self.label));
        let t = view
            .get("send_time")
            .or_else(|| view.get("rank"))
            .unwrap_or_else(|| panic!("domino program '{}' never set p.send_time", self.label));
        Nanos(t.max(0) as u64)
    }

    fn name(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures;

    fn ctx<'a>(p: &'a Packet, now: u64) -> EnqCtx<'a> {
        EnqCtx {
            packet: p,
            now: Nanos(now),
            flow: p.flow,
        }
    }

    #[test]
    fn stfq_adapter_matches_figure_semantics() {
        let mut tx = DominoScheduling::new("stfq", figures::stfq()).with_weight(FlowId(1), 2);
        let p = Packet::new(0, FlowId(1), 1000, Nanos(0));
        assert_eq!(tx.rank(&ctx(&p, 0)), Rank(0));
        // weight 2: finish advances by (1000*256)/2.
        assert_eq!(tx.rank(&ctx(&p, 1)), Rank(128_000));
    }

    #[test]
    fn stfq_adapter_dequeue_advances_virtual_time() {
        let mut tx = DominoScheduling::new("stfq", figures::stfq());
        let p = Packet::new(0, FlowId(1), 1000, Nanos(0));
        let _ = tx.rank(&ctx(&p, 0));
        tx.on_dequeue(
            Rank(9_999),
            &DeqCtx {
                now: Nanos(5),
                flow: FlowId(1),
            },
        );
        assert_eq!(tx.interp().state_value("virtual_time"), Some(9_999));
    }

    #[test]
    fn shaping_adapter_reads_send_time() {
        let mut tx = DominoShaping::new("tbf", figures::tbf(10_000_000, 1_500));
        let p = Packet::new(0, FlowId(0), 1_500, Nanos(0));
        assert_eq!(tx.send_time(&ctx(&p, 0)), Nanos(0));
        assert_eq!(tx.send_time(&ctx(&p, 0)), Nanos(1_200_000));
    }

    #[test]
    fn negative_rank_clamps_to_zero() {
        let mut tx = DominoScheduling::new("lstf", figures::lstf());
        let p = Packet::new(0, FlowId(0), 100, Nanos(0)).with_slack(-500);
        assert_eq!(tx.rank(&ctx(&p, 0)), Rank(0));
    }

    #[test]
    #[should_panic(expected = "never set p.rank")]
    fn missing_rank_panics() {
        let prog = crate::parser::parse("p.unused = 1;").unwrap();
        let mut tx = DominoScheduling::new("bad", Interp::new(prog));
        let p = Packet::new(0, FlowId(0), 100, Nanos(0));
        let _ = tx.rank(&ctx(&p, 0));
    }
}
