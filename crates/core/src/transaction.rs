//! Scheduling and shaping transactions (§2.1, §2.3).
//!
//! A *scheduling transaction* is a block of code executed for each element
//! before it is enqueued into a PIFO; it computes the element's rank. A
//! *shaping transaction* computes the wall-clock time at which an element
//! becomes visible to its parent (non-work-conserving algorithms).
//!
//! Transactions are packet transactions in the sense of Domino \[35\]:
//! atomic and isolated, equivalent to a serial execution across consecutive
//! packets. In this software model that falls out naturally from `&mut
//! self` — the borrow checker enforces the serialisation the hardware
//! provides with its atom pipeline.
//!
//! State that fair-queueing algorithms update at *dequeue* time (STFQ's
//! `virtual_time` tracks the start tag of the last dequeued packet) is
//! handled by the [`SchedulingTransaction::on_dequeue`] hook.

use crate::packet::{FlowId, Packet};
use crate::rank::Rank;
use crate::time::Nanos;

/// Context handed to a transaction when an element is enqueued at a node.
#[derive(Debug, Clone, Copy)]
pub struct EnqCtx<'a> {
    /// The packet whose arrival triggered this transaction. At interior
    /// tree nodes the element being enqueued is a PIFO reference, but the
    /// transaction still reads the triggering packet's fields (e.g.
    /// `p.length` in WFQ_Root; §2.2) — carried as element metadata in the
    /// hardware (§4.2).
    pub packet: &'a Packet,
    /// Wall-clock time of the enqueue.
    pub now: Nanos,
    /// The flow the element belongs to *at this node*: the packet's
    /// (possibly re-mapped) flow at a leaf, the child class at an interior
    /// node. This is the `flow(p)` of Figures 1 and 3c.
    pub flow: FlowId,
}

/// Context handed to [`SchedulingTransaction::on_dequeue`].
#[derive(Debug, Clone, Copy)]
pub struct DeqCtx {
    /// Wall-clock time of the dequeue.
    pub now: Nanos,
    /// The flow of the dequeued element at this node.
    pub flow: FlowId,
}

/// A scheduling transaction: computes the rank for every element enqueued
/// into one PIFO (§2.1).
///
/// `Send` is a supertrait so a whole `ScheduleTree` (which owns its
/// transactions) can migrate to a worker thread for the parallel fabric
/// drain. Transactions never run concurrently — `&mut self` still
/// serialises them per node — so state needs no synchronisation, just no
/// thread-pinned types (`Rc`, `Cell` of `!Send` data).
pub trait SchedulingTransaction: Send {
    /// Compute the rank for the element described by `ctx`, updating any
    /// internal state atomically.
    fn rank(&mut self, ctx: &EnqCtx<'_>) -> Rank;

    /// Observe a dequeue from this transaction's PIFO. `rank` is the rank
    /// the element carried. Algorithms that track virtual time (STFQ)
    /// override this; the default is a no-op.
    fn on_dequeue(&mut self, rank: Rank, ctx: &DeqCtx) {
        let _ = (rank, ctx);
    }

    /// Human-readable name, used in traces and compiler output.
    fn name(&self) -> &str {
        "scheduling"
    }

    /// True declares that, within one flow, the ranks this transaction
    /// returns never decrease. The flow is [`EnqCtx::flow`]: the packet's
    /// flow at a leaf, the child at an interior node.
    ///
    /// A tree node whose transaction declares, on the heap or bucket
    /// engine, sorts only its flows' heads and keeps everything behind
    /// them in per-flow FIFOs ([`FlowPifo`](crate::pifo::FlowPifo), Fig
    /// 12's decomposition), which pops in exactly the reference order.
    ///
    /// **Proof obligation:** for every call sequence the tree can make
    /// (`rank` interleaved with `on_dequeue`), two successive `rank`
    /// calls for the same flow return `r₁ ≤ r₂`. A false declaration
    /// cannot mis-order silently: the node's queue panics at any push
    /// that ranks below an element of the same flow still queued.
    ///
    /// Only STFQ declares. Why each other transaction does not:
    ///
    /// * `Fifo` (rank = `now`) — monotone only under the tree's
    ///   non-decreasing time contract, which callers may break.
    /// * `StrictPriority` — the class is per packet, not per flow.
    /// * `Srpt` — remaining bytes fall as a flow progresses.
    /// * `Las`, `Sjf`, `Edf`, `Lstf` — the rank is a field the end host
    ///   or an upstream hop sets per packet, and nothing orders it.
    /// * `MinRateGuarantee` — the rank drops back to 0 once the flow's
    ///   token bucket refills.
    /// * `ScEdf` — a flow that goes idle restarts its busy period at
    ///   `now`, so its next deadline can be earlier.
    /// * `ClassPriority` — constant per child, so it would qualify; no
    ///   measured workload runs it, and the choice waits for one.
    /// * `DominoScheduling` — the program is opaque to the tree.
    fn ranks_monotone_per_flow(&self) -> bool {
        false
    }
}

/// A shaping transaction: computes the wall-clock time at which the shaped
/// element may be released to the parent node (§2.3).
///
/// `Send` for the same reason as [`SchedulingTransaction`].
pub trait ShapingTransaction: Send {
    /// Compute the send (release) time for the element described by `ctx`,
    /// updating internal state (e.g. token bucket level) atomically.
    fn send_time(&mut self, ctx: &EnqCtx<'_>) -> Nanos;

    /// Human-readable name, used in traces and compiler output.
    fn name(&self) -> &str {
        "shaping"
    }
}

/// Blanket adapter: any `FnMut(&EnqCtx) -> Rank` closure is a (stateless or
/// state-capturing) scheduling transaction. Handy for tests and for
/// fine-grained priority schemes that just read one packet field (§3.4).
pub struct FnTransaction<F> {
    f: F,
    name: &'static str,
}

impl<F: FnMut(&EnqCtx<'_>) -> Rank> FnTransaction<F> {
    /// Wrap a closure as a scheduling transaction.
    pub fn new(name: &'static str, f: F) -> Self {
        FnTransaction { f, name }
    }
}

impl<F: FnMut(&EnqCtx<'_>) -> Rank + Send> SchedulingTransaction for FnTransaction<F> {
    fn rank(&mut self, ctx: &EnqCtx<'_>) -> Rank {
        (self.f)(ctx)
    }

    fn name(&self) -> &str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;

    #[test]
    fn fn_transaction_reads_fields() {
        let mut t = FnTransaction::new("len-prio", |ctx: &EnqCtx<'_>| {
            Rank(ctx.packet.length as u64)
        });
        let p = Packet::new(0, FlowId(1), 700, Nanos(5));
        let ctx = EnqCtx {
            packet: &p,
            now: Nanos(5),
            flow: p.flow,
        };
        assert_eq!(t.rank(&ctx), Rank(700));
        assert_eq!(t.name(), "len-prio");
    }

    #[test]
    fn fn_transaction_captures_state() {
        // A counting transaction: rank = number of packets seen so far,
        // i.e. FIFO by arrival index.
        let mut count = 0u64;
        let mut t = FnTransaction::new("count", move |_ctx: &EnqCtx<'_>| {
            let r = Rank(count);
            count += 1;
            r
        });
        let p = Packet::new(0, FlowId(0), 64, Nanos::ZERO);
        let ctx = EnqCtx {
            packet: &p,
            now: Nanos::ZERO,
            flow: p.flow,
        };
        assert_eq!(t.rank(&ctx), Rank(0));
        assert_eq!(t.rank(&ctx), Rank(1));
        assert_eq!(t.rank(&ctx), Rank(2));
    }

    #[test]
    fn default_on_dequeue_is_noop() {
        let mut t = FnTransaction::new("noop", |_: &EnqCtx<'_>| Rank(0));
        // Just exercise the default impl.
        t.on_dequeue(
            Rank(3),
            &DeqCtx {
                now: Nanos(1),
                flow: FlowId(0),
            },
        );
    }
}
