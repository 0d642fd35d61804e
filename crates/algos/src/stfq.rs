//! Start-Time Fair Queueing (Fig 1) — the paper's canonical scheduling
//! transaction and its practical approximation of Weighted Fair Queueing.
//!
//! ```text
//! f = flow(p)
//! if f in last_finish:
//!     p.start = max(virtual_time, last_finish[f])
//! else:
//!     p.start = virtual_time
//! last_finish[f] = p.start + p.length / f.weight
//! p.rank = p.start
//! ```
//!
//! `virtual_time` tracks the virtual start time of the last *dequeued*
//! packet (§2.1), which is why the transaction implements
//! [`SchedulingTransaction::on_dequeue`].
//!
//! All arithmetic is integer fixed-point with [`VT_SHIFT`] fractional bits:
//! `length / weight` becomes `(length << VT_SHIFT) / weight`, exactly as a
//! hardware rank computation would be specified.
//!
//! `last_finish` and the weights are [`FlowMap`]s — the software stand-in
//! for the register arrays, indexed by flow id, that the transaction's
//! atom holds in the paper: one cheap probe each per packet.

use crate::weights::WeightTable;
use pifo_core::prelude::*;

/// The STFQ scheduling transaction.
#[derive(Debug, Clone)]
pub struct Stfq {
    weights: WeightTable,
    virtual_time: u64,
    last_finish: FlowMap<u64>,
}

impl Default for Stfq {
    fn default() -> Self {
        Self::new(WeightTable::new())
    }
}

impl Stfq {
    /// STFQ with the given per-flow weights.
    pub fn new(weights: WeightTable) -> Self {
        Stfq {
            weights,
            virtual_time: 0,
            last_finish: FlowMap::default(),
        }
    }

    /// Convenience: equal weights for all flows (plain fair queueing).
    pub fn unweighted() -> Self {
        Self::new(WeightTable::new())
    }

    /// Current virtual time (fixed-point, [`VT_SHIFT`] fractional bits).
    pub fn virtual_time(&self) -> u64 {
        self.virtual_time
    }

    /// The virtual finish tag last assigned to `flow`, if any.
    pub fn last_finish(&self, flow: FlowId) -> Option<u64> {
        self.last_finish.get(&flow).copied()
    }
}

impl SchedulingTransaction for Stfq {
    fn rank(&mut self, ctx: &EnqCtx<'_>) -> Rank {
        let f = ctx.flow;
        let w = self.weights.get(f);
        let service = ((ctx.packet.length as u64) << VT_SHIFT) / w;
        // A zero-length packet must still advance the finish tag by at
        // least one quantum, or two such packets would tie forever.
        let service = service.max(1);
        // One probe reads and rewrites the tag. A flow not in the table
        // enters at 0, and `max(virtual_time, 0)` is Fig 1's else branch.
        let finish = self.last_finish.entry(f).or_insert(0);
        let start = self.virtual_time.max(*finish);
        *finish = start.saturating_add(service);
        Rank(start)
    }

    fn on_dequeue(&mut self, rank: Rank, _ctx: &DeqCtx) {
        // Virtual time = virtual start time of the last dequeued packet.
        // Ranks are only ever popped in PIFO order *among buffered
        // packets*, but a late-arriving flow can briefly push virtual time
        // observations backwards; never regress.
        self.virtual_time = self.virtual_time.max(rank.value());
    }

    fn name(&self) -> &str {
        "STFQ"
    }

    /// Within one flow, ranks never decrease: the next start tag is
    /// `start' = max(vt, finish) ≥ finish ≥ start`, because `finish =
    /// start.saturating_add(service)` never falls below `start` (even
    /// saturated), and nothing else writes `last_finish`. Virtual time
    /// only moves the `max`, never below `finish`.
    fn ranks_monotone_per_flow(&self) -> bool {
        true
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
    fn first_packet_starts_at_virtual_time_zero() {
        let mut s = Stfq::unweighted();
        let p = Packet::new(0, FlowId(1), 1000, Nanos(0));
        assert_eq!(s.rank(&ctx(&p, 0)), Rank(0));
        assert_eq!(s.last_finish(FlowId(1)), Some(1000 << VT_SHIFT));
    }

    #[test]
    fn backlogged_flow_ranks_advance_by_length_over_weight() {
        let mut s = Stfq::new(WeightTable::from_pairs([(FlowId(1), 2)]));
        let p = Packet::new(0, FlowId(1), 1000, Nanos(0));
        let r1 = s.rank(&ctx(&p, 0));
        let r2 = s.rank(&ctx(&p, 1));
        let r3 = s.rank(&ctx(&p, 2));
        assert_eq!(r1, Rank(0));
        assert_eq!(r2, Rank((1000 << VT_SHIFT) / 2));
        assert_eq!(r3, Rank(2 * ((1000 << VT_SHIFT) / 2)));
    }

    #[test]
    fn heavier_flow_gets_denser_ranks() {
        // Weight-4 flow accumulates virtual time 4x slower than weight-1:
        // over one virtual-time unit it fits 4x the bytes.
        let mut s = Stfq::new(WeightTable::from_pairs([(FlowId(1), 1), (FlowId(2), 4)]));
        let p1 = Packet::new(0, FlowId(1), 1000, Nanos(0));
        let p2 = Packet::new(1, FlowId(2), 1000, Nanos(0));
        s.rank(&ctx(&p1, 0));
        s.rank(&ctx(&p2, 0));
        let f1 = s.last_finish(FlowId(1)).unwrap();
        let f2 = s.last_finish(FlowId(2)).unwrap();
        assert_eq!(f1, 4 * f2);
    }

    #[test]
    fn new_flow_starts_at_current_virtual_time_not_zero() {
        // The property UPS cannot express (§7): a newly active flow starts
        // at the *current* virtual time, so it cannot claim bandwidth
        // retroactively.
        let mut s = Stfq::unweighted();
        let p = Packet::new(0, FlowId(1), 500, Nanos(0));
        let r = s.rank(&ctx(&p, 0));
        // Simulate dequeue of that packet: virtual time advances to start.
        s.on_dequeue(
            Rank(r.value() + (500 << VT_SHIFT)), // pretend time moved on
            &DeqCtx {
                now: Nanos(10),
                flow: FlowId(1),
            },
        );
        let q = Packet::new(1, FlowId(9), 500, Nanos(10));
        let r2 = s.rank(&ctx(&q, 10));
        assert_eq!(r2, Rank(500 << VT_SHIFT), "late flow starts at vt, not 0");
    }

    #[test]
    fn virtual_time_never_regresses() {
        let mut s = Stfq::unweighted();
        s.on_dequeue(
            Rank(100),
            &DeqCtx {
                now: Nanos(0),
                flow: FlowId(0),
            },
        );
        s.on_dequeue(
            Rank(50),
            &DeqCtx {
                now: Nanos(1),
                flow: FlowId(0),
            },
        );
        assert_eq!(s.virtual_time(), 100);
    }

    #[test]
    fn idle_flow_rejoins_at_virtual_time() {
        let mut s = Stfq::unweighted();
        let p = Packet::new(0, FlowId(1), 100, Nanos(0));
        s.rank(&ctx(&p, 0)); // finish tag = 100<<8
                             // Virtual time races far ahead while flow 1 is idle.
        s.on_dequeue(
            Rank(1_000_000),
            &DeqCtx {
                now: Nanos(5),
                flow: FlowId(2),
            },
        );
        let r = s.rank(&ctx(&p, 6));
        assert_eq!(
            r,
            Rank(1_000_000),
            "start = max(vt, last_finish) picks vt for an idle flow"
        );
    }

    #[test]
    fn zero_length_packets_still_order() {
        let mut s = Stfq::unweighted();
        let p = Packet::new(0, FlowId(1), 0, Nanos(0));
        let r1 = s.rank(&ctx(&p, 0));
        let r2 = s.rank(&ctx(&p, 0));
        assert!(r2 > r1, "finish tags must strictly increase within a flow");
    }

    /// End-to-end through a single PIFO: two backlogged flows with weights
    /// 1:3 are served ~1:3 by packet count (equal packet sizes).
    #[test]
    fn weighted_sharing_through_pifo() {
        let mut b = TreeBuilder::new();
        let root = b.add_root(
            "wfq",
            Box::new(Stfq::new(WeightTable::from_pairs([
                (FlowId(1), 1),
                (FlowId(2), 3),
            ]))),
        );
        let mut tree = b.build(Box::new(move |_| root)).unwrap();

        // Both flows keep 40 packets buffered.
        let mut id = 0;
        for _ in 0..40 {
            for f in [1u32, 2u32] {
                tree.enqueue(Packet::new(id, FlowId(f), 1000, Nanos(0)), Nanos(0))
                    .unwrap();
                id += 1;
            }
        }
        // Serve 40 packets; count the split.
        let mut counts = [0u32; 3];
        for _ in 0..40 {
            let p = tree.dequeue(Nanos(1)).unwrap();
            counts[p.flow.0 as usize] += 1;
        }
        assert_eq!(counts[1] + counts[2], 40);
        assert!(
            counts[2] >= 28 && counts[2] <= 32,
            "weight-3 flow should get ~30 of 40 slots, got {}",
            counts[2]
        );
    }
}
