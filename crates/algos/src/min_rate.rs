//! Minimum rate guarantees (§3.3, Fig 8).
//!
//! Flows below their guaranteed rate are scheduled with strict priority
//! over flows above it. The paper's construction is a **two-level tree**:
//! leaves run FIFO per flow; the root runs the transaction below, ranking
//! each flow's *transmission opportunity* 0 (under its minimum) or 1
//! (over):
//!
//! ```text
//! tb = tb + min_rate * (now - last_time)
//! if tb > BURST_SIZE: tb = BURST_SIZE
//! if tb > p.size:
//!     p.over_min = 0      // under min rate
//!     tb = tb - p.size
//! else:
//!     p.over_min = 1      // over min rate
//! last_time = now
//! p.rank = p.over_min
//! ```
//!
//! §3.3 explains why collapsing this into a single PIFO is wrong: rank
//! changes would reorder packets *within* a flow. The two-level tree
//! attaches the priority to the flow's next transmission opportunity
//! instead; [`min_rate_tree`] describes it. The single-level
//! (incorrect) variant is exposed as [`MinRateGuarantee`] applied directly
//! so the reordering pathology can be demonstrated (see `repro minrate`).

use crate::prio::Fifo;
use pifo_core::prelude::*;

const NANOBITS_PER_BYTE: i128 = 8 * 1_000_000_000;

#[derive(Debug, Clone)]
struct BucketState {
    tokens: i128,
    last_time: Nanos,
}

/// The Fig 8 scheduling transaction, with one token bucket per flow.
///
/// Rank is 0 while the flow is within its guaranteed rate, 1 beyond it; the
/// PIFO tie-break keeps each priority band FIFO.
#[derive(Debug, Clone)]
pub struct MinRateGuarantee {
    rates_bps: FlowMap<u64>,
    default_rate_bps: u64,
    burst_bytes: u64,
    buckets: FlowMap<BucketState>,
}

impl MinRateGuarantee {
    /// Guarantee `default_rate_bps` to every flow, with burst tolerance
    /// `burst_bytes` (Fig 8's `BURST_SIZE`).
    pub fn new(default_rate_bps: u64, burst_bytes: u64) -> Self {
        MinRateGuarantee {
            rates_bps: FlowMap::default(),
            default_rate_bps,
            burst_bytes,
            buckets: FlowMap::default(),
        }
    }

    /// Override the guarantee for one flow.
    pub fn set_rate(&mut self, flow: FlowId, rate_bps: u64) {
        self.rates_bps.insert(flow, rate_bps);
    }

    fn rate_of(&self, flow: FlowId) -> u64 {
        self.rates_bps
            .get(&flow)
            .copied()
            .unwrap_or(self.default_rate_bps)
    }

    /// Run the token-bucket check for (flow, packet length in bytes) at
    /// `now`; returns 0 (under the minimum) or 1 (over).
    pub fn over_min(&mut self, flow: FlowId, length: u32, now: Nanos) -> u64 {
        let rate = self.rate_of(flow);
        let burst = self.burst_bytes as i128 * NANOBITS_PER_BYTE;
        let b = self.buckets.entry(flow).or_insert(BucketState {
            tokens: burst,
            last_time: Nanos::ZERO,
        });
        let dt = now.saturating_sub(b.last_time).as_nanos() as i128;
        b.tokens = (b.tokens + dt * rate as i128).min(burst);
        let need = length as i128 * NANOBITS_PER_BYTE;
        let over = if b.tokens > need {
            b.tokens -= need;
            0
        } else {
            1
        };
        // An earlier call than the last refills nothing and keeps the
        // clock, as in `TokenBucketFilter`.
        b.last_time = b.last_time.max(now);
        over
    }
}

impl SchedulingTransaction for MinRateGuarantee {
    fn rank(&mut self, ctx: &EnqCtx<'_>) -> Rank {
        Rank(self.over_min(ctx.flow, ctx.packet.length, ctx.now))
    }

    fn name(&self) -> &str {
        "MinRateGuarantee"
    }
}

/// The correct two-level min-rate tree of §3.3: one FIFO leaf per flow,
/// the Fig 8 transaction at the root, and the classifier mapping each
/// listed flow to its leaf. Packets from unlisted flows go to
/// [`NodeId::INVALID`], which both back-ends reject at enqueue. The
/// caller picks the engine and the back-end.
///
/// # Panics
///
/// Panics if `flows` is empty.
pub fn min_rate_tree(
    flows: &[(FlowId, u64)], // (flow, guaranteed rate in bits/s)
    burst_bytes: u64,
) -> (TreeBuilder, Classifier) {
    assert!(!flows.is_empty(), "need at least one flow");
    let mut b = TreeBuilder::new();
    let mut root_tx = MinRateGuarantee::new(0, burst_bytes);

    // The root sees child nodes as flows. Node ids are assigned densely
    // (root = 0, leaves = 1..), so the per-child guarantees can be wired
    // into the root transaction before the leaves exist.
    let mut leaf_of: FlowMap<NodeId> = FlowMap::default();
    for (i, (flow, rate)) in flows.iter().enumerate() {
        let leaf_id = NodeId::from_index(i + 1);
        root_tx.set_rate(leaf_id.as_flow(), *rate);
        leaf_of.insert(*flow, leaf_id);
    }

    let root = b.add_root("min-rate-root", Box::new(root_tx));
    for (flow, _) in flows {
        let leaf = b.add_child(root, &format!("fifo-{flow}"), Box::new(Fifo));
        debug_assert_eq!(leaf_of[flow], leaf);
    }

    let classifier: Classifier =
        Box::new(move |p: &Packet| leaf_of.get(&p.flow).copied().unwrap_or(NodeId::INVALID));
    (b, classifier)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(flows: &[(FlowId, u64)], burst_bytes: u64) -> ScheduleTree {
        let (b, classifier) = min_rate_tree(flows, burst_bytes);
        b.build(classifier).expect("valid tree")
    }

    #[test]
    fn under_rate_is_priority_zero() {
        let mut t = MinRateGuarantee::new(8_000_000_000, 10_000); // 1 B/ns
        assert_eq!(t.over_min(FlowId(1), 1_000, Nanos(0)), 0);
    }

    #[test]
    fn hog_exceeds_and_gets_priority_one() {
        let mut t = MinRateGuarantee::new(8_000_000_000, 2_000);
        // Burn through the burst.
        assert_eq!(t.over_min(FlowId(1), 1_000, Nanos(0)), 0);
        // Second packet: bucket has 1000 B left, need strictly-greater.
        assert_eq!(t.over_min(FlowId(1), 1_000, Nanos(0)), 1);
        assert_eq!(t.over_min(FlowId(1), 1_000, Nanos(0)), 1);
    }

    #[test]
    fn an_earlier_call_does_not_move_the_clock_back() {
        let mut t = MinRateGuarantee::new(8_000_000_000, 1_000); // 1 B/ns
        assert_eq!(t.over_min(FlowId(1), 500, Nanos(1_000)), 0); // 500 B left
        assert_eq!(t.over_min(FlowId(1), 500, Nanos(500)), 1);
        // No time has passed since 1000 ns: still 500 B, not a refill.
        assert_eq!(t.over_min(FlowId(1), 500, Nanos(1_000)), 1);
    }

    #[test]
    fn bucket_refills_with_time() {
        let mut t = MinRateGuarantee::new(8_000_000_000, 2_000); // 1 B/ns
        assert_eq!(t.over_min(FlowId(1), 1_000, Nanos(0)), 0);
        assert_eq!(t.over_min(FlowId(1), 1_000, Nanos(0)), 1);
        // 1500 ns later the bucket holds ~1000+1500 capped 2000 B.
        assert_eq!(t.over_min(FlowId(1), 1_000, Nanos(1_500)), 0);
    }

    #[test]
    fn per_flow_buckets_are_independent() {
        let mut t = MinRateGuarantee::new(8_000_000_000, 1_500);
        assert_eq!(t.over_min(FlowId(1), 1_000, Nanos(0)), 0);
        // Flow 2 has its own full bucket.
        assert_eq!(t.over_min(FlowId(2), 1_000, Nanos(0)), 0);
    }

    #[test]
    fn two_level_tree_prioritises_under_min_flow() {
        // Flow 1 guaranteed a high rate (always under min); flow 2 hogs.
        let mut tree = build(&[(FlowId(1), 80_000_000_000), (FlowId(2), 8)], 1_500);
        // Hog floods first; guaranteed flow then sends one packet.
        for i in 0..5 {
            tree.enqueue(Packet::new(i, FlowId(2), 1_000, Nanos(i)), Nanos(i))
                .unwrap();
        }
        tree.enqueue(Packet::new(99, FlowId(1), 1_000, Nanos(10)), Nanos(10))
            .unwrap();
        // Hog's first transmission opportunity was under-min (fresh burst),
        // so one hog packet may precede; the guaranteed flow must drain
        // before the hog's over-min bulk.
        let order: Vec<u64> = std::iter::from_fn(|| tree.dequeue(Nanos(100)))
            .map(|p| p.id.0)
            .collect();
        let pos_guaranteed = order.iter().position(|&id| id == 99).unwrap();
        assert!(
            pos_guaranteed <= 1,
            "guaranteed flow must be served ahead of the hog's backlog, order: {order:?}"
        );
        assert_eq!(order.len(), 6);
    }

    #[test]
    fn two_level_tree_preserves_intra_flow_order() {
        // §3.3: the 2-level construction must never reorder a flow's own
        // packets, even as the flow crosses the min-rate boundary.
        let mut tree = build(&[(FlowId(1), 8_000)], 1_500);
        for i in 0..20 {
            tree.enqueue(
                Packet::new(i, FlowId(1), 1_000, Nanos(i)).with_seq_in_flow(i),
                Nanos(i),
            )
            .unwrap();
        }
        let seqs: Vec<u64> = std::iter::from_fn(|| tree.dequeue(Nanos(1_000)))
            .map(|p| p.seq_in_flow)
            .collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted, "intra-flow FIFO order must hold");
    }

    #[test]
    fn unknown_flow_is_rejected_not_misrouted() {
        let mut tree = build(&[(FlowId(1), 8_000)], 1_500);
        let err = tree
            .enqueue(Packet::new(0, FlowId(77), 100, Nanos(0)), Nanos(0))
            .unwrap_err();
        assert!(matches!(err, TreeError::UnknownNode(_)));
    }
}
