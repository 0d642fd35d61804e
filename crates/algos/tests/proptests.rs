//! Property tests for the algorithm catalogue, centred on the invariant
//! the hardware design stands on (§5.2): **ranks within a flow must be
//! monotonically non-decreasing** for the flow-scheduler + rank-store
//! decomposition to behave as a PIFO.
//!
//! STFQ, FIFO and the token-bucket/priority transactions satisfy it by
//! construction; the fine-grained priority schemes (SRPT, LAS) do *not*
//! when several packets of one flow are in flight — that caveat is
//! pinned here and cross-referenced from the hw crate.

use pifo_algos::{
    Fifo, Lstf, MinRateGuarantee, Srpt, Stfq, StopAndGo, TokenBucketFilter, WeightTable,
};
use pifo_core::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn ctx<'a>(p: &'a Packet, now: u64) -> EnqCtx<'a> {
    EnqCtx {
        packet: p,
        now: Nanos(now),
        flow: p.flow,
    }
}

/// Flow ids that stress a table index: neighbours, a byte boundary, a
/// high power of two (interior-node numbering), the top of the range.
const STFQ_FLOWS: [u32; 6] = [0, 1, 255, 256, 1 << 20, u32::MAX];

fn flow_id() -> impl Strategy<Value = u32> {
    prop_oneof![
        3 => (0usize..STFQ_FLOWS.len()).prop_map(|i| STFQ_FLOWS[i]),
        1 => any::<u32>(),
    ]
}

#[derive(Debug, Clone)]
enum StfqStep {
    /// A packet of (flow, length) arrives.
    Enqueue(u32, u32),
    /// A packet with this rank departs.
    Dequeue(u64),
}

fn stfq_step() -> impl Strategy<Value = StfqStep> {
    prop_oneof![
        // Lengths include 0 (the one-quantum floor) and oversize values.
        6 => (flow_id(), prop_oneof![4 => 0u32..1_501, 1 => any::<u32>()])
            .prop_map(|(f, len)| StfqStep::Enqueue(f, len)),
        // Departing ranks include ones that saturate the finish tag.
        3 => prop_oneof![4 => 0u64..1 << 40, 1 => any::<u64>()].prop_map(StfqStep::Dequeue),
    ]
}

proptest! {
    /// STFQ: per-flow ranks are strictly increasing no matter how flows
    /// interleave or how virtual time advances — the §5.2 precondition.
    #[test]
    fn stfq_ranks_monotone_per_flow(
        steps in proptest::collection::vec((0u32..4, 1u32..1500, 0u64..100_000), 1..300)
    ) {
        let mut tx = Stfq::new(WeightTable::from_pairs([
            (FlowId(0), 1),
            (FlowId(1), 3),
            (FlowId(2), 7),
            (FlowId(3), 11),
        ]));
        let mut last: [Option<u64>; 4] = [None; 4];
        let mut now = 0u64;
        for (f, len, vt_jump) in steps {
            now += 5;
            let p = Packet::new(0, FlowId(f), len, Nanos(now));
            let r = tx.rank(&ctx(&p, now)).value();
            if let Some(prev) = last[f as usize] {
                prop_assert!(r >= prev, "flow {f}: rank {r} < previous {prev}");
            }
            last[f as usize] = Some(r);
            // Virtual time may advance arbitrarily between arrivals.
            tx.on_dequeue(Rank(vt_jump), &DeqCtx { now: Nanos(now), flow: FlowId(f) });
        }
    }

    /// STFQ's state lives in `FlowMap`s (a fixed multiplicative hasher,
    /// one `entry` probe per rank); Fig 1 written over a `BTreeMap` must
    /// give the same rank, finish tag and virtual time at every step —
    /// on small ids, on ids a power of two apart, and on random ones.
    #[test]
    fn stfq_matches_fig1_over_a_btreemap(
        weights in proptest::collection::vec((flow_id(), 1u64..16), 0..12),
        default_weight in 1u64..4,
        steps in proptest::collection::vec(stfq_step(), 1..300),
    ) {
        let mut table = WeightTable::from_pairs(weights.iter().map(|&(f, w)| (FlowId(f), w)));
        table.set_default(default_weight);
        let weight_of: BTreeMap<u32, u64> = weights.into_iter().collect();
        let mut tx = Stfq::new(table);
        let mut virtual_time = 0u64;
        let mut last_finish: BTreeMap<u32, u64> = BTreeMap::new();
        for (i, step) in steps.into_iter().enumerate() {
            match step {
                StfqStep::Enqueue(f, length) => {
                    let start = match last_finish.get(&f) {
                        Some(&fin) => virtual_time.max(fin),
                        None => virtual_time,
                    };
                    let w = weight_of.get(&f).copied().unwrap_or(default_weight);
                    let service = (((length as u64) << VT_SHIFT) / w).max(1);
                    last_finish.insert(f, start.saturating_add(service));
                    let p = Packet::new(i as u64, FlowId(f), length, Nanos(i as u64));
                    prop_assert_eq!(tx.rank(&ctx(&p, i as u64)), Rank(start), "step {}", i);
                }
                StfqStep::Dequeue(rank) => {
                    virtual_time = virtual_time.max(rank);
                    tx.on_dequeue(Rank(rank), &DeqCtx { now: Nanos(i as u64), flow: FlowId(0) });
                }
            }
            prop_assert_eq!(tx.virtual_time(), virtual_time, "step {}", i);
            for &f in STFQ_FLOWS.iter().chain(last_finish.keys()) {
                prop_assert_eq!(
                    tx.last_finish(FlowId(f)),
                    last_finish.get(&f).copied(),
                    "flow {} at step {}", f, i
                );
            }
        }
    }

    /// FIFO ranks are monotone per flow trivially (time moves forward) —
    /// but assert it anyway, since the hw equivalence rests on it.
    #[test]
    fn fifo_ranks_monotone(times in proptest::collection::vec(0u64..1_000, 1..100)) {
        let mut tx = Fifo;
        let mut now = 0u64;
        let mut prev = 0u64;
        for dt in times {
            now += dt;
            let p = Packet::new(0, FlowId(0), 100, Nanos(now));
            let r = tx.rank(&ctx(&p, now)).value();
            prop_assert!(r >= prev);
            prev = r;
        }
    }

    /// SRPT does NOT satisfy the per-flow monotonicity precondition: a
    /// flow's remaining size shrinks with every packet, so ranks
    /// *decrease*. Fine-grained priorities need per-packet flows (or
    /// end-host pacing) on the §5.2 hardware.
    #[test]
    fn srpt_ranks_decrease_within_flow(sizes in 2u64..1_000_000) {
        let mut tx = Srpt;
        let p1 = Packet::new(0, FlowId(1), 100, Nanos(0)).with_remaining(sizes);
        let p2 = Packet::new(1, FlowId(1), 100, Nanos(1)).with_remaining(sizes / 2);
        let r1 = tx.rank(&ctx(&p1, 0));
        let r2 = tx.rank(&ctx(&p2, 1));
        prop_assert!(r2 < r1, "SRPT ranks shrink as the flow progresses");
    }

    /// Token bucket long-run rate bound: for any arrival pattern, the
    /// bytes whose send_time falls in `[0, T)` never exceed
    /// `burst + rate·T` — the defining property of a (r, B) regulator.
    #[test]
    fn tbf_never_exceeds_rate_envelope(
        arrivals in proptest::collection::vec((0u64..200_000, 64u32..1500), 1..200)
    ) {
        let rate_bps = 50_000_000u64; // 50 Mb/s
        let burst = 10_000u64;
        let mut tx = TokenBucketFilter::new(rate_bps, burst);
        let mut now = 0u64;
        let mut sends: Vec<(u64, u32)> = Vec::new();
        for (gap, len) in arrivals {
            now += gap;
            let p = Packet::new(0, FlowId(0), len, Nanos(now));
            let t = tx.send_time(&ctx(&p, now)).as_nanos();
            prop_assert!(t >= now, "cannot release into the past");
            sends.push((t, len));
        }
        // Envelope check at every send instant.
        sends.sort_unstable();
        for &(t, _) in &sends {
            let released: u64 = sends
                .iter()
                .filter(|&&(u, _)| u <= t)
                .map(|&(_, l)| l as u64)
                .sum();
            let allowance = burst + (t as u128 * rate_bps as u128 / 8 / 1_000_000_000) as u64
                + 1_500; // one packet of slop for the in-flight boundary
            prop_assert!(
                released <= allowance,
                "released {released}B by t={t}, allowance {allowance}B"
            );
        }
    }

    /// Stop-and-Go: release time is always the end of the *current or a
    /// later* frame, within one frame of arrival when arrivals are dense.
    #[test]
    fn stop_and_go_releases_at_frame_ends(
        gaps in proptest::collection::vec(0u64..999, 1..200)
    ) {
        let frame = 1_000u64;
        let mut tx = StopAndGo::new(Nanos(frame));
        let mut now = 0u64;
        for gap in gaps {
            now += gap;
            let p = Packet::new(0, FlowId(0), 100, Nanos(now));
            let t = tx.send_time(&ctx(&p, now)).as_nanos();
            prop_assert_eq!(t % frame, 0, "releases only at frame boundaries");
            prop_assert!(t > now, "strictly after arrival");
            prop_assert!(t - now <= frame, "within one frame for dense arrivals");
        }
    }

    /// Min-rate: a flow that never exceeds its guaranteed rate is never
    /// marked over-minimum (given its burst tolerance).
    #[test]
    fn conforming_flow_never_over_min(gap_ms in 1u64..20) {
        // 1500 B per gap_ms at guarantee covering it comfortably.
        let gap_ns = gap_ms * 1_000_000;
        let needed_bps = 1_500 * 8 * 1_000 / gap_ms * 1_000; // bytes/gap in bits/s
        let mut tx = MinRateGuarantee::new(needed_bps * 2, 3_000);
        let mut now = 0u64;
        for i in 0..50u64 {
            now += gap_ns;
            let p = Packet::new(i, FlowId(1), 1_500, Nanos(now));
            let r = tx.rank(&ctx(&p, now));
            prop_assert_eq!(r, Rank(0), "conforming flow stays priority 0");
        }
    }

    /// LSTF ranks never go negative (clamped), whatever the slack.
    #[test]
    fn lstf_rank_clamped(slack in i64::MIN / 2..i64::MAX / 2) {
        let mut tx = Lstf;
        let p = Packet::new(0, FlowId(0), 100, Nanos(0)).with_slack(slack);
        let r = tx.rank(&ctx(&p, 0));
        prop_assert_eq!(r.value(), slack.max(0) as u64);
    }
}

/// The SRPT/hardware interaction spelled out: on the §5.2 block, SRPT's
/// decreasing per-flow ranks make the flow FIFO (head holds the stale,
/// *largest* remaining) — so SRPT must be deployed with per-packet flow
/// ids on that hardware. The software PIFO handles it natively.
#[test]
fn srpt_on_hw_block_needs_per_packet_flows() {
    use pifo_core::pifo::PifoQueue;

    // Reference PIFO: true SRPT order.
    let mut reference: SortedArrayPifo<u64> = SortedArrayPifo::new();
    let mut tx = Srpt;
    for (id, rem) in [(0u64, 9_000u64), (1, 6_000), (2, 3_000)] {
        let p = Packet::new(id, FlowId(1), 100, Nanos(id)).with_remaining(rem);
        let r = tx.rank(&ctx(&p, id));
        reference.push(r, id);
    }
    let order: Vec<u64> = std::iter::from_fn(|| reference.pop().map(|(_, v)| v)).collect();
    assert_eq!(order, vec![2, 1, 0], "true PIFO: most-progressed first");
    // (The hw block with flow-grouped SRPT would emit 0,1,2 — FIFO —
    // because ranks decrease within the flow; see
    // pifo-hw block::tests::non_strict_mode_missorts_on_violation.)
}
