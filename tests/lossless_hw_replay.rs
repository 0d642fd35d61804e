//! Sim-to-hardware pause replay: the pause/resume event log produced by
//! the lossless fabric drives the §6.2 PFC hooks of the hardware PIFO
//! block ([`PifoBlock::pause_flow`]/[`resume_flow`]), and the block's
//! flow scheduler honors every window — **a paused flow never pops while
//! paused**, unpaused flows keep draining around it, per-flow FIFO order
//! survives, and once every pause resolves the block drains to empty.
//!
//! This pins the cross-layer contract: the *same* pause signal the
//! simulator derives from watermark pressure is expressible on the §5.2
//! flow-scheduler hardware as-is, one `pause_flow` per flow behind the
//! congested (port, class).
//!
//! [`resume_flow`]: PifoBlock::resume_flow

use pifo::hw::{BlockConfig, LogicalPifoId, PifoBlock};
use pifo::prelude::*;
use std::collections::HashSet;

const RATE_BPS: u64 = 10_000_000_000;
/// Hog senders behind port 0 — the flows a port-0 pause frame covers.
const HOG_FLOWS: u32 = 8;

fn classify(p: &Packet) -> usize {
    if p.flow.0 < 64 {
        0
    } else {
        1
    }
}

/// A 2-port lossless run whose hog port pauses repeatedly: the source of
/// both the packet stream and the pause log replayed below.
fn lossless_run() -> LosslessRun {
    let cfg = LosslessConfig::new(16, 4).with_headroom(16);
    let mut sb = SwitchBuilder::new(RATE_BPS);
    sb.with_shared_pool(
        2 * 32,
        AdmissionPolicy::PortFlow {
            port: Threshold::Static(32),
            flow: Threshold::Unlimited,
        },
    );
    for _ in 0..2 {
        sb.add_shared_port(|h| {
            let mut b = TreeBuilder::new();
            let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
            b.build_in_pool(Box::new(move |_| root), h).expect("tree")
        });
    }
    let mut fabric = LosslessFabric::new(sb.build(Box::new(classify)), cfg);
    let sources: Vec<Box<dyn TrafficSource>> = vec![
        // 8 incast senders, 4x the port-0 drain rate: pauses guaranteed.
        Box::new(IncastSource::new(
            FlowId(0),
            HOG_FLOWS,
            1_000,
            8,
            RATE_BPS,
            Nanos(10_000),
            Nanos(200_000),
        )),
        Box::new(CbrSource::new(
            FlowId(100),
            1_000,
            RATE_BPS / 2,
            Nanos::ZERO,
            Nanos(200_000),
        )),
    ];
    fabric.run(sources, FaultPlan::none())
}

enum ReplayEvent {
    Arrive(Packet),
    Pause,
    Resume,
}

#[test]
fn sim_pause_log_replays_onto_the_hw_block() {
    let run = lossless_run();
    assert!(run.stall.is_none(), "clean source run: {:?}", run.stall);
    assert_eq!(run.total_drops(), 0);
    let port0_pauses = run
        .pause_events
        .iter()
        .filter(|e| e.port == 0 && e.action == PauseAction::Pause)
        .count();
    assert!(port0_pauses > 0, "the hog port must have paused");

    // Timeline: every packet the sim admitted to port 0 (arrival-
    // stamped), interleaved with port 0's pause/resume transitions.
    // Control frames sort before arrivals at equal instants, exactly as
    // the fabric driver delivers them.
    let mut timeline: Vec<(Nanos, u8, ReplayEvent)> = Vec::new();
    for d in &run.run.ports[0].departures {
        timeline.push((d.packet.arrival, 1, ReplayEvent::Arrive(d.packet.clone())));
    }
    for e in run.pause_events.iter().filter(|e| e.port == 0) {
        let ev = match e.action {
            PauseAction::Pause => ReplayEvent::Pause,
            PauseAction::Resume => ReplayEvent::Resume,
        };
        timeline.push((e.time, 0, ev));
    }
    timeline.sort_by_key(|&(t, kind, _)| (t, kind));
    let total = run.run.ports[0].departures.len();

    // Replay through the hardware block: one logical PIFO for port 0,
    // rank = per-flow sequence number (monotonic within a flow, the §5.2
    // precondition — enforced by strict mode). A port-0 pause covers
    // every hog flow behind it.
    let mut block = PifoBlock::new(BlockConfig::default()).strict_monotonic(true);
    let l0 = LogicalPifoId(0);
    let mut paused: HashSet<FlowId> = HashSet::new();
    let mut popped = 0usize;
    let mut pops_attempted_while_paused = 0usize;
    let mut next_seq = vec![0u64; HOG_FLOWS as usize];

    let drain = |block: &mut PifoBlock,
                 paused: &HashSet<FlowId>,
                 popped: &mut usize,
                 attempted: &mut usize,
                 next_seq: &mut Vec<u64>| {
        // Between timeline events the egress line drains a few slots.
        for _ in 0..4 {
            if !paused.is_empty() {
                *attempted += 1;
            }
            match block.dequeue(l0) {
                Some((rank, flow, _meta)) => {
                    assert!(
                        !paused.contains(&flow),
                        "flow {flow} popped while paused (rank {rank})"
                    );
                    // Per-flow FIFO: ranks are the sequence numbers.
                    let seq = &mut next_seq[flow.0 as usize];
                    assert_eq!(rank, Rank(*seq), "flow {flow} popped out of order");
                    *seq += 1;
                    *popped += 1;
                }
                None => break,
            }
        }
    };

    for (_, _, ev) in timeline {
        match ev {
            ReplayEvent::Arrive(p) => {
                block
                    .enqueue(l0, p.flow, Rank(p.seq_in_flow), p.id.0)
                    .expect("block sized for the run");
            }
            ReplayEvent::Pause => {
                for f in 0..HOG_FLOWS {
                    paused.insert(FlowId(f));
                    block.pause_flow(FlowId(f));
                }
            }
            ReplayEvent::Resume => {
                for f in 0..HOG_FLOWS {
                    paused.remove(&FlowId(f));
                    block.resume_flow(FlowId(f));
                }
            }
        }
        drain(
            &mut block,
            &paused,
            &mut popped,
            &mut pops_attempted_while_paused,
            &mut next_seq,
        );
    }

    // The replay genuinely exercised the pause windows: dequeues were
    // attempted while flows were paused, and the scheduler hid them.
    assert!(
        pops_attempted_while_paused > 0,
        "the replay never dequeued inside a pause window"
    );

    // Every pause resolved (the sim log reconciles), so nothing is
    // hidden anymore: the block drains to empty, in per-flow FIFO order.
    assert!(paused.is_empty(), "sim log left flows paused");
    while let Some((rank, flow, _)) = block.dequeue(l0) {
        let seq = &mut next_seq[flow.0 as usize];
        assert_eq!(rank, Rank(*seq), "flow {flow} popped out of order");
        *seq += 1;
        popped += 1;
    }
    assert_eq!(popped, total, "every admitted packet pops exactly once");
    assert_eq!(block.total_len(), 0);
}

/// While the hog flows sit paused, an unpaused flow sharing the logical
/// PIFO keeps popping — pause isolates, it does not head-of-line block.
#[test]
fn paused_flows_do_not_block_unpaused_neighbors() {
    let mut block = PifoBlock::new(BlockConfig::default());
    let l0 = LogicalPifoId(0);
    // Hog flows 0..4 hold better (lower) ranks than the victim flow 9.
    for f in 0..4u32 {
        for s in 0..3u64 {
            block.enqueue(l0, FlowId(f), Rank(s), 0).unwrap();
        }
    }
    for s in 0..3u64 {
        block.enqueue(l0, FlowId(9), Rank(100 + s), 1).unwrap();
    }
    for f in 0..4u32 {
        block.pause_flow(FlowId(f));
    }
    // Only the victim's packets emerge, in order, despite worse ranks.
    for s in 0..3u64 {
        let (rank, flow, _) = block.dequeue(l0).expect("victim drains");
        assert_eq!(flow, FlowId(9));
        assert_eq!(rank, Rank(100 + s));
    }
    assert!(block.dequeue(l0).is_none(), "only paused flows remain");
    for f in 0..4u32 {
        block.resume_flow(FlowId(f));
    }
    let mut remaining = 0;
    while block.dequeue(l0).is_some() {
        remaining += 1;
    }
    assert_eq!(remaining, 12, "resume releases every hog packet");
}
