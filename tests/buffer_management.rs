//! §6.1 end-to-end: buffer management composes with (and is orthogonal
//! to) programmable scheduling.
//!
//! The scenario is the classic tail-drop lockout: with a small shared
//! buffer and phase-aligned arrivals, the
//! slowest-draining flow can monopolise freed buffer slots and starve
//! the others *before the scheduler ever sees their packets*. The
//! paper's answer (§6.1) is per-flow thresholds in front of the
//! scheduler; the dynamic Choudhury–Hahne variant \[14\] restores the
//! scheduler's weighted shares without retuning.
//!
//! The thresholds are `pifo-core`'s pool policy: a tree built with
//! `TreeBuilder::build_in_pool` under `PortFlow { port: Unlimited, flow:
//! t }` is a scheduler with per-flow thresholds in front of it. The
//! packet-level tests below pin that composition before the end-to-end
//! lockout scenario.

use pifo_algos::{Stfq, WeightTable};
use pifo_core::prelude::*;
use pifo_sim::{
    run_port, throughput, CbrSource, PortConfig, PortScheduler, TrafficSource, TreeScheduler,
};

fn pkt(id: u64, flow: u32) -> Packet {
    Packet::new(id, FlowId(flow), 1_000, Nanos(id))
}

/// A FIFO tree behind per-flow `threshold`s in a `capacity`-packet
/// pool: the §6.1 composition, thresholds in front of the scheduler.
fn flow_threshold_fifo(capacity: usize, threshold: Threshold) -> TreeScheduler {
    let pool = SharedPacketPool::new(
        capacity,
        AdmissionPolicy::PortFlow {
            port: Threshold::Unlimited,
            flow: threshold,
        },
    )
    .unwrap()
    .into_shared();
    let mut b = TreeBuilder::new();
    let root = b.add_root("fifo", Box::new(pifo_algos::Fifo));
    let tree = b
        .build_in_pool(Box::new(move |_| root), pool.register_port())
        .unwrap();
    TreeScheduler::new("fifo", tree)
}

#[test]
fn static_threshold_caps_each_flow() {
    let mut s = flow_threshold_fifo(100, Threshold::Static(2));
    assert!(s.enqueue(pkt(0, 1), Nanos(0)));
    assert!(s.enqueue(pkt(1, 1), Nanos(0)));
    assert!(!s.enqueue(pkt(2, 1), Nanos(0)), "third of flow 1 dropped");
    assert!(s.enqueue(pkt(3, 2), Nanos(0)), "other flows unaffected");
    assert_eq!(s.drops(), 1);
    assert_eq!(
        s.tree().pool_handle().pool().flow_occupancy(FlowId(1)),
        Some(2)
    );
}

#[test]
fn dequeue_frees_headroom() {
    let mut s = flow_threshold_fifo(100, Threshold::Static(1));
    assert!(s.enqueue(pkt(0, 1), Nanos(0)));
    assert!(!s.enqueue(pkt(1, 1), Nanos(0)));
    s.dequeue(Nanos(1)).expect("packet");
    assert!(s.enqueue(pkt(2, 1), Nanos(2)), "freed by the dequeue");
}

#[test]
fn dynamic_threshold_prevents_monopoly_lockout() {
    // The classic tail-drop pathology: one flow owning the whole
    // buffer. With dynamic thresholds a second flow always finds
    // room.
    let mut s = flow_threshold_fifo(64, Threshold::Dynamic { num: 1, den: 1 });
    let mut id = 0;
    for _ in 0..200 {
        let _ = s.enqueue(pkt(id, 1), Nanos(id));
        id += 1;
    }
    let hog = s.tree().pool_handle().pool().flow_occupancy(FlowId(1));
    assert!(hog <= Some(32), "hog capped at half: {hog:?}");
    assert!(s.enqueue(pkt(id, 2), Nanos(id)), "victim admitted");
}

#[test]
fn inner_rejection_counts_as_drop() {
    // The buffer is full even though the flow threshold would admit:
    // capacity rejects, and the reject is one drop, counted once.
    let mut s = flow_threshold_fifo(1, Threshold::Static(50));
    assert!(s.enqueue(pkt(0, 1), Nanos(0)));
    assert!(!s.enqueue(pkt(1, 1), Nanos(0)));
    assert_eq!(s.drops(), 1);
    assert_eq!(
        s.tree().pool_handle().pool().live(),
        1,
        "occupancy not double-counted"
    );
}

const LINK: u64 = 10_000_000_000;

fn arrivals(end: Nanos) -> Vec<Packet> {
    let sources: Vec<Box<dyn TrafficSource>> = (1..=3u32)
        .map(|f| {
            Box::new(CbrSource::new(FlowId(f), 1_500, LINK, Nanos::ZERO, end))
                as Box<dyn TrafficSource>
        })
        .collect();
    let mut pkts = pifo_sim::merge(sources);
    pifo_sim::renumber(&mut pkts);
    pkts
}

/// The same WFQ tree over a 256-packet buffer: plain tail drop inside
/// the tree (`None`), or a pool whose per-flow `threshold` gates every
/// enqueue in front of the scheduler.
fn run(threshold: Option<Threshold>) -> [f64; 3] {
    let end = Nanos::from_millis(10);
    let pkts = arrivals(end);
    let cfg = PortConfig::new(LINK).with_horizon(end);
    let mut b = TreeBuilder::new();
    let root = b.add_root(
        "wfq",
        Box::new(Stfq::new(WeightTable::from_pairs([
            (FlowId(1), 1),
            (FlowId(2), 2),
            (FlowId(3), 4),
        ]))),
    );
    let classify: Classifier = Box::new(move |_| root);
    let tree = match threshold {
        None => {
            b.buffer_limit(256);
            b.build(classify)
        }
        Some(t) => {
            let policy = AdmissionPolicy::PortFlow {
                port: Threshold::Unlimited,
                flow: t,
            };
            let pool = SharedPacketPool::new(256, policy).unwrap().into_shared();
            b.build_in_pool(classify, pool.register_port())
        }
    };
    let mut sched = TreeScheduler::new("wfq", tree.expect("valid"));
    let deps = run_port(&pkts, &mut sched, &cfg);
    let (lo, hi) = (Nanos::from_millis(5), end);
    let rep = throughput(&deps, lo, hi);
    [
        rep.rate_bps(FlowId(1)) / 1e6,
        rep.rate_bps(FlowId(2)) / 1e6,
        rep.rate_bps(FlowId(3)) / 1e6,
    ]
}

/// Without admission control, the phase-aligned pattern lets flow 1
/// (lowest weight, slowest drain) capture every freed slot: lockout.
#[test]
fn tail_drop_lockout_reproduces() {
    let rates = run(None);
    assert!(rates[0] > 9_000.0, "flow 1 monopolises the link: {rates:?}");
    assert!(
        rates[1] < 500.0 && rates[2] < 500.0,
        "others starved: {rates:?}"
    );
}

/// Dynamic per-flow thresholds (alpha = 1) in front of the same
/// scheduler restore the 1:2:4 weighted shares with the same 256-packet
/// buffer.
#[test]
fn dynamic_thresholds_restore_fair_shares() {
    let rates = run(Some(Threshold::Dynamic { num: 1, den: 1 }));
    let ideal = [10_000.0 / 7.0, 20_000.0 / 7.0, 40_000.0 / 7.0];
    for (got, want) in rates.iter().zip(ideal) {
        let rel = (got - want).abs() / want;
        assert!(
            rel < 0.15,
            "shares must track weights within 15%: got {rates:?}"
        );
    }
}

/// Static thresholds also break the lockout (a third of the buffer per
/// flow), though they need manual sizing.
#[test]
fn static_thresholds_also_work() {
    let rates = run(Some(Threshold::Static(85)));
    assert!(rates[1] > 1_000.0, "flow 2 served: {rates:?}");
    assert!(rates[2] > 2_000.0, "flow 3 served: {rates:?}");
}
