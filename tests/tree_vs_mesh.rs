//! Cross-crate equivalence: one tree description — a `TreeBuilder` and
//! its classifier — run by the software `ScheduleTree` (`build`) and by
//! the compiled hardware mesh (`pifo_compiler::compile`) produces the
//! same schedule. Each test writes its tree once, as a function, and
//! hands one copy to each back-end.
//!
//! Element-for-element equality is asserted for FIFO (unique ranks) and
//! for the STFQ hierarchies (Fig 3, CBQ, five levels) on their
//! 300–400-packet streams. The hardware flow scheduler breaks equal-rank
//! heads by its own insertion order, not by original push order (see
//! `pifo-hw`'s `flow_scheduler` and `pifo-hw/tests/equivalence.rs`), so
//! STFQ equality is a property of these streams, not a guarantee; a
//! stream that diverges on a cross-flow tie should assert intra-flow
//! order instead. The shaped hierarchy and min-rate (whose root ranks
//! are only 0 or 1, so cross-flow ties are the rule) assert the same
//! packet set and intra-flow order.

use pifo_algos::{cbq_tree, fig3_hpfq, min_rate_tree, CbqClass, Hierarchy};
use pifo_compiler::compile;
use pifo_core::prelude::*;
use pifo_core::transaction::FnTransaction;
use pifo_hw::{BlockConfig, HwError};
use std::collections::HashMap;

fn fifo_tx() -> Box<dyn SchedulingTransaction> {
    Box::new(FnTransaction::new("fifo", |ctx: &EnqCtx<'_>| {
        Rank(ctx.now.as_nanos())
    }))
}

/// Drive packets through the compiled mesh, one enqueue per cycle, then
/// drain with 3-cycle transmit spacing.
fn mesh_order((tree, classifier): (TreeBuilder, Classifier), packets: &[Packet]) -> Vec<u64> {
    let mut mesh = compile(tree, classifier, BlockConfig::default(), 1).expect("fits");
    for p in packets {
        let mut q = p.clone();
        q.arrival = mesh.now();
        mesh.enqueue_packet(q).expect("ports free");
        mesh.tick();
    }
    let mut order = Vec::new();
    let mut idle = 0;
    while order.len() < packets.len() {
        mesh.tick();
        mesh.tick();
        mesh.tick();
        match mesh.transmit() {
            Ok(Some(p)) => {
                order.push(p.id.0);
                idle = 0;
            }
            _ => {
                idle += 1;
                assert!(idle < 200, "mesh wedged with {} delivered", order.len());
            }
        }
    }
    order
}

/// Drive the same packets, at the same instants, through the built tree.
fn tree_order((tree, classifier): (TreeBuilder, Classifier), packets: &[Packet]) -> Vec<u64> {
    let mut tree = tree.build(classifier).expect("valid");
    for (i, p) in packets.iter().enumerate() {
        let mut q = p.clone();
        q.arrival = Nanos(i as u64);
        tree.enqueue(q, Nanos(i as u64)).expect("enqueue");
    }
    std::iter::from_fn(|| tree.dequeue(Nanos(1 << 40)))
        .map(|p| p.id.0)
        .collect()
}

/// Both back-ends run one description over `packets`.
fn both(
    describe: impl Fn() -> (TreeBuilder, Classifier),
    packets: &[Packet],
) -> (Vec<u64>, Vec<u64>) {
    (
        tree_order(describe(), packets),
        mesh_order(describe(), packets),
    )
}

/// Drop the flow→leaf map of an `algos` description.
fn described<M>((tree, classifier, _): (TreeBuilder, Classifier, M)) -> (TreeBuilder, Classifier) {
    (tree, classifier)
}

/// Same packets delivered, and each flow's packets in the same order.
fn assert_same_flow_orders(tree: &[u64], mesh: &[u64], packets: &[Packet]) {
    assert_eq!(tree.len(), mesh.len());
    let mut a = tree.to_vec();
    let mut b = mesh.to_vec();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "same packet sets delivered");
    let flow_of: HashMap<u64, u32> = packets.iter().map(|p| (p.id.0, p.flow.0)).collect();
    for f in 0..4u32 {
        let of_flow = |order: &[u64]| -> Vec<u64> {
            order
                .iter()
                .copied()
                .filter(|id| flow_of[id] == f)
                .collect()
        };
        assert_eq!(of_flow(tree), of_flow(mesh), "flow {f} intra-flow order");
    }
}

fn hpfq_packets(n: u64) -> Vec<Packet> {
    // Deterministic pseudo-random flow choice over 4 flows.
    let mut state = 0xDEADBEEFu64;
    (0..n)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            Packet::new(i, FlowId((state % 4) as u32), 1_000, Nanos(i))
        })
        .collect()
}

/// A root over two leaves, flows 0–1 left and 2–3 right, FIFO at every
/// node; `delay` shapes the right leaf.
fn fifo_hierarchy(delay: Option<u64>) -> (TreeBuilder, Classifier) {
    struct Delay(u64);
    impl ShapingTransaction for Delay {
        fn send_time(&mut self, ctx: &EnqCtx<'_>) -> Nanos {
            Nanos(ctx.now.as_nanos() + self.0)
        }
    }
    let mut b = TreeBuilder::new();
    let root = b.add_root("root", fifo_tx());
    let left = b.add_child(root, "left", fifo_tx());
    let right = b.add_child(root, "right", fifo_tx());
    if let Some(d) = delay {
        b.set_shaper(right, Box::new(Delay(d)));
    }
    let classifier = Box::new(move |p: &Packet| if p.flow.0 < 2 { left } else { right });
    (b, classifier)
}

/// FIFO at every node: ranks are unique (one enqueue per cycle), so the
/// tree and the mesh must agree element for element.
#[test]
fn fifo_hierarchy_tree_equals_mesh() {
    let (tree, mesh) = both(|| fifo_hierarchy(None), &hpfq_packets(200));
    assert_eq!(tree, mesh, "FIFO hierarchy must match exactly");
}

/// STFQ/HPFQ (Fig 3) on 400 packets over four flows: the tree and the
/// mesh depart in the same order, element for element.
#[test]
fn stfq_hierarchy_tree_equals_mesh() {
    let (tree, mesh) = both(|| described(fig3_hpfq()), &hpfq_packets(400));
    assert_eq!(tree, mesh, "STFQ hierarchy must match exactly");
}

/// CBQ: class priority at the root, STFQ within each class.
#[test]
fn cbq_tree_equals_mesh() {
    let classes = [
        CbqClass {
            name: "voice".into(),
            priority: 0,
            flows: vec![(FlowId(0), 1)],
        },
        CbqClass {
            name: "bulk".into(),
            priority: 1,
            flows: vec![(FlowId(1), 1), (FlowId(2), 3)],
        },
        CbqClass {
            name: "scavenger".into(),
            priority: 2,
            flows: vec![(FlowId(3), 1)],
        },
    ];
    let (tree, mesh) = both(|| described(cbq_tree(&classes)), &hpfq_packets(300));
    assert_eq!(tree, mesh, "CBQ must match exactly");
}

/// The paper's headline depth: five levels of weighted STFQ.
#[test]
fn five_level_hierarchy_tree_equals_mesh() {
    let leaf = |name: &str, flows: &[(u32, u64)]| {
        Hierarchy::leaf(name, flows.iter().map(|&(f, w)| (FlowId(f), w)).collect())
    };
    let l4 = Hierarchy::class(
        "L4",
        vec![(1, leaf("L5a", &[(0, 1)])), (2, leaf("L5b", &[(1, 1)]))],
    );
    let l3 = Hierarchy::class("L3", vec![(1, l4)]);
    let l2 = Hierarchy::class("L2a", vec![(1, l3)]);
    let h = Hierarchy::class("L1", vec![(1, l2), (3, leaf("L2b", &[(2, 1), (3, 2)]))]);
    assert_eq!(h.depth(), 5);
    let (tree, mesh) = both(|| described(h.tree()), &hpfq_packets(400));
    assert_eq!(tree, mesh, "5-level hierarchy must match exactly");
}

/// Min-rate (Fig 8): the same packets, each flow in its own order. Root
/// ranks are 0 or 1, so cross-flow ties break differently in the
/// hardware flow scheduler.
#[test]
fn min_rate_tree_and_mesh_keep_flow_order() {
    let packets = hpfq_packets(300);
    let flows = [
        (FlowId(0), 80_000_000_000),
        (FlowId(1), 8_000_000_000),
        (FlowId(2), 800_000_000),
        (FlowId(3), 8),
    ];
    let (tree, mesh) = both(|| min_rate_tree(&flows, 3_000), &packets);
    assert_same_flow_orders(&tree, &mesh, &packets);
}

/// Shaped hierarchy: the tree with a fixed-delay shaper and the mesh
/// (dedicated shaping block, Fig 11) deliver the same packets with the
/// same visibility semantics.
#[test]
fn shaped_hierarchy_tree_equals_mesh() {
    let packets = hpfq_packets(60);
    let (tree, mesh) = both(|| fifo_hierarchy(Some(50)), &packets);
    assert_same_flow_orders(&tree, &mesh, &packets);
}

/// A packet of a flow no leaf lists is an error on both back-ends, and a
/// panic on neither.
#[test]
fn stray_packet_is_an_error_on_both_back_ends() {
    let stray = Packet::new(0, FlowId(55), 100, Nanos(0));
    let (tree, classifier) = described(fig3_hpfq());
    let mut tree = tree.build(classifier).expect("valid");
    assert_eq!(
        tree.enqueue(stray.clone(), Nanos(0)),
        Err(TreeError::UnknownNode(NodeId::INVALID))
    );
    let (tree, classifier) = described(fig3_hpfq());
    let mut mesh = compile(tree, classifier, BlockConfig::default(), 1).expect("fits");
    assert_eq!(
        mesh.enqueue_packet(stray),
        Err(HwError::UnknownNode(NodeId::INVALID))
    );
    assert_eq!(mesh.buffered(), 0);
}
