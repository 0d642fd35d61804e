//! Workspace smoke test: the umbrella crate's public API, end to end.
//!
//! Builds a two-level HPFQ hierarchy through `pifo::prelude`, pushes a
//! mixed four-flow trace through it, and checks the two invariants every
//! PIFO scheduler owes its callers: **work conservation** (a backlogged
//! tree always serves, and serves everything) and **FIFO within each
//! flow** (per-flow packet order survives scheduling). A second test
//! sweeps the umbrella re-exports across all seven sub-crates so a
//! broken `pub use` fails here rather than in downstream code.

use pifo::prelude::*;
use std::collections::HashMap;

#[test]
fn hpfq_two_level_work_conservation_and_flow_fifo() {
    // Two-level hierarchy: root splits 3:1 between Left and Right;
    // each leaf class runs WFQ over two flows.
    let h = Hierarchy::class(
        "root",
        vec![
            (
                3,
                Hierarchy::leaf("left", vec![(FlowId(0), 2), (FlowId(1), 1)]),
            ),
            (
                1,
                Hierarchy::leaf("right", vec![(FlowId(2), 1), (FlowId(3), 1)]),
            ),
        ],
    );
    let (b, classifier, leaf_of) = h.tree();
    let mut tree = b.build(classifier).expect("valid tree");
    assert_eq!(leaf_of.len(), 4, "all four flows mapped to leaves");

    // Mixed trace: four flows interleaved, varying sizes, strictly
    // increasing arrival times so per-flow enqueue order is unambiguous.
    let mut enqueued_per_flow: HashMap<u32, Vec<u64>> = HashMap::new();
    let mut id = 0u64;
    let mut now = 0u64;
    for round in 0..50u64 {
        for flow in 0..4u32 {
            // Uneven mix: flow 0 sends every round, flow 1 every other
            // round, flows 2-3 in bursts of two every third round.
            let sends = match flow {
                0 => 1,
                1 => usize::from(round % 2 == 0),
                _ => {
                    if round % 3 == 0 {
                        2
                    } else {
                        0
                    }
                }
            };
            for _ in 0..sends {
                now += 100;
                let len = 64 + ((id * 37) % 1400) as u32;
                tree.enqueue(Packet::new(id, FlowId(flow), len, Nanos(now)), Nanos(now))
                    .expect("enqueue admitted");
                enqueued_per_flow.entry(flow).or_default().push(id);
                id += 1;
            }
        }
    }
    let total = id as usize;
    assert_eq!(tree.len(), total, "everything buffered before service");

    // Work conservation: with no shapers in the tree, a backlogged
    // scheduler must emit a packet on every service opportunity, and
    // must eventually emit exactly what was enqueued.
    let mut departures_per_flow: HashMap<u32, Vec<u64>> = HashMap::new();
    let horizon = Nanos(now + 1);
    for served in 0..total {
        let p = tree
            .dequeue(horizon)
            .unwrap_or_else(|| panic!("backlogged tree failed to serve at step {served}"));
        departures_per_flow
            .entry(p.flow.0)
            .or_default()
            .push(p.id.0);
    }
    assert!(tree.dequeue(horizon).is_none(), "tree fully drained");
    assert_eq!(tree.len(), 0);

    // FIFO within flow: each flow's departure order equals its enqueue
    // order (scheduling may interleave flows, never reorder one).
    for (flow, sent) in &enqueued_per_flow {
        assert_eq!(
            departures_per_flow.get(flow),
            Some(sent),
            "flow {flow} departures must preserve enqueue order"
        );
    }
}

#[test]
fn umbrella_reexports_cover_every_subcrate() {
    // pifo::core / pifo::algos — Fig 3's HPFQ instance runs, zero-copy
    // through the shared packet-buffer slab.
    let (b, classifier, _) = pifo::algos::fig3_hpfq();
    let mut tree = b.build(classifier).expect("valid tree");
    tree.enqueue(Packet::new(0, FlowId(0), 100, Nanos(0)), Nanos(0))
        .expect("fig3 tree accepts flow 0");
    assert_eq!(
        tree.pool_handle().pool().live(),
        1,
        "packet lives once, in the slab"
    );
    assert_eq!(tree.peek_at(Nanos(1)).expect("previews head").id.0, 0);
    assert_eq!(tree.dequeue(Nanos(1)).expect("serves it").id.0, 0);
    assert_eq!(
        tree.pool_handle().pool().live(),
        0,
        "dequeue moved it out of its slot"
    );
    assert_eq!(
        tree.shaping_inspections(),
        0,
        "work-conserving trees never touch the shaping agenda"
    );

    // pifo::core — the statically dispatched engine sum re-exports too.
    let mut q: EnumPifo<u32> = PifoBackend::Bucket.make_enum();
    q.push(Rank(3), 30);
    q.push(Rank(1), 10);
    assert_eq!(q.backend(), PifoBackend::Bucket);
    assert_eq!(q.pop(), Some((Rank(1), 10)));

    // pifo::domino — parse + analyze the paper's STFQ program.
    let prog = pifo::domino::parser::parse(pifo::domino::figures::STFQ_SRC).expect("STFQ parses");
    let report = pifo::domino::pipeline::analyze(&prog).expect("STFQ compiles to atoms");
    assert_eq!(report.required_atom, pifo::domino::ast::AtomKind::Pairs);

    // pifo::hw — a PIFO block round-trips one element.
    let mut block = pifo::hw::PifoBlock::new(pifo::hw::BlockConfig::default());
    block
        .enqueue(pifo::hw::LogicalPifoId(0), FlowId(1), Rank(5), 42)
        .expect("block enqueue");
    let (rank, flow, meta) = block
        .dequeue(pifo::hw::LogicalPifoId(0))
        .expect("block dequeue");
    assert_eq!((rank, flow, meta), (Rank(5), FlowId(1), 42));

    // pifo::compiler — lay a tiny two-level tree out on a mesh.
    let mut b = TreeBuilder::new();
    let root = b.add_root("root", Box::new(Fifo));
    b.add_child(root, "leaf", Box::new(Fifo));
    let layout = pifo::compiler::layout(&b).expect("two-node tree compiles");
    assert!(layout.n_blocks >= 1, "layout allocates at least one block");

    // pifo::synth — Table 1 renders non-empty.
    let table1 = pifo::synth::render_table1(&pifo::hw::BlockConfig::default());
    assert!(table1.contains("mm"), "area table mentions mm^2: {table1}");

    // pifo::sim — deterministic CBR source feeds the metrics pipeline.
    let src = pifo::sim::CbrSource::new(FlowId(0), 1000, 1_000_000_000, Nanos(0), Nanos(10_000));
    let packets = pifo::sim::merge(vec![Box::new(src)]);
    assert!(!packets.is_empty(), "CBR source produced packets");
}
