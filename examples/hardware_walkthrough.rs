//! Drive the hardware model by hand: one PIFO block cycle by cycle, then
//! a compiled two-level mesh — the §4–§5 design made tangible.
//!
//! ```sh
//! cargo run --example hardware_walkthrough
//! ```

use pifo::compiler::{compile, layout};
use pifo::hw::{BlockConfig, LogicalPifoId, PifoBlock};
use pifo::prelude::*;

fn main() {
    // --- A single PIFO block (Fig 12) -------------------------------
    println!("== one PIFO block: flow scheduler + rank store ==");
    let mut blk = PifoBlock::new(BlockConfig::tiny()).strict_monotonic(true);
    let q = LogicalPifoId(0);

    // Two flows with increasing ranks; only heads occupy the sorted array.
    for (flow, rank, meta) in [
        (1u32, 10u64, 0u64),
        (1, 25, 1),
        (1, 40, 2),
        (2, 15, 3),
        (2, 30, 4),
    ] {
        blk.enqueue(q, FlowId(flow), Rank(rank), meta)
            .expect("enqueue");
        println!(
            "  enqueue f{flow} rank {rank}: scheduler holds {} heads, rank store {} elements",
            blk.active_flows(),
            blk.stored_elements()
        );
    }
    print!("  dequeue order:");
    while let Some((rank, flow, _)) = blk.dequeue(q) {
        print!(" {}@{}", flow, rank);
    }
    println!("\n  (flows interleave by rank; each flow stays FIFO)\n");

    // --- PFC pause (Sec 6.2) ----------------------------------------
    println!("== PFC: pausing flow 1 masks it in the scheduler ==");
    blk.enqueue(q, FlowId(1), Rank(5), 0).expect("enqueue");
    blk.enqueue(q, FlowId(2), Rank(9), 1).expect("enqueue");
    blk.pause_flow(FlowId(1));
    println!(
        "  paused f1; head is now {:?}",
        blk.peek(q).map(|(r, f, _)| (f, r))
    );
    blk.resume_flow(FlowId(1));
    println!(
        "  resumed;  head is back {:?}\n",
        blk.peek(q).map(|(r, f, _)| (f, r))
    );
    while blk.dequeue(q).is_some() {}

    // --- A compiled mesh (Figs 9-11) ---------------------------------
    println!("== compiling HPFQ onto a mesh (Fig 10b) ==");
    // One description: the same `TreeBuilder` would `build()` a software
    // tree; here it is laid out and compiled onto PIFO blocks.
    let mut tree = TreeBuilder::new();
    let root = tree.add_root("WFQ_Root", Box::new(Stfq::unweighted()));
    let left = tree.add_child(root, "WFQ_Left", Box::new(Stfq::unweighted()));
    let right = tree.add_child(root, "WFQ_Right", Box::new(Stfq::unweighted()));
    print!("{}", layout(&tree).expect("fits").render());
    let classifier = Box::new(move |p: &Packet| if p.flow.0 % 2 == 0 { left } else { right });
    let mut mesh = compile(tree, classifier, BlockConfig::default(), 1).expect("fits");

    println!("\n== running 8 packets through the mesh, cycle by cycle ==");
    for i in 0..8u64 {
        mesh.enqueue_packet(Packet::new(i, FlowId((i % 4) as u32), 64, mesh.now()))
            .expect("ports free");
        mesh.tick();
    }
    print!("  transmit order:");
    let mut got = 0;
    while got < 8 {
        // Same-lpifo dequeues need 3-cycle spacing (§5.2).
        mesh.tick();
        mesh.tick();
        mesh.tick();
        if let Ok(Some(p)) = mesh.transmit() {
            print!(" p{}", p.id.0);
            got += 1;
        }
    }
    println!("\n  mesh stats: {:?}", mesh.stats());
}
