//! Property tests for the PIFO contract and the scheduling tree.
//!
//! The central property: every **exact** backend ([`SortedArrayPifo`]
//! reference, [`HeapPifo`], [`BucketPifo`]) is observationally equivalent
//! under any interleaving of pushes and pops — the faster engines are
//! "just" faster implementations of the same abstract PIFO. The
//! differential tests below drive all exact backends with identical op
//! streams and demand byte-identical traces, including FIFO tie-breaks
//! and capacity rejections.
//!
//! The approximate backends (`sp-pifo` / `rifo` / `aifo`) are exempt
//! from cross-backend trace identity by design — their properties
//! (conservation, capacity accounting, and the inversion-metrics
//! contract) are covered here by the `PifoBackend::ALL` sweeps and in
//! `tests/approx_props.rs`.

use pifo_core::pifo::{FlowScheduler, RankStore};
use pifo_core::prelude::*;
use proptest::prelude::*;

/// An abstract operation on a PIFO.
#[derive(Debug, Clone)]
enum Op {
    Push(u64, u32),
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (any::<u64>(), any::<u32>()).prop_map(|(r, v)| Op::Push(r, v)),
        2 => Just(Op::Pop),
    ]
}

/// Ranks confined to a narrow band: stresses FIFO tie-breaking and, for
/// the bucket backend, keeps everything inside one calendar window.
fn narrow_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u64..64, any::<u32>()).prop_map(|(r, v)| Op::Push(r, v)),
        2 => Just(Op::Pop),
    ]
}

/// Drive every exact backend with the same op stream and assert
/// identical observable behaviour at each step: admission, pops, peeks,
/// lengths, the `PifoFull` round-trip, and the ordered inspection view.
fn assert_backends_agree(cap: Option<usize>, ops: Vec<Op>) {
    let mut queues: Vec<(PifoBackend, EnumPifo<u32>)> = PifoBackend::EXACT
        .iter()
        .map(|&be| {
            let q = match cap {
                Some(c) => be.make_enum_bounded::<u32>(c),
                None => be.make_enum::<u32>(),
            };
            (be, q)
        })
        .collect();
    let (reference, rest) = queues.split_first_mut().expect("at least one backend");
    for op in ops {
        match op {
            Op::Push(r, v) => {
                let want = reference.1.try_push(Rank(r), v);
                for (be, q) in rest.iter_mut() {
                    let got = q.try_push(Rank(r), v);
                    // PifoFull is PartialEq over (rank, item, capacity):
                    // rejections must round-trip identically.
                    prop_assert_eq!(&got, &want, "admission diverges on {}", be);
                }
            }
            Op::Pop => {
                let want = reference.1.pop();
                for (be, q) in rest.iter_mut() {
                    prop_assert_eq!(q.pop(), want, "pop diverges on {}", be);
                }
            }
        }
        let want_len = reference.1.len();
        let want_peek = reference.1.peek().map(|(r, v)| (r, *v));
        for (be, q) in rest.iter_mut() {
            prop_assert_eq!(q.len(), want_len, "len diverges on {}", be);
            prop_assert_eq!(
                q.peek().map(|(r, v)| (r, *v)),
                want_peek,
                "peek diverges on {}",
                be
            );
        }
    }
    // The full inspection view agrees element-for-element…
    let want_view: Vec<(Rank, u32)> = reference.1.iter_in_order().map(|(r, v)| (r, *v)).collect();
    for (be, q) in rest.iter_mut() {
        let view: Vec<(Rank, u32)> = q.iter_in_order().map(|(r, v)| (r, *v)).collect();
        prop_assert_eq!(&view, &want_view, "iter_in_order diverges on {}", be);
    }
    // …and so does the drained tail (byte-identical dequeue trace).
    loop {
        let want = reference.1.pop();
        for (be, q) in rest.iter_mut() {
            prop_assert_eq!(q.pop(), want, "drain diverges on {}", be);
        }
        if want.is_none() {
            break;
        }
    }
}

proptest! {
    /// All backends agree on every observable step, unbounded, with ranks
    /// drawn from the full u64 range (stresses the bucket backend's
    /// rebase/overflow machinery).
    #[test]
    fn backends_agree_unbounded(ops in proptest::collection::vec(op_strategy(), 0..200)) {
        assert_backends_agree(None, ops);
    }

    /// All backends agree with ranks in a narrow band (stresses FIFO
    /// tie-breaking within one calendar bucket).
    #[test]
    fn backends_agree_narrow_ranks(ops in proptest::collection::vec(narrow_op_strategy(), 0..300)) {
        assert_backends_agree(None, ops);
    }

    /// All backends admit and reject identically against the same
    /// capacity, and the rejected `PifoFull` carries the same rank, item
    /// and capacity on every backend.
    #[test]
    fn backends_agree_bounded(
        cap in 1usize..16,
        ops in proptest::collection::vec(op_strategy(), 0..200),
    ) {
        assert_backends_agree(Some(cap), ops);
    }

    /// Popping everything yields non-decreasing ranks, with FIFO ties —
    /// on every exact backend (the approximate family relaxes exactly
    /// this invariant; `tests/approx_props.rs` measures by how much).
    #[test]
    fn drain_is_sorted_and_stable(entries in proptest::collection::vec((0u64..50, any::<u32>()), 0..300)) {
        for backend in PifoBackend::EXACT {
            let mut q = backend.make_enum::<(usize, u32)>();
            for (i, (r, v)) in entries.iter().enumerate() {
                q.push(Rank(*r), (i, *v));
            }
            let mut last: Option<(Rank, usize)> = None;
            while let Some((r, (i, _))) = q.pop() {
                if let Some((lr, li)) = last {
                    prop_assert!(r >= lr, "[{}] ranks must be non-decreasing", backend);
                    if r == lr {
                        prop_assert!(i > li, "[{}] equal ranks must pop FIFO", backend);
                    }
                }
                last = Some((r, i));
            }
        }
    }

    /// len() is pushes minus successful pops; capacity is never exceeded.
    #[test]
    fn capacity_is_respected(cap in 1usize..20, ops in proptest::collection::vec(op_strategy(), 0..100)) {
        let mut q: SortedArrayPifo<u32> = SortedArrayPifo::with_capacity(cap);
        let mut expected_len = 0usize;
        for op in ops {
            match op {
                Op::Push(r, v) => {
                    if expected_len < cap {
                        prop_assert!(q.try_push(Rank(r), v).is_ok());
                        expected_len += 1;
                    } else {
                        prop_assert!(q.try_push(Rank(r), v).is_err());
                    }
                }
                Op::Pop => {
                    let got = q.pop();
                    prop_assert_eq!(got.is_some(), expected_len > 0);
                    expected_len = expected_len.saturating_sub(1);
                }
            }
            prop_assert_eq!(q.len(), expected_len);
            prop_assert!(q.len() <= cap);
        }
    }
}

/// An operation on a flow-decomposed PIFO. A push's rank is fixed when
/// it runs, so that each flow's ranks stay non-decreasing: `step` above
/// the flow's tail while it has elements buffered, `fresh` (anywhere in
/// the band, below its earlier ranks included) once it has drained.
#[derive(Debug, Clone)]
enum FlowOp {
    Push { flow: u32, step: u64, fresh: u64 },
    Pop,
}

/// Small steps from a 16-wide band: cross-flow rank ties are common.
fn flow_op_strategy() -> impl Strategy<Value = FlowOp> {
    prop_oneof![
        4 => (any::<u32>(), 0u64..3, 0u64..16)
            .prop_map(|(flow, step, fresh)| FlowOp::Push { flow, step, fresh }),
        3 => Just(FlowOp::Pop),
    ]
}

proptest! {
    /// `FlowPifo` is exact by construction: fed per-flow monotone ranks,
    /// it pops, peeks and counts exactly like the sorted reference after
    /// every op, FIFO ties across flows included, while flows drain and
    /// return (reusing table slots and rank-store cells).
    #[test]
    fn flow_pifo_matches_sorted_reference(
        flows in 1u32..65,
        ops in proptest::collection::vec(flow_op_strategy(), 0..400),
    ) {
        let mut reference = SortedArrayPifo::new();
        let mut q = FlowPifo::new();
        // Per flow: (elements buffered, tail rank).
        let mut tails = vec![(0usize, 0u64); flows as usize];
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                FlowOp::Push { flow, step, fresh } => {
                    let f = flow % flows;
                    let (n, tail) = &mut tails[f as usize];
                    *tail = if *n == 0 { fresh } else { *tail + step };
                    *n += 1;
                    reference.push(Rank(*tail), (f, i));
                    q.push(FlowId(f), Rank(*tail), (f, i));
                }
                FlowOp::Pop => {
                    let want = reference.pop();
                    if let Some((_, (f, _))) = want {
                        tails[f as usize].0 -= 1;
                    }
                    prop_assert_eq!(q.pop(), want, "pop diverges after op {}", i);
                }
            }
            prop_assert_eq!(q.peek(), reference.peek(), "peek diverges after op {}", i);
            prop_assert_eq!(q.len(), reference.len(), "len diverges after op {}", i);
            let active = tails.iter().filter(|(n, _)| *n > 0).count();
            prop_assert_eq!(q.flows(), active, "table holds only active flows");
        }
        let view: Vec<_> = q.iter_in_order().collect();
        let want_view: Vec<_> = reference.iter().collect();
        prop_assert_eq!(view, want_view, "iter_in_order diverges");
        loop {
            let want = reference.pop();
            prop_assert_eq!(q.pop(), want, "drain diverges");
            if want.is_none() {
                break;
            }
        }
    }
}

proptest! {
    /// Flow schedulers sharing one `RankStore`, as a tree's flow-sorting
    /// nodes do, each behave exactly like a sorted reference of their
    /// own: after every op of a random interleaving across them, each
    /// pops, peeks and counts like its reference, and the store's live
    /// cells are the sum of their lengths. The store grows only to their
    /// joint peak, each scheduler's ordered view holds only its own
    /// elements, and once all drain the free list holds every cell the
    /// store ever allocated.
    #[test]
    fn shared_rank_store_matches_per_pifo_references(
        k in 1usize..9,
        flows in 1u32..17,
        ops in proptest::collection::vec((0usize..8, flow_op_strategy()), 0..400),
    ) {
        let mut store = RankStore::new();
        let mut scheds: Vec<FlowScheduler> = (0..k).map(|_| FlowScheduler::new()).collect();
        let mut refs: Vec<SortedArrayPifo<(u32, usize)>> =
            (0..k).map(|_| SortedArrayPifo::new()).collect();
        // Per scheduler, per flow: (elements buffered, tail rank).
        let mut tails = vec![vec![(0usize, 0u64); flows as usize]; k];
        let mut peak = 0;
        for (i, (which, op)) in ops.into_iter().enumerate() {
            let p = which % k;
            match op {
                FlowOp::Push { flow, step, fresh } => {
                    let f = flow % flows;
                    let (n, tail) = &mut tails[p][f as usize];
                    *tail = if *n == 0 { fresh } else { *tail + step };
                    *n += 1;
                    refs[p].push(Rank(*tail), (f, i));
                    scheds[p].push(&mut store, FlowId(f), Rank(*tail), (f, i));
                }
                FlowOp::Pop => {
                    let want = refs[p].pop();
                    if let Some((_, (f, _))) = want {
                        tails[p][f as usize].0 -= 1;
                    }
                    prop_assert_eq!(scheds[p].pop(&mut store), want, "pop diverges after op {}", i);
                }
            }
            for (j, (q, reference)) in scheds.iter().zip(&refs).enumerate() {
                prop_assert_eq!(q.peek(&store), reference.peek(), "{} peeks wrong after op {}", j, i);
                prop_assert_eq!(q.len(), reference.len(), "{} counts wrong after op {}", j, i);
                let active = tails[j].iter().filter(|(n, _)| *n > 0).count();
                prop_assert_eq!(q.flows(), active, "{}'s table holds only active flows", j);
            }
            let held: usize = scheds.iter().map(FlowScheduler::len).sum();
            prop_assert_eq!(store.live(), held, "live cells after op {}", i);
            peak = peak.max(held);
        }
        prop_assert_eq!(store.high_water(), peak, "the store grows to the joint peak only");
        for (q, reference) in scheds.iter_mut().zip(&mut refs) {
            let view: Vec<_> = q.iter_in_order(&store).collect();
            let want_view: Vec<_> = reference.iter().collect();
            prop_assert_eq!(view, want_view, "iter_in_order diverges");
            loop {
                let want = reference.pop();
                prop_assert_eq!(q.pop(&mut store), want, "drain diverges");
                if want.is_none() {
                    break;
                }
            }
        }
        prop_assert_eq!(store.free_cells(), store.high_water(), "every cell is free again");
    }
}

/// A flow whose rank falls breaks the precondition `FlowPifo`'s
/// exactness rests on; the push panics rather than mis-order.
#[test]
#[should_panic(expected = "behind rank")]
fn flow_pifo_rejects_within_flow_rank_regression() {
    let mut q = FlowPifo::new();
    q.push(FlowId(1), Rank(7), 0u32);
    q.push(FlowId(2), Rank(3), 1); // another flow may rank lower
    q.push(FlowId(1), Rank(6), 2);
}

// Tree-level properties: for a work-conserving tree (no shapers), the
// number of dequeued packets always equals the number enqueued, the tree
// drains completely, and per-node PIFO occupancies match subtree packet
// counts throughout.
proptest! {
    #[test]
    fn two_level_tree_conserves_packets(
        flows in proptest::collection::vec(0u32..4, 1..100),
    ) {
        use pifo_core::transaction::FnTransaction;

        let fifo = || -> Box<dyn SchedulingTransaction> {
            Box::new(FnTransaction::new("fifo", |ctx: &EnqCtx| Rank(ctx.packet.arrival.as_nanos())))
        };
        for backend in PifoBackend::ALL {
            let mut b = TreeBuilder::new();
            b.with_backend(backend);
            let root = b.add_root("root", fifo());
            let l = b.add_child(root, "L", fifo());
            let r = b.add_child(root, "R", fifo());
            let mut tree = b.build(Box::new(move |p: &Packet| {
                if p.flow.0 < 2 { l } else { r }
            })).unwrap();

            let n = flows.len();
            for (i, f) in flows.iter().enumerate() {
                let pkt = Packet::new(i as u64, FlowId(*f), 100, Nanos(i as u64));
                tree.enqueue(pkt, Nanos(i as u64)).unwrap();
                prop_assert_eq!(tree.sched_pifo_len(root), i + 1);
                prop_assert_eq!(
                    tree.sched_pifo_len(l) + tree.sched_pifo_len(r),
                    i + 1
                );
            }
            let mut got = 0;
            while tree.dequeue(Nanos(1_000_000)).is_some() {
                got += 1;
                prop_assert_eq!(tree.len(), n - got);
            }
            prop_assert_eq!(got, n, "tree must drain fully on {}", backend);
            prop_assert_eq!(tree.sched_pifo_len(root), 0);
            prop_assert_eq!(tree.sched_pifo_len(l), 0);
            prop_assert_eq!(tree.sched_pifo_len(r), 0);
        }
    }

    /// With a shaper that delays every element by a bounded amount, no
    /// packet is lost: everything eventually drains once time passes the
    /// last release, and nothing drains before its release time.
    #[test]
    fn shaped_tree_conserves_packets(
        delays in proptest::collection::vec(1u64..1000, 1..50),
    ) {
        use pifo_core::transaction::FnTransaction;

        struct PerPacketDelay { delays: Vec<u64>, i: usize }
        impl ShapingTransaction for PerPacketDelay {
            fn send_time(&mut self, ctx: &EnqCtx<'_>) -> Nanos {
                let d = self.delays[self.i % self.delays.len()];
                self.i += 1;
                Nanos(ctx.now.as_nanos() + d)
            }
        }

        let fifo = || -> Box<dyn SchedulingTransaction> {
            Box::new(FnTransaction::new("fifo", |ctx: &EnqCtx| Rank(ctx.packet.arrival.as_nanos())))
        };
        for backend in PifoBackend::ALL {
            let mut b = TreeBuilder::new();
            b.with_backend(backend);
            let root = b.add_root("root", fifo());
            let leaf = b.add_child(root, "leaf", fifo());
            let max_delay = *delays.iter().max().unwrap();
            let n = delays.len();
            b.set_shaper(leaf, Box::new(PerPacketDelay { delays: delays.clone(), i: 0 }));
            let mut tree = b.build(Box::new(move |_| leaf)).unwrap();

            // All packets arrive at t=0; every release is at t >= 1.
            for i in 0..n {
                tree.enqueue(
                    Packet::new(i as u64, FlowId(0), 100, Nanos(0)),
                    Nanos(0),
                ).unwrap();
            }
            // Nothing can drain before the earliest possible release (t >= 1).
            prop_assert!(tree.dequeue(Nanos(0)).is_none());

            // After the horizon, everything drains.
            let horizon = Nanos(max_delay + 1);
            let mut got = 0;
            while tree.dequeue(horizon).is_some() {
                got += 1;
            }
            prop_assert_eq!(got, n, "shaped tree must drain fully on {}", backend);
            prop_assert_eq!(tree.shaped_len(), 0);
        }
    }
}

// ---------------------------------------------------------------------------
// Shared-slab accounting and shaping-agenda order (the zero-copy hot path)
// ---------------------------------------------------------------------------

/// An abstract operation on a shaped tree, with time moving only forward.
#[derive(Debug, Clone)]
enum TreeOp {
    /// Enqueue to flow (0..4) with a random leaf rank (the `class` field),
    /// so later packets can overtake earlier ones *and their own parked
    /// shaping entries* — the case where a shaped ref becomes the sole
    /// owner of its buffer slot.
    Enq(u32, u8),
    Deq,
    /// Advance the clock and release whatever came due.
    Advance(u64),
}

fn tree_op_strategy() -> impl Strategy<Value = TreeOp> {
    prop_oneof![
        4 => (0u32..4, any::<u8>()).prop_map(|(f, c)| TreeOp::Enq(f, c)),
        3 => Just(TreeOp::Deq),
        2 => (1u64..300).prop_map(TreeOp::Advance),
    ]
}

proptest! {
    /// After every operation the shared slab accounts for exactly the
    /// buffered packets plus the parked shaping entries that outlived
    /// their packet; once the tree fully drains, every slot is back on
    /// the free list (no leaks), on every backend.
    #[test]
    fn slab_accounting_is_exact_and_leak_free(
        ops in proptest::collection::vec(tree_op_strategy(), 1..120),
        delays in proptest::collection::vec(0u64..200, 1..8),
    ) {
        use pifo_core::transaction::FnTransaction;

        struct CyclicDelay { delays: Vec<u64>, i: usize }
        impl ShapingTransaction for CyclicDelay {
            fn send_time(&mut self, ctx: &EnqCtx<'_>) -> Nanos {
                let d = self.delays[self.i % self.delays.len()];
                self.i += 1;
                Nanos(ctx.now.as_nanos() + d)
            }
        }

        let by_class = || -> Box<dyn SchedulingTransaction> {
            Box::new(FnTransaction::new("class", |ctx: &EnqCtx| Rank(ctx.packet.class as u64)))
        };
        let fifo = || -> Box<dyn SchedulingTransaction> {
            Box::new(FnTransaction::new("fifo", |ctx: &EnqCtx| Rank(ctx.now.as_nanos())))
        };
        for backend in PifoBackend::ALL {
            let mut b = TreeBuilder::new();
            b.with_backend(backend);
            let root = b.add_root("root", fifo());
            let l = b.add_child(root, "L", by_class());
            let r = b.add_child(root, "R", by_class());
            b.set_shaper(l, Box::new(CyclicDelay { delays: delays.clone(), i: 0 }));
            b.set_shaper(r, Box::new(CyclicDelay { delays: delays.clone(), i: 0 }));
            let mut tree = b.build(Box::new(move |p: &Packet| {
                if p.flow.0 < 2 { l } else { r }
            })).unwrap();

            let mut now = 0u64;
            let mut id = 0u64;
            for op in &ops {
                match op {
                    TreeOp::Enq(f, c) => {
                        let p = Packet::new(id, FlowId(*f), 100, Nanos(now)).with_class(*c);
                        id += 1;
                        tree.enqueue(p, Nanos(now)).unwrap();
                    }
                    TreeOp::Deq => { let _ = tree.dequeue(Nanos(now)); }
                    TreeOp::Advance(dt) => {
                        now += dt;
                        tree.release_due(Nanos(now));
                    }
                }
                prop_assert_eq!(
                    tree.pool_handle().pool().live(),
                    tree.len() + tree.shaped_refs_holding_packets(),
                    "slab accounting diverges on {} after {:?}", backend, op
                );
                prop_assert!(
                    tree.shaped_refs_holding_packets() <= tree.shaped_len(),
                    "sole-owner refs are a subset of parked refs on {}", backend
                );
            }
            // Drain fully, hopping across shaping gaps.
            loop {
                if tree.dequeue(Nanos(now)).is_some() { continue; }
                match tree.next_shaping_event() {
                    Some(t) => now = now.max(t.as_nanos()),
                    None => break,
                }
            }
            prop_assert_eq!(tree.len(), 0, "{} drains", backend);
            prop_assert_eq!(tree.shaped_len(), 0, "{} releases all", backend);
            prop_assert_eq!(tree.pool_handle().pool().live(), 0, "{} leaks slots", backend);
            prop_assert_eq!(tree.shaped_refs_holding_packets(), 0, "{}", backend);
            // Free list whole again: every slot reachable exactly once.
            tree.pool_handle().pool().assert_coherent();
        }
    }

    /// Differential trace: the shaping agenda releases parked walks in
    /// exactly the order the legacy per-node scan did — earliest release
    /// time first, ties broken by node index, then FIFO within a node.
    /// The oracle below *is* that scan, reimplemented over plain vectors.
    #[test]
    fn agenda_matches_legacy_scan_release_order(
        pkts in proptest::collection::vec((0usize..3, 0u64..40), 1..60),
    ) {
        use pifo_core::transaction::FnTransaction;
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        struct Scripted { times: Vec<u64>, i: usize }
        impl ShapingTransaction for Scripted {
            fn send_time(&mut self, _ctx: &EnqCtx<'_>) -> Nanos {
                let t = self.times[self.i];
                self.i += 1;
                Nanos(t)
            }
        }

        // Root rank = insertion counter, so the departure order *is* the
        // order references reached the root, i.e. the release order.
        // Leaf rank = arrival counter, so within a leaf packets pop FIFO.
        let counter_tx = |c: Arc<AtomicU64>| -> Box<dyn SchedulingTransaction> {
            Box::new(FnTransaction::new("count", move |_: &EnqCtx| {
                Rank(c.fetch_add(1, Ordering::Relaxed))
            }))
        };

        let mut b = TreeBuilder::new();
        let root = b.add_root("root", counter_tx(Arc::new(AtomicU64::new(0))));
        let leaf_count = Arc::new(AtomicU64::new(0));
        let leaves: Vec<NodeId> = (0..3)
            .map(|i| b.add_child(root, &format!("leaf{i}"), counter_tx(leaf_count.clone())))
            .collect();
        for (i, &leaf) in leaves.iter().enumerate() {
            let times: Vec<u64> = pkts.iter().filter(|(l, _)| *l == i).map(|(_, t)| *t).collect();
            b.set_shaper(leaf, Box::new(Scripted { times, i: 0 }));
        }
        let lv = leaves.clone();
        let mut tree = b.build(Box::new(move |p: &Packet| lv[p.flow.0 as usize])).unwrap();

        // Legacy-scan oracle state: per node, parked (release, seq) FIFO
        // kept sorted by (release, seq); plus per-leaf arrival queues.
        let mut parked: Vec<Vec<(u64, u64)>> = vec![Vec::new(); 3];
        let mut arrivals: Vec<Vec<u64>> = vec![Vec::new(); 3];
        let mut seq = 0u64;
        let mut expected = Vec::new();
        let scan = |parked: &mut Vec<Vec<(u64, u64)>>, now: u64, out: &mut Vec<usize>| {
            loop {
                let mut best: Option<(u64, usize)> = None;
                for (n, q) in parked.iter().enumerate() {
                    if let Some(&(t, _)) = q.first() {
                        if t <= now && best.map_or(true, |(bt, _)| t < bt) {
                            best = Some((t, n));
                        }
                    }
                }
                let Some((_, n)) = best else { break };
                parked[n].remove(0);
                out.push(n);
            }
        };

        // Drive both: packet i arrives at t=i with scripted release time.
        let mut release_order: Vec<usize> = Vec::new();
        for (i, (leaf, t_rel)) in pkts.iter().enumerate() {
            let now = i as u64;
            tree.enqueue(Packet::new(i as u64, FlowId(*leaf as u32), 100, Nanos(now)), Nanos(now)).unwrap();
            // Oracle mirrors enqueue: release what is due *first*, then park.
            scan(&mut parked, now, &mut release_order);
            let pos = parked[*leaf].partition_point(|&(t, s)| (t, s) <= (*t_rel, seq));
            parked[*leaf].insert(pos, (*t_rel, seq));
            seq += 1;
            arrivals[*leaf].push(i as u64);
        }
        let horizon = 1_000_000u64;
        scan(&mut parked, horizon, &mut release_order);
        for n in &release_order {
            expected.push(arrivals[*n].remove(0));
        }

        let mut got = Vec::new();
        while let Some(p) = tree.dequeue(Nanos(horizon)) {
            got.push(p.id.0);
        }
        prop_assert_eq!(got, expected, "agenda order diverges from the legacy scan");
        prop_assert_eq!(tree.shaped_len(), 0);
    }
}

// ---------------------------------------------------------------------------
// Shared-pool accounting across ports (§5.1/§6.1 memory system)
// ---------------------------------------------------------------------------

proptest! {
    /// Pool accounting is exact across a multi-tree fabric: after every
    /// operation on any port, `pool.live == Σ per-port (len +
    /// shaped_refs_holding_packets)` — and the pool's per-port occupancy
    /// counters agree with each tree individually, under arbitrary
    /// interleavings of enqueues (some rejected by the shared admission),
    /// dequeues and clock advances, with a shaped port parking dangling
    /// refs. Once everything drains, the pool is empty and coherent.
    #[test]
    fn shared_pool_accounting_is_exact_across_ports(
        ops in proptest::collection::vec((0usize..3, tree_op_strategy()), 1..150),
        delays in proptest::collection::vec(0u64..200, 1..8),
        capacity in 4usize..40,
        dynamic in any::<bool>(),
    ) {
        use pifo_core::pool::{AdmissionPolicy, SharedPacketPool};
        use pifo_core::transaction::FnTransaction;

        struct CyclicDelay { delays: Vec<u64>, i: usize }
        impl ShapingTransaction for CyclicDelay {
            fn send_time(&mut self, ctx: &EnqCtx<'_>) -> Nanos {
                let d = self.delays[self.i % self.delays.len()];
                self.i += 1;
                Nanos(ctx.now.as_nanos() + d)
            }
        }
        let by_class = || -> Box<dyn SchedulingTransaction> {
            Box::new(FnTransaction::new("class", |ctx: &EnqCtx| Rank(ctx.packet.class as u64)))
        };
        let fifo = || -> Box<dyn SchedulingTransaction> {
            Box::new(FnTransaction::new("fifo", |ctx: &EnqCtx| Rank(ctx.now.as_nanos())))
        };

        let policy = if dynamic {
            AdmissionPolicy::DynamicThreshold { num: 1, den: 1 }
        } else {
            AdmissionPolicy::Unlimited
        };
        let pool = SharedPacketPool::new(capacity, policy).unwrap().into_shared();

        // Port 0: flat FIFO. Port 1: two work-conserving leaves.
        // Port 2: two *shaped* leaves (parks dangling refs).
        let mut trees: Vec<ScheduleTree> = Vec::new();
        {
            let mut b = TreeBuilder::new();
            let root = b.add_root("p0", fifo());
            trees.push(b.build_in_pool(Box::new(move |_| root), pool.register_port()).unwrap());
        }
        for shaped in [false, true] {
            let mut b = TreeBuilder::new();
            let root = b.add_root("root", fifo());
            let l = b.add_child(root, "L", by_class());
            let r = b.add_child(root, "R", by_class());
            if shaped {
                b.set_shaper(l, Box::new(CyclicDelay { delays: delays.clone(), i: 0 }));
                b.set_shaper(r, Box::new(CyclicDelay { delays: delays.clone(), i: 0 }));
            }
            trees.push(
                b.build_in_pool(
                    Box::new(move |p: &Packet| if p.flow.0 < 2 { l } else { r }),
                    pool.register_port(),
                )
                .unwrap(),
            );
        }

        let mut now = 0u64;
        let mut id = 0u64;
        let mut offered = [0u64; 3];
        for (port, op) in &ops {
            let t = &mut trees[*port];
            match op {
                TreeOp::Enq(f, c) => {
                    let p = Packet::new(id, FlowId(*f), 100, Nanos(now)).with_class(*c);
                    id += 1;
                    offered[*port] += 1;
                    match t.enqueue(p, Nanos(now)) {
                        Ok(()) => {}
                        Err(TreeError::BufferFull(_)) => {} // shared admission said no
                        Err(other) => prop_assert!(false, "unexpected error {other:?}"),
                    }
                }
                TreeOp::Deq => { let _ = t.dequeue(Nanos(now)); }
                TreeOp::Advance(dt) => {
                    now += dt;
                    t.release_due(Nanos(now));
                }
            }
            // The tentpole invariant, after *every* op.
            let sum: usize = trees
                .iter()
                .map(|t| t.len() + t.shaped_refs_holding_packets())
                .sum();
            prop_assert_eq!(pool.pool().live(), sum, "pool.live diverged after {:?}", op);
            for (i, t) in trees.iter().enumerate() {
                prop_assert_eq!(
                    pool.pool().port_occupancy(i),
                    t.len() + t.shaped_refs_holding_packets(),
                    "port {} occupancy counter diverged", i
                );
            }
            prop_assert!(pool.pool().live() <= capacity, "capacity breached");
        }

        // Drain every port, hopping across shaping gaps.
        loop {
            let mut progressed = false;
            for t in trees.iter_mut() {
                while t.dequeue(Nanos(now)).is_some() {
                    progressed = true;
                }
            }
            let horizon = trees.iter().filter_map(|t| t.next_shaping_event()).min();
            match horizon {
                Some(h) => now = now.max(h.as_nanos()),
                None => if !progressed { break },
            }
            if trees.iter().all(|t| t.is_empty() && t.shaped_len() == 0) {
                break;
            }
        }
        let pool = pool.pool();
        prop_assert_eq!(pool.live(), 0, "drained fabric leaks pool slots");
        pool.assert_coherent();
        // Conservation per port: offered == admitted + rejected, and
        // everything admitted departed.
        let stats = pool.stats();
        for (i, port) in stats.ports.iter().enumerate() {
            prop_assert_eq!(
                port.admitted + port.rejected,
                offered[i],
                "port {} offered-packet conservation", i
            );
            prop_assert_eq!(port.occupancy, 0);
        }
    }
}
