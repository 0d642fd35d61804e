//! The PIFO tree against §2.2's definition, written out again.
//!
//! `fabric_fuzz` runs the same tree walk on both sides of every
//! comparison, and `tree_vs_mesh` checks a few fixed trees against the
//! compiled mesh, so neither sees a bug in the walk itself. Here every
//! case draws a random tree and drives it in lockstep with a
//! deliberately naive model that shares no code with `core::tree`,
//! `core::pifo` or `core::pool`:
//!
//! * each node keeps a `Vec` sorted by `(rank, push order)`;
//! * enqueue walks leaf to root, pushing the packet at the leaf and a
//!   reference to the child at each ancestor, and parks at a node's
//!   shaper in a plain list (§2.3);
//! * a release picks the least `(release time, node, park order)` by
//!   scanning that list and resumes the walk at the parked node's parent;
//! * dequeue walks root to leaf, popping one element per level and
//!   handing each node's transaction the popped rank (`on_dequeue`);
//! * buffer occupancy counts each buffered packet and each parked walk
//!   whose packet already left: the walk still holds the packet's fields
//!   for the ancestors' transactions.
//!
//! A case is a tree of 1–5 levels with fanout 1–4, with FIFO, STFQ,
//! strict-priority and SRPT nodes, a token bucket on some non-root
//! nodes, a random buffer limit and a classifier that may name an
//! interior or unknown node; then random enqueues and dequeues at
//! non-decreasing instants, and a drain. Each side gets its own
//! transactions from one description. After every operation every exact
//! engine must match the model: the packet or `None`, the refusal, `len`,
//! `shaped_len`, `next_shaping_event` and the slots held.
//!
//! A failing case prints its index: the cases are seeded by index, so
//! `cargo test --test tree_reference` (with the same `PROPTEST_CASES`)
//! replays it.

use pifo::prelude::*;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// A uniform draw from `lo..=hi`.
fn pick(rng: &mut TestRng, lo: u64, hi: u64) -> u64 {
    lo + rng.below(hi - lo + 1)
}

#[derive(Debug, Clone, Copy)]
enum Sched {
    Fifo,
    Stfq,
    Prio,
    Srpt,
}

#[derive(Debug, Clone)]
struct NodeSpec {
    parent: Option<usize>,
    sched: Sched,
    /// A token bucket's `(rate_bps, burst_bytes)`.
    tbf: Option<(u64, u64)>,
    /// A leaf that maps packets to flows by [`halved`].
    halve_flows: bool,
}

#[derive(Debug, Clone)]
enum Op {
    Enqueue(Packet),
    Dequeue,
}

#[derive(Debug, Clone)]
struct Case {
    /// Root first; every parent precedes its children.
    nodes: Vec<NodeSpec>,
    /// A packet goes to `targets[flow % len]`: every leaf, and maybe an
    /// interior node or `NodeId::INVALID`.
    targets: Vec<NodeId>,
    limit: Option<usize>,
    /// Each operation and its instant, non-decreasing.
    ops: Vec<(u64, Op)>,
}

/// The flow function of a leaf with `halve_flows` set.
fn halved(p: &Packet) -> FlowId {
    FlowId(p.flow.0 / 2)
}

/// The one description both sides build from: fresh transactions for
/// node `spec`.
fn transactions(
    spec: &NodeSpec,
) -> (
    Box<dyn SchedulingTransaction>,
    Option<Box<dyn ShapingTransaction>>,
) {
    let sched: Box<dyn SchedulingTransaction> = match spec.sched {
        Sched::Fifo => Box::new(Fifo),
        Sched::Stfq => Box::new(Stfq::unweighted()),
        Sched::Prio => Box::new(StrictPriority),
        Sched::Srpt => Box::new(Srpt),
    };
    let shaper = spec.tbf.map(|(bps, burst)| {
        Box::new(TokenBucketFilter::new(bps, burst)) as Box<dyn ShapingTransaction>
    });
    (sched, shaper)
}

struct Cases;

impl Strategy for Cases {
    type Value = Case;

    fn generate(&self, rng: &mut TestRng) -> Case {
        let levels = pick(rng, 1, 5);
        let fanout = pick(rng, 1, 4);
        let mut nodes = vec![(0, None)];
        let mut level = vec![0];
        for depth in 1..levels {
            let mut next = Vec::new();
            for (k, &parent) in level.iter().enumerate() {
                // The first node of each level has a child, so the tree
                // has all its levels; the others may be leaves.
                let kids = pick(rng, (k == 0) as u64, fanout);
                for _ in 0..kids.min(48 - nodes.len() as u64) {
                    next.push(nodes.len());
                    nodes.push((depth, Some(parent)));
                }
            }
            level = next;
        }
        let is_parent = |i: usize| nodes.iter().any(|&(_, p)| p == Some(i));
        let nodes: Vec<NodeSpec> = (0..nodes.len())
            .map(|i| NodeSpec {
                parent: nodes[i].1,
                sched: [Sched::Fifo, Sched::Stfq, Sched::Prio, Sched::Srpt][rng.below(4) as usize],
                tbf: (i > 0 && rng.below(3) == 0)
                    .then(|| (pick(rng, 1, 10) * 1_000_000_000, pick(rng, 64, 4_000))),
                halve_flows: !is_parent(i) && rng.below(3) == 0,
            })
            .collect();
        let mut targets: Vec<NodeId> = (0..nodes.len())
            .filter(|&i| !is_parent(i))
            .map(NodeId::from_index)
            .collect();
        if nodes.len() > 1 && rng.below(4) == 0 {
            targets.push(NodeId::from_index(0));
        }
        if rng.below(4) == 0 {
            targets.push(NodeId::INVALID);
        }
        let limit = (rng.below(2) == 0).then(|| pick(rng, 1, 48) as usize);
        let enqueue_share = pick(rng, 40, 80);
        let mut now = 0;
        let ops = (0..pick(rng, 10, 160))
            .map(|id| {
                if rng.below(3) > 0 {
                    now += pick(rng, 1, 3_000);
                }
                let op = if rng.below(100) < enqueue_share {
                    let flow = FlowId(rng.below(8) as u32);
                    let len = pick(rng, 64, 1_500) as u32;
                    let p = Packet::new(id, flow, len, Nanos(now))
                        .with_class(rng.below(4) as u8)
                        .with_remaining(rng.below(10_000));
                    Op::Enqueue(p)
                } else {
                    Op::Dequeue
                };
                (now, op)
            })
            .collect();
        Case {
            nodes,
            targets,
            limit,
            ops,
        }
    }
}

impl Case {
    fn target(&self, p: &Packet) -> NodeId {
        self.targets[p.flow.0 as usize % self.targets.len()]
    }

    fn tree(&self, engine: PifoBackend) -> ScheduleTree {
        let mut b = TreeBuilder::new();
        b.with_backend(engine);
        for (i, spec) in self.nodes.iter().enumerate() {
            let (sched, shaper) = transactions(spec);
            let name = format!("n{i}");
            let id = match spec.parent {
                None => b.add_root(&name, sched),
                Some(p) => b.add_child(NodeId::from_index(p), &name, sched),
            };
            if let Some(shaper) = shaper {
                b.set_shaper(id, shaper);
            }
            if spec.halve_flows {
                b.set_flow_fn(id, Box::new(halved));
            }
        }
        if let Some(limit) = self.limit {
            b.buffer_limit(limit);
        }
        let targets = self.targets.clone();
        b.build(Box::new(move |p| {
            targets[p.flow.0 as usize % targets.len()]
        }))
        .expect("generated trees are well-formed")
    }
}

/// Why an enqueue was refused.
#[derive(Debug, PartialEq, Eq)]
enum Refused {
    UnknownNode(NodeId),
    NotALeaf(NodeId),
    BufferFull(PacketId),
}

fn refused(e: TreeError) -> Refused {
    match e {
        TreeError::UnknownNode(n) => Refused::UnknownNode(n),
        TreeError::NotALeaf(n) => Refused::NotALeaf(n),
        TreeError::BufferFull(p) => Refused::BufferFull(p.id),
        other => panic!("enqueue returned {other:?}"),
    }
}

#[derive(Debug, Clone, Copy)]
enum Elem {
    /// An index into `Model::packets`.
    Packet(usize),
    /// A child node.
    Ref(usize),
}

struct ModelNode {
    parent: Option<usize>,
    is_leaf: bool,
    halve_flows: bool,
    sched: Box<dyn SchedulingTransaction>,
    shaper: Option<Box<dyn ShapingTransaction>>,
    /// Sorted by rank; equal ranks in push order.
    queue: Vec<(Rank, Elem)>,
}

/// A walk parked at `node`'s shaper until `release`.
struct Parked {
    release: u64,
    node: usize,
    seq: u64,
    packet: usize,
}

struct Model {
    nodes: Vec<ModelNode>,
    limit: Option<usize>,
    /// Every admitted packet, and whether it left.
    packets: Vec<(Packet, bool)>,
    buffered: usize,
    parked: Vec<Parked>,
    parks: u64,
}

impl Model {
    fn new(case: &Case) -> Model {
        let nodes = case
            .nodes
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let (sched, shaper) = transactions(spec);
                ModelNode {
                    parent: spec.parent,
                    is_leaf: !case.nodes.iter().any(|n| n.parent == Some(i)),
                    halve_flows: spec.halve_flows,
                    sched,
                    shaper,
                    queue: Vec::new(),
                }
            })
            .collect();
        Model {
            nodes,
            limit: case.limit,
            packets: Vec::new(),
            buffered: 0,
            parked: Vec::new(),
            parks: 0,
        }
    }

    /// The flow `elem` belongs to at `node`: the packet's (through the
    /// leaf's flow function) at a leaf, the child at an interior node.
    fn flow(&self, node: usize, elem: Elem) -> FlowId {
        match elem {
            Elem::Packet(i) if self.nodes[node].halve_flows => halved(&self.packets[i].0),
            Elem::Packet(i) => self.packets[i].0.flow,
            Elem::Ref(child) => FlowId(child as u32),
        }
    }

    /// Slots held: buffered packets, and parked walks whose packet left.
    fn occupancy(&self) -> usize {
        let gone = self.parked.iter().filter(|e| self.packets[e.packet].1);
        self.buffered + gone.count()
    }

    fn next_release(&self) -> Option<u64> {
        self.parked.iter().map(|e| e.release).min()
    }

    fn enqueue(&mut self, packet: Packet, now: u64, target: NodeId) -> Result<(), Refused> {
        self.release(now);
        match self.nodes.get(target.index()) {
            None => return Err(Refused::UnknownNode(target)),
            Some(n) if !n.is_leaf => return Err(Refused::NotALeaf(target)),
            Some(_) => {}
        }
        if self.limit.is_some_and(|limit| self.occupancy() >= limit) {
            return Err(Refused::BufferFull(packet.id));
        }
        self.packets.push((packet, false));
        self.buffered += 1;
        let i = self.packets.len() - 1;
        self.walk(target.index(), Elem::Packet(i), i, now);
        Ok(())
    }

    /// Push `elem` at `node` and climb, pushing a reference to each
    /// child, until the root or a shaper.
    fn walk(&mut self, mut node: usize, mut elem: Elem, packet: usize, now: u64) {
        loop {
            let ctx = EnqCtx {
                packet: &self.packets[packet].0,
                now: Nanos(now),
                flow: self.flow(node, elem),
            };
            // A shaper sees the packet's flow, at every level.
            let packet_flow = self.flow(node, Elem::Packet(packet));
            let n = &mut self.nodes[node];
            let rank = n.sched.rank(&ctx);
            let at = n.queue.partition_point(|&(r, _)| r <= rank);
            n.queue.insert(at, (rank, elem));
            if let Some(shaper) = &mut n.shaper {
                let ctx = EnqCtx {
                    flow: packet_flow,
                    ..ctx
                };
                let release = shaper.send_time(&ctx).as_nanos();
                let seq = self.parks;
                self.parks += 1;
                self.parked.push(Parked {
                    release,
                    node,
                    seq,
                    packet,
                });
                return;
            }
            match n.parent {
                Some(parent) => (node, elem) = (parent, Elem::Ref(node)),
                None => return,
            }
        }
    }

    /// Resume every walk parked until `now` or earlier, least
    /// `(release, node, seq)` first; a resumed walk may park again.
    fn release(&mut self, now: u64) {
        while let Some(i) = (0..self.parked.len())
            .filter(|&i| self.parked[i].release <= now)
            .min_by_key(|&i| {
                let e = &self.parked[i];
                (e.release, e.node, e.seq)
            })
        {
            let e = self.parked.swap_remove(i);
            let parent = self.nodes[e.node].parent.expect("the root has no shaper");
            self.walk(parent, Elem::Ref(e.node), e.packet, now);
        }
    }

    fn dequeue(&mut self, now: u64) -> Option<Packet> {
        self.release(now);
        let mut node = 0;
        loop {
            if self.nodes[node].queue.is_empty() {
                assert_eq!(node, 0, "a reference to an empty child");
                return None;
            }
            let (rank, elem) = self.nodes[node].queue.remove(0);
            let flow = self.flow(node, elem);
            let ctx = DeqCtx {
                now: Nanos(now),
                flow,
            };
            self.nodes[node].sched.on_dequeue(rank, &ctx);
            match elem {
                Elem::Packet(i) => {
                    self.buffered -= 1;
                    self.packets[i].1 = true;
                    return Some(self.packets[i].0.clone());
                }
                Elem::Ref(child) => node = child,
            }
        }
    }
}

/// The tree shows what the model holds.
fn assert_same_state(label: &str, tree: &ScheduleTree, model: &Model) {
    assert_eq!(tree.len(), model.buffered, "{label}: len");
    assert_eq!(tree.shaped_len(), model.parked.len(), "{label}: shaped_len");
    assert_eq!(
        tree.next_shaping_event(),
        model.next_release().map(Nanos),
        "{label}: next_shaping_event"
    );
    assert_eq!(
        tree.len() + tree.shaped_refs_holding_packets(),
        model.occupancy(),
        "{label}: slots held"
    );
}

fn check(case: &Case) {
    for engine in PifoBackend::EXACT {
        let mut tree = case.tree(engine);
        let mut model = Model::new(case);
        for (step, (now, op)) in case.ops.iter().enumerate() {
            let label = format!("[{engine}] step {step} at {now} ns");
            match op {
                Op::Enqueue(p) => {
                    let got = tree.enqueue(p.clone(), Nanos(*now)).map_err(refused);
                    let want = model.enqueue(p.clone(), *now, case.target(p));
                    assert_eq!(got, want, "{label}: enqueue of packet {}", p.id.0);
                }
                Op::Dequeue => {
                    let got = tree.dequeue(Nanos(*now));
                    assert_eq!(got, model.dequeue(*now), "{label}: dequeue");
                }
            }
            assert_same_state(&label, &tree, &model);
        }
        // Drain, waiting for each shaper release the model names, until
        // the model (and so the tree) holds nothing.
        let mut now = case.ops.last().map_or(0, |&(t, _)| t);
        loop {
            let label = format!("[{engine}] drain at {now} ns");
            let want = model.dequeue(now);
            assert_eq!(tree.dequeue(Nanos(now)), want, "{label}: dequeue");
            assert_same_state(&label, &tree, &model);
            if want.is_none() {
                match model.next_release() {
                    Some(t) => now = t,
                    None => break,
                }
            }
        }
    }
}

proptest! {
    /// Every exact engine runs every random tree as §2.2's definition.
    #[test]
    fn every_engine_walks_the_tree_as_the_reference(case in Cases) {
        check(&case);
    }
}
