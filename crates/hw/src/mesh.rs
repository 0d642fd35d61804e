//! The PIFO mesh (§4.2–§4.3, Fig 9): a small set of PIFO blocks, fully
//! interconnected, executing a compiled scheduling tree.
//!
//! Each tree node's scheduling PIFO lives as a logical PIFO in some block;
//! nodes with shaping transactions additionally own a *shaping PIFO*
//! (possibly in another block, cf. Fig 11's dedicated `TBF_Right` block).
//! After every dequeue, a next-hop decision — transmit, dequeue a child
//! PIFO in another block, or enqueue a released reference into the parent
//! — is taken from the element's metadata, modelling the per-block lookup
//! tables of Fig 9.
//!
//! # Cycle discipline (§4.3)
//!
//! Every block offers one enqueue and one dequeue port per cycle.
//! Scheduling operations (packet enqueues, transmissions) claim ports
//! first; shaping releases are **best-effort**, served from leftover ports
//! at the end of each cycle, and *deferred* — never dropped — on conflict.
//! Over-clocking (§4.3's 1.25 GHz workaround) grants periodic bonus
//! credits usable only by best-effort work.

use crate::block::PifoBlock;
use crate::config::{BlockConfig, BlockId, LogicalPifoId};
use crate::error::HwError;
use crate::timing::PortGates;
use pifo_core::prelude::*;
use std::collections::HashMap;

/// Where one tree node's PIFOs live in the mesh.
#[derive(Debug, Clone)]
pub struct NodePlacement {
    /// Node display name (e.g. `WFQ_Root`).
    pub name: String,
    /// Parent node index (`None` for the root).
    pub parent: Option<usize>,
    /// Block hosting this node's scheduling PIFO.
    pub block: BlockId,
    /// Logical PIFO id of the scheduling PIFO within that block.
    pub lpifo: LogicalPifoId,
    /// Placement of the shaping PIFO, when the node has a shaping
    /// transaction.
    pub shaping: Option<(BlockId, LogicalPifoId)>,
}

/// Counters exposed for the §4.3 conflict experiments.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MeshStats {
    /// Cycles elapsed.
    pub cycles: u64,
    /// Packets accepted into the mesh.
    pub packets_enqueued: u64,
    /// Packets transmitted.
    pub packets_transmitted: u64,
    /// Shaped references released to their parents.
    pub shaping_releases: u64,
    /// Cycle-slots where a due shaped reference had to wait for ports.
    pub shaping_deferrals: u64,
}

// Metadata encoding for elements stored in blocks (the "32-bit metadata
// field" of §5.3, here modelled as a tagged u64).
const TAG_SHIFT: u32 = 62;
const TAG_PACKET: u64 = 0;
const TAG_REF: u64 = 1;
const TAG_SUSP: u64 = 2;

fn meta_packet(slot: u32) -> u64 {
    (TAG_PACKET << TAG_SHIFT) | slot as u64
}
fn meta_ref(node: usize) -> u64 {
    (TAG_REF << TAG_SHIFT) | node as u64
}
fn meta_susp(id: u32) -> u64 {
    (TAG_SUSP << TAG_SHIFT) | id as u64
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Meta {
    Packet(u32),
    Ref(usize),
    Susp(u32),
}

fn decode(meta: u64) -> Meta {
    let val = meta & ((1u64 << TAG_SHIFT) - 1);
    match meta >> TAG_SHIFT {
        TAG_PACKET => Meta::Packet(val as u32),
        TAG_REF => Meta::Ref(val as usize),
        TAG_SUSP => Meta::Susp(val as u32),
        t => unreachable!("corrupt meta tag {t}"),
    }
}

/// A runnable PIFO mesh: blocks + placements + per-node transactions.
pub struct Mesh {
    blocks: Vec<PifoBlock>,
    gates: Vec<PortGates>,
    nodes: Vec<NodePlacement>,
    sched_tx: Vec<Box<dyn SchedulingTransaction>>,
    shape_tx: Vec<Option<Box<dyn ShapingTransaction>>>,
    classifier: Classifier,
    root: usize,
    packets: HashMap<u32, Packet>,
    next_slot: u32,
    suspensions: HashMap<u32, (usize, Packet)>,
    next_susp: u32,
    cycle: u64,
    cycle_ns: u64,
    /// Every `k` cycles, grant one best-effort bonus port credit per
    /// block (`None` = no over-clocking).
    overclock_every: Option<u64>,
    stats: MeshStats,
}

impl Mesh {
    /// Assemble a mesh.
    ///
    /// `tree[i]`, a node of a tree description, is placed per
    /// `nodes[i]` and runs its transactions there. `classifier` maps
    /// packets to leaves, as it does for the software tree. `cycle_ns` is
    /// the clock period (1 ns at 1 GHz). `pifo-compiler`'s `compile`
    /// derives the placements from the description.
    ///
    /// # Panics
    ///
    /// Panics on structurally invalid placements: unknown parents, a
    /// shaper on the root, duplicate (block, lpifo) assignments, a
    /// parent sharing a block with its child (which could never meet the
    /// one-enqueue-per-cycle budget on the enqueue path, §4.2), a shaper
    /// without a shaping placement, or a leaf flow function (the mesh
    /// schedules a leaf by `packet.flow`).
    pub fn new(
        block_cfgs: Vec<BlockConfig>,
        nodes: Vec<NodePlacement>,
        tree: Vec<TreeNode>,
        classifier: Classifier,
        cycle_ns: u64,
    ) -> Self {
        assert_eq!(nodes.len(), tree.len(), "one placement per node");
        assert!(!nodes.is_empty(), "mesh needs nodes");
        let (sched_tx, shape_tx): (Vec<_>, Vec<_>) = tree
            .into_iter()
            .map(|n| {
                assert!(
                    n.flow_fn.is_none(),
                    "{}: leaf flow functions are software-only",
                    n.name
                );
                (n.sched, n.shaper)
            })
            .unzip();
        let mut root = None;
        let mut seen: HashMap<(BlockId, LogicalPifoId), &str> = HashMap::new();
        for (i, n) in nodes.iter().enumerate() {
            assert!(
                (n.block.0 as usize) < block_cfgs.len(),
                "node {} placed on missing {}",
                n.name,
                n.block
            );
            if let Some(dup) = seen.insert((n.block, n.lpifo), &n.name) {
                panic!(
                    "{}/{} assigned twice ({} and {})",
                    n.block, n.lpifo, dup, n.name
                );
            }
            if let Some((sb, sl)) = n.shaping {
                if let Some(dup) = seen.insert((sb, sl), &n.name) {
                    panic!("{sb}/{sl} assigned twice ({dup} and shaping of {})", n.name);
                }
            }
            match n.parent {
                None => {
                    assert!(root.is_none(), "two roots");
                    assert!(n.shaping.is_none(), "shaper on root");
                    root = Some(i);
                }
                Some(p) => {
                    assert!(p < nodes.len(), "unknown parent of {}", n.name);
                    assert_ne!(
                        nodes[p].block, n.block,
                        "parent {} and child {} share a block",
                        nodes[p].name, n.name
                    );
                }
            }
            if shape_tx[i].is_some() {
                assert!(
                    n.shaping.is_some(),
                    "node {} shaper lacks placement",
                    n.name
                );
            }
        }
        let gates = block_cfgs.iter().map(|_| PortGates::new()).collect();
        let blocks: Vec<PifoBlock> = block_cfgs.into_iter().map(PifoBlock::new).collect();
        let mut mesh = Mesh {
            blocks,
            gates,
            nodes,
            sched_tx,
            shape_tx,
            classifier,
            root: root.expect("a root"),
            packets: HashMap::new(),
            next_slot: 0,
            suspensions: HashMap::new(),
            next_susp: 0,
            cycle: 0,
            cycle_ns,
            overclock_every: None,
            stats: MeshStats::default(),
        };
        for g in mesh.gates.iter_mut() {
            g.new_cycle(0);
        }
        mesh
    }

    /// Enable over-clocking: one bonus best-effort port credit per block
    /// every `k` cycles (k=4 models 1.25 GHz over a 1 GHz datapath).
    pub fn with_overclock_every(mut self, k: u64) -> Self {
        assert!(k > 0, "overclock interval must be positive");
        self.overclock_every = Some(k);
        self
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Current wall-clock time.
    pub fn now(&self) -> Nanos {
        Nanos(self.cycle * self.cycle_ns)
    }

    /// Counters for the conflict experiments.
    pub fn stats(&self) -> &MeshStats {
        &self.stats
    }

    /// Packets currently buffered.
    pub fn buffered(&self) -> usize {
        self.packets.len()
    }

    /// Advance to the next cycle. Shaping releases for the *current*
    /// cycle are attempted first, using leftover ports (scheduling ops
    /// already ran — conflicts resolve in scheduling's favour, §4.3).
    pub fn tick(&mut self) {
        self.process_shaping();
        self.cycle += 1;
        self.stats.cycles = self.cycle;
        let bonus = match self.overclock_every {
            Some(k) if self.cycle % k == 0 => 1,
            _ => 0,
        };
        for g in self.gates.iter_mut() {
            g.new_cycle(bonus);
        }
    }

    /// Best-effort shaping pass with whatever ports remain this cycle.
    fn process_shaping(&mut self) {
        let now = self.now().as_nanos();
        // Deterministic order: node index.
        for i in 0..self.nodes.len() {
            let Some((sb, sl)) = self.nodes[i].shaping else {
                continue;
            };
            let Some((rank, _, meta)) = self.blocks[sb.0 as usize].peek(sl) else {
                continue;
            };
            if rank.value() > now {
                continue; // not due yet
            }
            let parent = self.nodes[i].parent.expect("shaper never on root");
            let pb = self.nodes[parent].block;
            // Claim dequeue on the shaping block and enqueue on the
            // parent block — both best-effort.
            let deq_ok = self.gates[sb.0 as usize]
                .claim_dequeue(sb, sl, self.cycle, true)
                .is_ok();
            if !deq_ok {
                self.stats.shaping_deferrals += 1;
                continue;
            }
            let enq_ok = self.gates[pb.0 as usize].claim_enqueue(pb, true).is_ok();
            if !enq_ok {
                // The dequeue-port claim is wasted this cycle; the
                // reference stays queued (it was only peeked).
                self.stats.shaping_deferrals += 1;
                continue;
            }
            let (_, _, meta2) = self.blocks[sb.0 as usize]
                .dequeue(sl)
                .expect("peeked head vanished");
            debug_assert_eq!(meta, meta2);
            let Meta::Susp(id) = decode(meta2) else {
                unreachable!("shaping PIFO holds only suspensions");
            };
            let (node, pkt) = self.suspensions.remove(&id).expect("live suspension");
            self.stats.shaping_releases += 1;
            self.continue_upward_unchecked(node, pkt);
        }
    }

    fn is_leaf(&self, node: usize) -> bool {
        !self.nodes.iter().any(|n| n.parent == Some(node))
    }

    /// Enqueue `pkt`, executing one transaction per level (§2.2). Claims
    /// one enqueue port per block on the path (guaranteed class). Returns
    /// `Err` if any port on the path is already used this cycle — the
    /// caller retries next cycle, as the ingress pipeline would — or if
    /// the classifier sends the packet to no leaf.
    pub fn enqueue_packet(&mut self, pkt: Packet) -> Result<(), HwError> {
        let id = (self.classifier)(&pkt);
        let leaf = id.index();
        if leaf >= self.nodes.len() {
            return Err(HwError::UnknownNode(id));
        }
        if !self.is_leaf(leaf) {
            return Err(HwError::NotALeaf(id));
        }

        // Phase 1: the static block path — each node up to and including
        // the first shaper, or the root.
        let mut path_blocks: Vec<BlockId> = Vec::new();
        let mut n = leaf;
        loop {
            path_blocks.push(self.nodes[n].block);
            if let Some((sb, _)) = self.nodes[n].shaping {
                path_blocks.push(sb);
                break;
            }
            match self.nodes[n].parent {
                Some(p) => n = p,
                None => break,
            }
        }
        // Phase 2: all-or-nothing port availability check, then claim.
        for b in &path_blocks {
            if !self.gates[b.0 as usize].enqueue_would_succeed() {
                return Err(HwError::EnqueuePortBusy(*b));
            }
        }
        for b in &path_blocks {
            self.gates[b.0 as usize]
                .claim_enqueue(*b, false)
                .expect("checked available");
        }

        // Phase 3: execute.
        let slot = self.next_slot;
        self.next_slot = self.next_slot.wrapping_add(1);
        let flow = pkt.flow;
        let ctx = EnqCtx {
            packet: &pkt,
            now: self.now(),
            flow,
        };
        let rank = self.sched_tx[leaf].rank(&ctx);
        let place = &self.nodes[leaf];
        self.blocks[place.block.0 as usize].enqueue(place.lpifo, flow, rank, meta_packet(slot))?;
        self.packets.insert(slot, pkt.clone());
        self.stats.packets_enqueued += 1;

        self.after_insert(leaf, pkt);
        Ok(())
    }

    /// After an element entered `node`'s scheduling PIFO: suspend at its
    /// shaper or continue to the parent. Ports were pre-claimed by
    /// `enqueue_packet`; shaping resumptions claim their own.
    fn after_insert(&mut self, node: usize, pkt: Packet) {
        if self.shape_tx[node].is_some() {
            let (sb, sl) = self.nodes[node].shaping.expect("validated");
            let ctx = EnqCtx {
                packet: &pkt,
                now: self.now(),
                flow: FlowId(node as u32),
            };
            let t = self.shape_tx[node]
                .as_mut()
                .expect("checked")
                .send_time(&ctx);
            let id = self.next_susp;
            self.next_susp = self.next_susp.wrapping_add(1);
            self.suspensions.insert(id, (node, pkt));
            self.blocks[sb.0 as usize]
                .enqueue(sl, FlowId(node as u32), Rank(t.as_nanos()), meta_susp(id))
                .expect("shaping PIFO capacity");
            return;
        }
        let Some(parent) = self.nodes[node].parent else {
            return;
        };
        let ctx = EnqCtx {
            packet: &pkt,
            now: self.now(),
            flow: FlowId(node as u32),
        };
        let rank = self.sched_tx[parent].rank(&ctx);
        let place = &self.nodes[parent];
        self.blocks[place.block.0 as usize]
            .enqueue(place.lpifo, FlowId(node as u32), rank, meta_ref(node))
            .expect("interior PIFO capacity");
        self.after_insert(parent, pkt);
    }

    /// Resume a released suspension at the parent (ports already claimed
    /// by the shaping pass for this hop; further hops claim best-effort
    /// ports inline).
    fn continue_upward_unchecked(&mut self, node: usize, pkt: Packet) {
        let parent = self.nodes[node].parent.expect("shaper never on root");
        let ctx = EnqCtx {
            packet: &pkt,
            now: self.now(),
            flow: FlowId(node as u32),
        };
        let rank = self.sched_tx[parent].rank(&ctx);
        let place = &self.nodes[parent];
        self.blocks[place.block.0 as usize]
            .enqueue(place.lpifo, FlowId(node as u32), rank, meta_ref(node))
            .expect("interior PIFO capacity");
        self.after_insert(parent, pkt);
    }

    /// Transmit one packet: the root-to-leaf dequeue chain of Fig 2,
    /// following the next-hop lookup at every block (§4.2). Claims one
    /// dequeue port per block on the chain (guaranteed class).
    ///
    /// Returns `Ok(None)` when the root PIFO is empty (with shaping this
    /// can happen while packets are buffered).
    pub fn transmit(&mut self) -> Result<Option<Packet>, HwError> {
        let mut node = self.root;
        loop {
            let place = &self.nodes[node];
            let (block, lpifo) = (place.block, place.lpifo);
            if self.blocks[block.0 as usize].peek(lpifo).is_none() {
                return if node == self.root {
                    Ok(None)
                } else {
                    unreachable!("reference to empty child {}", self.nodes[node].name)
                };
            }
            self.gates[block.0 as usize].claim_dequeue(block, lpifo, self.cycle, false)?;
            let (rank, flow, meta) = self.blocks[block.0 as usize]
                .dequeue(lpifo)
                .expect("peeked non-empty");
            let now = self.now();
            self.sched_tx[node].on_dequeue(rank, &DeqCtx { now, flow });
            match decode(meta) {
                Meta::Packet(slot) => {
                    let pkt = self.packets.remove(&slot).expect("live packet");
                    self.stats.packets_transmitted += 1;
                    return Ok(Some(pkt));
                }
                Meta::Ref(child) => node = child,
                Meta::Susp(_) => unreachable!("suspension in a scheduling PIFO"),
            }
        }
    }

    /// Occupancy of a node's scheduling PIFO (introspection for tests).
    pub fn node_len(&self, node: usize) -> usize {
        let p = &self.nodes[node];
        self.blocks[p.block.0 as usize].len(p.lpifo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FifoTx;
    impl SchedulingTransaction for FifoTx {
        fn rank(&mut self, ctx: &EnqCtx<'_>) -> Rank {
            Rank(ctx.now.as_nanos())
        }
    }

    struct DelayShaper(u64);
    impl ShapingTransaction for DelayShaper {
        fn send_time(&mut self, ctx: &EnqCtx<'_>) -> Nanos {
            Nanos(ctx.now.as_nanos() + self.0)
        }
    }

    /// Root (block 0) over two leaves: leaf 1 (block 1) optionally shaped
    /// via a dedicated shaping block (block 2, cf. Fig 11), leaf 2
    /// (block 3) unshaped. Flow 0 -> shaped leaf, other flows -> leaf 2.
    fn two_level_mesh(shaped: bool) -> Mesh {
        let nodes = vec![
            NodePlacement {
                name: "root".into(),
                parent: None,
                block: BlockId(0),
                lpifo: LogicalPifoId(0),
                shaping: None,
            },
            NodePlacement {
                name: "leaf".into(),
                parent: Some(0),
                block: BlockId(1),
                lpifo: LogicalPifoId(0),
                shaping: if shaped {
                    Some((BlockId(2), LogicalPifoId(0)))
                } else {
                    None
                },
            },
            NodePlacement {
                name: "leaf2".into(),
                parent: Some(0),
                block: BlockId(3),
                lpifo: LogicalPifoId(0),
                shaping: None,
            },
        ];
        let mut tree = TreeBuilder::new();
        let root = tree.add_root("root", Box::new(FifoTx));
        let leaf = tree.add_child(root, "leaf", Box::new(FifoTx));
        let leaf2 = tree.add_child(root, "leaf2", Box::new(FifoTx));
        if shaped {
            tree.set_shaper(leaf, Box::new(DelayShaper(10)));
        }
        Mesh::new(
            (0..4).map(|_| BlockConfig::tiny()).collect(),
            nodes,
            tree.into_nodes().unwrap(),
            Box::new(move |p: &Packet| if p.flow.0 == 0 { leaf } else { leaf2 }),
            1,
        )
    }

    fn pkt(id: u64, flow: u32) -> Packet {
        Packet::new(id, FlowId(flow), 100, Nanos::ZERO)
    }

    #[test]
    fn enqueue_then_transmit_round_trip() {
        let mut m = two_level_mesh(false);
        m.enqueue_packet(pkt(1, 0)).unwrap();
        assert_eq!(m.buffered(), 1);
        m.tick();
        let p = m.transmit().unwrap().unwrap();
        assert_eq!(p.id.0, 1);
        assert_eq!(m.buffered(), 0);
        assert!(m.transmit().unwrap().is_none());
    }

    #[test]
    fn one_enqueue_per_block_per_cycle() {
        let mut m = two_level_mesh(false);
        m.enqueue_packet(pkt(1, 0)).unwrap();
        // Second packet in the same cycle needs the same leaf/root blocks.
        assert!(matches!(
            m.enqueue_packet(pkt(2, 1)),
            Err(HwError::EnqueuePortBusy(_))
        ));
        m.tick();
        m.enqueue_packet(pkt(2, 1)).unwrap();
        assert_eq!(m.buffered(), 2);
    }

    #[test]
    fn same_lpifo_transmit_needs_3_cycles() {
        let mut m = two_level_mesh(false);
        for i in 0..2 {
            m.enqueue_packet(pkt(i, i as u32)).unwrap();
            m.tick();
        }
        assert!(m.transmit().unwrap().is_some());
        m.tick();
        assert!(matches!(m.transmit(), Err(HwError::LpifoDequeueTooSoon(_))));
        m.tick();
        m.tick();
        assert!(m.transmit().unwrap().is_some());
    }

    #[test]
    fn shaped_packet_invisible_until_release() {
        let mut m = two_level_mesh(true);
        m.enqueue_packet(pkt(1, 0)).unwrap();
        assert_eq!(m.node_len(0), 0, "root sees nothing yet");
        assert_eq!(m.node_len(1), 1, "leaf holds the packet");
        // Before release time (t=10): no transmission possible.
        for _ in 0..5 {
            m.tick();
            assert!(m.transmit().unwrap().is_none());
        }
        // Reach t >= 10; release happens in tick's shaping pass.
        for _ in 0..7 {
            m.tick();
        }
        assert_eq!(m.stats().shaping_releases, 1);
        assert_eq!(m.node_len(0), 1, "root sees the released reference");
        let p = m.transmit().unwrap().unwrap();
        assert_eq!(p.id.0, 1);
    }

    #[test]
    fn shaping_deferred_when_ports_busy() {
        let mut m = two_level_mesh(true);
        m.enqueue_packet(pkt(1, 0)).unwrap();
        // Advance past the release time without spending ports...
        for _ in 0..12 {
            m.tick();
        }
        assert_eq!(m.stats().shaping_releases, 1);

        // Second shaped packet; this time keep the root block's enqueue
        // port busy every cycle with competing traffic through the
        // unshaped leaf, deferring the release.
        m.enqueue_packet(pkt(2, 0)).unwrap();
        let deferrals_before = m.stats().shaping_deferrals;
        for i in 0..12 {
            m.tick();
            // A fresh packet each cycle claims leaf2+root enqueue ports
            // (root's port is what the shaping release needs).
            let _ = m.enqueue_packet(pkt(100 + i, 1));
        }
        assert!(
            m.stats().shaping_deferrals > deferrals_before,
            "conflicts must defer shaping: {:?}",
            m.stats()
        );
    }

    #[test]
    #[should_panic(expected = "share a block")]
    fn parent_child_same_block_rejected() {
        let nodes = vec![
            NodePlacement {
                name: "root".into(),
                parent: None,
                block: BlockId(0),
                lpifo: LogicalPifoId(0),
                shaping: None,
            },
            NodePlacement {
                name: "leaf".into(),
                parent: Some(0),
                block: BlockId(0),
                lpifo: LogicalPifoId(1),
                shaping: None,
            },
        ];
        let mut tree = TreeBuilder::new();
        let root = tree.add_root("root", Box::new(FifoTx));
        let leaf = tree.add_child(root, "leaf", Box::new(FifoTx));
        let _ = Mesh::new(
            vec![BlockConfig::tiny()],
            nodes,
            tree.into_nodes().unwrap(),
            Box::new(move |_| leaf),
            1,
        );
    }

    /// A packet the classifier sends to an interior node or past the
    /// last node is an error, not a panic, and leaves the mesh untouched.
    #[test]
    fn misrouted_packets_are_errors() {
        let mut m = two_level_mesh(false);
        m.classifier = Box::new(|p: &Packet| NodeId::from_index(p.flow.0 as usize));
        let root = NodeId::from_index(0);
        assert_eq!(m.enqueue_packet(pkt(1, 0)), Err(HwError::NotALeaf(root)));
        let past = NodeId::from_index(3);
        assert_eq!(m.enqueue_packet(pkt(2, 3)), Err(HwError::UnknownNode(past)));
        assert_eq!(m.stats().packets_enqueued, 0);
    }

    #[test]
    fn overclock_rescues_deferred_shaping() {
        // Saturate the root's enqueue port every cycle; without
        // overclock the shaped release starves, with it the bonus credit
        // lets it through.
        let run = |overclock: Option<u64>| -> u64 {
            let mut m = two_level_mesh(true);
            if let Some(k) = overclock {
                m = m.with_overclock_every(k);
            }
            m.enqueue_packet(pkt(1, 0)).unwrap();
            for i in 0..40 {
                m.tick();
                let _ = m.enqueue_packet(pkt(100 + i, 1));
            }
            m.stats().shaping_releases
        };
        assert_eq!(run(None), 0, "fully starved without overclock");
        assert_eq!(run(Some(4)), 1, "bonus credit releases the reference");
    }
}
