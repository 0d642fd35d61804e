//! # pifo-compiler
//!
//! Lowers a scheduling tree — the [`TreeBuilder`] description that
//! `pifo-core` builds into a software [`ScheduleTree`] — onto a PIFO mesh
//! (§4.3):
//!
//! 1. every tree *level* is assigned to its own PIFO block (each packet
//!    needs at most one enqueue and one dequeue per level per cycle, and
//!    a block provides exactly one of each);
//! 2. every *shaping PIFO* gets a dedicated block: its releases fire at
//!    arbitrary wall-clock times and would otherwise conflict with the
//!    level's scheduling traffic (the Fig 11 `TBF_Right` block);
//! 3. next-hop lookup tables are emitted per block (Fig 9): transmit,
//!    dequeue-child, or enqueue-into-parent;
//! 4. the full-mesh wiring is priced in bits (§5.4).
//!
//! [`layout`] is purely structural (drives the golden tests against
//! Figs 10b/11b); [`compile`] moves the description's transactions into
//! place and returns a runnable [`pifo_hw::Mesh`].

#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(missing_docs)]

use pifo_core::prelude::*;
use pifo_hw::{BlockConfig, BlockId, LogicalPifoId, Mesh, NodePlacement};
use std::fmt::Write as _;

/// Where the compiler placed things, plus the derived tables.
#[derive(Debug, Clone)]
pub struct MeshLayout {
    /// Per-node placements (indexes match the description's node ids).
    pub placements: Vec<NodePlacement>,
    /// Total blocks allocated.
    pub n_blocks: usize,
    /// Blocks occupied by scheduling levels (the rest serve shaping).
    pub n_level_blocks: usize,
    /// Human-readable next-hop lookup table entries, per block.
    pub lookup_tables: Vec<Vec<String>>,
}

/// Errors the compiler reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The description is not a runnable tree (see
    /// [`TreeBuilder::validate`]).
    Tree(TreeError),
    /// The node maps packets to flows with a leaf flow function (Fig 14
    /// aggregation), which only the software tree runs: a mesh leaf
    /// schedules by `packet.flow`.
    FlowFn(NodeId),
    /// The tree needs more of a mesh resource than there is.
    DoesNotFit {
        /// The resource: blocks, logical PIFOs in one block, or flow ids
        /// in one block.
        what: &'static str,
        /// How many the tree needs.
        needed: usize,
        /// How many the mesh has.
        limit: usize,
    },
}

impl core::fmt::Display for CompileError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CompileError::Tree(e) => write!(f, "not a tree: {e}"),
            CompileError::FlowFn(n) => {
                write!(f, "leaf {n} has a flow function, which the mesh cannot run")
            }
            CompileError::DoesNotFit {
                what,
                needed,
                limit,
            } => write!(f, "tree needs {needed} {what}, the mesh has {limit}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// One block per level plus one per shaping PIFO must fit a [`BlockId`].
const MAX_BLOCKS: usize = u8::MAX as usize + 1;

fn fits(what: &'static str, needed: usize, limit: usize) -> Result<(), CompileError> {
    if needed > limit {
        return Err(CompileError::DoesNotFit {
            what,
            needed,
            limit,
        });
    }
    Ok(())
}

/// Lay a tree description out on a mesh (§4.3): the structural pass
/// behind [`compile`], and the Figs 10b/11b goldens.
pub fn layout(tree: &TreeBuilder) -> Result<MeshLayout, CompileError> {
    tree.validate().map_err(CompileError::Tree)?;
    let nodes = tree.nodes();

    // Parents precede children, so one pass assigns every level and the
    // next free logical PIFO in that level's block.
    let mut level = Vec::with_capacity(nodes.len());
    let mut width: Vec<usize> = Vec::new();
    let mut placements: Vec<NodePlacement> = Vec::with_capacity(nodes.len());
    for node in nodes {
        let l = node.parent.map_or(0, |p| level[p.index()] + 1);
        level.push(l);
        if width.len() == l {
            width.push(0);
        }
        let lpifo = u16::try_from(width[l]).map_err(|_| CompileError::DoesNotFit {
            what: "logical PIFOs in one block",
            needed: width[l] + 1,
            limit: u16::MAX as usize + 1,
        })?;
        width[l] += 1;
        placements.push(NodePlacement {
            name: node.name.clone(),
            parent: node.parent.map(NodeId::index),
            block: BlockId(0), // numbered below, once the block count fits
            lpifo: LogicalPifoId(lpifo),
            shaping: None,
        });
    }
    let n_levels = width.len();
    let n_shaped = nodes.iter().filter(|n| n.shaper.is_some()).count();
    let n_blocks = n_levels + n_shaped;
    fits("blocks", n_blocks, MAX_BLOCKS)?;

    // Level -> block; a dedicated block per shaping PIFO (Fig 11).
    let block = |b: usize| BlockId(u8::try_from(b).expect("block count fits"));
    let mut next_shaping = n_levels;
    for ((p, node), &l) in placements.iter_mut().zip(nodes).zip(&level) {
        p.block = block(l);
        if node.shaper.is_some() {
            p.shaping = Some((block(next_shaping), LogicalPifoId(0)));
            next_shaping += 1;
        }
    }
    // Lookup tables (Fig 9): what happens after a dequeue at each block.
    let mut lookup_tables: Vec<Vec<String>> = vec![Vec::new(); n_blocks];
    for (i, p) in placements.iter().enumerate() {
        let children: Vec<usize> = placements
            .iter()
            .enumerate()
            .filter(|(_, c)| c.parent == Some(i))
            .map(|(j, _)| j)
            .collect();
        let b = p.block.0 as usize;
        if children.is_empty() {
            lookup_tables[b].push(format!("deq {}: packet -> Transmit", p.name));
        } else {
            for c in children {
                let cp = &placements[c];
                lookup_tables[b].push(format!(
                    "deq {}: ref({}) -> Dequeue {} {}",
                    p.name, cp.name, cp.block, cp.lpifo
                ));
            }
        }
        if let Some((sb, _)) = p.shaping {
            let parent = p.parent.expect("no shaper on root");
            let pp = &placements[parent];
            lookup_tables[sb.0 as usize].push(format!(
                "deq shaping({}): release -> Enqueue {} {} ({})",
                p.name, pp.block, pp.lpifo, pp.name
            ));
        }
    }

    Ok(MeshLayout {
        placements,
        n_blocks,
        n_level_blocks: n_levels,
        lookup_tables,
    })
}

impl MeshLayout {
    /// Render the configuration like Figs 10b/11b (for golden tests and
    /// the `repro compile` experiment).
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "mesh: {} blocks ({} level, {} shaping)",
            self.n_blocks,
            self.n_level_blocks,
            self.n_blocks - self.n_level_blocks
        );
        for b in 0..self.n_blocks {
            let residents: Vec<String> = self
                .placements
                .iter()
                .filter(|p| p.block.0 as usize == b)
                .map(|p| format!("{}@{}", p.name, p.lpifo))
                .chain(
                    self.placements
                        .iter()
                        .filter(|p| p.shaping.map(|(sb, _)| sb.0 as usize) == Some(b))
                        .map(|p| format!("shaping({})@q0", p.name)),
                )
                .collect();
            let _ = writeln!(s, "B{b}: [{}]", residents.join(", "));
            for e in &self.lookup_tables[b] {
                let _ = writeln!(s, "  {e}");
            }
        }
        s
    }

    /// §5.4: bits per enqueue+dequeue wire set for a given block config.
    /// Baseline: 8 (lpifo) + 16 (rank) + 32 (meta) + 10 (flow) for the
    /// enqueue, plus 8 (lpifo) + 32 (element) for the dequeue = 106.
    pub fn wire_set_bits(cfg: &BlockConfig) -> u32 {
        let enq = cfg.lpifo_id_bits() + cfg.rank_bits + cfg.meta_bits + cfg.flow_id_bits();
        let deq = cfg.lpifo_id_bits() + cfg.meta_bits;
        enq + deq
    }

    /// §5.4: total wire bits for the full mesh (`blocks · (blocks-1)`
    /// directed sets).
    pub fn total_wiring_bits(&self, cfg: &BlockConfig) -> u64 {
        let sets = (self.n_blocks * self.n_blocks.saturating_sub(1)) as u64;
        sets * Self::wire_set_bits(cfg) as u64
    }
}

/// Compile a tree description to a runnable mesh: [`layout`], then move
/// each node's transactions into place. Every block gets `block_cfg`;
/// `cycle_ns` is the clock period (1 ns at 1 GHz). `classifier` is the
/// one the software tree takes: a packet it sends to no leaf is
/// [`pifo_hw::HwError::UnknownNode`] at enqueue.
pub fn compile(
    tree: TreeBuilder,
    classifier: Classifier,
    block_cfg: BlockConfig,
    cycle_ns: u64,
) -> Result<Mesh, CompileError> {
    let layout = layout(&tree)?;
    if let Some(i) = tree.nodes().iter().position(|n| n.flow_fn.is_some()) {
        return Err(CompileError::FlowFn(NodeId::from_index(i)));
    }
    let widest = layout
        .placements
        .iter()
        .map(|p| p.lpifo.0 as usize + 1)
        .max();
    fits(
        "logical PIFOs in one block",
        widest.unwrap_or(0),
        block_cfg.n_logical_pifos,
    )?;
    // A child's node id is its flow id in the parent's block.
    fits(
        "flow ids in one block",
        layout.placements.len(),
        block_cfg.n_flows,
    )?;
    let nodes = tree.into_nodes().map_err(CompileError::Tree)?;
    let cfgs = vec![block_cfg; layout.n_blocks];
    Ok(Mesh::new(
        cfgs,
        layout.placements,
        nodes,
        classifier,
        cycle_ns,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fifo() -> Box<dyn SchedulingTransaction> {
        Box::new(FnTransaction::new("fifo", |ctx: &EnqCtx<'_>| {
            Rank(ctx.now.as_nanos())
        }))
    }

    struct Hold;
    impl ShapingTransaction for Hold {
        fn send_time(&mut self, ctx: &EnqCtx<'_>) -> Nanos {
            ctx.now
        }
    }

    /// Fig 3's shape: a root over two leaves, Right optionally shaped
    /// (Fig 4).
    fn hpfq(shaped: bool) -> TreeBuilder {
        let mut b = TreeBuilder::new();
        let root = b.add_root("WFQ_Root", fifo());
        b.add_child(root, "WFQ_Left", fifo());
        let right = b.add_child(root, "WFQ_Right", fifo());
        if shaped {
            b.set_shaper(right, Box::new(Hold));
        }
        b
    }

    /// A chain of `depth` levels, one node each.
    fn linear(depth: usize) -> TreeBuilder {
        let mut b = TreeBuilder::new();
        let mut node = b.add_root("WFQ_L1", fifo());
        for i in 1..depth {
            node = b.add_child(node, &format!("WFQ_L{}", i + 1), fifo());
        }
        b
    }

    /// Fig 10b: HPFQ compiles to two blocks — WFQ_Root alone, WFQ_Left
    /// and WFQ_Right sharing the second.
    #[test]
    fn hpfq_matches_fig_10b() {
        let layout = layout(&hpfq(false)).unwrap();
        assert_eq!(layout.n_blocks, 2);
        assert_eq!(layout.n_level_blocks, 2);
        assert_eq!(layout.placements[0].block, BlockId(0));
        assert_eq!(layout.placements[1].block, BlockId(1));
        assert_eq!(layout.placements[2].block, BlockId(1));
        assert_ne!(layout.placements[1].lpifo, layout.placements[2].lpifo);
        let rendered = layout.render();
        assert!(rendered.contains("WFQ_Root@q0"));
        assert!(rendered.contains("deq WFQ_Left: packet -> Transmit"));
        assert!(rendered.contains("deq WFQ_Root: ref(WFQ_Left) -> Dequeue B1 q0"));
    }

    /// Fig 11b: shaping adds a dedicated third block for TBF_Right.
    #[test]
    fn shaping_matches_fig_11b() {
        let layout = layout(&hpfq(true)).unwrap();
        assert_eq!(layout.n_blocks, 3);
        assert_eq!(layout.n_level_blocks, 2);
        let right = &layout.placements[2];
        assert_eq!(right.shaping, Some((BlockId(2), LogicalPifoId(0))));
        let rendered = layout.render();
        assert!(
            rendered.contains("deq shaping(WFQ_Right): release -> Enqueue B0 q0 (WFQ_Root)"),
            "{rendered}"
        );
    }

    /// The headline 5-level hierarchy fits 5 blocks (§4.2: "we expect a
    /// small number of PIFO blocks in a typical switch, e.g. less than
    /// five").
    #[test]
    fn five_level_tree_uses_five_blocks() {
        let layout = layout(&linear(5)).unwrap();
        assert_eq!(layout.n_blocks, 5);
        for (i, p) in layout.placements.iter().enumerate() {
            assert_eq!(p.block, BlockId(i as u8), "level i -> block i");
        }
    }

    #[test]
    fn wire_bits_match_section_5_4() {
        let cfg = BlockConfig::default();
        assert_eq!(MeshLayout::wire_set_bits(&cfg), 106);
        let layout = layout(&linear(5)).unwrap();
        assert_eq!(layout.total_wiring_bits(&cfg), 20 * 106); // = 2120
    }

    #[test]
    fn siblings_share_block_distinct_lpifos() {
        let mut b = TreeBuilder::new();
        let root = b.add_root("root", fifo());
        for name in ["a", "b", "c"] {
            b.add_child(root, name, fifo());
        }
        let layout = layout(&b).unwrap();
        assert_eq!(layout.n_blocks, 2);
        let lpifos: Vec<u16> = layout.placements[1..].iter().map(|p| p.lpifo.0).collect();
        assert_eq!(lpifos, vec![0, 1, 2]);
    }

    /// What the description cannot run on the mesh is a typed error: an
    /// empty tree, a shaper on the root, and a leaf flow function (Fig 14
    /// aggregation runs in software only).
    #[test]
    fn invalid_descriptions_are_typed_errors() {
        let cfg = BlockConfig::default;
        let to_leaf = || -> Classifier { Box::new(|_| NodeId::from_index(1)) };
        let empty = TreeBuilder::new();
        assert_eq!(
            layout(&empty).unwrap_err(),
            CompileError::Tree(TreeError::Empty)
        );
        assert_eq!(
            compile(empty, to_leaf(), cfg(), 1).err(),
            Some(CompileError::Tree(TreeError::Empty))
        );
        let mut rooted = TreeBuilder::new();
        let root = rooted.add_root("root", fifo());
        rooted.set_shaper(root, Box::new(Hold));
        assert_eq!(
            layout(&rooted).unwrap_err(),
            CompileError::Tree(TreeError::ShaperOnRoot)
        );
        let mut aggregated = hpfq(false);
        aggregated.set_flow_fn(NodeId::from_index(2), Box::new(|_| FlowId(0)));
        assert!(layout(&aggregated).is_ok(), "the layout is structural");
        assert_eq!(
            compile(aggregated, to_leaf(), cfg(), 1).err(),
            Some(CompileError::FlowFn(NodeId::from_index(2)))
        );
    }

    /// A tree too big for the mesh is `DoesNotFit`, never an aliased
    /// block or a panic at the first enqueue: 300 shaped leaves need 302
    /// blocks (a `BlockId` names 256); a 9-wide level needs 9 logical
    /// PIFOs in one block; 9 nodes need 9 flow ids per block.
    #[test]
    fn oversized_trees_do_not_fit() {
        let shaped_leaves = |n: usize| {
            let mut b = TreeBuilder::new();
            let root = b.add_root("root", fifo());
            for i in 0..n {
                let leaf = b.add_child(root, &format!("leaf{i}"), fifo());
                b.set_shaper(leaf, Box::new(Hold));
            }
            b
        };
        let big = shaped_leaves(300);
        let expect = CompileError::DoesNotFit {
            what: "blocks",
            needed: 302,
            limit: 256,
        };
        assert_eq!(layout(&big).unwrap_err(), expect);
        let to_leaf: Classifier = Box::new(|_| NodeId::from_index(1));
        assert_eq!(
            compile(big, to_leaf, BlockConfig::default(), 1).err(),
            Some(expect)
        );
        assert_eq!(layout(&shaped_leaves(254)).unwrap().n_blocks, 256);

        let wide = |n: usize| {
            let mut b = TreeBuilder::new();
            let root = b.add_root("root", fifo());
            for i in 0..n {
                b.add_child(root, &format!("leaf{i}"), fifo());
            }
            b
        };
        let tiny = BlockConfig {
            n_logical_pifos: 8,
            n_flows: 16,
            ..BlockConfig::tiny()
        };
        let to_leaf = || -> Classifier { Box::new(|_| NodeId::from_index(1)) };
        assert_eq!(
            compile(wide(9), to_leaf(), tiny.clone(), 1).err(),
            Some(CompileError::DoesNotFit {
                what: "logical PIFOs in one block",
                needed: 9,
                limit: 8,
            })
        );
        assert!(compile(wide(8), to_leaf(), tiny.clone(), 1).is_ok());
        let few_flows = BlockConfig { n_flows: 8, ..tiny };
        assert_eq!(
            compile(linear(9), to_leaf(), few_flows.clone(), 1).err(),
            Some(CompileError::DoesNotFit {
                what: "flow ids in one block",
                needed: 9,
                limit: 8,
            })
        );
        assert!(compile(linear(8), to_leaf(), few_flows, 1).is_ok());
    }
}
