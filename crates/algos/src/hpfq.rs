//! Hierarchical Packet Fair Queueing (§2.2, Fig 3) and generic weighted
//! hierarchies of any depth.
//!
//! HPFQ apportions link capacity between classes, then recursively between
//! sub-classes, down to the leaves. Each node of the hierarchy runs WFQ
//! (here: its STFQ approximation, Fig 1) among its children; leaves run
//! WFQ among their flows.
//!
//! [`Hierarchy`] is a declarative description of such a tree;
//! [`Hierarchy::build`] turns it into a runnable [`ScheduleTree`]. The
//! paper's headline configuration — a 5-level hierarchy with programmable
//! scheduling at each level (§1) — is a five-deep [`Hierarchy`].

use crate::stfq::Stfq;
use crate::weights::WeightTable;
use pifo_core::prelude::*;
use std::collections::HashMap;

/// A node of a declarative scheduling hierarchy.
#[derive(Debug, Clone)]
pub enum Hierarchy {
    /// An interior class: WFQ among the named, weighted children.
    Class {
        /// Display name (used in tree introspection).
        name: String,
        /// `(weight, child)` pairs; weights are relative to siblings.
        children: Vec<(u64, Hierarchy)>,
    },
    /// A leaf class: WFQ among the listed flows.
    Leaf {
        /// Display name.
        name: String,
        /// `(flow, weight)` pairs scheduled by this leaf.
        flows: Vec<(FlowId, u64)>,
    },
}

impl Hierarchy {
    /// Convenience constructor for an interior class.
    pub fn class(name: &str, children: Vec<(u64, Hierarchy)>) -> Hierarchy {
        Hierarchy::Class {
            name: name.to_string(),
            children,
        }
    }

    /// Convenience constructor for a leaf class.
    pub fn leaf(name: &str, flows: Vec<(FlowId, u64)>) -> Hierarchy {
        Hierarchy::Leaf {
            name: name.to_string(),
            flows,
        }
    }

    /// Depth of the hierarchy (a lone leaf has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            Hierarchy::Leaf { .. } => 1,
            Hierarchy::Class { children, .. } => {
                1 + children.iter().map(|(_, c)| c.depth()).max().unwrap_or(0)
            }
        }
    }

    /// Build the runnable tree with the default PIFO backend. Every flow
    /// must appear in exactly one leaf; packets from unknown flows are
    /// rejected at `enqueue`.
    ///
    /// Returns the tree and the flow→leaf map (useful for tests and for
    /// wiring shapers onto specific classes by name afterwards).
    pub fn build(&self) -> (ScheduleTree, HashMap<FlowId, NodeId>) {
        self.build_with_backend(PifoBackend::default())
    }

    /// [`build`](Self::build), with every node's PIFOs backed by the given
    /// queue engine.
    pub fn build_with_backend(
        &self,
        backend: PifoBackend,
    ) -> (ScheduleTree, HashMap<FlowId, NodeId>) {
        let (b, classifier, map) = self.builder_parts(backend);
        let tree = b
            .build(classifier)
            .expect("hierarchy produces a valid tree");
        (tree, map)
    }

    /// [`build_with_backend`](Self::build_with_backend), buffering in one
    /// port of a fabric-wide shared packet pool (§5.1) instead of a
    /// private slab: admission is decided by the pool's capacity and
    /// [`AdmissionPolicy`], shared with
    /// every other tree built into the same pool.
    pub fn build_in_pool(
        &self,
        backend: PifoBackend,
        pool: PoolHandle,
    ) -> (ScheduleTree, HashMap<FlowId, NodeId>) {
        let (b, classifier, map) = self.builder_parts(backend);
        let tree = b
            .build_in_pool(classifier, pool)
            .expect("hierarchy produces a valid tree");
        (tree, map)
    }

    /// The common construction: a populated builder, the flow→leaf
    /// classifier, and the flow→leaf map.
    fn builder_parts(
        &self,
        backend: PifoBackend,
    ) -> (TreeBuilder, Classifier, HashMap<FlowId, NodeId>) {
        let mut b = TreeBuilder::new();
        b.with_backend(backend);
        let mut leaf_of: HashMap<FlowId, NodeId> = HashMap::new();

        // Recursive construction. The parent's STFQ weight table is keyed
        // by child NodeId-as-flow, so children register their weights with
        // the parent *after* getting their ids — we therefore construct
        // each node's transaction with the weights of its children, which
        // requires ids before transactions. Trick: ids are assigned
        // densely in add order, so do a first pass assigning ids, then a
        // second pass creating nodes. Simpler: build child subtrees first
        // into a flat spec list. Here we exploit determinism: create the
        // node with an empty weight table, collect (child_id, weight), and
        // since `TreeBuilder` owns the transaction we pre-compute weights
        // by a dry-run id assignment.
        //
        // Dry run: compute the id each node will get (preorder).
        fn assign_ids(h: &Hierarchy, next: &mut u32, out: &mut Vec<u32>) {
            let my = *next;
            *next += 1;
            out.push(my);
            if let Hierarchy::Class { children, .. } = h {
                for (_, c) in children {
                    assign_ids(c, next, out);
                }
            }
        }
        let mut ids = Vec::new();
        let mut next = 0;
        assign_ids(self, &mut next, &mut ids);

        // Real construction pass.
        fn build_node(
            h: &Hierarchy,
            parent: Option<NodeId>,
            b: &mut TreeBuilder,
            next: &mut u32,
            leaf_of: &mut HashMap<FlowId, NodeId>,
        ) -> NodeId {
            let my_id = *next;
            *next += 1;
            match h {
                Hierarchy::Leaf { name, flows } => {
                    let table = WeightTable::from_pairs(flows.iter().copied());
                    let tx = Box::new(Stfq::new(table));
                    let id = match parent {
                        None => b.add_root(name, tx),
                        Some(p) => b.add_child(p, name, tx),
                    };
                    debug_assert_eq!(id.index() as u32, my_id);
                    for (f, _) in flows {
                        let prev = leaf_of.insert(*f, id);
                        assert!(prev.is_none(), "flow {f} appears in two leaves");
                    }
                    id
                }
                Hierarchy::Class { name, children } => {
                    // Children ids follow in preorder; compute each child's
                    // subtree size to know its id before building it.
                    fn size(h: &Hierarchy) -> u32 {
                        match h {
                            Hierarchy::Leaf { .. } => 1,
                            Hierarchy::Class { children, .. } => {
                                1 + children.iter().map(|(_, c)| size(c)).sum::<u32>()
                            }
                        }
                    }
                    let mut table = WeightTable::new();
                    let mut child_id = my_id + 1;
                    for (w, c) in children {
                        table.set(FlowId(child_id), *w);
                        child_id += size(c);
                    }
                    let tx = Box::new(Stfq::new(table));
                    let id = match parent {
                        None => b.add_root(name, tx),
                        Some(p) => b.add_child(p, name, tx),
                    };
                    debug_assert_eq!(id.index() as u32, my_id);
                    for (_, c) in children {
                        build_node(c, Some(id), b, next, leaf_of);
                    }
                    id
                }
            }
        }
        let mut next = 0;
        build_node(self, None, &mut b, &mut next, &mut leaf_of);

        // The caller gets the map; the classifier, which probes once
        // per packet, captures it re-keyed as a `FlowMap`.
        let map = leaf_of;
        let leaf_of: FlowMap<NodeId> = map.iter().map(|(&f, &n)| (f, n)).collect();
        let classifier: Classifier =
            Box::new(move |p: &Packet| leaf_of.get(&p.flow).copied().unwrap_or(NodeId::INVALID));
        (b, classifier, map)
    }
}

/// The exact HPFQ example of Fig 3: Root splits 1:9 between Left and
/// Right; Left splits 3:7 between flows A and B; Right splits 4:6 between
/// C and D. Flow ids: A=0, B=1, C=2, D=3.
pub fn fig3_hpfq() -> (ScheduleTree, HashMap<FlowId, NodeId>) {
    fig3_hpfq_with_backend(PifoBackend::default())
}

/// [`fig3_hpfq`] with every node's PIFOs backed by the given engine.
pub fn fig3_hpfq_with_backend(backend: PifoBackend) -> (ScheduleTree, HashMap<FlowId, NodeId>) {
    fig3_hierarchy().build_with_backend(backend)
}

/// [`fig3_hpfq`] buffering in one port of a fabric-wide shared packet
/// pool (see [`Hierarchy::build_in_pool`]).
pub fn fig3_hpfq_in_pool(
    backend: PifoBackend,
    pool: PoolHandle,
) -> (ScheduleTree, HashMap<FlowId, NodeId>) {
    fig3_hierarchy().build_in_pool(backend, pool)
}

fn fig3_hierarchy() -> Hierarchy {
    Hierarchy::class(
        "WFQ_Root",
        vec![
            (
                1,
                Hierarchy::leaf("WFQ_Left", vec![(FlowId(0), 3), (FlowId(1), 7)]),
            ),
            (
                9,
                Hierarchy::leaf("WFQ_Right", vec![(FlowId(2), 4), (FlowId(3), 6)]),
            ),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_structure() {
        let (tree, leaf_of) = fig3_hpfq();
        assert_eq!(tree.node_count(), 3);
        let root = tree.root();
        assert_eq!(tree.children(root).len(), 2);
        assert_eq!(tree.node_name(root), "WFQ_Root");
        let left = tree.children(root)[0];
        let right = tree.children(root)[1];
        assert_eq!(tree.node_name(left), "WFQ_Left");
        assert_eq!(tree.node_name(right), "WFQ_Right");
        assert_eq!(leaf_of[&FlowId(0)], left);
        assert_eq!(leaf_of[&FlowId(1)], left);
        assert_eq!(leaf_of[&FlowId(2)], right);
        assert_eq!(leaf_of[&FlowId(3)], right);
    }

    #[test]
    fn depth_counts_levels() {
        let (t, _) = fig3_hpfq();
        assert_eq!(t.node_count(), 3);
        let h = Hierarchy::class(
            "a",
            vec![(
                1,
                Hierarchy::class("b", vec![(1, Hierarchy::leaf("c", vec![(FlowId(0), 1)]))]),
            )],
        );
        assert_eq!(h.depth(), 3);
    }

    #[test]
    fn five_level_hierarchy_builds_and_runs() {
        // The paper's headline: 5 levels, programmable at each (§1).
        let leaf = |name: &str, f: u32| Hierarchy::leaf(name, vec![(FlowId(f), 1)]);
        let h = Hierarchy::class(
            "L1",
            vec![
                (
                    1,
                    Hierarchy::class(
                        "L2a",
                        vec![(
                            1,
                            Hierarchy::class(
                                "L3",
                                vec![(
                                    1,
                                    Hierarchy::class(
                                        "L4",
                                        vec![(1, leaf("L5", 0)), (2, leaf("L5b", 1))],
                                    ),
                                )],
                            ),
                        )],
                    ),
                ),
                (3, leaf("L2b", 2)),
            ],
        );
        assert_eq!(h.depth(), 5);
        let (mut tree, _) = h.build();
        for i in 0..30 {
            tree.enqueue(
                Packet::new(i, FlowId((i % 3) as u32), 1_000, Nanos(i)),
                Nanos(i),
            )
            .unwrap();
        }
        let mut n = 0;
        while tree.dequeue(Nanos(1_000)).is_some() {
            n += 1;
        }
        assert_eq!(n, 30);
    }

    #[test]
    #[should_panic(expected = "appears in two leaves")]
    fn duplicate_flow_rejected() {
        let h = Hierarchy::class(
            "root",
            vec![
                (1, Hierarchy::leaf("x", vec![(FlowId(0), 1)])),
                (1, Hierarchy::leaf("y", vec![(FlowId(0), 1)])),
            ],
        );
        let _ = h.build();
    }

    /// Two hierarchies built into one shared pool compete for the same
    /// slots: one tree's backlog can exhaust admission for its sibling,
    /// and draining reopens it.
    #[test]
    fn hierarchies_in_one_pool_share_admission() {
        use pifo_core::pool::{AdmissionPolicy, SharedPacketPool};
        let pool = SharedPacketPool::new(4, AdmissionPolicy::Unlimited).into_shared();
        let (mut a, _) = fig3_hpfq_in_pool(PifoBackend::default(), pool.register_port());
        let (mut b, _) = fig3_hpfq_in_pool(PifoBackend::Bucket, pool.register_port());
        for i in 0..4 {
            a.enqueue(
                Packet::new(i, FlowId((i % 4) as u32), 1_000, Nanos(i)),
                Nanos(i),
            )
            .unwrap();
        }
        let err = b
            .enqueue(Packet::new(9, FlowId(0), 1_000, Nanos(9)), Nanos(9))
            .unwrap_err();
        assert!(matches!(err, TreeError::BufferFull(_)));
        assert_eq!(pool.stats().live, 4);
        // Draining the sibling reopens admission.
        a.dequeue(Nanos(10)).expect("backlogged");
        b.enqueue(Packet::new(10, FlowId(0), 1_000, Nanos(10)), Nanos(10))
            .unwrap();
        assert_eq!(pool.port_occupancy(0), 3);
        assert_eq!(pool.port_occupancy(1), 1);
    }

    #[test]
    fn unknown_flow_rejected_at_enqueue() {
        let (mut tree, _) = fig3_hpfq();
        let err = tree
            .enqueue(Packet::new(0, FlowId(55), 100, Nanos(0)), Nanos(0))
            .unwrap_err();
        assert!(matches!(err, TreeError::UnknownNode(_)));
    }

    /// Weighted splits at two levels: drain order respects 1:9 and the
    /// leaf-level 4:6 within a window.
    #[test]
    fn two_level_shares_roughly_hold_by_count() {
        let (mut tree, _) = fig3_hpfq();
        // Backlog all four flows with equal-size packets.
        let mut id = 0;
        for _ in 0..100 {
            for f in 0..4u32 {
                tree.enqueue(Packet::new(id, FlowId(f), 1_000, Nanos(0)), Nanos(0))
                    .unwrap();
                id += 1;
            }
        }
        let mut count = [0usize; 4];
        for _ in 0..100 {
            let p = tree.dequeue(Nanos(1)).unwrap();
            count[p.flow.0 as usize] += 1;
        }
        let left = count[0] + count[1];
        let right = count[2] + count[3];
        // Expect ~10 left vs ~90 right.
        assert!((5..=15).contains(&left), "left got {left} of 100");
        assert!((85..=95).contains(&right), "right got {right} of 100");
        // Within Right, C:D should be ~4:6 of right's share.
        let c_share = count[2] as f64 / right as f64;
        assert!(
            (c_share - 0.4).abs() < 0.1,
            "C got {:.2} of Right (want ~0.4)",
            c_share
        );
    }
}
