//! Hierarchical Packet Fair Queueing (§2.2, Fig 3) and generic weighted
//! hierarchies of any depth.
//!
//! HPFQ apportions link capacity between classes, then recursively between
//! sub-classes, down to the leaves. Each node of the hierarchy runs WFQ
//! (here: its STFQ approximation, Fig 1) among its children; leaves run
//! WFQ among their flows.
//!
//! [`Hierarchy`] is a declarative description of such a tree;
//! [`Hierarchy::tree`] turns it into the [`TreeBuilder`] description that
//! builds a runnable [`ScheduleTree`] or compiles onto the mesh. The
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

    /// The tree this hierarchy describes: a [`TreeBuilder`] running STFQ
    /// at every node, the flow→leaf [`Classifier`], and the flow→leaf
    /// map (useful for tests and for wiring shapers onto specific
    /// classes afterwards). The caller picks the engine
    /// ([`TreeBuilder::with_backend`]) and the back-end: `build`,
    /// `build_in_pool`, or `pifo-compiler`'s mesh.
    ///
    /// Every flow must appear in exactly one leaf; the classifier sends
    /// other flows to [`NodeId::INVALID`], which both back-ends reject at
    /// enqueue.
    ///
    /// # Panics
    ///
    /// Panics if a flow appears in two leaves.
    pub fn tree(&self) -> (TreeBuilder, Classifier, HashMap<FlowId, NodeId>) {
        // Ids are dense preorder, so a parent knows each child's id (its
        // flow id at the parent) before the child exists.
        fn size(h: &Hierarchy) -> u32 {
            match h {
                Hierarchy::Leaf { .. } => 1,
                Hierarchy::Class { children, .. } => {
                    1 + children.iter().map(|(_, c)| size(c)).sum::<u32>()
                }
            }
        }
        fn add(
            h: &Hierarchy,
            parent: Option<NodeId>,
            b: &mut TreeBuilder,
            leaf_of: &mut HashMap<FlowId, NodeId>,
        ) {
            let (name, table) = match h {
                Hierarchy::Leaf { name, flows } => {
                    (name, WeightTable::from_pairs(flows.iter().copied()))
                }
                Hierarchy::Class { name, children } => {
                    let mut table = WeightTable::new();
                    let mut child_id = b.nodes().len() as u32 + 1;
                    for (w, c) in children {
                        table.set(FlowId(child_id), *w);
                        child_id += size(c);
                    }
                    (name, table)
                }
            };
            let tx = Box::new(Stfq::new(table));
            let id = match parent {
                None => b.add_root(name, tx),
                Some(p) => b.add_child(p, name, tx),
            };
            match h {
                Hierarchy::Leaf { flows, .. } => {
                    for (f, _) in flows {
                        let prev = leaf_of.insert(*f, id);
                        assert!(prev.is_none(), "flow {f} appears in two leaves");
                    }
                }
                Hierarchy::Class { children, .. } => {
                    for (_, c) in children {
                        add(c, Some(id), b, leaf_of);
                    }
                }
            }
        }
        let mut b = TreeBuilder::new();
        let mut map = HashMap::new();
        add(self, None, &mut b, &mut map);

        // The caller gets the map; the classifier, which probes once
        // per packet, captures it re-keyed as a `FlowMap`.
        let leaf_of: FlowMap<NodeId> = map.iter().map(|(&f, &n)| (f, n)).collect();
        let classifier: Classifier =
            Box::new(move |p: &Packet| leaf_of.get(&p.flow).copied().unwrap_or(NodeId::INVALID));
        (b, classifier, map)
    }
}

/// The exact HPFQ example of Fig 3: Root splits 1:9 between Left and
/// Right; Left splits 3:7 between flows A and B; Right splits 4:6 between
/// C and D. Flow ids: A=0, B=1, C=2, D=3. Fig 4 is this tree with a
/// shaper set on `WFQ_Right` (the leaf of flow C).
pub fn fig3_hpfq() -> (TreeBuilder, Classifier, HashMap<FlowId, NodeId>) {
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
    .tree()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(
        (b, classifier, map): (TreeBuilder, Classifier, HashMap<FlowId, NodeId>),
    ) -> (ScheduleTree, HashMap<FlowId, NodeId>) {
        (b.build(classifier).expect("valid tree"), map)
    }

    #[test]
    fn fig3_structure() {
        let (tree, leaf_of) = build(fig3_hpfq());
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
        let (t, _) = build(fig3_hpfq());
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
        let (mut tree, _) = build(h.tree());
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
        let _ = h.tree();
    }

    /// Two hierarchies built into one shared pool compete for the same
    /// slots: one tree's backlog can exhaust admission for its sibling,
    /// and draining reopens it.
    #[test]
    fn hierarchies_in_one_pool_share_admission() {
        use pifo_core::pool::{AdmissionPolicy, SharedPacketPool};
        let pool = SharedPacketPool::new(4, AdmissionPolicy::Unlimited)
            .unwrap()
            .into_shared();
        let in_pool = |backend| {
            let (mut b, classifier, _) = fig3_hpfq();
            b.with_backend(backend);
            b.build_in_pool(classifier, pool.register_port()).unwrap()
        };
        let mut a = in_pool(PifoBackend::default());
        let mut b = in_pool(PifoBackend::Bucket);
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
        assert_eq!(pool.pool().live(), 4);
        // Draining the sibling reopens admission.
        a.dequeue(Nanos(10)).expect("backlogged");
        b.enqueue(Packet::new(10, FlowId(0), 1_000, Nanos(10)), Nanos(10))
            .unwrap();
        let pool = pool.pool();
        assert_eq!(pool.port_occupancy(0), 3);
        assert_eq!(pool.port_occupancy(1), 1);
    }

    #[test]
    fn unknown_flow_rejected_at_enqueue() {
        let (mut tree, _) = build(fig3_hpfq());
        let err = tree
            .enqueue(Packet::new(0, FlowId(55), 100, Nanos(0)), Nanos(0))
            .unwrap_err();
        assert!(matches!(err, TreeError::UnknownNode(_)));
    }

    /// Weighted splits at two levels: drain order respects 1:9 and the
    /// leaf-level 4:6 within a window.
    #[test]
    fn two_level_shares_roughly_hold_by_count() {
        let (mut tree, _) = build(fig3_hpfq());
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
