//! Class-Based Queueing (§3.4, item 5).
//!
//! CBQ [19, 20] schedules among classes by a static class priority, and
//! within each class by fair queueing. In the PIFO model this is a
//! two-level tree: the root ranks each class's transmission opportunities
//! by the class priority (strict priority with FIFO tie-break), and each
//! class leaf runs STFQ among its flows.

use crate::stfq::Stfq;
use crate::weights::WeightTable;
use pifo_core::prelude::*;
use std::collections::HashMap;

/// Root transaction: rank = static priority of the child class the
/// element refers to.
#[derive(Debug, Clone)]
pub struct ClassPriority {
    prio_of_child: FlowMap<u64>,
}

impl ClassPriority {
    /// Priorities keyed by child-node flow ids (lower = served first).
    pub fn new(prio_of_child: HashMap<FlowId, u64>) -> Self {
        ClassPriority {
            prio_of_child: prio_of_child.into_iter().collect(),
        }
    }
}

impl SchedulingTransaction for ClassPriority {
    fn rank(&mut self, ctx: &EnqCtx<'_>) -> Rank {
        Rank(
            self.prio_of_child
                .get(&ctx.flow)
                .copied()
                .unwrap_or(u64::MAX),
        )
    }

    fn name(&self) -> &str {
        "ClassPriority"
    }
}

/// One CBQ class: a priority, plus its member flows with fair-queueing
/// weights.
#[derive(Debug, Clone)]
pub struct CbqClass {
    /// Display name.
    pub name: String,
    /// Inter-class priority (lower = served first).
    pub priority: u64,
    /// `(flow, weight)` members.
    pub flows: Vec<(FlowId, u64)>,
}

/// The CBQ tree for `classes`: a [`ClassPriority`] root over one STFQ
/// leaf per class, the flow→leaf [`Classifier`] (unlisted flows go to
/// [`NodeId::INVALID`]), and the flow→leaf map. The caller picks the
/// engine and the back-end.
///
/// # Panics
///
/// Panics if `classes` is empty or a flow appears in two classes.
pub fn cbq_tree(classes: &[CbqClass]) -> (TreeBuilder, Classifier, HashMap<FlowId, NodeId>) {
    assert!(!classes.is_empty(), "CBQ needs at least one class");
    let mut prio_of_child = HashMap::new();
    let mut map: HashMap<FlowId, NodeId> = HashMap::new();
    for (i, class) in classes.iter().enumerate() {
        // Root = node 0; class i = node i+1 (dense preorder assignment).
        let child = NodeId::from_index(i + 1);
        prio_of_child.insert(child.as_flow(), class.priority);
        for (f, _) in &class.flows {
            let prev = map.insert(*f, child);
            assert!(prev.is_none(), "flow {f} appears in two CBQ classes");
        }
    }

    let mut b = TreeBuilder::new();
    let root = b.add_root("CBQ_Root", Box::new(ClassPriority::new(prio_of_child)));
    for class in classes {
        let table = WeightTable::from_pairs(class.flows.iter().copied());
        b.add_child(root, &class.name, Box::new(Stfq::new(table)));
    }

    // The caller gets the map; the classifier, which probes once per
    // packet, captures it re-keyed as a `FlowMap`.
    let leaf_of: FlowMap<NodeId> = map.iter().map(|(&f, &n)| (f, n)).collect();
    let classifier: Classifier =
        Box::new(move |p: &Packet| leaf_of.get(&p.flow).copied().unwrap_or(NodeId::INVALID));
    (b, classifier, map)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(classes: &[CbqClass]) -> (ScheduleTree, HashMap<FlowId, NodeId>) {
        let (b, classifier, map) = cbq_tree(classes);
        (b.build(classifier).expect("valid CBQ tree"), map)
    }

    fn classes() -> Vec<CbqClass> {
        vec![
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
        ]
    }

    #[test]
    fn higher_priority_class_drains_first() {
        let (mut tree, _) = build(&classes());
        // Bulk backlog first, then a voice packet arrives late.
        for i in 0..5 {
            tree.enqueue(Packet::new(i, FlowId(1), 1_000, Nanos(i)), Nanos(i))
                .unwrap();
        }
        tree.enqueue(Packet::new(99, FlowId(0), 200, Nanos(50)), Nanos(50))
            .unwrap();
        let first = tree.dequeue(Nanos(60)).unwrap();
        assert_eq!(first.flow, FlowId(0), "voice preempts buffered bulk");
    }

    #[test]
    fn within_class_fair_queueing() {
        let (mut tree, _) = build(&classes());
        let mut id = 0;
        for _ in 0..40 {
            for f in [1u32, 2u32] {
                tree.enqueue(Packet::new(id, FlowId(f), 1_000, Nanos(0)), Nanos(0))
                    .unwrap();
                id += 1;
            }
        }
        let mut counts = [0u32; 3];
        for _ in 0..40 {
            let p = tree.dequeue(Nanos(1)).unwrap();
            counts[p.flow.0 as usize] += 1;
        }
        assert!(
            counts[2] >= 28 && counts[2] <= 32,
            "weight-3 member should get ~30/40, got {}",
            counts[2]
        );
    }

    #[test]
    fn structure_and_leaf_map() {
        let (tree, leaf_of) = build(&classes());
        assert_eq!(tree.node_count(), 3);
        assert_eq!(tree.node_name(tree.root()), "CBQ_Root");
        assert_eq!(leaf_of[&FlowId(1)], leaf_of[&FlowId(2)]);
        assert_ne!(leaf_of[&FlowId(0)], leaf_of[&FlowId(1)]);
    }

    #[test]
    #[should_panic(expected = "appears in two CBQ classes")]
    fn duplicate_flow_rejected() {
        let mut cs = classes();
        cs[1].flows.push((FlowId(0), 1));
        let _ = cbq_tree(&cs);
    }
}
