//! The scheduler interface an output port drives, implemented by every
//! PIFO [`ScheduleTree`], and the adapter that gives a tree a label and
//! a drop count.

use pifo_core::prelude::*;

/// What a switch output port needs from a packet scheduler.
///
/// Implemented by [`ScheduleTree`] itself, by the labelled tree adapter
/// ([`TreeScheduler`]) and by the fixed-function baselines in
/// [`crate::baselines`] — the "menu" of algorithms the paper contrasts
/// programmable scheduling against (§1).
pub trait PortScheduler {
    /// Offer `pkt` to the scheduler at time `now`. Returns `false` when
    /// the packet was dropped (buffer full / unknown flow); the port
    /// records the drop.
    fn enqueue(&mut self, pkt: Packet, now: Nanos) -> bool;

    /// Ask for the next packet to transmit at time `now`.
    fn dequeue(&mut self, now: Nanos) -> Option<Packet>;

    /// If `dequeue` would return `None` at `now`, the earliest future time
    /// it might succeed without further arrivals (`None` = never, i.e.
    /// empty). Lets the port sleep precisely across shaping gaps.
    fn next_ready(&self, now: Nanos) -> Option<Nanos>;

    /// Packets currently buffered.
    fn backlog(&self) -> usize;

    /// Display name for reports.
    fn name(&self) -> &str;
}

/// Adapter: any [`ScheduleTree`] is a [`PortScheduler`].
pub struct TreeScheduler {
    tree: ScheduleTree,
    label: String,
    drops: u64,
}

impl TreeScheduler {
    /// Wrap `tree` under a display `label`.
    pub fn new(label: &str, tree: ScheduleTree) -> Self {
        TreeScheduler {
            tree,
            label: label.to_string(),
            drops: 0,
        }
    }

    /// Packets rejected so far (buffer full or unknown flow).
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Access the wrapped tree (e.g. to inspect PIFO occupancies).
    pub fn tree(&self) -> &ScheduleTree {
        &self.tree
    }
}

impl PortScheduler for ScheduleTree {
    fn enqueue(&mut self, pkt: Packet, now: Nanos) -> bool {
        ScheduleTree::enqueue(self, pkt, now).is_ok()
    }

    fn dequeue(&mut self, now: Nanos) -> Option<Packet> {
        ScheduleTree::dequeue(self, now)
    }

    fn next_ready(&self, _now: Nanos) -> Option<Nanos> {
        self.next_shaping_event()
    }

    fn backlog(&self) -> usize {
        self.len()
    }

    fn name(&self) -> &str {
        self.node_name(self.root())
    }
}

/// A port's tree with the shared pool its drain holds (`None` for a
/// tree that owns its pool): what `Switch::run` hands each operation, so
/// no tree operation locks.
pub(crate) struct LentTree<'a, 'p> {
    pub(crate) tree: &'a mut ScheduleTree,
    pub(crate) pool: Option<&'a mut LentPool<'p>>,
}

impl LentTree<'_, '_> {
    /// The pool the tree buffers in.
    pub(crate) fn pool(&self) -> &SharedPacketPool {
        match (&self.pool, self.tree.pool_handle()) {
            (Some(pool), _) => pool,
            (None, TreePool::Owned(pool)) => pool,
            (None, TreePool::Shared(h)) => {
                panic!("port {}: drained without its shared pool", h.port())
            }
        }
    }
}

impl PortScheduler for LentTree<'_, '_> {
    fn enqueue(&mut self, pkt: Packet, now: Nanos) -> bool {
        let pool = self.pool.as_deref_mut();
        self.tree.enqueue_lent(pool, pkt, now).is_ok()
    }

    fn dequeue(&mut self, now: Nanos) -> Option<Packet> {
        self.tree.dequeue_lent(self.pool.as_deref_mut(), now)
    }

    fn next_ready(&self, _now: Nanos) -> Option<Nanos> {
        self.tree.next_shaping_event()
    }

    fn backlog(&self) -> usize {
        self.tree.len()
    }

    fn name(&self) -> &str {
        self.tree.node_name(self.tree.root())
    }
}

impl PortScheduler for TreeScheduler {
    fn enqueue(&mut self, pkt: Packet, now: Nanos) -> bool {
        let admitted = PortScheduler::enqueue(&mut self.tree, pkt, now);
        if !admitted {
            self.drops += 1;
        }
        admitted
    }

    fn dequeue(&mut self, now: Nanos) -> Option<Packet> {
        self.tree.dequeue(now)
    }

    fn next_ready(&self, now: Nanos) -> Option<Nanos> {
        self.tree.next_ready(now)
    }

    fn backlog(&self) -> usize {
        self.tree.len()
    }

    fn name(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pifo_algos::Fifo;

    fn fifo_tree(limit: usize) -> ScheduleTree {
        let mut b = TreeBuilder::new();
        let root = b.add_root("fifo", Box::new(Fifo));
        b.buffer_limit(limit);
        b.build(Box::new(move |_| root)).unwrap()
    }

    #[test]
    fn adapter_round_trips_packets() {
        let mut s = TreeScheduler::new("fifo", fifo_tree(10));
        assert!(s.enqueue(Packet::new(1, FlowId(0), 100, Nanos(0)), Nanos(0)));
        assert_eq!(s.backlog(), 1);
        let p = s.dequeue(Nanos(1)).unwrap();
        assert_eq!(p.id.0, 1);
        assert_eq!(s.backlog(), 0);
        assert_eq!(s.name(), "fifo");
    }

    #[test]
    fn adapter_counts_drops() {
        let mut s = TreeScheduler::new("fifo", fifo_tree(1));
        assert!(s.enqueue(Packet::new(1, FlowId(0), 100, Nanos(0)), Nanos(0)));
        assert!(!s.enqueue(Packet::new(2, FlowId(0), 100, Nanos(0)), Nanos(0)));
        assert_eq!(s.drops(), 1);
    }

    /// The scheduler adapter is backend-agnostic end to end: an identical
    /// STFQ workload driven through the real port loop departs in the
    /// same order on every PIFO engine.
    #[test]
    fn tree_scheduler_is_backend_invariant() {
        use crate::port::{run_port, PortConfig};
        use crate::traffic::{CbrSource, TrafficSource};
        use pifo_algos::{Stfq, WeightTable};

        let run = |backend: PifoBackend| -> Vec<(u64, u64)> {
            let end = Nanos::from_millis(1);
            let mut sources: Vec<Box<dyn TrafficSource>> = Vec::new();
            for f in 1..=3u32 {
                sources.push(Box::new(CbrSource::new(
                    FlowId(f),
                    1_000,
                    4_000_000_000,
                    Nanos::ZERO,
                    end,
                )));
            }
            let mut arrivals = crate::traffic::merge(sources);
            crate::traffic::renumber(&mut arrivals);

            let table = WeightTable::from_pairs([(FlowId(1), 1), (FlowId(2), 2), (FlowId(3), 4)]);
            let mut b = TreeBuilder::new();
            b.with_backend(backend);
            let root = b.add_root("WFQ", Box::new(Stfq::new(table)));
            b.buffer_limit(10_000);
            let tree = b.build(Box::new(move |_| root)).unwrap();
            let mut sched = TreeScheduler::new("WFQ", tree);
            let cfg = PortConfig::new(2_000_000_000).with_horizon(end);
            run_port(&arrivals, &mut sched, &cfg)
                .into_iter()
                .map(|d| (d.packet.id.0, d.finish.as_nanos()))
                .collect()
        };

        let reference = run(PifoBackend::SortedArray);
        assert!(
            !reference.is_empty(),
            "workload must actually depart packets"
        );
        for backend in [PifoBackend::Heap, PifoBackend::Bucket] {
            assert_eq!(
                run(backend),
                reference,
                "{backend} departure trace diverges"
            );
        }
    }

    /// A work-conserving tree driven through the real port loop never
    /// touches the shaping agenda: the whole enqueue/dequeue hot path is
    /// free of shaping inspections end to end, not just in unit tests.
    #[test]
    fn work_conserving_port_run_never_inspects_shaping() {
        use crate::port::{run_port, PortConfig};
        use crate::traffic::{CbrSource, TrafficSource};
        use pifo_algos::{Stfq, WeightTable};

        let end = Nanos::from_millis(1);
        let sources: Vec<Box<dyn TrafficSource>> = (1..=3u32)
            .map(|f| {
                Box::new(CbrSource::new(
                    FlowId(f),
                    1_000,
                    3_000_000_000,
                    Nanos::ZERO,
                    end,
                )) as Box<dyn TrafficSource>
            })
            .collect();
        let mut arrivals = crate::traffic::merge(sources);
        crate::traffic::renumber(&mut arrivals);

        let mut b = TreeBuilder::new();
        let root = b.add_root(
            "WFQ",
            Box::new(Stfq::new(WeightTable::from_pairs([
                (FlowId(1), 1),
                (FlowId(2), 2),
                (FlowId(3), 4),
            ]))),
        );
        let tree = b.build(Box::new(move |_| root)).unwrap();
        let mut sched = TreeScheduler::new("WFQ", tree);
        let deps = run_port(
            &arrivals,
            &mut sched,
            &PortConfig::new(2_000_000_000).with_horizon(end),
        );
        assert!(!deps.is_empty(), "workload departs packets");
        assert_eq!(
            sched.tree().shaping_inspections(),
            0,
            "no shaper in the tree, so the agenda must never be examined"
        );
    }

    #[test]
    fn next_ready_reports_shaping_gap() {
        use pifo_algos::TokenBucketFilter;
        let mut b = TreeBuilder::new();
        let root = b.add_root("root", Box::new(Fifo));
        let leaf = b.add_child(root, "shaped", Box::new(Fifo));
        // 8 Gb/s = 1 B/ns, burst one 1000 B packet.
        b.set_shaper(leaf, Box::new(TokenBucketFilter::new(8_000_000_000, 1_000)));
        let tree = b.build(Box::new(move |_| leaf)).unwrap();
        let mut s = TreeScheduler::new("shaped", tree);

        s.enqueue(Packet::new(0, FlowId(0), 1_000, Nanos(0)), Nanos(0));
        s.enqueue(Packet::new(1, FlowId(0), 1_000, Nanos(0)), Nanos(0));
        // First packet passes the burst; drain it.
        assert!(s.dequeue(Nanos(0)).is_some());
        // Second is shaped 1000 ns out.
        assert!(s.dequeue(Nanos(1)).is_none());
        assert_eq!(s.next_ready(Nanos(1)), Some(Nanos(1_000)));
        assert!(s.dequeue(Nanos(1_000)).is_some());
    }
}
