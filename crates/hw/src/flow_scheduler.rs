//! The flow scheduler (§5.2, Fig 12): a small array, held in flip-flops,
//! of **per-flow head elements**, kept sorted by rank across *all* logical
//! PIFOs of the block.
//!
//! Hardware operation per §5.2:
//!
//! * **push** — compare the incoming rank against all entries in parallel,
//!   priority-encode the first 0→1 transition, shift and insert;
//! * **pop(lpifo)** — compare all entries' logical PIFO ids in parallel,
//!   priority-encode the first match, remove by shifting.
//!
//! The software model keeps a sorted `Vec` and performs the same
//! insert/scan; the sizes involved (≤ 2048 entries, Table 2) make the
//! linear scan an honest stand-in for the parallel comparators.
//!
//! **Ties.** Equal-rank heads pop in flow-scheduler *insertion* order.
//! A flow's next element is inserted when it becomes the head, after its
//! predecessor pops, so it queues behind every equal-rank head already
//! present — even one pushed into the block later than it. That departs
//! from a single PIFO's FIFO tie-break across flows. The software
//! decomposition, `pifo_core::pifo::FlowPifo`, keys each head by its
//! element's *original* push sequence number instead, which is why it
//! pops in exactly the sorted reference's order.
//!
//! PFC pause masking (§6.2) is supported: paused flows are skipped by the
//! pop's priority encoder and resume transparently.

use crate::config::LogicalPifoId;
use crate::error::HwError;
use pifo_core::prelude::*;
use std::collections::HashSet;

/// One flow-scheduler entry: the head element of a (logical PIFO, flow).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowEntry {
    /// Rank of the flow's head element.
    pub rank: Rank,
    /// The logical PIFO this flow belongs to.
    pub lpifo: LogicalPifoId,
    /// The flow.
    pub flow: FlowId,
    /// Metadata of the head element.
    pub meta: u64,
}

/// The sorted array of flow heads.
#[derive(Debug)]
pub struct FlowScheduler {
    entries: Vec<(FlowEntry, u64)>, // (entry, seq) sorted by (rank, seq)
    capacity: usize,
    seq: u64,
    paused: HashSet<FlowId>,
}

impl FlowScheduler {
    /// A flow scheduler with room for `capacity` flows.
    pub fn new(capacity: usize) -> Self {
        FlowScheduler {
            entries: Vec::with_capacity(capacity),
            capacity,
            seq: 0,
            paused: HashSet::new(),
        }
    }

    /// Number of entries (active flows).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no flow is active.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Capacity in flows.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Insert a flow-head entry (parallel compare + priority encode +
    /// shift, Fig 13 stage 1–2). Equal ranks keep insertion order (see
    /// the module docs on ties).
    pub fn push(&mut self, e: FlowEntry) -> Result<(), HwError> {
        if self.entries.len() >= self.capacity {
            return Err(HwError::FlowSchedulerFull);
        }
        let idx = self.entries.partition_point(|(x, _)| x.rank <= e.rank);
        self.entries.insert(idx, (e, self.seq));
        self.seq += 1;
        Ok(())
    }

    /// Pop the head-most entry of `lpifo` (skipping PFC-paused flows).
    pub fn pop(&mut self, lpifo: LogicalPifoId) -> Option<FlowEntry> {
        let idx = self
            .entries
            .iter()
            .position(|(e, _)| e.lpifo == lpifo && !self.paused.contains(&e.flow))?;
        Some(self.entries.remove(idx).0)
    }

    /// Peek the head-most entry of `lpifo` without removing it.
    pub fn peek(&self, lpifo: LogicalPifoId) -> Option<&FlowEntry> {
        self.entries
            .iter()
            .map(|(e, _)| e)
            .find(|e| e.lpifo == lpifo && !self.paused.contains(&e.flow))
    }

    /// True if `(lpifo, flow)` currently has a head entry in the array.
    pub fn contains(&self, lpifo: LogicalPifoId, flow: FlowId) -> bool {
        self.entries
            .iter()
            .any(|(e, _)| e.lpifo == lpifo && e.flow == flow)
    }

    /// PFC (§6.2): mask `flow` out of dequeue consideration.
    pub fn pause(&mut self, flow: FlowId) {
        self.paused.insert(flow);
    }

    /// PFC (§6.2): unmask `flow`.
    pub fn resume(&mut self, flow: FlowId) {
        self.paused.remove(&flow);
    }

    /// Whether `flow` is currently paused.
    pub fn is_paused(&self, flow: FlowId) -> bool {
        self.paused.contains(&flow)
    }

    /// Iterate entries in rank order (tests/introspection).
    pub fn iter(&self) -> impl Iterator<Item = &FlowEntry> {
        self.entries.iter().map(|(e, _)| e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(rank: u64, lpifo: u16, flow: u32) -> FlowEntry {
        FlowEntry {
            rank: Rank(rank),
            lpifo: LogicalPifoId(lpifo),
            flow: FlowId(flow),
            meta: rank * 10,
        }
    }

    #[test]
    fn pop_returns_lowest_rank_of_lpifo() {
        let mut fs = FlowScheduler::new(8);
        fs.push(e(30, 0, 1)).unwrap();
        fs.push(e(10, 0, 2)).unwrap();
        fs.push(e(20, 1, 3)).unwrap();
        assert_eq!(fs.pop(LogicalPifoId(0)).unwrap().rank, Rank(10));
        assert_eq!(fs.pop(LogicalPifoId(0)).unwrap().rank, Rank(30));
        assert!(fs.pop(LogicalPifoId(0)).is_none());
        assert_eq!(fs.pop(LogicalPifoId(1)).unwrap().rank, Rank(20));
    }

    #[test]
    fn entries_of_different_lpifos_share_one_sorted_array() {
        // §5.2: "we keep elements sorted by rank, regardless of which
        // logical PIFO they belong to".
        let mut fs = FlowScheduler::new(8);
        fs.push(e(5, 1, 1)).unwrap();
        fs.push(e(3, 0, 2)).unwrap();
        fs.push(e(4, 1, 3)).unwrap();
        let ranks: Vec<u64> = fs.iter().map(|x| x.rank.value()).collect();
        assert_eq!(ranks, vec![3, 4, 5]);
    }

    #[test]
    fn equal_ranks_fifo() {
        let mut fs = FlowScheduler::new(8);
        fs.push(e(7, 0, 1)).unwrap();
        fs.push(e(7, 0, 2)).unwrap();
        assert_eq!(fs.pop(LogicalPifoId(0)).unwrap().flow, FlowId(1));
        assert_eq!(fs.pop(LogicalPifoId(0)).unwrap().flow, FlowId(2));
    }

    #[test]
    fn capacity_enforced() {
        let mut fs = FlowScheduler::new(2);
        fs.push(e(1, 0, 1)).unwrap();
        fs.push(e(2, 0, 2)).unwrap();
        assert_eq!(fs.push(e(3, 0, 3)), Err(HwError::FlowSchedulerFull));
        assert_eq!(fs.len(), 2);
    }

    #[test]
    fn pfc_pause_masks_flow_and_resume_restores() {
        let mut fs = FlowScheduler::new(8);
        fs.push(e(1, 0, 1)).unwrap();
        fs.push(e(2, 0, 2)).unwrap();
        fs.pause(FlowId(1));
        assert!(fs.is_paused(FlowId(1)));
        // The paused flow is skipped even though it has the lowest rank.
        assert_eq!(fs.peek(LogicalPifoId(0)).unwrap().flow, FlowId(2));
        assert_eq!(fs.pop(LogicalPifoId(0)).unwrap().flow, FlowId(2));
        fs.resume(FlowId(1));
        assert_eq!(fs.pop(LogicalPifoId(0)).unwrap().flow, FlowId(1));
    }

    #[test]
    fn pause_all_means_none_ready() {
        let mut fs = FlowScheduler::new(8);
        fs.push(e(1, 0, 1)).unwrap();
        fs.pause(FlowId(1));
        assert!(fs.pop(LogicalPifoId(0)).is_none());
        assert_eq!(fs.len(), 1, "masked, not removed");
    }

    #[test]
    fn contains_tracks_membership() {
        let mut fs = FlowScheduler::new(8);
        assert!(!fs.contains(LogicalPifoId(0), FlowId(1)));
        fs.push(e(1, 0, 1)).unwrap();
        assert!(fs.contains(LogicalPifoId(0), FlowId(1)));
        fs.pop(LogicalPifoId(0));
        assert!(!fs.contains(LogicalPifoId(0), FlowId(1)));
    }
}
