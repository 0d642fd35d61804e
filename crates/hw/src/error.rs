//! Errors surfaced by the hardware model.

use crate::config::{BlockId, LogicalPifoId};
use core::fmt;
use pifo_core::tree::NodeId;

/// Failure modes of block/mesh operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HwError {
    /// The rank store has no free cells.
    RankStoreFull,
    /// The flow scheduler's sorted array is full (too many active flows).
    FlowSchedulerFull,
    /// A flow id beyond the configured flow count.
    FlowOutOfRange,
    /// A logical PIFO id beyond the configured count.
    LpifoOutOfRange(LogicalPifoId),
    /// A block id beyond the mesh size.
    BlockOutOfRange(BlockId),
    /// The per-cycle enqueue port of a block is already claimed.
    EnqueuePortBusy(BlockId),
    /// The per-cycle dequeue port of a block is already claimed.
    DequeuePortBusy(BlockId),
    /// The same logical PIFO was dequeued less than 3 cycles ago (§5.2).
    LpifoDequeueTooSoon(LogicalPifoId),
    /// The classifier sent a packet to no node of the mesh (e.g.
    /// [`NodeId::INVALID`] for an unknown flow).
    UnknownNode(NodeId),
    /// The classifier sent a packet to an interior node.
    NotALeaf(NodeId),
}

impl fmt::Display for HwError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HwError::RankStoreFull => write!(f, "rank store full"),
            HwError::FlowSchedulerFull => write!(f, "flow scheduler full"),
            HwError::FlowOutOfRange => write!(f, "flow id out of range"),
            HwError::LpifoOutOfRange(l) => write!(f, "logical PIFO {l} out of range"),
            HwError::BlockOutOfRange(b) => write!(f, "block {b} out of range"),
            HwError::EnqueuePortBusy(b) => write!(f, "enqueue port of {b} busy this cycle"),
            HwError::DequeuePortBusy(b) => write!(f, "dequeue port of {b} busy this cycle"),
            HwError::LpifoDequeueTooSoon(l) => {
                write!(f, "logical PIFO {l} dequeued less than 3 cycles ago")
            }
            HwError::UnknownNode(n) => write!(f, "classifier routed a packet to unknown node {n}"),
            HwError::NotALeaf(n) => write!(f, "classifier routed a packet to non-leaf {n}"),
        }
    }
}

impl std::error::Error for HwError {}
