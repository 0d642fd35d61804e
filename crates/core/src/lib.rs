//! # pifo-core
//!
//! Core abstractions of *Programmable Packet Scheduling at Line Rate*
//! (SIGCOMM 2016): the push-in first-out queue (PIFO) and the programming
//! model built on it — scheduling transactions, trees of transactions, and
//! shaping transactions.
//!
//! The paper's central observation: every scheduling algorithm decides
//! (1) in what **order** packets leave and (2) at what **time** — and for
//! many algorithms both decisions can be made at *enqueue*. A PIFO stores
//! that decision: elements push in at an arbitrary rank-determined
//! position, but always pop from the head.
//!
//! ## Layout
//!
//! * [`pifo`] — the PIFO contract ([`pifo::PifoQueue`]) and its
//!   interchangeable backends: [`pifo::SortedArrayPifo`] (reference
//!   semantics), [`pifo::HeapPifo`] (binary heap) and
//!   [`pifo::BucketPifo`] (Eiffel-style FFS bucket calendar, the
//!   default).
//!   [`pifo::PifoBackend`] selects one at runtime as a statically
//!   dispatched [`pifo::EnumPifo`]; see the module docs for the
//!   "choosing a backend" table. [`pifo::FlowPifo`] is Fig 12's
//!   flow-head decomposition, which tree nodes with per-flow monotone
//!   ranks run on the heap and bucket backends.
//! * [`approx`] — deliberately inexact engines behind the same contract:
//!   [`approx::SpPifo`] (k strict-priority FIFOs, SP-PIFO bound
//!   adaptation), and [`approx::GatedFifo`], one FIFO behind a rank
//!   admission gate: [`approx::Rifo`] (windowed min/max span gate) and
//!   [`approx::Aifo`] (windowed-quantile gate).
//! * [`metrics`] — rank-inversion scoring: [`metrics::InversionTracker`]
//!   streams inversions/unpifoness per dequeue, and the offline helpers
//!   diff any backend's pop trace against the exact sorted oracle.
//! * [`telemetry`] — fabric observability: the always-on
//!   [`telemetry::FlightRecorder`] ring of compact trace events, opt-in
//!   INT-style per-packet path records in a [`telemetry::PathLog`], sampled
//!   [`telemetry::GaugeSeries`], and the JSON-exportable
//!   [`telemetry::TelemetrySnapshot`].
//! * [`packet`], [`rank`], [`time`] — the vocabulary types.
//! * [`pool`] — the fabric-wide shared memory system (§4, §5.1, §6.1):
//!   one [`pool::SharedPacketPool`] slab behind per-port
//!   [`pool::PoolHandle`]s, with static / Choudhury–Hahne dynamic
//!   threshold admission deciding drops before any enqueue. Packets live
//!   once in the slab; PIFOs circulate 4-byte [`pool::PktHandle`]s.
//! * [`transaction`] — scheduling & shaping transaction traits (§2.1, §2.3).
//! * [`tree`] — trees of transactions with suspend/resume shaping (§2.2–2.3).
//!
//! Algorithm implementations (WFQ/STFQ, HPFQ, LSTF, token buckets, …) live
//! in the companion crate `pifo-algos`; the hardware model in `pifo-hw`.
//!
//! ## Quickstart
//!
//! ```
//! use pifo_core::prelude::*;
//!
//! // A strict-priority scheduler in three lines: rank = packet class.
//! let mut b = TreeBuilder::new();
//! let root = b.add_root(
//!     "strict",
//!     Box::new(FnTransaction::new("strict", |ctx: &EnqCtx| Rank(ctx.packet.class as u64))),
//! );
//! let mut tree = b.build(Box::new(move |_| root)).unwrap();
//!
//! tree.enqueue(Packet::new(0, FlowId(0), 1500, Nanos(0)).with_class(7), Nanos(0)).unwrap();
//! tree.enqueue(Packet::new(1, FlowId(1), 64, Nanos(1)).with_class(0), Nanos(1)).unwrap();
//!
//! // The later, higher-priority packet leaves first.
//! assert_eq!(tree.dequeue(Nanos(2)).unwrap().id.0, 1);
//! ```

#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(missing_docs)]

pub mod approx;
pub mod metrics;
pub mod packet;
pub mod pifo;
pub mod pool;
pub mod rank;
pub mod telemetry;
pub mod time;
pub mod transaction;
pub mod tree;

/// Convenient glob-import of the types nearly every user needs.
pub mod prelude {
    pub use crate::approx::{Aifo, Rifo, SpPifo};
    pub use crate::metrics::{InversionStats, InversionTracker};
    pub use crate::packet::{FlowId, FlowMap, Packet, PacketId};
    pub use crate::pifo::{
        BucketPifo, EnumPifo, FlowPifo, HeapPifo, PifoBackend, PifoFull, PifoQueue, SortedArrayPifo,
    };
    pub use crate::pool::{
        AdmissionPolicy, LentPool, PktHandle, PoolError, PoolGuard, PoolHandle, PoolStats,
        PortPoolStats, SharedPacketPool, SharedPool, Threshold, TreePool,
    };
    pub use crate::rank::{Rank, VT_SHIFT};
    pub use crate::telemetry::{
        EventKind, FlightRecorder, GaugePoint, GaugeSeries, PathHop, PathLog, TelemetryConfig,
        TelemetrySnapshot, TraceEvent,
    };
    pub use crate::time::{bytes_in, tx_time, Nanos};
    pub use crate::transaction::{
        DeqCtx, EnqCtx, FnTransaction, SchedulingTransaction, ShapingTransaction,
    };
    pub use crate::tree::{
        Classifier, Element, FlowFn, NodeId, ScheduleTree, TreeBuilder, TreeError, TreeNode,
    };
}
