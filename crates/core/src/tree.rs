//! Trees of scheduling and shaping transactions (§2.2–§2.3).
//!
//! A PIFO tree encodes the *instantaneous scheduling order* of a
//! hierarchical algorithm (Fig 2): each node owns a scheduling PIFO whose
//! elements are packets (at leaves) or references to child PIFOs (at
//! interior nodes). Dequeueing walks from the root, popping one element at
//! each level, until a packet is reached.
//!
//! Enqueueing a packet is one walk up the leaf→root path: at each node it
//! runs the scheduling transaction and pushes, the packet at the leaf and
//! a reference to the child below at each ancestor. A node with a
//! *shaping transaction* suspends the walk (Fig 5): the reference
//! destined for the parent is parked on the shaping agenda, ranked by
//! wall-clock release time, and when that time arrives the same walk
//! resumes, entering at the parked node's parent with the reference.
//!
//! # Zero-copy hot path
//!
//! Packets live **once** in a shared
//! [`SharedPacketPool`] slab, exactly as
//! in the paper's hardware (§4): the PIFOs circulate 8-byte [`Element`]s
//! — a [`PktHandle`] at leaves, a [`NodeId`] reference at interior nodes
//! — instead of full packet clones, and `dequeue` returns the packet by
//! moving it out of its slot. Suspended shaping entries hold a
//! reference-counted handle to the same slot (the hardware equivalently
//! carries element metadata, §4.2), so the whole enqueue→dequeue walk is
//! allocation-free and copies each packet exactly once, on admission.
//! Packet-field reads go straight to the slab, which the tree owns or
//! its drain lends it `&mut` (see [`crate::pool`]), and whole trees are
//! `Send`: a fabric can drain its ports on worker threads.
//!
//! Shaping releases are driven by a single tree-wide min-ordered *agenda*
//! (`(release_time, node, seq)` heap): work-conserving trees pay an O(1)
//! `shaped == 0` check per operation — zero shaping inspections, see
//! [`ScheduleTree::shaping_inspections`] — and shaped trees pay O(log s)
//! per parked entry instead of an O(nodes) scan per call.
//!
//! # Sorting flows, not packets
//!
//! An interior node holds one reference per packet beneath it, but its
//! *flows* are only its children. Where a node's transaction declares
//! per-flow monotone ranks
//! ([`SchedulingTransaction::ranks_monotone_per_flow`], e.g. STFQ) and
//! its backend is the heap or the bucket calendar, the node runs Fig
//! 12's decomposition ([`FlowPifo`](crate::pifo::FlowPifo)'s): a heap of
//! flow heads (its children, or its packets' flows at a leaf) over
//! per-flow FIFOs. A pop then sorts among the node's active flows, not
//! among every buffered element, and the order is exactly the sorted
//! reference's. Every other node — the `SortedArray` reference, the
//! approximate engines, and undeclared transactions such as SRPT, LSTF
//! or EDF — runs the engine its backend names, as an [`EnumPifo`].
//!
//! # One rank store per tree
//!
//! In the paper's PIFO block every logical PIFO mapped to the block
//! shares one rank store, its cells and one free list (§5.2). A tree
//! does the same: each flow-sorting node keeps only its flow scheduler
//! ([`FlowScheduler`]: heads, flow table, push counter), and the cells of
//! every such node's flow FIFOs live in one [`RankStore`] the tree owns.
//! The store only decides which cell holds an element; order is each
//! node's `(rank, push order)`, so departures are what per-node stores
//! gave. The free list is LIFO across the tree, so an enqueue walk
//! reuses the cells the previous dequeue walk freed, still in cache, and
//! the store grows to the tree's peak of resident elements, not to the
//! sum of every node's peak.
//!
//! # Invariants
//!
//! * Work-conserving subtrees: a node's scheduling-PIFO length equals the
//!   number of packets buffered in its subtree minus references currently
//!   held back by shapers strictly below it.
//! * Dequeue never pops a reference to an empty child (checked; a failure
//!   is a bug in this module, not in user code).
//! * All shaped elements whose release time has passed are released before
//!   any enqueue/dequeue at a later wall-clock time is processed.
//! * Slab accounting: the tree's port occupancy `== len() +
//!   shaped_refs_holding_packets()`, and the slab's free list is whole
//!   again once the tree fully drains (no leaked slots). Likewise the
//!   rank store's live cells equal the elements its flow-sorting nodes
//!   hold, and its free list holds every cell it ever allocated once the
//!   tree drains.
//! * A node sorts flow heads only if its transaction declared per-flow
//!   monotone ranks; a push that breaks the declaration panics instead
//!   of mis-ordering. Either way the node pops in the reference's
//!   `(rank, push order)` order.

use crate::metrics::{InversionStats, InversionTracker};
use crate::packet::{FlowId, Packet};
use crate::pifo::{EnumPifo, FlowScheduler, PifoBackend, PifoQueue, RankStore};
use crate::pool::{AdmissionPolicy, LentPool, PktHandle, PoolHandle, SharedPacketPool, TreePool};
use crate::rank::Rank;
use crate::telemetry::{
    drop_reason, EventKind, FlightRecorder, PathLog, PathRecorder, TelemetryConfig, TraceEvent,
};
use crate::time::Nanos;
use crate::transaction::{DeqCtx, EnqCtx, SchedulingTransaction, ShapingTransaction};
use core::fmt;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Identifies a node within one [`ScheduleTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The flow identifier this node presents to its parent's transaction.
    ///
    /// At an interior node, elements are grouped per *child* — e.g.
    /// WFQ_Root in Fig 3 treats `Left` and `Right` as its two flows — so
    /// the child's node id doubles as the flow id at the parent.
    pub fn as_flow(self) -> FlowId {
        FlowId(self.0)
    }

    /// Raw index (stable for the lifetime of the tree).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// A sentinel id that never names a real node.
    ///
    /// Classifiers return this for packets that belong to no leaf (e.g. an
    /// unknown flow); `enqueue` reports it as [`TreeError::UnknownNode`]
    /// instead of silently misrouting the packet.
    pub const INVALID: NodeId = NodeId(u32::MAX);

    /// Construct a `NodeId` from a raw index.
    ///
    /// Node ids are assigned densely in the order of
    /// [`TreeBuilder::add_root`]/[`TreeBuilder::add_child`] calls (root
    /// first). Builder helpers (e.g. `pifo-algos`' tree constructors) use
    /// this to wire classifiers before the tree exists; an id that does not
    /// name a real node of the final tree is caught at `enqueue` as
    /// [`TreeError::UnknownNode`].
    ///
    /// # Panics
    ///
    /// Panics if `index` cannot name a real node (it exceeds
    /// `u32::MAX - 1`), so a construction mistake surfaces at the call
    /// site rather than as a confusing `UnknownNode` much later. Use
    /// [`NodeId::try_from_index`] for a non-panicking variant and
    /// [`NodeId::INVALID`] for an explicit "no such node" sentinel.
    pub fn from_index(index: usize) -> NodeId {
        NodeId::try_from_index(index).unwrap_or_else(|| {
            panic!(
                "NodeId::from_index({index}): index out of range (node ids are dense u32s \
                 below {}; use NodeId::INVALID for a deliberate sentinel)",
                u32::MAX
            )
        })
    }

    /// Construct a `NodeId` from a raw index, returning `None` when the
    /// index is out of the representable node-id range.
    pub fn try_from_index(index: usize) -> Option<NodeId> {
        u32::try_from(index)
            .ok()
            .filter(|&v| v != u32::MAX)
            .map(NodeId)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// An element stored in a scheduling PIFO: a packet at a leaf, a reference
/// to a child PIFO at an interior node (Fig 2).
///
/// Mirrors the hardware's small PIFO entries (§4, Fig 6): the packet
/// itself lives in the tree's shared [`SharedPacketPool`], so this is a
/// `Copy` type two words wide and PIFO pushes never move packet bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Element {
    /// A handle to a buffered packet (leaf PIFOs only).
    Packet(PktHandle),
    /// A reference to a child node's scheduling PIFO.
    Ref(NodeId),
}

/// A walk parked at a shaping transaction, waiting on the tree-wide
/// agenda for its release time.
///
/// The entry holds a reference-counted handle into the shared packet
/// buffer so the parent's scheduling transaction can read the triggering
/// packet's fields when the walk resumes — the hardware equivalently
/// carries element metadata (§4.2). Ordering is the derived lexicographic
/// `(release, node, seq, ..)`: release time first, ties broken by node
/// index, then FIFO within a node via the globally monotone `seq` (which
/// also makes the trailing `handle` irrelevant to the order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct AgendaEntry {
    release: u64,
    node: u32,
    seq: u64,
    handle: PktHandle,
}

/// Errors surfaced by tree construction and use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// The tree has no nodes.
    Empty,
    /// A shaper was attached to the root (there is no parent to release to).
    ShaperOnRoot,
    /// The classifier returned a non-leaf node for a packet.
    NotALeaf(NodeId),
    /// The shared packet buffer is exhausted; the packet was dropped.
    BufferFull(Packet),
    /// A node id from a different tree (or out of range) was used.
    UnknownNode(NodeId),
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::Empty => write!(f, "tree has no nodes"),
            TreeError::ShaperOnRoot => write!(f, "shaping transaction attached to the root"),
            TreeError::NotALeaf(n) => write!(f, "classifier routed a packet to non-leaf {n}"),
            TreeError::BufferFull(p) => write!(f, "buffer full, dropped {}", p.id),
            TreeError::UnknownNode(n) => write!(f, "unknown node {n}"),
        }
    }
}

impl std::error::Error for TreeError {}

/// A function mapping a packet to the flow it belongs to at a leaf node.
/// Defaults to `packet.flow` when not overridden. `Send` so trees can
/// migrate to worker threads (see `pifo-sim`'s parallel fabric drain).
pub type FlowFn = Box<dyn Fn(&Packet) -> FlowId + Send>;

/// A function mapping a packet to the leaf node that should buffer it —
/// the composition of all packet predicates down one root-to-leaf path
/// (Fig 3b's `p.class == Left` etc.). `Send` like [`FlowFn`].
pub type Classifier = Box<dyn Fn(&Packet) -> NodeId + Send>;

/// One node of a tree description: its name, its parent (`None` for the
/// root), its scheduling transaction and optional shaping transaction
/// (§2.2–§2.3), and an optional leaf flow function. Plain data — children
/// are derived from the parents when the description is built, and the
/// PIFO engine is the builder's, not the node's.
pub struct TreeNode {
    /// Display name (e.g. `WFQ_Root`).
    pub name: String,
    /// Parent node; every parent precedes its children.
    pub parent: Option<NodeId>,
    /// The node's scheduling transaction.
    pub sched: Box<dyn SchedulingTransaction>,
    /// The node's shaping transaction, if any (never on the root).
    pub shaper: Option<Box<dyn ShapingTransaction>>,
    /// How packets map to flows at this leaf; `None` means `packet.flow`.
    pub flow_fn: Option<FlowFn>,
}

struct Node {
    name: String,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    sched: Box<dyn SchedulingTransaction>,
    shaper: Option<Box<dyn ShapingTransaction>>,
    flow_fn: Option<FlowFn>,
    sched_pifo: SchedPifo,
}

/// A node's scheduling PIFO, statically dispatched so hot-path push/pop
/// monomorphize: Fig 12's flow-head decomposition where the node's
/// transaction declares per-flow monotone ranks and its backend is the
/// heap or the bucket calendar; the backend's own engine otherwise.
/// Every `Flows` node keeps its flow FIFOs in the tree's one
/// [`RankStore`], which each call passes in (an `Engine` ignores it).
enum SchedPifo {
    Engine(EnumPifo<Element>),
    Flows(FlowScheduler),
}

impl SchedPifo {
    fn new(backend: PifoBackend, sched: &dyn SchedulingTransaction) -> Self {
        let exact_fast = matches!(backend, PifoBackend::Heap | PifoBackend::Bucket);
        if exact_fast && sched.ranks_monotone_per_flow() {
            SchedPifo::Flows(FlowScheduler::new())
        } else {
            SchedPifo::Engine(backend.make_enum())
        }
    }

    /// Push an element of `flow` (the transaction's `EnqCtx::flow`).
    #[inline]
    fn push(&mut self, store: &mut RankStore<Element>, flow: FlowId, rank: Rank, elem: Element) {
        match self {
            SchedPifo::Engine(q) => q.push(rank, elem),
            SchedPifo::Flows(q) => q.push(store, flow, rank, elem),
        }
    }

    #[inline]
    fn pop(&mut self, store: &mut RankStore<Element>) -> Option<(Rank, Element)> {
        match self {
            SchedPifo::Engine(q) => q.pop(),
            SchedPifo::Flows(q) => q.pop(store),
        }
    }

    #[inline]
    fn peek<'a>(&'a self, store: &'a RankStore<Element>) -> Option<(Rank, &'a Element)> {
        match self {
            SchedPifo::Engine(q) => q.peek(),
            SchedPifo::Flows(q) => q.peek(store),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        match self {
            SchedPifo::Engine(q) => q.len(),
            SchedPifo::Flows(q) => q.len(),
        }
    }

    fn iter_in_order<'a>(
        &'a self,
        store: &'a RankStore<Element>,
    ) -> Box<dyn Iterator<Item = (Rank, &'a Element)> + 'a> {
        match self {
            SchedPifo::Engine(q) => q.iter_in_order(),
            SchedPifo::Flows(q) => Box::new(q.iter_in_order(store)),
        }
    }
}

/// Builder for [`ScheduleTree`].
///
/// ```
/// use pifo_core::prelude::*;
///
/// // Single-node tree = one PIFO with one scheduling transaction (§2.1).
/// let mut b = TreeBuilder::new();
/// b.with_backend(PifoBackend::Bucket); // any engine; semantics identical
/// let root = b.add_root("fifo", Box::new(FnTransaction::new("fifo", |ctx: &EnqCtx| {
///     Rank(ctx.now.as_nanos())
/// })));
/// let mut tree = b.build(Box::new(move |_p| root)).unwrap();
/// tree.enqueue(Packet::new(0, FlowId(1), 100, Nanos(5)), Nanos(5)).unwrap();
/// assert_eq!(tree.len(), 1);
/// assert_eq!(tree.node_backend(root), PifoBackend::Bucket);
/// ```
pub struct TreeBuilder {
    nodes: Vec<TreeNode>,
    buffer_limit: Option<usize>,
    backend: PifoBackend,
    track_inversions: bool,
}

impl Default for TreeBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TreeBuilder {
    /// An empty builder using [`PifoBackend::default`] — the bucket
    /// calendar, whose per-packet cost does not grow with the backlog.
    /// Tests that compare
    /// *against* a reference name [`PifoBackend::SortedArray`] through
    /// [`with_backend`](Self::with_backend).
    pub fn new() -> Self {
        TreeBuilder {
            nodes: Vec::new(),
            buffer_limit: None,
            backend: PifoBackend::default(),
            track_inversions: false,
        }
    }

    /// Score every root-level dequeue against the smallest rank still
    /// waiting in the root PIFO (inversions, unpifoness, max regression
    /// — see [`InversionTracker`]). Off by default; when off the hot
    /// path carries no tracking cost at all.
    pub fn track_inversions(&mut self, enabled: bool) -> &mut Self {
        self.track_inversions = enabled;
        self
    }

    /// Select the queue engine backing every node's scheduling PIFO. May
    /// be called before or after nodes are added — the choice is applied
    /// when [`build`](Self::build) instantiates the queues.
    pub fn with_backend(&mut self, backend: PifoBackend) -> &mut Self {
        self.backend = backend;
        self
    }

    /// Limit the number of packets resident in the tree's shared
    /// [`SharedPacketPool`] slab — the model of §5.1's shared packet buffer
    /// (60 K packets); beyond it, [`ScheduleTree::enqueue`] returns
    /// [`TreeError::BufferFull`].
    ///
    /// Residency is what the buffer physically holds, which is normally
    /// exactly [`ScheduleTree::len`]. The one exception: a shaped
    /// reference whose packet already departed through an earlier
    /// reference keeps its slot until the shaper releases it (see
    /// [`ScheduleTree::shaped_refs_holding_packets`]), and such slots
    /// count against the limit — a genuinely full buffer rejects, like
    /// the hardware's.
    pub fn buffer_limit(&mut self, packets: usize) -> &mut Self {
        self.buffer_limit = Some(packets);
        self
    }

    /// Add the root node with its scheduling transaction.
    ///
    /// # Panics
    ///
    /// Panics if a root already exists (programming error in tree setup).
    pub fn add_root(&mut self, name: &str, sched: Box<dyn SchedulingTransaction>) -> NodeId {
        assert!(self.nodes.is_empty(), "tree already has a root");
        self.push(name, None, sched)
    }

    /// Add a child of `parent` with its scheduling transaction.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not a node of this builder.
    pub fn add_child(
        &mut self,
        parent: NodeId,
        name: &str,
        sched: Box<dyn SchedulingTransaction>,
    ) -> NodeId {
        assert!(
            (parent.index()) < self.nodes.len(),
            "unknown parent {parent}"
        );
        self.push(name, Some(parent), sched)
    }

    fn push(
        &mut self,
        name: &str,
        parent: Option<NodeId>,
        sched: Box<dyn SchedulingTransaction>,
    ) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(TreeNode {
            name: name.to_string(),
            parent,
            sched,
            shaper: None,
            flow_fn: None,
        });
        id
    }

    /// Attach a shaping transaction to `node` (§2.3). One shaper per node —
    /// the paper's 1-to-1 scheduling/shaping relationship (§3.5).
    pub fn set_shaper(&mut self, node: NodeId, shaper: Box<dyn ShapingTransaction>) {
        self.nodes[node.index()].shaper = Some(shaper);
    }

    /// Override how packets map to flows at leaf `node` (e.g. HPFQ's leaf
    /// `Left` distinguishing flows A and B).
    pub fn set_flow_fn(&mut self, node: NodeId, f: FlowFn) {
        self.nodes[node.index()].flow_fn = Some(f);
    }

    /// The description so far, root first; every parent precedes its
    /// children. This is what `pifo-compiler` lays out on the mesh.
    pub fn nodes(&self) -> &[TreeNode] {
        &self.nodes
    }

    /// Check that the description is a tree both back-ends can run: it
    /// has a root, and the root has no shaper (there is no parent to
    /// release to). [`build`](Self::build) and
    /// [`into_nodes`](Self::into_nodes) run this check.
    pub fn validate(&self) -> Result<(), TreeError> {
        match self.nodes.first() {
            None => Err(TreeError::Empty),
            Some(root) if root.shaper.is_some() => Err(TreeError::ShaperOnRoot),
            Some(_) => Ok(()),
        }
    }

    /// Take the validated description apart into its nodes, for a
    /// back-end other than [`ScheduleTree`] (the compiled PIFO mesh).
    pub fn into_nodes(self) -> Result<Vec<TreeNode>, TreeError> {
        self.validate()?;
        Ok(self.nodes)
    }

    /// Finish construction. `classifier` maps each packet to its leaf.
    /// The selected PIFO backend(s) are instantiated here, so the
    /// resulting tree never names a concrete queue type.
    ///
    /// The tree **owns** its packet pool: a fresh single-port
    /// [`SharedPacketPool`] whose only admission gate is the builder's
    /// [`buffer_limit`](Self::buffer_limit), reached without a lock. Use
    /// [`build_in_pool`](Self::build_in_pool) to share one pool (and its
    /// §6.1 admission thresholds) across many trees.
    ///
    /// # Panics
    ///
    /// Panics if the buffer limit is zero.
    pub fn build(self, classifier: Classifier) -> Result<ScheduleTree, TreeError> {
        let mut pool = match self.buffer_limit {
            Some(cap) => SharedPacketPool::new(cap, AdmissionPolicy::Unlimited)
                .unwrap_or_else(|e| panic!("buffer_limit: {e}")),
            None => SharedPacketPool::unbounded(),
        };
        pool.try_register_port()
            .expect("a fresh pool has room for port 0");
        self.finish(classifier, TreePool::Owned(Box::new(pool)))
    }

    /// Finish construction against a port handle of a shared packet pool
    /// (§5.1's one-buffer-for-all-ports memory system): the tree buffers
    /// every packet in the pool's slab, and the pool's
    /// [`AdmissionPolicy`] — not a private
    /// capacity — decides [`TreeError::BufferFull`] rejects.
    ///
    /// # Panics
    ///
    /// Panics if [`buffer_limit`](Self::buffer_limit) was also set: a
    /// pooled tree's admission belongs to the pool, and silently ignoring
    /// the limit would mask a configuration bug.
    ///
    /// ```
    /// use pifo_core::pool::{AdmissionPolicy, SharedPacketPool};
    /// use pifo_core::prelude::*;
    ///
    /// let pool = SharedPacketPool::new(4, AdmissionPolicy::DynamicThreshold { num: 1, den: 1 })
    ///     .unwrap()
    ///     .into_shared();
    /// let mut trees: Vec<ScheduleTree> = (0..2)
    ///     .map(|_| {
    ///         let mut b = TreeBuilder::new();
    ///         let root = b.add_root("fifo", Box::new(FnTransaction::new("fifo", |ctx: &EnqCtx| {
    ///             Rank(ctx.now.as_nanos())
    ///         })));
    ///         b.build_in_pool(Box::new(move |_| root), pool.register_port()).unwrap()
    ///     })
    ///     .collect();
    ///
    /// trees[0].enqueue(Packet::new(0, FlowId(1), 100, Nanos(0)), Nanos(0)).unwrap();
    /// trees[1].enqueue(Packet::new(1, FlowId(2), 100, Nanos(0)), Nanos(0)).unwrap();
    /// assert_eq!(pool.pool().live(), 2, "both trees buffer in one slab");
    /// ```
    pub fn build_in_pool(
        self,
        classifier: Classifier,
        pool: PoolHandle,
    ) -> Result<ScheduleTree, TreeError> {
        assert!(
            self.buffer_limit.is_none(),
            "buffer_limit sets a tree's own pool; a pooled tree's admission \
             is governed by the shared pool's capacity and policy"
        );
        self.finish(classifier, TreePool::Shared(pool))
    }

    fn finish(self, classifier: Classifier, pool: TreePool) -> Result<ScheduleTree, TreeError> {
        let (backend, track_inversions) = (self.backend, self.track_inversions);
        let described = self.into_nodes()?;
        let mut children = vec![Vec::new(); described.len()];
        for (i, n) in described.iter().enumerate() {
            if let Some(p) = n.parent {
                children[p.index()].push(NodeId::from_index(i));
            }
        }
        let nodes: Vec<Node> = described
            .into_iter()
            .zip(children)
            .map(|(n, children)| Node {
                name: n.name,
                parent: n.parent,
                children,
                sched_pifo: SchedPifo::new(backend, n.sched.as_ref()),
                sched: n.sched,
                shaper: n.shaper,
                flow_fn: n.flow_fn,
            })
            .collect();
        let state = TreeState {
            nodes,
            store: RankStore::new(),
            backend,
            root: NodeId(0),
            classifier,
            port: pool.port() as u16,
            agenda: BinaryHeap::new(),
            agenda_seq: 0,
            buffered: 0,
            shaped: 0,
            dangling_shaped: 0,
            shaping_inspections: 0,
            tracker: track_inversions.then(InversionTracker::new),
            recorder: None,
            paths: None,
            path_log: PathLog::new(),
        };
        Ok(ScheduleTree { state, pool })
    }
}

/// A runnable tree of scheduling and shaping transactions — the complete
/// programming model of §2 in one object.
pub struct ScheduleTree {
    state: TreeState,
    /// The pool this tree buffers in: its own for trees built with
    /// [`TreeBuilder::build`] (whose capacity is the builder's
    /// `buffer_limit`), or one port of a fabric-wide shared pool for
    /// [`TreeBuilder::build_in_pool`].
    pool: TreePool,
}

/// Everything of a tree but its pool, so a tree operation can borrow the
/// two apart: the pool the tree owns, or the one its drain lends it.
struct TreeState {
    nodes: Vec<Node>,
    /// The rank store every `Flows` node's flow FIFOs share (§5.2).
    store: RankStore<Element>,
    /// The builder's engine choice, the same for every node.
    backend: PifoBackend,
    root: NodeId,
    classifier: Classifier,
    /// This tree's port in its pool (trace events name it).
    port: u16,
    /// Tree-wide shaping agenda: every parked walk, globally min-ordered
    /// by `(release, node, seq)`.
    agenda: BinaryHeap<Reverse<AgendaEntry>>,
    agenda_seq: u64,
    buffered: usize,
    shaped: usize,
    /// Parked entries that are the *sole* owner of their buffer slot —
    /// their packet already departed through an earlier reference.
    dangling_shaped: usize,
    shaping_inspections: u64,
    /// When enabled, every root-level dequeue rank is scored for
    /// inversions/unpifoness (O(1) per dequeue). `None` keeps the hot
    /// path tracker-free.
    tracker: Option<InversionTracker>,
    /// Flight recorder for this tree's trace events; `None` keeps every
    /// hook site at a single null check.
    recorder: Option<Box<FlightRecorder>>,
    /// Per-packet path records keyed by pool slot; `None` keeps the hot
    /// path digest-free. Never on without `recorder` (see
    /// [`ScheduleTree::enable_telemetry`]), so hook sites gate both on
    /// `recorder` alone.
    paths: Option<Box<PathRecorder>>,
    /// Where finished path records go: the log a fabric hands in for
    /// the length of a run (see [`ScheduleTree::replace_path_log`]).
    path_log: PathLog,
}

impl fmt::Debug for ScheduleTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = &self.state;
        f.debug_struct("ScheduleTree")
            .field("nodes", &s.nodes.len())
            .field("root", &s.root)
            .field("buffered", &s.buffered)
            .field("shaped", &s.shaped)
            .finish()
    }
}

/// The flow `elem` belongs to at a node ([`EnqCtx::flow`]): a packet's
/// own flow, or the node's override when set, at a leaf; the child at an
/// interior node. A free function (not a `&self` method) so callers can
/// hold `&mut` node borrows alongside the slab borrow.
fn flow_of(flow_fn: &Option<FlowFn>, elem: Element, pool: &SharedPacketPool) -> FlowId {
    match (elem, flow_fn) {
        (Element::Packet(h), Some(f)) => f(pool.get(h)),
        (Element::Packet(h), None) => pool.get(h).flow,
        (Element::Ref(child), _) => child.as_flow(),
    }
}

impl ScheduleTree {
    /// The root node.
    pub fn root(&self) -> NodeId {
        self.state.root
    }

    /// Number of packets currently buffered (across all leaves).
    pub fn len(&self) -> usize {
        self.state.buffered
    }

    /// True when no packet is buffered.
    pub fn is_empty(&self) -> bool {
        self.state.buffered == 0
    }

    /// Number of elements currently held back by shaping transactions.
    pub fn shaped_len(&self) -> usize {
        self.state.shaped
    }

    /// Name given to `node` at construction.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.state.nodes[node.index()].name
    }

    /// Children of `node`, in insertion order.
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        &self.state.nodes[node.index()].children
    }

    /// Parent of `node` (`None` for the root).
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.state.nodes[node.index()].parent
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.state.nodes.len()
    }

    /// The backend selected for `node` (the builder's tree-wide choice).
    ///
    /// What runs is that backend's engine, except at a heap or bucket
    /// node whose transaction declares per-flow monotone ranks: that node
    /// runs [`FlowPifo`](crate::pifo::FlowPifo)'s flow-head decomposition,
    /// which pops in the same order (see the module docs).
    pub fn node_backend(&self, node: NodeId) -> PifoBackend {
        assert!(node.index() < self.state.nodes.len(), "unknown node {node}");
        self.state.backend
    }

    /// Scheduling-PIFO occupancy of `node` (for tests and introspection).
    pub fn sched_pifo_len(&self, node: NodeId) -> usize {
        self.state.nodes[node.index()].sched_pifo.len()
    }

    /// How this tree reaches its packet pool: its port index, and through
    /// [`TreePool::pool`] the pool itself (occupancy, capacity, per-port
    /// counters, coherence checks — see [`SharedPacketPool`]). For a
    /// shared pool `live()` counts every port's packets.
    pub fn pool_handle(&self) -> &TreePool {
        &self.pool
    }

    /// Parked shaping entries that are the sole owner of their buffer
    /// slot: their packet already departed through an earlier reference
    /// to the same leaf, but its header fields are still needed by
    /// ancestor transactions at release time. Together with [`len`](
    /// Self::len) this accounts for every slab slot the tree holds:
    /// `pool_handle().pool().port_occupancy(port) == len() +
    /// shaped_refs_holding_packets()`.
    pub fn shaped_refs_holding_packets(&self) -> usize {
        self.state.dangling_shaped
    }

    /// Number of times [`release_due`](Self::release_due) actually
    /// examined the shaping agenda. Work-conserving trees (no shaper ever
    /// parks an element) stay at 0 forever — the dequeue hot path
    /// performs zero shaping inspections.
    pub fn shaping_inspections(&self) -> u64 {
        self.state.shaping_inspections
    }

    /// Enqueue `packet` at wall-clock time `now`.
    ///
    /// Executes one scheduling transaction per node on the leaf→root path,
    /// suspending at shaping nodes per Fig 5. Any shaped elements whose
    /// release time is ≤ `now` are released first, so external callers can
    /// drive the tree with only `enqueue`/`dequeue` and
    /// [`next_shaping_event`](Self::next_shaping_event).
    ///
    /// **Time contract:** successive calls into one tree should use
    /// non-decreasing `now` values (a switch experiences time forward).
    /// A call at an earlier instant than the last does not corrupt the
    /// structure: shaped elements already released by a later-timed call
    /// stay released, and the transactions see the earlier `now` (a FIFO
    /// ranks the packet before ones already queued; `pifo-algos`' token
    /// buckets refill nothing for it and keep their clock). `pifo-sim`'s
    /// lossless fabric makes such calls: it admits a skid-buffer packet
    /// at its own arrival instant, after its port's tree has run later
    /// rounds.
    ///
    /// A tree in a shared pool takes the pool for the call, and panics,
    /// naming its port, if the pool is in use: a shared pool is never
    /// waited on. The drain it is lent to calls
    /// [`enqueue_lent`](Self::enqueue_lent) instead.
    pub fn enqueue(&mut self, packet: Packet, now: Nanos) -> Result<(), TreeError> {
        self.enqueue_lent(None, packet, now)
    }

    /// [`enqueue`](Self::enqueue), given the shared pool the caller
    /// drains (`lent`, see [`SharedPool::lend`](crate::pool::SharedPool::lend))
    /// so the call takes nothing; `None` reaches the pool as `enqueue`
    /// does.
    ///
    /// # Panics
    ///
    /// Panics if `lent` is not the pool this tree buffers in.
    pub fn enqueue_lent(
        &mut self,
        lent: Option<&mut LentPool<'_>>,
        packet: Packet,
        now: Nanos,
    ) -> Result<(), TreeError> {
        let state = &mut self.state;
        self.pool
            .with(lent, |pool| state.enqueue(pool, packet, now))
    }

    /// Release every shaped element whose wall-clock time has arrived,
    /// resuming the suspended walks in release-time order (ties broken by
    /// node index, then FIFO — the agenda's `(release, node, seq)` order).
    /// A resumed walk may suspend again at a higher shaper; if that
    /// release time has also passed it is processed in the same call.
    ///
    /// Work-conserving trees exit in O(1) on `shaped == 0` without
    /// touching the agenda; shaped trees pay O(log s) per released entry.
    pub fn release_due(&mut self, now: Nanos) {
        if self.state.shaped > 0 {
            let state = &mut self.state;
            self.pool.with(None, |pool| state.release_due(pool, now));
        }
    }

    /// The earliest pending shaping release time, if any. A simulator
    /// should call [`release_due`](Self::release_due) (or any
    /// enqueue/dequeue) at or after this instant. O(1) via the agenda.
    pub fn next_shaping_event(&self) -> Option<Nanos> {
        self.state.agenda.peek().map(|Reverse(e)| Nanos(e.release))
    }

    /// Dequeue the next packet at wall-clock time `now`: walk from the root
    /// popping one element per level until a packet is reached (Fig 2).
    ///
    /// Returns `None` if the root PIFO is empty — which, with shapers, can
    /// happen even while packets are buffered (non-work-conserving). A
    /// shared pool is taken as for [`enqueue`](Self::enqueue).
    pub fn dequeue(&mut self, now: Nanos) -> Option<Packet> {
        self.dequeue_lent(None, now)
    }

    /// [`dequeue`](Self::dequeue), given the shared pool the caller drains
    /// (as for [`enqueue_lent`](Self::enqueue_lent)).
    ///
    /// # Panics
    ///
    /// Panics if `lent` is not the pool this tree buffers in.
    pub fn dequeue_lent(&mut self, lent: Option<&mut LentPool<'_>>, now: Nanos) -> Option<Packet> {
        let state = &mut self.state;
        self.pool.with(lent, |pool| state.dequeue(pool, now))
    }

    /// Switch on per-dequeue rank-inversion tracking from this point
    /// (idempotent — an already-running tracker keeps its counters).
    /// Usually set at build time via [`TreeBuilder::track_inversions`].
    /// Packets already queued when tracking starts are counted as
    /// dequeues but not scored (their root ranks were never observed).
    pub fn enable_inversion_tracking(&mut self) {
        self.state.tracker.get_or_insert_with(InversionTracker::new);
    }

    /// Inversion counters accumulated over every dequeue since tracking
    /// began; `None` when tracking is off. An exact backend always
    /// reports zero inversions here — the root PIFO pops in rank order
    /// by contract — so a non-zero count is the measured cost of an
    /// approximate backend at the root.
    pub fn inversion_stats(&self) -> Option<InversionStats> {
        self.state.tracker.as_ref().map(|t| t.stats())
    }

    /// Zero the inversion counters, keeping tracking enabled (the
    /// tracker's view of what is currently queued is preserved, so
    /// future dequeues keep scoring correctly). No-op when tracking is
    /// off.
    pub fn reset_inversion_stats(&mut self) {
        if let Some(t) = &mut self.state.tracker {
            t.reset();
        }
    }

    /// Switch on telemetry from this point: a flight recorder retaining
    /// the most recent [`TelemetryConfig::RING_CAPACITY`] trace events
    /// (enqueue/dequeue/drop/shaping/pool — see [`EventKind`]) and, when
    /// `cfg.path_records` is set, an INT-style path record per packet:
    /// the hops of its enqueue walk (node, rank, queue depth seen, entry
    /// instant), logged when it leaves the tree (see
    /// [`replace_path_log`](Self::replace_path_log)). Idempotent: a
    /// running recorder keeps its ring and counters, and packets already
    /// buffered get no record.
    /// Off by default; when off every hook site costs one `Option` null
    /// check. A fabric switches it on for every port through
    /// `pifo-sim`'s `SwitchBuilder::with_telemetry`.
    pub fn enable_telemetry(&mut self, cfg: &TelemetryConfig) {
        let s = &mut self.state;
        if s.recorder.is_none() {
            let ring = FlightRecorder::new(TelemetryConfig::RING_CAPACITY);
            s.recorder = Some(Box::new(ring));
        }
        if cfg.path_records && s.paths.is_none() {
            s.paths = Some(Box::new(PathRecorder::for_height(s.height())));
        }
    }

    /// The flight recorder, when enabled (its events, lifetime counts
    /// and JSON dump — see [`FlightRecorder`]).
    pub fn flight_recorder(&self) -> Option<&FlightRecorder> {
        self.state.recorder.as_deref()
    }

    /// Hand the tree the log its finished path records are appended to,
    /// returning the log it held until now. Each record is written once,
    /// into this log, when its packet is dequeued, so record `k` digests
    /// the `k`-th packet dequeued while the log is in; nothing is written
    /// when path records are off. A record holds only its walk's hops:
    /// the packet, its flow and the instants it entered and left are its
    /// departure's (`pifo-sim`'s `PortTrace::path` joins the two). A
    /// fabric hands in a port's log at the start of a run and takes it
    /// back (with an empty one) at the end.
    ///
    /// A log with room for `n` records sizes the run once, rather than
    /// growing while it goes: the log gets room for `n` times the tree's
    /// height in hops, and, when the pool has a slot limit, the tree's
    /// path-record staging room for `n` records in flight, capped by that
    /// limit. A pool without one gives no bound short of `n`, while the
    /// records in flight never outnumber the packets the port holds, so
    /// the staging then grows as it is used. (The fabrics hand in the
    /// empty [`PathLog::new`] at the end of a run, which reserves nothing
    /// and leaves the pool alone.)
    pub fn replace_path_log(&mut self, mut log: PathLog) -> PathLog {
        let expected = log.record_capacity();
        if let Some(paths) = self.state.paths.as_deref_mut().filter(|_| expected > 0) {
            log.reserve_hops(expected.saturating_mul(paths.stride()));
            if let Some(slots) = self.pool.pool().capacity() {
                paths.reserve(expected.min(slots));
            }
        }
        std::mem::replace(&mut self.state.path_log, log)
    }

    /// A copy of the packet that `dequeue` would return *right now*,
    /// without changing any state.
    ///
    /// **No time passes**: due-but-unreleased shaped elements are *not*
    /// released first, so with shapers `peek()` can disagree with
    /// [`dequeue`](Self::dequeue) at a later `now` — `dequeue(now)`
    /// releases everything due at `now` before walking. Use
    /// [`peek_at`](Self::peek_at) to preview what `dequeue(now)` would
    /// return.
    pub fn peek(&self) -> Option<Packet> {
        let mut node = self.state.root;
        let handle = loop {
            let s = &self.state;
            let (_, elem) = s.nodes[node.index()].sched_pifo.peek(&s.store)?;
            match elem {
                Element::Packet(h) => break *h,
                Element::Ref(child) => node = *child,
            }
        };
        Some(self.pool.pool().get(handle).clone())
    }

    /// A copy of the packet [`dequeue`](Self::dequeue)`(now)` would
    /// return: releases every shaped element due at `now` first (which is
    /// why this takes `&mut self`), then walks the root path without
    /// popping. The same non-decreasing time contract as
    /// `enqueue`/`dequeue` applies.
    pub fn peek_at(&mut self, now: Nanos) -> Option<Packet> {
        self.release_due(now);
        self.peek()
    }

    /// Render the instantaneous scheduling order of a node's PIFO as a
    /// debug string, e.g. `"[L@3, R@5, L@7]"` — used by the Fig 2 tests.
    pub fn debug_pifo(&self, node: NodeId) -> String {
        let pool = self.pool.pool();
        let items: Vec<String> = self.state.nodes[node.index()]
            .sched_pifo
            .iter_in_order(&self.state.store)
            .map(|(r, e)| match e {
                Element::Packet(h) => format!("{}@{}", pool.get(*h).id, r),
                Element::Ref(c) => format!("{}@{}", self.node_name(*c), r),
            })
            .collect();
        format!("[{}]", items.join(", "))
    }
}

impl TreeState {
    /// Levels from the deepest node to the root, inclusive: the most
    /// nodes one enqueue walk visits.
    fn height(&self) -> usize {
        let levels = |mut node: NodeId| {
            let mut n = 1;
            while let Some(parent) = self.nodes[node.index()].parent {
                (node, n) = (parent, n + 1);
            }
            n
        };
        (0..self.nodes.len())
            .map(|i| levels(NodeId(i as u32)))
            .max()
            .unwrap_or(1)
    }

    fn enqueue(
        &mut self,
        pool: &mut SharedPacketPool,
        packet: Packet,
        now: Nanos,
    ) -> Result<(), TreeError> {
        self.release_due(pool, now);
        let leaf = (self.classifier)(&packet);
        let (flow, id) = (packet.flow, packet.id.0);
        let (err, reason) = match self.nodes.get(leaf.index()) {
            None => (TreeError::UnknownNode(leaf), drop_reason::UNKNOWN_NODE),
            Some(n) if !n.children.is_empty() => {
                (TreeError::NotALeaf(leaf), drop_reason::NOT_A_LEAF)
            }
            // Admission is the pool insert itself, before any other state
            // changes: a policy or capacity reject hands the caller's
            // packet back unchanged (moved, never cloned).
            Some(_) => match pool.try_insert(self.port as usize, packet) {
                Ok(handle) => {
                    self.buffered += 1;
                    self.walk(pool, leaf, Element::Packet(handle), handle, now);
                    return Ok(());
                }
                Err(packet) => (TreeError::BufferFull(packet), drop_reason::BUFFER_FULL),
            },
        };
        self.emit(EventKind::Drop, now, leaf.0, flow, id, reason);
        Err(err)
    }

    /// The enqueue walk (§2.2, Fig 5): push `elem` into `node`'s
    /// scheduling PIFO, then park at `node`'s shaper or climb to its
    /// parent with `Ref(node)`, until the root. A fresh enqueue enters at
    /// the leaf with `Packet(handle)`; a shaping resume enters at the
    /// parked node's parent with `Ref(parked)` and owns the agenda entry's
    /// slot reference, which it hands on if it parks again and drops at
    /// the root (freeing the slot if the packet already departed).
    fn walk(
        &mut self,
        pool: &mut SharedPacketPool,
        mut node: NodeId,
        mut elem: Element,
        handle: PktHandle,
        now: Nanos,
    ) {
        let owns_ref = matches!(elem, Element::Ref(_));
        let slot = handle.index();
        loop {
            let n = &mut self.nodes[node.index()];
            let flow = flow_of(&n.flow_fn, elem, pool);
            let ctx = EnqCtx {
                packet: pool.get(handle),
                now,
                flow,
            };
            let rank = n.sched.rank(&ctx);
            let depth = n.sched_pifo.len();
            n.sched_pifo.push(&mut self.store, flow, rank, elem);
            let at_leaf = matches!(elem, Element::Packet(_));
            if at_leaf && self.recorder.is_some() {
                self.emit(EventKind::PoolAlloc, now, node.0, flow, slot as u64, 0);
                self.emit(EventKind::Enqueue, now, node.0, flow, rank.0, depth as u32);
            }
            if let Some(paths) = &mut self.paths {
                if at_leaf {
                    paths.begin(slot);
                }
                paths.hop(slot, node.0, rank.0, depth as u32, now);
            }
            if node == self.root {
                // Root pushes feed the inversion tracker: these ranks are
                // the departure schedule the root pops score against.
                if let Some(t) = &mut self.tracker {
                    t.record_push(rank);
                }
            }
            let n = &mut self.nodes[node.index()];
            if let Some(shaper) = &mut n.shaper {
                let flow = flow_of(&n.flow_fn, Element::Packet(handle), pool);
                let release = shaper.send_time(&EnqCtx { flow, ..ctx }).as_nanos();
                if !owns_ref {
                    // The parked entry keeps the packet's fields alive even
                    // if the packet departs through an earlier reference.
                    pool.retain(handle);
                }
                self.agenda.push(Reverse(AgendaEntry {
                    release,
                    node: node.0,
                    seq: self.agenda_seq,
                    handle,
                }));
                self.agenda_seq += 1;
                self.shaped += 1;
                if self.recorder.is_some() {
                    let flow = pool.get(handle).flow;
                    self.emit(
                        EventKind::ShapingPark,
                        now,
                        node.0,
                        flow,
                        release,
                        slot as u32,
                    );
                }
                return; // Suspended: the parent sees nothing until release.
            }
            match n.parent {
                Some(parent) => (node, elem) = (parent, Element::Ref(node)),
                None => {
                    if owns_ref {
                        if let Some(p) = pool.release(handle) {
                            self.dangling_shaped -= 1;
                            self.emit(EventKind::PoolFree, now, node.0, p.flow, slot as u64, 0);
                        }
                    }
                    return;
                }
            }
        }
    }

    /// See [`ScheduleTree::release_due`].
    fn release_due(&mut self, pool: &mut SharedPacketPool, now: Nanos) {
        while self.shaped > 0 {
            self.shaping_inspections += 1;
            match self.agenda.peek() {
                Some(Reverse(e)) if e.release <= now.as_nanos() => {}
                _ => return,
            }
            let Reverse(e) = self.agenda.pop().expect("peeked entry vanished");
            self.shaped -= 1;
            if self.recorder.is_some() {
                let flow = pool.get(e.handle).flow;
                self.emit(
                    EventKind::ShapingRelease,
                    now,
                    e.node,
                    flow,
                    e.release,
                    e.handle.index() as u32,
                );
            }
            let parked = NodeId(e.node);
            let parent = self.nodes[parked.index()]
                .parent
                .expect("no shaper on the root");
            self.walk(pool, parent, Element::Ref(parked), e.handle, now);
        }
    }

    /// See [`ScheduleTree::dequeue`].
    fn dequeue(&mut self, pool: &mut SharedPacketPool, now: Nanos) -> Option<Packet> {
        self.release_due(pool, now);
        let mut node = self.root;
        loop {
            let (rank, elem) = self.nodes[node.index()].sched_pifo.pop(&mut self.store)?;
            // The first pop of the walk is the root's scheduling
            // decision — the rank whose ordering defines the tree's
            // departure schedule, so it is what inversion tracking
            // scores.
            if node == self.root {
                if let Some(t) = &mut self.tracker {
                    t.record_pop(rank);
                }
            }
            let n = &mut self.nodes[node.index()];
            let flow = flow_of(&n.flow_fn, elem, pool);
            n.sched.on_dequeue(rank, &DeqCtx { now, flow });
            let h = match elem {
                Element::Packet(h) => h,
                Element::Ref(child) => {
                    debug_assert!(
                        self.nodes[child.index()].sched_pifo.len() > 0,
                        "dequeued a reference to empty child {child} — tree invariant broken"
                    );
                    node = child;
                    continue;
                }
            };
            self.buffered -= 1;
            if self.recorder.is_some() {
                let remaining = self.buffered as u32;
                self.emit(EventKind::Dequeue, now, node.0, flow, rank.0, remaining);
                if let Some(paths) = &mut self.paths {
                    paths.finish(h.index(), &mut self.path_log);
                }
            }
            // Common case: the leaf element is the last holder and the
            // packet moves out of its slot, zero-copy. Rare case: a parked
            // shaping entry still needs the fields (this packet overtook
            // its own suspended reference), so the slot stays live until
            // that entry resumes.
            return Some(match pool.release(h) {
                Some(p) => {
                    self.emit(EventKind::PoolFree, now, node.0, flow, h.index() as u64, 0);
                    p
                }
                None => {
                    self.dangling_shaped += 1;
                    pool.get(h).clone()
                }
            });
        }
    }

    /// Record one event when the flight recorder is enabled — the single
    /// `Option`-gated funnel every tree hook goes through.
    #[inline]
    fn emit(&mut self, kind: EventKind, now: Nanos, node: u32, flow: FlowId, value: u64, aux: u32) {
        if let Some(r) = &mut self.recorder {
            r.record(TraceEvent {
                time: now,
                kind,
                port: self.port,
                node,
                flow,
                value,
                aux,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank::Rank;
    use crate::transaction::FnTransaction;

    fn fifo_tx() -> Box<dyn SchedulingTransaction> {
        Box::new(FnTransaction::new("fifo", |ctx: &EnqCtx<'_>| {
            Rank(ctx.now.as_nanos())
        }))
    }

    fn pkt(id: u64, flow: u32, t: u64) -> Packet {
        Packet::new(id, FlowId(flow), 100, Nanos(t))
    }

    /// Single-node tree behaves as one PIFO.
    #[test]
    fn single_node_fifo() {
        let mut b = TreeBuilder::new();
        let root = b.add_root("fifo", fifo_tx());
        let mut tree = b.build(Box::new(move |_| root)).unwrap();

        tree.enqueue(pkt(0, 1, 10), Nanos(10)).unwrap();
        tree.enqueue(pkt(1, 2, 20), Nanos(20)).unwrap();
        assert_eq!(tree.len(), 2);
        assert_eq!(tree.dequeue(Nanos(30)).unwrap().id.0, 0);
        assert_eq!(tree.dequeue(Nanos(30)).unwrap().id.0, 1);
        assert!(tree.dequeue(Nanos(30)).is_none());
        assert!(tree.is_empty());
    }

    /// Fig 2 reproduced literally: a root with two leaves L and R; packets
    /// P1..P4 with the ranks drawn in the figure dequeue as P3,P1,P2,P4.
    #[test]
    fn fig2_instantaneous_order() {
        // Fixed ranks per element, injected through packet "class" maps.
        // Leaf PIFOs:  L = [P3, P4], R = [P1, P2]
        // Root PIFO :  [L, R, R, L]
        // We reproduce exactly by assigning explicit ranks.
        let leaf_rank = |ranks: &'static [(u64, u64)]| {
            Box::new(FnTransaction::new("fixed", move |ctx: &EnqCtx<'_>| {
                let id = ctx.packet.id.0;
                Rank(
                    ranks
                        .iter()
                        .find(|(pid, _)| *pid == id)
                        .map(|(_, r)| *r)
                        .expect("unknown packet"),
                )
            })) as Box<dyn SchedulingTransaction>
        };
        // Root ranks chosen so the order of refs is L, R, R, L.
        let root_rank = Box::new(FnTransaction::new("fixed", |ctx: &EnqCtx<'_>| {
            Rank(match ctx.packet.id.0 {
                3 => 0, // P3 arrives at L -> ref L first
                1 => 1,
                2 => 2,
                4 => 3,
                _ => unreachable!(),
            })
        }));

        let mut b = TreeBuilder::new();
        let root = b.add_root("Root", root_rank);
        let left = b.add_child(root, "L", leaf_rank(&[(3, 0), (4, 1)]));
        let right = b.add_child(root, "R", leaf_rank(&[(1, 0), (2, 1)]));
        let mut tree = b
            .build(Box::new(
                move |p: &Packet| {
                    if p.flow.0 == 0 {
                        left
                    } else {
                        right
                    }
                },
            ))
            .unwrap();

        // Enqueue in the order P3, P1, P2, P4 (flow 0 = L, flow 1 = R).
        tree.enqueue(pkt(3, 0, 0), Nanos(0)).unwrap();
        tree.enqueue(pkt(1, 1, 1), Nanos(1)).unwrap();
        tree.enqueue(pkt(2, 1, 2), Nanos(2)).unwrap();
        tree.enqueue(pkt(4, 0, 3), Nanos(3)).unwrap();

        assert_eq!(tree.debug_pifo(root), "[L@0, R@1, R@2, L@3]");

        let order: Vec<u64> = std::iter::from_fn(|| tree.dequeue(Nanos(10)))
            .map(|p| p.id.0)
            .collect();
        assert_eq!(order, vec![3, 1, 2, 4], "Fig 2: P3, P1, P2, P4");
    }

    /// Later arrivals with smaller ranks overtake buffered packets at the
    /// root — the push-in property lifted to trees.
    #[test]
    fn push_in_at_root_level() {
        let by_class = Box::new(FnTransaction::new("class", |ctx: &EnqCtx<'_>| {
            Rank(ctx.packet.class as u64)
        }));
        let mut b = TreeBuilder::new();
        let root = b.add_root("prio", by_class);
        let mut tree = b.build(Box::new(move |_| root)).unwrap();
        tree.enqueue(pkt(0, 0, 0).with_class(5), Nanos(0)).unwrap();
        tree.enqueue(pkt(1, 0, 1).with_class(1), Nanos(1)).unwrap();
        assert_eq!(tree.dequeue(Nanos(2)).unwrap().id.0, 1);
        assert_eq!(tree.dequeue(Nanos(2)).unwrap().id.0, 0);
    }

    /// The classifier must return a leaf.
    #[test]
    fn classifier_must_hit_leaf() {
        let mut b = TreeBuilder::new();
        let root = b.add_root("root", fifo_tx());
        let _leaf = b.add_child(root, "leaf", fifo_tx());
        let mut tree = b.build(Box::new(move |_| root)).unwrap();
        let err = tree.enqueue(pkt(0, 0, 0), Nanos(0)).unwrap_err();
        assert_eq!(err, TreeError::NotALeaf(root));
    }

    /// Root shapers and empty trees are rejected at build time, and by
    /// `into_nodes`, which hands the description to other back-ends.
    #[test]
    fn no_shaper_on_root() {
        struct NullShaper;
        impl ShapingTransaction for NullShaper {
            fn send_time(&mut self, ctx: &EnqCtx<'_>) -> Nanos {
                ctx.now
            }
        }
        let shaped_root = || {
            let mut b = TreeBuilder::new();
            let root = b.add_root("root", fifo_tx());
            b.set_shaper(root, Box::new(NullShaper));
            b
        };
        let err = shaped_root().build(Box::new(|_| NodeId(0))).unwrap_err();
        assert_eq!(err, TreeError::ShaperOnRoot);
        assert_eq!(
            shaped_root().into_nodes().err(),
            Some(TreeError::ShaperOnRoot)
        );
        let err = TreeBuilder::new()
            .build(Box::new(|_| NodeId(0)))
            .unwrap_err();
        assert_eq!(err, TreeError::Empty);
        assert_eq!(
            TreeBuilder::new().into_nodes().err(),
            Some(TreeError::Empty)
        );
    }

    /// Buffer limit drops and reports the packet.
    #[test]
    fn buffer_limit_enforced() {
        let mut b = TreeBuilder::new();
        let root = b.add_root("fifo", fifo_tx());
        b.buffer_limit(2);
        let mut tree = b.build(Box::new(move |_| root)).unwrap();
        tree.enqueue(pkt(0, 0, 0), Nanos(0)).unwrap();
        tree.enqueue(pkt(1, 0, 1), Nanos(1)).unwrap();
        match tree.enqueue(pkt(2, 0, 2), Nanos(2)) {
            Err(TreeError::BufferFull(p)) => assert_eq!(p.id.0, 2),
            other => panic!("expected BufferFull, got {other:?}"),
        }
        // Draining makes room again.
        tree.dequeue(Nanos(3));
        tree.enqueue(pkt(3, 0, 3), Nanos(3)).unwrap();
    }

    /// A shaper delays visibility at the parent: the packet sits in the
    /// leaf PIFO but the root stays empty until the release time.
    #[test]
    fn shaping_defers_parent_visibility() {
        struct FixedDelay(u64);
        impl ShapingTransaction for FixedDelay {
            fn send_time(&mut self, ctx: &EnqCtx<'_>) -> Nanos {
                Nanos(ctx.now.as_nanos() + self.0)
            }
            fn name(&self) -> &str {
                "fixed-delay"
            }
        }

        let mut b = TreeBuilder::new();
        let root = b.add_root("root", fifo_tx());
        let leaf = b.add_child(root, "leaf", fifo_tx());
        b.set_shaper(leaf, Box::new(FixedDelay(100)));
        let mut tree = b.build(Box::new(move |_| leaf)).unwrap();

        tree.enqueue(pkt(0, 0, 0), Nanos(0)).unwrap();
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.shaped_len(), 1);
        assert_eq!(tree.sched_pifo_len(leaf), 1);
        assert_eq!(
            tree.sched_pifo_len(root),
            0,
            "root must not see the ref yet"
        );

        // Before the release time: nothing to dequeue.
        assert!(tree.dequeue(Nanos(50)).is_none());
        assert_eq!(tree.next_shaping_event(), Some(Nanos(100)));

        // At the release time the walk resumes and the packet drains.
        let p = tree.dequeue(Nanos(100)).expect("released at t=100");
        assert_eq!(p.id.0, 0);
        assert_eq!(tree.shaped_len(), 0);
        assert!(tree.is_empty());
    }

    /// Two stacked shapers suspend/resume twice (Fig 5's multi-suspension).
    #[test]
    fn nested_shapers_resume_in_stages() {
        struct FixedAt(u64);
        impl ShapingTransaction for FixedAt {
            fn send_time(&mut self, _ctx: &EnqCtx<'_>) -> Nanos {
                Nanos(self.0)
            }
        }

        let mut b = TreeBuilder::new();
        let root = b.add_root("root", fifo_tx());
        let mid = b.add_child(root, "mid", fifo_tx());
        let leaf = b.add_child(mid, "leaf", fifo_tx());
        b.set_shaper(leaf, Box::new(FixedAt(100)));
        b.set_shaper(mid, Box::new(FixedAt(200)));
        let mut tree = b.build(Box::new(move |_| leaf)).unwrap();

        tree.enqueue(pkt(0, 0, 0), Nanos(0)).unwrap();
        // Suspended at leaf's shaper.
        assert_eq!(tree.sched_pifo_len(mid), 0);
        assert!(tree.dequeue(Nanos(99)).is_none());

        // t=100: ref released to mid, which immediately suspends again.
        tree.release_due(Nanos(100));
        assert_eq!(tree.sched_pifo_len(mid), 1);
        assert_eq!(tree.sched_pifo_len(root), 0);
        assert!(tree.dequeue(Nanos(150)).is_none());
        assert_eq!(tree.next_shaping_event(), Some(Nanos(200)));

        // t=200: second release reaches the root; packet drains.
        let p = tree.dequeue(Nanos(200)).expect("fully released");
        assert_eq!(p.id.0, 0);
    }

    /// A shaper whose release time is already due releases within the same
    /// call (send_time in the past = work-conserving fallthrough).
    #[test]
    fn immediate_release_when_not_throttled() {
        struct Immediate;
        impl ShapingTransaction for Immediate {
            fn send_time(&mut self, ctx: &EnqCtx<'_>) -> Nanos {
                ctx.now
            }
        }
        let mut b = TreeBuilder::new();
        let root = b.add_root("root", fifo_tx());
        let leaf = b.add_child(root, "leaf", fifo_tx());
        b.set_shaper(leaf, Box::new(Immediate));
        let mut tree = b.build(Box::new(move |_| leaf)).unwrap();
        tree.enqueue(pkt(0, 0, 5), Nanos(5)).unwrap();
        // The entry is parked momentarily, then released by the next call
        // at the same instant.
        let p = tree.dequeue(Nanos(5)).expect("releases at the same time");
        assert_eq!(p.id.0, 0);
    }

    /// Work-conserving invariant: each node's PIFO holds exactly the
    /// number of packets in its subtree.
    #[test]
    fn ref_counting_invariant() {
        let mut b = TreeBuilder::new();
        let root = b.add_root("root", fifo_tx());
        let l = b.add_child(root, "L", fifo_tx());
        let r = b.add_child(root, "R", fifo_tx());
        let mut tree = b
            .build(Box::new(
                move |p: &Packet| if p.flow.0 == 0 { l } else { r },
            ))
            .unwrap();
        for i in 0..10 {
            tree.enqueue(pkt(i, (i % 2) as u32, i), Nanos(i)).unwrap();
        }
        assert_eq!(tree.sched_pifo_len(root), 10);
        assert_eq!(tree.sched_pifo_len(l), 5);
        assert_eq!(tree.sched_pifo_len(r), 5);
        for _ in 0..4 {
            tree.dequeue(Nanos(100));
        }
        assert_eq!(tree.sched_pifo_len(root), 6);
        assert_eq!(
            tree.sched_pifo_len(l) + tree.sched_pifo_len(r),
            6,
            "leaf occupancy tracks root refs"
        );
    }

    /// The same scheduling program produces the same packet trace on every
    /// backend — the tree is engine-agnostic by construction.
    #[test]
    fn backends_are_observationally_equivalent_in_trees() {
        let run = |backend: PifoBackend| -> Vec<u64> {
            let by_class = Box::new(FnTransaction::new("class", |ctx: &EnqCtx<'_>| {
                Rank(ctx.packet.class as u64)
            }));
            let mut b = TreeBuilder::new();
            b.with_backend(backend);
            let root = b.add_root("prio", by_class);
            let l = b.add_child(root, "L", fifo_tx());
            let r = b.add_child(root, "R", fifo_tx());
            let mut tree = b
                .build(Box::new(
                    move |p: &Packet| if p.flow.0 % 2 == 0 { l } else { r },
                ))
                .unwrap();
            for i in 0..40u64 {
                let p = pkt(i, (i % 3) as u32, i).with_class((i % 5) as u8);
                tree.enqueue(p, Nanos(i)).unwrap();
            }
            assert_eq!(tree.node_backend(root), backend);
            std::iter::from_fn(|| tree.dequeue(Nanos(1_000)))
                .map(|p| p.id.0)
                .collect()
        };
        let reference = run(PifoBackend::SortedArray);
        for backend in [PifoBackend::Heap, PifoBackend::Bucket] {
            assert_eq!(run(backend), reference, "{backend} diverges from reference");
        }
    }

    /// A tree's node PIFOs are unbounded, and an unbounded RIFO or AIFO
    /// admits everything into one FIFO: a one-node tree on either departs
    /// in arrival order whatever the rank, where an exact engine sorts.
    #[test]
    fn rifo_and_aifo_tree_nodes_are_fifos() {
        let run = |backend: PifoBackend| -> Vec<u64> {
            let mut b = TreeBuilder::new();
            b.with_backend(backend);
            let latest_first = Box::new(FnTransaction::new("lifo", |ctx: &EnqCtx<'_>| {
                Rank(1_000 - ctx.packet.id.0)
            }));
            let root = b.add_root("lifo", latest_first);
            let mut tree = b.build(Box::new(move |_| root)).unwrap();
            for i in 0..20u64 {
                tree.enqueue(pkt(i, i as u32, i), Nanos(i)).unwrap();
            }
            std::iter::from_fn(|| tree.dequeue(Nanos(100)))
                .map(|p| p.id.0)
                .collect()
        };
        let arrival_order: Vec<u64> = (0..20).collect();
        for backend in [PifoBackend::Rifo, PifoBackend::Aifo] {
            assert_eq!(run(backend), arrival_order, "{backend}");
        }
        let sorted: Vec<u64> = arrival_order.iter().rev().copied().collect();
        assert_eq!(run(PifoBackend::SortedArray), sorted);
    }

    /// A node sorts flow heads exactly when its transaction declares
    /// per-flow monotone ranks and its backend is the heap or the bucket
    /// calendar. The sorted reference, the approximate engines and
    /// undeclared transactions run the engine their backend names.
    #[test]
    fn declared_nodes_on_fast_exact_engines_sort_flows() {
        struct Declared;
        impl SchedulingTransaction for Declared {
            fn rank(&mut self, ctx: &EnqCtx<'_>) -> Rank {
                Rank(ctx.now.as_nanos())
            }
            fn ranks_monotone_per_flow(&self) -> bool {
                true
            }
        }
        for backend in PifoBackend::ALL {
            let mut b = TreeBuilder::new();
            b.with_backend(backend);
            let root = b.add_root("declared", Box::new(Declared));
            let leaf = b.add_child(root, "undeclared", fifo_tx());
            let mut tree = b.build(Box::new(move |_| leaf)).unwrap();
            let sorts_flows =
                |n: NodeId| matches!(tree.state.nodes[n.index()].sched_pifo, SchedPifo::Flows(_));
            let want = matches!(backend, PifoBackend::Heap | PifoBackend::Bucket);
            assert_eq!(sorts_flows(root), want, "declared node on {backend}");
            assert!(!sorts_flows(leaf), "undeclared node on {backend}");
            match &tree.state.nodes[leaf.index()].sched_pifo {
                SchedPifo::Engine(q) => assert_eq!(q.backend(), backend),
                SchedPifo::Flows(_) => unreachable!(),
            }
            assert_eq!(tree.node_backend(root), backend);
            tree.enqueue(pkt(0, 0, 0), Nanos(0)).unwrap();
            assert_eq!(tree.dequeue(Nanos(1)).unwrap().id.0, 0);
        }
    }

    /// Every flow-sorting node of a tree keeps its flow FIFOs in the
    /// tree's one rank store, so the store grows to the tree's peak of
    /// resident elements, not to the sum of the nodes' peaks, and each
    /// node's view lists only its own elements.
    #[test]
    fn one_rank_store_grows_to_the_tree_peak() {
        struct Declared;
        impl SchedulingTransaction for Declared {
            fn rank(&mut self, ctx: &EnqCtx<'_>) -> Rank {
                Rank(ctx.now.as_nanos())
            }
            fn ranks_monotone_per_flow(&self) -> bool {
                true
            }
        }
        let mut b = TreeBuilder::new();
        let root = b.add_root("root", Box::new(Declared));
        let l = b.add_child(root, "L", Box::new(Declared));
        let r = b.add_child(root, "R", Box::new(Declared));
        let mut tree = b
            .build(Box::new(
                move |p: &Packet| if p.flow.0 == 0 { l } else { r },
            ))
            .unwrap();
        let held = |tree: &ScheduleTree| [root, l, r].map(|n| tree.sched_pifo_len(n)).iter().sum();
        // L fills to 8 packets (16 elements with the root's references)
        // and drains before R fills to 8: per-node stores would peak at
        // 8 + 8 + 8 cells, the shared one at 16.
        for i in 0..8 {
            tree.enqueue(pkt(i, 0, i), Nanos(i)).unwrap();
        }
        assert_eq!(tree.state.store.live(), 16);
        for _ in 0..8 {
            assert_eq!(tree.dequeue(Nanos(9)).unwrap().flow, FlowId(0));
        }
        assert_eq!(tree.state.store.live(), 0);
        for i in 8..16 {
            tree.enqueue(pkt(i, 1, i + 2), Nanos(i + 2)).unwrap();
        }
        assert_eq!(tree.state.store.high_water(), 16, "the tree's peak");
        // Both leaves hold elements in one store; each lists its own.
        for i in 16..18 {
            tree.enqueue(pkt(i, 0, i + 4), Nanos(i + 4)).unwrap();
        }
        assert_eq!(tree.state.store.live(), held(&tree));
        assert_eq!(tree.debug_pifo(l), "[p16@20, p17@21]");
        assert_eq!(
            tree.debug_pifo(r),
            "[p8@10, p9@11, p10@12, p11@13, p12@14, p13@15, p14@16, p15@17]"
        );
        assert_eq!(
            tree.debug_pifo(root),
            "[R@10, R@11, R@12, R@13, R@14, R@15, R@16, R@17, L@20, L@21]"
        );
        let order: Vec<u64> = std::iter::from_fn(|| tree.dequeue(Nanos(30)))
            .map(|p| p.id.0)
            .collect();
        assert_eq!(order, (8..18).collect::<Vec<_>>());
        let store = &tree.state.store;
        assert_eq!(store.high_water(), 20);
        assert_eq!(store.free_cells(), store.high_water(), "no leaked cells");
    }

    #[test]
    fn from_index_round_trips_and_try_variant_filters() {
        assert_eq!(NodeId::from_index(7).index(), 7);
        assert_eq!(NodeId::try_from_index(7), Some(NodeId(7)));
        assert_eq!(NodeId::try_from_index(u32::MAX as usize), None);
        assert_eq!(NodeId::try_from_index(usize::MAX), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_index_panics_on_out_of_range() {
        let _ = NodeId::from_index(usize::MAX);
    }

    /// The INVALID sentinel is reported as UnknownNode at enqueue.
    #[test]
    fn invalid_sentinel_is_unknown_node() {
        let mut b = TreeBuilder::new();
        let _root = b.add_root("fifo", fifo_tx());
        let mut tree = b.build(Box::new(move |_| NodeId::INVALID)).unwrap();
        let err = tree.enqueue(pkt(0, 0, 0), Nanos(0)).unwrap_err();
        assert_eq!(err, TreeError::UnknownNode(NodeId::INVALID));
    }

    /// `peek()` lets no time pass, so a due-but-unreleased shaped element
    /// is invisible to it; `peek_at(now)` releases first and agrees with
    /// what `dequeue(now)` would return.
    #[test]
    fn peek_at_releases_due_elements_peek_does_not() {
        struct FixedAt(u64);
        impl ShapingTransaction for FixedAt {
            fn send_time(&mut self, _ctx: &EnqCtx<'_>) -> Nanos {
                Nanos(self.0)
            }
        }
        let mut b = TreeBuilder::new();
        let root = b.add_root("root", fifo_tx());
        let leaf = b.add_child(root, "leaf", fifo_tx());
        b.set_shaper(leaf, Box::new(FixedAt(100)));
        let mut tree = b.build(Box::new(move |_| leaf)).unwrap();
        tree.enqueue(pkt(3, 0, 0), Nanos(0)).unwrap();

        // The release time has arrived, but peek() does not release.
        assert!(tree.peek().is_none(), "peek must not advance time");
        // peek_at(100) releases and previews dequeue(100) without popping.
        assert_eq!(tree.peek_at(Nanos(100)).unwrap().id.0, 3);
        assert_eq!(tree.len(), 1, "peek_at must not dequeue");
        assert_eq!(tree.dequeue(Nanos(100)).unwrap().id.0, 3);
    }

    /// A work-conserving tree never inspects the shaping agenda: the
    /// `shaped == 0` early exit keeps the whole enqueue/dequeue hot path
    /// free of shaping work.
    #[test]
    fn work_conserving_path_never_inspects_shaping_agenda() {
        let mut b = TreeBuilder::new();
        let root = b.add_root("root", fifo_tx());
        let l = b.add_child(root, "L", fifo_tx());
        let r = b.add_child(root, "R", fifo_tx());
        let mut tree = b
            .build(Box::new(
                move |p: &Packet| if p.flow.0 == 0 { l } else { r },
            ))
            .unwrap();
        for i in 0..200 {
            tree.enqueue(pkt(i, (i % 2) as u32, i), Nanos(i)).unwrap();
            if i % 3 == 0 {
                tree.dequeue(Nanos(i));
            }
        }
        while tree.dequeue(Nanos(1_000)).is_some() {}
        assert_eq!(
            tree.shaping_inspections(),
            0,
            "no shaper ever parked an element, so the agenda must never be touched"
        );
    }

    /// ...whereas a shaped tree does pay for its releases (sanity check
    /// that the counter counts).
    #[test]
    fn shaped_tree_records_agenda_inspections() {
        struct Immediate;
        impl ShapingTransaction for Immediate {
            fn send_time(&mut self, ctx: &EnqCtx<'_>) -> Nanos {
                ctx.now
            }
        }
        let mut b = TreeBuilder::new();
        let root = b.add_root("root", fifo_tx());
        let leaf = b.add_child(root, "leaf", fifo_tx());
        b.set_shaper(leaf, Box::new(Immediate));
        let mut tree = b.build(Box::new(move |_| leaf)).unwrap();
        tree.enqueue(pkt(0, 0, 0), Nanos(0)).unwrap();
        assert!(tree.dequeue(Nanos(0)).is_some());
        assert!(tree.shaping_inspections() > 0);
    }

    /// A rejected packet comes back through `BufferFull` unchanged, every
    /// field intact — admission happens before any slab insert.
    #[test]
    fn buffer_full_returns_packet_unchanged() {
        let mut b = TreeBuilder::new();
        let root = b.add_root("fifo", fifo_tx());
        b.buffer_limit(1);
        let mut tree = b.build(Box::new(move |_| root)).unwrap();
        tree.enqueue(pkt(0, 0, 0), Nanos(0)).unwrap();
        let original = pkt(1, 7, 5)
            .with_class(3)
            .with_slack(-9)
            .with_deadline(Nanos(77))
            .with_flow_size(1_000)
            .with_remaining(400)
            .with_attained(600)
            .with_seq_in_flow(42);
        match tree.enqueue(original.clone(), Nanos(5)) {
            Err(TreeError::BufferFull(p)) => assert_eq!(p, original),
            other => panic!("expected BufferFull, got {other:?}"),
        }
        assert_eq!(tree.pool_handle().pool().live(), 1, "no slab slot consumed");
    }

    /// Each refusal records one `Drop` naming the node the classifier
    /// chose, the packet's flow and id, and the reason code.
    #[test]
    fn each_refusal_records_one_drop_event() {
        let mut b = TreeBuilder::new();
        let root = b.add_root("root", fifo_tx());
        let leaf = b.add_child(root, "leaf", fifo_tx());
        b.buffer_limit(1);
        let targets = [leaf, root, NodeId::INVALID];
        let classifier = move |p: &Packet| targets[p.flow.0 as usize % 3];
        let mut tree = b.build(Box::new(classifier)).unwrap();
        tree.enable_telemetry(&TelemetryConfig::default());
        tree.enqueue(pkt(10, 0, 0), Nanos(0)).unwrap();
        let not_a_leaf = tree.enqueue(pkt(11, 4, 1), Nanos(1));
        assert_eq!(not_a_leaf, Err(TreeError::NotALeaf(root)));
        let unknown = tree.enqueue(pkt(12, 5, 2), Nanos(2));
        assert_eq!(unknown, Err(TreeError::UnknownNode(NodeId::INVALID)));
        let full = tree.enqueue(pkt(13, 3, 3), Nanos(3));
        assert_eq!(full, Err(TreeError::BufferFull(pkt(13, 3, 3))));
        let drops: Vec<_> = (tree.flight_recorder().unwrap().iter())
            .filter(|e| e.kind == EventKind::Drop)
            .map(|e| (e.time.as_nanos(), e.port, e.node, e.flow.0, e.value, e.aux))
            .collect();
        let want = vec![
            (1, 0, root.0, 4, 11, drop_reason::NOT_A_LEAF),
            (2, 0, u32::MAX, 5, 12, drop_reason::UNKNOWN_NODE),
            (3, 0, leaf.0, 3, 13, drop_reason::BUFFER_FULL),
        ];
        assert_eq!(drops, want);
    }

    /// A packet can overtake its own parked shaping entry: an earlier
    /// reference pops it from the leaf first. The parked entry then
    /// becomes the sole owner of the buffer slot (keeping the header
    /// fields for the ancestors' transactions), and the slot is freed
    /// when the entry finally resumes.
    #[test]
    fn overtaken_shaped_ref_keeps_slot_until_release() {
        struct Script(Vec<u64>, usize);
        impl ShapingTransaction for Script {
            fn send_time(&mut self, _ctx: &EnqCtx<'_>) -> Nanos {
                let t = self.0[self.1];
                self.1 += 1;
                Nanos(t)
            }
        }
        let by_class = Box::new(FnTransaction::new("class", |ctx: &EnqCtx<'_>| {
            Rank(ctx.packet.class as u64)
        }));
        let mut b = TreeBuilder::new();
        let root = b.add_root("root", fifo_tx());
        let leaf = b.add_child(root, "leaf", by_class);
        // P0 releases immediately; P1 not until t=100.
        b.set_shaper(leaf, Box::new(Script(vec![0, 100], 0)));
        let mut tree = b.build(Box::new(move |_| leaf)).unwrap();

        tree.enqueue(pkt(0, 0, 0).with_class(5), Nanos(0)).unwrap();
        // t=1: P0's ref releases to the root; P1 parks until t=100 but
        // holds the smaller leaf rank.
        tree.enqueue(pkt(1, 0, 1).with_class(1), Nanos(1)).unwrap();

        // P0's reference pops the leaf head — which is P1 (rank 1 < 5).
        let p = tree.dequeue(Nanos(2)).expect("root has one ref");
        assert_eq!(p.id.0, 1, "earlier ref retrieves the overtaking packet");
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.shaped_len(), 1);
        assert_eq!(
            tree.shaped_refs_holding_packets(),
            1,
            "P1's parked entry is now the sole owner of its slot"
        );
        assert_eq!(tree.pool_handle().pool().live(), 2, "P0 buffered + P1 held");

        // t=100: P1's entry resumes, frees its slot, and its reference
        // retrieves P0.
        let p = tree.dequeue(Nanos(100)).expect("released");
        assert_eq!(p.id.0, 0);
        assert!(tree.is_empty());
        assert_eq!(tree.shaped_refs_holding_packets(), 0);
        assert_eq!(tree.pool_handle().pool().live(), 0);
        tree.pool_handle().pool().assert_coherent();
    }

    #[test]
    fn peek_matches_dequeue() {
        let mut b = TreeBuilder::new();
        let root = b.add_root("fifo", fifo_tx());
        let mut tree = b.build(Box::new(move |_| root)).unwrap();
        assert!(tree.peek().is_none());
        tree.enqueue(pkt(7, 0, 1), Nanos(1)).unwrap();
        tree.enqueue(pkt(8, 0, 2), Nanos(2)).unwrap();
        assert_eq!(tree.peek().unwrap().id.0, 7);
        assert_eq!(tree.dequeue(Nanos(3)).unwrap().id.0, 7);
        assert_eq!(tree.peek().unwrap().id.0, 8);
    }
}
