//! The push-in first-out queue (PIFO).
//!
//! A PIFO is a priority queue that allows elements to be *pushed into an
//! arbitrary location* based on the element's rank, but always *dequeues
//! from the head* (§1, §2 of the paper). Ties between equal ranks are
//! broken in enqueue order — a property the paper relies on, e.g. for
//! Stop-and-Go Queueing where all packets of a frame share one rank (§3.2).
//!
//! # The backend contract
//!
//! The PIFO abstraction is deliberately separated from its implementation:
//! the paper's whole point is that *one* queueing discipline supports many
//! scheduling algorithms, and symmetrically this crate lets *many* queue
//! engines implement one discipline. One trait, [`PifoQueue`], is the
//! contract: the per-packet operations (`try_push`/`pop`/`peek`/`len`/
//! `capacity`) plus [`PifoQueue::iter_in_order`], an ordered view used
//! by the scheduling tree's introspection (`debug_pifo`) and the
//! differential suites — not on the per-packet path, so engines may
//! materialise it in O(n log n).
//!
//! [`PifoBackend::make_enum`] hands out an [`EnumPifo`], a `match` over the
//! six engines, so consumers — the scheduling tree, the simulator, the
//! benches — never name a concrete queue type and still get static
//! dispatch.
//!
//! # Choosing a backend
//!
//! | Backend | `push` | `pop` | Notes |
//! |---|---|---|---|
//! | [`SortedArrayPifo`] | O(n) | O(1) | **The reference** every differential suite compares against; direct analogue of the flat sorted array §5.2 rejects for a 60 K-packet buffer. Best below ~1 K elements and for debugging; name it ([`PifoBackend::SortedArray`]) wherever a reference is meant. A tree runs it literally at every node. |
//! | [`HeapPifo`] | O(log n) | O(log n) | Binary heap over the whole backlog, keyed `(rank << 64) \| seq` so FIFO ties cost no extra compare; a packet's cost does not grow with the backlog. The benchmark's second exact engine, which checks the default. At a tree node whose transaction declares per-flow monotone ranks, the tree runs [`FlowPifo`] instead. |
//! | [`BucketPifo`] | O(1)* + O(log b) | O(1)* + O(log b) | **The default** ([`PifoBackend::default`]). Eiffel-style FFS bucket calendar (integer-rank buckets, two-level find-first-set bitmap, overflow heap); each bucket a heap of its `b` residents. *Amortised: no operation sweeps the window; a rank below the window rebases it a quarter window lower, walking only occupied buckets, and ranks beyond it cost an overflow-heap operation. Declared tree nodes run [`FlowPifo`], as for the heap. |
//! | [`SpPifo`](crate::approx::SpPifo) | O(k) | O(k) | **Approximate.** k strict-priority FIFOs with SP-PIFO push-up/push-down bound adaptation; exact between rank bands, FIFO within one. |
//! | [`Rifo`](crate::approx::Rifo) | O(1) | O(1) | **Approximate.** Single FIFO; rank-awareness only at admission (windowed min/max relative-rank gate when bounded). |
//! | [`Aifo`](crate::approx::Aifo) | O(W) | O(1) | **Approximate.** Single FIFO with windowed-quantile admission against a small sliding rank sample. |
//!
//! [`PifoBackend::default`] — what `TreeBuilder::new()` and every
//! constructor above it hand out — is the bucket calendar: it is exact,
//! and at depth its pop finds the head with two find-first-set steps and
//! a small heap, where the heap engine sifts through the whole backlog
//! (`port1_deep_srpt`, one undeclared SRPT node over a 20 000-packet
//! buffer: median ≈ 2.9 → 3.9 M pkts/s end to end against the heap). No rank
//! pattern costs it more than twice the heap: ranks falling below its
//! window, rising past it, crowding one bucket, or spread uniformly over
//! 64 bits (`tests/engine_probe.rs`). A node that never sees a packet
//! allocates none of its 4 096 buckets. Both are far ahead of the sorted
//! array, whose push memmoves the backlog (`hpfq_fig3` at 60 K
//! occupancy: `sorted` ≈ 0.2 M pkts/s, `heap` ≈ 2.0 M;
//! `BENCH_tree.json`).
//!
//! The first three — [`PifoBackend::EXACT`] — are **exactly** equivalent
//! observationally: same dequeue order, same FIFO tie-breaks, same
//! admission decisions, which the cross-backend differential property
//! suite in `tests/proptests.rs` enforces. `BucketPifo` is exact (not
//! approximate like Eiffel's gradient buckets) because ranks are
//! integers and each bucket orders its residents by `(rank, seq)`. The last
//! three — [`PifoBackend::APPROX`] — deliberately relax the sorted-pop
//! invariant for cheaper operations; how far a run strayed from the
//! ideal schedule is measured, not guessed (see the
//! [`approx`](crate::approx) and [`metrics`](crate::metrics) modules).
//!
//! # Sorting flows, not packets
//!
//! [`FlowPifo`] is Fig 12's decomposition of one PIFO (§5.2): a small
//! heap of per-flow heads over per-flow FIFOs. It is not a backend: its
//! push takes a flow, and it is exact only when ranks never decrease
//! within a flow. The scheduling tree runs it in place of the heap or
//! the bucket calendar at every node whose transaction declares that
//! ([`SchedulingTransaction::ranks_monotone_per_flow`](
//! crate::transaction::SchedulingTransaction::ranks_monotone_per_flow),
//! e.g. STFQ), so such a node sorts its active flows (its children, at
//! an interior node) rather than every packet beneath it. It pops in
//! exactly [`SortedArrayPifo`]'s order, which the `EXACT` differential
//! suites check by running the reference at every node.
//!
//! It comes in two halves, as in §5.2's PIFO block: a [`FlowScheduler`]
//! per logical PIFO (the heap of flow heads, the flow table, the push
//! counter) and a [`RankStore`] (the cells of the flow FIFOs and one
//! LIFO free list), which several schedulers may share. A `FlowPifo`
//! owns one of each; a scheduling tree shares one store among all its
//! flow-sorting nodes, as every logical PIFO mapped to a PIFO block
//! shares the block's rank store.

use crate::packet::FlowId;
use crate::rank::Rank;
use core::fmt;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::collections::VecDeque;
use std::str::FromStr;

/// Error returned by [`PifoQueue::try_push`] when the queue is at capacity.
/// Carries the rejected element back to the caller (so a switch model can
/// count and drop it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PifoFull<T> {
    /// The rank the rejected element would have had.
    pub rank: Rank,
    /// The rejected element.
    pub item: T,
    /// The capacity of the queue that rejected it.
    pub capacity: usize,
}

impl<T> fmt::Display for PifoFull<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PIFO full (capacity {}): rejected element with rank {}",
            self.capacity, self.rank
        )
    }
}

/// The core PIFO contract shared by every implementation.
///
/// Invariants every implementation must uphold (checked by the shared
/// property tests in this module and by the cross-backend differential
/// suite in `tests/proptests.rs`):
///
/// 1. `pop` returns elements in non-decreasing rank order **among the
///    elements present at the time of each pop** (push-in, first-out).
/// 2. Elements with equal rank pop in the order they were pushed.
/// 3. `len` is the number of pushes minus the number of successful pops.
pub trait PifoQueue<T> {
    /// Push `item` with `rank`, failing if the queue is at capacity.
    fn try_push(&mut self, rank: Rank, item: T) -> Result<(), PifoFull<T>>;

    /// Pop the head (lowest rank, earliest enqueued among ties).
    fn pop(&mut self) -> Option<(Rank, T)>;

    /// Inspect the head without removing it.
    fn peek(&self) -> Option<(Rank, &T)>;

    /// Number of buffered elements.
    fn len(&self) -> usize;

    /// Capacity limit, if any.
    fn capacity(&self) -> Option<usize>;

    /// True when no element is buffered.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Push, panicking if the queue is full. Use in contexts where the
    /// caller has already checked admission (e.g. the scheduling tree after
    /// its buffer-accounting gate).
    fn push(&mut self, rank: Rank, item: T) {
        if self.try_push(rank, item).is_err() {
            panic!("push into full PIFO (capacity {:?})", self.capacity());
        }
    }

    /// Iterate over `(rank, item)` in dequeue order without removing.
    /// Not on the per-packet path: engines whose storage is not kept in
    /// dequeue order (the heaps) sort a view of it first.
    fn iter_in_order(&self) -> Box<dyn Iterator<Item = (Rank, &T)> + '_>;
}

// ---------------------------------------------------------------------------
// Backend selector
// ---------------------------------------------------------------------------

/// Selects which queue engine backs a PIFO (see the module docs for the
/// comparison table). Parsed from `sorted` / `heap` / `bucket` /
/// `sp-pifo[:k]` / `rifo` / `aifo` on CLIs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PifoBackend {
    /// [`SortedArrayPifo`] — the O(n)-insert reference the differential
    /// suites compare every other engine against. A tree built on it
    /// runs the literal sorted array at every node, declared or not, so
    /// it is also the reference for [`FlowPifo`]'s decomposition.
    SortedArray,
    /// [`HeapPifo`] — O(log n) binary heap over the whole backlog. The
    /// benchmark's second exact engine, which checks the default's
    /// digests. Tree nodes with a declared transaction run [`FlowPifo`]
    /// instead.
    Heap,
    /// [`BucketPifo`] — FFS bucket calendar; the default. O(1) amortised
    /// calendar work per push and pop plus O(log b) inside a bucket of
    /// `b` residents, with no O(window) step: a packet's cost does not
    /// grow with the backlog, nor with a rank pattern that falls, rises
    /// past the window or crowds one bucket. Tree nodes with a declared
    /// transaction run [`FlowPifo`] instead.
    #[default]
    Bucket,
    /// [`SpPifo`](crate::approx::SpPifo) — **approximate**: k
    /// strict-priority FIFOs with adaptive bounds.
    SpPifo {
        /// Number of strict-priority queues (the `k` in `sp-pifo:k`).
        queues: u8,
    },
    /// [`Rifo`](crate::approx::Rifo) — **approximate**: single FIFO with
    /// windowed min/max rank admission. Only a bounded queue admits by
    /// rank, and a tree's node PIFOs are unbounded, so every node of a
    /// tree on this backend is a plain FIFO.
    Rifo,
    /// [`Aifo`](crate::approx::Aifo) — **approximate**: single FIFO with
    /// windowed-quantile rank admission. As for [`Rifo`](Self::Rifo),
    /// every node of a tree on this backend is a plain FIFO.
    Aifo,
}

impl PifoBackend {
    /// The exact backends, in reference-first order — observationally
    /// equivalent to each other, so differential suites that compare
    /// dequeue traces *across* backends sweep this set.
    pub const EXACT: [PifoBackend; 3] = [
        PifoBackend::SortedArray,
        PifoBackend::Heap,
        PifoBackend::Bucket,
    ];

    /// The approximate backends (default parameterisations) — each
    /// relaxes the sorted-pop invariant; see [`crate::approx`].
    pub const APPROX: [PifoBackend; 3] = [
        PifoBackend::SpPifo {
            queues: crate::approx::DEFAULT_SP_PIFO_QUEUES,
        },
        PifoBackend::Rifo,
        PifoBackend::Aifo,
    ];

    /// Every backend, exact trio first (useful for bench sweeps and for
    /// properties that hold per-backend, like capacity admission).
    /// Cross-backend trace comparisons should use [`EXACT`](Self::EXACT).
    pub const ALL: [PifoBackend; 6] = [
        PifoBackend::SortedArray,
        PifoBackend::Heap,
        PifoBackend::Bucket,
        PifoBackend::SpPifo {
            queues: crate::approx::DEFAULT_SP_PIFO_QUEUES,
        },
        PifoBackend::Rifo,
        PifoBackend::Aifo,
    ];

    /// True for backends that honour the full PIFO contract (sorted
    /// pops); false for the deliberately inexact family.
    pub fn is_exact(self) -> bool {
        matches!(
            self,
            PifoBackend::SortedArray | PifoBackend::Heap | PifoBackend::Bucket
        )
    }

    /// Short stable family name (`sorted` / `heap` / `bucket` /
    /// `sp-pifo` / `rifo` / `aifo`). Unlike [`Display`](std::fmt::Display),
    /// the label drops parameters (`SpPifo { queues: 4 }` and
    /// `{ queues: 8 }` share the `sp-pifo` label); `to_string()` is the
    /// lossless inverse of [`FromStr`].
    pub fn label(self) -> &'static str {
        match self {
            PifoBackend::SortedArray => "sorted",
            PifoBackend::Heap => "heap",
            PifoBackend::Bucket => "bucket",
            PifoBackend::SpPifo { .. } => "sp-pifo",
            PifoBackend::Rifo => "rifo",
            PifoBackend::Aifo => "aifo",
        }
    }

    /// Construct an unbounded queue of this backend: an [`EnumPifo`],
    /// statically dispatched, so push/pop monomorphize on every caller's
    /// hot path (the scheduling tree's per-node PIFOs included).
    ///
    /// ```
    /// use pifo_core::prelude::*;
    ///
    /// let mut q = PifoBackend::Bucket.make_enum::<&str>();
    /// assert_eq!(q.backend(), PifoBackend::Bucket);
    /// q.push(Rank(20), "late");
    /// q.push(Rank(10), "early");
    /// assert_eq!(q.pop(), Some((Rank(10), "early")));
    /// assert_eq!(q.pop(), Some((Rank(20), "late")));
    /// ```
    pub fn make_enum<T>(self) -> EnumPifo<T> {
        match self {
            PifoBackend::SortedArray => EnumPifo::SortedArray(SortedArrayPifo::new()),
            PifoBackend::Heap => EnumPifo::Heap(HeapPifo::new()),
            PifoBackend::Bucket => EnumPifo::Bucket(BucketPifo::new()),
            PifoBackend::SpPifo { queues } => {
                EnumPifo::SpPifo(crate::approx::SpPifo::new(queues as usize))
            }
            PifoBackend::Rifo => EnumPifo::Rifo(crate::approx::Rifo::new()),
            PifoBackend::Aifo => EnumPifo::Aifo(crate::approx::Aifo::new()),
        }
    }

    /// [`make_enum`](Self::make_enum) with a capacity bound.
    pub fn make_enum_bounded<T>(self, capacity: usize) -> EnumPifo<T> {
        match self {
            PifoBackend::SortedArray => {
                EnumPifo::SortedArray(SortedArrayPifo::with_capacity(capacity))
            }
            PifoBackend::Heap => EnumPifo::Heap(HeapPifo::with_capacity(capacity)),
            PifoBackend::Bucket => EnumPifo::Bucket(BucketPifo::with_capacity(capacity)),
            PifoBackend::SpPifo { queues } => EnumPifo::SpPifo(
                crate::approx::SpPifo::with_capacity(queues as usize, capacity),
            ),
            PifoBackend::Rifo => EnumPifo::Rifo(crate::approx::Rifo::with_capacity(capacity)),
            PifoBackend::Aifo => EnumPifo::Aifo(crate::approx::Aifo::with_capacity(capacity)),
        }
    }
}

// ---------------------------------------------------------------------------
// EnumPifo — static dispatch over the six engines
// ---------------------------------------------------------------------------

/// A closed sum of the six queue engines with `match` dispatch — what
/// [`PifoBackend::make_enum`] returns.
///
/// Every method delegates to the inhabited engine, so an `EnumPifo` is
/// observably that engine; the compiler sees concrete types through one
/// `match`, so hot-path `push`/`pop`/`peek` inline and monomorphize. The
/// scheduling tree stores one of these per node.
#[derive(Debug, Clone)]
pub enum EnumPifo<T> {
    /// [`SortedArrayPifo`] — the O(n)-insert reference.
    SortedArray(SortedArrayPifo<T>),
    /// [`HeapPifo`] — O(log n) binary heap.
    Heap(HeapPifo<T>),
    /// [`BucketPifo`] — FFS bucket calendar, O(1) amortised.
    Bucket(BucketPifo<T>),
    /// [`SpPifo`](crate::approx::SpPifo) — approximate k-queue SP-PIFO.
    SpPifo(crate::approx::SpPifo<T>),
    /// [`Rifo`](crate::approx::Rifo) — approximate windowed-admission FIFO.
    Rifo(crate::approx::Rifo<T>),
    /// [`Aifo`](crate::approx::Aifo) — approximate quantile-admission FIFO.
    Aifo(crate::approx::Aifo<T>),
}

/// Delegate one method to whichever engine is inhabited.
macro_rules! enum_pifo_delegate {
    ($self:ident, $q:ident => $body:expr) => {
        match $self {
            EnumPifo::SortedArray($q) => $body,
            EnumPifo::Heap($q) => $body,
            EnumPifo::Bucket($q) => $body,
            EnumPifo::SpPifo($q) => $body,
            EnumPifo::Rifo($q) => $body,
            EnumPifo::Aifo($q) => $body,
        }
    };
}

impl<T> EnumPifo<T> {
    /// The backend selector this queue was built from.
    pub fn backend(&self) -> PifoBackend {
        match self {
            EnumPifo::SortedArray(_) => PifoBackend::SortedArray,
            EnumPifo::Heap(_) => PifoBackend::Heap,
            EnumPifo::Bucket(_) => PifoBackend::Bucket,
            EnumPifo::SpPifo(q) => PifoBackend::SpPifo {
                queues: u8::try_from(q.num_queues()).unwrap_or(u8::MAX),
            },
            EnumPifo::Rifo(_) => PifoBackend::Rifo,
            EnumPifo::Aifo(_) => PifoBackend::Aifo,
        }
    }
}

impl<T> PifoQueue<T> for EnumPifo<T> {
    #[inline]
    fn try_push(&mut self, rank: Rank, item: T) -> Result<(), PifoFull<T>> {
        enum_pifo_delegate!(self, q => q.try_push(rank, item))
    }

    #[inline]
    fn pop(&mut self) -> Option<(Rank, T)> {
        enum_pifo_delegate!(self, q => q.pop())
    }

    #[inline]
    fn peek(&self) -> Option<(Rank, &T)> {
        enum_pifo_delegate!(self, q => q.peek())
    }

    #[inline]
    fn len(&self) -> usize {
        enum_pifo_delegate!(self, q => q.len())
    }

    fn capacity(&self) -> Option<usize> {
        enum_pifo_delegate!(self, q => q.capacity())
    }

    fn iter_in_order(&self) -> Box<dyn Iterator<Item = (Rank, &T)> + '_> {
        enum_pifo_delegate!(self, q => q.iter_in_order())
    }
}

impl fmt::Display for PifoBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // The parameter rides along so Display/FromStr round-trip
            // losslessly: `sp-pifo:4` parses back to 4 queues.
            PifoBackend::SpPifo { queues } => write!(f, "sp-pifo:{queues}"),
            other => f.write_str(other.label()),
        }
    }
}

/// The selector names [`FromStr`] accepts, for CLI usage strings and
/// parse errors. `sp-pifo` takes an optional `:k` queue count
/// (1–255, default 8).
pub const BACKEND_NAMES: &str = "sorted | heap | bucket | sp-pifo[:k] | rifo | aifo";

impl FromStr for PifoBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        if let Some(k) = ["sp-pifo", "sp_pifo", "sppifo"].iter().find_map(|fam| {
            lower
                .strip_prefix(fam)
                .and_then(|rest| rest.strip_prefix(':').or(rest.is_empty().then_some("")))
        }) {
            let queues = if k.is_empty() {
                crate::approx::DEFAULT_SP_PIFO_QUEUES
            } else {
                k.parse::<u8>()
                    .ok()
                    .filter(|&q| q >= 1)
                    .ok_or_else(|| format!("invalid sp-pifo queue count '{k}' (expected 1-255)"))?
            };
            return Ok(PifoBackend::SpPifo { queues });
        }
        match lower.as_str() {
            "sorted" | "sorted-array" | "sorted_array" | "array" => Ok(PifoBackend::SortedArray),
            "heap" => Ok(PifoBackend::Heap),
            "bucket" | "calendar" | "ffs" => Ok(PifoBackend::Bucket),
            "rifo" => Ok(PifoBackend::Rifo),
            "aifo" => Ok(PifoBackend::Aifo),
            other => Err(format!(
                "unknown PIFO backend '{other}' (expected {BACKEND_NAMES})"
            )),
        }
    }
}

// ---------------------------------------------------------------------------
// SortedArrayPifo
// ---------------------------------------------------------------------------

/// Reference PIFO: a flat array kept sorted by `(rank, enqueue sequence)`.
///
/// `push` binary-searches for the insertion point *after* all equal ranks
/// (FIFO tie-break) and shifts; `pop` takes from the front. This mirrors
/// the naive hardware organisation of §5.2 ("an incoming element is
/// compared against all elements in parallel … then inserted by shifting
/// the array") and is the semantic reference for all other PIFOs.
#[derive(Debug, Clone)]
pub struct SortedArrayPifo<T> {
    items: VecDeque<(Rank, u64, T)>,
    seq: u64,
    capacity: Option<usize>,
}

impl<T> Default for SortedArrayPifo<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SortedArrayPifo<T> {
    /// An unbounded PIFO.
    pub fn new() -> Self {
        SortedArrayPifo {
            items: VecDeque::new(),
            seq: 0,
            capacity: None,
        }
    }

    /// A PIFO that rejects pushes beyond `capacity` elements.
    pub fn with_capacity(capacity: usize) -> Self {
        SortedArrayPifo {
            items: VecDeque::with_capacity(capacity),
            seq: 0,
            capacity: Some(capacity),
        }
    }

    /// Iterate over `(rank, item)` in dequeue order without removing.
    /// (Also available backend-agnostically as
    /// [`PifoQueue::iter_in_order`].)
    pub fn iter(&self) -> impl Iterator<Item = (Rank, &T)> {
        self.items.iter().map(|(r, _, t)| (*r, t))
    }
}

impl<T> PifoQueue<T> for SortedArrayPifo<T> {
    fn try_push(&mut self, rank: Rank, item: T) -> Result<(), PifoFull<T>> {
        if let Some(cap) = self.capacity {
            if self.items.len() >= cap {
                return Err(PifoFull {
                    rank,
                    item,
                    capacity: cap,
                });
            }
        }
        // First index whose rank exceeds the new rank: equal ranks stay
        // ahead of us (FIFO tie-break).
        let idx = self.items.partition_point(|(r, _, _)| *r <= rank);
        self.items.insert(idx, (rank, self.seq, item));
        self.seq += 1;
        Ok(())
    }

    fn pop(&mut self) -> Option<(Rank, T)> {
        self.items.pop_front().map(|(r, _, t)| (r, t))
    }

    fn peek(&self) -> Option<(Rank, &T)> {
        self.items.front().map(|(r, _, t)| (*r, t))
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    fn iter_in_order(&self) -> Box<dyn Iterator<Item = (Rank, &T)> + '_> {
        Box::new(self.iter())
    }
}

// ---------------------------------------------------------------------------
// HeapPifo
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct HeapEntry<T> {
    rank: Rank,
    seq: u64,
    item: T,
}

impl<T> HeapEntry<T> {
    /// `(rank, seq)` as one integer, `(rank << 64) | seq`: ordering two
    /// entries is one 128-bit compare, with no branch on equal ranks.
    /// (Built from the two words on demand, so an entry keeps 8-byte
    /// alignment.) `seq` is unique per queue, so keys never tie.
    #[inline]
    fn key(&self) -> u128 {
        (u128::from(self.rank.value()) << 64) | u128::from(self.seq)
    }
}

// `BinaryHeap` is a max-heap: every comparison is inverted so the
// smallest key — lowest rank, earliest push among ties — is at the top.
// The operators are spelled out because the heap's sifts call `<=`
// directly.
impl<T> PartialEq for HeapEntry<T> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T> Eq for HeapEntry<T> {}

impl<T> Ord for HeapEntry<T> {
    #[inline]
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        other.key().cmp(&self.key())
    }
}
impl<T> PartialOrd for HeapEntry<T> {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
    #[inline]
    fn lt(&self, other: &Self) -> bool {
        self.key() > other.key()
    }
    #[inline]
    fn le(&self, other: &Self) -> bool {
        self.key() >= other.key()
    }
    #[inline]
    fn gt(&self, other: &Self) -> bool {
        self.key() < other.key()
    }
    #[inline]
    fn ge(&self, other: &Self) -> bool {
        self.key() <= other.key()
    }
}

/// A heap's entries as a freshly sorted vector of references (dequeue
/// order) — the heaps' ordered view for [`PifoQueue::iter_in_order`].
fn sorted_refs<T>(heap: &BinaryHeap<HeapEntry<T>>) -> Vec<&HeapEntry<T>> {
    let mut v: Vec<&HeapEntry<T>> = heap.iter().collect();
    v.sort_unstable_by_key(|e| e.key());
    v
}

/// Binary-heap PIFO with stable FIFO tie-breaking: `O(log n)` push/pop.
///
/// Functionally identical to [`SortedArrayPifo`]. Inspection operations
/// materialise a sorted view, so they cost O(n log n) — fine for their
/// debug/model use, not for the hot path.
#[derive(Debug, Clone)]
pub struct HeapPifo<T> {
    heap: BinaryHeap<HeapEntry<T>>,
    seq: u64,
    capacity: Option<usize>,
}

impl<T> Default for HeapPifo<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> HeapPifo<T> {
    /// An unbounded PIFO.
    pub fn new() -> Self {
        HeapPifo {
            heap: BinaryHeap::new(),
            seq: 0,
            capacity: None,
        }
    }

    /// A PIFO that rejects pushes beyond `capacity` elements.
    pub fn with_capacity(capacity: usize) -> Self {
        HeapPifo {
            heap: BinaryHeap::with_capacity(capacity),
            seq: 0,
            capacity: Some(capacity),
        }
    }
}

impl<T> PifoQueue<T> for HeapPifo<T> {
    fn try_push(&mut self, rank: Rank, item: T) -> Result<(), PifoFull<T>> {
        if let Some(cap) = self.capacity {
            if self.heap.len() >= cap {
                return Err(PifoFull {
                    rank,
                    item,
                    capacity: cap,
                });
            }
        }
        self.heap.push(HeapEntry {
            rank,
            seq: self.seq,
            item,
        });
        self.seq += 1;
        Ok(())
    }

    fn pop(&mut self) -> Option<(Rank, T)> {
        self.heap.pop().map(|e| (e.rank, e.item))
    }

    fn peek(&self) -> Option<(Rank, &T)> {
        self.heap.peek().map(|e| (e.rank, &e.item))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    fn iter_in_order(&self) -> Box<dyn Iterator<Item = (Rank, &T)> + '_> {
        Box::new(
            sorted_refs(&self.heap)
                .into_iter()
                .map(|e| (e.rank, &e.item)),
        )
    }
}

// ---------------------------------------------------------------------------
// BucketPifo
// ---------------------------------------------------------------------------

/// Number of 64-bit words in the occupancy bitmap.
const BUCKET_WORDS: usize = 64;
/// Number of calendar buckets (one bit each in the two-level bitmap).
const NUM_BUCKETS: usize = BUCKET_WORDS * 64; // 4096
/// Buckets left free below a rank that falls under the calendar's base:
/// a downward rebase anchors this far below it, so a falling rank stream
/// rebases once per `HEADROOM` buckets it falls, not once per push.
const HEADROOM: u64 = NUM_BUCKETS as u64 / 4;

/// Eiffel-inspired bucketed calendar PIFO with a two-level find-first-set
/// bitmap: `O(1)` amortised calendar work per push and pop for integer
/// ranks, plus `O(log b)` inside a bucket of `b` residents.
///
/// Ranks are mapped to one of `NUM_BUCKETS` (4096) buckets of `2^shift`
/// consecutive rank values, starting at a moving `base`. A 64×64-bit
/// hierarchical bitmap finds the lowest non-empty bucket with two
/// `trailing_zeros` instructions (the software analogue of Eiffel's FFS
/// circular queues, NSDI'19). Ranks beyond the calendar horizon go to an
/// overflow heap; when the calendar empties, a pop re-anchors it at the
/// overflow minimum, returns that minimum and migrates the overflow
/// entries within the new window. A rank below the base rebases the
/// calendar a quarter window below it, walking only the occupied buckets
/// (those pushed past the horizon spill to the overflow heap), so no
/// operation sweeps the whole window.
///
/// Unlike Eiffel's approximate gradient buckets this structure is
/// **exact**: each bucket is a binary heap in `(rank, sequence)` order,
/// so the dequeue trace — including FIFO tie-breaks — is byte-identical
/// to [`SortedArrayPifo`]'s (enforced by the cross-backend differential
/// property suite). A bucket that holds many equal or close ranks (a few
/// strict-priority classes) costs what the heap engine does.
///
/// The 4 096 bucket headers are allocated on the first push: a calendar
/// that never sees an element costs only its fixed fields.
#[derive(Debug, Clone)]
pub struct BucketPifo<T> {
    /// `NUM_BUCKETS` heaps once the first push has allocated them.
    buckets: Vec<BinaryHeap<HeapEntry<T>>>,
    /// Bit `w` set ⇔ `words[w] != 0`.
    summary: u64,
    /// Bit `b` of `words[w]` set ⇔ bucket `w*64 + b` is non-empty
    /// (`BUCKET_WORDS` words, allocated with `buckets`).
    words: Vec<u64>,
    /// `rank >> shift` of bucket 0.
    base_bucket: u64,
    /// log2 of the rank span each bucket covers.
    shift: u32,
    /// Entries with `rank >> shift` beyond the calendar horizon.
    overflow: BinaryHeap<HeapEntry<T>>,
    len: usize,
    seq: u64,
    capacity: Option<usize>,
    /// Buckets the downward rebases have visited (each one moved or
    /// spilled), for the tests that bound rebase work.
    #[cfg(test)]
    rebase_visits: u64,
}

/// Default bucket granularity: 2^8 rank values per bucket, giving a
/// calendar window of 4096 × 256 ≈ 1 M rank values — wide enough that
/// virtual-time and timestamp ranks of a busy port mostly land in the
/// calendar rather than the overflow heap.
const DEFAULT_BUCKET_SHIFT: u32 = 8;

impl<T> Default for BucketPifo<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> BucketPifo<T> {
    /// An unbounded PIFO with the default bucket granularity.
    pub fn new() -> Self {
        Self::with_shift(DEFAULT_BUCKET_SHIFT)
    }

    /// A PIFO that rejects pushes beyond `capacity` elements.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut q = Self::new();
        q.capacity = Some(capacity);
        q
    }

    /// An unbounded PIFO whose buckets each cover `2^shift` rank values.
    /// Smaller shifts mean finer buckets (fewer residents each) but a
    /// narrower calendar window before ranks spill to the overflow heap.
    pub fn with_shift(shift: u32) -> Self {
        assert!(shift < 56, "bucket shift {shift} leaves no rank bits");
        BucketPifo {
            buckets: Vec::new(),
            summary: 0,
            words: Vec::new(),
            base_bucket: 0,
            shift,
            overflow: BinaryHeap::new(),
            len: 0,
            seq: 0,
            capacity: None,
            #[cfg(test)]
            rebase_visits: 0,
        }
    }

    /// Build the bucket array and its bitmap (the first push).
    #[cold]
    fn allocate(&mut self) {
        self.buckets = (0..NUM_BUCKETS).map(|_| BinaryHeap::new()).collect();
        self.words = vec![0; BUCKET_WORDS];
    }

    #[inline]
    fn mark(&mut self, idx: usize) {
        self.words[idx / 64] |= 1 << (idx % 64);
        self.summary |= 1 << (idx / 64);
    }

    #[inline]
    fn unmark(&mut self, idx: usize) {
        self.words[idx / 64] &= !(1 << (idx % 64));
        if self.words[idx / 64] == 0 {
            self.summary &= !(1 << (idx / 64));
        }
    }

    /// Lowest non-empty bucket index, via two FFS steps.
    #[inline]
    fn first_occupied(&self) -> Option<usize> {
        if self.summary == 0 {
            return None;
        }
        let w = self.summary.trailing_zeros() as usize;
        let b = self.words[w].trailing_zeros() as usize;
        Some(w * 64 + b)
    }

    /// Shift the calendar down so that bucket 0 covers `new_base` (a
    /// virtual bucket index below the current base). Walks only the
    /// occupied buckets, off the bitmap and from the top: each moves up
    /// by the same delta into a slot the walk has already vacated, or
    /// spills to the overflow heap if that passes the horizon.
    fn rebase_down(&mut self, new_base: u64) {
        let delta = self.base_bucket - new_base;
        self.base_bucket = new_base;
        let mut summary = std::mem::take(&mut self.summary);
        while summary != 0 {
            let w = 63 - summary.leading_zeros() as usize;
            summary &= !(1 << w);
            // Taken, not read: targets lie at or above `w`, so the marks
            // the moves set land in words this walk has already emptied.
            let mut bits = std::mem::take(&mut self.words[w]);
            while bits != 0 {
                let b = 63 - bits.leading_zeros() as usize;
                bits &= !(1 << b);
                let i = w * 64 + b;
                #[cfg(test)]
                {
                    self.rebase_visits += 1;
                }
                // Saturating: a huge delta (rebasing down from a near-max
                // base) must spill to overflow, not wrap around.
                let target = (i as u64).saturating_add(delta);
                if target < NUM_BUCKETS as u64 {
                    self.buckets.swap(i, target as usize);
                    self.mark(target as usize);
                } else {
                    let spilled = &mut self.buckets[i];
                    self.overflow.extend(spilled.drain());
                }
            }
        }
    }

    /// The calendar is empty but the overflow heap is not: pop the
    /// overflow minimum (the global minimum), re-anchor the calendar at
    /// it and migrate every overflow entry within the new window. The
    /// minimum itself is returned, never parked in a bucket, so a lone
    /// entry (the next one beyond the window) costs one heap pop.
    fn refill_from_overflow(&mut self) -> Option<HeapEntry<T>> {
        debug_assert_eq!(self.summary, 0);
        let min = self.overflow.pop()?;
        self.base_bucket = min.rank.value() >> self.shift;
        while let Some(e) = self.overflow.peek() {
            // Offset from the new base; overflow-free because the base is
            // the overflow minimum (near-u64::MAX ranks at tiny shifts
            // would overflow an absolute `base + NUM_BUCKETS` horizon).
            let off = (e.rank.value() >> self.shift) - self.base_bucket;
            if off >= NUM_BUCKETS as u64 {
                break;
            }
            let e = self.overflow.pop().expect("peeked entry vanished");
            self.buckets[off as usize].push(e);
            self.mark(off as usize);
        }
        Some(min)
    }

    /// Place an entry on the correct side of the horizon.
    ///
    /// Invariant maintained throughout: every calendar rank `<` every
    /// overflow rank (bucket ranks are below the horizon, overflow ranks
    /// at or above it, and the horizon only moves when it preserves this).
    fn place(&mut self, e: HeapEntry<T>) {
        let vb = e.rank.value() >> self.shift;
        if self.summary == 0 && self.overflow.is_empty() {
            self.base_bucket = vb;
        } else if vb < self.base_bucket {
            self.rebase_down(vb.saturating_sub(HEADROOM));
        }
        // Offset comparison, not an absolute horizon: `base + NUM_BUCKETS`
        // would overflow u64 for near-max ranks at tiny shifts.
        let off = vb - self.base_bucket;
        if off >= NUM_BUCKETS as u64 {
            self.overflow.push(e);
        } else {
            self.buckets[off as usize].push(e);
            self.mark(off as usize);
        }
    }
}

impl<T> PifoQueue<T> for BucketPifo<T> {
    fn try_push(&mut self, rank: Rank, item: T) -> Result<(), PifoFull<T>> {
        if let Some(cap) = self.capacity {
            if self.len >= cap {
                return Err(PifoFull {
                    rank,
                    item,
                    capacity: cap,
                });
            }
        }
        if self.buckets.is_empty() {
            self.allocate();
        }
        let seq = self.seq;
        self.seq += 1;
        self.place(HeapEntry { rank, seq, item });
        self.len += 1;
        Ok(())
    }

    fn pop(&mut self) -> Option<(Rank, T)> {
        let e = match self.first_occupied() {
            Some(idx) => {
                let bucket = &mut self.buckets[idx];
                let e = bucket.pop().expect("bitmap said occupied");
                if bucket.is_empty() {
                    self.unmark(idx);
                }
                e
            }
            None => self.refill_from_overflow()?,
        };
        self.len -= 1;
        Some((e.rank, e.item))
    }

    fn peek(&self) -> Option<(Rank, &T)> {
        let e = match self.first_occupied() {
            Some(idx) => self.buckets[idx].peek(),
            // Calendar empty: the overflow minimum is the global minimum.
            None => self.overflow.peek(),
        };
        e.map(|e| (e.rank, &e.item))
    }

    fn len(&self) -> usize {
        self.len
    }

    fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    fn iter_in_order(&self) -> Box<dyn Iterator<Item = (Rank, &T)> + '_> {
        // Calendar ranks all precede overflow ranks (horizon invariant),
        // so dequeue order is: buckets by index, each sorted, then the
        // overflow sorted.
        Box::new(
            self.buckets
                .iter()
                .chain(std::iter::once(&self.overflow))
                .flat_map(sorted_refs)
                .map(|e| (e.rank, &e.item)),
        )
    }
}

// ---------------------------------------------------------------------------
// FlowPifo
// ---------------------------------------------------------------------------

/// End of a cell chain (no next cell, an empty free list), and the
/// mark of an empty [`FlowIndex`] slot.
const NIL: u32 = u32::MAX;

/// One rank-store cell. While live it holds an element and links to the
/// next element of the same flow; while free, `next` links the free list.
#[derive(Debug, Clone)]
struct FlowCell<T> {
    rank: Rank,
    /// The element's push sequence number, kept for when it becomes its
    /// flow's head.
    seq: u64,
    next: u32,
    item: Option<T>,
}

/// The rank store of §5.2: the cells that hold the elements of every
/// flow FIFO of one or more [`FlowScheduler`]s, with one LIFO free list.
///
/// In the paper's PIFO block, every logical PIFO mapped to the block
/// shares one rank store; here every flow-sorting node of one
/// [`ScheduleTree`](crate::tree::ScheduleTree) shares one `RankStore`.
/// The store only decides which cell holds an element: order is the
/// schedulers'. Because the free list is LIFO across all of them, a
/// push reuses the cell the most recent pop freed, whichever scheduler
/// popped it, and the store grows only to the peak of the elements its
/// schedulers hold together, not to the sum of their peaks. A push
/// allocates only when the store grows past that peak.
#[derive(Debug, Clone)]
pub struct RankStore<T> {
    cells: Vec<FlowCell<T>>,
    /// Head of the free-cell list.
    free: u32,
}

impl<T> Default for RankStore<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> RankStore<T> {
    /// An empty store.
    pub fn new() -> Self {
        RankStore {
            cells: Vec::new(),
            free: NIL,
        }
    }

    /// Cells ever allocated: the most elements the store has held at
    /// once.
    pub fn high_water(&self) -> usize {
        self.cells.len()
    }

    /// Cells on the free list. Walks the list: for tests and
    /// introspection, not the per-packet path.
    pub fn free_cells(&self) -> usize {
        let linked = |i: u32| (i != NIL).then_some(i);
        std::iter::successors(linked(self.free), |&i| linked(self.cells[i as usize].next))
            .take(self.cells.len() + 1)
            .count()
    }

    /// Cells holding an element: [`high_water`](Self::high_water) less
    /// the free list (so it walks the list too).
    pub fn live(&self) -> usize {
        self.cells.len() - self.free_cells()
    }

    /// Take a cell from the free list, or grow the store.
    fn alloc(&mut self, cell: FlowCell<T>) -> u32 {
        if self.free == NIL {
            let idx = u32::try_from(self.cells.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("a RankStore holds fewer than u32::MAX elements");
            self.cells.push(cell);
            idx
        } else {
            let idx = self.free;
            let slot = &mut self.cells[idx as usize];
            self.free = slot.next;
            *slot = cell;
            idx
        }
    }
}

/// Fig 12's flow scheduler for one logical PIFO: a small heap of
/// per-flow **heads** over per-flow FIFOs whose cells live in a
/// [`RankStore`] the caller passes in, which other schedulers may share.
///
/// Every call must pass the store that this scheduler's earlier pushes
/// went to. [`FlowPifo`] pairs one scheduler with a store of its own;
/// the scheduling tree runs one scheduler per flow-sorting node over one
/// store for the whole tree. The semantics are [`FlowPifo`]'s.
#[derive(Debug, Clone)]
pub struct FlowScheduler {
    /// Active flow → its tail cell.
    tails: FlowIndex,
    /// Min-heap of flow heads keyed `(rank, seq, head cell, flow)`; `seq`
    /// is unique, so the trailing fields never decide the order.
    heads: BinaryHeap<Reverse<(Rank, u64, u32, FlowId)>>,
    seq: u64,
    len: usize,
}

impl Default for FlowScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl FlowScheduler {
    /// An empty scheduler.
    pub fn new() -> Self {
        FlowScheduler {
            tails: FlowIndex::new(),
            heads: BinaryHeap::new(),
            seq: 0,
            len: 0,
        }
    }

    /// Push `item` with `rank` onto the tail of `flow`'s FIFO, in a cell
    /// of `store`.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is below the rank of `flow`'s current tail (see
    /// [`FlowPifo::push`]).
    #[inline]
    pub fn push<T>(&mut self, store: &mut RankStore<T>, flow: FlowId, rank: Rank, item: T) {
        let seq = self.seq;
        self.seq += 1;
        let cell = FlowCell {
            rank,
            seq,
            next: NIL,
            item: Some(item),
        };
        match self.tails.find(flow) {
            Ok(at) => {
                let tail = self.tails.slots[at].1 as usize;
                let tail_rank = store.cells[tail].rank;
                assert!(
                    tail_rank <= rank,
                    "FlowPifo: flow {flow} pushed rank {rank} behind rank {tail_rank}; \
                     its transaction declared per-flow monotone ranks"
                );
                let idx = store.alloc(cell);
                store.cells[tail].next = idx;
                self.tails.slots[at].1 = idx;
            }
            Err(at) => {
                let idx = store.alloc(cell);
                self.tails.insert(at, flow, idx);
                self.heads.push(Reverse((rank, seq, idx, flow)));
            }
        }
        self.len += 1;
    }

    /// Pop the head: the lowest `(rank, push order)` across all flows.
    /// Its cell goes back on `store`'s free list.
    #[inline]
    pub fn pop<T>(&mut self, store: &mut RankStore<T>) -> Option<(Rank, T)> {
        let mut top = self.heads.peek_mut()?;
        let Reverse((rank, _, idx, flow)) = *top;
        let cell = &mut store.cells[idx as usize];
        let item = cell.item.take().expect("a flow head is a live cell");
        let next = cell.next;
        cell.next = store.free;
        store.free = idx;
        if next == NIL {
            PeekMut::pop(top);
            let at = self.tails.find(flow).expect("an active flow has a tail");
            self.tails.remove_at(at);
        } else {
            // The flow's next element becomes its head under its own
            // original sequence number, which keeps cross-flow ties FIFO.
            let head = &store.cells[next as usize];
            *top = Reverse((head.rank, head.seq, next, flow));
        }
        self.len -= 1;
        Some((rank, item))
    }

    /// Inspect the head without removing it.
    #[inline]
    pub fn peek<'s, T>(&self, store: &'s RankStore<T>) -> Option<(Rank, &'s T)> {
        let Reverse((rank, _, idx, _)) = self.heads.peek()?;
        let item = store.cells[*idx as usize].item.as_ref();
        Some((*rank, item.expect("a flow head is a live cell")))
    }

    /// Number of buffered elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no element is buffered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of flow-table entries: the flows with at least one element
    /// buffered.
    pub fn flows(&self) -> usize {
        self.tails.len
    }

    /// Iterate over `(rank, item)` in dequeue order without removing.
    /// Walks this scheduler's own flow chains from their heads (never
    /// the whole store, which may hold other schedulers' elements) and
    /// sorts them: for introspection, not the per-packet path.
    pub fn iter_in_order<'s, T>(
        &self,
        store: &'s RankStore<T>,
    ) -> impl Iterator<Item = (Rank, &'s T)> + 's {
        let mut live: Vec<(Rank, u64, &T)> = Vec::with_capacity(self.len);
        for &Reverse((_, _, head, _)) in self.heads.iter() {
            let mut at = head;
            while at != NIL {
                let c = &store.cells[at as usize];
                live.push((
                    c.rank,
                    c.seq,
                    c.item.as_ref().expect("a queued cell is live"),
                ));
                at = c.next;
            }
        }
        live.sort_unstable_by_key(|&(rank, seq, _)| (rank, seq));
        live.into_iter().map(|(rank, _, item)| (rank, item))
    }
}

/// Fig 12's decomposition of one PIFO: a small heap of per-flow **heads**
/// (the flow scheduler) over per-flow FIFOs (the rank store, §5.2).
///
/// Exact only under a precondition the caller declares: within one flow,
/// ranks never decrease
/// ([`SchedulingTransaction::ranks_monotone_per_flow`](
/// crate::transaction::SchedulingTransaction::ranks_monotone_per_flow)).
/// Then each flow's elements are already in `(rank, seq)` order, so the
/// global minimum is the minimum over flow heads, and a pop sorts among
/// the active flows instead of among every buffered element. [`push`](
/// Self::push) asserts the precondition in every build. Strictly, only
/// a flow's *queued* elements must be in rank order: a flow that drains
/// leaves the table and may return at any rank.
///
/// Pops come out in exactly [`SortedArrayPifo`]'s `(rank, seq)` order,
/// FIFO ties across flows included, because a head is keyed by its
/// element's *original* push sequence number, not one taken when it
/// became the head. (The hardware model's flow scheduler re-inserts
/// heads in arrival order and is not exact on cross-flow ties.)
///
/// The two halves are separate types: a [`FlowScheduler`] (the heads
/// and the flow table) over a [`RankStore`] (the cells and their free
/// list). A `FlowPifo` owns one of each; the scheduling tree runs one
/// scheduler per flow-sorting node over a single store, as a PIFO
/// block's logical PIFOs share its rank store (§5.2). Either way a push
/// or pop allocates only when the store or the flow table grows past
/// its peak. A flow's table entry is removed when its FIFO empties:
/// state is bounded by the *active* flows, not by every flow ever seen.
///
/// ```
/// use pifo_core::pifo::FlowPifo;
/// use pifo_core::prelude::*;
///
/// let mut q = FlowPifo::new();
/// q.push(FlowId(1), Rank(10), "a1");
/// q.push(FlowId(2), Rank(10), "b1");
/// q.push(FlowId(1), Rank(20), "a2");
/// q.push(FlowId(2), Rank(15), "b2");
/// let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
/// assert_eq!(order, ["a1", "b1", "b2", "a2"]);
/// assert_eq!(q.flows(), 0, "drained flows leave no table entries");
/// ```
#[derive(Debug, Clone)]
pub struct FlowPifo<T> {
    sched: FlowScheduler,
    store: RankStore<T>,
}

impl<T> Default for FlowPifo<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> FlowPifo<T> {
    /// An empty queue.
    pub fn new() -> Self {
        FlowPifo {
            sched: FlowScheduler::new(),
            store: RankStore::new(),
        }
    }

    /// Push `item` with `rank` onto the tail of `flow`'s FIFO.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is below the rank of `flow`'s current tail: the
    /// caller broke the per-flow monotone precondition this queue's
    /// exactness rests on.
    pub fn push(&mut self, flow: FlowId, rank: Rank, item: T) {
        self.sched.push(&mut self.store, flow, rank, item);
    }

    /// Pop the head: the lowest `(rank, push order)` across all flows.
    pub fn pop(&mut self) -> Option<(Rank, T)> {
        self.sched.pop(&mut self.store)
    }

    /// Inspect the head without removing it.
    pub fn peek(&self) -> Option<(Rank, &T)> {
        self.sched.peek(&self.store)
    }

    /// Number of buffered elements.
    pub fn len(&self) -> usize {
        self.sched.len()
    }

    /// True when no element is buffered.
    pub fn is_empty(&self) -> bool {
        self.sched.is_empty()
    }

    /// Number of flow-table entries: the flows with at least one element
    /// buffered.
    pub fn flows(&self) -> usize {
        self.sched.flows()
    }

    /// Iterate over `(rank, item)` in dequeue order without removing.
    /// Sorts a view of the queued elements: for introspection, not the
    /// per-packet path.
    pub fn iter_in_order(&self) -> impl Iterator<Item = (Rank, &T)> {
        self.sched.iter_in_order(&self.store)
    }
}

/// The flow table behind [`FlowPifo`]: active flow → tail cell, in open
/// addressing with linear probing, a multiplicative hash, load ≤ ½ and
/// backward-shift deletion (no tombstones, so churning through flows
/// never lengthens a probe).
///
/// Not a [`FlowMap`](crate::packet::FlowMap): where flows hold about
/// one element each, every push inserts an entry and every pop removes
/// one, and a `FlowMap` pair made each such packet measurably slower
/// than the plain heap engine.
#[derive(Debug, Clone)]
struct FlowIndex {
    /// `(flow, tail cell)`; a `NIL` cell marks an empty slot.
    slots: Vec<(FlowId, u32)>,
    /// `64 − log₂(slots.len())`: the hash keeps the product's top bits.
    shift: u32,
    len: usize,
}

impl FlowIndex {
    const INITIAL_SLOTS: usize = 8;

    fn new() -> Self {
        FlowIndex {
            slots: vec![(FlowId(0), NIL); Self::INITIAL_SLOTS],
            shift: 64 - Self::INITIAL_SLOTS.trailing_zeros(),
            len: 0,
        }
    }

    #[inline]
    fn home(&self, flow: FlowId) -> usize {
        (u64::from(flow.0).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// `Ok(slot)` holding `flow`, or `Err(slot)` where it would go.
    #[inline]
    fn find(&self, flow: FlowId) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut at = self.home(flow);
        loop {
            let (f, cell) = self.slots[at];
            if cell == NIL {
                return Err(at);
            }
            if f == flow {
                return Ok(at);
            }
            at = (at + 1) & mask;
        }
    }

    /// Insert the absent `flow` at `at`, the slot `find` returned.
    fn insert(&mut self, mut at: usize, flow: FlowId, cell: u32) {
        if 2 * (self.len + 1) > self.slots.len() {
            let grown = vec![(FlowId(0), NIL); 2 * self.slots.len()];
            let old = std::mem::replace(&mut self.slots, grown);
            self.shift -= 1;
            for (f, c) in old.into_iter().filter(|&(_, c)| c != NIL) {
                let to = self.find(f).expect_err("flows are unique");
                self.slots[to] = (f, c);
            }
            at = self.find(flow).expect_err("inserting an absent flow");
        }
        self.slots[at] = (flow, cell);
        self.len += 1;
    }

    /// Empty slot `hole`, moving back each later entry of its probe run
    /// whose home lies at or before the hole, so no lookup meets a gap.
    fn remove_at(&mut self, mut hole: usize) {
        let mask = self.slots.len() - 1;
        self.slots[hole].1 = NIL;
        self.len -= 1;
        let mut at = hole;
        loop {
            at = (at + 1) & mask;
            let (flow, cell) = self.slots[at];
            if cell == NIL {
                return;
            }
            let from_home = at.wrapping_sub(self.home(flow)) & mask;
            if from_home >= (at.wrapping_sub(hole) & mask) {
                self.slots[hole] = (flow, cell);
                self.slots[at].1 = NIL;
                hole = at;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<T, Q: PifoQueue<T> + ?Sized>(q: &mut Q) -> Vec<(Rank, T)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push(e);
        }
        out
    }

    fn basic_order<Q: PifoQueue<&'static str>>(mut q: Q) {
        q.push(Rank(30), "c");
        q.push(Rank(10), "a");
        q.push(Rank(20), "b");
        let order: Vec<_> = drain(&mut q).into_iter().map(|(_, s)| s).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn sorted_array_orders_by_rank() {
        basic_order(SortedArrayPifo::new());
    }

    #[test]
    fn heap_orders_by_rank() {
        basic_order(HeapPifo::new());
    }

    #[test]
    fn bucket_orders_by_rank() {
        basic_order(BucketPifo::new());
    }

    fn fifo_tie_break<Q: PifoQueue<u32>>(mut q: Q) {
        q.push(Rank(5), 1);
        q.push(Rank(5), 2);
        q.push(Rank(1), 0);
        q.push(Rank(5), 3);
        let order: Vec<_> = drain(&mut q).into_iter().map(|(_, v)| v).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn sorted_array_fifo_ties() {
        fifo_tie_break(SortedArrayPifo::new());
    }

    #[test]
    fn heap_fifo_ties() {
        fifo_tie_break(HeapPifo::new());
    }

    #[test]
    fn bucket_fifo_ties() {
        fifo_tie_break(BucketPifo::new());
    }

    #[test]
    fn push_in_reorders_pending() {
        // The defining PIFO behaviour: a later push with a smaller rank
        // overtakes earlier pushes still in the queue.
        let mut q = SortedArrayPifo::new();
        q.push(Rank(100), "slow");
        q.push(Rank(1), "urgent");
        assert_eq!(q.pop().unwrap().1, "urgent");
        assert_eq!(q.pop().unwrap().1, "slow");
    }

    #[test]
    fn capacity_rejects_and_returns_item() {
        let mut q = SortedArrayPifo::with_capacity(2);
        assert!(q.try_push(Rank(1), 'a').is_ok());
        assert!(q.try_push(Rank(2), 'b').is_ok());
        let err = q.try_push(Rank(0), 'c').unwrap_err();
        assert_eq!(err.item, 'c');
        assert_eq!(err.rank, Rank(0));
        assert_eq!(err.capacity, 2);
        assert_eq!(q.len(), 2);
        // After a pop there is room again.
        q.pop();
        assert!(q.try_push(Rank(0), 'c').is_ok());
    }

    #[test]
    fn heap_capacity_rejects() {
        let mut q = HeapPifo::with_capacity(1);
        assert!(q.try_push(Rank(1), 1).is_ok());
        assert!(q.try_push(Rank(1), 2).is_err());
        assert_eq!(q.capacity(), Some(1));
    }

    #[test]
    fn pifo_full_display_names_capacity_and_rank() {
        let mut q = BucketPifo::with_capacity(3);
        for i in 0..3 {
            q.push(Rank(i), i);
        }
        let err = q.try_push(Rank(42), 99).unwrap_err();
        let msg = err.to_string();
        assert_eq!(msg, "PIFO full (capacity 3): rejected element with rank 42");
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = HeapPifo::new();
        q.push(Rank(2), "x");
        q.push(Rank(1), "y");
        assert_eq!(q.peek(), Some((Rank(1), &"y")));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((Rank(1), "y")));
    }

    #[test]
    fn empty_pops_none() {
        let mut q: SortedArrayPifo<u8> = SortedArrayPifo::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek(), None);
    }

    #[test]
    fn iter_in_order_matches_drain_order() {
        for backend in PifoBackend::ALL {
            let mut q = backend.make_enum::<u64>();
            // Spread ranks across buckets, within one bucket, and into the
            // bucket backend's overflow region.
            for (i, r) in [5u64, 5, 1 << 30, 3, 700, 5, 1 << 40, 0].iter().enumerate() {
                q.push(Rank(*r), i as u64);
            }
            let via_iter: Vec<(Rank, u64)> = q.iter_in_order().map(|(r, v)| (r, *v)).collect();
            let via_drain: Vec<(Rank, u64)> = drain(&mut q);
            assert_eq!(via_iter, via_drain, "{backend}");
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = HeapPifo::new();
        q.push(Rank(10), 10);
        q.push(Rank(5), 5);
        assert_eq!(q.pop().unwrap().0, Rank(5));
        q.push(Rank(1), 1);
        q.push(Rank(7), 7);
        assert_eq!(q.pop().unwrap().0, Rank(1));
        assert_eq!(q.pop().unwrap().0, Rank(7));
        assert_eq!(q.pop().unwrap().0, Rank(10));
        assert!(q.pop().is_none());
    }

    #[test]
    fn backend_labels_round_trip() {
        for backend in PifoBackend::ALL {
            // Display is the lossless inverse of FromStr; the label drops
            // parameters but still parses to the default parameterisation.
            assert_eq!(backend.to_string().parse::<PifoBackend>().unwrap(), backend);
            assert_eq!(backend.label().parse::<PifoBackend>().unwrap(), backend);
        }
        for backend in PifoBackend::EXACT {
            assert_eq!(backend.to_string(), backend.label());
        }
        assert_eq!(
            "sorted-array".parse::<PifoBackend>(),
            Ok(PifoBackend::SortedArray)
        );
        assert_eq!(
            "sp-pifo:4".parse::<PifoBackend>(),
            Ok(PifoBackend::SpPifo { queues: 4 })
        );
        assert_eq!(PifoBackend::SpPifo { queues: 4 }.to_string(), "sp-pifo:4");
        assert!("sp-pifo:0".parse::<PifoBackend>().is_err());
        assert!("sp-pifo:999".parse::<PifoBackend>().is_err());
        let err = "mystery".parse::<PifoBackend>().unwrap_err();
        for name in ["sorted", "heap", "bucket", "sp-pifo", "rifo", "aifo"] {
            assert!(err.contains(name), "parse error must list '{name}': {err}");
        }
    }

    /// Fed the same pushes, an `EnumPifo` is observably the concrete
    /// engine it wraps: identical ordered views and pop traces.
    fn enum_matches_concrete<Q: PifoQueue<u32>>(backend: PifoBackend, mut c: Q) {
        let mut e = backend.make_enum::<u32>();
        assert_eq!(e.backend(), backend);
        for (i, r) in [5u64, 1, 1 << 40, 5, 0, 700].iter().enumerate() {
            e.push(Rank(*r), i as u32);
            c.push(Rank(*r), i as u32);
        }
        let ve: Vec<_> = e.iter_in_order().map(|(r, v)| (r, *v)).collect();
        let vc: Vec<_> = c.iter_in_order().map(|(r, v)| (r, *v)).collect();
        assert_eq!(ve, vc, "{backend} inspection diverges");
        loop {
            let (x, y) = (e.pop(), c.pop());
            assert_eq!(x, y, "{backend} pop diverges");
            if x.is_none() {
                break;
            }
        }
    }

    #[test]
    fn enum_pifo_matches_concrete_engine() {
        use crate::approx::{Aifo, Rifo, SpPifo, DEFAULT_SP_PIFO_QUEUES};
        let k = DEFAULT_SP_PIFO_QUEUES;
        enum_matches_concrete(PifoBackend::SortedArray, SortedArrayPifo::new());
        enum_matches_concrete(PifoBackend::Heap, HeapPifo::new());
        enum_matches_concrete(PifoBackend::Bucket, BucketPifo::new());
        enum_matches_concrete(PifoBackend::SpPifo { queues: k }, SpPifo::new(k as usize));
        enum_matches_concrete(PifoBackend::Rifo, Rifo::new());
        enum_matches_concrete(PifoBackend::Aifo, Aifo::new());
    }

    /// A bounded `EnumPifo` admits exactly what the bounded concrete
    /// engine admits.
    fn enum_rejects_like_concrete<Q: PifoQueue<u8>>(backend: PifoBackend, mut c: Q) {
        let mut e = backend.make_enum_bounded::<u8>(2);
        assert_eq!(e.capacity(), Some(2));
        for r in 0..3u64 {
            assert_eq!(
                e.try_push(Rank(r), r as u8),
                c.try_push(Rank(r), r as u8),
                "{backend} admission diverges"
            );
        }
        assert_eq!(e.len(), c.len(), "{backend}");
        if backend.is_exact() {
            // Exact backends admit first-come: exactly the capacity.
            // Approximate gates may refuse earlier; only the
            // enum-matches-engine property is universal.
            assert_eq!(e.len(), 2, "{backend}");
        }
    }

    #[test]
    fn enum_pifo_bounded_rejects_like_concrete() {
        use crate::approx::{Aifo, Rifo, SpPifo, DEFAULT_SP_PIFO_QUEUES};
        let k = DEFAULT_SP_PIFO_QUEUES;
        enum_rejects_like_concrete(PifoBackend::SortedArray, SortedArrayPifo::with_capacity(2));
        enum_rejects_like_concrete(PifoBackend::Heap, HeapPifo::with_capacity(2));
        enum_rejects_like_concrete(PifoBackend::Bucket, BucketPifo::with_capacity(2));
        enum_rejects_like_concrete(
            PifoBackend::SpPifo { queues: k },
            SpPifo::with_capacity(k as usize, 2),
        );
        enum_rejects_like_concrete(PifoBackend::Rifo, Rifo::with_capacity(2));
        enum_rejects_like_concrete(PifoBackend::Aifo, Aifo::with_capacity(2));
    }

    /// Flow state is bounded by the active flows: 10⁵ distinct
    /// one-packet flows, at most eight buffered at a time, never leave
    /// more table entries than flows with a packet in the queue, and the
    /// rank store and the flow table stay at their peak size.
    #[test]
    fn flow_pifo_table_tracks_active_flows_only() {
        let mut q = FlowPifo::new();
        let mut active = std::collections::VecDeque::new();
        for f in 0..100_000u32 {
            q.push(FlowId(f), Rank(u64::from(f) / 3), f);
            active.push_back(f);
            if active.len() > 8 {
                let (_, v) = q.pop().expect("non-empty");
                assert_eq!(Some(v), active.pop_front(), "one-packet flows pop FIFO");
            }
            assert_eq!(q.flows(), active.len());
            assert_eq!(q.len(), active.len());
        }
        while q.pop().is_some() {}
        assert_eq!(q.flows(), 0);
        assert!(
            q.store.cells.len() <= 9 && q.sched.tails.slots.len() <= 4 * 9,
            "storage grew past the peak"
        );
    }

    /// The open-addressing flow table agrees with a `HashMap` through
    /// inserts and backward-shift removals. The keys are 48 random ids,
    /// not consecutive ones (which the multiplicative hash spreads
    /// without a collision), so probe runs collide and wrap.
    #[test]
    fn flow_index_matches_hash_map_under_churn() {
        let mut index = FlowIndex::new();
        let mut model = std::collections::HashMap::new();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let keys: Vec<u32> = (0..48).map(|_| next() as u32).collect();
        for step in 0..200_000u32 {
            let x = next();
            let flow = FlowId(keys[(x % 48) as usize]);
            match index.find(flow) {
                Ok(at) => {
                    assert_eq!(Some(&index.slots[at].1), model.get(&flow));
                    if x & (1 << 40) != 0 {
                        index.remove_at(at);
                        model.remove(&flow);
                    }
                }
                Err(at) => {
                    assert!(!model.contains_key(&flow), "{flow} lost at step {step}");
                    index.insert(at, flow, step);
                    model.insert(flow, step);
                }
            }
            assert_eq!(index.len, model.len());
        }
        for (flow, cell) in &model {
            assert_eq!(index.find(*flow).map(|at| index.slots[at].1), Ok(*cell));
        }
    }

    // ---- BucketPifo-specific structure tests -----------------------------

    #[test]
    fn bucket_far_future_ranks_go_through_overflow() {
        let mut q: BucketPifo<u32> = BucketPifo::with_shift(0);
        // Window is NUM_BUCKETS ranks wide at shift 0.
        q.push(Rank(0), 0);
        q.push(Rank((NUM_BUCKETS as u64) * 10), 1); // far beyond horizon
        q.push(Rank(5), 2);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((Rank(0), 0)));
        assert_eq!(q.pop(), Some((Rank(5), 2)));
        // Calendar drained: refill pulls the far element in.
        assert_eq!(q.pop(), Some((Rank((NUM_BUCKETS as u64) * 10), 1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn bucket_rebase_down_accepts_lower_ranks() {
        let mut q: BucketPifo<u32> = BucketPifo::with_shift(0);
        q.push(Rank(1_000_000), 0); // anchors the calendar high
        q.push(Rank(3), 1); // forces a rebase far downward
        q.push(Rank(1_000_001), 2); // now beyond the horizon → overflow
        assert_eq!(q.pop(), Some((Rank(3), 1)));
        assert_eq!(q.pop(), Some((Rank(1_000_000), 0)));
        assert_eq!(q.pop(), Some((Rank(1_000_001), 2)));
        assert!(q.is_empty());
    }

    #[test]
    fn bucket_ties_survive_overflow_migration() {
        let mut q: BucketPifo<u32> = BucketPifo::with_shift(0);
        let far = (NUM_BUCKETS as u64) * 3;
        q.push(Rank(0), 0);
        q.push(Rank(far), 10); // overflow
        q.push(Rank(far), 11); // overflow, same rank: FIFO later
        assert_eq!(q.pop(), Some((Rank(0), 0)));
        // Refill migrates both; FIFO order must hold.
        assert_eq!(q.pop(), Some((Rank(far), 10)));
        // A fresh equal-rank push lands in the calendar *behind* the
        // migrated one (larger seq).
        q.push(Rank(far), 12);
        assert_eq!(q.pop(), Some((Rank(far), 11)));
        assert_eq!(q.pop(), Some((Rank(far), 12)));
    }

    #[test]
    fn bucket_peek_sees_overflow_only_minimum() {
        let mut q: BucketPifo<u32> = BucketPifo::with_shift(0);
        let far = (NUM_BUCKETS as u64) * 5;
        q.push(Rank(far + 7), 1);
        q.push(Rank(far), 0);
        // Everything may sit in overflow (calendar anchored at first push).
        assert_eq!(q.peek().map(|(r, v)| (r, *v)), Some((Rank(far), 0)));
        assert_eq!(q.pop(), Some((Rank(far), 0)));
        assert_eq!(q.pop(), Some((Rank(far + 7), 1)));
    }

    /// A rank stream falling one bucket per push, over a 10 K standing
    /// backlog, rebases once per `HEADROOM` buckets it falls, and each
    /// rebase visits only the occupied buckets (at most the window):
    /// at most `NUM_BUCKETS / HEADROOM` = 4 bucket visits per push. A
    /// rebase that anchors at the new rank and sweeps the whole window
    /// twice visits 8 192 buckets on every push of this stream.
    #[test]
    fn bucket_falling_stream_rebases_in_linear_work() {
        const BACKLOG: u64 = 10_000;
        const PUSHES: u64 = 100_000;
        let bucket = 1u64 << DEFAULT_BUCKET_SHIFT;
        let rank = |i: u64| Rank((1 << 40) - i * bucket);
        let mut q: BucketPifo<u64> = BucketPifo::new();
        for i in 0..BACKLOG {
            q.push(rank(i), i);
        }
        q.rebase_visits = 0;
        for i in BACKLOG..BACKLOG + PUSHES {
            q.push(rank(i), i);
            assert_eq!(q.pop(), Some((rank(i), i)), "the newest rank is the lowest");
        }
        assert_eq!(q.len(), BACKLOG as usize);
        let bound = (NUM_BUCKETS as u64 / HEADROOM) * PUSHES;
        assert!(
            q.rebase_visits <= bound,
            "{} bucket visits for {PUSHES} pushes, expected at most {bound}",
            q.rebase_visits
        );
        // The backlog drains in rank order, wherever the rebases left it.
        let drained: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, i)| i)).collect();
        assert_eq!(drained, (0..BACKLOG).rev().collect::<Vec<_>>());
    }

    /// A calendar allocates its buckets on the first push, not before.
    #[test]
    fn bucket_allocates_on_first_push() {
        let mut q: BucketPifo<u32> = BucketPifo::new();
        assert!(q.buckets.is_empty() && q.words.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek(), None);
        assert_eq!(q.iter_in_order().count(), 0);
        q.push(Rank(7), 1);
        assert_eq!(q.buckets.len(), NUM_BUCKETS);
        assert_eq!(q.pop(), Some((Rank(7), 1)));
    }

    /// A refill whose minimum is alone in its window returns it without
    /// parking it in a bucket: the calendar stays empty.
    #[test]
    fn bucket_refill_returns_a_lone_minimum_directly() {
        let mut q: BucketPifo<u32> = BucketPifo::with_shift(0);
        let window = NUM_BUCKETS as u64;
        q.push(Rank(0), 0);
        for k in 1..4 {
            q.push(Rank(k * window), k as u32);
        }
        assert_eq!(q.pop(), Some((Rank(0), 0)));
        for k in 1..4 {
            assert_eq!(q.pop(), Some((Rank(k * window), k as u32)));
            assert_eq!(q.summary, 0, "the lone minimum was not parked");
        }
        assert!(q.is_empty());
    }

    #[test]
    fn bucket_handles_max_rank() {
        let mut q: BucketPifo<u64> = BucketPifo::new();
        q.push(Rank(u64::MAX), 1);
        q.push(Rank(0), 0);
        q.push(Rank(u64::MAX - 1), 2);
        assert_eq!(q.pop(), Some((Rank(0), 0)));
        assert_eq!(q.pop(), Some((Rank(u64::MAX - 1), 2)));
        assert_eq!(q.pop(), Some((Rank(u64::MAX), 1)));
    }

    /// Regression: at shift 0 a near-max rank anchors the calendar where
    /// an absolute `base + NUM_BUCKETS` horizon would overflow u64. The
    /// offset-based window checks must keep push/refill/pop exact.
    #[test]
    fn bucket_near_max_rank_at_shift_zero() {
        let mut q: BucketPifo<u64> = BucketPifo::with_shift(0);
        q.push(Rank(u64::MAX), 1);
        q.push(Rank(0), 2);
        assert_eq!(q.pop(), Some((Rank(0), 2)));
        assert_eq!(q.pop(), Some((Rank(u64::MAX), 1)));
        assert_eq!(q.pop(), None);

        // Anchor directly at the top: pushes within and below the
        // truncated window, plus a huge rebase back down.
        let mut q: BucketPifo<u64> = BucketPifo::with_shift(0);
        q.push(Rank(u64::MAX - 10), 0);
        q.push(Rank(u64::MAX), 1); // offset 10, inside the window
        q.push(Rank(5), 2); // rebase down by ~u64::MAX
        assert_eq!(q.pop(), Some((Rank(5), 2)));
        assert_eq!(q.pop(), Some((Rank(u64::MAX - 10), 0)));
        assert_eq!(q.pop(), Some((Rank(u64::MAX), 1)));
        assert!(q.is_empty());
    }
}
