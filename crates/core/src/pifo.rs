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
//! engines implement one discipline. Two traits capture the contract:
//!
//! * [`PifoQueue`] — the core operations every scheduler needs in the hot
//!   path (`try_push`/`pop`/`peek`/`len`/`capacity`), plus the batched
//!   variants [`PifoQueue::push_batch`]/[`PifoQueue::pop_batch`] —
//!   byte-identical to their sequential expansion, with amortized
//!   implementations where an engine can exploit the batch shape (the
//!   bucket calendar drains whole buckets per bitmap step, the sorted
//!   array bulk-moves its prefix).
//! * [`PifoInspect`] — ordered inspection and targeted removal
//!   (`iter_in_order`, `peek_first_matching`, `pop_first_matching`), used
//!   by the scheduling tree's introspection, the hardware model's
//!   logical-PIFO sharing (§5.2) and PFC masking (§6.2). These may be
//!   slower than the core ops; they are not on the per-packet path.
//!
//! [`PifoEngine`] is the combination of both, and what
//! [`PifoBackend::make`] hands out as a trait object so that consumers —
//! the scheduling tree, the simulator, the benches — never name a concrete
//! queue type.
//!
//! # Choosing a backend
//!
//! | Backend | `push` | `pop` | Notes |
//! |---|---|---|---|
//! | [`SortedArrayPifo`] | O(n) | O(1) | **The reference** every differential suite compares against; direct analogue of the flat sorted array §5.2 rejects for a 60 K-packet buffer. Best below ~1 K elements and for debugging; name it ([`PifoBackend::SortedArray`]) wherever a reference is meant. |
//! | [`HeapPifo`] | O(log n) | O(log n) | **The default** ([`PifoBackend::default`]). Binary heap with explicit sequence numbers for FIFO ties; a packet's cost does not grow with the backlog. |
//! | [`BucketPifo`] | O(1)* | O(1)* | Eiffel-style FFS bucket calendar (integer-rank buckets, two-level find-first-set bitmap, overflow heap). Fastest at Trident-scale occupancies when ranks spread across the bucket window; *amortised, degrades gracefully toward the heap when they do not. |
//! | [`SpPifo`](crate::approx::SpPifo) | O(k) | O(k) | **Approximate.** k strict-priority FIFOs with SP-PIFO push-up/push-down bound adaptation; exact between rank bands, FIFO within one. |
//! | [`Rifo`](crate::approx::Rifo) | O(1) | O(1) | **Approximate.** Single FIFO; rank-awareness only at admission (windowed min/max relative-rank gate when bounded). |
//! | [`Aifo`](crate::approx::Aifo) | O(W) | O(1) | **Approximate.** Single FIFO with windowed-quantile admission against a small sliding rank sample. |
//!
//! [`PifoBackend::default`] — what `TreeBuilder::new()` and every
//! constructor above it hand out — is the heap: it is exact, it matches
//! the sorted array on shallow queues, and at depth it is the engine whose
//! push does not memmove the backlog (`hpfq_fig3` at 60 K occupancy:
//! `sorted` ≈ 0.2 M pkts/s, `heap` ≈ 2.0 M; `BENCH_tree.json`). The
//! bucket calendar is faster still on a single deep queue but costs a
//! 4 096-bucket calendar per tree node, so it stays opt-in
//! (`with_backend` / `set_node_backend`).
//!
//! The first three — [`PifoBackend::EXACT`] — are **exactly** equivalent
//! observationally: same dequeue order, same FIFO tie-breaks, same
//! admission decisions, which the cross-backend differential property
//! suite in `tests/proptests.rs` enforces. `BucketPifo` is exact (not
//! approximate like Eiffel's gradient buckets) because ranks are
//! integers and each bucket keeps its few residents sorted. The last
//! three — [`PifoBackend::APPROX`] — deliberately relax the sorted-pop
//! invariant for cheaper operations; how far a run strayed from the
//! ideal schedule is measured, not guessed (see the
//! [`approx`](crate::approx) and [`metrics`](crate::metrics) modules).

use crate::rank::Rank;
use core::fmt;
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

    /// Push a batch of `(rank, item)` pairs, returning the rejected
    /// elements (in input order) when a capacity bound is hit.
    ///
    /// **Semantics are exactly sequential**: the batch behaves as one
    /// [`try_push`](Self::try_push) per element, in input order — FIFO
    /// tie-breaks, admission decisions and the rejected elements' fields
    /// are byte-identical to the per-element path (enforced by the
    /// cross-backend differential suite). Backends may amortize internal
    /// work across the batch: [`BucketPifo`] resolves the capacity gate
    /// once for the whole batch instead of once per element.
    ///
    /// An empty batch is a no-op and returns no rejects.
    ///
    /// ```
    /// use pifo_core::prelude::*;
    ///
    /// let mut q = PifoBackend::Bucket.make_enum_bounded::<u32>(2);
    /// let rejected = q.push_batch(vec![(Rank(3), 30), (Rank(1), 10), (Rank(2), 20)]);
    /// // The first two fit; the third bounces back field-for-field.
    /// assert_eq!(rejected.len(), 1);
    /// assert_eq!((rejected[0].rank, rejected[0].item), (Rank(2), 20));
    /// assert_eq!(q.pop(), Some((Rank(1), 10)));
    /// ```
    fn push_batch(&mut self, items: Vec<(Rank, T)>) -> Vec<PifoFull<T>> {
        let mut rejected = Vec::new();
        for (rank, item) in items {
            if let Err(full) = self.try_push(rank, item) {
                rejected.push(full);
            }
        }
        rejected
    }

    /// Pop up to `max` head elements into `out` (appended in dequeue
    /// order), returning how many were popped. Stops early when the queue
    /// empties.
    ///
    /// Equivalent to `max` sequential [`pop`](Self::pop) calls; backends
    /// may amortize — [`BucketPifo`] drains whole calendar buckets with
    /// one find-first-set bitmap step per *bucket* instead of per
    /// element, [`SortedArrayPifo`] drains its sorted prefix in one
    /// `memmove`, and [`HeapPifo`] replaces sift-downs with one sort (or
    /// a select + prefix sort + heap rebuild) when the batch takes a
    /// large enough bite of the heap.
    fn pop_batch(&mut self, max: usize, out: &mut Vec<(Rank, T)>) -> usize {
        let before = out.len();
        while out.len() - before < max {
            match self.pop() {
                Some(e) => out.push(e),
                None => break,
            }
        }
        out.len() - before
    }
}

/// Ordered inspection and targeted removal, on top of [`PifoQueue`].
///
/// These operations exist for the scheduling tree's introspection
/// (`debug_pifo`), the hardware model's logical-PIFO sharing — a pop
/// targets "the first element with a given logical PIFO ID" (§5.2) — and
/// PFC masking (§6.2). They are **not** on the per-packet hot path, so
/// backends may implement them in O(n log n); the trait is object-safe so
/// the whole contract fits behind one `dyn` pointer (see [`PifoEngine`]).
pub trait PifoInspect<T>: PifoQueue<T> {
    /// Iterate over `(rank, item)` in dequeue order without removing.
    fn iter_in_order(&self) -> Box<dyn Iterator<Item = (Rank, &T)> + '_>;

    /// Peek the first element matching `pred` (head-most in dequeue order).
    fn peek_first_matching(&self, pred: &mut dyn FnMut(&T) -> bool) -> Option<(Rank, &T)>;

    /// Remove and return the first element matching `pred` (head-most in
    /// dequeue order). All other elements keep their relative order.
    fn pop_first_matching(&mut self, pred: &mut dyn FnMut(&T) -> bool) -> Option<(Rank, T)>;
}

/// The complete backend contract: core queue operations plus inspection.
///
/// Everything `ScheduleTree` and the hardware model need fits behind
/// `Box<dyn PifoEngine<T>>`; blanket-implemented for any type providing
/// both sub-traits.
pub trait PifoEngine<T>: PifoInspect<T> {}

impl<T, Q: PifoInspect<T> + ?Sized> PifoEngine<T> for Q {}

/// A heap-allocated, backend-erased PIFO — what [`PifoBackend::make`]
/// returns, for callers that need an open set of engines behind one
/// pointer type. (`ScheduleTree` nodes store an [`EnumPifo`] instead.)
pub type BoxedPifo<T> = Box<dyn PifoEngine<T>>;

// ---------------------------------------------------------------------------
// Backend selector
// ---------------------------------------------------------------------------

/// Selects which queue engine backs a PIFO (see the module docs for the
/// comparison table). Parsed from `sorted` / `heap` / `bucket` /
/// `sp-pifo[:k]` / `rifo` / `aifo` on CLIs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PifoBackend {
    /// [`SortedArrayPifo`] — the O(n)-insert reference the differential
    /// suites compare every other engine against.
    SortedArray,
    /// [`HeapPifo`] — O(log n) binary heap; the default, so that a
    /// packet's cost does not grow with the backlog.
    #[default]
    Heap,
    /// [`BucketPifo`] — FFS bucket calendar, O(1) amortised.
    Bucket,
    /// [`SpPifo`](crate::approx::SpPifo) — **approximate**: k
    /// strict-priority FIFOs with adaptive bounds.
    SpPifo {
        /// Number of strict-priority queues (the `k` in `sp-pifo:k`).
        queues: u8,
    },
    /// [`Rifo`](crate::approx::Rifo) — **approximate**: single FIFO with
    /// windowed min/max rank admission.
    Rifo,
    /// [`Aifo`](crate::approx::Aifo) — **approximate**: single FIFO with
    /// windowed-quantile rank admission.
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
    /// properties that hold per-backend, like batch-equals-sequential).
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

    /// Construct an unbounded queue of this backend.
    pub fn make<T: 'static>(self) -> BoxedPifo<T> {
        match self {
            PifoBackend::SortedArray => Box::new(SortedArrayPifo::new()),
            PifoBackend::Heap => Box::new(HeapPifo::new()),
            PifoBackend::Bucket => Box::new(BucketPifo::new()),
            PifoBackend::SpPifo { queues } => Box::new(crate::approx::SpPifo::new(queues as usize)),
            PifoBackend::Rifo => Box::new(crate::approx::Rifo::new()),
            PifoBackend::Aifo => Box::new(crate::approx::Aifo::new()),
        }
    }

    /// Construct a queue of this backend that rejects pushes beyond
    /// `capacity` elements.
    pub fn make_bounded<T: 'static>(self, capacity: usize) -> BoxedPifo<T> {
        match self {
            PifoBackend::SortedArray => Box::new(SortedArrayPifo::with_capacity(capacity)),
            PifoBackend::Heap => Box::new(HeapPifo::with_capacity(capacity)),
            PifoBackend::Bucket => Box::new(BucketPifo::with_capacity(capacity)),
            PifoBackend::SpPifo { queues } => Box::new(crate::approx::SpPifo::with_capacity(
                queues as usize,
                capacity,
            )),
            PifoBackend::Rifo => Box::new(crate::approx::Rifo::with_capacity(capacity)),
            PifoBackend::Aifo => Box::new(crate::approx::Aifo::with_capacity(capacity)),
        }
    }

    /// Construct an unbounded queue of this backend with **static**
    /// dispatch: an [`EnumPifo`] instead of a boxed trait object. Hot
    /// paths that own their queues (the scheduling tree's per-node PIFOs)
    /// use this so push/pop monomorphize; [`make`](Self::make) remains the
    /// object-safe choice for heterogeneous collections behind one
    /// pointer type.
    ///
    /// ```
    /// use pifo_core::prelude::*;
    ///
    /// let mut q = PifoBackend::Bucket.make_enum::<&str>();
    /// assert_eq!(q.backend(), PifoBackend::Bucket);
    /// q.push(Rank(20), "late");
    /// q.push(Rank(10), "early");
    /// // Batch pops reach the engine's amortized implementation.
    /// let mut out = Vec::new();
    /// assert_eq!(q.pop_batch(8, &mut out), 2);
    /// assert_eq!(out, vec![(Rank(10), "early"), (Rank(20), "late")]);
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

/// A closed sum of the six queue engines with `match` dispatch.
///
/// Semantically identical to the corresponding [`BoxedPifo`] (both
/// delegate to the same implementations), but the compiler sees concrete
/// types through one `match`, so hot-path `push`/`pop`/`peek` inline and
/// monomorphize instead of going through a vtable. The scheduling tree
/// stores one of these per node; public APIs that need an open set of
/// engines keep using [`BoxedPifo`].
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

    // Explicit delegation (instead of the trait defaults) so the engines'
    // amortized batch specializations are reached through the enum too.
    #[inline]
    fn push_batch(&mut self, items: Vec<(Rank, T)>) -> Vec<PifoFull<T>> {
        enum_pifo_delegate!(self, q => q.push_batch(items))
    }

    #[inline]
    fn pop_batch(&mut self, max: usize, out: &mut Vec<(Rank, T)>) -> usize {
        enum_pifo_delegate!(self, q => q.pop_batch(max, out))
    }
}

impl<T> PifoInspect<T> for EnumPifo<T> {
    fn iter_in_order(&self) -> Box<dyn Iterator<Item = (Rank, &T)> + '_> {
        enum_pifo_delegate!(self, q => q.iter_in_order())
    }

    fn peek_first_matching(&self, pred: &mut dyn FnMut(&T) -> bool) -> Option<(Rank, &T)> {
        enum_pifo_delegate!(self, q => q.peek_first_matching(pred))
    }

    fn pop_first_matching(&mut self, pred: &mut dyn FnMut(&T) -> bool) -> Option<(Rank, T)> {
        enum_pifo_delegate!(self, q => q.pop_first_matching(pred))
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
    /// [`PifoInspect::iter_in_order`].)
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

    /// The sorted prefix *is* the batch: one bulk drain from the front
    /// instead of `max` pop-front calls.
    fn pop_batch(&mut self, max: usize, out: &mut Vec<(Rank, T)>) -> usize {
        let n = max.min(self.items.len());
        out.extend(self.items.drain(..n).map(|(r, _, t)| (r, t)));
        n
    }
}

impl<T> PifoInspect<T> for SortedArrayPifo<T> {
    fn iter_in_order(&self) -> Box<dyn Iterator<Item = (Rank, &T)> + '_> {
        Box::new(self.iter())
    }

    fn peek_first_matching(&self, pred: &mut dyn FnMut(&T) -> bool) -> Option<(Rank, &T)> {
        self.items
            .iter()
            .find(|(_, _, t)| pred(t))
            .map(|(r, _, t)| (*r, t))
    }

    fn pop_first_matching(&mut self, pred: &mut dyn FnMut(&T) -> bool) -> Option<(Rank, T)> {
        let idx = self.items.iter().position(|(_, _, t)| pred(t))?;
        self.items.remove(idx).map(|(r, _, t)| (r, t))
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

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.rank == other.rank && self.seq == other.seq
    }
}
impl<T> Eq for HeapEntry<T> {}

impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the smallest (rank, seq) is
        // at the top. seq breaks ties FIFO.
        (other.rank, other.seq).cmp(&(self.rank, self.seq))
    }
}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
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

    /// Entries as a freshly sorted vector of references (dequeue order).
    fn sorted_refs(&self) -> Vec<&HeapEntry<T>> {
        let mut v: Vec<&HeapEntry<T>> = self.heap.iter().collect();
        v.sort_by_key(|e| (e.rank, e.seq));
        v
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

    /// Amortized batch pop. Sequential pops pay one cache-hostile
    /// sift-down per element; a batch that takes a large bite of the
    /// heap does better by leaving heap order entirely:
    ///
    /// * `max >= len` — **sorted drain**: take the backing vector, sort
    ///   once by `(rank, seq)` (the exact pop order) and append — one
    ///   cache-friendly sort instead of `len` sift-downs.
    /// * `4 * max >= len` — **select + rebuild**: partition the `max`
    ///   smallest entries to the front with `select_nth_unstable`
    ///   (O(len) expected), sort only that prefix, and rebuild the heap
    ///   from the remainder (`BinaryHeap::from`, O(len)).
    /// * otherwise — per-element pops; for a small bite of a deep heap,
    ///   `max log len` sift-downs beat an O(len) restructuring.
    ///
    /// The first two hand the vector back to the heap, so a drain round
    /// that empties the queue does not cost the next push an allocation.
    ///
    /// All three produce byte-identical output — `(rank, seq)` is a
    /// total order — enforced by the cross-backend differential suite.
    fn pop_batch(&mut self, max: usize, out: &mut Vec<(Rank, T)>) -> usize {
        let len = self.heap.len();
        if max == 0 || len == 0 {
            return 0;
        }
        if max.saturating_mul(4) >= len {
            let take = max.min(len);
            let mut v = std::mem::take(&mut self.heap).into_vec();
            if take < len {
                v.select_nth_unstable_by_key(take, |e| (e.rank, e.seq));
            }
            v[..take].sort_unstable_by_key(|e| (e.rank, e.seq));
            out.extend(v.drain(..take).map(|e| (e.rank, e.item)));
            self.heap = BinaryHeap::from(v);
            return take;
        }
        let before = out.len();
        while out.len() - before < max {
            match self.pop() {
                Some(e) => out.push(e),
                None => break,
            }
        }
        out.len() - before
    }
}

impl<T> PifoInspect<T> for HeapPifo<T> {
    fn iter_in_order(&self) -> Box<dyn Iterator<Item = (Rank, &T)> + '_> {
        Box::new(self.sorted_refs().into_iter().map(|e| (e.rank, &e.item)))
    }

    fn peek_first_matching(&self, pred: &mut dyn FnMut(&T) -> bool) -> Option<(Rank, &T)> {
        self.sorted_refs()
            .into_iter()
            .find(|e| pred(&e.item))
            .map(|e| (e.rank, &e.item))
    }

    fn pop_first_matching(&mut self, pred: &mut dyn FnMut(&T) -> bool) -> Option<(Rank, T)> {
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        entries.sort_by_key(|e| (e.rank, e.seq));
        let pos = entries.iter().position(|e| pred(&e.item));
        let removed = pos.map(|p| entries.remove(p));
        self.heap = BinaryHeap::from(entries);
        removed.map(|e| (e.rank, e.item))
    }
}

// ---------------------------------------------------------------------------
// BucketPifo
// ---------------------------------------------------------------------------

/// Number of 64-bit words in the occupancy bitmap.
const BUCKET_WORDS: usize = 64;
/// Number of calendar buckets (one bit each in the two-level bitmap).
const NUM_BUCKETS: usize = BUCKET_WORDS * 64; // 4096

/// Eiffel-inspired bucketed calendar PIFO with a two-level find-first-set
/// bitmap: `O(1)` amortised push/pop for integer ranks.
///
/// Ranks are mapped to one of `NUM_BUCKETS` (4096) buckets of `2^shift`
/// consecutive rank values, starting at a moving `base`. A 64×64-bit
/// hierarchical bitmap finds the lowest non-empty bucket with two
/// `trailing_zeros` instructions (the software analogue of Eiffel's FFS
/// circular queues, NSDI'19). Ranks beyond the calendar horizon go to an
/// overflow heap and migrate into the calendar as it drains; ranks below
/// the current base trigger a (rare, amortised) downward rebase.
///
/// Unlike Eiffel's approximate gradient buckets this structure is
/// **exact**: residents of one bucket are kept sorted by
/// `(rank, sequence)`, so the dequeue trace — including FIFO tie-breaks —
/// is byte-identical to [`SortedArrayPifo`]'s (enforced by the
/// cross-backend differential property suite).
#[derive(Debug, Clone)]
pub struct BucketPifo<T> {
    buckets: Vec<VecDeque<(Rank, u64, T)>>,
    /// Bit `w` set ⇔ `words[w] != 0`.
    summary: u64,
    /// Bit `b` of `words[w]` set ⇔ bucket `w*64 + b` is non-empty.
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
            buckets: (0..NUM_BUCKETS).map(|_| VecDeque::new()).collect(),
            summary: 0,
            words: vec![0; BUCKET_WORDS],
            base_bucket: 0,
            shift,
            overflow: BinaryHeap::new(),
            len: 0,
            seq: 0,
            capacity: None,
        }
    }

    fn mark(&mut self, idx: usize) {
        self.words[idx / 64] |= 1 << (idx % 64);
        self.summary |= 1 << (idx / 64);
    }

    fn unmark_if_empty(&mut self, idx: usize) {
        if self.buckets[idx].is_empty() {
            self.words[idx / 64] &= !(1 << (idx % 64));
            if self.words[idx / 64] == 0 {
                self.summary &= !(1 << (idx / 64));
            }
        }
    }

    /// Lowest non-empty bucket index, via two FFS steps.
    fn first_occupied(&self) -> Option<usize> {
        if self.summary == 0 {
            return None;
        }
        let w = self.summary.trailing_zeros() as usize;
        let b = self.words[w].trailing_zeros() as usize;
        Some(w * 64 + b)
    }

    fn rebuild_bitmap(&mut self) {
        self.summary = 0;
        self.words.iter_mut().for_each(|w| *w = 0);
        for idx in 0..NUM_BUCKETS {
            if !self.buckets[idx].is_empty() {
                self.mark(idx);
            }
        }
    }

    /// Shift the calendar down so that bucket 0 covers `new_base`
    /// (a virtual bucket index below the current base). Occupied buckets
    /// move up by the same delta; those pushed past the horizon spill to
    /// the overflow heap. O(NUM_BUCKETS + moved) — rare, amortised.
    fn rebase_down(&mut self, new_base: u64) {
        let delta = self.base_bucket - new_base;
        if self.summary != 0 {
            for i in (0..NUM_BUCKETS).rev() {
                if self.buckets[i].is_empty() {
                    continue;
                }
                // Saturating: a huge delta (rebasing down from a near-max
                // base) must spill to overflow, not wrap around.
                let target = (i as u64).saturating_add(delta);
                if target < NUM_BUCKETS as u64 {
                    // Descending iteration guarantees the target slot was
                    // already vacated (it moved by the same delta).
                    self.buckets.swap(i, target as usize);
                } else {
                    for (r, s, t) in self.buckets[i].drain(..) {
                        self.overflow.push(HeapEntry {
                            rank: r,
                            seq: s,
                            item: t,
                        });
                    }
                }
            }
        }
        self.base_bucket = new_base;
        self.rebuild_bitmap();
    }

    /// All buckets are empty but the overflow heap is not: re-anchor the
    /// calendar at the overflow minimum and migrate everything within the
    /// new window. Heap pops come out in `(rank, seq)` order, so plain
    /// `push_back` keeps each bucket sorted.
    fn refill_from_overflow(&mut self) {
        debug_assert_eq!(self.summary, 0);
        let min = self
            .overflow
            .peek()
            .expect("refill called with empty overflow");
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
            self.buckets[off as usize].push_back((e.rank, e.seq, e.item));
            self.mark(off as usize);
        }
    }

    /// Place `(rank, seq, item)` on the correct side of the horizon.
    ///
    /// Invariant maintained throughout: every calendar rank `<` every
    /// overflow rank (bucket ranks are below the horizon, overflow ranks
    /// at or above it, and the horizon only moves when it preserves this).
    fn place(&mut self, rank: Rank, seq: u64, item: T) {
        let vb = rank.value() >> self.shift;
        if self.summary == 0 && self.overflow.is_empty() {
            self.base_bucket = vb;
        } else if vb < self.base_bucket {
            self.rebase_down(vb);
        }
        // Offset comparison, not an absolute horizon: `base + NUM_BUCKETS`
        // would overflow u64 for near-max ranks at tiny shifts.
        let off = vb - self.base_bucket;
        if off >= NUM_BUCKETS as u64 {
            self.overflow.push(HeapEntry { rank, seq, item });
        } else {
            let bucket = &mut self.buckets[off as usize];
            let pos = bucket.partition_point(|(r, s, _)| (*r, *s) <= (rank, seq));
            bucket.insert(pos, (rank, seq, item));
            self.mark(off as usize);
        }
    }

    /// Overflow entries as a freshly sorted vector of references.
    fn overflow_sorted_refs(&self) -> Vec<&HeapEntry<T>> {
        let mut v: Vec<&HeapEntry<T>> = self.overflow.iter().collect();
        v.sort_by_key(|e| (e.rank, e.seq));
        v
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
        let seq = self.seq;
        self.seq += 1;
        self.place(rank, seq, item);
        self.len += 1;
        Ok(())
    }

    fn pop(&mut self) -> Option<(Rank, T)> {
        if self.summary == 0 {
            if self.overflow.is_empty() {
                return None;
            }
            self.refill_from_overflow();
        }
        let idx = self.first_occupied().expect("non-empty after refill");
        let (r, _, t) = self.buckets[idx].pop_front().expect("bitmap said occupied");
        self.unmark_if_empty(idx);
        self.len -= 1;
        Some((r, t))
    }

    /// Amortized batch push: the capacity gate is resolved **once** for
    /// the whole batch (sequential semantics admit exactly the first
    /// `capacity - len` elements, since nothing pops mid-batch), so the
    /// per-element path is just seq-stamp + calendar placement.
    fn push_batch(&mut self, items: Vec<(Rank, T)>) -> Vec<PifoFull<T>> {
        let headroom = self
            .capacity
            .map_or(usize::MAX, |cap| cap.saturating_sub(self.len));
        let mut rejected = Vec::new();
        for (i, (rank, item)) in items.into_iter().enumerate() {
            if i >= headroom {
                rejected.push(PifoFull {
                    rank,
                    item,
                    capacity: self.capacity.expect("finite headroom implies a bound"),
                });
                continue;
            }
            let seq = self.seq;
            self.seq += 1;
            self.place(rank, seq, item);
            self.len += 1;
        }
        rejected
    }

    /// Amortized batch pop: whole calendar buckets are drained with one
    /// bulk `VecDeque::drain` each, consulting the two-level bitmap once
    /// per *bucket* (and clearing its bit once, when it empties) instead
    /// of running find-first-set + unmark for every element. Length
    /// bookkeeping is settled once per batch.
    fn pop_batch(&mut self, max: usize, out: &mut Vec<(Rank, T)>) -> usize {
        let target = max.min(self.len);
        out.reserve(target);
        let mut taken = 0usize;
        while taken < target {
            if self.summary == 0 {
                self.refill_from_overflow();
            }
            let idx = self.first_occupied().expect("taken < target <= len");
            let bucket = &mut self.buckets[idx];
            let take = bucket.len().min(target - taken);
            out.extend(bucket.drain(..take).map(|(r, _, t)| (r, t)));
            taken += take;
            self.unmark_if_empty(idx);
        }
        self.len -= taken;
        taken
    }

    fn peek(&self) -> Option<(Rank, &T)> {
        match self.first_occupied() {
            Some(idx) => self.buckets[idx].front().map(|(r, _, t)| (*r, t)),
            // Calendar empty: the overflow minimum is the global minimum.
            None => self.overflow.peek().map(|e| (e.rank, &e.item)),
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn capacity(&self) -> Option<usize> {
        self.capacity
    }
}

impl<T> PifoInspect<T> for BucketPifo<T> {
    fn iter_in_order(&self) -> Box<dyn Iterator<Item = (Rank, &T)> + '_> {
        // Calendar ranks all precede overflow ranks (horizon invariant),
        // so dequeue order is: buckets by index, then overflow sorted.
        let over = self.overflow_sorted_refs();
        Box::new(
            self.buckets
                .iter()
                .flat_map(|b| b.iter().map(|(r, _, t)| (*r, t)))
                .chain(over.into_iter().map(|e| (e.rank, &e.item))),
        )
    }

    fn peek_first_matching(&self, pred: &mut dyn FnMut(&T) -> bool) -> Option<(Rank, &T)> {
        self.iter_in_order().find(|(_, t)| pred(t))
    }

    fn pop_first_matching(&mut self, pred: &mut dyn FnMut(&T) -> bool) -> Option<(Rank, T)> {
        // Scan the calendar in dequeue order first.
        for idx in 0..NUM_BUCKETS {
            if self.buckets[idx].is_empty() {
                continue;
            }
            if let Some(pos) = self.buckets[idx].iter().position(|(_, _, t)| pred(t)) {
                let (r, _, t) = self.buckets[idx].remove(pos).expect("position exists");
                self.unmark_if_empty(idx);
                self.len -= 1;
                return Some((r, t));
            }
        }
        // Then the overflow heap, in dequeue order.
        let mut entries = std::mem::take(&mut self.overflow).into_vec();
        entries.sort_by_key(|e| (e.rank, e.seq));
        let pos = entries.iter().position(|e| pred(&e.item));
        let removed = pos.map(|p| entries.remove(p));
        self.overflow = BinaryHeap::from(entries);
        removed.map(|e| {
            self.len -= 1;
            (e.rank, e.item)
        })
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
    fn pop_first_matching_respects_head_order() {
        // Exercised through the backend-erased engine, as the hw model
        // uses it.
        for backend in PifoBackend::ALL {
            let mut q: BoxedPifo<(&str, u32)> = backend.make();
            q.push(Rank(1), ("a", 1));
            q.push(Rank(2), ("b", 2));
            q.push(Rank(3), ("a", 3));
            // First "a" by dequeue order is the rank-1 one.
            let (r, (tag, v)) = q.pop_first_matching(&mut |(t, _)| *t == "a").unwrap();
            assert_eq!((r, tag, v), (Rank(1), "a", 1), "{backend}");
            // Remaining order intact.
            assert_eq!(q.pop().unwrap().1, ("b", 2), "{backend}");
            assert_eq!(q.pop().unwrap().1, ("a", 3), "{backend}");
            assert!(q.is_empty(), "{backend}");
        }
    }

    #[test]
    fn peek_first_matching_finds_headmost() {
        for backend in PifoBackend::ALL {
            let mut q: BoxedPifo<u32> = backend.make();
            q.push(Rank(4), 40u32);
            q.push(Rank(2), 21u32);
            q.push(Rank(3), 31u32);
            let (r, v) = q.peek_first_matching(&mut |v| *v % 2 == 1).unwrap();
            assert_eq!((r, *v), (Rank(2), 21), "{backend}");
            assert_eq!(q.len(), 3, "{backend}");
        }
    }

    #[test]
    fn iter_in_order_matches_drain_order() {
        for backend in PifoBackend::ALL {
            let mut q: BoxedPifo<u64> = backend.make();
            // Spread ranks across buckets, within one bucket, and into the
            // bucket backend's overflow region.
            for (i, r) in [5u64, 5, 1 << 30, 3, 700, 5, 1 << 40, 0].iter().enumerate() {
                q.push(Rank(*r), i as u64);
            }
            let via_iter: Vec<(Rank, u64)> = q.iter_in_order().map(|(r, v)| (r, *v)).collect();
            let via_drain: Vec<(Rank, u64)> = drain(&mut *q);
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

    /// The statically-dispatched enum and the boxed trait object are the
    /// same engines: identical traces, inspection views and admission.
    #[test]
    fn enum_pifo_matches_boxed_engine() {
        for backend in PifoBackend::ALL {
            let mut e = backend.make_enum::<u32>();
            let mut b: BoxedPifo<u32> = backend.make();
            assert_eq!(e.backend(), backend);
            for (i, r) in [5u64, 1, 1 << 40, 5, 0, 700].iter().enumerate() {
                e.push(Rank(*r), i as u32);
                b.push(Rank(*r), i as u32);
            }
            let ve: Vec<_> = e.iter_in_order().map(|(r, v)| (r, *v)).collect();
            let vb: Vec<_> = b.iter_in_order().map(|(r, v)| (r, *v)).collect();
            assert_eq!(ve, vb, "{backend} inspection diverges");
            loop {
                let (x, y) = (e.pop(), b.pop());
                assert_eq!(x, y, "{backend} pop diverges");
                if x.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn enum_pifo_bounded_rejects_like_boxed() {
        for backend in PifoBackend::ALL {
            let mut e = backend.make_enum_bounded::<u8>(2);
            let mut b: BoxedPifo<u8> = backend.make_bounded(2);
            assert_eq!(e.capacity(), Some(2));
            for r in 0..3u64 {
                assert_eq!(
                    e.try_push(Rank(r), r as u8),
                    b.try_push(Rank(r), r as u8),
                    "{backend} admission diverges"
                );
            }
            assert_eq!(e.len(), b.len(), "{backend}");
            if backend.is_exact() {
                // Exact backends admit first-come: exactly the capacity.
                // Approximate gates may refuse earlier; only the
                // enum-matches-boxed property is universal.
                assert_eq!(e.len(), 2, "{backend}");
            }
        }
    }

    // ---- Batch-API edge cases --------------------------------------------

    /// An empty batch is a no-op on every backend: no rejects, no pops,
    /// no state change.
    #[test]
    fn empty_batches_are_noops() {
        for backend in PifoBackend::ALL {
            let mut q: BoxedPifo<u32> = backend.make_bounded(4);
            q.push(Rank(1), 10);
            assert!(q.push_batch(Vec::new()).is_empty(), "{backend}");
            let mut out = Vec::new();
            assert_eq!(q.pop_batch(0, &mut out), 0, "{backend}");
            assert!(out.is_empty(), "{backend}");
            assert_eq!(q.len(), 1, "{backend}");
        }
    }

    /// A batch that straddles the capacity bound admits exactly the
    /// prefix that fits and reports every rejected element —
    /// field-for-field unchanged, in input order — on every exact
    /// backend. (Approximate gates legally refuse different elements;
    /// their PifoFull round-trip is pinned by the approx property suite.)
    #[test]
    fn push_batch_straddling_capacity_reports_exact_rejects() {
        for backend in PifoBackend::EXACT {
            let mut q: BoxedPifo<(u64, &str)> = backend.make_bounded(3);
            q.push(Rank(5), (5, "resident"));
            // 4 more into 2 remaining slots: the last two must bounce,
            // even though rank 0 would sit at the head.
            let batch = vec![
                (Rank(9), (9, "fits-a")),
                (Rank(1), (1, "fits-b")),
                (Rank(0), (0, "rejected-a")),
                (Rank(7), (7, "rejected-b")),
            ];
            let rejected = q.push_batch(batch);
            assert_eq!(
                rejected,
                vec![
                    PifoFull {
                        rank: Rank(0),
                        item: (0, "rejected-a"),
                        capacity: 3
                    },
                    PifoFull {
                        rank: Rank(7),
                        item: (7, "rejected-b"),
                        capacity: 3
                    },
                ],
                "{backend}"
            );
            assert_eq!(q.len(), 3, "{backend}");
            let drained: Vec<&str> = std::iter::from_fn(|| q.pop())
                .map(|(_, (_, s))| s)
                .collect();
            assert_eq!(drained, vec!["fits-b", "resident", "fits-a"], "{backend}");
        }
    }

    /// `pop_batch` crosses bucket, calendar-window and overflow-heap
    /// boundaries in one call, and stopping mid-bucket leaves the
    /// remainder intact.
    #[test]
    fn pop_batch_crosses_structures_and_stops_mid_bucket() {
        // Shift 0 → 4096-wide window; rank far beyond it goes to overflow.
        let far = (NUM_BUCKETS as u64) * 7;
        let mut q: BucketPifo<u32> = BucketPifo::with_shift(0);
        for (i, r) in [3u64, 3, 3, 10, far, far + 1].iter().enumerate() {
            q.push(Rank(*r), i as u32);
        }
        // Stop mid-bucket: two of the three rank-3 residents.
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(2, &mut out), 2);
        assert_eq!(out, vec![(Rank(3), 0), (Rank(3), 1)]);
        assert_eq!(q.len(), 4);
        // One call drains the rest: tail of the bucket, the next bucket,
        // then both overflow residents via a refill.
        let mut rest = Vec::new();
        assert_eq!(q.pop_batch(100, &mut rest), 4);
        assert_eq!(
            rest,
            vec![
                (Rank(3), 2),
                (Rank(10), 3),
                (Rank(far), 4),
                (Rank(far + 1), 5)
            ]
        );
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    /// Mixing batched and per-element calls keeps one coherent FIFO
    /// sequence: a batch pushed after singles ties behind them. The
    /// expected trace is rank-sorted, so this sweeps the exact trio.
    #[test]
    fn batch_and_single_ops_interleave_coherently() {
        for backend in PifoBackend::EXACT {
            let mut q: BoxedPifo<u32> = backend.make();
            q.push(Rank(5), 0);
            assert!(q.push_batch(vec![(Rank(5), 1), (Rank(2), 2)]).is_empty());
            q.push(Rank(5), 3);
            let mut out = Vec::new();
            q.pop_batch(2, &mut out);
            assert_eq!(out, vec![(Rank(2), 2), (Rank(5), 0)], "{backend}");
            assert_eq!(q.pop(), Some((Rank(5), 1)), "{backend}");
            assert_eq!(q.pop(), Some((Rank(5), 3)), "{backend}");
        }
    }

    /// `HeapPifo::pop_batch` crosses all three regimes — sorted drain
    /// (`max >= len`), select + rebuild (`4*max >= len`), per-element
    /// fallback — and each one matches the sequential-pop oracle,
    /// including FIFO ties and the state left behind for later pops.
    #[test]
    fn heap_pop_batch_regimes_match_sequential_pops() {
        let ranks: Vec<u64> = (0..64u64).map(|i| (i * 37) % 16).collect();
        // (max, len-at-call) pairs chosen to land in each regime.
        for max in [1usize, 3, 9, 20, 63, 64, 100] {
            let mut batched: HeapPifo<u64> = HeapPifo::new();
            let mut reference: HeapPifo<u64> = HeapPifo::new();
            for (i, r) in ranks.iter().enumerate() {
                batched.push(Rank(*r), i as u64);
                reference.push(Rank(*r), i as u64);
            }
            let mut via_batch = Vec::new();
            let n = batched.pop_batch(max, &mut via_batch);
            assert_eq!(n, max.min(ranks.len()), "max={max}");
            let via_pops: Vec<(Rank, u64)> = (0..n).map(|_| reference.pop().unwrap()).collect();
            assert_eq!(via_batch, via_pops, "max={max}: batch diverges");
            // The remainders agree element for element too.
            loop {
                let (a, b) = (batched.pop(), reference.pop());
                assert_eq!(a, b, "max={max}: remainder diverges");
                if a.is_none() {
                    break;
                }
            }
        }
    }

    /// Interleaving batch pops with fresh pushes keeps one coherent
    /// FIFO-tie sequence across the heap's internal rebuilds.
    #[test]
    fn heap_pop_batch_then_push_keeps_tie_order() {
        let mut q: HeapPifo<u32> = HeapPifo::new();
        for i in 0..10u32 {
            q.push(Rank(5), i);
        }
        let mut out = Vec::new();
        q.pop_batch(4, &mut out); // select + rebuild regime
        assert_eq!(
            out.iter().map(|&(_, v)| v).collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );
        q.push(Rank(5), 100); // ties behind the survivors
        let rest: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, v)| v).collect();
        assert_eq!(rest, [4, 5, 6, 7, 8, 9, 100]);
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
