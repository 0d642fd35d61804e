//! Approximate PIFO engines — scheduling quality traded for per-op cost.
//!
//! The paper's PIFO (§4) is an *exact* priority queue: every pop returns
//! the minimum rank present. The follow-on literature shows that much of
//! the scheduling benefit survives far cheaper structures:
//!
//! * [`SpPifo`] — SP-PIFO ("Everything Matters in Programmable Packet
//!   Scheduling"): map ranks onto `k` strict-priority FIFOs whose queue
//!   bounds adapt online (*push-up* on every enqueue, *push-down* on
//!   every inversion at the head queue). O(k) push/pop, no sorting.
//! * [`GatedFifo`] — a **single FIFO** whose only rank-awareness is an
//!   admission gate metered against the free buffer fraction, one engine
//!   per gate: [`Rifo`] (RIFO, "RIFO: Pushing the Efficiency of
//!   Programmable Packet Schedulers") behind [`SpanGate`], which admits a
//!   rank low enough inside the `[min, max]` span of a sliding window of
//!   offered ranks (O(1) amortised), and the AIFO-style [`Aifo`] behind
//!   [`QuantileGate`], which compares the rank's *quantile* within a
//!   sliding sample (O(W) per push for a small constant window W).
//!
//! # The relaxed contract
//!
//! These engines implement [`PifoQueue`] but **break
//! invariant 1** of the contract on purpose: pops are *not* guaranteed to
//! be in non-decreasing rank order. What still holds:
//!
//! * Invariant 3 (`len` = pushes − pops) holds exactly, as do capacity
//!   bounds and [`PifoFull`] field round-trips — so trees, pools and
//!   switches account packets identically.
//! * Invariant 2 (FIFO within equal rank) holds for [`GatedFifo`] (a
//!   FIFO), and for [`SpPifo`] with `k = 1`. For
//!   `k > 1` SP-PIFO can invert equal ranks across queues: with `k = 2`,
//!   pushing ranks `5, 3, 7, 5` maps the first 5 to queue 1 and — after
//!   7 pushes queue 1's bound up — the second 5 to queue 0, which drains
//!   first.
//!
//! How *far* from exact a run was is a measured number, not a shrug: the
//! [`metrics`](crate::metrics) module scores any pop trace against the
//! sorted oracle (inversions, unpifoness, max rank regression), and the
//! `approx_quality` bench maps the quality × throughput frontier.

use crate::pifo::{PifoFull, PifoQueue};
use crate::rank::Rank;
use std::collections::VecDeque;

/// Default number of strict-priority queues for [`SpPifo`] — the
/// SP-PIFO paper's headline configuration (8 queues on Tofino).
pub const DEFAULT_SP_PIFO_QUEUES: u8 = 8;

/// Sliding-window length for [`SpanGate`]'s min/max rank tracker.
pub const DEFAULT_RIFO_WINDOW: usize = 64;

/// Sliding-sample length for [`QuantileGate`]'s quantile estimate. The
/// AIFO paper shows small samples suffice (their hardware uses ~10s of
/// slots).
pub const DEFAULT_AIFO_WINDOW: usize = 32;

// ---------------------------------------------------------------------------
// SpPifo
// ---------------------------------------------------------------------------

/// SP-PIFO: `k` strict-priority FIFOs with adaptive queue bounds.
///
/// Each queue `i` has a bound `b[i]`; bounds are kept non-decreasing in
/// `i` (queue 0 is highest priority / lowest ranks). On enqueue the
/// queues are scanned from the *lowest*-priority end for the first
/// `b[i] <= rank`; the packet joins that FIFO and the bound is **pushed
/// up** to `rank`. If even the highest-priority bound exceeds the rank
/// (an inversion would occur), every bound is **pushed down** by the
/// overshoot `b[0] - rank` and the packet joins queue 0. Dequeue pops
/// the head of the first non-empty queue.
///
/// Pops are approximately rank-ordered: exact *between* queues at any
/// instant, unordered *within* one (each queue is a FIFO over a rank
/// band). `k = 1` degenerates to a plain FIFO; larger `k` monotonically
/// buys quality (measured by `approx_quality` as strictly decreasing
/// unpifoness).
#[derive(Debug, Clone)]
pub struct SpPifo<T> {
    queues: Vec<VecDeque<(Rank, T)>>,
    bounds: Vec<u64>,
    len: usize,
    capacity: Option<usize>,
    pushdowns: u64,
}

impl<T> SpPifo<T> {
    /// An unbounded SP-PIFO over `queues` strict-priority FIFOs.
    ///
    /// # Panics
    ///
    /// Panics if `queues` is zero — an SP-PIFO needs at least one band.
    pub fn new(queues: usize) -> Self {
        assert!(queues >= 1, "SP-PIFO needs at least one queue");
        SpPifo {
            queues: (0..queues).map(|_| VecDeque::new()).collect(),
            bounds: vec![0; queues],
            len: 0,
            capacity: None,
            pushdowns: 0,
        }
    }

    /// A bounded SP-PIFO rejecting pushes beyond `capacity` elements
    /// (summed across all `queues` bands).
    pub fn with_capacity(queues: usize, capacity: usize) -> Self {
        let mut q = Self::new(queues);
        q.capacity = Some(capacity);
        q
    }

    /// Number of strict-priority queues (the `k` in `sp-pifo:k`).
    pub fn num_queues(&self) -> usize {
        self.queues.len()
    }

    /// How many push-down adaptations (head-queue inversions detected at
    /// enqueue) have occurred — SP-PIFO's own online quality signal.
    pub fn pushdowns(&self) -> u64 {
        self.pushdowns
    }

    /// Current queue bounds, highest priority first (non-decreasing).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }
}

impl<T> PifoQueue<T> for SpPifo<T> {
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
        let r = rank.value();
        // Scan from the lowest-priority queue for the first bound <= rank.
        for i in (0..self.queues.len()).rev() {
            if self.bounds[i] <= r {
                self.bounds[i] = r; // push-up
                self.queues[i].push_back((rank, item));
                self.len += 1;
                return Ok(());
            }
        }
        // rank undercuts every bound: push-down all bounds by the
        // overshoot and take the highest-priority queue. Bounds are
        // non-decreasing, so none underflows (b[i] >= b[0] >= cost).
        let cost = self.bounds[0] - r;
        for b in &mut self.bounds {
            *b -= cost;
        }
        self.pushdowns += 1;
        self.queues[0].push_back((rank, item));
        self.len += 1;
        Ok(())
    }

    fn pop(&mut self) -> Option<(Rank, T)> {
        for q in &mut self.queues {
            if let Some(e) = q.pop_front() {
                self.len -= 1;
                return Some(e);
            }
        }
        None
    }

    fn peek(&self) -> Option<(Rank, &T)> {
        self.queues
            .iter()
            .find_map(|q| q.front().map(|(r, t)| (*r, t)))
    }

    fn len(&self) -> usize {
        self.len
    }

    fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    fn iter_in_order(&self) -> Box<dyn Iterator<Item = (Rank, &T)> + '_> {
        Box::new(
            self.queues
                .iter()
                .flat_map(|q| q.iter().map(|(r, t)| (*r, t))),
        )
    }
}

// ---------------------------------------------------------------------------
// GatedFifo: Rifo and Aifo
// ---------------------------------------------------------------------------

/// The rank test in front of a [`GatedFifo`] — the only code in which
/// [`Rifo`] and [`Aifo`] differ.
pub trait RankGate: Default {
    /// Record an offered rank (every push, admitted or not).
    fn observe(&mut self, rank: u64);

    /// Admit the just-observed `rank` into a FIFO with `free` of its
    /// `capacity` slots unused (`free >= 1`)?
    fn admits(&self, rank: u64, free: usize, capacity: usize) -> bool;
}

/// A single FIFO whose only rank-awareness is an admission gate `G`.
///
/// The queue itself never reorders. Every offered rank updates the
/// gate; a push into a *bounded* queue is admitted iff it fits and the
/// gate admits its rank against the free-buffer fraction. Rejections
/// surface as ordinary [`PifoFull`] errors, so drop accounting in
/// trees/switches is unchanged. An **unbounded** queue has no scarcity
/// signal and admits everything (a plain FIFO).
#[derive(Debug, Clone)]
pub struct GatedFifo<T, G> {
    fifo: VecDeque<(Rank, T)>,
    gate: G,
    capacity: Option<usize>,
    rejects: u64,
}

/// RIFO: a [`GatedFifo`] behind the windowed relative-rank [`SpanGate`].
pub type Rifo<T> = GatedFifo<T, SpanGate>;

/// AIFO-style: a [`GatedFifo`] behind the windowed-quantile [`QuantileGate`].
pub type Aifo<T> = GatedFifo<T, QuantileGate>;

impl<T, G: RankGate> Default for GatedFifo<T, G> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, G: RankGate> GatedFifo<T, G> {
    /// An unbounded queue (degenerates to a plain FIFO — the gate needs a
    /// capacity to meter against).
    pub fn new() -> Self {
        GatedFifo {
            fifo: VecDeque::new(),
            gate: G::default(),
            capacity: None,
            rejects: 0,
        }
    }

    /// A bounded queue admitting through its gate against `capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut q = Self::new();
        q.capacity = Some(capacity);
        q
    }

    /// How many pushes the admission gate refused.
    pub fn rejects(&self) -> u64 {
        self.rejects
    }
}

impl<T, G: RankGate> PifoQueue<T> for GatedFifo<T, G> {
    fn try_push(&mut self, rank: Rank, item: T) -> Result<(), PifoFull<T>> {
        let r = rank.value();
        self.gate.observe(r);
        if let Some(cap) = self.capacity {
            let free = cap - self.fifo.len();
            if free == 0 || !self.gate.admits(r, free, cap) {
                self.rejects += 1;
                return Err(PifoFull {
                    rank,
                    item,
                    capacity: cap,
                });
            }
        }
        self.fifo.push_back((rank, item));
        Ok(())
    }

    fn pop(&mut self) -> Option<(Rank, T)> {
        self.fifo.pop_front()
    }

    fn peek(&self) -> Option<(Rank, &T)> {
        self.fifo.front().map(|(r, t)| (*r, t))
    }

    fn len(&self) -> usize {
        self.fifo.len()
    }

    fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    fn iter_in_order(&self) -> Box<dyn Iterator<Item = (Rank, &T)> + '_> {
        Box::new(self.fifo.iter().map(|(r, t)| (*r, t)))
    }
}

/// RIFO's gate: a rank is admitted iff its relative position inside the
/// `[min, max]` span of the last [`DEFAULT_RIFO_WINDOW`] offered ranks
/// does not exceed the free-buffer fraction:
///
/// ```text
/// (rank - wmin) / (wmax - wmin)  <=  free / capacity
/// ```
///
/// evaluated in exact integer arithmetic. A nearly empty queue admits
/// almost everything; a nearly full queue admits only ranks near the
/// windowed minimum — RIFO's "important packets get the scarce buffer"
/// rule. The min and max are O(1) amortised via monotonic deques.
#[derive(Debug, Clone)]
pub struct SpanGate {
    size: usize,
    ranks: VecDeque<u64>,
    minq: VecDeque<u64>, // non-decreasing; front = window min
    maxq: VecDeque<u64>, // non-increasing; front = window max
}

impl SpanGate {
    fn with_window(size: usize) -> Self {
        SpanGate {
            size,
            ranks: VecDeque::with_capacity(size + 1),
            minq: VecDeque::new(),
            maxq: VecDeque::new(),
        }
    }
}

impl Default for SpanGate {
    fn default() -> Self {
        Self::with_window(DEFAULT_RIFO_WINDOW)
    }
}

impl RankGate for SpanGate {
    fn observe(&mut self, r: u64) {
        self.ranks.push_back(r);
        while self.minq.back().is_some_and(|&b| b > r) {
            self.minq.pop_back();
        }
        self.minq.push_back(r);
        while self.maxq.back().is_some_and(|&b| b < r) {
            self.maxq.pop_back();
        }
        self.maxq.push_back(r);
        if self.ranks.len() > self.size {
            let old = self.ranks.pop_front().expect("window non-empty");
            if self.minq.front() == Some(&old) {
                self.minq.pop_front();
            }
            if self.maxq.front() == Some(&old) {
                self.maxq.pop_front();
            }
        }
    }

    fn admits(&self, r: u64, free: usize, cap: usize) -> bool {
        let (wmin, wmax) = (self.minq[0], self.maxq[0]);
        // (r - wmin) * cap <= (wmax - wmin) * free, in u128 so full-range
        // u64 ranks cannot overflow.
        wmax == wmin || (r - wmin) as u128 * cap as u128 <= (wmax - wmin) as u128 * free as u128
    }
}

/// AIFO's gate: a rank is admitted iff its quantile within the last
/// [`DEFAULT_AIFO_WINDOW`] offered ranks does not exceed the free-buffer
/// fraction:
///
/// ```text
/// |{w in window : w < rank}| / |window|  <=  free / capacity
/// ```
///
/// in exact integer arithmetic (equal ranks do not count against the
/// candidate, biasing ties toward admission). Compared with
/// [`SpanGate`]'s min/max span this is insensitive to rank outliers —
/// one giant rank cannot stretch the gate open — at O(W) per push for
/// the sample scan.
#[derive(Debug, Clone)]
pub struct QuantileGate {
    window: VecDeque<u64>,
}

impl Default for QuantileGate {
    fn default() -> Self {
        QuantileGate {
            window: VecDeque::with_capacity(DEFAULT_AIFO_WINDOW + 1),
        }
    }
}

impl RankGate for QuantileGate {
    fn observe(&mut self, r: u64) {
        self.window.push_back(r);
        if self.window.len() > DEFAULT_AIFO_WINDOW {
            self.window.pop_front();
        }
    }

    fn admits(&self, r: u64, free: usize, cap: usize) -> bool {
        let below = self.window.iter().filter(|&&w| w < r).count();
        // below / |window| <= free / cap, cross-multiplied.
        below as u128 * cap as u128 <= free as u128 * self.window.len() as u128
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sp_pifo_separates_rank_bands() {
        let mut q = SpPifo::new(2);
        // Alternating high/low ranks: the two bands end up in different
        // queues, and the low band drains first.
        for (r, v) in [(100, 'a'), (5, 'b'), (110, 'c'), (6, 'd')] {
            q.push(Rank(r), v);
        }
        let drained: Vec<char> = std::iter::from_fn(|| q.pop()).map(|(_, v)| v).collect();
        assert_eq!(drained, vec!['b', 'd', 'a', 'c']);
    }

    #[test]
    fn sp_pifo_push_down_keeps_bounds_sane() {
        let mut q = SpPifo::new(4);
        q.push(Rank(1000), ());
        assert_eq!(q.bounds(), &[0, 0, 0, 1000]);
        // Rank below every bound triggers a push-down.
        q.push(Rank(u64::MIN), ());
        assert_eq!(q.pushdowns(), 0, "bound 0 admits rank 0 without adapting");
        let mut q = SpPifo::new(2);
        q.push(Rank(10), ()); // queue 1, bound 10
        q.push(Rank(4), ()); // queue 0, bound 4 (push-up)
        q.push(Rank(2), ()); // undercuts both: push-down by 2
        assert_eq!(q.pushdowns(), 1);
        assert_eq!(q.bounds(), &[2, 8]);
        assert!(q.bounds().windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn sp_pifo_k1_is_fifo() {
        let mut q = SpPifo::new(1);
        for (i, r) in [9u64, 3, 7, 3, 1].into_iter().enumerate() {
            q.push(Rank(r), i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|(_, v)| v).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn sp_pifo_capacity_round_trip() {
        let mut q = SpPifo::with_capacity(2, 2);
        q.push(Rank(1), 'a');
        q.push(Rank(2), 'b');
        let err = q.try_push(Rank(3), 'c').unwrap_err();
        assert_eq!((err.rank, err.item, err.capacity), (Rank(3), 'c', 2));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn rifo_unbounded_is_fifo() {
        let mut q = Rifo::new();
        for (i, r) in [50u64, 10, 90, 10].into_iter().enumerate() {
            q.push(Rank(r), i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|(_, v)| v).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn rifo_gate_prefers_low_ranks_when_full() {
        let mut q = Rifo::with_capacity(4);
        // A degenerate window (all one rank) admits freely: fill up.
        for i in 0..4 {
            assert!(q.try_push(Rank(0), i).is_ok());
        }
        // The high rank stretches the window span to [0, 100] and the
        // full queue refuses it.
        assert!(q.try_push(Rank(100), 4).is_err());
        q.pop();
        // One slot free (free fraction 1/4): relative rank must be <= 1/4.
        assert!(q.try_push(Rank(90), 5).is_err(), "high rank refused");
        assert!(q.try_push(Rank(10), 6).is_ok(), "low rank admitted");
        assert_eq!(q.rejects(), 2);
    }

    #[test]
    fn aifo_gate_quantile() {
        let mut q = Aifo::with_capacity(4);
        // Equal ranks never count against themselves: the queue fills.
        for i in 0..4 {
            assert!(q.try_push(Rank(5), i).is_ok(), "push {i} at fill");
        }
        q.pop();
        q.pop();
        // free = 2/4; rank 100 sits above the whole 5-element sample
        // (quantile 4/5 > 1/2) and refuses; rank 1 is below everything
        // (quantile 0) and passes.
        assert!(q.try_push(Rank(100), 9).is_err());
        assert!(q.try_push(Rank(1), 10).is_ok());
        assert_eq!(q.rejects(), 1);
    }

    #[test]
    fn window_min_max_tracks_eviction() {
        let mut w = SpanGate::with_window(3);
        for r in [5, 1, 9] {
            w.observe(r);
        }
        let span = |w: &SpanGate| (w.minq[0], w.maxq[0]);
        assert_eq!(span(&w), (1, 9));
        w.observe(2); // evicts 5
        assert_eq!(span(&w), (1, 9));
        w.observe(3); // evicts 1
        assert_eq!(span(&w), (2, 9));
        w.observe(4); // evicts 9
        assert_eq!(span(&w), (2, 4));
    }

    #[test]
    fn inspect_order_matches_drain_order() {
        let mut q = SpPifo::new(3);
        for r in [40u64, 5, 33, 7, 21] {
            q.push(Rank(r), r);
        }
        let inspected: Vec<u64> = q.iter_in_order().map(|(_, v)| *v).collect();
        let drained: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, v)| v).collect();
        assert_eq!(inspected, drained);
    }
}
