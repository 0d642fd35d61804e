//! Rank-inversion metrics — turning "approximately right" into a number.
//!
//! The [`approx`](crate::approx) engines deliberately relax the PIFO
//! contract's sorted-pop invariant; this module quantifies *by how much*.
//! Three layers:
//!
//! * [`InversionTracker`] — a streaming scorer a
//!   [`ScheduleTree`](crate::tree::ScheduleTree) (and through it a
//!   switch port) carries when tracking is enabled. It observes every
//!   rank *pushed* into the root PIFO and every rank *popped* from it,
//!   and charges a pop that overtakes a smaller rank still waiting: if
//!   rank `r` departs while some rank `m < r` is queued, that dequeue is
//!   an **inversion**, its shortfall `r − m` (against the smallest
//!   waiting rank) adds to **unpifoness** (Σ rank displacement, the
//!   SP-PIFO paper's quality metric), and the largest single shortfall
//!   is the **max rank regression**. An exact PIFO always pops the
//!   minimum waiting rank, so every exact backend scores all-zeros on
//!   *every* schedule — including interleaved push/pop churn — by
//!   construction.
//! * Offline trace scoring — replay the *same* push/pop schedule
//!   ([`TraceOp`]) through the exact sorted oracle
//!   ([`oracle_pop_ranks`]) or any backend ([`replay_backend`],
//!   [`replay_with_stats`]) and diff the pop sequences positionally
//!   ([`score_against_oracle`]). An exact backend scores all-zeros by
//!   construction; an approximate one gets a measured,
//!   regression-gateable distance from ideal.
//! * [`count_pairwise_inversions`] — the classic inversion count (pairs
//!   popped out of rank order) in O(n log n) merge-sort time,
//!   cross-checked against an O(n²) brute force by the property suite.
//!
//! The tracker metrics and the pairwise count answer different
//! questions: the tracker charges each *pop* once (how far did this
//! departure overtake the queue's smallest waiting rank?), the pairwise
//! count charges each *pair* of a drain sequence (how shuffled is the
//! whole sequence?). On a fill-then-drain schedule both are zero exactly
//! when the pop trace is non-decreasing.

use crate::pifo::{PifoBackend, PifoQueue};
use crate::rank::Rank;
use std::collections::BTreeMap;

/// Counters accumulated by an [`InversionTracker`] (or computed offline
/// by [`inversion_stats_of`] / [`replay_with_stats`]). All-zero for any
/// exact backend on any schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InversionStats {
    /// Ranks scored (dequeues observed).
    pub dequeues: u64,
    /// Dequeues that overtook a strictly smaller rank still waiting in
    /// the queue.
    pub inversions: u64,
    /// Σ over inverted dequeues of (popped rank − smallest waiting
    /// rank): total rank displacement, the SP-PIFO paper's "unpifoness".
    pub unpifoness: u128,
    /// Largest single (popped rank − smallest waiting rank) shortfall.
    pub max_regression: u64,
}

impl InversionStats {
    /// Mean rank displacement per dequeue (0.0 when nothing was scored).
    pub fn mean_displacement(&self) -> f64 {
        if self.dequeues == 0 {
            0.0
        } else {
            self.unpifoness as f64 / self.dequeues as f64
        }
    }

    /// Fold another port's / tree's counters into this one (fabric-level
    /// totals; `max_regression` takes the max).
    pub fn merge(&mut self, other: &InversionStats) {
        self.dequeues += other.dequeues;
        self.inversions += other.inversions;
        self.unpifoness += other.unpifoness;
        self.max_regression = self.max_regression.max(other.max_regression);
    }
}

/// Streaming inversion scorer. Feed it every rank entering the queue
/// ([`record_push`](Self::record_push)) and every rank leaving it
/// ([`record_pop`](Self::record_pop)); it keeps a multiset of the ranks
/// currently waiting and charges each pop that overtakes a smaller one.
/// O(log n) per recorded rank (a `BTreeMap` keyed by distinct rank
/// value), memory bounded by the queue's live occupancy.
///
/// Ranks popped without a matching recorded push (tracking switched on
/// over a non-empty queue) are counted as dequeues but not scored — the
/// tracker has no ground truth for them.
///
/// ```
/// use pifo_core::metrics::InversionTracker;
/// use pifo_core::rank::Rank;
///
/// let mut t = InversionTracker::new();
/// for r in [3u64, 7, 5] {
///     t.record_push(Rank(r));
/// }
/// t.record_pop(Rank(7)); // overtakes 3 and 5: shortfall 7 − 3
/// t.record_pop(Rank(3)); // the smallest waiting rank: exact
/// let s = t.stats();
/// assert_eq!(s.dequeues, 2);
/// assert_eq!(s.inversions, 1);
/// assert_eq!(s.unpifoness, (7 - 3) as u128);
/// assert_eq!(s.max_regression, 7 - 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct InversionTracker {
    /// Multiset of ranks currently waiting: rank value → live count.
    present: BTreeMap<u64, u64>,
    stats: InversionStats,
}

impl InversionTracker {
    /// A fresh tracker with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observe a rank entering the queue.
    #[inline]
    pub fn record_push(&mut self, rank: Rank) {
        *self.present.entry(rank.value()).or_insert(0) += 1;
    }

    /// Observe a rank leaving the queue and score it against the
    /// smallest rank still waiting.
    #[inline]
    pub fn record_pop(&mut self, rank: Rank) {
        self.stats.dequeues += 1;
        let r = rank.value();
        if !self.present.contains_key(&r) {
            return; // untracked push (tracking enabled mid-stream)
        }
        let (&min, _) = self.present.first_key_value().expect("just found r");
        if r > min {
            let shortfall = r - min;
            self.stats.inversions += 1;
            self.stats.unpifoness += shortfall as u128;
            self.stats.max_regression = self.stats.max_regression.max(shortfall);
        }
        match self.present.get_mut(&r) {
            Some(c) if *c > 1 => *c -= 1,
            _ => {
                self.present.remove(&r);
            }
        }
    }

    /// The counters accumulated so far.
    pub fn stats(&self) -> InversionStats {
        self.stats
    }

    /// Zero every counter. The multiset of waiting ranks is kept — the
    /// queue's contents did not change, only the scoring window resets.
    pub fn reset(&mut self) {
        self.stats = InversionStats::default();
    }
}

/// Score a complete *drain* in one call: as if every rank in `ranks`
/// were pushed first and then popped in the given order. Equal to what
/// an [`InversionTracker`] reports for a fill-then-drain schedule; for
/// interleaved schedules use [`replay_with_stats`] instead.
pub fn inversion_stats_of(ranks: &[Rank]) -> InversionStats {
    let mut t = InversionTracker::new();
    for &r in ranks {
        t.record_push(r);
    }
    for &r in ranks {
        t.record_pop(r);
    }
    t.stats()
}

/// Count pairs `(i, j)` with `i < j` but `ranks[i] > ranks[j]` — the
/// classic inversion number — in O(n log n) by merge sort. Equal ranks
/// are *not* inversions (FIFO ties are legal PIFO behaviour).
pub fn count_pairwise_inversions(ranks: &[Rank]) -> u64 {
    fn sort_count(v: &mut [u64], scratch: &mut Vec<u64>) -> u64 {
        let n = v.len();
        if n < 2 {
            return 0;
        }
        let mid = n / 2;
        let (left, right) = v.split_at_mut(mid);
        let mut inv = sort_count(left, scratch) + sort_count(right, scratch);
        scratch.clear();
        let (mut i, mut j) = (0, 0);
        while i < left.len() && j < right.len() {
            if left[i] <= right[j] {
                scratch.push(left[i]);
                i += 1;
            } else {
                // left[i..] are all > right[j]: each is an inversion.
                inv += (left.len() - i) as u64;
                scratch.push(right[j]);
                j += 1;
            }
        }
        scratch.extend_from_slice(&left[i..]);
        scratch.extend_from_slice(&right[j..]);
        v.copy_from_slice(scratch);
        inv
    }
    let mut vals: Vec<u64> = ranks.iter().map(|r| r.value()).collect();
    let mut scratch = Vec::with_capacity(vals.len());
    sort_count(&mut vals, &mut scratch)
}

/// One step of a replayable queue schedule: what was *offered* to the
/// queue and when it was drained. The same trace drives the oracle and
/// the backend under test, so their pop sequences are directly
/// comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// Offer an element with this rank (`try_push`; the queue may
    /// refuse it).
    Push(Rank),
    /// Dequeue once (a pop on an empty queue is a no-op).
    Pop,
}

/// Replay `trace` through an **unbounded exact** PIFO (the sorted
/// reference) and return the rank of every pop — the ideal schedule the
/// paper's hardware would produce for this arrival/service pattern.
pub fn oracle_pop_ranks(trace: &[TraceOp]) -> Vec<Rank> {
    replay_backend(PifoBackend::SortedArray, None, trace)
}

/// Replay `trace` through a queue of `backend` (bounded to `capacity`
/// when given) and return the rank of every pop. Offered pushes the
/// queue refuses are dropped silently — exactly what a switch does with
/// a [`PifoFull`](crate::pifo::PifoFull) reject.
pub fn replay_backend(
    backend: PifoBackend,
    capacity: Option<usize>,
    trace: &[TraceOp],
) -> Vec<Rank> {
    replay_with_stats(backend, capacity, trace).0
}

/// Replay `trace` through a queue of `backend` with an
/// [`InversionTracker`] attached: every *admitted* push and every pop is
/// recorded, so the returned [`InversionStats`] are the queue-relative
/// inversion metrics for this schedule (all-zero for exact backends).
/// Also returns the pop-rank sequence, like [`replay_backend`].
pub fn replay_with_stats(
    backend: PifoBackend,
    capacity: Option<usize>,
    trace: &[TraceOp],
) -> (Vec<Rank>, InversionStats) {
    let mut q = match capacity {
        Some(cap) => backend.make_enum_bounded::<()>(cap),
        None => backend.make_enum::<()>(),
    };
    let mut tracker = InversionTracker::new();
    let mut pops = Vec::new();
    for op in trace {
        match op {
            TraceOp::Push(rank) => {
                if q.try_push(*rank, ()).is_ok() {
                    tracker.record_push(*rank);
                }
            }
            TraceOp::Pop => {
                if let Some((r, ())) = q.pop() {
                    tracker.record_pop(r);
                    pops.push(r);
                }
            }
        }
    }
    (pops, tracker.stats())
}

/// Positional diff of a backend's pop trace against the oracle's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OracleScore {
    /// Positions compared (min of the two trace lengths).
    pub compared: u64,
    /// Positions where the backend popped a different rank than the
    /// oracle.
    pub displaced: u64,
    /// Σ |backend rank − oracle rank| over compared positions.
    pub total_displacement: u128,
    /// Largest single |backend rank − oracle rank|.
    pub max_displacement: u64,
    /// Pops one trace has beyond the other (admission-gate drops make
    /// an approximate trace shorter than the oracle's).
    pub missing: u64,
}

impl OracleScore {
    /// True when the backend reproduced the oracle schedule exactly.
    pub fn is_exact(&self) -> bool {
        self.displaced == 0 && self.missing == 0
    }
}

/// Compare a backend's pop ranks against the oracle's, position by
/// position. Zero everywhere iff the backend reproduced the ideal
/// schedule (exact backends on a never-rejecting trace always do).
pub fn score_against_oracle(actual: &[Rank], oracle: &[Rank]) -> OracleScore {
    let compared = actual.len().min(oracle.len());
    let mut score = OracleScore {
        compared: compared as u64,
        missing: actual.len().abs_diff(oracle.len()) as u64,
        ..OracleScore::default()
    };
    for (a, o) in actual.iter().zip(oracle) {
        let d = a.value().abs_diff(o.value());
        if a != o {
            score.displaced += 1;
        }
        score.total_displacement += d as u128;
        score.max_displacement = score.max_displacement.max(d);
    }
    score
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_scores_drain_against_waiting_min() {
        // Drain order 1,5,3,5,0 with 0 waiting throughout: every pop
        // before the 0 overtakes it.
        let s = inversion_stats_of(&[Rank(1), Rank(5), Rank(3), Rank(5), Rank(0)]);
        assert_eq!(s.dequeues, 5);
        assert_eq!(s.inversions, 4, "only the final 0 pops exactly");
        assert_eq!(s.unpifoness, 1 + 5 + 3 + 5);
        assert_eq!(s.max_regression, 5);
        assert!((s.mean_displacement() - 2.8).abs() < 1e-9);
    }

    #[test]
    fn exact_backends_score_zero_even_under_churn() {
        // Interleaved push/pop: the pop trace is *not* globally sorted
        // (10 departs before the later-arriving 5), yet an exact PIFO
        // commits no inversion — nothing smaller was waiting.
        use TraceOp::{Pop, Push};
        let trace = [Push(Rank(10)), Pop, Push(Rank(5)), Pop];
        for backend in PifoBackend::EXACT {
            let (pops, stats) = replay_with_stats(backend, None, &trace);
            assert_eq!(pops, vec![Rank(10), Rank(5)]);
            assert_eq!(stats.dequeues, 2, "{backend}");
            assert_eq!(stats.inversions, 0, "{backend}");
            assert_eq!(stats.unpifoness, 0, "{backend}");
        }
        // A FIFO on the reverse interleaving *does* invert: 9 departs
        // while 1 waits.
        let trace = [Push(Rank(9)), Push(Rank(1)), Pop, Pop];
        let (_, stats) = replay_with_stats(PifoBackend::Rifo, None, &trace);
        assert_eq!(stats.inversions, 1);
        assert_eq!(stats.unpifoness, 8);
        assert_eq!(stats.max_regression, 8);
    }

    #[test]
    fn sorted_trace_scores_zero() {
        let s = inversion_stats_of(&[Rank(1), Rank(1), Rank(2), Rank(9)]);
        assert_eq!(
            s,
            InversionStats {
                dequeues: 4,
                ..InversionStats::default()
            }
        );
        assert_eq!(
            count_pairwise_inversions(&[Rank(1), Rank(1), Rank(2), Rank(9)]),
            0
        );
    }

    #[test]
    fn pairwise_matches_hand_count() {
        // 3>1, 3>2, 4>2 — and the equal pair (3,3) is not an inversion.
        let ranks = [Rank(3), Rank(1), Rank(3), Rank(4), Rank(2)];
        assert_eq!(count_pairwise_inversions(&ranks), 4);
    }

    #[test]
    fn merge_folds_counters() {
        let mut a = inversion_stats_of(&[Rank(5), Rank(1)]);
        let b = inversion_stats_of(&[Rank(9), Rank(0), Rank(10)]);
        a.merge(&b);
        assert_eq!(a.dequeues, 5);
        assert_eq!(a.inversions, 2);
        assert_eq!(a.unpifoness, 4 + 9);
        assert_eq!(a.max_regression, 9);
    }

    #[test]
    fn oracle_replay_sorts_within_occupancy() {
        use TraceOp::{Pop, Push};
        let trace = [
            Push(Rank(5)),
            Push(Rank(2)),
            Pop,
            Push(Rank(1)),
            Pop,
            Pop,
            Pop, // empty-queue pop is a no-op
        ];
        assert_eq!(oracle_pop_ranks(&trace), vec![Rank(2), Rank(1), Rank(5)]);
    }

    #[test]
    fn exact_backend_scores_exact_on_trace() {
        use TraceOp::{Pop, Push};
        let trace: Vec<TraceOp> = (0..50u64)
            .flat_map(|i| [Push(Rank(997 * i % 131)), Pop])
            .collect();
        let oracle = oracle_pop_ranks(&trace);
        for backend in PifoBackend::EXACT {
            let score = score_against_oracle(&replay_backend(backend, None, &trace), &oracle);
            assert!(score.is_exact(), "{backend} diverged from oracle");
        }
    }

    #[test]
    fn fifo_scores_nonzero_on_reversed_ranks() {
        use TraceOp::{Pop, Push};
        let mut trace: Vec<TraceOp> = (0..10u64).rev().map(|r| Push(Rank(r))).collect();
        trace.extend([Pop; 10]);
        let pops = replay_backend(PifoBackend::SpPifo { queues: 1 }, None, &trace);
        let score = score_against_oracle(&pops, &oracle_pop_ranks(&trace));
        assert_eq!(pops.len(), 10);
        assert!(score.displaced > 0);
        let s = inversion_stats_of(&pops);
        assert_eq!(s.inversions, 9, "strictly decreasing FIFO trace");
        assert_eq!(count_pairwise_inversions(&pops), 45);
    }
}
