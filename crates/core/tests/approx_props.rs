//! Property tests for the approximate backend family and the
//! rank-inversion metrics subsystem.
//!
//! The exact trio's cross-backend identity lives in `proptests.rs`;
//! this file pins what the *approximate* engines still guarantee
//! (capacity accounting, `PifoFull` round-trips, FIFO-within-rank where
//! applicable) and that the
//! metrics layer itself is trustworthy (the O(n log n) inversion count
//! against an O(n²) brute force, the streaming tracker against a
//! recomputed oracle, and exact backends scoring zero on arbitrary
//! traces).

use pifo_core::metrics::{
    count_pairwise_inversions, inversion_stats_of, oracle_pop_ranks, replay_backend,
    replay_with_stats, score_against_oracle, TraceOp,
};
use pifo_core::prelude::*;
use pifo_core::transaction::FnTransaction;
use proptest::prelude::*;

/// An abstract operation on a PIFO.
#[derive(Debug, Clone)]
enum Op {
    Push(u64, u32),
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (any::<u64>(), any::<u32>()).prop_map(|(r, v)| Op::Push(r, v)),
        2 => Just(Op::Pop),
    ]
}

/// Every selector variant, including non-default SP-PIFO queue counts.
fn backend_strategy() -> impl Strategy<Value = PifoBackend> {
    prop_oneof![
        Just(PifoBackend::SortedArray),
        Just(PifoBackend::Heap),
        Just(PifoBackend::Bucket),
        (1u8..=255).prop_map(|queues| PifoBackend::SpPifo { queues }),
        Just(PifoBackend::Rifo),
        Just(PifoBackend::Aifo),
    ]
}

/// The approximate family only, with SP-PIFO queue counts worth sweeping.
fn approx_backend_strategy() -> impl Strategy<Value = PifoBackend> {
    prop_oneof![
        (1u8..=16).prop_map(|queues| PifoBackend::SpPifo { queues }),
        Just(PifoBackend::Rifo),
        Just(PifoBackend::Aifo),
    ]
}

fn trace_strategy() -> impl Strategy<Value = Vec<TraceOp>> {
    proptest::collection::vec(
        prop_oneof![
            3 => (0u64..1000).prop_map(|r| TraceOp::Push(Rank(r))),
            2 => Just(TraceOp::Pop),
        ],
        0..300,
    )
}

proptest! {
    /// Display/FromStr round-trip losslessly over every variant —
    /// including parameterised `sp-pifo:k` for arbitrary k — and the
    /// family label parses back to the same family.
    #[test]
    fn backend_display_from_str_round_trip(backend in backend_strategy()) {
        let shown = backend.to_string();
        prop_assert_eq!(shown.parse::<PifoBackend>().unwrap(), backend);
        let relabeled = backend.label().parse::<PifoBackend>().unwrap();
        prop_assert_eq!(relabeled.label(), backend.label());
        // Parsing is case-insensitive like the exact trio's names.
        prop_assert_eq!(shown.to_ascii_uppercase().parse::<PifoBackend>().unwrap(), backend);
    }

    /// Unknown backend names fail to parse, and the error names every
    /// valid family so a CLI user can self-correct.
    #[test]
    fn unknown_backend_error_lists_all_names(
        letters in proptest::collection::vec(0u8..26, 1..12),
    ) {
        let name: String = letters.iter().map(|b| (b'a' + b) as char).collect();
        // Skip the rare draw that lands on a real backend name.
        if let Err(err) = name.parse::<PifoBackend>() {
            for family in ["sorted", "heap", "bucket", "sp-pifo", "rifo", "aifo"] {
                prop_assert!(err.contains(family), "error must list '{}': {}", family, err);
            }
        }
    }

    /// The parts of the PifoQueue contract the approximate engines keep:
    /// len accounting (pushes minus successful pops), the capacity bound
    /// never exceeded, `PifoFull` round-tripping rank/item/capacity
    /// field-for-field, peek agreeing with the next pop, and the
    /// inspection view matching the drain order.
    #[test]
    fn approx_contract_holds(
        backend in approx_backend_strategy(),
        cap in 1usize..24,
        ops in proptest::collection::vec(op_strategy(), 0..200),
    ) {
        let mut q = backend.make_enum_bounded::<u32>(cap);
        prop_assert_eq!(q.capacity(), Some(cap));
        let mut expected_len = 0usize;
        for op in &ops {
            match op {
                Op::Push(r, v) => {
                    match q.try_push(Rank(*r), *v) {
                        Ok(()) => expected_len += 1,
                        Err(full) => {
                            prop_assert_eq!(full.rank, Rank(*r), "{} reject rank", backend);
                            prop_assert_eq!(full.item, *v, "{} reject item", backend);
                            prop_assert_eq!(full.capacity, cap, "{} reject capacity", backend);
                        }
                    }
                }
                Op::Pop => {
                    let peeked = q.peek().map(|(r, v)| (r, *v));
                    let popped = q.pop();
                    prop_assert_eq!(popped, peeked, "{} peek/pop disagree", backend);
                    if popped.is_some() {
                        expected_len -= 1;
                    }
                }
            }
            prop_assert_eq!(q.len(), expected_len, "{} len accounting", backend);
            prop_assert!(q.len() <= cap, "{} capacity exceeded", backend);
            prop_assert_eq!(q.is_empty(), expected_len == 0, "{}", backend);
        }
        let viewed: Vec<(Rank, u32)> = q.iter_in_order().map(|(r, v)| (r, *v)).collect();
        let drained: Vec<(Rank, u32)> = std::iter::from_fn(|| q.pop()).collect();
        prop_assert_eq!(viewed, drained, "{} inspection vs drain order", backend);
    }

    /// FIFO-within-rank where it applies: Rifo and Aifo are FIFOs, and
    /// SP-PIFO with one queue degenerates to a FIFO, so elements sharing
    /// a rank pop in push order. (SP-PIFO with k > 1 may legally invert
    /// equal ranks across queues — see the approx module docs.)
    #[test]
    fn fifo_within_rank_where_applicable(
        ranks in proptest::collection::vec(0u64..8, 0..150),
    ) {
        for backend in [
            PifoBackend::Rifo,
            PifoBackend::Aifo,
            PifoBackend::SpPifo { queues: 1 },
        ] {
            let mut q = backend.make_enum::<usize>();
            for (i, &r) in ranks.iter().enumerate() {
                q.push(Rank(r), i);
            }
            let mut last_by_rank = std::collections::HashMap::new();
            while let Some((r, i)) = q.pop() {
                if let Some(&prev) = last_by_rank.get(&r) {
                    prop_assert!(i > prev, "[{}] equal ranks must pop FIFO", backend);
                }
                last_by_rank.insert(r, i);
            }
        }
    }

    /// The O(n log n) merge-sort inversion count equals the O(n²) brute
    /// force on arbitrary rank sequences — and so does a brute-force
    /// recomputation of the streaming tracker's running-max metrics.
    #[test]
    fn fast_inversion_count_matches_brute_force(
        ranks in proptest::collection::vec(any::<u64>(), 0..200),
    ) {
        let ranks: Vec<Rank> = ranks.into_iter().map(Rank).collect();
        // Pairwise count: every (i < j, ranks[i] > ranks[j]) pair.
        let mut brute_pairs = 0u64;
        for i in 0..ranks.len() {
            for j in i + 1..ranks.len() {
                if ranks[i] > ranks[j] {
                    brute_pairs += 1;
                }
            }
        }
        prop_assert_eq!(count_pairwise_inversions(&ranks), brute_pairs);

        // Drain-trace metrics: at pop i everything not yet popped is
        // still waiting, so recompute each shortfall against the suffix
        // minimum, the quadratic way.
        let mut brute = pifo_core::metrics::InversionStats::default();
        for (i, r) in ranks.iter().enumerate() {
            brute.dequeues += 1;
            let min = ranks[i..].iter().map(|x| x.value()).min().unwrap();
            if r.value() > min {
                let shortfall = r.value() - min;
                brute.inversions += 1;
                brute.unpifoness += shortfall as u128;
                brute.max_regression = brute.max_regression.max(shortfall);
            }
        }
        prop_assert_eq!(inversion_stats_of(&ranks), brute);
    }

    /// Exact backends score zero on random traces — even interleaved
    /// push/pop churn: no inversions, zero unpifoness, and a perfect
    /// positional match against the sorted oracle replaying the same
    /// schedule. Holds bounded and unbounded.
    #[test]
    fn exact_backends_score_zero(trace in trace_strategy(), cap in 1usize..40) {
        let oracle = oracle_pop_ranks(&trace);
        for backend in PifoBackend::EXACT {
            let (pops, stats) = replay_with_stats(backend, None, &trace);
            prop_assert_eq!(stats.dequeues as usize, pops.len(), "{}", backend);
            prop_assert_eq!(stats.inversions, 0, "{} must not invert", backend);
            prop_assert_eq!(stats.unpifoness, 0, "{} must have zero unpifoness", backend);
            prop_assert_eq!(stats.max_regression, 0, "{}", backend);
            let score = score_against_oracle(&pops, &oracle);
            prop_assert!(score.is_exact(), "{} diverged from oracle: {:?}", backend, score);
            prop_assert_eq!(&pops, &oracle, "{} pop trace != oracle", backend);
            // Bounded exact queues reject at the tail but stay exact on
            // what they admit.
            let (_, bounded_stats) = replay_with_stats(backend, Some(cap), &trace);
            prop_assert_eq!(bounded_stats.inversions, 0, "{} bounded", backend);
            prop_assert_eq!(bounded_stats.unpifoness, 0, "{} bounded", backend);
        }
    }

    /// The oracle diff is sound for approximate backends too: the score
    /// against the oracle is zero exactly when the traces match, and
    /// unbounded single-FIFO backends pop in arrival order.
    #[test]
    fn approx_replay_is_coherent(trace in trace_strategy()) {
        let oracle = oracle_pop_ranks(&trace);
        for backend in PifoBackend::APPROX {
            let pops = replay_backend(backend, None, &trace);
            // Unbounded approx queues admit everything, so pop counts
            // match the oracle's exactly.
            prop_assert_eq!(pops.len(), oracle.len(), "{} pop count", backend);
            let score = score_against_oracle(&pops, &oracle);
            prop_assert_eq!(score.missing, 0, "{}", backend);
            prop_assert_eq!(score.is_exact(), pops == oracle, "{}", backend);
        }
        // An unbounded Rifo/Aifo is a FIFO: its pop trace is the arrival
        // order restricted to the pops the schedule performs.
        let mut fifo_model: std::collections::VecDeque<Rank> = Default::default();
        let mut fifo_pops = Vec::new();
        for op in &trace {
            match op {
                TraceOp::Push(r) => fifo_model.push_back(*r),
                TraceOp::Pop => {
                    if let Some(r) = fifo_model.pop_front() {
                        fifo_pops.push(r);
                    }
                }
            }
        }
        prop_assert_eq!(&replay_backend(PifoBackend::Rifo, None, &trace), &fifo_pops);
        prop_assert_eq!(&replay_backend(PifoBackend::Aifo, None, &trace), &fifo_pops);
    }

    /// SP-PIFO's adaptation never breaks conservation, and its pop trace
    /// contains exactly the multiset of pushed ranks.
    #[test]
    fn sp_pifo_conserves_elements(
        queues in 1u8..=12,
        ranks in proptest::collection::vec(any::<u64>(), 0..200),
    ) {
        let mut q = PifoBackend::SpPifo { queues }.make_enum::<usize>();
        for (i, &r) in ranks.iter().enumerate() {
            q.push(Rank(r), i);
        }
        prop_assert_eq!(q.len(), ranks.len());
        let mut popped: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(r, _)| r.value()).collect();
        let mut pushed: Vec<u64> = ranks.clone();
        popped.sort_unstable();
        pushed.sort_unstable();
        prop_assert_eq!(popped, pushed, "rank multiset conserved");
    }
}

/// The tree-level tracker sees exactly the root ranks the departure
/// schedule is made of, and zero for exact backends.
#[test]
fn tree_tracker_matches_offline_scoring() {
    let build = |backend: PifoBackend| {
        let mut b = TreeBuilder::new();
        b.with_backend(backend).track_inversions(true);
        let root = b.add_root(
            "prio",
            Box::new(FnTransaction::new("prio", |ctx: &EnqCtx| {
                Rank(ctx.packet.class as u64)
            })),
        );
        b.build(Box::new(move |_| root)).unwrap()
    };
    // Zig-zag classes so approximate backends actually invert.
    let classes: Vec<u8> = (0..120u64).map(|i| ((i * 67) % 100) as u8).collect();
    for backend in PifoBackend::ALL {
        let mut tree = build(backend);
        for (i, &c) in classes.iter().enumerate() {
            let p = Packet::new(i as u64, FlowId(0), 100, Nanos(0)).with_class(c);
            tree.enqueue(p, Nanos(0)).unwrap();
        }
        let mut pops = Vec::new();
        while let Some(p) = tree.dequeue(Nanos(1)) {
            pops.push(Rank(p.class as u64));
        }
        assert_eq!(pops.len(), classes.len(), "{backend} drained all");

        let offline = inversion_stats_of(&pops);
        let tracked = tree.inversion_stats().expect("tracking enabled");
        assert_eq!(tracked, offline, "{backend} tracker vs offline recompute");
        if backend.is_exact() {
            assert_eq!(tracked.inversions, 0, "{backend} exact ⇒ zero inversions");
            assert_eq!(tracked.unpifoness, 0, "{backend}");
        }
    }
    // The zig-zag load makes every approximate backend measurably inexact.
    for backend in PifoBackend::APPROX {
        let mut tree = build(backend);
        for (i, &c) in classes.iter().enumerate() {
            tree.enqueue(
                Packet::new(i as u64, FlowId(0), 100, Nanos(0)).with_class(c),
                Nanos(0),
            )
            .unwrap();
        }
        while tree.dequeue(Nanos(1)).is_some() {}
        let stats = tree.inversion_stats().expect("tracking enabled");
        assert!(
            stats.inversions > 0,
            "{backend} should invert under zig-zag"
        );
    }
}

/// `reset_inversion_stats` zeroes counters and the running maximum;
/// `enable_inversion_tracking` is idempotent.
#[test]
fn tracker_reset_and_idempotent_enable() {
    let mut b = TreeBuilder::new();
    b.with_backend(PifoBackend::Rifo);
    let root = b.add_root(
        "prio",
        Box::new(FnTransaction::new("prio", |ctx: &EnqCtx| {
            Rank(ctx.packet.class as u64)
        })),
    );
    let mut tree = b.build(Box::new(move |_| root)).unwrap();
    assert_eq!(tree.inversion_stats(), None, "off by default");
    tree.enable_inversion_tracking();
    for (i, c) in [9u8, 1, 9, 1].into_iter().enumerate() {
        tree.enqueue(
            Packet::new(i as u64, FlowId(0), 100, Nanos(0)).with_class(c),
            Nanos(0),
        )
        .unwrap();
    }
    tree.enable_inversion_tracking(); // must not clobber the live tracker
    while tree.dequeue(Nanos(1)).is_some() {}
    let stats = tree.inversion_stats().expect("enabled");
    assert_eq!(stats.dequeues, 4);
    assert!(stats.inversions > 0, "FIFO under 9,1,9,1 inverts");
    tree.reset_inversion_stats();
    let zeroed = tree.inversion_stats().expect("still enabled");
    assert_eq!(zeroed, pifo_core::metrics::InversionStats::default());
}
