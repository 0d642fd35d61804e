//! The §5.2 correctness claim, as property tests: under the documented
//! precondition — **ranks within a flow increase monotonically** — the
//! flow-scheduler + rank-store block dequeues *exactly* like a reference
//! PIFO over the same stream, while only ever sorting per-flow heads.
//!
//! One caveat the paper leaves implicit (documented in
//! `block::tests::cross_flow_tie_break_deviation`): when two *different*
//! flows carry elements of *equal* rank, the block breaks the tie by
//! flow-scheduler insertion order, which after a reinsert differs from
//! global enqueue order. Exact equivalence therefore holds for rank
//! streams without cross-flow ties; these tests construct ranks that are
//! globally unique (`rank = base * N_FLOWS + flow`), preserving per-flow
//! monotonicity.

use pifo_core::prelude::*;
use pifo_hw::{BlockConfig, LogicalPifoId, PifoBlock};
use proptest::prelude::*;

/// An abstract op stream where pushes carry per-flow rank *increments*,
/// guaranteeing monotonicity by construction.
#[derive(Debug, Clone)]
enum Op {
    /// (flow, rank_increment)
    Push(u32, u64),
    Pop,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            3 => (0u32..6, 0u64..50).prop_map(|(f, d)| Op::Push(f, d)),
            2 => Just(Op::Pop),
        ],
        0..300,
    )
}

proptest! {
    /// Block dequeue order == reference PIFO dequeue order, element by
    /// element, under monotone per-flow ranks — against every *exact*
    /// software backend, so the hw model is checked to be equivalent to
    /// the whole exact family, not just the sorted array. (The
    /// approximate software backends intentionally diverge from the
    /// hardware's exact schedule.)
    #[test]
    fn block_equals_reference_pifo(ops in ops()) {
        for backend in PifoBackend::EXACT {
            let cfg = BlockConfig {
                n_flows: 8,
                n_logical_pifos: 2,
                rank_store_capacity: 1024,
                ..BlockConfig::default()
            };
            let mut block = PifoBlock::new(cfg).strict_monotonic(true);
            let mut reference = backend.make_enum::<(u32, u64)>();
            let l = LogicalPifoId(0);
            let mut next_rank = [0u64; 6];
            let mut meta = 0u64;

            for op in &ops {
                match op {
                    Op::Push(f, d) => {
                        next_rank[*f as usize] += d + 1;
                        // Globally unique, per-flow monotone (see module doc).
                        let r = Rank(next_rank[*f as usize] * 8 + *f as u64);
                        block.enqueue(l, FlowId(*f), r, meta).unwrap();
                        reference.push(r, (*f, meta));
                        meta += 1;
                    }
                    Op::Pop => {
                        let got = block.dequeue(l);
                        let want = reference.pop();
                        match (got, want) {
                            (None, None) => {}
                            (Some((gr, gf, gm)), Some((wr, (wf, wm)))) => {
                                prop_assert_eq!(gr, wr, "[{}] rank order must match", backend);
                                prop_assert_eq!(gf.0, wf, "[{}] flow must match", backend);
                                prop_assert_eq!(gm, wm, "[{}] FIFO tie-break must match", backend);
                            }
                            (g, w) => prop_assert!(false, "[{backend}] divergence: block={g:?} ref={w:?}"),
                        }
                    }
                }
                prop_assert_eq!(block.len(l), reference.len());
            }
            // Drain both to the end.
            loop {
                let got = block.dequeue(l);
                let want = reference.pop();
                prop_assert_eq!(got.is_some(), want.is_some());
                if got.is_none() { break; }
                let (gr, _, gm) = got.unwrap();
                let (wr, (_, wm)) = want.unwrap();
                prop_assert_eq!(gr, wr);
                prop_assert_eq!(gm, wm);
            }
        }
    }

    /// The scaling claim behind Fig 12: the flow scheduler never holds
    /// more entries than there are active flows, no matter how deep the
    /// per-flow backlogs get (sorting 1K flows instead of 60K packets).
    #[test]
    fn flow_scheduler_bounded_by_flow_count(
        pushes in proptest::collection::vec((0u32..4, 1u64..10), 1..200)
    ) {
        let cfg = BlockConfig {
            n_flows: 8,
            n_logical_pifos: 2,
            rank_store_capacity: 1024,
            ..BlockConfig::default()
        };
        let mut block = PifoBlock::new(cfg).strict_monotonic(true);
        let l = LogicalPifoId(0);
        let mut next_rank = [0u64; 4];
        for (i, (f, d)) in pushes.iter().enumerate() {
            next_rank[*f as usize] += d;
            block
                .enqueue(l, FlowId(*f), Rank(next_rank[*f as usize]), i as u64)
                .unwrap();
            prop_assert!(block.active_flows() <= 4, "heads only");
        }
    }

    /// Two logical PIFOs sharing one block stay order-isolated: the
    /// dequeue sequence of each lpifo equals what a dedicated PIFO would
    /// have produced — with the two dedicated references deliberately on
    /// *different* backends to cross-check the whole family at once.
    #[test]
    fn logical_pifos_share_block_without_interference(
        pushes in proptest::collection::vec((0u32..4, 0u16..2, 1u64..20), 1..200)
    ) {
        let cfg = BlockConfig {
            n_flows: 8,
            n_logical_pifos: 2,
            rank_store_capacity: 1024,
            ..BlockConfig::default()
        };
        let mut block = PifoBlock::new(cfg).strict_monotonic(true);
        let mut refs: Vec<EnumPifo<u64>> = vec![
            PifoBackend::Heap.make_enum(),
            PifoBackend::Bucket.make_enum(),
        ];
        // Per-(lpifo, flow) monotone, globally unique ranks.
        let mut next_rank = [[0u64; 4]; 2];
        for (i, (f, l, d)) in pushes.iter().enumerate() {
            next_rank[*l as usize][*f as usize] += d;
            let r = Rank(next_rank[*l as usize][*f as usize] * 8 + (*l as u64) * 4 + *f as u64);
            block
                .enqueue(LogicalPifoId(*l), FlowId(*f), r, i as u64)
                .unwrap();
            refs[*l as usize].push(r, i as u64);
        }
        for l in 0..2u16 {
            loop {
                let got = block.dequeue(LogicalPifoId(l));
                let want = refs[l as usize].pop();
                prop_assert_eq!(got.is_some(), want.is_some());
                match (got, want) {
                    (Some((gr, _, gm)), Some((wr, wm))) => {
                        prop_assert_eq!(gr, wr);
                        prop_assert_eq!(gm, wm);
                    }
                    _ => break,
                }
            }
        }
    }
}
