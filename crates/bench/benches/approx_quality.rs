//! Quality-vs-throughput frontier of the approximate PIFO family.
//!
//! Every backend — the three exact engines and the approximate family
//! (`sp-pifo` at queue counts 1/2/4/8, `rifo`, `aifo`) — replays the
//! same bounded fill → churn → drain schedule at several standing
//! occupancies and under three traffic models:
//!
//! * `incast`  — 64 synchronized flows with heterogeneous weights,
//!   STFQ-style per-flow virtual-time ranks (the §5.1 fan-in pattern);
//! * `markov`  — 16 on/off flows emitting bursts, so rank order arrives
//!   in interleaved runs;
//! * `pareto`  — SRPT-style ranks drawn i.i.d. from a bounded Pareto
//!   (α = 1.2, 1 KB–200 KB): the heavy-tailed remaining-size
//!   distribution of flow-completion-time scheduling.
//!
//! For each cell the bench records **throughput** (packets/second
//! through the bare queue, no tracking attached) and **quality**: the
//! queue-relative inversion metrics from
//! [`replay_with_stats`](pifo_core::metrics::replay_with_stats) and the
//! positional diff against the unbounded sorted oracle. Three
//! contract-level facts are asserted, not just recorded:
//!
//! 1. exact backends commit **zero** inversions and zero unpifoness on
//!    every trace (bounded or not);
//! 2. SP-PIFO's unpifoness **strictly decreases** as its queue count
//!    grows on the stationary (`pareto`) workload, at every occupancy.
//!    The i.i.d. workload is where the SP-PIFO adaptation argument
//!    applies; under the *drifting* virtual-time ranks of `incast` /
//!    `markov`, arrival order already approximates rank order, so a
//!    plain FIFO (`sp-pifo:1`) is near-ideal and extra queues only
//!    shuffle — the bench records that honestly instead of asserting a
//!    monotonicity the theory does not promise there;
//! 3. in full mode, every approximate backend beats the sorted-array
//!    reference on packets/second at the deepest (60 K) occupancy.
//!
//! A final overhead leg runs the tree hot path with inversion tracking
//! off vs on, asserting the metrics layer is zero-cost when disabled
//! and cheap when enabled.
//!
//! Results go to `BENCH_approx.json` at the repo root (override with
//! `BENCH_APPROX_OUT`); `--smoke` drops the 60 K occupancy for CI.

use pifo_core::metrics::{
    replay_with_stats, score_against_oracle, InversionStats, OracleScore, TraceOp,
};
use pifo_core::prelude::*;
use pifo_core::transaction::FnTransaction;
use std::fmt::Write as _;
use std::time::Instant;

/// Deterministic 64-bit LCG (same multiplier as PCG's): benches must be
/// reproducible run to run, so no OS entropy.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// Uniform in `[0, 1)` with 31 bits of resolution.
    fn unit(&mut self) -> f64 {
        (self.next() & 0x7fff_ffff) as f64 / (1u64 << 31) as f64
    }
}

/// 64 synchronized flows, weight `1 + f % 8`, round-robin arrivals.
/// Rank = per-flow virtual time (count × weight): the classic fair-queue
/// incast where every flow's next rank interleaves with the others'.
fn incast_ranks(n: usize) -> Vec<u64> {
    const FLOWS: usize = 64;
    let mut counts = [0u64; FLOWS];
    (0..n)
        .map(|i| {
            let f = i % FLOWS;
            counts[f] += 1;
            counts[f] * (1 + f as u64 % 8)
        })
        .collect()
}

/// 16 on/off flows: a burst of 1–32 packets from one flow, then hop to
/// another. Each flow's virtual time advances by a random stride per
/// packet, so arrivals are runs of close ranks from interleaved bands.
fn markov_ranks(n: usize) -> Vec<u64> {
    const FLOWS: usize = 16;
    let mut rng = Lcg(0xC0FFEE);
    let mut vt = [0u64; FLOWS];
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let f = (rng.next() as usize) % FLOWS;
        let burst = 1 + (rng.next() as usize) % 32;
        for _ in 0..burst.min(n - out.len()) {
            vt[f] += 1 + rng.next() % 16;
            out.push(vt[f]);
        }
    }
    out
}

/// SRPT ranks: i.i.d. bounded Pareto(α = 1.2) remaining sizes in
/// [1 000, 200 000] bytes via inverse-CDF sampling.
fn pareto_ranks(n: usize) -> Vec<u64> {
    const ALPHA: f64 = 1.2;
    const LO: f64 = 1_000.0;
    const HI: f64 = 200_000.0;
    let mut rng = Lcg(0xBEEF);
    let ratio = (LO / HI).powf(ALPHA);
    (0..n)
        .map(|_| {
            let u = rng.unit();
            (LO / (1.0 - u * (1.0 - ratio)).powf(1.0 / ALPHA)) as u64
        })
        .collect()
}

/// Fill to `occ`, churn `churn` pop-then-push pairs at standing
/// occupancy, then drain. Exact backends never reject on this schedule
/// (the queue is popped before each churn push), so their pop trace is
/// directly comparable to the unbounded oracle's; approximate admission
/// gates may refuse churn pushes — that loss shows up as
/// `oracle.missing`.
fn build_trace(ranks: &[u64], occ: usize, churn: usize) -> Vec<TraceOp> {
    assert!(ranks.len() >= occ + churn);
    let mut trace = Vec::with_capacity(occ + 2 * churn + occ);
    for &r in &ranks[..occ] {
        trace.push(TraceOp::Push(Rank(r)));
    }
    for &r in &ranks[occ..occ + churn] {
        trace.push(TraceOp::Pop);
        trace.push(TraceOp::Push(Rank(r)));
    }
    trace.extend((0..occ).map(|_| TraceOp::Pop));
    trace
}

struct Cell {
    backend: PifoBackend,
    traffic: &'static str,
    occupancy: usize,
    packets: u64,
    elapsed_ns: u128,
    stats: InversionStats,
    oracle: OracleScore,
}

impl Cell {
    fn pps(&self) -> f64 {
        self.packets as f64 / (self.elapsed_ns as f64 / 1e9)
    }
}

/// Timed replay on the bare enum-dispatched queue — the same hot path a
/// switch port drives, no tracker attached.
fn timed_replay(backend: PifoBackend, occ: usize, trace: &[TraceOp]) -> (u64, u128) {
    let mut q = backend.make_enum_bounded::<()>(occ);
    let mut pops = 0u64;
    let start = Instant::now();
    for op in trace {
        match op {
            TraceOp::Push(rank) => {
                let _ = q.try_push(*rank, ());
            }
            TraceOp::Pop => {
                if q.pop().is_some() {
                    pops += 1;
                }
            }
        }
    }
    (pops, start.elapsed().as_nanos())
}

fn run_cell(
    backend: PifoBackend,
    traffic: &'static str,
    occ: usize,
    trace: &[TraceOp],
    oracle_pops: &[Rank],
) -> Cell {
    let (packets, elapsed_ns) = timed_replay(backend, occ, trace);
    let (pops, stats) = replay_with_stats(backend, Some(occ), trace);
    let oracle = score_against_oracle(&pops, oracle_pops);
    if backend.is_exact() {
        assert_eq!(
            stats.inversions, 0,
            "{backend}/{traffic}@{occ}: exact backend committed inversions"
        );
        assert_eq!(
            stats.unpifoness, 0,
            "{backend}/{traffic}@{occ}: exact backend accumulated unpifoness"
        );
        assert!(
            oracle.is_exact(),
            "{backend}/{traffic}@{occ}: exact backend diverged from oracle: {oracle:?}"
        );
    }
    Cell {
        backend,
        traffic,
        occupancy: occ,
        packets,
        elapsed_ns,
        stats,
        oracle,
    }
}

/// A single-node priority tree at standing occupancy — the metrics
/// overhead probe. Returns packets/second of the enqueue+dequeue churn
/// loop with inversion tracking `enabled` or not.
fn tree_churn_pps(tracking: bool, occ: usize, churn: usize) -> f64 {
    let mut b = TreeBuilder::new();
    b.with_backend(PifoBackend::SortedArray)
        .track_inversions(tracking);
    let root = b.add_root(
        "prio",
        Box::new(FnTransaction::new("prio", |ctx: &EnqCtx| {
            Rank(ctx.packet.class as u64)
        })),
    );
    let mut tree = b.build(Box::new(move |_| root)).expect("single-node tree");
    let mut id = 0u64;
    let push = |tree: &mut ScheduleTree, id: &mut u64| {
        let class = (Lcg(*id ^ 0x5DEECE66D).next() % 200) as u8;
        tree.enqueue(
            Packet::new(*id, FlowId(0), 1_000, Nanos(0)).with_class(class),
            Nanos(0),
        )
        .expect("unbounded enqueue");
        *id += 1;
    };
    for _ in 0..occ {
        push(&mut tree, &mut id);
    }
    let start = Instant::now();
    for _ in 0..churn {
        let _ = tree.dequeue(Nanos(1));
        push(&mut tree, &mut id);
    }
    let elapsed = start.elapsed().as_nanos();
    while tree.dequeue(Nanos(1)).is_some() {}
    if tracking {
        let stats = tree.inversion_stats().expect("tracking enabled");
        assert_eq!(stats.inversions, 0, "sorted root must stay exact");
    }
    churn as f64 / (elapsed as f64 / 1e9)
}

fn main() {
    let smoke = pifo_bench::cli::smoke_flag();
    let occupancies: &[usize] = if smoke {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 60_000]
    };
    const SP_PIFO_KS: [u8; 4] = [1, 2, 4, 8];
    let backends: Vec<PifoBackend> = PifoBackend::EXACT
        .into_iter()
        .chain(SP_PIFO_KS.map(|queues| PifoBackend::SpPifo { queues }))
        .chain([PifoBackend::Rifo, PifoBackend::Aifo])
        .collect();
    type RankGen = fn(usize) -> Vec<u64>;
    let traffics: [(&'static str, RankGen); 3] = [
        ("incast", incast_ranks),
        ("markov", markov_ranks),
        ("pareto", pareto_ranks),
    ];

    let mut cells = Vec::new();
    for &occ in occupancies {
        // Churn at least matches the occupancy (with a floor for small
        // queues): the steady-state phase has to dominate the one-off
        // drain, or drain noise swamps the adaptation signal the
        // k-sweep acceptance gate measures.
        let churn = occ.max(10_000);
        for (traffic, gen) in traffics {
            let ranks = gen(occ + churn);
            let trace = build_trace(&ranks, occ, churn);
            let oracle_pops = pifo_core::metrics::oracle_pop_ranks(&trace);
            for &backend in &backends {
                let cell = run_cell(backend, traffic, occ, &trace, &oracle_pops);
                println!(
                    "approx_quality {traffic:<7} backend={:<9} occ={occ:<6} {:>12.0} pkts/s  \
                     inversions={:<8} unpifoness={:<12} oracle_missing={}",
                    cell.backend.to_string(),
                    cell.pps(),
                    cell.stats.inversions,
                    cell.stats.unpifoness,
                    cell.oracle.missing,
                );
                cells.push(cell);
            }
        }
    }

    // Acceptance: SP-PIFO gets strictly better (lower unpifoness) as its
    // queue count grows on the stationary workload, at every measured
    // occupancy (see the module docs for why the drifting-rank workloads
    // are recorded but not gated).
    for &occ in occupancies {
        let unpifoness_at = |k: u8, traffic: &str| {
            cells
                .iter()
                .filter(|c| {
                    c.occupancy == occ
                        && c.traffic == traffic
                        && c.backend == PifoBackend::SpPifo { queues: k }
                })
                .map(|c| c.stats.unpifoness)
                .sum::<u128>()
        };
        for (traffic, _) in traffics {
            let sweep: Vec<u128> = SP_PIFO_KS
                .iter()
                .map(|&k| unpifoness_at(k, traffic))
                .collect();
            println!("approx_quality sp-pifo unpifoness sweep {traffic} @ {occ}: {sweep:?}");
            if traffic == "pareto" {
                for w in sweep.windows(2) {
                    assert!(
                        w[0] > w[1],
                        "sp-pifo unpifoness must strictly decrease with queue count \
                         on {traffic} at occ {occ}: {sweep:?}"
                    );
                }
            }
        }
    }

    // Acceptance (full mode): every approximate backend out-runs the
    // sorted-array reference at the deepest occupancy, where the O(n)
    // insert cost dominates.
    if let Some(&deep) = occupancies.iter().find(|&&o| o == 60_000) {
        for (traffic, _) in traffics {
            let pps = |backend: PifoBackend| {
                cells
                    .iter()
                    .find(|c| c.occupancy == deep && c.traffic == traffic && c.backend == backend)
                    .expect("cell measured")
                    .pps()
            };
            let sorted = pps(PifoBackend::SortedArray);
            for approx in PifoBackend::APPROX {
                assert!(
                    pps(approx) > sorted,
                    "{approx}/{traffic}@{deep}: approximate backend ({:.0} pkts/s) \
                     must beat sorted ({sorted:.0} pkts/s)",
                    pps(approx)
                );
            }
        }
    }

    // Overhead leg: the tracking hook must cost nothing when disabled
    // and stay cheap when enabled (sorted root: BTreeMap bookkeeping
    // only, no inversions to score).
    let (ovh_occ, ovh_churn) = (10_000, 50_000);
    let pps_off = tree_churn_pps(false, ovh_occ, ovh_churn);
    let pps_on = tree_churn_pps(true, ovh_occ, ovh_churn);
    println!(
        "approx_quality overhead sorted@{ovh_occ}: tracking off {pps_off:.0} pkts/s, \
         on {pps_on:.0} pkts/s ({:.2}x)",
        pps_off / pps_on
    );
    assert!(
        pps_on >= 0.25 * pps_off,
        "enabled tracking must stay within 4x of untracked ({pps_on:.0} vs {pps_off:.0})"
    );
    assert!(
        pps_off >= 0.5 * pps_on,
        "disabled tracking must not be slower than enabled ({pps_off:.0} vs {pps_on:.0})"
    );

    // Hand-rolled JSON (no serde in the offline workspace).
    let mut json = String::from("{\n  \"bench\": \"approx_quality\",\n");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(
        json,
        "  \"overhead\": {{\"scenario\": \"sorted_tree_churn\", \"occupancy\": {ovh_occ}, \
         \"tracking_off_pps\": {pps_off:.0}, \"tracking_on_pps\": {pps_on:.0}}},"
    );
    json.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"backend\": \"{}\", \"traffic\": \"{}\", \"occupancy\": {}, \
             \"packets\": {}, \"elapsed_ns\": {}, \"pkts_per_sec\": {:.0}, \
             \"dequeues\": {}, \"inversions\": {}, \"unpifoness\": {}, \
             \"max_regression\": {}, \"mean_displacement\": {:.3}, \
             \"oracle_displaced\": {}, \"oracle_total_displacement\": {}, \
             \"oracle_missing\": {}}}",
            c.backend,
            c.traffic,
            c.occupancy,
            c.packets,
            c.elapsed_ns,
            c.pps(),
            c.stats.dequeues,
            c.stats.inversions,
            c.stats.unpifoness,
            c.stats.max_regression,
            c.stats.mean_displacement(),
            c.oracle.displaced,
            c.oracle.total_displacement,
            c.oracle.missing,
        );
        json.push_str(if i + 1 == cells.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ]\n}\n");

    let out = std::env::var("BENCH_APPROX_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_approx.json").to_string()
    });
    std::fs::write(&out, &json).expect("write BENCH_approx.json");
    println!("wrote {out}");
}
