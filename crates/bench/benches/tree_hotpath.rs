//! End-to-end scheduling-tree hot-path throughput: enqueue → (shape) →
//! dequeue for every packet, measured as whole-lifetime packets/second.
//!
//! Three tree shapes stress different parts of the walk:
//!
//! * `hpfq_fig3`   — the paper's Fig 3 HPFQ (2 levels, 4 flows): short
//!   walks, deep PIFOs.
//! * `wide_256`    — one WFQ root fanned out to 256 leaves: a root PIFO
//!   holding one reference per buffered packet.
//! * `shaped_tbf`  — Fig 3's shape with a token-bucket shaper on every
//!   leaf, driven over-rate so a shaping backlog builds up and the
//!   release path (agenda vs. scan) is on the measured path.
//!
//! Each scenario runs at several standing occupancies (fill → churn →
//! drain) on [`PifoBackend::default`], with a `sorted` reference row per
//! occupancy for `hpfq_fig3`; the results are printed and written to
//! `BENCH_tree.json` at the repo root (override with `BENCH_TREE_OUT`)
//! so CI can archive a perf trajectory. `--smoke` skips the
//! largest occupancy for fast CI runs.

use pifo_algos::{fig3_hpfq, Hierarchy, TokenBucketFilter};
use pifo_core::prelude::*;
use std::fmt::Write as _;
use std::time::Instant;

/// A scenario constructor: backend in, (tree, flow-count) out.
type BuildFn = fn(PifoBackend) -> (ScheduleTree, u32);

/// One measured configuration.
struct Measurement {
    scenario: &'static str,
    backend: PifoBackend,
    occupancy: usize,
    packets: u64,
    elapsed_ns: u128,
}

impl Measurement {
    fn pps(&self) -> f64 {
        self.packets as f64 / (self.elapsed_ns as f64 / 1e9)
    }
}

fn build(mut b: TreeBuilder, classifier: Classifier, backend: PifoBackend) -> ScheduleTree {
    b.with_backend(backend);
    b.build(classifier).expect("valid tree")
}

fn fig3(backend: PifoBackend) -> (ScheduleTree, u32) {
    let (b, classifier, _) = fig3_hpfq();
    (build(b, classifier, backend), 4)
}

fn wide_256(backend: PifoBackend) -> (ScheduleTree, u32) {
    const LEAVES: u32 = 256;
    let children = (0..LEAVES)
        .map(|l| {
            (
                1u64,
                Hierarchy::leaf(&format!("leaf{l}"), vec![(FlowId(l), 1)]),
            )
        })
        .collect();
    let (b, classifier, _) = Hierarchy::class("root", children).tree();
    (build(b, classifier, backend), LEAVES)
}

/// Fig 3's hierarchy with an 8 Gb/s one-packet-burst token bucket on each
/// leaf. Arrivals outpace the shapers (a 1000 B packet needs 1 µs of
/// tokens, arrivals come every 10 ns), so suspended references accumulate
/// and the release machinery carries real load.
fn shaped_tbf(backend: PifoBackend) -> (ScheduleTree, u32) {
    let (mut b, classifier, leaf_of) = fig3_hpfq();
    for flow in [FlowId(0), FlowId(2)] {
        b.set_shaper(
            leaf_of[&flow],
            Box::new(TokenBucketFilter::new(8_000_000_000, 1_000)),
        );
    }
    (build(b, classifier, backend), 4)
}

/// Fill to `occupancy`, churn `churn` enqueue+dequeue pairs at that
/// standing occupancy, then drain. Returns total packets pushed through
/// and the wall-clock time for the whole lifetime.
fn run_one(
    scenario: &'static str,
    backend: PifoBackend,
    build: BuildFn,
    occupancy: usize,
    churn: usize,
) -> Measurement {
    let (mut tree, nflows) = build(backend);
    let mut id = 0u64;
    let mut t = 0u64;
    // 10 ns between arrivals: over-rate for the shaped scenario,
    // irrelevant for the others.
    const GAP: u64 = 10;
    let start = Instant::now();
    for _ in 0..occupancy {
        tree.enqueue(
            Packet::new(id, FlowId((id % nflows as u64) as u32), 1_000, Nanos(t)),
            Nanos(t),
        )
        .expect("unbounded enqueue");
        id += 1;
        t += GAP;
    }
    for _ in 0..churn {
        tree.enqueue(
            Packet::new(id, FlowId((id % nflows as u64) as u32), 1_000, Nanos(t)),
            Nanos(t),
        )
        .expect("unbounded enqueue");
        id += 1;
        t += GAP;
        // May be None in the shaped scenario while the backlog is gated.
        let _ = tree.dequeue(Nanos(t));
    }
    // Drain fully, hopping to shaping releases when gated.
    let mut drained = 0u64;
    let mut now = Nanos(t);
    loop {
        match tree.dequeue(now) {
            Some(_) => drained += 1,
            None => match tree.next_shaping_event() {
                Some(next) => now = Nanos(next.as_nanos().max(now.as_nanos() + 1)),
                None => break,
            },
        }
    }
    let elapsed_ns = start.elapsed().as_nanos();
    assert!(
        tree.is_empty() && tree.shaped_len() == 0,
        "{scenario}/{backend}: tree must drain (left {} buffered, {} shaped)",
        tree.len(),
        tree.shaped_len()
    );
    assert!(drained > 0);
    Measurement {
        scenario,
        backend,
        occupancy,
        packets: id,
        elapsed_ns,
    }
}

fn main() {
    let smoke = pifo_bench::cli::smoke_flag();
    let occupancies: &[usize] = if smoke {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 60_000]
    };
    let default = PifoBackend::default();
    let sweeps: &[(&'static str, PifoBackend, BuildFn)] = &[
        // Every scenario on the engine users get without asking.
        ("hpfq_fig3", default, fig3),
        ("wide_256", default, wide_256),
        ("shaped_tbf", default, shaped_tbf),
        // The O(n) reference beside it on the headline scenario, so the
        // sorted array's collapse at depth stays on record next to the
        // engine that replaced it as the default.
        ("hpfq_fig3", PifoBackend::SortedArray, fig3),
    ];

    let mut results = Vec::new();
    let mut record = |r: Measurement| {
        println!(
            "tree_hotpath {:<12} backend={:<6} occ={:<6} {:>12.0} pkts/s",
            r.scenario,
            r.backend.label(),
            r.occupancy,
            r.pps()
        );
        results.push(r);
    };
    for &(name, backend, build) in sweeps {
        for &occ in occupancies {
            record(run_one(name, backend, build, occ, occ.min(10_000)));
        }
    }
    // The remaining exact engine at the headline occupancy.
    record(run_one(
        "hpfq_fig3",
        PifoBackend::Bucket,
        fig3,
        10_000,
        10_000,
    ));

    // Hand-rolled JSON (no serde in the offline workspace).
    let mut json = String::from("{\n  \"bench\": \"tree_hotpath\",\n");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    json.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"scenario\": \"{}\", \"backend\": \"{}\", \"occupancy\": {}, \
             \"packets\": {}, \"elapsed_ns\": {}, \"pkts_per_sec\": {:.0}}}",
            r.scenario,
            r.backend.label(),
            r.occupancy,
            r.packets,
            r.elapsed_ns,
            r.pps()
        );
        json.push_str(if i + 1 == results.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ]\n}\n");

    let out = std::env::var("BENCH_TREE_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_tree.json").to_string()
    });
    std::fs::write(&out, &json).expect("write BENCH_tree.json");
    println!("wrote {out}");
}
