//! F1 / F3 / F4 / F8: fairness and rate-control experiments.
//!
//! These regenerate the behavioural claims of Figures 1, 3, 4 and 8 on a
//! simulated 10 Gbit/s output port with deterministic CBR workloads.

use pifo_algos::{
    fig3_hpfq, min_rate_tree, MinRateGuarantee, Stfq, TokenBucketFilter, WeightTable,
};
use pifo_core::prelude::*;
use pifo_sim::{
    run_port, throughput, CbrSource, Departure, DrrSched, FifoSched, FluidGps, PortConfig,
    TrafficSource, TreeScheduler,
};
use std::fmt::Write as _;

const GBIT10: u64 = 10_000_000_000;
const PKT: u32 = 1_500;

/// Backlogged CBR arrivals for `flows`, each offered at `offered_bps`,
/// over `[0, end)`.
fn cbr_arrivals(flows: &[u32], offered_bps: u64, end: Nanos) -> Vec<Packet> {
    let mut sources: Vec<Box<dyn TrafficSource>> = Vec::new();
    for &f in flows {
        sources.push(Box::new(CbrSource::new(
            FlowId(f),
            PKT,
            offered_bps,
            Nanos::ZERO,
            end,
        )));
    }
    let mut pkts = pifo_sim::merge(sources);
    pifo_sim::renumber(&mut pkts);
    pkts
}

fn stfq_tree_with(backend: PifoBackend, weights: WeightTable, limit: usize) -> ScheduleTree {
    let mut b = TreeBuilder::new();
    b.with_backend(backend);
    // Tracking is only wired up where it can be non-zero: an exact
    // root pops in rank order by contract.
    b.track_inversions(!backend.is_exact());
    let root = b.add_root("WFQ", Box::new(Stfq::new(weights)));
    b.buffer_limit(limit);
    b.build(Box::new(move |_| root)).expect("valid tree")
}

fn single_stfq_tree(weights: WeightTable, limit: usize) -> ScheduleTree {
    stfq_tree_with(super::backend(), weights, limit)
}

fn rate_mbps(deps: &[Departure], flow: u32, from: Nanos, to: Nanos) -> f64 {
    throughput(deps, from, to).rate_bps(FlowId(flow)) / 1e6
}

/// F1 — STFQ gives weighted max-min shares; compare the PIFO scheduler
/// against the fluid GPS ideal and the DRR line-rate approximation.
pub fn stfq() -> String {
    let end = Nanos::from_millis(10);
    let weights = [(1u32, 1u64), (2, 2), (3, 4)];
    let arrivals = cbr_arrivals(&[1, 2, 3], GBIT10, end); // 3x oversubscribed

    // PIFO/STFQ.
    let table = WeightTable::from_pairs(weights.iter().map(|&(f, w)| (FlowId(f), w)));
    // Buffers sized so every flow stays backlogged: buffer management
    // is orthogonal to scheduling (Sec 6.1); per-flow thresholds would
    // prevent tail-drop lockout in a real switch.
    let mut pifo = TreeScheduler::new("STFQ", single_stfq_tree(table, 100_000));
    let cfg = PortConfig::new(GBIT10).with_horizon(end);
    let deps_pifo = run_port(&arrivals, &mut pifo, &cfg);

    // DRR baseline with proportional quanta.
    let mut drr = DrrSched::new(1_500, 100_000);
    for &(f, w) in &weights {
        drr.set_quantum(FlowId(f), 1_500 * w);
    }
    let deps_drr = run_port(&arrivals, &mut drr, &cfg);

    // Fluid GPS ground truth.
    let mut gps = FluidGps::new(GBIT10);
    for &(f, w) in &weights {
        gps.set_weight(FlowId(f), w);
    }
    for p in &arrivals {
        gps.arrive(p.flow, p.length as u64, p.arrival);
    }
    gps.advance_to(end);

    // Measure the second half (steady state).
    let (lo, hi) = (Nanos::from_millis(5), end);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "F1 (Fig 1) STFQ: 3 backlogged flows, weights 1:2:4, 10 Gbit/s link"
    );
    let _ = writeln!(
        s,
        "{:>6} {:>7} {:>12} {:>12} {:>12} {:>12}",
        "flow", "weight", "ideal Mb/s", "STFQ Mb/s", "DRR Mb/s", "GPS bytes"
    );
    let wsum: u64 = weights.iter().map(|&(_, w)| w).sum();
    let mut shares = Vec::new();
    for &(f, w) in &weights {
        let ideal = 10_000.0 * w as f64 / wsum as f64;
        let got = rate_mbps(&deps_pifo, f, lo, hi);
        let drr_got = rate_mbps(&deps_drr, f, lo, hi);
        shares.push(got / w as f64);
        let _ = writeln!(
            s,
            "{:>6} {:>7} {:>12.0} {:>12.0} {:>12.0} {:>12}",
            f,
            w,
            ideal,
            got,
            drr_got,
            gps.served_bytes(FlowId(f))
        );
    }
    let jain = pifo_sim::jain_index(&shares);
    let _ = writeln!(
        s,
        "Jain index of weight-normalised STFQ shares: {jain:.4} (1.0 = ideal)"
    );

    // Approximate engines legally reorder: quantify the cost against the
    // exact reference on the identical workload (PR 7's open sweep).
    let backend = super::backend();
    if !backend.is_exact() {
        let table = WeightTable::from_pairs(weights.iter().map(|&(f, w)| (FlowId(f), w)));
        let mut exact = TreeScheduler::new(
            "STFQ-exact",
            stfq_tree_with(PifoBackend::SortedArray, table, 100_000),
        );
        let deps_exact = run_port(&arrivals, &mut exact, &cfg);
        let mut exact_shares = Vec::new();
        let _ = writeln!(
            s,
            "\napproximate backend `{backend}` vs exact reference (same workload):"
        );
        let _ = writeln!(
            s,
            "{:>6} {:>12} {:>12} {:>12}",
            "flow", "approx Mb/s", "exact Mb/s", "delta Mb/s"
        );
        for &(f, w) in &weights {
            let approx_rate = rate_mbps(&deps_pifo, f, lo, hi);
            let exact_rate = rate_mbps(&deps_exact, f, lo, hi);
            exact_shares.push(exact_rate / w as f64);
            let _ = writeln!(
                s,
                "{:>6} {:>12.0} {:>12.0} {:>12.1}",
                f,
                approx_rate,
                exact_rate,
                approx_rate - exact_rate
            );
        }
        let jain_exact = pifo_sim::jain_index(&exact_shares);
        let _ = writeln!(
            s,
            "Jain index: approx {jain:.4} vs exact {jain_exact:.4} (delta {:+.4})",
            jain - jain_exact
        );
        if let Some(inv) = pifo.tree().inversion_stats() {
            let _ = writeln!(
                s,
                "rank inversions at the root: {}/{} dequeues ({:.2}%), \
                 mean displacement {:.2}, max rank regression {}",
                inv.inversions,
                inv.dequeues,
                100.0 * inv.inversions as f64 / inv.dequeues.max(1) as f64,
                inv.mean_displacement(),
                inv.max_regression
            );
        }
    }
    s
}

/// F3 — HPFQ on the Fig 3 hierarchy; phase 2 stops flow C to show that
/// freed bandwidth stays *within the class* (unlike flat WFQ).
///
/// C sends at 3 Gbit/s (below its 3.6 Gbit/s fair share) so that it holds
/// no backlog when it stops — making phase 2 a clean before/after.
pub fn hpfq() -> String {
    let end = Nanos::from_millis(10);
    let stop_c = Nanos::from_millis(5);

    // Arrivals: A,B,D saturate; C sends 3 Gb/s and stops at 5 ms.
    let sources: Vec<Box<dyn TrafficSource>> = vec![
        Box::new(CbrSource::new(FlowId(0), PKT, GBIT10, Nanos::ZERO, end)),
        Box::new(CbrSource::new(FlowId(1), PKT, GBIT10, Nanos::ZERO, end)),
        Box::new(CbrSource::new(
            FlowId(2),
            PKT,
            3_000_000_000,
            Nanos::ZERO,
            stop_c,
        )),
        Box::new(CbrSource::new(FlowId(3), PKT, GBIT10, Nanos::ZERO, end)),
    ];
    let mut arrivals = pifo_sim::merge(sources);
    pifo_sim::renumber(&mut arrivals);

    let cfg = PortConfig::new(GBIT10).with_horizon(end);

    // HPFQ per Fig 3.
    let (mut b, classifier, _) = fig3_hpfq();
    b.with_backend(super::backend());
    let mut hpfq = TreeScheduler::new("HPFQ", b.build(classifier).expect("valid tree"));
    let deps_h = run_port(&arrivals, &mut hpfq, &cfg);

    // Flat WFQ with the composite weights 3:7:36:54 (same static shares).
    let flat = WeightTable::from_pairs([
        (FlowId(0), 3),
        (FlowId(1), 7),
        (FlowId(2), 36),
        (FlowId(3), 54),
    ]);
    let mut wfq = TreeScheduler::new("flat-WFQ", single_stfq_tree(flat, 100_000));
    let deps_f = run_port(&arrivals, &mut wfq, &cfg);

    let mut s = String::new();
    let _ = writeln!(
        s,
        "F3 (Fig 3) HPFQ: Left:Right 1:9, A:B 3:7, C:D 4:6, 10 Gbit/s"
    );
    let _ = writeln!(
        s,
        "phase 1 (1-4 ms; C sends 3 Gb/s, D absorbs Right's slack) — % of link"
    );
    let _ = writeln!(
        s,
        "{:>6} {:>12} {:>12} {:>12}",
        "flow", "HPFQ-ideal", "HPFQ", "flat-WFQ"
    );
    let p1 = (Nanos::from_millis(1), Nanos::from_millis(4));
    for (f, ideal) in [(0u32, 3.0), (1, 7.0), (2, 30.0), (3, 60.0)] {
        let _ = writeln!(
            s,
            "{:>6} {:>12.1} {:>12.1} {:>12.1}",
            f,
            ideal,
            rate_mbps(&deps_h, f, p1.0, p1.1) / 100.0,
            rate_mbps(&deps_f, f, p1.0, p1.1) / 100.0,
        );
    }
    let _ = writeln!(
        s,
        "phase 2 (C idle, 6-10 ms) — hierarchy keeps C's share inside Right"
    );
    let _ = writeln!(
        s,
        "{:>6} {:>12} {:>12} {:>12}",
        "flow", "HPFQ-ideal", "HPFQ", "flat-WFQ"
    );
    let p2 = (Nanos::from_millis(6), end);
    for (f, ideal) in [(0u32, 3.0), (1, 7.0), (3, 90.0)] {
        let _ = writeln!(
            s,
            "{:>6} {:>12.1} {:>12.1} {:>12.1}",
            f,
            ideal,
            rate_mbps(&deps_h, f, p2.0, p2.1) / 100.0,
            rate_mbps(&deps_f, f, p2.0, p2.1) / 100.0,
        );
    }
    let _ = writeln!(
        s,
        "(flat WFQ gives D only 54/64 = 84.4% in phase 2 — the hierarchy is not expressible flat)"
    );
    s
}

/// F4 — Hierarchies with Shaping: Right is rate-limited to 10 Mbit/s
/// regardless of offered load.
pub fn shaping() -> String {
    let end = Nanos::from_millis(40);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "F4 (Fig 4) Hierarchies with Shaping: TBF on Right (10 Mbit/s, 15 KB burst)"
    );
    let _ = writeln!(
        s,
        "{:>16} {:>14} {:>14}",
        "offered/Right", "Right Mb/s", "Left Mb/s"
    );
    for offered in [20_000_000u64, 100_000_000, 1_000_000_000] {
        // Build the Fig 4 tree fresh per load level: Fig 3's hierarchy
        // with a TBF shaper attached to the Right class.
        let (mut b, classifier, leaf_of) = fig3_hpfq();
        b.with_backend(super::backend());
        b.set_shaper(
            leaf_of[&FlowId(2)],
            Box::new(TokenBucketFilter::new(10_000_000, 15_000)),
        );
        b.buffer_limit(200_000);
        let tree = b.build(classifier).expect("valid tree");

        // Left flows offer 5 Gb/s each; Right flows offer `offered`/2 each.
        let sources: Vec<Box<dyn TrafficSource>> = vec![
            Box::new(CbrSource::new(
                FlowId(0),
                PKT,
                5_000_000_000,
                Nanos::ZERO,
                end,
            )),
            Box::new(CbrSource::new(
                FlowId(1),
                PKT,
                5_000_000_000,
                Nanos::ZERO,
                end,
            )),
            Box::new(CbrSource::new(
                FlowId(2),
                PKT,
                offered / 2,
                Nanos::ZERO,
                end,
            )),
            Box::new(CbrSource::new(
                FlowId(3),
                PKT,
                offered / 2,
                Nanos::ZERO,
                end,
            )),
        ];
        let mut arrivals = pifo_sim::merge(sources);
        pifo_sim::renumber(&mut arrivals);

        let mut sched = TreeScheduler::new("HPFQ+TBF", tree);
        let cfg = PortConfig::new(GBIT10).with_horizon(end);
        let deps = run_port(&arrivals, &mut sched, &cfg);
        let (lo, hi) = (Nanos::from_millis(10), end);
        let right_rate = rate_mbps(&deps, 2, lo, hi) + rate_mbps(&deps, 3, lo, hi);
        let left_rate = rate_mbps(&deps, 0, lo, hi) + rate_mbps(&deps, 1, lo, hi);
        let _ = writeln!(
            s,
            "{:>13} Mb/s {:>14.2} {:>14.0}",
            offered / 1_000_000,
            right_rate,
            left_rate
        );
    }
    let _ = writeln!(
        s,
        "(paper: Right held at 10 Mbit/s regardless of offered load)"
    );
    s
}

/// F8 — minimum rate guarantees: the guaranteed flow is protected from a
/// hog by the 2-level tree; the collapsed 1-level transaction reorders
/// packets within the flow (§3.3's pitfall), the 2-level tree never does.
pub fn minrate() -> String {
    let link = 10_000_000u64; // 10 Mb/s
    let end = Nanos::from_secs(2);
    // Flow 1 is guaranteed 2 Mb/s but offers 4 — it oscillates between
    // under- and over-minimum while queued, which is exactly the §3.3
    // reordering trap for the collapsed transaction.
    let sources: Vec<Box<dyn TrafficSource>> = vec![
        Box::new(CbrSource::new(FlowId(1), PKT, 4_000_000, Nanos::ZERO, end)),
        Box::new(CbrSource::new(FlowId(2), PKT, 20_000_000, Nanos::ZERO, end)), // hog
    ];
    let mut arrivals = pifo_sim::merge(sources);
    pifo_sim::renumber(&mut arrivals);
    let cfg = PortConfig::new(link).with_horizon(end);

    // Correct 2-level tree (guarantee 2 Mb/s to flow 1, none to the hog).
    let (mut b, classifier) = min_rate_tree(&[(FlowId(1), 2_000_000), (FlowId(2), 1)], 3_000);
    b.with_backend(super::backend());
    let tree = b.build(classifier).expect("valid tree");
    let mut twolevel = TreeScheduler::new("min-rate-2level", tree);
    let deps_2 = run_port(&arrivals, &mut twolevel, &cfg);

    // Collapsed single PIFO running the Fig 8 transaction directly.
    let mut collapsed_tx = MinRateGuarantee::new(1, 3_000);
    collapsed_tx.set_rate(FlowId(1), 2_000_000);
    let mut b = super::tree_builder();
    let root = b.add_root("collapsed", Box::new(collapsed_tx));
    let collapsed_tree = b.build(Box::new(move |_| root)).expect("valid");
    let mut collapsed = TreeScheduler::new("min-rate-collapsed", collapsed_tree);
    let deps_1 = run_port(&arrivals, &mut collapsed, &cfg);

    // FIFO baseline: no protection at all.
    let mut fifo = FifoSched::new(100_000);
    let deps_f = run_port(&arrivals, &mut fifo, &cfg);

    let inversions = |deps: &[Departure], flow: u32| -> usize {
        let seqs: Vec<u64> = deps
            .iter()
            .filter(|d| d.packet.flow.0 == flow)
            .map(|d| d.packet.seq_in_flow)
            .collect();
        seqs.windows(2).filter(|w| w[0] > w[1]).count()
    };

    let (lo, hi) = (Nanos::from_millis(500), end);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "F8 (Fig 8) min-rate: flow 1 guaranteed 2 Mb/s (sends 4), hog sends 20, link 10 Mb/s"
    );
    let _ = writeln!(
        s,
        "{:<22} {:>14} {:>12} {:>22}",
        "scheduler", "flow1 Mb/s", "hog Mb/s", "intra-flow inversions"
    );
    for (name, deps) in [
        ("2-level PIFO tree", &deps_2),
        ("collapsed 1-level", &deps_1),
        ("FIFO", &deps_f),
    ] {
        let _ = writeln!(
            s,
            "{:<22} {:>14.2} {:>12.2} {:>22}",
            name,
            rate_mbps(deps, 1, lo, hi),
            rate_mbps(deps, 2, lo, hi),
            inversions(deps, 1) + inversions(deps, 2),
        );
    }
    let _ = writeln!(
        s,
        "(paper: the 2-level tree protects the guarantee AND preserves intra-flow order;\n collapsing to one PIFO reorders packets within a flow, Sec 3.3)"
    );
    s
}

/// X5 — §6.1: buffer management is orthogonal to scheduling, and
/// necessary: a small shared tail-drop buffer lets one flow lock out the
/// others *before the scheduler sees their packets*; per-flow thresholds
/// (static, or Choudhury–Hahne dynamic \[14\]) in front of the same WFQ
/// restore the weighted shares.
pub fn buffers() -> String {
    let end = Nanos::from_millis(10);
    let arrivals = cbr_arrivals(&[1, 2, 3], GBIT10, end);
    let weights = WeightTable::from_pairs([(FlowId(1), 1), (FlowId(2), 2), (FlowId(3), 4)]);
    let cfg = PortConfig::new(GBIT10).with_horizon(end);
    let (lo, hi) = (Nanos::from_millis(5), end);

    let mut s = String::new();
    let _ = writeln!(
        s,
        "X5 (Sec 6.1): 256-packet shared buffer, WFQ 1:2:4, phase-aligned CBR x3"
    );
    let _ = writeln!(
        s,
        "{:<26} {:>10} {:>10} {:>10}",
        "admission policy", "f1 Mb/s", "f2 Mb/s", "f3 Mb/s"
    );

    // Plain tail drop inside the tree.
    {
        let mut b = super::tree_builder();
        let root = b.add_root("wfq", Box::new(Stfq::new(weights.clone())));
        b.buffer_limit(256);
        let tree = b.build(Box::new(move |_| root)).expect("valid");
        let mut sched = TreeScheduler::new("taildrop", tree);
        let deps = run_port(&arrivals, &mut sched, &cfg);
        let _ = writeln!(
            s,
            "{:<26} {:>10.0} {:>10.0} {:>10.0}",
            "shared tail drop",
            rate_mbps(&deps, 1, lo, hi),
            rate_mbps(&deps, 2, lo, hi),
            rate_mbps(&deps, 3, lo, hi)
        );
    }
    // Per-flow thresholds: the same tree, built in a 256-slot pool that
    // gates every enqueue on the packet's flow occupancy.
    for (name, threshold) in [
        ("static 85/flow", Threshold::Static(85)),
        ("dynamic alpha=1", Threshold::Dynamic { num: 1, den: 1 }),
    ] {
        let pool = SharedPacketPool::new(
            256,
            AdmissionPolicy::PortFlow {
                port: Threshold::Unlimited,
                flow: threshold,
            },
        )
        .expect("valid")
        .into_shared();
        let mut b = super::tree_builder();
        let root = b.add_root("wfq", Box::new(Stfq::new(weights.clone())));
        let tree = b
            .build_in_pool(Box::new(move |_| root), pool.register_port())
            .expect("valid");
        let mut sched = TreeScheduler::new("wfq", tree);
        let deps = run_port(&arrivals, &mut sched, &cfg);
        let _ = writeln!(
            s,
            "{:<26} {:>10.0} {:>10.0} {:>10.0}",
            name,
            rate_mbps(&deps, 1, lo, hi),
            rate_mbps(&deps, 2, lo, hi),
            rate_mbps(&deps, 3, lo, hi)
        );
    }
    let _ = writeln!(
        s,
        "(ideal 1:2:4 = 1429/2857/5714; tail drop locks flow 1 in — thresholds fix it)"
    );
    s
}

#[cfg(test)]
mod tests {
    // The fairness experiments are validated end-to-end by the
    // integration tests in `tests/experiments.rs`; here we only make
    // sure each driver runs and emits its headline lines.
    #[test]
    fn stfq_runs() {
        let out = super::stfq();
        assert!(out.contains("Jain index"));
    }

    #[test]
    fn minrate_runs() {
        let out = super::minrate();
        assert!(out.contains("2-level PIFO tree"));
    }

    /// The X5 table, pinned row for row: tail drop locks flow 1 in, and
    /// either per-flow threshold restores the 1:2:4 shares.
    #[test]
    fn buffers_shows_lockout_and_fix() {
        let out = super::buffers();
        for (policy, rates) in [
            ("shared tail drop", [10_001, 0, 0]),
            ("static 85/flow", [1_428, 2_858, 5_714]),
            ("dynamic alpha=1", [1_428, 2_858, 5_714]),
        ] {
            let [f1, f2, f3] = rates;
            let row = format!("{policy:<26} {f1:>10} {f2:>10} {f3:>10}");
            assert!(out.lines().any(|l| l == row), "no row {row:?} in\n{out}");
        }
    }
}
