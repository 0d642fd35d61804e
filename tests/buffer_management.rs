//! §6.1 end-to-end: buffer management composes with (and is orthogonal
//! to) programmable scheduling.
//!
//! The scenario is the classic tail-drop lockout: with a small shared
//! buffer and phase-aligned arrivals, the
//! slowest-draining flow can monopolise freed buffer slots and starve
//! the others *before the scheduler ever sees their packets*. The
//! paper's answer (§6.1) is per-flow thresholds in front of the
//! scheduler; the dynamic Choudhury–Hahne variant \[14\] restores the
//! scheduler's weighted shares without retuning.

use pifo_algos::{Stfq, WeightTable};
use pifo_core::prelude::*;
use pifo_sim::{run_port, throughput, CbrSource, PortConfig, TrafficSource, TreeScheduler};

const LINK: u64 = 10_000_000_000;

fn arrivals(end: Nanos) -> Vec<Packet> {
    let sources: Vec<Box<dyn TrafficSource>> = (1..=3u32)
        .map(|f| {
            Box::new(CbrSource::new(FlowId(f), 1_500, LINK, Nanos::ZERO, end))
                as Box<dyn TrafficSource>
        })
        .collect();
    let mut pkts = pifo_sim::merge(sources);
    pifo_sim::renumber(&mut pkts);
    pkts
}

/// The same WFQ tree over a 256-packet buffer: plain tail drop inside
/// the tree (`None`), or a pool whose per-flow `threshold` gates every
/// enqueue in front of the scheduler.
fn run(threshold: Option<Threshold>) -> [f64; 3] {
    let end = Nanos::from_millis(10);
    let pkts = arrivals(end);
    let cfg = PortConfig::new(LINK).with_horizon(end);
    let mut b = TreeBuilder::new();
    let root = b.add_root(
        "wfq",
        Box::new(Stfq::new(WeightTable::from_pairs([
            (FlowId(1), 1),
            (FlowId(2), 2),
            (FlowId(3), 4),
        ]))),
    );
    let classify: Classifier = Box::new(move |_| root);
    let tree = match threshold {
        None => {
            b.buffer_limit(256);
            b.build(classify)
        }
        Some(t) => {
            let policy = AdmissionPolicy::PortFlow {
                port: Threshold::Unlimited,
                flow: t,
            };
            let pool = SharedPacketPool::new(256, policy).unwrap().into_shared();
            b.build_in_pool(classify, pool.register_port())
        }
    };
    let mut sched = TreeScheduler::new("wfq", tree.expect("valid"));
    let deps = run_port(&pkts, &mut sched, &cfg);
    let (lo, hi) = (Nanos::from_millis(5), end);
    let rep = throughput(&deps, lo, hi);
    [
        rep.rate_bps(FlowId(1)) / 1e6,
        rep.rate_bps(FlowId(2)) / 1e6,
        rep.rate_bps(FlowId(3)) / 1e6,
    ]
}

/// Without admission control, the phase-aligned pattern lets flow 1
/// (lowest weight, slowest drain) capture every freed slot: lockout.
#[test]
fn tail_drop_lockout_reproduces() {
    let rates = run(None);
    assert!(rates[0] > 9_000.0, "flow 1 monopolises the link: {rates:?}");
    assert!(
        rates[1] < 500.0 && rates[2] < 500.0,
        "others starved: {rates:?}"
    );
}

/// Dynamic per-flow thresholds (alpha = 1) in front of the same
/// scheduler restore the 1:2:4 weighted shares with the same 256-packet
/// buffer.
#[test]
fn dynamic_thresholds_restore_fair_shares() {
    let rates = run(Some(Threshold::Dynamic { num: 1, den: 1 }));
    let ideal = [10_000.0 / 7.0, 20_000.0 / 7.0, 40_000.0 / 7.0];
    for (got, want) in rates.iter().zip(ideal) {
        let rel = (got - want).abs() / want;
        assert!(
            rel < 0.15,
            "shares must track weights within 15%: got {rates:?}"
        );
    }
}

/// Static thresholds also break the lockout (a third of the buffer per
/// flow), though they need manual sizing.
#[test]
fn static_thresholds_also_work() {
    let rates = run(Some(Threshold::Static(85)));
    assert!(rates[1] > 1_000.0, "flow 2 served: {rates:?}");
    assert!(rates[2] > 2_000.0, "flow 3 served: {rates:?}");
}
