//! X6: the §6.2 lossless-fabric demonstration — PFC pause/resume as a
//! scheduler-level concern, plus the fault watchdog.

use pifo_algos::Stfq;
use pifo_core::prelude::*;
use pifo_sim::{
    CbrSource, FaultPlan, IncastSource, LosslessConfig, LosslessFabric, PauseAction, StallKind,
    Switch, SwitchBuilder, TrafficSource,
};
use std::fmt::Write as _;

const PORTS: usize = 4;
const RATE_BPS: u64 = 10_000_000_000;
const XOFF: usize = 16;
const XON: usize = 4;
const HEADROOM: usize = 16;

fn classify(p: &Packet) -> usize {
    if p.flow.0 < 64 {
        0
    } else {
        (p.flow.0 as usize - 100) % PORTS
    }
}

fn build_switch() -> Switch {
    let backend = super::backend();
    let mut sb = SwitchBuilder::new(RATE_BPS);
    sb.with_shared_pool(
        PORTS * (XOFF + HEADROOM),
        AdmissionPolicy::PortFlow {
            port: Threshold::Static(XOFF + HEADROOM),
            flow: Threshold::Unlimited,
        },
    );
    for _ in 0..PORTS {
        sb.add_shared_port(|pool| {
            let mut b = TreeBuilder::new();
            b.with_backend(backend);
            let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
            b.build_in_pool(Box::new(move |_| root), pool)
                .expect("tree")
        });
    }
    sb.build(Box::new(classify))
}

/// An incast hog into port 0 plus one well-behaved victim stream: the
/// closed-loop traffic both demonstrations run.
fn sources() -> Vec<Box<dyn TrafficSource>> {
    vec![
        Box::new(IncastSource::new(
            FlowId(0),
            16,
            1_000,
            8,
            RATE_BPS,
            Nanos(20_000),
            Nanos(300_000),
        )) as Box<dyn TrafficSource>,
        Box::new(CbrSource::new(
            FlowId(101),
            1_000,
            RATE_BPS / 2,
            Nanos::ZERO,
            Nanos(300_000),
        )),
    ]
}

/// X6 — watermark-driven pause/resume absorbs an incast storm with zero
/// loss, and the pause watchdog turns a dead egress port into a typed
/// stall instead of a hang.
pub fn pfc() -> String {
    let cfg = LosslessConfig::new(XOFF, XON).with_headroom(HEADROOM);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "X6 (Sec 6.2): PFC backpressure on the shared-buffer fabric"
    );
    let _ = writeln!(
        s,
        "fabric: {PORTS} ports @ {} Gbit/s, xoff={XOFF} xon={XON} headroom={HEADROOM}, \
         pool={} (ports x (xoff+headroom))",
        RATE_BPS / 1_000_000_000,
        cfg.min_pool_capacity(PORTS)
    );

    // --- healthy run: the storm is paced, not dropped -------------------
    let mut fabric = LosslessFabric::new(build_switch(), cfg);
    let run = fabric.run(sources(), FaultPlan::none());
    assert!(run.stall.is_none(), "healthy run stalled: {:?}", run.stall);
    assert_eq!(run.total_drops(), 0, "lossless contract");
    let _ = writeln!(s, "\nincast storm (16 senders, 8x drain rate) -> port 0:");
    let _ = writeln!(
        s,
        "  departures={}  drops={}  pauses={}  resumes={}  peak_pool={}  peak_skid={}",
        run.total_departures(),
        run.total_drops(),
        run.count_events(PauseAction::Pause),
        run.count_events(PauseAction::Resume),
        run.max_pool_live,
        run.peak_skid[0],
    );
    let _ = writeln!(
        s,
        "  hog source: paused {}x, {} total, longest {}",
        run.sources[0].pauses, run.sources[0].total_paused, run.sources[0].max_pause,
    );
    let _ = writeln!(
        s,
        "  victim source: paused {}x (backpressure is per port x class)",
        run.sources[1].pauses,
    );

    // --- fault run: dead egress port -> typed stall ---------------------
    let cfg = cfg.with_max_pause(Nanos::from_micros(200));
    let mut fabric = LosslessFabric::new(build_switch(), cfg);
    let faults = FaultPlan::none().dead_port(0);
    let run = fabric.run(sources(), faults);
    let stall = run.stall.expect("a dead port under load must stall");
    assert!(matches!(stall.kind, StallKind::DeadPort { port: 0 }));
    let _ = writeln!(s, "\nfault injection: port 0 transmitter killed:");
    let _ = writeln!(s, "  watchdog verdict: {stall}");
    let _ = writeln!(
        s,
        "  victim port kept transmitting: {} departures (fault contained)",
        run.run.ports[1].departures.len(),
    );
    s
}
