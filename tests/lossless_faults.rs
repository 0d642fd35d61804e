//! The fault-injection contract: **no fault plan can hang a lossless
//! fabric**. Any combination of dead ports, slow drains, a stuck pool,
//! and delayed resume frames either drains completely or terminates
//! with a typed [`FabricStall`](pifo::prelude::FabricStall) inside the
//! round budget — and the pause/resume bookkeeping reconciles either
//! way. The property is checked over randomized fault plans, with each
//! plan run twice to pin determinism under faults, and
//! again with the source count varied from 1 to 300 — all sources
//! starting at one instant, so the fabric's event calendar is exercised
//! with hundreds of tied keys under every fault class.

use pifo::prelude::*;
use proptest::prelude::*;

const PORTS: usize = 4;
const RATE_BPS: u64 = 10_000_000_000;

fn classify(p: &Packet) -> usize {
    p.flow.0 as usize % PORTS
}

fn config() -> LosslessConfig {
    LosslessConfig::new(8, 2)
        .with_headroom(16)
        .with_max_pause(Nanos::from_micros(100))
        .with_round_budget(100_000)
}

fn build_fabric() -> LosslessFabric {
    let mut sb = SwitchBuilder::new(RATE_BPS);
    sb.with_shared_pool(
        PORTS * 24,
        AdmissionPolicy::PortFlow {
            port: Threshold::Static(24),
            flow: Threshold::Unlimited,
        },
    );
    for _ in 0..PORTS {
        sb.add_shared_port(|h| {
            let mut b = TreeBuilder::new();
            let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
            b.build_in_pool(Box::new(move |_| root), h).expect("tree")
        });
    }
    LosslessFabric::new(sb.build(Box::new(classify)), config())
}

/// `n` CBR streams, source `k` feeding port `k % PORTS`, all starting at
/// the same instant and together overdriving the fabric 1.5× — for
/// `n = PORTS` one 15 Gb/s stream per port, so every port receives
/// traffic and every injected fault is actually exercised.
fn sources(n: usize) -> Vec<Box<dyn TrafficSource>> {
    let rate = PORTS as u64 * 15_000_000_000 / n as u64;
    (0..n as u32)
        .map(|k| {
            Box::new(CbrSource::new(
                FlowId(k),
                1_000,
                rate,
                Nanos::ZERO,
                Nanos(40_000),
            )) as Box<dyn TrafficSource>
        })
        .collect()
}

fn fault_strategy() -> impl Strategy<Value = FaultPlan> {
    (
        proptest::collection::vec(0usize..PORTS, 0..2),
        proptest::collection::vec((0usize..PORTS, 2u32..8), 0..2),
        prop_oneof![
            2 => Just(None),
            1 => (1_000u64..60_000).prop_map(|t| Some(Nanos(t))),
        ],
        prop_oneof![
            2 => Just(Nanos::ZERO),
            1 => (100u64..5_000).prop_map(Nanos),
        ],
    )
        .prop_map(|(dead, slow, stuck, resume_delay)| {
            let mut plan = FaultPlan::none();
            for p in dead {
                plan = plan.dead_port(p);
            }
            for (p, k) in slow {
                plan = plan.slow_port(p, k);
            }
            if let Some(t) = stuck {
                plan = plan.stuck_pool(t);
            }
            plan.delayed_resume(resume_delay)
        })
}

fn run_plan(n: usize, plan: &FaultPlan) -> LosslessRun {
    build_fabric().run(sources(n), plan.clone())
}

/// Stall-or-drain: a run of `n` sources under `plan` came back inside
/// the round budget, with the pause ledger balanced and any stall
/// naming an injected fault class.
fn assert_stalls_or_drains(run: &LosslessRun, n: usize, plan: &FaultPlan) {
    // Termination bookkeeping: the budget was respected (a budget
    // stall reports the overshooting round itself).
    prop_assert!(
        run.rounds <= config().round_budget + 1,
        "rounds {} blew the budget without a stall",
        run.rounds
    );

    let pauses = run.count_events(PauseAction::Pause);
    let resumes = run.count_events(PauseAction::Resume);
    match run.stall {
        None => {
            // Complete drain: every pause resolved, switch-side and
            // source-side, and nothing was silently lost to a fault
            // that never actually fired.
            prop_assert_eq!(pauses, resumes, "unresolved switch-side pause");
            for (i, s) in run.sources.iter().enumerate() {
                prop_assert_eq!(
                    s.pauses,
                    s.resumes,
                    "source {} pause ledger does not reconcile",
                    i
                );
            }
            // A clean drain with live dead ports is impossible: a
            // dead port that received traffic (source k feeds port
            // k % PORTS) traps it forever.
            prop_assert!(
                plan.dead_ports.iter().all(|&p| p >= n),
                "dead ports {:?} cannot drain cleanly",
                plan.dead_ports
            );
        }
        Some(stall) => {
            // A stall may leave pauses asserted — but never more
            // resumes than pauses, anywhere.
            prop_assert!(resumes <= pauses, "resumes exceed pauses");
            for (i, s) in run.sources.iter().enumerate() {
                prop_assert!(
                    s.resumes <= s.pauses,
                    "source {} resumed more than it paused",
                    i
                );
            }
            // The diagnosis names an injected fault class (or the
            // generic wedges any fault combination can produce).
            match stall.kind {
                StallKind::DeadPort { port } => {
                    prop_assert!(
                        plan.dead_ports.contains(&port),
                        "diagnosed dead port {} was not injected",
                        port
                    );
                }
                StallKind::StuckPool => {
                    prop_assert!(plan.stuck_pool_at.is_some());
                }
                StallKind::PauseStorm { port } => prop_assert!(port < PORTS),
                StallKind::RoundBudget { rounds } => {
                    prop_assert!(rounds > config().round_budget);
                }
                StallKind::CircularWait => {}
            }
        }
    }
}

/// Two runs agree on the stall, the pause log, and the traces.
fn assert_same_run(a: &LosslessRun, b: &LosslessRun) {
    prop_assert_eq!(a.stall, b.stall);
    prop_assert_eq!(&a.pause_events, &b.pause_events);
    prop_assert_eq!(a.rounds, b.rounds);
    prop_assert_eq!(a.skid_overflow, b.skid_overflow);
    prop_assert_eq!(&a.sources, &b.sources);
    for (x, y) in a.run.ports.iter().zip(&b.run.ports) {
        prop_assert_eq!(&x.departures, &y.departures);
        prop_assert_eq!(x.drops, y.drops);
    }
}

proptest! {
    /// The run function *returns* for every plan (a hang fails the test
    /// by timeout) and satisfies the stall-or-drain contract.
    #[test]
    fn any_fault_plan_stalls_or_drains(plan in fault_strategy()) {
        assert_stalls_or_drains(&run_plan(PORTS, &plan), PORTS, &plan);
    }

    /// Faulty runs are still deterministic: the same plan gives the same
    /// stall, the same pause log, and the same traces.
    #[test]
    fn faulty_runs_are_reproducible(plan in fault_strategy()) {
        assert_same_run(&run_plan(PORTS, &plan), &run_plan(PORTS, &plan));
    }

    /// Both contracts with the source count varied: 1 to 300 sources
    /// that all start at one instant, so the event calendar holds up to
    /// 300 tied keys while pauses, gated resumes and faults re-key them.
    #[test]
    fn any_source_count_stalls_or_drains_reproducibly(
        n in 1usize..=300,
        plan in fault_strategy(),
    ) {
        let run = run_plan(n, &plan);
        assert_stalls_or_drains(&run, n, &plan);
        assert_same_run(&run, &run_plan(n, &plan));
    }
}

/// The acceptance scenario, pinned exactly: a dead port under
/// sustained load yields a typed `FabricStall` within the round budget —
/// no hang, no panic — while the healthy ports keep transmitting.
#[test]
fn dead_port_under_load_is_diagnosed_not_hung() {
    let plan = FaultPlan::none().dead_port(2);
    let run = run_plan(PORTS, &plan);
    let stall = run.stall.expect("a dead port under load must stall");
    assert_eq!(stall.kind, StallKind::DeadPort { port: 2 });
    assert!(stall.paused_for >= config().max_pause);
    for port in [0usize, 1, 3] {
        assert!(
            !run.run.ports[port].departures.is_empty(),
            "healthy port {port} must keep transmitting around the fault"
        );
    }
}

/// A pool wedged full mid-run pauses everything and is called out as
/// `StuckPool`, not misdiagnosed as a storm.
#[test]
fn stuck_pool_is_diagnosed() {
    let plan = FaultPlan::none().stuck_pool(Nanos(10_000));
    let run = run_plan(PORTS, &plan);
    let stall = run.stall.expect("a permanently stuck pool must stall");
    assert_eq!(stall.kind, StallKind::StuckPool);
}

/// Slow drain alone is degradation, not deadlock: the fabric completes
/// (more slowly) with every pause resolved.
#[test]
fn slow_drain_completes_without_stall() {
    let plan = FaultPlan::none().slow_port(0, 4);
    let run = run_plan(PORTS, &plan);
    assert!(run.stall.is_none(), "slow drain stalled: {:?}", run.stall);
    assert_eq!(run.total_drops(), 0, "slow drain stays lossless");
    assert_eq!(
        run.count_events(PauseAction::Pause),
        run.count_events(PauseAction::Resume)
    );
    // The slowed port was paused harder than its healthy peers.
    assert!(run.port_paused[0] > run.port_paused[1]);
}

/// A CBR stream of `class` packets on `flow` (port `flow % PORTS`),
/// overdriving its port 1.5×.
fn cbr(flow: u32, class: u8) -> Box<dyn TrafficSource> {
    let src = CbrSource::new(
        FlowId(flow),
        1_000,
        15_000_000_000,
        Nanos::ZERO,
        Nanos(40_000),
    );
    Box::new(src.with_class(class))
}

/// A stall leaves packets in the dead port's tree. A second run refuses
/// to start on them, naming the port, rather than dequeue packets whose
/// class its per-class pressure never counted.
#[test]
#[should_panic(expected = "port 2's tree still holds")]
fn a_run_after_a_stall_refuses_the_leftover_backlog() {
    let mut fabric = build_fabric();
    let stalled = fabric.run(
        (0..PORTS as u32).map(|f| cbr(f, 3)).collect(),
        FaultPlan::none().dead_port(2),
    );
    assert_eq!(
        stalled.stall.map(|s| s.kind),
        Some(StallKind::DeadPort { port: 2 })
    );
    fabric.run(vec![cbr(2, 0)], FaultPlan::none());
}

/// A cleanly drained fabric runs again, and the second run is the
/// first one over.
#[test]
fn a_run_after_a_clean_drain_starts_afresh() {
    let mut fabric = build_fabric();
    let first = fabric.run(sources(PORTS), FaultPlan::none());
    assert!(first.stall.is_none(), "{:?}", first.stall);
    assert!(
        first.count_events(PauseAction::Pause) > 0,
        "the load pauses"
    );
    let second = fabric.run(sources(PORTS), FaultPlan::none());
    assert_same_run(&first, &second);
}
