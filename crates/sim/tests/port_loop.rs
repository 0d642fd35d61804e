//! Differential pin: a one-port [`Switch`] at burst 1 on one worker and
//! [`run_port`] over the same tree are the same port loop. Both must
//! give identical departures (packet, start, finish, wait) and
//! identical drops, and both must drain to empty, on every exact PIFO
//! engine, for a flat STFQ tree, a flat SRPT tree and a two-level
//! tree with a token-bucket-shaped leaf, under a 64-packet buffer that
//! drops and an unbounded buffer. A [`run_port`] horizon only cuts the
//! loop: the cut run sends exactly the uncut run's departures that start
//! before it.

use pifo_algos::{Srpt, Stfq, TokenBucketFilter};
use pifo_core::prelude::*;
use pifo_sim::traffic::{flow_workload, renumber, SizeDistribution};
use pifo_sim::{run_port, PortConfig, SwitchBuilder, TreeScheduler};

/// The port's line rate: a quarter of the sources' access rate, so
/// bursts build a real backlog.
const RATE_BPS: u64 = 2_000_000_000;

/// Heavy-tailed flows (SRPT ranks need `remaining`) arriving at 8 Gb/s.
fn arrivals() -> Vec<Packet> {
    let dist = SizeDistribution::bounded_pareto(1.2, 1_000, 60_000);
    let (mut arr, _) = flow_workload(40, 200_000.0, &dist, 8_000_000_000, 1_000, 0x5EED);
    renumber(&mut arr);
    arr
}

#[derive(Clone, Copy, Debug)]
enum Shape {
    Stfq,
    Srpt,
    /// STFQ root over two leaves; the even-flow leaf is token-bucket
    /// shaped below the line rate.
    ShapedTwoLevel,
}

#[derive(Clone, Copy, Debug)]
enum Case {
    /// A 64-packet buffer: admission drops are on the compared path.
    Tight,
    /// No buffer limit: the port drains to empty.
    Unbounded,
}

fn tree(shape: Shape, backend: PifoBackend, case: Case) -> ScheduleTree {
    let mut b = TreeBuilder::new();
    b.with_backend(backend);
    if matches!(case, Case::Tight) {
        b.buffer_limit(64);
    }
    match shape {
        Shape::Stfq => {
            let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
            b.build(Box::new(move |_| root)).unwrap()
        }
        Shape::Srpt => {
            let root = b.add_root("srpt", Box::new(Srpt));
            b.build(Box::new(move |_| root)).unwrap()
        }
        Shape::ShapedTwoLevel => {
            let root = b.add_root("root", Box::new(Stfq::unweighted()));
            let shaped = b.add_child(root, "shaped", Box::new(Stfq::unweighted()));
            let open = b.add_child(root, "open", Box::new(Stfq::unweighted()));
            b.set_shaper(shaped, Box::new(TokenBucketFilter::new(500_000_000, 4_000)));
            b.build(Box::new(
                move |p: &Packet| {
                    if p.flow.0 % 2 == 0 {
                        shaped
                    } else {
                        open
                    }
                },
            ))
            .unwrap()
        }
    }
}

const SHAPES: [Shape; 3] = [Shape::Stfq, Shape::Srpt, Shape::ShapedTwoLevel];

#[test]
fn one_port_switch_equals_run_port() {
    let arr = arrivals();
    for backend in PifoBackend::EXACT {
        for shape in SHAPES {
            for case in [Case::Tight, Case::Unbounded] {
                let label = format!("{backend}/{shape:?}/{case:?}");

                let mut sched = TreeScheduler::new("port", tree(shape, backend, case));
                let port = run_port(&arr, &mut sched, &PortConfig::new(RATE_BPS));

                let mut sb = SwitchBuilder::new(RATE_BPS);
                sb.add_port(tree(shape, backend, case));
                sb.with_burst(1);
                let mut sw = sb.build(Box::new(|_: &Packet| 0));
                let run = sw.run(&arr, 1);

                assert!(!port.is_empty(), "[{label}] nothing departed");
                assert_eq!(
                    run.ports[0].departures, port,
                    "[{label}] departures diverge"
                );
                assert_eq!(run.ports[0].drops, sched.drops(), "[{label}] drops");
                assert!(
                    sw.port(0).is_empty() && sched.tree().is_empty(),
                    "[{label}] both drained"
                );
                match case {
                    Case::Tight => assert!(sched.drops() > 0, "[{label}] buffer must drop"),
                    Case::Unbounded => assert_eq!(port.len(), arr.len(), "[{label}] all sent"),
                }
            }
        }
    }
}

/// A horizon `H` only stops the loop: no round starts at or after `H`,
/// so the cut run sends exactly the uncut run's departures with
/// `start < H` and leaves the rest queued.
#[test]
fn horizon_cut_run_sends_the_uncut_runs_prefix() {
    let arr = arrivals();
    let cut = Nanos(arr.last().expect("workload").arrival.as_nanos() / 2);
    for backend in PifoBackend::EXACT {
        for shape in SHAPES {
            let label = format!("{backend}/{shape:?}");
            let mut whole = TreeScheduler::new("port", tree(shape, backend, Case::Unbounded));
            let uncut = run_port(&arr, &mut whole, &PortConfig::new(RATE_BPS));

            let mut sched = TreeScheduler::new("port", tree(shape, backend, Case::Unbounded));
            let cfg = PortConfig::new(RATE_BPS).with_horizon(cut);
            let port = run_port(&arr, &mut sched, &cfg);

            let before: Vec<_> = uncut.into_iter().filter(|d| d.start < cut).collect();
            assert_eq!(port, before, "[{label}] departures before the cut");
            assert!(!sched.tree().is_empty(), "[{label}] cut mid-backlog");
        }
    }
}
