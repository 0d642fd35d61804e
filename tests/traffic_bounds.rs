//! `TrafficSource::size_hint` is an upper bound on the packets a source
//! will still emit, and the lossless fabric sizes each port's departure
//! trace from it. For the five built-in sources the bound is the exact
//! length of the remaining unpaused stream and falls by one per packet;
//! under any pause/resume schedule no source emits more than it said. A
//! source that gives no bound (the trait default) still runs through the
//! fabric, whose traces then grow as they fill, with the same result.

use pifo::prelude::*;
use pifo::sim::OnOffSource;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One built-in source, as plain data so that it can be built afresh for
/// each pass over its stream.
#[derive(Debug, Clone, Copy)]
enum Src {
    Cbr {
        len: u32,
        rate: u64,
        start: u64,
        end: u64,
    },
    Poisson {
        pps: f64,
        end: u64,
        seed: u64,
    },
    OnOff {
        burst: u32,
        rate: u64,
        idle: u64,
        end: u64,
    },
    Incast {
        fanin: u32,
        pkts: u32,
        rate: u64,
        slack: u64,
        end: u64,
    },
    Markov {
        burst: f64,
        rate: u64,
        idle: u64,
        end: u64,
        seed: u64,
    },
}

impl Src {
    /// Kind `kind % 5` with its parameters drawn from `seed`. Ends run
    /// from zero (an empty stream) to 400 µs; idle gaps and incast slack
    /// include zero, so bursts may abut.
    fn random(kind: u8, seed: u64) -> Src {
        let mut r = StdRng::seed_from_u64(seed);
        let end = r.gen_range(0u64..400_000);
        match kind % 5 {
            0 => Src::Cbr {
                len: r.gen_range(64..1_500),
                rate: r.gen_range(1u64..40) * 250_000_000,
                start: r.gen_range(0u64..100_000),
                end,
            },
            1 => Src::Poisson {
                pps: r.gen_range(1e4..5e6),
                end,
                seed: r.gen_range(0..u64::MAX),
            },
            2 => Src::OnOff {
                burst: r.gen_range(1..16),
                rate: r.gen_range(1u64..40) * 1_000_000_000,
                idle: r.gen_range(0u64..50) * 1_000,
                end,
            },
            3 => Src::Incast {
                fanin: r.gen_range(1..64),
                pkts: r.gen_range(1..16),
                rate: r.gen_range(1u64..40) * 1_000_000_000,
                slack: r.gen_range(0u64..20_000),
                end,
            },
            _ => Src::Markov {
                burst: r.gen_range(1.0..16.0),
                rate: r.gen_range(1u64..40) * 1_000_000_000,
                idle: r.gen_range(0u64..50) * 1_000,
                end,
                seed: r.gen_range(0..u64::MAX),
            },
        }
    }

    fn build(self) -> Box<dyn TrafficSource> {
        let f = FlowId(0);
        match self {
            Src::Cbr {
                len,
                rate,
                start,
                end,
            } => Box::new(CbrSource::new(f, len, rate, Nanos(start), Nanos(end))),
            Src::Poisson { pps, end, seed } => {
                Box::new(PoissonSource::new(f, 500, pps, Nanos(end), seed))
            }
            Src::OnOff {
                burst,
                rate,
                idle,
                end,
            } => Box::new(OnOffSource::new(
                f,
                700,
                burst,
                rate,
                Nanos(idle),
                Nanos(end),
            )),
            Src::Incast {
                fanin,
                pkts,
                rate,
                slack,
                end,
            } => {
                // The shortest period the burst fits in, plus the slack.
                let gap = tx_time(1_000, rate).as_nanos();
                let period = (pkts as u64 - 1) * gap + 1 + slack;
                Box::new(IncastSource::new(
                    f,
                    fanin,
                    1_000,
                    pkts,
                    rate,
                    Nanos(period),
                    Nanos(end),
                ))
            }
            Src::Markov {
                burst,
                rate,
                idle,
                end,
                seed,
            } => Box::new(MarkovOnOffSource::new(
                f,
                900,
                burst,
                rate,
                Nanos(idle),
                Nanos(end),
                seed,
            )),
        }
    }
}

/// Every packet `s` still emits.
fn drain(s: &mut dyn TrafficSource) -> usize {
    std::iter::from_fn(|| s.next_packet()).count()
}

proptest! {
    /// After `skip` packets, the first bound is the length of the rest of
    /// the unpaused stream, and every packet lowers it by exactly one,
    /// down to zero at the end.
    #[test]
    fn the_bound_is_the_unpaused_stream_and_counts_down(
        kind in 0u8..5,
        seed in any::<u64>(),
        skip in 0usize..3,
    ) {
        let src = Src::random(kind, seed);
        let total = drain(&mut *src.build());
        let mut s = src.build();
        let skipped = (0..skip).filter_map(|_| s.next_packet()).count();
        let mut bound = s.size_hint();
        prop_assert_eq!(bound, Some(total - skipped), "{:?}", src);
        while s.next_packet().is_some() {
            let next = s.size_hint();
            prop_assert_eq!(next, bound.and_then(|b| b.checked_sub(1)), "{:?}", src);
            bound = next;
        }
        prop_assert_eq!(bound, Some(0), "{:?}", src);
    }

    /// Under a random pause/resume schedule no source emits more than its
    /// first bound, and every later bound covers what is still to come.
    #[test]
    fn no_pause_schedule_exceeds_the_bound(
        kind in 0u8..5,
        seed in any::<u64>(),
        pauses in proptest::collection::vec((0u8..4, 0u64..20_000), 0..40),
    ) {
        let src = Src::random(kind, seed);
        let mut s = src.build();
        let first = s.size_hint().expect("built-in sources are bounded");
        // The bound given before each packet, and the packets emitted
        // since the start when it was given.
        let mut hints = vec![(first, 0usize)];
        let mut sent = 0usize;
        let mut now = Nanos::ZERO;
        let mut schedule = pauses.into_iter();
        while let Some(p) = s.next_packet() {
            sent += 1;
            now = now.max(p.arrival);
            // 0: pause and resume `d` later, 1: pause twice, 2: resume
            // with no pause pending, 3: nothing.
            match schedule.next() {
                Some((0, d)) => {
                    s.pause(now);
                    s.resume(now + Nanos(d));
                }
                Some((1, d)) => {
                    s.pause(now);
                    s.pause(now + Nanos(d / 2));
                    s.resume(now + Nanos(d));
                }
                Some((2, d)) => s.resume(now + Nanos(d)),
                _ => {}
            }
            hints.push((s.size_hint().expect("still bounded"), sent));
        }
        prop_assert!(sent <= first, "{:?}: sent {} over the bound {}", src, sent, first);
        for (bound, before) in hints {
            prop_assert!(
                sent - before <= bound,
                "{:?}: {} sent after a bound of {}",
                src,
                sent - before,
                bound
            );
        }
    }
}

/// A user source that forwards to a built-in one but keeps the trait's
/// default `size_hint`: its bound is unknown.
struct Unbounded(Box<dyn TrafficSource>);

impl TrafficSource for Unbounded {
    fn next_packet(&mut self) -> Option<Packet> {
        self.0.next_packet()
    }

    fn pause(&mut self, now: Nanos) {
        self.0.pause(now);
    }

    fn resume(&mut self, now: Nanos) {
        self.0.resume(now);
    }
}

/// Two shared-pool STFQ ports under PFC, flows hashed over the ports.
fn lossless_fabric() -> LosslessFabric {
    let mut sb = SwitchBuilder::new(8_000_000_000);
    sb.with_shared_pool(
        2 * 48,
        AdmissionPolicy::PortFlow {
            port: Threshold::Static(48),
            flow: Threshold::Unlimited,
        },
    );
    for _ in 0..2 {
        sb.add_shared_port(|h| {
            let mut b = TreeBuilder::new();
            let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
            b.build_in_pool(Box::new(move |_| root), h).expect("tree")
        });
    }
    let cfg = LosslessConfig::new(16, 4).with_headroom(32);
    LosslessFabric::new(sb.build(Box::new(|p: &Packet| p.flow.0 as usize % 2)), cfg)
}

/// Port 0 overdriven by two CBR flows at 1.5× its line rate (so it
/// pauses), port 1 fed one at half. `hide` wraps the sources whose
/// index it names in [`Unbounded`].
fn sources(hide: &[usize]) -> Vec<Box<dyn TrafficSource>> {
    let end = Nanos(300_000);
    let cbr = |flow: u32, rate: u64, start: u64| -> Box<dyn TrafficSource> {
        Box::new(CbrSource::new(FlowId(flow), 1_000, rate, Nanos(start), end))
    };
    let all = vec![
        cbr(0, 6_000_000_000, 0),
        cbr(2, 6_000_000_000, 125),
        cbr(1, 4_000_000_000, 60),
    ];
    all.into_iter()
        .enumerate()
        .map(|(i, s)| {
            if hide.contains(&i) {
                Box::new(Unbounded(s)) as Box<dyn TrafficSource>
            } else {
                s
            }
        })
        .collect()
}

#[test]
fn a_source_without_a_bound_says_so_and_the_fabric_grows_its_trace() {
    let mut s = Unbounded(Box::new(CbrSource::new(
        FlowId(0),
        1_000,
        8_000_000_000,
        Nanos::ZERO,
        Nanos(10_000),
    )));
    assert_eq!(s.size_hint(), None);

    let bounded = lossless_fabric().run(sources(&[]), FaultPlan::none());
    assert!(bounded.stall.is_none(), "no stall: {:?}", bounded.stall);
    assert!(
        bounded.count_events(PauseAction::Pause) > 0,
        "port 0 pauses"
    );
    // Port 1 never pauses: its bound is its exact count, its one
    // allocation.
    let port1 = &bounded.run.ports[1].departures;
    assert_eq!(port1.capacity(), port1.len());
    for hide in [&[0][..], &[2], &[0, 1, 2]] {
        let grown = lossless_fabric().run(sources(hide), FaultPlan::none());
        assert!(grown.stall.is_none(), "no stall: {:?}", grown.stall);
        assert_eq!(grown.total_drops(), 0);
        assert_eq!(grown.pause_events, bounded.pause_events, "hiding {hide:?}");
        for (a, b) in grown.run.ports.iter().zip(&bounded.run.ports) {
            assert_eq!(a.departures, b.departures, "hiding {hide:?}");
        }
    }
}
