//! `merge` and `flow_workload` merge time-sorted inputs lazily instead of
//! collecting every packet and sorting. These properties hold both to
//! the collect-and-stable-sort code they replaced, kept here as the
//! reference: the same packets in the same order, same-instant ties
//! across sources and flows included. A source that goes back in time
//! breaks the contract the merge rests on, and `merge` refuses it.

use pifo::prelude::*;
use pifo::sim::{FlowSpec, OnOffSource};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The reference merge: every packet of every source, stable-sorted by
/// arrival.
fn merge_by_sort(mut sources: Vec<Box<dyn TrafficSource>>) -> Vec<Packet> {
    let mut all: Vec<Packet> = Vec::new();
    for s in sources.iter_mut() {
        while let Some(p) = s.next_packet() {
            all.push(p);
        }
    }
    all.sort_by_key(|p| p.arrival);
    all
}

/// The reference flow workload: each flow's packets built as its spec is
/// drawn, then all of them stable-sorted by arrival and numbered.
fn flow_workload_by_sort(
    n_flows: usize,
    flows_per_sec: f64,
    dist: &SizeDistribution,
    access_rate_bps: u64,
    mtu: u32,
    seed: u64,
) -> (Vec<Packet>, Vec<FlowSpec>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mean_gap_ns = 1e9 / flows_per_sec;
    let mut t = 0u64;
    let mut specs = Vec::with_capacity(n_flows);
    let mut packets = Vec::new();
    let gap = tx_time(mtu as u64, access_rate_bps);

    for i in 0..n_flows {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += (-u.ln() * mean_gap_ns).round() as u64;
        let size = dist.sample(&mut rng);
        let flow = FlowId(i as u32);
        specs.push(FlowSpec {
            flow,
            start: Nanos(t),
            size,
        });
        let mut remaining = size;
        let mut pt = Nanos(t);
        let mut seq = 0u64;
        let mut attained = 0u64;
        while remaining > 0 {
            let len = remaining.min(mtu as u64) as u32;
            packets.push(
                Packet::new(0, flow, len, pt)
                    .with_flow_size(size)
                    .with_remaining(remaining)
                    .with_attained(attained)
                    .with_seq_in_flow(seq),
            );
            attained += len as u64;
            remaining -= len as u64;
            seq += 1;
            pt += gap;
        }
    }
    packets.sort_by_key(|p| p.arrival);
    renumber(&mut packets);
    (packets, specs)
}

/// How far the generated sources run.
const END: Nanos = Nanos(300_000);

/// One source of a mix, as plain data so that the same mix can be built
/// twice: once for `merge`, once for the reference.
#[derive(Debug, Clone, Copy)]
enum Src {
    Cbr {
        len: u32,
        rate: u64,
        start: u64,
    },
    Poisson {
        pps: f64,
        seed: u64,
    },
    OnOff {
        burst: u32,
        rate: u64,
        idle: u64,
    },
    Incast {
        fanin: u32,
        pkts: u32,
        period: u64,
    },
    Markov {
        burst: f64,
        rate: u64,
        idle: u64,
        seed: u64,
    },
}

impl Src {
    /// Kind `kind % 5` with its parameters drawn from `seed`.
    fn random(kind: u8, seed: u64) -> Src {
        let mut r = StdRng::seed_from_u64(seed);
        match kind % 5 {
            0 => Src::Cbr {
                len: r.gen_range(64..1_500),
                rate: r.gen_range(1u64..40) * 250_000_000,
                // On a 1 µs grid, like the incast below: ties are likely.
                start: r.gen_range(0u64..50) * 1_000,
            },
            1 => Src::Poisson {
                pps: r.gen_range(1e4..5e6),
                seed: r.gen_range(0..u64::MAX),
            },
            2 => Src::OnOff {
                burst: r.gen_range(1..16),
                rate: r.gen_range(1u64..40) * 1_000_000_000,
                idle: r.gen_range(1u64..50) * 1_000,
            },
            3 => {
                let pkts = r.gen_range(1..16);
                Src::Incast {
                    fanin: r.gen_range(1..64),
                    pkts,
                    // 1000 B at 8 Gb/s is a 1 µs line gap: the burst fits.
                    period: (pkts as u64 + r.gen_range(0u64..50)) * 1_000,
                }
            }
            _ => Src::Markov {
                burst: r.gen_range(1.0..16.0),
                rate: r.gen_range(1u64..40) * 1_000_000_000,
                idle: r.gen_range(1u64..50) * 1_000,
                seed: r.gen_range(0..u64::MAX),
            },
        }
    }

    /// The source, its flows numbered from `flow`.
    fn build(self, flow: u32) -> Box<dyn TrafficSource> {
        let f = FlowId(flow);
        match self {
            Src::Cbr { len, rate, start } => {
                Box::new(CbrSource::new(f, len, rate, Nanos(start), END))
            }
            Src::Poisson { pps, seed } => Box::new(PoissonSource::new(f, 500, pps, END, seed)),
            Src::OnOff { burst, rate, idle } => {
                Box::new(OnOffSource::new(f, 700, burst, rate, Nanos(idle), END))
            }
            Src::Incast {
                fanin,
                pkts,
                period,
            } => Box::new(IncastSource::new(
                f,
                fanin,
                1_000,
                pkts,
                8_000_000_000,
                Nanos(period),
                END,
            )),
            Src::Markov {
                burst,
                rate,
                idle,
                seed,
            } => Box::new(MarkovOnOffSource::new(
                f,
                900,
                burst,
                rate,
                Nanos(idle),
                END,
                seed,
            )),
        }
    }
}

fn build_mix(mix: &[Src]) -> Vec<Box<dyn TrafficSource>> {
    mix.iter()
        .enumerate()
        .map(|(i, s)| s.build(i as u32 * 100))
        .collect()
}

/// `SizeDistribution::web_search()` or a bounded Pareto on 1 KB – 1 MB.
fn distribution(pareto: bool) -> SizeDistribution {
    if pareto {
        SizeDistribution::bounded_pareto(1.2, 1_000, 1_000_000)
    } else {
        SizeDistribution::web_search()
    }
}

proptest! {
    /// `merge` equals the stable sort on random mixes of all five
    /// sources. Every mix holds two CBR sources with one start and rate
    /// and a 64-sender incast, all on a 1 µs grid, inserted at random
    /// places: their packets tie across sources at every microsecond, so
    /// the order at a shared instant is checked, not only the times.
    #[test]
    fn merge_equals_the_stable_sort(
        extra in proptest::collection::vec((0u8..5, any::<u64>()), 0..10),
        at in (0usize..10, 0usize..10, 0usize..10),
        start in 0u64..8,
    ) {
        let mut mix: Vec<Src> = extra.iter().map(|&(k, s)| Src::random(k, s)).collect();
        let twin = Src::Cbr { len: 1_000, rate: 1_000_000_000, start: start * 1_000 };
        let storm = Src::Incast { fanin: 64, pkts: 8, period: 40_000 };
        for (src, pos) in [(twin, at.0), (twin, at.1), (storm, at.2)] {
            mix.insert(pos.min(mix.len()), src);
        }
        let merged = merge(build_mix(&mix));
        let reference = merge_by_sort(build_mix(&mix));
        prop_assert!(merged.windows(2).any(|w| w[0].arrival == w[1].arrival));
        prop_assert_eq!(merged, reference);
    }

    /// `flow_workload` equals its old generate-then-sort, packets and
    /// specs, on both size distributions. A flow rate of 1e9/s rounds
    /// most start gaps to zero, so many flows start at one instant and
    /// their packets tie all the way through.
    #[test]
    fn flow_workload_equals_generate_then_sort(
        seed in any::<u64>(),
        n_flows in 1usize..40,
        pareto in any::<bool>(),
        rate in 0usize..3,
        mtu in 0usize..3,
    ) {
        let dist = distribution(pareto);
        let flows_per_sec = [1e4, 1e6, 1e9][rate];
        let mtu = [1_000, 1_500, 9_000][mtu];
        let (pkts, specs) = flow_workload(n_flows, flows_per_sec, &dist, 10_000_000_000, mtu, seed);
        let (ref_pkts, ref_specs) =
            flow_workload_by_sort(n_flows, flows_per_sec, &dist, 10_000_000_000, mtu, seed);
        prop_assert_eq!(specs, ref_specs);
        prop_assert_eq!(pkts.len(), pkts.capacity());
        prop_assert_eq!(pkts, ref_pkts);
    }
}

/// A scripted source: packets stamped from a list, in list order.
struct Script(std::vec::IntoIter<u64>);

impl TrafficSource for Script {
    fn next_packet(&mut self) -> Option<Packet> {
        self.0
            .next()
            .map(|t| Packet::new(t, FlowId(0), 100, Nanos(t)))
    }
}

#[test]
#[should_panic(expected = "sources must be time-sorted")]
fn a_source_that_goes_back_in_time_is_refused() {
    let steady = Script(vec![0, 10, 20].into_iter());
    let backwards = Script(vec![5, 15, 12].into_iter());
    let _ = merge(vec![Box::new(steady), Box::new(backwards)]);
}
