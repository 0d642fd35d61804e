//! Differential pin: [`DrainMode::Parallel`] produces a **bit-identical
//! merged departure trace** to the sequential `PerPacket` drain — across every
//! PIFO backend and three traffic shapes (synchronized incast, seeded
//! Markov on/off bursts, heavy-tailed bounded-Pareto flows), for both
//! private-slab fabrics (genuinely concurrent workers) and shared-pool
//! fabrics (the serial commit-order fallback), at several worker counts.
//!
//! "Merged trace" is the fabric-level departure sequence committed in
//! global `(start time, port, per-port order)` order — the order the
//! sequential `Switch::run` produces rounds in. Comparing it (and not
//! just per-port traces) pins the cross-port interleaving, which is
//! exactly what a buggy parallel drain would scramble.

use pifo_algos::Stfq;
use pifo_core::prelude::*;
use pifo_sim::switch::{DrainMode, SwitchBuilder, SwitchRun};
use pifo_sim::traffic::{
    flow_workload, merge, renumber, IncastSource, MarkovOnOffSource, SizeDistribution,
    TrafficSource,
};
use pifo_sim::Departure;

const PORTS: usize = 4;

/// Flatten a run into the global `(start, port, per-port index)`-ordered
/// departure sequence, tagged with the transmitting port.
fn merged_departures(run: &SwitchRun) -> Vec<(usize, Departure)> {
    let mut all: Vec<(usize, usize, Departure)> = Vec::with_capacity(run.total_departures());
    for (port, trace) in run.ports.iter().enumerate() {
        for (i, d) in trace.departures.iter().enumerate() {
            all.push((port, i, d.clone()));
        }
    }
    all.sort_by_key(|(port, i, d)| (d.start, *port, *i));
    all.into_iter().map(|(port, _, d)| (port, d)).collect()
}

fn assert_identical(label: &str, reference: &SwitchRun, candidate: &SwitchRun) {
    assert_eq!(
        reference.misrouted, candidate.misrouted,
        "[{label}] misroutes diverge"
    );
    for (port, (a, b)) in reference.ports.iter().zip(&candidate.ports).enumerate() {
        assert_eq!(a.drops, b.drops, "[{label}] port {port} drops diverge");
        assert_eq!(
            a.departures, b.departures,
            "[{label}] port {port} trace diverges"
        );
    }
    assert_eq!(
        merged_departures(reference),
        merged_departures(candidate),
        "[{label}] merged (time, port)-ordered trace diverges"
    );
}

/// Synchronized incast: 16 senders bursting at one epoch cadence.
fn incast_arrivals() -> Vec<Packet> {
    let mut arr: Vec<Packet> = Vec::new();
    let mut src = IncastSource::new(
        FlowId(0),
        16,
        1_000,
        6,
        8_000_000_000,
        Nanos::from_micros(20),
        Nanos::from_micros(300),
    );
    while let Some(p) = src.next_packet() {
        arr.push(p);
    }
    renumber(&mut arr);
    arr
}

/// Seeded Markov on/off bursts, one source per flow.
fn markov_arrivals() -> Vec<Packet> {
    let sources: Vec<Box<dyn TrafficSource>> = (0..8u32)
        .map(|f| {
            Box::new(MarkovOnOffSource::new(
                FlowId(f),
                1_000,
                12.0,
                8_000_000_000,
                Nanos::from_micros(3),
                Nanos::from_micros(300),
                0xC0FFEE ^ f as u64,
            )) as Box<dyn TrafficSource>
        })
        .collect();
    let mut arr = merge(sources);
    renumber(&mut arr);
    arr
}

/// Heavy-tailed bounded-Pareto flow workload (pFabric-style).
fn pareto_arrivals() -> Vec<Packet> {
    let dist = SizeDistribution::bounded_pareto(1.2, 1_000, 200_000);
    let (mut arr, _) = flow_workload(60, 400_000.0, &dist, 8_000_000_000, 1_000, 0xBEEF);
    renumber(&mut arr);
    arr
}

fn patterns() -> Vec<(&'static str, Vec<Packet>)> {
    vec![
        ("incast", incast_arrivals()),
        ("markov", markov_arrivals()),
        ("pareto", pareto_arrivals()),
    ]
}

fn private_switch(backend: PifoBackend) -> pifo_sim::Switch {
    let mut sb = SwitchBuilder::new(1_000_000_000);
    for _ in 0..PORTS {
        let mut b = TreeBuilder::new();
        b.with_backend(backend);
        // Tight private slabs keep admission rejects on the compared path.
        b.buffer_limit(48);
        let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
        sb.add_port(b.build(Box::new(move |_| root)).unwrap());
    }
    // No horizon: fabrics drain to empty, so conservation and
    // pool-coherence assertions hold exactly.
    sb.with_burst(8);
    sb.build(Box::new(|p: &Packet| p.flow.0 as usize % PORTS))
}

fn shared_switch(backend: PifoBackend) -> pifo_sim::Switch {
    let mut sb = SwitchBuilder::new(1_000_000_000);
    sb.with_shared_pool(128, AdmissionPolicy::DynamicThreshold { num: 1, den: 1 });
    for _ in 0..PORTS {
        sb.add_shared_port(|pool| {
            let mut b = TreeBuilder::new();
            b.with_backend(backend);
            let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
            b.build_in_pool(Box::new(move |_| root), pool).unwrap()
        });
    }
    sb.with_burst(8);
    sb.build(Box::new(|p: &Packet| p.flow.0 as usize % PORTS))
}

/// The acceptance check: for all 3 backends × 3 traffic patterns,
/// the parallel drain's merged trace is bit-identical to the sequential
/// one, on private-slab fabrics (real worker concurrency) at workers ∈
/// {1, 2, 4} and with the auto worker count.
#[test]
fn parallel_drain_matches_sequential_private_slabs() {
    for (pattern, arrivals) in patterns() {
        assert!(
            arrivals.len() > 200,
            "{pattern} workload must be non-trivial"
        );
        for backend in PifoBackend::ALL {
            let reference = private_switch(backend).run(&arrivals, DrainMode::PerPacket);
            assert!(reference.total_departures() > 0);
            for workers in [1usize, 2, 4, 0] {
                let parallel =
                    private_switch(backend).run(&arrivals, DrainMode::Parallel { workers });
                assert_identical(
                    &format!("{backend}/{pattern}/parallel-w{workers}"),
                    &reference,
                    &parallel,
                );
            }
        }
    }
}

/// Shared-pool fabrics keep the guarantee through the serial
/// commit-order fallback: admission coupling across ports is preserved
/// exactly, so traces (and pool counters) match the sequential run.
#[test]
fn parallel_drain_matches_sequential_shared_pool() {
    for (pattern, arrivals) in patterns() {
        for backend in PifoBackend::ALL {
            let reference = shared_switch(backend).run(&arrivals, DrainMode::PerPacket);
            for workers in [1usize, 4] {
                let mut sw = shared_switch(backend);
                let parallel = sw.run(&arrivals, DrainMode::Parallel { workers });
                assert_identical(
                    &format!("{backend}/{pattern}/shared/parallel-w{workers}"),
                    &reference,
                    &parallel,
                );
                let pool = sw.shared_pool().expect("built with a shared pool");
                assert_eq!(pool.stats().live, 0, "fabric drained clean");
                pool.borrow().assert_coherent();
            }
        }
    }
}

/// The drop accounting stays exact under parallel drain: every offered
/// packet is either transmitted, dropped by admission, or misrouted.
#[test]
fn parallel_drain_conserves_packets() {
    let arrivals = incast_arrivals();
    let run =
        private_switch(PifoBackend::Bucket).run(&arrivals, DrainMode::Parallel { workers: 4 });
    assert_eq!(
        run.total_departures() as u64 + run.total_drops() + run.misrouted,
        arrivals.len() as u64,
        "offered = transmitted + dropped + misrouted"
    );
}
