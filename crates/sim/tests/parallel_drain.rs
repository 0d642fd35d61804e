//! Differential pin: the pool-grouped drain produces a **bit-identical
//! merged departure trace** at every worker count — across every PIFO
//! backend and three traffic shapes (synchronized incast, seeded Markov
//! on/off bursts, heavy-tailed bounded-Pareto flows), for private-slab
//! fabrics (one group per port, genuinely concurrent workers),
//! shared-pool fabrics (one group, the caller's thread) and a mix of
//! both (the shared ports first, as a switch lays them out). The reference is `Switch::run(.., 1)`, the one-worker drain.
//!
//! "Merged trace" is the fabric-level departure sequence committed in
//! global `(start time, port, per-port order)` order — the order a
//! one-worker `Switch::run` produces rounds in. Comparing it (and not
//! just per-port traces) pins the cross-port interleaving, which is
//! exactly what a buggy parallel drain would scramble.

use pifo_algos::Stfq;
use pifo_core::prelude::*;
use pifo_sim::switch::{SwitchBuilder, SwitchRun};
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
            let reference = private_switch(backend).run(&arrivals, 1);
            assert!(reference.total_departures() > 0);
            for workers in [1usize, 2, 4, 0] {
                let parallel = private_switch(backend).run(&arrivals, workers);
                assert_identical(
                    &format!("{backend}/{pattern}/parallel-w{workers}"),
                    &reference,
                    &parallel,
                );
            }
        }
    }
}

/// A fabric on one shared pool is one group, drained on the caller's
/// thread whatever the worker count: admission coupling across ports is
/// preserved exactly, so traces (and pool counters) match one worker's.
#[test]
fn parallel_drain_matches_sequential_shared_pool() {
    for (pattern, arrivals) in patterns() {
        for backend in PifoBackend::ALL {
            let reference = shared_switch(backend).run(&arrivals, 1);
            for workers in [1usize, 4] {
                let mut sw = shared_switch(backend);
                let parallel = sw.run(&arrivals, workers);
                assert_identical(
                    &format!("{backend}/{pattern}/shared/parallel-w{workers}"),
                    &reference,
                    &parallel,
                );
                let pool = sw.pool_of(0);
                assert_eq!(pool.live(), 0, "fabric drained clean");
                pool.assert_coherent();
            }
        }
    }
}

/// One shared pool of four ports plus four private ports: five groups,
/// the pool's on the caller's thread and the private ports dealt
/// round-robin. Every worker count must reproduce the one-worker
/// drain's traces and every pool's counters.
#[test]
fn mixed_pools_match_one_worker() {
    const SHARED: usize = 4;
    const MIXED: usize = 8;
    let build = |backend: PifoBackend| {
        let mut sb = SwitchBuilder::new(1_000_000_000);
        sb.with_shared_pool(64, AdmissionPolicy::DynamicThreshold { num: 1, den: 1 });
        let tree = |pool: Option<PoolHandle>| {
            let mut b = TreeBuilder::new();
            b.with_backend(backend);
            let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
            let classify: Classifier = Box::new(move |_| root);
            match pool {
                Some(pool) => b.build_in_pool(classify, pool).unwrap(),
                None => {
                    b.buffer_limit(24);
                    b.build(classify).unwrap()
                }
            }
        };
        for _ in 0..SHARED {
            sb.add_shared_port(|pool| tree(Some(pool)));
        }
        for _ in SHARED..MIXED {
            sb.add_port(tree(None));
        }
        sb.with_burst(8);
        sb.build(Box::new(|p: &Packet| p.flow.0 as usize % MIXED))
    };
    // The shared pool (read through port 0), then each private pool.
    let pool_stats = |sw: &pifo_sim::Switch| -> Vec<PoolStats> {
        std::iter::once(0)
            .chain(SHARED..MIXED)
            .map(|i| {
                let pool = sw.pool_of(i);
                pool.assert_coherent();
                pool.stats()
            })
            .collect()
    };
    for (pattern, arrivals) in patterns() {
        for backend in PifoBackend::ALL {
            let mut sw = build(backend);
            let reference = sw.run(&arrivals, 1);
            assert!(
                reference.total_drops() > 0,
                "{pattern}: admission must reject"
            );
            let reference_pools = pool_stats(&sw);
            for workers in [1usize, 2, 3, 8, 0] {
                let label = format!("{backend}/{pattern}/mixed/w{workers}");
                let mut sw = build(backend);
                let run = sw.run(&arrivals, workers);
                assert_identical(&label, &reference, &run);
                assert_eq!(
                    pool_stats(&sw),
                    reference_pools,
                    "[{label}] pool counters diverge"
                );
            }
        }
    }
}

/// The drop accounting stays exact under parallel drain: every offered
/// packet is either transmitted, dropped by admission, or misrouted.
#[test]
fn parallel_drain_conserves_packets() {
    let arrivals = incast_arrivals();
    let run = private_switch(PifoBackend::Bucket).run(&arrivals, 4);
    assert_eq!(
        run.total_departures() as u64 + run.total_drops() + run.misrouted,
        arrivals.len() as u64,
        "offered = transmitted + dropped + misrouted"
    );
}
