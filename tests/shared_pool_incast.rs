//! The §5.1/§6.1 acceptance scenario: a 16-port fabric on **one** shared
//! packet pool, with an incast storm pinning the buffer through port 0
//! while every other port carries short bursts.
//!
//! What must hold (and is asserted here):
//!
//! * under the **naive** shared cap (`AdmissionPolicy::Unlimited`) the
//!   storm locks the victims out — every victim port drops;
//! * under **Choudhury–Hahne dynamic thresholds** the hog is fenced to a
//!   fraction of the pool, victim drops go to zero, and each victim
//!   port's departure trace is **identical** to its private-slab
//!   baseline — sharing one memory costs an unpressured port nothing;
//! * the per-port traces of the shared-pool fabric are bit-identical
//!   across all three PIFO backends and across worker counts;
//! * every offered packet is accounted (departed or dropped), and the
//!   pool's per-port counters reconcile with the traces.

use pifo::prelude::*;

const PORTS: usize = 16;
const POOL_CAPACITY: usize = 1_024;
/// 64 synchronized senders, 16 packets each: one 1 024-packet wave.
const WAVE_PKTS: u64 = 1_024;
const WAVES: u64 = 25;
const WAVE_PERIOD_NS: u64 = 20_000;
/// Per-victim burst: bigger than the scheduling round (32), so a pinned
/// pool with only `burst` slots free must drop part of it.
const VICTIM_BURST: u64 = 64;

/// Hog: `WAVES` incast waves of 1 024 packets into port 0 (flows 0..63),
/// 8× past the port's drain rate — the pool stays pinned for the whole
/// run. Victims: one 64-packet burst per port 1..15 (flow 100+port),
/// staggered 30 µs apart starting mid-storm.
fn arrivals() -> Vec<Packet> {
    let mut out = Vec::new();
    let mut id = 0u64;
    for wave in 0..WAVES {
        for k in 0..WAVE_PKTS {
            out.push(Packet::new(
                id,
                FlowId((k % 64) as u32),
                1_000,
                Nanos(wave * WAVE_PERIOD_NS),
            ));
            id += 1;
        }
    }
    for port in 1..PORTS as u64 {
        for _ in 0..VICTIM_BURST {
            out.push(Packet::new(
                id,
                FlowId(100 + port as u32),
                1_000,
                Nanos(50_000 + 30_000 * (port - 1)),
            ));
            id += 1;
        }
    }
    out.sort_by_key(|p| p.arrival);
    out
}

fn classify(p: &Packet) -> usize {
    if p.flow.0 < 64 {
        0
    } else {
        (p.flow.0 as usize - 100) % PORTS
    }
}

fn port_tree(backend: PifoBackend, pool: PoolHandle) -> ScheduleTree {
    let mut b = TreeBuilder::new();
    b.with_backend(backend);
    let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
    b.build_in_pool(Box::new(move |_| root), pool)
        .expect("single-node tree")
}

/// The private-slab baseline: the hog port tail-drops against its own
/// `POOL_CAPACITY`-deep buffer; victims have unbounded private slabs.
fn run_private(backend: PifoBackend, workers: usize, arr: &[Packet]) -> SwitchRun {
    let mut sb = SwitchBuilder::new(10_000_000_000);
    for port in 0..PORTS {
        let mut b = TreeBuilder::new();
        b.with_backend(backend);
        if port == 0 {
            b.buffer_limit(POOL_CAPACITY);
        }
        let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
        sb.add_port(b.build(Box::new(move |_| root)).expect("tree"));
    }
    sb.build(Box::new(classify)).run(arr, workers)
}

fn run_shared(
    backend: PifoBackend,
    workers: usize,
    policy: AdmissionPolicy,
    arr: &[Packet],
) -> (SwitchRun, PoolStats) {
    let mut sb = SwitchBuilder::new(10_000_000_000);
    sb.with_shared_pool(POOL_CAPACITY, policy);
    for _ in 0..PORTS {
        sb.add_shared_port(|h| port_tree(backend, h));
    }
    let mut switch = sb.build(Box::new(classify));
    let run = switch.run(arr, workers);
    let stats = switch.pool_of(0).stats();
    (run, stats)
}

#[test]
fn incast_on_a_shared_pool_is_fenced_by_dynamic_thresholds() {
    let arr = arrivals();
    let offered_hog = WAVES * WAVE_PKTS;
    let offered_victims = (PORTS as u64 - 1) * VICTIM_BURST;
    assert_eq!(arr.len() as u64, offered_hog + offered_victims);

    let backend = PifoBackend::Bucket;
    let baseline = run_private(backend, 1, &arr);
    assert_eq!(
        baseline.ports[1..].iter().map(|p| p.drops).sum::<u64>(),
        0,
        "private victims never drop"
    );

    // --- Naive shared cap: the storm locks the victims out. ------------
    let (naive, naive_stats) = run_shared(backend, 1, AdmissionPolicy::Unlimited, &arr);
    for port in 1..PORTS {
        assert!(
            naive.ports[port].drops > 0,
            "naive cap: victim port {port} must be locked out (0 drops)"
        );
    }
    assert!(naive_stats.ports[0].occupancy == 0, "fabric drained");

    // --- Dynamic thresholds: victims fenced off from the storm. --------
    let (fenced, fenced_stats) = run_shared(
        backend,
        1,
        AdmissionPolicy::DynamicThreshold { num: 1, den: 1 },
        &arr,
    );
    for port in 1..PORTS {
        assert_eq!(
            fenced.ports[port].drops, 0,
            "dynamic thresholds: victim port {port} must not drop"
        );
        // The victim's departure trace is identical to its private-slab
        // baseline: packet for packet, instant for instant.
        let (a, b) = (&baseline.ports[port], &fenced.ports[port]);
        assert_eq!(
            a.departures.len(),
            b.departures.len(),
            "victim port {port} departure count vs baseline"
        );
        for (x, y) in a.departures.iter().zip(&b.departures) {
            assert_eq!(
                x, y,
                "victim port {port} trace diverges from private baseline"
            );
        }
    }
    // The hog still pays: it is fenced to a fraction of the pool, so its
    // drops exceed the naive run's.
    assert!(
        fenced.ports[0].drops >= naive.ports[0].drops,
        "fencing the hog cannot reduce its drops (fenced {} < naive {})",
        fenced.ports[0].drops,
        naive.ports[0].drops
    );

    // --- Accounting: every offered packet departed or was dropped, and
    // the pool counters reconcile with the traces. ----------------------
    for (run, stats) in [(&naive, &naive_stats), (&fenced, &fenced_stats)] {
        assert_eq!(run.misrouted, 0);
        assert_eq!(
            run.total_departures() as u64 + run.total_drops(),
            offered_hog + offered_victims,
            "offered-packet conservation"
        );
        assert_eq!(stats.live, 0, "pool drains clean");
        for port in 0..PORTS {
            assert_eq!(
                stats.ports[port].rejected, run.ports[port].drops,
                "port {port}: pool reject counter vs trace drops"
            );
            assert_eq!(
                stats.ports[port].admitted,
                run.ports[port].departures.len() as u64,
                "port {port}: admitted packets all departed"
            );
        }
    }
}

/// Per-port departure traces of the shared-pool fabric are bit-identical
/// across every **exact** PIFO backend and worker count. (The
/// approximate backends legally reorder departures; their distance from
/// the exact schedule is measured by the inversion-metrics layer, not
/// pinned here.)
#[test]
fn shared_pool_traces_bit_identical_across_backends_and_drain_modes() {
    let arr = arrivals();
    let policy = AdmissionPolicy::DynamicThreshold { num: 1, den: 1 };
    let (reference, _) = run_shared(PifoBackend::SortedArray, 1, policy, &arr);
    assert!(
        reference.total_drops() > 0,
        "the scenario must keep admission pressure real"
    );
    for backend in PifoBackend::EXACT {
        for workers in [1, 4] {
            let (run, _) = run_shared(backend, workers, policy, &arr);
            for (port, (a, b)) in reference.ports.iter().zip(&run.ports).enumerate() {
                assert_eq!(
                    a.drops, b.drops,
                    "[{backend}/{workers}] port {port} drops diverge"
                );
                assert_eq!(
                    a.departures.len(),
                    b.departures.len(),
                    "[{backend}/{workers}] port {port} departure count diverges"
                );
                for (x, y) in a.departures.iter().zip(&b.departures) {
                    assert_eq!(x, y, "[{backend}/{workers}] port {port} trace diverges");
                }
            }
        }
    }
}

/// The admission-safe windows a parallel drain of one shared pool would
/// need, counted on this storm. Cut time into windows `[T, T+W)` and
/// call a window safe when every port's arrivals in it pass the dynamic
/// threshold even if all of the window's arrivals `A` land and nothing
/// leaves: `occ_port(T) + A_port < α·(cap − live(T) − |A|)`. Only a safe
/// window's ports could run on separate workers and still reproduce the
/// one-worker drain. The pool state at `T` is read from the gauges every
/// round samples (`sample_every: 1`; the trees are unshaped, so a port's
/// depth is its pool occupancy).
///
/// Safe windows hold under half of the admitted packets at every `W`
/// tried: each incast wave lands 1 024 packets in one instant, more than
/// the whole pool, so no window containing one is safe.
#[test]
fn safe_windows_hold_under_half_of_the_admitted_packets() {
    let (num, den) = (1, 1);
    let arr = arrivals();
    let mut sb = SwitchBuilder::new(10_000_000_000);
    sb.with_shared_pool(
        POOL_CAPACITY,
        AdmissionPolicy::DynamicThreshold { num, den },
    );
    sb.with_telemetry(TelemetryConfig {
        path_records: false,
        sample_every: 1,
    });
    for _ in 0..PORTS {
        sb.add_shared_port(|h| port_tree(PifoBackend::Bucket, h));
    }
    let run = sb.build(Box::new(classify)).run(&arr, 1);
    let admitted: std::collections::HashSet<u64> = run
        .ports
        .iter()
        .flat_map(|p| p.departures.iter().map(|d| d.packet.id.0))
        .collect();

    // Each port's occupancy after its last round before `t`, and the pool
    // live count after the fabric's last round before `t` (rounds run in
    // `(time, port)` order). Gauges: `[depth, pool occupancy, ..]`.
    let state_before = |t: Nanos| {
        let mut occ = [0usize; PORTS];
        let mut last = (Nanos::ZERO, 0, 0);
        for (port, trace) in run.ports.iter().enumerate() {
            let n = trace.gauges[0].points.partition_point(|g| g.time < t);
            if n > 0 {
                occ[port] = trace.gauges[0].points[n - 1].value as usize;
                let live = trace.gauges[1].points[n - 1];
                if (live.time, port) >= (last.0, last.1) {
                    last = (live.time, port, live.value as usize);
                }
            }
        }
        (occ, last.2)
    };

    let mut shares = Vec::new();
    for w_us in [1u64, 10, 100] {
        let w = w_us * 1_000;
        let (mut safe, mut total, mut i) = (0usize, 0usize, 0usize);
        while i < arr.len() {
            let start = arr[i].arrival.as_nanos() / w * w;
            let end = arr.partition_point(|p| p.arrival.as_nanos() < start + w);
            let window = &arr[i..end];
            let mut per_port = [0usize; PORTS];
            for p in window {
                per_port[classify(p)] += 1;
            }
            let (occ, live) = state_before(Nanos(start));
            let free = POOL_CAPACITY.saturating_sub(live + window.len());
            let is_safe =
                (0..PORTS).all(|p| per_port[p] == 0 || occ[p] + per_port[p] < free * num / den);
            let here = window.iter().filter(|p| admitted.contains(&p.id.0)).count();
            total += here;
            if is_safe {
                safe += here;
            }
            i = end;
        }
        let share = safe as f64 / total as f64;
        println!("W = {w_us} us: {safe} of {total} admitted packets in safe windows ({share:.3})");
        shares.push(share);
    }
    assert!(
        shares.iter().all(|&s| s < 0.5),
        "safe windows hold at least half the admitted packets: {shares:?}"
    );
}
