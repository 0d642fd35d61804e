//! The telemetry contract, property-tested end to end:
//!
//! 1. **Observes, never steers** — enabling the flight recorder and
//!    path records leaves departure traces bit-identical, across every
//!    exact backend × one or two workers.
//! 2. **Deterministic** — two identically-built runs produce
//!    byte-identical event streams and snapshots, and the event stream
//!    is invariant across worker counts.
//! 3. **Reconciles** — telemetry-derived waits equal the
//!    departure-derived waits of [`waits_of`](pifo::sim::metrics), and
//!    the same holds through `latency_stats` percentiles; every record's
//!    hops retrace its leaf-to-root walk and their residences sum to its
//!    wait; lifetime event counts match the trace (enqueues and pool
//!    allocs = admitted, dequeues and pool frees = departed, drop events
//!    = trace drops).
//!
//! The same properties are pinned on the lossless fabric, whose runs
//! add synthesized pause/resume events and fabric gauges.
//!
//! On failure, the offending run's event stream is dumped to
//! `$CARGO_TARGET_TMPDIR/telemetry-dumps/` so CI can upload it as an
//! artifact (mirroring the domino diagnostics pattern).

use pifo::prelude::*;
use pifo_core::telemetry::TelemetrySnapshot;
use proptest::prelude::*;
use std::path::PathBuf;

const RATE_BPS: u64 = 10_000_000_000;

/// Best-effort CI artifact: the snapshot JSON of a failing run.
fn dump_snapshot(name: &str, snap: &TelemetrySnapshot) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("telemetry-dumps");
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = std::fs::write(dir.join(format!("{name}.json")), snap.to_json());
    }
}

/// A deterministic bursty workload parameterized by the proptest seed
/// values: `flows` flows spraying `waves` waves of `wave_pkts` packets.
fn arrivals(flows: u32, waves: u64, wave_pkts: u64) -> Vec<Packet> {
    let mut out = Vec::new();
    let mut id = 0u64;
    for wave in 0..waves {
        for k in 0..wave_pkts {
            out.push(Packet::new(
                id,
                FlowId((k % flows as u64) as u32),
                1_000,
                Nanos(wave * 15_000),
            ));
            id += 1;
        }
    }
    out
}

fn build_switch(
    ports: usize,
    pool: usize,
    backend: PifoBackend,
    telemetry: Option<TelemetryConfig>,
) -> Switch {
    let mut sb = SwitchBuilder::new(RATE_BPS);
    sb.with_burst(8);
    sb.with_shared_pool(pool, AdmissionPolicy::DynamicThreshold { num: 1, den: 1 });
    if let Some(cfg) = telemetry {
        sb.with_telemetry(cfg);
    }
    for _ in 0..ports {
        sb.add_shared_port(|h| {
            let mut b = TreeBuilder::new();
            b.with_backend(backend);
            let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
            b.build_in_pool(Box::new(move |_| root), h).expect("tree")
        });
    }
    sb.build(Box::new(move |p: &Packet| p.flow.0 as usize % ports))
}

/// Four private-slab ports, each a two-level HPFQ-style tree: the root
/// shares the link 1:3 between a FIFO class held to 1 Gb/s, one packet
/// of burst, by a token bucket on the leaf and a WFQ class. The shaped leaf is FIFO so that a
/// packet never departs before its own parked walk resumed — every
/// record then carries the full leaf-to-root walk.
fn build_shaped_hpfq_switch(telemetry: TelemetryConfig) -> Switch {
    const PORTS: usize = 4;
    let mut sb = SwitchBuilder::new(RATE_BPS);
    sb.with_burst(8).with_telemetry(telemetry);
    for _ in 0..PORTS {
        let mut b = TreeBuilder::new();
        // Children get the two ids after the root's.
        let weights = WeightTable::from_pairs([(FlowId(1), 1), (FlowId(2), 3)]);
        let root = b.add_root("wfq_root", Box::new(Stfq::new(weights)));
        let shaped = b.add_child(root, "fifo_shaped", Box::new(Fifo));
        let open = b.add_child(root, "wfq_open", Box::new(Stfq::unweighted()));
        assert_eq!((shaped.as_flow(), open.as_flow()), (FlowId(1), FlowId(2)));
        b.set_shaper(
            shaped,
            Box::new(TokenBucketFilter::new(1_000_000_000, 1_000)),
        );
        let classifier = move |p: &Packet| {
            if (p.flow.0 as usize / PORTS) % 2 == 0 {
                shaped
            } else {
                open
            }
        };
        sb.add_port(b.build(Box::new(classifier)).expect("tree"));
    }
    sb.build(Box::new(|p: &Packet| p.flow.0 as usize % PORTS))
}

const WORKERS: [usize; 2] = [1, 2];

proptest! {
    /// Contract 1 + 2 on the plain switch: telemetry-on departures are
    /// bit-identical to telemetry-off in every exact backend × worker
    /// count, identical builds give identical snapshots, and the event
    /// stream is worker-count invariant; its event counts reconcile with
    /// the trace (contract 3).
    #[test]
    fn switch_telemetry_observes_and_is_deterministic(
        flows in 1u32..24,
        waves in 1u64..4,
        wave_pkts in 16u64..128,
        ports in 2usize..5,
    ) {
        let arr = arrivals(flows, waves, wave_pkts);
        let pool = 64 * ports;
        let cfg = TelemetryConfig::with_paths();

        for backend in PifoBackend::EXACT {
            let mut stream_ref: Option<TelemetrySnapshot> = None;
            let mut run_ref: Option<SwitchRun> = None;
            for workers in WORKERS {
                let base = build_switch(ports, pool, backend, None).run(&arr, workers);

                let mut sw = build_switch(ports, pool, backend, Some(cfg));
                let run = sw.run(&arr, workers);
                let snap = sw.telemetry_snapshot(&run).expect("telemetry on");

                // 3: the lifetime event counts reconcile with the trace.
                let departed = run.total_departures() as u64;
                let drops = run.total_drops();
                prop_assert_eq!(departed + drops, arr.len() as u64, "every packet accounted");
                for (kind, want, what) in [
                    (EventKind::Enqueue, departed, "enqueues = admitted"),
                    (EventKind::PoolAlloc, departed, "allocs = admitted"),
                    (EventKind::Dequeue, departed, "dequeues = departed"),
                    (EventKind::PoolFree, departed, "frees = departed"),
                    (EventKind::Drop, drops, "drop events = trace drops"),
                ] {
                    prop_assert_eq!(snap.count(kind), want,
                        "[{}/{}] {}", backend, workers, what);
                }

                // 1: observes, never steers.
                for (a, b) in base.ports.iter().zip(&run.ports) {
                    prop_assert_eq!(&a.departures, &b.departures,
                        "[{}/{}] telemetry changed departures", backend, workers);
                    prop_assert_eq!(&a.drops, &b.drops);
                }

                // 2a: identical build -> byte-identical snapshot.
                let mut sw2 = build_switch(ports, pool, backend, Some(cfg));
                let run2 = sw2.run(&arr, workers);
                let snap2 = sw2.telemetry_snapshot(&run2).expect("telemetry on");
                if snap != snap2 {
                    dump_snapshot(&format!("rerun-a-{}-{}", backend.label(), workers), &snap);
                    dump_snapshot(&format!("rerun-b-{}-{}", backend.label(), workers), &snap2);
                    prop_assert!(false, "[{}/{}] rerun produced a different snapshot",
                        backend, workers);
                }
                prop_assert_eq!(snap.to_json(), snap2.to_json(), "JSON export must be stable");

                // 2c: so are the path logs, records and hops, which the
                // snapshot does not carry — across the rerun and, like
                // the event stream, across worker counts.
                let first = run_ref.get_or_insert_with(|| run.clone());
                for other in [&run2, &*first] {
                    for (port, (a, b)) in run.ports.iter().zip(&other.ports).enumerate() {
                        prop_assert_eq!(&a.paths, &b.paths,
                            "[{}/{}] port {} path records differ from the rerun's or the \
                             one-worker drain's", backend, workers, port);
                    }
                }

                // 2b: the event stream is worker-count invariant.
                match &stream_ref {
                    None => stream_ref = Some(snap),
                    Some(r) => {
                        if *r != snap {
                            dump_snapshot(&format!("workers-ref-{}", backend.label()), r);
                            dump_snapshot(&format!("workers-got-{}-{}", backend.label(), workers), &snap);
                            prop_assert!(false,
                                "[{}/{}] event stream differs from the one-worker drain",
                                backend, workers);
                        }
                    }
                }
            }
        }
    }

    /// Contract 3: the telemetry layer's per-packet waits reconcile
    /// exactly with the departure-derived waits — record for record,
    /// and through the `latency_stats` percentiles — on one worker or two,
    /// on a flat tree and on a shaped two-level one; and each record's
    /// hops retrace the packet's walk.
    #[test]
    fn path_record_waits_match_departure_waits(
        flows in 1u32..24,
        waves in 1u64..4,
        wave_pkts in 16u64..128,
    ) {
        let arr = arrivals(flows, waves, wave_pkts);
        let cfg = TelemetryConfig::with_paths();
        for workers in WORKERS {
            for shaped in [false, true] {
                let mut sw = if shaped {
                    build_shaped_hpfq_switch(cfg)
                } else {
                    build_switch(4, 256, PifoBackend::default(), Some(cfg))
                };
                let run = sw.run(&arr, workers);
                if shaped {
                    prop_assert_eq!(run.total_departures(), arr.len(), "nothing dropped");
                }

                for (i, port) in run.ports.iter().enumerate() {
                    prop_assert_eq!(port.paths.len(), port.departures.len(),
                        "one path record per departure");
                    let from_paths: Vec<u64> =
                        port.path_views().map(|r| r.wait().as_nanos()).collect();
                    let from_departures = pifo::sim::metrics::waits_of(&port.departures, None);
                    prop_assert_eq!(&from_paths, &from_departures,
                        "telemetry waits must equal departure waits");
                    prop_assert_eq!(
                        latency_stats(&from_paths),
                        latency_stats(&from_departures)
                    );
                    // Each record's hops are its own packet's walk through
                    // the tree: they start when the packet arrived and
                    // their residences add up to its departure's wait.
                    let tree = sw.port(i);
                    for (rec, dep) in port.path_views().zip(&port.departures) {
                        // The hops are the leaf-to-root walk, in order.
                        let hops = rec.hops();
                        prop_assert!(!rec.truncated);
                        let leaf = NodeId::from_index(hops[0].node as usize);
                        prop_assert!(tree.children(leaf).is_empty(), "first hop is a leaf");
                        let mut walk = vec![leaf];
                        while let Some(up) = tree.parent(*walk.last().expect("non-empty")) {
                            walk.push(up);
                        }
                        let nodes: Vec<NodeId> = hops
                            .iter()
                            .map(|h| NodeId::from_index(h.node as usize))
                            .collect();
                        prop_assert_eq!(&nodes, &walk,
                            "[{}] hops follow parent links up to the root", workers);
                        prop_assert_eq!(hops[0].entered, dep.packet.arrival,
                            "the leaf hop is entered at the packet's arrival");
                        prop_assert!(hops.windows(2).all(|w| w[0].entered <= w[1].entered),
                            "entry times never go back");
                        let total: u64 =
                            (0..hops.len()).map(|k| rec.residence(k).as_nanos()).sum();
                        prop_assert_eq!(Nanos(total), dep.wait,
                            "per-hop residences add up to the departure's wait");
                    }
                    if shaped {
                        prop_assert!(port.path_views().all(|r| r.hops().len() == 2));
                    }
                }
                if shaped {
                    let parked = run.ports.iter().flat_map(|p| p.path_views())
                        .filter(|r| r.residence(0) > Nanos::ZERO).count();
                    prop_assert!(parked > 0, "the shaper must hold some walk at its leaf");
                }
            }
        }
    }

    /// The lossless fabric: identical builds give byte-identical
    /// snapshots (including synthesized pause/resume events and fabric
    /// gauges), and telemetry leaves departures and the pause log
    /// untouched.
    #[test]
    fn lossless_telemetry_observes_and_is_deterministic(
        rate_x10 in 12u64..20,
        ports in 2usize..5,
    ) {
        let cfg = LosslessConfig::new(8, 2).with_headroom(16);
        let build = |telemetry: bool| {
            let mut sb = SwitchBuilder::new(RATE_BPS);
            sb.with_shared_pool(
                ports * 24,
                AdmissionPolicy::PortFlow {
                    port: Threshold::Static(24),
                    flow: Threshold::Unlimited,
                },
            );
            if telemetry {
                sb.with_telemetry(TelemetryConfig::with_paths());
            }
            for _ in 0..ports {
                sb.add_shared_port(|h| {
                    let mut b = TreeBuilder::new();
                    let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
                    b.build_in_pool(Box::new(move |_| root), h).expect("tree")
                });
            }
            let sw = sb.build(Box::new(move |p: &Packet| p.flow.0 as usize % ports));
            LosslessFabric::new(sw, cfg)
        };
        let sources = move || -> Vec<Box<dyn TrafficSource>> {
            (0..ports as u32)
                .map(|p| {
                    Box::new(CbrSource::new(
                        FlowId(p),
                        1_000,
                        rate_x10 * 1_000_000_000,
                        Nanos::ZERO,
                        Nanos(40_000),
                    )) as Box<dyn TrafficSource>
                })
                .collect()
        };

        let base = build(false).run(sources(), FaultPlan::none());
        let a = build(true).run(sources(), FaultPlan::none());
        let b = build(true).run(sources(), FaultPlan::none());

        // Observes, never steers — departures AND the pause log.
        for (x, y) in base.run.ports.iter().zip(&a.run.ports) {
            prop_assert_eq!(&x.departures, &y.departures);
            prop_assert_eq!(&x.drops, &y.drops);
        }
        prop_assert_eq!(&base.pause_events, &a.pause_events);

        // Identical builds -> byte-identical snapshots.
        let (sa, sb_) = (a.telemetry.expect("on"), b.telemetry.expect("on"));
        if sa != sb_ {
            dump_snapshot("lossless-rerun-a", &sa);
            dump_snapshot("lossless-rerun-b", &sb_);
            prop_assert!(false, "lossless rerun produced a different snapshot");
        }
        prop_assert!(base.telemetry.is_none(), "telemetry off must stay off");
    }
}

/// Pause/resume transitions surface as first-class events in the
/// lossless snapshot, and their counts reconcile with the pause log.
#[test]
fn lossless_snapshot_carries_pause_events() {
    use pifo_core::telemetry::EventKind;

    let ports = 4usize;
    let mut sb = SwitchBuilder::new(RATE_BPS);
    sb.with_shared_pool(
        ports * 24,
        AdmissionPolicy::PortFlow {
            port: Threshold::Static(24),
            flow: Threshold::Unlimited,
        },
    );
    sb.with_telemetry(TelemetryConfig::default());
    for _ in 0..ports {
        sb.add_shared_port(|h| {
            let mut b = TreeBuilder::new();
            let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
            b.build_in_pool(Box::new(move |_| root), h).expect("tree")
        });
    }
    let sw = sb.build(Box::new(move |p: &Packet| p.flow.0 as usize % ports));
    let mut fabric = LosslessFabric::new(sw, LosslessConfig::new(8, 2).with_headroom(16));

    let sources: Vec<Box<dyn TrafficSource>> = (0..ports as u32)
        .map(|p| {
            Box::new(CbrSource::new(
                FlowId(p),
                1_000,
                18_000_000_000,
                Nanos::ZERO,
                Nanos(60_000),
            )) as Box<dyn TrafficSource>
        })
        .collect();
    let run = fabric.run(sources, FaultPlan::none());
    let snap = run.telemetry.as_ref().expect("telemetry on");

    assert!(
        run.count_events(PauseAction::Pause) > 0,
        "the overdriven fabric must pause"
    );
    assert_eq!(
        snap.count(EventKind::Pause),
        run.count_events(PauseAction::Pause) as u64,
        "pause events reconcile with the pause log"
    );
    assert_eq!(
        snap.count(EventKind::Resume),
        run.count_events(PauseAction::Resume) as u64,
        "resume events reconcile with the pause log"
    );
    assert_eq!(run.total_drops(), 0, "lossless stays lossless");
}

/// Every private-pool tree is port 0 of its own pool, yet each port's
/// trace events and path records name the fabric port that recorded
/// them, at one worker and at two.
#[test]
fn private_ports_name_their_fabric_port() {
    let arr = arrivals(16, 2, 64);
    for workers in WORKERS {
        let mut sw = build_shaped_hpfq_switch(TelemetryConfig::with_paths());
        let run = sw.run(&arr, workers);
        let snap = sw.telemetry_snapshot(&run).expect("telemetry on");
        // The classifier sends flow `f` to port `f % ports`, and every
        // tree event carries its packet's flow.
        let ports = run.ports.len();
        assert!(!snap.events.is_empty(), "the recorder kept events");
        for ev in &snap.events {
            assert_eq!(
                ev.port as usize,
                ev.flow.0 as usize % ports,
                "[{workers} workers] {ev:?} names another port"
            );
        }
        for (i, trace) in run.ports.iter().enumerate() {
            assert!(!trace.paths.is_empty(), "port {i} records paths");
            assert!(
                trace.path_views().all(|r| r.port as usize == i),
                "[{workers} workers] port {i}'s path records name another port"
            );
        }
    }
}
