//! Golden digests of the telemetry output: the `pifo-telemetry-v1`
//! snapshot JSON and every port's path log, on a shaped two-level switch
//! and on a lossless fabric that pauses. Any change to what telemetry
//! records, to the order it records it in, or to how the snapshot is
//! rendered fails here; a deliberate change re-records the digests.

use pifo::prelude::*;
use pifo::sim::PortTrace;
use pifo_core::telemetry::TelemetrySnapshot;

const RATE_BPS: u64 = 10_000_000_000;

/// FNV-1a over bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

fn json_digest(snap: &TelemetrySnapshot) -> u64 {
    let mut h = Fnv::new();
    h.bytes(snap.to_json().as_bytes());
    h.0
}

/// Every record's identity, flags and instants, then its hops, port by
/// port.
fn paths_digest(ports: &[PortTrace]) -> u64 {
    let mut h = Fnv::new();
    for (port, trace) in ports.iter().enumerate() {
        h.word(port as u64);
        h.word(trace.paths.len() as u64);
        for r in trace.path_views() {
            for w in [
                r.packet,
                r.flow.0 as u64,
                r.port as u64,
                r.truncated as u64,
                r.enqueued.as_nanos(),
                r.departed.as_nanos(),
                r.hops().len() as u64,
            ] {
                h.word(w);
            }
            for hop in r.hops() {
                for w in [
                    hop.node as u64,
                    hop.rank,
                    hop.depth as u64,
                    hop.entered.as_nanos(),
                ] {
                    h.word(w);
                }
            }
        }
    }
    h.0
}

/// Four private-slab ports, each a root sharing the link 1:3 between a
/// FIFO leaf held to 1 Gb/s by a token bucket and an open STFQ leaf.
fn build_shaped_hpfq_switch() -> Switch {
    const PORTS: usize = 4;
    let mut sb = SwitchBuilder::new(RATE_BPS);
    sb.with_burst(8)
        .with_telemetry(TelemetryConfig::with_paths());
    for _ in 0..PORTS {
        let mut b = TreeBuilder::new();
        let weights = WeightTable::from_pairs([(FlowId(1), 1), (FlowId(2), 3)]);
        let root = b.add_root("wfq_root", Box::new(Stfq::new(weights)));
        let shaped = b.add_child(root, "fifo_shaped", Box::new(Fifo));
        let open = b.add_child(root, "wfq_open", Box::new(Stfq::unweighted()));
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

/// 16 flows, three waves of 96 packets 15 µs apart.
fn waves() -> Vec<Packet> {
    (0..3u64 * 96)
        .map(|id| {
            let (wave, k) = (id / 96, id % 96);
            Packet::new(id, FlowId((k % 16) as u32), 1_000, Nanos(wave * 15_000))
        })
        .collect()
}

#[test]
fn shaped_switch_telemetry_is_pinned() {
    let arrivals = waves();
    for workers in [1, 2] {
        let mut sw = build_shaped_hpfq_switch();
        let run = sw.run(&arrivals, workers);
        assert_eq!(run.total_departures(), arrivals.len(), "nothing dropped");
        let snap = sw.telemetry_snapshot(&run).expect("telemetry on");
        assert_eq!(
            (json_digest(&snap), paths_digest(&run.ports)),
            (0xbac7_018a_ddf3_1873, 0x8b1d_c171_f607_9a6d),
            "[{workers} workers] snapshot JSON and path-log digests"
        );
    }
}

#[test]
fn lossless_fabric_telemetry_is_pinned() {
    const PORTS: usize = 4;
    let mut sb = SwitchBuilder::new(RATE_BPS);
    sb.with_shared_pool(
        PORTS * 24,
        AdmissionPolicy::PortFlow {
            port: Threshold::Static(24),
            flow: Threshold::Unlimited,
        },
    );
    sb.with_telemetry(TelemetryConfig::with_paths());
    for _ in 0..PORTS {
        sb.add_shared_port(|h| {
            let mut b = TreeBuilder::new();
            let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
            b.build_in_pool(Box::new(move |_| root), h).expect("tree")
        });
    }
    let sw = sb.build(Box::new(|p: &Packet| p.flow.0 as usize % PORTS));
    let mut fabric = LosslessFabric::new(sw, LosslessConfig::new(8, 2).with_headroom(16));
    let sources: Vec<Box<dyn TrafficSource>> = (0..PORTS as u32)
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
    assert!(
        run.count_events(PauseAction::Pause) > 0,
        "the overdriven fabric must pause"
    );
    assert_eq!(run.total_drops(), 0, "lossless stays lossless");
    let snap = run.telemetry.as_ref().expect("telemetry on");
    assert!(
        run.run.ports.iter().all(|p| !p.paths.is_empty()),
        "every port records paths"
    );
    assert_eq!(
        (json_digest(snap), paths_digest(&run.run.ports)),
        (0x19f5_393e_63e9_64a9, 0x1652_e538_cc58_f425),
        "snapshot JSON and path-log digests"
    );
}
