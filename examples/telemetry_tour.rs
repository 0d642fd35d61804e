//! Observability tour: run a 4-port shared-pool fabric with the flight
//! recorder, per-packet path records, and sampled gauges enabled, then
//! walk the three telemetry products — and verify, inline, that
//! telemetry only observes (departures are bit-identical to a
//! telemetry-off run).
//!
//! ```sh
//! cargo run --release --example telemetry_tour
//! ```

use pifo::core::telemetry::EventKind;
use pifo::prelude::*;

const PORTS: usize = 4;
const RATE_BPS: u64 = 10_000_000_000;

fn build(telemetry: Option<TelemetryConfig>) -> Switch {
    let mut sb = SwitchBuilder::new(RATE_BPS);
    sb.with_burst(16);
    sb.with_shared_pool(256, AdmissionPolicy::DynamicThreshold { num: 1, den: 1 });
    if let Some(cfg) = telemetry {
        sb.with_telemetry(cfg);
    }
    for _ in 0..PORTS {
        sb.add_shared_port(|pool| {
            let mut b = TreeBuilder::new();
            let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
            b.build_in_pool(Box::new(move |_| root), pool)
                .expect("tree")
        });
    }
    sb.build(Box::new(|p: &Packet| p.flow.0 as usize % PORTS))
}

fn main() {
    // A bursty deterministic workload: 32 flows, 4 waves of 256 packets.
    let mut arrivals = Vec::new();
    for wave in 0..4u64 {
        for k in 0..256u64 {
            arrivals.push(Packet::new(
                wave * 256 + k,
                FlowId((k % 32) as u32),
                1_000,
                Nanos(wave * 40_000),
            ));
        }
    }

    // Telemetry config: the flight recorder is on by default; opt into
    // path records and sample gauges every 2 scheduling rounds.
    let mut cfg = TelemetryConfig::with_paths();
    cfg.sample_every = 2;

    let mut sw = build(Some(cfg));
    let run = sw.run(&arrivals, 1);
    let snap = sw.telemetry_snapshot(&run).expect("telemetry enabled");

    println!(
        "{} packets in, {} departed, {} dropped\n",
        arrivals.len(),
        run.total_departures(),
        run.total_drops()
    );

    // 1. The flight recorder: per-kind lifetime counts plus the most
    //    recent events retained in each port's ring.
    println!(
        "flight recorder: {} events recorded, {} retained",
        snap.events_recorded,
        snap.events.len()
    );
    for kind in EventKind::ALL {
        if snap.count(kind) > 0 {
            println!("  {:<12} {}", kind.label(), snap.count(kind));
        }
    }

    // 2. Path records: one INT-style digest per departure, index-aligned
    //    with the departure trace, which `path_views` joins them with.
    let port0 = &run.ports[0];
    println!("\npath records on port 0: {}", port0.paths.len());
    for rec in port0.path_views().take(3) {
        println!(
            "  packet {:>4} flow {:>2}: wait {:>12} rank {:>6} depth-at-enqueue {:>3}",
            rec.packet,
            rec.flow.0,
            format!("{}", rec.wait()),
            rec.hops()[0].rank,
            rec.hops()[0].depth
        );
    }

    // 3. Gauges: sampled time series per port.
    println!("\ngauges:");
    for g in &snap.gauges {
        let peak = g.points.iter().map(|p| p.value).max().unwrap_or(0);
        println!(
            "  {:<22} {:>3} samples, peak {}",
            g.name,
            g.points.len(),
            peak
        );
    }

    // The contract: telemetry observes, never steers.
    let base = build(None).run(&arrivals, 1);
    for (a, b) in base.ports.iter().zip(&run.ports) {
        assert_eq!(a.departures, b.departures);
        assert_eq!(a.drops, b.drops);
    }
    println!("\ndeparture traces bit-identical with telemetry on vs off ✓");
    println!(
        "snapshot JSON (schema pifo-telemetry-v1): {} bytes",
        snap.to_json().len()
    );
}
